import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import rankfed.cli
import rankfed.harness
from rankfed.cli import main
from rankfed.client import LocalTrainConfig
from rankfed.config import RunConfig, config_text, load_config
from rankfed.data import generate_synthetic
from rankfed.errors import ParameterError
from rankfed.harness import Setup, run_federated
from rankfed.lora import (RankSchedule, init_adapter_set, load_adapters,
                          save_adapters)
from rankfed.model import CLConfig
from rankfed.numerics import Rng, gaussian_matrix
from rankfed.server import ServerSettings, ServerState

TINY_CONFIG = """
[run]
mode = fixed-rank-lora
seed = 4
rounds = 3
eta = 0.1

[dropout]
r_init = 4
r_min = 2

[regularization]
cl_method = none
mu1 = 0
mu2 = 0

[data]
classes = 4
dim = 8
n_per_class = 30
num_clients = 2
scheme = disjoint

[model]
pretrain_epochs = 3
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CONFIG)
    return path


@pytest.fixture
def no_pretraining(monkeypatch):
    def fail(*_, **__):
        raise AssertionError("the base was pretrained")

    monkeypatch.setattr(rankfed.harness, "pretrain_base", fail)


class TestConfigFile:
    def test_load_round_trip(self, config_path):
        cfg = load_config(config_path)
        assert cfg.mode == "fixed-rank-lora"
        assert cfg.rounds == 3
        assert cfg.classes == 4
        assert cfg.cl_method == "none"

    def test_readme_defaults_file_is_complete_and_loads_as_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        keys = [line.split("=")[0].strip() for line in block.splitlines()
                if "=" in line and not line.startswith(";")]
        assert keys == [f.name for f in fields(RunConfig)]
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        assert load_config(path) == RunConfig()

    def test_render_and_reload(self, tmp_path):
        cfg = RunConfig(rounds=7, mu1=0.25, hidden=(16, 8))
        path = tmp_path / "echo.cfg"
        path.write_text(config_text(cfg))
        again = load_config(path)
        assert again == cfg

    def test_every_field_round_trips(self, tmp_path):
        values = dict(
            mode="fedavg-full", seed=11, rounds=9, local_epochs=3, eta=0.25,
            eta_decay=0.95, batch_size=7, participation=0.5, count_ops=True,
            r_init=6, r_min=3, subtractor=1, theta=0.8, lam=0.25, cooldown=3.5,
            reinit="gaussian", aggregation="dense", cl_method="mas", mu1=0.5,
            mu2=0.125, lwf_temperature=2.5, task="multilabel", classes=6,
            dim=12, n_per_class=50, separation=1.5, scheme="overlap",
            classes_per_client=3, shared_classes=1, num_clients=4, num_labels=5,
            n_samples=600, multilabel_skew=0.75, csv_path="data/points.csv",
            label_column="target", hidden=(24, 12), sigma_init=0.05,
            pretrain_epochs=10, pretrain_eta=0.1, pretrain_batch=16,
            probe_samples=64, bytes_per_param=2,
        )
        default = RunConfig()
        assert sorted(values) == sorted(f.name for f in fields(RunConfig))
        assert all(v != getattr(default, k) for k, v in values.items())
        # a CSV holds multiclass labels: task and csv_path keep their defaults in turn
        for turn in (dict(csv_path=""), dict(task="multiclass")):
            cfg = RunConfig(**{**values, **turn}).validate()
            path = tmp_path / "all.cfg"
            path.write_text(config_text(cfg))
            again = load_config(path)
            assert again == cfg
            assert all(type(getattr(again, k)) is type(v) for k, v in values.items())

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\nbogus_key = 1\n")
        with pytest.raises(ParameterError):
            load_config(path)

    def test_default_section_rejected(self, tmp_path):
        # its keys reached no field: seed = 3 ran at seed 0
        path = tmp_path / "default.cfg"
        path.write_text("[DEFAULT]\nseed = 3\n")
        with pytest.raises(ParameterError, match=r"unknown config section \[DEFAULT\]"):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            load_config(tmp_path / "nope.cfg")

    def test_percent_sign_round_trips(self, tmp_path):
        # values are literal: "%" starts no interpolation
        cfg = RunConfig(csv_path="data/100%(x)s.csv", label_column="50%")
        path = tmp_path / "percent.cfg"
        path.write_text(config_text(cfg))
        assert load_config(path) == cfg

    def test_lam_one_validates(self, tmp_path):
        # lam = 1 keeps the accumulator as is at every phase boundary
        path = tmp_path / "lam.cfg"
        path.write_text("[dropout]\nlam = 1\n")
        cfg = load_config(path)
        assert cfg.lam == 1.0
        assert cfg.validate() is cfg

    def test_infinite_cooldown(self, tmp_path):
        path = tmp_path / "inf.cfg"
        path.write_text("[dropout]\ncooldown = inf\n")
        cfg = load_config(path)
        assert cfg.cooldown == float("inf")

    @pytest.mark.parametrize("raw", ["Infinity", "INF", "+inf"])
    def test_infinite_cooldown_spellings(self, raw, tmp_path):
        path = tmp_path / "inf.cfg"
        path.write_text(f"[dropout]\ncooldown = {raw}\n")
        assert load_config(path).cooldown == float("inf")

    @pytest.mark.parametrize("raw", ["nan", "-inf"])
    def test_nan_or_negative_infinite_cooldown_exits_2(self, raw, tmp_path, capsys):
        path = tmp_path / "cooldown.cfg"
        path.write_text(f"[dropout]\ncooldown = {raw}\n")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "cooldown" in capsys.readouterr().err

    @pytest.mark.parametrize("raw, value", [
        ("1", True), ("true", True), ("Yes", True), ("ON", True),
        ("0", False), ("FALSE", False), ("no", False), ("Off", False),
    ])
    def test_boolean_spellings(self, raw, value, tmp_path):
        path = tmp_path / "bool.cfg"
        path.write_text(f"[run]\ncount_ops = {raw}\n")
        assert load_config(path).count_ops is value

    @pytest.mark.parametrize("raw", ["maybe", "2"])
    def test_bad_boolean_exits_2(self, raw, tmp_path, capsys):
        path = tmp_path / "bool.cfg"
        path.write_text(f"[run]\ncount_ops = {raw}\n")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "bad value" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["32,,16", ",32", "32,"])
    def test_empty_hidden_entry_exits_2(self, raw, tmp_path, capsys):
        # an empty entry is an error, not a skipped layer
        path = tmp_path / "hidden.cfg"
        path.write_text(f"[model]\nhidden = {raw}\n")
        with pytest.raises(ParameterError, match="bad value for 'hidden'"):
            load_config(path)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "bad value for 'hidden'" in capsys.readouterr().err

    def test_spaces_around_hidden_entries(self, tmp_path):
        path = tmp_path / "hidden.cfg"
        path.write_text("[model]\nhidden = 32 ,16 , 8\n")
        assert load_config(path).hidden == (32, 16, 8)


INVALID_VALUES = [
    dict(cooldown=float("nan")), dict(mu1=float("nan")), dict(eta=float("nan")),
    dict(eta=-0.1),
    dict(reinit="bogus"), dict(aggregation="x"), dict(cl_method="x"),
    dict(lwf_temperature=0.0), dict(sigma_init=0.0), dict(classes=1),
    dict(probe_samples=1), dict(hidden=(0,)), dict(hidden=128),
    dict(bytes_per_param=-1),
    # no layer of the 16x8x10 network hosts rank 16
    dict(r_init=16, hidden=(8,)), dict(mode="fixed-rank-lora", r_init=16, hidden=(8,)),
    # spd-cfl cannot drop from 4 by 3 without passing r_min 2
    dict(r_init=4, r_min=2, subtractor=3),
    # rules that validate() leaves to LocalTrainConfig and RankSchedule
    dict(local_epochs=-1), dict(batch_size=0), dict(subtractor=0),
    dict(mode="fixed-rank-lora", r_init=2, r_min=4),
    # NaN in an int field, which the type check rejects first
    dict(local_epochs=float("nan")), dict(batch_size=float("nan")),
    dict(subtractor=float("nan")),
    # a CSV has multiclass labels only
    dict(task="multilabel", csv_path="points.csv"),
]


@pytest.mark.parametrize("bad", INVALID_VALUES,
                         ids=lambda d: ",".join(f"{k}={v!r}" for k, v in d.items()))
def test_invalid_value_rejected_before_data_generation(bad, tmp_path, monkeypatch):
    def no_data(*_):
        raise AssertionError("data generated before validation")

    monkeypatch.setattr(rankfed.harness, "build_dataset", no_data)
    with pytest.raises(ParameterError):
        RunConfig(**bad).validate()
    with pytest.raises(ParameterError):
        run_federated(RunConfig(**bad))
    # The config file format can express every value but a non-tuple hidden.
    if isinstance(bad.get("hidden", ()), tuple):
        path = tmp_path / "bad.cfg"
        path.write_text(config_text(RunConfig(**bad)))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("key, value", [
    ("seed", 1.5), ("rounds", 2.5), ("rounds", True), ("num_clients", 5.0),
    ("batch_size", 16.0), ("dim", 16.0), ("r_init", 8.0), ("probe_samples", 64.5),
    ("count_ops", 1), ("eta", "0.1"),
])
def test_value_of_another_type_rejected(key, value):
    with pytest.raises(ParameterError, match=f"^{key} must be of type "):
        RunConfig(**{key: value}).validate()


def test_numpy_scalars_and_an_int_for_a_float_validate():
    RunConfig(seed=np.int64(3), rounds=np.int32(2), eta=np.float64(0.1),
              cooldown=5).validate()


def test_rank_rules_bind_only_the_modes_they_concern():
    # a fixed rank never drops; fedavg-full has no adapters and no rank
    RunConfig(mode="fixed-rank-lora", r_init=4, r_min=2, subtractor=3).validate()
    RunConfig(mode="fedavg-full", r_init=16, hidden=(8,)).validate()
    # a rank equal to the largest cap, and the explicit off switch, stay valid
    RunConfig(r_init=8, hidden=(8,)).validate()
    RunConfig(cooldown=float("inf")).validate()


NAN, INF = float("nan"), float("inf")
_ADAPTERS = init_adapter_set([(8, 8), (4, 8)], 4, 0.1, Rng(0))
CONSTRUCTOR_CHECKS = {
    "CLConfig-mu1-nan": lambda: CLConfig("ewc", mu1=NAN),
    "CLConfig-mu1-inf": lambda: CLConfig("ewc", mu1=INF),
    "CLConfig-mu2-nan": lambda: CLConfig("ewc", mu2=NAN),
    "CLConfig-lwf_temperature-nan": lambda: CLConfig("lwf", lwf_temperature=NAN),
    "LocalTrainConfig-eta-nan": lambda: LocalTrainConfig(1, NAN, 8),
    "LocalTrainConfig-eta-inf": lambda: LocalTrainConfig(1, INF, 8),
    "LocalTrainConfig-epochs-nan": lambda: LocalTrainConfig(NAN, 0.1, 8),
    "LocalTrainConfig-batch_size-nan": lambda: LocalTrainConfig(1, 0.1, NAN),
    "RankSchedule-subtractor-nan": lambda: RankSchedule(4, 2, NAN),
    "RankSchedule-phase-nan": lambda: RankSchedule(4, 2, 1, NAN),
    "gaussian_matrix-sigma-nan": lambda: gaussian_matrix(2, 2, NAN, Rng(0)),
    "generate_synthetic-separation-nan": lambda: generate_synthetic(3, 4, 10, NAN, Rng(0)),
    "ServerSettings-theta-nan": lambda: ServerSettings(theta=NAN),
    "ServerSettings-theta-one": lambda: ServerSettings(theta=1.0),
    "ServerSettings-lam-nan": lambda: ServerSettings(lam=NAN),
    "ServerSettings-lam-above-one": lambda: ServerSettings(lam=1.5),
    "ServerSettings-cooldown-nan": lambda: ServerSettings(cooldown=NAN),
    "ServerSettings-cooldown-negative": lambda: ServerSettings(cooldown=-1),
    "ServerSettings-aggregation-unknown": lambda: ServerSettings(aggregation="mean"),
    "ServerSettings-reinit-unknown": lambda: ServerSettings(reinit="qr"),
    "ServerState-gaussian-no-rng": lambda: ServerState(
        _ADAPTERS, RankSchedule(4, 2, 2), ServerSettings(reinit="gaussian")),
    "ServerState-gaussian-sigma-nan": lambda: ServerState(
        _ADAPTERS, RankSchedule(4, 2, 2), ServerSettings(reinit="gaussian"),
        reinit_sigma=NAN, reinit_rng=Rng(0)),
}


@pytest.mark.parametrize("case", list(CONSTRUCTOR_CHECKS))
def test_library_constructor_rejects_what_validate_rejects(case):
    with pytest.raises(ParameterError):
        CONSTRUCTOR_CHECKS[case]()


@pytest.mark.parametrize("key, value, message", [
    ("theta", 1.0, "theta must lie in [0, 1), got 1.0"),
    ("lam", NAN, "lam must lie in [0, 1], got nan"),
    ("cooldown", -1, "cooldown must be >= 0 (inf: never drop), got -1"),
    ("reinit", "qr", "reinit must be one of ('svd', 'gaussian'), got 'qr'"),
    ("aggregation", "mean", "aggregation must be one of ('factor', 'dense'), got 'mean'"),
])
def test_validate_and_server_settings_raise_the_same_message(key, value, message):
    # the owner's message names the config key, as validate() always has
    for build in (lambda: RunConfig(**{key: value}).validate(),
                  lambda: ServerSettings(**{key: value})):
        with pytest.raises(ParameterError) as raised:
            build()
        assert str(raised.value) == message


def test_empty_multilabel_shard_rejected_before_pretraining(tmp_path, monkeypatch,
                                                           capsys):
    def no_pretraining(*_, **__):
        raise AssertionError("base pretrained before the partition was checked")

    monkeypatch.setattr(rankfed.harness, "pretrain_base", no_pretraining)
    # 14 training samples for 20 clients
    cfg = RunConfig(task="multilabel", n_samples=20, num_clients=20)
    with pytest.raises(ParameterError, match="empty shard"):
        run_federated(cfg)
    path = tmp_path / "tiny.cfg"
    path.write_text(config_text(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "empty shard" in capsys.readouterr().err


@pytest.mark.parametrize("small", [
    dict(n_per_class=6),  # 0 validation rows per class
    dict(task="multilabel", n_samples=12, num_clients=2),  # 1 validation row
], ids=["no-rows", "one-row"])
def test_small_validation_split_rejected_before_pretraining(small, tmp_path,
                                                            no_pretraining, capsys):
    cfg = RunConfig(**small)
    with pytest.raises(ParameterError, match="validation split"):
        run_federated(cfg)
    path = tmp_path / "small.cfg"
    path.write_text(config_text(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "validation split has" in capsys.readouterr().err


def test_one_validation_row_suffices_without_the_probe():
    cfg = RunConfig(mode="fedavg-full", task="multilabel", n_samples=12, num_clients=2)
    assert len(Setup(cfg.validate()).dataset.val_x) == 1


def test_missing_csv_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent.csv"
    cfg = RunConfig(csv_path=str(missing))
    with pytest.raises(ParameterError, match="absent.csv"):
        run_federated(cfg)
    path = tmp_path / "csv.cfg"
    path.write_text(config_text(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert str(missing) in capsys.readouterr().err


MALFORMED_CSV = {
    "empty": "",
    "no-label-column": "f0,target\n1.0,a\n",
    "short-row": "f0,label\n1.0,a\n2.0\n",
    "non-numeric-feature": "f0,label\noops,a\n",
    "no-data-rows": "f0,label\n\n",
}


MALFORMED_CONFIG = {
    "duplicate-key": b"[run]\nseed = 1\nseed = 2\n",
    "duplicate-section": b"[run]\nseed = 1\n[run]\nrounds = 2\n",
    "key-before-section": b"seed = 1\n[run]\n",
    "no-equals": b"[run]\nseed\n",
    "non-utf8": b"[run]\nmode = spd-cfl\xff\n",
    "interpolation": b"[run]\nmode = %(x)s\n",
}


@pytest.mark.parametrize("case", list(MALFORMED_CONFIG))
def test_malformed_config_file_exits_2(case, tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(MALFORMED_CONFIG[case])
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    # a parse error names the file; a literal "%(x)s" fails as a bad mode
    assert str(path) in err if case != "interpolation" else "'%(x)s'" in err


@pytest.mark.parametrize("case", list(MALFORMED_CSV))
def test_malformed_csv_exits_2_before_pretraining(case, tmp_path, capsys, no_pretraining):
    data = tmp_path / "data.csv"
    data.write_text(MALFORMED_CSV[case])
    path = tmp_path / "csv.cfg"
    path.write_text(config_text(RunConfig(csv_path=str(data))))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_csv_feature_exits_2_before_pretraining(value, tmp_path, capsys,
                                                           no_pretraining):
    # 60 rows, 8 features, 3 classes: valid for the default network but for
    # one feature on line 7
    rows = [[str((i * (j + 1)) % 11 / 10) for j in range(8)] + ["abc"[i % 3]]
            for i in range(60)]
    rows[5][3] = value
    data = tmp_path / "data.csv"
    data.write_text("".join(",".join(row) + "\n" for row in
                            [[f"f{j}" for j in range(8)] + ["label"], *rows]))
    cfg = RunConfig(csv_path=str(data), num_clients=2).validate()
    with pytest.raises(ParameterError, match=f"line 7: non-finite feature '{value}'"):
        run_federated(cfg)
    path = tmp_path / "csv.cfg"
    path.write_text(config_text(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"line 7: non-finite feature '{value}'" in capsys.readouterr().err


def test_single_class_csv_exits_2_before_pretraining(tmp_path, capsys, no_pretraining):
    # every label is "cat": nothing to classify, yet the run would report a
    # perfect score
    rows = [[str((i * (j + 1)) % 11 / 10) for j in range(8)] + ["cat"]
            for i in range(60)]
    data = tmp_path / "data.csv"
    data.write_text("".join(",".join(row) + "\n" for row in
                            [[f"f{j}" for j in range(8)] + ["label"], *rows]))
    cfg = RunConfig(csv_path=str(data), scheme="iid", num_clients=2, r_init=3,
                    r_min=1, subtractor=1, rounds=2).validate()
    message = "label column 'label' holds a single class, 'cat'"
    with pytest.raises(ParameterError, match=message):
        run_federated(cfg)
    path = tmp_path / "csv.cfg"
    path.write_text(config_text(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_r_init_above_csv_rank_cap_rejected_before_pretraining(tmp_path, no_pretraining):
    # two features and two classes: the 2x32x2 network hosts rank 2 at most,
    # which only reading the CSV reveals
    data = tmp_path / "data.csv"
    data.write_text("f0,f1,label\n" + "".join(f"{i},{-i},{'ab'[i % 2]}\n"
                                             for i in range(20)))
    cfg = RunConfig(csv_path=str(data), num_clients=2, r_init=4, r_min=1,
                    subtractor=1).validate()
    with pytest.raises(ParameterError, match="r_init 4 exceeds the largest "
                                             "per-layer rank cap 2 of the 2x32x2"):
        run_federated(cfg)
    path = tmp_path / "csv.cfg"
    path.write_text(config_text(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    with pytest.raises(AssertionError, match="pretrained"):
        run_federated(replace(cfg, r_init=2))


class TestRunCommand:
    def test_outputs_written(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out)]) == 0
        for name in ("records.jsonl", "summary.csv", "partition.manifest",
                     "adapters_final.ckpt"):
            assert (out / name).exists(), name
        summary = json.loads(capsys.readouterr().out)
        assert summary["rounds"] == 3
        lines = (out / "records.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["schema_version"] == 1

    def test_stdout_summary_pinned(self, config_path, tmp_path, capsys):
        # every byte of the summary line: key order, float repr, the newline
        assert main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out == (
            '{"rounds": 3, "final_val_metric": 0.0625, "final_test_metric": 0.05, '
            '"best_val_round": 1, "transmitted_params_at_best": 1216, '
            '"transmitted_mb_at_best": 0.004638671875}\n')

    def test_reruns_byte_identical(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(config_path), "--out", str(out1)]) == 0
        assert main(["run", str(config_path), "--out", str(out2)]) == 0
        for name in ("records.jsonl", "summary.csv", "adapters_final.ckpt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_output(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", str(config_path), "--out", str(out1)])
        main(["run", str(config_path), "--seed", "99", "--out", str(out2)])
        assert ((out1 / "records.jsonl").read_bytes()
                != (out2 / "records.jsonl").read_bytes())

    def test_mode_flag_applies_before_validation(self, tmp_path):
        # r_init = r_min is a fixed rank: a file that names no mode is an
        # spd-cfl run that can never drop, and valid once --mode fixes the rank
        path = tmp_path / "fixed.cfg"
        path.write_text(TINY_CONFIG.replace("mode = fixed-rank-lora\n", "")
                        .replace("r_min = 2", "r_min = 4"))
        assert main(["run", str(path), "--out", str(tmp_path / "a")]) == 2
        assert main(["run", str(path), "--mode", "fixed-rank-lora",
                     "--out", str(tmp_path / "b")]) == 0

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "missing.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_flag_exits_2(self, config_path, tmp_path):
        code = main(["run", str(config_path), "--bogus", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 2


class TestPartitionCommand:
    def test_disjoint_manifest_reports_ks_one(self, tmp_path, capsys):
        out = tmp_path / "plan.manifest"
        code = main(["partition", "--scheme", "disjoint", "--classes", "10",
                     "--clients", "5", "--seed", "0", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "mean_pairwise_ks: 1.000000" in text
        assert "achieved_ks = 1.000000" in capsys.readouterr().err

    def test_manifest_equals_the_runs(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["run", str(config_path), "--out", str(out)]) == 0
        manifest = tmp_path / "plan.manifest"
        assert main(["partition", "--config", str(config_path),
                     "--out", str(manifest)]) == 0
        assert manifest.read_bytes() == (out / "partition.manifest").read_bytes()

    def test_never_pretrains(self, config_path, tmp_path, no_pretraining):
        assert main(["partition", "--config", str(config_path), "--seed", "9",
                     "--out", str(tmp_path / "plan.manifest")]) == 0

    def test_stdout_manifest(self, capsys):
        code = main(["partition", "--scheme", "iid", "--classes", "4",
                     "--clients", "2", "--seed", "1"])
        assert code == 0
        assert "scheme: iid" in capsys.readouterr().out


class TestEvalCommand:
    def test_eval_checkpoint(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", str(config_path), "--out", str(out)])
        run_summary = capsys.readouterr()
        code = main(["eval", str(config_path),
                     str(out / "adapters_final.ckpt"), "--split", "test"])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert "accuracy" in metrics
        # same config + seed reconstruct the same base: metrics must agree
        records = (out / "records.jsonl").read_text().splitlines()
        last = json.loads(records[-1])
        assert metrics["accuracy"] == pytest.approx(last["test_metric"], abs=1e-12)

    def test_never_partitions(self, config_path, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out)]) == 0

        def no_partition(*_):
            raise AssertionError("eval built a partition")

        monkeypatch.setattr(rankfed.harness, "build_partition", no_partition)
        assert main(["eval", str(config_path), str(out / "adapters_final.ckpt")]) == 0

    def test_checkpoint_from_another_base_exits_2(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out)]) == 0
        other = tmp_path / "other.cfg"
        other.write_text(TINY_CONFIG.replace("seed = 4", "seed = 5")
                         .replace("pretrain_epochs = 3", "pretrain_epochs = 9"))
        capsys.readouterr()
        code = main(["eval", str(other), str(out / "adapters_final.ckpt")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: checkpoint was trained on base sha256")

    def test_version_2_checkpoint_exits_2_before_pretraining(self, config_path, tmp_path,
                                                             no_pretraining, capsys):
        path = tmp_path / "v2.ckpt"
        save_adapters(path, init_adapter_set([(3, 2)], 2, 0.1, Rng(0)), "00" * 32)
        raw = path.read_bytes()
        # version 2: the v3 layout without the 32-byte base checksum
        path.write_bytes(raw[:4] + (2).to_bytes(4, "little") + raw[8:16] + raw[48:])
        assert main(["eval", str(config_path), str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unsupported checkpoint version 2: "
                                       "only version 3 names its base")

    def test_checkpoint_that_does_not_fit_the_base_exits_2(self, config_path, tmp_path,
                                                           capsys):
        # adapters for a hidden=(8,) network; the config's base has hidden=(32,)
        base = Setup(load_config(config_path)).base
        adapters = init_adapter_set([(8, 8), (4, 8)], 4, 0.1, Rng(0))
        path = tmp_path / "other.ckpt"
        # a v3 file carrying this base's checksum stands for a corrupted header
        save_adapters(path, adapters, base.checksum())
        capsys.readouterr()
        assert main(["eval", str(config_path), str(path)]) == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("error: checkpoint layer shapes [(8, 8), (4, 8)] do not fit")
        assert "[(32, 8), (4, 32)]" in err

    @pytest.mark.parametrize("damage", ["truncated", "trailing"])
    def test_damaged_checkpoint_exits_2(self, config_path, tmp_path, capsys, damage):
        out = tmp_path / "out"
        main(["run", str(config_path), "--out", str(out)])
        raw = (out / "adapters_final.ckpt").read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:-3] if damage == "truncated" else raw + b"\x00")
        with pytest.raises(ParameterError, match=damage):
            load_adapters(bad)
        capsys.readouterr()
        code = main(["eval", str(config_path), str(bad)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {damage} checkpoint")

    @pytest.mark.parametrize("unreadable", ["missing", "directory"])
    def test_unreadable_checkpoint_exits_2(self, config_path, tmp_path, capsys,
                                           unreadable):
        path = tmp_path / "absent.ckpt" if unreadable == "missing" else tmp_path
        with pytest.raises(ParameterError, match="cannot read checkpoint"):
            load_adapters(path)
        assert main(["eval", str(config_path), str(path)]) == 2
        assert str(path) in capsys.readouterr().err


class TestSweepCommand:
    def test_bad_partition_exits_2_before_the_csv(self, config_path, tmp_path,
                                                  no_pretraining, capsys):
        # disjoint needs a class per client; the config has 4 classes
        path = tmp_path / "eleven.cfg"
        path.write_text(config_path.read_text().replace("num_clients = 2",
                                                        "num_clients = 11"))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(path), "--mu1", "0,0.01", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_grid_cardinality(self, config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", str(config_path), "--mu1", "0,0.01",
                     "--mu2", "0,0.01", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # header + 2x2 grid

    def test_lam_one_runs(self, config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", str(config_path), "--lam", "1", "--out", str(out)])
        assert code == 0
        header, row = out.read_text().strip().splitlines()
        assert row.split(",")[header.split(",").index("lam")] == "1.0"

    def test_csv_pinned(self, tmp_path):
        # spd-cfl with LwF at eta 0.5, so that the mu2 axis moves the metrics
        path = tmp_path / "sweep.cfg"
        path.write_text(TINY_CONFIG.replace("mode = fixed-rank-lora", "mode = spd-cfl")
                        .replace("cl_method = none", "cl_method = lwf")
                        .replace("eta = 0.1", "eta = 0.5"))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(path), "--mu2", "0,1", "--theta", "0.5,0.9",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (
            b"mu1,mu2,theta,lam,final_val_metric,final_test_metric,best_val_round,"
            b"transmitted_params_at_best,transmitted_mb_at_best\r\n"
            b"0.0,0.0,0.5,0.5,0.375,0.45,3,3648,0.013916015625\r\n"
            b"0.0,0.0,0.9,0.5,0.375,0.45,3,3648,0.013916015625\r\n"
            b"0.0,1.0,0.5,0.5,0.3125,0.4,3,3648,0.013916015625\r\n"
            b"0.0,1.0,0.9,0.5,0.3125,0.4,3,3648,0.013916015625\r\n")

    @pytest.mark.parametrize("flag, value", [
        ("--mu1", "abc"),        # not a number
        ("--theta", "0.5,1.5"),  # the second grid point is out of range
        ("--lam", ","),          # no values at all
        # an empty entry is an error, not a skipped grid point
        ("--mu1", "0,,0.1"), ("--mu1", ",0.1"), ("--mu1", "0.1,"),
    ])
    def test_bad_axis_exits_2_before_any_run(self, config_path, tmp_path, capsys,
                                              monkeypatch, flag, value):
        def no_run(config):
            raise AssertionError("a grid point ran before the grid was validated")

        monkeypatch.setattr(rankfed.cli, "run_federated", no_run)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", str(config_path), flag, value, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
