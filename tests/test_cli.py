import json

import pytest

import rankfed.harness
from rankfed.cli import main
from rankfed.config import RunConfig, config_text, load_config
from rankfed.errors import ParameterError
from rankfed.harness import run_federated
from rankfed.lora import load_adapters

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


class TestConfigFile:
    def test_load_round_trip(self, config_path):
        cfg = load_config(config_path)
        assert cfg.mode == "fixed-rank-lora"
        assert cfg.rounds == 3
        assert cfg.classes == 4
        assert cfg.cl_method == "none"

    def test_render_and_reload(self, tmp_path):
        cfg = RunConfig(rounds=7, mu1=0.25, hidden=(16, 8))
        path = tmp_path / "echo.cfg"
        path.write_text(config_text(cfg))
        again = load_config(path)
        assert again == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\nbogus_key = 1\n")
        with pytest.raises(ParameterError):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            load_config(tmp_path / "nope.cfg")

    def test_infinite_cooldown(self, tmp_path):
        path = tmp_path / "inf.cfg"
        path.write_text("[dropout]\ncooldown = inf\n")
        cfg = load_config(path)
        assert cfg.cooldown == float("inf")


INVALID_VALUES = [
    dict(cooldown=float("nan")), dict(mu1=float("nan")), dict(eta=float("nan")),
    dict(reinit="bogus"), dict(aggregation="x"), dict(cl_method="x"),
    dict(lwf_temperature=0.0), dict(sigma_init=0.0), dict(classes=1),
    dict(probe_samples=1), dict(hidden=(0,)), dict(hidden=128),
    dict(bytes_per_param=-1),
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


class TestSweepCommand:
    def test_grid_cardinality(self, config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", str(config_path), "--mu1", "0,0.01",
                     "--mu2", "0,0.01", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # header + 2x2 grid
