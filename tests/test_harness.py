import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import linear_probe_accuracy, one_hot

from rankfed import harness, model
from rankfed.config import RunConfig
from rankfed.data import generate_multilabel, generate_synthetic
from rankfed.errors import InputError, NumericError, ParameterError, ShapeError
from rankfed.harness import (build_dataset, build_pretrain_dataset, evaluate,
                             prepare_splits, pretrain_base, records_jsonl,
                             run_federated)
from rankfed.lora import AdapterSet, init_adapter_set
from rankfed.metrics import accuracy_score, column_aucs, prepare_labels
from rankfed.model import FrozenBase, Walk, forward, random_base, supervised_loss_and_grads
from rankfed.numerics import Rng

TINY = dict(rounds=4, classes=4, dim=8, n_per_class=30, num_clients=2,
            scheme="disjoint", r_init=4, r_min=2, subtractor=2, eta=0.1,
            pretrain_epochs=5)


class TestPretrainBase:
    def test_zero_epochs_gives_random_base(self):
        ds = generate_synthetic(4, 8, 30, 2.0, Rng(0).substream("d"))
        base = pretrain_base(ds, 0, Rng(0).substream("p"))
        assert base.layer_shapes()[-1][0] == 4
        assert base.layer_shapes()[0][1] == 8

    def test_zero_width_hidden_layer_rejected(self):
        ds = generate_synthetic(4, 8, 30, 2.0, Rng(0).substream("d"))
        with pytest.raises(ShapeError, match="layer widths must be >= 1"):
            pretrain_base(ds, 1, Rng(0).substream("p"), hidden=(0,))

    @pytest.mark.parametrize("task", ["multiclass", "multilabel"])
    def test_equals_a_reference_loop_stepping_with_the_loss_kernel(self, task):
        # pretraining steps with gradients only; the reference takes the same
        # steps through supervised_loss_and_grads and discards its loss
        if task == "multiclass":
            ds = generate_synthetic(4, 8, 30, 2.0, Rng(0).substream("d"))
            targets = one_hot(ds.train_y, ds.num_classes)
        else:
            ds = generate_multilabel(150, 8, 5, Rng(0).substream("d"))
            targets = ds.train_y.astype(np.float64)
        rng, epochs, eta, batch = Rng(0).substream("p"), 3, 0.05, 16
        base = pretrain_base(ds, epochs, rng, eta, batch, hidden=(12,))

        init = random_base([ds.dim, 12, ds.num_classes], rng)
        weights = [w.copy() for w in init.weights]
        biases = [b.copy() for b in init.biases]
        n = len(ds.train_x)
        assert n % batch != 0  # a short last batch
        for epoch in range(epochs):
            order = rng.substream("pretrain-shuffle", epoch).permutation(n)
            for start in range(0, n, batch):
                idx = order[start:start + batch]
                _, grads = supervised_loss_and_grads(
                    Walk(weights, biases), ds.train_x[idx], targets[idx], task)
                for w, b, (gw, gb) in zip(weights, biases, grads):
                    w -= eta * gw
                    b -= eta * gb
        assert base.checksum() == FrozenBase(tuple(weights), tuple(biases)).checksum()

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_train_label_out_of_range_fails_before_pretraining(self, monkeypatch, bad):
        # np.eye(4)[-1] would be class 3's row, and at the kernel a one-hot
        # row cannot be out of range: the run checks its labels once, where
        # it forms the targets, before any pretraining step
        good = generate_synthetic(4, 8, 30, 2.0, Rng(0).substream("d"))
        train_y = good.train_y.copy()
        train_y[5] = bad
        monkeypatch.setattr(harness, "build_dataset",
                            lambda config, rng: replace(good, train_y=train_y))

        def pretrain_stub(*args, **kwargs):
            raise AssertionError("pretraining began before the labels were checked")

        monkeypatch.setattr(harness, "pretrain_base", pretrain_stub)
        with pytest.raises(InputError, match=r"labels must lie in \[0, 4\)"):
            run_federated(RunConfig(mode="spd-cfl", **TINY))

    def test_frozen_after_construction(self):
        ds = generate_synthetic(4, 8, 30, 2.0, Rng(0).substream("d"))
        base = pretrain_base(ds, 2, Rng(0).substream("p"))
        with pytest.raises(ValueError):
            base.weights[0][0, 0] = 99.0

    def test_checksum_unchanged_by_full_run(self):
        cfg = RunConfig(mode="spd-cfl", seed=2, cl_method="ewc",
                        mu1=0.01, mu2=0.01, **TINY)
        result = run_federated(cfg)
        assert result.base.checksum() == result.base_checksum

    def test_pretrained_features_beat_random_probe(self):
        gaps = []
        for seed in range(5):
            cfg = RunConfig(seed=seed, classes=6, dim=16, n_per_class=150,
                            separation=2.5)
            root = Rng(seed)
            ds = build_dataset(cfg, root.substream("data"))
            pre = build_pretrain_dataset(cfg, ds, root.substream("pretrain-data"))
            trained = pretrain_base(pre, 40, root.substream("pretrain"))
            random_b = pretrain_base(pre, 0, root.substream("pretrain"))

            def probe(base):
                feats_tr = forward(base, None, ds.train_x)[1][-2]
                feats_te = forward(base, None, ds.test_x)[1][-2]
                return linear_probe_accuracy(feats_tr, ds.train_y,
                                             feats_te, ds.test_y, 6)

            gaps.append(probe(trained) - probe(random_b))
        assert float(np.mean(gaps)) > 0


class TestRunFederated:
    def test_single_client_single_round(self):
        cfg = RunConfig(mode="fixed-rank-lora", seed=1,
                        **{**TINY, "rounds": 1, "num_clients": 2})
        result = run_federated(cfg)
        assert len(result.records) == 1
        rec = result.records[0]
        assert rec.rank == 4
        assert rec.dropped is False
        assert rec.cumulative_params > 0

    def test_protocol_reduction_bitwise(self):
        shared = dict(seed=3, **TINY)
        spd = RunConfig(mode="spd-cfl", cooldown=math.inf, cl_method="ewc",
                        mu1=0.0, mu2=0.0, **shared)
        fixed = RunConfig(mode="fixed-rank-lora", cl_method="none",
                          mu1=0.0, mu2=0.0, **shared)
        r1 = run_federated(spd)
        r2 = run_federated(fixed)
        assert records_jsonl(r1.records) == records_jsonl(r2.records)
        for a, b in zip(r1.final_adapters, r2.final_adapters):
            assert np.array_equal(a.B, b.B) and np.array_equal(a.A, b.A)

    def test_rank_never_drops_without_m_increase_possible(self):
        cfg = RunConfig(mode="spd-cfl", seed=4, cooldown=math.inf,
                        cl_method="ewc", mu1=0.01, mu2=0.01, **TINY)
        result = run_federated(cfg)
        assert all(r.rank == 4 for r in result.records)
        assert not any(r.dropped for r in result.records)

    def test_ledger_matches_posthoc_recomputation(self):
        cfg = RunConfig(mode="spd-cfl", seed=5, cooldown=1, cl_method="ewc",
                        mu1=0.01, mu2=0.01, **{**TINY, "rounds": 12})
        result = run_federated(cfg)
        shapes = result.base.layer_shapes()
        s = result.ledger.num_clients
        cum = 0
        for rec in result.records:
            per_round = sum(min(rec.rank, h1, h2) * (h1 + h2) for h1, h2 in shapes)
            cum += 2 * s * per_round
            assert rec.cumulative_params == cum

    def test_cost_at_best_is_the_best_rounds_cumulative_params(self):
        # the best validation round (6) comes after a drop (at round 3) and
        # before the last (8), so neither the last record nor rounds times a
        # constant count gives it
        cfg = RunConfig(mode="spd-cfl", seed=0, cooldown=1, cl_method="ewc",
                        bytes_per_param=2,
                        **{**TINY, "rounds": 8, "scheme": "iid"})
        result = run_federated(cfg)
        best = result.best_val_round
        assert best < cfg.rounds
        assert result.records[best - 1].rank < cfg.r_init
        sent = result.records[best - 1].cumulative_params
        # by hand: 2 * S * sum(r * (h1 + h2)) over rounds 1..best
        shapes = result.base.layer_shapes()
        assert sent == sum(2 * cfg.num_clients * rec.rank * sum(h1 + h2 for h1, h2 in shapes)
                           for rec in result.records[:best])
        assert result.cost_at_best == (sent, sent * 2 / 2**20)

    def test_cumulative_params_nondecreasing(self):
        cfg = RunConfig(mode="spd-cfl", seed=6, cl_method="none",
                        mu1=0, mu2=0, **TINY)
        result = run_federated(cfg)
        cums = [r.cumulative_params for r in result.records]
        assert all(b >= a for a, b in zip(cums, cums[1:]))

    def test_fedavg_full_mode(self):
        cfg = RunConfig(mode="fedavg-full", seed=7, **TINY)
        result = run_federated(cfg)
        assert result.final_adapters is None
        rec = result.records[-1]
        assert rec.rank is None and rec.consistency is None
        # full model transmits every weight and bias
        expected = sum(w.size + b.size
                       for w, b in zip(result.base.weights, result.base.biases))
        assert result.ledger.params_per_round[0] == expected
        assert rec.val_metric is not None

    def test_fedavg_transmits_more_than_lora(self):
        base_kwargs = dict(seed=8, **TINY)
        full = run_federated(RunConfig(mode="fedavg-full", **base_kwargs))
        lora = run_federated(RunConfig(mode="fixed-rank-lora", cl_method="none",
                                       mu1=0, mu2=0, **base_kwargs))
        assert (full.records[-1].cumulative_params
                > lora.records[-1].cumulative_params)

    def test_partial_participation(self):
        cfg = RunConfig(mode="fixed-rank-lora", seed=9, participation=0.5,
                        cl_method="none", mu1=0, mu2=0,
                        **{**TINY, "num_clients": 4})
        result = run_federated(cfg)
        assert result.ledger.num_clients == 2
        assert len(result.records[0].wd_plasticity) == 2

    @pytest.mark.parametrize("participation, num_clients, expected", [
        (0.14, 50, 7), (0.28, 25, 7), (0.07, 100, 7), (0.56, 25, 14), (0.5, 5, 3)])
    def test_participant_count_is_the_ceiling_of_the_written_decimal(
            self, participation, num_clients, expected):
        # 0.14 * 50 is 7.000000000000001 in floats; its ceiling would be 8
        cfg = RunConfig(participation=participation, num_clients=num_clients,
                        scheme="iid")
        count = harness._participant_count(cfg)
        assert len(harness._participants(num_clients, count, Rng(0), 1)) == expected

    def test_diverged_run_names_its_clients(self):
        # eta 1000 with EWC overflows in round 2: the run stops there rather
        # than record NaN or Infinity
        cfg = RunConfig(cl_method="ewc", **{**TINY, "eta": 1000.0, "rounds": 2})
        with pytest.raises(NumericError,
                           match=r"^clients 0, 1: overflow encountered in \w+ at round 2 "
                                 r"\(training diverged\)$"):
            run_federated(cfg)

    def test_invalid_config_rejected_before_execution(self):
        with pytest.raises(ParameterError):
            run_federated(RunConfig(mode="bogus", **TINY))
        with pytest.raises(ParameterError):
            run_federated(RunConfig(r_init=2, r_min=4,
                                    **{k: v for k, v in TINY.items()
                                       if k not in ("r_init", "r_min")}))

    def test_wd_cka_fields_populated_after_drop(self):
        cfg = RunConfig(mode="spd-cfl", seed=10, cooldown=1, cl_method="ewc",
                        mu1=0.01, mu2=0.01, **{**TINY, "rounds": 15})
        result = run_federated(cfg)
        dropped_at = [r.round for r in result.records if r.dropped]
        assert dropped_at, "expected at least one drop in this configuration"
        after = result.records[dropped_at[0]]  # first round of the next phase
        assert after.wd_stability is not None
        assert after.cka_stability is not None
        assert all(0.0 <= v <= 1.0 for v in after.cka_stability)
        before = result.records[0]
        assert before.wd_stability is None

    def test_full_rank_lora_never_transmits_base_weights(self):
        cfg = RunConfig(mode="fixed-rank-lora", seed=20, cl_method="none",
                        mu1=0, mu2=0, **{**TINY, "r_init": 8, "r_min": 8})
        result = run_federated(cfg)
        shapes = result.base.layer_shapes()
        adapter_params = sum(min(8, h1, h2) * (h1 + h2) for h1, h2 in shapes)
        base_params = sum(w.size + b.size for w, b in
                          zip(result.base.weights, result.base.biases))
        assert result.ledger.params_per_round[0] == adapter_params
        assert result.ledger.params_per_round[0] != base_params

    def test_csv_backed_run(self, tmp_path):
        rng = Rng(33)
        rows = ["f0,f1,f2,label"]
        for c in range(3):
            center = [2.5 * c, -2.5 * c, c]
            pts = rng.substream("csv", c).normal(30, 3) + center
            rows.extend(f"{p[0]:.5f},{p[1]:.5f},{p[2]:.5f},class{c}" for p in pts)
        path = tmp_path / "data.csv"
        path.write_text("\n".join(rows) + "\n")
        cfg = RunConfig(mode="fixed-rank-lora", seed=1, rounds=2, num_clients=2,
                        scheme="iid", r_init=2, r_min=2, eta=0.05,
                        pretrain_epochs=2, cl_method="none", mu1=0, mu2=0,
                        csv_path=str(path))
        result = run_federated(cfg)
        assert result.dataset.dim == 3
        assert result.dataset.num_classes == 3
        assert result.records[-1].val_metric is not None

    def test_multilabel_run(self):
        for mode in ("fixed-rank-lora", "fedavg-full"):
            cfg = RunConfig(mode=mode, seed=11, task="multilabel",
                            num_labels=4, n_samples=240, dim=8, rounds=3,
                            num_clients=2, r_init=3, r_min=2, subtractor=1,
                            eta=0.05, pretrain_epochs=3, cl_method="none",
                            mu1=0, mu2=0)
            result = run_federated(cfg)
            assert result.records[-1].val_metric is not None
            assert 0.0 <= result.records[-1].val_metric <= 1.0
            ds = result.dataset
            final = evaluate(result.base, result.final_adapters,
                             prepare_splits({"test": ds.split("test")}, "multilabel"))["test"]
            assert len(final["auc_per_label"]) == 4
            assert final["undefined_labels"] == []
            assert final["auc_mean"] == result.records[-1].test_metric


class TestEvaluate:
    def test_matches_last_record(self):
        # result.base and result.final_adapters are the model the last record
        # scored in every mode: fedavg-full's is its averaged weights
        for mode in ("fixed-rank-lora", "spd-cfl", "fedavg-full"):
            cfg = RunConfig(mode=mode, seed=12, cl_method="ewc", **TINY)
            result = run_federated(cfg)
            ds = result.dataset
            splits = {"val": ds.split("val"), "test": ds.split("test")}
            metrics = evaluate(result.base, result.final_adapters,
                               prepare_splits(splits, "multiclass"))
            last = result.records[-1]
            assert metrics["val"]["accuracy"] == last.val_metric, mode
            assert metrics["test"]["accuracy"] == last.test_metric, mode

    def test_random_model_multilabel_auc_chance_band(self):
        aucs = []
        for seed in range(5):
            root = Rng(seed)
            ds = generate_multilabel(600, 8, 3, root.substream("data"))
            base = pretrain_base(ds, 0, root.substream("base"))
            adapters = init_adapter_set(base.layer_shapes(), 2, 0.02,
                                        root.substream("a"))
            splits = prepare_splits({"test": (ds.test_x, ds.test_y)}, "multilabel")
            metrics = evaluate(base, adapters, splits)["test"]
            aucs.extend(v for v in metrics["auc_per_label"] if v is not None)
        assert 0.4 <= float(np.mean(aucs)) <= 0.6

    def test_trained_run_reaches_high_accuracy(self):
        cfg = RunConfig(mode="fixed-rank-lora", seed=13, rounds=40, classes=4,
                        dim=16, n_per_class=120, separation=8.0, num_clients=2,
                        scheme="iid", r_init=8, eta=0.1, pretrain_epochs=40,
                        cl_method="none", mu1=0, mu2=0)
        result = run_federated(cfg)
        assert result.records[-1].test_metric > 0.95

    @pytest.mark.parametrize("task", ["multiclass", "multilabel"])
    def test_non_finite_logits_rejected_naming_the_split(self, task):
        root = Rng(3)
        if task == "multiclass":
            ds = generate_synthetic(3, 8, 20, 2.0, root.substream("data"))
        else:
            ds = generate_multilabel(200, 8, 3, root.substream("data"))
        base = pretrain_base(ds, 0, root.substream("base"))
        x = ds.test_x.copy()
        x[0, 0] = np.nan
        with pytest.raises(NumericError, match="test split"):
            evaluate(base, None, prepare_splits({"test": (x, ds.test_y)}, task))

    def test_single_class_label_surfaced_per_label(self):
        root = Rng(3)
        ds = generate_multilabel(200, 8, 3, root.substream("data"))
        base = pretrain_base(ds, 0, root.substream("base"))
        y = ds.test_y.copy()
        y[:, 1] = 1  # degenerate label: positives only
        splits = prepare_splits({"test": (ds.test_x, y)}, "multilabel")
        metrics = evaluate(base, None, splits)["test"]
        assert metrics["auc_per_label"][1] is None
        assert metrics["undefined_labels"] == [1]
        assert metrics["auc_mean"] is not None


def _scored_alone(base, adapters, split, task):
    """One split's metrics through a plain 2-D forward pass and its own
    ``column_aucs`` call: the evaluator as it was before splits grouped."""
    x, y = split
    logits, _ = forward(base, adapters, x)
    if task == "multiclass":
        return {"accuracy": accuracy_score(np.argmax(logits, axis=1), y)}
    per_label = column_aucs(logits, prepare_labels(y))
    defined = [v for v in per_label if v is not None]
    return {"auc_per_label": per_label,
            "auc_mean": float(np.mean(defined)) if defined else None,
            "undefined_labels": [l for l, v in enumerate(per_label) if v is None]}


@st.composite
def _evaluation_cases(draw):
    """A small model and up to four named splits. Row counts come from a
    short list, so equal counts (one group) and unequal ones both occur;
    multilabel splits may hold a single-class label column."""
    task = draw(st.sampled_from(["multiclass", "multilabel"]))
    seed = draw(st.integers(0, 2**16))
    out_dim = draw(st.integers(2, 4))
    rows = draw(st.lists(st.sampled_from([2, 3, 9]), min_size=1, max_size=4))
    root = Rng(seed)
    base = random_base([5, 6, out_dim], root.substream("base"))
    adapters = (init_adapter_set(base.layer_shapes(), 2, 0.3, root.substream("a"))
                if draw(st.booleans()) else None)
    splits = {}
    for i, n in enumerate(rows):
        s = root.substream("split", i)
        x = s.substream("x").normal(n, 5)
        if task == "multiclass":
            y = np.asarray(s.substream("y").integers(0, out_dim, n))
        else:
            y = np.asarray(s.substream("y").integers(0, 2, (n, out_dim)))
            if draw(st.booleans()):
                y[:, draw(st.integers(0, out_dim - 1))] = draw(st.integers(0, 1))
        splits[f"split{i}"] = (x, y)
    return base, adapters, splits, task


class TestEvaluateMapping:
    @settings(max_examples=60, deadline=None)
    @given(_evaluation_cases())
    def test_equals_each_split_scored_alone(self, case):
        base, adapters, splits, task = case
        scores = evaluate(base, adapters, prepare_splits(splits, task))
        assert list(scores) == list(splits)
        for name, split in splits.items():
            alone = evaluate(base, adapters, prepare_splits({name: split}, task))[name]
            assert scores[name] == alone == _scored_alone(base, adapters, split, task)

    @settings(max_examples=30, deadline=None)
    @given(_evaluation_cases(), st.data())
    def test_first_non_finite_split_in_mapping_order_is_named(self, case, data):
        base, adapters, splits, task = case
        names = list(splits)
        poisoned = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        for name in poisoned:
            splits[name][0][0, 0] = np.nan
        first = next(name for name in names if name in poisoned)
        with pytest.raises(NumericError, match=f"the {first} split"):
            evaluate(base, adapters, prepare_splits(splits, task))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**16), st.integers(2, 5), st.data())
    def test_multilabel_scores_equal_column_aucs_and_np_mean(self, seed, width, data):
        """Two groups of splits (9, 9 and 5 rows) on a network with a
        constant output column (all its scores tie), repeated feature rows
        (ties inside every column) and a single-class label column: each
        split's metrics are ``column_aucs`` and ``np.mean`` of its raw logits."""
        root = Rng(seed)
        weights = [root.substream("w", l).normal(h1, h2) for l, (h1, h2)
                   in enumerate([(6, 5), (width, 6)])]
        weights[1][data.draw(st.integers(0, width - 1))] = 0.0
        base = FrozenBase(weights, [np.zeros(6), root.substream("b").normal(1, width)[0]])
        splits = {}
        for name, n in (("val", 9), ("extra", 5), ("test", 9)):
            s = root.substream("split", name)
            x = s.substream("x").normal(n, 5)
            x[-2:] = x[:2]
            y = np.asarray(s.substream("y").integers(0, 2, (n, width)))
            y[:, data.draw(st.integers(0, width - 1))] = data.draw(st.integers(0, 1))
            splits[name] = (x, y)
        prepared = prepare_splits(splits, "multilabel")
        assert [g.names for g in prepared.groups] == [("val", "test"), ("extra",)]
        scores = evaluate(base, None, prepared)
        for name, split in splits.items():
            alone = _scored_alone(base, None, split, "multilabel")
            assert None in alone["auc_per_label"]
            event(f"auc_mean defined: {alone['auc_mean'] is not None}")
            assert scores[name] == alone

    def test_mapping_order_not_group_order_names_the_split(self):
        """``a`` and ``c`` form one group ahead of ``b``; with ``b`` and ``c``
        poisoned, ``b`` comes first in the mapping and is the one named."""
        base = random_base([3, 2], Rng(0))
        rows = {"a": 2, "b": 3, "c": 2}
        splits = {name: (Rng(n).normal(n, 3), np.zeros(n, int)) for name, n in rows.items()}
        for name in ("b", "c"):
            splits[name][0][0, 0] = np.inf
        with pytest.raises(NumericError, match="the b split"):
            evaluate(base, None, prepare_splits(splits, "multiclass"))

    def test_round_loop_scores_val_and_test_in_one_call(self, monkeypatch):
        calls = []
        original = harness.evaluate

        def recorded(base, adapters, splits):
            calls.append(list(splits.names))
            return original(base, adapters, splits)

        monkeypatch.setattr(harness, "evaluate", recorded)
        run_federated(RunConfig(mode="fedavg-full", seed=1, **TINY))
        assert calls == [["val", "test"]] * TINY["rounds"]

    def test_round_loop_prepares_the_splits_once(self, monkeypatch):
        calls = []
        original = harness.prepare_splits

        def recorded(splits, task):
            calls.append((list(splits), task))
            return original(splits, task)

        monkeypatch.setattr(harness, "prepare_splits", recorded)
        run_federated(RunConfig(mode="fedavg-full", task="multilabel", n_samples=120,
                                **dict(TINY, rounds=3)))
        assert calls == [(["val", "test"], "multilabel")]

    def test_raw_splits_rejected_naming_prepare_splits(self):
        base = random_base([3, 2], Rng(0))
        with pytest.raises(ParameterError, match="prepare_splits"):
            evaluate(base, None, {"val": (Rng(1).normal(4, 3), np.zeros(4, int))})

    def test_empty_split_rejected_by_name(self):
        with pytest.raises(InputError, match="the val split is empty"):
            prepare_splits({"val": (np.zeros((0, 3)), np.zeros(0, int))}, "multiclass")


class TestCloseRound:
    def test_undefined_cka_is_recorded_as_null(self):
        """Saturated two-row probes leave every participant's representation
        constant; CKA is undefined for the pair, and the run records None
        instead of ending."""
        cfg = RunConfig(classes=5, n_per_class=20, separation=1e6, probe_samples=2,
                        rounds=3)
        records = run_federated(cfg).records
        assert [r.cka_plasticity for r in records] == [[None] * 5] * 3
        assert all(r.val_metric is not None for r in records)

    def test_dense_products_formed_only_for_the_stability_distance(self, monkeypatch):
        """The plasticity distance comes from ``server_round``'s displacement
        norms; ``close_round`` itself forms a participant's dense product
        only when a stability anchor exists (after the first drop)."""
        calls = []
        dense = AdapterSet.dense

        def counted(self):
            calls.append(self)
            return dense(self)

        server_round, close_round = harness.server_round, harness._AdapterRounds.close_round
        in_server, per_round = [], []

        def counted_server_round(*args):
            before = len(calls)
            out = server_round(*args)
            in_server.append(len(calls) - before)
            return out

        def counted_close_round(self, results, weights):
            anchored = self.server.accumulated is not None
            before = len(calls)
            out = close_round(self, results, weights)
            per_round.append((anchored, len(results),
                              len(calls) - before - in_server[-1]))
            return out

        monkeypatch.setattr(AdapterSet, "dense", counted)
        monkeypatch.setattr(harness, "server_round", counted_server_round)
        monkeypatch.setattr(harness._AdapterRounds, "close_round", counted_close_round)
        cfg = RunConfig(mode="spd-cfl", seed=2, cl_method="none", mu1=0, mu2=0,
                        **dict(TINY, rounds=5, cooldown=1, num_clients=3))
        run_federated(cfg)
        assert [anchored for anchored, _, _ in per_round] == [False, False, True, True, True]
        for anchored, participants, own in per_round:
            assert own == (participants if anchored else 0)


    @pytest.mark.parametrize("r_init, drops", [(4, 1), (6, 2)])
    def test_probe_work_once_per_run_and_stability_work_once_per_phase(
            self, monkeypatch, r_init, drops):
        """The probe's layer-0 base product is formed once per run; the
        stability anchor's probe forward and representations once per phase
        that has an anchor, afresh after each drop; the incoming and each
        participant's representations once per round."""
        rows, products, prepared, stability = [], [], [], []
        init, mm = harness._AdapterRounds.__init__, model._mm
        forward, prepare = harness.forward, harness.prepare_representations

        def recorded_init(self, setup):
            init(self, setup)
            rows.append((self.probe_x, setup.base.weights[0]))

        def recorded_mm(a, b, counter=None, out=None):
            if a.ndim == 2 and a.shape[0] == 7:  # candidate probe products
                products.append((a.copy(), b))
            return mm(a, b, counter, out)

        def recorded_forward(base, adapters, x, *args):
            if isinstance(adapters, list):  # the accumulated dense anchor
                stability.append(adapters)
            return forward(base, adapters, x, *args)

        def recorded_prepare(reps):
            prepared.append(1)
            return prepare(reps)

        monkeypatch.setattr(harness._AdapterRounds, "__init__", recorded_init)
        monkeypatch.setattr(model, "_mm", recorded_mm)
        monkeypatch.setattr(harness, "forward", recorded_forward)
        monkeypatch.setattr(harness, "prepare_representations", recorded_prepare)
        cfg = RunConfig(mode="spd-cfl", seed=1, cl_method="lwf", mu1=0.01, mu2=0.01,
                        **dict(TINY, rounds=7, cooldown=1, r_init=r_init, probe_samples=7))
        records = run_federated(cfg).records
        assert sum(r.dropped for r in records) == drops and not records[-1].dropped
        anchored = {r.phase for r in records if r.phase > 1}
        assert len(anchored) == drops
        (probe_x, w0), = rows
        # w0 is a view of the base's buffer: compare where the operand starts
        assert sum(np.array_equal(a, probe_x) and w.ctypes.data == w0.ctypes.data
                   for a, w in products) == 1
        assert len(prepared) == sum(1 + len(r.cka_plasticity) for r in records) + drops
        assert len(stability) == drops
        assert all(s is not t for s, t in zip(stability, stability[1:]))


class TestOpCount:
    def test_counts_only_the_supervised_products(self):
        # README: the regularizers run (mu2 > 0) but add no count, so every
        # method counts the supervised forward and backward products alone
        for method in ("none", "lwf", "ewc", "mas"):
            result = run_federated(RunConfig(count_ops=True, rounds=12, cl_method=method))
            assert result.op_count == 32094720, method


class TestDeterminism:
    def test_same_seed_same_records(self):
        cfg = RunConfig(mode="spd-cfl", seed=15, cl_method="lwf",
                        mu1=0.01, mu2=0.01, **TINY)
        assert (records_jsonl(run_federated(cfg).records)
                == records_jsonl(run_federated(cfg).records))

    def test_different_seed_differs(self):
        cfg1 = RunConfig(seed=16, cl_method="none", mu1=0, mu2=0, **TINY)
        cfg2 = RunConfig(seed=17, cl_method="none", mu1=0, mu2=0, **TINY)
        assert (records_jsonl(run_federated(cfg1).records)
                != records_jsonl(run_federated(cfg2).records))

    @pytest.mark.parametrize("overrides", [
        {}, dict(cl_method="lwf"), dict(mode="fedavg-full", task="multilabel"),
        dict(eta_decay=0.9),
    ], ids=["defaults", "lwf", "fedavg-multilabel", "eta-decay"])
    def test_a_shorter_run_is_a_byte_prefix_of_a_longer_one(self, overrides):
        # state kept across rounds (stacks, phase caches, prepared splits)
        # must never make a round depend on the run's length
        short, long = (records_jsonl(run_federated(RunConfig(rounds=rounds, **overrides)
                                                   .validate()).records)
                       for rounds in (12, 20))
        assert short.count("\n") == 12 and long.startswith(short)


def _tiny_configs():
    """Tiny runs of 1-2 rounds over every mode and task, with extreme and
    invalid values for the numeric settings."""
    pick = st.sampled_from
    return st.builds(
        RunConfig,
        mode=pick(["spd-cfl", "fixed-rank-lora", "fedavg-full"]),
        seed=st.integers(0, 1000), rounds=st.integers(1, 2),
        local_epochs=st.integers(0, 2),
        eta=pick([0.0, 1e-3, 0.1, 10.0, 1e3, 1e6]),
        eta_decay=pick([1e-3, 0.5, 1.0]), batch_size=st.integers(1, 40),
        participation=pick([1e-3, 0.3, 1.0]), count_ops=st.booleans(),
        r_init=st.integers(1, 5), r_min=st.integers(1, 3), subtractor=st.integers(1, 3),
        theta=pick([0.0, 0.5, 0.999, 1.0]), lam=pick([0.0, 0.5, 1.0]),
        cooldown=pick([0, 1, math.inf]), reinit=pick(["svd", "gaussian"]),
        aggregation=pick(["factor", "dense"]),
        cl_method=pick(["none", "ewc", "mas", "lwf"]),
        mu1=pick([0.0, 1e-3, 1.0, 1e8]), mu2=pick([0.0, 1e-3, 1.0, 1e8]),
        lwf_temperature=pick([1e-3, 1.0, 1e3]),
        task=pick(["multiclass", "multilabel"]),
        classes=st.integers(2, 6), dim=st.integers(2, 6),
        n_per_class=st.integers(1, 20), separation=pick([0.0, 1.0, 1e3, 1e8]),
        scheme=pick(["iid", "overlap", "disjoint"]),
        classes_per_client=st.integers(1, 4), shared_classes=st.integers(0, 3),
        num_clients=st.integers(1, 6), num_labels=st.integers(1, 4),
        n_samples=st.integers(5, 100), multilabel_skew=pick([0.0, 0.5, 1.0]),
        hidden=st.lists(st.integers(1, 8), min_size=1, max_size=2).map(tuple),
        sigma_init=pick([1e-6, 0.02, 10.0, 1e4]),
        pretrain_epochs=st.integers(0, 2), pretrain_eta=pick([0.0, 0.05, 10.0, 1e4]),
        pretrain_batch=st.integers(1, 32), probe_samples=st.integers(2, 8),
    )


class _Pretrained(Exception):
    """Raised by the pretraining stub: the run got past its up-front checks."""


def _stub_pretraining(*_, **__):
    raise _Pretrained


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(_tiny_configs())
def test_config_search_ends_in_an_accepted_outcome(config):
    """A run completes, or raises ParameterError before pretraining, or
    raises NumericError naming a client or a split. Anything else fails and
    hypothesis prints the config."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "pretrain_base", _stub_pretraining)
        try:
            run_federated(config)
        except ParameterError:
            event("ParameterError before pretraining")
            return
        except _Pretrained:
            pass
    try:
        run_federated(config)
        event("completed")
    except NumericError as exc:
        assert re.search(r"\bclients? \d+|\bthe \w+ split\b", str(exc)), str(exc)
        event("NumericError")
