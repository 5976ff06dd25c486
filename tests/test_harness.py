import math

import numpy as np
import pytest

from conftest import linear_probe_accuracy

from rankfed.config import RunConfig
from rankfed.data import generate_multilabel, generate_synthetic
from rankfed.errors import ParameterError
from rankfed.harness import (build_dataset, build_pretrain_dataset, evaluate,
                             op_count_budget, pretrain_base, records_jsonl,
                             run_federated)
from rankfed.lora import init_adapter_set
from rankfed.model import forward
from rankfed.numerics import Rng

TINY = dict(rounds=4, classes=4, dim=8, n_per_class=30, num_clients=2,
            scheme="disjoint", r_init=4, r_min=2, subtractor=2, eta=0.1,
            pretrain_epochs=5)


class TestPretrainBase:
    def test_zero_epochs_gives_random_base(self):
        ds = generate_synthetic(4, 8, 30, 2.0, Rng(0).substream("d"))
        base = pretrain_base(ds, 0, Rng(0).substream("p"))
        assert base.layer_shapes()[-1][0] == 4
        assert base.input_dim == 8

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
            final = result.final_metrics
            assert len(final["auc_per_label"]) == 4
            assert final["undefined_labels"] == []
            assert final["auc_mean"] == result.records[-1].test_metric


class TestEvaluate:
    def test_matches_last_record(self):
        cfg = RunConfig(mode="fixed-rank-lora", seed=12, cl_method="none",
                        mu1=0, mu2=0, **TINY)
        result = run_federated(cfg)
        ds = result.dataset
        metrics = evaluate(result.base, result.final_adapters,
                           (ds.val_x, ds.val_y), "multiclass")
        assert metrics["accuracy"] == result.records[-1].val_metric

    def test_random_model_multilabel_auc_chance_band(self):
        aucs = []
        for seed in range(5):
            root = Rng(seed)
            ds = generate_multilabel(600, 8, 3, root.substream("data"))
            base = pretrain_base(ds, 0, root.substream("base"))
            adapters = init_adapter_set(base.layer_shapes(), 2, 0.02,
                                        root.substream("a"))
            metrics = evaluate(base, adapters, (ds.test_x, ds.test_y),
                               "multilabel")
            aucs.extend(v for v in metrics["auc_per_label"] if v is not None)
        assert 0.4 <= float(np.mean(aucs)) <= 0.6

    def test_trained_run_reaches_high_accuracy(self):
        cfg = RunConfig(mode="fixed-rank-lora", seed=13, rounds=40, classes=4,
                        dim=16, n_per_class=120, separation=8.0, num_clients=2,
                        scheme="iid", r_init=8, eta=0.1, pretrain_epochs=40,
                        cl_method="none", mu1=0, mu2=0)
        result = run_federated(cfg)
        assert result.records[-1].test_metric > 0.95

    def test_single_class_label_surfaced_per_label(self):
        root = Rng(3)
        ds = generate_multilabel(200, 8, 3, root.substream("data"))
        base = pretrain_base(ds, 0, root.substream("base"))
        y = ds.test_y.copy()
        y[:, 1] = 1  # degenerate label: positives only
        metrics = evaluate(base, None, (ds.test_x, y), "multilabel")
        assert metrics["auc_per_label"][1] is None
        assert metrics["undefined_labels"] == [1]
        assert metrics["auc_mean"] is not None


class TestOpCountBudget:
    def test_doubling_epochs_doubles_estimate(self):
        cfg = RunConfig(**TINY)
        double = RunConfig(**{**TINY, "local_epochs": 2})
        assert op_count_budget(double) == 2 * op_count_budget(cfg)

    def test_rank_halving_halves_adapter_term(self):
        # r_min and subtractor leave spd-cfl a drop from rank 2; the
        # estimate depends on r_init alone
        lo = RunConfig(**{**TINY, "r_init": 2, "r_min": 1, "subtractor": 1})
        hi = RunConfig(**{**TINY, "r_init": 4})
        base_term = RunConfig(mode="fedavg-full", **TINY)
        # adapter term = total - frozen-base term; compare the rank-dependent parts
        dims = [8, 32, 4]
        frozen = sum(2 * dims[l + 1] * dims[l] for l in range(2))
        per_round = TINY["rounds"] * TINY["num_clients"] * 16  # E * batch folded below
        est_lo = op_count_budget(lo)
        est_hi = op_count_budget(hi)
        adapter_lo = est_lo - per_round * frozen
        adapter_hi = est_hi - per_round * frozen
        assert adapter_hi == 2 * adapter_lo

    def test_instrumented_counter_within_factor_four(self):
        # shards sized near one batch: 4 classes x 30 x 0.7 / 2 clients = 42
        cfg = RunConfig(count_ops=True, batch_size=42, cl_method="none",
                        mu1=0, mu2=0, mode="fixed-rank-lora", seed=1, **TINY)
        result = run_federated(cfg)
        estimate = op_count_budget(cfg)
        assert result.op_count > 0
        ratio = result.op_count / estimate
        assert 0.25 <= ratio <= 4.0, f"ratio {ratio}"


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
