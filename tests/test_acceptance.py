"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Trend criteria (9-11) execute real federated runs at fixed seeds and
compare means, so they are deterministic in this environment.
"""

import copy
import functools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from conftest import fd_factor_grads, lwf_penalty_and_grads, max_rel_err, one_hot

import rankfed
from rankfed.config import RunConfig
from rankfed.data import generate_synthetic, partition
from rankfed.harness import run_federated
from rankfed.lora import AdapterSet, LoRAAdapter, reinit_at_rank
from rankfed.metrics import auc, layer_averaged_cka, prepare_representations
from rankfed.model import (CLConfig, ImportanceEstimate, forward, lwf_penalty,
                           quadratic_penalty, random_base,
                           supervised_loss_and_grads, total_local_loss)
from rankfed.numerics import Rng, svd_truncate
from rankfed.server import (ClientUpdate, aggregate, gradient_consistency,
                            pool_gradients)


def report(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d} FAIL  {description}")
                raise
            print(f"criterion {number:02d} PASS  {description}")
        return inner
    return wrap


def warm_adapters(rng, shapes, rank, scale=0.2):
    out = []
    for lid, (h1, h2) in enumerate(shapes):
        r = min(rank, h1, h2)
        out.append(LoRAAdapter(rng.substream("b", lid).normal(h1, r, scale),
                               rng.substream("a", lid).normal(r, h2, scale)))
    return AdapterSet(tuple(out), rank)


TREND = dict(classes=6, dim=16, n_per_class=150, num_clients=3,
             scheme="disjoint", eta=0.1, pretrain_epochs=40,
             r_min=2, subtractor=2, cooldown=5)


# Criterion 10's spd-cfl EWC runs are the first five runs of criterion 11;
# a run is a pure function of its config, so each is made once.
@functools.lru_cache(maxsize=None)
def final_test_metric(mode, seed, rank, rounds, **kw):
    cfg = RunConfig(mode=mode, seed=seed, rounds=rounds,
                    **{**TREND, "r_init": rank, **kw})
    return run_federated(cfg)


@report(1, "analytic gradients match finite differences (rel err < 1e-5)")
def test_criterion_01_gradient_correctness():
    start = time.monotonic()
    root = Rng(1001)
    for i in range(20):
        s = root.substream("model", i)
        d = 4 + int(s.substream("d").integers(0, 3))
        h = 6 + int(s.substream("h").integers(0, 4))
        c = 3 + int(s.substream("c").integers(0, 3))
        rank = 2 + int(s.substream("r").integers(0, 2))
        base = random_base([d, h, c], s.substream("base"))
        adapters = warm_adapters(s.substream("warm"), base.layer_shapes(), rank)
        n_params = sum(a.B.size + a.A.size for a in adapters)
        assert n_params <= 500
        x = s.substream("x").normal(5, d)
        y = one_hot(s.substream("y").integers(0, c, 5), c)
        dense = adapters.dense()
        sta = [m + s.substream("sta", j).normal(*m.shape, 0.1)
               for j, m in enumerate(dense)]
        pla = [m + s.substream("pla", j).normal(*m.shape, 0.1)
               for j, m in enumerate(dense)]
        imp = ImportanceEstimate(tuple(
            np.abs(s.substream("imp", j).normal(*m.shape)) for j, m in enumerate(dense)))
        t_logits = forward(base, sta, x)[0]

        checks = [
            (lambda a: supervised_loss_and_grads(base, a, x, y),
             lambda a: supervised_loss_and_grads(base, a, x, y)[0]),
            (lambda a: quadratic_penalty(a, [(sta, 0.4)], imp)[0],
             lambda a: quadratic_penalty(a, [(sta, 0.4)], imp)[0][0]),
            (lambda a: quadratic_penalty(a, [(pla, 0.3)], imp)[0],
             lambda a: quadratic_penalty(a, [(pla, 0.3)], imp)[0][0]),
            (lambda a: lwf_penalty_and_grads(base, a, sta, x, 0.5),
             lambda a: lwf_penalty(t_logits, forward(base, a, x)[0], 0.5)[0]),
            (lambda a: total_local_loss(base, a, x, y, sta, pla, imp,
                                        CLConfig("ewc", 0.2, 0.1)),
             lambda a: total_local_loss(base, a, x, y, sta, pla, imp,
                                        CLConfig("ewc", 0.2, 0.1))[0]),
        ]
        for grad_fn, loss_fn in checks:
            _, grads = grad_fn(adapters)
            fd = fd_factor_grads(loss_fn, adapters)
            assert max_rel_err(grads, fd) < 1e-5
    assert time.monotonic() - start < 30.0


@report(2, "consistency score: range, one-sided, cancellation, hand value")
def test_criterion_02_consistency_suite():
    root = Rng(1002)
    for i in range(1000):
        s = root.substream("state", i)
        grads = [[s.substream("g", c).normal(4, 5)] for c in range(3)]
        raw = np.abs(np.asarray(s.substream("alpha").normal(3, 1))).ravel()
        alpha = raw / raw.sum()
        pos, neg = pool_gradients(grads, alpha)
        m = gradient_consistency(pos, neg)
        assert 0.0 <= m <= 1.0
    one_sided = [np.abs(root.substream("os").normal(3, 3))]
    assert gradient_consistency(one_sided, [np.zeros((3, 3))]) == 1.0
    g = root.substream("cancel").normal(4, 4)
    pos, neg = pool_gradients([[g], [-g]], [0.5, 0.5])
    assert gradient_consistency(pos, neg) == 0.0
    m = gradient_consistency([np.array([[1.0, 0.0]])], [np.array([[0.0, -1.0]])])
    assert abs(m - 0.70711) <= 1e-5 and abs(m - np.sqrt(2) / 2) <= 1e-9


@report(3, "rank re-initialization is the best Frobenius approximation")
def test_criterion_03_eckart_young_reinit():
    root = Rng(1003)
    for i in range(50):
        s = root.substream("acc", i)
        h1 = 5 + int(s.substream("h1").integers(0, 4))
        h2 = 4 + int(s.substream("h2").integers(0, 4))
        r = 1 + int(s.substream("r").integers(0, min(h1, h2) - 1))
        acc = [s.substream("m").normal(h1, h2)]
        reinit = reinit_at_rank(acc, r)
        err = np.linalg.norm(reinit.dense()[0] - acc[0])
        u, sv, v = svd_truncate(acc[0], r)
        assert np.linalg.norm(reinit.dense()[0] - u @ np.diag(sv) @ v.T) < 1e-10
        cand = s.substream("cand")
        for _ in range(1000):
            b = cand.normal(h1, r)
            a = cand.normal(r, h2)
            assert err <= np.linalg.norm(b @ a - acc[0]) + 1e-12


@report(4, "aggregation fixed point, weight normalization, permutation invariance")
def test_criterion_04_aggregation():
    root = Rng(1004)
    shapes = [(6, 4), (3, 6)]
    x = warm_adapters(root.substream("x"), shapes, 2)
    updates = [ClientUpdate(i, copy.deepcopy(x), 7) for i in range(4)]
    agg = aggregate(updates)
    for a, b in zip(agg, x):
        assert np.max(np.abs(a.B - b.B)) <= 1e-15
        assert np.max(np.abs(a.A - b.A)) <= 1e-15
    sizes = np.array([3.0, 11.0, 29.0, 57.0])
    assert abs((sizes / sizes.sum()).sum() - 1.0) <= 1e-15
    mixed = [ClientUpdate(i, warm_adapters(root.substream("u", i), shapes, 2), 5 + i)
             for i in range(4)]
    agg1 = aggregate(mixed)
    agg2 = aggregate(mixed[::-1])
    for a, b in zip(agg1, agg2):
        assert np.array_equal(a.B, b.B) and np.array_equal(a.A, b.A)


@report(5, "trapezoid AUC equals the pairwise oracle on 200 tied instances")
def test_criterion_05_auc_oracle():
    root = Rng(1005)
    checked = 0
    i = 0
    while checked < 200:
        s = root.substream("case", i)
        i += 1
        n = 10 + int(s.substream("n").integers(0, 50))
        levels = 2 + int(s.substream("lv").integers(0, 8))
        scores = np.asarray(s.substream("s").integers(0, levels, n),
                            dtype=np.float64) / levels
        labels = np.asarray(s.substream("y").integers(0, 2, n))
        if labels.min() == labels.max():
            continue
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = sum(1 for p in pos for q in neg if p > q)
        ties = sum(1 for p in pos for q in neg if p == q)
        oracle = (wins + 0.5 * ties) / (len(pos) * len(neg))
        assert abs(auc(scores, labels) - oracle) < 1e-9
        checked += 1


@report(6, "CKA self-similarity, invariances, and range on 100 pairs")
def test_criterion_06_cka_properties():
    def cka(a, b):  # one layer: the mean of one CKA is that CKA
        return layer_averaged_cka(prepare_representations([a]), prepare_representations([b]))

    root = Rng(1006)
    for i in range(100):
        s = root.substream("pair", i)
        n = 12 + int(s.substream("n").integers(0, 20))
        d1 = 3 + int(s.substream("d1").integers(0, 5))
        d2 = 3 + int(s.substream("d2").integers(0, 5))
        z1 = s.substream("z1").normal(n, d1)
        z2 = s.substream("z2").normal(n, d2)
        assert cka(z1, z1) == 1.0
        v = cka(z1, z2)
        assert 0.0 <= v <= 1.0
        q, _ = np.linalg.qr(s.substream("q").normal(d1, d1))
        assert abs(cka(z1, z1 @ q) - 1.0) <= 1e-9
        scale = float(np.exp(s.substream("sc").normal(1, 1)[0, 0]))
        assert abs(cka(z1, scale * z1) - 1.0) <= 1e-9


@report(7, "communication ledger equals the post-hoc recomputation exactly")
def test_criterion_07_communication_ledger():
    root = Rng(1007)
    for i in range(10):
        s = root.substream("cfg", i)
        cfg = RunConfig(
            mode="spd-cfl", seed=int(s.substream("seed").integers(0, 10000)),
            rounds=6 + int(s.substream("t").integers(0, 6)),
            classes=3 + int(s.substream("c").integers(0, 3)),
            dim=6 + int(s.substream("d").integers(0, 6)),
            n_per_class=25, num_clients=2 + int(s.substream("s").integers(0, 2)),
            scheme="disjoint",
            r_init=3 + int(s.substream("r").integers(0, 3)), r_min=1,
            subtractor=1, cooldown=int(s.substream("cd").integers(0, 3)),
            eta=0.1, pretrain_epochs=2, cl_method="none", mu1=0, mu2=0,
            hidden=(12,),
        )
        result = run_federated(cfg)
        shapes = result.base.layer_shapes()
        s_count = result.ledger.num_clients
        cum = 0
        for rec in result.records:
            cum += 2 * s_count * sum(min(rec.rank, h1, h2) * (h1 + h2)
                                     for h1, h2 in shapes)
            assert rec.cumulative_params == cum
    # uncapped drop of delta reduces the per-round count by delta * sum(h1+h2)
    shapes = [(32, 16), (24, 20)]
    delta = 2
    for r in (8, 6, 4):
        hi = sum(r * (h1 + h2) for h1, h2 in shapes)
        lo = sum((r - delta) * (h1 + h2) for h1, h2 in shapes)
        assert hi - lo == delta * sum(h1 + h2 for h1, h2 in shapes)


@report(8, "spd-cfl with cooldown=inf and mu=0 reduces bitwise to fixed-rank")
def test_criterion_08_protocol_reduction(tmp_path):
    shared = dict(seed=42, rounds=10, classes=6, dim=16, n_per_class=60,
                  num_clients=3, scheme="disjoint", r_init=8, r_min=2,
                  subtractor=2, eta=0.1, pretrain_epochs=10)
    spd = RunConfig(mode="spd-cfl", cooldown=math.inf, cl_method="ewc",
                    mu1=0.0, mu2=0.0, **shared)
    fixed = RunConfig(mode="fixed-rank-lora", cl_method="none",
                      mu1=0.0, mu2=0.0, **shared)
    from rankfed.harness import records_jsonl
    r1, r2 = run_federated(spd), run_federated(fixed)
    assert records_jsonl(r1.records) == records_jsonl(r2.records)
    for a, b in zip(r1.final_adapters, r2.final_adapters):
        assert a.B.tobytes() == b.B.tobytes()
        assert a.A.tobytes() == b.A.tobytes()


@report(9, "final accuracy is non-decreasing in rank with >= 2-point spread")
def test_criterion_09_rank_trend():
    start = time.monotonic()
    means = []
    for rank in (2, 4, 8):
        accs = [final_test_metric("fixed-rank-lora", seed, rank, rounds=40,
                                  cl_method="none", mu1=0, mu2=0
                                  ).records[-1].test_metric
                for seed in range(5)]
        means.append(float(np.mean(accs)))
    assert means[0] <= means[1] <= means[2], means
    assert means[2] - means[0] >= 0.02, means
    assert time.monotonic() - start < 300.0


@report(10, "stepwise dropout: <= 80% of the r1 budget at >= r_K accuracy")
def test_criterion_10_tradeoff():
    start = time.monotonic()
    spd_accs, spd_params, fr8_params, fr2_accs = [], [], [], []
    for seed in range(5):
        spd = final_test_metric("spd-cfl", seed, 8, rounds=80,
                                cl_method="ewc", mu1=0.1, mu2=0.1)
        fr8 = final_test_metric("fixed-rank-lora", seed, 8, rounds=80,
                                cl_method="none", mu1=0, mu2=0)
        fr2 = final_test_metric("fixed-rank-lora", seed, 2, rounds=80,
                                cl_method="none", mu1=0, mu2=0)
        spd_accs.append(spd.records[-1].test_metric)
        spd_params.append(spd.records[-1].cumulative_params)
        fr8_params.append(fr8.records[-1].cumulative_params)
        fr2_accs.append(fr2.records[-1].test_metric)
    ratio = float(np.mean(spd_params)) / float(np.mean(fr8_params))
    assert ratio <= 0.80, f"transmitted-parameter ratio {ratio:.3f}"
    assert float(np.mean(spd_accs)) >= float(np.mean(fr2_accs)), \
        (np.mean(spd_accs), np.mean(fr2_accs))
    assert time.monotonic() - start < 600.0


@report(11, "continual-learning regularization does not hurt (EWC >= no-CL)")
def test_criterion_11_ablation_direction():
    ewc_accs, none_accs = [], []
    for seed in range(10):
        ewc = final_test_metric("spd-cfl", seed, 8, rounds=80,
                                cl_method="ewc", mu1=0.1, mu2=0.1)
        none = final_test_metric("spd-cfl", seed, 8, rounds=80,
                                 cl_method="none", mu1=0, mu2=0)
        ewc_accs.append(ewc.records[-1].test_metric)
        none_accs.append(none.records[-1].test_metric)
    gap = float(np.mean(ewc_accs)) - float(np.mean(none_accs))
    print(f"  ablation gap (EWC minus no-CL, 10 seeds): {gap:+.4f}")
    assert gap >= 0.0, gap


@report(12, "label-skew partitioning hits the KS regimes")
def test_criterion_12_ks_partitioning():
    ds = generate_synthetic(10, 6, 50, 1.5, Rng(2024).substream("data"))
    disjoint = partition(ds, 5, "disjoint", Rng(0))
    assert disjoint.mean_pairwise_ks == 1.0
    iid = partition(ds, 5, "iid", Rng(0))
    assert iid.mean_pairwise_ks <= 0.02
    overlap = partition(ds, 5, "overlap", Rng(0),
                        classes_per_client=4, shared_classes=2)
    assert 0.0 < overlap.mean_pairwise_ks < 1.0


@report(13, "byte-identical outputs from two processes with different hash seeds")
def test_criterion_13_determinism(tmp_path):
    cfg_text = (
        "[run]\nmode = spd-cfl\nseed = 6\nrounds = 6\neta = 0.1\n\n"
        "[dropout]\nr_init = 4\nr_min = 2\ncooldown = 2\n\n"
        "[regularization]\ncl_method = ewc\nmu1 = 0.01\nmu2 = 0.01\n\n"
        "[data]\nclasses = 4\ndim = 8\nn_per_class = 30\nnum_clients = 2\n"
        "scheme = disjoint\n\n"
        "[model]\npretrain_epochs = 3\n"
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text)
    src = str(Path(rankfed.__file__).resolve().parent.parent)
    outputs = []
    for hash_seed, name in (("1", "a"), ("2", "b")):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "rankfed.cli", "run", str(cfg_path),
                        "--out", str(tmp_path / name)],
                       env=env, check=True, capture_output=True, timeout=120)
        outputs.append({f: (tmp_path / name / f).read_bytes()
                        for f in ("records.jsonl", "summary.csv",
                                  "partition.manifest", "adapters_final.ckpt")})
    assert outputs[0] == outputs[1]
