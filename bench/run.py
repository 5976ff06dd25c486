"""rankfed benchmark: run one workload through ``rankfed.run_federated``.

    python3 bench/run.py --workload paper-ewc --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: one warm-up
run, then timed repeats until ``--seconds`` are used, reporting medians. Its
times are wall seconds scaled to the reference box's speed by a reference
kernel timed before each repeat (see ``measure_end_to_end``).
``--trace 1`` alternates untraced and traced repeats for ``--seconds`` and
reports the per-layer split, the exact counts and the tracing overhead; the
spans of the last traced repeat go to ``bench/out/``.

Every run is checked: each repeat must produce byte-identical
``records_jsonl`` output (traced or not, with or without the operation
counter), and the records must pass the invariants in ``check_result``. A
mismatch, a failed invariant or a raised ``RankfedError`` counts as a failed
operation. The last line of standard output is the result as JSON; the lines
before it are a readable report and the environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer, layer_table, relabel, write_spans
from workloads import (END_TO_END, LAYER_TARGETS, LAYERS, RELABEL, ROOT_SPAN,
                       SETUP_TARGETS, WORKLOADS, make_config, per_layer_units)

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_REPEATS = 3
MIN_PAIRS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "RANKFED_WORKERS")


def use_repo_sources() -> None:
    """Import rankfed from this checkout's ``src``, never from elsewhere."""
    if not (SRC_DIR / "rankfed" / "__init__.py").is_file():
        raise SystemExit(f"bench: no rankfed sources under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = " ".join(str(blas.get(k, "")).strip()
                        for k in ("name", "version", "openblas configuration"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def check_result(config, result, full_length: bool = True) -> list:
    """Invariants every run's output must satisfy; returns the violations.

    The base is pretrained on shifted labels, so a run shortened for a smoke
    test may still sit below chance; ``full_length=False`` skips that check.
    """
    recs = result.records
    problems = []
    if [r.round for r in recs] != list(range(1, config.rounds + 1)):
        problems.append("round numbers are not 1..rounds")
    cum = result.ledger.cumulative_transmitted()
    if [r.cumulative_params for r in recs] != cum:
        problems.append("records disagree with the communication ledger")
    if any(b <= a for a, b in zip([0, *cum], cum)):
        problems.append("transmitted parameters do not grow every round")
    metrics = [r.test_metric for r in recs]
    if any(m is None or not 0.0 <= m <= 1.0 for m in metrics):
        problems.append("test metric missing or outside [0, 1]")
    elif full_length and not metrics[-1] > (
            1.0 / config.classes if config.task == "multiclass" else 0.5):
        problems.append("final test metric is not above chance")
    if config.mode != "fedavg-full":
        ranks = [r.rank for r in recs]
        if any(b > a for a, b in zip(ranks, ranks[1:])) or min(ranks) < config.r_min:
            problems.append("rank sequence rises or goes below r_min")
    count, mb = result.cost_at_best
    if (count != cum[result.best_val_round - 1]
            or mb != count * config.bytes_per_param / 2**20):
        problems.append("cost_at_best disagrees with the ledger")
    return problems


def client_steps(config, result) -> float:
    """Client mini-batch steps of one run.

    Exact when every client takes part each round or all shards have the
    same size (true of every workload here); otherwise the expected count.
    """
    sizes = [len(idx) for idx in result.plan.client_indices]
    k = max(1, math.ceil(config.participation * config.num_clients))
    per_round = sum(math.ceil(n / config.batch_size) for n in sizes) * k / len(sizes)
    return config.rounds * config.local_epochs * per_round


class Operations:
    """Runs ``run_federated``, times it, checks it and counts failures."""

    def __init__(self, full_length: bool = True):
        from rankfed import run_federated
        from rankfed.errors import RankfedError
        from rankfed.harness import records_jsonl

        self._run = run_federated
        self._error = RankfedError
        self._records = records_jsonl
        self.full_length = full_length
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def run(self, config, tracer=None, request: int = 0):
        """One checked run; returns ``(result, seconds)`` or ``(None, None)``."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            if tracer is None:
                result = self._run(config)
            else:
                with tracer.request(ROOT_SPAN, request):
                    result = self._run(config)
            seconds = time.perf_counter() - start
        except self._error as exc:
            self.failed += 1
            print(f"failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None, None
        text = self._records(result.records)
        problems = check_result(config, result, self.full_length)
        if self.reference is None:
            self.reference = text
        elif text != self.reference:
            problems.append("records differ from the first run's bytes")
        if problems:
            self.failed += 1
            print("failed: " + "; ".join(problems), file=sys.stderr)
        return result, seconds


def reference_kernel(dims, steps: int = 800) -> float:
    """Seconds taken by fixed numpy work that no change to rankfed can move.

    The work is mini-batch SGD (batches of 32, softmax cross-entropy) on a
    tanh MLP with the layer widths ``dims`` of the workload's own network,
    so it has the same mix of small calls and matrix products and slows
    down and speeds up with the machine the way the workload does.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(256, dims[0])), rng.integers(0, dims[-1], 256)
    ws = [rng.normal(size=(n_out, n_in)) / np.sqrt(n_in)
          for n_in, n_out in zip(dims, dims[1:])]
    bs = [np.zeros(n_out) for n_out in dims[1:]]
    rows = np.arange(32)
    start = time.perf_counter()
    for i in range(steps):
        lo = (i * 32) % 256
        h = x[lo:lo + 32]
        hs = [h]
        for l, (w, b) in enumerate(zip(ws, bs)):
            h = h @ w.T + b
            h = np.tanh(h) if l < len(ws) - 1 else h
            hs.append(h)
        p = np.exp(h - h.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[rows, y[lo:lo + 32]] -= 1.0
        dz = p / 32
        for l in reversed(range(len(ws))):
            gw, gb = dz.T @ hs[l], dz.sum(axis=0)
            if l > 0:
                dz = (dz @ ws[l]) * (1.0 - hs[l] ** 2)
            ws[l] = ws[l] - 0.05 * gw
            bs[l] = bs[l] - 0.05 * gb
    return time.perf_counter() - start


def kernel_dims(config) -> list:
    out = config.classes if config.task == "multiclass" else config.num_labels
    return [config.dim, *config.hidden, out]


def _keep_going(samples, deadline: float, minimum: int) -> bool:
    """Another repeat fits if the minimum is unmet or it should end in time."""
    if len(samples) < minimum:
        return True
    return time.perf_counter() + statistics.median(samples) <= deadline


def _summary(values) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"median {statistics.median(values):.4f} q1 {q1:.4f} q3 {q3:.4f} "
            f"max {max(values):.4f} n={len(values)}")


def measure_end_to_end(config, seconds: float, ops: Operations,
                       ref_kernel_s: float):
    """Medians over untraced repeats, each timed against the reference kernel.

    The kernel runs right before every repeat; each repeat's times are scaled
    by ``ref_kernel_s / kernel time``, so a machine that is slower for a
    while (a shared host) scales both and the reported value stays put.
    """
    dims = kernel_dims(config)
    reference, _ = ops.run(config)  # warm-up; its bytes are the reference
    reference_kernel(dims)
    raw_run_s, ref_s, run_s, setup_s, result = [], [], [], [], reference
    deadline = time.perf_counter() + seconds
    while _keep_going(raw_run_s, deadline, MIN_REPEATS):
        ref = reference_kernel(dims)
        with Tracer(SETUP_TARGETS, required=True) as tracer:
            res, dt = ops.run(config)
        if res is None:
            if ops.failed > 2 * MIN_REPEATS:
                break
            continue
        result = res
        scale = ref_kernel_s / ref
        raw_run_s.append(dt)
        ref_s.append(ref)
        run_s.append(dt * scale)
        setup_s.append(sum(s.end - s.start for s in tracer.spans) * scale)
    if not run_s:
        raise SystemExit("bench: every run failed")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("run_s   " + _summary(run_s))
    print("setup_s " + _summary(setup_s))
    print("raw run_s (wall) " + _summary(raw_run_s))
    print("reference kernel " + _summary(ref_s))
    run_median = statistics.median(run_s)
    return {
        "run_s": run_median,
        "setup_s": statistics.median(setup_s),
        "client_steps_per_s": client_steps(config, result) / run_median,
        "peak_rss_mb": peak_rss_mb,
        "final_test_metric": result.records[-1].test_metric,
    }


def measure_layers(config, seconds: float, ops: Operations, spans_path):
    reference, _ = ops.run(config)
    counted, _ = ops.run(dataclasses.replace(config, count_ops=True))
    untraced, traced, tables, spans = [], [], [], []
    deadline = time.perf_counter() + seconds
    while _keep_going([u + t for u, t in zip(untraced, traced)], deadline, MIN_PAIRS):
        # Alternate which side runs first so drift over time hits both.
        for traced_turn in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if not traced_turn:
                _, dt = ops.run(config)
                if dt is not None:
                    untraced.append(dt)
                continue
            tracer = Tracer(LAYER_TARGETS)
            with tracer:
                _, dt = ops.run(config, tracer, request=len(traced))
            if dt is not None:
                traced.append(dt)
                spans = relabel(tracer.spans, RELABEL)
                tables.append(layer_table(spans))
        if ops.failed > 2 * MIN_PAIRS:
            break
    if reference is None or counted is None or not (traced and untraced):
        raise SystemExit("bench: the runs needed for the per-layer split failed")
    OUT_DIR.mkdir(exist_ok=True)
    write_spans(spans, spans_path)

    metrics = {}
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0}
    for layer in LAYERS:
        rows = [t.get(layer, empty) for t in tables]
        metrics[f"{layer}.s"] = statistics.median(r["s"] for r in rows)
        metrics[f"{layer}.self_s"] = statistics.median(r["self_s"] for r in rows)
        metrics[f"{layer}.calls"] = rows[-1]["calls"]
    refreshes = metrics["client.refresh_importances.calls"]
    estimates = metrics["model.estimate_importance.calls"]
    metrics.update({
        "model.multiplies": counted.op_count,
        "metrics.transmitted_params": reference.ledger.cumulative_transmitted()[-1],
        "metrics.transmitted_mb_at_best": reference.cost_at_best[1],
        "lora.rank_drops": sum(r.dropped for r in reference.records),
        "client.importance_hit_ratio": (refreshes - estimates) / refreshes if refreshes else 0.0,
        "trace_overhead": statistics.median(traced) / statistics.median(untraced),
    })
    root = metrics["harness.run_federated.s"]
    print(f"traced repeats n={len(traced)}; untraced run_s {_summary(untraced)}")
    print(f"{'layer':40s} {'s':>9s} {'self_s':>9s} {'self %':>7s} {'calls':>7s}")
    for layer in sorted(LAYERS, key=lambda l: -metrics[f"{l}.self_s"]):
        print(f"{layer:40s} {metrics[f'{layer}.s']:9.4f} {metrics[f'{layer}.self_s']:9.4f} "
              f"{100 * metrics[f'{layer}.self_s'] / root:6.1f}% {metrics[f'{layer}.calls']:7d}")
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool,
            rounds: int | None = None) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    os.environ["RANKFED_WORKERS"] = str(WORKLOADS[workload].workers)
    config = make_config(workload, seed, rounds)
    print("env " + json.dumps(environment()))
    ops = Operations(full_length=rounds is None)
    if trace:
        spans_path = OUT_DIR / f"{workload}-seed{seed}.spans.jsonl"
        values = measure_layers(config, seconds, ops, spans_path)
        units = per_layer_units()
    else:
        values = measure_end_to_end(config, seconds, ops, WORKLOADS[workload].ref_kernel_s)
        units = END_TO_END
    digest = hashlib.sha256(ops.reference.encode()).hexdigest()
    print(f"records sha256 {digest} (workload {workload}, seed {seed})")
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    use_repo_sources()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
