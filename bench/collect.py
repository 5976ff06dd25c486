"""Run the benchmark many times and summarize, or compare two checkouts.

    python3 bench/collect.py runs --seeds 0-9 --out bench/results/x.json
    python3 bench/collect.py compare --base ../parent --head . --pairs 10

``runs`` runs every workload (or ``--workloads a,b``) once per seed, each in a
fresh process, and records per metric the values, median, quartiles and the
spread (q3 - q1) / median. ``--trace`` does the same with traced runs.

``compare`` measures two checkouts that carry identical ``bench/`` code, one
pair per seed, alternating which side runs first so that drift between
processes or over time lands on both sides. It applies the rule of the
repository's metrics guide: a gain counts when the change wins at least nine
tenths of the pairs and the medians differ by more than the parent's own
quartile spread; a regression is a median worse than the parent's by more
than the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: bool) -> dict:
    """One benchmark process; returns its result with the ``env`` line added."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall_s
    for line in lines:
        if line.startswith("env "):
            result["env"] = json.loads(line[4:])
    return result


def summarize(values) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def benchmark_spec(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text())


def cmd_runs(args) -> int:
    spec = benchmark_spec(ROOT)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    out = {"seconds": seconds, "trace": args.trace, "seeds": args.seeds,
           "workloads": {}}
    for workload in workloads:
        results = []
        for seed in args.seeds:
            results.append(run_once(ROOT, workload, seed, seconds, args.trace))
            metrics = {k: round(v["value"], 4) for k, v in results[-1]["metrics"].items()
                       if not args.trace}
            print(f"{workload} seed {seed} failed {results[-1]['failed']} "
                  f"wall {results[-1]['wall_s']:.1f}s {metrics}", flush=True)
        names = results[0]["metrics"]
        out["workloads"][workload] = {
            "env": results[0]["env"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "wall_s": [round(r["wall_s"], 2) for r in results],
            "correct": all(r["correct"] for r in results),
            "metrics": {name: dict(unit=names[name]["unit"], **summarize(
                [r["metrics"][name]["value"] for r in results])) for name in names},
        }
        if not args.trace:
            for name, m in out["workloads"][workload]["metrics"].items():
                print(f"  {name:22s} median {m['median']:.4f} spread {m['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


def _bench_digest(checkout: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((checkout / "bench").rglob("*.py")):
        h.update(path.relative_to(checkout).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def verdict(base, head, better: str, bound: float) -> str:
    """The guide's rule for one metric on one workload (pairs in order)."""
    sign = -1 if better == "lower" else 1
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    b, h = summarize(base), summarize(head)
    gain = sign * (h["median"] - b["median"])
    if wins >= 0.9 * len(base) and gain > b["q3"] - b["q1"]:
        return f"improved (wins {wins}/{len(base)})"
    if -gain > bound * abs(b["median"]):
        return f"regressed beyond bound {bound} (wins {wins}/{len(base)})"
    if b["spread"] is not None and b["spread"] > bound and not (
            min(sign * v for v in head) > max(sign * v for v in base)):
        return f"unresolved: parent spread {b['spread']:.3f} > bound"
    return f"within bound {bound} (wins {wins}/{len(base)})"


def cmd_compare(args) -> int:
    base, head = Path(args.base).resolve(), Path(args.head).resolve()
    if _bench_digest(base) != _bench_digest(head):
        print("compare: bench/ differs between the checkouts; measure both "
              "with identical benchmark code", file=sys.stderr)
        return 2
    spec = benchmark_spec(head)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    report = {}
    for workload in workloads:
        sides = {"base": [], "head": []}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                checkout = base if side == "base" else head
                sides[side].append(run_once(checkout, workload, args.seed + i,
                                            seconds, False))
        report[workload] = {}
        print(workload)
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [r["metrics"][name]["value"] for r in sides["base"]]
            h = [r["metrics"][name]["value"] for r in sides["head"]]
            v = verdict(b, h, m["better"], m["bound"])
            report[workload][name] = {"base": summarize(b), "head": summarize(h),
                                      "verdict": v}
            print(f"  {name:22s} base {statistics.median(b):.4f} "
                  f"head {statistics.median(h):.4f}  {v}")
        for side in ("base", "head"):
            failed = sum(r["failed"] for r in sides[side])
            if failed:
                print(f"  {side}: {failed} failed operations")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    runs = sub.add_parser("runs", help="run workloads over seeds and summarize")
    runs.add_argument("--workloads", default="")
    runs.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"))
    runs.add_argument("--seconds", type=float, default=None)
    runs.add_argument("--trace", action="store_true")
    runs.add_argument("--out", default="")
    runs.set_defaults(func=cmd_runs)
    cmp_ = sub.add_parser("compare", help="alternate parent and change runs")
    cmp_.add_argument("--base", required=True)
    cmp_.add_argument("--head", default=str(ROOT))
    cmp_.add_argument("--workloads", default="")
    cmp_.add_argument("--pairs", type=int, default=10)
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.add_argument("--seconds", type=float, default=None)
    cmp_.add_argument("--out", default="")
    cmp_.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
