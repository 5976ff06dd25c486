"""Golden-bytes regression: twenty-one runs must reproduce pinned hashes.

Eighteen are short runs at seed 3 that cover every mode, regularizer and
ablation; three are the benchmark's canonical workloads at full length and
seed 0, so their ``records_sha256`` is the ``records sha256`` that
``bench/run.py`` prints for them.

For each config the fixture ``golden.json`` stores the sha256 of the run's
``records.jsonl`` text, the sha256 of the final global adapters' ``B`` and
``A`` bytes in layer order (null when the mode has no adapters), the
instrumented multiply count (null unless ``count_ops`` is set), and the
sha256 of the run's decisions: the JSON list of every round's ``(round,
rank, dropped, val_metric, test_metric)``. All are compared exactly.

The hashes are pinned to the numpy/BLAS build the fixture was written on:
another BLAS may sum in another order and change the last bits. A refactor
that claims "same behaviour" must pass this test unchanged. Regenerating the
fixture (``python tests/test_golden.py --write``) is a deliberate change of
the numerics and is recorded in CHANGES.md with the reason; it prints
each entry as ``unchanged``, ``moved (records only)``, ``moved (<keys>)`` or
``added`` against the fixture it replaces, so the record can name the
entries that moved. ``moved (records only)`` says that only the records and
adapter bytes moved: no rank, drop or metric of any round did.

A mismatch names the keys that moved and the build it ran on: the numpy
version, its SIMD baseline and dispatch, the OpenBLAS core and
``OPENBLAS_NUM_THREADS``.
"""

import ctypes
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import WORKLOADS  # noqa: E402

from rankfed.config import RunConfig
from rankfed.harness import records_jsonl, run_federated

FIXTURE = Path(__file__).with_name("golden.json")

SMALL = dict(rounds=8, cooldown=2, pretrain_epochs=5, classes=4, dim=8,
             n_per_class=30, num_clients=3, scheme="disjoint", r_init=6,
             r_min=2, subtractor=2, hidden=(12,))
MULTILABEL = dict(task="multilabel", num_labels=4, n_samples=240)

# Small networks: every mode, regularizer and ablation.
SMALL_NETWORK = {
    "spd-ewc": dict(cl_method="ewc"),
    "spd-mas": dict(cl_method="mas"),
    "spd-lwf": dict(cl_method="lwf"),
    "spd-lwf-two-hidden": dict(cl_method="lwf", hidden=(12, 12)),
    # 16 probe rows: the Gram-form CKA on the 24-wide layer, the feature
    # form on the 4 logits
    "spd-ewc-wide-hidden": dict(cl_method="ewc", hidden=(24,)),
    "spd-ewc-equal-shards": dict(cl_method="ewc", num_clients=2),
    "spd-dense-aggregation": dict(aggregation="dense"),
    "spd-gaussian-reinit": dict(reinit="gaussian"),
    "fixed-rank-lora": dict(mode="fixed-rank-lora", cl_method="none",
                            mu1=0.0, mu2=0.0),
    "spd-iid-half-participation-ops": dict(scheme="iid", num_clients=4,
                                           participation=0.5, count_ops=True),
    "spd-multilabel": dict(MULTILABEL),
    # the sigmoid distillation path
    "spd-lwf-multilabel": dict(MULTILABEL, cl_method="lwf"),
    "fedavg-multiclass-ops": dict(mode="fedavg-full", count_ops=True),
    "fedavg-multilabel-half-skew": dict(MULTILABEL, mode="fedavg-full",
                                        num_clients=4, participation=0.5,
                                        multilabel_skew=0.5),
    # shards [20, 16, 16, 16, 16]: one or two groups a round, whose client
    # counts change between rounds, at a learning rate that decays
    "fedavg-iid-decay-unequal": dict(mode="fedavg-full", scheme="iid", num_clients=5,
                                     participation=0.6, eta_decay=0.9),
}

# The RunConfig() network (dim 16, hidden (32,), 10 classes or 7 labels), the
# bench's paper-ewc shapes. At the small widths above BLAS's transposed and
# plain gemm kernels happen to agree; at these they do not, so a change of
# operand layout shows here.
SHORT = dict(rounds=8, cooldown=2, pretrain_epochs=5)
DEFAULT_NETWORK = {
    "defaults-ewc": dict(),
    "defaults-lwf": dict(cl_method="lwf"),
    "defaults-fedavg-multilabel": dict(mode="fedavg-full", task="multilabel"),
}

# The benchmark's workloads, overrides read from the bench itself. The pool
# workload (paper-ewc-pool2) writes paper-ewc's bytes and is not repeated.
CANONICAL = ("paper-ewc", "wide-lwf", "fedavg-multilabel")

CONFIGS = {**{n: {**SMALL, **o, "seed": 3} for n, o in SMALL_NETWORK.items()},
           **{n: {**SHORT, **o, "seed": 3} for n, o in DEFAULT_NETWORK.items()},
           **{n: {**WORKLOADS[n].overrides, "seed": 0} for n in CANONICAL}}


def _config(name: str) -> RunConfig:
    return RunConfig(**CONFIGS[name]).validate()


def fingerprint(name: str) -> dict:
    result = run_federated(_config(name))
    adapters = None
    if result.final_adapters is not None:
        h = hashlib.sha256()
        for a in result.final_adapters:
            h.update(a.B.tobytes())
            h.update(a.A.tobytes())
        adapters = h.hexdigest()
    return {
        "records_sha256": hashlib.sha256(
            records_jsonl(result.records).encode()).hexdigest(),
        "adapters_sha256": adapters,
        "op_count": result.op_count,
        "rank_drops": sum(r.dropped for r in result.records),
        "decisions_sha256": hashlib.sha256(json.dumps(
            [[r.round, r.rank, r.dropped, r.val_metric, r.test_metric]
             for r in result.records]).encode()).hexdigest(),
    }


def _status(old, new) -> str:
    """How an entry moved against the fixture it replaces."""
    if old is None:
        return "added"
    moved = sorted(k for k in new if old.get(k) != new[k])
    if not moved:
        return "unchanged"
    if set(moved) <= {"records_sha256", "adapters_sha256"}:
        return "moved (records only)"
    return f"moved ({', '.join(moved)})"


def _openblas_core() -> str:
    """The kernel that numpy's bundled OpenBLAS chose at load time."""
    for lib in Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown (no bundled scipy-openblas)"


def _environment() -> str:
    """The build and machine facts a golden mismatch may come from."""
    from numpy._core import _multiarray_umath
    return (f"numpy {np.__version__}, SIMD baseline "
            f"{_multiarray_umath.__cpu_baseline__} dispatch "
            f"{_multiarray_umath.__cpu_dispatch__}, OpenBLAS core {_openblas_core()}, "
            f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', '(unset)')}")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_bytes(name):
    expected = json.loads(FIXTURE.read_text())[name]
    got = fingerprint(name)
    if _config(name).mode == "spd-cfl":
        assert got["rank_drops"] >= 1, "config no longer exercises a rank drop"
    moved = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    assert got == expected, f"{name}: {', '.join(moved)} moved under {_environment()}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    old = json.loads(FIXTURE.read_text())
    new = {n: fingerprint(n) for n in sorted(CONFIGS)}
    for n, fp in new.items():
        print(n, _status(old.get(n), fp))
    FIXTURE.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
