"""Golden-bytes regression: fifteen short runs must reproduce pinned hashes.

For each config the fixture ``golden.json`` stores the sha256 of the run's
``records.jsonl`` text, the sha256 of the final global adapters' ``B`` and
``A`` bytes in layer order (null when the mode has no adapters), and the
instrumented multiply count (null unless ``count_ops`` is set).

The hashes are pinned to the numpy/BLAS build the fixture was written on:
another BLAS may sum in another order and change the last bits. A refactor
that claims "same behaviour" must pass this test unchanged. Regenerating the
fixture (``python tests/test_golden.py --write``) is a deliberate change of
the numerics and is recorded in CHANGES.md with the reason.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

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
    "spd-ewc-equal-shards": dict(cl_method="ewc", num_clients=2),
    "spd-dense-aggregation": dict(aggregation="dense"),
    "spd-gaussian-reinit": dict(reinit="gaussian"),
    "fixed-rank-lora": dict(mode="fixed-rank-lora", cl_method="none",
                            mu1=0.0, mu2=0.0),
    "spd-iid-half-participation-ops": dict(scheme="iid", num_clients=4,
                                           participation=0.5, count_ops=True),
    "spd-multilabel": dict(MULTILABEL),
    "fedavg-multiclass-ops": dict(mode="fedavg-full", count_ops=True),
    "fedavg-multilabel-half-skew": dict(MULTILABEL, mode="fedavg-full",
                                        num_clients=4, participation=0.5,
                                        multilabel_skew=0.5),
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

CONFIGS = {**{n: {**SMALL, **o} for n, o in SMALL_NETWORK.items()},
           **{n: {**SHORT, **o} for n, o in DEFAULT_NETWORK.items()}}


def _config(name: str) -> RunConfig:
    return RunConfig(seed=3, **CONFIGS[name]).validate()


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
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_bytes(name):
    expected = json.loads(FIXTURE.read_text())[name]
    got = fingerprint(name)
    if _config(name).mode == "spd-cfl":
        assert got["rank_drops"] >= 1, "config no longer exercises a rank drop"
    assert got == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    FIXTURE.write_text(json.dumps({n: fingerprint(n) for n in sorted(CONFIGS)},
                                  indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
