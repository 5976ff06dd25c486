"""Misuse of the public API, one row per refusal that no other test reaches:
each row names the ``RankfedError`` subclass and the exact message the call
raises. ``tests/line_coverage.py`` lists any statement of ``src/rankfed``
that the suite never runs; a refusal that shows up there gets a row here."""

import importlib
import itertools
import runpy
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from rankfed.config import RunConfig
from rankfed.data import (Dataset, dataset_from_arrays, generate_multilabel,
                          generate_synthetic, ks_statistic, mean_pairwise_ks, partition,
                          partition_multilabel, relabeled)
from rankfed.errors import InputError, ParameterError, ShapeError
from rankfed.harness import evaluate, prepare_splits, pretrain_base, run_federated
from rankfed.lora import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, AdapterSet, LoRAAdapter,
                          RankSchedule, init_adapter_set, load_adapters, save_adapters)
from rankfed.metrics import CommLedger, accuracy_score, layer_averaged_cka, weight_distance
from rankfed.model import (CLConfig, FrozenBase, Walk, estimate_fim, forward, lwf_penalty,
                           random_base, supervised_loss_and_grads, total_local_loss)
from rankfed.numerics import Rng, as_matrix, gaussian_matrix
from rankfed.server import ClientUpdate, normalize_sensitivities


def _four_rows():
    """4 rows labelled [0, 0, 1, 1]: one train and one test row per class."""
    return dataset_from_arrays(np.arange(8.0).reshape(4, 2), np.array([0, 0, 1, 1]), Rng(0))


def _no_train_rows():
    empty, rows = np.zeros((0, 2)), np.ones((3, 2))
    labels = np.array([0, 1, 0])
    return Dataset(empty, np.zeros(0, dtype=np.int64), rows, labels, rows, labels,
                   num_classes=2)


def _model():
    """A 4 -> 3 -> 2 base, its rank-1 adapters, a batch of 5 rows and its
    one-hot targets."""
    base = random_base([4, 3, 2], Rng(0))
    adapters = init_adapter_set(base.layer_shapes(), 1, 0.02, Rng(1))
    return base, adapters, Rng(2).normal(5, 4), np.eye(2)[[0, 1, 0, 1, 1]]


def _checkpoint(count, dims):
    """A checkpoint header naming ``count`` layers with (h1, h2, r) ``dims``."""
    return (CHECKPOINT_MAGIC + struct.pack("<III", CHECKPOINT_VERSION, count, 1) + bytes(32)
            + b"".join(struct.pack("<III", *d) for d in dims))


def _load(payload: bytes):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "adapters.spdl"
        path.write_bytes(payload)
        return load_adapters(path)


def _save(checksum):
    """``save_adapters`` with ``checksum``, checking that a refusal left no file."""
    with tempfile.TemporaryDirectory() as d:
        try:
            save_adapters(Path(d) / "adapters.spdl", _model()[1], checksum)
        finally:
            assert not any(Path(d).iterdir()), "the checkpoint file was opened"


def _mutated_base_run():
    """A run whose frozen base reads as another base at each checksum."""
    sums = itertools.count()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FrozenBase, "checksum", lambda self: f"{next(sums):064x}")
        run_federated(RunConfig(rounds=1, classes=2, dim=4, n_per_class=20, num_clients=2,
                                scheme="iid", r_init=2, r_min=1, subtractor=1,
                                pretrain_epochs=0))


def _multilabel_evaluation():
    """Two label columns scored against a base with three outputs."""
    splits = prepare_splits({"val": (np.ones((4, 2)), np.array([[0, 1], [1, 0]] * 2))},
                            "multilabel")
    return evaluate(random_base([2, 3], Rng(0)), None, splits)


def _cases():
    base, adapters, x, y = _model()
    return {
        # data
        "dataset-unknown-split": (lambda: _four_rows().split("x"), ParameterError,
                                  "unknown split: x"),
        "synthetic-class-means-shape": (
            lambda: generate_synthetic(2, 3, 5, 1.0, Rng(0), class_means=np.zeros((3, 3))),
            ParameterError, "class_means must have shape (2, 3)"),
        "relabel-multilabel": (lambda: relabeled(generate_multilabel(20, 3, 2, Rng(0))),
                               ParameterError, "relabeling applies to multiclass datasets"),
        "multilabel-no-label": (lambda: generate_multilabel(20, 3, 0, Rng(0)), ParameterError,
                                "need >= 1 label, got 0"),
        "multilabel-dim-1": (lambda: generate_multilabel(20, 1, 2, Rng(0)), ParameterError,
                             "need dim >= 2, got 1"),
        "multilabel-one-sample": (lambda: generate_multilabel(1, 3, 2, Rng(0)), ParameterError,
                                  "n_samples=1 too small for a 70/15/15 split"),
        "ks-unequal-lengths": (lambda: ks_statistic([1, 2], [1, 2, 3]), InputError,
                               "histogram shapes differ: (2,) vs (3,)"),
        "partition-multilabel-data": (
            lambda: partition(generate_multilabel(20, 3, 2, Rng(0)), 2, "iid", Rng(0)),
            ParameterError, "KS-controlled partitioning needs multiclass labels"),
        "partition-overlap-without-counts": (
            lambda: partition(_four_rows(), 2, "overlap", Rng(0)), ParameterError,
            "overlap scheme needs classes_per_client and shared_classes"),
        "partition-unknown-scheme": (lambda: partition(_four_rows(), 2, "zipf", Rng(0)),
                                     ParameterError, "unknown scheme: zipf"),
        "partition-empty-shard": (lambda: partition(_four_rows(), 3, "iid", Rng(0)),
                                  ParameterError,
                                  "a client received an empty shard; reduce client count"),
        "partition-multilabel-of-multiclass": (
            lambda: partition_multilabel(_four_rows(), 2, Rng(0)), ParameterError,
            "label-prevalence partitioning needs multilabel labels"),
        # harness
        "pretrain-no-train-rows": (lambda: pretrain_base(_no_train_rows(), 1, Rng(0)),
                                   InputError, "pretraining dataset is empty"),
        "splits-unknown-task": (lambda: prepare_splits({}, "regression"), ParameterError,
                                "unknown task mode: regression"),
        "splits-1d-multilabel": (
            lambda: prepare_splits({"val": (np.ones((3, 2)), np.zeros(3))}, "multilabel"),
            InputError, "the val split's labels have shape (3,), its features (3, 2)"),
        "evaluate-label-columns": (_multilabel_evaluation, InputError,
                                   "the val split's labels have shape (4, 2), its logits (4, 3)"),
        "run-base-mutated": (_mutated_base_run, InputError,
                             "frozen base was mutated during the run"),
        # lora
        "adapter-unmatched-factors": (
            lambda: LoRAAdapter(np.zeros((3, 2)), np.zeros((3, 4))), ShapeError,
            "B (3, 2) and A (3, 4) are not a 2-D or client-stacked 3-D factor pair"),
        "set-rank-below-capped-nominal": (
            lambda: AdapterSet((LoRAAdapter(np.zeros((3, 1)), np.zeros((1, 4))),), 2),
            ParameterError, "layer 0: rank 1 != min(nominal, dims) = 2"),
        "init-set-rank-0": (lambda: init_adapter_set([(32, 16)], 0, 0.02, Rng(0)),
                            ParameterError, "rank 0 out of range for a 32x16 layer"),
        "init-set-no-layer": (lambda: init_adapter_set([], 0, 0.02, Rng(0)), ShapeError,
                              "an adapter set needs at least one layer"),
        "schedule-phase-0": (lambda: RankSchedule(4, 2, 2, phase=0), ParameterError,
                             "phase must be >= 1, got 0"),
        "checkpoint-no-layer": (lambda: _load(_checkpoint(0, [])), ParameterError,
                                "checkpoint holds no adapters"),
        "checkpoint-zero-dimension": (lambda: _load(_checkpoint(1, [(0, 4, 1)])),
                                      ParameterError, "layer 0: bad dimensions 0x4 at rank 1"),
        "save-checksum-too-short": (lambda: _save("ab"), ParameterError,
                                    "base_checksum must be a sha256 of 64 hex digits, "
                                    "got 'ab'"),
        "save-checksum-62-digits": (lambda: _save("0" * 62), ParameterError,
                                    f"base_checksum must be a sha256 of 64 hex digits, "
                                    f"got '{'0' * 62}'"),
        "save-checksum-not-hex": (lambda: _save("g" * 64), ParameterError,
                                  f"base_checksum must be a sha256 of 64 hex digits, "
                                  f"got '{'g' * 64}'"),
        # metrics
        "accuracy-unequal-shapes": (lambda: accuracy_score([0, 1], [0, 1, 1]), ShapeError,
                                    "shape mismatch: (2,) vs (3,)"),
        "ledger-negative-round": (lambda: CommLedger(2).add_round(-1), InputError,
                                  "parameter count must be nonnegative"),
        "weight-distance-layer-count": (lambda: weight_distance([np.zeros(2)], []),
                                        ShapeError, "layer count mismatch: 1 vs 0"),
        "cka-no-layer": (lambda: layer_averaged_cka([], []), InputError,
                         "need at least one layer"),
        # model
        "forward-1d-batch": (lambda: forward(base, None, np.zeros(4)), ShapeError,
                             "x must be [n, d] or client-stacked [C, n, d], got (4,)"),
        "forward-dense-fewer-layers": (lambda: forward(base, [np.zeros((3, 4))], x),
                                       ShapeError, "dense layer count 1 != layer count 2"),
        "loss-unknown-task": (
            lambda: supervised_loss_and_grads(Walk(base.weights, base.biases), x, y, "ranking"),
            ParameterError, "unknown task: ranking"),
        "importance-empty-shard": (lambda: estimate_fim(base, adapters, np.zeros((0, 4)), y),
                                   InputError, "empty batch"),
        "lwf-unequal-logits": (lambda: lwf_penalty(np.zeros((2, 3)), np.zeros((2, 4)), 1.0),
                               ShapeError, "teacher outputs (2, 3) != student outputs (2, 4)"),
        "ewc-anchor-without-importances": (
            lambda: total_local_loss(Walk(base.weights, base.biases, adapters), x, y,
                                     adapters.dense(), None, None, CLConfig("ewc", mu1=0.1)),
            InputError, "ewc penalty requires importance estimates"),
        # numerics
        "as-matrix-1d": (lambda: as_matrix(np.zeros(3)), ShapeError,
                         "matrix must be 2-D, got shape (3,)"),
        "gaussian-zero-rows": (lambda: gaussian_matrix(0, 3, 1.0, Rng(0)), ParameterError,
                               "matrix dimensions must be positive, got 0x3"),
        # server
        "update-empty-shard": (lambda: ClientUpdate(0, adapters, 0), InputError,
                               "shard size must be positive, got 0"),
        "normalize-no-sensitivity": (lambda: normalize_sensitivities([]), InputError,
                                     "no sensitivities to normalize"),
    }


@pytest.mark.parametrize("case", list(_cases()))
def test_misuse_is_refused(case):
    call, error, message = _cases()[case]
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


def test_mean_pairwise_ks_of_one_histogram_is_zero():
    assert mean_pairwise_ks(np.array([[3, 1]])) == 0.0


def test_the_cli_module_runs_as_a_script(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["rankfed", "--help"])
    # runpy warns that it runs a module already imported, as the suite has
    importlib.import_module("rankfed.cli")
    with pytest.warns(RuntimeWarning, match="found in sys.modules"), \
            pytest.raises(SystemExit) as raised:
        runpy.run_module("rankfed.cli", run_name="__main__")
    assert raised.value.code == 0
    assert "usage: rankfed" in capsys.readouterr().out
