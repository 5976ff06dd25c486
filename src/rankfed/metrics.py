"""Evaluation metrics: accuracy, ROC AUC, communication cost, weight distance,
and linear-kernel representation similarity (HSIC / CKA)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError, ShapeError, UndefinedMetricError


def accuracy_score(predictions, labels) -> float:
    """Multiclass accuracy: fraction of exact label matches."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ShapeError(f"shape mismatch: {predictions.shape} vs {labels.shape}")
    if predictions.size == 0:
        raise InputError("cannot compute accuracy over zero samples")
    return float(np.mean(predictions == labels))


def auc(scores, labels) -> float:
    """Area under the ROC curve, trapezoidal over distinct score thresholds.

    Tied scores are grouped at a single threshold, so the trapezoid across a
    tie block credits half, matching the pairwise probability
    P(score+ > score-) + 0.5 * P(tie).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise InputError("scores and labels must be equal-length 1-D sequences")
    pos = int(np.sum(labels == 1))
    neg = int(np.sum(labels == 0))
    if pos + neg != len(labels):
        raise InputError("labels must be 0 or 1")
    if pos == 0 or neg == 0:
        raise UndefinedMetricError("AUC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order].astype(np.float64)
    distinct = np.flatnonzero(np.diff(s))
    cut = np.concatenate([distinct, [len(s) - 1]])
    tps = np.cumsum(y)[cut]
    fps = (cut + 1) - tps
    tpr = np.concatenate([[0.0], tps / pos])
    fpr = np.concatenate([[0.0], fps / neg])
    return float(np.trapezoid(tpr, fpr))


@dataclass
class CommLedger:
    """Per-round transmitted trainable-parameter counts.

    ``params_per_round[t]`` is the one-way per-client count for round t; the
    protocol sends each parameter down and back up for every client, hence
    the 2 * S factor in the cost.
    """

    num_clients: int
    bytes_per_param: int = 4
    params_per_round: list = field(default_factory=list)

    def add_round(self, param_count: int) -> None:
        if param_count < 0:
            raise InputError("parameter count must be nonnegative")
        self.params_per_round.append(int(param_count))

    def cumulative_transmitted(self) -> list:
        """Running totals of 2 * S * sum(params) after each round."""
        out, total = [], 0
        for p in self.params_per_round:
            total += 2 * self.num_clients * p
            out.append(total)
        return out


def communication_cost(ledger: CommLedger, through_round: int | None = None):
    """Total transmitted parameters and megabytes.

    ``through_round`` counts rounds 1..k (1-based, typically the round with
    the best validation metric); None counts every recorded round.
    """
    rounds = ledger.params_per_round
    if through_round is not None:
        if through_round < 0 or through_round > len(rounds):
            raise InputError(f"through_round {through_round} out of range")
        rounds = rounds[:through_round]
    count = 2 * ledger.num_clients * int(np.sum(rounds, dtype=np.int64)) if rounds else 0
    megabytes = count * ledger.bytes_per_param / 2**20
    return count, megabytes


def weight_distance(a, b) -> float:
    """Frobenius norm of the difference, concatenated over layers."""
    a_list = a if isinstance(a, (list, tuple)) else [a]
    b_list = b if isinstance(b, (list, tuple)) else [b]
    if len(a_list) != len(b_list):
        raise ShapeError(f"layer count mismatch: {len(a_list)} vs {len(b_list)}")
    total = 0.0
    for x, y in zip(a_list, b_list):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape != y.shape:
            raise ShapeError(f"layer shape mismatch: {x.shape} vs {y.shape}")
        total += float(np.sum((x - y) ** 2))
    return float(np.sqrt(total))


class _Operand(NamedTuple):
    """A representation prepared for HSIC: centred columns, self-HSIC, n."""

    centred: np.ndarray
    self_hsic: float
    n: int


def _hsic(c1, c2, n) -> float:
    """The feature-space HSIC of two centred matrices, |C1^T C2|_F^2 / (n-1)^2."""
    return float(np.sum((c1.T @ c2) ** 2) / (n - 1) ** 2)


def _prepare(z) -> _Operand:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise InputError("representations must be 2-D (samples x features)")
    n = z.shape[0]
    if n < 2:
        raise InputError("HSIC needs at least 2 samples")
    c = z - z.mean(axis=0)
    # Two buffers, never c.T @ c: numpy routes a product of one buffer with its
    # own transpose to syrk, whose rounding may differ from the cross products'.
    return _Operand(c, _hsic(c, c.copy(), n), n)


def _cross_hsic(p: _Operand, q: _Operand) -> float:
    if p.n != q.n:
        raise InputError(f"sample counts differ: {p.n} vs {q.n}")
    return _hsic(p.centred, q.centred, p.n)


def _cka(p: _Operand, q: _Operand) -> float:
    h12 = _cross_hsic(p, q)
    if p.self_hsic <= 0 or q.self_hsic <= 0:
        raise UndefinedMetricError("CKA is undefined for constant representations")
    # sqrt(h11 * h22) keeps the self-comparison exactly 1.0
    return min(float(h12 / np.sqrt(p.self_hsic * q.self_hsic)), 1.0)


def linear_hsic(z1, z2) -> float:
    """Linear-kernel HSIC via the feature-space form |Z1c^T Z2c|_F^2 / (n-1)^2."""
    return _cross_hsic(_prepare(z1), _prepare(z2))


def cka(z1, z2) -> float:
    """Linear CKA in [0, 1]; invariant to orthogonal maps and positive scaling."""
    return _cka(_prepare(z1), _prepare(z2))


def prepare_representations(reps) -> list:
    """Prepare per-layer representations once for many ``layer_averaged_cka``
    calls: each layer is centred and its self-HSIC computed here, so a call
    pays only the cross-HSIC."""
    return [_prepare(z) for z in reps]


def layer_averaged_cka(reps_a, reps_b) -> float:
    """Arithmetic mean of per-layer CKA over matched layer representations.

    Either side may be raw per-layer arrays or the output of
    ``prepare_representations``; the result is the same to the bit.
    """
    if len(reps_a) != len(reps_b):
        raise InputError(f"layer count mismatch: {len(reps_a)} vs {len(reps_b)}")
    if not reps_a:
        raise InputError("need at least one layer")
    return float(np.mean([
        _cka(a if isinstance(a, _Operand) else _prepare(a),
             b if isinstance(b, _Operand) else _prepare(b))
        for a, b in zip(reps_a, reps_b)
    ]))
