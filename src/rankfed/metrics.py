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


def column_aucs(scores, labels) -> list:
    """Area under the ROC curve of every column of ``scores`` [n, L] against
    the 0/1 ``labels`` [n, L]; None for a column holding a single class.

    Each column's curve is trapezoidal over its distinct score thresholds.
    Tied scores are grouped at a single threshold, so the trapezoid across a
    tie block credits half, matching the pairwise probability
    P(score+ > score-) + 0.5 * P(tie).

    All columns are sorted and counted in one pass. A column's trapezoid
    terms are those of ``np.trapezoid(tpr, fpr)`` and are summed as one
    contiguous run, so each value equals the column's 1-D trapezoid bit for
    bit. The sort need not be stable: the positives counted at the end of a
    tie block do not depend on the order inside it.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise InputError(f"scores and labels must be equal-shape [n, L] arrays, "
                         f"got {scores.shape} and {labels.shape}")
    positive = labels == 1
    pos = positive.sum(axis=0)
    neg = (labels == 0).sum(axis=0)
    if np.any(pos + neg != len(labels)):
        raise InputError("labels must be 0 or 1")
    if not np.all(np.isfinite(scores)):
        raise InputError("scores must be finite")
    defined = np.flatnonzero((pos > 0) & (neg > 0))
    out = [None] * scores.shape[1]
    if len(defined) == 0:
        return out

    k, n = len(defined), len(labels)
    pos, neg = pos[defined, np.newaxis], neg[defined, np.newaxis]
    neg_s = -scores.T[defined]
    order = np.argsort(neg_s, axis=1)
    order += np.arange(0, k * n, n)[:, np.newaxis]  # flat indices into [k, n]
    neg_s = neg_s.take(order)
    # positives among each column's top 1..n scores, exact in float64
    tps = np.cumsum(positive.T[defined].take(order), axis=1, dtype=np.float64)
    # a threshold closes each block of equal scores
    closes = np.empty((k, n), dtype=bool)
    closes[:, :-1] = neg_s[:, 1:] != neg_s[:, :-1]
    closes[:, -1] = True
    # row-major selection: each column's thresholds form one run
    tpr = (tps / pos)[closes]
    fpr = ((np.arange(1, n + 1) - tps) / neg)[closes]
    counts = closes.sum(axis=1)
    starts = np.cumsum(counts) - counts
    # each threshold's predecessor on its column's curve, which starts at (0, 0)
    prev = np.empty((2, len(tpr)))
    prev[0, 1:], prev[1, 1:] = fpr[:-1], tpr[:-1]
    prev[:, starts] = 0.0
    terms = (fpr - prev[0]) * (tpr + prev[1]) / 2.0

    # columns with equal threshold counts sum as the rows of one [k, m] block
    by_count = {}
    for i, m in enumerate(counts.tolist()):
        by_count.setdefault(m, []).append(i)
    for m, members in by_count.items():
        block = terms[starts[members][:, np.newaxis] + np.arange(m)]
        for i, value in zip(members, block.sum(axis=1).tolist()):
            out[defined[i]] = value
    return out


def auc(scores, labels) -> float:
    """Area under the ROC curve of 1-D scores against 0/1 labels: the
    one-column case of ``column_aucs``."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise InputError("scores and labels must be equal-length 1-D sequences")
    value = column_aucs(scores[:, np.newaxis], labels[:, np.newaxis])[0]
    if value is None:
        raise UndefinedMetricError("AUC needs both classes present")
    return value


@dataclass
class CommLedger:
    """Per-round transmitted trainable-parameter counts.

    ``params_per_round[t]`` is the one-way per-client count for round t; the
    protocol sends each parameter down and back up for every client, hence
    the 2 * S factor in the cost. ``transmitted`` is the running total
    through the last round, the last entry of ``cumulative_transmitted()``.
    """

    num_clients: int
    bytes_per_param: int = 4
    params_per_round: list = field(default_factory=list)
    transmitted: int = field(init=False)

    def __post_init__(self):
        self.transmitted = 2 * self.num_clients * sum(self.params_per_round)

    def add_round(self, param_count: int) -> None:
        if param_count < 0:
            raise InputError("parameter count must be nonnegative")
        self.params_per_round.append(int(param_count))
        self.transmitted += 2 * self.num_clients * int(param_count)

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


def frobenius_norm(arrays) -> float:
    """Frobenius norm of the arrays concatenated; ``arrays`` may be a generator."""
    return float(np.sqrt(sum((float(np.sum(a ** 2)) for a in arrays), 0.0)))


def weight_distance(a, b) -> float:
    """Frobenius norm of the difference of two per-layer array lists,
    concatenated over layers."""
    if len(a) != len(b):
        raise ShapeError(f"layer count mismatch: {len(a)} vs {len(b)}")

    def differences():
        for x, y in zip(a, b):
            x = np.asarray(x, dtype=np.float64)
            y = np.asarray(y, dtype=np.float64)
            if x.shape != y.shape:
                raise ShapeError(f"layer shape mismatch: {x.shape} vs {y.shape}")
            yield x - y

    return frobenius_norm(differences())


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


def _cka(p: _Operand, q: _Operand) -> float:
    """Linear CKA in [0, 1]; invariant to orthogonal maps and positive scaling."""
    if p.n != q.n:
        raise InputError(f"sample counts differ: {p.n} vs {q.n}")
    h12 = _hsic(p.centred, q.centred, p.n)
    if p.self_hsic <= 0 or q.self_hsic <= 0:
        raise UndefinedMetricError("CKA is undefined for constant representations")
    # sqrt(h11 * h22) keeps the self-comparison exactly 1.0
    return min(float(h12 / np.sqrt(p.self_hsic * q.self_hsic)), 1.0)


def prepare_representations(reps) -> list:
    """Prepare per-layer representations once for many ``layer_averaged_cka``
    calls: each layer is centred and its self-HSIC computed here, so a call
    pays only the cross-HSIC."""
    return [_prepare(z) for z in reps]


def layer_averaged_cka(reps_a, reps_b) -> float:
    """Arithmetic mean of per-layer linear CKA over matched layer
    representations; one layer gives that layer's CKA.

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
