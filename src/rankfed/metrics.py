"""Evaluation metrics: accuracy, ROC AUC, the communication ledger, weight
distance, and linear-kernel representation similarity (HSIC / CKA)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError, ParameterError, ShapeError, UndefinedMetricError, of_type


def accuracy_score(predictions, labels) -> float:
    """Multiclass accuracy: fraction of exact label matches."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ShapeError(f"shape mismatch: {predictions.shape} vs {labels.shape}")
    if predictions.size == 0:
        raise InputError("cannot compute accuracy over zero samples")
    return float(np.mean(predictions == labels))


class _Labels(NamedTuple):
    """0/1 label columns [n, L] prepared for ``column_aucs``: the indices of
    the columns holding both classes, their positive and negative counts
    [k, 1], their positive rows [k, n], each row's flat offset into [k, n]
    and the ranks 1..n."""

    shape: tuple
    defined: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    positive: np.ndarray
    offsets: np.ndarray
    ranks: np.ndarray


def prepare_labels(labels) -> _Labels:
    """Prepare 0/1 ``labels`` [n, L] once for many ``column_aucs`` calls:
    the 0/1 check, the class counts, the defined columns and their
    transposed positive rows are done here, so a call pays only for the
    sort, the counts and the trapezoid of its scores."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise InputError(f"labels must be an [n, L] array, got shape {labels.shape}")
    positive = labels == 1
    pos = positive.sum(axis=0)
    neg = (labels == 0).sum(axis=0)
    if np.any(pos + neg != len(labels)):
        raise InputError("labels must be 0 or 1")
    defined = np.flatnonzero((pos > 0) & (neg > 0))
    n, k = labels.shape[0], len(defined)
    # float64, the dtype of the curves, so no call converts them
    return _Labels(labels.shape, defined,
                   pos[defined, np.newaxis].astype(np.float64),
                   neg[defined, np.newaxis].astype(np.float64),
                   positive.T[defined].astype(np.float64),
                   (np.arange(k) * n)[:, np.newaxis], np.arange(1.0, n + 1))


def column_aucs(scores, labels) -> list:
    """Area under the ROC curve of every column of ``scores`` [n, L] against
    the 0/1 labels [n, L] that ``prepare_labels`` prepared as ``labels``;
    None for a column holding a single class. Raw labels raise
    ``ParameterError``.

    Each column's curve starts at (0, 0) and takes one point per score, best
    first. Its terms are those of ``np.trapezoid(tpr, fpr)``, each row summed
    as one contiguous run, so a value equals the column's 1-D trapezoid bit
    for bit. A column whose scores tie is summed again by ``np.trapezoid``
    over its distinct thresholds alone, each tie block's last point, so the
    trapezoid across a block credits half, matching the pairwise probability
    P(score+ > score-) + 0.5 * P(tie). The sort need not be stable: the
    positives counted at the end of a tie block do not depend on the order
    inside it.
    """
    if not isinstance(labels, _Labels):
        raise ParameterError("column_aucs takes prepare_labels output")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != labels.shape:
        raise InputError(f"scores and labels must be equal-shape [n, L] arrays, "
                         f"got {scores.shape} and {labels.shape}")
    if not np.all(np.isfinite(scores)):
        raise InputError("scores must be finite")
    values = _column_aucs(np.negative(scores.T, order="C"), labels)
    return [None if math.isnan(v) else v for v in values.tolist()]


def _column_aucs(neg_rows, labels: _Labels) -> np.ndarray:
    """``column_aucs``' values as an array [L], NaN for a column holding a
    single class, from every column's negated scores as rows [L, n], all
    finite."""
    defined = labels.defined
    k, n = len(defined), labels.shape[0]
    neg_s = neg_rows if k == len(neg_rows) else neg_rows[defined]
    order = np.argsort(neg_s, axis=1)
    order += labels.offsets  # flat indices into [k, n]
    neg_s = neg_s.take(order)
    # positives among each column's top 1..n scores, exact in float64
    tps = np.cumsum(labels.positive.take(order), axis=1)
    # each column's curve: one point per score after its start at (0, 0)
    curves = np.empty((2, k, n + 1))
    curves[:, :, 0] = 0.0
    fpr, tpr = curves[:, :, 1:]
    np.subtract(labels.ranks, tps, out=fpr)
    fpr /= labels.neg
    np.divide(tps, labels.pos, out=tpr)
    tied = neg_s[:, 1:] == neg_s[:, :-1]
    f, t = curves
    terms = f[:, 1:] - f[:, :-1]
    terms *= t[:, 1:] + t[:, :-1]
    terms /= 2.0
    values = terms.sum(axis=1)
    # a tie block is one threshold: keep the start and each block's last point
    for i in np.flatnonzero(tied.any(axis=1)).tolist():
        keep = np.concatenate(([True], ~tied[i], [True]))
        values[i] = np.trapezoid(t[i][keep], f[i][keep])
    out = np.full(labels.shape[1], np.nan)
    out[defined] = values
    return out


def auc(scores, labels) -> float:
    """Area under the ROC curve of 1-D scores against 0/1 labels: the
    one-column case of ``column_aucs``."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise InputError("scores and labels must be equal-length 1-D sequences")
    value = column_aucs(scores[:, np.newaxis], prepare_labels(labels[:, np.newaxis]))[0]
    if value is None:
        raise UndefinedMetricError("AUC needs both classes present")
    return value


@dataclass
class CommLedger:
    """Per-round transmitted trainable-parameter counts.

    ``params_per_round[t]`` is the one-way per-client count for round t; the
    protocol sends each parameter down and back up for every client, hence
    the 2 * S factor. ``transmitted`` is the running total through the last
    round, the last entry of ``cumulative_transmitted()``.
    """

    num_clients: int
    params_per_round: list = field(default_factory=list, init=False)
    transmitted: int = field(default=0, init=False)

    def __post_init__(self):
        if not of_type(self.num_clients, int) or self.num_clients < 1:
            raise ParameterError(f"num_clients must be an integer >= 1, got {self.num_clients!r}")

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
    """A representation prepared for HSIC: centred columns C, Gram matrix
    K = C C^T when n <= d (else None), self-HSIC, n.

    Both products take a copy as second operand: numpy runs syrk for a buffer
    times its own transpose. In the feature form syrk may round unlike the
    cross products, so a self-comparison would miss 1.0; for K it is slower."""

    centred: np.ndarray
    gram: np.ndarray | None
    self_hsic: float
    n: int


def _hsic(c1, k1, c2, k2, n) -> float:
    """HSIC of centred C1, C2 over (n-1)^2: the Gram form <K1, K2>_F (n^2)
    when both hold K, else the feature form |C1^T C2|_F^2 (d1 * d2 * n).
    einsum, not vdot or a flat dot: BLAS ddot's bits depend on its threads."""
    if k1 is not None and k2 is not None:
        s = np.einsum("ij,ij->", k1, k2)
    else:
        s = np.add.reduce((c1.T @ c2) ** 2, axis=None)
    return float(s / (n - 1) ** 2)


def _prepare(z) -> _Operand:
    """Centre ``z`` and compute its self-HSIC in the form its shape picks:
    Gram when n <= d, as K costs n^2 * d once and each pair then n^2, where
    the feature form costs d^2 * n per pair. The syrk warning on ``_Operand``
    applies to the feature form's self-HSIC."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise InputError("representations must be 2-D (samples x features)")
    n, d = z.shape
    if n < 2:
        raise InputError("HSIC needs at least 2 samples")
    c = z - np.add.reduce(z, axis=0) / n
    k = c @ c.copy().T if n <= d else None
    # the Gram form reads K alone; only the feature form needs the copy
    twin = c if k is not None else c.copy()
    return _Operand(c, k, _hsic(c, k, twin, k, n), n)


def _cka(p: _Operand, q: _Operand) -> float:
    """Linear CKA in [0, 1]; invariant to orthogonal maps and positive scaling."""
    if p.n != q.n:
        raise InputError(f"sample counts differ: {p.n} vs {q.n}")
    h12 = _hsic(p.centred, p.gram, q.centred, q.gram, p.n)
    if p.self_hsic <= 0 or q.self_hsic <= 0:
        raise UndefinedMetricError("CKA is undefined for constant representations")
    # sqrt(h11 * h22) keeps the self-comparison exactly 1.0; the Gram form's
    # rounding can push an orthogonal pair just below 0
    return min(max(h12 / math.sqrt(p.self_hsic * q.self_hsic), 0.0), 1.0)


def prepare_representations(reps) -> list:
    """Prepare per-layer representations once for many ``layer_averaged_cka``
    calls: each layer is centred, its Gram matrix formed when n <= d and its
    self-HSIC computed here, so a call pays only the cross-HSIC."""
    return [_prepare(z) for z in reps]


def layer_averaged_cka(reps_a, reps_b) -> float:
    """Arithmetic mean of per-layer linear CKA over matched layer
    representations, each side the output of ``prepare_representations``;
    one layer gives that layer's CKA. Raw arrays raise ``ParameterError``.
    """
    if not all(isinstance(op, _Operand) for op in (*reps_a, *reps_b)):
        raise ParameterError("layer_averaged_cka takes prepare_representations output")
    if len(reps_a) != len(reps_b):
        raise InputError(f"layer count mismatch: {len(reps_a)} vs {len(reps_b)}")
    if not reps_a:
        raise InputError("need at least one layer")
    # np.mean's arithmetic: from eight layers on numpy sums pairwise, unlike sum()
    return float(np.add.reduce([_cka(a, b) for a, b in zip(reps_a, reps_b)]) / len(reps_a))
