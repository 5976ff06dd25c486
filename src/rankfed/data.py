"""Synthetic classification data and non-IID client partitioning.

Class-conditional Gaussian clusters stand in for image benchmarks; label-skew
partitioning is controlled so that the achieved mean pairwise KS statistic
spans the IID (KS ~ 0), moderate-overlap, and fully-disjoint (KS = 1) regimes.
"""

from __future__ import annotations

import csv as _csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, ParameterError, require_finite
from .numerics import Rng, sigmoid


@dataclass(frozen=True)
class Dataset:
    """Feature/label arrays with fixed train/val/test splits.

    ``task`` is "multiclass" (integer labels) or "multilabel" (binary label
    matrix, one column per label).
    """

    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    num_classes: int
    task: str = "multiclass"
    class_means: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.train_x.shape[1]

    def split(self, name: str):
        if name == "train":
            return self.train_x, self.train_y
        if name == "val":
            return self.val_x, self.val_y
        if name == "test":
            return self.test_x, self.test_y
        raise ParameterError(f"unknown split: {name}")


@dataclass(frozen=True)
class PartitionPlan:
    """Disjoint per-client index lists into the train split."""

    client_indices: tuple
    histograms: np.ndarray  # [clients, classes] label counts
    mean_pairwise_ks: float
    scheme: str

    @property
    def num_clients(self) -> int:
        return len(self.client_indices)


def _split_counts(n: int):
    n_train = int(np.floor(0.7 * n))
    n_val = int(np.floor(0.15 * n))
    n_test = n - n_train - n_val
    return n_train, n_val, n_test


def generate_synthetic(num_classes: int, dim: int, n_per_class: int,
                       class_separation: float, rng: Rng,
                       class_means: np.ndarray | None = None) -> Dataset:
    """Gaussian class clusters at separation-scaled random unit directions.

    Unit covariance per class; 70/15/15 train/val/test split stratified by
    class. Deterministic for a given rng. ``class_means`` overrides the drawn
    cluster centers (used to build related pretraining tasks).
    """
    if num_classes < 2:
        raise ParameterError(f"need >= 2 classes, got {num_classes}")
    if dim < 2:
        raise ParameterError(f"need dim >= 2, got {dim}")
    require_finite("separation", class_separation, 0)

    if class_means is None:
        dirs = rng.substream("class-means").normal(num_classes, dim)
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        class_means = class_separation * dirs / norms
    else:
        class_means = np.asarray(class_means, dtype=np.float64)
        if class_means.shape != (num_classes, dim):
            raise ParameterError(
                f"class_means must have shape ({num_classes}, {dim})"
            )

    x = np.concatenate([class_means[c] + rng.substream("samples", c).normal(n_per_class, dim)
                        for c in range(num_classes)])
    y = np.repeat(np.arange(num_classes, dtype=np.int64), n_per_class)
    return replace(dataset_from_arrays(x, y, rng), class_means=class_means)


def relabeled(dataset: Dataset) -> Dataset:
    """Same features, labels cyclically shifted by one: a sibling task over
    the identical cluster geometry with a different readout."""
    if dataset.task != "multiclass":
        raise ParameterError("relabeling applies to multiclass datasets")
    c = dataset.num_classes
    return Dataset(
        dataset.train_x, (dataset.train_y + 1) % c,
        dataset.val_x, (dataset.val_y + 1) % c,
        dataset.test_x, (dataset.test_y + 1) % c,
        num_classes=c, class_means=dataset.class_means,
    )


def generate_multilabel(n_samples: int, dim: int, num_labels: int, rng: Rng) -> Dataset:
    """Independent logistic ground truth per label over Gaussian features,
    each label's weight vector of norm 2."""
    if num_labels < 1:
        raise ParameterError(f"need >= 1 label, got {num_labels}")
    if dim < 2:
        raise ParameterError(f"need dim >= 2, got {dim}")
    x = rng.substream("features").normal(n_samples, dim)
    w = rng.substream("label-weights").normal(num_labels, dim)
    w = 2.0 * w / np.linalg.norm(w, axis=1, keepdims=True)
    p = sigmoid(x @ w.T)
    y = (rng.substream("label-noise").uniform(size=p.shape) < p).astype(np.int64)
    n_train, n_val, n_test = _split_counts(n_samples)
    if n_train < 1 or n_test < 1:
        raise ParameterError(f"n_samples={n_samples} too small for a 70/15/15 split")
    perm = rng.substream("split-shuffle").permutation(n_samples)
    x, y = x[perm], y[perm]
    return Dataset(
        x[:n_train], y[:n_train],
        x[n_train:n_train + n_val], y[n_train:n_train + n_val],
        x[n_train + n_val:], y[n_train + n_val:],
        num_classes=num_labels, task="multilabel",
    )


def ks_statistic(hist_p, hist_q) -> float:
    """Max prefix-CDF gap between two label histograms, in [0, 1]."""
    p = np.asarray(hist_p, dtype=np.float64)
    q = np.asarray(hist_q, dtype=np.float64)
    if p.shape != q.shape:
        raise InputError(f"histogram shapes differ: {p.shape} vs {q.shape}")
    if p.sum() <= 0 or q.sum() <= 0:
        raise InputError("histograms must have positive mass")
    cdf_p = np.cumsum(p) / p.sum()
    cdf_q = np.cumsum(q) / q.sum()
    return float(np.max(np.abs(cdf_p - cdf_q)))


def mean_pairwise_ks(histograms: np.ndarray) -> float:
    s = len(histograms)
    if s < 2:
        return 0.0
    vals = [ks_statistic(histograms[i], histograms[j])
            for i in range(s) for j in range(i + 1, s)]
    return float(np.mean(vals))


def partition(dataset: Dataset, num_clients: int, scheme: str, rng: Rng,
              classes_per_client: int | None = None,
              shared_classes: int | None = None) -> PartitionPlan:
    """Split the train set into disjoint client shards with controlled skew.

    Schemes:
      iid       stratified equal shards (mean pairwise KS ~ 0)
      overlap   each client draws ``classes_per_client`` contiguous classes of
                which ``shared_classes`` overlap its neighbors (moderate skew)
      disjoint  contiguous class blocks, one block per client (KS = 1)
    """
    if dataset.task != "multiclass":
        raise ParameterError("KS-controlled partitioning needs multiclass labels")
    if num_clients < 2:
        raise ParameterError(f"need >= 2 clients, got {num_clients}")
    labels = dataset.train_y
    c = dataset.num_classes
    per_class = (np.flatnonzero(labels == ci) for ci in range(c))
    shuffled = [idx[rng.substream("class-shuffle", ci).permutation(len(idx))]
                for ci, idx in enumerate(per_class)]

    # A scheme only names each class's owners, in client order; one loop
    # then deals the class's shuffled samples round-robin among them.
    if scheme == "iid":
        owners = [range(num_clients)] * c
    elif scheme == "disjoint":
        if c < num_clients:
            raise ParameterError(
                f"disjoint scheme needs >= 1 class per client ({c} < {num_clients})"
            )
        bounds = np.linspace(0, c, num_clients + 1).astype(int)
        owners = [[s] for s in range(num_clients) for _ in range(bounds[s], bounds[s + 1])]
    elif scheme == "overlap":
        if classes_per_client is None or shared_classes is None:
            raise ParameterError("overlap scheme needs classes_per_client and shared_classes")
        if not (1 <= shared_classes < classes_per_client <= c):
            raise ParameterError(
                f"need 1 <= shared ({shared_classes}) < per-client "
                f"({classes_per_client}) <= classes ({c})"
            )
        step = classes_per_client - shared_classes
        owners = [[s for s in range(num_clients) if (ci - s * step) % c < classes_per_client]
                  for ci in range(c)]
        if not all(owners):
            raise ParameterError(
                "overlap scheme does not cover every class; adjust "
                "classes_per_client/shared_classes for this client count"
            )
    else:
        raise ParameterError(f"unknown scheme: {scheme}")

    shards = [[] for _ in range(num_clients)]
    for idx, own in zip(shuffled, owners):
        for i, v in enumerate(idx):
            shards[own[i % len(own)]].append(v)
    client_indices = tuple(np.sort(np.asarray(s, dtype=np.int64)) for s in shards)
    if any(len(s) == 0 for s in client_indices):
        raise ParameterError("a client received an empty shard; reduce client count")
    hist = np.zeros((num_clients, c), dtype=np.int64)
    for s, idx in enumerate(client_indices):
        hist[s] = np.bincount(labels[idx], minlength=c)
    return PartitionPlan(client_indices, hist, mean_pairwise_ks(hist), scheme)


def partition_multilabel(dataset: Dataset, num_clients: int, rng: Rng,
                         prevalence_skew: float = 0.0) -> PartitionPlan:
    """Disjoint shards for multilabel data with optional label-prevalence skew.

    With skew 0 the assignment is a plain round-robin over a shuffled order;
    positive skew biases each client toward samples positive for its preferred
    label (client s prefers label s mod L). Any finite skew >= 0 is taken;
    ``validate()`` keeps a config's ``multilabel_skew`` in [0, 1].
    """
    if not num_clients >= 1:
        raise ParameterError(f"num_clients must be >= 1, got {num_clients}")
    require_finite("multilabel_skew", prevalence_skew, 0)
    y = dataset.train_y
    n, L = y.shape
    order = rng.substream("multilabel-order").permutation(n)
    if prevalence_skew > 0:
        pref = np.arange(num_clients) % L
        # each sample's affinity to each client's label, plus noise: [n, clients]
        score = prevalence_skew * y[:, pref]
        score += rng.substream("multilabel-noise").uniform(size=score.shape)
        cap = int(np.ceil(n / num_clients))
        shards = [[] for _ in range(num_clients)]
        # each sample's clients, most preferred first, ranked in one call
        ranked = np.argsort(-score[order], axis=1)
        for i, clients in zip(order.tolist(), ranked):
            for s in clients:
                if len(shards[s]) < cap:
                    shards[s].append(i)
                    break
    else:
        shards = [list(order[s::num_clients]) for s in range(num_clients)]
    client_indices = tuple(np.sort(np.asarray(s, dtype=np.int64)) for s in shards)
    if any(len(s) == 0 for s in client_indices):
        raise ParameterError(f"a client received an empty shard: {n} training "
                             f"samples for {num_clients} clients")
    hist = np.stack([y[idx].sum(axis=0) for idx in client_indices])
    return PartitionPlan(client_indices, hist, 0.0, "multilabel")


def manifest_text(plan: PartitionPlan) -> str:
    lines = [
        f"scheme: {plan.scheme}",
        f"clients: {plan.num_clients}",
        f"mean_pairwise_ks: {plan.mean_pairwise_ks:.6f}",
    ]
    for s, idx in enumerate(plan.client_indices):
        lines.append(f"client {s}: " + " ".join(str(int(i)) for i in idx))
    return "\n".join(lines) + "\n"


def load_csv(path, label_column: str = "label"):
    """Load a labeled UTF-8 CSV (header row, one label column, float features).

    Returns ``(features, labels, label_names)`` with labels encoded as
    consecutive integers in sorted name order. A file that cannot be opened
    or decoded, or whose content is malformed (a NaN or infinite feature or
    a single label class included), raises ``ParameterError``.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            lines = list(_csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ParameterError(f"cannot read CSV file {str(path)!r}: {reason}") from None
    if not lines:
        raise ParameterError("CSV file is empty")
    header = lines[0]
    if label_column not in header:
        raise ParameterError(f"label column {label_column!r} not in header {header}")
    label_pos = header.index(label_column)
    raw_labels, rows = [], []
    for line_no, row in enumerate(lines[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParameterError(f"line {line_no}: expected {len(header)} fields")
        raw_labels.append(row[label_pos])
        features = [v for i, v in enumerate(row) if i != label_pos]
        try:
            rows.append([float(v) for v in features])
        except ValueError as exc:
            raise ParameterError(f"line {line_no}: non-numeric feature: {exc}") from None
        for v, raw in zip(rows[-1], features):
            if not math.isfinite(v):
                raise ParameterError(f"line {line_no}: non-finite feature {raw!r}")
    if not rows:
        raise ParameterError("CSV file has no data rows")
    names = sorted(set(raw_labels))
    if len(names) < 2:
        raise ParameterError(f"label column {label_column!r} holds a single class, {names[0]!r}")
    index = {name: i for i, name in enumerate(names)}
    x = np.asarray(rows, dtype=np.float64)
    y = np.asarray([index[v] for v in raw_labels], dtype=np.int64)
    return x, y, names


def dataset_from_arrays(x: np.ndarray, y: np.ndarray, rng: Rng) -> Dataset:
    """Stratified 70/15/15 dataset from raw multiclass arrays: finite features
    [n, d] and one label per row, each a non-negative integer value. Any other
    input raises ``InputError`` before a row is dealt, as a negative label would
    never be dealt, a fractional one would be truncated, rows beyond the labels
    would be dropped and a NaN feature would train every weight to NaN."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2 or y.ndim != 1 or len(x) != len(y) or len(y) == 0:
        raise InputError(f"need features [n, d] and labels [n] with n >= 1, "
                         f"got shapes {x.shape} and {y.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("features must be finite")
    if y.dtype.kind not in "iuf" or not np.all(np.isfinite(y) & (y >= 0)
                                               & (y == np.floor(y))):
        raise InputError("labels must be non-negative integer values")
    y = y.astype(np.int64)
    num_classes = int(y.max()) + 1
    parts = {"train": ([], []), "val": ([], []), "test": ([], [])}
    for c in range(num_classes):
        idx = np.flatnonzero(y == c)
        idx = idx[rng.substream("class-split", c).permutation(len(idx))]
        n_train, n_val, n_test = _split_counts(len(idx))
        if n_train < 1 or n_test < 1:
            raise ParameterError(f"class {c} has too few samples ({len(idx)})")
        chunks = (idx[:n_train], idx[n_train:n_train + n_val], idx[n_train + n_val:])
        for name, chunk in zip(("train", "val", "test"), chunks):
            parts[name][0].append(x[chunk])
            parts[name][1].append(y[chunk])
    arrays = {}
    for name, (xs, ys) in parts.items():
        xa = np.concatenate(xs)
        ya = np.concatenate(ys)
        perm = rng.substream("split-shuffle", name).permutation(len(ya))
        arrays[name] = (xa[perm], ya[perm])
    return Dataset(*arrays["train"], *arrays["val"], *arrays["test"],
                   num_classes=num_classes)
