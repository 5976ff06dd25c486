"""Frozen-base MLP classifier with trainable low-rank adapters.

The base is a stack of linear layers (tanh hidden activations, linear output)
whose weights are never updated after pretraining. Adapters add a dense
update ``B @ A`` to each layer's weight. All gradients here are analytic and
flow to the adapter factors only (or, for the full-model baseline, to the
base weights themselves); every gradient path is validated against finite
differences in the test suite.

Continual-learning regularizers (quadratic importance-weighted anchoring and
logit distillation) operate on the dense product ``B @ A`` so that anchors
computed at one rank remain comparable after a rank change.

The training kernels are shape-agnostic: a batch is [n, d] for one client or
[C, n, d] for a group of clients stacked along a leading axis (the adapter
set is then client-stacked too, see ``AdapterSet.stacked``, and full-model
weights are [C, h1, h2]). Every product and reduction acts on the two
trailing axes, so each client's slice of a stacked result equals, bit for
bit, what the same call computes for that client alone; losses and
penalties come back as one value per client. One backward walk
(``_backward``) serves every gradient: factor, full-weight and bias
gradients and the per-sample importance statistics are folds over it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import (InputError, InvariantError, NumericError, ParameterError,
                     ShapeError, require_finite)
from .lora import AdapterSet, DenseDelta
from .numerics import Matrix, Rng, as_matrix, softmax, softmax_cross_entropy


class OpCounter:
    """Accumulates multiply counts for the training-path matrix products."""

    def __init__(self):
        self.multiplies = 0

    def add(self, n: int):
        self.multiplies += int(n)


def _mm(a, b, counter=None):
    """``a @ b``, adding its ``a.size * b.shape[-1]`` multiplies to
    ``counter`` when one is given. The count is exact when ``b`` has no
    leading client axis that ``a`` lacks, as in every training product."""
    if counter is not None:
        counter.add(a.size * b.shape[-1])
    return a @ b


@dataclass(frozen=True)
class FrozenBase:
    """Immutable linear stack: weights[l] is [h1, h2], mapping h2 -> h1."""

    weights: tuple
    biases: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "biases", tuple(self.biases))
        for w in self.weights:
            w.flags.writeable = False
        for b in self.biases:
            b.flags.writeable = False

    def layer_shapes(self):
        return [w.shape for w in self.weights]

    def checksum(self) -> str:
        h = hashlib.sha256()
        for w, b in zip(self.weights, self.biases):
            h.update(np.ascontiguousarray(w).tobytes())
            h.update(np.ascontiguousarray(b).tobytes())
        return h.hexdigest()


def random_base(layer_dims, rng: Rng, scale: float | None = None) -> FrozenBase:
    """Gaussian base weights (std = scale or 1/sqrt(fan_in)), zero biases."""
    weights, biases = [], []
    for l in range(len(layer_dims) - 1):
        h2, h1 = layer_dims[l], layer_dims[l + 1]
        s = scale if scale is not None else 1.0 / np.sqrt(h2)
        weights.append(rng.substream("base-init", l).normal(h1, h2, s))
        biases.append(np.zeros(h1))
    return FrozenBase(tuple(weights), tuple(biases))


CL_METHODS = ("none", "ewc", "mas", "lwf")


@dataclass(frozen=True)
class CLConfig:
    """Continual-learning regularizer selection and strengths."""

    method: str = "none"  # one of CL_METHODS
    mu1: float = 0.0      # stability strength (anchor = accumulated global)
    mu2: float = 0.0      # plasticity strength (anchor = current global)
    lwf_temperature: float = 1.0

    def __post_init__(self):
        if self.method not in CL_METHODS:
            raise ParameterError(
                f"cl_method must be one of {CL_METHODS}, got {self.method!r}")
        require_finite("mu1", self.mu1, 0)
        require_finite("mu2", self.mu2, 0)
        require_finite("lwf_temperature", self.lwf_temperature, 0, strict=True)

    @property
    def active(self) -> bool:
        return self.method != "none" and (self.mu1 > 0 or self.mu2 > 0)


@dataclass(frozen=True)
class ImportanceEstimate:
    """Per-layer nonnegative importance matrices in dense-update shape."""

    matrices: tuple

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(self.matrices))
        for m in self.matrices:
            if np.any(np.asarray(m) < 0):
                raise InvariantError("importance entries must be nonnegative")


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def _as_batch(x) -> np.ndarray:
    """A non-empty batch as float64 [n, d], or [C, n, d] for a client-stacked
    group."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ShapeError(f"x must be [n, d] or client-stacked [C, n, d], got {x.shape}")
    if x.shape[-2] == 0:
        raise InputError("empty batch")
    return x


def _layer_deltas(n: int, adapters):
    """Normalize the adapter argument to per-layer items and their kind:
    ``(B, A)`` factor pairs from an AdapterSet (client-stacked or not), dense
    updates from a per-layer list, or nothing."""
    if adapters is None:
        return [None] * n, None
    if isinstance(adapters, AdapterSet):
        items, kind = [(a.B, a.A) for a in adapters], "factor"
    else:
        items, kind = [as_matrix(d, "delta") for d in adapters], "dense"
    if len(items) != n:
        raise ShapeError(f"{kind} layer count {len(items)} != layer count {n}")
    return items, kind


class _Cache:
    __slots__ = ("weights", "hs", "hA", "kind", "items")

    def __init__(self, weights, hs, hA, kind, items):
        self.weights = weights
        self.hs = hs        # post-activation per layer, hs[0] = input
        self.hA = hA        # cached h @ A.T per layer (factor path only)
        self.kind = kind
        self.items = items


def _forward_cache(weights, biases, adapters, x, counter=None) -> _Cache:
    """Forward pass over the layer stack ``weights``/``biases`` (the frozen
    base, or the trainable weights of the full-model path) plus adapters."""
    x = _as_batch(x)
    n_layers = len(weights)
    items, kind = _layer_deltas(n_layers, adapters)
    if x.shape[-1] != weights[0].shape[-1]:
        raise ShapeError(f"input dim {x.shape[-1]} != base input dim {weights[0].shape[-1]}")
    h = x
    hs = [x]
    hA = [None] * n_layers
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = _mm(h, w.swapaxes(-1, -2), counter) + b[..., np.newaxis, :]
        item = items[l]
        if kind == "factor":
            B, A = item
            hA[l] = _mm(h, A.swapaxes(-1, -2), counter)
            z = z + _mm(hA[l], B.swapaxes(-1, -2), counter)
        elif kind == "dense":
            z = z + _mm(h, item.swapaxes(-1, -2), counter)
        h = np.tanh(z) if l < n_layers - 1 else z
        hs.append(h)
    return _Cache(weights, hs, hA, kind, items)


def forward(base: FrozenBase, adapters, x: Matrix, counter=None):
    """Logits and the per-layer post-activation representations."""
    cache = _forward_cache(base.weights, base.biases, adapters, x, counter)
    return cache.hs[-1], cache.hs[1:]


def _backward(cache: _Cache, dz, fold, counter=None):
    """Carry the logit error ``dz`` back through every layer, last to first.

    At each layer ``fold(l, dz, dzB)`` turns the error at that layer's output
    into what the caller needs; ``dzB`` is ``dz @ B`` on the factor path and
    None otherwise. The error passes to the layer below through the
    effective weight: ``dz @ W`` without adapters, ``dz @ W + (dz @ B) @ A``
    for a factor pair, ``dz @ (W + D)`` for a dense update ``D``. Returns the
    folds' results in layer order.
    """
    out = [None] * len(cache.weights)
    for l in reversed(range(len(cache.weights))):
        w, item = cache.weights[l], cache.items[l]
        dzB = _mm(dz, item[0], counter) if cache.kind == "factor" else None
        out[l] = fold(l, dz, dzB)
        if l > 0:
            if cache.kind == "factor":
                dh = _mm(dz, w, counter) + _mm(dzB, item[1], counter)
            elif cache.kind == "dense":
                dh = _mm(dz, w + item, counter)
            else:
                dh = _mm(dz, w, counter)
            dz = dh * (1.0 - cache.hs[l] ** 2)
    return out


def _factor_grads(cache: _Cache, dz, counter=None):
    """Gradients w.r.t. (B, A) per layer for a loss with logit gradient ``dz``."""
    def fold(l, dz, dzB):
        return (_mm(dz.swapaxes(-1, -2), cache.hA[l], counter),
                _mm(dzB.swapaxes(-1, -2), cache.hs[l], counter))

    return _backward(cache, dz, fold, counter)


def _task_loss(logits, y, task: str):
    """Mean supervised loss (one per client when stacked) and its logit gradient."""
    if task == "multiclass":
        return softmax_cross_entropy(logits, y)
    if task == "multilabel":
        return _binary_cross_entropy(logits, y)
    raise ParameterError(f"unknown task: {task}")


def supervised_loss_and_grads(base: FrozenBase, adapters, x, y,
                              task: str = "multiclass", counter=None,
                              student: _Cache | None = None):
    """Mean supervised loss and analytic adapter-factor gradients.

    ``adapters`` is an AdapterSet, client-stacked for a client-stacked batch;
    ``student`` reuses a forward pass of it on ``x`` that the caller made.
    """
    if student is None:
        student = _forward_cache(base.weights, base.biases, adapters, x, counter)
    loss, dz = _task_loss(student.hs[-1], y, task)
    return loss, _factor_grads(student, dz, counter)


def _binary_cross_entropy(logits, targets):
    """Mean per-label sigmoid cross-entropy and its logit gradient."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != logits.shape:
        raise ShapeError(f"targets shape {targets.shape} != logits shape {logits.shape}")
    n, L = logits.shape[-2:]
    # softplus(z) - y*z, stabilized
    loss = _mean_per_client(np.logaddexp(0.0, logits) - targets * logits)
    grad = (_sigmoid(logits) - targets) / (n * L)
    return loss, grad


def _mean_per_client(m):
    """Mean over the two trailing axes: the whole matrix, or each stacked one.
    The sum and division are np.mean's own, without its per-call wrapper."""
    n, L = m.shape[-2:]
    return np.add.reduce(m.reshape(*m.shape[:-2], n * L), axis=-1) / (n * L)


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


# ---------------------------------------------------------------------------
# Importance estimation
# ---------------------------------------------------------------------------

def _importance(base: FrozenBase, adapters_at_anchor, x, logit_error,
                combine) -> ImportanceEstimate:
    """Mean over the samples of ``combine(g, h)`` per layer.

    For row-independent losses the per-sample gradient of layer ``l``'s dense
    update is the outer product of that sample's output-side error row ``g``
    and its input-side activation row ``h``, so elementwise statistics
    factorize and ``combine`` evaluates them without materializing each
    outer product. ``logit_error`` maps the logits to the error at the output.
    """
    x = as_matrix(x, "x")
    n = x.shape[0]
    if n == 0:
        raise InputError("empty shard")
    cache = _forward_cache(base.weights, base.biases, adapters_at_anchor, x)
    dz = logit_error(cache.hs[-1])
    stats = _backward(cache, dz, lambda l, g, _: combine(g, cache.hs[l]) / n)
    return ImportanceEstimate(tuple(stats))


def estimate_fim(base: FrozenBase, adapters_at_anchor, x, y,
                 task: str = "multiclass") -> ImportanceEstimate:
    """Diagonal Fisher proxy: mean squared per-sample dense-update gradient."""
    def logit_error(logits):
        if task == "multiclass":
            dz = softmax(logits)
            dz[np.arange(len(logits)), np.asarray(y)] -= 1.0
            return dz
        return _sigmoid(logits) - np.asarray(y, dtype=np.float64)

    return _importance(base, adapters_at_anchor, x, logit_error,
                       lambda g, h: np.einsum("ni,nj->ij", g ** 2, h ** 2))


def estimate_mas_importance(base: FrozenBase, adapters_at_anchor, x) -> ImportanceEstimate:
    """Update-magnitude importance: mean |gradient of squared output norm|."""
    return _importance(base, adapters_at_anchor, x, lambda logits: 2.0 * logits,
                       lambda g, h: np.einsum("ni,nj->ij", np.abs(g), np.abs(h)))


# ---------------------------------------------------------------------------
# Regularization penalties
# ---------------------------------------------------------------------------

def quadratic_penalty(adapters, anchor: DenseDelta,
                      importance: ImportanceEstimate, mu: float):
    """(mu/2) * sum I * (dense - anchor)^2 and its factor gradients.

    The EWC and MAS penalties share this form; they differ only in the
    importance matrices ``I`` (Fisher proxy vs. update magnitude). For a
    client-stacked set the importances are stacked per client as well.
    """
    items, _ = _layer_deltas(len(anchor), adapters)
    penalty = 0.0
    grads = []
    for (B, A), anchor_l, imp in zip(items, anchor, importance.matrices):
        diff = (B @ A) - anchor_l
        penalty += 0.5 * mu * np.sum(imp * diff * diff, axis=(-2, -1))
        d_dense = mu * imp * diff
        grads.append((d_dense @ A.swapaxes(-1, -2), B.swapaxes(-1, -2) @ d_dense))
    return penalty, grads


def lwf_penalty(base: FrozenBase, adapters_student, teacher,
                x, mu: float, temperature: float = 1.0,
                task: str = "multiclass", student: _Cache | None = None):
    """Distillation from the teacher configuration's logits (stop-gradient).

    ``teacher`` may be an AdapterSet or a dense per-layer update. The penalty
    is ``mu`` times the mean cross-entropy between teacher and student output
    distributions; gradients flow to the student adapters only. ``student``
    reuses a forward pass of ``adapters_student`` on ``x``.
    """
    t_logits = _forward_cache(base.weights, base.biases, teacher, x).hs[-1]
    if student is None:
        student = _forward_cache(base.weights, base.biases, adapters_student, x)
    s_logits = student.hs[-1]
    if t_logits.shape != s_logits.shape:
        raise ShapeError(
            f"teacher outputs {t_logits.shape} != student outputs {s_logits.shape}")
    tau = temperature
    n, L = s_logits.shape[-2:]
    if task == "multiclass":
        t = softmax(t_logits / tau)
        s_shift = s_logits / tau
        s_shift = s_shift - s_shift.max(axis=-1, keepdims=True)
        log_s = s_shift - np.log(np.exp(s_shift).sum(axis=-1, keepdims=True))
        penalty = mu * (np.add.reduce(-np.sum(t * log_s, axis=-1), axis=-1) / n)
        dz = mu * (softmax(s_logits / tau) - t) / (n * tau)
    else:
        t = _sigmoid(t_logits / tau)
        z = s_logits / tau
        penalty = mu * _mean_per_client(np.logaddexp(0.0, z) - t * z)
        dz = mu * (_sigmoid(z) - t) / (n * L * tau)
    return penalty, _factor_grads(student, dz)


# ---------------------------------------------------------------------------
# Combined local objective and the optimizer step
# ---------------------------------------------------------------------------

def total_local_loss(base: FrozenBase, adapters, x, y,
                     stability_anchor: DenseDelta | None,
                     plasticity_anchor: DenseDelta | None,
                     importance: ImportanceEstimate | None,
                     cl: CLConfig, task: str = "multiclass", counter=None):
    """Supervised loss plus stability and plasticity regularizers.

    An absent stability anchor (first phase) contributes nothing; zero
    strengths short-circuit so the disabled path is bit-identical to the
    supervised loss alone. Penalty gradients are added into the supervised
    ones in place.
    """
    student = _forward_cache(base.weights, base.biases, adapters, x, counter)
    loss, grads = supervised_loss_and_grads(base, adapters, x, y, task, counter,
                                            student=student)
    if cl.method == "none":
        return loss, grads

    def penalty(anchor, mu):
        if cl.method in ("ewc", "mas"):
            if importance is None:
                raise InputError(f"{cl.method} penalty requires importance estimates")
            return quadratic_penalty(adapters, anchor, importance, mu)
        return lwf_penalty(base, adapters, anchor, x, mu,
                           cl.lwf_temperature, task, student=student)

    for anchor, mu in ((stability_anchor, cl.mu1), (plasticity_anchor, cl.mu2)):
        if anchor is not None and mu > 0:
            p, g = penalty(anchor, mu)
            loss = loss + p
            for (gB, gA), (pB, pA) in zip(grads, g):
                gB += pB
                gA += pA
    return loss, grads


def sgd_step(adapters: AdapterSet, grads, eta: float, client_ids) -> None:
    """One gradient-descent step on every factor of a client-stacked set, in place.

    ``client_ids`` name the set's client slices in order. ``eta`` is not
    re-checked: ``LocalTrainConfig`` owns its rule. A non-finite gradient
    raises ``NumericError`` naming the first offending client and its first
    offending layer; the set is then left unchanged.
    """
    if not all(np.isfinite(gB).all() and np.isfinite(gA).all() for gB, gA in grads):
        for i, cid in enumerate(client_ids):
            for a, (gB, gA) in zip(adapters, grads):
                if not (np.isfinite(gB[i]).all() and np.isfinite(gA[i]).all()):
                    raise NumericError(
                        f"client {cid}: non-finite gradient at layer {a.layer_id}")
    for a, (gB, gA) in zip(adapters, grads):
        B, A = a.B, a.A
        B -= eta * gB
        A -= eta * gA


# ---------------------------------------------------------------------------
# Full-model path (FedAvg baseline: base weights trainable and transmitted)
# ---------------------------------------------------------------------------

def full_loss_and_grads(weights, biases, x, y, task: str = "multiclass",
                        counter=None):
    """Supervised loss and gradients w.r.t. every weight matrix and bias.

    Weights [h1, h2] and biases [h1] train one model on an [n, d] batch;
    weights [C, h1, h2] and biases [C, h1] train C client models on a
    client-stacked [C, n, d] batch.
    """
    cache = _forward_cache(weights, biases, None, x, counter)
    loss, dz = _task_loss(cache.hs[-1], y, task)

    def fold(l, dz, _):
        return _mm(dz.swapaxes(-1, -2), cache.hs[l], counter), dz.sum(axis=-2)

    w_grads, b_grads = zip(*_backward(cache, dz, fold, counter))
    return loss, w_grads, b_grads
