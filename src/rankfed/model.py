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
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvariantError, NumericError, ParameterError, ShapeError
from .lora import AdapterSet, DenseDelta, LoRAAdapter
from .numerics import Matrix, Rng, as_matrix, softmax, softmax_cross_entropy


class OpCounter:
    """Accumulates multiply counts for the training-path matrix products."""

    def __init__(self):
        self.multiplies = 0

    def add(self, n: int):
        self.multiplies += int(n)


def _count(counter, n):
    if counter is not None:
        counter.add(n)


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

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

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


@dataclass(frozen=True)
class CLConfig:
    """Continual-learning regularizer selection and strengths."""

    method: str = "none"  # one of: none, ewc, mas, lwf
    mu1: float = 0.0      # stability strength (anchor = accumulated global)
    mu2: float = 0.0      # plasticity strength (anchor = current global)
    lwf_temperature: float = 1.0

    def __post_init__(self):
        if self.method not in ("none", "ewc", "mas", "lwf"):
            raise ParameterError(f"unknown CL method: {self.method}")
        if self.mu1 < 0 or self.mu2 < 0:
            raise ParameterError("regularization strengths must be >= 0")
        if self.lwf_temperature <= 0:
            raise ParameterError("temperature must be positive")

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

def _layer_deltas(n: int, adapters):
    """Normalize the adapter argument: AdapterSet, dense per-layer list, or None."""
    if adapters is None:
        return [None] * n, None
    if isinstance(adapters, AdapterSet):
        if len(adapters) != n:
            raise ShapeError(f"adapter count {len(adapters)} != layer count {n}")
        return list(adapters.adapters), "factor"
    if len(adapters) != n:
        raise ShapeError(f"dense delta count {len(adapters)} != layer count {n}")
    return [as_matrix(d, "delta") for d in adapters], "dense"


class _Cache:
    __slots__ = ("hs", "hA", "kind", "items")

    def __init__(self, hs, hA, kind, items):
        self.hs = hs        # post-activation per layer, hs[0] = input
        self.hA = hA        # cached h @ A.T per layer (factor path only)
        self.kind = kind
        self.items = items


def _forward_cache(weights, biases, adapters, x: Matrix, counter=None) -> _Cache:
    """Forward pass over the layer stack ``weights``/``biases`` (the frozen
    base, or the trainable weights of the full-model path) plus adapters."""
    n_layers = len(weights)
    items, kind = _layer_deltas(n_layers, adapters)
    x = as_matrix(x, "x")
    if x.shape[1] != weights[0].shape[1]:
        raise ShapeError(f"input dim {x.shape[1]} != base input dim {weights[0].shape[1]}")
    h = x
    hs = [x]
    hA = [None] * n_layers
    n = x.shape[0]
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w.T + b
        _count(counter, n * w.shape[0] * w.shape[1])
        item = items[l]
        if kind == "factor" and item is not None:
            ha = h @ item.A.T
            z = z + ha @ item.B.T
            _count(counter, n * item.rank * (item.in_dim + item.out_dim))
            hA[l] = ha
        elif kind == "dense" and item is not None:
            z = z + h @ item.T
            _count(counter, n * item.shape[0] * item.shape[1])
        h = np.tanh(z) if l < n_layers - 1 else z
        hs.append(h)
    return _Cache(hs, hA, kind, items)


def forward(base: FrozenBase, adapters, x: Matrix, counter=None):
    """Logits and the per-layer post-activation representations."""
    cache = _forward_cache(base.weights, base.biases, adapters, x, counter)
    return cache.hs[-1], cache.hs[1:]


def _backward_factor(base: FrozenBase, adapters: AdapterSet, cache: _Cache,
                     dz_last: Matrix, counter=None):
    """Gradients w.r.t. (B, A) per layer for a loss with logit gradient dz_last."""
    grads = [None] * base.num_layers
    dz = dz_last
    n = dz.shape[0]
    for l in reversed(range(base.num_layers)):
        h_prev = cache.hs[l]
        a = cache.items[l]
        dzB = dz @ a.B
        gB = dz.T @ cache.hA[l]
        gA = dzB.T @ h_prev
        _count(counter, n * a.rank * (2 * a.out_dim + a.in_dim))
        grads[l] = (gB, gA)
        if l > 0:
            dh = dz @ base.weights[l] + dzB @ a.A
            _count(counter, n * a.out_dim * a.in_dim + n * a.rank * a.in_dim)
            dz = dh * (1.0 - cache.hs[l] ** 2)
    return grads


def _backward_per_sample_stats(base: FrozenBase, cache: _Cache, dz0: Matrix,
                               combine):
    """Fold per-sample dense-update gradients layer by layer.

    For row-independent losses the per-sample gradient of the dense update of
    layer ``l`` is the outer product of that sample's logit-side error row and
    its input-side activation row, so elementwise statistics factorize and
    ``combine(dz, h_prev)`` can evaluate them without materializing each outer
    product.
    """
    stats = [None] * base.num_layers
    dz = dz0
    for l in reversed(range(base.num_layers)):
        h_prev = cache.hs[l]
        stats[l] = combine(dz, h_prev)
        if l > 0:
            item = cache.items[l]
            w_eff = base.weights[l]
            if cache.kind == "factor" and item is not None:
                dh = dz @ w_eff + (dz @ item.B) @ item.A
            elif cache.kind == "dense" and item is not None:
                dh = dz @ (w_eff + item)
            else:
                dh = dz @ w_eff
            dz = dh * (1.0 - cache.hs[l] ** 2)
    return stats


def supervised_loss_and_grads(base: FrozenBase, adapters: AdapterSet, x, y,
                              task: str = "multiclass", counter=None):
    """Mean supervised loss and analytic adapter-factor gradients."""
    x = as_matrix(x, "x")
    if x.shape[0] == 0:
        raise InputError("empty batch")
    cache = _forward_cache(base.weights, base.biases, adapters, x, counter)
    logits = cache.hs[-1]
    if task == "multiclass":
        loss, dz = softmax_cross_entropy(logits, y)
    elif task == "multilabel":
        loss, dz = _binary_cross_entropy(logits, y)
    else:
        raise ParameterError(f"unknown task: {task}")
    grads = _backward_factor(base, adapters, cache, dz, counter)
    return loss, grads


def _binary_cross_entropy(logits: Matrix, targets):
    """Mean per-label sigmoid cross-entropy and its logit gradient."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != logits.shape:
        raise ShapeError(f"targets shape {targets.shape} != logits shape {logits.shape}")
    n, L = logits.shape
    # softplus(z) - y*z, stabilized
    loss = float(np.mean(np.logaddexp(0.0, logits) - targets * logits))
    grad = (_sigmoid(logits) - targets) / (n * L)
    return loss, grad


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


# ---------------------------------------------------------------------------
# Importance estimation
# ---------------------------------------------------------------------------

def estimate_fim(base: FrozenBase, adapters_at_anchor, x, y,
                 task: str = "multiclass") -> ImportanceEstimate:
    """Diagonal Fisher proxy: mean squared per-sample dense-update gradient."""
    x = as_matrix(x, "x")
    n = x.shape[0]
    if n == 0:
        raise InputError("empty shard")
    cache = _forward_cache(base.weights, base.biases, adapters_at_anchor, x)
    logits = cache.hs[-1]
    if task == "multiclass":
        dz = softmax(logits)
        dz[np.arange(n), np.asarray(y)] -= 1.0
    else:
        dz = _sigmoid(logits) - np.asarray(y, dtype=np.float64)
    stats = _backward_per_sample_stats(
        base, cache, dz,
        lambda g, h: np.einsum("ni,nj->ij", g ** 2, h ** 2) / n,
    )
    return ImportanceEstimate(tuple(stats))


def estimate_mas_importance(base: FrozenBase, adapters_at_anchor, x,
                            y=None) -> ImportanceEstimate:
    """Update-magnitude importance: mean |gradient of squared output norm|."""
    x = as_matrix(x, "x")
    n = x.shape[0]
    if n == 0:
        raise InputError("empty shard")
    cache = _forward_cache(base.weights, base.biases, adapters_at_anchor, x)
    dz = 2.0 * cache.hs[-1]
    stats = _backward_per_sample_stats(
        base, cache, dz,
        lambda g, h: np.einsum("ni,nj->ij", np.abs(g), np.abs(h)) / n,
    )
    return ImportanceEstimate(tuple(stats))


# ---------------------------------------------------------------------------
# Regularization penalties
# ---------------------------------------------------------------------------

def quadratic_penalty(adapters: AdapterSet, anchor: DenseDelta,
                      importance: ImportanceEstimate, mu: float):
    """(mu/2) * sum I * (dense - anchor)^2 and its factor gradients.

    The EWC and MAS penalties share this form; they differ only in the
    importance matrices ``I`` (Fisher proxy vs. update magnitude).
    """
    penalty = 0.0
    grads = []
    for a, anchor_l, imp in zip(adapters, anchor, importance.matrices):
        diff = (a.B @ a.A) - anchor_l
        penalty += 0.5 * mu * float(np.sum(imp * diff * diff))
        d_dense = mu * imp * diff
        grads.append((d_dense @ a.A.T, a.B.T @ d_dense))
    return penalty, grads


def lwf_penalty(base: FrozenBase, adapters_student: AdapterSet, teacher,
                x, mu: float, temperature: float = 1.0,
                task: str = "multiclass"):
    """Distillation from the teacher configuration's logits (stop-gradient).

    ``teacher`` may be an AdapterSet or a dense per-layer update. The penalty
    is ``mu`` times the mean cross-entropy between teacher and student output
    distributions; gradients flow to the student adapters only.
    """
    x = as_matrix(x, "x")
    n = x.shape[0]
    if n == 0:
        raise InputError("empty batch")
    t_logits, _ = forward(base, teacher, x)
    cache = _forward_cache(base.weights, base.biases, adapters_student, x)
    s_logits = cache.hs[-1]
    if t_logits.shape != s_logits.shape:
        raise ShapeError(
            f"teacher outputs {t_logits.shape} != student outputs {s_logits.shape}"
        )
    tau = temperature
    if task == "multiclass":
        t = softmax(t_logits / tau)
        s_shift = s_logits / tau
        s_shift = s_shift - s_shift.max(axis=1, keepdims=True)
        log_s = s_shift - np.log(np.exp(s_shift).sum(axis=1, keepdims=True))
        penalty = mu * float(np.mean(-np.sum(t * log_s, axis=1)))
        dz = mu * (softmax(s_logits / tau) - t) / (n * tau)
    else:
        L = s_logits.shape[1]
        t = _sigmoid(t_logits / tau)
        z = s_logits / tau
        penalty = mu * float(np.mean(np.logaddexp(0.0, z) - t * z))
        dz = mu * (_sigmoid(z) - t) / (n * L * tau)
    grads = _backward_factor(base, adapters_student, cache, dz)
    return penalty, grads


# ---------------------------------------------------------------------------
# Combined local objective and the optimizer step
# ---------------------------------------------------------------------------

def add_grads(g1, g2):
    return [(b1 + b2, a1 + a2) for (b1, a1), (b2, a2) in zip(g1, g2)]


def total_local_loss(base: FrozenBase, adapters: AdapterSet, x, y,
                     stability_anchor: DenseDelta | None,
                     plasticity_anchor: DenseDelta | None,
                     importance: ImportanceEstimate | None,
                     cl: CLConfig, task: str = "multiclass", counter=None):
    """Supervised loss plus stability and plasticity regularizers.

    An absent stability anchor (first phase) contributes nothing; zero
    strengths short-circuit so the disabled path is bit-identical to the
    supervised loss alone.
    """
    loss, grads = supervised_loss_and_grads(base, adapters, x, y, task, counter)
    if cl.method == "none":
        return loss, grads

    def penalty(anchor, mu):
        if cl.method in ("ewc", "mas"):
            if importance is None:
                raise InputError(f"{cl.method} penalty requires importance estimates")
            return quadratic_penalty(adapters, anchor, importance, mu)
        return lwf_penalty(base, adapters, anchor, x, mu,
                           cl.lwf_temperature, task)

    if stability_anchor is not None and cl.mu1 > 0:
        p, g = penalty(stability_anchor, cl.mu1)
        loss += p
        grads = add_grads(grads, g)
    if plasticity_anchor is not None and cl.mu2 > 0:
        p, g = penalty(plasticity_anchor, cl.mu2)
        loss += p
        grads = add_grads(grads, g)
    return loss, grads


def sgd_step(adapters: AdapterSet, grads, eta: float) -> AdapterSet:
    """One gradient-descent step on every adapter factor."""
    if eta < 0:
        raise ParameterError(f"learning rate must be >= 0, got {eta}")
    updated = []
    for a, (gB, gA) in zip(adapters, grads):
        if not (np.all(np.isfinite(gB)) and np.all(np.isfinite(gA))):
            raise NumericError(f"non-finite gradient at layer {a.layer_id}")
        updated.append(LoRAAdapter(a.layer_id, a.B - eta * gB, a.A - eta * gA))
    return AdapterSet(tuple(updated), adapters.nominal_rank)


# ---------------------------------------------------------------------------
# Full-model path (FedAvg baseline: base weights trainable and transmitted)
# ---------------------------------------------------------------------------

def full_loss_and_grads(weights, biases, x, y, task: str = "multiclass",
                        counter=None):
    """Supervised loss and gradients w.r.t. every weight matrix and bias."""
    x = as_matrix(x, "x")
    n = x.shape[0]
    if n == 0:
        raise InputError("empty batch")
    hs = _forward_cache(weights, biases, None, x, counter).hs
    L = len(weights)
    logits = hs[-1]
    if task == "multiclass":
        loss, dz = softmax_cross_entropy(logits, y)
    else:
        loss, dz = _binary_cross_entropy(logits, y)
    w_grads, b_grads = [None] * L, [None] * L
    for l in reversed(range(L)):
        w_grads[l] = dz.T @ hs[l]
        b_grads[l] = dz.sum(axis=0)
        _count(counter, n * weights[l].shape[0] * weights[l].shape[1])
        if l > 0:
            dh = dz @ weights[l]
            _count(counter, n * weights[l].shape[0] * weights[l].shape[1])
            dz = dh * (1.0 - hs[l] ** 2)
    return loss, w_grads, b_grads
