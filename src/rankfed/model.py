"""Frozen-base MLP classifier with trainable low-rank adapters.

The base is a stack of linear layers (tanh hidden activations, linear output)
whose weights are never updated after pretraining. Adapters add a dense
update ``B @ A`` to each layer's weight. All gradients here are analytic and
flow to the adapter factors only (or, for the full-model baseline, to the
base weights themselves). EWC and MAS anchor to the dense product ``B @ A``,
so that anchors computed at one rank remain comparable after a rank change.

A batch is [n, d] for one client or [C, n, d] for a client-stacked group
(with a client-stacked ``AdapterSet``, or full-model weights [C, h1, h2]).
Each client's slice of a stacked result equals, bit for bit, what the same
call computes for that client alone; losses and penalties come back as one
value per client. A gradient function given ``out``, laid out as it returns
its gradients, writes them there; without it, it allocates them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import (InputError, InvariantError, NumericError, ParameterError,
                     ShapeError, require_finite)
from .lora import AdapterSet, DenseDelta
from .numerics import (Flat, Matrix, Rng, _softmax_terms, as_matrix, logit_error, sigmoid,
                       softmax, softmax_cross_entropy)


@dataclass
class OpCounter:
    """Accumulates multiply counts for the training-path matrix products: a
    walk given one counts its forward passes and its backward walks."""

    multiplies: int = 0


def _mm(a, b, counter=None, out=None):
    """``a @ b`` (into ``out``), adding its ``a.size * b.shape[-1]`` multiplies
    to ``counter`` when one is given. The count is exact when ``b`` has no
    leading client axis that ``a`` lacks, as in every training product."""
    if counter is not None:
        counter.multiplies += a.size * b.shape[-1]
    return a @ b if out is None else np.matmul(a, b, out=out)


@dataclass(frozen=True)
class FrozenBase:
    """Immutable linear stack: weights[l] is [h1, h2], mapping h2 -> h1, and
    biases[l] is [h1]; at least one layer, each at least one wide, each
    taking the previous layer's output. Each array, and the array it views
    if any, becomes read-only."""

    weights: tuple
    biases: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "biases", tuple(self.biases))
        if not self.weights or len(self.weights) != len(self.biases):
            raise ShapeError(f"a base needs a layer and a bias per weight, got "
                             f"{len(self.weights)} weights, {len(self.biases)} biases")
        width = np.shape(self.weights[0])[-1:]  # the input's
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            shape = np.shape(w)
            if len(shape) != 2 or 0 in shape or shape[1:] != width or np.shape(b) != shape[:1]:
                raise ShapeError(f"layer {l}: weight {shape} and bias {np.shape(b)} do not "
                                 f"fit {width} inputs")
            width = shape[:1]
        for a in (*self.weights, *self.biases):
            while isinstance(a, np.ndarray):  # a view's owner is a path to it
                a.flags.writeable = False
                a = a.base

    def layer_shapes(self):
        return [w.shape for w in self.weights]

    def checksum(self) -> str:
        h = hashlib.sha256()
        for w, b in zip(self.weights, self.biases):
            h.update(np.ascontiguousarray(w).tobytes())
            h.update(np.ascontiguousarray(b).tobytes())
        return h.hexdigest()


def random_base(layer_dims, rng: Rng) -> FrozenBase:
    """Gaussian base weights (std = 1/sqrt(fan_in)), zero biases."""
    if min(layer_dims, default=0) < 1:
        raise ShapeError(f"layer widths must be >= 1, got {list(layer_dims)}")
    weights, biases = [], []
    for l in range(len(layer_dims) - 1):
        h2, h1 = layer_dims[l], layer_dims[l + 1]
        weights.append(rng.substream("base-init", l).normal(h1, h2, 1.0 / np.sqrt(h2)))
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
        matrices = tuple(np.asarray(m, dtype=np.float64) for m in self.matrices)
        object.__setattr__(self, "matrices", matrices)
        for m in matrices:
            if not (np.isfinite(m).all() and (m >= 0).all()):
                raise InvariantError("importance entries must be finite and nonnegative")


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


class Walk:
    """The forward pass and backward walk over the layer stack ``weights``/
    ``biases`` (the frozen base, or the full-model path's trainable weights)
    plus ``adapters``: ``(B, A)`` factor pairs from an AdapterSet
    (client-stacked or not), dense updates from a per-layer list, or none. A
    training loop builds one per trained set and passes it to every step's
    loss-and-gradient call: every descent updates the set in place, so the
    views held here stay valid. ``counter`` counts both passes' products."""

    __slots__ = ("adapters", "items", "kind", "counter", "wT", "rows", "itemsT", "weights",
                 "hs", "hA")

    def __init__(self, weights, biases, adapters=None, counter=None):
        n, self.kind, self.counter = len(weights), None, counter
        self.adapters = adapters
        self.items = [None] * n
        if isinstance(adapters, AdapterSet):
            self.items, self.kind = [(a.B, a.A) for a in adapters], "factor"
        elif adapters is not None:
            self.items, self.kind = [as_matrix(d, "delta") for d in adapters], "dense"
        if len(self.items) != n:
            raise ShapeError(f"{self.kind} layer count {len(self.items)} != layer count {n}")
        for l, (w, item) in enumerate(zip(weights, self.items)):
            if item is None:
                continue
            shape = (item[0].shape[-2], item[1].shape[-1]) if self.kind == "factor" else item.shape
            if shape != w.shape[-2:]:
                raise ShapeError(f"layer {l}: {self.kind} update shape {shape} != "
                                 f"weight shape {w.shape[-2:]}")
        self.wT = [w.swapaxes(-1, -2) for w in weights]
        self.rows = [b[..., np.newaxis, :] for b in biases]
        self.itemsT = [tuple(m.swapaxes(-1, -2) for m in item) if self.kind == "factor"
                       else item.swapaxes(-1, -2) for item in self.items if item is not None]
        self.weights = weights

    def forward(self, x, z0=None):
        """The logits of batch ``x``, each layer in one buffer, keeping the
        activations for ``backward``. ``z0`` is as ``forward`` takes it."""
        x = _as_batch(x)
        if self.kind == "factor" and self.items[0][0].ndim > x.ndim:  # the sums are in place
            raise ShapeError("a client-stacked adapter set needs a client-stacked batch")
        if x.shape[-1] != self.wT[0].shape[-2]:
            raise ShapeError(f"input dim {x.shape[-1]} != base input dim {self.wT[0].shape[-2]}")
        c, last = self.counter, len(self.wT) - 1
        h, self.hs, self.hA = x, [x], []  # post-activations (hs[0] = x); h @ A.T
        for l, wT in enumerate(self.wT):
            if l == 0 and z0 is not None:
                z = z0.copy()
            else:
                z = _mm(h, wT, c)
                z += self.rows[l]
            if self.kind == "factor":
                BT, AT = self.itemsT[l]
                self.hA.append(_mm(h, AT, c))
                z += _mm(self.hA[l], BT, c)
            elif self.kind == "dense":
                z += _mm(h, self.itemsT[l], c)
            h = np.tanh(z, out=z) if l < last else z
            self.hs.append(h)
        return h

    def backward(self, dz, out=None, combine=None):
        """Carry the logit error ``dz`` of the last forward pass back through
        every layer, last to first, and return per layer, in layer order,
        ``combine(error, input)`` when given, else the factor gradients
        ``(dB, dA)``, or without adapters the weight and bias gradients. Given
        ``out`` (per layer, laid out as the result), it writes them there."""
        hs, hA, items, c = self.hs, self.hA, self.items, self.counter
        factor = self.kind == "factor"
        grads = [None] * len(self.weights)
        for l in reversed(range(len(grads))):
            h = hs[l]
            dzB = _mm(dz, items[l][0], c) if factor else None
            if combine is not None:
                grads[l] = combine(dz, h)
            else:
                g1, g2 = (None, None) if out is None else out[l]
                grads[l] = (_mm(dz.swapaxes(-1, -2), hA[l] if factor else h, c, g1),
                            _mm(dzB.swapaxes(-1, -2), h, c, g2) if factor
                            else np.add.reduce(dz, axis=-2, out=g2))
            if l > 0:
                w = self.weights[l]
                dh = _mm(dz, w + items[l] if self.kind == "dense" else w, c)
                if factor:
                    dh += _mm(dzB, items[l][1], c)
                slope = h ** 2  # tanh's 1 - h^2, in one buffer
                np.subtract(1.0, slope, out=slope)
                dh *= slope
                dz = dh
        return grads


def base_preactivation(base: FrozenBase, x: Matrix) -> np.ndarray:
    """Layer 0's base pre-activation ``x @ W0.T + b0``, formed as the forward
    pass forms it, read-only: for a batch that ``forward`` runs many times."""
    z0 = _mm(_as_batch(x), base.weights[0].swapaxes(-1, -2))
    z0 += base.biases[0][..., np.newaxis, :]
    z0.flags.writeable = False
    return z0


def forward(base: FrozenBase, adapters, x: Matrix, z0=None):
    """Logits and the per-layer post-activation representations. ``z0`` is
    ``base_preactivation(base, x)``, or None to form it here."""
    walk = Walk(base.weights, base.biases, adapters)
    return walk.forward(x, z0), walk.hs[1:]


def _task_loss(logits, y, task: str):
    """Mean supervised loss (one per client when stacked) and its logit
    gradient. ``y`` holds targets shaped like the logits, as
    ``harness._training_targets`` forms them."""
    if task == "multiclass":
        return softmax_cross_entropy(logits, y)
    if task == "multilabel":
        grad = _mean_loss_gradient(logits, y, task)  # checks the targets first
        return _binary_cross_entropy(logits, y), grad
    raise ParameterError(f"unknown task: {task}")


def _mean_loss_gradient(logits, y, task: str):
    """The logit gradient of the task's mean loss, the one ``_task_loss``
    returns: the logit error over the number of terms the mean averages (the
    n rows, or the n x L labels of a multilabel batch)."""
    dz = logit_error(logits, y, task)
    n, L = dz.shape[-2:]
    dz /= n if task == "multiclass" else n * L
    return dz


def supervised_loss_and_grads(walk: Walk, x, y, task: str = "multiclass", out=None):
    """Mean supervised loss and the analytic gradients ``walk.backward``
    returns: the adapter-factor gradients, or without adapters the weight and
    bias gradients. A client-stacked walk takes a client-stacked batch."""
    loss, dz = _task_loss(walk.forward(x), y, task)
    return loss, walk.backward(dz, out)


def full_grads(walk: Walk, x, y, task: str = "multiclass", out=None):
    """The gradients ``supervised_loss_and_grads`` returns, bit for bit,
    without forming the loss."""
    return walk.backward(_mean_loss_gradient(walk.forward(x), y, task), out)


def _binary_cross_entropy(logits, targets):
    """Mean per-label sigmoid cross-entropy, one value per client when
    stacked; ``targets`` may be soft. The mean over the two trailing axes sums
    and divides as np.mean does, without its per-call wrapper."""
    m = np.logaddexp(0.0, logits) - targets * logits  # softplus(z) - y*z, stabilized
    n, L = m.shape[-2:]
    return np.add.reduce(m.reshape(*m.shape[:-2], n * L), axis=-1) / (n * L)


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
    walk = Walk(base.weights, base.biases, adapters_at_anchor)
    stats = walk.backward(logit_error(walk.forward(x)), combine=combine)
    return ImportanceEstimate(tuple(s / n for s in stats))


def estimate_fim(base: FrozenBase, adapters_at_anchor, x, y,
                 task: str = "multiclass") -> ImportanceEstimate:
    """Diagonal Fisher proxy: mean squared per-sample dense-update gradient.
    ``y`` holds the task's targets, shaped like the logits, as the loss
    takes them."""
    return _importance(base, adapters_at_anchor, x,
                       lambda logits: logit_error(logits, y, task),
                       lambda g, h: np.einsum("ni,nj->ij", g ** 2, h ** 2))


def estimate_mas_importance(base: FrozenBase, adapters_at_anchor, x) -> ImportanceEstimate:
    """Update-magnitude importance: mean |gradient of squared output norm|."""
    return _importance(base, adapters_at_anchor, x, lambda logits: 2.0 * logits,
                       lambda g, h: np.einsum("ni,nj->ij", np.abs(g), np.abs(h)))


# ---------------------------------------------------------------------------
# Regularization penalties
# ---------------------------------------------------------------------------

def quadratic_penalty(adapters, terms, importance: ImportanceEstimate):
    """(mu/2) * sum I * (dense - anchor)^2 and its factor gradients for each
    (anchor, mu) of ``terms``, in order: [(penalty, [(dB, dA) per layer])],
    each layer's ``B @ A`` formed once for all terms. The EWC and MAS
    penalties share this form; they differ only in the importances ``I``
    (Fisher proxy vs. update magnitude), shaped like the dense updates."""
    items = [(a.B, a.A) for a in adapters]
    n = len(items)
    for what, m in [("importance", len(importance.matrices)),
                    *(("anchor", len(anchor)) for anchor, _ in terms)]:
        if m != n:
            raise ShapeError(f"{what} holds {m} matrices for {n} layers: "
                             f"layer {min(m, n)} is unmatched")
    penalties = [0.0] * len(terms)
    grads = [[] for _ in terms]
    for l, ((B, A), imp) in enumerate(zip(items, importance.matrices)):
        if imp.shape != B.shape[:-1] + A.shape[-1:]:
            raise ShapeError(f"layer {l}: importance shape {imp.shape} != dense "
                             f"shape {B.shape[:-1] + A.shape[-1:]}")
        dense = B @ A
        for t, (anchor, mu) in enumerate(terms):
            diff = dense - anchor[l]
            q = imp * diff
            q *= diff
            penalties[t] += 0.5 * mu * np.add.reduce(q, axis=(-2, -1))
            d_dense = mu * imp
            d_dense *= diff
            grads[t].append((d_dense @ A.swapaxes(-1, -2), B.swapaxes(-1, -2) @ d_dense))
    return list(zip(penalties, grads))


def lwf_penalty(t_logits, s_logits, mu: float, temperature: float = 1.0,
                task: str = "multiclass"):
    """Distillation of the student's logits toward the teacher's.

    The penalty is ``mu`` times the mean cross-entropy between the teacher's
    and the student's output distributions at ``temperature``; the teacher's
    logits are a stop-gradient target. Returns it with its gradient at the
    student's logits.
    """
    if t_logits.shape != s_logits.shape:
        raise ShapeError(
            f"teacher outputs {t_logits.shape} != student outputs {s_logits.shape}")
    tau = temperature
    n, L = s_logits.shape[-2:]
    if task == "multiclass":  # each step in place, in the textbook expression's order
        t = softmax(t_logits / tau)
        dz, log_s, total = _softmax_terms(s_logits / tau)
        log_s -= np.log(total)
        log_s *= t
        rows = np.add.reduce(log_s, axis=-1)
        penalty = mu * (np.add.reduce(np.negative(rows, out=rows), axis=-1) / n)
        dz -= t
        dz *= mu
        dz /= n * tau
    else:
        t = sigmoid(t_logits / tau)
        z = s_logits / tau
        penalty = mu * _binary_cross_entropy(z, t)
        dz = mu * logit_error(z, t, task) / (n * L * tau)
    return penalty, dz


# ---------------------------------------------------------------------------
# Combined local objective and the optimizer step
# ---------------------------------------------------------------------------

def total_local_loss(walk: Walk, x, y,
                     stability_anchor: DenseDelta | np.ndarray | None,
                     plasticity_anchor: DenseDelta | np.ndarray | None,
                     importance: ImportanceEstimate | None,
                     cl: CLConfig, task: str = "multiclass", out=None):
    """Supervised loss plus stability and plasticity regularizers, with the
    gradients at the factors of the AdapterSet ``walk`` was built on.

    An absent stability anchor (first phase) contributes nothing; zero
    strengths short-circuit so the disabled path is bit-identical to the
    supervised loss alone. For LwF the anchors are the teachers' logits on
    this batch's rows; the distillation errors, stability then plasticity,
    are added to the supervised one at the logits and walked back once.
    """
    terms = [(anchor, mu) for anchor, mu in ((stability_anchor, cl.mu1),
                                             (plasticity_anchor, cl.mu2))
             if cl.method != "none" and anchor is not None and mu > 0]
    if cl.method == "lwf":
        logits = walk.forward(x)
        loss, dz = _task_loss(logits, y, task)
        for t_logits, mu in terms:
            p, dz_p = lwf_penalty(t_logits, logits, mu, cl.lwf_temperature, task)
            loss = loss + p
            dz = dz + dz_p
        return loss, walk.backward(dz, out)
    loss, grads = supervised_loss_and_grads(walk, x, y, task, out)
    if not terms:
        return loss, grads
    if importance is None:
        raise InputError(f"{cl.method} penalty requires importance estimates")
    if walk.kind != "factor":
        raise ParameterError(f"{cl.method} penalty requires a walk built on an AdapterSet")
    for p, g in quadratic_penalty(walk.adapters, terms, importance):
        loss = loss + p
        for (gB, gA), (pB, pA) in zip(grads, g):
            gB += pB
            gA += pA
    return loss, grads


def sgd_step(params: Flat, grads: Flat, eta: float, client_ids) -> None:
    """One gradient-descent step on a client-stacked factor set, in place;
    it scales ``grads`` in place. ``params`` and ``grads`` are the set's
    ``aligned_params`` pair, views B, A per layer; ``client_ids`` name the
    client slices in order. A non-finite gradient raises ``NumericError``
    naming the first offending client and its first offending layer; the set
    is then left unchanged. ``eta`` is not re-checked: ``LocalTrainConfig``
    owns it.
    """
    if not np.isfinite(grads.buf).all():
        pairs = list(zip(grads.views[::2], grads.views[1::2]))
        for i, cid in enumerate(client_ids):
            for lid, (gB, gA) in enumerate(pairs):
                if not (np.isfinite(gB[i]).all() and np.isfinite(gA[i]).all()):
                    raise NumericError(
                        f"client {cid}: non-finite gradient at layer {lid}")
    _descend(params.buf, grads.buf, eta)


def _descend(buf, grad_buf, eta) -> None:
    """``buf -= eta * grad_buf`` in place, scaling the gradients in place."""
    buf -= np.multiply(grad_buf, eta, out=grad_buf)
