"""Client side of the protocol: local fine-tuning with the combined objective.

Each round a client copies the distributed global adapters, runs E epochs of
mini-batch SGD on its shard with the supervised loss plus the stability and
plasticity regularizers, and returns the updated adapters. All randomness
(mini-batch order) comes from a labeled sub-stream of the client's RNG keyed
by round and epoch, so results are independent of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, ParameterError, of_type, require_finite
from .lora import AdapterSet, DenseDelta
from .model import (CLConfig, FrozenBase, ImportanceEstimate, OpCounter, Walk,
                    estimate_fim, estimate_mas_importance, forward, sgd_step,
                    total_local_loss)
from .numerics import Rng


@dataclass
class ClientState:
    """One client's shard, random stream, and phase cache: the importances
    (EWC/MAS) or the stability teacher's logits on the shard (LwF), filled
    for the phase ``importance_phase`` by ``refresh_importances``.
    ``labels`` are the shard's training targets, shaped like the logits."""

    client_id: int
    features: np.ndarray
    labels: np.ndarray
    rng: Rng
    importance: ImportanceEstimate | None = None
    stability_logits: np.ndarray | None = None
    importance_phase: int | None = None

    def __post_init__(self):
        if len(self.features) == 0:
            raise InputError(f"client {self.client_id} has an empty shard")

    @property
    def shard_size(self) -> int:
        return len(self.features)


@dataclass(frozen=True)
class LocalTrainConfig:
    epochs: int
    eta: float
    batch_size: int
    round_index: int = 0
    cl: CLConfig = CLConfig()
    task: str = "multiclass"

    def __post_init__(self):
        self.check(self.epochs, self.eta, self.batch_size)

    @staticmethod
    def check(epochs, eta, batch_size, names=("local_epochs", "eta", "batch_size")) -> None:
        """The rule of SGD's settings, which pretraining shares: integral epochs
        >= 0, a finite real eta >= 0, integral batch_size >= 1, no bool. Each
        error names its setting by ``names``; pretraining's: ``PRETRAIN_SETTINGS``."""
        for name, v, kind in zip(names, (epochs, eta, batch_size), (int, float, int)):
            if not of_type(v, kind):
                raise ParameterError(f"{name} must be of type {kind.__name__}, got {v!r}")
        if not epochs >= 0:
            raise ParameterError(f"{names[0]} must be >= 0, got {epochs}")
        if not batch_size >= 1:
            raise ParameterError(f"{names[2]} must be >= 1, got {batch_size}")
        require_finite(names[1], eta, 0)


PRETRAIN_SETTINGS = ("pretrain_epochs", "pretrain_eta", "pretrain_batch")


def refresh_importances(state: ClientState, base: FrozenBase,
                        anchor_configuration, phase: int,
                        config: LocalTrainConfig) -> None:
    """Fill a client's phase cache once per (client, phase), at
    ``anchor_configuration`` (an AdapterSet or dense per-layer update): EWC
    and MAS importance matrices, or LwF's stability-teacher logits on the
    whole shard (None without an anchor or with ``mu1`` 0). Repeat calls
    within the same phase keep the cache unchanged.
    """
    if state.importance_phase == phase:
        return
    state.importance = state.stability_logits = None
    if config.cl.method == "ewc":
        state.importance = estimate_fim(base, anchor_configuration,
                                        state.features, state.labels, config.task)
    elif config.cl.method == "mas":
        state.importance = estimate_mas_importance(base, anchor_configuration,
                                                   state.features)
    elif (config.cl.method == "lwf" and anchor_configuration is not None
          and config.cl.mu1 > 0):
        state.stability_logits = forward(base, anchor_configuration, state.features)[0]
    state.importance_phase = phase


def sgd_epochs(step, x, y, batch_size: int, orders, *rows):
    """Mini-batch SGD, one epoch per sample order in ``orders``.

    ``step(epoch, xb, yb, *rows_b)`` takes one step on a mini-batch. With one
    model, ``x`` is [n, d] and each order is [n]; with shards stacked along a
    leading client axis, each order is [C, n]. Each of ``rows`` is a further
    per-row array laid out like ``x``, [n, ...] or [C, n, ...], or None,
    which stays None in its slot; ``rows_b`` are their rows of the mini-batch.
    Returns, per epoch, the list of what ``step`` returned for each
    mini-batch, in order.
    """
    n = x.shape[-2]
    clients = x.shape[0] if x.ndim == 3 else 1
    flat = [a if a is None else a.reshape(clients * n, *a.shape[x.ndim - 1:])
            for a in (x, y, *rows)]
    offsets = np.arange(0, clients * n, n)[:, np.newaxis] if x.ndim == 3 else 0
    results = []
    for epoch, order in enumerate(orders):
        flat_order = order + offsets
        steps = []
        for start in range(0, n, batch_size):
            idx = flat_order[..., start:start + batch_size]
            steps.append(step(epoch, *(a if a is None else a.take(idx, axis=0) for a in flat)))
        results.append(steps)
    return results


def _stacked_shards(states):
    """The group's features and labels, stacked along the client axis."""
    n = states[0].shard_size
    for s in states:
        if s.shard_size != n:
            raise InputError(f"client {s.client_id}: shard size {s.shard_size} "
                             f"!= group shard size {n}")
    return np.stack([s.features for s in states]), np.stack([s.labels for s in states])


def group_sgd(states, step, config: LocalTrainConfig, *rows, shards=None):
    """Run ``config.epochs`` epochs of ``step`` for a group of clients.

    ``states`` must have equal shard sizes; each epoch every client draws its
    own batch order from its stream's (round, epoch) sub-stream. ``step``
    trains the whole group on one stacked mini-batch, as ``sgd_epochs`` calls
    it, and returns its loss, one value per client; ``shards``, the group's
    stacked features and labels, are stacked here unless given. Returns each
    client's mean loss per epoch, in the order of ``states``.
    """
    features, labels = shards or _stacked_shards(states)
    n = features.shape[1]
    orders = (np.stack([s.rng.substream("round", config.round_index, "epoch",
                                        epoch, "shuffle").permutation(n)
                        for s in states])
              for epoch in range(config.epochs))
    # np.mean's own arithmetic, without its wrapper
    epoch_losses = [np.add.reduce(np.stack(losses, axis=-1), axis=-1) / len(losses)
                    for losses in sgd_epochs(step, features, labels,
                                             config.batch_size, orders, *rows)]
    return [[float(e[i]) for e in epoch_losses] for i in range(len(states))]


class _ClientStack:
    """A group's client-stacked training set, which the caller keeps across
    rounds: an ``aligned_params`` pair, the ``walk`` on ``params``, the
    gradient views ``out`` that it writes, and ``updates``, each client's
    trained set as views of ``params``, valid until the stack trains again.
    ``key`` is (client count, nominal rank or None): the caller builds a new
    stack for a group of another key, so at every drop."""

    def __init__(self, params, grads, walk, out, updates, rank=None):
        self.params, self.grads, self.walk, self.out = params, grads, walk, out
        self.updates, self.key, self.held = updates, (len(updates), rank), None

    def operands(self, states):
        """``(features, labels, importance, teacher)``, stacked along the
        client axis: the group's shards and its members' phase caches (each
        None unless every member has one), stacked again only when the
        members or their phases change."""
        held = [(s.client_id, s.importance_phase) for s in states]
        if held != self.held:
            importance = teacher = None
            if all(s.importance is not None for s in states):
                importance = ImportanceEstimate(tuple(
                    map(np.stack, zip(*(s.importance.matrices for s in states)))))
            if all(s.stability_logits is not None for s in states):
                teacher = np.stack([s.stability_logits for s in states])
            self.stacked, self.held = (*_stacked_shards(states), importance, teacher), held
        return self.stacked


def adapter_stack(base: FrozenBase, adapters: AdapterSet, clients: int) -> _ClientStack:
    """A stack of ``clients`` copies of ``adapters`` on ``base``, for ``local_train``."""
    stacked, params, grads = adapters.stacked(clients)
    return _ClientStack(params, grads, Walk(base.weights, base.biases, stacked),
                        list(zip(grads.views[::2], grads.views[1::2])),
                        [stacked.client(i) for i in range(clients)], adapters.nominal_rank)


def local_train(states, base: FrozenBase, global_adapters: AdapterSet,
                stability_anchor: DenseDelta | None, config: LocalTrainConfig,
                counter: OpCounter | None = None, stack: _ClientStack | None = None):
    """Run E local epochs for a group of clients from the distributed adapters.

    ``states`` are clients with equal shard sizes; a single client is a group
    of one. The plasticity anchor is the incoming global adapters, held fixed
    for the whole round. The group trains in ``stack``, an ``adapter_stack``
    of its client count and rank kept across rounds, into which the global
    adapters are loaded, or else in a fresh one. Returns ``(adapters,
    epoch_losses)``: per client, in the order of ``states``, the resulting
    AdapterSet, a view of the stack valid until it trains again, and the mean
    total loss of each epoch.
    """
    ids = [s.client_id for s in states]
    stack = stack or adapter_stack(base, global_adapters, len(states))
    if stack.key != (len(states), global_adapters.nominal_rank):
        raise ParameterError(f"a stack of (clients, rank) {stack.key} cannot train "
                             f"{len(states)} clients at rank {global_adapters.nominal_rank}")
    stack.params.load(m for a in global_adapters for m in (a.B, a.A))
    walk, out, params, grads = stack.walk, stack.out, stack.params, stack.grads
    walk.counter = counter
    cl = config.cl
    *shards, importance, teacher = stack.operands(states)
    stability, plasticity, rows = stability_anchor, None, []
    if cl.active and config.epochs > 0:
        if cl.method != "lwf":
            plasticity = global_adapters.dense() if cl.mu2 > 0 else None
        else:
            taught = stability_anchor is not None and cl.mu1 > 0
            if taught and teacher is None:
                lacking = next(s.client_id for s in states if s.stability_logits is None)
                raise InputError(f"client {lacking}: the LwF stability term needs the "
                                 f"teacher's logits that refresh_importances caches")
            stability = teacher if taught else None
            plasticity = (np.stack([forward(base, global_adapters, s.features)[0]
                                    for s in states]) if cl.mu2 > 0 else None)
            rows = [stability, plasticity]

    def step(epoch, x, y, *teachers):
        # LwF: the teachers' logits for this batch, an absent one None in its slot
        anchors = teachers or (stability, plasticity)
        loss, _ = total_local_loss(walk, x, y, *anchors, importance, cl, config.task, out)
        finite = np.isfinite(loss)
        if not finite.all():
            raise NumericError(
                f"client {ids[int(np.argmin(finite))]}: non-finite loss at "
                f"round {config.round_index}, epoch {epoch}"
            )
        sgd_step(params, grads, config.eta, ids)
        return loss

    epoch_losses = group_sgd(states, step, config, *rows, shards=shards)
    return list(stack.updates), epoch_losses
