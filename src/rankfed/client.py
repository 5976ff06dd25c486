"""Client side of the protocol: local fine-tuning with the combined objective.

Each round a client copies the distributed global adapters, runs E epochs of
mini-batch SGD on its shard with the supervised loss plus the stability and
plasticity regularizers, and returns the updated adapters. All randomness
(mini-batch order) comes from a labeled sub-stream of the client's RNG keyed
by round and epoch, so results are independent of scheduling.

A ``ClientState`` holds only what is the client's own: its shard, its stream
and its importance cache. The frozen base is an argument, and the regularizer
and task are stated once for every client in ``LocalTrainConfig``.

Clients with equal shard sizes train together: ``group_sgd`` stacks their
shards along a leading client axis, draws each client's batch order and runs
``sgd_epochs``, the one mini-batch epoch loop, with a step that trains the
whole group at once. ``local_train`` steps a client-stacked ``AdapterSet``;
the full-weight FedAvg groups step client-stacked weights through the same
path. Each client's slice is computed exactly as it would be alone, so a
client's result does not depend on which group it trains in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, ParameterError, require_finite
from .lora import AdapterSet, DenseDelta
from .model import (CLConfig, FrozenBase, ImportanceEstimate, OpCounter,
                    estimate_fim, estimate_mas_importance, sgd_step,
                    total_local_loss)
from .numerics import Rng


@dataclass
class ClientState:
    """One client's shard, random stream, and cached importances."""

    client_id: int
    features: np.ndarray
    labels: np.ndarray
    rng: Rng
    importance: ImportanceEstimate | None = None
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
        if not self.epochs >= 0:
            raise ParameterError(f"local_epochs must be >= 0, got {self.epochs}")
        if not self.batch_size >= 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        require_finite("eta", self.eta, 0)


def refresh_importances(state: ClientState, base: FrozenBase,
                        anchor_configuration, phase: int,
                        config: LocalTrainConfig) -> None:
    """Estimate and cache importance matrices once per (client, phase).

    ``anchor_configuration`` is the adapter configuration (AdapterSet or dense
    per-layer update) the estimates are evaluated at; ``config`` names the
    regularizer and the task. Repeat calls within the same phase keep the
    cached values unchanged. Distillation needs no importance matrices, so
    only the quadratic methods populate the cache.
    """
    if state.importance_phase == phase:
        return
    if config.cl.method == "ewc":
        state.importance = estimate_fim(base, anchor_configuration,
                                        state.features, state.labels, config.task)
    elif config.cl.method == "mas":
        state.importance = estimate_mas_importance(base, anchor_configuration,
                                                   state.features)
    else:
        state.importance = None
    state.importance_phase = phase


def _stacked_importance(states) -> ImportanceEstimate | None:
    """The group's cached importances, stacked per layer along the client axis."""
    if any(s.importance is None for s in states):
        return None
    per_layer = zip(*(s.importance.matrices for s in states))
    return ImportanceEstimate(tuple(np.stack(ms) for ms in per_layer))


def sgd_epochs(step, x, y, batch_size: int, orders):
    """Mini-batch SGD, one epoch per sample order in ``orders``.

    ``step(epoch, xb, yb)`` takes one step on a mini-batch. With one model,
    ``x`` is [n, d] and each order is [n]; with shards stacked along a
    leading client axis, each order is [C, n]. Returns, per epoch, the list
    of what ``step`` returned for each mini-batch, in order.

    The shards are flattened once, so that row ``c * n + i`` is row ``i`` of
    client ``c``; each epoch's orders are offset into that flat index once,
    and each mini-batch is then one ``take`` per array.
    """
    n = x.shape[-2]
    clients = x.shape[0] if x.ndim == 3 else 1
    x_flat = x.reshape(clients * n, x.shape[-1])
    y_flat = y.reshape(clients * n, *y.shape[x.ndim - 1:])
    offsets = np.arange(0, clients * n, n)[:, np.newaxis] if x.ndim == 3 else 0
    results = []
    for epoch, order in enumerate(orders):
        flat_order = order + offsets
        steps = []
        for start in range(0, n, batch_size):
            idx = flat_order[..., start:start + batch_size]
            steps.append(step(epoch, x_flat.take(idx, axis=0), y_flat.take(idx, axis=0)))
        results.append(steps)
    return results


def group_sgd(states, step, config: LocalTrainConfig):
    """Run ``config.epochs`` epochs of ``step`` for a group of clients.

    ``states`` must have equal shard sizes. Their shards are stacked along a
    leading client axis, and each epoch every client draws its own batch
    order from its stream's (round, epoch) sub-stream; ``step`` trains the
    whole group on one stacked mini-batch (see ``sgd_epochs``) and returns
    its loss, one value per client. Returns each client's mean loss per
    epoch, in the order of ``states``.
    """
    n = states[0].shard_size
    for s in states:
        if s.shard_size != n:
            raise InputError(f"client {s.client_id}: shard size {s.shard_size} "
                             f"!= group shard size {n}")
    features = np.stack([s.features for s in states])
    labels = np.stack([s.labels for s in states])
    orders = (np.stack([s.rng.substream("round", config.round_index, "epoch",
                                        epoch, "shuffle").permutation(n)
                        for s in states])
              for epoch in range(config.epochs))
    # np.mean's own arithmetic, without its wrapper
    epoch_losses = [np.add.reduce(np.stack(losses, axis=-1), axis=-1) / len(losses)
                    for losses in sgd_epochs(step, features, labels,
                                             config.batch_size, orders)]
    return [[float(e[i]) for e in epoch_losses] for i in range(len(states))]


def local_train(states, base: FrozenBase, global_adapters: AdapterSet,
                stability_anchor: DenseDelta | None, config: LocalTrainConfig,
                counter: OpCounter | None = None):
    """Run E local epochs for a group of clients from the distributed adapters.

    ``states`` are clients with equal shard sizes; a single client is a group
    of one. Each step trains every client of the group on its own mini-batch
    as one stacked computation. The plasticity anchor is the incoming global
    adapters, held fixed for the whole round: as they are for the LwF
    teacher, in dense form for the EWC/MAS quadratic anchor. Returns
    ``(adapters, epoch_losses)``: per client, in the order of ``states``, the
    resulting AdapterSet and the mean total loss of each epoch.
    """
    ids = [s.client_id for s in states]
    importance = _stacked_importance(states)
    adapters = global_adapters.stacked(len(states))
    plasticity_anchor = None
    if config.cl.active:
        plasticity_anchor = (global_adapters if config.cl.method == "lwf"
                             else global_adapters.dense())

    def step(epoch, x, y):
        loss, grads = total_local_loss(
            base, adapters, x, y, stability_anchor, plasticity_anchor,
            importance, config.cl, config.task, counter,
        )
        finite = np.isfinite(loss)
        if not finite.all():
            raise NumericError(
                f"client {ids[int(np.argmin(finite))]}: non-finite loss at "
                f"round {config.round_index}, epoch {epoch}"
            )
        sgd_step(adapters, grads, config.eta, ids)
        return loss

    epoch_losses = group_sgd(states, step, config)
    return [adapters.client(i) for i in range(len(states))], epoch_losses
