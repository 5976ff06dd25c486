"""Client side of the protocol: local fine-tuning with the combined objective.

Each round a client copies the distributed global adapters, runs E epochs of
mini-batch SGD on its shard with the supervised loss plus the stability and
plasticity regularizers, and returns the updated adapters. All randomness
(mini-batch order) comes from a labeled sub-stream of the client's RNG keyed
by round and epoch, so results are independent of scheduling.

Clients with equal shard sizes train together: ``local_train`` stacks their
shards and adapter factors along a leading client axis and takes every
mini-batch step for the whole group at once. Each client's slice is computed
exactly as it would be alone, so a client's result does not depend on which
group it trains in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, ParameterError
from .lora import AdapterSet, DenseDelta, FactorStack
from .model import (CLConfig, FrozenBase, ImportanceEstimate, OpCounter,
                    estimate_fim, estimate_mas_importance, sgd_step,
                    total_local_loss)
from .numerics import Rng, take_rows


@dataclass
class ClientState:
    """One client's shard, regularizer configuration, and cached importances."""

    client_id: int
    base: FrozenBase
    features: np.ndarray
    labels: np.ndarray
    cl: CLConfig
    rng: Rng
    task: str = "multiclass"
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

    def __post_init__(self):
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ParameterError(f"batch size must be >= 1, got {self.batch_size}")
        if self.eta < 0:
            raise ParameterError(f"learning rate must be >= 0, got {self.eta}")


def refresh_importances(state: ClientState, base: FrozenBase,
                        anchor_configuration, phase: int) -> ClientState:
    """Estimate and cache importance matrices once per (client, phase).

    ``anchor_configuration`` is the adapter configuration (AdapterSet or dense
    per-layer update) the estimates are evaluated at. Repeat calls within the
    same phase return the cached values unchanged. Distillation needs no
    importance matrices, so only the quadratic methods populate the cache.
    """
    if state.importance_phase == phase:
        return state
    if state.cl.method == "ewc":
        state.importance = estimate_fim(base, anchor_configuration,
                                        state.features, state.labels, state.task)
    elif state.cl.method == "mas":
        state.importance = estimate_mas_importance(base, anchor_configuration,
                                                   state.features)
    else:
        state.importance = None
    state.importance_phase = phase
    return state


def _stacked_importance(states) -> ImportanceEstimate | None:
    """The group's cached importances, stacked per layer along the client axis."""
    if any(s.importance is None for s in states):
        return None
    per_layer = zip(*(s.importance.matrices for s in states))
    return ImportanceEstimate(tuple(np.stack(ms) for ms in per_layer))


def local_train(states, global_adapters: AdapterSet,
                stability_anchor: DenseDelta | None, config: LocalTrainConfig,
                counter: OpCounter | None = None):
    """Run E local epochs for a group of clients from the distributed adapters.

    ``states`` are clients with equal shard sizes, sharing one base, task and
    regularizer configuration; a single client is a group of one. Each step
    trains every client of the group on its own mini-batch as one stacked
    computation. The plasticity anchor is the dense form of the incoming
    global adapters, held fixed for the whole round. Returns
    ``(adapters, epoch_losses)``: per client, in the order of ``states``, the
    resulting AdapterSet and the mean total loss of each epoch.
    """
    first = states[0]
    n = first.shard_size
    for s in states:
        if s.shard_size != n:
            raise InputError(f"client {s.client_id}: shard size {s.shard_size} "
                             f"!= group shard size {n}")
        if s.base is not first.base or (s.cl, s.task) != (first.cl, first.task):
            raise InputError(f"client {s.client_id}: base, regularizer or task "
                             "differs from the rest of its group")
    ids = [s.client_id for s in states]
    features = np.stack([s.features for s in states])
    labels = np.stack([s.labels for s in states])
    importance = _stacked_importance(states)
    stack = FactorStack(global_adapters, ids)
    plasticity_anchor = global_adapters.dense() if first.cl.active else None
    epoch_losses = []
    for epoch in range(config.epochs):
        order = np.stack([s.rng.substream(
            "round", config.round_index, "epoch", epoch, "shuffle"
        ).permutation(n) for s in states])
        batch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[:, start:start + config.batch_size]
            loss, grads = total_local_loss(
                first.base, stack, take_rows(features, idx),
                take_rows(labels, idx), stability_anchor, plasticity_anchor,
                importance, first.cl, first.task, counter,
            )
            finite = np.isfinite(loss)
            if not finite.all():
                raise NumericError(
                    f"client {ids[int(np.argmin(finite))]}: non-finite loss at "
                    f"round {config.round_index}, epoch {epoch}"
                )
            sgd_step(stack, grads, config.eta)
            batch_losses.append(loss)
        epoch_losses.append(np.mean(np.stack(batch_losses, axis=-1), axis=-1))
    adapters = [stack.adapter_set(i) for i in range(len(states))]
    losses = [[float(e[i]) for e in epoch_losses] for i in range(len(states))]
    return adapters, losses
