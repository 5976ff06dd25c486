"""Server side of the protocol: weighted aggregation, sensitivity-weighted
bilateral gradient pooling, the EMA-smoothed gradient-consistency signal, and
the stepwise rank-dropout decision.

Round flow: collect client updates, pool their dense displacement from the
distributed global adapters into positive/negative components weighted by
normalized sensitivity, smooth both with an EMA, and reduce them to a single
consistency score in [0, 1]. Consistency rising (or flat) between rounds
signals stagnation: the rank drops by a fixed subtractor, the phase-final
global adapters are folded into a decay-averaged accumulator, and the next
round's adapters are re-initialized from that accumulator at the lower rank.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (InputError, InvariantError, ParameterError, ProtocolError, ShapeError,
                     require_finite)
from .lora import (REINIT_METHODS, AdapterSet, DenseDelta, LoRAAdapter, RankSchedule,
                   reinit_at_rank)
from .metrics import frobenius_norm
from .numerics import Rng

AGGREGATIONS = ("factor", "dense")


@dataclass(frozen=True)
class ClientUpdate:
    client_id: int
    adapters: AdapterSet
    shard_size: int

    def __post_init__(self):
        if self.shard_size <= 0:
            raise InputError(f"shard size must be positive, got {self.shard_size}")


@dataclass(frozen=True)
class ServerSettings:
    """The server's dropout rules, checked once here so that NaN fails; the
    messages name the config keys. The round code does not re-check them."""

    theta: float = 0.9            # EMA decay for pooled gradient components
    lam: float = 0.5              # accumulator decay at phase boundaries
    cooldown: float = 5           # min completed rounds in a phase before a drop; inf: never
    reinit: str = "svd"           # one of lora.REINIT_METHODS; "gaussian" is an ablation
    aggregation: str = "factor"   # one of AGGREGATIONS; "dense" is an ablation

    def __post_init__(self):
        if not 0.0 <= self.theta < 1.0:
            raise ParameterError(f"theta must lie in [0, 1), got {self.theta}")
        if not 0.0 <= self.lam <= 1.0:
            raise ParameterError(f"lam must lie in [0, 1], got {self.lam}")
        if not self.cooldown >= 0:
            raise ParameterError(f"cooldown must be >= 0 (inf: never drop), got {self.cooldown}")
        for name, choices in (("reinit", REINIT_METHODS), ("aggregation", AGGREGATIONS)):
            value = getattr(self, name)
            if value not in choices:
                raise ParameterError(f"{name} must be one of {choices}, got {value!r}")


@dataclass(frozen=True)
class ServerState:
    """Global adapters plus dropout bookkeeping; all fields are values.

    ``reinit_sigma`` follows ``sigma_init``'s rule, which adapter
    initialization shares, so it is not one of the ``settings``. Gaussian
    re-initialization needs ``reinit_rng`` and a valid ``reinit_sigma``; both
    are checked here, not at the first drop, which may come dozens of rounds
    in."""

    adapters: AdapterSet
    schedule: RankSchedule
    settings: ServerSettings = ServerSettings()
    reinit_sigma: float = 0.02
    reinit_rng: Rng | None = None
    accumulated: DenseDelta | None = None
    ema_pos: list | None = None
    ema_neg: list | None = None
    consistency_prev: float | None = None
    rounds_in_phase: int = 0

    def __post_init__(self):
        if self.adapters.nominal_rank != self.schedule.current_rank:
            raise ParameterError(f"adapters at rank {self.adapters.nominal_rank}, "
                                 f"schedule at rank {self.schedule.current_rank}")
        if self.settings.reinit == "gaussian":
            if self.reinit_rng is None:
                raise ParameterError("gaussian re-initialization needs an rng")
            require_finite("reinit_sigma", self.reinit_sigma, 0, strict=True)


@dataclass(frozen=True)
class RoundOutcome:
    consistency: float
    rank: int        # rank the round's updates were trained at
    dropped: bool
    global_adapters: AdapterSet  # this round's aggregate (pre re-initialization)
    # each update's Frobenius distance from the distributed global adapters
    # over all layers, in client-id order
    displacement_norms: tuple


def shard_weights(sizes) -> np.ndarray:
    """Each client's weight in a round: its share of the round's samples."""
    sizes = np.asarray(sizes, dtype=np.float64)
    total = sizes.sum()
    if not total > 0:
        raise InputError(f"shard sizes must have a positive total, got {total}")
    return sizes / total


def weighted_sum(weights, items) -> list:
    """Per-array sum of ``w * item`` over clients, in the given order.

    ``items`` yields one list of arrays per client and may be a generator,
    so that only one client's arrays are held at a time. No client, or a
    weight count unlike the client count, raises ``InputError``.
    """
    items, total, count = iter(items), None, 0
    for w, arrays in zip(weights, items):
        if total is None:
            total = [np.zeros_like(a) for a in arrays]
        for acc, a in zip(total, arrays):
            acc += w * a
        count += 1
    # zip stops at the shorter side: the weights unpaired, or a client left
    if total is None or count != len(weights) or next(items, None) is not None:
        raise InputError(f"weighted_sum needs one weight per client and a client, "
                         f"got {len(weights)} weights")
    return total


def aggregate(updates, mode: str = "factor") -> AdapterSet:
    """Shard-size weighted average of client adapters.

    Factors are averaged factor-wise (the transmitted objects); the "dense"
    ablation averages the dense products and re-factorizes by truncated SVD.
    Updates are summed in client_id order so the result is bit-exact under any
    input permutation.
    """
    if not updates:
        raise InputError("no client updates to aggregate")
    updates = sorted(updates, key=lambda u: u.client_id)
    first = updates[0].adapters
    for u in updates:
        if (u.adapters.nominal_rank, u.adapters.shapes()) != (first.nominal_rank, first.shapes()):
            raise ProtocolError(f"client {u.client_id} sent layer shapes {u.adapters.shapes()} at "
                                f"rank {u.adapters.nominal_rank}, client {updates[0].client_id} "
                                f"sent {first.shapes()} at rank {first.nominal_rank}")
    weights = shard_weights([u.shard_size for u in updates])

    if mode == "factor":
        factors = weighted_sum(weights, ([m for a in u.adapters for m in (a.B, a.A)]
                                         for u in updates))
        return AdapterSet(tuple(LoRAAdapter(B, A) for B, A
                                in zip(factors[0::2], factors[1::2])),
                          first.nominal_rank)
    if mode == "dense":
        return reinit_at_rank(weighted_sum(weights, (u.adapters.dense() for u in updates)),
                              first.nominal_rank)
    raise ParameterError(f"unknown aggregation mode: {mode}")


def sensitivity(local_dense, global_dense) -> tuple[list, float]:
    """A client's per-layer dense displacement from the distributed global
    adapters, and its sensitivity: the magnitude-sum of the elementwise
    product of its dense update and that displacement."""
    grad = [dl - dg for dl, dg in zip(local_dense, global_dense)]
    return grad, sum(float(np.add.reduce(np.abs(d * g), axis=None))
                     for d, g in zip(local_dense, grad))


def normalize_sensitivities(values) -> np.ndarray:
    """Sensitivities to weights summing to 1; all-zero input falls back to uniform."""
    u = np.asarray(values, dtype=np.float64)
    if np.any(u < 0):
        raise InvariantError("sensitivities must be nonnegative")
    total = u.sum()
    if total == 0:
        return np.full(len(u), 1.0 / len(u))
    return u / total


def pool_gradients(grads_by_client, alpha):
    """Sensitivity-weighted positive and negative pooled components per layer.

    Each client's gradient splits exactly as max(g, 0) + min(g, 0) = g;
    pooling keeps the two signs separate so later cancellation is
    observable. Each client's layer is weighted once, as ``g·α``, before the
    split; for α ≥ 0 the pooled parts keep the bits of ``Σ α·max(g, 0)`` and
    ``-Σ α·max(-g, 0)``, signed zeros included.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if abs(alpha.sum() - 1.0) > 1e-12:
        raise InvariantError(f"weights must sum to 1, got {alpha.sum()!r}")
    if len(alpha) != len(grads_by_client):
        raise InputError("one weight per client required")
    n_layers = len(grads_by_client[0])
    pos = [np.zeros_like(g) for g in grads_by_client[0]]
    neg = [np.zeros_like(g) for g in grads_by_client[0]]
    for a, grads in zip(alpha, grads_by_client):
        if len(grads) != n_layers:
            raise ShapeError("layer count mismatch across clients")
        for l, g in enumerate(grads):
            scaled = np.multiply(g, a)
            pos[l] += np.maximum(scaled, 0.0)
            neg[l] += np.minimum(scaled, 0.0, out=scaled)
    return pos, neg


def ema_update(prev, current, theta: float):
    """EMA with first-observation initialization: absent prev passes current
    through. ``theta`` is a ``ServerSettings.theta`` (the pooled gradients)
    or ``lam`` (the accumulator), checked there."""
    current = np.asarray(current, dtype=np.float64)
    if prev is None:
        return current.copy()
    prev = np.asarray(prev, dtype=np.float64)
    if prev.shape != current.shape:
        raise ShapeError(f"shape mismatch: {prev.shape} vs {current.shape}")
    return theta * prev + (1.0 - theta) * current


def gradient_consistency(ema_pos, ema_neg) -> float:
    """Consistency score |P + N| / (|P| + |N|) over all layers, in [0, 1].

    1 means the pooled components never cancel (one-sided gradients); 0 means
    exact cancellation. A zero denominator (no gradient signal at all) is
    defined as full consistency, 1.
    """
    if len(ema_pos) != len(ema_neg):
        raise ShapeError("layer count mismatch")
    num_sq = 0.0
    pos_sq = 0.0
    neg_sq = 0.0
    for p, n in zip(ema_pos, ema_neg):
        p = np.asarray(p, dtype=np.float64)
        n = np.asarray(n, dtype=np.float64)
        if np.any(p < 0):
            raise InvariantError("positive component has negative entries")
        if np.any(n > 0):
            raise InvariantError("negative component has positive entries")
        num_sq += float(np.sum((p + n) ** 2))
        pos_sq += float(np.sum(p ** 2))
        neg_sq += float(np.sum(n ** 2))
    denom = np.sqrt(pos_sq) + np.sqrt(neg_sq)
    if denom == 0.0:
        return 1.0
    return min(float(np.sqrt(num_sq) / denom), 1.0)


def maybe_dropout(state: ServerState, consistency: float):
    """Apply the stepwise dropout rule given this round's consistency score.

    Drops when the score stopped decreasing, provided a previous score exists,
    the rank floor allows a full subtractor step, and the phase has outlived
    the cooldown. On a drop: fold the phase-final global dense update into
    the accumulator (an EMA with decay ``lam``), lower the rank,
    re-initialize the global adapters from the accumulator, and reset the
    gradient EMA and consistency history.
    """
    fire = (
        state.consistency_prev is not None
        and consistency >= state.consistency_prev
        and state.schedule.can_drop
        and state.rounds_in_phase >= state.settings.cooldown
    )
    if not fire:
        return replace(state,
                       consistency_prev=consistency,
                       rounds_in_phase=state.rounds_in_phase + 1), False
    final = state.adapters.dense()
    acc = [ema_update(p, d, state.settings.lam)
           for p, d in zip(state.accumulated or [None] * len(final), final)]
    schedule = state.schedule.dropped()
    adapters = reinit_at_rank(acc, schedule.current_rank,
                              method=state.settings.reinit,
                              sigma=state.reinit_sigma,
                              rng=state.reinit_rng)
    return replace(state, adapters=adapters, schedule=schedule, accumulated=acc,
                   ema_pos=None, ema_neg=None, consistency_prev=None,
                   rounds_in_phase=0), True


def server_round(state: ServerState, updates):
    """One full server round over the collected client updates.

    Pipeline: displacement gradients -> sensitivities -> normalized weights ->
    bilateral pooling -> EMA -> consistency -> aggregation -> dropout decision.
    The aggregate of this round's updates is the phase-final global fed to the
    accumulator if a drop fires; on a drop the adapters distributed next round
    are the re-initialization rather than the aggregate. ``aggregate`` refuses
    an empty or inconsistent round; the server then checks its rank and shapes.
    """
    global_adapters = aggregate(updates, state.settings.aggregation)
    updates = sorted(updates, key=lambda u: u.client_id)
    rank, shapes = state.schedule.current_rank, state.adapters.shapes()
    if (global_adapters.nominal_rank, global_adapters.shapes()) != (rank, shapes):
        raise ProtocolError(f"clients {', '.join(str(u.client_id) for u in updates)} sent "
                            f"rank {global_adapters.nominal_rank} with layer shapes "
                            f"{global_adapters.shapes()}, server expects rank {rank} "
                            f"with {shapes}")
    global_dense = state.adapters.dense()
    # a generator: each client's dense update is freed once its displacement is formed
    grads, sens = zip(*(sensitivity(u.adapters.dense(), global_dense) for u in updates))
    alpha = normalize_sensitivities(sens)
    pos, neg = pool_gradients(grads, alpha)
    ema_pos = [ema_update(p, c, state.settings.theta)
               for p, c in zip(state.ema_pos or [None] * len(pos), pos)]
    ema_neg = [ema_update(p, c, state.settings.theta)
               for p, c in zip(state.ema_neg or [None] * len(neg), neg)]
    consistency = gradient_consistency(ema_pos, ema_neg)
    new_state = replace(state, adapters=global_adapters,
                        ema_pos=ema_pos, ema_neg=ema_neg)
    new_state, dropped = maybe_dropout(new_state, consistency)
    return new_state, RoundOutcome(consistency, rank, dropped, global_adapters,
                                   tuple(frobenius_norm(g) for g in grads))
