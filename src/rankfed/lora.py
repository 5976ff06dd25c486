"""Low-rank adapter lifecycle.

An adapter is a factor pair (B, A) whose product is a dense update
``delta = B @ A`` injected beside a frozen base weight. The module covers
initialization, dense materialization, re-initialization
at a lower rank from an accumulated dense update, decay-averaged accumulation
of phase-final adapters, and a binary checkpoint format.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .numerics import Matrix, Rng, as_matrix, gaussian_matrix, svd_truncate

# The dense, rank-free counterpart of an adapter set: one matrix per adapted
# layer, in layer order.
DenseDelta = list

CHECKPOINT_MAGIC = b"SPDL"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class LoRAAdapter:
    """Factor pair for one adapted layer; the dense update is B @ A."""

    layer_id: int
    B: Matrix  # [h1, r]
    A: Matrix  # [r, h2]

    def __post_init__(self):
        B = as_matrix(self.B, "B")
        A = as_matrix(self.A, "A")
        if B.shape[1] != A.shape[0]:
            raise ShapeError(f"B cols ({B.shape[1]}) must equal A rows ({A.shape[0]})")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "A", A)

    @property
    def rank(self) -> int:
        return self.B.shape[1]

    @property
    def out_dim(self) -> int:
        return self.B.shape[0]

    @property
    def in_dim(self) -> int:
        return self.A.shape[1]

    def clone(self) -> "LoRAAdapter":
        return LoRAAdapter(self.layer_id, self.B.copy(), self.A.copy())


@dataclass(frozen=True)
class AdapterSet:
    """Ordered adapters, one per adapted layer, sharing a nominal rank.

    The nominal rank is capped per layer at min(h1, h2); layers too small to
    host the full rank carry a full-rank adapter for their size instead.
    """

    adapters: tuple
    nominal_rank: int

    def __post_init__(self):
        object.__setattr__(self, "adapters", tuple(self.adapters))
        ids = [a.layer_id for a in self.adapters]
        if len(set(ids)) != len(ids):
            raise ParameterError(f"duplicate layer ids: {ids}")
        for a in self.adapters:
            expected = min(self.nominal_rank, a.out_dim, a.in_dim)
            if a.rank != expected:
                raise ParameterError(
                    f"layer {a.layer_id}: rank {a.rank} != min(nominal, dims) = {expected}"
                )

    def __iter__(self):
        return iter(self.adapters)

    def __len__(self):
        return len(self.adapters)

    def dense(self) -> DenseDelta:
        return [dense(a) for a in self.adapters]

    def clone(self) -> "AdapterSet":
        return AdapterSet(tuple(a.clone() for a in self.adapters), self.nominal_rank)

    def param_count(self) -> int:
        """Trainable (= transmitted) parameters across all layers."""
        return sum(a.rank * (a.out_dim + a.in_dim) for a in self.adapters)

    def shapes(self):
        return [(a.out_dim, a.in_dim) for a in self.adapters]


class FactorStack:
    """The adapters of a group of clients, stacked along a leading client axis.

    ``B[l]`` is [C, h1, r] and ``A[l]`` is [C, r, h2]; slice ``i`` belongs to
    ``client_ids[i]``. Every slice starts as a copy of the same adapter set,
    and local training updates the stacks in place. ``adapter_set(i)`` is the
    validated per-client result that crosses to the server.
    """

    def __init__(self, adapters: AdapterSet, client_ids):
        self.client_ids = tuple(client_ids)
        self.layer_ids = tuple(a.layer_id for a in adapters)
        self.nominal_rank = adapters.nominal_rank
        c = len(self.client_ids)
        self.B = [np.repeat(a.B[np.newaxis], c, axis=0) for a in adapters]
        self.A = [np.repeat(a.A[np.newaxis], c, axis=0) for a in adapters]

    def adapter_set(self, i: int) -> AdapterSet:
        return AdapterSet(tuple(LoRAAdapter(lid, B[i], A[i]) for lid, B, A
                                in zip(self.layer_ids, self.B, self.A)),
                          self.nominal_rank)


def init_adapter(h1: int, h2: int, r: int, sigma: float, rng: Rng,
                 layer_id: int = 0) -> LoRAAdapter:
    """Zero B, Gaussian A: the fresh adapter contributes exactly nothing."""
    if r < 1 or r > min(h1, h2):
        raise ParameterError(f"rank {r} out of range for a {h1}x{h2} layer")
    B = np.zeros((h1, r))
    A = gaussian_matrix(r, h2, sigma, rng)
    return LoRAAdapter(layer_id, B, A)


def init_adapter_set(layer_shapes, rank: int, sigma: float, rng: Rng) -> AdapterSet:
    """One fresh adapter per layer at the nominal rank, capped per layer."""
    if rank < 1:
        raise ParameterError(f"rank must be >= 1, got {rank}")
    adapters = []
    for lid, (h1, h2) in enumerate(layer_shapes):
        r = min(rank, h1, h2)
        adapters.append(init_adapter(h1, h2, r, sigma, rng.substream("adapter-init", lid), lid))
    return AdapterSet(tuple(adapters), rank)


def dense(adapter: LoRAAdapter) -> Matrix:
    return adapter.B @ adapter.A


def accumulate(acc: DenseDelta | None, phase_final_global: AdapterSet,
               lam: float) -> DenseDelta:
    """Decay-average the accumulator with the phase-final global dense update.

    On the first event the accumulator is initialized with the observation
    itself; afterwards ``acc <- lam * acc + (1 - lam) * new`` per layer.
    """
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"lam must lie in [0, 1], got {lam}")
    new = phase_final_global.dense()
    if acc is None:
        return new
    if len(acc) != len(new):
        raise ShapeError(f"layer count mismatch: {len(acc)} vs {len(new)}")
    out = []
    for a, d in zip(acc, new):
        if a.shape != d.shape:
            raise ShapeError(f"layer shape mismatch: {a.shape} vs {d.shape}")
        out.append(lam * a + (1.0 - lam) * d)
    return out


def reinit_at_rank(acc: DenseDelta, r_new: int, method: str = "svd",
                   sigma: float = 0.02, rng: Rng | None = None) -> AdapterSet:
    """Build a rank-r_new adapter set from the accumulated dense update.

    The default factorization truncates each layer's SVD and splits the
    singular values evenly (B = U sqrt(S), A = sqrt(S) V^T), so the new dense
    update is the best Frobenius rank-r approximation of the accumulator.
    ``method="gaussian"`` instead re-initializes from scratch (ablation).
    """
    if r_new < 1:
        raise ParameterError(f"rank must be >= 1, got {r_new}")
    adapters = []
    for lid, layer in enumerate(acc):
        layer = as_matrix(layer, f"acc[{lid}]")
        r = min(r_new, *layer.shape)
        if method == "svd":
            u, s, v = svd_truncate(layer, r)
            root = np.sqrt(s)
            B = u * root[np.newaxis, :]
            A = root[:, np.newaxis] * v.T
            adapters.append(LoRAAdapter(lid, B, A))
        elif method == "gaussian":
            if rng is None:
                raise ParameterError("gaussian re-initialization needs an rng")
            h1, h2 = layer.shape
            adapters.append(init_adapter(h1, h2, r, sigma,
                                         rng.substream("reinit", lid), lid))
        else:
            raise ParameterError(f"unknown re-initialization method: {method}")
    return AdapterSet(tuple(adapters), r_new)


@dataclass(frozen=True)
class RankSchedule:
    """Stepwise rank schedule: rank r_init - (phase-1) * subtractor, floored at r_min."""

    r_init: int
    r_min: int
    subtractor: int
    phase: int = 1

    def __post_init__(self):
        if not (self.r_init >= self.r_min >= 1):
            raise ParameterError(
                f"need r_init >= r_min >= 1, got {self.r_init}, {self.r_min}"
            )
        if self.subtractor < 1:
            raise ParameterError(f"subtractor must be >= 1, got {self.subtractor}")
        if self.phase < 1:
            raise ParameterError(f"phase must be >= 1, got {self.phase}")

    @property
    def current_rank(self) -> int:
        return max(self.r_init - (self.phase - 1) * self.subtractor, self.r_min)

    @property
    def can_drop(self) -> bool:
        return self.current_rank - self.subtractor >= self.r_min

    def dropped(self) -> "RankSchedule":
        if not self.can_drop:
            raise ParameterError("rank floor reached; cannot drop further")
        return RankSchedule(self.r_init, self.r_min, self.subtractor, self.phase + 1)


def save_adapters(path, adapter_set: AdapterSet) -> None:
    """Write the binary adapter checkpoint (bit-exact round trip)."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(adapter_set)))
        for a in adapter_set:
            fh.write(struct.pack("<III", a.out_dim, a.in_dim, a.rank))
        for a in adapter_set:
            fh.write(np.ascontiguousarray(a.B, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(a.A, dtype="<f8").tobytes())


def load_adapters(path) -> AdapterSet:
    """Read a checkpoint written by ``save_adapters``.

    A file that is truncated, carries trailing bytes or describes an invalid
    adapter set raises ``ParameterError``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if len(data) - pos < n:
            raise ParameterError(
                f"truncated checkpoint: needs {pos + n} bytes, has {len(data)}")
        pos += n
        return data[pos - n:pos]

    magic = take(4)
    if magic != CHECKPOINT_MAGIC:
        raise ParameterError(f"bad checkpoint magic: {magic!r}")
    version, count = struct.unpack("<II", take(8))
    if version != CHECKPOINT_VERSION:
        raise ParameterError(f"unsupported checkpoint version: {version}")
    if count < 1:
        raise ParameterError("checkpoint holds no adapters")
    dims = [struct.unpack("<III", take(12)) for _ in range(count)]
    adapters = []
    for lid, (h1, h2, r) in enumerate(dims):
        if min(h1, h2, r) < 1:
            raise ParameterError(f"layer {lid}: bad dimensions {h1}x{h2} at rank {r}")
        B = np.frombuffer(take(8 * h1 * r), dtype="<f8").reshape(h1, r)
        A = np.frombuffer(take(8 * r * h2), dtype="<f8").reshape(r, h2)
        adapters.append(LoRAAdapter(lid, B.astype(np.float64), A.astype(np.float64)))
    if pos != len(data):
        raise ParameterError(
            f"trailing checkpoint bytes: {len(data) - pos} after {count} layers")
    # Nominal rank is not stored; the largest per-layer rank recovers it
    # whenever at least one layer is uncapped.
    nominal = max(a.rank for a in adapters)
    return AdapterSet(tuple(adapters), nominal)
