"""Low-rank adapter lifecycle.

An adapter is a factor pair (B, A) whose product is a dense update
``delta = B @ A`` injected beside a frozen base weight. The module covers
initialization, dense materialization, re-initialization
at a lower rank from an accumulated dense update, and a binary checkpoint
format.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, of_type
from .numerics import (Matrix, Rng, aligned_params, as_matrix, gaussian_matrix,
                       svd_truncate)

# The dense, rank-free counterpart of an adapter set: one matrix per adapted
# layer, in layer order.
DenseDelta = list

CHECKPOINT_MAGIC = b"SPDL"
CHECKPOINT_VERSION = 3

# "svd" keeps the accumulator's best low-rank approximation; "gaussian"
# starts afresh (ablation). See ``reinit_at_rank``.
REINIT_METHODS = ("svd", "gaussian")


@dataclass(frozen=True)
class LoRAAdapter:
    """Factor pair for one adapted layer; the dense update is B @ A.

    B is [h1, r] and A is [r, h2]. In the client-stacked form they carry a
    leading client axis, [C, h1, r] and [C, r, h2], one pair per client.
    """

    B: Matrix
    A: Matrix

    def __post_init__(self):
        B = np.asarray(self.B, dtype=np.float64)
        A = np.asarray(self.A, dtype=np.float64)
        if (B.ndim not in (2, 3) or A.ndim != B.ndim or B.shape[:-2] != A.shape[:-2]
                or B.shape[-1] != A.shape[-2]):
            raise ShapeError(f"B {B.shape} and A {A.shape} are not a 2-D or "
                             "client-stacked 3-D factor pair")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "A", A)

    @property
    def rank(self) -> int:
        return self.B.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.B.shape[-2]

    @property
    def in_dim(self) -> int:
        return self.A.shape[-1]


@dataclass(frozen=True)
class AdapterSet:
    """One adapter per adapted layer, at that layer's index, sharing a nominal rank.

    The nominal rank is capped per layer at min(h1, h2); layers too small to
    host the full rank carry a full-rank adapter for their size instead.

    A set whose factors all carry a leading client axis holds one adapter set
    per client, as a group of clients trains them: ``stacked(c)`` makes ``c``
    copies of a set, ``client(i)`` takes client ``i``'s slice back out.
    """

    adapters: tuple
    nominal_rank: int

    def __post_init__(self):
        object.__setattr__(self, "adapters", tuple(self.adapters))
        if not self.adapters:
            raise ShapeError("an adapter set needs at least one layer")
        for lid, a in enumerate(self.adapters):
            expected = capped_rank(self.nominal_rank, a.out_dim, a.in_dim)
            if a.rank != expected:
                raise ParameterError(
                    f"layer {lid}: rank {a.rank} != min(nominal, dims) = {expected}"
                )

    def __iter__(self):
        return iter(self.adapters)

    def __len__(self):
        return len(self.adapters)

    def dense(self) -> DenseDelta:
        return [a.B @ a.A for a in self.adapters]

    def param_count(self) -> int:
        """Trainable (= transmitted) parameters across all layers."""
        return sum(a.rank * (a.out_dim + a.in_dim) for a in self.adapters)

    def shapes(self):
        return [(a.out_dim, a.in_dim) for a in self.adapters]

    def stacked(self, c: int):
        """``c`` copies of this set stacked along a leading client axis, to
        train: ``(stack, params, grads)``, the stacked set and the
        ``aligned_params`` pair that holds its factors, B then A per layer."""
        params, grads = aligned_params([m for a in self.adapters for m in (a.B, a.A)], c)
        views = params.views
        return (AdapterSet(tuple(LoRAAdapter(B, A) for B, A in zip(views[::2], views[1::2])),
                           self.nominal_rank), params, grads)

    def client(self, i: int) -> "AdapterSet":
        """Client ``i``'s adapter set from a client-stacked one."""
        return AdapterSet(tuple(LoRAAdapter(a.B[i], a.A[i])
                                for a in self.adapters), self.nominal_rank)


def capped_rank(rank: int, h1: int, h2: int) -> int:
    """A layer's rank at a nominal rank: an h1 x h2 layer hosts at most
    min(h1, h2)."""
    return min(rank, h1, h2)


def init_adapter(h1: int, h2: int, r: int, sigma: float, rng: Rng) -> LoRAAdapter:
    """Zero B, Gaussian A: the fresh adapter contributes exactly nothing."""
    if r < 1 or r > min(h1, h2):
        raise ParameterError(f"rank {r} out of range for a {h1}x{h2} layer")
    B = np.zeros((h1, r))
    A = gaussian_matrix(r, h2, sigma, rng)
    return LoRAAdapter(B, A)


def init_adapter_set(layer_shapes, rank: int, sigma: float, rng: Rng) -> AdapterSet:
    """One fresh adapter per layer at the nominal rank, capped per layer."""
    return AdapterSet(tuple(
        init_adapter(h1, h2, capped_rank(rank, h1, h2), sigma,
                     rng.substream("adapter-init", lid))
        for lid, (h1, h2) in enumerate(layer_shapes)), rank)


def reinit_at_rank(acc: DenseDelta, r_new: int, method: str = "svd",
                   sigma: float = 0.02, rng: Rng | None = None) -> AdapterSet:
    """Build a rank-r_new adapter set from the accumulated dense update.

    The default factorization truncates each layer's SVD and splits the
    singular values evenly (B = U sqrt(S), A = sqrt(S) V^T), so the new dense
    update is the best Frobenius rank-r approximation of the accumulator.
    ``method="gaussian"`` instead re-initializes from scratch (ablation), from
    a stream keyed by ``r_new`` and the layer, so each drop draws afresh.
    """
    if r_new < 1:
        raise ParameterError(f"rank must be >= 1, got {r_new}")
    adapters = []
    for lid, layer in enumerate(acc):
        layer = as_matrix(layer, f"acc[{lid}]")
        r = capped_rank(r_new, *layer.shape)
        if method == "svd":
            u, s, v = svd_truncate(layer, r)
            root = np.sqrt(s)
            B = u * root[np.newaxis, :]
            A = root[:, np.newaxis] * v.T
            adapters.append(LoRAAdapter(B, A))
        elif method == "gaussian":
            if rng is None:
                raise ParameterError("gaussian re-initialization needs an rng")
            h1, h2 = layer.shape
            adapters.append(init_adapter(h1, h2, r, sigma,
                                         rng.substream("reinit", r_new, lid)))
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
        for name in ("r_init", "r_min", "subtractor", "phase"):
            v = getattr(self, name)
            if not of_type(v, int):
                raise ParameterError(f"{name} must be of type int, got {v!r}")
        if not (self.r_init >= self.r_min >= 1):
            raise ParameterError(
                f"need r_init >= r_min >= 1, got {self.r_init}, {self.r_min}"
            )
        if not self.subtractor >= 1:
            raise ParameterError(f"subtractor must be >= 1, got {self.subtractor}")
        if not self.phase >= 1:
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


def save_adapters(path, adapter_set: AdapterSet, base_checksum: str) -> None:
    """Write the binary adapter checkpoint (bit-exact round trip): magic;
    version, layer count, nominal rank, all u32; the 32-byte sha256 of the
    frozen base the adapters were trained on (``FrozenBase.checksum()``);
    (h1, h2, r) per layer, all u32; then each layer's B and A as float64, all
    little-endian. A client-stacked set raises ``ShapeError``: save each
    client's set. A checksum that is not 64 hex digits raises
    ``ParameterError``; both before the file is opened."""
    if any(a.B.ndim != 2 for a in adapter_set):
        raise ShapeError("a client-stacked adapter set cannot be saved; save client(i)")
    if not (isinstance(base_checksum, str) and re.fullmatch(r"[0-9a-fA-F]{64}", base_checksum)):
        raise ParameterError(f"base_checksum must be a sha256 of 64 hex digits, "
                             f"got {base_checksum!r}")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<III", CHECKPOINT_VERSION, len(adapter_set),
                             adapter_set.nominal_rank))
        fh.write(bytes.fromhex(base_checksum))
        for a in adapter_set:
            fh.write(struct.pack("<III", a.out_dim, a.in_dim, a.rank))
        for a in adapter_set:
            fh.write(np.ascontiguousarray(a.B, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(a.A, dtype="<f8").tobytes())


def load_adapters(path) -> tuple[AdapterSet, str]:
    """Read a checkpoint written by ``save_adapters``.

    Returns the adapter set and the checksum of the base it was trained on.
    A file that cannot be opened, is of another version, is truncated,
    carries trailing bytes or describes an invalid adapter set raises
    ``ParameterError``.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParameterError(
            f"cannot read checkpoint {str(path)!r}: {exc.strerror or exc}") from None
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
    version, count, nominal = struct.unpack("<III", take(12))
    if version != CHECKPOINT_VERSION:
        raise ParameterError(f"unsupported checkpoint version {version}: only version "
                             "3 names its base; rerun the run's config to rewrite it")
    base_checksum = take(32).hex()
    if count < 1:
        raise ParameterError("checkpoint holds no adapters")
    dims = [struct.unpack("<III", take(12)) for _ in range(count)]
    adapters = []
    for lid, (h1, h2, r) in enumerate(dims):
        if min(h1, h2, r) < 1:
            raise ParameterError(f"layer {lid}: bad dimensions {h1}x{h2} at rank {r}")
        B = np.frombuffer(take(8 * h1 * r), dtype="<f8").reshape(h1, r)
        A = np.frombuffer(take(8 * r * h2), dtype="<f8").reshape(r, h2)
        adapters.append(LoRAAdapter(B.astype(np.float64), A.astype(np.float64)))
    if pos != len(data):
        raise ParameterError(
            f"trailing checkpoint bytes: {len(data) - pos} after {count} layers")
    return AdapterSet(tuple(adapters), nominal), base_checksum
