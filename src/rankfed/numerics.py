"""Dense float64 kernels and the deterministic random stream.

Everything downstream (adapters, models, the federated loop) is built on the
handful of operations in this module. Values are float64 numpy arrays: 2-D
"matrices", or batches stacked along a leading client axis, which the
row-wise kernels treat slice by slice. Operations never mutate their inputs.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import InputError, ParameterError, ShapeError, require_finite

Matrix = np.ndarray


def as_matrix(values, name: str = "matrix") -> Matrix:
    """Coerce to a 2-D float64 array, rejecting other ranks."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
    return m


class _PhiloxKey(ISeedSequence):
    """Hands Philox a derived 128-bit key as its two little-endian 64-bit key
    words. ``Philox(key=...)`` would give the same stream, but first builds a
    ``SeedSequence`` from fresh OS entropy and then ignores it."""

    def __init__(self, key: bytes):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return np.frombuffer(self.key, dtype="<u8")


class Rng:
    """Counter-based deterministic random stream with labeled sub-streams.

    Built on Philox so that a (seed, label-path) pair always yields the same
    stream, independent of platform, draw order elsewhere, or thread
    scheduling. Sub-streams are derived by hashing the label path into a new
    Philox key, so e.g. ``root.substream("client", 3, "round", 17)`` is
    reproducible without ever touching the root stream's state.
    """

    def __init__(self, seed: int, _key: bytes | None = None):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        if _key is None:
            _key = hashlib.blake2b(
                self.seed.to_bytes(8, "little"), digest_size=16
            ).digest()
        self._key = _key
        self._gen = np.random.Generator(np.random.Philox(_PhiloxKey(_key)))

    def substream(self, *labels) -> "Rng":
        """Derive an independent stream for the given label path."""
        tag = "/".join(str(l) for l in labels).encode("utf-8")
        key = hashlib.blake2b(tag, key=self._key, digest_size=16).digest()
        return Rng(self.seed, _key=key)

    def normal(self, rows: int, cols: int, sigma: float = 1.0) -> Matrix:
        return self._gen.standard_normal((rows, cols)) * sigma

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def uniform(self, size=None):
        return self._gen.random(size)


def gaussian_matrix(rows: int, cols: int, sigma: float, rng: Rng) -> Matrix:
    """i.i.d. N(0, sigma^2) matrix drawn from the given stream."""
    require_finite("sigma", sigma, 0, strict=True)
    if rows < 1 or cols < 1:
        raise ParameterError(f"matrix dimensions must be positive, got {rows}x{cols}")
    return rng.normal(rows, cols, sigma)


def relu(m: Matrix) -> Matrix:
    return np.maximum(np.asarray(m, dtype=np.float64), 0.0)


def softmax(logits: Matrix) -> Matrix:
    """Row-wise softmax, stabilized by max subtraction."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: Matrix, labels: np.ndarray):
    """Mean cross-entropy over the batch and its exact logit gradient.

    Returns ``(loss, grad)`` where ``grad[i] = (softmax(logits)[i] - onehot[i]) / batch``.
    Client-stacked logits [C, n, c] with labels [C, n] give one loss per client.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim not in (2, 3):
        raise ShapeError(f"logits must be 2-D or client-stacked 3-D, got {logits.shape}")
    n, c = logits.shape[-2:]
    if labels.shape != logits.shape[:-1]:
        raise ShapeError(f"labels must have shape {logits.shape[:-1]}, got {labels.shape}")
    if n == 0:
        raise InputError("empty batch")
    if labels.min() < 0 or labels.max() >= c:
        raise InputError(f"labels must lie in [0, {c})")
    # Flat (row, label) positions address the picked logit of every row of
    # every client at once.
    pick = (np.arange(labels.size), labels.ravel())
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=-1, keepdims=True)
    picked = shifted.reshape(-1, c)[pick].reshape(labels.shape)
    # np.mean's own arithmetic, without its wrapper: this runs every step
    loss = np.add.reduce(np.log(z[..., 0]) - picked, axis=-1) / n
    grad = e / z  # the softmax of ``logits``
    grad.reshape(-1, c)[pick] -= 1.0
    grad /= n
    return loss, grad


def svd_truncate(m: Matrix, r: int):
    """Top-r singular triplets (U_r, S_r, V_r) with m ~= U_r @ diag(S_r) @ V_r.T.

    The reconstruction is the best Frobenius rank-r approximation of ``m``.
    """
    m = as_matrix(m)
    if r < 1 or r > min(m.shape):
        raise ParameterError(f"rank {r} out of range for shape {m.shape}")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return u[:, :r].copy(), s[:r].copy(), vh[:r].T.copy()
