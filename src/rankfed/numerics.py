"""Dense float64 kernels and the deterministic random stream.

Everything downstream (adapters, models, the federated loop) is built on the
handful of operations in this module. Values are float64 numpy arrays: 2-D
"matrices", or batches stacked along a leading client axis, which the
row-wise kernels treat slice by slice. Operations never mutate their inputs.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from typing import NamedTuple

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
        # int() would truncate 1.5 or True to seed 1 and draw its streams
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise ParameterError(f"seed must be an integer, got {seed!r}")
        self.seed = int(seed)
        if not 0 <= self.seed < 2**64:  # the key hashes the seed's 8 bytes
            raise ParameterError(f"seed must lie in [0, 2**64), got {seed}")
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


class Flat(NamedTuple):
    """A float64 buffer and its arrays, views of it: one elementwise call on
    ``buf`` gives each array the bits it would get alone."""

    buf: np.ndarray
    views: list

    def load(self, arrays) -> None:
        """Copy each array into its view, to every client's slice."""
        for view, a in zip(self.views, arrays):
            view[...] = a


_LINE = 8  # float64s per 64-byte cache line


def _span(shape) -> int:
    """The float64s an array of ``shape`` takes in a row: whole lines."""
    return -(-math.prod(shape) // _LINE) * _LINE


def lay_out(buf, shapes, clients=None, client_major=False) -> Flat:
    """``buf`` as a ``Flat`` of ``shapes``, each array padded to whole lines;
    with ``clients`` each view is [clients, *shape]. Array-major, each
    array's client slices lie side by side, so an elementwise call on a view
    runs over one block, which numpy does faster than a strided view;
    client-major, each client's whole set is one row of ``buf``, so one call
    can take a whole set."""
    c = clients or 1
    rows = buf.reshape(c, -1)
    views, offset = [], 0
    for shape in shapes:
        n, span = math.prod(shape), _span(shape)
        if client_major:
            block = rows[:, offset:offset + n]
        else:
            block = buf[c * offset:c * (offset + span)].reshape(c, span)[:, :n]
        views.append(block.reshape(shape if clients is None else (clients, *shape)))
        offset += span
    return Flat(buf, views)


def _flat(shapes, clients, client_major) -> Flat:
    """A zeroed, line-aligned ``lay_out`` of ``shapes``: each view, each
    client's slice and each client's row start on a 64-byte line."""
    size = sum(map(_span, shapes)) * (clients or 1)
    raw = np.zeros(size + _LINE - 1)
    start = -(raw.ctypes.data // 8) % _LINE
    return lay_out(raw[start:start + size], shapes, clients, client_major)


def aligned_params(arrays, clients=None, client_major=False):
    """Trainable copies of ``arrays`` and a zeroed twin for their gradients,
    ``(params, grads)``, each a ``Flat`` laid out alike (see ``lay_out``):
    with ``clients``, each array is copied to every client's slice of a
    [clients, ...] view. Every array, and every client's slice, starts on a
    64-byte line, where BLAS's NN product reads its right operand fastest."""
    shapes = [np.shape(a) for a in arrays]
    params = _flat(shapes, clients, client_major)
    params.load(arrays)
    return params, _flat(shapes, clients, client_major)


def _softmax_terms(logits: Matrix):
    """The row-wise softmax and the terms its cross-entropy reads: ``(p,
    shifted, z)``, the probabilities, the max-shifted logits and their row
    sums of exp [..., 1]."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    p = np.exp(shifted)
    z = p.sum(axis=-1, keepdims=True)
    p /= z
    return p, shifted, z


def softmax(logits: Matrix) -> Matrix:
    """Row-wise softmax, stabilized by max subtraction."""
    return _softmax_terms(logits)[0]


def sigmoid(z: Matrix) -> Matrix:
    """``0.5 * (1 + tanh(0.5 * z))`` in one buffer."""
    s = np.multiply(z, 0.5)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def _checked_logits(logits: Matrix, targets: Matrix) -> Matrix:
    """``logits`` as float64, checked against the targets shaped like them;
    the label range is checked where those are formed, not here."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim not in (2, 3):
        raise ShapeError(f"logits must be 2-D or client-stacked 3-D, got {logits.shape}")
    if np.shape(targets) != logits.shape:
        raise ShapeError(f"targets shape {np.shape(targets)} != logits shape {logits.shape}")
    if logits.shape[-2] == 0:
        raise InputError("empty batch")
    return logits


def logit_error(logits: Matrix, targets: Matrix, task: str) -> Matrix:
    """Each sample's error at the logits under the task's loss, unscaled:
    ``softmax(z) - y`` row by row (multiclass, one-hot ``targets``) or
    ``sigmoid(z) - y`` per label (multilabel, ``targets`` may be soft)."""
    logits = _checked_logits(logits, targets)
    if task == "multiclass":
        e = softmax(logits)
    elif task == "multilabel":
        e = sigmoid(logits)
    else:
        raise ParameterError(f"unknown task: {task}")
    # x - 0.0 is x, so a one-hot row changes the softmax at its label only
    e -= targets
    return e


def softmax_cross_entropy(logits: Matrix, targets: Matrix):
    """Mean cross-entropy over the batch and its exact logit gradient.

    ``targets`` are one-hot rows shaped like ``logits``. Returns ``(loss,
    grad)`` where ``grad[i] = (softmax(logits)[i] - targets[i]) / batch``.
    Client-stacked logits and targets [C, n, c] give one loss per client.
    """
    grad, shifted, z = _softmax_terms(_checked_logits(logits, targets))
    grad -= targets
    n = grad.shape[-2]
    # the picked logit is each row's one nonzero product; adding the zeros
    # of the other classes to it is exact
    picked = np.add.reduce(targets * shifted, axis=-1)
    # np.mean's own arithmetic, without its wrapper: this runs every step
    loss = np.add.reduce(np.log(z[..., 0]) - picked, axis=-1) / n
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
