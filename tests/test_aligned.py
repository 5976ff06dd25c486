"""Trained parameters live in 64-byte-aligned buffers, and the bits do not
depend on where an operand starts.

OpenBLAS's NN product (the backward walk's ``dz @ W``) runs slower when W
starts off a 64-byte line, so every trained set is laid out on lines. That
is a speed property only: the product's bits must be the same at any
operand offset, which the last test checks at the walk's shapes. A
client-stacked set is laid out client-major, each client's set one row, and
``fedavg-full``'s mean over those rows has the bits of the per-array mean.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfed.client import local_train
from rankfed.config import RunConfig
from rankfed.harness import Setup, _AdapterRounds, _FullModelRounds
from rankfed.numerics import Rng, aligned_params, lay_out
from rankfed.server import shard_weights, weighted_sum

LINE = 64
CONFIG = dict(classes=4, dim=8, n_per_class=30, num_clients=2, scheme="disjoint",
              hidden=(12, 10), pretrain_epochs=2, local_epochs=1, batch_size=8)


def on_a_line(a) -> bool:
    return a.ctypes.data % LINE == 0


def test_every_trained_buffer_is_64_byte_aligned():
    setup = Setup(RunConfig(mode="spd-cfl", cl_method="none", r_init=4, **CONFIG).validate())
    assert len({len(idx) for idx in setup.plan.client_indices}) == 1  # one group
    base = setup.base
    assert all(on_a_line(a) for a in base.weights + base.biases)

    rounds = _AdapterRounds(setup)
    stack, params, grads = rounds.server.adapters.stacked(2)
    assert on_a_line(params.buf) and on_a_line(grads.buf)
    for factors in (params.views, grads.views, [m for a in stack for m in (a.B, a.A)]):
        assert all(on_a_line(m) and all(on_a_line(m[i]) for i in range(2))
                   for m in factors)
    trained, _ = local_train(rounds.clients, base, rounds.server.adapters, None,
                             rounds.local)
    assert all(on_a_line(m) for s in trained for a in s for m in (a.B, a.A))

    full = _FullModelRounds(setup)
    updates, _ = full.train_group([0, 1], full.local, None)
    (stack,) = full.stacks.values()
    assert all(on_a_line(row) for row in updates)
    assert all(on_a_line(m[i]) for m in stack.params.views for i in range(2))


# trained sets: 1-D biases and 2-D weights, lone columns and rows among them
TRAINED_SHAPES = st.lists(st.one_of(st.tuples(st.integers(1, 11)),
                                    st.tuples(st.integers(1, 11), st.integers(1, 11))),
                          min_size=1, max_size=5)


@settings(max_examples=80, deadline=None)
@given(TRAINED_SHAPES, st.one_of(st.none(), st.integers(1, 12)), st.booleans())
def test_every_client_row_and_array_view_starts_on_a_line(shapes, clients, client_major):
    params, grads = aligned_params([np.ones(s) for s in shapes], clients, client_major)
    for flat in (params, grads):
        rows = flat.buf.reshape(clients or 1, -1)
        assert all(on_a_line(row) for row in rows)
        for view, shape in zip(flat.views, shapes):
            assert np.shares_memory(view, flat.buf) and on_a_line(view)
            if clients is not None:
                assert view.shape == (clients, *shape)
                assert all(on_a_line(view[i]) for i in range(clients))
                # client-major: client i's slice of every array lies in row i
                assert not client_major or all(np.shares_memory(view[i], rows[i])
                                               for i in range(clients))
    assert all((view == 1.0).all() for view in params.views)


# the edge values of the mean's arithmetic; ordinary values join them per case
EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300])


@st.composite
def _client_sets(draw):
    """Shapes, per-client arrays of them and shard weights, 1-12 clients;
    each value is an edge value or an ordinary one."""
    shapes = draw(TRAINED_SHAPES)
    clients = draw(st.integers(1, 12))
    rng = Rng(draw(st.integers(0, 2**32)))
    pool = np.concatenate([EDGES, rng.normal(1, 8).ravel()])
    sets = [[pool[rng.integers(0, len(pool), s)] for s in shapes] for _ in range(clients)]
    weights = shard_weights(rng.integers(1, 50, clients))
    return shapes, sets, weights


@settings(max_examples=150, deadline=None)
@given(_client_sets())
def test_row_mean_equals_the_per_array_mean_bit_for_bit(case):
    """``weighted_sum`` over each client's row of a client-stacked set, laid
    out as one row, has the bits of ``weighted_sum`` over its arrays."""
    shapes, sets, weights = case
    params, _ = aligned_params(sets[0], len(sets), client_major=True)
    for view, arrays in zip(params.views, zip(*sets)):
        view[...] = np.stack(arrays)
    (row,) = weighted_sum(weights, ([row] for row in params.buf.reshape(len(sets), -1)))
    mean = lay_out(row, shapes).views
    expected = weighted_sum(weights, sets)
    assert [m.shape for m in mean] == [e.shape for e in expected]
    assert [m.tobytes() for m in mean] == [e.tobytes() for e in expected]


def test_frozen_base_has_no_writeable_path():
    base = Setup(RunConfig(**CONFIG).validate()).base
    owner = base.weights[0].base  # the buffer every weight and bias views
    assert owner is not None and all(np.shares_memory(a, owner)
                                     for a in base.weights + base.biases)
    with pytest.raises(ValueError):
        owner[0] = 1.0
    with pytest.raises(ValueError):
        base.weights[0].flags.writeable = True


def placed(m, offset: int) -> np.ndarray:
    """A copy of ``m`` that starts ``offset`` bytes past a 64-byte line."""
    raw = np.empty(m.size + 2 * LINE // 8)
    start = (-(raw.ctypes.data // 8) % (LINE // 8)) + offset // 8
    out = raw[start:start + m.size].reshape(m.shape)
    out[...] = m
    assert out.ctypes.data % LINE == offset
    return out


# (left, right, right transposed): the walk's products on the bench's
# networks, one client and client-stacked, base and factor operands
SHAPES = [
    ((32, 128), (128, 128), False),      # backward dz @ W, wide base
    ((10, 16, 128), (128, 128), False),  # the same, client-stacked
    ((10, 16, 128), (10, 128, 8), False),  # dz @ B
    ((10, 16, 8), (10, 8, 128), False),  # dzB @ A
    ((5, 32, 32), (32, 16), False),      # dz @ W, small base
    ((32, 128), (128, 128), True),       # forward h @ W.T
    ((10, 16, 64), (128, 64), True),     # forward, client-stacked
    ((10, 16, 128), (10, 8, 128), True),  # h @ A.T
]
OFFSETS = (0, 16, 32, 48)


@pytest.mark.parametrize("left, right, transposed", SHAPES)
def test_product_bits_do_not_depend_on_operand_alignment(left, right, transposed):
    rng = Rng(5)
    a = rng.substream("a").normal(int(np.prod(left[:-1])), left[-1]).reshape(left)
    b = rng.substream("b").normal(int(np.prod(right[:-1])), right[-1]).reshape(right)

    def product(a_off, b_off, out_off=None):
        rhs = placed(b, b_off)
        rhs = rhs.swapaxes(-1, -2) if transposed else rhs
        if out_off is None:
            return placed(a, a_off) @ rhs
        out = placed(np.zeros(np.broadcast_shapes(left[:-2], rhs.shape[:-2])
                              + (left[-2], rhs.shape[-1])), out_off)
        return np.matmul(placed(a, a_off), rhs, out=out)

    expected = product(0, 0).tobytes()
    for a_off in OFFSETS:
        for b_off in OFFSETS:
            assert product(a_off, b_off).tobytes() == expected, (a_off, b_off)
        assert product(a_off, 0, a_off).tobytes() == expected, a_off
