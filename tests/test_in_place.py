"""The in-place update kernels against the out-of-place expressions they
replaced, bit for bit.

Each reference below is the kernel's former expression, with a fresh
temporary per elementwise step. The kernels now scale or split into one
buffer; IEEE multiplication commutes and every operation is the same, so the
bytes must be too. The arrays hold signed zeros, subnormals and values large
enough to overflow, where a reordered or fused operation would show.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rankfed.lora import AdapterSet, LoRAAdapter
from rankfed.model import _descend, sgd_step
from rankfed.numerics import relu, softmax_error
from rankfed.server import pool_gradients, sensitivity

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
         1e300, -1e300, 1.7976931348623157e308]
FLOATS = st.one_of(st.sampled_from(EDGES),
                   st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False))


def matrices(count, shape):
    return st.lists(arrays(np.float64, shape, elements=FLOATS),
                    min_size=count, max_size=count)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# --- references: the out-of-place expressions --------------------------------

def pool_reference(grads_by_client, alpha):
    pos = [np.zeros_like(g) for g in grads_by_client[0]]
    neg = [np.zeros_like(g) for g in grads_by_client[0]]
    for a, grads in zip(alpha, grads_by_client):
        for l, g in enumerate(grads):
            pos[l] += a * relu(g)
            neg[l] -= a * relu(-g)
    return pos, neg


def sensitivity_reference(local_dense, global_dense):
    grad = [dl - dg for dl, dg in zip(local_dense, global_dense)]
    return grad, sum(float(np.sum(np.abs(d * g))) for d, g in zip(local_dense, grad))


def step_reference(params, grads, eta):
    return [p - eta * g for p, g in zip(params, grads)]


# --- oracles -----------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(grads=st.lists(matrices(2, (3, 4)), min_size=1, max_size=4),
       raw=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
def test_pool_gradients_equals_its_reference(grads, raw):
    weights = np.asarray(raw[:len(grads)]) + 1e-3
    alpha = weights / weights.sum()
    if abs(alpha.sum() - 1.0) > 1e-12:  # pool_gradients' own precondition
        return
    with np.errstate(all="ignore"):
        expected = pool_reference(grads, alpha)
        got = pool_gradients(grads, alpha)
    for e_side, g_side in zip(expected, got):
        assert all(same_bits(e, g) for e, g in zip(e_side, g_side))


@settings(max_examples=60, deadline=None)
@given(local=matrices(2, (3, 5)), global_=matrices(2, (3, 5)))
def test_sensitivity_equals_its_reference(local, global_):
    with np.errstate(all="ignore"):
        grad_e, sens_e = sensitivity_reference(local, global_)
        grad_g, sens_g = sensitivity(local, global_)
    assert all(same_bits(e, g) for e, g in zip(grad_e, grad_g))
    assert same_bits(sens_e, sens_g)


@settings(max_examples=60, deadline=None)
@given(factors=matrices(4, (2, 3, 3)), grads=matrices(4, (2, 3, 3)),
       eta=st.one_of(st.sampled_from([0.0, 1e-3, 0.05, 1.0]), st.floats(0.0, 10.0)))
def test_sgd_step_equals_its_reference(factors, grads, eta):
    adapters = AdapterSet((LoRAAdapter(factors[0], factors[1]),
                           LoRAAdapter(factors[2], factors[3])), 3)
    with np.errstate(all="ignore"):
        expected = step_reference(factors, grads, eta)
        sgd_step(adapters, [(grads[0].copy(), grads[1].copy()),
                            (grads[2].copy(), grads[3].copy())], eta, [0, 1])
    got = [m for a in adapters for m in (a.B, a.A)]
    assert all(same_bits(e, g) for e, g in zip(expected, got))


@settings(max_examples=60, deadline=None)
@given(weights=matrices(2, (4, 3)), biases=matrices(2, (4,)),
       w_grads=matrices(2, (4, 3)), b_grads=matrices(2, (4,)),
       eta=st.one_of(st.sampled_from([0.0, 0.05, 1.0]), st.floats(0.0, 10.0)))
def test_descend_equals_its_reference(weights, biases, w_grads, b_grads, eta):
    with np.errstate(all="ignore"):
        expected = step_reference(weights + biases, w_grads + b_grads, eta)
        w, b = [m.copy() for m in weights], [v.copy() for v in biases]
        _descend(w + b, [g.copy() for g in w_grads + b_grads], eta)
    assert all(same_bits(e, g) for e, g in zip(expected, w + b))


@settings(max_examples=60, deadline=None)
@given(logits=arrays(np.float64, (3, 4), elements=FLOATS),
       labels=st.lists(st.integers(0, 3), min_size=3, max_size=3))
def test_softmax_error_equals_its_reference(logits, labels):
    targets = np.eye(4)[labels]
    with np.errstate(all="ignore"):
        shifted = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        expected = e / e.sum(axis=-1, keepdims=True) - targets
        got = softmax_error(logits, targets)
    assert same_bits(expected, got)
