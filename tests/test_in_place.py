"""The in-place update kernels against the out-of-place expressions they
replaced, bit for bit, and the backward walk that writes into given gradient
buffers against the allocating walk and a reference of fresh products.

Each reference below is the kernel's former expression, with a fresh
temporary per elementwise step. The kernels now scale or split into one
buffer; IEEE multiplication commutes and every operation is the same, so the
bytes must be too. The arrays hold signed zeros, subnormals and values large
enough to overflow, where a reordered or fused operation would show.
"""

import numpy as np
import pytest
from conftest import make_model, walk_on
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rankfed.lora import AdapterSet, LoRAAdapter
from rankfed.model import (CLConfig, ImportanceEstimate, Walk, _binary_cross_entropy,
                           _descend, _task_loss, estimate_fim, estimate_mas_importance,
                           forward, full_grads, lwf_penalty, quadratic_penalty, random_base,
                           sgd_step, supervised_loss_and_grads, total_local_loss)
from rankfed.numerics import Rng, aligned_params, logit_error, relu
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


def quadratic_reference(adapters, anchor, mu, importance):
    """One (anchor, mu) term's penalty and factor gradients with B @ A formed
    for that term alone."""
    penalty, grads = 0.0, []
    for a, anchor_l, imp in zip(adapters, anchor, importance.matrices):
        diff = (a.B @ a.A) - anchor_l
        penalty += 0.5 * mu * np.sum(imp * diff * diff, axis=(-2, -1))
        d_dense = mu * imp * diff
        grads.append((d_dense @ a.A.swapaxes(-1, -2), a.B.swapaxes(-1, -2) @ d_dense))
    return penalty, grads


def lwf_reference(t_logits, s_logits, mu, tau, task):
    """``lwf_penalty``'s former expressions, a fresh temporary per step."""
    n, L = s_logits.shape[-2:]
    if task == "multiclass":
        t = t_logits / tau
        t = t - t.max(axis=-1, keepdims=True)
        t = np.exp(t)
        t = t / t.sum(axis=-1, keepdims=True)
        s_shift = s_logits / tau
        s_shift = s_shift - s_shift.max(axis=-1, keepdims=True)
        e = np.exp(s_shift)
        total = e.sum(axis=-1, keepdims=True)
        log_s = s_shift - np.log(total)
        penalty = mu * (np.add.reduce(-np.sum(t * log_s, axis=-1), axis=-1) / n)
        return penalty, mu * (e / total - t) / (n * tau)
    t = 0.5 * (1.0 + np.tanh(0.5 * (t_logits / tau)))
    z = s_logits / tau
    penalty = mu * _binary_cross_entropy(z, t)
    return penalty, mu * (0.5 * (1.0 + np.tanh(0.5 * z)) - t) / (n * L * tau)


def flat_pair(params, grads):
    """``params`` and ``grads`` copied into an ``aligned_params`` pair."""
    flat, flat_grads = aligned_params(params)
    for view, g in zip(flat_grads.views, grads):
        view[...] = g
    return flat, flat_grads


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
    params, flat_grads = flat_pair(factors, grads)  # two layers' B, A for 2 clients
    with np.errstate(all="ignore"):
        expected = step_reference(factors, grads, eta)
        sgd_step(params, flat_grads, eta, [0, 1])
    assert all(same_bits(e, g) for e, g in zip(expected, params.views))


@settings(max_examples=60, deadline=None)
@given(weights=matrices(2, (4, 3)), biases=matrices(2, (4,)),
       w_grads=matrices(2, (4, 3)), b_grads=matrices(2, (4,)),
       eta=st.one_of(st.sampled_from([0.0, 0.05, 1.0]), st.floats(0.0, 10.0)))
def test_descend_equals_its_reference(weights, biases, w_grads, b_grads, eta):
    params, grads = flat_pair(weights + biases, w_grads + b_grads)
    with np.errstate(all="ignore"):
        expected = step_reference(weights + biases, w_grads + b_grads, eta)
        _descend(params.buf, grads.buf, eta)
    assert all(same_bits(e, g) for e, g in zip(expected, params.views))


@settings(max_examples=60, deadline=None)
@given(logits=arrays(np.float64, (3, 4), elements=FLOATS),
       labels=st.lists(st.integers(0, 3), min_size=3, max_size=3))
def test_softmax_error_equals_its_reference(logits, labels):
    targets = np.eye(4)[labels]
    with np.errstate(all="ignore"):
        shifted = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        expected = e / e.sum(axis=-1, keepdims=True) - targets
        got = logit_error(logits, targets, "multiclass")
    assert same_bits(expected, got)


@settings(max_examples=60, deadline=None)
@given(bs=matrices(2, (2, 3, 2)), as_=matrices(2, (2, 2, 4)), imps=matrices(2, (2, 3, 4)),
       stability=matrices(2, (3, 4)), plasticity=matrices(2, (3, 4)),
       mus=st.tuples(st.floats(1e-3, 10.0), st.floats(1e-3, 10.0)))
def test_quadratic_penalty_equals_its_reference(bs, as_, imps, stability, plasticity, mus):
    # two layers of a set stacked for 2 clients, both terms in one call
    adapters = AdapterSet(tuple(LoRAAdapter(B, A) for B, A in zip(bs, as_)), 2)
    importance = ImportanceEstimate(tuple(np.abs(m) for m in imps))
    terms = [(stability, mus[0]), (plasticity, mus[1])]
    with np.errstate(all="ignore"):
        expected = [quadratic_reference(adapters, *term, importance) for term in terms]
        got = quadratic_penalty(adapters, terms, importance)
    for (p_e, grads_e), (p_g, grads_g) in zip(expected, got):
        assert same_bits(p_e, p_g)
        assert all(same_bits(e, g) for pair_e, pair_g in zip(grads_e, grads_g)
                   for e, g in zip(pair_e, pair_g))


@settings(max_examples=80, deadline=None)
@given(shape=st.sampled_from([(3, 4), (2, 3, 4)]), data=st.data(),
       mu=st.floats(1e-3, 10.0), tau=st.sampled_from([1.0, 1.5]),
       task=st.sampled_from(["multiclass", "multilabel"]))
def test_lwf_penalty_equals_its_reference(shape, data, mu, tau, task):
    # 2-D and client-stacked logits of teacher and student
    t_logits, s_logits = (data.draw(arrays(np.float64, shape, elements=FLOATS))
                          for _ in range(2))
    with np.errstate(all="ignore"):
        expected = lwf_reference(t_logits, s_logits, mu, tau, task)
        got = lwf_penalty(t_logits, s_logits, mu, tau, task)
    assert all(same_bits(e, g) for e, g in zip(expected, got))


# --- the backward walk into given buffers ---------------------------------------

def walk_reference(walk, dz):
    """The backward walk as fresh products: per layer, the (B, A) gradients
    on the factor path, else the (weight, bias) gradients."""
    grads = [None] * len(walk.weights)
    for l in reversed(range(len(walk.weights))):
        h = walk.hs[l]
        if walk.kind == "factor":
            B, A = walk.items[l]
            dzB = dz @ B
            grads[l] = (dz.swapaxes(-1, -2) @ walk.hA[l], dzB.swapaxes(-1, -2) @ h)
            dh = dz @ walk.weights[l] + dzB @ A
        else:
            grads[l] = (dz.swapaxes(-1, -2) @ h, np.sum(dz, axis=-2))
            dh = dz @ walk.weights[l]
        dz = dh * (1.0 - h ** 2)
    return grads


def poison(flat):
    """Fill every view of ``flat`` with NaN, so that an unwritten entry shows."""
    for view in flat.views:
        view[...] = np.nan


@pytest.mark.parametrize("task", ["multiclass", "multilabel"])
@pytest.mark.parametrize("clients", [None, 3], ids=["one", "client-stacked"])
def test_full_gradients_into_buffers_equal_the_allocating_path(task, clients):
    rng = Rng(11)
    init = random_base([5, 9, 7, 4], rng.substream("base"))
    params, grads = aligned_params(init.weights + init.biases, clients)
    layers = len(init.weights)
    weights, biases = params.views[:layers], params.views[layers:]
    out = list(zip(grads.views[:layers], grads.views[layers:]))
    rows = (clients, 6) if clients else (6,)
    x = rng.substream("x").normal(6 * (clients or 1), 5).reshape(*rows, 5)
    y = (np.eye(4)[rng.substream("y").integers(0, 4, rows)] if task == "multiclass"
         else (rng.substream("y").uniform(rows + (4,)) < 0.5) * 1.0)

    walk = Walk(weights, biases)
    reference = walk_reference(walk, _task_loss(walk.forward(x), y, task)[1])
    expected = [g.tobytes() for pair in zip(*reference) for g in pair]
    assert [g.tobytes() for side in zip(*full_grads(Walk(weights, biases), x, y, task))
            for g in side] == expected
    poison(grads)
    full_grads(Walk(weights, biases), x, y, task, out)
    assert [g.tobytes() for g in grads.views] == expected
    loss, allocated = supervised_loss_and_grads(Walk(weights, biases), x, y, task)
    assert [g.tobytes() for side in zip(*allocated) for g in side] == expected
    poison(grads)
    in_place_loss, _ = supervised_loss_and_grads(Walk(weights, biases), x, y, task, out)
    assert [g.tobytes() for g in grads.views] == expected
    assert np.asarray(in_place_loss).tobytes() == np.asarray(loss).tobytes()


@pytest.mark.parametrize("method", ["none", "ewc", "mas", "lwf"])
def test_total_local_loss_into_buffers_equals_the_allocating_path(rng, method):
    base, adapters, x, y = make_model(rng, dims=(5, 9, 7, 4))
    stack, _, grads = adapters.stacked(2)
    xs, ys = np.stack([x, -0.5 * x]), np.stack([y, y[::-1]])
    teacher = AdapterSet(tuple(LoRAAdapter(a.B + 0.1, a.A) for a in adapters),
                         adapters.nominal_rank)
    importance = None
    if method == "lwf":
        anchors = forward(base, teacher, xs)[0], forward(base, adapters, xs)[0]
    else:
        anchors = teacher.dense(), adapters.dense()
        estimate = (estimate_fim(base, teacher, x, y) if method == "ewc"
                    else estimate_mas_importance(base, teacher, x))
        importance = ImportanceEstimate(tuple(np.stack([m, 2.0 * m])
                                              for m in estimate.matrices))
    cl = CLConfig(method, 0.4, 0.3, lwf_temperature=2.0)
    out = list(zip(grads.views[::2], grads.views[1::2]))

    loss, allocated = total_local_loss(walk_on(base, stack), xs, ys, *anchors, importance,
                                       cl)
    expected = [g.tobytes() for pair in allocated for g in pair]
    poison(grads)
    in_place_loss, _ = total_local_loss(walk_on(base, stack), xs, ys, *anchors, importance,
                                        cl, "multiclass", out)
    assert [g.tobytes() for g in grads.views] == expected
    assert in_place_loss.tobytes() == loss.tobytes()
    if method == "none":
        walk = walk_on(base, stack)
        reference = walk_reference(walk, _task_loss(walk.forward(xs), ys, "multiclass")[1])
        assert [g.tobytes() for pair in reference for g in pair] == expected
