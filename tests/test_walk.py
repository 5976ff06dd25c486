"""The training walk built once per trained set, and the logit-error kernels
every descent step calls.

Each training loop builds one ``model.Walk`` for its trained set and passes it
to every step's loss-and-gradient call: the walk holds views of the set's
arrays, which every descent updates in place. The references below run the
same loops through the same calls with a fresh walk built on every step, and
must give the same bytes and the same multiply counts. The kernel tests pin the trimmed
kernels to the expressions they replaced, on signed zeros, subnormals and
values near overflow.
"""

import re
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from conftest import one_hot
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_group_training import make_group

from rankfed import client, harness, model
from rankfed.client import group_sgd, local_train, sgd_epochs
from rankfed.config import RunConfig
from rankfed.data import generate_multilabel, generate_synthetic
from rankfed.errors import InputError, ShapeError
from rankfed.harness import (Setup, _FullModelRounds, _layers, pretrain_base, records_jsonl,
                             run_federated)
from rankfed.model import (CLConfig, ImportanceEstimate, OpCounter, Walk, _descend,
                           _mean_loss_gradient, forward, full_grads, random_base, sgd_step,
                           supervised_loss_and_grads, total_local_loss)
from rankfed.numerics import (Rng, _softmax_terms, aligned_params, logit_error, sigmoid,
                              softmax, softmax_cross_entropy)

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
         1e300, -1e300, 1.7976931348623157e308]
FLOATS = st.one_of(st.sampled_from(EDGES),
                   st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False))
SHAPES = st.sampled_from([(3, 4), (2, 3, 4)])  # 2-D and client-stacked


# --- a walk built once against a walk built on every step ------------------

def pretrain_walk_per_step(dataset, epochs, rng, eta, batch_size, hidden):
    """``pretrain_base``'s loop on the same aligned buffers, stepping through
    ``full_grads`` with a walk built per step."""
    init = random_base([dataset.dim, *hidden, dataset.num_classes], rng)
    params, grads = aligned_params(init.weights + init.biases)
    model, out = _layers(params), list(zip(*_layers(grads)))
    targets = (one_hot(dataset.train_y, dataset.num_classes) if dataset.task == "multiclass"
               else dataset.train_y.astype(np.float64))
    orders = (rng.substream("pretrain-shuffle", epoch).permutation(len(dataset.train_x))
              for epoch in range(epochs))

    def step(epoch, xb, yb):
        full_grads(Walk(*model), xb, yb, dataset.task, out)
        _descend(params.buf, grads.buf, eta)

    sgd_epochs(step, dataset.train_x, targets, batch_size, orders)
    return [m.tobytes() for m in params.views]


@pytest.mark.parametrize("task", ["multiclass", "multilabel"])
def test_pretraining_walk_built_once_equals_one_per_step(task):
    ds = (generate_synthetic(4, 8, 30, 2.0, Rng(0).substream("d")) if task == "multiclass"
          else generate_multilabel(150, 8, 5, Rng(0).substream("d")))
    run = (3, Rng(0).substream("p"), 0.05, 16, (12, 9))  # epochs, rng, eta, batch, hidden
    base = pretrain_base(ds, *run)
    expected = pretrain_walk_per_step(ds, *run)
    assert [m.tobytes() for m in base.weights + base.biases] == expected


@pytest.mark.parametrize("task", ["multiclass", "multilabel"])
def test_full_model_group_walk_built_once_equals_one_per_step(task):
    data = (dict(scheme="iid", classes=4, n_per_class=30) if task == "multiclass"
            else dict(task="multilabel", num_labels=4, n_samples=150))
    config = RunConfig(mode="fedavg-full", num_clients=3, dim=8, pretrain_epochs=2,
                       local_epochs=3, batch_size=8, count_ops=True, **data).validate()
    mode = _FullModelRounds(Setup(config))
    local = replace(mode.local, eta=0.1, round_index=5)
    counter = OpCounter()
    updates, losses = mode.train_group([0, 1, 2], local, counter)

    # the same client-stacked buffers, stepped through a walk built per step
    params, grads = aligned_params(mode.model.weights + mode.model.biases, 3,
                                   client_major=True)
    (weights, biases), out = _layers(params), list(zip(*_layers(grads)))
    ref_counter = OpCounter()

    def step(epoch, xb, yb):
        loss, _ = supervised_loss_and_grads(Walk(weights, biases, counter=ref_counter),
                                            xb, yb, local.task, out)
        _descend(params.buf, grads.buf, local.eta)
        return loss

    ref_losses = group_sgd([mode.clients[cid] for cid in range(3)], step, local)
    assert [row.tobytes() for row in updates] == [row.tobytes() for row in
                                                  params.buf.reshape(3, -1)]
    assert losses == ref_losses
    assert counter.multiplies == ref_counter.multiplies > 0


def local_train_walk_per_step(states, base, global_adapters, stability_anchor, config,
                              counter):
    """``local_train``'s loop on the same stacked factor buffers, stepping
    through ``total_local_loss`` with a walk built per step."""
    ids = [s.client_id for s in states]
    importance = None
    if all(s.importance is not None for s in states):
        importance = ImportanceEstimate(tuple(
            np.stack(ms) for ms in zip(*(s.importance.matrices for s in states))))
    adapters, params, grads = global_adapters.stacked(len(states))
    out = list(zip(grads.views[::2], grads.views[1::2]))
    cl, rows = config.cl, []
    stability, plasticity = stability_anchor, None
    if cl.method not in ("none", "lwf"):
        plasticity = global_adapters.dense()
    elif cl.method == "lwf":
        stability = np.stack([s.stability_logits for s in states])
        plasticity = np.stack([forward(base, global_adapters, s.features)[0]
                               for s in states])
        rows = [stability, plasticity]

    def step(epoch, x, y, *batch_rows):
        anchors = batch_rows or (stability, plasticity)
        walk = Walk(base.weights, base.biases, adapters, counter)
        loss, _ = total_local_loss(walk, x, y, *anchors, importance, cl, config.task, out)
        sgd_step(params, grads, config.eta, ids)
        return loss

    losses = group_sgd(states, step, config, *rows)
    return [adapters.client(i) for i in range(len(states))], losses


@pytest.mark.parametrize("method", ["none", "ewc", "lwf"])
def test_local_train_walk_built_once_equals_one_per_step(method):
    cl = CLConfig(method, 0.4, 0.3, lwf_temperature=1.5)
    states, base, cfg, adapters, anchor = make_group(cl)  # caches each phase's terms
    counter, ref_counter = OpCounter(), OpCounter()
    got, losses = local_train(states, base, adapters, anchor, cfg, counter)
    expected, ref_losses = local_train_walk_per_step(states, base, adapters, anchor, cfg,
                                                     ref_counter)
    assert [(a.B.tobytes(), a.A.tobytes()) for s in got for a in s] == \
        [(a.B.tobytes(), a.A.tobytes()) for s in expected for a in s]
    assert losses == ref_losses
    assert counter.multiplies == ref_counter.multiplies > 0


def test_reused_walk_counts_k_steps_as_k_times_one():
    rng = Rng(3)
    init = random_base([5, 9, 4], rng.substream("base"))
    x = rng.substream("x").normal(6, 5)
    y = one_hot(rng.substream("y").integers(0, 4, 6), 4)
    counts = []
    for k in (1, 4):
        params, grads = aligned_params(init.weights + init.biases)
        counter = OpCounter()
        walk = Walk(*_layers(params), counter=counter)
        out = list(zip(*_layers(grads)))
        for _ in range(k):
            full_grads(walk, x, y, "multiclass", out)
            _descend(params.buf, grads.buf, 0.1)
        counts.append(counter.multiplies)
    assert counts[1] == 4 * counts[0] > 0


# --- every loop steps through the names the benchmark's tracer wraps --------

TRACED = (  # each loss-and-gradient name, then each descent that ends a step
    (client, "total_local_loss"), (model, "supervised_loss_and_grads"),
    (harness, "full_loss_and_grads"), (harness, "full_grads"),
    (client, "sgd_step"), (harness, "_descend"),
)
DESCENTS = ("sgd_step", "_descend")
PRETRAIN_STEP = ("full_grads", "_descend")


def traced_run(monkeypatch, config):
    """The run's ``records.jsonl`` text and its steps counted by what each
    called: a tuple of the traced names called since the last descent, ending
    in that descent."""
    events = []

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module, name in TRACED:
        monkeypatch.setattr(module, name, counted(getattr(module, name), name))
    records = records_jsonl(run_federated(config).records)
    steps, calls = Counter(), []
    for name in events:
        calls.append(name)
        if name in DESCENTS:
            steps[tuple(calls)] += 1
            calls = []
    assert calls == []  # no call outside a step
    return records, steps


@pytest.mark.parametrize("overrides, step", [
    (dict(cl_method="ewc"), ("total_local_loss", "supervised_loss_and_grads", "sgd_step")),
    (dict(cl_method="lwf"), ("total_local_loss", "sgd_step")),
    (dict(mode="fedavg-full"), ("full_loss_and_grads", "_descend")),
], ids=["spd-cfl-ewc", "spd-cfl-lwf", "fedavg-full"])
def test_every_loop_steps_through_the_traced_names(monkeypatch, overrides, step):
    config = RunConfig(rounds=2, classes=4, dim=8, n_per_class=30, num_clients=2,
                       r_init=4, r_min=2, subtractor=2, pretrain_epochs=2, local_epochs=2,
                       **overrides).validate()
    expected = records_jsonl(run_federated(config).records)
    records, steps = traced_run(monkeypatch, config)
    # each name is called once per step of its loop and by no other step
    assert set(steps) == {PRETRAIN_STEP, step}
    assert steps[PRETRAIN_STEP] > 0 and steps[step] > 0
    assert records == expected


# --- the trimmed logit-error kernels ------------------------------------------

@st.composite
def logits_and_targets(draw, one_hot_rows):
    shape = draw(SHAPES)
    z = draw(arrays(np.float64, shape, elements=FLOATS))
    if one_hot_rows:
        y = np.eye(shape[-1])[draw(arrays(np.int64, shape[:-1],
                                          elements=st.integers(0, shape[-1] - 1)))]
    else:
        y = draw(arrays(np.float64, shape, elements=st.sampled_from([0.0, 1.0, 0.25])))
    return z, y


@settings(max_examples=80, deadline=None)
@given(zy=logits_and_targets(one_hot_rows=True))
def test_softmax_error_equals_the_cross_entropy_terms(zy):
    z, y = zy
    with np.errstate(all="ignore"):
        expected = _softmax_terms(z)[0] - y
        got = logit_error(z, y, "multiclass")
        scaled = _mean_loss_gradient(z, y, "multiclass")
    assert got.tobytes() == expected.tobytes()
    assert scaled.tobytes() == (expected / z.shape[-2]).tobytes()


@settings(max_examples=80, deadline=None)
@given(zy=logits_and_targets(one_hot_rows=False))
def test_multilabel_gradient_equals_its_expression(zy):
    z, y = zy
    n, L = z.shape[-2:]
    with np.errstate(all="ignore"):
        expected = (0.5 * (1 + np.tanh(0.5 * z)) - y) / (n * L)
        got = _mean_loss_gradient(z, y, "multilabel")
    assert got.tobytes() == expected.tobytes()


@st.composite
def row_arrays(draw):
    """[n, L] or client-stacked [C, n, L] floats, of odd sizes too."""
    shape = draw(st.one_of(st.tuples(st.integers(1, 6), st.integers(1, 9)),
                           st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 9))))
    return draw(arrays(np.float64, shape, elements=FLOATS))


@settings(max_examples=120, deadline=None)
@given(z=row_arrays())
def test_shared_sigmoid_and_softmax_equal_their_old_forms(z):
    # the multilabel generator's labels and every softmax caller read these bits
    with np.errstate(all="ignore"):
        old_sigmoid = 0.5 * (1.0 + np.tanh(0.5 * z))
        old_softmax = z - z.max(axis=-1, keepdims=True)
        np.exp(old_softmax, out=old_softmax)
        old_softmax /= old_softmax.sum(axis=-1, keepdims=True)
        got_sigmoid, got_softmax = sigmoid(z), softmax(z)
    assert got_sigmoid.tobytes() == old_sigmoid.tobytes()
    assert got_softmax.tobytes() == old_softmax.tobytes()


@pytest.mark.parametrize("kernel", [
    pytest.param(partial(logit_error, task="multiclass"), id="logit_error"),
    softmax_cross_entropy])
@pytest.mark.parametrize("logits, targets, error, message", [
    (np.zeros(4), np.zeros(4), ShapeError,
     "logits must be 2-D or client-stacked 3-D, got (4,)"),
    (np.zeros((3, 4)), np.zeros((3, 5)), ShapeError,
     "targets shape (3, 5) != logits shape (3, 4)"),
    (np.zeros((0, 4)), np.zeros((0, 4)), InputError, "empty batch"),
])
def test_softmax_kernels_keep_their_checks(kernel, logits, targets, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        kernel(logits, targets)


def test_sigmoid_error_keeps_its_check():
    with pytest.raises(ShapeError,
                       match=re.escape("targets shape (3, 5) != logits shape (3, 4)")):
        logit_error(np.zeros((3, 4)), np.zeros((3, 5)), "multilabel")
