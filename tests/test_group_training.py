"""Group training: clients with equal shard sizes trained as one stacked step.

A client's adapters, epoch losses and multiply count must be the same bytes
whether it trains inside a group, in any order within the group, or alone.
"Alone" is checked two ways: as a group of one, and through a reference loop
that trains one client on 2-D arrays with the same kernels, rebuilding its
AdapterSet every step.
"""

from dataclasses import replace

import numpy as np
import pytest
from conftest import one_hot, walk_on

from rankfed.client import (ClientState, LocalTrainConfig, local_train,
                            refresh_importances, sgd_epochs)
from rankfed.config import RunConfig
from rankfed.errors import InputError, NumericError
from rankfed.harness import Setup, _full_model_step, _FullModelRounds
from rankfed.lora import AdapterSet, LoRAAdapter, init_adapter_set
from rankfed.model import (CLConfig, OpCounter, forward, random_base, sgd_step,
                           total_local_loss)
from rankfed.numerics import Rng, aligned_params

DIMS = (6, 10, 9, 4)
CFG = LocalTrainConfig(epochs=2, eta=0.1, batch_size=8, round_index=3)


def make_group(cl, task="multiclass", clients=3, n=20, seed=0):
    """Clients with equal shards on one base, the group's training settings,
    warm global adapters and a stability anchor that differs from them."""
    cfg = replace(CFG, cl=cl, task=task)
    root = Rng(seed)
    base = random_base(list(DIMS), root.substream("base"))
    states = []
    for cid in range(clients):
        s = root.substream("client-data", cid)
        x = s.substream("x").normal(n, DIMS[0])
        if task == "multiclass":
            y = one_hot(s.substream("y").integers(0, DIMS[-1], n), DIMS[-1])
        else:
            y = np.asarray(s.substream("y").integers(0, 2, (n, DIMS[-1])))
        states.append(ClientState(client_id=cid, features=x, labels=y,
                                  rng=root.substream("client", cid)))
    fresh = init_adapter_set(base.layer_shapes(), 3, 0.05, root.substream("adapters"))
    adapters = AdapterSet(tuple(
        LoRAAdapter(a.B + root.substream("wb", lid).normal(*a.B.shape, 0.05),
                    a.A) for lid, a in enumerate(fresh)), fresh.nominal_rank)
    anchor = [d + root.substream("sta", l).normal(*d.shape, 0.05)
              for l, d in enumerate(adapters.dense())]
    for state in states:
        refresh_importances(state, base, anchor, 1, cfg)
    return states, base, cfg, adapters, anchor


def train(states, base, cfg, adapters, anchor):
    counter = OpCounter()
    out, losses = local_train(states, base, adapters, anchor, cfg, counter)
    return out, losses, counter.multiplies


def train_reference(state, base, cfg, adapters, anchor):
    """One client on 2-D arrays, stepping a fresh AdapterSet each batch. Each
    LwF teacher's logits are formed on the whole shard once and indexed per
    batch."""
    counter = OpCounter()
    plasticity = None
    if cfg.cl.active:
        plasticity = adapters if cfg.cl.method == "lwf" else adapters.dense()
    if cfg.cl.method == "lwf":
        anchor, plasticity = (forward(base, teacher, state.features)[0]
                              for teacher in (anchor, plasticity))
    current = adapters
    losses = []
    for epoch in range(CFG.epochs):
        order = state.rng.substream("round", CFG.round_index, "epoch", epoch,
                                    "shuffle").permutation(state.shard_size)
        batch = []
        for start in range(0, state.shard_size, CFG.batch_size):
            idx = order[start:start + CFG.batch_size]
            anchors = ((anchor[idx], plasticity[idx]) if cfg.cl.method == "lwf"
                       else (anchor, plasticity))
            loss, grads = total_local_loss(
                walk_on(base, current, counter), state.features[idx], state.labels[idx],
                *anchors, state.importance, cfg.cl, cfg.task)
            current = AdapterSet(tuple(
                LoRAAdapter(a.B - CFG.eta * gB, a.A - CFG.eta * gA)
                for a, (gB, gA) in zip(current, grads)), current.nominal_rank)
            batch.append(loss)
        losses.append(float(np.mean(batch)))
    return current, losses, counter.multiplies


def factor_bytes(adapter_set):
    return [(a.B.tobytes(), a.A.tobytes()) for a in adapter_set]


CASES = {
    "ewc": (CLConfig("ewc", 0.4, 0.3), "multiclass"),
    "mas": (CLConfig("mas", 0.4, 0.3), "multiclass"),
    "lwf": (CLConfig("lwf", 0.4, 0.3, lwf_temperature=2.0), "multiclass"),
    "multilabel": (CLConfig("lwf", 0.4, 0.3), "multilabel"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_group_equals_each_client_alone(case):
    cl, task = CASES[case]
    states, base, cfg, adapters, anchor = make_group(cl, task)
    group_out, group_losses, group_ops = train(states, base, cfg, adapters, anchor)
    reference_ops = 0
    for state, out, losses in zip(states, group_out, group_losses):
        (solo,), (solo_losses,), solo_ops = train([state], base, cfg, adapters, anchor)
        ref, ref_losses, ref_ops = train_reference(state, base, cfg, adapters, anchor)
        reference_ops += ref_ops
        assert factor_bytes(out) == factor_bytes(solo) == factor_bytes(ref)
        assert losses == solo_losses == ref_losses
        assert solo_ops == ref_ops
    assert group_ops == reference_ops
    # both anchors were active: the result moved off the plain supervised one
    plain = [ClientState(s.client_id, s.features, s.labels, s.rng) for s in states]
    plain_out, _, _ = train(plain, base, replace(cfg, cl=CLConfig("none")),
                            adapters, anchor)
    assert factor_bytes(plain_out[0]) != factor_bytes(group_out[0])


@pytest.mark.parametrize("method", ["ewc", "mas"])
@pytest.mark.parametrize("mu2, epochs, formed", [(0.3, 2, 1), (0.0, 2, 0), (0.3, 0, 0)])
def test_plasticity_anchor_is_formed_only_for_a_step_that_uses_it(monkeypatch, method, mu2,
                                                                  epochs, formed):
    states, base, cfg, adapters, anchor = make_group(CLConfig(method, 0.4, mu2))
    calls = []
    dense = AdapterSet.dense
    monkeypatch.setattr(AdapterSet, "dense", lambda self: calls.append(self) or dense(self))
    local_train(states, base, adapters, anchor, replace(cfg, epochs=epochs))
    assert len(calls) == formed


def test_permuted_group_gives_the_same_per_client_results():
    states, base, cfg, adapters, anchor = make_group(CLConfig("ewc", 0.4, 0.3), clients=4)
    out, losses, _ = train(states, base, cfg, adapters, anchor)
    order = [2, 0, 3, 1]
    p_out, p_losses, _ = train([states[i] for i in order], base, cfg, adapters, anchor)
    for j, i in enumerate(order):
        assert factor_bytes(p_out[j]) == factor_bytes(out[i])
        assert p_losses[j] == losses[i]


def test_full_weight_group_equals_each_client_alone():
    check_full_weight_group(dict(scheme="iid", classes=4, n_per_class=30))


def test_multilabel_full_weight_group_equals_each_client_alone():
    check_full_weight_group(dict(task="multilabel", num_labels=4, n_samples=150))


def check_full_weight_group(data):
    """Three equal shards of the ``data`` settings, trained as a group, as
    groups of one and by a 2-D reference loop, give the same bytes."""
    config = RunConfig(mode="fedavg-full", num_clients=3, dim=8, pretrain_epochs=2,
                       local_epochs=2, batch_size=8, count_ops=True, **data).validate()
    setup = Setup(config)
    mode = _FullModelRounds(setup)
    assert len({len(idx) for idx in setup.plan.client_indices}) == 1

    local = replace(mode.local, eta=0.1, round_index=5)
    counter = OpCounter()
    group_updates, group_losses = mode.train_group([0, 1, 2], local, counter)
    reference_ops = 0
    for cid in range(3):
        (solo,), (solo_losses,) = mode.train_group([cid], local, OpCounter())
        # the reference: the same client's model trained on 2-D arrays, with
        # the dataset's own labels, as one-hot rows for multiclass (int 0/1
        # targets for multilabel)
        client = mode.clients[cid]
        x = client.features
        y = setup.dataset.train_y[setup.plan.client_indices[cid]]
        if setup.dataset.task == "multiclass":
            y = one_hot(y, setup.dataset.num_classes)
        params, grads = aligned_params(mode.model.weights + mode.model.biases)
        orders = [client.rng.substream("round", 5, "epoch", e, "shuffle")
                  .permutation(len(x)) for e in range(config.local_epochs)]
        ref_counter = OpCounter()
        ref_losses = sgd_epochs(
            _full_model_step(params, grads, setup.dataset.task, 0.1, ref_counter),
            x, y, config.batch_size, orders)
        reference_ops += ref_counter.multiplies
        (gw, gb), (sw, sb) = group_updates[cid], solo
        assert ([m.tobytes() for m in gw + gb] == [m.tobytes() for m in sw + sb]
                == [m.tobytes() for m in params.views])
        assert group_losses[cid] == solo_losses == [float(np.mean(losses))
                                                    for losses in ref_losses]
    assert counter.multiplies == reference_ops


def test_poisoned_client_loss_names_that_client():
    states, base, cfg, adapters, anchor = make_group(CLConfig("ewc", 0.4, 0.3))
    states[2].features[4, 2] = np.nan
    with pytest.raises(NumericError, match=r"client 2: non-finite loss at round 3, epoch 0"):
        train(states, base, cfg, adapters, anchor)


def test_poisoned_gradient_names_first_offending_client_and_layer():
    states, _, _, adapters, _ = make_group(CLConfig("none"))
    stack, params, grads = adapters.stacked(3)
    grads.views[5][1, 0, 0] = np.inf   # client 7, layer 2's A
    grads.views[2][2, 0, 0] = np.nan   # client 9, layer 1's B
    before = params.buf.copy()
    with pytest.raises(NumericError, match=r"client 7: non-finite gradient at layer 2"):
        sgd_step(params, grads, 0.1, [4, 7, 9])
    assert params.buf.tobytes() == before.tobytes()


def test_group_needs_equal_shards():
    states, base, cfg, adapters, anchor = make_group(CLConfig("none"))
    short = make_group(CLConfig("none"), n=12, clients=1)[0]
    with pytest.raises(InputError, match="shard size"):
        local_train([states[0], short[0]], base, adapters, anchor, cfg)


def test_full_weight_group_needs_equal_shards():
    config = RunConfig(mode="fedavg-full", scheme="disjoint", num_clients=3, classes=4,
                       dim=8, n_per_class=30, pretrain_epochs=0).validate()
    setup = Setup(config)
    mode = _FullModelRounds(setup)
    assert [len(idx) for idx in setup.plan.client_indices] == [21, 21, 42]
    with pytest.raises(InputError, match="client 2: shard size 42 != group shard size 21"):
        mode.train_group([0, 2], replace(mode.local, eta=0.1, round_index=1), None)
