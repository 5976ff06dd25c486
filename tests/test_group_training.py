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

from rankfed import client, harness
from rankfed.client import (ClientState, LocalTrainConfig, adapter_stack, group_sgd,
                            local_train, refresh_importances, sgd_epochs)
from rankfed.config import RunConfig
from rankfed.errors import InputError, NumericError, ParameterError
from rankfed.harness import (Setup, _FullModelRounds, _layers, _model_stack, _model_step,
                             records_jsonl, run_federated)
from rankfed.lora import AdapterSet, LoRAAdapter, init_adapter_set
from rankfed.model import (CLConfig, FrozenBase, OpCounter, Walk, _descend, forward,
                           random_base, sgd_step, supervised_loss_and_grads,
                           total_local_loss)
from rankfed.numerics import Rng, aligned_params
from rankfed.server import shard_weights, weighted_sum

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
        ref = _model_stack(mode.model, None)
        orders = [client.rng.substream("round", 5, "epoch", e, "shuffle")
                  .permutation(len(x)) for e in range(config.local_epochs)]
        ref_counter = OpCounter()
        ref.walk.counter = ref_counter
        ref_losses = sgd_epochs(_model_step(ref, setup.dataset.task, 0.1), x, y,
                                config.batch_size, orders)
        reference_ops += ref_counter.multiplies
        # each update is the client's whole row: every array and its padding
        assert group_updates[cid].tobytes() == solo.tobytes() == ref.params.buf.tobytes()
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


@pytest.mark.parametrize("clients, rank", [(2, 3), (3, 2)])
def test_group_refuses_a_stack_of_another_count_or_rank(clients, rank):
    states, base, cfg, adapters, anchor = make_group(CLConfig("none"))
    other = init_adapter_set(base.layer_shapes(), rank, 0.05, Rng(1))
    with pytest.raises(ParameterError, match=rf"\({clients}, {rank}\) cannot train "
                                             r"3 clients at rank 3"):
        local_train(states, base, adapters, anchor, cfg,
                    stack=adapter_stack(base, other, clients))


@pytest.mark.parametrize("method", ["ewc", "lwf"])
def test_a_kept_stack_restacks_the_operands_of_a_new_phase(method):
    """A stack kept across a phase change trains on the new phase's
    importances or stability-teacher logits, as a fresh stack does."""
    states, base, cfg, adapters, anchor = make_group(CLConfig(method, 0.4, 0.3))
    stack = adapter_stack(base, adapters, len(states))
    local_train(states, base, adapters, anchor, cfg, stack=stack)
    moved = [2.0 * d for d in anchor]
    for state in states:
        refresh_importances(state, base, moved, 2, cfg)
    kept, kept_losses = local_train(states, base, adapters, moved, cfg, stack=stack)
    fresh, fresh_losses = local_train(states, base, adapters, moved, cfg)
    assert list(map(factor_bytes, kept)) == list(map(factor_bytes, fresh))
    assert kept_losses == fresh_losses


def test_full_weight_group_needs_equal_shards():
    config = RunConfig(mode="fedavg-full", scheme="disjoint", num_clients=3, classes=4,
                       dim=8, n_per_class=30, pretrain_epochs=0).validate()
    setup = Setup(config)
    mode = _FullModelRounds(setup)
    assert [len(idx) for idx in setup.plan.client_indices] == [21, 21, 42]
    with pytest.raises(InputError, match="client 2: shard size 42 != group shard size 21"):
        mode.train_group([0, 2], replace(mode.local, eta=0.1, round_index=1), None)


def per_round_step(params, grads, task, eta):
    """The full-model step as each round built it before the stacks were
    kept: a walk on that round's fresh ``aligned_params`` pair, descending at
    the round's ``eta``."""
    walk, out = Walk(*_layers(params)), list(zip(*_layers(grads)))

    def step(epoch, xb, yb):
        loss, _ = supervised_loss_and_grads(walk, xb, yb, task, out)
        _descend(params.buf, grads.buf, eta)
        return loss

    return step


def two_groups_every_round(rounds):
    return all(len(groups) == 2 for groups in rounds)


def groups_change(rounds):
    return len({repr(groups) for groups in rounds}) > 1


def eight_in_a_group(rounds):
    return any(len(group) >= 8 for groups in rounds for group in groups)


DISJOINT = dict(scheme="disjoint", num_clients=3, classes=4, n_per_class=30)  # [21, 21, 42]

# (config overrides, what the rounds' groups must show)
FULL_MODEL_ROUNDS = {
    "two-groups": (DISJOINT, two_groups_every_round),
    "eta-decay": (dict(DISJOINT, eta_decay=0.9), two_groups_every_round),
    # shards [21, 42, 21, 42]: groups [0, 2] and [1, 3], summed as 0, 1, 2, 3
    "interleaved-groups": (dict(DISJOINT, num_clients=4, classes=6), two_groups_every_round),
    # shards [17, 17, 17, 17, 16], three a round
    "half-participation": (dict(scheme="iid", num_clients=5, classes=4, n_per_class=30,
                                participation=0.5, eta_decay=0.9), groups_change),
    "multilabel": (dict(task="multilabel", num_labels=4, n_samples=240, num_clients=4,
                        participation=0.5, eta_decay=0.9), groups_change),
    # a one-wide output bias, shards [32, 31 x 8]: numpy's client-axis
    # reduce of a lone column is pairwise from eight clients on, so a mean
    # taken by such a reduce would move this case's bits
    "one-label-nine-clients": (dict(task="multilabel", num_labels=1, n_samples=400,
                                    num_clients=9), eight_in_a_group),
}


@pytest.mark.parametrize("case", sorted(FULL_MODEL_ROUNDS))
def test_full_model_rounds_equal_a_per_round_reference(case, monkeypatch):
    """Every round's averaged model, trained in stacks kept across rounds and
    averaged from views of their slots, has the bytes of the per-round
    reference: a fresh ``aligned_params`` pair per group and round, and
    ``weighted_sum`` over the per-client arrays in client-id order."""
    overrides, covers = FULL_MODEL_ROUNDS[case]
    config = RunConfig(mode="fedavg-full", rounds=4, dim=8, pretrain_epochs=2,
                       local_epochs=2, batch_size=8, **overrides).validate()
    scored, evaluate = [], harness.evaluate

    def scoring(model, adapters, splits):
        scored.append([a.tobytes() for a in model.weights + model.biases])
        return evaluate(model, adapters, splits)

    monkeypatch.setattr(harness, "evaluate", scoring)
    run_federated(config)

    setup = Setup(config)
    clients, start = harness._clients(setup)
    sizes = [c.shard_size for c in clients]
    count = harness._participant_count(config)
    model, rounds = setup.base, []
    for t in range(1, config.rounds + 1):
        local = replace(start, round_index=t, eta=config.eta * config.eta_decay ** (t - 1))
        participants = harness._participants(config.num_clients, count, setup.root, t)
        rounds.append(harness._groups(participants, sizes))
        trained = {}
        for group in rounds[-1]:
            params, grads = aligned_params(model.weights + model.biases, len(group))
            group_sgd([clients[cid] for cid in group],
                      per_round_step(params, grads, local.task, local.eta), local)
            trained.update((cid, [m[i] for m in params.views]) for i, cid in enumerate(group))
        total = weighted_sum(shard_weights([sizes[cid] for cid in participants]),
                             (trained[cid] for cid in participants))
        assert scored[t - 1] == [a.tobytes() for a in total], f"round {t}"
        model = FrozenBase(total[:len(model.weights)], total[len(model.weights):])
    assert len(scored) == config.rounds and covers(rounds)


# The golden test's small network at seed 3: shards [21, 21, 42], so two
# groups a round, and two drops (rank 6 -> 4 -> 2) with each regularizer.
SMALL = dict(rounds=8, cooldown=2, pretrain_epochs=5, classes=4, dim=8, n_per_class=30,
             num_clients=3, scheme="disjoint", r_init=6, r_min=2, subtractor=2,
             hidden=(12,), seed=3, count_ops=True)
# four equal shards of 28, two clients a round: one group whose members change
HALF = dict(scheme="iid", num_clients=4, n_per_class=40, participation=0.5)


def drops(k):
    return lambda records, calls: sum(r.dropped for r in records) == k


def two_groups_each_round(records, calls):
    rounds = [t for t, _, _ in calls]
    return all(rounds.count(r.round) == 2 for r in records)


def members_change_in_a_kept_stack(records, calls):
    members = {}
    for _, ids, stack in calls:
        members.setdefault(id(stack), set()).add(tuple(ids))
    return any(len(kept) > 1 for kept in members.values())


# (config overrides, what the run must show)
ADAPTER_ROUNDS = {
    "ewc-two-drops": (dict(cl_method="ewc"), drops(2)),
    "mas": (dict(cl_method="mas"), drops(2)),
    # the stability teacher's logits are stacked from the first drop on
    "lwf-drop": (dict(cl_method="lwf"), drops(2)),
    "fixed-rank-lora": (dict(mode="fixed-rank-lora", cl_method="none", mu1=0.0, mu2=0.0),
                        two_groups_each_round),
    "half-participation": (dict(HALF, eta_decay=0.9), members_change_in_a_kept_stack),
    # shards [21, 42, 21, 42]: groups [0, 2] and [1, 3]
    "two-shard-sizes": (dict(num_clients=4, classes=6), two_groups_each_round),
}


def held_arrays(state, result):
    """Every array a ``ServerState`` and the ``RunResult`` hold."""
    arrays = [m for a in (*state.adapters, *result.final_adapters) for m in (a.B, a.A)]
    for layers in (state.accumulated, state.ema_pos, state.ema_neg):
        arrays += layers or []
    return arrays + list(result.base.weights + result.base.biases)


@pytest.mark.parametrize("case", sorted(ADAPTER_ROUNDS))
def test_adapter_rounds_equal_a_per_round_reference(case, monkeypatch):
    """Every round's global adapters, the records and the multiply count of a
    run whose groups train in stacks kept across rounds are the bytes of a
    reference run that trains each group and round in a fresh stack; no
    array the server state or the result holds is a view of a kept stack."""
    overrides, covers = ADAPTER_ROUNDS[case]
    config = RunConfig(**{**SMALL, **overrides}).validate()
    train, evaluate, server_round = client.local_train, harness.evaluate, harness.server_round

    def run(keep):
        calls, scored, states = [], [], []

        def local_train(states, base, adapters, anchor, local, counter, stack):
            calls.append((local.round_index, [s.client_id for s in states], stack))
            return train(states, base, adapters, anchor, local, counter,
                         stack if keep else None)

        def scoring(model, adapters, splits):
            scored.append(factor_bytes(adapters))
            return evaluate(model, adapters, splits)

        def serving(state, updates):
            states.append(server_round(state, updates))
            return states[-1]

        monkeypatch.setattr(harness, "local_train", local_train)
        monkeypatch.setattr(harness, "evaluate", scoring)
        monkeypatch.setattr(harness, "server_round", serving)
        return run_federated(config), calls, scored, states

    result, calls, scored, states = run(keep=True)
    reference, _, ref_scored, _ = run(keep=False)
    assert records_jsonl(result.records) == records_jsonl(reference.records)
    assert scored == ref_scored and len(scored) == config.rounds
    assert result.op_count == reference.op_count > 0
    assert covers(result.records, calls)
    kept = {id(stack): stack for _, _, stack in calls}.values()
    assert len(kept) < len(calls)  # some stack served more than one round
    for stack in kept:
        for state, _ in states:
            for a in held_arrays(state, result):
                assert not np.shares_memory(a, stack.params.buf), case
                assert not np.shares_memory(a, stack.grads.buf), case


def test_a_paper_run_builds_one_factor_stack_per_phase(monkeypatch):
    """The paper's run (the defaults: five equal shards, one group a round,
    60 rounds, two drops) builds a factor stack per (shard size, client
    count, rank), three in all, not one per round."""
    built, stacked = [], AdapterSet.stacked
    monkeypatch.setattr(AdapterSet, "stacked",
                        lambda self, c: built.append((c, self.nominal_rank)) or stacked(self, c))
    result = run_federated(RunConfig().validate())
    assert [r.round for r in result.records if r.dropped] == [44, 54]
    assert built == [(5, 8), (5, 6), (5, 4)]


def test_changing_members_restack_only_the_shards(monkeypatch):
    """Half participation: one group of two a round, its members drawn each
    round. The kept stack's factor buffers serve every round of a phase; only
    the shards (and phase operands) are stacked again, in each round whose
    members or phase differ from the last round's."""
    built, stacked = [], AdapterSet.stacked
    monkeypatch.setattr(AdapterSet, "stacked",
                        lambda self, c: built.append(c) or stacked(self, c))
    restacked, stack_shards = [], client._stacked_shards
    monkeypatch.setattr(client, "_stacked_shards",
                        lambda states: restacked.append(1) or stack_shards(states))
    members, train = [], client.local_train

    def local_train(states, *args):
        members.append([s.client_id for s in states])
        return train(states, *args)

    monkeypatch.setattr(harness, "local_train", local_train)
    result = run_federated(RunConfig(**{**SMALL, **HALF}).validate())
    phases = [r.phase for r in result.records]
    rounds = list(zip(members, phases))
    assert len(built) == len(set(phases)) == 2
    assert len(restacked) == 1 + sum(a != b for a, b in zip(rounds, rounds[1:]))
    assert len(restacked) < len(rounds) and len({tuple(m) for m in members}) > 2
