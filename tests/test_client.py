from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from conftest import one_hot

import rankfed.client
import rankfed.harness
from rankfed.client import (ClientState, LocalTrainConfig, local_train,
                            refresh_importances, sgd_epochs)
from rankfed.config import RunConfig
from rankfed.errors import InputError
from rankfed.harness import run_federated
from rankfed.lora import AdapterSet, init_adapter_set
from rankfed.model import CLConfig, estimate_fim, forward, random_base
from rankfed.numerics import Rng


def make_client(seed=0, n=40, dims=(6, 10, 4), warm=0.0):
    """A client, the frozen base it trains on, and global adapters."""
    root = Rng(seed)
    base = random_base(list(dims), root.substream("base"))
    x = root.substream("x").normal(n, dims[0])
    y = one_hot(root.substream("y").integers(0, dims[-1], n), dims[-1])
    state = ClientState(client_id=0, features=x, labels=y,
                        rng=root.substream("client", 0))
    adapters = init_adapter_set(base.layer_shapes(), 3, 0.02,
                                root.substream("adapters"))
    if warm > 0:
        from rankfed.lora import AdapterSet, LoRAAdapter
        adapters = AdapterSet(tuple(
            LoRAAdapter(a.B + root.substream("wb", lid).normal(*a.B.shape, warm),
                        a.A + root.substream("wa", lid).normal(*a.A.shape, warm))
            for lid, a in enumerate(adapters)), adapters.nominal_rank)
    return state, base, adapters


def train_alone(state, base, adapters, anchor, cfg):
    """``local_train`` on a group of one; returns that client's result."""
    (out,), (losses,) = local_train([state], base, adapters, anchor, cfg)
    return out, losses


def ewc_settings(mu1=0.1, mu2=0.1):
    return LocalTrainConfig(1, 0.1, 8, cl=CLConfig("ewc", mu1, mu2))


class TestLocalTrain:
    def test_zero_epochs_is_noop(self):
        state, base, adapters = make_client()
        out, losses = train_alone(state, base, adapters, None,
                                  LocalTrainConfig(0, 0.1, 16))
        assert losses == []
        for a, b in zip(out, adapters):
            assert np.array_equal(a.B, b.B) and np.array_equal(a.A, b.A)

    def test_disabled_regularizers_match_plain_lora_bitwise(self):
        plain_state, base, adapters = make_client(seed=3)
        reg_state, _, _ = make_client(seed=3)
        cfg = LocalTrainConfig(2, 0.1, 8, round_index=4, cl=CLConfig("none"))
        anchor = [np.asarray(d) + 0.05 for d in adapters.dense()]
        out_plain, tr_plain = train_alone(plain_state, base, adapters, None, cfg)
        out_reg, tr_reg = train_alone(reg_state, base, adapters, anchor,
                                      replace(cfg, cl=CLConfig("ewc", 0.0, 0.0)))
        assert tr_plain == tr_reg
        for a, b in zip(out_plain, out_reg):
            assert np.array_equal(a.B, b.B) and np.array_equal(a.A, b.A)

    def test_strong_stability_anchor_pins_adapters(self):
        mu = 1e6
        state, base, adapters = make_client(seed=5, warm=0.3)
        pin = ewc_settings(mu, 0.0)
        anchor = adapters.dense()
        refresh_importances(state, base, adapters, 1, pin)
        # step size inside the quadratic stability bound eta * mu * F_max < 2
        f_max = max(float(np.max(m)) for m in state.importance.matrices)
        cfg = LocalTrainConfig(40, 0.2 / (mu * f_max), 8, round_index=1)
        out, _ = train_alone(state, base, adapters, anchor, replace(cfg, cl=pin.cl))

        def drift(result):
            return np.linalg.norm(np.concatenate(
                [(d - a).ravel() for d, a in zip(result.dense(), anchor)]))

        pinned = drift(out)
        free_state, _, _ = make_client(seed=5, warm=0.3)
        unpinned = drift(train_alone(free_state, base, adapters, None, cfg)[0])
        assert pinned < 1e-3
        assert unpinned > 5 * pinned  # the anchor, not the step size, pins

    def test_rank_preserved(self):
        state, base, adapters = make_client()
        out, _ = train_alone(state, base, adapters, None, LocalTrainConfig(1, 0.1, 16))
        assert out.nominal_rank == adapters.nominal_rank
        assert out.shapes() == adapters.shapes()

    def test_loss_decreases_over_epochs(self):
        state, base, adapters = make_client(seed=9, warm=0.2)
        _, losses = train_alone(state, base, adapters, None,
                                LocalTrainConfig(8, 0.05, 16, round_index=1))
        assert losses[-1] < losses[0]

    def test_deterministic_and_schedule_independent(self):
        cfg = LocalTrainConfig(2, 0.1, 8, round_index=7)

        def run_one(_):
            state, base, adapters = make_client(seed=11)
            out, losses = train_alone(state, base, adapters, None, cfg)
            return out, losses

        serial = [run_one(i) for i in range(3)]
        with ThreadPoolExecutor(max_workers=3) as pool:
            threaded = list(pool.map(run_one, range(3)))
        ref_out, ref_losses = serial[0]
        for out, losses in serial + threaded:
            assert losses == ref_losses
            for a, b in zip(out, ref_out):
                assert np.array_equal(a.B, b.B) and np.array_equal(a.A, b.A)

    def test_batch_order_depends_on_round(self):
        state1, base, adapters = make_client(seed=13)
        state2, _, _ = make_client(seed=13)
        out1, _ = train_alone(state1, base, adapters, None,
                              LocalTrainConfig(1, 0.1, 8, round_index=1))
        out2, _ = train_alone(state2, base, adapters, None,
                              LocalTrainConfig(1, 0.1, 8, round_index=2))
        assert any(not np.array_equal(a.B, b.B) for a, b in zip(out1, out2))


class TestRefreshImportances:
    def test_idempotent_within_phase(self):
        state, base, adapters = make_client()
        refresh_importances(state, base, adapters, 1, ewc_settings())
        first = [m.copy() for m in state.importance.matrices]
        refresh_importances(state, base, adapters, 1, ewc_settings())
        for a, b in zip(first, state.importance.matrices):
            assert np.array_equal(a, b)

    def test_new_phase_recomputes(self):
        state, base, adapters = make_client()
        refresh_importances(state, base, adapters, 1, ewc_settings())
        anchor2 = [np.asarray(d) + 0.3 for d in adapters.dense()]
        refresh_importances(state, base, anchor2, 2, ewc_settings())
        assert state.importance_phase == 2

    def test_lwf_has_no_importance_cache(self):
        state, base, adapters = make_client()
        refresh_importances(state, base, adapters, 1,
                            LocalTrainConfig(1, 0.1, 8, cl=CLConfig("lwf", 0.1, 0.1)))
        assert state.importance is None
        assert state.importance_phase == 1

    def test_lwf_caches_the_stability_teachers_logits(self):
        state, base, adapters = make_client()
        lwf = LocalTrainConfig(1, 0.1, 8, cl=CLConfig("lwf", 0.1, 0.1))
        refresh_importances(state, base, None, 1, lwf)  # no anchor yet
        assert state.stability_logits is None
        anchor = [np.asarray(d) + 0.3 for d in adapters.dense()]
        refresh_importances(state, base, anchor, 2, lwf)
        expected = forward(base, anchor, state.features)[0]
        assert state.stability_logits.tobytes() == expected.tobytes()
        refresh_importances(state, base, adapters, 2, lwf)  # same phase: kept
        assert state.stability_logits.tobytes() == expected.tobytes()
        refresh_importances(state, base, anchor, 3,
                            replace(lwf, cl=CLConfig("lwf", 0.0, 0.1)))
        assert state.stability_logits is None and state.importance_phase == 3

    def test_lwf_stability_term_needs_the_cache(self):
        state, base, adapters = make_client()
        anchor = [np.asarray(d) + 0.3 for d in adapters.dense()]
        cfg = LocalTrainConfig(1, 0.1, 8, cl=CLConfig("lwf", 0.1, 0.1))
        with pytest.raises(InputError, match="client 0: the LwF stability term"):
            train_alone(state, base, adapters, anchor, cfg)

    def test_single_sample_shard_matches_fim(self):
        state, base, adapters = make_client(n=1)
        refresh_importances(state, base, adapters, 1, ewc_settings())
        direct = estimate_fim(base, adapters, state.features, state.labels)
        for a, b in zip(state.importance.matrices, direct.matrices):
            assert np.array_equal(a, b)


class TestClientState:
    def test_empty_shard_rejected(self):
        root = Rng(0)
        with pytest.raises(InputError):
            ClientState(client_id=0,
                        features=np.zeros((0, 4)), labels=np.zeros(0, dtype=int),
                        rng=root)


class TestSgdEpochs:
    @pytest.mark.parametrize("clients", [None, 3])
    def test_extra_rows_are_gathered_with_the_batch_index(self, clients):
        # n = 11 with batches of 4: the last batch is short
        n, batch_size, lead = 11, 4, () if clients is None else (clients,)
        root = Rng(2)
        c = clients or 1
        x = root.substream("x").normal(c * n, 5).reshape(*lead, n, 5)
        y = np.arange(c * n).reshape(*lead, n)
        rows = root.substream("rows").normal(c * n, 3).reshape(*lead, n, 3)
        perms = [[root.substream("order", e, i).permutation(n) for i in range(c)]
                 for e in range(2)]
        orders = [np.stack(p) if clients else p[0] for p in perms]
        seen = []
        sgd_epochs(lambda epoch, *batch: seen.append((epoch, batch)),
                   x, y, batch_size, orders, rows)
        starts = range(0, n, batch_size)
        assert [e for e, _ in seen] == [e for e in range(2) for _ in starts]
        for (epoch, (xb, yb, rb)), start in zip(seen, [*starts] * 2):
            for i in range(c):
                idx = perms[epoch][i][start:start + batch_size]
                at = (i,) if clients else ()
                assert xb[at].tobytes() == x[at][idx].tobytes()
                assert yb[at].tobytes() == y[at][idx].tobytes()
                assert rb[at].tobytes() == rows[at][idx].tobytes()

    @pytest.mark.parametrize("clients", [None, 3])
    def test_a_none_row_keeps_its_slot(self, clients):
        # LwF without a stability teacher hands (None, plasticity) or the reverse
        n, lead = 11, () if clients is None else (clients,)
        root = Rng(5)
        c = clients or 1
        x = root.substream("x").normal(c * n, 5).reshape(*lead, n, 5)
        y = np.arange(c * n).reshape(*lead, n)
        teacher = root.substream("t").normal(c * n, 3).reshape(*lead, n, 3)
        orders = [np.stack([root.substream("o", e, i).permutation(n) for i in range(c)])
                  if clients else root.substream("o", e).permutation(n) for e in range(2)]
        alone, slotted = [], []
        sgd_epochs(lambda epoch, *batch: alone.append(batch), x, y, 4, orders, teacher)
        sgd_epochs(lambda epoch, *batch: slotted.append(batch), x, y, 4, orders,
                   teacher, None)
        assert len(slotted) == len(alone) == 6
        for (xa, ya, ta), (xs, ys, ts, absent) in zip(alone, slotted):
            assert absent is None
            assert [xs.tobytes(), ys.tobytes(), ts.tobytes()] == [
                xa.tobytes(), ya.tobytes(), ta.tobytes()]


# A short LwF run with one rank drop, at round 6 of 8, and half of four
# clients in each round.
LWF_RUN = dict(rounds=8, cooldown=2, pretrain_epochs=5, classes=4, dim=8,
               n_per_class=30, num_clients=4, participation=0.5, scheme="iid",
               r_init=6, r_min=2, subtractor=2, hidden=(12,), seed=3,
               cl_method="lwf", mu1=0.3, mu2=0.2)


def teacher_forwards(monkeypatch, **overrides):
    """Run ``LWF_RUN`` with ``overrides``, counting the LwF teachers' forwards.

    Returns the run's records, the (round, client) pairs that trained, and
    per teacher a Counter of the clients whose shard it ran on, None for a
    run on anything but a whole shard. The stability teacher is the dense
    accumulated update, the plasticity teacher the global AdapterSet."""
    calls, trained, shards = [], [], {}
    teacher_forward, train = rankfed.client.forward, rankfed.harness.local_train

    def counted_forward(base, adapters, x):
        calls.append(("plasticity" if isinstance(adapters, AdapterSet)
                      else "stability", x))
        return teacher_forward(base, adapters, x)

    def logged_train(states, *args):
        trained.extend((args[3].round_index, s.client_id) for s in states)
        shards.update((id(s.features), s.client_id) for s in states)
        return train(states, *args)

    monkeypatch.setattr(rankfed.client, "forward", counted_forward)
    monkeypatch.setattr(rankfed.harness, "local_train", logged_train)
    result = run_federated(RunConfig(**{**LWF_RUN, **overrides}).validate())
    counts = {kind: Counter(shards.get(id(x)) for k, x in calls if k == kind)
              for kind in ("stability", "plasticity")}
    return result.records, trained, counts


class TestTeacherForwards:
    def test_each_teacher_runs_once_per_shard(self, monkeypatch):
        records, trained, counts = teacher_forwards(monkeypatch)
        assert sum(r.dropped for r in records) == 1
        # the stability teacher: once per client and phase after the first
        phases = {r.round: r.phase for r in records}
        in_later_phases = [(t, cid) for t, cid in trained if phases[t] > 1]
        later = Counter(cid for cid, _ in
                        {(cid, phases[t]) for t, cid in in_later_phases})
        assert counts["stability"] == later
        # some client trained in more than one round of its phase
        assert len(in_later_phases) > sum(later.values())
        # the plasticity teacher: once per client and round
        assert counts["plasticity"] == Counter(cid for _, cid in trained)

    @pytest.mark.parametrize("overrides, ran", [
        (dict(mu1=0.0), {"plasticity"}),
        (dict(mu2=0.0), {"stability"}),
        (dict(local_epochs=0), set()),
    ])
    def test_a_teacher_that_is_not_read_does_not_run(self, monkeypatch, overrides, ran):
        records, _, counts = teacher_forwards(monkeypatch, **overrides)
        assert any(r.phase > 1 for r in records)  # a stability anchor existed
        assert {kind for kind, c in counts.items() if c} == ran

    def test_the_cache_follows_the_accumulated_update(self, monkeypatch):
        # drops at rounds 3 and 8: the cache is refilled at each
        checked = Counter()
        train = rankfed.harness.local_train

        def checking_train(states, base, global_adapters, stability_anchor, *args):
            for s in states:
                if stability_anchor is None:
                    assert s.stability_logits is None
                else:
                    expected = forward(base, stability_anchor, s.features)[0]
                    assert s.stability_logits.tobytes() == expected.tobytes()
                    checked[s.importance_phase] += 1
            return train(states, base, global_adapters, stability_anchor, *args)

        monkeypatch.setattr(rankfed.harness, "local_train", checking_train)
        result = run_federated(RunConfig(**{**LWF_RUN, "num_clients": 3,
                                            "participation": 1.0, "rounds": 9,
                                            "scheme": "disjoint"}).validate())
        assert sum(r.dropped for r in result.records) == 2
        assert set(checked) == {2, 3}
