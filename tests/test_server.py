import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfed.errors import (InputError, InvariantError, ParameterError,
                            ProtocolError, ShapeError)
from rankfed.lora import (AdapterSet, LoRAAdapter, RankSchedule,
                          init_adapter_set, reinit_at_rank)
from rankfed.metrics import weight_distance
from rankfed.numerics import Rng, svd_truncate
from rankfed.server import (ClientUpdate, ServerSettings, ServerState, aggregate,
                            ema_update, gradient_consistency, maybe_dropout,
                            normalize_sensitivities, pool_gradients,
                            sensitivity, server_round, shard_weights, weighted_sum)


@pytest.mark.parametrize("sizes", [[0, 0], [], [3, -3]])
def test_shard_weights_refuse_a_non_positive_total(sizes):
    with pytest.raises(InputError, match="^shard sizes must have a positive total"):
        shard_weights(sizes)


@pytest.mark.parametrize("weights, clients", [
    ([0.2, 0.3, 0.5], 2),  # a weight left over
    ([0.5, 0.5], 3),       # a client left over
    ([], 0),
    ([], 1),
    ([1.0], 0),
], ids=["more-weights", "more-clients", "none", "no-weights", "no-clients"])
def test_weighted_sum_needs_one_weight_per_client(weights, clients):
    items = ([np.full(2, float(i + 1))] for i in range(clients))
    with pytest.raises(InputError, match="one weight per client"):
        weighted_sum(weights, items)


def test_weighted_sum_takes_a_generator():
    made = []

    def items():
        for i in range(3):
            made.append(i)
            yield [np.full((2, 2), float(i)), np.full(3, 1.0)]

    total = weighted_sum([0.25, 0.25, 0.5], items())
    assert made == [0, 1, 2]
    assert total[0].tolist() == [[1.25, 1.25]] * 2 and total[1].tolist() == [1.0] * 3


def warm_set(rng, shapes=((6, 4), (3, 6)), rank=2, scale=0.3):
    adapters = []
    for lid, (h1, h2) in enumerate(shapes):
        r = min(rank, h1, h2)
        adapters.append(LoRAAdapter(
            rng.substream("b", lid).normal(h1, r, scale),
            rng.substream("a", lid).normal(r, h2, scale),
        ))
    return AdapterSet(tuple(adapters), rank)


class TestAggregate:
    def test_identical_updates_fixed_point(self, rng):
        x = warm_set(rng)
        updates = [ClientUpdate(i, copy.deepcopy(x), 10) for i in range(3)]
        agg = aggregate(updates)
        for a, b in zip(agg, x):
            assert np.max(np.abs(a.B - b.B)) <= 1e-15
            assert np.max(np.abs(a.A - b.A)) <= 1e-15

    def test_hand_weighted_mean(self):
        b = np.array([[1.0], [2.0]])
        a = np.array([[1.0, 1.0]])
        mk = lambda s: AdapterSet((LoRAAdapter(s * b, a.copy()),), 1)
        updates = [ClientUpdate(0, mk(1.0), 1), ClientUpdate(1, mk(3.0), 3)]
        agg = aggregate(updates)
        assert np.allclose(agg.adapters[0].B, 2.5 * b, atol=1e-15)

    def test_weights_sum_to_one(self):
        sizes = np.array([7.0, 11.0, 2.0, 39.0])
        w = sizes / sizes.sum()
        assert abs(w.sum() - 1.0) <= 1e-15

    def test_permutation_invariance_bit_exact(self, rng):
        updates = [ClientUpdate(i, warm_set(rng.substream("u", i)), 5 + i)
                   for i in range(4)]
        agg1 = aggregate(updates)
        agg2 = aggregate(list(reversed(updates)))
        for a, b in zip(agg1, agg2):
            assert np.array_equal(a.B, b.B)
            assert np.array_equal(a.A, b.A)

    def test_rank_mismatch_rejected(self, rng):
        u1 = ClientUpdate(0, warm_set(rng.substream("1"), rank=2), 5)
        u2 = ClientUpdate(1, warm_set(rng.substream("2"), rank=3), 5)
        with pytest.raises(ProtocolError):
            aggregate([u1, u2])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            aggregate([])

    def test_dense_mode_single_client_round_trip(self, rng):
        x = warm_set(rng)
        agg = aggregate([ClientUpdate(0, x, 4)], mode="dense")
        # one client: dense average is exactly the client's dense update
        for d1, d2 in zip(agg.dense(), x.dense()):
            assert np.linalg.norm(d1 - d2) < 1e-10

    def test_factor_average_differs_from_dense_average(self, rng):
        u1 = ClientUpdate(0, warm_set(rng.substream("1")), 5)
        u2 = ClientUpdate(1, warm_set(rng.substream("2")), 5)
        factor_dense = aggregate([u1, u2]).dense()
        mean_dense = [0.5 * a + 0.5 * b
                      for a, b in zip(u1.adapters.dense(), u2.adapters.dense())]
        assert any(np.linalg.norm(f - m) > 1e-6
                   for f, m in zip(factor_dense, mean_dense))

    def test_factor_average_matches_dense_when_a_shared(self, rng):
        # with a shared A factor, average-of-products == product-of-averages
        shapes = ((6, 4),)
        a_shared = rng.substream("a").normal(2, 4)
        mk = lambda i: AdapterSet(
            (LoRAAdapter(rng.substream("b", i).normal(6, 2), a_shared.copy()),), 2)
        updates = [ClientUpdate(i, mk(i), 3) for i in range(3)]
        agg_dense = aggregate(updates).dense()[0]
        mean_dense = sum(u.adapters.dense()[0] for u in updates) / 3.0
        assert np.linalg.norm(agg_dense - mean_dense) < 1e-12


class TestAccumulatedGradient:
    """The displacement half of ``sensitivity``."""

    def test_equal_sets_give_zero(self, rng):
        x = warm_set(rng)
        grads, _ = sensitivity(x.dense(), copy.deepcopy(x).dense())
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)

    def test_zero_global(self, rng):
        local = warm_set(rng)
        zero = init_adapter_set([(6, 4), (3, 6)], 2, 0.02, rng.substream("z"))
        grads, _ = sensitivity(local.dense(), zero.dense())
        for g, d in zip(grads, local.dense()):
            assert np.array_equal(g, d)

    def test_matches_entrywise_subtraction(self, rng):
        local = warm_set(rng.substream("l"))
        glob = warm_set(rng.substream("g"))
        grads, _ = sensitivity(local.dense(), glob.dense())
        for g, dl, dg in zip(grads, local.dense(), glob.dense()):
            assert np.array_equal(g, dl - dg)


class TestSensitivity:
    def test_zero_gradient(self, rng):
        d = [rng.normal(3, 3)]
        assert sensitivity(d, [m.copy() for m in d])[1] == 0.0

    def test_hand_product(self):
        # displacement 2 - (-1) = 3, weighted by the local update 2
        grad, score = sensitivity([np.array([[2.0]])], [np.array([[-1.0]])])
        assert grad[0][0, 0] == 3.0
        assert score == 6.0

    def test_nonnegative(self, rng):
        for i in range(10):
            s = rng.substream(i)
            d = [s.substream("d").normal(4, 4)]
            g = [s.substream("g").normal(4, 4)]
            assert sensitivity(d, g)[1] >= 0.0


class TestNormalizeSensitivities:
    def test_symmetry(self):
        assert np.array_equal(normalize_sensitivities([2.0, 2.0]), [0.5, 0.5])

    def test_degenerate_uniform(self):
        assert np.allclose(normalize_sensitivities([0.0, 0.0, 0.0]),
                           [1 / 3, 1 / 3, 1 / 3])

    def test_hand_normalization(self):
        assert np.allclose(normalize_sensitivities([1.0, 3.0]), [0.25, 0.75])

    def test_negative_rejected(self):
        with pytest.raises(InvariantError):
            normalize_sensitivities([1.0, -0.5])


class TestPoolGradients:
    def test_single_client_sign_split(self):
        pos, neg = pool_gradients([[np.array([[1.0, -2.0]])]], [1.0])
        assert np.array_equal(pos[0], [[1.0, 0.0]])
        assert np.array_equal(neg[0], [[0.0, -2.0]])

    def test_antisymmetric_cancellation(self, rng):
        g = rng.normal(4, 5)
        pos, neg = pool_gradients([[g], [-g]], [0.5, 0.5])
        assert np.array_equal(pos[0], -neg[0])
        assert np.max(np.abs(pos[0] + neg[0])) == 0.0

    def test_matches_entrywise_loop_oracle(self, rng):
        grads = [[rng.substream("g", i).normal(3, 4)] for i in range(3)]
        alpha = np.array([0.2, 0.5, 0.3])
        pos, neg = pool_gradients(grads, alpha)
        p_oracle = np.zeros((3, 4))
        n_oracle = np.zeros((3, 4))
        for a, g in zip(alpha, grads):
            for idx in np.ndindex((3, 4)):
                v = g[0][idx]
                if v > 0:
                    p_oracle[idx] += a * v
                else:
                    n_oracle[idx] += a * v
        assert np.max(np.abs(pos[0] - p_oracle)) < 1e-14
        assert np.max(np.abs(neg[0] - n_oracle)) < 1e-14

    def test_weight_sum_invariant(self, rng):
        with pytest.raises(InvariantError):
            pool_gradients([[rng.normal(2, 2)]], [0.5])


class TestEmaUpdate:
    def test_hand_value(self):
        out = ema_update(np.array([[1.0]]), np.array([[0.0]]), 0.9)
        assert out[0, 0] == pytest.approx(0.9, abs=1e-15)

    def test_theta_zero_memoryless(self, rng):
        cur = rng.normal(2, 2)
        assert np.array_equal(ema_update(rng.substream("p").normal(2, 2), cur, 0.0), cur)

    def test_constant_stream_fixed_point(self):
        c = np.full((2, 2), 3.5)
        state = None
        for _ in range(10):
            state = ema_update(state, c, 0.8)
        assert np.allclose(state, c, atol=1e-12)

    def test_first_observation_initialization(self, rng):
        cur = rng.normal(3, 3)
        assert np.array_equal(ema_update(None, cur, 0.9), cur)

    def test_midpoint(self):
        assert np.allclose(ema_update(np.array([[0.0]]), np.array([[2.0]]), 0.5), [[1.0]])

    def test_weight_one_keeps_previous(self, rng):
        prev = rng.substream("prev").normal(3, 4)
        out = ema_update(prev, rng.substream("cur").normal(3, 4), 1.0)
        assert np.array_equal(out, prev)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31), st.floats(0.0, 1.0))
    def test_affine_swap_symmetry(self, seed, lam):
        r = Rng(seed)
        x = r.substream("x").normal(4, 5)
        y = r.substream("y").normal(4, 5)
        # both are lam*x + (1-lam)*y up to the rounding of 1 - (1 - lam)
        assert np.allclose(ema_update(x, y, lam), ema_update(y, x, 1.0 - lam), atol=1e-9)


class TestGradientConsistency:
    def test_one_sided_full_consistency(self, rng):
        p = np.abs(rng.normal(3, 3))
        assert gradient_consistency([p], [np.zeros((3, 3))]) == 1.0

    def test_exact_cancellation(self, rng):
        p = np.abs(rng.normal(3, 3))
        assert gradient_consistency([p], [-p]) == 0.0

    def test_hand_case(self):
        p = np.array([[1.0, 0.0]])
        n = np.array([[0.0, -1.0]])
        assert gradient_consistency([p], [n]) == pytest.approx(
            np.sqrt(2) / 2, abs=1e-9)

    def test_degenerate_denominator(self):
        assert gradient_consistency([np.zeros((2, 2))], [np.zeros((2, 2))]) == 1.0

    def test_sign_invariants_enforced(self, rng):
        with pytest.raises(InvariantError):
            gradient_consistency([-np.abs(rng.normal(2, 2))], [np.zeros((2, 2))])

    def test_bounded_on_random_states(self, rng):
        for i in range(200):
            s = rng.substream("case", i)
            p = [np.abs(s.substream("p").normal(3, 4))]
            n = [-np.abs(s.substream("n").normal(3, 4))]
            m = gradient_consistency(p, n)
            assert 0.0 <= m <= 1.0


class TestServerSettings:
    """The owner of the server's rules; tests/test_cli.py checks that it
    rejects NaN and each out-of-range or unknown value with validate()'s
    message."""

    def test_theta_validation(self):
        assert ServerSettings(theta=0.0).theta == 0.0  # [0, 1): 0 in, 1 out
        with pytest.raises(ParameterError, match="theta must lie in"):
            ServerSettings(theta=1.0)

    def test_accepts_infinite_cooldown(self):
        assert ServerSettings(cooldown=math.inf).cooldown == math.inf


def make_state(rng, rank=4, r_min=2, settings=ServerSettings(cooldown=0)):
    adapters = init_adapter_set([(6, 4), (3, 6)], rank, 0.02, rng.substream("init"))
    return ServerState(adapters=adapters,
                       schedule=RankSchedule(rank, r_min, 2), settings=settings)


class TestMaybeDropout:
    def test_first_round_keeps(self, rng):
        state = make_state(rng)
        new, dropped = maybe_dropout(state, 0.7)
        assert not dropped
        assert new.consistency_prev == 0.7
        assert new.rounds_in_phase == 1

    def test_strictly_decreasing_never_drops(self, rng):
        state = make_state(rng)
        for m in (0.9, 0.8, 0.7, 0.6, 0.5):
            state, dropped = maybe_dropout(state, m)
            assert not dropped
        assert state.schedule.current_rank == 4

    def test_rank_floor_blocks_drop(self, rng):
        state = make_state(rng, rank=8, r_min=8)
        state, _ = maybe_dropout(state, 0.4)
        state, dropped = maybe_dropout(state, 0.4)
        assert not dropped
        assert state.schedule.current_rank == 8

    def test_drop_fires_and_resets(self, rng):
        state = make_state(rng)
        state, _ = maybe_dropout(state, 0.5)
        state, dropped = maybe_dropout(state, 0.5)
        assert dropped
        assert state.schedule.current_rank == 2
        assert state.consistency_prev is None
        assert state.ema_pos is None and state.ema_neg is None
        assert state.rounds_in_phase == 0
        assert state.accumulated is not None

    def test_cooldown_suppresses(self, rng):
        state = make_state(rng, settings=ServerSettings(cooldown=3))
        for m in (0.5, 0.5, 0.5):
            state, dropped = maybe_dropout(state, m)
            assert not dropped
        state, dropped = maybe_dropout(state, 0.5)
        assert dropped

    def test_infinite_cooldown_never_drops(self, rng):
        state = make_state(rng, settings=ServerSettings(cooldown=math.inf))
        for _ in range(20):
            state, dropped = maybe_dropout(state, 0.5)
            assert not dropped

    def test_accumulator_decay_averages_phase_final_adapters(self, rng):
        state = make_state(rng, rank=6, settings=ServerSettings(lam=0.5, cooldown=0))
        acc = None
        for rank in (6, 4):
            final = warm_set(rng.substream("final", rank), rank=rank)
            state, dropped = maybe_dropout(
                replace(state, adapters=final, consistency_prev=0.0), 0.5)
            assert dropped
            dense = final.dense()
            acc = dense if acc is None else [0.5 * a + 0.5 * d for a, d in zip(acc, dense)]
            assert len(state.accumulated) == len(acc)
            assert all(np.array_equal(s, a) for s, a in zip(state.accumulated, acc))
        assert state.schedule.current_rank == 2

    def test_first_drop_initializes_accumulator_with_phase_final_dense(self, rng):
        state = make_state(rng, rank=4, settings=ServerSettings(lam=0.5, cooldown=0))
        assert state.accumulated is None
        final = warm_set(rng.substream("final"), rank=4)
        state, dropped = maybe_dropout(
            replace(state, adapters=final, consistency_prev=0.0), 0.5)
        assert dropped
        # passed through, not decay-averaged against zero
        assert len(state.accumulated) == len(final.adapters)
        assert all(np.array_equal(s, d) for s, d in zip(state.accumulated, final.dense()))


class TestServerRound:
    def test_single_client_degenerate(self, rng):
        state = make_state(rng)
        update = ClientUpdate(0, warm_set(rng.substream("u"), rank=4), 12)
        new_state, outcome = server_round(state, [update])
        # global equals the single client's update
        for a, b in zip(new_state.adapters, update.adapters):
            assert np.max(np.abs(a.B - b.B)) <= 1e-15
            assert np.max(np.abs(a.A - b.A)) <= 1e-15
        assert 0.0 <= outcome.consistency <= 1.0

    def test_stationary_round(self, rng):
        state = make_state(rng)
        updates = [ClientUpdate(i, copy.deepcopy(state.adapters), 10) for i in range(3)]
        _, outcome = server_round(state, updates)
        assert outcome.consistency == 1.0  # degenerate rule: no signal at all

    def test_rank_mismatch_rejected(self, rng):
        state = make_state(rng, rank=4)
        bad = ClientUpdate(0, warm_set(rng, rank=3), 5)
        with pytest.raises(ProtocolError):
            server_round(state, [bad])

    def test_shape_mismatch_rejected(self, rng):
        state = make_state(rng, rank=4)
        good = ClientUpdate(0, warm_set(rng.substream("g"), rank=4), 5)
        bad = ClientUpdate(1, warm_set(rng.substream("b"), shapes=((6, 4), (3, 5)),
                                       rank=4), 5)
        with pytest.raises(ProtocolError, match="client 1 sent layer shapes"):
            server_round(state, [good, bad])

    def test_one_dense_product_per_update_and_one_for_the_global(self, rng,
                                                                monkeypatch):
        calls = []
        dense = AdapterSet.dense

        def counted(self):
            calls.append(self)
            return dense(self)

        state = make_state(rng)
        updates = [ClientUpdate(i, warm_set(rng.substream("u", i), rank=4), 10)
                   for i in range(3)]
        monkeypatch.setattr(AdapterSet, "dense", counted)
        _, outcome = server_round(state, updates)
        assert not outcome.dropped  # a drop folds the aggregate in: one more
        assert len(calls) == len(updates) + 1

    def test_displacement_norms_are_the_weight_distances_in_client_order(self, rng):
        state = make_state(rng)
        updates = [ClientUpdate(i, warm_set(rng.substream("u", i), rank=4), 10)
                   for i in (2, 0, 1)]
        _, outcome = server_round(state, updates)
        global_dense = state.adapters.dense()
        assert outcome.displacement_norms == tuple(
            weight_distance(u.adapters.dense(), global_dense)
            for u in sorted(updates, key=lambda u: u.client_id))

    def test_matches_flat_scripted_oracle(self, rng):
        theta = 0.9
        state = make_state(rng, settings=ServerSettings(theta=theta, cooldown=0))
        updates = [ClientUpdate(i, warm_set(rng.substream("u", i), rank=4), 10 + i)
                   for i in range(3)]
        prev_pos = [np.abs(rng.substream("pp", i).normal(*s))
                    for i, s in enumerate(((6, 4), (3, 6)))]
        prev_neg = [-np.abs(rng.substream("pn", i).normal(*s))
                    for i, s in enumerate(((6, 4), (3, 6)))]
        state = replace(state, ema_pos=prev_pos, ema_neg=prev_neg,
                        consistency_prev=0.1, rounds_in_phase=7)

        _, outcome = server_round(state, updates)

        # flat reimplementation with plain numpy
        g_dense = [u.adapters.dense() for u in updates]
        glob = state.adapters.dense()
        grads = [[d - g for d, g in zip(ds, glob)] for ds in g_dense]
        u_vals = [sum(np.sum(np.abs(d * g)) for d, g in zip(ds, gs))
                  for ds, gs in zip(g_dense, grads)]
        alpha = np.array(u_vals) / np.sum(u_vals)
        pos = [sum(a * np.maximum(g[l], 0) for a, g in zip(alpha, grads))
               for l in range(2)]
        neg = [sum(-a * np.maximum(-g[l], 0) for a, g in zip(alpha, grads))
               for l in range(2)]
        epos = [theta * p + (1 - theta) * c for p, c in zip(prev_pos, pos)]
        eneg = [theta * p + (1 - theta) * c for p, c in zip(prev_neg, neg)]
        num = np.sqrt(sum(np.sum((p + n) ** 2) for p, n in zip(epos, eneg)))
        den = (np.sqrt(sum(np.sum(p ** 2) for p in epos))
               + np.sqrt(sum(np.sum(n ** 2) for n in eneg)))
        expected_m = num / den
        assert outcome.consistency == pytest.approx(expected_m, abs=1e-12)

        sizes = np.array([10.0, 11.0, 12.0])
        w = sizes / sizes.sum()
        for l in range(2):
            expected_b = sum(wi * u.adapters.adapters[l].B
                             for wi, u in zip(w, updates))
            assert np.max(np.abs(outcome.global_adapters.adapters[l].B
                                 - expected_b)) < 1e-12

    def test_rank_sequence_nonincreasing_with_delta_steps(self, rng):
        state = make_state(rng, rank=8, r_min=2)
        ranks = []
        for t in range(30):
            updates = [ClientUpdate(i, warm_set(rng.substream("r", t, i), rank=state.schedule.current_rank), 10)
                       for i in range(2)]
            state, outcome = server_round(state, updates)
            ranks.append(outcome.rank)
        diffs = {a - b for a, b in zip(ranks, ranks[1:])}
        assert diffs <= {0, 2}
        assert min(ranks) >= 2
        assert sorted(ranks, reverse=True) == ranks

    def test_drop_reinitializes_from_accumulated_aggregate(self, rng):
        state = make_state(rng, rank=4, r_min=2)
        state = replace(state, consistency_prev=0.0)  # forces M >= M_prev
        updates = [ClientUpdate(i, warm_set(rng.substream("x", i), rank=4), 10)
                   for i in range(2)]
        new_state, outcome = server_round(state, updates)
        assert outcome.dropped
        agg_dense = outcome.global_adapters.dense()
        # first accumulation event: accumulator == aggregate's dense update
        for acc, agg in zip(new_state.accumulated, agg_dense):
            assert np.array_equal(acc, agg)
        # distributed adapters are the rank-2 SVD re-initialization
        for adapter, acc in zip(new_state.adapters, new_state.accumulated):
            u, s, v = svd_truncate(acc, 2)
            best = u @ np.diag(s) @ v.T
            assert np.linalg.norm(adapter.B @ adapter.A - best) < 1e-10


class TestServerProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31), st.permutations(range(5)),
           st.lists(st.integers(1, 50), min_size=5, max_size=5),
           st.sampled_from(["factor", "dense"]))
    def test_aggregate_invariant_under_permutation(self, seed, order, sizes, mode):
        rng = Rng(seed)
        updates = [ClientUpdate(i, warm_set(rng.substream("u", i)), sizes[i])
                   for i in range(5)]
        reference = aggregate(updates, mode)
        permuted = aggregate([updates[i] for i in order], mode)
        for a, b in zip(reference, permuted):
            assert np.array_equal(a.B, b.B)
            assert np.array_equal(a.A, b.A)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31), st.floats(0.0, 0.999), st.integers(1, 4),
           st.integers(1, 12))
    def test_consistency_bounded_under_ema(self, seed, theta, clients, steps):
        rng = Rng(seed)
        ema_pos = ema_neg = None
        for t in range(steps):
            s = rng.substream("step", t)
            grads = [[s.substream("g", c, l).normal(3, 4, 10.0 ** (c - 2))
                      for l in range(2)] for c in range(clients)]
            alpha = normalize_sensitivities(
                np.abs(s.substream("alpha").normal(1, clients))[0])
            pos, neg = pool_gradients(grads, alpha)
            ema_pos = [ema_update(p, c, theta)
                       for p, c in zip(ema_pos or [None] * 2, pos)]
            ema_neg = [ema_update(p, c, theta)
                       for p, c in zip(ema_neg or [None] * 2, neg)]
            assert 0.0 <= gradient_consistency(ema_pos, ema_neg) <= 1.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 8), st.integers(1, 8),
           st.integers(1, 3), st.integers(0, 3), st.integers(1, 20))
    def test_rank_never_increases(self, seed, r_init, r_min, subtractor,
                                  cooldown, rounds):
        r_init, r_min = max(r_init, r_min), min(r_init, r_min)
        rng = Rng(seed)
        state = ServerState(
            adapters=init_adapter_set([(6, 4), (3, 6)], r_init, 0.02,
                                      rng.substream("init")),
            schedule=RankSchedule(r_init, r_min, subtractor),
            settings=ServerSettings(cooldown=cooldown))
        ranks = []
        for t in range(rounds):
            rank = state.schedule.current_rank
            updates = [ClientUpdate(i, warm_set(rng.substream("r", t, i), rank=rank), 10)
                       for i in range(2)]
            state, outcome = server_round(state, updates)
            ranks.append(outcome.rank)
            assert state.schedule.current_rank <= outcome.rank
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))
        assert {a - b for a, b in zip(ranks, ranks[1:])} <= {0, subtractor}
        assert min(ranks) >= r_min


def test_a_round_unlike_the_server_is_refused_naming_clients_and_expectation(rng):
    state = make_state(rng, rank=4)
    updates = [ClientUpdate(i, warm_set(rng.substream("u", i), rank=3), 5) for i in (1, 0)]
    with pytest.raises(ProtocolError) as raised:
        server_round(state, updates)
    assert str(raised.value) == ("clients 0, 1 sent rank 3 with layer shapes [(6, 4), (3, 6)], "
                                 "server expects rank 4 with [(6, 4), (3, 6)]")


def _refusal_cases():
    """One call per guard on the server path, each with its refusal."""
    rng = Rng(7)
    good = ClientUpdate(0, warm_set(rng.substream("g")), 5)
    wide = ClientUpdate(1, warm_set(rng.substream("w"), shapes=((6, 4), (3, 5))), 5)
    grads = [[np.ones((2, 3)), -np.ones(3)] for _ in range(3)]
    pos, neg = [np.ones((2, 3))], [-np.ones((2, 3))]
    return {
        "aggregate-unknown-mode": (lambda: aggregate([good], mode="median"), ParameterError,
                                   "unknown aggregation mode: median"),
        "aggregate-layer-shapes": (lambda: aggregate([wide, good]), ProtocolError,
                                   "client 1 sent layer shapes [(6, 4), (3, 5)] at rank 2, "
                                   "client 0 sent [(6, 4), (3, 6)] at rank 2"),
        "pool-weight-count": (lambda: pool_gradients(grads, [0.5, 0.5]), InputError,
                              "one weight per client required"),
        "pool-layer-count": (lambda: pool_gradients([grads[0], grads[1][:1]], [0.5, 0.5]),
                             ShapeError, "layer count mismatch across clients"),
        "ema-shape": (lambda: ema_update(np.ones((2, 3)), np.ones(3), 0.9), ShapeError,
                      "shape mismatch: (2, 3) vs (3,)"),
        "consistency-layer-count": (lambda: gradient_consistency(pos * 2, neg), ShapeError,
                                    "layer count mismatch"),
        "consistency-positive-negative-part": (
            lambda: gradient_consistency(pos, [np.full((2, 3), 1e-300)]), InvariantError,
            "negative component has positive entries"),
        "reinit-gaussian-without-rng": (
            lambda: reinit_at_rank([np.ones((3, 2))], 1, method="gaussian"), ParameterError,
            "gaussian re-initialization needs an rng"),
        "reinit-unknown-method": (
            lambda: reinit_at_rank([np.ones((3, 2))], 1, method="qr"), ParameterError,
            "unknown re-initialization method: qr"),
    }


@pytest.mark.parametrize("case", list(_refusal_cases()))
def test_server_path_refusals(case):
    call, error, message = _refusal_cases()[case]
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message
