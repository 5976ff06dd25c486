import numpy as np
import pytest

from conftest import fd_factor_grads, make_model, max_rel_err

from rankfed.errors import InputError, InvariantError, NumericError
from rankfed.lora import AdapterSet, LoRAAdapter, init_adapter_set
from rankfed.model import (CLConfig, FrozenBase, ImportanceEstimate,
                           estimate_fim, estimate_mas_importance, forward,
                           full_loss_and_grads, lwf_penalty, quadratic_penalty,
                           random_base, sgd_step, supervised_loss_and_grads,
                           total_local_loss)
from rankfed.numerics import Rng, softmax


class TestForward:
    def test_zero_adapters_neutral(self, rng):
        base, _, x, _ = make_model(rng)
        fresh = init_adapter_set(base.layer_shapes(), 3, 0.02, rng.substream("f"))
        with_adapters, _ = forward(base, fresh, x)
        base_only, _ = forward(base, None, x)
        assert np.array_equal(with_adapters, base_only)

    def test_identity_single_layer(self):
        base = FrozenBase((np.eye(4),), (np.zeros(4),))
        x = Rng(1).normal(5, 4)
        logits, reps = forward(base, None, x)
        assert np.array_equal(logits, x)
        assert len(reps) == 1

    def test_dense_path_equals_factored_path(self, rng):
        base, adapters, x, _ = make_model(rng)
        factored, _ = forward(base, adapters, x)
        densed, _ = forward(base, adapters.dense(), x)
        rel = np.linalg.norm(factored - densed) / np.linalg.norm(factored)
        assert rel < 1e-10

    def test_representations_per_layer(self, rng):
        base, adapters, x, _ = make_model(rng, dims=(5, 9, 7, 4), rank=2)
        logits, reps = forward(base, adapters, x)
        assert [r.shape[1] for r in reps] == [9, 7, 4]
        assert np.array_equal(reps[-1], logits)


class TestSupervisedLoss:
    def test_duplicated_sample_mean_invariance(self, rng):
        base, adapters, x, y = make_model(rng, batch=1)
        single, _ = supervised_loss_and_grads(base, adapters, x, y)
        doubled, _ = supervised_loss_and_grads(
            base, adapters, np.vstack([x, x]), np.concatenate([y, y]))
        assert single == pytest.approx(doubled, abs=1e-14)

    def test_grads_match_finite_differences(self, rng):
        base, adapters, x, y = make_model(rng)
        _, grads = supervised_loss_and_grads(base, adapters, x, y)
        fd = fd_factor_grads(
            lambda a: supervised_loss_and_grads(base, a, x, y)[0], adapters)
        assert max_rel_err(grads, fd) < 1e-5

    def test_zero_b_kills_a_gradient(self, rng):
        base, _, x, y = make_model(rng)
        fresh = init_adapter_set(base.layer_shapes(), 3, 0.02, rng.substream("f"))
        _, grads = supervised_loss_and_grads(base, fresh, x, y)
        for (gB, gA), a in zip(grads, fresh):
            assert np.array_equal(gA, np.zeros_like(a.A))
            assert not np.array_equal(gB, np.zeros_like(a.B))

    def test_empty_batch(self, rng):
        base, adapters, x, y = make_model(rng)
        with pytest.raises(InputError):
            supervised_loss_and_grads(base, adapters, x[:0], y[:0])

    def test_multilabel_grads_match_fd(self, rng):
        base, adapters, x, _ = make_model(rng)
        y = np.asarray(rng.substream("ml").integers(0, 2, (x.shape[0], 4)))
        _, grads = supervised_loss_and_grads(base, adapters, x, y, task="multilabel")
        fd = fd_factor_grads(
            lambda a: supervised_loss_and_grads(base, a, x, y, task="multilabel")[0],
            adapters)
        assert max_rel_err(grads, fd) < 1e-5

    def test_float_and_int_multilabel_targets_agree_bit_for_bit(self, rng):
        """The run casts multilabel targets to float64 once; the loss still
        accepts int targets and gives the same bytes for them."""
        base, adapters, x, _ = make_model(rng)
        y = np.asarray(rng.substream("ml").integers(0, 2, (x.shape[0], 4)))
        stacked_x = np.stack([x, x[::-1]])
        stacked_y = np.stack([y, y[::-1]])

        def as_bytes(loss, grads):
            return np.asarray(loss).tobytes(), [g.tobytes() for pair in grads for g in pair]

        for xb, yb, adp in ((x, y, adapters), (stacked_x, stacked_y, adapters.stacked(2))):
            as_int = supervised_loss_and_grads(base, adp, xb, yb, task="multilabel")
            as_float = supervised_loss_and_grads(base, adp, xb, yb.astype(np.float64),
                                                 task="multilabel")
            assert as_bytes(*as_int) == as_bytes(*as_float)
            weights = [w.copy() for w in base.weights]
            biases = [b.copy() for b in base.biases]
            if xb.ndim == 3:
                weights = [np.stack([w, w]) for w in weights]
                biases = [np.stack([b, b]) for b in biases]
            loss_i, wg_i, bg_i = full_loss_and_grads(weights, biases, xb, yb, "multilabel")
            loss_f, wg_f, bg_f = full_loss_and_grads(weights, biases, xb,
                                                     yb.astype(np.float64), "multilabel")
            assert as_bytes(loss_i, [wg_i, bg_i]) == as_bytes(loss_f, [wg_f, bg_f])


class TestQuadraticPenalties:
    def _setup(self, rng):
        base, adapters, x, y = make_model(rng)
        anchor = [d + rng.substream("anchor", i).normal(*d.shape, 0.1)
                  for i, d in enumerate(adapters.dense())]
        imp = ImportanceEstimate(tuple(
            np.abs(rng.substream("imp", i).normal(*d.shape)) for i, d in enumerate(anchor)))
        return base, adapters, anchor, imp

    def test_anchor_match_is_zero(self, rng):
        _, adapters, _, imp = self._setup(rng)
        p, grads = quadratic_penalty(adapters, adapters.dense(), imp, 2.0)
        assert p == 0.0
        assert all(np.array_equal(gB, 0 * gB) and np.array_equal(gA, 0 * gA)
                   for gB, gA in grads)

    def test_hand_value(self):
        # one 1x2 layer, dense - anchor = [[1, -1]], F = ones, mu = 2
        adapter = LoRAAdapter(0, np.array([[1.0]]), np.array([[1.0, -1.0]]))
        adapters = AdapterSet((adapter,), 1)
        anchor = [np.zeros((1, 2))]
        imp = ImportanceEstimate((np.ones((1, 2)),))
        p, _ = quadratic_penalty(adapters, anchor, imp, 2.0)
        assert p == pytest.approx(2.0, abs=1e-15)

    def test_grads_match_fd(self, rng):
        base, adapters, anchor, imp = self._setup(rng)
        _, grads = quadratic_penalty(adapters, anchor, imp, 0.7)
        fd = fd_factor_grads(lambda a: quadratic_penalty(a, anchor, imp, 0.7)[0], adapters)
        assert max_rel_err(grads, fd) < 1e-5

    def test_mas_equals_ewc_given_same_importance(self, rng):
        base, adapters, anchor, imp = self._setup(rng)
        x = rng.substream("x").normal(6, 5)
        y = np.asarray(rng.substream("y").integers(0, 4, 6))
        pe, ge = total_local_loss(base, adapters, x, y, anchor, None, imp,
                                  CLConfig("ewc", 0.3, 0.0))
        pm, gm = total_local_loss(base, adapters, x, y, anchor, None, imp,
                                  CLConfig("mas", 0.3, 0.0))
        assert pe == pm
        assert all(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
                   for a, b in zip(ge, gm))

    def test_quadratic_scaling(self, rng):
        _, adapters, _, imp = self._setup(rng)
        anchor = adapters.dense()
        for t in (0.5, 2.0, 3.0):
            shifted = [a - t * np.ones_like(a) for a in anchor]
            p1, _ = quadratic_penalty(adapters, [a - np.ones_like(a) for a in anchor], imp, 1.0)
            pt, _ = quadratic_penalty(adapters, shifted, imp, 1.0)
            assert pt == pytest.approx(t * t * p1, rel=1e-12)

    def test_negative_importance_rejected(self):
        with pytest.raises(InvariantError):
            ImportanceEstimate((np.array([[-1.0]]),))


class TestImportanceEstimates:
    def test_fim_zero_in_perfect_fit_limit(self):
        # huge correct-class margin: softmax saturates, gradients vanish
        base = FrozenBase((np.eye(2) * 50.0,), (np.zeros(2),))
        adapters = init_adapter_set(base.layer_shapes(), 1, 0.02, Rng(0))
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([0, 1])
        fim = estimate_fim(base, adapters, x, y)
        assert all(np.max(m) < 1e-12 for m in fim.matrices)

    def test_fim_nonnegative(self, rng):
        base, adapters, x, y = make_model(rng)
        fim = estimate_fim(base, adapters, x, y)
        assert all(np.all(m >= 0) for m in fim.matrices)

    @pytest.mark.parametrize("anchor", ["factors", "dense"])
    def test_fim_single_sample_is_squared_gradient(self, rng, anchor):
        base, adapters, x, y = make_model(rng, batch=1)
        at = adapters if anchor == "factors" else adapters.dense()
        fim = estimate_fim(base, at, x, y)
        dense = adapters.dense()
        step = 1e-6

        def loss_at(deltas):
            from rankfed.numerics import softmax_cross_entropy
            logits, _ = forward(base, deltas, x)
            return softmax_cross_entropy(logits, y)[0]

        for l, d in enumerate(dense):
            fd_sq = np.zeros_like(d)
            for idx in np.ndindex(d.shape):
                up = [m.copy() for m in dense]
                up[l][idx] += step
                dn = [m.copy() for m in dense]
                dn[l][idx] -= step
                fd_sq[idx] = ((loss_at(up) - loss_at(dn)) / (2 * step)) ** 2
            assert np.max(np.abs(fim.matrices[l] - fd_sq)) < 1e-6

    def test_mas_zero_for_zero_logits(self):
        base = FrozenBase((np.zeros((3, 4)),), (np.zeros(3),))
        adapters = init_adapter_set(base.layer_shapes(), 2, 0.02, Rng(0))
        x = Rng(1).normal(5, 4)
        imp = estimate_mas_importance(base, adapters, x)
        assert all(np.array_equal(m, np.zeros_like(m)) for m in imp.matrices)

    @pytest.mark.parametrize("anchor", ["factors", "dense"])
    def test_mas_single_sample_matches_fd(self, rng, anchor):
        base, adapters, x, _ = make_model(rng, batch=1)
        at = adapters if anchor == "factors" else adapters.dense()
        imp = estimate_mas_importance(base, at, x)
        dense = adapters.dense()
        step = 1e-6

        def sq_norm(deltas):
            logits, _ = forward(base, deltas, x)
            return float(np.sum(logits ** 2))

        for l, d in enumerate(dense):
            fd = np.zeros_like(d)
            for idx in np.ndindex(d.shape):
                up = [m.copy() for m in dense]
                up[l][idx] += step
                dn = [m.copy() for m in dense]
                dn[l][idx] -= step
                fd[idx] = abs((sq_norm(up) - sq_norm(dn)) / (2 * step))
            assert np.max(np.abs(imp.matrices[l] - fd)) < 1e-4 * max(1.0, np.max(fd))


class TestLwf:
    def test_teacher_equals_student(self, rng):
        base, adapters, x, _ = make_model(rng)
        mu = 0.8
        # identical AdapterSet as teacher: both forwards share the float path
        p, grads = lwf_penalty(base, adapters, adapters, x, mu)
        probs = softmax(forward(base, adapters, x)[0])
        entropy = float(np.mean(-np.sum(probs * np.log(probs), axis=1)))
        assert p == pytest.approx(mu * entropy, rel=1e-10)
        assert all(np.array_equal(gB, 0 * gB) and np.array_equal(gA, 0 * gA)
                   for gB, gA in grads)

    def test_mu_zero(self, rng):
        base, adapters, x, _ = make_model(rng)
        teacher = [d + 0.1 for d in adapters.dense()]
        p, grads = lwf_penalty(base, adapters, teacher, x, 0.0)
        assert p == 0.0
        assert all(np.max(np.abs(gB)) == 0 and np.max(np.abs(gA)) == 0
                   for gB, gA in grads)

    def test_grads_match_fd(self, rng):
        base, adapters, x, _ = make_model(rng)
        teacher = [d + rng.substream("t", i).normal(*d.shape, 0.2)
                   for i, d in enumerate(adapters.dense())]
        _, grads = lwf_penalty(base, adapters, teacher, x, 0.6)
        fd = fd_factor_grads(
            lambda a: lwf_penalty(base, a, teacher, x, 0.6)[0], adapters)
        assert max_rel_err(grads, fd) < 1e-5

    def test_temperature_grads_match_fd(self, rng):
        base, adapters, x, _ = make_model(rng)
        teacher = [d + 0.15 for d in adapters.dense()]
        _, grads = lwf_penalty(base, adapters, teacher, x, 0.6, temperature=2.0)
        fd = fd_factor_grads(
            lambda a: lwf_penalty(base, a, teacher, x, 0.6, temperature=2.0)[0],
            adapters)
        assert max_rel_err(grads, fd) < 1e-5


class TestTotalLocalLoss:
    def _anchors(self, rng, adapters):
        sta = [d + rng.substream("sta", i).normal(*d.shape, 0.15)
               for i, d in enumerate(adapters.dense())]
        pla = [d + rng.substream("pla", i).normal(*d.shape, 0.1)
               for i, d in enumerate(adapters.dense())]
        imp = ImportanceEstimate(tuple(
            np.abs(rng.substream("imp", i).normal(*d.shape)) for i, d in enumerate(sta)))
        return sta, pla, imp

    def test_method_none_equals_supervised(self, rng):
        base, adapters, x, y = make_model(rng)
        sta, pla, imp = self._anchors(rng, adapters)
        sup, sup_g = supervised_loss_and_grads(base, adapters, x, y)
        tot, tot_g = total_local_loss(base, adapters, x, y, sta, pla, imp,
                                      CLConfig("none"))
        assert tot == sup
        assert all(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
                   for a, b in zip(sup_g, tot_g))

    def test_zero_strengths_equal_supervised(self, rng):
        base, adapters, x, y = make_model(rng)
        sta, pla, imp = self._anchors(rng, adapters)
        sup, _ = supervised_loss_and_grads(base, adapters, x, y)
        tot, _ = total_local_loss(base, adapters, x, y, sta, pla, imp,
                                  CLConfig("ewc", 0.0, 0.0))
        assert abs(tot - sup) < 1e-15

    def test_component_sum(self, rng):
        base, adapters, x, y = make_model(rng)
        sta, pla, imp = self._anchors(rng, adapters)
        cl = CLConfig("ewc", 0.4, 0.2)
        tot, tot_g = total_local_loss(base, adapters, x, y, sta, pla, imp, cl)
        sup, g0 = supervised_loss_and_grads(base, adapters, x, y)
        p1, g1 = quadratic_penalty(adapters, sta, imp, 0.4)
        p2, g2 = quadratic_penalty(adapters, pla, imp, 0.2)
        assert tot == pytest.approx(sup + p1 + p2, rel=1e-12)
        expected = [(b0 + b1 + b2, a0 + a1 + a2)
                    for (b0, a0), (b1, a1), (b2, a2) in zip(g0, g1, g2)]
        for (eB, eA), (tB, tA) in zip(expected, tot_g):
            assert np.max(np.abs(eB - tB)) < 1e-12
            assert np.max(np.abs(eA - tA)) < 1e-12

    def test_absent_stability_anchor_skips_term(self, rng):
        base, adapters, x, y = make_model(rng)
        _, pla, imp = self._anchors(rng, adapters)
        cl = CLConfig("ewc", 5.0, 0.3)
        tot, _ = total_local_loss(base, adapters, x, y, None, pla, imp, cl)
        sup, _ = supervised_loss_and_grads(base, adapters, x, y)
        p2, _ = quadratic_penalty(adapters, pla, imp, 0.3)
        assert tot == pytest.approx(sup + p2, rel=1e-12)

    @pytest.mark.parametrize("method", ["ewc", "mas", "lwf"])
    def test_total_grads_match_fd(self, rng, method):
        base, adapters, x, y = make_model(rng)
        sta, pla, imp = self._anchors(rng, adapters)
        cl = CLConfig(method, 0.3, 0.15)
        _, grads = total_local_loss(base, adapters, x, y, sta, pla, imp, cl)
        fd = fd_factor_grads(
            lambda a: total_local_loss(base, a, x, y, sta, pla, imp, cl)[0],
            adapters)
        assert max_rel_err(grads, fd) < 1e-5


def sgd_alone(adapters, grads, eta):
    """``sgd_step`` on a stack of one client; returns the stepped adapters."""
    stack = adapters.stacked(1)
    sgd_step(stack, [(gB[np.newaxis], gA[np.newaxis]) for gB, gA in grads], eta, [0])
    return stack.client(0)


class TestSgdStep:
    def test_zero_grads_no_change(self, rng):
        _, adapters, _, _ = make_model(rng)
        zero = [(np.zeros_like(a.B), np.zeros_like(a.A)) for a in adapters]
        stepped = sgd_alone(adapters, zero, 0.5)
        for a, b in zip(adapters, stepped):
            assert np.array_equal(a.B, b.B) and np.array_equal(a.A, b.A)

    def test_eta_zero_no_change(self, rng):
        base, adapters, x, y = make_model(rng)
        _, grads = supervised_loss_and_grads(base, adapters, x, y)
        stepped = sgd_alone(adapters, grads, 0.0)
        for a, b in zip(adapters, stepped):
            assert np.array_equal(a.B, b.B) and np.array_equal(a.A, b.A)

    def test_descent_on_quadratic(self):
        # single 1x1 layer: loss = (B*A*1 - 2)^2 through the quadratic penalty
        adapter = LoRAAdapter(0, np.array([[1.0]]), np.array([[1.0]]))
        adapters = AdapterSet((adapter,), 1)
        anchor = [np.array([[2.0]])]
        imp = ImportanceEstimate((np.ones((1, 1)),))
        loss0, grads = quadratic_penalty(adapters, anchor, imp, 2.0)
        stepped = sgd_alone(adapters, grads, 0.05)
        loss1, _ = quadratic_penalty(stepped, anchor, imp, 2.0)
        assert loss1 < loss0

    def test_non_finite_gradient_rejected(self, rng):
        _, adapters, _, _ = make_model(rng)
        bad = [(np.zeros_like(a.B), np.zeros_like(a.A)) for a in adapters]
        bad[0][0][0, 0] = np.nan
        with pytest.raises(NumericError):
            sgd_alone(adapters, bad, 0.1)


class TestFrozenBase:
    def test_weights_not_writeable(self, rng):
        base = random_base([4, 6, 3], rng)
        with pytest.raises(ValueError):
            base.weights[0][0, 0] = 1.0

    def test_checksum_stable_across_training(self, rng):
        base, adapters, x, y = make_model(rng)
        before = base.checksum()
        for _ in range(5):
            _, grads = supervised_loss_and_grads(base, adapters, x, y)
            adapters = sgd_alone(adapters, grads, 0.1)
        assert base.checksum() == before

    def test_fresh_adapter_loss_equals_base_loss(self, rng):
        base, _, x, y = make_model(rng)
        fresh = init_adapter_set(base.layer_shapes(), 3, 0.02, rng.substream("f"))
        from rankfed.numerics import softmax_cross_entropy
        base_logits, _ = forward(base, None, x)
        base_loss, _ = softmax_cross_entropy(base_logits, y)
        adapter_loss, _ = supervised_loss_and_grads(base, fresh, x, y)
        assert adapter_loss == pytest.approx(base_loss, abs=1e-15)


class TestFullModelPath:
    def test_full_grads_match_fd(self, rng):
        base = random_base([4, 5, 3], rng.substream("base"))
        weights = [w.copy() for w in base.weights]
        biases = [b.copy() for b in base.biases]
        x = rng.substream("x").normal(6, 4)
        y = np.asarray(rng.substream("y").integers(0, 3, 6))
        _, wg, bg = full_loss_and_grads(weights, biases, x, y)
        step = 1e-5
        for l in range(len(weights)):
            for idx in np.ndindex(weights[l].shape):
                for arrs, grads, key in ((weights, wg, idx),):
                    up = [w.copy() for w in weights]
                    dn = [w.copy() for w in weights]
                    up[l][idx] += step
                    dn[l][idx] -= step
                    f_up, _, _ = full_loss_and_grads(up, biases, x, y)
                    f_dn, _, _ = full_loss_and_grads(dn, biases, x, y)
                    fd = (f_up - f_dn) / (2 * step)
                    assert abs(wg[l][idx] - fd) / max(abs(fd), 1e-6) < 1e-5
            for j in range(len(biases[l])):
                up = [b.copy() for b in biases]
                dn = [b.copy() for b in biases]
                up[l][j] += step
                dn[l][j] -= step
                f_up, _, _ = full_loss_and_grads(weights, up, x, y)
                f_dn, _, _ = full_loss_and_grads(weights, dn, x, y)
                fd = (f_up - f_dn) / (2 * step)
                assert abs(bg[l][j] - fd) / max(abs(fd), 1e-6) < 1e-5
