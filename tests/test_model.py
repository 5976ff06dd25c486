import numpy as np
import pytest

from conftest import (fd_factor_grads, lwf_penalty_and_grads, make_model, max_rel_err,
                      one_hot, walk_on)

from rankfed import model
from rankfed.errors import InputError, InvariantError, NumericError, ParameterError, ShapeError
from rankfed.harness import evaluate, prepare_splits
from rankfed.lora import AdapterSet, LoRAAdapter, init_adapter_set
from rankfed.model import (CLConfig, FrozenBase, ImportanceEstimate, OpCounter, Walk,
                           base_preactivation, estimate_fim, estimate_mas_importance, forward,
                           lwf_penalty, quadratic_penalty, random_base, sgd_step,
                           supervised_loss_and_grads, total_local_loss)
from rankfed.numerics import Rng, softmax


ONES = np.ones

BROKEN_CHAINS = {
    "no-layers": ([], []),
    "bias-wider-than-weight": ([ONES((3, 4))], [ONES(5)]),
    "no-bias": ([ONES((3, 4))], []),
    "bias-not-1-D": ([ONES((3, 4))], [ONES((3, 1))]),
    "weight-not-2-D": ([ONES(4)], [ONES(4)]),
    "client-stacked-weight": ([ONES((2, 3, 4))], [ONES((2, 3))]),
    "zero-width-output": ([ONES((0, 4))], [ONES(0)]),
    "zero-width-input": ([ONES((3, 0))], [ONES(3)]),
    "chain-broken": ([ONES((3, 4)), ONES((2, 5))], [ONES(3), ONES(2)]),
}

WRONG_SHAPES = {
    "factor-input-width": lambda rng: init_adapter_set([(7, 5), (4, 6)], 3, 0.05, rng),
    "factor-output-width": lambda rng: init_adapter_set([(7, 5), (1, 7)], 3, 0.05, rng),
    "dense": lambda rng: [np.zeros((7, 5)), np.zeros((4, 6))],
}


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

    @pytest.mark.parametrize("kind", ["none", "factor", "dense"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "client-stacked"])
    def test_cached_base_preactivation_gives_the_same_bits(self, rng, kind, stacked):
        base, adapters, x, _ = make_model(rng, dims=(5, 9, 7, 4), rank=2)
        if stacked:
            x = np.stack([x, -2.0 * x, x[::-1]])
        given = {"none": None, "dense": adapters.dense(),
                 "factor": adapters.stacked(3)[0] if stacked else adapters}[kind]
        z0 = base_preactivation(base, x)
        cached_logits, cached_reps = forward(base, given, x, z0)
        logits, reps = forward(base, given, x)
        for a, b in zip([cached_logits, *cached_reps], [logits, *reps]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        # no in-place step wrote to the cache: with no adapters, layer 0's
        # pre-activation is the cache itself
        assert z0.tobytes() == base_preactivation(base, x).tobytes()

    def test_client_stacked_set_needs_a_client_stacked_batch(self, rng):
        base, adapters, x, _ = make_model(rng)
        with pytest.raises(ShapeError, match="needs a client-stacked batch"):
            forward(base, adapters.stacked(2)[0], x)

    # the base's layer 1 is 4 x 7: an input width of 6 failed inside a
    # product, an output width of 1 broadcast without an error
    @pytest.mark.parametrize("case", list(WRONG_SHAPES))
    @pytest.mark.parametrize("run", ["forward", "evaluate"])
    def test_adapters_for_other_layer_shapes_refused(self, rng, case, run):
        base, _, x, y = make_model(rng)
        adapters = WRONG_SHAPES[case](rng.substream("wrong"))
        with pytest.raises(ShapeError, match="layer 1: "):
            if run == "forward":
                forward(base, adapters, x)
            else:
                evaluate(base, adapters, prepare_splits({"test": (x, y)}, "multiclass"))

    def test_cached_base_preactivation_is_read_only(self, rng):
        base, _, x, _ = make_model(rng)
        z0 = base_preactivation(base, x)
        with pytest.raises(ValueError, match="read-only"):
            z0 += 1.0
        with pytest.raises(ValueError, match="read-only"):
            np.tanh(z0, out=z0)


class TestSupervisedLoss:
    def test_duplicated_sample_mean_invariance(self, rng):
        base, adapters, x, y = make_model(rng, batch=1)
        single, _ = supervised_loss_and_grads(walk_on(base, adapters), x, y)
        doubled, _ = supervised_loss_and_grads(
            walk_on(base, adapters), np.vstack([x, x]), np.concatenate([y, y]))
        assert single == pytest.approx(doubled, abs=1e-14)

    def test_grads_match_finite_differences(self, rng):
        base, adapters, x, y = make_model(rng)
        _, grads = supervised_loss_and_grads(walk_on(base, adapters), x, y)
        fd = fd_factor_grads(
            lambda a: supervised_loss_and_grads(walk_on(base, a), x, y)[0], adapters)
        assert max_rel_err(grads, fd) < 1e-5

    def test_zero_b_kills_a_gradient(self, rng):
        base, _, x, y = make_model(rng)
        fresh = init_adapter_set(base.layer_shapes(), 3, 0.02, rng.substream("f"))
        _, grads = supervised_loss_and_grads(walk_on(base, fresh), x, y)
        for (gB, gA), a in zip(grads, fresh):
            assert np.array_equal(gA, np.zeros_like(a.A))
            assert not np.array_equal(gB, np.zeros_like(a.B))

    def test_empty_batch(self, rng):
        base, adapters, x, y = make_model(rng)
        with pytest.raises(InputError):
            supervised_loss_and_grads(walk_on(base, adapters), x[:0], y[:0])

    def test_multilabel_grads_match_fd(self, rng):
        base, adapters, x, _ = make_model(rng)
        y = np.asarray(rng.substream("ml").integers(0, 2, (x.shape[0], 4)))
        _, grads = supervised_loss_and_grads(walk_on(base, adapters), x, y,
                                             task="multilabel")
        fd = fd_factor_grads(
            lambda a: supervised_loss_and_grads(walk_on(base, a), x, y,
                                                task="multilabel")[0],
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

        for xb, yb, adp in ((x, y, adapters), (stacked_x, stacked_y, adapters.stacked(2)[0])):
            as_int = supervised_loss_and_grads(walk_on(base, adp), xb, yb,
                                               task="multilabel")
            as_float = supervised_loss_and_grads(walk_on(base, adp), xb,
                                                 yb.astype(np.float64), task="multilabel")
            assert as_bytes(*as_int) == as_bytes(*as_float)
            weights = [w.copy() for w in base.weights]
            biases = [b.copy() for b in base.biases]
            if xb.ndim == 3:
                weights = [np.stack([w, w]) for w in weights]
                biases = [np.stack([b, b]) for b in biases]
            as_int = supervised_loss_and_grads(Walk(weights, biases), xb, yb, "multilabel")
            as_float = supervised_loss_and_grads(Walk(weights, biases), xb,
                                                 yb.astype(np.float64), "multilabel")
            assert as_bytes(*as_int) == as_bytes(*as_float)


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
        p, grads = quadratic_penalty(adapters, [(adapters.dense(), 2.0)], imp)[0]
        assert p == 0.0
        assert all(np.array_equal(gB, 0 * gB) and np.array_equal(gA, 0 * gA)
                   for gB, gA in grads)

    def test_hand_value(self):
        # one 1x2 layer, dense - anchor = [[1, -1]], F = ones, mu = 2
        adapter = LoRAAdapter(np.array([[1.0]]), np.array([[1.0, -1.0]]))
        adapters = AdapterSet((adapter,), 1)
        anchor = [np.zeros((1, 2))]
        imp = ImportanceEstimate((np.ones((1, 2)),))
        p, _ = quadratic_penalty(adapters, [(anchor, 2.0)], imp)[0]
        assert p == pytest.approx(2.0, abs=1e-15)

    def test_grads_match_fd(self, rng):
        base, adapters, anchor, imp = self._setup(rng)
        _, grads = quadratic_penalty(adapters, [(anchor, 0.7)], imp)[0]
        fd = fd_factor_grads(lambda a: quadratic_penalty(a, [(anchor, 0.7)], imp)[0][0],
                             adapters)
        assert max_rel_err(grads, fd) < 1e-5

    def test_mas_equals_ewc_given_same_importance(self, rng):
        base, adapters, anchor, imp = self._setup(rng)
        x = rng.substream("x").normal(6, 5)
        y = one_hot(rng.substream("y").integers(0, 4, 6), 4)
        pe, ge = total_local_loss(walk_on(base, adapters), x, y, anchor, None, imp,
                                  CLConfig("ewc", 0.3, 0.0))
        pm, gm = total_local_loss(walk_on(base, adapters), x, y, anchor, None, imp,
                                  CLConfig("mas", 0.3, 0.0))
        assert pe == pm
        assert all(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
                   for a, b in zip(ge, gm))

    def test_quadratic_scaling(self, rng):
        _, adapters, _, imp = self._setup(rng)
        anchor = adapters.dense()
        for t in (0.5, 2.0, 3.0):
            shifted = [a - t * np.ones_like(a) for a in anchor]
            once = [a - np.ones_like(a) for a in anchor]
            p1, _ = quadratic_penalty(adapters, [(once, 1.0)], imp)[0]
            pt, _ = quadratic_penalty(adapters, [(shifted, 1.0)], imp)[0]
            assert pt == pytest.approx(t * t * p1, rel=1e-12)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_negative_importance_rejected(self, bad):
        with pytest.raises(InvariantError, match="finite and nonnegative"):
            ImportanceEstimate((np.array([[bad, 1.0]]),))

    @pytest.mark.parametrize("case", ["one matrix for two layers", "1x1 for a 7x5 layer"])
    def test_importance_that_does_not_fit_the_layers_rejected(self, rng, case):
        base, adapters, anchor, imp = self._setup(rng)
        x = rng.substream("x").normal(6, 5)
        y = one_hot(rng.substream("y").integers(0, 4, 6), 4)
        first, second = imp.matrices
        matrices, layer = {"one matrix for two layers": ((first,), 1),
                           "1x1 for a 7x5 layer": ((np.ones((1, 1)), second), 0)}[case]
        with pytest.raises(ShapeError, match=f"layer {layer}"):
            total_local_loss(walk_on(base, adapters), x, y, anchor, anchor,
                             ImportanceEstimate(matrices),
                             CLConfig("ewc", 0.3, 0.2))


class TestImportanceEstimates:
    def test_fim_zero_in_perfect_fit_limit(self):
        # huge correct-class margin: softmax saturates, gradients vanish
        base = FrozenBase((np.eye(2) * 50.0,), (np.zeros(2),))
        adapters = init_adapter_set(base.layer_shapes(), 1, 0.02, Rng(0))
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = one_hot([0, 1], 2)
        fim = estimate_fim(base, adapters, x, y)
        assert all(np.max(m) < 1e-12 for m in fim.matrices)

    @pytest.mark.parametrize("task", ["multiclass", "multilabel"])
    def test_fim_checks_labels_as_the_loss_does(self, task):
        base = random_base([4, 6, 3], Rng(0))
        x = Rng(1).normal(5, 4)
        # the label range is checked where the targets are formed
        # (harness._training_targets); a kernel checks their shape
        bad = [np.zeros((5, 2)), np.zeros((5, 4))]
        if task == "multiclass":
            bad += [[0, 1, 2, 0, -1], [0, 1, 2, 0, 3]]  # integer labels
        for y in bad:
            with pytest.raises(ShapeError, match="targets shape"):
                estimate_fim(base, None, x, np.asarray(y), task)

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
        p, dz = lwf_penalty(forward(base, adapters, x)[0],
                            forward(base, adapters, x)[0], mu)
        probs = softmax(forward(base, adapters, x)[0])
        entropy = float(np.mean(-np.sum(probs * np.log(probs), axis=1)))
        assert p == pytest.approx(mu * entropy, rel=1e-10)
        assert np.array_equal(dz, 0 * dz)

    def test_mu_zero(self, rng):
        base, adapters, x, _ = make_model(rng)
        teacher = [d + 0.1 for d in adapters.dense()]
        p, dz = lwf_penalty(forward(base, teacher, x)[0],
                            forward(base, adapters, x)[0], 0.0)
        assert p == 0.0
        assert np.max(np.abs(dz)) == 0

    def test_grads_match_fd(self, rng):
        base, adapters, x, _ = make_model(rng)
        teacher = [d + rng.substream("t", i).normal(*d.shape, 0.2)
                   for i, d in enumerate(adapters.dense())]
        _, grads = lwf_penalty_and_grads(base, adapters, teacher, x, 0.6)
        t_logits = forward(base, teacher, x)[0]
        fd = fd_factor_grads(
            lambda a: lwf_penalty(t_logits, forward(base, a, x)[0], 0.6)[0], adapters)
        assert max_rel_err(grads, fd) < 1e-5

    def test_temperature_grads_match_fd(self, rng):
        base, adapters, x, _ = make_model(rng)
        teacher = [d + 0.15 for d in adapters.dense()]
        _, grads = lwf_penalty_and_grads(base, adapters, teacher, x, 0.6,
                                         temperature=2.0)
        t_logits = forward(base, teacher, x)[0]
        fd = fd_factor_grads(
            lambda a: lwf_penalty(t_logits, forward(base, a, x)[0], 0.6,
                                  temperature=2.0)[0],
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
        sup, sup_g = supervised_loss_and_grads(walk_on(base, adapters), x, y)
        tot, tot_g = total_local_loss(walk_on(base, adapters), x, y, sta, pla, imp,
                                      CLConfig("none"))
        assert tot == sup
        assert all(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
                   for a, b in zip(sup_g, tot_g))

    def test_zero_strengths_equal_supervised(self, rng):
        base, adapters, x, y = make_model(rng)
        sta, pla, imp = self._anchors(rng, adapters)
        sup, _ = supervised_loss_and_grads(walk_on(base, adapters), x, y)
        tot, _ = total_local_loss(walk_on(base, adapters), x, y, sta, pla, imp,
                                  CLConfig("ewc", 0.0, 0.0))
        assert abs(tot - sup) < 1e-15

    @pytest.mark.parametrize("method", ["ewc", "mas"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "client-stacked"])
    def test_component_sum(self, rng, method, stacked):
        # bit for bit: the supervised result, plus the stability term, then
        # the plasticity term, each as quadratic_penalty gives it alone
        base, adapters, x, y = make_model(rng)
        sta, pla, imp = self._anchors(rng, adapters)
        if stacked:
            adapters = adapters.stacked(2)[0]
            x, y = np.stack([x, -0.5 * x]), np.stack([y, y[::-1]])
            imp = ImportanceEstimate(tuple(np.stack([m, 2.0 * m]) for m in imp.matrices))
        tot, tot_g = total_local_loss(walk_on(base, adapters), x, y, sta, pla, imp,
                                      CLConfig(method, 0.4, 0.2))
        sup, g0 = supervised_loss_and_grads(walk_on(base, adapters), x, y)
        p1, g1 = quadratic_penalty(adapters, [(sta, 0.4)], imp)[0]
        p2, g2 = quadratic_penalty(adapters, [(pla, 0.2)], imp)[0]
        assert np.asarray(tot).tobytes() == np.asarray(sup + p1 + p2).tobytes()
        expected = [g.tobytes() for (b0, a0), (b1, a1), (b2, a2) in zip(g0, g1, g2)
                    for g in (b0 + b1 + b2, a0 + a1 + a2)]
        assert [g.tobytes() for pair in tot_g for g in pair] == expected

    def test_lwf_component_sum(self, rng):
        # a dense stability teacher and an AdapterSet plasticity teacher, as
        # local training passes them
        base, adapters, x, y = make_model(rng)
        sta, _, _ = self._anchors(rng, adapters)
        pla = AdapterSet(tuple(
            LoRAAdapter(a.B + rng.substream("pla", i).normal(*a.B.shape, 0.1), a.A)
            for i, a in enumerate(adapters)), adapters.nominal_rank)
        cl = CLConfig("lwf", 0.4, 0.2, lwf_temperature=1.5)
        tot, tot_g = total_local_loss(walk_on(base, adapters), x, y,
                                      forward(base, sta, x)[0], forward(base, pla, x)[0],
                                      None, cl)
        sup, g0 = supervised_loss_and_grads(walk_on(base, adapters), x, y)
        p1, g1 = lwf_penalty_and_grads(base, adapters, sta, x, 0.4, temperature=1.5)
        p2, g2 = lwf_penalty_and_grads(base, adapters, pla, x, 0.2, temperature=1.5)
        assert tot == pytest.approx(sup + p1 + p2, rel=1e-12)
        expected = [(b0 + b1 + b2, a0 + a1 + a2)
                    for (b0, a0), (b1, a1), (b2, a2) in zip(g0, g1, g2)]
        for (eB, eA), (tB, tA) in zip(expected, tot_g):
            assert np.max(np.abs(eB - tB)) < 1e-12
            assert np.max(np.abs(eA - tA)) < 1e-12

    def test_two_teacher_lwf_step_walks_backward_once(self, rng, monkeypatch):
        base, adapters, x, y = make_model(rng)
        sta, pla, _ = self._anchors(rng, adapters)
        calls = []
        backward = model.Walk.backward

        def counted(*args, **kwargs):
            calls.append(1)
            return backward(*args, **kwargs)

        teachers = (forward(base, sta, x)[0], forward(base, pla, x)[0])
        monkeypatch.setattr(model.Walk, "backward", counted)
        total_local_loss(walk_on(base, adapters), x, y, *teachers, None,
                         CLConfig("lwf", 0.4, 0.2))
        assert len(calls) == 1

    def test_absent_stability_anchor_skips_term(self, rng):
        base, adapters, x, y = make_model(rng)
        _, pla, imp = self._anchors(rng, adapters)
        cl = CLConfig("ewc", 5.0, 0.3)
        tot, _ = total_local_loss(walk_on(base, adapters), x, y, None, pla, imp, cl)
        sup, _ = supervised_loss_and_grads(walk_on(base, adapters), x, y)
        p2, _ = quadratic_penalty(adapters, [(pla, 0.3)], imp)[0]
        assert tot == pytest.approx(sup + p2, rel=1e-12)

    @pytest.mark.parametrize("method", ["ewc", "mas", "lwf"])
    def test_total_grads_match_fd(self, rng, method):
        base, adapters, x, y = make_model(rng)
        sta, pla, imp = self._anchors(rng, adapters)
        cl = CLConfig(method, 0.3, 0.15)
        if method == "lwf":  # the teachers' logits, not the teachers
            sta, pla = forward(base, sta, x)[0], forward(base, pla, x)[0]
        _, grads = total_local_loss(walk_on(base, adapters), x, y, sta, pla, imp, cl)
        fd = fd_factor_grads(
            lambda a: total_local_loss(walk_on(base, a), x, y, sta, pla, imp, cl)[0],
            adapters)
        assert max_rel_err(grads, fd) < 1e-5

    def test_quadratic_penalty_needs_an_adapter_walk(self, rng):
        # a walk over the base alone has weight gradients, not factors to anchor
        base, adapters, x, y = make_model(rng)
        imp = estimate_fim(base, adapters, x, y)
        with pytest.raises(ParameterError,
                           match="^ewc penalty requires a walk built on an AdapterSet$"):
            total_local_loss(walk_on(base), x, y, adapters.dense(), None, imp,
                             CLConfig("ewc", 0.3, 0.0))


def sgd_alone(adapters, grads, eta):
    """``sgd_step`` on a stack of one client; returns the stepped adapters."""
    stack, params, flat_grads = adapters.stacked(1)
    for view, g in zip(flat_grads.views, (g for pair in grads for g in pair)):
        view[0] = g
    sgd_step(params, flat_grads, eta, [0])
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
        _, grads = supervised_loss_and_grads(walk_on(base, adapters), x, y)
        stepped = sgd_alone(adapters, grads, 0.0)
        for a, b in zip(adapters, stepped):
            assert np.array_equal(a.B, b.B) and np.array_equal(a.A, b.A)

    def test_descent_on_quadratic(self):
        # single 1x1 layer: loss = (B*A*1 - 2)^2 through the quadratic penalty
        adapter = LoRAAdapter(np.array([[1.0]]), np.array([[1.0]]))
        adapters = AdapterSet((adapter,), 1)
        anchor = [np.array([[2.0]])]
        imp = ImportanceEstimate((np.ones((1, 1)),))
        loss0, grads = quadratic_penalty(adapters, [(anchor, 2.0)], imp)[0]
        stepped = sgd_alone(adapters, grads, 0.05)
        loss1, _ = quadratic_penalty(stepped, [(anchor, 2.0)], imp)[0]
        assert loss1 < loss0

    def test_non_finite_gradient_rejected(self, rng):
        _, adapters, _, _ = make_model(rng)
        bad = [(np.zeros_like(a.B), np.zeros_like(a.A)) for a in adapters]
        bad[0][0][0, 0] = np.nan
        with pytest.raises(NumericError):
            sgd_alone(adapters, bad, 0.1)


class TestFrozenBase:
    @pytest.mark.parametrize("case", list(BROKEN_CHAINS))
    def test_broken_layer_chain_rejected(self, case):
        with pytest.raises(ShapeError):
            FrozenBase(*BROKEN_CHAINS[case])

    def test_a_chain_of_layers_is_accepted(self):
        base = FrozenBase([ONES((3, 4)), ONES((2, 3))], [ONES(3), ONES(2)])
        assert base.layer_shapes() == [(3, 4), (2, 3)]

    @pytest.mark.parametrize("dims", [[4, 0, 3], [4, 3, 0], [0, 3]])
    def test_zero_width_layer_rejected(self, dims):
        with pytest.raises(ShapeError, match="layer widths must be >= 1"):
            random_base(dims, Rng(0))

    def test_weights_not_writeable(self, rng):
        base = random_base([4, 6, 3], rng)
        with pytest.raises(ValueError):
            base.weights[0][0, 0] = 1.0

    def test_checksum_stable_across_training(self, rng):
        base, adapters, x, y = make_model(rng)
        before = base.checksum()
        for _ in range(5):
            _, grads = supervised_loss_and_grads(walk_on(base, adapters), x, y)
            adapters = sgd_alone(adapters, grads, 0.1)
        assert base.checksum() == before

    def test_fresh_adapter_loss_equals_base_loss(self, rng):
        base, _, x, y = make_model(rng)
        fresh = init_adapter_set(base.layer_shapes(), 3, 0.02, rng.substream("f"))
        from rankfed.numerics import softmax_cross_entropy
        base_logits, _ = forward(base, None, x)
        base_loss, _ = softmax_cross_entropy(base_logits, y)
        adapter_loss, _ = supervised_loss_and_grads(walk_on(base, fresh), x, y)
        assert adapter_loss == pytest.approx(base_loss, abs=1e-15)


class TestFullModelPath:
    def test_full_grads_match_fd(self, rng):
        base = random_base([4, 5, 3], rng.substream("base"))
        weights = [w.copy() for w in base.weights]
        biases = [b.copy() for b in base.biases]
        x = rng.substream("x").normal(6, 4)
        y = one_hot(rng.substream("y").integers(0, 3, 6), 3)
        _, grads = supervised_loss_and_grads(Walk(weights, biases), x, y)
        wg, bg = zip(*grads)
        step = 1e-5
        for l in range(len(weights)):
            for idx in np.ndindex(weights[l].shape):
                for arrs, grads, key in ((weights, wg, idx),):
                    up = [w.copy() for w in weights]
                    dn = [w.copy() for w in weights]
                    up[l][idx] += step
                    dn[l][idx] -= step
                    f_up, _ = supervised_loss_and_grads(Walk(up, biases), x, y)
                    f_dn, _ = supervised_loss_and_grads(Walk(dn, biases), x, y)
                    fd = (f_up - f_dn) / (2 * step)
                    assert abs(wg[l][idx] - fd) / max(abs(fd), 1e-6) < 1e-5
            for j in range(len(biases[l])):
                up = [b.copy() for b in biases]
                dn = [b.copy() for b in biases]
                up[l][j] += step
                dn[l][j] -= step
                f_up, _ = supervised_loss_and_grads(Walk(weights, up), x, y)
                f_dn, _ = supervised_loss_and_grads(Walk(weights, dn), x, y)
                fd = (f_up - f_dn) / (2 * step)
                assert abs(bg[l][j] - fd) / max(abs(fd), 1e-6) < 1e-5


class TestOpCounter:
    # On make_model's 5-7-4 network, rank 3, batch 6, summed by hand from
    # each product's shapes. A factor-path forward is 426 + 366 = 792
    # (h W^T, h A^T, (h A^T) B^T per layer) and its backward walk is 906
    # (dz B, both factor folds, dz W and (dz B) A); a full-model forward is
    # 210 + 168 = 378 and its backward 168 + 168 + 210 = 546.
    def test_supervised_pass_counts_its_backward_walk(self, rng):
        base, adapters, x, y = make_model(rng)
        counter = OpCounter()
        supervised_loss_and_grads(walk_on(base, adapters, counter), x, y)
        assert counter.multiplies == 792 + 906

    def test_full_model_pass_counts_its_backward_walk(self, rng):
        base, _, x, y = make_model(rng)
        counter = OpCounter()
        walk = Walk(list(base.weights), list(base.biases), counter=counter)
        supervised_loss_and_grads(walk, x, y)
        assert counter.multiplies == 378 + 546

    def test_lwf_teachers_forwards_are_not_counted(self, rng):
        base, adapters, x, y = make_model(rng)
        sta = [d + 0.1 for d in adapters.dense()]
        counter = OpCounter()
        total_local_loss(walk_on(base, adapters, counter), x, y, forward(base, sta, x)[0],
                         forward(base, adapters, x)[0], None, CLConfig("lwf", 0.4, 0.2))
        assert counter.multiplies == 792 + 906
