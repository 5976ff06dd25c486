import copy
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfed.errors import InputError, ParameterError
from rankfed.numerics import (Rng, gaussian_matrix, relu, softmax_cross_entropy,
                              svd_truncate)


class TestGaussianMatrix:
    def test_sample_mean_clt_bound(self):
        m = gaussian_matrix(1000, 1000, 0.02, Rng(7).substream("clt"))
        assert abs(m.mean()) < 3 * 0.02 / 1000

    def test_determinism(self):
        a = gaussian_matrix(8, 8, 0.5, Rng(11).substream("s"))
        b = gaussian_matrix(8, 8, 0.5, Rng(11).substream("s"))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = gaussian_matrix(8, 8, 0.5, Rng(11).substream("s"))
        b = gaussian_matrix(8, 8, 0.5, Rng(12).substream("s"))
        assert not np.array_equal(a, b)

    def test_sigma_validation(self, rng):
        with pytest.raises(ParameterError):
            gaussian_matrix(2, 2, 0.0, rng)
        with pytest.raises(ParameterError):
            gaussian_matrix(2, 2, -1.0, rng)


class TestRng:
    def test_substream_independent_of_order(self):
        r1 = Rng(5)
        a_first = r1.substream("a").normal(3, 3)
        r2 = Rng(5)
        r2.substream("b").normal(3, 3)  # interleave another stream
        a_second = r2.substream("a").normal(3, 3)
        assert np.array_equal(a_first, a_second)

    def test_nested_labels(self):
        assert np.array_equal(
            Rng(5).substream("client", 2).substream("round", 9).normal(2, 2),
            Rng(5).substream("client", 2).substream("round", 9).normal(2, 2),
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**64 - 1),
           st.lists(st.one_of(st.integers(-5, 500), st.text(max_size=8)), max_size=4))
    def test_stream_is_philox_keyed_by_the_label_path(self, seed, labels):
        key = hashlib.blake2b(seed.to_bytes(8, "little"), digest_size=16).digest()
        rng = Rng(seed)
        if labels:
            tag = "/".join(str(l) for l in labels).encode("utf-8")
            key = hashlib.blake2b(tag, key=key, digest_size=16).digest()
            rng = rng.substream(*labels)
        gen = np.random.Generator(np.random.Philox(key=int.from_bytes(key, "little")))
        reference = (gen.permutation(23), gen.standard_normal((3, 4)), gen.random(5),
                     gen.integers(0, 1000, 6))
        for a, b in zip(rng_draws(rng), reference):
            assert np.array_equal(a, b)

    def test_copies_continue_the_stream(self):
        rng = Rng(11).substream("client", 3)
        rng.permutation(10)  # copy mid-stream
        copies = [copy.deepcopy(rng), pickle.loads(pickle.dumps(rng))]
        expected = rng_draws(rng)
        for copied in copies:
            for a, b in zip(rng_draws(copied), expected):
                assert np.array_equal(a, b)


def rng_draws(rng):
    return (rng.permutation(23), rng.normal(3, 4), rng.uniform(5),
            rng.integers(0, 1000, 6))


class TestRelu:
    def test_sign_split(self):
        assert np.array_equal(relu(np.array([[1.0, -2.0]])), [[1.0, 0.0]])

    def test_all_negative(self):
        assert np.array_equal(relu(-np.ones((3, 3))), np.zeros((3, 3)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_sign_decomposition_identity(self, seed):
        m = Rng(seed).normal(4, 5)
        assert np.array_equal(relu(m) - relu(-m), m)


class TestFrobeniusNorm:
    def test_zero_matrix(self):
        assert np.linalg.norm(np.zeros((4, 4))) == 0.0

    def test_pythagorean(self):
        assert np.linalg.norm(np.array([[3.0, 4.0]])) == 5.0

    def test_matches_scalar_loop(self, rng):
        m = rng.normal(6, 7)
        acc = 0.0
        for i in range(6):
            for j in range(7):
                acc += m[i, j] ** 2
        expected = np.sqrt(acc)
        assert abs(np.linalg.norm(m) - expected) <= 1e-12 * expected


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = softmax_cross_entropy(np.zeros((5, 4)), np.array([0, 1, 2, 3, 0]))
        assert loss == pytest.approx(np.log(4), abs=1e-12)

    def test_margin_limit(self):
        losses = []
        for margin in (5.0, 20.0):
            logits = np.zeros((1, 3))
            logits[0, 1] = margin
            loss, _ = softmax_cross_entropy(logits, np.array([1]))
            losses.append(loss)
        assert losses[1] < losses[0]
        assert losses[1] < 1e-8

    def test_large_logits_stable(self):
        loss, grad = softmax_cross_entropy(np.array([[1e4, 0.0]]), np.array([0]))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))

    def test_out_of_range_label(self):
        with pytest.raises(InputError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.substream("logits").normal(4, 5)
        labels = np.asarray(rng.substream("labels").integers(0, 5, 4))
        _, grad = softmax_cross_entropy(logits, labels)
        step = 1e-5
        worst = 0.0
        for idx in np.ndindex(logits.shape):
            up = logits.copy()
            up[idx] += step
            dn = logits.copy()
            dn[idx] -= step
            fd = (softmax_cross_entropy(up, labels)[0]
                  - softmax_cross_entropy(dn, labels)[0]) / (2 * step)
            worst = max(worst, abs(grad[idx] - fd) / max(abs(fd), 1e-6))
        assert worst < 1e-6


class TestSvdTruncate:
    def test_rank_one_exact(self, rng):
        u = rng.substream("u").normal(6, 1)
        v = rng.substream("v").normal(1, 5)
        m = u @ v
        ur, sr, vr = svd_truncate(m, 1)
        assert np.linalg.norm(ur @ np.diag(sr) @ vr.T - m) < 1e-10

    def test_diagonal(self):
        m = np.diag([3.0, 2.0, 1.0])
        _, sr, _ = svd_truncate(m, 2)
        assert np.allclose(sr, [3.0, 2.0], atol=1e-12)

    def test_singular_values_sorted_nonnegative(self, rng):
        _, s, _ = svd_truncate(rng.normal(7, 5), 5)
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 0)

    def test_beats_random_candidates(self, rng):
        m = rng.substream("m").normal(8, 6)
        u, s, v = svd_truncate(m, 3)
        best = np.linalg.norm(u @ np.diag(s) @ v.T - m)
        cand_rng = rng.substream("candidates")
        for i in range(1000):
            b = cand_rng.normal(8, 3)
            a = cand_rng.normal(3, 6)
            assert best <= np.linalg.norm(b @ a - m) + 1e-12

    def test_error_nonincreasing_in_rank(self, rng):
        m = rng.normal(6, 6)
        errs = []
        for r in range(1, 7):
            u, s, v = svd_truncate(m, r)
            errs.append(np.linalg.norm(u @ np.diag(s) @ v.T - m))
        assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(5))
        assert errs[-1] < 1e-9

    def test_rank_out_of_range(self, rng):
        with pytest.raises(ParameterError):
            svd_truncate(rng.normal(4, 3), 4)
        with pytest.raises(ParameterError):
            svd_truncate(rng.normal(4, 3), 0)
