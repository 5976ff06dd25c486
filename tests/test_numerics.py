import copy
import hashlib
import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_hot

from rankfed.errors import InputError, ParameterError, ShapeError
from rankfed.numerics import (Rng, gaussian_matrix, logit_error, relu,
                              softmax_cross_entropy, svd_truncate)


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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # masking it would alias another seed's streams
        message = rf"^seed must lie in \[0, 2\*\*64\), got {seed}$"
        with pytest.raises(ParameterError, match=message):
            Rng(seed)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, np.float64(1.0), np.bool_(True), "1"])
    def test_non_integer_seed_rejected(self, seed):
        # int() would turn each into seed 1 and alias its streams
        with pytest.raises(ParameterError, match=r"^seed must be an integer, got "):
            Rng(seed)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint32(7), np.uint64(2**64 - 1)])
    def test_numpy_integer_seed_draws_the_int_seed_streams(self, seed):
        assert np.array_equal(Rng(seed).normal(2, 2), Rng(int(seed)).normal(2, 2))

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
        loss, _ = softmax_cross_entropy(np.zeros((5, 4)), one_hot([0, 1, 2, 3, 0], 4))
        assert loss == pytest.approx(np.log(4), abs=1e-12)

    def test_margin_limit(self):
        losses = []
        for margin in (5.0, 20.0):
            logits = np.zeros((1, 3))
            logits[0, 1] = margin
            loss, _ = softmax_cross_entropy(logits, one_hot([1], 3))
            losses.append(loss)
        assert losses[1] < losses[0]
        assert losses[1] < 1e-8

    def test_large_logits_stable(self):
        loss, grad = softmax_cross_entropy(np.array([[1e4, 0.0]]), one_hot([0], 2))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))

    def test_out_of_range_label(self):
        # the range is checked where the targets are formed; at the kernel
        # integer labels, in range or not, are the wrong shape
        for labels in ([0, 3], [0, 2], [[1.0, 0.0], [0.0, 1.0]]):
            with pytest.raises(ShapeError, match="targets shape"):
                softmax_cross_entropy(np.zeros((2, 3)), np.asarray(labels))

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.substream("logits").normal(4, 5)
        labels = one_hot(rng.substream("labels").integers(0, 5, 4), 5)
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


def _fancy_index_terms(logits, labels):
    """The integer-label kernels' shared terms as they were before the
    targets became one-hot rows: the reference the one-hot kernels must
    reproduce bit for bit."""
    c = logits.shape[-1]
    pick = (np.arange(labels.size), labels.ravel())
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=-1, keepdims=True)
    error = e / z
    error.reshape(-1, c)[pick] -= 1.0
    return error, shifted, z, pick


def _fancy_index_cross_entropy(logits, labels):
    grad, shifted, z, pick = _fancy_index_terms(logits, labels)
    n, c = grad.shape[-2:]
    picked = shifted.reshape(-1, c)[pick].reshape(grad.shape[:-1])
    loss = np.add.reduce(np.log(z[..., 0]) - picked, axis=-1) / n
    grad /= n
    return loss, grad


class TestOneHotKernelsEqualFancyIndex:
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["2-D", "client-stacked"])
    @pytest.mark.parametrize("classes", [2, 10])
    @pytest.mark.parametrize("scale", [1.0, 30.0])
    def test_bit_for_bit(self, lead, classes, scale):
        s = Rng(77).substream(len(lead), classes, scale)
        shape = (*lead, 40, classes)
        logits = s.substream("logits").normal(int(np.prod(shape[:-1])), classes,
                                              scale).reshape(shape)
        labels = s.substream("labels").integers(0, classes, shape[:-1])
        # every other row's label is its argmax, where the picked shifted
        # logit is 0.0 and the loss sums it with the other classes' zeros
        labels[..., ::2] = logits.argmax(axis=-1)[..., ::2]
        targets = one_hot(labels, classes)
        ref_error = _fancy_index_terms(logits, labels)[0]
        ref_loss, ref_grad = _fancy_index_cross_entropy(logits, labels)
        loss, grad = softmax_cross_entropy(logits, targets)
        assert logit_error(logits, targets, "multiclass").tobytes() == ref_error.tobytes()
        assert np.asarray(loss).tobytes() == np.asarray(ref_loss).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()

    def test_checks(self):
        logits = np.zeros((4, 3))
        for kernel in (partial(logit_error, task="multiclass"), softmax_cross_entropy):
            with pytest.raises(ShapeError, match="targets shape"):
                kernel(logits, np.zeros((4, 2)))
            with pytest.raises(InputError, match="empty batch"):
                kernel(logits[:0], np.zeros((0, 3)))


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
