import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankfed
from rankfed.errors import InputError, ParameterError, ShapeError, UndefinedMetricError
from rankfed.metrics import (CommLedger, accuracy_score, auc, column_aucs,
                             frobenius_norm, layer_averaged_cka, prepare_labels,
                             prepare_representations, weight_distance)
from rankfed.numerics import Rng


def pairwise_auc(scores, labels):
    """Brute-force oracle: P(score+ > score-) + 0.5 * P(tie)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = ties = 0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1
            elif p == n:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def reference_auc(scores, labels):
    """Per-column AUC as computed before ``column_aucs``: a stable sort, the
    tie blocks' ends, and ``np.trapezoid`` over the ROC points; None for a
    single-class column."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = int(np.sum(labels == 1))
    neg = int(np.sum(labels == 0))
    if pos == 0 or neg == 0:
        return None
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order].astype(np.float64)
    distinct = np.flatnonzero(np.diff(s))
    cut = np.concatenate([distinct, [len(s) - 1]])
    tps = np.cumsum(y)[cut]
    fps = (cut + 1) - tps
    tpr = np.concatenate([[0.0], tps / pos])
    fpr = np.concatenate([[0.0], fps / neg])
    return float(np.trapezoid(tpr, fpr))


def bits(values):
    """Each value's exact bits (None kept), so comparisons tell -0.0 from 0.0."""
    return [None if v is None else float(v).hex() for v in values]


def assert_matches_reference(scores, labels):
    """Prepared labels give ``reference_auc``'s bits."""
    expected = [reference_auc(scores[:, l], labels[:, l])
                for l in range(scores.shape[1])]
    assert bits(column_aucs(scores, prepare_labels(labels))) == bits(expected)


def random_columns(rng, n, width, levels, label_dtype=np.int64):
    """Scores [n, width] and labels: ``levels`` > 0 puts the scores on a grid
    of that many values (ties), 0 draws them continuous over six decades."""
    if levels:
        scores = rng.substream("s").integers(0, levels, (n, width)) / levels
    else:
        scale = 10.0 ** rng.substream("decade").integers(-3, 3, width)
        scores = rng.substream("s").normal(n, width) * scale
    p = 0.05 + 0.9 * rng.substream("p").uniform(width)
    labels = (rng.substream("y").uniform((n, width)) < p).astype(label_dtype)
    return np.asarray(scores, dtype=np.float64), labels


def gram_hsic(z1, z2):
    """Oracle: tr(K1 H K2 H) / (n-1)^2 with centered Gram matrices."""
    n = z1.shape[0]
    h = np.eye(n) - np.ones((n, n)) / n
    k1 = z1 @ z1.T
    k2 = z2 @ z2.T
    return float(np.trace(k1 @ h @ k2 @ h) / (n - 1) ** 2)


def reference_hsic(z1, z2):
    """Per-pair HSIC as computed before prepared operands: centres both inputs."""
    c1 = z1 - z1.mean(axis=0)
    c2 = z2 - z2.mean(axis=0)
    return float(np.sum((c1.T @ c2) ** 2) / (z1.shape[0] - 1) ** 2)


def reference_cka(z1, z2):
    """Per-pair CKA as computed before prepared operands: three HSIC calls."""
    h12 = reference_hsic(z1, z2)
    h11 = reference_hsic(z1, z1)
    h22 = reference_hsic(z2, z2)
    return min(float(h12 / np.sqrt(h11 * h22)), 1.0)


def binary_outcomes(tp, tn, fp, fn):
    """(predictions, labels) with the given confusion counts."""
    predictions = [1] * tp + [0] * tn + [1] * fp + [0] * fn
    labels = [1] * tp + [0] * tn + [0] * fp + [1] * fn
    return predictions, labels


class TestAccuracy:
    def test_perfect(self):
        assert accuracy_score(*binary_outcomes(5, 5, 0, 0)) == 1.0

    def test_all_equal_counts(self):
        assert accuracy_score(*binary_outcomes(3, 3, 3, 3)) == 0.5

    def test_hand_value(self):
        assert accuracy_score(*binary_outcomes(3, 2, 1, 4)) == 0.5

    def test_zero_total(self):
        with pytest.raises(InputError):
            accuracy_score(*binary_outcomes(0, 0, 0, 0))

    def test_multiclass_score(self):
        assert accuracy_score([0, 1, 2, 1], [0, 1, 1, 1]) == 0.75


class TestAuc:
    def test_perfect_separation(self):
        scores = [0.9, 0.8, 0.2, 0.1]
        labels = [1, 1, 0, 0]
        assert auc(scores, labels) == 1.0

    def test_all_scores_equal(self):
        assert auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auc([0.1, 0.2], [1, 1])

    def test_matches_pairwise_oracle_with_ties(self):
        rng = Rng(77)
        for i in range(50):
            s = rng.substream("case", i)
            n = 10 + int(s.substream("n").integers(0, 40))
            # coarse grid of score values forces ties
            scores = np.asarray(s.substream("scores").integers(0, 6, n), dtype=np.float64) / 5.0
            labels = np.asarray(s.substream("labels").integers(0, 2, n))
            if labels.min() == labels.max():
                continue
            assert auc(scores, labels) == pytest.approx(
                pairwise_auc(scores, labels), abs=1e-9)

    @pytest.mark.parametrize("scores, labels", [
        ([0.1, 0.2], [1, 0, 1]),
        ([[0.1, 0.2]], [[1, 0]]),
        ([0.1, 0.2], [1, 2]),
        ([0.1, 0.2], [1, 0.5]),
    ], ids=["length", "2-D", "label-2", "label-half"])
    def test_bad_input_rejected(self, scores, labels):
        with pytest.raises(InputError):
            auc(scores, labels)

    @pytest.mark.parametrize("scores, labels", [
        ([0.1, 0.2], [0, 0]),
        ([0.7], [1]),
        ([], []),
    ], ids=["negatives-only", "one-sample", "empty"])
    def test_one_class_undefined(self, scores, labels):
        with pytest.raises(UndefinedMetricError, match="both classes"):
            auc(scores, labels)

    @pytest.mark.parametrize("labels", [[1, 0, 1, 0], [0, 1, 1, 0]])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad, labels):
        with pytest.raises(InputError, match="finite"):
            auc([bad, bad, 0.5, 0.2], labels)

    def test_bool_labels(self):
        assert auc([0.9, 0.1, 0.5], [True, False, False]) == 1.0


class TestColumnAucs:
    """``column_aucs`` against ``reference_auc``, the per-column algorithm it
    replaced, to the bit, with prepared labels. Grid scores
    (``levels`` > 0) tie, so their columns are summed again over their
    distinct thresholds; continuous scores do not, and keep the sum over
    their whole curves."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 300), st.integers(1, 6),
           st.sampled_from([0, 1, 2, 3, 7, 50]),
           st.sampled_from([np.int64, np.int8, bool, np.float64]))
    def test_bit_identical_to_reference(self, seed, n, width, levels, label_dtype):
        scores, labels = random_columns(Rng(seed), n, width, levels, label_dtype)
        assert_matches_reference(scores, labels)

    # 8 and 128 are numpy's pairwise-summation unroll and block sizes
    @pytest.mark.parametrize("n", [1, 2, 8, 9, 127, 128, 129, 1024, 1025, 9000])
    @pytest.mark.parametrize("levels", [0, 5])
    @pytest.mark.parametrize("width", [1, 4])
    def test_bit_identical_around_summation_blocks(self, n, levels, width):
        scores, labels = random_columns(Rng(n).substream(levels, width), n, width, levels)
        assert_matches_reference(scores, labels)

    def test_columns_with_different_threshold_counts(self):
        # distinct scores, a 3-level grid and a constant column side by side
        rng = Rng(4)
        scores = np.stack([rng.substream("a").normal(200, 1)[:, 0],
                           rng.substream("b").integers(0, 3, 200) / 3.0,
                           np.full(200, 0.25)], axis=1)
        labels = rng.substream("y").integers(0, 2, (200, 3))
        assert_matches_reference(scores, labels)
        assert column_aucs(scores, prepare_labels(labels))[2] == 0.5

    def test_one_class_columns_are_none(self):
        scores = np.array([[0.9, 0.1, 0.3], [0.2, 0.4, 0.6], [0.5, 0.5, 0.5]])
        labels = np.array([[1, 1, 0], [0, 1, 0], [1, 1, 0]])
        values = column_aucs(scores, prepare_labels(labels))
        assert values[1] is None and values[2] is None
        assert values[0] == 1.0

    def test_one_sample_and_no_samples(self):
        assert column_aucs([[0.3, 0.4]], prepare_labels([[1, 0]])) == [None, None]
        assert column_aucs(np.zeros((0, 3)), prepare_labels(np.zeros((0, 3)))) == [None] * 3

    @pytest.mark.parametrize("scores, labels", [
        (np.zeros((3, 2)), np.zeros((3, 3))),
        (np.zeros(3), np.zeros(3)),
        (np.zeros((3, 2)), np.full((3, 2), 2)),
    ], ids=["shape", "1-D", "label-2"])
    def test_bad_input_rejected(self, scores, labels):
        with pytest.raises(InputError):
            column_aucs(scores, prepare_labels(labels))

    def test_raw_labels_rejected_naming_prepare_labels(self):
        scores, labels = random_columns(Rng(2), 20, 3, 0)
        with pytest.raises(ParameterError, match="prepare_labels"):
            column_aucs(scores, labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_score_rejected_in_any_column(self, bad):
        scores, labels = random_columns(Rng(2), 20, 3, 0)
        scores[7, 2] = bad
        labels[:, 2] = 1  # even in a column whose AUC is undefined
        with pytest.raises(InputError, match="finite"):
            column_aucs(scores, prepare_labels(labels))


class TestCommunicationCost:
    def test_hand_value(self):
        ledger = CommLedger(num_clients=5)
        ledger.add_round(100)
        ledger.add_round(100)
        assert ledger.transmitted == 2 * 5 * 200

    def test_zero_rounds(self):
        ledger = CommLedger(3)
        assert ledger.transmitted == 0
        assert ledger.cumulative_transmitted() == []

    def test_rank_halving_halves_per_layer_count(self):
        shapes = [(32, 16), (24, 20)]
        def param_count(r):
            return sum(r * (h1 + h2) for h1, h2 in shapes)
        assert param_count(4) * 2 == param_count(8)

    def test_cutoff_and_additivity(self):
        ledger = CommLedger(num_clients=2)
        for p in (10, 20, 30):
            ledger.add_round(p)
        assert ledger.cumulative_transmitted() == [40, 120, 240]

    def test_running_total_equals_the_last_cumulative_value(self):
        ledger = CommLedger(num_clients=3)
        assert ledger.transmitted == 0
        for p in (7, 0, 120, 5):
            ledger.add_round(p)
            assert ledger.transmitted == ledger.cumulative_transmitted()[-1]

    def test_linear_in_clients(self):
        a = CommLedger(num_clients=2)
        b = CommLedger(num_clients=6)
        for l in (a, b):
            l.add_round(50)
        assert b.transmitted == 3 * a.transmitted


class TestWeightDistance:
    def test_identical(self, rng):
        m = [rng.normal(3, 4)]
        assert weight_distance(m, [m[0].copy()]) == 0.0

    def test_symmetric(self, rng):
        a = [rng.substream("a").normal(3, 4), rng.substream("a2").normal(2, 5)]
        b = [rng.substream("b").normal(3, 4), rng.substream("b2").normal(2, 5)]
        assert weight_distance(a, b) == weight_distance(b, a)

    def test_pythagorean(self):
        a = [np.array([[3.0, 4.0]])]
        b = [np.zeros((1, 2))]
        assert weight_distance(a, b) == 5.0

    def test_metric_axioms_on_random_triples(self):
        rng = Rng(5)
        for i in range(20):
            s = rng.substream("triple", i)
            a = [s.substream("a").normal(4, 3)]
            b = [s.substream("b").normal(4, 3)]
            c = [s.substream("c").normal(4, 3)]
            ab = weight_distance(a, b)
            bc = weight_distance(b, c)
            ac = weight_distance(a, c)
            assert ab >= 0
            assert ac <= ab + bc + 1e-12

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            weight_distance([rng.normal(2, 2)], [rng.normal(3, 2)])

    def test_is_the_norm_of_the_layer_differences(self, rng):
        a = [rng.substream("a").normal(3, 4), rng.substream("a2").normal(2, 5)]
        b = [rng.substream("b").normal(3, 4), rng.substream("b2").normal(2, 5)]
        diffs = [x - y for x, y in zip(a, b)]
        assert weight_distance(a, b) == frobenius_norm(diffs)
        assert frobenius_norm(iter(diffs)) == frobenius_norm(diffs)
        assert frobenius_norm([]) == 0.0


def cka(z1, z2):
    """Plain linear CKA of two representations: a one-layer
    ``layer_averaged_cka``, whose mean of one value is that value."""
    return layer_averaged_cka(prepare_representations([z1]), prepare_representations([z2]))


class TestHsic:
    """The HSIC terms behind CKA, read off prepared operands."""

    def test_constant_representation_is_zero(self):
        assert prepare_representations([np.ones((10, 3))])[0].self_hsic == 0.0

    def test_self_positive(self, rng):
        assert prepare_representations([rng.normal(12, 5)])[0].self_hsic > 0

    def test_matches_gram_oracle(self, rng):
        for i in range(10):
            s = rng.substream("pair", i)
            z1 = s.substream("z1").normal(9, 4)
            z2 = s.substream("z2").normal(9, 6)
            c1, c2 = z1 - z1.mean(axis=0), z2 - z2.mean(axis=0)
            gram = gram_hsic(c1, c2) / np.sqrt(gram_hsic(c1, c1) * gram_hsic(c2, c2))
            assert cka(z1, z2) == pytest.approx(gram, rel=1e-9)

    def test_needs_two_samples(self, rng):
        with pytest.raises(InputError):
            prepare_representations([rng.normal(1, 3)])


class TestCka:
    def test_self_similarity(self, rng):
        z = rng.normal(16, 5)
        assert cka(z, z) == 1.0

    def test_positive_scaling_invariance(self, rng):
        z = rng.normal(16, 5)
        assert cka(z, 2.0 * z) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_invariance(self, rng):
        z = rng.substream("z").normal(20, 6)
        q, _ = np.linalg.qr(rng.substream("q").normal(6, 6))
        assert cka(z, z @ q) == pytest.approx(1.0, abs=1e-9)

    def test_range(self, rng):
        for i in range(25):
            s = rng.substream("r", i)
            v = cka(s.substream("a").normal(11, 4), s.substream("b").normal(11, 7))
            assert 0.0 <= v <= 1.0

    def test_constant_rejected(self, rng):
        with pytest.raises(UndefinedMetricError):
            cka(np.ones((8, 3)), rng.normal(8, 3))


class TestLayerAveragedCka:
    def test_identical_models(self, rng):
        reps = [rng.substream("l", i).normal(12, 5) for i in range(3)]
        assert layer_averaged_cka(prepare_representations(reps),
                                  prepare_representations([r.copy() for r in reps])) == 1.0

    def test_single_layer_equals_plain(self, rng):
        a = rng.substream("a").normal(10, 4)
        b = rng.substream("b").normal(10, 4)
        assert cka(a, b) == reference_cka(a, b)

    def test_constructed_mean(self, rng):
        z = rng.substream("z").normal(30, 6)
        w = rng.substream("w").normal(30, 6)
        target = 0.5 * (1.0 + cka(z, w))
        value = layer_averaged_cka(prepare_representations([z, z]),
                                   prepare_representations([z, w]))
        assert value == pytest.approx(target, rel=1e-12)


class TestGramForm:
    """A layer whose n probe rows are no more than its width d takes the Gram
    form <K1, K2>_F of HSIC, K = C C^T; a pair takes it when both operands
    hold K and the feature form otherwise."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31), st.integers(2, 60),
           st.integers(-30, 30), st.integers(-30, 30),
           st.floats(0, 1e4), st.integers(0, 3))
    def test_agrees_with_the_feature_form(self, seed, n, da_off, db_off, offset, constant):
        rng = Rng(seed)

        def representation(name, d):
            z = rng.substream(name).normal(n, d) + offset
            z[:, :min(constant, d - 1)] = offset  # constant columns, one random kept
            return z

        a = representation("a", max(1, n + da_off))
        b = representation("b", max(1, n + db_off))
        value = cka(a, b)
        assert value == pytest.approx(reference_cka(a, b), rel=0, abs=1e-12)
        prep_a, prep_b = prepare_representations([a]), prepare_representations([b])
        assert layer_averaged_cka(prep_a, prep_b) == value
        assert cka(a, a) == 1.0
        assert cka(b, b) == 1.0

    def test_orthogonal_centred_pair_is_not_negative(self, rng):
        """C1^T C2 = 0 gives CKA 0. The Gram form's rounding lands about half
        of these pairs just below 0 before the clamp."""
        n = 16
        q, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.normal(n, n - 1)]))
        low, high = q[:, 1:8], q[:, 8:]  # orthogonal to each other and to the ones
        for i in range(20):
            s = rng.substream("pair", i)
            v = cka(low @ s.substream("a").normal(7, 20), high @ s.substream("b").normal(8, 24))
            assert 0.0 <= v <= 1e-12

    def test_bits_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """A run whose 128 probe rows meet a 128-wide layer (a 128 x 128 K)
        writes the same records with OpenBLAS on one thread and on two."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nrounds = 2\n\n[model]\nhidden = 128\npretrain_epochs = 1\n")
        src = str(Path(rankfed.__file__).resolve().parent.parent)
        records = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            out = tmp_path / threads
            subprocess.run([sys.executable, "-m", "rankfed.cli", "run", str(cfg),
                            "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=120)
            records.append((out / "records.jsonl").read_bytes())
        assert records[0] == records[1]


class TestPreparedOperands:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31), st.integers(2, 40),
           st.lists(st.tuples(st.integers(1, 20), st.integers(1, 20)),
                    min_size=1, max_size=3))
    def test_bit_identical_to_per_pair_reference(self, seed, n, widths):
        """Bit for bit where both operands of a layer take the feature form
        (n > d); within 1e-12 where either is wide enough for the Gram form,
        whose self-HSIC sums in another order."""
        rng = Rng(seed)
        reps_a = [rng.substream("a", i).normal(n, da) for i, (da, _) in enumerate(widths)]
        reps_b = [3.0 * rng.substream("b", i).normal(n, db) + 1.0
                  for i, (_, db) in enumerate(widths)]
        per_layer = [reference_cka(a, b) for a, b in zip(reps_a, reps_b)]
        expected = float(np.mean(per_layer))
        prep_a = prepare_representations(reps_a)
        prep_b = prepare_representations(reps_b)
        for (da, db), a, b, ref in zip(widths, reps_a, reps_b, per_layer):
            assert abs(cka(a, b) - ref) <= (0.0 if n > max(da, db) else 1e-12)
        value = layer_averaged_cka(prep_a, prep_b)
        assert abs(value - expected) <= (0.0 if n > max(map(max, widths)) else 1e-12)
        # a prepared operand is reusable: a second pairing gives the same bits
        assert layer_averaged_cka(prep_a, prep_b) == value

    def test_layer_mean_sums_in_np_mean_order(self):
        # nine layers, where numpy sums pairwise and sum() left to right, and
        # here the two round differently
        rng = Rng(4)
        reps_a = [rng.substream("a", i).normal(12, 3) for i in range(9)]
        reps_b = [rng.substream("b", i).normal(12, 3) for i in range(9)]
        per_layer = [cka(a, b) for a, b in zip(reps_a, reps_b)]
        assert sum(per_layer) / 9 != float(np.mean(per_layer))
        value = layer_averaged_cka(prepare_representations(reps_a),
                                   prepare_representations(reps_b))
        assert value == float(np.mean(per_layer))

    @pytest.mark.parametrize("constant_side", [0, 1])
    def test_constant_operand_rejected(self, rng, constant_side):
        reps = [[rng.normal(8, 3)], [rng.normal(8, 3)]]
        reps[constant_side] = [np.ones((8, 3))]
        prepared = [prepare_representations(r) for r in reps]
        with pytest.raises(UndefinedMetricError):
            layer_averaged_cka(*prepared)

    @pytest.mark.parametrize("raw_side", [0, 1])
    def test_raw_representations_rejected_naming_the_prepare_function(self, rng, raw_side):
        reps = [prepare_representations([rng.normal(8, 3)]) for _ in range(2)]
        reps[raw_side] = [rng.normal(8, 3)]
        with pytest.raises(ParameterError, match="prepare_representations"):
            layer_averaged_cka(*reps)

    def test_sample_count_mismatch_rejected(self, rng):
        a = prepare_representations([rng.normal(8, 3)])
        b = prepare_representations([rng.normal(9, 3)])
        with pytest.raises(InputError, match="sample counts differ"):
            layer_averaged_cka(a, b)

    def test_layer_count_mismatch_rejected(self, rng):
        a = prepare_representations([rng.normal(8, 3), rng.normal(8, 4)])
        b = prepare_representations([rng.normal(8, 3)])
        with pytest.raises(InputError, match="layer count mismatch"):
            layer_averaged_cka(a, b)

    @pytest.mark.parametrize("shape", [(1, 3), (5,), (2, 3, 4)])
    def test_bad_shape_rejected_when_prepared(self, shape):
        with pytest.raises(InputError):
            prepare_representations([np.arange(np.prod(shape), dtype=float).reshape(shape)])
