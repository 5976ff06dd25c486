import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import linear_probe_accuracy

from rankfed.data import (Dataset, dataset_from_arrays, generate_multilabel,
                          generate_synthetic, ks_statistic, load_csv,
                          manifest_text, partition,
                          partition_multilabel, relabeled)
from rankfed.errors import InputError, ParameterError
from rankfed.numerics import Rng


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(4, 8, 30, 2.0, Rng(9).substream("d"))
        b = generate_synthetic(4, 8, 30, 2.0, Rng(9).substream("d"))
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.train_y, b.train_y)

    def test_split_sizes_and_class_presence(self):
        ds = generate_synthetic(5, 4, 40, 1.0, Rng(1))
        assert len(ds.train_x) == 5 * 28
        assert len(ds.val_x) == 5 * 6
        assert len(ds.test_x) == 5 * 6
        for split in ("train", "test"):
            _, y = ds.split(split)
            assert set(y.tolist()) == set(range(5))

    def test_zero_separation_is_chance_level(self):
        accs = []
        for seed in range(5):
            ds = generate_synthetic(4, 8, 60, 0.0, Rng(seed).substream("chance"))
            accs.append(linear_probe_accuracy(ds.train_x, ds.train_y,
                                              ds.test_x, ds.test_y, 4))
        assert abs(float(np.mean(accs)) - 0.25) <= 0.05

    def test_high_separation_is_separable(self):
        ds = generate_synthetic(4, 16, 80, 8.0, Rng(3).substream("sep"))
        acc = linear_probe_accuracy(ds.train_x, ds.train_y, ds.test_x, ds.test_y, 4)
        assert acc > 0.95

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            generate_synthetic(1, 8, 30, 1.0, Rng(0))
        with pytest.raises(ParameterError):
            generate_synthetic(3, 1, 30, 1.0, Rng(0))
        with pytest.raises(ParameterError):
            generate_synthetic(3, 8, 1, 1.0, Rng(0))

    def test_relabeled_shares_features(self):
        ds = generate_synthetic(4, 8, 30, 2.0, Rng(5))
        shifted = relabeled(ds)
        assert np.array_equal(ds.train_x, shifted.train_x)
        assert np.array_equal((ds.train_y + 1) % 4, shifted.train_y)


class TestKsStatistic:
    def test_identical(self):
        assert ks_statistic([5, 5, 5], [10, 10, 10]) == 0.0

    def test_disjoint_contiguous(self):
        assert ks_statistic([7, 7, 0, 0], [0, 0, 3, 3]) == 1.0

    def test_hand_prefix_cdf(self):
        assert ks_statistic([0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5]) == 1.0

    def test_empty_histogram(self):
        with pytest.raises(InputError):
            ks_statistic([0, 0], [1, 1])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=3, max_size=8),
           st.lists(st.integers(0, 50), min_size=3, max_size=8))
    def test_symmetric_and_bounded(self, p, q):
        n = min(len(p), len(q))
        p, q = p[:n], q[:n]
        if sum(p) == 0 or sum(q) == 0:
            return
        assert ks_statistic(p, q) == ks_statistic(q, p)
        assert 0.0 <= ks_statistic(p, q) <= 1.0


class TestPartition:
    @pytest.fixture
    def dataset(self):
        return generate_synthetic(10, 6, 50, 1.5, Rng(21))

    def test_disjoint_ks_exactly_one(self, dataset):
        plan = partition(dataset, 5, "disjoint", Rng(4))
        assert plan.mean_pairwise_ks == 1.0

    def test_iid_ks_near_zero(self, dataset):
        plan = partition(dataset, 5, "iid", Rng(4))
        assert plan.mean_pairwise_ks <= 0.02

    def test_overlap_strictly_intermediate(self, dataset):
        plan = partition(dataset, 5, "overlap", Rng(4),
                         classes_per_client=4, shared_classes=2)
        assert 0.0 < plan.mean_pairwise_ks < 1.0

    @pytest.mark.parametrize("scheme,kw", [
        ("iid", {}),
        ("disjoint", {}),
        ("overlap", dict(classes_per_client=4, shared_classes=2)),
    ])
    def test_shards_disjoint_and_cover(self, dataset, scheme, kw):
        plan = partition(dataset, 5, scheme, Rng(4), **kw)
        combined = np.concatenate(plan.client_indices)
        assert len(combined) == len(set(combined.tolist()))
        assert sorted(combined.tolist()) == list(range(len(dataset.train_y)))

    def test_deterministic(self, dataset):
        a = partition(dataset, 5, "disjoint", Rng(4))
        b = partition(dataset, 5, "disjoint", Rng(4))
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.client_indices, b.client_indices))

    def test_infeasible_schemes(self, dataset):
        with pytest.raises(ParameterError):
            partition(dataset, 11, "disjoint", Rng(0))
        with pytest.raises(ParameterError):
            partition(dataset, 5, "overlap", Rng(0),
                      classes_per_client=2, shared_classes=2)
        with pytest.raises(ParameterError):
            # step 1 with 3 clients leaves classes 4..9 unclaimed
            partition(dataset, 3, "overlap", Rng(0),
                      classes_per_client=2, shared_classes=1)

    def test_manifest_text(self, dataset):
        plan = partition(dataset, 5, "disjoint", Rng(4))
        text = manifest_text(plan)
        assert "scheme: disjoint" in text
        assert "mean_pairwise_ks: 1.000000" in text
        assert text.count("client ") == 5

    # The labels and the class shuffles are Philox permutations and involve
    # no BLAS, so these hashes hold on every machine. 7 classes over 3
    # clients gives uneven disjoint blocks and overlap claims that wrap.
    @pytest.mark.parametrize("scheme,classes,clients,kw,sha256", [
        ("iid", 10, 5, {},
         "efdfe7892cb97b62db10c045b2d4692476f3e09505c44910afa016d29c30a4d8"),
        ("disjoint", 10, 5, {},
         "9ed3b11d6c2a05f8900157bbba19c371c129cd511a6e14d98c3ae2e350e59f57"),
        ("overlap", 10, 5, dict(classes_per_client=4, shared_classes=2),
         "f3302853bb0bd831912a0d8601ffbda324d43312183164f7bcc8beedfbbf08da"),
        ("iid", 7, 3, {},
         "7b3d79bfb8eb3db3f24b07b1075cf7d12d83e14de859bdb35757ff92548c75ed"),
        ("disjoint", 7, 3, {},
         "a894727823f2f288b5d9f084cf7ea880256a6f97ca0e15b4ab6ca44a8476546f"),
        ("overlap", 7, 3, dict(classes_per_client=4, shared_classes=1),
         "7b5183762861ba87d6765bf39f499b0107954da6cf5fb93ccfc36a34e0d58e23"),
    ])
    def test_manifest_bytes_pinned(self, scheme, classes, clients, kw, sha256):
        dataset = generate_synthetic(classes, 4, 20, 1.0, Rng(7))
        text = manifest_text(partition(dataset, clients, scheme, Rng(3), **kw))
        assert hashlib.sha256(text.encode()).hexdigest() == sha256


class TestMultilabel:
    def test_generation_shapes(self):
        ds = generate_multilabel(200, 8, 5, Rng(2))
        assert ds.task == "multilabel"
        assert ds.train_y.shape == (140, 5)
        assert set(np.unique(ds.train_y)) <= {0, 1}

    def test_deterministic(self):
        a = generate_multilabel(100, 8, 3, Rng(2).substream("m"))
        b = generate_multilabel(100, 8, 3, Rng(2).substream("m"))
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.train_y, b.train_y)

    def test_partition_disjoint_cover(self):
        ds = generate_multilabel(150, 8, 4, Rng(7))
        for skew in (0.0, 2.0):
            plan = partition_multilabel(ds, 3, Rng(8), prevalence_skew=skew)
            combined = np.concatenate(plan.client_indices)
            assert sorted(combined.tolist()) == list(range(len(ds.train_y)))

    def test_skew_shifts_prevalence(self):
        ds = generate_multilabel(600, 8, 3, Rng(7))
        plan = partition_multilabel(ds, 3, Rng(8), prevalence_skew=5.0)
        # client s prefers label s: own-label prevalence above the off-label mean
        hist = plan.histograms / np.array([len(i) for i in plan.client_indices])[:, None]
        own = np.mean([hist[s, s % 3] for s in range(3)])
        off = np.mean([hist[s, (s + 1) % 3] for s in range(3)])
        assert own > off


    # The label matrix is drawn straight from Philox (no BLAS), so these
    # hashes hold on every machine. 7 clients over 3 labels wrap the label
    # preference, and 100 rows over 7 clients fill six shards to their cap.
    @pytest.mark.parametrize("skew,sha256", [
        (0.3, "325e57227c3a1b1db3b83d054a4fb5991f4499345db6e53304034a5ac6a8f897"),
        (1.0, "492a37f0d6886d535f4f06c5a0cd4f71b20e580d248ecffba8c7e33a13928c7a"),
    ])
    def test_skewed_manifest_bytes_pinned(self, skew, sha256):
        y = (Rng(7).uniform(size=(100, 3)) < 0.4).astype(np.int64)
        x = np.zeros((100, 2))
        dataset = Dataset(x, y, x[:0], y[:0], x[:0], y[:0], num_classes=3,
                          task="multilabel")
        plan = partition_multilabel(dataset, 7, Rng(3), prevalence_skew=skew)
        assert hashlib.sha256(manifest_text(plan).encode()).hexdigest() == sha256

    @pytest.mark.parametrize("skew", [0.0, 2.0])
    def test_empty_shard_rejected(self, skew):
        ds = generate_multilabel(5, 8, 3, Rng(7))
        assert len(ds.train_y) < 5
        with pytest.raises(ParameterError, match="empty shard"):
            partition_multilabel(ds, 5, Rng(8), prevalence_skew=skew)

    @pytest.mark.parametrize("clients, skew, message", [
        (0, 0.0, "num_clients must be >= 1, got 0"),
        (3, float("nan"), "multilabel_skew must be finite and >= 0, got nan"),
        (3, -0.5, "multilabel_skew must be finite and >= 0, got -0.5"),
        (3, float("inf"), "multilabel_skew must be finite and >= 0, got inf"),
    ], ids=["no-clients", "nan-skew", "negative-skew", "inf-skew"])
    def test_bad_arguments_rejected(self, clients, skew, message):
        ds = generate_multilabel(150, 8, 4, Rng(7))
        with pytest.raises(ParameterError) as raised:
            partition_multilabel(ds, clients, Rng(8), prevalence_skew=skew)
        assert str(raised.value) == message


class TestCsvLoader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "f0,label,f1\n"
            "0.5,cat,1.25\n"
            "-1.0,dog,0.0\n"
            "2.5,cat,-3.5\n"
        )
        x, y, names = load_csv(path)
        assert names == ["cat", "dog"]
        assert np.array_equal(y, [0, 1, 0])
        assert np.array_equal(x, [[0.5, 1.25], [-1.0, 0.0], [2.5, -3.5]])

    def test_byte_order_mark_loads_as_without(self, tmp_path):
        text = "label,a,b\ncat,0.5,1.25\ndog,-1.0,0.0\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        (x, y, names), (bx, by, bnames) = load_csv(plain), load_csv(bom)
        assert bnames == names == ["cat", "dog"]
        assert np.array_equal(bx, x) and np.array_equal(by, y)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ParameterError):
            load_csv(path)

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,label\noops,x\n")
        with pytest.raises(ParameterError):
            load_csv(path)

    @pytest.mark.parametrize("where", ["missing", "directory", "undecodable"])
    def test_unreadable_file_is_parameter_error(self, tmp_path, where):
        path = {"missing": tmp_path / "absent.csv", "directory": tmp_path,
                "undecodable": tmp_path / "latin1.csv"}[where]
        if where == "undecodable":
            path.write_bytes(b"f0,label\n0.5,caf\xe9\n")
        with pytest.raises(ParameterError, match="cannot read CSV file"):
            load_csv(path)

    def test_dataset_from_arrays_stratified(self):
        rng = Rng(3)
        x = rng.substream("x").normal(90, 4)
        y = np.repeat(np.arange(3), 30)
        ds = dataset_from_arrays(x, y, rng.substream("split"))
        for split in ("train", "val", "test"):
            _, ys = ds.split(split)
            assert set(ys.tolist()) == {0, 1, 2}
        total = len(ds.train_y) + len(ds.val_y) + len(ds.test_y)
        assert total == 90

    @pytest.mark.parametrize("case", ["negative", "fractional", "extra rows",
                                      "2-D labels", "non-finite", "empty",
                                      "nan-feature", "inf-feature"])
    def test_dataset_from_arrays_rejects_rows_it_would_lose(self, case):
        # each case used to split silently: the -1 rows were never dealt,
        # 0.5 became class 0, the 20 rows past the labels were dropped, and
        # one NaN feature pretrained an all-NaN base
        rng = Rng(3)
        x = rng.substream("x").normal(60, 4)
        y = np.repeat(np.arange(3), 20)
        if case == "negative":
            y = y - 1
        elif case == "fractional":
            y = np.where(y == 1, 0.5, y)
        elif case == "extra rows":
            x = rng.substream("x").normal(80, 4)
        elif case == "2-D labels":
            y = y[:, np.newaxis]
        elif case == "non-finite":
            y = np.where(y == 1, np.inf, y)
        elif case.endswith("feature"):
            x[5, 2] = np.nan if case == "nan-feature" else -np.inf
        else:
            x, y = x[:0], y[:0]
        with pytest.raises(InputError):
            dataset_from_arrays(x, y, rng.substream("split"))
