import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfed.errors import ParameterError, ShapeError
from rankfed.lora import (AdapterSet, LoRAAdapter, RankSchedule, accumulate,
                          dense, init_adapter, init_adapter_set, load_adapters,
                          reinit_at_rank, save_adapters)
from rankfed.model import FrozenBase, forward
from rankfed.numerics import Rng, svd_truncate


def adapter_set_from_dense(layers, rank):
    """Exact-rank adapter set whose dense updates equal the given matrices."""
    adapters = []
    for lid, m in enumerate(layers):
        r = min(rank, *m.shape)
        u, s, v = svd_truncate(m, r)
        adapters.append(LoRAAdapter(lid, u * np.sqrt(s), (np.sqrt(s)[:, None] * v.T)))
    return AdapterSet(tuple(adapters), rank)


class TestInitAdapter:
    def test_fresh_dense_is_zero(self, rng):
        for h1, h2, r in ((8, 5, 3), (4, 9, 2), (6, 6, 6)):
            a = init_adapter(h1, h2, r, 0.02, rng.substream(h1, h2, r))
            assert np.array_equal(dense(a), np.zeros((h1, h2)))

    def test_same_seed_same_a(self):
        a1 = init_adapter(5, 6, 2, 0.02, Rng(3).substream("x"))
        a2 = init_adapter(5, 6, 2, 0.02, Rng(3).substream("x"))
        assert np.array_equal(a1.A, a2.A)

    def test_rank_bound(self, rng):
        with pytest.raises(ParameterError):
            init_adapter(8, 8, 9, 0.02, rng)

    def test_set_caps_rank_per_layer(self, rng):
        shapes = [(32, 16), (6, 32)]
        s = init_adapter_set(shapes, 8, 0.02, rng)
        assert s.nominal_rank == 8
        assert s.adapters[0].rank == 8
        assert s.adapters[1].rank == 6
        assert s.param_count() == 8 * (32 + 16) + 6 * (6 + 32)


class TestDense:
    def test_hand_outer_product(self):
        a = LoRAAdapter(0, np.array([[1.0], [0.0]]), np.array([[2.0, 3.0]]))
        assert np.array_equal(dense(a), [[2.0, 3.0], [0.0, 0.0]])

    def test_numeric_rank_bound(self, rng):
        a = LoRAAdapter(0, rng.substream("b").normal(7, 3),
                        rng.substream("a").normal(3, 9))
        s = np.linalg.svd(dense(a), compute_uv=False)
        assert np.sum(s > 1e-10 * s[0]) <= 3


def branch(adapter, x):
    """The adapter branch x @ (B @ A).T as the model's forward pass applies it:
    over a zero one-layer base, the logits are the branch alone."""
    h1, h2 = adapter.out_dim, adapter.in_dim
    base = FrozenBase((np.zeros((h1, h2)),), (np.zeros(h1),))
    return forward(base, AdapterSet((adapter,), adapter.rank), x)[0]


class TestForwardContribution:
    def test_fresh_adapter_zero(self, rng):
        a = init_adapter(5, 4, 2, 0.02, rng)
        x = rng.substream("x").normal(3, 4)
        assert np.array_equal(branch(a, x), np.zeros((3, 5)))

    def test_matches_dense_path(self, rng):
        a = LoRAAdapter(0, rng.substream("b").normal(5, 2),
                        rng.substream("a").normal(2, 4))
        x = rng.substream("x").normal(6, 4)
        factored = branch(a, x)
        via_dense = x @ dense(a).T
        rel = np.linalg.norm(factored - via_dense) / np.linalg.norm(via_dense)
        assert rel < 1e-12

    def test_zero_input(self, rng):
        a = LoRAAdapter(0, rng.substream("b").normal(5, 2),
                        rng.substream("a").normal(2, 4))
        assert np.array_equal(branch(a, np.zeros((3, 4))), np.zeros((3, 5)))

    def test_shape_mismatch(self, rng):
        a = init_adapter(5, 4, 2, 0.02, rng)
        with pytest.raises(ShapeError):
            branch(a, rng.normal(3, 5))


class TestAccumulate:
    def test_midpoint(self):
        new = adapter_set_from_dense([np.array([[2.0]])], 1)
        assert np.allclose(accumulate([np.array([[0.0]])], new, 0.5), [[[1.0]]])

    def test_lambda_one_keeps_accumulator(self, rng):
        acc = [rng.substream("acc").normal(3, 4)]
        new = adapter_set_from_dense([rng.substream("new").normal(3, 4)], 2)
        out = accumulate(acc, new, 1.0)
        assert np.array_equal(out[0], acc[0])

    def test_first_event_initializes_with_observation(self, rng):
        new = adapter_set_from_dense([rng.normal(4, 4)], 2)
        out = accumulate(None, new, 0.5)
        assert all(np.array_equal(o, d) for o, d in zip(out, new.dense()))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31), st.floats(0.0, 1.0))
    def test_affine_swap_symmetry(self, seed, lam):
        r = Rng(seed)
        x = r.substream("x").normal(4, 5)
        y = r.substream("y").normal(4, 5)
        sx = adapter_set_from_dense([x], 4)
        sy = adapter_set_from_dense([y], 4)
        left = accumulate([x], sy, lam)
        right = accumulate([y], sx, 1.0 - lam)
        # both are lam*x + (1-lam)*y up to the SVD round trip of the factors
        assert np.allclose(left[0], right[0], atol=1e-9)


class TestReinitAtRank:
    def test_exact_rank_reconstructs(self, rng):
        b = rng.substream("b").normal(6, 2)
        a = rng.substream("a").normal(2, 5)
        acc = [b @ a]
        new = reinit_at_rank(acc, 2)
        assert np.linalg.norm(new.dense()[0] - acc[0]) < 1e-9

    def test_zero_accumulator(self):
        new = reinit_at_rank([np.zeros((5, 4))], 2)
        assert np.array_equal(new.dense()[0], np.zeros((5, 4)))

    def test_matches_svd_truncation(self, rng):
        acc = [rng.substream("l0").normal(8, 6), rng.substream("l1").normal(5, 7)]
        new = reinit_at_rank(acc, 2)
        for m, d in zip(acc, new.dense()):
            u, s, v = svd_truncate(m, 2)
            direct = u @ np.diag(s) @ v.T
            assert np.linalg.norm(d - direct) < 1e-10

    def test_gaussian_method(self, rng):
        acc = [rng.normal(6, 4)]
        new = reinit_at_rank(acc, 2, method="gaussian", sigma=0.02,
                             rng=rng.substream("g"))
        assert np.array_equal(new.dense()[0], np.zeros((6, 4)))

    def test_rank_validation(self, rng):
        with pytest.raises(ParameterError):
            reinit_at_rank([rng.normal(4, 4)], 0)


class TestRankSchedule:
    def test_current_rank_formula(self):
        s = RankSchedule(8, 2, 2)
        ranks = [s.current_rank]
        while s.can_drop:
            s = s.dropped()
            ranks.append(s.current_rank)
        assert ranks == [8, 6, 4, 2]

    def test_floor(self):
        s = RankSchedule(8, 8, 2)
        assert not s.can_drop
        with pytest.raises(ParameterError):
            s.dropped()

    def test_validation(self):
        with pytest.raises(ParameterError):
            RankSchedule(2, 4, 1)
        with pytest.raises(ParameterError):
            RankSchedule(4, 2, 0)


class TestCheckpoint:
    def test_bit_exact_round_trip(self, rng, tmp_path):
        original = init_adapter_set([(32, 16), (6, 32)], 8, 0.02, rng)
        # give B nonzero content so the payload is nontrivial
        warmed = AdapterSet(tuple(
            LoRAAdapter(a.layer_id,
                        a.B + rng.substream("w", a.layer_id).normal(*a.B.shape, 0.1),
                        a.A)
            for a in original), original.nominal_rank)
        path = tmp_path / "adapters.ckpt"
        save_adapters(path, warmed)
        loaded = load_adapters(path)
        assert loaded.nominal_rank == warmed.nominal_rank
        for a, b in zip(warmed, loaded):
            assert a.B.tobytes() == b.B.tobytes()
            assert a.A.tobytes() == b.A.tobytes()

    def test_magic_check(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParameterError):
            load_adapters(path)

    # inside the magic, version/count, layer dims, first payload; last byte off
    @pytest.mark.parametrize("cut", [2, 10, 20, 40, -1])
    def test_truncated_file_rejected(self, rng, tmp_path, cut):
        path = tmp_path / "cut.ckpt"
        save_adapters(path, init_adapter_set([(3, 2), (4, 3)], 2, 0.02, rng))
        raw = path.read_bytes()
        path.write_bytes(raw[:cut])
        with pytest.raises(ParameterError, match="truncated"):
            load_adapters(path)

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        path = tmp_path / "long.ckpt"
        save_adapters(path, init_adapter_set([(3, 2)], 2, 0.02, rng))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ParameterError, match="trailing"):
            load_adapters(path)

    def test_header_layout(self, rng, tmp_path):
        s = init_adapter_set([(3, 2)], 2, 0.02, rng)
        path = tmp_path / "one.ckpt"
        save_adapters(path, s)
        raw = path.read_bytes()
        assert raw[:4] == b"SPDL"
        assert int.from_bytes(raw[4:8], "little") == 1   # version
        assert int.from_bytes(raw[8:12], "little") == 1  # layer count
        assert int.from_bytes(raw[12:16], "little") == 3  # h1
        assert int.from_bytes(raw[16:20], "little") == 2  # h2
        assert int.from_bytes(raw[20:24], "little") == 2  # r
        assert len(raw) == 24 + 8 * (3 * 2 + 2 * 2)


class TestAdapterSetInvariants:
    def test_duplicate_layer_ids_rejected(self, rng):
        a = init_adapter(4, 4, 2, 0.02, rng, layer_id=0)
        with pytest.raises(ParameterError):
            AdapterSet((a, a), 2)

    def test_factored_and_dense_rank_agree(self, rng):
        s = init_adapter_set([(9, 7)], 4, 0.02, rng)
        assert s.adapters[0].rank == 4
        assert len(s.dense()) == 1
