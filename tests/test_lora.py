import hashlib

import numpy as np
import pytest

from rankfed.errors import ParameterError, ShapeError
from rankfed.lora import (AdapterSet, LoRAAdapter, RankSchedule, dense,
                          init_adapter, init_adapter_set, load_adapters,
                          reinit_at_rank, save_adapters)
from rankfed.model import FrozenBase, forward
from rankfed.numerics import Rng, svd_truncate


# The checksum a checkpoint binds to; any sha256 hex digest will do.
BASE_SHA = hashlib.sha256(b"frozen base").hexdigest()


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
        a = LoRAAdapter(np.array([[1.0], [0.0]]), np.array([[2.0, 3.0]]))
        assert np.array_equal(dense(a), [[2.0, 3.0], [0.0, 0.0]])

    def test_numeric_rank_bound(self, rng):
        a = LoRAAdapter(rng.substream("b").normal(7, 3),
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
        a = LoRAAdapter(rng.substream("b").normal(5, 2),
                        rng.substream("a").normal(2, 4))
        x = rng.substream("x").normal(6, 4)
        factored = branch(a, x)
        via_dense = x @ dense(a).T
        rel = np.linalg.norm(factored - via_dense) / np.linalg.norm(via_dense)
        assert rel < 1e-12

    def test_zero_input(self, rng):
        a = LoRAAdapter(rng.substream("b").normal(5, 2),
                        rng.substream("a").normal(2, 4))
        assert np.array_equal(branch(a, np.zeros((3, 4))), np.zeros((3, 5)))

    def test_shape_mismatch(self, rng):
        a = init_adapter(5, 4, 2, 0.02, rng)
        with pytest.raises(ShapeError):
            branch(a, rng.normal(3, 5))


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

    def test_gaussian_draws_afresh_at_each_rank(self):
        # the server passes one stream to every drop, and ranks strictly fall
        acc = [np.zeros((8, 6)), np.zeros((7, 9))]
        stream = Rng(0).substream("reinit")
        high = reinit_at_rank(acc, 6, method="gaussian", rng=stream)
        low = reinit_at_rank(acc, 4, method="gaussian", rng=stream)
        for h, l in zip(high, low):
            assert not np.allclose(l.A, h.A[:4])

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
            LoRAAdapter(a.B + rng.substream("w", lid).normal(*a.B.shape, 0.1), a.A)
            for lid, a in enumerate(original)), original.nominal_rank)
        path = tmp_path / "adapters.ckpt"
        save_adapters(path, warmed, BASE_SHA)
        loaded, base_sha = load_adapters(path)
        assert base_sha == BASE_SHA
        assert loaded.nominal_rank == warmed.nominal_rank
        for a, b in zip(warmed, loaded):
            assert a.B.tobytes() == b.B.tobytes()
            assert a.A.tobytes() == b.A.tobytes()

    def test_magic_check(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParameterError):
            load_adapters(path)

    # inside the magic, version/count, base checksum (20, 40), layer dims (60),
    # first payload (80); last byte off
    @pytest.mark.parametrize("cut", [2, 10, 20, 40, 60, 80, -1])
    def test_truncated_file_rejected(self, rng, tmp_path, cut):
        path = tmp_path / "cut.ckpt"
        save_adapters(path, init_adapter_set([(3, 2), (4, 3)], 2, 0.02, rng), BASE_SHA)
        raw = path.read_bytes()
        path.write_bytes(raw[:cut])
        with pytest.raises(ParameterError, match="truncated"):
            load_adapters(path)

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        path = tmp_path / "long.ckpt"
        save_adapters(path, init_adapter_set([(3, 2)], 2, 0.02, rng), BASE_SHA)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ParameterError, match="trailing"):
            load_adapters(path)

    def test_header_layout(self, rng, tmp_path):
        s = init_adapter_set([(3, 2)], 2, 0.02, rng)
        path = tmp_path / "one.ckpt"
        save_adapters(path, s, BASE_SHA)
        raw = path.read_bytes()
        assert raw[:4] == b"SPDL"
        assert int.from_bytes(raw[4:8], "little") == 3   # version
        assert int.from_bytes(raw[8:12], "little") == 1  # layer count
        assert int.from_bytes(raw[12:16], "little") == 2  # nominal rank
        assert raw[16:48].hex() == BASE_SHA              # base sha256
        assert int.from_bytes(raw[48:52], "little") == 3  # h1
        assert int.from_bytes(raw[52:56], "little") == 2  # h2
        assert int.from_bytes(raw[56:60], "little") == 2  # r
        assert len(raw) == 60 + 8 * (3 * 2 + 2 * 2)

    def test_nominal_rank_of_capped_layers_round_trips(self, rng, tmp_path):
        # every layer is capped below rank 8, so the per-layer ranks alone
        # would give back rank 3
        s = init_adapter_set([(3, 2), (4, 3)], 8, 0.02, rng)
        path = tmp_path / "capped.ckpt"
        save_adapters(path, s, BASE_SHA)
        loaded, _ = load_adapters(path)
        assert loaded.nominal_rank == 8
        assert [a.rank for a in loaded] == [2, 3]

    @pytest.mark.parametrize("version", [1, 2])
    def test_versions_before_3_rejected(self, rng, tmp_path, version):
        s = init_adapter_set([(3, 2), (4, 3)], 4, 0.02, rng)
        path = tmp_path / f"v{version}.ckpt"
        save_adapters(path, s, BASE_SHA)
        raw = path.read_bytes()
        # version 1 lacks the nominal rank and the base checksum, version 2
        # only the checksum
        header = raw[8:12] if version == 1 else raw[8:16]
        path.write_bytes(raw[:4] + version.to_bytes(4, "little") + header + raw[48:])
        with pytest.raises(ParameterError, match=f"checkpoint version {version}: "
                                                 "only version 3 names its base"):
            load_adapters(path)


class TestAdapterSetInvariants:
    def test_factored_and_dense_rank_agree(self, rng):
        s = init_adapter_set([(9, 7)], 4, 0.02, rng)
        assert s.adapters[0].rank == 4
        assert len(s.dense()) == 1
