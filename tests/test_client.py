from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rankfed.client import (ClientState, LocalTrainConfig, local_train,
                            refresh_importances)
from rankfed.errors import InputError
from rankfed.lora import init_adapter_set
from rankfed.model import CLConfig, estimate_fim, random_base
from rankfed.numerics import Rng


def make_client(seed=0, cl=CLConfig("none"), n=40, dims=(6, 10, 4), warm=0.0):
    root = Rng(seed)
    base = random_base(list(dims), root.substream("base"))
    x = root.substream("x").normal(n, dims[0])
    y = np.asarray(root.substream("y").integers(0, dims[-1], n))
    state = ClientState(client_id=0, base=base, features=x, labels=y, cl=cl,
                        rng=root.substream("client", 0))
    adapters = init_adapter_set(base.layer_shapes(), 3, 0.02,
                                root.substream("adapters"))
    if warm > 0:
        from rankfed.lora import AdapterSet, LoRAAdapter
        adapters = AdapterSet(tuple(
            LoRAAdapter(a.layer_id,
                        a.B + root.substream("wb", a.layer_id).normal(*a.B.shape, warm),
                        a.A + root.substream("wa", a.layer_id).normal(*a.A.shape, warm))
            for a in adapters), adapters.nominal_rank)
    return state, adapters


def train_alone(state, adapters, anchor, cfg):
    """``local_train`` on a group of one; returns that client's result."""
    (out,), (losses,) = local_train([state], adapters, anchor, cfg)
    return out, losses


class TestLocalTrain:
    def test_zero_epochs_is_noop(self):
        state, adapters = make_client()
        out, losses = train_alone(state, adapters, None,
                                  LocalTrainConfig(0, 0.1, 16))
        assert losses == []
        for a, b in zip(out, adapters):
            assert np.array_equal(a.B, b.B) and np.array_equal(a.A, b.A)

    def test_disabled_regularizers_match_plain_lora_bitwise(self):
        plain_state, adapters = make_client(seed=3, cl=CLConfig("none"))
        reg_state, _ = make_client(seed=3, cl=CLConfig("ewc", 0.0, 0.0))
        cfg = LocalTrainConfig(2, 0.1, 8, round_index=4)
        anchor = [np.asarray(d) + 0.05 for d in adapters.dense()]
        out_plain, tr_plain = train_alone(plain_state, adapters, None, cfg)
        out_reg, tr_reg = train_alone(reg_state, adapters, anchor, cfg)
        assert tr_plain == tr_reg
        for a, b in zip(out_plain, out_reg):
            assert np.array_equal(a.B, b.B) and np.array_equal(a.A, b.A)

    def test_strong_stability_anchor_pins_adapters(self):
        mu = 1e6
        state, adapters = make_client(seed=5, cl=CLConfig("ewc", mu, 0.0), warm=0.3)
        anchor = adapters.dense()
        refresh_importances(state, state.base, adapters, phase=1)
        # step size inside the quadratic stability bound eta * mu * F_max < 2
        f_max = max(float(np.max(m)) for m in state.importance.matrices)
        cfg = LocalTrainConfig(40, 0.2 / (mu * f_max), 8, round_index=1)
        out, _ = train_alone(state, adapters, anchor, cfg)

        def drift(result):
            return np.linalg.norm(np.concatenate(
                [(d - a).ravel() for d, a in zip(result.dense(), anchor)]))

        pinned = drift(out)
        free_state, _ = make_client(seed=5, cl=CLConfig("none"), warm=0.3)
        unpinned = drift(train_alone(free_state, adapters, None, cfg)[0])
        assert pinned < 1e-3
        assert unpinned > 5 * pinned  # the anchor, not the step size, pins

    def test_rank_preserved(self):
        state, adapters = make_client()
        out, _ = train_alone(state, adapters, None, LocalTrainConfig(1, 0.1, 16))
        assert out.nominal_rank == adapters.nominal_rank
        assert out.shapes() == adapters.shapes()

    def test_loss_decreases_over_epochs(self):
        state, adapters = make_client(seed=9, warm=0.2)
        _, losses = train_alone(state, adapters, None,
                                LocalTrainConfig(8, 0.05, 16, round_index=1))
        assert losses[-1] < losses[0]

    def test_deterministic_and_schedule_independent(self):
        cfg = LocalTrainConfig(2, 0.1, 8, round_index=7)

        def run_one(_):
            state, adapters = make_client(seed=11)
            out, losses = train_alone(state, adapters, None, cfg)
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
        state1, adapters = make_client(seed=13)
        state2, _ = make_client(seed=13)
        out1, _ = train_alone(state1, adapters, None,
                              LocalTrainConfig(1, 0.1, 8, round_index=1))
        out2, _ = train_alone(state2, adapters, None,
                              LocalTrainConfig(1, 0.1, 8, round_index=2))
        assert any(not np.array_equal(a.B, b.B) for a, b in zip(out1, out2))


class TestRefreshImportances:
    def test_idempotent_within_phase(self):
        state, adapters = make_client(cl=CLConfig("ewc", 0.1, 0.1))
        refresh_importances(state, state.base, adapters, phase=1)
        first = [m.copy() for m in state.importance.matrices]
        refresh_importances(state, state.base, adapters, phase=1)
        for a, b in zip(first, state.importance.matrices):
            assert np.array_equal(a, b)

    def test_new_phase_recomputes(self):
        state, adapters = make_client(cl=CLConfig("ewc", 0.1, 0.1))
        refresh_importances(state, state.base, adapters, phase=1)
        anchor2 = [np.asarray(d) + 0.3 for d in adapters.dense()]
        refresh_importances(state, state.base, anchor2, phase=2)
        assert state.importance_phase == 2

    def test_lwf_has_no_importance_cache(self):
        state, adapters = make_client(cl=CLConfig("lwf", 0.1, 0.1))
        refresh_importances(state, state.base, adapters, phase=1)
        assert state.importance is None
        assert state.importance_phase == 1

    def test_single_sample_shard_matches_fim(self):
        state, adapters = make_client(cl=CLConfig("ewc", 0.1, 0.1), n=1)
        refresh_importances(state, state.base, adapters, phase=1)
        direct = estimate_fim(state.base, adapters, state.features, state.labels)
        for a, b in zip(state.importance.matrices, direct.matrices):
            assert np.array_equal(a, b)


class TestClientState:
    def test_empty_shard_rejected(self):
        root = Rng(0)
        base = random_base([4, 6, 3], root)
        with pytest.raises(InputError):
            ClientState(client_id=0, base=base,
                        features=np.zeros((0, 4)), labels=np.zeros(0, dtype=int),
                        cl=CLConfig("none"), rng=root)
