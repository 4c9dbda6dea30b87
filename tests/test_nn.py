"""Layers and optimization: GRU/LSTM cells, Bi-RNN, dropout, clipping, Adam."""

import re

import numpy as np
import pytest

from synmt import nn
from synmt import tensor as T
from synmt.checkpoint import file_sha256, load_checkpoint, save_checkpoint
from synmt.errors import DataError, ShapeError


def make_gru(input_dim, hidden_dim, seed=0, prefix="g"):
    table = nn.ParamTable()
    cell = nn.GruParams(table, prefix, input_dim, hidden_dim, T.make_rng(seed))
    return table, cell


def make_lstm(input_dim, hidden_dim, seed=0, prefix="l"):
    table = nn.ParamTable()
    cell = nn.LstmParams(table, prefix, input_dim, hidden_dim, T.make_rng(seed))
    return table, cell


def zero_params(table):
    for _, t in table.items():
        t.data[:] = 0.0


class TestGruStep:
    def test_zero_params_halve_state(self):
        table, cell = make_gru(3, 4)
        zero_params(table)
        h_prev = T.Tensor(np.arange(1.0, 5.0).reshape(1, 4))
        out = nn.gru_step(T.Tensor(np.ones((1, 3))), h_prev, cell)
        # z = r = 0.5, candidate = 0, so the new state is half the old one
        assert np.allclose(out.data, 0.5 * h_prev.data)

    def test_all_zero_inputs(self):
        table, cell = make_gru(2, 2)
        zero_params(table)
        out = nn.gru_step(T.Tensor(np.zeros((1, 2))), T.Tensor(np.zeros((1, 2))), cell)
        assert np.all(out.data == 0.0)

    def test_dim_mismatch(self):
        _, cell = make_gru(3, 4)
        with pytest.raises(ShapeError):
            nn.gru_step(T.Tensor(np.zeros((1, 5))), T.Tensor(np.zeros((1, 4))), cell)

    def test_gradients(self):
        rng = T.make_rng(5)
        table, cell = make_gru(3, 2, seed=5)
        x = T.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        h = T.Tensor(rng.normal(size=(2, 2)), requires_grad=True)

        def loss(_):
            return T.sum_all(T.tanh(nn.gru_step(x, h, cell)))

        for target in [x, h] + [t for _, t in table.items()]:
            assert T.grad_check(loss, target) < 1e-4


class TestLstmStep:
    def test_zero_params(self):
        table, cell = make_lstm(2, 3)
        zero_params(table)
        h, c = nn.lstm_step(T.Tensor(np.ones((1, 2))), cell.zero_state(1), cell)
        assert np.all(h.data == 0.0) and np.all(c.data == 0.0)

    def test_gradients(self):
        rng = T.make_rng(6)
        table, cell = make_lstm(2, 3, seed=6)
        x = T.Tensor(rng.normal(size=(1, 2)), requires_grad=True)

        def loss(_):
            h, _c = nn.lstm_step(x, cell.zero_state(1), cell)
            return T.sum_all(T.mul(h, h))

        for target in [x] + [t for _, t in table.items()]:
            assert T.grad_check(loss, target) < 1e-4


class TestBirnn:
    def test_empty_rejected(self):
        _, fwd = make_gru(2, 3, seed=1)
        _, bwd = make_gru(2, 3, seed=2)
        with pytest.raises(ValueError):
            nn.birnn_encode([], fwd, bwd)

    def test_single_step(self):
        _, fwd = make_gru(2, 3, seed=1)
        _, bwd = make_gru(2, 3, seed=2)
        x = T.Tensor(T.make_rng(3).normal(size=(1, 2)))
        (out,) = nn.birnn_encode([x], fwd, bwd)
        f = nn.gru_step(x, fwd.zero_state(1), fwd)
        b = nn.gru_step(x, bwd.zero_state(1), bwd)
        assert np.allclose(out.data, np.concatenate([f.data, b.data], axis=1))

    def test_length_preserved_and_dim(self):
        _, fwd = make_gru(2, 3, seed=1)
        _, bwd = make_gru(2, 3, seed=2)
        rng = T.make_rng(4)
        xs = [T.Tensor(rng.normal(size=(2, 2))) for _ in range(50)]
        outs = nn.birnn_encode(xs, fwd, bwd)
        assert len(outs) == 50
        assert all(o.shape == (2, 6) for o in outs)

    def test_reversal_symmetry(self):
        # same params both directions: reversing the input reverses the output
        # sequence with the forward/backward halves swapped
        _, cell = make_gru(2, 3, seed=7)
        rng = T.make_rng(8)
        xs = [T.Tensor(rng.normal(size=(1, 2))) for _ in range(5)]
        outs = nn.birnn_encode(xs, cell, cell)
        routs = nn.birnn_encode(xs[::-1], cell, cell)
        for i in range(5):
            fwd_half, bwd_half = outs[i].data[:, :3], outs[i].data[:, 3:]
            swapped = np.concatenate([bwd_half, fwd_half], axis=1)
            assert np.allclose(routs[4 - i].data, swapped)

    def test_mask_matches_unpadded_run(self):
        _, fwd = make_gru(2, 3, seed=1)
        _, bwd = make_gru(2, 3, seed=2)
        rng = T.make_rng(9)
        sent = [rng.normal(size=(1, 2)) for _ in range(3)]
        plain = nn.birnn_encode([T.Tensor(v) for v in sent], fwd, bwd)
        # pad to length 5 inside a 2-sentence batch
        other = [rng.normal(size=(1, 2)) for _ in range(5)]
        stacked = [T.Tensor(np.concatenate([sent[i] if i < 3 else np.zeros((1, 2)), other[i]]))
                   for i in range(5)]
        mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=float)
        padded = nn.birnn_encode(stacked, fwd, bwd, mask=mask)
        for i in range(3):
            assert np.allclose(padded[i].data[0], plain[i].data[0])

    def test_gradients_through_encoder(self):
        table = nn.ParamTable()
        rng = T.make_rng(10)
        fwd = nn.GruParams(table, "f", 2, 2, rng)
        bwd = nn.GruParams(table, "b", 2, 2, rng)
        xs = [T.Tensor(rng.normal(size=(1, 2)), requires_grad=True) for _ in range(3)]

        def loss(_):
            outs = nn.birnn_encode(xs, fwd, bwd)
            return T.sum_all(T.tanh(T.concat(outs, axis=0)))

        for target in xs + [t for _, t in table.items()]:
            assert T.grad_check(loss, target) < 1e-4


class TestLinear:
    def test_identity(self):
        x = T.Tensor(T.make_rng(1).normal(size=(2, 3)))
        out = nn.linear(x, T.Tensor(np.eye(3)), T.Tensor(np.zeros((1, 3))))
        assert np.allclose(out.data, x.data)

    def test_zero_weight_broadcasts_bias(self):
        x = T.Tensor(np.ones((4, 3)))
        b = T.Tensor([[1.0, 2.0]])
        out = nn.linear(x, T.Tensor(np.zeros((3, 2))), b)
        assert np.array_equal(out.data, np.tile(b.data, (4, 1)))

    def test_hand_case(self):
        x = T.Tensor([[1.0, 2.0, 3.0]])
        W = T.Tensor([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b = T.Tensor([[10.0, 20.0]])
        assert np.array_equal(nn.linear(x, W, b).data, [[14.0, 25.0]])


class TestDropout:
    def test_identities(self):
        x = T.Tensor(np.ones((3, 3)))
        assert nn.dropout(x, 0.0, "train", seed=1) is x
        assert nn.dropout(x, 0.9, "eval", seed=1) is x

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            nn.dropout(T.Tensor(np.ones(2)), 1.0, "train", seed=1)

    def test_zero_fraction_and_expectation(self):
        x = T.Tensor(np.ones((1000, 1000)))
        out = nn.dropout(x, 0.5, "train", seed=42)
        zero_frac = np.mean(out.data == 0.0)
        assert abs(zero_frac - 0.5) < 0.01  # law of large numbers on 1e6 elements
        assert abs(out.data.mean() - 1.0) < 0.01  # inverted scaling keeps expectation
        survivors = out.data[out.data != 0.0]
        assert np.allclose(survivors, 2.0)


class TestClip:
    def test_below_threshold_unchanged(self):
        g = {"a": np.array([1.5, 2.0])}  # norm 2.5
        out = nn.clip_gradients(g, 5.0)
        assert np.array_equal(out["a"], [1.5, 2.0])

    def test_boundary_unchanged(self):
        g = {"a": np.array([3.0, 4.0])}  # norm exactly 5
        out = nn.clip_gradients(g, 5.0)
        assert np.array_equal(out["a"], [3.0, 4.0])

    def test_hand_scaling(self):
        g = {"a": np.array([6.0, 8.0])}  # norm 10 -> scaled by 0.5
        out = nn.clip_gradients(g, 5.0)
        assert np.allclose(out["a"], [3.0, 4.0])

    def test_never_increases_and_idempotent(self):
        rng = T.make_rng(13)
        for _ in range(50):
            g = {f"p{i}": rng.normal(size=rng.integers(1, 5)) * 10 for i in range(3)}
            before = np.sqrt(sum(np.sum(v * v) for v in g.values()))
            out = nn.clip_gradients(g, 2.0)
            after = np.sqrt(sum(np.sum(v * v) for v in out.values()))
            assert after <= before + 1e-12
            assert after <= 2.0 + 1e-9
            again = nn.clip_gradients({k: v.copy() for k, v in out.items()}, 2.0)
            for k in g:
                assert np.allclose(again[k], out[k])


class TestAdam:
    def test_zero_gradient(self):
        table = nn.ParamTable()
        p = table.add("w", T.Tensor(np.array([1.0, -2.0]), requires_grad=True))
        state = nn.AdamState()
        nn.adam_step(table, {"w": np.zeros(2)}, state, lr=0.1)
        assert np.array_equal(p.data, [1.0, -2.0])
        assert state.step == 1

    def test_first_step_is_signed_lr(self):
        table = nn.ParamTable()
        p = table.add("w", T.Tensor(np.zeros(3), requires_grad=True))
        g = np.array([0.5, -2.0, 3.0])
        nn.adam_step(table, {"w": g}, nn.AdamState(), lr=1e-3)
        assert np.allclose(p.data, -1e-3 * np.sign(g), atol=1e-7)

    def test_two_identical_steps_match_hand_recursion(self):
        lr, eps = 0.01, 1e-8
        g = np.array([2.0, -0.3])
        table = nn.ParamTable()
        p = table.add("w", T.Tensor(np.array([1.0, 1.0]), requires_grad=True))
        state = nn.AdamState(epsilon=eps)
        nn.adam_step(table, {"w": g.copy()}, state, lr)
        nn.adam_step(table, {"w": g.copy()}, state, lr)
        # with a constant gradient both bias-corrected steps reduce to
        # -lr * g / (|g| + eps)
        expected = 1.0 - 2 * lr * g / (np.abs(g) + eps)
        assert np.allclose(p.data, expected, atol=1e-10)
        assert state.step == 2

    def test_shape_mismatch(self):
        table = nn.ParamTable()
        table.add("w", T.Tensor(np.zeros((2, 2)), requires_grad=True))
        with pytest.raises(ShapeError):
            nn.adam_step(table, {"w": np.zeros(3)}, nn.AdamState(), 0.1)


class TestParamTable:
    def test_duplicate_name(self):
        table = nn.ParamTable()
        table.add("a", T.Tensor(np.zeros(1)))
        with pytest.raises(ValueError):
            table.add("a", T.Tensor(np.zeros(1)))

    def test_freeze_by_prefix(self):
        table = nn.ParamTable()
        table.add("enc.W", T.Tensor(np.zeros(1), requires_grad=True))
        table.add("enc.b", T.Tensor(np.zeros(1), requires_grad=True))
        table.add("dec.W", T.Tensor(np.zeros(1), requires_grad=True))
        assert table.set_trainable("enc", False) == 2
        assert not table["enc.W"].requires_grad
        assert table["dec.W"].requires_grad

    def test_frozen_params_take_no_updates(self):
        table = nn.ParamTable()
        frozen = table.add("enc.W", T.Tensor(np.ones((2, 2)), requires_grad=True))
        live = table.add("dec.W", T.Tensor(np.ones((2, 2)), requires_grad=True))
        table.set_trainable("enc", False)
        opt = nn.Adam(table, lr=0.1)
        with T.Tape():
            out = T.matmul(T.matmul(T.Tensor(np.ones((1, 2))), frozen), live)
            T.backward(T.sum_all(out))
        grads = table.gradients()
        assert "dec.W" in grads and "enc.W" not in grads
        opt.step()
        assert np.array_equal(frozen.data, np.ones((2, 2)))
        assert not np.array_equal(live.data, np.ones((2, 2)))


class TestCheckpoint:
    def test_roundtrip_f64(self, tmp_path):
        state = {"a.W": np.arange(6.0).reshape(2, 3), "b": np.array([1.5])}
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert set(loaded) == {"a.W", "b"}
        for k in state:
            assert np.array_equal(loaded[k], state[k])

    def test_roundtrip_f32(self, tmp_path):
        state = {"w": T.make_rng(2).normal(size=(4, 5))}
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, state, precision="f32")
        loaded = load_checkpoint(path)
        assert loaded["w"].dtype == np.float32
        assert np.allclose(loaded["w"], state["w"], atol=1e-6)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_every_proper_prefix_is_a_data_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3),
                               "meta": np.frombuffer(b"{}", dtype=np.uint8)})
        blob = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(DataError, match=re.escape(str(cut))):
                load_checkpoint(cut)

    def test_undecodable_name_is_a_data_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.zeros(3)})
        blob = bytearray(path.read_bytes())
        blob[18] = 0xFF  # first byte of the entry name
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match=re.escape(f"{path}: invalid utf-8 "
                                                      f"text at byte 18")):
            load_checkpoint(path)

    def test_hash_changes_with_content(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, {"w": np.zeros(3)})
        save_checkpoint(p2, {"w": np.ones(3)})
        assert file_sha256(p1) != file_sha256(p2)

    def test_table_roundtrip(self, tmp_path):
        table = nn.ParamTable()
        nn.GruParams(table, "enc", 3, 4, T.make_rng(1))
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, table.state_dict())
        table2 = nn.ParamTable()
        nn.GruParams(table2, "enc", 3, 4, T.make_rng(2))
        table2.load_state(load_checkpoint(path))
        for (_, a), (_, b) in zip(table.items(), table2.items()):
            assert np.array_equal(a.data, b.data)
