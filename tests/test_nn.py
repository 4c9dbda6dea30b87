"""Layers and optimization: GRU/LSTM cells, Bi-RNN, dropout, clipping, Adam;
the checkpoint container and the one file writer."""

import ast
import contextlib
import gc
import os
import re
import stat
import struct
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synmt import nn
from synmt import tensor as T
from synmt.checkpoint import file_sha256, load_checkpoint, open_new, save_checkpoint
from synmt.data import Batch
from synmt.depparse import (DependencyTree, ParserModel, parser_encode, score_arcs,
                            tree_log_loss)
from synmt.errors import DataError, ShapeError
from synmt.nn import ADAM_BLOCK
from synmt.seq2seq import TranslationModel, sequence_loss

from helpers import (GRU_GATES, LSTM_GATES, adam_step_oracle, dense_backward,
                     dense_grads, gru_cell_grads_oracle, gru_step, gru_step_oracle,
                     lstm_step_oracle, masked_carry_oracle, per_gate_draws, per_gate_norm,
                     per_gate_parser_state, per_gate_translator_state, random_projective_tree,
                     reference_grad_norm, split_per_gate, state_dict, watch_outputs,
                     write_checkpoint_oracle, write_f32_checkpoint)


def make_gru(input_dim, hidden_dim, seed=0, prefix="g"):
    table = nn.ParamTable()
    cell = nn.GruParams(table, prefix, input_dim, hidden_dim, nn.uniform_init(T.make_rng(seed)))
    return table, cell


def make_lstm(input_dim, hidden_dim, seed=0, prefix="l"):
    table = nn.ParamTable()
    cell = nn.LstmParams(table, prefix, input_dim, hidden_dim, nn.uniform_init(T.make_rng(seed)))
    return table, cell


def zero_params(table):
    for _, t in table.items():
        t.data[:] = 0.0


def lstm_step(cell, x, h, c):
    """(h', c') from x and (h, c): one fused step as birnn_encode runs it."""
    hc = T.lstm_cell(T.matmul(x, cell.W), T.concat([h, c], axis=1), cell.U, cell.b)
    H = cell.hidden_dim
    return T.slice_axis(hc, 1, 0, H), T.slice_axis(hc, 1, H, 2 * H)


class TestUniformInit:
    """nn.uniform_init, the one way parameters are drawn."""

    def test_same_seed_same_bytes(self):
        a = nn.uniform_init(T.make_rng(7))((3, 4))
        b = nn.uniform_init(T.make_rng(7))((3, 4))
        assert a.shape == (3, 4) and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("scale", [0.1, 0.5, 1e-12])
    def test_values_lie_in_the_half_open_range(self, scale):
        x = nn.uniform_init(T.make_rng(1), scale)((200, 50))
        assert np.all(x >= -scale) and np.all(x < scale)

    def test_successive_calls_draw_in_call_order(self):
        table = nn.ParamTable()
        cell = nn.GruParams(table, "g", 2, 3, nn.uniform_init(T.make_rng(9), 0.2))
        # per gate, in gate order: a W block, a U block and a b block
        blocks = [t.data[:, k * 3:(k + 1) * 3] for k in range(3) for t in (cell.W, cell.U, cell.b)]
        drawn = np.concatenate([blk.ravel() for blk in blocks])
        stream = T.make_rng(9).uniform(-0.2, 0.2, size=drawn.size)
        assert drawn.tobytes() == stream.tobytes()

    @pytest.mark.parametrize("kind", ["baseline", "tree-rnn", "sawr", "parser"])
    def test_a_model_built_on_np_empty_draws_nothing(self, monkeypatch, kind):
        calls = []

        class Spy:
            """A generator that records every method a caller takes from it."""

            def __init__(self, seed):
                self.rng = np.random.Generator(np.random.PCG64(seed))

            def __getattr__(self, name):
                calls.append(name)
                return getattr(self.rng, name)

        monkeypatch.setattr(T, "make_rng", Spy)

        def build(init):
            parser = ParserModel({"<unk>": 0, "a": 1}, ["root"], embed_dim=3, hidden_dim=2,
                                 mlp_dim=3, layers=1, init=init)
            if kind == "parser":
                return parser
            return TranslationModel(9, 10, mode={"baseline": "none"}.get(kind, kind),
                                    emb_dim=6, hidden_dim=8, sawr_dim=3, tree_hidden=5,
                                    parser=parser if kind == "sawr" else None, init=init)

        build(None)
        assert "uniform" in calls  # the spy sees a drawing build
        calls.clear()
        build(np.empty)
        assert calls == []


class TestGruStep:
    def test_zero_params_halve_state(self):
        table, cell = make_gru(3, 4)
        zero_params(table)
        h_prev = T.Tensor(np.arange(1.0, 5.0).reshape(1, 4))
        out = gru_step(cell, T.Tensor(np.ones((1, 3))), h_prev)
        # z = r = 0.5, candidate = 0, so the new state is half the old one
        assert np.allclose(out.data, 0.5 * h_prev.data)

    def test_all_zero_inputs(self):
        table, cell = make_gru(2, 2)
        zero_params(table)
        out = gru_step(cell, T.Tensor(np.zeros((1, 2))), T.Tensor(np.zeros((1, 2))))
        assert np.all(out.data == 0.0)

    def test_dim_mismatch(self):
        # the fused cell checks a pre-projected input and a state against U
        _, cell = make_gru(3, 4)
        h, xw = T.Tensor(np.zeros((1, 4))), T.Tensor(np.zeros((1, 12)))
        for bad_xw, bad_h in ((T.Tensor(np.zeros((1, 13))), h),
                              (T.Tensor(np.zeros((1, 9))), h),
                              (xw, T.Tensor(np.zeros((1, 5)))),
                              (xw, T.Tensor(np.zeros((2, 4))))):
            with pytest.raises(ShapeError):
                T.gru_cell(bad_xw, bad_h, cell.U, cell.b)
        assert T.gru_cell(xw, h, cell.U, cell.b).data.shape == (1, 4)

    def test_gradients(self):
        rng = T.make_rng(5)
        table, cell = make_gru(3, 2, seed=5)
        x = T.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        h = T.Tensor(rng.normal(size=(2, 2)), requires_grad=True)

        def loss(_):
            return T.sum_all(T.tanh(gru_step(cell, x, h)))

        for target in [x, h] + [t for _, t in table.items()]:
            assert T.grad_check(loss, target) < 1e-4


class TestLstmStep:
    def test_zero_params(self):
        table, cell = make_lstm(2, 3)
        zero_params(table)
        h, c = lstm_step(cell, T.Tensor(np.ones((1, 2))), T.zeros((1, 3)), T.zeros((1, 3)))
        assert np.all(h.data == 0.0) and np.all(c.data == 0.0)

    def test_gradients(self):
        rng = T.make_rng(6)
        table, cell = make_lstm(2, 3, seed=6)
        x = T.Tensor(rng.normal(size=(1, 2)), requires_grad=True)

        def loss(_):
            h, _c = lstm_step(cell, x, T.zeros((1, 3)), T.zeros((1, 3)))
            return T.sum_all(T.mul(h, h))

        for target in [x] + [t for _, t in table.items()]:
            assert T.grad_check(loss, target) < 1e-4


class TestFusedStepsMatchOracles:
    """tensor.gru_cell and tensor.lstm_cell against the gate-by-gate steps in
    helpers, with and without a keep column, forward and backward."""

    @settings(max_examples=60, deadline=None)
    @given(B=st.integers(1, 4), H=st.integers(1, 6), d=st.integers(1, 4),
           seed=st.integers(0, 10_000), masked=st.booleans(), lstm=st.booleans())
    def test_forward_and_every_gradient(self, B, H, d, seed, masked, lstm):
        rng = T.make_rng(seed)
        table, cell = (make_lstm if lstm else make_gru)(d, H, seed=seed)
        x = T.Tensor(rng.normal(size=(B, d)), requires_grad=True)
        state = [T.Tensor(rng.normal(size=(B, H)), requires_grad=True)
                 for _ in range(1 + lstm)]
        keep = (rng.random((B, 1)) < 0.5).astype(float) if masked else None
        weights = T.constant(rng.normal(size=(B, (1 + lstm) * H)))
        inputs = [x] + state + [t for _, t in table.items()]

        def fused():
            op = T.lstm_cell if lstm else T.gru_cell
            return op(T.matmul(x, cell.W), T.concat(state, axis=1), cell.U, cell.b, keep)

        def oracle():
            old = T.concat(state, axis=1)
            if lstm:
                new = T.concat(list(lstm_step_oracle(x, state, cell)), axis=1)
            else:
                new = gru_step_oracle(x, state[0], cell)
            return new if keep is None else masked_carry_oracle(new, old, keep)

        results = []
        for run in (fused, oracle):
            for t in inputs:
                t.grad = None
            with T.Tape():
                out = run()
                T.backward(T.sum_all(T.mul(out, weights)))
            results.append((out.data, [t.grad for t in inputs]))
        (out, grads), (ref, ref_grads) = results
        assert np.abs(out - ref).max() <= 1e-12
        for g, r in zip(grads, ref_grads):
            assert np.abs(g - r).max() <= 1e-10


class TestGruCellBackward:
    @settings(max_examples=60, deadline=None)
    @given(B=st.integers(1, 8), H=st.integers(1, 48), seed=st.integers(0, 10_000))
    def test_keeps_the_bits_of_the_concatenated_weight_gradient(self, B, H, seed):
        # U's gradient is written into one [H, 3H] array; the values are the
        # two products that the oracle concatenates, to the bit
        rng = T.make_rng(seed)
        xw, h, U, b = (T.Tensor(rng.normal(size=shape), requires_grad=True)
                       for shape in ((B, 3 * H), (B, H), (H, 3 * H), (1, 3 * H)))
        g = rng.normal(size=(B, H))
        with T.Tape():
            out = T.gru_cell(xw, h, U, b)
            T.backward(T.sum_all(T.mul(out, T.constant(g))))  # out's gradient is g
        want = gru_cell_grads_oracle(xw, h, U, b, g)
        for t, w in zip((xw, h, U, b), want):
            assert t.grad.shape == w.shape
            assert t.grad.tobytes() == w.tobytes()


@st.composite
def norm_terms(draw):
    """(grads, terms) as a ParamTable lays them out: whole entries and
    side-by-side column blocks of fewer than, exactly and more than
    NORM_LEAF elements, [1, G] bias rows among them, some column-major (as
    a gradient that came through a transpose is)."""
    leaf = nn.NORM_LEAF
    rng = T.make_rng(draw(st.integers(0, 10_000)))
    grads, terms = {}, []
    for i in range(draw(st.integers(1, 3))):
        size = draw(st.sampled_from(["below", "at", "above"]))
        rows = 1 if draw(st.booleans()) else draw(st.sampled_from([2, 3, 64, 333, 512]))
        if size == "at" and leaf % rows:
            rows = 64
        width = {"below": lambda: draw(st.integers(1, max(1, (leaf - 1) // rows))),
                 "at": lambda: leaf // rows,
                 "above": lambda: draw(st.integers(leaf // rows + 1, 3 * leaf // rows))}[size]()
        blocks = draw(st.integers(1, 3))
        shape = (rows, blocks * width)
        g = rng.normal(size=shape) * 10.0 ** int(rng.integers(-4, 5))
        if draw(st.booleans()):
            g = np.ascontiguousarray(g.T).T
        grads[f"p{i}"] = g
        terms += [(f"p{i}", slice(None))] if blocks == 1 else [
            (f"p{i}", slice(k * width, (k + 1) * width)) for k in range(blocks)]
    return grads, terms


class TestGradNorm:
    @settings(max_examples=40, deadline=None)
    @given(case=norm_terms())
    def test_equals_the_one_expression_norm_to_the_bit(self, case):
        grads, terms = case
        assert nn.grad_norm(grads, terms) == reference_grad_norm(grads, terms)

    @pytest.mark.parametrize("cols", [slice(None), slice(96, 4000)])
    def test_a_large_term_is_squared_a_part_at_a_time(self, cols):
        # 4M elements: the one expression would square a 32 MiB copy
        grads = {"w": T.make_rng(3).normal(size=(1024, 4096))}
        terms = [("w", cols)]
        tracemalloc.start()
        try:
            norm = nn.grad_norm(grads, terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * nn.NORM_LEAF * 8 + 2 ** 20, peak
        assert norm == reference_grad_norm(grads, terms)


    @settings(max_examples=30, deadline=None)
    @given(tables=st.lists(st.tuples(st.integers(1, 1400), st.sampled_from([1, 7, 256, 300]),
                                     st.integers(0, 12), st.booleans()),
                           min_size=1, max_size=3),
           seed=st.integers(0, 2 ** 16))
    def test_row_gradients_keep_the_dense_norm_bits(self, tables, seed):
        # tables up to 420,000 elements, above NORM_LEAF, whose few stored
        # rows leave most of the norm's parts empty; one dense term besides
        rng = T.make_rng(seed)
        grads, terms = {"d": rng.normal(size=(3, 5))}, [("d", slice(None))]
        for i, (V, cols, n, clustered) in enumerate(tables):
            n = min(n, V)
            start = int(rng.integers(0, V - n + 1))
            rows = (np.arange(start, start + n) if clustered
                    else np.sort(rng.choice(V, size=n, replace=False)))
            values = rng.normal(size=(n, cols)) * 10.0 ** int(rng.integers(-4, 5))
            grads[f"e{i}"] = T.RowGrad(rows, values, (V, cols))
            terms.append((f"e{i}", slice(None)))
        dense = dense_grads(grads)
        norm = nn.grad_norm(grads, terms)
        assert norm == nn.grad_norm(dense, terms) == reference_grad_norm(dense, terms)

    def test_a_row_gradient_is_made_dense_a_part_at_a_time(self):
        # 7.7M elements with three stored rows: only the parts holding
        # them are made dense
        g = T.RowGrad(np.array([0, 17, 29_999]), T.make_rng(7).normal(size=(3, 256)),
                      (30_000, 256))
        tracemalloc.start()
        try:
            norm = nn.grad_norm({"e": g}, [("e", slice(None))])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * nn.NORM_LEAF * 8 + 2 ** 20, peak
        assert norm == float(np.sqrt(np.sum(T.dense(g) ** 2)))


def op_counts(records):
    """Tape records per primitive, keyed by the op's function name."""
    counts = {}
    for _, _, fn in records:
        op = fn.__qualname__.split(".")[0]
        counts[op] = counts.get(op, 0) + 1
    return counts


class TestBirnn:
    def test_empty_rejected(self):
        _, fwd = make_gru(2, 3, seed=1)
        _, bwd = make_gru(2, 3, seed=2)
        with pytest.raises(ValueError):
            nn.birnn_encode(T.zeros((1, 0, 2)), [(fwd, bwd)])

    def test_input_must_be_a_sequence_tensor(self):
        _, fwd = make_gru(2, 3, seed=1)
        _, bwd = make_gru(2, 3, seed=2)
        with pytest.raises(ShapeError):
            nn.birnn_encode(T.zeros((3, 2)), [(fwd, bwd)])

    def test_single_step(self):
        _, fwd = make_gru(2, 3, seed=1)
        _, bwd = make_gru(2, 3, seed=2)
        x = T.Tensor(T.make_rng(3).normal(size=(1, 2)))
        out = nn.birnn_encode(T.reshape(x, (1, 1, 2)), [(fwd, bwd)])
        f = gru_step(fwd, x, fwd.zero_state(1))
        b = gru_step(bwd, x, bwd.zero_state(1))
        assert np.allclose(out.data[:, 0], np.concatenate([f.data, b.data], axis=1))

    def test_length_preserved_and_dim(self):
        _, fwd = make_gru(2, 3, seed=1)
        _, bwd = make_gru(2, 3, seed=2)
        x = T.Tensor(T.make_rng(4).normal(size=(2, 50, 2)))
        assert nn.birnn_encode(x, [(fwd, bwd)]).shape == (2, 50, 6)

    def test_reversal_symmetry(self):
        # same params both directions: reversing the input reverses the output
        # sequence with the forward/backward halves swapped
        _, cell = make_gru(2, 3, seed=7)
        x = T.make_rng(8).normal(size=(1, 5, 2))
        outs = nn.birnn_encode(T.Tensor(x), [(cell, cell)]).data
        routs = nn.birnn_encode(T.Tensor(x[:, ::-1]), [(cell, cell)]).data
        for i in range(5):
            fwd_half, bwd_half = outs[:, i, :3], outs[:, i, 3:]
            swapped = np.concatenate([bwd_half, fwd_half], axis=1)
            assert np.allclose(routs[:, 4 - i], swapped)

    def test_mask_matches_unpadded_run(self):
        _, fwd = make_gru(2, 3, seed=1)
        _, bwd = make_gru(2, 3, seed=2)
        rng = T.make_rng(9)
        sent = rng.normal(size=(1, 3, 2))
        plain = nn.birnn_encode(T.Tensor(sent), [(fwd, bwd)])
        # pad to length 5 inside a 2-sentence batch
        other = rng.normal(size=(1, 5, 2))
        stacked = np.concatenate([np.pad(sent, ((0, 0), (0, 2), (0, 0))), other])
        mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=float)
        padded = nn.birnn_encode(T.Tensor(stacked), [(fwd, bwd)], mask=mask)
        for i in range(3):
            assert np.allclose(padded.data[0, i], plain.data[0, i])

    def test_gradients_through_encoder(self):
        table = nn.ParamTable()
        rng = T.make_rng(10)
        fwd = nn.GruParams(table, "f", 2, 2, nn.uniform_init(rng))
        bwd = nn.GruParams(table, "b", 2, 2, nn.uniform_init(rng))
        x = T.Tensor(rng.normal(size=(1, 3, 2)), requires_grad=True)

        def loss(_):
            return T.sum_all(T.tanh(nn.birnn_encode(x, [(fwd, bwd)])))

        for target in [x] + [t for _, t in table.items()]:
            assert T.grad_check(loss, target) < 1e-4

    def test_stacked_layers_equal_one_layer_at_a_time(self):
        table = nn.ParamTable()
        rng = T.make_rng(11)
        init = nn.uniform_init(rng)
        layers = [(nn.LstmParams(table, f"l{k}.fwd", d, 3, init),
                   nn.LstmParams(table, f"l{k}.bwd", d, 3, init)) for k, d in ((0, 2), (1, 6))]
        x = T.Tensor(rng.normal(size=(2, 4, 2)))
        mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0]], dtype=float)
        low = nn.birnn_encode(x, layers[:1], mask=mask)
        one_by_one = nn.birnn_encode(low, layers[1:], mask=mask)
        stacked = nn.birnn_encode(x, layers, mask=mask)
        assert stacked.shape == (2, 4, 6)
        assert np.array_equal(stacked.data, one_by_one.data)

    def test_two_layer_lstm_gradients_over_a_padded_batch(self):
        table = nn.ParamTable()
        rng = T.make_rng(12)
        init = nn.uniform_init(rng)
        layers = [(nn.LstmParams(table, f"l{k}.fwd", d, 2, init),
                   nn.LstmParams(table, f"l{k}.bwd", d, 2, init)) for k, d in ((0, 3), (1, 4))]
        x = T.Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
        mask = np.array([[1, 1, 1], [1, 1, 0]], dtype=float)

        def loss(_):
            return T.sum_all(T.tanh(nn.birnn_encode(x, layers, mask=mask)))

        for target in (x, table["l0.fwd.W"], table["l1.bwd.U"]):
            assert T.grad_check(loss, target) < 1e-4

    def test_one_read_per_position_and_a_fixed_number_of_joins(self):
        _, fwd = make_gru(2, 3, seed=1)
        _, bwd = make_gru(2, 3, seed=2)
        counts = {}
        for n in (3, 7):
            x = T.Tensor(T.make_rng(n).normal(size=(2, n, 2)), requires_grad=True)
            with T.Tape() as tape:
                nn.birnn_encode(x, [(fwd, bwd)])
                counts[n] = op_counts(tape.records)
        for n, c in counts.items():
            assert c["slice_axis"] == 2 * n  # one read of the projected inputs per step
        # one join of all states; the weights are read as they are stored
        assert counts[3]["concat"] == counts[7]["concat"] == 1
        assert counts[3]["reshape"] == counts[7]["reshape"] == 6

    @pytest.mark.parametrize("make, op, layers", [(make_gru, "gru_cell", 1),
                                                  (make_lstm, "lstm_cell", 2)],
                             ids=["gru", "lstm"])
    def test_one_fused_node_per_step_and_a_fixed_rest(self, make, op, layers):
        # per step and direction: one fused cell record and one read of the
        # hoisted projection; every other record is independent of n
        cells = [tuple(make(2 if k == 0 else 6, 3, seed=2 * k + side)[1] for side in (0, 1))
                 for k in range(layers)]
        # an LSTM layer adds one read of h from all its packed h | c states
        h_reads = layers if op == "lstm_cell" else 0
        rest = {}
        for n in (3, 7):
            x = T.Tensor(T.make_rng(n).normal(size=(2, n, 2)), requires_grad=True)
            with T.Tape() as tape:
                nn.birnn_encode(x, cells, mask=np.ones((2, n)))
                c = op_counts(tape.records)
            assert c.pop(op) == 2 * layers * n
            assert c.pop("slice_axis") == 2 * layers * n + h_reads
            rest[n] = c
        assert rest[3] == rest[7]

    def test_one_step_is_one_fused_node(self):
        x = T.Tensor(np.ones((2, 3)), requires_grad=True)
        _, gru = make_gru(3, 4)
        with T.Tape() as tape:
            gru_step(gru, x, gru.zero_state(2))
            assert op_counts(tape.records) == {"matmul": 1, "gru_cell": 1}

    def test_arrays_no_backward_reads_die_before_the_sweep(self, monkeypatch):
        # a padded two-layer LSTM stack: the hoisted projections, their
        # per-step column reads (views) and the joins of all states are read
        # by no backward, so they must be gone before backward starts, freed
        # by reference counting alone; the leaf gradients keep their bits
        table = nn.ParamTable()
        rng = T.make_rng(13)
        init = nn.uniform_init(rng)
        layers = [(nn.LstmParams(table, f"l{k}.fwd", d, 3, init),
                   nn.LstmParams(table, f"l{k}.bwd", d, 3, init)) for k, d in ((0, 2), (1, 6))]
        x = T.Tensor(rng.normal(size=(2, 4, 2)), requires_grad=True)
        mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0]], dtype=float)
        seen = watch_outputs(monkeypatch, "matmul", "reshape", "concat", "slice_axis")
        gc.disable()
        try:
            with T.Tape():
                loss = T.sum_all(T.tanh(nn.birnn_encode(x, layers, mask=mask)))
                assert [len(seen[k]) for k in ("matmul", "concat", "slice_axis")] == [4, 2, 18]
                for name, refs in seen.items():
                    assert all(t() is None for t, _ in refs), name  # records hold no output
                    if name != "reshape":  # a matmul reads its input rows, a reshape view
                        assert all(a() is None for _, a in refs), name
                reference = dense_backward(loss)
                T.backward(loss)
        finally:
            gc.enable()
        for t in [x] + [t for _, t in table.items()]:
            assert t.grad.tobytes() == reference[id(t)].tobytes()


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
        assert nn.dropout(x, 0.0, T.make_rng(1)) is x

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            nn.dropout(T.Tensor(np.ones(2)), 1.0, T.make_rng(1))

    def test_zero_fraction_and_expectation(self):
        x = T.Tensor(np.ones((1000, 1000)))
        out = nn.dropout(x, 0.5, T.make_rng(42))
        zero_frac = np.mean(out.data == 0.0)
        assert abs(zero_frac - 0.5) < 0.01  # law of large numbers on 1e6 elements
        assert abs(out.data.mean() - 1.0) < 0.01  # inverted scaling keeps expectation
        survivors = out.data[out.data != 0.0]
        assert np.allclose(survivors, 2.0)


def one_param_adam(w, clip=None, lr=0.1):
    """An Adam over a one-parameter table named "w", initialised to w."""
    table = nn.ParamTable()
    table.add("w", T.Tensor(np.asarray(w, dtype=float), requires_grad=True))
    return nn.Adam(table, lr=lr, clip=clip)


def step_with(opt, grads):
    """Hand grads to the table's parameters, then take one step."""
    for name, g in grads.items():
        opt.table[name].grad = g
    return opt.step()


def dense_moment(opt, which, name):
    """opt's m or v of name at the parameter's shape: a row-tracked
    parameter's compact rows scattered into zeros."""
    arr, rows = getattr(opt, which)[name], opt.rows.get(name)
    if rows is None:
        return arr
    out = np.zeros(opt.table[name].data.shape)
    out[rows] = arr
    return out


class TestClip:
    """The global clip, seen through a step's first moment: after one step
    m = 0.1 * g, where g is the gradient the update used."""

    def m_after_one_step(self, g, clip):
        opt = one_param_adam(np.zeros(len(g)), clip)
        step_with(opt, {"w": np.array(g)})
        return opt.m["w"]

    def test_below_threshold_unchanged(self):
        # norm 2.5
        assert np.array_equal(self.m_after_one_step([1.5, 2.0], 5.0),
                              self.m_after_one_step([1.5, 2.0], None))

    def test_boundary_unchanged(self):
        # norm exactly 5
        assert np.array_equal(self.m_after_one_step([3.0, 4.0], 5.0),
                              self.m_after_one_step([3.0, 4.0], None))

    def test_hand_scaling(self):
        # norm 10 -> scaled by 0.5
        assert np.array_equal(self.m_after_one_step([6.0, 8.0], 5.0),
                              self.m_after_one_step([3.0, 4.0], None))

    def test_clipped_norm_never_grows_and_clips_once(self):
        class Spy(nn.Adam):
            def update(self, grads, factor=None):
                self.used = {k: g if factor is None else g * factor
                             for k, g in grads.items()}
                super().update(grads, factor)

        rng = T.make_rng(13)
        for _ in range(50):
            table = nn.ParamTable()
            for i in range(3):
                p = table.add(f"p{i}", T.Tensor(np.zeros(rng.integers(1, 5)),
                                                requires_grad=True))
                p.grad = rng.normal(size=p.data.shape) * 10
            before = np.sqrt(sum(np.sum(t.grad ** 2) for _, t in table.items()))
            opt = Spy(table, lr=0.1, clip=2.0)
            assert opt.step() == pytest.approx(before, rel=1e-12)
            after = np.sqrt(sum(np.sum(g * g) for g in opt.used.values()))
            assert after <= before + 1e-12
            assert after <= 2.0 + 1e-9
            for name, g in opt.used.items():  # clipping a clipped set changes nothing
                table[name].grad = g
            again = Spy(table, lr=0.1, clip=2.0)
            again.step()
            for name in opt.used:
                assert np.allclose(again.used[name], opt.used[name])

    @pytest.mark.parametrize("lr, clip", [(0.0, None), (-1.0, 5.0), (0.1, 0.0),
                                          (0.1, -1.0)])
    def test_non_positive_settings_are_refused(self, lr, clip):
        with pytest.raises(ValueError):
            nn.Adam(nn.ParamTable(), lr=lr, clip=clip)


class TestAdam:
    def test_zero_gradient(self):
        opt = one_param_adam([1.0, -2.0])
        step_with(opt, {"w": np.zeros(2)})
        assert np.array_equal(opt.table["w"].data, [1.0, -2.0])
        assert opt.t == 1

    def test_first_step_is_signed_lr(self):
        opt = one_param_adam(np.zeros(3), lr=1e-3)
        g = np.array([0.5, -2.0, 3.0])
        step_with(opt, {"w": g})
        assert np.allclose(opt.table["w"].data, -1e-3 * np.sign(g), atol=1e-7)

    def test_two_identical_steps_match_hand_recursion(self):
        lr, eps = 0.01, nn.ADAM_EPS
        g = np.array([2.0, -0.3])
        opt = one_param_adam([1.0, 1.0], lr=lr)
        step_with(opt, {"w": g.copy()})
        step_with(opt, {"w": g.copy()})
        # with a constant gradient both bias-corrected steps reduce to
        # -lr * g / (|g| + eps)
        expected = 1.0 - 2 * lr * g / (np.abs(g) + eps)
        assert np.allclose(opt.table["w"].data, expected, atol=1e-10)
        assert opt.t == 2

    def test_shape_mismatch(self):
        opt = one_param_adam(np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            step_with(opt, {"w": np.zeros(3)})

    B = nn.ADAM_BLOCK
    SHAPES = ([(n,) for n in (1, B - 1, B, B + 1, 3 * B + 7)]
              + [(1, B + 1), (3, B // 2 + 5), (B + 1, 2), (B // 2 + 3, 4)])

    @settings(max_examples=25, deadline=None)
    @example(shapes=SHAPES, layout="C", lr=1e-3, clipped=False, seed=0)
    @example(shapes=SHAPES, layout="column slice", lr=0.5, clipped=True, seed=1)
    @given(shapes=st.lists(st.sampled_from(SHAPES), min_size=1, max_size=3),
           layout=st.sampled_from(["C", "F", "column slice"]),
           lr=st.sampled_from([1e-3, 0.5]), clipped=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_blocks_match_the_whole_array_update_bit_for_bit(self, shapes, layout,
                                                             lr, clipped, seed):
        rng = T.make_rng(seed)
        init = {f"p{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
        steps = []
        for _ in range(3):
            grads = {}
            for name, arr in init.items():
                if layout == "F":
                    g = rng.normal(size=arr.shape[::-1]).T
                elif layout == "column slice":
                    g = rng.normal(size=arr.shape[:-1] + (arr.shape[-1] + 3,))[..., 1:-2]
                else:
                    g = rng.normal(size=arr.shape)
                drop = rng.random(arr.shape) < 0.1
                drop.flat[0] = False  # every step's norm is positive
                g[drop] = 0.0
                grads[name] = g * 10.0 ** rng.integers(-4, 3)
            steps.append(grads)
        tables = [nn.ParamTable() for _ in range(2)]
        for table in tables:
            for name, arr in init.items():
                table.add(name, T.Tensor(arr.copy(), requires_grad=True))
        # a clip every step exceeds
        terms = tables[0].norm_terms
        clip = min(nn.grad_norm(grads, terms) for grads in steps) / 2 if clipped else None
        kept = [{name: g.copy() for name, g in grads.items()} for grads in steps]
        opts = []
        for oracle, table in zip((False, True), tables):
            opts.append(nn.Adam(table, lr, clip))
            with mock.patch.object(nn.Adam, "update", adam_step_oracle) if oracle \
                    else contextlib.nullcontext():
                for grads in steps:
                    step_with(opts[-1], grads)
        block, whole = opts
        for name in init:
            for got, want in ((block.table[name].data, whole.table[name].data),
                              (block.m[name], whole.m[name]),
                              (block.v[name], whole.v[name])):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for grads, copies in zip(steps, kept):  # gradients are never written
            for name in grads:
                assert grads[name].tobytes() == copies[name].tobytes()

    @settings(max_examples=40, deadline=None)
    @example(V=30, cols=700, plan=[[0, 2, 2], [], [5, 0], "dense", [8], "all"], clipped=True,
             seed=2)
    @example(V=30, cols=3, plan=[[1, 1], [4], [], [1, 4], list(range(15)), [3]],
             clipped=False, seed=3)
    @example(V=3, cols=ADAM_BLOCK + 1, plan=[[2], [], [2, 0]], clipped=True, seed=4)
    @example(V=60, cols=700, plan=[list(range(0, 40, 3)), list(range(1, 60, 4)), [], [0, 59]],
             clipped=True, seed=5)  # 29 compact rows: two blocks of 23 rows
    @given(V=st.integers(1, 60), cols=st.sampled_from([3, 700, ADAM_BLOCK + 1]),
           plan=st.lists(st.one_of(st.lists(st.integers(0, 59), max_size=12),
                                   st.sampled_from(["all", "dense"])), min_size=3, max_size=6),
           clipped=st.booleans(), seed=st.integers(0, 2 ** 16))
    def test_row_gradients_match_the_whole_array_update_bit_for_bit(self, V, cols, plan,
                                                                    clipped, seed):
        # Each step reads some rows of "emb" (ids), all of them, or hands
        # it a dense gradient; "w" always gets a dense one. Rows read, left
        # unread and read again keep their moments decaying exactly as the
        # whole-array update's; the moments stay compact, all rows read
        # included, until a dense gradient comes, and are dense from then on.
        if cols > ADAM_BLOCK:
            V = min(V, 3)
        rng = T.make_rng(seed)
        init = {"emb": rng.normal(size=(V, cols)), "w": rng.normal(size=(2, 3))}
        steps = []
        for ids in plan:
            if ids == "dense":
                emb = rng.normal(size=(V, cols))
            else:
                rows = np.arange(V) if ids == "all" else np.unique(np.array(ids, int) % V)
                emb = T.RowGrad(rows, rng.normal(size=(len(rows), cols)), (V, cols))
            steps.append({"emb": emb, "w": rng.normal(size=(2, 3))})
        clip = None
        if clipped:  # a clip every step exceeds
            clip = min(nn.grad_norm(dense_grads(g), [("emb", slice(None)), ("w", slice(None))])
                       for g in steps) / 2
        opts = []
        for _ in range(2):
            table = nn.ParamTable()
            for name, arr in init.items():
                table.add(name, T.Tensor(arr.copy(), requires_grad=True))
            opts.append(nn.Adam(table, 1e-2, clip))
        rows_opt, whole = opts
        held, dense = set(), False
        for grads in steps:
            step_with(rows_opt, grads)
            with mock.patch.object(nn.Adam, "update", adam_step_oracle):
                step_with(whole, dense_grads(grads))
            g = grads["emb"]
            dense = dense or type(g) is np.ndarray
            tracked = rows_opt.rows.get("emb")
            if dense:
                assert tracked is None  # dense moments from here on
            else:
                held |= set(g.rows.tolist())
                assert tracked.tolist() == sorted(held)
            for name in init:
                for got, want in ((rows_opt.table[name].data, whole.table[name].data),
                                  (dense_moment(rows_opt, "m", name), whole.m[name]),
                                  (dense_moment(rows_opt, "v", name), whole.v[name])):
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("factor", [None, 0.5])
    @pytest.mark.parametrize("column_slice", [False, True])
    def test_second_step_allocates_no_parameter_sized_array(self, column_slice, factor):
        opt = one_param_adam(np.zeros((2 ** 11, 2 ** 10)), lr=1e-3)
        # a gradient may be a column slice of a wider array
        width = 2 ** 11 if column_slice else 2 ** 10
        grads = {"w": T.make_rng(0).normal(size=(2 ** 11, width))[:, :2 ** 10]}
        opt.update(grads, factor)  # copies w, allocates m and v
        tracemalloc.start()
        try:
            opt.update(grads, factor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < opt.table["w"].data.nbytes / 8

    def test_clipped_step_holds_no_second_gradient_set(self):
        """Past the first step a clipped step's largest allocation is the
        norm's square of one gradient: no scaled copy of the gradients."""
        rng = T.make_rng(4)
        table = nn.ParamTable()
        for i in range(4):
            table.add(f"p{i}", T.Tensor(np.zeros(2 ** 19), requires_grad=True))
        opt = nn.Adam(table, lr=1e-3, clip=1e-3)
        grads = {name: rng.normal(size=2 ** 19) for name in table.names()}
        step_with(opt, grads)  # copies the parameters, allocates m and v
        tracemalloc.start()
        try:
            step_with(opt, grads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * table["p0"].data.nbytes

    def test_arrays_handed_in_are_never_written(self):
        rng = T.make_rng(5)
        given_w, given_b = rng.normal(size=(3, 4)), rng.normal(size=(1, 4))
        table = nn.ParamTable()
        w = table.add("w", T.Tensor(given_w, requires_grad=True))
        b = table.add("b", T.Tensor(given_b, requires_grad=True))
        originals = [given_w.copy(), given_b.copy()]
        opt = nn.Adam(table, lr=0.1)

        def steps(k):
            for _ in range(k):
                w.grad, b.grad = rng.normal(size=(3, 4)), rng.normal(size=(1, 4))
                opt.step()

        steps(2)
        for arr, orig in zip((given_w, given_b), originals):
            assert np.array_equal(arr, orig)
        snapshot = state_dict(table)
        kept = {k: v.copy() for k, v in snapshot.items()}
        steps(2)
        loaded = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=(1, 4))}
        loaded_kept = {k: v.copy() for k, v in loaded.items()}
        table.load_state(loaded)
        steps(2)
        for name in kept:
            assert np.array_equal(snapshot[name], kept[name])
            assert np.array_equal(loaded[name], loaded_kept[name])
            assert not np.array_equal(table[name].data, loaded_kept[name])

    def test_step_returns_the_norm_before_clipping(self):
        table = nn.ParamTable()
        w = table.add("w", T.Tensor(np.zeros(2), requires_grad=True))
        w.grad = np.array([3.0, 4.0])
        assert nn.Adam(table, lr=0.1, clip=1.0).step() == 5.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    @pytest.mark.parametrize("clip", [None, 5.0])
    def test_non_finite_gradient_norm_stops_before_the_update(self, bad, clip):
        table = nn.ParamTable()
        w = table.add("w", T.Tensor(np.array([1.0, -2.0]), requires_grad=True))
        table.add("v", T.Tensor(np.array([3.0]), requires_grad=True))
        w.grad, table["v"].grad = np.array([0.5, bad]), np.array([1.0])
        opt = nn.Adam(table, lr=0.1, clip=clip)
        with pytest.raises(FloatingPointError, match="non-finite gradient norm"):
            opt.step()
        assert np.array_equal(w.data, [1.0, -2.0]) and table["v"].data[0] == 3.0
        assert opt.t == 0 and not opt.m


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


def layout_parser(seed=4):
    return ParserModel({"<unk>": 0, "a": 1, "b": 2}, ["root", "x", "y"], embed_dim=5,
                       hidden_dim=4, mlp_dim=6, layers=2, seed=seed)


def layout_model(kind, seed=5):
    """(model, its one-entry-per-gate draws, a loss over one batch): a
    parser, or a translator in mode kind (sawr: tuning an attached parser)."""
    if kind == "parser":
        model = layout_parser(seed)
        rng = T.make_rng(seed)
        sents = [["a", "b", "a"], ["b", "b", "a"]]
        trees = [random_projective_tree(3, rng, labels=("x", "y")) for _ in sents]
        return (model, per_gate_parser_state(model, seed),
                lambda: tree_log_loss(score_arcs(parser_encode(sents, model), model),
                                      trees, model))
    model = TranslationModel(9, 10, mode={"baseline": "none"}.get(kind, kind), emb_dim=6,
                             hidden_dim=8, sawr_dim=3, tree_hidden=5, dropout=0.0,
                             parser=layout_parser(seed + 1) if kind == "sawr" else None,
                             parser_trainable=True, seed=seed)
    batch = Batch([[4, 5, 6], [7, 4]], [[5, 6, 7, 3], [8, 3]],
                  src_tokens=[["a", "b", "a"], ["b", "a"]] if kind == "sawr" else None,
                  trees=[DependencyTree([2, 0, 2]), DependencyTree([0, 1])]
                  if kind == "tree-rnn" else None)
    return (model, per_gate_translator_state(model, seed + 1),
            lambda: sequence_loss(batch, model, mode="eval"))


class TestGatesSideBySide:
    """A cell stores its W, U and b with the gates side by side, and the
    parser its label maps as one lab.U, with the bits of one entry per gate
    and per label: the same draws, and a gradient norm that adds the same
    terms in the same order."""

    @pytest.mark.parametrize("lstm", [False, True], ids=["gru", "lstm"])
    @pytest.mark.parametrize("d, H, seed", [(1, 1, 0), (3, 4, 1), (7, 5, 2)])
    def test_a_cell_holds_its_per_gate_draws_side_by_side(self, lstm, d, H, seed):
        table, rng = nn.ParamTable(), T.make_rng(seed)
        cell = (nn.LstmParams if lstm else nn.GruParams)(table, "c", d, H, nn.uniform_init(rng))
        gates = LSTM_GATES if lstm else GRU_GATES
        oracle_rng = T.make_rng(seed)
        draws = per_gate_draws(oracle_rng, "c", gates, d, H)
        assert table.names() == ["c.W", "c.U", "c.b"]
        for part in "WUb":
            want = np.concatenate([draws[f"c.{gate}.{part}"] for gate in gates], axis=1)
            assert getattr(cell, part).data.tobytes() == want.tobytes()
        assert rng.random() == oracle_rng.random()  # no draw more or less

    @pytest.mark.parametrize("kind", ["baseline", "tree-rnn", "sawr", "parser"])
    def test_a_model_splits_into_its_per_gate_draws(self, kind):
        model, want, _ = layout_model(kind)
        got = split_per_gate(state_dict(model.table))
        assert list(got) == list(want)
        for name, arr in want.items():
            assert np.ascontiguousarray(got[name]).tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize("kind", ["baseline", "sawr", "parser"])
    def test_the_norm_adds_the_per_gate_terms_bit_for_bit(self, kind):
        """Over a few clipped steps of a plain translator, a sawr translator
        tuning its attached parser, and a parser (lab.U), Adam's norm is the
        norm of the gradients split into one entry per gate and per label:
        it squares and sums those blocks, one by one, in that order."""
        real_sum = np.sum
        for seed in range(2):
            model, _, loss = layout_model(kind, seed)
            opt = nn.Adam(model.table, lr=1e-2, clip=1e-3)
            for _ in range(3):
                with T.Tape():
                    T.backward(loss())
                grads = model.table.gradients()
                want = per_gate_norm(grads)
                summed = []

                def spy(a, *args, **kwargs):
                    summed.append(a.copy())
                    return real_sum(a, *args, **kwargs)

                with mock.patch.object(np, "sum", spy):
                    norm = opt.step()
                assert norm == want > opt.clip
                blocks = list(split_per_gate(dense_grads(grads)).values())
                assert len(summed) == len(blocks)
                for got, g in zip(summed, blocks):
                    # the squares in memory order, the order np.sum reads them
                    assert got.tobytes() == (g * g).ravel(order="K").tobytes()


class TestCheckpoint:
    def test_roundtrip_f64(self, tmp_path):
        state = {"a.W": np.arange(6.0).reshape(2, 3), "b": np.array([1.5])}
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert set(loaded) == {"a.W", "b"}
        for k in state:
            assert np.array_equal(loaded[k], state[k])

    def test_a_float32_entry_is_a_data_error(self, tmp_path):
        # save_checkpoint writes tags 0 and 2 only; tag 1 (float32) is unknown
        state = {"w": T.make_rng(2).normal(size=(4, 5))}
        path = tmp_path / "m.ckpt"
        write_f32_checkpoint(path, state)
        with pytest.raises(DataError,
                           match=re.escape(f"{path}: unknown precision tag 1 for w")):
            load_checkpoint(path)

    def test_loading_holds_each_entry_once(self, tmp_path):
        # 4M float64 elements in three entries and a byte entry: each is read
        # straight into its own array, with no copy of the file's bytes
        rng = T.make_rng(6)
        state = {"a": rng.normal(size=(1024, 2048)), "b": rng.normal(size=2 ** 21),
                 "c": rng.normal(size=(3, 5)), "meta": np.frombuffer(b"{}", dtype=np.uint8)}
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, state)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * size, f"load peaks at {peak / size:.2f} times the file"
        for name, arr in state.items():
            assert loaded[name].dtype == arr.dtype and loaded[name].flags.writeable
            assert loaded[name].tobytes() == arr.tobytes(), name

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

    @pytest.mark.parametrize("dims", [(0,) * 65, (0, 2 ** 31, 2 ** 31)],
                             ids=["65 axes", "overflowing size"])
    def test_empty_entry_of_an_impossible_shape_is_a_data_error(self, tmp_path, dims):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"SAWRCKPT" + struct.pack("<IIH", 1, 1, 1) + b"w"
                         + struct.pack(f"<BB{len(dims)}I", 0, len(dims), *dims))
        with pytest.raises(DataError, match=re.escape(f"{path}: entry 'w' has an "
                                                      f"unusable shape")):
            load_checkpoint(path)

    def test_a_repeated_name_is_a_data_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_checkpoint_oracle(path, [("a", np.zeros(2)), ("a", np.ones(2))])
        with pytest.raises(DataError, match=re.escape(f"{path}: entry 'a' appears twice")):
            load_checkpoint(path)

    def test_bytes_equal_the_cast_and_copy_writer(self, tmp_path):
        # arrays go out from their own buffers; the file is what casting each
        # with astype and copying it out with tobytes wrote
        rng = T.make_rng(3)
        wide = rng.normal(size=(4, 6))
        state = {"f64": rng.normal(size=(3, 5)), "f64.strided": wide[:, ::2],
                 "f64.big_endian": wide.astype(">f8"), "f64.scalar": np.array(2.5),
                 "f64.empty": np.zeros((0, 3)),
                 "f32": rng.normal(size=(2, 3)).astype(np.float32),
                 "__meta__": np.frombuffer(b'{"a": 1}', dtype=np.uint8)}
        ours, oracle = tmp_path / "ours.ckpt", tmp_path / "oracle.ckpt"
        save_checkpoint(ours, state)
        write_checkpoint_oracle(oracle, list(state.items()))
        assert ours.read_bytes() == oracle.read_bytes()

    def test_hash_changes_with_content(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, {"w": np.zeros(3)})
        save_checkpoint(p2, {"w": np.ones(3)})
        assert file_sha256(p1) != file_sha256(p2)

    def test_table_roundtrip(self, tmp_path):
        table = nn.ParamTable()
        nn.GruParams(table, "enc", 3, 4, nn.uniform_init(T.make_rng(1)))
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, state_dict(table))
        table2 = nn.ParamTable()
        nn.GruParams(table2, "enc", 3, 4, nn.uniform_init(T.make_rng(2)))
        table2.load_state(load_checkpoint(path))
        for (_, a), (_, b) in zip(table.items(), table2.items()):
            assert np.array_equal(a.data, b.data)

    def test_load_state_takes_exactly_the_tables_names(self):
        table = nn.ParamTable()
        table.add("a", T.zeros((2, 3)))
        table.add("b", T.zeros((1, 3)))
        full = {"a": np.ones((2, 3)), "b": np.ones((1, 3))}
        bad = [({"a": full["a"]}, "m.ckpt: no entry for parameter 'b'"),
               ({**full, "c": np.ones(1)}, "m.ckpt: unknown entry 'c'"),
               ({**full, "b": np.ones((3, 1))}, "m.ckpt: parameter 'b' has shape (3, 1)")]
        for state, message in bad:
            with pytest.raises(DataError, match=re.escape(message)):
                table.load_state(state, "m.ckpt")
            assert not table["a"].data.any()  # nothing was taken
        table.load_state(full, "m.ckpt")
        assert table["a"].data.all() and table["b"].data.all()


class TestOpenNew:
    def test_replaces_without_truncating_in_place(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")
        os.link(path, tmp_path / "twin.txt")  # shares the old inode
        with open_new(path) as f:
            f.write("new\n")
        assert path.read_text(encoding="utf-8") == "new\n"
        assert (tmp_path / "twin.txt").read_text(encoding="utf-8") == "old\n"
        assert sorted(os.listdir(tmp_path)) == ["out.txt", "twin.txt"]

    def test_failed_body_changes_nothing(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old bytes")
        with pytest.raises(RuntimeError):
            with open_new(path, "wb") as f:
                f.write(b"half a")
                raise RuntimeError("body failed")
        assert path.read_bytes() == b"old bytes"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_failed_save_checkpoint_keeps_the_old_checkpoint(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.arange(6.0)})
        before = path.read_bytes()
        # the second entry cannot be cast to float, after the first is written
        with pytest.raises(ValueError):
            save_checkpoint(path, {"w": np.ones(6), "bad": np.array(["x"])})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.ckpt"]

    def test_device_is_written_in_place(self, monkeypatch):
        def spare_devnull(call):
            def guarded(*paths, **kw):
                if os.devnull in map(os.fspath, paths):
                    raise PermissionError(f"test forbids {call.__name__} on {os.devnull}")
                return call(*paths, **kw)
            return guarded

        # a writer that swapped files here would replace the system's device
        for name in ("unlink", "remove", "rename", "replace"):
            monkeypatch.setattr(os, name, spare_devnull(getattr(os, name)))
        with open_new(os.devnull) as f:
            f.write("discarded\n")
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert not os.path.exists(f"{os.devnull}.tmp{os.getpid()}")


class TestOneWritePath:
    def test_no_write_mode_open_outside_open_new(self):
        """Every file the package writes goes through checkpoint.open_new."""
        offenders = []
        for src in sorted((Path(__file__).parent.parent / "src" / "synmt").glob("*.py")):
            tree = ast.parse(src.read_text(encoding="utf-8"))
            allowed = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "open_new":
                    allowed.update(id(n) for n in ast.walk(node))
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "open" and id(node) not in allowed):
                    mode = node.args[1] if len(node.args) > 1 else next(
                        (k.value for k in node.keywords if k.arg == "mode"), None)
                    reads = mode is None or (isinstance(mode, ast.Constant)
                                             and not set(mode.value) & set("wax+"))
                    if not reads:
                        offenders.append(f"{src.name}:{node.lineno}")
        assert offenders == []
