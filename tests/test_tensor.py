"""Tensor core: primitives, tape semantics, gradient checks."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synmt import tensor as T
from synmt.errors import ShapeError

from helpers import (dense_backward, dense_grad, log_softmax, pick, scale_rows, sigmoid, sub,
                     take_rows_scatter)


def leaf(data, rg=True):
    return T.Tensor(data, requires_grad=rg)


class TestMatmul:
    def test_identity(self):
        x = np.arange(9.0).reshape(3, 3)
        out = T.matmul(T.Tensor(np.eye(3)), T.Tensor(x))
        assert np.allclose(out.data, x)

    def test_hand_case(self):
        out = T.matmul(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), T.Tensor([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 5))))

    def test_stacks_multiply_slab_by_slab(self):
        rng = T.make_rng(4)
        a, b = rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 4, 5))
        out = T.matmul(T.Tensor(a), T.Tensor(b))
        for i in range(3):
            assert np.array_equal(out.data[i], a[i] @ b[i])
        assert np.array_equal(T.transpose(T.Tensor(a)).data[1], a[1].T)

    def test_stacks_need_equal_batch_axes(self):
        with pytest.raises(ShapeError, match="batch"):
            T.matmul(T.Tensor(np.zeros((2, 3, 4))), T.Tensor(np.zeros((1, 4, 5))))
        with pytest.raises(ShapeError):  # no broadcasting of a matrix over a stack
            T.matmul(T.Tensor(np.zeros((2, 3, 4))), T.Tensor(np.zeros((4, 5))))
        with pytest.raises(ShapeError):
            T.transpose(T.Tensor(np.zeros((2, 2, 2, 2))))


class TestReshape:
    def test_row_major_order(self):
        x = T.Tensor(np.arange(6.0).reshape(2, 3))
        assert np.array_equal(T.reshape(x, (3, 2)).data, [[0, 1], [2, 3], [4, 5]])
        assert T.reshape(x, (1, 2, 3)).shape == (1, 2, 3)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="reshape"):
            T.reshape(T.Tensor(np.zeros((2, 3))), (4, 2))


class TestElementwise:
    def test_fixed_points(self):
        assert T._sigmoid_data(np.array([0.0]))[0] == 0.5
        assert T.tanh(T.Tensor([0.0])).data[0] == 0.0

    def test_add_hand_case(self):
        out = T.add(T.Tensor([1.0, 2.0]), T.Tensor([3.0, 4.0]))
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_bias_row_broadcast(self):
        x = T.Tensor(np.ones((3, 2)))
        b = leaf(np.array([[1.0, 2.0]]))
        with T.Tape():
            out = T.add(x, b)
            T.backward(T.sum_all(out))
        assert np.array_equal(out.data, [[2.0, 3.0]] * 3)
        assert np.array_equal(b.grad, [[3.0, 3.0]])  # summed over rows

    def test_non_broadcastable(self):
        with pytest.raises(ShapeError):
            T.add(T.Tensor(np.zeros((3, 2))), T.Tensor(np.zeros((2, 3))))
        with pytest.raises(ShapeError):
            T.mul(T.Tensor(np.zeros((3, 2))), T.Tensor(np.zeros((3,))))

    def test_sigmoid_extreme_inputs(self):
        out = T._sigmoid_data(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax(T.Tensor([[0.0, 0.0, 0.0]]), axis=1)
        assert np.allclose(out.data, 1.0 / 3.0)

    def test_overflow_stability(self):
        out = T.softmax(T.Tensor([[1000.0, 0.0]]), axis=1)
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0] == pytest.approx(1.0)
        assert out.data[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_closed_form(self):
        out = T.softmax(T.Tensor([[np.log(1.0), np.log(3.0)]]), axis=1)
        assert np.allclose(out.data, [[0.25, 0.75]])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_rows_sum_to_one(self, row):
        out = T.softmax(T.Tensor([row]), axis=1)
        assert abs(out.data.sum() - 1.0) < 1e-6
        assert np.all(out.data >= 0.0)

    def test_log_softmax_matches_log_of_softmax(self):
        x = T.Tensor(np.linspace(-3, 3, 12).reshape(3, 4))
        assert np.allclose(log_softmax(x, axis=1).data,
                           np.log(T.softmax(x, axis=1).data))


class TestConcat:
    def test_vectors(self):
        out = T.concat([T.Tensor([1.0, 2.0]), T.Tensor([3.0])], axis=0)
        assert np.array_equal(out.data, [1.0, 2.0, 3.0])

    def test_512_plus_512(self):
        e = T.Tensor(np.zeros((1, 512)))
        s = T.Tensor(np.ones((1, 512)))
        assert T.concat([e, s], axis=1).data.shape == (1, 1024)

    def test_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat([T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 3)))], axis=1)

    def test_concat_split_identity_values_and_grads(self):
        rng = T.make_rng(3)
        a = leaf(rng.normal(size=(2, 3)))
        b = leaf(rng.normal(size=(2, 4)))
        with T.Tape():
            cat = T.concat([a, b], axis=1)
            back_a = T.slice_axis(cat, 1, 0, 3)
            back_b = T.slice_axis(cat, 1, 3, 7)
            assert np.array_equal(back_a.data, a.data)
            assert np.array_equal(back_b.data, b.data)
            loss = T.add(T.sum_all(T.mul(back_a, back_a)), T.sum_all(T.mul(back_b, back_b)))
            T.backward(loss)
        # gradient of sum(x*x) through concat/split must equal direct 2x
        assert np.allclose(a.grad, 2 * a.data)
        assert np.allclose(b.grad, 2 * b.data)


class TestBackward:
    def test_sum_gives_ones(self):
        x = leaf(np.arange(6.0).reshape(2, 3))
        with T.Tape():
            T.backward(T.sum_all(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_hand_calculus(self):
        # loss = (w*x)^2 with scalar w, x: dloss/dw = 2*w*x^2
        w = leaf(np.array([[3.0]]))
        x = T.Tensor([[2.0]])
        with T.Tape():
            wx = T.mul(w, x)
            T.backward(T.sum_all(T.mul(wx, wx)))
        assert w.grad[0, 0] == pytest.approx(2 * 3.0 * 2.0 ** 2)

    def test_unreachable_tensor(self):
        x = leaf(np.ones(3))
        y = leaf(np.ones(3))
        with T.Tape():
            T.mul(y, y)  # y participates, x does not
            T.backward(T.sum_all(T.mul(y, y)))
        assert x.grad is None

    def test_only_inputs_keep_gradients(self):
        # intermediates drop their gradient once it has been passed on; the
        # leaf still accumulates over two tapes' backward calls
        x = leaf(np.full((2, 3), 0.5))
        for _ in range(2):
            with T.Tape():
                hidden = T.tanh(T.mul(x, x))
                loss = T.sum_all(hidden)
                T.backward(loss)
                assert hidden.grad is None and loss.grad is None
        assert np.allclose(x.grad, 2 * 2 * 0.5 * (1 - np.tanh(0.25) ** 2))

    def test_accumulation_without_reset(self):
        x = leaf(np.ones(4))
        for _ in range(2):
            with T.Tape():
                T.backward(T.sum_all(x))
        assert np.array_equal(x.grad, 2 * np.ones(4))

    def test_leaving_the_block_frees_the_graph(self):
        # records hold node ids, not their outputs: a tensor dies when the
        # caller drops it, the array its op's backward reads lives until the
        # sweep has run that op, and the tape, which no tensor's record
        # points back into, goes with its last reference, all without help
        # from the cyclic collector
        x = leaf(np.full((2, 3), 0.5))
        gc.disable()
        try:
            with T.Tape() as tape:
                hidden = T.tanh(T.mul(x, x))
                alive, saved = weakref.ref(hidden), weakref.ref(hidden.data)
                loss = T.sum_all(hidden)
                del hidden
                assert alive() is None
                assert saved() is not None  # tanh's backward reads it
                T.backward(loss)
                assert saved() is None
                assert len(tape) == 0
            swept = weakref.ref(tape)
            del tape, loss
            assert swept() is None
        finally:
            gc.enable()
        assert np.allclose(x.grad, 2 * 0.5 * (1 - np.tanh(0.25) ** 2))

    def test_backward_frees_each_record_as_it_runs(self):
        # the oldest record runs last; when it does, every later output and
        # the arrays its record saved must already be gone
        x = leaf(np.full((2, 3), 0.5))
        watched, dead = [], []

        def probe_bwd(g):
            dead.extend(ref() is None for ref in watched)
            return (g,)

        with T.Tape():
            first = T._record(T.Tensor(x.data.copy()), (x,), probe_bwd)
            hidden = T.tanh(T.mul(first, first))  # tanh saves its output array
            watched += [weakref.ref(hidden), weakref.ref(hidden.data)]
            loss = T.sum_all(hidden)
            del hidden
            T.backward(loss)
        assert dead == [True, True]

    def test_a_swept_tape_cannot_be_swept_again(self):
        x = leaf(np.ones(3))
        with T.Tape() as tape:
            loss = T.sum_all(T.mul(x, x))
            T.backward(loss)
            assert len(tape) == 0
            with pytest.raises(ValueError, match="swept"):
                T.backward(loss)
        assert np.array_equal(x.grad, 2 * np.ones(3))

    def test_backward_after_the_block_raises(self):
        x = leaf(np.ones(3))
        with T.Tape():
            loss = T.sum_all(T.mul(x, x))
        with pytest.raises(ValueError, match="closed"):
            T.backward(loss)
        assert x.grad is None

    def test_non_scalar_loss_rejected(self):
        x = leaf(np.ones(3))
        with T.Tape():
            y = T.mul(x, x)
            with pytest.raises(ValueError):
                T.backward(y)

    def test_no_tape_is_forward_only(self):
        x = leaf(np.ones(3))
        y = T.sum_all(x)
        with pytest.raises(ValueError):
            T.backward(y)


class TestGradCheck:
    def test_sigmoid_sum(self):
        x = leaf(T.make_rng(11).normal(size=(3, 4)))
        err = T.grad_check(lambda t: T.sum_all(sigmoid(t)), x, eps=1e-5)
        assert err < 1e-4

    def test_linear_is_exact(self):
        x = leaf(T.make_rng(12).normal(size=(5,)))
        assert T.grad_check(lambda t: T.sum_all(t), x) < 1e-9


def _random_case(rng):
    m, n, k = rng.integers(1, 4, size=3)
    return int(m), int(n), int(k)


# the package's primitives, and the unfused ops in helpers that oracles use
PRIMITIVE_CASES = {
    "add": lambda x, y: T.add(x, y),
    "sub": lambda x, y: sub(x, y),
    "mul": lambda x, y: T.mul(x, y),
    "sigmoid": lambda x, y: sigmoid(x),
    "tanh": lambda x, y: T.tanh(x),
    "matmul": lambda x, y: T.matmul(x, T.transpose(y)),
    "softmax": lambda x, y: T.mul(T.softmax(x, axis=1), y),
    "log_softmax": lambda x, y: T.mul(log_softmax(x, axis=1), y),
    "concat": lambda x, y: T.concat([x, y], axis=1),
    "slice": lambda x, y: T.slice_axis(x, 1, 0, x.shape[1] // 2 + 1),
    "transpose": lambda x, y: T.transpose(x),
    "scale": lambda x, y: T.scale(x, -1.7),
    "sum_axis": lambda x, y: T.sum_axis(x, 1),
    "sum_axis0": lambda x, y: T.sum_axis(x, 0),
    "scale_rows": lambda x, y: scale_rows(x, T.sum_axis(y, 1)),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients_100_trials(name):
    """Every primitive passes a fp64 finite-difference check on random inputs."""
    build = PRIMITIVE_CASES[name]
    rng = T.make_rng(hash(name) % 2 ** 32)
    for _ in range(100):
        m, n, _ = _random_case(rng)
        x = leaf(rng.normal(size=(m, n)))
        y = leaf(rng.normal(size=(m, n)))
        err = T.grad_check(lambda t: T.sum_all(build(t, y)), x, eps=1e-6)
        assert err < 1e-4, f"{name}: {err}"
        err = T.grad_check(lambda t: T.sum_all(build(x, t)), y, eps=1e-6)
        assert err < 1e-4, f"{name} (second arg): {err}"


def test_stacked_matrix_gradients():
    """3-D matmul and transpose and reshape pass the same finite-difference check."""
    rng = T.make_rng(77)
    for _ in range(50):
        b, m, k, n = (int(v) for v in rng.integers(1, 4, size=4))
        x = leaf(rng.normal(size=(b, m, k)))
        y = leaf(rng.normal(size=(b, k, n)))
        w = T.constant(rng.normal(size=(b, k, m)))
        assert T.grad_check(lambda t: T.sum_all(T.tanh(T.matmul(t, y))), x) < 1e-4
        assert T.grad_check(lambda t: T.sum_all(T.tanh(T.matmul(x, t))), y) < 1e-4
        assert T.grad_check(lambda t: T.sum_all(T.tanh(T.mul(T.transpose(t), w))), x) < 1e-4
        z = leaf(rng.normal(size=(b * m, k)))
        assert T.grad_check(
            lambda t: T.sum_all(T.tanh(T.mul(T.reshape(t, (b, m, k)), x))), z) < 1e-4
        assert T.grad_check(
            lambda t: T.sum_all(T.tanh(T.mul(T.reshape(t, (b * m, k)), z))), x) < 1e-4


def test_pick_and_take_rows_gradients():
    rng = T.make_rng(99)
    for _ in range(50):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        ids = rng.integers(0, n, size=m)
        x = leaf(rng.normal(size=(m, n)))
        assert T.grad_check(lambda t: T.sum_all(T.tanh(pick(t, ids))), x) < 1e-4
        rows = rng.integers(0, m, size=2 * m)  # repeats exercise scatter-add
        tab = leaf(rng.normal(size=(m, n)))
        assert T.grad_check(lambda t: T.sum_all(T.tanh(T.take_rows(t, rows))), tab) < 1e-4
    with pytest.raises(ValueError):
        pick(T.Tensor(np.zeros((2, 3))), [0, 5])
    with pytest.raises(ValueError):
        T.take_rows(T.Tensor(np.zeros((2, 3))), [4])


def masked_sigmoid(xd):
    """The sigmoid as a two-branch masked formula (the formula before the
    branch-free one)."""
    y = np.empty_like(xd)
    pos = xd >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


class TestSigmoid:
    def test_bit_identical_to_the_masked_formula(self):
        special = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 1e-310, -1e-310,
                            np.nan, -np.nan])
        for xd in (special, T.make_rng(5).normal(size=(20, 64)) * 30.0):
            assert T._sigmoid_data(xd).tobytes() == masked_sigmoid(xd).tobytes()


class TestNll:
    def test_equals_pick_of_log_softmax_to_the_bit(self):
        rng = T.make_rng(21)
        for _ in range(20):
            m, v = int(rng.integers(1, 6)), int(rng.integers(1, 9))
            ids = rng.integers(0, v, size=m)
            xd = rng.normal(size=(m, v)) * 5.0
            g = rng.normal(size=(m, 1))
            results = []
            for f in (lambda t: T.nll(t, ids), lambda t: pick(log_softmax(t, axis=1), ids)):
                x = leaf(xd.copy())
                with T.Tape():
                    out = f(x)
                    T.backward(T.sum_all(T.mul(out, T.constant(g))))
                results.append((out.data, x.grad))
            (fused, fused_grad), (ref, ref_grad) = results
            assert fused.tobytes() == ref.tobytes()
            assert np.array_equal(fused_grad, ref_grad)

    def test_gradients(self):
        rng = T.make_rng(22)
        for _ in range(30):
            m, v = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            ids = rng.integers(0, v, size=m)
            w = T.constant(rng.normal(size=(m, 1)))
            x = leaf(rng.normal(size=(m, v)))
            assert T.grad_check(lambda t: T.sum_all(T.mul(T.nll(t, ids), w)), x) < 1e-4

    def test_rejects_bad_ids(self):
        with pytest.raises(ValueError):
            T.nll(T.Tensor(np.zeros((2, 3))), [0, 3])
        with pytest.raises(ShapeError):
            T.nll(T.Tensor(np.zeros((2, 3))), [0])


def _cell_case(rng, op, B, H):
    """Operands of one fused step, a [B, 1] keep column with both values, and
    a loss that weights every output element differently."""
    gates, parts = (3, 1) if op is T.gru_cell else (4, 2)
    operands = [leaf(rng.normal(size=shape)) for shape in
                ((B, gates * H), (B, parts * H), (H, gates * H), (1, gates * H))]
    keep = (np.arange(B) % 2 == 0).astype(float)[:, None]
    w = T.constant(rng.normal(size=(B, parts * H)))

    def loss(_):
        return T.sum_all(T.mul(T.tanh(op(*operands, keep)), w))

    return operands, keep, loss


class TestFusedCells:
    @pytest.mark.parametrize("op", [T.gru_cell, T.lstm_cell], ids=["gru", "lstm"])
    def test_gradients_with_keep(self, op):
        rng = T.make_rng(31)
        for B, H in ((1, 1), (3, 2), (4, 3)):
            operands, _, loss = _cell_case(rng, op, B, H)
            for target in operands:
                assert T.grad_check(loss, target) < 1e-4

    @pytest.mark.parametrize("op", [T.gru_cell, T.lstm_cell], ids=["gru", "lstm"])
    def test_zero_keep_carries_the_state(self, op):
        operands, keep, _ = _cell_case(T.make_rng(32), op, 4, 3)
        state = operands[1].data
        out = op(*operands, np.zeros_like(keep)).data
        assert np.array_equal(out, state)

    @pytest.mark.parametrize("op", [T.gru_cell, T.lstm_cell], ids=["gru", "lstm"])
    def test_shapes_checked(self, op):
        operands, keep, _ = _cell_case(T.make_rng(33), op, 2, 3)
        with pytest.raises(ShapeError):
            op(operands[0], operands[1], operands[2], T.Tensor(np.zeros((1, 2))))
        with pytest.raises(ShapeError):
            op(*operands, np.ones((3, 1)))


# op, operand shapes, and which operands may be constants: a fused cell's
# weights and input product always need a gradient where it is recorded
CONSTANT_CASES = {
    "add": (T.add, [(3, 4), (3, 4)], (0, 1)),
    "add-bias-row": (T.add, [(3, 4), (1, 4)], (0, 1)),
    "mul": (T.mul, [(3, 4), (3, 4)], (0, 1)),
    "matmul": (T.matmul, [(3, 4), (4, 2)], (0, 1)),
    "matmul-stack": (T.matmul, [(2, 3, 4), (2, 4, 5)], (0, 1)),
    "concat": (lambda *xs: T.concat(xs, axis=0), [(2, 4), (1, 4), (3, 4)], (0, 1, 2)),
    "gru_cell": (T.gru_cell, [(2, 9), (2, 3), (3, 9), (1, 9)], (1,)),
    "lstm_cell": (T.lstm_cell, [(2, 12), (2, 6), (3, 12), (1, 12)], (1,)),
}


class TestConstantInputs:
    """A backward computes no gradient for an input that needs none: it
    returns None there, and the other inputs' gradients keep their bits."""

    @pytest.mark.parametrize("name", list(CONSTANT_CASES))
    def test_a_constant_input_gets_none(self, monkeypatch, name):
        op, shapes, may_be_constant = CONSTANT_CASES[name]
        rng = T.make_rng(41)
        arrays = [rng.normal(size=shape) for shape in shapes]
        given, pass_on = [], T._pass_on

        def spy(grads, inputs, input_grads):
            input_grads = list(input_grads)
            given.extend(ig for spec, ig in zip(inputs, input_grads)
                         if type(spec) is not tuple and not spec.requires_grad)
            return pass_on(grads, inputs, input_grads)

        monkeypatch.setattr(T, "_pass_on", spy)

        def grads(constant):
            xs = [leaf(a, rg=i != constant) for i, a in enumerate(arrays)]
            with T.Tape():
                T.backward(T.sum_all(T.tanh(op(*xs))))
            return [x.grad for x in xs]

        full = grads(None)
        for constant in may_be_constant:
            got = grads(constant)
            assert got[constant] is None
            assert all(g.tobytes() == f.tobytes()
                       for i, (g, f) in enumerate(zip(got, full)) if i != constant)
        assert len(given) == len(may_be_constant)
        assert all(ig is None for ig in given)


class TestSliceGradientBuffer:
    def test_matches_the_dense_reference_when_add_shares_its_gradient(self):
        # add hands one array to both of its inputs. Records made before the
        # add reach those inputs later in the sweep: slice reads of u and v,
        # a dense read of p. Writing into the shared array in place would
        # corrupt the other input's gradient.
        rng = T.make_rng(41)
        xs = [leaf(rng.normal(size=(3, 8))) for _ in range(4)]
        with T.Tape():
            u, v, p, q = (T.tanh(x) for x in xs)
            reads = [T.slice_axis(t, 1, a, b) for t in (u, v) for a, b in ((0, 3), (2, 7), (5, 8))]
            dense = T.tanh(p)
            loss = T.add(T.sum_all(T.tanh(T.add(u, v))), T.sum_all(T.tanh(T.add(p, q))))
            for k, r in enumerate(reads + [dense]):
                loss = T.add(loss, T.sum_all(T.scale(T.mul(r, r), 0.5 + k)))
            reference = dense_backward(loss)
            T.backward(loss)
        for x in xs:
            assert x.grad.tobytes() == reference[id(x)].tobytes()

    def test_many_reads_need_one_buffer(self):
        n, w = 200, 16
        x = leaf(T.make_rng(42).normal(size=(4, n * w)))
        with T.Tape():
            total = None
            for i in range(n):
                r = T.sum_all(T.slice_axis(x, 1, i * w, (i + 1) * w))
                total = r if total is None else T.add(total, r)
            tracemalloc.start()
            try:
                T.backward(total)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.array_equal(x.grad, np.ones_like(x.data))
        # one dense zero array per read, summed out of place, peaks near 3x
        assert peak < 2 * x.data.nbytes

    def test_a_slice_is_a_view_and_reads_of_a_node_fill_one_buffer(self):
        # slice_axis copies nothing, of a leaf or of a recorded tensor; the
        # reads of a recorded tensor, which its record names only by node
        # and shape, still fill one zero buffer that the sweep allocates
        n, w = 200, 16
        x = leaf(T.make_rng(43).normal(size=(4, n * w)))
        arrived = []

        def pass_through(g):
            arrived.append(g)
            return (g,)

        with T.Tape():
            node = T._record(T.Tensor(x.data.copy()), (x,), pass_through)
            for src in (x, node):
                r = T.slice_axis(src, 1, w, 2 * w)
                assert np.shares_memory(r.data, src.data)
                assert np.array_equal(r.data, src.data[:, w:2 * w])
            total = None
            for i in range(n):
                r = T.sum_all(T.slice_axis(node, 1, i * w, (i + 1) * w))
                total = r if total is None else T.add(total, r)
            tracemalloc.start()
            try:
                T.backward(total)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(arrived) == 1 and arrived[0] is x.grad
        assert np.array_equal(x.grad, np.ones_like(x.data))
        assert peak < 2 * x.data.nbytes


class TestRowGradients:
    """take_rows' backward holds the rows it read while it is the leaf's one
    gradient, and the bits are the dense scatter's (helpers.take_rows_scatter),
    however reads combine."""

    @settings(max_examples=80, deadline=None)
    @example(V=30, cols=3, reads=[[3, 3, 7, 29]], where="leaf", seed=4)
    @example(V=30, cols=3, reads=[[3, 3, 7, 29], [7, 1, 3]], where="leaf", seed=1)
    @example(V=30, cols=2, reads=[[3, 3, 7], [7, 1], [0]], where="tapes", seed=2)
    @example(V=30, cols=2, reads=[[3, 3, 7], [7, 1]], where="dense too", seed=3)
    @given(V=st.integers(1, 30), cols=st.integers(1, 4),
           reads=st.lists(st.lists(st.integers(0, 29), max_size=12), min_size=1, max_size=3),
           where=st.sampled_from(["leaf", "tapes", "node", "dense too"]),
           seed=st.integers(0, 2 ** 16))
    def test_matches_the_dense_scatter_to_the_bit(self, V, cols, reads, where, seed):
        # leaf: every read on one tape; tapes: one read per tape, summed in
        # .grad; node: reads of a recorded tensor, each a dense scatter;
        # dense too: a dense read of the leaf besides. Only a leaf's single
        # read of fewer ids than half its rows keeps a RowGrad: a second
        # read, on its tape or another, makes the gradient dense.
        rng = T.make_rng(seed)
        table = leaf(rng.normal(size=(V, cols)))
        reads = [[i % V for i in ids] for ids in reads]
        weights = [rng.normal(size=(len(ids), cols)) for ids in reads]
        for w in weights:  # a -0.0 reaches the scatter as is
            w[rng.random(w.shape) < 0.2] = -0.0
        dense_w = rng.normal(size=(V, cols))

        def term(src, ids, w):
            return T.sum_all(T.mul(T.take_rows(src, ids), T.constant(w)))

        if where == "tapes":
            for ids, w in zip(reads, weights):
                with T.Tape():
                    T.backward(term(table, ids, w))
            order = range(len(reads))
        else:
            with T.Tape():
                src = table
                if where == "node":
                    src = T._record(T.Tensor(table.data.copy()), (table,), lambda g: (g,))
                loss = T.sum_all(T.mul(table, T.constant(dense_w))) if where == "dense too" \
                    else None
                for ids, w in zip(reads, weights):
                    t = term(src, ids, w)
                    loss = t if loss is None else T.add(loss, t)
                T.backward(loss)
            order = range(len(reads) - 1, -1, -1)  # the sweep meets the last read first
        want = None
        for k in order:
            z = take_rows_scatter((V, cols), reads[k], weights[k])
            want = z if want is None else want + z
        if where == "dense too":
            want = want + dense_w
        got = table.grad
        if where in ("leaf", "tapes") and len(reads) == 1 and 2 * len(reads[0]) < V:
            assert type(got) is T.RowGrad
            assert got.rows.tolist() == sorted(set(reads[0]))
            assert got.values.shape == (len(got.rows), cols)
        else:
            assert type(got) is np.ndarray
        assert got.shape == (V, cols)
        assert dense_grad(got).tobytes() == want.tobytes()
        assert T.dense(got).tobytes() == want.tobytes()

    def test_a_recorded_tensor_read_by_rows_gets_a_dense_gradient(self):
        x = leaf(T.make_rng(44).normal(size=(5, 3)))
        arrived = []

        def pass_through(g):
            arrived.append(g)
            return (g,)

        with T.Tape():
            node = T._record(T.Tensor(x.data.copy()), (x,), pass_through)
            T.backward(T.add(T.sum_all(T.take_rows(node, [1, 3, 1])),
                             T.sum_all(T.take_rows(x, [4]))))
        [g] = arrived
        assert type(g) is np.ndarray and g.tolist() == [[0.0] * 3, [2.0] * 3, [0.0] * 3,
                                                        [1.0] * 3, [0.0] * 3]
        want = g.copy()
        want[4] += 1.0
        assert type(x.grad) is np.ndarray and x.grad.tobytes() == want.tobytes()

    def test_grad_check_reads_a_row_gradient(self):
        table = leaf(T.make_rng(45).normal(size=(10, 3)))
        with T.Tape():
            T.backward(T.sum_all(T.take_rows(table, [5, 0, 5])))
        assert type(table.grad) is T.RowGrad
        table.grad = None
        assert T.grad_check(lambda t: T.sum_all(T.tanh(T.take_rows(t, [5, 0, 5]))), table) < 1e-6
        assert table.grad is None


class TestOwnedGradients:
    def test_weight_products_are_summed_in_place_with_the_dense_bits(self):
        # a weight read by n products gets n fresh [k, V] gradients that no
        # other input receives: the second and later ones are added into the
        # first, never into a third array, and the sum keeps the bits of the
        # plain out-of-place sweep
        k, V, n = 64, 512, 6
        rng = T.make_rng(44)
        W = leaf(rng.normal(size=(k, V)))
        xs = [leaf(rng.normal(size=(3, k))) for _ in range(n)]
        with T.Tape():
            total = None
            for x in xs:
                r = T.sum_all(T.tanh(T.matmul(x, W)))
                total = r if total is None else T.add(total, r)
            reference = dense_backward(total)
            tracemalloc.start()
            try:
                T.backward(total)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        for t in [W] + xs:
            assert t.grad.tobytes() == reference[id(t)].tobytes()
        # the running sum and one new product; out of place, a third array
        assert peak < 2.5 * W.data.nbytes
