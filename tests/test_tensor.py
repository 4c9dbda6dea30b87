"""Tensor core: primitives, tape semantics, gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synmt import tensor as T
from synmt.errors import ShapeError


def leaf(data, rg=True):
    return T.Tensor(data, requires_grad=rg)


class TestInitUniform:
    def test_range_and_reproducibility(self):
        a = T.init_uniform([2, 2], -0.1, 0.1, seed=7)
        b = T.init_uniform([2, 2], -0.1, 0.1, seed=7)
        assert a.data.shape == (2, 2)
        assert np.all(a.data >= -0.1) and np.all(a.data < 0.1)
        assert np.array_equal(a.data, b.data)  # bitwise

    def test_degenerate_range(self):
        t = T.init_uniform([4], 0.0, 1e-12, seed=1)
        assert np.all(np.abs(t.data) <= 1e-12)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            T.init_uniform([], -1, 1, seed=0)
        with pytest.raises(ValueError):
            T.init_uniform([2], 1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            T.init_uniform([2], 2.0, -2.0, seed=0)


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


class TestElementwise:
    def test_fixed_points(self):
        assert T.sigmoid(T.Tensor([0.0])).data[0] == 0.5
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
        out = T.sigmoid(T.Tensor([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(0.0, abs=1e-12)
        assert out.data[1] == pytest.approx(1.0, abs=1e-12)


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
        assert np.allclose(T.log_softmax(x, axis=1).data,
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
            loss = T.sum_all(T.mul(back_a, back_a)) + T.sum_all(T.mul(back_b, back_b))
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

    def test_accumulation_without_reset(self):
        x = leaf(np.ones(4))
        with T.Tape():
            loss = T.sum_all(x)
            T.backward(loss)
            T.backward(loss)
        assert np.array_equal(x.grad, 2 * np.ones(4))

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
        err = T.grad_check(lambda t: T.sum_all(T.sigmoid(t)), x, eps=1e-5)
        assert err < 1e-4

    def test_linear_is_exact(self):
        x = leaf(T.make_rng(12).normal(size=(5,)))
        assert T.grad_check(lambda t: T.sum_all(t), x) < 1e-9


def _random_case(rng):
    m, n, k = rng.integers(1, 4, size=3)
    return int(m), int(n), int(k)


PRIMITIVE_CASES = {
    "add": lambda x, y: T.add(x, y),
    "sub": lambda x, y: T.sub(x, y),
    "mul": lambda x, y: T.mul(x, y),
    "sigmoid": lambda x, y: T.sigmoid(x),
    "tanh": lambda x, y: T.tanh(x),
    "exp": lambda x, y: T.exp(x),
    "matmul": lambda x, y: T.matmul(x, T.transpose(y)),
    "softmax": lambda x, y: T.mul(T.softmax(x, axis=1), y),
    "log_softmax": lambda x, y: T.mul(T.log_softmax(x, axis=1), y),
    "concat": lambda x, y: T.concat([x, y], axis=1),
    "slice": lambda x, y: T.slice_axis(x, 1, 0, x.shape[1] // 2 + 1),
    "transpose": lambda x, y: T.transpose(x),
    "scale": lambda x, y: T.scale(x, -1.7),
    "sum_axis": lambda x, y: T.sum_axis(x, 1),
    "scale_rows": lambda x, y: T.scale_rows(x, T.sum_axis(y, 1)),
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


def test_pick_and_take_rows_gradients():
    rng = T.make_rng(99)
    for _ in range(50):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        ids = rng.integers(0, n, size=m)
        x = leaf(rng.normal(size=(m, n)))
        assert T.grad_check(lambda t: T.sum_all(T.exp(T.pick(t, ids))), x) < 1e-4
        rows = rng.integers(0, m, size=2 * m)  # repeats exercise scatter-add
        tab = leaf(rng.normal(size=(m, n)))
        assert T.grad_check(lambda t: T.sum_all(T.tanh(T.take_rows(t, rows))), tab) < 1e-4
    with pytest.raises(ValueError):
        T.pick(T.Tensor(np.zeros((2, 3))), [0, 5])
    with pytest.raises(ValueError):
        T.take_rows(T.Tensor(np.zeros((2, 3))), [4])
