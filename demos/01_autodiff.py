"""
Reverse-mode autodiff on plain numpy arrays
============================================

Everything in this toolkit trains through one small tape-based autodiff
engine. This script builds a computation by hand, inspects the gradients,
validates them against finite differences, and then fits a least-squares
model with the bundled Adam optimizer.

Run it from the repository root:

    python3 demos/01_autodiff.py
"""

import numpy as np

from synmt import nn
from synmt import tensor as T

# A Tensor wraps a float64 numpy array. Nothing is recorded unless a Tape
# is active, and even then only tensors with requires_grad=True that no op on
# the tape produced (here w, not y) accumulate gradients when backward() runs.
w = T.Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
x = T.constant([[2.0, 1.0]])

with T.Tape() as tape:
    y = T.tanh(T.matmul(x, w))
    loss = T.sum_all(T.mul(y, y))
    recorded = len(tape)  # backward frees each record as it runs it
    T.backward(loss)

print("loss        ", round(loss.item(), 6))
print("dloss/dw")
print(w.grad)
print("ops recorded", recorded)

# Outside a tape the exact same ops run forward-only. No graph, no buffers.
# Frozen submodules rely on this: evaluation costs nothing extra.
w.grad = None
_ = T.tanh(T.matmul(x, w))
print("untaped forward leaves the gradient empty:", w.grad is None)

# grad_check perturbs every element of a tensor twice (central differences)
# and returns the worst relative error against backward(). The function under
# test has to be deterministic, so it must draw no dropout mask.
# Parameters are drawn through nn.uniform_init: U[-scale, scale), off one
# generator in call order.
probe = T.Tensor(nn.uniform_init(T.make_rng(7), 1.0)((3, 4)), requires_grad=True)


def bilinear_mix(t):
    h = T.tanh(t)
    return T.sum_all(T.mul(h, T.tanh(T.scale(t, 0.5))))


err = T.grad_check(bilinear_mix, probe)
print(f"grad_check worst relative error: {err:.2e}")

# The same machinery trains real models. Here is ordinary least squares:
# recover a 3-vector from 64 noisy observations.
rng = T.make_rng(0)
X = rng.normal(size=(64, 3))
true_w = np.array([[1.5], [-2.0], [0.25]])
y_obs = X @ true_w + 0.01 * rng.normal(size=(64, 1))

# Parameters live in a ParamTable so the optimizer can find them by name.
table = nn.ParamTable()
init = nn.uniform_init(T.make_rng(1), 0.1)
w_hat = table.new("w", (3, 1), init)
b_hat = table.new("b", (1, 1), init)
opt = nn.Adam(table, lr=0.05)

Xt, yt = T.constant(X), T.constant(y_obs)
for step in range(201):
    with T.Tape():
        pred = nn.linear(Xt, w_hat, b_hat)
        diff = T.add(pred, T.scale(yt, -1.0))
        mse = T.scale(T.sum_all(T.mul(diff, diff)), 1.0 / len(X))
        T.backward(mse)
    opt.step()  # collects grads from the table, clips, updates, zeroes
    if step % 50 == 0:
        print(f"step {step:3d}  mse {mse.item():.6f}")

print("recovered weights:", np.round(w_hat.data.ravel(), 3))
print("true weights:     ", true_w.ravel())
