"""Neural layers and optimization shared by the parser and the translator.

Parameters live in a ``ParamTable`` keyed by hierarchical dotted names
("encoder.fwd.update.W"), which makes checkpoints portable and lets whole
subtrees be frozen by prefix.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor


class ParamTable:
    """Insertion-ordered name -> Tensor map for one model's parameters."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, t: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self):
        return len(self._params)

    def items(self):
        return self._params.items()

    def names(self):
        return list(self._params)

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    def set_trainable(self, prefix: str, flag: bool) -> int:
        """Toggle requires_grad on every parameter under a dotted prefix."""
        n = 0
        for name, t in self._params.items():
            if name == prefix or name.startswith(prefix + "."):
                t.requires_grad = flag
                n += 1
        return n

    def gradients(self) -> dict[str, np.ndarray]:
        """Accumulated gradients of the trainable parameters that received one."""
        return {name: t.grad for name, t in self._params.items()
                if t.requires_grad and t.grad is not None}

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_state(self, state: dict[str, np.ndarray]):
        for name, arr in state.items():
            t = self._params[name]
            if t.data.shape != arr.shape:
                raise ShapeError(f"parameter {name}: checkpoint shape {arr.shape} "
                                 f"!= model shape {t.data.shape}")
            t.data = np.asarray(arr, dtype=t.data.dtype)

    def bytes_of(self, prefix: str) -> bytes:
        """Raw little-endian bytes of all parameters under a prefix (freeze checks)."""
        chunks = []
        for name, t in sorted(self._params.items()):
            if name == prefix or name.startswith(prefix + "."):
                chunks.append(t.data.astype("<f8").tobytes())
        return b"".join(chunks)


def _init(table: ParamTable, name: str, shape, rng, scale: float) -> Tensor:
    return table.add(name, T.init_uniform(shape, -scale, scale, rng=rng))


class GruParams:
    """One GRU cell: update gate z, reset gate r, candidate h̃.

    Convention (the update gate interpolates toward the candidate):
        z = sigmoid(x Wz + h Uz + bz)
        r = sigmoid(x Wr + h Ur + br)
        h̃ = tanh(x Wh + (r * h) Uh + bh)
        h' = (1 - z) * h + z * h̃
    """

    def __init__(self, table: ParamTable, prefix: str, input_dim: int, hidden_dim: int,
                 rng, scale: float = 0.1):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        for gate in ("update", "reset", "cand"):
            _init(table, f"{prefix}.{gate}.W", (input_dim, hidden_dim), rng, scale)
            _init(table, f"{prefix}.{gate}.U", (hidden_dim, hidden_dim), rng, scale)
            _init(table, f"{prefix}.{gate}.b", (1, hidden_dim), rng, scale)
        p = table
        self.Wz, self.Uz, self.bz = p[f"{prefix}.update.W"], p[f"{prefix}.update.U"], p[f"{prefix}.update.b"]
        self.Wr, self.Ur, self.br = p[f"{prefix}.reset.W"], p[f"{prefix}.reset.U"], p[f"{prefix}.reset.b"]
        self.Wh, self.Uh, self.bh = p[f"{prefix}.cand.W"], p[f"{prefix}.cand.U"], p[f"{prefix}.cand.b"]

    def zero_state(self, batch: int):
        return T.zeros((batch, self.hidden_dim))

    def step(self, x: Tensor, h: Tensor):
        if x.shape[1] != self.input_dim or h.shape[1] != self.hidden_dim:
            raise ShapeError(f"gru_step: x {x.shape}, h {h.shape} do not match "
                             f"dims ({self.input_dim}, {self.hidden_dim})")
        z = T.sigmoid(T.add(T.add(T.matmul(x, self.Wz), T.matmul(h, self.Uz)), self.bz))
        r = T.sigmoid(T.add(T.add(T.matmul(x, self.Wr), T.matmul(h, self.Ur)), self.br))
        cand = T.tanh(T.add(T.add(T.matmul(x, self.Wh), T.matmul(T.mul(r, h), self.Uh)), self.bh))
        keep = T.sub(T.constant(np.ones_like(z.data)), z)
        return T.add(T.mul(keep, h), T.mul(z, cand))

    def output(self, state: Tensor) -> Tensor:
        return state

    def carry(self, new, old, keep: Tensor):
        return _masked_carry(new, old, keep)


class LstmParams:
    """One LSTM cell (input, forget, output gates and cell candidate)."""

    GATES = ("input", "forget", "output", "cell")

    def __init__(self, table: ParamTable, prefix: str, input_dim: int, hidden_dim: int,
                 rng, scale: float = 0.1):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.W, self.U, self.b = {}, {}, {}
        for gate in self.GATES:
            self.W[gate] = _init(table, f"{prefix}.{gate}.W", (input_dim, hidden_dim), rng, scale)
            self.U[gate] = _init(table, f"{prefix}.{gate}.U", (hidden_dim, hidden_dim), rng, scale)
            self.b[gate] = _init(table, f"{prefix}.{gate}.b", (1, hidden_dim), rng, scale)

    def zero_state(self, batch: int):
        return (T.zeros((batch, self.hidden_dim)), T.zeros((batch, self.hidden_dim)))

    def _gate(self, name, x, h):
        return T.add(T.add(T.matmul(x, self.W[name]), T.matmul(h, self.U[name])), self.b[name])

    def step(self, x: Tensor, state):
        h, c = state
        if x.shape[1] != self.input_dim or h.shape[1] != self.hidden_dim:
            raise ShapeError(f"lstm_step: x {x.shape}, h {h.shape} do not match "
                             f"dims ({self.input_dim}, {self.hidden_dim})")
        i = T.sigmoid(self._gate("input", x, h))
        f = T.sigmoid(self._gate("forget", x, h))
        o = T.sigmoid(self._gate("output", x, h))
        g = T.tanh(self._gate("cell", x, h))
        c_new = T.add(T.mul(f, c), T.mul(i, g))
        return (T.mul(o, T.tanh(c_new)), c_new)

    def output(self, state) -> Tensor:
        return state[0]

    def carry(self, new, old, keep: Tensor):
        return (_masked_carry(new[0], old[0], keep), _masked_carry(new[1], old[1], keep))


def _masked_carry(new: Tensor, old: Tensor, keep: Tensor) -> Tensor:
    # keep is a constant [B,1] column of 1 (real token) / 0 (padding)
    inv = T.constant(1.0 - keep.data)
    return T.add(T.scale_rows(new, keep), T.scale_rows(old, inv))


def gru_step(x: Tensor, h_prev: Tensor, p: GruParams) -> Tensor:
    return p.step(x, h_prev)


def lstm_step(x: Tensor, state, p: LstmParams):
    return p.step(x, state)


def birnn_encode(inputs, fwd, bwd, mask: np.ndarray | None = None):
    """Bidirectional recurrent encoding: output i is fwd-state i ⊕ bwd-state i.

    inputs: list over positions of [batch, dim] tensors.  mask, when given,
    is a [batch, n] 0/1 array; masked steps carry the previous state through
    so that right-padded batches encode each sentence as if unpadded.
    """
    inputs = list(inputs)
    n = len(inputs)
    if n == 0:
        raise ValueError("birnn_encode: empty input sequence")
    batch = inputs[0].shape[0]
    cols = None
    if mask is not None:
        cols = [T.constant(mask[:, i:i + 1]) for i in range(n)]

    def run(cell, order):
        state = cell.zero_state(batch)
        outs = [None] * n
        for i in order:
            new = cell.step(inputs[i], state)
            state = cell.carry(new, state, cols[i]) if cols is not None else new
            outs[i] = cell.output(state)
        return outs

    f = run(fwd, range(n))
    b = run(bwd, range(n - 1, -1, -1))
    return [T.concat([f[i], b[i]], axis=1) for i in range(n)]


def linear(x: Tensor, W: Tensor, b: Tensor | None = None) -> Tensor:
    out = T.matmul(x, W)
    return T.add(out, b) if b is not None else out


def dropout(x: Tensor, ratio: float, mode: str, rng=None, seed=None) -> Tensor:
    """Inverted dropout: train mode zeroes each element with probability ratio
    and scales survivors by 1/(1-ratio); eval mode is exactly the identity."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"dropout ratio must be in [0, 1), got {ratio}")
    if mode not in ("train", "eval"):
        raise ValueError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or ratio == 0.0:
        return x
    if rng is None:
        rng = T.make_rng(0 if seed is None else int(seed))
    keep = (rng.random(x.data.shape) >= ratio) / (1.0 - ratio)
    return T.mul(x, T.constant(keep))


def clip_gradients(grads: dict[str, np.ndarray], threshold: float) -> dict[str, np.ndarray]:
    """Scale all gradients by threshold/norm when the global L2 norm exceeds it."""
    if threshold <= 0:
        raise ValueError("clip threshold must be positive")
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm > threshold:
        factor = threshold / norm
        for name in grads:
            grads[name] = grads[name] * factor
    return grads


class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adam_step(params, grads: dict[str, np.ndarray], state: AdamState, lr: float):
    """One bias-corrected Adam update, in place on the parameter tensors."""
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for name, g in grads.items():
        p = params[name]
        if p.data.shape != g.shape:
            raise ShapeError(f"adam_step: gradient shape {g.shape} != parameter "
                             f"shape {p.data.shape} for {name}")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros_like(p.data)
        m += (1.0 - b1) * (g - m)
        v += (1.0 - b2) * (g * g - v)
        p.data = p.data - lr * (m / c1) / (np.sqrt(v / c2) + state.epsilon)
    return params, state


class Adam:
    """Convenience wrapper: collect grads from a table, clip, update, zero."""

    def __init__(self, table: ParamTable, lr: float, clip: float | None = None,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.table = table
        self.lr = lr
        self.clip = clip
        self.state = AdamState(beta1, beta2, epsilon)

    def step(self):
        grads = self.table.gradients()
        if self.clip is not None:
            clip_gradients(grads, self.clip)
        adam_step(self.table, grads, self.state, self.lr)
        self.table.zero_grad()
