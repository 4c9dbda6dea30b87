"""Dense tensors with reverse-mode automatic differentiation.

Forward ops are recorded onto the innermost active ``Tape`` whenever some
input requires a gradient; with no active tape, ops run forward-only (the
decoding paths rely on this to stay allocation-free).  Training code opens a
fresh tape per step::

    with Tape() as tape:
        loss = ...
        backward(loss)

All randomness in the package flows through numpy's PCG64 generator via
``make_rng`` so that every run is reproducible from explicit seeds.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

DEFAULT_DTYPE = np.float64


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic 64-bit generator (PCG64) used for all sampling."""
    return np.random.Generator(np.random.PCG64(seed))


class Tape:
    """Ordered record of primitive ops, oldest first (a Wengert list).

    Every record's inputs were produced by earlier records or are leaves, so
    a single reverse sweep propagates gradients correctly.
    """

    _stack: list["Tape"] = []

    def __init__(self):
        self.records = []  # (out, inputs, backward_fn)

    def __enter__(self) -> "Tape":
        Tape._stack.append(self)
        return self

    def __exit__(self, *exc):
        Tape._stack.pop()
        return False

    @staticmethod
    def active() -> "Tape | None":
        return Tape._stack[-1] if Tape._stack else None

    def __len__(self):
        return len(self.records)


class Tensor:
    """A dense array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "requires_grad", "grad", "tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
        self.requires_grad = requires_grad
        self.grad = None  # ndarray of self.shape once backward has run
        self.tape = None  # tape that recorded the op producing this tensor

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    # operator sugar; scalars on the right only
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def constant(data, dtype=None) -> Tensor:
    """Leaf tensor that never takes gradients (masks, cached features...)."""
    return Tensor(data, requires_grad=False, dtype=dtype)


def zeros(shape, dtype=None) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=False, dtype=dtype)


def init_uniform(shape, low: float, high: float, seed=None, rng=None, requires_grad=True,
                 dtype=None) -> Tensor:
    """Uniform [low, high) leaf tensor; same seed and shape give bitwise-equal data.

    Pass either a seed or an already-split Generator.
    """
    shape = tuple(int(s) for s in (shape if hasattr(shape, "__len__") else [shape]))
    if len(shape) == 0 or any(s <= 0 for s in shape):
        raise ValueError(f"init_uniform needs a non-empty positive shape, got {shape}")
    if not low < high:
        raise ValueError(f"init_uniform needs low < high, got [{low}, {high})")
    if rng is None:
        rng = make_rng(0 if seed is None else int(seed))
    data = rng.uniform(low, high, size=shape)
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def _record(out: Tensor, inputs, backward_fn) -> Tensor:
    tape = Tape.active()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.tape = tape
        tape.records.append((out, tuple(inputs), backward_fn))
    return out


def backward(loss: Tensor):
    """Accumulate gradients of a scalar loss into every reachable tensor's .grad.

    Calling twice without zeroing grads accumulates, matching plain summation
    of the two backward passes.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    tape = loss.tape
    if tape is None:
        raise ValueError("loss was not recorded on any tape; wrap the forward pass in `with Tape():`")
    grads = {id(loss): np.ones_like(loss.data)}
    holders = {id(loss): loss}
    for out, inputs, backward_fn in reversed(tape.records):
        g = grads.get(id(out))
        if g is None:
            continue  # not on a path to the loss
        for t, ig in zip(inputs, backward_fn(g)):
            if ig is None or not t.requires_grad:
                continue
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + ig
            else:
                grads[key] = ig
                holders[key] = t
    for key, g in grads.items():
        t = holders[key]
        if t.requires_grad:
            t.grad = g if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# primitives

def _binary_shapes(a: Tensor, b: Tensor, opname: str):
    """Equal shapes, or a [1,n] bias row against an [m,n] matrix (either side)."""
    if a.data.shape == b.data.shape:
        return None  # no reduction needed
    sa, sb = a.data.shape, b.data.shape
    if len(sa) == 2 and len(sb) == 2 and sa[1] == sb[1]:
        if sb[0] == 1:
            return "b"  # reduce gradient of b over rows
        if sa[0] == 1:
            return "a"
    raise ShapeError(f"{opname}: shapes {sa} and {sb} are not broadcastable "
                     "(only a [1,n] bias row against [m,n] is allowed)")


def _reduce_rows(g, which, side):
    if which == side:
        return g.sum(axis=0, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    which = _binary_shapes(a, b, "add")
    out = Tensor(a.data + b.data)

    def bwd(g):
        return _reduce_rows(g, which, "a"), _reduce_rows(g, which, "b")

    return _record(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    which = _binary_shapes(a, b, "sub")
    out = Tensor(a.data - b.data)

    def bwd(g):
        return _reduce_rows(g, which, "a"), _reduce_rows(-g, which, "b")

    return _record(out, (a, b), bwd)


def add_many(parts) -> Tensor:
    """Sum of equally shaped tensors in one node; gradient fans out unchanged."""
    parts = list(parts)
    if not parts:
        raise ValueError("add_many needs at least one tensor")
    shape = parts[0].data.shape
    for p in parts[1:]:
        if p.data.shape != shape:
            raise ShapeError(f"add_many: shape {p.data.shape} disagrees with {shape}")
    acc = parts[0].data.copy()
    for p in parts[1:]:
        acc += p.data
    out = Tensor(acc)

    def bwd(g):
        return tuple(g for _ in parts)

    return _record(out, tuple(parts), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    which = _binary_shapes(a, b, "mul")
    ad, bd = a.data, b.data
    out = Tensor(ad * bd)

    def bwd(g):
        return _reduce_rows(g * bd, which, "a"), _reduce_rows(g * ad, which, "b")

    return _record(out, (a, b), bwd)


def sigmoid(x: Tensor) -> Tensor:
    xd = x.data
    y = np.empty_like(xd)
    pos = xd >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    y[~pos] = ex / (1.0 + ex)
    out = Tensor(y)

    def bwd(g):
        return (g * y * (1.0 - y),)

    return _record(out, (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y)

    def bwd(g):
        return (g * (1.0 - y * y),)

    return _record(out, (x,), bwd)


def exp(x: Tensor) -> Tensor:
    y = np.exp(x.data)
    out = Tensor(y)

    def bwd(g):
        return (g * y,)

    return _record(out, (x,), bwd)


def log(x: Tensor) -> Tensor:
    xd = x.data
    out = Tensor(np.log(xd))

    def bwd(g):
        return (g / xd,)

    return _record(out, (x,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul: {ad.shape} x {bd.shape} do not conform")
    out = Tensor(ad @ bd)

    def bwd(g):
        return g @ bd.T, ad.T @ g

    return _record(out, (a, b), bwd)


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {x.data.shape}")
    out = Tensor(x.data.T.copy())

    def bwd(g):
        return (g.T,)

    return _record(out, (x,), bwd)


def _softmax_data(xd, axis):
    z = xd - xd.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along one axis; rows sum to 1 for any finite input."""
    if axis >= x.data.ndim:
        raise ShapeError(f"softmax axis {axis} out of range for shape {x.data.shape}")
    y = _softmax_data(x.data, axis)
    out = Tensor(y)

    def bwd(g):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return _record(out, (x,), bwd)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    if axis >= x.data.ndim:
        raise ShapeError(f"log_softmax axis {axis} out of range for shape {x.data.shape}")
    xd = x.data
    m = xd.max(axis=axis, keepdims=True)
    z = xd - m
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = Tensor(z - lse)
    sm = np.exp(z - lse)

    def bwd(g):
        return (g - sm * g.sum(axis=axis, keepdims=True),)

    return _record(out, (x,), bwd)


def concat(parts, axis: int = 0) -> Tensor:
    """Concatenate along one axis; the gradient splits back exactly."""
    parts = list(parts)
    if not parts:
        raise ValueError("concat needs at least one part")
    first = parts[0].data.shape
    for p in parts[1:]:
        s = p.data.shape
        if len(s) != len(first) or any(s[d] != first[d] for d in range(len(s)) if d != axis):
            raise ShapeError(f"concat: shape {s} disagrees with {first} off axis {axis}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        sl = [slice(None)] * g.ndim
        grads = []
        for i in range(len(sizes)):
            sl[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(sl)])
        return grads

    return _record(out, tuple(parts), bwd)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, stop)
    out = Tensor(x.data[tuple(sl)].copy())

    def bwd(g):
        z = np.zeros_like(x.data)
        z[tuple(sl)] = g
        return (z,)

    return _record(out, (x,), bwd)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.array([[x.data.sum()]]))

    def bwd(g):
        return (np.full_like(x.data, float(g.reshape(-1)[0])),)

    return _record(out, (x,), bwd)


def sum_axis(x: Tensor, axis: int) -> Tensor:
    """Sum along one axis, keeping it as size 1."""
    out = Tensor(x.data.sum(axis=axis, keepdims=True))

    def bwd(g):
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return _record(out, (x,), bwd)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(x.data * c)

    def bwd(g):
        return (g * c,)

    return _record(out, (x,), bwd)


def scale_rows(x: Tensor, s: Tensor) -> Tensor:
    """Multiply row i of x [m,n] by scalar s[i] from s [m,1]."""
    xd, sd = x.data, s.data
    if xd.ndim != 2 or sd.shape != (xd.shape[0], 1):
        raise ShapeError(f"scale_rows: x {xd.shape} needs s of shape ({xd.shape[0]}, 1), got {sd.shape}")
    out = Tensor(xd * sd)

    def bwd(g):
        return g * sd, (g * xd).sum(axis=1, keepdims=True)

    return _record(out, (x, s), bwd)


def pick(x: Tensor, ids) -> Tensor:
    """Select one column per row: out[i, 0] = x[i, ids[i]]."""
    ids = np.asarray(ids, dtype=np.int64)
    xd = x.data
    if xd.ndim != 2 or ids.shape != (xd.shape[0],):
        raise ShapeError(f"pick: x {xd.shape} needs one id per row, got ids {ids.shape}")
    if ids.min(initial=0) < 0 or (xd.shape[0] and ids.max() >= xd.shape[1]):
        raise ValueError("pick: id out of range")
    rows = np.arange(xd.shape[0])
    out = Tensor(xd[rows, ids][:, None])

    def bwd(g):
        z = np.zeros_like(xd)
        z[rows, ids] = g[:, 0]
        return (z,)

    return _record(out, (x,), bwd)


def take_rows(table: Tensor, ids) -> Tensor:
    """Gather rows of a matrix (embedding lookup); backward scatter-adds."""
    ids = np.asarray(ids, dtype=np.int64)
    td = table.data
    if td.ndim != 2 or ids.ndim != 1:
        raise ShapeError(f"take_rows: table {td.shape}, ids {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= td.shape[0]):
        raise ValueError("take_rows: row id out of range")
    out = Tensor(td[ids])

    def bwd(g):
        z = np.zeros_like(td)
        np.add.at(z, ids, g)
        return (z,)

    return _record(out, (table,), bwd)


def grad_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between backward() and central finite differences.

    ``f`` must map x to a scalar Tensor deterministically.  The numeric side
    perturbs x.data in place, two evaluations per element, so keep x small.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    saved_grad = x.grad
    x.grad = None
    if not x.requires_grad:
        raise ValueError("grad_check needs x.requires_grad")
    with Tape():
        y = f(x)
        if y.data.size != 1:
            raise ValueError("grad_check needs a scalar-valued f")
        backward(y)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    x.grad = saved_grad

    flat = x.data.reshape(-1)
    numeric = np.zeros_like(analytic).reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        up = f(x).item()
        flat[i] = keep - eps
        down = f(x).item()
        flat[i] = keep
        numeric[i] = (up - down) / (2.0 * eps)
    numeric = numeric.reshape(x.data.shape)
    # the 1e-6 floor keeps finite-difference noise on near-zero entries from
    # registering; a genuinely wrong formula still scores near 1
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))
