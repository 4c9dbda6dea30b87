"""Dense tensors with reverse-mode automatic differentiation.

Forward ops are recorded onto the innermost active ``Tape`` whenever some
input requires a gradient; with no active tape, ops run forward-only and
record nothing (the decoding paths run this way).  Every array is float64.
Training code opens a fresh tape per step and calls ``backward`` inside the
block, once: the sweep frees each record as it runs it, and leaving the block
drops whatever the sweep did not reach::

    with Tape() as tape:
        loss = ...
        backward(loss)

A record keeps node ids for the tensors its tape produced and the tensors
themselves only for leaves, so an op's arrays live while its backward needs
them (or the caller holds them), not until the sweep. ``slice_axis`` returns
a view of its input's array. A leaf whose one gradient on its tape is a
``take_rows`` read of fewer ids than half its rows (a wide embedding table)
gets a ``RowGrad``, which holds the rows read and no others.

All randomness in the package flows through numpy's PCG64 generator via
``make_rng`` so that every run is reproducible from explicit seeds.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic 64-bit generator (PCG64) used for all sampling."""
    return np.random.Generator(np.random.PCG64(seed))


class Tape:
    """Ordered record of primitive ops, oldest first (a Wengert list).

    Every record's inputs were produced by earlier records or are leaves, so
    a single reverse sweep propagates gradients correctly.

    A record is (out node, input specs, backward_fn). Each recorded output
    gets the next node id; an input this tape produced is specified as
    (node, shape), any other (a parameter, a constant, a tensor of an earlier
    tape) as the Tensor itself. Records hold no output and no intermediate
    Tensor, so a tensor's array lives only while the caller or a backward
    closure holds it. ``backward`` pops each record as it runs it, and
    leaving the block clears the rest. A tape is closed to further
    ``backward`` calls once swept or left.
    """

    _stack: list["Tape"] = []

    def __init__(self):
        self.records = []  # (out node, input specs, backward_fn)
        self.next_node = 0
        self.closed = False

    def __enter__(self) -> "Tape":
        Tape._stack.append(self)
        return self

    def __exit__(self, *exc):
        Tape._stack.pop()
        self.records.clear()
        self.closed = True
        return False

    @staticmethod
    def active() -> "Tape | None":
        return Tape._stack[-1] if Tape._stack else None

    def __len__(self):
        return len(self.records)


class Tensor:
    """A dense float64 array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "requires_grad", "grad", "tape", "node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None  # ndarray or RowGrad of self.shape once backward has run
        self.tape = None  # tape that recorded the op producing this tensor
        self.node = None  # this tensor's node id on that tape

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


def constant(data) -> Tensor:
    """Leaf tensor that never takes gradients (masks, cached features...)."""
    return Tensor(data, requires_grad=False)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=False)


def _record(out: Tensor, inputs, backward_fn) -> Tensor:
    tape = Tape.active()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.tape = tape
        out.node = tape.next_node
        tape.next_node += 1
        specs = tuple((t.node, t.data.shape) if t.tape is tape else t for t in inputs)
        tape.records.append((out.node, specs, backward_fn))
    return out


class SliceGrad:
    """Gradient of a read of one slice (``slice_axis``): zero outside index.

    ``backward`` writes it into one zero buffer per input that it allocated
    itself, so n reads of an input cost one buffer, not n dense arrays.
    """

    __slots__ = ("index", "value")

    def __init__(self, index, value):
        self.index = index
        self.value = value


class RowGrad:
    """Gradient of a matrix that is zero outside some rows: rows (sorted,
    unique int64), values [len(rows), cols] holding those rows in order, and
    the matrix's shape.

    ``take_rows``' backward returns one for a leaf read with few ids (a
    wide embedding table). It stays the leaf's gradient only while it is
    the leaf's one gradient on the tape: ``backward`` writes it into a dense
    buffer once another gradient of the leaf arrives. Every stored value is
    a sum that starts from +0.0, so never -0.0: adding a zero leaves it as
    it is, and the dense sum keeps the bits of a row-wise one.
    """

    __slots__ = ("rows", "values", "shape")

    def __init__(self, rows, values, shape):
        self.rows = rows
        self.values = values
        self.shape = tuple(shape)


def dense(g) -> np.ndarray:
    """A gradient as an ndarray: an ndarray as it is, a RowGrad scattered
    into zeros of its shape."""
    if type(g) is not RowGrad:
        return g
    out = np.zeros(g.shape)
    out[g.rows] = g.values
    return out


class Owned:
    """An input gradient that its backward allocated for that input alone
    (a product, say) and keeps no other reference to: ``backward`` may add
    later contributions into it in place."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def backward(loss: Tensor):
    """Accumulate gradients of a scalar loss into .grad of the tape's leaves.

    Gradients are summed per node of the loss's tape and per leaf (a tensor
    no record on that tape produced); only leaves get .grad, and each node's
    gradient is dropped once passed on to its op's inputs. The sweep pops
    each record before it runs it, so the op's closure and the arrays it
    saved are freed once its gradient has reached its inputs (unless the
    caller still holds them). A tape is swept once: a second call on it
    raises ValueError. Gradients of two losses add up in .grad when each is
    swept on its own tape without zeroing in between.

    Sums are taken in place only in arrays this function allocated or that
    an op handed over as ``Owned``: an op may hand one gradient array to
    several inputs (``add`` does), so any other array an op returned is
    never written to.

    A leaf whose one gradient on the tape is a ``take_rows`` RowGrad, and
    whose .grad was None, gets that RowGrad; any other gradient, a sum into
    an earlier .grad included, is an ndarray of its tensor's shape.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    tape = loss.tape
    if tape is None:
        raise ValueError("loss was not recorded on any tape; wrap the forward pass in `with Tape():`")
    if tape.closed:
        raise ValueError("the loss's tape was already swept by backward, or closed when its "
                         "`with Tape():` block ended; record a new forward pass")
    tape.closed = True
    records = tape.records
    grads = {loss.node: [np.ones_like(loss.data), True]}  # node or leaf -> [gradient, owned]
    while records:
        node, inputs, backward_fn = records.pop()
        entry = grads.pop(node, None)
        if entry is not None:  # else not on a path to the loss
            _pass_on(grads, inputs, backward_fn(entry[0]))
    for t, (g, _) in grads.items():  # every node's entry was popped: leaves only
        t.grad = g if t.grad is None else dense(t.grad) + dense(g)


def _pass_on(grads, inputs, input_grads):
    """Add one record's input gradients into grads (node id, or the leaf
    Tensor itself, -> [gradient, owned]); a helper, so that none of them
    outlives the record's turn."""
    for spec, ig in zip(inputs, input_grads):
        if ig is None:
            continue
        if type(spec) is tuple:
            key, shape = spec
        elif spec.requires_grad:
            key, shape = spec, spec.data.shape
        else:
            continue
        owned = type(ig) is Owned
        if owned:
            ig = ig.value
        prev = grads.get(key)
        kind = type(ig)
        if kind is RowGrad and prev is None:  # the leaf's one gradient so far
            grads[key] = [ig, False]
            continue
        if prev is not None and type(prev[0]) is RowGrad:  # a later one arrives
            prev[:] = [dense(prev[0]), True]
        if kind is SliceGrad or kind is RowGrad:  # written into one buffer
            if prev is None:
                prev = grads[key] = [np.zeros(shape), True]
            elif not prev[1]:
                prev[:] = [prev[0].copy(), True]
            if kind is SliceGrad:
                prev[0][ig.index] += ig.value
            else:
                prev[0][ig.rows] += ig.values
        elif prev is None:
            grads[key] = [ig, owned]
        elif prev[1]:
            prev[0] += ig
        elif owned:
            ig += prev[0]
            prev[:] = [ig, True]
        else:
            prev[:] = [prev[0] + ig, True]


# ---------------------------------------------------------------------------
# primitives

def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for equal shapes, or for an [m,n] matrix a and a [1,n] bias row b."""
    sa, sb = a.data.shape, b.data.shape
    row = sa != sb
    if row and not (len(sa) == 2 and sb == (1, sa[1])):
        raise ShapeError(f"add: shapes {sa} and {sb} are not broadcastable "
                         "(only an [m,n] matrix plus a [1,n] bias row is allowed)")
    out = Tensor(a.data + b.data)
    need_a, need_b = a.requires_grad, b.requires_grad  # a constant gets None

    def bwd(g):
        return (g if need_a else None,
                (g.sum(axis=0, keepdims=True) if row else g) if need_b else None)

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a * b of two equal shapes."""
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise ShapeError(f"mul: shapes {ad.shape} and {bd.shape} differ")
    out = Tensor(ad * bd)
    need_a, need_b = a.requires_grad, b.requires_grad  # a constant gets None

    def bwd(g):
        return (g * bd if need_a else None, g * ad if need_b else None)

    return _record(out, (a, b), bwd)


def _sigmoid_data(xd):
    # stable on both sides: exp only ever sees -|x| <= 0, written as
    # min(x, -x) so that a NaN keeps its sign
    e = np.exp(np.minimum(xd, -xd))
    return np.where(xd >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y)

    def bwd(g):
        return (g * (1.0 - y * y),)

    return _record(out, (x,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; stacks [B, m, k] x [B, k, n] need equal B (no broadcasting)."""
    ad, bd = a.data, b.data
    if ad.ndim != bd.ndim or ad.ndim not in (2, 3) or ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul: {ad.shape} x {bd.shape} do not conform")
    if ad.ndim == 3 and ad.shape[0] != bd.shape[0]:
        raise ShapeError(f"matmul: batch axes {ad.shape[0]} and {bd.shape[0]} differ")
    out = Tensor(ad @ bd)
    need_a, need_b = a.requires_grad, b.requires_grad  # a constant gets None

    def bwd(g):
        return (Owned(g @ bd.swapaxes(-1, -2)) if need_a else None,
                Owned(ad.swapaxes(-1, -2) @ g) if need_b else None)

    return _record(out, (a, b), bwd)


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes of a matrix or of a stack of matrices."""
    if x.data.ndim not in (2, 3):
        raise ShapeError(f"transpose expects a matrix or a stack, got {x.data.shape}")
    out = Tensor(x.data.swapaxes(-1, -2).copy())

    def bwd(g):
        return (g.swapaxes(-1, -2),)

    return _record(out, (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    """Same elements in row-major order under a new shape."""
    shape, in_shape = tuple(shape), x.data.shape
    if math.prod(shape) != x.data.size:
        raise ShapeError(f"reshape: cannot view {in_shape} as {shape}")
    out = Tensor(x.data.reshape(shape))

    def bwd(g):
        return (g.reshape(in_shape),)

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
    needs = [p.requires_grad for p in parts]  # a constant part gets None

    def bwd(g):
        sl = [slice(None)] * g.ndim
        grads = []
        for i, need in enumerate(needs):
            sl[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(sl)] if need else None)
        return grads

    return _record(out, tuple(parts), bwd)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)
    out = Tensor(x.data[sl])  # a view: x's array lives while out's does

    def bwd(g):
        return (SliceGrad(sl, g),)

    return _record(out, (x,), bwd)


def sum_all(x: Tensor) -> Tensor:
    shape = x.data.shape
    out = Tensor(np.array([[x.data.sum()]]))

    def bwd(g):
        return (np.full(shape, float(g.reshape(-1)[0])),)

    return _record(out, (x,), bwd)


def sum_axis(x: Tensor, axis: int) -> Tensor:
    """Sum along one axis, keeping it as size 1."""
    shape = x.data.shape
    out = Tensor(x.data.sum(axis=axis, keepdims=True))

    def bwd(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _record(out, (x,), bwd)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(x.data * c)

    def bwd(g):
        return (g * c,)

    return _record(out, (x,), bwd)


def take_rows(table: Tensor, ids) -> Tensor:
    """Gather rows of a matrix (embedding lookup); backward scatter-adds,
    each row's terms in the order of ids.

    A leaf read with fewer ids than half its rows (a wide embedding table)
    gets a RowGrad of the rows read, which backward keeps while it is the
    leaf's one gradient on the tape. Any other read gets a dense array: a
    tensor the active tape recorded has a dense gradient anyway, and a read
    that may cover half the table saves little by rows and costs a sort.
    """
    ids = np.asarray(ids, dtype=np.int64)
    td = table.data
    if td.ndim != 2 or ids.ndim != 1:
        raise ShapeError(f"take_rows: table {td.shape}, ids {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= td.shape[0]):
        raise ValueError("take_rows: row id out of range")
    out = Tensor(td[ids])
    shape = td.shape
    # a leaf (as _record tells leaves apart) read with few ids
    by_rows = table.tape is not Tape.active() and 2 * ids.size < shape[0]

    def bwd(g):
        if not by_rows:
            z = np.zeros(shape)
            np.add.at(z, ids, g)
            return (Owned(z),)
        rows, inverse = np.unique(ids, return_inverse=True)
        values = np.zeros((len(rows), shape[1]))
        np.add.at(values, inverse, g)
        return (RowGrad(rows, values, shape),)

    return _record(out, (table,), bwd)


def nll(x: Tensor, ids) -> Tensor:
    """Log-likelihood of one id per row under a row softmax, in one record.

    The [m, 1] column equals the unfused pick(log_softmax(x, axis=1), ids) of
    tests/helpers.py to the bit; its negated sum is the negative
    log-likelihood. Only the softmax is kept for backward, which writes
    -softmax * g once and adds g at the picked ids.
    """
    ids = np.asarray(ids, dtype=np.int64)
    xd = x.data
    if xd.ndim != 2 or ids.shape != (xd.shape[0],):
        raise ShapeError(f"nll: x {xd.shape} needs one id per row, got ids {ids.shape}")
    if ids.min(initial=0) < 0 or (xd.shape[0] and ids.max() >= xd.shape[1]):
        raise ValueError("nll: id out of range")
    rows = np.arange(xd.shape[0])
    z = xd - xd.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    out = Tensor((z[rows, ids] - lse[:, 0])[:, None])
    sm = np.exp(np.subtract(z, lse, out=z), out=z)

    def bwd(g):
        gx = sm * -g
        gx[rows, ids] += g[:, 0]
        return (gx,)

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# fused recurrent cells: one record per step, gates side by side


def _cell_shapes(name, xw, state, U, b, gates, parts):
    """Hidden width H of a cell step, after checking every operand's shape."""
    B, S = state.data.shape
    H = S // parts
    G = gates * H
    if (S != parts * H or xw.data.shape != (B, G) or U.data.shape != (H, G)
            or b.data.shape != (1, G)):
        raise ShapeError(f"{name}: xw {xw.data.shape}, state {state.data.shape}, "
                         f"U {U.data.shape}, b {b.data.shape} do not conform")
    return H


def _keep_column(keep, batch):
    keep = np.asarray(keep, dtype=np.float64)
    if keep.shape != (batch, 1):
        raise ShapeError(f"keep must be a ({batch}, 1) column, got {keep.shape}")
    return keep, 1.0 - keep


def gru_cell(xw: Tensor, h: Tensor, U: Tensor, b: Tensor, keep=None) -> Tensor:
    """One GRU step (nn.GruParams) on a pre-projected input, as one record.

    xw [B, 3H] is x times the gates' W side by side (update | reset |
    candidate); U [H, 3H] and b [1, 3H] hold the recurrent weights and biases
    in the same order. Every pre-activation adds (x W + h U) + b. keep, when
    given, is a [B, 1] 0/1 array: rows with 0 carry h through unchanged.
    A constant h (a zero first state) gets no gradient.
    """
    H = _cell_shapes("gru_cell", xw, h, U, b, 3, 1)
    xd, hd, Ud, bd = xw.data, h.data, U.data, b.data
    U_zr, U_c = Ud[:, :2 * H], Ud[:, 2 * H:]
    zr = _sigmoid_data((xd[:, :2 * H] + hd @ U_zr) + bd[:, :2 * H])
    z, r = zr[:, :H], zr[:, H:]
    rh = r * hd
    cand = np.tanh((xd[:, 2 * H:] + rh @ U_c) + bd[:, 2 * H:])
    new = (1.0 - z) * hd + z * cand
    if keep is not None:
        keep, inv = _keep_column(keep, hd.shape[0])
        new = new * keep + hd * inv
    out = Tensor(new)
    need_h = h.requires_grad

    def bwd(g):
        carry = None
        if keep is not None:
            carry, g = g * inv, g * keep
        ga = np.empty((len(hd), 3 * H))  # gradient of the pre-activations
        ga[:, 2 * H:] = g * z * (1.0 - cand * cand)
        grh = ga[:, 2 * H:] @ U_c.T
        ga[:, :H] = g * (cand - hd) * z * (1.0 - z)
        ga[:, H:2 * H] = grh * hd * r * (1.0 - r)
        gh = (g * (1.0 - z) + grh * r + ga[:, :2 * H] @ U_zr.T) if need_h else None
        if need_h and carry is not None:
            gh += carry
        gU = np.empty((H, 3 * H))  # the two products written side by side
        np.matmul(hd.T, ga[:, :2 * H], out=gU[:, :2 * H])
        np.matmul(rh.T, ga[:, 2 * H:], out=gU[:, 2 * H:])
        return ga, Owned(gh) if need_h else None, Owned(gU), ga.sum(axis=0, keepdims=True)

    return _record(out, (xw, h, U, b), bwd)


def lstm_cell(xw: Tensor, state: Tensor, U: Tensor, b: Tensor, keep=None) -> Tensor:
    """One LSTM step (nn.LstmParams) on a pre-projected input, as one record.

    state [B, 2H] packs h | c, and so does the result. xw [B, 4H] is x times
    the gates' W side by side (input | forget | output | cell); U [H, 4H]
    and b [1, 4H] follow the same order. Every pre-activation adds
    (x W + h U) + b. keep, when given, is a [B, 1] 0/1 array: rows with 0
    carry the state through unchanged. A constant state gets no gradient.
    """
    H = _cell_shapes("lstm_cell", xw, state, U, b, 4, 2)
    sd, Ud = state.data, U.data
    hd, cd = sd[:, :H], sd[:, H:]
    a = (xw.data + hd @ Ud) + b.data
    ifo = _sigmoid_data(a[:, :3 * H])
    i, f, o = ifo[:, :H], ifo[:, H:2 * H], ifo[:, 2 * H:]
    gg = np.tanh(a[:, 3 * H:])
    new = np.empty_like(sd)
    new[:, H:] = f * cd + i * gg
    tc = np.tanh(new[:, H:])
    new[:, :H] = o * tc
    if keep is not None:
        keep, inv = _keep_column(keep, sd.shape[0])
        new = new * keep + sd * inv
    out = Tensor(new)
    need_state = state.requires_grad

    def bwd(g):
        carry = None
        if keep is not None:
            carry, g = g * inv, g * keep
        gh = g[:, :H]
        gc = g[:, H:] + gh * o * (1.0 - tc * tc)
        ga = np.empty((len(hd), 4 * H))  # gradient of the pre-activations
        ga[:, :H] = gc * gg * i * (1.0 - i)
        ga[:, H:2 * H] = gc * cd * f * (1.0 - f)
        ga[:, 2 * H:3 * H] = gh * tc * o * (1.0 - o)
        ga[:, 3 * H:] = gc * i * (1.0 - gg * gg)
        gs = np.concatenate([ga @ Ud.T, gc * f], axis=1) if need_state else None
        if need_state and carry is not None:
            gs += carry
        return (ga, Owned(gs) if need_state else None, Owned(hd.T @ ga),
                ga.sum(axis=0, keepdims=True))

    return _record(out, (xw, state, U, b), bwd)


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
    analytic = np.zeros_like(x.data) if x.grad is None else dense(x.grad)
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
