"""Neural layers and optimization shared by the parser and the translator.

Parameters live in a ``ParamTable`` keyed by hierarchical dotted names
("enc.fwd.W"), which makes checkpoints portable and lets whole
subtrees be frozen by prefix.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import DataError, ShapeError
from .tensor import Tensor


class ParamTable:
    """Insertion-ordered name -> Tensor map for one model's parameters."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self.norm_terms: list[tuple[str, slice]] = []  # grad_norm's, in its order

    def add(self, name: str, t: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._params[name] = t
        self.norm_terms.append((name, slice(None)))
        return t

    def new(self, name: str, shape, init) -> Tensor:
        """Add a trainable entry whose array init(shape) makes."""
        return self.add(name, Tensor(init(shape), requires_grad=True))

    def add_side_by_side(self, shapes: dict, count: int, init) -> list[Tensor]:
        """Add an entry per name of count blocks of its shape side by side (a
        cell's W, U and b; the parser's label maps), each block from init.
        Draws and norm terms take block k of every entry before block k+1, as
        when each block was an entry of its own, so both keep those bits."""
        draws = [[init(s) for s in shapes.values()] for _ in range(count)]
        start = len(self.norm_terms)
        tensors = [self.add(name, Tensor(np.concatenate(blocks, axis=1), requires_grad=True))
                   for name, blocks in zip(shapes, zip(*draws))]
        self.norm_terms[start:] = [(name, slice(k * shape[1], (k + 1) * shape[1]))
                                   for k in range(count) for name, shape in shapes.items()]
        return tensors

    def attach(self, prefix: str, other: "ParamTable"):
        """Share other's tensors under prefix.*, its norm terms after ours."""
        start = len(self.norm_terms)
        for name, t in other.items():
            self.add(f"{prefix}.{name}", t)
        self.norm_terms[start:] = [(f"{prefix}.{name}", cols) for name, cols in other.norm_terms]

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

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

    def gradients(self) -> dict[str, "np.ndarray | T.RowGrad"]:
        """Accumulated gradients of the trainable parameters that received
        one: a T.RowGrad for a table that one take_rows read by rows (see
        tensor.take_rows), else an ndarray."""
        return {name: t.grad for name, t in self._params.items()
                if t.requires_grad and t.grad is not None}

    def load_state(self, state: dict[str, np.ndarray], source="checkpoint"):
        """Take every parameter from state, which must hold exactly this
        table's names and shapes; anything else is a DataError naming source."""
        for name, t in self._params.items():
            if name not in state:
                raise DataError(f"{source}: no entry for parameter {name!r}")
            if state[name].shape != t.data.shape:
                raise DataError(f"{source}: parameter {name!r} has shape "
                                f"{state[name].shape}, the model's is {t.data.shape}")
        unknown = [name for name in state if name not in self._params]
        if unknown:
            raise DataError(f"{source}: unknown entry {unknown[0]!r}")
        for name, t in self._params.items():
            t.data = np.asarray(state[name], dtype=t.data.dtype)


def uniform_init(rng, scale: float = 0.1):
    """Parameter initializer: each call draws an array of the shape it is
    given from U[-scale, scale), off rng in call order.

    Layers take their initializer from the caller; a model that a checkpoint
    fills passes np.empty, which allocates without drawing."""
    return lambda shape: rng.uniform(-scale, scale, size=shape)


def check_dims(**dims):
    """Raise ValueError naming the first dimension that is not a positive int."""
    for name, value in dims.items():
        if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")


class _GatedCell:
    """W [input_dim, G·H], U [H, G·H] and b [1, G·H], the gates side by side."""

    GATES: tuple = ()

    def __init__(self, table: ParamTable, prefix: str, input_dim: int, hidden_dim: int,
                 init):
        self.input_dim = input_dim
        self.hidden_dim = H = hidden_dim
        self.W, self.U, self.b = table.add_side_by_side(
            {f"{prefix}.W": (input_dim, H), f"{prefix}.U": (H, H), f"{prefix}.b": (1, H)},
            len(self.GATES), init)


class GruParams(_GatedCell):
    """One GRU cell: update gate z, reset gate r, candidate h̃.

    Convention (the update gate interpolates toward the candidate):
        z = sigmoid(x Wz + h Uz + bz)
        r = sigmoid(x Wr + h Ur + br)
        h̃ = tanh(x Wh + (r * h) Uh + bh)
        h' = (1 - z) * h + z * h̃

    A step is one tensor.gru_cell on x W, which callers form for all
    positions of a sequence at once.
    """

    GATES = ("update", "reset", "cand")

    def zero_state(self, batch: int):
        return T.zeros((batch, self.hidden_dim))


class LstmParams(_GatedCell):
    """One LSTM cell (input, forget, output gates and cell candidate); it
    runs only inside birnn_encode, one tensor.lstm_cell per position."""

    GATES = ("input", "forget", "output", "cell")


def length_mask(lens, width: int) -> np.ndarray | None:
    """[B, width] 0/1 array marking each row's first lens[b] positions.

    None when every row is full, so unpadded batches skip the masked carry.
    """
    lens = np.asarray(lens)
    if (lens == width).all():
        return None
    return (np.arange(width)[None, :] < lens[:, None]).astype(float)


def birnn_encode(x: Tensor, layers, mask: np.ndarray | None = None) -> Tensor:
    """Stacked bidirectional recurrent encoding of a [B, n, d] sequence.

    layers: (fwd, bwd) cell pairs of one hidden width, bottom first; layer k
    reads layer k-1's outputs, and output i of a layer is fwd-state i ⊕
    bwd-state i. Returns
    the top layer as [B, n, H]. mask, when given, is a [B, n] 0/1 array;
    masked steps carry the previous state through so that right-padded
    batches encode each sentence as if unpadded.

    Each direction projects all positions through its W in one product;
    the recurrence then runs one fused cell op per position.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"birnn_encode: input must be [B, n, d], got shape {x.shape}")
    B, n, d = x.shape
    if n == 0:
        raise ValueError("birnn_encode: empty input sequence")
    keeps = [None] * n if mask is None else [mask[:, i:i + 1] for i in range(n)]

    def run(cell, rows, order):
        """The cell's states at every position; an LSTM's pack h | c."""
        G = cell.W.shape[1]
        xw = T.reshape(T.matmul(rows, cell.W), (B, n * G))  # position i: columns i*G ..
        lstm = isinstance(cell, LstmParams)
        state = T.zeros((B, (1 + lstm) * cell.hidden_dim))
        cell_op = T.lstm_cell if lstm else T.gru_cell
        states = [None] * n
        for i in order:
            state = cell_op(T.slice_axis(xw, 1, i * G, (i + 1) * G), state, cell.U, cell.b,
                            keeps[i])
            states[i] = state
        return states

    rows = T.reshape(x, (B * n, d))  # row b*n + i: position i of sentence b
    for fwd, bwd in layers:
        f = run(fwd, rows, range(n))
        b = run(bwd, rows, range(n - 1, -1, -1))
        # row (b*n + i)*2 + direction: one state each
        states = T.reshape(T.concat([t for i in range(n) for t in (f[i], b[i])], axis=1),
                           (2 * B * n, f[0].shape[1]))
        H = fwd.hidden_dim
        if isinstance(fwd, LstmParams):  # keep h of each h | c
            states = T.slice_axis(states, 1, 0, H)
        rows = T.reshape(states, (B * n, 2 * H))
    return T.reshape(rows, (B, n, rows.shape[1]))


def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    return T.add(T.matmul(x, W), b)


def dropout(x: Tensor, ratio: float, rng) -> Tensor:
    """Inverted dropout, for training only: zeroes each element with
    probability ratio, drawn from rng, and scales survivors by 1/(1-ratio);
    ratio 0 is exactly the identity."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"dropout ratio must be in [0, 1), got {ratio}")
    if ratio == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= ratio) / (1.0 - ratio)
    return T.mul(x, T.constant(keep))


# Elements a norm term squares at once: a larger term is split as numpy's
# pairwise sum splits it, so its sum of squares keeps np.sum(blk * blk)'s bits
# with scratch of about this size.
NORM_LEAF = 2 ** 17


def _sum_squares(rows, lo: int, hi: int) -> float:
    """np.sum(x * x) over elements lo..hi-1 of the 2-D rows in row-major order,
    split at numpy's pairwise points (half, rounded down to a multiple of 8)
    until a part holds at most NORM_LEAF elements.

    rows may be a T.RowGrad: a part is then made dense only when it holds a
    stored row, and a part without one adds exactly the 0.0 that np.sum of
    its zeros gives.

    The bits match np.sum's only while numpy sums a contiguous array in one
    unbuffered pairwise pass with that split, as numpy 2.4 does (the
    bits test in tests/test_nn.py checks the installed numpy); should a numpy
    release change that, the norm stays correct and only its last bits move.
    """
    n = hi - lo
    if n > NORM_LEAF:
        half = n // 2 - (n // 2) % 8
        return _sum_squares(rows, lo, lo + half) + _sum_squares(rows, lo + half, hi)
    cols = rows.shape[1]
    first, last = lo // cols, -(-hi // cols)
    if type(rows) is T.RowGrad:
        a, b = np.searchsorted(rows.rows, (first, last))
        if a == b:
            return 0.0
        part = np.zeros((last - first, cols))
        part[rows.rows[a:b] - first] = rows.values[a:b]
    else:
        part = rows[first:last]
    return np.sum((part * part).reshape(-1)[lo - first * cols:hi - first * cols])


def grad_norm(grads: dict, terms) -> float:
    """Global L2 norm of grads (ndarrays or T.RowGrads), summed over terms
    (ParamTable.norm_terms) in order.

    Each term adds np.sum(blk * blk) of its dense block, to the bit (see
    _sum_squares), squared at most NORM_LEAF elements at a time, in the order
    np.sum would read it.
    """
    total = 0.0
    for name, cols in terms:
        if name in grads:
            g = grads[name]
            if type(g) is T.RowGrad:
                values = g.values[:, cols]
                rows = T.RowGrad(g.rows, values, (g.shape[0], values.shape[1]))
            else:
                blk = g[..., cols]
                rows = blk.reshape(-1, blk.shape[-1] if blk.ndim > 1 else 1)
                if rows.strides[0] < rows.strides[1]:
                    # column-major (a gradient that came through a transpose, as
                    # att.W's does): np.sum reads it in memory order
                    rows = rows.T
            total += float(_sum_squares(rows, 0, math.prod(rows.shape)))
    return float(np.sqrt(total))


# Adam's moment decay rates and denominator offset (Kingma & Ba).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Elements per block of the in-place Adam update: its scratch is three arrays
# of at most this size (or of one row, when a row is longer), whatever the
# parameter's size.
ADAM_BLOCK = 2 ** 14


class Adam:
    """Bias-corrected Adam under a global gradient-norm clip, on a ParamTable.

    m and v map a parameter name to its moment arrays and t counts steps.
    A parameter whose gradients are T.RowGrads has moments only for the rows
    some gradient of it has held: rows maps its name to those rows, sorted,
    and its m and v are [len(rows), cols], row i for parameter row rows[i].
    Any other row has g = m = v = 0, for which the update leaves m, v and
    the parameter exactly as they are, so it is skipped. Once a dense
    gradient arrives, the name leaves rows and its m and v take the
    parameter's shape, zero in the rows not held; the update of every row
    is then exact as well.
    owned maps a name to the array that update copied into place and updates
    in place; the update never writes into an array it did not allocate.
    """

    def __init__(self, table: ParamTable, lr: float, clip: float | None = None):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if clip is not None and clip <= 0:
            raise ValueError("clip threshold must be positive")
        self.table = table
        self.lr = lr
        self.clip = clip
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.rows: dict[str, np.ndarray] = {}
        self.owned: dict[str, np.ndarray] = {}

    def step(self) -> float:
        """One update from the table's gradients, which it then zeroes;
        returns the global gradient norm before clipping.

        When that norm exceeds clip, every gradient is scaled by clip / norm.
        Raises FloatingPointError, before any update, when the norm is not
        finite (an overflowing one included)."""
        grads = self.table.gradients()
        with np.errstate(over="ignore", invalid="ignore"):
            norm = grad_norm(grads, self.table.norm_terms)
        if not np.isfinite(norm):
            raise FloatingPointError(f"non-finite gradient norm {norm}")
        clipped = self.clip is not None and norm > self.clip
        self.update(grads, self.clip / norm if clipped else None)
        self.table.zero_grad()
        return norm

    def update(self, grads: dict, factor: float | None = None):
        """One Adam update from grads (ndarrays or T.RowGrads), each scaled
        by factor when given, in place on the parameter tensors; grads
        themselves are never written.

        Per element, in this order: g = g·factor, m += (g - m)·(1-β1),
        v += (g·g - v)·(1-β2), p -= lr·(m/c1) / (sqrt(v/c2) + ε). It runs about
        ADAM_BLOCK elements at a time (whole rows of the last axis; one row
        when a row is longer) through three scratch blocks, so it allocates
        nothing parameter-sized after the first step. A RowGrad's block is
        written into scratch, zero off its rows; a row-tracked parameter's
        block of rows is gathered and written back. A parameter's array is
        copied on its first update, and again whenever something has rebound
        .data since, so arrays handed in from outside (a constructor's input,
        a loaded state) never change.
        """
        self.t += 1
        b1, b2, lr = ADAM_BETA1, ADAM_BETA2, self.lr
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, g in grads.items():
            p = self.table[name]
            if p.data.shape != g.shape:
                raise ShapeError(f"Adam: gradient shape {g.shape} != parameter "
                                 f"shape {p.data.shape} for {name}")
            if self.owned.get(name) is not p.data:
                p.data = self.owned[name] = p.data.copy()
            rows, at = self._moments(name, g, p.data.shape)
            # blocks of whole rows, which read a column slice of a wider
            # array (one a backward may hand over) without a copy
            cols = g.shape[-1] if len(g.shape) > 1 else 1
            m2, v2, p2 = (a.reshape(-1, cols) for a in (self.m[name], self.v[name], p.data))
            if at is None:
                g2 = g.reshape(-1, cols)
            k = max(1, ADAM_BLOCK // cols)  # rows per block
            s, d, u = (np.empty((min(k, len(m2)), cols)) for _ in range(3))
            for lo in range(0, len(m2), k):
                mb, vb = m2[lo:lo + k], v2[lo:lo + k]
                sb, db, ub = s[:len(mb)], d[:len(mb)], u[:len(mb)]
                if at is None:
                    gb = g2[lo:lo + k]
                    if factor is not None:
                        gb = np.multiply(gb, factor, out=ub)
                else:
                    a, z = np.searchsorted(at, (lo, lo + k))
                    gb = ub
                    gb.fill(0.0)
                    gb[at[a:z] - lo] = g.values[a:z]
                    if factor is not None:
                        gb *= factor
                pb = p2[lo:lo + k] if rows is None else p2[rows[lo:lo + k]]
                np.subtract(gb, mb, out=sb)
                sb *= 1.0 - b1
                mb += sb
                np.multiply(gb, gb, out=sb)
                sb -= vb
                sb *= 1.0 - b2
                vb += sb
                np.divide(mb, c1, out=sb)
                sb *= lr
                np.divide(vb, c2, out=db)
                np.sqrt(db, out=db)
                db += ADAM_EPS
                sb /= db
                pb -= sb
                if rows is not None:
                    p2[rows[lo:lo + k]] = pb

    def _moments(self, name: str, g, shape):
        """Make or grow name's m and v for gradient g. Returns the parameter
        rows they hold (None: every row, in order) and where g's stored rows
        sit in them (None for a dense g)."""
        sparse = type(g) is T.RowGrad
        rows = self.rows.get(name)
        if name not in self.m:
            if not sparse:
                self.m[name], self.v[name] = np.zeros(shape), np.zeros(shape)
                return None, None
            rows = g.rows[:0]
            self.m[name], self.v[name] = np.zeros((0, shape[1])), np.zeros((0, shape[1]))
        if rows is None:
            return None, g.rows if sparse else None  # g's rows in dense moments
        if not sparse:  # m and v take the parameter's shape from here on
            self._place(name, rows, shape)
            del self.rows[name]
            return None, None
        at = np.searchsorted(rows, g.rows)
        if len(at) and (at[-1] == len(rows) or not np.array_equal(rows[at], g.rows)):
            grown = np.union1d(rows, g.rows)
            self._place(name, np.searchsorted(grown, rows), (len(grown), shape[1]))
            rows, at = grown, np.searchsorted(grown, g.rows)
        self.rows[name] = rows
        return rows, at

    def _place(self, name: str, at, shape):
        """Move name's m and v into rows at of new zero arrays of shape."""
        for moments in (self.m, self.v):
            grown = np.zeros(shape)
            grown[at] = moments[name]
            moments[name] = grown
