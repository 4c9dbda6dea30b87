"""Shared test utilities: tree generators and reference implementations.

The references (exhaustive projective enumeration, the loop-per-split Eisner
chart, the per-node Tree-GRU recursion, the full-length beam loop, the
step-by-step argmax chain, the per-gate GRU and LSTM steps, the GRU cell's
backward with a concatenated weight gradient, the one-entry-per-gate
parameter layout and its gradient norm, the one-expression gradient norm,
the whole-array Adam update, the dense backward sweep, the dense
take_rows scatter, the rescanning
projectivize) are deliberately independent of the
package's code, so tests compare two implementations, not one
implementation with itself. The per-step sequence loss shares the
translator's layers and differs only in where its output network runs.

The oracles are built from unfused tape ops that the package itself no
longer needs (sub, sigmoid, log, log_softmax, scale_rows, pick); they live
here and record onto the active tape like the package's primitives.
"""

import json
import struct
import weakref
from contextlib import contextmanager
from itertools import product
from unittest import mock

import numpy as np

from synmt import tensor as T
from synmt.data import BOS, EOS
from synmt.depparse import DependencyTree, normalize_root, parser_encode
from synmt.errors import DataError, ShapeError
from synmt.nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from synmt.seq2seq import (_decoder_state, _encode, attend, attention_keys, decode_step,
                           encode_for_decode)


def random_projective_tree(n, rng, labels=("det", "amod", "nsubj", "obj", "root")):
    """Uniform-ish random projective single-root tree over n tokens.

    Recursive span construction: pick a head inside the span, carve each side
    into contiguous chunks, attach each chunk's head to the span head. Every
    projective tree arises from exactly one such decomposition.
    """
    heads = [0] * n

    def build(lo, hi, head_of):
        if lo > hi:
            return
        h = int(rng.integers(lo, hi + 1))
        heads[h - 1] = head_of
        for a, b in _chunks(lo, h - 1, rng) + _chunks(h + 1, hi, rng):
            build(a, b, h)

    build(1, n, 0)
    labs = [str(rng.choice(labels)) for _ in range(n)]
    labs[heads.index(0)] = "root"
    return DependencyTree(heads, labs)


def _chunks(lo, hi, rng):
    spans = []
    start = lo
    while start <= hi:
        end = int(rng.integers(start, hi + 1))
        spans.append((start, end))
        start = end + 1
    return spans


def _acyclic_single_root(heads):
    n = len(heads)
    if heads.count(0) != 1:
        return False
    for start in range(1, n + 1):
        node, steps = start, 0
        while node != 0:
            node = heads[node - 1]
            steps += 1
            if steps > n:
                return False
    return True


def _projective(heads):
    n = len(heads)

    def ancestor(anc, node):
        while node != 0:
            node = heads[node - 1]
            if node == anc:
                return True
        return anc == 0

    for d in range(1, n + 1):
        h = heads[d - 1]
        for k in range(min(h, d) + 1, max(h, d)):
            if not ancestor(h, k):
                return False
    return True


def walk_validate(heads, single_root=True):
    """Reference for DependencyTree.validate's checks: range errors and
    self-loops token by token, then a walk to the root from every token, then
    the root count. Raises DataError with validate's messages; returns None."""
    n = len(heads)
    if n == 0:
        raise DataError("empty tree")
    for i, h in enumerate(heads):
        if not 0 <= h <= n:
            raise DataError(f"token {i + 1}: head {h} outside 0..{n}")
        if h == i + 1:
            raise DataError(f"token {i + 1} is its own head")
    for start in range(1, n + 1):
        seen = set()
        node = start
        while node != 0:
            if node in seen:
                raise DataError(f"cycle through token {start}")
            seen.add(node)
            node = heads[node - 1]
    if single_root and heads.count(0) != 1:
        raise DataError(f"expected exactly one root, found {heads.count(0)}")


def random_tree(n, rng):
    """Random single-root tree over n tokens: tokens join in a random order,
    each under a uniformly chosen earlier one. Large ones are almost never
    projective."""
    join = [int(v) for v in rng.permutation(n) + 1]
    heads = [0] * n
    for i, v in enumerate(join[1:], start=1):
        heads[v - 1] = join[int(rng.integers(0, i))]
    return DependencyTree(heads)


def lift_projectivize(tree):
    """depparse.projectivize as it first ran: after every lift, rescan every
    arc and every token it spans with a walk to the root. The reference for
    the lift order, shortest arc first, leftmost on ties."""
    out = normalize_root(tree)
    out.validate()
    heads = out.heads

    def ancestor(anc, node):
        while node != 0:
            node = heads[node - 1]
            if node == anc:
                return True
        return anc == 0 and node == 0

    for _ in range(out.n * out.n + 1):
        bad = []
        for d in range(1, out.n + 1):
            h = heads[d - 1]
            lo, hi = min(h, d), max(h, d)
            if any(not ancestor(h, k) for k in range(lo + 1, hi)):
                bad.append((hi - lo, lo, d))
        if not bad:
            return out
        _, _, d = min(bad)
        h = heads[d - 1]
        heads[d - 1] = heads[h - 1]
    raise RuntimeError("lift_projectivize failed to terminate")


def has_crossing_arcs(tree):
    """Alternative projectivity test: two arcs interleave."""
    arcs = [(min(h, d), max(h, d)) for d, h in enumerate(tree.heads, start=1)]
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            (a, b), (c, dd) = arcs[i], arcs[j]
            if a < c < b < dd or c < a < dd < b:
                return True
    return False


_TREE_CACHE = {}


def all_projective_head_vectors(n):
    """Every single-root acyclic projective head vector for n tokens, as an array."""
    if n not in _TREE_CACHE:
        valid = [hs for hs in product(range(n + 1), repeat=n)
                 if _acyclic_single_root(list(hs)) and _projective(list(hs))]
        _TREE_CACHE[n] = np.array(valid, dtype=np.int64).reshape(len(valid), n)
    return _TREE_CACHE[n]


def brute_force_decode(matrix):
    """Max-scoring projective tree by enumeration; ties to the smallest head vector."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[1]
    vectors = all_projective_head_vectors(n)
    scores = matrix[vectors, np.arange(n)].sum(axis=1)
    best = scores.max()
    tied = vectors[scores >= best - 1e-12 * max(1.0, abs(best))]
    winner = min(map(tuple, tied))
    return best, list(winner)


def _better(cand, best):
    if best is None:
        return True
    if cand[0] != best[0]:
        return cand[0] > best[0]
    return cand[1] < best[1]


def tuple_chart_decode(matrix):
    """First-order Eisner over dict charts of (score, head tuple) items.

    The loop-per-split reference for depparse.decode_projective: each item's
    tuple holds the heads of its decided positions in surface order, and on
    score ties the lexicographically smallest tuple wins. Returns the heads of
    positions 1..n.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[1]

    def s(h, d):
        return matrix[h, d - 1]

    empty = (0.0, ())
    CR = {(i, i): empty for i in range(n + 1)}  # complete, head at left end
    CL = {(i, i): empty for i in range(n + 1)}  # complete, head at right end
    IR, IL = {}, {}  # incomplete: arc left->right / right->left

    for width in range(1, n + 1):
        for i in range(0, n + 1 - width):
            j = i + width
            if i >= 1:
                best_r, best_l = None, None
                for k in range(i, j):
                    left, right = CR[i, k], CL[k + 1, j]
                    inner = left[1] + right[1]
                    base = left[0] + right[0]
                    cand_r = (base + s(i, j), inner + (i,))
                    if _better(cand_r, best_r):
                        best_r = cand_r
                    cand_l = (base + s(j, i), (j,) + inner)
                    if _better(cand_l, best_l):
                        best_l = cand_l
                IR[i, j], IL[i, j] = best_r, best_l
            else:
                left = CL[1, j]
                IR[0, j] = (left[0] + s(0, j), left[1] + (0,))
            best_cr = None
            for k in range(i + 1, j + 1):
                a, b = IR[i, k], CR[k, j]
                cand = (a[0] + b[0], a[1] + b[1])
                if _better(cand, best_cr):
                    best_cr = cand
            CR[i, j] = best_cr
            if i >= 1:
                best_cl = None
                for k in range(i, j):
                    a, b = CL[i, k], IL[k, j]
                    cand = (a[0] + b[0], a[1] + b[1])
                    if _better(cand, best_cl):
                        best_cl = cand
                CL[i, j] = best_cl
    return list(CR[0, n][1])


def records_on(tape, tensor):
    """How many records on tape read tensor, a leaf (a parameter, say), as an
    input; a record names the tensors its own tape produced by node id."""
    return sum(any(t is tensor for t in inputs) for _, inputs, _ in tape.records)


def watch_outputs(monkeypatch, *names):
    """Patch the named tensor ops to note a weak reference to each result and
    to its array; returns {name: [(tensor ref, array ref), ...]} in call order."""
    seen = {name: [] for name in names}
    for name in names:
        def watched(*args, _op=getattr(T, name), _seen=seen[name], **kw):
            out = _op(*args, **kw)
            _seen.append((weakref.ref(out), weakref.ref(out.data)))
            return out
        monkeypatch.setattr(T, name, watched)
    return seen


def split_rows(rows, trees):
    """Per-tree blocks of a packed [N, d] array, one tree's rows after another."""
    return np.split(rows, np.cumsum([t.n for t in trees])[:-1])


# ---------------------------------------------------------------------------
# Unfused tape ops: what the fused cells and nll replaced, kept as the
# pieces of their oracles.

def sub(a, b):
    assert a.shape == b.shape, (a.shape, b.shape)
    out = T.Tensor(a.data - b.data)

    def bwd(g):
        return g, -g

    return T._record(out, (a, b), bwd)


def sigmoid(x):
    y = T._sigmoid_data(x.data)
    out = T.Tensor(y)

    def bwd(g):
        return (g * y * (1.0 - y),)

    return T._record(out, (x,), bwd)


def log(x):
    xd = x.data
    out = T.Tensor(np.log(xd))

    def bwd(g):
        return (g / xd,)

    return T._record(out, (x,), bwd)


def log_softmax(x, axis=-1):
    if axis >= x.data.ndim:
        raise ShapeError(f"log_softmax axis {axis} out of range for shape {x.data.shape}")
    xd = x.data
    m = xd.max(axis=axis, keepdims=True)
    z = xd - m
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = T.Tensor(z - lse)
    sm = np.exp(z - lse)

    def bwd(g):
        return (g - sm * g.sum(axis=axis, keepdims=True),)

    return T._record(out, (x,), bwd)


def scale_rows(x, s):
    """Multiply row i of x [m,n] by scalar s[i] from s [m,1]."""
    xd, sd = x.data, s.data
    if xd.ndim != 2 or sd.shape != (xd.shape[0], 1):
        raise ShapeError(f"scale_rows: x {xd.shape} needs s of shape ({xd.shape[0]}, 1), "
                         f"got {sd.shape}")
    out = T.Tensor(xd * sd)

    def bwd(g):
        return g * sd, (g * xd).sum(axis=1, keepdims=True)

    return T._record(out, (x, s), bwd)


def pick(x, ids):
    """Select one column per row: out[i, 0] = x[i, ids[i]]."""
    ids = np.asarray(ids, dtype=np.int64)
    xd = x.data
    if xd.ndim != 2 or ids.shape != (xd.shape[0],):
        raise ShapeError(f"pick: x {xd.shape} needs one id per row, got ids {ids.shape}")
    if ids.min(initial=0) < 0 or (xd.shape[0] and ids.max() >= xd.shape[1]):
        raise ValueError("pick: id out of range")
    rows = np.arange(xd.shape[0])
    out = T.Tensor(xd[rows, ids][:, None])

    def bwd(g):
        z = np.zeros_like(xd)
        z[rows, ids] = g[:, 0]
        return (z,)

    return T._record(out, (x,), bwd)


def param_bytes(table, prefix):
    """The bytes of every parameter under a dotted prefix, in table order:
    equal before and after a run exactly when no bit of them moved."""
    return b"".join(t.data.tobytes() for name, t in table.items()
                    if name.startswith(prefix + "."))


def gate_columns(t, k, width):
    """Block k of a side-by-side entry's columns, read on the tape."""
    return T.slice_axis(t, 1, k * width, (k + 1) * width)


def gru_step(cell, x, h):
    """One GRU step of an nn.GruParams cell, as the package runs it: h' from
    x [B, input_dim] and h [B, H], one product and one fused cell."""
    return T.gru_cell(T.matmul(x, cell.W), h, cell.U, cell.b)


def gru_cell_grads_oracle(xw, h, U, b, g):
    """The gradients (xw, h, U, b) of tensor.gru_cell without a keep column,
    under the output gradient g, in the form the cell had before it wrote
    U's gradient into one array: the two products of U's blocks are made on
    their own and then concatenated."""
    xd, hd, Ud, bd = xw.data, h.data, U.data, b.data
    H = hd.shape[1]
    U_zr, U_c = Ud[:, :2 * H], Ud[:, 2 * H:]
    zr = T._sigmoid_data((xd[:, :2 * H] + hd @ U_zr) + bd[:, :2 * H])
    z, r = zr[:, :H], zr[:, H:]
    rh = r * hd
    cand = np.tanh((xd[:, 2 * H:] + rh @ U_c) + bd[:, 2 * H:])
    ga = np.empty((len(hd), 3 * H))
    ga[:, 2 * H:] = g * z * (1.0 - cand * cand)
    grh = ga[:, 2 * H:] @ U_c.T
    ga[:, :H] = g * (cand - hd) * z * (1.0 - z)
    ga[:, H:2 * H] = grh * hd * r * (1.0 - r)
    gh = g * (1.0 - z) + grh * r + ga[:, :2 * H] @ U_zr.T
    gU = np.concatenate([hd.T @ ga[:, :2 * H], rh.T @ ga[:, 2 * H:]], axis=1)
    return ga, gh, gU, ga.sum(axis=0, keepdims=True)


def gru_step_oracle(x, h, cell):
    """One GRU step gate by gate, two products and two adds per gate, on
    column blocks of the cell's W, U and b: the reference for the fused
    tensor.gru_cell behind nn.GruParams."""
    H = cell.hidden_dim
    (Wz, Wr, Wh), (Uz, Ur, Uh), (bz, br, bh) = (
        [gate_columns(t, k, H) for k in range(3)] for t in (cell.W, cell.U, cell.b))
    z = sigmoid(T.add(T.add(T.matmul(x, Wz), T.matmul(h, Uz)), bz))
    r = sigmoid(T.add(T.add(T.matmul(x, Wr), T.matmul(h, Ur)), br))
    cand = T.tanh(T.add(T.add(T.matmul(x, Wh), T.matmul(T.mul(r, h), Uh)), bh))
    keep = sub(T.constant(np.ones_like(z.data)), z)
    return T.add(T.mul(keep, h), T.mul(z, cand))


def lstm_step_oracle(x, state, cell):
    """One LSTM step gate by gate, on column blocks of the cell's W, U and
    b: the reference for tensor.lstm_cell."""
    h, c = state
    H = cell.hidden_dim

    def gate(k):
        return T.add(T.add(T.matmul(x, gate_columns(cell.W, k, H)),
                           T.matmul(h, gate_columns(cell.U, k, H))),
                     gate_columns(cell.b, k, H))

    i, f, o = (sigmoid(gate(k)) for k in range(3))
    g = T.tanh(gate(3))
    c_new = T.add(T.mul(f, c), T.mul(i, g))
    return T.mul(o, T.tanh(c_new)), c_new


# ---------------------------------------------------------------------------
# The one-entry-per-gate layout: each gate's W, U and b, and each label's
# map, stored as entries of their own. The oracles below draw that layout
# from a seed and split the side-by-side entries back into it.

GRU_GATES = ("update", "reset", "cand")
LSTM_GATES = ("input", "forget", "output", "cell")


def per_gate_draws(rng, prefix, gates, input_dim, hidden_dim, scale=0.1):
    """{prefix}.{gate}.W/U/b drawn gate by gate, W, U then b."""
    out = {}
    for gate in gates:
        for part, shape in (("W", (input_dim, hidden_dim)), ("U", (hidden_dim, hidden_dim)),
                            ("b", (1, hidden_dim))):
            out[f"{prefix}.{gate}.{part}"] = rng.uniform(-scale, scale, size=shape)
    return out


def per_gate_parser_state(parser, seed):
    """A ParserModel's parameters as seed draws them one entry per gate and
    per label (lab.U.{i}), in table order."""
    rng, s = T.make_rng(seed), 0.1
    E, H, m, out = parser.embed_dim, parser.hidden_dim, parser.mlp_dim, parser.out_dim
    state = {"emb": rng.uniform(-s, s, size=(len(parser.vocab), E))}
    for layer in range(parser.layers):
        for side in ("fwd", "bwd"):
            state.update(per_gate_draws(rng, f"enc.l{layer}.{side}", LSTM_GATES,
                                        E if layer == 0 else out, H))
    state["root"] = rng.uniform(-s, s, size=(1, out))
    for name in ("arc.head", "arc.dep", "lab.head", "lab.dep"):
        state[f"{name}.W"] = rng.uniform(-s, s, size=(out, m))
        state[f"{name}.b"] = np.zeros((1, m))
    state["arc.U"] = rng.uniform(-s, s, size=(m + 1, m))
    for i in range(len(parser.label_names)):
        state[f"lab.U.{i}"] = rng.uniform(-s, s, size=(m + 1, m + 1))
    return state


def per_gate_translator_state(model, parser_seed=None):
    """A TranslationModel's parameters as its seed draws them one entry per
    gate, in table order; an attached parser's follow under parser.*, drawn
    from parser_seed."""
    rng, s = T.make_rng(model.seed), 0.1

    def draw(*shape):
        return rng.uniform(-s, s, size=shape)

    E, H, V = model.emb_dim, model.hidden_dim, model.tgt_vocab_size
    state = {"src_emb": draw(model.src_vocab_size, E), "tgt_emb": draw(V, E)}
    if model.mode == "sawr":
        state["sawr.W"] = draw(model.sawr.in_dim, model.sawr_dim)
        state["sawr.b"] = draw(1, model.sawr_dim)
    elif model.mode == "tree-rnn":
        for side in ("up", "down"):
            state.update(per_gate_draws(rng, f"tree.{side}", GRU_GATES, E, model.tree_hidden))
        state["tree.root"] = draw(1, model.tree_hidden)
    for side in ("fwd", "bwd"):
        state.update(per_gate_draws(rng, f"enc.{side}", GRU_GATES, model.enc_input_dim,
                                    H // 2))
    state["att.W"] = draw(H, H)
    state.update(per_gate_draws(rng, "dec", GRU_GATES, E + H, H))
    state.update({"init.W": draw(H // 2, H), "init.b": draw(1, H),
                  "out.hidden.W": draw(2 * H, H), "out.hidden.b": draw(1, H),
                  "out.logits.W": draw(H, V), "out.logits.b": draw(1, V)})
    if model.parser is not None:
        state.update({f"parser.{name}": arr for name, arr
                      in per_gate_parser_state(model.parser, parser_seed).items()})
    return state


def split_per_gate(arrays):
    """Side-by-side entries (parameters or gradients, in table order) split
    back into one entry per gate and per label, in the same order.

    A cell is a prefix with .W, .U and .b entries: U [H, G*H] holds G=3 (GRU)
    or G=4 (LSTM) gates. lab.U [m+1, L*(m+1)] holds L label maps. Every
    other entry is kept as it is.
    """
    out = {}
    for name, arr in arrays.items():
        prefix, _, part = name.rpartition(".")
        if {f"{prefix}.W", f"{prefix}.U", f"{prefix}.b"} <= arrays.keys():
            if part != "W":
                continue  # split with its cell's W
            U = arrays[f"{prefix}.U"]
            H = U.shape[0]
            gates = {3: GRU_GATES, 4: LSTM_GATES}[U.shape[1] // H]
            for k, gate in enumerate(gates):
                for p in "WUb":
                    out[f"{prefix}.{gate}.{p}"] = arrays[f"{prefix}.{p}"][:, k * H:(k + 1) * H]
        elif name == "lab.U" or name.endswith(".lab.U"):
            w = arr.shape[0]
            for i in range(arr.shape[1] // w):
                out[f"{name}.{i}"] = arr[:, i * w:(i + 1) * w]
        else:
            out[name] = arr
    return out


def per_gate_layout(state):
    """Rewrite a checkpoint's entries in place into one entry per gate and
    per label, the layout checkpoints had before the gates went side by side."""
    split = split_per_gate(state)
    state.clear()
    state.update(split)


def reference_grad_norm(grads, terms):
    """nn.grad_norm as one expression per term: np.sum(blk * blk) over a
    squared copy of the whole term, the terms added in order."""
    total = 0.0
    for name, cols in terms:
        if name in grads:
            blk = dense_grad(grads[name])[..., cols]
            total += float(np.sum(blk * blk))
    return float(np.sqrt(total))


def per_gate_norm(grads):
    """The global gradient norm with one term per gate and per label, each
    term's squares summed alone and the terms added in table order."""
    total = 0.0
    for g in split_per_gate(dense_grads(grads)).values():
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


def masked_carry_oracle(new, old, keep):
    """new where keep [B, 1] is 1, old where it is 0, as two row scalings."""
    inv = T.constant(1.0 - keep)
    return T.add(scale_rows(new, T.constant(keep)), scale_rows(old, inv))


def dense_grad(g):
    """A gradient as an ndarray: a T.RowGrad scattered into zeros of its
    shape, any other gradient as it is."""
    if type(g) is not T.RowGrad:
        return g
    out = np.zeros(g.shape)
    out[g.rows] = g.values
    return out


def dense_grads(grads):
    """dense_grad of every entry of a name -> gradient map."""
    return {name: dense_grad(g) for name, g in grads.items()}


def take_rows_scatter(shape, ids, g):
    """take_rows' gradient as one dense scatter: zeros of the table's shape,
    each row of g added at its id in order (np.add.at)."""
    out = np.zeros(shape)
    np.add.at(out, np.asarray(ids, dtype=np.int64), g)
    return out


def dense_backward(loss):
    """Leaf gradients of loss, {id(tensor): array}, by the plain reverse sweep:
    every slice read's and row read's gradient becomes a zero array of its
    whole input, and every sum is taken out of place. The reference for
    tensor.backward's shared slice buffer, row gradients and in-place sums; it
    walks the node-keyed records without popping them, and .grad is left
    untouched."""
    grads = {loss.node: np.ones_like(loss.data)}  # node id, or leaf Tensor -> gradient
    for node, inputs, backward_fn in reversed(loss.tape.records):
        g = grads.pop(node, None)
        if g is None:
            continue
        for spec, ig in zip(inputs, backward_fn(g)):
            if ig is None:
                continue
            if type(spec) is tuple:
                key, shape = spec
            elif spec.requires_grad:
                key, shape = spec, spec.data.shape
            else:
                continue
            if isinstance(ig, T.Owned):
                ig = ig.value
            if isinstance(ig, T.SliceGrad):
                dense = np.zeros(shape)
                dense[ig.index] = ig.value
                ig = dense
            ig = dense_grad(ig)
            prev = grads.get(key)
            grads[key] = ig if prev is None else prev + ig
    return {id(t): g for t, g in grads.items()}


def tree_gru_encode_naive(emb, tree, p):
    """Plain per-node recursion, one GRU step per node.

    The reference for syntax.tree_gru_encode_batch: kept independent of the
    level-batched code so the two can be compared against each other.
    """
    if emb.shape[0] != tree.n:
        raise ValueError(f"{emb.shape[0]} embedding rows for a {tree.n}-node tree")

    def row(v):
        return T.slice_axis(emb, 0, v - 1, v)

    children = {v: [] for v in range(1, tree.n + 1)}
    for d, h in enumerate(tree.heads, start=1):
        if h:
            children[h].append(d)
    up_state = {}

    def up(v):
        if v not in up_state:
            kids = children[v]
            if kids:
                h = up(kids[0])
                for k in kids[1:]:
                    h = T.add(h, up(k))
            else:
                h = p.up.zero_state(1)
            up_state[v] = gru_step(p.up, row(v), h)
        return up_state[v]

    down_state = {}

    def down(v):
        if v not in down_state:
            h = tree.heads[v - 1]
            prev = p.root if h == 0 else down(h)
            down_state[v] = gru_step(p.down, row(v), prev)
        return down_state[v]

    rows = [T.concat([up(v), down(v)], axis=1) for v in range(1, tree.n + 1)]
    return T.concat(rows, axis=0) if len(rows) > 1 else rows[0]


def enumerate_best(model, src, max_len):
    """Exhaustive search over all EOS-terminated sequences of length <= max_len."""
    from synmt.data import BOS, EOS
    from synmt.seq2seq import decode_step, encode_for_decode

    h, s0 = encode_for_decode(model, src)
    c0 = T.zeros((1, model.hidden_dim))
    best = {"logp": -np.inf, "ids": None}

    def walk(prefix, logp, s, c):
        y_prev = prefix[-1] if prefix else BOS
        dist, s2, c2, _ = decode_step(y_prev, c, s, h, model)
        lp = np.log(dist.data[0])
        for v in range(model.tgt_vocab_size):
            seq, score = prefix + [v], logp + lp[v]
            if v == EOS:
                if score > best["logp"]:
                    best["logp"], best["ids"] = score, seq
            elif len(seq) < max_len:
                walk(seq, score, s2, c2)

    walk([], 0.0, s0, c0)
    return best


def rewrite_meta(path, meta):
    """Replace a checkpoint's __meta__ entry with raw bytes, or drop it (None)."""
    from synmt.checkpoint import load_checkpoint, save_checkpoint

    state = load_checkpoint(path)
    del state["__meta__"]
    if meta is not None:
        state["__meta__"] = np.frombuffer(meta, dtype=np.uint8).copy()
    save_checkpoint(path, state)


def edit_entries(path, edit):
    """Rewrite a checkpoint after edit(state) changed its entry dict in place."""
    from synmt.checkpoint import load_checkpoint, save_checkpoint

    state = load_checkpoint(path)
    edit(state)
    save_checkpoint(path, state)


def edit_meta(path, edit):
    """Rewrite a checkpoint's __meta__ after edit(meta) changed the decoded object."""
    from synmt.checkpoint import load_checkpoint

    meta = json.loads(bytes(load_checkpoint(path)["__meta__"]).decode("utf-8"))
    edit(meta)
    rewrite_meta(path, json.dumps(meta).encode("utf-8"))


BAD_METAS = [b"{bad", b"\xff{}", b"[1, 2]", None]


def write_checkpoint_oracle(path, entries, float_tag=0):
    """A checkpoint from (name, array) pairs, written as the package's writer
    did when it cast each entry with astype and copied it out with tobytes:
    uint8 arrays as raw bytes (tag 2), float arrays under float_tag (0 =
    float64, 1 = float32). A name may repeat, which a dict of entries cannot."""
    with open(path, "wb") as f:
        f.write(b"SAWRCKPT" + struct.pack("<II", 1, len(entries)))
        for name, arr in entries:
            raw = name.encode("utf-8")
            arr = np.ascontiguousarray(arr)
            tag = 2 if arr.dtype == np.uint8 else float_tag
            f.write(struct.pack("<H", len(raw)) + raw + struct.pack("<BB", tag, arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype({0: "<f8", 1: "<f4", 2: "<u1"}[tag]).tobytes())


def write_f32_checkpoint(path, state):
    """A checkpoint whose entries are all float32 (precision tag 1); the
    package writes and reads only tags 0 and 2."""
    write_checkpoint_oracle(path, list(state.items()), float_tag=1)


def state_dict(table):
    """A copy of every parameter's array in a ParamTable, by name."""
    return {name: t.data.copy() for name, t in table.items()}


def adam_step_oracle(opt, grads, factor=None):
    """nn.Adam.update in whole-array form, with its signature, so that a test
    can patch it in. A T.RowGrad is first scattered into a dense gradient,
    and m and v always have the parameter's shape. When the step clips,
    factor is clip / norm and every gradient is first scaled into a new
    array, g * factor; then each parameter is rebound to a new array, and
    every temporary is parameter-sized."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    grads = dense_grads(grads)
    if factor is not None:
        grads = {name: g * factor for name, g in grads.items()}
    opt.t += 1
    c1 = 1.0 - b1 ** opt.t
    c2 = 1.0 - b2 ** opt.t
    for name, g in grads.items():
        p = opt.table[name]
        m = opt.m.setdefault(name, np.zeros_like(p.data))
        v = opt.v.setdefault(name, np.zeros_like(p.data))
        m += (1.0 - b1) * (g - m)
        v += (1.0 - b2) * (g * g - v)
        p.data = p.data - opt.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def argmax_chain(model, source, max_len):
    """Greedy decoding written out step by step: the ids and the summed
    log-probability of the argmax token at each decoder step, up to EOS or
    max_len."""
    h, s = encode_for_decode(model, source)
    c = T.zeros((1, model.hidden_dim))
    ids, logp, y = [], 0.0, BOS
    for _ in range(max_len):
        dist, s, c, _ = decode_step(y, c, s, h, model)
        y = int(np.argmax(dist.data[0]))
        ids.append(y)
        with np.errstate(divide="ignore"):
            logp += float(np.log(dist.data[0])[y])
        if y == EOS:
            break
    return ids, logp


def full_length_run_beam(models, sources, trees, encodings, beam_size, max_len):
    """The beam loop without early stop: it runs to max_len, or until no
    hypothesis is live. Same contract as seq2seq._run_beam, kept as the
    reference that the stopping rule must reproduce exactly. Its hypotheses
    are dicts of tuples that also carry the chosen token's log-prob at each
    step (step_logps) and each step's attention row (alphas: the members'
    mean, or the first member's when their source lengths differ); the
    returned Hypothesis has both as extra attributes.
    """
    from synmt.seq2seq import Hypothesis

    states = []
    for m, src, tree, enc in zip(models, sources, trees, encodings):
        memory, s0 = encode_for_decode(m, list(src), tree=tree, encoding=enc)
        states.append((memory, s0.data, np.zeros((1, m.hidden_dim))))
    vocab_size, k = models[0].tgt_vocab_size, len(models)
    active = [{"ids": (), "logp": 0.0, "step_logps": (), "alphas": ()}]
    completed = []
    for _ in range(max_len):
        y_prev = np.array([hyp["ids"][-1] if hyp["ids"] else BOS for hyp in active],
                          dtype=np.int64)
        dists, alphas, stepped = [], [], []
        for m, (memory, s, c) in zip(models, states):
            dist, s, c, alpha = decode_step(y_prev, T.constant(c), T.constant(s), memory, m)
            dists.append(dist.data)
            alphas.append(alpha.data)
            stepped.append((memory, s.data, c.data))
        with np.errstate(divide="ignore"):
            logp = np.log(sum(dists) / k)
        alpha = sum(alphas) / k if len({a.shape[1] for a in alphas}) == 1 else alphas[0]
        scores = np.array([hyp["logp"] for hyp in active])[:, None] + logp
        flat = scores.ravel()
        order = np.argsort(-flat, kind="stable")[:min(beam_size, flat.size)]
        new_active, rows = [], []
        for fi in order:
            pk, v = divmod(int(fi), vocab_size)
            parent = active[pk]
            hyp = {"ids": parent["ids"] + (int(v),),
                   "logp": float(flat[fi]),
                   "step_logps": parent["step_logps"] + (float(logp[pk, v]),),
                   "alphas": parent["alphas"] + (alpha[pk].copy(),)}
            if v == EOS:
                completed.append(hyp)
            else:
                new_active.append(hyp)
                rows.append(pk)
        if not new_active:
            active = []
            break
        active = new_active
        states = [(memory, s[rows], c[rows]) for memory, s, c in stepped]

    def build(hyp, done):
        out = Hypothesis(hyp["ids"], hyp["logp"], done)
        out.step_logps, out.alphas = list(hyp["step_logps"]), list(hyp["alphas"])
        return out

    if completed:
        return build(max(completed, key=lambda hyp: hyp["logp"]), True)
    return build(max(active, key=lambda hyp: hyp["logp"]), False)


def sharpen(model, gain, eos_bias=0.0):
    """Scale every weight of an untrained translator by gain and add eos_bias
    to EOS's output bias. Sharper distributions tie each step to the decoded
    prefix, so hypotheses of an untrained model differ in length and a later
    completion can beat an earlier one."""
    for _, param in model.table.items():
        param.data *= gain
    model.table["out.logits.b"].data[0, EOS] += eos_bias
    return model


@contextmanager
def full_length_beam():
    """Run beam_search and ensemble_decode on the full-length reference loop."""
    with mock.patch("synmt.seq2seq._run_beam", full_length_run_beam), \
            mock.patch("synmt.evaluate._run_beam", full_length_run_beam):
        yield


def toy_grammar_sentences(count, seed, vocab_per_pos=8):
    """Simple subject-verb-object treebank with deterministic head rules.

    Patterns stay projective; labels depend only on the word's role, so a
    parser can learn the mapping from word identity to attachment.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    words = {
        "det": [f"d{i}" for i in range(3)],
        "adj": [f"a{i}" for i in range(vocab_per_pos)],
        "noun": [f"n{i}" for i in range(vocab_per_pos)],
        "verb": [f"v{i}" for i in range(vocab_per_pos)],
        "adv": [f"r{i}" for i in range(3)],
    }

    def pick(pos):
        return str(rng.choice(words[pos]))

    sents = []
    for _ in range(count):
        tokens, heads, labels = [], [], []

        def noun_phrase(head_slot):
            # det (adj) noun, noun attaches to head_slot resolved later
            start = len(tokens)
            use_adj = rng.random() < 0.5
            tokens.append(pick("det"))
            if use_adj:
                tokens.append(pick("adj"))
            tokens.append(pick("noun"))
            noun_pos = len(tokens)  # 1-based
            heads.extend([noun_pos] * (noun_pos - 1 - start))
            labels.extend(["det"] + (["amod"] if use_adj else []))
            heads.append(head_slot)
            labels.append("arg")
            return noun_pos

        noun_phrase(-1)  # subject, head filled once verb position is known
        verb_pos = len(tokens) + 1
        tokens.append(pick("verb"))
        heads.append(0)
        labels.append("root")
        for i, h in enumerate(heads):
            if h == -1:
                heads[i] = verb_pos
                labels[i] = "nsubj"
        noun_phrase(verb_pos)
        for i in range(len(heads)):
            if labels[i] == "arg":
                heads[i] = verb_pos
                labels[i] = "obj"
        if rng.random() < 0.4:
            tokens.append(pick("adv"))
            heads.append(verb_pos)
            labels.append("advmod")
        sents.append((tokens, DependencyTree(heads, labels)))
    return sents


def encode_one(tokens, model):
    """One sentence through the batched parser encoder: its [n, out_dim] states."""
    states = parser_encode([tokens], model)
    return T.reshape(states, states.shape[1:])


def one_bucket(enc):
    """One sentence's [n, out_dim] states as a [1, n, out_dim] scoring bucket."""
    return T.reshape(enc, (1, *enc.shape))


def per_step_sequence_loss(batch, model, mode="train"):
    """sequence_loss with the output network run inside the target-step loop,
    one [B, ·] block per step, and the masked per-step terms summed step
    after step: the oracle of the once-per-batch output network."""
    h, mask = _encode(model, batch.src, batch.src_lens, trees=batch.trees,
                      encodings=batch.encodings, tokens=batch.src_tokens)
    bias = None if mask is None else (mask - 1.0) * 1e9
    s = model.init_state(h)
    keys = attention_keys(h, model.table["att.W"])
    c = T.constant(np.zeros((batch.size, model.hidden_dim)))
    B, m = batch.tgt.shape
    tgt_mask = (np.arange(m)[None, :] < batch.tgt_lens[:, None]).astype(float)
    y_prev = np.concatenate([np.full((B, 1), BOS, dtype=np.int64), batch.tgt[:, :-1]], axis=1)
    We, Wc = model.dec_input_weights()
    ew = T.matmul(T.take_rows(model.table["tgt_emb"], y_prev.T.ravel()), We)
    total = None
    for j in range(m):
        s = _decoder_state(T.slice_axis(ew, 0, j * B, (j + 1) * B), c, s, Wc, model)
        c, _ = attend(s, keys, h, bias)
        lp = log_softmax(model.output_logits(s, c, mode=mode), axis=1)
        term = T.mul(pick(lp, batch.tgt[:, j]), T.constant(tgt_mask[:, j:j + 1]))
        total = term if total is None else T.add(total, term)
    return T.scale(T.sum_all(total), -1.0 / float(batch.tgt_lens.sum()))
