"""Syntax integration: SAWR projection, bidirectional Tree-GRU, SAWR caching.

Three strategies feed the translator:
  - sawr: parser encoder states projected (sawr_project) and concatenated with
    word embeddings (sawr_augment);
  - tree-rnn: a bottom-up + top-down Tree-GRU over the source dependency tree,
    whose per-token outputs replace the plain embeddings as encoder inputs;
  - tree-linearized: no new encoder at all, the bracketed symbol sequences from
    data.linearize_tree go through the baseline model with a larger vocabulary.
"""

import struct

import numpy as np

from . import nn
from . import tensor as T
from .checkpoint import BlobReader
from .errors import DataError, ShapeError, StateError


class SawrProjection:
    """Positionwise affine map from parser encoder space into the NMT input."""

    def __init__(self, table, prefix, in_dim, out_dim, rng, scale=0.1):
        self.in_dim, self.out_dim = in_dim, out_dim
        self.W = table.add(f"{prefix}.W", T.init_uniform((in_dim, out_dim), -scale, scale, rng=rng))
        self.b = table.add(f"{prefix}.b", T.init_uniform((1, out_dim), -scale, scale, rng=rng))


def sawr_project(o, p):
    """s_i = W o_i + b for every row of o [n, in_dim]."""
    if o.shape[1] != p.in_dim:
        raise ShapeError(f"parser encoding dim {o.shape[1]}, projection expects {p.in_dim}")
    return nn.linear(o, p.W, p.b)


def sawr_augment(e, s):
    """Concatenate embeddings and projected vectors positionwise: x_i = e_i + s_i."""
    if e.shape[0] != s.shape[0]:
        raise ValueError(f"{e.shape[0]} embeddings vs {s.shape[0]} projected vectors")
    return T.concat([e, s], axis=1)


def set_parser_trainable(model, flag):
    """Allow or forbid NMT gradients from reaching the attached parser encoder.

    The SAWR projection itself always trains. With flag=False the parser
    parameters stay bitwise identical no matter how many updates run.
    """
    if getattr(model, "mode", None) != "sawr":
        raise StateError(f"parser tuning only applies to sawr mode, model is {model.mode!r}")
    if model.parser is None:
        raise StateError("no parser attached to this model")
    model.table.set_trainable("parser", flag)
    model.parser_trainable = bool(flag)


# ---------------------------------------------------------------------------
# Bidirectional Tree-GRU


class TreeGruParams:
    """Bottom-up and top-down GRU cells plus a learned top-down root state.

    Bottom-up: a node's recurrent input is the elementwise sum of its
    children's bottom-up states (zeros at leaves). Top-down: the recurrent
    input is the head's top-down state; the root uses the learned vector.
    """

    def __init__(self, table, prefix, input_dim, hidden_dim, rng, scale=0.1):
        self.input_dim, self.hidden_dim = input_dim, hidden_dim
        self.up = nn.GruParams(table, f"{prefix}.up", input_dim, hidden_dim, rng, scale)
        self.down = nn.GruParams(table, f"{prefix}.down", input_dim, hidden_dim, rng, scale)
        self.root = table.add(f"{prefix}.root",
                              T.init_uniform((1, hidden_dim), -scale, scale, rng=rng))

    @property
    def out_dim(self):
        return 2 * self.hidden_dim


def batch_by_level(trees):
    """Evaluation schedule grouping nodes by computation depth.

    Returns {"up": levels, "down": levels}; each level is a list of
    (tree_index, position) pairs whose states can be computed together once
    all earlier levels are done. Every node appears exactly once per direction.
    """
    up_levels, down_levels = [], []
    for ti, tree in enumerate(trees):
        tree.validate()
        up_depth = [None] * (tree.n + 1)
        down_depth = [None] * (tree.n + 1)

        def up(v):
            if up_depth[v] is None:
                kids = tree.children(v)
                up_depth[v] = 1 + max((up(k) for k in kids), default=-1)
            return up_depth[v]

        def down(v):
            if down_depth[v] is None:
                h = tree.heads[v - 1]
                down_depth[v] = 0 if h == 0 else 1 + down(h)
            return down_depth[v]

        for v in range(1, tree.n + 1):
            du, dd = up(v), down(v)
            while len(up_levels) <= du:
                up_levels.append([])
            while len(down_levels) <= dd:
                down_levels.append([])
            up_levels[du].append((ti, v))
            down_levels[dd].append((ti, v))
    return {"up": up_levels, "down": down_levels}


def tree_gru_encode_batch(embs, trees, p):
    """Level-batched bidirectional Tree-GRU over a batch of sentences.

    embs: per-sentence [n_i, input_dim] tensors aligned with trees. Returns
    per-sentence [n_i, 2*hidden] tensors (bottom-up state + top-down state).
    One gru_step runs per level, not per node; child states are summed through
    a constant 0/1 aggregation matrix.
    """
    if len(embs) != len(trees):
        raise ValueError(f"{len(embs)} embedding matrices vs {len(trees)} trees")
    for e, tree in zip(embs, trees):
        if e.shape[0] != tree.n:
            raise ValueError(f"{e.shape[0]} embedding rows for a {tree.n}-node tree")
    schedule = batch_by_level(trees)
    all_emb = T.concat(embs, axis=0) if len(embs) > 1 else embs[0]
    offsets = np.cumsum([0] + [t.n for t in trees])

    def run(levels, recurrent_rows):
        """recurrent_rows(level_nodes, row_of) -> [L, hidden] recurrent input."""
        row_of = {}
        chunks = []
        for level in levels:
            ids = [offsets[ti] + v - 1 for ti, v in level]
            x = T.take_rows(all_emb, np.asarray(ids))
            h_prev = recurrent_rows(level, row_of, chunks)
            new = nn.gru_step(x, h_prev, cell)
            base = len(row_of)
            for k, node in enumerate(level):
                row_of[node] = base + k
            chunks.append(new)
        return (T.concat(chunks, axis=0) if len(chunks) > 1 else chunks[0]), row_of

    cell = p.up

    def sum_children(level, row_of, chunks):
        if not row_of:
            return cell.zero_state(len(level))
        done = T.concat(chunks, axis=0) if len(chunks) > 1 else chunks[0]
        agg = np.zeros((len(level), done.shape[0]))
        for r, (ti, v) in enumerate(level):
            for kid in trees[ti].children(v):
                agg[r, row_of[ti, kid]] = 1.0
        return T.matmul(T.constant(agg), done)

    up_all, up_rows = run(schedule["up"], sum_children)

    cell = p.down

    def head_state(level, row_of, chunks):
        heads = [trees[ti].heads[v - 1] for ti, v in level]
        if all(h == 0 for h in heads):  # the root level
            return T.take_rows(p.root, np.zeros(len(level), dtype=np.int64))
        done = T.concat(chunks, axis=0) if len(chunks) > 1 else chunks[0]
        ids = [row_of[ti, trees[ti].heads[v - 1]] for ti, v in level]
        return T.take_rows(done, np.asarray(ids))

    down_all, down_rows = run(schedule["down"], head_state)

    outs = []
    for ti, tree in enumerate(trees):
        up_ids = np.asarray([up_rows[ti, v] for v in range(1, tree.n + 1)])
        down_ids = np.asarray([down_rows[ti, v] for v in range(1, tree.n + 1)])
        outs.append(T.concat([T.take_rows(up_all, up_ids),
                              T.take_rows(down_all, down_ids)], axis=1))
    return outs


def tree_gru_encode(emb, tree, p):
    """Single-sentence convenience wrapper around the batched evaluation."""
    return tree_gru_encode_batch([emb], [tree], p)[0]


def tree_gru_encode_naive(emb, tree, p):
    """Plain per-node recursion, one gru_step per node. Reference path.

    Kept deliberately independent of the batched code so the two can be
    compared against each other.
    """
    if emb.shape[0] != tree.n:
        raise ValueError(f"{emb.shape[0]} embedding rows for a {tree.n}-node tree")

    def row(v):
        return T.slice_axis(emb, 0, v - 1, v)

    up_state = {}

    def up(v):
        if v not in up_state:
            kids = tree.children(v)
            if kids:
                h = up(kids[0])
                for k in kids[1:]:
                    h = T.add(h, up(k))
            else:
                h = p.up.zero_state(1)
            up_state[v] = nn.gru_step(row(v), h, p.up)
        return up_state[v]

    down_state = {}

    def down(v):
        if v not in down_state:
            h = tree.heads[v - 1]
            prev = p.root if h == 0 else down(h)
            down_state[v] = nn.gru_step(row(v), prev, p.down)
        return down_state[v]

    rows = [T.concat([up(v), down(v)], axis=1) for v in range(1, tree.n + 1)]
    return T.concat(rows, axis=0) if len(rows) > 1 else rows[0]


# ---------------------------------------------------------------------------
# SAWR cache: parser encoder outputs computed once, bound to the producing
# checkpoint so stale caches cannot be loaded silently.
#
# Layout (little-endian): magic b"SAWRCACH", version u32, hash_len u16,
# hash (ascii hex), count u32, then per record: index u32, n u32, dim u32,
# n*dim float64 values, row-major.

CACHE_MAGIC = b"SAWRCACH"
CACHE_VERSION = 1


def extract_sawr(parser, corpus):
    """Parser encoder outputs for every sentence, forward-only numpy arrays."""
    from .depparse import parser_encode  # local import keeps module load light
    out = []
    for tokens in corpus:
        out.append(parser_encode(tokens, parser).data.copy())
    return out


def write_sawr_cache(path, encodings, parser_hash):
    digest = parser_hash.encode("ascii")
    with open(path, "wb") as f:
        f.write(CACHE_MAGIC)
        f.write(struct.pack("<IH", CACHE_VERSION, len(digest)))
        f.write(digest)
        f.write(struct.pack("<I", len(encodings)))
        for i, arr in enumerate(encodings):
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            if arr.ndim != 2:
                raise ValueError(f"record {i}: expected [n, dim] array, got {arr.shape}")
            f.write(struct.pack("<III", i, arr.shape[0], arr.shape[1]))
            f.write(arr.tobytes())


def read_sawr_cache(path, parser_hash=None):
    """Load cached encodings; refuses a cache from a different parser."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != CACHE_MAGIC:
        raise DataError(f"{path}: not a SAWR cache (bad magic)")
    r = BlobReader(path, blob, 8)
    version, hash_len = r.unpack("<IH")
    if version != CACHE_VERSION:
        raise DataError(f"{path}: unsupported cache version {version}")
    stored_hash = r.text(hash_len, "ascii")
    if parser_hash is not None and stored_hash != parser_hash:
        raise DataError(
            f"{path}: cache was built from parser checkpoint {stored_hash[:12]}..., "
            f"expected {parser_hash[:12]}...; re-run the extraction")
    (count,) = r.unpack("<I")
    encodings = []
    for k in range(count):
        idx, n, dim = r.unpack("<III")
        if idx != k:
            raise DataError(f"{path}: record {k} carries index {idx}")
        encodings.append(np.frombuffer(r.take(n * dim * 8), dtype="<f8")
                         .reshape(n, dim).copy())
    r.finish()
    return encodings, stored_hash
