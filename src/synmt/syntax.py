"""Syntax integration: SAWR projection, bidirectional Tree-GRU, SAWR caching.

Three strategies feed the translator:
  - sawr: parser encoder states projected (sawr_project) and concatenated with
    word embeddings (sawr_augment);
  - tree-rnn: a bottom-up + top-down Tree-GRU over the source dependency tree,
    whose per-token outputs replace the plain embeddings as encoder inputs;
  - tree-linearized: no new encoder at all, the bracketed symbol sequences from
    data.linearize_tree go through the baseline model with a larger vocabulary.

A SAWR cache holds a corpus's parser encoder states, written once by
extract-sawr so that training need not run the parser. It is a checkpoint
(synmt.checkpoint): record i is entry "i", and __meta__ binds the cache to
the parser checkpoint's sha256.
"""

from itertools import groupby
from operator import itemgetter

import numpy as np

from . import depparse, nn
from . import tensor as T
from .checkpoint import load_checkpoint, pack_meta, pop_meta, save_checkpoint
from .errors import DataError, ShapeError, StateError


class SawrProjection:
    """Positionwise affine map from parser encoder space into the NMT input."""

    def __init__(self, table, prefix, in_dim, out_dim, init):
        self.in_dim, self.out_dim = in_dim, out_dim
        self.W = table.new(f"{prefix}.W", (in_dim, out_dim), init)
        self.b = table.new(f"{prefix}.b", (1, out_dim), init)


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

    def __init__(self, table, prefix, input_dim, hidden_dim, init):
        self.input_dim, self.hidden_dim = input_dim, hidden_dim
        self.up = nn.GruParams(table, f"{prefix}.up", input_dim, hidden_dim, init)
        self.down = nn.GruParams(table, f"{prefix}.down", input_dim, hidden_dim, init)
        self.root = table.new(f"{prefix}.root", (1, hidden_dim), init)

    @property
    def out_dim(self):
        return 2 * self.hidden_dim


def batch_by_level(trees):
    """Evaluation schedule grouping nodes by computation depth.

    Returns {"up": levels, "down": levels, "kids": each tree's validate()
    child lists}; each level is a list of (tree_index, position) pairs whose
    states can be computed together once all earlier levels are done. Every
    node appears exactly once per direction.
    """
    up_levels, down_levels, all_kids = [], [], []
    for ti, tree in enumerate(trees):
        kids, order = tree.validate()
        all_kids.append(kids)
        down = [0] * (tree.n + 1)  # arcs from the root
        for v in order:
            for k in kids[v]:
                down[k] = down[v] + 1
        up = [0] * (tree.n + 1)  # arcs down to the deepest leaf
        for v in reversed(order):
            up[v] = 1 + max((up[k] for k in kids[v]), default=-1)
        for v in range(1, tree.n + 1):
            while len(up_levels) <= up[v]:
                up_levels.append([])
            while len(down_levels) <= down[v]:
                down_levels.append([])
            up_levels[up[v]].append((ti, v))
            down_levels[down[v]].append((ti, v))
    return {"up": up_levels, "down": down_levels, "kids": all_kids}


def tree_gru_encode_batch(emb, trees, p):
    """Level-batched bidirectional Tree-GRU over a batch of sentences.

    emb: [N, input_dim] rows of every sentence's tokens, sentence after
    sentence in the order of trees (N is the trees' total node count).
    Returns [N, 2*hidden] rows in the same order (bottom-up state + top-down
    state). One GRU step runs per level, not per node, on the rows of one
    input projection per direction, and reads only the rows it needs: a
    top-down level its heads' rows in the level just before, a bottom-up
    level its children's rows, summed through a [level, children] 0/1
    matrix. The work is linear in the depth.
    """
    offsets = np.cumsum([0] + [t.n for t in trees])
    if emb.shape[0] != offsets[-1]:
        raise ValueError(f"{emb.shape[0]} embedding rows for trees of {offsets[-1]} nodes")
    schedule = batch_by_level(trees)
    kids = schedule["kids"]

    def run(levels, cell, recurrent_rows):
        """recurrent_rows(level, where, outs) -> [L, hidden] recurrent input;
        where maps a finished node to (its level, its row in outs[level])."""
        where, outs, done_ids = {}, [], []
        xw = T.matmul(emb, cell.W)
        for li, level in enumerate(levels):
            ids = [offsets[ti] + v - 1 for ti, v in level]
            h_prev = recurrent_rows(level, where, outs)
            outs.append(T.gru_cell(T.take_rows(xw, np.asarray(ids)), h_prev, cell.U, cell.b))
            where.update((node, (li, r)) for r, node in enumerate(level))
            done_ids += ids
        return T.take_rows(T.concat(outs, axis=0) if len(outs) > 1 else outs[0],
                           np.argsort(done_ids))

    def sum_children(level, where, outs):
        # (child's level, child's row, parent's row), grouped by the child's level
        links = sorted(where[ti, k] + (r,) for r, (ti, v) in enumerate(level)
                       for k in kids[ti][v])
        if not links:  # the leaf level
            return p.up.zero_state(len(level))
        agg = np.zeros((len(level), len(links)))
        agg[[r for _, _, r in links], np.arange(len(links))] = 1.0
        parts = [T.take_rows(outs[li], np.asarray([row for _, row, _ in group]))
                 for li, group in groupby(links, key=itemgetter(0))]
        return T.matmul(T.constant(agg), T.concat(parts, axis=0) if len(parts) > 1 else parts[0])

    def head_state(level, where, outs):
        if not outs:  # the root level
            return T.take_rows(p.root, np.zeros(len(level), dtype=np.int64))
        ids = [where[ti, trees[ti].heads[v - 1]][1] for ti, v in level]
        return T.take_rows(outs[-1], np.asarray(ids))

    return T.concat([run(schedule["up"], p.up, sum_children),
                     run(schedule["down"], p.down, head_state)], axis=1)


# ---------------------------------------------------------------------------
# SAWR cache: parser encoder outputs computed once, bound to the producing
# checkpoint so stale caches cannot be loaded silently.

# Sentences per padded batch when a whole corpus is encoded.
ENCODE_CHUNK = 32


def extract_sawr(parser, corpus):
    """Parser encoder states for a corpus: a forward-only [n_i, out_dim] numpy
    array per sentence, in corpus order, and None for an empty line.

    Sentences are sorted by length and encoded ENCODE_CHUNK at a time, so
    each padded batch pads little. A row equals a one-sentence encode up to
    float reassociation, not bit for bit.
    """
    order = sorted((i for i, toks in enumerate(corpus) if toks),
                   key=lambda i: len(corpus[i]))
    out = [None] * len(corpus)
    for k in range(0, len(order), ENCODE_CHUNK):
        chunk = order[k:k + ENCODE_CHUNK]
        states = depparse.parser_encode([corpus[i] for i in chunk], parser).data
        for b, i in enumerate(chunk):
            out[i] = states[b, :len(corpus[i])]
    return out


def write_sawr_cache(path, encodings, parser_hash):
    """Store encodings as a checkpoint: record i as entry "i", a float64
    [n_i, dim] array, and parser_hash as __meta__'s "parser_sha256"."""
    state = {}
    for i, arr in enumerate(encodings):
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"record {i}: expected [n, dim] array, got {arr.shape}")
        state[str(i)] = arr
    state["__meta__"] = pack_meta({"parser_sha256": parser_hash})
    save_checkpoint(path, state)


def read_sawr_cache(path, parser_hash=None):
    """(encodings, stored parser hash) of a cache; refuses a cache from a
    different parser, and any entries but the 2-D float64 records "0".."n-1"."""
    state = load_checkpoint(path)
    stored_hash = pop_meta(state, path).get("parser_sha256")
    if not isinstance(stored_hash, str):
        raise DataError(f"{path}: no parser_sha256 in __meta__; not a SAWR cache")
    if parser_hash is not None and stored_hash != parser_hash:
        raise DataError(
            f"{path}: cache was built from parser checkpoint {stored_hash[:12]}..., "
            f"expected {parser_hash[:12]}...; re-run the extraction")
    for k, (name, arr) in enumerate(state.items()):
        if name != str(k):
            raise DataError(f"{path}: entry {name!r} where record {k} belongs")
        if arr.dtype != np.float64 or arr.ndim != 2:
            raise DataError(f"{path}: entry {name!r} is not a 2-D float64 array")
    return list(state.values()), stored_hash
