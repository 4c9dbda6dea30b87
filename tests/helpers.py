"""Shared test utilities: tree generators and an exhaustive projective oracle.

Everything here is deliberately independent of the package's decoder so tests
compare two implementations, not one implementation with itself.
"""

from contextlib import contextmanager
from itertools import product
from unittest import mock

import numpy as np

from synmt.depparse import DependencyTree


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


def enumerate_best(model, src, max_len):
    """Exhaustive search over all EOS-terminated sequences of length <= max_len."""
    from synmt.data import BOS, EOS
    from synmt.seq2seq import decode_step, encode_for_decode
    from synmt import tensor as T

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


BAD_METAS = [b"{bad", b"\xff{}", b"[1, 2]", None]


def full_length_run_beam(step_fn, states, beam_size, max_len, vocab_size):
    """The beam loop without early stop: it runs to max_len, or until no
    hypothesis is live. Same contract as seq2seq._run_beam, kept as the
    reference that the stopping rule must reproduce exactly.
    """
    from synmt.data import BOS, EOS
    from synmt.seq2seq import Hypothesis

    def row(k):
        return [(s[k].copy(), c[k].copy()) for s, c in states]

    active = [{"ids": (), "logp": 0.0, "step_logps": (), "alphas": ()}]
    completed = []
    for _ in range(max_len):
        y_prev = np.array([hyp["ids"][-1] if hyp["ids"] else BOS for hyp in active],
                          dtype=np.int64)
        logp, states, alpha = step_fn(y_prev, states)
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
                completed.append((hyp, row(pk)))
            else:
                new_active.append(hyp)
                rows.append(pk)
        if not new_active:
            active = []
            break
        active = new_active
        states = [(s[rows], c[rows]) for s, c in states]

    def build(hyp, snap, done):
        s_rows, c_rows = [s for s, _ in snap], [c for _, c in snap]
        if len(snap) == 1:
            s_rows, c_rows = s_rows[0], c_rows[0]
        return Hypothesis(hyp["ids"], hyp["logp"], s_rows, c_rows,
                          hyp["alphas"], hyp["step_logps"], done)

    if completed:
        best, snap = max(completed, key=lambda pair: pair[0]["logp"])
        return build(best, snap, True)
    k = max(range(len(active)), key=lambda i: active[i]["logp"])
    return build(active[k], row(k), False)


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
