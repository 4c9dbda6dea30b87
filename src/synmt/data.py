"""Corpus plumbing: vocabularies, BPE subwords, batching, tree linearization.

File conventions: parallel corpora are two aligned UTF-8 text files, one
whitespace-tokenized sentence per line. Vocabularies are not files of their
own: a translation checkpoint stores its two in its __meta__ entry.
"""

from collections import Counter

import numpy as np

from . import tensor as T
from .checkpoint import read_lines
from .depparse import DependencyTree
from .errors import DataError

PAD, UNK, BOS, EOS = 0, 1, 2, 3
RESERVED = ["<pad>", "<unk>", "<s>", "</s>"]


class Vocabulary:
    """Token ids, with 0..3 reserved for PAD, UNK, BOS, EOS; tokens, the
    non-empty strings that get ids 4, 5, ..."""

    def __init__(self, tokens):
        self._tokens = list(RESERVED)
        self._ids = {tok: i for i, tok in enumerate(RESERVED)}
        for tok in tokens:
            if not isinstance(tok, str) or not tok:
                raise ValueError(f"token {tok!r} is not a non-empty string")
            if tok in self._ids:
                raise ValueError(f"duplicate or reserved token {tok!r}")
            self._ids[tok] = len(self._tokens)
            self._tokens.append(tok)

    def __len__(self):
        return len(self._tokens)

    def __contains__(self, tok):
        return tok in self._ids

    def id(self, tok):
        return self._ids.get(tok, UNK)

    def ids(self, tokens):
        return [self.id(t) for t in tokens]

    def token(self, idx):
        return self._tokens[idx]

    def tokens(self, ids, strip_reserved=True):
        out = [self._tokens[i] for i in ids]
        if strip_reserved:
            out = [t for t in out if t not in RESERVED]
        return out


def build_vocab(corpus, max_size):
    """Keep the max_size - 4 most frequent tokens; ties go to first occurrence."""
    if max_size <= 4:
        raise ValueError(f"max_size must exceed the 4 reserved ids, got {max_size}")
    counts = Counter()
    first_seen = {}
    empty = True
    for sent in corpus:
        empty = False
        for tok in sent:
            counts[tok] += 1
            if tok not in first_seen:
                first_seen[tok] = len(first_seen)
    if empty:
        raise DataError("cannot build a vocabulary from an empty corpus")
    ranked = sorted(counts, key=lambda t: (-counts[t], first_seen[t]))
    return Vocabulary(ranked[:max_size - 4])


def read_corpus(path):
    return [line.split() for line in read_lines(path)]


# ---------------------------------------------------------------------------
# Byte-pair encoding. Merges are learned on character sequences; when a model
# is applied, every non-final unit of a word carries the "@@" suffix, which is
# what decode_bpe strips to rebuild words.

MARKER = "@@"


class BpeModel:
    def __init__(self, merges):
        self.merges = [tuple(m) for m in merges]


def learn_bpe(word_freqs, num_merges):
    """Greedy merges over a word -> frequency table.

    Highest pair frequency first, lexicographically smallest pair on ties;
    stops early once no pair occurs at least twice.
    """
    if num_merges < 0:
        raise ValueError("num_merges must be >= 0")
    seqs = [(list(word), freq) for word, freq in word_freqs.items()]
    merges = []
    for _ in range(num_merges):
        pairs = Counter()
        for seq, freq in seqs:
            for a, b in zip(seq, seq[1:]):
                pairs[a, b] += freq
        if not pairs:
            break
        best = min(pairs, key=lambda p: (-pairs[p], p))
        if pairs[best] < 2:
            break
        merges.append(best)
        for seq, _ in seqs:
            _merge_in_place(seq, best)
    return BpeModel(merges)


def _merge_in_place(seq, pair):
    a, b = pair
    i = 0
    while i < len(seq) - 1:
        if seq[i] == a and seq[i + 1] == b:
            seq[i] = a + b
            del seq[i + 1]
        else:
            i += 1


def apply_bpe(tokens, model):
    """Segment each token; non-final units get the continuation marker."""
    out = []
    for tok in tokens:
        seq = list(tok)
        for pair in model.merges:
            if len(seq) == 1:
                break
            _merge_in_place(seq, pair)
        out.extend(u + MARKER for u in seq[:-1])
        if seq:
            out.append(seq[-1])
    return out


def decode_bpe(units):
    """Inverse of apply_bpe: glue marker-carrying units to their successor."""
    out = []
    buf = ""
    for unit in units:
        if unit.endswith(MARKER):
            buf += unit[:-len(MARKER)]
        else:
            out.append(buf + unit)
            buf = ""
    if buf:
        out.append(buf)  # dangling continuation; keep what we have
    return out


# ---------------------------------------------------------------------------
# Batching


class Batch:
    """Padded id matrices plus true lengths; optional aligned syntax extras.

    src and tgt are [B, max_len] int arrays padded with PAD strictly after
    each sentence's true length. trees align 1:1 with pre-BPE source tokens.
    """

    def __init__(self, src_seqs, tgt_seqs, trees=None, encodings=None,
                 src_tokens=None):
        self.size = len(src_seqs)
        self.src_lens = np.array([len(s) for s in src_seqs])
        self.tgt_lens = np.array([len(t) for t in tgt_seqs])
        self.src = _pad(src_seqs)
        self.tgt = _pad(tgt_seqs)
        self.trees = trees
        self.encodings = encodings
        self.src_tokens = src_tokens  # raw strings, for live parser encoding


def _pad(seqs):
    width = max(len(s) for s in seqs)
    out = np.full((len(seqs), width), PAD, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, :len(s)] = s
    return out


def filter_and_batch(pairs, max_src_len, max_tgt_len, batch_size, seed,
                     trees=None, encodings=None, src_tokens=None):
    """Drop over-length pairs, shuffle by seed, bucket by source length, pad.

    pairs: list of (src_ids, tgt_ids). Sentences are never truncated, only
    dropped. Bucketing sorts the shuffled survivors by source length so each
    batch pads little; the batch order itself is then shuffled once more.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if trees is not None and len(trees) != len(pairs):
        raise ValueError(f"{len(trees)} trees for {len(pairs)} pairs")
    if encodings is not None and len(encodings) != len(pairs):
        raise ValueError(f"{len(encodings)} encodings for {len(pairs)} pairs")
    if src_tokens is not None and len(src_tokens) != len(pairs):
        raise ValueError(f"{len(src_tokens)} token lists for {len(pairs)} pairs")
    kept = [i for i, (s, t) in enumerate(pairs)
            if len(s) <= max_src_len and len(t) <= max_tgt_len and len(s) and len(t)]
    if not kept:
        raise DataError("every pair was filtered out by the length limits")
    rng = T.make_rng(seed)
    kept = [kept[i] for i in rng.permutation(len(kept))]
    kept.sort(key=lambda i: len(pairs[i][0]))  # stable: equal lengths stay shuffled
    chunks = [kept[k:k + batch_size] for k in range(0, len(kept), batch_size)]
    order = rng.permutation(len(chunks))
    batches = []
    for ci in order:
        members = chunks[ci]
        batches.append(Batch(
            [pairs[i][0] for i in members],
            [pairs[i][1] for i in members],
            trees=[trees[i] for i in members] if trees is not None else None,
            encodings=[encodings[i] for i in members] if encodings is not None else None,
            src_tokens=[src_tokens[i] for i in members] if src_tokens is not None else None,
        ))
    return batches


# ---------------------------------------------------------------------------
# Dependency-tree linearization: depth-first brackets mixing words with labels.
# Each token contributes exactly "(<label>", the word, and ")", so a sentence
# of n words becomes 3n symbols. Words must not start with "(" or equal ")".


def linearize_tree(tokens, tree):
    if len(tokens) != tree.n:
        raise ValueError(f"{len(tokens)} tokens for a {tree.n}-node tree")
    kids, _ = tree.validate()
    if not tree.is_projective():
        raise ValueError("cannot linearize a non-projective tree")
    out = []
    # an explicit stack, so depth costs no recursion: a node (an int) opens
    # its bracket and pushes the rest of its span; a symbol (a str) is emitted
    stack = list(kids[0])
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        out.append("(" + tree.labels[item - 1])
        stack.append(")")
        stack.extend(reversed([d for d in kids[item] if d > item]))
        stack.append(tokens[item - 1])
        stack.extend(reversed([d for d in kids[item] if d < item]))
    return out


def delinearize_tree(symbols):
    """Rebuild (tokens, tree) from linearize_tree output."""
    top = []  # forest under the virtual root; must end up with one tree
    stack = []
    node = None
    in_order = []  # nodes in surface order, as their words appear
    for sym in symbols:
        if sym.startswith("(") and len(sym) > 1:
            child = {"label": sym[1:], "word": None, "children": []}
            (node["children"] if node else top).append(child)
            stack.append(node)
            node = child
        elif sym == ")":
            if node is None:
                raise DataError("unbalanced close bracket")
            if node["word"] is None:
                raise DataError(f"node {node['label']!r} closed without a word")
            node = stack.pop()
        else:
            if node is None or node["word"] is not None:
                raise DataError(f"unexpected word {sym!r}")
            node["word"] = sym
            node["pos"] = len(in_order)
            in_order.append(node)
    if node is not None or len(top) != 1:
        raise DataError("symbols do not form one complete tree")
    tokens = [nd["word"] for nd in in_order]
    heads = [0] * len(in_order)
    labels = [nd["label"] for nd in in_order]
    stack = list(top)
    while stack:
        nd = stack.pop()
        for child in nd["children"]:
            heads[child["pos"]] = nd["pos"] + 1
        stack.extend(nd["children"])
    return tokens, DependencyTree(heads, labels)
