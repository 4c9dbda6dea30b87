"""Seeded input generators for the benchmark workloads.

Every generator takes a numpy Generator, so one workload seed fixes every
file a workload writes. The program under test only ever sees these files
and its argv.
"""

import numpy as np

LABELS = ("det", "amod", "nsubj", "obj", "advmod", "nmod")

# Wide corpora use CJK ideographs: one code point per token, all distinct,
# none of them a bracket or whitespace.
WIDE_FIRST_CODE_POINT = 0x4E00


def rng_for(seed, stream):
    """Independent generator per (workload seed, input stream name)."""
    key = [seed] + [ord(c) for c in stream]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def projective_tree(n, rng):
    """Random single-rooted projective head vector and labels for n tokens.

    Span construction: a head is drawn inside the span, each side is cut
    into contiguous chunks, and every chunk's own head attaches to it.
    """
    heads = [0] * n
    todo = [(1, n, 0)]
    while todo:
        lo, hi, head_of = todo.pop()
        h = int(rng.integers(lo, hi + 1))
        heads[h - 1] = head_of
        for a, b in _chunks(lo, h - 1, rng) + _chunks(h + 1, hi, rng):
            todo.append((a, b, h))
    labels = [str(rng.choice(LABELS)) for _ in range(n)]
    labels[heads.index(0)] = "root"
    return heads, labels


def _chunks(lo, hi, rng):
    spans = []
    start = lo
    while start <= hi:
        end = int(rng.integers(start, hi + 1))
        spans.append((start, end))
        start = end + 1
    return spans


def lengths(rng, count, min_len, max_len):
    """count lengths spread evenly over min_len..max_len, in random order.

    Only the order depends on the seed, so every seed sets the same amount
    of work.
    """
    span = np.linspace(min_len, max_len, count) if count > 1 else [min_len]
    return [int(round(n)) for n in rng.permutation(np.asarray(span))]


def copy_corpus(rng, pairs, vocab=40, min_len=3, max_len=9):
    """Sentences over words w00..w{vocab-1}, each with an aligned tree."""
    words = [f"w{i:02d}" for i in range(vocab)]
    sents, trees = [], []
    for n in lengths(rng, pairs, min_len, max_len):
        sents.append([words[int(k)] for k in rng.integers(0, vocab, size=n)])
        trees.append(projective_tree(n, rng))
    return sents, trees


def wide_corpus(rng, symbols, min_len, max_len):
    """Single-code-point sentences in which every one of `symbols` occurs.

    The symbols are dealt out in a random order, so the sentences cover the
    whole inventory; every token is one character, so BPE has nothing to
    merge and the target vocabulary stays `symbols` wide.
    """
    alphabet = [chr(WIDE_FIRST_CODE_POINT + i) for i in range(symbols)]
    deck = [alphabet[int(k)] for k in rng.permutation(symbols)]
    sents = []
    while deck:
        for n in lengths(rng, max_len - min_len + 1, min_len, max_len):
            if deck:
                sents.append(deck[:n])
                deck = deck[n:]
    short = min_len - len(sents[-1])
    if short > 0:  # top up the last sentence with random repeats
        sents[-1] += [alphabet[int(k)] for k in rng.integers(0, symbols, size=short)]
    return sents


def write_lines(path, sents):
    with open(path, "w", encoding="utf-8") as f:
        for toks in sents:
            f.write(" ".join(toks) + "\n")


def write_trees(path, sents, trees):
    """4-column treebank: index, form, head, label; blank line between."""
    with open(path, "w", encoding="utf-8") as f:
        for toks, (heads, labels) in zip(sents, trees):
            for i, tok in enumerate(toks):
                f.write(f"{i + 1}\t{tok}\t{heads[i]}\t{labels[i]}\n")
            f.write("\n")
