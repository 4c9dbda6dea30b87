"""
A biaffine dependency parser on a toy grammar
==============================================

The parser is a character of its own in this toolkit: besides producing
trees, its encoder states later feed the translator. This script builds a
small synthetic treebank, trains a parser on it, scores the result with
labeled attachment accuracy, and pokes at the projective decoder directly.

    python3 demos/02_dependency_parsing.py
"""

import numpy as np

from synmt.depparse import (DependencyTree, decode_projective, evaluate_las,
                            parse_sentence, train_parser)

# ---------------------------------------------------------------------------
# A toy grammar. Head indices are 1-based and 0 marks the root, so in
# "the cat sleeps" the determiner hangs off token 2 and the verb is the root.

DETS = ["the", "a"]
ADJS = ["small", "old", "happy"]
NOUNS = ["cat", "dog", "bird"]
VERBS = ["sleeps", "sings"]
TRANS = ["chases", "sees"]


def build_treebank():
    sents = []
    for d in DETS:
        for n in NOUNS:
            for v in VERBS:
                sents.append(([d, n, v],
                              DependencyTree([2, 3, 0], ["det", "nsubj", "root"])))
            for adj in ADJS:
                v = VERBS[len(sents) % len(VERBS)]
                sents.append(([d, adj, n, v],
                              DependencyTree([3, 3, 4, 0],
                                             ["det", "amod", "nsubj", "root"])))
    for v in TRANS:
        for n1 in NOUNS:
            for n2 in NOUNS:
                if n1 == n2:
                    continue
                sents.append((["the", n1, v, "a", n2],
                              DependencyTree([2, 3, 0, 5, 3],
                                             ["det", "nsubj", "root", "det", "obj"])))
    return sents


treebank = build_treebank()
print(f"treebank: {len(treebank)} sentences, "
      f"{sum(len(t) for t, _ in treebank)} tokens")

# Train a deliberately small model. The encoder is a stacked bidirectional
# LSTM; head and dependent representations meet in biaffine scorers, one
# for arcs and one bilinear form per label. Training sentences of one length
# share a batch, and each batch is scored in one pass over all its arcs and
# labels.
model, history = train_parser(
    treebank, embed_dim=24, hidden_dim=24, mlp_dim=24, layers=1,
    epochs=30, lr=2e-3, batch_size=16, seed=4)
print(f"per-token NLL: {history[0]:.3f} (epoch 1) -> {history[-1]:.3f} "
      f"(epoch {len(history)})")

# How well does it fit its own training data?
pred = [parse_sentence(tokens, model) for tokens, _ in treebank]
uas, las = evaluate_las(pred, [tree for _, tree in treebank])
print(f"training accuracy: UAS {uas:.3f}  LAS {las:.3f}")

# Parse a combination the treebank never contained.
tokens = ["a", "happy", "bird", "sings"]
tree = parse_sentence(tokens, model)
print("\nunseen sentence:", " ".join(tokens))
for i, tok in enumerate(tokens):
    head = "ROOT" if tree.heads[i] == 0 else tokens[tree.heads[i] - 1]
    print(f"  {tok:>6} --{tree.labels[i]}--> {head}")

# ---------------------------------------------------------------------------
# The decoder itself is just a function over a score matrix. Row h, column
# d-1 holds the score of attaching token d under head h (row 0 is the root).
# It returns the best projective tree with exactly one root, which is why
# the second word below cannot keep its favorite head. It picks heads only
# (every label is "dep"); parse_sentence then labels the chosen arcs.

scores = np.array([
    [9.0, 8.0],   # root -> w1, root -> w2: both words would love the root,
    [0.0, 1.0],   # w1 -> w2
    [2.0, 0.0],   # w2 -> w1: but only one of them may have it.
])
best = decode_projective(scores)
print("\nhand-made score matrix decodes to heads", best.heads,
      "(root keeps w1, w1 adopts w2)")
