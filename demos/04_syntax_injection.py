"""
Three ways to feed source syntax into the translator
=====================================================

The translator accepts source-side syntax in three flavors:

* ``sawr``            concatenates a learned projection of the parser's
                      encoder states onto each word embedding,
* ``tree-rnn``        runs a bidirectional Tree-GRU over the dependency
                      tree and encodes its per-token states,
* ``tree-linearized`` rewrites the source as a bracket sequence mixing
                      words with dependency labels, no architecture change.

This script exercises each path at toy scale, including the freeze switch
that keeps the parser untouched while the translator trains around it.

    python3 demos/04_syntax_injection.py
"""

import os
import tempfile

import numpy as np

from synmt import nn
from synmt import tensor as T
from synmt.data import EOS, build_vocab, delinearize_tree, filter_and_batch, linearize_tree
from synmt.depparse import DependencyTree, train_parser
from synmt.errors import DataError
from synmt.seq2seq import TranslationModel, train_step
from synmt.syntax import (TreeGruParams, extract_sawr, read_sawr_cache,
                          set_parser_trainable, tree_gru_encode_batch,
                          write_sawr_cache)

# ---------------------------------------------------------------------------
# A parser to steal syntax from. Same toy grammar idea as the parsing demo,
# shrunk to two templates.

treebank = []
for d in ["the", "a"]:
    for n in ["cat", "dog", "bird"]:
        for v in ["sleeps", "sings"]:
            treebank.append(([d, n, v],
                             DependencyTree([2, 3, 0], ["det", "nsubj", "root"])))
        for n2 in ["cat", "dog"]:
            if n2 != n:
                treebank.append(([d, n, "sees", n2],
                                 DependencyTree([2, 3, 0, 3],
                                                ["det", "nsubj", "root", "obj"])))

parser, _ = train_parser(treebank, embed_dim=24, hidden_dim=24, mlp_dim=24,
                         layers=1, epochs=15, lr=2e-3, seed=9)
print(f"parser trained on {len(treebank)} sentences; "
      f"encoder emits {parser.out_dim} dims per token")

# ---------------------------------------------------------------------------
# Flavor 1: syntax-aware word representations. The parser encoder runs over
# the source and its states ride along with the embeddings.

sources = [tokens for tokens, _ in treebank]
encodings = extract_sawr(parser, sources)
print("extracted encodings:", len(encodings), "arrays, first two shapes",
      encodings[0].shape, encodings[1].shape)

# Extraction is the expensive half, so its output can be cached, as a
# checkpoint of one entry per sentence. The cache remembers which parser
# produced it and refuses to load for another.
with tempfile.TemporaryDirectory() as tmp:
    cache = os.path.join(tmp, "demo.sawr")
    write_sawr_cache(cache, encodings, parser_hash="c0ffee")
    back, _ = read_sawr_cache(cache, parser_hash="c0ffee")
    print("cache round trip intact:",
          all(np.array_equal(a, b) for a, b in zip(encodings, back)))
    try:
        read_sawr_cache(cache, parser_hash="deadbeef")
    except DataError as exc:
        print("stale-cache refusal:", str(exc).removeprefix(cache + ": ")[:66], "...")

# Attaching the parser shares its tensors into the translator's table under
# the parser.* prefix. By default they are frozen: the translator trains,
# the parser does not move by a single bit.
targets = [toks[::-1] for toks in sources]
src_vocab = build_vocab(sources, 100)
tgt_vocab = build_vocab(targets, 100)
pairs = [(src_vocab.ids(s), tgt_vocab.ids(t) + [EOS])
         for s, t in zip(sources, targets)]

model = TranslationModel(len(src_vocab), len(tgt_vocab), mode="sawr",
                         emb_dim=16, hidden_dim=32, sawr_dim=8,
                         dropout=0.0, parser=parser, seed=3)
opt = nn.Adam(model.table, lr=3e-3, clip=5.0)
batches = filter_and_batch(pairs, 50, 50, batch_size=10, seed=1,
                           src_tokens=sources)


def param_bytes(prefix):
    """The bytes of every parameter under a dotted prefix, in table order."""
    return b"".join(t.data.tobytes() for name, t in model.table.items()
                    if name.startswith(prefix + "."))


parser_bytes = param_bytes("parser")
proj_bytes = param_bytes("sawr")
for batch in batches:
    train_step(batch, model, opt)
print("after one epoch, parser bytes unchanged:", param_bytes("parser") == parser_bytes)
print("but the projection trained:       ", param_bytes("sawr") != proj_bytes)

# Flip the switch and the same training loop reaches into the parser too.
set_parser_trainable(model, True)
train_step(batches[0], model, opt)
print("after unfreezing, parser moved:   ", param_bytes("parser") != parser_bytes)

# ---------------------------------------------------------------------------
# Flavor 2: the bidirectional Tree-GRU. States flow bottom-up from the
# leaves and top-down from the root, so every token sees its whole tree.
# The encoder runs level by level over a whole batch of trees at once, and
# each sentence must come out as if it had been encoded alone.

table = nn.ParamTable()
tree_params = TreeGruParams(table, "tree", input_dim=6, hidden_dim=5,
                            init=nn.uniform_init(T.make_rng(21)))
trees = [DependencyTree([2, 3, 0, 3], ["det", "nsubj", "root", "obj"]),
         DependencyTree([0, 1, 2], ["root", "a", "b"]),
         DependencyTree([2, 0, 2, 2, 4], ["x", "root", "x", "y", "z"])]
embs = [T.constant(T.make_rng(30 + i).normal(size=(t.n, 6)))
        for i, t in enumerate(trees)]

# the batch is every sentence's rows stacked, and so is the output
batched = tree_gru_encode_batch(T.concat(embs, axis=0), trees, tree_params).data
starts = np.cumsum([0] + [t.n for t in trees])
gap = max(float(np.abs(batched[a:a + t.n] - tree_gru_encode_batch(e, [t], tree_params).data).max())
          for a, e, t in zip(starts, embs, trees))
print(f"\ntree-GRU batch vs one tree at a time, worst gap: {gap:.2e}")
print("per-token tree state size:", tree_params.out_dim,
      "(hidden from each direction)")

# mode="tree-rnn" wires that encoder in front of the usual sequence encoder,
# so the GRU consumes tree states instead of raw embeddings
tree_model = TranslationModel(len(src_vocab), len(tgt_vocab), mode="tree-rnn",
                              emb_dim=16, hidden_dim=32, tree_hidden=10,
                              dropout=0.0, seed=5)
print("tree-rnn feeds the sequence encoder", tree_model.enc_input_dim,
      "dims per token; sawr feeds", model.enc_input_dim,
      f"({model.emb_dim} embedding + {model.sawr_dim} projected)")

# ---------------------------------------------------------------------------
# Flavor 3: no new machinery at all. The tree becomes the source sentence:
# each token contributes an opening bracket tagged with its label, the word
# itself, and a closing bracket, in depth-first order.

tokens = ["the", "cat", "sees", "a", "dog"]
tree = DependencyTree([2, 3, 0, 5, 3], ["det", "nsubj", "root", "det", "obj"])
symbols = linearize_tree(tokens, tree)
print("\nlinearized:", " ".join(symbols))
back_tokens, back_tree = delinearize_tree(symbols)
print("round trip:", back_tokens == tokens and back_tree == tree)
print("a tree-linearized model just reads those", len(symbols),
      "symbols as its source text")
