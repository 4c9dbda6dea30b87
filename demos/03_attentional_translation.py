"""
An attentional GRU translator learning to reverse sequences
============================================================

The translation model is a bidirectional GRU encoder feeding an attentional
GRU decoder. Reversing a token sequence is a nice toy target for it: the
task is trivial to generate, impossible to solve without real alignment,
and the learned attention matrix should show a clean anti-diagonal.

    python3 demos/03_attentional_translation.py
"""

import numpy as np

from synmt import nn
from synmt import tensor as T
from synmt.data import BOS, EOS, build_vocab, filter_and_batch
from synmt.seq2seq import (TranslationModel, beam_search, decode_step, encode_for_decode,
                           train_step)

# ---------------------------------------------------------------------------
# Data: 150 random letter sequences, target = source reversed.

ALPHABET = list("abcdefgh")
rng = T.make_rng(11)

sources, targets = [], []
for _ in range(150):
    n = int(rng.integers(3, 9))
    toks = [ALPHABET[i] for i in rng.integers(0, len(ALPHABET), size=n)]
    sources.append(toks)
    targets.append(toks[::-1])

src_vocab = build_vocab(sources, 100)
tgt_vocab = build_vocab(targets, 100)

# Targets carry an explicit end-of-sentence id; sources do not need one
# because the encoder sees the whole sentence at once.
pairs = [(src_vocab.ids(s), tgt_vocab.ids(t) + [EOS])
         for s, t in zip(sources, targets)]

# ---------------------------------------------------------------------------
# Model and training loop. train_step runs one teacher-forced batch through
# the tape, backpropagates, lets Adam update every trainable tensor, and
# returns the batch loss and the gradient norm before clipping.

model = TranslationModel(len(src_vocab), len(tgt_vocab), mode="none",
                         emb_dim=32, hidden_dim=64, dropout=0.0, seed=2)
opt = nn.Adam(model.table, lr=3e-3, clip=5.0)

for epoch in range(1, 51):
    # reshuffling each epoch: fresh batch composition, same length bucketing
    batches = filter_and_batch(pairs, 50, 50, batch_size=16, seed=epoch)
    total = 0.0
    for batch in batches:
        loss, _ = train_step(batch, model, opt)
        total += loss
    if epoch % 10 == 0 or epoch == 1:
        print(f"epoch {epoch:2d}  mean per-token NLL {total / len(batches):.4f}")

# ---------------------------------------------------------------------------
# Decode an unseen sentence. beam_search returns the best Hypothesis with
# its token ids and total log-probability. With beam_size=1 it is greedy
# decoding: at each step it keeps the argmax token, as the step-by-step loop
# below does by hand.

sentence = list("cafebead")
ids = src_vocab.ids(sentence)

greedy = beam_search(ids, model, beam_size=1, max_len=20)
beam = beam_search(ids, model, beam_size=5, max_len=20)

h, s = encode_for_decode(model, ids)
c = T.zeros((1, model.hidden_dim))
chain, y = [], BOS
while y != EOS and len(chain) < 20:
    dist, s, c, _ = decode_step(y, c, s, h, model)
    y = int(np.argmax(dist.data[0]))
    chain.append(y)
assert greedy.ids == chain

print("\nsource        ", " ".join(sentence))
print("greedy        ", " ".join(tgt_vocab.tokens(greedy.ids)),
      f" logp {greedy.logp:.3f}")
print("beam (k=5)    ", " ".join(tgt_vocab.tokens(beam.ids)),
      f" logp {beam.logp:.3f}")
print("expected      ", " ".join(reversed(sentence)))

# Feeding the beam's ids back through decode_step gives the attention each
# step put on the source positions. For the reversal task the mass should
# walk backwards across the source.
print("\nattention (rows = output steps, columns = source positions)")
h, s = encode_for_decode(model, ids)
c = T.zeros((1, model.hidden_dim))
for step, y in enumerate([BOS] + beam.ids[:-1]):
    _, s, c, alpha = decode_step(y, c, s, h, model)
    row = alpha.data[0]
    cells = " ".join(f"{v:4.2f}" for v in row)
    print(f"  step {step}: {cells}   peak -> source[{int(np.argmax(row))}]")
