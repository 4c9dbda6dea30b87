"""What a training step holds beyond its start, at the bench's train-wide
shape, and how much of the memory it copies per target step.

Traced bytes and call counts only, no timings: they repeat on any machine.
"""

import tracemalloc

import numpy as np
import pytest

from synmt import nn
from synmt import tensor as T
from synmt.data import BOS, EOS, Batch, Vocabulary, linearize_tree
from synmt.depparse import ParserModel
from synmt.seq2seq import TranslationModel, sequence_loss, train_step

from helpers import random_projective_tree

MiB = 2 ** 20


def copy_batch(rng, vocab, lens):
    """A copy-task batch: each target is its source plus EOS."""
    src = [[int(v) for v in rng.integers(4, vocab, n)] for n in lens]
    return Batch(src, [s + [EOS] for s in src])


def test_a_wide_training_step_peaks_at_its_gradients():
    # V 4,100 on both sides, emb 256, hidden 512, 20 sentences of 7-11
    # tokens, so 12 target steps. After a warm-up step Adam holds its
    # moments, and a step's peak over its start is the gradients it makes
    # (one per parameter) plus what the sweep and the update hold besides.
    model = TranslationModel(4100, 4100, emb_dim=256, hidden_dim=512, dropout=0.0, seed=3)
    opt = nn.Adam(model.table, lr=0.003, clip=5.0)
    batch = copy_batch(np.random.default_rng(1), 4100, [7 + i % 5 for i in range(20)])
    assert batch.tgt.shape == (20, 12)
    train_step(batch, model, opt)
    grad_bytes = sum(t.data.nbytes for _, t in model.table.items())
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        train_step(batch, model, opt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    over = (peak - start - grad_bytes) / MiB
    assert over <= 4.0, f"peak is the gradients + {over:.1f} MiB"


def test_embedding_gradients_and_moments_hold_only_the_rows_read():
    # the same shape: a batch reads about 150 of each table's 4,100 rows,
    # and its gradient holds those rows and their ids; Adam's moments hold
    # every row read so far, and no other
    model = TranslationModel(4100, 4100, emb_dim=256, hidden_dim=512, dropout=0.0, seed=3)
    names = ("src_emb", "tgt_emb")
    held = {name: [] for name in names}

    class Spy(nn.Adam):
        def step(self):
            for name in names:
                g = model.table[name].grad
                held[name].append((len(g.rows), g.values.nbytes + g.rows.nbytes))
            return super().step()

    opt = Spy(model.table, lr=0.003, clip=5.0)
    rng = np.random.default_rng(1)
    read = {name: set() for name in names}
    for k in range(3):
        batch = copy_batch(rng, 4100, [7 + (i + k) % 5 for i in range(20)])
        batch_rows = {"src_emb": set(batch.src.ravel().tolist()),
                      "tgt_emb": {BOS} | set(batch.tgt[:, :-1].ravel().tolist())}
        train_step(batch, model, opt)
        for name in names:
            rows, nbytes = held[name][-1]
            assert rows == len(batch_rows[name]) < 200
            assert nbytes <= rows * 256 * 8 + rows * 8
            read[name] |= batch_rows[name]
            moments = opt.m[name].nbytes + opt.v[name].nbytes
            assert moments == 2 * 8 * 256 * len(read[name]) < 2 * 8 * 256 * 4100 // 4


@pytest.mark.parametrize("mode", ["baseline", "sawr-cached", "sawr-tuned", "tree-rnn",
                                  "tree-linearized"])
def test_every_mode_reads_each_embedding_table_once_by_rows(mode):
    # train_step's taped pass over tables more than twice as wide as a
    # batch's reads: a table read twice on the tape would get a dense
    # gradient, with the same bits and the whole table's memory
    V, words, rng = 400, [f"w{i}" for i in range(300)], np.random.default_rng(5)
    lens = [3, 5, 4]
    tokens = [[str(w) for w in rng.choice(words, n)] for n in lens]
    trees = [random_projective_tree(n, rng) for n in lens]
    tgt = [[int(v) for v in rng.integers(4, V, n)] + [EOS] for n in lens]
    kw = {"emb_dim": 6, "hidden_dim": 8, "dropout": 0.0, "seed": 2}
    parser = encodings = None
    if mode == "sawr-tuned":
        parser = ParserModel({"<unk>": 0, **{w: i + 1 for i, w in enumerate(words)}}, ["dep"],
                             embed_dim=4, hidden_dim=3, mlp_dim=3, layers=1)
        kw.update(mode="sawr", parser=parser, parser_trainable=True)
    elif mode == "sawr-cached":
        encodings = [rng.normal(size=(n, 5)) for n in lens]
        kw.update(mode="sawr", sawr_in_dim=5)
    elif mode != "baseline":
        kw.update(mode=mode)
    units = ([linearize_tree(t, tree) for t, tree in zip(tokens, trees)]
             if mode == "tree-linearized" else tokens)
    vocab = Vocabulary(words + sorted({u for s in units for u in s} - set(words)))
    src = [vocab.ids(u) for u in units]
    batch = Batch(src, tgt, trees=trees if mode == "tree-rnn" else None,
                  encodings=encodings, src_tokens=tokens)
    model = TranslationModel(V, V, **kw)

    read = {"src_emb": ({i for s in src for i in s} if mode == "tree-rnn"
                        else set(batch.src.ravel().tolist())),
            "tgt_emb": {BOS} | set(batch.tgt[:, :-1].ravel().tolist())}
    if parser is not None:
        ids = np.zeros(batch.src.shape, dtype=np.int64)
        for b, toks in enumerate(tokens):
            ids[b, :len(toks)] = parser.word_ids(toks)
        read["parser.emb"] = set(ids.ravel().tolist())
    reads = {"src_emb": batch.src.size, "tgt_emb": batch.tgt.size,
             "parser.emb": batch.src.size}
    for name in read:
        assert 2 * reads[name] < model.table[name].shape[0], name

    class Snapshot:
        def step(self):
            self.grads = model.table.gradients()
            return 0.0

    opt = Snapshot()
    train_step(batch, model, opt)
    assert {name for name, g in opt.grads.items() if type(g) is T.RowGrad} == set(read)
    for name, rows in read.items():
        assert opt.grads[name].rows.tolist() == sorted(rows), name


def test_the_memory_is_transposed_once_per_batch(monkeypatch):
    # the attention keys are formed once per batch, so the number of
    # transposes does not grow with the number of target steps
    transpose, calls = T.transpose, []

    def counted(x):
        calls.append(x.shape)
        return transpose(x)

    monkeypatch.setattr(T, "transpose", counted)
    model = TranslationModel(30, 30, emb_dim=6, hidden_dim=8, dropout=0.0, seed=2)
    counts = []
    for tgt_len in (2, 5, 11):
        calls.clear()
        batch = copy_batch(np.random.default_rng(tgt_len), 30, [tgt_len - 1, 1])
        assert batch.tgt.shape[1] == tgt_len
        with T.Tape():
            sequence_loss(batch, model)
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2], counts


@pytest.mark.parametrize("tgt_len", [2, 7])
def test_attention_and_decoder_weights_are_read_once_per_batch(tgt_len):
    # att.W feeds one product, the keys; dec.W is read as two row blocks,
    # one for all target embeddings and one for the per-step contexts
    from helpers import records_on

    model = TranslationModel(30, 30, emb_dim=6, hidden_dim=8, dropout=0.0, seed=2)
    batch = copy_batch(np.random.default_rng(4), 30, [tgt_len - 1, 2])
    with T.Tape() as tape:
        sequence_loss(batch, model)
        counts = [records_on(tape, model.table[name]) for name in ("att.W", "dec.W")]
    assert counts == [1, 2]
