"""Acceptance checks: one numbered criterion per test, one visible line each.

Every test prints

    criterion NN [PASS|FAIL] <name>: <detail>

directly to the terminal (bypassing capture), so a verbose run of this file
doubles as the sign-off report. Oracles stay independent of the code under
test: exhaustive enumeration for both decoders, hand-worked n-gram counts
plus a separate reference implementation for BLEU, naive recursion for the
batched Tree-GRU, and numeric differentiation for every gradient.

Two unnumbered checks after criterion 10 reuse its trained models to pin the
decoder's cost: counters, not timings, so they hold on any machine.
"""

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from synmt import nn, seq2seq, syntax
from synmt import tensor as T
from synmt.cli import main
from synmt.data import (Vocabulary, apply_bpe, decode_bpe, delinearize_tree,
                        filter_and_batch, learn_bpe, linearize_tree,
                        read_corpus)
from synmt.depparse import (ParserModel, decode_projective, evaluate_las,
                            normalize_root, parse_sentence, parser_encode,
                            read_treebank, score_arcs, train_parser,
                            tree_log_loss)
from synmt.evaluate import bleu, bootstrap_significance
from synmt.seq2seq import (TranslationModel, attend, beam_search, decode_step,
                           encode_for_decode, greedy_decode, sequence_loss,
                           train_step)

from helpers import (brute_force_decode, enumerate_best,
                     random_projective_tree)

FX = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(capsys, num, name):
    notes = {}
    try:
        yield notes
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:02d} [FAIL] {name}", flush=True)
        raise
    tail = f": {notes['detail']}" if notes.get("detail") else ""
    with capsys.disabled():
        print(f"criterion {num:02d} [PASS] {name}{tail}", flush=True)


# ---------------------------------------------------------------------------
# 1. Gradients. Each family builds a fresh small model per trial and numeric-
# checks one rotating parameter, so 100 trials sweep different tensors,
# shapes, and random draws rather than re-testing one configuration.


def _grad_gru(i):
    rng = T.make_rng(9000 + i)
    table = nn.ParamTable()
    cell = nn.GruParams(table, "g", 3, 2, T.make_rng(100 + i))
    x = T.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    h = T.Tensor(rng.normal(size=(2, 2)), requires_grad=True)

    def loss(_):
        return T.sum_all(T.tanh(nn.gru_step(x, h, cell)))

    targets = [x, h] + [t for _, t in table.items()]
    return T.grad_check(loss, targets[i % len(targets)])


def _grad_lstm(i):
    rng = T.make_rng(9100 + i)
    table = nn.ParamTable()
    cell = nn.LstmParams(table, "l", 2, 2, T.make_rng(200 + i))
    x = T.Tensor(rng.normal(size=(1, 2)), requires_grad=True)
    h0 = T.Tensor(rng.normal(size=(1, 2)), requires_grad=True)
    c0 = T.Tensor(rng.normal(size=(1, 2)), requires_grad=True)

    def loss(_):
        h, c = nn.lstm_step(x, (h0, c0), cell)
        return T.add(T.sum_all(T.mul(h, h)), T.sum_all(T.tanh(c)))

    targets = [x, h0, c0] + [t for _, t in table.items()]
    return T.grad_check(loss, targets[i % len(targets)])


def _grad_birnn(i):
    rng = T.make_rng(9200 + i)
    table = nn.ParamTable()
    fwd = nn.GruParams(table, "f", 2, 2, T.make_rng(300 + i))
    bwd = nn.GruParams(table, "b", 2, 2, T.make_rng(301 + i))
    xs = [T.Tensor(rng.normal(size=(1, 2)), requires_grad=True)
          for _ in range(1 + i % 4)]

    def loss(_):
        return T.sum_all(T.tanh(T.concat(nn.birnn_encode(xs, fwd, bwd), axis=0)))

    targets = xs + [t for _, t in table.items()]
    return T.grad_check(loss, targets[i % len(targets)])


def _grad_attend(i):
    rng = T.make_rng(9300 + i)
    n, k = 1 + i % 4, 1 + i % 2
    h = T.Tensor(rng.normal(size=(n, 3)), requires_grad=True)
    s = T.Tensor(rng.normal(size=(k, 3)), requires_grad=True)
    Wa = T.Tensor(0.5 * rng.normal(size=(3, 3)), requires_grad=True)

    def loss(_):
        c, alpha = attend(s, h, Wa)
        # touches both outputs so softmax gradients are exercised directly
        return T.add(T.sum_all(T.tanh(c)), T.sum_all(T.mul(alpha, alpha)))

    targets = (s, h, Wa)
    return T.grad_check(loss, targets[i % 3])


DECODER_PARAMS = ("att.W", "tgt_emb", "dec.cand.W", "dec.update.U",
                  "out.hidden.W", "out.logits.b", "init.W", "src_emb",
                  "enc.fwd.reset.W")


def _grad_decoder(i):
    m = TranslationModel(7, 5, emb_dim=4, hidden_dim=4, dropout=0.0,
                         seed=400 + i)
    src = [4, 5, 6][: 2 + i % 2]
    y_prev = (2, 4, 3)[i % 3]
    picked = i % 5

    def loss(_):
        h, s0 = encode_for_decode(m, src)
        dist, _, _, _ = decode_step(y_prev, T.zeros((1, 4)), s0, h, m)
        return T.scale(T.log(T.pick(dist, [picked])), -1.0)

    return T.grad_check(loss, m.table[DECODER_PARAMS[i % len(DECODER_PARAMS)]])


SAWR_PARAMS = ("sawr.W", "sawr.b", "parser.emb", "parser.root",
               "parser.arc.head.W", "parser.enc.l0.fwd.input.W")


def _grad_sawr(i):
    parser = ParserModel({"<unk>": 0, "a": 1, "b": 2, "c": 3},
                         ["det", "root", "obj"], embed_dim=3, hidden_dim=2,
                         mlp_dim=3, layers=1, seed=500 + i)
    m = TranslationModel(9, 7, mode="sawr", emb_dim=4, hidden_dim=4,
                         sawr_dim=2, dropout=0.0, parser=parser,
                         parser_trainable=True, seed=600 + i)
    toks = (["a", "b"], ["c", "a", "b"])[i % 2]
    pair = (([4, 5], [4, 3]), ([6, 4, 5], [5, 4, 3]))[i % 2]
    batch = filter_and_batch([pair], 50, 50, 1, seed=1, src_tokens=[toks])[0]

    def loss(_):
        return sequence_loss(batch, m, mode="eval")

    return T.grad_check(loss, m.table[SAWR_PARAMS[i % len(SAWR_PARAMS)]])


BIAFFINE_PARAMS = ("emb", "root", "arc.U", "arc.head.W", "arc.dep.b",
                   "lab.U.0", "lab.U.2", "lab.head.W", "lab.dep.b",
                   "enc.l0.fwd.input.W", "enc.l0.bwd.cell.U")


def _grad_biaffine(i):
    model = ParserModel({"<unk>": 0, "a": 1, "b": 2}, ["root", "x", "y"],
                        embed_dim=3, hidden_dim=2, mlp_dim=3, layers=1,
                        seed=700 + i)
    rng = T.make_rng(9400 + i)
    n = 2 + i % 3
    gold = random_projective_tree(n, rng, labels=("x", "y"))
    toks = [("a", "b")[int(rng.integers(0, 2))] for _ in range(n)]

    def loss(_):
        enc = parser_encode(toks, model)
        return T.scale(tree_log_loss(score_arcs(enc, model), gold, model),
                       1.0 / n)

    return T.grad_check(loss, model.table[BIAFFINE_PARAMS[i % len(BIAFFINE_PARAMS)]])


TREE_PARAMS = ("emb", "tree.root", "tree.up.update.W", "tree.up.reset.U",
               "tree.up.cand.b", "tree.down.update.U", "tree.down.cand.W",
               "tree.down.reset.b")


def _grad_tree_gru(i):
    rng = T.make_rng(9500 + i)
    table = nn.ParamTable()
    p = syntax.TreeGruParams(table, "tree", 3, 3, T.make_rng(800 + i))
    tree = random_projective_tree(1 + i % 4, rng)
    table.add("emb", T.init_uniform((tree.n, 3), -0.5, 0.5, rng=rng))

    def loss(_):
        return T.sum_all(T.tanh(syntax.tree_gru_encode(table["emb"], tree, p)))

    return T.grad_check(loss, table[TREE_PARAMS[i % len(TREE_PARAMS)]])


GRAD_FAMILIES = [
    ("gru step", _grad_gru),
    ("lstm step", _grad_lstm),
    ("bidirectional encoder", _grad_birnn),
    ("attention", _grad_attend),
    ("decoder step + output", _grad_decoder),
    ("sawr tuned path", _grad_sawr),
    ("biaffine scorer + tree loss", _grad_biaffine),
    ("tree-gru", _grad_tree_gru),
]


def test_criterion_01_gradient_suite(capsys):
    with criterion(capsys, 1, "gradient checks across all model families") as notes:
        start = time.perf_counter()
        worst = 0.0
        for fam_name, family in GRAD_FAMILIES:
            for i in range(100):
                err = family(i)
                assert err < 1e-4, f"{fam_name} trial {i}: error {err:.3e}"
                worst = max(worst, err)
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0
        notes["detail"] = (f"8 families x 100 trials, max error {worst:.1e}, "
                           f"{elapsed:.0f}s")


def test_criterion_02_probability_invariants(capsys):
    with criterion(capsys, 2, "attention and output rows are distributions") as notes:
        rows = trials = 0
        for model_seed in range(100):
            m = TranslationModel(10, 6, emb_dim=4, hidden_dim=4, dropout=0.0,
                                 seed=model_seed)
            rng = T.make_rng(5000 + model_seed)
            for _ in range(10):
                trials += 1
                n = int(rng.integers(1, 7))
                src = [int(v) for v in rng.integers(4, 10, size=n)]
                h, s = encode_for_decode(m, src)
                k = int(rng.integers(1, 4))
                if k > 1:
                    s = T.concat([s] * k, axis=0)
                c = T.zeros((k, 4))
                for _ in range(3):
                    y = [int(v) for v in rng.integers(0, 6, size=k)]
                    dist, s, c, alpha = decode_step(y, c, s, h, m)
                    assert np.abs(alpha.data.sum(axis=1) - 1.0).max() <= 1e-6
                    assert np.abs(dist.data.sum(axis=1) - 1.0).max() <= 1e-6
                    rows += 2 * k
        notes["detail"] = f"{trials} model/sentence trials, {rows} rows within 1e-6"


def test_criterion_03_projective_decode_matches_enumeration(capsys):
    with criterion(capsys, 3, "projective decode equals exhaustive enumeration") as notes:
        start = time.perf_counter()
        rng = T.make_rng(31)
        for case in range(100):
            n = int(rng.integers(2, 7))
            if case % 2:
                matrix = rng.normal(size=(n + 1, n))
            else:
                # small integer scores force ties; both sides must break them
                # toward the lexicographically smallest head vector
                matrix = rng.integers(0, 3, size=(n + 1, n)).astype(float)
            tree = decode_projective(matrix)
            got = float(matrix[tree.heads, np.arange(n)].sum())
            want_score, want_heads = brute_force_decode(matrix)
            assert abs(got - want_score) <= 1e-9
            assert tree.heads == want_heads, case
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        notes["detail"] = f"100 matrices, n 2..6, ties included, {elapsed:.1f}s"


def test_criterion_04_beam_matches_exhaustive_search(capsys):
    with criterion(capsys, 4, "beam search equals exhaustive sequence search") as notes:
        start = time.perf_counter()
        for trial in range(50):
            m = TranslationModel(13, 4, emb_dim=5, hidden_dim=6, dropout=0.0,
                                 seed=3000 + trial)
            hyp = beam_search([4, 5], m, 64, 3)
            ref = enumerate_best(m, [4, 5], 3)
            assert hyp.completed
            assert hyp.ids == ref["ids"], trial
            assert abs(hyp.logp - ref["logp"]) < 1e-9
            g = greedy_decode([4, 5, 6], m, 12)
            b1 = beam_search([4, 5, 6], m, 1, 12)
            assert g.ids == b1.ids and g.logp == b1.logp
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        notes["detail"] = (f"50 models, |V|=4, max_len=3, beam 64 == argmax; "
                           f"beam 1 == greedy, {elapsed:.1f}s")


# Fixture A: counts worked out by hand give p = 12/14, 8/11, 5/8, 2/5, BP 1.
FIX_HYPS = ["the cat sat on the mat", "a dog barks",
            "green ideas sleep furiously here"]
FIX_REFS = ["the cat sat on a mat", "a dog barks",
            "colorless green ideas sleep furiously"]

# Fixture C: five sentences; score and precisions frozen from the independent
# reference implementation in bleu_reference.py (same conventions as the
# standard moses scoring script: unsmoothed, BP only when strictly short).
FIVE_HYPS = [
    "the committee approved the proposal without further debate",
    "he runs very fast",
    "a quick brown fox jumps over a lazy dog today",
    "results were strong in the third quarter",
    "we will meet again tomorrow morning",
]
FIVE_REFS = [
    "the committee approved the proposal without any further debate",
    "he runs extremely fast",
    "the quick brown fox jumped over the lazy dog today",
    "results were strong in the third quarter",
    "we shall meet again tomorrow",
]


def test_criterion_05_bleu_frozen_fixtures(capsys):
    with criterion(capsys, 5, "bleu reproduces frozen reference scores") as notes:
        a = bleu(FIX_HYPS, FIX_REFS)
        assert abs(a.score - 62.83) <= 0.01
        assert a.precisions == pytest.approx((12 / 14, 8 / 11, 5 / 8, 2 / 5))
        assert a.bp == 1.0

        b = bleu(["a b c d"], ["a b c d e"])
        assert abs(b.score - 100 * np.exp(-0.25)) <= 0.01
        assert b.precisions == (1.0, 1.0, 1.0, 1.0)

        c = bleu(FIVE_HYPS, FIVE_REFS)
        assert abs(c.score - 54.49013644306005) <= 0.01
        assert c.precisions == pytest.approx(
            (0.8285714285714286, 0.6333333333333333, 0.48, 0.35))
        assert c.bp == 1.0 and c.hyp_len == 35 and c.ref_len == 35

        assert bleu(FIVE_REFS, FIVE_REFS).score == 100.0
        notes["detail"] = ("3 fixtures within 0.01 "
                           f"({a.score:.2f}, {b.score:.2f}, {c.score:.2f}); "
                           "bleu(x, x) == 100.0")


def test_criterion_06_round_trips(capsys):
    with criterion(capsys, 6, "bpe and linearization round-trips") as notes:
        corpus = read_corpus(FX / "copy.tgt")
        freqs = Counter(tok for sent in corpus for tok in sent)
        model = learn_bpe(freqs, 80)
        rng = T.make_rng(606)
        # beyond the training corpus: unseen words, punctuation, a long blob
        pool = sorted(freqs) + ["straße", "überraschung", "co-op", "a", "x" * 30]
        for i in range(1000):
            if i < len(corpus):
                toks = corpus[i]
            else:
                toks = [str(rng.choice(pool))
                        for _ in range(int(rng.integers(1, 12)))]
            assert decode_bpe(apply_bpe(toks, model)) == toks

        for _ in range(500):
            n = int(rng.integers(1, 15))
            tree = random_projective_tree(n, rng)
            toks = [f"w{j}" for j in range(n)]
            back_toks, back_tree = delinearize_tree(linearize_tree(toks, tree))
            assert back_toks == toks
            assert back_tree == tree

        traced = learn_bpe({"low": 5, "lower": 2}, 10)
        assert traced.merges == [("l", "o"), ("lo", "w"), ("e", "r"),
                                 ("low", "er")]
        notes["detail"] = ("1000 bpe sentences, 500 trees, merge trace on "
                           "{low:5, lower:2} matches by hand")


def test_criterion_07_tree_gru_batching(capsys):
    with criterion(capsys, 7, "level-batched tree-gru equals naive recursion") as notes:
        rng = T.make_rng(77)
        p = syntax.TreeGruParams(nn.ParamTable(), "tree", 3, 4, T.make_rng(7))
        done, worst = 0, 0.0
        while done < 200:
            group = min(8, 200 - done)
            trees = [random_projective_tree(int(rng.integers(1, 13)), rng)
                     for _ in range(group)]
            embs = [T.constant(rng.normal(size=(t.n, 3))) for t in trees]
            batched = syntax.tree_gru_encode_batch(embs, trees, p)
            for e, t, out in zip(embs, trees, batched):
                naive = syntax.tree_gru_encode_naive(e, t, p)
                gap = np.abs(out.data - naive.data).max()
                assert gap <= 1e-5
                worst = max(worst, gap)
            done += group
        notes["detail"] = f"200 trees (n <= 12), max gap {worst:.1e}"


def test_criterion_08_parser_freeze_contract(capsys):
    with criterion(capsys, 8, "frozen parser is bit-stable, tuned parser moves") as notes:
        tokens = [["a", "b", "c"], ["b", "c"], ["a", "c", "d"]]
        pairs = [([4, 5, 6], [4, 5, 3]), ([5, 6], [6, 3]), ([4, 6, 7], [5, 3])]

        def fresh(trainable):
            parser = ParserModel({"<unk>": 0, "a": 1, "b": 2, "c": 3, "d": 4},
                                 ["det", "root", "obj"], embed_dim=4,
                                 hidden_dim=3, mlp_dim=5, layers=1, seed=2)
            m = TranslationModel(11, 9, mode="sawr", emb_dim=6, hidden_dim=8,
                                 sawr_dim=4, dropout=0.0, parser=parser,
                                 parser_trainable=trainable, seed=3)
            batches = filter_and_batch(pairs, 50, 50, 3, seed=1,
                                       src_tokens=tokens)
            return m, nn.Adam(m.table, lr=0.01, clip=5.0), batches

        m, opt, batches = fresh(False)
        before = m.table.bytes_of("parser")
        for step in range(100):
            train_step(batches[step % len(batches)], m, opt)
        assert m.table.bytes_of("parser") == before

        m, opt, batches = fresh(True)
        before = m.table.bytes_of("parser")
        train_step(batches[0], m, opt)
        assert m.table.bytes_of("parser") != before
        notes["detail"] = ("parser bytes identical after 100 frozen updates; "
                           "changed after 1 tuned update")


# ---------------------------------------------------------------------------
# 9/10. Full training runs, shared between the overfit and ensemble checks.
# Budgets live here: each mode must cross BLEU 99 on its training corpus
# within its epoch allowance (the two tree modes see 3x longer inputs, so the
# linearized one gets a larger budget).

EPOCH_BUDGET = {"baseline": 45, "sawr": 60, "tree-rnn": 60,
                "tree-linearized": 90}

COMMON = ["--train_src", str(FX / "copy.src"),
          "--train_tgt", str(FX / "copy.tgt"),
          "--dev_src", str(FX / "copy.dev.src"),
          "--dev_tgt", str(FX / "copy.dev.tgt"),
          "--emb_dim", "32", "--hidden_dim", "64", "--dropout", "0.0",
          "--learning_rate", "0.003", "--batch_size", "20",
          "--beam_size", "5", "--bpe_merges", "120", "--seed", "3"]

MODE_EXTRA = {
    "baseline": [],
    "sawr": ["--sawr_dim", "16"],  # plus --parser, added once it exists
    "tree-rnn": ["--trees", str(FX / "copy.trees"),
                 "--dev_trees", str(FX / "copy.dev.trees"),
                 "--tree_hidden", "16"],
    "tree-linearized": ["--trees", str(FX / "copy.trees"),
                        "--dev_trees", str(FX / "copy.dev.trees")],
}


@pytest.fixture(scope="module")
def overfit(tmp_path_factory):
    """Train all four modes on the bundled 200-pair corpus, then decode it."""
    d = tmp_path_factory.mktemp("overfit")
    rc = main(["train-parser", "--treebank", str(FX / "copy.parser.trees"),
               "--parser_embed", "16", "--parser_hidden", "16",
               "--parser_layers", "1", "--parser_epochs", "3",
               "--out", str(d / "parser.ckpt")])
    assert rc == 0
    runs = {"dir": d, "bleu": {}, "seconds": {}}
    for mode in EPOCH_BUDGET:
        t0 = time.perf_counter()
        extra = list(MODE_EXTRA[mode])
        if mode == "sawr":
            extra += ["--parser", str(d / "parser.ckpt")]
        rc = main(["train-nmt", "--mode", mode,
                   "--epochs", str(EPOCH_BUDGET[mode]),
                   "--out", str(d / f"{mode}.ckpt")] + COMMON + extra)
        assert rc == 0, mode
        targs = ["translate", "--model", str(d / f"{mode}.ckpt"),
                 "--src", str(FX / "copy.src"), "--beam_size", "5",
                 "--out", str(d / f"{mode}.hyp")]
        if mode.startswith("tree"):
            targs += ["--trees", str(FX / "copy.trees")]
        assert main(targs) == 0, mode
        hyps = read_corpus(d / f"{mode}.hyp")
        runs["bleu"][mode] = bleu(hyps, read_corpus(FX / "copy.tgt")).score
        runs["seconds"][mode] = time.perf_counter() - t0
    return runs


def test_criterion_09_end_to_end_overfit(capsys, overfit):
    with criterion(capsys, 9, "all four modes overfit the toy corpus") as notes:
        for mode in EPOCH_BUDGET:
            assert overfit["bleu"][mode] >= 99.0, \
                f"{mode}: BLEU {overfit['bleu'][mode]:.2f}"
            assert overfit["seconds"][mode] < 900.0, mode
        notes["detail"] = ", ".join(
            f"{mode} {overfit['bleu'][mode]:.2f} ({overfit['seconds'][mode]:.0f}s)"
            for mode in EPOCH_BUDGET)


def test_criterion_10_ensemble_reduction_and_hybrid(capsys, overfit, tmp_path):
    with criterion(capsys, 10, "identical-model ensemble reduces; hybrid runs") as notes:
        d = overfit["dir"]
        ck = str(d / "baseline.ckpt")
        single, triple = tmp_path / "single.hyp", tmp_path / "triple.hyp"
        assert main(["translate", "--model", ck,
                     "--src", str(FX / "copy.dev.src"), "--beam_size", "5",
                     "--out", str(single)]) == 0
        assert main(["ensemble-translate", "--models", ",".join([ck] * 3),
                     "--src", str(FX / "copy.dev.src"), "--beam_size", "5",
                     "--out", str(triple)]) == 0
        assert triple.read_bytes() == single.read_bytes()

        hybrid = tmp_path / "hybrid.hyp"
        members = ",".join(str(d / f"{m}.ckpt")
                           for m in ("sawr", "tree-rnn", "tree-linearized"))
        assert main(["ensemble-translate", "--models", members,
                     "--src", str(FX / "copy.src"),
                     "--trees", str(FX / "copy.trees"), "--beam_size", "5",
                     "--out", str(hybrid)]) == 0
        lines = hybrid.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 200
        score = bleu([" ".join(s) for s in read_corpus(hybrid)],
                     [" ".join(s) for s in read_corpus(FX / "copy.tgt")]).score
        notes["detail"] = ("3x same model == single model byte-for-byte; "
                           f"hybrid 3-mode ensemble decoded 200/200 "
                           f"(BLEU {score:.2f})")


def test_manifests_count_decoder_steps(overfit):
    d = overfit["dir"]
    n_dev = len(read_corpus(FX / "copy.dev.src"))
    for mode in EPOCH_BUDGET:
        with open(d / f"{mode}.hyp.manifest.json", encoding="utf-8") as f:
            man = json.load(f)
        dec = man["decode"]
        assert dec["sentences"] == 200, mode
        assert 0 < dec["decoder_steps"] < 200 * man["config"]["decode_max_len"], mode
        assert 0 < dec["stopped_early"] <= dec["sentences"], mode
        with open(d / f"{mode}.ckpt.manifest.json", encoding="utf-8") as f:
            final = json.load(f)["final"]["decode"]
        assert final["sentences"] == n_dev, mode
        assert set(final) == {"sentences", "decoder_steps", "stopped_early"}


def test_beam_steps_follow_output_length(overfit, monkeypatch):
    """Beam 5 on a trained copy model runs about one decoder step per emitted
    token, because the search stops once no live hypothesis can win."""
    ck = str(overfit["dir"] / "baseline.ckpt")
    model = TranslationModel.load(ck)
    src_vocab = Vocabulary.load(ck + ".src.vocab")
    calls = [0]
    real_step = seq2seq.decode_step

    def counting_step(*args, **kwargs):
        calls[0] += 1
        return real_step(*args, **kwargs)

    monkeypatch.setattr(seq2seq, "decode_step", counting_step)
    for toks in read_corpus(FX / "copy.dev.src"):
        before = calls[0]
        hyp = beam_search(src_vocab.ids(toks), model, 5, 150)
        steps = calls[0] - before
        assert hyp.completed
        assert steps == hyp.steps
        assert steps < len(hyp.ids) + 2, (toks, hyp.ids, steps)


def test_criterion_11_significance_sanity(capsys):
    with criterion(capsys, 11, "bootstrap significance sanity") as notes:
        refs = [" ".join(f"w{i}{j}" for j in range(6)) for i in range(30)]
        p_same = bootstrap_significance(refs, refs, refs, samples=500, seed=11)
        assert p_same >= 0.4
        empty = ["" for _ in refs]
        p_apart = bootstrap_significance(refs, empty, refs, samples=500, seed=11)
        assert p_apart < 0.01
        again = (bootstrap_significance(refs, empty, refs, samples=300, seed=5),
                 bootstrap_significance(refs, empty, refs, samples=300, seed=5))
        assert again[0] == again[1]
        notes["detail"] = (f"p(A,A) = {p_same:.2f}, p(perfect,empty) = "
                           f"{p_apart:.4f}, fixed seed reproduces")


def test_criterion_12_parser_overfit_and_scaling(capsys):
    with criterion(capsys, 12, "parser overfits; accuracy grows with data") as notes:
        train = read_treebank(FX / "parser.train.conll")
        model, _ = train_parser(train, embed_dim=24, hidden_dim=24, mlp_dim=24,
                                layers=1, epochs=30, lr=2e-3, seed=5)
        preds = [parse_sentence(toks, model) for toks, _ in train]
        gold = [normalize_root(tree) for _, tree in train]
        _, las = evaluate_las(preds, gold)
        assert las >= 0.95

        pool = read_treebank(FX / "parser.scaling.conll")
        dev = read_treebank(FX / "parser.dev.conll")
        dev_gold = [normalize_root(tree) for _, tree in dev]
        curve = []
        for size in (40, 100, 220, 500):
            m, _ = train_parser(pool[:size], embed_dim=24, hidden_dim=24,
                                mlp_dim=24, layers=1, epochs=8, lr=2e-3, seed=5)
            dev_pred = [parse_sentence(toks, m) for toks, _ in dev]
            curve.append(evaluate_las(dev_pred, dev_gold)[1])
        assert all(b >= a for a, b in zip(curve, curve[1:])), curve
        notes["detail"] = ("training LAS "
                           f"{las:.3f}; dev LAS by size " +
                           " -> ".join(f"{v:.3f}" for v in curve))
