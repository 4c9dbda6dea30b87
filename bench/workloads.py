"""The benchmark workloads: generated inputs, the commands run on them, checks.

Each workload is closed-loop: one caller runs its steps one after another,
each step a `synmt` subcommand called in-process through `synmt.cli.main`
(or, for parsing, where no subcommand exists, a loop over
`depparse.parse_sentence`). A step knows how much work it does (target
tokens or sentences), how many ops it attempts (training batches or
sentences) and how to check its outputs.

Why these three workloads:
  train-toy   tiny tables, so the per-op interpreter and tape overhead
              dominates; the only workload that trains through the syntax
              paths (Tree-GRU, live parser backprop).
  train-wide  same tape size per batch, but a 4k-symbol vocabulary on both
              sides, so BLAS matmuls, V-wide softmax, dense embedding
              gradients, Adam over large tables and checkpoint bytes dominate.
  infer       no tape, no Adam: wasted decoder steps, beam bookkeeping,
              Eisner decoding and per-sentence parser encoding dominate.
"""

import contextlib
import hashlib
import io
import json
import math
import os
from collections import Counter

import gen

from synmt import cli, depparse
from synmt.data import apply_bpe, learn_bpe
from synmt.evaluate import bleu
from synmt.syntax import read_sawr_cache

# train-nmt settings per workload, passed as --key value flags. The toy shapes
# are those of the test suite's end-to-end training fixture.
TOY_NMT = {"emb_dim": 32, "hidden_dim": 64, "dropout": 0.0,
           "learning_rate": 0.003, "batch_size": 20, "bpe_merges": 120,
           "seed": 3, "epochs": 2, "decode_max_len": 30,
           "max_src_len": 50, "max_tgt_len": 150}
TOY_PAIRS, TOY_DEV, TOY_PARSER_SENTS, TOY_PARSER_EPOCHS = 40, 10, 40, 2

# Every symbol of the inventory occurs on the training side, dealt out into
# "cover" sentences longer than max_src_len: they fix both vocabularies (and
# so the output layer) at WIDE_SYMBOLS + reserved ids, and filter_and_batch
# then drops them, which keeps an epoch to WIDE_PAIRS sentence pairs.
WIDE_SYMBOLS, WIDE_COVER_LEN, WIDE_PAIRS, WIDE_DEV = 4096, 60, 40, 8
WIDE_MIN_LEN, WIDE_MAX_LEN = 7, 11  # 40 pairs = 8 rounds of the 5 lengths
WIDE_NMT = {"emb_dim": 256, "hidden_dim": 512, "dropout": 0.0,
            "learning_rate": 0.003, "batch_size": 20, "bpe_merges": 100,
            "seed": 3, "epochs": 2, "decode_max_len": 20,
            "max_src_len": 50, "max_tgt_len": 50}

# infer: a 10-word copy task that two small translators learn in seconds,
# decoded at the CLI's default decode_max_len (150).
INFER_VOCAB, INFER_PAIRS, INFER_DEV, INFER_TEST = 10, 120, 10, 15
INFER_LONG, INFER_PARSER_SENTS = 6, 40
INFER_NMT = {"emb_dim": 32, "hidden_dim": 64, "dropout": 0.0,
             "learning_rate": 0.01, "batch_size": 10, "bpe_merges": 120,
             "epochs": 12, "decode_max_len": 20, "beam_size": 1}
INFER_BLEU_FLOOR = 20.0

PARSER_OUT_DIM = 200  # 2 x the CLI default parser_hidden
PARSER_BATCH = 16     # the CLI default parser_batch


class Step:
    """One timed unit of a workload pass.

    metric/unit name the throughput reported for it; work is the amount of
    that unit one run processes; ops the batches or sentences it attempts.
    check() returns {check name: failed ops}.
    """

    def __init__(self, name, metric, unit, work, ops, run, check, outputs=()):
        self.name, self.metric, self.unit = name, metric, unit
        self.work, self.ops = work, ops
        self.run, self.check, self.outputs = run, check, list(outputs)
        self.quality = {}  # e.g. train_loss, bleu of the latest run


def run_cli(argv):
    """synmt.cli.main in-process with its console output captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(argv)
    return rc, sink.getvalue()


def cli_step(name, metric, unit, work, ops, argv, check, outputs):
    step = Step(name, metric, unit, work, ops, None, None, outputs)

    def run():
        step.rc, step.log = run_cli(argv)

    def checked():
        if step.rc != 0:
            return {"exit_code": step.ops}
        return check(step)

    step.run, step.check = run, checked
    return step


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_lines(path):
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f]


# ---------------------------------------------------------------------------
# Checks


def loss_check(step):
    """Every epoch loss finite, and the last one below the first."""
    with open(step.manifest, encoding="utf-8") as f:
        losses = [e["train_loss"] for e in json.load(f)["epochs"]]
    step.quality["train_loss"] = losses[-1]
    if not all(math.isfinite(v) for v in losses):
        return {"loss_nonfinite": step.ops}
    if not losses[-1] < losses[0]:
        return {"loss_not_decreasing": step.ops}
    return {}


def lines_check(out, refs, floor=None):
    def check(step):
        hyps = read_lines(out)
        if len(hyps) != len(refs):
            return {"line_count": step.ops}
        if floor is None:
            return {}
        score = bleu(hyps, refs).score
        step.quality["bleu"] = score
        return {"bleu_floor": step.ops} if score < floor else {}
    return check


def cache_check(path, sents):
    """One [n, parser out_dim] record per sentence, in order."""
    def check(step):
        encodings, _ = read_sawr_cache(path)
        if len(encodings) != len(sents):
            return {"sawr_cache_shape": step.ops}
        bad = sum(e.shape != (len(s), PARSER_OUT_DIM)
                  for e, s in zip(encodings, sents))
        return {"sawr_cache_shape": bad} if bad else {}
    return check


def valid_tree(heads):
    """Single-rooted, acyclic and projective, checked from the head vector."""
    n = len(heads)
    if heads.count(0) != 1 or any(not 0 <= h <= n or h == d
                                  for d, h in enumerate(heads, start=1)):
        return False

    def descends(node, head):
        for _ in range(n + 1):
            if node == head:
                return True
            if node == 0:
                return False
            node = heads[node - 1]
        return False  # a cycle

    if not all(descends(d, 0) for d in range(1, n + 1)):
        return False
    return all(descends(k, h)
               for d, h in enumerate(heads, start=1)
               for k in range(min(h, d) + 1, max(h, d)))


# ---------------------------------------------------------------------------
# Work accounting


def flags(settings):
    return [a for key, value in settings.items() for a in (f"--{key}", str(value))]


def nmt_work(src_lens, tgt_sents, s):
    """(target tokens incl. EOS, batches) one train-nmt run trains on.

    Mirrors the command's data preparation: BPE learned on the target side,
    pairs over the length limits dropped, batch_size pairs per batch.
    """
    bpe = learn_bpe(Counter(t for sent in tgt_sents for t in sent), s["bpe_merges"])
    kept = [len(units) + 1 for n, units in
            zip(src_lens, (apply_bpe(sent, bpe) for sent in tgt_sents))
            if n <= s["max_src_len"] and len(units) <= s["max_tgt_len"]]
    return (sum(kept) * s["epochs"],
            math.ceil(len(kept) / s["batch_size"]) * s["epochs"])


def parser_batches(sents, epochs):
    """train_parser batches: sentences grouped by length, PARSER_BATCH a batch."""
    lengths = Counter(len(s) for s in sents)
    return sum(math.ceil(c / PARSER_BATCH) for c in lengths.values()) * epochs


def write_copy(d, name, sents, trees=None):
    gen.write_lines(os.path.join(d, name + ".txt"), sents)
    if trees is not None:
        gen.write_trees(os.path.join(d, name + ".trees"), sents, trees)


def train_nmt_step(d, mode, settings, extra, src_lens, sents):
    """train-nmt on the copy task d/train.txt -> d/train.txt, dev d/dev.txt."""
    out = os.path.join(d, f"{mode}.ckpt")
    train, dev = os.path.join(d, "train.txt"), os.path.join(d, "dev.txt")
    argv = (["train-nmt", "--mode", mode, "--out", out, "--train_src", train,
             "--train_tgt", train, "--dev_src", dev, "--dev_tgt", dev]
            + flags(settings) + extra)
    tokens, batches = nmt_work(src_lens, sents, settings)
    step = cli_step(f"train-nmt.{mode}", f"train_tok_per_s.{mode}", "tok/s",
                    tokens, batches, argv, loss_check, [out])
    step.manifest = out + ".manifest.json"
    return step


# ---------------------------------------------------------------------------
# Workloads. Each setup writes its inputs under d and returns the steps of
# one pass.


def setup_train_toy(d, seed):
    rng = gen.rng_for(seed, "copy")
    # dev is the head of train, as in the test suite's fixture
    dev, dev_trees = gen.copy_corpus(rng, TOY_DEV)
    rest, rest_trees = gen.copy_corpus(rng, TOY_PAIRS - TOY_DEV)
    sents, trees = dev + rest, dev_trees + rest_trees
    psents, ptrees = gen.copy_corpus(rng, TOY_PARSER_SENTS)
    write_copy(d, "train", sents, trees)
    write_copy(d, "dev", dev, dev_trees)
    write_copy(d, "parser", psents, ptrees)
    p = lambda name: os.path.join(d, name)  # noqa: E731

    parser = cli_step(
        "train-parser", "parser_train_sent_per_s", "sent/s",
        len(psents) * TOY_PARSER_EPOCHS, parser_batches(psents, TOY_PARSER_EPOCHS),
        ["train-parser", "--treebank", p("parser.trees"),
         "--parser_epochs", str(TOY_PARSER_EPOCHS), "--out", p("parser.ckpt")],
        loss_check, [p("parser.ckpt")])
    parser.manifest = p("parser.ckpt") + ".manifest.json"
    steps = [parser]
    for part, subset in (("train", sents), ("dev", dev)):
        cache = p(f"{part}.cache")
        steps.append(cli_step(
            f"extract-sawr.{part}", f"extract_sawr_sent_per_s.{part}", "sent/s",
            len(subset), len(subset),
            ["extract-sawr", "--parser", p("parser.ckpt"),
             "--src", p(f"{part}.txt"), "--out", cache],
            cache_check(cache, subset), [cache]))

    trees_args = ["--trees", p("train.trees"), "--dev_trees", p("dev.trees")]
    extra = {
        "baseline": [],
        "sawr": ["--sawr_dim", "16", "--parser", p("parser.ckpt"),
                 "--cache", p("train.cache"), "--dev_cache", p("dev.cache")],
        "sawr-tuned": ["--sawr_dim", "16", "--parser", p("parser.ckpt")],
        "tree-rnn": trees_args + ["--tree_hidden", "16"],
        "tree-linearized": trees_args,
    }
    for mode, args in extra.items():
        # linearized sources carry 3 symbols per word
        width = 3 if mode == "tree-linearized" else 1
        steps.append(train_nmt_step(d, mode, TOY_NMT, args,
                                    [width * len(s) for s in sents], sents))
    return steps


def setup_train_wide(d, seed):
    rng = gen.rng_for(seed, "wide")
    cover = gen.wide_corpus(rng, WIDE_SYMBOLS, WIDE_COVER_LEN, WIDE_COVER_LEN)
    pairs = gen.wide_corpus(rng, WIDE_SYMBOLS, WIDE_MIN_LEN, WIDE_MAX_LEN)[:WIDE_PAIRS]
    sents = pairs + cover
    write_copy(d, "train", sents)
    write_copy(d, "dev", pairs[:WIDE_DEV])
    return [train_nmt_step(d, "baseline", WIDE_NMT, [],
                           [len(s) for s in sents], sents)]


def setup_infer(d, seed):
    """Trains the parser and the two translators the measured steps use.

    They train on one fixed corpus, so every seed decodes with the same
    models: how many decoder steps a beam runs depends on the model, and a
    model per seed would make the work differ from seed to seed. The seed
    draws the sentences that are translated, parsed and encoded.
    """
    sents, trees = gen.copy_corpus(gen.rng_for(0, "infer-models"), INFER_PAIRS,
                                   vocab=INFER_VOCAB, min_len=3, max_len=5)
    rng = gen.rng_for(seed, "infer")
    test, _ = gen.copy_corpus(rng, INFER_TEST, vocab=INFER_VOCAB,
                              min_len=3, max_len=5)
    long_sents, _ = gen.copy_corpus(rng, INFER_LONG, vocab=INFER_VOCAB,
                                    min_len=10, max_len=60)
    write_copy(d, "train", sents)
    write_copy(d, "dev", sents[:INFER_DEV])
    write_copy(d, "test", test)
    write_copy(d, "long", long_sents)
    write_copy(d, "parser", sents[:INFER_PARSER_SENTS], trees[:INFER_PARSER_SENTS])
    p = lambda name: os.path.join(d, name)  # noqa: E731

    setup = [["train-parser", "--treebank", p("parser.trees"),
              "--parser_epochs", "1", "--out", p("parser.ckpt")]]
    for member, member_seed in (("a", 3), ("b", 4)):
        setup.append(["train-nmt", "--train_src", p("train.txt"),
                      "--train_tgt", p("train.txt"), "--dev_src", p("dev.txt"),
                      "--dev_tgt", p("dev.txt"), "--seed", str(member_seed),
                      "--out", p(f"{member}.ckpt")] + flags(INFER_NMT))
    for argv in setup:
        rc, log = run_cli(argv)
        if rc != 0:
            raise RuntimeError(f"infer setup: {argv[0]} exited {rc}: {log}")
    parser_model = depparse.ParserModel.load(p("parser.ckpt"))

    refs = [" ".join(s) for s in test]
    steps = []
    for beam in (1, 5):
        out = p(f"beam{beam}.hyp")
        steps.append(cli_step(
            f"translate.beam{beam}", f"translate_sent_per_s.beam{beam}", "sent/s",
            len(test), len(test),
            ["translate", "--model", p("a.ckpt"), "--src", p("test.txt"),
             "--beam_size", str(beam), "--out", out],
            lines_check(out, refs, INFER_BLEU_FLOOR if beam == 5 else None),
            [out]))
    out = p("ensemble.hyp")
    steps.append(cli_step(
        "ensemble-translate", "ensemble_sent_per_s", "sent/s", len(test),
        len(test),
        ["ensemble-translate", "--models", f"{p('a.ckpt')},{p('b.ckpt')}",
         "--src", p("test.txt"), "--beam_size", "5", "--out", out],
        lines_check(out, refs), [out]))
    steps.append(parse_step(long_sents, parser_model, p("long.parsed")))
    cache = p("long.cache")
    steps.append(cli_step(
        "extract-sawr", "extract_sawr_sent_per_s", "sent/s", len(long_sents),
        len(long_sents),
        ["extract-sawr", "--parser", p("parser.ckpt"), "--src", p("long.txt"),
         "--out", cache],
        cache_check(cache, long_sents), [cache]))
    return steps


def parse_step(sents, model, out):
    """depparse.parse_sentence over each sentence; heads written to out."""
    step = Step("parse", "parse_sent_per_s", "sent/s", len(sents), len(sents),
                None, None, [out])

    def run():
        step.trees = []
        for toks in sents:
            # looked up on the module at call time, so a tracer's wrapper is used
            try:
                step.trees.append(depparse.parse_sentence(toks, model))
            except Exception as exc:  # a failed sentence is counted, not fatal
                step.trees.append(exc)

    def check():
        with open(out, "w", encoding="utf-8") as f:
            for tree in step.trees:
                f.write((" ".join(map(str, tree.heads))
                         if isinstance(tree, depparse.DependencyTree)
                         else f"error: {tree!r}") + "\n")
        errors = sum(not isinstance(t, depparse.DependencyTree) for t in step.trees)
        bad = sum(isinstance(t, depparse.DependencyTree)
                  and (t.n != len(s) or not valid_tree(t.heads))
                  for t, s in zip(step.trees, sents))
        return {k: v for k, v in (("parse_error", errors), ("tree_invalid", bad)) if v}

    step.run, step.check = run, check
    return step


WORKLOADS = {
    "train-toy": setup_train_toy,
    "train-wide": setup_train_wide,
    "infer": setup_infer,
}
