"""
The command line, end to end
=============================

Everything the library does is reachable through one `synmt` executable
with nine subcommands. This script drives a complete experiment against
the tiny copy-task corpus that ships with the test suite: train a parser,
cache its encodings, train a baseline and a syntax-aware translator,
decode, and compare the two systems. Each step is the exact command a
shell user would type; here they run in-process through the same entry
point so the exit codes are easy to inspect.

It is the slowest demo of the set, about ten seconds.

    python3 demos/06_cli_pipeline.py
"""

import json
import tempfile
from pathlib import Path

from synmt.cli import main
from synmt.evaluate import read_alignments

FIXTURES = Path(__file__).resolve().parents[1] / "tests" / "fixtures"
# removed at the end, or at interpreter exit if a step fails first
tmp = tempfile.TemporaryDirectory(prefix="synmt-demo-")
work = Path(tmp.name)
print("corpus:", FIXTURES / "copy.src", "\nworkdir:", work, "\n")


def run(*argv):
    argv = [str(a) for a in argv]
    print("$ synmt " + " ".join(argv))
    rc = main(argv)
    assert rc == 0, f"exit code {rc}"


# Shared knobs live in a plain key = value document. Every key is also a
# command-line flag, and flags win over the file.
cfg = work / "experiment.cfg"
cfg.write_text("""\
# toy-scale experiment settings
emb_dim = 32
hidden_dim = 64
dropout = 0.0
learning_rate = 0.003
batch_size = 20
bpe_merges = 120
beam_size = 5
seed = 3
""")

# 1. Train the dependency parser on the bundled treebank.
run("train-parser", "--treebank", FIXTURES / "copy.parser.trees",
    "--parser_embed", 16, "--parser_hidden", 16, "--parser_layers", 1,
    "--parser_epochs", 3, "--out", work / "parser.ckpt")

# 2. Cache its encoder states for the training corpus. Training could call
# the parser on the fly; the cache just makes repeated runs cheap.
run("extract-sawr", "--parser", work / "parser.ckpt",
    "--src", FIXTURES / "copy.src", "--out", work / "sawr.cache")

# 3. Train the baseline translator. The checkpoint carries its vocabularies,
# so it is self-contained for decoding.
run("train-nmt", "--config", cfg, "--mode", "baseline", "--epochs", 45,
    "--train_src", FIXTURES / "copy.src", "--train_tgt", FIXTURES / "copy.tgt",
    "--dev_src", FIXTURES / "copy.dev.src", "--dev_tgt", FIXTURES / "copy.dev.tgt",
    "--out", work / "base.ckpt")

# 4. Train the syntax-aware one on the same data, parser states riding in
# through the cached encodings.
run("train-nmt", "--config", cfg, "--mode", "sawr", "--epochs", 60,
    "--parser", work / "parser.ckpt", "--cache", work / "sawr.cache",
    "--sawr_dim", 16,
    "--train_src", FIXTURES / "copy.src", "--train_tgt", FIXTURES / "copy.tgt",
    "--dev_src", FIXTURES / "copy.dev.src", "--dev_tgt", FIXTURES / "copy.dev.tgt",
    "--out", work / "sawr.ckpt")

# 5. Decode the dev set with each system and score it.
run("translate", "--config", cfg, "--model", work / "base.ckpt",
    "--src", FIXTURES / "copy.dev.src", "--out", work / "base.hyp")
run("translate", "--config", cfg, "--model", work / "sawr.ckpt",
    "--src", FIXTURES / "copy.dev.src", "--out", work / "sawr.hyp")
run("evaluate", "--hyp", work / "base.hyp", "--ref", FIXTURES / "copy.dev.tgt",
    "--out", work / "base.bleu")
run("evaluate", "--hyp", work / "sawr.hyp", "--ref", FIXTURES / "copy.dev.tgt",
    "--out", work / "sawr.bleu")

# 6. Paired bootstrap: could the gap between the two be sampling luck?
run("significance", "--hyp_a", work / "base.hyp", "--hyp_b", work / "sawr.hyp",
    "--ref", FIXTURES / "copy.dev.tgt", "--bootstrap_samples", 300,
    "--out", work / "significance.txt")

# 7. The usual diagnostics: BLEU by source length, and attention alignments.
# (the empty-looking 0.00 for the shortest bin is the no-smoothing rule
# again: three-token sentences have no 4-grams to match)
run("length-report", "--hyp", work / "base.hyp", "--ref", FIXTURES / "copy.dev.tgt",
    "--src", FIXTURES / "copy.dev.src", "--length_edges", "4,6",
    "--out", work / "length.tsv")

run("align-dump", "--config", cfg, "--model", work / "base.ckpt",
    "--src", FIXTURES / "copy.dev.src", "--out", work / "align.jsonl")
rec = read_alignments(work / "align.jsonl")[0]
print(f"first alignment record: {len(rec.src)} source tokens -> "
      f"{len(rec.tgt)} emitted, {len(rec.attn)} attention rows\n")

# 8. Checkpoints of different modes can vote together: the ensemble decoder
# averages their per-step distributions.
run("ensemble-translate", "--config", cfg,
    "--models", f"{work / 'base.ckpt'},{work / 'sawr.ckpt'}",
    "--src", FIXTURES / "copy.dev.src", "--out", work / "ensemble.hyp")
run("evaluate", "--hyp", work / "ensemble.hyp", "--ref", FIXTURES / "copy.dev.tgt",
    "--out", work / "ensemble.bleu")

# Every command that writes an --out file also records what it did in a
# manifest next to it: resolved config, input hashes, timings, results.
manifest = json.loads((work / "base.ckpt.manifest.json").read_text())
print("manifest keys:", ", ".join(sorted(manifest)))

# Misuse maps to exit codes instead of tracebacks: 1 for bad configuration,
# 2 for broken or missing data, 3 for anything else.
print("\nbad mode     -> exit", main(["train-nmt", "--mode", "quantum"]))
print("missing file -> exit", main(["evaluate", "--hyp", "no-such-file.txt",
                                    "--ref", str(FIXTURES / "copy.dev.tgt"),
                                    "--out", str(work / "never.bleu")]))

tmp.cleanup()
