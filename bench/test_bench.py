"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

The slow tests run every workload twice, traced, with the same seed (a few
minutes on two cores).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TIMED = ("_s", "_ms_p50", "_ms_p90")

# Spans each workload must hit; infer must also never touch the tape or Adam.
DECODE = {"cli.main", "nn.birnn_encode", "seq2seq.beam_search",
          "seq2seq.encode_for_decode", "seq2seq.decode_step",
          "data.read_corpus", "checkpoint.load", "checkpoint.sha256"}
TRAIN = DECODE | {"tensor.backward", "nn.adam", "seq2seq.train_step",
                  "seq2seq.sequence_loss", "data.build_vocab", "data.learn_bpe",
                  "data.apply_bpe", "data.filter_and_batch", "evaluate.bleu",
                  "checkpoint.save"}
EXPECTED_SPANS = {
    "train-toy": TRAIN | {
        "syntax.tree_gru", "syntax.extract_sawr", "syntax.write_sawr_cache",
        "syntax.read_sawr_cache", "depparse.train_parser",
        "depparse.read_treebank", "depparse.parser_encode",
        "depparse.encode_positions", "depparse.score_arcs",
        "data.linearize_tree"},
    "train-wide": TRAIN,
    "infer": DECODE | {
        "evaluate.ensemble_decode", "syntax.extract_sawr",
        "syntax.write_sawr_cache", "depparse.parse_sentence",
        "depparse.parser_encode", "depparse.encode_positions",
        "depparse.score_arcs", "depparse.eisner"},
}


def files(d):
    return {p.name: p.read_bytes() for p in sorted(Path(d).iterdir())}


@pytest.mark.parametrize("setup", [workloads.setup_train_toy,
                                   workloads.setup_train_wide])
def test_inputs_follow_the_seed(tmp_path, setup):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / name).mkdir()
        setup(str(tmp_path / name), seed)
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert files(tmp_path / "a")["train.txt"] != files(tmp_path / "c")["train.txt"]


def test_generated_trees_are_projective_and_single_rooted():
    rng = gen.rng_for(3, "trees")
    for n in list(range(1, 12)) + [60]:
        heads, labels = gen.projective_tree(n, rng)
        assert workloads.valid_tree(heads)
        assert labels[heads.index(0)] == "root"
    assert not workloads.valid_tree([2, 0, 0])        # two roots
    assert not workloads.valid_tree([3, 0, 2, 2])     # arc 1->3 spans 2, which hangs off the root
    assert not workloads.valid_tree([2, 1, 0])        # cycle 1 <-> 2


def test_wide_corpus_covers_every_symbol_one_code_point_each():
    sents = gen.wide_corpus(gen.rng_for(1, "wide"), 500, 6, 12)
    tokens = [t for s in sents for t in s]
    assert all(len(t) == 1 for t in tokens)
    assert len(set(tokens)) == 500


def test_wrappers_patch_every_lookup_site():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sites = set(tracer.patched_sites())
    finally:
        tracer.uninstall()
    for site in [("synmt.cli", "train_step"), ("synmt.cli", "beam_search"),
                 ("synmt.cli", "parse_sentence"), ("synmt.cli", "extract_sawr"),
                 ("synmt.cli", "filter_and_batch"), ("synmt.cli", "bleu"),
                 ("synmt.evaluate", "decode_step"), ("synmt.seq2seq", "decode_step"),
                 ("synmt.evaluate", "beam_search"), ("synmt.depparse", "save_checkpoint"),
                 ("synmt.seq2seq", "load_checkpoint"), ("Adam", "step")]:
        assert site in sites
    from synmt import cli, seq2seq
    assert cli.train_step is seq2seq.train_step
    assert not hasattr(cli.train_step, "__wrapped__")


def test_self_times_add_up_to_each_root():
    tr = tracing.Tracer()
    # root [0, 10] with children [1, 4] (which has a child [2, 3]) and [5, 9]
    tr.spans = [["cli.main", 0.0, 10.0, -1, 1, True],
                ["seq2seq.train_step", 1.0, 4.0, 0, 1, True],
                ["tensor.backward", 2.0, 3.0, 1, 1, True],
                ["seq2seq.beam_search", 5.0, 9.0, 0, 1, True]]
    assert tr.self_times() == [3.0, 2.0, 1.0, 4.0]
    assert tr.root_residuals() == [0.0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "infer", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = BENCH / "out" / f"{workload}-seed{seed}"
    record = json.loads(Path(f"{stem}-trace1.json").read_text())
    with open(f"{stem}.spans.jsonl", encoding="utf-8") as f:
        names = {json.loads(line)[0] for line in f}
    return result, record, names


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_repeats_counters_and_outputs(workload):
    first, rec1, spans1 = traced_run(workload, 11)
    second, rec2, spans2 = traced_run(workload, 11)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    counters = lambda rec: {k: v for k, v in rec["per_layer"].items()  # noqa: E731
                            if not k.endswith(TIMED)}
    assert counters(rec1) == counters(rec2)
    assert rec1["outputs"] == rec2["outputs"]
    assert EXPECTED_SPANS[workload] <= spans1
    if workload == "infer":
        assert not {"tensor.backward", "nn.adam"} & spans1
    assert spans1 == spans2
    # self times under each command add up to its traced wall time
    assert rec1["trace_check"]["max_abs_residual_s"] < 1e-6
