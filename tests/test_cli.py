"""Command-line behavior: exit codes, manifests, and the full toy pipeline.

Training-related tests run on small slices of the bundled fixture corpus so
the whole module stays fast; convergence itself is covered by the acceptance
suite.
"""

import gc
import json
import stat
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from synmt import cli, depparse, nn, syntax
from synmt.checkpoint import file_sha256, load_checkpoint
from synmt.cli import main
from synmt.data import read_corpus
from synmt.depparse import read_treebank, write_treebank
from synmt.evaluate import bleu, read_alignments
from synmt.syntax import read_sawr_cache, write_sawr_cache

from helpers import (adam_step_oracle, edit_entries, edit_meta, per_gate_layout, rewrite_meta,
                     write_checkpoint_oracle)

FX = Path(__file__).parent / "fixtures"

SMALL = ["--emb_dim", "16", "--hidden_dim", "32", "--dropout", "0.0",
         "--learning_rate", "0.003", "--batch_size", "10", "--epochs", "3",
         "--beam_size", "2", "--bpe_merges", "60", "--seed", "2"]


def _slice_corpus(src, dst, n):
    lines = src.read_text(encoding="utf-8").splitlines()[:n]
    dst.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared workspace with corpus slices; avoids retraining per test."""
    d = tmp_path_factory.mktemp("cli")
    _slice_corpus(FX / "copy.src", d / "train.src", 30)
    _slice_corpus(FX / "copy.tgt", d / "train.tgt", 30)
    _slice_corpus(FX / "copy.src", d / "dev.src", 10)
    _slice_corpus(FX / "copy.tgt", d / "dev.tgt", 10)
    bank = read_treebank(FX / "copy.trees")
    write_treebank(d / "train.trees", bank[:30])
    write_treebank(d / "dev.trees", bank[:10])
    # the copy pairs, then 30 pairs of 12 words that occur nowhere else:
    # the vocabularies hold those words, and --max_src_len 10 keeps their
    # pairs out of training
    letters = "abcdefghijklmnopqrstuvxyz"
    long = [" ".join(letters[k % 25] + letters[k // 25 % 25] + letters[k // 625]
                     for k in range(12 * i, 12 * i + 12)) for i in range(30)]
    for side in ("src", "tgt"):
        copy = (d / f"train.{side}").read_text(encoding="utf-8")
        (d / f"wide.{side}").write_text(copy + "\n".join(long) + "\n", encoding="utf-8")
    return d


@pytest.fixture(scope="module")
def pipeline(workdir):
    """train-parser -> extract-sawr -> train-nmt -> translate, end to end."""
    d = workdir
    rc = main(["train-parser", "--treebank", str(d / "train.trees"),
               "--dev_treebank", str(d / "dev.trees"),
               "--parser_embed", "8", "--parser_hidden", "8",
               "--parser_layers", "1", "--parser_epochs", "2",
               "--out", str(d / "parser.ckpt")])
    assert rc == 0
    rc = main(["extract-sawr", "--parser", str(d / "parser.ckpt"),
               "--src", str(d / "train.src"), "--out", str(d / "train.sawr")])
    assert rc == 0
    rc = main(["train-nmt",
               "--train_src", str(d / "train.src"), "--train_tgt", str(d / "train.tgt"),
               "--dev_src", str(d / "dev.src"), "--dev_tgt", str(d / "dev.tgt"),
               "--out", str(d / "base.ckpt")] + SMALL)
    assert rc == 0
    rc = main(["translate", "--model", str(d / "base.ckpt"),
               "--src", str(d / "dev.src"), "--beam_size", "2",
               "--out", str(d / "dev.hyp")])
    assert rc == 0
    rc = main(["evaluate", "--hyp", str(d / "dev.hyp"),
               "--ref", str(d / "dev.tgt"), "--out", str(d / "dev.bleu")])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def parserless(pipeline, tmp_path_factory):
    """A sawr bundle trained from caches alone, so it carries no parser, and
    the dev-set cache it needs to decode."""
    d, out = pipeline, tmp_path_factory.mktemp("parserless")
    rc = main(["extract-sawr", "--parser", str(d / "parser.ckpt"),
               "--src", str(d / "dev.src"), "--out", str(out / "dev.sawr")])
    assert rc == 0
    rc = main(["train-nmt", "--mode", "sawr",
               "--cache", str(d / "train.sawr"),
               "--dev_cache", str(out / "dev.sawr"), "--sawr_dim", "8",
               "--train_src", str(d / "train.src"),
               "--train_tgt", str(d / "train.tgt"),
               "--dev_src", str(d / "dev.src"), "--dev_tgt", str(d / "dev.tgt"),
               "--out", str(out / "cached.ckpt")] + SMALL[:-2] + ["--epochs", "1"])
    assert rc == 0
    return out


def _manifest(path):
    with open(str(path) + ".manifest.json", encoding="utf-8") as f:
        return json.load(f)


class TestValidationFailures:
    def test_missing_required_field_exits_1(self, capsys):
        assert main(["evaluate", "--hyp", "x", "--ref", "y"]) == 1
        assert "'out'" in capsys.readouterr().err

    def test_unknown_config_key_suggests_fix(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rte = 0.1\n", encoding="utf-8")
        assert main(["evaluate", "--config", str(cfg)]) == 1
        assert "learning_rate" in capsys.readouterr().err

    def test_invalid_value_fails_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "never.ckpt"
        rc = main(["train-nmt", "--epochs", "0",
                   "--train_src", str(FX / "copy.src"),
                   "--train_tgt", str(FX / "copy.tgt"),
                   "--dev_src", str(FX / "copy.dev.src"),
                   "--dev_tgt", str(FX / "copy.dev.tgt"),
                   "--out", str(out)])
        assert rc == 1
        assert "epochs" in capsys.readouterr().err
        assert not out.exists()
        assert not Path(str(out) + ".manifest.json").exists()

    def test_sawr_mode_without_parser_names_the_field(self, tmp_path, capsys):
        rc = main(["train-nmt", "--mode", "sawr",
                   "--train_src", str(FX / "copy.src"),
                   "--train_tgt", str(FX / "copy.tgt"),
                   "--dev_src", str(FX / "copy.dev.src"),
                   "--dev_tgt", str(FX / "copy.dev.tgt"),
                   "--out", str(tmp_path / "x.ckpt")])
        assert rc == 1
        assert "parser" in capsys.readouterr().err

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        rc = main(["evaluate", "--hyp", str(tmp_path / "nope.txt"),
                   "--ref", str(FX / "copy.tgt"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--hyp", "DIR", "--ref", str(FX / "copy.tgt")],
        ["translate", "--model", "DIR", "--src", str(FX / "copy.dev.src")],
        ["evaluate", "--config", "DIR"],
    ], ids=["evaluate --hyp", "translate --model", "--config"])
    def test_an_input_that_cannot_be_opened_exits_2(self, tmp_path, capsys, argv):
        d = tmp_path / "a-directory"
        d.mkdir()
        rc = main([str(d) if a == "DIR" else a for a in argv] + ["--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"data error: {d}: "), err

    def test_corrupt_cache_exits_2(self, tmp_path, capsys):
        junk = tmp_path / "junk.sawr"
        junk.write_bytes(b"not a cache at all")
        rc = main(["train-nmt", "--mode", "sawr",
                   "--cache", str(junk), "--dev_cache", str(junk),
                   "--train_src", str(FX / "copy.src"),
                   "--train_tgt", str(FX / "copy.tgt"),
                   "--dev_src", str(FX / "copy.dev.src"),
                   "--dev_tgt", str(FX / "copy.dev.tgt"),
                   "--out", str(tmp_path / "x.ckpt")])
        assert rc == 2
        assert "magic" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["directory", "missing-directory"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, where):
        hyp = tmp_path / "h.txt"
        hyp.write_text("a b c d\n", encoding="utf-8")
        out = tmp_path / "outdir"
        if where == "directory":
            out.mkdir()
        else:
            out = out / "x.bleu"
        rc = main(["evaluate", "--hyp", str(hyp), "--ref", str(hyp),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"data error: {out}: ")
        assert ".tmp" not in err[0]

    @pytest.mark.parametrize("empty", [False, True], ids=["misaligned", "empty"])
    @pytest.mark.parametrize("command, fields", [
        ("evaluate", ("hyp", "ref")),
        ("significance", ("hyp_a", "hyp_b", "ref")),
        ("length-report", ("hyp", "ref", "src")),
    ])
    def test_misaligned_or_empty_inputs_exit_2(self, tmp_path, capsys, command, fields, empty):
        argv, paths = [command], []
        for k, field in enumerate(fields):
            path = tmp_path / f"{field}.txt"
            # misaligned: the second file holds one line, the others two
            path.write_text("" if empty else "a b c d\n" * (1 if k == 1 else 2),
                            encoding="utf-8")
            argv += [f"--{field}", str(path)]
            paths.append(str(path))
        out = tmp_path / "out.txt"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: ")
        assert all(p in err[0] for p in paths)
        assert not out.exists()

    def test_an_empty_dev_file_exits_2_before_training(self, workdir, tmp_path, capsys):
        empty = tmp_path / "dev.txt"
        empty.write_bytes(b"")
        out = tmp_path / "m.ckpt"
        capsys.readouterr()
        rc = main(["train-nmt", "--train_src", str(workdir / "train.src"),
                   "--train_tgt", str(workdir / "train.tgt"), "--dev_src", str(empty),
                   "--dev_tgt", str(empty), "--out", str(out)] + SMALL)
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"data error: {empty}: "), err
        assert not out.exists()
        assert not Path(str(out) + ".manifest.json").exists()  # no epoch was logged

    def test_a_dev_file_of_blank_lines_still_trains(self, workdir, tmp_path):
        blank = tmp_path / "dev.txt"
        blank.write_text("\n\n", encoding="utf-8")
        out = tmp_path / "m.ckpt"
        assert main(["train-nmt", "--train_src", str(workdir / "train.src"),
                     "--train_tgt", str(workdir / "train.tgt"), "--dev_src", str(blank),
                     "--dev_tgt", str(blank), "--out", str(out)]
                    + SMALL + ["--epochs", "1"]) == 0
        assert _manifest(out)["final"]["decode"]["sentences"] == 0

    def test_a_skip_policy_that_leaves_no_tree_exits_2(self, tmp_path, capsys):
        bank = tmp_path / "one.trees"  # the arc 4 -> 2 spans the root 3
        bank.write_text("1\ta\t3\tdet\n2\tb\t4\tobj\n3\tc\t0\troot\n"
                        "4\td\t3\tobj\n\n", encoding="utf-8")
        out = tmp_path / "parser.ckpt"
        capsys.readouterr()
        assert main(["train-parser", "--treebank", str(bank), "--nonprojective", "skip",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "data error: no usable sentences after the non-projective policy"]
        assert not out.exists()

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("bootstrap_samples = 99\n", encoding="utf-8")
        hyp = tmp_path / "h.txt"
        hyp.write_text("a b c d e\n", encoding="utf-8")
        # 99 from the file fails validation; the flag rescues the run
        assert main(["significance", "--config", str(cfg),
                     "--hyp_a", str(hyp), "--hyp_b", str(hyp),
                     "--ref", str(hyp), "--out", str(tmp_path / "p.txt")]) == 1
        assert main(["significance", "--config", str(cfg),
                     "--bootstrap_samples", "120",
                     "--hyp_a", str(hyp), "--hyp_b", str(hyp),
                     "--ref", str(hyp), "--out", str(tmp_path / "p.txt")]) == 0

    def test_a_flag_does_not_outlive_its_call(self, tmp_path):
        hyp = tmp_path / "h.txt"
        hyp.write_text("a b c d\n", encoding="utf-8")
        outs = [tmp_path / "first.txt", tmp_path / "second.txt"]
        assert main(["evaluate", "--hyp", str(hyp), "--ref", str(hyp),
                     "--beam_size", "3", "--out", str(outs[0])]) == 0
        assert main(["evaluate", "--hyp", str(hyp), "--ref", str(hyp),
                     "--out", str(outs[1])]) == 0
        assert _manifest(outs[0])["config"]["beam_size"] == 3
        assert _manifest(outs[1])["config"]["beam_size"] == 5
        assert cli.build_arg_parser() is cli.build_arg_parser()  # built once


class TestScoringCommands:
    def test_evaluate_matches_library_and_hashes_artifact(self, tmp_path, capsys):
        hyp, ref = tmp_path / "h.txt", tmp_path / "r.txt"
        hyp.write_text("the cat sat on the mat\nsecond line goes here now\n",
                       encoding="utf-8")
        ref.write_text("the cat sat on the mat\na second line went here now\n",
                       encoding="utf-8")
        out = tmp_path / "score.txt"
        assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref),
                     "--out", str(out)]) == 0
        expected = str(bleu(hyp.read_text().splitlines(), ref.read_text().splitlines()))
        assert out.read_text(encoding="utf-8").strip() == expected
        assert expected in capsys.readouterr().out
        man = _manifest(out)
        assert man["command"] == "evaluate"
        assert man["artifacts"][str(out)] == file_sha256(out)
        assert man["config"]["beam_size"] == 5  # full snapshot present
        assert man["peak_rss_mb"] > 0

    def test_out_symlink_stays_a_symlink(self, tmp_path):
        hyp = tmp_path / "h.txt"
        hyp.write_text("a b c d\n", encoding="utf-8")
        real, link = tmp_path / "real.txt", tmp_path / "link.txt"
        real.write_text("old\n", encoding="utf-8")
        link.symlink_to(real)
        assert main(["evaluate", "--hyp", str(hyp), "--ref", str(hyp),
                     "--out", str(link)]) == 0
        assert link.is_symlink()
        assert real.read_text(encoding="utf-8").startswith("BLEU = 100.00")

    def test_rerun_keeps_permission_bits(self, tmp_path):
        hyp = tmp_path / "h.txt"
        hyp.write_text("a b c d\n", encoding="utf-8")
        out = tmp_path / "score.txt"
        argv = ["evaluate", "--hyp", str(hyp), "--ref", str(hyp), "--out", str(out)]
        assert main(argv) == 0
        out.chmod(0o600)
        assert main(argv) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert _manifest(out)["artifacts"][str(out)] == file_sha256(out)

    def test_significance_self_comparison_and_determinism(self, tmp_path):
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("a b c d e f\ng h i j k l\n", encoding="utf-8")
        ref.write_text("a b c d e f\ng h i j k m\n", encoding="utf-8")
        outs = []
        for name in ("p1.txt", "p2.txt"):
            out = tmp_path / name
            assert main(["significance", "--hyp_a", str(hyp), "--hyp_b", str(hyp),
                         "--ref", str(ref), "--bootstrap_samples", "200",
                         "--out", str(out)]) == 0
            outs.append(out.read_text(encoding="utf-8"))
        assert outs[0] == outs[1]  # fixed seed, fixed result
        fields = dict(line.split("\t") for line in outs[0].splitlines())
        assert float(fields["p_value"]) >= 0.4
        assert fields["bleu_a"] == fields["bleu_b"]
        assert fields["samples"] == "200"

    def test_length_report_tsv_layout(self, tmp_path):
        src = tmp_path / "s.txt"
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        src.write_text("a b c\nq r s t u v w x\n", encoding="utf-8")
        hyp.write_text("a b c d\ne f g h i j k l\n", encoding="utf-8")
        ref.write_text("a b c d\ne f g h i j k l\n", encoding="utf-8")
        out = tmp_path / "bins.tsv"
        assert main(["length-report", "--src", str(src), "--hyp", str(hyp),
                     "--ref", str(ref), "--length_edges", "5,10",
                     "--out", str(out)]) == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert rows[0] == ["lo", "hi", "count", "bleu"]
        assert len(rows) == 4  # 2 edges -> 3 bins
        assert rows[1] == ["0", "5", "1", "100.00"]
        assert rows[2] == ["5", "10", "1", "100.00"]
        assert rows[3] == ["10", "inf", "0", "NA"]


class TestPipeline:
    def test_parser_manifest_records_epochs_and_dev_accuracy(self, pipeline):
        man = _manifest(pipeline / "parser.ckpt")
        assert man["command"] == "train-parser"
        assert [e["epoch"] for e in man["epochs"]] == [1, 2]
        for e in man["epochs"]:
            assert set(e) == {"epoch", "train_loss", "grad_norm", "clipped_frac", "seconds"}
            assert e["seconds"] >= 0
            assert 0 < e["grad_norm"]["median"] <= e["grad_norm"]["max"]
            assert 0.0 <= e["clipped_frac"] <= 1.0
        assert 0.0 <= man["dev"]["las"] <= man["dev"]["uas"] <= 1.0
        ckpt = str(pipeline / "parser.ckpt")
        assert man["artifacts"][ckpt] == file_sha256(ckpt)

    def test_cache_binds_to_parser_hash(self, pipeline):
        encodings, stored = read_sawr_cache(
            pipeline / "train.sawr", file_sha256(pipeline / "parser.ckpt"))
        assert len(encodings) == 30
        assert stored == file_sha256(pipeline / "parser.ckpt")

    def test_train_manifest_shape(self, pipeline):
        man = _manifest(pipeline / "base.ckpt")
        assert [e["epoch"] for e in man["epochs"]] == [1, 2, 3]
        for e in man["epochs"]:
            assert set(e) == {"epoch", "train_loss", "dev_bleu", "grad_norm",
                              "clipped_frac", "decode", "tok_per_s", "seconds", "phases"}
            assert set(e["grad_norm"]) == {"median", "max"}
            assert 0 < e["grad_norm"]["median"] <= e["grad_norm"]["max"]
            assert 0.0 <= e["clipped_frac"] <= 1.0
            dec = e["decode"]
            assert dec["sentences"] == man["data"]["dev"]
            assert dec["sentences"] <= dec["emitted_tokens"] <= dec["decoder_steps"]
            assert e["tok_per_s"] > 0
            assert set(e["phases"]) == {"train", "dev_decode", "save"}
            assert all(v >= 0 for v in e["phases"].values())
        assert set(man["phases"]) == {"data_prep", "parser_encode"}
        assert man["peak_rss_mb"] > 0
        traces = [e["dev_bleu"] for e in man["epochs"]]
        best = man["best"]
        assert best["dev_bleu"] == max(traces)
        assert traces[best["epoch"] - 1] == best["dev_bleu"]
        assert traces.index(max(traces)) + 1 == best["epoch"]  # first best wins
        assert "final" in man and man["final"]["beam_size"] == 2

    def test_the_model_file_is_the_one_artifact(self, pipeline):
        base = str(pipeline / "base.ckpt")
        assert _manifest(base)["artifacts"] == {base: file_sha256(base)}
        assert sorted(p.name for p in pipeline.glob("base.ckpt*")) == [
            "base.ckpt", "base.ckpt.manifest.json"]

    def test_decoding_commands_read_the_model_file_alone(self, pipeline, tmp_path):
        model = tmp_path / "m.ckpt"
        model.write_bytes((pipeline / "base.ckpt").read_bytes())
        runs = {"beam.hyp": ["translate", "--model", str(model)],
                "ensemble.hyp": ["ensemble-translate", "--models", f"{model},{model}"],
                "align.jsonl": ["align-dump", "--model", str(model)]}
        for out, argv in runs.items():
            assert main(argv + ["--src", str(pipeline / "dev.src"), "--beam_size", "2",
                                "--out", str(tmp_path / out)]) == 0
        for out in ("beam.hyp", "ensemble.hyp"):
            assert (tmp_path / out).read_bytes() == (pipeline / "dev.hyp").read_bytes()
        assert len(read_alignments(tmp_path / "align.jsonl")) == 10

    def test_translate_keeps_line_alignment(self, pipeline):
        hyps = (pipeline / "dev.hyp").read_text(encoding="utf-8").splitlines()
        assert len(hyps) == 10

    def test_identical_training_runs_are_identical(self, pipeline, workdir, tmp_path):
        rc = main(["train-nmt",
                   "--train_src", str(workdir / "train.src"),
                   "--train_tgt", str(workdir / "train.tgt"),
                   "--dev_src", str(workdir / "dev.src"),
                   "--dev_tgt", str(workdir / "dev.tgt"),
                   "--out", str(tmp_path / "again.ckpt")] + SMALL)
        assert rc == 0
        first = _manifest(pipeline / "base.ckpt")["epochs"]
        second = _manifest(tmp_path / "again.ckpt")["epochs"]
        # every field but the timings (seconds, tok_per_s, phases)
        fields = ("epoch", "train_loss", "dev_bleu", "grad_norm", "clipped_frac", "decode")
        assert [[e[k] for k in fields] for e in first] == \
               [[e[k] for k in fields] for e in second]
        assert _manifest(pipeline / "base.ckpt")["final"] == \
               _manifest(tmp_path / "again.ckpt")["final"]
        assert file_sha256(pipeline / "base.ckpt") == file_sha256(tmp_path / "again.ckpt")

    def test_the_training_state_is_freed_before_the_best_model_loads(self, workdir,
                                                                      tmp_path, monkeypatch):
        # the training model's table and its optimizer must be unreachable
        # (freed without the cyclic collector) when the best checkpoint loads
        made, seen = [], []
        adam_init, load = nn.Adam.__init__, cli.TranslationModel.load

        def tracked_init(opt, table, *args, **kw):
            adam_init(opt, table, *args, **kw)
            made.extend([weakref.ref(opt), weakref.ref(table)])

        def tracked_load(path):
            seen.append([ref() is None for ref in made])
            return load(path)

        monkeypatch.setattr(nn.Adam, "__init__", tracked_init)
        monkeypatch.setattr(cli.TranslationModel, "load", tracked_load)
        d = workdir
        gc.disable()
        try:
            assert main(["train-nmt",
                         "--train_src", str(d / "train.src"),
                         "--train_tgt", str(d / "train.tgt"),
                         "--dev_src", str(d / "dev.src"), "--dev_tgt", str(d / "dev.tgt"),
                         "--out", str(tmp_path / "nmt.ckpt")] + SMALL + ["--epochs", "1"]) == 0
        finally:
            gc.enable()
        assert seen == [[True, True]]

    def test_tiny_clip_norm_clips_every_update(self, workdir, tmp_path):
        d = workdir
        assert main(["train-nmt",
                     "--train_src", str(d / "train.src"), "--train_tgt", str(d / "train.tgt"),
                     "--dev_src", str(d / "dev.src"), "--dev_tgt", str(d / "dev.tgt"),
                     "--out", str(tmp_path / "nmt.ckpt")]
                    + SMALL + ["--epochs", "1", "--clip_norm", "1e-9"]) == 0
        assert main(["train-parser", "--treebank", str(d / "dev.trees"),
                     "--parser_embed", "8", "--parser_hidden", "8",
                     "--parser_layers", "1", "--parser_epochs", "1",
                     "--clip_norm", "1e-9", "--out", str(tmp_path / "parser.ckpt")]) == 0
        for name in ("nmt.ckpt", "parser.ckpt"):
            [epoch] = _manifest(tmp_path / name)["epochs"]
            assert epoch["clipped_frac"] == 1.0

    def test_ensemble_of_identical_models_equals_single(self, pipeline, tmp_path):
        ck = str(pipeline / "base.ckpt")
        for models in (ck, f"{ck},{ck}"):  # one member, then two
            out = tmp_path / "ens.hyp"
            rc = main(["ensemble-translate", "--models", models,
                       "--src", str(pipeline / "dev.src"), "--beam_size", "2",
                       "--out", str(out)])
            assert rc == 0
            assert out.read_bytes() == (pipeline / "dev.hyp").read_bytes()
            assert _manifest(out)["decode"] == _manifest(pipeline / "dev.hyp")["decode"]

    def test_ensemble_feeds_cache_to_parserless_member(self, pipeline, parserless,
                                                        tmp_path):
        out = tmp_path / "ens.hyp"
        rc = main(["ensemble-translate", "--models",
                   f"{parserless / 'cached.ckpt'},{pipeline / 'base.ckpt'}",
                   "--src", str(pipeline / "dev.src"),
                   "--cache", str(parserless / "dev.sawr"),
                   "--beam_size", "2", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 10

    @pytest.mark.parametrize("command, spoiled, spoil", [
        ("train-nmt", "cache", "rows"), ("train-nmt", "cache", "width"),
        ("train-nmt", "dev_cache", "rows"), ("train-nmt", "dev_cache", "width"),
        ("translate", "cache", "rows"), ("translate", "cache", "width"),
    ])
    def test_a_cache_that_does_not_fit_its_corpus_exits_2(self, pipeline, parserless,
                                                          tmp_path, capsys,
                                                          command, spoiled, spoil):
        """The record count is right, but the rows belong to other sentences
        (rows) or are one column too wide (width): the read names the cache,
        the first bad record and both shapes, before any training."""
        d = pipeline
        good = {"cache": d / "train.sawr", "dev_cache": parserless / "dev.sawr"}
        if command == "translate":
            good["cache"] = good.pop("dev_cache")
        encodings, digest = read_sawr_cache(good[spoiled])
        bad = (encodings[1:] + encodings[:1] if spoil == "rows"
               else [np.hstack([e, e[:, :1]]) for e in encodings])
        bad_path = tmp_path / "bad.sawr"
        write_sawr_cache(bad_path, bad, digest)
        paths = {**good, spoiled: bad_path}
        if command == "translate":
            argv = ["translate", "--model", str(parserless / "cached.ckpt"),
                    "--src", str(d / "dev.src"), "--cache", str(paths["cache"])]
        else:
            argv = ["train-nmt", "--mode", "sawr", "--parser", str(d / "parser.ckpt"),
                    "--cache", str(paths["cache"]), "--dev_cache", str(paths["dev_cache"]),
                    "--sawr_dim", "8",
                    "--train_src", str(d / "train.src"), "--train_tgt", str(d / "train.tgt"),
                    "--dev_src", str(d / "dev.src"), "--dev_tgt", str(d / "dev.tgt")] + SMALL
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        i = next(i for i, (a, b) in enumerate(zip(bad, encodings)) if a.shape != b.shape)
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {bad_path} record {i}: shape {bad[i].shape}, "
            f"expected {encodings[i].shape}"]
        assert not out.exists()

    @pytest.mark.parametrize("ckpt", ["base.ckpt", "parser.ckpt"])
    def test_a_checkpoint_given_as_cache_exits_2(self, pipeline, tmp_path, capsys, ckpt):
        d = pipeline
        capsys.readouterr()
        rc = main(["train-nmt", "--mode", "sawr", "--sawr_dim", "8",
                   "--cache", str(d / ckpt), "--dev_cache", str(d / ckpt),
                   "--train_src", str(d / "train.src"), "--train_tgt", str(d / "train.tgt"),
                   "--dev_src", str(d / "dev.src"), "--dev_tgt", str(d / "dev.tgt"),
                   "--out", str(tmp_path / "out")] + SMALL)
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {d / ckpt}: no parser_sha256 in __meta__; not a SAWR cache"]

    def test_a_frozen_parser_encodes_the_dev_set_once(self, pipeline, tmp_path,
                                                      monkeypatch):
        """Three epochs' dev decodes and the final one share one encode of the
        dev set: 10 sentences, 5 a padded batch, so two parser passes, not 8."""
        calls = []
        encode = depparse.parser_encode

        def counted(sentences, parser):
            calls.append(len(sentences))
            return encode(sentences, parser)

        monkeypatch.setattr(depparse, "parser_encode", counted)
        monkeypatch.setattr(syntax, "ENCODE_CHUNK", 5)
        d = pipeline
        rc = main(["train-nmt", "--mode", "sawr", "--parser", str(d / "parser.ckpt"),
                   "--cache", str(d / "train.sawr"), "--sawr_dim", "8",
                   "--train_src", str(d / "train.src"), "--train_tgt", str(d / "train.tgt"),
                   "--dev_src", str(d / "dev.src"), "--dev_tgt", str(d / "dev.tgt"),
                   "--out", str(tmp_path / "sawr.ckpt")] + SMALL)
        assert rc == 0
        assert len(_manifest(tmp_path / "sawr.ckpt")["epochs"]) == 3
        assert calls == [5, 5]

    def _model_copy(self, pipeline, dst):
        dst.write_bytes((pipeline / "base.ckpt").read_bytes())

    def _translate_error(self, pipeline, model, capsys):
        capsys.readouterr()
        rc = main(["translate", "--model", str(model),
                   "--src", str(pipeline / "dev.src"),
                   "--out", str(model.parent / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and len(err.splitlines()) == 1
        return err

    def test_truncated_checkpoint_exits_2(self, pipeline, tmp_path, capsys):
        cut = tmp_path / "cut.ckpt"
        self._model_copy(pipeline, cut)
        cut.write_bytes(cut.read_bytes()[:-100])
        assert "truncated" in self._translate_error(pipeline, cut, capsys)

    def test_malformed_metadata_exits_2(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        self._model_copy(pipeline, bad)
        rewrite_meta(bad, b"{bad")
        assert "__meta__" in self._translate_error(pipeline, bad, capsys)

    @pytest.mark.parametrize("edit, message", [
        (lambda state: state.update(bogus=np.zeros(2)), "unknown entry 'bogus'"),
        (lambda state: state.pop("att.W"), "no entry for parameter 'att.W'"),
        (per_gate_layout, "no entry for parameter 'enc.fwd.W'"),
    ])
    def test_checkpoint_entries_must_match_the_model(self, pipeline, tmp_path, capsys,
                                                     edit, message):
        bad = tmp_path / "bad.ckpt"
        self._model_copy(pipeline, bad)
        edit_entries(bad, edit)
        assert f"{bad}: {message}" in self._translate_error(pipeline, bad, capsys)

    def test_a_repeated_entry_exits_2(self, pipeline, tmp_path, capsys):
        # the second att.W has the first's shape, so it would load in its place
        bad = tmp_path / "bad.ckpt"
        self._model_copy(pipeline, bad)
        entries = list(load_checkpoint(bad).items())
        att = dict(entries)["att.W"]
        write_checkpoint_oracle(bad, entries + [("att.W", np.zeros_like(att))])
        assert f"{bad}: entry 'att.W' appears twice" in self._translate_error(pipeline, bad,
                                                                              capsys)

    def test_metadata_without_a_field_exits_2(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        self._model_copy(pipeline, bad)
        edit_meta(bad, lambda meta: meta.pop("mode"))
        assert f"{bad}: __meta__ lacks 'mode'" in self._translate_error(pipeline, bad, capsys)

    def test_translator_dimension_of_the_wrong_type_exits_2(self, pipeline, tmp_path,
                                                              capsys):
        bad = tmp_path / "bad.ckpt"
        self._model_copy(pipeline, bad)
        edit_meta(bad, lambda meta: meta.update(hidden_dim="3"))
        err = self._translate_error(pipeline, bad, capsys)
        assert "hidden_dim" in err and "shape" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: meta.pop("vocabs"), "__meta__ lacks 'vocabs'"),
        (lambda meta: meta.update(vocabs=None), "no vocabularies in __meta__"),
        (lambda meta: meta["vocabs"][0].append(meta["vocabs"][0][0]), "duplicate or reserved"),
        (lambda meta: meta["vocabs"][0].insert(0, "<unk>"),
         "duplicate or reserved token '<unk>'"),
        (lambda meta: meta["vocabs"][1].insert(1, ""), "'' is not a non-empty string"),
        (lambda meta: meta["vocabs"][1].append(7), "7 is not a non-empty string"),
        (lambda meta: meta.update(vocabs=meta["vocabs"][:1]), "pair of token lists"),
        (lambda meta: meta.update(vocabs={"src": meta["vocabs"][0]}), "pair of token lists"),
        (lambda meta: meta["vocabs"][0].pop(), "vocabularies of"),
    ], ids=["missing", "null", "duplicate", "reserved", "empty token", "not a string",
            "one list", "not a list", "short"])
    def test_stored_vocabularies_must_fit_the_model(self, pipeline, tmp_path, capsys,
                                                    edit, message):
        bad = tmp_path / "bad.ckpt"
        self._model_copy(pipeline, bad)
        edit_meta(bad, edit)
        err = self._translate_error(pipeline, bad, capsys)
        assert err.startswith(f"data error: {bad}: ") and message in err

    def test_vocabularies_larger_than_the_tables_exit_2_not_3(self, pipeline, tmp_path,
                                                             capsys):
        """Vocabularies with more ids than the tables have rows are refused
        when the model loads, before any id can reach take_rows."""
        bad = tmp_path / "bad.ckpt"
        self._model_copy(pipeline, bad)
        edit_meta(bad, lambda meta: [v.extend(["zz1", "zz2"]) for v in meta["vocabs"]])
        err = self._translate_error(pipeline, bad, capsys)
        assert err.startswith(f"data error: {bad}: invalid __meta__ (vocabularies of ")

    def test_parser_dimension_of_the_wrong_type_exits_2(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "parser.ckpt"
        bad.write_bytes((pipeline / "parser.ckpt").read_bytes())
        edit_meta(bad, lambda meta: meta.update(hidden_dim="3"))
        capsys.readouterr()
        rc = main(["extract-sawr", "--parser", str(bad),
                   "--src", str(pipeline / "dev.src"), "--out", str(tmp_path / "o.sawr")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and len(err.splitlines()) == 1
        assert "hidden_dim" in err and "shape" not in err

    def test_align_dump_rows_are_distributions(self, pipeline, tmp_path):
        out = tmp_path / "align.jsonl"
        rc = main(["align-dump", "--model", str(pipeline / "base.ckpt"),
                   "--src", str(pipeline / "dev.src"), "--out", str(out)])
        assert rc == 0
        records = read_alignments(out)
        assert [r.id for r in records] == list(range(10))
        for rec in records:
            assert len(rec.attn) == len(rec.tgt)
            for row in rec.attn:
                assert len(row) == len(rec.src)
                assert abs(sum(row) - 1.0) < 1e-6

    def test_sawr_training_consumes_cache(self, pipeline, workdir, tmp_path):
        d = workdir
        rc = main(["train-nmt", "--mode", "sawr",
                   "--parser", str(pipeline / "parser.ckpt"),
                   "--cache", str(pipeline / "train.sawr"),
                   "--sawr_dim", "8",
                   "--train_src", str(d / "train.src"),
                   "--train_tgt", str(d / "train.tgt"),
                   "--dev_src", str(d / "dev.src"), "--dev_tgt", str(d / "dev.tgt"),
                   "--out", str(tmp_path / "sawr.ckpt")] + SMALL[:-2] + ["--epochs", "2"])
        assert rc == 0
        man = _manifest(tmp_path / "sawr.ckpt")
        assert man["config"]["mode"] == "sawr"
        # the saved model can decode new text on its own (parser travels inside)
        rc = main(["translate", "--model", str(tmp_path / "sawr.ckpt"),
                   "--src", str(d / "dev.src"), "--beam_size", "1",
                   "--out", str(tmp_path / "sawr.hyp")])
        assert rc == 0

    def test_tree_mode_training_with_tree_files(self, workdir, tmp_path):
        d = workdir
        rc = main(["train-nmt", "--mode", "tree-rnn",
                   "--trees", str(d / "train.trees"),
                   "--dev_trees", str(d / "dev.trees"),
                   "--tree_hidden", "8",
                   "--train_src", str(d / "train.src"),
                   "--train_tgt", str(d / "train.tgt"),
                   "--dev_src", str(d / "dev.src"), "--dev_tgt", str(d / "dev.tgt"),
                   "--out", str(tmp_path / "tree.ckpt")] + SMALL[:-2] + ["--epochs", "2"])
        assert rc == 0
        # translating tree-structured input without trees or a parser is an error
        rc = main(["translate", "--model", str(tmp_path / "tree.ckpt"),
                   "--src", str(d / "dev.src"), "--out", str(tmp_path / "t.hyp")])
        assert rc == 1
        rc = main(["translate", "--model", str(tmp_path / "tree.ckpt"),
                   "--src", str(d / "dev.src"), "--trees", str(d / "dev.trees"),
                   "--beam_size", "1", "--out", str(tmp_path / "t.hyp")])
        assert rc == 0

    def test_a_deep_tree_past_the_length_limit_is_dropped(self, workdir, tmp_path):
        """A 1,200-token chain, one tree level per token, is linearized before
        max_src_len drops its pair; the walk takes no recursion."""
        d, n = workdir, 1200
        long = " ".join(f"w{i}" for i in range(n)) + "\n"
        for name in ("train.src", "train.tgt"):
            (tmp_path / name).write_text((d / name).read_text(encoding="utf-8") + long,
                                         encoding="utf-8")
        chain = "".join(f"{i + 1}\tw{i}\t{i}\t{'dep' if i else 'root'}\n" for i in range(n))
        (tmp_path / "train.trees").write_text(
            (d / "train.trees").read_text(encoding="utf-8") + chain + "\n", encoding="utf-8")
        rc = main(["train-nmt", "--mode", "tree-linearized",
                   "--trees", str(tmp_path / "train.trees"),
                   "--dev_trees", str(d / "dev.trees"),
                   "--train_src", str(tmp_path / "train.src"),
                   "--train_tgt", str(tmp_path / "train.tgt"),
                   "--dev_src", str(d / "dev.src"), "--dev_tgt", str(d / "dev.tgt"),
                   "--out", str(tmp_path / "lin.ckpt")] + SMALL[:-2] + ["--epochs", "1"])
        assert rc == 0
        assert _manifest(tmp_path / "lin.ckpt")["data"]["pairs"] == 31

    def test_misaligned_tree_file_exits_2(self, workdir, tmp_path):
        d = workdir
        rc = main(["train-nmt", "--mode", "tree-rnn",
                   "--trees", str(d / "dev.trees"),  # 10 trees for 30 sentences
                   "--dev_trees", str(d / "dev.trees"),
                   "--train_src", str(d / "train.src"),
                   "--train_tgt", str(d / "train.tgt"),
                   "--dev_src", str(d / "dev.src"), "--dev_tgt", str(d / "dev.tgt"),
                   "--out", str(tmp_path / "x.ckpt")] + SMALL)
        assert rc == 2

    def test_non_finite_loss_exits_3_naming_epoch_and_batch(self, workdir, tmp_path,
                                                            capsys, monkeypatch):
        d, out = workdir, tmp_path / "nan.ckpt"
        saved = []

        def train_step(batch, model, opt):
            if out.exists() and not saved:  # epoch 1 kept its model: epoch 2, batch 1
                saved.append(out.read_bytes())
                model.table["out.logits.b"].data[0, 0] = np.nan
            return real_train_step(batch, model, opt)

        real_train_step = cli.train_step
        monkeypatch.setattr(cli, "train_step", train_step)
        rc = main(["train-nmt",
                   "--train_src", str(d / "train.src"), "--train_tgt", str(d / "train.tgt"),
                   "--dev_src", str(d / "dev.src"), "--dev_tgt", str(d / "dev.tgt"),
                   "--out", str(out)] + SMALL)
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [
            "runtime failure: FloatingPointError: epoch 2 batch 1: non-finite training loss nan"]
        assert out.read_bytes() == saved[0]  # no checkpoint for the failed epoch

    def test_overflowing_learning_rate_exits_3_naming_epoch_and_batch(self, workdir,
                                                                     tmp_path, capsys):
        # the first update throws every parameter out to about 1e300; the
        # next batch's forward overflows instead of training on infinities
        d = workdir
        rc = main(["train-nmt",
                   "--train_src", str(d / "train.src"), "--train_tgt", str(d / "train.tgt"),
                   "--dev_src", str(d / "dev.src"), "--dev_tgt", str(d / "dev.tgt"),
                   "--out", str(tmp_path / "x.ckpt")] + SMALL + ["--learning_rate", "1e300"])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("runtime failure: FloatingPointError: epoch 1 batch 2: ")
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("mode, extra", [
        ("baseline", []),
        ("tree-rnn", ["--trees", "train.trees", "--dev_trees", "dev.trees",
                      "--tree_hidden", "8"]),
        ("sawr-tuned", ["--parser", "parser.ckpt", "--sawr_dim", "8"]),
        ("baseline", ["--train_src", "wide.src", "--train_tgt", "wide.tgt",
                      "--max_src_len", "10", "--epochs", "2"]),
    ])
    def test_clipped_training_matches_the_whole_array_update(self, pipeline, tmp_path,
                                                             mode, extra):
        """Every update clips; the block-wise Adam leaves the bytes the
        whole-array reference leaves. The modes cover the translator's GRU
        gradients, the parser's LSTM gradients (sawr-tuned) and the
        Tree-GRU's (tree-rnn). In the two-epoch run on wide.src most
        embedding rows are never read, so Adam keeps their moments out."""
        d = pipeline
        extra = [str(d / a) if (d / a).is_file() else a for a in extra]

        def train(out):
            assert main(["train-nmt", "--mode", mode,
                         "--train_src", str(d / "train.src"),
                         "--train_tgt", str(d / "train.tgt"),
                         "--dev_src", str(d / "dev.src"), "--dev_tgt", str(d / "dev.tgt"),
                         "--out", str(out)]
                        + SMALL + ["--epochs", "1", "--clip_norm", "0.001"] + extra) == 0
            epochs = _manifest(out)["epochs"]
            assert len(epochs) == (2 if "--epochs" in extra else 1)
            assert all(epoch["clipped_frac"] == 1.0 for epoch in epochs)
            return out.read_bytes()

        block = train(tmp_path / "block.ckpt")
        with mock.patch.object(nn.Adam, "update", adam_step_oracle):
            whole = train(tmp_path / "whole.ckpt")
        assert block == whole


def _not_utf8(blob):
    """blob with a byte that no UTF-8 text holds put in its second line."""
    first = blob.index(b"\n") + 1
    return blob[:first] + b"\xff" + blob[first:]


# (command line, the file it reads and how it is spoiled, exit code, prefix)
MALFORMED_TEXT = {
    "source corpus not UTF-8": (
        ["translate", "--model", "m.ckpt", "--src", "dev.src"], "dev.src",
        _not_utf8, 2, "data error"),
    "treebank not UTF-8": (
        ["train-parser", "--treebank", "dev.trees", "--parser_epochs", "1"], "dev.trees",
        _not_utf8, 2, "data error"),
    "dev treebank line of two columns": (
        ["train-parser", "--treebank", "train.trees", "--dev_treebank", "dev.trees",
         "--parser_epochs", "1"], "dev.trees",
        lambda blob: blob.replace(b"\n\n", b"\n\n1\tx\n", 1), 2, "data error"),
    "dev treebank token that heads itself": (
        ["train-parser", "--treebank", "train.trees", "--dev_treebank", "dev.trees",
         "--parser_epochs", "1"], "dev.trees",
        lambda blob: blob + b"1\tx\t1\troot\n\n", 2, "data error"),
    "config not UTF-8": (
        ["evaluate", "--config", "exp.cfg", "--hyp", "dev.src", "--ref", "dev.src"],
        "exp.cfg", lambda blob: b"beam_size = 3\nseed = \xc3\x28\n", 1, "config error"),
}


@pytest.mark.parametrize("case", MALFORMED_TEXT)
def test_malformed_text_input_ends_in_one_line_naming_the_file(pipeline, tmp_path,
                                                               capsys, case):
    argv, spoiled, edit, code, prefix = MALFORMED_TEXT[case]
    (tmp_path / "m.ckpt").write_bytes((pipeline / "base.ckpt").read_bytes())
    for name in ("dev.src", "dev.trees", "train.trees"):
        (tmp_path / name).write_bytes((pipeline / name).read_bytes())
    (tmp_path / "exp.cfg").write_bytes(b"")
    (tmp_path / spoiled).write_bytes(edit((tmp_path / spoiled).read_bytes()))
    capsys.readouterr()
    argv = [str(tmp_path / a) if (tmp_path / a).is_file() else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"{prefix}: {tmp_path / spoiled}"), err[0]
