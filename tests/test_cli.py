"""Command-line behavior: exit codes, manifests, and the full toy pipeline.

Training-related tests run on small slices of the bundled fixture corpus so
the whole module stays fast; convergence itself is covered by the acceptance
suite.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from synmt.checkpoint import file_sha256
from synmt.cli import main
from synmt.data import read_corpus
from synmt.depparse import read_treebank, write_treebank
from synmt.evaluate import bleu, read_alignments
from synmt.syntax import read_sawr_cache

from helpers import rewrite_meta

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
        assert all(e["seconds"] >= 0 for e in man["epochs"])
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
            assert set(e) == {"epoch", "train_loss", "dev_bleu", "seconds"}
        traces = [e["dev_bleu"] for e in man["epochs"]]
        best = man["best"]
        assert best["dev_bleu"] == max(traces)
        assert traces[best["epoch"] - 1] == best["dev_bleu"]
        assert traces.index(max(traces)) + 1 == best["epoch"]  # first best wins
        assert "final" in man and man["final"]["beam_size"] == 2

    def test_bundle_artifacts_all_hashed(self, pipeline):
        man = _manifest(pipeline / "base.ckpt")
        base = str(pipeline / "base.ckpt")
        expected = {base, base + ".src.vocab", base + ".tgt.vocab", base + ".bpe"}
        assert set(man["artifacts"]) == expected
        for path, digest in man["artifacts"].items():
            assert digest == file_sha256(path)

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
        assert [(e["epoch"], e["train_loss"], e["dev_bleu"]) for e in first] == \
               [(e["epoch"], e["train_loss"], e["dev_bleu"]) for e in second]
        assert file_sha256(pipeline / "base.ckpt") == file_sha256(tmp_path / "again.ckpt")

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

    def test_ensemble_feeds_cache_to_parserless_member(self, pipeline, workdir,
                                                        tmp_path):
        d = workdir
        rc = main(["extract-sawr", "--parser", str(pipeline / "parser.ckpt"),
                   "--src", str(d / "dev.src"), "--out", str(tmp_path / "dev.sawr")])
        assert rc == 0
        rc = main(["train-nmt", "--mode", "sawr",
                   "--cache", str(pipeline / "train.sawr"),
                   "--dev_cache", str(tmp_path / "dev.sawr"), "--sawr_dim", "8",
                   "--train_src", str(d / "train.src"),
                   "--train_tgt", str(d / "train.tgt"),
                   "--dev_src", str(d / "dev.src"), "--dev_tgt", str(d / "dev.tgt"),
                   "--out", str(tmp_path / "cached.ckpt")] + SMALL[:-2] + ["--epochs", "1"])
        assert rc == 0
        out = tmp_path / "ens.hyp"
        rc = main(["ensemble-translate", "--models",
                   f"{tmp_path / 'cached.ckpt'},{pipeline / 'base.ckpt'}",
                   "--src", str(d / "dev.src"), "--cache", str(tmp_path / "dev.sawr"),
                   "--beam_size", "2", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 10

    def _bundle_copy(self, pipeline, dst):
        for suffix in ("", ".src.vocab", ".tgt.vocab", ".bpe"):
            (dst.parent / (dst.name + suffix)).write_bytes(
                (pipeline / ("base.ckpt" + suffix)).read_bytes())

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
        self._bundle_copy(pipeline, cut)
        cut.write_bytes(cut.read_bytes()[:-100])
        assert "truncated" in self._translate_error(pipeline, cut, capsys)

    def test_malformed_metadata_exits_2(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        self._bundle_copy(pipeline, bad)
        rewrite_meta(bad, b"{bad")
        assert "__meta__" in self._translate_error(pipeline, bad, capsys)

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
