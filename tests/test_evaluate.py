"""BLEU, bootstrap significance, length bins, alignment dumps, ensembles."""

import json

import numpy as np
import pytest

from synmt import nn
from synmt import tensor as T
from synmt.data import EOS, Vocabulary, filter_and_batch, linearize_tree
from synmt.depparse import DependencyTree
from synmt.evaluate import (AlignmentRecord, BleuReport, bleu, bleu_by_length,
                            bootstrap_significance, dump_alignments,
                            ensemble_decode, read_alignments, write_alignments)
from synmt.seq2seq import TranslationModel, beam_search, decode_step, \
    encode_for_decode, train_step

from bleu_reference import reference_bleu
from helpers import full_length_beam, sharpen

FIX_HYPS = ["the cat sat on the mat", "a dog barks", "green ideas sleep furiously here"]
FIX_REFS = ["the cat sat on a mat", "a dog barks", "colorless green ideas sleep furiously"]


def tiny_model(seed=1, tgt=9):
    return TranslationModel(13, tgt, emb_dim=6, hidden_dim=8, dropout=0.0, seed=seed)


class TestBleu:
    def test_perfect_match_is_exactly_100(self):
        refs = ["a b c d e", "f g h i", "one two three four five six"]
        assert bleu(refs, refs).score == 100.0

    def test_corpus_without_any_4gram_scores_zero_even_when_identical(self):
        # script convention: a zero 4-gram total means p4 = 0, hence BLEU 0
        r = bleu(["x y z"], ["x y z"])
        assert r.precisions[:3] == (1.0, 1.0, 1.0)
        assert r.score == 0.0

    def test_clipping_hand_case(self):
        # "the" appears once in the reference, so only one of three counts
        r = bleu(["the the the"], ["the cat"])
        assert r.precisions[0] == pytest.approx(1 / 3)
        assert r.score == 0.0  # no bigram match, unsmoothed

    def test_three_sentence_fixture_frozen_value(self):
        """Counts worked out by hand: p = 12/14, 8/11, 5/8, 2/5 and BP = 1."""
        r = bleu(FIX_HYPS, FIX_REFS)
        assert r.precisions == pytest.approx((12 / 14, 8 / 11, 5 / 8, 2 / 5))
        assert r.hyp_len == r.ref_len == 14
        assert r.bp == 1.0
        assert round(r.score, 2) == 62.83
        assert str(r) == ("BLEU = 62.83, 85.7/72.7/62.5/40.0 "
                          "(BP=1.000, ratio=1.000, hyp_len=14, ref_len=14)")

    def test_brevity_penalty_hand_case(self):
        # all n-grams match but the hypothesis is one token short
        r = bleu(["a b c d"], ["a b c d e"])
        assert r.precisions == (1.0, 1.0, 1.0, 1.0)
        assert r.bp == pytest.approx(np.exp(1 - 5 / 4))
        assert r.score == pytest.approx(100 * np.exp(-0.25))

    def test_equal_lengths_get_no_penalty(self):
        assert bleu(["a b c d"], ["a b c e"]).bp == 1.0

    def test_case_folds_by_default(self):
        assert bleu(["The CAT sat down здесь"], ["the cat SAT down здесь"]).score == 100.0
        assert bleu(["The cat"], ["the cat"], case_sensitive=True).score == 0.0

    def test_token_lists_and_strings_agree(self):
        as_str = bleu(FIX_HYPS, FIX_REFS).score
        as_tok = bleu([h.split() for h in FIX_HYPS],
                      [r.split() for r in FIX_REFS]).score
        assert as_str == as_tok

    def test_permutation_invariant(self):
        perm = [2, 0, 1]
        a = bleu(FIX_HYPS, FIX_REFS)
        b = bleu([FIX_HYPS[i] for i in perm], [FIX_REFS[i] for i in perm])
        assert a.score == b.score and a.precisions == b.precisions

    def test_empty_hypotheses_score_zero(self):
        r = bleu(["", ""], ["a b", "c d"])
        assert r.score == 0.0 and r.hyp_len == 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bleu(["a"], ["a", "b"])
        with pytest.raises(ValueError):
            bleu([], [])

    def test_matches_independent_reference_on_random_corpora(self):
        rng = T.make_rng(99)
        words = list("abcdefg")
        for _ in range(40):
            n = int(rng.integers(1, 8))
            hyps, refs = [], []
            for _ in range(n):
                hyps.append(" ".join(rng.choice(words, size=rng.integers(1, 12))))
                refs.append(" ".join(rng.choice(words, size=rng.integers(1, 12))))
            mine = bleu(hyps, refs)
            score, precisions, bp, hl, rl = reference_bleu(hyps, refs)
            assert mine.score == pytest.approx(score, abs=1e-9)
            assert mine.precisions == pytest.approx(precisions)
            assert mine.bp == pytest.approx(bp)
            assert (mine.hyp_len, mine.ref_len) == (hl, rl)


class TestBootstrap:
    REFS = [" ".join(f"w{i}{j}" for j in range(6)) for i in range(30)]

    def test_identical_systems_not_significant(self):
        p = bootstrap_significance(self.REFS, self.REFS, self.REFS,
                                   samples=200, seed=1)
        assert p >= 0.4

    def test_extreme_separation_is_significant(self):
        empty = ["" for _ in self.REFS]
        p = bootstrap_significance(self.REFS, empty, self.REFS, samples=200, seed=2)
        assert p <= 0.01

    def test_deterministic_under_fixed_seed(self):
        noisy = [r.replace("w00", "x") for r in self.REFS]
        args = (self.REFS, noisy, self.REFS)
        assert (bootstrap_significance(*args, samples=150, seed=7)
                == bootstrap_significance(*args, samples=150, seed=7))

    def test_monotone_in_separation(self):
        # a barely-worse system should look less significant than a broken one
        mild = [r.replace("2 ", "2x ") if i % 10 == 0 else r
                for i, r in enumerate(self.REFS)]
        broken = ["z z z z z z" for _ in self.REFS]
        p_mild = bootstrap_significance(self.REFS, mild, self.REFS, samples=200, seed=3)
        p_broken = bootstrap_significance(self.REFS, broken, self.REFS,
                                          samples=200, seed=3)
        assert p_mild >= p_broken

    def test_input_validation(self):
        with pytest.raises(ValueError, match="100"):
            bootstrap_significance(self.REFS, self.REFS, self.REFS, samples=50)
        with pytest.raises(ValueError):
            bootstrap_significance(self.REFS[:-1], self.REFS, self.REFS, samples=100)


class TestBleuByLength:
    def test_single_huge_bin_equals_plain_bleu(self):
        bins = bleu_by_length(FIX_HYPS, FIX_REFS, FIX_REFS, [1000])
        assert len(bins) == 2
        assert bins[0].count == 3
        assert bins[0].report.score == bleu(FIX_HYPS, FIX_REFS).score
        assert bins[1].count == 0 and bins[1].report is None

    def test_edge_goes_to_upper_bin(self):
        sources = ["w " * 9, "w " * 10]  # lengths 9 and exactly 10
        hyps = refs = ["a", "b"]
        bins = bleu_by_length(hyps, refs, sources, [10, 20])
        assert [b.count for b in bins] == [1, 1, 0]
        assert (bins[0].lo, bins[0].hi) == (0, 10)
        assert (bins[1].lo, bins[1].hi) == (10, 20)
        assert (bins[2].lo, bins[2].hi) == (20, None)

    def test_paper_style_six_intervals(self):
        rng = T.make_rng(5)
        sources = [" ".join("s" for _ in range(int(rng.integers(1, 70))))
                   for _ in range(60)]
        hyps = refs = ["x y z w"] * 60
        bins = bleu_by_length(hyps, refs, sources, [10, 20, 30, 40, 50])
        assert len(bins) == 6
        assert sum(b.count for b in bins) == 60
        for b in bins:
            if b.count:
                assert b.report.score == 100.0

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            bleu_by_length(["a"], ["a"], ["a"], [20, 10])
        with pytest.raises(ValueError):
            bleu_by_length(["a"], ["a"], ["a"], [])

    def test_misaligned_lists_rejected(self):
        with pytest.raises(ValueError):
            bleu_by_length(["a"], ["a", "b"], ["a"], [10])


def word_vocabs():
    src = Vocabulary([f"s{i}" for i in range(9)])
    tgt = Vocabulary([f"t{i}" for i in range(5)])
    return src, tgt


class TestDumpAlignments:
    def test_rows_are_distributions_and_shapes_align(self):
        src_vocab, tgt_vocab = word_vocabs()
        model = tiny_model(seed=3)
        sources = ["s0 s1 s2", "s3 s4", "s1 s1 s5 s6"]
        records = dump_alignments(model, sources, src_vocab, tgt_vocab, max_len=8)
        assert len(records) == 3
        for rec, src in zip(records, sources):
            assert rec.src == src.split()
            assert len(rec.tgt) == len(rec.attn) >= 1
            for row in rec.attn:
                assert len(row) == len(rec.src)
                assert abs(sum(row) - 1.0) < 1e-6

    def test_single_token_source_gets_unit_weight(self):
        src_vocab, tgt_vocab = word_vocabs()
        records = dump_alignments(tiny_model(seed=4), ["s2"], src_vocab,
                                  tgt_vocab, max_len=6)
        for row in records[0].attn:
            assert row == pytest.approx([1.0])

    def test_empty_source_skipped_with_warning(self):
        src_vocab, tgt_vocab = word_vocabs()
        with pytest.warns(UserWarning, match="empty"):
            records = dump_alignments(tiny_model(), ["s0 s1", "", "s2"],
                                      src_vocab, tgt_vocab, max_len=6)
        assert [r.id for r in records] == [0, 2]

    def test_jsonl_round_trip(self, tmp_path):
        src_vocab, tgt_vocab = word_vocabs()
        records = dump_alignments(tiny_model(seed=5), ["s0 s1 s2", "s3"],
                                  src_vocab, tgt_vocab, max_len=6)
        path = str(tmp_path / "align.jsonl")
        write_alignments(records, path)
        with open(path) as f:
            lines = [json.loads(line) for line in f]
        assert all(set(d) == {"id", "src", "tgt", "attn"} for d in lines)
        back = read_alignments(path)
        for a, b in zip(records, back):
            assert (a.id, a.src, a.tgt) == (b.id, b.src, b.tgt)
            assert a.attn == b.attn


class TestAlignmentsMatchTheSearch:
    """dump_alignments replays the greedy output through the decoder; its
    ids and rows equal, to the bit, those that the full-length reference
    loop carries at beam 1."""

    @pytest.mark.parametrize("mode", ["none", "tree-rnn", "sawr"])
    def test_records_equal_the_reference_at_beam_one(self, mode):
        src_vocab, tgt_vocab = word_vocabs()
        rng = np.random.default_rng(5)
        lens = [1, 2, 3, 4, 5, 6, 3, 2]
        sources = [" ".join(f"s{k}" for k in rng.integers(0, 9, n)) for n in lens]
        trees = [DependencyTree([0] + list(range(1, n))) for n in lens]  # chains
        encodings = [rng.normal(size=(n, 5)) for n in lens]
        kw = {"none": {}, "tree-rnn": {"trees": trees}, "sawr": {"encodings": encodings}}[mode]
        ended, cut = 0, 0
        for seed in range(4):
            model = sharpen(TranslationModel(13, 9, mode=mode, emb_dim=6, hidden_dim=8,
                                             sawr_dim=4, sawr_in_dim=5, dropout=0.0,
                                             seed=seed), 15.0, eos_bias=1.0)
            records = dump_alignments(model, sources, src_vocab, tgt_vocab, max_len=7, **kw)
            assert len(records) == len(sources)
            for i, rec in enumerate(records):
                with full_length_beam():
                    ref = beam_search(src_vocab.ids(rec.src), model, 1, 7,
                                      tree=trees[i] if "trees" in kw else None,
                                      encoding=encodings[i] if "encodings" in kw else None)
                assert rec.tgt == tgt_vocab.tokens(ref.ids, strip_reserved=False)
                assert np.array(rec.attn).tobytes() == np.array(ref.alphas).tobytes()
                ended += ref.completed
                cut += not ref.completed and len(ref.ids) == 7
        assert ended and cut  # hypotheses that end in EOS and ones cut at max_len


class TestEnsembleDecode:
    def test_single_model_reduces_exactly_to_beam_search(self):
        m = tiny_model(seed=6)
        solo = beam_search([4, 5, 6], m, 3, 8)
        ens = ensemble_decode([m], [[4, 5, 6]], 3, 8)
        assert solo.ids == ens.ids
        assert solo.logp == ens.logp

    def test_identical_models_match_single_model_output(self):
        models = [tiny_model(seed=7) for _ in range(3)]
        solo = beam_search([4, 5, 6], models[0], 4, 10)
        ens = ensemble_decode(models, [[4, 5, 6]] * len(models), 4, 10)
        assert ens.ids == solo.ids
        assert ens.logp == pytest.approx(solo.logp, abs=1e-9)

    def test_mean_of_disjoint_argmaxes_hand_checked(self):
        """Seeds 0 and 1 argmax tokens 5 and 7; their average prefers 4."""
        ma, mb = tiny_model(seed=0), tiny_model(seed=1)
        dists = []
        for m in (ma, mb):
            h, s0 = encode_for_decode(m, [4, 5, 6])
            dist, *_ = decode_step(2, T.zeros((1, 8)), s0, h, m)
            dists.append(dist.data[0])
        assert np.argmax(dists[0]) != np.argmax(dists[1])
        mean = (dists[0] + dists[1]) / 2
        assert abs(mean.sum() - 1.0) < 1e-6
        hyp = ensemble_decode([ma, mb], [[4, 5, 6]] * 2, 1, 1)
        assert hyp.ids[0] == int(np.argmax(mean))

    def test_first_step_logp_equals_log_mean(self):
        ma, mb = tiny_model(seed=0), tiny_model(seed=1)
        dists = []
        for m in (ma, mb):
            h, s0 = encode_for_decode(m, [4, 5, 6])
            dist, *_ = decode_step(2, T.zeros((1, 8)), s0, h, m)
            dists.append(dist.data[0])
        mean = (dists[0] + dists[1]) / 2
        hyp = ensemble_decode([ma, mb], [[4, 5, 6]] * 2, 1, 1)
        with full_length_beam():
            ref = ensemble_decode([ma, mb], [[4, 5, 6]] * 2, 1, 1)
        assert (ref.ids, ref.logp) == (hyp.ids, hyp.logp)
        assert ref.step_logps[0] == pytest.approx(np.log(mean[hyp.ids[0]]), abs=1e-12)

    def test_vocab_mismatch_rejected(self):
        with pytest.raises(ValueError, match="vocabulary"):
            ensemble_decode([tiny_model(tgt=9), tiny_model(tgt=10)], [[4, 5]] * 2, 2, 4)
        with pytest.raises(ValueError, match="at least one"):
            ensemble_decode([], [], 2, 4)

    def test_per_model_lists_must_cover_every_member(self):
        # a short list used to drop members silently while the mean still
        # divided by every model
        models = [tiny_model(seed=1), tiny_model(seed=2)]
        for kw in ({"trees": [None]}, {"encodings": [None] * 3}):
            with pytest.raises(ValueError, match="2 models need as many"):
                ensemble_decode(models, [[4, 5, 6]] * 2, 1, 3, **kw)
        with pytest.raises(ValueError, match="2 models need as many"):
            ensemble_decode(models, [[4, 5, 6]], 1, 3)

    def test_hybrid_syntax_modes_in_one_call(self):
        tree = DependencyTree([2, 0, 2], ["det", "root", "obj"])
        plain = tiny_model(seed=8)
        tree_m = TranslationModel(13, 9, mode="tree-rnn", emb_dim=6, hidden_dim=8,
                                  dropout=0.0, seed=9)
        sawr_m = TranslationModel(13, 9, mode="sawr", emb_dim=6, hidden_dim=8,
                                  sawr_dim=4, sawr_in_dim=6, dropout=0.0, seed=10)
        encoding = np.zeros((3, 6))
        lin_m = TranslationModel(25, 9, mode="tree-linearized", emb_dim=6,
                                 hidden_dim=8, dropout=0.0, seed=11)
        lin_ids = [7, 8, 9, 10, 11, 12, 13, 14, 15]  # 3n bracketed symbols

        def decode():
            return ensemble_decode(
                [plain, tree_m, sawr_m, lin_m],
                [[4, 5, 6], [4, 5, 6], [4, 5, 6], lin_ids],
                beam_size=2, max_len=6,
                trees=[None, tree, None, None],
                encodings=[None, None, encoding, None])

        hyp = decode()
        with full_length_beam():
            ref = decode()
        assert len(hyp.ids) >= 1
        assert (ref.ids, ref.logp) == (hyp.ids, hyp.logp)
        assert abs(ref.logp - sum(ref.step_logps)) < 1e-12
        for row in ref.alphas:
            assert abs(row.sum() - 1.0) < 1e-6

    def test_combined_distribution_sums_to_one_each_step(self):
        models = [tiny_model(seed=s) for s in (12, 13)]
        hyp = ensemble_decode(models, [[4, 5, 6]] * len(models), 3, 6)
        with full_length_beam():
            ref = ensemble_decode(models, [[4, 5, 6]] * len(models), 3, 6)
        assert (ref.ids, ref.logp) == (hyp.ids, hyp.logp)
        # per-step chosen log-probs must come from a normalized distribution;
        # exp of any logp must be a valid probability
        for lp in ref.step_logps:
            assert 0.0 < np.exp(lp) <= 1.0
