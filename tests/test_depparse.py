"""Dependency parsing: tree invariants, treebank I/O, Eisner decoding, training."""

import numpy as np
import pytest

from synmt import tensor as T
from synmt.depparse import (ArcScores, DependencyTree, ParserModel, decode_projective,
                            evaluate_las, has_crossing_arcs, normalize_root,
                            parse_sentence, parser_encode, projectivize, read_treebank,
                            score_arcs, train_parser, tree_log_loss, write_treebank)
from synmt.errors import DataError

from helpers import (BAD_METAS, all_projective_head_vectors, brute_force_decode,
                     random_projective_tree, rewrite_meta, toy_grammar_sentences)


class TestTreeInvariants:
    def test_minimal_valid(self):
        tree = DependencyTree([2, 0], ["dep", "root"])
        tree.validate()
        assert tree.root_count() == 1 and tree.is_projective()

    @pytest.mark.parametrize("heads,what", [
        ([3, 0], "outside"),          # head beyond n
        ([1, 0], "own head"),         # self loop
        ([2, 1], "cycle"),            # 1 <-> 2
        ([2, 3, 2], "cycle"),         # longer cycle off the root path
        ([0, 0], "root"),             # two roots under single_root
    ])
    def test_invalid_rejected(self, heads, what):
        with pytest.raises(DataError, match=what):
            DependencyTree(heads).validate()

    def test_projectivity_definitions_agree(self):
        # descendant-span definition vs crossing-arc definition
        rng = T.make_rng(0)
        checked_nonproj = 0
        for _ in range(500):
            n = int(rng.integers(1, 8))
            heads = [int(h) for h in rng.integers(0, n + 1, size=n)]
            tree = DependencyTree(heads)
            try:
                tree.validate()
            except DataError:
                continue
            assert tree.is_projective() == (not has_crossing_arcs(tree))
            checked_nonproj += not tree.is_projective()
        assert checked_nonproj > 10  # the sample actually exercised both outcomes

    def test_normalize_root(self):
        tree = DependencyTree([0, 0, 2], ["root", "root", "dep"])
        fixed = normalize_root(tree)
        assert fixed.heads == [0, 1, 2]
        assert tree.heads == [0, 0, 2]  # input untouched

    def test_projectivize_hand_case(self):
        # arcs (3->1) and (2->4) cross; two lifts settle on token 1 -> head 2
        tree = DependencyTree([3, 0, 4, 2])
        fixed = projectivize(tree)
        assert fixed.heads == [2, 0, 4, 2]
        assert fixed.is_projective()

    def test_projectivize_random(self):
        rng = T.make_rng(1)
        done = 0
        while done < 60:
            n = int(rng.integers(2, 9))
            heads = [int(h) for h in rng.integers(0, n + 1, size=n)]
            try:
                tree = normalize_root(DependencyTree(heads))
                tree.validate()
            except DataError:
                continue
            done += 1
            fixed = projectivize(tree)
            assert fixed.is_projective()
            fixed.validate()

    def test_projectivize_keeps_projective_trees(self):
        rng = T.make_rng(2)
        for _ in range(40):
            tree = random_projective_tree(int(rng.integers(1, 10)), rng)
            assert projectivize(tree).heads == tree.heads


class TestTreebankIO:
    def write(self, tmp_path, text):
        p = tmp_path / "tb.conll"
        p.write_text(text, encoding="utf-8")
        return p

    def test_minimal_read(self, tmp_path):
        p = self.write(tmp_path, "1\ta\t2\tdep\n2\tb\t0\troot\n\n")
        [(tokens, tree)] = read_treebank(p)
        assert tokens == ["a", "b"]
        assert tree.heads == [2, 0] and tree.labels == ["dep", "root"]

    def test_ten_column(self, tmp_path):
        p = self.write(tmp_path, "1\tx\t_\t_\t_\t_\t0\troot\t_\t_\n\n")
        [(tokens, tree)] = read_treebank(p)
        assert tokens == ["x"] and tree.heads == [0]

    def test_comments_and_missing_final_blank(self, tmp_path):
        p = self.write(tmp_path, "# a comment\n1\tx\t0\troot")
        [(tokens, _)] = read_treebank(p)
        assert tokens == ["x"]

    def test_head_out_of_range(self, tmp_path):
        p = self.write(tmp_path, "1\ta\t5\tdep\n\n")
        with pytest.raises(DataError, match="sentence 1"):
            read_treebank(p)

    def test_cycle_reported_with_sentence_index(self, tmp_path):
        good = "1\ta\t0\troot\n\n"
        bad = "1\ta\t2\tx\n2\tb\t1\ty\n\n"
        with pytest.raises(DataError, match="sentence 2"):
            read_treebank(self.write(tmp_path, good + bad))

    def test_bad_column_count(self, tmp_path):
        p = self.write(tmp_path, "1\ta\t0\n\n")
        with pytest.raises(DataError, match="line 1"):
            read_treebank(p)

    def test_non_integer_head(self, tmp_path):
        p = self.write(tmp_path, "1\ta\tx\tdep\n\n")
        with pytest.raises(DataError, match="line 1"):
            read_treebank(p)

    @pytest.mark.parametrize("columns", [4, 10])
    def test_round_trip(self, tmp_path, columns):
        rng = T.make_rng(3)
        sents = []
        for i in range(50):
            n = int(rng.integers(1, 9))
            tree = random_projective_tree(n, rng)
            sents.append(([f"w{rng.integers(0, 20)}" for _ in range(n)], tree))
        p = tmp_path / "out.conll"
        write_treebank(p, sents, columns=columns)
        back = read_treebank(p)
        assert len(back) == 50
        for (tok_a, tree_a), (tok_b, tree_b) in zip(sents, back):
            assert tok_a == tok_b and tree_a == tree_b


class TestDecodeProjective:
    def test_single_token(self):
        tree = decode_projective(np.array([[1.0], [0.0]]))
        assert tree.heads == [0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            decode_projective(np.zeros((1, 0)))

    def test_output_always_valid(self):
        rng = T.make_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 11))
            tree = decode_projective(rng.normal(size=(n + 1, n)))
            tree.validate()
            assert tree.is_projective()

    def test_matches_enumeration_continuous(self):
        rng = T.make_rng(5)
        for trial in range(60):
            n = 1 + trial % 6
            matrix = rng.uniform(0.0, 1.0, size=(n + 1, n))
            tree = decode_projective(matrix)
            got = matrix[tree.heads, np.arange(n)].sum()
            want_score, want_heads = brute_force_decode(matrix)
            assert abs(got - want_score) < 1e-9
            assert tree.heads == want_heads

    def test_matches_enumeration_with_ties(self):
        # integer scores force heavy ties; both sides break by smallest head vector
        rng = T.make_rng(6)
        for trial in range(40):
            n = 1 + trial % 6
            matrix = rng.integers(0, 2, size=(n + 1, n)).astype(float)
            tree = decode_projective(matrix)
            want_score, want_heads = brute_force_decode(matrix)
            assert matrix[tree.heads, np.arange(n)].sum() == want_score
            assert tree.heads == want_heads

    def test_all_equal_scores_canonical_tree(self):
        tree = decode_projective(np.zeros((6, 5)))
        assert tree.heads == [0, 1, 1, 1, 1]

    def test_enumeration_cache_is_plausible(self):
        # sanity on the oracle itself: known projective tree counts
        assert len(all_projective_head_vectors(1)) == 1
        assert len(all_projective_head_vectors(2)) == 2
        assert len(all_projective_head_vectors(3)) == 7


def tiny_parser(sents, **kw):
    args = dict(embed_dim=12, hidden_dim=12, mlp_dim=10, epochs=1, lr=1e-3,
                batch_size=8, seed=7)
    args.update(kw)
    return train_parser(sents, **args)


class TestParserModel:
    def test_encode_length_and_dim(self):
        model, _ = tiny_parser(toy_grammar_sentences(6, seed=11))
        enc = parser_encode(["d0", "n1", "v2", "d1", "n0", "zzz"], model)
        assert enc.shape == (6, model.out_dim)

    def test_encode_deterministic_and_unk(self):
        model, _ = tiny_parser(toy_grammar_sentences(6, seed=11))
        a = parser_encode(["totally", "unseen", "words"], model)
        b = parser_encode(["totally", "unseen", "words"], model)
        assert np.array_equal(a.data, b.data)
        assert np.all(np.isfinite(a.data))

    def test_empty_sentence_rejected(self):
        model, _ = tiny_parser(toy_grammar_sentences(6, seed=11))
        with pytest.raises(ValueError):
            parser_encode([], model)

    def test_score_shape_and_finite(self):
        model, _ = tiny_parser(toy_grammar_sentences(6, seed=11))
        enc = parser_encode(["d0", "a1", "n1", "v0", "d1", "n2"], model)
        scores = score_arcs(enc, model)
        assert scores.matrix.shape == (7, 6)
        off_diag = [scores.matrix[h, d] for h in range(7) for d in range(6) if h != d + 1]
        assert np.all(np.isfinite(off_diag))
        assert all(scores.matrix[d + 1, d] == -np.inf for d in range(6))

    def test_zero_params_decode_still_valid(self):
        model = ParserModel({"<unk>": 0, "w": 1}, ["dep", "root"], embed_dim=6,
                            hidden_dim=6, mlp_dim=5, seed=0)
        for _, t in model.table.items():
            t.data[:] = 0.0
        tree = decode_projective(score_arcs(parser_encode(["w"] * 5, model), model))
        tree.validate()
        assert tree.is_projective()

    def test_gradients_through_loss(self):
        model = ParserModel({"<unk>": 0, "a": 1, "b": 2}, ["x", "y"], embed_dim=5,
                            hidden_dim=5, mlp_dim=4, layers=2, seed=3)
        gold = DependencyTree([2, 0, 2], ["x", "y", "x"])

        def loss(_):
            enc = parser_encode(["a", "b", "a"], model)
            return T.scale(tree_log_loss(score_arcs(enc, model), gold, model), 1 / 3)

        names = ["emb", "arc.U", "lab.U.0", "arc.head.W", "lab.dep.b", "root",
                 "enc.l0.fwd.input.W", "enc.l1.bwd.cell.U"]
        for name in names:
            assert T.grad_check(loss, model.table[name]) < 1e-4, name

    @pytest.mark.parametrize("meta", BAD_METAS)
    def test_bad_metadata_is_a_data_error(self, tmp_path, meta):
        path = tmp_path / "parser.ckpt"
        ParserModel({"<unk>": 0, "a": 1}, ["x"], embed_dim=3, hidden_dim=3,
                    mlp_dim=2, layers=1).save(path)
        rewrite_meta(path, meta)
        with pytest.raises(DataError, match="__meta__"):
            ParserModel.load(path)

    def test_save_load_round_trip(self, tmp_path):
        model, _ = tiny_parser(toy_grammar_sentences(8, seed=12), epochs=2)
        path = tmp_path / "parser.ckpt"
        model.save(path)
        loaded = ParserModel.load(path)
        sent = ["d0", "n1", "v2"]
        assert parse_sentence(sent, model) == parse_sentence(sent, loaded)
        a = parser_encode(sent, model).data
        b = parser_encode(sent, loaded).data
        assert np.array_equal(a, b)


class TestTraining:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            train_parser([])

    def test_loss_descends(self):
        sents = toy_grammar_sentences(10, seed=13)
        _, history = tiny_parser(sents, epochs=3)
        assert history[-1] < history[0]

    def test_skip_policy_drops_nonprojective(self):
        bad = (["a", "b", "c", "d"], DependencyTree([3, 0, 4, 2]))
        with pytest.raises(ValueError, match="no usable"):
            tiny_parser([bad], nonprojective="skip")

    def test_projectivize_policy_trains_on_lifted(self):
        bad = (["a", "b", "c", "d"], DependencyTree([3, 0, 4, 2]))
        model, history = tiny_parser([bad], epochs=2)
        assert len(history) == 2

    def test_overfit_small(self):
        sents = toy_grammar_sentences(12, seed=14)
        model, _ = tiny_parser(sents, embed_dim=24, hidden_dim=24, mlp_dim=16,
                               epochs=26, lr=3e-3, batch_size=4)
        pred = [parse_sentence(tokens, model) for tokens, _ in sents]
        uas, las = evaluate_las(pred, [tree for _, tree in sents])
        assert las >= 0.9


class TestEvaluateLas:
    def test_perfect(self):
        trees = [random_projective_tree(5, T.make_rng(8))]
        assert evaluate_las(trees, trees) == (1.0, 1.0)

    def test_heads_right_labels_wrong(self):
        gold = [DependencyTree([0, 1, 1], ["root", "a", "b"])]
        pred = [DependencyTree([0, 1, 1], ["x", "y", "z"])]
        assert evaluate_las(pred, gold) == (1.0, 0.0)

    def test_hand_counts(self):
        gold = DependencyTree([0] + [1] * 9, ["root"] + ["dep"] * 9)
        heads = [0, 1, 1, 1, 1, 1, 1, 3, 3, 3]       # 7 of 10 heads correct
        labels = ["root", "dep", "dep", "dep", "dep",  # 5 of those 7 labeled right
                  "x", "x", "dep", "dep", "dep"]
        assert evaluate_las([DependencyTree(heads, labels)], [gold]) == (0.7, 0.5)

    def test_las_never_exceeds_uas(self):
        rng = T.make_rng(9)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            gold = random_projective_tree(n, rng)
            pred = random_projective_tree(n, rng)
            uas, las = evaluate_las([pred], [gold])
            assert 0.0 <= las <= uas <= 1.0

    def test_mismatch_rejected(self):
        t = DependencyTree([0])
        with pytest.raises(ValueError):
            evaluate_las([t], [t, t])
        with pytest.raises(ValueError):
            evaluate_las([DependencyTree([0, 1])], [t])
