"""Dependency parsing: tree invariants, treebank I/O, Eisner decoding, training."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from synmt import depparse, syntax
from synmt import tensor as T
from synmt.checkpoint import load_checkpoint
from synmt.depparse import (DependencyTree, ParserModel, decode_projective, evaluate_las,
                            label_scores, normalize_root,
                            parse_sentence, parser_encode, projectivize, read_treebank,
                            score_arcs, train_parser, tree_log_loss, write_treebank)
from synmt.errors import DataError, ShapeError

from helpers import (BAD_METAS, all_projective_head_vectors, brute_force_decode,
                     edit_entries, edit_meta, encode_one, has_crossing_arcs, lift_projectivize,
                     one_bucket, per_gate_layout, random_projective_tree, random_tree, records_on,
                     rewrite_meta, toy_grammar_sentences, state_dict, tuple_chart_decode,
                     walk_validate)

ROOT = Path(__file__).resolve().parent.parent


def score_matrix(kind, n, rng, self_arcs):
    """An (n+1) x n arc matrix of one family; self_arcs=False puts -inf there."""
    if kind == "normal":
        m = rng.normal(size=(n + 1, n))
    elif kind == "ties":
        m = rng.integers(0, 3, size=(n + 1, n)).astype(float)
    elif kind == "equal":
        m = np.full((n + 1, n), float(rng.integers(-2, 3)))
    else:  # "masked": integer ties with about half the arcs at -inf
        m = rng.integers(0, 3, size=(n + 1, n)).astype(float)
        m[rng.random((n + 1, n)) < 0.5] = -np.inf
    if not self_arcs:
        m[np.arange(1, n + 1), np.arange(n)] = -np.inf
    return m


@st.composite
def head_vectors(draw):
    """n in 1..30 heads in -1..n+1: either drawn raw, which hits range errors,
    self-loops, cycles and several roots, or a random tree (tokens join in a
    random order, each under an earlier one) with up to two heads redrawn,
    which often passes."""
    n = draw(st.integers(1, 30))
    head = st.integers(-1, n + 1)
    if draw(st.booleans()):
        return draw(st.lists(head, min_size=n, max_size=n))
    join = draw(st.permutations(range(1, n + 1)))
    heads = [0] * n
    for i, v in enumerate(join[1:], start=1):
        heads[v - 1] = join[draw(st.integers(0, i - 1))]
    for _ in range(draw(st.integers(0, 2))):
        heads[draw(st.integers(0, n - 1))] = draw(head)
    return heads


class TestTreeInvariants:
    def test_minimal_valid(self):
        tree = DependencyTree([2, 0], ["dep", "root"])
        kids, order = tree.validate()
        assert kids == [[2], [], [1]] and order == [2, 1] and tree.is_projective()

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
        long_ones = set()
        for _ in range(4):
            n = int(rng.integers(100, 301))
            for tree in (random_projective_tree(n, rng), random_tree(n, rng)):
                assert tree.is_projective() == (not has_crossing_arcs(tree))
                long_ones.add(tree.is_projective())
        assert long_ones == {True, False}

    def test_projectivity_of_a_cyclic_tree_is_a_data_error(self):
        # run apart, so that a walk that never ends fails on the timeout
        code = ("from synmt.depparse import DependencyTree\n"
                "DependencyTree([4, 3, 2, 0]).is_projective()\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert "DataError: cycle through token 2" in proc.stderr

    @settings(max_examples=300, deadline=None)
    @given(head_vectors(), st.booleans())
    @example([5, 0, 1], True)   # head outside
    @example([2, 2, 0], True)   # own head
    @example([0, 3, 4, 2], True)   # cycle off the root path
    @example([0, 0, 1], True)   # two roots
    @example([0, 0, 1], False)
    def test_validate_matches_the_per_token_walk(self, heads, single_root):
        try:
            walk_validate(heads, single_root)
        except DataError as e:
            with pytest.raises(DataError) as got:
                DependencyTree(heads).validate(single_root)
            assert type(got.value) is DataError and str(got.value) == str(e)
            return
        kids, order = DependencyTree(heads).validate(single_root)
        assert sorted(order) == list(range(1, len(heads) + 1))
        place = {v: i for i, v in enumerate(order)}
        assert all(h == 0 or place[h] < place[d] for d, h in enumerate(heads, 1))
        assert kids == [[d for d, h in enumerate(heads, 1) if h == head]
                        for head in range(len(heads) + 1)]

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

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 10_000), extra_root=st.booleans())
    def test_projectivize_lifts_as_the_rescanning_reference(self, n, seed, extra_root):
        # the same lifts in the same order: shortest arc first, leftmost on ties
        rng = T.make_rng(seed)
        tree = random_tree(n, rng)
        tree.labels = [f"l{int(v)}" for v in rng.integers(0, 5, size=n)]
        if extra_root:  # a second root, which normalize_root reattaches first
            tree.heads[int(rng.integers(0, n))] = 0
        assume(not normalize_root(tree).is_projective())
        heads = list(tree.heads)
        fixed = projectivize(tree)
        assert fixed == lift_projectivize(tree)
        assert fixed.is_projective()
        assert tree.heads == heads  # input untouched

    @pytest.mark.parametrize("n", [200, 300])
    def test_projectivize_long_trees_as_the_reference(self, n):
        tree = random_tree(n, T.make_rng(n))
        assert projectivize(tree) == lift_projectivize(tree)


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
        with pytest.raises(DataError, match="^" + re.escape(f"{p} sentence 1 (line 1): ")):
            read_treebank(p)

    def test_cycle_reported_with_sentence_index(self, tmp_path):
        good = "1\ta\t0\troot\n\n"
        bad = "1\ta\t2\tx\n2\tb\t1\ty\n\n"
        p = self.write(tmp_path, good + bad)
        with pytest.raises(DataError, match="^" + re.escape(f"{p} sentence 2 (line 3): cycle")):
            read_treebank(p)

    def test_bad_column_count(self, tmp_path):
        p = self.write(tmp_path, "1\ta\t0\n\n")
        with pytest.raises(DataError, match="^" + re.escape(
                f"{p} line 1: expected 4 or 10 columns, got 3")):
            read_treebank(p)

    def test_non_integer_head(self, tmp_path):
        p = self.write(tmp_path, "1\ta\tx\tdep\n\n")
        with pytest.raises(DataError, match="^" + re.escape(
                f"{p} line 1: non-integer index or head")):
            read_treebank(p)

    def test_token_index_out_of_order(self, tmp_path):
        p = self.write(tmp_path, "1\ta\t0\troot\n3\tb\t1\tx\n\n")
        with pytest.raises(DataError, match="^" + re.escape(
                f"{p} line 2: token index 3, expected 2")):
            read_treebank(p)

    def test_round_trip(self, tmp_path):
        rng = T.make_rng(3)
        sents = []
        for i in range(50):
            n = int(rng.integers(1, 9))
            tree = random_projective_tree(n, rng)
            sents.append(([f"w{rng.integers(0, 20)}" for _ in range(n)], tree))
        p = tmp_path / "out.conll"
        write_treebank(p, sents)
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

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["normal", "ties", "equal", "masked"]),
           n=st.integers(1, 24), seed=st.integers(0, 2**32 - 1), self_arcs=st.booleans())
    def test_matches_the_tuple_chart(self, kind, n, seed, self_arcs):
        """Same heads as the loop-per-split chart, ties and -inf included."""
        matrix = score_matrix(kind, n, T.make_rng(seed), self_arcs)
        assert decode_projective(matrix).heads == tuple_chart_decode(matrix)

    def test_matches_the_tuple_chart_on_long_sentences(self):
        rng = T.make_rng(8)
        for n in (40, 47, 60):
            matrix = score_matrix("normal", n, rng, self_arcs=False)
            assert decode_projective(matrix).heads == tuple_chart_decode(matrix)

    def test_heads_are_python_ints(self):
        tree = decode_projective(np.zeros((4, 3)))
        assert all(type(h) is int for h in tree.heads)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scores_rejected(self, bad):
        matrix = np.zeros((4, 3))
        matrix[0, 0] = -np.inf  # legal: masks and self-arcs use it
        matrix[2, 1] = bad
        matrix[3, 0] = bad
        with pytest.raises(ValueError, match="head 2, dependent 2"):
            decode_projective(matrix)

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
    @pytest.mark.parametrize("field", ["embed_dim", "hidden_dim", "mlp_dim", "layers"])
    @pytest.mark.parametrize("bad", ["3", True, 0, -1, 3.0, None])
    def test_rejects_a_dimension_that_is_not_a_positive_int(self, field, bad):
        with pytest.raises(ValueError, match=field):
            ParserModel({"<unk>": 0}, ["x"], **{field: bad})

    def test_encode_length_and_dim(self):
        model, _ = tiny_parser(toy_grammar_sentences(6, seed=11))
        enc = encode_one(["d0", "n1", "v2", "d1", "n0", "zzz"], model)
        assert enc.shape == (6, model.out_dim)

    def test_encode_deterministic_and_unk(self):
        model, _ = tiny_parser(toy_grammar_sentences(6, seed=11))
        a = encode_one(["totally", "unseen", "words"], model)
        b = encode_one(["totally", "unseen", "words"], model)
        assert np.array_equal(a.data, b.data)
        assert np.all(np.isfinite(a.data))

    def test_empty_sentence_rejected(self):
        model, _ = tiny_parser(toy_grammar_sentences(6, seed=11))
        for batch in ([[]], [["d0"], []], []):
            with pytest.raises(ValueError):
                parser_encode(batch, model)

    def test_score_shape_and_finite(self):
        model, _ = tiny_parser(toy_grammar_sentences(6, seed=11))
        enc = encode_one(["d0", "a1", "n1", "v0", "d1", "n2"], model)
        arc, lab_head, lab_dep = score_arcs(one_bucket(enc), model)
        assert arc.shape == (1, 7, 6)
        assert lab_head.shape == (7, model.mlp_dim + 1)
        assert lab_dep.shape == (6, model.mlp_dim + 1)
        matrix = arc.data[0]
        assert np.all(np.isfinite(matrix))
        off_diag = [matrix[h, d] for h in range(7) for d in range(6) if h != d + 1]
        # every self-arc scores far below every other arc
        assert all(matrix[d + 1, d] < min(off_diag) - 1e8 for d in range(6))

    def test_zero_params_decode_still_valid(self):
        model = ParserModel({"<unk>": 0, "w": 1}, ["dep", "root"], embed_dim=6,
                            hidden_dim=6, mlp_dim=5, seed=0)
        for _, t in model.table.items():
            t.data[:] = 0.0
        arc, _, _ = score_arcs(one_bucket(encode_one(["w"] * 5, model)), model)
        tree = decode_projective(arc.data[0])
        tree.validate()
        assert tree.is_projective()

    def test_gradients_through_loss(self):
        model = ParserModel({"<unk>": 0, "a": 1, "b": 2}, ["x", "y"], embed_dim=5,
                            hidden_dim=5, mlp_dim=4, layers=2, seed=3)
        gold = DependencyTree([2, 0, 2], ["x", "y", "x"])

        def loss(_):
            enc = encode_one(["a", "b", "a"], model)
            return T.scale(tree_log_loss(score_arcs(one_bucket(enc), model), [gold], model),
                           1 / 3)

        names = ["emb", "arc.U", "lab.U", "arc.head.W", "lab.dep.b", "root",
                 "enc.l0.fwd.W", "enc.l1.bwd.U"]
        for name in names:
            assert T.grad_check(loss, model.table[name]) < 1e-4, name

    def test_extract_sawr_follows_corpus_order_across_chunks(self, monkeypatch):
        model = ParserModel({"<unk>": 0, "a": 1, "b": 2}, ["x", "y"], embed_dim=4,
                            hidden_dim=3, mlp_dim=3, layers=2, seed=5)
        rng = T.make_rng(6)
        sents = [[("a", "b", "zzz")[int(k)] for k in rng.integers(0, 3, size=n)]
                 for n in (4, 1, 6, 0, 2, 4, 3, 1, 0)]
        monkeypatch.setattr(syntax, "ENCODE_CHUNK", 3)
        encs = syntax.extract_sawr(model, sents)
        assert len(encs) == len(sents)
        for toks, enc in zip(sents, encs):
            if not toks:
                assert enc is None
                continue
            assert np.abs(enc - encode_one(toks, model).data).max() <= 1e-12
            assert parse_sentence(toks, model, enc) == parse_sentence(toks, model)

    @pytest.mark.parametrize("meta", BAD_METAS)
    def test_bad_metadata_is_a_data_error(self, tmp_path, meta):
        path = tmp_path / "parser.ckpt"
        ParserModel({"<unk>": 0, "a": 1}, ["x"], embed_dim=3, hidden_dim=3,
                    mlp_dim=2, layers=1).save(path)
        rewrite_meta(path, meta)
        with pytest.raises(DataError, match="__meta__"):
            ParserModel.load(path)

    def small_checkpoint(self, tmp_path):
        path = tmp_path / "parser.ckpt"
        ParserModel({"<unk>": 0, "a": 1}, ["x", "y"], embed_dim=3, hidden_dim=3,
                    mlp_dim=2, layers=1).save(path)
        return path

    def test_checkpoint_holds_one_w_u_and_b_per_cell_and_one_lab_u(self, tmp_path):
        path = tmp_path / "parser.ckpt"
        ParserModel({"<unk>": 0, "a": 1}, ["x", "y", "z"], embed_dim=3, hidden_dim=3,
                    mlp_dim=2, layers=3).save(path)
        names = list(load_checkpoint(path))
        assert len(names) == 31  # was 84 + 3 labels with one entry per gate and label
        assert [n for n in names if n.startswith("lab.U")] == ["lab.U"]
        assert [n for n in names if n.startswith("enc.l2.bwd.")] == [
            "enc.l2.bwd.W", "enc.l2.bwd.U", "enc.l2.bwd.b"]

    def test_a_checkpoint_with_one_entry_per_gate_is_a_data_error(self, tmp_path):
        path = self.small_checkpoint(tmp_path)
        edit_entries(path, per_gate_layout)
        with pytest.raises(DataError, match=re.escape(f"{path}: no entry for parameter "
                                                      f"'enc.l0.fwd.W'")):
            ParserModel.load(path)

    def test_checkpoint_without_a_parameter_is_a_data_error(self, tmp_path):
        path = self.small_checkpoint(tmp_path)
        edit_entries(path, lambda state: state.pop("lab.U"))
        with pytest.raises(DataError, match=re.escape(f"{path}: no entry for parameter "
                                                      f"'lab.U'")):
            ParserModel.load(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: meta.pop("labels"), "__meta__ lacks 'labels'"),
        (lambda meta: meta.update(hidden_dim=None), "invalid __meta__"),
        (lambda meta: meta.update(vocab={"a": 0}), "invalid __meta__"),
        (lambda meta: meta.update(labels=["x"]), "parameter 'lab.U' has shape (3, 6)"),
        (lambda meta: meta.update(labels=[]), "invalid __meta__ (parser needs at least one label)"),
    ])
    def test_bad_metadata_field_is_a_data_error(self, tmp_path, edit, message):
        path = self.small_checkpoint(tmp_path)
        edit_meta(path, edit)
        with pytest.raises(DataError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
            ParserModel.load(path)

    def test_save_load_round_trip(self, tmp_path):
        model, _ = tiny_parser(toy_grammar_sentences(8, seed=12), epochs=2)
        path = tmp_path / "parser.ckpt"
        model.save(path)
        loaded = ParserModel.load(path)
        sent = ["d0", "n1", "v2"]
        assert parse_sentence(sent, model) == parse_sentence(sent, loaded)
        a = encode_one(sent, model).data
        b = encode_one(sent, loaded).data
        assert np.array_equal(a, b)


class TestBatchedScorer:
    LABELS = ["a", "b", "c", "root"]

    def model(self, labels=LABELS, seed=21):
        return ParserModel({"<unk>": 0, "x": 1, "y": 2}, labels, embed_dim=5,
                           hidden_dim=4, mlp_dim=3, layers=1, seed=seed)

    def bucket(self, model, B, n, seed):
        """B random sentences of n tokens, their [B, n, out_dim] states and gold trees."""
        rng = T.make_rng(seed)
        sents = [[("x", "y", "zz")[int(k)] for k in rng.integers(0, 3, size=n)]
                 for _ in range(B)]
        trees = [random_projective_tree(n, rng, labels=model.label_names) for _ in range(B)]
        return sents, parser_encode(sents, model), trees

    def test_a_training_batch_gathers_the_embeddings_once(self):
        model = self.model()
        sents, _, trees = self.bucket(model, 3, 6, seed=4)
        with T.Tape() as tape:
            states = parser_encode(sents, model)
            loss = tree_log_loss(score_arcs(states, model), trees, model)
            assert records_on(tape, model.table["emb"]) == 1  # before the sweep frees them
            T.backward(loss)
        assert model.table["emb"].grad is not None

    def test_a_bucket_scores_as_its_sentences_alone(self):
        model = self.model()
        B, n = 4, 5
        sents, states, trees = self.bucket(model, B, n, seed=3)
        scores = score_arcs(states, model)
        heads = np.array([t.heads for t in trees])
        labels = label_scores(scores, heads, model).data
        loss = tree_log_loss(scores, trees, model).item()
        alone_loss = 0.0
        for b, (toks, tree) in enumerate(zip(sents, trees)):
            one = score_arcs(one_bucket(encode_one(toks, model)), model)
            assert np.abs(scores[0].data[b] - one[0].data[0]).max() <= 1e-12
            one_labels = label_scores(one, [tree.heads], model).data
            assert np.abs(labels[b * n:(b + 1) * n] - one_labels).max() <= 1e-12
            alone_loss += tree_log_loss(one, [tree], model).item()
        assert abs(loss - alone_loss) <= 1e-12 * abs(alone_loss)

    def test_label_scores_are_one_bilinear_form_per_label(self):
        model = self.model()
        _, states, trees = self.bucket(model, 3, 4, seed=5)
        scores = score_arcs(states, model)
        _, lab_head, lab_dep = scores
        heads = np.array([t.heads for t in trees])
        got = label_scores(scores, heads, model).data
        for b in range(3):
            for i in range(4):
                row = lab_head.data[b * 5 + heads[b, i]]
                U = model.table["lab.U"].data  # the labels' [4, 4] maps side by side
                want = [row @ U[:, 4 * k:4 * (k + 1)] @ lab_dep.data[b * 4 + i]
                        for k in range(len(self.LABELS))]
                assert np.allclose(got[b * 4 + i], want, rtol=0, atol=1e-12)

    def test_head_choice_shape_checked(self):
        model = self.model()
        _, states, _ = self.bucket(model, 2, 3, seed=7)
        with pytest.raises(ShapeError):
            label_scores(score_arcs(states, model), [[0, 1, 1]], model)

    def test_tape_nodes_do_not_grow_with_bucket_or_labels(self):
        counts = set()
        for labels in (["a", "root"], ["a", "b", "c", "d", "e", "f", "root"]):
            model = self.model(labels)
            for B in (1, 4):
                _, states, trees = self.bucket(model, B, 3, seed=B)
                states = T.Tensor(states.data, requires_grad=True)
                with T.Tape() as tape:
                    tree_log_loss(score_arcs(states, model), trees, model)
                    counts.add(len(tape))
        assert len(counts) == 1, counts

    def test_parse_labels_the_decoded_heads(self):
        model = self.model(seed=4)
        toks = ["x", "y", "x", "zz", "y"]
        enc = encode_one(toks, model)
        scores = score_arcs(one_bucket(enc), model)
        tree = parse_sentence(toks, model)
        assert tree.heads == decode_projective(scores[0].data[0]).heads
        best = label_scores(scores, [tree.heads], model).data.argmax(axis=1)
        assert tree.labels == [self.LABELS[k] for k in best]
        assert parse_sentence(toks, model, enc.data) == tree


class TestTraining:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            train_parser([])

    def test_non_finite_loss_stops_before_the_update(self, monkeypatch):
        made = []

        class NanParser(ParserModel):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                self.table["arc.U"].data[0, 0] = np.nan
                made.append((self, state_dict(self.table)))

        monkeypatch.setattr(depparse, "ParserModel", NanParser)
        with pytest.raises(FloatingPointError, match="epoch 1 batch 1: non-finite"):
            tiny_parser(toy_grammar_sentences(10, seed=13))
        [(model, before)] = made
        after = state_dict(model.table)
        assert all(np.array_equal(before[k], after[k], equal_nan=True) for k in before)
        assert all(t.grad is None for _, t in model.table.items())

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
