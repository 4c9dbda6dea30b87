"""Syntax integration: SAWR projection, parser freezing, Tree-GRU, caching."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synmt import cli, depparse, nn, syntax
from synmt import tensor as T
from synmt.checkpoint import load_checkpoint, pack_meta, save_checkpoint
from synmt.data import Batch, Vocabulary, filter_and_batch
from synmt.depparse import DependencyTree, ParserModel, parser_encode
from synmt.errors import DataError, ShapeError, StateError
from synmt.evaluate import read_alignments
from synmt.seq2seq import TranslationModel, sequence_loss, train_step

from helpers import (edit_meta, encode_one, gru_step, param_bytes, random_projective_tree,
                     random_tree, split_rows, tree_gru_encode_naive)


def projection(in_dim, out_dim, seed=0):
    return syntax.SawrProjection(nn.ParamTable(), "sawr", in_dim, out_dim,
                                 nn.uniform_init(T.make_rng(seed)))


def tree_params(input_dim, hidden_dim, seed=0):
    return syntax.TreeGruParams(nn.ParamTable(), "tree", input_dim, hidden_dim,
                                nn.uniform_init(T.make_rng(seed)))


def shaped_tree(shape, n, rng):
    """A chain, a comb (a spine where every node has one leaf; n even), a star,
    or a random tree (tokens join in a random order, each under an earlier one)."""
    if shape == "chain":
        return DependencyTree(range(n))
    if shape == "comb":
        return DependencyTree(list(range(n // 2)) + list(range(1, n // 2 + 1)))
    if shape == "star":
        return DependencyTree([0] + [1] * (n - 1))
    return random_tree(n, rng)


def wide_nodes(tree):
    """Nodes with three or more children whose children sit on several
    bottom-up levels."""
    level = {node: li for li, lev in enumerate(syntax.batch_by_level([tree])["up"])
             for _, node in lev}
    kids = {}
    for d, h in enumerate(tree.heads, 1):
        kids.setdefault(h, []).append(d)
    return [v for v, ks in kids.items()
            if v and len(ks) >= 3 and len({level[k] for k in ks}) > 1]


def small_parser(seed=2):
    vocab = {"<unk>": 0, "a": 1, "b": 2, "c": 3, "d": 4}
    return ParserModel(vocab, ["det", "root", "obj"], embed_dim=4, hidden_dim=3,
                       mlp_dim=5, layers=1, seed=seed)


def sawr_model(parser=None, trainable=False, seed=3, **kw):
    return TranslationModel(11, 9, mode="sawr", emb_dim=6, hidden_dim=8,
                            sawr_dim=4, dropout=0.0, parser=parser,
                            parser_trainable=trainable, seed=seed, **kw)


TOKENS = [["a", "b", "c"], ["b", "c"], ["a", "c", "d"]]
VOCABS = (Vocabulary(list("abcdefg")), Vocabulary(list("vwxyz")))  # sawr_model's 11 and 9
PAIRS = [([4, 5, 6], [4, 5, 3]), ([5, 6], [6, 3]), ([4, 6, 7], [5, 3])]


def sawr_batches(parser=None, cached=False):
    encodings = syntax.extract_sawr(parser, TOKENS) if cached else None
    return filter_and_batch(PAIRS, 50, 50, 3, seed=1,
                            encodings=encodings,
                            src_tokens=None if cached else TOKENS)


class TestSawrProjection:
    def test_identity_config_passes_through(self):
        p = projection(3, 3)
        p.W.data = np.eye(3)
        p.b.data = np.zeros((1, 3))
        o = T.constant(T.make_rng(1).normal(size=(4, 3)))
        assert np.array_equal(syntax.sawr_project(o, p).data, o.data)

    def test_zero_matrix_yields_bias_rows(self):
        p = projection(3, 2)
        p.W.data = np.zeros((3, 2))
        out = syntax.sawr_project(T.constant(np.ones((5, 3))), p)
        assert np.allclose(out.data, np.tile(p.b.data, (5, 1)))

    def test_matches_hand_matmul(self):
        p = projection(4, 3, seed=7)
        o = T.make_rng(8).normal(size=(6, 4))
        out = syntax.sawr_project(T.constant(o), p)
        assert np.allclose(out.data, o @ p.W.data + p.b.data)

    def test_wrong_input_dim_rejected(self):
        with pytest.raises(ShapeError):
            syntax.sawr_project(T.zeros((2, 5)), projection(4, 3))


class TestSawrAugment:
    def test_concatenates_positionwise(self):
        e = T.constant(np.arange(6.0).reshape(3, 2))
        s = T.constant(np.arange(9.0).reshape(3, 3))
        x = syntax.sawr_augment(e, s)
        assert x.shape == (3, 5)
        assert np.array_equal(x.data[:, :2], e.data)
        assert np.array_equal(x.data[:, 2:], s.data)

    def test_default_dims_land_on_paper_width(self):
        x = syntax.sawr_augment(T.zeros((2, 512)), T.zeros((2, 512)))
        assert x.shape == (2, 1024)

    def test_zero_projection_reduces_to_padded_embedding(self):
        e = T.constant(T.make_rng(0).normal(size=(4, 3)))
        x = syntax.sawr_augment(e, T.zeros((4, 2)))
        assert np.array_equal(x.data[:, :3], e.data)
        assert not x.data[:, 3:].any()

    def test_permuting_both_permutes_output(self):
        rng = T.make_rng(5)
        e, s = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
        perm = rng.permutation(5)
        straight = syntax.sawr_augment(T.constant(e), T.constant(s)).data
        shuffled = syntax.sawr_augment(T.constant(e[perm]), T.constant(s[perm])).data
        assert np.array_equal(shuffled, straight[perm])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="embeddings"):
            syntax.sawr_augment(T.zeros((3, 2)), T.zeros((4, 2)))


class TestParserFreezing:
    def test_requires_sawr_mode(self):
        m = TranslationModel(11, 9, emb_dim=6, hidden_dim=8, seed=1)
        with pytest.raises(StateError, match="sawr"):
            syntax.set_parser_trainable(m, True)

    def test_requires_attached_parser(self):
        m = sawr_model(sawr_in_dim=6)
        with pytest.raises(StateError, match="parser"):
            syntax.set_parser_trainable(m, True)

    def test_frozen_parser_is_bitwise_stable_over_many_updates(self):
        m = sawr_model(parser=small_parser(), trainable=False)
        opt = nn.Adam(m.table, lr=0.01, clip=5.0)
        batches = sawr_batches(parser=m.parser)
        before = param_bytes(m.table, "parser")
        for step in range(100):
            train_step(batches[step % len(batches)], m, opt)
        assert param_bytes(m.table, "parser") == before

    def test_tuned_parser_moves_after_one_update(self):
        m = sawr_model(parser=small_parser(), trainable=True)
        opt = nn.Adam(m.table, lr=0.01, clip=5.0)
        before = param_bytes(m.table, "parser")
        train_step(sawr_batches(parser=m.parser)[0], m, opt)
        assert param_bytes(m.table, "parser") != before

    def test_projection_trains_even_when_parser_is_frozen(self):
        m = sawr_model(parser=small_parser(), trainable=False)
        opt = nn.Adam(m.table, lr=0.01, clip=5.0)
        w_before = m.table["sawr.W"].data.copy()
        train_step(sawr_batches(parser=m.parser)[0], m, opt)
        assert not np.array_equal(m.table["sawr.W"].data, w_before)

    def test_cached_and_live_frozen_paths_agree(self):
        parser = small_parser()
        m = sawr_model(parser=parser, trainable=False)
        live = sequence_loss(sawr_batches(parser=parser)[0], m, mode="eval").item()
        cached = sequence_loss(sawr_batches(parser=parser, cached=True)[0],
                               m, mode="eval").item()
        assert abs(live - cached) < 1e-12

    def test_sawr_gradients_reach_the_parser_when_tuned(self):
        m = sawr_model(parser=small_parser(), trainable=True)
        batch = sawr_batches(parser=m.parser)[0]

        def loss(_):
            return sequence_loss(batch, m, mode="eval")

        for name in ("sawr.W", "sawr.b", "parser.emb", "parser.root"):
            assert T.grad_check(loss, m.table[name]) < 1e-4, name


class TestLiveParserBatch:
    """Live SAWR encodes a padded batch in one pass through a 2-layer parser.

    TOKENS has lengths 3, 2 and 3, so the second sentence is padded, and the
    second layer reads the first layer's padded rows.
    """

    @staticmethod
    def batch():
        return Batch([s for s, _ in PAIRS], [t for _, t in PAIRS], src_tokens=TOKENS)

    @staticmethod
    def model(**kw):
        parser = ParserModel({"<unk>": 0, "a": 1, "b": 2, "c": 3, "d": 4},
                             ["det", "root", "obj"], embed_dim=3, hidden_dim=2,
                             mlp_dim=2, layers=2, seed=4)
        return sawr_model(parser=parser, trainable=True, **kw)

    def test_rows_match_one_sentence_encodes(self):
        parser = self.model().parser
        states = parser_encode(TOKENS, parser).data
        for toks, enc in zip(TOKENS, states):
            one = encode_one(toks, parser)
            assert enc[:len(toks)].shape == one.shape
            assert np.abs(enc[:len(toks)] - one.data).max() <= 1e-12

    def test_gradients_through_padded_sawr_tuned_loss(self):
        m, batch = self.model(), self.batch()
        assert batch.src_lens.min() < batch.src.shape[1]

        def loss(_):
            return sequence_loss(batch, m, mode="eval")

        for name in ("parser.emb", "parser.enc.l1.fwd.W"):
            assert T.grad_check(loss, m.table[name]) < 1e-4, name

    def test_one_lstm_step_per_position_and_direction(self, monkeypatch):
        calls = []
        step = T.lstm_cell

        def counted(xw, state, U, b, keep=None):
            calls.append(xw.shape[0])
            return step(xw, state, U, b, keep)

        monkeypatch.setattr(T, "lstm_cell", counted)
        m, batch = self.model(), self.batch()
        with T.Tape():
            T.backward(sequence_loss(batch, m))
        width = batch.src.shape[1]
        assert len(calls) == m.parser.layers * 2 * width  # 12, not 2 * 2 * 8
        assert set(calls) == {batch.size}

    def test_dev_decode_encodes_the_corpus_in_one_parser_pass(self, monkeypatch):
        calls = []
        encode = depparse.parser_encode

        def counted(sentences, parser):
            calls.append(len(sentences))
            return encode(sentences, parser)

        monkeypatch.setattr(depparse, "parser_encode", counted)
        sents = TOKENS + [[]] + TOKENS
        assert len(sents) <= syntax.ENCODE_CHUNK
        lines, stats = cli._decode_corpus([self.model(vocabs=VOCABS)], sents, 2, 5,
                                          trees=None, encodings=[None])
        assert calls == [6]  # one batch-1 pass per sentence would be [1] * 6
        assert stats["sentences"] == 6 and lines[3] == ""

    def test_align_dump_encodes_the_corpus_in_one_parser_pass(self, monkeypatch, tmp_path):
        ckpt, src, out = (str(tmp_path / name) for name in ("m.ckpt", "src.txt", "a.jsonl"))
        self.model(vocabs=VOCABS).save(ckpt)
        with open(src, "w", encoding="utf-8") as f:
            f.write("".join(" ".join(t) + "\n" for t in TOKENS + [[]] + TOKENS))
        calls = []
        encode = depparse.parser_encode

        def counted(sentences, parser):
            calls.append(len(sentences))
            return encode(sentences, parser)

        monkeypatch.setattr(depparse, "parser_encode", counted)
        with pytest.warns(UserWarning, match="sentence 3 is empty"):
            assert cli.main(["align-dump", "--model", ckpt, "--src", src, "--out", out,
                             "--decode_max_len", "5"]) == 0
        assert calls == [6]  # one batch-1 pass per sentence would be [1] * 6
        assert [r.id for r in read_alignments(out)] == [0, 1, 2, 4, 5, 6]


class TestTreeGru:
    def test_single_node_uses_zero_and_root_states(self):
        p = tree_params(4, 3)
        e = T.constant(T.make_rng(1).normal(size=(1, 4)))
        out = syntax.tree_gru_encode_batch(e, [DependencyTree([0], ["root"])], p)
        up = gru_step(p.up, e, p.up.zero_state(1))
        down = gru_step(p.down, e, p.root)
        assert np.allclose(out.data[:, :3], up.data)
        assert np.allclose(out.data[:, 3:], down.data)

    def test_chain_matches_naive_recursion(self):
        p = tree_params(3, 4)
        tree = DependencyTree([0, 1, 2], ["root", "obj", "obj"])
        e = T.constant(T.make_rng(2).normal(size=(3, 3)))
        fast = syntax.tree_gru_encode_batch(e, [tree], p)
        slow = tree_gru_encode_naive(e, tree, p)
        assert np.abs(fast.data - slow.data).max() < 1e-5

    def test_star_children_share_the_head_state(self):
        p = tree_params(3, 4)
        tree = DependencyTree([0, 1, 1, 1, 1, 1])
        e = T.constant(T.make_rng(3).normal(size=(6, 3)))
        out = syntax.tree_gru_encode_batch(e, [tree], p)
        head_down = gru_step(p.down, T.slice_axis(e, 0, 0, 1), p.root)
        for child in range(1, 6):
            expect = gru_step(p.down, T.slice_axis(e, 0, child, child + 1), head_down)
            assert np.allclose(out.data[child, 4:], expect.data[0])

    def test_random_trees_match_naive(self):
        rng = T.make_rng(17)
        p = tree_params(3, 4, seed=5)
        for _ in range(20):
            n = int(rng.integers(1, 13))
            tree = random_projective_tree(n, rng)
            e = T.constant(rng.normal(size=(n, 3)))
            fast = syntax.tree_gru_encode_batch(e, [tree], p)
            slow = tree_gru_encode_naive(e, tree, p)
            assert np.abs(fast.data - slow.data).max() < 1e-5

    def test_batched_sentences_match_one_by_one(self):
        rng = T.make_rng(23)
        p = tree_params(3, 4, seed=6)
        trees = [random_projective_tree(int(rng.integers(1, 8)), rng) for _ in range(5)]
        embs = [T.constant(rng.normal(size=(t.n, 3))) for t in trees]
        together = syntax.tree_gru_encode_batch(T.concat(embs, axis=0), trees, p)
        for e, t, out in zip(embs, trees, split_rows(together.data, trees)):
            assert np.allclose(out, syntax.tree_gru_encode_batch(e, [t], p).data)

    @pytest.mark.parametrize("shape", ["comb", "star", "random"])
    def test_many_children_over_several_levels_match_naive(self, shape):
        rng = T.make_rng(29)
        p = tree_params(3, 4, seed=8)
        trees = [shaped_tree(shape, int(n), rng) for n in rng.integers(8, 41, size=8)]
        if shape == "random":  # nodes of three or more children, spread over levels
            spread = [v for tree in trees for v in wide_nodes(tree)]
            assert len(spread) >= 4
        embs = [T.constant(rng.normal(size=(t.n, 3))) for t in trees]
        together = syntax.tree_gru_encode_batch(T.concat(embs, axis=0), trees, p)
        for e, t, out in zip(embs, trees, split_rows(together.data, trees)):
            assert np.abs(out - tree_gru_encode_naive(e, t, p).data).max() < 1e-12

    @pytest.mark.parametrize("shape", ["chain", "comb"])
    def test_work_is_linear_in_depth(self, shape, monkeypatch):
        """Elements read by concat and matmul: doubling a chain's or a comb's
        depth doubles them, where summing over every finished level would
        quadruple them."""
        work = [0]
        for name in ("concat", "matmul"):
            def counted(*args, _op=getattr(T, name), **kw):
                for a in args:
                    work[0] += sum(t.data.size for t in (a if isinstance(a, list) else [a]))
                return _op(*args, **kw)
            monkeypatch.setattr(T, name, counted)
        p = tree_params(8, 8)
        counts = []
        for n in (600, 1200):
            tree = shaped_tree(shape, n, None)
            work[0] = 0
            syntax.tree_gru_encode_batch(T.constant(np.ones((n, 8))), [tree], p)
            counts.append(work[0])
        assert counts[1] / counts[0] <= 2.2, counts

    def test_length_mismatch_rejected(self):
        p = tree_params(3, 4)
        tree = DependencyTree([0, 1])
        with pytest.raises(ValueError):
            syntax.tree_gru_encode_batch(T.zeros((3, 3)), [tree], p)
        with pytest.raises(ValueError):
            tree_gru_encode_naive(T.zeros((3, 3)), tree, p)
        with pytest.raises(ValueError):
            syntax.tree_gru_encode_batch(T.zeros((2, 3)), [tree, tree], p)

    def test_gradients_flow_through_both_passes(self):
        table = nn.ParamTable()
        p = syntax.TreeGruParams(table, "tree", 3, 3, nn.uniform_init(T.make_rng(7)))
        tree = DependencyTree([2, 0, 2], ["det", "root", "obj"])
        emb = table.new("emb", (3, 3), nn.uniform_init(T.make_rng(8), 0.5))

        def loss(_):
            return T.sum_all(T.tanh(syntax.tree_gru_encode_batch(emb, [tree], p)))

        for name in ("emb", "tree.root", "tree.up.W", "tree.down.U"):
            assert T.grad_check(loss, table[name]) < 1e-4, name

    def test_tree_mode_translator_end_to_end(self):
        m = TranslationModel(11, 9, mode="tree-rnn", emb_dim=6, hidden_dim=8,
                             dropout=0.0, seed=4)
        trees = [DependencyTree([2, 0, 2]), DependencyTree([2, 0]),
                 DependencyTree([0, 1, 1])]
        batches = filter_and_batch(PAIRS, 50, 50, 3, seed=1, trees=trees)
        opt = nn.Adam(m.table, lr=0.02, clip=5.0)
        losses = [train_step(batches[0], m, opt)[0] for _ in range(10)]
        assert losses[-1] < losses[0]


class TestBatchByLevel:
    def test_chain_has_one_level_per_node(self):
        trees = [DependencyTree([0, 1, 2, 3]), DependencyTree([0, 1, 2, 3])]
        sched = syntax.batch_by_level(trees)
        assert len(sched["up"]) == 4
        assert len(sched["down"]) == 4
        # bottom-up starts at the leaf (position 4), top-down at the root
        assert sched["up"][0] == [(0, 4), (1, 4)]
        assert sched["down"][0] == [(0, 1), (1, 1)]

    def test_a_1200_token_chain_takes_one_level_per_node(self):
        n = 1200  # beyond Python's default recursion limit
        sched = syntax.batch_by_level([DependencyTree(list(range(n)))])
        assert sched["up"] == [[(0, n - v)] for v in range(n)]
        assert sched["down"] == [[(0, v + 1)] for v in range(n)]

    def test_single_node_trees_take_one_level(self):
        sched = syntax.batch_by_level([DependencyTree([0])] * 3)
        assert len(sched["up"]) == len(sched["down"]) == 1
        assert len(sched["up"][0]) == 3

    def test_every_node_scheduled_exactly_once(self):
        rng = T.make_rng(31)
        trees = [random_projective_tree(int(rng.integers(1, 10)), rng)
                 for _ in range(6)]
        total = sum(t.n for t in trees)
        sched = syntax.batch_by_level(trees)
        for direction in ("up", "down"):
            nodes = [node for level in sched[direction] for node in level]
            assert len(nodes) == total
            assert len(set(nodes)) == total


class TestSawrCache:
    def test_extract_matches_parser_encode(self):
        # extraction runs one padded batch; batched BLAS rows may differ from
        # one-sentence rows in the last bit, never by more than reassociation
        parser = small_parser()
        encs = syntax.extract_sawr(parser, TOKENS)
        batched = parser_encode(TOKENS, parser).data
        for toks, enc, same in zip(TOKENS, encs, batched):
            assert enc.shape == (len(toks), parser.out_dim)
            assert np.array_equal(enc, same[:len(toks)])
            assert np.abs(enc - encode_one(toks, parser).data).max() <= 1e-12

    def test_round_trip(self, tmp_path):
        parser = small_parser()
        encs = syntax.extract_sawr(parser, TOKENS)
        path = str(tmp_path / "train.sawr")
        syntax.write_sawr_cache(path, encs, "f" * 64)
        back, stored = syntax.read_sawr_cache(path, "f" * 64)
        assert stored == "f" * 64
        assert len(back) == len(encs)
        for a, b in zip(encs, back):
            assert np.array_equal(a, b)

    def test_hash_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "c.sawr")
        syntax.write_sawr_cache(path, [np.zeros((2, 3))], "a" * 64)
        with pytest.raises(DataError, match="re-run"):
            syntax.read_sawr_cache(path, "b" * 64)

    def test_no_expected_hash_skips_the_check(self, tmp_path):
        path = str(tmp_path / "c.sawr")
        syntax.write_sawr_cache(path, [np.ones((1, 2))], "c" * 64)
        back, stored = syntax.read_sawr_cache(path)
        assert stored == "c" * 64 and len(back) == 1

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.sawr")
        with open(path, "wb") as f:
            f.write(b"NOTACACHE" + b"\0" * 30)
        with pytest.raises(DataError, match="magic"):
            syntax.read_sawr_cache(path)

    def test_every_proper_prefix_is_a_data_error(self, tmp_path):
        path = str(tmp_path / "c.sawr")
        syntax.write_sawr_cache(path, [np.ones((2, 3)), np.zeros((1, 3))], "e" * 64)
        blob = open(path, "rb").read()
        for n in range(len(blob)):
            with open(path, "wb") as f:
                f.write(blob[:n])
            with pytest.raises(DataError, match=re.escape(path)):
                syntax.read_sawr_cache(path)

    def test_undecodable_parser_hash_is_a_data_error(self, tmp_path):
        path = str(tmp_path / "c.sawr")
        syntax.write_sawr_cache(path, [np.ones((2, 3))], "e" * 64)
        blob = bytearray(open(path, "rb").read())
        blob[blob.index(b"e" * 64)] = 0xFF  # first byte of the hash in __meta__
        with open(path, "wb") as f:
            f.write(blob)
        with pytest.raises(DataError, match=re.escape(f"{path}: unreadable __meta__ entry")):
            syntax.read_sawr_cache(path)

    @pytest.mark.parametrize("meta", [{}, {"parser_sha256": 7}])
    def test_meta_without_a_hash_is_not_a_cache(self, tmp_path, meta):
        path = str(tmp_path / "c.sawr")
        save_checkpoint(path, {"0": np.ones((2, 3)), "__meta__": pack_meta(meta)})
        with pytest.raises(DataError, match=re.escape(f"{path}: ") + ".*not a SAWR cache"):
            syntax.read_sawr_cache(path)

    @pytest.mark.parametrize("entries, bad", [
        ({"1": np.ones((2, 3)), "0": np.ones((1, 3))}, "'1'"),
        ({"0": np.ones((2, 3)), "x": np.ones((1, 3))}, "'x'"),
        ({"0": np.ones((2, 3)), "01": np.ones((1, 3))}, "'01'"),
        ({"0": np.ones((2, 3)), "1": np.ones(3)}, "'1'"),
        ({"0": np.ones((2, 3, 1))}, "'0'"),
        ({"0": np.ones((2, 3), dtype=np.uint8)}, "'0'"),
    ], ids=["out of order", "misnamed", "zero-padded", "1-D record", "3-D record",
            "raw bytes"])
    def test_entries_other_than_the_records_are_data_errors(self, tmp_path, entries, bad):
        path = str(tmp_path / "c.sawr")
        save_checkpoint(path, {**entries, "__meta__": pack_meta({"parser_sha256": "e" * 64})})
        with pytest.raises(DataError, match=re.escape(f"{path}: entry {bad}")):
            syntax.read_sawr_cache(path)

    def test_a_record_that_is_not_2d_is_refused_at_write(self, tmp_path):
        with pytest.raises(ValueError, match="record 1"):
            syntax.write_sawr_cache(tmp_path / "c.sawr", [np.ones((2, 3)), np.ones(3)], "e")

    def test_trailing_garbage_rejected(self, tmp_path):
        path = str(tmp_path / "c.sawr")
        syntax.write_sawr_cache(path, [np.ones((4, 3))], "d" * 64)
        blob = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(blob + b"\x00\x01")
        with pytest.raises(DataError, match="trailing"):
            syntax.read_sawr_cache(path)


@pytest.fixture(scope="module")
def valid_binaries(tmp_path_factory):
    """One valid file per binary reader: a translator checkpoint carrying a
    parser, a parser checkpoint and a SAWR cache, all small enough that any
    digit a corruption writes into their metadata keeps the model small."""
    d = tmp_path_factory.mktemp("binaries")
    parser = small_parser()
    parser.save(d / "parser.ckpt")
    sawr_model(parser=parser).save(d / "model.ckpt")
    syntax.write_sawr_cache(d / "train.sawr", syntax.extract_sawr(parser, TOKENS), "e" * 64)
    return {name: (d / name).read_bytes()
            for name in ("model.ckpt", "parser.ckpt", "train.sawr")}, d


READERS = {
    "load_checkpoint": ("model.ckpt", load_checkpoint),
    "TranslationModel.load": ("model.ckpt", TranslationModel.load),
    "ParserModel.load": ("parser.ckpt", ParserModel.load),
    "read_sawr_cache": ("train.sawr", syntax.read_sawr_cache),
}


class TestBinaryReadersOnCorruptFiles:
    """A truncated or bit-flipped file either loads or raises DataError."""

    @settings(max_examples=300, deadline=None)
    @given(reader=st.sampled_from(sorted(READERS)), data=st.data())
    def test_loads_or_raises_data_error(self, valid_binaries, reader, data):
        blobs, d = valid_binaries
        name, load = READERS[reader]
        blob = bytearray(blobs[name])
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                                 st.integers(1, 255)),
                                       min_size=1, max_size=4), label="flips")
            for at, mask in flips:
                blob[at] ^= mask
        path = d / f"corrupt.{name}"
        path.write_bytes(bytes(blob))
        try:
            load(path)
        except DataError:
            pass


# small_parser's "b" has id 2 of ids 0..4
BAD_VOCAB_IDS = {"id out of range": 7, "duplicate id": 1, "non-int id": "2",
                 "bool id": True}


class TestParserVocabularyIds:
    """A parser's token ids are the ints 0..len(vocab)-1, each used once: any
    other id in a checkpoint's __meta__ is a DataError at load, not a row
    lookup that fails at the first parse."""

    @pytest.mark.parametrize("bad", BAD_VOCAB_IDS.values(), ids=list(BAD_VOCAB_IDS))
    @pytest.mark.parametrize("kind", ["parser", "translator"])
    def test_a_bad_id_is_a_data_error_at_load(self, tmp_path, kind, bad):
        path = tmp_path / f"{kind}.ckpt"
        if kind == "parser":
            small_parser().save(path)
            load, vocab_of = ParserModel.load, lambda meta: meta["vocab"]
        else:
            sawr_model(parser=small_parser()).save(path)
            load, vocab_of = TranslationModel.load, lambda meta: meta["parser"]["vocab"]
        load(path)
        edit_meta(path, lambda meta: vocab_of(meta).update(b=bad))
        with pytest.raises(DataError, match=re.escape(f"{path}: invalid __meta__ (parser "
                                                      "vocabulary ids must be")):
            load(path)
