"""Syntax integration: SAWR projection, parser freezing, Tree-GRU, caching."""

import re

import numpy as np
import pytest

from synmt import nn, syntax
from synmt import tensor as T
from synmt.data import Batch, filter_and_batch
from synmt.depparse import DependencyTree, ParserModel, parser_encode
from synmt.errors import DataError, ShapeError, StateError
from synmt.seq2seq import TranslationModel, sequence_loss, train_step

from helpers import random_projective_tree


def projection(in_dim, out_dim, seed=0):
    return syntax.SawrProjection(nn.ParamTable(), "sawr", in_dim, out_dim,
                                 T.make_rng(seed))


def tree_params(input_dim, hidden_dim, seed=0):
    return syntax.TreeGruParams(nn.ParamTable(), "tree", input_dim, hidden_dim,
                                T.make_rng(seed))


def small_parser(seed=2):
    vocab = {"<unk>": 0, "a": 1, "b": 2, "c": 3, "d": 4}
    return ParserModel(vocab, ["det", "root", "obj"], embed_dim=4, hidden_dim=3,
                       mlp_dim=5, layers=1, seed=seed)


def sawr_model(parser=None, trainable=False, seed=3, **kw):
    return TranslationModel(11, 9, mode="sawr", emb_dim=6, hidden_dim=8,
                            sawr_dim=4, dropout=0.0, parser=parser,
                            parser_trainable=trainable, seed=seed, **kw)


TOKENS = [["a", "b", "c"], ["b", "c"], ["a", "c", "d"]]
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
        before = m.table.bytes_of("parser")
        for step in range(100):
            train_step(batches[step % len(batches)], m, opt)
        assert m.table.bytes_of("parser") == before

    def test_tuned_parser_moves_after_one_update(self):
        m = sawr_model(parser=small_parser(), trainable=True)
        opt = nn.Adam(m.table, lr=0.01, clip=5.0)
        before = m.table.bytes_of("parser")
        train_step(sawr_batches(parser=m.parser)[0], m, opt)
        assert m.table.bytes_of("parser") != before

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


class TestTreeGru:
    def test_single_node_uses_zero_and_root_states(self):
        p = tree_params(4, 3)
        e = T.constant(T.make_rng(1).normal(size=(1, 4)))
        out = syntax.tree_gru_encode(e, DependencyTree([0], ["root"]), p)
        up = nn.gru_step(e, p.up.zero_state(1), p.up)
        down = nn.gru_step(e, p.root, p.down)
        assert np.allclose(out.data[:, :3], up.data)
        assert np.allclose(out.data[:, 3:], down.data)

    def test_chain_matches_naive_recursion(self):
        p = tree_params(3, 4)
        tree = DependencyTree([0, 1, 2], ["root", "obj", "obj"])
        e = T.constant(T.make_rng(2).normal(size=(3, 3)))
        fast = syntax.tree_gru_encode(e, tree, p)
        slow = syntax.tree_gru_encode_naive(e, tree, p)
        assert np.abs(fast.data - slow.data).max() < 1e-5

    def test_star_children_share_the_head_state(self):
        p = tree_params(3, 4)
        tree = DependencyTree([0, 1, 1, 1, 1, 1])
        e = T.constant(T.make_rng(3).normal(size=(6, 3)))
        out = syntax.tree_gru_encode(e, tree, p)
        head_down = nn.gru_step(T.slice_axis(e, 0, 0, 1), p.root, p.down)
        for child in range(1, 6):
            expect = nn.gru_step(T.slice_axis(e, 0, child, child + 1),
                                 head_down, p.down)
            assert np.allclose(out.data[child, 4:], expect.data[0])

    def test_random_trees_match_naive(self):
        rng = T.make_rng(17)
        p = tree_params(3, 4, seed=5)
        for _ in range(20):
            n = int(rng.integers(1, 13))
            tree = random_projective_tree(n, rng)
            e = T.constant(rng.normal(size=(n, 3)))
            fast = syntax.tree_gru_encode(e, tree, p)
            slow = syntax.tree_gru_encode_naive(e, tree, p)
            assert np.abs(fast.data - slow.data).max() < 1e-5

    def test_batched_sentences_match_one_by_one(self):
        rng = T.make_rng(23)
        p = tree_params(3, 4, seed=6)
        trees = [random_projective_tree(int(rng.integers(1, 8)), rng) for _ in range(5)]
        embs = [T.constant(rng.normal(size=(t.n, 3))) for t in trees]
        together = syntax.tree_gru_encode_batch(embs, trees, p)
        for e, t, out in zip(embs, trees, together):
            assert np.allclose(out.data, syntax.tree_gru_encode(e, t, p).data)

    def test_length_mismatch_rejected(self):
        p = tree_params(3, 4)
        tree = DependencyTree([0, 1])
        with pytest.raises(ValueError):
            syntax.tree_gru_encode(T.zeros((3, 3)), tree, p)
        with pytest.raises(ValueError):
            syntax.tree_gru_encode_naive(T.zeros((3, 3)), tree, p)
        with pytest.raises(ValueError):
            syntax.tree_gru_encode_batch([T.zeros((2, 3))], [tree, tree], p)

    def test_gradients_flow_through_both_passes(self):
        table = nn.ParamTable()
        p = syntax.TreeGruParams(table, "tree", 3, 3, T.make_rng(7))
        tree = DependencyTree([2, 0, 2], ["det", "root", "obj"])
        emb = table.add("emb", T.init_uniform((3, 3), -0.5, 0.5, rng=T.make_rng(8)))

        def loss(_):
            return T.sum_all(T.tanh(syntax.tree_gru_encode(emb, tree, p)))

        for name in ("emb", "tree.root", "tree.up.cand.W", "tree.down.update.U"):
            assert T.grad_check(loss, table[name]) < 1e-4, name

    def test_tree_mode_translator_end_to_end(self):
        m = TranslationModel(11, 9, mode="tree-rnn", emb_dim=6, hidden_dim=8,
                             dropout=0.0, seed=4)
        trees = [DependencyTree([2, 0, 2]), DependencyTree([2, 0]),
                 DependencyTree([0, 1, 1])]
        batches = filter_and_batch(PAIRS, 50, 50, 3, seed=1, trees=trees)
        opt = nn.Adam(m.table, lr=0.02, clip=5.0)
        losses = [train_step(batches[0], m, opt) for _ in range(10)]
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
        parser = small_parser()
        encs = syntax.extract_sawr(parser, TOKENS)
        for toks, enc in zip(TOKENS, encs):
            assert enc.shape == (len(toks), parser.out_dim)
            assert np.array_equal(enc, parser_encode(toks, parser).data)

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
        blob[14] = 0xFF  # first byte of the parser hash
        with open(path, "wb") as f:
            f.write(blob)
        with pytest.raises(DataError, match=re.escape(f"{path}: invalid ascii "
                                                      f"text at byte 14")):
            syntax.read_sawr_cache(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = str(tmp_path / "c.sawr")
        syntax.write_sawr_cache(path, [np.ones((4, 3))], "d" * 64)
        blob = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(blob + b"\x00\x01")
        with pytest.raises(DataError, match="trailing"):
            syntax.read_sawr_cache(path)
