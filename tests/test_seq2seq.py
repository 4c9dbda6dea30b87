"""Translator: encoding, attention, decoder steps, training, beam search."""

import gc
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synmt import nn, seq2seq
from synmt import tensor as T
from synmt.checkpoint import load_checkpoint
from synmt.data import BOS, EOS, Batch, filter_and_batch
from synmt.depparse import DependencyTree, ParserModel
from synmt.errors import DataError, ShapeError
from synmt.evaluate import ensemble_decode
from synmt.seq2seq import (TranslationModel, _top_k, attend, attention_keys, beam_search,
                           decode_step, encode_for_decode, sequence_loss, train_step)

from helpers import argmax_chain, enumerate_best  # shared with the acceptance suite
from helpers import (BAD_METAS, dense_backward, dense_grad, edit_entries, edit_meta,
                     full_length_beam, gru_step, log, per_gate_layout, per_step_sequence_loss,
                     pick, records_on, rewrite_meta, sharpen, state_dict, watch_outputs)


def tiny_model(seed=1, src=13, tgt=9, emb=6, hidden=8, dropout=0.0, **kw):
    return TranslationModel(src, tgt, emb_dim=emb, hidden_dim=hidden,
                            dropout=dropout, seed=seed, **kw)


def make_batch(pairs, seed=1, batch_size=8):
    return filter_and_batch(pairs, 100, 100, batch_size, seed)[0]


PAIRS = [([4, 5, 6], [4, 5, 3]), ([5, 6], [6, 3]), ([4, 6, 7, 8], [5, 4, 6, 3])]


class TestModelConstruction:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            tiny_model(mode="syntax-magic")

    @pytest.mark.parametrize("field, bad", [
        (field, bad) for field in ("src_vocab_size", "tgt_vocab_size", "emb_dim", "hidden_dim",
                                   "sawr_dim", "tree_hidden", "sawr_in_dim")
        for bad in ("8", True, 0, -2, 8.0)] + [  # None asks for a default in the last two
        (field, None) for field in ("src_vocab_size", "tgt_vocab_size", "emb_dim", "hidden_dim",
                                    "sawr_dim")])
    def test_rejects_a_dimension_that_is_not_a_positive_int(self, field, bad):
        kw = {"src_vocab_size": 13, "tgt_vocab_size": 9, "emb_dim": 6, "hidden_dim": 8,
              "mode": "tree-rnn", field: bad}
        with pytest.raises(ValueError, match=field):
            TranslationModel(kw.pop("src_vocab_size"), kw.pop("tgt_vocab_size"), **kw)

    def test_rejects_odd_hidden(self):
        with pytest.raises(ValueError, match="even"):
            tiny_model(hidden=7)

    def test_rejects_vocab_without_reserved_ids(self):
        with pytest.raises(ValueError):
            tiny_model(tgt=3)

    def test_rejects_bad_dropout(self):
        with pytest.raises(ValueError):
            tiny_model(dropout=1.0)

    def test_encoder_input_dim_follows_mode(self):
        assert tiny_model().enc_input_dim == 6
        assert tiny_model(mode="tree-linearized").enc_input_dim == 6
        m = tiny_model(mode="sawr", sawr_in_dim=10, sawr_dim=4)
        assert m.enc_input_dim == 6 + 4
        m = tiny_model(mode="tree-rnn")
        assert m.enc_input_dim == 2 * m.tree_hidden

    def test_sawr_mode_needs_a_dim_source(self):
        with pytest.raises(ValueError, match="sawr"):
            tiny_model(mode="sawr")


class TestEncodeSource:
    def test_shapes_and_determinism(self):
        m = tiny_model()
        x = T.constant(np.ones((2, 5, 6)))
        h1 = nn.birnn_encode(x, [(m.enc_fwd, m.enc_bwd)])
        h2 = nn.birnn_encode(x, [(m.enc_fwd, m.enc_bwd)])
        assert h1.shape == (2, 5, 8)
        assert np.array_equal(h1.data, h2.data)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            m = tiny_model()
            nn.birnn_encode(T.zeros((1, 0, 6)), [(m.enc_fwd, m.enc_bwd)])

    def test_state_is_forward_backward_concat(self):
        # each half must equal a manual unidirectional pass over the inputs
        m = tiny_model()
        rng = T.make_rng(0)
        xs = [T.constant(rng.normal(size=(1, 6))) for _ in range(3)]
        hs = nn.birnn_encode(T.constant(np.stack([x.data for x in xs], axis=1)),
                             [(m.enc_fwd, m.enc_bwd)]).data
        f = m.enc_fwd.zero_state(1)
        for i, x in enumerate(xs):
            f = gru_step(m.enc_fwd, x, f)
            assert np.allclose(hs[:, i, :4], f.data)
        b = m.enc_bwd.zero_state(1)
        for i in reversed(range(3)):
            b = gru_step(m.enc_bwd, xs[i], b)
            assert np.allclose(hs[:, i, 4:], b.data)


def keyed_attend(s, h, Wa, bias=None):
    """attend over the keys of h under W^a, formed on the spot."""
    return attend(s, attention_keys(h, Wa), h, bias)


class TestAttend:
    def test_zero_weight_matrix_gives_uniform_mean(self):
        rng = T.make_rng(3)
        h = T.constant(rng.normal(size=(1, 5, 4)))
        s = T.constant(rng.normal(size=(2, 4)))
        c, a = keyed_attend(s, h, T.zeros((4, 4)))
        assert np.allclose(a.data, 0.2)
        assert np.allclose(c.data, np.tile(h.data[0].mean(axis=0), (2, 1)))

    def test_single_state_gets_all_weight(self):
        h = T.constant([[[1.0, 2.0, 3.0]]])
        s = T.constant([[0.5, 0.5, 0.5]])
        c, a = keyed_attend(s, h, T.constant(np.eye(3)))
        assert np.allclose(a.data, [[1.0]])
        assert np.allclose(c.data, h.data[0])

    def test_hand_case_quarter_three_quarters(self):
        # scores [ln 1, ln 3] --> softmax [0.25, 0.75]
        h = T.constant([[[0.0, 2.0], [np.log(3.0), -1.0]]])
        s = T.constant([[1.0, 0.0]])
        c, a = keyed_attend(s, h, T.constant(np.eye(2)))
        assert np.allclose(a.data, [[0.25, 0.75]])
        assert np.allclose(c.data, 0.25 * h.data[0, 0] + 0.75 * h.data[0, 1])

    def test_rows_are_distributions(self):
        rng = T.make_rng(11)
        for _ in range(10):
            k, n, d = rng.integers(1, 5), rng.integers(1, 7), rng.integers(1, 6)
            h = T.constant(rng.normal(size=(1, n, d)))
            s = T.constant(rng.normal(size=(k, d)))
            _, a = keyed_attend(s, h, T.constant(rng.normal(size=(d, d))))
            assert np.allclose(a.data.sum(axis=1), 1.0, atol=1e-6)
            assert (a.data >= 0).all() and (a.data <= 1).all()

    def test_scores_are_the_bilinear_form(self):
        # s (h_l W^aᵀ)ᵀ is s W^a h_lᵀ, up to the order of the additions
        rng = T.make_rng(12)
        B, Q, n, d = 2, 3, 4, 5
        h = T.constant(rng.normal(size=(B, n, d)))
        s = T.constant(rng.normal(size=(B * Q, d)))
        Wa = T.constant(rng.normal(size=(d, d)))
        _, a = keyed_attend(s, h, Wa)
        for b in range(B):
            beta = s.data[b * Q:(b + 1) * Q] @ Wa.data @ h.data[b].T
            e = np.exp(beta - beta.max(axis=1, keepdims=True))
            assert np.allclose(a.data[b * Q:(b + 1) * Q], e / e.sum(axis=1, keepdims=True),
                               rtol=1e-12, atol=1e-14)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            attend(T.zeros((1, 3)), T.zeros((1, 2, 4)), T.zeros((1, 4, 2)))

    def test_memory_must_be_three_dimensional(self):
        with pytest.raises(ShapeError, match="memory"):
            attend(T.zeros((1, 3)), T.zeros((1, 3, 4)), T.zeros((4, 3)))
        with pytest.raises(ShapeError, match="memory"):
            attention_keys(T.zeros((4, 3)), T.zeros((3, 3)))

    def test_query_rows_must_group_over_the_sources(self):
        with pytest.raises(ShapeError, match="grouped"):
            attend(T.zeros((3, 3)), T.zeros((2, 3, 4)), T.zeros((2, 4, 3)))

    def test_weight_matrix_must_match_the_memory_width(self):
        with pytest.raises(ShapeError, match="W\\^a"):
            attention_keys(T.zeros((2, 4, 3)), T.zeros((3, 2)))

    def test_keys_must_match_the_memory(self):
        h = T.zeros((2, 4, 3))
        for keys in (T.zeros((2, 4, 3)), T.zeros((1, 3, 4)), T.zeros((2, 3, 5))):
            with pytest.raises(ShapeError, match="keys"):
                attend(T.zeros((2, 3)), keys, h)

    def test_grouped_queries_match_one_source_at_a_time(self):
        # rows b*Q .. b*Q+Q-1 attend over slab b only; a -1e9 bias hides
        # padding exactly as if the memory were cut at the sentence's end
        rng = T.make_rng(5)
        B, Q, n, d = 3, 2, 5, 4
        h = T.constant(rng.normal(size=(B, n, d)))
        s = T.constant(rng.normal(size=(B * Q, d)))
        Wa = T.constant(rng.normal(size=(d, d)))
        lens = np.array([5, 2, 4])
        mask = nn.length_mask(lens, n)
        c, a = keyed_attend(s, h, Wa, (mask - 1.0) * 1e9)
        for b in range(B):
            rows = slice(b * Q, (b + 1) * Q)
            slab = T.constant(h.data[b:b + 1, :lens[b]])
            c1, a1 = keyed_attend(T.constant(s.data[rows]), slab, Wa)
            assert np.allclose(c.data[rows], c1.data, rtol=1e-12, atol=1e-14)
            assert np.allclose(a.data[rows, :lens[b]], a1.data, rtol=1e-12, atol=1e-14)
            assert (a.data[rows, lens[b]:] == 0.0).all()

    def test_grouped_gradients(self):
        rng = T.make_rng(6)
        h = T.Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
        s = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        Wa = T.Tensor(0.5 * rng.normal(size=(3, 3)), requires_grad=True)
        bias = (nn.length_mask([3, 2], 3) - 1.0) * 1e9

        def loss(_):
            c, alpha = keyed_attend(s, h, Wa, bias)
            return T.add(T.sum_all(T.tanh(c)), T.sum_all(T.mul(alpha, alpha)))

        for x in (s, h, Wa):
            assert T.grad_check(loss, x) < 1e-6


class TestDecodeStep:
    def setup_method(self):
        self.m = tiny_model(seed=5)
        self.h, self.s0 = encode_for_decode(self.m, [4, 5, 6])
        self.c0 = T.zeros((1, 8))

    def test_distribution_sums_to_one(self):
        dist, s, c, a = decode_step(BOS, self.c0, self.s0, self.h, self.m)
        assert dist.shape == (1, 9)
        assert abs(dist.data.sum() - 1.0) < 1e-6
        assert a.data.shape == (1, 3)
        assert abs(a.data.sum() - 1.0) < 1e-6

    def test_out_of_range_id_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            decode_step(9, self.c0, self.s0, self.h, self.m)
        with pytest.raises(ValueError, match="out of range"):
            decode_step(-1, self.c0, self.s0, self.h, self.m)

    def test_deterministic(self):
        a = decode_step(4, self.c0, self.s0, self.h, self.m)
        b = decode_step(4, self.c0, self.s0, self.h, self.m)
        for x, y in zip(a, b):
            assert np.array_equal(x.data, y.data)

    def test_row_batch_matches_single_rows(self):
        """A two-row step must equal the two single-row steps stacked."""
        dist2, s2, c2, _ = decode_step([4, 7], T.zeros((2, 8)),
                                       T.concat([self.s0, self.s0], axis=0),
                                       self.h, self.m)
        for row, y in enumerate((4, 7)):
            dist1, s1, c1, _ = decode_step(y, self.c0, self.s0, self.h, self.m)
            assert np.allclose(dist2.data[row], dist1.data[0])
            assert np.allclose(s2.data[row], s1.data[0])
            assert np.allclose(c2.data[row], c1.data[0])

    def test_step_log_loss_gradients(self):
        m = self.m

        def loss(_):
            h, s0 = encode_for_decode(m, [4, 5, 6])
            dist, _, _, _ = decode_step(4, T.zeros((1, 8)), s0, h, m)
            return T.scale(log(pick(dist, [7])), -1.0)

        for name in ("att.W", "tgt_emb", "dec.W", "out.hidden.W", "out.logits.b"):
            assert T.grad_check(loss, m.table[name]) < 1e-4, name


class TestTrainStep:
    def test_initial_loss_near_uniform_entropy(self):
        vocab = 50
        m = tiny_model(tgt=vocab, dropout=0.5, seed=9)
        batch = make_batch([([4, 5, 6], [10, 20, 30, 3]), ([5, 6], [12, 3])])
        opt = nn.Adam(m.table, lr=5e-4, clip=5.0)
        nll, _ = train_step(batch, m, opt)
        assert abs(nll - np.log(vocab)) < 0.1 * np.log(vocab)

    def test_loss_strictly_decreases_on_repeated_batch(self):
        m = tiny_model(seed=2)
        batch = make_batch(PAIRS)
        opt = nn.Adam(m.table, lr=0.01, clip=5.0)
        losses = [train_step(batch, m, opt)[0] for _ in range(20)]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_pad_appended_to_references_leaves_loss_unchanged(self):
        m1 = tiny_model(seed=4)
        a, _ = train_step(make_batch(PAIRS), m1, nn.Adam(m1.table, lr=1e-3))
        padded = make_batch(PAIRS)
        padded.tgt = np.concatenate(
            [padded.tgt, np.zeros((padded.size, 2), dtype=np.int64)], axis=1)
        m2 = tiny_model(seed=4)
        b, _ = train_step(padded, m2, nn.Adam(m2.table, lr=1e-3))
        assert a == b

    def test_non_finite_loss_stops_before_the_update(self):
        m = tiny_model(seed=2)
        m.table["out.logits.b"].data[0, 4] = np.nan
        before = state_dict(m.table)
        opt = nn.Adam(m.table, lr=0.01, clip=5.0)
        with pytest.raises(FloatingPointError, match="non-finite"):
            train_step(make_batch(PAIRS), m, opt)
        after = state_dict(m.table)
        assert all(np.array_equal(before[k], after[k], equal_nan=True) for k in before)
        assert opt.t == 0 and not opt.m and not opt.v
        assert m.table.gradients() == {}

    def test_source_padding_is_masked_out(self):
        """PAD columns on the source side must not leak into the loss."""
        m = tiny_model(seed=6)
        alone = sequence_loss(Batch([[5, 6]], [[6, 3]]), m, mode="eval").item()
        padded = Batch([[5, 6]], [[6, 3]])
        padded.src = np.concatenate(
            [padded.src, np.zeros((1, 2), dtype=np.int64)], axis=1)
        assert abs(sequence_loss(padded, m, mode="eval").item() - alone) < 1e-12

    def test_dropout_only_active_in_train_mode(self):
        m = tiny_model(dropout=0.5, seed=8)
        batch = make_batch(PAIRS)
        e1 = sequence_loss(batch, m, mode="eval").item()
        e2 = sequence_loss(batch, m, mode="eval").item()
        t1 = sequence_loss(batch, m, mode="train").item()
        t2 = sequence_loss(batch, m, mode="train").item()
        assert e1 == e2
        assert t1 != t2  # fresh dropout masks each call

    def test_full_pipeline_gradients(self):
        m = tiny_model(seed=7)
        batch = make_batch(PAIRS)

        def loss(_):
            return sequence_loss(batch, m, mode="eval")

        for name in ("src_emb", "tgt_emb", "enc.fwd.W", "enc.bwd.U",
                     "att.W", "dec.b", "init.W", "out.hidden.b", "out.logits.W"):
            assert T.grad_check(loss, m.table[name]) < 1e-4, name

    def test_tape_nodes_per_target_step_do_not_grow_with_the_source(self):
        # attention reads the whole [B, n, H] memory in a fixed number of ops,
        # so a longer source adds encoder nodes only, never per-step nodes
        m = tiny_model(seed=3)

        def nodes(n, tgt_len):
            src = [4 + i % 8 for i in range(n)]
            tgt = [4 + j % 5 for j in range(tgt_len - 1)] + [EOS]
            batch = Batch([src, src[:-1]], [tgt, tgt])  # padded: the masked path
            with T.Tape() as tape:
                sequence_loss(batch, m, mode="eval")
                return len(tape)

        assert nodes(8, 3) - nodes(4, 3) == nodes(8, 6) - nodes(4, 6)


class TestBeamSearch:
    def test_input_validation(self):
        m = tiny_model()
        with pytest.raises(ValueError):
            beam_search([], m, 5, 10)
        with pytest.raises(ValueError):
            beam_search([4, 5], m, 0, 10)
        with pytest.raises(ValueError):
            beam_search([4, 5], m, 5, 0)

    @pytest.mark.parametrize("beam", [1, 3])
    def test_nan_scores_raise_one_line(self, beam):
        m = tiny_model(seed=2)
        m.table["out.logits.b"].data[0, 5] = np.nan
        with pytest.raises(FloatingPointError) as info:
            beam_search([4, 5, 6], m, beam, 10)
        assert str(info.value) == "decoder step 1: NaN in the hypothesis scores"

    def test_beam_one_follows_the_argmax_chain(self):
        for seed in range(6):
            m = tiny_model(seed=seed)
            b = beam_search([4, 5, 6], m, 1, 12)
            assert (b.ids, b.logp) == argmax_chain(m, [4, 5, 6], 12)

    def test_beam_one_follows_the_argmax_chain_to_max_len(self):
        m = tiny_model(seed=3)
        m.table["out.logits.b"].data[0, EOS] = -1e9  # EOS never wins a step
        b = beam_search([4, 5, 6], m, 1, 12)
        assert len(b.ids) == 12 and not b.completed
        assert (b.ids, b.logp) == argmax_chain(m, [4, 5, 6], 12)

    def test_wide_beam_matches_exhaustive_enumeration(self):
        # V=4 and max_len=3 give at most 4^3 paths, within a 64-beam exactly
        for seed in range(30):
            m = tiny_model(seed=seed, tgt=4, emb=5, hidden=6)
            hyp = beam_search([4, 5], m, 64, 3)
            ref = enumerate_best(m, [4, 5], 3)
            assert hyp.completed
            assert hyp.ids == ref["ids"], seed
            assert abs(hyp.logp - ref["logp"]) < 1e-9

    def test_wider_beam_never_scores_worse(self):
        # lightly trained models finish in a few tokens, which makes the
        # cross-beam comparison meaningful (untrained ones emit EOS at once
        # or never)
        kept = 0
        for seed in range(8):
            m = tiny_model(seed=seed)
            opt = nn.Adam(m.table, lr=0.05, clip=5.0)
            batch = make_batch(PAIRS)
            for _ in range(8):
                train_step(batch, m, opt)
            hyps = [beam_search([4, 5, 6], m, b, 14) for b in (1, 2, 3, 5, 8)]
            if not all(h.completed for h in hyps):
                continue
            kept += 1
            scores = [h.logp for h in hyps]
            assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))
        assert kept >= 5  # the comparison must actually trigger on most models

    def test_score_is_sum_of_step_logprobs(self):
        # the full-length reference carries each step's log-prob and
        # attention row, and returns the search's own hypothesis
        m = tiny_model(seed=10)
        hyp = beam_search([4, 5, 6], m, 4, 10)
        with full_length_beam():
            ref = beam_search([4, 5, 6], m, 4, 10)
        assert (ref.ids, ref.logp) == (hyp.ids, hyp.logp)
        assert abs(ref.logp - sum(ref.step_logps)) < 1e-12
        assert len(ref.alphas) == len(ref.ids) == len(ref.step_logps)
        for row in ref.alphas:
            assert abs(row.sum() - 1.0) < 1e-6

    def test_unreachable_eos_returns_full_length_partial(self):
        m = tiny_model(seed=1)
        m.table["out.logits.b"].data[0, EOS] = -1e9  # EOS never wins a step
        hyp = beam_search([4, 5, 6], m, 3, 7)
        assert not hyp.completed
        assert len(hyp.ids) == 7
        assert EOS not in hyp.ids

    def test_completed_pool_beats_better_partial(self):
        """Spec'd pool rule: any completed hypothesis outranks every partial."""
        for seed in range(8):
            m = tiny_model(seed=seed, tgt=5)
            hyp = beam_search([4, 5, 6], m, 4, 6)
            if hyp.completed:
                assert hyp.ids[-1] == EOS


class TestTopK:
    @settings(max_examples=200, deadline=None)
    @given(scores=st.lists(st.sampled_from([-np.inf, -3.0, -2.5, -1.0, -0.5, 0.0]),
                           min_size=1, max_size=40),
           k=st.integers(1, 40))
    def test_matches_stable_argsort(self, scores, k):
        """Ties go to the lower index, -inf scores included."""
        flat = np.array(scores)
        k = min(k, flat.size)
        assert list(_top_k(flat, k)) == list(np.argsort(-flat, kind="stable")[:k])

    def test_matches_stable_argsort_on_a_wide_vocabulary(self):
        rng = T.make_rng(3)
        flat = np.round(rng.normal(size=5 * 4100), 1)  # many exact ties
        flat[rng.random(flat.size) < 0.1] = -np.inf
        for k in (1, 5, 100):
            assert list(_top_k(flat, k)) == list(np.argsort(-flat, kind="stable")[:k])


class TestEarlyStop:
    """Stopping once no live hypothesis can win returns, bit for bit, what a
    search run to max_len returns."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 40), tgt=st.integers(4, 8), beam=st.integers(1, 8),
           max_len=st.integers(1, 12), gain=st.floats(1.0, 40.0),
           eos_bias=st.floats(-3.0, 3.0), members=st.sampled_from([1, 2]))
    def test_matches_full_length_search(self, seed, tgt, beam, max_len, gain,
                                        eos_bias, members):
        # Untrained models. Scaling every weight sharpens the distributions
        # and ties them to the decoded prefix, so a later completion can beat
        # an earlier one; the EOS bias varies how soon hypotheses finish.
        models = [sharpen(tiny_model(seed=seed + k, tgt=tgt), gain, eos_bias)
                  for k in range(members)]

        def search():
            if members == 1:
                return beam_search([4, 5, 6], models[0], beam, max_len)
            return ensemble_decode(models, [[4, 5, 6]] * members, beam, max_len)

        hyp = search()
        with full_length_beam():
            ref = search()
        assert hyp.ids == ref.ids
        assert hyp.logp == ref.logp
        assert hyp.completed == ref.completed
        assert all(lp <= 0.0 for lp in ref.step_logps)
        assert len(ref.step_logps) == len(ref.alphas) == len(hyp.ids)
        assert len(hyp.ids) <= hyp.steps <= max_len
        if hyp.stopped_early:
            assert hyp.completed and hyp.steps < max_len

    def test_unreachable_eos_runs_to_max_len(self):
        m = tiny_model(seed=1)
        m.table["out.logits.b"].data[0, EOS] = -1e9
        hyp = beam_search([4, 5, 6], m, 3, 7)
        assert hyp.steps == 7 and not hyp.stopped_early

    def test_greedy_stops_at_eos_without_an_early_stop(self):
        for seed in range(6):
            hyp = beam_search([4, 5, 6], tiny_model(seed=seed), 1, 12)
            assert hyp.steps == len(hyp.ids)
            assert not hyp.stopped_early

    def test_a_tie_between_completions_keeps_the_earlier(self):
        # The logits are the output bias alone: token 4 has probability
        # exactly 1.0 (log 0.0) and EOS about e^-40, so every completion,
        # [EOS], [4, EOS], [4, 4, EOS] ..., scores exactly log p(EOS)
        m = tiny_model(seed=4)
        m.table["out.logits.W"].data[:] = 0.0
        bias = m.table["out.logits.b"].data
        bias[:] = -60.0
        bias[0, 4], bias[0, EOS] = 0.0, -40.0
        hyp = beam_search([4, 5, 6], m, 2, 6)
        with full_length_beam():
            ref = beam_search([4, 5, 6], m, 2, 6)
        assert hyp.ids == ref.ids == [EOS]
        assert hyp.logp == ref.logp == float(np.log(np.exp(-40.0)))
        assert hyp.completed and hyp.steps == 6


class TestDecoderStepCount:
    """The bench's decoder_steps_per_sent is decode_step calls over members:
    one search step calls every member's decode_step once."""

    @pytest.mark.parametrize("members", [1, 2, 3])
    def test_calls_are_members_times_steps(self, monkeypatch, members):
        calls, real_step = [0], seq2seq.decode_step

        def counting_step(*args, **kwargs):
            calls[0] += 1
            return real_step(*args, **kwargs)

        monkeypatch.setattr(seq2seq, "decode_step", counting_step)
        early = {1: set(), 5: set()}
        for seed in range(4):
            models = [sharpen(tiny_model(seed=seed + k), 15.0, eos_bias=seed % 2)
                      for k in range(members)]
            for source in ([4, 5, 6], [7, 8], [9, 10, 11, 12, 4], [6]):
                for beam in (1, 5):
                    before = calls[0]
                    if members == 1:
                        hyp = beam_search(source, models[0], beam, 6)
                    else:
                        hyp = ensemble_decode(models, [source] * members, beam, 6)
                    assert calls[0] - before == members * hyp.steps
                    early[beam].add(hyp.stopped_early)
        assert early == {1: {False}, 5: {False, True}}


class TestOneGatherPerTable:
    """A padded batch reads each embedding table with one gather, not one
    per source position or target step."""

    @pytest.mark.parametrize("mode", ["none", "tree-rnn", "sawr"])
    def test_sequence_loss_gathers_each_table_once(self, mode):
        kw, extra = {}, {}
        if mode == "tree-rnn":
            extra["trees"] = [DependencyTree([2, 0, 2]), DependencyTree([0, 1])]
        if mode == "sawr":
            kw["parser"] = ParserModel({"<unk>": 0, "a": 1}, ["x"], embed_dim=3,
                                       hidden_dim=2, mlp_dim=2, layers=2)
            kw["parser_trainable"] = True
            extra["src_tokens"] = [["a", "a", "b"], ["b", "a"]]
        m = tiny_model(mode=mode, **kw)
        batch = Batch([[4, 5, 6], [7, 4]], [[5, 6, 7, 3], [8, 3]], **extra)
        assert batch.src_lens.min() < batch.src.shape[1]
        assert batch.tgt_lens.min() < batch.tgt.shape[1]
        names = ["src_emb", "tgt_emb"] + (["parser.emb"] if mode == "sawr" else [])
        with T.Tape() as tape:
            sequence_loss(batch, m)
            counts = [records_on(tape, m.table[name]) for name in names]
        assert counts == [1] * len(names)


def syntax_mode_pair(mode, seed=1, dropout=0.0):
    """A model in mode (sawr: a live, tuned parser) and a batch padded on
    both sides that carries what the mode reads."""
    kw, extra = {}, {}
    if mode == "tree-rnn":
        extra["trees"] = [DependencyTree([2, 0, 2]), DependencyTree([0, 1])]
    if mode == "sawr":
        kw["parser"] = ParserModel({"<unk>": 0, "a": 1}, ["x"], embed_dim=3,
                                   hidden_dim=2, mlp_dim=2, layers=2, seed=seed)
        kw["parser_trainable"] = True
        extra["src_tokens"] = [["a", "a", "b"], ["b", "a"]]
    m = tiny_model(mode=mode, seed=seed, dropout=dropout, **kw)
    batch = Batch([[4, 5, 6], [7, 4]], [[5, 6, 7, 3], [8, 3]], **extra)
    assert batch.src_lens.min() < batch.src.shape[1]
    assert batch.tgt_lens.min() < batch.tgt.shape[1]
    return m, batch


class TestOutputNetworkOncePerBatch:
    """sequence_loss runs only the recurrence per target step and the output
    network once over the [m*B, ·] stack of states and contexts."""

    @pytest.mark.parametrize("tgt_len", [2, 6])
    def test_output_weights_are_read_once(self, tgt_len):
        m = tiny_model(seed=3)
        tgt = [4 + j % 5 for j in range(tgt_len - 1)] + [EOS]
        batch = Batch([[4, 5, 6], [7, 4]], [tgt, tgt[1:]])
        names = ["out.logits.W", "out.hidden.W"]
        with T.Tape() as tape:
            sequence_loss(batch, m)
            counts = [records_on(tape, m.table[name]) for name in names]
        assert counts == [1, 1]

    @pytest.mark.parametrize("loss_mode", ["eval", "train"])
    @pytest.mark.parametrize("mode", ["none", "tree-rnn", "sawr"])
    def test_matches_the_per_step_output_network(self, mode, loss_mode):
        # in train mode the two models of one seed draw the same dropout masks
        results = []
        for loss_fn in (sequence_loss, per_step_sequence_loss):
            m, batch = syntax_mode_pair(mode, seed=5, dropout=0.5)
            with T.Tape():
                loss = loss_fn(batch, m, mode=loss_mode)
                T.backward(loss)
            results.append((loss.item(), m.table.gradients()))
        (loss, grads), (want, want_grads) = results
        assert abs(loss - want) <= 1e-12 * abs(want)
        assert sorted(grads) == sorted(want_grads)
        for name, g in grads.items():
            ref = dense_grad(want_grads[name])
            assert np.abs(dense_grad(g) - ref).max() <= 1e-12 * np.abs(ref).max(), name


class TestTapeMemory:
    """A record keeps node ids and leaves, so an op's arrays live while its
    backward needs them, not until the sweep."""

    @pytest.mark.parametrize("mode", ["none", "sawr"])
    def test_arrays_no_backward_reads_die_before_the_sweep(self, monkeypatch, mode):
        # sawr: a live, tuned two-layer parser under the translator. No
        # record holds a reshape, concat, matmul or slice_axis output; slice
        # reads are views that only a reader's backward may keep, and the
        # product that feeds a bias add (nn.linear) is read by no backward.
        # All of it is freed by reference counting alone, and the leaf
        # gradients keep their bits.
        m, batch = syntax_mode_pair(mode, seed=7)
        seen = watch_outputs(monkeypatch, "matmul", "reshape", "concat", "slice_axis")
        feeds_bias, add = [], T.add

        def watched_add(a, b):
            if b.requires_grad and b.tape is None and b.shape[0] == 1:  # a trainable bias row
                feeds_bias.append((weakref.ref(a), weakref.ref(a.data)))
            return add(a, b)

        monkeypatch.setattr(T, "add", watched_add)
        gc.disable()
        try:
            with T.Tape():
                loss = sequence_loss(batch, m)
                assert len(feeds_bias) == (4 if mode == "sawr" else 3)
                assert all(t() is None and a() is None for t, a in feeds_bias)
                for name, refs in seen.items():
                    assert all(t() is None for t, _ in refs), name
                # live: one slice of h, the input that init_state's product
                # reads, and the two row blocks of dec.W whose products
                # (e W[:emb] once per batch, c W[emb:] per step) read them in
                # backward, both views of the parameter; the per-step reads
                # of e W[:emb] (and the parser's) are gone
                slices = seen["slice_axis"]
                assert len(slices) > batch.tgt.shape[1]
                live = [a() for _, a in slices if a() is not None]
                views = [a for a in live if a.base is m.table["dec.W"].data]
                assert len(views) == 2 and len(live) == 3
                reference = dense_backward(loss)
                T.backward(loss)
        finally:
            gc.enable()
        grads = m.table.gradients()
        assert len(grads) == len(reference)
        for name, g in grads.items():
            assert dense_grad(g).tobytes() == reference[id(m.table[name])].tobytes(), name

    def test_constant_leaves_get_no_gradient(self, monkeypatch):
        # sawr with cached rows and dropout: the dropout masks, the zero
        # first context and encoder state, the cached parser rows, the
        # padding bias and the target mask are constants, and no backward
        # computes an array for one; the gradients keep their bits
        rng = np.random.default_rng(3)
        lens = [5, 3, 4]
        m = tiny_model(mode="sawr", seed=3, dropout=0.2, sawr_dim=4, sawr_in_dim=6)
        batch = Batch([list(rng.integers(4, 13, n)) for n in lens],
                      [list(rng.integers(4, 9, n - 1)) + [EOS] for n in lens],
                      encodings=[rng.normal(size=(n, 6)) for n in lens])
        constants, given = [], []
        pass_on = T._pass_on

        def spy(grads, inputs, input_grads):
            for spec, ig in zip(inputs, input_grads):
                if type(spec) is not tuple and not spec.requires_grad:
                    constants.append(spec.shape)
                    given.append(ig)
            return pass_on(grads, inputs, input_grads)

        monkeypatch.setattr(T, "_pass_on", spy)
        with T.Tape():
            loss = sequence_loss(batch, m)
            reference = dense_backward(loss)
            T.backward(loss)
        # padding bias, zero encoder states, zero context, target mask,
        # cached rows and dropout mask (5 target steps, 3 sentences)
        assert sorted(set(constants)) == [(3, 1, 5), (3, 4), (3, 8), (15, 1), (15, 6), (15, 8)]
        assert all(ig is None for ig in given)
        for name, g in m.table.gradients().items():
            assert dense_grad(g).tobytes() == reference[id(m.table[name])].tobytes(), name

    def test_live_bytes_at_backward_start_stay_bounded(self):
        # eight padded sentences through a three-layer BiLSTM parser that the
        # translator tunes: what is traced as live when backward starts, net
        # of the parameters made before tracing began: 2,917,137 bytes when
        # each op's arrays live only while its backward reads them, bounded
        # here with 10% to spare.
        rng = np.random.default_rng(7)
        words = [f"w{i}" for i in range(24)]
        parser = ParserModel({"<unk>": 0, **{w: i + 1 for i, w in enumerate(words)}},
                             ["dep", "root"], embed_dim=16, hidden_dim=32, mlp_dim=16, layers=3,
                             seed=3)
        m = TranslationModel(40, 40, emb_dim=16, hidden_dim=32, dropout=0.0, mode="sawr",
                             sawr_dim=8, parser=parser, parser_trainable=True, seed=4)
        lens = [14, 12, 10, 14, 9, 13, 11, 14]
        batch = Batch([list(rng.integers(4, 40, n)) for n in lens],
                      [list(rng.integers(4, 40, n - 1)) + [EOS] for n in lens],
                      src_tokens=[[words[k] for k in rng.integers(0, 24, n)] for n in lens])
        tracemalloc.start()
        try:
            with T.Tape():
                loss = sequence_loss(batch, m)
                live = tracemalloc.get_traced_memory()[0]
                T.backward(loss)
        finally:
            tracemalloc.stop()
        assert live <= 1.1 * 2_917_137, live
        assert m.table["parser.enc.l0.fwd.W"].grad is not None


class TestSyntaxModeBatches:
    def test_sawr_without_inputs_raises(self):
        from synmt.errors import StateError
        m = tiny_model(mode="sawr", sawr_in_dim=4, sawr_dim=3)
        with pytest.raises(StateError, match="sawr"):
            sequence_loss(make_batch(PAIRS), m, mode="eval")

    def test_tree_mode_without_trees_raises(self):
        from synmt.errors import StateError
        m = tiny_model(mode="tree-rnn")
        with pytest.raises(StateError, match="tree"):
            sequence_loss(make_batch(PAIRS), m, mode="eval")

    def test_cached_encoding_shape_checked(self):
        m = tiny_model(mode="sawr", sawr_in_dim=4, sawr_dim=3)
        batch = Batch([[4, 5]], [[6, 3]], encodings=[np.zeros((2, 5))])
        with pytest.raises(ShapeError):
            sequence_loss(batch, m, mode="eval")


class TestCheckpointRoundTrip:
    def test_translation_quality_survives_save_load(self, tmp_path):
        m = tiny_model(seed=13)
        opt = nn.Adam(m.table, lr=0.01, clip=5.0)
        batch = make_batch(PAIRS)
        for _ in range(5):
            train_step(batch, m, opt)
        before = beam_search([4, 5, 6], m, 4, 10)
        path = str(tmp_path / "model.ckpt")
        m.save(path)
        m2 = TranslationModel.load(path)
        after = beam_search([4, 5, 6], m2, 4, 10)
        assert before.ids == after.ids
        assert before.logp == after.logp
        assert m2.mode == "none" and m2.hidden_dim == 8

    @pytest.mark.parametrize("kind", ["baseline", "sawr", "parser"])
    def test_load_draws_nothing_and_takes_the_saved_bits(self, tmp_path, monkeypatch, kind):
        parser = ParserModel({"<unk>": 0, "a": 1, "b": 2}, ["dep", "root"], embed_dim=4,
                             hidden_dim=3, mlp_dim=3, layers=2, seed=5)
        if kind == "parser":
            saved, cls = parser, ParserModel
        else:
            saved, cls = tiny_model(seed=6, mode="none" if kind == "baseline" else "sawr",
                                    sawr_dim=5, parser=parser if kind == "sawr" else None,
                                    parser_trainable=True), TranslationModel
        path = tmp_path / "model.ckpt"
        saved.save(path)

        def no_draws(*args, **kw):
            raise AssertionError("a load drew parameters")

        monkeypatch.setattr(nn, "uniform_init", no_draws)
        loaded = cls.load(path)
        assert loaded.table.names() == saved.table.names()
        for name, t in saved.table.items():
            assert loaded.table[name].data.tobytes() == t.data.tobytes(), name

    def test_loading_a_wide_model_holds_the_file_and_one_copy(self, tmp_path):
        # the bench's train-wide shapes, 7.88M parameters: the file's bytes
        # and the arrays copied out of them, then the arrays alone plus the
        # model's undrawn ones, which the loaded arrays replace
        path = tmp_path / "wide.ckpt"
        model = TranslationModel(4096, 4096, emb_dim=256, hidden_dim=512, dropout=0.0)
        model.save(path)
        param_bytes = sum(t.data.nbytes for _, t in model.table.items())
        del model
        tracemalloc.start()
        try:
            TranslationModel.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.05 * param_bytes, peak / param_bytes

    @pytest.mark.parametrize("mode, entries", [("none", 19), ("tree-rnn", 26)])
    def test_checkpoint_holds_one_w_u_and_b_per_cell(self, tmp_path, mode, entries):
        path = tmp_path / "model.ckpt"
        tiny_model(mode=mode).save(path)
        names = list(load_checkpoint(path))
        assert len(names) == entries  # __meta__ included
        cells = ["enc.fwd", "enc.bwd", "dec"] + (["tree.up", "tree.down"] if mode != "none"
                                                  else [])
        for cell in cells:
            assert [n for n in names if n.startswith(cell + ".")] == [
                f"{cell}.W", f"{cell}.U", f"{cell}.b"]

    @pytest.mark.parametrize("meta", BAD_METAS)
    def test_bad_metadata_is_a_data_error(self, tmp_path, meta):
        path = tmp_path / "model.ckpt"
        tiny_model().save(path)
        rewrite_meta(path, meta)
        with pytest.raises(DataError, match="__meta__"):
            TranslationModel.load(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda state: state.update(bogus=np.zeros(2)), "unknown entry 'bogus'"),
        (lambda state: state.pop("att.W"), "no entry for parameter 'att.W'"),
        (lambda state: state.update({"att.W": np.zeros((8, 7))}), "parameter 'att.W' has shape"),
        (per_gate_layout, "no entry for parameter 'enc.fwd.W'"),
    ])
    def test_entries_must_match_the_model(self, tmp_path, edit, message):
        path = tmp_path / "model.ckpt"
        tiny_model().save(path)
        edit_entries(path, edit)
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            TranslationModel.load(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: meta.pop("mode"), "__meta__ lacks 'mode'"),
        (lambda meta: meta.update(emb_dim="6"), "invalid __meta__"),
        (lambda meta: meta.update(mode="bogus"), "invalid __meta__"),
        (lambda meta: meta.update(dropout=None), "invalid __meta__"),
        (lambda meta: meta.update(parser=[]), "invalid __meta__"),
    ])
    def test_bad_metadata_field_is_a_data_error(self, tmp_path, edit, message):
        path = tmp_path / "model.ckpt"
        tiny_model().save(path)
        edit_meta(path, edit)
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            TranslationModel.load(path)
