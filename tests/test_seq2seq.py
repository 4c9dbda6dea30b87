"""Translator: encoding, attention, decoder steps, training, beam search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synmt import nn
from synmt import tensor as T
from synmt.data import BOS, EOS, Batch, filter_and_batch
from synmt.errors import DataError, ShapeError
from synmt.evaluate import ensemble_decode
from synmt.seq2seq import (Hypothesis, TranslationModel, attend, beam_search,
                           decode_step, encode_for_decode, encode_source,
                           greedy_decode, sequence_loss, train_step)

from helpers import enumerate_best  # shared with the acceptance suite
from helpers import BAD_METAS, full_length_beam, rewrite_meta


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
        xs = [T.constant(np.ones((2, 6))) for _ in range(5)]
        h1 = encode_source(xs, m)
        h2 = encode_source(xs, m)
        assert len(h1) == 5
        for a, b in zip(h1, h2):
            assert a.shape == (2, 8)
            assert np.array_equal(a.data, b.data)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            encode_source([], tiny_model())

    def test_state_is_forward_backward_concat(self):
        # each half must equal a manual unidirectional pass over the inputs
        m = tiny_model()
        rng = T.make_rng(0)
        xs = [T.constant(rng.normal(size=(1, 6))) for _ in range(3)]
        hs = encode_source(xs, m)
        f = m.enc_fwd.zero_state(1)
        for i, x in enumerate(xs):
            f = nn.gru_step(x, f, m.enc_fwd)
            assert np.allclose(hs[i].data[:, :4], f.data)
        b = m.enc_bwd.zero_state(1)
        for i in reversed(range(3)):
            b = nn.gru_step(xs[i], b, m.enc_bwd)
            assert np.allclose(hs[i].data[:, 4:], b.data)


class TestAttend:
    def test_zero_weight_matrix_gives_uniform_mean(self):
        rng = T.make_rng(3)
        h = T.constant(rng.normal(size=(5, 4)))
        s = T.constant(rng.normal(size=(2, 4)))
        c, a = attend(s, h, T.zeros((4, 4)))
        assert np.allclose(a.data, 0.2)
        assert np.allclose(c.data, np.tile(h.data.mean(axis=0), (2, 1)))

    def test_single_state_gets_all_weight(self):
        h = T.constant([[1.0, 2.0, 3.0]])
        s = T.constant([[0.5, 0.5, 0.5]])
        c, a = attend(s, h, T.constant(np.eye(3)))
        assert np.allclose(a.data, [[1.0]])
        assert np.allclose(c.data, h.data)

    def test_hand_case_quarter_three_quarters(self):
        # scores [ln 1, ln 3] --> softmax [0.25, 0.75]
        h = T.constant([[0.0, 2.0], [np.log(3.0), -1.0]])
        s = T.constant([[1.0, 0.0]])
        c, a = attend(s, h, T.constant(np.eye(2)))
        assert np.allclose(a.data, [[0.25, 0.75]])
        assert np.allclose(c.data, 0.25 * h.data[0] + 0.75 * h.data[1])

    def test_rows_are_distributions(self):
        rng = T.make_rng(11)
        for _ in range(10):
            k, n, d = rng.integers(1, 5), rng.integers(1, 7), rng.integers(1, 6)
            h = T.constant(rng.normal(size=(n, d)))
            s = T.constant(rng.normal(size=(k, d)))
            _, a = attend(s, h, T.constant(rng.normal(size=(d, d))))
            assert np.allclose(a.data.sum(axis=1), 1.0, atol=1e-6)
            assert (a.data >= 0).all() and (a.data <= 1).all()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            attend(T.zeros((1, 3)), T.zeros((4, 2)), T.zeros((3, 3)))


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
            return T.scale(T.log(T.pick(dist, [7])), -1.0)

        for name in ("att.W", "tgt_emb", "dec.cand.W", "out.hidden.W", "out.logits.b"):
            assert T.grad_check(loss, m.table[name]) < 1e-4, name


class TestTrainStep:
    def test_initial_loss_near_uniform_entropy(self):
        vocab = 50
        m = tiny_model(tgt=vocab, dropout=0.5, seed=9)
        batch = make_batch([([4, 5, 6], [10, 20, 30, 3]), ([5, 6], [12, 3])])
        opt = nn.Adam(m.table, lr=5e-4, clip=5.0)
        nll = train_step(batch, m, opt)
        assert abs(nll - np.log(vocab)) < 0.1 * np.log(vocab)

    def test_loss_strictly_decreases_on_repeated_batch(self):
        m = tiny_model(seed=2)
        batch = make_batch(PAIRS)
        opt = nn.Adam(m.table, lr=0.01, clip=5.0)
        losses = [train_step(batch, m, opt) for _ in range(20)]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_pad_appended_to_references_leaves_loss_unchanged(self):
        m1 = tiny_model(seed=4)
        a = train_step(make_batch(PAIRS), m1, nn.Adam(m1.table, lr=1e-3))
        padded = make_batch(PAIRS)
        padded.tgt = np.concatenate(
            [padded.tgt, np.zeros((padded.size, 2), dtype=np.int64)], axis=1)
        m2 = tiny_model(seed=4)
        b = train_step(padded, m2, nn.Adam(m2.table, lr=1e-3))
        assert a == b

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

        for name in ("src_emb", "tgt_emb", "enc.fwd.update.W", "enc.bwd.cand.U",
                     "att.W", "dec.reset.W", "init.W", "out.hidden.b", "out.logits.W"):
            assert T.grad_check(loss, m.table[name]) < 1e-4, name




class TestBeamSearch:
    def test_input_validation(self):
        m = tiny_model()
        with pytest.raises(ValueError):
            beam_search([], m, 5, 10)
        with pytest.raises(ValueError):
            beam_search([4, 5], m, 0, 10)
        with pytest.raises(ValueError):
            beam_search([4, 5], m, 5, 0)

    def test_beam_one_equals_greedy(self):
        for seed in range(6):
            m = tiny_model(seed=seed)
            g = greedy_decode([4, 5, 6], m, 12)
            b = beam_search([4, 5, 6], m, 1, 12)
            assert g.ids == b.ids
            assert g.logp == b.logp

    def test_greedy_follows_argmax_chain(self):
        m = tiny_model(seed=3)
        h, s = encode_for_decode(m, [4, 5, 6])
        c = T.zeros((1, 8))
        expected, y = [], BOS
        for _ in range(12):
            dist, s, c, _ = decode_step(y, c, s, h, m)
            y = int(np.argmax(dist.data[0]))
            expected.append(y)
            if y == EOS:
                break
        assert greedy_decode([4, 5, 6], m, 12).ids == expected

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
        m = tiny_model(seed=10)
        hyp = beam_search([4, 5, 6], m, 4, 10)
        assert abs(hyp.logp - sum(hyp.step_logps)) < 1e-12
        assert len(hyp.alphas) == len(hyp.ids) == len(hyp.step_logps)
        for row in hyp.alphas:
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

    def test_state_snapshot_shapes(self):
        m = tiny_model(seed=12)
        hyp = beam_search([4, 5, 6], m, 3, 8)
        assert hyp.state.shape == (8,)
        assert hyp.context.shape == (8,)


def _arrays_equal(a, b):
    if isinstance(a, list):
        return len(a) == len(b) and all(map(np.array_equal, a, b))
    return np.array_equal(a, b)


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
        models = [tiny_model(seed=seed + k, tgt=tgt) for k in range(members)]
        for m in models:
            for _, param in m.table.items():
                param.data *= gain
            m.table["out.logits.b"].data[0, EOS] += eos_bias

        def search():
            if members == 1:
                return beam_search([4, 5, 6], models[0], beam, max_len)
            return ensemble_decode(models, [4, 5, 6], beam, max_len)

        hyp = search()
        with full_length_beam():
            ref = search()
        assert hyp.ids == ref.ids
        assert hyp.logp == ref.logp
        assert hyp.completed == ref.completed
        assert hyp.step_logps == ref.step_logps
        assert all(lp <= 0.0 for lp in hyp.step_logps)
        assert len(hyp.alphas) == len(ref.alphas)
        assert all(map(np.array_equal, hyp.alphas, ref.alphas))
        assert _arrays_equal(hyp.state, ref.state)
        assert _arrays_equal(hyp.context, ref.context)
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

    @pytest.mark.parametrize("meta", BAD_METAS)
    def test_bad_metadata_is_a_data_error(self, tmp_path, meta):
        path = tmp_path / "model.ckpt"
        tiny_model().save(path)
        rewrite_meta(path, meta)
        with pytest.raises(DataError, match="__meta__"):
            TranslationModel.load(path)
