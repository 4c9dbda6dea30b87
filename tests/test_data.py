"""Vocabulary, BPE, batching, and tree linearization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synmt import tensor as T
from synmt.config import read_config, validate_config
from synmt.checkpoint import load_checkpoint, pop_meta
from synmt.data import (BOS, EOS, PAD, UNK, Vocabulary, apply_bpe, build_vocab,
                        decode_bpe, delinearize_tree, filter_and_batch, learn_bpe,
                        linearize_tree, read_corpus)
from synmt.depparse import DependencyTree, read_treebank
from synmt.errors import ConfigError, DataError
from synmt.seq2seq import TranslationModel

from helpers import edit_meta, random_projective_tree


class TestVocabulary:
    def test_reserved_ids(self):
        v = build_vocab([["a"]], max_size=10)
        assert (PAD, UNK, BOS, EOS) == (0, 1, 2, 3)
        assert v.token(0) == "<pad>" and v.token(3) == "</s>"
        assert v.id("a") == 4

    def test_frequency_cutoff_hand_case(self):
        corpus = [["a", "b", "a", "c"], ["b", "a"]]  # a:3 b:2 c:1
        v = build_vocab(corpus, max_size=6)
        assert "a" in v and "b" in v and "c" not in v
        assert v.id("c") == UNK

    def test_huge_max_size_keeps_all(self):
        corpus = [["a", "b"], ["c"]]
        v = build_vocab(corpus, max_size=10_000)
        assert len(v) == 7  # 4 reserved + 3

    def test_tie_broken_by_first_occurrence(self):
        v = build_vocab([["b", "a", "b", "a"]], max_size=5)  # both x2, b first
        assert "b" in v and "a" not in v

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            build_vocab([], max_size=10)

    def test_max_size_too_small(self):
        with pytest.raises(ValueError):
            build_vocab([["a"]], max_size=4)

    def test_ids_stable_across_model_save_load(self, tmp_path):
        v = build_vocab([["the", "cat", "sat", "the"]], max_size=100)
        t = build_vocab([["le", "chat"]], max_size=100)
        p = tmp_path / "model.ckpt"
        TranslationModel(len(v), len(t), emb_dim=2, hidden_dim=2, vocabs=(v, t)).save(p)
        w, u = TranslationModel.load(p).vocabs
        for tok in ["the", "cat", "sat", "<pad>", "unknown-token"]:
            assert v.id(tok) == w.id(tok)
        assert u.tokens(range(len(u))) == ["le", "chat"]
        # stored format: each vocabulary's tokens in id order, from id 4 on
        src_tokens = pop_meta(load_checkpoint(p), p)["vocabs"][0]
        assert [v.id(tok) for tok in src_tokens] == list(range(4, len(v)))

    @pytest.mark.parametrize("tokens", [["a", "", "b"], ["a", 5], ["a", None]])
    def test_a_token_must_be_a_non_empty_string(self, tokens):
        # an empty token would take an id no text can ever map to
        with pytest.raises(ValueError, match="not a non-empty string"):
            Vocabulary(tokens)

    def test_round_trip_ids_tokens(self):
        v = build_vocab([["x", "y", "z"]], max_size=100)
        assert v.tokens(v.ids(["x", "z", "y"])) == ["x", "z", "y"]


class TestLearnBpe:
    def test_hand_trace(self):
        model = learn_bpe({"low": 5, "lower": 2}, 2)
        assert model.merges == [("l", "o"), ("lo", "w")]

    def test_zero_merges(self):
        assert learn_bpe({"abc": 3}, 0).merges == []

    def test_single_char_word(self):
        assert learn_bpe({"a": 100}, 5).merges == []

    def test_stops_below_two_occurrences(self):
        model = learn_bpe({"ab": 1}, 10)  # the only pair occurs once
        assert model.merges == []

    def test_ties_lexicographic(self):
        # "ab" and "ba" pairs both occur twice inside "abab"; (a,b) sorts first
        model = learn_bpe({"abab": 2}, 1)
        assert model.merges == [("a", "b")]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            learn_bpe({"a": 1}, -1)


class TestApplyBpe:
    @pytest.fixture
    def model(self):
        return learn_bpe({"low": 5, "lower": 2}, 2)

    def test_hand_segmentation(self, model):
        assert apply_bpe(["low"], model) == ["low"]
        assert apply_bpe(["lower"], model) == ["low@@", "e@@", "r"]

    def test_unknown_chars_pass_through(self, model):
        assert apply_bpe(["xyz"], model) == ["x@@", "y@@", "z"]

    def test_empty_sentence(self, model):
        assert apply_bpe([], model) == []
        assert decode_bpe([]) == []

    def test_round_trip_random(self):
        rng = T.make_rng(10)
        alphabet = list("abcdef")
        words = ["".join(rng.choice(alphabet, size=rng.integers(1, 9)))
                 for _ in range(300)]
        freqs = {}
        for w in words:
            freqs[w] = freqs.get(w, 0) + 1
        model = learn_bpe(freqs, 30)
        assert len(model.merges) > 0
        for _ in range(200):
            sent = [str(w) for w in rng.choice(words, size=rng.integers(1, 12))]
            sent.append("unseen" + str(rng.integers(10)))  # includes novel chars
            assert decode_bpe(apply_bpe(sent, model)) == sent

    def test_deterministic(self, model):
        sent = ["lower", "low", "owl"]
        assert apply_bpe(sent, model) == apply_bpe(sent, model)


class TestFilterAndBatch:
    def pairs(self, count, rng, max_len=12):
        out = []
        for _ in range(count):
            ns, nt = int(rng.integers(1, max_len)), int(rng.integers(1, max_len))
            out.append((list(rng.integers(4, 50, size=ns)), list(rng.integers(4, 50, size=nt))))
        return out

    def test_batch_sizes_hand_case(self):
        pairs = self.pairs(170, T.make_rng(11))
        batches = filter_and_batch(pairs, 100, 100, 80, seed=1)
        assert sorted(b.size for b in batches) == [10, 80, 80]

    def test_over_length_dropped_not_truncated(self):
        pairs = [([1] * 51, [2] * 3), ([1] * 50, [2] * 3), ([1] * 2, [2] * 151)]
        batches = filter_and_batch(pairs, 50, 150, 8, seed=1)
        assert sum(b.size for b in batches) == 1
        assert batches[0].src.shape == (1, 50)

    def test_no_limits_drops_nothing(self):
        pairs = self.pairs(37, T.make_rng(12))
        batches = filter_and_batch(pairs, 10**9, 10**9, 8, seed=1)
        assert sum(b.size for b in batches) == 37

    def test_everything_filtered(self):
        with pytest.raises(DataError):
            filter_and_batch([([1] * 9, [1])], 5, 5, 4, seed=1)

    def test_padding_only_after_true_length(self):
        pairs = self.pairs(23, T.make_rng(13))
        for b in filter_and_batch(pairs, 100, 100, 8, seed=2):
            for i in range(b.size):
                assert np.all(b.src[i, :b.src_lens[i]] != 0)
                assert np.all(b.src[i, b.src_lens[i]:] == PAD)
                assert np.all(b.tgt[i, b.tgt_lens[i]:] == PAD)

    def test_content_preserved(self):
        rng = T.make_rng(14)
        pairs = self.pairs(40, rng)
        batches = filter_and_batch(pairs, 100, 100, 8, seed=3)
        seen = sorted(tuple(b.src[i, :b.src_lens[i]]) for b in batches for i in range(b.size))
        want = sorted(tuple(s) for s, _ in pairs)
        assert seen == want

    def test_similar_lengths_within_batch(self):
        pairs = self.pairs(160, T.make_rng(15), max_len=30)
        batches = filter_and_batch(pairs, 100, 100, 16, seed=4)
        spread = [b.src_lens.max() - b.src_lens.min() for b in batches if b.size == 16]
        # sorting by length keeps full batches tight; random batching would not
        assert np.mean(spread) <= 3.0

    def test_deterministic_by_seed(self):
        pairs = self.pairs(50, T.make_rng(16))
        a = filter_and_batch(pairs, 100, 100, 8, seed=7)
        b = filter_and_batch(pairs, 100, 100, 8, seed=7)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.src, y.src) and np.array_equal(x.tgt, y.tgt)

    def test_trees_stay_aligned(self):
        rng = T.make_rng(17)
        pairs = []
        trees = []
        for _ in range(30):
            n = int(rng.integers(1, 9))
            pairs.append((list(rng.integers(4, 30, size=n)), [4, 5]))
            trees.append(random_projective_tree(n, rng))
        batches = filter_and_batch(pairs, 100, 100, 8, seed=5, trees=trees)
        for b in batches:
            for i in range(b.size):
                assert b.trees[i].n == b.src_lens[i]

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            filter_and_batch([([1], [1])], 5, 5, 0, seed=1)


class TestLinearize:
    def test_single_token(self):
        tree = DependencyTree([0], ["root"])
        assert linearize_tree(["w"], tree) == ["(root", "w", ")"]

    def test_three_token_hand_trace(self):
        # a <- b -> c with b the root
        tree = DependencyTree([2, 0, 2], ["dep_a", "root", "dep_c"])
        symbols = linearize_tree(["a", "b", "c"], tree)
        assert symbols == ["(root", "(dep_a", "a", ")", "b", "(dep_c", "c", ")", ")"]

    def test_symbol_count_is_3n(self):
        rng = T.make_rng(18)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            tree = random_projective_tree(n, rng)
            assert len(linearize_tree([f"w{i}" for i in range(n)], tree)) == 3 * n

    def test_words_in_surface_order(self):
        rng = T.make_rng(19)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            tokens = [f"w{i}" for i in range(n)]
            symbols = linearize_tree(tokens, random_projective_tree(n, rng))
            words = [s for s in symbols if not s.startswith("(") and s != ")"]
            assert words == tokens

    def test_round_trip(self):
        rng = T.make_rng(20)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            tokens = [f"w{rng.integers(0, 30)}" for _ in range(n)]
            tree = random_projective_tree(n, rng)
            back_tokens, back_tree = delinearize_tree(linearize_tree(tokens, tree))
            assert back_tokens == tokens and back_tree == tree

    @pytest.mark.parametrize("rightward", [True, False])
    def test_a_1200_token_chain_round_trips(self, rightward):
        # one tree level per token, beyond Python's default recursion limit
        n = 1200
        tokens = [f"w{i}" for i in range(n)]
        heads = list(range(n)) if rightward else list(range(2, n + 1)) + [0]
        tree = DependencyTree(heads, ["root" if h == 0 else "dep" for h in heads])
        symbols = linearize_tree(tokens, tree)
        if rightward:
            assert symbols == (["(root", "w0"] + [s for w in tokens[1:] for s in ("(dep", w)]
                               + [")"] * n)
        else:
            assert symbols == (["(root"] + ["(dep"] * (n - 1)
                               + [s for w in tokens for s in (w, ")")])
        assert delinearize_tree(symbols) == (tokens, tree)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            linearize_tree(["a", "b"], DependencyTree([0], ["root"]))

    def test_nonprojective_rejected(self):
        with pytest.raises(ValueError):
            linearize_tree(["a", "b", "c", "d"], DependencyTree([3, 0, 4, 2]))

    @pytest.mark.parametrize("symbols", [
        [")"],
        ["(root", "w"],
        ["(root", ")"],
        ["(root", "w", ")", "(root", "w", ")"],
        ["w"],
        ["(root", "w", "v", ")"],
    ])
    def test_malformed_rejected(self, symbols):
        with pytest.raises(DataError):
            delinearize_tree(symbols)


class TestReadCorpus:
    def test_reads_lines(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("a b c\nd e\n", encoding="utf-8")
        assert read_corpus(p) == [["a", "b", "c"], ["d", "e"]]


# One valid document per text reader, the reader (the config's validation
# included, as the command line runs it) and the one error it may raise.
TEXT_READERS = {
    "read_treebank": ("1\ta\t2\tdet\n2\tb\t0\troot\n\n# note\n"
                      "1\tc\t_\t_\t_\t_\t0\troot\t_\t_\n", read_treebank, DataError),
    "read_config": ("# run\nbeam_size = 3\nlearning_rate = 0.01\nmode = tree-rnn\n"
                    "length_edges = 5, 10\ncase_sensitive = yes\n",
                    lambda path: validate_config(read_config(path)), ConfigError),
}
# bytes that steer the readers: separators, digits, signs, comment and
# assignment marks, and the start of a multi-byte or invalid UTF-8 sequence
STEERING = list(b"\t \n\r#=,-_.019eE") + [0x00, 0xc3, 0xe2, 0xff]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("text-fuzz")


class TestTextReadersOnAnyInput:
    """Any file either reads or raises the reader's one error (DataError,
    ConfigError for the config): an edited valid document, or bytes at random."""

    @settings(max_examples=400, deadline=None)
    @given(reader=st.sampled_from(sorted(TEXT_READERS)), data=st.data())
    def test_reads_or_raises_its_error(self, fuzz_dir, reader, data):
        valid, read, error = TEXT_READERS[reader]
        byte = st.one_of(st.sampled_from(STEERING), st.integers(0, 255))
        if data.draw(st.booleans(), label="edit a valid document"):
            blob = bytearray(valid.encode("utf-8"))
            edits = data.draw(st.lists(st.tuples(st.sampled_from(["insert", "delete", "set"]),
                                                 st.integers(0, len(blob)), byte),
                                       min_size=1, max_size=6), label="edits")
            for kind, at, value in edits:
                at = min(at, len(blob) - 1) if kind != "insert" else at
                if kind == "insert":
                    blob.insert(at, value)
                elif blob and kind == "delete":
                    del blob[at]
                elif blob:
                    blob[at] = value
        else:
            blob = bytes(data.draw(st.lists(byte, max_size=60), label="bytes"))
        path = fuzz_dir / f"{reader}.txt"
        path.write_bytes(bytes(blob))
        try:
            read(path)
        except error:
            pass


# Any JSON value, and token lists near the valid ones: known tokens, reserved
# and empty ones, and JSON values that are no token at all.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=10)
TOKEN = st.sampled_from(["x", "y", "z", "<unk>", "</s>", ""]) | JSON
VOCAB_FIELD = JSON | st.lists(st.lists(TOKEN, max_size=4), max_size=3)


@pytest.fixture(scope="module")
def model_blob(tmp_path_factory):
    """A translation checkpoint of 2 source and 3 target tokens, as bytes."""
    path = tmp_path_factory.mktemp("vocab-meta") / "model.ckpt"
    vocabs = (Vocabulary(["x", "y"]), Vocabulary(["x", "y", "z"]))
    TranslationModel(6, 7, emb_dim=2, hidden_dim=2, vocabs=vocabs).save(path)
    return path.read_bytes()


class TestVocabulariesInMetaOnAnyValue:
    """A checkpoint's stored vocabularies either load, as exactly the token
    lists stored, or raise DataError naming the checkpoint."""

    @settings(max_examples=300, deadline=None)
    @given(value=VOCAB_FIELD)
    def test_loads_or_raises_a_data_error(self, fuzz_dir, model_blob, value):
        path = fuzz_dir / "model.ckpt"
        path.write_bytes(model_blob)
        edit_meta(path, lambda meta: meta.update(vocabs=value))
        try:
            vocabs = TranslationModel.load(path).vocabs
        except DataError as exc:
            assert str(exc).startswith(f"{path}: ")
            return
        if value is None:
            assert vocabs is None
        else:
            assert [v.tokens(range(len(v))) for v in vocabs] == value
