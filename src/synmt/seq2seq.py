"""Attentional GRU encoder-decoder translator.

The source side is pluggable: plain embeddings, embeddings concatenated with
projected parser encodings (sawr), Tree-GRU outputs (tree-rnn), or bracketed
tree symbol sequences through the unmodified pipeline (tree-linearized).

Decoding convention: the decoder consumes e(y_prev) and the previous context
vector through one input product, e W[:emb] + c W[emb:], its new state
queries attention, and the output network sees [state, fresh context]. The
first step feeds BOS with a zero context from a learned transform of the
final backward encoder state. Training forms e W[:emb] for every target step
in one product, as the encoder forms its x W.

Training and decoding share one attention over a [B, n, H] memory of encoder
states, one [n, H] slab per source, and its keys (h W^aᵀ)ᵀ, formed once per
batch or source. Its queries are [B*Q, H] rows grouped by source, rows
b*Q .. b*Q+Q-1 against slab b: training has Q=1 over a padded batch (padding
gets a -1e9 score bias), decoding B=1 and Q=beam rows.
"""

import numpy as np

from . import nn
from . import syntax
from . import tensor as T
from .checkpoint import load_checkpoint, meta_errors, pack_meta, pop_meta, save_checkpoint
from .data import BOS, EOS, Vocabulary
from .errors import ShapeError, StateError

MODES = ("none", "sawr", "tree-rnn", "tree-linearized")
INIT_SCALE = 0.1


class TranslationModel:
    """Single-layer bidirectional GRU encoder + attentional GRU decoder.

    hidden_dim is the full encoder output size; each encoder direction gets
    half of it so the concatenated state lands back on hidden_dim. The
    decoder state, attention space and output hidden layer share hidden_dim.
    Parameters are drawn from U[-0.1, 0.1) off seed, or made by init(shape)
    when init is given (load passes np.empty and then sets every value).
    vocabs, when given, is the (source, target) Vocabulary pair the model
    reads and writes ids of; save stores it with the parameters.
    """

    def __init__(self, src_vocab_size, tgt_vocab_size, *, mode="none",
                 emb_dim=512, hidden_dim=1024, sawr_dim=512, sawr_in_dim=None,
                 tree_hidden=None, dropout=0.5, parser=None,
                 parser_trainable=False, seed=1, init=None, vocabs=None):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
        optional = {"sawr_in_dim": sawr_in_dim, "tree_hidden": tree_hidden}
        nn.check_dims(src_vocab_size=src_vocab_size, tgt_vocab_size=tgt_vocab_size,
                      emb_dim=emb_dim, hidden_dim=hidden_dim, sawr_dim=sawr_dim,
                      **{k: v for k, v in optional.items() if v is not None})
        if hidden_dim % 2:
            raise ValueError("hidden_dim must be even (it splits into fwd/bwd halves)")
        if tgt_vocab_size <= EOS:
            raise ValueError("target vocabulary must include the reserved ids")
        if not 0.0 <= dropout < 1.0:
            raise ValueError(f"dropout ratio {dropout} outside [0, 1)")
        if vocabs is not None and [len(v) for v in vocabs] != [src_vocab_size,
                                                               tgt_vocab_size]:
            raise ValueError(f"vocabularies of {[len(v) for v in vocabs]} ids for "
                             f"tables of {[src_vocab_size, tgt_vocab_size]} rows")
        self.vocabs = vocabs
        self.src_vocab_size = src_vocab_size
        self.tgt_vocab_size = tgt_vocab_size
        self.mode = mode
        self.emb_dim = emb_dim
        self.hidden_dim = hidden_dim
        self.sawr_dim = sawr_dim
        self.dropout = dropout
        self.seed = seed
        self.parser = None
        self.parser_trainable = False

        if init is None:  # else the caller's, such as load's np.empty
            init = nn.uniform_init(T.make_rng(seed), INIT_SCALE)
        t = self.table = nn.ParamTable()
        t.new("src_emb", (src_vocab_size, emb_dim), init)
        t.new("tgt_emb", (tgt_vocab_size, emb_dim), init)

        self.sawr = None
        self.tree = None
        self.tree_hidden = None
        enc_in = emb_dim
        if mode == "sawr":
            if parser is not None:
                sawr_in_dim = parser.out_dim
            if sawr_in_dim is None:
                raise ValueError("sawr mode needs a parser or an explicit sawr_in_dim")
            self.sawr = syntax.SawrProjection(t, "sawr", sawr_in_dim, sawr_dim, init)
            enc_in = emb_dim + sawr_dim
        elif mode == "tree-rnn":
            self.tree_hidden = tree_hidden if tree_hidden else max(emb_dim // 2, 1)
            self.tree = syntax.TreeGruParams(t, "tree", emb_dim, self.tree_hidden, init)
            enc_in = self.tree.out_dim
        self.enc_input_dim = enc_in

        half = hidden_dim // 2
        self.enc_fwd = nn.GruParams(t, "enc.fwd", enc_in, half, init)
        self.enc_bwd = nn.GruParams(t, "enc.bwd", enc_in, half, init)
        t.new("att.W", (hidden_dim, hidden_dim), init)
        self.dec = nn.GruParams(t, "dec", emb_dim + hidden_dim, hidden_dim, init)
        t.new("init.W", (half, hidden_dim), init)
        t.new("init.b", (1, hidden_dim), init)
        t.new("out.hidden.W", (2 * hidden_dim, hidden_dim), init)
        t.new("out.hidden.b", (1, hidden_dim), init)
        t.new("out.logits.W", (hidden_dim, tgt_vocab_size), init)
        t.new("out.logits.b", (1, tgt_vocab_size), init)
        self.drop_rng = T.make_rng(seed + 7919)
        if parser is not None:
            self.attach_parser(parser, trainable=parser_trainable)

    def attach_parser(self, parser, trainable=False):
        """Share the parser's parameters into this model's table under parser.*.

        The tensors are shared objects, so toggling trainability or loading a
        checkpoint through either table affects both views.
        """
        if self.mode != "sawr":
            raise StateError(f"cannot attach a parser in mode {self.mode!r}")
        if parser.out_dim != self.sawr.in_dim:
            raise ShapeError(f"parser encoder emits {parser.out_dim}-dim states, "
                             f"projection expects {self.sawr.in_dim}")
        self.parser = parser
        self.table.attach("parser", parser.table)
        syntax.set_parser_trainable(self, trainable)

    def init_state(self, h):
        """s_0 = tanh(W h_bwd + b) from the final backward encoder state: the
        backward half of position 0 in the memory h [B, n, H]."""
        B, n, H = h.shape
        bwd = T.slice_axis(T.reshape(h, (B, n * H)), 1, H // 2, H)
        return T.tanh(nn.linear(bwd, self.table["init.W"], self.table["init.b"]))

    def dec_input_weights(self):
        """dec.W's rows for e(y_prev) and for the previous context, as views:
        the decoder's input product is e W[:emb] + c W[emb:]."""
        W, E = self.dec.W, self.emb_dim
        return T.slice_axis(W, 0, 0, E), T.slice_axis(W, 0, E, W.shape[0])

    def output_logits(self, s, c, mode="eval"):
        """Two-layer output network: tanh hidden layer over [s, c], then linear."""
        hid = T.tanh(nn.linear(T.concat([s, c], axis=1),
                               self.table["out.hidden.W"], self.table["out.hidden.b"]))
        if mode == "train" and self.dropout > 0.0:
            hid = nn.dropout(hid, self.dropout, self.drop_rng)
        return nn.linear(hid, self.table["out.logits.W"], self.table["out.logits.b"])

    def save(self, path):
        meta = {"src_vocab_size": self.src_vocab_size,
                "tgt_vocab_size": self.tgt_vocab_size,
                "mode": self.mode, "emb_dim": self.emb_dim,
                "hidden_dim": self.hidden_dim, "sawr_dim": self.sawr_dim,
                "sawr_in_dim": self.sawr.in_dim if self.sawr else None,
                "tree_hidden": self.tree_hidden,
                "dropout": self.dropout, "seed": self.seed,
                "vocabs": None if self.vocabs is None
                else [v.tokens(range(len(v))) for v in self.vocabs]}
        if self.parser is not None:
            meta["parser"] = {**self.parser.meta(), "trainable": self.parser_trainable}
        arrays = {name: t.data for name, t in self.table.items()}
        arrays["__meta__"] = pack_meta(meta)
        save_checkpoint(path, arrays)

    @classmethod
    def load(cls, path):
        """The model save wrote. Its vocabularies, when stored, must be a
        [source, target] pair of token lists whose sizes match the tables;
        anything else in __meta__ that does not fit is a DataError."""
        arrays = load_checkpoint(path)
        meta = pop_meta(arrays, path)
        parser = None
        trainable = False
        with meta_errors(path):
            vocabs = meta["vocabs"]
            if vocabs is not None:
                if not (isinstance(vocabs, list) and len(vocabs) == 2
                        and all(isinstance(v, list) for v in vocabs)):
                    raise ValueError("vocabs is not a [source, target] pair of token lists")
                vocabs = tuple(Vocabulary(v) for v in vocabs)
            pm = meta.pop("parser", None)
            if pm is not None:
                from .depparse import ParserModel
                trainable = pm["trainable"]
                parser = ParserModel.from_meta(pm)
            model = cls(meta["src_vocab_size"], meta["tgt_vocab_size"], mode=meta["mode"],
                        emb_dim=meta["emb_dim"], hidden_dim=meta["hidden_dim"],
                        sawr_dim=meta["sawr_dim"], sawr_in_dim=meta["sawr_in_dim"],
                        tree_hidden=meta["tree_hidden"], dropout=meta["dropout"],
                        parser=parser, parser_trainable=trainable, seed=meta["seed"],
                        init=np.empty, vocabs=vocabs)
        model.table.load_state(arrays, path)
        return model


def attention_keys(h, Wa):
    """The attention keys (h W^aᵀ)ᵀ [B, H, n] of a memory h [B, n, H].

    A query s scores position l as s W^a h_lᵀ = s (h_l W^aᵀ)ᵀ, so the keys
    are formed once per batch or source (one product over the B*n rows and
    one transpose), not once per decoder step.
    """
    if h.data.ndim != 3:
        raise ShapeError(f"attention_keys: memory must be [B, n, H], got shape {h.shape}")
    B, n, H = h.shape
    if Wa.shape != (H, H):
        raise ShapeError(f"attention_keys: W^a {Wa.shape}, memory width {H}")
    rows = T.matmul(T.reshape(h, (B * n, H)), T.transpose(Wa))
    return T.transpose(T.reshape(rows, (B, n, H)))


def attend(s_prev, keys, h, bias=None):
    """Bilinear attention: scores s_prev W^a h_l, softmax rows, weighted sum.

    s_prev [B*Q, H] queries grouped by source against the memory h [B, n, H]
    and its keys [B, H, n] (attention_keys): rows b*Q .. b*Q+Q-1 attend over
    h[b]. bias, when given, is an additive [B, n] numpy array (padding
    positions carry -1e9 so their weight underflows to zero). Returns
    (contexts [B*Q, H], weights [B*Q, n]).
    """
    if h.data.ndim != 3:
        raise ShapeError(f"attend: memory must be [B, n, H], got shape {h.shape}")
    (B, n, H), rows = h.shape, s_prev.shape[0]
    if rows % B:
        raise ShapeError(f"attend: {rows} query rows are not grouped over {B} sources")
    if s_prev.shape[1:] != (H,):
        raise ShapeError(f"attend: queries {s_prev.shape}, memory width {H}")
    if keys.shape != (B, H, n):
        raise ShapeError(f"attend: keys {keys.shape}, expected {(B, H, n)} for memory {h.shape}")
    Q = rows // B
    beta = T.matmul(T.reshape(s_prev, (B, Q, H)), keys)
    if bias is not None:
        beta = T.add(beta, T.constant(np.repeat(bias[:, None, :], Q, axis=1)))
    alpha = T.softmax(beta, axis=2)
    return T.reshape(T.matmul(alpha, h), (rows, H)), T.reshape(alpha, (rows, n))


def _decoder_state(ew, c_prev, s_prev, Wc, model):
    """The decoder GRU's next state: its input product is ew = e(y_prev) W[:emb]
    plus c_prev W[emb:] (Wc, the context rows of dec.W)."""
    return T.gru_cell(T.add(ew, T.matmul(c_prev, Wc)), s_prev, model.dec.U, model.dec.b)


def decode_step(y_prev, c_prev, s_prev, memory, model):
    """One decoder step for a row batch of hypotheses of one source.

    y_prev: previous target id (int) or one id per row; memory: the source's
    (h [1, n, H], keys [1, H, n]) from encode_for_decode.
    Returns (distribution [K, V], new state [K, H], new context [K, H], alpha [K, n]).
    """
    ids = np.atleast_1d(np.asarray(y_prev, dtype=np.int64))
    if ids.size and (ids.min() < 0 or ids.max() >= model.tgt_vocab_size):
        raise ValueError(f"target id out of range for vocab {model.tgt_vocab_size}")
    h, keys = memory
    We, Wc = model.dec_input_weights()
    ew = T.matmul(T.take_rows(model.table["tgt_emb"], ids), We)
    s = _decoder_state(ew, c_prev, s_prev, Wc, model)
    c, alpha = attend(s, keys, h)
    dist = T.softmax(model.output_logits(s, c, mode="eval"), axis=1)
    return dist, s, c, alpha


# ---------------------------------------------------------------------------
# Source-side input assembly, shared by training and decoding.


def _parser_outputs(model, lens, width, encodings, tokens):
    """[B, width, parser_dim] parser encodings, cached or (training) live."""
    in_dim = model.sawr.in_dim
    if encodings is not None:
        padded = np.zeros((len(lens), width, in_dim))
        for b, enc in enumerate(encodings):
            if enc.shape != (lens[b], in_dim):
                raise ShapeError(f"cached encoding {b} has shape {enc.shape}, "
                                 f"expected ({lens[b]}, {in_dim})")
            padded[b, :lens[b]] = enc
        return T.constant(padded)
    if model.parser is None or tokens is None:
        raise StateError("sawr mode needs cached encodings (a parser model's states "
                         "when decoding), or an attached parser plus the batch's tokens")
    from .depparse import parser_encode
    for b, toks in enumerate(tokens):
        if len(toks) != lens[b]:
            raise ValueError(f"sentence {b}: {len(toks)} tokens but length {lens[b]}")
    # one padded pass; rows past a sentence's end are masked out downstream
    return parser_encode(tokens, model.parser)


def _encode(model, src, lens, trees=None, encodings=None, tokens=None):
    """Encoder memory [B, n, H] of a padded id matrix src [B, n], and the
    [B, n] length mask (None when no row is padded)."""
    B, n = src.shape
    lens = np.asarray(lens)
    mask = nn.length_mask(lens, n)
    if model.mode == "tree-rnn":
        if trees is None:
            raise StateError("tree-rnn mode needs a dependency tree per source sentence")
        real = np.arange(n)[None, :] < lens[:, None]
        emb = T.take_rows(model.table["src_emb"], src[real])
        rows = syntax.tree_gru_encode_batch(emb, trees, model.tree)
        # every sentence's rows, then one zero row that padding positions read
        rows = T.concat([rows, T.constant(np.zeros((1, model.tree.out_dim)))], axis=0)
        index = np.full((B, n), rows.shape[0] - 1)
        index[real] = np.arange(rows.shape[0] - 1)
        x = T.take_rows(rows, index.ravel())
    else:
        x = T.take_rows(model.table["src_emb"], src.ravel())  # row b*n + i: token i of b
        if model.mode == "sawr":
            outs = _parser_outputs(model, lens, n, encodings, tokens)
            outs = T.reshape(outs, (B * n, model.sawr.in_dim))
            x = syntax.sawr_augment(x, syntax.sawr_project(outs, model.sawr))
    x = T.reshape(x, (B, n, model.enc_input_dim))
    return nn.birnn_encode(x, [(model.enc_fwd, model.enc_bwd)], mask), mask


# ---------------------------------------------------------------------------
# Training


def sequence_loss(batch, model, mode="train"):
    """Teacher-forced mean per-token NLL over a Batch, as a scalar Tensor.

    References already end in EOS from corpus preparation; the first input is
    BOS. PAD target positions contribute exactly zero, so padding a batch
    further cannot change the loss. mode="eval" disables dropout.
    """
    if batch.size == 0:
        raise ValueError("empty batch")
    h, mask = _encode(model, batch.src, batch.src_lens, trees=batch.trees,
                      encodings=batch.encodings, tokens=batch.src_tokens)
    bias = None if mask is None else (mask - 1.0) * 1e9
    s = model.init_state(h)
    # kept after init_state: the tape's order sets the order in which h's
    # gradient adds up its parts, and with the keys formed before init_state
    # the tree-linearized score of acceptance criterion 09 fell below its floor
    keys = attention_keys(h, model.table["att.W"])
    c = T.constant(np.zeros((batch.size, model.hidden_dim)))
    B, m = batch.tgt.shape
    tgt_mask = (np.arange(m)[None, :] < batch.tgt_lens[:, None]).astype(float)
    # teacher-forced inputs BOS, y_1 .. y_{m-1}: row j*B + b feeds step j of sentence b
    y_prev = np.concatenate([np.full((B, 1), BOS, dtype=np.int64), batch.tgt[:, :-1]], axis=1)
    We, Wc = model.dec_input_weights()
    ew = T.matmul(T.take_rows(model.table["tgt_emb"], y_prev.T.ravel()), We)
    states, contexts = [], []
    for j in range(m):  # only the recurrence: the output network feeds nothing back
        s = _decoder_state(T.slice_axis(ew, 0, j * B, (j + 1) * B), c, s, Wc, model)
        c, _ = attend(s, keys, h, bias)
        states.append(s)
        contexts.append(c)
    # the output network once over all steps, rows j*B + b as the inputs
    logits = model.output_logits(T.concat(states, axis=0), T.concat(contexts, axis=0),
                                 mode=mode)
    picked = T.mul(T.nll(logits, batch.tgt.T.ravel()), T.constant(tgt_mask.T.reshape(-1, 1)))
    # each sentence's terms added step after step, so padded steps add exact zeros
    total = T.sum_all(T.sum_axis(T.reshape(picked, (m, B)), 0))
    return T.scale(total, -1.0 / float(batch.tgt_lens.sum()))


def train_step(batch, model, optimizer):
    """One teacher-forced update over a Batch; returns (mean per-token NLL,
    global gradient norm before clipping).

    A non-finite loss, or an overflow or invalid operation on the way to
    it or back, raises FloatingPointError before the update, so the
    parameters and the optimizer state stay as they were.
    """
    with T.Tape(), np.errstate(over="raise", invalid="raise"):
        loss = sequence_loss(batch, model, mode="train")
        if not np.isfinite(loss.item()):
            raise FloatingPointError(f"non-finite training loss {loss.item()}")
        T.backward(loss)
    norm = optimizer.step()
    return loss.item(), norm


# ---------------------------------------------------------------------------
# Decoding


class Hypothesis:
    """A (partial) translation: its ids and their summed log-probability.

    steps counts the decoder steps the search ran; stopped_early is True when
    it ended before max_len while hypotheses were still live.
    """

    def __init__(self, ids, logp, completed, steps=0, stopped_early=False):
        self.ids = [int(v) for v in ids]
        self.logp = float(logp)
        self.completed = completed
        self.steps = steps
        self.stopped_early = stopped_early

    def __repr__(self):
        tag = "completed" if self.completed else "partial"
        return f"Hypothesis({self.ids}, logp={self.logp:.4f}, {tag})"


def _top_k(flat, k):
    """Indices of the k largest scores, best first, ties to the lower index.

    The same indices as np.argsort(-flat, kind="stable")[:k], but only the
    scores at or above the k-th largest are sorted.
    """
    neg = -flat
    top = np.flatnonzero(neg <= np.partition(neg, k - 1)[k - 1])
    return top[np.argsort(neg[top], kind="stable")[:k]]


def _run_beam(models, sources, trees, encodings, beam_size, max_len):
    """The beam search, for one model or an ensemble (a model is a
    one-member ensemble).

    Member i decodes sources[i] with trees[i] and encodings[i]; each step
    scores with the log of the members' mean distribution. The live
    hypotheses are a [K, t] id array and their score vector, best first.
    Scores are raw log-prob sums. Hypotheses that emit EOS enter the
    completed pool; the best completed wins, else the best among the
    max_len-length partials.

    Every step adds log p <= 0, so a score never rises. Once the best
    completed score is at least the best live one, no later completion can
    beat it (a tie keeps the earlier one), and the search stops with the
    result a run to max_len would return.
    """
    if beam_size < 1 or max_len < 1:
        raise ValueError("beam_size and max_len must be at least 1")
    if not len(sources) == len(trees) == len(encodings) == len(models):
        raise ValueError(f"{len(models)} models need as many sources, trees and encodings")
    states = []  # per member: (memory, s [K, H], c [K, H])
    for m, src, tree, enc in zip(models, sources, trees, encodings):
        src = np.asarray(list(src), dtype=np.int64)
        if src.size == 0:
            raise ValueError("empty source sentence")
        memory, s0 = encode_for_decode(m, src, tree=tree, encoding=enc)
        states.append((memory, s0.data, np.zeros((1, m.hidden_dim))))
    ids, scores = np.empty((1, 0), dtype=np.int64), np.zeros(1)
    best = None  # (ids, score) of the best completed hypothesis
    for steps in range(1, max_len + 1):
        y_prev = ids[:, -1] if steps > 1 else np.full(1, BOS, dtype=np.int64)
        dists, stepped = [], []
        for m, (memory, s, c) in zip(models, states):
            dist, s, c, _ = decode_step(y_prev, T.constant(c), T.constant(s), memory, m)
            dists.append(dist.data)
            stepped.append((memory, s.data, c.data))
        with np.errstate(divide="ignore"):
            flat = (scores[:, None] + np.log(sum(dists) / len(models))).ravel()
        if np.isnan(flat).any():
            raise FloatingPointError(f"decoder step {steps}: NaN in the hypothesis scores")
        order = _top_k(flat, min(beam_size, flat.size))
        rows, tokens = np.divmod(order, models[0].tgt_vocab_size)
        grown = np.concatenate([ids[rows], tokens[:, None]], axis=1)
        done = tokens == EOS
        # a step's first completion is its best; a tie keeps the earlier one
        if done.any() and (best is None or flat[order[done][0]] > best[1]):
            best = (grown[done][0], flat[order[done][0]])
        if done.all():
            break
        ids, scores, rows = grown[~done], flat[order[~done]], rows[~done]
        states = [(memory, s[rows], c[rows]) for memory, s, c in stepped]
        if best is not None and best[1] >= scores[0]:  # live scores descend
            break

    if best is None:
        return Hypothesis(ids[0], scores[0], False, steps)
    return Hypothesis(best[0], best[1], True, steps, bool(steps < max_len and not done.all()))


def encode_for_decode(model, ids, tree=None, encoding=None):
    """Encoder pass for one source sentence: (memory, initial state [1, H]),
    where the memory pairs h [1, n, H] with its attention keys [1, H, n]."""
    ids = np.asarray(ids, dtype=np.int64)
    h, _ = _encode(model, ids[None, :], np.array([ids.size]),
                   trees=[tree] if tree is not None else None,
                   encodings=[encoding] if encoding is not None else None)
    return (h, attention_keys(h, model.table["att.W"])), model.init_state(h)


def beam_search(source, model, beam_size, max_len, tree=None, encoding=None):
    """Best Hypothesis under raw log-prob beam search.

    beam_size=1 is exactly greedy decoding. max_len counts emitted tokens
    including EOS; a hypothesis cut at max_len is returned only when nothing
    completed.
    """
    return _run_beam([model], [source], [tree], [encoding], beam_size, max_len)
