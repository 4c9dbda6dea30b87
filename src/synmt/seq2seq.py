"""Attentional GRU encoder-decoder translator.

The source side is pluggable: plain embeddings, embeddings concatenated with
projected parser encodings (sawr), Tree-GRU outputs (tree-rnn), or bracketed
tree symbol sequences through the unmodified pipeline (tree-linearized).

Decoding convention: the decoder consumes e(y_prev) concatenated with the
previous context vector, its new state queries attention, and the output
network sees [state, fresh context]. The first step feeds BOS with a zero
context from a learned transform of the final backward encoder state.
"""

import json

import numpy as np

from . import nn
from . import syntax
from . import tensor as T
from .checkpoint import load_checkpoint, pop_meta, save_checkpoint
from .data import BOS, EOS
from .errors import ShapeError, StateError

MODES = ("none", "sawr", "tree-rnn", "tree-linearized")
INIT_SCALE = 0.1


class TranslationModel:
    """Single-layer bidirectional GRU encoder + attentional GRU decoder.

    hidden_dim is the full encoder output size; each encoder direction gets
    half of it so the concatenated state lands back on hidden_dim. The
    decoder state, attention space and output hidden layer share hidden_dim.
    """

    def __init__(self, src_vocab_size, tgt_vocab_size, *, mode="none",
                 emb_dim=512, hidden_dim=1024, sawr_dim=512, sawr_in_dim=None,
                 tree_hidden=None, dropout=0.5, parser=None,
                 parser_trainable=False, seed=1):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
        if hidden_dim % 2:
            raise ValueError("hidden_dim must be even (it splits into fwd/bwd halves)")
        if tgt_vocab_size <= EOS:
            raise ValueError("target vocabulary must include the reserved ids")
        if not 0.0 <= dropout < 1.0:
            raise ValueError(f"dropout ratio {dropout} outside [0, 1)")
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

        rng = T.make_rng(seed)
        t = self.table = nn.ParamTable()
        t.add("src_emb", T.init_uniform((src_vocab_size, emb_dim),
                                        -INIT_SCALE, INIT_SCALE, rng=rng))
        t.add("tgt_emb", T.init_uniform((tgt_vocab_size, emb_dim),
                                        -INIT_SCALE, INIT_SCALE, rng=rng))

        self.sawr = None
        self.tree = None
        self.tree_hidden = None
        enc_in = emb_dim
        if mode == "sawr":
            if parser is not None:
                sawr_in_dim = parser.out_dim
            if sawr_in_dim is None:
                raise ValueError("sawr mode needs a parser or an explicit sawr_in_dim")
            self.sawr = syntax.SawrProjection(t, "sawr", sawr_in_dim, sawr_dim, rng,
                                              scale=INIT_SCALE)
            enc_in = emb_dim + sawr_dim
        elif mode == "tree-rnn":
            self.tree_hidden = tree_hidden if tree_hidden else max(emb_dim // 2, 1)
            self.tree = syntax.TreeGruParams(t, "tree", emb_dim, self.tree_hidden,
                                             rng, scale=INIT_SCALE)
            enc_in = self.tree.out_dim
        self.enc_input_dim = enc_in

        half = hidden_dim // 2
        self.enc_fwd = nn.GruParams(t, "enc.fwd", enc_in, half, rng, scale=INIT_SCALE)
        self.enc_bwd = nn.GruParams(t, "enc.bwd", enc_in, half, rng, scale=INIT_SCALE)
        t.add("att.W", T.init_uniform((hidden_dim, hidden_dim),
                                      -INIT_SCALE, INIT_SCALE, rng=rng))
        self.dec = nn.GruParams(t, "dec", emb_dim + hidden_dim, hidden_dim, rng,
                                scale=INIT_SCALE)
        t.add("init.W", T.init_uniform((half, hidden_dim), -INIT_SCALE, INIT_SCALE, rng=rng))
        t.add("init.b", T.init_uniform((1, hidden_dim), -INIT_SCALE, INIT_SCALE, rng=rng))
        t.add("out.hidden.W", T.init_uniform((2 * hidden_dim, hidden_dim),
                                             -INIT_SCALE, INIT_SCALE, rng=rng))
        t.add("out.hidden.b", T.init_uniform((1, hidden_dim), -INIT_SCALE, INIT_SCALE, rng=rng))
        t.add("out.logits.W", T.init_uniform((hidden_dim, tgt_vocab_size),
                                             -INIT_SCALE, INIT_SCALE, rng=rng))
        t.add("out.logits.b", T.init_uniform((1, tgt_vocab_size),
                                             -INIT_SCALE, INIT_SCALE, rng=rng))
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
        for name, tensor in parser.table.items():
            self.table.add(f"parser.{name}", tensor)
        syntax.set_parser_trainable(self, trainable)

    def init_state(self, h0):
        """s_0 = tanh(W h_bwd + b) from the final backward encoder state."""
        half = self.hidden_dim // 2
        bwd = T.slice_axis(h0, 1, half, self.hidden_dim)
        return T.tanh(nn.linear(bwd, self.table["init.W"], self.table["init.b"]))

    def output_logits(self, s, c, mode="eval"):
        """Two-layer output network: tanh hidden layer over [s, c], then linear."""
        hid = T.tanh(nn.linear(T.concat([s, c], axis=1),
                               self.table["out.hidden.W"], self.table["out.hidden.b"]))
        if mode == "train" and self.dropout > 0.0:
            hid = nn.dropout(hid, self.dropout, "train", rng=self.drop_rng)
        return nn.linear(hid, self.table["out.logits.W"], self.table["out.logits.b"])

    def save(self, path):
        meta = {"src_vocab_size": self.src_vocab_size,
                "tgt_vocab_size": self.tgt_vocab_size,
                "mode": self.mode, "emb_dim": self.emb_dim,
                "hidden_dim": self.hidden_dim, "sawr_dim": self.sawr_dim,
                "sawr_in_dim": self.sawr.in_dim if self.sawr else None,
                "tree_hidden": self.tree_hidden,
                "dropout": self.dropout, "seed": self.seed}
        if self.parser is not None:
            p = self.parser
            meta["parser"] = {"vocab": p.vocab, "label_names": p.label_names,
                              "embed_dim": p.embed_dim, "hidden_dim": p.hidden_dim,
                              "mlp_dim": p.mlp_dim, "layers": p.layers,
                              "trainable": self.parser_trainable}
        arrays = dict(self.table.state_dict())
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                           dtype=np.uint8).copy()
        save_checkpoint(path, arrays)

    @classmethod
    def load(cls, path):
        arrays = load_checkpoint(path)
        meta = pop_meta(arrays, path)
        parser = None
        trainable = False
        pm = meta.pop("parser", None)
        if pm is not None:
            from .depparse import ParserModel
            trainable = pm["trainable"]
            parser = ParserModel(pm["vocab"], pm["label_names"],
                                 embed_dim=pm["embed_dim"], hidden_dim=pm["hidden_dim"],
                                 mlp_dim=pm["mlp_dim"], layers=pm["layers"])
        model = cls(meta["src_vocab_size"], meta["tgt_vocab_size"], mode=meta["mode"],
                    emb_dim=meta["emb_dim"], hidden_dim=meta["hidden_dim"],
                    sawr_dim=meta["sawr_dim"], sawr_in_dim=meta["sawr_in_dim"],
                    tree_hidden=meta["tree_hidden"], dropout=meta["dropout"],
                    parser=parser, parser_trainable=trainable, seed=meta["seed"])
        model.table.load_state(arrays)
        return model


def encode_source(inputs, model, mask=None):
    """Bidirectional GRU over per-position input vectors; h_i = fwd_i + bwd_i."""
    return nn.birnn_encode(inputs, model.enc_fwd, model.enc_bwd, mask=mask)


def attend(s_prev, h, Wa):
    """Bilinear attention: scores s_prev W^a h_l, softmax rows, weighted sum.

    s_prev [K, H] against h [n, H]; returns (contexts [K, H], weights [K, n]).
    """
    beta = T.matmul(T.matmul(s_prev, Wa), T.transpose(h))
    alpha = T.softmax(beta, axis=1)
    return T.matmul(alpha, h), alpha


def _attend_positions(s, h_list, Wa, extra=None):
    """attend() against a list of per-position [B, H] states (training layout).

    extra, when given, is an additive [B, n] numpy bias; padding positions
    carry -1e9 so their weight underflows to zero.
    """
    proj = T.matmul(s, Wa)
    beta = T.concat([T.sum_axis(T.mul(proj, h_l), 1) for h_l in h_list], axis=1)
    if extra is not None:
        beta = T.add(beta, T.constant(extra))
    alpha = T.softmax(beta, axis=1)
    parts = [T.scale_rows(h_l, T.slice_axis(alpha, 1, l, l + 1))
             for l, h_l in enumerate(h_list)]
    c = T.add_many(parts) if len(parts) > 1 else parts[0]
    return c, alpha


def decode_step(y_prev, c_prev, s_prev, h, model, mode="eval"):
    """One decoder step for a row batch of hypotheses.

    y_prev: previous target id (int) or one id per row. Returns
    (distribution [K, V], new state [K, H], new context [K, H], alpha [K, n]).
    """
    ids = np.atleast_1d(np.asarray(y_prev, dtype=np.int64))
    if ids.size and (ids.min() < 0 or ids.max() >= model.tgt_vocab_size):
        raise ValueError(f"target id out of range for vocab {model.tgt_vocab_size}")
    e = T.take_rows(model.table["tgt_emb"], ids)
    x = T.concat([e, c_prev], axis=1)
    s = nn.gru_step(x, s_prev, model.dec)
    c, alpha = attend(s, h, model.table["att.W"])
    dist = T.softmax(model.output_logits(s, c, mode=mode), axis=1)
    return dist, s, c, alpha


# ---------------------------------------------------------------------------
# Source-side input assembly, shared by training and decoding.


def _source_mask(lens, width):
    lens = np.asarray(lens)
    if (lens == width).all():
        return None
    return (np.arange(width)[None, :] < lens[:, None]).astype(float)


def _stack_rows(per_sentence, lens, i, zero):
    rows = [T.slice_axis(mat, 0, i, i + 1) if i < lens[b] else zero
            for b, mat in enumerate(per_sentence)]
    return T.concat(rows, axis=0) if len(rows) > 1 else rows[0]


def _parser_outputs(model, lens, width, encodings, tokens):
    """Per-position [B, parser_dim] parser encodings, cached or live."""
    in_dim = model.sawr.in_dim
    B = len(lens)
    if encodings is not None:
        for b, enc in enumerate(encodings):
            if enc.shape != (lens[b], in_dim):
                raise ShapeError(f"cached encoding {b} has shape {enc.shape}, "
                                 f"expected ({lens[b]}, {in_dim})")
        outs = []
        for i in range(width):
            rows = np.zeros((B, in_dim))
            for b, enc in enumerate(encodings):
                if i < lens[b]:
                    rows[b] = enc[i]
            outs.append(T.constant(rows))
        return outs
    if model.parser is None or tokens is None:
        raise StateError("sawr mode needs cached encodings, or an attached parser "
                         "plus the raw source tokens")
    from .depparse import parser_encode
    for b, toks in enumerate(tokens):
        if len(toks) != lens[b]:
            raise ValueError(f"sentence {b}: {len(toks)} tokens but length {lens[b]}")
    per_sentence = [parser_encode(toks, model.parser) for toks in tokens]
    zero = T.constant(np.zeros((1, in_dim)))
    return [_stack_rows(per_sentence, lens, i, zero) for i in range(width)]


def _input_positions(model, src, lens, trees=None, encodings=None, tokens=None):
    """Encoder inputs per position for a padded id matrix src [B, n]."""
    B, n = src.shape
    lens = np.asarray(lens)
    emb = model.table["src_emb"]
    e_pos = [T.take_rows(emb, src[:, i]) for i in range(n)]
    if model.mode in ("none", "tree-linearized"):
        xs = e_pos
    elif model.mode == "sawr":
        outs = _parser_outputs(model, lens, n, encodings, tokens)
        xs = [syntax.sawr_augment(e, syntax.sawr_project(o, model.sawr))
              for e, o in zip(e_pos, outs)]
    else:
        if trees is None:
            raise StateError("tree-rnn mode needs a dependency tree per source sentence")
        embs = [T.take_rows(emb, src[b, :lens[b]]) for b in range(B)]
        enc = syntax.tree_gru_encode_batch(embs, trees, model.tree)
        zero = T.constant(np.zeros((1, model.tree.out_dim)))
        xs = [_stack_rows(enc, lens, i, zero) for i in range(n)]
    return xs, _source_mask(lens, n)


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
    xs, mask = _input_positions(model, batch.src, batch.src_lens,
                                trees=batch.trees, encodings=batch.encodings,
                                tokens=batch.src_tokens)
    h_list = encode_source(xs, model, mask=mask)
    extra = None if mask is None else (mask - 1.0) * 1e9
    s = model.init_state(h_list[0])
    c = T.constant(np.zeros((batch.size, model.hidden_dim)))
    B, m = batch.tgt.shape
    tgt_mask = (np.arange(m)[None, :] < batch.tgt_lens[:, None]).astype(float)
    emb = model.table["tgt_emb"]
    Wa = model.table["att.W"]
    terms = []
    for j in range(m):
        y_prev = np.full(B, BOS, dtype=np.int64) if j == 0 else batch.tgt[:, j - 1]
        x = T.concat([T.take_rows(emb, y_prev), c], axis=1)
        s = nn.gru_step(x, s, model.dec)
        c, _ = _attend_positions(s, h_list, Wa, extra)
        lp = T.log_softmax(model.output_logits(s, c, mode=mode), axis=1)
        picked = T.pick(lp, batch.tgt[:, j])
        terms.append(T.mul(picked, T.constant(tgt_mask[:, j:j + 1])))
    total = T.sum_all(T.add_many(terms) if len(terms) > 1 else terms[0])
    return T.scale(total, -1.0 / float(batch.tgt_lens.sum()))


def train_step(batch, model, optimizer):
    """One teacher-forced update over a Batch; returns mean per-token NLL."""
    with T.Tape():
        loss = sequence_loss(batch, model, mode="train")
        T.backward(loss)
    optimizer.step()
    return loss.item()


# ---------------------------------------------------------------------------
# Decoding


class Hypothesis:
    """A (partial) translation: ids, score, final decoder snapshot, attention.

    steps counts the decoder steps the search ran; stopped_early is True when
    it ended before max_len while hypotheses were still live.
    """

    def __init__(self, ids, logp, state, context, alphas, step_logps, completed,
                 steps=0, stopped_early=False):
        self.ids = list(ids)
        self.logp = float(logp)
        self.state = state
        self.context = context
        self.alphas = list(alphas)
        self.step_logps = list(step_logps)
        self.completed = completed
        self.steps = steps
        self.stopped_early = stopped_early

    def __repr__(self):
        tag = "completed" if self.completed else "partial"
        return f"Hypothesis({self.ids}, logp={self.logp:.4f}, {tag})"


def _run_beam(step_fn, states, beam_size, max_len, vocab_size):
    """Shared beam loop for one model or an ensemble.

    states holds one row-aligned (s [K, H], c [K, H]) array pair per member;
    step_fn(y_prev ids [K], states) -> (logp [K, V], new states, alpha [K, n]).
    Scores are raw log-prob sums. Hypotheses that emit EOS enter the
    completed pool; the best completed wins, else the best among the
    max_len-length partials.

    Every step adds log p <= 0, so a score never rises. Once the best
    completed score is at least the best live one, no later completion can
    beat it (a tie keeps the earlier one), and the search stops with the
    result a run to max_len would return.
    """
    def row(k):
        return [(s[k].copy(), c[k].copy()) for s, c in states]

    active = [{"ids": (), "logp": 0.0, "step_logps": (), "alphas": ()}]
    completed = []
    best_done = -np.inf
    steps, early = 0, False
    while steps < max_len:
        y_prev = np.array([hyp["ids"][-1] if hyp["ids"] else BOS for hyp in active],
                          dtype=np.int64)
        logp, states, alpha = step_fn(y_prev, states)
        steps += 1
        scores = np.array([hyp["logp"] for hyp in active])[:, None] + logp
        flat = scores.ravel()
        order = np.argsort(-flat, kind="stable")[:min(beam_size, flat.size)]
        new_active, rows = [], []
        for fi in order:
            pk, v = divmod(int(fi), vocab_size)
            parent = active[pk]
            hyp = {"ids": parent["ids"] + (int(v),),
                   "logp": float(flat[fi]),
                   "step_logps": parent["step_logps"] + (float(logp[pk, v]),),
                   "alphas": parent["alphas"] + (alpha[pk].copy(),)}
            if v == EOS:
                completed.append((hyp, row(pk)))
                best_done = max(best_done, hyp["logp"])
            else:
                new_active.append(hyp)
                rows.append(pk)
        if not new_active:
            active = []
            break
        active = new_active
        states = [(s[rows], c[rows]) for s, c in states]
        if completed and best_done >= active[0]["logp"]:  # live scores descend
            early = steps < max_len
            break

    def build(hyp, snap, done):
        s_rows, c_rows = [s for s, _ in snap], [c for _, c in snap]
        if len(snap) == 1:  # a single model reports its own rows
            s_rows, c_rows = s_rows[0], c_rows[0]
        return Hypothesis(hyp["ids"], hyp["logp"], s_rows, c_rows,
                          hyp["alphas"], hyp["step_logps"], done, steps, early)

    if completed:
        best, snap = max(completed, key=lambda pair: pair[0]["logp"])
        return build(best, snap, True)
    k = max(range(len(active)), key=lambda i: active[i]["logp"])
    return build(active[k], row(k), False)


def encode_for_decode(model, ids, tree=None, encoding=None, tokens=None):
    """Encoder pass for one source sentence: (h [n, H], initial state [1, H])."""
    ids = np.asarray(ids, dtype=np.int64)
    xs, _ = _input_positions(model, ids[None, :], np.array([ids.size]),
                             trees=[tree] if tree is not None else None,
                             encodings=[encoding] if encoding is not None else None,
                             tokens=[tokens] if tokens is not None else None)
    hs = encode_source(xs, model)
    h = T.concat(hs, axis=0) if len(hs) > 1 else hs[0]
    return h, model.init_state(hs[0])


def beam_search(source, model, beam_size, max_len, tree=None, encoding=None,
                tokens=None):
    """Best Hypothesis under raw log-prob beam search.

    beam_size=1 is exactly greedy decoding. max_len counts emitted tokens
    including EOS; a hypothesis cut at max_len is returned only when nothing
    completed.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be at least 1")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    ids = np.asarray(list(source), dtype=np.int64)
    if ids.size == 0:
        raise ValueError("empty source sentence")
    h, s0 = encode_for_decode(model, ids, tree=tree, encoding=encoding, tokens=tokens)

    def step(y_prev, states):
        [(s, c)] = states
        dist, s, c, alpha = decode_step(y_prev, T.constant(c), T.constant(s), h, model)
        with np.errstate(divide="ignore"):
            lp = np.log(dist.data)
        return lp, [(s.data, c.data)], alpha.data

    states = [(s0.data, np.zeros((1, model.hidden_dim)))]
    return _run_beam(step, states, beam_size, max_len, model.tgt_vocab_size)


def greedy_decode(source, model, max_len, tree=None, encoding=None, tokens=None):
    return beam_search(source, model, 1, max_len, tree=tree, encoding=encoding,
                       tokens=tokens)
