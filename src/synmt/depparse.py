"""Biaffine dependency parser: treebank I/O, encoder, projective decoding, training.

The parser is the producer of syntax-aware word representations: its encoder
states are tapped by the syntax module. Decoding is projective only (Eisner
first-order DP); non-projective gold trees are projectivized by lifting.
"""

from collections import Counter

import numpy as np

from . import nn
from . import tensor as T
from .checkpoint import (load_checkpoint, meta_errors, open_new, pack_meta, pop_meta,
                         read_lines, save_checkpoint)
from .errors import DataError, ShapeError


class DependencyTree:
    """heads[i] is the head of token i+1; 0 means the virtual root."""

    def __init__(self, heads, labels=None):
        self.heads = list(int(h) for h in heads)
        self.n = len(self.heads)
        self.labels = list(labels) if labels is not None else ["dep"] * self.n
        if len(self.labels) != self.n:
            raise ValueError(f"{self.n} heads but {len(self.labels)} labels")

    def __eq__(self, other):
        return (isinstance(other, DependencyTree)
                and self.heads == other.heads and self.labels == other.labels)

    def __repr__(self):
        return f"DependencyTree(heads={self.heads}, labels={self.labels})"

    def validate(self, single_root=True):
        """The one walk over a tree: raise DataError on range errors,
        self-loops, cycles, or root count; else return (kids, order).

        kids[h] lists h's dependents in ascending order (kids[0] the roots);
        order holds every token once, each after its head.
        """
        n = self.n
        if n == 0:
            raise DataError("empty tree")
        kids = [[] for _ in range(n + 1)]
        for d, h in enumerate(self.heads, 1):
            if not 0 <= h <= n:
                raise DataError(f"token {d}: head {h} outside 0..{n}")
            if h == d:
                raise DataError(f"token {d} is its own head")
            kids[h].append(d)
        order = list(kids[0])  # grows as it is read
        for v in order:
            order += kids[v]
        if len(order) < n:  # the tokens left out sit on or under a cycle
            raise DataError(f"cycle through token {min(set(range(1, n + 1)) - set(order))}")
        if single_root and len(kids[0]) != 1:
            raise DataError(f"expected exactly one root, found {len(kids[0])}")
        return kids, order

    def is_projective(self):
        """Every subtree covers a contiguous run of tokens; equivalently, every
        token strictly between an arc's endpoints descends from its head.
        A malformed tree raises validate's DataError."""
        _, order = self.validate(single_root=False)
        lo, hi = list(range(self.n + 1)), list(range(self.n + 1))  # each subtree's span
        size = [1] * (self.n + 1)
        for v in reversed(order):  # each token after all of its descendants
            if hi[v] - lo[v] + 1 != size[v]:
                return False
            h = self.heads[v - 1]
            lo[h], hi[h], size[h] = min(lo[h], lo[v]), max(hi[h], hi[v]), size[h] + size[v]
        return True


def normalize_root(tree):
    """Reattach all roots after the first to the first root. Returns a new tree."""
    heads = list(tree.heads)
    roots = [i + 1 for i, h in enumerate(heads) if h == 0]
    if len(roots) <= 1:
        return DependencyTree(heads, tree.labels)
    first = roots[0]
    for r in roots[1:]:
        heads[r - 1] = first
    return DependencyTree(heads, tree.labels)


def projectivize(tree):
    """Lift non-projective arcs to their grandparent until projective.

    Shortest arc first, leftmost on ties. Returns a new tree; the input must be
    single-rooted and acyclic.

    An arc h -> d is projective when every token strictly between h and d
    descends from h. under[k, a] says that a is k or one of k's ancestors.
    Lifting d from h takes d's subtree out from under h, so only the arcs
    out of h, and d's own, can change and are checked again.
    """
    out = normalize_root(tree)
    _, order = out.validate()
    n, heads = out.n, out.heads
    under = np.zeros((n + 1, n + 1), dtype=bool)
    under[0, 0] = True
    for v in order:  # each token after its head
        under[v] = under[heads[v - 1]]
        under[v, v] = True

    def check(d):
        """Note the arc into d in bad, keyed for the lift order, if it crosses."""
        h = heads[d - 1]
        lo, hi = min(h, d), max(h, d)
        if under[lo + 1:hi, h].all():
            bad.pop(d, None)
        else:
            bad[d] = (hi - lo, lo, d)

    bad = {}
    for d in range(1, n + 1):
        check(d)
    while bad:
        d = min(bad, key=bad.get)
        h = heads[d - 1]
        heads[d - 1] = heads[h - 1]
        under[under[:, d], h] = False
        check(d)
        for e, head in enumerate(heads, 1):
            if head == h:
                check(e)
    return out


# ---------------------------------------------------------------------------
# Treebank files: tab-separated, blank-line sentence breaks, '#' comments.
# 4 columns (index, form, head, label) or 10-column CoNLL-X where form/head/
# label sit in columns 2, 7, 8.


def read_treebank(path):
    sents = []
    tokens, heads, labels = [], [], []
    sent_start = 1

    def flush():
        if not tokens:
            return
        tree = DependencyTree(heads, labels)
        try:
            tree.validate(single_root=False)
        except DataError as e:
            raise DataError(f"{path} sentence {len(sents) + 1} (line {sent_start}): "
                            f"{e}") from None
        sents.append((list(tokens), tree))
        tokens.clear(), heads.clear(), labels.clear()

    for line_no, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            flush()
            continue
        if line.lstrip().startswith("#"):
            continue
        cols = line.split("\t") if "\t" in line else line.split()
        if len(cols) == 4:
            idx_s, form, head_s, label = cols
        elif len(cols) == 10:
            idx_s, form, head_s, label = cols[0], cols[1], cols[6], cols[7]
        else:
            raise DataError(f"{path} line {line_no}: expected 4 or 10 columns, "
                            f"got {len(cols)}")
        if not tokens:
            sent_start = line_no
        try:
            idx, head = int(idx_s), int(head_s)
        except ValueError:
            raise DataError(f"{path} line {line_no}: non-integer index or head") from None
        if idx != len(tokens) + 1:
            raise DataError(f"{path} line {line_no}: token index {idx}, "
                            f"expected {len(tokens) + 1}")
        tokens.append(form)
        heads.append(head)
        labels.append(label)
    flush()
    if not sents:
        raise DataError(f"{path}: no sentences")
    return sents


def write_treebank(path, sents):
    """Write (tokens, tree) pairs in the 4-column form, a blank line after each."""
    with open_new(path) as f:
        for tokens, tree in sents:
            for i, tok in enumerate(tokens):
                f.write(f"{i + 1}\t{tok}\t{tree.heads[i]}\t{tree.labels[i]}\n")
            f.write("\n")


# ---------------------------------------------------------------------------
# Projective decoding: first-order Eisner, two numpy steps per span width.
#
# Four (n+1) x (n+1) charts over positions 0..n (0 is the root), complete
# (CR, CL) and incomplete (IR, IL), head at the left or right end, share one
# flat array: chart c's cell (a, b) sits at c*(n+1)^2 + a*(n+1) + b, so each
# gather is one fancy index. A width fills its incomplete cells, then its
# complete ones, scoring all split points at once in the scalar recursion's
# addition order, so scores are bit-identical to it. Each item carries an
# int16 head vector (position p's head at p-1, -1 outside the span; O(n^3)
# memory, 2 MB per chart at n=100), so the root item's vector is the tree.
# Score ties go to the lexicographically smallest head vector; all splits of
# a cell cover the same span, so this local rule is the global one.

CR, CL, IR, IL = range(4)


def _best_splits(cand, left, right, heads):
    """Best split per row of cand [cells, splits] and its head vector: split
    c of cell r joins the items at flat indices left[r, c] and right[r, c]."""
    rows = np.arange(cand.shape[0])
    win = cand.argmax(axis=1)
    best = cand[rows, win]
    tied = cand == best[:, None]
    if np.count_nonzero(tied) > rows.size:
        multi = np.flatnonzero(tied.sum(axis=1) > 1)
        r, c = np.nonzero(tied[multi])
        r = multi[r]
        joined = np.maximum(heads[left[r, c]], heads[right[r, c]])
        order = np.lexsort(np.vstack([joined.T[::-1], r]))  # by cell, then vector
        first_of_cell = order[np.r_[True, r[order][1:] != r[order][:-1]]]
        win[r[first_of_cell]] = c[first_of_cell]
    return best, np.maximum(heads[left[rows, win]], heads[right[rows, win]])


def decode_projective(matrix):
    """Maximum projective tree over an (n+1) x n arc score matrix.

    Row h, column d-1 scores head h (0 is the root) for dependent d; the
    chart never reads a self-arc cell [d, d-1]. Scores may hold -inf (masks);
    NaN or +inf raise ValueError. Every label of the returned tree is "dep".
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[1]
    if n == 0:
        raise ValueError("cannot decode an empty sentence")
    if matrix.shape[0] != n + 1:
        raise ShapeError(f"score matrix must be (n+1) x n, got {matrix.shape}")
    bad = np.isnan(matrix) | (matrix == np.inf)
    if bad.any():
        h, d = np.argwhere(bad)[0]
        raise ValueError(f"arc score {matrix[h, d]} for head {h}, dependent {d + 1}: "
                         f"scores must be finite or -inf")

    N, NN = n + 1, (n + 1) ** 2
    arc = np.hstack([np.zeros((N, 1)), matrix]).ravel()  # arc[h*N + d], d = 1..n
    score = np.full(4 * NN, -np.inf)
    heads = np.full((4 * NN, n), -1, dtype=np.int16)
    diag = np.arange(N) * (N + 1)  # (a, a) within a chart
    score[CR * NN + diag] = score[CL * NN + diag] = 0.0

    for w in range(1, N):
        s = np.arange(w)
        i = np.arange(1, N - w)  # spans i..i+w with i >= 1
        d, d0 = diag[1:N - w], diag[:N - w]
        # incomplete: IR[i, j] and IL[i, j] join CR[i, k] and CL[k+1, j]
        # for k in i..j-1, then add the arc between i and j
        left = d[:, None] + (CR * NN + s)
        right = d[:, None] + (CL * NN + N + w + N * s)
        joined = score[left] + score[right]
        arcs = arc[d + np.array([[w], [w * N]])]  # arc[i, j], arc[j, i]
        cand = (joined + arcs[:, :, None]).reshape(2 * i.size, w)
        best, vec = _best_splits(cand, np.concatenate([left, left]),
                                 np.concatenate([right, right]), heads)
        vec[np.arange(2 * i.size), np.concatenate([i + w, i]) - 1] = np.concatenate([i, i + w])
        cells = (d + np.array([[IR * NN + w], [IL * NN + w]])).ravel()
        score[cells], heads[cells] = best, vec
        # single-root constraint: the root arc closes over 1..w whole
        score[IR * NN + w] = score[CL * NN + N + w] + arc[w]
        heads[IR * NN + w] = heads[CL * NN + N + w]
        heads[IR * NN + w, w - 1] = 0
        # complete: CR[i, j] joins IR[i, k] and CR[k, j] for k in i+1..j
        # (i >= 0); CL[i, j] joins CL[i, k] and IL[k, j] for k in i..j-1
        left = np.concatenate([d0 + (IR * NN + 1), d + CL * NN])[:, None] + s
        right = np.concatenate([d0 + (CR * NN + N + w), d + (IL * NN + w)])[:, None] + N * s
        best, vec = _best_splits(score[left] + score[right], left, right, heads)
        cells = np.concatenate([d0 + (CR * NN + w), d + (CL * NN + w)])
        score[cells], heads[cells] = best, vec

    return DependencyTree(heads[CR * NN + n].tolist())


# ---------------------------------------------------------------------------
# Model


class ParserModel:
    """Word embeddings, stacked Bi-LSTM encoder, and biaffine scorers.

    Parameters are drawn from U[-0.1, 0.1) off seed (the MLP biases start at
    zero), or made by init(shape) when init is given (load passes np.empty).
    """

    def __init__(self, vocab, label_names, embed_dim=64, hidden_dim=100,
                 mlp_dim=100, layers=3, seed=1, init=None):
        self.vocab = dict(vocab)  # token -> id; must contain "<unk>"
        if "<unk>" not in self.vocab:
            raise ValueError('parser vocabulary must contain "<unk>"')
        ids = list(self.vocab.values())
        if any(type(i) is not int for i in ids) or sorted(ids) != list(range(len(ids))):
            raise ValueError(f"parser vocabulary ids must be the ints 0..{len(ids) - 1}, "
                             "each used once")
        nn.check_dims(embed_dim=embed_dim, hidden_dim=hidden_dim, mlp_dim=mlp_dim,
                      layers=layers)
        self.label_names = list(label_names)
        if not self.label_names:
            raise ValueError("parser needs at least one label")
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.mlp_dim = mlp_dim
        self.layers = layers
        self.out_dim = 2 * hidden_dim
        if init is None:  # else the caller's, such as load's np.empty
            init = nn.uniform_init(T.make_rng(seed), 0.1)
        t = self.table = nn.ParamTable()
        t.new("emb", (len(self.vocab), embed_dim), init)
        self.cells = []
        for layer in range(layers):
            in_dim = embed_dim if layer == 0 else 2 * hidden_dim
            fwd = nn.LstmParams(t, f"enc.l{layer}.fwd", in_dim, hidden_dim, init)
            bwd = nn.LstmParams(t, f"enc.l{layer}.bwd", in_dim, hidden_dim, init)
            self.cells.append((fwd, bwd))
        t.new("root", (1, self.out_dim), init)
        for part in ("arc", "lab"):
            for side in ("head", "dep"):
                t.new(f"{part}.{side}.W", (self.out_dim, mlp_dim), init)
                t.new(f"{part}.{side}.b", (1, mlp_dim), np.zeros)
        t.new("arc.U", (mlp_dim + 1, mlp_dim), init)
        t.add_side_by_side({"lab.U": (mlp_dim + 1, mlp_dim + 1)}, len(self.label_names), init)

    def word_ids(self, tokens):
        unk = self.vocab["<unk>"]
        return [self.vocab.get(tok, unk) for tok in tokens]

    def encode_positions(self, id_matrix, mask=None):
        """Run the stacked encoder over a [B, n] id matrix.

        Returns the top layer's [B, n, 2*hidden] states. mask, when given, is
        the [B, n] 0/1 array of real tokens in a right-padded batch: every
        layer carries each direction's state across padded steps, so each
        sentence encodes as if alone, and padded rows hold that carried state.
        """
        B, n = id_matrix.shape
        x = T.take_rows(self.table["emb"], id_matrix.ravel())  # row b*n + i: token i of b
        return nn.birnn_encode(T.reshape(x, (B, n, self.embed_dim)), self.cells, mask)

    def meta(self):
        """The fields from_meta rebuilds this model's shape from."""
        return {"vocab": self.vocab, "labels": self.label_names,
                "embed_dim": self.embed_dim, "hidden_dim": self.hidden_dim,
                "mlp_dim": self.mlp_dim, "layers": self.layers}

    @classmethod
    def from_meta(cls, meta):
        """A model of meta's shape whose parameters are left for a checkpoint
        to set; a missing or unusable field raises KeyError, TypeError or
        ValueError, which checkpoint.meta_errors turns into a DataError."""
        return cls(meta["vocab"], meta["labels"], embed_dim=meta["embed_dim"],
                   hidden_dim=meta["hidden_dim"], mlp_dim=meta["mlp_dim"],
                   layers=meta["layers"], init=np.empty)

    def save(self, path):
        state = {name: t.data for name, t in self.table.items()}
        state["__meta__"] = pack_meta(self.meta())
        save_checkpoint(path, state)

    @classmethod
    def load(cls, path):
        state = load_checkpoint(path)
        meta = pop_meta(state, path)
        with meta_errors(path):
            model = cls.from_meta(meta)
        model.table.load_state(state, path)
        return model


def parser_encode(sentences, model):
    """Encode a batch of token lists in one right-padded, masked pass.

    Returns the top layer's [B, n, out_dim] states: [b, i] is token i of
    sentence b. Positions past a sentence's end are padding; extract_sawr
    drops them and the translator masks them.
    """
    lens = [len(toks) for toks in sentences]
    if not lens or min(lens) == 0:
        raise ValueError("cannot encode an empty sentence")
    width = max(lens)
    ids = np.zeros((len(lens), width), dtype=np.int64)
    for b, toks in enumerate(sentences):
        ids[b, :lens[b]] = model.word_ids(toks)
    return model.encode_positions(ids, nn.length_mask(lens, width))


def _append_ones(x):
    return T.concat([x, T.constant(np.ones((x.shape[0], 1)))], axis=1)


def score_arcs(states, model):
    """Biaffine scores for one length bucket: B sentences of n tokens each.

    states: [B, n, out_dim] parser states. Returns (arc, lab_head, lab_dep):
    arc [B, n+1, n] scores head h (0 is the root) for dependent d at
    [b, h, d-1], self-arcs masked with -1e9; lab_head [B*(n+1), m+1] and
    lab_dep [B*n, m+1] are the label MLP outputs that label_scores reads.
    """
    B, n, dim = states.shape
    t, m = model.table, model.mlp_dim
    deps = T.reshape(states, (B * n, dim))
    # row b*(n+1) is the root, rows b*(n+1)+1 .. b*(n+1)+n sentence b's tokens
    joined = T.concat([T.take_rows(t["root"], [0] * B), T.reshape(states, (B, n * dim))], axis=1)
    heads = T.reshape(joined, (B * (n + 1), dim))

    def mlp(part, side, src):
        return T.tanh(nn.linear(src, t[f"{part}.{side}.W"], t[f"{part}.{side}.b"]))

    g_head = T.matmul(_append_ones(mlp("arc", "head", heads)), t["arc.U"])
    g_dep = T.reshape(mlp("arc", "dep", deps), (B, n, m))
    arc = T.matmul(T.reshape(g_head, (B, n + 1, m)), T.transpose(g_dep))
    self_mask = np.broadcast_to(-1e9 * np.eye(n + 1, n, k=-1), arc.shape)  # at [b, d, d-1]
    return (T.add(arc, T.constant(self_mask)),
            _append_ones(mlp("lab", "head", heads)), _append_ones(mlp("lab", "dep", deps)))


def label_scores(scores, heads, model):
    """[B*n, L] scores of every label on a [B, n] head choice.

    Row b*n + i scores token i+1 of sentence b under head heads[b][i]. One
    product covers all labels: lab.U holds their [m+1, m+1] maps side by side.
    """
    arc, lab_head, lab_dep = scores
    B, n1, n = arc.shape
    heads = np.asarray(heads, dtype=np.int64)
    if heads.shape != (B, n):
        raise ShapeError(f"label_scores: heads {heads.shape}, expected {(B, n)}")
    L, width = len(model.label_names), lab_dep.shape[1]
    rows = T.take_rows(lab_head, (heads + n1 * np.arange(B)[:, None]).ravel())
    prod = T.reshape(T.matmul(rows, model.table["lab.U"]), (B * n, L, width))
    return T.reshape(T.matmul(prod, T.reshape(lab_dep, (B * n, width, 1))), (B * n, L))


def tree_log_loss(scores, trees, model):
    """Summed head + label cross-entropy of a bucket's gold trees."""
    B, n1, n = scores[0].shape
    heads = np.array([tree.heads for tree in trees])
    label_ids = [model.label_names.index(lab) for tree in trees for lab in tree.labels]
    # one softmax over candidate heads per dependent
    per_dep = T.reshape(T.transpose(scores[0]), (B * n, n1))
    head_lp = T.sum_all(T.nll(per_dep, heads.ravel()))
    lab_lp = T.sum_all(T.nll(label_scores(scores, heads, model), label_ids))
    return T.scale(T.add(head_lp, lab_lp), -1.0)


# ---------------------------------------------------------------------------
# Training and evaluation


def build_parser_vocab(sents):
    counts = Counter(tok for tokens, _ in sents for tok in tokens)
    vocab = {"<unk>": 0}
    for tok, _ in counts.most_common():
        vocab.setdefault(tok, len(vocab))
    return vocab


def _length_batches(lengths, batch_size, rng):
    groups = {}
    for i, n in enumerate(lengths):
        groups.setdefault(n, []).append(i)
    batches = []
    for length in sorted(groups):
        members = groups[length]
        rng.shuffle(members)
        for k in range(0, len(members), batch_size):
            batches.append(members[k:k + batch_size])
    order = rng.permutation(len(batches))
    return [batches[i] for i in order]


def train_parser(sents, *, embed_dim=64, hidden_dim=100, mlp_dim=100, layers=3,
                 epochs=30, lr=1e-3, clip=5.0, batch_size=16, seed=1,
                 nonprojective="projectivize", log=None):
    """Train a parser on (tokens, DependencyTree) pairs.

    nonprojective: "projectivize" lifts offending arcs, "skip" drops those
    sentences. Multi-rooted trees are normalized to the first root either way.
    log, when given, is called after each epoch with the epoch index, its
    mean per-token loss and its batches' gradient norms before clipping.
    A non-finite batch loss, or an overflow or invalid operation on the way
    to it or back, raises FloatingPointError before the update.
    """
    if not sents:
        raise ValueError("empty treebank")
    if nonprojective not in ("projectivize", "skip"):
        raise ValueError(f"unknown non-projective policy {nonprojective!r}")
    prepared = []
    for tokens, tree in sents:
        fixed = normalize_root(tree)
        fixed.validate()
        if not fixed.is_projective():
            if nonprojective == "skip":
                continue
            fixed = projectivize(fixed)
        prepared.append((tokens, fixed))
    if not prepared:
        raise DataError("no usable sentences after the non-projective policy")

    labels = sorted({lab for _, tree in prepared for lab in tree.labels})
    vocab = build_parser_vocab(prepared)
    model = ParserModel(vocab, labels, embed_dim=embed_dim, hidden_dim=hidden_dim,
                        mlp_dim=mlp_dim, layers=layers, seed=seed)
    opt = nn.Adam(model.table, lr=lr, clip=clip)
    rng = T.make_rng(seed + 1)
    lengths = [len(tokens) for tokens, _ in prepared]

    history = []
    for epoch in range(epochs):
        total_nll, total_tokens, norms = 0.0, 0, []
        for k, batch in enumerate(_length_batches(lengths, batch_size, rng), 1):
            try:
                words = [prepared[i][0] for i in batch]
                n_tokens = len(batch) * lengths[batch[0]]
                with T.Tape(), np.errstate(over="raise", invalid="raise"):
                    # one length per batch, so the encoder runs unmasked; no
                    # name holds an activation, so backward frees each one
                    nll = tree_log_loss(score_arcs(parser_encode(words, model), model),
                                        [prepared[i][1] for i in batch], model)
                    loss = T.scale(nll, 1.0 / n_tokens)
                    if not np.isfinite(loss.item()):
                        raise FloatingPointError(f"non-finite training loss {loss.item()}")
                    T.backward(loss)
                norms.append(opt.step())
            except FloatingPointError as exc:
                raise FloatingPointError(f"epoch {epoch + 1} batch {k}: {exc}") from None
            total_nll += loss.item() * n_tokens
            total_tokens += n_tokens
        history.append(total_nll / total_tokens)
        if log:
            log(epoch, history[-1], norms)
    return model, history


def parse_sentence(tokens, model, enc=None):
    """Projective tree for one sentence, each token with its best label.

    enc, when given, is the sentence's [n, out_dim] state array from a
    batched encode (syntax.extract_sawr); otherwise the sentence is encoded
    alone.
    """
    states = parser_encode([tokens], model) if enc is None else T.constant(enc[None])
    scores = score_arcs(states, model)
    tree = decode_projective(scores[0].data[0])
    best = label_scores(scores, [tree.heads], model).data.argmax(axis=1)
    tree.labels = [model.label_names[i] for i in best]
    return tree


def evaluate_las(pred, gold):
    """(UAS, LAS) over aligned tree lists."""
    if len(pred) != len(gold):
        raise ValueError(f"{len(pred)} predictions vs {len(gold)} references")
    if not pred:
        raise ValueError("nothing to evaluate")
    total = head_ok = both_ok = 0
    for p, g in zip(pred, gold):
        if p.n != g.n:
            raise ValueError(f"sentence length mismatch: {p.n} vs {g.n}")
        for i in range(g.n):
            total += 1
            if p.heads[i] == g.heads[i]:
                head_ok += 1
                if p.labels[i] == g.labels[i]:
                    both_ok += 1
    return head_ok / total, both_ok / total
