"""Biaffine dependency parser: treebank I/O, encoder, projective decoding, training.

The parser is the producer of syntax-aware word representations: its encoder
states are tapped by the syntax module. Decoding is projective only (Eisner
first-order DP); non-projective gold trees are projectivized by lifting.
"""

import json
from collections import Counter

import numpy as np

from . import nn
from . import tensor as T
from .checkpoint import load_checkpoint, pop_meta, save_checkpoint
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

    def root_count(self):
        return self.heads.count(0)

    def validate(self, single_root=True):
        """Raise DataError on range errors, self-loops, cycles, or root count."""
        n = self.n
        if n == 0:
            raise DataError("empty tree")
        for i, h in enumerate(self.heads):
            if not 0 <= h <= n:
                raise DataError(f"token {i + 1}: head {h} outside 0..{n}")
            if h == i + 1:
                raise DataError(f"token {i + 1} is its own head")
        for start in range(1, n + 1):
            seen = set()
            node = start
            while node != 0:
                if node in seen:
                    raise DataError(f"cycle through token {start}")
                seen.add(node)
                node = self.heads[node - 1]
        if single_root and self.root_count() != 1:
            raise DataError(f"expected exactly one root, found {self.root_count()}")

    def is_ancestor(self, anc, node):
        while node != 0:
            node = self.heads[node - 1]
            if node == anc:
                return True
        return anc == 0 and node == 0

    def is_projective(self):
        """Every token strictly between an arc's endpoints descends from the head."""
        for d in range(1, self.n + 1):
            h = self.heads[d - 1]
            lo, hi = min(h, d), max(h, d)
            for k in range(lo + 1, hi):
                if not self.is_ancestor(h, k):
                    return False
        return True

    def children(self, head):
        return [d for d in range(1, self.n + 1) if self.heads[d - 1] == head]


def has_crossing_arcs(tree):
    """Alternative projectivity test: two arcs interleave."""
    arcs = [(min(h, d), max(h, d)) for d, h in enumerate(tree.heads, start=1)]
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            (a, b), (c, dd) = arcs[i], arcs[j]
            if a < c < b < dd or c < a < dd < b:
                return True
    return False


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
    """
    out = normalize_root(tree)
    out.validate()
    for _ in range(out.n * out.n + 1):
        bad = []
        for d in range(1, out.n + 1):
            h = out.heads[d - 1]
            lo, hi = min(h, d), max(h, d)
            if any(not out.is_ancestor(h, k) for k in range(lo + 1, hi)):
                bad.append((hi - lo, lo, d))
        if not bad:
            return out
        _, _, d = min(bad)
        h = out.heads[d - 1]
        out.heads[d - 1] = out.heads[h - 1]
    raise RuntimeError("projectivize failed to terminate")


# ---------------------------------------------------------------------------
# Treebank files: tab-separated, blank-line sentence breaks, '#' comments.
# 4 columns (index, form, head, label) or 10-column CoNLL-X where form/head/
# label sit in columns 2, 7, 8.


def read_treebank(path):
    sents = []
    tokens, heads, labels = [], [], []
    sent_start = 1

    def flush(line_no):
        if not tokens:
            return
        tree = DependencyTree(heads, labels)
        try:
            tree.validate(single_root=False)
        except DataError as e:
            raise DataError(f"sentence {len(sents) + 1} (line {sent_start}): {e}") from None
        sents.append((list(tokens), tree))
        tokens.clear(), heads.clear(), labels.clear()

    with open(path, encoding="utf-8") as f:
        line_no = 0
        for line_no, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                flush(line_no)
                continue
            if line.lstrip().startswith("#"):
                continue
            cols = line.split("\t") if "\t" in line else line.split()
            if len(cols) == 4:
                idx_s, form, head_s, label = cols
            elif len(cols) == 10:
                idx_s, form, head_s, label = cols[0], cols[1], cols[6], cols[7]
            else:
                raise DataError(f"line {line_no}: expected 4 or 10 columns, got {len(cols)}")
            if not tokens:
                sent_start = line_no
            try:
                idx, head = int(idx_s), int(head_s)
            except ValueError:
                raise DataError(f"line {line_no}: non-integer index or head") from None
            if idx != len(tokens) + 1:
                raise DataError(f"line {line_no}: token index {idx}, expected {len(tokens) + 1}")
            tokens.append(form)
            heads.append(head)
            labels.append(label)
        flush(line_no + 1)
    if not sents:
        raise DataError(f"{path}: no sentences")
    return sents


def write_treebank(path, sents, columns=4):
    if columns not in (4, 10):
        raise ValueError("columns must be 4 or 10")
    with open(path, "w", encoding="utf-8") as f:
        for tokens, tree in sents:
            for i, tok in enumerate(tokens):
                h, lab = tree.heads[i], tree.labels[i]
                if columns == 4:
                    f.write(f"{i + 1}\t{tok}\t{h}\t{lab}\n")
                else:
                    f.write(f"{i + 1}\t{tok}\t_\t_\t_\t_\t{h}\t{lab}\t_\t_\n")
            f.write("\n")


# ---------------------------------------------------------------------------
# Projective decoding (Eisner first-order).
#
# Chart items carry (score, heads) where heads is the tuple of head choices for
# the item's decided positions in surface order. On score ties the
# lexicographically smallest heads tuple wins, which prefers lower head indices
# at the first position where candidates differ. Merging two adjacent items
# concatenates their tuples in position order, so the local preference is the
# global one.


def _better(cand, best):
    if best is None:
        return True
    if cand[0] != best[0]:
        return cand[0] > best[0]
    return cand[1] < best[1]


def decode_projective(scores):
    """Maximum projective tree for an ArcScores or a raw (n+1) x n matrix."""
    matrix = scores.matrix if isinstance(scores, ArcScores) else np.asarray(scores, dtype=float)
    n = matrix.shape[1]
    if n == 0:
        raise ValueError("cannot decode an empty sentence")
    if matrix.shape[0] != n + 1:
        raise ShapeError(f"score matrix must be (n+1) x n, got {matrix.shape}")

    def s(h, d):
        return matrix[h, d - 1]

    empty = (0.0, ())
    CR = {(i, i): empty for i in range(n + 1)}  # complete, head at left end
    CL = {(i, i): empty for i in range(n + 1)}  # complete, head at right end
    IR, IL = {}, {}  # incomplete: arc left->right / right->left

    for width in range(1, n + 1):
        for i in range(0, n + 1 - width):
            j = i + width
            # incomplete items attach the arc between the endpoints
            if i >= 1:
                best_r, best_l = None, None
                for k in range(i, j):
                    left, right = CR[i, k], CL[k + 1, j]
                    inner = left[1] + right[1]
                    base = left[0] + right[0]
                    cand_r = (base + s(i, j), inner + (i,))
                    if _better(cand_r, best_r):
                        best_r = cand_r
                    cand_l = (base + s(j, i), (j,) + inner)
                    if _better(cand_l, best_l):
                        best_l = cand_l
                IR[i, j], IL[i, j] = best_r, best_l
            else:
                # single-root constraint: the root arc closes over 1..j whole
                left = CL[1, j]
                IR[0, j] = (left[0] + s(0, j), left[1] + (0,))
            # complete items extend past the inner head
            best_cr = None
            for k in range(i + 1, j + 1):
                a, b = IR[i, k], CR[k, j]
                cand = (a[0] + b[0], a[1] + b[1])
                if _better(cand, best_cr):
                    best_cr = cand
            CR[i, j] = best_cr
            if i >= 1:
                best_cl = None
                for k in range(i, j):
                    a, b = CL[i, k], IL[k, j]
                    cand = (a[0] + b[0], a[1] + b[1])
                    if _better(cand, best_cl):
                        best_cl = cand
                CL[i, j] = best_cl

    # the winning tuple lists, for positions 1..n in order, each one's head
    _, heads = CR[0, n]
    tree = DependencyTree(list(heads))
    if isinstance(scores, ArcScores) and scores.label_names is not None:
        tree.labels = scores.best_labels(heads)
    return tree


# ---------------------------------------------------------------------------
# Model


class ArcScores:
    """Arc score matrix plus optional label scoring hooks.

    matrix: numpy (n+1) x n, row = head (0 is root), column d-1 = dependent d.
    Self-arcs hold -inf. tensor: same scores on the tape with a -1e9 self-arc
    mask, used for the training loss.
    """

    def __init__(self, matrix, tensor=None, label_fn=None, label_names=None):
        self.matrix = matrix
        self.tensor = tensor
        self._label_fn = label_fn
        self.label_names = label_names
        self.n = matrix.shape[1]

    def label_scores(self, heads):
        """Tensor of label scores, one row per token, for the given head choice."""
        if self._label_fn is None:
            raise ValueError("scores were built without a label scorer")
        return self._label_fn(heads)

    def best_labels(self, heads):
        data = self.label_scores(heads).data
        return [self.label_names[i] for i in np.argmax(data, axis=1)]


class ParserModel:
    """Word embeddings, stacked Bi-LSTM encoder, and biaffine scorers."""

    def __init__(self, vocab, label_names, embed_dim=64, hidden_dim=100,
                 mlp_dim=100, layers=3, seed=1):
        self.vocab = dict(vocab)  # token -> id; must contain "<unk>"
        if "<unk>" not in self.vocab:
            raise ValueError('parser vocabulary must contain "<unk>"')
        self.label_names = list(label_names)
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.mlp_dim = mlp_dim
        self.layers = layers
        self.out_dim = 2 * hidden_dim
        self.table = nn.ParamTable()
        rng = T.make_rng(seed)
        t, s = self.table, 0.1
        t.add("emb", T.init_uniform((len(self.vocab), embed_dim), -s, s, rng=rng))
        self.cells = []
        for layer in range(layers):
            in_dim = embed_dim if layer == 0 else 2 * hidden_dim
            fwd = nn.LstmParams(t, f"enc.l{layer}.fwd", in_dim, hidden_dim, rng, scale=s)
            bwd = nn.LstmParams(t, f"enc.l{layer}.bwd", in_dim, hidden_dim, rng, scale=s)
            self.cells.append((fwd, bwd))
        t.add("root", T.init_uniform((1, self.out_dim), -s, s, rng=rng))
        for part in ("arc", "lab"):
            for side in ("head", "dep"):
                t.add(f"{part}.{side}.W", T.init_uniform((self.out_dim, mlp_dim), -s, s, rng=rng))
                t.add(f"{part}.{side}.b", T.Tensor(np.zeros((1, mlp_dim)), requires_grad=True))
        t.add("arc.U", T.init_uniform((mlp_dim + 1, mlp_dim), -s, s, rng=rng))
        for i in range(len(self.label_names)):
            t.add(f"lab.U.{i}", T.init_uniform((mlp_dim + 1, mlp_dim + 1), -s, s, rng=rng))

    def word_ids(self, tokens):
        unk = self.vocab["<unk>"]
        return [self.vocab.get(tok, unk) for tok in tokens]

    def encode_positions(self, id_matrix):
        """Run the stacked encoder over a [B, n] id matrix.

        Returns a list of n tensors [B, 2*hidden]. All sentences in the batch
        must share the same true length (no padding).
        """
        B, n = id_matrix.shape
        emb = self.table["emb"]
        seq = [T.take_rows(emb, id_matrix[:, i]) for i in range(n)]
        for fwd, bwd in self.cells:
            seq = nn.birnn_encode(seq, fwd, bwd)
        return seq

    def save(self, path):
        state = self.table.state_dict()
        meta = {
            "vocab": self.vocab, "labels": self.label_names,
            "embed_dim": self.embed_dim, "hidden_dim": self.hidden_dim,
            "mlp_dim": self.mlp_dim, "layers": self.layers,
        }
        state["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        save_checkpoint(path, state)

    @classmethod
    def load(cls, path):
        state = load_checkpoint(path)
        meta = pop_meta(state, path)
        model = cls(meta["vocab"], meta["labels"], embed_dim=meta["embed_dim"],
                    hidden_dim=meta["hidden_dim"], mlp_dim=meta["mlp_dim"],
                    layers=meta["layers"])
        model.table.load_state(state)
        return model


def parser_encode(tokens, model):
    """Encode one sentence; returns the [n, out_dim] top-layer state matrix."""
    if len(tokens) == 0:
        raise ValueError("cannot encode an empty sentence")
    ids = np.asarray([model.word_ids(tokens)])  # [1, n]
    seq = model.encode_positions(ids)
    return T.concat(seq, axis=0)  # row i = token i


def _append_ones(x):
    return T.concat([x, T.constant(np.ones((x.shape[0], 1)))], axis=1)


def score_arcs(enc, model):
    """Biaffine arc scores over an encoded sentence.

    enc: [n, out_dim] tensor from parser_encode. Returns ArcScores whose label
    scorer evaluates one bilinear form per dependency label on chosen arcs.
    """
    n = enc.shape[0]
    if n == 0:
        raise ValueError("empty encoding")
    t = model.table
    with_root = T.concat([t["root"], enc], axis=0)  # [n+1, out_dim]

    def mlp(part, side, src):
        return T.tanh(nn.linear(src, t[f"{part}.{side}.W"], t[f"{part}.{side}.b"]))

    g_head = _append_ones(mlp("arc", "head", with_root))     # [n+1, m+1]
    g_dep = mlp("arc", "dep", enc)                           # [n, m]
    arc = T.matmul(T.matmul(g_head, t["arc.U"]), T.transpose(g_dep))  # [n+1, n]

    self_mask = np.zeros((n + 1, n))
    for d in range(1, n + 1):
        self_mask[d, d - 1] = -1e9
    arc_masked = T.add(arc, T.constant(self_mask))

    l_head = _append_ones(mlp("lab", "head", with_root))     # [n+1, m+1]
    l_dep = _append_ones(mlp("lab", "dep", enc))             # [n, m+1]

    def label_fn(heads):
        rows = T.take_rows(l_head, heads)  # [n, m+1]
        cols = []
        for i in range(len(model.label_names)):
            prod = T.mul(T.matmul(rows, t[f"lab.U.{i}"]), l_dep)
            cols.append(T.sum_axis(prod, axis=1))
        return T.concat(cols, axis=1)  # [n, L]

    matrix = arc_masked.data.copy()
    for d in range(1, n + 1):
        matrix[d, d - 1] = -np.inf
    return ArcScores(matrix, tensor=arc_masked, label_fn=label_fn,
                     label_names=model.label_names)


def tree_log_loss(scores, tree, model):
    """Summed head + label cross-entropy for one sentence's gold tree."""
    gold_heads = list(tree.heads)
    # head loss: softmax over candidate heads, one distribution per dependent
    per_dep = T.log_softmax(T.transpose(scores.tensor), axis=1)  # [n, n+1]
    head_nll = T.scale(T.sum_all(T.pick(per_dep, gold_heads)), -1.0)
    # label loss on gold arcs
    label_ids = [model.label_names.index(lab) for lab in tree.labels]
    lab_logp = T.log_softmax(scores.label_scores(gold_heads), axis=1)
    lab_nll = T.scale(T.sum_all(T.pick(lab_logp, label_ids)), -1.0)
    return T.add(head_nll, lab_nll)


# ---------------------------------------------------------------------------
# Training and evaluation


def build_parser_vocab(sents):
    counts = Counter(tok for tokens, _ in sents for tok in tokens)
    vocab = {"<unk>": 0}
    for tok, _ in counts.most_common():
        vocab.setdefault(tok, len(vocab))
    return vocab


def _length_batches(indices, lengths, batch_size, rng):
    groups = {}
    for i in indices:
        groups.setdefault(lengths[i], []).append(i)
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
        raise ValueError("no usable sentences after the non-projective policy")

    labels = sorted({lab for _, tree in prepared for lab in tree.labels})
    vocab = build_parser_vocab(prepared)
    model = ParserModel(vocab, labels, embed_dim=embed_dim, hidden_dim=hidden_dim,
                        mlp_dim=mlp_dim, layers=layers, seed=seed)
    opt = nn.Adam(model.table, lr=lr, clip=clip)
    rng = T.make_rng(seed + 1)
    lengths = [len(tokens) for tokens, _ in prepared]
    ids = [np.asarray(model.word_ids(tokens)) for tokens, _ in prepared]

    history = []
    for epoch in range(epochs):
        total_nll, total_tokens = 0.0, 0
        for batch in _length_batches(list(range(len(prepared))), lengths, batch_size, rng):
            id_matrix = np.stack([ids[i] for i in batch])
            with T.Tape():
                positions = model.encode_positions(id_matrix)
                losses = []
                for row, i in enumerate(batch):
                    enc = T.concat([T.take_rows(p, [row]) for p in positions], axis=0)
                    scores = score_arcs(enc, model)
                    losses.append(tree_log_loss(scores, prepared[i][1], model))
                n_tokens = sum(lengths[i] for i in batch)
                loss = T.scale(T.add_many(losses) if len(losses) > 1 else losses[0],
                               1.0 / n_tokens)
                T.backward(loss)
            opt.step()
            total_nll += loss.item() * n_tokens
            total_tokens += n_tokens
        history.append(total_nll / total_tokens)
        if log:
            log(epoch, history[-1])
    return model, history


def parse_sentence(tokens, model):
    enc = parser_encode(tokens, model)
    return decode_projective(score_arcs(enc, model))


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
