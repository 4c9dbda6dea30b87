"""BLEU scoring, bootstrap significance, length breakdowns, alignments, ensembles.

BLEU follows the classic corpus-level script convention: clipped n-gram
precision up to length 4, brevity penalty exp(1 - ref/hyp) only when the
hypothesis corpus is strictly shorter, no smoothing, and case folding before
matching unless asked otherwise. Single reference per hypothesis.
"""

import json
import warnings

import numpy as np

from . import tensor as T
from .checkpoint import open_new, read_lines
from .data import BOS
from .seq2seq import _run_beam, beam_search, decode_step, encode_for_decode

MAX_ORDER = 4


def _tokens(sentence, fold):
    toks = sentence.split() if isinstance(sentence, str) else list(sentence)
    return [t.lower() for t in toks] if fold else toks


def _sentence_stats(hyp, ref):
    """Per-sentence counts: matches and totals for orders 1..4, then lengths."""
    stats = np.zeros(2 * MAX_ORDER + 2)
    for n in range(1, MAX_ORDER + 1):
        counts = {}
        for i in range(len(ref) - n + 1):
            g = tuple(ref[i:i + n])
            counts[g] = counts.get(g, 0) + 1
        matched = 0
        for i in range(len(hyp) - n + 1):
            g = tuple(hyp[i:i + n])
            if counts.get(g, 0) > 0:
                counts[g] -= 1
                matched += 1
        stats[n - 1] = matched
        stats[MAX_ORDER + n - 1] = max(len(hyp) - n + 1, 0)
    stats[-2] = len(hyp)
    stats[-1] = len(ref)
    return stats


class BleuReport:
    """Corpus BLEU with its parts. score is in [0, 100]; precisions in [0, 1]."""

    def __init__(self, score, precisions, bp, hyp_len, ref_len):
        self.score = score
        self.precisions = tuple(precisions)
        self.bp = bp
        self.hyp_len = int(hyp_len)
        self.ref_len = int(ref_len)

    @property
    def ratio(self):
        return self.hyp_len / self.ref_len if self.ref_len else 0.0

    def __str__(self):
        p = [100.0 * x for x in self.precisions]
        return (f"BLEU = {self.score:.2f}, {p[0]:.1f}/{p[1]:.1f}/{p[2]:.1f}/{p[3]:.1f} "
                f"(BP={self.bp:.3f}, ratio={self.ratio:.3f}, "
                f"hyp_len={self.hyp_len}, ref_len={self.ref_len})")

    def __repr__(self):
        return f"BleuReport({self})"


def _report_from_counts(stats):
    matches, totals = stats[:MAX_ORDER], stats[MAX_ORDER:2 * MAX_ORDER]
    hyp_len, ref_len = stats[-2], stats[-1]
    precisions = [m / t if t > 0 else 0.0 for m, t in zip(matches, totals)]
    if hyp_len == 0:
        return BleuReport(0.0, precisions, 0.0, 0, ref_len)
    bp = 1.0 if hyp_len >= ref_len else float(np.exp(1.0 - ref_len / hyp_len))
    if min(precisions) > 0.0:
        score = 100.0 * bp * float(np.exp(sum(np.log(p) for p in precisions) / MAX_ORDER))
    else:
        score = 0.0
    return BleuReport(score, precisions, bp, hyp_len, ref_len)


def _stat_matrix(hyps, refs, fold):
    if len(hyps) != len(refs):
        raise ValueError(f"{len(hyps)} hypotheses against {len(refs)} references")
    if not hyps:
        raise ValueError("nothing to score")
    return np.stack([_sentence_stats(_tokens(h, fold), _tokens(r, fold))
                     for h, r in zip(hyps, refs)])


def bleu(hyps, refs, case_sensitive=False):
    """Corpus BLEU over aligned sentence lists (strings or token lists)."""
    stats = _stat_matrix(hyps, refs, fold=not case_sensitive)
    return _report_from_counts(stats.sum(axis=0))


def bootstrap_significance(hyps_a, hyps_b, refs, samples=1000, seed=0,
                           case_sensitive=False):
    """Paired bootstrap: p = fraction of resamples where the system that
    scores lower on the full set wins or ties. Small p means the gap is real.
    """
    if samples < 100:
        raise ValueError("use at least 100 bootstrap samples")
    fold = not case_sensitive
    stats_a = _stat_matrix(hyps_a, refs, fold)
    stats_b = _stat_matrix(hyps_b, refs, fold)
    full_a = _report_from_counts(stats_a.sum(axis=0)).score
    full_b = _report_from_counts(stats_b.sum(axis=0)).score
    a_is_lower = full_a <= full_b
    rng = T.make_rng(seed)
    n = len(hyps_a)
    wins = 0
    for _ in range(samples):
        idx = rng.integers(0, n, size=n)
        sa = _report_from_counts(stats_a[idx].sum(axis=0)).score
        sb = _report_from_counts(stats_b[idx].sum(axis=0)).score
        if a_is_lower:
            wins += sa >= sb
        else:
            wins += sb >= sa
    return wins / samples


class LengthBin:
    """One source-length interval: [lo, hi) with hi=None for the open tail."""

    def __init__(self, lo, hi, count, report):
        self.lo, self.hi, self.count, self.report = lo, hi, count, report

    def __repr__(self):
        tail = "+" if self.hi is None else f"-{self.hi}"
        return f"LengthBin({self.lo}{tail}, n={self.count})"


def bleu_by_length(hyps, refs, sources, bin_edges, case_sensitive=False):
    """Corpus BLEU within source-length bins.

    bin_edges [e1 < e2 < ...] produce len(edges)+1 bins; a sentence whose
    length equals an edge lands in the upper bin. Empty bins get report=None.
    """
    edges = list(bin_edges)
    if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("bin edges must be strictly ascending and non-empty")
    if not len(hyps) == len(refs) == len(sources):
        raise ValueError(f"{len(hyps)} hyps / {len(refs)} refs / {len(sources)} sources")
    member = [[] for _ in range(len(edges) + 1)]
    for i, src in enumerate(sources):
        length = len(_tokens(src, fold=False))
        member[int(np.searchsorted(edges, length, side="right"))].append(i)
    bins = []
    for k, idx in enumerate(member):
        lo = 0 if k == 0 else edges[k - 1]
        hi = edges[k] if k < len(edges) else None
        report = (bleu([hyps[i] for i in idx], [refs[i] for i in idx],
                       case_sensitive=case_sensitive) if idx else None)
        bins.append(LengthBin(lo, hi, len(idx), report))
    return bins


# ---------------------------------------------------------------------------
# Attention alignment dumping


class AlignmentRecord:
    """Greedy decode of one sentence with its per-step attention rows."""

    def __init__(self, sent_id, src, tgt, attn):
        self.id = sent_id
        self.src = list(src)
        self.tgt = list(tgt)
        self.attn = [list(map(float, row)) for row in attn]

    def to_json(self):
        return json.dumps({"id": self.id, "src": self.src, "tgt": self.tgt,
                           "attn": self.attn})


def dump_alignments(model, sources, src_vocab, tgt_vocab, max_len=100,
                    trees=None, encodings=None):
    """Greedy-decode each source; one AlignmentRecord per non-empty sentence.

    tgt keeps every emitted token (EOS included) so len(tgt) == len(attn).
    The attention rows come from feeding the greedy output back through the
    decoder: the same batch-1 steps the search ran, so the same rows.
    """
    records = []
    for i, sentence in enumerate(sources):
        tokens = _tokens(sentence, fold=False)
        if not tokens:
            warnings.warn(f"sentence {i} is empty, skipping its alignment")
            continue
        ids = src_vocab.ids(tokens)
        tree = trees[i] if trees is not None else None
        encoding = encodings[i] if encodings is not None else None
        hyp = beam_search(ids, model, 1, max_len, tree=tree, encoding=encoding)
        memory, s = encode_for_decode(model, ids, tree=tree, encoding=encoding)
        c = T.zeros((1, model.hidden_dim))
        attn = []
        for y in [BOS] + hyp.ids[:-1]:
            _, s, c, alpha = decode_step(y, c, s, memory, model)
            attn.append(alpha.data[0])
        records.append(AlignmentRecord(
            i, tokens, tgt_vocab.tokens(hyp.ids, strip_reserved=False), attn))
    return records


def write_alignments(records, path):
    with open_new(path) as f:
        for rec in records:
            f.write(rec.to_json() + "\n")


def read_alignments(path):
    out = []
    for line in read_lines(path):
        d = json.loads(line)
        out.append(AlignmentRecord(d["id"], d["src"], d["tgt"], d["attn"]))
    return out


# ---------------------------------------------------------------------------
# Ensemble decoding


def ensemble_decode(models, sources, beam_size, max_len, trees=None, encodings=None):
    """Beam search over the arithmetic mean of the models' distributions.

    sources holds one id sequence per model, since vocabularies may differ
    across modes (tree-linearized inputs). trees and encodings are
    per-model lists when given; a sawr model reads its parser's states or
    cached SAWR rows from encodings. The mean over a single model is that
    model's distribution, so one member decodes exactly as beam_search does.
    """
    if not models:
        raise ValueError("ensemble needs at least one model")
    sizes = {m.tgt_vocab_size for m in models}
    if len(sizes) != 1:
        raise ValueError(f"models disagree on target vocabulary size: {sorted(sizes)}")
    k = len(models)
    return _run_beam(models, sources, trees or [None] * k, encodings or [None] * k,
                     beam_size, max_len)
