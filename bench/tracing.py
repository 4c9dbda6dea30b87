"""Span tracing from outside the program: wrap layer entry points, record spans.

A Tracer replaces each traced function with a wrapper, at every place the
function is looked up: the defining module, every synmt module that bound it
with `from ... import`, or the class for methods. While installed, each call
records a span (name, start, end, parent span, op id) and, at some
boundaries, a counter. Spans stay in memory until the run writes them out.

A span's self time is its duration minus the durations of its direct
children. Calls are strictly nested (synmt is single-threaded), so the self
times of all spans under one root add up to the root's duration.
"""

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("tensor", "nn", "seq2seq", "syntax", "depparse", "data", "evaluate",
          "checkpoint", "cli")

# (span name, defining module, attribute path). A span name's first part is
# its layer.
TRACED = [
    ("cli.main", "synmt.cli", "main"),
    ("tensor.backward", "synmt.tensor", "backward"),
    ("nn.birnn_encode", "synmt.nn", "birnn_encode"),
    ("nn.adam", "synmt.nn", "Adam.step"),
    ("seq2seq.train_step", "synmt.seq2seq", "train_step"),
    ("seq2seq.sequence_loss", "synmt.seq2seq", "sequence_loss"),
    ("seq2seq.beam_search", "synmt.seq2seq", "beam_search"),
    ("seq2seq.encode_for_decode", "synmt.seq2seq", "encode_for_decode"),
    ("seq2seq.decode_step", "synmt.seq2seq", "decode_step"),
    ("syntax.tree_gru", "synmt.syntax", "tree_gru_encode_batch"),
    ("syntax.extract_sawr", "synmt.syntax", "extract_sawr"),
    ("syntax.write_sawr_cache", "synmt.syntax", "write_sawr_cache"),
    ("syntax.read_sawr_cache", "synmt.syntax", "read_sawr_cache"),
    ("depparse.train_parser", "synmt.depparse", "train_parser"),
    ("depparse.read_treebank", "synmt.depparse", "read_treebank"),
    ("depparse.parse_sentence", "synmt.depparse", "parse_sentence"),
    ("depparse.parser_encode", "synmt.depparse", "parser_encode"),
    ("depparse.encode_positions", "synmt.depparse", "ParserModel.encode_positions"),
    ("depparse.score_arcs", "synmt.depparse", "score_arcs"),
    ("depparse.eisner", "synmt.depparse", "decode_projective"),
    ("data.read_corpus", "synmt.data", "read_corpus"),
    ("data.build_vocab", "synmt.data", "build_vocab"),
    ("data.learn_bpe", "synmt.data", "learn_bpe"),
    ("data.apply_bpe", "synmt.data", "apply_bpe"),
    ("data.filter_and_batch", "synmt.data", "filter_and_batch"),
    ("data.linearize_tree", "synmt.data", "linearize_tree"),
    ("evaluate.bleu", "synmt.evaluate", "bleu"),
    ("evaluate.ensemble_decode", "synmt.evaluate", "ensemble_decode"),
    ("checkpoint.save", "synmt.checkpoint", "save_checkpoint"),
    ("checkpoint.load", "synmt.checkpoint", "load_checkpoint"),
    ("checkpoint.sha256", "synmt.checkpoint", "file_sha256"),
]

DECODE_OPS = ("seq2seq.beam_search", "evaluate.ensemble_decode")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, ok]
        self.stack = []  # indexes of open spans
        self.ops = 0
        self.counters = defaultdict(float)
        self.eisner_ms = []
        self.decodes = []  # (beam, steps, hypothesis length) per decoded sentence
        self._decode_stack = []
        self._patches = []
        self._signatures = {}

    # -- patching -------------------------------------------------------

    def install(self):
        """Wrap every traced function wherever synmt looks it up."""
        for name, module, path in TRACED:
            owner = sys.modules[module]
            for part in path.split(".")[:-1]:
                owner = getattr(owner, part)
            attr = path.split(".")[-1]
            original = getattr(owner, attr)
            self._signatures[name] = inspect.signature(original)
            wrapped = self._wrap(name, original)
            targets = [owner]
            if inspect.ismodule(owner):
                targets += [m for key, m in list(sys.modules.items())
                            if key.startswith("synmt.") and m is not owner
                            and getattr(m, attr, None) is original]
            for target in targets:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapped)

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def patched_sites(self):
        """(owner name, attribute) of every site a wrapper was installed at."""
        return [(getattr(t, "__name__", str(t)), a) for t, a, _ in self._patches]

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name, args, kwargs)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = not (name == "cli.main" and out != 0)
                return out
            finally:
                end = time.perf_counter()
                tracer._close(idx, end, ok, args, kwargs,
                              out if ok else None)
        return wrapper

    # -- spans and counters ----------------------------------------------

    def _open(self, name, args, kwargs):
        if not self.stack:
            self.ops += 1
        parent = self.stack[-1] if self.stack else -1
        if name == "tensor.backward":
            self.counters["tensor.backward_calls"] += 1
            self.counters["tensor.tape_nodes"] += len(args[0].tape)
        elif name == "seq2seq.decode_step" and self._decode_stack:
            self._decode_stack[-1]["calls"] += 1
        elif name in DECODE_OPS:
            bound = self._signatures[name].bind(*args, **kwargs).arguments
            members = len(bound["models"]) if "models" in bound else 1
            self._decode_stack.append({"beam": bound["beam_size"], "calls": 0,
                                       "members": members})
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.ops, True])
        self.stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx, end, ok, args, kwargs, out):
        span = self.spans[idx]
        span[2] = end
        span[5] = ok
        self.stack.pop()
        name = span[0]
        if name in DECODE_OPS:
            op = self._decode_stack.pop()
            # a one-member ensemble delegates to beam_search, which records it
            if ok and op["calls"]:
                self.decodes.append((op["beam"], op["calls"] / op["members"],
                                     len(out.ids)))
        elif name == "depparse.eisner":
            self.eisner_ms.append(1000.0 * (end - span[1]))
        elif name == "checkpoint.save" and ok:
            self.counters["checkpoint.bytes_written"] += os.path.getsize(args[0])
        elif name == "data.filter_and_batch" and ok:
            for b in out:
                self.counters["data.batch_positions"] += b.src.size + b.tgt.size
                self.counters["data.pad_positions"] += (
                    b.src.size - b.src_lens.sum() + b.tgt.size - b.tgt_lens.sum())

    # -- reduction -------------------------------------------------------

    def self_times(self):
        """Self seconds per span index."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def root_residuals(self):
        """Per root span: its duration minus the summed self times beneath it.

        Zero up to rounding when every span nests inside its parent.
        """
        own = self.self_times()
        total = defaultdict(float)
        root_of = {}
        for i, s in enumerate(self.spans):
            root_of[i] = i if s[3] < 0 else root_of[s[3]]
            total[root_of[i]] += own[i]
        return [self.spans[r][2] - self.spans[r][1] - t for r, t in total.items()]

    def layer_metrics(self, passes):
        """Per-layer metrics, with counts and seconds given per pass."""
        own = self.self_times()
        by_name = defaultdict(float)
        calls = defaultdict(int)
        failed = defaultdict(int)
        for s, t in zip(self.spans, own):
            by_name[s[0]] += t
            layer = s[0].split(".")[0]
            calls[layer] += 1
            failed[layer] += not s[5]
        c = self.counters
        per = 1.0 / passes
        m = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = calls[layer] * per
            m[f"{layer}.failed"] = failed[layer] * per

        def secs(*names):
            return sum(by_name[n] for n in names) * per

        m["tensor.backward_s"] = secs("tensor.backward")
        m["tensor.tape_nodes_per_batch"] = (
            c["tensor.tape_nodes"] / c["tensor.backward_calls"]
            if c["tensor.backward_calls"] else 0.0)
        m["nn.adam_s"] = secs("nn.adam")
        m["nn.birnn_encode_s"] = secs("nn.birnn_encode")
        m["seq2seq.loss_forward_s"] = secs("seq2seq.sequence_loss")
        m["seq2seq.decode_step_s"] = secs("seq2seq.decode_step")
        m["seq2seq.beam_search_s"] = secs("seq2seq.beam_search")
        for beam in (1, 5):
            rows = [d for d in self.decodes if d[0] == beam]
            steps = sum(d[1] for d in rows)
            m[f"seq2seq.decoder_steps_per_sent.beam{beam}"] = (
                steps / len(rows) if rows else 0.0)
            m[f"seq2seq.useful_step_frac.beam{beam}"] = (
                sum(d[2] for d in rows) / steps if steps else 0.0)
            m[f"seq2seq.decoded_sents.beam{beam}"] = len(rows) * per
        m["syntax.tree_gru_s"] = secs("syntax.tree_gru")
        m["syntax.extract_sawr_s"] = secs("syntax.extract_sawr")
        m["syntax.cache_io_s"] = secs("syntax.write_sawr_cache",
                                      "syntax.read_sawr_cache")
        m["depparse.parser_encode_s"] = secs("depparse.parser_encode",
                                             "depparse.encode_positions")
        m["depparse.score_arcs_s"] = secs("depparse.score_arcs")
        m["depparse.eisner_s"] = secs("depparse.eisner")
        m["depparse.eisner_ms_p50"] = _quantile(self.eisner_ms, 0.5)
        m["depparse.eisner_ms_p90"] = _quantile(self.eisner_ms, 0.9)
        m["depparse.eisner_samples"] = len(self.eisner_ms) * per
        m["data.prep_s"] = sum(t for n, t in by_name.items()
                               if n.startswith("data.")) * per
        m["data.pad_frac"] = (c["data.pad_positions"] / c["data.batch_positions"]
                              if c["data.batch_positions"] else 0.0)
        m["evaluate.bleu_s"] = secs("evaluate.bleu")
        m["evaluate.ensemble_decode_s"] = secs("evaluate.ensemble_decode")
        m["checkpoint.save_s"] = secs("checkpoint.save")
        m["checkpoint.load_s"] = secs("checkpoint.load")
        m["checkpoint.bytes_written"] = c["checkpoint.bytes_written"] * per
        m["cli.self_s"] = secs("cli.main")
        return m

    def dump(self, path):
        """Write spans as JSON lines: name, start, end, parent, op, ok."""
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.endswith("bytes_written"):
        return "B"
    return "frac" if name.endswith("_frac") else "count"


def _quantile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
