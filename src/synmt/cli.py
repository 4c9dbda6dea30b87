"""Command-line front end: one executable, nine subcommands.

Every run validates its configuration before touching any data, performs one
well-defined piece of work, and records what it did in a JSON manifest next
to the primary output (out + ".manifest.json"): the full config snapshot, a
sha256 for each artifact written, the process's peak resident memory, and
for training runs the per-epoch trace.

Exit codes: 0 success, 1 configuration error, 2 data/path error, 3 anything
else that fails at runtime.
"""

import argparse
import functools
import json
import sys
import time
from collections import Counter
from datetime import datetime, timezone

import numpy as np

try:
    import resource
except ImportError:  # not on every platform; the manifest then omits peak_rss_mb
    resource = None

from . import nn
from .checkpoint import file_sha256, open_new, read_lines
from .config import SCHEMA, read_config, validate_config
from .data import (EOS, apply_bpe, build_vocab, decode_bpe, filter_and_batch, learn_bpe,
                   linearize_tree, read_corpus)
from .depparse import (ParserModel, evaluate_las, normalize_root, parse_sentence,
                       projectivize, read_treebank, train_parser)
from .errors import ConfigError, DataError
from .evaluate import (bleu, bleu_by_length, bootstrap_significance,
                       dump_alignments, ensemble_decode, write_alignments)
from .seq2seq import TranslationModel, beam_search, train_step
from .syntax import extract_sawr, read_sawr_cache, write_sawr_cache

# config mode -> TranslationModel mode
MODEL_MODE = {"baseline": "none", "sawr": "sawr", "sawr-tuned": "sawr",
              "tree-rnn": "tree-rnn", "tree-linearized": "tree-linearized"}


class RunManifest:
    """Append-only record of one command run.

    Epoch entries and artifact hashes are only ever added, never rewritten;
    the file on disk is refreshed after each addition so a crash still leaves
    an accurate partial record. Every artifact a run writes appears in
    exactly one entry, keyed by path, with its content hash.
    """

    def __init__(self, command, cfg):
        self.data = {
            "command": command,
            "started": _now(),
            "config": cfg.to_dict(),
            "epochs": [],
            "artifacts": {},
        }
        self.path = None

    def attach(self, out_path):
        self.path = out_path + ".manifest.json"

    def add_epoch(self, **entry):
        self.data["epochs"].append(entry)
        self.flush()

    def add_artifact(self, path):
        if path in self.data["artifacts"]:
            raise ValueError(f"artifact {path} recorded twice")
        self.data["artifacts"][path] = file_sha256(path)

    def note(self, key, value):
        self.data[key] = value

    def flush(self):
        if self.path is None:
            return
        body = dict(self.data)
        body["updated"] = _now()
        if resource is not None:  # ru_maxrss is in KiB on Linux
            body["peak_rss_mb"] = round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        with open_new(self.path) as f:
            json.dump(body, f, indent=2)
            f.write("\n")


def _now():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _grad_stats(norms, clip):
    """An epoch's gradient norms before clipping: median, max, and the share
    of updates that clipping scaled down (Adam clips when norm > clip)."""
    return {"grad_norm": {"median": float(np.median(norms)), "max": max(norms)},
            "clipped_frac": sum(n > clip for n in norms) / len(norms)}


# ---------------------------------------------------------------------------
# Shared plumbing


def _require(cfg, command, *names):
    for name in names:
        if not getattr(cfg, name):
            raise ConfigError(f"command '{command}' requires the '{name}' field")


def _write_lines(path, lines):
    with open_new(path) as f:
        for line in lines:
            f.write(line + "\n")


def _read_aligned(*paths):
    """Each file's lines; the files must hold the same number of lines, and
    at least one, or it is a DataError that names them."""
    texts = [read_lines(p) for p in paths]
    counts = [len(t) for t in texts]
    if len(set(counts)) > 1 or not counts[0]:
        listing = ", ".join(f"{p} ({n} lines)" for p, n in zip(paths, counts))
        raise DataError(f"inputs must be aligned, non-empty line files: {listing}")
    return texts


def _load_trees(path, src_sents):
    """Treebank aligned 1:1 with a source corpus, projectivized as needed."""
    bank = read_treebank(path)
    if len(bank) != len(src_sents):
        raise DataError(f"{path}: {len(bank)} parses for {len(src_sents)} source sentences")
    trees = []
    for i, ((toks, tree), sent) in enumerate(zip(bank, src_sents)):
        if toks != sent:
            raise DataError(f"{path} sentence {i + 1}: tokens differ from the source corpus")
        tree = normalize_root(tree)
        if not tree.is_projective():
            tree = projectivize(tree)
        trees.append(tree)
    return trees


def _trees_for(path, src_sents, parser, field):
    """Parses for a corpus: from an aligned treebank file, else by parsing."""
    if path:
        return _load_trees(path, src_sents)
    if parser is None:
        raise ConfigError(f"tree-structured inputs need '{field}' (an aligned "
                          f"treebank) or 'parser' (a checkpoint to parse with)")
    return _parse_corpus(src_sents, parser)


def _parse_corpus(sents, parser):
    """A tree per sentence (None for an empty line) from extract_sawr's states."""
    return [enc if enc is None else parse_sentence(toks, parser, enc)
            for toks, enc in zip(sents, extract_sawr(parser, sents))]


def _source_units(mode, toks, tree):
    """The source symbols a mode reads: a linearized tree, else the tokens."""
    return linearize_tree(toks, tree) if mode == "tree-linearized" else toks


def _parser_encodings(models, sents, encodings):
    """encodings (one list or None per model), a parser model's None replaced
    by extract_sawr's states of sents under its parser."""
    return [extract_sawr(m.parser, sents) if m.parser is not None and e is None else e
            for m, e in zip(models, encodings)]


def _read_cache(path, sents, parser_hash=None, widths=(), keep=None):
    """The SAWR encodings at path, checked against sents, the corpus they
    align with: one record per sentence, each [len(sentence), width] for
    every width in widths (the first record's width when none is known).
    keep, when given, lists the sentences in use; the cache may then align
    with those alone, and only their records come back. A mismatch is a
    DataError naming the cache, the record and both shapes."""
    encodings, _ = read_sawr_cache(path, parser_hash)
    if keep is not None and len(encodings) != len(sents):
        sents, keep = [sents[i] for i in keep], None
    if len(encodings) != len(sents):
        raise DataError(f"{path}: {len(encodings)} encodings for {len(sents)} sentences")
    for i, (enc, toks) in enumerate(zip(encodings, sents)):
        for width in widths or [encodings[0].shape[1]]:
            if enc.shape != (len(toks), width):
                raise DataError(f"{path} record {i}: shape {enc.shape}, "
                                f"expected {(len(toks), width)}")
    return encodings if keep is None else [encodings[i] for i in keep]


@np.errstate(over="raise", invalid="raise")
def _decode_corpus(models, sents, beam_size, max_len, trees, encodings):
    """Translate token lists back into detokenized text lines.

    One model decodes with beam_search, several with ensemble_decode over
    the mean of their distributions. Each model gets the tree and the
    encoding of a sentence and reads what its mode needs, in the ids of its
    own source vocabulary; the first model's target vocabulary, which every
    member shares, spells the output.
    trees (or None) align with sents; encodings holds one such list (or
    None) per model, completed by _parser_encodings. Empty source lines come
    back as empty output lines so file alignment survives.

    Returns (lines, stats); stats counts the decoded sentences, the decoder
    steps they took, the tokens they emitted (EOS included) and how many
    searches stopped before max_len with hypotheses still live. An overflow
    or invalid operation raises FloatingPointError rather than decoding from
    non-finite values.
    """
    encodings = _parser_encodings(models, sents, encodings)
    tgt_vocab = models[0].vocabs[1]
    out = []
    stats = {"sentences": 0, "decoder_steps": 0, "emitted_tokens": 0, "stopped_early": 0}
    for i, toks in enumerate(sents):
        if not toks:
            out.append("")
            continue
        tree = trees[i] if trees is not None else None
        sources = [m.vocabs[0].ids(_source_units(m.mode, toks, tree)) for m in models]
        encs = [e[i] if e is not None else None for e in encodings]
        if len(models) == 1:
            hyp = beam_search(sources[0], models[0], beam_size, max_len,
                              tree=tree, encoding=encs[0])
        else:
            hyp = ensemble_decode(models, sources, beam_size, max_len,
                                  trees=[tree] * len(models), encodings=encs)
        out.append(" ".join(decode_bpe(tgt_vocab.tokens(hyp.ids))))
        stats["sentences"] += 1
        stats["decoder_steps"] += hyp.steps
        stats["emitted_tokens"] += len(hyp.ids)
        stats["stopped_early"] += hyp.stopped_early
    return out, stats


def _load_translator(path):
    """The translation model at path, with the vocabularies it decodes with."""
    model = TranslationModel.load(path)
    if model.vocabs is None:
        raise DataError(f"{path}: no vocabularies in __meta__")
    return model


# ---------------------------------------------------------------------------
# Commands


def _cmd_train_parser(cfg, man):
    _require(cfg, "train-parser", "treebank", "out")
    sents = read_treebank(cfg.treebank)
    dev = read_treebank(cfg.dev_treebank) if cfg.dev_treebank else None

    trace = []
    clock = [time.perf_counter()]

    def log(epoch, loss, norms):
        now = time.perf_counter()
        entry = {"epoch": epoch + 1, "train_loss": loss,
                 **_grad_stats(norms, cfg.clip_norm),
                 "seconds": round(now - clock[0], 3)}
        clock[0] = now
        trace.append(entry)
        man.add_epoch(**entry)
        print(f"epoch {epoch + 1}: loss {loss:.4f}")

    model, _ = train_parser(
        sents, embed_dim=cfg.parser_embed, hidden_dim=cfg.parser_hidden,
        mlp_dim=cfg.parser_mlp, layers=cfg.parser_layers, epochs=cfg.parser_epochs,
        lr=cfg.parser_lr, clip=cfg.clip_norm, batch_size=cfg.parser_batch,
        seed=cfg.seed, nonprojective=cfg.nonprojective, log=log)
    model.save(cfg.out)
    man.add_artifact(cfg.out)

    if dev:
        gold = [normalize_root(tree) for _, tree in dev]
        pred = _parse_corpus([toks for toks, _ in dev], model)
        uas, las = evaluate_las(pred, gold)
        man.note("dev", {"uas": uas, "las": las})
        print(f"dev UAS {uas:.4f}, LAS {las:.4f}")
    print(f"saved parser to {cfg.out}")


def _cmd_extract_sawr(cfg, man):
    _require(cfg, "extract-sawr", "parser", "src", "out")
    parser = ParserModel.load(cfg.parser)
    corpus = read_corpus(cfg.src)
    for i, toks in enumerate(corpus):
        if not toks:
            raise DataError(f"{cfg.src} line {i + 1} is empty; the cache must "
                            f"align 1:1 with the corpus")
    encodings = extract_sawr(parser, corpus)
    write_sawr_cache(cfg.out, encodings, file_sha256(cfg.parser))
    man.add_artifact(cfg.out)
    man.note("sentences", len(encodings))
    print(f"cached {len(encodings)} sentence encodings to {cfg.out}")


def _prepare_nmt_data(cfg, man):
    """Everything train-nmt needs before the first update, aligned by index.

    The manifest's phases give its seconds: parser_encode for the trees and
    SAWR encodings (read, or computed by the parser), data_prep for the rest."""
    t0 = time.perf_counter()
    all_src = read_corpus(cfg.train_src)
    tgt_sents = read_corpus(cfg.train_tgt)
    if len(all_src) != len(tgt_sents):
        raise DataError(f"{len(all_src)} source vs {len(tgt_sents)} target sentences")
    keep = [i for i, (s, t) in enumerate(zip(all_src, tgt_sents)) if s and t]
    if not keep:
        raise DataError("no non-empty sentence pairs in the training data")
    if len(keep) < len(all_src):
        print(f"dropping {len(all_src) - len(keep)} empty pairs")
    src_sents = [all_src[i] for i in keep]
    tgt_sents = [tgt_sents[i] for i in keep]

    dev_sents = read_corpus(cfg.dev_src)
    if not dev_sents:
        raise DataError(f"{cfg.dev_src}: no dev sentences to score")
    dev_refs = read_lines(cfg.dev_tgt)
    if len(dev_sents) != len(dev_refs):
        raise DataError(f"{len(dev_sents)} dev source vs {len(dev_refs)} references")

    mode = cfg.mode
    parser = ParserModel.load(cfg.parser) if cfg.parser else None
    t1 = time.perf_counter()
    trees = dev_trees = None
    if mode in ("tree-rnn", "tree-linearized"):
        trees = _trees_for(cfg.trees, src_sents, parser, "trees")
        dev_trees = _trees_for(cfg.dev_trees, dev_sents, parser, "dev_trees")

    encodings = dev_encodings = None
    if mode == "sawr":
        digest = file_sha256(cfg.parser) if parser else None
        if cfg.cache:
            encodings = _read_cache(cfg.cache, all_src, digest,
                                    [parser.out_dim] if parser else [], keep)
        else:
            encodings = extract_sawr(parser, src_sents)
        if cfg.dev_cache:
            dev_encodings = _read_cache(cfg.dev_cache, dev_sents, digest,
                                        [encodings[0].shape[1]])
        elif parser is None:
            raise ConfigError("mode 'sawr' without 'parser' needs 'dev_cache' to "
                              "decode the dev set")
        else:  # the parser stays frozen: one encode serves every dev decode
            dev_encodings = extract_sawr(parser, dev_sents)
    parser_s = time.perf_counter() - t1

    src_units = [_source_units(mode, toks, tree)
                 for toks, tree in zip(src_sents, trees or [None] * len(src_sents))]
    src_vocab = build_vocab(src_units, cfg.src_vocab_size)

    bpe = learn_bpe(Counter(tok for sent in tgt_sents for tok in sent), cfg.bpe_merges)
    tgt_units = [apply_bpe(sent, bpe) for sent in tgt_sents]
    tgt_vocab = build_vocab(tgt_units, len({u for s in tgt_units for u in s}) + 5)

    pairs = [(src_vocab.ids(u), tgt_vocab.ids(t) + [EOS])
             for u, t in zip(src_units, tgt_units)]
    man.note("data", {"pairs": len(pairs), "dev": len(dev_sents),
                      "src_vocab": len(src_vocab), "tgt_vocab": len(tgt_vocab)})
    man.note("phases", {"data_prep": round(time.perf_counter() - t0 - parser_s, 3),
                        "parser_encode": round(parser_s, 3)})
    return {"pairs": pairs, "src_sents": src_sents, "trees": trees,
            "encodings": encodings, "dev_sents": dev_sents, "dev_refs": dev_refs,
            "dev_trees": dev_trees, "dev_encodings": dev_encodings,
            "vocabs": (src_vocab, tgt_vocab), "parser": parser}


def _cmd_train_nmt(cfg, man):
    _require(cfg, "train-nmt", "train_src", "train_tgt", "dev_src", "dev_tgt", "out")
    d = _prepare_nmt_data(cfg, man)
    # the training model and its optimizer live only inside _train_epochs,
    # so they are freed before the best checkpoint is loaded back
    best_epoch, best_bleu = _train_epochs(cfg, man, d)
    man.note("best", {"epoch": best_epoch, "dev_bleu": best_bleu})
    best_model = TranslationModel.load(cfg.out)
    final_hyps, decode = _decode_corpus(
        [best_model], d["dev_sents"], cfg.beam_size, cfg.decode_max_len,
        trees=d["dev_trees"], encodings=[d["dev_encodings"]])
    final = bleu(final_hyps, d["dev_refs"], case_sensitive=cfg.case_sensitive)
    man.note("final", {"beam_size": cfg.beam_size, "dev_bleu": final.score,
                       "decode": decode})
    man.add_artifact(cfg.out)
    print(f"best epoch {best_epoch} (greedy dev BLEU {best_bleu:.2f}); "
          f"beam {cfg.beam_size} dev BLEU {final.score:.2f}")
    print(f"saved model to {cfg.out}")


def _train_epochs(cfg, man, d):
    """Train a new model on _prepare_nmt_data's d for cfg.epochs, decoding
    the dev set greedily after each epoch and saving the model at cfg.out
    whenever its BLEU beats every earlier epoch's; returns (best epoch, its
    BLEU)."""
    mode = cfg.mode
    src_vocab, tgt_vocab = d["vocabs"]
    sawr_in = None
    if mode == "sawr" and d["parser"] is None:
        sawr_in = int(d["encodings"][0].shape[1])
    model = TranslationModel(
        len(src_vocab), len(tgt_vocab), mode=MODEL_MODE[mode],
        emb_dim=cfg.emb_dim, hidden_dim=cfg.hidden_dim, sawr_dim=cfg.sawr_dim,
        sawr_in_dim=sawr_in, tree_hidden=cfg.tree_hidden or None,
        dropout=cfg.dropout,
        parser=d["parser"] if MODEL_MODE[mode] == "sawr" else None,
        parser_trainable=(mode == "sawr-tuned"), seed=cfg.seed, vocabs=d["vocabs"])
    opt = nn.Adam(model.table, lr=cfg.learning_rate, clip=cfg.clip_norm)

    best_bleu, best_epoch = -1.0, 0
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        batches = filter_and_batch(
            d["pairs"], cfg.max_src_len, cfg.max_tgt_len, cfg.batch_size,
            cfg.seed + epoch, trees=d["trees"], encodings=d["encodings"],
            src_tokens=d["src_sents"])
        losses, norms, tokens = [], [], 0
        for k, b in enumerate(batches, 1):
            try:
                loss, norm = train_step(b, model, opt)
            except FloatingPointError as exc:
                raise FloatingPointError(f"epoch {epoch} batch {k}: {exc}") from None
            losses.append(loss)
            norms.append(norm)
            tokens += int(b.tgt_lens.sum())
        train_loss = float(np.mean(losses))
        t1 = time.perf_counter()

        try:
            hyps, decode = _decode_corpus([model], d["dev_sents"], 1, cfg.decode_max_len,
                                          trees=d["dev_trees"],
                                          encodings=[d["dev_encodings"]])
        except FloatingPointError as exc:
            raise FloatingPointError(f"epoch {epoch} dev decode: {exc}") from None
        dev_bleu = bleu(hyps, d["dev_refs"], case_sensitive=cfg.case_sensitive).score
        t2 = time.perf_counter()
        marker = ""
        if dev_bleu > best_bleu:
            best_bleu, best_epoch = dev_bleu, epoch
            model.save(cfg.out)
            marker = " *"
        t3 = time.perf_counter()
        seconds = round(t2 - t0, 3)
        man.add_epoch(epoch=epoch, train_loss=train_loss, dev_bleu=dev_bleu,
                      **_grad_stats(norms, cfg.clip_norm), decode=decode,
                      tok_per_s=round(tokens / (t1 - t0), 1), seconds=seconds,
                      phases={"train": round(t1 - t0, 3), "dev_decode": round(t2 - t1, 3),
                              "save": round(t3 - t2, 3)})
        print(f"epoch {epoch}: loss {train_loss:.4f}, dev BLEU {dev_bleu:.2f} "
              f"({seconds:.1f}s){marker}")
    return best_epoch, best_bleu


def _translate_resources(cfg, models, src_sents):
    """Trees and per-model cached encodings that loaded models need to decode.

    Cached rows go only to a model that carries no parser; a model with one
    gets its own parser's states from _parser_encodings.
    """
    trees = None
    if any(m.mode in ("tree-rnn", "tree-linearized") for m in models):
        parser = ParserModel.load(cfg.parser) if cfg.parser else None
        trees = _trees_for(cfg.trees, src_sents, parser, "trees")
    encodings = None
    widths = sorted({m.sawr.in_dim for m in models if m.mode == "sawr" and m.parser is None})
    if widths:
        if not cfg.cache:
            raise ConfigError("a checkpoint trained from cached encodings carries "
                              "no parser; set 'cache' for the input")
        encodings = _read_cache(cfg.cache, src_sents, widths=widths)
    return trees, [encodings if m.parser is None else None for m in models]


def _translate_with(cfg, man, paths):
    """Decode cfg.src with the models at paths; returns the output lines."""
    models = [_load_translator(p) for p in paths]
    spell = [m.vocabs[1].tokens(range(len(m.vocabs[1]))) for m in models]
    for path, tokens in zip(paths[1:], spell[1:]):
        if tokens != spell[0]:
            raise DataError(f"{path}: target vocabulary differs from {paths[0]}; "
                            f"ensemble members must share one")
    src_sents = read_corpus(cfg.src)
    trees, encodings = _translate_resources(cfg, models, src_sents)
    hyps, decode = _decode_corpus(models, src_sents, cfg.beam_size, cfg.decode_max_len,
                                  trees=trees, encodings=encodings)
    _write_lines(cfg.out, hyps)
    man.add_artifact(cfg.out)
    man.note("decode", decode)
    return hyps


def _cmd_translate(cfg, man):
    _require(cfg, "translate", "model", "src", "out")
    hyps = _translate_with(cfg, man, [cfg.model])
    man.note("sentences", len(hyps))
    print(f"translated {len(hyps)} sentences with beam {cfg.beam_size} -> {cfg.out}")


def _cmd_ensemble_translate(cfg, man):
    _require(cfg, "ensemble-translate", "models", "src", "out")
    hyps = _translate_with(cfg, man, cfg.models)
    man.note("models", len(cfg.models))
    print(f"ensemble of {len(cfg.models)} translated {len(hyps)} sentences -> {cfg.out}")


def _cmd_evaluate(cfg, man):
    _require(cfg, "evaluate", "hyp", "ref", "out")
    report = bleu(*_read_aligned(cfg.hyp, cfg.ref), case_sensitive=cfg.case_sensitive)
    _write_lines(cfg.out, [str(report)])
    man.add_artifact(cfg.out)
    man.note("bleu", report.score)
    print(report)


def _cmd_significance(cfg, man):
    _require(cfg, "significance", "hyp_a", "hyp_b", "ref", "out")
    a, b, refs = _read_aligned(cfg.hyp_a, cfg.hyp_b, cfg.ref)
    fold = cfg.case_sensitive
    score_a = bleu(a, refs, case_sensitive=fold).score
    score_b = bleu(b, refs, case_sensitive=fold).score
    p = bootstrap_significance(a, b, refs, samples=cfg.bootstrap_samples,
                               seed=cfg.seed, case_sensitive=fold)
    lines = [f"bleu_a\t{score_a:.2f}", f"bleu_b\t{score_b:.2f}",
             f"p_value\t{p:.4f}", f"samples\t{cfg.bootstrap_samples}"]
    _write_lines(cfg.out, lines)
    man.add_artifact(cfg.out)
    man.note("significance", {"bleu_a": score_a, "bleu_b": score_b, "p_value": p})
    print(f"BLEU A {score_a:.2f} vs B {score_b:.2f}: p = {p:.4f} "
          f"({cfg.bootstrap_samples} resamples)")


def _cmd_align_dump(cfg, man):
    _require(cfg, "align-dump", "model", "src", "out")
    model = _load_translator(cfg.model)
    src_sents = read_corpus(cfg.src)
    trees, encodings = _translate_resources(cfg, [model], src_sents)
    [encodings] = _parser_encodings([model], src_sents, encodings)
    sources = [_source_units(model.mode, toks, trees[i] if trees is not None else None)
               if toks else [] for i, toks in enumerate(src_sents)]
    records = dump_alignments(model, sources, *model.vocabs,
                              max_len=cfg.decode_max_len, trees=trees,
                              encodings=encodings)
    write_alignments(records, cfg.out)
    man.add_artifact(cfg.out)
    man.note("records", len(records))
    print(f"wrote {len(records)} alignment records -> {cfg.out}")


def _cmd_length_report(cfg, man):
    _require(cfg, "length-report", "hyp", "ref", "src", "out")
    bins = bleu_by_length(*_read_aligned(cfg.hyp, cfg.ref, cfg.src), cfg.length_edges,
                          case_sensitive=cfg.case_sensitive)
    lines = ["lo\thi\tcount\tbleu"]
    for b in bins:
        hi = "inf" if b.hi is None else str(b.hi)
        score = "NA" if b.report is None else f"{b.report.score:.2f}"
        lines.append(f"{b.lo}\t{hi}\t{b.count}\t{score}")
    _write_lines(cfg.out, lines)
    man.add_artifact(cfg.out)
    for line in lines:
        print(line)


COMMANDS = {
    "train-parser": (_cmd_train_parser, "train the dependency parser on a treebank"),
    "extract-sawr": (_cmd_extract_sawr, "cache parser encodings for a corpus"),
    "train-nmt": (_cmd_train_nmt, "train a translation model"),
    "translate": (_cmd_translate, "decode a corpus with one model"),
    "ensemble-translate": (_cmd_ensemble_translate, "decode with averaged models"),
    "evaluate": (_cmd_evaluate, "corpus BLEU of a hypothesis file"),
    "significance": (_cmd_significance, "paired bootstrap between two systems"),
    "align-dump": (_cmd_align_dump, "greedy attention alignments as JSON lines"),
    "length-report": (_cmd_length_report, "BLEU by source-length bin, as TSV"),
}


def run(command, cfg):
    """Execute one command against a validated config; returns its manifest."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of "
                          f"{', '.join(COMMANDS)}")
    man = RunManifest(command, cfg)
    if cfg.out:
        man.attach(cfg.out)
    COMMANDS[command][0](cfg, man)
    man.flush()
    return man


@functools.cache
def build_arg_parser():
    """The CLI's parser, built on first use: 9 subcommands x every schema field.

    parse_args leaves the parser as it was, so every main call shares it.
    """
    ap = argparse.ArgumentParser(
        prog="synmt",
        description="syntax-aware neural machine translation, desk scale")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default="",
                       help="key = value settings document; flags override it")
        for field in SCHEMA:
            p.add_argument(f"--{field.name}", default=None, metavar=field.kind,
                           help=field.help)
    return ap


def main(argv=None):
    args = build_arg_parser().parse_args(argv)
    try:
        raw = read_config(args.config) if args.config else {}
        for field in SCHEMA:
            override = getattr(args, field.name)
            if override is not None:
                raw[field.name] = override
        cfg = validate_config(raw)
        run(args.command, cfg)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # the CLI boundary maps anything else to 3
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
