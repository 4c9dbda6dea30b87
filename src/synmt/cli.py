"""Command-line front end: one executable, nine subcommands.

Every run validates its configuration before touching any data, performs one
well-defined piece of work, and records what it did in a JSON manifest next
to the primary output (out + ".manifest.json"): the full config snapshot, a
sha256 for each artifact written, and for training runs the per-epoch trace.

Exit codes: 0 success, 1 configuration error, 2 data/path error, 3 anything
else that fails at runtime.
"""

import argparse
import json
import sys
import time
from collections import Counter
from datetime import datetime, timezone

import numpy as np

from . import nn
from .checkpoint import file_sha256
from .config import SCHEMA, read_config, validate_config
from .data import (EOS, BpeModel, Vocabulary, apply_bpe, build_vocab, decode_bpe,
                   filter_and_batch, learn_bpe, linearize_tree, read_corpus)
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
        with open(self.path, "w", encoding="utf-8") as f:
            json.dump(body, f, indent=2)
            f.write("\n")


def _now():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# ---------------------------------------------------------------------------
# Shared plumbing


def _require(cfg, command, *names):
    for name in names:
        if not getattr(cfg, name):
            raise ConfigError(f"command '{command}' requires the '{name}' field")


def _read_lines(path):
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f]


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(line + "\n")


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
    return [parse_sentence(toks, parser) if toks else None for toks in src_sents]


def _source_units(mode, toks, tree):
    """The source symbols a mode reads: a linearized tree, else the tokens."""
    return linearize_tree(toks, tree) if mode == "tree-linearized" else toks


def _decode_corpus(models, src_vocabs, tgt_vocab, sents, beam_size, max_len,
                   trees, encodings):
    """Translate token lists back into detokenized text lines.

    One model decodes with beam_search, several with ensemble_decode over
    the mean of their distributions. Each model gets the tree, the cached
    encoding and the raw tokens of a sentence and reads what its mode needs.
    trees (or None) align with sents; encodings holds one such list (or
    None) per model. Empty source lines come back as empty output lines so
    file alignment survives.

    Returns (lines, stats); stats counts the decoded sentences, the decoder
    steps they took and how many searches stopped before max_len with
    hypotheses still live.
    """
    out = []
    stats = {"sentences": 0, "decoder_steps": 0, "stopped_early": 0}
    for i, toks in enumerate(sents):
        if not toks:
            out.append("")
            continue
        tree = trees[i] if trees is not None else None
        sources = [sv.ids(_source_units(m.mode, toks, tree))
                   for m, sv in zip(models, src_vocabs)]
        encs = [e[i] if e is not None else None for e in encodings]
        if len(models) == 1:
            hyp = beam_search(sources[0], models[0], beam_size, max_len,
                              tree=tree, encoding=encs[0], tokens=toks)
        else:
            hyp = ensemble_decode(models, sources, beam_size, max_len,
                                  trees=[tree] * len(models), encodings=encs,
                                  tokens=[toks] * len(models))
        out.append(" ".join(decode_bpe(tgt_vocab.tokens(hyp.ids))))
        stats["sentences"] += 1
        stats["decoder_steps"] += hyp.steps
        stats["stopped_early"] += hyp.stopped_early
    return out, stats


def _bundle_paths(path):
    return [path, path + ".src.vocab", path + ".tgt.vocab", path + ".bpe"]


def _save_bundle(path, model, src_vocab, tgt_vocab, bpe):
    """A checkpoint plus the vocabularies and BPE merges needed to use it."""
    model.save(path)
    src_vocab.save(path + ".src.vocab")
    tgt_vocab.save(path + ".tgt.vocab")
    bpe.save(path + ".bpe")
    return _bundle_paths(path)


def _load_bundle(path):
    model = TranslationModel.load(path)
    src_vocab = Vocabulary.load(path + ".src.vocab")
    tgt_vocab = Vocabulary.load(path + ".tgt.vocab")
    bpe = BpeModel.load(path + ".bpe")
    return model, src_vocab, tgt_vocab, bpe


# ---------------------------------------------------------------------------
# Commands


def _cmd_train_parser(cfg, man):
    _require(cfg, "train-parser", "treebank", "out")
    sents = read_treebank(cfg.treebank)
    dev = read_treebank(cfg.dev_treebank) if cfg.dev_treebank else None

    trace = []
    clock = [time.perf_counter()]

    def log(epoch, loss):
        now = time.perf_counter()
        entry = {"epoch": epoch + 1, "train_loss": loss,
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
        pred = [parse_sentence(toks, model) for toks, _ in dev]
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
    """Everything train-nmt needs before the first update, aligned by index."""
    src_sents = read_corpus(cfg.train_src)
    tgt_sents = read_corpus(cfg.train_tgt)
    if len(src_sents) != len(tgt_sents):
        raise DataError(f"{len(src_sents)} source vs {len(tgt_sents)} target sentences")
    n_orig = len(src_sents)
    keep = [i for i, (s, t) in enumerate(zip(src_sents, tgt_sents)) if s and t]
    if not keep:
        raise DataError("no non-empty sentence pairs in the training data")
    if len(keep) < n_orig:
        print(f"dropping {n_orig - len(keep)} empty pairs")
    src_sents = [src_sents[i] for i in keep]
    tgt_sents = [tgt_sents[i] for i in keep]

    dev_sents = read_corpus(cfg.dev_src)
    dev_refs = _read_lines(cfg.dev_tgt)
    if len(dev_sents) != len(dev_refs):
        raise DataError(f"{len(dev_sents)} dev source vs {len(dev_refs)} references")

    mode = cfg.mode
    parser = ParserModel.load(cfg.parser) if cfg.parser else None
    trees = dev_trees = None
    if mode in ("tree-rnn", "tree-linearized"):
        trees = _trees_for(cfg.trees, src_sents, parser, "trees")
        dev_trees = _trees_for(cfg.dev_trees, dev_sents, parser, "dev_trees")

    encodings = dev_encodings = None
    if mode == "sawr":
        if cfg.cache:
            encodings, _ = read_sawr_cache(
                cfg.cache, file_sha256(cfg.parser) if cfg.parser else None)
            if len(encodings) == n_orig:  # cache aligns with the unfiltered corpus
                encodings = [encodings[i] for i in keep]
            if len(encodings) != len(src_sents):
                raise DataError(f"{cfg.cache}: {len(encodings)} encodings for "
                                f"{len(src_sents)} usable sentence pairs")
        else:
            encodings = extract_sawr(parser, src_sents)
        if cfg.dev_cache:
            dev_encodings, _ = read_sawr_cache(
                cfg.dev_cache, file_sha256(cfg.parser) if cfg.parser else None)
            if len(dev_encodings) != len(dev_sents):
                raise DataError(f"{cfg.dev_cache}: {len(dev_encodings)} encodings "
                                f"for {len(dev_sents)} dev sentences")
        elif parser is None:
            raise ConfigError("mode 'sawr' without 'parser' needs 'dev_cache' to "
                              "decode the dev set")

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
    return {"pairs": pairs, "src_sents": src_sents, "trees": trees,
            "encodings": encodings, "dev_sents": dev_sents, "dev_refs": dev_refs,
            "dev_trees": dev_trees, "dev_encodings": dev_encodings,
            "src_vocab": src_vocab, "tgt_vocab": tgt_vocab, "bpe": bpe,
            "parser": parser}


def _cmd_train_nmt(cfg, man):
    _require(cfg, "train-nmt", "train_src", "train_tgt", "dev_src", "dev_tgt", "out")
    mode = cfg.mode
    d = _prepare_nmt_data(cfg, man)
    src_vocab, tgt_vocab, bpe = d["src_vocab"], d["tgt_vocab"], d["bpe"]

    sawr_in = None
    if mode == "sawr" and d["parser"] is None:
        sawr_in = int(d["encodings"][0].shape[1])
    model = TranslationModel(
        len(src_vocab), len(tgt_vocab), mode=MODEL_MODE[mode],
        emb_dim=cfg.emb_dim, hidden_dim=cfg.hidden_dim, sawr_dim=cfg.sawr_dim,
        sawr_in_dim=sawr_in, tree_hidden=cfg.tree_hidden or None,
        dropout=cfg.dropout,
        parser=d["parser"] if MODEL_MODE[mode] == "sawr" else None,
        parser_trainable=(mode == "sawr-tuned"), seed=cfg.seed)
    opt = nn.Adam(model.table, lr=cfg.learning_rate, clip=cfg.clip_norm)

    best_bleu, best_epoch = -1.0, 0
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        batches = filter_and_batch(
            d["pairs"], cfg.max_src_len, cfg.max_tgt_len, cfg.batch_size,
            cfg.seed + epoch, trees=d["trees"], encodings=d["encodings"],
            src_tokens=d["src_sents"])
        losses = [train_step(b, model, opt) for b in batches]
        train_loss = float(np.mean(losses))

        hyps, _ = _decode_corpus([model], [src_vocab], tgt_vocab, d["dev_sents"], 1,
                                 cfg.decode_max_len, trees=d["dev_trees"],
                                 encodings=[d["dev_encodings"]])
        dev_bleu = bleu(hyps, d["dev_refs"], case_sensitive=cfg.case_sensitive).score
        seconds = round(time.perf_counter() - t0, 3)
        man.add_epoch(epoch=epoch, train_loss=train_loss, dev_bleu=dev_bleu,
                      seconds=seconds)
        marker = ""
        if dev_bleu > best_bleu:
            best_bleu, best_epoch = dev_bleu, epoch
            _save_bundle(cfg.out, model, src_vocab, tgt_vocab, bpe)
            marker = " *"
        print(f"epoch {epoch}: loss {train_loss:.4f}, dev BLEU {dev_bleu:.2f} "
              f"({seconds:.1f}s){marker}")

    man.note("best", {"epoch": best_epoch, "dev_bleu": best_bleu})
    best_model = TranslationModel.load(cfg.out)
    final_hyps, decode = _decode_corpus(
        [best_model], [src_vocab], tgt_vocab, d["dev_sents"], cfg.beam_size,
        cfg.decode_max_len, trees=d["dev_trees"], encodings=[d["dev_encodings"]])
    final = bleu(final_hyps, d["dev_refs"], case_sensitive=cfg.case_sensitive)
    man.note("final", {"beam_size": cfg.beam_size, "dev_bleu": final.score,
                       "decode": decode})
    for path in _bundle_paths(cfg.out):
        man.add_artifact(path)
    print(f"best epoch {best_epoch} (greedy dev BLEU {best_bleu:.2f}); "
          f"beam {cfg.beam_size} dev BLEU {final.score:.2f}")
    print(f"saved model to {cfg.out}")


def _translate_resources(cfg, models, src_sents):
    """Trees and per-model cached encodings that loaded models need to decode.

    Cached rows go only to a model that carries no parser; a model with one
    encodes its input live.
    """
    trees = None
    if any(m.mode in ("tree-rnn", "tree-linearized") for m in models):
        parser = ParserModel.load(cfg.parser) if cfg.parser else None
        trees = _trees_for(cfg.trees, src_sents, parser, "trees")
    encodings = None
    if any(m.mode == "sawr" and m.parser is None for m in models):
        if not cfg.cache:
            raise ConfigError("a checkpoint trained from cached encodings carries "
                              "no parser; set 'cache' for the input")
        encodings, _ = read_sawr_cache(cfg.cache)
        if len(encodings) != len(src_sents):
            raise DataError(f"{cfg.cache}: {len(encodings)} encodings for "
                            f"{len(src_sents)} sentences")
    return trees, [encodings if m.parser is None else None for m in models]


def _translate_with(cfg, man, paths):
    """Decode cfg.src with the bundles at paths; returns the output lines."""
    bundles = [_load_bundle(p) for p in paths]
    tgt_vocab = bundles[0][2]
    for path, (_, _, tv, _) in zip(paths[1:], bundles[1:]):
        if tv.tokens(range(len(tv)), strip_reserved=False) != \
                tgt_vocab.tokens(range(len(tgt_vocab)), strip_reserved=False):
            raise DataError(f"{path}: target vocabulary differs from {paths[0]}; "
                            f"ensemble members must share one")
    models = [b[0] for b in bundles]
    src_sents = read_corpus(cfg.src)
    trees, encodings = _translate_resources(cfg, models, src_sents)
    hyps, decode = _decode_corpus(models, [b[1] for b in bundles], tgt_vocab,
                                  src_sents, cfg.beam_size, cfg.decode_max_len,
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
    report = bleu(_read_lines(cfg.hyp), _read_lines(cfg.ref),
                  case_sensitive=cfg.case_sensitive)
    _write_lines(cfg.out, [str(report)])
    man.add_artifact(cfg.out)
    man.note("bleu", report.score)
    print(report)


def _cmd_significance(cfg, man):
    _require(cfg, "significance", "hyp_a", "hyp_b", "ref", "out")
    a, b = _read_lines(cfg.hyp_a), _read_lines(cfg.hyp_b)
    refs = _read_lines(cfg.ref)
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
    model, src_vocab, tgt_vocab, _ = _load_bundle(cfg.model)
    src_sents = read_corpus(cfg.src)
    trees, [encodings] = _translate_resources(cfg, [model], src_sents)
    sources = [_source_units(model.mode, toks, trees[i] if trees is not None else None)
               if toks else [] for i, toks in enumerate(src_sents)]
    records = dump_alignments(model, sources, src_vocab, tgt_vocab,
                              max_len=cfg.decode_max_len, trees=trees,
                              encodings=encodings)
    write_alignments(records, cfg.out)
    man.add_artifact(cfg.out)
    man.note("records", len(records))
    print(f"wrote {len(records)} alignment records -> {cfg.out}")


def _cmd_length_report(cfg, man):
    _require(cfg, "length-report", "hyp", "ref", "src", "out")
    bins = bleu_by_length(_read_lines(cfg.hyp), _read_lines(cfg.ref),
                          _read_lines(cfg.src), cfg.length_edges,
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


def build_arg_parser():
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
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # the CLI boundary maps anything else to 3
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
