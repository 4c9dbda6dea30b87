"""Experiment configuration: a flat typed schema, a key = value file format,
and strict validation with named errors.

The config document is plain text, one "key = value" assignment per line,
with blank lines and #-comments ignored. Every key also exists as a
command-line flag of the same name, so any file setting can be overridden
at invocation time. An empty document is valid and yields pure defaults.
"""

import difflib
import math

from .checkpoint import read_text
from .errors import ConfigError

MODES = ("baseline", "sawr", "sawr-tuned", "tree-rnn", "tree-linearized")
NONPROJECTIVE_POLICIES = ("projectivize", "skip")


class Field:
    def __init__(self, name, kind, default, help):
        self.name = name
        self.kind = kind  # int | float | bool | str | int_list | str_list
        self.default = default
        self.help = help


SCHEMA = [
    # model shape
    Field("mode", "str", "baseline",
          "source syntax flavor: " + ", ".join(MODES)),
    Field("emb_dim", "int", 512, "word embedding size, both languages"),
    Field("hidden_dim", "int", 1024,
          "encoder output / decoder state size (split across two directions)"),
    Field("sawr_dim", "int", 512, "projected parser-state size in sawr modes"),
    Field("tree_hidden", "int", 0,
          "tree encoder state size per direction; 0 picks emb_dim / 2"),
    Field("dropout", "float", 0.5, "dropout ratio on the output hidden layer"),
    # optimization
    Field("learning_rate", "float", 5e-4, "Adam step size"),
    Field("clip_norm", "float", 5.0, "global gradient-norm clip"),
    Field("batch_size", "int", 80, "sentence pairs per training batch"),
    Field("epochs", "int", 10, "training epochs"),
    Field("seed", "int", 1, "master random seed"),
    # decoding and evaluation
    Field("beam_size", "int", 5, "beam width for final translation"),
    Field("decode_max_len", "int", 150, "longest hypothesis the decoder may emit"),
    Field("bootstrap_samples", "int", 1000, "resamples for significance testing"),
    Field("length_edges", "int_list", [10, 20, 30, 40, 50],
          "source-length bin edges for the length report"),
    Field("case_sensitive", "bool", False, "score without lowercasing"),
    # data preparation
    Field("max_src_len", "int", 50, "drop pairs whose source exceeds this"),
    Field("max_tgt_len", "int", 150, "drop pairs whose target exceeds this"),
    Field("src_vocab_size", "int", 50000, "source vocabulary cap, reserved ids included"),
    Field("bpe_merges", "int", 32000, "byte-pair merge operations on the target side"),
    # parser training
    Field("parser_embed", "int", 64, "parser word embedding size"),
    Field("parser_hidden", "int", 100, "parser encoder size per direction"),
    Field("parser_mlp", "int", 100, "biaffine head/dependent projection size"),
    Field("parser_layers", "int", 3, "stacked parser encoder layers"),
    Field("parser_epochs", "int", 30, "parser training epochs"),
    Field("parser_lr", "float", 1e-3, "parser Adam step size"),
    Field("parser_batch", "int", 16, "sentences per parser batch"),
    Field("nonprojective", "str", "projectivize",
          "treebank policy: projectivize or skip"),
    # file paths; empty string means unset
    Field("train_src", "str", "", "training source corpus"),
    Field("train_tgt", "str", "", "training target corpus"),
    Field("dev_src", "str", "", "development source corpus"),
    Field("dev_tgt", "str", "", "development references"),
    Field("src", "str", "", "input sentences for translate / extract / reports"),
    Field("ref", "str", "", "reference translations"),
    Field("hyp", "str", "", "hypothesis translations"),
    Field("hyp_a", "str", "", "first system output for significance"),
    Field("hyp_b", "str", "", "second system output for significance"),
    Field("model", "str", "", "translation checkpoint"),
    Field("models", "str_list", [], "translation checkpoints for an ensemble"),
    Field("parser", "str", "", "parser checkpoint"),
    Field("cache", "str", "", "precomputed parser encodings for the training source"),
    Field("dev_cache", "str", "", "precomputed parser encodings for the dev source"),
    Field("treebank", "str", "", "dependency training data"),
    Field("dev_treebank", "str", "", "dependency evaluation data"),
    Field("trees", "str", "", "parses aligned with the (training) source"),
    Field("dev_trees", "str", "", "parses aligned with the dev source"),
    Field("out", "str", "", "primary output path; the manifest sits next to it"),
]

_BY_NAME = {f.name: f for f in SCHEMA}

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


def _coerce(field, value):
    """Convert a raw (possibly string) value to the field's type, strictly."""
    kind = field.kind
    if kind == "int":
        if isinstance(value, bool):
            raise ConfigError(f"{field.name}: expected an integer, got a boolean")
        if isinstance(value, int):
            return value
        if isinstance(value, str):
            try:
                return int(value.strip())
            except ValueError:
                pass
        raise ConfigError(f"{field.name}: expected an integer, got {value!r}")
    if kind == "float":
        if isinstance(value, bool):
            raise ConfigError(f"{field.name}: expected a number, got a boolean")
        if isinstance(value, (int, float, str)):
            try:
                number = float(value.strip() if isinstance(value, str) else value)
            except (ValueError, OverflowError):
                number = math.nan
            if math.isfinite(number):
                return number
        raise ConfigError(f"{field.name}: expected a finite number, got {value!r}")
    if kind == "bool":
        if isinstance(value, bool):
            return value
        if isinstance(value, str):
            low = value.strip().lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
        raise ConfigError(f"{field.name}: expected true or false, got {value!r}")
    if kind == "str":
        if isinstance(value, str):
            return value.strip()
        raise ConfigError(f"{field.name}: expected a string, got {value!r}")
    if kind == "int_list":
        items = _split_list(field, value)
        out = []
        for item in items:
            if isinstance(item, bool) or not isinstance(item, (int, str)):
                raise ConfigError(f"{field.name}: expected integers, got {item!r}")
            try:
                out.append(int(item.strip()) if isinstance(item, str) else item)
            except ValueError:
                raise ConfigError(f"{field.name}: expected integers, got {item!r}")
        return out
    if kind == "str_list":
        items = _split_list(field, value)
        out = []
        for item in items:
            if not isinstance(item, str):
                raise ConfigError(f"{field.name}: expected strings, got {item!r}")
            out.append(item.strip())
        return [s for s in out if s]
    raise AssertionError(f"unknown field kind {kind!r}")


def _split_list(field, value):
    if isinstance(value, str):
        return [p for p in value.split(",") if p.strip()]
    if isinstance(value, (list, tuple)):
        return list(value)
    raise ConfigError(f"{field.name}: expected a comma-separated list, got {value!r}")


class ExperimentConfig:
    """Validated settings; one attribute per schema field."""

    def __init__(self, values):
        for f in SCHEMA:
            setattr(self, f.name, values[f.name])

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in SCHEMA}

    def __repr__(self):
        mode = self.mode
        return f"ExperimentConfig(mode={mode!r}, ...)"


def parse_config_text(text):
    """Raw key -> string-value pairs from a key = value document."""
    raw = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {line_no}: missing key before '='")
        if key in raw:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def read_config(path):
    return parse_config_text(read_text(path, ConfigError))


def _unknown_key_error(key):
    close = difflib.get_close_matches(key, _BY_NAME, n=1)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    return ConfigError(f"unknown config key {key!r}{hint}")


def validate_config(raw):
    """Coerce, default-fill and cross-check a raw mapping.

    Raises ConfigError naming the offending field; unknown keys are rejected
    with a closest-match suggestion rather than silently ignored.
    """
    values = {}
    for key, value in raw.items():
        field = _BY_NAME.get(key)
        if field is None:
            raise _unknown_key_error(key)
        values[key] = _coerce(field, value)
    for f in SCHEMA:
        values.setdefault(f.name, f.default if not isinstance(f.default, list)
                          else list(f.default))
    _cross_check(values)
    return ExperimentConfig(values)


def _positive(values, *names):
    for name in names:
        if values[name] <= 0:
            raise ConfigError(f"{name} must be positive, got {values[name]}")


def _cross_check(v):
    if v["mode"] not in MODES:
        raise ConfigError(f"mode must be one of {', '.join(MODES)}; got {v['mode']!r}")
    _positive(v, "emb_dim", "hidden_dim", "sawr_dim", "learning_rate", "clip_norm",
              "batch_size", "epochs", "beam_size", "decode_max_len", "max_src_len",
              "max_tgt_len", "parser_embed", "parser_hidden", "parser_mlp",
              "parser_layers", "parser_epochs", "parser_lr", "parser_batch")
    if v["hidden_dim"] % 2:
        raise ConfigError(f"hidden_dim must be even so the two encoder directions "
                          f"split it equally; got {v['hidden_dim']}")
    if v["tree_hidden"] < 0:
        raise ConfigError(f"tree_hidden must be >= 0, got {v['tree_hidden']}")
    if not 0.0 <= v["dropout"] < 1.0:
        raise ConfigError(f"dropout must lie in [0, 1), got {v['dropout']}")
    if v["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {v['seed']}")
    if v["src_vocab_size"] <= 4:
        raise ConfigError(f"src_vocab_size must exceed the 4 reserved ids, "
                          f"got {v['src_vocab_size']}")
    if v["bpe_merges"] < 0:
        raise ConfigError(f"bpe_merges must be >= 0, got {v['bpe_merges']}")
    if v["bootstrap_samples"] < 100:
        raise ConfigError(f"bootstrap_samples must be at least 100, "
                          f"got {v['bootstrap_samples']}")
    edges = v["length_edges"]
    if not edges or any(b <= a for a, b in zip(edges, edges[1:])) or edges[0] < 1:
        raise ConfigError(f"length_edges must be strictly ascending positive "
                          f"integers, got {edges}")
    if v["nonprojective"] not in NONPROJECTIVE_POLICIES:
        raise ConfigError(f"nonprojective must be one of "
                          f"{', '.join(NONPROJECTIVE_POLICIES)}; got {v['nonprojective']!r}")
    if v["mode"] == "sawr" and not (v["parser"] or v["cache"]):
        raise ConfigError("mode 'sawr' needs 'parser' (a parser checkpoint) or "
                          "'cache' (precomputed encodings)")
    if v["mode"] == "sawr-tuned":
        if not v["parser"]:
            raise ConfigError("mode 'sawr-tuned' needs 'parser' (a parser checkpoint)")
        for name in ("cache", "dev_cache"):
            if v[name]:
                raise ConfigError(f"mode 'sawr-tuned' recomputes encodings with the "
                                  f"parser it tunes; remove '{name}'")
