"""Config document parsing, defaults, coercion, and cross-field validation."""

import pytest

from synmt.config import (MODES, SCHEMA, ExperimentConfig, parse_config_text,
                          read_config, validate_config)
from synmt.errors import ConfigError


class TestDocumentParsing:
    def test_key_value_lines(self):
        raw = parse_config_text("mode = sawr\nhidden_dim = 64\n")
        assert raw == {"mode": "sawr", "hidden_dim": "64"}

    def test_comments_and_blanks_ignored(self):
        raw = parse_config_text("# top\n\nseed = 9\n   # indented comment\n")
        assert raw == {"seed": "9"}

    def test_value_may_contain_equals(self):
        raw = parse_config_text("out = runs/a=b.txt\n")
        assert raw == {"out": "runs/a=b.txt"}

    def test_line_without_assignment_rejected(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("seed = 1\njust words\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError, match="missing key"):
            parse_config_text("= 3\n")

    def test_read_config_round_trip(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("mode = tree-rnn\nepochs = 3\n", encoding="utf-8")
        assert read_config(p) == {"mode": "tree-rnn", "epochs": "3"}


class TestDefaults:
    def test_empty_document_yields_defaults(self):
        cfg = validate_config({})
        assert cfg.mode == "baseline"
        assert cfg.emb_dim == 512
        assert cfg.hidden_dim == 1024
        assert cfg.learning_rate == 5e-4
        assert cfg.clip_norm == 5.0
        assert cfg.batch_size == 80
        assert cfg.beam_size == 5
        assert cfg.max_src_len == 50
        assert cfg.max_tgt_len == 150
        assert cfg.src_vocab_size == 50000
        assert cfg.bpe_merges == 32000
        assert cfg.length_edges == [10, 20, 30, 40, 50]
        assert cfg.out == ""

    def test_every_schema_default_survives_validation(self):
        cfg = validate_config({})
        for field in SCHEMA:
            assert getattr(cfg, field.name) == field.default

    def test_default_lists_are_not_shared(self):
        a, b = validate_config({}), validate_config({})
        a.length_edges.append(99)
        assert b.length_edges == [10, 20, 30, 40, 50]

    def test_to_dict_round_trip(self):
        cfg = validate_config({"mode": "tree-rnn", "epochs": 2})
        again = validate_config(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()


class TestUnknownKeys:
    def test_unknown_key_rejected_with_suggestion(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            validate_config({"learning_rte": "0.001"})

    def test_unknown_key_without_lookalike(self):
        with pytest.raises(ConfigError, match="unknown config key 'zzz_qqq'"):
            validate_config({"zzz_qqq": 1})


class TestCoercion:
    def test_strings_coerce_to_declared_types(self):
        cfg = validate_config({"epochs": "7", "learning_rate": "0.003",
                               "case_sensitive": "true",
                               "length_edges": "5,15,25",
                               "models": "a.ckpt, b.ckpt"})
        assert cfg.epochs == 7
        assert cfg.learning_rate == 0.003
        assert cfg.case_sensitive is True
        assert cfg.length_edges == [5, 15, 25]
        assert cfg.models == ["a.ckpt", "b.ckpt"]

    def test_native_types_pass_through(self):
        cfg = validate_config({"epochs": 7, "learning_rate": 0.003,
                               "case_sensitive": False,
                               "length_edges": [5, 15], "models": ["m1"]})
        assert (cfg.epochs, cfg.learning_rate) == (7, 0.003)
        assert cfg.length_edges == [5, 15]

    def test_int_type_mismatch_names_field(self):
        with pytest.raises(ConfigError, match="hidden_dim.*integer"):
            validate_config({"hidden_dim": "big"})

    def test_float_type_mismatch_names_field(self):
        with pytest.raises(ConfigError, match="learning_rate.*number"):
            validate_config({"learning_rate": "fast"})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", float("nan"), 10 ** 400])
    def test_float_must_be_finite(self, value):
        # a NaN clip never clips, a NaN or infinite step size ruins the first update
        with pytest.raises(ConfigError, match="learning_rate: expected a finite number"):
            validate_config({"learning_rate": value})

    def test_bool_rejects_arbitrary_words(self):
        with pytest.raises(ConfigError, match="case_sensitive"):
            validate_config({"case_sensitive": "maybe"})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="epochs"):
            validate_config({"epochs": True})

    def test_int_list_rejects_words(self):
        with pytest.raises(ConfigError, match="length_edges"):
            validate_config({"length_edges": "5,many,25"})

    def test_int_accepts_surrounding_whitespace(self):
        assert validate_config({"seed": " 11 "}).seed == 11


class TestCrossFieldChecks:
    def test_mode_must_be_known(self):
        with pytest.raises(ConfigError, match="mode"):
            validate_config({"mode": "transformer"})
        for mode in MODES:
            extra = {}
            if mode.startswith("sawr"):
                extra = {"parser": "p.ckpt"}
            assert validate_config({"mode": mode, **extra}).mode == mode

    def test_odd_hidden_dim_rejected(self):
        with pytest.raises(ConfigError, match="hidden_dim.*even"):
            validate_config({"hidden_dim": 1023})

    def test_nonpositive_dimensions_rejected(self):
        with pytest.raises(ConfigError, match="emb_dim"):
            validate_config({"emb_dim": 0})
        with pytest.raises(ConfigError, match="batch_size"):
            validate_config({"batch_size": -2})

    def test_dropout_range(self):
        with pytest.raises(ConfigError, match="dropout"):
            validate_config({"dropout": 1.0})
        assert validate_config({"dropout": 0.0}).dropout == 0.0

    def test_vocab_must_exceed_reserved_ids(self):
        with pytest.raises(ConfigError, match="src_vocab_size"):
            validate_config({"src_vocab_size": 4})

    def test_bootstrap_minimum(self):
        with pytest.raises(ConfigError, match="bootstrap_samples"):
            validate_config({"bootstrap_samples": 99})

    def test_length_edges_must_ascend(self):
        with pytest.raises(ConfigError, match="length_edges"):
            validate_config({"length_edges": [10, 10, 20]})
        with pytest.raises(ConfigError, match="length_edges"):
            validate_config({"length_edges": []})

    def test_nonprojective_policy_checked(self):
        with pytest.raises(ConfigError, match="nonprojective"):
            validate_config({"nonprojective": "explode"})

    def test_sawr_needs_parser_or_cache(self):
        with pytest.raises(ConfigError, match="'parser'.*'cache'|'cache'.*'parser'"):
            validate_config({"mode": "sawr"})
        assert validate_config({"mode": "sawr", "parser": "p"}).parser == "p"
        assert validate_config({"mode": "sawr", "cache": "c"}).cache == "c"

    def test_sawr_tuned_needs_parser_and_rejects_cache(self):
        with pytest.raises(ConfigError, match="sawr-tuned.*parser"):
            validate_config({"mode": "sawr-tuned"})
        with pytest.raises(ConfigError, match="cache"):
            validate_config({"mode": "sawr-tuned", "parser": "p", "cache": "c"})

    def test_sawr_tuned_rejects_dev_cache(self):
        # the dev set is re-encoded with the tuned parser, so a cache would be ignored
        with pytest.raises(ConfigError, match="sawr-tuned.*'dev_cache'"):
            validate_config({"mode": "sawr-tuned", "parser": "p", "dev_cache": "c"})
        assert validate_config({"mode": "sawr", "parser": "p", "dev_cache": "c"}).dev_cache

    def test_config_object_exposes_every_field(self):
        cfg = validate_config({})
        assert isinstance(cfg, ExperimentConfig)
        for field in SCHEMA:
            assert hasattr(cfg, field.name)
