import json
from pathlib import Path

import pytest

from lobres import ConfigParseError, ConfigValidationError
from lobres.config import (INTERPRETER_BYTES, ONE_PATH_BYTES_PER_POINT, parse_config,
                           validate_config)

MINIMAL_THEOREM1 = """
{
  "kind": "theorem1",
  "strategy": {"type": "rate", "rate": {"fn": "sin"}}
}
"""


class TestParse:
    def test_minimal_config_fills_defaults(self):
        config = parse_config(MINIMAL_THEOREM1)
        assert config.grid.n0 == 512
        assert config.mc.paths == 1
        assert config.mc.seed == 42
        assert config.grid.horizon == 1.0
        assert config.ladder.ladder().values == tuple(16.0 * 2**j for j in range(9))
        assert config.output_dir == "out"

    def test_alpha_out_of_range(self):
        text = json.dumps({
            "kind": "theorem1",
            "book": {"alpha": 0.7},
            "strategy": {"type": "zero"},
        })
        with pytest.raises(ConfigValidationError, match=r"\[0, 1/2\]|\[0.0, 0.5\]"):
            parse_config(text)

    def test_unknown_key_rejected(self):
        text = json.dumps({
            "kind": "theorem1",
            "strategy": {"type": "zero"},
            "bogus": 1,
        })
        with pytest.raises(ConfigParseError, match="bogus"):
            parse_config(text)

    def test_unknown_nested_key_rejected(self):
        text = json.dumps({
            "kind": "theorem1",
            "grid": {"horizon": 1.0, "dt": 0.1},
            "strategy": {"type": "zero"},
        })
        with pytest.raises(ConfigParseError, match="dt"):
            parse_config(text)

    def test_malformed_json_reports_line(self):
        with pytest.raises(ConfigParseError, match="line"):
            parse_config("{\n  \"kind\": theorem1\n}")

    def test_round_trip(self):
        config = parse_config(MINIMAL_THEOREM1)
        again = parse_config(config.to_json())
        assert again == config
        assert again.config_hash() == config.config_hash()

    def test_unknown_kind(self):
        with pytest.raises(ConfigParseError, match="kind"):
            parse_config('{"kind": "nope"}')

    def test_kappa_required_for_simulate(self):
        text = json.dumps({"kind": "simulate", "book": {},
                           "strategy": {"type": "zero"}})
        with pytest.raises(ConfigParseError, match="kappa"):
            parse_config(text)

    def test_kappa_forbidden_for_experiments(self):
        text = json.dumps({"kind": "theorem1", "book": {"kappa": 4.0},
                           "strategy": {"type": "zero"}})
        with pytest.raises(ConfigParseError, match="kappa"):
            parse_config(text)

    def test_ladder_non_increasing(self):
        text = json.dumps({"kind": "theorem1", "strategy": {"type": "zero"},
                           "ladder": {"values": [16.0, 8.0]}})
        with pytest.raises(ConfigValidationError, match="increasing"):
            parse_config(text)

    def test_strategy_type_restricted_by_kind(self):
        text = json.dumps({"kind": "theorem1",
                           "strategy": {"type": "blocks", "blocks": [[0.2, 1.0]],
                                        "t_prime": 0.5}})
        with pytest.raises(ConfigValidationError, match="not allowed"):
            parse_config(text)

    def test_seed_override_changes_hash(self):
        config = parse_config(MINIMAL_THEOREM1)
        other = config.with_overrides(seed=7)
        assert other.mc.seed == 7
        assert other.config_hash() != config.config_hash()

    def test_negative_seed_rejected(self):
        text = json.dumps({"kind": "theorem1", "mc": {"seed": -5},
                           "strategy": {"type": "rate", "rate": {"fn": "sin"}}})
        with pytest.raises(ConfigValidationError, match="mc.seed"):
            parse_config(text)

    def test_paths_beyond_stream_ids_rejected(self):
        # each path is one stream, and stream ids are below 2**32
        for paths, ok in ((2**32, True), (2**32 + 1, False)):
            text = json.dumps({"kind": "lemma-jump", "mc": {"paths": paths},
                               "strategy": {"type": "blocks", "blocks": [[0.25, 1.0]],
                                            "t_prime": 0.5}})
            if ok:
                assert parse_config(text).mc.paths == paths
            else:
                with pytest.raises(ConfigValidationError, match="mc.paths"):
                    parse_config(text)

    def test_negative_seed_override_rejected(self):
        config = parse_config(MINIMAL_THEOREM1)
        with pytest.raises(ConfigValidationError, match="mc.seed"):
            config.with_overrides(seed=-5)

    def test_utility_requires_positive_sigma(self):
        text = json.dumps({
            "kind": "utility",
            "fundamental": {"mu": 0.1, "sigma": 0.0},
        })
        with pytest.raises(ConfigValidationError, match="sigma"):
            parse_config(text)

    def test_function_spec_unknown_fn(self):
        text = json.dumps({"kind": "theorem1",
                           "strategy": {"type": "rate", "rate": {"fn": "tan"}}})
        with pytest.raises(ConfigParseError, match="fn"):
            parse_config(text)


class TestValidate:
    def test_ok_with_estimates(self):
        report = validate_config(parse_config(MINIMAL_THEOREM1))
        assert report["ok"]
        assert report["estimates"]["grid_steps"] == 512
        assert report["estimates"]["cells"] == 9
        assert report["warnings"] == []

    def test_budget_warning(self):
        text = json.dumps({"kind": "lemma-jump",
                           "strategy": {"type": "blocks", "blocks": [[0.25, 1.0]],
                                        "t_prime": 0.5},
                           "mc": {"paths": 1_000_000}})
        report = validate_config(parse_config(text))
        assert any("budget" in w for w in report["warnings"])

    def test_gap_kinds_count_one_path(self):
        text = json.dumps({"kind": "theorem1", "strategy": {"type": "zero"},
                           "mc": {"paths": 1_000_000}})
        report = validate_config(parse_config(text))
        assert report["estimates"]["cost_proxy"] == 512.0 * 9
        assert not any("budget" in w for w in report["warnings"])
        assert any("price path" in w for w in report["warnings"])

    def test_simulate_counts_one_path(self):
        text = json.dumps({"kind": "simulate", "book": {"kappa": 1e4},
                           "strategy": {"type": "zero"},
                           "mc": {"paths": 1_000_000}})
        report = validate_config(parse_config(text))
        assert report["estimates"]["grid_steps"] == 512
        assert report["estimates"]["cost_proxy"] == 512.0
        assert report["estimates"]["approx_memory_bytes"] == (
            INTERPRETER_BYTES + ONE_PATH_BYTES_PER_POINT * 513)
        assert not any("budget" in w for w in report["warnings"])
        assert any("one price path" in w for w in report["warnings"])

    @pytest.mark.parametrize("name, expected", [
        # targets and positions, two (steps+1, paths) float64 arrays
        ("tracker_bound.json", 2 * 8 * 513 * 10_000),
        # one (steps, paths) noise buffer plus bootstrap x paths int64 indices
        ("utility.json", 8 * 512 * 10_000 + 8 * 500 * 10_000),
        # one (steps, paths) noise buffer
        ("lemma_jump_noisy.json", 8 * 512 * 1000),
        # one path only
        ("l2.json", 0),
        ("simulate.json", 0),
    ])
    def test_memory_estimate_of_shipped_configs(self, name, expected):
        # the interpreter and one path's scan and ledger on 513 grid points,
        # plus the per-path arrays
        text = (Path(__file__).resolve().parent.parent / "configs" / name).read_text()
        report = validate_config(parse_config(text))
        assert report["estimates"]["approx_memory_bytes"] == (
            INTERPRETER_BYTES + ONE_PATH_BYTES_PER_POINT * 513 + expected)
