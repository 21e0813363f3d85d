import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from lobres import ConfigError, ConfigParseError, ConfigValidationError
from lobres.cli import main
from lobres.config import (INTERPRETER_BYTES, ONE_PATH_BYTES_PER_POINT, SCIPY_BYTES,
                           parse_config, validate_config)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

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
        other = replace(config, mc=replace(config.mc, seed=7))
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
            replace(config.mc, seed=-5)

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

    @pytest.mark.parametrize("kind", ["theorem1", "remark1", "l2"])
    def test_gap_kinds_warn_that_phi0_has_no_effect(self, kind):
        config = {"kind": kind, "strategy": {"type": "rate", "rate": 1.0, "phi0": 5.0}}
        report = validate_config(parse_config(json.dumps(config)))
        assert report["warnings"] == [f"strategy.phi0 = 5.0 has no effect: the {kind} "
                                      "gap does not depend on the initial position"]
        config["strategy"]["phi0"] = 0.0
        assert validate_config(parse_config(json.dumps(config)))["warnings"] == []

    def test_simulate_counts_one_path(self):
        text = json.dumps({"kind": "simulate", "book": {"kappa": 1e4},
                           "strategy": {"type": "zero"},
                           "mc": {"paths": 1_000_000}})
        report = validate_config(parse_config(text))
        assert report["estimates"]["grid_steps"] == 512
        assert report["estimates"]["cost_proxy"] == 512.0
        # the one price path is drawn through scipy's ndtri
        assert report["estimates"]["approx_memory_bytes"] == (
            INTERPRETER_BYTES + SCIPY_BYTES + ONE_PATH_BYTES_PER_POINT * 513)
        assert not any("budget" in w for w in report["warnings"])
        assert any("one price path" in w for w in report["warnings"])

    @pytest.mark.parametrize("name, expected", [
        # scipy, one float64 result per rung and path, one (steps, 1024-path)
        # chunk of noise
        ("tracker_bound.json", SCIPY_BYTES + 8 * 7 * 10_000 + 8 * 512 * 1024),
        # the same with one result per (kappa, multiplier) cell and path
        ("utility.json", SCIPY_BYTES + 8 * 9 * 10_000 + 8 * 512 * 1024),
        # fewer paths than a chunk holds
        ("lemma_jump_noisy.json", SCIPY_BYTES + 8 * 9 * 1000 + 8 * 512 * 1000),
        # no noise: the per-rung results only
        ("lemma_jump.json", 8 * 9 * 1),
        # one path only, drawn through scipy for simulate
        ("l2.json", 0),
        ("simulate.json", SCIPY_BYTES),
    ])
    def test_memory_estimate_of_shipped_configs(self, name, expected):
        # the interpreter and one path's scan and ledger on 513 grid points,
        # plus scipy and the Monte-Carlo arrays
        text = (Path(__file__).resolve().parent.parent / "configs" / name).read_text()
        report = validate_config(parse_config(text))
        assert report["estimates"]["approx_memory_bytes"] == (
            INTERPRETER_BYTES + ONE_PATH_BYTES_PER_POINT * 513 + expected)


# Minimal valid configs per kind; each error row changes one thing in one of them.
THEOREM1 = {"kind": "theorem1", "strategy": {"type": "zero"}}
SIMULATE = {"kind": "simulate", "book": {"kappa": 64.0}, "strategy": {"type": "zero"}}
LEMMA = {"kind": "lemma-jump",
         "strategy": {"type": "blocks", "blocks": [[0.25, 1.0]], "t_prime": 0.5}}
UTILITY = {"kind": "utility", "fundamental": {"sigma": 0.2}}


def _with(base, **changes):
    return {**base, **changes}


def _blocks(blocks, t_prime=0.5):
    return _with(LEMMA, strategy={"type": "blocks", "blocks": blocks, "t_prime": t_prime})


# One row per error the parser raises: the config (a dict, or raw text), the
# exact exception type and the exact message.
ERROR_ROWS = [
    (_with(THEOREM1, grid=5), ConfigParseError, "grid must be an object, got int"),
    (_with(THEOREM1, grid={"dt": 0.1}), ConfigParseError, "unknown key 'dt' in grid"),
    (_with(THEOREM1, grid={"horizon": "1"}), ConfigParseError,
     "grid.horizon must be a number, got '1'"),
    (_with(THEOREM1, grid={"horizon": float("inf")}), ConfigValidationError,
     "grid.horizon must be finite, got inf"),
    (_with(THEOREM1, grid={"n0": 1.5}), ConfigParseError,
     "grid.n0 must be an integer, got 1.5"),
    (_with(THEOREM1, book={"K": True}), ConfigParseError,
     "book.K must be a number or function spec"),
    (_with(THEOREM1, strategy={"type": "rate", "rate": {"fn": "tan"}}), ConfigParseError,
     "strategy.rate.fn must be one of ['const', 'cos', 'linear', 'sin'], got 'tan'"),
    (_with(THEOREM1, book={"K": {"fn": "const"}}), ConfigParseError,
     "book.K.value is required for fn='const'"),
    (_with(THEOREM1, fundamental={"sigma": -0.1}), ConfigValidationError,
     "fundamental.sigma must lie in [0.0, inf], got -0.1"),
    (_with(THEOREM1, book={"alpha": 0.7}), ConfigValidationError,
     "book.alpha must lie in [0.0, 0.5], got 0.7"),
    (_with(THEOREM1, grid={"horizon": 0}), ConfigValidationError,
     "grid.horizon must be positive"),
    (_with(THEOREM1, grid={"n0": 0}), ConfigValidationError, "grid.n0 must be at least 1"),
    (_with(THEOREM1, grid={"resolution_scale": 0}), ConfigValidationError,
     "grid.resolution_scale must be positive"),
    (_with(SIMULATE, book={"kappa": -1.0}), ConfigValidationError,
     "book.kappa must be positive"),
    (_with(THEOREM1, book={"kappa": 4.0}), ConfigParseError,
     "book.kappa is set by the ladder for experiment kinds; remove it"),
    (_with(SIMULATE, book={}), ConfigParseError, "missing required key 'kappa' in book"),
    (_with(THEOREM1, strategy={"type": "nope"}), ConfigParseError,
     "strategy.type must be one of ['blocks', 'rate', 'tracker', 'zero'], got 'nope'"),
    (_blocks([]), ConfigParseError, "strategy.blocks must be a nonempty list of [time, size]"),
    (_blocks([[0.2]]), ConfigParseError, "strategy.blocks[0] must be [time, size]"),
    (_blocks([[0.2, 1.0]], t_prime=1.0), ConfigValidationError,
     "strategy.t_prime must lie strictly between 0 and grid.horizon"),
    (_blocks([[0.3, 1.0], [0.2, 1.0]]), ConfigValidationError,
     "strategy block times must be strictly increasing"),
    (_blocks([[0.6, 1.0]]), ConfigValidationError,
     "strategy block times must lie in [0, t_prime]"),
    (_blocks([[0.2, 0.0]]), ConfigValidationError, "strategy block sizes must be nonzero"),
    (_with(THEOREM1, ladder={"values": []}), ConfigParseError,
     "ladder.values must be a nonempty list"),
    (_with(THEOREM1, ladder={"values": [16.0, 8.0]}), ConfigValidationError,
     "ladder.values must be positive and strictly increasing"),
    (_with(THEOREM1, ladder={"values": [4096.0, 4097.0]}), ConfigValidationError,
     "ladder must have at least 3 rungs for kind 'theorem1' (a rate fit needs 3 points), got 2"),
    (_with(THEOREM1, ladder={"start": 0}), ConfigValidationError,
     "ladder.start must be positive"),
    (_with(THEOREM1, ladder={"factor": 1}), ConfigValidationError,
     "ladder.factor must exceed 1"),
    (_with(THEOREM1, ladder={"count": 0}), ConfigValidationError,
     "ladder.count must be at least 1"),
    (_with(THEOREM1, mc={"seed": -5}), ConfigValidationError,
     "mc.seed must be non-negative, got -5"),
    (_with(THEOREM1, mc={"paths": 0}), ConfigValidationError, "mc.paths must be at least 1"),
    (_with(THEOREM1, mc={"paths": 2**32 + 1}), ConfigValidationError,
     "mc.paths must be at most 2**32 (one stream id below 2**32 per path)"),
    (_with(LEMMA, smoothing={"width_scale": 0}), ConfigValidationError,
     "smoothing.width_scale must be positive"),
    ({"kind": "tracker-bound", "tracker": {"coeff_bound": 0}}, ConfigValidationError,
     "tracker.coeff_bound and tracker.rate_floor must be positive"),
    (_with(UTILITY, utility={"multipliers": 2}), ConfigParseError,
     "utility.multipliers and utility.kappas must be lists"),
    (_with(UTILITY, utility={"gamma": 0}), ConfigValidationError,
     "utility.gamma must be positive"),
    (_with(UTILITY, utility={"multipliers": [0.5, 2.0]}), ConfigValidationError,
     "utility.multipliers must include 1 (the candidate)"),
    (_with(UTILITY, utility={"multipliers": [1.0, -1.0]}), ConfigValidationError,
     "utility.multipliers must be positive"),
    (_with(UTILITY, utility={"kappas": [64.0, 16.0]}), ConfigValidationError,
     "utility.kappas must be positive and strictly increasing"),
    (_with(UTILITY, utility={"bootstrap": 5}), ConfigValidationError,
     "utility.bootstrap must be at least 10"),
    ({"kind": "l2", "strategy": {"type": "zero"},
      "bounds": {"rate": 0, "coefficient": 1, "resilience_floor": 1}},
     ConfigValidationError, "bounds entries must be positive"),
    ('{\n  "kind": theorem1\n}', ConfigParseError, "parse error at line 2: Expecting value"),
    ({"kind": "nope"}, ConfigParseError,
     "kind must be one of ['l2', 'lemma-jump', 'remark1', 'simulate', 'theorem1', "
     "'tracker-bound', 'utility'], got 'nope'"),
    (_with(THEOREM1, output={"directory": ""}), ConfigParseError,
     "output.directory must be a nonempty string"),
    ({"kind": "theorem1"}, ConfigParseError,
     "missing required section 'strategy' for kind 'theorem1'"),
    (_with(LEMMA, kind="theorem1"), ConfigValidationError,
     "strategy.type 'blocks' is not allowed for kind 'theorem1' (allowed: ['rate', 'zero'])"),
    (_with(UTILITY, fundamental={"sigma": 0.0}), ConfigValidationError,
     "utility runs need a constant positive fundamental.sigma"),
    (_with(UTILITY, fundamental={"mu": {"fn": "sin"}, "sigma": 0.2}), ConfigValidationError,
     "utility runs need a constant fundamental.mu"),
]


# Inputs that used to escape the parser as a traceback (exit 1 from the CLI);
# each is now refused with a config error.
CRASH_ROWS = {
    "integer-beyond-float-range": (
        _with(THEOREM1, grid={"horizon": 10**400}), ConfigValidationError,
        f"grid.horizon must be finite, got {10**400}"),
    # validate took max() of the empty list
    "empty-utility-kappas": (
        _with(UTILITY, utility={"kappas": []}), ConfigParseError,
        "utility.kappas must be a nonempty list"),
    "ladder-top-rung-overflow-error": (
        _with(THEOREM1, ladder={"count": 2000}), ConfigValidationError,
        "ladder.start * ladder.factor**(ladder.count - 1) must be finite"),
    "ladder-top-rung-infinite": (
        _with(THEOREM1, ladder={"start": 1e300, "factor": 1e10, "count": 3}),
        ConfigValidationError, "ladder.start * ladder.factor**(ladder.count - 1) must be finite"),
    "non-string-fn": (
        _with(THEOREM1, strategy={"type": "rate", "rate": {"fn": ["sin"]}}), ConfigParseError,
        "strategy.rate.fn must be one of ['const', 'cos', 'linear', 'sin'], got ['sin']"),
    # validate converted the step count to a float (OverflowError)
    "n0-beyond-float-range": (
        _with(THEOREM1, grid={"n0": 10**400}), ConfigValidationError,
        "grid steps max(grid.n0, grid.resolution_scale * sqrt(largest kappa)) must be finite"),
    # validate took math.ceil of an infinite step count (OverflowError)
    "resolution-times-sqrt-kappa-infinite": (
        _with(THEOREM1, grid={"resolution_scale": 1e300}, ladder={"values": [1e300]}),
        ConfigValidationError,
        "grid steps max(grid.n0, grid.resolution_scale * sqrt(largest kappa)) must be finite"),
    # json.loads raised a plain ValueError past int()'s 4,300-digit limit
    "integer-literal-over-digit-limit": (
        '{"kind": "theorem1", "strategy": {"type": "zero"}, "grid": {"n0": 1%s}}' % ("0" * 5000),
        ConfigParseError, "parse error: an integer literal has more than 4300 digits"),
    # json.loads raised RecursionError
    "nesting-beyond-recursion-limit": (
        '{"kind": "theorem1", "strategy": %s}' % ("[" * 100_000 + "]" * 100_000),
        ConfigParseError, "parse error: arrays or objects nested too deeply"),
}


@pytest.mark.parametrize(
    "config, error, message",
    ERROR_ROWS + list(CRASH_ROWS.values()),
    ids=[row[2][:60] for row in ERROR_ROWS] + list(CRASH_ROWS))
def test_error_table(config, error, message):
    text = config if isinstance(config, str) else json.dumps(config)
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert type(info.value) is error
    assert str(info.value) == message


# Inline configs that cover every strategy type, both ladder forms, bounds and
# every coefficient function, next to the shipped ones.
INLINE_CONFIGS = {
    "simulate_tracker": {
        "kind": "simulate",
        "book": {"kappa": 64.0, "K": {"fn": "linear", "intercept": 1.0, "slope": 0.5},
                 "h": {"fn": "const", "value": 2.0}, "K_down": 1.5,
                 "alpha_down": {"fn": "cos", "amplitude": 0.1, "offset": 0.2}},
        "strategy": {"type": "tracker", "target": {"fn": "sin"}, "rate_scale": 2.0},
    },
    "simulate_tracker_start": {
        "kind": "simulate", "book": {"kappa": 16.0, "h_down": 0.5, "eps_down": 0.01},
        "strategy": {"type": "tracker", "target": 2.0, "start": 0.5, "phi0": 1.0},
        "output": {"directory": "elsewhere"},
    },
    "simulate_rate": {
        "kind": "simulate", "x0": 1.5, "book": {"kappa": 4.0},
        "fundamental": {"mu": {"fn": "linear", "slope": -0.1},
                        "sigma": {"fn": "cos", "amplitude": 0.1, "offset": 0.2}},
        "strategy": {"type": "rate", "rate": {"fn": "cos", "frequency": 2.0}, "phi0": 0.5},
    },
    "simulate_zero": {"kind": "simulate", "book": {"kappa": 1e4},
                      "strategy": {"type": "zero"}},
    "theorem1_values": {"kind": "theorem1", "strategy": {"type": "rate", "rate": 0.5},
                        "ladder": {"values": [8, 32.5, 1e3]}, "grid": {"n0": 64}},
    "remark1_defaults": {"kind": "remark1", "strategy": {"type": "zero"}},
    "l2_bounds": {"kind": "l2", "strategy": {"type": "rate", "rate": {"fn": "sin", "offset": 1}},
                  "bounds": {"rate": 2, "coefficient": 3.5, "resilience_floor": 0.25},
                  "ladder": {"start": 4, "factor": 3, "count": 4},
                  "mc": {"paths": 3, "seed": 0}},
    "lemma_jump_blocks": {"kind": "lemma-jump", "smoothing": {"width_scale": 0.5},
                          "strategy": {"type": "blocks", "blocks": [[0, -1], [0.125, 2.5]],
                                       "t_prime": 0.25}},
    "tracker_bound": {"kind": "tracker-bound",
                      "tracker": {"target_drift": {"fn": "linear", "intercept": 0.1},
                                  "target_vol": 0.5,
                                  "rate_scale": {"fn": "cos", "amplitude": 0.5, "offset": 1.0},
                                  "coeff_bound": 2, "rate_floor": 0.5, "target0": -1}},
    "utility": {"kind": "utility", "fundamental": {"mu": 0.05, "sigma": 0.3},
                "utility": {"gamma": 2, "multipliers": [1, 3], "kappas": [10, 20], "x0": 5,
                            "bootstrap": 10}},
}

# config_hash() and the first 16 hex digits of sha256(to_json()) of each config.
GOLDEN = {
    "simulate_tracker": ("a429bb20d71f84e613de6c183efb5259e1a0cabc23bca68235daea1140f98473",
                         "914b8e80ae2c9e76"),
    "simulate_tracker_start": (
        "01b2567962c4cb470c1dd12f5341bcdc7675a043a93a951fab8d56bdc257fc91", "dd5c8800c60fd002"),
    "simulate_rate": ("166650fc388554e491d01d37554829b2a59e61cc39c363774d8e947d47cc7703",
                      "e69c905a5745759b"),
    "simulate_zero": ("81b146ec4f0aefaf635d16939fe7014bf80972f10b7c10425db34ade40df9106",
                      "fbbeb290a1475b9a"),
    "theorem1_values": ("4b2f1a3d9f4f065d7527e42d8fedf4c33c7c69e48859578743433f8dfca7216b",
                        "ae77844be0cd3560"),
    "remark1_defaults": ("b75bfb05876cd60cb32e0ad0bb2762569ebb0d976ecb822e98fde6195611ecc8",
                         "cfd5fa8fb8a8abd3"),
    "l2_bounds": ("e3116955ba994011714bd43c473a5695c22c4e8add339abf52909830e3059472",
                  "ecd487ca64f77f2b"),
    "lemma_jump_blocks": ("a60415632375cb1e4a7545d763021dd03bc7fa86bbc64ba01f8a6e0e45c42d22",
                          "e71ea70b186f546c"),
    "tracker_bound": ("8784e33aa76530f172dc5df3fee0470fbd4a287581f28307f33f44499322e6c6",
                      "6660919a03b3e776"),
    "utility": ("d90b580e099922099badaf257546e35b154a4685027ce37cba32d723fc710f52",
                "6e3c62d80a54b13a"),
    "l2.json": ("9606e4a4e5ac1aa84d62f3624b6fc62b7cdd8ad8dffe0e10512876804ffb866f",
                "4f4807a66b1128cb"),
    "lemma_jump.json": ("81527b402b3c4a71cce90c695cfa58704bcb655de74189b240c6af6823415957",
                        "dd54950adfa14e5f"),
    "lemma_jump_noisy.json": (
        "30d75d9ec0112b6059709ed083666b0364a975ecd1f4e6340fab78c50c6973cd", "b73a2b31ce2c24a2"),
    "remark1.json": ("1c31cf9af085ae5b78fc5b7f55d8b023aeade03e51ddb5e489c68f5faa1eb558",
                     "ccdc7258dde478f9"),
    "simulate.json": ("31ad10d7a1b339df500434abe88652f3857bf04f85db2280335698919b9fa5d4",
                      "4fda917e947967cc"),
    "theorem1.json": ("c154b12854133b330275c983a57ca5ef329fe72568732e0f759b913dd68f81f2",
                      "47ebc7d750808a9d"),
    "tracker_bound.json": ("9343e884f9cb13374bcb056f1ea764e8df323301303f624d90428f3f09168207",
                           "337aac1df99893ce"),
    "utility.json": ("4621771d64d036ee70a71cabe27fe84a805c25bbd250fddc9a7a876c071e58d0",
                     "6781e5f2c3f47218"),
}


def _config_text(name):
    if name.endswith(".json"):
        return (CONFIG_DIR / name).read_text()
    return json.dumps(INLINE_CONFIGS[name])


def test_golden_covers_every_shipped_config():
    assert {p.name for p in CONFIG_DIR.glob("*.json")} <= set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_hash_and_round_trip(name):
    config = parse_config(_config_text(name))
    assert parse_config(config.to_json()) == config
    assert config.config_hash() == GOLDEN[name][0]
    assert hashlib.sha256(config.to_json().encode()).hexdigest()[:16] == GOLDEN[name][1]


@pytest.mark.parametrize("name", list(CRASH_ROWS))
def test_validate_refuses_former_crash_inputs(name, tmp_path, capsys):
    config = CRASH_ROWS[name][0]
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_null_down_side_coefficients_mean_absent():
    # README lists null as the default of every book.*_down key
    down = {key: None for key in ("K_down", "h_down", "alpha_down", "eps_down")}
    with_nulls = parse_config(json.dumps(_with(SIMULATE, book={"kappa": 64.0, **down})))
    without = parse_config(json.dumps(SIMULATE))
    assert with_nulls == without
    assert with_nulls.config_hash() == without.config_hash()
