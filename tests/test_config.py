import json
import sys
import tracemalloc
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import lobres.config as config_module
from helpers import count_shared_bytes, run_python
from lobres import ConfigError, ConfigParseError, ConfigValidationError
from lobres.cli import main
from lobres.config import (INTERPRETER_BYTES, ONE_PATH_BYTES_PER_POINT, SCIPY_BYTES, lane_bytes,
                           parse_config, validate_config)
from lobres.experiments import (_BOOTSTRAP_STREAM, paths_per_chunk, tracker_bound_experiment,
                                tracker_bound_inputs)
from lobres.paths import LANES, IndexStream, _ndtri, lane_width, normals_block

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
        again = parse_config(json.dumps(config.to_dict()))
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
        other = config.replace(mc=config.mc.replace(seed=7))
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
            config.mc.replace(seed=-5)

    def test_overrides_run_the_checks_with_their_messages(self):
        # --seed and --out build the config with replace(), which checks them
        config = parse_config(MINIMAL_THEOREM1)
        with pytest.raises(ConfigValidationError,
                           match=r"^mc\.seed must be non-negative, got -1$"):
            config.replace(mc=config.mc.replace(seed=-1))
        with pytest.raises(ConfigParseError,
                           match=r"^output\.directory must be a nonempty string$"):
            config.replace(output_dir="")

    def test_schema_records_are_immutable_values(self):
        config = parse_config((CONFIG_DIR / "utility.json").read_text())
        for record in (config, config.grid, config.mc, config.utility, config.fundamental.sigma):
            name = next(iter(vars(record)))
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, None)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
            copy = record.replace()
            assert copy == record and copy is not record and hash(copy) == hash(record)
        other = config.replace(mc=config.mc.replace(seed=43))
        assert other.mc != config.mc and other != config and other.grid is config.grid
        assert repr(other.mc) == "McConfig(paths=10000, seed=43)"
        assert config.mc != (10000, 42)

    def test_schema_records_refuse_unknown_repeated_or_missing_fields(self):
        from lobres.config import CoeffSpec, McConfig

        assert CoeffSpec("const", (("value", 1.0),)) == CoeffSpec(fn="const",
                                                                  params=(("value", 1.0),))
        for args, kwargs in (((1, 2, 3), {}), ((1,), {"paths": 2}), ((), {"paths": 1}),
                             ((), {"paths": 1, "seed": 2, "depth": 3})):
            with pytest.raises(TypeError):
                McConfig(*args, **kwargs)

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

    @pytest.mark.parametrize("kind", ["theorem1", "remark1", "l2"])
    def test_gap_kinds_warn_that_fundamental_has_no_effect(self, kind):
        config = {"kind": kind, "strategy": {"type": "rate", "rate": 1.0},
                  "fundamental": {"s0": 5.0, "mu": {"fn": "sin"}, "sigma": 0.7}}
        report = validate_config(parse_config(json.dumps(config)))
        assert report["warnings"] == [
            'fundamental.s0 = 5.0, fundamental.mu = {"fn": "sin", "amplitude": 1.0, '
            '"frequency": 1.0, "offset": 0.0}, fundamental.sigma = 0.7 have no effect: '
            f"the {kind} gap does not depend on the price path"]
        # mc.paths joins the same warning; the defaults written out give none
        config.update(fundamental={"sigma": 0.2}, mc={"paths": 16})
        assert validate_config(parse_config(json.dumps(config)))["warnings"] == [
            f"mc.paths = 16, fundamental.sigma = 0.2 have no effect: the {kind} gap does "
            "not depend on the price path"]
        config.update(fundamental={"s0": 100, "mu": 0.0, "sigma": 0}, mc={"paths": 1})
        assert validate_config(parse_config(json.dumps(config)))["warnings"] == []

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")) + sorted(
        CONFIG_DIR.parent.glob("perfbench/workloads/*/*.json")),
                             ids=lambda p: f"{p.parent.name}/{p.stem}")
    def test_shipped_configs_warn_only_about_l2_price_path(self, path):
        warnings = validate_config(parse_config(path.read_text()))["warnings"]
        assert warnings == ([] if path.stem != "l2" else [
            "mc.paths = 16, fundamental.sigma = 0.2 have no effect: the l2 gap does not "
            "depend on the price path"])

    def test_simulate_counts_one_path(self):
        text = json.dumps({"kind": "simulate", "book": {"kappa": 1e4},
                           "strategy": {"type": "zero"},
                           "mc": {"paths": 1_000_000}})
        report = validate_config(parse_config(text))
        assert report["estimates"]["grid_steps"] == 512
        assert report["estimates"]["cost_proxy"] == 512.0
        # the one price path has sigma 0, so it draws nothing and scipy's
        # ndtri is not loaded; the book and the zero rate are constants,
        # each held as one value
        assert report["estimates"]["approx_memory_bytes"] == (
            INTERPRETER_BYTES + ONE_PATH_BYTES_PER_POINT * 513)
        assert not any("budget" in w for w in report["warnings"])
        assert any("one price path" in w for w in report["warnings"])

    @pytest.mark.parametrize("book, rate, varying", [
        ({}, 0.5, 0),
        ({"K": {"fn": "sin", "amplitude": 0.5, "offset": 1.0}}, 0.5, 1),
        ({"h_down": {"fn": "linear", "intercept": 1.0}, "alpha_down": 0.1}, {"fn": "cos"}, 2),
        ({"K": {"fn": "sin", "amplitude": 0.5, "offset": 1.0}, "eps": {"fn": "linear"},
          "K_down": {"fn": "sin", "amplitude": 0.5, "offset": 1.0}}, 0.0, 3),
    ], ids=["constants", "sin-K", "linear-h-down-cos-rate", "three-book-functions"])
    def test_each_input_that_varies_in_time_adds_one_path(self, book, rate, varying):
        # a book coefficient or a strategy rate that is a function of time is
        # a full float64 path; a constant, a given down side included, is one
        # value
        text = json.dumps({"kind": "simulate", "book": {"kappa": 1e4, **book},
                           "strategy": {"type": "rate", "rate": rate}})
        report = validate_config(parse_config(text))
        assert report["estimates"]["approx_memory_bytes"] == (
            INTERPRETER_BYTES + (ONE_PATH_BYTES_PER_POINT + 8 * varying) * 513)

    def test_a_tracker_adds_its_rate_path(self):
        # the relaxed rate is a full path even for a constant target
        text = json.dumps({"kind": "simulate", "book": {"kappa": 1e4},
                           "strategy": {"type": "tracker", "target": 1.0}})
        report = validate_config(parse_config(text))
        assert report["estimates"]["approx_memory_bytes"] == (
            INTERPRETER_BYTES + (ONE_PATH_BYTES_PER_POINT + 8) * 513)

    # ids from the config name alone, so that a changed estimate renames no test
    @pytest.mark.parametrize("name, expected", [pytest.param(*case, id=case[0]) for case in [
        # scipy and the noise lanes (a (512, 1024) block: 8 lanes x 1,024
        # streams at 14 uint64 values each), one float64 result per rung and
        # path, one (steps, 1024-path) chunk block, and three (rungs,
        # 1024-path) arrays: the positions, squared errors and running maxima
        ("tracker_bound.json", SCIPY_BYTES + 8 * 14 * 8192 + 8 * 7 * 10_000
         + 8 * 512 * 1024 + 3 * 8 * 7 * 1024),
        # one result per (kappa, multiplier) cell and path and no rung rows,
        # plus the bootstrap: 9 cells x 500 resampled CEs, one kappa's 3 x 500
        # gaps, and one chunk of 2**16 // 10,000 = 6 resamples of int64
        # indices and samples; the bootstrap's index stream steps as many
        # lanes as the noise
        ("utility.json", SCIPY_BYTES + 8 * 14 * 8192 + 8 * 9 * 10_000
         + 8 * 512 * 1024 + 8 * ((9 + 3) * 500 + 2 * 6 * 10_000)),
        # fewer paths than a chunk holds: 8 lanes x 1,000 streams
        ("lemma_jump_noisy.json", SCIPY_BYTES + 8 * 14 * 8000 + 8 * 9 * 1000
         + 8 * 512 * 1000),
        # no noise: the per-rung results only
        ("lemma_jump.json", 8 * 9 * 1),
        # one path only; l2's strategy rate is a sin, one varying input path
        ("l2.json", 8 * 513),
        # drawn through scipy for simulate: one stream on 512 lanes, one step
        ("simulate.json", SCIPY_BYTES + 8 * 14 * 512),
    ]])
    def test_memory_estimate_of_shipped_configs(self, name, expected):
        # the interpreter and one path's scan and ledger on 513 grid points,
        # plus scipy, the lanes, varying inputs and the Monte-Carlo arrays
        text = (Path(__file__).resolve().parent.parent / "configs" / name).read_text()
        report = validate_config(parse_config(text))
        assert report["estimates"]["approx_memory_bytes"] == (
            INTERPRETER_BYTES + ONE_PATH_BYTES_PER_POINT * 513 + expected)

    @pytest.mark.parametrize("paths, rows", [(10_000, 6), (200, 327)])
    def test_utility_memory_counts_the_bootstrap(self, paths, rows):
        # each resample adds a CE per cell and a gap per multiplier (one
        # kappa's gaps exist at a time); a chunk holds
        # 2**16 // paths resamples, or all of them when fewer, each of paths
        # int64 indices and gathered samples.  Estimated only, never run.
        config = json.loads((CONFIG_DIR / "utility.json").read_text())
        config["mc"]["paths"] = paths

        def estimate(bootstrap):
            config["utility"]["bootstrap"] = bootstrap
            report = validate_config(parse_config(json.dumps(config)))
            return report["estimates"]["approx_memory_bytes"]

        low, high = 10, 10**8
        assert estimate(high) - estimate(low) == 8 * (
            (9 + 3) * (high - low) + 2 * (rows - min(low, rows)) * paths)
        assert estimate(high) > 8 * (9 + 3) * high

    @pytest.mark.parametrize("paths", [2, 10_000])
    def test_utility_counts_the_larger_of_its_lanes(self, paths, monkeypatch):
        # the bootstrap's index stream starts after the last noise lanes are
        # freed, so only the larger counts: the index stream's 8,192 lanes
        # next to 2 paths' 512 lanes each, the noise lanes' next to 8,192
        config = json.loads((CONFIG_DIR / "utility.json").read_text())
        config["mc"]["paths"] = paths
        config = parse_config(json.dumps(config))
        estimate = validate_config(config)["estimates"]["approx_memory_bytes"]
        monkeypatch.setattr(config_module, "LANES", 0)
        without = validate_config(config)["estimates"]["approx_memory_bytes"]
        chunk = min(paths, paths_per_chunk(512))
        noise = lane_bytes(chunk * lane_width(chunk, 512))
        assert estimate - without == max(0, lane_bytes(LANES) - noise)
        assert (estimate > without) == (paths == 2)

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json"))
                             + ["lemma_jump_zero_linear_sigma", "simulate_zero_sigma"])
    def test_scipy_accounting_matches_the_run(self, name, tmp_path, monkeypatch):
        # validate counts scipy's ndtri iff the run loads its extension module,
        # and no run imports the scipy.special package; the lemma-jump case's
        # sigma is a function of time that is zero everywhere, and a simulate
        # run with sigma 0 neither counts nor loads it
        if name == "lemma_jump_zero_linear_sigma":
            config = json.loads((CONFIG_DIR / "lemma_jump_noisy.json").read_text())
            config["fundamental"]["sigma"] = {"fn": "linear", "intercept": 0.0, "slope": 0.0}
        elif name == "simulate_zero_sigma":
            config = json.loads((CONFIG_DIR / "simulate.json").read_text())
            config["fundamental"]["sigma"] = 0.0
        else:
            config = json.loads((CONFIG_DIR / name).read_text())
        config.setdefault("mc", {})["paths"] = min(config.get("mc", {}).get("paths", 1), 200)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))

        estimate = validate_config(parse_config(path.read_text()))["estimates"]
        monkeypatch.setattr(config_module, "SCIPY_BYTES", 0)
        without = validate_config(parse_config(path.read_text()))["estimates"]
        command = {"simulate": "simulate", "utility": "utility"}.get(config["kind"], "converge")
        code = (f"import sys; from lobres.cli import main; code = main([{command!r}, "
                f"'--config', {str(path)!r}, '--out', {str(tmp_path / 'out')!r}]); "
                f"print(code, 'scipy.special._ufuncs' in sys.modules, "
                f"'scipy.special' in sys.modules)")
        exit_code, loaded, package = run_python(code, timeout=120).split()
        assert exit_code in ("0", "1")
        assert package == "False"
        assert (loaded == "True") == (estimate["approx_memory_bytes"]
                                      != without["approx_memory_bytes"])
        if name == "simulate_zero_sigma":
            assert loaded == "False"

    @pytest.mark.parametrize("paths, n0", [(3000, 512), (1000, 2048)])
    def test_tracker_bound_memory_matches_the_traced_peak(self, paths, n0, monkeypatch):
        # validate's Monte-Carlo term (per-path results, one chunk block, the
        # per-rung rows of the chunk and normals_block's lane arrays) is
        # within 5% of the peak numpy allocates during the experiment, on 512
        # steps in chunks of 1,024 paths and on 2,048 steps in chunks of 256;
        # the per-path results are mapped, not traced, and live throughout
        shared = count_shared_bytes(monkeypatch)
        config = json.loads((CONFIG_DIR / "tracker_bound.json").read_text())
        config["mc"]["paths"] = paths
        config["grid"]["n0"] = n0
        config = parse_config(json.dumps(config))
        estimates = validate_config(config)["estimates"]
        term = (estimates["approx_memory_bytes"] - INTERPRETER_BYTES - SCIPY_BYTES
                - ONE_PATH_BYTES_PER_POINT * (estimates["grid_steps"] + 1))
        tc, grid = config.tracker, config.time_grid()
        _ndtri()  # loaded first: SCIPY_BYTES counts it
        tracemalloc.start()
        try:  # the set-up's inputs, then the experiment
            inputs = tracker_bound_inputs(grid, tc.target_drift.value(), tc.target_vol.value(),
                                          tc.rate_scale.value(), tc.coeff_bound, tc.rate_floor,
                                          paths)
            tracker_bound_experiment(config.kappas(), grid, inputs, target0=tc.target0,
                                     paths=paths, seed=42)
            peak = tracemalloc.get_traced_memory()[1] + sum(shared)
        finally:
            tracemalloc.stop()
        assert abs(term / peak - 1.0) <= 0.05


@pytest.mark.parametrize("user, size, n", [
    *[("normals_block", paths, n) for paths, n in [
        (1024, 512), (256, 2048), (3, 10_007), (1, 512), (1, 126_492), (2, 64), (8192, 64),
        (16_384, 32)]],
    *[("IndexStream", bound, n) for bound, n in [
        (10_000, 6 * 10_000), (3 * 2**30 + 7, 60_000), (7, 7 * 10), (1, 1)]],
])
def test_lane_term_matches_the_traced_kernel(user, size, n):
    # validate's lane term is within 10% or 64 KiB, whichever is larger, of
    # what normals_block allocates beyond its (n, paths) output, and the
    # bootstrap's index stream beyond the n integers it hands out: 14 values
    # per lane while the lanes step, one lane per stream of 8,192 and 16,384
    # paths included.  An index stream that stops within its first step
    # (2 * 8,192 words) holds only its start, about half of that.
    _ndtri()  # loaded first: SCIPY_BYTES counts it
    tracemalloc.start()
    try:
        if user == "normals_block":
            out, lanes = normals_block(42, size, n), size * lane_width(size, n)
        else:
            out, lanes = IndexStream(42, _BOOTSTRAP_STREAM, size).take(n), LANES
        extra = tracemalloc.get_traced_memory()[1] - out.nbytes
    finally:
        tracemalloc.stop()
    if user == "IndexStream" and n <= 2 * LANES:
        assert 0.4 * lane_bytes(lanes) <= extra <= 0.6 * lane_bytes(lanes)
    else:
        assert abs(lane_bytes(lanes) - extra) <= max(0.1 * extra, 64 * 1024)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_scipy_bytes_matches_the_loaded_ndtri():
    # SCIPY_BYTES is the resident growth of loading ndtri into an interpreter
    # that has imported lobres.cli
    code = ("import os, lobres.cli\n"
            "from lobres.paths import _ndtri\n"
            "def rss():\n"
            "    with open('/proc/self/statm') as f:\n"
            "        return int(f.read().split()[1]) * os.sysconf('SC_PAGE_SIZE')\n"
            "before = rss()\n"
            "_ndtri()\n"
            "print(rss() - before)")
    assert abs(int(run_python(code)) - SCIPY_BYTES) <= 0.25 * SCIPY_BYTES


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is KiB on Linux")
@pytest.mark.parametrize("name, command, book, strategy", [
    pytest.param("tracker_bound.json", "converge", None, None, id="tracker_bound.json-converge"),
    pytest.param("utility.json", "utility", None, None, id="utility.json-utility"),
    pytest.param("lemma_jump_noisy.json", "converge", None, None,
                 id="lemma_jump_noisy.json-converge"),
    # 126,492 steps: the one-path term is the largest; the book's K is a
    # constant held as one value, or a sin, one more full path; a tracker
    # adds its rate path and the arenas its relaxation leaves
    pytest.param("simulate.json", "simulate", {"kappa": 1e9}, None,
                 id="simulate.json-simulate-kappa-1e9"),
    pytest.param("simulate.json", "simulate",
                 {"kappa": 1e9, "K": {"fn": "sin", "amplitude": 0.5, "offset": 1.0}}, None,
                 id="simulate.json-simulate-kappa-1e9-sin-K"),
    pytest.param("simulate.json", "simulate", {"kappa": 1e9}, {"type": "tracker", "target": 1.0},
                 id="simulate.json-simulate-kappa-1e9-tracker"),
])
def test_memory_estimate_matches_a_cli_run(name, command, book, strategy, tmp_path):
    # validate's approx_memory_bytes is within 10% of the peak RSS of one CLI
    # run of the shipped config (with the book keys and the strategy given,
    # if any) with one BLAS thread.  A small launcher starts the run: a
    # child's ru_maxrss counts the RSS of the process it was forked from,
    # which for this test process is larger than the run.
    path = CONFIG_DIR / name
    if book is not None:
        config = json.loads(path.read_text())
        config["book"].update(book)
        config["strategy"] = strategy or config["strategy"]
        path = tmp_path / name
        path.write_text(json.dumps(config))
    estimate = validate_config(parse_config(path.read_text()))["estimates"]
    code = ("import os, subprocess, sys\n"
            "env = dict(os.environ, OPENBLAS_NUM_THREADS='1', OMP_NUM_THREADS='1')\n"
            f"proc = subprocess.Popen([sys.executable, '-m', 'lobres.cli', {command!r}, "
            f"'--config', {str(path)!r}, '--out', {str(tmp_path / 'out')!r}], env=env, "
            f"stdout=subprocess.DEVNULL)\n"
            "_, status, usage = os.wait4(proc.pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss * 1024)")
    exit_code, peak = map(int, run_python(code, timeout=120).split())
    assert exit_code == 0
    assert abs(estimate["approx_memory_bytes"] / peak - 1.0) <= 0.10


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
     "tracker.coeff_bound must be positive"),
    (_with(UTILITY, utility={"multipliers": 2}), ConfigParseError,
     "utility.multipliers must be a list"),
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
     ConfigValidationError, "bounds.rate must be positive"),
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
    "lemma_jump_blocks": {"kind": "lemma-jump", "smoothing": {"width_scale": 0.2},
                          "strategy": {"type": "blocks", "blocks": [[0, -1], [0.125, 2.5]],
                                       "t_prime": 0.25}},
    "tracker_bound": {"kind": "tracker-bound", "mc": {"paths": 2},
                      "tracker": {"target_drift": {"fn": "linear", "intercept": 0.1},
                                  "target_vol": 0.5,
                                  "rate_scale": {"fn": "cos", "amplitude": 0.5, "offset": 1.0},
                                  "coeff_bound": 2, "rate_floor": 0.5, "target0": -1}},
    "utility": {"kind": "utility", "fundamental": {"mu": 0.05, "sigma": 0.3},
                "utility": {"gamma": 2, "multipliers": [1, 3], "kappas": [10, 20], "x0": 5,
                            "bootstrap": 10}},
}

# config_hash() of each config.
GOLDEN = {
    "simulate_tracker": "a429bb20d71f84e613de6c183efb5259e1a0cabc23bca68235daea1140f98473",
    "simulate_tracker_start": "01b2567962c4cb470c1dd12f5341bcdc7675a043a93a951fab8d56bdc257fc91",
    "simulate_rate": "166650fc388554e491d01d37554829b2a59e61cc39c363774d8e947d47cc7703",
    "simulate_zero": "81b146ec4f0aefaf635d16939fe7014bf80972f10b7c10425db34ade40df9106",
    "theorem1_values": "4b2f1a3d9f4f065d7527e42d8fedf4c33c7c69e48859578743433f8dfca7216b",
    "remark1_defaults": "b75bfb05876cd60cb32e0ad0bb2762569ebb0d976ecb822e98fde6195611ecc8",
    "l2_bounds": "e3116955ba994011714bd43c473a5695c22c4e8add339abf52909830e3059472",
    "lemma_jump_blocks": "e68852418fc382d3fdfda8e2508be793cdd59c768f38b1c41e6435267eec2d6f",
    "tracker_bound": "042354512a9ededbce4aea5983ca065b30a18ae5b17c1ae2bff09951adae5aaa",
    "utility": "d90b580e099922099badaf257546e35b154a4685027ce37cba32d723fc710f52",
    "l2.json": "9606e4a4e5ac1aa84d62f3624b6fc62b7cdd8ad8dffe0e10512876804ffb866f",
    "lemma_jump.json": "81527b402b3c4a71cce90c695cfa58704bcb655de74189b240c6af6823415957",
    "lemma_jump_noisy.json": "30d75d9ec0112b6059709ed083666b0364a975ecd1f4e6340fab78c50c6973cd",
    "remark1.json": "1c31cf9af085ae5b78fc5b7f55d8b023aeade03e51ddb5e489c68f5faa1eb558",
    "simulate.json": "31ad10d7a1b339df500434abe88652f3857bf04f85db2280335698919b9fa5d4",
    "theorem1.json": "c154b12854133b330275c983a57ca5ef329fe72568732e0f759b913dd68f81f2",
    "tracker_bound.json": "9343e884f9cb13374bcb056f1ea764e8df323301303f624d90428f3f09168207",
    "utility.json": "4621771d64d036ee70a71cabe27fe84a805c25bbd250fddc9a7a876c071e58d0",
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
    assert parse_config(json.dumps(config.to_dict())) == config
    assert config.config_hash() == GOLDEN[name]


def test_config_hash_without_the_builtin_sha256_module():
    # with neither _sha2 (Python >= 3.12) nor _sha256 importable, config_hash
    # falls back to hashlib's sha256 and gives the same digests
    names = sorted(GOLDEN)
    code = ("import json, sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import hashlib\n"
            "import lobres.config as config\n"
            "assert config.sha256 is hashlib.sha256\n"
            f"texts = {[_config_text(name) for name in names]!r}\n"
            "print(json.dumps([config.parse_config(t).config_hash() for t in texts]))")
    assert json.loads(run_python(code)) == [GOLDEN[name] for name in names]


@pytest.mark.parametrize("name", list(CRASH_ROWS))
def test_validate_refuses_former_crash_inputs(name, tmp_path, capsys):
    config = CRASH_ROWS[name][0]
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_a_tracker_rate_scale_is_checked_on_the_run_grid(tmp_path, capsys):
    # validate builds the rate scale on the run's grid and checks it there:
    # 0.5 at the points t = j/256 and -0.5 at odd points of the 512-step grid
    dip = {"fn": "sin", "amplitude": 1.0, "frequency": 128.0, "offset": 0.5}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_with(SIMULATE, strategy={
        "type": "tracker", "target": {"fn": "sin"}, "rate_scale": dip})))
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: tracking rate M must be positive pointwise\n")


# every config a run or the benchmark ships
SHIPPED = sorted([*CONFIG_DIR.glob("*.json"),
                  *CONFIG_DIR.parent.glob("perfbench/workloads/*/*.json")])


def test_parsing_builds_no_engine_input(monkeypatch):
    # the schema alone: each run kind's set-up builds the inputs
    import lobres.book
    import lobres.experiments
    import lobres.strategies

    def refuse(*args, **kwargs):
        raise AssertionError("the parser built an engine input")

    monkeypatch.setattr(lobres.book.BookParams, "on_grid", refuse)
    monkeypatch.setattr(lobres.experiments.FundamentalSpec, "mean_path", refuse)
    for home, name in ((lobres.strategies, "block_schedule"), (lobres.strategies, "rate_strategy"),
                       (lobres.experiments, "tracker_bound_inputs"),
                       (lobres.experiments, "utility_trackers")):
        original = getattr(home, name)
        for module in [m for m in list(sys.modules.values()) if m.__name__.startswith("lobres")
                       and getattr(m, name, None) is original]:
            monkeypatch.setattr(module, name, refuse)
    assert len(SHIPPED) == 15
    for path in SHIPPED:
        parse_config(path.read_text())


def test_null_down_side_coefficients_mean_absent():
    # README lists null as the default of every book.*_down key
    down = {key: None for key in ("K_down", "h_down", "alpha_down", "eps_down")}
    with_nulls = parse_config(json.dumps(_with(SIMULATE, book={"kappa": 64.0, **down})))
    without = parse_config(json.dumps(SIMULATE))
    assert with_nulls == without
    assert with_nulls.config_hash() == without.config_hash()
