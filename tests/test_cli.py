import csv
import json
import math
import os
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import lobres.experiments as experiments_module
from helpers import force_workers, reference_constant_path, reference_write_columns, run_python
from lobres import (BookParams, FundamentalSpec, KappaLadder, TimeGrid, check_uniform_bounds,
                    rate_strategy, theorem1_experiment)
from lobres.cli import main
from lobres.config import parse_config, validate_config
from lobres.paths import write_tables

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def write_config(tmp_path, payload, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


SIMULATE_ZERO = {
    "kind": "simulate",
    "grid": {"horizon": 1.0, "n0": 64},
    "book": {"kappa": 16.0, "eps": 0.01},
    "fundamental": {"s0": 100.0, "mu": 0.0, "sigma": 0.0},
    "strategy": {"type": "zero"},
    "x0": 5.0,
}


class TestSimulate:
    def test_zero_strategy_constant_wealth(self, tmp_path):
        cfg = write_config(tmp_path, SIMULATE_ZERO)
        out = tmp_path / "artifacts"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "wealth.csv").read_text().splitlines()
        x_values = {row.split(",")[1] for row in rows[1:]}
        assert x_values == {"5.0"}
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["schema_version"] == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SIMULATE_ZERO)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("wealth.csv", "spreads.csv", "strategy.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_noisy_output(self, tmp_path):
        noisy = dict(SIMULATE_ZERO, fundamental={"s0": 100.0, "mu": 0.0, "sigma": 0.3},
                     strategy={"type": "rate", "rate": 1.0})
        cfg = write_config(tmp_path, noisy)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2),
                     "--seed", "7"]) == 0
        assert (out1 / "wealth.csv").read_bytes() != (out2 / "wealth.csv").read_bytes()


    def test_artifact_cells_are_float_reprs(self, tmp_path, monkeypatch):
        # the three simulate artifacts hold repr(float(v)) of their source
        # arrays, also for a signed zero, a subnormal and exponent notation
        import lobres.cli as cli
        from helpers import read_strategy_csv
        from lobres import SampledPath, SpreadPaths, Strategy, WealthPath

        awkward = [-0.0, 5e-324, 1e-05, 0.1, 1e16, -1e16, 0.30000000000000004, 2.5]
        cols = {}

        def column(key, grid):
            cols[key] = np.roll(np.resize(awkward, grid.n_points), len(cols))
            return cols[key]

        def strategy(config, grid):
            blocks = ((0, 5e-324), (7, -1e16), (grid.steps, 0.1))
            return Strategy(grid, SampledPath(grid, column("rate", grid)), blocks)

        class Evaluation:
            def __init__(self, book, strat, fund):
                self.grid = strat.grid

            def ow(self, x0):
                g = self.grid
                return WealthPath(g, *(SampledPath(g, column(k, g)) for k in (
                    "X", "gain", "spread_cost", "impact_cost", "block_cost", "permanent_shift")))

            def spreads(self):
                g = self.grid
                return SpreadPaths(SampledPath(g, column("ask", g)),
                                   SampledPath(g, column("bid", g)),
                                   column("ask_pre", g), column("bid_pre", g))

        monkeypatch.setattr(cli, "_strategy", strategy)
        monkeypatch.setattr(cli, "Evaluation", Evaluation)
        out = tmp_path / "artifacts"
        assert main(["simulate", "--config", str(write_config(tmp_path, SIMULATE_ZERO)),
                     "--out", str(out)]) == 0

        grid = TimeGrid(1.0, 64)
        block = np.zeros(grid.n_points)
        block[[0, 7, 64]] = [5e-324, -1e16, 0.1]
        expected = {
            "wealth.csv": {"t": grid.points(), **{k: cols[k] for k in (
                "X", "gain", "spread_cost", "impact_cost", "block_cost", "permanent_shift")}},
            "spreads.csv": {"t": grid.points(),
                            **{k: cols[k] for k in ("ask", "bid", "ask_pre", "bid_pre")}},
            "strategy.csv": {"rate": cols["rate"], "block": block},
        }
        for name, columns in expected.items():
            with open(out / name, newline="") as fh:
                rows = list(csv.reader(fh))
            header = rows[0]
            assert len(rows) == grid.n_points + 1
            for key, values in columns.items():
                j = header.index(key)
                assert [row[j] for row in rows[1:]] == [repr(float(v)) for v in values]
        with open(out / "strategy.csv", newline="") as fh:
            assert [row[0] for row in csv.reader(fh)][1:] == [str(i) for i in range(65)]

        loaded = read_strategy_csv(grid, out / "strategy.csv")
        assert loaded.rate.values.tobytes() == cols["rate"].tobytes()
        assert loaded.blocks == ((0, 5e-324), (7, -1e16), (64, 0.1))

    def test_evaluation_is_freed_before_writing(self, tmp_path, monkeypatch):
        # the scan's arrays set the peak memory; none of them is held while
        # the artifacts are written, all in one call of the writer
        import weakref

        import lobres.cli as cli

        evaluations, calls = [], []

        class Tracked(cli.Evaluation):
            def __init__(self, *args):
                super().__init__(*args)
                evaluations.append(weakref.ref(self))

        def write(tables):
            assert evaluations and all(ref() is None for ref in evaluations)
            calls.append(sorted(path.name for path in tables))
            write_tables(tables)

        monkeypatch.setattr(cli, "Evaluation", Tracked)
        monkeypatch.setattr(cli, "write_tables", write)
        out = tmp_path / "artifacts"
        assert main(["simulate", "--config", str(write_config(tmp_path, SIMULATE_ZERO)),
                     "--out", str(out)]) == 0
        assert calls == [["spreads.csv", "strategy.csv", "wealth.csv"]]
        assert (out / "strategy.csv").exists()

    def test_artifacts_equal_the_csv_module_writer(self, tmp_path, monkeypatch):
        # more than two row blocks, blocks of either sign and a noisy price:
        # the blocks with a jump in them format ask_pre/bid_pre on their own,
        # the rest reuse ask/bid, and t is formatted once for both tables
        import lobres.cli as cli
        import lobres.paths as paths_module

        tables = {}

        def write(given):
            tables.update(given)
            write_tables(given)

        monkeypatch.setattr(cli, "write_tables", write)
        steps = 2 * paths_module._BLOCK_ROWS + 900
        config = dict(SIMULATE_ZERO, grid={"horizon": 1.0, "n0": steps},
                      fundamental={"s0": 100.0, "mu": 0.05, "sigma": 0.3},
                      strategy={"type": "blocks", "blocks": [[0.0, 1.0], [0.45, -2.5]],
                                "t_prime": 0.9})
        out = tmp_path / "artifacts"
        assert main(["simulate", "--config", str(write_config(tmp_path, config)),
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in tables) == ["spreads.csv", "strategy.csv", "wealth.csv"]
        assert len(tables[out / "wealth.csv"]["t"]) == steps + 1
        for path, table in tables.items():
            reference_write_columns(tmp_path / "reference.csv", table)
            assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes(), path.name

    def test_book_is_scanned_once(self, tmp_path, monkeypatch):
        # wealth and spreads are projections of one evaluation; the scan is
        # counted under both names a module binds it to
        import lobres.book
        import lobres.wealth

        scans = []
        scan = lobres.book.evolve_book

        def counted(params, strategy):
            scans.append(params.kappa)
            return scan(params, strategy)

        for module in (lobres.book, lobres.wealth):
            monkeypatch.setattr(module, "evolve_book", counted)
        cfg = write_config(tmp_path, dict(SIMULATE_ZERO, strategy={"type": "rate", "rate": 1.0}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert scans == [16.0]


# The engine calls that build a run's inputs before its first rung, each made
# by the run kind's set-up alone: (home module or class, name)
BUILT_BY_THE_SET_UP = [
    ("experiments", "utility_trackers"), ("experiments", "tracker_bound_inputs"),
    ("strategies", "block_schedule"), ("strategies", "rate_strategy"),
    (FundamentalSpec, "mean_path"), (FundamentalSpec, "sigma_steps"),
    ("experiments", "check_uniform_bounds")]


@pytest.mark.parametrize("name, change", [
    *(pytest.param(p.name, None, id=p.name) for p in sorted(CONFIG_DIR.glob("*.json"))),
    pytest.param("theorem1.json",
                 lambda p: p["book"].update(K={"fn": "sin", "amplitude": 0.5, "offset": 1.0}),
                 id="theorem1.json-sin-K"),
    pytest.param("simulate.json", lambda p: p.update(strategy={
        "type": "tracker", "target": {"fn": "sin"}, "rate_scale": {"fn": "cos", "offset": 2.0}}),
                 id="simulate.json-tracker")])
def test_each_input_is_built_once(tmp_path, monkeypatch, name, change):
    # the set-up builds each input once and the rungs take what it built:
    # each call above is made at most once per run, the run's one book is
    # built once (at the first kappa; every rung takes it at its own), and
    # each input that is a function of time is sampled once
    calls = Counter()

    def counting(key, original):
        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return counted

    for home, fn in [*BUILT_BY_THE_SET_UP, (BookParams, "on_grid"),
                     ("strategies", "smoothing_windows"), ("strategies", "exponential_tracker"),
                     ("paths", "function_path")]:
        if isinstance(home, str):  # a function, under every name a module binds it to
            original = getattr(sys.modules[f"lobres.{home}"], fn)
            binding = [m for m in list(sys.modules.values())
                       if m.__name__.startswith("lobres") and getattr(m, fn, None) is original]
            for module in binding:
                monkeypatch.setattr(module, fn, counting(fn, original))
        else:
            monkeypatch.setattr(home, fn, counting(fn, getattr(home, fn)))
    payload = json.loads((CONFIG_DIR / name).read_text())
    if change is not None:
        change(payload)
    payload.setdefault("mc", {})["paths"] = 2
    if "utility" in payload:
        payload["utility"]["bootstrap"] = 10
    config = parse_config(json.dumps(payload))
    command = {"simulate": "simulate", "utility": "utility"}.get(config.kind, "converge")
    assert main([command, "--config", str(write_config(tmp_path, payload)),
                 "--out", str(tmp_path / "out")]) in (0, 1)
    assert {fn: calls[fn] for _, fn in BUILT_BY_THE_SET_UP if calls[fn] > 1} == {}
    assert calls["block_schedule"] == (config.strategy is not None
                                       and config.strategy.type == "blocks")
    # lemma-jump's smoothing windows, once per rung
    assert calls["smoothing_windows"] == (len(config.kappas())
                                          if config.kind == "lemma-jump" else 0)
    assert calls["on_grid"] == (config.kind != "tracker-bound")
    if config.kind == "simulate":  # its one tracker, relaxed once
        assert calls["exponential_tracker"] == (config.strategy.type == "tracker")
    # one path per input given as a function of time ({"fn": ...})
    assert calls["function_path"] == json.dumps(config.to_dict()).count('"fn"')


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(blocks[0], {})
    assert float(capsys.readouterr().out.split()[0]) <= -1.5


# the columns README's "Outputs" section gives each CSV artifact
README_COLUMNS = {
    name: re.split(r",\s*", columns) for name, columns in re.findall(
        r"`(\w+\.csv)`[^`]*`([^`]*)`",
        (ROOT / "README.md").read_text().split("## Outputs")[1].split("\n## ")[0])}

# one small run of every kind
SMALL_RUNS = [
    ("simulate", SIMULATE_ZERO),
    *(("converge", {"kind": kind, "grid": {"n0": 64},
                    "strategy": {"type": "rate", "rate": 1.0}, "ladder": {"count": 3}})
      for kind in ("theorem1", "remark1")),
    ("converge", {"kind": "l2", "grid": {"n0": 64}, "strategy": {"type": "rate", "rate": 1.0},
                  "ladder": {"count": 3},
                  "bounds": {"rate": 1.5, "coefficient": 2.0, "resilience_floor": 0.5}}),
    ("converge", {"kind": "lemma-jump", "grid": {"n0": 64}, "ladder": {"count": 3},
                  "strategy": {"type": "blocks", "blocks": [[0.25, 1.0]], "t_prime": 0.5}}),
    ("converge", {"kind": "tracker-bound", "grid": {"n0": 64}, "ladder": {"count": 3},
                  "mc": {"paths": 4}}),
    ("utility", {"kind": "utility", "grid": {"n0": 64},
                 "fundamental": {"mu": 0.1, "sigma": 0.2},
                 "utility": {"kappas": [16.0, 64.0], "bootstrap": 10}, "mc": {"paths": 8}}),
]


def test_readme_lists_every_artifact_column(tmp_path):
    # each CSV's header is the keys of the table its run writes
    written = set()
    for j, (command, payload) in enumerate(SMALL_RUNS):
        out = tmp_path / str(j)
        cfg = write_config(tmp_path, payload, f"{j}.json")
        assert main([command, "--config", str(cfg), "--out", str(out)]) in (0, 1)
        for name in json.loads((out / "summary.json").read_text())["artifacts"]:
            if name.endswith(".csv"):
                with open(out / name, newline="") as fh:
                    assert next(csv.reader(fh)) == README_COLUMNS[name], name
                written.add(name)
    assert written == set(README_COLUMNS)


def test_readme_lists_every_gate(tmp_path):
    # each gate a run writes to summary.json is named in README's "Gates"
    gates = (ROOT / "README.md").read_text().split("## Gates")[1].split("\n## ")[0]
    for j, (command, payload) in enumerate(SMALL_RUNS):
        out = tmp_path / str(j)
        cfg = write_config(tmp_path, payload, f"{j}.json")
        assert main([command, "--config", str(cfg), "--out", str(out)]) in (0, 1)
        for gate in json.loads((out / "summary.json").read_text())["gates"]:
            assert f"`{gate}`" in gates, gate


def test_every_exported_name_resolves():
    import lobres

    namespace = {}
    exec("from lobres import *", namespace)  # raises if a listed name is missing
    assert set(lobres.__all__) <= namespace.keys()


# The kinds each run command takes, in the order its mismatch message lists
# them, and one shipped config of each kind.
COMMAND_KINDS = {"simulate": ["simulate"],
                 "converge": ["l2", "lemma-jump", "remark1", "theorem1", "tracker-bound"],
                 "utility": ["utility"]}
KIND_CONFIGS = {"simulate": "simulate.json", "theorem1": "theorem1.json",
                "remark1": "remark1.json", "l2": "l2.json", "lemma-jump": "lemma_jump.json",
                "tracker-bound": "tracker_bound.json", "utility": "utility.json"}
MISMATCHES = [(command, kind) for command, kinds in COMMAND_KINDS.items()
              for kind in KIND_CONFIGS if kind not in kinds]


# 0.5 + sin(2 pi 128 t)
_DIP = {"fn": "sin", "amplitude": 1.0, "frequency": 128.0, "offset": 0.5}

# A shipped config with one value its experiment refuses (file, section, key,
# value) and the experiment's message, which the parser reports as well.
EXPERIMENT_REFUSALS = {
    "utility-alpha": ("utility.json", "book", "alpha", 0.1,
                      "utility experiment requires zero permanent impact"),
    "utility-eps": ("utility.json", "book", "eps", 0.01,
                    "utility experiment requires zero baseline spreads"),
    "utility-h-down": ("utility.json", "book", "h_down", 2.0,
                       "utility experiment requires a symmetric book"),
    "lemma-width-scale": ("lemma_jump.json", "smoothing", "width_scale", 3,
                          "smoothing window extends past the horizon"),
    "l2-rate-bound": ("l2.json", "bounds", "rate", 0.5,
                      "strategy rate exceeds its declared uniform bound"),
    "simulate-colliding-blocks": (
        "simulate.json", "strategy", "blocks", [[0.25, 1.0], [0.2501, 1.0]],
        "blocks at t=0.2501 collide at grid index 128 after rounding"),
    # sigma**2 underflows to 0
    "utility-sigma-underflow": (
        "utility.json", "fundamental", "sigma", 1e-200,
        "utility experiment needs sigma**2 within the float range and a finite frictionless "
        "position mu / (gamma * sigma**2) and certainty equivalent x0 + mu**2 * T / "
        "(2 * gamma * sigma**2), got mu=0.1, gamma=1.0, sigma=1e-200, x0=0.0, T=1.0"),
    # functions of time below their range only between the points t = j/256
    # (0.5 there) and at odd points of the run's 512-step grid (-0.5)
    "theorem1-K-off-the-coarse-points": ("theorem1.json", "book", "K", _DIP,
                                         "K_up must be positive pointwise"),
    "simulate-sigma-off-the-coarse-points": ("simulate.json", "fundamental", "sigma", _DIP,
                                             "sigma must be nonnegative"),
    "tracker-rate-scale-off-the-coarse-points": (
        "tracker_bound.json", "tracker", "rate_scale", _DIP,
        "tracking rate falls below its declared floor"),
    # finite parameters, a function that overflows to inf on the grid
    "theorem1-K-overflow": ("theorem1.json", "book", "K",
                            {"fn": "linear", "intercept": 1e308, "slope": 1e308},
                            "function evaluates to a non-finite value (step 409, t=0.798828125)"),
    # a multiplier whose rate scale underflows to 0
    "utility-multiplier-underflow": ("utility.json", "utility", "multipliers", [5e-324, 1.0],
                                     "tracking rate M must be positive pointwise"),
    # tracker-bound's declared bound and floor, against fixed values
    "tracker-vol-above-bound": ("tracker_bound.json", "tracker", "target_vol", 2.0,
                                "target coefficients exceed the declared bound"),
    "tracker-rate-scale-below-floor": ("tracker_bound.json", "tracker", "rate_scale", 0.5,
                                       "tracking rate falls below its declared floor"),
    # the bound 5 * coeff_bound**2 * T / rate_floor leaves the float range:
    # coeff_bound**2 overflows, or the division does
    "tracker-coeff-bound-squared-overflows": (
        "tracker_bound.json", "tracker", "coeff_bound", 1e160,
        "tracker-bound needs a finite bound 5 * coeff_bound**2 * T / rate_floor, got "
        "coeff_bound=1e+160, T=1.0, rate_floor=1.0"),
    "tracker-bound-infinite": (
        "tracker_bound.json", "tracker", "rate_floor", 1e-320,
        "tracker-bound needs a finite bound 5 * coeff_bound**2 * T / rate_floor, got "
        "coeff_bound=1.0, T=1.0, rate_floor=1e-320"),
    # block_schedule's own refusals, on the run's grid
    "lemma-t-prime-at-the-horizon": ("lemma_jump.json", "strategy", "t_prime", 1.0,
                                     "t_prime must lie strictly between 0 and the horizon"),
    "lemma-block-times-out-of-order": ("lemma_jump.json", "strategy", "blocks",
                                       [[0.3, 1.0], [0.2, 1.0]],
                                       "block times must be strictly increasing"),
    "lemma-block-time-after-t-prime": ("lemma_jump.json", "strategy", "blocks", [[0.6, 1.0]],
                                       "block time 0.6 outside [0, 0.5]"),
    "lemma-zero-block": ("lemma_jump.json", "strategy", "blocks", [[0.2, 0.0]],
                         "block sizes must be nonzero and finite"),
    # a window's step count overflowed int() (once a traceback from validate)
    "smoothing-window-beyond-the-float-range": ("lemma_jump.json", "smoothing", "width_scale",
                                                1e308,
                                                "smoothing window extends past the horizon"),
}


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 3

    def test_invalid_config(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_undecodable_config(self, tmp_path, capsys):
        # refused with one error line, like every other config problem
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b"\xff\xfe{}")
        assert main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "codec can't decode" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command, kind", MISMATCHES)
    def test_kind_command_mismatch(self, monkeypatch, tmp_path, capsys, command, kind):
        # the refusal comes before the kind's set-up, which here refuses every
        # config: no output directory, nothing on stdout; validate runs it
        import lobres.cli

        def refuse(config):
            raise ValueError("the set-up ran")

        monkeypatch.setitem(lobres.cli._SET_UPS, kind, refuse)
        assert len(MISMATCHES) == 14
        out = tmp_path / "out"
        config = str(CONFIG_DIR / KIND_CONFIGS[kind])
        assert main([command, "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: config kind '{kind}' does not match "
                                           f"command '{command}' (expected one of "
                                           f"{COMMAND_KINDS[command]})\n")
        assert not out.exists()
        assert main(["validate", "--config", config]) == 2
        assert capsys.readouterr() == ("", "error: the set-up ran\n")

    def test_validation_error(self, tmp_path):
        bad = dict(SIMULATE_ZERO, book={"kappa": 16.0, "alpha": 0.9})
        cfg = write_config(tmp_path, bad)
        assert main(["simulate", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_negative_seed_refused(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, SIMULATE_ZERO)
        assert main([command, "--config", str(cfg), "--seed", "-5"]) == 2
        assert "mc.seed" in capsys.readouterr().err
        negative = write_config(tmp_path, dict(SIMULATE_ZERO, mc={"seed": -5}), "neg.json")
        assert main([command, "--config", str(negative)]) == 2
        assert "mc.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_a_bad_override_is_reported_before_a_bad_input(self, tmp_path, capsys, command):
        # the set-up checks the config that --seed and --out made, so their
        # refusal comes first
        payload = json.loads((CONFIG_DIR / "simulate.json").read_text())
        payload["strategy"]["blocks"] = [[0.25, 1.0], [0.2501, 1.0]]
        out = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path, payload)),
                     "--seed", "-5", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: mc.seed must be non-negative, got -5\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["converge", "validate"])
    def test_empty_out_refused(self, tmp_path, capsys, monkeypatch, command):
        # refused like an empty output.directory, before anything is written
        # to the working directory
        monkeypatch.chdir(tmp_path)
        assert main([command, "--config", str(CONFIG_DIR / "theorem1.json"), "--out", ""]) == 2
        assert capsys.readouterr() == ("", "error: output.directory must be a nonempty string\n")
        assert list(tmp_path.iterdir()) == []

    def test_rungs_out_of_memory(self, tmp_path, capsys, monkeypatch):
        # numpy's refusal of an array it cannot allocate, raised where the
        # rungs call the experiment: one error line and no output directory
        import lobres.cli

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 32.0 GiB for an array with shape "
                              "(1, 4294967296) and data type float64")

        monkeypatch.setattr(lobres.cli, "tracker_bound_experiment", out_of_memory)
        out = tmp_path / "out"
        assert main(["converge", "--config", str(CONFIG_DIR / "tracker_bound.json"),
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: Unable to allocate 32.0 GiB for an array "
                                           "with shape (1, 4294967296) and data type float64\n")
        assert not out.exists()

    @pytest.mark.parametrize("name", list(EXPERIMENT_REFUSALS))
    @pytest.mark.parametrize("validate", [True, False], ids=["validate", "run"])
    def test_validate_refuses_what_the_experiment_refuses(self, tmp_path, capsys, name,
                                                          validate):
        # one error line with the experiment's own text, and no output directory
        file, section, key, value, message = EXPERIMENT_REFUSALS[name]
        payload = json.loads((CONFIG_DIR / file).read_text())
        payload[section][key] = value
        command = "validate" if validate else {"utility.json": "utility",
                                                "simulate.json": "simulate"}.get(file, "converge")
        out = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path, payload)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_validate_and_the_run_use_one_grid(tmp_path, monkeypatch, name):
    # every book scan and every noise draw of a run is on the grid whose
    # steps validate reports, over the configured horizon; 2 paths and 10
    # bootstrap resamples keep the runs small and leave the grid as it is
    import lobres.experiments
    import lobres.wealth
    payload = json.loads((CONFIG_DIR / name).read_text())
    payload.setdefault("mc", {})["paths"] = 2
    if "utility" in payload:
        payload["utility"]["bootstrap"] = 10
    path = write_config(tmp_path, payload)
    grids = []
    for module, fn, grid_of in ((lobres.wealth, "evolve_book", lambda book: book.grid),
                                (lobres.experiments, "brownian_increments", lambda g: g)):
        def recording(first, *args, _original=getattr(module, fn), _grid_of=grid_of):
            grids.append(_grid_of(first))
            return _original(first, *args)
        monkeypatch.setattr(module, fn, recording)

    config = parse_config(path.read_text())
    steps = validate_config(config)["estimates"]["grid_steps"]
    command = {"simulate": "simulate", "utility": "utility"}.get(config.kind, "converge")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) in (0, 1)
    assert grids
    assert {(g.steps, g.horizon) for g in grids} == {(steps, config.grid.horizon)}


class TestValidateCommand:
    def test_validate_prints_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIMULATE_ZERO)
        assert main(["validate", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert "estimates" in report

    def test_validate_accepts_any_kind(self, tmp_path):
        cfg = CONFIG_DIR / "theorem1.json"
        assert main(["validate", "--config", str(cfg)]) == 0


class TestConvergeCommand:
    def test_small_theorem1_run(self, tmp_path):
        payload = {
            "kind": "theorem1",
            "grid": {"n0": 128},
            "book": {"alpha": 0.25, "eps": 0.01},
            "strategy": {"type": "rate", "rate": {"fn": "sin"}},
            "ladder": {"start": 16.0, "factor": 2.0, "count": 5},
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "artifacts"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "convergence.csv").read_text().splitlines()
        assert rows[0] == "kappa,mean_err,p95_err,kappa_x_err,slope_so_far"
        assert len(rows) == 6
        summary = json.loads((out / "summary.json").read_text())
        assert summary["gates"]["slope_gate"] is True

    @pytest.mark.parametrize("kind, rate_growth, bounds, gates", [
        ("theorem1", 0.0, None, {"kappa_x_err_decreasing_upper_half", "slope_gate"}),
        ("remark1", 0.25, None, {"sqrt_kappa_x_err_decreasing", "slope_gate"}),
        ("l2", 0.0, {"rate": 1.5, "coefficient": 2.0, "resilience_floor": 0.5},
         {"kappa_x_err_decreasing_upper_half"}),
    ])
    def test_gap_kind_gates_and_convergence_csv(self, tmp_path, kind, rate_growth, bounds,
                                                gates):
        payload = {
            "kind": kind,
            "grid": {"n0": 128},
            "book": {"alpha": 0.25, "eps": 0.01},
            "fundamental": {"sigma": 0.2},
            "strategy": {"type": "rate", "rate": {"fn": "cos"}},
            "ladder": {"start": 16.0, "factor": 2.0, "count": 5},
        }
        if bounds is not None:
            payload["bounds"] = bounds
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "artifacts"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["gates"]) == gates

        ladder = KappaLadder.geometric(16.0, 2.0, 5)
        base = rate_strategy(TimeGrid(1.0, 128), lambda t: math.cos(2 * math.pi * t))
        book = BookParams.on_grid(base.grid, ladder.values[0], alpha=0.25, eps=0.01)
        if bounds is not None:  # l2's bounds hold on the run's book
            check_uniform_bounds(book, base, *bounds.values())
        report = theorem1_experiment(book, base, ladder, rate_growth=rate_growth)
        expected = tmp_path / "expected.csv"
        write_tables({expected: report.table()})
        assert (out / "convergence.csv").read_bytes() == expected.read_bytes()
        assert summary["report"]["slope"] == repr(report.slope)

    @pytest.mark.parametrize("kind, ladder", [
        ("theorem1", {"values": [4096.0, 4097.0]}),
        ("remark1", {"values": [64.0]}),
        ("l2", {"count": 2}),
    ])
    def test_gap_kind_with_fewer_than_3_rungs_refused(self, tmp_path, capsys, kind, ladder):
        cfg = write_config(tmp_path, {"kind": kind, "strategy": {"type": "rate", "rate": 1.0},
                                      "ladder": ladder})
        out = tmp_path / "artifacts"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 2
        assert "at least 3 rungs" in capsys.readouterr().err
        assert not out.exists()

    def test_gate_failure_exits_nonzero_with_artifacts(self, tmp_path):
        # a book whose resilience shape K grows with t fast enough still
        # passes; instead force failure with a non-decreasing scaled error by
        # using a single-kappa ladder plus an impossible slope gate: simplest
        # honest trigger is the lemma gate with a tiny path count and a huge
        # noise level, where some paths lose
        payload = {
            "kind": "lemma-jump",
            "grid": {"n0": 128},
            "book": {"h": 1.0},
            "fundamental": {"s0": 100.0, "sigma": 30.0},
            "strategy": {"type": "blocks", "blocks": [[0.25, 1.0]], "t_prime": 0.5},
            "ladder": {"values": [16.0, 32.0]},
            "mc": {"paths": 50, "seed": 1},
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "artifacts"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 1
        assert (out / "lemma.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is False


def _no_noise(*args, **kwargs):
    raise AssertionError("a refused run drew noise")


def _no_evaluation(*args, **kwargs):
    raise AssertionError("a refused run evaluated a strategy")


class TestTrackerBoundCommand:
    @pytest.mark.parametrize("command", ["validate", "converge"])
    def test_one_path_refused_before_drawing(self, tmp_path, capsys, monkeypatch, command):
        # a standard error needs two paths; mc.paths defaults to 1, which
        # validate refuses like the run, with the run's line
        monkeypatch.setattr(experiments_module, "brownian_increments", _no_noise)
        cfg = write_config(tmp_path, {"kind": "tracker-bound", "grid": {"n0": 64},
                                      "ladder": {"count": 3}})
        out = tmp_path / "artifacts"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: tracker-bound needs at least 2 paths for "
                                           "its standard errors (mc.paths), got 1\n")
        assert not out.exists()


class TestUtilityCommand:
    def test_refusal_keeps_an_existing_output_directory(self, tmp_path):
        payload = json.loads((CONFIG_DIR / "utility.json").read_text())
        payload["fundamental"]["mu"] = 1e160
        out = tmp_path / "artifacts"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        assert main(["utility", "--config", str(write_config(tmp_path, payload)),
                     "--out", str(out)]) == 2
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    # sigma**2 underflows to 0, so mu / (gamma * sigma**2) is not finite, or
    # overflows the float range
    @pytest.mark.parametrize("sigma", [1e-200, 1e160])
    def test_extreme_volatility_refused_before_drawing(self, tmp_path, capsys, monkeypatch,
                                                       sigma):
        monkeypatch.setattr(experiments_module, "brownian_increments", _no_noise)
        payload = json.loads((CONFIG_DIR / "utility.json").read_text())
        payload["fundamental"]["sigma"] = sigma
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "artifacts"
        assert main(["utility", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: utility experiment needs sigma**2 within the float "
                              "range and a finite frictionless position")
        assert err.count("\n") == 1
        assert not out.exists()

    # mu**2 overflows; or x0 plus the frictionless gain leaves the float range
    @pytest.mark.parametrize("mu, x0", [(1e160, 0.0), (1e153, 1.7e308)])
    def test_infinite_frictionless_ce_refused_before_evaluating(self, tmp_path, capsys,
                                                               monkeypatch, mu, x0):
        monkeypatch.setattr(experiments_module, "brownian_increments", _no_noise)
        monkeypatch.setattr(experiments_module, "Evaluation", _no_evaluation)
        payload = json.loads((CONFIG_DIR / "utility.json").read_text())
        payload["fundamental"]["mu"] = mu
        payload["utility"]["x0"] = x0
        out = tmp_path / "artifacts"
        assert main(["utility", "--config", str(write_config(tmp_path, payload)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: utility experiment needs sigma**2 within the float "
                              "range and a finite frictionless position mu / (gamma * "
                              "sigma**2) and certainty equivalent x0 + mu**2 * T / ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_large_initial_wealth_runs(self, tmp_path):
        payload = {
            "kind": "utility",
            "fundamental": {"s0": 100.0, "mu": 0.1, "sigma": 0.2},
            "utility": {"kappas": [64.0, 256.0, 1024.0], "x0": 800.0, "bootstrap": 100},
            "mc": {"paths": 2000, "seed": 7},
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "artifacts"
        assert main(["utility", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert all(800.0 < float(ce) < 800.125 for ce in summary["report"]["candidate_ce"])


def _shipped(file, changes):
    """A shipped config with each dotted key of ``changes`` set."""
    payload = json.loads((CONFIG_DIR / file).read_text())
    for key, value in changes.items():
        *path, last = key.split(".")
        section = payload
        for name in path:
            section = section[name]
        section[last] = value
    return payload


# Small runs of the shipped configs that take constant inputs: the book's
# coefficients, a zero or constant strategy rate, the gap kinds' flat price,
# the utility target and tracker-bound's coefficients
CONSTANT_INPUT_RUNS = {
    "simulate-blocks": ("simulate", "simulate.json", {}),
    "simulate-rate": ("simulate", "simulate.json", {"strategy": {"type": "rate", "rate": 0.5}}),
    "theorem1": ("converge", "theorem1.json", {}),
    "lemma_jump_noisy": ("converge", "lemma_jump_noisy.json", {"mc.paths": 50}),
    "tracker_bound": ("converge", "tracker_bound.json", {"mc.paths": 200}),
    "utility": ("utility", "utility.json", {"mc.paths": 200, "utility.bootstrap": 20}),
}


@pytest.mark.parametrize("name", list(CONSTANT_INPUT_RUNS))
def test_constant_inputs_held_as_one_value_write_the_same_bytes(tmp_path, monkeypatch, name):
    # every artifact of a run equals that of the same run with each constant
    # input held as a full array (the former constant_path, kept in helpers)
    import lobres.paths
    command, file, changes = CONSTANT_INPUT_RUNS[name]
    cfg = write_config(tmp_path, _shipped(file, changes))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "view")]) == 0
    for module in [m for m in list(sys.modules.values()) if m.__name__.startswith("lobres")
                   and getattr(m, "constant_path", None) is lobres.paths.constant_path]:
        monkeypatch.setattr(module, "constant_path", reference_constant_path)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "full")]) == 0
    names = sorted(p.name for p in (tmp_path / "view").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "full").iterdir())
    for artifact in names:
        assert ((tmp_path / "view" / artifact).read_bytes()
                == (tmp_path / "full" / artifact).read_bytes()), artifact


@pytest.mark.parametrize("command, name", [("converge", "tracker_bound.json"),
                                           ("utility", "utility.json")])
def test_one_worker_writes_the_bytes_of_the_default(tmp_path, monkeypatch, command, name):
    # the noise chunks and bootstrap cells each give the same block wherever
    # they run, so the artifacts do not depend on the number of workers
    config = str(CONFIG_DIR / name)
    assert main([command, "--config", config, "--out", str(tmp_path / "default")]) == 0
    force_workers(monkeypatch, 1)
    assert main([command, "--config", config, "--out", str(tmp_path / "one")]) == 0
    names = sorted(p.name for p in (tmp_path / "default").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "one").iterdir())
    for artifact in names:
        assert ((tmp_path / "default" / artifact).read_bytes()
                == (tmp_path / "one" / artifact).read_bytes()), artifact


@pytest.mark.parametrize("command, name, target", [
    ("converge", "tracker_bound.json", "brownian_increments"),  # a noise chunk
    ("utility", "utility.json", "_certainty_equivalents"),  # a bootstrap cell
])
def test_a_worker_out_of_memory(tmp_path, capsys, monkeypatch, command, name, target):
    # numpy's refusal of an array, raised in a worker's item, is raised again
    # by the run: one error line, no traceback and no output directory
    parent, original = os.getpid(), getattr(experiments_module, target)

    def in_a_worker(*args, **kwargs):
        if os.getpid() != parent:
            raise MemoryError("Unable to allocate 32.0 GiB for an array with shape "
                              "(1, 4294967296) and data type float64")
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments_module, target, in_a_worker)
    force_workers(monkeypatch, 2)
    cfg, out = write_config(tmp_path, _shipped(name, {"mc.paths": 2100})), tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: Unable to allocate 32.0 GiB for an array "
                                       "with shape (1, 4294967296) and data type float64\n")
    assert not out.exists()


def test_an_oversized_result_array_is_refused_as_a_configuration_problem(tmp_path, capsys):
    # 9 cells of 10**13 resamples (655 TiB, beyond any process's address
    # space) cannot be mapped: the run exits 2 with one error line naming
    # the shape, as when numpy refused the array, not 3 (an I/O failure)
    changes = {"utility.bootstrap": 10**13, "mc.paths": 50}
    cfg, out = write_config(tmp_path, _shipped("utility.json", changes)), tmp_path / "out"
    assert main(["utility", "--config", str(cfg), "--out", str(out)]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.count("\n") == 1
    assert stderr.startswith("error: Unable to allocate ") and "(3, 3, 10000000000000)" in stderr
    assert not out.exists()


def test_the_help_names_every_converge_kind(capsys, monkeypatch):
    # the converge command's help is built from config.KINDS
    from lobres.config import KINDS
    monkeypatch.setenv("COLUMNS", "200")  # no kind broken across lines
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    converge = [line for line in capsys.readouterr().out.splitlines() if "converge " in line]
    kinds = [kind for kind, spec in KINDS.items() if spec.command == "converge"]
    assert len(converge) == 1 and kinds
    assert converge[0].endswith(f"({', '.join(kinds)})")


@pytest.mark.parametrize("fails, exit_code", [("none", "0"), ("parent", "2"), ("worker", "2"),
                                              ("killed", "3")])
def test_no_worker_outlives_the_run(tmp_path, fails, exit_code):
    # three workers share tracker-bound's three chunks; the parent's own
    # item raises, or worker 1's raises or worker 1 is killed before it
    # reports (an I/O failure, exit 3), while worker 2 sleeps in its item:
    # the run kills and reaps every worker, so the launcher has no child
    # left, and no worker flushes the launcher's buffered stdout
    cfg = write_config(tmp_path, _shipped("tracker_bound.json", {"mc.paths": 3000}))
    code = f"""
import os, signal, time
import lobres.experiments as e
from lobres.cli import main
original, fails = e.brownian_increments, {fails!r}
e._workers = lambda items: max(1, min(items, 3))

def item(grid, seed, paths, first=0):
    worker = first // e.paths_per_chunk(grid.steps)  # chunk k runs in worker k
    if (fails, worker) in (("parent", 0), ("worker", 1)):
        raise ValueError("item failed")
    if (fails, worker) == ("killed", 1):
        os.kill(os.getpid(), signal.SIGKILL)
    if fails != "none" and worker == 2:
        time.sleep(60)
    return original(grid, seed, paths, first)

if fails != "none":
    e.brownian_increments = item
print("unflushed", end=" ")
start = time.monotonic()
code = main(["converge", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r}])
try:
    os.waitpid(-1, os.WNOHANG)
    left = "some"
except ChildProcessError:
    left = "none"
print(code, left, time.monotonic() - start < 30)
"""
    assert run_python(code, timeout=120) == f"unflushed {exit_code} none True\n"
    assert not (tmp_path / "out").exists() or fails == "none"


def test_a_run_does_not_load_openssl(tmp_path):
    # config_hash takes sha256 from the interpreter's built-in module, so a
    # run that draws its price noise and writes its summary never imports
    # hashlib, which maps OpenSSL's libcrypto
    out = tmp_path / "out"
    code = (f"import sys, lobres.cli; code = lobres.cli.main(['simulate', '--config', "
            f"{str(CONFIG_DIR / 'simulate.json')!r}, '--out', {str(out)!r}]); "
            f"print(code, 'scipy.special._ufuncs' in sys.modules, '_hashlib' in sys.modules, "
            f"'hashlib' in sys.modules)")
    assert run_python(code).split() == ["0", "True", "False", "False"]
    assert json.loads((out / "summary.json").read_text())["config_hash"] == (
        parse_config((CONFIG_DIR / "simulate.json").read_text()).config_hash())


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_no_run_loads_numpy_random_numpy_ma_or_openssl(tmp_path, name):
    # the noise and the bootstrap's indices replay numpy's generators on
    # uint64 arrays, the bootstrap's intervals skip np.percentile's
    # np.unique, and config_hash takes the built-in sha256, so neither
    # validate nor the run imports numpy.random or numpy.ma or loads OpenSSL
    # through hashlib; RandomSource, used only for a draw numpy rejects
    # (probability 2**-53), still imports numpy.random
    payload = json.loads((CONFIG_DIR / name).read_text())
    payload.setdefault("mc", {})["paths"] = min(payload["mc"].get("paths", 1), 200)
    cfg, out = write_config(tmp_path, payload), tmp_path / "out"
    command = {"simulate": "simulate", "utility": "utility"}.get(payload["kind"], "converge")
    code = (f"import contextlib, io, sys; from lobres.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main([c, '--config', {str(cfg)!r}, '--out', {str(out)!r}])\n"
            f"             for c in ('validate', {command!r})]\n"
            f"print(*codes, 'numpy.random' in sys.modules, 'numpy.ma' in sys.modules, "
            f"'_hashlib' in sys.modules)")
    validate, run, random, masked, openssl = run_python(code, timeout=120).split()
    assert validate == "0" and run in ("0", "1")
    assert (random, masked, openssl) == ("False", "False", "False")


def test_import_does_not_load_scipy():
    # scipy serves only the noise draws; runs without noise never load it
    code = "import sys, lobres.cli; print('scipy' in sys.modules)"
    assert run_python(code).strip() == "False"


def test_import_does_not_load_logging_or_signal():
    # the gate lines of --log-level are printed without logging, and only a
    # run whose workers must be killed imports signal (experiments._spread)
    code = "import sys, lobres.cli; print('logging' in sys.modules, 'signal' in sys.modules)"
    assert run_python(code).split() == ["False", "False"]
