import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lobres.experiments as experiments_module
from lobres import (BookTemplate, KappaLadder, UniformBounds, make_grid,
                    theorem1_experiment)
from lobres.cli import main

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
        from lobres import SampledPath, SpreadPaths, Strategy, WealthPath, read_strategy_csv

        awkward = [-0.0, 5e-324, 1e-05, 0.1, 1e16, -1e16, 0.30000000000000004, 2.5]
        cols = {}

        def column(key, grid):
            cols[key] = np.roll(np.resize(awkward, grid.n_points), len(cols))
            return cols[key]

        def strategy(config, grid, kappa):
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

        monkeypatch.setattr(cli, "_build_strategy", strategy)
        monkeypatch.setattr(cli, "Evaluation", Evaluation)
        out = tmp_path / "artifacts"
        assert main(["simulate", "--config", str(write_config(tmp_path, SIMULATE_ZERO)),
                     "--out", str(out)]) == 0

        grid = make_grid(1.0, 64)
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


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(blocks[0], {})
    assert float(capsys.readouterr().out.split()[0]) <= -1.5


def test_every_exported_name_resolves():
    import lobres

    namespace = {}
    exec("from lobres import *", namespace)  # raises if a listed name is missing
    assert set(lobres.__all__) <= namespace.keys()


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 3

    def test_invalid_config(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_kind_command_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, SIMULATE_ZERO)
        assert main(["converge", "--config", str(cfg)]) == 2

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

        report = theorem1_experiment(
            BookTemplate(alpha=0.25, eps=0.01), lambda t: math.cos(2 * math.pi * t),
            KappaLadder.geometric(16.0, 2.0, 5),
            rate_growth=rate_growth,
            bounds=None if bounds is None else UniformBounds(*bounds.values()), n0=128)
        with open(out / "convergence.csv", newline="") as fh:
            assert list(csv.reader(fh))[1:] == report.csv_rows()
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


class TestTrackerBoundCommand:
    def test_one_path_refused_before_drawing(self, tmp_path, capsys, monkeypatch):
        # a standard error needs two paths; mc.paths defaults to 1, which
        # parses (validate accepts it) but cannot run
        monkeypatch.setattr(experiments_module, "brownian_increments", _no_noise)
        cfg = write_config(tmp_path, {"kind": "tracker-bound", "grid": {"n0": 64},
                                      "ladder": {"count": 3}})
        assert main(["validate", "--config", str(cfg)]) == 0
        capsys.readouterr()
        out = tmp_path / "artifacts"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: tracker-bound needs at least 2 paths for "
                                           "its standard errors (mc.paths), got 1\n")
        assert not (out / "tracker.csv").exists()


class TestUtilityCommand:
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
        assert not (out / "utility.csv").exists()

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


def test_import_does_not_load_scipy():
    # scipy serves only the noise draws; runs without noise never load it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    code = "import sys, lobres.cli; print('scipy' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert run.stdout.strip() == "False"
