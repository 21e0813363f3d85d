"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Each test prints a `[PASS] criterion N` line (visible with `pytest -s`) after
its assertions succeed, and checks its runtime budget.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from lobres import (BookParams, Evaluation, FundamentalSpec, KappaLadder, Strategy,
                    TimeGrid, constant_path, ladder_grid, position_paths, rate_strategy,
                    theorem1_experiment)
from lobres.cli import main
from lobres.strategies import block_schedule
from helpers import random_strategy, run_lemma_jump, run_tracker_bound, run_utility

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
LADDER = KappaLadder.geometric(16.0, 2.0, 9)


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, f"runtime {elapsed:.1f}s exceeds {self.seconds}s"
        return elapsed


def _report(n, label, elapsed):
    print(f"\n[PASS] criterion {n}: {label} ({elapsed:.2f}s)")


def test_criterion_1_closed_form_spread_oracle():
    budget = _Budget(1.0)
    grid = TimeGrid(1.0, 10_000)
    kappa, K, h, eps = 96.0, 1.4, 2.3, 0.015
    t = grid.points()

    theta = 1.7
    book = BookParams.on_grid(grid, kappa, K=K, h=h, eps=eps)
    fund = constant_path(grid, 100.0)  # spreads do not depend on it
    blocky = Strategy(grid, constant_path(grid, 0.0), ((0, theta),))
    ask = Evaluation(book, blocky, fund).spreads().ask.values
    expected = eps + (theta / h) * np.exp(-kappa * K * t)
    assert np.max(np.abs(ask - expected) / expected) <= 1e-10

    c = 0.8
    ask = Evaluation(book, rate_strategy(grid, c), fund).spreads().ask.values
    expected = eps + c / (kappa * K * h) * (1.0 - np.exp(-kappa * K * t))
    assert np.max(np.abs(ask - expected) / expected) <= 1e-10

    _report(1, "closed-form spread oracle at 1e-10", budget.check())


def test_criterion_2_bookkeeping_identity():
    budget = _Budget(5.0)
    grid = TimeGrid(1.0, 256)
    rng = np.random.default_rng(31415)
    spec = FundamentalSpec(s0=80.0, mu=0.05, sigma=0.4)
    for trial in range(100):
        kappa = float(rng.uniform(1.0, 300.0))
        book = BookParams.on_grid(
            grid, kappa, K=float(rng.uniform(0.5, 2.0)), h=float(rng.uniform(0.5, 3.0)),
            alpha=float(rng.uniform(0.0, 0.5)), eps=float(rng.uniform(0.0, 0.1)))
        fund = spec.add_noise(spec.mean_path(grid), spec.sigma_steps(grid), 777, trial)
        strat = random_strategy(grid, rng, n_blocks=int(rng.integers(0, 8)),
                                phi0=float(rng.normal(0.0, 2.0)))
        x0 = float(rng.normal(0.0, 10.0))
        evaluation = Evaluation(book, strat, fund)
        x = evaluation.ow(x0).x.values
        acct = evaluation.safe_account(x0).values
        ref = evaluation.reference().values.values
        _, post = position_paths(strat)
        recon = acct + post * ref
        rel = np.max(np.abs(x - recon) / np.maximum(1.0, np.abs(x)))
        assert rel <= 1e-10
    _report(2, "wealth equals safe account plus marked position on 100 "
               "random strategies", budget.check())


def test_criterion_3_theorem1_gate():
    budget = _Budget(30.0)
    grid = ladder_grid(1.0, 512, 4.0, LADDER.max)
    report = theorem1_experiment(
        BookParams.on_grid(grid, LADDER.values[0], K=1.0, h=1.0, alpha=0.25, eps=0.01),
        rate_strategy(grid, lambda t: np.sin(2.0 * np.pi * t)), LADDER)
    scaled = report.kappa_x_err
    upper = scaled[len(scaled) // 2:]
    assert np.all(np.diff(upper) < 0), f"kappa*e not decreasing: {upper}"
    assert report.slope <= -1.5, f"slope {report.slope}"
    _report(3, f"kappa*e decreasing, slope {report.slope:.2f} <= -1.5",
            budget.check())


def test_criterion_4_remark1_gate():
    budget = _Budget(30.0)
    grid = ladder_grid(1.0, 512, 4.0, LADDER.max)
    report = theorem1_experiment(
        BookParams.on_grid(grid, LADDER.values[0], K=1.0, h=1.0, alpha=0.25, eps=0.01),
        rate_strategy(grid, lambda t: np.cos(2.0 * np.pi * t)), LADDER, rate_growth=0.25)
    scaled = np.sqrt(report.kappas) * report.mean_err
    assert np.all(np.diff(scaled) < 0), f"sqrt(kappa)*e not decreasing: {scaled}"
    assert report.slope <= -0.9, f"slope {report.slope}"
    _report(4, f"sqrt(kappa)*e decreasing, slope {report.slope:.2f} <= -0.9",
            budget.check())


def test_criterion_5_block_dominance_gate():
    budget = _Budget(60.0)
    grid = ladder_grid(1.0, 512, 4.0, LADDER.max)
    book = BookParams.on_grid(grid, LADDER.values[0], K=1.0, h=1.0, alpha=0.0, eps=0.0)
    blocks = block_schedule(grid, [(0.25, 1.0)], t_prime=0.5)

    det = run_lemma_jump(book, blocks, FundamentalSpec(sigma=0.0), LADDER,
                         width_scale=1.0, paths=1, seed=42)
    assert abs(det.mean_diff[-1] - 0.5) <= 0.02, f"D(4096) = {det.mean_diff[-1]}"
    assert np.all(det.frac_positive == 1.0)

    noisy = run_lemma_jump(book, blocks, FundamentalSpec(sigma=0.2),
                           LADDER, width_scale=1.0, paths=1000, seed=42)
    assert noisy.frac_positive[-1] >= 0.95, f"frac = {noisy.frac_positive[-1]}"
    _report(5, f"D(4096) = {det.mean_diff[-1]:.4f} near 0.5; positive on "
               f"{100 * noisy.frac_positive[-1]:.1f}% of noisy paths", budget.check())


def test_criterion_6_tracker_l2_bound():
    budget = _Budget(60.0)
    ladder = KappaLadder.geometric(16.0, 2.0, 7)
    report = run_tracker_bound(
        ladder, ladder_grid(1.0, 512, 4.0, ladder.max), target_drift=0.0, target_vol=1.0,
        rate_scale=1.0, coeff_bound=1.0, rate_floor=1.0, target0=0.0, paths=10_000, seed=42)
    assert report.bound == 5.0
    slack = report.bound + 3.0 * report.stderrs
    assert np.all(report.estimates <= slack), \
        f"estimates {report.estimates} exceed {slack}"
    _report(6, f"max tracking moment {report.estimates.max():.2f} <= 5 + 3 SE",
            budget.check())


def test_criterion_7_utility_noninferiority():
    budget = _Budget(120.0)
    ladder = KappaLadder((64.0, 256.0, 1024.0))
    book = BookParams.on_grid(ladder_grid(1.0, 512, 4.0, ladder.max), ladder.values[0],
                              K=1.0, h=1.0, alpha=0.0, eps=0.0)
    report = run_utility(
        book, FundamentalSpec(s0=100.0, mu=0.1, sigma=0.2), ladder, gamma=1.0,
        multipliers=[0.5, 1.0, 2.0], paths=10_000, seed=42, x0=0.0, bootstrap=500)

    # candidate speed not beaten at the stated comparison point kappa = 256
    k = report.kappas.index(256.0)
    for c in (0.5, 2.0):
        j = report.multipliers.index(c)
        gap = report.candidate_ce[k] - report.ce[k, j]
        halfwidth = (report.gap_ci_high[k, j] - report.gap_ci_low[k, j]) / 2.0
        assert gap >= -halfwidth, f"multiplier {c}: gap {gap}"

    curve = report.candidate_ce
    gaps = [report.frictionless_ce - ce for ce in curve]
    assert report.frictionless_ce == pytest.approx(0.125)
    assert all(b > a for a, b in zip(curve, curve[1:])), curve
    assert all(g > 0 for g in gaps), gaps
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
    _report(7, f"candidate CE {report.candidate_ce[k]:.4f} non-inferior at kappa=256; "
               f"CE rises {curve[0]:.4f} -> {curve[-1]:.4f} toward "
               f"{report.frictionless_ce}", budget.check())


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_criterion_8_shipped_configs_deterministic(name, tmp_path):
    command = {"simulate": "simulate", "utility": "utility"}.get(
        json.loads((CONFIG_DIR / name).read_text())["kind"], "converge")
    outs = []
    for run in ("first", "second"):
        out = tmp_path / run
        code = main([command, "--config", str(CONFIG_DIR / name), "--out", str(out)])
        assert code == 0, f"{name} exited {code}"
        outs.append(out)
    files = sorted(p.name for p in outs[0].iterdir())
    assert files == sorted(p.name for p in outs[1].iterdir())
    for f in files:
        assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes(), \
            f"{name}: {f} differs between reruns"
    print(f"\n[PASS] criterion 8: {name} reruns byte-identical")
