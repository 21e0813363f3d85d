"""Command-line runner: parse a run config, execute it, emit CSV + JSON.

Exit codes: 0 all gates passed, 1 gate failure (artifacts still written),
2 configuration problem, 3 I/O failure.  ``python -m lobres.cli`` and the
``lobres`` script run ``run``, which ends the process without interpreter
teardown; ``main`` is the in-process entry, which returns the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple, NoReturn

import numpy as np

from .config import KINDS, RunConfig, parse_config, validate_config
from .experiments import (check_uniform_bounds, lemma_jump_experiment, rung_strategy,
                          theorem1_experiment, tracker_bound_experiment, tracker_bound_inputs,
                          utility_experiment, utility_trackers)
from .paths import TimeGrid, as_path, write_tables
from .strategies import (Strategy, block_schedule, exponential_tracker, rate_strategy,
                         smoothing_windows)
from .wealth import Evaluation

SCHEMA_VERSION = 1


class _Gate(NamedTuple):
    """A claim a run checks.  ``holds(report)`` gives one bool per rung, or one
    for the whole ladder; the gate passes when all from rung
    ``min(int(rungs * first), rungs - 1)`` on are true, and is written only
    for ladders of at least ``min_rungs`` rungs."""

    name: str
    holds: Callable[[Any], Any]
    first: float = 0.0
    min_rungs: int = 1


def _gap_falls(power: float) -> Callable[[Any], np.ndarray]:
    """Per rung: kappa**power * gap is strictly lower at the next rung (the top
    rung holds), or every gap is 0."""
    return lambda r: (np.append(np.diff(r.kappas**power * r.mean_err) < 0, True)
                      | (not np.any(r.mean_err)))


# Every gate of every kind (simulate has none), one row per claim: the
# Obizhaeva/Wang wealth gap closes like 1/kappa (Theorem 1) or like kappa**-0.5
# when the rate grows (Remark 1), smoothed execution beats blocks (the lemma),
# the tracking error stays within its bound, the Almgren/Chriss speed is best.
GATES: dict[str, tuple[_Gate, ...]] = {
    "theorem1": (_Gate("kappa_x_err_decreasing_upper_half", _gap_falls(1.0), first=0.5),
                 _Gate("slope_gate", lambda r: r.slope is None or r.slope <= -1.5)),
    "remark1": (_Gate("sqrt_kappa_x_err_decreasing", _gap_falls(0.5)),
                _Gate("slope_gate", lambda r: r.slope is None or r.slope <= -0.9)),
    "l2": (_Gate("kappa_x_err_decreasing_upper_half", _gap_falls(1.0), first=0.5),),
    "lemma-jump": (  # without noise every path has the same gain: the fraction is 0 or 1
        _Gate("positive_mean_gain_at_kappa_max", lambda r: r.mean_diff > 0, first=1.0),
        _Gate("positive_fraction_at_kappa_max", lambda r: r.frac_positive >= 0.95, first=1.0)),
    "tracker-bound": (_Gate("bound_holds_for_every_kappa", lambda r: r.within),),
    # per kappa the candidate's certainty equivalent is at least every cell's
    # minus half its gap interval's width; asymptotic, so the upper half only
    "utility": (
        _Gate("candidate_noninferior", lambda r: ~np.any(
            r.candidate_ce[:, None] < r.ce - (r.gap_ci_high - r.gap_ci_low) / 2.0, axis=1),
            first=0.5),
        _Gate("ce_increasing_in_kappa", lambda r: np.append(np.diff(r.candidate_ce) > 0, True),
              min_rungs=2),
        _Gate("ce_below_frictionless", lambda r: r.candidate_ce < r.frictionless_ce,
              min_rungs=2)),
}


def _gates(kind: str, report) -> dict[str, bool]:
    """Whether each of ``GATES[kind]`` written for ``report``'s ladder passes."""
    rungs = len(report.kappas)
    return {g.name: bool(np.atleast_1d(g.holds(report))[min(int(rungs * g.first), rungs - 1):]
                         .all()) for g in GATES[kind] if rungs >= g.min_rungs}


@dataclass
class RunResult:
    """A run's outcome.  ``tables`` maps each CSV artifact's name to the
    method that builds its table; ``run_config`` creates the output directory
    and writes them once the rungs have returned, so a refused run writes
    nothing and the rungs' intermediate arrays are freed first."""

    gates: dict[str, bool]
    tables: dict[str, Callable[[], dict]]
    summary: dict

    @property
    def passed(self) -> bool:
        return all(self.gates.values())


# Each run kind's set-up builds and checks, on the run's grid and in the
# run's order, every input the run builds before its first rung, with the
# engine's own constructors and checks, and returns the rungs: a closure that
# hands what it built to the experiment once and gives the RunResult.
# ``validate`` runs the set-up and drops the rungs: it refuses what runs refuse.
Rungs = Callable[[], RunResult]


def _strategy(config: RunConfig, grid: TimeGrid) -> Strategy:
    """The run's zero, rate, block or tracker strategy on ``grid``; only
    simulate, whose book has one kappa, takes a tracker."""
    sc = config.strategy
    if sc.type == "blocks":
        return block_schedule(grid, sc.blocks, sc.t_prime)
    if sc.type == "tracker":
        return exponential_tracker(as_path(grid, sc.target.value()),
                                   as_path(grid, sc.rate_scale.value()), config.book.kappa,
                                   sc.start)
    return rate_strategy(grid, 0.0 if sc.type == "zero" else sc.rate.value(), sc.phi0)


def _set_up_simulate(config: RunConfig) -> Rungs:
    grid = config.time_grid()
    book = config.book.params(grid, config.book.kappa)
    spec = config.fundamental.spec()
    mean, sigma = spec.mean_path(grid), spec.sigma_steps(grid)
    strategy = _strategy(config, grid)

    def rungs() -> RunResult:
        evaluation = Evaluation(book, strategy, spec.add_noise(mean, sigma, config.mc.seed))
        wealth = evaluation.ow(config.x0)
        spreads = evaluation.spreads()
        summary = {"terminal_wealth": repr(float(wealth.x.values[-1]))}
        return RunResult({}, {"wealth.csv": wealth.table, "spreads.csv": spreads.table,
                              "strategy.csv": strategy.table}, summary)
    return rungs


def _set_up_gap(config: RunConfig) -> Rungs:
    grid, kappas = config.time_grid(), config.kappas()
    base, rate_growth = _strategy(config, grid), KINDS[config.kind].rate_growth
    book = config.book.params(grid, kappas.values[0])
    if config.bounds is not None:
        bc = config.bounds
        check_uniform_bounds(book, base, bc.rate_bound, bc.coefficient_bound, bc.resilience_floor)
    rung_strategy(base, kappas.max, rate_growth)  # the rate scaled to the top rung
    config.fundamental.spec().sigma_steps(grid)  # refused, though the gap reads no price

    def rungs() -> RunResult:
        report = theorem1_experiment(book, base, kappas, rate_growth=rate_growth)
        summary = {"slope": None if report.slope is None else repr(report.slope)}
        return RunResult(_gates(config.kind, report), {"convergence.csv": report.table},
                         summary)
    return rungs


def _set_up_lemma(config: RunConfig) -> Rungs:
    grid, kappas = config.time_grid(), config.kappas()
    strategy, spec = _strategy(config, grid), config.fundamental.spec()
    width_scale = config.smoothing.width_scale
    mean = spec.mean_path(grid)
    book = config.book.params(grid, kappas.values[0])
    windows = [smoothing_windows(grid, strategy.blocks, kappa, width_scale) for kappa in kappas]
    sigma = None if spec.is_deterministic else spec.sigma_steps(grid)  # None draws no noise

    def rungs() -> RunResult:
        report = lemma_jump_experiment(book, strategy, mean, sigma, kappas, windows=windows,
                                       paths=config.mc.paths, seed=config.mc.seed)
        summary = {"mean_diff_at_kappa_max": repr(float(report.mean_diff[-1])),
                   "frac_positive_at_kappa_max": repr(float(report.frac_positive[-1]))}
        return RunResult(_gates(config.kind, report), {"lemma.csv": report.table}, summary)
    return rungs


def _set_up_tracker_bound(config: RunConfig) -> Rungs:
    grid, kappas, tc = config.time_grid(), config.kappas(), config.tracker
    inputs = tracker_bound_inputs(grid, tc.target_drift.value(), tc.target_vol.value(),
                                  tc.rate_scale.value(), tc.coeff_bound, tc.rate_floor,
                                  config.mc.paths)

    def rungs() -> RunResult:
        report = tracker_bound_experiment(kappas, grid, inputs, target0=tc.target0,
                                          paths=config.mc.paths, seed=config.mc.seed)
        summary = {"bound": repr(report.bound),
                   "max_estimate": repr(float(report.estimates.max()))}
        return RunResult(_gates(config.kind, report), {"tracker.csv": report.table}, summary)
    return rungs


def _set_up_utility(config: RunConfig) -> Rungs:
    grid, kappas, uc = config.time_grid(), config.kappas(), config.utility
    book, spec = config.book.params(grid, kappas.values[0]), config.fundamental.spec()
    trackers = utility_trackers(book, spec, uc.gamma, uc.multipliers, uc.x0)
    mean, sigma = spec.mean_path(grid), spec.sigma_steps(grid)

    def rungs() -> RunResult:
        report = utility_experiment(book, trackers, mean, sigma, kappas, gamma=uc.gamma,
                                    multipliers=uc.multipliers, paths=config.mc.paths,
                                    seed=config.mc.seed, x0=uc.x0, bootstrap=uc.bootstrap)
        summary = {"frictionless_ce": repr(report.frictionless_ce),
                   "candidate_ce": [repr(c) for c in report.candidate_ce.tolist()]}
        return RunResult(_gates(config.kind, report), {"utility.csv": report.table}, summary)
    return rungs


_SET_UPS = {
    "simulate": _set_up_simulate,
    **{kind: _set_up_gap for kind, spec in KINDS.items() if spec.rate_growth is not None},
    "lemma-jump": _set_up_lemma,
    "tracker-bound": _set_up_tracker_bound,
    "utility": _set_up_utility,
}


def run_config(config: RunConfig, rungs: Rungs) -> RunResult:
    """Run the rungs of ``config``'s set-up and write the run's artifacts;
    returns gates and summary."""
    out = Path(config.output_dir)
    result = rungs()
    out.mkdir(parents=True, exist_ok=True)
    write_tables({out / name: table() for name, table in result.tables.items()})
    summary = {
        "schema_version": SCHEMA_VERSION,
        "kind": config.kind,
        "config_hash": config.config_hash(),
        "seed": config.mc.seed,
        "gates": result.gates,
        "passed": result.passed,
        "artifacts": sorted([*result.tables, "summary.json"]),
        "report": result.summary,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    result.summary = summary
    return result


def _load_config(path: str, seed: int | None, out: str | None) -> RunConfig:
    config = parse_config(Path(path).read_text())
    if seed is not None:  # replace() runs McConfig's seed check
        config = config.replace(mc=config.mc.replace(seed=seed))
    if out is not None:  # replace() runs RunConfig's output directory check
        config = config.replace(output_dir=out)
    return config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override mc.seed")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])


def _io_failure(exc: OSError) -> int:
    print(f"error: I/O failure: {exc}", file=sys.stderr)
    return 3


class _Parser(argparse.ArgumentParser):  # a failed write of --help raises; argparse's does not
    def print_help(self, file=None) -> None:
        (file or sys.stdout).write(self.format_help())


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="lobres", description="Block-shaped order book simulation and "
                                                "high-resilience experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    converge = ", ".join(kind for kind, spec in KINDS.items() if spec.command == "converge")
    for name, help_text in (
            ("simulate", "run one order-book simulation"),
            ("converge", f"run a convergence experiment ({converge})"),
            ("utility", "run the portfolio-tracker utility comparison"),
            ("validate", "check a config and estimate its cost, without running")):
        _add_common(sub.add_parser(name, help=help_text))
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config, args.seed, args.out)
        expected = sorted(kind for kind, spec in KINDS.items() if spec.command == args.command)
        if args.command != "validate" and config.kind not in expected:
            raise ValueError(f"config kind '{config.kind}' does not match command "
                             f"'{args.command}' (expected one of {expected})")
        rungs = _SET_UPS[config.kind](config)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    except (ValueError, MemoryError) as exc:  # numpy refuses a grid it cannot hold
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        report = validate_config(config)
        try:
            print(json.dumps(report, sort_keys=True, indent=2))
        except OSError as exc:  # a full disk, or a reader that closed the pipe
            return _io_failure(exc)
        return 0

    try:
        result = run_config(config, rungs)
    except OSError as exc:
        return _io_failure(exc)
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.log_level in ("debug", "info"):  # the lines logging's default handler printed
        for gate, ok in result.gates.items():
            print(f"INFO:lobres:gate {gate}: {'pass' if ok else 'FAIL'}", file=sys.stderr)
    if not result.passed:
        failed = sorted(g for g, ok in result.gates.items() if not ok)
        print(f"gate failure: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def run() -> NoReturn:
    """The process entry: ``main()``, then flush stdout and stderr and end the
    process with ``os._exit``, which skips the interpreter's teardown (15-20
    ms of freeing modules that the ending process never uses again).  No
    ``atexit`` handler of the package is skipped, for it registers none.  A
    failed write of the help text or flush of stdout exits 3, as a failed
    write of the report does."""
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse: --help (0) or a usage error (2)
            code = exc.code
        sys.stdout.flush()
    except OSError as exc:  # the help text's write, or the final flush, failed
        code = _io_failure(exc)
    try:
        sys.stderr.flush()
    except OSError:
        pass  # nowhere left to report it
    os._exit(code)


if __name__ == "__main__":
    run()
