"""Command-line runner: parse a run config, execute it, emit CSV + JSON.

Exit codes: 0 all gates passed, 1 gate failure (artifacts still written),
2 configuration problem, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import DEFAULT_BUDGET, RunConfig, parse_config, validate_config
from .errors import ConfigError
from .experiments import (ConvergenceReport, RandomSource, ladder_grid,
                          lemma_jump_experiment, l2_convergence_experiment,
                          remark1_experiment, theorem1_experiment,
                          tracker_bound_experiment, utility_experiment)
from .paths import as_path, write_columns, write_csv
from .strategies import (Strategy, TrackerSpec, block_schedule, exponential_tracker,
                         rate_strategy, write_strategy_csv, zero_strategy)
from .wealth import Evaluation

logger = logging.getLogger("lobres")

SCHEMA_VERSION = 1

_CONVERGE_KINDS = ("theorem1", "remark1", "lemma-jump", "tracker-bound", "l2")

# Gate thresholds for the shipped experiment kinds.
THEOREM1_SLOPE_GATE = -1.5
REMARK1_SLOPE_GATE = -0.9
LEMMA_FRACTION_GATE = 0.95


@dataclass
class RunResult:
    gates: dict[str, bool]
    artifacts: list[str]
    summary: dict

    @property
    def passed(self) -> bool:
        return all(self.gates.values())


def _build_strategy(config: RunConfig, grid, kappa: float | None) -> Strategy:
    sc = config.strategy
    if sc.type == "zero":
        return zero_strategy(grid, sc.phi0)
    if sc.type == "rate":
        return rate_strategy(grid, sc.rate.value(), sc.phi0)
    if sc.type == "blocks":
        return block_schedule(grid, sc.blocks, sc.t_prime)
    spec = TrackerSpec(target=as_path(grid, sc.target.value()),
                       rate_scale=as_path(grid, sc.rate_scale.value()),
                       kappa=kappa)
    return exponential_tracker(spec, sc.start)


def _convergence_artifacts(report: ConvergenceReport, out: Path) -> list[str]:
    write_csv(out / "convergence.csv",
              ["kappa", "mean_err", "p95_err", "kappa_x_err", "slope_so_far"],
              report.csv_rows())
    return ["convergence.csv"]


def _all_zero(report: ConvergenceReport) -> bool:
    return len(report.zero_error_kappas) == len(report.kappas)


def _run_simulate(config: RunConfig, out: Path) -> RunResult:
    kappa = config.book.kappa
    grid = ladder_grid(config.grid.horizon, config.grid.n0,
                       config.grid.resolution_scale, kappa)
    book = config.book.template().materialize(grid, kappa)
    fund = config.fundamental.spec().sample(grid, RandomSource(config.mc.seed, 0))
    strategy = _build_strategy(config, grid, kappa)

    evaluation = Evaluation(book, strategy, fund)
    wealth = evaluation.ow(config.x0)
    spreads = evaluation.spreads()
    wealth.write_csv(out / "wealth.csv")
    write_columns(out / "spreads.csv", ["t", "ask", "bid", "ask_pre", "bid_pre"],
                  [grid.points(), spreads.ask.values, spreads.bid.values,
                   spreads.ask_pre, spreads.bid_pre])
    write_strategy_csv(strategy, out / "strategy.csv")
    summary = {"terminal_wealth": repr(float(wealth.x.values[-1]))}
    return RunResult({}, ["wealth.csv", "spreads.csv", "strategy.csv"], summary)


def _run_theorem1(config: RunConfig, out: Path) -> RunResult:
    report = theorem1_experiment(
        config.book.template(), _rate_input(config), config.fundamental.spec(),
        config.ladder.ladder(), horizon=config.grid.horizon, n0=config.grid.n0,
        resolution_scale=config.grid.resolution_scale)
    gates = {
        "kappa_x_err_decreasing_upper_half": _all_zero(report)
                                             or report.decreasing_on_upper_half(),
        "slope_gate": report.slope is None or report.slope <= THEOREM1_SLOPE_GATE,
    }
    summary = {"slope": None if report.slope is None else repr(report.slope)}
    return RunResult(gates, _convergence_artifacts(report, out), summary)


def _run_remark1(config: RunConfig, out: Path) -> RunResult:
    report = remark1_experiment(
        config.book.template(), _rate_input(config), config.fundamental.spec(),
        config.ladder.ladder(), horizon=config.grid.horizon, n0=config.grid.n0,
        resolution_scale=config.grid.resolution_scale)
    scaled = report.sqrt_kappa_x_err
    gates = {
        "sqrt_kappa_x_err_decreasing": _all_zero(report)
                                       or bool(np.all(np.diff(scaled) < 0)),
        "slope_gate": report.slope is None or report.slope <= REMARK1_SLOPE_GATE,
    }
    summary = {"slope": None if report.slope is None else repr(report.slope)}
    return RunResult(gates, _convergence_artifacts(report, out), summary)


def _run_l2(config: RunConfig, out: Path) -> RunResult:
    bounds = config.bounds.bounds() if config.bounds is not None else None
    report = l2_convergence_experiment(
        config.book.template(), _rate_input(config), config.fundamental.spec(),
        config.ladder.ladder(), bounds=bounds, horizon=config.grid.horizon,
        n0=config.grid.n0, resolution_scale=config.grid.resolution_scale)
    gates = {
        "kappa_x_err_decreasing_upper_half": _all_zero(report)
                                             or report.decreasing_on_upper_half(),
    }
    summary = {"slope": None if report.slope is None else repr(report.slope)}
    return RunResult(gates, _convergence_artifacts(report, out), summary)


def _rate_input(config: RunConfig):
    if config.strategy.type == "zero":
        return 0.0
    return config.strategy.rate.value()


def _run_lemma(config: RunConfig, out: Path) -> RunResult:
    ladder = config.ladder.ladder()
    grid = ladder_grid(config.grid.horizon, config.grid.n0,
                       config.grid.resolution_scale, ladder.max)
    blocks = block_schedule(grid, config.strategy.blocks, config.strategy.t_prime)
    fundamental = config.fundamental.spec()
    report = lemma_jump_experiment(
        config.book.template(), blocks, fundamental, ladder,
        width_scale=config.smoothing.width_scale, paths=config.mc.paths,
        seed=config.mc.seed)
    write_csv(out / "lemma.csv", ["kappa", "mean_diff", "frac_positive"],
              report.csv_rows())
    frac_target = 1.0 if fundamental.is_deterministic else LEMMA_FRACTION_GATE
    gates = {
        "positive_mean_gain_at_kappa_max": bool(report.mean_diff[-1] > 0),
        "positive_fraction_at_kappa_max": bool(report.frac_positive[-1] >= frac_target),
    }
    summary = {"mean_diff_at_kappa_max": repr(float(report.mean_diff[-1])),
               "frac_positive_at_kappa_max": repr(float(report.frac_positive[-1]))}
    return RunResult(gates, ["lemma.csv"], summary)


def _run_tracker_bound(config: RunConfig, out: Path) -> RunResult:
    tc = config.tracker
    report = tracker_bound_experiment(
        config.ladder.ladder(), target_drift=tc.target_drift.value(),
        target_vol=tc.target_vol.value(), rate_scale=tc.rate_scale.value(),
        coeff_bound=tc.coeff_bound, rate_floor=tc.rate_floor, target0=tc.target0,
        paths=config.mc.paths, seed=config.mc.seed, horizon=config.grid.horizon,
        n0=config.grid.n0, resolution_scale=config.grid.resolution_scale)
    write_csv(out / "tracker.csv",
              ["kappa", "estimate", "stderr", "bound", "within_bound"],
              report.csv_rows())
    gates = {"bound_holds_for_every_kappa": report.all_within}
    summary = {"bound": repr(report.bound),
               "max_estimate": repr(float(report.estimates.max()))}
    return RunResult(gates, ["tracker.csv"], summary)


def _run_utility(config: RunConfig, out: Path) -> RunResult:
    uc = config.utility
    report = utility_experiment(
        config.book.template(), config.fundamental.spec(), gamma=uc.gamma,
        kappas=uc.kappas, multipliers=uc.multipliers, paths=config.mc.paths,
        seed=config.mc.seed, x0=uc.x0, horizon=config.grid.horizon,
        n0=config.grid.n0, resolution_scale=config.grid.resolution_scale,
        bootstrap=uc.bootstrap)
    write_csv(out / "utility.csv",
              ["kappa", "multiplier", "ce", "ci_low", "ci_high",
               "ce_gap_vs_candidate", "gap_ci_low", "gap_ci_high"],
              report.csv_rows())
    # the speed-optimality claim is asymptotic: gate the upper half of the
    # kappa range, like the other ladder gates
    upper = report.kappas[len(report.kappas) // 2:]
    gates = {"candidate_noninferior": all(report.candidate_noninferior(k)
                                          for k in upper)}
    curve = report.candidate_ce_curve()
    if len(curve) >= 2:
        gates["ce_increasing_in_kappa"] = all(b > a for a, b in zip(curve, curve[1:]))
        gates["ce_below_frictionless"] = all(c < report.frictionless_ce for c in curve)
    summary = {"frictionless_ce": repr(report.frictionless_ce),
               "candidate_ce": [repr(c) for c in curve]}
    return RunResult(gates, ["utility.csv"], summary)


_RUNNERS = {
    "simulate": _run_simulate,
    "theorem1": _run_theorem1,
    "remark1": _run_remark1,
    "l2": _run_l2,
    "lemma-jump": _run_lemma,
    "tracker-bound": _run_tracker_bound,
    "utility": _run_utility,
}


def run_config(config: RunConfig, out_dir: str | Path | None = None) -> RunResult:
    """Execute a run and write its artifacts; returns gates and summary."""
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = _RUNNERS[config.kind](config, out)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "kind": config.kind,
        "config_hash": config.config_hash(),
        "seed": config.mc.seed,
        "gates": result.gates,
        "passed": result.passed,
        "artifacts": sorted(result.artifacts + ["summary.json"]),
        "report": result.summary,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    result.summary = summary
    result.artifacts = summary["artifacts"]
    return result


def _load_config(path: str, seed: int | None, out: str | None) -> RunConfig:
    config = parse_config(Path(path).read_text())
    if seed is not None:  # replace() runs McConfig's seed check
        config = replace(config, mc=replace(config.mc, seed=seed))
    return config if out is None else replace(config, output_dir=out)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override mc.seed")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lobres",
        description="Block-shaped order book simulation and high-resilience experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("simulate", "run one order-book simulation"),
            ("converge", "run a convergence experiment (theorem1, remark1, "
                         "lemma-jump, tracker-bound, l2)"),
            ("utility", "run the portfolio-tracker utility comparison"),
            ("validate", "check a config and estimate its cost, without running")):
        _add_common(sub.add_parser(name, help=help_text))
    args = parser.parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper()))

    try:
        config = _load_config(args.config, args.seed, args.out)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        report = validate_config(config, DEFAULT_BUDGET)
        print(json.dumps(report, sort_keys=True, indent=2))
        return 0

    expected = {"simulate": ("simulate",), "converge": _CONVERGE_KINDS,
                "utility": ("utility",)}[args.command]
    if config.kind not in expected:
        print(f"error: config kind '{config.kind}' does not match command "
              f"'{args.command}' (expected one of {sorted(expected)})", file=sys.stderr)
        return 2

    try:
        result = run_config(config)
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for gate, ok in result.gates.items():
        logger.info("gate %s: %s", gate, "pass" if ok else "FAIL")
    if not result.passed:
        failed = sorted(g for g, ok in result.gates.items() if not ok)
        print(f"gate failure: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
