"""High-resilience limit experiments and empirical convergence-rate fits.

Every experiment runs a kappa ladder on one shared grid sized for the
largest ladder point, so the same fundamental path (one RNG stream per
Monte-Carlo path) is fed to every kappa: differences across the ladder then
reflect the resilience, not sampling noise.

Wealth along a path is linear in the fundamental-price increments once the
strategy and book coefficients are fixed (the coefficients are sampled
paths, never functions of the price).  The Monte-Carlo experiments
(lemma-jump, utility) exploit this: they evaluate the wealth engine once on
the drift-only price path and add the position-weighted noise per path,
which reproduces per-path engine evaluation exactly for additive
fundamentals with time-only coefficients.

The gap kinds (theorem1, remark1, l2) all run ``theorem1_experiment``:
remark1 passes ``rate_growth=0.25`` and l2 passes its declared ``bounds``.
They take no price model and draw no noise.  Both engines book the same gain,
the same baseline-spread cost and, for the block-free strategies they admit,
no block cost, so X_ow - X_ac is the difference of their impact costs.  Those
depend only on the book and the trading rate, not on the price path or the
initial position, so the gap is computed once per kappa on a flat price path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .book import BookParams, BookTemplate
from .errors import InsufficientData
from .paths import (RandomSource, SampledPath, TimeGrid, as_path, constant_path, make_grid,
                    normals_block)
from .strategies import (Strategy, TrackerSpec, exponential_tracker, rate_strategy,
                         relax_positions, smooth_blocks)
from .wealth import Evaluation, ac_wealth, ow_wealth

# Stream ids 0..paths-1 are reserved for Monte-Carlo paths; auxiliary noise
# sources start far above any plausible path count.
_BOOTSTRAP_STREAM = 2**32

# Paths per chunk of a Monte-Carlo experiment: a (steps, chunk) float64 block
# holds about 2**19 values (4 MiB), 1,024 paths at 512 steps and 256 at 2,048.
# Each chunk draws its own streams, so only per-path results span all paths.
_CHUNK_ELEMENTS = 1 << 19


@dataclass(frozen=True)
class KappaLadder:
    """Strictly increasing resilience scales, typically geometric."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("ladder must contain at least one kappa")
        if any(v <= 0 for v in vals) or any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("ladder values must be positive and strictly increasing")

    @classmethod
    def geometric(cls, start: float = 16.0, factor: float = 2.0, count: int = 9) -> "KappaLadder":
        return cls(tuple(start * factor**j for j in range(count)))

    @property
    def max(self) -> float:
        return self.values[-1]

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class FundamentalSpec:
    """Additive price model dS = mu(t) dt + sigma(t) dW with constant or
    time-function coefficients (matching the Euler sampling convention)."""

    s0: float = 100.0
    mu: float | Callable[[float], float] = 0.0
    sigma: float | Callable[[float], float] = 0.0

    def _steps(self, grid: TimeGrid, coeff) -> np.ndarray:
        return as_path(grid, coeff).values[:-1]

    def mu_steps(self, grid: TimeGrid) -> np.ndarray:
        return self._steps(grid, self.mu)

    def sigma_steps(self, grid: TimeGrid) -> np.ndarray:
        sig = self._steps(grid, self.sigma)
        if np.any(sig < 0):
            raise ValueError("sigma must be nonnegative")
        return sig

    def mean_path(self, grid: TimeGrid) -> SampledPath:
        values = np.empty(grid.n_points)
        values[0] = self.s0
        np.cumsum(self.mu_steps(grid) * grid.dt, out=values[1:])
        values[1:] += self.s0
        return SampledPath(grid, values)

    def sample(self, grid: TimeGrid, rng: RandomSource) -> SampledPath:
        dw = math.sqrt(grid.dt) * rng.normals(grid.steps)
        values = self.mean_path(grid).values.copy()
        values[1:] += np.cumsum(self.sigma_steps(grid) * dw)
        return SampledPath(grid, values)

    @property
    def is_deterministic(self) -> bool:
        return not callable(self.sigma) and self.sigma == 0.0


def brownian_increments(grid: TimeGrid, seed: int, paths: int, first: int = 0) -> np.ndarray:
    """Time-major (steps, paths) matrix of N(0, dt) increments.

    Column p holds stream first + p of ``seed``, so adding paths never changes
    earlier ones; each time step is one contiguous row.
    """
    out = normals_block(seed, paths, grid.steps, first)
    out *= math.sqrt(grid.dt)
    return out


def paths_per_chunk(steps: int) -> int:
    """Paths drawn together by a Monte-Carlo experiment on a grid of ``steps``."""
    return max(1, _CHUNK_ELEMENTS // steps)


def _path_chunks(grid: TimeGrid, paths: int):
    """Consecutive stream ranges (first, stop) covering 0..paths-1, each of
    ``paths_per_chunk(grid.steps)`` paths but the last."""
    size = paths_per_chunk(grid.steps)
    for first in range(0, paths, size):
        yield first, min(first + size, paths)


def ladder_grid(horizon: float, n0: int, resolution_scale: float,
                kappa_max: float) -> TimeGrid:
    """One grid per ladder, fine enough for the largest kappa's boundary layer."""
    steps = max(int(n0), math.ceil(resolution_scale * math.sqrt(kappa_max)))
    return make_grid(horizon, steps)


def fit_rate(points: Sequence[tuple[float, float]]) -> float:
    """Slope of the least-squares fit of log(error) against log(kappa).

    Nonpositive errors are excluded (they carry no rate information); fewer
    than three usable points raise :class:`InsufficientData`.
    """
    usable = [(k, e) for k, e in points if e > 0]
    if len(usable) < 3:
        raise InsufficientData(
            f"rate fit needs at least 3 positive error points, got {len(usable)}")
    lk = np.log([k for k, _ in usable])
    le = np.log([e for _, e in usable])
    return float(np.polyfit(lk, le, 1)[0])


@dataclass
class ConvergenceReport:
    """Per-kappa gap sup_t |X_ow - X_ac| with the fitted log-log rate.

    The gap does not depend on the price path, so ``mean_err`` is the gap
    itself; it is also its mean, 95th percentile and L2 norm over paths.
    """

    kappas: np.ndarray
    mean_err: np.ndarray
    slope: float | None = None

    @property
    def kappa_x_err(self) -> np.ndarray:
        return self.kappas * self.mean_err

    def csv_rows(self) -> list[list[str]]:
        """Rows of ``kappa, mean_err, p95_err, kappa_x_err, slope_so_far``."""
        rows = []
        for j in range(len(self.kappas)):
            pts = list(zip(self.kappas[: j + 1], self.mean_err[: j + 1]))
            try:
                so_far = repr(fit_rate(pts))
            except InsufficientData:
                so_far = ""
            err = repr(float(self.mean_err[j]))
            rows.append([repr(float(self.kappas[j])), err, err,
                         repr(float(self.kappa_x_err[j])), so_far])
        return rows


def theorem1_experiment(template: BookTemplate, rate, ladder: KappaLadder, *,
                        rate_growth: float = 0.0,
                        bounds: UniformBounds | None = None, horizon: float = 1.0,
                        n0: int = 512, resolution_scale: float = 4.0) -> ConvergenceReport:
    """Gap e(kappa) = sup_t |X_ow - X_ac| between structural and reduced-form
    wealth for the rate kappa**rate_growth * ``rate`` (a constant, a function
    of time or a sampled path), at every ladder rung.

    The gap is the same on every price path, so it is also its L2 norm over
    paths.  Theorem 1 (``rate_growth=0``): kappa * e(kappa) vanishes, one order
    faster for smooth rates.  Remark 1 (``rate_growth=0.25``): sqrt(kappa) *
    e(kappa) still vanishes.  The L2 mode first checks the declared ``bounds``
    against the first rung's book and the base rate.
    """
    grid = ladder_grid(horizon, n0, resolution_scale, ladder.max)
    base = rate_strategy(grid, rate)
    if bounds is not None:
        bounds.check(template.materialize(grid, ladder.values[0]), base)
    price = constant_path(grid, 0.0)
    errs = []
    for kappa in ladder:
        book = template.materialize(grid, kappa)
        # kappa**0.0 is 1.0, so a fixed rate passes through bit for bit
        strat = Strategy(grid, SampledPath(grid, kappa**rate_growth * base.rate.values))
        gap = (ac_wealth(book, strat, price).impact_cost.values
               - ow_wealth(book, strat, price).impact_cost.values)
        errs.append(float(np.max(np.abs(gap))))
    kappas = np.asarray(ladder.values)
    report = ConvergenceReport(kappas, np.asarray(errs))
    try:
        report.slope = fit_rate(list(zip(kappas, errs)))
    except InsufficientData:
        pass
    return report


@dataclass
class UniformBounds:
    """Declared uniform bounds for the L2-mode experiment."""

    rate_bound: float
    coefficient_bound: float
    resilience_floor: float

    def check(self, book: BookParams, strategy: Strategy) -> None:
        if np.any(np.abs(strategy.rate_steps) > self.rate_bound):
            raise ValueError("strategy rate exceeds its declared uniform bound")
        if (np.any(book.K_up.values < self.resilience_floor)
                or np.any(book.K_dn.values < self.resilience_floor)):
            raise ValueError("resilience shape falls below its declared floor")
        coeffs = [
            (1.0 - book.alpha_up.values) / book.h_up.values,
            (1.0 - book.alpha_dn.values) / book.h_dn.values,
            book.alpha_up.values / book.h_up.values,
            book.alpha_dn.values / book.h_dn.values,
            book.eps_up.values, book.eps_dn.values,
        ]
        if any(np.any(np.abs(c) > self.coefficient_bound) for c in coeffs):
            raise ValueError("book coefficient exceeds its declared uniform bound")


@dataclass
class LemmaJumpReport:
    """Terminal-payoff gains of smoothed block strategies over the blocks."""

    kappas: np.ndarray
    mean_diff: np.ndarray
    frac_positive: np.ndarray
    diffs: np.ndarray  # (n_kappa, paths)

    def csv_rows(self) -> list[list[str]]:
        return [[repr(float(k)), repr(float(m)), repr(float(f))]
                for k, m, f in zip(self.kappas, self.mean_diff, self.frac_positive)]


def lemma_jump_experiment(template: BookTemplate, block_strategy: Strategy,
                          fundamental: FundamentalSpec, ladder: KappaLadder, *,
                          width_scale: float = 1.0, paths: int = 1,
                          seed: int = 42) -> LemmaJumpReport:
    """Pathwise terminal difference D(kappa) between each block strategy and
    its linearly smoothed version, under common noise.

    The smoothed strategies trade the same volumes over windows of width
    width_scale * kappa^(-1/4); for large resilience their payoffs dominate
    the block payoffs.
    """
    if not block_strategy.has_blocks:
        raise ValueError("lemma experiment requires a nonzero block strategy")
    grid = block_strategy.grid
    mean_fund = fundamental.mean_path(grid)
    sigma = fundamental.sigma_steps(grid)

    # every rung's deterministic gap and noise weights, then one pass of noise
    diffs = np.empty((len(ladder), paths))
    weights = []
    for j, kappa in enumerate(ladder):
        book = template.materialize(grid, kappa)
        smoothed = smooth_blocks(block_strategy, kappa, width_scale)
        x_sm, w_sm = Evaluation(book, smoothed, mean_fund).terminal()
        x_bl, w_bl = Evaluation(book, block_strategy, mean_fund).terminal()
        diffs[j] = x_sm - x_bl
        weights.append(sigma * (w_sm - w_bl))
    if np.any(sigma > 0):
        for a, b in _path_chunks(grid, paths):
            noise = brownian_increments(grid, seed, b - a, a)
            for j, w in enumerate(weights):
                diffs[j, a:b] += w @ noise
            del noise  # freed before the next chunk draws
    return LemmaJumpReport(np.asarray(list(ladder)), diffs.mean(axis=1),
                           (diffs > 0).mean(axis=1), diffs)


@dataclass
class TrackerBoundReport:
    """Monte-Carlo check of the uniform tracking-error moment bound."""

    kappas: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    bound: float
    within: np.ndarray

    @property
    def all_within(self) -> bool:
        return bool(np.all(self.within))

    def csv_rows(self) -> list[list[str]]:
        return [[repr(float(k)), repr(float(e)), repr(float(s)), repr(float(self.bound)),
                 str(bool(w)).lower()]
                for k, e, s, w in zip(self.kappas, self.estimates, self.stderrs, self.within)]


def tracker_bound_experiment(ladder: KappaLadder, *, target_drift=0.0, target_vol=1.0,
                             rate_scale=1.0, coeff_bound: float = 1.0,
                             rate_floor: float = 1.0, target0: float = 0.0,
                             paths: int = 10_000, seed: int = 42, horizon: float = 1.0,
                             n0: int = 512, resolution_scale: float = 4.0) -> TrackerBoundReport:
    """Estimate E[sup_t kappa^(1/2) |target_t - tracker_t|^2] per kappa.

    The target is an Ito process with declared drift/vol coefficients bounded
    by ``coeff_bound`` and the tracking-rate scale M is bounded below by
    ``rate_floor``; the estimate must stay below 5 * C^2 * T / M_floor
    (within three Monte-Carlo standard errors) uniformly in kappa.
    """
    if paths < 2:
        raise ValueError(f"tracker-bound needs at least 2 paths for its standard "
                         f"errors (mc.paths), got {paths}")
    grid = ladder_grid(horizon, n0, resolution_scale, ladder.max)
    mu = as_path(grid, target_drift).values
    sig = as_path(grid, target_vol).values
    m = as_path(grid, rate_scale).values
    if np.any(np.abs(mu) > coeff_bound) or np.any(np.abs(sig) > coeff_bound):
        raise ValueError("target coefficients exceed the declared bound")
    if np.any(m < rate_floor):
        raise ValueError("tracking rate falls below its declared floor")

    sup2 = np.empty((len(ladder), paths))
    for a, b in _path_chunks(grid, paths):
        # time-major (n+1, chunk) targets: the noise becomes the increments
        # and is cumulated along time, then freed before the first rung
        increments = brownian_increments(grid, seed, b - a, a)
        increments *= sig[:-1, None]
        increments += (mu[:-1] * grid.dt)[:, None]
        targets = np.empty((grid.n_points, b - a))
        targets[0] = target0
        np.cumsum(increments, axis=0, out=targets[1:])
        del increments
        targets[1:] += target0
        for j, kappa in enumerate(ladder):
            err2 = relax_positions(targets, m, kappa, grid.dt)
            err2 -= targets
            np.square(err2, out=err2)
            sup2[j, a:b] = math.sqrt(kappa) * err2.max(axis=0)
            del err2  # freed before the next rung allocates its positions
        del targets  # freed before the next chunk draws

    bound = 5.0 * coeff_bound**2 * horizon / rate_floor
    estimates = sup2.mean(axis=1)
    stderrs = sup2.std(axis=1, ddof=1) / math.sqrt(paths)
    within = estimates <= bound + 3.0 * stderrs
    return TrackerBoundReport(np.asarray(list(ladder)), estimates, stderrs,
                              float(bound), within)


@dataclass
class UtilityCell:
    multiplier: float
    ce: float
    ci_low: float
    ci_high: float
    gap_vs_candidate: float
    gap_ci_low: float
    gap_ci_high: float

    @property
    def gap_halfwidth(self) -> float:
        return (self.gap_ci_high - self.gap_ci_low) / 2.0


@dataclass
class UtilityReport:
    """Certainty equivalents of trackers at competing speed multipliers."""

    kappas: tuple[float, ...]
    multipliers: tuple[float, ...]
    cells: dict[tuple[float, float], UtilityCell]
    frictionless_ce: float

    def ce(self, kappa: float, multiplier: float = 1.0) -> float:
        return self.cells[(kappa, multiplier)].ce

    def candidate_noninferior(self, kappa: float) -> bool:
        """Candidate CE at least every competitor's minus one CI half-width."""
        cand = self.ce(kappa, 1.0)
        for c in self.multipliers:
            if c == 1.0:
                continue
            cell = self.cells[(kappa, c)]
            if cand < cell.ce - cell.gap_halfwidth:
                return False
        return True

    def candidate_ce_curve(self) -> list[float]:
        return [self.ce(k, 1.0) for k in self.kappas]

    def csv_rows(self) -> list[list[str]]:
        rows = []
        for k in self.kappas:
            for c in self.multipliers:
                cell = self.cells[(k, c)]
                rows.append([repr(float(k)), repr(float(c)), repr(cell.ce),
                             repr(cell.ci_low), repr(cell.ci_high),
                             repr(cell.gap_vs_candidate), repr(cell.gap_ci_low),
                             repr(cell.gap_ci_high)])
        return rows


# Bootstrap resamples gathered at once: about 2**16 float64 values (512 KiB).
_CE_CHUNK_ELEMENTS = 1 << 16


def _certainty_equivalents(x: np.ndarray, idx: np.ndarray, gamma: float) -> np.ndarray:
    """-log(E[exp(-gamma x)]) / gamma over the samples x[idx[r]], one value per
    row r of ``idx``.  Each row is shifted by its own minimum so that exp
    neither overflows nor underflows to a zero mean."""
    xs = x[idx]
    xmin = xs.min(axis=1, keepdims=True)
    xs -= xmin
    xs *= -gamma
    np.exp(xs, out=xs)
    return xmin[:, 0] - np.log(xs.mean(axis=1)) / gamma


def utility_experiment(template: BookTemplate, fundamental: FundamentalSpec, *,
                       gamma: float, kappas: Sequence[float],
                       multipliers: Sequence[float] = (0.5, 1.0, 2.0),
                       paths: int = 10_000, seed: int = 42, x0: float = 0.0,
                       horizon: float = 1.0, n0: int = 512,
                       resolution_scale: float = 4.0,
                       bootstrap: int = 500) -> UtilityReport:
    """Compare certainty equivalents of trackers with speeds c * sqrt(kappa) * M.

    Setup: exponential utility with absolute risk aversion ``gamma``, constant
    drift/volatility fundamental, and a frictionless-baseline symmetric book
    (no baseline spread, no permanent impact).  The frictionless optimal
    position mu / (gamma * sigma^2) is then constant; trackers start from a
    flat position so that speed trades off impact cost against displacement.
    The closed-form optimal speed corresponds to multiplier 1.
    """
    if gamma <= 0:
        raise ValueError("risk aversion gamma must be positive")
    if 1.0 not in tuple(float(c) for c in multipliers):
        raise ValueError("speed multipliers must include 1 (the candidate)")
    if any(c <= 0 for c in multipliers):
        raise ValueError("speed multipliers must be positive")
    if callable(fundamental.mu) or callable(fundamental.sigma):
        raise ValueError("utility experiment requires constant drift and volatility")
    if fundamental.sigma <= 0:
        raise ValueError("utility experiment requires positive volatility "
                         "(zero volatility gives zero tracking speed)")
    kappas = tuple(float(k) for k in kappas)
    multipliers = tuple(float(c) for c in multipliers)

    grid = ladder_grid(horizon, n0, resolution_scale, max(kappas))
    probe = template.materialize(grid, kappas[0])
    if np.any(probe.eps_up.values != 0) or np.any(probe.eps_dn.values != 0):
        raise ValueError("utility experiment requires zero baseline spreads")
    if np.any(probe.alpha_up.values != 0) or np.any(probe.alpha_dn.values != 0):
        raise ValueError("utility experiment requires zero permanent impact")
    if not probe.is_symmetric():
        raise ValueError("utility experiment requires a symmetric book")

    mu = float(fundamental.mu)
    sigma = float(fundamental.sigma)
    try:
        target_pos = mu / (gamma * sigma**2)
    except (ZeroDivisionError, OverflowError):  # sigma**2 underflows to 0 or overflows
        target_pos = math.nan
    if not math.isfinite(target_pos):
        raise ValueError(f"utility experiment needs sigma**2 within the float range and a "
                         f"finite frictionless position mu / (gamma * sigma**2), got "
                         f"mu={mu!r}, gamma={gamma!r}, sigma={sigma!r}")
    target = constant_path(grid, target_pos)
    m_base = np.sqrt(probe.K_up.values * probe.h_up.values * sigma**2 * gamma / 2.0)

    mean_fund = fundamental.mean_path(grid)
    sigma_steps = fundamental.sigma_steps(grid)
    x_terminal: dict[tuple[float, float], np.ndarray] = {}
    weights: dict[tuple[float, float], np.ndarray] = {}
    for kappa in kappas:
        book = template.materialize(grid, kappa)
        for c in multipliers:
            spec = TrackerSpec(target=target,
                               rate_scale=SampledPath(grid, c * m_base),
                               kappa=kappa)
            strat = exponential_tracker(spec, start=0.0)
            x_det, w = Evaluation(book, strat, mean_fund).terminal(x0)
            x_terminal[(kappa, c)] = np.full(paths, x_det)
            weights[(kappa, c)] = sigma_steps * w
    for a, b in _path_chunks(grid, paths):
        dw = brownian_increments(grid, seed, b - a, a)
        for key, w in weights.items():
            x_terminal[key][a:b] += w @ dw
        del dw  # freed before the next chunk draws

    # the resample indices are drawn a chunk of rows at a time from one
    # generator, the same integers as one (bootstrap, paths) draw
    boot_gen = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(_BOOTSTRAP_STREAM,))))
    every_path = np.arange(paths)[None, :]
    ce_point = {key: float(_certainty_equivalents(x, every_path, gamma)[0])
                for key, x in x_terminal.items()}
    ce_boot = {key: np.empty(bootstrap) for key in x_terminal}
    rows = max(1, _CE_CHUNK_ELEMENTS // paths)
    for a in range(0, bootstrap, rows):
        boot_idx = boot_gen.integers(0, paths, size=(min(rows, bootstrap - a), paths))
        for key, x in x_terminal.items():
            ce_boot[key][a:a + len(boot_idx)] = _certainty_equivalents(x, boot_idx, gamma)

    cells: dict[tuple[float, float], UtilityCell] = {}
    for kappa in kappas:
        for c in multipliers:
            cand, key = (kappa, 1.0), (kappa, c)
            lo, hi = np.percentile(ce_boot[key], [2.5, 97.5])
            glo, ghi = np.percentile(ce_boot[cand] - ce_boot[key], [2.5, 97.5])
            cells[key] = UtilityCell(c, ce_point[key], float(lo), float(hi),
                                     ce_point[cand] - ce_point[key],
                                     float(glo), float(ghi))

    frictionless = x0 + mu**2 * horizon / (2.0 * gamma * sigma**2)
    return UtilityReport(kappas, multipliers, cells, frictionless)
