"""High-resilience limit experiments and empirical convergence-rate fits.

Every experiment runs a kappa ladder on one shared grid that its caller
sizes for the largest ladder point (``ladder_grid``), so the same fundamental
path (one RNG stream per Monte-Carlo path) is fed to every kappa: differences
across the ladder then reflect the resilience, not sampling noise.

Wealth along a path is linear in the fundamental-price increments once the
strategy and book coefficients are fixed (the coefficients are sampled
paths, never functions of the price).  Lemma-jump and utility share one core
that exploits this, ``_terminal_values``: each cell is evaluated once on the
drift-only price path and ``sigma * position @ dW`` is added per path, which
reproduces per-path engine evaluation exactly for additive fundamentals with
time-only coefficients.

Monte-Carlo work is cut into independent items, each of which fills its
own part of a float64 result array (``shared_empty``): the chunks of paths
that tracker-bound's fused pass and ``_terminal_values`` draw
(``_noise_chunks``), and the utility bootstrap's (kappa, multiplier) cells.
``_spread`` shares them among one process per CPU that the run may use; an
item's values do not depend on where it ran, so neither does any result.

The gap kinds (theorem1, remark1, l2) all run ``theorem1_experiment``:
remark1 passes ``rate_growth=0.25`` and l2 checks its bounds before it.
They take no price model and draw no noise.  Both engines book the same gain,
the same baseline-spread cost and, for the block-free strategies they admit,
no block cost, so X_ow - X_ac is the difference of their impact costs.  Those
depend only on the book and the trading rate, not on the price path or the
initial position, so the gap is computed once per kappa on a flat price path.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, replace
from typing import Callable, NoReturn, Sequence

import numpy as np

from .book import BookParams
from .paths import (IndexStream, SampledPath, TimeGrid, _ndtri, as_path, constant_path,
                    normals_block)
from .strategies import Strategy, check_tracker, exponential_tracker, smooth_blocks
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
    def geometric(cls, start: float, factor: float, count: int) -> "KappaLadder":
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

    def sigma_steps(self, grid: TimeGrid) -> np.ndarray:
        """sigma at each step's left point; refuses it negative at any point."""
        sig = as_path(grid, self.sigma).values
        if np.any(sig < 0):
            raise ValueError("sigma must be nonnegative")
        return sig[:-1]

    def mean_path(self, grid: TimeGrid) -> SampledPath:
        values = np.empty(grid.n_points)
        values[0] = self.s0
        np.cumsum(as_path(grid, self.mu).values[:-1] * grid.dt, out=values[1:])
        values[1:] += self.s0
        return SampledPath(grid, values)

    def add_noise(self, mean: SampledPath, sigma: np.ndarray, seed: int,
                  stream: int = 0) -> SampledPath:
        """``mean``, this model's mean path, plus in place the noise of stream
        ``stream`` of ``seed`` at the per-step volatilities ``sigma``, drawn
        like every Monte-Carlo path; a deterministic fundamental draws nothing."""
        if not self.is_deterministic:
            dw = brownian_increments(mean.grid, seed, 1, stream)[:, 0]
            mean.values[1:] += np.cumsum(sigma * dw)
        return SampledPath(mean.grid, mean.values)

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


def _workers(items: int) -> int:
    """Processes that share ``items`` work items: one per CPU in this
    process's affinity mask, at most one per item, and 1 where ``os.fork`` or
    ``os.sched_getaffinity`` does not exist."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(items, len(os.sched_getaffinity(0))))


def shared_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float64 array of ``shape`` in a shared anonymous
    mapping, which the workers that ``_spread`` forks later write into and
    ``tracemalloc`` does not trace.  A mapping that cannot be made raises
    ``MemoryError``, as ``np.empty`` does."""
    import mmap  # only Monte-Carlo runs map their results
    try:  # a mapping needs at least one byte
        buffer = mmap.mmap(-1, max(8 * math.prod(shape), 1))
    except (OSError, OverflowError) as exc:
        raise MemoryError(f"Unable to allocate a shared array with shape {shape}: {exc}") from None
    return np.ndarray(shape, np.float64, buffer)


def _serve(fd: int, work: Callable[[Sequence], None], items: Sequence) -> NoReturn:
    """A worker's life: ``work(items)``, then its outcome written to ``fd``,
    ``None`` or the exception that ``work`` raised, pickled.  The process ends
    through ``os._exit``, so it never returns into its parent's code or
    flushes the parent's stdio."""
    outcome = None
    try:
        with open(fd, "wb") as pipe:
            try:
                work(items)
            except BaseException as exc:  # sent to the parent, which raises it
                outcome = exc
            pickle.dump(outcome, pipe)
    finally:
        os._exit(0)


def _spread(items: Sequence, work: Callable[[Sequence], None]) -> None:
    """Run ``work`` over ``items``: ``work(some)`` fills, for each item of
    ``some``, its own part of arrays that the caller made with
    ``shared_empty``.

    With W = ``_workers(len(items))``, item k goes to worker k mod W.  This
    process is worker 0: it forks the others, runs ``work`` on its own items,
    and then reads each worker's outcome from a pipe.  An exception a worker
    raised is raised here, and a worker that ended without an outcome raises
    ``ChildProcessError``; if anything raises here, the workers are killed.
    Every worker is reaped before this returns.
    """
    count = _workers(len(items))
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    done = False
    try:
        for w in range(1, count):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _serve(write, work, items[w::count])
            os.close(write)
            children.append((pid, read))
        work(items[::count])
        for _, read in children:
            with open(read, "rb", closefd=False) as pipe:
                try:  # nothing sent, or a pickle cut short: the worker was killed
                    outcome = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    raise ChildProcessError("a worker process ended before it reported") from None
            if outcome is not None:
                raise outcome
        done = True
    finally:
        for pid, read in children:
            os.close(read)
            if not done:
                import signal  # only a failed run kills workers, and imports it
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _noise_chunks(grid: TimeGrid, paths: int, seed: int,
                  use: Callable[[int, int, np.ndarray], None]) -> None:
    """``use(first, stop, increments of streams first..stop-1)`` for
    consecutive stream ranges covering 0..paths-1, each of
    ``paths_per_chunk(grid.steps)`` paths but the last; ``use`` fills the
    chunk's columns of shared result arrays and may change the increments
    in place.  The chunks are shared among the workers (``_spread``); each
    is drawn when its turn comes and freed once ``use`` returns."""
    size = paths_per_chunk(grid.steps)
    chunks = [(a, min(a + size, paths)) for a in range(0, paths, size)]

    def work(some):
        for a, b in some:
            use(a, b, brownian_increments(grid, seed, b - a, a))
    _ndtri()  # loaded before the workers fork, so that none loads it again
    _spread(chunks, work)


def _terminal_values(cells: list[tuple[float, np.ndarray]], sigma: np.ndarray | None,
                     grid: TimeGrid, paths: int, seed: int) -> np.ndarray:
    """(len(cells), paths) terminal values ``x + (sigma * w) @ dW`` of the
    cells (x, w): a terminal value on the drift-only price path and the
    position weights of the price increments.  Noise is drawn iff the per-step
    volatilities ``sigma`` are not None."""
    values = shared_empty((len(cells), paths))
    values[...] = [[x] for x, _ in cells]
    if sigma is not None:
        def add_noise(a, b, dw):
            for j, (_, w) in enumerate(cells):
                values[j, a:b] += (sigma * w) @ dw
        _noise_chunks(grid, paths, seed, add_noise)
    return values


def ladder_grid(horizon: float, n0: int, resolution_scale: float,
                kappa_max: float) -> TimeGrid:
    """One grid per ladder, fine enough for the largest kappa's boundary layer."""
    steps = max(int(n0), math.ceil(resolution_scale * math.sqrt(kappa_max)))
    return TimeGrid(horizon, steps)


def fit_rate(points: Sequence[tuple[float, float]]) -> float | None:
    """Slope of the least-squares fit of log(error) against log(kappa).

    Nonpositive errors are excluded (they carry no rate information); fewer
    than three usable points give None.
    """
    usable = [(k, e) for k, e in points if e > 0]
    if len(usable) < 3:
        return None
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

    @property
    def kappa_x_err(self) -> np.ndarray:
        return self.kappas * self.mean_err

    def _slope_through(self, rungs: int) -> float | None:
        """Rate fitted to the first ``rungs`` rungs; None while it cannot be fitted."""
        return fit_rate(list(zip(self.kappas[:rungs], self.mean_err[:rungs])))

    @property
    def slope(self) -> float | None:
        return self._slope_through(len(self.kappas))

    def table(self) -> dict:
        """Columns of ``convergence.csv``; ``slope_so_far`` is empty while the
        rungs so far give no rate."""
        so_far = map(self._slope_through, range(1, len(self.kappas) + 1))
        return {"kappa": self.kappas, "mean_err": self.mean_err, "p95_err": self.mean_err,
                "kappa_x_err": self.kappa_x_err,
                "slope_so_far": ["" if s is None else repr(s) for s in so_far]}


def rung_strategy(base: Strategy, kappa: float, rate_growth: float) -> Strategy:
    """``base`` with its rate scaled by kappa**rate_growth; kappa**0.0 is 1.0,
    so a fixed rate passes through bit for bit."""
    return Strategy(base.grid, SampledPath(base.grid, kappa**rate_growth * base.rate.values),
                    base.blocks)


def theorem1_experiment(book: BookParams, base: Strategy, ladder: KappaLadder, *,
                        rate_growth: float = 0.0) -> ConvergenceReport:
    """Gap e(kappa) = sup_t |X_ow - X_ac| between structural and reduced-form
    wealth for the rate kappa**rate_growth times the block-free ``base``
    strategy's rate, at every ladder rung, on ``book`` at the rung's kappa.

    The gap is the same on every price path, so it is also its L2 norm over
    paths.  Theorem 1 (``rate_growth=0``): kappa * e(kappa) vanishes, one order
    faster for smooth rates.  Remark 1 (``rate_growth=0.25``): sqrt(kappa) *
    e(kappa) still vanishes.
    """
    price = constant_path(base.grid, 0.0)
    errs = []
    for kappa in ladder:
        rung_book = replace(book, kappa=kappa)
        strat = rung_strategy(base, kappa, rate_growth)  # Evaluation.ac refuses blocks
        gap = (ac_wealth(rung_book, strat, price).impact_cost.values
               - ow_wealth(rung_book, strat, price).impact_cost.values)
        errs.append(float(np.max(np.abs(gap))))
    return ConvergenceReport(np.asarray(ladder.values), np.asarray(errs))


def check_uniform_bounds(book: BookParams, strategy: Strategy, rate_bound: float,
                         coefficient_bound: float, resilience_floor: float) -> None:
    """Refuse an L2-mode run whose strategy rate or book coefficients leave
    their declared uniform bounds."""
    # the coefficients do not depend on kappa: one book covers every rung
    if np.any(np.abs(strategy.rate_steps) > rate_bound):
        raise ValueError("strategy rate exceeds its declared uniform bound")
    if np.any(book.K_up.values < resilience_floor) or np.any(book.K_dn.values < resilience_floor):
        raise ValueError("resilience shape falls below its declared floor")
    coeffs = [
        (1.0 - book.alpha_up.values) / book.h_up.values,
        (1.0 - book.alpha_dn.values) / book.h_dn.values,
        book.alpha_up.values / book.h_up.values,
        book.alpha_dn.values / book.h_dn.values,
        book.eps_up.values, book.eps_dn.values,
    ]
    if any(np.any(np.abs(c) > coefficient_bound) for c in coeffs):
        raise ValueError("book coefficient exceeds its declared uniform bound")


@dataclass
class LemmaJumpReport:
    """Terminal-payoff gains of smoothed block strategies over the blocks."""

    kappas: np.ndarray
    mean_diff: np.ndarray
    frac_positive: np.ndarray
    diffs: np.ndarray  # (n_kappa, paths)

    def table(self) -> dict:
        """Columns of ``lemma.csv``."""
        return {"kappa": self.kappas, "mean_diff": self.mean_diff,
                "frac_positive": self.frac_positive}


def lemma_jump_experiment(book: BookParams, block_strategy: Strategy,
                          mean_fund: SampledPath, sigma: np.ndarray | None, ladder: KappaLadder,
                          *, windows: Sequence[list], paths: int, seed: int) -> LemmaJumpReport:
    """Pathwise terminal difference D(kappa) between each block strategy and
    its linearly smoothed version, under common noise at volatilities ``sigma`` (None: none),
    on ``book`` at each rung's kappa.

    The smoothed strategies trade the same volumes over each rung's
    ``windows`` (``smoothing_windows``, of width width_scale * kappa^(-1/4));
    for large resilience their payoffs dominate the block payoffs.
    """
    if not block_strategy.has_blocks:
        raise ValueError("lemma experiment requires a nonzero block strategy")
    grid = block_strategy.grid
    # every rung's deterministic gap and position weights, then the noise
    cells = []
    for kappa, rung_windows in zip(ladder, windows, strict=True):
        rung_book = replace(book, kappa=kappa)
        smoothed = smooth_blocks(block_strategy, rung_windows)
        x_sm, w_sm = Evaluation(rung_book, smoothed, mean_fund).terminal()
        x_bl, w_bl = Evaluation(rung_book, block_strategy, mean_fund).terminal()
        cells.append((x_sm - x_bl, w_sm - w_bl))
    diffs = _terminal_values(cells, sigma, grid, paths, seed)
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

    def table(self) -> dict:
        """Columns of ``tracker.csv``."""
        return {"kappa": self.kappas, "estimate": self.estimates, "stderr": self.stderrs,
                "bound": np.full(len(self.kappas), self.bound),
                "within_bound": ["true" if w else "false" for w in self.within]}


def tracker_bound_inputs(grid: TimeGrid, target_drift, target_vol, rate_scale,
                         coeff_bound: float, rate_floor: float,
                         paths: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The target's drift and volatility, the tracking-rate scale on ``grid``
    and the bound 5 * C**2 * T / M_floor; refuses < 2 paths, a coefficient
    above C or a rate scale below M_floor at a grid point, and an inf bound."""
    if paths < 2:
        raise ValueError(f"tracker-bound needs at least 2 paths for its standard "
                         f"errors (mc.paths), got {paths}")
    mu, sig, m = (as_path(grid, c).values for c in (target_drift, target_vol, rate_scale))
    if np.any(np.abs(mu) > coeff_bound) or np.any(np.abs(sig) > coeff_bound):
        raise ValueError("target coefficients exceed the declared bound")
    if np.any(m < rate_floor):
        raise ValueError("tracking rate falls below its declared floor")
    try:
        bound = 5.0 * coeff_bound**2 * grid.horizon / rate_floor
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ValueError(f"tracker-bound needs a finite bound 5 * coeff_bound**2 * T / "
                         f"rate_floor, got coeff_bound={coeff_bound!r}, T={grid.horizon!r}, "
                         f"rate_floor={rate_floor!r}")
    return mu, sig, m, bound


def tracker_bound_experiment(ladder: KappaLadder, grid: TimeGrid, inputs: tuple, *,
                             target0: float, paths: int, seed: int) -> TrackerBoundReport:
    """Estimate E[sup_t kappa^(1/2) |target_t - tracker_t|^2] per kappa on ``grid``.

    The target is an Ito process from ``target0`` with ``inputs``'
    coefficients (``tracker_bound_inputs``); the estimate must stay below
    their bound 5 * C^2 * T / M_floor (within three Monte-Carlo standard
    errors) uniformly in kappa.
    """
    mu, sig, m, bound = inputs
    # (steps, rungs, 1) decays, each the float64 relax_positions computes
    decays = np.array([np.exp(-math.sqrt(k) * m[:-1] * grid.dt) for k in ladder]).T[:, :, None]
    sup2 = shared_empty((len(ladder), paths))

    def relax(a, b, increments):
        # one pass over time: the running sum repeats np.cumsum's adds, and
        # each rung's row takes relax_positions' (pos - target) * decay + target
        increments *= sig[:-1, None]
        increments += (mu[:-1] * grid.dt)[:, None]
        total, target = np.zeros(b - a), np.full(b - a, float(target0))
        pos = np.full((len(ladder), b - a), float(target0))
        err2, sup = np.empty_like(pos), np.zeros_like(pos)
        for inc, decay in zip(increments, decays):
            pos -= target
            pos *= decay
            pos += target
            total += inc
            np.add(total, target0, out=target)
            np.subtract(pos, target, out=err2)
            np.square(err2, out=err2)
            np.maximum(sup, err2, out=sup)
        np.multiply(np.sqrt(ladder.values)[:, None], sup, out=sup2[:, a:b])
    _noise_chunks(grid, paths, seed, relax)

    estimates = sup2.mean(axis=1)
    stderrs = sup2.std(axis=1, ddof=1) / math.sqrt(paths)
    within = estimates <= bound + 3.0 * stderrs
    return TrackerBoundReport(np.asarray(list(ladder)), estimates, stderrs, bound, within)


@dataclass
class UtilityReport:
    """Certainty equivalents of trackers at competing speed multipliers, with
    bootstrap 95% intervals, as (kappa, multiplier) arrays.  A gap is the
    candidate's (multiplier 1) value minus the cell's."""

    kappas: tuple[float, ...]
    multipliers: tuple[float, ...]
    ce: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    gap_vs_candidate: np.ndarray
    gap_ci_low: np.ndarray
    gap_ci_high: np.ndarray
    frictionless_ce: float

    @property
    def candidate_ce(self) -> np.ndarray:
        """The candidate's certainty equivalent per kappa."""
        return self.ce[:, self.multipliers.index(1.0)]

    def table(self) -> dict:
        """Columns of ``utility.csv``: one row per (kappa, multiplier) cell."""
        return {"kappa": np.repeat(self.kappas, len(self.multipliers)),
                "multiplier": np.tile(self.multipliers, len(self.kappas)),
                "ce": self.ce.ravel(), "ci_low": self.ci_low.ravel(),
                "ci_high": self.ci_high.ravel(),
                "ce_gap_vs_candidate": self.gap_vs_candidate.ravel(),
                "gap_ci_low": self.gap_ci_low.ravel(), "gap_ci_high": self.gap_ci_high.ravel()}


# Bootstrap resamples gathered at once: about 2**16 float64 values (512 KiB).
_CE_CHUNK_ELEMENTS = 1 << 16


def resamples_per_chunk(paths: int) -> int:
    """Bootstrap resamples of ``paths`` samples drawn and gathered together."""
    return max(1, _CE_CHUNK_ELEMENTS // paths)


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


# The quantiles of the utility's bootstrap intervals, as fractions.
_INTERVAL_Q = np.array([2.5, 97.5]) / 100


def _interval(samples: np.ndarray) -> np.ndarray:
    """(2, rows) 2.5% and 97.5% percentiles of each row of the (rows, n)
    ``samples``, which it reorders in place: np.percentile's default
    ("linear") method, bit for bit, without its np.unique call, which imports
    numpy.ma (1.1 MiB of RSS) on first use."""
    n = samples.shape[-1]
    virtual = (n - 1) * _INTERVAL_Q
    below = np.floor(virtual)
    above = below + 1
    below[virtual >= n - 1] = above[virtual >= n - 1] = -1  # one sample: that sample
    below, above = below.astype(np.intp), above.astype(np.intp)
    samples.partition(sorted({0, n - 1, *(below % n).tolist(), *(above % n).tolist()}))
    a, b = samples[:, below].T, samples[:, above].T
    t = (virtual - below)[:, None]
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    # a row holding NaN has it last after partition; numpy gives that NaN
    np.copyto(out, samples[:, -1], where=np.isnan(samples[:, -1]))
    return out


def utility_trackers(book: BookParams, fundamental: FundamentalSpec, gamma: float,
                     multipliers: tuple[float, ...],
                     x0: float) -> tuple[SampledPath, list[SampledPath], float]:
    """The utility experiment's inputs on ``book``'s grid: the frictionless
    optimal position mu / (gamma * sigma**2) as the trackers' target path,
    their rate scales c * sqrt(K h sigma**2 gamma / 2), one per multiplier c,
    and the frictionless certainty equivalent x0 + mu**2 * T /
    (2 * gamma * sigma**2).  Refuses a book with a baseline spread, permanent
    impact or two sides, either frictionless value outside the float range,
    and a rate scale that underflows to 0 at the book's kappa
    (``check_tracker``)."""
    if np.any(book.eps_up.values != 0) or np.any(book.eps_dn.values != 0):
        raise ValueError("utility experiment requires zero baseline spreads")
    if np.any(book.alpha_up.values != 0) or np.any(book.alpha_dn.values != 0):
        raise ValueError("utility experiment requires zero permanent impact")
    if not book.is_symmetric():
        raise ValueError("utility experiment requires a symmetric book")
    grid = book.grid
    mu, sigma, horizon = float(fundamental.mu), float(fundamental.sigma), grid.horizon
    try:
        target_pos = mu / (gamma * sigma**2)
        frictionless = x0 + mu**2 * horizon / (2.0 * gamma * sigma**2)
    except (ZeroDivisionError, OverflowError):  # sigma**2 underflows to 0, or a power overflows
        target_pos = frictionless = math.nan
    if not (math.isfinite(target_pos) and math.isfinite(frictionless)):
        raise ValueError(f"utility experiment needs sigma**2 within the float range and a "
                         f"finite frictionless position mu / (gamma * sigma**2) and certainty "
                         f"equivalent x0 + mu**2 * T / (2 * gamma * sigma**2), got mu={mu!r}, "
                         f"gamma={gamma!r}, sigma={sigma!r}, x0={x0!r}, T={horizon!r}")
    target = constant_path(grid, target_pos)
    m_base = np.sqrt(book.K_up.values * book.h_up.values * sigma**2 * gamma / 2.0)
    scales = [SampledPath(grid, c * m_base) for c in multipliers]
    for scale in scales:
        check_tracker(target, scale, book.kappa)
    return target, scales, frictionless


def utility_experiment(book: BookParams, trackers: tuple, mean_fund: SampledPath,
                       sigma: np.ndarray, ladder: KappaLadder, *, gamma: float,
                       multipliers: Sequence[float], paths: int, seed: int, x0: float,
                       bootstrap: int) -> UtilityReport:
    """Compare certainty equivalents of trackers with speeds c * sqrt(kappa) * M
    (``utility_trackers``' ``trackers`` for ``multipliers``) on ``book`` at
    every rung's kappa.

    Setup: exponential utility with absolute risk aversion ``gamma``, constant
    drift/volatility fundamental, and a frictionless-baseline symmetric book
    (no baseline spread, no permanent impact).  The frictionless optimal
    position mu / (gamma * sigma^2) is then constant; trackers start from a
    flat position so that speed trades off impact cost against displacement.
    The closed-form optimal speed corresponds to multiplier 1.  The run
    config's schema refuses every other gamma, multipliers, mu and sigma.
    """
    multipliers = tuple(float(c) for c in multipliers)
    target, scales, frictionless = trackers
    grid = mean_fund.grid
    cells = []
    for kappa in ladder:
        rung_book = replace(book, kappa=kappa)
        for scale in scales:
            strat = exponential_tracker(target, scale, kappa, start=0.0)
            cells.append(Evaluation(rung_book, strat, mean_fund).terminal(x0))
    x_terminal = _terminal_values(cells, sigma, grid, paths, seed)

    shape = (len(ladder), len(multipliers))
    cand = multipliers.index(1.0)
    every_path = np.arange(paths)[None, :]
    ce = np.array([_certainty_equivalents(x, every_path, gamma)[0]
                   for x in x_terminal]).reshape(shape)

    # resampled CEs, (kappa, multiplier, resample); the cells' rows are
    # shared among the workers (``_spread``), and each draws the resample
    # indices a chunk of rows at a time from one stream, the same integers
    # as one (bootstrap, paths) draw
    boot = shared_empty((*shape, bootstrap))
    cell_rows, rows = boot.reshape(len(cells), bootstrap), resamples_per_chunk(paths)

    def resample(some):
        indices = IndexStream(seed, _BOOTSTRAP_STREAM, paths)
        for a in range(0, bootstrap, rows):
            boot_idx = indices.take(min(rows, bootstrap - a) * paths).reshape(-1, paths)
            for c in some:
                cell_rows[c, a:a + len(boot_idx)] = _certainty_equivalents(
                    x_terminal[c], boot_idx, gamma)
    _spread(range(len(cells)), resample)
    del x_terminal  # unmapped before the intervals, which read only the resamples
    # (2.5%, 97.5%) percentiles, (2, kappa, multiplier), of the CEs and of
    # their gaps vs the candidate; one kappa's gap rows exist at a time
    ci, gap_ci = np.empty((2, 2, *shape))
    gaps = np.empty(shape[1:] + (bootstrap,))
    for k, kappa_boot in enumerate(boot):
        np.subtract(kappa_boot[cand], kappa_boot, out=gaps)
        gap_ci[:, k] = _interval(gaps)
        ci[:, k] = _interval(kappa_boot)
    return UtilityReport(ladder.values, multipliers, ce, *ci, ce[:, cand, None] - ce, *gap_ci,
                         frictionless)
