"""Shared helpers for the test suite."""

from __future__ import annotations

import csv
import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple, Sequence

import numpy as np

from lobres import (BookParams, FundamentalSpec, KappaLadder, NumericFailure, RandomSource,
                    ReferencePricePath, SampledPath, SpreadPaths, Strategy, TimeGrid, WealthPath,
                    position_paths, rate_strategy)
from lobres import experiments
from lobres.book import _check_grids, evolve_book
from lobres.experiments import (_BOOTSTRAP_STREAM, LemmaJumpReport, TrackerBoundReport,
                                UtilityReport, _certainty_equivalents, brownian_increments,
                                lemma_jump_experiment, tracker_bound_experiment,
                                tracker_bound_inputs, utility_experiment, utility_trackers)
from lobres.wealth import _accumulate
from lobres.strategies import exponential_tracker, smooth_blocks, smoothing_windows


def run_python(code: str, timeout: float = 60) -> str:
    """Standard output of ``code`` run by a fresh interpreter that imports
    this checkout's lobres; a nonzero exit raises."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=timeout, check=True).stdout


def force_workers(monkeypatch, count: int) -> None:
    """Share every list of Monte-Carlo work items among ``count`` processes,
    at most one per item, whatever CPUs this process may use."""
    monkeypatch.setattr(experiments, "_workers", lambda items: max(1, min(items, count)))


def count_shared_bytes(monkeypatch) -> list[int]:
    """The list to which the bytes of every array that
    ``experiments.shared_empty`` maps from now on are appended: the results
    that ``tracemalloc`` does not trace."""
    sizes, original = [], experiments.shared_empty

    def counted(shape):
        out = original(shape)
        sizes.append(out.nbytes)
        return out
    monkeypatch.setattr(experiments, "shared_empty", counted)
    return sizes


def reference_constant_path(grid: TimeGrid, c: float) -> SampledPath:
    """Path equal to c at every grid point."""
    if not math.isfinite(c):
        raise NumericFailure(f"constant path value must be finite, got {c!r}")
    return SampledPath(grid, np.full(grid.n_points, float(c)))


def random_strategy(grid, rng, rate_scale=2.0, n_blocks=4, phi0=0.0):
    rate = SampledPath(grid, rng.normal(0.0, rate_scale, grid.n_points))
    idx = np.sort(rng.choice(grid.n_points, size=n_blocks, replace=False))
    sizes = rng.normal(0.0, 1.0, n_blocks)
    blocks = tuple((int(i), float(s)) for i, s in zip(idx, sizes) if s != 0.0)
    return Strategy(grid, rate, blocks, phi0)


def reference_evolve_book(params, strategy):
    """Per-step loop over numpy elements: the reference for ``evolve_book``,
    which must reproduce every value of it bit for bit, pre- and post-jump
    states alike."""
    from lobres.book import _check_grids, _phi1, _phi2

    _check_grids(params, strategy)
    grid = params.grid
    n = grid.steps
    dt = grid.dt

    r = strategy.rate.values[:n]
    r_up = np.maximum(r, 0.0)
    r_dn = np.maximum(-r, 0.0)

    k_up = params.K_up.values[:n]
    k_dn = params.K_dn.values[:n]
    inv_h_up = 1.0 / params.h_up.values
    inv_h_dn = 1.0 / params.h_dn.values
    a_up = params.alpha_up.values
    a_dn = params.alpha_dn.values

    z_up = params.kappa * k_up * dt
    z_dn = params.kappa * k_dn * dt
    decay_up = np.exp(-z_up)
    decay_dn = np.exp(-z_dn)
    w1_up = dt * _phi1(z_up)
    w1_dn = dt * _phi1(z_dn)
    w2_up = dt * dt * _phi2(z_up)
    w2_dn = dt * dt * _phi2(z_dn)

    b_up = (1.0 - a_up[:n]) * inv_h_up[:n] * r_up + a_dn[:n] * inv_h_dn[:n] * r_dn
    b_dn = (1.0 - a_dn[:n]) * inv_h_dn[:n] * r_dn + a_up[:n] * inv_h_up[:n] * r_up
    g = a_up[:n] * inv_h_up[:n] * r_up - a_dn[:n] * inv_h_dn[:n] * r_dn

    blocks = dict(strategy.blocks)

    exc_up_pre = np.zeros(n + 1)
    exc_up_post = np.zeros(n + 1)
    exc_dn_pre = np.zeros(n + 1)
    exc_dn_post = np.zeros(n + 1)
    exc_up_int = np.zeros(n)
    exc_dn_int = np.zeros(n)
    perm_pre = np.zeros(n + 1)
    perm_post = np.zeros(n + 1)

    eu = ed = pm = 0.0
    for i in range(n + 1):
        exc_up_pre[i] = eu
        exc_dn_pre[i] = ed
        perm_pre[i] = pm
        theta = blocks.get(i)
        if theta is not None:
            if theta > 0:
                eu += (1.0 - a_up[i]) * inv_h_up[i] * theta
                ed += a_up[i] * inv_h_up[i] * theta
                pm += a_up[i] * inv_h_up[i] * theta
            else:
                size = -theta
                ed += (1.0 - a_dn[i]) * inv_h_dn[i] * size
                eu += a_dn[i] * inv_h_dn[i] * size
                pm -= a_dn[i] * inv_h_dn[i] * size
        exc_up_post[i] = eu
        exc_dn_post[i] = ed
        perm_post[i] = pm
        if i < n:
            exc_up_int[i] = eu * w1_up[i] + b_up[i] * w2_up[i]
            exc_dn_int[i] = ed * w1_dn[i] + b_dn[i] * w2_dn[i]
            eu = eu * decay_up[i] + b_up[i] * w1_up[i]
            ed = ed * decay_dn[i] + b_dn[i] * w1_dn[i]
            pm = pm + g[i] * dt

    return SimpleNamespace(exc_up_pre=exc_up_pre, exc_up_post=exc_up_post,
                           exc_dn_pre=exc_dn_pre, exc_dn_post=exc_dn_post,
                           exc_up_int=exc_up_int, exc_dn_int=exc_dn_int,
                           perm_pre=perm_pre, perm_post=perm_post)


# The per-projection engines that ``lobres.wealth.Evaluation`` replaced, kept
# verbatim as its references: each runs its own input checks, its own book
# scan and its own ledger, and every projection of the evaluation must equal
# theirs byte for byte.


def _check_inputs(book: BookParams, strategy: Strategy, fundamental: SampledPath) -> None:
    if book.grid != strategy.grid:
        raise ValueError("strategy and book must share a grid")
    if fundamental.grid != book.grid:
        raise ValueError("fundamental price lives on a different grid")


@dataclass
class _Ledger:
    """Per-step and per-event wealth contributions shared by the engines."""

    gain_steps: np.ndarray
    perm_gain_steps: np.ndarray
    spread_steps: np.ndarray
    gain_events: np.ndarray
    spread_events: np.ndarray
    impact_events: np.ndarray
    qv_events: np.ndarray
    ref_post: np.ndarray
    ref_pre: np.ndarray
    g: np.ndarray


def _build_ledger(book: BookParams, strategy: Strategy, fundamental: SampledPath,
                  state) -> _Ledger:
    n = book.grid.steps
    dt = book.grid.dt
    r = strategy.rate_steps
    r_up = np.maximum(r, 0.0)
    r_dn = np.maximum(-r, 0.0)
    a_up = book.alpha_up.values
    a_dn = book.alpha_dn.values
    h_up = book.h_up.values
    h_dn = book.h_dn.values
    eps_up = book.eps_up.values
    eps_dn = book.eps_dn.values

    pre_pos, post_pos = position_paths(strategy)
    ds = np.diff(fundamental.values)
    g = a_up[:n] / h_up[:n] * r_up - a_dn[:n] / h_dn[:n] * r_dn

    # position held while its own permanent impact accrues: the trade is
    # spread uniformly over the step, hence the r*dt/2 midpoint term
    perm_gain_steps = g * (post_pos[:n] * dt + r * dt * dt / 2.0)
    gain_steps = perm_gain_steps + pre_pos[1:] * ds
    spread_steps = (r_up * eps_up[:n] + r_dn * eps_dn[:n]) * dt

    gain_events = np.zeros(n + 1)
    spread_events = np.zeros(n + 1)
    impact_events = np.zeros(n + 1)
    qv_events = np.zeros(n + 1)
    for idx, theta in strategy.blocks:
        gain_events[idx] = pre_pos[idx] * (state.perm_post[idx] - state.perm_pre[idx])
        if theta > 0:
            spread_events[idx] = theta * eps_up[idx]
            impact_events[idx] = theta * state.exc_up_pre[idx]
            qv_events[idx] = (0.5 - a_up[idx]) / h_up[idx] * theta * theta
        else:
            size = -theta
            spread_events[idx] = size * eps_dn[idx]
            impact_events[idx] = size * state.exc_dn_pre[idx]
            qv_events[idx] = (0.5 - a_dn[idx]) / h_dn[idx] * theta * theta

    return _Ledger(
        gain_steps=gain_steps,
        perm_gain_steps=perm_gain_steps,
        spread_steps=spread_steps,
        gain_events=gain_events,
        spread_events=spread_events,
        impact_events=impact_events,
        qv_events=qv_events,
        ref_post=fundamental.values + state.perm_post,
        ref_pre=fundamental.values + state.perm_pre,
        g=g,
    )


def ow_wealth(book: BookParams, strategy: Strategy, fundamental: SampledPath,
              x0: float = 0.0) -> WealthPath:
    """Wealth in the structural model: position gains at the reference price
    minus baseline-spread, transient-impact, and block-execution costs."""
    _check_inputs(book, strategy, fundamental)
    n = book.grid.steps
    r = strategy.rate_steps
    state = evolve_book(book, strategy)
    led = _build_ledger(book, strategy, fundamental, state)

    impact_steps = (np.maximum(r, 0.0) * state.exc_up_int
                    + np.maximum(-r, 0.0) * state.exc_dn_int)

    zeros = np.zeros(n + 1)
    gain = _accumulate(0.0, led.gain_steps, led.gain_events)
    spread = _accumulate(0.0, led.spread_steps, led.spread_events)
    impact = _accumulate(0.0, impact_steps, led.impact_events)
    blockc = _accumulate(0.0, zeros[:n], led.qv_events)
    perm = _accumulate(0.0, led.perm_gain_steps, led.gain_events)
    x = x0 + gain - spread - impact - blockc

    grid = book.grid
    return WealthPath(grid, SampledPath(grid, x), SampledPath(grid, gain),
                      SampledPath(grid, spread), SampledPath(grid, impact),
                      SampledPath(grid, blockc), SampledPath(grid, perm))


def safe_account(book: BookParams, strategy: Strategy, fundamental: SampledPath,
                 x0: float = 0.0) -> SampledPath:
    """Cash account from the self-financing condition, so that wealth equals
    safe account + position * reference price.  Every purchase pays the
    pre-trade reference plus the pre-trade spread plus half its own impact
    (blocks: size^2 / 2h; rate trades: the exact frozen-coefficient average),
    sales symmetrically."""
    _check_inputs(book, strategy, fundamental)
    n = book.grid.steps
    dt = book.grid.dt
    r = strategy.rate_steps
    state = evolve_book(book, strategy)
    led = _build_ledger(book, strategy, fundamental, state)

    impact_steps = (np.maximum(r, 0.0) * state.exc_up_int
                    + np.maximum(-r, 0.0) * state.exc_dn_int)
    step_terms = (-r * dt * led.ref_post[:n] - led.g * r * dt * dt / 2.0
                  - led.spread_steps - impact_steps)

    event_terms = np.zeros(n + 1)
    for idx, theta in strategy.blocks:
        half_impact = theta * theta / (2.0 * (book.h_up.values[idx] if theta > 0
                                              else book.h_dn.values[idx]))
        event_terms[idx] = (-theta * led.ref_pre[idx]
                            - led.spread_events[idx] - led.impact_events[idx]
                            - half_impact)

    acct = _accumulate(x0 - strategy.phi0 * fundamental.values[0], step_terms, event_terms)
    return SampledPath(book.grid, acct)


def ac_wealth(book: BookParams, strategy: Strategy, fundamental: SampledPath,
              x0: float = 0.0) -> WealthPath:
    """Wealth in the reduced-form model: linear baseline-spread costs plus
    quadratic turnover costs lambda = (1 - alpha) / (kappa * K * h), with the
    reference price shifted by alpha / h per unit traded.

    Only absolutely continuous strategies are admissible; blocks are rejected.
    """
    _check_inputs(book, strategy, fundamental)
    if strategy.has_blocks:
        raise ValueError("reduced-form wealth is defined for block-free strategies")
    n = book.grid.steps
    dt = book.grid.dt
    r = strategy.rate_steps
    r_up = np.maximum(r, 0.0)
    r_dn = np.maximum(-r, 0.0)
    state = evolve_book(book, strategy)
    led = _build_ledger(book, strategy, fundamental, state)

    lam_up = (1.0 - book.alpha_up.values[:n]) / (book.kappa * book.K_up.values[:n]
                                                 * book.h_up.values[:n])
    lam_dn = (1.0 - book.alpha_dn.values[:n]) / (book.kappa * book.K_dn.values[:n]
                                                 * book.h_dn.values[:n])
    impact_steps = (lam_up * r_up ** 2 + lam_dn * r_dn ** 2) * dt

    zeros = np.zeros(n + 1)
    gain = _accumulate(0.0, led.gain_steps, zeros)
    spread = _accumulate(0.0, led.spread_steps, zeros)
    impact = _accumulate(0.0, impact_steps, zeros)
    blockc = np.zeros(n + 1)
    perm = _accumulate(0.0, led.perm_gain_steps, zeros)
    x = x0 + gain - spread - impact

    grid = book.grid
    return WealthPath(grid, SampledPath(grid, x), SampledPath(grid, gain),
                      SampledPath(grid, spread), SampledPath(grid, impact),
                      SampledPath(grid, blockc), SampledPath(grid, perm))


def evolve_spreads(params: BookParams, strategy: Strategy) -> SpreadPaths:
    """Bid/ask spread paths for a strategy (baseline plus transient excess)."""
    state = evolve_book(params, strategy)
    base_up = params.eps_up.values
    base_dn = params.eps_dn.values
    return SpreadPaths(
        ask=SampledPath(params.grid, base_up + state.exc_up_post),
        bid=SampledPath(params.grid, base_dn + state.exc_dn_post),
        ask_pre=base_up + state.exc_up_pre,
        bid_pre=base_dn + state.exc_dn_pre,
    )


def reference_price(params: BookParams, strategy: Strategy,
                    fundamental: SampledPath) -> ReferencePricePath:
    """Fundamental price shifted by the cumulative permanent impact of trades."""
    _check_grids(params, strategy)
    if fundamental.grid != params.grid:
        raise ValueError("fundamental price lives on a different grid")
    state = evolve_book(params, strategy)
    return ReferencePricePath(
        values=SampledPath(params.grid, fundamental.values + state.perm_post),
        pre=fundamental.values + state.perm_pre,
    )


def _terminal_wealth_decomposition(book: BookParams, strategy: Strategy,
                                   mean_fund: SampledPath, x0: float) -> tuple[float, np.ndarray]:
    """Terminal wealth on the mean price path plus the noise weights:
    X_T(path) = X_T(mean) + sum_i weights[i] * (dS_i - dS_i_mean)."""
    x_det = float(ow_wealth(book, strategy, mean_fund, x0).x.values[-1])
    pre_pos, _ = position_paths(strategy)
    return x_det, pre_pos[1:]


def reference_increments(grid, seed, paths):
    """Per-path loop: the reference for ``brownian_increments``, which must
    reproduce every value of it bit for bit."""
    out = np.empty((grid.steps, paths))
    for p in range(paths):
        out[:, p] = RandomSource(seed, stream=p).normals(grid.steps)
    out *= math.sqrt(grid.dt)
    return out


def reference_sample(spec: FundamentalSpec, grid, rng: RandomSource) -> SampledPath:
    """One price path drawn from one ``RandomSource`` stream: the per-path
    reference of ``FundamentalSpec.add_noise`` on the mean path, which draws
    through ``normals_block``, and of the Monte-Carlo experiments."""
    dw = math.sqrt(grid.dt) * rng.normals(grid.steps)
    values = spec.mean_path(grid).values.copy()
    values[1:] += np.cumsum(spec.sigma_steps(grid) * dw)
    return SampledPath(grid, values)


def reference_relax_positions(target, rate_scale, kappa, dt, start=None):
    """Row-by-row loop with a temporary per operation over (n+1,) or
    time-major (n+1, paths) targets: the reference for ``relax_positions``
    (one path) and for tracker-bound's fused pass over time, which must
    reproduce every value of it bit for bit."""
    target = np.asarray(target, dtype=np.float64)
    n = target.shape[0] - 1
    decay = np.exp(-math.sqrt(kappa) * np.asarray(rate_scale)[:n] * dt)
    out = np.empty_like(target)
    out[0] = target[0] if start is None else start
    for i in range(n):
        t_i = target[i]
        out[i + 1] = t_i + decay[i] * (out[i] - t_i)
    return out


# The oracle of the utility experiment's candidate speed (multiplier 1).
def optimal_tracker(book: BookParams, sigma_s: SampledPath,
                    risk_tolerance: SampledPath, target: SampledPath,
                    start: float | None = None) -> Strategy:
    """Tracker with the leading-order-optimal speed for a symmetric book:

        M_t = sqrt(K_t * h_t * sigma_s_t^2 / (2 * R_t))

    Requires a symmetric book (K_up = K_dn, h_up = h_dn) and positive risk
    tolerance.  Zero volatility gives zero tracking speed: the position stays
    at its initial value.
    """
    if not book.is_symmetric():
        raise ValueError("optimal tracker requires a symmetric book (K, h equal on both sides)")
    grid = book.grid
    for path, name in ((sigma_s, "sigma_s"), (risk_tolerance, "risk tolerance"),
                       (target, "target")):
        if path.grid != grid:
            raise ValueError(f"{name} lives on a different grid")
    if np.any(risk_tolerance.values <= 0):
        raise ValueError("risk tolerance must be positive pointwise")
    if np.any(sigma_s.values < 0):
        raise ValueError("sigma_s must be nonnegative pointwise")
    m = np.sqrt(book.K_up.values * book.h_up.values * sigma_s.values ** 2
                / (2.0 * risk_tolerance.values))
    if np.all(m == 0.0):
        pos0 = float(target.values[0]) if start is None else float(start)
        return rate_strategy(grid, 0.0, pos0)
    if np.any(m <= 0.0):
        raise ValueError("tracking speed vanishes on part of the grid; "
                         "sigma_s must be positive everywhere or identically zero")
    return exponential_tracker(target, SampledPath(grid, m), book.kappa, start)


# Monte-Carlo experiments run on the inputs a run's set-up (``lobres.cli``)
# builds before its first rung, with the same constructors; ``experiment`` is
# the engine's or one of the references below.


def run_lemma_jump(book: BookParams, block_strategy: Strategy, fundamental: FundamentalSpec,
                   ladder: KappaLadder, *, width_scale: float, experiment=lemma_jump_experiment,
                   **kw):
    """``experiment`` on the fundamental's mean path and per-step
    volatilities, None if it is deterministic, and each rung's smoothing
    windows of ``width_scale``."""
    grid = block_strategy.grid
    sigma = None if fundamental.is_deterministic else fundamental.sigma_steps(grid)
    windows = [smoothing_windows(grid, block_strategy.blocks, kappa, width_scale)
               for kappa in ladder]
    return experiment(book, block_strategy, fundamental.mean_path(grid), sigma, ladder,
                      windows=windows, **kw)


def run_tracker_bound(ladder: KappaLadder, grid: TimeGrid, *, target_drift, target_vol,
                      rate_scale, coeff_bound: float, rate_floor: float, target0: float,
                      paths: int, seed: int, experiment=tracker_bound_experiment):
    """``experiment`` on ``tracker_bound_inputs``' coefficient paths and bound."""
    inputs = tracker_bound_inputs(grid, target_drift, target_vol, rate_scale, coeff_bound,
                                  rate_floor, paths)
    return experiment(ladder, grid, inputs, target0=target0, paths=paths, seed=seed)


def run_utility(book: BookParams, fundamental: FundamentalSpec, ladder: KappaLadder, *,
                experiment=utility_experiment, **kw):
    """``experiment`` on ``utility_trackers``' trackers on ``book`` (a run's
    set-up builds it at the first rung's kappa), the fundamental's mean path
    and its per-step volatilities on the book's grid."""
    grid = book.grid
    trackers = utility_trackers(book, fundamental, kw["gamma"], kw["multipliers"], kw["x0"])
    return experiment(book, trackers, fundamental.mean_path(grid),
                      fundamental.sigma_steps(grid), ladder, **kw)


# Whole-matrix Monte-Carlo experiments: the references for the chunked ones in
# ``lobres.experiments``, which draw and reduce one chunk of paths at a time.
# Each holds the (steps, paths) noise (and, for tracker-bound, the targets and
# one rung's positions) of every path at once.


def reference_lemma_jump_experiment(book: BookParams, block_strategy: Strategy,
                                    mean_fund: SampledPath, sigma: np.ndarray | None,
                                    ladder: KappaLadder, *, windows: list, paths: int,
                                    seed: int, x0: float = 0.0) -> LemmaJumpReport:
    """Pathwise terminal difference D(kappa) between each block strategy and
    its linearly smoothed version, under common noise.

    The smoothed strategies trade the same volumes over each rung's
    ``windows``, of width width_scale * kappa^(-1/4); for large resilience
    their payoffs dominate the block payoffs.
    """
    if not block_strategy.has_blocks:
        raise ValueError("lemma experiment requires a nonzero block strategy")
    grid = block_strategy.grid
    noise = None if sigma is None else brownian_increments(grid, seed, paths)

    mean_diff = []
    frac_pos = []
    all_diffs = []
    for kappa, rung_windows in zip(ladder, windows):
        rung_book = replace(book, kappa=kappa)
        smoothed = smooth_blocks(block_strategy, rung_windows)
        x_sm, w_sm = _terminal_wealth_decomposition(rung_book, smoothed, mean_fund, x0)
        x_bl, w_bl = _terminal_wealth_decomposition(rung_book, block_strategy, mean_fund, x0)
        d_det = x_sm - x_bl
        if noise is None:
            diffs = np.full(paths, d_det)
        else:
            diffs = d_det + (sigma * (w_sm - w_bl)) @ noise
        mean_diff.append(float(np.mean(diffs)))
        frac_pos.append(float(np.mean(diffs > 0)))
        all_diffs.append(diffs)
    return LemmaJumpReport(np.asarray(list(ladder)), np.asarray(mean_diff),
                           np.asarray(frac_pos), np.asarray(all_diffs))


def reference_tracker_bound_experiment(ladder: KappaLadder, grid: TimeGrid,
                                       inputs: tuple[np.ndarray, np.ndarray, np.ndarray, float],
                                       *, target0: float, paths: int,
                                       seed: int) -> TrackerBoundReport:
    """Estimate E[sup_t kappa^(1/2) |target_t - tracker_t|^2] per kappa on ``grid``.

    The target is an Ito process from ``target0`` with the drift/vol
    coefficients and tracking-rate scale M of ``inputs``
    (``tracker_bound_inputs``); the estimate must stay below the bound of
    ``inputs`` (within three Monte-Carlo standard errors) uniformly in kappa.
    """
    mu, sig, m, bound = inputs

    # time-major (n+1, paths) targets: the noise becomes the increments and
    # is cumulated along time, then freed before the first rung
    increments = brownian_increments(grid, seed, paths)
    increments *= sig[:-1, None]
    increments += (mu[:-1] * grid.dt)[:, None]
    targets = np.empty((grid.n_points, paths))
    targets[0] = target0
    np.cumsum(increments, axis=0, out=targets[1:])
    del increments
    targets[1:] += target0

    estimates = []
    stderrs = []
    for kappa in ladder:
        err2 = reference_relax_positions(targets, m, kappa, grid.dt)
        err2 -= targets
        np.square(err2, out=err2)
        sup2 = math.sqrt(kappa) * err2.max(axis=0)
        del err2  # freed before the next rung allocates its positions
        estimates.append(float(np.mean(sup2)))
        stderrs.append(float(np.std(sup2, ddof=1) / math.sqrt(paths)))
    estimates = np.asarray(estimates)
    stderrs = np.asarray(stderrs)
    within = estimates <= bound + 3.0 * stderrs
    return TrackerBoundReport(np.asarray(list(ladder)), estimates, stderrs,
                              float(bound), within)


def reference_utility_experiment(book: BookParams,
                                 trackers: tuple[SampledPath, list[SampledPath], float],
                                 mean_fund: SampledPath, sigma: np.ndarray,
                                 ladder: KappaLadder, *, gamma: float,
                                 multipliers: Sequence[float], paths: int, seed: int,
                                 x0: float, bootstrap: int) -> UtilityReport:
    """Compare certainty equivalents of trackers with speeds c * sqrt(kappa) * M.

    Setup: exponential utility with absolute risk aversion ``gamma``, constant
    drift/volatility fundamental, and a frictionless-baseline symmetric book
    (no baseline spread, no permanent impact).  ``trackers`` holds the
    constant frictionless optimal position mu / (gamma * sigma^2), the rate
    scale of each multiplier c and the frictionless certainty equivalent
    (``utility_trackers``); trackers start from a flat position so that speed
    trades off impact cost against displacement.  The closed-form optimal
    speed corresponds to multiplier 1.
    """
    kappas = ladder.values
    multipliers = tuple(float(c) for c in multipliers)
    target, scales, frictionless = trackers
    grid = mean_fund.grid
    dw = brownian_increments(grid, seed, paths)
    x_terminal: dict[tuple[float, float], np.ndarray] = {}
    for kappa in kappas:
        rung_book = replace(book, kappa=kappa)
        for c, scale in zip(multipliers, scales):
            strat = exponential_tracker(target, scale, kappa, start=0.0)
            x_det, weights = _terminal_wealth_decomposition(rung_book, strat, mean_fund, x0)
            x_terminal[(kappa, c)] = x_det + (sigma * weights) @ dw
    del dw  # the noise and the resample indices are never held together

    boot_gen = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(_BOOTSTRAP_STREAM,))))
    boot_idx = boot_gen.integers(0, paths, size=(bootstrap, paths))
    every_path = np.arange(paths)[None, :]
    ce_point = {key: float(_certainty_equivalents(x, every_path, gamma)[0])
                for key, x in x_terminal.items()}
    ce_boot = {key: _certainty_equivalents(x, boot_idx, gamma)
               for key, x in x_terminal.items()}

    cells: dict[tuple[float, float], tuple[float, ...]] = {}
    for kappa in kappas:
        for c in multipliers:
            cand, key = (kappa, 1.0), (kappa, c)
            lo, hi = np.percentile(ce_boot[key], [2.5, 97.5])
            glo, ghi = np.percentile(ce_boot[cand] - ce_boot[key], [2.5, 97.5])
            cells[key] = (ce_point[key], float(lo), float(hi),
                          ce_point[cand] - ce_point[key],
                          float(glo), float(ghi))

    # one (kappa, multiplier) array per value, in UtilityReport's field order
    values = np.array(list(cells.values())).T.reshape(6, len(kappas), len(multipliers))
    return UtilityReport(kappas, multipliers, *values, frictionless)


def read_strategy_csv(grid: TimeGrid, path, phi0: float = 0.0) -> Strategy:
    """Inverse of writing ``Strategy.table()`` for a known grid."""
    rate = np.zeros(grid.n_points)
    blocks: list[tuple[int, float]] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            i = int(row["index"])
            rate[i] = float(row["rate"])
            b = float(row["block"])
            if b != 0.0:
                blocks.append((i, b))
    return Strategy(grid, SampledPath(grid, rate), tuple(blocks), phi0)


def reference_write_columns(path, table: dict) -> None:
    """Write ``table``, an ordered map from column name to column, as CSV with
    the names as header.  A column is a 1-D array or a list of ready cells.
    Iterating an array's memoryview yields Python floats (ints for integer
    arrays) without building a list, and the csv module writes a float as its
    ``repr``, so each array cell is ``repr(float(v))``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table)
        writer.writerows(zip(*(c if isinstance(c, list) else memoryview(c)
                               for c in table.values())))


# The gate code of the CLI runners and reports that ``lobres.cli.GATES`` and
# ``_gates`` replaced, kept verbatim as their reference: the table must
# give the same dict for every report.


class _GapKind(NamedTuple):
    """How one gap kind runs and is gated.  Its rate grows like
    kappa**rate_growth.  The gate named ``decreasing`` holds when
    kappa**power * error falls strictly from rung ``int(rungs * first)`` on,
    and ``slope_gate`` when the fitted log-log slope is at most ``slope``
    (None: no slope gate)."""

    rate_growth: float
    decreasing: str
    power: float
    first: float
    slope: float | None


# Gate thresholds for the shipped experiment kinds.
_GAP_KINDS = {
    "theorem1": _GapKind(0.0, "kappa_x_err_decreasing_upper_half", 1.0, 0.5, -1.5),
    "remark1": _GapKind(0.25, "sqrt_kappa_x_err_decreasing", 0.5, 0.0, -0.9),
    "l2": _GapKind(0.0, "kappa_x_err_decreasing_upper_half", 1.0, 0.5, None),
}
LEMMA_FRACTION_GATE = 0.95


def _all_within(report: TrackerBoundReport) -> bool:
    return bool(np.all(report.within))


def _candidate_noninferior(report: UtilityReport) -> np.ndarray:
    """Per kappa: the candidate's certainty equivalent is at least every
    cell's minus half the width of its gap interval (the candidate's is 0)."""
    halfwidth = (report.gap_ci_high - report.gap_ci_low) / 2.0
    return ~np.any(report.candidate_ce[:, None] < report.ce - halfwidth, axis=1)


def reference_gates(kind: str, report) -> dict[str, bool]:
    """The gates of a ``kind`` run on its report."""
    if kind in _GAP_KINDS:
        kind = _GAP_KINDS[kind]
        scaled = report.kappas**kind.power * report.mean_err
        scaled = scaled[int(len(scaled) * kind.first):]
        gates = {kind.decreasing: not np.any(report.mean_err) or bool(np.all(np.diff(scaled) < 0))}
        if kind.slope is not None:
            gates["slope_gate"] = report.slope is None or report.slope <= kind.slope
        return gates
    if kind == "lemma-jump":
        return {
            "positive_mean_gain_at_kappa_max": bool(report.mean_diff[-1] > 0),
            # without noise every path has the same gain: the fraction is 0 or 1
            "positive_fraction_at_kappa_max": bool(report.frac_positive[-1] >= LEMMA_FRACTION_GATE),
        }
    if kind == "tracker-bound":
        return {"bound_holds_for_every_kappa": _all_within(report)}
    # the speed-optimality claim is asymptotic: gate the upper half of the
    # kappa range, like the other ladder gates
    gates = {"candidate_noninferior":
             bool(_candidate_noninferior(report)[len(report.kappas) // 2:].all())}
    curve = report.candidate_ce.tolist()
    if len(curve) >= 2:
        gates["ce_increasing_in_kappa"] = all(b > a for a, b in zip(curve, curve[1:]))
        gates["ce_below_frictionless"] = all(c < report.frictionless_ce for c in curve)
    return gates
