"""Shared helpers for the test suite."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lobres import (BookParams, RandomSource, ReferencePricePath, SampledPath, SpreadPaths,
                    Strategy, WealthPath, position_paths)
from lobres.book import _check_grids, evolve_book
from lobres.experiments import (_BOOTSTRAP_STREAM, LemmaJumpReport, TrackerBoundReport,
                                UtilityCell, UtilityReport, _certainty_equivalents,
                                brownian_increments, ladder_grid)
from lobres.wealth import _accumulate
from lobres.paths import as_path, constant_path
from lobres.strategies import TrackerSpec, exponential_tracker, relax_positions, smooth_blocks


def constant_book(grid, kappa, K=1.0, h=1.0, alpha=0.0, eps=0.0, **kw):
    return BookParams.build(grid, kappa, K=K, h=h, alpha=alpha, eps=eps, **kw)


def random_strategy(grid, rng, rate_scale=2.0, n_blocks=4, phi0=0.0):
    rate = SampledPath(grid, rng.normal(0.0, rate_scale, grid.n_points))
    idx = np.sort(rng.choice(grid.n_points, size=n_blocks, replace=False))
    sizes = rng.normal(0.0, 1.0, n_blocks)
    blocks = tuple((int(i), float(s)) for i, s in zip(idx, sizes) if s != 0.0)
    return Strategy(grid, rate, blocks, phi0)


def reference_evolve_book(params, strategy):
    """Per-step loop over numpy elements: the reference for ``evolve_book``,
    which must reproduce every value of it bit for bit."""
    from lobres.book import BookEvolution, _check_grids, _phi1, _phi2

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

    return BookEvolution(exc_up_pre, exc_up_post, exc_dn_pre, exc_dn_post,
                         exc_up_int, exc_dn_int, perm_pre, perm_post)


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


# Whole-matrix Monte-Carlo experiments: the references for the chunked ones in
# ``lobres.experiments``, which draw, cumulate and reduce one chunk of paths at
# a time.  Each holds the (steps, paths) noise (and, for tracker-bound, the
# targets) of every path at once.


def reference_lemma_jump_experiment(template: BookTemplate, block_strategy: Strategy,
                                    fundamental: FundamentalSpec, ladder: KappaLadder, *,
                                    width_scale: float = 1.0, paths: int = 1, seed: int = 42,
                                    x0: float = 0.0) -> LemmaJumpReport:
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
    noise = brownian_increments(grid, seed, paths) if np.any(sigma > 0) else None

    mean_diff = []
    frac_pos = []
    all_diffs = []
    for kappa in ladder:
        book = template.materialize(grid, kappa)
        smoothed = smooth_blocks(block_strategy, kappa, width_scale)
        x_sm, w_sm = _terminal_wealth_decomposition(book, smoothed, mean_fund, x0)
        x_bl, w_bl = _terminal_wealth_decomposition(book, block_strategy, mean_fund, x0)
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


def reference_tracker_bound_experiment(ladder: KappaLadder, *, target_drift=0.0,
                                       target_vol=1.0, rate_scale=1.0,
                                       coeff_bound: float = 1.0, rate_floor: float = 1.0,
                                       target0: float = 0.0, paths: int = 10_000,
                                       seed: int = 42, horizon: float = 1.0, n0: int = 512,
                                       resolution_scale: float = 4.0) -> TrackerBoundReport:
    """Estimate E[sup_t kappa^(1/2) |target_t - tracker_t|^2] per kappa.

    The target is an Ito process with declared drift/vol coefficients bounded
    by ``coeff_bound`` and the tracking-rate scale M is bounded below by
    ``rate_floor``; the estimate must stay below 5 * C^2 * T / M_floor
    (within three Monte-Carlo standard errors) uniformly in kappa.
    """
    grid = ladder_grid(horizon, n0, resolution_scale, ladder.max)
    mu = as_path(grid, target_drift).values
    sig = as_path(grid, target_vol).values
    m = as_path(grid, rate_scale).values
    if np.any(np.abs(mu) > coeff_bound) or np.any(np.abs(sig) > coeff_bound):
        raise ValueError("target coefficients exceed the declared bound")
    if np.any(m < rate_floor):
        raise ValueError("tracking rate falls below its declared floor")

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

    bound = 5.0 * coeff_bound**2 * horizon / rate_floor
    estimates = []
    stderrs = []
    for kappa in ladder:
        err2 = relax_positions(targets, m, kappa, grid.dt)
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


def reference_utility_experiment(template: BookTemplate, fundamental: FundamentalSpec, *,
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
    target_pos = mu / (gamma * sigma**2)
    target = constant_path(grid, target_pos)
    m_base = np.sqrt(probe.K_up.values * probe.h_up.values * sigma**2 * gamma / 2.0)

    mean_fund = fundamental.mean_path(grid)
    sigma_steps = fundamental.sigma_steps(grid)
    dw = brownian_increments(grid, seed, paths)
    x_terminal: dict[tuple[float, float], np.ndarray] = {}
    for kappa in kappas:
        book = template.materialize(grid, kappa)
        for c in multipliers:
            spec = TrackerSpec(target=target,
                               rate_scale=SampledPath(grid, c * m_base),
                               kappa=kappa)
            strat = exponential_tracker(spec, start=0.0)
            x_det, weights = _terminal_wealth_decomposition(book, strat, mean_fund, x0)
            x_terminal[(kappa, c)] = x_det + (sigma_steps * weights) @ dw
    del dw  # the noise and the resample indices are never held together

    boot_gen = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(_BOOTSTRAP_STREAM,))))
    boot_idx = boot_gen.integers(0, paths, size=(bootstrap, paths))
    every_path = np.arange(paths)[None, :]
    ce_point = {key: float(_certainty_equivalents(x, every_path, gamma)[0])
                for key, x in x_terminal.items()}
    ce_boot = {key: _certainty_equivalents(x, boot_idx, gamma)
               for key, x in x_terminal.items()}

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
