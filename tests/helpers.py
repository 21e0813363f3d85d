"""Shared helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np

from lobres import BookParams, RandomSource, SampledPath, Strategy
from lobres.experiments import (_BOOTSTRAP_STREAM, LemmaJumpReport, TrackerBoundReport,
                                UtilityCell, UtilityReport, _certainty_equivalents,
                                _terminal_wealth_decomposition, brownian_increments,
                                ladder_grid)
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
