"""Shared helpers for the test suite."""

import math

import numpy as np

from lobres import BookParams, RandomSource, SampledPath, Strategy


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
