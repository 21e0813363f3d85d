"""Block-shaped order book: spread and reference-price dynamics.

The excess of each spread over its baseline decays exponentially at rate
kappa * K_t and is fed by trading:

    ask excess inflow: (1 - alpha_up)/h_up * d(buys) + alpha_dn/h_dn * d(sells)
    bid excess inflow: (1 - alpha_dn)/h_dn * d(sells) + alpha_up/h_up * d(buys)

Stepping uses an exponential integrator with coefficients frozen at the left
endpoint of each step: the decay and the convolution of a constant rate are
both applied in closed form, so the step is exact for piecewise-constant
rates and stays stable when kappa * dt is large.  Block trades execute at
grid points; the pre-jump value is recorded before the jump is applied so
cost integrals can charge the left limit.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .paths import SampledPath, TimeGrid, as_path
from .strategies import Strategy


@dataclass
class BookParams:
    """Order-book coefficients plus the resilience scale kappa.

    Resilience on each side is kappa * K_t; h is the book height (shares per
    unit price), alpha the permanent-impact fraction in [0, 1/2], eps the
    baseline half-spread.  Baselines may be zero (frictionless-baseline
    configurations used by the portfolio experiments).
    """

    kappa: float
    K_up: SampledPath
    K_dn: SampledPath
    h_up: SampledPath
    h_dn: SampledPath
    alpha_up: SampledPath
    alpha_dn: SampledPath
    eps_up: SampledPath
    eps_dn: SampledPath

    def __post_init__(self) -> None:
        if not (np.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError(f"kappa must be positive, got {self.kappa!r}")
        grid = self.K_up.grid
        for name in ("K_dn", "h_up", "h_dn", "alpha_up", "alpha_dn", "eps_up", "eps_dn"):
            if getattr(self, name).grid != grid:
                raise ValueError(f"coefficient {name} lives on a different grid")
        for name in ("K_up", "K_dn", "h_up", "h_dn"):
            if np.any(getattr(self, name).values <= 0):
                raise ValueError(f"{name} must be positive pointwise")
        for name in ("alpha_up", "alpha_dn"):
            vals = getattr(self, name).values
            if np.any(vals < 0) or np.any(vals > 0.5):
                raise ValueError(f"{name} must lie in [0, 1/2] pointwise")
        for name in ("eps_up", "eps_dn"):
            if np.any(getattr(self, name).values < 0):
                raise ValueError(f"{name} must be nonnegative pointwise")

    @property
    def grid(self) -> TimeGrid:
        return self.K_up.grid

    @classmethod
    def build(cls, grid: TimeGrid, kappa: float, *, K=1.0, h=1.0, alpha=0.0, eps=0.0,
              K_dn=None, h_dn=None, alpha_dn=None, eps_dn=None) -> "BookParams":
        """Book from constants/functions; down-side values default to the up side."""
        return cls(
            kappa=kappa,
            K_up=as_path(grid, K), K_dn=as_path(grid, K if K_dn is None else K_dn),
            h_up=as_path(grid, h), h_dn=as_path(grid, h if h_dn is None else h_dn),
            alpha_up=as_path(grid, alpha),
            alpha_dn=as_path(grid, alpha if alpha_dn is None else alpha_dn),
            eps_up=as_path(grid, eps),
            eps_dn=as_path(grid, eps if eps_dn is None else eps_dn),
        )

    def is_symmetric(self) -> bool:
        return (np.array_equal(self.K_up.values, self.K_dn.values)
                and np.array_equal(self.h_up.values, self.h_dn.values))


@dataclass
class BookTemplate:
    """Kappa-free coefficient spec, materialized per ladder point."""

    K: object = 1.0
    h: object = 1.0
    alpha: object = 0.0
    eps: object = 0.0
    K_dn: object = None
    h_dn: object = None
    alpha_dn: object = None
    eps_dn: object = None

    def materialize(self, grid: TimeGrid, kappa: float) -> BookParams:
        return BookParams.build(grid, kappa, K=self.K, h=self.h, alpha=self.alpha,
                                eps=self.eps, K_dn=self.K_dn, h_dn=self.h_dn,
                                alpha_dn=self.alpha_dn, eps_dn=self.eps_dn)


@dataclass
class SpreadPaths:
    """Bid/ask spreads for a strategy, with pre-jump values.

    ``ask``/``bid`` hold the right-continuous (post-jump) spread at each grid
    point; ``ask_pre``/``bid_pre`` the left limits (they differ only at block
    instants).
    """

    ask: SampledPath
    bid: SampledPath
    ask_pre: np.ndarray
    bid_pre: np.ndarray


@dataclass
class ReferencePricePath:
    """Fundamental price plus cumulative permanent impact (pre/post jumps)."""

    values: SampledPath
    pre: np.ndarray


def _phi1(z: np.ndarray) -> np.ndarray:
    """(1 - exp(-z)) / z for z > 0, stable for all magnitudes."""
    return -np.expm1(-z) / z


def _phi2(z: np.ndarray) -> np.ndarray:
    """(z - 1 + exp(-z)) / z^2 for z > 0, series below z = 0.01."""
    z = np.asarray(z, dtype=np.float64)
    small = z < 1e-2
    zs = np.where(small, z, 1.0)
    series = 0.5 - zs / 6.0 + zs**2 / 24.0 - zs**3 / 120.0 + zs**4 / 720.0
    zb = np.where(small, 1.0, z)
    direct = (zb + np.expm1(-zb)) / zb**2
    return np.where(small, series, direct)


@dataclass
class BookEvolution:
    """Raw excess-spread and permanent-impact state produced by the scan."""

    exc_up_pre: np.ndarray
    exc_up_post: np.ndarray
    exc_dn_pre: np.ndarray
    exc_dn_post: np.ndarray
    exc_up_int: np.ndarray
    exc_dn_int: np.ndarray
    perm_pre: np.ndarray
    perm_post: np.ndarray


def _check_grids(params: BookParams, strategy: Strategy) -> None:
    if params.grid != strategy.grid:
        raise ValueError("strategy and book coefficients must share a grid")


def evolve_book(params: BookParams, strategy: Strategy) -> BookEvolution:
    """Run the exponential-integrator scan for spreads and permanent impact.

    Per step (coefficients frozen at the left endpoint, decay z = kappa*K*dt):
        excess'    = excess * exp(-z) + inflow * dt * phi1(z)
        step int   = excess * dt * phi1(z) + inflow * dt^2 * phi2(z)
    A block at grid point i jumps the excess by its full impact after the
    pre-jump value is recorded.

    Everything but the three recurrences (ask excess, bid excess, permanent
    impact) is computed on whole arrays; the recurrences run on Python
    floats, which round exactly as float64 array elements do, so every value
    comes from the same IEEE operations in the same order as a per-element
    loop.
    """
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

    # A buy of size s jumps the ask excess by its own share (1 - alpha)/h * s
    # and the bid excess and the permanent impact by the cross share
    # alpha/h * s; a sell mirrors this and lowers the permanent impact.
    idx = np.array([i for i, _ in strategy.blocks], dtype=np.intp)
    theta = np.array([s for _, s in strategy.blocks])
    buy = theta > 0
    size = np.abs(theta)
    own = np.where(buy, (1.0 - a_up[idx]) * inv_h_up[idx],
                   (1.0 - a_dn[idx]) * inv_h_dn[idx]) * size
    cross = np.where(buy, a_up[idx] * inv_h_up[idx], a_dn[idx] * inv_h_dn[idx]) * size
    jump_up = np.where(buy, own, cross)
    jump_dn = np.where(buy, cross, own)
    jump_pm = np.where(buy, cross, -cross)
    jumps = [None] * (n + 1)
    for i, ju, jd, jp in zip(idx.tolist(), jump_up.tolist(), jump_dn.tolist(),
                             jump_pm.tolist()):
        jumps[i] = (ju, jd, jp)

    # Pre-jump states at every grid point; the post-jump states differ only
    # at the blocks.  Iterating a memoryview yields Python floats without
    # building a list, and array('d') stores them unboxed.
    up, dn, pm = array("d", [0.0]), array("d", [0.0]), array("d", [0.0])
    up_append, dn_append, pm_append = up.append, dn.append, pm.append
    eu = ed = p = 0.0
    for du, cu, dd, cd, dp, jump in zip(memoryview(decay_up), memoryview(b_up * w1_up),
                                        memoryview(decay_dn), memoryview(b_dn * w1_dn),
                                        memoryview(g * dt), jumps):
        if jump is not None:
            eu += jump[0]
            ed += jump[1]
            p += jump[2]
        eu = eu * du + cu
        ed = ed * dd + cd
        p = p + dp
        up_append(eu)
        dn_append(ed)
        pm_append(p)

    exc_up_pre = np.array(up)
    exc_dn_pre = np.array(dn)
    perm_pre = np.array(pm)
    exc_up_post = exc_up_pre.copy()
    exc_dn_post = exc_dn_pre.copy()
    perm_post = perm_pre.copy()
    exc_up_post[idx] += jump_up
    exc_dn_post[idx] += jump_dn
    perm_post[idx] += jump_pm
    exc_up_int = exc_up_post[:n] * w1_up + b_up * w2_up
    exc_dn_int = exc_dn_post[:n] * w1_dn + b_dn * w2_dn

    return BookEvolution(exc_up_pre, exc_up_post, exc_dn_pre, exc_dn_post,
                         exc_up_int, exc_dn_int, perm_pre, perm_post)
