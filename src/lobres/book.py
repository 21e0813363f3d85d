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

    @classmethod
    def on_grid(cls, grid: TimeGrid, kappa: float, K=1.0, h=1.0, alpha=0.0, eps=0.0,
                K_dn=None, h_dn=None, alpha_dn=None, eps_dn=None) -> "BookParams":
        """The book of coefficients given as constants, functions of time or
        paths on ``grid``.  A down side left None is the up side's own path
        object, so the scan shares that side's terms.  The coefficients do
        not depend on kappa: ``dataclasses.replace(book, kappa=k)`` is the
        same book at another rung, sharing every path."""
        def sides(up, dn) -> tuple[SampledPath, SampledPath]:
            up = as_path(grid, up)
            return up, up if dn is None else as_path(grid, dn)

        return cls(kappa, *sides(K, K_dn), *sides(h, h_dn), *sides(alpha, alpha_dn),
                   *sides(eps, eps_dn))

    @property
    def grid(self) -> TimeGrid:
        return self.K_up.grid

    def is_symmetric(self) -> bool:
        return (np.array_equal(self.K_up.values, self.K_dn.values)
                and np.array_equal(self.h_up.values, self.h_dn.values))


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

    def table(self) -> dict:
        """Columns of ``spreads.csv``."""
        return {"t": self.ask.grid.points(), "ask": self.ask.values, "bid": self.bid.values,
                "ask_pre": self.ask_pre, "bid_pre": self.bid_pre}


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


def _post(pre: np.ndarray, idx: np.ndarray, jump: np.ndarray) -> np.ndarray:
    """A post-jump state: the pre-jump state plus the jumps at the blocks."""
    post = pre.copy()
    post[idx] += jump
    return post


@dataclass
class BookEvolution:
    """Raw excess-spread and permanent-impact state produced by the scan.

    The post-jump states differ from the pre-jump ones only at the block
    indices ``idx``, so only the jumps there are held; each ``*_post``
    property builds its full path when read."""

    exc_up_pre: np.ndarray
    exc_dn_pre: np.ndarray
    exc_up_int: np.ndarray
    exc_dn_int: np.ndarray
    perm_pre: np.ndarray
    idx: np.ndarray
    jump_up: np.ndarray
    jump_dn: np.ndarray
    jump_pm: np.ndarray

    @property
    def exc_up_post(self) -> np.ndarray:
        return _post(self.exc_up_pre, self.idx, self.jump_up)

    @property
    def exc_dn_post(self) -> np.ndarray:
        return _post(self.exc_dn_pre, self.idx, self.jump_dn)

    @property
    def perm_post(self) -> np.ndarray:
        return _post(self.perm_pre, self.idx, self.jump_pm)


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
    loop.  Each per-step array is dropped after its last use, and a down
    side that shares the up side's K or h path shares its terms too.
    """
    _check_grids(params, strategy)
    grid = params.grid
    n = grid.steps
    dt = grid.dt

    def decay_terms(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        z = params.kappa * k[:n] * dt
        return np.exp(-z), dt * _phi1(z), dt * dt * _phi2(z)

    decay_up, w1_up, w2_up = decay_terms(params.K_up.values)
    decay_dn, w1_dn, w2_dn = ((decay_up, w1_up, w2_up) if params.K_dn is params.K_up
                              else decay_terms(params.K_dn.values))

    inv_h_up = 1.0 / params.h_up.values
    inv_h_dn = inv_h_up if params.h_dn is params.h_up else 1.0 / params.h_dn.values
    a_up = params.alpha_up.values
    a_dn = params.alpha_dn.values

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

    # inflows: each side's own share of its trades plus the cross share of
    # the other side's; the permanent impact takes the cross shares
    r = strategy.rate.values[:n]
    r_up = np.maximum(r, 0.0)
    r_dn = np.maximum(-r, 0.0)
    cross_up = a_up[:n] * inv_h_up[:n] * r_up
    cross_dn = a_dn[:n] * inv_h_dn[:n] * r_dn
    b_up = (1.0 - a_up[:n]) * inv_h_up[:n] * r_up + cross_dn
    del r_up
    b_dn = (1.0 - a_dn[:n]) * inv_h_dn[:n] * r_dn + cross_up
    del r_dn, inv_h_up, inv_h_dn
    g_dt = (cross_up - cross_dn) * dt
    del cross_up, cross_dn
    c_up, b_w2_up = b_up * w1_up, b_up * w2_up
    del b_up
    c_dn, b_w2_dn = b_dn * w1_dn, b_dn * w2_dn
    del b_dn, w2_up, w2_dn

    # Pre-jump states at every grid point; the post-jump states differ only
    # at the blocks.  The scan runs segment by segment between the blocks
    # before the last point; iterating a memoryview yields Python floats
    # without building a list, and array('d') stores them unboxed.
    up, dn, pm = array("d", [0.0]), array("d", [0.0]), array("d", [0.0])
    up_append, dn_append, pm_append = up.append, dn.append, pm.append
    terms = [memoryview(t) for t in (decay_up, c_up, decay_dn, c_dn, g_dt)]
    ahead = int(np.searchsorted(idx, n))  # the blocks before the last point
    starts = idx[:ahead].tolist()
    jumps = zip(jump_up[:ahead].tolist(), jump_dn[:ahead].tolist(), jump_pm[:ahead].tolist())
    eu = ed = p = 0.0
    for first, stop, (ju, jd, jp) in zip([0, *starts], [*starts, n], [(0.0, 0.0, 0.0), *jumps]):
        eu += ju
        ed += jd
        p += jp
        for du, cu, dd, cd, dp in zip(*(t[first:stop] for t in terms)):
            eu = eu * du + cu
            ed = ed * dd + cd
            p = p + dp
            up_append(eu)
            dn_append(ed)
            pm_append(p)
    del terms, decay_up, decay_dn, c_up, c_dn, g_dt

    exc_up_pre = np.frombuffer(up)
    exc_dn_pre = np.frombuffer(dn)
    exc_up_int = _post(exc_up_pre, idx, jump_up)[:n] * w1_up + b_w2_up
    del b_w2_up
    exc_dn_int = _post(exc_dn_pre, idx, jump_dn)[:n] * w1_dn + b_w2_dn

    return BookEvolution(exc_up_pre, exc_dn_pre, exc_up_int, exc_dn_int, np.frombuffer(pm),
                         idx, jump_up, jump_dn, jump_pm)
