"""Finite-variation trading strategies and the strategy families used by
the limit experiments: block schedules, their linearly-smoothed versions,
and exponential trackers of a frictionless target position."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .paths import SampledPath, TimeGrid, as_path, constant_path, write_columns

if TYPE_CHECKING:
    from .book import BookParams


@dataclass
class Strategy:
    """Trading plan on a grid: a signed turnover rate plus signed block trades.

    The rate is piecewise constant per step; ``rate.values[i]`` applies on
    [t_i, t_{i+1}), the final entry is ignored.  Buy/sell parts derive from
    the sign (max(rate, 0) / max(-rate, 0)), so a single instant never holds
    simultaneous up and down trades.  Blocks are (grid index, signed size)
    with strictly increasing indices, at most one per grid point.
    """

    grid: TimeGrid
    rate: SampledPath
    blocks: tuple[tuple[int, float], ...] = ()
    phi0: float = 0.0

    def __post_init__(self) -> None:
        if self.rate.grid != self.grid:
            raise ValueError("rate path lives on a different grid")
        if not math.isfinite(self.phi0):
            raise ValueError("initial position must be finite")
        self.blocks = tuple((int(i), float(s)) for i, s in self.blocks)
        last = -1
        for idx, size in self.blocks:
            if idx <= last:
                raise ValueError("block indices must be strictly increasing")
            if not 0 <= idx <= self.grid.steps:
                raise ValueError(f"block index {idx} outside the grid")
            if size == 0.0 or not math.isfinite(size):
                raise ValueError("block sizes must be nonzero and finite")
            last = idx

    @property
    def rate_steps(self) -> np.ndarray:
        """Per-step rates (length ``grid.steps``)."""
        return self.rate.values[:-1]

    @property
    def has_blocks(self) -> bool:
        return bool(self.blocks)


def zero_strategy(grid: TimeGrid, phi0: float = 0.0) -> Strategy:
    return Strategy(grid, constant_path(grid, 0.0), (), phi0)


def rate_strategy(grid: TimeGrid, rate, phi0: float = 0.0) -> Strategy:
    """Block-free strategy from a rate constant, function of time, or path."""
    return Strategy(grid, as_path(grid, rate), (), phi0)


def position_paths(strategy: Strategy) -> tuple[np.ndarray, np.ndarray]:
    """Pre- and post-jump position at every grid point.

    ``post[i]`` includes the block at i (if any) and all rate trading on
    earlier steps; ``pre[i]`` excludes the block at i.
    """
    n = strategy.grid.steps
    dt = strategy.grid.dt
    jumps = np.zeros(n + 1)
    for idx, size in strategy.blocks:
        jumps[idx] = size
    post = np.empty(n + 1)
    post[0] = 0.0
    np.cumsum(strategy.rate_steps * dt, out=post[1:])
    post += strategy.phi0 + np.cumsum(jumps)
    return post - jumps, post


def block_schedule(grid: TimeGrid, trades: Iterable[tuple[float, float]],
                   t_prime: float) -> Strategy:
    """Pure block strategy with trades at the nearest grid points.

    Trade times must be strictly increasing and lie in [0, t_prime] with
    t_prime < horizon, leaving room after the last block (the smoothing
    construction trades over windows placed after each block time).
    """
    if not 0 < t_prime < grid.horizon:
        raise ValueError("t_prime must lie strictly between 0 and the horizon")
    blocks: list[tuple[int, float]] = []
    prev_t = -math.inf
    for t, size in trades:
        if t < 0 or t > t_prime:
            raise ValueError(f"block time {t} outside [0, {t_prime}]")
        if t <= prev_t:
            raise ValueError("block times must be strictly increasing")
        prev_t = t
        idx = round(t / grid.dt)
        if blocks and blocks[-1][0] == idx:
            raise ValueError(f"blocks at t={t} collide at grid index {idx} after rounding")
        blocks.append((idx, float(size)))
    return Strategy(grid, constant_path(grid, 0.0), tuple(blocks))


def smooth_blocks(strategy: Strategy, kappa: float, width_scale: float = 1.0) -> Strategy:
    """Replace each block by a constant rate over a window of width
    width_scale * kappa^(-1/4) starting at the block time.

    The window is rounded to whole steps and the final partial step's rate is
    adjusted so the traded volume equals the block size exactly.  Windows must
    not overlap and must end by the horizon.
    """
    if np.any(strategy.rate_steps != 0.0):
        raise ValueError("smoothing expects a pure block strategy")
    if not strategy.blocks:
        return Strategy(strategy.grid, constant_path(strategy.grid, 0.0), (), strategy.phi0)
    if kappa <= 0 or width_scale <= 0:
        raise ValueError("kappa and width_scale must be positive")

    grid = strategy.grid
    dt = grid.dt
    width = width_scale * kappa ** -0.25
    rate = np.zeros(grid.n_points)
    prev_end = 0
    for idx, size in strategy.blocks:
        if idx < prev_end:
            raise ValueError("smoothing windows overlap")
        r = size / width
        n_full = int(width / dt + 1e-12)
        remainder = width - n_full * dt
        n_used = n_full + (1 if remainder > 1e-9 * dt else 0)
        if idx + n_used > grid.steps:
            raise ValueError("smoothing window extends past the horizon")
        rate[idx:idx + n_full] = r
        if n_used > n_full:
            # last partial step makes the realized volume exact
            rate[idx + n_full] = (size - r * n_full * dt) / dt
        prev_end = idx + n_used
    return Strategy(grid, SampledPath(grid, rate), (), strategy.phi0)


@dataclass
class TrackerSpec:
    """Target position, tracking-rate scale M (> 0), and resilience scale.

    The tracker relaxes toward the target at speed sqrt(kappa) * M_t.
    """

    target: SampledPath
    rate_scale: SampledPath
    kappa: float

    def __post_init__(self) -> None:
        if self.rate_scale.grid != self.target.grid:
            raise ValueError("rate scale lives on a different grid")
        if np.any(self.rate_scale.values <= 0):
            raise ValueError("tracking rate M must be positive pointwise")
        if not (np.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError(f"kappa must be positive, got {self.kappa!r}")


def relax_positions(target: np.ndarray, rate_scale: np.ndarray, kappa: float,
                    dt: float, start: np.ndarray | float | None = None) -> np.ndarray:
    """Exact exponential relaxation toward the left-endpoint target.

        pos[i+1] = target[i] + exp(-sqrt(kappa) * M_i * dt) * (pos[i] - target[i])

    Axis 0 is time: ``target`` may be (n+1,) or time-major (n+1, paths), so
    each step updates one contiguous row.  The update never overshoots the
    frozen target for any step size.  ``start`` defaults to the target's
    initial value.
    """
    target = np.asarray(target, dtype=np.float64)
    n = target.shape[0] - 1
    decay = np.exp(-math.sqrt(kappa) * np.asarray(rate_scale)[:n] * dt)
    out = np.empty_like(target)
    out[0] = target[0] if start is None else start
    for i in range(n):
        t_i = target[i]
        out[i + 1] = t_i + decay[i] * (out[i] - t_i)
    return out


def exponential_tracker(spec: TrackerSpec, start: float | None = None) -> Strategy:
    """Block-free strategy tracking ``spec.target`` at speed sqrt(kappa) * M.

    The emitted rate is the per-step average position change; the default
    initial position is the target's initial value.
    """
    grid = spec.target.grid
    pos = relax_positions(spec.target.values, spec.rate_scale.values, spec.kappa,
                          grid.dt, start)
    rate = np.zeros(grid.n_points)
    rate[:-1] = np.diff(pos) / grid.dt
    return Strategy(grid, SampledPath(grid, rate), (), float(pos[0]))


def optimal_tracker(book: "BookParams", sigma_s: SampledPath,
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
        return zero_strategy(grid, phi0=pos0)
    if np.any(m <= 0.0):
        raise ValueError("tracking speed vanishes on part of the grid; "
                         "sigma_s must be positive everywhere or identically zero")
    spec = TrackerSpec(target=target, rate_scale=SampledPath(grid, m), kappa=book.kappa)
    return exponential_tracker(spec, start)


def write_strategy_csv(strategy: Strategy, path) -> None:
    """Write the strategy as rows (index, rate, block); block is 0 off jumps."""
    block = np.zeros(strategy.grid.n_points)
    for i, size in strategy.blocks:
        block[i] = size
    write_columns(path, ["index", "rate", "block"],
                  [np.arange(strategy.grid.n_points), strategy.rate.values, block])


def read_strategy_csv(grid: TimeGrid, path, phi0: float = 0.0) -> Strategy:
    """Inverse of :func:`write_strategy_csv` for a known grid."""
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
