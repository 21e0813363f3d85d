"""Finite-variation trading strategies and the strategy families used by
the limit experiments: block schedules, their linearly-smoothed versions,
and exponential trackers of a frictionless target position."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .paths import SampledPath, TimeGrid, as_path, constant_path


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

    def table(self) -> dict:
        """Columns of ``strategy.csv``: (index, rate, block); block is 0 off jumps."""
        block = np.zeros(self.grid.n_points)
        for i, size in self.blocks:
            block[i] = size
        return {"index": np.arange(self.grid.n_points), "rate": self.rate.values,
                "block": block}


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


def smoothing_windows(grid: TimeGrid, blocks: tuple[tuple[int, float], ...], kappa: float,
                      width_scale: float) -> list[tuple[int, float, float, int, int]]:
    """(index, size, rate, full steps, steps used) of each block's smoothing
    window of width width_scale * kappa^(-1/4) on ``grid``, rounded to whole
    steps; refuses windows that overlap or end past the horizon."""
    if kappa <= 0 or width_scale <= 0:
        raise ValueError("kappa and width_scale must be positive")
    dt = grid.dt
    width = width_scale * kappa ** -0.25
    windows = []
    prev_end = 0
    for idx, size in blocks:
        if idx < prev_end:
            raise ValueError("smoothing windows overlap")
        # a window of more than steps + 1 steps cannot fit, and int(inf) raises
        n_full = int(min(width / dt, grid.steps + 1) + 1e-12)
        remainder = width - n_full * dt
        n_used = n_full + (1 if remainder > 1e-9 * dt else 0)
        if idx + n_used > grid.steps:
            raise ValueError("smoothing window extends past the horizon")
        windows.append((idx, size, size / width, n_full, n_used))
        prev_end = idx + n_used
    return windows


def smooth_blocks(strategy: Strategy, windows: list[tuple[int, float, float, int, int]]
                  ) -> Strategy:
    """Replace each block by a constant rate over its window starting at the
    block time; ``windows`` are :func:`smoothing_windows` of the strategy's
    blocks on its grid.

    The final partial step's rate is adjusted so the traded volume equals the
    block size exactly.
    """
    if np.any(strategy.rate_steps != 0.0):
        raise ValueError("smoothing expects a pure block strategy")
    if [w[:2] for w in windows] != list(strategy.blocks):
        raise ValueError("smoothing windows belong to other blocks")

    grid = strategy.grid
    dt = grid.dt
    rate = np.zeros(grid.n_points)
    for idx, size, r, n_full, n_used in windows:
        rate[idx:idx + n_full] = r
        if n_used > n_full:
            # last partial step makes the realized volume exact
            rate[idx + n_full] = (size - r * n_full * dt) / dt
    return Strategy(grid, SampledPath(grid, rate), (), strategy.phi0)


def relax_positions(target: np.ndarray, rate_scale: np.ndarray, kappa: float,
                    dt: float, start: float | None = None) -> np.ndarray:
    """Exact exponential relaxation of one path toward the left-endpoint target:

        pos[i+1] = target[i] + exp(-sqrt(kappa) * M_i * dt) * (pos[i] - target[i])

    The update never overshoots the frozen target for any step size.
    ``start`` defaults to the target's initial value.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.ndim != 1:
        raise ValueError(f"relax_positions takes one (n+1,) path, got shape {target.shape}")
    decay = np.exp(-math.sqrt(kappa) * np.asarray(rate_scale)[:target.size - 1] * dt)

    # on Python floats: the IEEE operations of arrays, with no numpy call per
    # step; iterating a memoryview yields them without building a list
    def walk(pos: float):
        yield pos
        for t_i, d in zip(memoryview(target), memoryview(decay)):
            pos = (pos - t_i) * d + t_i
            yield pos
    return np.fromiter(walk(float(target[0] if start is None else start)), np.float64,
                       target.size)


def check_tracker(target: SampledPath, rate_scale: SampledPath, kappa: float) -> None:
    """Refuse an exponential tracker's inputs unless the tracking-rate scale
    lives on the target's grid and is positive there and kappa is positive."""
    if rate_scale.grid != target.grid:
        raise ValueError("rate scale lives on a different grid")
    if np.any(rate_scale.values <= 0):
        raise ValueError("tracking rate M must be positive pointwise")
    if not (np.isfinite(kappa) and kappa > 0):
        raise ValueError(f"kappa must be positive, got {kappa!r}")


def exponential_tracker(target: SampledPath, rate_scale: SampledPath, kappa: float,
                        start: float | None = None) -> Strategy:
    """Block-free strategy relaxing toward ``target`` at speed sqrt(kappa) * M,
    for a tracking-rate scale M = ``rate_scale`` (> 0) and resilience scale
    ``kappa`` (> 0), checked by :func:`check_tracker`.

    The emitted rate is the per-step average position change; the default
    initial position is the target's initial value.
    """
    check_tracker(target, rate_scale, kappa)
    grid = target.grid
    pos = relax_positions(target.values, rate_scale.values, kappa, grid.dt, start)
    rate = np.zeros(grid.n_points)
    rate[:-1] = np.diff(pos) / grid.dt
    return Strategy(grid, SampledPath(grid, rate), (), float(pos[0]))
