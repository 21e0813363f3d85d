"""Time grids, sampled paths, deterministic-seeded path generation, and the
CSV writer of the run artifacts.

Gaussian draws are produced by applying the inverse normal CDF to uniform
variates from a PCG64 stream keyed by ``(seed, stream)``.  The method is
fixed so that identical keys reproduce identical paths and golden files
stay stable across runs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import NumericFailure

# Uniform draws are integers in [1, 2^53) scaled by 2^-53, so they never hit
# 0 or 1 and ndtri stays finite.
_U_DENOM = float(1 << 53)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * dt covering [0, horizon] with steps + 1 points."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if not (isinstance(self.steps, (int, np.integer)) and self.steps >= 1):
            raise ValueError(f"steps must be a positive integer, got {self.steps!r}")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def n_points(self) -> int:
        return self.steps + 1

    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


def make_grid(horizon: float, steps: int) -> TimeGrid:
    """Build a uniform grid on [0, horizon] with the given number of steps."""
    return TimeGrid(horizon, steps)


@dataclass
class SampledPath:
    """Values of a process sampled on every point of a :class:`TimeGrid`."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.n_points,):
            raise ValueError(
                f"path has {self.values.shape} values, grid expects ({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(self.values)):
            raise NumericFailure("sampled path contains non-finite values")

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class RandomSource:
    """Reproducible Gaussian source: one stream per Monte-Carlo path.

    The same (seed, stream) pair always reproduces the same draws; distinct
    streams are statistically independent (numpy SeedSequence spawn keys).
    """

    seed: int
    stream: int = 0
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def normals(self, n: int) -> np.ndarray:
        """n standard-normal draws via inverse CDF of open-interval uniforms."""
        # imported here so that runs drawing no noise never load scipy
        from scipy.special import ndtri

        u = self._gen.integers(1, 1 << 53, size=n).astype(np.float64) / _U_DENOM
        return ndtri(u)


def sample_brownian(grid: TimeGrid, rng: RandomSource) -> SampledPath:
    """Standard Brownian path on the grid: W_0 = 0, increments ~ N(0, dt)."""
    dw = math.sqrt(grid.dt) * rng.normals(grid.steps)
    w = np.empty(grid.n_points)
    w[0] = 0.0
    np.cumsum(dw, out=w[1:])
    return SampledPath(grid, w)


def sample_ito(
    grid: TimeGrid,
    drift: Callable[[float, float], float],
    vol: Callable[[float, float], float],
    s0: float,
    rng: RandomSource,
) -> SampledPath:
    """Euler-Maruyama path of dS = drift(t, S) dt + vol(t, S) dW.

    Consumes exactly ``grid.steps`` Gaussian draws, in the same order as
    :func:`sample_brownian`, so drift=0 / vol=sigma reproduces s0 + sigma*W
    pathwise for the same (seed, stream).
    """
    dt = grid.dt
    t = grid.points()
    dw = math.sqrt(dt) * rng.normals(grid.steps)
    values = np.empty(grid.n_points)
    values[0] = s = float(s0)
    for i in range(grid.steps):
        mu = drift(t[i], s)
        sig = vol(t[i], s)
        if not (math.isfinite(mu) and math.isfinite(sig)):
            raise NumericFailure("non-finite SDE coefficient", step=i, time=t[i])
        s = s + mu * dt + sig * dw[i]
        values[i + 1] = s
    return SampledPath(grid, values)


def constant_path(grid: TimeGrid, c: float) -> SampledPath:
    """Path equal to c at every grid point."""
    if not math.isfinite(c):
        raise NumericFailure(f"constant path value must be finite, got {c!r}")
    return SampledPath(grid, np.full(grid.n_points, float(c)))


def function_path(grid: TimeGrid, f: Callable[[float], float]) -> SampledPath:
    """Pointwise evaluation of f on the grid."""
    values = np.array([float(f(t)) for t in grid.points()])
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise NumericFailure("function evaluates to a non-finite value", step=bad,
                             time=grid.points()[bad])
    return SampledPath(grid, values)


def as_path(grid: TimeGrid, value: "float | Callable[[float], float] | SampledPath") -> SampledPath:
    """Coerce a constant, function of time, or existing path onto a grid."""
    if isinstance(value, SampledPath):
        if value.grid != grid:
            raise ValueError("sampled path lives on a different grid")
        return value
    if callable(value):
        return function_path(grid, value)
    return constant_path(grid, value)


def write_csv(path, header: list[str], rows: Iterable) -> None:
    """Write ``header`` and then ``rows``, streamed, as CSV.  The csv module
    writes a Python float as its ``repr``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_columns(path, header: list[str], columns: Iterable[np.ndarray]) -> None:
    """Write equal-length 1-D arrays as CSV columns.  Iterating a memoryview
    yields Python floats (ints for integer arrays) without building a list,
    so each cell is ``repr(float(v))``."""
    write_csv(path, header, zip(*map(memoryview, columns)))
