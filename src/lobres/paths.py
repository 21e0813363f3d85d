"""Time grids, sampled paths, deterministic-seeded path generation, and the
CSV writer of the run artifacts.

Gaussian draws are produced by applying the inverse normal CDF to uniform
variates from a PCG64 stream keyed by ``(seed, stream)``.  The method is
fixed so that identical keys reproduce identical paths and golden files
stay stable across runs.  :class:`RandomSource` draws one stream through
numpy; :func:`normals_block` draws many streams at once with the same bits.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import NumericFailure

# Uniform draws are integers in [1, 2^53) scaled by 2^-53, so they never hit
# 0 or 1 and ndtri stays finite.
_U_DENOM = float(1 << 53)


@functools.cache
def _ndtri():
    """scipy's inverse normal CDF, imported on first use so that runs drawing
    no noise never load scipy."""
    from scipy.special import ndtri
    return ndtri


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
        u = self._gen.integers(1, 1 << 53, size=n).astype(np.float64) / _U_DENOM
        return _ndtri()(u)


# normals_block replays numpy's SeedSequence, PCG64 and bounded-integer code
# on uint64 arrays, one lane per stream (or per stream segment).
_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# SeedSequence hashing constants (numpy/random/bit_generator.pyx, pool of 4 words)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64 (XSL-RR) 128-bit LCG multiplier, and its (hi, lo) uint64 words
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _M64)
# integers(1, 2^53) is Lemire's method with range 2^53 - 1: a raw draw is
# rejected (and redrawn) when its low product word is below
# (2^64 - 2^53 + 1) mod (2^53 - 1) = 2^11, with probability 2^-53.
_LEMIRE_THRESHOLD = np.uint64(1 << 11)
# Lanes advanced together per step: fewer streams are split into segments.
_LANES = 8192


def _seed_words(seed: int, streams: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(seed, spawn_key=(p,)).generate_state(8)`` for every p in
    ``streams``: eight uint64 arrays of 32-bit words.

    Only the last mixing round takes p, so everything before it runs once on
    Python ints and that round runs on arrays.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [0] * (4 - len(entropy))  # a spawn key pads run entropy to the pool
    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:] + [streams]:
        pool = [mix(m, hashmix(word)) for m in pool]

    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    return words


def _mul128(ahi, alo, bhi, blo):
    """a * b mod 2^128 for 128-bit integers held as (hi, lo) uint64 words;
    the high word of alo * blo comes from 32-bit limbs."""
    a0, a1 = alo & _M32, alo >> 32
    b0, b1 = blo & _M32, blo >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return ahi * blo + alo * bhi + carry, alo * blo


def _add128(ahi, alo, bhi, blo):
    lo = alo + blo
    return ahi + bhi + (lo < blo), lo


def _split128(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([v >> 64 for v in values], dtype=np.uint64)[:, None],
            np.array([v & _M64 for v in values], dtype=np.uint64)[:, None])


def _jump(delta: int) -> tuple[int, int]:
    """(M^delta, 1 + M + ... + M^(delta-1)) mod 2^128 for the PCG64 multiplier
    M: ``delta`` steps take a state x to M^delta x + (that sum) * inc, by
    Brown's O(log delta) jump-ahead."""
    acc_mult, acc_plus, cur_mult, cur_plus = 1, 0, _PCG_MULT, 1
    while delta:
        if delta & 1:
            acc_mult = acc_mult * cur_mult & _M128
            acc_plus = (acc_plus * cur_mult + cur_plus) & _M128
        cur_plus = (cur_mult + 1) * cur_plus & _M128
        cur_mult = cur_mult * cur_mult & _M128
        delta >>= 1
    return acc_mult, acc_plus


def _segment_starts(seed: int, paths: int, seg_len: int, segments: int, first: int = 0):
    """PCG64 states (hi, lo) and increments (inc_hi, inc_lo) of the lanes:
    lane s * paths + p is stream first + p advanced by s * seg_len draws."""
    w = _seed_words(seed, np.arange(first, first + paths, dtype=np.uint64))
    init_hi, init_lo = w[0] | w[1] << 32, w[2] | w[3] << 32
    seq_hi, seq_lo = w[4] | w[5] << 32, w[6] | w[7] << 32
    # numpy's pcg64_srandom_r: inc = 2 * initseq + 1; the state is inc after
    # one step from 0, plus initstate, stepped once more
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    hi, lo = _add128(inc_hi, inc_lo, init_hi, init_lo)
    hi, lo = _add128(*_mul128(hi, lo, _MULT_HI, _MULT_LO), inc_hi, inc_lo)

    step_mult, step_plus = _jump(seg_len)
    mults, pluses = [1], [0]
    for _ in range(1, segments):
        mults.append(mults[-1] * step_mult & _M128)
        pluses.append((pluses[-1] * step_mult + step_plus) & _M128)
    hi, lo = _add128(*_mul128(*_split128(mults), hi, lo),
                     *_mul128(*_split128(pluses), inc_hi, inc_lo))
    inc_hi, inc_lo = np.broadcast_to(inc_hi, hi.shape), np.broadcast_to(inc_lo, lo.shape)
    return hi.ravel(), lo.ravel(), inc_hi.ravel(), inc_lo.ravel()


def _lemire(raw):
    """numpy's ``integers(1, 2**53)`` draw from the raw 64-bit output, and the
    low word of raw * (2^53 - 1), below ``_LEMIRE_THRESHOLD`` when numpy
    rejects the draw."""
    # raw * (2^53 - 1) = 2^64 * (raw >> 11) + t - raw with t = (raw & 2047) << 53;
    # the draw is 1 + the high word, which borrows one when t < raw
    t = (raw & 2047) << 53
    return (raw >> 11) + (t >= raw), t - raw


def normals_block(seed: int, paths: int, n: int, first: int = 0) -> np.ndarray:
    """C-contiguous (n, paths) standard normals whose column p equals
    ``RandomSource(seed, first + p).normals(n)`` bit for bit, so consecutive
    blocks of streams can be drawn one after another.

    Every stream is one lane of uint64 arrays, all advanced together; fewer
    than ``_LANES`` streams are cut into consecutive segments, each started
    by jump-ahead, so that each step stays about ``_LANES`` wide.  A column
    in which numpy would reject a draw (probability 2^-53 per draw) is
    redrawn through :class:`RandomSource`.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if first < 0 or first + paths > 1 << 32:
        raise ValueError(f"stream ids must be below 2**32, got streams {first} to "
                         f"{first + paths - 1}")
    out = np.empty((n, paths))
    if out.size == 0:
        return out
    segments = max(1, min(n, _LANES // paths))
    seg_len = -(-n // segments)
    segments = -(-n // seg_len)
    hi, lo, inc_hi, inc_lo = _segment_starts(seed, paths, seg_len, segments, first)
    least_low = np.full(hi.shape, _M64, dtype=np.uint64)
    for j in range(seg_len):
        hi, lo = _add128(*_mul128(hi, lo, _MULT_HI, _MULT_LO), inc_hi, inc_lo)
        rows = out[j::seg_len]  # row j of every segment still running
        m = rows.size
        x = hi[:m] ^ lo[:m]
        rot = hi[:m] >> 58
        draws, low = _lemire(x >> rot | x << (64 - rot & 63))
        np.minimum(least_low[:m], low, out=least_low[:m])
        rows[...] = draws.reshape(rows.shape)
    out *= 1.0 / _U_DENOM
    _ndtri()(out, out=out)
    rejected = (least_low < _LEMIRE_THRESHOLD).reshape(segments, paths).any(axis=0)
    for p in np.flatnonzero(rejected):
        out[:, p] = RandomSource(seed, first + int(p)).normals(n)
    return out


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
