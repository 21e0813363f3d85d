"""Time grids, sampled paths, deterministic-seeded path generation, and the
CSV writer of the run artifacts.

Gaussian draws are produced by applying the inverse normal CDF to uniform
variates from a PCG64 stream keyed by ``(seed, stream)``.  The method is
fixed so that identical keys reproduce identical paths and golden files
stay stable across runs.  :class:`RandomSource` draws one stream through
numpy; :func:`normals_block` draws many streams at once with the same bits.
The inverse CDF is scipy's ``ndtri`` ufunc, loaded from its extension module
without running ``scipy.special``'s package init (see :func:`_ndtri`).
:class:`IndexStream` draws numpy's bounded integers of one stream, the
utility bootstrap's resample indices, by the same replay, so only
``RandomSource`` (the fallback for a draw numpy rejects) imports
``numpy.random``.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import os
import re
import sys
import types
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericFailure

# Uniform draws are integers in [1, 2^53) scaled by 2^-53, so they never hit
# 0 or 1 and ndtri stays finite.
_U_DENOM = float(1 << 53)


@functools.cache
def _ndtri():
    """scipy's inverse normal CDF, imported on first use so that runs drawing
    no noise never load scipy.

    The ufunc is loaded from ``scipy.special._ufuncs`` without running
    ``scipy.special``'s package init, which imports ``array_api_compat``,
    ``numpy.testing`` and ``numpy.f2py`` (about 0.3 s and 15 MiB of RSS).
    Unless the package is already imported, a bare module whose ``__path__``
    is scipy's ``special`` directory stands in for it while the extension
    loads, so the extension's relative imports of its sibling extensions
    resolve, and is removed afterwards.  A later ``import scipy.special``
    reuses the loaded extension, so its ``ndtri`` is this very ufunc.
    """
    bare = None
    if "scipy.special" not in sys.modules:
        import scipy
        bare = types.ModuleType("scipy.special")
        bare.__path__ = [os.path.join(entry, "special") for entry in scipy.__path__]
        sys.modules["scipy.special"] = bare
    try:
        from scipy.special._ufuncs import ndtri
    finally:
        if bare is not None:
            del sys.modules["scipy.special"]
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


# normals_block and IndexStream replay numpy's SeedSequence, PCG64 and
# bounded-integer code on uint64 arrays, one lane per stream (or per stream
# segment, or per interleaved share of one stream).
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


def _words(value: int) -> list[int]:
    """numpy's coercion of a non-negative int to 32-bit words, least
    significant first (0 is one word)."""
    return [value >> s & _M32 for s in range(0, max(value.bit_length(), 1), 32)]


def _seed_words(seed: int, spawn: list) -> list[np.ndarray]:
    """``SeedSequence(seed, spawn_key=key).generate_state(8)``, as eight
    uint64 arrays of 32-bit words, for the spawn keys whose 32-bit words are
    ``spawn``: uint64 arrays, one entry per key (``[streams]`` for the keys
    ``(p,)``, p in ``streams``).

    Only the mixing rounds after the run entropy take the key, so everything
    before them runs once on Python ints and they run on arrays.
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

    entropy = _words(seed)
    entropy += [0] * (4 - len(entropy))  # a spawn key pads run entropy to the pool
    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:] + spawn:
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


def _split128(value: int) -> tuple[np.uint64, np.uint64]:
    return np.uint64(value >> 64), np.uint64(value & _M64)


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


def _segment_starts(seed: int, spawn: list, seg_len: int, segments: int):
    """PCG64 states (hi, lo) and increments (inc_hi, inc_lo) of the lanes:
    lane s * keys + k is the stream of spawn key k (``spawn`` as in
    ``_seed_words``) advanced by s * seg_len draws."""
    w = _seed_words(seed, spawn)
    # numpy's pcg64_srandom_r: inc = 2 * initseq + 1; the state is inc after
    # one step from 0, plus initstate, stepped once more.  Each seed word is
    # dropped after its last use.
    seq_hi, seq_lo = w[4] | w[5] << 32, w[6] | w[7] << 32
    del w[4:]
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    del seq_hi, seq_lo
    hi, lo = _add128(inc_hi, inc_lo, w[0] | w[1] << 32, w[2] | w[3] << 32)
    del w
    hi, lo = _add128(*_mul128(hi, lo, _MULT_HI, _MULT_LO), inc_hi, inc_lo)
    if segments == 1:
        return hi, lo, inc_hi, inc_lo

    # segment s starts at M^(s L) x + S_(s L) inc for L = seg_len (see
    # _jump); segments k .. 2k - 1 are segments 0 .. k - 1 advanced by k L
    # draws, so the starts double on (hi, lo) words, with no Python int kept
    # per segment
    m_hi, m_lo, p_hi, p_lo = np.zeros((4, segments, 1), dtype=np.uint64)
    m_lo[0] = 1
    k = 1
    while k < segments:
        c = min(k, segments - k)
        (mh, ml), (ph, pl) = map(_split128, _jump(k * seg_len))
        m_hi[k:k + c], m_lo[k:k + c] = _mul128(m_hi[:c], m_lo[:c], mh, ml)
        p_hi[k:k + c], p_lo[k:k + c] = _add128(*_mul128(p_hi[:c], p_lo[:c], mh, ml), ph, pl)
        k += c
    hi, lo = _add128(*_mul128(m_hi, m_lo, hi, lo), *_mul128(p_hi, p_lo, inc_hi, inc_lo))
    inc_hi, inc_lo = np.broadcast_to(inc_hi, hi.shape), np.broadcast_to(inc_lo, lo.shape)
    return hi.ravel(), lo.ravel(), inc_hi.ravel(), inc_lo.ravel()


def _xsl_rr(hi, lo):
    """PCG64's 64-bit outputs of the states (hi, lo): their xor, rotated right
    by the top six bits of hi."""
    x = hi ^ lo
    rot = hi >> 58
    return x >> rot | x << (64 - rot & 63)


def _lemire(raw):
    """numpy's ``integers(1, 2**53)`` draw from the raw 64-bit output, and the
    low word of raw * (2^53 - 1), below ``_LEMIRE_THRESHOLD`` when numpy
    rejects the draw."""
    # raw * (2^53 - 1) = 2^64 * (raw >> 11) + t - raw with t = (raw & 2047) << 53;
    # the draw is 1 + the high word, which borrows one when t < raw
    t = (raw & 2047) << 53
    return (raw >> 11) + (t >= raw), t - raw


def lane_layout(paths: int, n: int) -> tuple[int, int]:
    """(segments, segment length) of ``normals_block``'s lanes for an (n, paths)
    block: each stream is cut into segments of consecutive draws so that the
    ``segments * paths`` lanes make each step about ``_LANES`` wide."""
    seg_len = -(-n // max(1, min(n, _LANES // paths)))
    return -(-n // seg_len), seg_len


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
    segments, seg_len = lane_layout(paths, n)
    hi, lo, inc_hi, inc_lo = _segment_starts(
        seed, [np.arange(first, first + paths, dtype=np.uint64)], seg_len, segments)
    least_low = np.full(hi.shape, _M64, dtype=np.uint64)
    for j in range(seg_len):
        hi, lo = _add128(*_mul128(hi, lo, _MULT_HI, _MULT_LO), inc_hi, inc_lo)
        rows = out[j::seg_len]  # row j of every segment still running
        m = rows.size
        draws, low = _lemire(_xsl_rr(hi[:m], lo[:m]))
        np.minimum(least_low[:m], low, out=least_low[:m])
        rows[...] = draws.reshape(rows.shape)
    out *= 1.0 / _U_DENOM
    _ndtri()(out, out=out)
    rejected = (least_low < _LEMIRE_THRESHOLD).reshape(segments, paths).any(axis=0)
    for p in np.flatnonzero(rejected):
        out[:, p] = RandomSource(seed, first + int(p)).normals(n)
    return out


class IndexStream:
    """Successive ``integers(0, bound, size=n)`` draws of numpy's
    ``Generator(PCG64(SeedSequence(seed, spawn_key=(stream,))))``, replayed
    without importing ``numpy.random``: ``take(n)`` after ``take(m)`` gives
    the int64 integers that one generator gives on those two calls.

    numpy draws each integer from a 32-bit word w (32-bit Lemire): it is
    ``(w * bound) >> 32``, and w is skipped when ``(w * bound) mod 2**32`` is
    below ``2**32 mod bound``.  Each 64-bit PCG64 output gives two words, its
    low half first, and a call that ends on a low half leaves the high half
    to the next.  Here ``_LANES`` lanes hold every ``_LANES``-th output of
    the one stream, started once by jump-ahead and advanced ``_LANES`` draws
    per step; integers accepted beyond one call's count carry to the next.
    """

    def __init__(self, seed: int, stream: int, bound: int) -> None:
        seed, stream, bound = map(operator.index, (seed, stream, bound))
        if seed < 0 or stream < 0:
            raise ValueError(f"seed and stream must be non-negative integers, got {seed} "
                             f"and {stream}")
        if not 0 < bound < 1 << 32:
            raise ValueError(f"bound must be in [1, 2**32), got {bound}")
        self._bound, self._threshold = np.uint64(bound), (1 << 32) % bound
        spawn = [np.full(1, word, dtype=np.uint64) for word in _words(stream)]
        hi, lo, inc_hi, inc_lo = _segment_starts(seed, spawn, 1, _LANES)
        # lane s starts at the state after s + 1 draws, whose output is the s-th
        self._hi, self._lo = _add128(*_mul128(hi, lo, _MULT_HI, _MULT_LO), inc_hi, inc_lo)
        mult, plus = _jump(_LANES)
        inc = int(inc_hi[0]) << 64 | int(inc_lo[0])
        self._mult, self._plus = _split128(mult), _split128(plus * inc & _M128)
        self._carry = np.empty(0, dtype=np.int64)

    def _next(self) -> np.ndarray:
        """The integers of the lanes' next ``2 * _LANES`` words, rejected
        words left out, and the lanes advanced."""
        words = np.ascontiguousarray(_xsl_rr(self._hi, self._lo), dtype="<u8").view("<u4")
        self._hi, self._lo = _add128(*_mul128(self._hi, self._lo, *self._mult), *self._plus)
        m = words * self._bound
        m = m[m.astype(np.uint32) >= self._threshold]
        return (m >> 32).view(np.int64)

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` integers."""
        out = np.empty(n, dtype=np.int64)
        filled = min(n, len(self._carry))
        out[:filled], self._carry = self._carry[:filled], self._carry[filled:]
        while filled < n:
            drawn = self._next()
            k = min(n - filled, len(drawn))
            out[filled:filled + k], self._carry = drawn[:k], drawn[k:]
            filled += k
        return out


def constant_path(grid: TimeGrid, c: float) -> SampledPath:
    """Path equal to c at every grid point, held as one value: its values are
    a read-only zero-stride view, so writing into them raises ValueError."""
    if not math.isfinite(c):
        raise NumericFailure(f"constant path value must be finite, got {c!r}")
    return SampledPath(grid, np.broadcast_to(float(c), (grid.n_points,)))


def function_path(grid: TimeGrid, f: Callable[[float], float]) -> SampledPath:
    """Pointwise evaluation of f on the grid, at its points as Python floats,
    whose arithmetic overflows to inf without a numpy warning."""
    values = np.fromiter(map(f, map(float, grid.points())), np.float64, grid.n_points)
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


# Rows formatted and written at once by write_tables.
_BLOCK_ROWS = 2048
# A cell the csv module would quote: write_tables refuses it.
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _array_texts(values: np.ndarray) -> list[str]:
    """``repr(float(v))`` of a non-empty float array's cells, formatted once
    per run of equal bit patterns (the uint64 view keeps -0.0, 0.0 and NaN
    payloads apart); ``str`` of an integer array's cells.  A block that is
    one run is one text repeated.

    Runs rather than ``np.unique``: its first call pages in about 0.5 MB of
    numpy's sort code, which a run whose memory peaks while it writes its
    artifacts would pay in peak RSS."""
    if values.dtype.kind != "f":
        return list(map(str, values.tolist()))
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits = values.view(np.uint64)
    firsts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    if len(firsts) == 1:
        return [repr(float(values[0]))] * len(values)
    texts = np.array(list(map(repr, values[firsts].tolist())), dtype=object)
    return np.repeat(texts, np.diff(firsts, append=len(values))).tolist()


def _table_parts(table: dict) -> tuple[list, list, int]:
    """(header, columns, rows) of a table write_tables accepts, or the
    ValueError that refuses it."""
    header, columns = list(table), list(table.values())
    for texts in [header, *(c for c in columns if isinstance(c, list))]:
        if any(map(_NEEDS_QUOTES.search, texts)):
            raise ValueError("a CSV cell or column name holds ',', '\"', '\\r' or '\\n'")
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns differ in length: {sorted(lengths)}")
    if len(columns) == 1 and ("" in header or isinstance(columns[0], list) and "" in columns[0]):
        raise ValueError("a one-column CSV table has an empty name or cell")
    return header, columns, lengths.pop() if columns else 0


def write_tables(tables: dict) -> None:
    """Write each table of ``tables``, a map from file path to table, as CSV.
    A table is an ordered map from column name to column, with the names as
    header; a column is a 1-D array or a list of ready text cells, all of one
    length.  The bytes are the csv module's: a float array cell is
    ``repr(float(v))`` and lines end in ``\\r\\n``.  A name or list cell the
    csv module would quote, columns of unequal length, and a one-column table
    with an empty name or cell (which it writes as ``""``), are refused with
    ValueError before any file is opened.

    Rows are formatted and written in blocks of ``_BLOCK_ROWS``, one pass
    over all tables together; within a block, an array block with the dtype
    and bytes of one already formatted (a time grid in two tables, a column
    equal to another away from a few rows) reuses its texts."""
    parts = [(path, *_table_parts(table)) for path, table in tables.items()]
    with contextlib.ExitStack() as stack:
        files = []
        for path, header, columns, rows in parts:
            fh = stack.enter_context(open(path, "w", newline=""))
            fh.write(",".join(header) + "\r\n")
            files.append((fh, columns, rows))
        for a in range(0, max((rows for *_, rows in parts), default=0), _BLOCK_ROWS):
            formatted: dict[tuple[str, bytes], list[str]] = {}
            for fh, columns, rows in files:
                if a >= rows:
                    continue
                block = []
                for c in columns:
                    cells = c[a:a + _BLOCK_ROWS]
                    if not isinstance(cells, list):
                        key = (cells.dtype.str, cells.tobytes())
                        if key not in formatted:
                            formatted[key] = _array_texts(cells)
                        cells = formatted[key]
                    block.append(cells)
                fh.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")
