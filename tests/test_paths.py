import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

import lobres.paths as paths_module
from helpers import reference_increments
from lobres import (FundamentalSpec, RandomSource, SampledPath, constant_path,
                    function_path, make_grid)
from lobres.experiments import brownian_increments
from lobres.paths import _lemire, _segment_starts, normals_block


def terminal_values(grid, seed, paths):
    """W_T of streams 0..paths-1."""
    return np.cumsum(brownian_increments(grid, seed, paths), axis=0)[-1]


class TestMakeGrid:
    def test_points(self):
        grid = make_grid(1.0, 4)
        np.testing.assert_array_equal(grid.points(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_minimal_grid(self):
        grid = make_grid(1.0, 1)
        np.testing.assert_array_equal(grid.points(), [0.0, 1.0])

    @pytest.mark.parametrize("horizon,steps", [(0.0, 4), (-1.0, 4), (1.0, 0), (1.0, -2)])
    def test_invalid_arguments(self, horizon, steps):
        with pytest.raises(ValueError):
            make_grid(horizon, steps)

    def test_spacing(self):
        grid = make_grid(2.5, 10)
        assert grid.dt == pytest.approx(0.25)
        assert grid.n_points == 11


class TestSampledPath:
    def test_length_mismatch(self):
        grid = make_grid(1.0, 4)
        with pytest.raises(ValueError):
            SampledPath(grid, np.zeros(4))

    def test_nonfinite_rejected(self):
        grid = make_grid(1.0, 2)
        with pytest.raises(ValueError):
            SampledPath(grid, np.array([0.0, np.nan, 1.0]))


# the price sampler of simulate, here a standard Brownian path
BROWNIAN = FundamentalSpec(s0=0.0, sigma=1.0)


class TestBrownian:
    def test_determinism(self):
        grid = make_grid(1.0, 64)
        a = BROWNIAN.sample(grid, RandomSource(123, 5))
        b = BROWNIAN.sample(grid, RandomSource(123, 5))
        np.testing.assert_array_equal(a.values, b.values)

    def test_streams_differ(self):
        grid = make_grid(1.0, 64)
        a = BROWNIAN.sample(grid, RandomSource(123, 0))
        b = BROWNIAN.sample(grid, RandomSource(123, 1))
        assert not np.array_equal(a.values, b.values)

    def test_terminal_moments(self):
        # 1e5 paths of W_1 on a single-step grid: mean near 0, variance near 1
        grid = make_grid(1.0, 1)
        w1 = terminal_values(grid, 2024, 100_000)
        for p in range(3):
            assert BROWNIAN.sample(grid, RandomSource(2024, p)).values[1] == w1[p]
        assert abs(w1.mean()) <= 4e-2
        assert abs(w1.var() - 1.0) <= 0.02

    def test_refinement_leaves_terminal_distribution_unchanged(self):
        # Kolmogorov-Smirnov on W_T sampled with N and 2N steps
        a = terminal_values(make_grid(1.0, 32), 7, 10_000)
        b = terminal_values(make_grid(1.0, 64), 8, 10_000)
        assert ks_2samp(a, b).pvalue > 0.01


class TestNormalsBlock:
    def test_segment_starts_are_numpy_jump_ahead(self):
        seed, paths, seg_len = 2**130 + 9, 3, 2**40 + 3
        hi, lo, inc_hi, inc_lo = _segment_starts(seed, paths, seg_len, 4)
        for s in range(4):
            for p in range(paths):
                ss = np.random.SeedSequence(seed, spawn_key=(p,))
                state = np.random.PCG64(ss).advance(s * seg_len).state["state"]
                lane = s * paths + p
                assert int(hi[lane]) << 64 | int(lo[lane]) == state["state"]
                assert int(inc_hi[lane]) << 64 | int(inc_lo[lane]) == state["inc"]

    def test_lemire_decode_matches_128_bit_product(self):
        # numpy: draw = 1 + high word of raw * rng_excl, rejected while the low
        # word is below (UINT64_MAX - rng) % rng_excl, for rng = 2^53 - 2
        rng = 2**53 - 2
        assert int(paths_module._LEMIRE_THRESHOLD) == (2**64 - 1 - rng) % (rng + 1)
        raws = [0, 1, 2047, 2048, 2**53 - 1, 2**53, 2**63, 2**64 - 1]
        raws += [int(r) for r in np.random.default_rng(5).integers(0, 2**64, 200,
                                                                      dtype=np.uint64)]
        draws, low = _lemire(np.array(raws, dtype=np.uint64))
        for raw, d, lw in zip(raws, draws, low):
            assert int(d) == 1 + (raw * (rng + 1) >> 64)
            assert int(lw) == raw * (rng + 1) & (2**64 - 1)

    @pytest.mark.parametrize("threshold,redrawn", [(None, []), (2**64 - 1, [0, 1, 2, 3, 4])])
    def test_rejected_draws_fall_back_to_random_source(self, monkeypatch, threshold,
                                                       redrawn):
        # at the largest threshold every lane's low word counts as rejected, so
        # every column is redrawn; at numpy's threshold none of these is
        made = []

        class CountingSource(RandomSource):
            def __post_init__(self):
                made.append(self.stream)
                super().__post_init__()

        if threshold is not None:
            monkeypatch.setattr(paths_module, "_LEMIRE_THRESHOLD", np.uint64(threshold))
        monkeypatch.setattr(paths_module, "RandomSource", CountingSource)
        block = normals_block(42, 5, 300)
        assert sorted(made) == redrawn
        monkeypatch.undo()
        # dt = 1, so the reference increments are the normals themselves
        expected = reference_increments(make_grid(300.0, 300), 42, 5)
        assert block.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed_raises(self, seed):
        with pytest.raises(ValueError, match="non-negative"):
            normals_block(seed, 3, 4)

    def test_stream_ids_below_two_to_the_32(self):
        # n = 0: nothing is drawn, only the stream ids are checked
        assert normals_block(1, 2**32, 0).shape == (0, 2**32)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            normals_block(1, 2**32 + 1, 0)

    @pytest.mark.parametrize("first,paths,n", [
        (8000, 300, 5),   # the offset block is split into segments, the whole one is not
        (8191, 2, 37),    # straddles _LANES
        (0, 1, 37), (7, 1, 37), (8500, 1, 4),  # one stream
        (3, 50, 1), (100, 900, 3),
    ])
    def test_offset_block_is_a_column_slice(self, first, paths, n):
        whole = normals_block(77, first + paths, n)
        block = normals_block(77, paths, n, first=first)
        assert block.flags.c_contiguous
        assert block.tobytes() == np.ascontiguousarray(whole[:, first:]).tobytes()

    def test_offset_block_falls_back_to_its_own_streams(self, monkeypatch):
        # at the largest threshold every column is redrawn through RandomSource,
        # which must be keyed by the stream id first + p
        made = []

        class CountingSource(RandomSource):
            def __post_init__(self):
                made.append(self.stream)
                super().__post_init__()

        expected = normals_block(42, 9, 40)[:, 4:]
        monkeypatch.setattr(paths_module, "_LEMIRE_THRESHOLD", np.uint64(2**64 - 1))
        monkeypatch.setattr(paths_module, "RandomSource", CountingSource)
        block = normals_block(42, 5, 40, first=4)
        assert made == [4, 5, 6, 7, 8]
        assert block.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_offset_stream_ids_below_two_to_the_32(self):
        # n = 0: nothing is drawn, only the stream ids are checked
        assert normals_block(1, 5, 0, first=2**32 - 5).shape == (0, 5)
        assert normals_block(1, 1, 0, first=2**32 - 1).shape == (0, 1)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            normals_block(1, 5, 0, first=2**32 - 4)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            normals_block(1, 1, 0, first=-1)


class TestDeterministicPaths:
    def test_constant(self):
        grid = make_grid(1.0, 8)
        np.testing.assert_array_equal(constant_path(grid, 2.0).values, np.full(9, 2.0))

    def test_function_of_time(self):
        grid = make_grid(1.0, 8)
        p = function_path(grid, lambda t: t)
        np.testing.assert_array_equal(p.values, grid.points())

    def test_pole_rejected(self):
        # detection is pointwise: the pole must land on a sampled point
        grid = make_grid(1.0, 4)
        with pytest.raises(ValueError):
            function_path(grid, lambda t: 1.0 / (t - 0.5) if t != 0.5 else math.inf)

    def test_constant_nonfinite(self):
        with pytest.raises(ValueError):
            constant_path(make_grid(1.0, 4), math.nan)
