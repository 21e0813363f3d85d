import math

import numpy as np
import pytest

from lobres import (BookParams, SampledPath, Strategy, TrackerSpec, block_schedule,
                    constant_path, exponential_tracker, function_path, make_grid,
                    optimal_tracker, position_paths, rate_strategy, read_strategy_csv,
                    smooth_blocks, write_strategy_csv)


class TestStrategy:
    def test_duplicate_block_index_rejected(self):
        grid = make_grid(1.0, 10)
        with pytest.raises(ValueError):
            Strategy(grid, constant_path(grid, 0.0), ((3, 1.0), (3, -1.0)))

    def test_zero_block_rejected(self):
        grid = make_grid(1.0, 10)
        with pytest.raises(ValueError):
            Strategy(grid, constant_path(grid, 0.0), ((3, 0.0),))

    def test_positions(self):
        grid = make_grid(1.0, 4)
        strat = Strategy(grid, constant_path(grid, 2.0), ((0, 1.0), (2, -0.5)), phi0=3.0)
        pre, post = position_paths(strat)
        np.testing.assert_allclose(post, [4.0, 4.5, 4.5, 5.0, 5.5])
        np.testing.assert_allclose(pre, [3.0, 4.5, 5.0, 5.0, 5.5])

    def test_csv_round_trip(self, tmp_path):
        grid = make_grid(1.0, 8)
        strat = Strategy(grid, function_path(grid, lambda t: math.sin(t)),
                         ((1, 0.5), (7, -1.25)), phi0=0.25)
        f = tmp_path / "strategy.csv"
        write_strategy_csv(strat, f)
        loaded = read_strategy_csv(grid, f, phi0=0.25)
        np.testing.assert_array_equal(loaded.rate.values, strat.rate.values)
        assert loaded.blocks == strat.blocks


class TestBlockSchedule:
    def test_nearest_grid_point(self):
        grid = make_grid(1.0, 100)
        strat = block_schedule(grid, [(0.5, 1.0)], t_prime=0.9)
        assert strat.blocks == ((50, 1.0),)
        assert np.all(strat.rate.values == 0.0)

    def test_empty_is_zero_strategy(self):
        grid = make_grid(1.0, 100)
        strat = block_schedule(grid, [], t_prime=0.9)
        assert strat.blocks == ()
        assert np.all(strat.rate.values == 0.0)

    def test_collision_after_rounding(self):
        grid = make_grid(1.0, 10)
        with pytest.raises(ValueError):
            block_schedule(grid, [(0.501, 1.0), (0.502, 1.0)], t_prime=0.9)

    def test_time_beyond_t_prime(self):
        grid = make_grid(1.0, 10)
        with pytest.raises(ValueError):
            block_schedule(grid, [(0.95, 1.0)], t_prime=0.9)


class TestSmoothBlocks:
    def test_basic_window(self):
        # kappa = 16 gives window width 0.5 and rate theta / 0.5 = 2
        grid = make_grid(1.0, 100)
        strat = block_schedule(grid, [(0.0, 1.0)], t_prime=0.5)
        smoothed = smooth_blocks(strat, kappa=16.0, width_scale=1.0)
        assert smoothed.blocks == ()
        np.testing.assert_allclose(smoothed.rate.values[:50], 2.0)
        np.testing.assert_array_equal(smoothed.rate.values[50:], 0.0)

    def test_volume_conserved_exactly(self):
        grid = make_grid(1.0, 97)  # dt does not divide the window width
        strat = block_schedule(grid, [(0.1, 0.7), (0.5, -1.3)], t_prime=0.6)
        smoothed = smooth_blocks(strat, kappa=256.0)
        total = np.sum(smoothed.rate_steps) * grid.dt
        assert total == pytest.approx(0.7 - 1.3, abs=1e-15)
        tv = np.sum(np.abs(smoothed.rate_steps)) * grid.dt
        assert tv == pytest.approx(2.0, abs=1e-12)

    def test_pointwise_convergence_to_blocks(self):
        grid = make_grid(1.0, 512)
        strat = block_schedule(grid, [(0.25, 1.0)], t_prime=0.5)
        _, block_pos = position_paths(strat)
        for kappa in (16.0, 256.0, 4096.0):
            _, pos = position_paths(smooth_blocks(strat, kappa))
            width = kappa ** -0.25
            outside = grid.points() < 0.25
            outside |= grid.points() > 0.25 + width + grid.dt
            np.testing.assert_allclose(pos[outside], block_pos[outside], atol=1e-12)

    def test_window_past_horizon(self):
        grid = make_grid(1.0, 100)
        strat = Strategy(grid, constant_path(grid, 0.0), ((95, 1.0),))
        with pytest.raises(ValueError):
            smooth_blocks(strat, kappa=16.0)  # width 0.5 does not fit

    def test_overlapping_windows(self):
        grid = make_grid(1.0, 100)
        strat = Strategy(grid, constant_path(grid, 0.0), ((10, 1.0), (12, 1.0)))
        with pytest.raises(ValueError):
            smooth_blocks(strat, kappa=16.0)

    def test_rate_strategy_rejected(self):
        grid = make_grid(1.0, 100)
        with pytest.raises(ValueError):
            smooth_blocks(rate_strategy(grid, 1.0), kappa=16.0)


class TestExponentialTracker:
    def test_constant_target_never_trades(self):
        grid = make_grid(1.0, 64)
        spec = TrackerSpec(constant_path(grid, 2.5), constant_path(grid, 1.0), 64.0)
        strat = exponential_tracker(spec)
        assert np.all(strat.rate.values == 0.0)
        assert strat.phi0 == 2.5

    def test_linear_target_closed_form(self):
        # target t -> t with constant speed a: position t - (1 - e^{-at}) / a
        kappa, m = 64.0, 1.5
        a = math.sqrt(kappa) * m

        def closed_form(t):
            return t - (1.0 - math.exp(-a * t)) / a

        errors = []
        for n in (256, 512):
            grid = make_grid(1.0, n)
            spec = TrackerSpec(function_path(grid, lambda t: t),
                               constant_path(grid, m), kappa)
            _, pos = position_paths(exponential_tracker(spec))
            exact = np.array([closed_form(t) for t in grid.points()])
            errors.append(np.max(np.abs(pos - exact)))
        assert errors[0] <= 5.0 * a / 256  # O(dt)
        assert errors[1] <= 0.75 * errors[0]  # first-order refinement

    def test_stiff_step_never_overshoots(self):
        grid = make_grid(1.0, 4)
        kappa = (1e3 / (grid.dt * 2.0)) ** 2  # sqrt(kappa) * M * dt = 1e3
        spec = TrackerSpec(function_path(grid, lambda t: t),
                           constant_path(grid, 2.0), kappa)
        _, pos = position_paths(exponential_tracker(spec))
        targets = grid.points()
        for i in range(grid.steps):
            lo, hi = sorted((pos[i], targets[i]))
            assert lo - 1e-12 <= pos[i + 1] <= hi + 1e-12

    def test_nonpositive_rate_scale_rejected(self):
        grid = make_grid(1.0, 8)
        with pytest.raises(ValueError):
            TrackerSpec(constant_path(grid, 1.0), constant_path(grid, 0.0), 4.0)


class TestOptimalTracker:
    def test_zero_volatility_freezes_position(self):
        grid = make_grid(1.0, 32)
        book = BookParams.build(grid, 64.0)
        strat = optimal_tracker(book, constant_path(grid, 0.0),
                                constant_path(grid, 0.5),
                                function_path(grid, lambda t: 1.0 + t))
        assert np.all(strat.rate.values == 0.0)
        assert strat.phi0 == 1.0

    def test_rate_scale_arithmetic(self):
        # K = h = sigma = 1 and R = 1/2 give M = 1
        grid = make_grid(1.0, 32)
        book = BookParams.build(grid, 64.0)
        sigma = constant_path(grid, 1.0)
        target = function_path(grid, lambda t: t)
        ref = exponential_tracker(TrackerSpec(target, constant_path(grid, 1.0), 64.0))
        strat = optimal_tracker(book, sigma, constant_path(grid, 0.5), target)
        np.testing.assert_allclose(strat.rate.values, ref.rate.values, rtol=1e-14)

    def test_risk_tolerance_scaling(self):
        # doubling R divides the tracking speed by sqrt(2)
        grid = make_grid(1.0, 32)
        book = BookParams.build(grid, 64.0)
        sigma = constant_path(grid, 1.0)
        target = function_path(grid, lambda t: t)
        fast = optimal_tracker(book, sigma, constant_path(grid, 0.5), target)
        slow = optimal_tracker(book, sigma, constant_path(grid, 1.0), target)
        ref = exponential_tracker(TrackerSpec(target,
                                              constant_path(grid, 1.0 / math.sqrt(2)),
                                              64.0))
        np.testing.assert_allclose(slow.rate.values, ref.rate.values, rtol=1e-14)
        assert np.max(np.abs(slow.rate.values)) < np.max(np.abs(fast.rate.values))

    def test_asymmetric_book_rejected(self):
        grid = make_grid(1.0, 32)
        book = BookParams.build(grid, 64.0, h=1.0, h_dn=2.0)
        with pytest.raises(ValueError):
            optimal_tracker(book, constant_path(grid, 1.0), constant_path(grid, 1.0),
                            constant_path(grid, 1.0))

    def test_nonpositive_risk_tolerance_rejected(self):
        grid = make_grid(1.0, 32)
        book = BookParams.build(grid, 64.0)
        with pytest.raises(ValueError):
            optimal_tracker(book, constant_path(grid, 1.0), constant_path(grid, 0.0),
                            constant_path(grid, 1.0))


class TestDiagnostics:
    """Rates of trackers across kappa."""

    def test_tracker_rate_growth(self):
        # tracker rates grow at most like kappa^(1/4).  The boundedness is an
        # L2 statement per time point, so aggregate across paths before the
        # time sup (a single path's sup adds an extreme-value log factor).
        grid = make_grid(1.0, 512)
        from lobres import fit_rate
        from lobres.experiments import brownian_increments
        from lobres.strategies import relax_positions
        n_paths = 256
        targets = np.zeros((grid.n_points, n_paths))  # time-major Brownian paths
        np.cumsum(brownian_increments(grid, 17, n_paths), axis=0, out=targets[1:])
        m = np.ones(grid.n_points)
        kappas = [2.0**j for j in range(4, 11)]
        sup_rms = []
        for kappa in kappas:
            pos = relax_positions(targets, m, kappa, grid.dt)
            rates = np.diff(pos, axis=0) / grid.dt
            sup_rms.append(float(np.max(np.sqrt(np.mean(rates**2, axis=1)))))
        assert fit_rate(list(zip(kappas, sup_rms))) <= 0.3
