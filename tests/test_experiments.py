import csv
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lobres.experiments as experiments_module
from helpers import (count_shared_bytes, force_workers, reference_increments,
                     reference_lemma_jump_experiment, reference_sample,
                     reference_tracker_bound_experiment, reference_utility_experiment,
                     run_lemma_jump, run_tracker_bound, run_utility)
from lobres import (BookParams, FundamentalSpec, KappaLadder, RandomSource, TimeGrid,
                    ac_wealth, check_uniform_bounds, fit_rate, ladder_grid,
                    ow_wealth, rate_strategy, theorem1_experiment)
from lobres.cli import _gates
from lobres.config import lane_bytes
from lobres.experiments import (ConvergenceReport, LemmaJumpReport, TrackerBoundReport,
                                UtilityReport, brownian_increments, tracker_bound_experiment,
                                tracker_bound_inputs, utility_trackers)
from lobres.paths import write_tables
from lobres.strategies import block_schedule, smooth_blocks, smoothing_windows


SMALL_LADDER = KappaLadder.geometric(16.0, 2.0, 5)
# Inputs the tests vary one at a time: a Brownian target from 0 tracked at
# unit rate within unit bounds, and three tracker speeds from no initial wealth.
UNIT_TRACKER = dict(target_drift=0.0, target_vol=1.0, rate_scale=1.0, coeff_bound=1.0,
                    rate_floor=1.0, target0=0.0)
THREE_SPEEDS = dict(multipliers=(0.5, 1.0, 2.0), x0=0.0)
# what tracker_bound_inputs takes of UNIT_TRACKER
UNIT_COEFFS = {k: v for k, v in UNIT_TRACKER.items() if k != "target0"}
# the bounds of the shipped l2 config
L2_BOUNDS = {"rate_bound": 1.5, "coefficient_bound": 2.0, "resilience_floor": 0.5}


def _grid(kappa_max, n0=512, resolution_scale=4.0):
    """The grid a run on [0, 1] sizes for ``kappa_max``."""
    return ladder_grid(1.0, n0, resolution_scale, kappa_max)


def _base(rate, ladder=SMALL_LADDER):
    """The gap experiment's base strategy at ``rate`` on ``ladder``'s grid."""
    return rate_strategy(_grid(ladder.max), rate)


def _ce_one_sample(x, gamma):
    """Reference certainty equivalent of one sample, shifted by its minimum."""
    xmin = float(x.min())
    return xmin - math.log(float(np.mean(np.exp(-gamma * (x - xmin))))) / gamma


class TestKappaLadder:
    def test_geometric(self):
        ladder = KappaLadder.geometric(16.0, 2.0, 9)
        assert ladder.values[0] == 16.0
        assert ladder.values[-1] == 4096.0
        assert len(ladder) == 9

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            KappaLadder((16.0, 16.0, 32.0))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            KappaLadder((0.0, 2.0))


class TestFitRate:
    def test_exact_power_law(self):
        pts = [(k, k**-2.0) for k in (4.0, 8.0, 16.0, 32.0)]
        assert fit_rate(pts) == pytest.approx(-2.0, abs=1e-12)

    def test_constant_errors(self):
        assert fit_rate([(4.0, 3.0), (8.0, 3.0), (16.0, 3.0)]) == pytest.approx(0.0, abs=1e-12)

    def test_two_points_insufficient(self):
        assert fit_rate([(4.0, 1.0), (8.0, 0.5)]) is None

    def test_zeros_excluded(self):
        assert fit_rate([(4.0, 0.0), (8.0, 0.0), (16.0, 1.0), (32.0, 0.5)]) is None


class TestLadderGrid:
    def test_floor_applies(self):
        assert ladder_grid(1.0, 512, 4.0, 4096.0).steps == 512

    def test_scaling_applies(self):
        assert ladder_grid(1.0, 64, 4.0, 4096.0).steps == 256


class TestTheorem1:
    def test_zero_strategy_has_zero_errors(self):
        base = _base(0.0)
        report = theorem1_experiment(BookParams.on_grid(base.grid, 16.0), base, SMALL_LADDER)
        np.testing.assert_array_equal(report.mean_err, np.zeros(5))
        assert report.slope is None

    def test_smooth_rate_converges_fast(self):
        base = _base(lambda t: math.sin(2 * math.pi * t))
        report = theorem1_experiment(BookParams.on_grid(base.grid, 16.0, alpha=0.25, eps=0.01),
                                     base, SMALL_LADDER)
        assert np.all(np.diff(report.kappa_x_err) < 0)
        assert report.slope <= -1.5

    def test_base_with_blocks_refused(self):
        # each rung's strategy keeps the base's blocks, which the reduced form refuses
        blocks = block_schedule(_grid(SMALL_LADDER.max), [(0.25, 1.0)], t_prime=0.5)
        with pytest.raises(ValueError, match="defined for block-free strategies"):
            theorem1_experiment(BookParams.on_grid(blocks.grid, 16.0), blocks, SMALL_LADDER)

    def test_gap_is_independent_of_the_price_path(self):
        # reference: the wealth gap sup_t |X_ow - X_ac| measured on each
        # sampled noisy price path; the experiment computes it once per kappa
        rate = lambda t: math.cos(2 * math.pi * t)
        spec = FundamentalSpec(s0=100.0, mu=0.05,
                               sigma=lambda t: 0.3 + 0.1 * math.sin(2 * math.pi * t))
        grid = ladder_grid(1.0, 512, 4.0, SMALL_LADDER.max)
        strat = rate_strategy(grid, rate)
        funds = [reference_sample(spec, grid, RandomSource(42, p)) for p in range(4)]
        for alpha in (0.0, 0.5):
            book = BookParams.on_grid(grid, 16.0, alpha=alpha, eps=0.01)
            report = theorem1_experiment(book, strat, SMALL_LADDER)
            for j, kappa in enumerate(SMALL_LADDER):
                book = BookParams.on_grid(grid, kappa, alpha=alpha, eps=0.01)
                sups = [np.max(np.abs(ow_wealth(book, strat, fund).x.values
                                      - ac_wealth(book, strat, fund).x.values))
                        for fund in funds]
                np.testing.assert_allclose(sups, report.mean_err[j], rtol=1e-6)


def _gap_constant(rate_steps, alpha, K, h):
    """C = 1/(h K^2) max_i |sum_{j<=i} r_j ((1 - alpha) r_j - s_j r_{j-1})| with
    r_{-1} = 0.  Step j's traded side starts from the excess the previous step
    left on it: its own share, s_j = 1 - alpha, after a trade on the same
    side, and the cross share, s_j = -alpha, after a trade on the other side
    (the rate changed sign between grid points)."""
    prev = np.concatenate(([0.0], rate_steps[:-1]))
    share = np.where(rate_steps * prev > 0, 1 - alpha, -alpha)
    return np.max(np.abs(np.cumsum(rate_steps * ((1 - alpha) * rate_steps
                                                 - share * prev)))) / (h * K**2)


class TestGapOracle:
    """With constant K, h and alpha the OW excess spread relaxes toward lambda * r
    at speed kappa * K and lags behind it by each step's rate change.  On a
    fixed grid with exp(-kappa K dt) negligible, kappa^2 e(kappa) is the
    constant C of the rate and the book, an oracle that shares no code with
    the engine or its older copies in ``helpers``."""

    GRID = TimeGrid(1.0, 512)

    @settings(max_examples=60, deadline=None)
    @given(amplitude=st.floats(0.5, 2.0), frequency=st.floats(0.5, 3.0),
           phase=st.floats(0.0, 2 * math.pi), offset=st.floats(-1.0, 1.0),
           alpha=st.floats(0.0, 0.5), K=st.floats(0.5, 4.0), h=st.floats(0.1, 4.0),
           stiffness=st.floats(40.0, 2000.0))
    @example(amplitude=1.0, frequency=1.0, phase=0.0, offset=0.0, alpha=0.1, K=2.0, h=0.5,
             stiffness=40.0)
    @example(amplitude=1.0, frequency=1.0, phase=0.0, offset=0.0, alpha=0.4, K=0.7, h=3.0,
             stiffness=2000.0)
    @example(amplitude=1.0, frequency=1.0, phase=1.0, offset=0.0, alpha=0.5, K=1.0, h=1.0,
             stiffness=40.0)  # sign changes between grid points: the cross share matters
    def test_kappa_squared_gap_tends_to_the_rate_constant(self, amplitude, frequency, phase,
                                                         offset, alpha, K, h, stiffness):
        def rate(t):
            return offset + amplitude * math.sin(2 * math.pi * frequency * t + phase)

        kappa = stiffness / (K * self.GRID.dt)  # kappa * K * dt = stiffness >= 40
        # resolution_scale 0.25 keeps the experiment on the 512-step grid
        assert ladder_grid(1.0, 512, 0.25, kappa) == self.GRID
        report = theorem1_experiment(BookParams.on_grid(self.GRID, kappa, K=K, h=h, alpha=alpha),
                                     rate_strategy(self.GRID, rate), KappaLadder((kappa,)))
        c = _gap_constant(rate_strategy(self.GRID, rate).rate_steps, alpha, K, h)
        assert kappa**2 * report.mean_err[0] / c == pytest.approx(1.0, abs=1e-6)

    def test_shipped_theorem1_constant(self):
        # configs/theorem1.json: the sin rate, alpha 0.25, K = h = 1, 512 steps
        rate = lambda t: math.sin(2 * math.pi * t)
        c = _gap_constant(rate_strategy(self.GRID, rate).rate_steps, 0.25, 1.0, 1.0)
        assert c == pytest.approx(0.385843, abs=5e-7)
        base = _base(rate, KappaLadder((4096.0,)))
        report = theorem1_experiment(BookParams.on_grid(base.grid, 4096.0, alpha=0.25, eps=0.01),
                                     base, KappaLadder((4096.0,)))
        assert 4096.0**2 * report.mean_err[0] / c == pytest.approx(1.00002, abs=5e-6)


class TestRemark1:
    def test_zero_base_rate(self):
        base = _base(0.0)
        report = theorem1_experiment(BookParams.on_grid(base.grid, 16.0), base, SMALL_LADDER,
                                     rate_growth=0.25)
        np.testing.assert_array_equal(report.mean_err, np.zeros(5))

    def test_scaled_errors_decrease(self):
        base = _base(lambda t: math.cos(2 * math.pi * t))
        report = theorem1_experiment(BookParams.on_grid(base.grid, 16.0, alpha=0.25, eps=0.01),
                                     base, SMALL_LADDER, rate_growth=0.25)
        assert np.all(np.diff(np.sqrt(report.kappas) * report.mean_err) < 0)
        assert report.slope <= -0.9


class TestLemmaJump:
    def test_zero_strategy_rejected(self):
        grid = ladder_grid(1.0, 512, 4.0, SMALL_LADDER.max)
        blocks = block_schedule(grid, [], t_prime=0.5)
        with pytest.raises(ValueError):
            run_lemma_jump(BookParams.on_grid(grid, 16.0), blocks, FundamentalSpec(),
                           SMALL_LADDER, width_scale=1.0, paths=1, seed=42)

    def test_unit_block_limit(self):
        ladder = KappaLadder.geometric(16.0, 2.0, 9)
        grid = ladder_grid(1.0, 512, 4.0, ladder.max)
        blocks = block_schedule(grid, [(0.25, 1.0)], t_prime=0.5)
        report = run_lemma_jump(BookParams.on_grid(grid, 16.0, h=1.0), blocks,
                                FundamentalSpec(sigma=0.0), ladder,
                                width_scale=1.0, paths=1, seed=42)
        # half the squared size over twice the depth, less the vanishing
        # smooth-execution cost
        assert abs(report.mean_diff[-1] - 0.5) <= 0.02
        assert np.all(report.frac_positive == 1.0)

    def test_half_permanent_impact_limit(self):
        # alpha = 1/2: the block itself costs nothing, but the smoothed
        # version gains the full permanent marking: limit (1 - alpha)/2 * theta^2
        ladder = KappaLadder.geometric(64.0, 2.0, 7)
        grid = ladder_grid(1.0, 512, 4.0, ladder.max)
        blocks = block_schedule(grid, [(0.25, 1.0)], t_prime=0.5)
        report = run_lemma_jump(BookParams.on_grid(grid, 64.0, h=1.0, alpha=0.5), blocks,
                                FundamentalSpec(sigma=0.0), ladder,
                                width_scale=1.0, paths=1, seed=42)
        assert abs(report.mean_diff[-1] - 0.25) <= 0.02

    def test_noise_decomposition_matches_engine(self):
        # fast path: deterministic wealth plus position-weighted noise must
        # equal running the engine per path
        ladder = KappaLadder((64.0,))
        grid = ladder_grid(1.0, 128, 1.0, ladder.max)
        blocks = block_schedule(grid, [(0.25, 1.0)], t_prime=0.5)
        spec = FundamentalSpec(s0=100.0, mu=0.1, sigma=0.2)
        paths = 5
        book = BookParams.on_grid(grid, 64.0, h=1.0)
        report = run_lemma_jump(book, blocks, spec, ladder, width_scale=1.0, paths=paths, seed=11)
        smoothed = smooth_blocks(blocks, smoothing_windows(grid, blocks.blocks, 64.0, 1.0))
        for p in range(paths):
            fund = reference_sample(spec, grid, RandomSource(11, p))
            direct = (ow_wealth(book, smoothed, fund).x.values[-1]
                      - ow_wealth(book, blocks, fund).x.values[-1])
            assert report.diffs[0, p] == pytest.approx(direct, abs=1e-11)

    def test_noisy_fundamental_mostly_positive(self):
        ladder = KappaLadder((256.0, 1024.0))
        grid = ladder_grid(1.0, 512, 4.0, ladder.max)
        blocks = block_schedule(grid, [(0.25, 1.0)], t_prime=0.5)
        report = run_lemma_jump(BookParams.on_grid(grid, 256.0, h=1.0), blocks,
                                FundamentalSpec(sigma=0.2), ladder,
                                width_scale=1.0, paths=200, seed=3)
        assert report.frac_positive[-1] >= 0.95


class TestTrackerBound:
    def test_constant_target_zero_error(self):
        report = run_tracker_bound(KappaLadder((16.0, 64.0)), _grid(64.0, 64),
                                   **dict(UNIT_TRACKER, target_vol=0.0), paths=10,
                                   seed=42)
        np.testing.assert_array_equal(report.estimates, np.zeros(2))
        assert _gates("tracker-bound", report) == {"bound_holds_for_every_kappa": True}

    def test_brownian_target_within_bound(self):
        report = run_tracker_bound(KappaLadder.geometric(16.0, 4.0, 4), _grid(1024.0),
                                   **UNIT_TRACKER, paths=2000, seed=5)
        assert report.bound == 5.0
        assert _gates("tracker-bound", report) == {"bound_holds_for_every_kappa": True}
        assert np.all(report.estimates < 5.0)

    def test_matches_per_path_reference(self):
        # reference: one path at a time, the target the Ito sum of
        # RandomSource(seed, p) and the tracker the 1-D relax
        from lobres.strategies import relax_positions
        ladder = KappaLadder.geometric(16.0, 4.0, 3)
        paths, seed, mu, vol, target0 = 8, 11, 0.3, 0.8, 0.5
        grid = ladder_grid(1.0, 64, 4.0, ladder.max)
        report = run_tracker_bound(
            ladder, grid, **dict(UNIT_TRACKER, target_drift=mu, target_vol=vol, target0=target0),
            paths=paths, seed=seed)
        m = np.ones(grid.n_points)
        sup2 = np.empty((len(ladder), paths))
        for p in range(paths):
            dw = math.sqrt(grid.dt) * RandomSource(seed, p).normals(grid.steps)
            target = np.empty(grid.n_points)
            target[0] = target0
            np.cumsum(mu * grid.dt + vol * dw, out=target[1:])
            target[1:] += target0
            for j, kappa in enumerate(ladder):
                pos = relax_positions(target, m, kappa, grid.dt)
                sup2[j, p] = math.sqrt(kappa) * np.max((target - pos)**2)
        np.testing.assert_array_equal(report.estimates, sup2.mean(axis=1))
        np.testing.assert_array_equal(report.stderrs,
                                      sup2.std(axis=1, ddof=1) / math.sqrt(paths))

    def test_one_path_refused(self):
        # one path has no standard error; the config refuses it first for runs
        with pytest.raises(ValueError, match="at least 2 paths"):
            tracker_bound_inputs(_grid(SMALL_LADDER.max, 64), **UNIT_COEFFS, paths=1)

    def test_bound_violation_of_declared_coeffs(self):
        with pytest.raises(ValueError, match="target coefficients exceed the declared bound"):
            tracker_bound_inputs(_grid(SMALL_LADDER.max, 64),
                                 **dict(UNIT_COEFFS, target_vol=2.0), paths=10)
        with pytest.raises(ValueError, match="tracking rate falls below its declared floor"):
            tracker_bound_inputs(_grid(SMALL_LADDER.max, 64),
                                 **dict(UNIT_COEFFS, rate_scale=0.5), paths=10)

    @pytest.mark.parametrize("change", [dict(coeff_bound=1e160), dict(rate_floor=1e-320)],
                             ids=["coeff-bound-squared-overflows", "bound-is-infinite"])
    def test_bound_outside_the_float_range_refused(self, change):
        with pytest.raises(ValueError, match="tracker-bound needs a finite bound"):
            tracker_bound_inputs(_grid(SMALL_LADDER.max, 64), **dict(UNIT_COEFFS, **change),
                                 paths=10)

    def test_inputs_hold_the_bound(self):
        inputs = tracker_bound_inputs(_grid(64.0, 64), **dict(UNIT_COEFFS, coeff_bound=2.0,
                                                              rate_floor=0.5), paths=10)
        assert inputs[3] == 5.0 * 2.0**2 * 1.0 / 0.5


class TestL2:
    def test_zero_strategy(self):
        base = _base(0.0)
        book = BookParams.on_grid(base.grid, SMALL_LADDER.values[0])
        check_uniform_bounds(book, base, **L2_BOUNDS)
        report = theorem1_experiment(book, base, SMALL_LADDER)
        np.testing.assert_array_equal(report.mean_err, np.zeros(5))

    @pytest.mark.parametrize("coeffs, message", [
        ({"alpha": 0.25, "eps": 0.01}, None),  # the shipped l2 book
        ({"K": 0.25}, "resilience shape falls below its declared floor"),
        ({"K_dn": 0.25}, "resilience shape falls below its declared floor"),
        ({"h": 0.25}, "book coefficient exceeds its declared uniform bound"),
        ({"h_dn": 0.25}, "book coefficient exceeds its declared uniform bound"),
        ({"eps_dn": 3.0}, "book coefficient exceeds its declared uniform bound"),
    ], ids=["shipped", "K", "K-down", "h", "h-down", "eps-down"])
    def test_each_declared_bound_is_checked(self, coeffs, message):
        # the shipped bounds against the run's book and the sin rate
        base = _base(lambda t: math.sin(2 * math.pi * t))
        book = BookParams.on_grid(base.grid, SMALL_LADDER.values[0], **coeffs)
        if message is None:
            check_uniform_bounds(book, base, **L2_BOUNDS)
        else:
            with pytest.raises(ValueError, match=message):
                check_uniform_bounds(book, base, **L2_BOUNDS)

    def test_declared_bounds_enforced(self):
        with pytest.raises(ValueError, match="strategy rate exceeds its declared uniform bound"):
            check_uniform_bounds(BookParams.on_grid(_base(1.0).grid, SMALL_LADDER.values[0]),
                                 _base(1.0), **dict(L2_BOUNDS, rate_bound=0.5))


class TestUtility:
    def test_zero_volatility_rejected(self):
        with pytest.raises(ValueError, match=r"needs sigma\*\*2 within the float range"):
            utility_trackers(BookParams.on_grid(_grid(64.0), 64.0),
                             FundamentalSpec(mu=0.1, sigma=0.0), 1.0, (0.5, 1.0, 2.0), 0.0)

    def test_baseline_spread_rejected(self):
        with pytest.raises(ValueError, match="requires zero baseline spreads"):
            utility_trackers(BookParams.on_grid(_grid(64.0), 64.0, eps=0.01),
                             FundamentalSpec(mu=0.1, sigma=0.2), 1.0, (0.5, 1.0, 2.0), 0.0)

    def test_multipliers_must_include_candidate(self):
        with pytest.raises(ValueError):
            run_utility(BookParams.on_grid(_grid(64.0), 64.0), FundamentalSpec(mu=0.1, sigma=0.2),
                        KappaLadder((64.0,)), gamma=1.0, multipliers=[0.5, 2.0], paths=10,
                        seed=42, x0=0.0, bootstrap=500)

    def test_ce_approaches_frictionless(self):
        report = run_utility(BookParams.on_grid(_grid(1024.0), 64.0),
                             FundamentalSpec(mu=0.1, sigma=0.2), KappaLadder((64.0, 256.0, 1024.0)),
                             gamma=1.0, **THREE_SPEEDS, paths=2000, seed=7,
                             bootstrap=100)
        curve = report.candidate_ce
        assert report.frictionless_ce == pytest.approx(0.125)
        assert all(b > a for a, b in zip(curve, curve[1:]))
        assert all(c < report.frictionless_ce for c in curve)

    def test_ce_shifts_by_initial_wealth(self):
        # x0 = +-800 would underflow / overflow exp(-gamma * x) unshifted
        def run(x0):
            return run_utility(BookParams.on_grid(_grid(64.0), 64.0),
                               FundamentalSpec(mu=0.1, sigma=0.2), KappaLadder((64.0,)), gamma=1.0,
                               multipliers=(0.5, 1.0, 2.0), paths=200, seed=7, x0=x0,
                               bootstrap=50)

        base = run(0.0)
        for x0 in (-800.0, 0.0, 800.0):
            report = run(x0)
            for name in ("ce", "ci_low", "ci_high"):
                assert np.all(np.isfinite(getattr(report, name)))
                assert getattr(report, name) - x0 == pytest.approx(getattr(base, name),
                                                                   abs=1e-9)
            assert report.gap_vs_candidate == pytest.approx(base.gap_vs_candidate, abs=1e-9)

    def test_bootstrap_matches_per_resample_loop(self):
        # row-wise certainty equivalents of 700 resamples of 1500 paths
        # against one resample at a time
        from lobres.experiments import _certainty_equivalents
        gen = np.random.default_rng(3)
        x = 800.0 + gen.normal(0.0, 2.0, size=1500)
        boot_idx = gen.integers(0, 1500, size=(700, 1500))
        for gamma in (0.5, 3.0):
            fast = _certainty_equivalents(x, boot_idx, gamma)
            slow = np.array([_ce_one_sample(x[idx], gamma) for idx in boot_idx])
            np.testing.assert_allclose(fast, slow, rtol=1e-13, atol=0)

    def test_cis_match_per_resample_loop(self):
        # the report's percentile CIs are those of one resample at a time,
        # on terminal wealths rebuilt from the same decomposition
        from lobres import Evaluation, SampledPath, constant_path
        from lobres.experiments import _BOOTSTRAP_STREAM
        from lobres.strategies import exponential_tracker
        gamma, mu, sigma, kappa = 1.0, 0.1, 0.2, 64.0
        paths, seed, bootstrap = 300, 5, 40
        spec = FundamentalSpec(mu=mu, sigma=sigma)
        report = run_utility(BookParams.on_grid(_grid(kappa), kappa), spec, KappaLadder((kappa,)),
                             gamma=gamma, **THREE_SPEEDS, paths=paths, seed=seed,
                             bootstrap=bootstrap)

        boot_idx = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            entropy=seed, spawn_key=(_BOOTSTRAP_STREAM,)))).integers(
                0, paths, size=(bootstrap, paths))
        grid = ladder_grid(1.0, 512, 4.0, kappa)
        book = BookParams.on_grid(grid, kappa)
        dw = brownian_increments(grid, seed, paths)
        m_base = np.sqrt(book.K_up.values * book.h_up.values * sigma**2 * gamma / 2.0)
        boot = {}
        for c in report.multipliers:
            strat = exponential_tracker(constant_path(grid, mu / (gamma * sigma**2)),
                                        SampledPath(grid, c * m_base), kappa, start=0.0)
            x_det, w = Evaluation(book, strat, spec.mean_path(grid)).terminal(0.0)
            x = x_det + (sigma * w) @ dw
            boot[c] = np.array([_ce_one_sample(x[idx], gamma) for idx in boot_idx])
        for j, c in enumerate(report.multipliers):
            lo, hi = np.percentile(boot[c], [2.5, 97.5])
            glo, ghi = np.percentile(boot[1.0] - boot[c], [2.5, 97.5])
            np.testing.assert_allclose([report.ci_low[0, j], report.ci_high[0, j]], [lo, hi],
                                       rtol=1e-13, atol=0)
            np.testing.assert_allclose([report.gap_ci_low[0, j], report.gap_ci_high[0, j]],
                                       [glo, ghi], rtol=1e-13, atol=1e-15)

    def test_candidate_noninferior_at_moderate_kappa(self):
        report = run_utility(BookParams.on_grid(_grid(256.0), 256.0),
                             FundamentalSpec(mu=0.1, sigma=0.2), KappaLadder((256.0,)), gamma=1.0,
                             **THREE_SPEEDS, paths=2000, seed=7, bootstrap=200)
        # one kappa: the noninferiority gate alone, on that kappa
        assert _gates("utility", report) == {"candidate_noninferior": True}


# The shipped configs' inputs, each with one value that the engine call
# making it refuses: the experiment, or the constructor of an input that the
# run's set-up builds before its first rung (``BookParams.on_grid``,
# ``utility_trackers``, ``tracker_bound_inputs``, ``smoothing_windows``,
# ``block_schedule``, ``FundamentalSpec.sigma_steps``); the run reports the same message
# (test_cli.EXPERIMENT_REFUSALS).  0.5 + sin(2 pi 128 t) is below its
# range only between the points t = j/256 and at odd points of a 512-step grid.
_DIP = lambda t: 0.5 + 1.0 * math.sin(2.0 * math.pi * 128.0 * t)
_SHIPPED_GRID = TimeGrid(1.0, 512)


def _shipped_utility(sigma=0.2, multipliers=(0.5, 1.0, 2.0), **coeffs):
    utility_trackers(BookParams.on_grid(_SHIPPED_GRID, 64.0, **coeffs),
                     FundamentalSpec(100.0, 0.1, sigma), 1.0, multipliers, 0.0)


def _shipped_theorem1(K):
    theorem1_experiment(BookParams.on_grid(_SHIPPED_GRID, 16.0, K=K, alpha=0.25, eps=0.01),
                        rate_strategy(_SHIPPED_GRID, lambda t: math.sin(2.0 * math.pi * t)),
                        KappaLadder.geometric(16.0, 2.0, 9))


def _shipped_price(sigma):
    spec = FundamentalSpec(100.0, 0.05, sigma)
    spec.add_noise(spec.mean_path(_SHIPPED_GRID), spec.sigma_steps(_SHIPPED_GRID), 42)


SHIPPED_REFUSALS = {
    "utility-alpha": (lambda: _shipped_utility(alpha=0.1),
                      "utility experiment requires zero permanent impact"),
    "utility-h-down": (lambda: _shipped_utility(h_dn=2.0),
                       "utility experiment requires a symmetric book"),
    "lemma-width-scale": (
        lambda: [smoothing_windows(_SHIPPED_GRID,
                                   block_schedule(_SHIPPED_GRID, [(0.25, 1.0)], 0.5).blocks,
                                   kappa, 3.0) for kappa in KappaLadder.geometric(16.0, 2.0, 9)],
        "smoothing window extends past the horizon"),
    "simulate-colliding-blocks": (
        lambda: block_schedule(_SHIPPED_GRID, [(0.25, 1.0), (0.2501, 1.0)], 0.5),
        "blocks at t=0.2501 collide at grid index 128 after rounding"),
    "utility-sigma-underflow": (
        lambda: _shipped_utility(sigma=1e-200),
        "utility experiment needs sigma**2 within the float range and a finite frictionless "
        "position mu / (gamma * sigma**2) and certainty equivalent x0 + mu**2 * T / "
        "(2 * gamma * sigma**2), got mu=0.1, gamma=1.0, sigma=1e-200, x0=0.0, T=1.0"),
    "theorem1-K-off-the-coarse-points": (lambda: _shipped_theorem1(_DIP),
                                         "K_up must be positive pointwise"),
    "simulate-sigma-off-the-coarse-points": (
        lambda: _shipped_price(_DIP), "sigma must be nonnegative"),
    "tracker-rate-scale-off-the-coarse-points": (
        lambda: tracker_bound_inputs(_SHIPPED_GRID, **dict(UNIT_COEFFS, rate_scale=_DIP),
                                     paths=10),
        "tracking rate falls below its declared floor"),
    "theorem1-K-overflow": (lambda: _shipped_theorem1(lambda t: 1e308 + 1e308 * t),
                            "function evaluates to a non-finite value (step 409, t=0.798828125)"),
    "utility-multiplier-underflow": (lambda: _shipped_utility(multipliers=(5e-324, 1.0)),
                                     "tracking rate M must be positive pointwise"),
}


@pytest.mark.parametrize("name", list(SHIPPED_REFUSALS))
def test_the_experiment_itself_refuses(name):
    run, message = SHIPPED_REFUSALS[name]
    with pytest.raises(ValueError) as info:
        run()
    assert str(info.value) == message


class TestBrownianIncrements:
    # paths below 8192 split each stream into segments; 2731 and 10007 steps
    # leave a shorter last segment for 3 and 1 paths
    @settings(max_examples=15, deadline=None)
    @given(seed=st.sampled_from([0, 1, 42, 2**32 - 1, 2**32 + 5, 2**130 + 9]),
           paths=st.sampled_from([1, 3, 1000, 8191, 8193, 10000]),
           steps=st.sampled_from([1, 2, 7, 2048, 2731, 10007]),
           horizon=st.sampled_from([1.0, 0.3]))
    @example(seed=2**130 + 9, paths=3, steps=2731, horizon=1.0)
    @example(seed=42, paths=1, steps=10007, horizon=0.3)
    @example(seed=2**32 + 5, paths=1000, steps=2048, horizon=1.0)
    def test_bit_identical_to_per_path_loop(self, seed, paths, steps, horizon):
        assume(paths * steps <= 2**21)
        grid = TimeGrid(horizon, steps)
        block = brownian_increments(grid, seed, paths)
        assert block.flags.c_contiguous
        assert block.tobytes() == reference_increments(grid, seed, paths).tobytes()

    def test_path_extension_is_stable(self):
        # adding paths never changes earlier paths (one stream per path)
        grid = TimeGrid(1.0, 32)
        a = brownian_increments(grid, 42, 3)
        b = brownian_increments(grid, 42, 5)
        np.testing.assert_array_equal(a, b[:, :3])

    def test_columns_are_the_per_path_streams(self):
        # time-major layout: column p is stream p, scaled to N(0, dt)
        grid = TimeGrid(2.0, 16)
        b = brownian_increments(grid, 9, 4)
        assert b.shape == (16, 4)
        for p in range(4):
            expected = math.sqrt(grid.dt) * RandomSource(9, p).normals(16)
            np.testing.assert_array_equal(b[:, p], expected)


class TestFundamentalSpec:
    def test_sample_matches_ito_sampler(self):
        # the sampler reproduces the Euler Ito path for time-only
        # coefficients and the same (seed, stream)
        grid = TimeGrid(1.0, 256)
        spec = FundamentalSpec(s0=50.0, mu=0.08, sigma=0.3)
        a = spec.add_noise(spec.mean_path(grid), spec.sigma_steps(grid), 13, 2)
        dw = math.sqrt(grid.dt) * RandomSource(13, 2).normals(grid.steps)
        b = [50.0]
        for i in range(grid.steps):
            b.append(b[-1] + 0.08 * grid.dt + 0.3 * dw[i])
        np.testing.assert_allclose(a.values, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("spec", [
        FundamentalSpec(s0=50.0, mu=0.08, sigma=0.3),
        FundamentalSpec(s0=100.0, mu=lambda t: t, sigma=lambda t: 0.1 + t),
        FundamentalSpec(s0=100.0, mu=0.05, sigma=0.0),
        FundamentalSpec(s0=0.0, mu=0.0, sigma=lambda t: 0.0),
    ], ids=["constant", "functions", "sigma0", "zero_function_sigma"])
    @pytest.mark.parametrize("seed, stream, steps", [(42, 0, 512), (977, 3, 7), (7, 2**32 - 1, 1)])
    def test_sample_is_byte_identical_to_one_source_stream(self, spec, seed, stream, steps):
        grid = TimeGrid(1.0, steps)
        expected = reference_sample(spec, grid, RandomSource(seed, stream)).values
        sample = spec.add_noise(spec.mean_path(grid), spec.sigma_steps(grid), seed, stream)
        assert sample.values.tobytes() == expected.tobytes()

    def test_deterministic_sample_draws_nothing(self, monkeypatch):
        monkeypatch.setattr(experiments_module, "brownian_increments", None)
        grid = TimeGrid(1.0, 64)
        spec = FundamentalSpec(s0=10.0, mu=lambda t: t, sigma=0.0)
        sample = spec.add_noise(spec.mean_path(grid), spec.sigma_steps(grid), 42)
        np.testing.assert_array_equal(sample.values, spec.mean_path(grid).values)

    def test_mean_path_is_drift_integral(self):
        grid = TimeGrid(2.0, 64)
        spec = FundamentalSpec(s0=10.0, mu=lambda t: t, sigma=0.0)
        mean = spec.mean_path(grid).values
        # left-point Riemann sum of the drift
        t = grid.points()
        expected = 10.0 + np.concatenate([[0.0], np.cumsum(t[:-1] * grid.dt)])
        np.testing.assert_allclose(mean, expected, rtol=1e-13)


class TestUtilityCandidateConstruction:
    def test_candidate_is_the_optimal_tracker(self):
        # multiplier 1 runs the closed-form-speed tracker started flat
        from helpers import optimal_tracker
        from lobres import constant_path
        from lobres.strategies import exponential_tracker
        gamma, sigma = 1.0, 0.2
        kappa = 256.0
        grid = ladder_grid(1.0, 512, 4.0, kappa)
        book = BookParams.on_grid(grid, kappa)
        target = constant_path(grid, 0.1 / (gamma * sigma**2))
        via_optimal = optimal_tracker(book, constant_path(grid, sigma),
                                      constant_path(grid, 1.0 / gamma), target,
                                      start=0.0)
        m = np.sqrt(book.K_up.values * book.h_up.values * sigma**2 * gamma / 2.0)
        via_spec = exponential_tracker(target, __import__("lobres").SampledPath(grid, m),
                                       kappa, start=0.0)
        np.testing.assert_allclose(via_optimal.rate.values, via_spec.rate.values,
                                   rtol=1e-13)

    def test_cell_matches_direct_engine_evaluation(self):
        # certainty equivalent recomputed by running the wealth engine per path
        from helpers import optimal_tracker
        from lobres import constant_path
        gamma, mu, sigma, kappa = 1.0, 0.1, 0.2, 64.0
        paths, seed = 64, 123
        grid = ladder_grid(1.0, 512, 4.0, kappa)
        book = BookParams.on_grid(grid, kappa)
        report = run_utility(book, FundamentalSpec(100.0, mu, sigma), KappaLadder((kappa,)),
                             gamma=gamma, multipliers=[1.0], paths=paths, seed=seed, x0=0.0,
                             bootstrap=20)
        target = constant_path(grid, mu / (gamma * sigma**2))
        strat = optimal_tracker(book, constant_path(grid, sigma),
                                constant_path(grid, 1.0 / gamma), target, start=0.0)
        spec = FundamentalSpec(100.0, mu, sigma)
        u = np.empty(paths)
        for p in range(paths):
            fund = reference_sample(spec, grid, RandomSource(seed, p))
            u[p] = -np.exp(-gamma * ow_wealth(book, strat, fund).x.values[-1])
        ce_direct = -np.log(-u.mean()) / gamma
        assert report.candidate_ce[0] == pytest.approx(ce_direct, abs=1e-10)


# Chunked Monte-Carlo against the whole-matrix references of tests/helpers.py.
# On 64 steps a chunk budget of 64 * 5 elements makes chunks of 5 paths, so 23
# paths span four chunks and a short last one, and 3 paths fit in one chunk.
CHUNK_STEPS, CHUNK_PATHS = 64, 5


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(experiments_module, "_CHUNK_ELEMENTS", CHUNK_STEPS * CHUNK_PATHS)


def _exact(paths):
    """Whether the chunked run makes the same noise products as the reference.

    The products ``weights @ noise`` go through BLAS gemv, whose rounding of a
    column can depend on where the column falls in the kernel's blocks and
    thread split; one chunk holding every path makes the same call.  Other
    runs agree to rounding.  The shipped configs' 1,024- and 256-path chunks
    gave byte-identical artifacts on a 2 vCPU Xeon with OpenBLAS 0.3.31, at
    one and at two BLAS threads.
    """
    return paths <= CHUNK_PATHS


class TestChunkedMonteCarlo:
    @pytest.mark.parametrize("paths", [23, 3, 2])  # one path has no standard error
    def test_tracker_bound_equals_whole_matrix(self, small_chunks, paths):
        kw = dict(UNIT_TRACKER, target_drift=0.3, target_vol=0.8, target0=0.5, paths=paths,
                  seed=11)
        ladder = KappaLadder.geometric(16.0, 4.0, 2)
        grid = _grid(ladder.max, CHUNK_STEPS)
        chunked = run_tracker_bound(ladder, grid, **kw)
        whole = run_tracker_bound(ladder, grid, **kw,
                                  experiment=reference_tracker_bound_experiment)
        for name in ("kappas", "estimates", "stderrs", "within"):
            assert getattr(chunked, name).tobytes() == getattr(whole, name).tobytes()
        assert chunked.bound == whole.bound

    @pytest.mark.parametrize("paths", [2, CHUNK_PATHS + 1])
    @pytest.mark.parametrize("case", [
        # kappa * dt from 1e-6 to 1e6 at M = 6: decays from about 1 to exactly 0
        dict(ladder=KappaLadder(tuple(10.0**k * CHUNK_STEPS for k in range(-6, 7))),
             rate_scale=6.0, resolution_scale=1e-3),
        dict(target_vol=0.0, target_drift=0.3),
        dict(target_drift=0.3, target_vol=0.7, target0=1.5, rate_scale=2.0),
        dict(target_drift=-0.2, rate_scale=lambda t: 1.0 + 3.0 * t * t),
        dict(ladder=KappaLadder((64.0,)), target0=-0.5),
    ], ids=["kappa_dt_span", "zero_vol", "drift_target0", "rate_function", "one_rung"])
    def test_fused_tracker_pass_writes_the_reference_csv(self, small_chunks, tmp_path,
                                                         case, paths):
        # the fused pass over time (one running sum, one (rungs, chunk)
        # position block) writes the tracker.csv bytes of the whole-matrix
        # cumsum and per-rung row-loop relaxation
        kw = dict(UNIT_TRACKER, **case, paths=paths, seed=13)
        ladder = kw.pop("ladder", KappaLadder.geometric(16.0, 4.0, 3))
        grid = _grid(ladder.max, CHUNK_STEPS, kw.pop("resolution_scale", 4.0))
        if "resolution_scale" in case:
            dt = 1.0 / CHUNK_STEPS
            decays = np.exp(-np.sqrt([ladder.values[0], ladder.max]) * 6.0 * dt)
            assert decays[0] > 0.999 and decays[1] == 0.0
        written = []
        for run in (tracker_bound_experiment, reference_tracker_bound_experiment):
            path = tmp_path / f"{run.__name__}.csv"
            write_tables({path: run_tracker_bound(ladder, grid, **kw, experiment=run).table()})
            written.append(path.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("paths", [23, 3, 1])
    def test_lemma_jump_equals_whole_matrix(self, small_chunks, paths):
        grid = TimeGrid(1.0, CHUNK_STEPS)
        blocks = block_schedule(grid, [(0.25, 1.0)], t_prime=0.5)
        args = (BookParams.on_grid(grid, 16.0, h=1.0), blocks,
                FundamentalSpec(mu=0.1, sigma=0.2), KappaLadder((16.0, 64.0, 256.0)))
        chunked = run_lemma_jump(*args, width_scale=1.0, paths=paths, seed=7)
        whole = run_lemma_jump(*args, width_scale=1.0, paths=paths, seed=7,
                               experiment=reference_lemma_jump_experiment)
        if _exact(paths):
            assert chunked.diffs.tobytes() == whole.diffs.tobytes()
            assert chunked.mean_diff.tobytes() == whole.mean_diff.tobytes()
        np.testing.assert_allclose(chunked.diffs, whole.diffs, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(chunked.mean_diff, whole.mean_diff, rtol=1e-13)
        np.testing.assert_array_equal(chunked.frac_positive, whole.frac_positive)

    def test_noise_free_lemma_jump_equals_whole_matrix(self, small_chunks):
        grid = TimeGrid(1.0, CHUNK_STEPS)
        blocks = block_schedule(grid, [(0.25, 1.0)], t_prime=0.5)
        args = (BookParams.on_grid(grid, 16.0, h=1.0), blocks, FundamentalSpec(),
                KappaLadder((16.0, 64.0)))
        chunked = run_lemma_jump(*args, width_scale=1.0, paths=23, seed=42)
        whole = run_lemma_jump(*args, width_scale=1.0, paths=23, seed=42,
                               experiment=reference_lemma_jump_experiment)
        assert chunked.diffs.tobytes() == whole.diffs.tobytes()
        assert chunked.frac_positive.tobytes() == whole.frac_positive.tobytes()

    @pytest.mark.parametrize("paths", [23, 3, 1])
    def test_utility_equals_whole_matrix(self, small_chunks, paths):
        args = (BookParams.on_grid(_grid(64.0, CHUNK_STEPS), 16.0),
                FundamentalSpec(mu=0.1, sigma=0.2), KappaLadder((16.0, 64.0)))
        kw = dict(gamma=1.5, multipliers=(0.5, 1.0, 2.0), paths=paths, seed=5, x0=2.0,
                  bootstrap=40)
        chunked = run_utility(*args, **kw)
        whole = run_utility(*args, **kw, experiment=reference_utility_experiment)
        assert (chunked.kappas, chunked.multipliers) == (whole.kappas, whole.multipliers)
        for name in ("ce", "ci_low", "ci_high", "gap_vs_candidate", "gap_ci_low",
                     "gap_ci_high"):
            if _exact(paths):
                np.testing.assert_array_equal(getattr(chunked, name), getattr(whole, name))
            assert getattr(chunked, name) == pytest.approx(getattr(whole, name), rel=1e-13,
                                                           abs=1e-14)

    @pytest.mark.parametrize("paths", [1000, 7, 1])
    def test_bootstrap_indices_are_the_one_shot_draw(self, monkeypatch, paths):
        # 2**16 // 1000 = 65 rows per chunk: 200 resamples take four chunks,
        # the last of 5 rows; 7 paths and 1 path take one chunk
        from lobres.experiments import _BOOTSTRAP_STREAM
        seen = []
        original = experiments_module._certainty_equivalents

        def recording(x, idx, gamma):
            if not seen or seen[-1] is not idx:
                seen.append(idx)
            return original(x, idx, gamma)

        monkeypatch.setattr(experiments_module, "_certainty_equivalents", recording)
        run_utility(BookParams.on_grid(_grid(64.0, 64), 64.0), FundamentalSpec(mu=0.1, sigma=0.2),
                    KappaLadder((64.0,)), gamma=1.0, **THREE_SPEEDS, paths=paths, seed=9,
                    bootstrap=200)
        every_path, *chunks = seen
        np.testing.assert_array_equal(every_path, np.arange(paths)[None, :])
        rows = max(1, experiments_module._CE_CHUNK_ELEMENTS // paths)
        assert [len(c) for c in chunks[:-1]] == [rows] * (len(chunks) - 1)
        one_shot = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            entropy=9, spawn_key=(_BOOTSTRAP_STREAM,)))).integers(0, paths, size=(200, paths))
        assert np.concatenate(chunks).tobytes() == one_shot.tobytes()


class TestWorkers:
    @pytest.mark.parametrize("cpus, items, expected", [(3, 7, 3), (3, 2, 2), (1, 5, 1),
                                                       (2, 0, 1)])
    def test_one_worker_per_cpu_of_the_affinity_mask(self, monkeypatch, cpus, items, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert experiments_module._workers(items) == expected

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_one_worker_without_fork_or_an_affinity_mask(self, monkeypatch, missing):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.delattr(os, missing)
        assert experiments_module._workers(5) == 1

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_item_k_runs_in_worker_k_mod_w(self, monkeypatch, workers):
        # each item writes its value and the pid of the process that ran it
        # into a shared array; worker 0 is this process
        force_workers(monkeypatch, workers)
        out = experiments_module.shared_empty((7, 2))

        def work(some):
            for k in some:
                out[k] = k * k, os.getpid()
        experiments_module._spread(range(7), work)
        assert out[:, 0].tolist() == [k * k for k in range(7)]
        pids = out[:, 1].astype(int).tolist()
        assert pids[0] == os.getpid()
        assert len(set(pids)) == workers
        assert pids == [pids[k % workers] for k in range(7)]

    def _each_worker_count(self, monkeypatch, run):
        reports = []
        for count in (1, 2, 3):
            force_workers(monkeypatch, count)
            reports.append(run())
        return reports

    # 23 paths in chunks of 5 (``small_chunks``): five chunks

    def test_tracker_bound_is_the_same_for_any_worker_count(self, small_chunks, monkeypatch):
        ladder = KappaLadder.geometric(16.0, 4.0, 3)
        kw = dict(UNIT_TRACKER, target_drift=0.3, target_vol=0.8, paths=23, seed=11)
        reports = self._each_worker_count(monkeypatch, lambda: run_tracker_bound(
            ladder, _grid(ladder.max, CHUNK_STEPS), **kw))
        for report in reports[1:]:
            for name in ("estimates", "stderrs", "within"):
                assert getattr(report, name).tobytes() == getattr(reports[0], name).tobytes()

    def test_utility_is_the_same_for_any_worker_count(self, small_chunks, monkeypatch):
        # six (kappa, multiplier) cells, so three workers take two each
        args = (BookParams.on_grid(_grid(64.0, CHUNK_STEPS), 16.0),
                FundamentalSpec(mu=0.1, sigma=0.2), KappaLadder((16.0, 64.0)))
        kw = dict(gamma=1.5, **THREE_SPEEDS, paths=23, seed=5, bootstrap=40)
        reports = self._each_worker_count(monkeypatch, lambda: run_utility(*args, **kw))
        for report in reports[1:]:
            for name in ("ce", "ci_low", "ci_high", "gap_vs_candidate", "gap_ci_low",
                         "gap_ci_high"):
                assert getattr(report, name).tobytes() == getattr(reports[0], name).tobytes()

    def test_noisy_lemma_jump_is_the_same_for_any_worker_count(self, small_chunks,
                                                               monkeypatch):
        grid = TimeGrid(1.0, CHUNK_STEPS)
        blocks = block_schedule(grid, [(0.25, 1.0)], t_prime=0.5)
        args = (BookParams.on_grid(grid, 16.0, h=1.0), blocks,
                FundamentalSpec(mu=0.1, sigma=0.2), KappaLadder((16.0, 64.0, 256.0)))
        reports = self._each_worker_count(monkeypatch, lambda: run_lemma_jump(
            *args, width_scale=1.0, paths=23, seed=7))
        for report in reports[1:]:
            assert report.diffs.tobytes() == reports[0].diffs.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 40, 41, 500])
def test_interval_is_np_percentile_bit_for_bit(n):
    # rows of spread values, ties, signed zeros, infinities and a NaN
    rng = np.random.default_rng(n)
    rows = np.stack([rng.normal(size=n) * 1e3, np.round(rng.normal(size=n)),
                     np.full(n, -0.0), np.where(np.arange(n) < n // 2, -np.inf, 1.0),
                     np.where(np.arange(n) == n // 3, np.nan, rng.normal(size=n)),
                     np.full(n, np.inf)])
    with np.errstate(invalid="ignore"):  # inf - inf while interpolating, as numpy's
        expected = np.percentile(rows.copy(), [2.5, 97.5], axis=-1)
        got = experiments_module._interval(rows.copy())
    assert got.tobytes() == expected.tobytes()


class TestMonteCarloMemory:
    # 20,000 paths x 512 steps: one (steps, paths) float64 matrix is 82 MB,
    # and the whole-matrix experiments hold at least one.  Chunked, the peak
    # is a few 4 MiB chunk buffers plus one float64 result per cell and path.
    PATHS = 20_000

    @pytest.fixture(autouse=True)
    def _shared(self, monkeypatch):
        self.shared = count_shared_bytes(monkeypatch)

    def _traced_peak(self, run) -> int:
        """The traced peak plus every shared result array, which
        ``tracemalloc`` does not trace, as if all were alive at that peak."""
        from lobres.paths import _ndtri
        _ndtri()  # scipy's import is not the experiment's
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] + sum(self.shared)
        finally:
            tracemalloc.stop()

    def _bound(self, cells: int) -> int:
        return 4 * 8 * experiments_module._CHUNK_ELEMENTS + 8 * cells * self.PATHS

    def test_tracker_bound_peak(self):
        # the fused pass keeps no (n+1, chunk) targets or positions: the
        # peak is one noise block, normals_block's lanes and the results
        ladder = KappaLadder((16.0, 64.0))
        peak = self._traced_peak(lambda: run_tracker_bound(
            ladder, _grid(ladder.max), **UNIT_TRACKER, paths=self.PATHS, seed=1))
        chunk = experiments_module.paths_per_chunk(512)
        assert peak < 1.1 * (8 * 512 * chunk + lane_bytes(chunk, 512)
                             + 8 * len(ladder) * self.PATHS)
        assert peak < self._bound(len(ladder)) < 8 * 512 * self.PATHS / 4

    def test_utility_bootstrap_holds_one_kappas_gaps(self):
        # 200,000 resamples of 20 paths: the 9 cells' resampled CEs and one
        # kappa's 3 gap rows, not every cell's gaps, plus one resample chunk
        # of indices and gathered samples and normals_block's lanes
        boot, paths = 200_000, 20
        peak = self._traced_peak(lambda: run_utility(
            BookParams.on_grid(_grid(256.0, 64), 16.0), FundamentalSpec(mu=0.1, sigma=0.2),
            KappaLadder((16.0, 64.0, 256.0)), gamma=1.0, **THREE_SPEEDS, paths=paths, seed=1,
            bootstrap=boot))
        rows = experiments_module.resamples_per_chunk(paths)
        assert peak < 1.1 * (8 * ((9 + 3) * boot + 2 * rows * paths) + lane_bytes(paths, 64))

    def test_utility_peak(self):
        peak = self._traced_peak(lambda: run_utility(
            BookParams.on_grid(_grid(64.0), 64.0), FundamentalSpec(mu=0.1, sigma=0.2),
            KappaLadder((64.0,)), gamma=1.0, **THREE_SPEEDS, paths=self.PATHS, seed=1,
            bootstrap=50))
        assert peak < self._bound(3) < 8 * 512 * self.PATHS / 4


def test_report_tables_put_each_value_under_its_name(tmp_path):
    # every report cell is repr(float(v)) of the value its column names
    kappas = np.array([16.0, 64.0, 256.0])
    a, b, c = (np.array(v) for v in ([-0.0, 5e-324, 0.1], [1e16, 1e-05, 2.5], [3.0, 7.0, 0.5]))
    # one (kappa, multiplier) array per utility value
    utility = [np.array([[k * m + j / 8 for m in (0.5, 1.0)] for k in (16.0, 64.0)])
               for j in range(6)]
    cases = [
        (ConvergenceReport(kappas, c), {
            "kappa": kappas, "mean_err": c, "p95_err": c, "kappa_x_err": kappas * c,
            "slope_so_far": ["", "", repr(fit_rate(list(zip(kappas, c))))]}),
        (LemmaJumpReport(kappas, a, b, np.zeros((3, 1))),
         {"kappa": kappas, "mean_diff": a, "frac_positive": b}),
        (TrackerBoundReport(kappas, a, b, 1.25, np.array([True, False, True])), {
            "kappa": kappas, "estimate": a, "stderr": b, "bound": [1.25] * 3,
            "within_bound": ["true", "false", "true"]}),
        (UtilityReport((16.0, 64.0), (0.5, 1.0), *utility, 0.125), {
            "kappa": [16.0, 16.0, 64.0, 64.0], "multiplier": [0.5, 1.0] * 2,
            **{name: values.ravel() for name, values in zip(
                ("ce", "ci_low", "ci_high", "ce_gap_vs_candidate", "gap_ci_low",
                 "gap_ci_high"), utility)}}),
    ]
    for report, expected in cases:
        path = tmp_path / "table.csv"
        write_tables({path: report.table()})
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(expected)
        for j, (name, values) in enumerate(expected.items()):
            assert [row[j] for row in rows[1:]] == [
                v if isinstance(v, str) else repr(float(v)) for v in values], name
