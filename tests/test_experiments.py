import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lobres.experiments as experiments_module
from helpers import (reference_increments, reference_lemma_jump_experiment,
                     reference_tracker_bound_experiment, reference_utility_experiment)
from lobres import (BookTemplate, FundamentalSpec, InsufficientData, KappaLadder,
                    RandomSource, UniformBounds, ac_wealth, fit_rate, ladder_grid,
                    lemma_jump_experiment, make_grid, ow_wealth, rate_strategy,
                    theorem1_experiment, tracker_bound_experiment, utility_experiment)
from lobres.experiments import brownian_increments
from lobres.strategies import block_schedule, smooth_blocks


SMALL_LADDER = KappaLadder.geometric(16.0, 2.0, 5)
# the bounds of the shipped l2 config
L2_BOUNDS = UniformBounds(rate_bound=1.5, coefficient_bound=2.0, resilience_floor=0.5)


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
        with pytest.raises(InsufficientData):
            fit_rate([(4.0, 1.0), (8.0, 0.5)])

    def test_zeros_excluded(self):
        with pytest.raises(InsufficientData):
            fit_rate([(4.0, 0.0), (8.0, 0.0), (16.0, 1.0), (32.0, 0.5)])


class TestLadderGrid:
    def test_floor_applies(self):
        assert ladder_grid(1.0, 512, 4.0, 4096.0).steps == 512

    def test_scaling_applies(self):
        assert ladder_grid(1.0, 64, 4.0, 4096.0).steps == 256


class TestTheorem1:
    def test_zero_strategy_has_zero_errors(self):
        report = theorem1_experiment(BookTemplate(), 0.0, SMALL_LADDER)
        np.testing.assert_array_equal(report.mean_err, np.zeros(5))
        assert report.slope is None

    def test_smooth_rate_converges_fast(self):
        report = theorem1_experiment(
            BookTemplate(alpha=0.25, eps=0.01),
            lambda t: math.sin(2 * math.pi * t), SMALL_LADDER)
        assert np.all(np.diff(report.kappa_x_err) < 0)
        assert report.slope <= -1.5

    def test_gap_is_independent_of_the_price_path(self):
        # reference: the wealth gap sup_t |X_ow - X_ac| measured on each
        # sampled noisy price path; the experiment computes it once per kappa
        rate = lambda t: math.cos(2 * math.pi * t)
        spec = FundamentalSpec(s0=100.0, mu=0.05,
                               sigma=lambda t: 0.3 + 0.1 * math.sin(2 * math.pi * t))
        grid = ladder_grid(1.0, 512, 4.0, SMALL_LADDER.max)
        strat = rate_strategy(grid, rate)
        funds = [spec.sample(grid, RandomSource(42, p)) for p in range(4)]
        for alpha in (0.0, 0.5):
            template = BookTemplate(alpha=alpha, eps=0.01)
            report = theorem1_experiment(template, rate, SMALL_LADDER)
            for j, kappa in enumerate(SMALL_LADDER):
                book = template.materialize(grid, kappa)
                sups = [np.max(np.abs(ow_wealth(book, strat, fund).x.values
                                      - ac_wealth(book, strat, fund).x.values))
                        for fund in funds]
                np.testing.assert_allclose(sups, report.mean_err[j], rtol=1e-6)


class TestRemark1:
    def test_zero_base_rate(self):
        report = theorem1_experiment(BookTemplate(), 0.0, SMALL_LADDER, rate_growth=0.25)
        np.testing.assert_array_equal(report.mean_err, np.zeros(5))

    def test_scaled_errors_decrease(self):
        report = theorem1_experiment(
            BookTemplate(alpha=0.25, eps=0.01), lambda t: math.cos(2 * math.pi * t),
            SMALL_LADDER, rate_growth=0.25)
        assert np.all(np.diff(np.sqrt(report.kappas) * report.mean_err) < 0)
        assert report.slope <= -0.9


class TestLemmaJump:
    def test_zero_strategy_rejected(self):
        grid = ladder_grid(1.0, 512, 4.0, SMALL_LADDER.max)
        blocks = block_schedule(grid, [], t_prime=0.5)
        with pytest.raises(ValueError):
            lemma_jump_experiment(BookTemplate(), blocks, FundamentalSpec(),
                                  SMALL_LADDER)

    def test_unit_block_limit(self):
        ladder = KappaLadder.geometric(16.0, 2.0, 9)
        grid = ladder_grid(1.0, 512, 4.0, ladder.max)
        blocks = block_schedule(grid, [(0.25, 1.0)], t_prime=0.5)
        report = lemma_jump_experiment(BookTemplate(h=1.0), blocks,
                                       FundamentalSpec(sigma=0.0), ladder)
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
        report = lemma_jump_experiment(BookTemplate(h=1.0, alpha=0.5), blocks,
                                       FundamentalSpec(sigma=0.0), ladder)
        assert abs(report.mean_diff[-1] - 0.25) <= 0.02

    def test_noise_decomposition_matches_engine(self):
        # fast path: deterministic wealth plus position-weighted noise must
        # equal running the engine per path
        ladder = KappaLadder((64.0,))
        grid = ladder_grid(1.0, 128, 1.0, ladder.max)
        blocks = block_schedule(grid, [(0.25, 1.0)], t_prime=0.5)
        spec = FundamentalSpec(s0=100.0, mu=0.1, sigma=0.2)
        paths = 5
        report = lemma_jump_experiment(BookTemplate(h=1.0), blocks, spec, ladder,
                                       paths=paths, seed=11)
        book = BookTemplate(h=1.0).materialize(grid, 64.0)
        smoothed = smooth_blocks(blocks, 64.0, 1.0)
        for p in range(paths):
            fund = spec.sample(grid, RandomSource(11, p))
            direct = (ow_wealth(book, smoothed, fund).x.values[-1]
                      - ow_wealth(book, blocks, fund).x.values[-1])
            assert report.diffs[0, p] == pytest.approx(direct, abs=1e-11)

    def test_noisy_fundamental_mostly_positive(self):
        ladder = KappaLadder((256.0, 1024.0))
        grid = ladder_grid(1.0, 512, 4.0, ladder.max)
        blocks = block_schedule(grid, [(0.25, 1.0)], t_prime=0.5)
        report = lemma_jump_experiment(BookTemplate(h=1.0), blocks,
                                       FundamentalSpec(sigma=0.2), ladder,
                                       paths=200, seed=3)
        assert report.frac_positive[-1] >= 0.95


class TestTrackerBound:
    def test_constant_target_zero_error(self):
        report = tracker_bound_experiment(KappaLadder((16.0, 64.0)), target_vol=0.0,
                                          paths=10, n0=64)
        np.testing.assert_array_equal(report.estimates, np.zeros(2))
        assert report.all_within

    def test_brownian_target_within_bound(self):
        report = tracker_bound_experiment(KappaLadder.geometric(16.0, 4.0, 4),
                                          paths=2000, seed=5)
        assert report.bound == 5.0
        assert report.all_within
        assert np.all(report.estimates < 5.0)

    def test_matches_per_path_reference(self):
        # reference: one path at a time, the target the Ito sum of
        # RandomSource(seed, p) and the tracker the 1-D relax
        from lobres.strategies import relax_positions
        ladder = KappaLadder.geometric(16.0, 4.0, 3)
        paths, seed, mu, vol, target0 = 8, 11, 0.3, 0.8, 0.5
        report = tracker_bound_experiment(ladder, target_drift=mu, target_vol=vol,
                                          target0=target0, paths=paths, seed=seed,
                                          n0=64)
        grid = ladder_grid(1.0, 64, 4.0, ladder.max)
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

    def test_bound_violation_of_declared_coeffs(self):
        with pytest.raises(ValueError):
            tracker_bound_experiment(SMALL_LADDER, target_vol=2.0, coeff_bound=1.0,
                                     paths=10, n0=64)
        with pytest.raises(ValueError):
            tracker_bound_experiment(SMALL_LADDER, rate_scale=0.5, rate_floor=1.0,
                                     paths=10, n0=64)


class TestL2:
    def test_zero_strategy(self):
        report = theorem1_experiment(BookTemplate(), 0.0, SMALL_LADDER, bounds=L2_BOUNDS)
        np.testing.assert_array_equal(report.mean_err, np.zeros(5))

    def test_l2_at_least_l1(self):
        # the gap is path-free, so its L2 norm over paths is the theorem-1
        # error; declared bounds that hold leave it unchanged
        template = BookTemplate(alpha=0.25, eps=0.01)
        rate = lambda t: math.sin(2 * math.pi * t)
        l2 = theorem1_experiment(template, rate, SMALL_LADDER, bounds=L2_BOUNDS)
        l1 = theorem1_experiment(template, rate, SMALL_LADDER)
        np.testing.assert_array_equal(l2.mean_err, l1.mean_err)
        assert np.all(np.diff(l2.kappa_x_err) < 0)

    def test_declared_bounds_enforced(self):
        bounds = UniformBounds(rate_bound=0.5, coefficient_bound=2.0,
                               resilience_floor=0.5)
        with pytest.raises(ValueError):
            theorem1_experiment(BookTemplate(), 1.0, SMALL_LADDER, bounds=bounds)


class TestUtility:
    def test_zero_volatility_rejected(self):
        with pytest.raises(ValueError):
            utility_experiment(BookTemplate(), FundamentalSpec(mu=0.1, sigma=0.0),
                               gamma=1.0, kappas=[64.0], paths=10)

    def test_baseline_spread_rejected(self):
        with pytest.raises(ValueError):
            utility_experiment(BookTemplate(eps=0.01),
                               FundamentalSpec(mu=0.1, sigma=0.2),
                               gamma=1.0, kappas=[64.0], paths=10)

    def test_multipliers_must_include_candidate(self):
        with pytest.raises(ValueError):
            utility_experiment(BookTemplate(), FundamentalSpec(mu=0.1, sigma=0.2),
                               gamma=1.0, kappas=[64.0], multipliers=[0.5, 2.0],
                               paths=10)

    def test_ce_approaches_frictionless(self):
        report = utility_experiment(BookTemplate(), FundamentalSpec(mu=0.1, sigma=0.2),
                                    gamma=1.0, kappas=[64.0, 256.0, 1024.0],
                                    paths=2000, seed=7, bootstrap=100)
        curve = report.candidate_ce_curve()
        assert report.frictionless_ce == pytest.approx(0.125)
        assert all(b > a for a, b in zip(curve, curve[1:]))
        assert all(c < report.frictionless_ce for c in curve)

    def test_ce_shifts_by_initial_wealth(self):
        # x0 = +-800 would underflow / overflow exp(-gamma * x) unshifted
        def run(x0):
            return utility_experiment(BookTemplate(), FundamentalSpec(mu=0.1, sigma=0.2),
                                      gamma=1.0, kappas=[64.0], paths=200, seed=7,
                                      x0=x0, bootstrap=50)

        base = run(0.0)
        for x0 in (-800.0, 0.0, 800.0):
            report = run(x0)
            for key, cell in report.cells.items():
                ref = base.cells[key]
                assert all(map(math.isfinite, (cell.ce, cell.ci_low, cell.ci_high)))
                assert cell.ce - x0 == pytest.approx(ref.ce, abs=1e-9)
                assert cell.ci_low - x0 == pytest.approx(ref.ci_low, abs=1e-9)
                assert cell.ci_high - x0 == pytest.approx(ref.ci_high, abs=1e-9)
                assert cell.gap_vs_candidate == pytest.approx(ref.gap_vs_candidate,
                                                              abs=1e-9)

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
        from lobres.strategies import TrackerSpec, exponential_tracker
        gamma, mu, sigma, kappa = 1.0, 0.1, 0.2, 64.0
        paths, seed, bootstrap = 300, 5, 40
        spec = FundamentalSpec(mu=mu, sigma=sigma)
        report = utility_experiment(BookTemplate(), spec, gamma=gamma, kappas=[kappa],
                                    paths=paths, seed=seed, bootstrap=bootstrap)

        boot_idx = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            entropy=seed, spawn_key=(_BOOTSTRAP_STREAM,)))).integers(
                0, paths, size=(bootstrap, paths))
        grid = ladder_grid(1.0, 512, 4.0, kappa)
        book = BookTemplate().materialize(grid, kappa)
        dw = brownian_increments(grid, seed, paths)
        m_base = np.sqrt(book.K_up.values * book.h_up.values * sigma**2 * gamma / 2.0)
        boot = {}
        for c in report.multipliers:
            strat = exponential_tracker(TrackerSpec(
                constant_path(grid, mu / (gamma * sigma**2)),
                SampledPath(grid, c * m_base), kappa), start=0.0)
            x_det, w = Evaluation(book, strat, spec.mean_path(grid)).terminal(0.0)
            x = x_det + (sigma * w) @ dw
            boot[c] = np.array([_ce_one_sample(x[idx], gamma) for idx in boot_idx])
        for c in report.multipliers:
            cell = report.cells[(kappa, c)]
            lo, hi = np.percentile(boot[c], [2.5, 97.5])
            glo, ghi = np.percentile(boot[1.0] - boot[c], [2.5, 97.5])
            np.testing.assert_allclose([cell.ci_low, cell.ci_high], [lo, hi],
                                       rtol=1e-13, atol=0)
            np.testing.assert_allclose([cell.gap_ci_low, cell.gap_ci_high], [glo, ghi],
                                       rtol=1e-13, atol=1e-15)

    def test_candidate_noninferior_at_moderate_kappa(self):
        report = utility_experiment(BookTemplate(), FundamentalSpec(mu=0.1, sigma=0.2),
                                    gamma=1.0, kappas=[256.0], paths=2000, seed=7,
                                    bootstrap=200)
        assert report.candidate_noninferior(256.0)


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
        grid = make_grid(horizon, steps)
        block = brownian_increments(grid, seed, paths)
        assert block.flags.c_contiguous
        assert block.tobytes() == reference_increments(grid, seed, paths).tobytes()

    def test_path_extension_is_stable(self):
        # adding paths never changes earlier paths (one stream per path)
        grid = make_grid(1.0, 32)
        a = brownian_increments(grid, 42, 3)
        b = brownian_increments(grid, 42, 5)
        np.testing.assert_array_equal(a, b[:, :3])

    def test_columns_are_the_per_path_streams(self):
        # time-major layout: column p is stream p, scaled to N(0, dt)
        grid = make_grid(2.0, 16)
        b = brownian_increments(grid, 9, 4)
        assert b.shape == (16, 4)
        for p in range(4):
            expected = math.sqrt(grid.dt) * RandomSource(9, p).normals(16)
            np.testing.assert_array_equal(b[:, p], expected)


class TestFundamentalSpec:
    def test_sample_matches_ito_sampler(self):
        # the sampler reproduces the Euler Ito path for time-only
        # coefficients and the same (seed, stream)
        grid = make_grid(1.0, 256)
        spec = FundamentalSpec(s0=50.0, mu=0.08, sigma=0.3)
        a = spec.sample(grid, RandomSource(13, 2))
        dw = math.sqrt(grid.dt) * RandomSource(13, 2).normals(grid.steps)
        b = [50.0]
        for i in range(grid.steps):
            b.append(b[-1] + 0.08 * grid.dt + 0.3 * dw[i])
        np.testing.assert_allclose(a.values, b, rtol=0, atol=1e-12)

    def test_mean_path_is_drift_integral(self):
        grid = make_grid(2.0, 64)
        spec = FundamentalSpec(s0=10.0, mu=lambda t: t, sigma=0.0)
        mean = spec.mean_path(grid).values
        # left-point Riemann sum of the drift
        t = grid.points()
        expected = 10.0 + np.concatenate([[0.0], np.cumsum(t[:-1] * grid.dt)])
        np.testing.assert_allclose(mean, expected, rtol=1e-13)


class TestUtilityCandidateConstruction:
    def test_candidate_is_the_optimal_tracker(self):
        # multiplier 1 runs the closed-form-speed tracker started flat
        from lobres import constant_path, optimal_tracker
        from lobres.strategies import TrackerSpec, exponential_tracker
        gamma, sigma = 1.0, 0.2
        kappa = 256.0
        grid = ladder_grid(1.0, 512, 4.0, kappa)
        book = BookTemplate().materialize(grid, kappa)
        target = constant_path(grid, 0.1 / (gamma * sigma**2))
        via_optimal = optimal_tracker(book, constant_path(grid, sigma),
                                      constant_path(grid, 1.0 / gamma), target,
                                      start=0.0)
        m = np.sqrt(book.K_up.values * book.h_up.values * sigma**2 * gamma / 2.0)
        via_spec = exponential_tracker(
            TrackerSpec(target, rate_scale=__import__("lobres").SampledPath(grid, m),
                        kappa=kappa), start=0.0)
        np.testing.assert_allclose(via_optimal.rate.values, via_spec.rate.values,
                                   rtol=1e-13)

    def test_cell_matches_direct_engine_evaluation(self):
        # certainty equivalent recomputed by running the wealth engine per path
        from lobres import constant_path, optimal_tracker
        gamma, mu, sigma, kappa = 1.0, 0.1, 0.2, 64.0
        paths, seed = 64, 123
        report = utility_experiment(BookTemplate(), FundamentalSpec(100.0, mu, sigma),
                                    gamma=gamma, kappas=[kappa], multipliers=[1.0],
                                    paths=paths, seed=seed, bootstrap=20)
        grid = ladder_grid(1.0, 512, 4.0, kappa)
        book = BookTemplate().materialize(grid, kappa)
        target = constant_path(grid, mu / (gamma * sigma**2))
        strat = optimal_tracker(book, constant_path(grid, sigma),
                                constant_path(grid, 1.0 / gamma), target, start=0.0)
        spec = FundamentalSpec(100.0, mu, sigma)
        u = np.empty(paths)
        for p in range(paths):
            fund = spec.sample(grid, RandomSource(seed, p))
            u[p] = -np.exp(-gamma * ow_wealth(book, strat, fund).x.values[-1])
        ce_direct = -np.log(-u.mean()) / gamma
        assert report.ce(kappa, 1.0) == pytest.approx(ce_direct, abs=1e-10)


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
        kw = dict(target_drift=0.3, target_vol=0.8, target0=0.5, paths=paths, seed=11,
                  n0=CHUNK_STEPS)
        ladder = KappaLadder.geometric(16.0, 4.0, 2)
        chunked = tracker_bound_experiment(ladder, **kw)
        whole = reference_tracker_bound_experiment(ladder, **kw)
        for name in ("kappas", "estimates", "stderrs", "within"):
            assert getattr(chunked, name).tobytes() == getattr(whole, name).tobytes()
        assert chunked.bound == whole.bound

    @pytest.mark.parametrize("paths", [23, 3, 1])
    def test_lemma_jump_equals_whole_matrix(self, small_chunks, paths):
        grid = make_grid(1.0, CHUNK_STEPS)
        blocks = block_schedule(grid, [(0.25, 1.0)], t_prime=0.5)
        args = (BookTemplate(h=1.0), blocks, FundamentalSpec(mu=0.1, sigma=0.2),
                KappaLadder((16.0, 64.0, 256.0)))
        chunked = lemma_jump_experiment(*args, paths=paths, seed=7)
        whole = reference_lemma_jump_experiment(*args, paths=paths, seed=7)
        if _exact(paths):
            assert chunked.diffs.tobytes() == whole.diffs.tobytes()
            assert chunked.mean_diff.tobytes() == whole.mean_diff.tobytes()
        np.testing.assert_allclose(chunked.diffs, whole.diffs, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(chunked.mean_diff, whole.mean_diff, rtol=1e-13)
        np.testing.assert_array_equal(chunked.frac_positive, whole.frac_positive)

    def test_noise_free_lemma_jump_equals_whole_matrix(self, small_chunks):
        grid = make_grid(1.0, CHUNK_STEPS)
        blocks = block_schedule(grid, [(0.25, 1.0)], t_prime=0.5)
        args = (BookTemplate(h=1.0), blocks, FundamentalSpec(), KappaLadder((16.0, 64.0)))
        chunked = lemma_jump_experiment(*args, paths=23)
        whole = reference_lemma_jump_experiment(*args, paths=23)
        assert chunked.diffs.tobytes() == whole.diffs.tobytes()
        assert chunked.frac_positive.tobytes() == whole.frac_positive.tobytes()

    @pytest.mark.parametrize("paths", [23, 3, 1])
    def test_utility_equals_whole_matrix(self, small_chunks, paths):
        args = (BookTemplate(), FundamentalSpec(mu=0.1, sigma=0.2))
        kw = dict(gamma=1.5, kappas=[16.0, 64.0], paths=paths, seed=5, x0=2.0,
                  n0=CHUNK_STEPS, bootstrap=40)
        chunked = utility_experiment(*args, **kw)
        whole = reference_utility_experiment(*args, **kw)
        assert chunked.cells.keys() == whole.cells.keys()
        for key, cell in whole.cells.items():
            if _exact(paths):
                assert chunked.cells[key] == cell
            for name in ("ce", "ci_low", "ci_high", "gap_vs_candidate", "gap_ci_low",
                         "gap_ci_high"):
                assert getattr(chunked.cells[key], name) == pytest.approx(
                    getattr(cell, name), rel=1e-13, abs=1e-14)

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
        utility_experiment(BookTemplate(), FundamentalSpec(mu=0.1, sigma=0.2), gamma=1.0,
                           kappas=[64.0], paths=paths, seed=9, n0=64, bootstrap=200)
        every_path, *chunks = seen
        np.testing.assert_array_equal(every_path, np.arange(paths)[None, :])
        rows = max(1, experiments_module._CE_CHUNK_ELEMENTS // paths)
        assert [len(c) for c in chunks[:-1]] == [rows] * (len(chunks) - 1)
        one_shot = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            entropy=9, spawn_key=(_BOOTSTRAP_STREAM,)))).integers(0, paths, size=(200, paths))
        assert np.concatenate(chunks).tobytes() == one_shot.tobytes()


class TestMonteCarloMemory:
    # 20,000 paths x 512 steps: one (steps, paths) float64 matrix is 82 MB,
    # and the whole-matrix experiments hold at least one.  Chunked, the peak
    # is a few 4 MiB chunk buffers plus one float64 result per cell and path.
    PATHS = 20_000

    def _traced_peak(self, run) -> int:
        from lobres.paths import _ndtri
        _ndtri()  # scipy's import is not the experiment's
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _bound(self, cells: int) -> int:
        return 4 * 8 * experiments_module._CHUNK_ELEMENTS + 8 * cells * self.PATHS

    def test_tracker_bound_peak(self):
        ladder = KappaLadder((16.0, 64.0))
        peak = self._traced_peak(lambda: tracker_bound_experiment(
            ladder, paths=self.PATHS, seed=1))
        assert peak < self._bound(len(ladder)) < 8 * 512 * self.PATHS / 4

    def test_utility_peak(self):
        peak = self._traced_peak(lambda: utility_experiment(
            BookTemplate(), FundamentalSpec(mu=0.1, sigma=0.2), gamma=1.0, kappas=[64.0],
            paths=self.PATHS, seed=1, bootstrap=50))
        assert peak < self._bound(3) < 8 * 512 * self.PATHS / 4
