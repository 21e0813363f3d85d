import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lobres import (BookParams, Evaluation, SampledPath, Strategy, constant_path, fit_rate,
                    function_path, make_grid, position_paths, rate_strategy, zero_strategy)
from lobres.book import evolve_book


import helpers
from helpers import constant_book, random_strategy, reference_evolve_book


def spread_paths(book, strategy):
    """Spreads of an evaluation; they do not depend on the fundamental."""
    return Evaluation(book, strategy, constant_path(book.grid, 100.0)).spreads()


class TestBookParams:
    def test_alpha_range_enforced(self):
        grid = make_grid(1.0, 8)
        with pytest.raises(ValueError):
            constant_book(grid, 10.0, alpha=0.7)

    def test_positive_depth_enforced(self):
        grid = make_grid(1.0, 8)
        with pytest.raises(ValueError):
            constant_book(grid, 10.0, h=0.0)

    def test_kappa_positive(self):
        grid = make_grid(1.0, 8)
        with pytest.raises(ValueError):
            constant_book(grid, 0.0)

    def test_zero_baseline_spread_allowed(self):
        grid = make_grid(1.0, 8)
        constant_book(grid, 10.0, eps=0.0)


class TestEvolveSpreads:
    def test_zero_strategy_keeps_baselines(self):
        grid = make_grid(1.0, 64)
        book = constant_book(grid, 32.0, eps=0.03)
        sp = spread_paths(book, zero_strategy(grid))
        np.testing.assert_array_equal(sp.ask.values, np.full(65, 0.03))
        np.testing.assert_array_equal(sp.bid.values, np.full(65, 0.03))

    def test_single_block_closed_form(self):
        grid = make_grid(1.0, 1000)
        kappa, K, h, eps, theta = 48.0, 1.3, 2.0, 0.02, 1.7
        book = constant_book(grid, kappa, K=K, h=h, eps=eps)
        strat = Strategy(grid, constant_path(grid, 0.0), ((0, theta),))
        sp = spread_paths(book, strat)
        t = grid.points()
        expected = eps + (theta / h) * np.exp(-kappa * K * t)
        np.testing.assert_allclose(sp.ask.values, expected, rtol=1e-12)
        np.testing.assert_array_equal(sp.bid.values, np.full_like(t, eps))
        # pre-jump value at the block instant is the baseline
        assert sp.ask_pre[0] == eps

    def test_constant_rate_closed_form(self):
        grid = make_grid(1.0, 1000)
        kappa, K, h, eps, c = 48.0, 1.3, 2.0, 0.02, 0.9
        book = constant_book(grid, kappa, K=K, h=h, eps=eps)
        sp = spread_paths(book, rate_strategy(grid, c))
        t = grid.points()
        expected = eps + c / (kappa * K * h) * (1.0 - np.exp(-kappa * K * t))
        np.testing.assert_allclose(sp.ask.values, expected, rtol=1e-12)

    def test_piecewise_constant_rate_exactness(self):
        # stepped solution equals the exact convolution of the sampled rate
        grid = make_grid(1.0, 256)
        kappa, K, h = 64.0, 1.0, 1.5
        book = constant_book(grid, kappa, K=K, h=h)
        rng = np.random.default_rng(5)
        rates = np.abs(rng.normal(1.0, 0.5, grid.n_points))
        sp = spread_paths(book, Strategy(grid, SampledPath(grid, rates)))
        a = kappa * K
        dt = grid.dt
        exact = np.zeros(grid.n_points)
        for i in range(grid.steps):
            # contribution of step i's constant rate to every later grid point
            tail = np.exp(-a * (grid.points()[i + 1:] - grid.points()[i + 1]))
            exact[i + 1:] += (rates[i] / (h * a)) * (1.0 - math.exp(-a * dt)) * tail
        np.testing.assert_allclose(sp.ask.values - book.eps_up.values, exact,
                                   rtol=1e-10, atol=1e-15)

    def test_spread_dominance(self):
        grid = make_grid(1.0, 128)
        book = constant_book(grid, 16.0, alpha=0.3, eps=0.05)
        rng = np.random.default_rng(11)
        for _ in range(20):
            sp = spread_paths(book, random_strategy(grid, rng))
            assert np.all(sp.ask.values >= book.eps_up.values - 1e-15)
            assert np.all(sp.bid.values >= book.eps_dn.values - 1e-15)

    def test_depth_scaling(self):
        grid = make_grid(1.0, 128)
        rng = np.random.default_rng(3)
        strat = random_strategy(grid, rng)
        c = 3.0
        sp1 = spread_paths(constant_book(grid, 16.0, h=1.0), strat)
        sp2 = spread_paths(constant_book(grid, 16.0, h=c), strat)
        np.testing.assert_allclose(sp2.ask.values, sp1.ask.values / c, rtol=1e-12)
        np.testing.assert_allclose(sp2.bid.values, sp1.bid.values / c, rtol=1e-12)

    def test_resilience_monotonicity(self):
        grid = make_grid(1.0, 128)
        strat = rate_strategy(grid, 1.0)
        spreads = [spread_paths(constant_book(grid, k), strat).ask.values
                   for k in (8.0, 16.0, 32.0, 64.0)]
        for lo, hi in zip(spreads, spreads[1:]):
            assert np.all(hi[1:] <= lo[1:] + 1e-15)

    def test_refinement_self_consistency(self):
        # continuously varying coefficients: discretization error is O(dt)
        def run(n):
            grid = make_grid(1.0, n)
            book = BookParams.build(grid, 8.0, K=lambda t: 1.0 + 0.5 * math.sin(2 * math.pi * t),
                                    h=lambda t: 1.0 + 0.3 * t, alpha=0.2, eps=0.01)
            strat = rate_strategy(grid, lambda t: math.cos(2 * math.pi * t))
            return spread_paths(book, strat).ask.values

        levels = [run(128 * 2**j) for j in range(4)]
        diffs = [np.max(np.abs(a - b[::2])) for a, b in zip(levels, levels[1:])]
        dts = [1.0 / (128 * 2**j) for j in range(3)]
        assert fit_rate(list(zip(dts, diffs))) >= 0.9

    def test_grid_mismatch(self):
        book = constant_book(make_grid(1.0, 8), 4.0)
        with pytest.raises(ValueError):
            spread_paths(book, zero_strategy(make_grid(1.0, 16)))


class TestReferencePrice:
    def test_zero_permanent_impact(self):
        grid = make_grid(1.0, 64)
        book = constant_book(grid, 16.0, alpha=0.0)
        fund = function_path(grid, lambda t: 100.0 + t)
        rng = np.random.default_rng(2)
        ref = Evaluation(book, random_strategy(grid, rng), fund).reference()
        np.testing.assert_array_equal(ref.values.values, fund.values)

    def test_block_shift_held(self):
        grid = make_grid(1.0, 64)
        alpha, h, theta = 0.4, 2.0, 1.5
        book = constant_book(grid, 16.0, alpha=alpha, h=h)
        fund = constant_path(grid, 50.0)
        strat = Strategy(grid, constant_path(grid, 0.0), ((16, theta),))
        ref = Evaluation(book, strat, fund).reference()
        shift = alpha * theta / h
        np.testing.assert_allclose(ref.values.values[16:], 50.0 + shift, rtol=1e-14)
        assert ref.pre[16] == 50.0
        np.testing.assert_array_equal(ref.values.values[:16], np.full(16, 50.0))

    def test_round_trip_cancels(self):
        grid = make_grid(1.0, 100)
        book = constant_book(grid, 16.0, alpha=0.25, h=2.0)
        fund = constant_path(grid, 10.0)
        strat = Strategy(grid, constant_path(grid, 0.0), ((10, 1.0), (60, -1.0)))
        ref = Evaluation(book, strat, fund).reference()
        assert ref.values.values[-1] == pytest.approx(10.0, abs=1e-14)


class TestScaledExcessSpread:
    def test_zero_strategy(self):
        grid = make_grid(1.0, 64)
        book = constant_book(grid, 16.0)
        path = book.kappa * evolve_book(book, zero_strategy(grid)).exc_up_post
        np.testing.assert_array_equal(path, np.zeros(65))

    def test_constant_rate_limit(self):
        grid = make_grid(4.0, 2048)
        kappa, K, h, alpha, c = 64.0, 1.2, 1.5, 0.2, 0.7
        book = constant_book(grid, kappa, K=K, h=h, alpha=alpha)
        path = book.kappa * evolve_book(book, rate_strategy(grid, c)).exc_up_post
        limit = (1.0 - alpha) * c / (K * h)
        assert path[-1] == pytest.approx(limit, rel=1e-8)

    def test_ladder_slope(self):
        # sup distance to the limit decays ~ 1/kappa for smooth rates.  The
        # stepped book sees the sampled piecewise-constant rate, so the limit
        # at t_i uses the rate on the step ending at t_i.
        grid = make_grid(1.0, 512)
        K, h, alpha = 1.0, 1.0, 0.25
        rate = rate_strategy(grid, lambda t: 2.0 + math.sin(2.0 * math.pi * t))
        i0 = 128  # t0 = 0.25 skips the initial relaxation layer
        target = (1.0 - alpha) * rate.rate.values / (K * h)
        errors = []
        kappas = [2.0**j for j in range(4, 13)]
        for kappa in kappas:
            book = constant_book(grid, kappa, K=K, h=h, alpha=alpha)
            path = book.kappa * evolve_book(book, rate).exc_up_post
            err = np.abs(path[i0:] - target[i0 - 1:-1])
            errors.append(float(err.max()))
        assert fit_rate(list(zip(kappas, errors))) <= -0.9


@st.composite
def books_and_strategies(draw):
    """Small grids with kappa*dt in [1e-6, 1e6], asymmetric and time-varying
    K and h, alpha 0, 1/2 or between, sign-changing rates and blocks of both
    signs, at index 0 and index n among others."""
    n = draw(st.integers(1, 40))
    grid = make_grid(draw(st.floats(0.1, 4.0)), n)
    kappa = 10.0 ** draw(st.floats(-6.0, 6.0)) / grid.dt

    def values(lo, hi):
        return draw(arrays(np.float64, n + 1, elements=st.floats(lo, hi)))

    def alpha():
        return draw(st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5)))

    book = BookParams(
        kappa=kappa,
        K_up=SampledPath(grid, values(0.5, 2.0)),
        K_dn=SampledPath(grid, values(0.5, 2.0)),
        h_up=SampledPath(grid, 10.0 ** values(-6.0, 2.0)),
        h_dn=SampledPath(grid, 10.0 ** values(-6.0, 2.0)),
        alpha_up=constant_path(grid, alpha()), alpha_dn=constant_path(grid, alpha()),
        eps_up=constant_path(grid, draw(st.floats(0.0, 0.1))),
        eps_dn=constant_path(grid, draw(st.floats(0.0, 0.1))))
    index = draw(st.sets(st.integers(0, n), max_size=3))
    index |= {i for i, keep in ((0, draw(st.booleans())), (n, draw(st.booleans()))) if keep}
    blocks = tuple((i, draw(st.floats(0.01, 5.0)) * draw(st.sampled_from([-1.0, 1.0])))
                   for i in sorted(index))
    strategy = Strategy(grid, SampledPath(grid, values(-10.0, 10.0)), blocks,
                        phi0=draw(st.floats(-3.0, 3.0)))
    return book, strategy, SampledPath(grid, values(50.0, 150.0))


class TestScanMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(books_and_strategies())
    def test_bit_identical_to_per_step_loop(self, case):
        book, strategy, fundamental = case
        got = evolve_book(book, strategy)
        want = reference_evolve_book(book, strategy)
        for name in ("exc_up_pre", "exc_up_post", "exc_dn_pre", "exc_dn_post",
                     "exc_up_int", "exc_dn_int", "perm_pre", "perm_post"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.array_equal(a, b), name
            assert a.tobytes() == b.tobytes(), name

        # every projection of one evaluation equals the per-projection engine
        evaluation = Evaluation(book, strategy, fundamental)
        block_free = Strategy(strategy.grid, strategy.rate, (), strategy.phi0)
        ow = evaluation.ow(1.0), helpers.ow_wealth(book, strategy, fundamental, 1.0)
        ac = (Evaluation(book, block_free, fundamental).ac(1.0),
              helpers.ac_wealth(book, block_free, fundamental, 1.0))
        ref = evaluation.reference(), helpers.reference_price(book, strategy, fundamental)
        spreads = evaluation.spreads(), helpers.evolve_spreads(book, strategy)
        pairs = {f"{name}.{field}": tuple(getattr(w, field).values for w in engines)
                 for name, engines in (("ow", ow), ("ac", ac))
                 for field in ("x", "gain", "spread_cost", "impact_cost", "block_cost",
                               "permanent_shift")}
        pairs["account"] = (evaluation.safe_account(1.0).values,
                            helpers.safe_account(book, strategy, fundamental, 1.0).values)
        pairs["reference"] = tuple(r.values.values for r in ref)
        pairs["reference_pre"] = tuple(r.pre for r in ref)
        for field in ("ask", "bid"):
            pairs[field] = tuple(getattr(sp, field).values for sp in spreads)
        for field in ("ask_pre", "bid_pre"):
            pairs[field] = tuple(getattr(sp, field) for sp in spreads)
        for name, (got, want) in pairs.items():
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        x_terminal, weights = evaluation.terminal(1.0)
        want_x, want_weights = helpers._terminal_wealth_decomposition(book, strategy,
                                                                      fundamental, 1.0)
        assert repr(x_terminal) == repr(want_x)
        assert weights.tobytes() == want_weights.tobytes()

        # wealth = safe account + position * reference price, to rounding
        x = evaluation.ow(1.0).x.values
        account = evaluation.safe_account(1.0).values
        _, position = position_paths(strategy)
        marked = position * ref[0].values.values
        scale = 1.0 + np.abs(account).max() + np.abs(marked).max()
        assert np.max(np.abs(x - (account + marked))) <= 1e-12 * scale
