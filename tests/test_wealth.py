import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lobres import (BookParams, Evaluation, FundamentalSpec, SampledPath, Strategy,
                    TimeGrid, constant_path, fit_rate, function_path, position_paths,
                    rate_strategy)
from lobres.book import evolve_book
from lobres.paths import write_tables
from helpers import random_strategy


def book_and_fund(grid, kappa=64.0, **kw):
    book = BookParams.on_grid(grid, kappa, **kw)
    return book, constant_path(grid, 100.0)


class TestOwWealth:
    def test_zero_strategy_is_flat(self):
        grid = TimeGrid(1.0, 64)
        book, fund = book_and_fund(grid, alpha=0.2, eps=0.05)
        w = Evaluation(book, rate_strategy(grid, 0.0), fund).ow(7.0)
        np.testing.assert_array_equal(w.x.values, np.full(65, 7.0))

    def test_single_block_oracle(self):
        # buy theta with no permanent impact on a constant price:
        # cost = spread * theta + theta^2 / (2h)
        grid = TimeGrid(1.0, 128)
        h, e, theta = 2.0, 0.03, 1.7
        book, fund = book_and_fund(grid, h=h, eps=e)
        strat = Strategy(grid, constant_path(grid, 0.0), ((32, theta),))
        w = Evaluation(book, strat, fund).ow(0.0)
        assert w.x.values[-1] == pytest.approx(-e * theta - theta**2 / (2 * h), abs=1e-14)

    def test_round_trip_oracle(self):
        # buy at 0, sell at T: each side pays its own spread and half impact
        grid = TimeGrid(1.0, 128)
        h, e, theta = 2.0, 0.03, 1.2
        book, fund = book_and_fund(grid, kappa=512.0, h=h, eps=e)
        strat = Strategy(grid, constant_path(grid, 0.0), ((0, theta), (128, -theta)))
        w = Evaluation(book, strat, fund).ow(0.0)
        assert w.x.values[-1] == pytest.approx(-2 * e * theta - theta**2 / h, abs=1e-14)

    def test_breakdown_identity(self):
        grid = TimeGrid(1.0, 256)
        book, fund = book_and_fund(grid, alpha=0.25, eps=0.01)
        rng = np.random.default_rng(21)
        strat = random_strategy(grid, rng, phi0=1.0)
        w = Evaluation(book, strat, fund).ow(5.0)
        recon = (5.0 + w.gain.values - w.spread_cost.values - w.impact_cost.values
                 - w.block_cost.values)
        np.testing.assert_allclose(w.x.values, recon, rtol=0, atol=1e-12)

    def test_cost_sign_on_constant_price(self):
        # zero net drift gain (alpha = 0 keeps the reference flat): costs are
        # nonnegative, so no strategy makes money against the book
        grid = TimeGrid(1.0, 128)
        book, fund = book_and_fund(grid, alpha=0.0, eps=0.02)
        rng = np.random.default_rng(9)
        for _ in range(25):
            strat = random_strategy(grid, rng)
            w = Evaluation(book, strat, fund).ow(0.0)
            assert w.x.values[-1] <= 1e-12

    def test_cost_sign_round_trip_with_permanent_impact(self):
        # flat-at-T block round trips lose money for alpha > 0 as well
        grid = TimeGrid(1.0, 128)
        book, fund = book_and_fund(grid, alpha=0.4, eps=0.01)
        for theta in (0.5, 1.0, 3.0):
            strat = Strategy(grid, constant_path(grid, 0.0),
                             ((8, theta), (96, -theta)))
            w = Evaluation(book, strat, fund).ow(0.0)
            assert w.x.values[-1] <= 1e-12

    def test_permanent_impact_neutrality(self):
        # buy-and-hold: relative to alpha = 0, the permanent shift raises
        # mark-to-market wealth by position * (alpha / h) * volume at the trade
        grid = TimeGrid(1.0, 64)
        alpha, h, theta = 0.4, 2.0, 1.5
        fund = constant_path(grid, 10.0)
        strat = Strategy(grid, constant_path(grid, 0.0), ((16, theta),))
        w_alpha = Evaluation(BookParams.on_grid(grid, 64.0, h=h, alpha=alpha), strat,
                             fund).ow()
        w_zero = Evaluation(BookParams.on_grid(grid, 64.0, h=h, alpha=0.0), strat,
                            fund).ow()
        lift = theta * (alpha / h) * theta
        assert (w_alpha.x.values[16] - w_zero.x.values[16]) == pytest.approx(lift, abs=1e-14)

    def test_grid_refinement_order(self):
        # deterministic smooth configuration: terminal wealth converges at
        # first order in dt
        def terminal(n):
            grid = TimeGrid(1.0, n)
            book = BookParams.on_grid(grid, 8.0, K=lambda t: 1.0 + 0.5 * math.sin(2 * math.pi * t),
                                      h=1.5, alpha=0.25, eps=0.02)
            fund = function_path(grid, lambda t: 100.0 + 2.0 * t + math.sin(t))
            strat = rate_strategy(grid, lambda t: math.cos(2 * math.pi * t))
            return Evaluation(book, strat, fund).ow().x.values[-1]

        ns = [128 * 2**j for j in range(4)]
        xs = [terminal(n) for n in ns]
        diffs = [abs(a - b) for a, b in zip(xs, xs[1:])]
        assert fit_rate(list(zip([1.0 / n for n in ns[:-1]], diffs))) >= 0.9


class TestSafeAccount:
    def test_zero_strategy_constant(self):
        grid = TimeGrid(1.0, 64)
        book, fund = book_and_fund(grid)
        acct = Evaluation(book, rate_strategy(grid, 0.0, 2.0), fund).safe_account(9.0)
        np.testing.assert_array_equal(acct.values, np.full(65, 9.0 - 2.0 * 100.0))

    def test_single_block_charge(self):
        # first purchase on an empty book pays s + e + theta / (2h) per share
        grid = TimeGrid(1.0, 64)
        s, e, h, theta = 100.0, 0.03, 2.0, 1.4
        book, fund = book_and_fund(grid, h=h, eps=e)
        strat = Strategy(grid, constant_path(grid, 0.0), ((16, theta),))
        acct = Evaluation(book, strat, fund).safe_account(0.0)
        charge = (s + e + theta / (2 * h)) * theta
        assert acct.values[16] - acct.values[15] == pytest.approx(-charge, abs=1e-12)

    def test_bookkeeping_identity_random_strategies(self):
        # wealth equals safe account plus position marked at the reference
        grid = TimeGrid(1.0, 256)
        rng = np.random.default_rng(2718)
        spec = FundamentalSpec(s0=50.0, mu=0.02, sigma=0.3)
        for trial in range(100):
            kappa = float(rng.uniform(1.0, 200.0))
            book = BookParams.on_grid(grid, kappa, K=float(rng.uniform(0.5, 2.0)),
                                      h=float(rng.uniform(0.5, 3.0)),
                                      alpha=float(rng.uniform(0.0, 0.5)),
                                      eps=float(rng.uniform(0.0, 0.1)))
            fund = spec.add_noise(spec.mean_path(grid), spec.sigma_steps(grid), 1000, trial)
            strat = random_strategy(grid, rng, n_blocks=int(rng.integers(0, 6)),
                                    phi0=float(rng.normal(0.0, 1.0)))
            x0 = float(rng.normal(0.0, 5.0))
            evaluation = Evaluation(book, strat, fund)
            w = evaluation.ow(x0)
            acct = evaluation.safe_account(x0)
            ref = evaluation.reference()
            _, post = position_paths(strat)
            recon = acct.values + post * ref.values.values
            scale = np.maximum(1.0, np.abs(w.x.values))
            assert np.max(np.abs(w.x.values - recon) / scale) <= 1e-10


class TestAcWealth:
    def test_zero_strategy(self):
        grid = TimeGrid(1.0, 64)
        book, fund = book_and_fund(grid)
        w = Evaluation(book, rate_strategy(grid, 0.0), fund).ac(3.0)
        np.testing.assert_array_equal(w.x.values, np.full(65, 3.0))

    def test_blocks_rejected(self):
        grid = TimeGrid(1.0, 64)
        book, fund = book_and_fund(grid)
        strat = Strategy(grid, constant_path(grid, 0.0), ((4, 1.0),))
        with pytest.raises(ValueError):
            Evaluation(book, strat, fund).ac()

    def test_constant_rate_closed_form(self):
        grid = TimeGrid(1.0, 200)
        kappa, K, h, e, c = 32.0, 1.25, 2.0, 0.04, 0.9
        book = BookParams.on_grid(grid, kappa, K=K, h=h, eps=e)
        fund = constant_path(grid, 100.0)
        w = Evaluation(book, rate_strategy(grid, c), fund).ac()
        expected = -e * c - c**2 / (kappa * K * h)
        assert w.x.values[-1] == pytest.approx(expected, abs=1e-14)

    def test_quadratic_cost_halves_when_kappa_doubles(self):
        grid = TimeGrid(1.0, 128)
        fund = constant_path(grid, 100.0)
        strat = rate_strategy(grid, lambda t: math.sin(2 * math.pi * t))
        w1 = Evaluation(BookParams.on_grid(grid, 50.0, alpha=0.2), strat, fund).ac()
        w2 = Evaluation(BookParams.on_grid(grid, 100.0, alpha=0.2), strat, fund).ac()
        np.testing.assert_allclose(w2.impact_cost.values, w1.impact_cost.values / 2.0,
                                   rtol=1e-13)

    def test_depth_resilience_scaling(self):
        # with zero spread and no permanent impact, costs scale as 1/(kappa K h)
        grid = TimeGrid(1.0, 128)
        fund = constant_path(grid, 100.0)
        strat = rate_strategy(grid, lambda t: math.sin(2 * math.pi * t))
        base = Evaluation(BookParams.on_grid(grid, 10.0, K=1.0, h=1.0), strat, fund).ac()
        scaled = Evaluation(BookParams.on_grid(grid, 20.0, K=1.5, h=2.0), strat, fund).ac()
        factor = 10.0 / (20.0 * 1.5 * 2.0)
        np.testing.assert_allclose(scaled.impact_cost.values,
                                   base.impact_cost.values * factor, rtol=1e-13)

    def test_gain_discretization_matches_ow(self):
        # both engines mark gains identically so their difference is pure cost
        grid = TimeGrid(1.0, 128)
        book = BookParams.on_grid(grid, 64.0, alpha=0.25, eps=0.01)
        spec = FundamentalSpec(s0=100.0, mu=0.1, sigma=0.2)
        fund = spec.add_noise(spec.mean_path(grid), spec.sigma_steps(grid), 5)
        strat = rate_strategy(grid, lambda t: math.sin(2 * math.pi * t))
        evaluation = Evaluation(book, strat, fund)
        w_ow = evaluation.ow()
        w_ac = evaluation.ac()
        np.testing.assert_array_equal(w_ow.gain.values, w_ac.gain.values)
        np.testing.assert_array_equal(w_ow.spread_cost.values, w_ac.spread_cost.values)
        np.testing.assert_array_equal(w_ow.permanent_shift.values,
                                      w_ac.permanent_shift.values)


# A constant book with no spread and a constant price, buying x0 shares over
# [0, T]; kappa * K * dt runs from about 1e-6, where _phi2 takes its series,
# to about 1e4.
CLOSED_FORM = dict(kappa=st.floats(0.5, 4096.0), K=st.floats(1e-3, 4.0),
                   h=st.floats(0.1, 4.0), alpha=st.floats(0.0, 0.5),
                   steps=st.integers(1, 1024), horizon=st.sampled_from([0.5, 1.0, 3.0]),
                   x0=st.floats(0.1, 10.0))


def _assert_closed_form(wealth, gain, cost):
    # the permanent impact's gain on the shares held, minus the transient cost
    assert abs(wealth - (gain - cost)) <= 1e-12 * (abs(gain) + abs(cost))


class TestClosedForms:
    @settings(max_examples=40, deadline=None)
    @given(**CLOSED_FORM)
    @example(kappa=4.0, K=0.001, h=2.0, alpha=0.5, steps=512, horizon=1.0, x0=1.0)
    @example(kappa=1024.0, K=1.0, h=1.0, alpha=0.25, steps=256, horizon=1.0, x0=2.0)
    @example(kappa=300.0, K=2.5, h=0.3, alpha=0.1, steps=100, horizon=3.0, x0=0.7)
    def test_ow_optimal_buy_program(self, kappa, K, h, alpha, steps, horizon, x0):
        # Obizhaeva/Wang: blocks of x0 / (kappa K T + 2) at 0 and T and the
        # rate kappa K times the block between them
        grid = TimeGrid(horizon, steps)
        block = x0 / (kappa * K * horizon + 2.0)
        book = BookParams.on_grid(grid, kappa, K=K, h=h, alpha=alpha)
        strat = Strategy(grid, constant_path(grid, kappa * K * block),
                         ((0, block), (steps, block)))
        wealth = Evaluation(book, strat, constant_path(grid, 100.0)).ow().x.values[-1]
        _assert_closed_form(wealth, alpha * x0**2 / (2 * h),
                            (1 - alpha) * x0**2 / (h * (kappa * K * horizon + 2.0)))

    @settings(max_examples=40, deadline=None)
    @given(**CLOSED_FORM)
    @example(kappa=4.0, K=0.001, h=2.0, alpha=0.5, steps=512, horizon=1.0, x0=1.0)
    def test_ac_constant_rate(self, kappa, K, h, alpha, steps, horizon, x0):
        # Almgren/Chriss: buying at the rate x0 / T costs lambda x0^2 / T
        grid = TimeGrid(horizon, steps)
        book = BookParams.on_grid(grid, kappa, K=K, h=h, alpha=alpha)
        strat = rate_strategy(grid, x0 / horizon)
        wealth = Evaluation(book, strat, constant_path(grid, 100.0)).ac().x.values[-1]
        _assert_closed_form(wealth, alpha * x0**2 / (2 * h),
                            (1 - alpha) * x0**2 / (kappa * K * h * horizon))


class TestWealthCsv:
    def test_columns_and_identity(self, tmp_path):
        grid = TimeGrid(1.0, 16)
        book, fund = book_and_fund(grid, alpha=0.1, eps=0.02)
        strat = Strategy(grid, constant_path(grid, 0.5), ((4, 1.0),))
        w = Evaluation(book, strat, fund).ow(1.0)
        f = tmp_path / "wealth.csv"
        write_tables({f: w.table()})
        header = f.read_text().splitlines()[0]
        assert header == "t,X,gain,spread_cost,impact_cost,block_cost,permanent_shift"
        rows = f.read_text().splitlines()[1:]
        assert len(rows) == grid.n_points


class TestEvaluationMemory:
    def test_simulate_evaluation_holds_states_and_outputs(self):
        # one simulate evaluation on simulate_fine's 126,492-step grid with a
        # symmetric book.  Beyond its inputs, the scan peaks near 10 one-path
        # arrays (its state paths and step weights), and the evaluation with
        # its wealth and spread paths near 15 (the 5 pre-jump and integrated
        # states and the 6 + 4 outputs), since each ledger term is dropped once
        # accumulated and a post-jump state is built only when read.
        grid = TimeGrid(1.0, 126_492)
        book = BookParams.on_grid(grid, 1e9, alpha=0.25, eps=0.01)
        t = grid.points()
        strategy = Strategy(grid, SampledPath(grid, np.cos(6.0 * t)), ((grid.steps // 4, 1.0),))
        fund = SampledPath(grid, 100.0 + np.sin(3.0 * t))
        one_path = 8 * grid.n_points
        tracemalloc.start()
        try:
            state = evolve_book(book, strategy)
            scan = tracemalloc.get_traced_memory()[1]
            del state
            tracemalloc.reset_peak()
            evaluation = Evaluation(book, strategy, fund)
            outputs = evaluation.ow(0.0), evaluation.spreads()  # held at the peak
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scan <= 11 * one_path
        assert peak <= 16 * one_path
