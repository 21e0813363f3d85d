import csv
import json
import math
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lobres.book
from lobres import (BookParams, Evaluation, KappaLadder, SampledPath, Strategy, TimeGrid,
                    as_path, constant_path, fit_rate, function_path, position_paths,
                    rate_strategy, theorem1_experiment)
from lobres.book import _phi1, _phi2, evolve_book
from lobres.cli import main


import helpers
from helpers import random_strategy, reference_evolve_book


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def spread_paths(book, strategy):
    """Spreads of an evaluation; they do not depend on the fundamental."""
    return Evaluation(book, strategy, constant_path(book.grid, 100.0)).spreads()


def _decimal_phis(z: float) -> tuple[float, float]:
    """(1 - exp(-z)) / z and (z - 1 + exp(-z)) / z^2 of the float z, computed
    in 50-digit decimal arithmetic and rounded once."""
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(z)
        e = (-d).exp()
        return float((1 - e) / d), float((d - 1 + e) / (d * d))


# z from 1e-10 to 1e4, with the points next to _phi2's series switch at 0.01
PHI_ZS = np.unique(np.concatenate([
    np.geomspace(1e-10, 1e4, 281),
    [np.nextafter(1e-2, 0.0), 1e-2, np.nextafter(1e-2, 1.0), 0.0099, 0.0101, 0.005, 0.02]]))


class TestStepWeights:
    # the scan's step weights against a 50-digit reference, on both sides of
    # _phi2's series switch: _phi1 is accurate to about 2e-16 and _phi2 to
    # about 4e-14 (just above the switch, where z - 1 + exp(-z) cancels)
    def test_phi1_and_phi2_match_a_50_digit_reference(self):
        assert (PHI_ZS < 1e-2).sum() > 100 and (PHI_ZS >= 1e-2).sum() > 100
        reference = np.array([_decimal_phis(float(z)) for z in PHI_ZS])
        for got, want in ((_phi1(PHI_ZS), reference[:, 0]), (_phi2(PHI_ZS), reference[:, 1])):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_a_converge_run_takes_the_series_below_the_switch(self, tmp_path, monkeypatch):
        # the shipped theorem1 with K = 0.1: kappa*K*dt is 0.003 and 0.006 on
        # the rungs 16 and 32 of its 512-step grid.  Their gaps in
        # convergence.csv match the gaps from 50-digit step weights to 1e-12
        # relative; they agree to about 2e-16, and _phi2's series with zs / 5
        # instead of zs / 6 moves them by 5e-7 and 2.5e-6
        payload = json.loads((CONFIG_DIR / "theorem1.json").read_text())
        payload["book"]["K"] = 0.1
        config, out = tmp_path / "config.json", tmp_path / "out"
        config.write_text(json.dumps(payload))
        assert main(["converge", "--config", str(config), "--out", str(out)]) in (0, 1)
        with open(out / "convergence.csv", newline="") as fh:
            run = [float(row["mean_err"]) for row in csv.DictReader(fh)][:2]

        def decimal_phi(k):
            return lambda z: np.array([_decimal_phis(float(x))[k] for x in z])

        monkeypatch.setattr(lobres.book, "_phi1", decimal_phi(0))
        monkeypatch.setattr(lobres.book, "_phi2", decimal_phi(1))
        ladder, grid = KappaLadder((16.0, 32.0)), TimeGrid(1.0, 512)
        assert max(ladder) * 0.1 * grid.dt < 1e-2
        book = BookParams.on_grid(grid, ladder.values[0], K=0.1, alpha=0.25, eps=0.01)
        base = rate_strategy(grid, lambda t: math.sin(2.0 * math.pi * t))
        oracle = theorem1_experiment(book, base, ladder).mean_err
        np.testing.assert_allclose(run, oracle, rtol=1e-12, atol=0.0)


class TestBookParams:
    def test_alpha_range_enforced(self):
        grid = TimeGrid(1.0, 8)
        with pytest.raises(ValueError):
            BookParams.on_grid(grid, 10.0, alpha=0.7)

    def test_positive_depth_enforced(self):
        grid = TimeGrid(1.0, 8)
        with pytest.raises(ValueError):
            BookParams.on_grid(grid, 10.0, h=0.0)

    def test_kappa_positive(self):
        grid = TimeGrid(1.0, 8)
        with pytest.raises(ValueError):
            BookParams.on_grid(grid, 0.0)

    def test_zero_baseline_spread_allowed(self):
        grid = TimeGrid(1.0, 8)
        BookParams.on_grid(grid, 10.0, eps=0.0)

    @pytest.mark.parametrize("given", [(), ("eps",), ("K", "h", "alpha", "eps")])
    def test_default_down_side_shares_the_up_path(self, given):
        # a down-side coefficient left None is the up side's own path object,
        # not a copy: the scan shares that side's terms on this identity; a
        # given down side is the path of its own value
        grid = TimeGrid(1.0, 8)
        up = dict(K=2.0, h=lambda t: 1.0 + t, alpha=0.25, eps=0.01)
        dn = dict(K=3.0, h=lambda t: 2.0 + t, alpha=0.1, eps=0.02)
        book = BookParams.on_grid(grid, 10.0, **up, **{f"{k}_dn": dn[k] for k in given})
        for name in up:
            up_path, dn_path = getattr(book, f"{name}_up"), getattr(book, f"{name}_dn")
            if name in given:
                np.testing.assert_array_equal(dn_path.values, as_path(grid, dn[name]).values)
                assert not np.array_equal(dn_path.values, up_path.values)
            else:
                assert dn_path is up_path


class TestEvolveSpreads:
    def test_zero_strategy_keeps_baselines(self):
        grid = TimeGrid(1.0, 64)
        book = BookParams.on_grid(grid, 32.0, eps=0.03)
        sp = spread_paths(book, rate_strategy(grid, 0.0))
        np.testing.assert_array_equal(sp.ask.values, np.full(65, 0.03))
        np.testing.assert_array_equal(sp.bid.values, np.full(65, 0.03))

    def test_single_block_closed_form(self):
        grid = TimeGrid(1.0, 1000)
        kappa, K, h, eps, theta = 48.0, 1.3, 2.0, 0.02, 1.7
        book = BookParams.on_grid(grid, kappa, K=K, h=h, eps=eps)
        strat = Strategy(grid, constant_path(grid, 0.0), ((0, theta),))
        sp = spread_paths(book, strat)
        t = grid.points()
        expected = eps + (theta / h) * np.exp(-kappa * K * t)
        np.testing.assert_allclose(sp.ask.values, expected, rtol=1e-12)
        np.testing.assert_array_equal(sp.bid.values, np.full_like(t, eps))
        # pre-jump value at the block instant is the baseline
        assert sp.ask_pre[0] == eps

    def test_constant_rate_closed_form(self):
        grid = TimeGrid(1.0, 1000)
        kappa, K, h, eps, c = 48.0, 1.3, 2.0, 0.02, 0.9
        book = BookParams.on_grid(grid, kappa, K=K, h=h, eps=eps)
        sp = spread_paths(book, rate_strategy(grid, c))
        t = grid.points()
        expected = eps + c / (kappa * K * h) * (1.0 - np.exp(-kappa * K * t))
        np.testing.assert_allclose(sp.ask.values, expected, rtol=1e-12)

    def test_piecewise_constant_rate_exactness(self):
        # stepped solution equals the exact convolution of the sampled rate
        grid = TimeGrid(1.0, 256)
        kappa, K, h = 64.0, 1.0, 1.5
        book = BookParams.on_grid(grid, kappa, K=K, h=h)
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
        grid = TimeGrid(1.0, 128)
        book = BookParams.on_grid(grid, 16.0, alpha=0.3, eps=0.05)
        rng = np.random.default_rng(11)
        for _ in range(20):
            sp = spread_paths(book, random_strategy(grid, rng))
            assert np.all(sp.ask.values >= book.eps_up.values - 1e-15)
            assert np.all(sp.bid.values >= book.eps_dn.values - 1e-15)

    def test_depth_scaling(self):
        grid = TimeGrid(1.0, 128)
        rng = np.random.default_rng(3)
        strat = random_strategy(grid, rng)
        c = 3.0
        sp1 = spread_paths(BookParams.on_grid(grid, 16.0, h=1.0), strat)
        sp2 = spread_paths(BookParams.on_grid(grid, 16.0, h=c), strat)
        np.testing.assert_allclose(sp2.ask.values, sp1.ask.values / c, rtol=1e-12)
        np.testing.assert_allclose(sp2.bid.values, sp1.bid.values / c, rtol=1e-12)

    def test_resilience_monotonicity(self):
        grid = TimeGrid(1.0, 128)
        strat = rate_strategy(grid, 1.0)
        spreads = [spread_paths(BookParams.on_grid(grid, k), strat).ask.values
                   for k in (8.0, 16.0, 32.0, 64.0)]
        for lo, hi in zip(spreads, spreads[1:]):
            assert np.all(hi[1:] <= lo[1:] + 1e-15)

    def test_refinement_self_consistency(self):
        # continuously varying coefficients: discretization error is O(dt)
        def run(n):
            grid = TimeGrid(1.0, n)
            book = BookParams.on_grid(grid, 8.0, K=lambda t: 1.0 + 0.5 * math.sin(2 * math.pi * t),
                                      h=lambda t: 1.0 + 0.3 * t, alpha=0.2, eps=0.01)
            strat = rate_strategy(grid, lambda t: math.cos(2 * math.pi * t))
            return spread_paths(book, strat).ask.values

        levels = [run(128 * 2**j) for j in range(4)]
        diffs = [np.max(np.abs(a - b[::2])) for a, b in zip(levels, levels[1:])]
        dts = [1.0 / (128 * 2**j) for j in range(3)]
        assert fit_rate(list(zip(dts, diffs))) >= 0.9

    def test_grid_mismatch(self):
        book = BookParams.on_grid(TimeGrid(1.0, 8), 4.0)
        with pytest.raises(ValueError):
            spread_paths(book, rate_strategy(TimeGrid(1.0, 16), 0.0))


class TestReferencePrice:
    def test_zero_permanent_impact(self):
        grid = TimeGrid(1.0, 64)
        book = BookParams.on_grid(grid, 16.0, alpha=0.0)
        fund = function_path(grid, lambda t: 100.0 + t)
        rng = np.random.default_rng(2)
        ref = Evaluation(book, random_strategy(grid, rng), fund).reference()
        np.testing.assert_array_equal(ref.values.values, fund.values)

    def test_block_shift_held(self):
        grid = TimeGrid(1.0, 64)
        alpha, h, theta = 0.4, 2.0, 1.5
        book = BookParams.on_grid(grid, 16.0, alpha=alpha, h=h)
        fund = constant_path(grid, 50.0)
        strat = Strategy(grid, constant_path(grid, 0.0), ((16, theta),))
        ref = Evaluation(book, strat, fund).reference()
        shift = alpha * theta / h
        np.testing.assert_allclose(ref.values.values[16:], 50.0 + shift, rtol=1e-14)
        assert ref.pre[16] == 50.0
        np.testing.assert_array_equal(ref.values.values[:16], np.full(16, 50.0))

    def test_round_trip_cancels(self):
        grid = TimeGrid(1.0, 100)
        book = BookParams.on_grid(grid, 16.0, alpha=0.25, h=2.0)
        fund = constant_path(grid, 10.0)
        strat = Strategy(grid, constant_path(grid, 0.0), ((10, 1.0), (60, -1.0)))
        ref = Evaluation(book, strat, fund).reference()
        assert ref.values.values[-1] == pytest.approx(10.0, abs=1e-14)


class TestScaledExcessSpread:
    def test_zero_strategy(self):
        grid = TimeGrid(1.0, 64)
        book = BookParams.on_grid(grid, 16.0)
        path = book.kappa * evolve_book(book, rate_strategy(grid, 0.0)).exc_up_post
        np.testing.assert_array_equal(path, np.zeros(65))

    def test_constant_rate_limit(self):
        grid = TimeGrid(4.0, 2048)
        kappa, K, h, alpha, c = 64.0, 1.2, 1.5, 0.2, 0.7
        book = BookParams.on_grid(grid, kappa, K=K, h=h, alpha=alpha)
        path = book.kappa * evolve_book(book, rate_strategy(grid, c)).exc_up_post
        limit = (1.0 - alpha) * c / (K * h)
        assert path[-1] == pytest.approx(limit, rel=1e-8)

    def test_ladder_slope(self):
        # sup distance to the limit decays ~ 1/kappa for smooth rates.  The
        # stepped book sees the sampled piecewise-constant rate, so the limit
        # at t_i uses the rate on the step ending at t_i.
        grid = TimeGrid(1.0, 512)
        K, h, alpha = 1.0, 1.0, 0.25
        rate = rate_strategy(grid, lambda t: 2.0 + math.sin(2.0 * math.pi * t))
        i0 = 128  # t0 = 0.25 skips the initial relaxation layer
        target = (1.0 - alpha) * rate.rate.values / (K * h)
        errors = []
        kappas = [2.0**j for j in range(4, 13)]
        for kappa in kappas:
            book = BookParams.on_grid(grid, kappa, K=K, h=h, alpha=alpha)
            path = book.kappa * evolve_book(book, rate).exc_up_post
            err = np.abs(path[i0:] - target[i0 - 1:-1])
            errors.append(float(err.max()))
        assert fit_rate(list(zip(kappas, errors))) <= -0.9


@st.composite
def books_and_strategies(draw):
    """Small grids with kappa*dt in [1e-6, 1e6], asymmetric and time-varying
    K and h (or a down side that holds the up side's own K or h path, as
    ``BookParams.on_grid`` makes it for a symmetric book), alpha 0, 1/2 or
    between, sign-changing rates and blocks of both signs, at index 0 and
    index n among others."""
    n = draw(st.integers(1, 40))
    grid = TimeGrid(draw(st.floats(0.1, 4.0)), n)
    kappa = 10.0 ** draw(st.floats(-6.0, 6.0)) / grid.dt

    def values(lo, hi):
        return draw(arrays(np.float64, n + 1, elements=st.floats(lo, hi)))

    def alpha():
        return draw(st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5)))

    def sides(lo, hi, scale=lambda v: v):
        up = SampledPath(grid, scale(values(lo, hi)))
        return up, up if draw(st.booleans()) else SampledPath(grid, scale(values(lo, hi)))

    K_up, K_dn = sides(0.5, 2.0)
    h_up, h_dn = sides(-6.0, 2.0, lambda v: 10.0 ** v)
    book = BookParams(
        kappa=kappa, K_up=K_up, K_dn=K_dn, h_up=h_up, h_dn=h_dn,
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
