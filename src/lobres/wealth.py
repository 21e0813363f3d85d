"""Wealth dynamics for the structural order-book model and its reduced form.

Both engines share one discrete bookkeeping convention so that differences
between them isolate model content rather than discretization noise.  Per
grid interval the event order is:

    1. block at the left grid point: record pre-jump spread/position/price,
       charge the trade, then apply the spread and reference-price jumps;
    2. rate trading over the step, executed against the decaying book with
       coefficients and fundamental frozen at the left endpoint (the average
       execution spread is the book module's exact step integral);
    3. the fundamental increment at the step end, marking the position held
       through the step.

With this ordering the identity  X = safe account + position * reference
holds exactly (up to float rounding), which is the discrete version of the
integration-by-parts derivation of the wealth dynamics.  Quadratic variation
accumulates squared block sizes only; rate trading contributes none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .book import BookParams, ReferencePricePath, SpreadPaths, evolve_book
from .paths import SampledPath, TimeGrid, write_columns
from .strategies import Strategy, position_paths


@dataclass
class WealthPath:
    """Wealth trajectory with its cost decomposition (all cumulative).

    The identity ``x = x0 + gain - spread_cost - impact_cost - block_cost``
    holds at every grid point; ``permanent_shift`` reports the part of the
    gain contributed by the strategy's own permanent price impact.
    """

    grid: TimeGrid
    x: SampledPath
    gain: SampledPath
    spread_cost: SampledPath
    impact_cost: SampledPath
    block_cost: SampledPath
    permanent_shift: SampledPath

    def write_csv(self, path) -> None:
        write_columns(path, ["t", "X", "gain", "spread_cost", "impact_cost",
                             "block_cost", "permanent_shift"],
                      [self.grid.points(), self.x.values, self.gain.values,
                       self.spread_cost.values, self.impact_cost.values,
                       self.block_cost.values, self.permanent_shift.values])


def _accumulate(x0: float, step_terms: np.ndarray, event_terms: np.ndarray) -> np.ndarray:
    """Cumulative path: steps j < i contribute at i, events j <= i at i."""
    out = np.empty(event_terms.shape)
    out[0] = 0.0
    np.cumsum(step_terms, out=out[1:])
    out += np.cumsum(event_terms)
    return out + x0


class Evaluation:
    """One book scan (``state``) and one cost ledger for a (book, strategy,
    fundamental) triple; both wealth engines, the safe account, the reference
    price and the spreads are projections of it."""

    def __init__(self, book: BookParams, strategy: Strategy,
                 fundamental: SampledPath) -> None:
        self.state = state = evolve_book(book, strategy)  # refuses a strategy off the grid
        if fundamental.grid != book.grid:
            raise ValueError("fundamental price lives on a different grid")
        self.book, self.strategy, self.fundamental = book, strategy, fundamental
        n = book.grid.steps
        dt = book.grid.dt
        self.r = r = strategy.rate_steps
        self.r_up = r_up = np.maximum(r, 0.0)
        self.r_dn = r_dn = np.maximum(-r, 0.0)
        a_up = book.alpha_up.values
        a_dn = book.alpha_dn.values
        h_up = book.h_up.values
        h_dn = book.h_dn.values
        eps_up = book.eps_up.values
        eps_dn = book.eps_dn.values

        self.pre_pos, post_pos = position_paths(strategy)
        # a/h * r rounds differently from the scan's a * (1/h) * r; the
        # ledger keeps its own form
        self.g = g = a_up[:n] / h_up[:n] * r_up - a_dn[:n] / h_dn[:n] * r_dn

        # position held while its own permanent impact accrues: the trade is
        # spread uniformly over the step, hence the r*dt/2 midpoint term
        self.perm_gain_steps = g * (post_pos[:n] * dt + r * dt * dt / 2.0)
        self.gain_steps = self.perm_gain_steps + self.pre_pos[1:] * np.diff(fundamental.values)
        self.spread_steps = (r_up * eps_up[:n] + r_dn * eps_dn[:n]) * dt
        self.impact_steps = r_up * state.exc_up_int + r_dn * state.exc_dn_int

        # a buy block executes against the ask side, a sell against the bid
        self.idx = idx = np.array([i for i, _ in strategy.blocks], dtype=np.intp)
        self.theta = theta = np.array([s for _, s in strategy.blocks])
        buy = theta > 0
        size = np.abs(theta)

        def side(up: np.ndarray, dn: np.ndarray) -> np.ndarray:
            return np.where(buy, up[idx], dn[idx])

        self.block_h = side(h_up, h_dn)
        self.gain_events, self.spread_events, self.impact_events, self.qv_events = (
            np.zeros((4, n + 1)))
        self.gain_events[idx] = self.pre_pos[idx] * (state.perm_post[idx] - state.perm_pre[idx])
        self.spread_events[idx] = size * side(eps_up, eps_dn)
        self.impact_events[idx] = size * side(state.exc_up_pre, state.exc_dn_pre)
        self.qv_events[idx] = (0.5 - side(a_up, a_dn)) / self.block_h * theta * theta

    def _wealth(self, x0: float, impact_steps: np.ndarray) -> WealthPath:
        grid = self.book.grid
        gain = _accumulate(0.0, self.gain_steps, self.gain_events)
        spread = _accumulate(0.0, self.spread_steps, self.spread_events)
        impact = _accumulate(0.0, impact_steps, self.impact_events)
        blockc = _accumulate(0.0, np.zeros(grid.steps), self.qv_events)
        perm = _accumulate(0.0, self.perm_gain_steps, self.gain_events)
        x = x0 + gain - spread - impact - blockc
        return WealthPath(grid, *(SampledPath(grid, v)
                                  for v in (x, gain, spread, impact, blockc, perm)))

    def ow(self, x0: float = 0.0) -> WealthPath:
        """Wealth in the structural model: position gains at the reference price
        minus baseline-spread, transient-impact, and block-execution costs."""
        return self._wealth(x0, self.impact_steps)

    def ac(self, x0: float = 0.0) -> WealthPath:
        """Wealth in the reduced-form model: linear baseline-spread costs plus
        quadratic turnover costs lambda = (1 - alpha) / (kappa * K * h), with the
        reference price shifted by alpha / h per unit traded.

        Only absolutely continuous strategies are admissible; blocks are rejected.
        """
        if self.strategy.has_blocks:
            raise ValueError("reduced-form wealth is defined for block-free strategies")
        book = self.book
        n = book.grid.steps
        lam_up = (1.0 - book.alpha_up.values[:n]) / (book.kappa * book.K_up.values[:n]
                                                     * book.h_up.values[:n])
        lam_dn = (1.0 - book.alpha_dn.values[:n]) / (book.kappa * book.K_dn.values[:n]
                                                     * book.h_dn.values[:n])
        # without blocks every event term is zero, so the shared tail applies
        return self._wealth(x0, (lam_up * self.r_up ** 2 + lam_dn * self.r_dn ** 2)
                            * book.grid.dt)

    def terminal(self, x0: float = 0.0) -> tuple[float, np.ndarray]:
        """Terminal structural wealth on this fundamental plus the noise weights:
        X_T(path) = X_T(this path) + sum_i weights[i] * (dS_i - dS_i(this path))."""
        return float(self.ow(x0).x.values[-1]), self.pre_pos[1:]

    def reference(self) -> ReferencePricePath:
        """Fundamental price shifted by the cumulative permanent impact of trades."""
        return ReferencePricePath(
            values=SampledPath(self.book.grid, self.fundamental.values + self.state.perm_post),
            pre=self.fundamental.values + self.state.perm_pre)

    def spreads(self) -> SpreadPaths:
        """Bid/ask spread paths (baseline plus transient excess)."""
        book, state = self.book, self.state
        return SpreadPaths(
            ask=SampledPath(book.grid, book.eps_up.values + state.exc_up_post),
            bid=SampledPath(book.grid, book.eps_dn.values + state.exc_dn_post),
            ask_pre=book.eps_up.values + state.exc_up_pre,
            bid_pre=book.eps_dn.values + state.exc_dn_pre)

    def safe_account(self, x0: float = 0.0) -> SampledPath:
        """Cash account from the self-financing condition, so that wealth equals
        safe account + position * reference price.  Every purchase pays the
        pre-trade reference plus the pre-trade spread plus half its own impact
        (blocks: size^2 / 2h; rate trades: the exact frozen-coefficient average),
        sales symmetrically."""
        book, r = self.book, self.r
        n = book.grid.steps
        dt = book.grid.dt
        ref = self.reference()
        step_terms = (-r * dt * ref.values.values[:n] - self.g * r * dt * dt / 2.0
                      - self.spread_steps - self.impact_steps)
        event_terms = np.zeros(n + 1)
        idx, theta = self.idx, self.theta
        event_terms[idx] = (-theta * ref.pre[idx] - self.spread_events[idx]
                            - self.impact_events[idx] - theta * theta / (2.0 * self.block_h))
        return SampledPath(book.grid, _accumulate(
            x0 - self.strategy.phi0 * self.fundamental.values[0], step_terms, event_terms))


def ow_wealth(book: BookParams, strategy: Strategy, fundamental: SampledPath,
              x0: float = 0.0) -> WealthPath:
    """Structural-model wealth; see ``Evaluation.ow``."""
    return Evaluation(book, strategy, fundamental).ow(x0)


def ac_wealth(book: BookParams, strategy: Strategy, fundamental: SampledPath,
              x0: float = 0.0) -> WealthPath:
    """Reduced-form wealth; see ``Evaluation.ac``."""
    return Evaluation(book, strategy, fundamental).ac(x0)
