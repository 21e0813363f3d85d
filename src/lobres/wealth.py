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
from typing import Callable

import numpy as np

from .book import BookParams, ReferencePricePath, SpreadPaths, evolve_book
from .paths import SampledPath, TimeGrid
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

    def table(self) -> dict:
        """Columns of ``wealth.csv``."""
        return {"t": self.grid.points(), "X": self.x.values, "gain": self.gain.values,
                "spread_cost": self.spread_cost.values,
                "impact_cost": self.impact_cost.values, "block_cost": self.block_cost.values,
                "permanent_shift": self.permanent_shift.values}


def _accumulate(x0: float, step_terms: np.ndarray, event_terms: np.ndarray) -> np.ndarray:
    """Cumulative path: steps j < i contribute at i, events j <= i at i."""
    out = np.empty(event_terms.shape)
    out[0] = 0.0
    np.cumsum(step_terms, out=out[1:])
    out += np.cumsum(event_terms)
    out += x0
    return out


class Evaluation:
    """One book scan (``state``) for a (book, strategy, fundamental) triple;
    both wealth engines, the safe account, the reference price and the
    spreads are projections of it.  A projection builds the cost-ledger
    terms it needs and drops each once it is accumulated."""

    def __init__(self, book: BookParams, strategy: Strategy,
                 fundamental: SampledPath) -> None:
        self.state = evolve_book(book, strategy)  # refuses a strategy off the grid
        if fundamental.grid != book.grid:
            raise ValueError("fundamental price lives on a different grid")
        self.book, self.strategy, self.fundamental = book, strategy, fundamental
        # a buy block executes against the ask side, a sell against the bid
        self.idx = np.array([i for i, _ in strategy.blocks], dtype=np.intp)
        self.theta = np.array([s for _, s in strategy.blocks])
        self.block_h = self._side(book.h_up.values, book.h_dn.values)

    def _side(self, up: np.ndarray, dn: np.ndarray) -> np.ndarray:
        return np.where(self.theta > 0, up[self.idx], dn[self.idx])

    def _events(self, values: np.ndarray) -> np.ndarray:
        """Per-point event terms: ``values`` at the blocks, zero elsewhere."""
        out = np.zeros(self.book.grid.n_points)
        out[self.idx] = values
        return out

    def _rates(self) -> tuple[np.ndarray, np.ndarray]:
        r = self.strategy.rate_steps
        return np.maximum(r, 0.0), np.maximum(-r, 0.0)

    def _g(self, r_up: np.ndarray, r_dn: np.ndarray) -> np.ndarray:
        # a/h * r rounds differently from the scan's a * (1/h) * r; the
        # ledger keeps its own form
        book, n = self.book, self.book.grid.steps
        return (book.alpha_up.values[:n] / book.h_up.values[:n] * r_up
                - book.alpha_dn.values[:n] / book.h_dn.values[:n] * r_dn)

    def _spread_steps(self, r_up: np.ndarray, r_dn: np.ndarray) -> np.ndarray:
        book, n = self.book, self.book.grid.steps
        return (r_up * book.eps_up.values[:n] + r_dn * book.eps_dn.values[:n]) * book.grid.dt

    def _impact_steps(self, r_up: np.ndarray, r_dn: np.ndarray) -> np.ndarray:
        return r_up * self.state.exc_up_int + r_dn * self.state.exc_dn_int

    def _spread_events(self) -> np.ndarray:
        return np.abs(self.theta) * self._side(self.book.eps_up.values, self.book.eps_dn.values)

    def _impact_events(self) -> np.ndarray:
        return np.abs(self.theta) * self._side(self.state.exc_up_pre, self.state.exc_dn_pre)

    def _wealth(self, x0: float,
                impact_steps: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> WealthPath:
        """The engines' shared accumulation; ``impact_steps(r_up, r_dn)`` is
        the engine's per-step impact cost."""
        grid, state, idx = self.book.grid, self.state, self.idx
        n, dt = grid.steps, grid.dt
        r = self.strategy.rate_steps
        r_up, r_dn = self._rates()
        pre_pos, post_pos = position_paths(self.strategy)
        # the permanent impact's jumps at the blocks, as perm_post[idx] - perm_pre[idx]
        perm_at = state.perm_pre[idx]
        gain_events = self._events(pre_pos[idx] * ((perm_at + state.jump_pm) - perm_at))
        # position held while its own permanent impact accrues: the trade is
        # spread uniformly over the step, hence the r*dt/2 midpoint term
        steps = self._g(r_up, r_dn) * (post_pos[:n] * dt + r * dt * dt / 2.0)
        del post_pos
        perm = _accumulate(0.0, steps, gain_events)
        steps += pre_pos[1:] * np.diff(self.fundamental.values)
        del pre_pos
        gain = _accumulate(0.0, steps, gain_events)
        del steps, gain_events
        spread = _accumulate(0.0, self._spread_steps(r_up, r_dn),
                             self._events(self._spread_events()))
        impact = _accumulate(0.0, impact_steps(r_up, r_dn), self._events(self._impact_events()))
        del r_up, r_dn
        a_up, a_dn, theta = self.book.alpha_up.values, self.book.alpha_dn.values, self.theta
        blockc = _accumulate(0.0, np.zeros(n), self._events(
            (0.5 - self._side(a_up, a_dn)) / self.block_h * theta * theta))
        x = x0 + gain - spread - impact - blockc
        return WealthPath(grid, *(SampledPath(grid, v)
                                  for v in (x, gain, spread, impact, blockc, perm)))

    def ow(self, x0: float = 0.0) -> WealthPath:
        """Wealth in the structural model: position gains at the reference price
        minus baseline-spread, transient-impact, and block-execution costs."""
        return self._wealth(x0, self._impact_steps)

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
        return self._wealth(x0, lambda r_up, r_dn: (lam_up * r_up ** 2 + lam_dn * r_dn ** 2)
                            * book.grid.dt)

    def terminal(self, x0: float = 0.0) -> tuple[float, np.ndarray]:
        """Terminal structural wealth on this fundamental plus the noise weights:
        X_T(path) = X_T(this path) + sum_i weights[i] * (dS_i - dS_i(this path))."""
        return float(self.ow(x0).x.values[-1]), position_paths(self.strategy)[0][1:]

    def reference(self) -> ReferencePricePath:
        """Fundamental price shifted by the cumulative permanent impact of trades."""
        values = self.state.perm_post
        values += self.fundamental.values
        return ReferencePricePath(values=SampledPath(self.book.grid, values),
                                  pre=self.fundamental.values + self.state.perm_pre)

    def spreads(self) -> SpreadPaths:
        """Bid/ask spread paths (baseline plus transient excess)."""
        book, state = self.book, self.state
        # each post-jump state is a fresh array, so the baseline is added in place
        ask, bid = state.exc_up_post, state.exc_dn_post
        ask += book.eps_up.values
        bid += book.eps_dn.values
        return SpreadPaths(
            ask=SampledPath(book.grid, ask), bid=SampledPath(book.grid, bid),
            ask_pre=book.eps_up.values + state.exc_up_pre,
            bid_pre=book.eps_dn.values + state.exc_dn_pre)

    def safe_account(self, x0: float = 0.0) -> SampledPath:
        """Cash account from the self-financing condition, so that wealth equals
        safe account + position * reference price.  Every purchase pays the
        pre-trade reference plus the pre-trade spread plus half its own impact
        (blocks: size^2 / 2h; rate trades: the exact frozen-coefficient average),
        sales symmetrically."""
        book, r = self.book, self.strategy.rate_steps
        n = book.grid.steps
        dt = book.grid.dt
        r_up, r_dn = self._rates()
        ref = self.reference()
        step_terms = (-r * dt * ref.values.values[:n] - self._g(r_up, r_dn) * r * dt * dt / 2.0
                      - self._spread_steps(r_up, r_dn) - self._impact_steps(r_up, r_dn))
        idx, theta = self.idx, self.theta
        event_terms = self._events(-theta * ref.pre[idx] - self._spread_events()
                                   - self._impact_events() - theta * theta / (2.0 * self.block_h))
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
