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

from .book import BookParams, evolve_book
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


def _check_inputs(book: BookParams, strategy: Strategy, fundamental: SampledPath) -> None:
    if book.grid != strategy.grid:
        raise ValueError("strategy and book must share a grid")
    if fundamental.grid != book.grid:
        raise ValueError("fundamental price lives on a different grid")


def _accumulate(x0: float, step_terms: np.ndarray, event_terms: np.ndarray) -> np.ndarray:
    """Cumulative path: steps j < i contribute at i, events j <= i at i."""
    out = np.empty(event_terms.shape)
    out[0] = 0.0
    np.cumsum(step_terms, out=out[1:])
    out += np.cumsum(event_terms)
    return out + x0


@dataclass
class _Ledger:
    """Per-step and per-event wealth contributions shared by the engines."""

    gain_steps: np.ndarray
    perm_gain_steps: np.ndarray
    spread_steps: np.ndarray
    gain_events: np.ndarray
    spread_events: np.ndarray
    impact_events: np.ndarray
    qv_events: np.ndarray
    ref_post: np.ndarray
    ref_pre: np.ndarray
    g: np.ndarray


def _build_ledger(book: BookParams, strategy: Strategy, fundamental: SampledPath,
                  state) -> _Ledger:
    n = book.grid.steps
    dt = book.grid.dt
    r = strategy.rate_steps
    r_up = np.maximum(r, 0.0)
    r_dn = np.maximum(-r, 0.0)
    a_up = book.alpha_up.values
    a_dn = book.alpha_dn.values
    h_up = book.h_up.values
    h_dn = book.h_dn.values
    eps_up = book.eps_up.values
    eps_dn = book.eps_dn.values

    pre_pos, post_pos = position_paths(strategy)
    ds = np.diff(fundamental.values)
    g = a_up[:n] / h_up[:n] * r_up - a_dn[:n] / h_dn[:n] * r_dn

    # position held while its own permanent impact accrues: the trade is
    # spread uniformly over the step, hence the r*dt/2 midpoint term
    perm_gain_steps = g * (post_pos[:n] * dt + r * dt * dt / 2.0)
    gain_steps = perm_gain_steps + pre_pos[1:] * ds
    spread_steps = (r_up * eps_up[:n] + r_dn * eps_dn[:n]) * dt

    gain_events = np.zeros(n + 1)
    spread_events = np.zeros(n + 1)
    impact_events = np.zeros(n + 1)
    qv_events = np.zeros(n + 1)
    for idx, theta in strategy.blocks:
        gain_events[idx] = pre_pos[idx] * (state.perm_post[idx] - state.perm_pre[idx])
        if theta > 0:
            spread_events[idx] = theta * eps_up[idx]
            impact_events[idx] = theta * state.exc_up_pre[idx]
            qv_events[idx] = (0.5 - a_up[idx]) / h_up[idx] * theta * theta
        else:
            size = -theta
            spread_events[idx] = size * eps_dn[idx]
            impact_events[idx] = size * state.exc_dn_pre[idx]
            qv_events[idx] = (0.5 - a_dn[idx]) / h_dn[idx] * theta * theta

    return _Ledger(
        gain_steps=gain_steps,
        perm_gain_steps=perm_gain_steps,
        spread_steps=spread_steps,
        gain_events=gain_events,
        spread_events=spread_events,
        impact_events=impact_events,
        qv_events=qv_events,
        ref_post=fundamental.values + state.perm_post,
        ref_pre=fundamental.values + state.perm_pre,
        g=g,
    )


def ow_wealth(book: BookParams, strategy: Strategy, fundamental: SampledPath,
              x0: float = 0.0) -> WealthPath:
    """Wealth in the structural model: position gains at the reference price
    minus baseline-spread, transient-impact, and block-execution costs."""
    _check_inputs(book, strategy, fundamental)
    n = book.grid.steps
    r = strategy.rate_steps
    state = evolve_book(book, strategy)
    led = _build_ledger(book, strategy, fundamental, state)

    impact_steps = (np.maximum(r, 0.0) * state.exc_up_int
                    + np.maximum(-r, 0.0) * state.exc_dn_int)

    zeros = np.zeros(n + 1)
    gain = _accumulate(0.0, led.gain_steps, led.gain_events)
    spread = _accumulate(0.0, led.spread_steps, led.spread_events)
    impact = _accumulate(0.0, impact_steps, led.impact_events)
    blockc = _accumulate(0.0, zeros[:n], led.qv_events)
    perm = _accumulate(0.0, led.perm_gain_steps, led.gain_events)
    x = x0 + gain - spread - impact - blockc

    grid = book.grid
    return WealthPath(grid, SampledPath(grid, x), SampledPath(grid, gain),
                      SampledPath(grid, spread), SampledPath(grid, impact),
                      SampledPath(grid, blockc), SampledPath(grid, perm))


def safe_account(book: BookParams, strategy: Strategy, fundamental: SampledPath,
                 x0: float = 0.0) -> SampledPath:
    """Cash account from the self-financing condition, so that wealth equals
    safe account + position * reference price.  Every purchase pays the
    pre-trade reference plus the pre-trade spread plus half its own impact
    (blocks: size^2 / 2h; rate trades: the exact frozen-coefficient average),
    sales symmetrically."""
    _check_inputs(book, strategy, fundamental)
    n = book.grid.steps
    dt = book.grid.dt
    r = strategy.rate_steps
    state = evolve_book(book, strategy)
    led = _build_ledger(book, strategy, fundamental, state)

    impact_steps = (np.maximum(r, 0.0) * state.exc_up_int
                    + np.maximum(-r, 0.0) * state.exc_dn_int)
    step_terms = (-r * dt * led.ref_post[:n] - led.g * r * dt * dt / 2.0
                  - led.spread_steps - impact_steps)

    event_terms = np.zeros(n + 1)
    for idx, theta in strategy.blocks:
        half_impact = theta * theta / (2.0 * (book.h_up.values[idx] if theta > 0
                                              else book.h_dn.values[idx]))
        event_terms[idx] = (-theta * led.ref_pre[idx]
                            - led.spread_events[idx] - led.impact_events[idx]
                            - half_impact)

    acct = _accumulate(x0 - strategy.phi0 * fundamental.values[0], step_terms, event_terms)
    return SampledPath(book.grid, acct)


def ac_wealth(book: BookParams, strategy: Strategy, fundamental: SampledPath,
              x0: float = 0.0) -> WealthPath:
    """Wealth in the reduced-form model: linear baseline-spread costs plus
    quadratic turnover costs lambda = (1 - alpha) / (kappa * K * h), with the
    reference price shifted by alpha / h per unit traded.

    Only absolutely continuous strategies are admissible; blocks are rejected.
    """
    _check_inputs(book, strategy, fundamental)
    if strategy.has_blocks:
        raise ValueError("reduced-form wealth is defined for block-free strategies")
    n = book.grid.steps
    dt = book.grid.dt
    r = strategy.rate_steps
    r_up = np.maximum(r, 0.0)
    r_dn = np.maximum(-r, 0.0)
    state = evolve_book(book, strategy)
    led = _build_ledger(book, strategy, fundamental, state)

    lam_up = (1.0 - book.alpha_up.values[:n]) / (book.kappa * book.K_up.values[:n]
                                                 * book.h_up.values[:n])
    lam_dn = (1.0 - book.alpha_dn.values[:n]) / (book.kappa * book.K_dn.values[:n]
                                                 * book.h_dn.values[:n])
    impact_steps = (lam_up * r_up ** 2 + lam_dn * r_dn ** 2) * dt

    zeros = np.zeros(n + 1)
    gain = _accumulate(0.0, led.gain_steps, zeros)
    spread = _accumulate(0.0, led.spread_steps, zeros)
    impact = _accumulate(0.0, impact_steps, zeros)
    blockc = np.zeros(n + 1)
    perm = _accumulate(0.0, led.perm_gain_steps, zeros)
    x = x0 + gain - spread - impact

    grid = book.grid
    return WealthPath(grid, SampledPath(grid, x), SampledPath(grid, gain),
                      SampledPath(grid, spread), SampledPath(grid, impact),
                      SampledPath(grid, blockc), SampledPath(grid, perm))
