"""Block-shaped limit order book simulation and its high-resilience limit.

Spreads widen as a large trader eats into a block-shaped book and revert to
their baseline at resilience rate kappa * K_t; wealth in this structural
model converges, as kappa grows, to a reduced-form model with quadratic
trading costs (1 - alpha) / (kappa * K * h).  The package simulates both
wealth processes on common noise, verifies the convergence rates and the
dominance of smoothed over block execution, and evaluates the
leading-order-optimal portfolio tracker.
"""

from .book import BookParams, ReferencePricePath, SpreadPaths
from .errors import ConfigError, ConfigParseError, ConfigValidationError, NumericFailure
from .experiments import (ConvergenceReport, FundamentalSpec, KappaLadder,
                          LemmaJumpReport, TrackerBoundReport, UtilityReport,
                          check_uniform_bounds, fit_rate, ladder_grid, lemma_jump_experiment,
                          theorem1_experiment, tracker_bound_experiment,
                          utility_experiment)
from .paths import RandomSource, SampledPath, TimeGrid, as_path, constant_path, function_path
from .strategies import (Strategy, block_schedule, exponential_tracker, position_paths,
                         rate_strategy, smooth_blocks)
from .wealth import Evaluation, WealthPath, ac_wealth, ow_wealth

__version__ = "0.1.0"

__all__ = [
    "BookParams", "ConfigError", "ConfigParseError", "ConfigValidationError",
    "ConvergenceReport", "Evaluation", "FundamentalSpec", "KappaLadder",
    "LemmaJumpReport", "NumericFailure", "RandomSource", "ReferencePricePath",
    "SampledPath", "SpreadPaths", "Strategy", "TimeGrid", "TrackerBoundReport",
    "UtilityReport", "WealthPath", "ac_wealth", "as_path", "block_schedule",
    "check_uniform_bounds", "constant_path", "exponential_tracker", "fit_rate",
    "function_path", "ladder_grid", "lemma_jump_experiment", "ow_wealth",
    "position_paths", "rate_strategy", "smooth_blocks", "theorem1_experiment",
    "tracker_bound_experiment", "utility_experiment",
]
