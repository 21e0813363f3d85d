"""The gate table of ``lobres.cli``: equal to the runners' former gate code on
any report, and pinned for every shipped config."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_gates
from lobres.cli import GATES, _gates, main
from lobres.experiments import (ConvergenceReport, LemmaJumpReport, TrackerBoundReport,
                                UtilityReport)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# Powers of 2 for kappa and for the values make ties in kappa * err,
# sqrt(kappa) * err and the certainty equivalents likely.
KAPPAS = st.lists(st.sampled_from([1.0, 2.0, 4.0, 16.0, 64.0, 100.0, 256.0, 1e6]),
                  min_size=1, max_size=6, unique=True).map(sorted)
ERRORS = st.one_of(st.sampled_from([0.0, 1 / 64, 1 / 16, 0.25, 0.5, 1.0]),
                   st.floats(0.0, 10.0))
VALUES = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0]),
                   st.floats(-1e3, 1e3))


@st.composite
def gap_cases(draw):
    kappas = draw(KAPPAS)
    errs = draw(st.lists(ERRORS, min_size=len(kappas), max_size=len(kappas)))
    kind = draw(st.sampled_from(["theorem1", "remark1", "l2"]))
    return kind, ConvergenceReport(np.array(kappas), np.array(errs))


@st.composite
def lemma_cases(draw):
    n = len(draw(KAPPAS))
    mean_diff = draw(st.lists(VALUES, min_size=n, max_size=n))
    frac = draw(st.lists(st.sampled_from([0.0, 0.5, 0.94, 0.95, 0.9500000000000001, 1.0]),
                         min_size=n, max_size=n))
    return "lemma-jump", LemmaJumpReport(np.arange(1.0, n + 1), np.array(mean_diff),
                                         np.array(frac), np.zeros((n, 1)))


@st.composite
def tracker_cases(draw):
    n = len(draw(KAPPAS))
    within = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return "tracker-bound", TrackerBoundReport(np.arange(1.0, n + 1), np.zeros(n), np.zeros(n),
                                               5.0, np.array(within))


def _utility(kappas, multipliers, ce, gap_ci_low, gap_ci_high, frictionless):
    shape = (len(kappas), len(multipliers))
    ce, low, high = (np.reshape(v, shape) for v in (ce, gap_ci_low, gap_ci_high))
    zeros = np.zeros(shape)
    return UtilityReport(tuple(kappas), tuple(multipliers), ce, zeros, zeros, zeros, low, high,
                         frictionless)


@st.composite
def utility_cases(draw):
    kappas = draw(KAPPAS)
    multipliers = draw(st.sampled_from([(1.0,), (0.5, 1.0), (1.0, 2.0), (0.5, 1.0, 2.0)]))
    cells = len(kappas) * len(multipliers)
    ce, low, high = (draw(st.lists(VALUES, min_size=cells, max_size=cells)) for _ in range(3))
    return "utility", _utility(kappas, multipliers, ce, low, high, draw(VALUES))


@settings(max_examples=400, deadline=None)
@given(case=st.one_of(gap_cases(), lemma_cases(), tracker_cases(), utility_cases()))
# all-zero gaps
@example(case=("theorem1", ConvergenceReport(np.array([16.0, 32.0, 64.0]), np.zeros(3))))
# sqrt(kappa) * err ties at every rung
@example(case=("remark1", ConvergenceReport(np.array([16.0, 64.0, 256.0]),
                                            np.array([1.0, 0.5, 0.25]))))
# two positive errors: no slope
@example(case=("theorem1", ConvergenceReport(np.array([16.0, 32.0, 64.0]),
                                             np.array([0.0, 1.0, 0.25]))))
# one and two rungs
@example(case=("l2", ConvergenceReport(np.array([16.0]), np.array([1.0]))))
@example(case=("theorem1", ConvergenceReport(np.array([16.0, 32.0]), np.array([1.0, 0.5]))))
@example(case=("remark1", ConvergenceReport(np.array([16.0, 32.0]), np.array([1.0, 1.0]))))
# a zero mean gain and a fraction of exactly 0.95 at the top rung
@example(case=("lemma-jump", LemmaJumpReport(np.array([1.0, 2.0]), np.array([1.0, 0.0]),
                                             np.array([1.0, 0.95]), np.zeros((2, 1)))))
@example(case=("lemma-jump", LemmaJumpReport(np.array([1.0]), np.array([0.5]),
                                             np.array([0.95]), np.zeros((1, 1)))))
# a one-kappa utility run, and a tie of the candidate's values
@example(case=("utility", _utility([64.0], [0.5, 1.0, 2.0], [1.0, 1.5, 0.5],
                                   [-1.0, 0.0, -1.0], [0.0, 0.0, 0.0], 2.0)))
@example(case=("utility", _utility([16.0, 64.0], [1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0],
                                   1.0)))
def test_table_gates_equal_the_runner_gates(case):
    kind, report = case
    gates = _gates(kind, report)
    expected = reference_gates(kind, report)
    assert gates == expected
    assert list(gates) == list(expected)  # the order the CLI logs them in
    assert all(type(ok) is bool for ok in gates.values())


# The gates every shipped config wrote at seed 42 before the table declared them.
SHIPPED_GATES = {
    "l2": {"kappa_x_err_decreasing_upper_half": True},
    "lemma_jump": {"positive_fraction_at_kappa_max": True,
                   "positive_mean_gain_at_kappa_max": True},
    "lemma_jump_noisy": {"positive_fraction_at_kappa_max": True,
                         "positive_mean_gain_at_kappa_max": True},
    "remark1": {"slope_gate": True, "sqrt_kappa_x_err_decreasing": True},
    "simulate": {},
    "theorem1": {"kappa_x_err_decreasing_upper_half": True, "slope_gate": True},
    "tracker_bound": {"bound_holds_for_every_kappa": True},
    "utility": {"candidate_noninferior": True, "ce_below_frictionless": True,
                "ce_increasing_in_kappa": True},
}


def test_shipped_gates_cover_every_config_and_kind():
    assert set(SHIPPED_GATES) == {p.stem for p in CONFIG_DIR.glob("*.json")}
    kinds = {json.loads((CONFIG_DIR / f"{name}.json").read_text())["kind"]
             for name in SHIPPED_GATES}
    assert set(GATES) == kinds - {"simulate"}


@pytest.mark.parametrize("name", sorted(SHIPPED_GATES))
def test_shipped_config_gates(name, tmp_path):
    config = CONFIG_DIR / f"{name}.json"
    command = {"simulate": "simulate", "utility": "utility"}.get(
        json.loads(config.read_text())["kind"], "converge")
    assert main([command, "--config", str(config), "--seed", "42", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "summary.json").read_text())["gates"] == SHIPPED_GATES[name]
