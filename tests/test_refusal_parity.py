"""``validate`` refuses exactly what a run refuses before its first rung.

Each draw changes one field of one shipped config, a field of its section's
``_fields`` table, on a small base (``grid.n0`` 1000, a 3-rung ladder,
``mc.paths`` 2, ``utility.bootstrap`` 10).  ``main`` runs ``validate`` and
then the run's command in process; the run is stopped at its first book scan
(``evolve_book``) or noise draw (``normals_block``).  Every refusal before
that point must be ``validate``'s too: the same exit code and the same
``error:`` line.  A run that reaches its first rung must be one that
``validate`` accepts.

The drawn values keep every grid either at most 4,096 steps or beyond
numpy's array size limit (refused before any allocation), so no draw
allocates a large grid.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lobres.experiments
import lobres.wealth
from lobres import config as schema
from lobres.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# a run above this many (steps x paths x cells) is only validated
RUN_COST_CAP = 1e6

NUMBERS = st.sampled_from([0, -1, 0.25, 0.5, 1, 2, 3, 1e-200, 1e160, 1e308, -1e308])
FUNCTIONS = st.one_of(
    st.fixed_dictionaries({"fn": st.just("linear"), "intercept": NUMBERS, "slope": NUMBERS}),
    st.fixed_dictionaries({"fn": st.sampled_from(["sin", "cos"]), "amplitude": NUMBERS,
                           "frequency": st.sampled_from([1, 256]), "offset": NUMBERS}))
INTEGERS = st.sampled_from([-1, 0, 1, 2, 3, 12, 4096, 10**400])
OTHERS = st.one_of(
    NUMBERS, st.none(), st.sampled_from(["zero", "rate", "blocks", "tracker", "nope"]),
    st.sampled_from([[], [1.0], [0.5, 2.0], [1.0, -1.0], [5e-324, 1.0], [16.0, 64.0, 256.0],
                     [64.0, 16.0], [[0.25, 1.0], [0.2501, 1.0]], [[0.2, 1.0]], [[0.6, 1.0]],
                     [[0.25, 0.0]]]))


def _values(parse):
    """The pool of JSON values drawn for a field read by ``parse``."""
    if parse in (schema._COEFF, schema._OPT_COEFF):
        return st.one_of(NUMBERS, FUNCTIONS)
    return {schema._number: NUMBERS, schema._integer: INTEGERS}.get(parse, OTHERS)


def _small(name):
    payload = json.loads((CONFIG_DIR / name).read_text())
    payload["grid"]["n0"] = 1000
    payload["mc"]["paths"] = 2
    if "ladder" in payload:
        payload["ladder"]["count"] = 3
    if "utility" in payload:
        payload["utility"]["bootstrap"] = 10
    return payload


class _FirstRung(BaseException):
    """Raised at a run's first book scan or noise draw; escapes ``main``."""


def _first_rung(*args, **kwargs):
    raise _FirstRung


def _main(argv):
    """(exit code, the ``error:`` line or None, stdout) of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    return code, (lines[0] if lines else None), out.getvalue()


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_validate_refuses_what_the_run_refuses_before_its_first_rung(name, data):
    payload = _small(name)
    kind = payload["kind"]
    sections = ["grid", "mc", *schema.KINDS[kind].sections]
    section = data.draw(st.sampled_from(sections), label="section")
    cls = {"grid": schema.GridConfig, "mc": schema.McConfig, **schema._SECTIONS}[section]
    _, key, m = data.draw(st.sampled_from(cls._fields), label="field")
    payload.setdefault(section, {})[key] = data.draw(_values(m["parse"]), label="value")

    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        # the CLI prints numpy's overflow warnings and goes on; so does this test
        warnings.simplefilter("ignore", RuntimeWarning)
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(payload))
        args = ["--config", str(path), "--out", str(Path(tmp) / "out")]
        code, error, stdout = _main(["validate", *args])
        assert code in (0, 2)
        if code == 0 and json.loads(stdout)["estimates"]["cost_proxy"] > RUN_COST_CAP:
            return
        with mock.patch.object(lobres.wealth, "evolve_book", _first_rung), \
                mock.patch.object(lobres.experiments, "normals_block", _first_rung):
            try:
                run = _main([schema.KINDS[kind].command, *args])[:2]
            except _FirstRung:
                run = (0, None)
        assert (code, error) == run
        assert not (Path(tmp) / "out").exists()
