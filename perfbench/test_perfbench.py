"""Tests of the benchmark itself: a small-size smoke pass per workload and the
output check.  Run from the repository root with

    python -m pytest perfbench -q
"""

import csv
import json
import shutil
import subprocess
import sys

import pytest

import check
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small_configs(workload, directory):
    """The workload's frozen configs shrunk to a smoke-test size."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for frozen in run.WORKLOADS[workload]:
        config = json.loads(frozen.read_text())
        config["mc"]["paths"] = min(config["mc"]["paths"], 50)
        if "ladder" in config:
            config["ladder"]["count"] = 3
        if "utility" in config:
            config["utility"]["bootstrap"] = 20
        if config["kind"] == "simulate":
            config["book"]["kappa"] = 64.0
        path = directory / frozen.name
        path.write_text(json.dumps(config))
        paths.append(path)
    return paths


def test_metric_lists_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_pass_reports_every_metric(workload, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORKLOADS", {workload: small_configs(workload, tmp_path)})
    monkeypatch.setattr(run, "load_reference", lambda name: {})
    for constant in ("MIN_PASSES", "SETUP_PER_PASS", "IMPORT_SAMPLES"):
        monkeypatch.setattr(run, constant, 1)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_timings_are_scaled_by_the_calibration_kernel(monkeypatch, tmp_path):
    """A machine that runs the kernel in half the nominal time is twice as fast
    as the reference machine, so its pass times count double."""
    walls = iter([3.0, 1.0, 2.0])
    monkeypatch.setattr(run, "calibrate", lambda: run.CAL_NOMINAL_S / 2)
    monkeypatch.setattr(run, "validate_probe",
                        lambda *args: run.ChildRun(0, 0.5, 0.5, 2**20, "", ""))
    monkeypatch.setattr(run, "run_config",
                        lambda *args: run.ChildRun(0, next(walls), 1.0, 2**20, "", ""))
    monkeypatch.setattr(run, "check_run", lambda *args: [])
    metrics, lines = run.end_to_end("w", [tmp_path / "c.json"], 1, 0, tmp_path, {},
                                    run.Tally())
    assert metrics == {"wall_s": 4.0, "peak_rss_mb": 1.0, "setup_s": 1.0}
    assert any(line.split()[:2] == ["wall_raw_s", "2"] for line in lines)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_paths",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def theorem1_run(tmp_path_factory):
    """Artifacts of the frozen gap_ladder theorem1 config at the default seed."""
    config = run.WORKLOADS["gap_ladder"][0]
    out = tmp_path_factory.mktemp("theorem1") / "out"
    done = run.run_config(config, check.DEFAULT_SEED, out)
    reference = json.loads(check.REFERENCE.read_text())["configs"]["gap_ladder/theorem1"]
    return out, done.exit_code, reference


def _copy(theorem1_run, tmp_path):
    out, code, reference = theorem1_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    return copy, code, reference


def _edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_check_accepts_the_program_output(theorem1_run):
    out, code, reference = theorem1_run
    assert code == 0
    assert check.check_run(out, code, check.DEFAULT_SEED, reference) == []


def test_check_rejects_a_perturbed_value(theorem1_run, tmp_path):
    out, code, reference = _copy(theorem1_run, tmp_path)

    def perturb(rows):
        col = rows[0].index("mean_err")
        rows[5][col] = repr(float(rows[5][col]) * (1 + 1e-4))

    _edit_csv(out / "convergence.csv", perturb)
    problems = check.check_run(out, code, check.DEFAULT_SEED, reference)
    assert any("mean_err[4]" in p for p in problems)
    # theorem1 has no price noise, so its values are checked at every seed
    summary = json.loads((out / "summary.json").read_text())
    summary["seed"] = 7
    (out / "summary.json").write_text(json.dumps(summary))
    assert any("mean_err[4]" in p for p in check.check_run(out, code, 7, reference))


def test_check_rejects_exit_code_2(theorem1_run):
    out, _, reference = theorem1_run
    assert check.check_run(out, 2, check.DEFAULT_SEED, reference) == ["exit code 2"]


def test_check_rejects_a_flipped_gate_and_a_non_finite_value(theorem1_run, tmp_path):
    out, code, reference = _copy(theorem1_run, tmp_path)
    summary = json.loads((out / "summary.json").read_text())
    summary["gates"]["slope_gate"] = False
    summary["passed"] = False
    (out / "summary.json").write_text(json.dumps(summary))
    assert check.check_run(out, 1, check.DEFAULT_SEED, reference)

    _edit_csv(out / "convergence.csv", lambda rows: rows[3].__setitem__(1, "nan"))
    assert any("non-finite" in p for p in check.check_run(out, 1, 7, None))


def test_check_ignores_an_added_column(theorem1_run, tmp_path):
    out, code, reference = _copy(theorem1_run, tmp_path)

    def add_column(rows):
        rows[0].append("new_metric")
        for row in rows[1:]:
            row.append("1.5")

    _edit_csv(out / "convergence.csv", add_column)
    assert check.check_run(out, code, check.DEFAULT_SEED, reference) == []


def test_traced_run_reports_a_removed_entry_point_as_absent(tmp_path):
    config = small_configs("gap_ladder", tmp_path)[0]
    script = f"""
import json, sys
sys.path.insert(0, {str(run.BENCH)!r})
import lobres.book, lobres.cli, lobres.wealth
import traced
del lobres.wealth.ow_wealth  # callers keep their own reference
tracer = traced.Tracer()
absent = tracer.install()
assert lobres.wealth.evolve_book is lobres.book.evolve_book
assert lobres.book.evolve_book.__wrapped__ is not None
_, codes, layers = traced.run_pass([traced.Path({str(config)!r})], 42,
                                   traced.Path({str(tmp_path)!r}), "traced", tracer, absent)
print(json.dumps({{"absent": absent, "codes": codes, "layers": layers}}))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=run.child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["absent"] == ["wealth.ow_wealth"]
    layers = out["layers"][config.stem]
    assert layers["wealth.ow_wealth"] is None
    assert layers["book.evolve_book"]["calls"] == 2 * layers["wealth.ac_wealth"]["calls"] > 0
    assert layers["book.evolve_book"]["pairs"] == layers["wealth.ac_wealth"]["calls"]
    traced_out = {"layers": out["layers"], "estimates": {config.stem: None},
                  "traced_s": 1.0, "untraced_s": 1.0}
    cli_runs = {config.stem: run.ChildRun(0, 1.0, 1.0, 2**20, "", "")}
    metrics, _ = run.layer_metrics(traced_out, cli_runs, 0, 0.5)
    assert metrics["wealth.ow_wealth.calls"] is None
    assert metrics["book.scans_per_pair"] == 2.0
    assert metrics["paths.draws_per_path_step"] is None
