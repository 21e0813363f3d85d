"""Benchmark of the ``lobres`` CLI: one fresh process per config, run one after
another (a closed loop with one client and no concurrency).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mc_paths --seed 42 --seconds 38 --trace 0

``--trace 0`` repeats passes over the workload's configs for about
``--seconds`` and reports the end-to-end metrics: ``wall_s`` (median pass),
``peak_rss_mb`` (largest child max-RSS in a pass, median over passes) and
``setup_s`` (median ``lobres validate`` process on the workload's first
config).  ``wall_s`` and ``setup_s`` are in seconds of a reference machine:
the measured times scaled by the speed of a fixed kernel run between the child
processes (see ``calibrate``).  The report also prints the measured times,
``wall_raw_s`` and ``setup_raw_s``, and the kernel's ``cal_s``.  ``--trace 1``
runs the per-layer measurement instead: an untraced CLI pass plus a child
process (``traced.py``) that runs the configs in-process, untraced and then
with timing wrappers on the package's entry points.

Every CLI run's artifacts go through ``check.py``; failed runs divided by
attempted runs is the error rate.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report (metrics with units, quartiles and sample
counts, the environment, the inputs' sha256 and the per-config layer figures).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from check import DEFAULT_SEED, REFERENCE, check_run, sha256

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

# Each workload's frozen configs, run in this order; the first one is also the
# config of the setup_s probe.  Why each workload exists:
#   mc_paths      shipped tracker_bound + utility: 10,000 paths x 513 points.
#                 Noise generation, tracker relaxation and the bootstrap do the
#                 work; the book scan is under 1%.
#   gap_ladder    theorem1, remark1, l2, lemma_jump_noisy with the ladder raised
#                 to 15 rungs (kappa up to 262,144, 2,048 steps): the book scan
#                 dominates, l2 scans each (book, strategy) pair 32 times.
#   simulate_fine simulate with kappa = 1e9 (126,492 steps, one path): one long
#                 scan and about 16 MB of CSV output.
WORKLOADS = {
    name: [BENCH / "workloads" / name / f"{stem}.json" for stem in stems]
    for name, stems in {
        "mc_paths": ("tracker_bound", "utility"),
        "gap_ladder": ("theorem1", "remark1", "l2", "lemma_jump_noisy"),
        "simulate_fine": ("simulate",),
    }.items()
}

# One BLAS/OpenMP thread per child (never more than nproc): unpinned OpenBLAS
# threads spin-wait, which on a 2-CPU machine put CPU time about 20% above
# wall time and made timings depend on the other process's activity.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_PASSES = 3
# The calibration kernel's median time on the reference machine (2 vCPU Xeon,
# Python 3.11.7, numpy 2.4.6).  A run whose kernel median is half this figure
# reports its timings doubled.
CAL_NOMINAL_S = 0.115
CAL_PER_CHILD = 2
SETUP_PER_PASS = 1
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0
# No further pass starts when it would end after this many seconds of
# measuring, so that a much slower program still reports within 180 s.
MEASURE_BUDGET_S = 120.0

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "config.parse.calls": "count",
    "config.parse.self_s": "s",
    "config.validate_mem_ratio": "ratio",
    "paths.source_init.calls": "count",
    "paths.source_init.self_s": "s",
    "paths.normals.calls": "count",
    "paths.normals.draws": "count",
    "paths.normals.self_s": "s",
    "paths.draws_per_path_step": "ratio",
    "experiments.brownian_increments.self_s": "s",
    "experiments.run.calls": "count",
    "experiments.run.self_s": "s",
    "book.evolve_book.calls": "count",
    "book.evolve_book.steps": "count",
    "book.evolve_book.self_s": "s",
    "book.evolve_book.ns_per_step": "ns",
    "book.scans_per_pair": "ratio",
    "wealth.ow_wealth.calls": "count",
    "wealth.ow_wealth.self_s": "s",
    "wealth.ac_wealth.calls": "count",
    "wealth.ac_wealth.self_s": "s",
    "strategies.relax_positions.calls": "count",
    "strategies.relax_positions.path_steps": "count",
    "strategies.relax_positions.self_s": "s",
    "strategies.relax_positions.ns_per_path_step": "ns",
    "strategies.relax_positions.bytes_computed": "bytes",
    "strategies.exponential_tracker.self_s": "s",
    "strategies.smooth_blocks.self_s": "s",
    "cli.import_s": "s",
    "cli.run_config.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "cli.cpu_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class ChildRun:
    exit_code: int
    wall_s: float
    cpu_s: float
    max_rss_bytes: int
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    return env


def spawn(argv: list[str], log: Path) -> ChildRun:
    """Run a child to completion (killed after CHILD_TIMEOUT_S) and read its
    wall time, CPU time and max RSS from its own rusage."""
    log.parent.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log.with_suffix(".stdout"), log.with_suffix(".stderr")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4 above
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss * 1024, out_path.read_text(), err_path.read_text())


def calibrate() -> float:
    """Wall time of a fixed kernel, run in this process between CLI runs.

    The shared host's speed drifts by 20% or more over minutes, and a pass
    slows with it.  The kernel runs before every child process of a run, and
    dividing the run's median pass or set-up time by the kernel's median
    cancels much of the drift between runs.  The kernel runs none of the
    program's code: it updates the columns of a (paths, points) array one
    after another, as the tracker relaxation does.  On the 2-vCPU reference
    machine its drift followed that of the passes in most periods; a scalar
    Python loop drifted twice as much as they did.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 4096 * 257).reshape(4096, 257)
    start = time.perf_counter()
    for _ in range(8):
        for i in range(256):
            a[:, i + 1] = a[:, i] + 0.5 * (a[:, i + 1] - a[:, i])
    return time.perf_counter() - start


def cli_command(config: Path) -> str:
    kind = json.loads(config.read_text())["kind"]
    return {"simulate": "simulate", "utility": "utility"}.get(kind, "converge")


def run_config(config: Path, seed: int, out_dir: Path) -> ChildRun:
    shutil.rmtree(out_dir, ignore_errors=True)
    return spawn([sys.executable, "-m", "lobres.cli", cli_command(config),
                  "--config", str(config), "--seed", str(seed), "--out", str(out_dir)],
                 out_dir.with_name(out_dir.name + ".log"))


class Tally:
    """Attempted and failed runs, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    def add(self, label: str, problems: list[str], stderr: str = "") -> None:
        self.attempted += 1
        if problems:
            tail = stderr.strip().splitlines()[-1:] if stderr else []
            self.problems.append(f"{label}: {'; '.join(problems + tail)}")

    @property
    def failed(self) -> int:
        return len(self.problems)


def validate_probe(config: Path, seed: int, log: Path, tally: Tally) -> ChildRun:
    run = spawn([sys.executable, "-m", "lobres.cli", "validate", "--config", str(config),
                 "--seed", str(seed)], log)
    problems = [] if run.exit_code == 0 else [f"exit code {run.exit_code}"]
    try:
        if not problems and json.loads(run.stdout)["ok"] is not True:
            problems.append("validate did not report ok")
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"validate output unusable: {exc!r}")
    tally.add(f"validate {config.stem}", problems, run.stderr)
    return run


def cli_pass(workload: str, configs: list[Path], seed: int, work: Path,
             reference: dict, tally: Tally,
             calibrations: list[float] | None = None) -> tuple[float, dict[str, ChildRun]]:
    """One closed-loop pass over the configs; returns its wall time (the sum of
    the CLI processes' wall times) and runs.  With ``calibrations``, the kernel
    runs CAL_PER_CHILD times before each config and its times are appended
    there.  The artifact check runs after the last config."""
    runs = {}
    for c in configs:
        if calibrations is not None:
            calibrations += [calibrate() for _ in range(CAL_PER_CHILD)]
        runs[c.stem] = run_config(c, seed, work / c.stem)
    wall = sum(run.wall_s for run in runs.values())
    for stem, run in runs.items():
        problems = check_run(work / stem, run.exit_code, seed,
                             reference.get(f"{workload}/{stem}"))
        tally.add(f"{stem} seed {seed}", problems, run.stderr)
    return wall, runs


def _another_pass(start: float, done: int, minimum: int, seconds: float,
                  last_pass_s: float) -> bool:
    """A pass starts when it is expected to end no later than half a pass
    after ``seconds``, so that runs last ``seconds`` on average."""
    elapsed = time.perf_counter() - start
    if done and elapsed + last_pass_s > MEASURE_BUDGET_S:
        return False
    return done < minimum or elapsed + last_pass_s / 2 < seconds


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(workload: str, configs: list[Path], seed: int, seconds: float,
               work: Path, reference: dict, tally: Tally) -> tuple[dict, list[str]]:
    validate_probe(configs[0], seed, work / "warmup", tally)  # fills caches; untimed
    calibrate()  # the first call pays for importing numpy; untimed
    setup, walls, rss, cals = [], [], [], []
    start = began = time.perf_counter()
    while _another_pass(start, len(walls), MIN_PASSES, seconds, time.perf_counter() - began):
        began = time.perf_counter()
        # setup samples are spread over the run so that one slow spell of the
        # machine does not move all of them
        for _ in range(SETUP_PER_PASS):
            cals += [calibrate() for _ in range(CAL_PER_CHILD)]
            setup.append(validate_probe(configs[0], seed, work / "setup", tally).wall_s)
        wall, runs = cli_pass(workload, configs, seed, work, reference, tally, cals)
        walls.append(wall)
        rss.append(max(r.max_rss_bytes for r in runs.values()) / 2**20)
    scale = CAL_NOMINAL_S / statistics.median(cals)
    samples = {"wall_s": [w * scale for w in walls], "peak_rss_mb": rss,
               "setup_s": [t * scale for t in setup], "wall_raw_s": walls,
               "setup_raw_s": setup, "cal_s": cals}
    units = dict(END_TO_END_UNITS, wall_raw_s="s", setup_raw_s="s", cal_s="s")
    lines = [f"# wall_s and setup_s: measured times x {CAL_NOMINAL_S} s / median cal_s",
             f"{'metric':<12} {'median':>12} {'unit':<6} {'q1':>12} {'q3':>12} samples"]
    for name, values in samples.items():
        q1, q3 = _quartiles(values)
        lines.append(f"{name:<12} {statistics.median(values):>12.6g} "
                     f"{units[name]:<6} {q1:>12.6g} {q3:>12.6g} {len(values)}")
    metrics = {name: statistics.median(samples[name]) for name in END_TO_END_UNITS}
    return metrics, lines


def _sum(records: list[dict | None], key: str):
    """Sum of one counter over the per-config records; None when the entry
    point or the counter is absent."""
    values = [r.get(key) if r is not None else None for r in records]
    return None if any(v is None for v in values) else sum(values)


def _ratio(num, den, scale: float = 1.0):
    return None if num is None or not den else scale * num / den


def layer_metrics(traced: dict, cli_runs: dict[str, ChildRun], artifact_bytes: int,
                  import_s: float) -> tuple[dict, list[str]]:
    layers = traced["layers"]
    estimates = traced["estimates"]
    stems = list(layers)

    def total(entry: str, key: str):
        return _sum([layers[s].get(entry) for s in stems], key)

    m: dict = {}
    for entry in ("config.parse", "paths.source_init", "paths.normals", "experiments.run",
                  "book.evolve_book", "wealth.ow_wealth", "wealth.ac_wealth",
                  "strategies.relax_positions"):
        m[f"{entry}.calls"] = total(entry, "calls")
    for entry in ("config.parse", "paths.source_init", "paths.normals",
                  "experiments.brownian_increments", "experiments.run", "book.evolve_book",
                  "wealth.ow_wealth", "wealth.ac_wealth", "strategies.relax_positions",
                  "strategies.exponential_tracker", "strategies.smooth_blocks",
                  "cli.run_config"):
        m[f"{entry}.self_s"] = total(entry, "self_s")
    m["paths.normals.draws"] = total("paths.normals", "draws")
    needed = None if any(estimates[s] is None for s in stems) else sum(
        estimates[s]["paths"] * estimates[s]["grid_steps"] for s in stems)
    m["paths.draws_per_path_step"] = _ratio(m["paths.normals.draws"], needed)
    m["book.evolve_book.steps"] = total("book.evolve_book", "steps")
    m["book.evolve_book.ns_per_step"] = _ratio(
        m["book.evolve_book.self_s"], m["book.evolve_book.steps"], 1e9)
    m["book.scans_per_pair"] = _ratio(m["book.evolve_book.calls"],
                                      total("book.evolve_book", "pairs"))
    m["strategies.relax_positions.path_steps"] = total("strategies.relax_positions",
                                                       "path_steps")
    m["strategies.relax_positions.bytes_computed"] = total("strategies.relax_positions",
                                                           "bytes_computed")
    m["strategies.relax_positions.ns_per_path_step"] = _ratio(
        m["strategies.relax_positions.self_s"], m["strategies.relax_positions.path_steps"], 1e9)

    # Measured peak RSS of each untraced CLI child over validate's estimate;
    # the reported value is the config farthest from 1 in either direction.
    mem = {s: _ratio(cli_runs[s].max_rss_bytes,
                     estimates[s] and estimates[s].get("approx_memory_bytes"))
           for s in stems}
    known = [r for r in mem.values() if r]
    m["config.validate_mem_ratio"] = max(known, key=lambda r: abs(math.log(r))) if known else None

    m["cli.import_s"] = import_s
    m["cli.artifact_bytes"] = artifact_bytes
    m["cli.cpu_s"] = sum(run.cpu_s for run in cli_runs.values())
    m["trace.overhead_s"] = traced["traced_s"] - traced["untraced_s"]

    lines = [f"# config.validate_mem_ratio {json.dumps(mem)}"]
    for s in stems:
        scans = layers[s].get("book.evolve_book")
        lines.append(f"# layers {s} book.scans_per_pair="
                     f"{_ratio(scans and scans['calls'], scans and scans['pairs'])} "
                     f"{json.dumps(layers[s], sort_keys=True)}")
    return m, lines


def traced_run(workload: str, configs: list[Path], seed: int, seconds: float,
               work: Path, reference: dict, tally: Tally) -> tuple[dict, list[str]]:
    probe = "import time; t = time.perf_counter(); import lobres.cli; print(time.perf_counter() - t)"
    imports = []
    for i in range(IMPORT_SAMPLES):
        run = spawn([sys.executable, "-c", probe], work / f"import{i}")
        tally.add("import lobres.cli", [] if run.exit_code == 0 else
                  [f"exit code {run.exit_code}"], run.stderr)
        if run.exit_code == 0:
            imports.append(float(run.stdout))
    import_s = statistics.median(imports) if imports else None

    iterations, lines = [], []
    start = began = time.perf_counter()
    while _another_pass(start, len(iterations), 1, seconds, time.perf_counter() - began):
        began = time.perf_counter()
        _, runs = cli_pass(workload, configs, seed, work, reference, tally)
        artifact_bytes = sum(f.stat().st_size for c in configs
                             for f in (work / c.stem).iterdir())
        traced_dir = work / "traced"
        shutil.rmtree(traced_dir, ignore_errors=True)
        child = spawn([sys.executable, str(BENCH / "traced.py"), "--seed", str(seed),
                       "--out", str(traced_dir)] + [str(c) for c in configs],
                      work / "traced.log")
        try:
            traced = json.loads(child.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError) as exc:
            tally.add("traced run", [f"exit code {child.exit_code}, output unusable: {exc!r}"],
                      child.stderr)
            break
        for stem, codes in traced["exit_codes"].items():
            for phase, code in codes.items():
                tally.add(f"{phase} in-process {stem}",
                          check_run(traced_dir / phase / stem, code, seed,
                                    reference.get(f"{workload}/{stem}")))
        metrics, lines = layer_metrics(traced, runs, artifact_bytes, import_s)
        iterations.append(metrics)
    if not iterations:
        return {name: None for name in LAYER_UNITS}, lines
    metrics = {}
    for name in LAYER_UNITS:
        values = [it[name] for it in iterations if it[name] is not None]
        metrics[name] = statistics.median(values) if values else None
    lines.insert(0, f"# traced iterations: {len(iterations)}")
    lines.append(f"{'metric':<46} {'value':>14} unit")
    lines += [f"{name:<46} {'null' if metrics[name] is None else format(metrics[name], '14.6g'):>14}"
              f" {LAYER_UNITS[name]}" for name in LAYER_UNITS]
    return metrics, lines


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        "caches": caches or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_in_children": {var: BLAS_THREADS for var in THREAD_VARS},
        "git_commit": commit,
        "seed": seed,
    }


def load_reference(workload: str) -> dict:
    """The stored reference entries of the workload's configs; exits when a
    frozen config no longer matches the one its reference was made from."""
    entries = json.loads(REFERENCE.read_text())["configs"]
    for config in WORKLOADS[workload]:
        key = f"{workload}/{config.stem}"
        if entries.get(key, {}).get("sha256") != sha256(config):
            sys.exit(f"error: {config.relative_to(ROOT)} differs from the config its "
                     "reference values were made from; run perfbench/check.py "
                     "--write-reference on a commit whose outputs are known good")
    return entries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lobres" / "cli.py").is_file():
        print(f"error: no lobres sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported by environment()
        os.environ[var] = BLAS_THREADS
    configs = WORKLOADS[args.workload]
    reference = load_reference(args.workload)

    work = ROOT / ".perfbench_out" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    try:
        measure = traced_run if args.trace else end_to_end
        metrics, lines = measure(args.workload, configs, args.seed, args.seconds, work,
                                 reference, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"closed loop, 1 client, one process per config")
    print(f"# environment {json.dumps(environment(args.seed), sort_keys=True)}")
    print(f"# inputs sha256 {json.dumps({c.stem: sha256(c) for c in configs})}")
    for problem in tally.problems:
        print(f"# FAILED {problem}")
    absent = sorted(name for name, value in metrics.items() if value is None)
    if absent:
        print(f"# null (entry point absent or zero base), 0 in the result line: "
              f"{', '.join(absent)}")
    for line in lines:
        print(line)
    print(f"error_rate {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.attempted} runs, {tally.failed} failed)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": 0 if metrics[name] is None else metrics[name],
                           "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
