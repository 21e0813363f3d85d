"""Output check for the benchmark's CLI runs.

A run fails when it exits with anything but 0 or 1, when an artifact is
missing or unparseable, when a number is not finite, when ``summary.json``
disagrees with the exit code or the requested seed, or when a value differs
from the stored reference beyond the tolerance below.  Exit code 1 (a gate
failed, artifacts written) is not a failure by itself: at the default seed the
gate verdicts are compared with the reference instead.

Reference values are matched by file and by column or key name, so columns and
keys added later are ignored.  At the default seed every stored value is
compared.  At any other seed only the values that the reference marks as
seed-independent are compared: continuous values that agreed at two probe
seeds when the reference was written.

Regenerate ``reference.json`` from the current program (it runs every frozen
config at two seeds) with::

    python3 perfbench/check.py --write-reference
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from pathlib import Path

# |new - ref| <= max(RTOL * |ref|, ATOL).  RTOL admits a reordered reduction
# or a cancellation-free rewrite of the wealth gap (whose top-rung values carry
# about 2e-8 relative rounding today); ATOL covers entries that are exactly 0.
RTOL = 1e-6
ATOL = 1e-12

DEFAULT_SEED = 42
PROBE_SEED = 1
MAX_SAMPLE_ROWS = 65
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    value = float(text)  # ValueError: unparseable
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def read_csv(path: Path, sample_rows: list[int] | None) -> dict:
    """Parse every cell (raising on an unparseable or non-finite one) and keep
    ``column[row]`` entries for the sampled rows (all rows when None)."""
    keep = None if sample_rows is None else set(sample_rows)
    flat = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = 0
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"row {rows} has {len(row)} fields, header has {len(header)}")
            try:  # fast path for all-numeric rows
                cells = list(map(float, row))
                if not all(map(math.isfinite, cells)):
                    raise ValueError
            except ValueError:
                cells = [_cell(text) for text in row]
            if keep is None or rows in keep:
                for name, value in zip(header, cells):
                    flat[f"{name}[{rows}]"] = value
            rows += 1
    flat["#rows"] = float(rows)
    return flat


def _flatten_json(obj, prefix: str, out: dict) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten_json(value, f"{prefix}{key}.", out)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            _flatten_json(value, f"{prefix}{i}.", out)
    elif isinstance(obj, bool) or obj is None:
        out[prefix[:-1]] = obj
    elif isinstance(obj, (int, float)):
        out[prefix[:-1]] = _cell(repr(float(obj)))
    elif isinstance(obj, str):
        try:
            float(obj)
        except ValueError:
            return  # hashes, names and other non-numeric text are not compared
        out[prefix[:-1]] = _cell(obj)


def read_artifact(path: Path, sample_rows: list[int] | None = None) -> dict:
    if path.suffix == ".csv":
        return read_csv(path, sample_rows)
    flat: dict = {}
    _flatten_json(json.loads(path.read_text()), "", flat)
    return flat


def _close(ref, new) -> bool:
    if isinstance(ref, bool) or ref is None or isinstance(new, bool) or new is None:
        return ref is new
    return abs(new - ref) <= max(RTOL * abs(ref), ATOL)


def check_run(out_dir: Path, exit_code: int, seed: int, reference: dict | None) -> list[str]:
    """Problems with one CLI run's artifacts; an empty list means it passed.

    ``reference`` is the config's entry in ``reference.json``, or None for a
    config without stored values (only the structural checks apply).
    """
    if exit_code not in (0, 1):
        return [f"exit code {exit_code}"]
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
        gates = summary["gates"]
        passed = summary["passed"]
        names = set(summary["artifacts"])
        run_seed = summary["seed"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"summary.json unusable: {exc!r}"]
    problems = []
    if passed != all(gates.values()):
        problems.append("summary.json: passed disagrees with its gates")
    if exit_code != (0 if passed else 1):
        problems.append(f"exit code {exit_code} but summary.json passed={passed}")
    if run_seed != seed:
        problems.append(f"summary.json seed {run_seed}, requested {seed}")
    ref_files = reference["files"] if reference else {}
    for name in sorted(names | set(ref_files)):
        ref = ref_files.get(name)
        try:
            flat = read_artifact(out_dir / name, ref and ref.get("sample_rows"))
        except (OSError, ValueError, StopIteration) as exc:
            problems.append(f"{name}: {exc!r}")
            continue
        if ref is None:
            continue
        keys = ref["values"] if seed == DEFAULT_SEED else ref["seed_independent"]
        for key in keys:
            if key not in flat:
                problems.append(f"{name}: {key} missing")
            elif not _close(ref["values"][key], flat[key]):
                problems.append(f"{name}: {key} = {flat[key]!r}, "
                                f"reference {ref['values'][key]!r}")
    return problems


def _snapshot(out_dir: Path) -> dict:
    files = {}
    for path in sorted(out_dir.iterdir()):
        sample = None
        if path.suffix == ".csv":
            rows = int(read_csv(path, [])["#rows"])
            if rows > MAX_SAMPLE_ROWS:
                step = (rows - 1) / (MAX_SAMPLE_ROWS - 1)
                sample = sorted({round(i * step) for i in range(MAX_SAMPLE_ROWS)})
        entry = {"values": read_artifact(path, sample)}
        if sample is not None:
            entry["sample_rows"] = sample
        files[path.name] = entry
    return files


def _seed_independent(values: dict, probe: dict) -> list[str]:
    """Continuous values equal at both seeds; 0/1 values (verdicts,
    fractions, flags) can flip at another seed and are left out."""
    columns: dict[str, list] = {}
    for key, value in values.items():
        columns.setdefault(key.split("[")[0], []).append(value)
    discrete = {col for col, vals in columns.items()
                if all(v is None or isinstance(v, bool) or v in (0.0, 1.0) for v in vals)}
    return [key for key, value in values.items()
            if key == "#rows" or (key.split("[")[0] not in discrete
                                  and key in probe and _close(value, probe[key]))]


def write_reference() -> None:
    import shutil

    from run import ROOT, WORKLOADS, run_config

    entries = {}
    scratch = ROOT / ".perfbench_out" / "reference"
    for workload, configs in WORKLOADS.items():
        for path in configs:
            runs = {}
            for seed in (DEFAULT_SEED, PROBE_SEED):
                run = run_config(path, seed, scratch / "artifacts")
                if run.exit_code != 0:
                    sys.exit(f"{path} exited {run.exit_code} at seed {seed}")
                runs[seed] = _snapshot(scratch / "artifacts")
            files = runs[DEFAULT_SEED]
            for name, entry in files.items():
                entry["seed_independent"] = _seed_independent(
                    entry["values"], runs[PROBE_SEED][name]["values"])
            entries[f"{workload}/{path.stem}"] = {"sha256": sha256(path), "files": files}
    shutil.rmtree(scratch)
    REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED, "configs": entries},
                                    indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-reference"]:
        sys.exit("usage: python3 perfbench/check.py --write-reference")
    write_reference()
