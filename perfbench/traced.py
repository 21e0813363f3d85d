"""In-process traced run of a workload's configs (started by ``run.py``).

Usage::

    python3 perfbench/traced.py --seed 42 --out DIR CONFIG.json [CONFIG.json ...]

Runs every config through ``lobres.cli.main`` twice in this process: first
untraced, then with timing wrappers installed on the package's public entry
points.  A wrapper replaces the function under every name that a ``lobres``
module binds to it (``evolve_book`` is looked up in both ``lobres.book`` and
``lobres.wealth``, for instance), so callers reach it whichever module they
import from.  An entry point that no longer exists is reported as absent
(null).  Prints one JSON object: wall time of both passes, each run's exit
code, ``validate_config``'s estimates and per-config layer records.

A layer's self time is its busy time minus the time spent in wrapped calls
it made, the wrappers' own bookkeeping included.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import inspect
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from run import cli_command

EXPERIMENTS = ("theorem1_experiment", "remark1_experiment", "l2_convergence_experiment",
               "lemma_jump_experiment", "tracker_bound_experiment", "utility_experiment")

# layer entry -> (defining module, attribute names; "Class.method" for methods)
ENTRY_POINTS = {
    "config.parse": ("lobres.config", ("parse_config",)),
    "cli.run_config": ("lobres.cli", ("run_config",)),
    "experiments.run": ("lobres.experiments", EXPERIMENTS),
    "experiments.brownian_increments": ("lobres.experiments", ("brownian_increments",)),
    "paths.source_init": ("lobres.paths", ("RandomSource.__post_init__",)),
    "paths.normals": ("lobres.paths", ("RandomSource.normals",)),
    "book.evolve_book": ("lobres.book", ("evolve_book",)),
    "wealth.ow_wealth": ("lobres.wealth", ("ow_wealth",)),
    "wealth.ac_wealth": ("lobres.wealth", ("ac_wealth",)),
    "strategies.relax_positions": ("lobres.strategies", ("relax_positions",)),
    "strategies.exponential_tracker": ("lobres.strategies", ("exponential_tracker",)),
    "strategies.smooth_blocks": ("lobres.strategies", ("smooth_blocks",)),
}


def _content_key(obj, h) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _content_key(getattr(obj, f.name), h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"(")
        for item in obj:
            _content_key(item, h)
        h.update(b")")
    else:
        h.update(repr(obj).encode())


def content_key(*objs) -> str:
    h = hashlib.blake2b(digest_size=16)
    for obj in objs:
        _content_key(obj, h)
    return h.hexdigest()


def _count_draws(args: dict) -> dict:
    return {"draws": int(args["n"])}


def _count_scan(args: dict) -> dict:
    return {"steps": int(args["params"].grid.steps),
            "pairs": content_key(args["params"], args["strategy"])}


def _count_relax(args: dict) -> dict:
    target = np.asarray(args["target"])
    paths = target.size // target.shape[-1]
    steps = target.shape[-1] - 1
    # computed, not measured: read target and rate_scale once, write positions once
    return {"path_steps": paths * steps, "bytes_computed": 8 * (2 * target.size + steps)}


# entry -> (counter over the bound call arguments, the counts it yields);
# "pairs" collects distinct (book, strategy) contents and is reported as a count
COUNTERS = {
    "paths.normals": (_count_draws, ("draws",)),
    "book.evolve_book": (_count_scan, ("steps", "pairs")),
    "strategies.relax_positions": (_count_relax, ("path_steps", "bytes_computed")),
}


class Tracer:
    def __init__(self) -> None:
        self.records: dict[str, dict] = {}   # entry -> record, for the current config
        self.stack: list[list[float]] = []   # per active wrapped call: [time in children]

    def record(self, entry: str) -> dict:
        if entry not in self.records:
            _, keys = COUNTERS.get(entry, (None, ()))
            self.records[entry] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                   **{k: set() if k == "pairs" else 0 for k in keys}}
        return self.records[entry]

    def wrap(self, entry: str, fn):
        counter, keys = COUNTERS.get(entry, (None, ()))
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            counts = {}
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = counter(bound.arguments)
                except (TypeError, KeyError, AttributeError, ValueError):
                    counts = None  # reshaped signature: these counts become absent
            frame = [0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                self.stack.pop()
                rec = self.record(entry)
                rec["calls"] += 1
                rec["busy_s"] += busy
                rec["self_s"] += busy - frame[0]
                for key in keys:
                    if counts is None or rec[key] is None:
                        rec[key] = None
                    elif key == "pairs":
                        rec[key].add(counts[key])
                    else:
                        rec[key] += counts[key]
                if self.stack:
                    self.stack[-1][0] += time.perf_counter() - entered
        return wrapper

    def install(self) -> list[str]:
        """Wrap every entry point; returns the entries that are absent."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "lobres" or name.startswith("lobres.")]
        absent = []
        for entry, (module_name, names) in ENTRY_POINTS.items():
            found = False
            for name in names:
                owner = sys.modules.get(module_name)
                *cls_name, attr = name.split(".")
                if cls_name:
                    owner = getattr(owner, cls_name[0], None)
                original = owner and (vars(owner).get(attr) if cls_name
                                      else getattr(owner, attr, None))
                if not callable(original):
                    continue
                found = True
                wrapper = self.wrap(entry, original)
                if cls_name:
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
            if not found:
                absent.append(entry)
        return absent

    def take(self, absent: list[str]) -> dict:
        """This config's records (absent entries as None), then reset."""
        out = {}
        for entry in ENTRY_POINTS:
            rec = None if entry in absent else self.record(entry)
            if rec is not None and isinstance(rec.get("pairs"), set):
                rec["pairs"] = len(rec["pairs"])
            out[entry] = rec
        self.records = {}
        return out


def run_pass(configs: list[Path], seed: int, out: Path, phase: str, tracer=None,
             absent=()) -> tuple[float, dict, dict]:
    import lobres.cli

    codes, layers = {}, {}
    start = time.perf_counter()
    for config in configs:
        argv = [cli_command(config), "--config", str(config), "--seed", str(seed),
                "--out", str(out / phase / config.stem)]
        try:
            codes[config.stem] = lobres.cli.main(argv)
        except SystemExit as exc:
            codes[config.stem] = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this config; the others still run
            traceback.print_exc()
            codes[config.stem] = 70
        if tracer is not None:
            layers[config.stem] = tracer.take(absent)
    return time.perf_counter() - start, codes, layers


def estimates(config: Path):
    from lobres.config import parse_config, validate_config

    try:
        return validate_config(parse_config(config.read_text()))["estimates"]
    except Exception:  # a reshaped validate report leaves the estimate absent
        traceback.print_exc()
        return None


def main() -> None:
    parser = argparse.ArgumentParser(description="in-process traced run of lobres configs")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("configs", type=Path, nargs="+")
    args = parser.parse_args()

    import lobres.cli  # noqa: F401  (every lobres module is loaded before wrapping)

    est = {c.stem: estimates(c) for c in args.configs}
    untraced_s, untraced_codes, _ = run_pass(args.configs, args.seed, args.out, "untraced")
    tracer = Tracer()
    absent = tracer.install()
    traced_s, traced_codes, layers = run_pass(args.configs, args.seed, args.out, "traced",
                                              tracer, absent)
    print(json.dumps({
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "exit_codes": {c.stem: {"untraced": untraced_codes[c.stem],
                                "traced": traced_codes[c.stem]} for c in args.configs},
        "estimates": est,
        "layers": layers,
    }))


if __name__ == "__main__":
    main()
