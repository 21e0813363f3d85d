"""Run configuration: a strict JSON key/value schema with documented defaults.

Each section is a frozen dataclass (``@_section``) whose fields declare their
JSON key, default, parser and range checks in ``field(metadata=...)`` (see
``_field``).  ``_parse`` reads and ``_dump`` writes every section from these
declarations; a section's ``_check`` hook holds its constraints across fields,
and ``KINDS`` says which sections and strategy types each run kind takes.
Unknown keys are rejected with the offending key path; invariant violations
name the constraint.  Parsing then serializing then parsing again yields an
identical configuration, and the canonical serialization is hashed into run
summaries.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Any, Callable, NamedTuple

from .book import BookTemplate
from .errors import ConfigParseError, ConfigValidationError
from .experiments import FundamentalSpec, KappaLadder, UniformBounds, paths_per_chunk

_REQUIRED = object()  # the default of a key that must be given


def _as_mapping(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigParseError(f"{where} must be an object, got {type(obj).__name__}")
    return dict(obj)


def _reject_unknown(d: dict, where: str) -> None:
    if d:
        raise ConfigParseError(f"unknown key '{sorted(d)[0]}' in {where}")


def _number(obj: Any, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigParseError(f"{where} must be a number, got {obj!r}")
    try:
        value = float(obj)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigValidationError(f"{where} must be finite, got {obj!r}")
    return value


def _integer(obj: Any, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigParseError(f"{where} must be an integer, got {obj!r}")
    return obj


def _one_of(choices) -> Callable[[Any, str], str]:
    def parse(obj: Any, where: str) -> str:
        if not isinstance(obj, str) or obj not in choices:
            raise ConfigParseError(f"{where} must be one of {sorted(choices)}, got {obj!r}")
        return obj
    return parse


def _optional(parse: Callable[[Any, str], Any]) -> Callable[[Any, str], Any]:
    return lambda obj, where: None if obj is None else parse(obj, where)


def _list(item: Callable[[Any, str], Any], problem: str, nonempty: bool = True):
    """Parser of a JSON list into a tuple of ``item`` values; ``problem`` is
    the message for anything else, with ``{}`` standing for the key path."""
    def parse(obj: Any, where: str) -> tuple:
        if not isinstance(obj, list) or (nonempty and not obj):
            raise ConfigParseError(problem.format(where))
        return tuple(item(v, f"{where}[{j}]") for j, v in enumerate(obj))
    return parse


def _block(obj: Any, where: str) -> tuple[float, float]:
    if not (isinstance(obj, list) and len(obj) == 2):
        raise ConfigParseError(f"{where} must be [time, size]")
    return _number(obj[0], f"{where}[0]"), _number(obj[1], f"{where}[1]")


_KAPPAS = _list(_number, "{} must be a nonempty list")


# A range check takes the parsed value and grid.horizon and returns None, or
# the message for a bad value with {} standing for the key path.
def _is(ok: Callable[[Any], bool], problem: str) -> Callable[[Any, float], str | None]:
    return lambda value, horizon: None if ok(value) else problem


_POSITIVE = _is(lambda v: v > 0, "{} must be positive")
_AT_LEAST_1 = _is(lambda v: v >= 1, "{} must be at least 1")
_BOUND = _is(lambda v: v > 0, "bounds entries must be positive")
_TRACKER_BOUND = _is(lambda v: v > 0,
                     "tracker.coeff_bound and tracker.rate_floor must be positive")
_INCREASING = _is(lambda vs: all(v > 0 for v in vs) and all(b > a for a, b in zip(vs, vs[1:])),
                  "{} must be positive and strictly increasing")


def _within(lo: float, hi: float = math.inf, strict: bool = False):
    """Coefficient range [lo, hi], or (lo, hi] if strict; a function of time
    is probed at 257 points of [0, horizon]."""
    bracket = f"({lo}, {hi}]" if strict else f"[{lo}, {hi}]"

    def check(c: CoeffSpec, horizon: float) -> str | None:
        f = c.value()
        for v in [f] if c.fn == "const" else [f(j * horizon / 256.0) for j in range(257)]:
            if v < lo or v > hi or (strict and v == lo):
                return f"{{}} must lie in {bracket}, got {v}"
        return None
    return check


def _field(parse: Callable[[Any, str], Any], default: Any, *checks, key: str | None = None,
           when: tuple[str, Any] | None = None, null: bool = False):
    """A section field read from JSON ``key`` (default: the field name) by
    ``parse(obj, where)`` and then range-checked.  ``default`` is a JSON value,
    parsed like a given one, or ``_REQUIRED``; a parser wrapped in ``_optional``
    reads null and absence as None.  ``when=(name, value)`` makes the key exist
    only while the earlier field ``name`` holds ``value`` (``strategy.rate``
    for ``"type": "rate"``), and ``null`` writes None as JSON null instead of
    leaving the key out."""
    return field(metadata={"parse": parse, "default": default, "checks": checks, "key": key,
                           "when": when, "null": null})


def _section(cls):
    """A frozen dataclass whose ``_fields`` lists (name, key, declaration) of
    each field, for ``_parse`` and ``_dump``."""
    cls = dataclass(frozen=True)(cls)
    cls._fields = tuple((f.name, f.metadata["key"] or f.name, dict(f.metadata))
                        for f in fields(cls))
    return cls


def _active(when: tuple[str, Any] | None, values: dict) -> bool:
    return when is None or values[when[0]] == when[1]


def _parse(cls, obj: Any, where: str, kind: str, horizon: float | None):
    """Section ``cls`` from JSON ``obj``: parse the active fields, reject
    unknown keys, run the range checks, then the ``_check`` hook."""
    d = _as_mapping(obj, where)
    kw: dict[str, Any] = {}
    checked = []
    for name, key, m in cls._fields:
        kw[name] = None
        if _active(m["when"], kw):
            raw = d.pop(key, m["default"])
            if raw is _REQUIRED:
                raise ConfigParseError(f"missing required key '{key}' in {where}")
            kw[name] = m["parse"](raw, f"{where}.{key}")
            if m["checks"] and kw[name] is not None:
                checked.append((m["checks"], kw[name], key))
    _reject_unknown(d, where)
    for checks, value, key in checked:
        for check in checks:
            problem = check(value, horizon)
            if problem:
                raise ConfigValidationError(problem.format(f"{where}.{key}"))
    section = cls(**kw)
    if hasattr(section, "_check"):
        section._check(kind, horizon)
    return section


def _json(value: Any) -> Any:
    if isinstance(value, CoeffSpec):
        params = dict(value.params)
        return params["value"] if value.fn == "const" else {"fn": value.fn, **params}
    return [_json(v) for v in value] if isinstance(value, tuple) else value


def _dump(section) -> dict:
    """The JSON object of a section: its active fields, where None is left out
    unless the field writes null."""
    values = vars(section)
    return {key: _json(values[name]) for name, key, m in section._fields
            if _active(m["when"], values) and (values[name] is not None or m["null"])}


@dataclass(frozen=True)
class CoeffSpec:
    """Constant or named function of time: const, linear, sin, or cos."""

    fn: str
    params: tuple[tuple[str, float], ...]

    _SCHEMAS = {
        "const": {"value": _REQUIRED},
        "linear": {"intercept": 0.0, "slope": 0.0},
        "sin": {"amplitude": 1.0, "frequency": 1.0, "offset": 0.0},
        "cos": {"amplitude": 1.0, "frequency": 1.0, "offset": 0.0},
    }

    @classmethod
    def parse(cls, obj: Any, where: str) -> "CoeffSpec":
        if isinstance(obj, bool):
            raise ConfigParseError(f"{where} must be a number or function spec")
        if isinstance(obj, (int, float)):
            return cls("const", (("value", _number(obj, where)),))
        d = _as_mapping(obj, where)
        fn = _one_of(cls._SCHEMAS)(d.pop("fn", None), f"{where}.fn")
        params = []
        for key, default in cls._SCHEMAS[fn].items():
            raw = d.pop(key, default)
            if raw is _REQUIRED:
                raise ConfigParseError(f"{where}.{key} is required for fn={fn!r}")
            params.append((key, _number(raw, f"{where}.{key}")))
        _reject_unknown(d, where)
        return cls(fn, tuple(params))

    def value(self) -> float | Callable[[float], float]:
        p = dict(self.params)
        if self.fn == "const":
            return p["value"]
        if self.fn == "linear":
            return lambda t, a=p["intercept"], b=p["slope"]: a + b * t
        return (lambda t, a=p["amplitude"], f=p["frequency"], c=p["offset"],
                g=math.sin if self.fn == "sin" else math.cos: c + a * g(2.0 * math.pi * f * t))


_COEFF, _OPT_COEFF = CoeffSpec.parse, _optional(CoeffSpec.parse)
_ABOVE_0, _UP_TO_HALF = _within(0.0, strict=True), _within(0.0, 0.5)
_GEOMETRIC = ("values", None)


@_section
class GridConfig:
    horizon: float = _field(_number, 1.0, _POSITIVE)
    n0: int = _field(_integer, 512, _AT_LEAST_1)
    resolution_scale: float = _field(_number, 4.0, _POSITIVE)


@_section
class BookConfig:
    kappa: float | None = _field(_optional(_number), None)
    K: CoeffSpec = _field(_COEFF, 1.0, _ABOVE_0)
    h: CoeffSpec = _field(_COEFF, 1.0, _ABOVE_0)
    alpha: CoeffSpec = _field(_COEFF, 0.0, _UP_TO_HALF)
    eps: CoeffSpec = _field(_COEFF, 0.0, _within(0.0))
    K_dn: CoeffSpec | None = _field(_OPT_COEFF, None, _ABOVE_0, key="K_down")
    h_dn: CoeffSpec | None = _field(_OPT_COEFF, None, _ABOVE_0, key="h_down")
    alpha_dn: CoeffSpec | None = _field(_OPT_COEFF, None, _UP_TO_HALF, key="alpha_down")
    eps_dn: CoeffSpec | None = _field(_OPT_COEFF, None, _within(0.0), key="eps_down")

    def _check(self, kind: str, horizon: float) -> None:
        if kind != "simulate" and self.kappa is not None:
            raise ConfigParseError(
                "book.kappa is set by the ladder for experiment kinds; remove it")
        if kind == "simulate" and self.kappa is None:
            raise ConfigParseError("missing required key 'kappa' in book")
        if kind == "simulate" and self.kappa <= 0:
            raise ConfigValidationError("book.kappa must be positive")

    def template(self) -> BookTemplate:
        coeffs = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "kappa"}
        return BookTemplate(**{k: None if c is None else c.value() for k, c in coeffs.items()})


@_section
class FundamentalConfig:
    s0: float = _field(_number, 100.0)
    mu: CoeffSpec = _field(_COEFF, 0.0)
    sigma: CoeffSpec = _field(_COEFF, 0.0, _within(0.0))

    def _check(self, kind: str, horizon: float) -> None:
        if kind == "utility" and (self.sigma.fn != "const" or self.sigma.value() <= 0):
            raise ConfigValidationError("utility runs need a constant positive fundamental.sigma")
        if kind == "utility" and self.mu.fn != "const":
            raise ConfigValidationError("utility runs need a constant fundamental.mu")

    def spec(self) -> FundamentalSpec:
        return FundamentalSpec(self.s0, self.mu.value(), self.sigma.value())


@_section
class StrategyConfig:
    # a missing type reaches the parser as None, which refuses it
    type: str = _field(_one_of(("zero", "rate", "blocks", "tracker")), None)
    phi0: float = _field(_number, 0.0)
    rate: CoeffSpec | None = _field(_COEFF, _REQUIRED, when=("type", "rate"))
    blocks: tuple[tuple[float, float], ...] | None = _field(
        _list(_block, "{} must be a nonempty list of [time, size]"), _REQUIRED,
        _is(lambda bs: all(b[0] > a[0] for a, b in zip(bs, bs[1:])),
            "strategy block times must be strictly increasing"),
        _is(lambda bs: all(s != 0 for _, s in bs), "strategy block sizes must be nonzero"),
        when=("type", "blocks"))
    t_prime: float | None = _field(_number, _REQUIRED, lambda t, horizon: None if 0 < t < horizon
                                   else "{} must lie strictly between 0 and grid.horizon",
                                   when=("type", "blocks"))
    target: CoeffSpec | None = _field(_COEFF, _REQUIRED, when=("type", "tracker"))
    rate_scale: CoeffSpec | None = _field(_COEFF, 1.0, _ABOVE_0, when=("type", "tracker"))
    start: float | None = _field(_optional(_number), None, when=("type", "tracker"),
                                 null=True)

    def _check(self, kind: str, horizon: float) -> None:
        if self.type == "blocks" and any(t < 0 or t > self.t_prime for t, _ in self.blocks):
            raise ConfigValidationError("strategy block times must lie in [0, t_prime]")
        permitted = KINDS[kind].strategies
        if self.type not in permitted:
            raise ConfigValidationError(f"strategy.type {self.type!r} is not allowed for kind "
                                        f"'{kind}' (allowed: {sorted(permitted)})")


@_section
class LadderConfig:
    values: tuple[float, ...] | None = _field(_optional(_KAPPAS), None, _INCREASING)
    start: float | None = _field(_number, 16.0, _POSITIVE, when=_GEOMETRIC)
    factor: float | None = _field(_number, 2.0, _is(lambda v: v > 1, "{} must exceed 1"),
                                  when=_GEOMETRIC)
    count: int | None = _field(_integer, 9, _AT_LEAST_1, when=_GEOMETRIC)

    def _check(self, kind: str, horizon: float) -> None:
        if self.values is None:
            try:
                top = self.start * self.factor ** (self.count - 1)
            except OverflowError:
                top = math.inf
            if not math.isfinite(top):
                raise ConfigValidationError(
                    "ladder.start * ladder.factor**(ladder.count - 1) must be finite")

    def ladder(self) -> KappaLadder:
        if self.values is not None:
            return KappaLadder(self.values)
        return KappaLadder.geometric(self.start, self.factor, self.count)


@_section
class McConfig:
    paths: int = _field(_integer, 1, _AT_LEAST_1, _is(
        lambda v: v <= 1 << 32, "{} must be at most 2**32 (one stream id below 2**32 per path)"))
    seed: int = _field(_integer, 42)

    def __post_init__(self) -> None:
        # checked here so that a --seed override is refused like mc.seed
        if self.seed < 0:
            raise ConfigValidationError(f"mc.seed must be non-negative, got {self.seed}")


@_section
class SmoothingConfig:
    width_scale: float = _field(_number, 1.0, _POSITIVE)


@_section
class TrackerConfig:
    target_drift: CoeffSpec = _field(_COEFF, 0.0)
    target_vol: CoeffSpec = _field(_COEFF, 1.0)
    rate_scale: CoeffSpec = _field(_COEFF, 1.0, _ABOVE_0)
    coeff_bound: float = _field(_number, 1.0, _TRACKER_BOUND)
    rate_floor: float = _field(_number, 1.0, _TRACKER_BOUND)
    target0: float = _field(_number, 0.0)


@_section
class UtilityConfig:
    gamma: float = _field(_number, 1.0, _POSITIVE)
    multipliers: tuple[float, ...] = _field(
        _list(_number, "utility.multipliers and utility.kappas must be lists", nonempty=False),
        [0.5, 1.0, 2.0], _is(lambda cs: 1.0 in cs, "{} must include 1 (the candidate)"),
        _is(lambda cs: all(c > 0 for c in cs), "{} must be positive"))
    kappas: tuple[float, ...] = _field(_KAPPAS, [64.0, 256.0, 1024.0], _INCREASING)
    x0: float = _field(_number, 0.0)
    bootstrap: int = _field(_integer, 500, _is(lambda v: v >= 10, "{} must be at least 10"))


@_section
class BoundsConfig:
    rate_bound: float = _field(_number, _REQUIRED, _BOUND, key="rate")
    coefficient_bound: float = _field(_number, _REQUIRED, _BOUND, key="coefficient")
    resilience_floor: float = _field(_number, _REQUIRED, _BOUND)

    def bounds(self) -> UniformBounds:
        return UniformBounds(self.rate_bound, self.coefficient_bound, self.resilience_floor)


_SECTIONS = {"book": BookConfig, "fundamental": FundamentalConfig, "strategy": StrategyConfig,
             "ladder": LadderConfig, "smoothing": SmoothingConfig, "tracker": TrackerConfig,
             "utility": UtilityConfig, "bounds": BoundsConfig}


class _Kind(NamedTuple):
    # section -> True (required), False (defaults when absent) or None (None
    # when absent); grid, mc and output are common to every kind
    sections: dict[str, bool | None]
    strategies: tuple[str, ...] = ()
    one_path: str | None = None  # why mc.paths has no effect, if it has none
    # whether a run draws Gaussian noise (and so loads scipy.special); a kind
    # that takes mc.paths keeps one float64 result per path and cell (rung, or
    # (kappa, multiplier) pair) and draws its noise one chunk of paths at a time
    noise: Callable[[Any], bool] = lambda config: False


_LADDER_KIND = {"book": False, "fundamental": False, "strategy": True, "ladder": False}
_GAP = "the {} gap does not depend on the price path"
_GAP_KINDS = ("theorem1", "remark1", "l2")
KINDS = {
    "simulate": _Kind({"book": True, "fundamental": False, "strategy": True},
                      ("zero", "rate", "blocks", "tracker"),
                      "simulate samples one price path (stream 0)",
                      noise=lambda config: True),
    "theorem1": _Kind(_LADDER_KIND, ("zero", "rate"), _GAP.format("theorem1")),
    "remark1": _Kind(_LADDER_KIND, ("zero", "rate"), _GAP.format("remark1")),
    "l2": _Kind({**_LADDER_KIND, "bounds": None}, ("zero", "rate"), _GAP.format("l2")),
    "lemma-jump": _Kind({**_LADDER_KIND, "smoothing": False}, ("blocks",),
                        noise=lambda config: not config.fundamental.spec().is_deterministic),
    "tracker-bound": _Kind({"ladder": False, "tracker": False},
                           noise=lambda config: True),
    "utility": _Kind({"book": False, "fundamental": True, "utility": False},
                     noise=lambda config: True),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run specification (all defaults materialized)."""

    kind: str
    grid: GridConfig
    mc: McConfig
    output_dir: str
    x0: float = 0.0
    book: BookConfig | None = None
    fundamental: FundamentalConfig | None = None
    strategy: StrategyConfig | None = None
    ladder: LadderConfig | None = None
    smoothing: SmoothingConfig | None = None
    tracker: TrackerConfig | None = None
    utility: UtilityConfig | None = None
    bounds: BoundsConfig | None = None

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"kind": self.kind, "output": {"directory": self.output_dir}}
        if self.kind == "simulate":
            out["x0"] = self.x0
        for name in ("grid", "mc", *KINDS[self.kind].sections):
            if getattr(self, name) is not None:
                out[name] = _dump(getattr(self, name))
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(", ", ": "),
                          indent=2) + "\n"

    def config_hash(self) -> str:
        """Hash of the run-defining content; the output location is excluded
        so identical runs into different directories stay byte-identical."""
        content = self.to_dict()
        content.pop("output", None)
        canonical = json.dumps(content, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"parse error at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # int() refuses a literal beyond its digit limit
        raise ConfigParseError(f"parse error: an integer literal has more than "
                               f"{sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:
        raise ConfigParseError("parse error: arrays or objects nested too deeply") from exc
    d = _as_mapping(raw, "config")

    kind = _one_of(KINDS)(d.pop("kind", None), "kind")
    grid = _parse(GridConfig, d.pop("grid", {}), "grid", kind, None)
    mc = _parse(McConfig, d.pop("mc", {}), "mc", kind, None)
    out_raw = _as_mapping(d.pop("output", {}), "output")
    output_dir = out_raw.pop("directory", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigParseError("output.directory must be a nonempty string")
    _reject_unknown(out_raw, "output")
    x0 = _number(d.pop("x0", 0.0), "x0") if kind == "simulate" else 0.0

    raw_sections: dict[str, Any] = {}
    for name, required in KINDS[kind].sections.items():
        if name in d:
            raw_sections[name] = d.pop(name)
        elif required:
            raise ConfigParseError(f"missing required section '{name}' for kind '{kind}'")
        elif required is False:
            raw_sections[name] = {}
    _reject_unknown(d, "config")
    sections = {name: _parse(_SECTIONS[name], obj, name, kind, grid.horizon)
                for name, obj in raw_sections.items()}
    config = RunConfig(kind, grid, mc, output_dir, x0, **sections)
    rungs, _ = _extent(config)  # refuses a grid too fine for a float step count
    if kind in _GAP_KINDS and rungs < 3:
        raise ConfigValidationError(f"ladder must have at least 3 rungs for kind '{kind}' "
                                    f"(a rate fit needs 3 points), got {rungs}")
    return config


def _extent(config: RunConfig) -> tuple[int, int]:
    """(cells, grid steps) of a run: the kappas (or (kappa, multiplier) pairs)
    it evaluates, and the steps of the one grid sized for the largest kappa."""
    if config.ladder is not None:
        ladder = config.ladder.ladder()
        cells, kappa_max = len(ladder), ladder.max
    elif config.utility is not None:
        cells = len(config.utility.kappas) * len(config.utility.multipliers)
        kappa_max = max(config.utility.kappas)
    else:  # simulate: one book at its own kappa
        cells, kappa_max = 1, config.book.kappa
    scaled = config.grid.resolution_scale * math.sqrt(kappa_max)
    if not math.isfinite(scaled) or config.grid.n0 > sys.float_info.max:
        raise ConfigValidationError("grid steps max(grid.n0, grid.resolution_scale * "
                                    "sqrt(largest kappa)) must be finite")
    return cells, max(config.grid.n0, math.ceil(scaled))


# Naive per-run cost proxy: steps * paths * ladder cells.  Runs above the
# budget still execute; validate() only warns.
DEFAULT_BUDGET = 2.0e8

# Peak RSS of an interpreter that has imported numpy and lobres.cli, before
# any run (34.6 MiB on Linux x86-64, Python 3.11, numpy 2.4), and what runs
# that draw noise add by loading scipy.special (19.5-19.6 MiB, scipy 1.17).
INTERPRETER_BYTES = 35 * 2**20
SCIPY_BYTES = 39 * 2**19
# Bytes per grid point live at the peak of a one-path run: the book
# coefficients, the scan's per-step terms and states, the ledger and the wealth
# and spread paths, about 45 float64 values (simulate's peak RSS grows by 363
# bytes per step between 40,000 and 253,000 steps).
ONE_PATH_BYTES_PER_POINT = 8 * 45


def validate_config(config: RunConfig, budget: float = DEFAULT_BUDGET) -> dict:
    """Dry-run report: schema is already enforced; estimate the run size."""
    cells, steps = _extent(config)
    spec = KINDS[config.kind]
    paths = 1 if spec.one_path else config.mc.paths
    noise = spec.noise(config)
    # float64 values of a Monte-Carlo kind: its per-path results and one
    # chunk of noise
    arrays = 0 if spec.one_path else cells * paths
    if noise and not spec.one_path:
        arrays += min(paths, paths_per_chunk(steps)) * steps
    cost_proxy = float(steps) * paths * cells
    warnings = []
    if spec.one_path and config.mc.paths > 1:
        warnings.append(f"mc.paths = {config.mc.paths} has no effect: {spec.one_path}")
    if config.kind in _GAP_KINDS and config.strategy.phi0 != 0:
        warnings.append(f"strategy.phi0 = {config.strategy.phi0!r} has no effect: the "
                        f"{config.kind} gap does not depend on the initial position")
    if cost_proxy > budget:
        warnings.append(
            f"estimated cost {cost_proxy:.3g} (steps x paths x cells) exceeds "
            f"budget {budget:.3g}")
    return {
        "ok": True,
        "kind": config.kind,
        "estimates": {
            "grid_steps": steps,
            "cells": cells,
            "paths": config.mc.paths,
            "cost_proxy": cost_proxy,
            # peak RSS: the interpreter (and scipy), one path's scan and
            # ledger, the Monte-Carlo arrays
            "approx_memory_bytes": (INTERPRETER_BYTES + (SCIPY_BYTES if noise else 0)
                                    + ONE_PATH_BYTES_PER_POINT * (steps + 1) + 8 * arrays),
        },
        "warnings": warnings,
    }
