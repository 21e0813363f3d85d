"""Run configuration: a strict JSON key/value schema with documented defaults.

Each section is an immutable record (a ``_Section``) whose fields declare
their JSON key, default, parser and range checks (see ``_field``).
``_parse`` reads and ``_dump`` writes every section from these declarations;
a section's ``_check`` hook holds its constraints across fields, and
``KINDS`` says which sections and strategy types each run kind takes.
Unknown keys are rejected with the offending key path; invariant violations
name the constraint.  Parsing then serializing then parsing again yields an
identical configuration, and the canonical serialization is hashed into run
summaries.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import FrozenInstanceError
from typing import Any, Callable, NamedTuple

from .book import BookParams
from .errors import ConfigParseError, ConfigValidationError
from .experiments import (FundamentalSpec, KappaLadder, ladder_grid, paths_per_chunk,
                          resamples_per_chunk)
from .paths import LANES, TimeGrid, lane_width

# sha256 from the interpreter's built-in module, as CPython's random.py takes
# sha512: hashlib loads OpenSSL's libcrypto (about 3.5 MiB of RSS) to hash a
# short string.  The digest is the same.
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

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


# A range check takes the parsed value and returns None, or the message for a
# bad value with {} standing for the key path.
def _is(ok: Callable[[Any], bool], problem: str) -> Callable[[Any], str | None]:
    return lambda value: None if ok(value) else problem


_POSITIVE = _is(lambda v: v > 0, "{} must be positive")
_AT_LEAST_1 = _is(lambda v: v >= 1, "{} must be at least 1")
_INCREASING = _is(lambda vs: all(v > 0 for v in vs) and all(b > a for a, b in zip(vs, vs[1:])),
                  "{} must be positive and strictly increasing")


def _within(lo: float, hi: float = math.inf, strict: bool = False):
    """Coefficient range [lo, hi], or (lo, hi] if strict, of a constant.  A
    function of time is checked by the engine at every point of the run's
    grid, with the run's own message, by the run kind's set-up in ``cli``."""
    bracket = f"({lo}, {hi}]" if strict else f"[{lo}, {hi}]"

    def check(c: CoeffSpec) -> str | None:
        v = c.value()
        if c.fn == "const" and (v < lo or v > hi or (strict and v == lo)):
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
    return {"parse": parse, "default": default, "checks": checks, "key": key, "when": when,
            "null": null}


class _Record:
    """An immutable record of the fields its class annotates, in order; a
    class attribute is a field's default.  It has a frozen dataclass's
    ``__init__`` (which calls ``__post_init__``), ``__eq__``, ``__hash__``,
    ``__repr__`` and assignment guard, and ``replace`` does what
    ``dataclasses.replace`` does, but no class generates and compiles methods
    of its own, which every process that imports the schema would pay for."""

    _names: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}

    def __init_subclass__(cls) -> None:
        cls._names = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._names if name in vars(cls)}
        for name in cls._defaults:
            delattr(cls, name)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        # dict(**a, **b) refuses a field given both by position and by keyword
        values = {**self._defaults, **dict(**dict(zip(self._names, args)), **kwargs)}
        if len(args) > len(self._names) or values.keys() != set(self._names):
            raise TypeError(f"{type(self).__name__}() takes {', '.join(self._names)}; "
                            f"got {', '.join(values)}")
        vars(self).update((name, values[name]) for name in self._names)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Checks of a record's fields together, run whenever one is built."""

    def replace(self, **changes: Any):
        """A copy with ``changes`` made, built and checked like a new record."""
        return type(self)(**{**vars(self), **changes})

    def __eq__(self, other: Any) -> bool:
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in vars(self).items())})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Section(_Record):
    """A config section: its class attributes are its fields' declarations
    (``_field``), not defaults, and ``_fields`` lists (name, key, declaration)
    of each, for ``_parse`` and ``_dump``, which give every field a value."""

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple((name, m["key"] or name, m) for name, m in cls._defaults.items())
        cls._defaults = {}


def _active(when: tuple[str, Any] | None, values: dict) -> bool:
    return when is None or values[when[0]] == when[1]


def _parse(cls, obj: Any, where: str, kind: str):
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
            problem = check(value)
            if problem:
                raise ConfigValidationError(problem.format(f"{where}.{key}"))
    section = cls(**kw)
    if hasattr(section, "_check"):
        section._check(kind)
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


class CoeffSpec(_Record):
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


class GridConfig(_Section):
    horizon: float = _field(_number, 1.0, _POSITIVE)
    n0: int = _field(_integer, 512, _AT_LEAST_1)
    resolution_scale: float = _field(_number, 4.0, _POSITIVE)


class BookConfig(_Section):
    kappa: float | None = _field(_optional(_number), None)
    K: CoeffSpec = _field(_COEFF, 1.0, _ABOVE_0)
    h: CoeffSpec = _field(_COEFF, 1.0, _ABOVE_0)
    alpha: CoeffSpec = _field(_COEFF, 0.0, _UP_TO_HALF)
    eps: CoeffSpec = _field(_COEFF, 0.0, _within(0.0))
    K_dn: CoeffSpec | None = _field(_OPT_COEFF, None, _ABOVE_0, key="K_down")
    h_dn: CoeffSpec | None = _field(_OPT_COEFF, None, _ABOVE_0, key="h_down")
    alpha_dn: CoeffSpec | None = _field(_OPT_COEFF, None, _UP_TO_HALF, key="alpha_down")
    eps_dn: CoeffSpec | None = _field(_OPT_COEFF, None, _within(0.0), key="eps_down")

    def _check(self, kind: str) -> None:
        if kind != "simulate" and self.kappa is not None:
            raise ConfigParseError(
                "book.kappa is set by the ladder for experiment kinds; remove it")
        if kind == "simulate" and self.kappa is None:
            raise ConfigParseError("missing required key 'kappa' in book")
        if kind == "simulate" and self.kappa <= 0:
            raise ConfigValidationError("book.kappa must be positive")

    def params(self, grid: TimeGrid, kappa: float) -> BookParams:
        return BookParams.on_grid(grid, kappa, **{k: None if c is None else c.value()
                                                  for k, c in vars(self).items()
                                                  if k != "kappa"})


class FundamentalConfig(_Section):
    s0: float = _field(_number, 100.0)
    mu: CoeffSpec = _field(_COEFF, 0.0)
    sigma: CoeffSpec = _field(_COEFF, 0.0, _within(0.0))

    def _check(self, kind: str) -> None:
        if kind == "utility" and (self.sigma.fn != "const" or self.sigma.value() <= 0):
            raise ConfigValidationError("utility runs need a constant positive fundamental.sigma")
        if kind == "utility" and self.mu.fn != "const":
            raise ConfigValidationError("utility runs need a constant fundamental.mu")

    def spec(self) -> FundamentalSpec:
        return FundamentalSpec(self.s0, self.mu.value(), self.sigma.value())


class StrategyConfig(_Section):
    # a missing type reaches the parser as None, which refuses it
    type: str = _field(_one_of(("zero", "rate", "blocks", "tracker")), None)
    phi0: float = _field(_number, 0.0)
    rate: CoeffSpec | None = _field(_COEFF, _REQUIRED, when=("type", "rate"))
    # block_schedule checks the blocks and t_prime, in the run's set-up (cli)
    blocks: tuple[tuple[float, float], ...] | None = _field(
        _list(_block, "{} must be a nonempty list of [time, size]"), _REQUIRED,
        when=("type", "blocks"))
    t_prime: float | None = _field(_number, _REQUIRED, when=("type", "blocks"))
    target: CoeffSpec | None = _field(_COEFF, _REQUIRED, when=("type", "tracker"))
    rate_scale: CoeffSpec | None = _field(_COEFF, 1.0, _ABOVE_0, when=("type", "tracker"))
    start: float | None = _field(_optional(_number), None, when=("type", "tracker"),
                                 null=True)

    def _check(self, kind: str) -> None:
        permitted = KINDS[kind].strategies
        if self.type not in permitted:
            raise ConfigValidationError(f"strategy.type {self.type!r} is not allowed for kind "
                                        f"'{kind}' (allowed: {sorted(permitted)})")


class LadderConfig(_Section):
    values: tuple[float, ...] | None = _field(_optional(_KAPPAS), None, _INCREASING)
    start: float | None = _field(_number, 16.0, _POSITIVE, when=_GEOMETRIC)
    factor: float | None = _field(_number, 2.0, _is(lambda v: v > 1, "{} must exceed 1"),
                                  when=_GEOMETRIC)
    count: int | None = _field(_integer, 9, _AT_LEAST_1, when=_GEOMETRIC)

    def _check(self, kind: str) -> None:
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


class McConfig(_Section):
    paths: int = _field(_integer, 1, _AT_LEAST_1, _is(
        lambda v: v <= 1 << 32, "{} must be at most 2**32 (one stream id below 2**32 per path)"))
    seed: int = _field(_integer, 42)

    def __post_init__(self) -> None:
        # checked here so that a --seed override is refused like mc.seed
        if self.seed < 0:
            raise ConfigValidationError(f"mc.seed must be non-negative, got {self.seed}")


class SmoothingConfig(_Section):
    width_scale: float = _field(_number, 1.0, _POSITIVE)


class TrackerConfig(_Section):
    target_drift: CoeffSpec = _field(_COEFF, 0.0)
    target_vol: CoeffSpec = _field(_COEFF, 1.0)
    rate_scale: CoeffSpec = _field(_COEFF, 1.0, _ABOVE_0)
    coeff_bound: float = _field(_number, 1.0, _POSITIVE)
    rate_floor: float = _field(_number, 1.0, _POSITIVE)
    target0: float = _field(_number, 0.0)


class UtilityConfig(_Section):
    gamma: float = _field(_number, 1.0, _POSITIVE)
    multipliers: tuple[float, ...] = _field(
        _list(_number, "{} must be a list", nonempty=False),
        [0.5, 1.0, 2.0], _is(lambda cs: 1.0 in cs, "{} must include 1 (the candidate)"),
        _is(lambda cs: all(c > 0 for c in cs), "{} must be positive"))
    kappas: tuple[float, ...] = _field(_KAPPAS, [64.0, 256.0, 1024.0], _INCREASING)
    x0: float = _field(_number, 0.0)
    bootstrap: int = _field(_integer, 500, _is(lambda v: v >= 10, "{} must be at least 10"))


class BoundsConfig(_Section):
    rate_bound: float = _field(_number, _REQUIRED, _POSITIVE, key="rate")
    coefficient_bound: float = _field(_number, _REQUIRED, _POSITIVE, key="coefficient")
    resilience_floor: float = _field(_number, _REQUIRED, _POSITIVE)


_SECTIONS = {"book": BookConfig, "fundamental": FundamentalConfig, "strategy": StrategyConfig,
             "ladder": LadderConfig, "smoothing": SmoothingConfig, "tracker": TrackerConfig,
             "utility": UtilityConfig, "bounds": BoundsConfig}


class _Kind(NamedTuple):
    # section -> True (required), False (defaults when absent) or None (None
    # when absent); grid, mc and output are common to every kind
    sections: dict[str, bool | None]
    command: str  # the CLI command that runs the kind
    strategies: tuple[str, ...] = ()
    one_path: str | None = None  # why mc.paths (and a gap's fundamental) has no effect
    # a gap kind's rate grows like kappa**rate_growth; None for the other kinds
    rate_growth: float | None = None
    # whether a run draws Gaussian noise (and so loads scipy's ndtri); a kind
    # that takes mc.paths keeps one float64 result per path and cell (rung, or
    # (kappa, multiplier) pair) and shares its chunks of paths among one
    # process per CPU it may use, each drawing one chunk at a time
    # (experiments._spread), so ``validate``'s estimate is per process
    noise: Callable[[Any], bool] = lambda config: False


_LADDER_KIND = {"book": False, "fundamental": False, "strategy": True, "ladder": False}
_gap_kind = lambda name, rate_growth, sections=_LADDER_KIND: _Kind(
    sections, "converge", ("zero", "rate"), f"the {name} gap does not depend on the price path",
    rate_growth)
_NOISY_PRICE = lambda config: not config.fundamental.spec().is_deterministic
KINDS = {
    "simulate": _Kind({"book": True, "fundamental": False, "strategy": True}, "simulate",
                      ("zero", "rate", "blocks", "tracker"),
                      "simulate samples one price path (stream 0)", noise=_NOISY_PRICE),
    "theorem1": _gap_kind("theorem1", 0.0),
    "remark1": _gap_kind("remark1", 0.25),
    "l2": _gap_kind("l2", 0.0, {**_LADDER_KIND, "bounds": None}),
    "lemma-jump": _Kind({**_LADDER_KIND, "smoothing": False}, "converge", ("blocks",),
                        noise=_NOISY_PRICE),
    "tracker-bound": _Kind({"ladder": False, "tracker": False}, "converge",
                           noise=lambda config: True),
    "utility": _Kind({"book": False, "fundamental": True, "utility": False}, "utility",
                     noise=lambda config: True),
}


class RunConfig(_Record):
    """Fully validated run specification (every default filled in)."""

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

    def __post_init__(self) -> None:
        # checked here so that an --out override is refused like output.directory
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigParseError("output.directory must be a nonempty string")

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"kind": self.kind, "output": {"directory": self.output_dir}}
        if self.kind == "simulate":
            out["x0"] = self.x0
        for name in ("grid", "mc", *KINDS[self.kind].sections):
            if getattr(self, name) is not None:
                out[name] = _dump(getattr(self, name))
        return out

    def config_hash(self) -> str:
        """Hash of the run-defining content; the output location is excluded
        so identical runs into different directories stay byte-identical."""
        content = self.to_dict()
        content.pop("output", None)
        canonical = json.dumps(content, sort_keys=True, separators=(",", ":"))
        return sha256(canonical.encode()).hexdigest()

    def kappas(self) -> KappaLadder:
        """The kappas a run evaluates: its ladder, its utility kappas, or
        simulate's one book kappa."""
        if self.ladder is not None:
            return self.ladder.ladder()
        return KappaLadder(self.utility.kappas if self.utility is not None
                           else (self.book.kappa,))

    def time_grid(self) -> TimeGrid:
        """The run's one grid, fine enough for the largest kappa it evaluates
        (``ladder_grid``); refuses a grid too fine for a float step count."""
        g, kappa_max = self.grid, self.kappas().max
        scaled = g.resolution_scale * math.sqrt(kappa_max)
        if not math.isfinite(scaled) or g.n0 > sys.float_info.max:
            raise ConfigValidationError("grid steps max(grid.n0, grid.resolution_scale * "
                                        "sqrt(largest kappa)) must be finite")
        return ladder_grid(g.horizon, g.n0, g.resolution_scale, kappa_max)


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
    grid = _parse(GridConfig, d.pop("grid", {}), "grid", kind)
    mc = _parse(McConfig, d.pop("mc", {}), "mc", kind)
    out_raw = _as_mapping(d.pop("output", {}), "output")
    output_dir = out_raw.pop("directory", "out")
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
    sections = {name: _parse(_SECTIONS[name], obj, name, kind)
                for name, obj in raw_sections.items()}
    config = RunConfig(kind, grid, mc, output_dir, x0, **sections)
    config.time_grid()  # refuses a grid too fine for a float step count
    rungs = len(config.kappas())
    if KINDS[kind].rate_growth is not None and rungs < 3:
        raise ConfigValidationError(f"ladder must have at least 3 rungs for kind '{kind}' "
                                    f"(a rate fit needs 3 points), got {rungs}")
    return config


# Naive per-run cost proxy: steps * paths * ladder cells.  Runs above the
# budget still execute; validate() only warns.
DEFAULT_BUDGET = 2.0e8

# Peak RSS of an interpreter that has imported numpy and lobres.cli, before
# any run (30.5 MiB on Linux x86-64, Python 3.11, numpy 2.4; no run loads
# numpy.random or OpenSSL's libcrypto, see ``sha256`` above and
# paths.IndexStream), and what runs that draw noise add by loading scipy's
# ndtri without scipy.special's package init (4.4 MiB, scipy 1.17; see
# paths._ndtri).
INTERPRETER_BYTES = 31 * 2**20
SCIPY_BYTES = 9 * 2**19
# Bytes per grid point live at the peak of a one-path run, which an
# evaluation sets once its projections are built: the fundamental, the scan's
# three pre-jump and two integrated state paths and the six wealth and four
# spread paths, 16 float64 values as tracemalloc counts them, and one more of
# heap the allocator keeps from arrays freed before the peak (simulate's
# estimate is within 5% of its peak RSS between 40,000 and 253,000 steps).  A
# constant input is held as one value (paths.constant_path); each input that
# varies in time adds one path (``_varying_inputs``).
ONE_PATH_BYTES_PER_POINT = 8 * 17


def _varying_inputs(config: RunConfig) -> int:
    """The run's input paths that are functions of time, each a full float64
    path: book coefficients (a down side left out shares the up side's) and a
    strategy rate."""
    specs = [*vars(config.book).values()] if config.book is not None else []
    if config.strategy is not None:
        specs.append(config.strategy.rate)
    return sum(isinstance(c, CoeffSpec) and c.fn != "const" for c in specs)


def lane_bytes(lanes: int) -> int:
    """What stepping ``lanes`` lanes of paths._lanes adds, in normals_block or
    IndexStream: 14 uint64 values per lane (traced on 8,192 lanes: 874,949
    bytes for a (512, 1,024) normals block, 921,092 for bootstrap indices)."""
    return 8 * 14 * lanes


def validate_config(config: RunConfig) -> dict:
    """Dry-run report: schema is already enforced; estimate the run size."""
    steps = config.time_grid().steps
    cells = len(config.kappas()) * (len(config.utility.multipliers) if config.utility else 1)
    spec = KINDS[config.kind]
    paths = 1 if spec.one_path else config.mc.paths
    noise = spec.noise(config)
    chunk = min(paths, paths_per_chunk(steps))  # the paths of one noise block
    # float64 values (or int64 indices) of a Monte-Carlo kind: its per-path
    # results and one chunk of noise, and tracker-bound's positions, squared
    # errors and running maxima, one row per rung and chunk path each
    arrays = 0 if spec.one_path else cells * paths
    if noise and not spec.one_path:
        arrays += chunk * (steps + (3 * cells if config.kind == "tracker-bound" else 0))
    lanes = noise * lane_bytes(chunk * lane_width(chunk, steps))
    if config.utility is not None:
        # the resampled certainty equivalents, one kappa's gaps vs the
        # candidate, and one chunk of resample indices (int64) with the
        # samples they gather; the indices' lanes start after the last noise
        # chunk's lanes are freed
        boot = config.utility.bootstrap
        arrays += ((cells + len(config.utility.multipliers)) * boot
                   + 2 * min(boot, resamples_per_chunk(paths)) * paths)
        lanes = max(lanes, lane_bytes(LANES))
    cost_proxy = float(steps) * paths * cells
    # a tracker strategy's rate is a full path whatever its target
    tracker = config.strategy is not None and config.strategy.type == "tracker"
    # the price-path inputs a one-path kind ignores, named in one warning
    unused = [f"mc.paths = {config.mc.paths}"] if spec.one_path and config.mc.paths > 1 else []
    if spec.rate_growth is not None:
        default = _dump(_parse(FundamentalConfig, {}, "fundamental", config.kind))
        unused += [f"fundamental.{key} = {json.dumps(value)}"
                   for key, value in _dump(config.fundamental).items() if value != default[key]]
    warnings = [f"{', '.join(unused)} {'has' if len(unused) == 1 else 'have'} no effect: "
                f"{spec.one_path}"] if unused else []
    if spec.rate_growth is not None and config.strategy.phi0 != 0:
        warnings.append(f"strategy.phi0 = {config.strategy.phi0!r} has no effect: the "
                        f"{config.kind} gap does not depend on the initial position")
    if cost_proxy > DEFAULT_BUDGET:
        warnings.append(
            f"estimated cost {cost_proxy:.3g} (steps x paths x cells) exceeds "
            f"budget {DEFAULT_BUDGET:.3g}")
    return {
        "ok": True,
        "kind": config.kind,
        "estimates": {
            "grid_steps": steps,
            "cells": cells,
            "paths": config.mc.paths,
            "cost_proxy": cost_proxy,
            # peak RSS: the interpreter (and scipy and the lanes), one
            # path's inputs, scan and ledger, the Monte-Carlo arrays
            "approx_memory_bytes": (INTERPRETER_BYTES + noise * SCIPY_BYTES + lanes
                                    + (ONE_PATH_BYTES_PER_POINT
                                       + 8 * (_varying_inputs(config) + tracker))
                                    * (steps + 1) + 8 * arrays),
        },
        "warnings": warnings,
    }
