"""Run configuration: a strict JSON key/value schema with documented defaults.

Unknown keys are rejected with the offending key path; invariant violations
name the constraint.  Parsing then serializing then parsing again yields an
identical configuration, and the canonical serialization is hashed into run
summaries.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

from .book import BookTemplate
from .errors import ConfigParseError, ConfigValidationError
from .experiments import FundamentalSpec, KappaLadder, UniformBounds

KINDS = ("simulate", "theorem1", "remark1", "lemma-jump", "tracker-bound",
         "utility", "l2")

_MISSING = object()


def _as_mapping(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigParseError(f"{where} must be an object, got {type(obj).__name__}")
    return dict(obj)


def _reject_unknown(d: dict, where: str) -> None:
    if d:
        key = sorted(d)[0]
        raise ConfigParseError(f"unknown key '{key}' in {where}")


def _number(obj: Any, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigParseError(f"{where} must be a number, got {obj!r}")
    if not math.isfinite(obj):
        raise ConfigValidationError(f"{where} must be finite, got {obj!r}")
    return float(obj)


def _integer(obj: Any, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigParseError(f"{where} must be an integer, got {obj!r}")
    return obj


@dataclass(frozen=True)
class CoeffSpec:
    """Constant or named function of time: const, linear, sin, or cos."""

    fn: str
    params: tuple[tuple[str, float], ...]

    _SCHEMAS = {
        "const": {"value": None},
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
        fn = d.pop("fn", None)
        if fn not in cls._SCHEMAS:
            raise ConfigParseError(
                f"{where}.fn must be one of {sorted(cls._SCHEMAS)}, got {fn!r}")
        schema = cls._SCHEMAS[fn]
        params = []
        for key, default in schema.items():
            raw = d.pop(key, _MISSING)
            if raw is _MISSING:
                if default is None:
                    raise ConfigParseError(f"{where}.{key} is required for fn={fn!r}")
                raw = default
            params.append((key, _number(raw, f"{where}.{key}")))
        _reject_unknown(d, where)
        return cls(fn, tuple(params))

    def to_json(self) -> Any:
        d = dict(self.params)
        if self.fn == "const":
            return d["value"]
        return {"fn": self.fn, **d}

    @property
    def is_constant(self) -> bool:
        return self.fn == "const"

    @property
    def constant_value(self) -> float:
        if not self.is_constant:
            raise ValueError("coefficient is not constant")
        return dict(self.params)["value"]

    def value(self) -> float | Callable[[float], float]:
        p = dict(self.params)
        if self.fn == "const":
            return p["value"]
        if self.fn == "linear":
            return lambda t, a=p["intercept"], b=p["slope"]: a + b * t
        if self.fn == "sin":
            return (lambda t, a=p["amplitude"], f=p["frequency"], c=p["offset"]:
                    c + a * math.sin(2.0 * math.pi * f * t))
        return (lambda t, a=p["amplitude"], f=p["frequency"], c=p["offset"]:
                c + a * math.cos(2.0 * math.pi * f * t))

    def check_range(self, name: str, lo: float, hi: float, horizon: float,
                    lo_strict: bool = False) -> None:
        """Validate the coefficient range (functions probed on a fine grid)."""
        if self.is_constant:
            values = [self.constant_value]
        else:
            f = self.value()
            values = [f(j * horizon / 256.0) for j in range(257)]
        for v in values:
            if v < lo or v > hi or (lo_strict and v == lo):
                bracket = f"({lo}, {hi}]" if lo_strict else f"[{lo}, {hi}]"
                raise ConfigValidationError(f"{name} must lie in {bracket}, got {v}")


@dataclass(frozen=True)
class GridConfig:
    horizon: float = 1.0
    n0: int = 512
    resolution_scale: float = 4.0

    @classmethod
    def parse(cls, obj: Any) -> "GridConfig":
        d = _as_mapping(obj, "grid")
        horizon = _number(d.pop("horizon", 1.0), "grid.horizon")
        n0 = _integer(d.pop("n0", 512), "grid.n0")
        scale = _number(d.pop("resolution_scale", 4.0), "grid.resolution_scale")
        _reject_unknown(d, "grid")
        if horizon <= 0:
            raise ConfigValidationError("grid.horizon must be positive")
        if n0 < 1:
            raise ConfigValidationError("grid.n0 must be at least 1")
        if scale <= 0:
            raise ConfigValidationError("grid.resolution_scale must be positive")
        return cls(horizon, n0, scale)

    def to_json(self) -> dict:
        return {"horizon": self.horizon, "n0": self.n0,
                "resolution_scale": self.resolution_scale}


@dataclass(frozen=True)
class BookConfig:
    kappa: float | None
    K: CoeffSpec
    h: CoeffSpec
    alpha: CoeffSpec
    eps: CoeffSpec
    K_dn: CoeffSpec | None = None
    h_dn: CoeffSpec | None = None
    alpha_dn: CoeffSpec | None = None
    eps_dn: CoeffSpec | None = None

    @classmethod
    def parse(cls, obj: Any, horizon: float, needs_kappa: bool) -> "BookConfig":
        d = _as_mapping(obj, "book")
        kappa = None
        if needs_kappa:
            kappa = _number(d.pop("kappa", _require(d, "kappa", "book")), "book.kappa")
            if kappa <= 0:
                raise ConfigValidationError("book.kappa must be positive")
        elif "kappa" in d:
            raise ConfigParseError(
                "book.kappa is set by the ladder for experiment kinds; remove it")

        def coeff(key: str, default: float | None) -> CoeffSpec | None:
            raw = d.pop(key, _MISSING)
            if raw is _MISSING:
                if default is None:
                    return None
                return CoeffSpec("const", (("value", default),))
            return CoeffSpec.parse(raw, f"book.{key}")

        spec = cls(
            kappa=kappa,
            K=coeff("K", 1.0), h=coeff("h", 1.0),
            alpha=coeff("alpha", 0.0), eps=coeff("eps", 0.0),
            K_dn=coeff("K_down", None), h_dn=coeff("h_down", None),
            alpha_dn=coeff("alpha_down", None), eps_dn=coeff("eps_down", None),
        )
        _reject_unknown(d, "book")
        inf = math.inf
        for name, c, lo, hi, strict in (
                ("book.K", spec.K, 0.0, inf, True), ("book.K_down", spec.K_dn, 0.0, inf, True),
                ("book.h", spec.h, 0.0, inf, True), ("book.h_down", spec.h_dn, 0.0, inf, True),
                ("book.alpha", spec.alpha, 0.0, 0.5, False),
                ("book.alpha_down", spec.alpha_dn, 0.0, 0.5, False),
                ("book.eps", spec.eps, 0.0, inf, False),
                ("book.eps_down", spec.eps_dn, 0.0, inf, False)):
            if c is not None:
                c.check_range(name, lo, hi, horizon, lo_strict=strict)
        return spec

    def to_json(self) -> dict:
        out: dict[str, Any] = {}
        if self.kappa is not None:
            out["kappa"] = self.kappa
        out.update(K=self.K.to_json(), h=self.h.to_json(),
                   alpha=self.alpha.to_json(), eps=self.eps.to_json())
        for key, c in (("K_down", self.K_dn), ("h_down", self.h_dn),
                       ("alpha_down", self.alpha_dn), ("eps_down", self.eps_dn)):
            if c is not None:
                out[key] = c.to_json()
        return out

    def template(self) -> BookTemplate:
        def val(c: CoeffSpec | None):
            return None if c is None else c.value()

        return BookTemplate(K=self.K.value(), h=self.h.value(),
                            alpha=self.alpha.value(), eps=self.eps.value(),
                            K_dn=val(self.K_dn), h_dn=val(self.h_dn),
                            alpha_dn=val(self.alpha_dn), eps_dn=val(self.eps_dn))


def _require(d: dict, key: str, where: str) -> Any:
    if key not in d:
        raise ConfigParseError(f"missing required key '{key}' in {where}")
    return d[key]


@dataclass(frozen=True)
class FundamentalConfig:
    s0: float = 100.0
    mu: CoeffSpec = CoeffSpec("const", (("value", 0.0),))
    sigma: CoeffSpec = CoeffSpec("const", (("value", 0.0),))

    @classmethod
    def parse(cls, obj: Any, horizon: float) -> "FundamentalConfig":
        d = _as_mapping(obj, "fundamental")
        s0 = _number(d.pop("s0", 100.0), "fundamental.s0")
        mu = CoeffSpec.parse(d.pop("mu", 0.0), "fundamental.mu")
        sigma = CoeffSpec.parse(d.pop("sigma", 0.0), "fundamental.sigma")
        _reject_unknown(d, "fundamental")
        sigma.check_range("fundamental.sigma", 0.0, math.inf, horizon)
        return cls(s0, mu, sigma)

    def to_json(self) -> dict:
        return {"s0": self.s0, "mu": self.mu.to_json(), "sigma": self.sigma.to_json()}

    def spec(self) -> FundamentalSpec:
        return FundamentalSpec(self.s0, self.mu.value(), self.sigma.value())


@dataclass(frozen=True)
class StrategyConfig:
    type: str
    rate: CoeffSpec | None = None
    phi0: float = 0.0
    blocks: tuple[tuple[float, float], ...] = ()
    t_prime: float | None = None
    target: CoeffSpec | None = None
    rate_scale: CoeffSpec | None = None
    start: float | None = None

    @classmethod
    def parse(cls, obj: Any, horizon: float) -> "StrategyConfig":
        d = _as_mapping(obj, "strategy")
        stype = d.pop("type", None)
        if stype not in ("zero", "rate", "blocks", "tracker"):
            raise ConfigParseError(
                f"strategy.type must be one of ['blocks', 'rate', 'tracker', 'zero'], got {stype!r}")
        phi0 = _number(d.pop("phi0", 0.0), "strategy.phi0")
        rate = blocks = t_prime = target = rate_scale = start = None
        if stype == "rate":
            rate = CoeffSpec.parse(_require(d, "rate", "strategy"), "strategy.rate")
            d.pop("rate")
        elif stype == "blocks":
            raw = _require(d, "blocks", "strategy")
            d.pop("blocks")
            if not isinstance(raw, list) or not raw:
                raise ConfigParseError("strategy.blocks must be a nonempty list of [time, size]")
            parsed = []
            for j, item in enumerate(raw):
                if not (isinstance(item, list) and len(item) == 2):
                    raise ConfigParseError(f"strategy.blocks[{j}] must be [time, size]")
                parsed.append((_number(item[0], f"strategy.blocks[{j}][0]"),
                               _number(item[1], f"strategy.blocks[{j}][1]")))
            blocks = tuple(parsed)
            t_prime = _number(_require(d, "t_prime", "strategy"), "strategy.t_prime")
            d.pop("t_prime")
            if not 0 < t_prime < horizon:
                raise ConfigValidationError(
                    "strategy.t_prime must lie strictly between 0 and grid.horizon")
            times = [t for t, _ in blocks]
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ConfigValidationError("strategy block times must be strictly increasing")
            if any(t < 0 or t > t_prime for t in times):
                raise ConfigValidationError("strategy block times must lie in [0, t_prime]")
            if any(s == 0 for _, s in blocks):
                raise ConfigValidationError("strategy block sizes must be nonzero")
        elif stype == "tracker":
            target = CoeffSpec.parse(_require(d, "target", "strategy"), "strategy.target")
            d.pop("target")
            rate_scale = CoeffSpec.parse(d.pop("rate_scale", 1.0), "strategy.rate_scale")
            raw_start = d.pop("start", None)
            start = None if raw_start is None else _number(raw_start, "strategy.start")
            rate_scale.check_range("strategy.rate_scale", 0.0, math.inf, horizon,
                                   lo_strict=True)
        _reject_unknown(d, "strategy")
        return cls(stype, rate, phi0, blocks or (), t_prime, target, rate_scale, start)

    def to_json(self) -> dict:
        out: dict[str, Any] = {"type": self.type, "phi0": self.phi0}
        if self.type == "rate":
            out["rate"] = self.rate.to_json()
        elif self.type == "blocks":
            out["blocks"] = [[t, s] for t, s in self.blocks]
            out["t_prime"] = self.t_prime
        elif self.type == "tracker":
            out["target"] = self.target.to_json()
            out["rate_scale"] = self.rate_scale.to_json()
            out["start"] = self.start
        return out


@dataclass(frozen=True)
class LadderConfig:
    values: tuple[float, ...] | None = None
    start: float = 16.0
    factor: float = 2.0
    count: int = 9

    @classmethod
    def parse(cls, obj: Any) -> "LadderConfig":
        d = _as_mapping(obj, "ladder")
        if "values" in d:
            raw = d.pop("values")
            if not isinstance(raw, list) or len(raw) < 1:
                raise ConfigParseError("ladder.values must be a nonempty list")
            values = tuple(_number(v, f"ladder.values[{j}]") for j, v in enumerate(raw))
            _reject_unknown(d, "ladder")
            if any(v <= 0 for v in values) or any(b <= a for a, b in zip(values, values[1:])):
                raise ConfigValidationError(
                    "ladder.values must be positive and strictly increasing")
            return cls(values=values)
        start = _number(d.pop("start", 16.0), "ladder.start")
        factor = _number(d.pop("factor", 2.0), "ladder.factor")
        count = _integer(d.pop("count", 9), "ladder.count")
        _reject_unknown(d, "ladder")
        if start <= 0:
            raise ConfigValidationError("ladder.start must be positive")
        if factor <= 1:
            raise ConfigValidationError("ladder.factor must exceed 1")
        if count < 1:
            raise ConfigValidationError("ladder.count must be at least 1")
        return cls(start=start, factor=factor, count=count)

    def to_json(self) -> dict:
        if self.values is not None:
            return {"values": list(self.values)}
        return {"start": self.start, "factor": self.factor, "count": self.count}

    def ladder(self) -> KappaLadder:
        if self.values is not None:
            return KappaLadder(self.values)
        return KappaLadder.geometric(self.start, self.factor, self.count)


@dataclass(frozen=True)
class McConfig:
    paths: int = 1
    seed: int = 42

    def __post_init__(self) -> None:
        # checked here so that a --seed override is refused like mc.seed
        if self.seed < 0:
            raise ConfigValidationError(f"mc.seed must be non-negative, got {self.seed}")

    @classmethod
    def parse(cls, obj: Any) -> "McConfig":
        d = _as_mapping(obj, "mc")
        paths = _integer(d.pop("paths", 1), "mc.paths")
        seed = _integer(d.pop("seed", 42), "mc.seed")
        _reject_unknown(d, "mc")
        if paths < 1:
            raise ConfigValidationError("mc.paths must be at least 1")
        if paths > 1 << 32:
            raise ConfigValidationError("mc.paths must be at most 2**32 (one stream id "
                                        "below 2**32 per path)")
        return cls(paths, seed)

    def to_json(self) -> dict:
        return {"paths": self.paths, "seed": self.seed}


@dataclass(frozen=True)
class SmoothingConfig:
    width_scale: float = 1.0

    @classmethod
    def parse(cls, obj: Any) -> "SmoothingConfig":
        d = _as_mapping(obj, "smoothing")
        w = _number(d.pop("width_scale", 1.0), "smoothing.width_scale")
        _reject_unknown(d, "smoothing")
        if w <= 0:
            raise ConfigValidationError("smoothing.width_scale must be positive")
        return cls(w)

    def to_json(self) -> dict:
        return {"width_scale": self.width_scale}


@dataclass(frozen=True)
class TrackerConfig:
    target_drift: CoeffSpec = CoeffSpec("const", (("value", 0.0),))
    target_vol: CoeffSpec = CoeffSpec("const", (("value", 1.0),))
    rate_scale: CoeffSpec = CoeffSpec("const", (("value", 1.0),))
    coeff_bound: float = 1.0
    rate_floor: float = 1.0
    target0: float = 0.0

    @classmethod
    def parse(cls, obj: Any, horizon: float) -> "TrackerConfig":
        d = _as_mapping(obj, "tracker")
        drift = CoeffSpec.parse(d.pop("target_drift", 0.0), "tracker.target_drift")
        vol = CoeffSpec.parse(d.pop("target_vol", 1.0), "tracker.target_vol")
        scale = CoeffSpec.parse(d.pop("rate_scale", 1.0), "tracker.rate_scale")
        cbound = _number(d.pop("coeff_bound", 1.0), "tracker.coeff_bound")
        floor = _number(d.pop("rate_floor", 1.0), "tracker.rate_floor")
        target0 = _number(d.pop("target0", 0.0), "tracker.target0")
        _reject_unknown(d, "tracker")
        if cbound <= 0 or floor <= 0:
            raise ConfigValidationError(
                "tracker.coeff_bound and tracker.rate_floor must be positive")
        scale.check_range("tracker.rate_scale", 0.0, math.inf, horizon, lo_strict=True)
        return cls(drift, vol, scale, cbound, floor, target0)

    def to_json(self) -> dict:
        return {"target_drift": self.target_drift.to_json(),
                "target_vol": self.target_vol.to_json(),
                "rate_scale": self.rate_scale.to_json(),
                "coeff_bound": self.coeff_bound, "rate_floor": self.rate_floor,
                "target0": self.target0}


@dataclass(frozen=True)
class UtilityConfig:
    gamma: float = 1.0
    multipliers: tuple[float, ...] = (0.5, 1.0, 2.0)
    kappas: tuple[float, ...] = (64.0, 256.0, 1024.0)
    x0: float = 0.0
    bootstrap: int = 500

    @classmethod
    def parse(cls, obj: Any) -> "UtilityConfig":
        d = _as_mapping(obj, "utility")
        gamma = _number(d.pop("gamma", 1.0), "utility.gamma")
        raw_m = d.pop("multipliers", [0.5, 1.0, 2.0])
        raw_k = d.pop("kappas", [64.0, 256.0, 1024.0])
        x0 = _number(d.pop("x0", 0.0), "utility.x0")
        bootstrap = _integer(d.pop("bootstrap", 500), "utility.bootstrap")
        _reject_unknown(d, "utility")
        if not isinstance(raw_m, list) or not isinstance(raw_k, list):
            raise ConfigParseError("utility.multipliers and utility.kappas must be lists")
        mult = tuple(_number(v, f"utility.multipliers[{j}]") for j, v in enumerate(raw_m))
        kappas = tuple(_number(v, f"utility.kappas[{j}]") for j, v in enumerate(raw_k))
        if gamma <= 0:
            raise ConfigValidationError("utility.gamma must be positive")
        if 1.0 not in mult:
            raise ConfigValidationError("utility.multipliers must include 1 (the candidate)")
        if any(c <= 0 for c in mult):
            raise ConfigValidationError("utility.multipliers must be positive")
        if any(k <= 0 for k in kappas) or any(b <= a for a, b in zip(kappas, kappas[1:])):
            raise ConfigValidationError(
                "utility.kappas must be positive and strictly increasing")
        if bootstrap < 10:
            raise ConfigValidationError("utility.bootstrap must be at least 10")
        return cls(gamma, mult, kappas, x0, bootstrap)

    def to_json(self) -> dict:
        return {"gamma": self.gamma, "multipliers": list(self.multipliers),
                "kappas": list(self.kappas), "x0": self.x0,
                "bootstrap": self.bootstrap}


@dataclass(frozen=True)
class BoundsConfig:
    rate_bound: float
    coefficient_bound: float
    resilience_floor: float

    @classmethod
    def parse(cls, obj: Any) -> "BoundsConfig":
        d = _as_mapping(obj, "bounds")
        rb = _number(d.pop("rate", _require(d, "rate", "bounds")), "bounds.rate")
        cb = _number(d.pop("coefficient", _require(d, "coefficient", "bounds")),
                     "bounds.coefficient")
        rf = _number(d.pop("resilience_floor", _require(d, "resilience_floor", "bounds")),
                     "bounds.resilience_floor")
        _reject_unknown(d, "bounds")
        if rb <= 0 or cb <= 0 or rf <= 0:
            raise ConfigValidationError("bounds entries must be positive")
        return cls(rb, cb, rf)

    def to_json(self) -> dict:
        return {"rate": self.rate_bound, "coefficient": self.coefficient_bound,
                "resilience_floor": self.resilience_floor}

    def bounds(self) -> UniformBounds:
        return UniformBounds(self.rate_bound, self.coefficient_bound,
                             self.resilience_floor)


# Sections every kind accepts beyond the common ones.
_KIND_SECTIONS: dict[str, dict[str, bool]] = {
    # section -> required?
    "simulate": {"book": True, "fundamental": False, "strategy": True},
    "theorem1": {"book": False, "fundamental": False, "strategy": True, "ladder": False},
    "remark1": {"book": False, "fundamental": False, "strategy": True, "ladder": False},
    "l2": {"book": False, "fundamental": False, "strategy": True, "ladder": False,
           "bounds": False},
    "lemma-jump": {"book": False, "fundamental": False, "strategy": True,
                   "ladder": False, "smoothing": False},
    "tracker-bound": {"ladder": False, "tracker": False},
    "utility": {"book": False, "fundamental": True, "utility": False},
}

_STRATEGY_TYPES_BY_KIND = {
    "simulate": ("zero", "rate", "blocks", "tracker"),
    "theorem1": ("zero", "rate"),
    "remark1": ("zero", "rate"),
    "l2": ("zero", "rate"),
    "lemma-jump": ("blocks",),
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
        out: dict[str, Any] = {
            "kind": self.kind,
            "grid": self.grid.to_json(),
            "mc": self.mc.to_json(),
            "output": {"directory": self.output_dir},
        }
        if self.kind == "simulate":
            out["x0"] = self.x0
        for key, section in (("book", self.book), ("fundamental", self.fundamental),
                             ("strategy", self.strategy), ("ladder", self.ladder),
                             ("smoothing", self.smoothing), ("tracker", self.tracker),
                             ("utility", self.utility), ("bounds", self.bounds)):
            if section is not None:
                out[key] = section.to_json()
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

    def with_overrides(self, seed: int | None = None,
                       output_dir: str | None = None) -> "RunConfig":
        mc = self.mc if seed is None else McConfig(self.mc.paths, seed)
        out = self.output_dir if output_dir is None else output_dir
        return RunConfig(self.kind, self.grid, mc, out, self.x0, self.book,
                         self.fundamental, self.strategy, self.ladder,
                         self.smoothing, self.tracker, self.utility, self.bounds)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"parse error at line {exc.lineno}: {exc.msg}") from exc
    d = _as_mapping(raw, "config")

    kind = d.pop("kind", None)
    if kind not in KINDS:
        raise ConfigParseError(f"kind must be one of {sorted(KINDS)}, got {kind!r}")
    grid = GridConfig.parse(d.pop("grid", {}))
    mc = McConfig.parse(d.pop("mc", {}))
    out_raw = _as_mapping(d.pop("output", {}), "output")
    output_dir = out_raw.pop("directory", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigParseError("output.directory must be a nonempty string")
    _reject_unknown(out_raw, "output")
    x0 = 0.0
    if kind == "simulate":
        x0 = _number(d.pop("x0", 0.0), "x0")

    allowed = _KIND_SECTIONS[kind]
    sections: dict[str, Any] = {}
    for name, required in allowed.items():
        if name in d:
            sections[name] = d.pop(name)
        elif required:
            raise ConfigParseError(f"missing required section '{name}' for kind '{kind}'")
    _reject_unknown(d, "config")

    book = fundamental = strategy = ladder = smoothing = tracker = utility = bounds = None
    if "book" in allowed:
        book = BookConfig.parse(sections.get("book", {}), grid.horizon,
                                needs_kappa=(kind == "simulate"))
    if "fundamental" in allowed:
        fundamental = FundamentalConfig.parse(sections.get("fundamental", {}), grid.horizon)
    if "strategy" in allowed:
        strategy = StrategyConfig.parse(sections["strategy"], grid.horizon)
        permitted = _STRATEGY_TYPES_BY_KIND[kind]
        if strategy.type not in permitted:
            raise ConfigValidationError(
                f"strategy.type {strategy.type!r} is not allowed for kind '{kind}' "
                f"(allowed: {sorted(permitted)})")
    if "ladder" in allowed:
        ladder = LadderConfig.parse(sections.get("ladder", {}))
    if "smoothing" in allowed:
        smoothing = SmoothingConfig.parse(sections.get("smoothing", {}))
    if "tracker" in allowed:
        tracker = TrackerConfig.parse(sections.get("tracker", {}), grid.horizon)
    if "utility" in allowed:
        utility = UtilityConfig.parse(sections.get("utility", {}))
        if fundamental is not None:
            if not fundamental.sigma.is_constant or fundamental.sigma.constant_value <= 0:
                raise ConfigValidationError(
                    "utility runs need a constant positive fundamental.sigma")
            if not fundamental.mu.is_constant:
                raise ConfigValidationError("utility runs need a constant fundamental.mu")
    if "bounds" in allowed and "bounds" in sections:
        bounds = BoundsConfig.parse(sections["bounds"])

    return RunConfig(kind, grid, mc, output_dir, x0, book, fundamental, strategy,
                     ladder, smoothing, tracker, utility, bounds)


# Naive per-run cost proxy: steps * paths * ladder cells.  Runs above the
# budget still execute; validate() only warns.
DEFAULT_BUDGET = 2.0e8

# Kinds that evaluate one path whatever mc.paths says, and why: the
# structural-minus-reduced-form gap does not depend on the price path, and
# simulate samples stream 0 only.
_ONE_PATH_KINDS = {
    "theorem1": "the theorem1 gap does not depend on the price path",
    "remark1": "the remark1 gap does not depend on the price path",
    "l2": "the l2 gap does not depend on the price path",
    "simulate": "simulate samples one price path (stream 0)",
}


# Peak RSS of an interpreter that has imported numpy and lobres.cli, before
# any run (34.6 MiB on Linux x86-64, Python 3.11, numpy 2.4).  Runs that draw
# noise also load scipy.special (about 19 MiB more), which is left out.
INTERPRETER_BYTES = 35 * 2**20
# Bytes per grid point live at the peak of a one-path run: the book
# coefficients, the scan's per-step terms and states, the ledger and the wealth
# and spread paths, about 45 float64 values (simulate's peak RSS grows by 363
# bytes per step between 40,000 and 253,000 steps).
ONE_PATH_BYTES_PER_POINT = 8 * 45


def _approx_memory_bytes(config: RunConfig, steps: int, paths: int) -> int:
    """Peak RSS estimate: the interpreter, one path's scan and ledger, and the
    per-path arrays: the time-major (steps, paths) noise buffer; for
    tracker-bound the targets and the positions instead; for utility also the
    bootstrap x paths resample indices (drawn after the noise is freed, so the
    sum bounds both)."""
    total = INTERPRETER_BYTES + ONE_PATH_BYTES_PER_POINT * (steps + 1)
    if config.kind == "tracker-bound":
        return total + 8 * 2 * (steps + 1) * paths
    if config.kind == "lemma-jump":
        return total + 8 * steps * paths
    if config.kind == "utility":
        return total + 8 * steps * paths + 8 * config.utility.bootstrap * paths
    return total


def validate_config(config: RunConfig, budget: float = DEFAULT_BUDGET) -> dict:
    """Dry-run report: schema is already enforced; estimate the run size."""
    import math as _math

    if config.ladder is not None:
        cells = len(config.ladder.ladder())
        kappa_max = config.ladder.ladder().max
    elif config.utility is not None:
        cells = len(config.utility.kappas) * len(config.utility.multipliers)
        kappa_max = max(config.utility.kappas)
    else:
        cells = 1
        kappa_max = config.book.kappa if (config.book and config.book.kappa) else 1.0
    steps = max(config.grid.n0,
                _math.ceil(config.grid.resolution_scale * _math.sqrt(kappa_max)))
    one_path = config.kind in _ONE_PATH_KINDS
    paths = 1 if one_path else config.mc.paths
    cost_proxy = float(steps) * paths * cells
    warnings = []
    if one_path and config.mc.paths > 1:
        warnings.append(f"mc.paths = {config.mc.paths} has no effect: "
                        f"{_ONE_PATH_KINDS[config.kind]}")
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
            "approx_memory_bytes": _approx_memory_bytes(config, steps, paths),
        },
        "warnings": warnings,
    }
