"""Scenario files: JSON schema, pointer-carrying validation, input builders.

A scenario is one JSON object shared by every subcommand; each driver reads
the sections it needs.  SCENARIO_SCHEMA is the shipped scenarios/schema.json,
parsed at import; that file is the only copy of the schema.
``validate_scenario`` checks a scenario against it and adds the
custom-model rules the schema cannot state.  The check is a small
interpreter of the JSON Schema (draft 2020-12) keywords that file uses
(``_KEYWORDS``: ``$defs``, local ``$ref``, ``type``, ``enum``,
``properties``, ``required``, ``additionalProperties``, ``items``,
``contains``, ``anyOf``, ``minimum``, ``exclusiveMinimum``, ``minItems``,
``maxItems``, ``minLength``); a schema that uses any other keyword raises
NotImplementedError instead of having it skipped.  A rejection names one
field: the shallowest value that fails, a missing or stray key at that
key, and inside ``anyOf`` the deepest miss of any branch.

The builders (``build_model``, ``build_kernels`` and, one per subcommand,
``build_fb_config``, ``build_cauchy_config`` and ``build_speeds``) read
each field and apply to it the rule the library defines for it: the model
and its positive equilibrium, the kernel count, the mesh and window
checks, the expansion rates.  A rule that lives only in a constructor
raises an exception that names its argument (``InvalidParameter``,
``InvalidLevel``, ``WindowCapTooSmall``).  This is the only module that
ties a rule to a scenario field: every rejection raises ConfigError with
the JSON pointer of the field it read, and no pointer is taken from an
error's text.
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .cauchy import CauchyConfig, InvalidLevel, WindowCapTooSmall
from .freeboundary import FBConfig, Thresholds, _component_kernels, _component_mu, _wedges
from .kernels import kernel_from_json
from .nonlocal_ops import check_mesh
from .reactions import (InvalidParameter, NonConvergence, ReactionError, model_from_json,
                        positive_equilibrium)
from .semiwave import check_window


class ConfigError(ValueError):
    """Scenario rejected; `pointer` locates the offending field."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


def scenario_dir() -> Path:
    """Directory holding the bundled scenario presets."""
    return Path(__file__).resolve().parent / "scenarios"


SCENARIO_SCHEMA = json.loads((scenario_dir() / "schema.json").read_text(encoding="utf-8"))

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool}

# keyword -> (the JSON type it constrains, its failure test, its message)
_BOUNDS = {
    "minimum": ("number", lambda v, a: v < a, "{v!r} is less than the minimum of {a!r}"),
    "exclusiveMinimum": ("number", lambda v, a: v <= a,
                         "{v!r} is less than or equal to the minimum of {a!r}"),
    "minItems": ("array", lambda v, a: len(v) < a, "{v!r} has fewer than {a} items"),
    "maxItems": ("array", lambda v, a: len(v) > a, "{v!r} has more than {a} items"),
    "minLength": ("string", lambda v, a: len(v) < a, "{v!r} is shorter than {a} characters"),
}

# every keyword the validator implements; any other raises NotImplementedError
_KEYWORDS = frozenset({"$schema", "$defs", "$ref", "type", "enum", "anyOf", "contains",
                      "items", "properties", "required", "additionalProperties", *_BOUNDS})


def _is(value, kind: str) -> bool:
    """JSON Schema's type test: a boolean is no number, and 1.0 is an integer."""
    if kind in _TYPES:
        return isinstance(value, _TYPES[kind])
    if isinstance(value, bool):
        return False
    if kind == "integer":
        return isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if kind == "number":
        return isinstance(value, numbers.Number)
    raise NotImplementedError(f"schema type {kind!r}")


class _Miss(NamedTuple):
    """One keyword a value fails, at the path of that value."""

    path: tuple
    keyword: str
    message: str
    fits: bool              # the value has the type its schema names
    key: str | None = None  # the missing or stray key of an object
    branches: tuple = ()    # anyOf: the misses of every branch

    @property
    def pointer(self) -> str:
        parts = self.path if self.key is None else (*self.path, self.key)
        return "/" + "/".join(str(p) for p in parts)


def _misses(schema: dict, value, path: tuple = (), root: dict | None = None):
    """Yield a _Miss for each keyword of ``schema`` that ``value`` fails.

    Keywords are read in the schema's order, and a subschema's misses come
    at the keyword that applies it.  ``$ref`` names a part of ``root``
    (default: ``schema``) by a local pointer such as ``#/$defs/kernel``.
    """
    root = schema if root is None else root
    fits = "type" in schema and _is(value, schema["type"])

    def miss(keyword, message, key=None, branches=()):
        return _Miss(path, keyword, message, fits, key, branches)

    for kw, arg in schema.items():
        if kw not in _KEYWORDS:
            raise NotImplementedError(f"schema keyword {kw!r} is not implemented")
        if kw in _BOUNDS:
            kind, fails, text = _BOUNDS[kw]
            if _is(value, kind) and fails(value, arg):
                yield miss(kw, text.format(v=value, a=arg))
        elif kw == "$ref":
            if not arg.startswith("#/"):
                raise NotImplementedError(f"schema reference {arg!r}")
            target = root
            for part in arg[2:].split("/"):
                target = target[part]
            yield from _misses(target, value, path, root)
        elif kw == "type" and not fits:
            yield miss(kw, f"{value!r} is not of type {arg!r}")
        elif kw == "enum" and value not in arg:
            yield miss(kw, f"{value!r} is not one of {arg!r}")
        elif kw == "anyOf":
            branches = []
            for sub in arg:
                found = list(_misses(sub, value, path, root))
                if not found:
                    break
                branches += found
            else:
                yield miss(kw, f"{value!r} is not valid under any of the given schemas",
                           branches=tuple(branches))
        elif kw == "contains" and isinstance(value, list):
            if all(next(_misses(arg, item, path, root), None) for item in value):
                yield miss(kw, f"{value!r} does not contain items matching the given schema")
        elif kw == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                yield from _misses(arg, item, (*path, i), root)
        elif kw == "properties" and isinstance(value, dict):
            for name, sub in arg.items():
                if name in value:
                    yield from _misses(sub, value[name], (*path, name), root)
        elif kw == "required" and isinstance(value, dict):
            for name in arg:
                if name not in value:
                    yield miss(kw, f"{name!r} is a required property", name)
        elif kw == "additionalProperties" and isinstance(value, dict):
            extra = [name for name in value if name not in schema.get("properties", {})]
            if arg is False and extra:
                names = ", ".join(repr(name) for name in sorted(extra))
                verb = "was" if len(extra) == 1 else "were"
                yield miss(kw, f"Additional properties are not allowed ({names} {verb} "
                               "unexpected)", min(extra))
            elif isinstance(arg, dict):
                for name in extra:
                    yield from _misses(arg, value[name], (*path, name), root)


def _relevance(miss: _Miss) -> tuple:
    """Sort key, most relevant greatest: the shallower miss, then the later
    sibling, then a keyword other than anyOf, then a value of the wrong type."""
    return (-len(miss.path), miss.path, miss.keyword != "anyOf", not miss.fits)


def _reported(misses) -> _Miss:
    """The miss a ConfigError names: the shallowest; inside anyOf, the deepest branch miss.

    This is the choice jsonschema's ``best_match`` makes, so pointers do not
    depend on which validator produced them.  When the two deepest branch
    misses rank alike, the anyOf miss itself is reported.
    """
    best = max(misses, key=_relevance)
    while best.branches:
        first, *rest = sorted(best.branches, key=_relevance)
        if rest and _relevance(rest[0]) == _relevance(first):
            break
        best = first
    return best


def validate_scenario(obj) -> None:
    """Structural pass, then the custom-model rules the schema cannot state."""
    misses = list(_misses(SCENARIO_SCHEMA, obj))
    if misses:
        miss = _reported(misses)
        raise ConfigError(miss.pointer, miss.message)
    model = obj.get("model", {})
    if model.get("model") == "custom":
        exprs = model.get("f")
        if not exprs:
            raise ConfigError("/model/f", "custom model needs rate expressions")
        m0 = model.get("m0", len(exprs))
        if m0 > len(exprs):
            raise ConfigError(
                "/model/m0",
                f"m0 = {m0} exceeds the component count m = {len(exprs)}")
        if "d" in model and len(model["d"]) != len(exprs):
            raise ConfigError("/model/d", "need one diffusion rate per component")
    else:
        for key in ("f", "m0", "u_ceiling"):
            if key in model:
                raise ConfigError(f"/model/{key}", "only applies to custom models")


def load_scenario(path) -> dict:
    """Read and validate one scenario file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError("/", f"cannot read {path}: {e.strerror}") from e
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError("/", f"invalid JSON at line {e.lineno}: {e.msg}") from e
    validate_scenario(obj)
    return obj


def _require(obj: dict, key: str, where: str = ""):
    if key not in obj:
        raise ConfigError(f"{where}/{key}", "required by this subcommand")
    return obj[key]


def _read(pointer: str, rule, *args):
    """``rule(*args)``, its ValueError reported at the field it checked."""
    try:
        return rule(*args)
    except ValueError as e:
        raise ConfigError(pointer, str(e)) from e


def build_model(scenario: dict):
    """The reaction model, its positive equilibrium found (and cached) under /model."""
    obj = _require(scenario, "model")
    try:
        model = model_from_json(obj)
        positive_equilibrium(model)
    except InvalidParameter as e:
        raise ConfigError(f"/model/params/{e.name}", str(e)) from e
    except (ReactionError, NonConvergence) as e:
        raise ConfigError("/model", str(e)) from e
    return model


def build_kernels(scenario: dict, m0: int) -> tuple:
    """One kernel per dispersing component; a single object broadcasts."""
    raw = _require(scenario, "kernels")
    if isinstance(raw, dict):
        kernels = _read("/kernels", kernel_from_json, raw)
    else:
        kernels = [_read(f"/kernels/{i}", kernel_from_json, item)
                   for i, item in enumerate(raw)]
    return _read("/kernels", _component_kernels, kernels, m0)


def _initial_profiles(scenario: dict, model, h0: float):
    """Wedge profiles A_i * (1 - |x|/h0)+; None keeps the simulator default."""
    init = scenario.get("initial")
    if init is None or "amplitude" not in init:
        return None
    amp = init["amplitude"]
    amps = np.full(model.m, float(amp)) if np.isscalar(amp) else np.asarray(amp, float)
    if amps.shape != (model.m,):
        raise ConfigError("/initial/amplitude",
                          f"need a scalar or {model.m} amplitudes")
    u_star = positive_equilibrium(model)
    bad = np.nonzero(amps > u_star)[0]
    if bad.size:
        raise ConfigError("/initial/amplitude",
                          f"component {bad[0] + 1} amplitude exceeds the "
                          f"equilibrium {u_star[bad[0]]:.6g}")
    return _wedges(amps, h0)


def _shared_fields(scenario: dict) -> dict:
    """The FBConfig and CauchyConfig fields read the same way for both."""
    model = build_model(scenario)
    kernels = build_kernels(scenario, model.m0)
    num = _require(scenario, "numerics")
    dx = _require(num, "dx", "/numerics")
    for kern in kernels:
        _read("/numerics/dx", check_mesh, kern, dx)
    h0 = float(_require(scenario, "h0"))
    return dict(model=model, kernels=kernels, h0=h0, dx=dx,
                t_end=_require(num, "t_end", "/numerics"), dt=num.get("dt"),
                initial_profiles=_initial_profiles(scenario, model, h0),
                snapshot_times=tuple(num.get("snapshot_times", ())),
                sample_stride=num.get("sample_stride"))


def build_fb_config(scenario: dict) -> FBConfig:
    fields = _shared_fields(scenario)
    model = fields["model"]
    mu = _read("/mu", _component_mu, _require(scenario, "mu"), model.m, model.m0)
    return FBConfig(**fields, mu=mu,
                    thresholds=Thresholds(**scenario.get("thresholds", {})))


def build_cauchy_config(scenario: dict) -> CauchyConfig:
    fields = _shared_fields(scenario)
    m = fields["model"].m
    levels = []
    for j, entry in enumerate(scenario.get("levels", [])):
        comp = entry["component"]
        if not 1 <= comp <= m:
            raise ConfigError(f"/levels/{j}/component",
                              f"must name a component in 1..{m}")
        levels.append((comp - 1, entry["level"]))
    try:
        return CauchyConfig(**fields, x_max=scenario["numerics"].get("x_max"),
                            levels=levels)
    except InvalidLevel as e:
        raise ConfigError(f"/levels/{e.index}/level", str(e)) from e
    except WindowCapTooSmall as e:
        raise ConfigError("/numerics/x_max", str(e)) from e


def build_speeds(scenario: dict) -> tuple:
    """(model, kernels, mu, speeds section) for the edge and threshold speeds.

    The section's mesh is ``speeds.dx``, else ``numerics.dx``.  It and the
    window lengths are checked as the profile solver would check them,
    before any solve.
    """
    model = build_model(scenario)
    kernels = build_kernels(scenario, model.m0)
    mu = scenario.get("mu", 1.0)
    _read("/mu", _component_mu, mu, model.m, model.m0)
    sp = scenario.get("speeds", {})
    section = "speeds" if "dx" in sp else "numerics"
    if "dx" in scenario.get(section, {}):
        sp = {**sp, "dx": scenario[section]["dx"]}
        for kern in kernels:
            _read(f"/{section}/dx", check_mesh, kern, sp["dx"])
    if "length" in sp:
        _read("/speeds/length", check_window, kernels, sp["length"])
    if sp.get("cstar", False):
        for L in sp.get("lengths", ()):
            _read("/speeds/lengths", check_window, kernels, L)
    return model, kernels, mu, sp
