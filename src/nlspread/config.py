"""Scenario files: JSON schema, pointer-carrying validation, config builders.

A scenario is one JSON object shared by every subcommand; each driver reads
the sections it needs.  SCENARIO_SCHEMA is the shipped scenarios/schema.json,
parsed at import; that file is the only copy of the schema.  Validation
happens in two passes: structural checks against it, then semantic checks
the schema language cannot express (m0 against the expression count, level
bounds, mesh admissibility).  Kernels are built by kernels.kernel_from_json,
and the per-component rules (kernel and mu broadcasting, time step, mesh
check) belong to the simulator configs.  Every rejection raises ConfigError
carrying a JSON pointer to the offending field so the CLI can print
actionable diagnostics.
"""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import numpy as np

from .cauchy import CauchyConfig
from .freeboundary import FBConfig, Thresholds, _wedges
from .kernels import kernel_from_json
from .reactions import ReactionError, model_from_json, positive_equilibrium


class ConfigError(ValueError):
    """Scenario rejected; `pointer` locates the offending field."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


def scenario_dir() -> Path:
    """Directory holding the bundled scenario presets."""
    return Path(__file__).resolve().parent / "scenarios"


SCENARIO_SCHEMA = json.loads((scenario_dir() / "schema.json").read_text(encoding="utf-8"))
_VALIDATOR = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)


def _pointer(err: jsonschema.ValidationError) -> str:
    parts = [str(p) for p in err.absolute_path]
    if err.validator == "additionalProperties" and isinstance(err.instance, dict):
        allowed = set(err.schema.get("properties", {}))
        extra = sorted(set(err.instance) - allowed)
        if extra:
            parts.append(extra[0])
    return "/" + "/".join(parts)


def validate_scenario(obj) -> None:
    """Structural pass, then the cross-field checks the schema cannot state."""
    errors = sorted(_VALIDATOR.iter_errors(obj),
                    key=lambda e: -len(list(e.absolute_path)))
    if errors:
        best = jsonschema.exceptions.best_match(errors)
        raise ConfigError(_pointer(best), best.message)
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
    elif model and "f" in model:
        raise ConfigError("/model/f", "rate expressions only apply to custom models")
    if isinstance(obj.get("mu"), list) and all(v == 0 for v in obj["mu"]):
        raise ConfigError("/mu", "at least one expansion coefficient must be positive")
    if obj.get("mu") == 0:
        raise ConfigError("/mu", "at least one expansion coefficient must be positive")


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


def build_model(scenario: dict):
    try:
        return model_from_json(_require(scenario, "model"))
    except ReactionError as e:
        raise ConfigError("/model", str(e)) from e


def build_kernels(scenario: dict, m0: int) -> tuple:
    """One kernel per dispersing component; a single object broadcasts."""
    raw = _require(scenario, "kernels")
    items = [raw] * m0 if isinstance(raw, dict) else list(raw)
    if len(items) != m0:
        raise ConfigError("/kernels", f"need {m0} kernels, got {len(items)}")
    kerns = []
    for i, item in enumerate(items):
        try:
            kerns.append(kernel_from_json(item))
        except (ValueError, TypeError) as e:
            where = "/kernels" if isinstance(raw, dict) else f"/kernels/{i}"
            raise ConfigError(where, str(e)) from e
    return tuple(kerns)


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


def _builder_pointer(e: ValueError) -> str:
    """Map a constructor complaint back onto the scenario field it came from."""
    msg = str(e).lower()
    if "mu" in msg or "expansion" in msg:
        return "/mu"
    if "mesh" in msg or "dx" in msg:
        return "/numerics/dx"
    if "kernel" in msg:
        return "/kernels"
    if "level" in msg:
        return "/levels"
    if "initial" in msg:
        return "/initial"
    return "/numerics"


def _thresholds(scenario: dict) -> Thresholds:
    return Thresholds(**scenario.get("thresholds", {}))


def _numerics(scenario: dict) -> dict:
    num = dict(_require(scenario, "numerics"))
    for key in ("dx", "t_end"):
        if key not in num:
            raise ConfigError(f"/numerics/{key}", "required by this subcommand")
    return num


def _shared_fields(scenario: dict) -> dict:
    """The FBConfig and CauchyConfig fields read the same way for both."""
    model = build_model(scenario)
    kernels = build_kernels(scenario, model.m0)
    num = _numerics(scenario)
    h0 = float(_require(scenario, "h0"))
    return dict(model=model, kernels=kernels, h0=h0, dx=num["dx"],
                t_end=num["t_end"], dt=num.get("dt"),
                initial_profiles=_initial_profiles(scenario, model, h0),
                snapshot_times=tuple(num.get("snapshot_times", ())),
                sample_stride=num.get("sample_stride"))


def _construct(cls, fields: dict):
    try:
        return cls(**fields)
    except ValueError as e:
        raise ConfigError(_builder_pointer(e), str(e)) from e


def build_fb_config(scenario: dict) -> FBConfig:
    fields = _shared_fields(scenario)
    return _construct(FBConfig, dict(
        fields, mu=_require(scenario, "mu"),
        scheme=scenario["numerics"].get("scheme", "euler"),
        thresholds=_thresholds(scenario)))


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
    return _construct(CauchyConfig, dict(
        fields, x_max=scenario["numerics"].get("x_max"), levels=levels))
