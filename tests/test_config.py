"""Scenario schema acceptance, rejection diagnostics, and builder wiring."""

import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlspread import config
from nlspread.cauchy import CauchyConfig
from nlspread.config import (SCENARIO_SCHEMA, ConfigError, build_cauchy_config,
                             build_fb_config, build_kernels, build_speeds, load_scenario,
                             scenario_dir, validate_scenario)
from nlspread.freeboundary import FBConfig
from nlspread.kernels import _FAMILIES, KernelSpec, make_kernel
from nlspread.reactions import PRESET_PARAMS, custom, model_from_json, wnv
from nlspread.semiwave import find_c0


def minimal_fb():
    return {
        "name": "t",
        "model": {"model": "wnv",
                  "params": {"a1": 1.0, "a2": 1.0, "b1": 0.5, "b2": 0.5,
                             "e1": 1.0, "e2": 1.0}},
        "kernels": {"family": "laplace", "scale": 1.0},
        "mu": 1.0,
        "h0": 2.0,
        "numerics": {"dx": 0.25, "t_end": 1.0},
    }


class TestValidation:
    def test_minimal_scenario_accepted(self):
        validate_scenario(minimal_fb())

    def test_schema_is_the_shipped_file_and_enforced(self):
        shipped = json.loads((scenario_dir() / "schema.json").read_text())
        assert SCENARIO_SCHEMA == shipped
        numerics = shipped["properties"]["numerics"]
        assert numerics["additionalProperties"] is False
        assert "substeps" not in numerics["properties"]
        obj = minimal_fb()
        obj["numerics"]["substeps"] = 4
        with pytest.raises(ConfigError) as e:
            validate_scenario(obj)
        assert e.value.pointer == "/numerics/substeps"

    def test_kernel_object_defined_once_and_follows_the_family_table(self):
        kernel = SCENARIO_SCHEMA["$defs"]["kernel"]
        single, listed = SCENARIO_SCHEMA["properties"]["kernels"]["anyOf"]
        assert single == listed["items"] == {"$ref": "#/$defs/kernel"}
        assert kernel["properties"]["family"]["enum"] == list(_FAMILIES)
        for family, params in _FAMILIES.items():
            assert set(params) <= set(kernel["properties"]), family

    def test_unknown_top_level_key_rejected_with_pointer(self):
        for key in ("plotting", "seed", "outputs"):
            obj = minimal_fb()
            obj[key] = {}
            with pytest.raises(ConfigError) as e:
                validate_scenario(obj)
            assert e.value.pointer == f"/{key}"

    @pytest.mark.parametrize("edit,pointer", [
        (lambda obj: obj.pop("name"), "/name"),
        (lambda obj: obj.update(levels=[{"component": 1}]), "/levels/0/level"),
    ], ids=["name", "level"])
    def test_missing_required_field_named(self, edit, pointer):
        obj = minimal_fb()
        edit(obj)
        with pytest.raises(ConfigError) as e:
            validate_scenario(obj)
        assert e.value.pointer == pointer

    def test_model_enum_and_preset_parameters_follow_the_preset_table(self):
        model = SCENARIO_SCHEMA["properties"]["model"]["properties"]
        assert model["model"]["enum"] == [*PRESET_PARAMS, "custom"]
        assert model["params"]["additionalProperties"] == {"type": "number"}
        for kind, names in PRESET_PARAMS.items():
            built = model_from_json({"model": kind, "params": dict.fromkeys(names, 1.0)})
            assert built.name == kind

    def test_m0_exceeding_component_count_names_field(self):
        obj = minimal_fb()
        obj["model"] = {"model": "custom", "m0": 3,
                        "f": ["u2 - u1", "u1 - u2"], "params": {}}
        with pytest.raises(ConfigError) as e:
            validate_scenario(obj)
        assert e.value.pointer == "/model/m0"

    def test_bad_kernel_family_pointer(self):
        obj = minimal_fb()
        obj["kernels"]["family"] = "cauchy"
        with pytest.raises(ConfigError) as e:
            validate_scenario(obj)
        assert "/kernels" in e.value.pointer

    def test_negative_mu_entry_rejected(self):
        obj = minimal_fb()
        obj["mu"] = [-1.0, 1.0]
        with pytest.raises(ConfigError) as e:
            validate_scenario(obj)
        assert "/mu" in e.value.pointer

    def test_all_zero_mu_vector_rejected(self):
        obj = minimal_fb()
        obj["mu"] = [0.0, 0.0]
        with pytest.raises(ConfigError) as e:
            validate_scenario(obj)
        assert e.value.pointer == "/mu"

    def test_every_bundled_negative_fixture_rejected(self):
        # rejection may happen at load (schema) or at build (cross-field),
        # matching the CLI path; either way the pointer names a field
        fixtures = sorted((scenario_dir() / "invalid").glob("*.json"))
        assert len(fixtures) >= 5
        for path in fixtures:
            with pytest.raises(ConfigError) as e:
                build_fb_config(load_scenario(path))
            assert e.value.pointer.startswith("/") and len(e.value.pointer) > 1, path

    def test_bundled_positive_scenarios_all_validate(self):
        names = ["wnv_spreading", "wnv_vanishing", "cauchy_wnv_laplace",
                 "cauchy_wnv_powerlaw15", "speeds_wnv_laplace"]
        for name in names:
            load_scenario(scenario_dir() / f"{name}.json")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario(tmp_path / "nope.json")

    def test_malformed_json_reports_line(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"name": "x",}')
        with pytest.raises(ConfigError) as e:
            load_scenario(p)
        assert "line" in str(e.value)


class TestBuilders:
    def test_fb_config_roundtrip(self):
        cfg = build_fb_config(minimal_fb())
        assert cfg.model.m == 2 and len(cfg.kernels) == 2
        assert np.allclose(cfg.mu, [1.0, 1.0])
        assert cfg.dx == 0.25 and cfg.t_end == 1.0

    def test_kernel_list_must_match_component_count(self):
        obj = minimal_fb()
        obj["kernels"] = [{"family": "laplace", "scale": 1.0}]
        with pytest.raises(ConfigError) as e:
            build_fb_config(obj)
        assert "/kernels" in e.value.pointer

    def test_threshold_overrides_carried(self):
        obj = minimal_fb()
        obj["thresholds"] = {"growth_factor": 4.0, "interior_frac": 0.25}
        cfg = build_fb_config(obj)
        assert cfg.thresholds.growth_factor == 4.0
        assert cfg.thresholds.interior_frac == 0.25
        assert cfg.thresholds.vanish_amp_frac == 1e-3   # untouched default

    def test_initial_amplitude_scalar_builds_wedges(self):
        obj = minimal_fb()
        obj["initial"] = {"amplitude": 0.3}
        cfg = build_fb_config(obj)
        xs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        for prof in cfg.initial_profiles:
            np.testing.assert_allclose(prof(xs), 0.3 * np.array([0, .5, 1, .5, 0]))

    def test_initial_amplitude_above_equilibrium_rejected(self):
        obj = minimal_fb()
        obj["initial"] = {"amplitude": [0.4, 0.7]}   # u* = (0.5, 0.5)
        with pytest.raises(ConfigError) as e:
            build_fb_config(obj)
        assert e.value.pointer == "/initial/amplitude"
        assert "component 2" in str(e.value)

    def test_cauchy_levels_one_based_and_bounded(self):
        obj = minimal_fb()
        obj["levels"] = [{"component": 1, "level": 0.25}]
        cfg = build_cauchy_config(obj)
        assert cfg.levels == ((0, 0.25),)
        obj["levels"] = [{"component": 3, "level": 0.25}]
        with pytest.raises(ConfigError) as e:
            build_cauchy_config(obj)
        assert e.value.pointer == "/levels/0/component"

    def test_level_outside_equilibrium_points_at_its_entry(self):
        # "must" contains "mu": the pointer rules match whole words
        obj = minimal_fb()
        obj["levels"] = [{"component": 1, "level": 0.25},
                         {"component": 2, "level": 0.7}]     # u* = (0.5, 0.5)
        with pytest.raises(ConfigError) as e:
            build_cauchy_config(obj)
        assert e.value.pointer == "/levels/1/level"
        assert "component 2 must lie in (0, 0.5)" in str(e.value)

    def test_window_cap_below_initial_data_points_at_x_max(self):
        obj = minimal_fb()
        obj["numerics"]["x_max"] = 1.5       # h0 = 2
        with pytest.raises(ConfigError) as e:
            build_cauchy_config(obj)
        assert e.value.pointer == "/numerics/x_max"
        assert "window cap must cover" in str(e.value)

    def test_mesh_too_coarse_surfaces_as_config_error(self):
        obj = minimal_fb()
        obj["numerics"]["dx"] = 5.0
        with pytest.raises(ConfigError) as e:
            build_fb_config(obj)
        assert "dx" in e.value.pointer

    def test_missing_numerics_field_named(self):
        obj = minimal_fb()
        del obj["numerics"]["t_end"]
        with pytest.raises(ConfigError) as e:
            build_fb_config(obj)
        assert e.value.pointer == "/numerics/t_end"

    def test_stray_kernel_parameter_rejected(self):
        obj = minimal_fb()
        obj["kernels"] = {"family": "laplace", "scale": 1.0, "radius": 7.0, "gamma": 9}
        validate_scenario(obj)          # the schema lists every family's parameters
        with pytest.raises(ConfigError) as e:
            build_kernels(obj, 2)
        assert e.value.pointer == "/kernels"
        assert "radius" in str(e.value)
        obj["kernels"] = [{"family": "laplace", "scale": 1.0},
                          {"family": "gaussian", "sigma": 1.0, "scale": 2.0}]
        with pytest.raises(ConfigError) as e:
            build_kernels(obj, 2)
        assert e.value.pointer == "/kernels/1"


LAPLACE = make_kernel(KernelSpec.laplace(1.0))
WNV = wnv(1.0, 1.0, 0.5, 0.5, 1.0, 1.0)
ONE_DISPERSER = custom(["u2 - u1", "u1 - u2"], {}, m0=1)


class TestSharedRules:
    """Both simulator configs and the semi-wave solver read (F, J_i, mu_i) alike."""

    @pytest.mark.parametrize("model,kernels,mu,message", [
        (WNV, (LAPLACE,) * 3, 1.0, "one kernel per dispersing component: 2, got 3"),
        (WNV, LAPLACE, [1.0, 1.0, 1.0], "mu must have 2 entries, got 3"),
        (WNV, LAPLACE, [0.0, 0.0], "nonnegative with positive sum"),
        (ONE_DISPERSER, LAPLACE, [1.0, 1.0], "dispersing components only"),
    ], ids=["kernel_count", "mu_length", "mu_all_zero", "mu_non_dispersing"])
    def test_same_input_same_error(self, model, kernels, mu, message):
        shared = dict(model=model, kernels=kernels, h0=5.0, dx=0.25, t_end=1.0)
        calls = [lambda: FBConfig(mu=mu, **shared),
                 lambda: find_c0(model, kernels, mu)]
        if message.startswith("one kernel"):    # CauchyConfig has no mu
            calls.append(lambda: CauchyConfig(**shared))
        messages = set()
        for call in calls:
            with pytest.raises(ValueError, match=message) as e:
                call()
            messages.add(str(e.value))
        assert len(messages) == 1

    @pytest.mark.parametrize("dt", [None, 0.05])
    def test_simulators_share_time_step(self, dt):
        shared = dict(model=WNV, kernels=LAPLACE, h0=5.0, dx=0.25, t_end=1.0, dt=dt)
        fb, cauchy = FBConfig(mu=1.0, **shared), CauchyConfig(**shared)
        assert fb.stability_limit() == cauchy.stability_limit()
        assert fb.timestep() == cauchy.timestep()
        assert fb.timestep() == (0.05 if dt else 0.9 * fb.stability_limit())


BUNDLED = {"wnv_spreading": build_fb_config, "wnv_vanishing": build_fb_config,
           "cauchy_wnv_laplace": build_cauchy_config,
           "cauchy_wnv_powerlaw15": build_cauchy_config,
           "speeds_wnv_laplace": build_speeds}


def _walk(node, path=()):
    """(path, value) of every node, the root first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _walk(child, path + (key,))


def _ptr(path) -> str:
    return "/" + "/".join(str(p) for p in path)


def _resolve(doc, pointer: str):
    """The value a scenario pointer names; KeyError/IndexError when there is none."""
    for part in filter(None, pointer.split("/")):
        doc = doc[int(part)] if isinstance(doc, list) else doc[part]
    return doc


def _build(name: str, scenario: dict):
    """Validate, then run the builders of the scenario's subcommand, as the CLI does."""
    validate_scenario(scenario)
    BUNDLED[name](scenario)


@st.composite
def mutated_scenarios(draw):
    """(name, scenario, dropped path or None): one mutation of a bundled scenario."""
    name = draw(st.sampled_from(sorted(BUNDLED)))
    doc = load_scenario(scenario_dir() / f"{name}.json")
    nodes = list(_walk(doc))
    numbers = [p for p, v in nodes if isinstance(v, (int, float)) and not isinstance(v, bool)]
    fields = [p for p, v in nodes[1:] if isinstance(_resolve(doc, _ptr(p[:-1])), dict)]
    vectors = [p for p, v in nodes if isinstance(v, list) and v]
    objects = [p for p, v in nodes if isinstance(v, dict)]
    candidates = {"drop": fields, "number": numbers, "lengthen": vectors,
                  "shorten": vectors, "stray": objects}
    kind = draw(st.sampled_from([k for k, paths in candidates.items() if paths]))
    path = draw(st.sampled_from(candidates[kind]))
    if kind in ("drop", "number"):
        parent = _resolve(doc, _ptr(path[:-1]))
        if kind == "drop":
            del parent[path[-1]]
            return name, doc, _ptr(path)
        parent[path[-1]] = draw(st.sampled_from([0, -1, "x"]))
    else:
        node = _resolve(doc, _ptr(path))
        if kind == "lengthen":
            node.append(node[-1])
        elif kind == "shorten":
            node.pop()
        else:
            node["stray"] = 1.0
    return name, doc, None


class TestScenarioMutations:
    """A mutated scenario builds, or is rejected at a field of the mutated document."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(mutated_scenarios())
    def test_builds_or_names_a_field(self, case):
        name, scenario, dropped = case
        try:
            _build(name, scenario)
        except ConfigError as e:
            if dropped is not None and (e.pointer + "/").startswith(dropped + "/"):
                return                  # names the dropped field, or a field inside it
            _resolve(scenario, e.pointer)

    @pytest.mark.parametrize("name,edit,pointer", [
        ("speeds_wnv_laplace", {"mu": [1, 1, 1]}, "/mu"),
        ("wnv_spreading", {"params": {"b1": 1, "b2": 1}}, "/model"),
        ("cauchy_wnv_laplace", {"params": {"b1": 1, "b2": 1}}, "/model"),
        ("speeds_wnv_laplace", {"params": {"b1": 1, "b2": 1}}, "/model"),
        ("wnv_spreading", {"params": {"a1": "1"}}, "/model/params/a1"),
        ("wnv_spreading", {"params": {"zeta": 2.0}}, "/model/params/zeta"),
    ], ids=["speeds_long_mu", "fb_r0_below_1", "cauchy_r0_below_1", "speeds_r0_below_1",
            "string_parameter", "stray_parameter"])
    def test_rejected_at_its_field(self, name, edit, pointer):
        scenario = load_scenario(scenario_dir() / f"{name}.json")
        scenario["model"]["params"].update(edit.get("params", {}))
        scenario.update({k: v for k, v in edit.items() if k != "params"})
        with pytest.raises(ConfigError) as e:
            _build(name, scenario)
        assert e.value.pointer == pointer


def reference_pointer(obj):
    """The pointer jsonschema's best match names, or None when the schema accepts obj.

    jsonschema is the reference the in-house validator is held to: a stray
    or missing key is named at that key, any other error at its value.
    """
    validator = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)
    err = jsonschema.exceptions.best_match(validator.iter_errors(obj))
    if err is None:
        return None
    parts = list(err.absolute_path)
    if isinstance(err.instance, dict):
        if err.validator == "additionalProperties":
            parts += sorted(set(err.instance) - set(err.schema.get("properties", {})))[:1]
        elif err.validator == "required":
            parts += [k for k in err.validator_value if k not in err.instance][:1]
    return "/" + "/".join(str(p) for p in parts)


def schema_pointer(obj):
    """The pointer the in-house validator names, or None when the schema accepts obj."""
    misses = list(config._misses(SCENARIO_SCHEMA, obj))
    return config._reported(misses).pointer if misses else None


def _schema_keywords(schema: dict) -> set:
    """The keywords of a schema and of every subschema it applies."""
    found = set(schema)
    subs = [*schema.get("properties", {}).values(), *schema.get("$defs", {}).values(),
            *schema.get("anyOf", ())]
    subs += [schema[k] for k in ("items", "contains", "additionalProperties")
             if isinstance(schema.get(k), dict)]
    for sub in subs:
        found |= _schema_keywords(sub)
    return found


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats()
    | st.sampled_from(["", "x", "laplace", "wnv", "speeds"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["family", "scale", "sigma", "component", "level", "stray"]),
        inner, max_size=3),
    max_leaves=6)


@st.composite
def edited_scenarios(draw):
    """A bundled or invalid scenario after one to three random edits of its tree."""
    paths = sorted(scenario_dir().glob("*_*.json")) + sorted(
        (scenario_dir() / "invalid").glob("*.json"))
    doc = json.loads(draw(st.sampled_from(paths)).read_text())
    for _ in range(draw(st.integers(1, 3))):
        path, node = draw(st.sampled_from(list(_walk(doc))))
        kind = draw(st.sampled_from(["replace", "drop", "add"]))
        if kind == "add" and isinstance(node, (dict, list)):
            value = draw(json_values)
            if isinstance(node, dict):
                node[draw(st.sampled_from(["stray", "name", "family", "dx", "mu"]))] = value
            else:
                node.append(value)
        elif path:
            parent = _resolve(doc, _ptr(path[:-1]))
            if kind == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]] = draw(json_values)
    return doc


class TestValidatorAgainstJsonschema:
    """The in-house validator accepts, rejects and points as jsonschema does."""

    def test_schema_uses_only_implemented_keywords(self):
        assert _schema_keywords(SCENARIO_SCHEMA) <= config._KEYWORDS

    @pytest.mark.parametrize("schema,value", [
        ({"maximum": 1}, 2), ({"oneOf": [{"type": "number"}]}, 1),
        ({"properties": {"a": {"pattern": "^x"}}}, {"a": "y"}),
        ({"$ref": "other.json#/kernel"}, 1), ({"type": "null"}, None),
    ], ids=["maximum", "oneOf", "nested_pattern", "remote_ref", "null_type"])
    def test_unimplemented_keyword_raises(self, schema, value):
        with pytest.raises(NotImplementedError):
            list(config._misses(schema, value))

    @pytest.mark.parametrize("edit", [
        {"h0": True}, {"h0": 2}, {"h0": float("nan")}, {"h0": float("inf")},
        {"numerics": {"dx": 0.25, "t_end": 1.0, "sample_stride": 2.0}},
        {"numerics": {"dx": 0.25, "t_end": 1.0, "sample_stride": 1.5}},
        {"levels": [{"component": True, "level": 0.1}]},
        {"mu": [0, 0]}, {"mu": []}, {"mu": [0, 1.5]},
        {"kernels": {"stray": 1}}, {"kernels": {}}, {"kernels": [{}]}, {"kernels": []},
        {"name": ""}, {"initial": {"amplitude": []}}, {"speeds": {"cstar": 1}},
        {"fit": {"input": "f.csv", "window": [1, 2, 3]}},
    ], ids=repr)
    def test_edge_values(self, edit):
        scenario = {**minimal_fb(), **edit}
        assert schema_pointer(scenario) == reference_pointer(scenario)

    def test_bundled_and_invalid_fixtures(self):
        paths = sorted(scenario_dir().glob("*_*.json")) + sorted(
            (scenario_dir() / "invalid").glob("*.json"))
        rejected = 0
        for path in paths:
            doc = json.loads(path.read_text())
            assert schema_pointer(doc) == reference_pointer(doc), path
            rejected += reference_pointer(doc) is not None
        assert rejected >= 4

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(mutated_scenarios())
    def test_scenario_mutations(self, case):
        _, scenario, _ = case
        assert schema_pointer(scenario) == reference_pointer(scenario)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(edited_scenarios())
    def test_random_edits(self, scenario):
        assert schema_pointer(scenario) == reference_pointer(scenario)
