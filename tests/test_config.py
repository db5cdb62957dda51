"""Scenario schema acceptance, rejection diagnostics, and builder wiring."""

import json
from pathlib import Path

import numpy as np
import pytest

from nlspread.cauchy import CauchyConfig
from nlspread.config import (SCENARIO_SCHEMA, ConfigError, build_cauchy_config,
                             build_fb_config, build_kernels, load_scenario,
                             scenario_dir, validate_scenario)
from nlspread.freeboundary import FBConfig
from nlspread.kernels import KernelSpec, make_kernel
from nlspread.reactions import custom, wnv
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

    def test_unknown_top_level_key_rejected_with_pointer(self):
        obj = minimal_fb()
        obj["plotting"] = {}
        with pytest.raises(ConfigError) as e:
            validate_scenario(obj)
        assert "plotting" in str(e.value)

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
