"""Tests for the whole-line simulator and its level-set readout."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from nlspread import cauchy as cy
from nlspread import freeboundary as fb
from nlspread import kernels as kn
from nlspread import reactions as rx
from nlspread.config import build_cauchy_config, load_scenario, scenario_dir
from nlspread.nonlocal_ops import GridFunction


def laplace1():
    return kn.make_kernel(kn.KernelSpec.laplace(1.0))


def wnv_model():
    return rx.wnv(1.0, 1.0, 0.5, 0.5, 1.0, 1.0)


def base_cfg(**over):
    base = dict(model=wnv_model(), kernels=laplace1(), h0=2.0,
                dx=0.25, t_end=5.0, dt=0.1)
    base.update(over)
    return cy.CauchyConfig(**base)


class TestConfig:
    def test_level_validation(self):
        with pytest.raises(cy.InvalidLevel):
            base_cfg(levels=((0, 0.7),))        # above u*_0 = 0.5
        with pytest.raises(cy.InvalidLevel):
            base_cfg(levels=((0, 0.0),))
        with pytest.raises(ValueError):
            base_cfg(levels=((5, 0.2),))
        cfg = base_cfg(levels=((0, 0.25), (1, 0.25)))
        assert cfg.levels == ((0, 0.25), (1, 0.25))

    def test_level_messages_count_components_from_one(self):
        # scenarios and levels.csv number components 1..m; so do the messages
        with pytest.raises(cy.InvalidLevel, match="component 2 ") as e:
            base_cfg(levels=((0, 0.25), (1, 0.7)))
        assert e.value.index == 1
        with pytest.raises(ValueError, match="level component 6 out of range"):
            base_cfg(levels=((5, 0.2),))

    def test_eps_edge_default(self):
        assert base_cfg().eps_edge == pytest.approx(1e-8 * 0.5)

    def test_cap_must_cover_initial_data(self):
        with pytest.raises(ValueError):
            base_cfg(x_max=1.0)


class TestInitialState:
    def test_scalar_profiles_are_broadcast(self):
        scalar = base_cfg(x_max=10.0, initial_profiles=(lambda x: 0.3,) * 2)
        array = base_cfg(x_max=10.0, initial_profiles=(lambda x: 0.3 + 0 * x,) * 2)
        got, want = cy.make_initial_cauchy_state(scalar), cy.make_initial_cauchy_state(array)
        assert got.u.k_lo == want.u.k_lo
        assert np.array_equal(got.u.values, want.u.values)

    def test_uncapped_data_that_does_not_decay_is_rejected(self):
        # in a child process, so that a window grown without end fails on
        # the timeout instead of hanging the suite; decaying data still sizes
        code = textwrap.dedent("""
            import json
            import numpy as np
            from nlspread import cauchy as cy, kernels as kn, reactions as rx

            def cfg(profile):
                return cy.CauchyConfig(model=rx.wnv(1.0, 1.0, 0.5, 0.5, 1.0, 1.0),
                                       kernels=kn.make_kernel(kn.KernelSpec.laplace(1.0)),
                                       h0=2.0, dx=0.25, t_end=5.0, initial_profiles=(profile,) * 2)

            try:
                cy.make_initial_cauchy_state(cfg(lambda x: 0.3 + 0 * x))
                error = None
            except cy.WindowCapTooSmall as e:
                error = str(e)
            state = cy.make_initial_cauchy_state(cfg(lambda x: 0.3 * np.exp(-np.abs(x))))
            print(json.dumps([error, state.x_right]))
        """)
        src = str(Path(cy.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True, timeout=60)
        error, x_right = json.loads(out.stdout)
        assert error is not None and "does not decay" in error
        # 0.3 exp(-x) falls below eps_edge = 5e-9 past x = 17.9
        assert x_right > 17.9


class TestStep:
    def test_zero_stays_zero(self):
        cfg = base_cfg(initial_profiles=(lambda x: 0.0 * x, lambda x: 0.0 * x))
        state = cy.make_initial_cauchy_state(cfg)
        for _ in range(20):
            state = cy.cstep(state, cfg)
        assert np.all(state.u.values == 0.0)

    def test_equilibrium_interior_preserved(self):
        cfg = base_cfg(x_max=40.0, dx=0.1, t_end=2.0,
                       initial_profiles=(lambda x: 0.5 + 0.0 * x,
                                         lambda x: 0.5 + 0.0 * x))
        series = cy.run_cauchy(cfg)
        assert series.capped
        xs = series.final_state.u.x
        interior = np.abs(xs) <= 10.0
        drift = np.max(np.abs(series.final_state.u.values[:, interior] - 0.5))
        assert drift < 1e-8

    def test_window_growth_and_cold_edges(self):
        cfg = base_cfg(t_end=8.0)
        state0 = cy.make_initial_cauchy_state(cfg)
        series = cy.run_cauchy(cfg)
        assert series.window_final[1] > state0.x_right
        v = series.final_state.u.values
        band = max(1, int(np.ceil(0.05 * v.shape[1])))
        assert float(np.max(v[:, :band])) < cfg.eps_edge
        assert float(np.max(v[:, -band:])) < cfg.eps_edge
        assert not series.capped

    def test_mirror_symmetry_exact(self):
        cfg = base_cfg(t_end=4.0)
        state = cy.make_initial_cauchy_state(cfg)
        for _ in range(40):
            state = cy.cstep(state, cfg)
            v = state.u.values
            assert state.u.k_lo == -state.u.k_hi
            assert np.array_equal(v, v[:, ::-1])

    def test_confinement(self):
        series = cy.run_cauchy(base_cfg(t_end=6.0))
        v = series.final_state.u.values
        assert np.min(v) >= 0.0
        assert np.max(v) <= 1.0 + 1e-9

    def test_instability_propagates(self):
        cfg = base_cfg(dt=4.0, t_end=60.0)
        with pytest.raises(fb.Instability):
            cy.run_cauchy(cfg)


class TestLevelSet:
    def tent_state(self, dx=0.1):
        xs = np.arange(-30, 31) * dx
        vals = np.maximum(0.0, 1.0 - np.abs(xs))[None, :]
        return cy.CauchyState(t=0.0, u=GridFunction(dx, -30, vals))

    def test_tent_crossings(self):
        pair = cy.level_set(self.tent_state(), 0, 0.5)
        assert pair == pytest.approx((-0.5, 0.5), abs=1e-12)

    def test_zero_profile_none(self):
        state = cy.CauchyState(0.0, GridFunction(0.1, -5, np.zeros((1, 11))))
        assert cy.level_set(state, 0, 0.3) is None

    def test_outermost_crossing_wins(self):
        # two bumps: crossings must bracket both
        dx = 0.05
        xs = np.arange(-100, 101) * dx
        vals = (np.exp(-((xs - 3.0) ** 2)) + np.exp(-((xs + 3.0) ** 2)))[None, :]
        state = cy.CauchyState(0.0, GridFunction(dx, -100, vals))
        xm, xp = cy.level_set(state, 0, 0.5)
        assert xp > 3.0 - 1.0 and xp < 4.5
        assert xm == pytest.approx(-xp, abs=1e-12)

    def test_symmetric_run_levels_mirror(self):
        cfg = base_cfg(t_end=6.0, levels=((0, 0.25),), sample_stride=5)
        series = cy.run_cauchy(cfg)
        rows = series.levels[(0, 0.25)]
        assert rows.shape[0] > 3
        assert np.all(rows[:, 1] == -rows[:, 2])
        # outward motion once established
        assert rows[-1, 2] > rows[0, 2]


class TestAgainstRangeLimited:
    def test_dominates_fb_solution(self):
        profiles = (lambda x: 0.25 * np.maximum(0.0, 1.0 - np.abs(x) / 4.0),
                    lambda x: 0.25 * np.maximum(0.0, 1.0 - np.abs(x) / 4.0))
        fcfg = fb.FBConfig(model=wnv_model(), kernels=laplace1(), mu=1.0,
                           h0=4.0, dx=0.1, t_end=2.5, dt=0.05,
                           initial_profiles=profiles)
        ccfg = base_cfg(h0=4.0, dx=0.1, t_end=2.5, dt=0.05,
                        initial_profiles=profiles)
        fseries = fb.run(fcfg)
        cseries = cy.run_cauchy(ccfg)
        a = fseries.final_state.u
        b = cseries.final_state.u
        off = a.k_lo - b.k_lo
        assert off >= 0
        assert np.all(a.values <= b.values[:, off:off + a.n] + 1e-12)

    def test_origin_attracted_to_equilibrium(self):
        cfg = base_cfg(t_end=15.0, sample_stride=10)
        series = cy.run_cauchy(cfg)
        err = np.max(np.abs(series.origin - 0.5), axis=1)
        assert err[-1] < 0.02
        assert err[-1] < err[len(err) // 2] < err[0]


class TestHeavyTailWindow:
    def test_cap_and_leak_reported(self):
        kern = kn.make_kernel(kn.KernelSpec.powerlaw(1.5, 1.0))
        cfg = base_cfg(kernels=kern, dx=0.25, x_max=30.0, t_end=3.0, dt=0.1)
        series = cy.run_cauchy(cfg)
        assert series.capped
        assert series.leak_bound > 0.0
        assert any("capped" in note for note in series.notes)
        assert any("unbounded ceiling" in note for note in series.notes)
        assert abs(series.window_final[0]) <= 30.0 + 1e-9
        assert series.window_final[1] <= 30.0 + 1e-9

    def test_wide_thin_tail_gets_no_heavy_tail_note(self):
        # laplace(1000) has exponential moments for every rate below 1e-3,
        # so the bounded-ceiling heavy-tail note must not appear
        kern = kn.make_kernel(kn.KernelSpec.laplace(1000.0))
        assert kn.classify(kern).finite_exponential_moment
        cfg = cy.CauchyConfig(model=wnv_model(), kernels=kern, h0=5000.0,
                              dx=250.0, t_end=0.0)
        assert cy.run_cauchy(cfg).notes == ()

    @pytest.mark.parametrize("name, heavy", [("cauchy_wnv_laplace", False),
                                             ("cauchy_wnv_powerlaw15", True)])
    def test_bundled_heavy_tail_note_follows_classify(self, name, heavy):
        scenario = load_scenario(scenario_dir() / f"{name}.json")
        scenario["numerics"]["t_end"] = 0.0
        series = cy.run_cauchy(build_cauchy_config(scenario))
        assert any("unbounded ceiling" in note for note in series.notes) is heavy

    def test_thin_tail_leak_negligible(self):
        # the bound is dominated by the t = 0 sample, where the window is
        # still narrow; even that stays orders of magnitude below u*
        series = cy.run_cauchy(base_cfg(t_end=5.0, levels=((0, 0.25),)))
        assert series.leak_bound < 1e-6
        assert series.notes == ()
