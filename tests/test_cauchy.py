"""Tests for the whole-line simulator and its level-set readout."""

import json
import math
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

    def test_cap_index_derived_once(self):
        assert base_cfg().k_cap is None
        assert base_cfg(x_max=10.1).k_cap == 40                 # floor(10.1 / 0.25)

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

    @staticmethod
    def size_in_child(body: str):
        """Run body in a child process and return the JSON it prints.

        A window grown without end then fails on the timeout instead of
        hanging the suite.
        """
        code = textwrap.dedent("""
            import json
            import numpy as np
            from nlspread import cauchy as cy, kernels as kn, reactions as rx

            def cfg(profile):
                return cy.CauchyConfig(model=rx.wnv(1.0, 1.0, 0.5, 0.5, 1.0, 1.0),
                                       kernels=kn.make_kernel(kn.KernelSpec.laplace(1.0)),
                                       h0=2.0, dx=0.25, t_end=5.0, initial_profiles=(profile,) * 2)

            def size(profile):
                try:
                    return cy.make_initial_cauchy_state(cfg(profile)).u.n
                except cy.WindowCapTooSmall as e:
                    return str(e)
        """) + textwrap.dedent(body)
        src = str(Path(cy.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True, timeout=60)
        return json.loads(out.stdout)

    def test_uncapped_data_that_does_not_decay_is_rejected(self):
        error, x_right = self.size_in_child("""
            error = size(lambda x: 0.3 + 0 * x)
            state = cy.make_initial_cauchy_state(cfg(lambda x: 0.3 * np.exp(-np.abs(x))))
            print(json.dumps([error, state.x_right]))
        """)
        assert isinstance(error, str) and "does not decay" in error
        # 0.3 exp(-x) falls below eps_edge = 5e-9 past x = 17.9
        assert x_right > 17.9

    def test_uncapped_data_that_decays_too_slowly_is_rejected(self):
        # 0.3 / sqrt(1 + |x|) reaches eps_edge = 5e-9 only near |x| = 4e15;
        # each growth step lowers its edge bands a little, which the
        # geometric forecast turns into a window past MAX_WINDOW_NODES
        slow, fits = self.size_in_child("""
            print(json.dumps([size(lambda x: 0.3 / np.sqrt(1 + np.abs(x))),
                              size(lambda x: 0.3 / (1 + np.abs(x)) ** 2)]))
        """)
        assert isinstance(slow, str) and "x_max" in slow
        assert str(cy.MAX_WINDOW_NODES) in slow
        # an inverse square needs |x| near 7 700: the forecast of a power
        # law undershoots, so data that fits is sized, not rejected
        assert isinstance(fits, int) and 60_000 < fits <= cy.MAX_WINDOW_NODES


def widen_reference(k_lo, vals, cfg):
    """The widening rule one GROW_BLOCK at a time, on the padded array itself."""
    k_cap = cfg.k_cap
    while True:
        left, right = cy._edge_maxima(vals)
        pad_l = cy.GROW_BLOCK if left >= cfg.eps_edge else 0
        pad_r = cy.GROW_BLOCK if right >= cfg.eps_edge else 0
        if k_cap is not None:
            pad_l = min(pad_l, k_lo + k_cap)
            pad_r = min(pad_r, k_cap - (k_lo + vals.shape[1] - 1))
        if pad_l == 0 and pad_r == 0:
            return k_lo, vals
        vals = np.pad(vals, ((0, 0), (pad_l, pad_r)))
        k_lo -= pad_l


class TestWiden:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("cap", ["none", "open", "one side", "both sides"])
    @pytest.mark.parametrize("hot", ["none", "left", "right", "both"])
    def test_one_pad_is_the_iterative_rule(self, hot, cap, seed):
        # cap is the cap reached: none set, set but not reached, or reached
        # on one or both sides; hot says which edge bands start hot
        rng = np.random.default_rng([seed, len(hot), len(cap)])
        cfg = base_cfg(x_max=None if cap == "none" else 100.0)      # k in [-400, 400]
        eps = cfg.eps_edge
        gap_l, gap_r = (int(g) for g in rng.integers(0, 40, size=2))
        if cap == "both sides":
            k_lo, n = -400 + gap_l, 801 - gap_l - gap_r
        elif cap == "one side":
            n = int(rng.integers(1, 600))
            k_lo = -400 + gap_l if hot != "right" else 400 - gap_r - n + 1
        else:
            n = int(rng.integers(1, 600))
            k_lo = -(n // 2)
        # cold values below eps_edge everywhere, then hot columns in the
        # outer quarter on each hot side, one of them inside the edge band
        vals = rng.uniform(0.0, 0.999, size=(2, n)) * eps
        quarter, band = max(1, n // 4), cy._band(n)
        for side in {"none": (), "left": ("l",), "right": ("r",), "both": ("l", "r")}[hot]:
            cols = np.append(rng.integers(0, quarter, size=2), rng.integers(0, band))
            cols = cols if side == "l" else n - 1 - cols
            vals[rng.integers(0, 2, size=3), cols] = eps * rng.choice([1.0, 2.0, 1e6], size=3)
        got_lo, got = cy._widen(k_lo, vals, cfg)
        want_lo, want = widen_reference(k_lo, vals, cfg)
        assert got_lo == want_lo
        assert np.array_equal(got, want)
        # each hot side ends at the cap when one is in reach, else nothing moves
        at_cap = (got_lo == -400) + (got_lo + got.shape[1] - 1 == 400)
        hot_sides = {"none": 0, "left": 1, "right": 1, "both": 2}[hot]
        assert at_cap == {"none": 0, "open": 0, "one side": min(hot_sides, 1),
                          "both sides": hot_sides}[cap]
        assert (got is vals) == (hot == "none")

    @pytest.mark.parametrize("n", [1, 19, 20, 21, 200, 613])
    @pytest.mark.parametrize("inside", [True, False])
    def test_one_hot_column_at_the_band_edge(self, n, inside):
        # the last node of an edge band, or the first node past it, is the
        # only hot one
        cfg = base_cfg()
        col = cy._band(n) - 1 if inside else cy._band(n)
        for j in {col, n - 1 - col} & set(range(n)):
            vals = np.zeros((2, n))
            vals[1, j] = cfg.eps_edge
            got_lo, got = cy._widen(-(n // 2), vals, cfg)
            want_lo, want = widen_reference(-(n // 2), vals, cfg)
            assert got_lo == want_lo and np.array_equal(got, want)

    def test_at_the_cap_on_both_sides_nothing_moves(self):
        cfg = base_cfg(x_max=10.0)
        vals = np.ones((2, 81))
        k_lo, out = cy._widen(-40, vals, cfg)
        assert k_lo == -40 and out is vals


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
        assert series.final_state.x_right > state0.x_right
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
            assert v.tobytes() == v[:, ::-1].tobytes()      # signed zeros too

    def test_bundled_laplace_run_stays_bitwise_symmetric(self):
        # the one-correlate rows of the direct path serve exactly these states
        cfg = build_cauchy_config(load_scenario(scenario_dir() / "cauchy_wnv_laplace.json"))
        state = cy.make_initial_cauchy_state(cfg)
        for _ in range(int(math.ceil(cfg.t_end / cfg.timestep() - 1e-9))):
            state = cy.cstep(state, cfg)
            v = state.u.values
            assert state.u.k_lo == -state.u.k_hi
            assert v.tobytes() == v[:, ::-1].tobytes()

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
        assert abs(series.final_state.x_left) <= 30.0 + 1e-9
        assert series.final_state.x_right <= 30.0 + 1e-9

    @pytest.mark.parametrize("centre", [-20.0, 20.0])
    def test_cap_reached_on_one_side_is_reported(self, centre):
        # data off centre widens the window to the cap on its own side only,
        # and that side's edge band is still hot at the end
        prof = lambda x: np.maximum(0.0, 0.25 * (1 - np.abs(x - centre) / 2.0))
        cfg = base_cfg(h0=22.0, x_max=60.0, t_end=8.0, dt=None,
                       initial_profiles=(prof, prof))
        series = cy.run_cauchy(cfg)
        state = series.final_state
        window = (state.x_left, state.x_right)
        assert window == ((-60.0, 38.0) if centre < 0 else (-38.0, 60.0))
        left, right = cy._edge_maxima(state.u.values)
        assert (left if centre < 0 else right) >= cfg.eps_edge
        assert series.capped
        assert any("capped" in note for note in series.notes)

    def test_wide_thin_tail_gets_no_heavy_tail_note(self):
        # laplace(1000) has exponential moments for every rate below 1e-3,
        # so the bounded-ceiling heavy-tail note must not appear
        kern = kn.make_kernel(kn.KernelSpec.laplace(1000.0))
        assert kern.exp_abscissa > 0.0
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
