"""Tests for the moving-edge simulator.

The structural invariants (symmetry, monotone edges, comparison ordering,
confinement) come first; classification smoke runs are kept small so the
whole file stays fast.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nlspread import cauchy as cy
from nlspread import freeboundary as fb
from nlspread import kernels as kn
from nlspread import reactions as rx
from nlspread.config import build_fb_config, load_scenario, scenario_dir
from nlspread.nonlocal_ops import (FFT_WINDOW_THRESHOLD, GridFunction, MeshTooCoarse,
                                   boundary_flux, kernel_weights)


def laplace1():
    return kn.make_kernel(kn.KernelSpec.laplace(1.0))


def wnv_model():
    return rx.wnv(1.0, 1.0, 0.5, 0.5, 1.0, 1.0)


def smoke_cfg(**over):
    base = dict(model=wnv_model(), kernels=laplace1(), mu=1.0, h0=2.0,
                dx=0.25, t_end=20.0, dt=0.1)
    base.update(over)
    return fb.FBConfig(**base)


class TestConfig:
    def test_kernel_broadcast_and_mu_broadcast(self):
        cfg = smoke_cfg()
        assert len(cfg.kernels) == 2
        assert np.array_equal(cfg.mu, [1.0, 1.0])

    def test_mu_validation(self):
        with pytest.raises(ValueError):
            smoke_cfg(mu=(-0.5, 1.0))
        with pytest.raises(ValueError):
            smoke_cfg(mu=(0.0, 0.0))
        cfg = smoke_cfg(mu=(0.0, 2.0))
        assert np.array_equal(cfg.mu, [0.0, 2.0])

    def test_mu_beyond_dispersing_block_rejected(self):
        model = rx.custom(["(1 - u1)*u2 - 0.5*u1", "(1 - u2)*u1 - 0.5*u2"],
                          {}, m0=1, u_ceiling=[1.0, 1.0])
        with pytest.raises(ValueError):
            fb.FBConfig(model=model, kernels=laplace1(), mu=(1.0, 1.0),
                        h0=2.0, dx=0.25, t_end=1.0)
        cfg = fb.FBConfig(model=model, kernels=laplace1(), mu=(1.0, 0.0),
                          h0=2.0, dx=0.25, t_end=1.0)
        assert cfg.mu.shape == (1,)

    def test_coarse_mesh_rejected(self):
        with pytest.raises(MeshTooCoarse):
            smoke_cfg(dx=0.3)

    def test_auto_timestep_within_stability(self):
        cfg = smoke_cfg(dt=None)
        assert 0.0 < cfg.timestep() < cfg.stability_limit()


class TestInitialState:
    def test_default_wedge(self):
        cfg = smoke_cfg(h0=10.0, dx=0.05)
        state = fb.make_initial_state(cfg)
        assert state.g == -10.0 and state.h == 10.0
        xs = state.u.x
        assert xs[0] > -10.0 and xs[-1] < 10.0
        u_star = rx.positive_equilibrium(cfg.model)
        mid = np.argmin(np.abs(xs))
        assert np.allclose(state.u.values[:, mid], 0.5 * u_star, rtol=1e-10)
        # wedge shape: linear decay to zero at the edges
        assert np.all(state.u.values >= 0)
        assert state.u.values[0, 0] == pytest.approx(
            0.25 * (1.0 - abs(xs[0]) / 10.0), rel=1e-12)

    def test_profile_must_vanish_at_edges(self):
        cfg = smoke_cfg(initial_profiles=(lambda x: 0.2 + 0 * x,
                                          lambda x: 0.2 * (1 - np.abs(x) / 2.0)))
        with pytest.raises(ValueError):
            fb.make_initial_state(cfg)

    def test_scalar_profiles_are_broadcast(self):
        cfg = smoke_cfg(initial_profiles=(lambda x: 0.0,) * 2)
        with pytest.raises(ValueError, match="positive somewhere"):
            fb.make_initial_state(cfg)

    def test_profile_above_ceiling_rejected(self):
        cfg = smoke_cfg(initial_profiles=(
            lambda x: 3.0 * (1 - np.abs(x) / 2.0),
            lambda x: 0.2 * (1 - np.abs(x) / 2.0)))
        with pytest.raises(ValueError):
            fb.make_initial_state(cfg)

    def test_profile_negative_rejected(self):
        cfg = smoke_cfg(initial_profiles=(
            lambda x: -0.1 * (1 - np.abs(x) / 2.0),
            lambda x: 0.2 * (1 - np.abs(x) / 2.0)))
        with pytest.raises(ValueError):
            fb.make_initial_state(cfg)


class TestStep:
    def test_mirror_symmetry_exact(self):
        cfg = smoke_cfg(h0=5.0, dx=0.1, t_end=10.0, dt=0.1)
        state = fb.make_initial_state(cfg)
        for _ in range(100):
            state = fb.step(state, cfg)
            assert state.g == -state.h
            v = state.u.values
            assert v.tobytes() == v[:, ::-1].tobytes()      # signed zeros too

    def test_bundled_spreading_run_stays_bitwise_symmetric(self):
        # the one-edge flux and one-correlate rows serve exactly these states
        cfg = build_fb_config(load_scenario(scenario_dir() / "wnv_spreading.json"))
        state = fb.make_initial_state(cfg)
        for _ in range(400):
            state = fb.step(state, cfg)
            v = state.u.values
            assert state.g == -state.h and state.u.k_lo == -state.u.k_hi
            assert v.tobytes() == v[:, ::-1].tobytes()

    def test_edges_monotone_and_confinement(self):
        cfg = smoke_cfg(t_end=5.0)
        state = fb.make_initial_state(cfg)
        for _ in range(50):
            prev_g, prev_h = state.g, state.h
            state = fb.step(state, cfg)
            assert state.h >= prev_h
            assert state.g <= prev_g
            assert np.min(state.u.values) >= 0.0
            assert np.max(state.u.values[0]) <= 1.0 + 1e-9
            assert np.max(state.u.values[1]) <= 1.0 + 1e-9

    def test_new_nodes_start_small(self):
        cfg = smoke_cfg(mu=50.0, dt=0.05)
        state = fb.make_initial_state(cfg)
        old_hi = state.u.k_hi
        old_max = float(np.max(state.u.values))
        nxt = fb.step(state, cfg)
        assert nxt.u.k_hi > old_hi       # large mu forces node activation
        fresh = nxt.u.values[:, old_hi - nxt.u.k_lo + 1:]
        assert np.all(fresh >= 0)
        assert np.max(fresh) <= cfg.timestep() * float(np.max(cfg.model.d)) * old_max

    def test_comparison_ordering(self):
        def scaled_wedge(frac):
            return (lambda x: frac * 0.5 * (1 - np.abs(x) / 4.0),
                    lambda x: frac * 0.5 * (1 - np.abs(x) / 4.0))

        common = dict(h0=4.0, dx=0.1, t_end=3.0, dt=0.05, sample_stride=1)
        lo = fb.run(smoke_cfg(initial_profiles=scaled_wedge(0.4), **common))
        hi = fb.run(smoke_cfg(initial_profiles=scaled_wedge(1.0), **common))
        assert np.all(lo.h <= hi.h + 1e-12)
        assert np.all(lo.g >= hi.g - 1e-12)
        a, b = lo.final_state.u, hi.final_state.u
        off = a.k_lo - b.k_lo
        assert off >= 0
        assert np.all(a.values <= b.values[:, off:off + a.n] + 1e-12)


def _reference_convolve(vals, cfg):
    """The direct path of the dispersal operator in its plain form.

    Per kernel group a fresh stencil, each row's correlate pair in a
    zero-padded copy, and the block scattered by row index.
    """
    n = vals.shape[-1]
    out = np.empty((cfg.model.m0, n))
    for kern, rows in cfg.operator().groups:
        weights = kernel_weights(kern, cfg.dx, max_half_width=n - 1)
        W = (len(weights) - 1) // 2
        assert W <= FFT_WINDOW_THRESHOLD
        padded = np.zeros(n + 2 * W)
        slot = padded[W:W + n]
        block = np.empty((len(rows), n))
        for row, dst in zip(vals[rows], block):
            slot[:] = row
            first = np.correlate(padded, weights, "valid")
            slot[:] = row[::-1]
            np.add(first, np.correlate(padded, weights, "valid")[::-1], out=dst)
        block *= 0.5
        out[rows] = block
    return out


def reference_step(state, cfg):
    """The moving-range step in its plain form: fb.step must give its bits.

    Every step reads mu and the row indices from the config, copies the
    old values into a fresh zero array of the new range, and convolves
    through the reference above.
    """
    mu = cfg.mu.tolist()
    left = [0.0] * len(mu)
    right = [0.0] * len(mu)
    for kern, rows in cfg.operator().groups:
        group_left, group_right = boundary_flux(kern, state.u, rows, state.g, state.h)
        for i, lf, rf in zip(rows.tolist(), group_left, group_right):
            left[i], right[i] = lf, rf
    gp = 0.0
    hp = 0.0
    for mu_i, lf, rf in zip(mu, left, right):
        if mu_i == 0.0:
            continue
        gp += mu_i * lf
        hp += mu_i * rf
    dt, dx = cfg.timestep(), cfg.dx
    g_new = state.g - dt * gp
    h_new = state.h + dt * hp
    k_lo, k_hi = fb._active_range(g_new, h_new, dx)
    old = state.u.values
    vals = np.zeros((old.shape[0], k_hi - k_lo + 1))
    lo = state.u.k_lo - k_lo
    vals[:, lo:lo + old.shape[1]] = old
    model, m0 = cfg.model, cfg.model.m0
    f_vals = rx.eval_F(model, vals, validate=False)
    rate = _reference_convolve(vals, cfg)
    rate -= vals[:m0]
    rate *= model.d[:m0, None]
    rate += f_vals[:m0]
    if m0 < model.m:
        rate = np.concatenate((rate, f_vals[m0:]))
    rate *= dt
    rate += vals
    new_vals = fb._check_box(rate, cfg, state.t + dt, k_lo)
    return fb.FBState(state.t + dt, g_new, h_new, GridFunction(dx, k_lo, new_vals))


def _same_state(a, b) -> bool:
    """Equal to the bit: time, edges, node range and every value."""
    return ((a.t, a.g, a.h, a.u.k_lo, a.u.values.shape) == (b.t, b.g, b.h, b.u.k_lo,
                                                             b.u.values.shape)
            and a.u.values.tobytes() == b.u.values.tobytes())


CYCLE3 = ["(1 - u1)*u2 - 0.5*u1", "(1 - u2)*u3 - 0.5*u2", "(1 - u3)*u1 - 0.5*u3"]
# (model, kernel specs): one group, two groups, the interleaved grouping
# whose rows [0, 2] form an index array, and a sedentary second component
GROUPINGS = {
    "one": (wnv_model, (kn.KernelSpec.laplace(1.0),) * 2),
    "two": (wnv_model, (kn.KernelSpec.laplace(1.0), kn.KernelSpec.gaussian(1.0))),
    "interleaved": (lambda: rx.custom(CYCLE3, {}, u_ceiling=[1.0] * 3),
                    (kn.KernelSpec.laplace(1.0), kn.KernelSpec.gaussian(1.0),
                     kn.KernelSpec.laplace(1.0))),
    "sedentary": (lambda: rx.custom(CYCLE3[:1] + ["(1 - u2)*u1 - 0.5*u2"], {}, m0=1,
                                    u_ceiling=[1.0, 1.0]),
                  (kn.KernelSpec.laplace(1.0),)),
}


@st.composite
def step_cases(draw):
    """(config, state): random values on a random range, edges inside the end cells."""
    make_model, specs = GROUPINGS[draw(st.sampled_from(sorted(GROUPINGS)))]
    model = make_model()
    mu = draw(st.lists(st.just(0.0) | st.floats(0.1, 40.0), min_size=model.m0,
                       max_size=model.m0).filter(lambda m: sum(m) > 0))
    dx = 0.25
    cfg = fb.FBConfig(model=model, kernels=tuple(kn.make_kernel(s) for s in specs),
                      mu=mu, h0=2.0, dx=dx, t_end=1.0, dt=0.05)
    n = draw(st.integers(2, 40))
    k_lo = draw(st.integers(-30, 10))
    vals = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(
        0.0, 0.95, (model.m, n))
    vals[:, draw(st.integers(0, n - 1))] = 0.0
    g = k_lo * dx - draw(st.floats(1e-6, 1.0)) * dx
    h = (k_lo + n - 1) * dx + draw(st.floats(1e-6, 1.0)) * dx
    return cfg, fb.FBState(draw(st.floats(0.0, 10.0)), g, h, GridFunction(dx, k_lo, vals))


class TestStepReference:
    """fb.step keeps the bits of the plain step over ranges that grow and that hold."""

    @settings(max_examples=60, deadline=None)
    @given(step_cases())
    def test_step_is_the_reference_bitwise(self, case):
        cfg, state = case
        ref = state
        for _ in range(6):
            state, ref = fb.step(state, cfg), reference_step(ref, cfg)
            assert _same_state(state, ref)

    @pytest.mark.parametrize("grouping", sorted(GROUPINGS))
    def test_runs_that_grow_and_hold_are_the_reference_bitwise(self, grouping):
        make_model, specs = GROUPINGS[grouping]
        model = make_model()
        mu = [2.0] + [0.0] * (model.m0 - 2) + [3.0] * (model.m0 > 1)
        cfg = fb.FBConfig(model=model, kernels=tuple(kn.make_kernel(s) for s in specs),
                          mu=mu, h0=2.0, dx=0.25, t_end=1.0, dt=0.05)
        state = ref = fb.make_initial_state(cfg)
        grew = held = 0
        for _ in range(120):
            prev = state
            state, ref = fb.step(state, cfg), reference_step(ref, cfg)
            assert _same_state(state, ref)
            same = (state.u.k_lo, state.u.n) == (prev.u.k_lo, prev.u.n)
            held, grew = held + same, grew + (not same)
        assert held > 10 and grew > 3


class TestTrack:
    """_track reads the core |x| <= h0 as an index range; it must be the mask's node set."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([0.025, 0.1, 0.25, 0.3]), st.integers(0, 400),
           st.sampled_from(["on", "decimal", "off"]), st.floats(0.0, 1.0),
           st.integers(-60, 900), st.integers(1, 900))
    def test_core_range_is_the_mask(self, dx, K, where, frac, shift, n):
        # "on": h0 = K*dx as the lattice computes it; "decimal": the same
        # rounded to 6 digits, a hair on either side (7*0.1 > 0.7); "off":
        # between two nodes.  k_lo = -K + shift puts the core whole,
        # partly or not at all inside the window.
        h0 = {"on": K * dx, "decimal": round(K * dx, 6), "off": (K + frac) * dx}[where]
        assume(h0 > 0)
        k_lo = -K + shift
        gf = GridFunction(dx, k_lo, np.random.default_rng(n).uniform(0.0, 1.0, (2, n)))
        mask = np.abs(gf.x) <= h0
        lo, hi = fb._core_range(k_lo, n, dx, h0)
        assert np.array_equal(np.arange(lo, hi), np.nonzero(mask)[0])
        total = gf.values.sum(axis=0)
        core = total[mask]
        state = fb.FBState(0.0, gf.x[0] - 0.5 * dx, gf.x[-1] + 0.5 * dx, gf)
        assert fb._track(state, h0) == (float(core.min()) if core.size else 0.0,
                                        float(total.max()))

    @pytest.mark.parametrize("dx,h0,k_lo,n,expect", [
        (0.1, 0.7, -10, 21, (4, 17)),        # 7*0.1 > 0.7: the core stops at 6 nodes
        (0.3, 0.9, -5, 11, (2, 9)),          # 3*0.3 < 0.9: the core reaches 3 nodes
        (0.25, 10.0, -20, 100, (0, 61)),     # window starts inside the core
        (0.25, 10.0, 41, 5, (0, 0)),         # window right of the core
        (0.025, 1.0, -100, 20, (0, 0)),      # window left of the core
    ])
    def test_core_range_cases(self, dx, h0, k_lo, n, expect):
        assert range(*fb._core_range(k_lo, n, dx, h0)) == range(*expect)
        xs = GridFunction(dx, k_lo, np.zeros((1, n))).x
        assert np.array_equal(np.arange(*expect), np.nonzero(np.abs(xs) <= h0)[0])


class TestRun:
    def test_zero_horizon(self):
        series = fb.run(smoke_cfg(t_end=0.0, snapshot_times=(0.0,)))
        assert series.t.shape == (1,)
        assert series.t[0] == 0.0
        assert len(series.snapshots) == 1

    def test_series_invariants(self):
        series = fb.run(smoke_cfg(t_end=5.0, sample_stride=3))
        assert np.all(np.diff(series.t) > 0)
        assert np.all(np.diff(series.h) >= 0)
        assert np.all(np.diff(series.g) <= 0)
        assert series.t[-1] >= 5.0 - 1e-9

    def test_step_leaves_earlier_values_and_snapshots_alone(self):
        # the step reads the old values in place while the range holds:
        # no state's values and no snapshot may change after the fact
        cfg = smoke_cfg(t_end=8.0, snapshot_times=(0.0, 1.0, 2.55, 4.0, 6.3, 8.0))
        seen = []
        held = 0

        def advance(st):
            nonlocal held
            before = st.u.values.copy()
            new = fb.step(st, cfg)
            assert st.u.values.tobytes() == before.tobytes()
            assert not np.shares_memory(new.u.values, st.u.values)
            held += (new.u.k_lo, new.u.n) == (st.u.k_lo, st.u.n)
            seen.append((new, new.u.values.copy()))
            return new

        start = fb.make_initial_state(cfg)
        seen.append((start, start.u.values.copy()))
        _, snapshots = fb._integrate(cfg, start, advance, lambda st: None)
        assert held >= 40 and len(snapshots) == 6
        for st, values in seen:
            assert st.u.values.tobytes() == values.tobytes()
        taken = {st.t: values for st, values in seen}
        for t, gf in snapshots:
            assert gf.values.tobytes() == taken[t].tobytes()

    def test_snapshots_at_requested_times(self):
        series = fb.run(smoke_cfg(t_end=5.0, snapshot_times=(1.0, 2.5)))
        assert len(series.snapshots) == 2
        assert abs(series.snapshots[0][0] - 1.0) <= 0.1 + 1e-9
        assert abs(series.snapshots[1][0] - 2.5) <= 0.1 + 1e-9

    def test_spreading_smoke(self):
        # mu = 1 front creeps at about 0.22 per unit time, so the 10*h0
        # width-growth signature needs a long horizon
        cfg = smoke_cfg(t_end=70.0)
        series = fb.run(cfg)
        assert series.h[-1] - 2.0 > 0
        assert fb.classify_outcome(series, cfg) == "Spreading"

    def test_vanishing_smoke(self):
        cfg = smoke_cfg(h0=0.1, dx=0.025, mu=0.01, t_end=30.0, dt=0.1)
        series = fb.run(cfg)
        assert fb.classify_outcome(series, cfg) == "Vanishing"

    def test_short_horizon_undetermined(self):
        cfg = smoke_cfg(t_end=3.0)
        series = fb.run(cfg)
        assert fb.classify_outcome(series, cfg) == "Undetermined"

    def test_unstable_timestep_raises(self):
        # far enough above the stability limit that the high-frequency
        # dispersal mode amplifies instead of merely cycling in the box
        cfg = smoke_cfg(dt=4.0, t_end=100.0)
        with pytest.raises(fb.Instability):
            fb.run(cfg)

    def test_instability_names_component_position_and_value(self):
        cfg = smoke_cfg(dt=4.0, t_end=100.0)
        with pytest.raises(fb.Instability) as info:
            fb.run(cfg)
        e = info.value
        assert e.component in (1, 2) and e.value < -1e-12 and e.t > 0
        assert abs(e.x / cfg.dx - round(e.x / cfg.dx)) < 1e-9     # a lattice node
        assert str(e) == (f"state value below zero: component {e.component}, "
                          f"x = {e.x:.6g}, value {e.value:.6g} (t = {e.t:.6g})")

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "non-finite state value"),
        (np.inf, "non-finite state value"),
        (-np.inf, "non-finite state value"),
        (-0.25, "state value below zero"),
        (1.75, "state exceeds ceiling by 7.500e-01"),
        (2e12, "state value above 1e12 in an unbounded model")])
    def test_box_failure_locates_the_worst_node(self, bad, message):
        # component 2 at local index 3 of a window starting at k = -5; the
        # last case runs a model without a ceiling
        cfg = smoke_cfg()
        if "unbounded" in message:
            cfg = smoke_cfg(model=rx.custom(["u1 * (1 - u1)", "u2 * (1 - u2)"], {}))
        vals = np.full((2, 8), 0.5)
        vals[0, 6] = -1e-13                          # inside the tolerated band
        vals[1, 3] = bad
        with pytest.raises(fb.Instability, match=message) as info:
            fb._check_box(vals, cfg, 2.5, k_lo=-5)
        e = info.value
        assert (e.component, e.x, e.t) == (2, -0.5, 2.5)
        assert e.value == bad or (np.isnan(e.value) and np.isnan(bad))
        assert str(e) == (f"{message}: component 2, x = -0.5, value {bad:.6g} (t = 2.5)")

    def test_box_failure_names_the_first_non_finite_node(self):
        # NaN in component 1 while component 2 sits inside the box, and a
        # later -inf: the first non-finite node in row order is named
        vals = np.full((2, 8), 0.5)
        vals[0, 6] = np.nan
        vals[0, 7] = -np.inf
        with pytest.raises(fb.Instability, match="non-finite state value") as info:
            fb._check_box(vals, smoke_cfg(), 1.0, k_lo=-5)
        e = info.value
        assert (e.component, e.x) == (1, 0.25) and np.isnan(e.value)

    @pytest.mark.parametrize("low", [-1e-13, -0.0, 0.0])
    def test_box_keeps_values_and_clamps_the_tolerated_band(self, low):
        # the clamp turns the tolerated band and -0.0 into +0.0; a state
        # with a positive minimum comes back as it is
        cfg = smoke_cfg()
        vals = np.array([[0.25, low, 1e-300], [1e-13, 0.5, 1.0]])
        out = fb._check_box(vals.copy(), cfg, 0.0, k_lo=0)
        assert np.array_equal(out, np.maximum(vals, 0.0))
        assert not np.signbit(out).any()
        positive = np.array([[0.25, 1e-300], [0.5, 1.0]])
        assert fb._check_box(positive, cfg, 0.0, k_lo=0) is positive

    def test_refinement_consistency(self):
        coarse = fb.run(smoke_cfg(t_end=4.0, dx=0.2, dt=0.08))
        fine = fb.run(smoke_cfg(t_end=4.0, dx=0.1, dt=0.04))
        assert abs(coarse.h[-1] - fine.h[-1]) < 0.05 * fine.h[-1]

    def test_sedentary_component(self):
        model = rx.custom(["(1 - u1)*u2 - 0.5*u1", "(1 - u2)*u1 - 0.5*u2"],
                          {}, m0=1, u_ceiling=[1.0, 1.0])
        cfg = fb.FBConfig(model=model, kernels=laplace1(), mu=1.0,
                          h0=2.0, dx=0.25, t_end=4.0, dt=0.1)
        series = fb.run(cfg)
        assert series.h[-1] > 2.0
        assert np.all(series.g + series.h == 0.0)     # symmetry holds here too
        v = series.final_state.u.values
        assert np.all((v >= 0) & (v <= 1.0 + 1e-9))


class TestClassification:
    def synthetic(self, t, g, h, core_min, u_max):
        return fb.FrontSeries(t=np.asarray(t, dtype=float), g=np.asarray(g, dtype=float),
                              h=np.asarray(h, dtype=float),
                              core_min=np.asarray(core_min, dtype=float),
                              u_max=np.asarray(u_max, dtype=float), snapshots=[],
                              final_state=None)

    def test_spreading_signature(self):
        cfg = smoke_cfg(h0=1.0, t_end=100.0)
        t = np.linspace(0.0, 100.0, 201)
        series = self.synthetic(t, -1.0 - t, 1.0 + t, 0.9 * np.ones_like(t),
                                np.ones_like(t))
        assert fb.classify_outcome(series, cfg) == "Spreading"

    def test_vanishing_signature(self):
        cfg = smoke_cfg(h0=1.0, t_end=100.0)
        t = np.linspace(0.0, 100.0, 201)
        amp = 0.5 * np.exp(-0.2 * t)
        series = self.synthetic(t, -np.ones_like(t), np.ones_like(t), amp, amp)
        assert fb.classify_outcome(series, cfg) == "Vanishing"

    def test_thresholds_overridable(self):
        cfg = smoke_cfg(h0=1.0, t_end=100.0,
                        thresholds=fb.Thresholds(growth_factor=1000.0))
        t = np.linspace(0.0, 100.0, 201)
        series = self.synthetic(t, -1.0 - t, 1.0 + t, 0.9 * np.ones_like(t),
                                np.ones_like(t))
        assert fb.classify_outcome(series, cfg) == "Undetermined"

    def test_truncated_series_undetermined(self):
        cfg = smoke_cfg(h0=1.0, t_end=100.0)
        t = np.linspace(0.0, 10.0, 21)
        series = self.synthetic(t, -1.0 - t, 1.0 + t, 0.9 * np.ones_like(t),
                                np.ones_like(t))
        assert fb.classify_outcome(series, cfg) == "Undetermined"


def _on(gf, k_lo: int, n: int) -> np.ndarray:
    """A snapshot's values on global nodes k_lo .. k_lo + n - 1, zero outside its range."""
    out = np.zeros((gf.values.shape[0], n))
    out[:, gf.k_lo - k_lo:gf.k_hi - k_lo + 1] = gf.values
    return out


def _ordered_snapshots(lo, hi) -> None:
    """Snapshot by snapshot, lo <= hi on the union of their node ranges."""
    assert len(lo) == len(hi) > 0
    for (t_lo, a), (t_hi, b) in zip(lo, hi):
        assert t_lo == t_hi
        k_lo = min(a.k_lo, b.k_lo)
        n = max(a.k_hi, b.k_hi) - k_lo + 1
        assert np.all(_on(a, k_lo, n) <= _on(b, k_lo, n) + 1e-12), t_lo


@st.composite
def ordered_data(draw):
    """(h_u, u0, h_v, v0) with u0 <= v0 <= u* = 1/2, u0 zero outside [-h_u, h_u] within [-h_v, h_v].

    Each profile is piecewise linear on seven knots and vanishes at its
    range edges; v0 is the pointwise maximum of u0 and a second such profile.
    """
    h_v = draw(st.floats(1.0, 4.0))
    h_u = h_v * draw(st.floats(0.5, 1.0))
    heights = st.floats(0.0, 0.5)

    def wedge(h):
        knots = np.linspace(-h, h, 7)
        vals = np.array([0.0, *draw(st.lists(heights, min_size=2, max_size=2)),
                         draw(st.floats(0.05, 0.5)),
                         *draw(st.lists(heights, min_size=2, max_size=2)), 0.0])
        return lambda x: np.interp(x, knots, vals, left=0.0, right=0.0)

    u0 = (wedge(h_u), wedge(h_u))
    w0 = (wedge(h_v), wedge(h_v))
    v0 = tuple((lambda x, u=u, w=w: np.maximum(u(x), w(x))) for u, w in zip(u0, w0))
    return h_u, u0, h_v, v0


KERNELS = [kn.KernelSpec.laplace(1.0), kn.KernelSpec.gaussian(1.0), kn.KernelSpec.uniform(2.0)]
# expansion rates of both components, either of which may be zero
MUS = st.tuples(st.just(0.0) | st.floats(0.5, 4.0), st.floats(0.5, 4.0)).flatmap(
    lambda mu: st.sampled_from((mu, mu[::-1])))
COMPARE = dict(model=wnv_model(), dx=0.25, t_end=6.0, snapshot_times=(0.0, 2.0, 4.0, 6.0))


class TestComparisonPrinciple:
    """Ordered initial data stay ordered under both explicit schemes (cooperative F)."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(ordered_data(), st.sampled_from(KERNELS), MUS)
    def test_moving_range(self, data, spec, mu):
        h_u, u0, h_v, v0 = data
        kern = kn.make_kernel(spec)
        lo = fb.run(fb.FBConfig(kernels=kern, mu=mu, h0=h_u, initial_profiles=u0,
                                sample_stride=1, **COMPARE))
        hi = fb.run(fb.FBConfig(kernels=kern, mu=mu, h0=h_v, initial_profiles=v0,
                                sample_stride=1, **COMPARE))
        assert np.array_equal(lo.t, hi.t)
        assert np.all(hi.g <= lo.g + 1e-12) and np.all(lo.h <= hi.h + 1e-12)
        # every step is recorded: the range never shrinks
        for series in (lo, hi):
            assert np.all(np.diff(series.h) >= 0) and np.all(np.diff(series.g) <= 0)
        _ordered_snapshots(lo.snapshots, hi.snapshots)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(ordered_data(), st.sampled_from(KERNELS))
    def test_whole_line(self, data, spec):
        _, u0, h_v, v0 = data
        kern = kn.make_kernel(spec)
        lo = cy.run_cauchy(cy.CauchyConfig(kernels=kern, h0=h_v, initial_profiles=u0,
                                           **COMPARE))
        hi = cy.run_cauchy(cy.CauchyConfig(kernels=kern, h0=h_v, initial_profiles=v0,
                                           **COMPARE))
        _ordered_snapshots(lo.snapshots, hi.snapshots)
