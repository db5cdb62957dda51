"""Traveling profile solver and front speed estimators.

The heavy fixtures (threshold search, speed ladder) are module scoped;
profiles are cached across speed-functional calls through the shared
cache hook, which also exercises its reuse path.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nlspread.reactions as rx
from nlspread import semiwave as sw
from nlspread.kernels import INFINITE, KernelSpec, make_kernel, two_sided_exp_moment


@pytest.fixture(scope="module")
def model():
    return rx.wnv(1.0, 1.0, 0.5, 0.5, 1.0, 1.0)


@pytest.fixture(scope="module")
def laplace1():
    return make_kernel(KernelSpec.laplace(1.0))


@pytest.fixture(scope="module")
def slow_sol(model, laplace1):
    return sw.solve_profile(0.01, model, laplace1, 50.0)


@pytest.fixture(scope="module")
def shared_cache():
    return {}


@pytest.fixture(scope="module")
def c0_ladder(model, laplace1, shared_cache):
    # profiles depend on c alone, so one cache serves every mu
    return {mu: sw.find_c0(model, laplace1, mu, cache=shared_cache)
            for mu in (1.0, 2.0, 4.0, 8.0)}


class TestSolveProfile:
    def test_endpoints_pinned_exactly(self, slow_sol):
        u_star = slow_sol.u_star
        assert np.array_equal(slow_sol.phi[:, 0], u_star)
        assert np.array_equal(slow_sol.phi[:, -1], np.zeros(2))

    def test_slow_speed_saturates(self, slow_sol):
        # at near-zero speed the profile holds the equilibrium deep into
        # the window; the midpoint readout should sit within 10 percent
        assert slow_sol.mid_saturation > 0.9
        assert slow_sol.converged
        assert slow_sol.residual < 1e-6

    def test_profile_monotone_and_boxed(self, slow_sol):
        assert slow_sol.monotone
        assert np.all(slow_sol.phi >= 0.0)
        assert np.all(slow_sol.phi <= slow_sol.u_star[:, None] + 1e-15)

    def test_fast_speed_collapses(self, model, laplace1):
        sol = sw.solve_profile(3.0, model, laplace1, 50.0)
        assert sol.mid_saturation < 0.1
        sol2 = sw.solve_profile(3.0, model, laplace1, 100.0)
        assert sol2.mid_saturation <= sol.mid_saturation + 1e-12

    def test_deterministic_bitwise(self, model, laplace1):
        a = sw.solve_profile(0.5, model, laplace1, 50.0)
        b = sw.solve_profile(0.5, model, laplace1, 50.0)
        assert np.array_equal(a.phi, b.phi)
        assert a.iterations == b.iterations

    def test_short_window_rejected(self, model, laplace1):
        with pytest.raises(ValueError):
            sw.solve_profile(0.5, model, laplace1, 10.0)

    def test_negative_speed_rejected(self, model, laplace1):
        with pytest.raises(ValueError):
            sw.solve_profile(-0.1, model, laplace1, 50.0)

    def test_iteration_cap(self, model, laplace1):
        with pytest.raises(sw.NoConvergence):
            sw.solve_profile(0.5, model, laplace1, 50.0, max_iter=3)
        sol = sw.solve_profile(0.5, model, laplace1, 50.0, max_iter=3, strict=False)
        assert not sol.converged and sol.stop == "budget"

    def test_sedentary_component(self, laplace1):
        model = rx.custom(["(1 - u1)*u2 - 0.5*u1", "(1 - u2)*u1 - 0.5*u2"],
                          {}, m0=1, u_ceiling=[1.0, 1.0])
        sol = sw.solve_profile(0.05, model, (laplace1,), 50.0)
        assert sol.flux_integrals.shape == (1,)
        assert sol.mid_saturation > 0.8
        assert sol.monotone


class TestFluxFunctional:
    def test_linear_in_weights(self, slow_sol):
        base = slow_sol.flux_integrals
        got = sw.flux_functional(slow_sol, [2.0, 3.0])
        assert got == pytest.approx(2.0 * base[0] + 3.0 * base[1], rel=1e-14)
        # doubling the weights doubles the flux bitwise
        assert sw.flux_functional(slow_sol, [2.0, 2.0]) == 2.0 * sw.flux_functional(slow_sol, [1.0, 1.0])

    def test_weight_validation(self, slow_sol):
        with pytest.raises(ValueError):
            sw.flux_functional(slow_sol, [-1.0, 1.0])
        with pytest.raises(ValueError):
            sw.flux_functional(slow_sol, [0.0, 0.0])

    def test_symmetric_model_equal_integrals(self, slow_sol):
        # the model and kernels are symmetric under component swap
        assert slow_sol.flux_integrals[0] == pytest.approx(slow_sol.flux_integrals[1], rel=1e-12)


class TestFindC0:
    def test_speed_in_measured_band(self, c0_ladder):
        # independent readout: the range-expansion front slope for the
        # same model and weights measures 0.2175 on a dx = 0.25 grid
        res = c0_ladder[1.0]
        assert 0.19 < res.speed < 0.23
        assert res.bracket[1] - res.bracket[0] <= 1e-3 + 1e-12
        assert res.solution.converged

    def test_single_sign_change(self, c0_ladder):
        for res in c0_ladder.values():
            pts = sorted(res.trace)
            flips = sum(1 for a, b in zip(pts, pts[1:]) if (a[1] > 0) != (b[1] > 0))
            assert flips == 1

    def test_monotone_in_expansion_weight(self, c0_ladder):
        speeds = [c0_ladder[mu].speed for mu in (1.0, 2.0, 4.0, 8.0)]
        assert all(a < b for a, b in zip(speeds, speeds[1:]))

    def test_window_doubling_stable(self, model, laplace1, c0_ladder):
        wide = sw.find_c0(model, laplace1, 1.0, L=100.0)
        assert wide.speed == pytest.approx(c0_ladder[1.0].speed, rel=0.01)

    def test_tiny_weight_floor(self, model, laplace1):
        res = sw.find_c0(model, laplace1, 1e-9)
        assert res.bracket == (0.0, 1e-3)
        assert res.speed <= 1e-3

    def test_heavy_tail_rejected(self, model):
        for gamma in (1.5, 2.0):
            kern = make_kernel(KernelSpec.powerlaw(gamma, 1.0))
            with pytest.raises(sw.FirstMomentDiverges):
                sw.find_c0(model, kern, 1.0)

    def test_cache_reused(self, model, laplace1):
        cache = {}
        first = sw.find_c0(model, laplace1, 1.0, cache=cache)
        n_solved = len(cache)
        again = sw.find_c0(model, laplace1, 1.0, cache=cache)
        assert len(cache) == n_solved
        assert again.speed == first.speed


class TestLinearizedSpeed:
    def test_value_against_scalar_reduction(self, model, laplace1):
        # the rate jacobian at zero is symmetric with equal diagonal, so
        # the spectral bound reduces to a scalar curve minimized directly
        lam = np.linspace(1e-4, 1.0 - 1e-9, 200_001)
        curve = (1.0 / (1.0 - lam ** 2) - 0.5) / lam
        expect = curve.min()
        got = sw.linearized_front_speed(model, laplace1)
        assert got == pytest.approx(expect, rel=1e-6)

    def test_heavy_tail_infinite(self, model):
        kern = make_kernel(KernelSpec.powerlaw(2.5, 1.0))
        assert sw.linearized_front_speed(model, kern) == INFINITE

    def test_compact_kernel_finite(self, model):
        kern = make_kernel(KernelSpec.uniform(1.0))
        val = sw.linearized_front_speed(model, kern)
        assert np.isfinite(val) and 0.0 < val < 10.0

    def test_thin_tailed_table_reads_its_family(self, model, laplace1):
        # every rate has a finite moment, but exp(lam * 25) overflows past
        # lam = 28: the rate grid must stop there, not at 200 / core
        x = np.linspace(-25.0, 25.0, 4001)
        table = make_kernel(KernelSpec.table(x, np.exp(-np.abs(x))))
        got = sw.linearized_front_speed(model, table)
        assert got == pytest.approx(sw.linearized_front_speed(model, laplace1), rel=1e-3)

    def test_gaussian_against_scalar_reduction(self, model):
        # exp(lam^2 / 2) overflows past lam = 37.7, inside the old grid
        lam = np.linspace(1e-4, 5.0, 500_001)
        expect = ((np.exp(0.5 * lam ** 2) - 0.5) / lam).min()
        got = sw.linearized_front_speed(model, make_kernel(KernelSpec.gaussian(1.0)))
        assert got == pytest.approx(expect, rel=1e-6)


class TestDiscreteLinearSpeed:
    def test_pinned_values(self, model, laplace1):
        c_h, lam, K = sw.discrete_linear_speed(model, laplace1, 0.25, 100.0)
        assert c_h == pytest.approx(1.76337, abs=5e-6)
        assert lam == pytest.approx(0.4738, abs=1e-4)
        assert K == pytest.approx(82.87, abs=0.01)
        assert sw.discrete_linear_speed(model, laplace1, 0.125, 200.0)[0] == \
            pytest.approx(1.71482, abs=5e-6)

    def test_richardson_recovers_the_linearized_speed(self, model, laplace1):
        # the upwind bias is first order in dx
        coarse = sw.discrete_linear_speed(model, laplace1, 0.0625, 200.0)[0]
        fine = sw.discrete_linear_speed(model, laplace1, 0.03125, 200.0)[0]
        lin = sw.linearized_front_speed(model, laplace1)
        assert abs(2.0 * fine - coarse - lin) <= 1e-4 * lin

    @pytest.mark.parametrize("spec,bits", [
        (KernelSpec.laplace(1.0), 1.6650953383927802),
        (KernelSpec.gaussian(1.0), 1.0964019203015902),
        (KernelSpec.uniform(1.0), 0.6129676147144262),
    ], ids=["laplace", "gaussian", "uniform"])
    def test_linearized_speed_bits(self, model, spec, bits):
        # the shared minimizer reads the continuous symbol as before
        assert sw.linearized_front_speed(model, make_kernel(spec)) == bits

    def test_heavy_tail_infinite(self, model):
        c_h, lam, K = sw.discrete_linear_speed(model, make_kernel(KernelSpec.powerlaw(2.5, 1.0)),
                                               0.25, 50.0)
        assert c_h == INFINITE and np.isnan(lam) and np.isnan(K)


@pytest.fixture(scope="module")
def threshold(model, laplace1):
    # a trimmed window keeps this probe affordable; the library defaults
    # are exercised by the acceptance suite
    return sw.estimate_cstar(model, laplace1, lengths=(50.0, 100.0))


class TestEstimateCstar:
    def test_threshold_near_linearized(self, model, laplace1, threshold):
        lin = sw.linearized_front_speed(model, laplace1)
        assert threshold.value == pytest.approx(lin, rel=0.06)
        assert threshold.bracket[0] < threshold.value < threshold.bracket[1]

    def test_exceeds_boundary_matched_speeds(self, threshold, c0_ladder):
        assert threshold.value > c0_ladder[8.0].speed

    def test_trace_holds_the_two_probes(self, model, laplace1, threshold):
        c_h, _, K = sw.discrete_linear_speed(model, laplace1, None, 100.0)
        assert threshold.value == c_h
        (up, L_up, up_mid), (down, L_down, down_mid) = threshold.trace
        assert (L_up, L_down) == (100.0, 100.0)
        assert 0.0 <= up_mid < 0.5 <= down_mid <= 1.0 + 1e-12
        assert up == pytest.approx(1.01 * c_h, rel=1e-15)
        assert down == pytest.approx(c_h - K / 50.0 ** 2 - 0.01 * c_h, rel=1e-15)
        assert threshold.stops == ("dead", "tol")
        assert threshold.bracket == (threshold.trace[1][0], threshold.trace[0][0])
        assert (threshold.fallbacks, threshold.note) == (0, "")

    def test_heavy_tail_infinite(self, model):
        kern = make_kernel(KernelSpec.powerlaw(1.5, 1.0))
        res = sw.estimate_cstar(model, kern)
        assert res.value == INFINITE
        assert res.linearized == INFINITE
        assert "exponential moment" in res.note

    def test_alive_at_every_doubling_raises(self, model, laplace1, monkeypatch):
        seen = []
        monkeypatch.setattr(sw, "solve_profile", _stub_verdicts(lambda c: 1.0, seen))
        with pytest.raises(sw.ThresholdNotBracketed, match="dead from c=inf"):
            sw.estimate_cstar(model, laplace1, lengths=(50.0,))
        assert len(seen) == 2 + sw.CSTAR_MAX_DOUBLINGS

    def test_dead_down_to_zero_speed_raises(self, model, laplace1, monkeypatch):
        seen = []
        monkeypatch.setattr(sw, "solve_profile", _stub_verdicts(lambda c: 0.0, seen))
        with pytest.raises(sw.ThresholdNotBracketed, match="alive up to c=-inf, dead from c=0$"):
            sw.estimate_cstar(model, laplace1, lengths=(50.0,))
        assert seen[-1] == 0.0 and min(seen) >= 0.0


def _stub_verdicts(mid, seen):
    """A solve_profile that reads mid(c) at tolerance without relaxing."""
    def stub(c, model, kernels, L, **kw):
        seen.append(c)
        m = mid(c)
        return SimpleNamespace(c=c, length=L, dx=kw["dx"], mid_saturation=m,
                               stop="tol" if m >= 0.5 else "dead",
                               converged=m >= 0.5, monotone=True)
    return stub


# ----------------------------------------------------------------------
# threshold probes: dead stop, warm starts, and the cold runs they stand for

FAMILIES = {"laplace": KernelSpec.laplace, "gaussian": KernelSpec.gaussian,
            "uniform": KernelSpec.uniform,
            "powerlaw": lambda s: KernelSpec.powerlaw(3.5, s)}
PROPERTY = settings(max_examples=10, deadline=None)
TOL = 1e-6


@st.composite
def profile_problems(draw):
    """(kernel, dx, L): a core scale of 4 dx and a window of 20-40 core scales."""
    dx = draw(st.sampled_from((0.25, 0.5)))
    scale = 4.0 * dx
    kern = make_kernel(FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))](scale))
    L = dx * round(scale * draw(st.floats(20.0, 40.0)) / dx)
    return kern, dx, L


def _recording(monkeypatch, seen, lower_start=False):
    """Route solve_profile through a recorder; optionally spoil every warm start."""
    orig = sw.solve_profile

    def wrapper(c, *args, start=None, **kw):
        if lower_start and start is not None:
            phi = start.phi.copy()
            phi[:, phi.shape[1] // 2] *= 0.5        # no longer a supersolution
            start = replace(start, phi=phi)
        sol = orig(c, *args, start=start, **kw)
        seen.append((sol.stop, sol.start))
        return sol

    monkeypatch.setattr(sw, "solve_profile", wrapper)


# a short window: for wnv c_L = 1.556 and the probes sit at 1.468 and
# 1.852; the pushed front's threshold lies above c_h = 2.7824
CHEAP = dict(lengths=(40.0,), dx=0.25, rel_tol=0.05)


@pytest.fixture(scope="module")
def pushed():
    return rx.custom(["u1*(1 - u1)*(1 + 8*u1)"], {})


@pytest.fixture(scope="module")
def pushed_threshold(pushed, laplace1):
    return sw.estimate_cstar(pushed, laplace1, **CHEAP)


def _verdicts(res):
    return {c: mid >= 0.5 for c, _, mid in res.trace}


class TestThresholdProbes:
    def test_confirmation_probes_match_cold_runs_bitwise(self, model, laplace1):
        res = sw.estimate_cstar(model, laplace1, **CHEAP)
        (up, _, up_mid), (down, _, down_mid) = res.trace
        assert res.value == sw.discrete_linear_speed(model, laplace1, 0.25, 40.0)[0]
        assert res.bracket == (down, up) and res.stops == ("dead", "tol")
        assert res.fallbacks == 0
        kw = dict(dx=0.25, tol=sw.CSTAR_TOL, strict=False)
        cold_dead = sw.solve_profile(up, model, laplace1, 40.0, **kw)
        cold_alive = sw.solve_profile(down, model, laplace1, 40.0, **kw)
        # the alive probe is the cold run; the dead one stopped on its way down
        assert cold_alive.converged and down_mid == cold_alive.mid_saturation >= 0.5
        assert cold_dead.converged and cold_dead.mid_saturation < 0.5 and up_mid < 0.5

    def test_pushed_front_brackets_above_the_linear_speed(self, pushed, laplace1,
                                                          pushed_threshold):
        res = pushed_threshold
        c_h = sw.discrete_linear_speed(pushed, laplace1, 0.25, 40.0)[0]
        lo, hi = res.bracket
        assert c_h < lo < res.value < hi and hi - lo <= 0.05 * c_h
        assert res.value == 0.5 * (lo + hi)
        last = dict(zip((c for c, _, _ in res.trace), res.stops))
        assert last[lo] == "tol" and last[hi] in ("tol", "dead")
        first, _, mid = res.trace[0]
        assert first == pytest.approx(1.05 * c_h, rel=1e-15) and mid >= 0.5
        assert "not confirmed" in res.note
        assert res.fallbacks == 0

    def test_spoiled_warm_starts_fall_back_to_the_cold_result(self, pushed, laplace1,
                                                               pushed_threshold, monkeypatch):
        seen = []
        _recording(monkeypatch, seen, lower_start=True)
        res = sw.estimate_cstar(pushed, laplace1, **CHEAP)
        assert res.fallbacks > 0
        assert res.bracket == pushed_threshold.bracket
        assert _verdicts(res) == _verdicts(pushed_threshold)
        # every probe that got a warm start was re-run cold from saturation
        assert all(start == "saturated" for _, start in seen)

    def test_dead_stop_is_final(self, model, laplace1):
        dead = sw.solve_profile(3.0, model, laplace1, 50.0, stop_dead=True)
        full = sw.solve_profile(3.0, model, laplace1, 50.0)
        assert (dead.stop, dead.start, dead.converged) == ("dead", "saturated", False)
        assert (full.stop, full.start) == ("tol", "saturated")
        assert dead.iterations < full.iterations
        assert dead.mid_saturation < 0.5 and full.mid_saturation < 0.5
        # the dead iterate lies above the limit the sweeps would reach
        assert np.all(dead.phi >= full.phi - 1e-12)

    def test_start_must_fit_the_mesh_and_speed(self, model, laplace1):
        sol = sw.solve_profile(1.0, model, laplace1, 20.0, dx=0.25, tol=TOL)
        with pytest.raises(ValueError):
            sw.solve_profile(1.0, model, laplace1, 20.0, dx=0.125, start=sol)
        with pytest.raises(ValueError):
            sw.solve_profile(0.9, model, laplace1, 20.0, dx=0.25, start=sol)
        with pytest.raises(ValueError):
            sw.solve_profile(1.0, model, laplace1, 20.0, dx=0.25, start=sol)


class TestMonotoneRelaxation:
    @PROPERTY
    @given(profile_problems(), st.floats(0.0, 2.5))
    def test_sweeps_from_saturation_never_rise(self, model, problem, c):
        # stop_dead guards every sweep: a rise above 8 eps max(u*) raises
        kern, dx, L = problem
        sol = sw.solve_profile(c, model, kern, L, dx=dx, tol=TOL, max_iter=4000,
                               strict=False, stop_dead=True)
        assert sol.start == "saturated"
        assert np.all(sol.phi <= sol.u_star[:, None])

    @PROPERTY
    @given(profile_problems(), st.floats(0.05, 1.5), st.floats(0.01, 0.4))
    def test_warm_start_from_a_lower_speed_matches_cold(self, model, problem, c_lo, dc):
        kern, dx, L = problem
        kw = dict(dx=dx, tol=TOL, max_iter=10_000, strict=False)
        low = sw.solve_profile(c_lo, model, kern, L, **kw)
        assume(low.converged and low.monotone)
        warm = sw.solve_profile(c_lo + dc, model, kern, L, start=low, **kw)
        cold = sw.solve_profile(c_lo + dc, model, kern, L, **kw)
        assume(cold.converged)
        assert warm.start == "speed" and warm.converged
        assert (warm.mid_saturation >= 0.5) == (cold.mid_saturation >= 0.5)
        assert abs(warm.mid_saturation - cold.mid_saturation) <= 10 * TOL

    @PROPERTY
    @given(profile_problems(), st.floats(0.05, 1.2), st.floats(0.1, 0.9))
    def test_lowered_start_is_caught(self, model, problem, c_lo, factor):
        kern, dx, L = problem
        low = sw.solve_profile(c_lo, model, kern, L, dx=dx, tol=TOL, strict=False,
                               max_iter=10_000)
        assume(low.mid_saturation >= 0.5)
        phi = low.phi.copy()
        phi[:, phi.shape[1] // 2] *= factor
        with pytest.raises(sw.NotMonotone):
            sw.solve_profile(c_lo + 0.1, model, kern, L, dx=dx, tol=TOL,
                             start=replace(low, phi=phi))


# ----------------------------------------------------------------------
# the upwind Gauss-Seidel sweep: order preserving, its scan, its step

def _split(v):
    """Veltkamp split of a double into two halves whose products are exact."""
    t = 134217729.0 * v             # 2^27 + 1
    hi = t - (t - v)
    return hi, v - hi


def _two_prod(a, b):
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _two_sum(a, b):
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _sequential_upwind(a, r):
    """phi_k = a_k + r phi_{k+1}, right to left, one node at a time.

    Compensated (error-free products and sums carried in a second
    double), so each node is the exact recurrence to about one ulp.
    """
    phi, err = a[-1], 0.0
    out = [phi]
    for ak in a[-2::-1]:
        p, pe = _two_prod(r, phi)
        phi, se = _two_sum(p, ak)
        err = r * err + (pe + se)
        out.append(phi + err)
    return np.array(out[::-1])


PRESETS = {"wnv": rx.wnv, "cholera": rx.cholera, "concave": rx.concave}


@st.composite
def preset_models(draw, kind, dispersal=False):
    """The preset ``kind`` with drawn parameters and a positive equilibrium.

    With ``dispersal`` the two dispersal rates are drawn too (else 1).
    """
    params = {p: draw(st.floats(0.2, 3.0)) for p in rx.PRESET_PARAMS[kind]}
    if dispersal:
        params["d"] = (draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0)))
    model = PRESETS[kind](**params)
    try:
        rx.positive_equilibrium(model)
    except (rx.NoPositiveRoot, rx.NonConvergence):
        assume(False)
    return model


class TestUpwindSweep:
    @PROPERTY
    @given(profile_problems(), st.floats(0.0, 3.0), st.integers(0, 2**32 - 1))
    def test_sweep_is_order_preserving(self, model, problem, c, seed):
        kern, dx, L = problem
        kerns = (kern, kern)
        n, h = sw._mesh(kerns, L, dx)
        T = sw._Sweep(c, model, kerns, n, h)
        rng = np.random.default_rng(seed)
        hi = T.u_star[:, None] * rng.uniform(0.0, 1.0, (2, n))
        lo = hi * rng.uniform(0.0, 1.0, (2, n))
        floor = 8.0 * np.finfo(float).eps * float(np.max(T.u_star))
        assert np.all(T(lo) <= T(hi) + floor)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 2000), st.lists(st.floats(0.0, 1.0 - 1e-6), min_size=2, max_size=2),
           st.integers(0, 2**32 - 1))
    @example(n=136, rs=[0.0, 1e-9], seed=0)
    def test_doubling_scan_is_the_sequential_recurrence(self, n, rs, seed):
        r = np.array(rs)[:, None]
        a = np.random.default_rng(seed).uniform(0.0, 1.0, (2, n))
        powers = sw._scan_powers(r, n)
        got = a.copy()
        sw._upwind_scan(sw._scan_passes(got, powers, np.empty_like(a)))
        # each pass rounds a power, a product and a sum of nonnegative terms;
        # the terms past the last power sum to r**(2 shift) phi_{k + 2 shift},
        # below SCAN_FLOOR max(phi) (``_scan_powers``)
        rtol = 2.0 * (len(powers) + 1) * np.finfo(float).eps
        for i in range(2):
            want = _sequential_upwind(a[i].tolist(), rs[i])
            np.testing.assert_allclose(got[i], want, rtol=rtol,
                                       atol=sw.SCAN_FLOOR * np.max(want))

    @pytest.mark.parametrize("kind", sorted(PRESETS))
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_step_keeps_each_diagonal_order_preserving(self, kind, data):
        model = data.draw(preset_models(kind))
        dtau = sw.relaxation_step(model)
        u_star = rx.positive_equilibrium(model)
        grid = np.linspace(0.0, 1.0, 101)
        for u1 in grid * u_star[0]:
            for u2 in grid * u_star[1]:
                J = rx.jacobian(model, np.array([u1, u2]))
                assert np.all(1.0 + dtau * np.diag(J) >= 0.0)

    def test_step_for_the_reference_model(self, model):
        # -dF_i/du_i = u_j + 1/2 peaks at u* = (1/2, 1/2): D = 1
        assert rx.diagonal_drain(model) == 1.0
        assert sw.relaxation_step(model) == 0.9


# ----------------------------------------------------------------------
# edge-speed probes: sign stop, resume, lower-speed starts, and the cold
# search they replace

LADDER = dict(L=30.0, dx=0.25)
LADDER_MU = (1.0, 10.0, 100.0)


def _cold_find_c0(model, kern, mu, cache, L, dx, tol_c=1e-3, tol=1e-8):
    """``find_c0`` with every probe cold from saturation and run to tol.

    This is the search before probes stopped at the sign verdict or
    started from another profile; returns (speed, bracket, verdicts in
    evaluation order, solution).
    """
    mu_vec = np.full(model.m0, float(mu))
    verdicts = []

    def G(c):
        sol = cache.get(c)
        if sol is None:
            sol = cache[c] = sw.solve_profile(c, model, kern, L, dx=dx, tol=tol)
        val = float(np.dot(mu_vec, sol.flux_integrals)) - c
        verdicts.append((c, val <= 0.0))
        return val

    if G(tol_c) <= 0.0:
        lo, hi = 0.0, tol_c
    else:
        lo, hi, c_try = tol_c, None, tol_c
        while hi is None:
            c_try *= 2.0
            if G(c_try) <= 0.0:
                hi = c_try
            else:
                lo = c_try
    while hi - lo > tol_c:
        mid = 0.5 * (lo + hi)
        if G(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    speed = 0.5 * (lo + hi)
    sol = cache.get(speed)
    if sol is None:
        sol = cache[speed] = sw.solve_profile(speed, model, kern, L, dx=dx, tol=tol)
    return speed, (lo, hi), verdicts, sol


@pytest.fixture(scope="module")
def cold_ladder(model, laplace1):
    cache = {}
    return [_cold_find_c0(model, laplace1, mu, cache, **LADDER) for mu in LADDER_MU]


def _matches_cold(results, cold):
    for res, (speed, bracket, verdicts, sol) in zip(results, cold, strict=True):
        assert res.speed == speed and res.bracket == bracket
        assert [(c, v <= 0.0) for c, v in res.trace] == verdicts
        assert res.solution.converged
        assert np.array_equal(res.solution.phi, sol.phi)
        assert res.solution.residual == sol.residual


class TestEdgeSpeedProbes:
    def test_ladder_matches_cold_search_bitwise(self, model, laplace1, cold_ladder,
                                                monkeypatch):
        seen = []
        _recording(monkeypatch, seen)
        cache = {}
        results = [sw.find_c0(model, laplace1, mu, cache=cache, **LADDER)
                   for mu in LADDER_MU]
        _matches_cold(results, cold_ladder)
        assert [res.fallbacks for res in results] == [0, 0, 0]
        # the shortcuts were taken: sign stops, lower-speed starts, resumes
        assert {stop for stop, _ in seen} >= {"sign"}
        assert {start for _, start in seen} >= {"speed", "resume"}

    def test_spoiled_starts_fall_back_to_the_cold_result(self, model, laplace1,
                                                         cold_ladder, monkeypatch):
        seen = []
        _recording(monkeypatch, seen, lower_start=True)
        cache = {}
        results = [sw.find_c0(model, laplace1, mu, cache=cache, **LADDER)
                   for mu in LADDER_MU]
        _matches_cold(results, cold_ladder)
        assert sum(res.fallbacks for res in results) > 0
        # every probe that got a start was re-run cold from saturation
        assert all(start == "saturated" for _, start in seen)

    def test_resumed_sign_stop_is_the_cold_run_bitwise(self, model, laplace1):
        # at c = 0.5 and mu = 4 the sign stop lands after several sweeps
        kw = dict(dx=0.25, tol=1e-8)
        cold = sw.solve_profile(0.5, model, laplace1, 30.0, **kw)
        stopped = sw.solve_profile(0.5, model, laplace1, 30.0, stop_mu=4.0, **kw)
        assert (stopped.stop, stopped.start, stopped.converged) == ("sign", "saturated", False)
        assert 1 < stopped.iterations < cold.iterations
        # the verdict is final: the converged functional reads lower still
        value = sw.flux_functional(stopped, 4.0) - 0.5
        assert sw.flux_functional(cold, 4.0) - 0.5 <= value <= 0.0
        resumed = sw.solve_profile(0.5, model, laplace1, 30.0, start=stopped, **kw)
        assert (resumed.stop, resumed.start) == ("tol", "resume")
        assert stopped.iterations + resumed.iterations == cold.iterations
        assert np.array_equal(resumed.phi, cold.phi)
        assert resumed.residual == cold.residual
        assert np.array_equal(resumed.flux_integrals, cold.flux_integrals)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_flux_integrals_are_the_trapezoid_rule(self, model, family):
        kern = make_kernel(FAMILIES[family](1.0))
        sol = sw.solve_profile(0.3, model, kern, 30.0, dx=0.25, tol=TOL, strict=False)
        expect = [np.trapezoid(sol.phi[i] * kern.tail(-sol.x), sol.x) for i in range(2)]
        np.testing.assert_allclose(sol.flux_integrals, expect, rtol=1e-15, atol=0.0)


# ----------------------------------------------------------------------
# frozen references: the sweep, the relaxation loop and the linear speeds
# in their plain form (one np.convolve per row, the scan building its
# views on every pass, np.max / np.min on the step, one eigenvalue
# call per rate).  The solver trims numpy calls, never arithmetic, so it
# must give these bits exactly.

class _ReferenceSweep:
    """The relaxation sweep as first written; ``__call__`` returns (T(phi), T(phi) - phi)."""

    def __init__(self, c, model, kerns, n, dx):
        self.model = model
        self.u_star = u_star = rx.positive_equilibrium(model)
        self.c_dx = c / dx
        self.dtau = sw.relaxation_step(model)
        s = self.dtau * self.c_dx
        bs = 1.0 + self.dtau * model.d[:, None] + s
        self.powers = sw._scan_powers(s / bs, n)
        self.ceiling, self.d, self.bs = (np.repeat(v, n, axis=1)
                                         for v in (u_star[:, None], model.d[:, None], bs))
        self.stencils = []
        for i, k in enumerate(kerns):
            cap = max(n - 1, int(math.ceil(64.0 * k.core_scale / dx)))
            w = sw.kernel_weights(k, dx, max_half_width=cap)
            half = (w.size - 1) // 2
            ext = np.zeros(n + 2 * half)
            ext[:half] = u_star[i]
            self.stencils.append((w, half, ext))

    def convolve(self, u):
        n = u.shape[1]
        conv = np.zeros((self.model.m, n))
        for i, (w, half, ext) in enumerate(self.stencils):
            ext[half:half + n] = u[i]
            conv[i] = np.convolve(ext, w, mode="valid")
        return conv

    def __call__(self, phi):
        new = np.ascontiguousarray(rx.eval_F(self.model, phi, validate=False))
        new += self.d * self.convolve(phi)
        new *= self.dtau
        new += phi
        new /= self.bs
        new[:, -1] = 0.0
        x = new.reshape(-1)
        t = np.empty_like(x)
        for shift, w in self.powers:
            k = x.size - shift
            np.multiply(x[shift:], w, out=t[:k])
            x[:k] += t[:k]
        new[:, 0] = self.u_star
        np.maximum(new, 0.0, out=new)
        np.minimum(new, self.ceiling, out=new)
        return new, new - phi


def _reference_solve(c, model, kernels, L, dx, tol=1e-8, max_iter=60_000, *,
                     stop_dead=False, stop_mu=None, start=None):
    """The relaxation loop as first written: (phi, iterations, stop, start, flux integrals)."""
    kerns = sw._component_kernels(kernels, model.m0)
    n, dx = sw._mesh(kerns, L, dx)
    x = np.linspace(-L, 0.0, n)
    sweep = _ReferenceSweep(c, model, kerns, n, dx)
    u_star = sweep.u_star
    half_gap = 0.5 * np.diff(x)
    trap = np.zeros(n)
    trap[:-1] += half_gap
    trap[1:] += half_gap
    tail_w = np.array([k.tail(-x) for k in kerns]) * trap

    def flux_integrals(u):
        return np.vecdot(u[:model.m0], tail_w)

    if stop_mu is not None:
        stop_mu = np.full(model.m0, float(stop_mu))
    phi = np.repeat(u_star[:, None], n, axis=1)
    phi[:, -1] = 0.0
    source = "saturated"
    if start is not None:
        phi[:] = start.phi
        source = "speed" if start.c < c else "resume"
    guarded = stop_dead or stop_mu is not None or start is not None
    floor = 8.0 * np.finfo(float).eps * float(np.max(u_star))
    mid = (n - 1) // 2
    stop = "budget"
    for it in range(1, max_iter + 1):
        phi, step = sweep(phi)
        rise = float(np.max(step))
        if guarded and rise > floor:
            raise sw.NotMonotone(f"rose by {rise:.3g} at sweep {it}")
        delta = max(rise, -float(np.min(step)))
        if delta < tol * sweep.dtau:
            stop = "tol"
            break
        if stop_dead and float(np.min(phi[:, mid] / u_star)) < 0.5:
            stop = "dead"
            break
        if stop_mu is not None and float(np.dot(stop_mu, flux_integrals(phi))) - c <= 0.0:
            stop = "sign"
            break
    return phi, it, stop, source, flux_integrals(phi)


def _reference_minimal_speed(model, kerns, moment, rate, lam_max=INFINITE):
    """The minimizer of s(lam) / rate(lam) as first written, one eigenvalue call per rate."""
    J0 = rx.jacobian(model, np.zeros(model.m))

    def speed(lam):
        A = J0.copy()
        for i in range(model.m0):
            A[i, i] += model.d[i] * (moment(i, lam) - 1.0)
        return float(np.max(np.real(np.linalg.eigvals(A)))) / rate(lam)

    lam_hi = min(k.exp_abscissa for k in kerns)
    if lam_hi <= 0.0:
        return INFINITE, math.nan, speed
    core = min(k.core_scale for k in kerns)
    hi = lam_hi * (1.0 - 1e-9) if math.isfinite(lam_hi) else 200.0 / core
    hi = min(hi, lam_max, *(k.overflow_rate for k in kerns))
    grid, best, arg = np.geomspace(1e-4 / core, hi, 600), math.inf, math.nan
    while True:
        vals = [speed(lam) for lam in grid]
        j = int(np.argmin(vals))
        if vals[j] < best:
            best, arg = vals[j], float(grid[j])
        a, b = grid[max(j - 1, 0)], grid[min(j + 1, grid.size - 1)]
        if b - a <= 1e-10 * b:
            return best, arg, speed
        grid = np.linspace(a, b, 65)


def _reference_linearized_speed(model, kern):
    kerns = (kern,) * model.m0
    return _reference_minimal_speed(model, kerns,
                                    lambda i, lam: two_sided_exp_moment(kerns[i], lam),
                                    lambda lam: lam)[0]


def _reference_discrete_speed(model, kern, dx, L):
    kerns = (kern,) * model.m0
    n, h = sw._mesh(kerns, L, dx)
    stencils = _ReferenceSweep(0.0, model, kerns, n, h).stencils
    offsets = [h * np.arange(-half, half + 1) for _, half, _ in stencils]
    c_h, lam, speed = _reference_minimal_speed(
        model, kerns, lambda i, lam: float(np.dot(stencils[i][0], np.exp(lam * offsets[i]))),
        lambda lam: -math.expm1(-lam * h) / h, 700.0 / max(o[-1] for o in offsets))
    if not math.isfinite(c_h):
        return c_h, math.nan, math.nan
    step = 1e-3 * lam
    curvature = (speed(lam + step) - 2.0 * c_h + speed(lam - step)) / step ** 2
    return c_h, lam, 0.5 * math.pi ** 2 * curvature


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _table_kernel(scale):
    x = np.linspace(-30.0 * scale, 30.0 * scale, 2401)
    return make_kernel(KernelSpec.table(x, np.exp(-np.abs(x) / scale)))


# every family, with a core scale of 4 dx (8 dx for the table, whose core is
# its half width at half maximum); the uniform support edge on and off a
# node; the power law's stencil cut at 64 core scales, past the window
SWEEP_KERNELS = {
    "laplace": lambda dx: make_kernel(KernelSpec.laplace(4.0 * dx)),
    "gaussian": lambda dx: make_kernel(KernelSpec.gaussian(4.0 * dx)),
    "uniform_on_a_node": lambda dx: make_kernel(KernelSpec.uniform(6.0 * dx)),
    "uniform_off_the_nodes": lambda dx: make_kernel(KernelSpec.uniform(6.37 * dx)),
    "powerlaw_at_the_cap": lambda dx: make_kernel(KernelSpec.powerlaw(1.5, 4.0 * dx)),
    "table": lambda dx: _table_kernel(8.0 * dx),
}


@st.composite
def sweep_problems(draw, family, kind):
    """(model, kernels, n, dx) for a kernel family and a preset, or a custom model with m0 < m."""
    dx = draw(st.sampled_from((0.125, 0.25)))
    kern = SWEEP_KERNELS[family](dx)
    if kind == "custom":
        model = rx.custom(["(1 - u1)*u2 - 0.5*u1", "(1 - u2)*u1 - 0.5*u2"],
                          {}, m0=1, u_ceiling=[1.0, 1.0])
    else:
        model = draw(preset_models(kind, dispersal=True))
    n = draw(st.integers(20, 40)) * int(round(kern.core_scale / dx)) + 1
    return model, (kern,) * model.m0, n, dx


class TestFrozenReferences:
    @pytest.mark.parametrize("kind", sorted(PRESETS) + ["custom"])
    @pytest.mark.parametrize("family", sorted(SWEEP_KERNELS))
    @settings(max_examples=3, deadline=None)
    @given(data=st.data(), c=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
           seed=st.integers(0, 2**32 - 1))
    def test_sweep_is_the_reference_bitwise(self, family, kind, data, c, seed):
        model, kerns, n, dx = data.draw(sweep_problems(family, kind))
        T = sw._Sweep(c, model, kerns, n, dx)
        ref = _ReferenceSweep(c, model, kerns, n, dx)
        rng = np.random.default_rng(seed)
        phi = T.u_star[:, None] * rng.uniform(0.0, 1.0, (model.m, n))
        # two calls in a row: the kept buffers carry nothing into the next
        first = T(phi)
        want, step = ref(phi)
        assert _bits(first) == _bits(want) and _bits(T.step) == _bits(step)
        second = T(first)
        want, step = ref(want)
        assert _bits(second) == _bits(want) and _bits(T.step) == _bits(step)
        assert _bits(first) == _bits(ref(phi)[0])

    @pytest.mark.parametrize("c,kw,stop", [
        (0.3, dict(tol=1e-10), "tol"),
        (2.5, dict(stop_dead=True), "dead"),
        (0.5, dict(stop_mu=1.0), "sign"),
        (0.5, dict(max_iter=40, strict=False), "budget"),
    ], ids=["tol", "dead", "sign", "budget"])
    def test_every_stop_is_the_reference_bitwise(self, model, laplace1, c, kw, stop):
        sol = sw.solve_profile(c, model, laplace1, 30.0, dx=0.25, **kw)
        kw.pop("strict", None)
        want = _reference_solve(c, model, laplace1, 30.0, 0.25, **kw)
        assert (sol.stop, sol.start) == (stop, "saturated")
        self._same(sol, want)

    def test_every_start_is_the_reference_bitwise(self, model, laplace1):
        kw = dict(dx=0.25, tol=1e-10)
        low = sw.solve_profile(0.3, model, laplace1, 30.0, **kw)
        self._same(low, _reference_solve(0.3, model, laplace1, 30.0, 0.25, tol=1e-10))
        warm = sw.solve_profile(0.5, model, laplace1, 30.0, start=low, **kw)
        assert warm.start == "speed"
        self._same(warm, _reference_solve(0.5, model, laplace1, 30.0, 0.25, tol=1e-10,
                                          start=low))
        part = sw.solve_profile(0.5, model, laplace1, 30.0, max_iter=25, strict=False, **kw)
        resumed = sw.solve_profile(0.5, model, laplace1, 30.0, start=part, **kw)
        assert resumed.start == "resume"
        self._same(resumed, _reference_solve(0.5, model, laplace1, 30.0, 0.25, tol=1e-10,
                                             start=part))

    @staticmethod
    def _same(sol, want):
        phi, iterations, stop, start, flux = want
        assert _bits(sol.phi) == _bits(phi)
        assert (sol.iterations, sol.stop, sol.start) == (iterations, stop, start)
        assert _bits(sol.flux_integrals) == _bits(flux)

    @pytest.mark.parametrize("kind", sorted(PRESETS))
    @pytest.mark.parametrize("spec", [
        KernelSpec.laplace(1.0), KernelSpec.gaussian(0.8), KernelSpec.uniform(1.3),
        KernelSpec.powerlaw(3.0, 1.0)], ids=lambda spec: spec.family)
    @settings(max_examples=2, deadline=None)
    @given(data=st.data())
    def test_linear_speeds_are_the_reference_bitwise(self, kind, spec, data):
        model = data.draw(preset_models(kind, dispersal=True))
        kern = make_kernel(spec)
        lin = sw.linearized_front_speed(model, kern)
        assert _bits(lin) == _bits(_reference_linearized_speed(model, kern))
        got = sw.discrete_linear_speed(model, kern, 0.125, 50.0)
        assert _bits(got) == _bits(_reference_discrete_speed(model, kern, 0.125, 50.0))
        # a power-law tail has no exponential moment: the INFINITE return
        assert (lin == INFINITE) == (got[0] == INFINITE) == (spec.family == "powerlaw")
