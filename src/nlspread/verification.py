"""Machine-checkable verification suites over the shipped scenario presets.

Each suite returns a list of CriterionResult rows with measured values, so
the CLI can print one pass/fail line per check and archive a JSON report.
Heavy artifacts (long simulations, speed estimates) are memoized at module
level and shared between suites and the acceptance tests; everything is
deterministic, so caching cannot change results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .analysis import best_growth_law, compare_orderings, fit_front
from .cauchy import CauchyConfig, run_cauchy
from .config import build_cauchy_config, build_fb_config, load_scenario, scenario_dir
from .freeboundary import FBConfig, _wedges, classify_outcome, run
from .kernels import INFINITE, KernelSpec, make_kernel
from .nonlocal_ops import _convolve_direct, _convolve_fft, convolve_values, kernel_weights
from .reactions import (NoPositiveRoot, cholera, positive_equilibrium,
                        verify_assumptions, wnv)
from .semiwave import estimate_cstar, find_c0


@dataclass
class CriterionResult:
    name: str
    passed: bool
    measured: dict
    detail: str


def _row(name: str, passed: bool, measured: dict, detail: str) -> CriterionResult:
    return CriterionResult(name, bool(passed), measured, detail)


# ----------------------------------------------------------------------
# memoized heavy artifacts

def _wnv():
    return wnv(1.0, 1.0, 0.5, 0.5, 1.0, 1.0)


@cache
def bundled(name: str) -> dict:
    return load_scenario(scenario_dir() / f"{name}.json")


@cache
def fb_bundled(name: str):
    """(config, series) for one of the shipped moving-range scenarios."""
    cfg = build_fb_config(bundled(name))
    return cfg, run(cfg)


@cache
def cauchy_bundled(name: str):
    cfg = build_cauchy_config(bundled(name))
    return cfg, run_cauchy(cfg)


_C0_PROFILE_CACHE: dict = {}


@cache
def c0_result(mu: float):
    """Edge speed at the given expansion coefficient; profile cache shared."""
    return find_c0(_wnv(), make_kernel(KernelSpec.laplace(1.0)), mu, cache=_C0_PROFILE_CACHE)


@cache
def cstar_result():
    """Minimal-speed estimate with library defaults (the slow artifact)."""
    return estimate_cstar(_wnv(), make_kernel(KernelSpec.laplace(1.0)))


@cache
def mu_triple():
    """Moving-range runs at mu in {1, 10, 100} plus the whole-line companion.

    Same model, kernel, lattice, default wedge data, and horizon, so the
    trajectories are directly comparable sample by sample.
    """
    model = _wnv()
    kern = make_kernel(KernelSpec.laplace(1.0))
    shared = dict(model=model, kernels=kern, h0=10.0, dx=0.25, t_end=40.0)
    runs = {m: run(FBConfig(mu=m, **shared)) for m in (1.0, 10.0, 100.0)}
    comp = run_cauchy(CauchyConfig(**shared))
    return runs, comp


@cache
def powerlaw_fb(gamma: float, t_end: float):
    cfg = FBConfig(model=_wnv(), kernels=make_kernel(KernelSpec.powerlaw(gamma)),
                   mu=1.0, h0=10.0, dx=0.25, t_end=t_end)
    return cfg, run(cfg)


@cache
def mesh_halving_pair():
    """Smoke scenario at (dx, dt) and (dx/2, dt/2)."""
    model = _wnv()
    kern = make_kernel(KernelSpec.laplace(1.0))
    coarse = FBConfig(model=model, kernels=kern, mu=1.0, h0=10.0,
                      dx=0.25, t_end=60.0)
    dt = coarse.timestep()
    fine = FBConfig(model=model, kernels=kern, mu=1.0, h0=10.0,
                    dx=0.125, t_end=60.0, dt=dt / 2)
    return run(coarse), run(fine)


def aitken_limit(seq) -> tuple[float | None, float | None]:
    """Aitken delta-squared limit of the last three terms of ``seq``.

    Returns ``(limit, d2 / d1)`` for the increments d1, d2.  The
    extrapolation assumes geometrically contracting increments, so the
    limit is None unless 0 < d2 / d1 < 1 (the ratio is None when d1 = 0).
    """
    a, b, c = seq[-3:]
    d1, d2 = b - a, c - b
    if d1 == 0.0:
        return None, None
    ratio = d2 / d1
    if not 0.0 < ratio < 1.0:
        return None, ratio
    return c + d2 * ratio / (1.0 - ratio), ratio


# ----------------------------------------------------------------------
# suites

def suite_kernels(seed: int = 0) -> list[CriterionResult]:
    rows = []
    flags = {}
    ok = True
    for gamma in (1.5, 2.0, 3.0):
        kern = make_kernel(KernelSpec.powerlaw(gamma))
        first, expo = kern.first_moment < INFINITE, kern.exp_abscissa > 0.0
        flags[f"powerlaw_{gamma}"] = {
            "finite_first_moment": first,
            "finite_exponential_moment": expo,
            "gamma_hat": kern.gamma_hat,
        }
        ok &= first is (gamma > 2.0)
        ok &= expo is False
        ok &= kern.gamma_hat is not None and abs(kern.gamma_hat - gamma) < 0.1
    rows.append(_row("polynomial_tail_classification", ok, flags,
                     "first-moment flag flips between gamma 2 and 3; "
                     "tail exponent recovered within 0.1"))
    light = {}
    ok = True
    for spec in (KernelSpec.laplace(1.0), KernelSpec.uniform(1.0),
                 KernelSpec.gaussian(1.0)):
        kern = make_kernel(spec)
        first, expo = kern.first_moment < INFINITE, kern.exp_abscissa > 0.0
        light[spec.family] = {
            "finite_first_moment": first,
            "finite_exponential_moment": expo,
        }
        ok &= first and expo
    rows.append(_row("thin_tail_classification", ok, light,
                     "laplace, uniform, gaussian all carry exponential moments"))
    return rows


def suite_reactions(seed: int = 0) -> list[CriterionResult]:
    rows = []
    star_w = positive_equilibrium(_wnv())
    err_w = float(np.max(np.abs(star_w - 0.5)))
    rows.append(_row("wnv_equilibrium_closed_form", err_w < 1e-10,
                     {"u_star": star_w.tolist(), "error": err_w},
                     f"|u* - (0.5, 0.5)| = {err_w:.2e}"))
    star_c = positive_equilibrium(cholera(1.0, 1.0, 1.0, 2.0, 3.0))
    err_c = float(np.max(np.abs(star_c - 1.0 / 3.0)))
    rows.append(_row("cholera_equilibrium_closed_form", err_c < 1e-10,
                     {"u_star": star_c.tolist(), "error": err_c},
                     f"|u* - (1/3, 1/3)| = {err_c:.2e}"))
    try:
        positive_equilibrium(wnv(1.0, 1.0, 1.0, 1.0, 1.0, 1.0))
        degenerate_ok, msg = False, "no error raised"
    except NoPositiveRoot as e:
        degenerate_ok, msg = True, str(e)
    rows.append(_row("degenerate_reproduction_rejected", degenerate_ok,
                     {}, msg))

    rep_w = verify_assumptions(_wnv(), n_samples=256, seed=seed)
    rows.append(_row("wnv_structural_checks_pass", rep_w.passed_all_static,
                     {"failures": rep_w.failures},
                     "all static structural checks pass with the bounded box"))
    rep_c = verify_assumptions(cholera(1.0, 1.0, 1.0, 2.0, 3.0),
                               n_samples=256, seed=seed)
    only_ray = rep_c.failures == ["positive_ray_drift"]
    rows.append(_row("cholera_fails_only_ray_drift", only_ray,
                     {"failures": rep_c.failures},
                     "the linear pathogen rate vanishes on the equilibrium "
                     f"ray, so only that check fails: {rep_c.failures}"))
    return rows


def _smallest_width(kern, reach: int, shape, eps=0.05, dx=0.25):
    """Smallest w in 5, 10, ..., 200 with J * phi >= (1 - eps) phi at every node.

    phi = shape(x, w) on the nodes |x| <= reach w, zero outside.
    """
    for w in range(5, 205, 5):
        half = int(round(reach * w / dx))
        x = np.arange(-half, half + 1) * dx
        phi = shape(x, w)
        conv = convolve_values(kern, phi, dx)
        if np.all(conv >= (1.0 - eps) * phi - 1e-12):
            return w
    return None


def suite_quadrature(seed: int = 0) -> list[CriterionResult]:
    rows = []
    for family, spec in (("uniform", KernelSpec.uniform(1.0)),
                         ("laplace", KernelSpec.laplace(1.0))):
        kern = make_kernel(spec)
        tent = _smallest_width(kern, 1, lambda x, l: l - np.abs(x))
        ramp = _smallest_width(kern, 2, lambda x, s: np.minimum(1.0, (2.0 * s - np.abs(x)) / s))
        ok = tent is not None and tent <= 200 and ramp is not None and ramp <= 200
        rows.append(_row(f"profile_smoothing_bounds_{family}", ok,
                         {"smallest_tent_halfwidth": tent,
                          "smallest_ramp_width": ramp},
                         f"tent passes from l = {tent}, plateau-ramp from "
                         f"s = {ramp} (5% loss budget, node-wise)"))
    return rows


def suite_dichotomy(seed: int = 0) -> list[CriterionResult]:
    rows = []
    cfg_s, series_s = fb_bundled("wnv_spreading")
    outcome_s = classify_outcome(series_s, cfg_s)
    rows.append(_row("bundled_spreading_outcome", outcome_s == "Spreading",
                     {"outcome": outcome_s, "final_h": series_s.h[-1]},
                     f"outcome {outcome_s}, h({cfg_s.t_end:g}) = "
                     f"{series_s.h[-1]:.1f}"))
    cfg_v, series_v = fb_bundled("wnv_vanishing")
    outcome_v = classify_outcome(series_v, cfg_v)
    rows.append(_row("bundled_vanishing_outcome", outcome_v == "Vanishing",
                     {"outcome": outcome_v, "final_umax": series_v.u_max[-1]},
                     f"outcome {outcome_v}, final amplitude "
                     f"{series_v.u_max[-1]:.2e}"))

    star = positive_equilibrium(cfg_s.model)
    gf = series_s.final_state.u
    msk = np.abs(gf.x) <= cfg_s.h0
    gap = float(np.max(np.abs(gf.values[:, msk] - star[:, None])))
    bound = 0.05 * float(np.max(star))
    rows.append(_row("interior_convergence_to_equilibrium", gap < bound,
                     {"sup_gap": gap, "bound": bound},
                     f"sup over the seeded core of |u - u*| = {gap:.4f} "
                     f"(bound {bound:.4f})"))

    sym = float(np.max(np.abs(series_s.g + series_s.h)))
    rows.append(_row("symmetry_preserved", sym <= 1e-12,
                     {"max_asym": sym},
                     f"max |g + h| = {sym:.2e} across all samples"))

    confine = []
    for name, kind in (("wnv_spreading", "fb"), ("wnv_vanishing", "fb"),
                       ("cauchy_wnv_laplace", "cauchy"),
                       ("cauchy_wnv_powerlaw15", "cauchy")):
        cfg, series = fb_bundled(name) if kind == "fb" else cauchy_bundled(name)
        ceil = cfg.model.u_ceiling
        vals = series.final_state.u.values
        ok = bool(np.all(vals >= 0)
                  and (ceil is None or np.all(vals <= ceil[:, None] * (1 + 1e-9))))
        confine.append(ok)
    rows.append(_row("invariant_region_confinement", all(confine),
                     {"runs": confine},
                     "all bundled runs finish inside [0, ceiling] with no "
                     "stability error raised"))

    model = _wnv()
    kern = make_kernel(KernelSpec.laplace(1.0))

    def amp_run(scale):
        profs = _wedges(0.5 * positive_equilibrium(model) * scale, 5.0)
        return run(FBConfig(model=model, kernels=kern, mu=1.0, h0=5.0,
                            dx=0.25, t_end=8.0, initial_profiles=profs,
                            snapshot_times=(4.0, 8.0)))
    low, high = amp_run(0.7), amp_run(1.0)
    report = compare_orderings(low, high)
    rows.append(_row("ordered_data_stays_ordered", report.ordered,
                     {"checked_times": report.checked_times},
                     "smaller wedge stays below the larger one in range and "
                     "state at every common sample"))

    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.0, 1.0, size=1501)
    weights = kernel_weights(kern, 0.25, max_half_width=vals.size - 1)
    direct = _convolve_direct(vals, weights)
    fft = _convolve_fft(vals, weights)
    conv_gap = float(np.max(np.abs(direct - fft)))
    rows.append(_row("fft_matches_direct_convolution", conv_gap < 1e-10,
                     {"max_abs_gap": conv_gap},
                     f"max |direct - fft| = {conv_gap:.2e}"))

    coarse, fine = mesh_halving_pair()
    rel = abs(coarse.h[-1] - fine.h[-1]) / fine.h[-1]
    rows.append(_row("mesh_halving_self_convergence", rel < 0.05,
                     {"h_coarse": coarse.h[-1], "h_fine": fine.h[-1],
                      "rel_change": rel},
                     f"h(t_end) changes by {100 * rel:.2f}% under (dx, dt) "
                     f"halving"))
    return rows


def suite_speeds(seed: int = 0) -> list[CriterionResult]:
    rows = []
    r1 = c0_result(1.0)
    cfg_s, series_s = fb_bundled("wnv_spreading")
    t_end = series_s.t[-1]
    slope_h = fit_front(series_s, "linear").coefficient
    slope_g = fit_front(series_s, "linear", signal="neg_g").coefficient
    rel = abs(slope_h - r1.speed) / r1.speed
    rows.append(_row("edge_speed_matches_front_slope", rel < 0.05,
                     {"slope_h": slope_h, "c0": r1.speed, "rel_gap": rel},
                     f"tail slope {slope_h:.4f} vs flux-balance speed "
                     f"{r1.speed:.4f} ({100 * rel:.1f}% apart)"))
    both = abs(slope_h - slope_g) / slope_h
    rows.append(_row("left_right_slopes_agree", both < 0.01,
                     {"slope_h": slope_h, "slope_neg_g": slope_g,
                      "rel_gap": both},
                     f"right {slope_h:.4f} vs left {slope_g:.4f} "
                     f"({100 * both:.2f}% apart)"))

    est = cstar_result()
    r100 = c0_result(100.0)
    rows.append(_row("edge_speed_below_minimal_speed", est.value >= r100.speed,
                     {"cstar": est.value, "c0_mu100": r100.speed},
                     f"threshold estimate {est.value:.4f} >= large-coefficient "
                     f"edge speed {r100.speed:.4f}"))
    r1k = c0_result(1000.0)
    r10k = c0_result(10000.0)
    ladder = [r.speed for r in (r100, r1k, r10k)]
    gaps = [(est.value - c) / est.value for c in ladder]
    c_inf, ratio = aitken_limit(ladder)
    limit_gap = None if c_inf is None else abs(c_inf - est.value) / est.value
    rows.append(_row("large_mu_limit_matches_minimal_speed",
                     limit_gap is not None and limit_gap < 0.05,
                     {"mu": [100, 1000, 10000], "c0": ladder,
                      "increment_ratio": ratio, "c0_limit": c_inf,
                      "cstar": est.value, "cstar_linearized": est.linearized,
                      "limit_gap": limit_gap, "gap_mu100": gaps[0]},
                     "no limit: increments along mu = 100, 1e3, 1e4 do not "
                     f"contract (ratio {ratio})" if c_inf is None else
                     f"Aitken limit of c0 along mu = 100, 1e3, 1e4 is "
                     f"{c_inf:.4f}, {100 * limit_gap:.1f}% from the threshold "
                     f"{est.value:.4f} (increment ratio {ratio:.3f}; raw gap "
                     f"at mu=100 {100 * gaps[0]:.1f}%)"))
    rows.append(_row("edge_speed_gap_shrinks_with_mu",
                     gaps[0] > gaps[1] > gaps[2],
                     {"gaps": gaps},
                     "relative gap to the threshold decreases along "
                     f"mu = 100, 1e3, 1e4: {[f'{100 * g:.1f}%' for g in gaps]}"))

    _, cseries = cauchy_bundled("cauchy_wnv_laplace")
    arr = cseries.levels[(0, 0.25)]
    t, xp = arr[:, 0], arr[:, 2]
    keep = np.isfinite(xp) & (t >= 170.0)
    speed = fit_front((t[keep], xp[keep]), "linear",
                      window=(170.0, float(t[-1]))).coefficient
    rel_c = abs(speed - est.value) / est.value
    rows.append(_row("whole_line_level_speed_near_minimal_speed", rel_c < 0.10,
                     {"level_speed": speed, "cstar": est.value,
                      "rel_gap": rel_c},
                     f"half-saturation level speed {speed:.4f} vs threshold "
                     f"{est.value:.4f} ({100 * rel_c:.1f}% apart)"))
    return rows


def suite_limits(seed: int = 0) -> list[CriterionResult]:
    rows = []
    speeds = [c0_result(m).speed for m in (1.0, 2.0, 4.0, 8.0)]
    rows.append(_row("edge_speed_nondecreasing_in_mu",
                     all(a <= b for a, b in zip(speeds, speeds[1:])),
                     {"mu": [1, 2, 4, 8], "c0": speeds},
                     f"speeds {[f'{s:.4f}' for s in speeds]}"))

    runs, comp = mu_triple()
    h1, h10, h100 = (runs[m].h for m in (1.0, 10.0, 100.0))
    mono = bool(np.all(h1 <= h10 + 1e-12) and np.all(h10 <= h100 + 1e-12))
    rows.append(_row("range_edge_nondecreasing_in_mu", mono,
                     {"final_h": [h1[-1], h10[-1], h100[-1]]},
                     f"h(t_end) = {h1[-1]:.2f}, {h10[-1]:.2f}, {h100[-1]:.2f} "
                     f"for mu = 1, 10, 100, ordered at every sample"))

    ugrid = comp.final_state.u
    window = np.abs(ugrid.x) <= 10.0
    sups = []
    for m in (1.0, 10.0, 100.0):
        gf = runs[m].final_state.u
        msk_f = np.abs(gf.x) <= 10.0
        ref = ugrid.values[:, window]
        cur = gf.values[:, msk_f]
        n = min(ref.shape[1], cur.shape[1])
        lo_r = (ref.shape[1] - n) // 2
        lo_c = (cur.shape[1] - n) // 2
        sups.append(float(np.max(np.abs(cur[:, lo_c:lo_c + n]
                                        - ref[:, lo_r:lo_r + n]))))
    rows.append(_row("large_mu_approaches_whole_line_solution",
                     sups[0] > sups[1] > sups[2],
                     {"sup_gaps": sups},
                     "sup gap to the whole-line run over the seeded core "
                     f"falls {sups[0]:.4f} -> {sups[1]:.4f} -> {sups[2]:.4f}"))

    _, s15 = powerlaw_fb(1.5, 60.0)
    law15, rep15 = best_growth_law(s15)
    p = rep15.exponent
    ok15 = law15 == "power" and p is not None and abs(p - 2.0) / 2.0 < 0.15
    rows.append(_row("heavy_tail_power_growth", ok15,
                     {"selected": law15, "exponent": p,
                      "r_squared": rep15.r_squared},
                     f"selected {law15} with exponent {p:.3f} "
                     f"(target 2, 15% band)"))

    _, s20 = powerlaw_fb(2.0, 150.0)
    full = (1.5, 150.0)
    lin = fit_front(s20, "linear", window=full)
    tl = fit_front(s20, "tlogt", window=full)
    dr2 = tl.r_squared - lin.r_squared
    rows.append(_row("borderline_tail_log_corrected_growth", dr2 > 1e-3,
                     {"r2_tlogt": tl.r_squared, "r2_linear": lin.r_squared,
                      "delta": dr2},
                     f"log-corrected fit beats linear by delta r^2 = "
                     f"{dr2:.2e} on the full usable window"))

    ccfg, cs = cauchy_bundled("cauchy_wnv_powerlaw15")
    arr = cs.levels[(0, 0.25)]
    t, xp = arr[:, 0], arr[:, 2]
    keep = np.isfinite(xp) & (xp > 0)
    repp = fit_front((t[keep], xp[keep]), "power")
    rows.append(_row("heavy_tail_whole_line_superlinear",
                     repp.exponent is not None and repp.exponent > 1.3,
                     {"exponent": repp.exponent, "r_squared": repp.r_squared},
                     f"level trajectory grows like t^{repp.exponent:.2f} "
                     f"on the tail window"))

    probe = 0.9 * fit_front(fb_bundled("wnv_spreading")[1], "linear").coefficient
    star = positive_equilibrium(ccfg.model)
    sups = []
    for tt, gf in cs.snapshots[-3:]:
        msk = np.abs(gf.x) <= probe * tt
        sups.append(float(np.max(np.abs(gf.values[:, msk] - star[:, None]))))
    rows.append(_row("interior_convergence_inside_probe_cone",
                     sups[0] > sups[1] > sups[2],
                     {"snapshot_sups": sups, "probe_speed": probe},
                     "equilibrium gap inside the slow probe cone shrinks "
                     f"across the final snapshots: "
                     f"{', '.join(f'{s:.3e}' for s in sups)}"))
    return rows


_SUITES = {
    "kernels": suite_kernels,
    "reactions": suite_reactions,
    "quadrature": suite_quadrature,
    "dichotomy": suite_dichotomy,
    "speeds": suite_speeds,
    "limits": suite_limits,
}


def run_suite(name: str, seed: int = 0) -> list[CriterionResult]:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from {sorted(_SUITES)}")
    return _SUITES[name](seed=seed)
