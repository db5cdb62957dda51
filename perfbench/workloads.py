"""The benchmark's four workloads: inputs from a seed, operations, checks.

``build(name, seed, work)`` is the set-up a user pays before the first
operation: load and validate the bundled scenarios, perturb them by the
seed, write the perturbed copies, and build configs, kernels and model.
Seed 0 keeps every bundled input exactly as shipped.

Each operation runs through the package's public entry points (the CLI
``main`` or the ``semiwave`` readouts), looked up at call time so a
tracer can wrap them.  Each check returns a list of problems, empty when
the output holds; checks compare against ``checks`` (numpy and closed
forms), never against stored output.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from nlspread import cli, config, semiwave

import checks

# half-width of the uniform band each seed draws its factor from
BANDS = {
    "moving_range": {"amplitude": 0.10, "mu100": 0.10},
    "whole_line_heavy_tail": {"amplitude": 0.05},
    "edge_speed_ladder": {"mu": 0.02},
    "threshold_speed": {"time_scale": 0.05},
}

MU_LADDER = (1.0, 1e2, 1e3, 1e4)
CORE_TOL = 0.05            # core within 5% of the equilibrium
FIT_RTOL = 1e-6            # two least-squares solvers on the same data
SYMMETRY_RTOL = 1e-12      # FFT path: mirror symmetric to roundoff
AITKEN_RTOL = 0.05         # large-mu limit of c0 against the linear speed


def factors(name: str, seed: int) -> dict:
    """Perturbation factors of one workload; all exactly 1 for seed 0."""
    rng = random.Random(f"{name}:{seed}")
    return {k: 1.0 if seed == 0 else 1.0 + band * (2.0 * rng.random() - 1.0)
            for k, band in sorted(BANDS[name].items())}


@dataclass
class Round:
    """What one round of operations shares: its directory and speed cache."""
    dir: Path
    cache: dict = field(default_factory=dict)


@dataclass
class Op:
    name: str
    run: Callable[[Round], object]
    # check(output, outputs of the round by op name, round) -> problems
    check: Callable[[object, dict, Round], list]


@dataclass
class Workload:
    name: str
    ops: list
    prepare: Callable[[Path], None] = lambda rd: None   # untimed, per round


# ----------------------------------------------------------------------
# helpers

def _cli(*argv) -> None:
    rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"nlspread {argv[0]} exited with {rc}")


def _csv(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        cols = fh.readline().strip().split(",")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # a header-only file is valid output
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.size == 0:
        data = np.empty((0, len(cols)))
    return {c: data[:, i] for i, c in enumerate(cols)}


def _json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write(path: Path, scenario: dict) -> Path:
    path.write_text(json.dumps(scenario, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _bundled(name: str) -> dict:
    return config.load_scenario(config.scenario_dir() / f"{name}.json")


def _with_amplitude(scenario: dict, factor: float) -> dict:
    """Half-equilibrium wedges (the simulators' default) scaled by factor."""
    if factor == 1.0:
        return dict(scenario)
    u_star = checks.wnv_equilibrium(scenario["model"]["params"])
    return {**scenario, "initial": {"amplitude": list(0.5 * factor * u_star)}}


def _state_bounds(snap: dict, params: dict) -> list:
    """0 <= u_i <= e_i, the invariant box of the wnv system."""
    problems = []
    for i, cap in enumerate((params["e1"], params["e2"])):
        u = snap[f"u{i + 1}"]
        if u.size and not (np.min(u) >= 0.0 and np.max(u) <= cap):
            problems.append(f"u{i + 1} leaves [0, {cap}]: "
                            f"[{np.min(u):.3g}, {np.max(u):.3g}]")
    return problems


def _mirror_edges(fronts: dict) -> list:
    bad = np.nonzero(fronts["g"] != -fronts["h"])[0]
    return [f"g != -h bitwise in {bad.size} rows, first t = {fronts['t'][bad[0]]}"] \
        if bad.size else []


# ----------------------------------------------------------------------
# moving_range: simulate-fb on the bundled pair, a mu = 100 copy, fit

def _edge_law(out: Path, scenario: dict) -> list:
    """Edge velocity = mu * flux, the flux recomputed from each snapshot.

    The tolerance leaves room for an O(dx^2) change of quadrature.
    """
    fronts = _csv(out / "fronts.csv")
    snaps = _csv(out / "snapshots.csv")
    summary = _json(out / "summary.json")
    dt, dx = summary["numerics"]["dt"], summary["numerics"]["dx"]
    mu = float(scenario["mu"])
    problems, checked = [], 0
    for t in np.unique(snaps["t"]):
        k = np.nonzero(fronts["t"] == t)[0]
        if k.size != 1 or k[0] + 1 >= fronts["t"].size:
            continue                   # last sample: no following edge step
        k = int(k[0])
        g, h = fronts["g"][k], fronts["h"][k]
        rows = snaps["t"] == t
        x = snaps["x"][rows]
        for side, speed in (("right", (fronts["h"][k + 1] - h) / dt),
                            ("left", -(fronts["g"][k + 1] - g) / dt)):
            flux = sum(checks.edge_flux(x, snaps[f"u{i + 1}"][rows], g, h, side)
                       for i in range(2))
            if not abs(speed - mu * flux) <= 0.5 * dx * dx * mu * flux:
                problems.append(f"{side} edge speed {speed:.10g} != mu * flux "
                                f"{mu * flux:.10g} at t = {t:g}")
        checked += 1
    if checked == 0:
        problems.append("no snapshot with a following edge step to check")
    return problems


def _check_spreading(out: Path, scenario: dict) -> list:
    problems = []
    summary = _json(out / "summary.json")
    if summary["outcome"] != "Spreading":
        problems.append(f"outcome {summary['outcome']}, expected Spreading")
    problems += _mirror_edges(_csv(out / "fronts.csv"))
    snaps = _csv(out / "snapshots.csv")
    params = scenario["model"]["params"]
    problems += _state_bounds(snaps, params)
    u_star = checks.wnv_equilibrium(params)
    last = snaps["t"] == snaps["t"].max()
    core = last & (np.abs(snaps["x"]) <= scenario["h0"])
    for i in range(2):
        dev = np.max(np.abs(snaps[f"u{i + 1}"][core] - u_star[i])) / u_star[i]
        if not dev <= CORE_TOL:
            problems.append(f"core u{i + 1} is {dev:.1%} from u* = {u_star[i]:.6g}")
    return problems + _edge_law(out, scenario)


def _check_vanishing(out: Path, scenario: dict) -> list:
    summary = _json(out / "summary.json")
    problems = [] if summary["outcome"] == "Vanishing" else [
        f"outcome {summary['outcome']}, expected Vanishing"]
    problems += _state_bounds(_csv(out / "snapshots.csv"), scenario["model"]["params"])
    return problems + _mirror_edges(_csv(out / "fronts.csv"))


def _check_mu100(out: Path, scenario: dict, base: Path | None) -> list:
    fronts = _csv(out / "fronts.csv")
    problems = _mirror_edges(fronts)
    problems += _state_bounds(_csv(out / "snapshots.csv"), scenario["model"]["params"])
    problems += _edge_law(out, scenario)
    if base is None:
        return problems + ["no mu = 1 run to compare edges with"]
    ref = _csv(base / "fronts.csv")
    common, ia, ib = np.intersect1d(fronts["t"], ref["t"], return_indices=True)
    if common.size < 2:
        problems.append("the mu = 100 and mu = 1 runs share no sample times")
    elif np.any(fronts["h"][ia] < ref["h"][ib]):
        bad = int(np.argmax(fronts["h"][ia] < ref["h"][ib]))
        problems.append(f"mu = 100 edge below the mu = 1 edge at t = {common[bad]:g}")
    return problems


def _check_fit(out: Path, fronts_path: Path) -> list:
    fits = _json(out / "fits.json")["fits"]
    fronts = _csv(fronts_path)
    problems = []
    for signal, entry in fits.items():
        t = fronts["t"]
        y = fronts["h"] if signal == "h" else -fronts["g"]
        law = entry["model"]
        lo, hi = entry["window"]
        sel = (t >= lo) & (t <= hi)
        if law in ("tlogt", "power"):
            sel &= t > 1.0
        if law == "power":
            sel &= y > 0.0
        coef, second = checks.growth_fit(t[sel], y[sel], law)
        got = entry["params"][0]
        if not abs(got - coef) <= FIT_RTOL * abs(coef):
            problems.append(f"{signal}: {law} coefficient {got:.12g}, "
                            f"independent fit {coef:.12g}")
        if law == "power" and not abs(entry["params"][1] - second) <= FIT_RTOL * abs(second):
            problems.append(f"{signal}: power exponent {entry['params'][1]:.12g}, "
                            f"independent fit {second:.12g}")
    if not fits:
        problems.append("fits.json holds no fit")
    return problems


def moving_range(seed: int, work: Path) -> Workload:
    f = factors("moving_range", seed)
    spreading = _with_amplitude(_bundled("wnv_spreading"), f["amplitude"])
    vanishing = _with_amplitude(_bundled("wnv_vanishing"), f["amplitude"])
    num = spreading["numerics"]
    mu100 = {**spreading, "name": "wnv_spreading_mu100", "mu": 100.0 * f["mu100"],
             "numerics": {**num, "t_end": 40.0, "snapshot_times": [20.0, 40.0]}}
    fit = {"name": "fit_wnv_spreading",
           "fit": {"input": "wnv_spreading/fronts.csv", "signals": ["h", "neg_g"]}}
    config.validate_scenario(fit)
    paths = {}
    for sc in (spreading, vanishing, mu100):
        paths[sc["name"]] = _write(work / f"{sc['name']}.json", sc)
        config.build_fb_config(config.load_scenario(paths[sc["name"]]))

    def simulate(name):
        def run(rnd: Round) -> Path:
            _cli("simulate-fb", "--config", paths[name], "--out", rnd.dir / name)
            return rnd.dir / name
        return run

    def run_fit(rnd: Round) -> Path:
        _cli("fit", "--config", rnd.dir / "fit.json", "--out", rnd.dir / "fit")
        return rnd.dir / "fit"

    def prepare(rd: Path) -> None:
        _write(rd / "fit.json", fit)

    return Workload("moving_range", [
        Op("simulate-fb:wnv_spreading", simulate("wnv_spreading"),
           lambda out, prev, rnd: _check_spreading(out, spreading)),
        Op("simulate-fb:wnv_vanishing", simulate("wnv_vanishing"),
           lambda out, prev, rnd: _check_vanishing(out, vanishing)),
        Op("simulate-fb:wnv_spreading_mu100", simulate("wnv_spreading_mu100"),
           lambda out, prev, rnd: _check_mu100(out, mu100,
                                          prev.get("simulate-fb:wnv_spreading"))),
        Op("fit:wnv_spreading", run_fit,
           lambda out, prev, rnd: _check_fit(out, out.parent / "wnv_spreading" / "fronts.csv")),
    ], prepare)


# ----------------------------------------------------------------------
# whole_line_heavy_tail: simulate-cauchy with a gamma = 1.5 kernel

def _check_cauchy(out: Path, scenario: dict) -> list:
    problems = []
    summary = _json(out / "summary.json")
    if not summary["capped"]:
        problems.append("the window was never capped")
    if not (math.isfinite(summary["leak_bound"]) and summary["leak_bound"] > 0):
        problems.append(f"leak bound {summary['leak_bound']} is not finite and positive")
    lv = _csv(out / "levels.csv")
    asym = np.abs(lv["x_minus"] + lv["x_plus"])
    if np.any(asym > SYMMETRY_RTOL * np.maximum(np.abs(lv["x_plus"]), 1.0)):
        problems.append(f"x- != -x+ to 1e-12: worst gap {np.max(asym):.3g}")
    # mean level-set speed over four successive windows of the second half
    t_end = scenario["numerics"]["t_end"]
    t, x = lv["t"], lv["x_plus"]
    speeds = []
    for a, b in zip(np.linspace(0.5, 1.0, 5)[:-1] * t_end,
                    np.linspace(0.5, 1.0, 5)[1:] * t_end):
        ia, ib = int(np.argmin(np.abs(t - a))), int(np.argmin(np.abs(t - b)))
        speeds.append((x[ib] - x[ia]) / (t[ib] - t[ia]) if ib > ia else math.nan)
    c_lin = checks.linear_speed(checks.wnv_jacobian_at_zero(scenario["model"]["params"]),
                                (1.0, 1.0))
    if not (np.all(np.diff(speeds) > 0) and speeds[-1] > c_lin):
        problems.append(f"level-set window speeds {np.round(speeds, 4).tolist()} do not "
                        f"rise to above the Laplace linear speed {c_lin:.4f}")
    problems += _state_bounds(_csv(out / "snapshots.csv"), scenario["model"]["params"])
    return problems


def whole_line_heavy_tail(seed: int, work: Path) -> Workload:
    f = factors("whole_line_heavy_tail", seed)
    scenario = _with_amplitude(_bundled("cauchy_wnv_powerlaw15"), f["amplitude"])
    path = _write(work / "cauchy_wnv_powerlaw15.json", scenario)
    config.build_cauchy_config(config.load_scenario(path))

    def run(rnd: Round) -> Path:
        _cli("simulate-cauchy", "--config", path, "--out", rnd.dir / "cauchy")
        return rnd.dir / "cauchy"

    return Workload("whole_line_heavy_tail", [
        Op("simulate-cauchy:cauchy_wnv_powerlaw15", run,
           lambda out, prev, rnd: _check_cauchy(out, scenario))])


# ----------------------------------------------------------------------
# the two speed readouts share the bundled speeds scenario's model/kernel

def _speeds_inputs(time_scale: float = 1.0):
    """Model and kernels of speeds_wnv_laplace, optionally time-rescaled.

    Scaling a1, a2, b1, b2 and d by s scales every rate by s: profiles are
    unchanged and every speed is multiplied by s.
    """
    scenario = _bundled("speeds_wnv_laplace")
    if time_scale != 1.0:
        params = dict(scenario["model"]["params"])
        for k in ("a1", "a2", "b1", "b2"):
            params[k] *= time_scale
        scenario["model"] = {**scenario["model"], "params": params,
                             "d": [time_scale, time_scale]}
        config.validate_scenario(scenario)
    model = config.build_model(scenario)
    return scenario, model, config.build_kernels(scenario, model.m0)


def _linear_speed(scenario: dict, dx: float | None = None) -> float:
    d = scenario["model"].get("d", (1.0, 1.0))
    scale = scenario["kernels"]["scale"]
    return checks.linear_speed(checks.wnv_jacobian_at_zero(scenario["model"]["params"]),
                               d, scale, dx)


def _check_c0(result, mu: float, cache: dict, tol_c: float) -> list:
    """G(lo) > 0 >= G(hi), G recomputed from the cached profiles."""
    lo, hi = result.bracket
    problems = [] if hi - lo <= tol_c * (1 + 1e-9) else [
        f"bracket width {hi - lo:.3g} above tol_c {tol_c:g}"]
    for c, sign in ((lo, 1), (hi, -1)):
        sol = cache.get(c)
        if sol is None:
            problems.append(f"no cached profile at bracket end c = {c!r}")
            continue
        G = mu * sum(checks.semiwave_flux(sol.x, phi) for phi in sol.phi) - c
        if not (G > 0 if sign > 0 else G <= 0):
            problems.append(f"G({c:.6g}) = {G:.3g} has the wrong sign at mu = {mu:g}")
    return problems


def _check_ladder(c0: list, c_lin: float) -> list:
    problems = [] if np.all(np.diff(c0) > 0) else [f"c0 does not rise with mu: {c0}"]
    limit, ratio = checks.aitken(c0[-3:])
    if not 0.0 < ratio < 1.0:
        problems.append(f"increments of c0 at mu = 1e2..1e4 do not contract: ratio {ratio:.3g}")
    elif not abs(limit - c_lin) <= AITKEN_RTOL * c_lin:
        problems.append(f"Aitken limit {limit:.4f} not within 5% of {c_lin:.4f}")
    return problems


def edge_speed_ladder(seed: int, work: Path) -> Workload:
    f = factors("edge_speed_ladder", seed)
    scenario, model, kernels = _speeds_inputs()
    tol_c = 1e-3                       # find_c0's default
    mus = [f["mu"] * m for m in MU_LADDER]
    c_lin = _linear_speed(scenario)

    names = [f"find_c0:mu={m:g}" for m in MU_LADDER]

    def op(i: int) -> Op:
        def run(rnd: Round):
            return semiwave.find_c0(model, kernels, mus[i], cache=rnd.cache)

        def check(result, prev, rnd):
            problems = _check_c0(result, mus[i], rnd.cache, tol_c)
            if i == len(mus) - 1:
                problems += _check_ladder([prev[n].speed for n in names], c_lin)
            return problems
        return Op(names[i], run, check)

    return Workload("edge_speed_ladder", [op(i) for i in range(len(mus))])


def _check_cstar(result, lengths, c_cont: float, c_upwind: float, rel_tol: float) -> list:
    problems = []
    if result.bracket is None:
        return [f"no c* bracket: {result.note}"]
    lo, hi = result.bracket
    if not abs(result.linearized - c_cont) <= 1e-6 * c_cont:
        problems.append(f"linearized diagnostic {result.linearized:.8g}, "
                        f"independent {c_cont:.8g}")
    # widen by the bracket width and by one bracket resolution for the
    # finite windows and the finite sweep budget (see README)
    slack = (hi - lo) + rel_tol * c_cont
    if not (c_cont - slack <= lo and hi <= c_upwind + slack):
        problems.append(f"c* bracket ({lo:.5g}, {hi:.5g}) outside "
                        f"[{c_cont:.5g}, {c_upwind:.5g}] widened by {slack:.3g}")
    verdict = {}
    for c, L, mid in result.trace:     # the last window probed gives the verdict
        verdict[c] = mid >= 0.5
    for c, alive in sorted(verdict.items()):
        if c >= hi and alive:
            problems.append(f"probe c = {c:.6g} above the bracket reads alive")
        if c <= lo and not alive:
            problems.append(f"probe c = {c:.6g} at or below the bracket reads dead")
    if max(lengths) not in {L for _, L, _ in result.trace}:
        problems.append("no probe reached the largest window")
    return problems


def threshold_speed(seed: int, work: Path) -> Workload:
    f = factors("threshold_speed", seed)
    scenario, model, kernels = _speeds_inputs(f["time_scale"])
    sp = scenario["speeds"]
    lengths, rel_tol = tuple(sp["lengths"]), sp["rel_tol"]
    dx = scenario["numerics"]["dx"]
    c_cont = _linear_speed(scenario)
    c_upwind = _linear_speed(scenario, dx)

    def run(rnd: Round):
        return semiwave.estimate_cstar(model, kernels, lengths=lengths,
                                       rel_tol=rel_tol, dx=dx)

    return Workload("threshold_speed", [
        Op("estimate_cstar", run,
           lambda r, prev, rnd: _check_cstar(r, lengths, c_cont, c_upwind, rel_tol))])


def build(name: str, seed: int, work) -> Workload:
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    return {"moving_range": moving_range,
            "whole_line_heavy_tail": whole_line_heavy_tail,
            "edge_speed_ladder": edge_speed_ladder,
            "threshold_speed": threshold_speed}[name](seed, work)
