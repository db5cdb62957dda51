"""Command line driver: scenario files in, CSV and JSON artifacts out.

Every subcommand reads one scenario file (validated against
scenarios/schema.json, the one copy of the schema, which config loads as
SCENARIO_SCHEMA), runs the requested computation, and writes fixed-format
artifacts into the output directory.  The four single-scenario subcommands
and every run of a sweep go through ``_dispatch``.  Floats in CSV files carry
17 significant digits so that a reread reproduces the binary values exactly;
identical config and seed give byte-identical files.

Exit codes: 0 success, 1 runtime failure (Instability, failed verification),
2 scenario rejected (diagnostic names the offending field).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .analysis import InsufficientData, best_growth_law, fit_front, report_to_json_dict
from .cauchy import run_cauchy
from .config import (ConfigError, build_cauchy_config, build_fb_config,
                     build_kernels, build_model, load_scenario)
from .freeboundary import Instability, classify_outcome, run
from .semiwave import (FirstMomentDiverges, SemiwaveError, estimate_cstar,
                       find_c0, linearized_front_speed)


def _f(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_f(v) for v in row) + "\n")


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _snapshot_rows(snapshots):
    for t, gf in snapshots:
        xs = (gf.k_lo + np.arange(gf.values.shape[1])) * gf.dx
        for j, x in enumerate(xs):
            yield (t, x, *gf.values[:, j])


def _numerics_echo(cfg) -> dict:
    echo = {"dx": cfg.dx, "dt": cfg.timestep(), "t_end": cfg.t_end,
            "stability_bound": cfg.stability_limit()}
    if hasattr(cfg, "scheme"):
        echo["scheme"] = cfg.scheme
    if getattr(cfg, "x_max", None) is not None:
        echo["x_max"] = cfg.x_max
    return echo


def _cmd_simulate_fb(scenario: dict, out: Path, seed: int) -> int:
    cfg = build_fb_config(scenario)
    base = {"name": scenario["name"], "seed": seed,
            "numerics": _numerics_echo(cfg),
            "thresholds_used": asdict(cfg.thresholds),
            "stability_bound": cfg.stability_limit()}
    try:
        series = run(cfg)
    except Instability as e:
        _write_json(out / "summary.json",
                    {**base, "outcome": "Instability",
                     "failed_at": e.t, "error": str(e)})
        print(f"instability at t = {e.t:.6g}: {e}", file=sys.stderr)
        return 1
    m = cfg.model.m
    _write_csv(out / "fronts.csv", "t,g,h",
               zip(series.t, series.g, series.h))
    _write_csv(out / "snapshots.csv",
               "t,x," + ",".join(f"u{i + 1}" for i in range(m)),
               _snapshot_rows(series.snapshots))
    _write_json(out / "summary.json",
                {**base, "outcome": classify_outcome(series, cfg),
                 "final_t": series.final_state.t,
                 "final_g": series.final_state.g,
                 "final_h": series.final_state.h})
    return 0


def _cmd_simulate_cauchy(scenario: dict, out: Path, seed: int) -> int:
    cfg = build_cauchy_config(scenario)
    series = run_cauchy(cfg)
    m = cfg.model.m
    rows = []
    for comp, lam in cfg.levels:
        arr = series.levels[(comp, lam)]
        for t, x_lo, x_hi in arr:
            rows.append((t, comp + 1, lam, x_lo, x_hi))
    _write_csv(out / "levels.csv", "t,i,lambda,x_minus,x_plus", rows)
    _write_csv(out / "snapshots.csv",
               "t,x," + ",".join(f"u{i + 1}" for i in range(m)),
               _snapshot_rows(series.snapshots))
    _write_json(out / "summary.json",
                {"name": scenario["name"], "seed": seed,
                 "numerics": _numerics_echo(cfg),
                 "stability_bound": cfg.stability_limit(),
                 "final_t": series.final_state.t,
                 "window_final": list(series.window_final),
                 "capped": series.capped,
                 "leak_bound": series.leak_bound,
                 "levels": [[c + 1, lam] for c, lam in cfg.levels],
                 "notes": list(series.notes)})
    return 0


def _json_speed(value: float):
    return "infinite" if math.isinf(value) else value


def _cmd_speeds(scenario: dict, out: Path, seed: int) -> int:
    model = build_model(scenario)
    kernels = build_kernels(scenario, model.m0)
    sp = scenario.get("speeds", {})
    mu = scenario.get("mu", 1.0)
    cache: dict = {}
    kw = {"tol_c": sp.get("tol_c", 1e-3), "cache": cache}
    if "length" in sp:
        kw["L"] = sp["length"]
    if "dx" in sp:
        kw["dx"] = sp["dx"]
    result: dict = {"name": scenario["name"], "seed": seed}
    brackets: dict = {}

    try:
        r0 = find_c0(model, kernels, mu, **kw)
        result["c0"] = r0.speed
        brackets["c0"] = list(r0.bracket)
        sol = r0.solution
        with open(out / "semiwave.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# c={_f(sol.c)} L={_f(sol.length)} "
                     f"residual={_f(sol.residual)}\n")
            fh.write("x," + ",".join(f"phi_{i + 1}" for i in range(model.m)) + "\n")
            for j in range(sol.x.size):
                fh.write(",".join(_f(v) for v in (sol.x[j], *sol.phi[:, j])) + "\n")
    except FirstMomentDiverges as e:
        result["c0"] = "infinite"
        result["reason"] = str(e)

    if "mu_sweep" in sp:
        table = []
        for mu_k in sp["mu_sweep"]:
            try:
                rk = find_c0(model, kernels, mu_k, **kw)
                table.append({"mu": mu_k, "c0": rk.speed,
                              "bracket": list(rk.bracket)})
            except FirstMomentDiverges as e:
                table.append({"mu": mu_k, "c0": "infinite", "reason": str(e)})
        result["c0_sweep"] = table

    if sp.get("cstar", False):
        est = estimate_cstar(model, kernels,
                             lengths=sp.get("lengths"),
                             rel_tol=sp.get("rel_tol", 1e-2),
                             dx=sp.get("dx"))
        result["cstar"] = _json_speed(est.value)
        if est.note:
            result["cstar_note"] = est.note
        if est.bracket is not None:
            brackets["cstar"] = list(est.bracket)
        result["cstar_linearized_diagnostic"] = _json_speed(est.linearized)
    else:
        result["cstar_linearized_diagnostic"] = _json_speed(
            linearized_front_speed(model, kernels))

    result["brackets"] = brackets
    _write_json(out / "speeds.json", result)
    return 0


def _cmd_fit(scenario: dict, out: Path, seed: int, config_path: Path) -> int:
    sec = scenario.get("fit")
    if sec is None:
        raise ConfigError("/fit", "required by this subcommand")
    src = Path(sec["input"])
    if not src.is_absolute():
        src = config_path.parent / src
    try:
        data = np.genfromtxt(src, delimiter=",", names=True)
    except (OSError, ValueError) as e:
        raise ConfigError("/fit/input", f"cannot read {src}: {e}") from e
    names = data.dtype.names or ()
    if "t" not in names:
        raise ConfigError("/fit/input", "input CSV needs a 't' column")
    t = data["t"]
    window = tuple(sec["window"]) if "window" in sec else None
    law = sec.get("law", "auto")
    fits = {}
    for signal in sec.get("signals", ["h"]):
        col = "h" if signal == "h" else "g"
        if col not in names:
            raise ConfigError("/fit/signals", f"input CSV lacks a {col!r} column")
        y = data[col] if signal == "h" else -data[col]
        try:
            if law == "auto":
                selected, report = best_growth_law((t, y), window=window)
                entry = report_to_json_dict(report)
                entry["selected"] = selected
                entry["ambiguous"] = report.ambiguous
                if report.margin is not None:
                    entry["margin"] = report.margin
            else:
                entry = report_to_json_dict(fit_front((t, y), law, window=window))
        except InsufficientData as e:
            print(f"fit failed for signal {signal!r}: {e}", file=sys.stderr)
            return 1
        fits[signal] = entry
    _write_json(out / "fits.json", {"name": scenario["name"], "seed": seed,
                                    "fits": fits})
    return 0


def _cmd_verify(suite: str, out: Path, seed: int) -> int:
    from . import verification

    results = verification.run_suite(suite, seed=seed)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    _write_json(out / f"verify_{suite}.json",
                {"suite": suite, "seed": seed,
                 "all_passed": all(r.passed for r in results),
                 "results": [asdict(r) for r in results]})
    return 0 if all(r.passed for r in results) else 1


def _dispatch(task: str, config_path: Path, out: Path | None, seed: int) -> int:
    """Run one scenario subcommand; ``out`` defaults to the scenario name."""
    scenario = load_scenario(config_path)
    out = out or Path(scenario["name"])
    out.mkdir(parents=True, exist_ok=True)
    if task == "simulate-fb":
        return _cmd_simulate_fb(scenario, out, seed)
    if task == "simulate-cauchy":
        return _cmd_simulate_cauchy(scenario, out, seed)
    if task == "speeds":
        return _cmd_speeds(scenario, out, seed)
    if task == "fit":
        return _cmd_fit(scenario, out, seed, config_path)
    raise ValueError(f"unknown task {task!r}")


def _sweep_entry(task: str, config_path: str, out: str, seed: int) -> int:
    """Module-level so the process pool can pickle it."""
    try:
        return _dispatch(task, Path(config_path), Path(out), seed)
    except ConfigError as e:
        print(f"{config_path}: config error at {e}", file=sys.stderr)
        return 2
    except (Instability, SemiwaveError) as e:
        print(f"{config_path}: {e}", file=sys.stderr)
        return 1


def _cmd_sweep(scenario: dict, out: Path, seed: int, config_path: Path,
               jobs: int | None) -> int:
    sec = scenario.get("sweep")
    if sec is None:
        raise ConfigError("/sweep", "required by this subcommand")
    runs = sec["runs"]
    names = [Path(r["config"]).stem for r in runs]
    if len(set(names)) != len(names):
        raise ConfigError("/sweep/runs", "run config basenames must be unique "
                          "(each run gets its own output directory)")
    out.mkdir(parents=True, exist_ok=True)
    jobs = jobs or 2
    argsets = [(r["task"],
                str(config_path.parent / r["config"]),
                str(out / name), seed)
               for r, name in zip(runs, names)]
    if jobs == 1:
        codes = [_sweep_entry(*a) for a in argsets]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_sweep_entry, *a) for a in argsets]
            codes = [f.result() for f in futures]
    summary = {name: {"task": r["task"], "exit": code}
               for name, r, code in zip(names, runs, codes)}
    _write_json(out / "sweep_summary.json",
                {"name": scenario["name"], "seed": seed, "runs": summary})
    for name, code in zip(names, codes):
        print(f"{'ok' if code == 0 else 'FAILED'} {name} (exit {code})")
    return max(codes, default=0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlspread",
        description="Simulate cooperative systems with nonlocal dispersal, "
                    "estimate front speeds, and fit growth laws.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        p.add_argument("--config", type=Path, required=needs_config,
                       help="scenario JSON file")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: scenario name)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed echoed into artifacts and used by sampling checks")
        p.add_argument("--jobs", type=int, default=None,
                       help="parallel workers (sweep only)")

    for name, hlp in (("simulate-fb", "integrate the moving-range problem"),
                      ("simulate-cauchy", "integrate on the whole line"),
                      ("speeds", "front speed estimates and sweeps"),
                      ("fit", "growth-law regression on a fronts CSV"),
                      ("sweep", "run several scenarios concurrently")):
        common(sub.add_parser(name, help=hlp))

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", required=True,
                    choices=["kernels", "reactions", "quadrature",
                             "dichotomy", "speeds", "limits"])
    common(pv, needs_config=False)

    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            out = args.out or Path("verify-reports")
            out.mkdir(parents=True, exist_ok=True)
            return _cmd_verify(args.suite, out, args.seed)
        if args.command == "sweep":
            scenario = load_scenario(args.config)
            return _cmd_sweep(scenario, args.out or Path(scenario["name"]),
                              args.seed, args.config, args.jobs)
        return _dispatch(args.command, args.config, args.out, args.seed)
    except ConfigError as e:
        print(f"config error at {e}", file=sys.stderr)
        return 2
    except (Instability, SemiwaveError) as e:
        print(str(e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
