"""Command line driver: scenario files in, CSV and JSON artifacts out.

Each scenario subcommand is one row of ``_TASKS`` (name -> help, runner),
which builds both the argument parser and ``_dispatch``.  A runner takes
the loaded scenario (validated against scenarios/schema.json, which config
loads as SCENARIO_SCHEMA), builds its inputs with one config builder, runs
the computation and writes fixed-format artifacts into the output
directory.  The builders check every scenario field before anything runs,
so a rejected scenario ends in a ConfigError naming its field, never in a
traceback; this module reads no field but ``name``.  Floats in CSV files
carry 17 significant digits so that a reread reproduces the binary values
exactly; identical config and seed give byte-identical files.

Exit codes: 0 success, 1 runtime failure (Instability, failed verification),
2 scenario rejected (``config error at <JSON pointer>: ...``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .analysis import InsufficientData, best_growth_law, fit_front, report_to_json_dict
from .cauchy import run_cauchy
from .config import (ConfigError, build_cauchy_config, build_fb_config, build_fit,
                     build_speeds, build_sweep, load_scenario)
from .freeboundary import Instability, classify_outcome, run
from .semiwave import (FirstMomentDiverges, SemiwaveError, estimate_cstar, find_c0,
                       linearized_front_speed)


def _f(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: str, parts) -> None:
    """Write the header line, then one line per row of each (lead, block) part.

    ``block`` is a 2-D float array, formatted by one ``%`` on the line
    template repeated for its rows; ``lead`` holds values that start every
    row of the part, formatted once as a literal prefix of the template.
    "%.17g" % x is format(x, ".17g") for every double.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for lead, block in parts:
            block = np.asarray(block, dtype=float)
            line = "".join("%.17g," % v for v in lead) + ",".join(
                ["%.17g"] * block.shape[1]) + "\n"
            fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def _blocks(lead: tuple, *columns):
    """(lead, block) parts of up to 4096 rows stacked from the columns.

    Each column array holds one value per row (1-D) or several (2-D).
    """
    for a in range(0, len(columns[0]), 4096):
        yield lead, np.column_stack([c[a:a + 4096] for c in columns])


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _snapshot_parts(snapshots):
    """(t, x, u_1..u_m) rows, with each snapshot's time as the lead."""
    for t, gf in snapshots:
        xs = (gf.k_lo + np.arange(gf.values.shape[1])) * gf.dx
        yield from _blocks((t,), xs, gf.values.T)


def _numerics_echo(cfg) -> dict:
    echo = {"dx": cfg.dx, "dt": cfg.timestep(), "t_end": cfg.t_end,
            "stability_bound": cfg.stability_limit()}
    if getattr(cfg, "x_max", None) is not None:
        echo["x_max"] = cfg.x_max
    return echo


def _write_snapshots(path: Path, m: int, snapshots) -> None:
    _write_csv(path, "t,x," + ",".join(f"u{i + 1}" for i in range(m)),
               _snapshot_parts(snapshots))


def _cmd_simulate_fb(scenario: dict, out: Path, seed: int, config_path: Path) -> int:
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
    _write_csv(out / "fronts.csv", "t,g,h",
               _blocks((), series.t, series.g, series.h))
    _write_snapshots(out / "snapshots.csv", cfg.model.m, series.snapshots)
    _write_json(out / "summary.json",
                {**base, "outcome": classify_outcome(series, cfg),
                 "final_t": series.final_state.t,
                 "final_g": series.final_state.g,
                 "final_h": series.final_state.h})
    return 0


def _cmd_simulate_cauchy(scenario: dict, out: Path, seed: int, config_path: Path) -> int:
    cfg = build_cauchy_config(scenario)
    series = run_cauchy(cfg)
    parts = []
    for comp, lam in cfg.levels:
        arr = series.levels[(comp, lam)]
        parts += _blocks((), arr[:, 0], np.broadcast_to((comp + 1.0, lam), (len(arr), 2)),
                         arr[:, 1:])
    _write_csv(out / "levels.csv", "t,i,lambda,x_minus,x_plus", parts)
    _write_snapshots(out / "snapshots.csv", cfg.model.m, series.snapshots)
    _write_json(out / "summary.json",
                {"name": scenario["name"], "seed": seed,
                 "numerics": _numerics_echo(cfg),
                 "stability_bound": cfg.stability_limit(),
                 "final_t": series.final_state.t,
                 "window_final": [series.final_state.x_left, series.final_state.x_right],
                 "capped": series.capped,
                 "leak_bound": series.leak_bound,
                 "levels": [[c + 1, lam] for c, lam in cfg.levels],
                 "notes": list(series.notes)})
    return 0


def _json_speed(value: float):
    return "infinite" if math.isinf(value) else value


def _c0(model, kernels, mu, kw: dict):
    """(find_c0 result or None, its speeds.json entry): "infinite" without a first moment."""
    try:
        r = find_c0(model, kernels, mu, **kw)
    except FirstMomentDiverges as e:
        return None, {"c0": "infinite", "reason": str(e)}
    return r, {"c0": r.speed, "bracket": list(r.bracket)}


def _cmd_speeds(scenario: dict, out: Path, seed: int, config_path: Path) -> int:
    model, kernels, mu, mu_sweep, c0_kw, cstar_kw = build_speeds(scenario)
    c0_kw["cache"] = {}            # profiles shared by the main mu and the sweep
    r0, entry = _c0(model, kernels, mu, c0_kw)
    brackets: dict = {}
    if r0 is not None:
        brackets["c0"] = entry.pop("bracket")
        sol = r0.solution          # solved here, cold, before the sweep fills the cache
        _write_csv(out / "semiwave.csv",
                   f"# c={_f(sol.c)} L={_f(sol.length)} residual={_f(sol.residual)}\n"
                   "x," + ",".join(f"phi_{i + 1}" for i in range(model.m)),
                   _blocks((), sol.x, sol.phi.T))
    result: dict = {"name": scenario["name"], "seed": seed, **entry}
    if mu_sweep is not None:
        result["c0_sweep"] = [{"mu": mu_k, **_c0(model, kernels, mu_k, c0_kw)[1]}
                              for mu_k in mu_sweep]
    if cstar_kw is not None:
        est = estimate_cstar(model, kernels, **cstar_kw)
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
    t, signals, window, law = build_fit(scenario, config_path)
    fits = {}
    for signal, y in signals.items():
        try:
            if law == "auto":
                report = best_growth_law((t, y), window=window)
                entry = report_to_json_dict(report)
                entry["selected"] = report.law
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


# runners call the builders and the library through module globals, wrapped by name in traces
_TASKS = {
    "simulate-fb": ("integrate the moving-range problem", _cmd_simulate_fb),
    "simulate-cauchy": ("integrate on the whole line", _cmd_simulate_cauchy),
    "speeds": ("front speed estimates and sweeps", _cmd_speeds),
    "fit": ("growth-law regression on a fronts CSV", _cmd_fit),
}


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
    """Run one ``_TASKS`` subcommand; ``out`` defaults to the scenario name."""
    scenario = load_scenario(config_path)
    out = out or Path(scenario["name"])
    out.mkdir(parents=True, exist_ok=True)
    return _TASKS[task][1](scenario, out, seed, config_path)


_FAILURES = (ConfigError, Instability, SemiwaveError)


def _failed(e: Exception, prefix: str = "") -> int:
    """Print one of ``_FAILURES`` on stderr and return its exit code."""
    if isinstance(e, ConfigError):
        print(f"{prefix}config error at {e}", file=sys.stderr)
        return 2
    print(f"{prefix}{e}", file=sys.stderr)
    return 1


def _sweep_entry(task: str, config_path: str, out: str, seed: int) -> int:
    """Module-level so the process pool can pickle it."""
    try:
        return _dispatch(task, Path(config_path), Path(out), seed)
    except _FAILURES as e:
        return _failed(e, f"{config_path}: ")


def _cmd_sweep(scenario: dict, out: Path, seed: int, config_path: Path,
               jobs: int | None) -> int:
    runs = build_sweep(scenario, config_path)
    out.mkdir(parents=True, exist_ok=True)
    argsets = [(task, str(path), str(out / name), seed) for task, path, name in runs]
    if jobs == 1:
        codes = [_sweep_entry(*a) for a in argsets]
    else:
        with ProcessPoolExecutor(max_workers=jobs or 2) as pool:
            futures = [pool.submit(_sweep_entry, *a) for a in argsets]
            codes = [f.result() for f in futures]
    _write_json(out / "sweep_summary.json",
                {"name": scenario["name"], "seed": seed,
                 "runs": {name: {"task": task, "exit": code}
                          for (task, _, name), code in zip(runs, codes)}})
    for (_, _, name), code in zip(runs, codes):
        print(f"{'ok' if code == 0 else 'FAILED'} {name} (exit {code})")
    return max(codes, default=0)


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures.ProcessPoolExecutor, imported when a sweep starts a pool."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def _worker_count(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"need at least 1 worker, got {jobs}")
    return jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlspread",
        description="Simulate cooperative systems with nonlocal dispersal, "
                    "estimate front speeds, and fit growth laws.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: scenario name)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed echoed into artifacts and used by sampling checks")

    helps = {name: hlp for name, (hlp, _) in _TASKS.items()}
    for name, hlp in {**helps, "sweep": "run several scenarios concurrently"}.items():
        p = sub.add_parser(name, help=hlp)
        p.add_argument("--config", type=Path, required=True, help="scenario JSON file")
        common(p)
        if name == "sweep":
            p.add_argument("--jobs", type=_worker_count, default=None,
                           help="parallel workers, at least 1")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", required=True,
                    choices=["kernels", "reactions", "quadrature",
                             "dichotomy", "speeds", "limits"])
    common(pv)

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
    except _FAILURES as e:
        return _failed(e)


if __name__ == "__main__":
    sys.exit(main())
