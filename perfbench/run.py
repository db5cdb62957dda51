"""nlspread benchmark: run one workload and print its metrics as one JSON line.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

A run measures set-up in fresh interpreters, then repeats whole rounds of
the workload's operations (closed loop, one at a time, in this process)
until --seconds of operation time has passed, then checks every output.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
the same number of rounds again with spans around the package's modules
and reports the per-layer metrics.  See perfbench/README.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "2")       # at most two threads, as on the 2-CPU host

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
WORKLOADS = ("moving_range", "whole_line_heavy_tail", "edge_speed_ladder",
             "threshold_speed")


class CountingCache(dict):
    """Profile cache that counts the lookups ``find_c0`` makes and serves."""

    def __init__(self, counts):
        super().__init__()
        self.counts = counts

    def get(self, key, default=None):
        self.counts["semiwave.cache_lookups"] += 1
        if key in self:
            self.counts["semiwave.cache_hits"] += 1
            return self[key]
        return default


# ----------------------------------------------------------------------
# trace boundaries: (module, attribute, span name, counter)

def _count_direct(counts, args, kwargs, out):
    values, weights = args
    counts["nonlocal_ops.convolve_direct_flops"] += values.shape[-1] * (len(weights) + 1)


def _count_step(counts, args, kwargs, state):
    counts["freeboundary.node_steps"] += state.u.n


def _count_cstep(counts, args, kwargs, state):
    counts["cauchy.window_nodes"] += args[0].u.n


def _count_profile(counts, args, kwargs, sol):
    counts["semiwave.sweeps"] += sol.iterations
    counts["semiwave.node_sweeps"] += sol.iterations * sol.x.size
    if not sol.converged:
        counts["semiwave.budget_sweeps"] += sol.iterations


def _count_probes(counts, args, kwargs, result):
    counts["semiwave.probes"] += len({c for c, _, _ in result.trace})


def instrument(tracer) -> None:
    from nlspread import cauchy, cli, freeboundary, nonlocal_ops, semiwave

    for module, attr, name, count in (
            (cli, "main", "cli.main", None),
            (cli, "load_scenario", "config.load_scenario", None),
            (cli, "build_fb_config", "config.build_fb_config", None),
            (cli, "build_cauchy_config", "config.build_cauchy_config", None),
            (cli, "run", "freeboundary.run", None),
            (cli, "classify_outcome", "freeboundary.classify_outcome", None),
            (cli, "run_cauchy", "cauchy.run_cauchy", None),
            (cli, "best_growth_law", "analysis.best_growth_law", None),
            (cli, "fit_front", "analysis.fit_front", None),
            (freeboundary, "step", "freeboundary.step", _count_step),
            (freeboundary, "boundary_flux", "nonlocal_ops.boundary_flux", None),
            (freeboundary, "convolve_values", "nonlocal_ops.convolve_values", None),
            (freeboundary, "eval_F", "reactions.eval_F", None),
            (cauchy, "cstep", "cauchy.cstep", _count_cstep),
            (nonlocal_ops, "kernel_weights", "nonlocal_ops.kernel_weights", None),
            (nonlocal_ops, "_convolve_direct", "nonlocal_ops.convolve_direct", _count_direct),
            (nonlocal_ops, "_convolve_fft", "nonlocal_ops.convolve_fft", None),
            (semiwave, "kernel_weights", "nonlocal_ops.kernel_weights", None),
            (semiwave, "eval_F", "reactions.eval_F", None),
            (semiwave, "solve_profile", "semiwave.solve_profile", _count_profile),
            (semiwave, "find_c0", "semiwave.find_c0", None),
            (semiwave, "estimate_cstar", "semiwave.estimate_cstar", _count_probes)):
        tracer.wrap(module, attr, name, count)


def layer_metrics(tot: dict, counts: dict, nbytes: int) -> dict:
    """Per-layer values of one traced round, as (value, unit).

    ``tot`` holds the round's span totals by name, ``counts`` its counters.
    """

    def calls(name):
        return tot.get(name, {}).get("calls", 0)

    def sec(name, key="s"):
        return tot.get(name, {}).get(key, 0.0)

    node_sweeps = counts.get("semiwave.node_sweeps", 0)
    lookups = counts.get("semiwave.cache_lookups", 0)
    return {
        "nonlocal_ops.kernel_weights_calls": (calls("nonlocal_ops.kernel_weights"), "count"),
        "nonlocal_ops.kernel_weights_s": (sec("nonlocal_ops.kernel_weights"), "s"),
        "nonlocal_ops.convolve_direct_calls": (calls("nonlocal_ops.convolve_direct"), "count"),
        "nonlocal_ops.convolve_direct_s": (sec("nonlocal_ops.convolve_direct"), "s"),
        "nonlocal_ops.convolve_direct_flops":
            (counts.get("nonlocal_ops.convolve_direct_flops", 0), "flop"),
        "nonlocal_ops.convolve_fft_calls": (calls("nonlocal_ops.convolve_fft"), "count"),
        "nonlocal_ops.convolve_fft_s": (sec("nonlocal_ops.convolve_fft"), "s"),
        "nonlocal_ops.boundary_flux_calls": (calls("nonlocal_ops.boundary_flux"), "count"),
        "nonlocal_ops.boundary_flux_s": (sec("nonlocal_ops.boundary_flux"), "s"),
        "reactions.eval_F_calls": (calls("reactions.eval_F"), "count"),
        "reactions.eval_F_s": (sec("reactions.eval_F"), "s"),
        "freeboundary.steps": (calls("freeboundary.step"), "count"),
        "freeboundary.node_steps": (counts.get("freeboundary.node_steps", 0), "count"),
        "freeboundary.step_self_s": (sec("freeboundary.step", "self_s"), "s"),
        "cauchy.steps": (calls("cauchy.cstep"), "count"),
        "cauchy.window_nodes": (counts.get("cauchy.window_nodes", 0), "count"),
        "cauchy.cstep_self_s": (sec("cauchy.cstep", "self_s"), "s"),
        "semiwave.solve_profile_calls": (calls("semiwave.solve_profile"), "count"),
        "semiwave.sweeps": (counts.get("semiwave.sweeps", 0), "count"),
        "semiwave.node_sweep_ns":
            (1e9 * sec("semiwave.solve_profile") / node_sweeps if node_sweeps else 0.0, "ns"),
        "semiwave.budget_sweeps": (counts.get("semiwave.budget_sweeps", 0), "count"),
        "semiwave.cache_hit_ratio":
            (counts.get("semiwave.cache_hits", 0) / lookups if lookups else 0.0, "ratio"),
        "semiwave.probes": (counts.get("semiwave.probes", 0), "count"),
        "analysis.fit_s":
            (sec("analysis.best_growth_law") + sec("analysis.fit_front"), "s"),
        "cli.self_s": (sec("cli.main", "self_s"), "s"),
        "cli.artifact_bytes": (nbytes, "B"),
    }


# ----------------------------------------------------------------------

def setup_probe(workload: str, seed: int, work: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(work)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def artifact_bytes(rd: Path) -> int:
    """Bytes of the files the operations wrote (their output directories)."""
    return sum(p.stat().st_size for d in rd.iterdir() if d.is_dir()
               for p in d.rglob("*") if p.is_file())


def run_rounds(wl, work: Path, label: str, clock, seconds: float,
               count: int | None = None, tracer=None) -> list:
    """Whole rounds until `seconds` of operation time, or exactly `count`.

    ``norm`` is a round's wall time at the reference host speed.
    """
    import workloads

    rounds, spent = [], 0.0
    while (len(rounds) < count) if count is not None else (not rounds or spent < seconds):
        start = time.perf_counter()
        rd = work / f"{label}-{len(rounds)}"
        rd.mkdir(parents=True)
        wl.prepare(rd)
        if tracer is not None:
            tracer.reset()
        rnd = workloads.Round(rd, CountingCache(tracer.counts) if tracer else {})
        outputs, errors = {}, {}
        t0 = time.perf_counter()
        for op in wl.ops:
            try:
                outputs[op.name] = (op.run(rnd) if tracer is None
                                    else tracer.span("op." + op.name, op.run, rnd))
            except Exception as e:     # a raising operation is a failed operation
                errors[op.name] = f"{type(e).__name__}: {e}"
        wall = time.perf_counter() - t0
        spent += wall
        rec = {"wall": wall, "norm": clock.rescale(wall, time.perf_counter() - start),
               "round": rnd, "outputs": outputs, "errors": errors,
               "bytes": artifact_bytes(rd)}
        if tracer is not None:
            rec["spans"], rec["counts"] = tracer.arrays(), dict(tracer.counts)
        rounds.append(rec)
    return rounds


def check_rounds(wl, rounds: list) -> tuple[int, int]:
    attempted = failed = 0
    for k, rec in enumerate(rounds):
        for op in wl.ops:
            attempted += 1
            if op.name in rec["errors"]:
                problems = [f"raised {rec['errors'][op.name]}"]
            else:
                try:
                    problems = op.check(rec["outputs"][op.name], rec["outputs"], rec["round"])
                except Exception as e:     # a check that cannot run fails its operation
                    problems = [f"check raised {type(e).__name__}: {e}"]
            if problems:
                failed += 1
                for p in problems:
                    print(f"FAIL {wl.name} round {k} {op.name}: {p}", file=sys.stderr)
    return attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nlspread" / "__init__.py").is_file():
        print(f"no nlspread sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nlspread
    if not Path(nlspread.__file__).resolve().is_relative_to(SRC):
        print(f"nlspread imported from {nlspread.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import hostspeed
    import spans
    import workloads

    tag = f"{args.workload}-seed{args.seed}"
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{tag}-{os.getpid()}"
    try:
        clock = hostspeed.ReferenceClock()
        start = time.perf_counter()
        setup = [setup_probe(args.workload, args.seed, work / f"probe-{k}")
                 for k in range(SETUP_PROBES)]
        setup_measured = statistics.median(p["import_s"] + p["build_s"] for p in setup)
        setup_norm = clock.rescale(setup_measured, time.perf_counter() - start)
        wl = workloads.build(args.workload, args.seed, work / "inputs")
        # a traced run first warms up untimed, so that first-call costs
        # fall on neither side of the tracing overhead
        warm = run_rounds(wl, work, "warm", clock, 0.0, count=1) if args.trace else []
        rounds = run_rounds(wl, work, "round", clock, args.seconds)
        traced = []
        if args.trace:
            tracer = spans.Tracer()
            instrument(tracer)
            try:
                traced = run_rounds(wl, work, "traced", clock, args.seconds,
                                    count=len(rounds), tracer=tracer)
            finally:
                tracer.close()
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed = check_rounds(wl, warm + rounds + traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall = statistics.median(r["norm"] for r in rounds)
    if not args.trace:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (setup_norm, "s"),
            "peak_rss_mib": (peak_mib, "MiB"),
        }
    else:
        per_round = [layer_metrics(spans.span_totals(r["spans"], tracer.names),
                                   r["counts"], r["bytes"]) for r in traced]
        metrics = {name: (statistics.median(m[name][0] for m in per_round), unit)
                   for name, (_, unit) in per_round[0].items()}
        metrics["setup.import_s"] = (statistics.median(p["import_s"] for p in setup), "s")
        metrics["config.build_s"] = (statistics.median(p["build_s"] for p in setup), "s")
        metrics["trace.overhead_s"] = (
            statistics.median(r["norm"] for r in traced) - wall, "s")
        arrays = {f"r{k}_{key}": a for k, r in enumerate(traced)
                  for key, a in r["spans"].items()}
        spans.save(OUT / f"trace-{tag}.npz", tracer.names, arrays,
                   [r["counts"] for r in traced])

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    line = json.dumps(result)
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(line + "\n", encoding="utf-8")
    print(f"{args.workload}: {len(rounds)} round(s), measured walls "
          f"{[round(r['wall'], 3) for r in rounds]} s, at reference speed "
          f"{[round(r['norm'], 3) for r in rounds]} s; set-up measured "
          f"{setup_measured:.3f} s",
          file=sys.stderr)
    print(line)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
