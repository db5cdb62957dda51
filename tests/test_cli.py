"""End-to-end subcommand behavior: artifacts, determinism, exit codes."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlspread import cli, nonlocal_ops
from nlspread.cli import main
from nlspread.config import scenario_dir
from nlspread.nonlocal_ops import GridFunction
from nlspread.semiwave import FirstMomentDiverges, MinimalSpeedResult

WNV_MODEL = {"model": "wnv",
             "params": {"a1": 1.0, "a2": 1.0, "b1": 0.5, "b2": 0.5,
                        "e1": 1.0, "e2": 1.0}}


def write_scenario(tmp_path, name, extra):
    obj = {"name": name, "model": WNV_MODEL,
           "kernels": {"family": "laplace", "scale": 1.0}, **extra}
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(obj))
    return p


class TestSimulateFB:
    def test_vanishing_scenario_exit_zero_and_outcome(self, tmp_path):
        cfgp = scenario_dir() / "wnv_vanishing.json"
        out = tmp_path / "van"
        assert main(["simulate-fb", "--config", str(cfgp), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["outcome"] == "Vanishing"
        assert set(summary) >= {"outcome", "final_t", "final_g", "final_h",
                                "thresholds_used", "stability_bound"}
        header = (out / "fronts.csv").read_text().splitlines()[0]
        assert header == "t,g,h"

    def test_reruns_byte_identical(self, tmp_path):
        cfgp = scenario_dir() / "wnv_vanishing.json"
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate-fb", "--config", str(cfgp), "--out", str(a)]) == 0
        assert main(["simulate-fb", "--config", str(cfgp), "--out", str(b)]) == 0
        for fname in ("fronts.csv", "snapshots.csv", "summary.json"):
            assert (a / fname).read_bytes() == (b / fname).read_bytes(), fname

    def test_csv_floats_roundtrip_at_17_digits(self, tmp_path):
        cfgp = scenario_dir() / "wnv_vanishing.json"
        out = tmp_path / "van"
        main(["simulate-fb", "--config", str(cfgp), "--out", str(out)])
        lines = (out / "fronts.csv").read_text().splitlines()[1:]
        assert len(lines) > 50
        for line in lines[:200]:
            for tok in line.split(","):
                assert format(float(tok), ".17g") == tok

    def test_csv_rows_are_the_per_float_format(self, tmp_path):
        # the row format string must print every double as format(x, ".17g")
        rng = np.random.default_rng(41)
        specials = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308,
                    np.inf, -np.inf, np.nan, 0.1, 1.0 / 3.0, 2.0, 123456789012345678.0]
        bits = rng.integers(0, 2 ** 63, size=3000, dtype=np.int64).view(np.float64)
        values = np.concatenate([specials, bits, rng.normal(size=3000)])
        rows = [(float(t), 7, *v) for t, v in zip(values[::3], values.reshape(-1, 3))]
        path = tmp_path / "rows.csv"
        cli._write_csv(path, "a,b,c,d,e", [((), rows)])
        expected = "a,b,c,d,e\n" + "".join(
            ",".join(format(float(x), ".17g") for x in row) + "\n" for row in rows)
        assert path.read_text() == expected

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 9000])
    def test_snapshot_blocks_are_the_per_float_format(self, tmp_path, n, m):
        # snapshot parts print one line per node, (t, x, u_1..u_m), as if
        # every float were formatted alone; blocks break at 4096 rows
        rng = np.random.default_rng(1000 * n + m)
        specials = np.array([-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308,
                             -1e308, 0.1, 1.0 / 3.0])
        values = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-300, 300, size=(m, n))
        values.flat[:specials.size] = specials[:values.size]
        values[:, -1] = -0.0
        snapshots = [(0.1 + 0.2, GridFunction(0.25, -(n // 3), values)),
                     (12.000000000000002, GridFunction(0.1, 7, values[:, ::-1].copy()))]
        header = "t,x," + ",".join(f"u{i + 1}" for i in range(m))
        path = tmp_path / "snapshots.csv"
        cli._write_csv(path, header, cli._snapshot_parts(snapshots))
        expected = [header]
        for t, gf in snapshots:
            for j in range(gf.n):
                row = (t, (gf.k_lo + j) * gf.dx, *gf.values[:, j])
                expected.append(",".join(format(float(x), ".17g") for x in row))
        text = path.read_text()
        got = text.split("\n")
        # the first differing line, not a diff of two long texts
        first = next((k for k, (a, b) in enumerate(zip(got, expected)) if a != b), None)
        assert first is None, (first, got[first], expected[first])
        assert text == "\n".join(expected) + "\n"
        assert expected[1].startswith("0.30000000000000004,")

    def test_m0_violation_exits_2_with_field_path(self, tmp_path, capsys):
        cfgp = scenario_dir() / "invalid" / "bad_m0_exceeds_m.json"
        code = main(["simulate-fb", "--config", str(cfgp),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "/model/m0" in capsys.readouterr().err

    def test_kernel_whose_tail_mesh_reaches_inf_exits_2(self, tmp_path, capsys):
        cfgp = write_scenario(tmp_path, "too_heavy", {
            "kernels": {"family": "powerlaw", "gamma": 1.02, "core_width": 1.0},
            "mu": 1.0, "h0": 2.0, "numerics": {"dx": 0.25, "t_end": 1.0}})
        code = main(["simulate-fb", "--config", str(cfgp), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error at /kernels: powerlaw tail with gamma = 1.02 ")
        assert "EPS_TAIL" in err

    def test_instability_exits_nonzero_with_diagnostics(self, tmp_path, capsys):
        # dt far enough above the stability limit that the stiff dispersal
        # mode amplifies instead of merely cycling inside the box
        cfgp = write_scenario(tmp_path, "blowup", {
            "mu": 1.0, "h0": 2.0,
            "numerics": {"dx": 0.25, "t_end": 100.0, "dt": 4.0}})
        out = tmp_path / "blow"
        code = main(["simulate-fb", "--config", str(cfgp), "--out", str(out)])
        assert code == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["outcome"] == "Instability"
        assert 0 < summary["failed_at"] < 100.0
        assert not (out / "fronts.csv").exists()


class TestSimulateCauchy:
    def test_reruns_byte_identical(self, tmp_path, monkeypatch):
        # a capped power-law run: the window reaches its cap of 641 nodes,
        # past the direct path's 512-node half-width, so rows go through FFT
        fft_calls = []
        convolve_fft = nonlocal_ops._convolve_fft
        monkeypatch.setattr(nonlocal_ops, "_convolve_fft",
                            lambda *a, **k: fft_calls.append(1) or convolve_fft(*a, **k))
        cfgp = write_scenario(tmp_path, "capped_powerlaw", {
            "kernels": {"family": "powerlaw", "gamma": 1.5, "core_width": 1.0},
            "mu": 1.0, "h0": 2.0,
            "levels": [{"component": 1, "level": 0.1}],
            "numerics": {"dx": 0.25, "t_end": 2.0, "x_max": 80.0,
                         "snapshot_times": [1.0, 2.0]}})
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate-cauchy", "--config", str(cfgp), "--out", str(a)]) == 0
        assert main(["simulate-cauchy", "--config", str(cfgp), "--out", str(b)]) == 0
        assert fft_calls
        summary = json.loads((a / "summary.json").read_text())
        assert summary["capped"] and summary["window_final"] == [-80.0, 80.0]
        assert len((a / "levels.csv").read_text().splitlines()) > 10
        for fname in ("levels.csv", "snapshots.csv", "summary.json"):
            assert (a / fname).read_bytes() == (b / fname).read_bytes(), fname

    def test_empty_level_list_header_only(self, tmp_path):
        cfgp = write_scenario(tmp_path, "quiet", {
            "mu": 1.0, "h0": 2.0,
            "numerics": {"dx": 0.25, "t_end": 0.5}})
        out = tmp_path / "quiet_out"
        assert main(["simulate-cauchy", "--config", str(cfgp),
                     "--out", str(out)]) == 0
        assert (out / "levels.csv").read_text() == "t,i,lambda,x_minus,x_plus\n"

    def test_levels_csv_shape_and_summary(self, tmp_path):
        cfgp = write_scenario(tmp_path, "tracked", {
            "mu": 1.0, "h0": 4.0,
            "levels": [{"component": 1, "level": 0.2},
                       {"component": 2, "level": 0.2}],
            "numerics": {"dx": 0.25, "t_end": 4.0, "snapshot_times": [4.0]}})
        out = tmp_path / "tr"
        assert main(["simulate-cauchy", "--config", str(cfgp),
                     "--out", str(out)]) == 0
        rows = (out / "levels.csv").read_text().splitlines()
        assert rows[0] == "t,i,lambda,x_minus,x_plus"
        comps = {r.split(",")[1] for r in rows[1:]}
        assert comps == {"1", "2"}
        summary = json.loads((out / "summary.json").read_text())
        assert summary["capped"] is False
        assert summary["levels"] == [[1, 0.2], [2, 0.2]]
        snap = (out / "snapshots.csv").read_text().splitlines()
        assert snap[0] == "t,x,u1,u2"
        assert len(snap) > 10

    def test_bundled_laplace_run_levels_increase(self, tmp_path):
        # long run (about half a minute): the shipped whole-line scenario
        # must show both outer level positions marching right/left
        cfgp = scenario_dir() / "cauchy_wnv_laplace.json"
        out = tmp_path / "cl"
        assert main(["simulate-cauchy", "--config", str(cfgp),
                     "--out", str(out)]) == 0
        data = np.genfromtxt(out / "levels.csv", delimiter=",", names=True)
        one = data[(data["i"] == 1)]
        t, xp = one["t"], one["x_plus"]
        tail = np.isfinite(xp) & (t >= t[-1] / 2)
        assert tail.sum() > 50
        assert np.all(np.diff(xp[tail]) > 0)


FAST_SPEEDS = {"mu": 1.0,
               "numerics": {"dx": 0.25, "t_end": 0.0},
               "speeds": {"mu_sweep": [1.0, 2.0, 4.0], "length": 40.0,
                          "dx": 0.25, "tol_c": 0.002}}


@pytest.fixture(scope="module")
def speeds_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("speeds")
    cfgp = write_scenario(tmp, "fast_speeds", FAST_SPEEDS)
    out = tmp / "sp"
    assert main(["speeds", "--config", str(cfgp), "--out", str(out)]) == 0
    return out


class TestSpeeds:
    def test_speeds_json_keys(self, speeds_out):
        doc = json.loads((speeds_out / "speeds.json").read_text())
        assert 0.1 < doc["c0"] < 0.3
        assert doc["brackets"]["c0"][0] < doc["c0"] < doc["brackets"]["c0"][1]
        assert 1.5 < doc["cstar_linearized_diagnostic"] < 1.8

    def test_reruns_byte_identical(self, speeds_out, tmp_path):
        cfgp = write_scenario(tmp_path, "fast_speeds", FAST_SPEEDS)
        again = tmp_path / "sp"
        assert main(["speeds", "--config", str(cfgp), "--out", str(again)]) == 0
        for fname in ("semiwave.csv", "speeds.json"):
            assert (speeds_out / fname).read_bytes() == (again / fname).read_bytes(), fname

    def test_sweep_table_nondecreasing(self, speeds_out):
        doc = json.loads((speeds_out / "speeds.json").read_text())
        vals = [row["c0"] for row in doc["c0_sweep"]]
        assert vals == sorted(vals) and len(vals) == 3

    def test_semiwave_csv_header_comment(self, speeds_out):
        lines = (speeds_out / "semiwave.csv").read_text().splitlines()
        assert lines[0].startswith("# c=") and "residual=" in lines[0]
        assert lines[1] == "x,phi_1,phi_2"
        first = lines[2].split(",")
        assert float(first[1]) == pytest.approx(0.5, abs=1e-6)

    def test_cstar_uses_the_scenario_mesh(self, tmp_path, monkeypatch):
        seen = []

        def fake_cstar(model, kernels, **kw):
            seen.append(kw)
            return MinimalSpeedResult(value=1.7, linearized=1.665,
                                      bracket=(1.69, 1.71), trace=(), note="")

        monkeypatch.setattr(cli, "estimate_cstar", fake_cstar)
        cfgp = write_scenario(tmp_path, "mesh", {
            "mu": 1.0, "numerics": {"dx": 0.25, "t_end": 0.0},
            "speeds": {"dx": 0.25, "cstar": True, "length": 40.0,
                       "tol_c": 0.002}})
        assert main(["speeds", "--config", str(cfgp),
                     "--out", str(tmp_path / "sp")]) == 0
        assert len(seen) == 1 and seen[0]["dx"] == 0.25

    def test_speeds_read_the_numerics_mesh(self, tmp_path, monkeypatch):
        seen = []

        def fake_c0(model, kernels, mu, **kw):
            seen.append(("c0", kw["dx"]))
            raise FirstMomentDiverges("stub")

        def fake_cstar(model, kernels, **kw):
            seen.append(("cstar", kw["dx"]))
            return MinimalSpeedResult(value=1.7, linearized=1.665,
                                      bracket=(1.69, 1.71), trace=(), note="")

        monkeypatch.setattr(cli, "find_c0", fake_c0)
        monkeypatch.setattr(cli, "estimate_cstar", fake_cstar)
        cfgp = write_scenario(tmp_path, "mesh", {
            "mu": 1.0, "numerics": {"dx": 0.25, "t_end": 0.0},
            "speeds": {"cstar": True}})
        assert main(["speeds", "--config", str(cfgp),
                     "--out", str(tmp_path / "sp")]) == 0
        assert seen == [("c0", 0.25), ("cstar", 0.25)]

    def test_numerics_mesh_error_points_at_numerics(self, tmp_path, capsys):
        cfgp = write_scenario(tmp_path, "coarse", {
            "mu": 1.0, "numerics": {"dx": 0.5, "t_end": 0.0}, "speeds": {}})
        assert main(["speeds", "--config", str(cfgp), "--out", str(tmp_path / "sp")]) == 2
        assert "config error at /numerics/dx:" in capsys.readouterr().err

    def test_heavy_tail_reports_infinite_with_reason(self, tmp_path):
        cfgp = write_scenario(tmp_path, "heavy", {
            "mu": 1.0,
            "kernels": {"family": "powerlaw", "gamma": 1.5, "core_width": 1.0},
            "numerics": {"dx": 0.25, "t_end": 0.0},
            "speeds": {}})
        out = tmp_path / "sp"
        assert main(["speeds", "--config", str(cfgp), "--out", str(out)]) == 0
        doc = json.loads((out / "speeds.json").read_text())
        assert doc["c0"] == "infinite"
        assert "first moment" in doc["reason"]
        assert doc["cstar_linearized_diagnostic"] == "infinite"


    @pytest.mark.parametrize("speeds,pointer", [
        ({"length": 10.0}, "/speeds/length"),
        ({"dx": 0.5}, "/speeds/dx"),
        ({"cstar": True, "lengths": [40.0, 10.0]}, "/speeds/lengths"),
    ], ids=["length", "dx", "lengths"])
    def test_bad_settings_rejected_before_any_solve(self, tmp_path, monkeypatch, capsys,
                                                    speeds, pointer):
        solves = []
        monkeypatch.setattr(cli, "find_c0", lambda *a, **kw: solves.append(a))
        monkeypatch.setattr(cli, "estimate_cstar", lambda *a, **kw: solves.append(a))
        cfgp = write_scenario(tmp_path, "bad", {
            "mu": 1.0, "numerics": {"dx": 0.25, "t_end": 0.0}, "speeds": speeds})
        assert main(["speeds", "--config", str(cfgp), "--out", str(tmp_path / "sp")]) == 2
        assert f"config error at {pointer}:" in capsys.readouterr().err
        assert solves == []


class TestFit:
    def _fronts_csv(self, tmp_path):
        t = np.linspace(0.0, 100.0, 80)
        body = "\n".join(f"{v},{-2*v},{2*v}" for v in t)
        p = tmp_path / "fronts.csv"
        p.write_text("t,g,h\n" + body + "\n")
        return p

    def test_explicit_linear_law(self, tmp_path):
        self._fronts_csv(tmp_path)
        cfgp = (tmp_path / "fit.json")
        cfgp.write_text(json.dumps({
            "name": "fitjob",
            "fit": {"input": "fronts.csv", "signals": ["h", "neg_g"],
                    "law": "linear"}}))
        out = tmp_path / "f"
        assert main(["fit", "--config", str(cfgp), "--out", str(out)]) == 0
        doc = json.loads((out / "fits.json").read_text())
        for sig in ("h", "neg_g"):
            assert doc["fits"][sig]["model"] == "linear"
            assert doc["fits"][sig]["params"][0] == pytest.approx(2.0, abs=1e-9)
            assert doc["fits"][sig]["r_squared"] > 0.999999

    def test_auto_selection_attaches_choice(self, tmp_path):
        self._fronts_csv(tmp_path)
        cfgp = tmp_path / "fit.json"
        cfgp.write_text(json.dumps({
            "name": "fitjob",
            "fit": {"input": "fronts.csv", "law": "auto",
                    "window": [2.0, 100.0]}}))
        out = tmp_path / "f"
        assert main(["fit", "--config", str(cfgp), "--out", str(out)]) == 0
        doc = json.loads((out / "fits.json").read_text())
        assert doc["fits"]["h"]["selected"] == "linear"
        assert "margin" in doc["fits"]["h"]

    def test_missing_input_exits_2(self, tmp_path, capsys):
        cfgp = tmp_path / "fit.json"
        cfgp.write_text(json.dumps({
            "name": "fitjob", "fit": {"input": "nothing.csv"}}))
        assert main(["fit", "--config", str(cfgp),
                     "--out", str(tmp_path / "f")]) == 2
        assert "/fit/input" in capsys.readouterr().err


class TestSweep:
    def test_concurrent_runs_isolated_dirs(self, tmp_path):
        van = scenario_dir() / "wnv_vanishing.json"
        fast = write_scenario(tmp_path, "fast_speeds", {
            "mu": 1.0,
            "numerics": {"dx": 0.25, "t_end": 0.0},
            "speeds": {"length": 40.0, "dx": 0.25, "tol_c": 0.005}})
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({
            "name": "duo",
            "sweep": {"runs": [
                {"config": str(van), "task": "simulate-fb"},
                {"config": str(fast), "task": "speeds"}]}}))
        out = tmp_path / "swp"
        assert main(["sweep", "--config", str(sweep), "--out", str(out),
                     "--jobs", "2"]) == 0
        doc = json.loads((out / "sweep_summary.json").read_text())
        assert doc["runs"]["wnv_vanishing"]["exit"] == 0
        assert doc["runs"]["fast_speeds"]["exit"] == 0
        assert (out / "wnv_vanishing" / "summary.json").exists()
        assert (out / "fast_speeds" / "speeds.json").exists()

    def test_workers_fork_after_threaded_fft(self, tmp_path):
        # the FFT path joins its threads before each call returns, so a
        # process that has convolved on them still forks working workers;
        # a pool kept between calls would leave the children without threads
        heavy = {"kernels": {"family": "powerlaw", "gamma": 1.5, "core_width": 1.0},
                 "mu": 1.0, "h0": 70.0, "levels": [{"component": 1, "level": 0.25}],
                 "numerics": {"dx": 0.25, "t_end": 0.3, "x_max": 70.0}}
        runs = [write_scenario(tmp_path, f"heavy{i}", heavy) for i in (1, 2)]
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({
            "name": "heavy_pair",
            "sweep": {"runs": [{"config": str(r), "task": "simulate-cauchy"} for r in runs]}}))
        code = ("import sys, numpy as np\n"
                "from nlspread import nonlocal_ops\n"
                "from nlspread.cli import main\n"
                "from nlspread.kernels import KernelSpec, make_kernel\n"
                "nonlocal_ops._cpus = lambda: 2\n"
                "kern = make_kernel(KernelSpec.powerlaw(1.5, 1.0))\n"
                "nonlocal_ops.convolve_values(kern, np.ones((2, 1500)), 0.25)\n"
                "sys.exit(main(sys.argv[1:]))\n")
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        out = tmp_path / "swp"
        proc = subprocess.Popen([sys.executable, "-c", code, "sweep", "--config", str(sweep),
                                 "--out", str(out), "--jobs", "2"], env=env,
                                start_new_session=True, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)          # the workers as well
            proc.communicate()
            pytest.fail("sweep workers hung after a threaded FFT call")
        assert proc.returncode == 0
        doc = json.loads((out / "sweep_summary.json").read_text())
        assert [run["exit"] for run in doc["runs"].values()] == [0, 0]

    def test_failing_run_propagates_nonzero(self, tmp_path):
        bad = scenario_dir() / "invalid" / "bad_negative_mu.json"
        van = scenario_dir() / "wnv_vanishing.json"
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({
            "name": "mixed",
            "sweep": {"runs": [
                {"config": str(van), "task": "simulate-fb"},
                {"config": str(bad), "task": "simulate-fb"}]}}))
        out = tmp_path / "swp"
        code = main(["sweep", "--config", str(sweep), "--out", str(out),
                     "--jobs", "2"])
        assert code == 2
        doc = json.loads((out / "sweep_summary.json").read_text())
        assert doc["runs"]["bad_negative_mu"]["exit"] == 2
        assert doc["runs"]["wnv_vanishing"]["exit"] == 0

    def test_duplicate_run_names_rejected(self, tmp_path, capsys):
        van = scenario_dir() / "wnv_vanishing.json"
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({
            "name": "dup",
            "sweep": {"runs": [
                {"config": str(van), "task": "simulate-fb"},
                {"config": str(van), "task": "simulate-fb"}]}}))
        assert main(["sweep", "--config", str(sweep),
                     "--out", str(tmp_path / "o")]) == 2
        assert "/sweep/runs" in capsys.readouterr().err


    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected(self, tmp_path, monkeypatch, capsys, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({
            "name": "solo",
            "sweep": {"runs": [{"config": str(scenario_dir() / "wnv_vanishing.json"),
                                "task": "simulate-fb"}]}}))
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--config", str(sweep), "--out", str(tmp_path / "o"),
                  "--jobs", jobs])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestVerifyCommand:
    def test_kernel_suite_report(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = main(["verify", "--suite", "kernels", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "PASS" in text and "FAIL" not in text
        doc = json.loads((out / "verify_kernels.json").read_text())
        assert doc["all_passed"] is True
        assert all(set(r) >= {"name", "passed", "measured", "detail"}
                   for r in doc["results"])
