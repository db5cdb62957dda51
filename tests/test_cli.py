"""End-to-end subcommand behavior: artifacts, determinism, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from nlspread import cli
from nlspread.cli import main
from nlspread.config import scenario_dir
from nlspread.semiwave import MinimalSpeedResult

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

    def test_m0_violation_exits_2_with_field_path(self, tmp_path, capsys):
        cfgp = scenario_dir() / "invalid" / "bad_m0_exceeds_m.json"
        code = main(["simulate-fb", "--config", str(cfgp),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "/model/m0" in capsys.readouterr().err

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


@pytest.fixture(scope="module")
def speeds_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("speeds")
    cfgp = write_scenario(tmp, "fast_speeds", {
        "mu": 1.0,
        "numerics": {"dx": 0.25, "t_end": 0.0},
        "speeds": {"mu_sweep": [1.0, 2.0, 4.0], "length": 40.0,
                   "dx": 0.25, "tol_c": 0.002}})
    out = tmp / "sp"
    assert main(["speeds", "--config", str(cfgp), "--out", str(out)]) == 0
    return out


class TestSpeeds:
    def test_speeds_json_keys(self, speeds_out):
        doc = json.loads((speeds_out / "speeds.json").read_text())
        assert 0.1 < doc["c0"] < 0.3
        assert doc["brackets"]["c0"][0] < doc["c0"] < doc["brackets"]["c0"][1]
        assert 1.5 < doc["cstar_linearized_diagnostic"] < 1.8

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
                                      bracket=(1.69, 1.71), trace=(),
                                      lengths=(50.0,), note="")

        monkeypatch.setattr(cli, "estimate_cstar", fake_cstar)
        cfgp = write_scenario(tmp_path, "mesh", {
            "mu": 1.0, "numerics": {"dx": 0.25, "t_end": 0.0},
            "speeds": {"dx": 0.25, "cstar": True, "length": 40.0,
                       "tol_c": 0.002}})
        assert main(["speeds", "--config", str(cfgp),
                     "--out", str(tmp_path / "sp")]) == 0
        assert len(seen) == 1 and seen[0]["dx"] == 0.25

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
