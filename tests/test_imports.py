"""Importing the package stays cheap: heavy scipy modules load where they are used."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import nlspread
from nlspread import config


def run_in_subprocess(code: str, *args: str) -> dict:
    """Run code in a fresh interpreter; its last line of output is parsed as JSON."""
    src = str(Path(nlspread.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, env=env, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    code = ("import json, sys, nlspread; "
            "print(json.dumps([m for m in ('scipy.stats', 'scipy.optimize', 'scipy.fft', "
            "'scipy.special') if m in sys.modules]))")
    assert run_in_subprocess(code) == []


SET_UP_ONLY = ("jsonschema", "referencing", "attrs", "rpds", "concurrent.futures", "logging",
               "nlspread.verification")


@pytest.mark.parametrize("module", ["nlspread", "nlspread.cli"])
def test_import_loads_no_validator_pool_or_verification(module):
    # the scenario schema is checked in-house; worker pools and the verify
    # suites are imported by the code that first uses them
    code = (f"import json, sys, {module}; "
            f"print(json.dumps([m for m in {SET_UP_ONLY!r} if m in sys.modules]))")
    assert run_in_subprocess(code) == []


def test_verification_names_load_on_first_use():
    code = ("import json, sys, nlspread; "
            "before = 'nlspread.verification' in sys.modules; "
            "run = nlspread.run_suite; "
            "print(json.dumps([before, run.__module__, nlspread.CriterionResult.__name__]))")
    assert run_in_subprocess(code) == [False, "nlspread.verification", "CriterionResult"]
    with pytest.raises(AttributeError):
        nlspread.no_such_name


BUILD_BUNDLED = textwrap.dedent("""
    import json, sys
    from nlspread import config

    builders = {"cauchy": config.build_cauchy_config, "speeds": config.build_speeds}
    built = []
    for path in sorted(config.scenario_dir().glob("*_*.json")):
        scenario = config.load_scenario(path)
        model = config.build_model(scenario)
        config.build_kernels(scenario, model.m0)
        builders.get(path.stem.split("_")[0], config.build_fb_config)(scenario)
        built.append(path.stem)
    print(json.dumps({"built": built, "loaded": [
        m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules]}))
""")


def test_building_bundled_inputs_leaves_scipy_stats_and_optimize_unloaded():
    # the builders check every field without computing the time-step constant
    doc = run_in_subprocess(BUILD_BUNDLED)
    assert len(doc["built"]) == 5
    assert doc["loaded"] == []


PROFILE_PATH = textwrap.dedent("""
    import json, sys
    from nlspread import semiwave
    from nlspread.kernels import KernelSpec, make_kernel
    from nlspread.reactions import wnv

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    model, kern = wnv(1.0, 1.0, 0.5, 0.5, 1.0, 1.0), make_kernel(KernelSpec.laplace(1.0))
    before = scipy_modules()
    semiwave.solve_profile(0.5, model, kern, 30.0, dx=0.25)
    semiwave.find_c0(model, kern, 1.0, L=30.0, dx=0.25, tol_c=0.05)
    profiles = sorted(set(scipy_modules()) - set(before))
    semiwave.estimate_cstar(model, kern, lengths=(20.0,), dx=0.25, rel_tol=0.5)
    cstar = sorted(set(scipy_modules()) - set(before))
    print(json.dumps({"profiles": profiles, "cstar": cstar}))
""")


def test_profile_solves_load_no_scipy():
    # the relaxation step and the linearized speed are numpy only, so
    # neither a profile solve nor estimate_cstar on a laplace kernel loads
    # any scipy module
    assert run_in_subprocess(PROFILE_PATH) == {"profiles": [], "cstar": []}


CLI_RUN = textwrap.dedent("""
    import json, sys
    from nlspread import cli

    code = cli.main(sys.argv[1:])
    print(json.dumps({"exit": code, "loaded": [
        m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules]}))
""")


@pytest.mark.parametrize("task,scenario", [("simulate-fb", "wnv_spreading"),
                                           ("simulate-cauchy", "cauchy_wnv_laplace")])
def test_simulators_load_neither_scipy_stats_nor_optimize(task, scenario, tmp_path):
    # dt reads lipschitz_bound, a numpy lattice of the state box
    path = config.scenario_dir() / f"{scenario}.json"
    doc = run_in_subprocess(CLI_RUN, task, "--config", str(path), "--out", str(tmp_path))
    assert doc == {"exit": 0, "loaded": []}


ASSUMPTIONS = textwrap.dedent("""
    import json, sys
    from nlspread import reactions

    report = reactions.verify_assumptions(reactions.wnv(1.0, 1.0, 0.5, 0.5, 1.0, 1.0))
    print(json.dumps({"n_samples": report.n_samples, "loaded": [
        m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules]}))
""")


def test_verify_assumptions_loads_neither_scipy_stats_nor_optimize():
    assert run_in_subprocess(ASSUMPTIONS) == {"n_samples": 256, "loaded": []}
