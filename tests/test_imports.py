"""Importing the package stays cheap: heavy scipy modules load where they are used."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import nlspread


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    src = str(Path(nlspread.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, nlspread; "
            "print(' '.join(m for m in ('scipy.stats', 'scipy.optimize', 'scipy.fft', "
            "'scipy.special') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == ""



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
    # the builders check every field without the time-step constant, whose
    # Sobol sample imports scipy.stats (0.5-0.7 s of set-up time)
    src = str(Path(nlspread.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", BUILD_BUNDLED], capture_output=True,
                         text=True, env=env, check=True)
    doc = json.loads(out.stdout)
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
    semiwave.estimate_cstar(model, kern, lengths=(20.0,), c_grid=(1.0, 3.0), dx=0.25,
                            rel_tol=0.5)
    print(json.dumps({"profiles": profiles, "cstar_stats": "scipy.stats" in sys.modules}))
""")


def test_profile_solves_load_no_scipy():
    # the relaxation step reads the Jacobian diagonal on a lattice, not the
    # Sobol-sampled Lipschitz bound of the simulators, so no profile solve
    # pays the scipy.stats import; estimate_cstar still loads scipy.optimize
    src = str(Path(nlspread.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", PROFILE_PATH], capture_output=True,
                         text=True, env=env, check=True)
    doc = json.loads(out.stdout)
    assert doc == {"profiles": [], "cstar_stats": False}
