"""The module attributes perfbench's ``--trace 1`` wraps still exist and are used.

The tracer (perfbench/run.py, ``instrument``) replaces these attributes by
name and fails on a missing one; its counters are only meaningful while the
package calls through the same module globals.  perfbench itself is not
imported here.
"""

import importlib

import numpy as np
import pytest

from nlspread import cauchy as cy
from nlspread import freeboundary as fb
from nlspread import kernels as kn
from nlspread import nonlocal_ops
from nlspread import reactions as rx
from nlspread import semiwave as sw

TRACED = (
    ("cli", "main"), ("cli", "load_scenario"), ("cli", "build_fb_config"),
    ("cli", "build_cauchy_config"), ("cli", "run"), ("cli", "classify_outcome"),
    ("cli", "run_cauchy"), ("cli", "best_growth_law"), ("cli", "fit_front"),
    ("freeboundary", "step"), ("freeboundary", "boundary_flux"),
    ("freeboundary", "convolve_values"), ("freeboundary", "eval_F"),
    ("cauchy", "cstep"),
    ("nonlocal_ops", "kernel_weights"), ("nonlocal_ops", "_convolve_direct"),
    ("nonlocal_ops", "_convolve_fft"),
    ("semiwave", "kernel_weights"), ("semiwave", "eval_F"), ("semiwave", "solve_profile"),
    ("semiwave", "find_c0"), ("semiwave", "estimate_cstar"),
)


@pytest.mark.parametrize("module,attr", TRACED)
def test_traced_attribute_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"nlspread.{module}"), attr))


def _counting(monkeypatch, module, attr, calls):
    orig = getattr(module, attr)

    def wrapper(*args, **kwargs):
        calls.append((attr, len(args), sorted(kwargs)))
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, attr, wrapper)


def test_simulators_call_through_the_traced_globals(monkeypatch):
    calls = []
    for module, attr in ((nonlocal_ops, "kernel_weights"), (nonlocal_ops, "_convolve_direct"),
                         (nonlocal_ops, "_convolve_fft"), (fb, "boundary_flux")):
        _counting(monkeypatch, module, attr, calls)
    model = rx.wnv(1.0, 1.0, 0.5, 0.5, 1.0, 1.0)
    laplace = kn.make_kernel(kn.KernelSpec.laplace(1.0))
    fb.run(fb.FBConfig(model=model, kernels=laplace, mu=1.0, h0=20.0, dx=0.25,
                       t_end=0.3, dt=0.1))
    # one stencil for the run, one block convolution and one flux call per step
    assert [c[0] for c in calls].count("kernel_weights") == 1
    assert [c for c in calls if c[0] == "_convolve_direct"] == [
        ("_convolve_direct", 2, ["out", "padded"])] * 3
    assert [c for c in calls if c[0] == "boundary_flux"] == [("boundary_flux", 5, [])] * 3
    calls.clear()
    # a window capped at 561 nodes: half-width 560, past the direct limit
    heavy = kn.make_kernel(kn.KernelSpec.powerlaw(1.5, 1.0))
    cy.run_cauchy(cy.CauchyConfig(model=model, kernels=heavy, h0=70.0, dx=0.25,
                                  t_end=0.3, dt=0.1, x_max=70.0))
    assert 560 > nonlocal_ops.FFT_WINDOW_THRESHOLD
    assert [c[0] for c in calls] == ["kernel_weights"] + ["_convolve_fft"] * 3


def test_semiwave_calls_through_the_traced_globals(monkeypatch):
    calls = []
    for attr in ("kernel_weights", "eval_F"):
        _counting(monkeypatch, sw, attr, calls)
    model = rx.wnv(1.0, 1.0, 0.5, 0.5, 1.0, 1.0)
    laplace = kn.make_kernel(kn.KernelSpec.laplace(1.0))
    sol = sw.solve_profile(0.5, model, laplace, 20.0, dx=0.25, max_iter=3, strict=False)
    # one stencil per dispersing component, one rate per sweep and one for the defect
    assert sol.iterations == 3 and not sol.converged
    assert [c[0] for c in calls] == ["kernel_weights"] * 2 + ["eval_F"] * 4
    calls.clear()

    def stub_profile(c, *args, **kwargs):
        calls.append(("solve_profile", c))
        return sw.SemiWaveSolution(
            c=c, length=20.0, dx=0.25, x=np.zeros(1), phi=np.zeros((2, 1)),
            u_star=np.ones(2), residual=0.0, iterations=0, converged=True,
            monotone=True, flux_integrals=np.array([0.25, 0.25]), mid_saturation=1.0)

    monkeypatch.setattr(sw, "solve_profile", stub_profile)
    result = sw.find_c0(model, laplace, 1.0, tol_c=0.01)
    # Psi(c) = 0.5 for the stub, so the root is c = 0.5; every probe is
    # solved through the module global, and the final midpoint only when
    # the profile is first read
    assert abs(result.speed - 0.5) <= 0.01
    probes = [c for c, _ in result.trace]
    assert [c for _, c in calls] == probes
    sol = result.solution
    assert [c for _, c in calls] == probes + [result.speed]
    assert result.solution is sol
    assert [c for _, c in calls] == probes + [result.speed]
