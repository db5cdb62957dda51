"""Self-tests of the benchmark's independent checkers in perfbench/checks.py.

Run either way, from the repository root:

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

The file name does not match pytest's test_*.py pattern, so `pytest -q`
from the repository root does not collect it: these tests vouch for the
benchmark's checks, not for the package.
"""

import math
import sys

import numpy as np

import checks

WNV = dict(a1=1.0, a2=1.0, b1=0.5, b2=0.5, e1=1.0, e2=1.0)
C_CONT = 1.6651            # continuous linear speed of WNV with Laplace(1)


def _c(dx=None):
    return checks.linear_speed(checks.wnv_jacobian_at_zero(WNV), (1.0, 1.0), 1.0, dx)


def test_continuous_linear_speed_closed_form():
    # symmetric WNV: s(lam) = lam^2 / (1 - lam^2) + 1/2; minimise s/lam densely
    lam = np.linspace(1e-3, 1 - 1e-6, 2_000_001)
    ref = float(np.min(lam / (1 - lam ** 2) + 0.5 / lam))
    assert abs(_c() - ref) < 1e-9
    assert abs(_c() - C_CONT) < 5e-5


def test_upwind_linear_speeds_at_the_benchmark_meshes():
    assert abs(_c(0.125) - 1.7158) < 5e-5
    assert abs(_c(0.25) - 1.7669) < 5e-5


def test_discrete_linear_speed_tends_to_continuous():
    dxs = [0.25 / 2 ** k for k in range(9)]
    gaps = [_c(dx) - _c() for dx in dxs]
    assert all(g > 0 for g in gaps)
    ratios = [b / a for a, b in zip(gaps, gaps[1:])]
    assert all(0.45 < r < 0.55 for r in ratios), ratios      # first order in dx
    assert gaps[-1] < 1e-3


def _nodes(g, h, dx):
    k_lo, k_hi = math.floor(g / dx) + 1, math.ceil(h / dx) - 1
    return np.arange(k_lo, k_hi + 1) * dx


def test_flux_quadrature_exact_on_piecewise_linear_integrand():
    # u = tent / tail makes the integrand a tent with its apex on a node,
    # 0 at both edges: the trapezoid rule with partial cells is exact
    g, h, dx = -3.37, 5.81, 0.25
    x = _nodes(g, h, dx)
    apex = x[np.argmin(np.abs(x - 1.0))]
    tent = np.where(x <= apex, (x - g) / (apex - g), (h - x) / (h - apex))
    exact = 0.5 * (h - g)
    for side, dist in (("right", h - x), ("left", x - g)):
        u = tent / checks.laplace_tail(dist)
        assert abs(checks.edge_flux(x, u, g, h, side) - exact) < 1e-13 * exact


def test_flux_quadrature_second_order_on_smooth_profile():
    # u = cos(pi x / 2H) on (-H, H): closed-form tail integral
    H = 5.1
    a = math.pi / (2 * H)
    exact = a * (1 + math.exp(-2 * H)) / (2 * (1 + a * a))
    errs = []
    for dx in (0.25, 0.125, 0.0625):
        x = _nodes(-H, H, dx)
        flux = checks.edge_flux(x, np.cos(a * x), -H, H, "right")
        errs.append(abs(flux - exact))
        assert errs[-1] < 0.5 * dx * dx * exact      # the edge-law check's tolerance
    assert all(3.0 < e0 / e1 < 5.0 for e0, e1 in zip(errs, errs[1:])), errs


def test_growth_fit_recovers_exact_laws():
    t = np.linspace(2.0, 50.0, 200)
    assert np.allclose(checks.growth_fit(t, 0.3 * t + 2.0, "linear"), (0.3, 2.0))
    assert np.allclose(checks.growth_fit(t, 0.7 * t * np.log(t) - 1.0, "tlogt"), (0.7, -1.0))
    assert np.allclose(checks.growth_fit(t, 2.0 * t ** 1.5, "power"), (2.0, 1.5))


def test_aitken_is_exact_on_geometric_increments():
    limit, ratio = checks.aitken([1.7 - 0.6 * 0.55 ** n for n in range(3)])
    assert abs(limit - 1.7) < 1e-12 and abs(ratio - 0.55) < 1e-12


if __name__ == "__main__":
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as e:
                failed += 1
                print(f"FAIL {name}: {e}")
    sys.exit(1 if failed else 0)
