"""Independent reference computations for the benchmark's output checks.

Everything here uses numpy and closed forms only; nothing is imported
from nlspread, so a fault in the package cannot hide in its own check.
"""

from __future__ import annotations

import math

import numpy as np


def laplace_tail(z, scale: float = 1.0) -> np.ndarray:
    """Closed-form tail mass of the Laplace kernel: integral of J over [z, inf)."""
    return 0.5 * np.exp(-np.asarray(z, dtype=float) / scale)


def laplace_mgf(lam, scale: float = 1.0) -> np.ndarray:
    """Two-sided moment generating function 1 / (1 - (scale*lam)^2)."""
    lam = np.asarray(lam, dtype=float)
    return 1.0 / (1.0 - (scale * lam) ** 2)


def wnv_equilibrium(p: dict) -> np.ndarray:
    """Closed-form positive equilibrium of the wnv system."""
    gap = p["a1"] * p["a2"] * p["e1"] * p["e2"] - p["b1"] * p["b2"]
    return np.array([gap / (p["a1"] * p["a2"] * p["e2"] + p["b1"] * p["a2"]),
                     gap / (p["a1"] * p["a2"] * p["e1"] + p["a1"] * p["b2"])])


def wnv_jacobian_at_zero(p: dict) -> np.ndarray:
    return np.array([[-p["b1"], p["a1"] * p["e1"]],
                     [p["a2"] * p["e2"], -p["b2"]]])


def linear_speed(J0: np.ndarray, d, scale: float = 1.0, dx: float | None = None) -> float:
    """Spreading speed of the linearization at zero, Laplace dispersal.

    For decay rate lam the growth rate is the top eigenvalue s(lam) of
    J0 + diag(d) (M(lam) - 1).  The continuous speed is min s(lam)/lam.
    With ``dx`` the advection term is the one-sided difference the profile
    solver uses, whose symbol replaces lam by (1 - exp(-lam dx)) / dx.
    """
    d = np.asarray(d, dtype=float)

    def speeds(lam):
        A = J0[None, :, :] + np.einsum("k,ij->kij", laplace_mgf(lam, scale) - 1.0,
                                       np.diag(d))
        s = np.max(np.linalg.eigvals(A).real, axis=1)
        rate = lam if dx is None else -np.expm1(-lam * dx) / dx
        return s / rate

    lam_hi = 1.0 / scale
    grid = np.linspace(lam_hi * 1e-3, lam_hi * (1.0 - 1e-6), 4001)
    j = int(np.argmin(speeds(grid)))
    a, b = grid[max(j - 1, 0)], grid[min(j + 1, grid.size - 1)]
    ratio = 0.5 * (math.sqrt(5.0) - 1.0)
    for _ in range(80):        # golden section on the bracketing cells
        c1, c2 = b - ratio * (b - a), a + ratio * (b - a)
        f1, f2 = speeds(np.array([c1, c2]))
        if f1 < f2:
            b = c2
        else:
            a = c1
    return float(speeds(np.array([0.5 * (a + b)]))[0])


def edge_flux(x: np.ndarray, u: np.ndarray, g: float, h: float, side: str,
              scale: float = 1.0) -> float:
    """Mass a Laplace kernel carries from u on the nodes x past one edge.

    Trapezoid rule on the nodes; in the partial cells next to g and h the
    integrand falls linearly to 0.  Right edge: integral over (g, h) of
    tail(h - x) u(x) dx; the left edge mirrors it.
    """
    dist = h - x if side == "right" else x - g
    f = laplace_tail(dist, scale) * u
    dx = x[1] - x[0]
    core = dx * (np.sum(f) - 0.5 * (f[0] + f[-1]))
    return float(core + 0.5 * f[0] * (x[0] - g) + 0.5 * f[-1] * (h - x[-1]))


def semiwave_flux(x: np.ndarray, phi: np.ndarray, scale: float = 1.0) -> float:
    """Integral over [-L, 0] of phi(x) tail(-x), trapezoid rule."""
    f = phi * laplace_tail(-x, scale)
    return float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(x)))


def growth_fit(t: np.ndarray, y: np.ndarray, law: str) -> tuple[float, float]:
    """Least-squares coefficient and intercept of one growth law.

    linear: y = a t + b; tlogt: y = a t log t + b; power: y = A t^p,
    fitted in log space and returned as (A, p).
    """
    if law == "linear":
        X, Y = t, y
    elif law == "tlogt":
        X, Y = t * np.log(t), y
    elif law == "power":
        X, Y = np.log(t), np.log(y)
    else:
        raise ValueError(law)
    slope, icept = np.linalg.lstsq(np.stack([X, np.ones_like(X)], axis=1), Y,
                                   rcond=None)[0]
    if law == "power":
        return float(math.exp(icept)), float(slope)
    return float(slope), float(icept)


def aitken(seq) -> tuple[float, float]:
    """Aitken delta-squared limit of three terms and the increment ratio."""
    c0, c1, c2 = (float(v) for v in seq)
    d1, d2 = c1 - c0, c2 - c1
    return c2 - d2 * d2 / (d2 - d1), d2 / d1
