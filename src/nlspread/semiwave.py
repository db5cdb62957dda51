"""Traveling profile solver on a bounded left half-line and front speeds.

A rightward front moving at speed c is represented by a componentwise
nonincreasing profile phi on [-L, 0] with phi(-L) = u_star, phi(0) = 0,
solving the stationary system

    d_i (J_i * phi_i - phi_i) + c phi_i' + F_i(phi) = 0,

where the convolution sees phi extended by u_star to the left of -L and
by zero to the right of 0.  Profiles are computed as the maximal fixed
point of a monotone relaxation started from the saturated state, which
makes the result deterministic and hysteresis free.

Two speed readouts build on the solver:

* ``find_c0`` locates the speed matched to a boundary expansion rule,
  the root of Psi(c) = c where Psi integrates the profile against the
  kernel tail weights.
* ``estimate_cstar`` locates the largest speed for which a saturated
  profile survives on growing windows, with a linearized rate/decay
  diagnostic computed from the kernel moment generating functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .freeboundary import _component_kernels, _component_mu
from .kernels import INFINITE, Kernel, classify, two_sided_exp_moment
from .nonlocal_ops import check_mesh, kernel_weights
from .reactions import (ReactionModel, eval_F, jacobian, lipschitz_bound,
                        positive_equilibrium)

__all__ = [
    "SemiwaveError", "NoConvergence", "FirstMomentDiverges",
    "BracketNotFound", "ThresholdNotBracketed",
    "SemiWaveSolution", "FrontSpeedResult", "MinimalSpeedResult",
    "solve_profile", "flux_functional", "find_c0",
    "linearized_front_speed", "estimate_cstar",
]


class SemiwaveError(RuntimeError):
    pass


class NoConvergence(SemiwaveError):
    """Relaxation failed to reach the requested tolerance."""


class FirstMomentDiverges(SemiwaveError):
    """A kernel with positive expansion weight has no finite first moment."""


class BracketNotFound(SemiwaveError):
    """The speed functional never crossed zero within the doubling budget."""


class ThresholdNotBracketed(SemiwaveError):
    """The existence probe gave the same verdict across the whole speed grid."""


# ----------------------------------------------------------------------
# profile solver

@dataclass(frozen=True)
class SemiWaveSolution:
    """Discrete traveling profile on [-L, 0] together with diagnostics.

    ``flux_integrals`` holds, per dispersing component, the integral of
    phi_i(x) * Jtail_i(-x) over the window; the boundary flux functional
    is their weighted sum, linear in the expansion coefficients.
    ``mid_saturation`` is min_i phi_i(-L/2) / u_star_i, the readout used
    as an existence proxy.  ``monotone`` records whether every component
    is nonincreasing within a 1e-8 tolerance; a violating profile is
    still returned so it can be inspected.
    """

    c: float
    length: float
    dx: float
    x: np.ndarray
    phi: np.ndarray
    u_star: np.ndarray
    residual: float
    iterations: int
    converged: bool
    monotone: bool
    flux_integrals: np.ndarray
    mid_saturation: float


def solve_profile(c: float, model: ReactionModel, kernels, L: float,
                  dx: float | None = None, tol: float = 1e-8,
                  max_iter: int = 60_000, strict: bool = True) -> SemiWaveSolution:
    """Relax to the maximal profile with speed c on [-L, 0].

    The iteration treats the local drain terms implicitly (division by
    1 + dtau * (d_i + c/dx)) and everything else explicitly, which keeps
    the update monotone for dtau below the reaction Lipschitz time.
    Started from the saturated state the iterates decrease pointwise, so
    the limit is the maximal fixed point.  The advection derivative is
    one sided toward the origin; that is the side the profile data comes
    from for a rightward front, and the opposite stencil amplifies
    oscillatory modes no matter how small dtau is.

    With ``strict=False`` an iteration that stalls above ``tol`` returns
    the current state flagged ``converged=False`` instead of raising.
    """
    if not (c >= 0 and math.isfinite(c)):
        raise ValueError("profile speed must be finite and nonnegative")
    kerns = _component_kernels(kernels, model.m0)
    scale = max(k.core_scale for k in kerns)
    if not L >= 20.0 * scale:
        raise ValueError(f"window length {L} too short; need at least 20 kernel scales")
    if dx is None:
        dx = min(k.core_scale for k in kerns) / 8.0
    for k in kerns:
        check_mesh(k, dx)
    n = int(round(L / dx)) + 1
    dx = L / (n - 1)
    x = np.linspace(-L, 0.0, n)

    u_star = positive_equilibrium(model)
    d = model.d
    m = model.m

    # per-kernel weight stencils; heavy tails are capped at a window that
    # already carries all but ~1e-4 of the mass
    weights = []
    for k in kerns:
        cap = max(n - 1, int(math.ceil(64.0 * k.core_scale / dx)))
        weights.append(kernel_weights(k, dx, max_half_width=cap))

    # extended buffers: saturated to the left of -L, empty to the right of 0
    exts = []
    for i, w in enumerate(weights):
        half = (w.size - 1) // 2
        ext = np.zeros(n + 2 * half)
        ext[:half] = u_star[i]
        exts.append((half, ext))

    dtau = 0.9 / max(lipschitz_bound(model), 1e-12)
    denom = (1.0 + dtau * (d + c / dx))[:, None]

    phi = np.repeat(u_star[:, None], n, axis=1)
    phi[:, -1] = 0.0

    conv = np.zeros((m, n))
    it = 0
    converged = False
    for it in range(1, max_iter + 1):
        for i, (w, (half, ext)) in enumerate(zip(weights, exts)):
            ext[half:half + n] = phi[i]
            conv[i] = np.convolve(ext, w, mode="valid")
        rate_in = eval_F(model, phi, validate=False)
        rate_in += d[:, None] * conv
        rate_in[:, :-1] += (c / dx) * phi[:, 1:]
        phi_new = (phi + dtau * rate_in) / denom
        phi_new[:, 0] = u_star
        phi_new[:, -1] = 0.0
        np.clip(phi_new, 0.0, u_star[:, None], out=phi_new)
        delta = float(np.max(np.abs(phi_new - phi)))
        phi = phi_new
        if delta < tol * dtau:
            converged = True
            break
    if not converged and strict:
        raise NoConvergence(
            f"profile relaxation at c={c:g}, L={L:g} still moving after {max_iter} sweeps")

    # stationary defect of the final iterate, interior nodes only
    for i, (w, (half, ext)) in enumerate(zip(weights, exts)):
        ext[half:half + n] = phi[i]
        conv[i] = np.convolve(ext, w, mode="valid")
    defect = eval_F(model, phi, validate=False)
    defect += d[:, None] * (conv - phi)
    defect[:, :-1] += (c / dx) * (phi[:, 1:] - phi[:, :-1])
    residual = float(np.max(np.abs(defect[:, 1:-1]))) if n > 2 else 0.0

    mono_tol = 1e-8 * np.maximum(1.0, u_star)[:, None]
    monotone = bool(np.all(np.diff(phi, axis=1) <= mono_tol))

    flux = np.empty(model.m0)
    for i in range(model.m0):
        flux[i] = float(np.trapezoid(phi[i] * kerns[i].tail(-x), x))

    mid = (n - 1) // 2
    with np.errstate(divide="ignore"):
        mid_sat = float(np.min(phi[:, mid] / u_star))

    return SemiWaveSolution(
        c=float(c), length=float(L), dx=float(dx), x=x, phi=phi, u_star=u_star,
        residual=residual, iterations=it, converged=converged, monotone=monotone,
        flux_integrals=flux, mid_saturation=mid_sat)


def flux_functional(sol: SemiWaveSolution, mu) -> float:
    """Weighted boundary flux of a profile: sum_i mu_i * flux_integrals[i]."""
    m = sol.phi.shape[0]
    m0 = sol.flux_integrals.size
    mu_vec = _component_mu(mu, m, m0)
    return float(np.dot(mu_vec, sol.flux_integrals))


# ----------------------------------------------------------------------
# boundary-matched speed

@dataclass(frozen=True)
class FrontSpeedResult:
    """Root of Psi(c) - c with the bisection audit trail attached."""

    speed: float
    solution: SemiWaveSolution
    bracket: tuple[float, float]
    trace: tuple[tuple[float, float], ...]   # (c, Psi(c) - c) in evaluation order
    length: float


def find_c0(model: ReactionModel, kernels, mu, L: float | None = None,
            dx: float | None = None, tol_c: float = 1e-3,
            max_doublings: int = 60, tol: float = 1e-8,
            cache: dict | None = None) -> FrontSpeedResult:
    """Locate the speed where the boundary flux functional matches c.

    Psi(c) decreases in c while the identity grows, so G(c) = Psi(c) - c
    has a single root; it is bracketed by doubling from tol_c and then
    bisected to width tol_c.  Kernels carrying positive expansion weight
    must have a finite first moment, otherwise no such speed exists and
    ``FirstMomentDiverges`` is raised.  ``cache`` maps already-solved
    speeds to their profiles and may be shared between calls that use the
    same model, kernels, window and mesh.
    """
    kerns = _component_kernels(kernels, model.m0)
    mu_vec = _component_mu(mu, model.m, model.m0)
    for i, k in enumerate(kerns):
        if mu_vec[i] > 0 and not classify(k).finite_first_moment:
            raise FirstMomentDiverges(
                f"kernel for component {i} has a divergent first moment; "
                "boundary-matched fronts accelerate instead of settling on a speed")
    if L is None:
        L = 50.0 * max(k.core_scale for k in kerns)
    if cache is None:
        cache = {}

    trace: list[tuple[float, float]] = []

    def G(c: float) -> float:
        sol = cache.get(c)
        if sol is None:
            sol = solve_profile(c, model, kerns, L, dx=dx, tol=tol)
            cache[c] = sol
        val = float(np.dot(mu_vec, sol.flux_integrals)) - c
        trace.append((c, val))
        return val

    if G(tol_c) <= 0.0:
        lo, hi = 0.0, tol_c          # root below the resolution floor
    else:
        lo, hi = tol_c, None
        c_try = tol_c
        for _ in range(max_doublings):
            c_try *= 2.0
            if G(c_try) <= 0.0:
                hi = c_try
                break
            lo = c_try
        if hi is None:
            raise BracketNotFound(
                f"flux functional still exceeds c at c={c_try:g} after "
                f"{max_doublings} doublings from {tol_c:g}")

    while hi - lo > tol_c:
        mid = 0.5 * (lo + hi)
        if G(mid) <= 0.0:
            hi = mid
        else:
            lo = mid

    # the recorded evaluations must change sign exactly once in c; a root
    # below the resolution floor leaves a one-sided trace, which is fine
    pts = sorted(trace)
    flips = sum(1 for a, b in zip(pts, pts[1:]) if (a[1] > 0) != (b[1] > 0))
    if flips != 1 and any(v > 0 for _, v in pts):
        raise SemiwaveError(
            f"speed functional changed sign {flips} times across the trace; "
            "refine tol_c or the mesh")

    speed = 0.5 * (lo + hi)
    sol = cache.get(speed)
    if sol is None:
        sol = solve_profile(speed, model, kerns, L, dx=dx, tol=tol)
        cache[speed] = sol
    return FrontSpeedResult(speed=speed, solution=sol, bracket=(lo, hi),
                            trace=tuple(trace), length=float(L))


# ----------------------------------------------------------------------
# minimal traveling speed

@dataclass(frozen=True)
class MinimalSpeedResult:
    """Threshold speed for profile existence plus the linearized readout.

    ``value`` is INFINITE when some dispersing kernel has no finite
    exponential moment; fronts then outrun every linear speed and no
    threshold exists.  Otherwise it is the midpoint of ``bracket``.
    """

    value: float
    linearized: float
    bracket: tuple[float, float] | None
    trace: tuple[tuple[float, float, float], ...]   # (c, L, mid saturation)
    lengths: tuple[float, ...]
    note: str


def _lam_sup(kern: Kernel) -> float:
    """Supremum of decay rates with a finite two-sided exponential moment."""
    fam = kern.spec.family
    if fam == "laplace":
        return 1.0 / kern.spec.scale
    if fam == "powerlaw":
        return 0.0
    if fam == "table":
        return INFINITE if classify(kern).finite_exponential_moment else 0.0
    return INFINITE


def linearized_front_speed(model: ReactionModel, kernels) -> float:
    """Decay-rate optimized speed of the linearization at the empty state.

    For decay rate lam the fastest growing linear mode travels at
    s(lam) / lam where s(lam) is the spectral bound of the dispersal
    moment matrix plus the rate jacobian at zero; the front speed
    diagnostic is the minimum over admissible lam.  INFINITE when some
    dispersing kernel has no finite exponential moment.
    """
    kerns = _component_kernels(kernels, model.m0)
    lam_hi = min(_lam_sup(k) for k in kerns)
    if lam_hi <= 0.0:
        return INFINITE
    J0 = jacobian(model, np.zeros(model.m))
    d = model.d

    def s_over_lam(lam: float) -> float:
        A = J0.copy()
        for i in range(model.m0):
            A[i, i] += d[i] * (two_sided_exp_moment(kerns[i], lam) - 1.0)
        return float(np.max(np.real(np.linalg.eigvals(A)))) / lam

    core = min(k.core_scale for k in kerns)
    hi = lam_hi * (1.0 - 1e-9) if math.isfinite(lam_hi) else 200.0 / core
    grid = np.geomspace(1e-4 / core, hi, 600)
    vals = np.array([s_over_lam(l) for l in grid])
    j = int(np.argmin(vals))
    a = grid[max(j - 1, 0)]
    b = grid[min(j + 1, grid.size - 1)]
    res = optimize.minimize_scalar(s_over_lam, bounds=(a, b), method="bounded",
                                   options={"xatol": 1e-10})
    return float(min(res.fun, vals[j]))


def estimate_cstar(model: ReactionModel, kernels, lengths=None, c_grid=None,
                   dx: float | None = None, tol: float = 1e-6,
                   rel_tol: float = 1e-2, max_iter: int | None = None) -> MinimalSpeedResult:
    """Bracket the largest speed at which a saturated profile survives.

    A speed c is alive when the maximal profile on the largest scheduled
    window still sits above half saturation at the window midpoint, and
    dead when it has collapsed toward the empty state there.  Window
    size matters in both directions: on short windows the transition
    foot of a perfectly healthy profile can reach the midpoint and read
    low, while a retreating interface needs enough relaxation sweeps to
    cross half the window before its collapse is visible.  Probes
    therefore escalate through ``lengths``, stopping early only when a
    converged profile is decisively saturated; collapse verdicts always
    come from the largest window, whose sweep budget is scaled so an
    interface retreating at the bracket resolution has time to cross.

    The threshold is scanned on ``c_grid`` (default: a band around the
    linearized speed) and refined by bisection to ``rel_tol``.  The
    one-sided advection stencil adds numerical dispersal of order
    c*dx/2, which biases the threshold up by a few percent at the
    default mesh; halve ``dx`` to tighten it.
    """
    kerns = _component_kernels(kernels, model.m0)
    heavy = [i for i, k in enumerate(kerns) if not classify(k).finite_exponential_moment]
    if heavy:
        return MinimalSpeedResult(
            value=INFINITE, linearized=INFINITE, bracket=None, trace=(),
            lengths=(), note=(
                f"kernel for component {heavy[0]} has a divergent exponential moment; "
                "level sets accelerate and no finite minimal speed exists"))

    c_lin = linearized_front_speed(model, kerns)
    scale = max(k.core_scale for k in kerns)
    if lengths is None:
        lengths = (50.0 * scale, 100.0 * scale, 200.0 * scale)
    lengths = tuple(sorted(float(L) for L in lengths))
    if c_grid is None:
        c_grid = c_lin * np.linspace(0.3, 1.15, 10)
    c_grid = np.sort(np.asarray(c_grid, dtype=float))
    if c_grid.size < 2 or c_grid[0] <= 0:
        raise ValueError("speed grid must hold at least two positive speeds")

    width = max(1e-3, rel_tol * c_lin)
    dtau = 0.9 / max(lipschitz_bound(model), 1e-12)

    def budget(L: float) -> int:
        if max_iter is not None:
            return max_iter
        return max(60_000, int(0.75 * L / (width * dtau)))

    trace: list[tuple[float, float, float]] = []

    def alive(c: float) -> bool:
        verdict = False
        for L in lengths:
            sol = solve_profile(c, model, kerns, L, dx=dx, tol=tol,
                                max_iter=budget(L), strict=False)
            trace.append((c, L, sol.mid_saturation))
            verdict = sol.mid_saturation >= 0.5
            if verdict and sol.converged and sol.mid_saturation >= 0.95:
                break               # saturated fixed point; larger windows agree
        return verdict

    lo = None
    hi = None
    for c in c_grid:
        if alive(c):
            lo = float(c)
        else:
            hi = float(c)
            break
    if lo is None:
        raise ThresholdNotBracketed(
            f"no surviving profile even at c={c_grid[0]:g}; lower the grid floor")
    if hi is None:
        raise ThresholdNotBracketed(
            f"profiles survive up to c={c_grid[-1]:g}; raise the grid ceiling")

    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if alive(mid):
            lo = mid
        else:
            hi = mid

    return MinimalSpeedResult(
        value=0.5 * (lo + hi), linearized=c_lin, bracket=(lo, hi),
        trace=tuple(trace), lengths=lengths, note="")
