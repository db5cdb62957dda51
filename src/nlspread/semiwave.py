"""Traveling profile solver on a bounded left half-line and front speeds.

A rightward front moving at speed c is represented by a componentwise
nonincreasing profile phi on [-L, 0] with phi(-L) = u_star, phi(0) = 0,
solving the stationary system

    d_i (J_i * phi_i - phi_i) + c phi_i' + F_i(phi) = 0,

where the convolution sees phi extended by u_star to the left of -L and
by zero to the right of 0.  Profiles are computed as the maximal fixed
point of a monotone relaxation started from the saturated state, which
makes the result deterministic and hysteresis free.  Each sweep is an
upwind Gauss-Seidel step, solved right to left by a doubling scan, at
the largest pseudo-time step that keeps it order preserving,
dtau = 0.9 / max(-dF_i/du_i) over [0, u*] (``relaxation_step``).

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

from .freeboundary import _component_kernels, _component_mu
from .kernels import INFINITE, classify, exp_abscissa, overflow_rate, two_sided_exp_moment
from .nonlocal_ops import check_mesh, kernel_weights
from .reactions import ReactionModel, diagonal_drain, eval_F, jacobian, positive_equilibrium

__all__ = [
    "SemiwaveError", "NoConvergence", "NotMonotone", "FirstMomentDiverges",
    "BracketNotFound", "ThresholdNotBracketed",
    "SemiWaveSolution", "FrontSpeedResult", "MinimalSpeedResult",
    "check_window", "relaxation_step", "solve_profile", "flux_functional", "find_c0",
    "linearized_front_speed", "estimate_cstar",
]

C0_TOL = 1e-8              # relaxation tolerance of the find_c0 probes
C0_MAX_DOUBLINGS = 60      # find_c0 bracket search: doublings from tol_c
CSTAR_TOL = 1e-6           # relaxation tolerance of the estimate_cstar probes
SCAN_FLOOR = 1e-17         # smallest r**shift the upwind scan still applies


class SemiwaveError(RuntimeError):
    pass


class NoConvergence(SemiwaveError):
    """Relaxation failed to reach the requested tolerance."""


class NotMonotone(SemiwaveError):
    """A guarded relaxation sweep rose above the roundoff floor."""


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
    still returned so it can be inspected.  ``stop`` says why the
    relaxation ended: "tol", "budget", or an early verdict, "dead"
    (midpoint below half saturation) or "sign" (flux functional at or
    below c).  ``start`` says what it started from: "saturated", a
    supersolution from a smaller "window" or a lower "speed", or an
    unfinished iterate at the same speed ("resume"); see
    ``solve_profile``.
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
    stop: str = "tol"
    start: str = "saturated"


def check_window(kernels, L: float) -> None:
    """Reject a profile window shorter than 20 core scales of the widest kernel."""
    scale = max(k.core_scale for k in kernels)
    if not L >= 20.0 * scale:
        raise ValueError(f"window length {L} too short; need at least 20 kernel scales")


def _mesh(kerns, L: float, dx: float | None) -> tuple[int, float]:
    """Node count and spacing of the profile grid on [-L, 0]."""
    if dx is None:
        dx = min(k.core_scale for k in kerns) / 8.0
    n = int(round(L / dx)) + 1
    return n, L / (n - 1)


def relaxation_step(model: ReactionModel) -> float:
    """Pseudo-time step of every profile relaxation: 0.9 / D, D = ``diagonal_drain``.

    This is the step that keeps the sweep order preserving: the drains
    d_i and c/dx are implicit and the cross terms cooperative, so only
    1 + dtau dF_i/du_i >= 0 on [0, u*] is needed.
    """
    return 0.9 / max(diagonal_drain(model), 1e-12)


def _scan_powers(r: np.ndarray, n: int) -> list[tuple[int, np.ndarray]]:
    """(shift, weights) for the shifts 1, 2, 4, ... of ``_upwind_scan``.

    ``r`` holds one ratio per row of an (m, n) state.  The weights act
    on the state flattened row by row: r_i**shift where node k + shift
    lies in the same row as node k, and 0 where it lies in the next, so
    each pass is two calls on contiguous vectors.  The list ends before
    the shift reaches n and before the first power below SCAN_FLOOR:
    the terms that pass would add sum to less than SCAN_FLOOR max(phi).
    """
    m = r.shape[0]
    col = np.arange(n)
    powers = []
    shift = 1
    # r ** shift directly: one rounding, where repeated squaring drifts
    while shift < n and np.max(p := r ** shift) >= SCAN_FLOOR:
        w = np.where(col < n - shift, p, 0.0).reshape(-1)
        powers.append((shift, w[:m * n - shift]))
        shift *= 2
    return powers


def _upwind_scan(a: np.ndarray, powers, tmp: np.ndarray) -> np.ndarray:
    """Solve phi_k = a_k + r phi_{k+1} right to left, in place in ``a``.

    ``a`` and ``tmp`` are C-contiguous (m, n) arrays and ``a[:, -1]``
    holds phi_{n-1}.  After the pass with shift s each node holds the
    sum of r^j a_{k+j} over j < 2s, so log2 n passes do what a loop
    over the nodes does.
    """
    x, t = a.reshape(-1), tmp.reshape(-1)
    for shift, w in powers:
        k = x.size - shift
        np.multiply(x[shift:], w, out=t[:k])
        x[:k] += t[:k]
    return a


class _Sweep:
    """The relaxation sweep T at speed c on an n-node grid of [-L, 0].

    Holds the kernel stencils, the scan powers and the buffers that
    persist across sweeps; ``step`` holds T(phi) - phi of the last call.
    """

    def __init__(self, c: float, model: ReactionModel, kerns, n: int, dx: float):
        self.model = model
        self.u_star = u_star = positive_equilibrium(model)
        self.c_dx = c / dx
        self.dtau = relaxation_step(model)
        s = self.dtau * self.c_dx
        bs = 1.0 + self.dtau * model.d[:, None] + s      # B_i + s
        self.powers = _scan_powers(s / bs, n)
        # per-row constants spelled out over the grid: ufuncs on operands
        # of one shape skip the slower broadcasting loops
        self.ceiling, self.d, self.bs = (np.repeat(v, n, axis=1)
                                         for v in (u_star[:, None], model.d[:, None], bs))
        # per-kernel weight stencils, heavy tails capped at a window that
        # already carries all but ~1e-4 of the mass, and extended buffers:
        # saturated to the left of -L, empty to the right of 0
        self.stencils = []
        for i, k in enumerate(kerns):
            cap = max(n - 1, int(math.ceil(64.0 * k.core_scale / dx)))
            w = kernel_weights(k, dx, max_half_width=cap)
            half = (w.size - 1) // 2
            ext = np.zeros(n + 2 * half)
            ext[:half] = u_star[i]
            self.stencils.append((w, half, ext))
        self.conv = np.zeros((model.m, n))
        self.tmp = np.empty((model.m, n))
        self.step = np.empty((model.m, n))

    def convolve(self, u: np.ndarray) -> np.ndarray:
        n = u.shape[1]
        for i, (w, half, ext) in enumerate(self.stencils):
            ext[half:half + n] = u[i]
            self.conv[i] = np.convolve(ext, w, mode="valid")
        return self.conv

    def __call__(self, phi: np.ndarray) -> np.ndarray:
        new = np.ascontiguousarray(eval_F(self.model, phi, validate=False))
        new += np.multiply(self.d, self.convolve(phi), out=self.conv)
        new *= self.dtau
        new += phi
        new /= self.bs
        new[:, -1] = 0.0
        _upwind_scan(new, self.powers, self.tmp)
        new[:, 0] = self.u_star
        np.maximum(new, 0.0, out=new)
        np.minimum(new, self.ceiling, out=new)
        np.subtract(new, phi, out=self.step)
        return new

    def residual(self, phi: np.ndarray) -> float:
        """Largest stationary defect of phi on the interior nodes."""
        defect = eval_F(self.model, phi, validate=False)
        defect += self.d * (self.convolve(phi) - phi)
        defect[:, :-1] += self.c_dx * (phi[:, 1:] - phi[:, :-1])
        return float(np.max(np.abs(defect[:, 1:-1]))) if phi.shape[1] > 2 else 0.0


def solve_profile(c: float, model: ReactionModel, kernels, L: float,
                  dx: float | None = None, tol: float = 1e-8,
                  max_iter: int = 60_000, strict: bool = True, *,
                  stop_dead: bool = False, stop_mu=None,
                  start: SemiWaveSolution | None = None) -> SemiWaveSolution:
    """Relax to the maximal profile with speed c on [-L, 0].

    One sweep T is an upwind Gauss-Seidel step in pseudo time: the local
    drains are implicit, the reaction and the convolution explicit, and
    the advection takes phi_{k+1} from the same sweep, solved right to
    left from phi_{n-1} = 0:

        phi_k = a_k + r phi_{k+1},  a_k = (phi_k + dtau (F_k(phi)
                + d (J * phi)_k)) / (B + s),  r = s / (B + s),

    with s = dtau c / dx and B = 1 + dtau d per component, followed by
    the pin phi_0 = u* and the clip to [0, u*].  The recurrence runs as
    a log-depth doubling scan (``_upwind_scan``).
    The advection stencil is one sided toward the origin; that is the
    side the profile data comes from for a rightward front, and the
    opposite stencil amplifies oscillatory modes no matter how small
    dtau is.

    The step dtau = 0.9 / D (``relaxation_step``) makes a_k
    nondecreasing in phi: D bounds -dF_i/du_i on [0, u*], the cross
    terms are cooperative and r >= 0, so T is order preserving.  On the
    box [0, u*] its values lie in the box before the clip, which only
    removes rounding, and its fixed points are the stationary profiles.
    For a supersolution phi of the Jacobi sweep T_J, which reads
    phi_{k+1} from the old iterate, T(phi) <= T_J(phi) <= phi follows by
    induction from the right end: node n-1 is 0 in both, and if
    T(phi)_{k+1} <= phi_{k+1} then T(phi)_k = a_k + r T(phi)_{k+1} <=
    a_k + r phi_{k+1} = T_J(phi)_k <= phi_k.  The saturated state is
    such a supersolution, so the iterates started from it decrease
    pointwise and the limit is the maximal fixed point.

    With ``strict=False`` an iteration that stalls above ``tol`` returns
    the current state flagged ``converged=False`` instead of raising.

    Three keyword-only options serve the speed searches:

    * ``stop_dead=True`` returns at the first sweep whose midpoint
      readout min_i phi_i(-L/2) / u*_i is below 1/2 (``stop="dead"``).
      The iterates only decrease, so the readout never climbs back: the
      sweeps to tolerance could not change that verdict.
    * ``stop_mu`` (expansion rates, as for ``flux_functional``) returns
      at the first sweep where sum_i mu_i flux_integrals[i] - c <= 0
      (``stop="sign"``).  The flux weights are nonnegative, so the
      functional only decreases along the iterates and that sign is
      final too.  The test reads the same weights, in the same
      arithmetic, as the ``flux_integrals`` of the returned solution.
    * ``start`` relaxes from an earlier solution instead of the
      saturated state.  A solution on a smaller window with the same
      mesh, extended by u* to the left, is a supersolution of T_J here
      (``start="window"``): on the old nodes the sweep sees the same
      data as before, and the new nodes are capped at u*.  A solution at
      a lower speed on the same window is one too (``start="speed"``)
      when it is nonincreasing in x: T_J,c(phi) - phi <= (s_lo - s)
      (phi_k - phi_{k+1}) / (B + s) <= 0.  By the induction above both
      are supersolutions of T, lie above the maximal fixed point, and
      the iterates still decrease to it, so the early stops stay valid.
      An unconverged solution at the same speed and window is resumed
      (``start="resume"``): a sweep depends on phi alone, so the run
      continues that solution's sequence bit for bit.  The sweep budget
      counts the sweeps of this call.

    Each option guards that premise on every sweep: max(phi_new - phi)
    may exceed zero only by the roundoff floor 8 eps max(u*), since
    summation order alone lifts a node by an ulp now and then.  A larger
    rise raises ``NotMonotone``; relaxing cold from saturation without
    an early stop is then the unguarded computation.
    """
    if not (c >= 0 and math.isfinite(c)):
        raise ValueError("profile speed must be finite and nonnegative")
    kerns = _component_kernels(kernels, model.m0)
    check_window(kerns, L)
    n, h = _mesh(kerns, L, dx)
    for k in kerns:
        check_mesh(k, h if dx is None else dx)
    dx = h
    x = np.linspace(-L, 0.0, n)

    sweep = _Sweep(c, model, kerns, n, dx)
    u_star = sweep.u_star

    # trapezoid weights of the flux integrals on the window, times the tails
    half_gap = 0.5 * np.diff(x)
    trap = np.zeros(n)
    trap[:-1] += half_gap
    trap[1:] += half_gap
    tail_w = np.array([k.tail(-x) for k in kerns]) * trap

    def flux_integrals(u: np.ndarray) -> np.ndarray:
        return np.vecdot(u[:model.m0], tail_w)

    if stop_mu is not None:
        stop_mu = _component_mu(stop_mu, model.m, model.m0)

    phi = np.repeat(u_star[:, None], n, axis=1)
    phi[:, -1] = 0.0
    source = "saturated" if start is None else _start_from(phi, start, c, dx)

    guarded = stop_dead or stop_mu is not None or start is not None
    floor = 8.0 * np.finfo(float).eps * float(np.max(u_star))
    mid = (n - 1) // 2
    it = 0
    stop = "budget"
    for it in range(1, max_iter + 1):
        phi = sweep(phi)
        rise = float(np.max(sweep.step))
        if guarded and rise > floor:
            raise NotMonotone(
                f"profile relaxation at c={c:g}, L={L:g} from the {source} start "
                f"rose by {rise:.3g} at sweep {it}")
        delta = max(rise, -float(np.min(sweep.step)))
        if delta < tol * sweep.dtau:
            stop = "tol"
            break
        if stop_dead and float(np.min(phi[:, mid] / u_star)) < 0.5:
            stop = "dead"
            break
        if stop_mu is not None and float(np.dot(stop_mu, flux_integrals(phi))) - c <= 0.0:
            stop = "sign"
            break
    converged = stop == "tol"
    if stop == "budget" and strict:
        raise NoConvergence(
            f"profile relaxation at c={c:g}, L={L:g} still moving after {max_iter} sweeps")

    mono_tol = 1e-8 * np.maximum(1.0, u_star)[:, None]
    monotone = bool(np.all(np.diff(phi, axis=1) <= mono_tol))

    with np.errstate(divide="ignore"):
        mid_sat = float(np.min(phi[:, mid] / u_star))

    return SemiWaveSolution(
        c=float(c), length=float(L), dx=float(dx), x=x, phi=phi, u_star=u_star,
        residual=sweep.residual(phi), iterations=it, converged=converged,
        monotone=monotone, flux_integrals=flux_integrals(phi), mid_saturation=mid_sat,
        stop=stop, start=source)


def _start_from(phi: np.ndarray, start: SemiWaveSolution, c: float, dx: float) -> str:
    """Copy a supersolution into the saturated state ``phi``; name its source.

    A start from a smaller window fills the right end of the grid and
    leaves u* to its left; one from the same window replaces it whole.
    The same speed on the same window is accepted only to resume an
    unconverged solution.
    """
    n = phi.shape[1]
    k = start.phi.shape[1]
    if start.dx != dx or start.phi.shape[0] != phi.shape[0] or k > n:
        raise ValueError("a warm start must come from the same mesh and a window "
                         "no larger than this one")
    if k < n:
        source = "window" if start.c <= c else None
    elif start.c == c:
        source = None if start.converged else "resume"
    else:
        source = "speed" if start.c < c else None
    if source is None:
        raise ValueError(f"a warm start at c={start.c:g} is no supersolution at c={c:g}")
    phi[:, n - k:] = start.phi
    return source


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
    """Root of Psi(c) - c with the bisection audit trail attached.

    ``trace`` holds (c, value) in evaluation order, where value is
    Psi(c) - c of the profile the verdict was read from: the converged
    one, or an unfinished iterate whose value already read <= 0.
    ``solution`` is the converged profile at ``speed``.  ``fallbacks``
    counts the probes whose guarded relaxation rose above the roundoff
    floor and were re-run cold from saturation.
    """

    speed: float
    solution: SemiWaveSolution
    bracket: tuple[float, float]
    trace: tuple[tuple[float, float], ...]
    length: float
    fallbacks: int = 0


def find_c0(model: ReactionModel, kernels, mu, L: float | None = None,
            dx: float | None = None, tol_c: float = 1e-3,
            cache: dict | None = None) -> FrontSpeedResult:
    """Locate the speed where the boundary flux functional matches c.

    Psi(c) decreases in c while the identity grows, so G(c) = Psi(c) - c
    has a single root; it is bracketed by doubling from tol_c and then
    bisected to width tol_c.  Kernels carrying positive expansion weight
    must have a finite first moment, otherwise no such speed exists and
    ``FirstMomentDiverges`` is raised.

    Each probe stops at its sign verdict: relaxation from above only
    lowers the profile and with it Psi, so once Psi - c reads <= 0 the
    converged value would too (``solve_profile``, ``stop_mu``).  A probe
    starts from the converged, monotone profile at the nearest lower
    speed on the same window and mesh when the cache holds one, and
    from saturation otherwise; either way it relaxes to the maximal
    profile from above.  A probe whose sweeps rise above the roundoff
    floor is re-run cold from saturation without the early stop and
    counted in ``fallbacks``.  The final midpoint is never started from
    another speed, so ``solution`` is the cold computation.

    ``cache`` maps speeds to profiles and may be shared between calls
    that use the same model, kernels, window and mesh.  An entry may be
    an unfinished, sign-stopped iterate; it answers a later lookup when
    its value still reads <= 0 for that call's mu, and is otherwise
    resumed where it stopped and replaced.  ``solution`` is always a
    converged profile.
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
    L = float(L)
    h = _mesh(kerns, L, dx)[1]
    if cache is None:
        cache = {}

    trace: list[tuple[float, float]] = []
    fallbacks = 0

    def value(sol: SemiWaveSolution) -> float:
        return float(np.dot(mu_vec, sol.flux_integrals)) - sol.c

    def lower(c: float) -> SemiWaveSolution | None:
        """The converged monotone cached profile at the nearest lower speed."""
        best = None
        for sol in cache.values():
            if (sol.converged and sol.monotone and sol.c < c and sol.length == L
                    and sol.dx == h and (best is None or sol.c > best.c)):
                best = sol
        return best

    def probe(c: float, start: SemiWaveSolution | None, stop: bool) -> SemiWaveSolution:
        nonlocal fallbacks
        try:
            return solve_profile(c, model, kerns, L, dx=dx, tol=C0_TOL, start=start,
                                 stop_mu=mu_vec if stop else None)
        except NotMonotone:
            fallbacks += 1
            return solve_profile(c, model, kerns, L, dx=dx, tol=C0_TOL)

    def G(c: float) -> float:
        sol = cache.get(c)
        if sol is None or not (sol.converged or value(sol) <= 0.0):
            sol = probe(c, lower(c) if sol is None else sol, stop=True)
            cache[c] = sol
        val = value(sol)
        trace.append((c, val))
        return val

    if G(tol_c) <= 0.0:
        lo, hi = 0.0, tol_c          # root below the resolution floor
    else:
        lo, hi = tol_c, None
        c_try = tol_c
        for _ in range(C0_MAX_DOUBLINGS):
            c_try *= 2.0
            if G(c_try) <= 0.0:
                hi = c_try
                break
            lo = c_try
        if hi is None:
            raise BracketNotFound(
                f"flux functional still exceeds c at c={c_try:g} after "
                f"{C0_MAX_DOUBLINGS} doublings from {tol_c:g}")

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
    if sol is None or not sol.converged:
        sol = probe(speed, sol, stop=False)     # resume an unfinished iterate, else cold
        cache[speed] = sol
    return FrontSpeedResult(speed=speed, solution=sol, bracket=(lo, hi),
                            trace=tuple(trace), length=L, fallbacks=fallbacks)


# ----------------------------------------------------------------------
# minimal traveling speed

@dataclass(frozen=True)
class MinimalSpeedResult:
    """Threshold speed for profile existence plus the linearized readout.

    ``value`` is INFINITE when some dispersing kernel has no finite
    exponential moment; fronts then outrun every linear speed and no
    threshold exists.  Otherwise it is the midpoint of ``bracket``.
    ``stops`` holds the ``SemiWaveSolution.stop`` of each probe, in the
    order of ``trace``: a verdict read from a "budget" stop is not final.
    ``fallbacks`` counts the probes whose guarded relaxation rose above
    the roundoff floor and were re-run cold from saturation.
    """

    value: float
    linearized: float
    bracket: tuple[float, float] | None
    trace: tuple[tuple[float, float, float], ...]   # (c, L, mid saturation)
    lengths: tuple[float, ...]
    note: str
    fallbacks: int = 0
    stops: tuple[str, ...] = ()


def linearized_front_speed(model: ReactionModel, kernels) -> float:
    """Decay-rate optimized speed of the linearization at the empty state.

    For decay rate lam the fastest growing linear mode travels at
    s(lam) / lam where s(lam) is the spectral bound of the dispersal
    moment matrix plus the rate jacobian at zero; the front speed
    diagnostic is the minimum over admissible lam.  INFINITE when some
    dispersing kernel has no finite exponential moment.
    """
    kerns = _component_kernels(kernels, model.m0)
    lam_hi = min(exp_abscissa(k) for k in kerns)
    if lam_hi <= 0.0:
        return INFINITE
    from scipy import optimize     # deferred: costs 0.2 s at import time

    J0 = jacobian(model, np.zeros(model.m))
    d = model.d

    def s_over_lam(lam: float) -> float:
        A = J0.copy()
        for i in range(model.m0):
            A[i, i] += d[i] * (two_sided_exp_moment(kerns[i], lam) - 1.0)
        return float(np.max(np.real(np.linalg.eigvals(A)))) / lam

    core = min(k.core_scale for k in kerns)
    hi = lam_hi * (1.0 - 1e-9) if math.isfinite(lam_hi) else 200.0 / core
    hi = min(hi, *(overflow_rate(k) for k in kerns))
    grid = np.geomspace(1e-4 / core, hi, 600)
    vals = np.array([s_over_lam(l) for l in grid])
    j = int(np.argmin(vals))
    a = grid[max(j - 1, 0)]
    b = grid[min(j + 1, grid.size - 1)]
    res = optimize.minimize_scalar(s_over_lam, bounds=(a, b), method="bounded",
                                   options={"xatol": 1e-10})
    return float(min(res.fun, vals[j]))


def estimate_cstar(model: ReactionModel, kernels, lengths=None, c_grid=None,
                   dx: float | None = None, rel_tol: float = 1e-2) -> MinimalSpeedResult:
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

    Every probe stops at its dead verdict: relaxation from above only
    lowers the profile, so a midpoint readout below 1/2 is final at the
    first sweep it appears (``solve_profile``, ``stop_dead``).  Probes
    also start from a supersolution when this call already holds one:
    the converged, alive, monotone profile at the nearest lower speed on
    the same window, or else this speed's last iterate on the next
    smaller window.  Both start above the maximal fixed point, so the
    verdicts, and with them the bracket, are those of cold runs.  A
    probe whose sweeps rise above the roundoff floor is re-run cold from
    saturation without the early stop and counted in ``fallbacks``.
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
    dtau = relaxation_step(model)

    def budget(L: float) -> int:
        return max(60_000, int(0.75 * L / (width * dtau)))

    trace: list[tuple[float, float, float]] = []
    stops: list[str] = []
    # window starts need nested grids: one spacing for every window
    nested = len({_mesh(kerns, L, dx)[1] for L in lengths}) == 1
    # per window, the latest converged alive monotone profile; the scan
    # and the bisection probe only speeds above it
    lower: dict[float, SemiWaveSolution] = {}
    fallbacks = 0

    def probe(c: float, L: float, start: SemiWaveSolution | None) -> SemiWaveSolution:
        nonlocal fallbacks
        kw = dict(dx=dx, tol=CSTAR_TOL, max_iter=budget(L), strict=False)
        try:
            return solve_profile(c, model, kerns, L, stop_dead=True, start=start, **kw)
        except NotMonotone:
            fallbacks += 1
            return solve_profile(c, model, kerns, L, **kw)

    def alive(c: float) -> bool:
        verdict = False
        prev = None
        for L in lengths:
            start = lower.get(L)
            if start is None or not start.c < c:
                start = prev if nested else None
            sol = probe(c, L, start)
            trace.append((c, L, sol.mid_saturation))
            stops.append(sol.stop)
            verdict = sol.mid_saturation >= 0.5
            if verdict and sol.converged and sol.monotone:
                lower[L] = sol
            if verdict and sol.converged and sol.mid_saturation >= 0.95:
                break               # saturated fixed point; larger windows agree
            prev = sol
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
        trace=tuple(trace), lengths=lengths, note="", fallbacks=fallbacks,
        stops=tuple(stops))
