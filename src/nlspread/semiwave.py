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
* ``estimate_cstar`` confirms the linear speed of the discrete problem
  as the largest speed at which a saturated profile survives, with a
  linearized diagnostic from the kernel moment generating functions.
  Its alive confirmation rises from a checked subsolution below the
  maximal profile (``solve_profile``, ``below``).

Every profile probe of both runs through ``_Probes``, which holds the one
warm-start rule, the cold re-run of a probe that breaks it, and the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .freeboundary import _component_kernels, _component_mu
from .kernels import INFINITE, two_sided_exp_moment
from .nonlocal_ops import _equal_rows, check_mesh, kernel_weights
from .reactions import ReactionModel, diagonal_drain, eval_F, jacobian, positive_equilibrium

__all__ = [
    "SemiwaveError", "NoConvergence", "NotMonotone", "NoCertificate", "FirstMomentDiverges",
    "BracketNotFound", "ThresholdNotBracketed",
    "SemiWaveSolution", "FrontSpeedResult", "MinimalSpeedResult",
    "check_window", "relaxation_step", "solve_profile", "flux_functional", "find_c0",
    "linearized_front_speed", "discrete_linear_speed", "estimate_cstar",
]

C0_TOL = 1e-8              # relaxation tolerance of the find_c0 probes
C0_MAX_DOUBLINGS = 60      # find_c0 bracket search: doublings from tol_c
CSTAR_TOL = 1e-6           # relaxation tolerance of the estimate_cstar probes
CSTAR_MAX_DOUBLINGS = 16   # estimate_cstar fallback: offset doublings from c_h or c_L
SCAN_FLOOR = 1e-17         # smallest r**shift the upwind scan still applies
CERT_EPS = 1e-2            # amplitude of the first subsolution tried, in units of u*
CERT_HALVINGS = 8          # amplitude halvings before a subsolution check gives up
CERT_MARGIN = 0.125        # growth margin delta of the subsolution, a share of P(lam*)


class SemiwaveError(RuntimeError):
    pass


class NoConvergence(SemiwaveError):
    """Relaxation failed to reach the requested tolerance."""


class NotMonotone(SemiwaveError):
    """A guarded relaxation sweep rose above the roundoff floor."""


class NoCertificate(SemiwaveError):
    """No subsolution certifies the profile from below; see ``solve_profile``."""


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
    (midpoint below half saturation), "sign" (flux functional at or
    below c) or "alive" (an iterate from below at half saturation).
    ``start`` says what it started from: "saturated", a supersolution
    from a lower "speed", an unfinished iterate at the same speed
    ("resume"), or a checked subsolution ("below"); see ``solve_profile``.
    A "below" solution is unconverged and lies under the maximal profile;
    it answers the verdict at its own speed and is never resumed.
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


def _scan_passes(a: np.ndarray, powers, tmp: np.ndarray) -> list:
    """The views each pass of ``_upwind_scan`` works on, for the state ``a``.

    ``a`` and ``tmp`` are C-contiguous (m, n) arrays; a pass with shift s
    reads a from node s on, multiplies by its weights into tmp and adds
    that to a up to node m n - s, all on the arrays flattened row by row.
    """
    x, t = a.reshape(-1), tmp.reshape(-1)
    return [(x[shift:], w, t[:w.size], x[:w.size]) for shift, w in powers]


def _upwind_scan(passes) -> None:
    """Solve phi_k = a_k + r phi_{k+1} right to left, in place in the state.

    ``passes`` are the ``_scan_passes`` of a state whose last column holds
    phi_{n-1}.  After the pass with shift s each node holds the sum of
    r^j a_{k+j} over j < 2s, so log2 n passes do what a loop over the
    nodes does.
    """
    for source, w, product, target in passes:
        np.multiply(source, w, out=product)
        np.add(target, product, out=target)


def _stencils(kerns, n: int, dx: float) -> list[tuple[np.ndarray, int]]:
    """(weights, half width) of each kernel's stencil in the sweep on n nodes.

    Heavy tails are capped at a window that already carries all but ~1e-4
    of the mass: the larger of the grid and 64 core scales.
    """
    out = []
    for k in kerns:
        cap = max(n - 1, int(math.ceil(64.0 * k.core_scale / dx)))
        w = kernel_weights(k, dx, max_half_width=cap)
        out.append((w, (w.size - 1) // 2))
    return out


class _Sweep:
    """The relaxation sweep T at speed c on an n-node grid of [-L, 0].

    Holds the kernel stencils, the scan passes and the buffers that
    persist across sweeps: the state ``a`` the scan runs on, and ``step``,
    T(phi) - phi of the last call.  Each call returns the fresh array of
    its ``eval_F`` call, which the model's rate allocates.

    Component symmetry: a row whose kernel spec and u* equal those of the
    row before it has that row's stencil and the same saturated prefix
    in its extended buffer (``repeats``).  When its bytes also equal that
    row's, as in every state of an exchange-symmetric model, its
    correlate would read the same bits and return the same array, so the
    row takes a copy of the row before's convolution instead; bytes
    decide, as in ``nonlocal_ops._equal_rows``.  A NaN's sign is not
    reproducible on either path.
    """

    def __init__(self, c: float, model: ReactionModel, kerns, n: int, dx: float):
        self.model = model
        self.u_star = u_star = positive_equilibrium(model)
        self.c_dx = c / dx
        self.dtau = relaxation_step(model)
        s = self.dtau * self.c_dx
        bs = 1.0 + self.dtau * model.d[:, None] + s      # B_i + s
        # per-row constants spelled out over the grid: ufuncs on operands
        # of one shape skip the slower broadcasting loops
        self.ceiling, self.d, self.bs = (np.repeat(v, n, axis=1)
                                         for v in (u_star[:, None], model.d[:, None], bs))
        self.repeats = [i > 0 and k.spec == kerns[i - 1].spec
                        and u_star[i].tobytes() == u_star[i - 1].tobytes()
                        for i, k in enumerate(kerns)]
        # extended buffers: saturated to the left of -L, empty to the right of 0
        self.stencils = []
        for i, (w, half) in enumerate(_stencils(kerns, n, dx)):
            ext = np.zeros(n + 2 * half)
            ext[:half] = u_star[i]
            self.stencils.append((w, half, ext))
        self.conv = np.zeros((model.m, n))
        self.a = np.empty((model.m, n))
        self.passes = _scan_passes(self.a, _scan_powers(s / bs, n), np.empty((model.m, n)))
        self.step = np.empty((model.m, n))

    def convolve(self, u: np.ndarray) -> np.ndarray:
        n = u.shape[1]
        # the stencils are symmetric, so the correlation is the convolution
        for i, (w, half, ext) in enumerate(self.stencils):
            if self.repeats[i] and _equal_rows(u[i - 1:i + 1]):
                self.conv[i] = self.conv[i - 1]
                continue
            ext[half:half + n] = u[i]
            self.conv[i] = np.correlate(ext, w, "valid")
        return self.conv

    def __call__(self, phi: np.ndarray) -> np.ndarray:
        rate = eval_F(self.model, phi, validate=False)
        a = np.add(rate, np.multiply(self.d, self.convolve(phi), out=self.conv), out=self.a)
        a *= self.dtau
        a += phi
        a /= self.bs
        a[:, -1] = 0.0
        _upwind_scan(self.passes)
        a[:, 0] = self.u_star
        np.maximum(a, 0.0, out=a)
        # the rate's fresh array takes the result, one allocation per sweep
        new = np.minimum(a, self.ceiling, out=rate)
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
                  start: SemiWaveSolution | None = None,
                  below: float | None = None) -> SemiWaveSolution:
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
    * ``start`` relaxes from an earlier solution on the same window and
      mesh instead of the saturated state.  A solution at a lower speed
      is a supersolution of T_J here (``start="speed"``) when it is
      nonincreasing in x: T_J,c(phi) - phi <= (s_lo - s)
      (phi_k - phi_{k+1}) / (B + s) <= 0.  By the induction above it is
      a supersolution of T, lies above the maximal fixed point, and the
      iterates still decrease to it, so the early stops stay valid.
      An unconverged solution at the same speed and window is resumed
      (``start="resume"``): a sweep depends on phi alone, so the run
      continues that solution's sequence bit for bit.  The sweep budget
      counts the sweeps of this call.

    Each option guards that premise on every sweep: max(phi_new - phi)
    may exceed zero only by the roundoff floor 8 eps max(u*), since
    summation order alone lifts a node by an ulp now and then.  A larger
    rise raises ``NotMonotone``; relaxing cold from saturation without
    an early stop is then the unguarded computation.

    ``below=lam0``, the lam* of ``discrete_linear_speed``, certifies an
    alive verdict from below instead (``stop="alive"``,
    ``start="below"``, ``converged=False``).  Let psi lie in the box with
    psi_0 = u*, psi_{n-1} = 0 and T(psi) >= psi on every node.  Then
    psi <= the saturated state S, and T is order preserving, so
    psi <= T(psi) <= T^2(psi) <= ... <= T^k(S), and T^k(S) falls to the
    maximal fixed point: every iterate from psi lies below the maximal
    profile and below every iterate from saturation.  Once one reads
    midpoint >= 1/2, so does the maximal profile, and the cold run's
    verdict too.  psi is a compactly supported subsolution of the
    linearization at a complex root of its symbol (``_hump``), scaled by
    eps = CERT_EPS and checked in one sweep; eps halves while the check
    fails.  The iterates are guarded the other way: a sweep may fall by
    the roundoff floor at most (``NotMonotone``).  When no psi passes,
    the components' linearizations differ, or the iterates stall below
    1/2 at ``tol`` or reach ``max_iter``, ``NoCertificate`` is raised and
    nothing is concluded.  The construction is the classical lower
    speed bound (Aronson and Weinberger, Adv. Math. 30, 1978; Carr and
    Chmaj, Proc. AMS 132, 2004, for nonlocal dispersal); only the
    floating-point check is relied on.  It takes no other start or stop.
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

    floor = 8.0 * np.finfo(float).eps * float(np.max(u_star))
    tol_step = tol * sweep.dtau
    step = sweep.step
    mid = (n - 1) // 2
    if below is not None:
        if stop_dead or stop_mu is not None or start is not None:
            raise ValueError("a run from below takes no start and no early stop")
        phi, it = _rise_to_alive(sweep, _hump(sweep, kerns, below, c, x, dx), floor,
                                 tol_step, max_iter)
        stop, source = "alive", "below"
    else:
        phi = np.repeat(u_star[:, None], n, axis=1)
        phi[:, -1] = 0.0
        source = "saturated" if start is None else _start_from(phi, start, c, dx)
        guarded = stop_dead or stop_mu is not None or start is not None
        it = 0
        stop = "budget"
        for it in range(1, max_iter + 1):
            phi = sweep(phi)
            rise = float(step.max())
            if guarded and rise > floor:
                raise NotMonotone(
                    f"profile relaxation at c={c:g}, L={L:g} from the {source} start "
                    f"rose by {rise:.3g} at sweep {it}")
            if max(rise, -float(step.min())) < tol_step:
                stop = "tol"
                break
            if stop_dead and float((phi[:, mid] / u_star).min()) < 0.5:
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

    The same speed is accepted only to resume an unconverged solution,
    and never one that rose from below: a resume continues a sequence
    that falls from above.
    """
    if start.dx != dx or start.phi.shape != phi.shape:
        raise ValueError("a warm start must come from the same mesh and window")
    if start.start == "below":
        raise ValueError("an iterate from below is no supersolution")
    if start.c > c or (start.c == c and start.converged):
        raise ValueError(f"a warm start at c={start.c:g} is no supersolution at c={c:g}")
    phi[:] = start.phi
    return "speed" if start.c < c else "resume"


def _hump(sweep: _Sweep, kerns, lam0: float, c: float, x: np.ndarray,
          dx: float) -> np.ndarray:
    """The shape of the subsolution from below: psi = eps * shape, peak ratio 1 to u*.

    With one kernel and one dispersal rate the linearization at zero is
    J0 + (d (M(lam) - 1) - c rho(lam)) I on the sweep's stencil, M its
    moment and rho(lam) = (1 - e^(-lam dx)) / dx the upwind symbol, so its
    eigenvector is J0's Perron vector v at every lam.  The symbol
    P(lam) = s(J0) - delta + d (M(lam) - 1) - c rho(lam) with margin
    delta = CERT_MARGIN P(lam0) is positive at lam0 = lam* for c < c_h;
    complex Newton from lam0 + i sqrt(2 P(lam0) / P''(lam0)) finds its
    root alpha + i beta.  The shape is v times the hump
    e^(-alpha t) cos(beta t), t = x - x_c, on |beta t| < pi/2 with its
    right zero at x = 0, flattened to its peak value on the left.
    Raises ``NoCertificate`` when the eigenvector depends on lam (unequal
    rates or kernels, or sedentary components), when there is no root
    with alpha, beta > 0, and when the hump is wider than the window.
    """
    model = sweep.model
    if (model.m0 < model.m or np.any(model.d != model.d[0])
            or any(k.spec != kerns[0].spec for k in kerns)):
        raise NoCertificate("the components' linearizations differ; the eigenvector "
                            "depends on the decay rate")
    vals, vecs = np.linalg.eig(jacobian(model, np.zeros(model.m)))
    j = int(np.argmax(vals.real))
    v = np.abs(vecs[:, j].real)
    v /= np.max(v / sweep.u_star)
    w, half, _ = sweep.stencils[0]
    offsets = dx * np.arange(-half, half + 1)
    d, grow = float(model.d[0]), float(vals.real[j])

    def symbol(lam, k):
        """The k-th derivative of P(lam) + delta."""
        e = np.exp(lam * offsets)
        if k == 0:
            return grow + d * (np.dot(w, e) - 1.0) + c * np.expm1(-lam * dx) / dx
        return d * np.dot(w, offsets ** k * e) - c * (-dx) ** (k - 1) * np.exp(-lam * dx)

    with np.errstate(all="ignore"):
        p0 = float(symbol(lam0, 0)) if math.isfinite(lam0) else math.nan
        if not p0 > 0.0:
            raise NoCertificate(f"c={c:g} is not below the linear speed of the sweep")
        delta = CERT_MARGIN * p0
        lam = complex(lam0, math.sqrt(max(2.0 * (p0 - delta) / float(symbol(lam0, 2)), 0.0)))
        for _ in range(60):
            dlam = (symbol(lam, 0) - delta) / symbol(lam, 1)
            lam -= dlam
            if not abs(dlam) > 1e-14 * abs(lam):
                break
    alpha, beta = lam.real, lam.imag
    if not (abs(dlam) <= 1e-14 * abs(lam) and alpha > 0.0 and beta > 0.0):
        raise NoCertificate(f"the symbol at c={c:g} has no complex root with a positive "
                            "real and imaginary part")
    if math.pi / beta > -x[0]:
        raise NoCertificate(f"the hump at c={c:g} is {math.pi / beta:.3g} wide, "
                            "wider than the window")
    # t = x - x_c with the right zero x_c + pi / (2 beta) at 0; the peak
    # sits at beta t_peak = -atan(alpha / beta), and z = x - x_peak >= 0
    t_peak = -math.atan(alpha / beta) / beta
    z = np.maximum(x - (t_peak - 0.5 * math.pi / beta), 0.0)
    hump = np.exp(-alpha * z) * np.cos(beta * (z + t_peak)) / math.cos(beta * t_peak)
    hump[-1] = 0.0
    return v[:, None] * np.maximum(hump, 0.0)


def _rise_to_alive(sweep: _Sweep, shape: np.ndarray, floor: float, tol_step: float,
                   max_iter: int) -> tuple[np.ndarray, int]:
    """The first iterate from a checked subsolution that reads alive; the sweeps taken.

    psi = eps * shape with node 0 pinned at u* must pass T(psi) >= psi
    on every node, else eps halves, at most CERT_HALVINGS times.  The
    iterates from psi must not fall by more than ``floor`` in one sweep
    (``NotMonotone``), and must reach midpoint 1/2 before they stall
    below ``tol_step`` or reach ``max_iter`` (``NoCertificate``).
    """
    u_star, step = sweep.u_star, sweep.step
    mid = (shape.shape[1] - 1) // 2
    eps = CERT_EPS
    for it in range(1, CERT_HALVINGS + 2):
        psi = eps * shape
        psi[:, 0] = u_star
        phi = sweep(psi)
        if float(step.min()) >= 0.0:
            break
        eps *= 0.5
    else:
        raise NoCertificate(f"T(psi) >= psi failed down to eps = {2.0 * eps:.3g}")
    while float((phi[:, mid] / u_star).min()) < 0.5:
        if float(step.max()) < tol_step or it >= max_iter:
            raise NoCertificate(
                f"the iterates from below stall at midpoint "
                f"{float((phi[:, mid] / u_star).min()):.3g} after {it} sweeps")
        phi = sweep(phi)
        it += 1
        if -float(step.min()) > floor:
            raise NotMonotone(f"profile relaxation from below fell by "
                              f"{-float(step.min()):.3g} at sweep {it}")
    return phi, it


def flux_functional(sol: SemiWaveSolution, mu) -> float:
    """Weighted boundary flux of a profile: sum_i mu_i * flux_integrals[i]."""
    m = sol.phi.shape[0]
    m0 = sol.flux_integrals.size
    mu_vec = _component_mu(mu, m, m0)
    return float(np.dot(mu_vec, sol.flux_integrals))


class _Probes:
    """The profile probes of one speed search on one window and mesh.

    A cached profile at the probed speed answers when it is converged,
    certified from below, or ``settled`` accepts it, and is otherwise
    resumed where it stopped.  A probe given ``below`` first tries the
    certificate from below (``solve_profile``); when that declines, the
    probe runs as it would without ``below``.  Without a cached profile,
    a probe with an early stop (``stop_mu``, ``stop_dead``) starts from
    the converged, monotone cached profile at the nearest lower speed on
    the same window and mesh, a supersolution, and a run without one
    starts cold from saturation.  A probe whose guarded sweeps rise (or,
    from below, fall) past the roundoff floor is re-run cold without the
    early stop and counted in ``fallbacks``.  Every result is cached at
    its speed.
    """

    def __init__(self, model: ReactionModel, kerns, L: float, dx: float | None,
                 tol: float, cache: dict, strict: bool = True):
        self.args = (model, kerns, L)
        self.kw = dict(dx=dx, tol=tol, strict=strict)
        self.mesh = (L, _mesh(kerns, L, dx)[1])
        self.cache = cache
        self.fallbacks = 0

    def __call__(self, c: float, settled=lambda sol: False, below: float | None = None,
                 **stop) -> SemiWaveSolution:
        sol = self.cache.get(c)
        if sol is not None and (sol.converged or settled(sol) or sol.start == "below"):
            return sol
        if sol is None and stop:
            lower = [s for s in self.cache.values() if s.converged and s.monotone
                     and s.c < c and (s.length, s.dx) == self.mesh]
            sol = max(lower, key=lambda s: s.c, default=None)
        try:
            sol = (self._from_below(c, below)
                   or solve_profile(c, *self.args, start=sol, **self.kw, **stop))
        except NotMonotone:
            self.fallbacks += 1
            sol = solve_profile(c, *self.args, **self.kw)
        self.cache[c] = sol
        return sol

    def _from_below(self, c: float, below: float | None) -> SemiWaveSolution | None:
        if below is None:
            return None
        try:
            return solve_profile(c, *self.args, below=below, **self.kw)
        except NoCertificate:
            return None


# ----------------------------------------------------------------------
# boundary-matched speed

@dataclass(frozen=True)
class FrontSpeedResult:
    """Root of Psi(c) - c with the bisection audit trail attached.

    ``trace`` holds (c, value) in evaluation order, where value is
    Psi(c) - c of the profile the verdict was read from: the converged
    one, or an unfinished iterate whose value already read <= 0.
    ``solution`` is the converged profile at ``speed``, solved on first
    read through the search's own probes and shared cache, and kept.
    ``fallbacks`` counts the probes of the search whose guarded
    relaxation rose above the roundoff floor and were re-run cold from
    saturation.
    """

    speed: float
    bracket: tuple[float, float]
    trace: tuple[tuple[float, float], ...]
    fallbacks: int = 0
    _probes: _Probes = field(kw_only=True, repr=False, compare=False)

    @cached_property
    def solution(self) -> SemiWaveSolution:
        return self._probes(self.speed)


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
    converged value would too (``solve_profile``, ``stop_mu``).  Probes
    start, resume and fall back to a cold run (``fallbacks``) as
    ``_Probes`` says.  The profile at the final midpoint is solved only
    when ``solution`` is first read, without an early stop, so it is
    never started from another speed and is the cold computation.

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
        if mu_vec[i] > 0 and k.first_moment == INFINITE:
            raise FirstMomentDiverges(
                f"kernel for component {i + 1} has a divergent first moment; "
                "boundary-matched fronts accelerate instead of settling on a speed")
    if L is None:
        L = 50.0 * max(k.core_scale for k in kerns)
    L = float(L)
    profile = _Probes(model, kerns, L, dx, C0_TOL, {} if cache is None else cache)
    trace: list[tuple[float, float]] = []

    def G(c: float) -> float:
        sol = profile(c, lambda s: flux_functional(s, mu) - c <= 0.0, stop_mu=mu_vec)
        val = flux_functional(sol, mu) - c
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
    return FrontSpeedResult(speed=speed, bracket=(lo, hi), trace=tuple(trace),
                            fallbacks=profile.fallbacks, _probes=profile)


# ----------------------------------------------------------------------
# minimal traveling speed

@dataclass(frozen=True)
class MinimalSpeedResult:
    """Threshold speed for profile existence plus the linearized readout.

    ``value`` is INFINITE when some dispersing kernel has no finite
    exponential moment; fronts then outrun every linear speed and no
    threshold exists.  Otherwise it is c_h when two probes on the window
    L of ``trace`` confirm it, else the midpoint of ``bracket`` (see
    ``estimate_cstar``; ``note`` says which).  ``trace`` holds each
    probe's midpoint readout, from the profile its verdict was read from:
    the converged one, a dead iterate on its way down, or the iterate
    from below that first read alive ("alive" stop), which lies below the
    converged midpoint.  ``stops`` holds the ``SemiWaveSolution.stop`` of
    each probe, in the order of ``trace``: "tol", "dead" and "alive" are
    final, a verdict read from a "budget" stop is not.  ``fallbacks``
    counts the probes whose guarded relaxation passed the roundoff floor
    and were re-run cold from saturation.
    """

    value: float
    linearized: float
    bracket: tuple[float, float] | None
    trace: tuple[tuple[float, float, float], ...]   # (c, L, mid saturation)
    note: str
    fallbacks: int = 0
    stops: tuple[str, ...] = ()


def _minimal_speed(model: ReactionModel, kerns, moment, rate, lam_max: float = INFINITE):
    """(min, argmin, speed) of the linearization at the empty state.

    The mode exp(-lam x) grows at s(lam), the spectral bound of
    J0 + diag(d_i (moment(i, lam) - 1)) with J0 the rate jacobian at
    zero, and travels at speed(lam) = s(lam) / rate(lam).  Its minimum
    over the rates from 1e-4 core scales to the exponential abscissa
    (200 core scales without one), the overflow rate and ``lam_max`` is
    read on a 600-point geometric grid and zoomed: the cells around the
    argmin are rescanned on 65 points until they span 1e-10 of lam.  Each
    grid is one stacked eigenvalue call, and ``speed`` reads one rate
    through the same arithmetic, so it returns the grid's bits.  The
    minimum is INFINITE when some kernel has no finite exponential moment.
    """
    J0 = jacobian(model, np.zeros(model.m))

    def speeds(lams: np.ndarray) -> np.ndarray:
        A = np.repeat(J0[None], lams.size, axis=0)
        for i in range(model.m0):
            A[:, i, i] += model.d[i] * (np.array([moment(i, lam) for lam in lams]) - 1.0)
        growth = np.linalg.eigvals(A).real.max(axis=1)
        return growth / np.array([rate(lam) for lam in lams])

    def speed(lam: float) -> float:
        return float(speeds(np.array([lam]))[0])

    lam_hi = min(k.exp_abscissa for k in kerns)
    if lam_hi <= 0.0:
        return INFINITE, math.nan, speed
    core = min(k.core_scale for k in kerns)
    hi = lam_hi * (1.0 - 1e-9) if math.isfinite(lam_hi) else 200.0 / core
    hi = min(hi, lam_max, *(k.overflow_rate for k in kerns))
    grid, best, arg = np.geomspace(1e-4 / core, hi, 600), math.inf, math.nan
    while True:
        vals = speeds(grid)
        j = int(np.argmin(vals))
        if vals[j] < best:
            best, arg = float(vals[j]), float(grid[j])
        a, b = grid[max(j - 1, 0)], grid[min(j + 1, grid.size - 1)]
        if b - a <= 1e-10 * b:
            return best, arg, speed
        grid = np.linspace(a, b, 65)


def linearized_front_speed(model: ReactionModel, kernels) -> float:
    """Decay-rate optimized speed of the linearization at the empty state.

    The minimum of s(lam) / lam with the kernels' two-sided moments
    (``_minimal_speed``); INFINITE without a finite exponential moment.
    """
    kerns = _component_kernels(kernels, model.m0)
    return _minimal_speed(model, kerns, lambda i, lam: two_sided_exp_moment(kerns[i], lam),
                          lambda lam: lam)[0]


def discrete_linear_speed(model: ReactionModel, kernels, dx: float | None,
                          L: float) -> tuple[float, float, float]:
    """(c_h, lam*, K): the linear threshold speed of the profile sweep.

    c_h is the minimum over lam, at lam*, of s_h(lam) dx / (1 - exp(-lam dx)):
    s_h takes the moments of the stencils ``_Sweep`` builds on an L window,
    and (1 - exp(-lam dx)) / dx is the symbol of its upwind difference.
    c_h tends to ``linearized_front_speed`` to first order in dx.  The
    window lowers the threshold the midpoint verdict reads to about
    c_h - K / (L/2)^2, K = (pi^2 / 2) c_h''(lam*) by a central difference:
    the Dirichlet correction of a pulled front (Ebert and van Saarloos,
    Physica D 146, 2000).  (INFINITE, nan, nan) without a finite
    exponential moment.
    """
    kerns = _component_kernels(kernels, model.m0)
    n, h = _mesh(kerns, L, dx)
    stencils = _stencils(kerns, n, h)
    offsets = [h * np.arange(-half, half + 1) for _, half in stencils]
    # exp(lam * offset) stays below exp(700) on every stencil
    c_h, lam, speed = _minimal_speed(
        model, kerns, lambda i, lam: float(np.dot(stencils[i][0], np.exp(lam * offsets[i]))),
        lambda lam: -math.expm1(-lam * h) / h, 700.0 / max(o[-1] for o in offsets))
    if not math.isfinite(c_h):
        return c_h, math.nan, math.nan
    step = 1e-3 * lam
    curvature = (speed(lam + step) - 2.0 * c_h + speed(lam - step)) / step ** 2
    return c_h, lam, 0.5 * math.pi ** 2 * curvature


def estimate_cstar(model: ReactionModel, kernels, lengths=None, dx: float | None = None,
                   rel_tol: float = 1e-2) -> MinimalSpeedResult:
    """Confirm the discrete linear speed c_h as the threshold of profile existence.

    A speed is alive when the maximal profile on the window sits above
    half saturation at its midpoint.  For a pulled front the threshold on
    a window of length L is about c_L = c_h - K / (L/2)^2, and c_h carries
    the upwind stencil's first-order bias (+3% at the default mesh; see
    ``discrete_linear_speed``).  Two probes on the largest of ``lengths``
    (default 200 core scales) confirm it: dead at c_h (1 + rel_tol), and
    alive at c_L - rel_tol c_h, clear of critical slowing.
    Otherwise (a pushed front, a window law that fails, or a probe left
    at its sweep budget) the failed probe's offset doubles until its
    verdict flips, at most CSTAR_MAX_DOUBLINGS times, and the bracket is
    bisected to rel_tol c_h on the same window.

    A dead verdict is final at its first sweep (``solve_profile``,
    ``stop_dead``).  The alive confirmation probe is certified from below
    (``below=lam*``): its verdict is final at the first iterate from a
    checked subsolution that reads half saturation; where no certificate
    exists it relaxes from above as the other probes do.  The probes
    share a cache local to the call and start and fall back
    (``fallbacks``) as ``_Probes`` says, so every verdict is that of a
    cold run.  Every probe after a dead verdict lies below its speed, so
    a start from a lower speed is an alive profile.
    """
    kerns = _component_kernels(kernels, model.m0)
    heavy = [i for i, k in enumerate(kerns) if k.exp_abscissa == 0.0]
    if heavy:
        return MinimalSpeedResult(
            value=INFINITE, linearized=INFINITE, bracket=None, trace=(), note=(
                f"kernel for component {heavy[0] + 1} has a divergent exponential moment; "
                "level sets accelerate and no finite minimal speed exists"))

    c_lin = linearized_front_speed(model, kerns)
    L = 200.0 * max(k.core_scale for k in kerns) if lengths is None else float(max(lengths))
    c_h, lam, K = discrete_linear_speed(model, kerns, dx, L)
    c_L = c_h - K / (0.5 * L) ** 2
    width = rel_tol * c_h
    trace: list[tuple[float, float, float]] = []
    stops: list[str] = []
    profile = _Probes(model, kerns, L, dx, CSTAR_TOL, {}, strict=False)
    lo, hi = -INFINITE, INFINITE     # the highest final alive, lowest dead

    def probe(c: float, **below) -> bool:
        """Read the verdict at c; False when it is left at the sweep budget."""
        nonlocal lo, hi
        sol = profile(c, stop_dead=True, **below)
        trace.append((c, L, sol.mid_saturation))
        stops.append(sol.stop)
        final = sol.converged or sol.stop == "alive"
        if sol.mid_saturation < 0.5:
            hi = min(hi, c)
        elif final:
            lo = max(lo, c)
        return sol.mid_saturation < 0.5 or final

    probe(c_h + width)
    probe(max(c_L - width, 0.0), below=lam)
    note = ""
    if not -INFINITE < lo < hi < INFINITE:
        note = f"c_h = {c_h:.6g} not confirmed on L = {L:g}; threshold bisected"
        for k in range(1, CSTAR_MAX_DOUBLINGS + 1):
            if hi < INFINITE:
                break
            probe(c_h + 2.0 ** k * width)
        for k in range(1, CSTAR_MAX_DOUBLINGS + 1):
            if lo > -INFINITE or c_L <= 2.0 ** (k - 1) * width:
                break
            probe(max(c_L - 2.0 ** k * width, 0.0))
        if not -INFINITE < lo < hi < INFINITE:
            raise ThresholdNotBracketed(
                f"no threshold on L={L:g}: alive up to c={lo:g}, dead from c={hi:g}")
        while hi - lo > width:
            if not probe(0.5 * (lo + hi)):
                note += "; a probe was left at its sweep budget"
                break
    return MinimalSpeedResult(
        value=0.5 * (lo + hi) if note else c_h, linearized=c_lin, bracket=(lo, hi),
        trace=tuple(trace), note=note, fallbacks=profile.fallbacks,
        stops=tuple(stops))
