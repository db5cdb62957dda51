"""Explicit time stepping for dispersal confined to a range with moving edges.

State lives on the lattice nodes strictly inside (g, h) and is zero outside.
Each step measures the dispersal mass that would land beyond each edge
(one two-sided flux call per kernel group), moves the edges outward in
proportion, activates newly covered nodes at zero, then advances the
interior explicitly.  Mirror-symmetric data stays mirror-symmetric to the
last bit: edge fluxes and convolutions are evaluated with
reversal-invariant reductions.

The moving range and the whole line differ only in the edge law, so the
rules that read one problem description (F, J_i, mu_i) are defined here
once: the ``_Problem`` fields, checks, time step and dispersal operator,
and ``_integrate``, the time loop of both simulators.  The whole-line
simulator and the semi-wave solvers use the same definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import Kernel
from .nonlocal_ops import DispersalOperator, GridFunction, boundary_flux, check_mesh
from .nonlocal_ops import convolve_values  # noqa: F401 -- perfbench --trace 1 wraps it here
from .reactions import ReactionModel, eval_F, lipschitz_bound, positive_equilibrium


class Instability(RuntimeError):
    """State left its admissible box: dt too large or model violation.

    ``component`` (counted from 1, as in scenarios), ``x`` and ``value``
    locate the worst offending node.
    """

    def __init__(self, message: str, t: float, component: int, x: float, value: float):
        super().__init__(f"{message}: component {component}, x = {x:.6g}, "
                         f"value {value:.6g} (t = {t:.6g})")
        self.t, self.component, self.x, self.value = t, component, x, value


@dataclass(frozen=True)
class Thresholds:
    """Finite-horizon classification thresholds; all reported with results."""
    growth_factor: float = 10.0       # width gain, in units of h0, for Spreading
    interior_frac: float = 0.5        # core occupancy fraction of sum(u*)
    vanish_amp_frac: float = 1e-3     # amplitude ceiling, fraction of sum(u*)
    vanish_creep_frac: float = 1e-4   # late width creep ceiling, fraction of h0


def _component_kernels(kernels, m0: int) -> tuple:
    """One kernel per dispersing component; a single Kernel serves all m0."""
    if isinstance(kernels, Kernel):
        return (kernels,) * m0
    kernels = tuple(kernels)
    if len(kernels) != m0:
        raise ValueError(
            f"need one kernel per dispersing component: {m0}, got {len(kernels)}")
    return kernels


def _component_mu(mu, m: int, m0: int) -> np.ndarray:
    """Expansion rates of the m0 dispersing components.

    A scalar applies to every dispersing component; a length-m vector is
    accepted when it vanishes on the non-dispersing ones.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if mu.size == 1:
        mu = np.full(m0, float(mu[0]))
    if mu.size == m and m > m0:
        if np.any(mu[m0:] != 0):
            raise ValueError("expansion coefficients apply to dispersing components only")
        mu = mu[:m0]
    if mu.shape != (m0,):
        raise ValueError(f"mu must have {m0} entries, got {mu.size}")
    if np.any(mu < 0) or not np.sum(mu) > 0:
        raise ValueError("expansion coefficients must be nonnegative with positive sum")
    return mu


def _wedges(amps, h0: float) -> tuple:
    """Profiles a * (1 - |x|/h0)+ on [-h0, h0], one per amplitude."""

    def wedge(a):
        return lambda x: a * np.maximum(0.0, 1.0 - np.abs(x) / h0)

    return tuple(wedge(a) for a in amps)


@dataclass
class _Problem:
    """The fields and rules both simulator configs share.

    Subclasses call ``_check_shared`` first thing in ``__post_init__``.
    """

    model: ReactionModel
    kernels: tuple
    h0: float
    dx: float
    t_end: float
    dt: float | None = None
    initial_profiles: tuple | None = None    # callables x -> value, one per component
    snapshot_times: tuple = ()
    sample_stride: int | None = None
    _dt: float | None = field(default=None, init=False, repr=False)
    _op: DispersalOperator | None = field(default=None, init=False, repr=False,
                                          compare=False)

    def _check_shared(self):
        self.kernels = _component_kernels(self.kernels, self.model.m0)
        if not (self.h0 > 0 and self.dx > 0 and self.t_end >= 0):
            raise ValueError("need h0 > 0, dx > 0, t_end >= 0")
        if self.initial_profiles is not None:
            self.initial_profiles = tuple(self.initial_profiles)
            if len(self.initial_profiles) != self.model.m:
                raise ValueError("need one initial profile per component")
        self.snapshot_times = tuple(sorted(float(s) for s in self.snapshot_times))
        for kern in self.kernels:
            check_mesh(kern, self.dx)

    def _sample(self, xs: np.ndarray) -> np.ndarray:
        """The initial profiles at the points xs, one row per component.

        The configured profiles, or half-equilibrium wedges; a profile
        that returns a scalar is broadcast to xs.
        """
        profiles = self.initial_profiles
        if profiles is None:
            profiles = _wedges(0.5 * positive_equilibrium(self.model), self.h0)
        return np.stack([np.broadcast_to(np.asarray(prof(xs), dtype=float), xs.shape)
                         for prof in profiles])

    def _check_initial(self, vals: np.ndarray) -> None:
        """Initial values must be finite, nonnegative and under the ceiling."""
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise ValueError("initial profiles must be finite and nonnegative")
        ceiling = self.model.u_ceiling
        if ceiling is not None and np.any(vals > ceiling[:, None] * (1 + 1e-12)):
            raise ValueError("initial profiles exceed the model ceiling")

    def stability_limit(self) -> float:
        return 0.5 / (float(np.max(self.model.d)) + lipschitz_bound(self.model))

    def timestep(self) -> float:
        if self._dt is None:
            self._dt = self.dt if self.dt is not None else 0.9 * self.stability_limit()
        return self._dt

    def operator(self) -> DispersalOperator:
        """The dispersal operator of the m0 kernels on this mesh, built once."""
        if self._op is None:
            self._op = DispersalOperator(self.kernels, self.dx)
        return self._op


@dataclass
class FBConfig(_Problem):
    mu: np.ndarray = field(kw_only=True)
    thresholds: Thresholds = field(default_factory=Thresholds)

    def __post_init__(self):
        self._check_shared()
        self.mu = _component_mu(self.mu, self.model.m, self.model.m0)
        # a dt above the stability bound is allowed here; the run will
        # surface it as Instability rather than silently producing garbage


@dataclass
class FBState:
    t: float
    g: float
    h: float
    u: GridFunction


@dataclass
class FrontSeries:
    t: np.ndarray
    g: np.ndarray
    h: np.ndarray
    core_min: np.ndarray        # min over active nodes with |x| <= h0 of sum_i u_i
    u_max: np.ndarray           # max over nodes of sum_i u_i
    snapshots: list
    final_state: FBState


def _active_range(g: float, h: float, dx: float) -> tuple[int, int]:
    """Lattice index range of nodes strictly inside (g, h)."""
    k_lo = int(math.floor(g / dx)) + 1
    k_hi = int(math.ceil(h / dx)) - 1
    if k_hi < k_lo:
        raise ValueError(f"no lattice node inside ({g}, {h}) at dx={dx}")
    return k_lo, k_hi


def make_initial_state(cfg: FBConfig) -> FBState:
    """Initial state on (-h0, h0); default profiles are half-equilibrium wedges."""
    k_lo, k_hi = _active_range(-cfg.h0, cfg.h0, cfg.dx)
    vals = cfg._sample(np.arange(k_lo, k_hi + 1) * cfg.dx)
    edge = np.max(np.abs(cfg._sample(np.array([-cfg.h0, cfg.h0]))), axis=1)
    scale = np.maximum(1.0, np.max(np.abs(vals), axis=1))
    bad = np.nonzero(edge > 1e-9 * scale)[0]
    if bad.size:
        raise ValueError(f"initial profile {bad[0]} must vanish at the range edges")
    cfg._check_initial(vals)
    if not np.any(vals > 0):
        raise ValueError("initial profiles must be positive somewhere inside the range")
    return FBState(t=0.0, g=-cfg.h0, h=cfg.h0, u=GridFunction(cfg.dx, k_lo, vals))


def _edge_fluxes(state: FBState, cfg: FBConfig) -> tuple[float, float]:
    """Outward dispersal rates (left, right); equal bitwise for mirror states."""
    mu = cfg.mu.tolist()
    left = [0.0] * len(mu)
    right = [0.0] * len(mu)
    for kern, rows in cfg.operator().groups:
        group_left, group_right = boundary_flux(kern, state.u, rows, state.g, state.h)
        for i, lf, rf in zip(rows.tolist(), group_left.tolist(), group_right.tolist()):
            left[i], right[i] = lf, rf
    gp = 0.0
    hp = 0.0
    for mu_i, lf, rf in zip(mu, left, right):
        if mu_i == 0.0:
            continue
        gp += mu_i * lf
        hp += mu_i * rf
    return gp, hp


def _interior_rate(vals: np.ndarray, cfg: FBConfig) -> np.ndarray:
    """du/dt on a value array (zero-extended exterior implied)."""
    model = cfg.model
    m0 = model.m0
    f_vals = eval_F(model, vals, validate=False)
    rate = cfg.operator().convolve(vals)       # a fresh (m0, n) array
    rate -= vals[:m0]
    rate *= model.d[:m0, None]
    rate += f_vals[:m0]
    return rate if m0 == model.m else np.concatenate((rate, f_vals[m0:]))


def _check_box(vals: np.ndarray, cfg: FBConfig, t: float, k_lo: int) -> np.ndarray:
    """Clamp the tolerated [-1e-12, 0) band in place; raise Instability outside the box.

    The minimum and the per-row maxima decide every branch: a NaN makes
    the minimum NaN, and an infinity shows in the minimum or in the
    largest excess over the ceiling (over 0 without one).  A failure
    names the worst node: its component and its x position (``k_lo`` is
    the global lattice index of the first column).
    """
    def fail(message: str, score: np.ndarray):
        i, j = np.unravel_index(np.argmax(score), vals.shape)
        raise Instability(message, t, int(i) + 1, (k_lo + int(j)) * cfg.dx,
                          float(vals[i, j]))

    lo = float(vals.min())
    hi = vals.max(axis=1)
    ceiling = cfg.model.u_ceiling
    top = float((hi if ceiling is None else hi - ceiling).max())
    if not (math.isfinite(lo) and math.isfinite(top)):
        fail("non-finite state value", ~np.isfinite(vals))
    if lo < -1e-12:
        fail("state value below zero", -vals)
    if ceiling is not None:
        if top > 1e-9:
            fail(f"state exceeds ceiling by {top:.3e}", vals - ceiling[:, None])
    elif top > 1e12:
        fail("state value above 1e12 in an unbounded model", vals)
    # a positive minimum leaves nothing to clamp
    return vals if lo > 0 else np.maximum(vals, 0.0, out=vals)


def _euler(vals: np.ndarray, cfg: _Problem, t: float, k_lo: int) -> np.ndarray:
    """vals + dt * du/dt as a fresh array, checked against the box at time t."""
    new_vals = _interior_rate(vals, cfg)
    new_vals *= cfg.timestep()
    new_vals += vals
    return _check_box(new_vals, cfg, t, k_lo)


def step(state: FBState, cfg: FBConfig) -> FBState:
    """One explicit Euler update of interior values and range edges."""
    dt = cfg.timestep()
    dx = cfg.dx
    gp, hp = _edge_fluxes(state, cfg)
    g_new = state.g - dt * gp
    h_new = state.h + dt * hp
    k_lo, k_hi = _active_range(g_new, h_new, dx)
    # both edge fluxes are >= 0, so the range only grows and holds the old nodes
    old = state.u.values
    vals = np.zeros((old.shape[0], k_hi - k_lo + 1))
    lo = state.u.k_lo - k_lo
    vals[:, lo:lo + old.shape[1]] = old
    new_vals = _euler(vals, cfg, state.t + dt, k_lo)
    return FBState(state.t + dt, g_new, h_new, GridFunction(dx, k_lo, new_vals))


def _core_range(k_lo: int, n: int, dx: float, h0: float) -> tuple[int, int]:
    """Local index range [lo, hi) of the nodes with |k*dx| <= h0 among k_lo..k_lo+n-1.

    k*dx is monotone in k and odd, so those nodes are -K..K for the
    largest K with K*dx <= h0, found from the float quotient and settled
    by the same product the mask would compute.
    """
    K = int(h0 / dx)
    while (K + 1) * dx <= h0:
        K += 1
    while K * dx > h0:
        K -= 1
    lo = max(-K - k_lo, 0)
    return lo, max(min(K - k_lo + 1, n), lo)


def _track(state: FBState, h0: float) -> tuple[float, float]:
    u = state.u
    total = u.values.sum(axis=0)
    lo, hi = _core_range(u.k_lo, u.n, u.dx, h0)
    core_min = float(total[lo:hi].min()) if hi > lo else 0.0
    return core_min, float(total.max())


def _integrate(cfg: _Problem, state, advance, record) -> tuple:
    """Step to t_end; record t = 0, every stride-th step and the last one.

    Returns the final state and the snapshots, each taken at the first
    step within half a step of its time.
    """
    dt = cfg.timestep()
    n_steps = int(math.ceil(cfg.t_end / dt - 1e-9)) if cfg.t_end > 0 else 0
    stride = cfg.sample_stride
    if stride is None:
        stride = max(1, n_steps // 4000)
    times = cfg.snapshot_times
    snapshots = []
    record(state)
    while len(snapshots) < len(times) and times[len(snapshots)] <= 1e-12:
        snapshots.append((state.t, state.u.copy()))
    for k in range(n_steps):
        state = advance(state)
        if (k + 1) % stride == 0 or k == n_steps - 1:
            record(state)
        while len(snapshots) < len(times) and state.t >= times[len(snapshots)] - 0.5 * dt:
            snapshots.append((state.t, state.u.copy()))
    return state, snapshots


def run(cfg: FBConfig) -> FrontSeries:
    """Integrate to t_end, sampling edges and amplitude along the way."""
    samples = []

    def record(st: FBState):
        samples.append((st.t, st.g, st.h, *_track(st, cfg.h0)))

    state, snapshots = _integrate(cfg, make_initial_state(cfg),
                                  lambda st: step(st, cfg), record)
    t, g, h, core_min, u_max = (np.asarray(col) for col in zip(*samples))
    return FrontSeries(t=t, g=g, h=h, core_min=core_min, u_max=u_max,
                       snapshots=snapshots, final_state=state)


def classify_outcome(series: FrontSeries, cfg: FBConfig) -> str:
    """Label a finished run Spreading, Vanishing, or Undetermined.

    The labels are finite-horizon surrogates with declared thresholds; a run
    that matches neither signature is reported Undetermined rather than
    forced into the dichotomy.
    """
    th = cfg.thresholds
    if series.t[-1] < 0.2 * cfg.t_end or series.t.size < 3:
        return "Undetermined"
    u_star = positive_equilibrium(cfg.model)
    total_star = float(np.sum(u_star))
    width = series.h - series.g
    growth = float(width[-1] - width[0])
    tail = series.t >= series.t[-1] - 0.25 * (series.t[-1] - series.t[0])
    if growth > th.growth_factor * cfg.h0:
        if float(np.min(series.core_min[tail])) > th.interior_frac * total_star:
            return "Spreading"
    creep = float(width[-1] - width[tail][0])
    amp_tail = series.u_max[tail]
    amp_ok = float(np.max(amp_tail)) < th.vanish_amp_frac * total_star
    decreasing = bool(np.all(np.diff(amp_tail) <= 1e-12 * max(np.max(amp_tail), 1e-300)))
    if creep < th.vanish_creep_frac * cfg.h0 and amp_ok and decreasing:
        return "Vanishing"
    return "Undetermined"
