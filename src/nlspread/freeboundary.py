"""Explicit time stepping for dispersal confined to a range with moving edges.

State lives on the lattice nodes strictly inside (g, h) and is zero outside.
Each step measures the dispersal mass that would land beyond each edge,
moves the edges outward in proportion, activates newly covered nodes at
zero, then advances the interior explicitly.  Mirror-symmetric data stays
mirror-symmetric to the last bit: edge fluxes and convolutions are
evaluated with reversal-invariant reductions.

The rules that read one problem description (F, J_i, mu_i) are defined here
once: how kernels and mu map onto the dispersing components, the time step,
the shared field and mesh checks, and the default wedge data.  The
whole-line simulator and the semi-wave solvers use the same definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import Kernel
from .nonlocal_ops import GridFunction, boundary_flux, check_mesh, convolve_values
from .reactions import ReactionModel, eval_F, lipschitz_bound, positive_equilibrium


class Instability(RuntimeError):
    """State left its admissible box: dt too large or model violation."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (t = {t:.6g})")
        self.t = t


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


class _Problem:
    """Rules both simulator configs share: the reaction, the kernels, the mesh.

    Subclasses are dataclasses with the fields model, kernels, h0, dx,
    t_end, dt, initial_profiles, snapshot_times, _dt and _lips; they call
    ``_check_shared`` first thing in ``__post_init__``.
    """

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

    def _profiles(self) -> tuple:
        """The configured initial profiles, or half-equilibrium wedges."""
        if self.initial_profiles is not None:
            return self.initial_profiles
        return _wedges(0.5 * positive_equilibrium(self.model), self.h0)

    def lipschitz(self) -> float:
        if self._lips is None:
            self._lips = lipschitz_bound(self.model)
        return self._lips

    def stability_limit(self) -> float:
        return 0.5 / (float(np.max(self.model.d)) + self.lipschitz())

    def timestep(self) -> float:
        if self._dt is None:
            self._dt = self.dt if self.dt is not None else 0.9 * self.stability_limit()
        return self._dt


@dataclass
class FBConfig(_Problem):
    model: ReactionModel
    kernels: tuple
    mu: np.ndarray
    h0: float
    dx: float
    t_end: float
    dt: float | None = None
    initial_profiles: tuple | None = None    # callables x -> value, one per component
    snapshot_times: tuple = ()
    sample_stride: int | None = None
    scheme: str = "euler"                    # "euler" | "heun"
    thresholds: Thresholds = field(default_factory=Thresholds)
    _dt: float | None = field(default=None, repr=False)
    _lips: float | None = field(default=None, repr=False)

    def __post_init__(self):
        self._check_shared()
        self.mu = _component_mu(self.mu, self.model.m, self.model.m0)
        if self.scheme not in ("euler", "heun"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
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
    dt: float
    stability_bound: float
    thresholds: Thresholds
    h0: float
    t_end: float


def _active_range(g: float, h: float, dx: float) -> tuple[int, int]:
    """Lattice index range of nodes strictly inside (g, h)."""
    k_lo = int(math.floor(g / dx)) + 1
    k_hi = int(math.ceil(h / dx)) - 1
    if k_hi < k_lo:
        raise ValueError(f"no lattice node inside ({g}, {h}) at dx={dx}")
    return k_lo, k_hi


def _embed(src: np.ndarray, src_klo: int, dst_klo: int, dst_n: int) -> np.ndarray:
    """Copy rows of src into a zero array over the destination index range."""
    out = np.zeros((src.shape[0], dst_n))
    lo = src_klo - dst_klo
    s0 = max(0, -lo)
    d0 = max(0, lo)
    count = min(src.shape[1] - s0, dst_n - d0)
    if count > 0:
        out[:, d0:d0 + count] = src[:, s0:s0 + count]
    return out


def make_initial_state(cfg: FBConfig) -> FBState:
    """Initial state on (-h0, h0); default profiles are half-equilibrium wedges."""
    model = cfg.model
    profiles = cfg._profiles()
    k_lo, k_hi = _active_range(-cfg.h0, cfg.h0, cfg.dx)
    xs = np.arange(k_lo, k_hi + 1) * cfg.dx
    vals = np.empty((model.m, xs.size))
    for i, prof in enumerate(profiles):
        vals[i] = np.asarray(prof(xs), dtype=float)
        edge = max(abs(float(prof(np.array([-cfg.h0]))[0])),
                   abs(float(prof(np.array([cfg.h0]))[0])))
        scale = max(1.0, float(np.max(np.abs(vals[i]))))
        if edge > 1e-9 * scale:
            raise ValueError(f"initial profile {i} must vanish at the range edges")
    if np.any(vals < 0) or not np.all(np.isfinite(vals)):
        raise ValueError("initial profiles must be finite and nonnegative")
    if model.u_ceiling is not None and np.any(vals > model.u_ceiling[:, None] * (1 + 1e-12)):
        raise ValueError("initial profiles exceed the model ceiling")
    if not np.any(vals > 0):
        raise ValueError("initial profiles must be positive somewhere inside the range")
    return FBState(t=0.0, g=-cfg.h0, h=cfg.h0, u=GridFunction(cfg.dx, k_lo, vals))


def _edge_fluxes(state: FBState, cfg: FBConfig) -> tuple[float, float]:
    """Outward dispersal rates (left, right); equal bitwise for mirror states."""
    gp = 0.0
    hp = 0.0
    for i in range(cfg.model.m0):
        if cfg.mu[i] == 0.0:
            continue
        gp += cfg.mu[i] * boundary_flux(cfg.kernels[i], state.u, i, "left",
                                        state.g, state.h)
        hp += cfg.mu[i] * boundary_flux(cfg.kernels[i], state.u, i, "right",
                                        state.g, state.h)
    return gp, hp


def _interior_rate(vals: np.ndarray, cfg: FBConfig) -> np.ndarray:
    """du/dt on a value array (zero-extended exterior implied)."""
    model = cfg.model
    f_vals = eval_F(model, vals, validate=False)
    rate = np.empty_like(vals)
    for i in range(model.m):
        if i < model.m0:
            conv = convolve_values(cfg.kernels[i], vals[i], cfg.dx)
            rate[i] = model.d[i] * (conv - vals[i]) + f_vals[i]
        else:
            rate[i] = f_vals[i]
    return rate


def _check_box(vals: np.ndarray, cfg: FBConfig, t: float) -> np.ndarray:
    if not np.all(np.isfinite(vals)):
        raise Instability("non-finite state value", t)
    if float(np.min(vals)) < -1e-12:
        raise Instability(f"state value {float(np.min(vals)):.3e} below zero", t)
    if cfg.model.u_ceiling is not None:
        over = float(np.max(vals - cfg.model.u_ceiling[:, None]))
        if over > 1e-9:
            raise Instability(f"state exceeds ceiling by {over:.3e}", t)
    elif float(np.max(vals)) > 1e12:
        raise Instability("state value above 1e12 in an unbounded model", t)
    return np.maximum(vals, 0.0)     # clamp the tolerated [-1e-12, 0) band


def step(state: FBState, cfg: FBConfig) -> FBState:
    """One explicit update of interior values and range edges."""
    dt = cfg.timestep()
    dx = cfg.dx
    gp1, hp1 = _edge_fluxes(state, cfg)
    if cfg.scheme == "euler":
        g_new = state.g - dt * gp1
        h_new = state.h + dt * hp1
        k_lo, _k_hi = _active_range(g_new, h_new, dx)
        n_new = _k_hi - k_lo + 1
        vals = _embed(state.u.values, state.u.k_lo, k_lo, n_new)
        new_vals = vals + dt * _interior_rate(vals, cfg)
    else:
        # one predictor/corrector pass; edges use averaged fluxes
        g_pred = state.g - dt * gp1
        h_pred = state.h + dt * hp1
        kp_lo, kp_hi = _active_range(g_pred, h_pred, dx)
        n_pred = kp_hi - kp_lo + 1
        base = _embed(state.u.values, state.u.k_lo, kp_lo, n_pred)
        rate1 = _interior_rate(base, cfg)
        pred_vals = np.maximum(base + dt * rate1, 0.0)
        if cfg.model.u_ceiling is not None:
            pred_vals = np.minimum(pred_vals, cfg.model.u_ceiling[:, None])
        pred = FBState(state.t + dt, g_pred, h_pred, GridFunction(dx, kp_lo, pred_vals))
        gp2, hp2 = _edge_fluxes(pred, cfg)
        g_new = state.g - 0.5 * dt * (gp1 + gp2)
        h_new = state.h + 0.5 * dt * (hp1 + hp2)
        k_lo, _k_hi = _active_range(g_new, h_new, dx)
        n_new = _k_hi - k_lo + 1
        vals = _embed(state.u.values, state.u.k_lo, k_lo, n_new)
        rate2 = _interior_rate(pred_vals, cfg)
        new_vals = vals + 0.5 * dt * (_embed(rate1, kp_lo, k_lo, n_new)
                                      + _embed(rate2, kp_lo, k_lo, n_new))
    new_vals = _check_box(new_vals, cfg, state.t + dt)
    return FBState(state.t + dt, g_new, h_new, GridFunction(dx, k_lo, new_vals))


def _track(state: FBState, h0: float) -> tuple[float, float]:
    total = np.sum(state.u.values, axis=0)
    xs = state.u.x
    core = total[np.abs(xs) <= h0]
    core_min = float(np.min(core)) if core.size else 0.0
    return core_min, float(np.max(total))


def run(cfg: FBConfig) -> FrontSeries:
    """Integrate to t_end, sampling edges and amplitude along the way."""
    dt = cfg.timestep()
    n_steps = int(math.ceil(cfg.t_end / dt - 1e-9)) if cfg.t_end > 0 else 0
    stride = cfg.sample_stride
    if stride is None:
        stride = max(1, n_steps // 4000)
    state = make_initial_state(cfg)
    ts, gs, hs, core_mins, u_maxes = [0.0], [state.g], [state.h], [], []
    cm, um = _track(state, cfg.h0)
    core_mins.append(cm)
    u_maxes.append(um)
    snapshots = []
    snap_idx = 0
    while snap_idx < len(cfg.snapshot_times) and cfg.snapshot_times[snap_idx] <= 1e-12:
        snapshots.append((state.t, state.u.copy()))
        snap_idx += 1
    for k in range(n_steps):
        state = step(state, cfg)
        if (k + 1) % stride == 0 or k == n_steps - 1:
            ts.append(state.t)
            gs.append(state.g)
            hs.append(state.h)
            cm, um = _track(state, cfg.h0)
            core_mins.append(cm)
            u_maxes.append(um)
        while (snap_idx < len(cfg.snapshot_times)
               and state.t >= cfg.snapshot_times[snap_idx] - 0.5 * dt):
            snapshots.append((state.t, state.u.copy()))
            snap_idx += 1
    return FrontSeries(t=np.asarray(ts), g=np.asarray(gs), h=np.asarray(hs),
                       core_min=np.asarray(core_mins), u_max=np.asarray(u_maxes),
                       snapshots=snapshots, final_state=state, dt=dt,
                       stability_bound=cfg.stability_limit(),
                       thresholds=cfg.thresholds, h0=cfg.h0, t_end=cfg.t_end)


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
