"""Whole-line integration on a self-widening window, with level-set tracking.

The interior update is the same explicit step as the moving-edge simulator,
minus the edge laws: the window is plumbing, not part of the model.  It
widens in blocks wherever the solution stops being negligible near an edge,
so the zero extension outside stays an honest approximation; heavy-tailed
kernels can cap the window instead and get an auditable leak bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import INFINITE, exp_moment, tail_mass
from .nonlocal_ops import GridFunction
from .freeboundary import Instability, _check_box, _interior_rate, _Problem
from .reactions import ReactionModel, positive_equilibrium

GROW_BLOCK = 64        # nodes added per widening, per side
EDGE_BAND = 0.05       # fraction of nodes inspected at each edge


class InvalidLevel(ValueError):
    """Level must lie strictly between 0 and the component's equilibrium."""


@dataclass
class CauchyConfig(_Problem):
    model: ReactionModel
    kernels: tuple
    h0: float
    dx: float
    t_end: float
    dt: float | None = None
    initial_profiles: tuple | None = None
    x_max: float | None = None            # hard window cap (heavy tails)
    levels: tuple = ()                    # (component, level) pairs to track
    snapshot_times: tuple = ()
    sample_stride: int | None = None
    eps_edge: float | None = None
    _dt: float | None = field(default=None, repr=False)
    _lips: float | None = field(default=None, repr=False)

    def __post_init__(self):
        self._check_shared()
        u_star = positive_equilibrium(self.model)
        if self.eps_edge is None:
            self.eps_edge = 1e-8 * float(np.min(u_star))
        self.levels = tuple((int(i), float(lam)) for i, lam in self.levels)
        for i, lam in self.levels:
            if not 0 <= i < self.model.m:
                raise ValueError(f"level component {i} out of range")
            if not 0.0 < lam < u_star[i]:
                raise InvalidLevel(
                    f"level {lam} for component {i} must lie in (0, {u_star[i]})")
        if self.x_max is not None and self.x_max < self.h0:
            raise ValueError("window cap must cover the initial data")


@dataclass
class CauchyState:
    t: float
    u: GridFunction

    @property
    def x_left(self) -> float:
        return self.u.k_lo * self.u.dx

    @property
    def x_right(self) -> float:
        return self.u.k_hi * self.u.dx


@dataclass
class CauchySeries:
    t: np.ndarray
    levels: dict                 # (component, level) -> array of (t, x_minus, x_plus)
    origin: np.ndarray           # per-component values at x = 0, one row per sample
    snapshots: list
    final_state: CauchyState
    dt: float
    leak_bound: float            # worst neglected-exterior bound seen at a reference point
    window_final: tuple
    capped: bool
    notes: tuple


def _edges_hot(vals: np.ndarray, eps: float) -> tuple[bool, bool]:
    band = max(1, int(math.ceil(EDGE_BAND * vals.shape[1])))
    return (float(np.max(vals[:, :band])) >= eps,
            float(np.max(vals[:, vals.shape[1] - band:])) >= eps)


def _cap_indices(cfg: CauchyConfig) -> tuple[int | None, int | None]:
    if cfg.x_max is None:
        return None, None
    k = int(math.floor(cfg.x_max / cfg.dx))
    return -k, k


def _widen(k_lo: int, vals: np.ndarray, cfg: CauchyConfig) -> tuple[int, np.ndarray, bool]:
    """Zero-pad until both edge bands are cold or the cap blocks growth."""
    k_min, k_max = _cap_indices(cfg)
    capped = False
    while True:
        lhot, rhot = _edges_hot(vals, cfg.eps_edge)
        pad_l = GROW_BLOCK if lhot else 0
        pad_r = GROW_BLOCK if rhot else 0
        if k_min is not None:
            pad_l = min(pad_l, k_lo - k_min)
            pad_r = min(pad_r, k_max - (k_lo + vals.shape[1] - 1))
            if (lhot and pad_l == 0) or (rhot and pad_r == 0):
                capped = True
        if pad_l == 0 and pad_r == 0:
            return k_lo, vals, capped
        vals = np.pad(vals, ((0, 0), (pad_l, pad_r)))
        k_lo -= pad_l


def make_initial_cauchy_state(cfg: CauchyConfig) -> CauchyState:
    """Default data: half-equilibrium wedges on [-h0, h0], zero outside."""
    model = cfg.model
    profiles = cfg._profiles()
    half = int(math.ceil(cfg.h0 / cfg.dx)) + GROW_BLOCK
    k_min, k_max = _cap_indices(cfg)
    if k_max is not None:
        half = min(half, k_max)
    # the data is sampled, not zero-padded, while sizing the initial window:
    # non-compact profiles (e.g. a constant state) must land intact
    while True:
        xs = np.arange(-half, half + 1) * cfg.dx
        vals = np.stack([np.asarray(prof(xs), dtype=float) for prof in profiles])
        hot = any(_edges_hot(vals, cfg.eps_edge))
        if not hot or (k_max is not None and half >= k_max):
            break
        half += GROW_BLOCK
        if k_max is not None:
            half = min(half, k_max)
    if np.any(vals < 0) or not np.all(np.isfinite(vals)):
        raise ValueError("initial profiles must be finite and nonnegative")
    if model.u_ceiling is not None and np.any(vals > model.u_ceiling[:, None] * (1 + 1e-12)):
        raise ValueError("initial profiles exceed the model ceiling")
    return CauchyState(t=0.0, u=GridFunction(cfg.dx, -half, vals))


def cstep(state: CauchyState, cfg: CauchyConfig) -> CauchyState:
    """One explicit whole-line update; widens the window when edges warm up."""
    dt = cfg.timestep()
    vals = state.u.values
    new_vals = vals + dt * _interior_rate(vals, cfg)
    new_vals = _check_box(new_vals, cfg, state.t + dt)
    k_lo, new_vals, _ = _widen(state.u.k_lo, new_vals, cfg)
    return CauchyState(state.t + dt, GridFunction(cfg.dx, k_lo, new_vals))


def _outer_crossing(vals: np.ndarray, xs: np.ndarray, level: float) -> float | None:
    """Rightmost downward crossing of level, linearly interpolated."""
    above = np.nonzero(vals >= level)[0]
    if above.size == 0:
        return None
    idx = int(above[-1])
    if idx == vals.size - 1:
        return float(xs[-1])
    frac = (vals[idx] - level) / (vals[idx] - vals[idx + 1])
    return float(xs[idx] + frac * (xs[idx + 1] - xs[idx]))


def level_set(state: CauchyState, component: int, level: float,
              u_star: np.ndarray | None = None) -> tuple[float, float] | None:
    """Outermost positions where the component crosses the level, or None.

    The right end scans the values as stored and the left end scans the
    reversal, so mirror-symmetric states give x_minus == -x_plus exactly.
    """
    if u_star is not None and not 0.0 < level < u_star[component]:
        raise InvalidLevel(
            f"level {level} for component {component} must lie in "
            f"(0, {u_star[component]})")
    v = state.u.values[component]
    xs = state.u.x
    x_plus = _outer_crossing(v, xs, level)
    if x_plus is None:
        return None
    x_left = _outer_crossing(v[::-1], -xs[::-1], level)
    return (-x_left, x_plus)


def _leak_reference(cfg: CauchyConfig, state: CauchyState, x_ref: float) -> float:
    """Bound on the neglected exterior convolution at the reference point."""
    max_u = float(np.max(state.u.values)) if state.u.values.size else 0.0
    dist = max(min(state.x_right - x_ref, x_ref - state.x_left), 0.0)
    worst = 0.0
    for kern in cfg.kernels:
        worst = max(worst, tail_mass(kern, dist))
    return worst * max_u


def run_cauchy(cfg: CauchyConfig) -> CauchySeries:
    """Integrate to t_end, tracking level sets and origin values."""
    dt = cfg.timestep()
    n_steps = int(math.ceil(cfg.t_end / dt - 1e-9)) if cfg.t_end > 0 else 0
    stride = cfg.sample_stride
    if stride is None:
        stride = max(1, n_steps // 4000)
    state = make_initial_cauchy_state(cfg)
    ts = []
    origin = []
    level_rows = {key: [] for key in cfg.levels}
    snapshots = []
    snap_idx = 0
    leak = 0.0
    capped = False

    def record(st: CauchyState):
        nonlocal leak
        ts.append(st.t)
        origin.append(st.u.values[:, st.u.origin_index].copy())
        x_ref = 0.0
        for key in cfg.levels:
            pair = level_set(st, key[0], key[1])
            if pair is not None:
                level_rows[key].append((st.t, pair[0], pair[1]))
                x_ref = max(x_ref, abs(pair[0]), abs(pair[1]))
        leak = max(leak, _leak_reference(cfg, st, x_ref))

    record(state)
    while snap_idx < len(cfg.snapshot_times) and cfg.snapshot_times[snap_idx] <= 1e-12:
        snapshots.append((state.t, state.u.copy()))
        snap_idx += 1
    k_min, k_max = _cap_indices(cfg)
    if k_max is not None and state.u.k_hi >= k_max:
        capped = any(_edges_hot(state.u.values, cfg.eps_edge))
    for k in range(n_steps):
        state = cstep(state, cfg)
        if k_max is not None and state.u.k_hi >= k_max:
            hot = _edges_hot(state.u.values, cfg.eps_edge)
            capped = capped or hot[0] or hot[1]
        if (k + 1) % stride == 0 or k == n_steps - 1:
            record(state)
        while (snap_idx < len(cfg.snapshot_times)
               and state.t >= cfg.snapshot_times[snap_idx] - 0.5 * dt):
            snapshots.append((state.t, state.u.copy()))
            snap_idx += 1
    notes = []
    if capped:
        notes.append(f"window capped at |x| <= {cfg.x_max}; exterior leak bound {leak:.3e}")
    if cfg.model.u_ceiling is not None:
        heavy = any(exp_moment(kern, 1e-3) == INFINITE for kern in cfg.kernels)
        if heavy:
            notes.append("bounded-ceiling model with heavy-tailed dispersal: "
                         "accelerated-rate statements assume an unbounded ceiling")
    levels = {key: np.asarray(rows, dtype=float).reshape(-1, 3)
              for key, rows in level_rows.items()}
    return CauchySeries(t=np.asarray(ts), levels=levels,
                        origin=np.asarray(origin), snapshots=snapshots,
                        final_state=state, dt=dt, leak_bound=leak,
                        window_final=(state.x_left, state.x_right),
                        capped=capped, notes=tuple(notes))
