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

from .nonlocal_ops import GridFunction
from .freeboundary import _euler, _integrate, _Problem
from .reactions import positive_equilibrium

GROW_BLOCK = 64        # nodes added per widening, per side
EDGE_BAND = 0.05       # fraction of nodes inspected at each edge
MAX_WINDOW_NODES = 2 ** 20   # largest initial window sized without a cap


class InvalidLevel(ValueError):
    """Level must lie strictly between 0 and the component's equilibrium."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index        # position in CauchyConfig.levels


class WindowCapTooSmall(ValueError):
    """The initial data needs a wider window cap x_max, or one where there is none.

    CauchyConfig raises it when the cap does not cover [-h0, h0], and
    config reports that at /numerics/x_max.  make_initial_cauchy_state
    raises it for uncapped data that does not decay towards the window
    edges fast enough to fit in MAX_WINDOW_NODES; the wedges a scenario
    gives always decay.
    """


@dataclass
class CauchyConfig(_Problem):
    x_max: float | None = None            # hard window cap (heavy tails)
    levels: tuple = ()                    # (component, level) pairs to track
    eps_edge: float = field(init=False)   # an edge band at or above it is hot
    k_cap: int | None = field(init=False)  # the cap's lattice index: |k| <= k_cap

    def __post_init__(self):
        self._check_shared()
        u_star = positive_equilibrium(self.model)
        self.eps_edge = 1e-8 * float(np.min(u_star))
        self.levels = tuple((int(i), float(lam)) for i, lam in self.levels)
        # components are 0-based here and 1-based in scenarios and messages
        for j, (i, lam) in enumerate(self.levels):
            if not 0 <= i < self.model.m:
                raise ValueError(f"level component {i + 1} out of range")
            if not 0.0 < lam < u_star[i]:
                raise InvalidLevel(
                    f"level {lam} for component {i + 1} must lie in (0, {u_star[i]})", j)
        if self.x_max is not None and self.x_max < self.h0:
            raise WindowCapTooSmall("window cap must cover the initial data: "
                                    f"x_max = {self.x_max} < h0 = {self.h0}")
        self.k_cap = None if self.x_max is None else int(math.floor(self.x_max / self.dx))


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
    leak_bound: float            # worst neglected-exterior bound seen at a reference point
    capped: bool
    notes: tuple


def _band(n: int) -> int:
    """Nodes in each edge band of an n-node window."""
    return max(1, int(math.ceil(EDGE_BAND * n)))


def _edge_maxima(vals: np.ndarray) -> tuple[float, float]:
    """The largest value in the left and in the right edge band."""
    band = _band(vals.shape[1])
    return float(np.max(vals[:, :band])), float(np.max(vals[:, vals.shape[1] - band:]))


def _widen(k_lo: int, vals: np.ndarray, cfg: CauchyConfig) -> tuple[int, np.ndarray]:
    """Zero-pad until both edge bands are cold or the cap blocks growth.

    The bands are those of the padded window, and padding adds only cold
    nodes, so the rule reads the outermost hot columns alone: add
    GROW_BLOCK nodes, up to the cap, on each side whose band holds one,
    until neither does; then pad once.
    """
    n = vals.shape[1]
    k_hi = k_lo + n - 1
    k_cap = cfg.k_cap
    if k_cap is not None and k_lo == -k_cap and k_hi == k_cap:
        return k_lo, vals
    hot = np.max(vals, axis=0) >= cfg.eps_edge
    if not hot.any():
        return k_lo, vals
    first, last = int(np.argmax(hot)), n - 1 - int(np.argmax(hot[::-1]))
    pad_l = pad_r = 0
    while True:
        band = _band(n + pad_l + pad_r)
        grow_l = GROW_BLOCK if first < band - pad_l else 0
        grow_r = GROW_BLOCK if last >= n + pad_r - band else 0
        if k_cap is not None:
            grow_l = min(grow_l, k_lo - pad_l + k_cap)
            grow_r = min(grow_r, k_cap - (k_hi + pad_r))
        if grow_l == 0 and grow_r == 0:
            break
        pad_l += grow_l
        pad_r += grow_r
    if pad_l == 0 and pad_r == 0:
        return k_lo, vals
    return k_lo - pad_l, np.pad(vals, ((0, 0), (pad_l, pad_r)))


def make_initial_cauchy_state(cfg: CauchyConfig) -> CauchyState:
    """Default data: half-equilibrium wedges on [-h0, h0], zero outside.

    Without a cap, the window grows until its edge bands are cold.  Each
    growth step forecasts the steps left by extending its fall of the
    edge bands geometrically; data that decays slower than that (a power
    law) needs more, so a forecast past MAX_WINDOW_NODES, or bands that do
    not fall, raise WindowCapTooSmall instead of growing without end.
    """
    half = int(math.ceil(cfg.h0 / cfg.dx)) + GROW_BLOCK
    k_cap = cfg.k_cap
    if k_cap is not None:
        half = min(half, k_cap)
    # the data is sampled, not zero-padded, while sizing the initial window:
    # non-compact profiles (e.g. a Laplace-shaped state) must land intact
    peak = math.inf
    while True:
        vals = cfg._sample(np.arange(-half, half + 1) * cfg.dx)
        edge = max(_edge_maxima(vals))
        # NaN data reads cold here and fails _check_initial below
        if not edge >= cfg.eps_edge or (k_cap is not None and half >= k_cap):
            break
        if k_cap is None and peak < math.inf:
            steps = (math.log(cfg.eps_edge / edge) / (math.log(edge) - math.log(peak))
                     if edge < peak else math.inf)
            if 2 * (half + GROW_BLOCK * steps) + 1 > MAX_WINDOW_NODES:
                raise WindowCapTooSmall(
                    f"initial data does not decay within {MAX_WINDOW_NODES} nodes: "
                    f"{edge:.6g} at the edges of |x| <= {half * cfg.dx:g}; "
                    "set the window cap x_max")
        peak = edge
        half += GROW_BLOCK
        if k_cap is not None:
            half = min(half, k_cap)
    cfg._check_initial(vals)
    return CauchyState(t=0.0, u=GridFunction(cfg.dx, -half, vals))


def cstep(state: CauchyState, cfg: CauchyConfig) -> CauchyState:
    """One explicit whole-line update; widens the window when edges warm up."""
    t = state.t + cfg.timestep()
    new_vals = _euler(state.u.values, cfg, t, state.u.k_lo)
    k_lo, new_vals = _widen(state.u.k_lo, new_vals, cfg)
    return CauchyState(t, GridFunction(cfg.dx, k_lo, new_vals))


def _outer_crossing(vals: np.ndarray, k_lo: int, dx: float, level: float) -> float | None:
    """Rightmost downward crossing of level, linearly interpolated.

    Node j of vals sits at x = (k_lo + j) dx.
    """
    above = np.nonzero(vals >= level)[0]
    if above.size == 0:
        return None
    idx = int(above[-1])
    x0 = (k_lo + idx) * dx
    if idx == vals.size - 1:
        return x0
    frac = (vals[idx] - level) / (vals[idx] - vals[idx + 1])
    return float(x0 + frac * ((k_lo + idx + 1) * dx - x0))


def level_set(state: CauchyState, component: int,
              level: float) -> tuple[float, float] | None:
    """Outermost positions where the component crosses the level, or None.

    The right end scans the values as stored and the left end scans the
    reversal, whose node j sits at (j - k_hi) dx, so mirror-symmetric
    states give x_minus == -x_plus exactly.
    """
    v = state.u.values[component]
    x_plus = _outer_crossing(v, state.u.k_lo, state.u.dx, level)
    if x_plus is None:
        return None
    x_left = _outer_crossing(v[::-1], -state.u.k_hi, state.u.dx, level)
    return (-x_left, x_plus)


def _leak_reference(cfg: CauchyConfig, state: CauchyState, x_ref: float) -> float:
    """Bound on the neglected exterior convolution at the reference point."""
    max_u = float(np.max(state.u.values)) if state.u.values.size else 0.0
    dist = max(min(state.x_right - x_ref, x_ref - state.x_left), 0.0)
    worst = 0.0
    for kern in cfg.kernels:
        worst = max(worst, float(kern.tail(dist)))
    return worst * max_u


def run_cauchy(cfg: CauchyConfig) -> CauchySeries:
    """Integrate to t_end, tracking level sets and origin values."""
    ts = []
    origin = []
    level_rows = {key: [] for key in cfg.levels}
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

    def note_cap(st: CauchyState):
        """Capped once a side sits at the cap with its edge band hot."""
        nonlocal capped
        k_cap, k_lo, k_hi = cfg.k_cap, st.u.k_lo, st.u.k_hi
        if k_cap is not None and not capped and (k_lo <= -k_cap or k_hi >= k_cap):
            left, right = _edge_maxima(st.u.values)
            capped = (k_lo <= -k_cap and left >= cfg.eps_edge
                      or k_hi >= k_cap and right >= cfg.eps_edge)

    def advance(st: CauchyState) -> CauchyState:
        st = cstep(st, cfg)
        note_cap(st)
        return st

    state = make_initial_cauchy_state(cfg)
    note_cap(state)
    state, snapshots = _integrate(cfg, state, advance, record)
    notes = []
    if capped:
        notes.append(f"window capped at |x| <= {cfg.x_max}; exterior leak bound {leak:.3e}")
    if cfg.model.u_ceiling is not None and not all(
            kern.exp_abscissa > 0.0 for kern in cfg.kernels):
        notes.append("bounded-ceiling model with heavy-tailed dispersal: "
                     "accelerated-rate statements assume an unbounded ceiling")
    levels = {key: np.asarray(rows, dtype=float).reshape(-1, 3)
              for key, rows in level_rows.items()}
    return CauchySeries(t=np.asarray(ts), levels=levels,
                        origin=np.asarray(origin), snapshots=snapshots,
                        final_state=state, leak_bound=leak, capped=capped, notes=tuple(notes))
