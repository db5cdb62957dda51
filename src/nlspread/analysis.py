"""Growth-law regression for front trajectories and ordering checks.

Front positions from long simulations are matched against three growth
laws: proportional growth a*t + b, the marginal log-corrected law
a*t*ln(t) + b, and power growth A*t^p fitted in log-log coordinates.
Goodness of fit is always scored on the raw positions over the declared
window so the three laws compete on the same footing.

``compare_orderings`` audits the componentwise comparison structure two
runs are expected to satisfy (one range and state dominating the other
at every sample), reporting the first violation when there is one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .freeboundary import FrontSeries

__all__ = [
    "LAWS", "InsufficientData", "GridMismatch",
    "FitReport", "OrderReport", "Violation",
    "fit_front", "best_growth_law", "compare_orderings", "report_to_json_dict",
]

LAWS = ("linear", "tlogt", "power")


class InsufficientData(RuntimeError):
    """Too few usable samples in the fit window."""


class GridMismatch(ValueError):
    """The two trajectories live on different lattices or sample times."""


@dataclass(frozen=True)
class FitReport:
    """One growth-law fit over a time window.

    ``coefficient`` is the leading factor (the prefactor A for the power
    law, whose log-space intercept is kept in ``intercept``).
    ``exponent`` is None except for the power law.  ``ambiguous``/``margin``
    are populated only by ``best_growth_law``.
    """

    law: str
    coefficient: float
    exponent: float | None
    intercept: float
    r_squared: float
    window: tuple[float, float]
    n_samples: int
    ambiguous: bool = False
    margin: float | None = None


def fit_front(series: tuple, law: str = "linear", window: tuple | None = None) -> FitReport:
    """Least-squares fit of a front trajectory ``(t, y)`` against one growth law.

    ``window`` defaults to the final half of the series, where the
    asymptotic laws are expected to have set in.  The log-corrected and
    power laws are only meaningful for t > 1; earlier samples inside the
    window are dropped (the power law additionally needs positive
    positions).  At least 20 usable samples must remain.
    """
    if law not in LAWS:
        raise ValueError(f"unknown law {law!r}; choose from {LAWS}")
    t, y = (np.asarray(a, dtype=float) for a in series)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("series must be a pair (t, y) of equal-length 1d arrays")
    if t.size == 0:
        raise InsufficientData("empty series")
    if window is None:
        window = (0.5 * float(t[-1]), float(t[-1]))
    lo, hi = float(window[0]), float(window[1])
    sel = (t >= lo) & (t <= hi)
    if law in ("tlogt", "power"):
        sel &= t > 1.0
    if law == "power":
        sel &= y > 0.0
    tw, yw = t[sel], y[sel]
    if tw.size < 20:
        raise InsufficientData(
            f"{tw.size} usable samples in window [{lo:g}, {hi:g}] for law {law!r}; need 20")

    if law == "linear":
        coef = np.polyfit(tw, yw, 1)
        a, b = float(coef[0]), float(coef[1])
        pred = a * tw + b
        coefficient, exponent, intercept = a, None, b
    elif law == "tlogt":
        xw = tw * np.log(tw)
        coef = np.polyfit(xw, yw, 1)
        a, b = float(coef[0]), float(coef[1])
        pred = a * xw + b
        coefficient, exponent, intercept = a, None, b
    else:
        coef = np.polyfit(np.log(tw), np.log(yw), 1)
        p, logA = float(coef[0]), float(coef[1])
        pred = math.exp(logA) * tw ** p
        coefficient, exponent, intercept = math.exp(logA), p, logA

    ss_res = float(np.sum((yw - pred) ** 2))
    ss_tot = float(np.sum((yw - np.mean(yw)) ** 2))
    if ss_tot > 0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    return FitReport(
        law=law, coefficient=coefficient, exponent=exponent, intercept=intercept,
        r_squared=float(np.clip(r2, 0.0, 1.0)), window=(lo, hi), n_samples=int(tw.size))


def best_growth_law(series: tuple, window: tuple | None = None) -> FitReport:
    """Fit all three laws to ``(t, y)`` and return the winner's report by raw-position r².

    A margin below 1e-4 between the two leading laws marks the winner's
    report ``ambiguous``; the margin itself is attached either way.
    """
    ranked = sorted((fit_front(series, law, window=window) for law in LAWS),
                    key=lambda rep: rep.r_squared, reverse=True)
    margin = ranked[0].r_squared - ranked[1].r_squared
    return replace(ranked[0], ambiguous=bool(margin < 1e-4), margin=float(margin))


def report_to_json_dict(report: FitReport) -> dict:
    """Flatten a fit for the fits.json artifact."""
    return {
        "model": report.law,
        "params": [report.coefficient, report.exponent, report.intercept],
        "r_squared": report.r_squared,
        "window": list(report.window),
    }


# ----------------------------------------------------------------------
# trajectory ordering

@dataclass(frozen=True)
class Violation:
    t: float
    field: str          # "h", "g", or "u<i>"
    x: float | None
    gap: float


@dataclass(frozen=True)
class OrderReport:
    ordered: bool
    violation: Violation | None
    checked_times: int


def _common_window(ua, ub):
    lo = max(ua.k_lo, ub.k_lo)
    hi = min(ua.k_hi, ub.k_hi)
    if hi < lo:
        return None
    va = ua.values[:, lo - ua.k_lo: hi - ua.k_lo + 1]
    vb = ub.values[:, lo - ub.k_lo: hi - ub.k_lo + 1]
    return lo, va, vb


def _state_violation(t: float, ua, ub) -> Violation | None:
    got = _common_window(ua, ub)
    if got is None:
        return None
    lo, va, vb = got
    gaps = va - vb
    worst = float(np.max(gaps))
    if worst > 0.0:
        comp, node = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
        return Violation(t=t, field=f"u{comp + 1}", x=(lo + node) * ua.dx, gap=worst)
    return None


def compare_orderings(a: FrontSeries, b: FrontSeries) -> OrderReport:
    """Check that run b dominates run a at every shared sample.

    Domination means h_a <= h_b, g_a >= g_b, and every state component of
    a below b's on the shared lattice nodes, at the sampled times, the
    common snapshot times, and the final state.  Requires identical
    lattices and sampling.  The check is exact, with no tolerance, which
    the comparison structure of the dynamics supports.
    """
    if not (isinstance(a, FrontSeries) and isinstance(b, FrontSeries)):
        raise TypeError("compare_orderings expects two range-expansion series")
    if a.final_state.u.dx != b.final_state.u.dx:
        raise GridMismatch(f"lattice spacing differs: {a.final_state.u.dx} vs {b.final_state.u.dx}")
    ta = np.asarray(a.t, dtype=float)
    tb = np.asarray(b.t, dtype=float)
    if ta.size != tb.size or not np.array_equal(ta, tb):
        raise GridMismatch("sampling times differ")

    checked = 0
    ah, bh = np.asarray(a.h, float), np.asarray(b.h, float)
    ag, bg = np.asarray(a.g, float), np.asarray(b.g, float)
    bad = np.nonzero(ah > bh)[0]
    if bad.size:
        i = int(bad[0])
        return OrderReport(False, Violation(float(ta[i]), "h", None, float(ah[i] - bh[i])), checked)
    bad = np.nonzero(bg > ag)[0]
    if bad.size:
        i = int(bad[0])
        return OrderReport(False, Violation(float(ta[i]), "g", None, float(bg[i] - ag[i])), checked)

    snaps_b = {float(t): u for t, u in b.snapshots}
    pairs = [(float(t), u, snaps_b[float(t)]) for t, u in a.snapshots
             if float(t) in snaps_b]
    pairs.append((float(a.final_state.t), a.final_state.u, b.final_state.u))
    for t, ua, ub in sorted(pairs, key=lambda p: p[0]):
        checked += 1
        v = _state_violation(t, ua, ub)
        if v is not None:
            return OrderReport(False, v, checked)
    return OrderReport(True, None, checked)
