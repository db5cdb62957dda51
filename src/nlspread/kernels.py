"""Dispersal kernels: even, nonnegative, unit-mass weight functions on the line.

A kernel carries its analytic density J, the tail function
Jtail(z) = integral of J over [z, infinity), a sampled tail table on a
geometric mesh (used for decay classification and diagnostics), and a
cutoff radius beyond which the tail mass is below EPS_TAIL.

Families (``_FAMILIES``, the one table of family -> parameters; the
scenario schema's kernel object and the JSON reader follow it):

    uniform(radius)                 compact support [-radius, radius]
    laplace(scale)                  exp(-|x|/scale)
    gaussian(sigma)                 exp(-x^2 / (2 sigma^2))
    powerlaw(gamma, core_width=1)   (core_width + |x|)^-gamma, gamma > 1
    table(x, values)                sampled on an even grid, linear between

``make_kernel`` computes everything a kernel is in one pass and stores
the facts as ``Kernel`` fields.  The paper's case split is read off
them: a finite ``first_moment`` gives a semi-wave speed c0, an
``exp_abscissa`` > 0 (some exponential moment finite) gives a minimal
speed c*, and heavier tails make fronts accelerate.  A sampled table
counts as polynomial when its tail table fits a power law
(``_tail_regression``, the fields ``gamma_hat`` and ``gamma_stderr``)
over a decade that reaches past the table's core.
No other module compares family names or reads family parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

INFINITE = math.inf

TAIL_MESH_RATIO = 1.05     # geometric mesh ratio for the sampled tail table
TAIL_FIT_CORES = 3.0       # a table's fit decade must reach this many core scales
EPS_TAIL = 1e-8            # tail mass beyond the cutoff radius
_MESH_NODES = 20000        # tail mesh budget, the node 0 included
_MESH_BLOCK = 256          # mesh nodes made per vectorized step

# family -> {parameter: default}; None marks a required parameter
_FAMILIES = {
    "uniform": {"radius": None},
    "laplace": {"scale": None},
    "gaussian": {"sigma": None},
    "powerlaw": {"gamma": None, "core_width": 1.0},
    "table": {"x": None, "values": None},
}


class KernelError(ValueError):
    """Invalid kernel description or parameter."""


class NonNormalizable(KernelError):
    """The requested density has no finite mass (powerlaw gamma <= 1)."""


class NegativeTableValue(KernelError):
    """Table kernels must have nonnegative sample values."""


class InvalidLambda(KernelError):
    """Exponential-moment rate must be finite."""


@dataclass(frozen=True)
class KernelSpec:
    """Declarative kernel description; build a usable kernel via make_kernel."""

    family: str
    radius: float | None = None
    scale: float | None = None
    sigma: float | None = None
    gamma: float | None = None
    core_width: float | None = None
    x: tuple[float, ...] | None = None
    values: tuple[float, ...] | None = None

    @classmethod
    def uniform(cls, radius: float) -> "KernelSpec":
        return cls(family="uniform", radius=float(radius))

    @classmethod
    def laplace(cls, scale: float) -> "KernelSpec":
        return cls(family="laplace", scale=float(scale))

    @classmethod
    def gaussian(cls, sigma: float) -> "KernelSpec":
        return cls(family="gaussian", sigma=float(sigma))

    @classmethod
    def powerlaw(cls, gamma: float, core_width: float = 1.0) -> "KernelSpec":
        return cls(family="powerlaw", gamma=float(gamma), core_width=float(core_width))

    @classmethod
    def table(cls, x, values) -> "KernelSpec":
        return cls(family="table", x=tuple(float(v) for v in x),
                   values=tuple(float(v) for v in values))

    def validate(self) -> None:
        if self.family not in _FAMILIES:
            raise KernelError(f"unknown kernel family {self.family!r}")
        if self.family == "powerlaw":
            if self.gamma is None or not math.isfinite(self.gamma):
                raise KernelError("powerlaw kernel needs a finite gamma")
            if self.gamma <= 1.0:
                raise NonNormalizable(
                    f"powerlaw tail exponent gamma={self.gamma} has infinite mass (needs gamma > 1)")
        if self.family != "table":
            for name, default in _FAMILIES[self.family].items():
                v = getattr(self, name)
                v = default if v is None else v
                if v is None or not (v > 0) or not math.isfinite(v):
                    raise KernelError(f"{self.family} kernel needs {name} > 0")
            return
        if self.x is None or self.values is None or len(self.x) != len(self.values):
            raise KernelError("table kernel needs matching x and values arrays")
        if len(self.x) < 3:
            raise KernelError("table kernel needs at least 3 sample points")
        xs = np.asarray(self.x, dtype=float)
        vs = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(vs)):
            raise KernelError("table kernel samples must be finite")
        if np.any(np.diff(xs) <= 0):
            raise KernelError("table kernel x grid must be strictly increasing")
        if np.any(vs < 0):
            raise NegativeTableValue("table kernel values must be nonnegative")
        span = max(abs(xs[0]), abs(xs[-1]))
        # evenness: the sample grid must mirror about 0 and values must match
        if np.max(np.abs(xs + xs[::-1])) > 1e-12 * span:
            raise KernelError("table kernel grid must be symmetric about 0")
        vmax = float(np.max(vs))
        if vmax <= 0:
            raise KernelError("table kernel must have positive mass")
        if np.max(np.abs(vs - vs[::-1])) > 1e-9 * vmax:
            raise KernelError("table kernel values must be even in x")
        mid = np.interp(0.0, xs, vs)
        if mid <= 0:
            raise KernelError("table kernel must be positive at x = 0")


@dataclass(frozen=True)
class Kernel:
    """Normalized kernel with its tail table, cutoff radius and moment facts.

    ``make_kernel`` computes every field once; treat the kernel as immutable.
    ``first_moment`` is the integral of x*J(x) over [0, inf), INFINITE when
    the tail is too heavy.  ``exp_abscissa`` is the supremum of the rates
    lam > 0 with a finite exponential moment, 0 for none (a table whose tail
    fits a power law has none); both moments are INFINITE from it on.
    ``overflow_rate`` is the rate from which the moments overflow double
    precision: exp_abscissa when finite, else where their largest exponent
    reaches 700 (exp(700) is about 1e304), at lam * support for a compact
    kernel and (lam * sigma)^2 / 2 for a Gaussian.  ``gamma_hat`` and
    ``gamma_stderr`` are the tail table's fitted polynomial exponent and its
    standard error (``_tail_regression``), None when the decay is faster.
    """

    spec: KernelSpec
    normalizer: float
    core_scale: float
    cutoff_radius: float
    compact_support: float | None      # exact support radius, or None
    first_moment: float
    exp_abscissa: float
    overflow_rate: float
    gamma_hat: float | None
    gamma_stderr: float | None
    tail_z: np.ndarray = field(repr=False)
    tail_values: np.ndarray = field(repr=False)
    _table_x: np.ndarray | None = field(repr=False)
    _table_v: np.ndarray | None = field(repr=False)
    _table_tail_v: np.ndarray | None = field(repr=False)

    # ------------------------------------------------------------------
    def density(self, x) -> np.ndarray:
        """Evaluate J(x); accepts scalars or arrays."""
        xs = np.abs(np.asarray(x, dtype=float))
        fam = self.spec.family
        if fam == "uniform":
            return np.where(xs <= self.spec.radius, self.normalizer, 0.0)
        if fam == "laplace":
            return self.normalizer * np.exp(-xs / self.spec.scale)
        if fam == "gaussian":
            s = self.spec.sigma
            return self.normalizer * np.exp(-0.5 * (xs / s) ** 2)
        if fam == "powerlaw":
            w = self.core_scale
            return self.normalizer * (w + xs) ** (-self.spec.gamma)
        # table: linear interpolation on |x|, zero outside the sampled range
        return self.normalizer * np.interp(xs, self._table_x, self._table_v,
                                           left=0.0, right=0.0)

    def tail(self, z) -> np.ndarray:
        """Tail mass Jtail(z) = integral of J over [z, inf); z >= 0."""
        return _tail(self.spec, self.core_scale, self._table_x, self._table_tail_v, z)


def _tail(spec: KernelSpec, core: float, table_x, table_tail_v, z) -> np.ndarray:
    """Jtail(z) from the family's closed form, or a table's cumulative tail."""
    zs = np.asarray(z, dtype=float)
    if (zs < 0).any():
        raise KernelError("tail mass is defined for z >= 0")
    fam = spec.family
    if fam == "uniform":
        r = spec.radius
        return np.clip(r - zs, 0.0, None) / (2.0 * r)
    if fam == "laplace":
        # z / (-scale) has the bits of -z / scale, and one array serves
        # the quotient, the exponential and the product
        tail = np.divide(zs, -spec.scale)
        if tail.ndim == 0:      # numpy returns a scalar for a scalar z
            return 0.5 * np.exp(tail)
        np.exp(tail, out=tail)
        tail *= 0.5
        return tail
    if fam == "gaussian":
        from scipy import special     # deferred: costs 0.3 s at import time
        return 0.5 * special.erfc(zs / (spec.sigma * math.sqrt(2.0)))
    if fam == "powerlaw":
        return 0.5 * (core / (core + zs)) ** (spec.gamma - 1.0)
    return np.interp(zs, table_x, table_tail_v, left=table_tail_v[0], right=0.0)


# ----------------------------------------------------------------------
# construction

def make_kernel(spec: KernelSpec) -> Kernel:
    """Build a normalized kernel: tail table, cutoff radius and moment facts."""
    spec.validate()

    fam = spec.family
    table_x = table_v = tail_v = None
    compact = None
    if fam == "uniform":
        normalizer = 1.0 / (2.0 * spec.radius)
        core = compact = spec.radius
        first, abscissa, overflow = spec.radius / 4.0, INFINITE, 700.0 / compact
    elif fam == "laplace":
        normalizer = 1.0 / (2.0 * spec.scale)
        core = spec.scale
        first, abscissa = spec.scale / 2.0, 1.0 / spec.scale
        overflow = abscissa
    elif fam == "gaussian":
        normalizer = 1.0 / (spec.sigma * math.sqrt(2.0 * math.pi))
        core = spec.sigma
        first = spec.sigma / math.sqrt(2.0 * math.pi)
        abscissa, overflow = INFINITE, math.sqrt(2.0 * 700.0) / spec.sigma
    elif fam == "powerlaw":
        core = spec.core_width if spec.core_width is not None else 1.0
        normalizer = 0.5 * (spec.gamma - 1.0) * core ** (spec.gamma - 1.0)
        first = INFINITE if spec.gamma <= 2.0 else core / (2.0 * (spec.gamma - 2.0))
        abscissa = overflow = 0.0
    else:
        xs_full = np.asarray(spec.x, dtype=float)
        vs_full = np.asarray(spec.values, dtype=float)
        mass = float(np.trapezoid(vs_full, xs_full))
        if mass <= 0:
            raise NonNormalizable("table kernel has zero mass")
        normalizer = 1.0 / mass
        hx = xs_full[xs_full >= 0]
        hv = vs_full[xs_full >= 0]
        if hx[0] > 0:           # even-length grid: inject the x = 0 sample
            v0 = float(np.interp(0.0, xs_full, vs_full))
            hx = np.concatenate([[0.0], hx])
            hv = np.concatenate([[v0], hv])
        table_x, table_v, compact = hx, hv, float(hx[-1])
        # cumulative tail on the sample grid (exact for the interpolated density)
        seg = 0.5 * (hv[1:] + hv[:-1]) * np.diff(hx)
        tail_v = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]]) * normalizer
        # core: half width at half maximum of the sampled shape
        peak = vs_full >= 0.5 * np.max(vs_full)
        if np.count_nonzero(peak) < 3:
            raise KernelError("table kernel has fewer than 3 samples at or above half "
                              "its maximum; sample the peak finer")
        core = float(np.max(np.abs(xs_full[peak])))
        # moments of the samples, unless the tail fit below reads a power law
        first = float(np.trapezoid(hx * (hv * normalizer), hx))
        abscissa, overflow = INFINITE, 700.0 / compact

    def tail(z):
        return _tail(spec, core, table_x, tail_v, z)

    mesh = _tail_mesh(tail, core, compact)
    if math.isinf(mesh[-1]):
        raise KernelError(f"powerlaw tail with gamma = {spec.gamma!r} stays above "
                          f"EPS_TAIL = {EPS_TAIL:g} out to the largest double")
    tail_vals = tail(mesh)
    cutoff = float(mesh[-1])
    mesh.setflags(write=False)
    tail_vals.setflags(write=False)

    # construction sanity: the mass inside [-R, R] must equal 1 minus the tail budget
    inside = 1.0 - 2.0 * float(tail(cutoff))
    if not (0.0 < inside <= 1.0 + 1e-12):
        raise NonNormalizable("kernel mass inside the cutoff is not positive")

    gamma_hat, gamma_se = _tail_regression(mesh, tail_vals, fam, core, compact)
    if fam == "table" and gamma_hat is not None:
        # a sampled power law: no exponential moment, and no first moment
        # when the exponent is <= 2
        abscissa = overflow = 0.0
        if gamma_hat <= 2.0:
            first = INFINITE

    return Kernel(
        spec=spec, normalizer=normalizer, core_scale=core, cutoff_radius=cutoff,
        compact_support=compact, first_moment=first, exp_abscissa=abscissa,
        overflow_rate=overflow, gamma_hat=gamma_hat, gamma_stderr=gamma_se,
        tail_z=mesh, tail_values=tail_vals,
        _table_x=table_x, _table_v=table_v, _table_tail_v=tail_v,
    )


def _tail_mesh(tail, core: float, compact: float | None) -> np.ndarray:
    """Geometric mesh 0, z0, z0 r, ... (z0 = core / 16, r = TAIL_MESH_RATIO) to the cutoff.

    The cutoff is the first node whose tail is below EPS_TAIL, or the
    support edge of a compact kernel.  Each block of nodes is one
    multiply.accumulate continuing from the last node, so the nodes are
    the sequential products z *= r bit for bit.  Blocks stay short: the
    nodes past the cutoff of one 20 000-node block overflow z / scale in
    a narrow Laplace kernel's tail.
    """
    limit = compact if compact is not None else math.inf
    steps = np.full(_MESH_BLOCK + 1, TAIL_MESH_RATIO)
    steps[0] = core / 16.0
    parts, n = [np.zeros(1)], 1
    while n < _MESH_NODES:
        with np.errstate(over="ignore"):    # as in float arithmetic: inf, whose tail is 0
            run = np.multiply.accumulate(steps)
        z, steps[0] = np.minimum(run[:-1], limit), run[-1]
        stop = np.flatnonzero(z >= limit if compact is not None else tail(z) < EPS_TAIL)
        parts.append(z[:stop[0] + 1] if stop.size else z)
        n += parts[-1].size
        if stop.size and n <= _MESH_NODES:
            return np.concatenate(parts)
    raise KernelError("tail mesh budget exhausted above EPS_TAIL")


# ----------------------------------------------------------------------
# moments

def two_sided_exp_moment(kernel: Kernel, lam: float) -> float:
    """Integral of exp(lam*x)*J(x) over the whole line (even in lam); INFINITE when divergent."""
    lam = abs(float(lam))
    if not math.isfinite(lam):
        raise InvalidLambda("exponential-moment rate must be finite")
    if lam == 0.0:
        return 1.0
    if not lam < kernel.exp_abscissa:
        return INFINITE
    spec = kernel.spec
    fam = spec.family
    if fam == "uniform":
        r = spec.radius
        return math.sinh(lam * r) / (lam * r)
    if fam == "laplace":
        return 1.0 / (1.0 - (lam * spec.scale) ** 2)
    if fam == "gaussian":
        return math.exp(0.5 * (lam * spec.sigma) ** 2)
    # table: trapezoid rule on the samples of [0, inf)
    xs = kernel._table_x
    weight = np.exp(lam * xs) + np.exp(-lam * xs)
    return float(np.trapezoid(weight * (kernel._table_v * kernel.normalizer), xs))


# ----------------------------------------------------------------------
# classification

def _tail_regression(z: np.ndarray, t: np.ndarray, family: str, core: float,
                     compact: float | None) -> tuple[float | None, float | None]:
    """Log-log slope of a tail table (z, t) over its outer decade.

    Returns (gamma_hat, stderr), or (None, None) when the decay is
    super-polynomial (slope keeps steepening), the support is compact, or
    a table ends before its fit decade reaches TAIL_FIT_CORES core scales.
    """
    pos = (z > 0) & (t > 0)
    z, t = z[pos], t[pos]
    if z.size < 8:
        return None, None
    if family == "table":
        # sampled kernels truncate at the grid edge where the tail collapses;
        # read the decay law from a decade ending well inside the support
        z_hi = 0.1 * float(z[-1])
        if z_hi < TAIL_FIT_CORES * core:
            # inside a few core scales every shape's log-log slope is shallow
            # (a Gaussian on [-8, 8] would read gamma 1.29): a table that
            # short has no tail to read and counts as what it is, compact
            return None, None
    else:
        z_hi = float(z[-1])
        if compact is not None:
            # the tail of a compactly supported family hits zero at the edge;
            # there is no polynomial decay law to report
            return None, None
    decade = (z >= z_hi / 10.0) & (z <= z_hi)
    z, t = z[decade], t[decade]
    if z.size < 8:
        return None, None
    lz, lt = np.log(z), np.log(t)
    half = z.size // 2
    s_inner = np.polyfit(lz[:half], lt[:half], 1)[0]
    s_outer = np.polyfit(lz[half:], lt[half:], 1)[0]
    if abs(s_outer) > abs(s_inner) + max(0.5, 0.25 * abs(s_inner)):
        return None, None        # steepening slope: faster than any power
    coef, cov = np.polyfit(lz, lt, 1, cov=True)
    slope = float(coef[0])
    stderr = float(math.sqrt(max(cov[0, 0], 0.0)))
    return 1.0 - slope, stderr


# ----------------------------------------------------------------------
# JSON interface

def kernel_from_json(obj: dict) -> Kernel:
    """Build a kernel from a config mapping like {"family": "laplace", "scale": 1.0}."""
    if not isinstance(obj, dict) or "family" not in obj:
        raise KernelError("kernel config must be a mapping with a 'family' key")
    fam = obj["family"]
    if not isinstance(fam, str) or fam not in _FAMILIES:
        raise KernelError(f"unknown kernel family {fam!r}")
    params = {**_FAMILIES[fam], **obj}
    del params["family"]
    missing = [k for k in _FAMILIES[fam] if params[k] is None]
    if missing:
        raise KernelError(f"kernel family {fam!r} is missing parameter {missing[0]!r}")
    extra = sorted(set(params) - set(_FAMILIES[fam]))
    if extra:
        raise KernelError(f"unexpected kernel parameters for {fam!r}: {extra}")
    return make_kernel(getattr(KernelSpec, fam)(**params))
