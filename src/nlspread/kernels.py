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

Classification is read off the moments, which is where the paper's case
split lives: ``first_moment`` finite gives a semi-wave speed c0,
``exp_abscissa`` > 0 (some exponential moment finite) gives a minimal
speed c*, and heavier tails make fronts accelerate.  ``classify`` derives
its two flags from those two functions; a sampled table counts as
polynomial when its tail table fits a power law (``_tail_regression``)
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
    """Normalized kernel with tail table and cutoff radius. Treat as immutable."""

    spec: KernelSpec
    normalizer: float
    core_scale: float
    cutoff_radius: float
    compact_support: float | None      # exact support radius, or None
    tail_z: np.ndarray = field(repr=False)
    tail_values: np.ndarray = field(repr=False)
    _table_x: np.ndarray | None = field(default=None, repr=False)
    _table_v: np.ndarray | None = field(default=None, repr=False)
    _table_tail_v: np.ndarray | None = field(default=None, repr=False)

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
        zs = np.asarray(z, dtype=float)
        if (zs < 0).any():
            raise KernelError("tail mass is defined for z >= 0")
        fam = self.spec.family
        if fam == "uniform":
            r = self.spec.radius
            return np.clip(r - zs, 0.0, None) / (2.0 * r)
        if fam == "laplace":
            return 0.5 * np.exp(-zs / self.spec.scale)
        if fam == "gaussian":
            from scipy import special     # deferred: costs 0.3 s at import time
            return 0.5 * special.erfc(zs / (self.spec.sigma * math.sqrt(2.0)))
        if fam == "powerlaw":
            w = self.core_scale
            return 0.5 * (w / (w + zs)) ** (self.spec.gamma - 1.0)
        return np.interp(zs, self._table_x, self._table_tail_v,
                         left=self._table_tail_v[0], right=0.0)


# ----------------------------------------------------------------------
# construction

def make_kernel(spec: KernelSpec) -> Kernel:
    """Build a normalized kernel with its tail table and cutoff radius."""
    spec.validate()

    fam = spec.family
    table_x = table_v = tail_v = None
    compact = None
    if fam == "uniform":
        normalizer = 1.0 / (2.0 * spec.radius)
        core = compact = spec.radius
    elif fam == "laplace":
        normalizer = 1.0 / (2.0 * spec.scale)
        core = spec.scale
    elif fam == "gaussian":
        normalizer = 1.0 / (spec.sigma * math.sqrt(2.0 * math.pi))
        core = spec.sigma
    elif fam == "powerlaw":
        core = spec.core_width if spec.core_width is not None else 1.0
        normalizer = 0.5 * (spec.gamma - 1.0) * core ** (spec.gamma - 1.0)
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
        compact = float(hx[-1])
        # cumulative tail on the sample grid (exact for the interpolated density)
        seg = 0.5 * (hv[1:] + hv[:-1]) * np.diff(hx)
        ctail = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]]) * normalizer
        table_x = hx
        table_v = hv
        tail_v = ctail
        # core: half width at half maximum of the sampled shape
        peak = vs_full >= 0.5 * np.max(vs_full)
        if np.count_nonzero(peak) < 3:
            raise KernelError("table kernel has fewer than 3 samples at or above half "
                              "its maximum; sample the peak finer")
        core = float(np.max(np.abs(xs_full[peak])))

    kern = Kernel(
        spec=spec, normalizer=normalizer,
        core_scale=core, cutoff_radius=0.0, compact_support=compact,
        tail_z=np.empty(0), tail_values=np.empty(0),
        _table_x=table_x, _table_v=table_v, _table_tail_v=tail_v,
    )

    # geometric tail mesh from a fraction of the core scale out to the cutoff
    z0 = core / 16.0
    mesh = [0.0, z0]
    z = z0
    limit = compact if compact is not None else math.inf
    while True:
        t = float(kern.tail(min(z, limit)))
        if (t < EPS_TAIL and compact is None) or z >= limit:
            break
        z *= TAIL_MESH_RATIO
        mesh.append(min(z, limit))
        if len(mesh) > 20000:
            raise KernelError("tail mesh budget exhausted above EPS_TAIL")
    mesh_arr = np.asarray(mesh)
    tail_vals = np.asarray(kern.tail(mesh_arr), dtype=float)

    if compact is not None:
        cutoff = compact
    else:
        below = np.nonzero(tail_vals < EPS_TAIL)[0]
        cutoff = float(mesh_arr[below[0]]) if below.size else float(mesh_arr[-1])

    mesh_arr.setflags(write=False)
    tail_vals.setflags(write=False)
    object.__setattr__(kern, "tail_z", mesh_arr)
    object.__setattr__(kern, "tail_values", tail_vals)
    object.__setattr__(kern, "cutoff_radius", cutoff)

    # construction sanity: the mass inside [-R, R] must equal 1 minus the tail budget
    inside = 1.0 - 2.0 * float(kern.tail(cutoff))
    if not (0.0 < inside <= 1.0 + 1e-12):
        raise NonNormalizable("kernel mass inside the cutoff is not positive")
    return kern


# ----------------------------------------------------------------------
# moments

def _half_line_integral(kernel: Kernel, weight) -> float:
    """Trapezoid integral of weight(x)*J(x) over a table kernel's samples on [0, inf)."""
    xs = kernel._table_x
    return float(np.trapezoid(weight(xs) * (kernel._table_v * kernel.normalizer), xs))


def first_moment(kernel: Kernel) -> float:
    """Integral of x*J(x) over [0, inf); INFINITE when the tail is too heavy."""
    spec = kernel.spec
    fam = spec.family
    if fam == "uniform":
        return spec.radius / 4.0
    if fam == "laplace":
        return spec.scale / 2.0
    if fam == "gaussian":
        return spec.sigma / math.sqrt(2.0 * math.pi)
    if fam == "powerlaw":
        if spec.gamma <= 2.0:
            return INFINITE
        w = kernel.core_scale
        return w / (2.0 * (spec.gamma - 2.0))
    # table: declared divergent when the sampled tail decays like a
    # polynomial with exponent <= 2, otherwise integrate the samples
    g, _ = _tail_regression(kernel)
    if g is not None and g <= 2.0:
        return INFINITE
    return _half_line_integral(kernel, lambda x: x)


def exp_abscissa(kernel: Kernel) -> float:
    """Supremum of the rates lam > 0 with a finite exponential moment; 0 for none.

    Both exponential moments are INFINITE from this rate on.  A sampled
    table whose tail fits a power law counts as polynomial: no rate.
    """
    fam = kernel.spec.family
    if fam == "laplace":
        return 1.0 / kernel.spec.scale
    if fam == "powerlaw":
        return 0.0
    if fam == "table" and _tail_regression(kernel)[0] is not None:
        return 0.0
    return INFINITE


def overflow_rate(kernel: Kernel) -> float:
    """The rate from which the exponential moments overflow double precision.

    exp_abscissa when that is finite.  Otherwise the largest exponent the
    moment evaluates reaches 700 (exp(700) is about 1e304 of the 1.8e308
    limit) at lam * support for a compact kernel (uniform, or a table that
    ends at its last sample) and at (lam * sigma)^2 / 2 for a Gaussian.
    """
    lam = exp_abscissa(kernel)
    if lam < INFINITE:
        return lam
    if kernel.spec.family == "gaussian":
        return math.sqrt(2.0 * 700.0) / kernel.spec.sigma
    return 700.0 / kernel.compact_support


def two_sided_exp_moment(kernel: Kernel, lam: float) -> float:
    """Integral of exp(lam*x)*J(x) over the whole line (even in lam); INFINITE when divergent."""
    lam = abs(float(lam))
    if not math.isfinite(lam):
        raise InvalidLambda("exponential-moment rate must be finite")
    if lam == 0.0:
        return 1.0
    if not lam < exp_abscissa(kernel):
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
    return _half_line_integral(kernel, lambda x: np.exp(lam * x) + np.exp(-lam * x))


# ----------------------------------------------------------------------
# classification

@dataclass(frozen=True)
class ClassReport:
    """Decay classification: moment finiteness plus measured tail exponent."""

    finite_first_moment: bool
    finite_exponential_moment: bool
    gamma_hat: float | None
    gamma_stderr: float | None


def _tail_regression(kernel: Kernel) -> tuple[float | None, float | None]:
    """Log-log slope of the tail table over its outer decade.

    Returns (gamma_hat, stderr), or (None, None) when the decay is
    super-polynomial (slope keeps steepening), the support is compact, or
    a table ends before its fit decade reaches TAIL_FIT_CORES core scales.
    """
    z = kernel.tail_z
    t = kernel.tail_values
    pos = (z > 0) & (t > 0)
    z, t = z[pos], t[pos]
    if z.size < 8:
        return None, None
    if kernel.spec.family == "table":
        # sampled kernels truncate at the grid edge where the tail collapses;
        # read the decay law from a decade ending well inside the support
        z_hi = 0.1 * float(z[-1])
        if z_hi < TAIL_FIT_CORES * kernel.core_scale:
            # inside a few core scales every shape's log-log slope is shallow
            # (a Gaussian on [-8, 8] would read gamma 1.29): a table that
            # short has no tail to read and counts as what it is, compact
            return None, None
    else:
        z_hi = float(z[-1])
        if kernel.compact_support is not None:
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


def classify(kernel: Kernel) -> ClassReport:
    """Moment finiteness, from first_moment and exp_abscissa, and the tail fit."""
    gamma_hat, gamma_se = _tail_regression(kernel)
    return ClassReport(finite_first_moment=first_moment(kernel) < INFINITE,
                       finite_exponential_moment=exp_abscissa(kernel) > 0.0,
                       gamma_hat=gamma_hat, gamma_stderr=gamma_se)


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
