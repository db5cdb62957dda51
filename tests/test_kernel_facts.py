"""Kernel facts: every field of ``make_kernel`` held to a frozen reference, computed once.

``FrozenKernel`` and the ``frozen_*`` functions are the kernel construction
and the moment functions as first written: a placeholder kernel patched
after its scalar tail-mesh loop, and ``first_moment``, ``exp_abscissa``,
``overflow_rate`` and ``_tail_regression`` derived from the kernel on
every call.  ``make_kernel`` must give every field bit for bit, and refuse
the kernels whose reference mesh runs to an infinite cutoff.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nlspread.kernels as kn
import nlspread.reactions as rx
from nlspread import semiwave as sw
from nlspread.kernels import (EPS_TAIL, INFINITE, TAIL_FIT_CORES, TAIL_MESH_RATIO, KernelError,
                              KernelSpec, NonNormalizable, make_kernel)

# ----------------------------------------------------------------------
# frozen reference

@dataclass(frozen=True)
class FrozenKernel:
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

def frozen_make_kernel(spec: KernelSpec) -> FrozenKernel:
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

    kern = FrozenKernel(
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

def _half_line_integral(kernel: FrozenKernel, weight) -> float:
    """Trapezoid integral of weight(x)*J(x) over a table kernel's samples on [0, inf)."""
    xs = kernel._table_x
    return float(np.trapezoid(weight(xs) * (kernel._table_v * kernel.normalizer), xs))


def frozen_first_moment(kernel: FrozenKernel) -> float:
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
    g, _ = frozen_tail_regression(kernel)
    if g is not None and g <= 2.0:
        return INFINITE
    return _half_line_integral(kernel, lambda x: x)


def frozen_exp_abscissa(kernel: FrozenKernel) -> float:
    """Supremum of the rates lam > 0 with a finite exponential moment; 0 for none.

    Both exponential moments are INFINITE from this rate on.  A sampled
    table whose tail fits a power law counts as polynomial: no rate.
    """
    fam = kernel.spec.family
    if fam == "laplace":
        return 1.0 / kernel.spec.scale
    if fam == "powerlaw":
        return 0.0
    if fam == "table" and frozen_tail_regression(kernel)[0] is not None:
        return 0.0
    return INFINITE


def frozen_overflow_rate(kernel: FrozenKernel) -> float:
    """The rate from which the exponential moments overflow double precision.

    exp_abscissa when that is finite.  Otherwise the largest exponent the
    moment evaluates reaches 700 (exp(700) is about 1e304 of the 1.8e308
    limit) at lam * support for a compact kernel (uniform, or a table that
    ends at its last sample) and at (lam * sigma)^2 / 2 for a Gaussian.
    """
    lam = frozen_exp_abscissa(kernel)
    if lam < INFINITE:
        return lam
    if kernel.spec.family == "gaussian":
        return math.sqrt(2.0 * 700.0) / kernel.spec.sigma
    return 700.0 / kernel.compact_support




def frozen_tail_regression(kernel: FrozenKernel) -> tuple[float | None, float | None]:
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



# ----------------------------------------------------------------------
# the new fields against the reference

def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def assert_same_kernel(spec):
    ref = frozen_make_kernel(spec)
    kern = make_kernel(spec)
    assert _bits(kern.tail_z) == _bits(ref.tail_z)
    assert _bits(kern.tail_values) == _bits(ref.tail_values)
    assert not kern.tail_z.flags.writeable and not kern.tail_values.flags.writeable
    for name in ("normalizer", "core_scale", "cutoff_radius", "compact_support"):
        assert getattr(kern, name) == getattr(ref, name), name
    assert kern.first_moment == frozen_first_moment(ref)
    assert kern.exp_abscissa == frozen_exp_abscissa(ref)
    assert kern.overflow_rate == frozen_overflow_rate(ref)
    assert (kern.gamma_hat, kern.gamma_stderr) == frozen_tail_regression(ref)
    z = np.linspace(0.0, 2.0 * min(ref.cutoff_radius, 1e6), 257)
    x = np.concatenate([-z[::-1], z])
    assert _bits(kern.density(x)) == _bits(ref.density(x))
    assert _bits(kern.tail(z)) == _bits(ref.tail(z))
    return kern


def mesh_node(core, k):
    """The k-th node after z0 of the tail mesh, by the scalar recursion."""
    z = core / 16.0
    for _ in range(k):
        z *= TAIL_MESH_RATIO
    return z


SCALES = st.floats(1e-3, 1e3)


class TestFrozenReference:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(SCALES)
    @example(1.0)
    def test_uniform(self, radius):
        assert_same_kernel(KernelSpec.uniform(radius))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(SCALES)
    @example(1.0)
    @example(0.0625)
    def test_laplace(self, scale):
        assert_same_kernel(KernelSpec.laplace(scale))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(SCALES)
    @example(0.7)
    @example(1.0)
    def test_gaussian(self, sigma):
        assert_same_kernel(KernelSpec.gaussian(sigma))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.floats(1.1, 8.0), st.one_of(st.none(), st.floats(1e-2, 1e2)))
    @example(1.5, 1.0)
    @example(2.0, 1.0)
    @example(2.5, None)
    @example(3.0, 1.0)
    @example(1.03, 1.0)          # a finite mesh, cutoff 4.45e256
    def test_powerlaw(self, gamma, core_width):
        # core_width None is a directly built spec that falls back to 1
        assert_same_kernel(KernelSpec(family="powerlaw", gamma=gamma, core_width=core_width))

    @pytest.mark.parametrize("gamma", [1.01, 1.02])
    def test_mesh_to_inf_is_refused(self, gamma):
        # the reference mesh runs past the largest double, to an infinite cutoff
        spec = KernelSpec.powerlaw(gamma, 1.0)
        assert math.isinf(frozen_make_kernel(spec).cutoff_radius)
        with pytest.raises(KernelError, match=rf"gamma = {gamma} .*EPS_TAIL = 1e-08"):
            make_kernel(spec)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["laplace", "gaussian", "powerlaw"]), st.floats(4.0, 60.0),
           st.integers(60, 3000))
    @example("laplace", 25.0, 2000)
    @example("gaussian", 8.0, 2000)       # short: counts as compact, no tail fit
    @example("powerlaw", 60.0, 3000)
    def test_table(self, shape, span, half):
        x = np.linspace(-span, span, 2 * half + 1)
        vals = {"laplace": np.exp(-np.abs(x)), "gaussian": np.exp(-0.5 * x ** 2),
                "powerlaw": (1.0 + np.abs(x)) ** -1.6}[shape]
        assert_same_kernel(KernelSpec.table(x, vals))

    def test_long_power_law_table(self):
        x = np.linspace(-4000.0, 4000.0, 160001)
        kern = assert_same_kernel(KernelSpec.table(x, (1.0 + np.abs(x)) ** -2.5))
        assert kern.gamma_hat is not None and kern.exp_abscissa == 0.0

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.integers(62, 400), st.sampled_from([0.0, 1e-9, -1e-9, 0.5]))
    def test_support_edge_on_and_off_the_mesh(self, k, offset):
        # a table of core 1 whose last sample is the k-th mesh node (offset
        # 0), just beside it, or half a mesh step off it; k >= 62 puts the
        # edge past the samples at 1.25
        edge = mesh_node(1.0, k) * (1.0 + offset * (TAIL_MESH_RATIO - 1.0))
        x = np.array([-edge, -1.25, -1.0, -0.5, 0.0, 0.5, 1.0, 1.25, edge])
        vals = np.array([0.1, 0.2, 1.0, 1.0, 1.0, 1.0, 1.0, 0.2, 0.1])
        kern = assert_same_kernel(KernelSpec.table(x, vals))
        assert kern.tail_z[-1] == kern.cutoff_radius == edge

    @pytest.mark.parametrize("spec", [KernelSpec.laplace(1.0), KernelSpec.gaussian(0.7),
                                      KernelSpec.powerlaw(1.5)])
    def test_mesh_budget_is_the_node_count(self, spec, monkeypatch):
        # the reference raises once its mesh, node 0 included, would pass
        # 20 000 nodes: a budget of exactly the mesh length builds it
        n = make_kernel(spec).tail_z.size
        monkeypatch.setattr(kn, "_MESH_NODES", n)
        assert make_kernel(spec).tail_z.size == n
        monkeypatch.setattr(kn, "_MESH_NODES", n - 1)
        with pytest.raises(KernelError, match="budget"):
            make_kernel(spec)


class TestFactsComputedOnce:
    """The tail fit runs once per make_kernel, and never in a speed readout."""

    @pytest.fixture
    def fits(self, monkeypatch):
        calls = []
        fit = kn._tail_regression

        def counted(*args):
            calls.append(args)
            return fit(*args)

        monkeypatch.setattr(kn, "_tail_regression", counted)
        return calls

    def test_one_fit_per_kernel(self, fits):
        x = np.linspace(-25.0, 25.0, 4001)
        specs = [KernelSpec.uniform(1.0), KernelSpec.laplace(1.0), KernelSpec.gaussian(1.0),
                 KernelSpec.powerlaw(1.5), KernelSpec.table(x, np.exp(-np.abs(x)))]
        for n, spec in enumerate(specs, start=1):
            kern = make_kernel(spec)
            kn.two_sided_exp_moment(kern, 0.5)
            assert len(fits) == n, spec.family

    def test_no_fit_in_table_speed_readouts(self, fits):
        x = np.linspace(-25.0, 25.0, 4001)
        table = make_kernel(KernelSpec.table(x, np.exp(-np.abs(x))))
        assert len(fits) == 1
        model = rx.wnv(1.0, 1.0, 0.5, 0.5, 1.0, 1.0)
        assert sw.linearized_front_speed(model, table) < INFINITE
        sw.find_c0(model, table, 1.0, L=20.0, dx=0.125)
        sw.estimate_cstar(model, table, lengths=(20.0,), dx=0.125)
        assert len(fits) == 1
