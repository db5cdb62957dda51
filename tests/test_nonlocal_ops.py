"""Convolution and edge-flux quadrature against brute-force and closed-form oracles."""

import dataclasses
import math
import threading
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from nlspread import cauchy as cy
from nlspread import freeboundary as fb
from nlspread import nonlocal_ops
from nlspread import reactions as rx
from nlspread.config import build_kernels
from nlspread.kernels import _FAMILIES, KernelSpec, make_kernel
from nlspread.nonlocal_ops import (
    DispersalOperator,
    GridFunction,
    MeshTooCoarse,
    _convolve_direct,
    _convolve_fft,
    _equal_rows,
    _fft_length,
    _smooth_length,
    boundary_flux,
    convolve_values,
    kernel_weights,
    mirror_stable_sum,
)


def brute_convolve(values, weights):
    """Reference windowed sum, scalar loops only."""
    n = len(values)
    W = (len(weights) - 1) // 2
    out = np.zeros(n)
    for k in range(n):
        acc = 0.0
        for j in range(-W, W + 1):
            i = k - j
            if 0 <= i < n:
                acc += weights[W + j] * values[i]
        out[k] = acc
    return out


def forced(path):
    """Patch the direct/FFT switch so that every half-width takes ``path``."""
    return patch.object(nonlocal_ops, "FFT_WINDOW_THRESHOLD",
                        {"direct": 10 ** 9, "fft": 0}[path])


class TestGridFunction:
    def test_coordinates_and_origin(self):
        gf = GridFunction(dx=0.5, k_lo=-4, values=np.zeros((2, 9)))
        assert gf.n == 9 and gf.m == 2
        assert gf.k_hi == 4
        assert gf.x[0] == -2.0 and gf.x[-1] == 2.0
        assert gf.origin_index == 4
        assert gf.x[gf.origin_index] == 0.0

    def test_single_component_promoted(self):
        gf = GridFunction(dx=0.1, k_lo=0, values=np.ones(5))
        assert gf.values.shape == (1, 5)

    @pytest.mark.parametrize("values", [
        [[1, 2, 3], [4, 5, 6]], [0.5, 1.5], np.arange(6).reshape(2, 3),
        np.arange(4, dtype=np.float32), np.ones((2, 3), dtype=">f8"), 2.5])
    def test_other_values_are_coerced_to_a_float_block(self, values):
        # lists, one row, scalars and other dtypes become the 2-D float64
        # array np.atleast_2d(np.asarray(values, dtype=float)) gives
        gf = GridFunction(dx=0.1, k_lo=0, values=values)
        expect = np.atleast_2d(np.asarray(values, dtype=float))
        assert gf.values.dtype == np.float64 and gf.values.ndim == 2
        assert np.array_equal(gf.values, expect)
        assert (gf.m, gf.n) == expect.shape

    def test_a_float_block_is_kept_as_it_is(self):
        block = np.arange(12.0).reshape(3, 4)
        assert GridFunction(dx=0.1, k_lo=0, values=block).values is block
        view = block[:, ::-2]
        assert GridFunction(dx=0.1, k_lo=0, values=view).values is view

    @pytest.mark.parametrize("values", [np.ones((2, 3, 4)), [[[1.0, 2.0]]], np.zeros((1, 1, 1, 5))])
    def test_values_with_more_than_two_axes_rejected(self, values):
        with pytest.raises(ValueError, match="one row or an \\(m, n\\) array"):
            GridFunction(dx=0.1, k_lo=0, values=values)


class TestWeights:
    def test_unit_mass_for_constant_data(self):
        for spec, dx in [(KernelSpec.uniform(1.0), 0.01),
                         (KernelSpec.laplace(1.0), 0.05),
                         (KernelSpec.gaussian(1.0), 0.1)]:
            kern = make_kernel(spec)
            w = kernel_weights(kern, dx)
            n = 2 * len(w)
            out = convolve_values(kern, np.ones(n), dx)
            mid = n // 2
            assert out[mid] == pytest.approx(1.0, abs=1e-6), spec.family
            assert np.max(out) <= 1.0 + 1e-12, "mass bound: convolution cannot exceed max f"

    def test_mesh_too_coarse(self):
        kern = make_kernel(KernelSpec.laplace(1.0))
        with pytest.raises(MeshTooCoarse):
            kernel_weights(kern, 0.3)
        kernel_weights(kern, 0.25)      # exactly core/4 is allowed

    def test_heavy_tail_window_truncates_to_data(self):
        kern = make_kernel(KernelSpec.powerlaw(1.5, 1.0))
        # cutoff radius is astronomically large; weights must clip to the data
        w = kernel_weights(kern, 0.25, max_half_width=200)
        assert len(w) == 401
        assert np.sum(w) < 1.0, "truncated window must not be renormalized to 1"


class TestConvolve:
    @pytest.mark.parametrize("spec", [KernelSpec.uniform(1.0),
                                      KernelSpec.laplace(0.8),
                                      KernelSpec.gaussian(1.2)])
    def test_matches_brute_force(self, spec):
        rng = np.random.default_rng(7)
        kern = make_kernel(spec)
        dx = 0.2
        v = rng.uniform(0, 2, size=37)
        w = kernel_weights(kern, dx, max_half_width=36)
        ref = brute_convolve(v, w)
        for path in ("direct", "fft"):
            with forced(path):
                out = convolve_values(kern, v, dx)
            assert np.max(np.abs(out - ref)) < 1e-12, path

    def test_fft_equals_direct(self):
        rng = np.random.default_rng(11)
        kern = make_kernel(KernelSpec.laplace(1.0))
        dx = 0.05
        v = rng.uniform(0, 1, size=2000)
        with forced("direct"):
            d = convolve_values(kern, v, dx)
        with forced("fft"):
            f = convolve_values(kern, v, dx)
        assert np.max(np.abs(d - f)) < 1e-10

    def test_auto_path_switches_on_window(self):
        kern = make_kernel(KernelSpec.laplace(1.0))
        # cutoff ~ 17.7; dx=0.02 gives half-width ~ 886 > 512 so auto = fft
        v = np.linspace(0, 1, 4000)
        out_auto = convolve_values(kern, v, 0.02)
        with forced("fft"):
            out_fft = convolve_values(kern, v, 0.02)
        assert np.array_equal(out_auto, out_fft)

    def test_zero_extension(self):
        kern = make_kernel(KernelSpec.uniform(1.0))
        gf = GridFunction(dx=0.1, k_lo=-10, values=np.ones((1, 21)))
        out = convolve_values(kern, gf.values[0], gf.dx)
        # at the array edge only half the kernel window sees data
        assert out[0] == pytest.approx(0.5, abs=0.06)
        assert out[10] == pytest.approx(1.0, abs=1e-6)

    def test_mirror_symmetry_is_bitwise(self):
        rng = np.random.default_rng(3)
        half = rng.uniform(0, 1, size=300)
        v = np.concatenate([half[::-1], [1.0], half])
        kern = make_kernel(KernelSpec.laplace(1.0))
        with forced("direct"):
            out = convolve_values(kern, v, 0.05)
        assert np.array_equal(out, out[::-1]), "direct path must preserve mirror symmetry bitwise"

    def test_nonnegative_and_bounded(self):
        rng = np.random.default_rng(5)
        kern = make_kernel(KernelSpec.gaussian(0.9))
        v = rng.uniform(0, 3, size=400)
        out = convolve_values(kern, v, 0.1)
        assert np.all(out >= 0)
        assert np.max(out) <= np.max(v) * (1 + 1e-12)


class TestMirrorStableSum:
    def test_reversal_invariance(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 7, 100, 101):
            a = rng.uniform(-1, 1, size=n)
            assert mirror_stable_sum(a) == mirror_stable_sum(a[::-1])

    def test_value_close_to_plain_sum(self):
        rng = np.random.default_rng(17)
        a = rng.uniform(-1, 1, size=1000)
        assert mirror_stable_sum(a) == pytest.approx(float(np.sum(a)), abs=1e-12)


def reference_boundary_flux(kernel, f, rows, g, h):
    """The vectorized edge-flux formula: boundary_flux must give its bits."""
    rows = np.atleast_1d(rows)
    xs = f.x
    lo, hi = xs[0] - g, h - xs[-1]
    tails = np.asarray(kernel.tail(np.maximum(np.stack((xs - g, h - xs)), 0.0)), dtype=float)
    integrand = tails[:, None, :] * f.values[rows]          # (edge, row, node)
    n, half = xs.size, xs.size // 2                          # the center-paired sum
    sums = np.sum(integrand[..., :half] + integrand[..., :n - half - 1:-1], axis=-1)
    if n % 2:
        sums = sums + integrand[..., half]
    left, right = f.dx * (sums - 0.5 * (integrand[..., 0] + integrand[..., -1]))
    left = left + 0.5 * integrand[0, :, -1] * hi + 0.5 * integrand[0, :, 0] * lo
    right = right + 0.5 * integrand[1, :, 0] * lo + 0.5 * integrand[1, :, -1] * hi
    return left, right


FLUX_KERNELS = [("laplace", 1.0), ("gaussian", 0.7), ("uniform", 1.0), ("uniform", 1.1),
                ("powerlaw", 1.0), ("table", 1.0)]


@st.composite
def flux_cases(draw):
    """(kernel, dx, k_lo, m, n, rows, lo/dx, hi/dx): 1-600 nodes, edges in (0, dx]."""
    kernel = draw(st.sampled_from(FLUX_KERNELS))
    dx = draw(st.sampled_from([0.05, 0.1, 0.125, 0.25]) | st.floats(0.01, 0.3))
    m = draw(st.integers(1, 3))
    rows = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    edge = st.floats(1e-6, 1.0)
    return (kernel, dx, draw(st.integers(-700, 100)), m, draw(st.integers(1, 600)), rows,
            draw(edge), draw(edge))


def flux_setup(case):
    """The kernel, grid function, rows and edges of a flux_cases draw."""
    (family, scale), dx, k_lo, m, n, rows, lo, hi = case
    gf = GridFunction(dx=dx, k_lo=k_lo,
                      values=np.random.default_rng((n, m, k_lo + 700)).uniform(0.0, 2.0, (m, n)))
    return family_kernel(family, scale), gf, rows, gf.x[0] - lo * dx, gf.x[-1] + hi * dx


class TestBoundaryFlux:
    def test_uniform_kernel_constant_data_closed_form(self):
        # right-edge flux of f=1 on [-2, 2] under the uniform(1) kernel:
        # integral over [0,1] of (1-z)/2 dz = 0.25; node-aligned edges and a
        # piecewise-linear integrand make the trapezoid rule exact
        kern = make_kernel(KernelSpec.uniform(1.0))
        dx = 0.01
        gf = GridFunction(dx=dx, k_lo=-200, values=np.ones((1, 401)))
        (left,), (right,) = boundary_flux(kern, gf, [0], -2.0, 2.0)
        assert right == pytest.approx(0.25, abs=1e-12)
        assert left == pytest.approx(0.25, abs=1e-12)

    def test_flux_against_quadrature_oracle(self):
        kern = make_kernel(KernelSpec.laplace(1.0))
        dx = 0.02
        k_lo, n = -150, 301
        xs = np.arange(k_lo, k_lo + n) * dx
        h = 3.0 + 0.5 * dx           # edges strictly between nodes
        g = -h
        inside = (xs > g) & (xs < h)
        xs = xs[inside]
        vals = np.cos(xs / 4.0) ** 2
        gf = GridFunction(dx=dx, k_lo=int(round(xs[0] / dx)), values=vals[None, :])

        def integrand(x):
            # f linearly interpolated, 0 at the exact edges
            f = np.interp(x, xs, vals)
            if x < xs[0]:
                f = vals[0] * (x - g) / (xs[0] - g)
            elif x > xs[-1]:
                f = vals[-1] * (h - x) / (h - xs[-1])
            return float(kern.tail(h - x)) * f

        import warnings
        with warnings.catch_warnings():
            # the piecewise-linear integrand trips quad's roundoff heuristic
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            ref, _ = integrate.quad(integrand, g, h, limit=400)
        _, (got,) = boundary_flux(kern, gf, [0], g, h)
        assert got == pytest.approx(ref, rel=5e-4)

    def test_left_right_symmetry_bitwise(self):
        rng = np.random.default_rng(23)
        half = rng.uniform(0, 1, size=120)
        vals = np.concatenate([half[::-1], [0.7], half])
        kern = make_kernel(KernelSpec.laplace(0.7))
        gf = GridFunction(dx=0.05, k_lo=-120, values=vals[None, :])
        h = 120 * 0.05 + 0.02
        (left,), (right,) = boundary_flux(kern, gf, [0], -h, h)
        assert left == right, "mirrored data must give bitwise equal edge fluxes"

    def test_nonnegative(self):
        rng = np.random.default_rng(29)
        kern = make_kernel(KernelSpec.gaussian(1.0))
        vals = rng.uniform(0, 2, size=81)
        gf = GridFunction(dx=0.1, k_lo=-40, values=vals[None, :])
        (left,), (right,) = boundary_flux(kern, gf, [0], -4.05, 4.05)
        assert left >= 0 and right >= 0

    def test_misaligned_range_rejected(self):
        kern = make_kernel(KernelSpec.uniform(1.0))
        gf = GridFunction(dx=0.1, k_lo=-10, values=np.ones((1, 21)))
        with pytest.raises(ValueError, match="within one cell"):
            boundary_flux(kern, gf, [0], -1.0, 1.5)   # gap > one cell
        with pytest.raises(ValueError, match=r"inside \[g, h\]"):
            boundary_flux(kern, gf, [0], -0.5, 1.05)  # nodes outside [g, h]
        with pytest.raises(ValueError, match=r"inside \[g, h\]"):
            boundary_flux(kern, gf, [0], -1.05, 0.5)
        with pytest.raises(ValueError, match="within one cell"):
            boundary_flux(kern, gf, [0], -1.5, 1.0)
        with pytest.raises(ValueError, match="need g < h"):
            boundary_flux(kern, gf, [0], 1.0, 1.0)

    @pytest.mark.parametrize("rows", [
        [-1], [0, 3], [3], [], np.array([], dtype=int),
        slice(0, 4), slice(-1, 2), slice(3, None), slice(1, 1), slice(2, 1),
        slice(0, 3, 2), slice(2, 0, -1)])
    def test_rows_out_of_range_rejected(self, rows):
        kern = make_kernel(KernelSpec.laplace(1.0))
        gf = GridFunction(dx=0.1, k_lo=-10, values=np.ones((3, 21)))
        with pytest.raises(IndexError, match="out of range for m=3"):
            boundary_flux(kern, gf, rows, -1.05, 1.05)

    @settings(max_examples=60, deadline=None)
    @given(flux_cases())
    @example((("uniform", 1.0), 0.1, -37, 3, 75, [0, 2], 1.0, 1.0))     # support edge on nodes
    @example((("table", 1.0), 0.25, 0, 3, 1, [2, 0], 0.5, 1.0))         # one node
    def test_matches_the_reference_bitwise_and_mirrors(self, case):
        kern, gf, rows, g, h = flux_setup(case)
        # the drawn rows, and the consecutive run from their least to their
        # largest as an index array and as a slice (slice(None) for all rows)
        run = np.arange(min(rows), max(rows) + 1)
        block = slice(min(rows), max(rows) + 1)
        forms = [(rows, rows), (run, run), (run, block)]
        if block == slice(0, gf.m):
            forms.append((run, slice(None)))
        mirror = GridFunction(gf.dx, -gf.k_hi, gf.values[:, ::-1])
        run_bits = []
        for index, form in forms:
            left, right = boundary_flux(kern, gf, form, g, h)
            ref_left, ref_right = reference_boundary_flux(kern, gf, index, g, h)
            assert np.array_equal(left, ref_left) and np.array_equal(right, ref_right)
            mirror_left, mirror_right = boundary_flux(kern, mirror, form, -h, -g)
            assert np.array_equal(mirror_left, right) and np.array_equal(mirror_right, left)
            if index is run:
                run_bits.append(np.array([left, right]).tobytes())
        # a slice gives the bits of the equal index array, signed zeros included
        assert len(set(run_bits)) == 1


def _hat_and_conv(kern, profile_fn, half_width, dx):
    """Sample a compactly-flattened test profile and smooth it once."""
    half = int(round(half_width / dx))
    x = np.arange(-half, half + 1) * dx
    phi = profile_fn(x)
    conv = convolve_values(kern, phi[None, :], dx)[0]
    return x, phi, conv


def _smallest_wedge(kern, eps, dx):
    for l in range(5, 205, 5):
        _, phi, conv = _hat_and_conv(kern, lambda x: float(l) - np.abs(x), l, dx)
        if np.all(conv >= (1.0 - eps) * phi - 1e-12):
            return l
    return None


def _smallest_ramp(kern, eps, dx):
    # plateau of height 1 with linear ramps of width s, total half-width 2s
    for s in range(5, 205, 5):
        _, phi, conv = _hat_and_conv(
            kern, lambda x: np.minimum(1.0, (2.0 * s - np.abs(x)) / s), 2 * s, dx
        )
        if np.all(conv >= (1.0 - eps) * phi - 1e-12):
            return s
    return None


class TestProfileLowerBounds:
    """Smoothing a wide tent or plateau loses at most a 5% fraction pointwise.

    For the tent l - |x| the worst node is the apex, where the smoothed value
    drops by the mean absolute displacement of the kernel, so the ratio is
    (l - E|Z|)/l and the requirement ratio >= 0.95 gives l >= 20 E|Z|.  On the
    dx = 0.25 lattice the discrete E|Z| is 0.5 for uniform(1.0) (l >= 10) and
    0.98966 for laplace(1.0) (l >= 19.8, next grid point 20).  Near the tips
    the kink helps rather than hurts, so the apex governs.
    """

    EPS = 0.05
    DX = 0.25

    def test_tent_smallest_width_uniform(self):
        kern = make_kernel(KernelSpec.uniform(1.0))
        assert _smallest_wedge(kern, self.EPS, self.DX) == 10

    def test_tent_smallest_width_laplace(self):
        kern = make_kernel(KernelSpec.laplace(1.0))
        assert _smallest_wedge(kern, self.EPS, self.DX) == 20

    def test_ramp_smallest_width_uniform(self):
        kern = make_kernel(KernelSpec.uniform(1.0))
        assert _smallest_ramp(kern, self.EPS, self.DX) == 5

    def test_ramp_smallest_width_laplace(self):
        kern = make_kernel(KernelSpec.laplace(1.0))
        assert _smallest_ramp(kern, self.EPS, self.DX) == 10

    def test_wide_plateau_instance_both_kernels(self):
        # ramp width 20, plateau out to 40: comfortably inside the bound for
        # both kernels (worst ratios 0.9875 uniform, 0.9753 laplace)
        for spec in (KernelSpec.uniform(1.0), KernelSpec.laplace(1.0)):
            kern = make_kernel(spec)
            _, phi, conv = _hat_and_conv(
                kern, lambda x: np.minimum(1.0, (40.0 - np.abs(x)) / 20.0), 40.0, self.DX
            )
            pos = phi > 0
            assert np.all(conv[pos] >= (1.0 - self.EPS) * phi[pos] - 1e-12)
            assert np.min(conv[pos] / phi[pos]) > 0.97

    def test_tent_bound_fails_when_too_narrow(self):
        # one grid step below the frozen minimum the apex ratio dips under 0.95
        kern = make_kernel(KernelSpec.laplace(1.0))
        _, phi, conv = _hat_and_conv(kern, lambda x: 15.0 - np.abs(x), 15.0, self.DX)
        assert not np.all(conv >= (1.0 - self.EPS) * phi - 1e-12)


# ----------------------------------------------------------------------
# row blocks and the dispersal operator, as properties over random meshes

def assert_direct_exact(vals, w):
    """Block = per-row calls and mirror = reversed output, bitwise; brute force to roundoff.

    The brute-force bound is 1e-12 * sum|w| * max|v|, far above the
    roundoff of a (2W + 1)-term sum and far below any wrong weight.
    """
    got = _convolve_direct(vals, w)
    assert np.array_equal(got, np.stack([_convolve_direct(v, w) for v in vals]))
    assert np.array_equal(_convolve_direct(vals[:, ::-1], w), got[:, ::-1])
    bound = 1e-12 * np.sum(np.abs(w)) * max(np.max(np.abs(vals)), np.finfo(float).tiny)
    for v, out in zip(vals, got):
        assert np.max(np.abs(out - brute_convolve(v, w))) <= bound
    return got


def one_sided_flux(kernel, f, rows, side, g, h):
    """The flux past one edge as the right-edge formula; the left edge mirrors the data."""
    v = f.values[rows]
    xs = f.x
    if side == "left":
        v = v[:, ::-1]
        xs = -xs[::-1]
        g, h = -h, -g
    integrand = kernel.tail(np.maximum(h - xs, 0.0)) * v
    flux = f.dx * (mirror_stable_sum(integrand) - 0.5 * (integrand[:, 0] + integrand[:, -1]))
    flux += 0.5 * integrand[:, 0] * (xs[0] - g)
    flux += 0.5 * integrand[:, -1] * (h - xs[-1])
    return flux


SPECS = {"laplace": KernelSpec.laplace(1.0), "gaussian": KernelSpec.gaussian(1.0),
         "uniform": KernelSpec.uniform(1.1),      # radius off the lattice: zero end weights
         "powerlaw": KernelSpec.powerlaw(1.5, 1.0)}
PROPERTY = settings(max_examples=40, deadline=None)


@st.composite
def blocks(draw, min_n=2, max_n=60):
    """(kernel, dx, values) with 1-3 rows; dx resolves every kernel core."""
    kern = make_kernel(SPECS[draw(st.sampled_from(sorted(SPECS)))])
    dx = draw(st.floats(0.05, 0.25))
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return kern, dx, np.random.default_rng(seed).uniform(0.0, 2.0, size=(m, n))


class TestRowBlocks:
    @PROPERTY
    @given(blocks(), st.integers(1, 80))
    def test_direct_block_is_the_per_row_loop_bitwise(self, block, half_width):
        kern, dx, vals = block
        w = kernel_weights(kern, dx, max_half_width=half_width)
        got = assert_direct_exact(vals, w)
        assert np.array_equal(_convolve_direct(vals[0], w), got[0])

    @PROPERTY
    @given(blocks(), st.integers(1, 80))
    def test_direct_block_mirrors_bitwise(self, block, half_width):
        kern, dx, vals = block
        w = kernel_weights(kern, dx, max_half_width=half_width)
        assert np.array_equal(_convolve_direct(vals[:, ::-1], w),
                              _convolve_direct(vals, w)[:, ::-1])

    def test_zero_weights_and_signed_zeros(self):
        # uniform(1.1) at dx = 0.25: w_5 = 0, and the data carry -0.0 between
        # two spikes, so node 10 sees only zero weights and signed zeros
        w = kernel_weights(make_kernel(SPECS["uniform"]), 0.25)
        assert len(w) == 11 and w[0] == w[-1] == 0.0
        vals = np.full((2, 21), -0.0)
        vals[:, [5, 15]] = 1.0
        got = assert_direct_exact(vals, w)
        assert np.all(got[:, 10] == 0.0)

    @PROPERTY
    @given(blocks(), st.integers(1, 80), st.integers(0, 7), st.booleans())
    def test_direct_rows_as_strided_views_stay_exact(self, block, half_width, offset,
                                                     backwards):
        # rows cut from a larger buffer at element offsets 0-7, or read
        # backwards, must give the bits of contiguous copies, so that no dot
        # product's summation order can follow the caller's pointer alignment
        kern, dx, vals = block
        w = kernel_weights(kern, dx, max_half_width=half_width)
        m, n = vals.shape
        buffer = np.full((m, n + 9), np.nan)
        view = buffer[:, offset:offset + n]
        view[:] = vals[:, ::-1] if backwards else vals
        if backwards:
            view = view[:, ::-1]
        assert np.array_equal(_convolve_direct(view, w), _convolve_direct(vals, w))
        for v, row in zip(view, vals):
            assert np.array_equal(_convolve_direct(v, w), _convolve_direct(row, w))
        assert np.array_equal(_convolve_direct(view[:, ::-1], w),
                              _convolve_direct(vals, w)[:, ::-1])

    @PROPERTY
    @given(blocks(), st.integers(1, 80), st.integers(0, 7), st.integers(0, 2 ** 32 - 1))
    def test_direct_preserves_order_exactly(self, block, half_width, offset, seed):
        # comparison principle at L0: 0 <= v <= v' gives J*v <= J*v' with no
        # roundoff slack, also when v' sits at another alignment than v
        kern, dx, vals = block
        w = kernel_weights(kern, dx, max_half_width=half_width)
        rng = np.random.default_rng(seed)
        # nodes raised by one ulp make J*v and J*v' differ by roundoff only,
        # which an inexact order (FFT, or a sum order that depends on the
        # data's address) gets wrong on some draw
        raised = vals.copy()
        up = rng.uniform(size=vals.shape) < 0.3
        raised[up] = np.nextafter(vals[up], np.inf)
        far = rng.uniform(size=vals.shape) < 0.1
        raised[far] += rng.uniform(0.0, 1.0, np.count_nonzero(far))
        buffer = np.zeros((vals.shape[0], vals.shape[1] + 7))
        buffer[:, offset:offset + vals.shape[1]] = raised
        upper = buffer[:, offset:offset + vals.shape[1]]
        assert np.all(_convolve_direct(vals, w) <= _convolve_direct(upper, w))

    @PROPERTY
    @given(blocks(min_n=1))
    def test_mirror_stable_sum_of_a_block(self, block):
        _, _, vals = block
        sums = mirror_stable_sum(vals)
        assert np.array_equal(sums, [mirror_stable_sum(v) for v in vals])
        assert np.array_equal(sums, mirror_stable_sum(vals[:, ::-1]))

    @PROPERTY
    @given(blocks(min_n=3), st.floats(0.01, 1.0))
    def test_block_flux_is_per_row_and_mirror_exact(self, block, gap):
        kern, dx, vals = block
        K = (vals.shape[1] - 1) // 2
        vals = vals[:, :2 * K + 1]                  # nodes -K..K: a symmetric lattice
        h = (K + gap) * dx
        gf = GridFunction(dx=dx, k_lo=-K, values=vals)
        mirror = GridFunction(dx=dx, k_lo=-K, values=vals[:, ::-1])
        rows = np.arange(vals.shape[0])
        left, right = boundary_flux(kern, gf, rows, -h, h)
        per_row = [boundary_flux(kern, gf, [i], -h, h) for i in rows]
        assert np.array_equal(left, [lf[0] for lf, _ in per_row])
        assert np.array_equal(right, [rf[0] for _, rf in per_row])
        mirror_left, mirror_right = boundary_flux(kern, mirror, rows, -h, h)
        assert np.array_equal(left, mirror_right)
        assert np.array_equal(right, mirror_left)

    @PROPERTY
    @given(blocks(), st.integers(-50, 50), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_two_sided_flux_is_the_one_sided_formula_bitwise(self, block, k_lo, lo, hi):
        # edges anywhere in the cells next to the end nodes, lattice not centered
        kern, dx, vals = block
        gf = GridFunction(dx=dx, k_lo=k_lo, values=vals)
        g = gf.x[0] - lo * dx
        h = gf.x[-1] + hi * dx
        rows = np.arange(vals.shape[0])
        left, right = boundary_flux(kern, gf, rows, g, h)
        assert np.array_equal(left, one_sided_flux(kern, gf, rows, "left", g, h))
        assert np.array_equal(right, one_sided_flux(kern, gf, rows, "right", g, h))

    @PROPERTY
    @given(blocks(min_n=5, max_n=40), st.lists(st.integers(5, 40), min_size=2, max_size=4))
    def test_operator_fft_tracks_window_changes(self, block, widths):
        # every step width ≠ the last one must rebuild the stencil and the
        # spectrum; a stale one would miss brute_convolve by far more than 1e-12
        kern, dx, vals = block
        op = DispersalOperator((kern,) * vals.shape[0], dx)
        rng = np.random.default_rng(widths[0])
        with patch.object(nonlocal_ops, "FFT_WINDOW_THRESHOLD", 0):
            for n in [vals.shape[1], *widths, widths[-1]]:
                v = rng.uniform(0.0, 2.0, size=(vals.shape[0], n))
                w = kernel_weights(kern, dx, max_half_width=n - 1)
                got = op.convolve(v)
                for row, out in zip(v, got):
                    assert np.max(np.abs(out - brute_convolve(row, w))) < 1e-12


class TestDispersalOperator:
    def test_equal_kernels_from_separate_objects_share_one_group(self):
        scenario = {"kernels": [{"family": "laplace", "scale": 1.0},
                                {"family": "gaussian", "sigma": 1.0},
                                {"family": "laplace", "scale": 1.0}]}
        kernels = build_kernels(scenario, 3)
        assert kernels[0] is not kernels[2]
        op = DispersalOperator(kernels, 0.25)
        assert [list(rows) for _, rows in op.groups] == [[0, 2], [1]]
        # rows 0 and 2 are gathered and scattered, row 1 is a slice: each
        # row of the block result is that row's own direct convolution
        vals = np.random.default_rng(0).uniform(0.0, 1.0, (3, 120))
        got = op.convolve(vals)
        for i, kern in enumerate(kernels):
            w = kernel_weights(kern, 0.25, max_half_width=119)
            assert np.array_equal(got[i], _convolve_direct(vals[i], w))

    def test_one_stencil_build_per_half_width(self):
        kern = make_kernel(KernelSpec.laplace(1.0))
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("max_half_width"))
            return kernel_weights(*args, **kwargs)

        op = DispersalOperator((kern, kern), 0.25)
        rng = np.random.default_rng(1)
        with patch.object(nonlocal_ops, "kernel_weights", counted):
            for n in (200, 200, 260, 300, 40, 40, 41):
                v = rng.uniform(0, 1, size=(2, n))
                got = op.convolve(v)
                w = kernel_weights(kern, 0.25, max_half_width=n - 1)
                assert np.array_equal(got, assert_direct_exact(v, w))
        # full half-width 72 for n = 200, 260, 300; truncated to 39, then 40
        assert calls == [199, 39, 40]


def scipy_fft_convolve(vals, w):
    """The circular convolution at L = _fft_length(n, W), through scipy.fft."""
    from scipy import fft
    n = vals.shape[-1]
    W = (len(w) - 1) // 2
    L = _fft_length(n, W)
    circular = np.zeros(L)
    circular[:W + 1] = w[W:]
    circular[L - W:] = w[:W]
    product = fft.rfft(vals, L)
    product *= fft.rfft(circular)
    return fft.irfft(product, L)[..., :n]


class TestFFTWorkspace:
    """The FFT path writes into per-group buffers kept while L stays, one thread per row."""

    def test_length_is_scipys_next_fast_len(self):
        # L fixes the transform, and with it every bit of the whole-line runs
        from scipy import fft
        assert all(_smooth_length(t) == fft.next_fast_len(t, real=True)
                   for t in range(1, 2 ** 18 + 1))

    @PROPERTY
    @given(blocks(min_n=5), st.integers(1, 4))
    def test_group_is_the_per_row_calls_bitwise(self, block, cpus):
        kern, dx, vals = block
        vals = np.vstack([vals, vals[:, ::-1]])             # 2-6 rows
        op = DispersalOperator((kern,) * vals.shape[0], dx)
        w = kernel_weights(kern, dx, max_half_width=vals.shape[1] - 1)
        with forced("fft"), patch.object(nonlocal_ops, "_cpus", lambda: cpus):
            got = op.convolve(vals)
        for v, out in zip(vals, got):
            assert np.array_equal(out, _convolve_fft(v, w))

    @PROPERTY
    @given(blocks(min_n=20, max_n=200), st.data())
    def test_narrower_window_at_the_same_length_reads_fresh(self, block, data):
        # a wider window leaves data in the pad tail of the kept input
        # buffer; windows at one L, in any order, must read what a fresh
        # operator reads
        kern, dx, vals = block
        by_length = {}
        for k in range(2, vals.shape[1] + 1):
            L = _fft_length(k, (len(kernel_weights(kern, dx, max_half_width=k - 1)) - 1) // 2)
            by_length.setdefault(L, []).append(k)
        shared = [ks for ks in by_length.values() if len(ks) > 1]
        assume(shared)
        ks = data.draw(st.sampled_from(shared))
        order = [ks[-1], ks[0], *data.draw(st.permutations(ks))]
        op = DispersalOperator((kern,) * vals.shape[0], dx)
        with forced("fft"):
            op.convolve(vals[:, :order[0]])
            work = op._workspaces[0]
            for k in order[1:]:
                got = op.convolve(vals[:, :k])
                assert op._workspaces[0] is work
                fresh = DispersalOperator((kern,) * vals.shape[0], dx).convolve(vals[:, :k])
                assert np.array_equal(got, fresh)

    @PROPERTY
    @given(blocks(min_n=5))
    def test_matches_scipy_fft_bitwise(self, block):
        kern, dx, vals = block
        w = kernel_weights(kern, dx, max_half_width=vals.shape[1] - 1)
        with forced("fft"):
            got = DispersalOperator((kern,) * vals.shape[0], dx).convolve(vals)
        assert np.array_equal(got, scipy_fft_convolve(vals, w))

    @pytest.mark.parametrize("n", [1501, 24001, 96001])
    def test_matches_scipy_fft_bitwise_at_window_lengths(self, n):
        # the power-law stencil spans the window, as in the bundled whole-line run
        kern = make_kernel(KernelSpec.powerlaw(1.5, 1.0))
        vals = np.random.default_rng(n).uniform(0.0, 2.0, size=(2, n))
        w = kernel_weights(kern, 0.25, max_half_width=n - 1)
        got = DispersalOperator((kern, kern), 0.25).convolve(vals)
        assert np.array_equal(got, scipy_fft_convolve(vals, w))

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_fan_out_joins_its_threads_and_raises_their_failures(self, cpus, failing):
        # the rows of a call are split into one chunk per CPU, the first on
        # the calling thread; no thread may outlive the call, and a chunk
        # that fails on any thread must fail the call
        class ChunkFailed(Exception):
            pass

        kern = make_kernel(KernelSpec.laplace(1.0))
        vals = np.random.default_rng(cpus).uniform(0.0, 1.0, size=(4, 40))
        w = kernel_weights(kern, 0.25, max_half_width=39)
        real_rfft = np.fft.rfft
        caller = threading.get_ident()

        def rfft(a, *args, **kwargs):
            on_caller = threading.get_ident() == caller
            if np.ndim(a) == 2 and on_caller == (failing == "caller"):
                raise ChunkFailed(f"chunk of {a.shape[0]} rows")
            return real_rfft(a, *args, **kwargs)

        before = threading.active_count()
        with patch.object(nonlocal_ops, "_cpus", lambda: cpus):
            assert np.array_equal(_convolve_fft(vals, w), scipy_fft_convolve(vals, w))
            assert threading.active_count() == before
            with patch.object(np.fft, "rfft", rfft), pytest.raises(ChunkFailed):
                _convolve_fft(vals, w)
            assert threading.active_count() == before


def family_kernel(family: str, scale: float):
    """A kernel of the family at the given scale; the table samples a Laplace."""
    if family == "table":
        x = np.linspace(-30.0 * scale, 30.0 * scale, 3001)
        return make_kernel(KernelSpec.table(x, np.exp(-np.abs(x) / scale)))
    if family == "powerlaw":
        return make_kernel(KernelSpec.powerlaw(0.75 + 1.5 * scale, scale))
    return make_kernel(getattr(KernelSpec, family)(scale))


class TestUnitMass:
    """kernel_weights divides J(j dx) dx, |j| <= W, by the stencil sum plus,
    when the stencil stops short of the cutoff radius, twice the analytic
    tail beyond (W + 1/2) dx.  The stencil sum takes W additions (one more
    with the tail), each division rounds once, and the exact sum of the
    returned weights (math.fsum) rounds once: at most (W + 3) roundings
    of u = eps/2, within (2W + 1) eps.  The truncated check also rounds
    1 - sum, and its scale factor w_0 / (J(0) dx) once more: two more
    eps."""

    @PROPERTY
    @given(st.sampled_from(sorted(_FAMILIES)), st.floats(0.5, 2.0),
           st.floats(0.05, 1.0), st.integers(1, 40) | st.integers(1, 3000))
    @example("uniform", 1.0, 0.1875, 21)     # W < full_w, (W + 1/2) dx past the radius
    def test_weights_carry_unit_mass_or_the_analytic_tail(self, family, scale, frac,
                                                          max_half_width):
        kern = family_kernel(family, scale)
        dx = frac * kern.core_scale / 4.0
        w = kernel_weights(kern, dx, max_half_width=max_half_width)
        W = (len(w) - 1) // 2
        eps = np.finfo(float).eps
        full_w = int(np.ceil(kern.cutoff_radius / dx - 1e-12))
        if W >= full_w or kern.tail((W + 0.5) * dx) == 0:
            assert abs(math.fsum(w) - 1.0) <= (2 * W + 1) * eps
        else:
            per_raw = w[W] / (float(kern.density(0.0)) * dx)     # 1 / normalizer
            tail = 2.0 * float(kern.tail((W + 0.5) * dx)) * per_raw
            assert tail > 0.0
            assert abs((1.0 - math.fsum(w)) - tail) <= (2 * W + 3) * eps


# ----------------------------------------------------------------------
# mirror states take one correlate per row and one edge: the results must
# be the bits of the two-pass forms, frozen here, on mirror states and on
# near misses, which take the two-pass path

def two_correlate_convolve(values, weights):
    """The direct path with C(v) and C(R(v)) computed for every row."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    W = (len(weights) - 1) // 2
    padded = np.zeros(n + 2 * W)
    out = np.empty(values.shape)
    slot = padded[W:W + n]
    for row, dst in zip(values.reshape(-1, n), out.reshape(-1, n)):
        slot[:] = row
        first = np.correlate(padded, weights, "valid")
        slot[:] = row[::-1]
        np.add(first, np.correlate(padded, weights, "valid")[::-1], out=dst)
    out *= 0.5
    return out


def two_edge_flux(kernel, f, rows, g, h):
    """boundary_flux with both edges evaluated for every state."""
    dx, n = f.dx, f.n
    x_first, x_last = f.k_lo * dx, (f.k_lo + n - 1) * dx
    lo, hi = x_first - g, h - x_last
    xs = np.arange(f.k_lo, f.k_lo + n, dtype=float) * dx
    reach = np.empty((2, n))
    np.subtract(xs, g, out=reach[0])
    np.subtract(h, xs, out=reach[1])
    np.maximum(reach, 0.0, out=reach)
    integrand = kernel.tail(reach)[:, None, :] * f.values[rows]
    (s_left, s_right), (a_left, a_right), (b_left, b_right) = (
        mirror_stable_sum(integrand).tolist(), integrand[..., 0].tolist(),
        integrand[..., -1].tolist())
    left = [dx * (s - 0.5 * (a + b)) + 0.5 * b * hi + 0.5 * a * lo
            for s, a, b in zip(s_left, a_left, b_left)]
    right = [dx * (s - 0.5 * (a + b)) + 0.5 * a * lo + 0.5 * b * hi
             for s, a, b in zip(s_right, a_right, b_right)]
    return left, right


def bits(a) -> bytes:
    """The bytes of a float array with every NaN made one NaN.

    Signed zeros count; a NaN's sign does not, because it is not
    reproducible even for one input: the same two-edge flux of a row with
    NaN and -NaN read either sign over repeated calls.
    """
    a = np.array(a, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


class TailSpy:
    """A kernel stand-in that records the shape of every tail argument."""

    def __init__(self, kernel):
        self.kernel, self.shapes = kernel, []

    def tail(self, z):
        self.shapes.append(np.shape(z))
        return self.kernel.tail(z)


VALUE_MISSES = ("ulp", "signed_zero", "nan")


@st.composite
def mirror_blocks(draw, odd=None):
    """(kernel, dx, values, miss, row): 1-3 rows equal to their reversal bit for bit.

    ``miss`` names the near miss applied to row ``row`` (None for none):
    one node one ulp up, +0.0 and -0.0 at mirrored nodes, or NaN and -NaN
    there.  The values sit at an offset of 0-7 in a larger buffer, read
    forwards or backwards.
    """
    kern = make_kernel(SPECS[draw(st.sampled_from(sorted(SPECS)))])
    dx = draw(st.floats(0.05, 0.25))
    m = draw(st.integers(1, 3))
    K = draw(st.integers(1, 60))
    odd = draw(st.booleans()) if odd is None else odd
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    half = rng.uniform(0.0, 2.0, (m, K))
    vals = np.hstack([half[:, ::-1], rng.uniform(0.0, 2.0, (m, int(odd))), half])
    miss = draw(st.sampled_from((None,) + VALUE_MISSES))
    row = draw(st.integers(0, m - 1))
    i = draw(st.integers(0, K - 1))
    mirror = vals.shape[1] - 1 - i
    if miss == "ulp":
        vals[row, i] = np.nextafter(vals[row, i], np.inf)
    elif miss == "signed_zero":
        vals[row, i], vals[row, mirror] = 0.0, -0.0
    elif miss == "nan":
        vals[row, i], vals[row, mirror] = np.nan, -np.nan
    offset, backwards = draw(st.integers(0, 7)), draw(st.booleans())
    buffer = np.full((m, vals.shape[1] + 8), np.inf)
    view = buffer[:, offset:offset + vals.shape[1]]
    view[:] = vals[:, ::-1] if backwards else vals
    return kern, dx, view[:, ::-1] if backwards else view, miss, row


class TestMirrorStates:
    @PROPERTY
    @given(mirror_blocks(), st.integers(1, 80))
    def test_direct_path_is_the_two_correlate_form_bitwise(self, block, half_width):
        kern, dx, vals, miss, row = block
        w = kernel_weights(kern, dx, max_half_width=half_width)
        ref = two_correlate_convolve(vals, w)
        with patch.object(np, "correlate", wraps=np.correlate) as correlate:
            got = _convolve_direct(vals, w)
        assert bits(got) == bits(ref)
        # one correlate per mirror row, two for the row with a near miss
        assert correlate.call_count == vals.shape[0] + (miss is not None)
        for v, r in zip(vals, ref):
            assert bits(_convolve_direct(v, w)) == bits(r)

    @PROPERTY
    @given(mirror_blocks(odd=True), st.floats(0.01, 1.0),
           st.sampled_from([None, "g_ulp", "off_center"]), st.data())
    def test_flux_is_the_two_edge_form_bitwise(self, block, gap, edge_miss, data):
        kern, dx, vals, miss, row = block
        K = vals.shape[1] // 2
        k_lo, g, h = -K, -(K + gap) * dx, (K + gap) * dx
        if edge_miss == "g_ulp":
            g = np.nextafter(g, -np.inf)
        elif edge_miss == "off_center":
            # nodes -K..K-1 with edges on the end node and one cell out:
            # g = -h and values equal to their reversal, but k_lo + k_hi = -1
            vals = np.delete(vals, K, axis=1)
            g, h = -K * dx, K * dx
        gf = GridFunction(dx=dx, k_lo=k_lo, values=vals)
        m = gf.m
        rows = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m,
                                  unique=True))
        for form in (rows, slice(0, m)):
            spy = TailSpy(kern)
            left, right = boundary_flux(spy, gf, form, g, h)
            ref_left, ref_right = two_edge_flux(kern, gf, form, g, h)
            assert bits(left) == bits(ref_left) and bits(right) == bits(ref_right)
            # one edge exactly when the state and the rows read are a mirror
            one_edge = edge_miss is None and (
                miss is None or (form is rows and row not in rows))
            assert spy.shapes == [(1 if one_edge else 2, gf.n)]


# ----------------------------------------------------------------------
# component-equal rows: a block whose rows hold one set of bytes convolves,
# transforms and fluxes its first row once; the results must be the bits
# of the per-row forms, frozen above, on equal blocks and on near misses,
# which take the per-row path

ROW_MISSES = ("ulp", "signed_zero", "nan", "third_row")


@st.composite
def equal_row_blocks(draw, mirror=False):
    """(kernel, dx, values, miss): 2-3 copies of one row, near miss ``miss`` applied.

    The misses: one node of one row one ulp up, +0.0 and -0.0 at one node,
    NaN and -NaN at one node (any node, the compared center included), or
    two equal rows and a third drawn apart.  With ``mirror`` the row
    equals its reversal and has an odd length.  The block sits at an
    offset of 0-7 in a larger buffer.
    """
    kern = make_kernel(SPECS[draw(st.sampled_from(sorted(SPECS)))])
    dx = draw(st.floats(0.05, 0.25))
    miss = draw(st.sampled_from((None,) + ROW_MISSES))
    m = 3 if miss == "third_row" else draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if mirror:
        half = rng.uniform(0.0, 2.0, draw(st.integers(2, 40)))
        row = np.concatenate([half[::-1], rng.uniform(0.0, 2.0, 1), half])
    else:
        row = rng.uniform(0.0, 2.0, draw(st.integers(5, 60)))
    vals = np.tile(row, (m, 1))
    r, i = draw(st.integers(0, m - 1)), draw(st.integers(0, row.size - 1))
    if miss == "ulp":
        vals[r, i] = np.nextafter(vals[r, i], np.inf)
    elif miss == "signed_zero":
        vals[:, i] = 0.0
        vals[r, i] = -0.0
    elif miss == "nan":
        vals[:, i] = np.nan
        vals[r, i] = -np.nan
    elif miss == "third_row":
        vals[2] = rng.uniform(0.0, 2.0, row.size)
    offset = draw(st.integers(0, 7))
    buffer = np.full((m, row.size + 8), np.inf)
    view = buffer[:, offset:offset + row.size]
    view[:] = vals
    return kern, dx, view, miss


class TestEqualRows:
    def test_the_bytes_decide(self):
        row = np.linspace(0.0, 1.0, 7)
        assert _equal_rows(np.vstack([row, row])) and _equal_rows(np.vstack([row] * 3))
        assert not _equal_rows(row[None, :])
        for node in (0, 3):
            zeros = np.vstack([row, row, row])
            zeros[:, node], zeros[1, node] = 0.0, -0.0
            assert not _equal_rows(zeros)
            nans = np.vstack([row, row])
            nans[:, node], nans[1, node] = np.nan, -np.nan
            assert not _equal_rows(nans)
        # one NaN's bits in every row: equal, unless it sits on the node
        # compared as floats first
        nans = np.vstack([row, row])
        nans[:, 1] = np.nan
        assert _equal_rows(nans)
        nans[:, 3] = np.nan
        assert not _equal_rows(nans)
        third = np.vstack([row, row, row[::-1]])
        assert not _equal_rows(third)


OTHER = make_kernel(KernelSpec.laplace(2.0))        # in no SPECS group


def interleave(kern, vals, rng):
    """The kernels and values with a row of another kernel at index 1.

    The equal rows then form an index-array group around it.
    """
    m, n = vals.shape
    kernels = [kern, OTHER] + [kern] * (m - 1)
    return kernels, np.insert(vals, 1, rng.uniform(0.0, 2.0, n), axis=0)


class TestComponentEqualRows:
    @PROPERTY
    @given(equal_row_blocks(), st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_direct_operator_is_the_per_row_form_bitwise(self, block, split, seed):
        kern, dx, vals, miss = block
        m, n = vals.shape
        assert (miss is None) == _equal_rows(vals)
        kernels = [kern] * m
        if split:
            kernels, vals = interleave(kern, vals, np.random.default_rng(seed))
        op = DispersalOperator(kernels, dx)
        with forced("direct"), patch.object(np, "correlate", wraps=np.correlate) as correlate:
            got = op.convolve(vals)
        for k, v, out in zip(kernels, vals, got):
            w = kernel_weights(k, dx, max_half_width=n - 1)
            assert bits(out) == bits(two_correlate_convolve(v, w))
        # two correlates per row convolved: the first alone when the rows are equal
        assert correlate.call_count == 2 * ((1 if miss is None else m) + split)

    @PROPERTY
    @given(equal_row_blocks(), st.booleans(), st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
    def test_fft_operator_is_the_per_row_form_bitwise(self, block, split, seed, cpus):
        kern, dx, vals, miss = block
        m, n = vals.shape
        kernels = [kern] * m
        tiled = np.tile(vals[0], (m, 1))
        if split:
            rng = np.random.default_rng(seed)
            kernels, vals = interleave(kern, vals, rng)
            tiled = np.insert(tiled, 1, vals[1], axis=0)
        op = DispersalOperator(kernels, dx)
        rows = []
        real_rfft = np.fft.rfft

        def rfft(a, *args, **kwargs):
            if np.ndim(a) == 2:         # a chunk of rows, not a stencil
                rows.append(a.shape[0])
            return real_rfft(a, *args, **kwargs)

        with forced("fft"), patch.object(nonlocal_ops, "_cpus", lambda: cpus), \
                patch.object(np.fft, "rfft", rfft):
            # narrowing windows, so that kept pads are reused, alternating
            # the drawn block with its first row tiled: the rows one call
            # leaves untouched must read fresh pads in the next
            for j, k in enumerate(range(n, max(n - 6, 1), -1)):
                block = (vals if j % 2 == 0 else tiled)[:, :k]
                rows.clear()
                got = op.convolve(block)
                for kern_i, v, out in zip(kernels, block, got):
                    w = kernel_weights(kern_i, dx, max_half_width=k - 1)
                    assert bits(out) == bits(scipy_fft_convolve(v[None, :], w)[0])
                # one row transformed for the equal group, else every row
                group = block[[i for i, k in enumerate(kernels) if k is kern]]
                assert sum(rows) == (1 if _equal_rows(group) else m) + split

    @PROPERTY
    @given(st.one_of(equal_row_blocks(), equal_row_blocks(mirror=True)),
           st.floats(0.01, 1.0), st.data())
    def test_flux_is_the_per_row_form_bitwise(self, block, gap, data):
        kern, dx, vals, miss = block
        m, n = vals.shape
        centered = n % 2 == 1 and data.draw(st.booleans())
        k_lo = -(n // 2) if centered else data.draw(st.integers(-3 * n, 3 * n))
        g, h = (k_lo - gap) * dx, (k_lo + n - 1 + gap) * dx
        if centered:
            g = -h
        gf = GridFunction(dx=dx, k_lo=k_lo, values=vals)
        for form in (slice(0, m), list(range(m)), list(range(m))[::-1]):
            spy = TailSpy(kern)
            with patch.object(nonlocal_ops, "mirror_stable_sum",
                              wraps=mirror_stable_sum) as paired:
                left, right = boundary_flux(spy, gf, form, g, h)
            read = np.arange(m)[form]
            for j, r in enumerate(read):
                ref_left, ref_right = two_edge_flux(kern, gf, [r], g, h)
                assert bits(left[j]) == bits(ref_left) and bits(right[j]) == bits(ref_right)
            assert left is not right and len(left) == len(right) == m
            # the first row alone when the rows are equal, and one edge when
            # the rows it reads are a mirror state too
            used = vals[read[:1]] if miss is None else vals[read]
            mirror = centered and all(r.tobytes() == r[::-1].tobytes() for r in used)
            edges = 1 if mirror else 2
            assert spy.shapes == [(edges, n)]
            assert [c.args[0].shape for c in paired.call_args_list] == [
                (edges, len(used), n)]


def run_bytes(obj) -> bytes:
    """Every number a run returns, as bytes: arrays, floats, and the containers that hold them."""
    if isinstance(obj, np.ndarray):
        return obj.tobytes()
    if dataclasses.is_dataclass(obj):
        return b"".join(run_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return b"".join(run_bytes(k) + run_bytes(obj[k]) for k in sorted(obj))
    if isinstance(obj, (list, tuple)):
        return b"".join(run_bytes(v) for v in obj)
    if isinstance(obj, float):
        return np.float64(obj).tobytes()
    return repr(obj).encode()


class TestComponentEqualRowRuns:
    """Whole runs with the equal-row shortcut and with every group taken row by row."""

    @staticmethod
    def _twice(monkeypatch, run):
        taken = []

        def recording(block):
            taken.append(_equal_rows(block))
            return taken[-1]

        with monkeypatch.context() as patched:
            patched.setattr(nonlocal_ops, "_equal_rows", recording)
            shortcut = run_bytes(run())
        with monkeypatch.context() as patched:
            patched.setattr(nonlocal_ops, "_equal_rows", lambda block: False)
            per_row = run_bytes(run())
        return shortcut, per_row, taken

    @pytest.mark.parametrize("b2", [0.5, 0.6])
    def test_moving_range_run(self, monkeypatch, b2):
        model = rx.wnv(1.0, 1.0, 0.5, b2, 1.0, 1.0)
        laplace = make_kernel(KernelSpec.laplace(1.0))
        shortcut, per_row, taken = self._twice(monkeypatch, lambda: fb.run(fb.FBConfig(
            model=model, kernels=laplace, mu=1.0, h0=10.0, dx=0.25, t_end=3.0,
            snapshot_times=(1.5, 3.0))))
        assert shortcut == per_row
        # a convolution and a flux per step, every one on equal rows when b2 = b1
        assert taken and all(taken) == any(taken) == (b2 == 0.5)

    @pytest.mark.parametrize("b2", [0.5, 0.6])
    def test_whole_line_run_on_the_fft_path(self, monkeypatch, b2):
        model = rx.wnv(1.0, 1.0, 0.5, b2, 1.0, 1.0)
        heavy = make_kernel(KernelSpec.powerlaw(1.5, 1.0))
        shortcut, per_row, taken = self._twice(monkeypatch, lambda: cy.run_cauchy(
            cy.CauchyConfig(model=model, kernels=heavy, h0=70.0, dx=0.25, t_end=0.3,
                            dt=0.1, x_max=70.0, snapshot_times=(0.3,))))
        assert shortcut == per_row
        assert taken and all(taken) == any(taken) == (b2 == 0.5)
