"""Kernel construction, tail mass, moments, and decay classification."""

import math

import numpy as np
import pytest
from scipy import integrate

from nlspread.kernels import (
    EPS_TAIL,
    INFINITE,
    InvalidLambda,
    KernelError,
    KernelSpec,
    NegativeTableValue,
    NonNormalizable,
    kernel_from_json,
    make_kernel,
    two_sided_exp_moment,
)


def quad_mass(kern, lo, hi):
    """Independent high-resolution quadrature of the kernel density."""
    val, err = integrate.quad(lambda x: float(kern.density(x)), lo, hi,
                              limit=400, points=[0.0] if lo < 0 < hi else None)
    return val, err


class TestConstruction:
    def test_uniform_normalization_exact(self):
        kern = make_kernel(KernelSpec.uniform(1.0))
        assert kern.normalizer == 0.5
        assert kern.cutoff_radius == 1.0, "compact support must give the exact radius"

    def test_powerlaw_mass_matches_quadrature_oracle(self):
        # gamma=2, core width 1: density 0.5*(1+|x|)^-2
        kern = make_kernel(KernelSpec.powerlaw(2.0, 1.0))
        assert kern.normalizer == pytest.approx(0.5, abs=1e-15)
        R = kern.cutoff_radius
        # split at tens of scales so quad resolves the slow tail
        pieces = np.geomspace(1.0, R, 24)
        total = 0.0
        for a, b in zip(np.concatenate([[0.0], pieces[:-1]]), pieces):
            v, _ = integrate.quad(lambda x: float(kern.density(x)), a, b, limit=200)
            total += v
        total *= 2.0
        expected_inside = 1.0 - 2.0 * kern.tail(R)
        assert total == pytest.approx(expected_inside, abs=1e-8), (
            f"mass inside cutoff {total} vs tail-complement {expected_inside}")
        assert 2.0 * kern.tail(R) <= 2.0 * EPS_TAIL

    def test_gaussian_mass_quadrature(self):
        kern = make_kernel(KernelSpec.gaussian(0.7))
        v, _ = quad_mass(kern, -kern.cutoff_radius, kern.cutoff_radius)
        assert v == pytest.approx(1.0, abs=1e-8)

    def test_powerlaw_gamma_at_most_one_rejected(self):
        with pytest.raises(NonNormalizable):
            make_kernel(KernelSpec.powerlaw(1.0, 1.0))
        with pytest.raises(NonNormalizable):
            make_kernel(KernelSpec.powerlaw(0.5, 1.0))

    def test_bad_parameters_rejected(self):
        with pytest.raises(KernelError):
            make_kernel(KernelSpec.uniform(-1.0))
        with pytest.raises(KernelError):
            make_kernel(KernelSpec.laplace(0.0))

    def test_tail_table_mesh_is_geometric(self):
        kern = make_kernel(KernelSpec.laplace(1.0))
        z = kern.tail_z
        ratios = z[2:] / z[1:-1]
        assert np.all(ratios <= 1.05 + 1e-12)
        assert kern.tail_values[0] == pytest.approx(0.5, abs=1e-12)
        assert np.all(np.diff(kern.tail_values) <= 0), "tail must be nonincreasing"

    def test_smaller_eps_tail_extends_cutoff(self):
        kern = make_kernel(KernelSpec.laplace(1.0))
        assert kern.tail(kern.cutoff_radius) < EPS_TAIL


class TestTailMass:
    def test_uniform_tail_closed_form(self):
        kern = make_kernel(KernelSpec.uniform(1.0))
        assert kern.tail(0.0) == 0.5
        assert kern.tail(1.0) == 0.0
        assert kern.tail(0.25) == pytest.approx(0.375, abs=1e-15)
        assert kern.tail(5.0) == 0.0, "zero beyond compact support"

    def test_laplace_tail_closed_form(self):
        kern = make_kernel(KernelSpec.laplace(1.0))
        assert kern.tail(1.0) == pytest.approx(0.18393972058572117, abs=1e-15)

    @pytest.mark.parametrize("scale", [0.3, 1.0, 1.7, 5.0])
    def test_laplace_tail_is_the_closed_form_bitwise(self, scale):
        # blocks, 0-d arrays and Python scalars: the bits and the type of
        # 0.5 * exp(-z / scale)
        kern = make_kernel(KernelSpec.laplace(scale))
        z = np.random.default_rng(7).uniform(0.0, 50.0, (2, 5000))
        assert kern.tail(z).tobytes() == (0.5 * np.exp(-z / scale)).tobytes()
        for z in (0.0, 0.37, 12.5, np.float64(3.3), np.asarray(2.0)):
            got, ref = kern.tail(z), 0.5 * np.exp(-np.asarray(z, dtype=float) / scale)
            assert type(got) is type(ref) and got == ref

    def test_tail_matches_quadrature(self):
        for spec in (KernelSpec.laplace(0.8), KernelSpec.gaussian(1.3),
                     KernelSpec.powerlaw(2.5, 0.7)):
            kern = make_kernel(spec)
            for z in (0.3, 1.7, 4.0):
                ref, _ = integrate.quad(lambda x: float(kern.density(x)), z,
                                        kern.cutoff_radius, limit=400)
                ref += kern.tail(kern.cutoff_radius)
                assert kern.tail(z) == pytest.approx(ref, rel=1e-7), spec.family

    def test_negative_argument_rejected(self):
        kern = make_kernel(KernelSpec.uniform(1.0))
        with pytest.raises(KernelError):
            kern.tail(-0.1)


class TestMoments:
    def test_uniform_first_moment(self):
        kern = make_kernel(KernelSpec.uniform(1.0))
        assert kern.first_moment == pytest.approx(0.25, abs=1e-15)

    def test_laplace_first_moment(self):
        kern = make_kernel(KernelSpec.laplace(1.0))
        assert kern.first_moment == pytest.approx(0.5, abs=1e-15)

    def test_first_moment_against_quadrature(self):
        for spec in (KernelSpec.gaussian(0.9), KernelSpec.powerlaw(3.0, 1.0)):
            kern = make_kernel(spec)
            ref, _ = integrate.quad(lambda x: x * float(kern.density(x)), 0,
                                    np.inf, limit=600)
            assert kern.first_moment == pytest.approx(ref, rel=1e-6), spec.family

    def test_powerlaw_first_moment_divergence(self):
        assert make_kernel(KernelSpec.powerlaw(1.5, 1.0)).first_moment == INFINITE
        assert make_kernel(KernelSpec.powerlaw(2.0, 1.0)).first_moment == INFINITE
        assert math.isfinite(make_kernel(KernelSpec.powerlaw(2.01, 1.0)).first_moment)

    def test_laplace_exp_moment(self):
        kern = make_kernel(KernelSpec.laplace(1.0))
        assert two_sided_exp_moment(kern, 0.5) == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert two_sided_exp_moment(kern, -0.5) == two_sided_exp_moment(kern, 0.5)
        assert two_sided_exp_moment(kern, 1.0) == INFINITE
        assert two_sided_exp_moment(kern, 1.5) == INFINITE

    def test_exp_moment_against_quadrature(self):
        kern = make_kernel(KernelSpec.gaussian(0.8))
        # integrand peaks near lam*sigma^2 and is negligible past ~20 sigma
        ref, _ = integrate.quad(lambda x: math.exp(0.7 * x) * float(kern.density(x)),
                                -20.0, 20.0, limit=400, points=[0.0])
        assert two_sided_exp_moment(kern, 0.7) == pytest.approx(ref, rel=1e-8)
        kern = make_kernel(KernelSpec.uniform(2.0))
        ref, _ = integrate.quad(lambda x: math.exp(1.1 * x) * float(kern.density(x)),
                                -2.0, 2.0, limit=200, points=[0.0])
        assert two_sided_exp_moment(kern, 1.1) == pytest.approx(ref, rel=1e-10)

    def test_powerlaw_exp_moment_always_infinite(self):
        for gamma in (1.5, 2.0, 3.0, 6.0):
            kern = make_kernel(KernelSpec.powerlaw(gamma, 1.0))
            assert two_sided_exp_moment(kern, 0.01) == INFINITE

    def test_invalid_lambda(self):
        kern = make_kernel(KernelSpec.laplace(1.0))
        for lam in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidLambda):
                two_sided_exp_moment(kern, lam)
        assert two_sided_exp_moment(kern, 0.0) == 1.0

    def test_two_sided_moment_closed_forms(self):
        lap = make_kernel(KernelSpec.laplace(1.0))
        assert two_sided_exp_moment(lap, 0.5) == pytest.approx(1.0 / 0.75, abs=1e-14)
        uni = make_kernel(KernelSpec.uniform(1.0))
        assert two_sided_exp_moment(uni, 0.5) == pytest.approx(math.sinh(0.5) / 0.5, abs=1e-14)
        gau = make_kernel(KernelSpec.gaussian(1.0))
        assert two_sided_exp_moment(gau, 0.5) == pytest.approx(math.exp(0.125), abs=1e-14)


class TestClassify:
    @pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
    def test_powerlaw_exponent_recovered(self, gamma):
        kern = make_kernel(KernelSpec.powerlaw(gamma, 1.0))
        assert kern.exp_abscissa == 0.0
        assert (kern.first_moment < INFINITE) is (gamma > 2.0)
        assert kern.gamma_hat == pytest.approx(gamma, abs=0.1), (
            f"tail regression for gamma={gamma} gave {kern.gamma_hat}")
        assert kern.gamma_stderr is not None and kern.gamma_stderr < 0.05

    @pytest.mark.parametrize("spec", [KernelSpec.uniform(1.0),
                                      KernelSpec.laplace(1.0),
                                      KernelSpec.gaussian(1.0)])
    def test_light_tails_have_no_polynomial_exponent(self, spec):
        kern = make_kernel(spec)
        assert kern.first_moment < INFINITE and kern.exp_abscissa > 0.0
        assert kern.gamma_hat is None

    def test_exponential_moment_implies_first_moment(self):
        specs = [KernelSpec.uniform(0.5), KernelSpec.laplace(2.0),
                 KernelSpec.gaussian(0.3), KernelSpec.powerlaw(1.5, 1.0),
                 KernelSpec.powerlaw(2.5, 0.5), KernelSpec.powerlaw(4.0, 2.0)]
        for spec in specs:
            kern = make_kernel(spec)
            if kern.exp_abscissa > 0.0:
                assert kern.first_moment < INFINITE, spec


class TestTableKernels:
    def make_sampled_laplace(self, n=4001, span=25.0):
        x = np.linspace(-span, span, n)
        return make_kernel(KernelSpec.table(x, np.exp(-np.abs(x))))

    def test_sampled_laplace_matches_analytic(self):
        kern = self.make_sampled_laplace()
        ref = make_kernel(KernelSpec.laplace(1.0))
        assert kern.normalizer == pytest.approx(0.5, rel=1e-4)
        for z in (0.0, 0.5, 2.0, 6.0):
            assert float(kern.tail(z)) == pytest.approx(float(ref.tail(z)), abs=2e-4)
        assert kern.first_moment < INFINITE and kern.exp_abscissa > 0.0

    def test_sampled_heavy_tail_detected(self):
        x = np.linspace(-4000.0, 4000.0, 160001)
        vals = (1.0 + np.abs(x)) ** -1.6
        kern = make_kernel(KernelSpec.table(x, vals))
        assert kern.first_moment == INFINITE, "sampled tail exponent 1.6 must read as divergent"
        assert kern.exp_abscissa == 0.0

    @pytest.mark.parametrize("shape,span", [
        (lambda x: np.exp(-0.5 * x ** 2), 8.0),      # fit decade [0.08, 0.8], core 1.18
        (lambda x: np.exp(-np.abs(x)), 12.0),        # fit decade [0.12, 1.2], core 0.69
    ], ids=["gaussian", "laplace"])
    def test_short_thin_table_reads_no_power_law(self, shape, span):
        # a fit decade inside the core reads any shape's shallow slope there
        # as a power law; such a table has no tail to read
        x = np.linspace(-span, span, 4001)
        kern = make_kernel(KernelSpec.table(x, shape(x)))
        assert kern.gamma_hat is None
        assert kern.first_moment < INFINITE and kern.exp_abscissa > 0.0

    def test_peak_on_one_sample_rejected(self):
        # at dx = 10 a sigma-1 Gaussian is its centre sample alone: the
        # table would read as a triangle with core 1e-12 and gamma_hat 1.17
        x = np.linspace(-4000.0, 4000.0, 801)
        with pytest.raises(KernelError, match="half its maximum"):
            make_kernel(KernelSpec.table(x, np.exp(-0.5 * x ** 2)))

    def test_negative_values_rejected(self):
        x = np.linspace(-1, 1, 11)
        v = np.ones_like(x)
        v[3] = -0.1
        v[7] = -0.1
        with pytest.raises(NegativeTableValue):
            make_kernel(KernelSpec.table(x, v))

    def test_asymmetric_grid_rejected(self):
        x = np.linspace(-1, 2, 13)
        with pytest.raises(KernelError):
            make_kernel(KernelSpec.table(x, np.ones_like(x)))

    def test_uneven_values_rejected(self):
        x = np.linspace(-1, 1, 11)
        v = np.ones_like(x)
        v[2] = 2.0
        with pytest.raises(KernelError):
            make_kernel(KernelSpec.table(x, v))


class TestJsonInterface:
    def test_round_trip_families(self):
        for obj, scale in [({"family": "uniform", "radius": 1.5}, 1.5),
                           ({"family": "laplace", "scale": 0.5}, 0.5),
                           ({"family": "gaussian", "sigma": 2.0}, 2.0),
                           ({"family": "powerlaw", "gamma": 2.5, "core_width": 0.8}, 0.8)]:
            kern = kernel_from_json(obj)
            assert kern.spec.family == obj["family"]
            assert kern.core_scale == scale

    def test_default_core_width_is_one(self):
        kern = kernel_from_json({"family": "powerlaw", "gamma": 3.0})
        assert kern.core_scale == 1.0

    def test_unknown_and_missing_keys(self):
        with pytest.raises(KernelError):
            kernel_from_json({"family": "cauchy", "scale": 1.0})
        with pytest.raises(KernelError):
            kernel_from_json({"family": "laplace"})
        with pytest.raises(KernelError):
            kernel_from_json({"family": "laplace", "scale": 1.0, "radius": 2.0})


class TestDensityProperties:
    @pytest.mark.parametrize("spec", [KernelSpec.uniform(1.3),
                                      KernelSpec.laplace(0.6),
                                      KernelSpec.gaussian(1.1),
                                      KernelSpec.powerlaw(2.2, 0.9)])
    def test_even_nonnegative_positive_at_zero(self, spec):
        kern = make_kernel(spec)
        right = np.linspace(0.01, 3.0, 300)
        xs = np.concatenate([-right[::-1], [0.0], right])   # exactly mirrored floats
        dens = kern.density(xs)
        assert np.all(dens >= 0)
        assert np.array_equal(dens, dens[::-1]), "density must be even"
        assert kern.density(0.0) > 0
