"""Tests for the cooperative reaction models.

Equilibria are cross-checked against scipy root finders and scalar
reductions derived by hand, never against the module's own Newton.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize

from nlspread import reactions as rx


def wnv_default():
    return rx.wnv(1.0, 1.0, 0.5, 0.5, 1.0, 1.0)


def cholera_default():
    return rx.cholera(1.0, 1.0, 1.0, 2.0, 3.0)


class TestEquilibria:
    def test_cholera_closed_form_value(self):
        # hand derivation: u1* = (alpha*c - a*b)/(a*b*beta), u2* = a*u1*/c
        model = cholera_default()
        u = rx.positive_equilibrium(model)
        assert np.allclose(u, [1.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-14)
        assert np.max(np.abs(rx.eval_F(model, u))) < 1e-13

    def test_wnv_closed_form_value(self):
        model = wnv_default()
        u = rx.positive_equilibrium(model)
        assert np.allclose(u, [0.5, 0.5], rtol=0, atol=1e-14)
        assert np.max(np.abs(rx.eval_F(model, u))) < 1e-13

    @pytest.mark.parametrize("builder,args", [
        (rx.cholera, (1.3, 0.7, 0.9, 2.5, 1.8)),
        (rx.wnv, (0.8, 1.1, 0.3, 0.45, 1.5, 2.0)),
        (rx.concave, (1.0, 1.0, 2.0, 2.0)),
    ])
    def test_matches_scipy_root(self, builder, args):
        model = builder(*args)
        u = rx.positive_equilibrium(model)
        sol = optimize.root(lambda v: rx.eval_F(model, v, validate=False),
                            x0=np.full(model.m, 0.7), method="hybr", tol=1e-13)
        assert sol.success
        assert np.all(sol.x > 0)
        assert np.allclose(u, sol.x, rtol=1e-9, atol=1e-12)

    def test_concave_scalar_reduction(self):
        # eliminate u2: u2 = (beta/b) ln(1+u1), then u1 = alpha*u2/(a*(1+u2))
        a, b, alpha, beta = 1.0, 1.0, 2.0, 2.0

        def g(u1):
            w = (beta / b) * math.log1p(u1)
            return alpha * w / (a * (1.0 + w)) - u1

        u1_ref = optimize.brentq(g, 1e-8, 100.0, xtol=1e-14)
        model = rx.concave(a, b, alpha, beta)
        u = rx.positive_equilibrium(model)
        assert u[0] == pytest.approx(u1_ref, rel=1e-10)
        assert u[1] == pytest.approx((beta / b) * math.log1p(u1_ref), rel=1e-10)

    def test_residual_tolerance(self):
        for model in (wnv_default(), cholera_default(), rx.concave(1, 1, 2, 2)):
            u = rx.positive_equilibrium(model)
            scale = max(1.0, float(np.max(np.abs(u))))
            assert np.max(np.abs(rx.eval_F(model, u))) < 1e-12 * scale

    def test_newton_stays_in_the_cone(self):
        # an unclipped Newton iterate of this model reaches u1 < -1, where
        # ln(1 + u1) is undefined; projected iterates raise no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = rx.positive_equilibrium(rx.concave(3.0, 0.2, 3.0, 3.0))
        assert np.allclose(u, [0.9063, 9.678], rtol=1e-4)

    def test_equilibrium_cached_and_copied(self):
        model = wnv_default()
        u1 = rx.positive_equilibrium(model)
        u1[0] = -99.0
        u2 = rx.positive_equilibrium(model)
        assert u2[0] == 0.5

    def test_replace_recomputes_cached_facts(self):
        # the facts are computed on first use; a replaced model reads its own
        model = wnv_default()
        facts = (rx.positive_equilibrium(model), rx.lipschitz_bound(model),
                 rx.diagonal_drain(model))
        assert facts[0].tolist() == [0.5, 0.5] and facts[1:] == (3.75, 1.0)
        other = rx.wnv(2.0, 2.0, 0.5, 0.5, 1.0, 1.0)
        swapped = replace(model, rate=other.rate, jac=other.jac,
                          _closed_form=other._closed_form)
        assert rx.positive_equilibrium(swapped).tolist() == [0.75, 0.75]
        assert (rx.lipschitz_bound(swapped), rx.diagonal_drain(swapped)) == (6.75, 2.0)

    @pytest.mark.parametrize("build", [
        lambda: rx.wnv(1, 1, 1, 1, 1, 1),            # reproduction number exactly 1
        lambda: rx.cholera(1, 1, 1, 1, 2),           # alpha*c == a*b
        lambda: rx.concave(2, 2, 1, 1),              # gains below losses
        lambda: rx.wnv(1, 1, 2, 2, 1, 1),
    ])
    def test_no_positive_root(self, build):
        with pytest.raises(rx.NoPositiveRoot):
            rx.positive_equilibrium(build())


class TestRateAndJacobian:
    def test_vectorized_rate_shapes(self):
        model = wnv_default()
        pt = rx.eval_F(model, np.array([0.2, 0.3]))
        assert pt.shape == (2,)
        grid = np.random.default_rng(3).uniform(0.0, 1.0, size=(2, 17))
        vals = rx.eval_F(model, grid)
        assert vals.shape == (2, 17)
        for k in range(17):
            assert np.allclose(vals[:, k], rx.eval_F(model, grid[:, k]))

    @pytest.mark.parametrize("builder,args", [
        (rx.cholera, (1.0, 1.0, 1.0, 2.0, 3.0)),
        (rx.wnv, (1.0, 1.0, 0.5, 0.5, 1.0, 1.0)),
        (rx.concave, (1.0, 1.0, 2.0, 2.0)),
    ])
    def test_analytic_jacobian_matches_fd(self, builder, args):
        model = builder(*args)
        rng = np.random.default_rng(11)
        for _ in range(5):
            u = rng.uniform(0.05, 0.9, size=model.m)
            J = rx.jacobian(model, u)
            J_fd = rx._fd_jacobian(model, u)
            assert np.allclose(J, J_fd, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("u", [
        np.array([0.2, 0.3]),
        np.array([1.5, 0.0]),
        np.random.default_rng(4).uniform(0.0, 2.0, size=(2, 1)),
        np.random.default_rng(5).uniform(0.0, 2.0, size=(2, 257)),
        np.random.default_rng(6).uniform(0.0, 2.0, size=(2, 40))[:, ::-3],    # strided view
    ])
    def test_wnv_rate_is_the_stacked_formulas_bitwise(self, u):
        a1, a2, b1, b2, e1, e2 = 0.8, 1.1, 0.3, 0.45, 1.5, 2.0
        u1, u2 = u[0], u[1]
        ref = np.stack([a1 * (e1 - u1) * u2 - b1 * u1,
                        a2 * (e2 - u2) * u1 - b2 * u2])
        got = rx.eval_F(rx.wnv(a1, a2, b1, b2, e1, e2), u, validate=False)
        assert got.shape == ref.shape and np.array_equal(got, ref)

    def test_cone_and_ceiling_validation(self):
        model = wnv_default()
        with pytest.raises(rx.OutOfCone):
            rx.eval_F(model, np.array([-0.01, 0.2]))
        with pytest.raises(rx.AboveCeiling):
            rx.eval_F(model, np.array([1.2, 0.2]))
        rx.eval_F(model, np.array([1.2, 0.2]), validate=False)   # explicit opt-out
        with pytest.raises(rx.ReactionError):
            rx.eval_F(model, np.zeros(3))

    def test_dispersal_rate_validation(self):
        with pytest.raises(rx.ReactionError):
            rx.wnv(1, 1, 0.5, 0.5, 1, 1, d=(0.0, 1.0))
        with pytest.raises(rx.ReactionError):
            rx.wnv(1, 1, 0.5, 0.5, 1, 1, d=(1.0,))
        model = rx.wnv(1, 1, 0.5, 0.5, 1, 1, d=(2.0, 0.5))
        assert np.array_equal(model.d, [2.0, 0.5])


class TestCustomModels:
    def test_expression_matches_preset(self):
        params = dict(a1=1.0, a2=1.0, b1=0.5, b2=0.5, e1=1.0, e2=1.0)
        model = rx.custom(["a1*(e1 - u1)*u2 - b1*u1",
                           "a2*(e2 - u2)*u1 - b2*u2"],
                          params, u_ceiling=[1.0, 1.0])
        ref = wnv_default()
        rng = np.random.default_rng(7)
        grid = rng.uniform(0.0, 1.0, size=(2, 40))
        assert np.allclose(rx.eval_F(model, grid), rx.eval_F(ref, grid),
                           rtol=1e-14, atol=1e-15)

    def test_custom_equilibrium_via_fd_newton(self):
        params = dict(a1=1.0, a2=1.0, b1=0.5, b2=0.5, e1=1.0, e2=1.0)
        model = rx.custom(["a1*(e1 - u1)*u2 - b1*u1",
                           "a2*(e2 - u2)*u1 - b2*u2"],
                          params, u_ceiling=[1.0, 1.0])
        u = rx.positive_equilibrium(model)
        assert np.allclose(u, [0.5, 0.5], rtol=1e-10)

    def test_power_operator(self):
        model = rx.custom(["u1 - u1^3"], {})
        vals = rx.eval_F(model, np.array([[0.5, 2.0]]), validate=False)
        assert np.allclose(vals, [[0.5 - 0.125, 2.0 - 8.0]])

    def test_ln_and_exp(self):
        model = rx.custom(["ln(1 + u1) - c*exp(u1) + c"], {"c": 2.0})
        val = rx.eval_F(model, np.array([1.0]), validate=False)
        assert val[0] == pytest.approx(math.log(2.0) - 2.0 * math.e + 2.0)

    @pytest.mark.parametrize("expr", [
        "__import__('os')",
        "u1.real",
        "u1[0]",
        "u1 if u2 else 0",
        "lambda: 1",
        "u1 < u2",
        "ln(u1, u2)",
        "sin(u1)",
        "u3 + 1",            # only u1..u2 exist for m=2
        "'text'",
    ])
    def test_rejected_expressions(self, expr):
        with pytest.raises(rx.ExpressionError):
            rx.compile_rate_expression(expr, m=2, params={})

    def test_constant_expression_broadcasts(self):
        model = rx.custom(["k - u1"], {"k": 0.0})
        vals = rx.eval_F(model, np.array([[0.1, 0.2, 0.3]]))
        assert vals.shape == (1, 3)

    def test_nondiffusing_block(self):
        model = rx.custom(["-u1 + u2", "u1 - u2"], {}, m0=1)
        assert model.m0 == 1
        assert model.d[0] > 0 and model.d[1] == 0.0


class TestModelFromJson:
    def test_wnv_roundtrip(self):
        cfg = {"model": "wnv",
               "params": dict(a1=1, a2=1, b1=0.5, b2=0.5, e1=1, e2=1)}
        model = rx.model_from_json(cfg)
        assert model.name == "wnv"
        assert np.allclose(rx.positive_equilibrium(model), [0.5, 0.5])

    def test_custom_config(self):
        cfg = {"model": "custom", "params": {"r": 1.0},
               "f": ["r*u1*(1 - u1)"], "m0": 1}
        model = rx.model_from_json(cfg)
        assert model.m == 1
        assert np.allclose(rx.positive_equilibrium(model), [1.0])

    def test_rejects_unknown_kind(self):
        with pytest.raises(rx.ReactionError):
            rx.model_from_json({"model": "lv", "params": {}})

    def test_rejects_missing_params(self):
        with pytest.raises(rx.ReactionError) as err:
            rx.model_from_json({"model": "wnv", "params": {"a1": 1.0}})
        assert "a2" in str(err.value)

    def test_custom_needs_expressions(self):
        with pytest.raises(rx.ReactionError):
            rx.model_from_json({"model": "custom", "params": {}})


class TestAssumptionChecks:
    def test_wnv_passes_all_static(self):
        report = rx.verify_assumptions(wnv_default(), n_samples=256, seed=0)
        assert set(report.results) == set(rx.ASSUMPTION_CHECKS)
        assert report.failures == []
        assert report.passed_all_static
        for key in ("ode_attraction", "whole_line_attraction"):
            assert report.results[key].status == "not_checked"
        checked = [k for k, v in report.results.items() if v.status == "pass"]
        assert "positive_ray_drift" in checked
        assert "subhomogeneous" in checked

    def test_cholera_fails_exactly_ray_drift(self):
        # the linear first rate vanishes identically on the equilibrium ray,
        # so the strict-drift property cannot hold
        report = rx.verify_assumptions(cholera_default(), n_samples=256, seed=0)
        assert report.failures == ["positive_ray_drift"]
        assert report.results["equilibrium_stability"].status == "pass"
        assert "affine" in report.results["equilibrium_stability"].detail

    def test_concave_passes_all_static(self):
        report = rx.verify_assumptions(rx.concave(1, 1, 2, 2), n_samples=256, seed=1)
        assert report.failures == []

    def test_noncooperative_detected(self):
        model = rx.custom(["-u1 + u2", "-0.5*u1 - u2 + 2"], {})
        report = rx.verify_assumptions(model, n_samples=128, seed=2)
        assert "cooperative_offdiagonal" in report.failures

    def test_positive_coupling_of_sedentary_component_passes(self):
        model = rx.custom(["-u1 + u2", "u1*(1 - u2) - 0.5*u2"], {}, m0=1)
        check = rx.verify_assumptions(model).results["diffusing_drives_nondiffusing"]
        assert check.status == "pass"
        assert check.witness is None

    def test_first_weak_coupling_is_the_witness(self):
        # dF2/du1 = 8 u1 - 0.8 is -0.8 at the origin and turns positive at
        # u1 = 0.1, below u* = (0.45, 0.45): the first failing state on the
        # segment from 0 to u* is the origin itself
        model = rx.custom(["-u1 + u2", "u1*(u1 - 0.2)*4 - u2"], {}, m0=1)
        check = rx.verify_assumptions(model).results["diffusing_drives_nondiffusing"]
        assert check.status == "fail"
        assert "coupling (2,1) = -8.000e-01" in check.detail
        assert check.witness == ([0.0, 0.0],)

    def test_coupling_vanishing_at_the_origin_is_the_witness(self):
        # dF2/du1 = 4 u1 is exactly 0 at the origin, where the difference
        # step cannot go below 0: the one-sided three-point rule reads it exactly
        model = rx.custom(["-u1 + u2", "-u2 + 2*u1^2"], {}, m0=1)
        check = rx.verify_assumptions(model).results["diffusing_drives_nondiffusing"]
        assert check.status == "fail"
        assert "coupling (2,1) = 0.000e+00" in check.detail
        assert check.witness == ([0.0, 0.0],)

    def test_fd_jacobian_of_a_quadratic_at_the_origin_is_exact(self):
        model = rx.custom(["u1 - u1^2 + 3*u1*u2", "2*u1^2 - u2 + 0.5*u2^2"], {})
        assert model.jac is None
        J = rx.jacobian(model, np.zeros(2))
        # exact up to rounding (a two-point difference is off by h = 1e-6 here)
        assert np.abs(J - [[1.0, 0.0], [0.0, -1.0]]).max() < 1e-9
        assert J[0, 1] == J[1, 0] == 0.0

    def test_principal_eigenvalue_of_rotating_jacobian(self):
        # J0 = [[1, -4], [1, 1]] has eigenvalues 1 +- 2i: the origin is
        # unstable with largest real part 1
        report = rx.verify_assumptions(rx.custom(["u1 - 4*u2", "u1 + u2"], {}))
        check = report.results["irreducible_unstable_origin"]
        assert check.status == "pass"
        assert "principal eigenvalue at origin 1 > 0" in check.detail

    def test_superhomogeneous_detected(self):
        model = rx.custom(["u1*u1*(1 - u1)"], {})
        report = rx.verify_assumptions(model, n_samples=128, seed=3)
        assert "subhomogeneous" in report.failures

    def test_seed_reproducibility(self):
        r1 = rx.verify_assumptions(wnv_default(), n_samples=128, seed=42)
        r2 = rx.verify_assumptions(wnv_default(), n_samples=128, seed=42)
        for key in r1.results:
            assert r1.results[key].status == r2.results[key].status
            assert r1.results[key].detail == r2.results[key].detail


class TestLipschitzBound:
    def test_stated_values_for_wnv_and_cholera(self):
        # 1.5 x the largest row sum of |J|, attained at a corner of the box:
        # wnv 2.5 at (0, e2), cholera 3.0 on the face u1 = 0
        assert rx.lipschitz_bound(wnv_default()) == 3.75
        assert rx.lipschitz_bound(cholera_default()) == 4.5

    @pytest.mark.parametrize("build", [wnv_default, cholera_default,
                                       lambda: rx.concave(1, 1, 2, 2)])
    def test_dominates_padded_row_sums_on_a_fine_grid(self, build):
        model = build()
        hi = rx._state_box(model, rx.positive_equilibrium(model))
        worst = max(float(np.max(np.sum(np.abs(rx.jacobian(model, u)), axis=1)))
                    for u in rx._box_lattice(hi, 201).T)
        assert rx.lipschitz_bound(model) >= 1.5 * worst

    def test_exceeds_jacobian_at_equilibrium(self):
        for model in (wnv_default(), cholera_default()):
            u = rx.positive_equilibrium(model)
            J = rx.jacobian(model, u)
            assert rx.lipschitz_bound(model) >= float(np.max(np.sum(np.abs(J), axis=1)))
