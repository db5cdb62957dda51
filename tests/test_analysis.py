"""Growth-law fitting and trajectory ordering checks."""

import numpy as np
import pytest

import nlspread.reactions as rx
from nlspread import analysis as an
from nlspread.freeboundary import FBConfig, run
from nlspread.kernels import KernelSpec, make_kernel


@pytest.fixture(scope="module")
def model():
    return rx.wnv(1.0, 1.0, 0.5, 0.5, 1.0, 1.0)


@pytest.fixture(scope="module")
def laplace1():
    return make_kernel(KernelSpec.laplace(1.0))


def _run(model, kern, amp, dx=0.25, t_end=2.0, mu=1.0):
    u_star = rx.positive_equilibrium(model)
    profs = tuple((lambda s: (lambda x: np.maximum(0.0, amp * s * (1 - np.abs(x) / 2.0))))(s)
                  for s in u_star)
    cfg = FBConfig(model=model, kernels=kern, mu=mu, h0=2.0, dx=dx, t_end=t_end,
                   initial_profiles=profs, snapshot_times=(1.0,))
    return run(cfg)


class TestFitFront:
    def test_linear_exact(self):
        t = np.linspace(2.0, 100.0, 240)
        rep = an.fit_front((t, 2.0 * t), "linear")
        assert rep.coefficient == pytest.approx(2.0, abs=1e-6)
        assert rep.r_squared > 0.999999
        assert rep.exponent is None
        assert rep.window == (50.0, 100.0)

    def test_tlogt_exact(self):
        t = np.linspace(2.0, 100.0, 240)
        rep = an.fit_front((t, 3.0 * t * np.log(t)), "tlogt")
        assert rep.coefficient == pytest.approx(3.0, abs=1e-4)
        assert rep.r_squared > 0.99999

    def test_power_exact(self):
        t = np.linspace(2.0, 100.0, 240)
        rep = an.fit_front((t, t ** 2), "power")
        assert rep.exponent == pytest.approx(2.0, abs=1e-3)
        assert rep.coefficient == pytest.approx(1.0, rel=1e-3)
        assert rep.r_squared > 0.999999

    def test_custom_window_respected(self):
        t = np.linspace(0.0, 100.0, 500)
        # kink at t = 60: the late window must ignore the early branch
        y = np.where(t < 60.0, 5.0 * t, 2.0 * t + 180.0)
        rep = an.fit_front((t, y), "linear", window=(60.0, 100.0))
        assert rep.coefficient == pytest.approx(2.0, abs=1e-8)
        assert rep.window == (60.0, 100.0)

    def test_too_few_samples(self):
        t = np.linspace(2.0, 10.0, 12)
        with pytest.raises(an.InsufficientData):
            an.fit_front((t, t), "linear")

    def test_early_times_dropped_for_log_laws(self):
        t = np.linspace(0.2, 3.0, 40)     # 25 samples above t = 1
        y = t ** 2
        rep = an.fit_front((t, y), "power", window=(0.2, 3.0))
        assert rep.n_samples == int(np.sum(t > 1.0))
        t_short = np.linspace(0.2, 3.0, 27)  # only 19 usable samples left
        assert int(np.sum(t_short > 1.0)) == 19
        with pytest.raises(an.InsufficientData):
            an.fit_front((t_short, t_short ** 2), "power", window=(0.2, 3.0))

    def test_unknown_law_rejected(self):
        t = np.linspace(1.0, 10.0, 30)
        with pytest.raises(ValueError):
            an.fit_front((t, t), "cubic")

    def test_r_squared_in_position_space(self):
        # a poor law must score poorly even though its own fit
        # coordinates would flatter it
        t = np.linspace(10.0, 100.0, 200)
        y = 4.0 * t
        lin = an.fit_front((t, y), "linear")
        pw = an.fit_front((t, y), "power")
        assert lin.r_squared >= pw.r_squared - 1e-12
        assert 0.0 <= pw.r_squared <= 1.0


class TestBestGrowthLaw:
    def test_linear_selected(self):
        # the window must span a wide range of ln(t), otherwise the
        # log-corrected law shadows a straight line to within the tie margin
        t = np.linspace(2.0, 1000.0, 600)
        rep = an.best_growth_law((t, 1.7 * t + 3.0), window=(2.0, 1000.0))
        assert rep.law == "linear"
        assert not rep.ambiguous

    def test_power_selected(self):
        t = np.linspace(2.0, 200.0, 300)
        rep = an.best_growth_law((t, 0.5 * t ** 1.8))
        assert rep.law == "power"
        assert rep.exponent == pytest.approx(1.8, abs=1e-3)

    def test_subsampling_invariance(self):
        t = np.linspace(2.0, 200.0, 400)
        y = 2.5 * t * np.log(t) + 1.0
        law_full = an.best_growth_law((t, y)).law
        law_half = an.best_growth_law((t[::2], y[::2])).law
        assert law_full == law_half == "tlogt"

    def test_near_tie_flagged_ambiguous(self):
        # over a narrow late window t*ln(t) is indistinguishable from a
        # straight line, so the margin collapses
        t = np.linspace(1.0e6, 1.001e6, 60)
        rep = an.best_growth_law((t, 2.0 * t), window=(t[0], t[-1]))
        assert rep.ambiguous
        assert rep.margin is not None and rep.margin < 1e-4

    def test_json_dict_shape(self):
        t = np.linspace(2.0, 100.0, 100)
        rep = an.best_growth_law((t, 2.0 * t))
        d = an.report_to_json_dict(rep)
        assert d["model"] == rep.law
        assert len(d["params"]) == 3
        assert 0.0 <= d["r_squared"] <= 1.0


@pytest.fixture(scope="module")
def runs(model, laplace1):
    small = _run(model, laplace1, 0.4)
    big = _run(model, laplace1, 0.8)
    return small, big


class TestCompareOrderings:

    def test_reflexive(self, runs):
        small, _ = runs
        rep = an.compare_orderings(small, small)
        assert rep.ordered and rep.violation is None
        assert rep.checked_times >= 1

    def test_dominated_pair_ordered(self, runs):
        small, big = runs
        rep = an.compare_orderings(small, big)
        assert rep.ordered, rep.violation

    def test_snapshot_at_final_time(self, model, laplace1):
        # a snapshot landing exactly on t_end ties with the final state;
        # the tie must not be broken by comparing the grids themselves
        small = _run(model, laplace1, 0.4, t_end=1.0)
        big = _run(model, laplace1, 0.8, t_end=1.0)
        rep = an.compare_orderings(small, big)
        assert rep.ordered and rep.checked_times >= 2

    def test_antisymmetric(self, runs):
        small, big = runs
        fwd = an.compare_orderings(small, big)
        rev = an.compare_orderings(big, small)
        assert fwd.ordered and not rev.ordered
        assert rev.violation is not None
        assert rev.violation.field in ("h", "g") or rev.violation.field.startswith("u")

    def test_grid_mismatch_dx(self, runs, model, laplace1):
        small, _ = runs
        other = _run(model, laplace1, 0.4, dx=0.125)
        with pytest.raises(an.GridMismatch):
            an.compare_orderings(small, other)

    def test_grid_mismatch_horizon(self, runs, model, laplace1):
        small, _ = runs
        other = _run(model, laplace1, 0.4, t_end=3.0)
        with pytest.raises(an.GridMismatch):
            an.compare_orderings(small, other)

    def test_weaker_expansion_dominated(self, model, laplace1):
        lazy = _run(model, laplace1, 0.5, mu=0.5)
        eager = _run(model, laplace1, 0.5, mu=2.0)
        rep = an.compare_orderings(lazy, eager)
        assert rep.ordered, rep.violation

    def test_type_guard(self, runs):
        with pytest.raises(TypeError):
            an.compare_orderings(runs[0], (np.arange(3.0), np.arange(3.0)))
