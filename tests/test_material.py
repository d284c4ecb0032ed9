import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferrofem import material
from ferrofem.material import MaterialParams

P1 = MaterialParams()  # everything 1, gamma = 1


def coth(y):
    return 1.0 / math.tanh(y)


class TestLangevin:
    def test_zero(self):
        assert material.langevin(0.0) == 0.0

    def test_at_one_direct_evaluation(self):
        assert material.langevin(1.0) == pytest.approx(coth(1.0) - 1.0, abs=1e-15)
        assert material.langevin(1.0) == pytest.approx(0.31303529, abs=1e-8)

    def test_tiny_argument_series(self):
        y = 1e-8
        assert material.langevin(y) == pytest.approx(y / 3 - y**3 / 45, rel=1e-12)
        assert material.langevin(y) == pytest.approx(3.3333e-9, rel=1e-4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            material.langevin(-0.1)

    def test_vectorized(self):
        ys = np.array([0.0, 1e-6, 0.5, 40.0])
        out = material.langevin(ys)
        assert out.shape == ys.shape
        assert out[0] == 0.0
        assert out[-1] == pytest.approx(coth(40.0) - 1.0 / 40.0, abs=1e-15)

    @given(st.floats(min_value=1e-10, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_bounded_and_positive(self, y):
        val = material.langevin(y)
        assert 0.0 < val < 1.0

    @given(st.floats(min_value=1e-6, max_value=100.0), st.floats(min_value=1.001, max_value=2.0))
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing(self, y, factor):
        assert material.langevin(y * factor) > material.langevin(y)


class TestAlpha:
    def test_limit_at_zero(self):
        assert material.alpha(0.0, P1) == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_at_one_composes_with_langevin(self):
        assert material.alpha(1.0, P1) == pytest.approx(
            1.0 + material.langevin(1.0), abs=1e-15
        )

    def test_large_argument_tends_to_one_from_above(self):
        val = material.alpha(1e6, P1)
        assert 1.0 < val < 1.0 + 1.01e-6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            material.alpha(-1.0, P1)

    def test_largest_arguments_warn_nothing(self):
        # -2y in the large branches' e^{-2y} overflowed beyond y ~ 9e307 and
        # warned on stderr; the branches clamp y first (e^{-2y} is 0 there)
        big = MaterialParams(gamma=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert material.langevin(1e308) == pytest.approx(1.0, abs=1e-15)
            assert material.alpha(1e308, P1) == pytest.approx(1.0, abs=1e-15)
            assert material.alpha(1.0, big) == pytest.approx(2.0, abs=1e-15)  # gamma L(y)/y
            assert material.beta(1e308, P1) == pytest.approx(1e308, rel=1e-15)
            assert np.isfinite(material.magnetization(np.array([1.0, 0.0]), big)).all()

    @given(st.floats(min_value=1e-12, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_lemma_bounds(self, x):
        val = material.alpha(x, P1)
        assert 1.0 < val <= 1.0 + P1.gamma * P1.Ms / 3.0 + 1e-14

    def test_sup_attained_at_zero(self):
        xs = np.logspace(-12, 6, 1000)
        vals = material.alpha(xs, P1)
        assert vals.max() <= 4.0 / 3.0
        assert vals.max() == pytest.approx(4.0 / 3.0, rel=1e-8)


class TestBeta:
    def test_zero_limit(self):
        assert material.beta(0.0, P1) == 0.0
        prm = MaterialParams(Ms=2.0, gamma=3.0)
        assert material.beta(0.0, prm) == pytest.approx(
            (2.0 / 3.0) * math.log(3.0), abs=1e-14
        )

    def test_at_one_direct_evaluation(self):
        assert material.beta(1.0, P1) == pytest.approx(math.log(math.sinh(1.0)), abs=1e-14)
        assert material.beta(1.0, P1) == pytest.approx(0.16143936, abs=1e-8)

    def test_large_argument_no_overflow(self):
        got = material.beta(100.0, P1)
        oracle = 100.0 - math.log(2.0) - math.log(100.0) + math.log1p(-math.exp(-200.0))
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(94.70168, abs=1e-4)
        assert np.isfinite(material.beta(1e6, P1))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            material.beta(-2.0, P1)

    def test_derivative_bounds_finite_differences(self):
        xs = np.logspace(-6, 3, 1000)
        bp = material.beta_prime_fd(xs, P1)
        assert np.all(bp > 0.0)
        assert np.all(bp <= P1.Ms + 1e-8)

    @pytest.mark.parametrize("prm", [P1, MaterialParams(gamma=4.0, Ms=2.0)])
    def test_finite_differences_match_closed_form_derivative(self, prm):
        # beta'(x) = Ms L(gamma x); the relative step 1e-6 leaves ~2e-10, a
        # step of 1e-2 ~2e-3 near the origin
        xs = np.logspace(-6, 3, 1000)
        exact = prm.Ms * material.langevin(prm.gamma * xs)
        assert np.abs(material.beta_prime_fd(xs, prm) - exact).max() <= 1e-8 * prm.Ms


class TestMagnetization:
    def test_zero_field(self):
        assert np.array_equal(material.magnetization([0.0, 0.0], P1), [0.0, 0.0])

    def test_axis_aligned(self):
        m = material.magnetization([1.0, 0.0], P1)
        assert m[0] == pytest.approx(0.31303529, abs=1e-8)
        assert m[1] == 0.0

    @given(
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-50, max_value=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_saturation(self, hx, hy):
        m = material.magnetization([hx, hy], P1)
        hmag = math.hypot(hx, hy)
        assert np.linalg.norm(m) < P1.Ms
        if hmag > 0:
            assert np.linalg.norm(m) == pytest.approx(
                P1.Ms * material.langevin(P1.gamma * hmag), rel=1e-12
            )

    def test_batched_shape(self):
        h = np.zeros((4, 5, 2))
        h[..., 0] = 1.0
        out = material.magnetization(h, P1)
        assert out.shape == (4, 5, 2)


class TestBranchConsistency:
    def test_langevin_crossover(self):
        ys = np.linspace(0.5e-2, 2e-2, 101)
        series = ys / 3 - ys**3 / 45 + 2 * ys**5 / 945
        closed = 1 / np.tanh(ys) - 1 / ys
        assert np.abs(series - closed).max() <= 1e-12

    def test_log_sinh_crossover(self):
        ys = np.linspace(0.5e-2, 2e-2, 101)
        series = ys**2 / 6 - ys**4 / 180
        closed = np.log(np.sinh(ys) / ys)
        assert np.abs(series - closed).max() <= 1e-12

    def test_large_branch_crossover(self):
        ys = np.linspace(25.0, 35.0, 101)
        exp_coth = 1 + 2 * np.exp(-2 * ys) / (1 - np.exp(-2 * ys))
        assert np.abs(exp_coth - 1 / np.tanh(ys)).max() <= 1e-12
        exp_lsinh = ys - np.log(2.0) + np.log1p(-np.exp(-2 * ys))
        assert np.abs(exp_lsinh - np.log(np.sinh(ys))).max() <= 1e-12


class TestParams:
    def test_gamma_from_chi0(self):
        prm = MaterialParams(Ms=2.0, chi0=1.0)
        assert prm.gamma == pytest.approx(1.5)

    def test_default_chi0_derived(self):
        assert P1.chi0 == pytest.approx(1.0 / 3.0)

    def test_inconsistent_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            MaterialParams(Ms=1.0, gamma=1.0, chi0=1.0)

    @pytest.mark.parametrize("field", ["mu0", "Ms", "gamma", "rho", "eta"])
    def test_positivity_enforced(self, field):
        with pytest.raises(ValueError):
            MaterialParams(**{field: -1.0})

    @pytest.mark.parametrize("kwargs", [{"gamma": 1e-310}, {"chi0": 1e-310}])
    def test_overflowing_beta0_rejected(self, kwargs):
        # beta(0) = Ms ln(gamma) / gamma is -inf; the check itself warns of nothing
        with np.errstate(all="raise"), pytest.raises(ValueError, match="gamma="):
            MaterialParams(**kwargs)

    def test_tiny_gamma_with_finite_beta0_accepted(self):
        prm = MaterialParams(gamma=1e-300)
        assert material.beta(0.0, prm) == pytest.approx(-6.907755278982137e302)
