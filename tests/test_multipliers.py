"""Multiplier formulas against independent oracles (mpmath, direct quadrature)."""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from coslab import multipliers as m
from coslab.errors import (
    ExcludedParameterError,
    GammaPoleError,
    UnknownConstantError,
)
from coslab.reports import make_report

SQRT_PI = math.sqrt(math.pi)


def mp_gamma_ratio(numerators, denominators):
    """Independent high-precision gamma-ratio oracle."""
    with mpmath.workdps(50):
        value = mpmath.mpf(1)
        for a in numerators:
            value *= mpmath.gamma(a)
        for b in denominators:
            value /= mpmath.gamma(b)
        return float(value)


def legendre_at_zero(j):
    """P_j(0) by the plain three-term recurrence at x = 0."""
    values = [1.0, 0.0]
    for k in range(2, j + 1):
        values.append(-(k - 1) * values[k - 2] / k)
    return values[j]


class TestSigma:
    def test_circle(self):
        assert m.sigma(2) == pytest.approx(2 * math.pi, abs=1e-12)

    def test_sphere(self):
        assert m.sigma(3) == pytest.approx(4 * math.pi, abs=1e-12)

    def test_glome(self):
        assert m.sigma(4) == pytest.approx(2 * math.pi ** 2, abs=1e-12)


class TestExcluded:
    @pytest.mark.parametrize("n,alpha,family,expected", [
        (3, 1.0, "M", True),
        (3, 0.5, "M", False),
        (5, -2.0, "K_class", True),
        (3, 3.0, "Q", True),
        (3, 2.0, "Q", False),
        (4, 7.0, "M", True),
        (3, -1.0, "M", False),
        (5, 5.0, "K_class", True),
        (3, -4.0 + 5e-9, "K_class", True),
        (3, 0.5, "K_class", False),
    ])
    def test_lattices(self, n, alpha, family, expected):
        assert m.excluded(n, alpha, family) is expected

    def test_r_family_lattice(self):
        assert m.excluded(3, 2.0, "R_i", i=1)
        assert not m.excluded(3, 1.5, "R_i", i=1)
        assert m.excluded(3, 1.0, "R_i", i=2)

    def test_pole_guard_width(self):
        assert m.excluded(3, 1.0 + 5e-9, "M")
        assert not m.excluded(3, 1.0 + 1e-6, "M")


class TestCosineMultiplier:
    def test_constant_value(self):
        # Gamma(1/4) / Gamma(5/4) = 4
        assert m.m_mult(3, 0, 0.5) == pytest.approx(4.0, rel=1e-13)

    def test_odd_degree_annihilated(self):
        assert m.m_mult(3, 1, 0.5) == 0.0
        assert m.m_mult(5, 7, -0.3) == 0.0

    def test_degree_two_at_zero_order(self):
        assert m.m_mult(3, 2, 0.0) == pytest.approx(-SQRT_PI / 2, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("alpha", [-3.3, -0.7, 0.25, 0.8, 2.6])
    def test_against_mpmath(self, n, alpha):
        for j in (0, 2, 6, 40, 200):
            sign = -1.0 if (j // 2) % 2 else 1.0
            want = sign * mp_gamma_ratio([(j + 1 - alpha) / 2],
                                         [(j + n - 1 + alpha) / 2])
            assert m.m_mult(n, j, alpha) == pytest.approx(want, rel=1e-12)

    def test_excluded_raises(self):
        with pytest.raises(ExcludedParameterError):
            m.m_mult(3, 2, 1.0)
        with pytest.raises(ExcludedParameterError):
            m.m_mult(4, 0, 5.0)

    def test_sign_alternation_in_safe_band(self):
        # for 1-n < alpha < 1 the gamma ratio is positive
        for n in (2, 3, 5):
            for alpha in np.linspace(1.0 - n + 0.05, 0.95, 7):
                for j in range(0, 21, 2):
                    value = m.m_mult(n, j, float(alpha))
                    assert math.copysign(1, value) == (-1.0) ** (j // 2)


class TestSineMultiplier:
    def test_order_one_constant(self):
        assert m.q_mult(3, 0, 1.0) == pytest.approx(math.pi, rel=1e-13)

    def test_order_one_degree_two(self):
        assert m.q_mult(3, 2, 1.0) == pytest.approx(math.pi / 4, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_identity_at_zero(self, n):
        for j in range(0, 40, 2):
            assert m.q_mult(n, j, 0.0) == 1.0

    def test_odd_degree_annihilated(self):
        assert m.q_mult(3, 3, 1.0) == 0.0

    def test_against_mpmath(self):
        for n, j, alpha in [(3, 4, 1.7), (5, 10, -2.3), (4, 0, 0.6), (8, 20, 2.2)]:
            want = mp_gamma_ratio([(j + n - 1 - alpha) / 2, (j + 1) / 2],
                                  [(j + alpha + 1) / 2, (j + n - 1) / 2])
            assert m.q_mult(n, j, alpha) == pytest.approx(want, rel=1e-12)

    def test_degree_specific_pole_raises(self):
        # alpha = n - 1 puts Gamma(0) in the numerator at degree 0
        with pytest.raises(GammaPoleError):
            m.q_mult(3, 0, 2.0)

    def test_excluded_raises(self):
        with pytest.raises(ExcludedParameterError):
            m.q_mult(3, 0, 3.0)


class TestPoissonAverages:
    def test_plus_example(self):
        assert m.qpm_mult(3, 0, 1.0, 2.0, "plus") == pytest.approx(2 / SQRT_PI,
                                                                   rel=1e-13)

    def test_minus_example(self):
        assert m.qpm_mult(3, 0, 1.0, 2.0, "minus") == pytest.approx(SQRT_PI,
                                                                    rel=1e-13)

    @pytest.mark.parametrize("j", [0, 1, 2, 5, 8])
    def test_plus_against_beta_integral(self, j):
        # multiplier of (2/Gamma(mu/2)) int_0^1 (1-t^2)^(mu/2-1) t^(j+n-nu) dt
        n, mu, nu = 3, 0.9, 1.7
        want, _ = quad(lambda t: 2 / math.gamma(mu / 2)
                       * (1 - t * t) ** (mu / 2 - 1) * t ** (j + n - nu), 0, 1)
        assert m.qpm_mult(n, j, mu, nu, "plus") == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("j", [0, 1, 2, 5, 8])
    def test_minus_against_beta_integral(self, j):
        # multiplier of (2/Gamma(mu/2)) int_1^inf (t^2-1)^(mu/2-1) t^(1-nu) t^(-j) dt
        n, mu, nu = 3, 0.9, 1.7
        want, _ = quad(lambda t: 2 / math.gamma(mu / 2)
                       * (t * t - 1) ** (mu / 2 - 1) * t ** (1 - nu - j), 1, np.inf)
        assert m.qpm_mult(n, j, mu, nu, "minus") == pytest.approx(want, rel=1e-9)


class TestBridgeMultiplier:
    def test_equal_orders_is_identity(self):
        for j in range(0, 9):
            assert m.a_mult(3, j, 0.7, 0.7) == 1.0

    def test_ratio_of_cosine_multipliers(self):
        # independent-oracle ratio at (alpha, beta) = (0.5, -0.5), degree 0
        want = mp_gamma_ratio([0.25], [1.25]) / mp_gamma_ratio([0.75], [0.75])
        assert m.a_mult(3, 0, 0.5, -0.5) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("n,j,alpha,beta", [
        (3, 4, 1.2, 0.3), (3, 0, 0.5, -0.5), (5, 10, 2.3, -1.1), (2, 6, 0.4, -2.6),
    ])
    def test_factorization(self, n, j, alpha, beta):
        # the plus factor carries nu = 2 - beta (nu = 1 - beta leaves a
        # half-step mismatch in the gamma arguments)
        mu = alpha - beta
        prod = (m.qpm_mult(n, j, mu, 2.0 - beta, "plus")
                * m.qpm_mult(n, j, mu, 1.0 - beta, "minus"))
        assert prod == pytest.approx(m.a_mult(n, j, alpha, beta), rel=1e-12)

    def test_cosine_chain(self):
        for n in (2, 3, 5):
            for j in range(0, 30, 2):
                lhs = m.m_mult(n, j, 1.1)
                rhs = m.m_mult(n, j, -0.8) * m.a_mult(n, j, 1.1, -0.8)
                assert lhs == pytest.approx(rhs, rel=1e-11)


class TestFunkMultiplier:
    def test_constants_fixed(self):
        assert m.funk_mult(3, 0) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("j", [0, 2, 4, 6, 8, 12, 20])
    def test_equals_legendre_at_zero(self, j):
        assert m.funk_mult(3, j) == pytest.approx(legendre_at_zero(j), rel=1e-12)

    def test_odd_degrees(self):
        assert m.funk_mult(3, 5) == 0.0
        assert m.funk_mult(7, 3) == 0.0

    def test_low_values(self):
        assert m.funk_mult(3, 2) == pytest.approx(-0.5, rel=1e-12)
        assert m.funk_mult(3, 4) == pytest.approx(0.375, rel=1e-12)


class TestPoissonMultiplier:
    def test_examples(self):
        assert m.poisson_mult(0, 0.5) == 1.0
        assert m.poisson_mult(3, 0.5) == 0.125
        assert m.poisson_mult(2, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            m.poisson_mult(2, 1.0)


class TestConstants:
    def test_limit_constant(self):
        assert m.constant("c_limit", 3, i=2) == pytest.approx(SQRT_PI, rel=1e-13)

    def test_lambda_composition(self):
        # lambda / c_limit must invert the sine multiplier at degree 0
        for n in (3, 4, 5):
            for i in range(1, n):
                c = m.constant("c_radon_composite", n, i=i)
                assert c * m.q_mult(n, 0, float(i - 1)) == pytest.approx(1.0,
                                                                         rel=1e-12)

    def test_perp_swap_value(self):
        assert m.constant("c_perp_swap", 3, i=2) == pytest.approx(1 / SQRT_PI,
                                                                  rel=1e-13)

    def test_lambda_equals_gamma_ratio(self):
        assert m.constant("lambda1", 3, i=2) == pytest.approx(1 / SQRT_PI, rel=1e-13)
        assert m.constant("lambda2", 3, i=2) == m.constant("lambda1", 3, i=2)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_right_inverse_forms_1_and_2_agree(self, n):
        # the first two right-inverse forms differ only in their constants
        # at i = n - 1, where the Radon transform over lines is the even part
        assert m.constant("a_form1", n) == pytest.approx(m.constant("a_form2", n, i=n - 1),
                                                         rel=1e-13)

    def test_ib_map(self):
        assert m.constant("ib_map", 3) == pytest.approx(math.pi, rel=1e-13)

    def test_gamma_alpha_matches_cosine_normalization(self):
        # gamma_alpha / alpha is the transform of the constant function
        alpha = 0.7
        got = m.constant("gamma_alpha", 3, alpha=alpha) / alpha
        assert got == pytest.approx(m.m_mult(3, 0, alpha), rel=1e-12)

    def test_unknown_name(self):
        with pytest.raises(UnknownConstantError):
            m.constant("nope", 3)

    @pytest.mark.parametrize("name", ["gamma_alpha", "gamma_alpha_i", "gamma_sine"])
    @pytest.mark.parametrize("alpha", [math.nan, -math.inf])
    def test_non_finite_alpha_raises(self, name, alpha):
        with pytest.raises(ValueError, match="must be finite"):
            m.constant(name, 3, i=1, alpha=alpha)

    @pytest.mark.parametrize("n", range(2, 12))
    def test_equal_constants_share_one_formula(self, n):
        # each value has one formula, so the names that carry it agree bitwise
        for i in range(1, n):
            for name, same in (("c_range_f", "c_cosine_radon"),
                               ("c_range_f1", "c_limit"), ("lambda2", "lambda1")):
                assert m.constant(name, n, i=i) == m.constant(same, n, i=i), (name, i)


class TestInversionProperty:
    @given(st.integers(min_value=2, max_value=8),
           st.integers(min_value=0, max_value=100),
           st.floats(min_value=-6.0, max_value=6.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_product_with_reflected_order_is_one(self, n, half_j, alpha):
        j = 2 * half_j
        partner = 2.0 - n - alpha
        if m.excluded(n, alpha, "M") or m.excluded(n, partner, "M"):
            return
        assert m.m_mult(n, j, alpha) * m.m_mult(n, j, partner) == pytest.approx(
            1.0, abs=1e-10)

    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=0, max_value=40),
           st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_odd_degrees_always_vanish(self, n, half_j, alpha):
        j = 2 * half_j + 1
        if not m.excluded(n, alpha, "M"):
            assert m.m_mult(n, j, alpha) == 0.0
        if not m.excluded(n, alpha, "Q"):
            try:
                assert m.q_mult(n, j, alpha) == 0.0
            except m.GammaPoleError:
                pass


class TestIdentitySuite:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_all_pass(self, n):
        grid = [-5.85 + 0.3 * k for k in range(40)]
        reports = m.check_identities(n, 100, grid, tol=1e-10)
        for r in reports:
            assert r.passed, (r.identity, r.max_abs_err, r.max_rel_err)

    def test_negative_degree_bound_raises(self):
        # an empty degree range would report the identities as checked
        with pytest.raises(ValueError, match="j_max must be >= 0"):
            m.check_identities(3, -1, [0.5])

    def test_reports_serializable(self):
        reports = m.check_identities(3, 20, [0.35, -1.15], tol=1e-10)
        for r in reports:
            d = r.to_dict()
            assert set(d) >= {"identity", "params", "max_abs_err", "max_rel_err",
                              "pass"}


# --- tables and scalars against the 50-digit closed forms --------------------


def mp_multiplier(n, j, family, params):
    """A family's multiplier from its gamma closed form at 50 digits.

    Written out here independently of the package; a denominator pole gives 0.
    """
    if family in ("M", "Q", "Funk") and j % 2:
        return 0.0
    with mpmath.workdps(50):
        g, rg = mpmath.gamma, mpmath.rgamma
        n, j = mpmath.mpf(n), mpmath.mpf(j)
        p = {k: mpmath.mpf(v) for k, v in params.items()}
        sign = -1 if int(j) // 2 % 2 else 1
        if family == "M":
            a = p["alpha"]
            value = sign * g((j + 1 - a) / 2) * rg((j + n - 1 + a) / 2)
        elif family == "Funk":
            c_limit = mpmath.sqrt(mpmath.pi) * rg((n - 1) / 2)
            value = sign * g((j + 1) / 2) * rg((j + n - 1) / 2) / c_limit
        elif family == "Q":
            a = p["alpha"]
            value = (g((j + n - 1 - a) / 2) * g((j + 1) / 2)
                     * rg((j + a + 1) / 2) * rg((j + n - 1) / 2))
        elif family == "Qplus":
            value = g((j + n - p["nu"] + 1) / 2) * rg((j + n - p["nu"] + 1 + p["mu"]) / 2)
        elif family == "Qminus":
            value = g((j + p["nu"] - p["mu"]) / 2) * rg((j + p["nu"]) / 2)
        elif family == "A":
            a, b = p["alpha"], p["beta"]
            value = (g((j + 1 - a) / 2) * g((j + n - 1 + b) / 2)
                     * rg((j + n - 1 + a) / 2) * rg((j + 1 - b) / 2))
        else:
            value = p["t"] ** j
        return float(value)


DEGREES = np.arange(201)


@functools.lru_cache(maxsize=None)
def _mp_table(n, family, params):
    return np.array([mp_multiplier(n, int(j), family, dict(params)) for j in DEGREES])


def mp_table(n, family, params):
    """``mp_multiplier`` over DEGREES, computed once per case."""
    return _mp_table(n, family, tuple(sorted(params.items())))


# orders include negative values, denominator poles (M at -3 and -4) and
# points just outside the guard band of a lattice
TABLE_CASES = {
    "M": [{"alpha": a} for a in (-5.85, -4.0, -3.0, -1.0, 0.0, 0.5, 1.0 + 1e-6,
                                 3.0 - 1e-6, 5.7)],
    "Q": [{"alpha": a} for a in (-2.3, 0.0, 0.6, 1.7, -4.5, 1e-7)],
    "Qplus": [{"mu": 0.9, "nu": 1.7}, {"mu": -1.3, "nu": 4.2}, {"mu": 2.5, "nu": -0.4}],
    "Qminus": [{"mu": 0.9, "nu": 1.7}, {"mu": -1.3, "nu": 4.2}, {"mu": 2.5, "nu": -0.4}],
    "A": [{"alpha": 1.2, "beta": 0.3}, {"alpha": 0.5, "beta": -0.5},
          {"alpha": -2.6, "beta": 2.3}, {"alpha": 1.0 + 1e-6, "beta": -5.85}],
    "Funk": [{}],
    "Poisson": [{"t": t} for t in (0.0, 0.5, 0.98)],
}
# family -> its per-degree scalar
SCALARS = {
    "M": lambda n, j, p: m.m_mult(n, j, p["alpha"]),
    "Q": lambda n, j, p: m.q_mult(n, j, p["alpha"]),
    "Qplus": lambda n, j, p: m.qpm_mult(n, j, p["mu"], p["nu"], "plus"),
    "Qminus": lambda n, j, p: m.qpm_mult(n, j, p["mu"], p["nu"], "minus"),
    "A": lambda n, j, p: m.a_mult(n, j, p["alpha"], p["beta"]),
    "Funk": lambda n, j, p: m.funk_mult(n, j),
    "Poisson": lambda n, j, p: m.poisson_mult(j, p["t"]),
}


class TestTable:
    def test_families_listed(self):
        assert set(TABLE_CASES) == set(SCALARS) == set(m.FAMILY_PARAMS)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("family", sorted(TABLE_CASES))
    def test_matches_mpmath(self, family, n):
        for params in TABLE_CASES[family]:
            got = m.table(n, DEGREES, family, **params)
            # exact zeros (odd degrees, denominator poles) must stay exact
            np.testing.assert_allclose(got, mp_table(n, family, params), rtol=1e-12,
                                       atol=0.0, err_msg=f"{family} {params}")

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("family", sorted(TABLE_CASES))
    def test_matches_scalars(self, family, n):
        # the per-degree scalars against the same 50-digit reference as ``table``
        for params in TABLE_CASES[family]:
            got = np.array([SCALARS[family](n, int(j), params) for j in DEGREES])
            np.testing.assert_allclose(got, mp_table(n, family, params), rtol=1e-12,
                                       atol=0.0, err_msg=f"{family} {params}")

    def test_broadcasts_over_orders(self):
        alphas = np.array([-2.3, 0.4, 2.6])
        got = m.table(5, DEGREES[None, :], "M", alpha=alphas[:, None])
        assert got.shape == (3, DEGREES.size)
        for row, alpha in zip(got, alphas):
            np.testing.assert_array_equal(row, m.table(5, DEGREES, "M", alpha=alpha))

    def test_denominator_pole_gives_zero(self):
        # n = 3, alpha = -4: (j + n - 1 + alpha)/2 is 0 or -1 at j = 2, 0
        got = m.table(3, np.arange(6), "M", alpha=-4.0)
        assert got[0] == got[2] == m.m_mult(3, 2, -4.0) == 0.0
        assert got[4] != 0.0

    @pytest.mark.parametrize("family,params", [
        ("Q", {"alpha": 2.0}),                       # Gamma(0) at degree 0
        ("A", {"alpha": 0.35, "beta": -4.0}),        # Gamma(-1) at degree 0
        ("Qplus", {"mu": 1.0, "nu": 4.0}),           # Gamma(0) at degree 0
        ("Qminus", {"mu": 3.0, "nu": 1.0}),          # Gamma(-1) at degree 0
    ])
    def test_numerator_pole_raises_like_scalar(self, family, params):
        with pytest.raises(GammaPoleError):
            SCALARS[family](3, 0, params)
        with pytest.raises(GammaPoleError):
            m.table(3, DEGREES, family, **params)

    @pytest.mark.parametrize("family,alpha", [
        ("M", 1.0), ("M", 3.0 + 5e-9), ("Q", 3.0), ("Q", 5.0 - 5e-9), ("M", math.nan),
    ])
    def test_excluded_order_raises(self, family, alpha):
        with pytest.raises(ExcludedParameterError, match="lattice"):
            m.table(3, DEGREES, family, alpha=alpha)
        with pytest.raises(ExcludedParameterError):
            m.table(3, DEGREES, family, alpha=np.array([0.5, alpha]))

    @pytest.mark.parametrize("family,params", [
        ("M", {"alpha": -0.7}), ("Q", {"alpha": 1.3}), ("Funk", {})])
    def test_odd_degrees_vanish(self, family, params):
        got = m.table(5, DEGREES, family, **params)
        assert np.all(got[1::2] == 0.0)
        assert np.all(got[0::2] != 0.0)

    def test_sine_identity_at_zero_is_exact(self):
        for n in (2, 3, 4, 5, 8):
            got = m.table(n, DEGREES, "Q", alpha=0.0)
            assert np.all(got[0::2] == 1.0)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_bridge_at_equal_orders_is_exactly_one(self, n):
        # each gamma pair of A(alpha, alpha) has equal arguments
        alphas = np.array([-5.85 + 0.3 * k for k in range(40)])[:, None]
        got = m.table(n, DEGREES, "A", alpha=alphas, beta=alphas)
        assert np.all(got == 1.0)

    @pytest.mark.parametrize("family,params,name", [
        ("Qplus", {"mu": math.nan, "nu": 1.0}, "mu"),
        ("Qminus", {"mu": 1.0, "nu": math.nan}, "nu"),
        ("Qminus", {"mu": 1.0, "nu": np.array([0.5, -math.inf])}, "nu"),
        ("A", {"alpha": math.nan, "beta": 0.5}, "alpha"),
        ("A", {"alpha": 0.5, "beta": math.inf}, "beta"),
    ])
    def test_non_finite_parameter_raises(self, family, params, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            m.table(3, DEGREES, family, **params)
        if np.ndim(params[name]) == 0:
            for j in (0, 1):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    SCALARS[family](3, j, params)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            m.table(3, [0, -2], "M", alpha=0.5)
        with pytest.raises(ValueError):
            m.table(3, [0.0, 2.0], "M", alpha=0.5)
        with pytest.raises(ValueError):
            m.table(1, DEGREES, "M", alpha=0.5)
        with pytest.raises(ValueError):
            m.table(3, DEGREES, "bogus")
        with pytest.raises(ValueError):
            m.table(3, DEGREES, "Poisson", t=1.0)
        with pytest.raises(TypeError):
            m.table(3, DEGREES, "Qplus", mu=1.0)
        with pytest.raises(TypeError):
            m.table(3, DEGREES, "Funk", alpha=0.5)


# --- identity suite against a scalar loop -------------------------------------


def scalar_identities(n, j_max, alpha_grid, beta_grid, tol):
    """The identity suite's first four identities as per-degree scalar loops."""

    def errs(pairs):
        abs_e = [abs(v - e) for v, e in pairs]
        return abs_e, [err / abs(e) if abs(e) > 1.0 else err
                       for err, (_, e) in zip(abs_e, pairs)]

    def ok(a):
        return not m.excluded(n, a, "M")

    degrees = range(0, j_max + 1, 2)
    reports = []
    pairs, skipped = [], 0
    for a in alpha_grid:
        if not (ok(a) and ok(2.0 - n - a)):
            skipped += 1
            continue
        pairs += [(m.m_mult(n, j, a) * m.m_mult(n, j, 2.0 - n - a), 1.0) for j in degrees]
    reports.append(make_report("inversion", {"n": n, "j_max": j_max,
                                             "alphas": len(alpha_grid), "skipped": skipped},
                               *errs(pairs), tol))
    pairs, skipped = [], 0
    for a in alpha_grid:
        if not ok(a) or m.excluded(n, a + n - 2.0, "Q"):
            skipped += 1
            continue
        try:
            pairs += [(m.m_mult(n, j, a) * m.m_mult(n, j, 0.0), m.q_mult(n, j, a + n - 2.0))
                      for j in degrees]
        except GammaPoleError:
            skipped += 1
    reports.append(make_report("semigroup", {"n": n, "j_max": j_max,
                                             "alphas": len(alpha_grid), "skipped": skipped},
                               *errs(pairs), tol))
    bridge, factors, skipped = [], [], 0
    for a in alpha_grid:
        for b in beta_grid:
            if not (ok(a) and ok(b)):
                skipped += 1
                continue
            try:
                for j in degrees:
                    av = m.a_mult(n, j, a, b)
                    bridge.append((m.m_mult(n, j, b) * av, m.m_mult(n, j, a)))
                    factors.append((m.qpm_mult(n, j, a - b, 2.0 - b, "plus")
                                    * m.qpm_mult(n, j, a - b, 1.0 - b, "minus"), av))
            except GammaPoleError:
                skipped += 1
    params = {"n": n, "j_max": j_max, "grid": f"{len(alpha_grid)}x{len(beta_grid)}",
              "skipped": skipped}
    reports.append(make_report("cosine_bridge", params, *errs(bridge), tol))
    reports.append(make_report("bridge_factors", params, *errs(factors), tol))
    return reports


class TestIdentitySuiteArrays:
    # excluded orders (1, 3, -1 for n = 3's inversion partner), semigroup
    # exclusions (alpha + n - 2 on the sine lattice) and a numerator pole of
    # a(j, alpha, -4) at degree 0 all occur in these grids
    ALPHAS = [0.35, -1.15, -4.0, 1.0, 2.0, -5.85, 4.4, 3.0 + 5e-9]
    BETAS = [-4.0, 0.5, 3.0, -2.6, -6.0]

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_scalar_loop(self, n):
        got = m.check_identities(n, 30, self.ALPHAS, tol=1e-10, beta_grid=self.BETAS)
        want = scalar_identities(n, 30, self.ALPHAS, self.BETAS, 1e-10)
        assert [r.identity for r in got[:4]] == [r.identity for r in want]
        for g, w in zip(got, want):
            assert g.params == w.params
            assert g.passed == w.passed
            assert g.max_rel_err == pytest.approx(w.max_rel_err, abs=1e-12)
        assert any(r.params["skipped"] for r in want)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_bridge_outer_product_is_the_per_alpha_maximum(self, n):
        # the CLI's 40-order grid plus an excluded order, a guard-band order
        # and beta = -4, whose a(j, alpha, -4) has numerator poles
        grid = [-6.0 + (k + 0.5) * 0.3 for k in range(40)] + [1.0, 3.0 + 5e-9, -4.0]

        def bridge(reports):
            return {r.identity: r for r in reports
                    if r.identity in ("cosine_bridge", "bridge_factors")}

        whole = bridge(m.check_identities(n, 60, grid))
        rows = [bridge(m.check_identities(n, 60, [a], beta_grid=grid)) for a in grid]
        for name, report in whole.items():
            assert report.max_abs_err == max(r[name].max_abs_err for r in rows)
            assert report.max_rel_err == max(r[name].max_rel_err for r in rows)
            assert report.params["skipped"] == sum(r[name].params["skipped"] for r in rows)
        assert whole["cosine_bridge"].params["skipped"] >= 2 * len(grid)

    def test_numerator_pole_rows_are_skipped(self):
        # a(j, 0.35, -4) has Gamma(-1) in its numerator at j = 0
        reports = {r.identity: r for r in
                   m.check_identities(3, 20, [0.35], beta_grid=[-4.0, 0.5])}
        for name in ("cosine_bridge", "bridge_factors"):
            assert reports[name].params["skipped"] == 1
            assert reports[name].passed
