"""Zonal expansions, operator application, and the direct-quadrature oracle."""

import ast
import functools
import math
import os
import pathlib
import subprocess
import sys
from dataclasses import FrozenInstanceError

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from coslab import multipliers as m
from coslab import zonal as zn
from coslab.errors import (
    InsufficientRuleError,
    QuadratureWindowError,
    RepresentationError,
)
from coslab.sphere import S2Grid

SQRT_PI = math.sqrt(math.pi)


class TestRule:
    def test_weights_sum_to_one(self):
        for n in (2, 3, 4, 5, 9):
            rule = zn.gauss_jacobi_rule(n, 12)
            assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
            assert np.all(rule.weights > 0)
            assert np.all((-1 < rule.nodes) & (rule.nodes < 1))

    def test_n3_is_legendre(self):
        rule = zn.gauss_jacobi_rule(3, 6)
        ref_nodes, ref_w = np.polynomial.legendre.leggauss(6)
        assert np.allclose(rule.nodes, ref_nodes, atol=1e-13)
        assert np.allclose(rule.weights, ref_w / 2, atol=1e-13)

    def test_second_moment_n3(self):
        rule = zn.gauss_jacobi_rule(3, 2)
        assert float(rule.weights @ rule.nodes ** 2) == pytest.approx(1 / 3,
                                                                      abs=1e-14)

    def test_second_moment_n5(self):
        # analytic oracle: int t^2 (1-t^2) dt / int (1-t^2) dt = 1/5
        rule = zn.gauss_jacobi_rule(5, 4)
        assert float(rule.weights @ rule.nodes ** 2) == pytest.approx(0.2,
                                                                      abs=1e-14)

    def test_discrete_orthonormality(self):
        for n in (2, 3, 5):
            rule = zn.gauss_jacobi_rule(n, 14)
            Z = zn.zonal_basis(n, 13, rule.nodes)
            G = (Z * rule.weights) @ Z.T
            assert np.abs(G - np.eye(14)).max() < 1e-12

    def test_slice_rule_orthogonality(self):
        # the slice variable of n = 5 has the zonal weight of dimension 4; the
        # library's raw Gauss-Jacobi weights miss orthonormality by 2.5e-13 here
        nodes, weights = zn._slice_rule(5, 128)
        Z = zn.zonal_basis(4, 127, nodes)
        G = (Z * weights) @ Z.T
        assert np.abs(G - np.eye(128)).max() <= 3e-14

    def test_rule_is_shared_and_read_only(self):
        rule = zn.gauss_jacobi_rule(5, 6)
        assert zn.gauss_jacobi_rule(5, 6) is rule
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0
        with pytest.raises(FrozenInstanceError):
            rule.nodes = np.zeros(6)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("N", [1, 6, 48])
    def test_shared_rule_is_bitwise_a_fresh_build(self, n, N):
        fresh = zn.gauss_jacobi_rule.__wrapped__(n, N)
        shared = zn.gauss_jacobi_rule(n, N)
        assert shared.nodes.tobytes() == fresh.nodes.tobytes()
        assert shared.weights.tobytes() == fresh.weights.tobytes()

    def test_grids_share_read_only_latitudes(self):
        a, b = S2Grid(48), S2Grid(48)
        assert a.t is b.t and a.wt is b.wt
        assert not (a.t.flags.writeable or a.wt.flags.writeable)


@functools.lru_cache(maxsize=None)
def _beta_law_moments(a: float, b: float, K: int) -> tuple:
    """E[x^k], k <= K, for x = 2u - 1 and u ~ Beta(b+1, a+1), at 150 digits."""
    with mpmath.workdps(150):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        mu = [mpmath.mpf(1)]                        # E[u^j]
        for i in range(K):
            mu.append(mu[-1] * (b + 1 + i) / (a + b + 2 + i))
        return tuple(float(mpmath.fsum(math.comb(k, j) * (-1) ** (k - j) * 2 ** j * mu[j]
                                       for j in range(k + 1)))
                     for k in range(K + 1))


class TestGaussRule:
    # (0, -0.95) has nodes crowding x = -1; a + b = -1 needs beta_1 in its cancelled form
    @pytest.mark.parametrize("a,b", [(0, -0.95), (-0.25, -0.75), (-0.5, -0.5), (1, 0.25),
                                     (0, 0.45), (2.5, 2.5)])
    @pytest.mark.parametrize("N", [1, 2, 6, 35, 66])
    def test_moments_match_the_beta_law(self, a, b, N):
        x, w = zn._gauss_rule(N, a, b)
        got = np.array([w @ x ** k for k in range(2 * N)])
        want = np.array(_beta_law_moments(a, b, 2 * 66 - 1)[:2 * N])
        assert np.abs(got - want).max() <= 1e-14

    def test_no_package_module_imports_scipy(self):
        importers = set()
        for path in pathlib.Path(zn.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "scipy" for name in names):
                    importers.add(path.name)
        assert importers == set()

    def test_import_and_tables_load_no_scipy(self):
        # one table of every family, each over both degree parities
        code = ("import sys\n"
                "import numpy as np\n"
                "import coslab, coslab.cli\n"
                "from coslab import multipliers as m\n"
                "params = {'M': {'alpha': -2.5}, 'Q': {'alpha': 0.5},\n"
                "          'Qplus': {'mu': 0.5, 'nu': 1.5}, 'Qminus': {'mu': 0.5, 'nu': 1.5},\n"
                "          'A': {'alpha': -2.5, 'beta': 0.5}, 'Funk': {}, 'Poisson': {'t': 0.5}}\n"
                "assert set(params) == set(m.FAMILY_PARAMS)\n"
                "for family, p in params.items():\n"
                "    m.table(3, np.arange(9), family, **p)\n"
                "loaded = sorted(name for name in sys.modules if name.startswith('scipy'))\n"
                "assert not loaded, loaded\n")
        src = str(pathlib.Path(zn.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_rules_load_no_scipy_linalg(self):
        code = ("import sys\n"
                "from coslab import sphere, zonal\n"
                "zonal.gauss_jacobi_rule(3, 48)\n"
                "zonal._cosine_rule(3, 0.5, 12)\n"
                "sphere._sine_rule(1.5, 12)\n"
                "assert 'scipy.linalg' not in sys.modules\n")
        src = str(pathlib.Path(zn.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert done.returncode == 0, done.stderr


class TestBasis:
    def test_n3_is_normalized_legendre(self):
        t = np.linspace(-1, 1, 7)
        Z = zn.zonal_basis(3, 4, t)
        P2 = 0.5 * (3 * t ** 2 - 1)
        assert np.allclose(Z[2], math.sqrt(5) * P2, atol=1e-13)
        P3 = 0.5 * (5 * t ** 3 - 3 * t)
        assert np.allclose(Z[3], math.sqrt(7) * P3, atol=1e-13)

    def test_unit_constant(self):
        Z = zn.zonal_basis(5, 3, np.array([0.2]))
        assert Z[0, 0] == 1.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9])
    def test_long_double_rows_keep_their_dtype(self, n):
        # the Gauss rules are polished on these long-double rows; at degree 6
        # the float recurrence is within 1e-15 of them (relative where |Z| > 1)
        t = np.linspace(-1, 1, 11)
        Z = zn.zonal_basis(n, 6, t.astype(np.longdouble))
        Z_float = zn.zonal_basis(n, 6, t)
        assert Z.dtype == np.longdouble and Z_float.dtype == np.float64
        assert np.all(np.abs(Z - Z_float) <= 1e-15 * np.maximum(np.abs(Z_float), 1.0))

    def test_synth_in_chunks_matches_one_table(self):
        # more points than one chunk, in a 2-d shape; a ragged last chunk
        f = zn.ZonalFunction(4, np.random.default_rng(3).uniform(-1, 1, 12))
        t = np.linspace(-1, 1, 2 * zn._POINT_CHUNK + 6).reshape(2, -1)
        want = f.coeffs @ zn.zonal_basis(4, f.degree, t.ravel())
        got = zn.zonal_synth(f, t)
        assert got.shape == t.shape
        np.testing.assert_allclose(got.ravel(), want, rtol=0, atol=1e-15)
        assert zn.zonal_synth(f, np.empty((0, 3))).shape == (0, 3)


class TestAnalyze:
    def test_constant(self):
        f = zn.zonal_analyze(4, lambda t: np.ones_like(t), 6)
        assert f.coeffs[0] == pytest.approx(1.0, abs=1e-14)
        assert np.abs(f.coeffs[1:]).max() < 1e-14

    def test_t_squared_n3(self):
        f = zn.zonal_analyze(3, lambda t: t ** 2, 6)
        assert f.coeffs[0] == pytest.approx(1 / 3, abs=1e-14)
        assert f.coeffs[2] == pytest.approx(2 / (3 * math.sqrt(5)), abs=1e-14)
        mask = np.ones(7, bool)
        mask[[0, 2]] = False
        assert np.abs(f.coeffs[mask]).max() < 1e-14

    def test_t_cubed_parity(self):
        f = zn.zonal_analyze(3, lambda t: t ** 3, 7)
        assert np.abs(f.coeffs[::2]).max() < 1e-14
        assert np.abs(f.coeffs[1::2]).max() > 0.1

    def test_insufficient_rule(self):
        rule = zn.gauss_jacobi_rule(3, 4)
        with pytest.raises(InsufficientRuleError):
            zn.zonal_analyze(3, lambda t: t, 8, rule)

    def test_dimension_mismatch(self):
        rule = zn.gauss_jacobi_rule(4, 8)
        with pytest.raises(RepresentationError):
            zn.zonal_analyze(3, lambda t: t, 4, rule)

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=9),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, n, J, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-1, 1, J + 1)
        f = zn.ZonalFunction(n, coeffs)
        back = zn.zonal_analyze(n, lambda t: zn.zonal_synth(f, t), J)
        assert np.abs(back.coeffs - coeffs).max() < 1e-12


class TestApply:
    def test_cosine_on_constant(self):
        f = zn.ZonalFunction(3, np.array([1.0]))
        out = zn.zonal_apply(f, "M", alpha=0.5)
        assert out.coeffs[0] == pytest.approx(4.0, rel=1e-12)

    def test_sine_at_zero_keeps_even_part(self):
        f = zn.ZonalFunction(3, np.array([0.3, 0.7, -0.2, 0.5]))
        out = zn.zonal_apply(f, "Q", alpha=0.0)
        assert np.allclose(out.coeffs, [0.3, 0.0, -0.2, 0.0], atol=0)

    def test_funk_of_t_squared(self):
        f = zn.zonal_analyze(3, lambda t: t ** 2, 4)
        out = zn.zonal_apply(f, "Funk")
        t = np.linspace(-1, 1, 33)
        assert np.allclose(zn.zonal_synth(out, t), (1 - t ** 2) / 2, atol=1e-13)

    def test_poisson_decay(self):
        f = zn.ZonalFunction(3, np.array([1.0, 1.0, 1.0]))
        out = zn.zonal_apply(f, "Poisson", t=0.5)
        assert np.allclose(out.coeffs, [1.0, 0.5, 0.25], atol=0)

    def test_bridge_positivity(self):
        # alpha > beta > 1-n and alpha + beta < 2 preserves nonnegativity
        rng = np.random.default_rng(5)
        t = np.linspace(-1, 1, 201)
        for _ in range(25):
            coeffs = rng.uniform(-1, 1, 13) * (1 + np.arange(13.0)) ** -2
            f = zn.ZonalFunction(3, coeffs)
            lift = float(zn.zonal_synth(f, t).min())
            coeffs[0] += 1e-3 - min(lift, 0.0)
            out = zn.zonal_apply(zn.ZonalFunction(3, coeffs), "A",
                                 alpha=0.5, beta=-0.5)
            assert float(zn.zonal_synth(out, t).min()) >= -1e-8


class TestCosineDirect:
    def test_constant_alpha_two(self):
        got = zn.zonal_cosine_direct(3, lambda t: np.ones_like(t), 2.0, 0.3)
        assert got == pytest.approx(-2 * SQRT_PI, rel=1e-12)

    def test_constant_alpha_half(self):
        got = zn.zonal_cosine_direct(3, lambda t: np.ones_like(t), 0.5, -0.7)
        assert got == pytest.approx(4.0, rel=1e-12)

    def test_odd_profile_annihilated(self):
        got = zn.zonal_cosine_direct(3, lambda t: t, 1.5, 0.4)
        assert abs(got) < 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0, 2.5])
    def test_cross_engine(self, n, alpha):
        rng = np.random.default_rng(12)
        J = 12
        coeffs = rng.uniform(-1, 1, J + 1) * (1 + np.arange(J + 1.0)) ** -2
        f = zn.ZonalFunction(n, coeffs)
        spec = zn.zonal_apply(f, "M", alpha=alpha)
        for t0 in np.linspace(-1, 1, 9):
            want = float(zn.zonal_synth(spec, t0))
            got = zn.zonal_cosine_direct(n, f, alpha, float(t0), degree_hint=J)
            assert got == pytest.approx(want, abs=1e-10)

    def test_window(self):
        f = zn.ZonalFunction(3, np.array([1.0]))
        with pytest.raises(QuadratureWindowError):
            zn.zonal_cosine_direct(3, f, 3.5, 0.0)
        with pytest.raises(QuadratureWindowError):
            zn.zonal_cosine_direct(3, f, 0.0, 0.0)
        for alpha in (math.nan, math.inf):
            with pytest.raises(ValueError, match="alpha must be finite"):
                zn.zonal_cosine_direct(3, f, alpha, 0.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0, 2.5, 2.9])
    @pytest.mark.parametrize("J", [8, 24, 64])
    def test_rule_moments_are_the_multipliers(self, n, alpha, J):
        # Funk-Hecke: the rule's moments of Z_j / Z_j(1) are the cosine
        # multipliers, odd degrees 0 through the rule's +-s symmetry
        s, w = zn._cosine_rule(n, alpha, J)
        Z = zn.zonal_basis(n, J, s)
        moments = (Z @ w) / zn.zonal_basis(n, J, 1.0)[:, 0]
        want = m.table(n, np.arange(J + 1), "M", alpha=alpha)
        assert np.all(np.abs(moments - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))

    def test_poles_at_endpoint_output(self):
        # t0 = 1 aligns the axis with the output direction
        f = zn.zonal_analyze(3, lambda t: 1 + 0.2 * t ** 2, 4)
        spec = zn.zonal_apply(f, "M", alpha=1.5)
        got = zn.zonal_cosine_direct(3, f, 1.5, 1.0, degree_hint=4)
        assert got == pytest.approx(float(zn.zonal_synth(spec, 1.0)), abs=1e-12)


class TestPoissonDirect:
    @pytest.mark.parametrize("n", [3, 5])
    def test_against_spectral(self, n):
        rng = np.random.default_rng(2)
        coeffs = rng.uniform(-1, 1, 9) * (1 + np.arange(9.0)) ** -2
        f = zn.ZonalFunction(n, coeffs)
        spec = zn.zonal_apply(f, "Poisson", t=0.5)
        for t0 in (-0.9, 0.1, 0.75):
            got = zn.zonal_poisson_direct(n, f, 0.5, t0, degree_hint=8)
            assert got == pytest.approx(float(zn.zonal_synth(spec, t0)), abs=1e-10)

    def test_kernel_is_normalized(self):
        # Poisson integral of the constant is the constant
        got = zn.zonal_poisson_direct(4, lambda t: np.ones_like(t), 0.6, 0.2)
        assert got == pytest.approx(1.0, abs=1e-12)


# both direct oracles as (n, profile, t0) -> value, with their own order or t
ORACLES = {
    "cosine": lambda n, f, t0: zn.zonal_cosine_direct(n, f, 1.5, t0, degree_hint=8),
    "poisson": lambda n, f, t0: zn.zonal_poisson_direct(n, f, 0.5, t0, degree_hint=8),
}


@pytest.mark.parametrize("oracle", sorted(ORACLES))
class TestArrayOutputPoints:
    """An array of output points t0 gives, point for point, the scalar calls."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_matches_scalar_calls_and_keeps_shape(self, oracle, n):
        rng = np.random.default_rng(n)
        f = zn.ZonalFunction(n, rng.uniform(-1, 1, 9) * (1 + np.arange(9.0)) ** -2)
        t0 = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        got = ORACLES[oracle](n, f, t0)
        assert got.shape == t0.shape
        want = np.array([ORACLES[oracle](n, f, float(t)) for t in t0.ravel()])
        np.testing.assert_allclose(got.ravel(), want, rtol=0, atol=1e-15)

    def test_float_point_gives_a_python_float(self, oracle):
        f = zn.ZonalFunction(3, np.array([1.0, 0.5, 0.25]))
        assert type(ORACLES[oracle](3, f, 0.3)) is float
        assert type(ORACLES[oracle](3, f, np.float64(-1.0))) is float

    @pytest.mark.parametrize("bad", [1.0 + 1e-12, -1.5, np.nan])
    def test_one_point_outside_rejects_the_call(self, oracle, bad):
        f = zn.ZonalFunction(3, np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match=r"t0 must lie in \[-1, 1\]"):
            ORACLES[oracle](3, f, np.array([0.0, 0.5, bad, 1.0]))
        with pytest.raises(ValueError, match=r"t0 must lie in \[-1, 1\]"):
            ORACLES[oracle](3, f, bad)


def _first_weight(rule):
    def perturbed(*args):
        s, w = rule(*args)
        return s, np.concatenate(([w[0] * (1.0 + 1e-4)], w[1:]))
    return perturbed


def _table_at(family, degree, change):
    def wrap(table):
        def perturbed(n, degrees, fam, **params):
            out = table(n, degrees, fam, **params)
            return np.where(np.asarray(degrees) == degree, change(out), out) \
                if fam == family else out
        return perturbed
    return wrap


def _odd_funk_leak(table):
    def perturbed(n, degrees, fam, **params):
        out = table(n, degrees, fam, **params)
        return out + 1e-3 * (np.asarray(degrees) % 2) if fam == "Funk" else out
    return perturbed


def _basis_row2(basis):
    # float rows only, the rows the suite analyzes and synthesizes with; the
    # cached Gauss rules run the Jacobi recurrence without zonal_basis
    def perturbed(n, J, t):
        Z = basis(n, J, t)
        if Z.dtype == np.float64 and J >= 2:
            Z[2] *= 1.0 + 1e-4
        return Z
    return perturbed


# name -> (module, attribute perturbed, wrapper, the reports it must fail in
# a run at n = 3 and 5; bridge positivity runs once).  Each perturbation is
# 1e-4 relative or more against the suite's 1e-8 and 1e-10 tolerances.  The
# bridge-positivity row negates degree 0: scaling degree 2 by 3 instead
# leaves every output of that check nonnegative, so it fails nothing.
ZONAL_PERTURBATIONS = {
    "cosine_weights": (zn, "_cosine_rule", _first_weight,
                       ["zonal_cross_engine_cosine"] * 2),
    "table_M": (m, "table", _table_at("M", 2, lambda v: v * (1.0 + 1e-4)),
                ["zonal_cross_engine_cosine"] * 2),
    "table_Poisson": (m, "table", _table_at("Poisson", 2, lambda v: v * (1.0 + 1e-4)),
                      ["zonal_cross_engine_poisson"] * 2),
    "funk_odd_leak": (m, "table", _odd_funk_leak, ["zonal_parity"] * 2),
    "basis_row2": (zn, "zonal_basis", _basis_row2, ["zonal_round_trip"] * 2),
    "table_A": (m, "table", _table_at("A", 0, lambda v: -v), ["zonal_bridge_positivity"]),
}


class TestZonalSuite:
    def test_everything_passes(self):
        reports = zn.verify_zonal_suite((2, 3, 5, 8), J=12, seed=7)
        assert [r.identity for r in reports if not r.passed] == []

    @pytest.mark.parametrize("target,attr,perturb,must_fail",
                             [pytest.param(*row, id=name)
                              for name, row in ZONAL_PERTURBATIONS.items()])
    def test_perturbation_fails_its_identities(self, monkeypatch, target, attr, perturb,
                                               must_fail):
        monkeypatch.setattr(target, attr, perturb(getattr(target, attr)))
        reports = zn.verify_zonal_suite((3, 5), J=8, seed=3)
        assert sorted(r.identity for r in reports if not r.passed) == must_fail

    def test_perturbations_cover_every_identity(self):
        # a check that no perturbation fails cannot fail at all
        reports = zn.verify_zonal_suite((3, 5), J=8, seed=3)
        covered = {name for row in ZONAL_PERTURBATIONS.values() for name in row[-1]}
        assert {r.identity for r in reports} == covered


class TestSerialization:
    def test_round_trip(self):
        f = zn.ZonalFunction(5, np.array([1.0, 0.25, -0.5]))
        d = f.to_dict()
        assert d["basis"] == "orthonormal-gegenbauer-prob"
        g = zn.ZonalFunction.from_dict(d)
        assert g.n == 5
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_rejects_unknown_basis(self):
        with pytest.raises(RepresentationError):
            zn.ZonalFunction.from_dict({"n": 3, "basis": "other", "coeffs": [1]})

    def test_coefficients_become_a_float_array(self):
        f = zn.ZonalFunction(3, [1, 0, 0.1])
        assert f.coeffs.dtype == float and f.coeffs.shape == (3,)
        assert f.odd_energy_fraction() == 0.0

    @pytest.mark.parametrize("coeffs", [[[1.0]], [[1.0, 0.5], [0.2, 0.1]], 1.0])
    def test_rejects_coefficients_that_are_not_flat(self, coeffs):
        with pytest.raises(RepresentationError, match="flat list"):
            zn.ZonalFunction(3, coeffs)


def test_gamma_sine_constant_matches_kernel_integral():
    # sine-transform normalization against a plain quadrature of its kernel
    n, alpha = 3, 1.5
    c = m.constant("gamma_sine", n, alpha=alpha)
    integral, _ = quad(lambda t: 0.5 * (1 - t * t) ** ((alpha - n + 1) / 2), -1, 1)
    assert c * integral == pytest.approx(m.q_mult(n, 0, alpha), rel=1e-10)


@pytest.mark.parametrize("call,error,says", [
    pytest.param(lambda: zn.zonal_basis(1, 3, np.zeros(2)), ValueError,
                 "dimension must be >= 2, got 1", id="basis_n1"),
    pytest.param(lambda: zn.gauss_jacobi_rule(1, 4), ValueError,
                 "dimension must be >= 2, got 1", id="rule_n1"),
    pytest.param(lambda: zn.gauss_jacobi_rule(3, 0), ValueError,
                 "need at least one node, got N=0", id="rule_N0"),
    pytest.param(lambda: zn.zonal_analyze(3, np.ones(4), 2, zn.gauss_jacobi_rule(3, 5)),
                 RepresentationError, "got 4 samples for a 5-node rule", id="sample_count"),
    pytest.param(lambda: zn.zonal_poisson_direct(3, np.cos, 1.0, 0.2), ValueError,
                 "0 <= t < 1, got 1.0", id="poisson_t1"),
    pytest.param(lambda: zn.zonal_poisson_direct(3, np.cos, -0.1, 0.2), ValueError,
                 "0 <= t < 1, got -0.1", id="poisson_t_negative"),
])
def test_input_checks(call, error, says):
    with pytest.raises(error, match=says):
        call()
