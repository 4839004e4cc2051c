"""Star-body construction, classification, and intersection-body identities."""

import math

import mpmath
import numpy as np
import pytest

from coslab import multipliers as m
from coslab import sphere as sp
from coslab import starbody as sb
from coslab import zonal as zn
from coslab.errors import (
    BadShapeParamsError,
    ExcludedParameterError,
    GammaPoleError,
    NonPositiveBodyError,
    OddInputError,
    RepresentationError,
)

SQRT_PI = math.sqrt(math.pi)


@pytest.fixture(scope="module")
def ball():
    return sb.make_body(3, "ball", r=1.0, resolution=48)


class TestMakeBody:
    def test_ball(self):
        b = sb.make_body(3, "ball", r=2.0, resolution=24)
        assert np.abs(b.repr_.values - 2.0).max() == 0.0

    def test_unit_ellipsoid_is_ball(self):
        b = sb.make_body(3, "ellipsoid", axes=[1, 1, 1], resolution=24)
        assert np.abs(b.repr_.values - 1.0).max() < 1e-14

    def test_l2_ball_is_ball(self):
        b = sb.make_body(3, "lp_ball", p=2.0, resolution=24)
        assert np.abs(b.repr_.values - 1.0).max() < 1e-12

    def test_ellipsoid_values(self):
        b = sb.make_body(3, "ellipsoid", axes=[1, 2, 3], resolution=24)
        pts = b.repr_.grid.points
        want = 1 / np.sqrt(pts[..., 0] ** 2 + pts[..., 1] ** 2 / 4
                           + pts[..., 2] ** 2 / 9)
        assert np.abs(b.repr_.values - want).max() < 1e-14

    def test_bad_params(self):
        with pytest.raises(BadShapeParamsError):
            sb.make_body(3, "ball", r=-1.0)
        with pytest.raises(BadShapeParamsError):
            sb.make_body(3, "ellipsoid", axes=[1, 2])
        with pytest.raises(BadShapeParamsError):
            sb.make_body(3, "lp_ball", p=0.0)
        with pytest.raises(BadShapeParamsError):
            sb.make_body(3, "cube")

    @pytest.mark.parametrize("n,shape,params", [
        (3, "ball", {"r": math.nan}),
        (3, "ball", {"r": math.inf}),
        (5, "ball", {"r": math.nan}),
        (3, "lp_ball", {"p": math.nan}),
        (3, "ellipsoid", {"axes": [1.0, 1.0, math.inf]}),
        (5, "ellipsoid", {"axes": [1.0, 1.0, 1.0, 1.0, math.nan]}),
    ])
    def test_non_finite_params(self, n, shape, params):
        with pytest.raises(BadShapeParamsError, match="finite"):
            sb.make_body(n, shape, resolution=16, **params)

    def test_zonal_ball(self):
        b = sb.make_body(5, "ball", r=1.5, resolution=16)
        assert not b.is_grid
        assert b.repr_.coeffs[0] == 1.5

    def test_zonal_ellipsoid_needs_axial_symmetry(self):
        # profile coefficients decay like 0.54^j; degree 48 leaves ~1e-9
        b = sb.make_body(4, "ellipsoid", axes=[1, 1, 1, 2], resolution=48)
        t = np.linspace(-1, 1, 7)
        want = 1 / np.sqrt((1 - t * t) + t * t / 4)
        assert np.abs(zn.zonal_synth(b.repr_, t) - want).max() < 1e-8
        with pytest.raises(BadShapeParamsError):
            sb.make_body(4, "ellipsoid", axes=[1, 2, 1, 2], resolution=16)

    def test_zonal_lp_ball_restricted(self):
        with pytest.raises(BadShapeParamsError):
            sb.make_body(5, "lp_ball", p=1.0, resolution=16)

    def test_rejects_asymmetric_body(self):
        grid = sp.S2Grid(16)
        vals = 1.0 + 0.2 * grid.points[..., 2]   # odd bump
        with pytest.raises(OddInputError):
            sb.StarBody(3, sp.GridFunction(grid, vals), {})
        with pytest.raises(OddInputError):
            sb.StarBody(3, zn.ZonalFunction(3, np.array([1.0, 0.2])), {})

    def test_rejects_nonpositive_body(self):
        grid = sp.S2Grid(16)
        vals = np.full((16, 32), -1.0)
        with pytest.raises(NonPositiveBodyError):
            sb.StarBody(3, sp.GridFunction(grid, vals), {})

    @pytest.mark.parametrize("shape,params", [("ball", {"r": 2.0}),
                                              ("ellipsoid", {"axes": [1, 1, 1, 1.5]}),
                                              ("lp_ball", {"p": 2.0})])
    def test_resolution_0_is_a_degree_0_zonal_body(self, shape, params):
        b = sb.make_body(4, shape, resolution=0, **params)
        assert b.repr_.coeffs.shape == (1,) and b.repr_.coeffs[0] > 0

    def test_zonal_l2_ball_is_the_unit_ball(self):
        b = sb.make_body(5, "lp_ball", p=2.0, resolution=6)
        assert b.meta == {"shape": "ball", "params": {"r": 1.0}}
        assert b.repr_.coeffs.tolist() == [1.0] + [0.0] * 6

    def test_bodies_of_one_resolution_share_their_legendre_table(self):
        a = sb.make_body(3, "ball", resolution=21)
        b = sb.make_body(3, "ellipsoid", axes=[1, 2, 3], resolution=21)
        assert a.repr_.grid.legendre_table(10) is b.repr_.grid.legendre_table(10)
        other = sb.make_body(3, "ball", resolution=23).repr_.grid
        assert other.legendre_table(10) is not a.repr_.grid.legendre_table(10)
        assert not (a.repr_.grid.points.flags.writeable or a.repr_.grid.phi.flags.writeable)


class TestIntersectionBody:
    def test_ball_section_area(self):
        b = sb.make_body(3, "ball", r=2.0, resolution=24)
        ib = sb.intersection_body(b)
        assert np.abs(ib.repr_.values - math.pi * 4.0).max() < 1e-12

    def test_spheroid_polar_section(self):
        # sections perpendicular to the symmetry axis are disks of radius a
        a, c = 1.0, 1.5
        b = sb.make_body(3, "ellipsoid", axes=[a, a, c], resolution=32)
        ib = sb.intersection_body(b)
        north = np.array([0.0, 0.0, 1.0])
        got = sp.synthesize_at(sp.analyze(ib.repr_, 30), north)
        assert float(got) == pytest.approx(math.pi * a * a, abs=1e-9)

    def test_general_ellipsoid_against_polar_area_oracle(self):
        # cross-section area by direct 1-D polar quadrature of rho^2 / 2;
        # rho^2 of the (1,2,3)-ellipsoid is analytic, not band-limited, so
        # the tolerance reflects its spectral decay at the grid band limit
        axes = [1.0, 2.0, 3.0]
        b = sb.make_body(3, "ellipsoid", axes=axes, resolution=64)
        ib = sb.intersection_body(b)
        e_x = np.array([1.0, 0.0, 0.0])
        got = float(sp.synthesize_at(sp.analyze(ib.repr_, 62), e_x))
        phi = np.linspace(0, 2 * np.pi, 20001)[:-1]
        rho2 = 1.0 / (np.cos(phi) ** 2 / axes[1] ** 2 + np.sin(phi) ** 2 / axes[2] ** 2)
        oracle = 0.5 * np.mean(rho2) * 2 * np.pi
        assert oracle == pytest.approx(6 * math.pi, rel=1e-12)
        assert got == pytest.approx(oracle, rel=1e-7)


class TestBallClassSign:
    def test_low_dimension_values(self):
        assert sb.ball_class_sign(3, 1.0) == pytest.approx(1 / SQRT_PI, rel=1e-13)
        assert sb.ball_class_sign(3, -1.0) == pytest.approx(-1 / (2 * SQRT_PI),
                                                            rel=1e-13)

    def test_high_dimension_interval(self):
        # alpha in (n, n+2) makes the value negative
        assert sb.ball_class_sign(5, 5.5) < 0

    def test_interval_pattern(self):
        for alpha, positive in [(-2.5, True), (-1.0, False), (0.5, True),
                                (2.5, True), (3.5, False), (5.5, True)]:
            assert (sb.ball_class_sign(3, alpha) > 0) is positive

    def test_pole(self):
        with pytest.raises(GammaPoleError):
            sb.ball_class_sign(3, 3.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_order_raises(self, alpha):
        with pytest.raises(ValueError, match="must be finite"):
            sb.ball_class_sign(3, alpha)

    @pytest.mark.parametrize("n,alpha", [(2, -401.0), (3, -401.5), (3, -403.5)])
    def test_overflow_is_signed_inf(self, n, alpha):
        # Gamma((n - alpha)/2) / Gamma(alpha/2) beyond the float range
        want = float(mpmath.gamma((n - alpha) / 2) / mpmath.gamma(alpha / 2))
        assert math.isinf(want) and sb.ball_class_sign(n, alpha) == want



class TestClassify:
    def test_unit_ball_member_at_one(self, ball):
        v = sb.classify_K_alpha(ball, 1.0)
        assert v.member == "yes"
        assert v.min_value == pytest.approx(1 / SQRT_PI, abs=1e-10)

    def test_unit_ball_not_member_at_minus_one(self, ball):
        v = sb.classify_K_alpha(ball, -1.0)
        assert v.member == "no"
        assert v.min_value == pytest.approx(-1 / (2 * SQRT_PI), abs=1e-10)

    def test_scaled_ball_min_value(self):
        r = 1.7
        b = sb.make_body(3, "ball", r=r, resolution=48)
        v = sb.classify_K_alpha(b, 1.0)
        assert v.min_value == pytest.approx(r * 1 / SQRT_PI, rel=1e-10)

    def test_verdict_scale_invariant(self):
        for r in (0.3, 1.0, 4.0):
            b = sb.make_body(3, "ball", r=r, resolution=48)
            assert sb.classify_K_alpha(b, -1.0).member == "no"
            assert sb.classify_K_alpha(b, 1.0).member == "yes"

    def test_spheroid_is_intersection_body(self):
        body = sb.make_body(3, "ellipsoid", axes=[1, 1, 1.5], resolution=48)
        v = sb.classify_K_alpha(body, 1.0)
        assert v.member == "yes"
        # cross-check: the generating body of its intersection-body
        # representation has positive squared radial function
        coeffs = sp.analyze(body.repr_, 24)
        inv = sp.apply_spectral(sp.apply_spectral(coeffs, "Funk"), "M", alpha=-1.0)
        # rho_L^2 = (1/pi) Funk^{-1} rho_K; Funk^{-1} = sqrt(pi) M^{-1}
        rho_l2 = sp.synthesize(inv, body.repr_.grid).values * SQRT_PI / math.pi
        assert rho_l2.min() > 0

    def test_margin_monotone(self, ball):
        small = sb.classify_K_alpha(ball, 1.0, margin=1e-9)
        huge = sb.classify_K_alpha(ball, 1.0, margin=10.0)
        assert small.member == "yes"
        assert huge.member == "inconclusive"

    def test_excluded_alpha(self, ball):
        with pytest.raises(ExcludedParameterError):
            sb.classify_K_alpha(ball, 0.0)
        with pytest.raises(ExcludedParameterError):
            sb.classify_K_alpha(ball, 3.0)

    @pytest.mark.parametrize("n", [3, 5])
    def test_one_lattice_check_per_verdict(self, monkeypatch, n):
        # the class lattice holds M's at 1 - n + alpha, so the verdict's
        # multipliers are not checked a second time
        body = sb.make_body(n, "ball", resolution=8)
        families, mask = [], m._excluded_mask
        monkeypatch.setattr(m, "_excluded_mask",
                            lambda *args: families.append(args[2]) or mask(*args))
        for alpha in (-2.5, 0.5, 1.0):
            sb.classify_K_alpha(body, alpha)
        assert families == [m.Family.K_CLASS] * 3

    @pytest.mark.parametrize("kind", ["grid", "zonal"])
    def test_odd_power_rejected(self, kind):
        # odd energy ~5e-9 passes the body's check (limit 1e-8); rho^2.9 has ~8x that
        if kind == "grid":
            grid = sp.S2Grid(16)
            body = sb.StarBody(3, sp.GridFunction(grid, 1.0 + 1.22e-4 * grid.points[..., 2]),
                               {})
        else:
            body = sb.StarBody(3, zn.ZonalFunction(3, np.array([1.0, 7.07e-5])), {})
        assert sb.classify_K_alpha(body, 0.5).member == "yes"
        with pytest.raises(OddInputError):
            sb.classify_K_alpha(body, 2.9)

    def test_smoothing_domain(self, ball):
        with pytest.raises(ValueError):
            sb.classify_K_alpha(ball, 1.0, t_smooth=1.0)

    @pytest.mark.parametrize("kind", ["grid", "zonal"])
    @pytest.mark.parametrize("margin", [math.nan, math.inf, -1.0])
    def test_margin_must_be_finite_and_nonnegative(self, kind, margin):
        body = sb.make_body(3 if kind == "grid" else 5, "ball", resolution=24)
        with pytest.raises(ValueError, match="margin"):
            sb.classify_K_alpha(body, 1.0, margin=margin)

    @pytest.mark.parametrize("kind", ["grid", "zonal"])
    def test_negative_band_limit(self, kind):
        body = sb.make_body(3 if kind == "grid" else 5, "ball", resolution=24)
        with pytest.raises(ValueError, match="band limit"):
            sb.classify_K_alpha(body, 1.0, band_limit=-1)

    def test_zonal_basis_built_once_per_rule(self, monkeypatch):
        # the basis at the rule nodes and the density samples is built once per
        # (n, J, N): a second verdict on the body evaluates no zonal_basis
        sb._class_basis.cache_clear()
        calls = []
        basis = zn.zonal_basis

        def counting(n, J, t):
            calls.append((n, J, len(t)))
            return basis(n, J, t)

        monkeypatch.setattr(zn, "zonal_basis", counting)
        body = sb.make_body(5, "ellipsoid", axes=[1, 1, 1, 1, 1.3], resolution=30)
        built = len(calls)                      # make_body's own analysis
        first = sb.classify_K_alpha(body, 1.5)
        assert calls[built:] == [(5, 30, 48 + 201)]
        again = [sb.classify_K_alpha(body, 1.5), sb.classify_K_alpha(body, 0.7)]
        assert calls[built:] == [(5, 30, 48 + 201)]
        assert again[0] == first
        # another band limit, or a body of another degree, gets its own table
        sb.classify_K_alpha(body, 1.5, band_limit=12)
        assert calls[-1] == (5, 30, 24 + 201)
        sb.classify_K_alpha(sb.make_body(5, "ellipsoid", axes=[1, 1, 1, 1, 1.3],
                                         resolution=20), 1.5)
        assert calls[-1] == (5, 24, 48 + 201)
        built = len(calls)
        table = sb._class_basis(5, 30, 48)      # the first body's table is still cached
        assert len(calls) == built
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 2.0

    def test_cached_basis_gives_the_verdicts_of_a_fresh_one(self):
        # each verdict, from a fresh table and from the cached one, is bitwise
        # equal to one computed from a basis built for it alone
        body = sb.make_body(5, "ellipsoid", axes=[1, 1, 1, 1, 2.2], resolution=30)
        for alpha in (-2.5, -0.5, 0.7, 1.0, 2.9):
            sb._class_basis.cache_clear()
            fresh = sb.classify_K_alpha(body, alpha)
            cached = sb.classify_K_alpha(body, alpha)
            assert fresh == cached
            rule = zn.gauss_jacobi_rule(5, 48)
            Z = zn.zonal_basis(5, 30, np.concatenate((rule.nodes, sb._DENSITY_T)))
            profile = (body.repr_.coeffs @ Z[:, :48]) ** alpha
            coeffs = Z[:25, :48] @ (rule.weights * profile)
            factors = sb._class_factors(5, 24, alpha, sb.DEFAULT_SMOOTHING)
            density = (factors * coeffs) @ Z[:25, 48:]
            assert cached.min_value == float(density.min())

    @pytest.mark.parametrize("n,resolution", [(3, 48), (5, 24)])
    def test_sweep_matches_closed_form(self, n, resolution):
        body = sb.make_body(n, "ball", r=1.0, resolution=resolution)
        band = 12 if n == 3 else 16
        for alpha in np.linspace(-2.7, 2.7, 19):
            alpha = float(alpha)
            if m.excluded(n, alpha, m.Family.K_CLASS):
                continue
            v = sb.classify_K_alpha(body, alpha, band_limit=band)
            want = sb.ball_class_sign(n, alpha)
            assert v.min_value == pytest.approx(want, abs=1e-10, rel=1e-10)
            assert v.member == ("yes" if want > 0 else "no")

    def test_zonal_spheroid_classifies(self):
        body = sb.make_body(5, "ellipsoid", axes=[1, 1, 1, 1, 1.3], resolution=20)
        v = sb.classify_K_alpha(body, 1.0)
        assert v.member == "yes"
        assert v.tail_energy < 1e-8


def test_body_on_a_list_of_zonal_coefficients():
    # the payload's coefficients are an array, whatever the caller passed
    body = sb.StarBody(3, zn.ZonalFunction(3, [1.0, 0.0, 0.1]), {})
    assert body.repr_.coeffs.dtype == float
    assert sb.classify_K_alpha(body, 1.0).member in ("yes", "no", "inconclusive")


class TestEmbedding:
    # The ball embeds in every L_p: the criterion is the sign of the Fourier
    # transform of Gamma(-p/2) ||x||^p, not of the order -p class density,
    # which is negative for the ball at p in (0, 2).
    def test_ball_p1_sign(self, ball):
        assert sb.embeds_in_Lp(ball, 1.0).member == "yes"
        v = sb.classify_K_alpha(ball, -1.0)
        assert v.min_value == pytest.approx(sb.ball_class_sign(3, -1.0), abs=1e-10)

    def test_ball_p_half_sign(self, ball):
        assert sb.embeds_in_Lp(ball, 0.5).member == "yes"
        v = sb.classify_K_alpha(ball, -0.5)
        assert math.copysign(1, v.min_value) == math.copysign(
            1, sb.ball_class_sign(3, -0.5))

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.4, 1.9, 3.0, 5.0])
    def test_ball_embeds(self, ball, p):
        v = sb.embeds_in_Lp(ball, p)
        assert v.member == "yes" and v.min_value > 0.0
        assert v.min_value == pytest.approx(abs(sb.ball_class_sign(3, -p)), rel=1e-8)

    @pytest.mark.parametrize("q", [3.0, 4.0, 8.0])
    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 1.9])
    def test_lq_ball_does_not_embed(self, q, p):
        # l_q, q > 2, embeds in no L_p with p <= 2 (Koldobsky, Schoenberg's
        # problem on positive definite functions, 1991)
        v = sb.embeds_in_Lp(sb.make_body(3, "lp_ball", p=q, resolution=48), p)
        assert v.member == "no" and v.min_value < 0.0

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_non_finite_p_rejected(self, ball, p):
        with pytest.raises(ValueError, match="finite"):
            sb.embeds_in_Lp(ball, p)

    def test_even_p_rejected(self, ball):
        with pytest.raises(ExcludedParameterError):
            sb.embeds_in_Lp(ball, 2.0)
        with pytest.raises(ExcludedParameterError):
            sb.embeds_in_Lp(ball, -1.0)


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(8)
    K = sb._random_body(rng, 48)
    L = sb._half_section_partner(K)
    return K, L


class TestPairCheck:

    def test_constructed_pair_passes_i2(self, pair):
        K, L = pair
        rep = sb.i_intersection_pair_check(K, L, 2, tol=1e-6)
        assert rep.passed, rep.to_dict()

    def test_symmetry_i1(self, pair):
        K, L = pair
        rep = sb.i_intersection_pair_check(L, K, 1, tol=1e-6)
        assert rep.passed, rep.to_dict()

    def test_ball_pair_rejected(self, ball):
        rep = sb.i_intersection_pair_check(ball, ball, 2, tol=1e-6)
        assert not rep.passed
        # the residual is the pi-vs-2 mismatch
        assert rep.max_rel_err == pytest.approx((math.pi - 2) / 2, rel=1e-10)

    def test_scrambled_pair_rejected(self, pair):
        K, L = pair
        other = sb.make_body(3, "ellipsoid", axes=[1, 1, 1.4], resolution=48)
        rep = sb.i_intersection_pair_check(K, other, 2, tol=1e-6)
        assert not rep.passed


class TestIstarChain:
    def test_constant_density(self):
        grid = sp.S2Grid(32)
        g = sp.GridFunction(grid, np.ones((32, 64)))
        rep = sb.istar_chain_check(g, tol=1e-12)
        assert rep.passed

    def test_degree_two_density(self):
        grid = sp.S2Grid(32)
        c = np.zeros(9 ** 2)
        hc = sp.HarmonicCoeffs(8, c)
        c[0] = 1.0
        c[hc.index(2, 0)] = 0.3
        g = sp.synthesize(sp.HarmonicCoeffs(8, c), grid)
        rep = sb.istar_chain_check(g, tol=1e-8)
        assert rep.passed
        assert rep.max_abs_err < 1e-8

    def test_odd_density_rejected(self):
        grid = sp.S2Grid(32)
        g = sp.GridFunction(grid, 1.0 + 0.1 * grid.points[..., 2])
        with pytest.raises(OddInputError):
            sb.istar_chain_check(g)

    def test_nonpositive_rejected(self):
        grid = sp.S2Grid(32)
        c = np.zeros(9 ** 2)
        hc = sp.HarmonicCoeffs(8, c)
        c[hc.index(2, 0)] = 5.0   # mean-zero zonal: funk transform dips negative
        g = sp.synthesize(sp.HarmonicCoeffs(8, c), grid)
        with pytest.raises(NonPositiveBodyError):
            sb.istar_chain_check(g)


class TestSerialization:
    def test_grid_body_round_trip(self, ball):
        d = ball.to_dict()
        assert d["repr_kind"] == "grid"
        back = sb.StarBody.from_dict(d)
        assert np.allclose(back.repr_.values, ball.repr_.values, atol=0)
        assert back.meta["shape"] == "ball"

    def test_zonal_body_round_trip(self):
        b = sb.make_body(5, "ball", r=2.0, resolution=8)
        back = sb.StarBody.from_dict(b.to_dict())
        assert not back.is_grid
        assert np.array_equal(back.repr_.coeffs, b.repr_.coeffs)

    def test_verdict_dict(self, ball):
        v = sb.classify_K_alpha(ball, 1.0)
        d = v.to_dict()
        assert set(d) == {"alpha", "member", "min_value", "margin", "smoothing_t",
                          "tail_energy"}


class TestSuite:
    def test_all_pass(self):
        reports = sb.verify_starbody_suite(seed=11, tol=1e-6)
        failed = [r for r in reports if not r.passed]
        assert not failed, [(r.identity, r.max_abs_err, r.max_rel_err)
                            for r in failed]


def _ball(resolution=8):
    return sb.make_body(3, "ball", resolution=resolution)


@pytest.mark.parametrize("call,error,says", [
    pytest.param(lambda: sb.StarBody(4, _ball().repr_, {}), RepresentationError,
                 "grid-represented bodies live in R\\^3", id="grid_body_n4"),
    pytest.param(lambda: sb.StarBody.from_dict({"n": 3, "repr_kind": "mesh", "payload": {}}),
                 RepresentationError, "unknown repr_kind 'mesh'", id="repr_kind"),
    pytest.param(lambda: sb.make_body(5, "ball", resolution=4).radial_power(2.0),
                 RepresentationError, "radial_power on coefficients", id="zonal_radial_power"),
    pytest.param(lambda: sb.i_intersection_pair_check(_ball(), _ball(), 3), ValueError,
                 "i must be 1 or 2", id="pair_i3"),
    pytest.param(lambda: sb.i_intersection_pair_check(_ball(), _ball(10), 2),
                 RepresentationError, "same grid", id="pair_grids"),
])
def test_input_checks(call, error, says):
    with pytest.raises(error, match=says):
        call()
