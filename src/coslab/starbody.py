"""Construction and classification of origin-symmetric star bodies.

A star body is carried by its radial function rho on the sphere: a grid
function for n = 3, a zonal profile for general n.  The classifier decides
membership of K in the order-alpha body class by the positivity criterion:
K belongs to the class iff the transform of rho^alpha of order (1-n+alpha)
is a nonnegative measure.  From band-limited data this is decided up to a
margin after Poisson smoothing, which keeps smoothed members inside the
class: a strictly positive smoothed minimum certifies membership of the
smoothed body, a strictly negative one certifies non-membership, and
anything inside the margin stays inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import gammasgn

from . import multipliers as mult
from . import sphere
from . import zonal as zn
from ._gamma import gamma_ratio
from .errors import (
    BadShapeParamsError,
    ExcludedParameterError,
    NonPositiveBodyError,
    OddInputError,
    RepresentationError,
)
from .reports import IdentityReport, make_report

__all__ = [
    "StarBody",
    "ClassVerdict",
    "make_body",
    "intersection_body",
    "classify_K_alpha",
    "ball_class_sign",
    "i_intersection_pair_check",
    "embeds_in_Lp",
    "istar_chain_check",
    "verify_starbody_suite",
]

ODD_ENERGY_LIMIT = 1e-8
DEFAULT_CLASSIFY_L = 24
_DENSITY_T = np.linspace(-1.0, 1.0, 201)    # where zonal class densities are sampled


@dataclass
class StarBody:
    """Origin-symmetric star body given by its radial function."""

    n: int
    repr_: "sphere.GridFunction | zn.ZonalFunction"
    meta: dict

    def __post_init__(self):
        if self.is_grid:
            if self.n != 3:
                raise RepresentationError("grid-represented bodies live in R^3")
            values = self.repr_.values
        else:
            values = zn.zonal_synth(self.repr_, np.linspace(-1.0, 1.0, 401))
        if float(values.min()) <= 0.0:
            raise NonPositiveBodyError("radial function must be strictly positive")
        if self.repr_.odd_energy_fraction() > ODD_ENERGY_LIMIT:
            raise OddInputError("body is not origin-symmetric (odd energy above limit)")

    @property
    def is_grid(self) -> bool:
        return isinstance(self.repr_, sphere.GridFunction)

    def radial_power(self, exponent: float):
        """Pointwise rho^exponent in the body's own representation."""
        if self.is_grid:
            return sphere.GridFunction(self.repr_.grid, self.repr_.values ** exponent)
        raise RepresentationError("radial_power on coefficients needs a grid body")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "repr_kind": "grid" if self.is_grid else "zonal",
            "payload": self.repr_.to_dict(),
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StarBody":
        kind = d.get("repr_kind")
        if kind == "grid":
            rep = sphere.GridFunction.from_dict(d["payload"])
        elif kind == "zonal":
            rep = zn.ZonalFunction.from_dict(d["payload"])
        else:
            raise RepresentationError(f"unknown repr_kind {kind!r}")
        return cls(int(d["n"]), rep, dict(d.get("meta", {})))


@dataclass
class ClassVerdict:
    """Membership verdict for one order parameter."""

    alpha: float
    member: str            # "yes" | "no" | "inconclusive"
    min_value: float
    margin: float
    smoothing_t: float
    tail_energy: float

    def to_dict(self) -> dict:
        return asdict(self)


# --- construction -------------------------------------------------------------


def make_body(n: int, shape: str, *, r: float = 1.0, axes=None, p: float = 2.0,
              resolution: int = 48) -> StarBody:
    """Closed-form star bodies: ball(r), ellipsoid(axes), lp_ball(p).

    n = 3 bodies are sampled on a grid with ``resolution`` latitudes; other
    dimensions use the zonal representation, which restricts shapes to the
    axially symmetric ones (ball; ellipsoid with equal first n-1 semi-axes).
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if n == 3:
        grid = sphere.S2Grid(resolution)
        pts = grid.points
        if shape == "ball":
            if not (math.isfinite(r) and r > 0):
                raise BadShapeParamsError(f"ball radius must be positive and finite, got {r}")
            vals = np.full(pts.shape[:2], float(r))
            meta = {"shape": "ball", "params": {"r": r}}
        elif shape == "ellipsoid":
            axes = _check_axes(axes, 3)
            vals = 1.0 / np.sqrt(sum((pts[..., k] / axes[k]) ** 2 for k in range(3)))
            meta = {"shape": "ellipsoid", "params": {"axes": list(axes)}}
        elif shape == "lp_ball":
            if not (math.isfinite(p) and p > 0):
                raise BadShapeParamsError(f"lp exponent must be positive and finite, got {p}")
            vals = (np.abs(pts[..., 0]) ** p + np.abs(pts[..., 1]) ** p
                    + np.abs(pts[..., 2]) ** p) ** (-1.0 / p)
            meta = {"shape": "lp_ball", "params": {"p": p}}
        else:
            raise BadShapeParamsError(f"unknown shape {shape!r}")
        return StarBody(3, sphere.GridFunction(grid, vals), meta)

    J = resolution
    if shape == "ball":
        if not (math.isfinite(r) and r > 0):
            raise BadShapeParamsError(f"ball radius must be positive and finite, got {r}")
        coeffs = np.zeros(J + 1)
        coeffs[0] = float(r)
        return StarBody(n, zn.ZonalFunction(n, coeffs),
                        {"shape": "ball", "params": {"r": r}})
    if shape == "ellipsoid":
        axes = _check_axes(axes, n)
        if any(abs(a - axes[0]) > 1e-14 for a in axes[:-1]):
            raise BadShapeParamsError(
                "outside R^3, ellipsoids must be axially symmetric "
                "(equal first n-1 semi-axes) to have a zonal radial function")
        a, c = axes[0], axes[-1]
        profile = lambda t: 1.0 / np.sqrt((1.0 - t * t) / a ** 2 + t * t / c ** 2)
        rule = zn.gauss_jacobi_rule(n, max(2 * J, J + 1))
        f = zn.zonal_analyze(n, profile, J, rule)
        return StarBody(n, f, {"shape": "ellipsoid", "params": {"axes": list(axes)}})
    if shape == "lp_ball":
        if p == 2.0:
            return make_body(n, "ball", r=1.0, resolution=resolution)
        raise BadShapeParamsError(
            "lp_ball with p != 2 is not axially symmetric; only n = 3 supported")
    raise BadShapeParamsError(f"unknown shape {shape!r}")


def _check_axes(axes, n: int):
    if axes is None or len(axes) != n:
        raise BadShapeParamsError(f"ellipsoid in R^{n} needs {n} semi-axes, got {axes}")
    axes = [float(a) for a in axes]
    if not all(math.isfinite(a) and a > 0 for a in axes):
        raise BadShapeParamsError(f"semi-axes must be positive and finite, got {axes}")
    return axes


def intersection_body(body: StarBody) -> StarBody:
    """Intersection body: radial function = central-section area.

    rho_out(u) = vol_2(body intersect u-perp) = sigma(2)/2 * (great-circle
    average of rho^2)(u); strictly positive whenever the input is a body.
    """
    if not body.is_grid:
        raise RepresentationError("intersection_body needs a grid body (n = 3)")
    sections = sphere.funk_direct(body.radial_power(2.0))
    factor = mult.constant("ib_map", 3)
    vals = factor * sections.values
    if vals.min() <= 0.0:
        raise NonPositiveBodyError("section areas must stay positive")
    meta = {"shape": "intersection_body", "params": {"of": body.meta}}
    return StarBody(3, sphere.GridFunction(body.repr_.grid, vals), meta)


# --- classification -----------------------------------------------------------


def ball_class_sign(n: int, alpha: float) -> float:
    """Closed-form smoothed density of the unit ball: Gamma((n-alpha)/2)/Gamma(alpha/2).

    GammaPoleError at alpha = n, n+2, ...; 0 at alpha = 0, -2, ...
    """
    return gamma_ratio([((n - alpha) / 2.0, alpha / 2.0)])


def _verdict(min_value: float, margin: float) -> str:
    if min_value >= margin:
        return "yes"
    if min_value <= -margin:
        return "no"
    return "inconclusive"


def _class_factors(n: int, L: int, alpha: float, t_smooth: float) -> np.ndarray:
    """Degree factors m(n, j, 1-n+alpha) t^j of the smoothed class density, j = 0..L."""
    js = np.arange(L + 1)
    return mult.table(n, js, "M", alpha=1.0 - n + alpha) * t_smooth ** js


def classify_K_alpha(body: StarBody, alpha: float, t_smooth: float = 0.98,
                     margin: float = 1e-7,
                     band_limit: int | None = None) -> ClassVerdict:
    """Decide membership of the body in the order-alpha class.

    Computes the Poisson-smoothed candidate density: analyze rho^alpha,
    multiply degree j by m_mult(n, j, 1-n+alpha) * t_smooth^j, synthesize,
    and take the minimum.  The verdict follows the sign of the minimum
    relative to the margin; tail_energy reports the coefficient energy in
    the top four degrees as a truncation-risk indicator.
    """
    return _signed_verdict(body, alpha, 1.0, t_smooth, margin, band_limit)


def _signed_verdict(body: StarBody, alpha: float, sign: float, t_smooth: float,
                    margin: float, band_limit: int | None) -> ClassVerdict:
    """Verdict on the minimum of sign times the smoothed order-alpha class density."""
    n = body.n
    mult.check_order(n, alpha, mult.Family.K_CLASS)
    if not 0.0 < t_smooth < 1.0:
        raise ValueError(f"smoothing parameter must be in (0,1), got {t_smooth}")
    if not (math.isfinite(margin) and margin >= 0.0):
        raise ValueError(f"margin must be finite and >= 0, got {margin}")
    if band_limit is not None and band_limit < 0:
        raise ValueError(f"band limit must be >= 0, got {band_limit}")

    if body.is_grid:
        grid = body.repr_.grid
        L = band_limit if band_limit is not None else min(DEFAULT_CLASSIFY_L,
                                                          grid.band_limit)
        powered = body.radial_power(alpha)
        coeffs = sphere.analyze(powered, L)
        factors = _class_factors(n, L, alpha, t_smooth)
        density = sphere.synthesize(coeffs.scale_degrees(factors), grid).values
        tail = _tail_energy(coeffs.degree_energies())
    else:
        L = band_limit if band_limit is not None else DEFAULT_CLASSIFY_L
        rule = zn.gauss_jacobi_rule(n, max(2 * L, L + 1))
        rho = body.repr_
        # one basis evaluation serves the profile at the rule nodes, the
        # analysis there and the density on its sampling grid
        nodes = len(rule)
        basis = zn.zonal_basis(n, max(rho.degree, L),
                               np.concatenate((rule.nodes, _DENSITY_T)))
        profile = (rho.coeffs @ basis[:rho.degree + 1, :nodes]) ** alpha
        coeffs = zn.ZonalFunction(n, basis[:L + 1, :nodes] @ (rule.weights * profile))
        smoothed = _class_factors(n, L, alpha, t_smooth) * coeffs.coeffs
        density = smoothed @ basis[:L + 1, nodes:]
        tail = _tail_energy(coeffs.coeffs ** 2)
    if coeffs.odd_energy_fraction() > ODD_ENERGY_LIMIT:
        raise OddInputError("rho^alpha has odd energy above the limit")

    min_value = float((sign * density).min())
    return ClassVerdict(alpha=float(alpha), member=_verdict(min_value, margin),
                        min_value=min_value, margin=margin, smoothing_t=t_smooth,
                        tail_energy=tail)


def _tail_energy(per_degree: np.ndarray) -> float:
    total = float(per_degree.sum())
    if total == 0.0:
        return 0.0
    return float(per_degree[-4:].sum()) / total


def embeds_in_Lp(body: StarBody, p: float) -> ClassVerdict:
    """Isometric-embedding test into L_p through the order -p class density.

    The body embeds iff the Fourier transform of Gamma(-p/2) ||x||^p is
    nonnegative (Koldobsky, Fourier Analysis in Convex Geometry, Thm 6.10).
    The order -p class density is that transform over Gamma(-p/2), times a
    positive factor, so the verdict and ``min_value`` rest on the minimum of
    sign(Gamma(-p/2)) times the density.  Even p, where the criterion
    degenerates, is the class lattice {0, -2, ...} at -p and is rejected.
    Smoothing, margin and band limit are ``classify_K_alpha``'s defaults.
    """
    if not math.isfinite(p):
        raise ValueError(f"embedding exponent must be finite, got {p}")
    if p <= 0:
        raise ExcludedParameterError(f"embedding exponent must be positive, got {p}")
    return _signed_verdict(body, -p, float(gammasgn(-p / 2.0)), 0.98, 1e-7, None)


# --- identity checks ----------------------------------------------------------


def _rel_sup(lhs: np.ndarray, rhs: np.ndarray) -> tuple[float, float]:
    abs_err = float(np.max(np.abs(lhs - rhs)))
    scale = float(np.max(np.abs(rhs)))
    return abs_err, abs_err / scale if scale > 0 else abs_err


def i_intersection_pair_check(K: StarBody, L_body: StarBody, i: int,
                              tol: float = 1e-6) -> IdentityReport:
    """Check whether K is the i-intersection body of L_body (n = 3).

    Verifies both the section-volume identity
    (sigma(i)/i) R_i rho_K^i = (sigma(3-i)/(3-i)) R_(3-i),perp rho_L^(3-i)
    and its spectral form
    rho_L^(3-i) = pi^(i-3/2) (3-i)/i * M^(i-2) rho_K^i,
    each as a relative sup-norm residual; the check passes iff both are
    within tol.
    """
    if i not in (1, 2):
        raise ValueError(f"i must be 1 or 2 on S^2, got {i}")
    if not (K.is_grid and L_body.is_grid):
        raise RepresentationError("pair check needs grid bodies (n = 3)")
    if K.repr_.grid != L_body.repr_.grid:
        raise RepresentationError("pair check needs bodies on the same grid")
    grid = K.repr_.grid
    Lband = min(DEFAULT_CLASSIFY_L, grid.band_limit)
    rho_k_i = K.radial_power(float(i))
    rho_l_co = L_body.radial_power(float(3 - i))

    # section-volume identity
    if i == 2:
        lhs = mult.sigma(2) / 2.0 * sphere.funk_direct(rho_k_i, L=Lband).values
        rhs = mult.sigma(1) / 1.0 * rho_l_co.even_part().values
    else:
        lhs = mult.sigma(1) / 1.0 * rho_k_i.even_part().values
        rhs = mult.sigma(2) / 2.0 * sphere.funk_direct(rho_l_co, L=Lband).values
    abs1, rel1 = _rel_sup(lhs, rhs)

    # spectral partner identity
    factor = mult.constant("kl_factor", 3, i=i)
    coeffs = sphere.analyze(rho_k_i, Lband)
    partner = sphere.synthesize(
        sphere.apply_spectral(coeffs, "M", alpha=float(1 - 3 + i)), grid)
    abs2, rel2 = _rel_sup(factor * partner.values, rho_l_co.values)

    return make_report(
        "i_intersection_pair", {"i": i, "n": 3, "band_limit": Lband,
                                "section_rel": rel1, "spectral_rel": rel2},
        [abs1, abs2], [rel1, rel2], tol)


def istar_chain_check(g: "sphere.GridFunction", tol: float = 1e-8) -> IdentityReport:
    """Chain from a planes-measure body to its line sections (n = 3, i = 1).

    Given an even density g on planes (keyed by normals), the body with
    rho_K = dual Radon transform of g has line sections matching the
    plane-keyed transform of mu = g evaluated pointwise.  The two sides are
    computed through independent code paths at a fixed set of grid nodes:
    the left through the Funk-Hecke route to rho_K and antipodal synthesis,
    the right through great-circle quadrature of g (:func:`sphere.funk_at`).
    """
    if g.odd_energy_fraction() > 1e-10:
        raise OddInputError("plane densities must be even")
    grid = g.grid
    Lband = grid.band_limit
    rho_k = sphere.dual_radon(sphere.GrassmannFunctionS2("planes", g))
    if float(rho_k.values.min()) <= 0.0:
        raise NonPositiveBodyError("dual Radon transform of g is not positive")
    pts = grid.points.reshape(-1, 3)
    nodes = pts[np.random.default_rng(0).choice(len(pts), min(64, len(pts)), replace=False)]
    lhs = sphere.radon_r1(rho_k, nodes, L=Lband)
    rhs = sphere.funk_at(sphere.analyze(g, Lband), nodes)
    abs_err, rel_err = _rel_sup(np.asarray(lhs), rhs)
    return make_report("istar_chain", {"n": 3, "i": 1, "band_limit": Lband,
                                       "nodes": len(nodes)},
                       [abs_err], [rel_err], tol, use_relative=False)


# --- suite --------------------------------------------------------------------


def verify_starbody_suite(seed: int = 11, tol: float = 1e-6) -> list[IdentityReport]:
    """Battery of construction/classification checks for the CLI verify command."""
    rng = np.random.default_rng(seed)
    resolution = 48
    reports: list[IdentityReport] = []

    # intersection body of a ball is the ball of the section area
    ball = make_body(3, "ball", r=2.0, resolution=resolution)
    ib = intersection_body(ball)
    err = float(np.max(np.abs(ib.repr_.values - math.pi * 4.0)))
    reports.append(make_report("ib_ball", {"r": 2.0}, [err], [err / (4 * math.pi)],
                               1e-12))

    # classifier against the closed form on the unit ball; band limit 12
    # keeps order-negative multipliers from amplifying node roundoff
    abs_errs, rel_errs = [], []
    sign_ok = True
    b1grid = make_body(3, "ball", r=1.0, resolution=resolution)
    for alpha in np.linspace(-2.9, 2.8, 20):
        if mult.excluded(3, float(alpha), mult.Family.K_CLASS):
            continue
        v = classify_K_alpha(b1grid, float(alpha), band_limit=12)
        expected = ball_class_sign(3, float(alpha))
        err = abs(v.min_value - expected)
        abs_errs.append(err)
        rel_errs.append(err / abs(expected) if abs(expected) > 1 else err)
        sign_ok = sign_ok and v.member == ("yes" if expected > 0 else "no")
    rep = make_report("ball_classifier", {"n": 3, "alphas": 20}, abs_errs, rel_errs,
                      1e-10)
    rep.passed = rep.passed and sign_ok
    reports.append(rep)

    # seeded intersection-body pairs and the i <-> 3-i symmetry
    for k in range(2):
        base = _random_body(rng, resolution)
        partner = _half_section_partner(base)
        reports.append(i_intersection_pair_check(base, partner, 2, tol=tol))
        sym = i_intersection_pair_check(partner, base, 1, tol=tol)
        sym.params["symmetric_of"] = k
        reports.append(sym)

    # the unit ball is not its own 2-intersection partner (pi != 2)
    miss = float(i_intersection_pair_check(b1grid, b1grid, 2, tol=tol).passed)
    reports.append(make_report("pair_check_rejects_ball", {"expected_fail": True},
                               [miss], [miss], tol))

    # intersection bodies classify as members at order 1
    base = _random_body(rng, resolution)
    verdict = classify_K_alpha(intersection_body(base), 1.0)
    ok = 0.0 if verdict.member == "yes" else 1.0
    reports.append(make_report("ib_classifies_member", {"alpha": 1.0}, [ok], [ok],
                               0.5))

    # plane-measure chain
    grid = sphere.S2Grid(resolution)
    g = sphere.random_even_function(grid, 8, rng)
    g = sphere.GridFunction(grid, g.values - min(0.0, float(g.values.min())) + 0.5)
    reports.append(istar_chain_check(g, tol=1e-8))

    return reports


def _random_body(rng: np.random.Generator, resolution: int) -> StarBody:
    L = 8
    grid = sphere.S2Grid(resolution)
    bump = sphere.random_even_function(grid, L, rng)
    vals = 1.0 + 0.3 * bump.values / max(1.0, float(np.max(np.abs(bump.values))))
    return StarBody(3, sphere.GridFunction(grid, vals),
                    {"shape": "random", "params": {"L": L}})


def _half_section_partner(body: StarBody) -> StarBody:
    """Partner with rho_L = (1/2) vol_2(body section): body = IB_2(partner)."""
    sections = intersection_body(body)
    vals = 0.5 * sections.repr_.values
    return StarBody(3, sphere.GridFunction(body.repr_.grid, vals),
                    {"shape": "half_section_partner", "params": {"of": body.meta}})
