"""Rotation-invariant (zonal) harmonic analysis on the sphere in any dimension.

A zonal function on the unit sphere in R^n is determined by its profile
f(t), t = theta . axis in [-1, 1].  Against the probability surface
measure, t carries the weight proportional to (1 - t^2)^((n-3)/2), and the
degree-j component of a zonal function is spanned by a single polynomial
Z_j(t).  This module works in the basis {Z_j} orthonormal with respect to
that probability weight, so every intertwining operator acts as plain
coefficient-wise multiplication by the values from
:mod:`coslab.multipliers`.

``zonal_cosine_direct`` is the independent oracle: it evaluates the
generalized cosine transform by quadrature of its defining kernel integral.
The integral is taken in coordinates adapted to the evaluation direction,
where the kernel depends only on the polar variable s = theta . u.  The odd
part of the integrand drops, and the substitution v = s^2 turns the
|s|^(alpha-1) factor into a Gauss-Jacobi weight (``_cosine_rule``, also the
cosine kernel of :mod:`coslab.sphere`), so the rule is exact for
band-limited profiles; the azimuthal average is likewise exact.  No gamma
identities enter this path beyond the normalization constant in the
operator's definition.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_jacobi, roots_jacobi

from . import multipliers as mult
from .errors import (
    InsufficientRuleError,
    QuadratureWindowError,
    RepresentationError,
)
from .reports import IdentityReport, make_report

__all__ = [
    "ZonalFunction",
    "JacobiRule",
    "gauss_jacobi_rule",
    "zonal_basis",
    "zonal_analyze",
    "zonal_synth",
    "zonal_apply",
    "zonal_cosine_direct",
    "zonal_poisson_direct",
    "verify_zonal_suite",
]

ALPHA_WINDOW = (0.0, 3.0)  # direct quadrature validated for 0 < alpha <= 3


@dataclass(frozen=True)
class JacobiRule:
    """Gauss rule for the probability weight ~ (1-t^2)^((n-3)/2) on [-1,1]."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass
class ZonalFunction:
    """Coefficients a_j in the orthonormal zonal basis Z_j for dimension n."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise RepresentationError(f"ambient dimension must be >= 2, got {self.n}")
        if len(self.coeffs) == 0:
            raise RepresentationError("a zonal function needs at least one coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t) -> np.ndarray:
        return zonal_synth(self, t)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "basis": "orthonormal-gegenbauer-prob",
            "coeffs": [float(c) for c in self.coeffs],
        }

    def odd_energy_fraction(self) -> float:
        """Share of the coefficient energy in odd degrees."""
        total = float(np.sum(self.coeffs ** 2))
        if total == 0.0:
            return 0.0
        return float(np.sum(self.coeffs[1::2] ** 2)) / total

    @classmethod
    def from_dict(cls, d: dict) -> "ZonalFunction":
        if d.get("basis") != "orthonormal-gegenbauer-prob":
            raise RepresentationError(f"unknown zonal basis {d.get('basis')!r}")
        coeffs = np.asarray(d["coeffs"], dtype=float)
        if not np.all(np.isfinite(coeffs)):
            raise RepresentationError("zonal coefficients must be finite")
        return cls(n=int(d["n"]), coeffs=coeffs)


def _recurrence_sqrt_b(n: int, k_max: int, dtype=np.dtype(float)) -> np.ndarray:
    """sqrt(b_k), k = 1..k_max, for the orthonormal three-term recurrence.

    b_1 = 1/n and b_k = k (k+n-3) / ((2k+n-2)(2k+n-4)) for k >= 2; these are
    the monic recurrence coefficients of the weight (1-t^2)^((n-3)/2).
    Computed in ``dtype`` from exact integers.
    """
    b = np.empty(k_max + 1, dtype=dtype)
    b[0] = np.nan  # unused
    if k_max >= 1:
        b[1] = dtype.type(1) / n
    k = np.arange(2, k_max + 1).astype(dtype)
    b[2:] = k * (k + n - 3) / ((2 * k + n - 2) * (2 * k + n - 4))
    return np.sqrt(b)


def zonal_basis(n: int, J: int, t) -> np.ndarray:
    """Evaluate the orthonormal zonal polynomials Z_0..Z_J at points t.

    Returns an array of shape (J+1, len(t)), long double for long-double t
    and float otherwise.  For n = 3 these are sqrt(2j+1) P_j(t).
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    t = np.atleast_1d(np.asarray(t))
    t = t.astype(np.result_type(t, float), copy=False)
    Z = np.empty((J + 1, t.shape[0]), dtype=t.dtype)
    Z[0] = 1.0
    if J == 0:
        return Z
    sb = _recurrence_sqrt_b(n, J, t.dtype)
    Z[1] = t / sb[1]
    for k in range(2, J + 1):
        Z[k] = (t * Z[k - 1] - sb[k - 1] * Z[k - 2]) / sb[k]
    return Z


def _basis_derivative(n: int, t: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """t-derivatives of the rows Z = zonal_basis(n, J, t), in the dtype of t."""
    J = Z.shape[0] - 1
    dZ = np.zeros_like(Z)
    if J == 0:
        return dZ
    sb = _recurrence_sqrt_b(n, J, t.dtype)
    dZ[1] = 1 / sb[1]
    for k in range(2, J + 1):
        dZ[k] = (Z[k - 1] + t * dZ[k - 1] - sb[k - 1] * dZ[k - 2]) / sb[k]
    return dZ


@functools.lru_cache(maxsize=32)
def gauss_jacobi_rule(n: int, N: int) -> JacobiRule:
    """N-point Gauss rule, probability-normalized, exact to degree 2N-1.

    Library nodes/weights carry an orthogonality defect around 1e-14, which
    downstream order-negative multipliers amplify; the nodes are therefore
    polished by Newton iteration on the orthonormal polynomial in extended
    precision, with the weights recomputed as Christoffel numbers.  Each
    (n, N) rule is built once per process and returned read-only.
    """
    if N < 1:
        raise ValueError(f"need at least one node, got N={N}")
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    mu = (n - 3) / 2.0
    nodes, _ = roots_jacobi(N, mu, mu)
    x = nodes.astype(np.longdouble)
    for _ in range(3):
        Z = zonal_basis(n, N, x)
        x = x - Z[N] / _basis_derivative(n, x, Z)[N]
    x = 0.5 * (x - x[::-1])       # enforce exact antisymmetry
    Z = zonal_basis(n, N - 1, x)
    w = 1.0 / np.sum(Z * Z, axis=0)
    w = w / w.sum()
    nodes, weights = x.astype(float), w.astype(float)
    nodes.flags.writeable = weights.flags.writeable = False    # shared by every caller
    return JacobiRule(n=n, nodes=nodes, weights=weights)


def zonal_analyze(n: int, profile, J: int, rule: JacobiRule | None = None) -> ZonalFunction:
    """Project a profile onto the orthonormal zonal basis up to degree J.

    ``profile`` is a callable on [-1,1] or an array of samples at the rule
    nodes.  The rule must have at least J+1 nodes (exactness to degree 2J).
    """
    if rule is None:
        rule = gauss_jacobi_rule(n, max(J + 1, 1))
    if rule.n != n:
        raise RepresentationError(f"rule built for n={rule.n}, asked for n={n}")
    if len(rule) < J + 1:
        raise InsufficientRuleError(
            f"rule with {len(rule)} nodes cannot resolve degree {J} (need >= {J + 1})"
        )
    if callable(profile):
        samples = np.asarray(profile(rule.nodes), dtype=float)
    else:
        samples = np.asarray(profile, dtype=float)
        if samples.shape != rule.nodes.shape:
            raise RepresentationError(
                f"got {samples.shape[0]} samples for a {len(rule)}-node rule"
            )
    Z = zonal_basis(n, J, rule.nodes)
    coeffs = Z @ (rule.weights * samples)
    return ZonalFunction(n=n, coeffs=coeffs)


# points per block of zonal_synth, whose block holds (degree+1) rows of this length;
# synthesize_at takes 1/(L+1) as many points, so its (L+1)-row blocks hold as many numbers
_POINT_CHUNK = 1 << 14


def zonal_synth(f: ZonalFunction, t) -> np.ndarray:
    """Evaluate the profile sum a_j Z_j(t); accepts any array shape."""
    t = np.asarray(t, dtype=float)
    flat, out = t.ravel(), np.empty(t.size)
    for lo in range(0, t.size, _POINT_CHUNK):
        chunk = slice(lo, lo + _POINT_CHUNK)
        out[chunk] = f.coeffs @ zonal_basis(f.n, f.degree, flat[chunk])
    return out.reshape(t.shape)


def zonal_apply(f: ZonalFunction, family: str, **params) -> ZonalFunction:
    """Apply an intertwining operator coefficient-wise.

    Families: "M" (alpha), "Q" (alpha), "Qplus"/"Qminus" (mu, nu),
    "A" (alpha, beta), "Funk", "Poisson" (t).
    """
    m = mult.table(f.n, np.arange(f.degree + 1), family, **params)
    return ZonalFunction(n=f.n, coeffs=m * f.coeffs)


# --- direct quadrature oracle ------------------------------------------------


def _check_direct_order(n: int, alpha: float, family: mult.Family,
                        i: int | None = None) -> None:
    """Guard of every direct engine: the quadrature window, then the lattice.

    Raises QuadratureWindowError unless alpha lies in ALPHA_WINDOW, then
    ExcludedParameterError if it is on the family's lattice.
    """
    lo, hi = ALPHA_WINDOW
    if not (lo < alpha <= hi):
        raise QuadratureWindowError(
            f"direct quadrature validated for {lo} < alpha <= {hi}, got {alpha}"
        )
    mult.check_order(n, alpha, family, i)


def _slice_rule(n: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for the distribution of one coordinate on S^(n-2).

    Density ~ (1-sigma^2)^((n-4)/2) for n >= 3, the weight of the polished
    Gauss rule of dimension n-1; the two-point atom for n = 2.
    """
    if n == 2:
        return np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    rule = gauss_jacobi_rule(n - 1, M)
    return rule.nodes, rule.weights


def _output_points(t0) -> np.ndarray:
    """The output points t0 = u.e of a direct oracle as an array, all in [-1, 1]."""
    t0 = np.asarray(t0, dtype=float)
    inside = (-1.0 <= t0) & (t0 <= 1.0)
    if not np.all(inside):
        raise ValueError(f"t0 must lie in [-1, 1], got {t0[~inside].flat[0]}")
    return t0


def _jacobi_rule(N: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """N-point Gauss-Jacobi rule for the weight (1-x)^a (1+x)^b on [-1, 1].

    The library's nodes x, with weights 1 / ((1-x^2) P_N'(x)^2) recomputed
    from them (P_N' is a multiple of P_(N-1)^(a+1,b+1)) and scaled to the
    weight's mass: the library's own weights are off by up to ~1e-12 near
    the ends of the interval when a or b is negative.
    """
    x, _, mass = roots_jacobi(N, a, b, mu=True)
    w = 1.0 / ((1.0 - x * x) * eval_jacobi(N - 1, a + 1.0, b + 1.0, x) ** 2)
    return x, w * (mass / w.sum())


def _cosine_rule(n: int, alpha: float, J: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule for gamma_n(alpha) |s|^(alpha-1) against the law of s = theta.u on S^(n-1).

    Nodes +-s, exact to degree J in s: Gauss-Jacobi in v = s^2 for the weight
    v^(alpha/2-1) (1-v)^((n-3)/2) (:func:`_jacobi_rule`).  Folded in: the
    weight's mass E|s|^(alpha-1), gamma_n(alpha), and 1/2 for each of the
    nodes +-s.
    """
    x, w = _jacobi_rule(J // 4 + 3, (n - 3) / 2.0, alpha / 2.0 - 1.0)
    s = np.sqrt((1.0 + x) / 2.0)
    mass = math.gamma(n / 2.0) * math.gamma(alpha / 2.0) / (
        math.sqrt(math.pi) * math.gamma((n - 1.0 + alpha) / 2.0))
    w *= mass * mult.constant("gamma_alpha", n, alpha=alpha) / (2.0 * w.sum())
    return np.concatenate((s, -s)), np.concatenate((w, w))


def zonal_cosine_direct(n: int, profile, alpha: float, t0, degree_hint: int = 32):
    """Generalized cosine transform of a zonal profile at output points t0.

    Evaluates gamma_n(alpha) * E[f(theta.e) |theta.u|^(alpha-1)] for
    u.e = t0 by tensor quadrature in coordinates adapted to u: the cosine
    rule in the polar variable s = theta.u, and the slice rule of S^(n-2)
    in the azimuthal variable.  Exact for polynomial profiles of degree
    <= degree_hint.  ``t0`` is a float or an array, and the result is a
    float or its shape.
    """
    _check_direct_order(n, alpha, mult.Family.M)
    t0 = _output_points(t0)[..., None, None]
    J = max(int(degree_hint), 1)
    s, w = _cosine_rule(n, alpha, J)
    sigma_nodes, sigma_weights = _slice_rule(n, J + 2)
    # the block is (t0, polar node, slice node)
    c = np.sqrt(np.clip((1.0 - s[:, None] ** 2) * (1.0 - t0 * t0), 0.0, None))
    inner = np.asarray(profile(s[:, None] * t0 + c * sigma_nodes), dtype=float) @ sigma_weights
    out = inner @ w
    return float(out) if out.ndim == 0 else out


def zonal_poisson_direct(n: int, profile, t: float, t0, degree_hint: int = 32):
    """Poisson integral of a zonal profile by direct kernel quadrature.

    Evaluates (1-t^2) * E[f(theta.e) |u - t theta|^(-n)] at u.e = t0, a
    float or an array as in ``zonal_cosine_direct``.  The profile is sampled
    at the nodes of tau = theta.e only; the kernel is analytic for t < 1, so
    the tensor Gauss rule (at least 64 nodes) converges geometrically.
    """
    if not 0.0 <= t < 1.0:
        raise ValueError(f"Poisson parameter must satisfy 0 <= t < 1, got {t}")
    t0 = _output_points(t0)[..., None, None]
    N = max(64, degree_hint + 2)
    rule = gauss_jacobi_rule(n, N)
    tau = rule.nodes[:, None]
    sigma_nodes, sigma_weights = _slice_rule(n, N)
    c = np.sqrt(np.clip((1.0 - tau * tau) * (1.0 - t0 * t0), 0.0, None))
    dot = tau * t0 + c * sigma_nodes
    kernel = (1.0 + t * t - 2.0 * t * dot) ** (-n / 2.0)
    inner = kernel @ sigma_weights
    f_vals = np.asarray(profile(rule.nodes), dtype=float)
    out = (1.0 - t * t) * ((f_vals * inner) @ rule.weights)
    return float(out) if out.ndim == 0 else out


# --- verification suite ------------------------------------------------------


def _seeded_profile(n: int, J: int, rng: np.random.Generator,
                    nonnegative: bool = False) -> ZonalFunction:
    """Band-limited zonal test function with decaying random coefficients."""
    coeffs = rng.uniform(-1.0, 1.0, J + 1) * (1.0 + np.arange(J + 1)) ** -2.0
    f = ZonalFunction(n=n, coeffs=coeffs)
    if nonnegative:
        t = np.linspace(-1.0, 1.0, 401)
        lift = float(zonal_synth(f, t).min())
        g = f.coeffs.copy()
        g[0] += 1e-3 - min(lift, 0.0)  # shift by the constant term, keeps band limit
        f = ZonalFunction(n=n, coeffs=g)
    return f


def verify_zonal_suite(n_list=(3, 4, 5), J: int = 16, seed: int = 0,
                       tol: float = 1e-8) -> list[IdentityReport]:
    """Cross-validate the spectral and direct engines on zonal functions.

    Checks, per dimension: spectral/direct agreement of the cosine
    transform at four orders on 21 output latitudes; parity annihilation;
    analysis/synthesis round trip; spectral/direct agreement of the Poisson
    integral.  Once, at n = 3: positivity of the bridge operator on
    nonnegative profiles.
    """
    rng = np.random.default_rng(seed)
    reports: list[IdentityReport] = []
    t0s = np.linspace(-1.0, 1.0, 21)
    fine_t = np.linspace(-1.0, 1.0, 201)
    alphas = (0.5, 1.5, 2.0, 2.5)

    for n in n_list:
        f = _seeded_profile(n, J, rng)

        # spectral vs direct cosine transform
        spec = [zonal_synth(zonal_apply(f, "M", alpha=alpha), t0s) for alpha in alphas]
        direct = [zonal_cosine_direct(n, f, alpha, t0s, degree_hint=J) for alpha in alphas]
        reports.append(make_report(
            "zonal_cross_engine_cosine",
            {"n": n, "J": J, "alphas": list(alphas), "t0_count": len(t0s)},
            *mult._errs(np.array(direct), np.array(spec)), tol))

        # parity: even-only families annihilate odd coefficients
        odd = np.zeros(J + 1)
        odd[1::2] = 1.0
        g = ZonalFunction(n=n, coeffs=odd)
        leak = max(
            float(np.abs(zonal_apply(g, "M", alpha=0.5).coeffs).max()),
            float(np.abs(zonal_apply(g, "Q", alpha=0.5).coeffs).max()),
            float(np.abs(zonal_apply(g, "Funk").coeffs).max()),
        )
        reports.append(make_report(
            "zonal_parity", {"n": n, "J": J}, [leak], [leak], 0.0, use_relative=False))

        # round trip: analyze(synth(f)) reproduces the coefficients
        rt = zonal_analyze(n, lambda t: zonal_synth(f, t), J)
        err = float(np.abs(rt.coeffs - f.coeffs).max())
        reports.append(make_report(
            "zonal_round_trip", {"n": n, "J": J}, [err], [err], 1e-12,
            use_relative=False))

        # Poisson: direct kernel quadrature vs t^j multipliers
        t_p = 0.5
        spec = zonal_synth(zonal_apply(f, "Poisson", t=t_p), t0s)
        direct = zonal_poisson_direct(n, f, t_p, t0s, degree_hint=J)
        reports.append(make_report(
            "zonal_cross_engine_poisson", {"n": n, "J": J, "t": t_p},
            *mult._errs(direct, spec), max(tol, 1e-10)))

    # positivity of the bridge operator at (alpha, beta) = (0.5, -0.5), n = 3
    mins = []
    for _ in range(20):
        f = _seeded_profile(3, J, rng, nonnegative=True)
        out = zonal_synth(zonal_apply(f, "A", alpha=0.5, beta=-0.5), fine_t)
        mins.append(float(out.min()))
    worst = -min(mins)  # positive when some output dips below zero
    reports.append(make_report(
        "zonal_bridge_positivity",
        {"n": 3, "J": J, "alpha": 0.5, "beta": -0.5, "profiles": 20},
        [max(worst, 0.0)], [max(worst, 0.0)], 1e-8, use_relative=False))

    return reports
