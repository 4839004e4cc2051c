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
operator's definition.  Every Gauss rule of the package, zonal, grid,
slice, cosine and sine, comes from ``_gauss_rule`` on the orthonormal
Jacobi recurrence that ``zonal_basis`` also runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import multipliers as mult
from .errors import (
    InsufficientRuleError,
    QuadratureWindowError,
    RepresentationError,
    integer_field,
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
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.n < 2:
            raise RepresentationError(f"ambient dimension must be >= 2, got {self.n}")
        if self.coeffs.ndim != 1:
            raise RepresentationError(f"zonal coefficients must be a flat list, got shape "
                                      f"{self.coeffs.shape}")
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
        return cls(n=integer_field(d, "n"), coeffs=coeffs)


def _jacobi_coefficients(K: int, a: float, b: float, dtype) -> tuple:
    """Monic recurrence coefficients of the weight (1-x)^a (1+x)^b, in ``dtype``:
    alpha_k, k < K (None when a = b), and sqrt(beta_k), k <= K (sqrt(beta_0) = 0).
    beta_1 is in the cancelled form that a + b = -1 needs; at a = b = (n-3)/2
    every factor is exact, so each beta_k is rounded once."""
    a, b = dtype.type(a), dtype.type(b)
    beta = np.zeros(K + 1, dtype=dtype)
    c = 2 + a + b
    beta[1:2] = 4 * (1 + a) * (1 + b) / (c * c * (c + 1))      # no beta_1 when K = 0
    k = np.arange(2, K + 1, dtype=dtype)
    s = 2 * k + a + b
    beta[2:] = 4 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1) * (s - 1))
    if a == b:
        return None, np.sqrt(beta)
    s = 2 * np.arange(1, K, dtype=dtype) + a + b
    alpha = np.concatenate(([(b - a) / c], (b * b - a * a) / (s * (s + 2))))
    return alpha, np.sqrt(beta)


def _jacobi_rows(x: np.ndarray, alpha, sb: np.ndarray) -> np.ndarray:
    """Rows p_0 = 1, ..., p_K at x of the polynomials orthonormal for the probability
    weight, by sb_k p_k = (x - alpha_(k-1)) p_(k-1) - sb_(k-1) p_(k-2) in the dtype
    of x, where (alpha, sb) is :func:`_jacobi_coefficients`; shape (K+1, len(x))."""
    X = [x] * len(sb) if alpha is None else x - alpha[:, None]     # X[k] = x - alpha_k
    P = np.empty((len(sb), x.shape[0]), dtype=x.dtype)
    P[0] = 1.0
    for k in range(1, len(sb)):
        P[k] = X[0] / sb[1] if k == 1 else (X[k - 1] * P[k - 1] - sb[k - 1] * P[k - 2]) / sb[k]
    return P


def zonal_basis(n: int, J: int, t) -> np.ndarray:
    """Evaluate the orthonormal zonal polynomials Z_0..Z_J at points t.

    Returns an array of shape (J+1, len(t)), long double for long-double t
    and float otherwise: the Jacobi rows at a = b = (n-3)/2, for n = 3 sqrt(2j+1) P_j(t).
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    t = np.atleast_1d(np.asarray(t))
    t = t.astype(np.result_type(t, float), copy=False)
    return _jacobi_rows(t, *_jacobi_coefficients(J, (n - 3) / 2.0, (n - 3) / 2.0, t.dtype))


def _gauss_rule(N: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """N-point Gauss rule (float nodes ascending, weights) for the probability weight
    ~ (1-x)^a (1+x)^b.  The eigenvalues of the Jacobi matrix (Golub & Welsch, Math. Comp.
    23, 1969) start three long-double Newton steps on the recurrence, with p_N' from
    (1-x^2) p_N' = N ((a-b)/(2N+a+b) - x) p_N + (2N+a+b+1) sqrt(beta_N) p_(N-1); for a = b
    the nodes are made antisymmetric.  Weights: Christoffel numbers 1/sum_(k<N) p_k^2."""
    alpha, sb = _jacobi_coefficients(N, a, b, np.dtype(np.longdouble))
    jacobi = np.diag(sb[1:N].astype(float), -1)
    if alpha is not None:
        jacobi += np.diag(alpha.astype(float))
    x = np.linalg.eigvalsh(jacobi).astype(np.longdouble)
    shift, scale = (a - b) / (2 * N + a + b), (2 * N + a + b + 1) * sb[N]
    for _ in range(3):
        P = _jacobi_rows(x, alpha, sb)
        x = x - (1 - x * x) * P[N] / (N * (shift - x) * P[N] + scale * P[N - 1])
    if a == b:
        x = 0.5 * (x - x[::-1])       # enforce exact antisymmetry
    P = _jacobi_rows(x, alpha, sb)[:N]
    w = 1.0 / np.sum(P * P, axis=0)
    return x.astype(float), (w / w.sum()).astype(float)


@functools.lru_cache(maxsize=32)
def gauss_jacobi_rule(n: int, N: int) -> JacobiRule:
    """N-point Gauss rule, probability-normalized, exact to degree 2N-1.

    :func:`_gauss_rule` for the weight (1-t^2)^((n-3)/2).  Unpolished nodes carry
    an orthogonality defect around 1e-14, which order-negative multipliers amplify;
    its long-double polish removes it.  Built once per (n, N), returned read-only.
    """
    if N < 1:
        raise ValueError(f"need at least one node, got N={N}")
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    nodes, weights = _gauss_rule(N, (n - 3) / 2.0, (n - 3) / 2.0)
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
    """Guard of every direct engine: finiteness, the quadrature window, then the lattice.

    Raises ValueError for a non-finite alpha, QuadratureWindowError unless
    alpha lies in ALPHA_WINDOW, then ExcludedParameterError if it is on the
    family's lattice.
    """
    lo, hi = ALPHA_WINDOW
    if not (lo < alpha <= hi):
        if not np.isfinite(alpha):
            raise ValueError(f"alpha must be finite, got {alpha}")
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


def _adapted_dots(n: int, x: np.ndarray, t0, M: int) -> tuple[np.ndarray, np.ndarray]:
    """theta.e = x t0 + sqrt((1 - x^2)(1 - t0^2)) sigma in the direct oracles'
    coordinates adapted to u, as the block (output point t0 = u.e in [-1, 1],
    polar node x = theta.u, node sigma of the M-node :func:`_slice_rule`), and
    the slice rule's weights."""
    t0 = np.asarray(t0, dtype=float)
    inside = (-1.0 <= t0) & (t0 <= 1.0)
    if not np.all(inside):
        raise ValueError(f"t0 must lie in [-1, 1], got {t0[~inside].flat[0]}")
    t0 = t0[..., None, None]
    x = x[:, None]
    sigma_nodes, sigma_weights = _slice_rule(n, M)
    c = np.sqrt(np.clip((1.0 - x * x) * (1.0 - t0 * t0), 0.0, None))
    return x * t0 + c * sigma_nodes, sigma_weights


@functools.lru_cache(maxsize=32)
def _cosine_rule(n: int, alpha: float, J: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule for gamma_n(alpha) |s|^(alpha-1) against the law of s = theta.u on S^(n-1).

    Nodes +-s, exact to degree J in s: the Gauss rule in v = s^2 for the
    weight v^(alpha/2-1) (1-v)^((n-3)/2) (:func:`_gauss_rule`).  Folded in:
    the weight's mass E|s|^(alpha-1), gamma_n(alpha), and 1/2 for each of
    the nodes +-s.
    """
    x, w = _gauss_rule(J // 4 + 3, (n - 3) / 2.0, alpha / 2.0 - 1.0)
    s = np.sqrt((1.0 + x) / 2.0)
    mass = math.gamma(n / 2.0) * math.gamma(alpha / 2.0) / (
        math.sqrt(math.pi) * math.gamma((n - 1.0 + alpha) / 2.0))
    w *= mass * mult.constant("gamma_alpha", n, alpha=alpha) / 2.0
    s, w = np.concatenate((s, -s)), np.concatenate((w, w))
    s.flags.writeable = w.flags.writeable = False     # cached: shared by every caller
    return s, w


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
    J = max(int(degree_hint), 1)
    s, w = _cosine_rule(n, alpha, J)
    dot, sigma_weights = _adapted_dots(n, s, t0, J + 2)
    out = (np.asarray(profile(dot), dtype=float) @ sigma_weights) @ w
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
    N = max(64, degree_hint + 2)
    rule = gauss_jacobi_rule(n, N)
    dot, sigma_weights = _adapted_dots(n, rule.nodes, t0, N)
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
            [(direct, spec)], tol))

        # parity: even-only families annihilate odd coefficients
        odd = np.zeros(J + 1)
        odd[1::2] = 1.0
        g = ZonalFunction(n=n, coeffs=odd)
        leaks = [(zonal_apply(g, "M", alpha=0.5).coeffs, 0.0),
                 (zonal_apply(g, "Q", alpha=0.5).coeffs, 0.0),
                 (zonal_apply(g, "Funk").coeffs, 0.0)]
        reports.append(make_report("zonal_parity", {"n": n, "J": J}, leaks, 0.0))

        # round trip: analyze(synth(f)) reproduces the coefficients
        rt = zonal_analyze(n, lambda t: zonal_synth(f, t), J)
        reports.append(make_report(
            "zonal_round_trip", {"n": n, "J": J}, [(rt.coeffs, f.coeffs)], 1e-12))

        # Poisson: direct kernel quadrature vs t^j multipliers
        t_p = 0.5
        spec = zonal_synth(zonal_apply(f, "Poisson", t=t_p), t0s)
        direct = zonal_poisson_direct(n, f, t_p, t0s, degree_hint=J)
        reports.append(make_report(
            "zonal_cross_engine_poisson", {"n": n, "J": J, "t": t_p},
            [(direct, spec)], max(tol, 1e-10)))

    # positivity of the bridge operator at (alpha, beta) = (0.5, -0.5), n = 3
    dips = []               # the negative part of each output, expected to be 0
    for _ in range(20):
        f = _seeded_profile(3, J, rng, nonnegative=True)
        out = zonal_synth(zonal_apply(f, "A", alpha=0.5, beta=-0.5), fine_t)
        dips.append((np.minimum(out, 0.0), 0.0))
    reports.append(make_report(
        "zonal_bridge_positivity",
        {"n": 3, "J": J, "alpha": 0.5, "beta": -0.5, "profiles": 20}, dips, 1e-8))

    return reports
