"""Closed-form multipliers and constants for the spherical intertwining families.

Every operator handled by this package acts on spherical harmonics of
degree j by multiplication with a scalar that is a ratio of gamma
functions.  This module evaluates those scalars for any ambient dimension
n >= 2 and real order parameters, together with the normalization
constants tying the analytic families to the geometric transforms
(Funk-Radon transform, dual Radon transform, section-volume maps).

Conventions: all sphere and Grassmannian measures are probability
measures, so the multiplier of each family on constants equals the value
printed by its defining gamma ratio with j = 0.  Degree parity: the
cosine (M), sine (Q) and Funk families annihilate odd degrees; the
smoothing families (A, Q+, Q-) and the Poisson semigroup act on all
degrees.

Order parameters sitting on a pole lattice of their family are rejected
outright rather than evaluated: gamma-ratio cancellation within ~1e-8 of
a pole has no correct digits left.
"""

from __future__ import annotations

import functools
import math
from enum import Enum

import numpy as np

from ._gamma import gamma_ratio, gamma_ratio_array
from .errors import ExcludedParameterError, GammaPoleError, UnknownConstantError
from .reports import IdentityReport, make_report

__all__ = [
    "EPS_POLE",
    "Family",
    "sigma",
    "excluded",
    "m_mult",
    "q_mult",
    "qpm_mult",
    "a_mult",
    "funk_mult",
    "poisson_mult",
    "FAMILY_PARAMS",
    "table",
    "constant",
    "check_identities",
]

# Pole guard: reject order parameters within this distance of a pole lattice.
EPS_POLE = 1e-8


class Family(str, Enum):
    """Operator families with an excluded order lattice."""

    M = "M"            # generalized cosine transform, kernel |theta.u|^(alpha-1)
    Q = "Q"            # generalized sine transform, kernel (sin d)^(alpha-n+1)
    R_I = "R_i"        # codimension-(n-i) Radon family
    K_CLASS = "K_class"  # star-body class parameter


def sigma(n: int) -> float:
    """Surface area of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _near_lattice(alpha, start: float, step: float = 2.0):
    """Whether alpha (a float or an array) is within EPS_POLE of {start, start+step, ...}."""
    k = np.fmax(np.rint((alpha - start) / step), 0.0)
    return abs(alpha - (start + k * step)) <= EPS_POLE


def _excluded_mask(n: int, alpha, family: Family | str, i: int | None = None):
    """``excluded`` elementwise, for a float or an array of orders."""
    _check_dim(n)
    family = Family(family)
    with np.errstate(invalid="ignore"):     # an infinite order gives inf - inf
        if family is Family.M:
            near = _near_lattice(alpha, 1.0)
        elif family is Family.Q:
            near = _near_lattice(alpha, float(n))
        elif family is Family.R_I:
            if i is None:
                raise ValueError("family R_i requires the subspace dimension i")
            if not 1 <= i <= n - 1:
                raise ValueError(f"need 1 <= i <= n-1, got i={i}, n={n}")
            near = _near_lattice(alpha, float(n - i))
        else:
            near = _near_lattice(alpha, 0.0, -2.0) | _near_lattice(alpha, float(n))
    return near | ~np.isfinite(alpha)


def excluded(n: int, alpha: float, family: Family | str, i: int | None = None) -> bool:
    """Whether alpha sits on the excluded lattice of the given family.

    M:       {1, 3, 5, ...}
    Q:       {n, n+2, ...}
    R_i:     {n-i, n-i+2, ...}   (requires i)
    K_class: {0, -2, -4, ...} union {n, n+2, ...}
    """
    return bool(_excluded_mask(n, alpha, family, i))


# family -> its excluded lattice, as ExcludedParameterError names it
_LATTICES = {
    Family.M: "the cosine-family pole lattice 1, 3, 5, ...",
    Family.Q: "the sine-family pole lattice n, n+2, ... (n={n})",
    Family.R_I: "the i={i} Radon-family order lattice n-i, n-i+2, ... (n={n})",
    Family.K_CLASS: "the class exclusion lattice {{0, -2, ...}} U {{n, n+2, ...}} (n={n})",
}


def check_order(n: int, alpha, family: Family | str, i: int | None = None):
    """Return alpha (a float or an array) if none of its orders is ``excluded``.

    Otherwise raise ExcludedParameterError naming the family's lattice.
    """
    bad = _excluded_mask(n, alpha, family, i)
    if np.any(bad):
        lattice = _LATTICES[Family(family)].format(n=n, i=i)
        raise ExcludedParameterError(f"alpha={np.asarray(alpha)[bad].flat[0]} is on {lattice}")
    return alpha


def _check_dim(n: int) -> None:
    if n < 2:
        raise ValueError(f"ambient dimension must be >= 2, got {n}")


def _check_degree(j: int) -> None:
    if j < 0:
        raise ValueError(f"degree must be >= 0, got {j}")


def m_mult(n: int, j: int, alpha: float) -> float:
    """Multiplier of the generalized cosine transform on degree-j harmonics.

    Zero for odd j; for even j equal to
    (-1)^(j/2) Gamma((j+1-alpha)/2) / Gamma((j+n-1+alpha)/2).
    """
    return _multiplier(n, j, "M", {"alpha": alpha})


def q_mult(n: int, j: int, alpha: float) -> float:
    """Multiplier of the generalized sine transform on degree-j harmonics.

    Zero for odd j; for even j the four-gamma ratio
    Gamma((j+n-1-alpha)/2) Gamma((j+1)/2) / [Gamma((j+alpha+1)/2) Gamma((j+n-1)/2)].
    Identically 1 at alpha = 0.
    """
    return _multiplier(n, j, "Q", {"alpha": alpha})


def qpm_mult(n: int, j: int, mu: float, nu: float, sign: str) -> float:
    """Multiplier of the one-sided Poisson-average smoothing operators.

    sign="plus":  Gamma((j+n-nu+1)/2) / Gamma((j+n-nu+1+mu)/2)
    sign="minus": Gamma((j+nu-mu)/2)  / Gamma((j+nu)/2)

    Both come from Beta-weighted averages of the Poisson semigroup and act
    on every degree.  Gamma poles raise GammaPoleError.
    """
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    return _multiplier(n, j, "Qplus" if sign == "plus" else "Qminus", {"mu": mu, "nu": nu})


def a_mult(n: int, j: int, alpha: float, beta: float) -> float:
    """Multiplier of the operator bridging two cosine transforms.

    Defined on all degrees by
    Gamma((j+1-alpha)/2) Gamma((j+n-1+beta)/2)
      / [Gamma((j+n-1+alpha)/2) Gamma((j+1-beta)/2)],
    so that m_mult(n,j,alpha) = m_mult(n,j,beta) * a_mult(n,j,alpha,beta) and
    a_mult factorizes as qpm_mult(plus; mu=alpha-beta, nu=2-beta)
    * qpm_mult(minus; mu=alpha-beta, nu=1-beta).
    """
    return _multiplier(n, j, "A", {"alpha": alpha, "beta": beta})


def funk_mult(n: int, j: int) -> float:
    """Multiplier of the Funk-Radon (great-circle average) transform.

    Equals m_mult(n, j, 0) divided by the limit constant
    c_(n-1) = sigma(n-1) / (2 pi^((n-2)/2)); for n = 3 this is the Legendre
    value P_j(0) for even j and 0 for odd j.
    """
    return _multiplier(n, j, "Funk", {})


def poisson_mult(j: int, t: float) -> float:
    """Multiplier t^j of the Poisson smoothing semigroup, 0 <= t < 1."""
    _check_degree(j)
    if not 0.0 <= t < 1.0:
        raise ValueError(f"Poisson parameter must satisfy 0 <= t < 1, got {t}")
    return t ** j


# --- gamma arguments ----------------------------------------------------------
#
# Each family's gamma ratio is written once, in ``_gamma_args``; the scalars
# evaluate it per degree, ``table`` over arrays, both through ``_gamma``.

# family -> the keyword parameters ``table`` takes for it
FAMILY_PARAMS = {
    "M": ("alpha",),
    "Q": ("alpha",),
    "Qplus": ("mu", "nu"),
    "Qminus": ("mu", "nu"),
    "A": ("alpha", "beta"),
    "Funk": (),
    "Poisson": ("t",),
}


def _gamma_args(n: int, j, family: str, params: dict) -> list:
    """(numerator, denominator) gamma-argument pairs of a family, for floats or arrays.

    M and Q orders on their lattice raise ExcludedParameterError, a non-finite
    Qplus, Qminus or A parameter ValueError.  The callers apply the rest: the
    sign (-1)^(j/2) of M and Funk, Funk's 1/c_(n-1), zeros at odd M, Q, Funk degrees.
    """
    if family in ("M", "Funk"):
        alpha = 0.0 if family == "Funk" else check_order(n, params["alpha"], Family.M)
        return [((j + 1.0 - alpha) / 2.0, (j + n - 1.0 + alpha) / 2.0)]
    if family == "Q":
        alpha = check_order(n, params["alpha"], Family.Q)
        return [((j + n - 1.0 - alpha) / 2.0, (j + n - 1.0) / 2.0),
                ((j + 1.0) / 2.0, (j + alpha + 1.0) / 2.0)]
    for name in FAMILY_PARAMS[family]:
        if not np.isfinite(params[name]).all():
            raise ValueError(f"{name} must be finite, got {params[name]}")
    mu, nu, alpha, beta = map(params.get, ("mu", "nu", "alpha", "beta"))
    if family == "Qplus":
        return [((j + n - nu + 1.0) / 2.0, (j + n - nu + 1.0 + mu) / 2.0)]
    if family == "Qminus":
        return [((j + nu - mu) / 2.0, (j + nu) / 2.0)]
    return [((j + 1.0 - alpha) / 2.0, (j + 1.0 - beta) / 2.0),
            ((j + n - 1.0 + beta) / 2.0, (j + n - 1.0 + alpha) / 2.0)]


def _multiplier(n: int, j: int, family: str, params: dict) -> float:
    """One degree of a gamma family: the body of the per-degree scalars."""
    _check_dim(n)
    _check_degree(j)
    pairs = _gamma_args(n, j, family, params)
    if family in ("M", "Q", "Funk") and j % 2 == 1:
        return 0.0
    value = (-1.0 if family in ("M", "Funk") and (j // 2) % 2 else 1.0) * gamma_ratio(pairs)
    return value / constant("c_limit", n, i=n - 1) if family == "Funk" else value


def _table(n: int, j: np.ndarray, family: str, params: dict):
    """Multipliers over broadcast degrees and orders, plus the numerator-pole mask.

    Excluded orders raise ExcludedParameterError; numerator poles do not
    raise, they are NaN in the values and set in the mask.
    """
    if family == "Poisson":
        t = np.asarray(params["t"], dtype=float)
        if not np.all((0.0 <= t) & (t < 1.0)):
            raise ValueError(f"Poisson parameter must satisfy 0 <= t < 1, got {t}")
        return t ** j, np.zeros(np.broadcast(t, j).shape, dtype=bool)
    values, pole = gamma_ratio_array(_gamma_args(n, j, family, params))
    if family in ("M", "Funk"):
        values = np.where((j // 2) % 2 == 1, -values, values)
    if family == "Funk":
        values = values / constant("c_limit", n, i=n - 1)
    if family in ("M", "Q", "Funk"):
        odd = j % 2 == 1
        values, pole = np.where(odd, 0.0, values), pole & ~odd
    return values, pole


def table(n: int, degrees, family: str, **params) -> np.ndarray:
    """Multipliers of one family over an array of degrees.

    ``family`` is a key of FAMILY_PARAMS ("M", "Q", "Qplus", "Qminus", "A",
    "Funk", "Poisson") and ``params`` are exactly its parameters.  Degrees
    broadcast against array-valued parameters.  The pole rules of the
    scalars hold: a denominator pole gives 0, a numerator pole raises
    GammaPoleError, an order on the M or Q lattice or in its guard band
    raises ExcludedParameterError, a non-finite Qplus, Qminus or A parameter
    raises ValueError, and M, Q and Funk vanish on odd degrees.
    """
    _check_dim(n)
    j = np.asarray(degrees)
    if j.dtype.kind not in "iu":
        raise ValueError(f"degrees must be integers, got dtype {j.dtype}")
    if np.any(j < 0):
        raise ValueError(f"degrees must be >= 0, got {j.min()}")
    if family not in FAMILY_PARAMS:
        raise ValueError(f"unknown family {family!r}")
    if set(params) != set(FAMILY_PARAMS[family]):
        raise TypeError(f"family {family!r} takes parameters "
                        f"{FAMILY_PARAMS[family]}, got {tuple(params)}")
    values, pole = _table(n, j, family, params)
    if np.any(pole):
        at = np.broadcast_to(j, pole.shape)[pole].flat[0]
        raise GammaPoleError(f"family {family} has a numerator gamma pole at degree {at}")
    return values


# --- closed-form constants -------------------------------------------------
#
# Names:
#   gamma_alpha        normalization of the cosine transform of order alpha
#   gamma_alpha_i      normalization of the codim-(n-i) Radon family
#   c_limit            limit constant c_i = sigma(i) / (2 pi^((i-1)/2))
#   lambda1, lambda2   constants of the Radon/sine composition identities
#                      (equal under probability normalization)
#   c_radon_composite  constant c with R_i^* R_i = c Q^(i-1), c = 1/q_mult(n,0,i-1)
#   c_cosine_radon     constant in R_i M^alpha = c R^(alpha+i-1)_(n-i,perp)
#   c_perp_swap        constant in the continued swap identities
#                      (R_i M^(1-i) = c_perp_swap R_(n-i,perp), and its dual)
#   ib_map             sigma(n-1)/(n-1): section-volume factor of the
#                      intersection-body map
#   kl_factor          pi^(i-n/2) (n-i)/i: factor recovering the partner
#                      radial power of an i-intersection body
#   a_form1/2/3        the three right-inverse representations of the dual
#                      Radon transform
#   c_range_f, c_range_f1   the two constants linking f and f1 when
#                      R_i^alpha f = R_i f1 (the values of c_cosine_radon
#                      and c_limit)

def constant(name: str, n: int, i: int | None = None, alpha: float | None = None) -> float:
    """Evaluate a named closed-form normalization constant."""
    _check_dim(n)

    def need_i() -> int:
        if i is None or not 1 <= i <= n - 1:
            raise ValueError(f"constant {name!r} needs 1 <= i <= n-1, got i={i}")
        return i

    def need_alpha() -> float:
        if alpha is None:
            raise ValueError(f"constant {name!r} needs alpha")
        return alpha

    def kernel_constant(num: float) -> float:
        """sigma(n) / (2 pi^((n-1)/2)) * Gamma(num) / Gamma(alpha/2)."""
        return sigma(n) / (2.0 * math.pi ** ((n - 1) / 2.0)) * gamma_ratio([(num, alpha / 2.0)])

    if name == "gamma_alpha":
        return kernel_constant((1.0 - need_alpha()) / 2.0)
    if name == "gamma_alpha_i":
        return kernel_constant((n - need_alpha() - need_i()) / 2.0)
    if name == "gamma_sine":
        return kernel_constant((n - 1.0 - need_alpha()) / 2.0)
    if name in ("c_limit", "c_range_f1"):
        ii = need_i()
        return sigma(ii) / (2.0 * math.pi ** ((ii - 1) / 2.0))
    if name in ("lambda1", "lambda2"):
        ii = need_i()
        return gamma_ratio([((n - 1.0) / 2.0, (n - ii) / 2.0)])
    if name == "c_radon_composite":
        ii = need_i()
        return (
            2.0
            * math.pi ** ((ii - 1) / 2.0)
            * gamma_ratio([((n - 1.0) / 2.0, (n - ii) / 2.0)])
            / sigma(ii)
        )
    if name in ("c_cosine_radon", "c_range_f"):
        ii = need_i()
        return 2.0 * math.pi ** ((ii - 1) / 2.0) / sigma(ii)
    if name == "c_perp_swap":
        ii = need_i()
        return sigma(n - ii) * math.pi ** (ii - n / 2.0) / sigma(ii)
    if name == "ib_map":
        return sigma(n - 1) / (n - 1.0)
    if name == "kl_factor":
        ii = need_i()
        return math.pi ** (ii - n / 2.0) * (n - ii) / ii
    if name == "a_form1":
        return sigma(n - 1) / (2.0 * math.pi ** (n / 2.0 - 1.0))
    if name == "a_form2":
        ii = need_i()
        return math.pi ** ((1 - ii) / 2.0) * sigma(n - 1) / sigma(n - ii)
    if name == "a_form3":
        ii = need_i()
        return math.pi ** (1.0 - ii) * sigma(n - 1) * sigma(ii) / (2.0 * sigma(n - ii))
    raise UnknownConstantError(f"no constant named {name!r}")


# --- identity suite ---------------------------------------------------------

def _errs(value: np.ndarray, expected):
    """Largest abs error and largest error relative to max(|expected|, 1), as lists."""
    if value.size == 0:
        return [], []
    err = np.abs(value - expected)
    rel = err / np.maximum(np.abs(expected), 1.0)
    return [float(err.max())], [float(rel.max())]


def check_identities(n: int, j_max: int, alpha_grid, tol: float = 1e-10,
                     beta_grid=None) -> list[IdentityReport]:
    """Run the multiplier-level identity suite for one dimension.

    Identities checked (even degrees 0..j_max, alphas from alpha_grid with
    inadmissible points skipped and counted):

      inversion        m(j,alpha) * m(j,2-n-alpha) = 1
      semigroup        m(j,alpha) * m(j,0) = q(j, alpha+n-2)
      cosine_bridge    m(j,alpha) = m(j,beta) * a(j,alpha,beta)
      bridge_factors   a(j,alpha,beta) = q+(mu=a-b, nu=2-b) * q-(mu=a-b, nu=1-b)
      composite_const  c_radon_composite(i) * q(0, i-1) = 1 for 1 <= i <= n-1
      asymptotics      |m(j_max,alpha)| * (j_max/2)^(alpha+n/2-1) -> 1
                       (checked against a fixed 2% band)

    An order (or order pair) is skipped when it is excluded or when a gamma
    factor of the identity has a numerator pole at some degree.  The first
    four identities are evaluated as arrays over (order, degree) through
    ``_table``; each row is one order or order pair.  The error metric is
    relative where |expected| > 1, absolute otherwise.
    """
    if j_max < 0:
        raise ValueError(f"j_max must be >= 0, got {j_max}")
    if beta_grid is None:
        beta_grid = alpha_grid
    alphas = np.asarray(alpha_grid, dtype=float)
    betas = np.asarray(beta_grid, dtype=float)
    j = np.arange(0, j_max + 1, 2)
    ok_alpha = ~_excluded_mask(n, alphas, Family.M)
    reports: list[IdentityReport] = []

    def rows(*terms):
        """Keep the rows where no term has a numerator pole; count the others."""
        pole = functools.reduce(np.logical_or, (p for _, p in terms))
        keep = ~pole.any(axis=-1)
        return ([np.broadcast_to(v, pole.shape)[keep] for v, _ in terms],
                int(np.count_nonzero(~keep)))

    def m(alpha):
        return _table(n, j, "M", {"alpha": alpha})

    # inversion
    a = alphas[ok_alpha & ~_excluded_mask(n, 2.0 - n - alphas, Family.M)][:, None]
    (m_a, m_b), poles = rows(m(a), m(2.0 - n - a))
    skipped = len(alphas) - len(a) + poles
    reports.append(make_report(
        "inversion", {"n": n, "j_max": j_max, "alphas": len(alpha_grid), "skipped": skipped},
        *_errs(m_a * m_b, 1.0), tol))

    # semigroup
    a = alphas[ok_alpha & ~_excluded_mask(n, alphas + n - 2.0, Family.Q)][:, None]
    (m_a, m_0, q), poles = rows(m(a), m(0.0), _table(n, j, "Q", {"alpha": a + n - 2.0}))
    skipped = len(alphas) - len(a) + poles
    reports.append(make_report(
        "semigroup", {"n": n, "j_max": j_max, "alphas": len(alpha_grid), "skipped": skipped},
        *_errs(m_a * m_0, q), tol))

    # cosine_bridge and bridge_factors on the (alpha, beta, degree) outer product:
    # alpha-only and beta-only gamma arguments are evaluated once per order
    a = alphas[ok_alpha][:, None, None]
    b = betas[~_excluded_mask(n, betas, Family.M)][None, :, None]
    mu = a - b
    (m_a, m_b, av, q_plus, q_minus), poles = rows(
        m(a), m(b),
        _table(n, j, "A", {"alpha": a, "beta": b}),
        _table(n, j, "Qplus", {"mu": mu, "nu": 2.0 - b}),
        _table(n, j, "Qminus", {"mu": mu, "nu": 1.0 - b}))
    params = {"n": n, "j_max": j_max, "grid": f"{len(alpha_grid)}x{len(beta_grid)}",
              "skipped": len(alphas) * len(betas) - a.size * b.size + poles}
    reports.append(make_report("cosine_bridge", params, *_errs(m_b * av, m_a), tol))
    reports.append(make_report("bridge_factors", dict(params),
                               *_errs(q_plus * q_minus, av), tol))

    # composite constant: c * q(0, i-1) = 1
    values = np.array([constant("c_radon_composite", n, i=ii) * q_mult(n, 0, float(ii - 1))
                       for ii in range(1, n)])
    reports.append(make_report("composite_const", {"n": n, "i_range": [1, n - 1]},
                               *_errs(values, 1.0), tol))

    # asymptotics: probed at a degree where the 2% band applies; the
    # finite-degree correction scales like |alpha + n/2 - 1| (n/2 - 1) / j,
    # so the probe degree grows with the dimension
    j = max(j_max, 200, 200 * (n - 2))
    j = j if j % 2 == 0 else j + 1
    probe_alphas = [-1.0, 0.0, 0.5, 2.0]
    admissible = [a for a in probe_alphas if not excluded(n, a, Family.M)]
    values = np.array([abs(m_mult(n, j, a)) * (j / 2.0) ** (a + n / 2.0 - 1.0)
                       for a in admissible])
    reports.append(make_report(
        "asymptotics", {"n": n, "j": j, "alphas": probe_alphas,
                        "skipped": len(probe_alphas) - len(admissible)},
        *_errs(values, 1.0), 0.02))

    return reports
