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

from ._gamma import gamma_ratio, gamma_ratio_chain
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


# family -> its excluded orders, half-lattices (start, step) = {start, start+step, ...}
# in n and i: where a numerator gamma of the family's closed form has its first
# pole, at degree 0, and then every second order
_POLES = {
    Family.M: lambda n, i: ((1, 2),),           # Gamma((j+1-alpha)/2)
    Family.Q: lambda n, i: ((n - 1, 2),),       # Gamma((j+n-1-alpha)/2)
    Family.R_I: lambda n, i: ((n - i, 2),),     # Gamma((n-i-alpha)/2) of gamma_alpha_i
    # M at 1-n+alpha: its Gamma((j+1-beta)/2), and the poles of its degree-0
    # denominator Gamma((n-1+beta)/2) = Gamma(alpha/2), where the density is 0
    Family.K_CLASS: lambda n, i: ((n, 2), (0, -2)),
}


def _excluded_mask(n: int, alpha, family: Family | str, i: int | None = None):
    """``excluded`` elementwise, for a float or an array of orders."""
    _check_dim(n)
    family = Family(family)
    if family is Family.R_I:
        if i is None:
            raise ValueError("family R_i requires the subspace dimension i")
        if not 1 <= i <= n - 1:
            raise ValueError(f"need 1 <= i <= n-1, got i={i}, n={n}")
    near = ~np.isfinite(alpha)
    with np.errstate(invalid="ignore"):     # an infinite order gives inf - inf
        for start, step in _POLES[family](n, i):
            k = np.fmax(np.rint((alpha - start) / step), 0.0)
            near |= abs(alpha - (start + k * step)) <= EPS_POLE
    return near


def excluded(n: int, alpha: float, family: Family | str, i: int | None = None) -> bool:
    """Whether alpha is not finite or within EPS_POLE of the family's excluded lattice,
    the half-lattices ``_POLES[family](n, i)`` (R_i requires i)."""
    return bool(_excluded_mask(n, alpha, family, i))


def check_order(n: int, alpha, family: Family | str, i: int | None = None):
    """Return alpha (a float or an array) if its orders are finite and none is ``excluded``.

    A non-finite order raises ValueError; one on the family's lattice
    raises ExcludedParameterError naming that lattice.
    """
    bad = _excluded_mask(n, alpha, family, i)
    if np.count_nonzero(bad):               # the mask holds non-finite orders too
        finite = np.isfinite(alpha)
        if not np.all(finite):
            raise ValueError(f"alpha must be finite, got {np.asarray(alpha)[~finite].flat[0]}")
        lattice = " U ".join(f"{{{s}, {s + d}, ...}}" for s, d in _POLES[Family(family)](n, i))
        raise ExcludedParameterError(f"alpha={np.asarray(alpha)[bad].flat[0]} is on the "
                                     f"{Family(family).value} order lattice {lattice} (n={n})")
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
# evaluate it per degree, ``table`` takes its arguments at degree 0 as the
# offsets of degree chains, both through ``_gamma``.

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

    The closed form only: the callers check the parameters (:func:`_check_params`)
    and apply the rest: the sign (-1)^(j/2) of M and Funk, Funk's 1/c_(n-1),
    zeros at odd M, Q, Funk degrees.
    """
    mu, nu, alpha, beta = (params.get(name, 0.0) for name in ("mu", "nu", "alpha", "beta"))
    if family in ("M", "Funk"):                 # Funk, with no parameter, is M at order 0
        return [((j + 1.0 - alpha) / 2.0, (j + n - 1.0 + alpha) / 2.0)]
    if family == "Q":
        return [((j + n - 1.0 - alpha) / 2.0, (j + n - 1.0) / 2.0),
                ((j + 1.0) / 2.0, (j + alpha + 1.0) / 2.0)]
    if family == "Qplus":
        return [((j + n - nu + 1.0) / 2.0, (j + n - nu + 1.0 + mu) / 2.0)]
    if family == "Qminus":
        return [((j + nu - mu) / 2.0, (j + nu) / 2.0)]
    return [((j + 1.0 - alpha) / 2.0, (j + 1.0 - beta) / 2.0),
            ((j + n - 1.0 + beta) / 2.0, (j + n - 1.0 + alpha) / 2.0)]


def _check_params(n: int, family: str, params: dict) -> None:
    """An M or Q order on its lattice raises ExcludedParameterError, a non-finite
    gamma-family parameter ValueError; Poisson's ``t`` is checked by ``_table``."""
    if family in ("M", "Q"):
        check_order(n, params["alpha"], family)
    elif family != "Poisson":
        for name in FAMILY_PARAMS[family]:
            if not np.isfinite(params[name]).all():
                raise ValueError(f"{name} must be finite, got {params[name]}")


def _multiplier(n: int, j: int, family: str, params: dict) -> float:
    """One degree of a gamma family: the body of the per-degree scalars."""
    _check_dim(n)
    _check_degree(j)
    _check_params(n, family, params)
    if family in ("M", "Q", "Funk") and j % 2 == 1:
        return 0.0
    pairs = _gamma_args(n, j, family, params)
    value = (-1.0 if family in ("M", "Funk") and (j // 2) % 2 else 1.0) * gamma_ratio(pairs)
    return value / constant("c_limit", n, i=n - 1) if family == "Funk" else value


def _table(n: int, j: np.ndarray, family: str, params: dict) -> np.ndarray:
    """Multipliers over broadcast degrees and orders, NaN where a numerator has a gamma pole.

    Its callers check the parameters (``table`` by :func:`_check_params`).  Each
    degree parity that is needed runs as one ``_gamma.gamma_ratio_chain`` per
    order, from degree 0 or 1 up to the largest requested degree; M, Q and Funk
    run only their even degrees, and vanish on odd ones.
    """
    if family == "Poisson":
        t = np.asarray(params["t"], dtype=float)
        if not ((0.0 <= t) & (t < 1.0)).all():
            raise ValueError(f"Poisson parameter must satisfy 0 <= t < 1, got {t}")
        return t ** j
    pairs = _gamma_args(n, 0.0, family, params)
    shape = np.broadcast(*(x for pair in pairs for x in pair)).shape
    rows = math.prod(shape)
    top = int(np.maximum.reduce(j, axis=None, initial=0))
    # the argument at degree j is offset + j/2, so degree j is step j // 2 of its
    # parity's chain.  M, Q and Funk vanish on odd degrees: their even chain
    # fills a grid of every degree.  The others run the parities of j, one as a
    # grid of every other degree, both as one chain over twice the rows.
    if family in ("M", "Q", "Funk"):
        runs, index = (0,), j
    elif (odd := np.count_nonzero(j & 1)) in (0, j.size):  # one parity: every other degree
        runs, index = ((1,) if odd else (0,)), j // 2
    else:                                   # both parities: a grid of every degree
        runs, index = (0, 1), j
    offsets = np.empty((len(pairs), 2, len(runs)) + shape)
    for k, pair in enumerate(pairs):
        offsets[k, 0], offsets[k, 1] = pair
    if runs[-1]:
        offsets[:, :, -1] += 0.5
    chain = gamma_ratio_chain(offsets.reshape(len(pairs), 2, -1), top // 2 + 1,
                              alternate=family in ("M", "Funk"))
    if family == "Funk":
        chain /= constant("c_limit", n, i=n - 1)
    grid = chain
    if index is j:                          # a grid of every degree
        grid = np.zeros((rows, top + 1))
        for k, p in enumerate(runs):
            grid[:, p::2] = chain[k * rows:(k + 1) * rows, :(top - p) // 2 + 1]
    if j.ndim == 0 or (j.ndim == 1 and shape[-1:] in ((), (1,))):
        # degrees along the last axis, orders along the others
        lead = shape if j.ndim == 0 else shape[:-1]
        return grid.reshape(lead + grid.shape[-1:])[..., index]
    try:
        ndim = len(np.broadcast_shapes(shape, j.shape))
    except ValueError:
        raise ValueError(f"degrees of shape {j.shape} do not broadcast against "
                         f"parameters of shape {shape}") from None
    grid = grid.reshape((1,) * (ndim - len(shape)) + shape + grid.shape[-1:])
    index = index.reshape((1,) * (ndim - j.ndim) + j.shape + (1,))
    return np.take_along_axis(grid, index, axis=-1)[..., 0]


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
    if np.minimum.reduce(j, axis=None, initial=0) < 0:
        raise ValueError(f"degrees must be >= 0, got {j.min()}")
    if family not in FAMILY_PARAMS:
        raise ValueError(f"unknown family {family!r}")
    if set(params) != set(FAMILY_PARAMS[family]):
        raise TypeError(f"family {family!r} takes parameters "
                        f"{FAMILY_PARAMS[family]}, got {tuple(params)}")
    _check_params(n, family, params)
    values = _table(n, j, family, params)
    pole = np.isnan(values)
    if np.count_nonzero(pole):
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
    five identities are evaluated as arrays over (order, degree), one
    ``_table`` per family; each row is one order or order pair.  Each entry's
    error is relative to max(|expected|, 1), as in :class:`reports.IdentityReport`.
    """
    if j_max < 0:
        raise ValueError(f"j_max must be >= 0, got {j_max}")
    if beta_grid is None:
        beta_grid = alpha_grid
    alphas = np.asarray(alpha_grid, dtype=float)
    betas = np.asarray(beta_grid, dtype=float)
    j = np.arange(0, j_max + 1, 2)
    na = len(alphas)
    ok = ~_excluded_mask(n, np.concatenate((alphas, 2.0 - n - alphas, betas)), Family.M)
    a, b = alphas[ok[:na]], betas[ok[2 * na:]]
    inv = ok[na:2 * na][ok[:na]]                    # among the admissible alphas
    reports: list[IdentityReport] = []

    def stacked(family, *orders):
        """One table over every list of orders, split into one block per list."""
        table = _table(n, j, family, {"alpha": np.concatenate(orders)[:, None]})
        ends = np.cumsum([len(o) for o in orders]).tolist()
        return [table[end - len(o):end] for o, end in zip(orders, ends)]

    # every M order of the suite in one table and every Q order in another (the
    # semigroup's, and q(0, i-1) of composite_const): rows are independent, and
    # alpha + n - 2 is on the Q lattice exactly when alpha is on the M lattice
    m_a, m_inv, m_b, m_0 = stacked("M", a, 2.0 - n - a[inv], b, [0.0])
    q_semi, q_i = stacked("Q", a + n - 2.0, np.arange(n - 1.0))

    def rows(*terms):
        """Keep the rows where no term has a numerator pole (NaN); count the others."""
        keep = ~functools.reduce(np.logical_or, (np.isnan(v).any(axis=-1) for v in terms))
        if keep.all():
            return terms, 0
        shape = np.broadcast_shapes(*(v.shape for v in terms))
        return ([np.broadcast_to(v, shape)[keep] for v in terms],
                int(np.count_nonzero(~keep)))

    # inversion and semigroup: an order is skipped unless its row is kept
    (m_1, m_2), _ = rows(m_a[inv], m_inv)
    reports.append(make_report(
        "inversion", {"n": n, "j_max": j_max, "alphas": na, "skipped": na - len(m_1)},
        [(m_1 * m_2, 1.0)], tol))
    (m_1, m_2, q), _ = rows(m_a, m_0, q_semi)
    reports.append(make_report(
        "semigroup", {"n": n, "j_max": j_max, "alphas": na, "skipped": na - len(m_1)},
        [(m_1 * m_2, q)], tol))

    # cosine_bridge and bridge_factors on the (alpha, beta, degree) outer product:
    # alpha-only and beta-only gamma arguments are evaluated once per order
    a, b = a[:, None, None], b[None, :, None]
    mu = a - b
    (m_1, m_2, av, q_plus, q_minus), poles = rows(
        m_a[:, None], m_b[None],
        _table(n, j, "A", {"alpha": a, "beta": b}),
        _table(n, j, "Qplus", {"mu": mu, "nu": 2.0 - b}),
        _table(n, j, "Qminus", {"mu": mu, "nu": 1.0 - b}))
    params = {"n": n, "j_max": j_max, "grid": f"{len(alpha_grid)}x{len(beta_grid)}",
              "skipped": na * len(betas) - a.size * b.size + poles}
    reports.append(make_report("cosine_bridge", params, [(m_2 * av, m_1)], tol))
    reports.append(make_report("bridge_factors", dict(params),
                               [(q_plus * q_minus, av)], tol))

    # composite constant: c * q(0, i-1) = 1
    values = np.array([constant("c_radon_composite", n, i=ii) for ii in range(1, n)]) * q_i[:, 0]
    reports.append(make_report("composite_const", {"n": n, "i_range": [1, n - 1]},
                               [(values, 1.0)], tol))

    # asymptotics: probed at a degree where the 2% band applies; the
    # finite-degree correction scales like |alpha + n/2 - 1| (n/2 - 1) / j,
    # so the probe degree grows with the dimension; |m| there is a chain's start,
    # and no probe is on the M lattice
    j = max(j_max, 200, 200 * (n - 2))
    j = j if j % 2 == 0 else j + 1
    probes = np.array([-1.0, 0.0, 0.5, 2.0])
    pairs = _gamma_args(n, float(j), "M", {"alpha": probes})
    start = gamma_ratio_chain(np.reshape(np.broadcast_arrays(
        *(x for pair in pairs for x in pair)), (len(pairs), 2, -1)), 1)[:, 0]
    values = np.abs(start) * [(j / 2.0) ** (p + n / 2.0 - 1.0) for p in probes.tolist()]
    reports.append(make_report(
        "asymptotics", {"n": n, "j": j, "alphas": probes.tolist(), "skipped": 0},
        [(values, 1.0)], 0.02))

    return reports
