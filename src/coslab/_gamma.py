"""Signed log-gamma ratios.

Every multiplier in this package is a ratio of gamma functions whose
arguments may be large (degree ~ 200) or negative (analytic continuation).
Raw gamma values overflow long before degree 200, so products are always
assembled as exp(sum of log|Gamma| differences) with the sign tracked
separately.

A ratio is a list of (numerator, denominator) argument pairs, summed pair by
pair, so a pair with equal arguments adds exactly 0.  A denominator pole gives
0, the continuation value; a numerator pole raises GammaPoleError (or is flagged).
"""

import functools
import math

import numpy as np
from scipy.special import gammaln, gammasgn

from .errors import GammaPoleError

__all__ = ["gamma_ratio", "gamma_ratio_array"]


def _is_pole(x, floor=math.floor):
    """Whether x sits on a nonpositive-integer gamma pole (an array with floor=np.floor)."""
    return (x <= 0.0) & (x == floor(x))


def _sign(x: float) -> float:
    """Sign of Gamma(x) off its poles: (-1)**floor(x) for x < 0."""
    return -1.0 if x < 0.0 and math.floor(x) % 2 else 1.0


def gamma_ratio(pairs) -> float:
    """Signed value of prod Gamma(a_k) / Gamma(b_k) over finite float pairs (a_k, b_k)."""
    zero = False
    for a, b in pairs:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"gamma arguments must be finite, got {pairs}")
        if _is_pole(a):
            raise GammaPoleError(f"gamma pole in a numerator argument of {pairs}")
        zero = zero or _is_pole(b)
    if zero:
        return 0.0
    sign, log = 1.0, 0.0
    for a, b in pairs:
        sign, log = sign * (_sign(a) * _sign(b)), log + (math.lgamma(a) - math.lgamma(b))
    return sign * math.exp(log)


def gamma_ratio_array(pairs):
    """``gamma_ratio`` over broadcast argument arrays, as (values, numerator_pole):
    where a numerator argument is a pole the value is NaN and the mask is set."""
    num_pole = functools.reduce(np.logical_or, (_is_pole(a, np.floor) for a, _ in pairs))
    den_pole = functools.reduce(np.logical_or, (_is_pole(b, np.floor) for _, b in pairs))
    sign, log = 1.0, 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        for a, b in pairs:
            sign, log = sign * (gammasgn(a) * gammasgn(b)), log + (gammaln(a) - gammaln(b))
        values = sign * np.exp(log)
    values = np.where(den_pole, 0.0, values)
    return np.where(num_pole, np.nan, values), num_pole
