"""Signed gamma ratios, for one degree or chained along the degrees.

Every multiplier in this package is a ratio of gamma functions whose
arguments may be large (degree ~ 200) or negative (analytic continuation).
Raw gamma values overflow long before degree 200, so a single ratio is
assembled as exp(sum of log|Gamma| differences) with the sign tracked
separately.

A ratio is a list of (numerator, denominator) argument pairs, summed pair by
pair, so a pair with equal arguments adds exactly 0.  A denominator pole gives
0, the continuation value; a numerator pole raises GammaPoleError (or is NaN
in a chain).

Along a chain of arguments a + i, b + i (i = 0, 1, ...) no general log-gamma is
needed: Gamma(x + 1) = x Gamma(x), so each step multiplies by the rational
factor prod (a + i) / (b + i).
"""

import math

import numpy as np

from .errors import GammaPoleError

__all__ = ["gamma_ratio", "gamma_ratio_chain"]


def _is_pole(x: float) -> bool:
    """Whether x sits on a nonpositive-integer gamma pole."""
    return x <= 0.0 and x == math.floor(x)


def _sign(x: float) -> float:
    """Sign of Gamma(x) off its poles: (-1)**floor(x) for x < 0."""
    return -1.0 if x < 0.0 and math.floor(x) % 2 else 1.0


def gamma_ratio(pairs) -> float:
    """Signed value of prod Gamma(a_k) / Gamma(b_k) over finite float pairs (a_k, b_k),
    +-inf where it overflows: a chain's start value, :func:`_start`."""
    zero = False
    for a, b in pairs:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"gamma arguments must be finite, got {pairs}")
        if _is_pole(a):
            raise GammaPoleError(f"gamma pole in a numerator argument of {pairs}")
        zero = zero or _is_pole(b)
    return 0.0 if zero else _start(False, 0, *(x for pair in pairs for x in pair))[1]


def _start(alternate: bool, last: int, *offsets) -> tuple:
    """Where a chain starts, and its value there, for offsets a_1, b_1, a_2, b_2, ...

    The start is the first step i0 >= 0 where every argument a + i0 is
    positive, or ``last`` if that comes first; the value is
    prod Gamma(a_k + i0) / Gamma(b_k + i0), times (-1)**i0 if alternate:
    +-inf where it overflows, NaN where an argument is a pole.
    """
    i0, sign = max(math.floor(-min(offsets)) + 1, 0), 1.0
    if i0 > last:                               # some arguments are negative at the start
        i0 = last
        sign = math.prod(_sign(x + i0) for x in offsets)
    if alternate and i0 % 2:
        sign = -sign
    log = 0.0
    try:
        for k in range(0, len(offsets), 2):
            log += math.lgamma(offsets[k] + i0) - math.lgamma(offsets[k + 1] + i0)
        return i0, sign * math.exp(log)
    except OverflowError:
        return i0, sign * math.inf
    except ValueError:                          # a pole, which the caller overwrites
        return i0, math.nan


def _starts(alternate: bool, last: int, offsets: np.ndarray) -> tuple:
    """:func:`_start` for each column of ``offsets`` (2K, R), bitwise, as arrays.  A
    column with a negative argument at its start (poles among them), one beyond 1e300
    or an overflowing exp takes :func:`_start` itself."""
    i0 = np.floor(-offsets.min(axis=0)) + 1.0
    alone = (i0 > last) | (offsets.max(axis=0) > 1e300)
    i0 = np.minimum(np.maximum(i0, 0.0), last)
    args = np.where(alone, 1.0, offsets + i0)
    lg = np.array(list(map(math.lgamma, args.ravel().tolist()))).reshape(args.shape)
    log = sum(lg[0::2] - lg[1::2])              # pair by pair, from 0, as _start sums
    alone |= log > 709.0                        # math.exp overflows above ~709.78
    log[alone] = 0.0
    start = np.array(list(map(math.exp, log.tolist())))
    if alternate:
        np.negative(start, out=start, where=i0 % 2 == 1.0)
    for r in np.flatnonzero(alone):
        start[r] = _start(alternate, last, *offsets[:, r].tolist())[1]
    return i0.astype(int), start


def gamma_ratio_chain(offsets: np.ndarray, count: int, alternate: bool = False) -> np.ndarray:
    """prod_k Gamma(a_k + i) / Gamma(b_k + i) at i = 0, 1, ..., count - 1, times (-1)**i if alternate.

    ``offsets`` is a finite float array of shape (K, 2, R): K pairs of
    (numerator, denominator) offsets a_k, b_k for each of R rows.  The
    result has shape (R, count), one chain per row.

    A row starts at its first step i0 where all of its arguments are
    positive, or at its last step if that comes first, with the value from
    ``math.lgamma``.  Up, each step multiplies by the factor
    prod (a_k + i) / (b_k + i); down, it divides by it, which gives the sign
    of every negative argument.  Below the steps where an integer offset
    a_k <= 0 puts a numerator argument on a pole the chain is NaN; below
    those of a denominator argument it is exactly 0.  A value that
    overflows is +-inf.  Whatever the other rows are, a row's values are
    the ones it has alone.
    """
    pairs, _, rows = offsets.shape
    with np.errstate(all="ignore"):
        if rows == 1:                           # the same start, without the arrays' cost
            flat = offsets.ravel().tolist()
            i0, start = _start(alternate, count - 1, *flat)
            top = bottom = i0
        else:
            i0, start = _starts(alternate, count - 1, offsets.reshape(2 * pairs, rows))
            top, bottom = (i0.max(), i0.min()) if rows else (0, 0)
        args = offsets[..., None] + np.arange(count - 1.0)
        num, den = args[0, 0], args[0, 1]
        for k in range(1, pairs):
            num, den = num * args[k, 0], den * args[k, 1]
        if alternate:
            np.negative(num, out=num)
        out = np.empty((rows, count))
        if top == bottom:
            # every row starts at column top: up over start, factor(top), ...,
            # and down over start, 1 / factor(top - 1), ..., 1 / factor(0)
            out[:, top] = start
            np.divide(num[:, top:], den[:, top:], out=out[:, top + 1:])
            np.multiply.accumulate(out[:, top:], axis=1, out=out[:, top:])
            if top:
                np.divide(den[:, :top], num[:, :top], out=out[:, :top])
                np.multiply.accumulate(out[:, top::-1], axis=1, out=out[:, top::-1])
        else:
            # the same two products from each row's own start, over 1 where a
            # product has not reached that start yet
            at = (np.arange(rows), i0)
            down = np.empty((rows, top + 1))
            np.divide(num, den, out=out[:, 1:])
            np.divide(den[:, top - 1::-1], num[:, top - 1::-1], out=down[:, 1:])
            out[:, :top][np.arange(top) < i0[:, None]] = 1.0
            down[np.arange(top, -1, -1) > i0[:, None]] = 1.0
            out[at] = down[at[0], top - at[1]] = start
            np.multiply.accumulate(out, axis=1, out=out)
            np.multiply.accumulate(down, axis=1, out=down)
            np.copyto(out[:, :top], down[:, :0:-1], where=np.arange(top) < i0[:, None])
    if (top or count == 1) and (rows != 1 or any(map(_is_pole, flat))):
        # poles sit below the first step with every argument positive: at the
        # steps i <= -a of an integer offset a <= 0 (one row checks its floats)
        poles = (offsets <= 0.0) & (offsets == np.floor(offsets))
        if poles.any():
            below = np.where(poles, 1.0 - offsets, 0.0).max(axis=0)[..., None]
            out[np.arange(count) < below[1]] = 0.0
            out[np.arange(count) < below[0]] = np.nan
    return out
