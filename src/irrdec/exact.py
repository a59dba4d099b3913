"""Exact integer arithmetic for the fractional-power comparisons.

Every exponent that appears in the degree bounds is a rational with
denominator 50 (0.38 = 19/50, 0.62 = 31/50, 0.24 = 12/50, 0.76 = 38/50),
and the scale base is beta = 2**(50/19).  That makes every comparison of
the form  value <= coeff * d**(num/den)  decidable in big-integer
arithmetic: raise both sides to the den-th power.  Nothing in this module
touches floating point, so there are no boundary cases to guard.
"""

from __future__ import annotations

import math
from fractions import Fraction

# beta**19 == 2**50 exactly; keep the two integers together so call sites
# do not re-derive them.
BETA_POW = 19
BETA_SHIFT = 50


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer."""
    if n < 0:
        raise ValueError("iroot of negative number")
    if k < 1:
        raise ValueError("root order must be >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    # Newton iteration from a bit-length overestimate; converges in a few
    # steps and the final check makes the result exact.
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def floor_beta_mult(d: int) -> int:
    """floor(beta * d) for integer d >= 0, computed exactly.

    beta * d = (2**50 * d**19) ** (1/19); the 19th root is never an integer
    for d >= 1 (2**50 is not a 19th power), so floor is strict.
    """
    if d < 0:
        raise ValueError("negative degree")
    return iroot((d ** BETA_POW) << BETA_SHIFT, BETA_POW)


def cmp_scaled_pow(value, coeff, d: int, num: int, den: int) -> int:
    """Sign of value - coeff * d**(num/den), decided exactly.

    value and coeff may be int or Fraction; coeff must be >= 0 (slack
    scaled coefficients are).  Accepts coeff == math.inf as the documented
    "bound disabled" sentinel, in which case the result is -1.
    """
    if coeff == math.inf:
        return -1
    value = Fraction(value)
    coeff = Fraction(coeff)
    if coeff < 0:
        raise ValueError("coefficient must be nonnegative")
    if d < 0:
        raise ValueError("negative degree")
    rhs_zero = coeff == 0 or d == 0
    if value < 0:
        return 0 if rhs_zero and value == 0 else -1
    if rhs_zero:
        return 1 if value > 0 else 0
    # value**den vs coeff**den * d**num with both sides nonnegative.
    lhs = value.numerator ** den * coeff.denominator ** den
    rhs = coeff.numerator ** den * d ** num * value.denominator ** den
    return (lhs > rhs) - (lhs < rhs)


def le_scaled_pow(value, coeff, d: int, num: int, den: int) -> bool:
    """value <= coeff * d**(num/den), exact."""
    return cmp_scaled_pow(value, coeff, d, num, den) <= 0


def floor_scaled_pow(coeff, d: int, num: int, den: int) -> int:
    """Largest integer m with m <= coeff * d**(num/den); -1 if none (coeff<0).

    Used to turn a per-vertex bound into an integer threshold once, so the
    hot loops compare plain ints.
    """
    if coeff == math.inf:
        raise ValueError("no finite threshold for infinite coefficient")
    coeff = Fraction(coeff)
    if coeff < 0:
        return -1
    if d < 0:
        raise ValueError("negative degree")
    if coeff == 0 or d == 0:
        return 0
    # for integer m: m <= coeff * d**(num/den) iff m**den <= floor(coeff**den * d**num)
    return iroot(coeff.numerator ** den * d ** num // coeff.denominator ** den, den)
