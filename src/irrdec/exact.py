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
    """Floor of the k-th root of a nonnegative integer.

    The cost grows with the root's bit length, not with k: a root of at
    most bitlen(k) + 2 bits is decided bit by bit from the top, one k-th
    power per bit, and a longer root of r bits takes O(log r) Newton steps,
    each one (k-1)-th power and one division of n.
    """
    if n < 0:
        raise ValueError("iroot of negative number")
    if k < 1:
        raise ValueError("root order must be >= 1")
    if n == 0 or k == 1:
        return n
    r = (n.bit_length() - 1) // k  # 2^r <= root < 2^(r+1)
    t = k.bit_length() + 1
    if r <= t:
        return _root_bits(n, k, r)
    # Newton's method from above, started from the root z of m = n >> k*s,
    # which holds the top h + 1 bits of the root (the top half of a long
    # root, taken the same way): n < (m+1) * 2^(k*s) <= ((z+1) * 2^s)^k, so
    # the start lies above the root, within a factor 1 + 2^-h <= 1 + 1/(2k),
    # where the steps converge quadratically.  A step from above the floor
    # lands on the floor or above it, strictly lower, so the first step that
    # does not descend was taken from the floor.
    h = t if r < 8 * t else (r + 1) // 2
    s = r - h
    x = (iroot(n >> (k * s), k) + 1) << s
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _root_bits(n: int, k: int, r: int) -> int:
    """iroot(n, k) for 2^(r*k) <= n < 2^((r+1)*k), decided bit by bit from
    the top: with x the root's bits above b and bit b set, (x * 2^b)^k <= n
    iff x^k <= n >> (k*b), so every power is of the bits decided so far."""
    x = 1
    for b in range(r - 1, -1, -1):
        x = x << 1 | 1
        if x ** k > n >> (k * b):
            x -= 1
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

    value and coeff may be int or Fraction; coeff must be >= 0.
    """
    value = Fraction(value)
    coeff = Fraction(coeff)
    if coeff < 0:
        raise ValueError("coefficient must be nonnegative")
    if d < 0:
        raise ValueError("negative degree")
    rhs_zero = coeff == 0 or d == 0
    if value < 0:
        return -1
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
