import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irrdec.exact import (
    cmp_scaled_pow,
    floor_beta_mult,
    floor_scaled_pow,
    iroot,
    le_scaled_pow,
)


@pytest.mark.parametrize("call,message", [
    (lambda: floor_beta_mult(-1), "negative degree"),
    (lambda: cmp_scaled_pow(1, -1, 4, 1, 2), "coefficient must be nonnegative"),
    (lambda: cmp_scaled_pow(1, 1, -4, 1, 2), "negative degree"),
    (lambda: floor_scaled_pow(1, -4, 1, 2), "negative degree"),
], ids=["floor_beta_mult", "cmp_coeff", "cmp_degree", "floor_scaled_pow"])
def test_rejects_negative_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestIroot:
    def test_perfect_powers(self):
        assert iroot(0, 3) == 0
        assert iroot(1, 7) == 1
        assert iroot(8, 3) == 2
        assert iroot(10**50, 50) == 10

    def test_rounds_down(self):
        assert iroot(7, 3) == 1
        assert iroot(63, 3) == 3
        assert iroot(2**50 - 1, 50) == 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            iroot(-1, 2)
        with pytest.raises(ValueError):
            iroot(4, 0)

    # n of up to about 12,000 bits and k up to 700 reach the audit's
    # k = 589 root and both of iroot's paths: short roots decided bit by bit
    # and long roots taken by Newton's method
    @given(st.integers(min_value=0, max_value=12000).flatmap(
               lambda bits: st.integers(min_value=0, max_value=(1 << bits) - 1)),
           st.integers(min_value=1, max_value=700))
    @example((75**475) << 7500, 589)
    @example(221460**589, 589)
    @example(221460**589 - 1, 589)
    @example(3**700, 700)
    @example(3**700 - 1, 700)
    @example(2**11999, 2)
    @example(10**40 - 1, 40)
    def test_floor_property(self, n, k):
        r = iroot(n, k)
        assert r**k <= n < (r + 1) ** k

    @given(st.integers(min_value=1, max_value=700).flatmap(
        lambda k: st.tuples(st.integers(min_value=1, max_value=1 << (12000 // k)), st.just(k))))
    @example((221460, 589))
    @example((2, 700))
    @example((3617959, 6))
    def test_exact_powers(self, root_k):
        root, k = root_k
        assert iroot(root**k, k) == root
        assert iroot(root**k - 1, k) == root - 1
        assert iroot(root**k + 1, k) == root + (k == 1)

    # the eight roots of the constants audit and their exact floors
    @pytest.mark.parametrize("n,k,floor", [
        ((75**475) << 7500, 589, 221460),
        (75**25 >> 25, 6, 3617958),
        (1 << 200, 7, 398893554),
        (219**25, 6, 5647425084),
        (24**50, 7, 7221904256),
        (44**50, 19, 21128),
        (2664**50, 19, 1034102857),
        ((10**10) ** 19 << 50, 19, 61970385690),
    ])
    def test_audit_floors(self, n, k, floor):
        assert iroot(n, k) == floor


class TestFloorBetaMult:
    def test_frozen_values(self):
        # beta = 2^(50/19) ~ 6.1970385690666...
        assert floor_beta_mult(1) == 6
        assert floor_beta_mult(2) == 12
        assert floor_beta_mult(10**10) == 61970385690

    @given(st.integers(min_value=1, max_value=10**12))
    def test_matches_exact_power_comparison(self, d):
        f = floor_beta_mult(d)
        # f <= beta*d < f+1  <=>  f^19 <= 2^50 d^19 < (f+1)^19
        assert f**19 <= (d**19) << 50 < (f + 1) ** 19


def _reference_cmp(value, coeff, d, num, den):
    if coeff == math.inf:
        return -1
    rhs = Fraction(coeff) ** den * d**num
    if value < 0:
        return -1 if rhs > 0 or value != 0 else 0
    lhs = Fraction(value) ** den
    return (lhs > rhs) - (lhs < rhs)


class TestCmpScaledPow:
    def test_examples(self):
        # 8 * 100^0.62 = 139.02...
        assert cmp_scaled_pow(139, 8, 100, 31, 50) == -1
        assert cmp_scaled_pow(140, 8, 100, 31, 50) == 1
        # exact tie: coeff 4, d=16, exponent 1/2 -> 4*sqrt(16) = 16
        assert cmp_scaled_pow(16, 4, 16, 1, 2) == 0
        assert le_scaled_pow(16, 4, 16, 1, 2)

    def test_negative_and_fraction_values(self):
        assert cmp_scaled_pow(-3, 8, 100, 31, 50) == -1
        assert cmp_scaled_pow(Fraction(-1, 3), 0, 5, 31, 50) == -1
        assert cmp_scaled_pow(Fraction(279, 2), 8, 100, 31, 50) == 1

    @given(
        st.fractions(min_value=-50, max_value=10**6, max_denominator=97),
        st.fractions(min_value=0, max_value=64, max_denominator=9),
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=49),
    )
    @settings(max_examples=300)
    def test_matches_fraction_reference(self, value, coeff, d, num):
        den = 50
        assert cmp_scaled_pow(value, coeff, d, num, den) == _reference_cmp(
            value, coeff, d, num, den
        )


class TestFloorScaledPow:
    def test_frozen_values(self):
        assert floor_scaled_pow(8, 100, 31, 50) == 139
        # 12 * 29^0.24 = 26.92...: the pair-overlap threshold at degree 29
        assert floor_scaled_pow(12, 29, 12, 50) == 26
        assert floor_scaled_pow(Fraction(1, 2), 4, 1, 2) == 1

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            floor_scaled_pow(math.inf, 5, 31, 50)
        # a negative coefficient has no nonnegative m below it, whatever d is
        assert floor_scaled_pow(-1, 4, 1, 2) == -1

    def test_degree_beyond_float_range(self):
        # 8 * (10**400)**(31/50) = 8 * 10**248 exactly; a float of 10**400 overflows
        assert floor_scaled_pow(8, 10**400, 31, 50) == 8 * 10**248
        assert floor_scaled_pow(Fraction(21, 100), 10**400 + 1, 12, 50) == 21 * 10**94

    def test_seeded_grid_is_the_floor(self):
        rng = random.Random(1950)
        for _ in range(400):
            coeff = Fraction(rng.randint(0, 400), rng.randint(1, 50))
            d = rng.choice([rng.randint(0, 3000), rng.randint(1, 10**12), 10 ** rng.randint(300, 420)])
            num, den = rng.choice([(31, 50), (12, 50), (19, 50), (1, 2), (2, 3)])
            m = floor_scaled_pow(coeff, d, num, den)
            assert cmp_scaled_pow(m, coeff, d, num, den) <= 0
            assert cmp_scaled_pow(m + 1, coeff, d, num, den) > 0

    @given(
        st.fractions(min_value=0, max_value=64, max_denominator=9),
        st.integers(min_value=1, max_value=10**9),
    )
    @settings(max_examples=200)
    def test_floor_property(self, coeff, d):
        f = floor_scaled_pow(coeff, d, 31, 50)
        assert le_scaled_pow(f, coeff, d, 31, 50)
        assert not le_scaled_pow(f + 1, coeff, d, 31, 50)
