import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from betalab.exactnum import (
    Quadratic,
    ln2_bounds,
    ln_bounds,
    round_down,
    round_up,
    scaled_ceil,
    scaled_floor,
    sqrt_bounds,
    squarefree_split,
)

LN2 = 0.6931471805599453


def test_rounding_brackets_and_width():
    rng = random.Random(1)
    for _ in range(200):
        x = Fraction(rng.randrange(-10**9, 10**9), rng.randrange(1, 10**9))
        for bits in (8, 32, 80):
            lo, hi = round_down(x, bits), round_up(x, bits)
            assert lo <= x <= hi
            assert hi - lo <= Fraction(2, 2**bits)
            assert lo.denominator & (lo.denominator - 1) == 0  # dyadic


def test_scaled_floor_ceil():
    assert scaled_floor(Fraction(1, 3), 4) == 5  # floor(16/3)
    assert scaled_ceil(Fraction(1, 3), 4) == 6


def test_sqrt_bounds_certify():
    for x in (2, 5, Fraction(7, 3), Fraction(10**12), Fraction(1, 10**9)):
        lo, hi = sqrt_bounds(x, 64)
        assert lo * lo <= x <= hi * hi
        assert hi - lo <= Fraction(1, 2**64) * max(1, hi)


def test_ln2_matches_float():
    lo, hi = ln2_bounds(96)
    assert lo <= Fraction(LN2).limit_denominator(10**15) <= hi or abs(float(lo) - LN2) < 1e-15
    assert hi - lo <= Fraction(1, 2**90)


def test_ln_bounds_enclose_math_log():
    rng = random.Random(2)
    for _ in range(60):
        x = Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**6))
        lo, hi = ln_bounds(x, 80)
        assert lo <= hi
        # float log sits inside, up to its own last-bit error
        assert float(lo) - 1e-12 <= math.log(x) <= float(hi) + 1e-12
        assert hi - lo <= Fraction(1, 2**70)


@given(
    st.fractions(min_value=Fraction(1, 10**9), max_value=10**9, max_denominator=10**9).filter(
        lambda x: x != 1
    ),
    st.integers(16, 512),
)
def test_ln_bounds_enclose_mpmath_log(x, bits):
    # ln(x) for rational x != 1 is irrational, so a sound enclosure strictly
    # contains it; mpmath at bits + 80 bits is off by far less than the slack
    mpmath = pytest.importorskip("mpmath")
    lo, hi = ln_bounds(x, bits)
    with mpmath.workprec(bits + 80):
        ln_x = mpmath.log(mpmath.mpf(x.numerator) / x.denominator)
    man, exp = ln_x.man_exp  # man is unsigned
    ref = int(mpmath.sign(ln_x)) * man * Fraction(2) ** exp
    slack = Fraction(1, 2 ** (bits + 64))
    assert lo - slack < ref < hi + slack
    assert hi - lo <= Fraction(2, 2**bits)


def test_ln_bounds_huge_argument_is_cheap():
    # normalization x = 2^k * m keeps the series argument near 1
    lo, hi = ln_bounds(10**45, 96)
    assert abs(float(lo) - 45 * math.log(10)) < 1e-10
    assert hi - lo < Fraction(1, 2**64)


def test_ln_bounds_rejects_nonpositive():
    with pytest.raises(ValueError):
        ln_bounds(0)
    with pytest.raises(ValueError):
        ln_bounds(Fraction(-3, 2))


def test_squarefree_split():
    assert squarefree_split(4) == (2, 1)
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(5) == (1, 5)
    assert squarefree_split(360) == (6, 10)
    for d in range(1, 500):
        sq, d0 = squarefree_split(d)
        assert sq * sq * d0 == d
        for p in range(2, 23):
            if d0 % (p * p) == 0:
                raise AssertionError(f"{d0} not squarefree")


# -- quadratic field ----------------------------------------------------------

PHI = Quadratic(Fraction(1, 2), Fraction(1, 2), 5)


def test_phi_satisfies_its_polynomial():
    assert PHI * PHI == PHI + 1
    assert PHI * PHI - PHI - 1 == 0


def test_sqrt2_squares_to_two():
    r = Quadratic(0, 1, 2)
    assert r * r == 2
    assert (1 + r) * (1 + r) == 3 + 2 * r


def test_cmp_rational_matches_floats():
    rng = random.Random(3)
    for _ in range(300):
        q = Quadratic(
            Fraction(rng.randrange(-50, 50), rng.randrange(1, 20)),
            Fraction(rng.randrange(-50, 50), rng.randrange(1, 20)),
            rng.choice([2, 3, 5, 7, 11]),
        )
        t = Fraction(rng.randrange(-200, 200), rng.randrange(1, 20))
        approx = float(q.u) + float(q.v) * math.sqrt(q.d)
        if abs(approx - float(t)) > 1e-6:  # stay away from ties float can't see
            assert q.cmp_rational(t) == (1 if approx > float(t) else -1)


def test_bounds_enclose_and_shrink():
    rng = random.Random(4)
    for _ in range(50):
        q = Quadratic(
            Fraction(rng.randrange(-9, 9)), Fraction(rng.randrange(-9, 9)), 13
        )
        lo64, hi64 = q.bounds(64)
        lo128, hi128 = q.bounds(128)
        assert lo64 <= lo128 <= hi128 <= hi64
        assert hi64 - lo64 <= Fraction(1, 2**60)
        approx = float(q.u) + float(q.v) * math.sqrt(13)
        assert float(lo64) - 1e-9 <= approx <= float(hi64) + 1e-9


def test_floor_agrees_with_float_floor():
    rng = random.Random(5)
    for _ in range(200):
        q = Quadratic(
            Fraction(rng.randrange(-40, 40), 3), Fraction(rng.randrange(-9, 9)), 7
        )
        approx = float(q.u) + float(q.v) * math.sqrt(7)
        if abs(approx - round(approx)) > 1e-6:
            assert q.floor() == math.floor(approx)


def test_mixed_fields_refuse_to_combine():
    with pytest.raises(ValueError):
        Quadratic(0, 1, 2) + Quadratic(0, 1, 3)
    with pytest.raises(ValueError):
        Quadratic(1, 1, 1)  # d must exceed 1


# -- order structure against sqrt_bounds, by property --------------------------

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=40)
quadratics = st.builds(
    Quadratic,
    rationals,
    rationals.filter(lambda v: v != 0),
    st.sampled_from([2, 3, 5, 13]),
)


def _sign_by_enclosure(u: Fraction, v: Fraction, d: int) -> int:
    """Sign of u + v*sqrt(d) from sqrt_bounds alone, refined until it is clear."""
    if v == 0:
        return (u > 0) - (u < 0)
    bits = 8
    while True:
        lo, hi = sqrt_bounds(d, bits)
        ends = (u + v * lo, u + v * hi)
        if min(ends) > 0:
            return 1
        if max(ends) < 0:
            return -1
        bits *= 2


@given(quadratics, rationals)
def test_order_against_rationals_agrees_with_enclosure(q, r):
    sign = _sign_by_enclosure(q.u - r, q.v, q.d)
    assert q.cmp_rational(r) == sign
    assert (q < r) == (sign < 0) == (r > q)
    assert (r < q) == (sign > 0) == (q > r)
    assert (q <= r) == (sign <= 0) == (r >= q)
    assert (q >= r) == (sign >= 0) == (r <= q)
    n = math.floor(q)
    assert _sign_by_enclosure(q.u - n, q.v, q.d) >= 0
    assert _sign_by_enclosure(q.u - n - 1, q.v, q.d) < 0
    assert n == q.floor()


@given(quadratics, rationals, rationals)
def test_same_field_order_agrees_with_enclosure(q1, du, dv):
    q2 = Quadratic(q1.u + du, q1.v + dv, q1.d)
    sign = _sign_by_enclosure(q1.u - q2.u, q1.v - q2.v, q1.d)
    assert (q1 - q2).cmp_rational(0) == sign
    assert (q1 < q2) == (sign < 0) == (q2 > q1)
    assert (q1 <= q2) == (sign <= 0) == (q2 >= q1)
    assert (q1 >= q2) == (sign >= 0)


def test_order_refuses_mixed_fields_and_floats():
    with pytest.raises(ValueError):
        Quadratic(0, 1, 2) < Quadratic(0, 1, 3)
    with pytest.raises(TypeError):
        Quadratic(0, 1, 2) < 1.5
