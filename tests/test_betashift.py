import math
import random
from fractions import Fraction

import pytest

from betalab.betashift import (
    admissibility_rule,
    classify,
    expansion_of_one,
    format_digits,
    greedy_expansion,
    is_admissible,
    specification_constants,
)
from betalab.precision import parse_beta

PHI = parse_beta("(1+sqrt5)/2")
SILVER = parse_beta("1+sqrt2")
PHI2 = parse_beta("(3+sqrt5)/2")


def _float_greedy(b: float, x: float, n: int):
    """Float shadow of the greedy algorithm; fine away from branch cuts and
    short enough that b^n stays below 1/ulp."""
    out = []
    for _ in range(n):
        d = math.floor(b * x)
        x = b * x - d
        out.append(d)
    return out


def test_digit_formatting_roundtrip():
    assert format_digits((1, 0, 2)) == "102"


def test_greedy_matches_float_shadow():
    # 16 digits at b < 4: float error ~ b^16 ulp ~ 1e-7, cut collisions are
    # measure ~1e-6 per digit under the j/997 seeds, so an exact match is due
    rng = random.Random(7)
    for _ in range(25):
        num = rng.randrange(21, 40)
        b = parse_beta(f"{num}/10")
        x = Fraction(rng.randrange(1, 996), 997)
        e = greedy_expansion(b, x, 16)
        assert list(e.digits) == _float_greedy(num / 10, float(x), 16)


def test_greedy_reconstruction_converges():
    # sum d_i b^-(i+1) over the prefix approaches x at rate b^-n
    b = parse_beta("5/2")
    x = Fraction(13, 29)
    e = greedy_expansion(b, x, 48)
    acc = Fraction(0)
    bf = Fraction(5, 2)
    for i, d in enumerate(e.digits):
        acc += Fraction(d) / bf ** (i + 1)
    assert 0 <= x - acc < Fraction(1, bf**47)


def test_greedy_rejects_seed_at_or_above_one():
    with pytest.raises(ValueError):
        greedy_expansion(parse_beta("2"), Fraction(1), 8)
    with pytest.raises(ValueError):
        greedy_expansion(parse_beta("2"), Fraction(3, 2), 8)


def test_expansion_of_one_leading_digit():
    e = expansion_of_one(parse_beta("5/2"), 24)
    assert e.of_one and e.digits[0] == 2  # floor(b)
    e = expansion_of_one(PHI, 8)
    assert e.digits[:2] == (1, 1)


# -- classification --------------------------------------------------------------


def test_phi_is_simple():
    nc = classify(PHI, 16)
    assert nc.verdict == "Simple"
    assert nc.hit_zero_at == 2
    assert nc.digits[:2] == (1, 1)
    assert nc.max_zero_run == 0  # zero run counted on the finite stem only


def test_integer_base_is_simple():
    nc = classify(parse_beta("3"), 8)
    assert nc.verdict == "Simple" and nc.hit_zero_at == 1
    assert nc.digits[0] == 3


def test_silver_mean_is_simple():
    # T(1) = sqrt2 - 1, and (1+sqrt2)(sqrt2-1) = 1 exactly: the orbit lands on
    # the branch cut, the right-continuous branch sends it to 0
    nc = classify(SILVER, 32)
    assert nc.verdict == "Simple"
    assert nc.hit_zero_at == 2
    assert nc.digits[:2] == (2, 1)


def test_phi_squared_is_parry_with_period():
    # T(1) = phi - 1, T^2(1) = phi^2(phi-1) - 1... = phi - 1 again: preperiod 1
    nc = classify(PHI2, 32)
    assert nc.verdict == "Parry"
    assert nc.period == (1, 1)
    assert nc.digits[:3] == (2, 1, 1)


def test_rational_base_is_witness_only():
    # orbit denominators 2^n grow forever: no exact repeat, no zero hit
    nc = classify(parse_beta("5/2"), 128)
    assert nc.verdict == "SpecifiedWitness"
    assert nc.hit_zero_at is None and nc.period is None


def test_decimal_base_gets_witness_only():
    nc = classify(parse_beta("2.7"), 64)
    assert nc.verdict in ("SpecifiedWitness", "Undetermined")


def test_classify_rejects_shallow_depth():
    with pytest.raises(ValueError):
        classify(PHI, 1)


# -- admissibility ----------------------------------------------------------------


def _brute_admissible(w, rule, max_len=64):
    """Parry criterion on suffixes n >= 1, mirroring the depth-limited-tie
    convention for finite comparison words."""
    for n in range(1, len(w)):
        for j in range(len(w) - n):
            c = rule.digit_at(j)
            if c is None:
                break
            if w[n + j] < c:
                break
            if w[n + j] > c:
                return False
    return True


def test_phi_rule_is_quasi_greedy():
    rule = admissibility_rule(PHI, depth=16)
    assert rule.quasi_greedy and rule.period == 2
    assert rule.comparison_word == (1, 0)


def test_admissibility_matches_brute_force():
    rng = random.Random(13)
    for base in (PHI, SILVER, parse_beta("5/2")):
        rule = admissibility_rule(base, depth=32)
        cap = base.ceil_b - 1
        rejected = 0
        for _ in range(300):
            w = tuple(rng.randrange(0, cap + 1) for _ in range(rng.randrange(2, 10)))
            got = is_admissible(w, rule)
            want = _brute_admissible(w, rule)
            assert bool(got) == want, (base.descriptor, w)
            rejected += not want
        assert rejected > 10


def test_admissible_greedy_words_always_pass():
    rule = admissibility_rule(SILVER, depth=48)
    rng = random.Random(17)
    for _ in range(25):
        x = Fraction(rng.randrange(1, 996), 997)
        e = greedy_expansion(SILVER, x, 24)
        assert is_admissible(e.digits, rule).ok


def test_admissibility_flags_first_violation():
    rule = admissibility_rule(PHI, depth=16)
    res = is_admissible((1, 1, 1), rule)  # suffix "11" beats quasi-greedy "10"
    assert not res.ok
    assert res.failing_suffix == 1


def test_admissibility_rejects_digits_outside_alphabet():
    rule = admissibility_rule(PHI, depth=16)
    with pytest.raises(ValueError):
        is_admissible((0, 2), rule)


# -- specification gap constants ---------------------------------------------------


def test_phi_gap_constants():
    sc = specification_constants(PHI, 2, depth=32)
    # orbit of 1 is {1, 1/phi, 0}: the smallest positive value is 1/phi
    inv_phi = (math.sqrt(5) - 1) / 2
    assert abs(float(sc.m_b_lower) - inv_phi) < 1e-12
    assert sc.discontinuity_budget == math.ceil(2 / inv_phi)


def test_integer_base_gap_convention():
    sc = specification_constants(parse_beta("2"), 2, depth=16)
    assert sc.m_b_lower == 1
    assert sc.discontinuity_budget == 2


def test_decimal_base_gap_is_depth_limited():
    sc = specification_constants(parse_beta("2.2"), 3, depth=64)
    assert 0 < float(sc.m_b_lower) < 1
    assert sc.discontinuity_budget >= 3
