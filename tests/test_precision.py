import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from betalab import precision
from betalab.exactnum import Quadratic
from betalab.precision import (
    DescriptorError,
    Enclosure,
    PrecisionBudget,
    PrecisionExhausted,
    orbit_with_digits,
    parse_beta,
    parse_exact,
    tb_apply,
    tb_orbit,
    tb_orbit_floats,
)

PHI = "(1+sqrt5)/2"


# -- descriptor grammar --------------------------------------------------------


def test_parse_integer_and_rational():
    b = parse_beta("2")
    assert b.kind == "rational" and b.floor_b == 2 and b.ceil_b == 2
    assert b.exact_value() == 2
    b = parse_beta("5/2")
    assert b.kind == "rational" and b.exact_value() == Fraction(5, 2)
    assert b.floor_b == 2 and b.ceil_b == 3


def test_parse_decimal_literal_is_exact():
    b = parse_beta("2.5")
    assert b.kind == "bigfloat"
    assert b.lo <= Fraction(5, 2) <= b.hi
    # @bits controls the display enclosure, not the backing value
    b16 = parse_beta("2.5@16")
    assert b16.hi - b16.lo <= Fraction(2, 2**16)


def test_parse_quadratic_forms():
    b = parse_beta(PHI)
    assert b.kind == "quadratic"
    q = b.exact_value()
    assert q * q == q + 1  # x^2 = x + 1
    assert parse_beta("1+sqrt2").exact_value() == Quadratic(1, 1, 2)
    assert parse_beta("sqrt5").kind == "quadratic"
    # square discriminant collapses to a rational
    assert parse_beta("(1+sqrt9)/2").kind == "rational"
    assert parse_beta("(1+sqrt9)/2").exact_value() == 2


def test_parse_rejects_bad_descriptors():
    for bad in ("1", "1/2", "0.5", "abc", "(1+sqrt5)/5", "sqrt(-4)", "", "1/0", "(1+sqrt5)/0"):
        with pytest.raises(DescriptorError):
            parse_beta(bad)
    with pytest.raises(DescriptorError):
        parse_beta("2.5@2")  # precision request below 4 bits


@given(
    st.integers(0, 40),
    st.sampled_from("+-"),
    st.integers(1, 40),
    st.integers(1, 6),
    st.sampled_from([1, 2, 3, 5, 13]),
    st.integers(1, 40),
)
def test_parse_exact_quadratic_round_trip(u, sign, v, s, d0, w):
    # sqrt(s^2 * d0) = s * sqrt(d0); d0 = 1 makes the radicand a square
    text = f"({u}{sign}{v}*sqrt{s * s * d0})/{w}"
    coeff = Fraction(v * s, w) * (-1 if sign == "-" else 1)
    if d0 == 1:
        expected = Fraction(u, w) + coeff
    else:
        expected = Quadratic(Fraction(u, w), coeff, d0)
    got = parse_exact(text)
    assert got == expected
    assert type(got) is type(expected)


# -- single map application ----------------------------------------------------


def test_tb_apply_basic():
    b = parse_beta("2")
    y, d = tb_apply(b, Enclosure(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
    assert d == 0 and y.exact == Fraction(2, 3)
    # branch cut is right-continuous: b*x exactly integer takes the upper digit
    y, d = tb_apply(b, Enclosure(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    assert d == 1 and y.exact == 0


# -- orbits ---------------------------------------------------------------------


def _independent_phi_orbit(x0: Fraction, n: int):
    """Orbit of x0 under x -> phi*x mod 1 in Q(sqrt5), as (u, v) pairs."""
    u, v = x0, Fraction(0)
    out = []
    for _ in range(n):
        # (u + v sqrt5)(1 + sqrt5)/2
        u, v = (u + 5 * v) / 2, (u + v) / 2
        # digit = floor(value); value < 2 always here, so test against 1
        ge1 = (u - 1) + v * math.sqrt(5) >= 0 if v else u >= 1
        if ge1:
            u -= 1
            out.append((u, v, 1))
        else:
            out.append((u, v, 0))
    return out


def test_phi_orbit_digits_match_independent_field_arithmetic():
    b = parse_beta(PHI)
    pts, digs, _ = orbit_with_digits(b, Fraction(1, 3), 64, digits_required=15)
    ref = _independent_phi_orbit(Fraction(1, 3), 64)
    assert digs == [r[2] for r in ref]
    for p, (u, v, _) in zip(pts, ref):
        val = float(u) + float(v) * math.sqrt(5)
        assert abs(float(p) - val) < 1e-12


def test_phi_orbit_of_one_third_is_periodic():
    # T^8(1/3) = 1/3: an exact repeat the enclosure engine must certify
    b = parse_beta(PHI)
    pts = tb_orbit(b, Fraction(1, 3), 8)
    assert pts[-1].exact == Fraction(1, 3)


def test_interval_and_exact_paths_agree():
    b = parse_beta("5/2")
    pts_e, digs_e, bits_e = orbit_with_digits(
        b, Fraction(1, 7), 300, digits_required=12, method="exact"
    )
    pts_i, digs_i, bits_i = orbit_with_digits(
        b, Fraction(1, 7), 300, digits_required=12, method="interval"
    )
    assert bits_e == 0 and bits_i > 0
    assert digs_e == digs_i
    for pe, pi in zip(pts_e, pts_i):
        assert not (pi.hi < pe.lo or pi.lo > pe.hi)  # enclosures overlap


def test_quadratic_interval_agreement():
    b = parse_beta(PHI)
    _, digs_e, _ = orbit_with_digits(b, Fraction(2, 7), 200, method="exact")
    _, digs_i, _ = orbit_with_digits(b, Fraction(2, 7), 200, method="interval")
    assert digs_e == digs_i


def test_orbit_widths_meet_contract():
    b = parse_beta("2.7")
    pts, _, bits = orbit_with_digits(b, Fraction(1, 3), 400, digits_required=12)
    assert bits > 0  # decimal literal goes through the interval engine
    assert all(float(p.width) <= 10**-12 for p in pts)


def test_orbit_floats_track_midpoints():
    b = parse_beta("2.2")
    pts = tb_orbit(b, Fraction(3, 10), 50, digits_required=12)
    fl = tb_orbit_floats(b, Fraction(3, 10), 50, digits_required=12)
    assert all(abs(float(p) - f) < 1e-11 for p, f in zip(pts, fl))


def test_exact_branch_cut_exhausts_interval_method():
    # T(2/3) under b = 3/2 lands exactly on the cut: pure interval arithmetic
    # can never separate it, and must say so rather than guess
    with pytest.raises(PrecisionExhausted):
        orbit_with_digits(parse_beta("3/2"), Fraction(2, 3), 5, method="interval")
    # the exact path resolves the same seed (right-continuous branch)
    pts, digs, bits = orbit_with_digits(parse_beta("3/2"), Fraction(2, 3), 5)
    assert bits == 0 and digs[0] == 1 and pts[0].exact == 0


def test_orbit_input_validation():
    b = parse_beta("2")
    with pytest.raises(ValueError):
        orbit_with_digits(b, Fraction(3, 2), 4)  # seed outside [0, 1)
    with pytest.raises(ValueError):
        orbit_with_digits(b, Fraction(1, 3), 0)
    with pytest.raises(ValueError):
        orbit_with_digits(b, Fraction(1, 3), 4, method="fancy")
    with pytest.raises(TypeError, match="unsupported orbit seed str"):
        orbit_with_digits(b, "1/3", 4)


def test_budget_shape():
    budget = PrecisionBudget.for_orbit(1.0, 1000, 12)
    assert budget.max_bits == 64 * budget.initial_bits


def test_random_rational_orbits_stay_in_range():
    rng = random.Random(11)
    for _ in range(20):
        b = parse_beta(f"{rng.randrange(21, 40)}/10")
        x = Fraction(rng.randrange(0, 997), 997)
        pts, digs, _ = orbit_with_digits(b, x, 60, digits_required=10)
        assert all(Fraction(0) <= p.lo and p.hi < Fraction(101, 100) for p in pts)
        assert all(0 <= d < b.ceil_b for d in digs)


def test_restarts_add_guard_bits():
    # b*x = 1 + 2.2 * 2^-300: the first digit needs an enclosure narrower than
    # 2^-299, which only a restart that really raises the working scale reaches
    x = Fraction(5, 11) + Fraction(1, 2**300)
    pts, digs, bits = orbit_with_digits(parse_beta("2.2"), x, 5)
    assert digs == [1, 0, 0, 0, 0]
    assert bits > PrecisionBudget.for_orbit(parse_beta("2.2").log2_upper(), 5, 12).initial_bits
    _, exact = _exact_points(parse_beta("2.2"), x, 5)
    assert all(_contains(p, e) for p, e in zip(pts, exact))


# -- divide-and-conquer engine against the per-step loop --------------------------


@st.composite
def _bases(draw):
    kind = draw(st.sampled_from(("rational", "quadratic", "decimal")))
    if kind == "rational":
        q = draw(st.integers(1, 12))
        return f"{draw(st.integers(q + 1, 4 * q))}/{q}"
    if kind == "decimal":
        places = draw(st.integers(1, 6))
        return f"{draw(st.integers(1, 3))}.{draw(st.integers(0, 10**places - 1)):0{places}d}"
    u, v, w = draw(st.integers(0, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    sign, d = draw(st.sampled_from("+-")), draw(st.sampled_from((2, 3, 5, 13)))
    return f"({u}{sign}{v}*sqrt{d})/{w}"


def _parse_base_above_one(desc: str):
    try:
        return parse_beta(desc)
    except DescriptorError:
        assume(False)


def _exact_points(b, x: Fraction, n: int):
    """Exact orbit digits and values; decimal literals iterate their backing rational."""
    pts, digs = precision._exact_orbit(b._value, x, n, 64)
    return digs, [p.exact for p in pts]


def _contains(p: Enclosure, value) -> bool:
    if isinstance(value, Quadratic):
        return value.cmp_rational(p.lo) >= 0 and value.cmp_rational(p.hi) <= 0
    return p.lo <= value <= p.hi


def _interval_orbit(b, x, n, base_steps):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(precision, "_BASE_STEPS", base_steps)
        pts, digs, _ = orbit_with_digits(b, x, n, method="interval")
        floats = tb_orbit_floats(b, x, n)
    return pts, digs, floats


@settings(max_examples=100)
@given(
    desc=_bases(),
    q=st.integers(2, 10**6),
    p_frac=st.floats(0, 1, exclude_max=True),
    n=st.integers(1, 600),
)
def test_divide_and_conquer_matches_per_step_loop(desc, q, p_frac, n):
    b = _parse_base_above_one(desc)
    x = Fraction(int(p_frac * q), q)
    exact_digits, exact = _exact_points(b, x, n)
    # an orbit landing exactly on a cut has no interval certificate at any precision
    assume(all(e != 0 for e in exact))
    pts_dc, digs_dc, fl_dc = _interval_orbit(b, x, n, base_steps=2)
    pts_loop, digs_loop, fl_loop = _interval_orbit(b, x, n, base_steps=10**9)
    assert digs_dc == digs_loop == exact_digits
    assert all(_contains(p, e) for p, e in zip(pts_dc, exact))
    assert all(_contains(p, e) for p, e in zip(pts_loop, exact))
    assert all(abs(a - c) <= 2**-50 for a, c in zip(fl_dc, fl_loop))
