import math
import random
import tracemalloc
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


def _stepped_orbit(b_val, seed, n, out_bits):
    """The exact orbit multiplied out at every step, also past a 0: the
    oracle of _exact_orbit's stop at the fixed point."""
    points, digits, x = [], [], seed
    for _ in range(n):
        y = b_val * x
        k = math.floor(y)
        x = y - k
        if isinstance(x, Quadratic) and x.v == 0:
            x = x.u
        digits.append(k)
        points.append(Enclosure(*precision._exact_bounds(x, out_bits), exact=x))
    return points, digits


@pytest.mark.parametrize("desc, seed, zero_at", [
    (PHI, Fraction(1), 2),
    ("5/2", Fraction(4, 25), 2),
    ("3/2", Fraction(0), 1),
    ("2", Fraction(1, 4), 2),
])
def test_exact_orbit_stops_at_zero_as_full_stepping_would(desc, seed, zero_at):
    b_val = parse_beta(desc).exact_value()
    pts, digs = precision._exact_orbit(b_val, seed, 55, 64)
    assert (pts, digs) == _stepped_orbit(b_val, seed, 55, 64)
    assert pts[zero_at - 1].exact == 0 and all(p.exact != 0 for p in pts[: zero_at - 1])


def _inverse(b_val):
    if isinstance(b_val, Quadratic):
        norm = b_val.u**2 - b_val.d * b_val.v**2
        return Quadratic(b_val.u / norm, -b_val.v / norm, b_val.d)
    return 1 / b_val


@st.composite
def _exact_orbit_cases(draw):
    """An exact base and a seed: a rational, or (k + j/b)/b, whose orbit
    reaches 0 within two steps when its digits are k and j."""
    b = _parse_base_above_one(draw(_bases().filter(lambda desc: "." not in desc)))
    b_val = b.exact_value()
    if draw(st.booleans()):
        q = draw(st.integers(1, 10**6))
        return b_val, Fraction(draw(st.integers(0, q)), q)
    inv = _inverse(b_val)
    k, j = draw(st.integers(0, b.floor_b)), draw(st.integers(0, b.floor_b))
    seed = (inv * j + k) * inv
    assume(0 <= seed <= 1)
    return b_val, seed


@given(_exact_orbit_cases(), st.integers(1, 40))
def test_exact_orbit_matches_full_stepping(case, n):
    b_val, seed = case
    assert precision._exact_orbit(b_val, seed, n, 64) == _stepped_orbit(b_val, seed, n, 64)


def test_an_ambiguous_branch_falls_back_to_the_exact_path(monkeypatch):
    # T(4/25) = 2/5 and b * 2/5 = 1 lies on the cut between digits 0 and 1:
    # no interval pass certifies that digit, so both entry points end on the
    # exact path
    calls = []
    attempt, exact = precision._interval_orbit_attempt, precision._exact_orbit

    def watched_attempt(*args):
        try:
            return attempt(*args)
        except precision.AmbiguousBranch:
            calls.append("ambiguous")
            raise

    def watched_exact(*args):
        calls.append("exact")
        return exact(*args)

    monkeypatch.setattr(precision, "_interval_orbit_attempt", watched_attempt)
    monkeypatch.setattr(precision, "_exact_orbit", watched_exact)
    monkeypatch.setattr(precision, "_EXACT_PATH_CUTOFF", 0)
    b, x = parse_beta("5/2"), Fraction(4, 25)
    pts, digs, bits = orbit_with_digits(b, x, 6)
    assert calls == ["ambiguous", "exact"] and bits == 0
    assert digs == [0, 1, 0, 0, 0, 0]
    assert [p.exact for p in pts] == [Fraction(2, 5)] + [0] * 5
    calls.clear()
    floats = tb_orbit_floats(b, x, 6).tolist()
    assert calls == ["ambiguous", "exact"]
    # 0.4 to within half the default 9 digits, then the fixed point 0 itself
    assert _within_half_digit(floats, [Fraction(2, 5)] + [0] * 5, 9) and floats[1:] == [0.0] * 5


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


def _within_half_digit(floats, exact, digits) -> bool:
    """Every float lies within 10^-digits / 2 of its exact point."""
    half = Fraction(1, 2 * 10**digits)
    return len(floats) == len(exact) and all(
        _contains(Enclosure(Fraction(f) - half, Fraction(f) + half), e)
        for f, e in zip(floats, exact)
    )


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
    assert _within_half_digit(fl_dc, exact, 9) and _within_half_digit(fl_loop, exact, 9)


# -- the step loop and the midpoint floats against their defining formulas -------


class _PerStepOracle(precision._IntervalOrbit):
    """The engine with b rounded afresh from its full-width mantissas and
    scale() called at every step, and digit blocks by Horner's rule."""

    def _steps(self, x_lo, x_hi, s, n):
        bits = self.bits
        for i in range(n):
            shift = bits - s
            b_lo = self.b_lo_full >> shift
            b_hi = -((-self.b_hi_full) >> shift)
            y_lo = (x_lo * b_lo) >> s
            y_hi = -((-(x_hi * b_hi)) >> s)
            k = y_lo >> s
            if y_hi >> s != k:
                raise precision.AmbiguousBranch(f"step {len(self.digits)}")
            x_lo = y_lo - (k << s)
            x_hi = y_hi - (k << s)
            s_next = self.scale(n - i - 1)
            if s_next < s:
                drop = s - s_next
                x_lo >>= drop
                x_hi = -((-x_hi) >> drop)
                s = s_next
            self.los.append(x_lo)
            self.his.append(x_hi)
            self.scales.append(s)
            self.digits.append(k)

    def _block(self, digits):
        d, w, beta = self.d, self.w, self.beta
        power, w_power, acc = (1, 0), 1, (0, 0)
        for k in digits:
            a, c = precision._zmul(acc, beta, d)
            acc = (a + k * w_power, c)
            power = precision._zmul(power, beta, d)
            w_power *= w
        return power, w_power, acc


def _attempt(b, x, n, restarts):
    """One interval pass as the restart driver makes it after `restarts`
    doublings; "ambiguous" if a branch stays unresolved."""
    log2b_up = b.log2_upper()
    initial = PrecisionBudget.for_orbit(log2b_up, n, 12).initial_bits
    bits = initial << restarts
    out_bits = math.ceil(12 * math.log2(10)) + 4
    try:
        engine = precision._interval_orbit_attempt(
            b, x, x, n, bits, out_bits, log2b_up, bits - initial, None
        )
        return engine.columns, engine.digits
    except precision.AmbiguousBranch:
        return "ambiguous"


def _engine_and_oracle(b, x, n, restarts=0, base_steps=precision._BASE_STEPS):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(precision, "_BASE_STEPS", base_steps)
        got = _attempt(b, x, n, restarts)
        mp.setattr(precision, "_IntervalOrbit", _PerStepOracle)
        want = _attempt(b, x, n, restarts)
    return got, want


@settings(max_examples=60)
@given(
    desc=_bases(),
    q=st.integers(2, 10**6),
    p_frac=st.floats(0, 1, exclude_max=True),
    n=st.integers(1, 600),
    restarts=st.integers(0, 1),
    base_steps=st.sampled_from((2, 7, 128)),
)
def test_step_loop_matches_per_step_rounding(desc, q, p_frac, n, restarts, base_steps):
    b = _parse_base_above_one(desc)
    x = Fraction(int(p_frac * q), q)
    got, want = _engine_and_oracle(b, x, n, restarts, base_steps)
    assert got == want


def test_step_loop_matches_per_step_rounding_on_a_long_decimal_base():
    b = parse_beta("2." + "3" * 60)
    x, n = Fraction(12345, 99991), 2000
    got, want = _engine_and_oracle(b, x, n)
    assert got != "ambiguous" and got == want
    # the jump's integers would outgrow any working scale (at most bits), so
    # the per-step loop runs the whole orbit
    log2b_up = b.log2_upper()
    bits = PrecisionBudget.for_orbit(log2b_up, n, 12).initial_bits
    engine = precision._IntervalOrbit(b, bits, 0, log2b_up)
    assert (n // 2) * engine.log2_size > precision._JUMP_SIZE_RATIO * bits


def _mid_float(lo, hi, s):
    """(lo + hi) / 2^(s+1), truncated to 56 bits before the float conversion."""
    tot = lo + hi
    shift = max(0, tot.bit_length() - 56)
    return math.ldexp(float(tot >> shift), shift - s - 1)


@pytest.mark.parametrize("desc, digits", [
    *(pytest.param(desc, 9, id=desc) for desc in (PHI, "5/2", "2.2", "2." + "3" * 60)),
    pytest.param(PHI, 16, id="phi-16-digits"),
])
def test_orbit_floats_are_the_truncated_midpoints(desc, digits):
    # float leaves give floats within 10^-9 / 2 of the points.  The 60-digit
    # base keeps the per-step loop (_JUMP_SIZE_RATIO), and phi at 16 digits
    # has no float step under the bound (L = 0), so the tree splits and every
    # leaf runs the integer loop: both give the truncated midpoints of the
    # integer engine's columns
    b, x, n = parse_beta(desc), Fraction(12345, 99991), 700
    floats = tb_orbit_floats(b, x, n, digits)
    if digits == 16:
        assert precision._float_leaf_plan(b, digits)[1] == ()
    if len(desc) < 60 and digits == 9:
        assert _within_half_digit(floats, _exact_points(b, x, n)[1], 9)
    else:
        engine, points, _, _ = precision._certified_orbit(b, x, n, digits, "auto", 0, None)
        assert points is None
        want = [_mid_float(*t).hex() for t in zip(*engine.columns)]
        assert [f.hex() for f in floats] == want


# -- float leaves against an mpmath orbit and the per-step oracle ----------------


def _float_orbit(b, x, n):
    """Digits and floats of the interval pass with float leaves, as
    tb_orbit_floats runs it at 9 digits."""
    plan = precision._float_leaf_plan(b, 9)
    return precision._certified_orbit(b, x, n, 9, "auto", 0, plan)


def _mpmath_orbit(b, x: Fraction, n: int) -> list:
    """T^1 x .. T^n x in mpmath, at n*log2(b) + 200 bits: 60 digits are left
    at the last step."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(math.ceil(n * b.log2_upper()) + 200):
        value = b._value
        if isinstance(value, Quadratic):
            bm = mpmath.mpf(value.u.numerator) / value.u.denominator + (
                mpmath.mpf(value.v.numerator) / value.v.denominator * mpmath.sqrt(value.d))
        else:
            bm = mpmath.mpf(value.numerator) / value.denominator
        y, out = mpmath.mpf(x.numerator) / x.denominator, []
        for _ in range(n):
            y = bm * y
            y -= mpmath.floor(y)
            out.append(y)
    return out


@st.composite
def _float_leaf_bases(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from((PHI, "5/2", "2.2", "7")))
    q = draw(st.integers(1, 40))
    return f"{draw(st.integers(q + 1, 8 * q))}/{q}"


@settings(max_examples=60, deadline=None)
@given(
    desc=_float_leaf_bases(),
    q=st.integers(2, 10**6),
    p_frac=st.floats(0, 1, exclude_max=True),
    n=st.integers(1, 600),
)
def test_float_leaves_are_within_half_a_digit_of_an_mpmath_orbit(desc, q, p_frac, n):
    b = parse_beta(desc)
    x = Fraction(int(p_frac * q), q)
    exact_digits, exact = _exact_points(b, x, n)
    # a point exactly on a cut has no interval certificate, and mpmath's
    # rounded product may floor it to the other side
    assume(all(e != 0 for e in exact))
    floats = tb_orbit_floats(b, x, n)
    ref = _mpmath_orbit(b, x, n)
    assert all(abs(f - y) <= 5e-10 for f, y in zip(floats, ref, strict=True))
    _, _, digits, _ = _float_orbit(b, x, n)
    assert digits == exact_digits


@pytest.mark.parametrize("x", [Fraction(1, 2**10) + Fraction(3, 2**53),
                               Fraction(1, 2**9) - Fraction(3, 2**53)], ids=["above", "below"])
def test_a_near_cut_leaf_takes_the_integer_loop(x):
    # b x_9 = 1 + 3 * 2^-43, or 2 - 3 * 2^-43, for b = 2.  The float steps are
    # exact, but the a-priori bound at step 10, r_10 = 4.5e-13, does not
    # clear the cut, so the leaf reruns the integer loop and gives what the
    # per-step oracle gives.  Without the start error r_0 (2.3e-13) or the
    # b_hi r_j term (6.7e-16), r_10 would fall below 3 * 2^-43 and the digit
    # would pass.
    b, n = parse_beta("2"), 40
    engine, points, digits, _ = _float_orbit(b, x, n)
    assert points is None and len(engine.los) == n  # every point from the integer loop
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(precision, "_IntervalOrbit", _PerStepOracle)
        oracle, _, oracle_digits, _ = precision._certified_orbit(b, x, n, 9, "interval", 0, None)
    assert digits == oracle_digits and digits[9] == 1
    want = [_mid_float(*t).hex() for t in zip(*oracle.columns)]
    assert [f.hex() for f in tb_orbit_floats(b, x, n)] == want


def test_width_check_rejects_a_forced_wide_point():
    b, x, n, d = parse_beta(PHI), Fraction(12345, 99991), 700, 9
    engine, points, _, _ = precision._certified_orbit(b, x, n, d, "auto", 0, None)
    columns = engine.columns
    assert points is None and precision._width_ok(columns, d)
    los, his, scales = columns
    i = 417
    widest = (1 << scales[i]) // 10**d  # (hi - lo) * 10^d <= 2^s, at equality or below
    for width, ok in ((widest, True), (widest + 1, False)):
        wide = list(his)
        wide[i] = los[i] + width
        assert precision._width_ok((los, wide, scales), d) is ok
        assert ok == all((h - lo) * 10**d <= 1 << s for lo, h, s in zip(los, wide, scales))


def test_long_orbit_floats_peak_below_the_tuple_layout():
    # one (lo, hi, s) tuple per point plus a list of floats peaked at 3.62 MiB
    # on this orbit; the columns and the streamed array conversion stay below
    b, x = parse_beta(PHI), Fraction(123457, 999983)
    tb_orbit_floats(b, x, 200)  # first-call allocations outside the measurement
    tracemalloc.start()
    try:
        tb_orbit_floats(b, x, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.62 * 2**20
