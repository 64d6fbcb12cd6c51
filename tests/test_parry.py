import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from betalab import parry, precision
from betalab.parry import ParryDensity, preimage_of_interval
from betalab.precision import parse_beta, parse_exact

PHI = parse_beta("(1+sqrt5)/2")
SILVER = parse_beta("1+sqrt2")

PHI_F = (1 + math.sqrt(5)) / 2
# normalizer of the unnormalized phi density: 1 + phi^-2, frozen independent value
Z_PHI = 1.381966011250105
# for 1+sqrt2 the series telescopes to 4 - 2*sqrt2
Z_SILVER = 4 - 2 * math.sqrt(2)


# -- row-by-row oracle ------------------------------------------------------------
# The density, mass and grid evaluated one probe at a time: one certified
# comparison and one exact Fraction sum per term and probe.  The library's
# sweep must give the same exact values and the same floats.


def weight(den, n):
    """Interval for b^(-n), from b's bounds."""
    return 1 / den.base.hi**n, 1 / den.base.lo**n


def rowwise_density(den, x):
    n_terms = min(den.terms_for(Fraction(den.tol) / 2), len(den._orbit))
    s_lo = s_hi = Fraction(0)
    for n in range(n_terms):
        if den._resolve_cmp(Fraction(x), n) < 0:
            w_lo, w_hi = weight(den, n)
            s_lo += w_lo
            s_hi += w_hi
    return s_lo, s_hi + den.tail_bound(n_terms)


def rowwise_mass(den, u, v):
    target = Fraction(den.tol) / 4
    pre = den.prefix(den.terms_for(target))
    m_lo = m_hi = Fraction(0)
    for n, r in enumerate(pre):
        w_lo, w_hi = weight(den, n)
        m_lo += w_lo * max(Fraction(0), min(v, r.lo) - u)
        m_hi += w_hi * max(Fraction(0), min(v, r.hi) - u)
    m_hi += den.tail_bound(len(pre)) * (v - u)
    z_lo, z_hi = den._normalizer(target)
    return m_lo / z_hi, m_hi / z_lo


def rowwise_grid_rows(den, grid_n):
    z_lo, z_hi = den.normalizer()
    z = float((z_lo + z_hi) / 2)
    rows = []
    for i in range(grid_n):
        x = Fraction(i, grid_n)
        f_lo, f_hi = rowwise_density(den, x)
        cf = rowwise_mass(den, Fraction(0), x) if x > 0 else (Fraction(0), Fraction(0))
        rows.append((float(x), float((f_lo + f_hi) / 2) / z, float(sum(cf) / 2)))
    return rows + [(1.0, rows[-1][1], 1.0)]


def _rational(q):
    return st.integers(-(-3 * q // 2), 9 * q // 2).map(lambda p: f"{p}/{q}")


def _quadratic(t):
    u, sign, d, w = t
    return f"({u}{sign}sqrt{d})/{w}"


# bases in [3/2, 9/2]: rationals, real quadratics over Q(sqrt d), decimal literals
BASES = st.one_of(
    st.integers(1, 8).flatmap(_rational),
    st.tuples(st.integers(0, 9), st.sampled_from("+-"), st.sampled_from((2, 3, 5)),
              st.integers(1, 4))
    .map(_quadratic)
    .filter(lambda s: 1.5 <= float(parse_exact(s)) <= 4.5),
    st.integers(150, 450).map(lambda n: f"{n // 100}.{n % 100:02d}"),
)


@given(BASES, st.integers(1, 64), st.floats(1e-12, 1e-6))
def test_grid_sweep_matches_row_by_row(descriptor, grid_n, tol):
    b = parse_beta(descriptor)
    den = ParryDensity(b, tol)
    try:
        rows = den.grid_rows(grid_n)
    except precision.PrecisionExhausted:
        # a grid point on an orbit point of a decimal base: no precision
        # certifies the comparison, one probe at a time either
        with pytest.raises(precision.PrecisionExhausted):
            rowwise_grid_rows(ParryDensity(b, tol), grid_n)
        return
    pre = den._orbit
    assert rows == rowwise_grid_rows(den, grid_n)
    assert den._orbit is pre  # the oracle reads the prefix the sweep left
    x, y = Fraction(grid_n // 3, grid_n), Fraction(1, 3)
    assert den.density_at(x) == rowwise_density(den, x)
    assert den.density_at(y) == rowwise_density(den, y)
    assert den.interval_mass(x, x + Fraction(1, 2)) == rowwise_mass(den, x, x + Fraction(1, 2))


def test_sweep_refines_before_summing(monkeypatch):
    # as in test_probe_inside_an_interval_enclosure_refines below: a probe
    # inside an interval enclosure of 7/5's orbit refines the prefix in the
    # middle of a sweep; every probe then gets the row-by-row answer on the
    # refined prefix
    monkeypatch.setattr(precision, "_EXACT_PATH_CUTOFF", 0)
    den = ParryDensity(parse_beta("7/5"), 1e-9)
    den.density_at(0)
    x = den._orbit[3].midpoint()
    xs = sorted([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), x])
    pieces = parry._per_probe(den._density_sweep(xs))
    assert den.digits_required > 13
    pre = den._orbit
    assert [(lo, hi) for (lo, _), (hi, _) in pieces] == [rowwise_density(den, p) for p in xs]
    assert den.density_at(x) == rowwise_density(den, x)
    assert den._orbit is pre


def fraction_sweep(terms, n_probes):
    """The sweep summed in Fraction arithmetic, one gcd per addition: the
    oracle of the integer sweep."""
    at = {}
    for term in terms:
        at.setdefault(term[0], []).append(term)
    starts = sorted({0} | {cut for cut in at if cut < n_probes})
    stops = starts[1:] + [n_probes]
    q = [Fraction(0), Fraction(0)]
    q_at = {}
    for stop in reversed(stops):
        for _, j, q_j, _ in at.get(stop, ()):
            q[j] += q_j
        q_at[stop] = tuple(q)
    p = [Fraction(0), Fraction(0)]
    pieces = []
    for start, stop in zip(starts, stops):
        for _, j, _, p_j in at.get(start, ()):
            p[j] += p_j
        pieces.append((start, stop, (q_at[stop][0], p[0]), (q_at[stop][1], p[1])))
    return pieces


DYADIC_BOUNDS = st.builds(lambda m, k: Fraction(2**k + m, 2**k), st.integers(1, 2**70),
                          st.integers(0, 300))
DYADIC_ENDS = st.builds(lambda m, k: Fraction(m % (2**k + 1), 2**k), st.integers(0, 2**160),
                        st.integers(0, 160))


@st.composite
def sweep_sides(draw, n_probes):
    """One side: a dyadic bound of b, per-term cuts and optional dyadic ends,
    and a tail with any denominator."""
    bound = draw(DYADIC_BOUNDS)
    cuts = draw(st.lists(st.integers(0, n_probes), max_size=12))
    ends = draw(st.none() | st.lists(DYADIC_ENDS, min_size=len(cuts), max_size=len(cuts)))
    tail = draw(st.just(Fraction(0)) | st.fractions(min_value=0, max_value=10, max_denominator=10**40))
    return bound, cuts, ends, tail


@given(st.integers(1, 10).flatmap(lambda g: st.tuples(st.just(g), sweep_sides(g), sweep_sides(g))),
       st.tuples(st.integers(1, 2**90), st.integers(1, 2**90)))
def test_integer_sweep_matches_fraction_sweep(case, scales):
    n_probes, *sides = case
    terms = []
    for j, (bound, cuts, ends, tail) in enumerate(sides):
        for n, cut in enumerate(cuts):
            w = 1 / bound**n
            terms.append((cut, j, w, w * ends[n] if ends is not None else 0))
        terms.append((n_probes, j, tail, 0))
    sweep = parry._Sweep(tuple(parry._Side(bound, len(cuts), ends, tail)
                               for bound, cuts, ends, tail in sides),
                         tuple(cuts for _, cuts, _, _ in sides), n_probes)
    # the integer sums are the lower sum times den_lo * s_lo plus the upper
    # sum times den_hi * s_hi
    s_lo, s_hi = [side.den * scale for side, scale in zip(sweep.sides, scales)]
    want = [(start, stop, q_lo * s_lo + q_hi * s_hi, p_lo * s_lo + p_hi * s_hi)
            for start, stop, (q_lo, p_lo), (q_hi, p_hi) in fraction_sweep(terms, n_probes)]
    assert list(sweep.pieces(scales)) == want
    assert parry._per_probe(sweep) == [
        tuple(sums) for start, stop, *sums in fraction_sweep(terms, n_probes) for _ in range(start, stop)]


def test_side_rejects_a_bound_that_is_not_dyadic():
    with pytest.raises(ValueError, match="not dyadic"):
        parry._Side(Fraction(7, 5), 3)


def per_term_fourier(den, m):
    """fourier with one Fraction sum per term and per float: the oracle of
    the per-term float table."""
    pre = den.prefix(den.terms_for(Fraction(den.tol) * abs(m) / 4))
    two_pi_im = 2j * math.pi * m
    s = 0.0 + 0.0j
    width_err = 0.0
    for n, r in enumerate(pre):
        w_lo, w_hi = weight(den, n)
        w_mid = float((w_lo + w_hi) / 2)
        s += w_mid * (cmath.exp(two_pi_im * float(r)) - 1.0) / two_pi_im
        width_err += w_mid * float(r.width) + float(w_hi - w_lo) / (math.pi * abs(m))
    tail = float(den.tail_bound(len(pre))) / (math.pi * abs(m))
    z_lo, z_hi = den._normalizer(Fraction(1e-12))
    z = float((z_lo + z_hi) / 2)
    err = (abs(s) * float(z_hi - z_lo) / float(z_lo) ** 2
           + (tail + width_err + 1e-13 * len(pre)) / float(z_lo))
    return parry.FourierCoefficient(s / z, err)


def per_term_knots(den):
    pre = den.prefix(den.terms_for(Fraction(den.tol)))
    rs = sorted({float(r) for r in pre} | {0.0, 1.0})
    xs = np.array([r for r in rs if 0.0 <= r <= 1.0])
    w_mid = np.array([float(sum(weight(den, n)) / 2) for n in range(len(pre))])
    r_mid = np.array([float(r) for r in pre])
    heights = np.array([float(w_mid[r_mid > 0.5 * (xs[j] + xs[j + 1])].sum())
                        for j in range(len(xs) - 1)])
    cdf = np.concatenate([[0.0], np.cumsum(heights * np.diff(xs))])
    return xs, cdf / cdf[-1]


def test_term_floats_follow_the_prefix():
    # the same calls on two densities, one read through the per-term float
    # table and one through the per-term formula, before and after a
    # refinement replaces the prefix; fourier is read at 1e-10 and the
    # sampler's knots at 1e-12, each on densities of its own tolerance
    b = parse_beta("2.2")
    den, ref = ParryDensity(b, 1e-10), ParryDensity(b, 1e-10)
    knots, knots_ref = ParryDensity(b, 1e-12), ParryDensity(b, 1e-12)

    def check(*ms):
        for m in ms:
            assert den.fourier(m) == per_term_fourier(ref, m)
        (xs, cdf), (want_xs, want_cdf) = knots._knots(), per_term_knots(knots_ref)
        assert xs.tolist() == want_xs.tolist() and cdf.tolist() == want_cdf.tolist()
        # enclosure widths of about 1e-45 vanish in fourier's error, so the
        # table itself is checked against the current prefix
        for got, want in ((den, ref), (knots, knots_ref)):
            table = []
            for n, r in enumerate(want._orbit):
                w_lo, w_hi = weight(want, n)
                table.append((float((w_lo + w_hi) / 2), float(r), float(r.width), float(w_hi - w_lo)))
            assert got._term_floats()[: len(got._orbit)] == table

    # fourier(1) sums 33 terms of the constructor's 34-term prefix, then its
    # normalizer(1e-12) recomputes the prefix at 38 terms, with new enclosures
    assert den.terms_for(Fraction(1e-10) / 4) == 33
    assert den.fourier(1) == per_term_fourier(ref, 1)
    assert len(den._orbit) == len(ref._orbit) == 38
    check(1, 2, 8)
    # a probe inside an enclosure refines the prefix
    for got, want in ((den, ref), (knots, knots_ref)):
        x = got._orbit[3].midpoint()
        assert got._orbit[3].lo < x < got._orbit[3].hi
        got.density_at(x)
        want.density_at(x)
        assert got.digits_required == want.digits_required > 13
    check(1, 2, 8)


def test_own_sums_read_the_constructors_prefix():
    # every sum at the density's own tol reads the prefix the constructor
    # computed; fourier's normalizer at 1e-12 is the one that outgrows it
    den = ParryDensity(parse_beta("2.2"), 1e-10)
    pre = den._orbit
    den.grid_rows(64)
    den.normalizer()
    den.interval_mass(Fraction(1, 5), Fraction(3, 5))
    den.density_at(Fraction(1, 3))
    den.sample(100, 0)
    assert den._orbit is pre and len(pre) == 34
    den.fourier(1)
    assert len(den._orbit) == 38


def test_integer_base_density_is_lebesgue():
    den = ParryDensity(parse_beta("2"), 1e-13)
    for x in np.linspace(0, 0.999, 101):
        lo, hi = den.density_at(Fraction(x).limit_denominator(10**6))
        assert abs(float(lo) - 1.0) < 1e-12 and abs(float(hi) - 1.0) < 1e-12
    z_lo, z_hi = den.normalizer()
    assert abs(float(z_lo) - 1.0) < 1e-12


def test_normalizer_follows_a_recomputed_prefix():
    # a probe inside an enclosure refines the prefix, which is recomputed
    # from scratch at other enclosure widths, so Z must be summed again
    b = parse_beta("2.3")
    den = ParryDensity(b, 1e-6)
    short = den.normalizer()
    x = den._orbit[3].midpoint()
    den.density_at(x)
    assert den.digits_required > 13
    fresh = ParryDensity(b, 1e-6)
    fresh.density_at(x)
    assert den.normalizer() == fresh.normalizer() != short


def test_phi_density_is_two_level():
    den = ParryDensity(PHI, 1e-12)
    cut = 1 / PHI_F
    z_lo, z_hi = den.normalizer()
    assert abs(float((z_lo + z_hi) / 2) - Z_PHI) < 1e-10
    for xf in (0.1, 0.3, 0.5, 0.61, 0.63, 0.8, 0.95):
        lo, hi = den.density_at(Fraction(xf).limit_denominator(10**9))
        unnormalized = PHI_F if xf < cut else 1.0
        mid = float(lo + hi) / 2
        assert abs(mid - unnormalized) < 1e-10, xf


def test_silver_normalizer():
    den = ParryDensity(SILVER, 1e-12)
    z_lo, z_hi = den.normalizer()
    assert abs(float((z_lo + z_hi) / 2) - Z_SILVER) < 1e-10


def test_density_bounds_hold_everywhere():
    rng = random.Random(23)
    for _ in range(8):
        num = rng.randrange(15, 35)
        b = parse_beta(f"{num}/10")
        den = ParryDensity(b, 1e-9)
        bf = num / 10
        lo_bound = 1 - 1 / bf
        hi_bound = 1 / (1 - 1 / bf)
        for _ in range(50):
            x = Fraction(rng.randrange(0, 10**6), 10**6)
            lo, hi = den.density_at(x)
            assert float(hi) >= lo_bound - 1e-9
            assert float(lo) <= hi_bound + 1e-9


def test_interval_mass_is_invariant():
    # mass(T^-1 A) == mass(A): exact transfer-operator fixed point
    rng = random.Random(29)
    for b in (PHI, SILVER, parse_beta("5/2")):
        den = ParryDensity(b, 1e-10)
        for _ in range(40):
            u = Fraction(rng.randrange(0, 10**6), 10**6)
            v = u + Fraction(rng.randrange(1, 10**5), 10**6)
            v = min(v, Fraction(1))
            m_lo, m_hi = den.interval_mass(u, v)
            pieces = preimage_of_interval(b, u, v)
            p_lo = p_hi = Fraction(0)
            for a, c in pieces:
                lo, hi = den.interval_mass(a, c)
                p_lo += lo
                p_hi += hi
            assert float(p_hi) >= float(m_lo) - 1e-8
            assert float(p_lo) <= float(m_hi) + 1e-8


def test_preimage_structure():
    # T^-1 of [u, v) under base b is one interval per digit branch
    b = parse_beta("5/2")
    pieces = preimage_of_interval(b, Fraction(1, 4), Fraction(1, 2))
    assert len(pieces) == 3  # digits 0, 1, 2
    total = sum(c - a for a, c in pieces)
    assert total == Fraction(1, 4) * Fraction(2, 5) * 3


def test_preimage_pieces_contain_the_true_preimage():
    # phi's branch preimages have quadratic ends (k+u)/phi, (k+v)/phi; each
    # piece, rounded outward, holds them, and is at most 2^-180 wider
    inv_phi = PHI.exact_value() - 1
    rng = random.Random(31)
    for _ in range(50):
        i = rng.randrange(0, 999)
        u, v = Fraction(i, 1000), Fraction(rng.randrange(i + 1, 1001), 1000)
        true = [(max(inv_phi * (k + u), 0), min(inv_phi * (k + v), 1)) for k in range(PHI.ceil_b)]
        true = [(a, c) for a, c in true if a < c]
        pieces = preimage_of_interval(PHI, u, v)
        assert len(pieces) == len(true)
        for (lo, hi), (a, c) in zip(pieces, true):
            assert lo <= a and c <= hi
            assert (hi - lo) - (c - a) < Fraction(1, 2**180)


def test_cdf_rows_monotone():
    den = ParryDensity(PHI, 1e-10)
    rows = den.grid_rows(256)
    xs = [r[0] for r in rows]
    cdf = [r[2] for r in rows]
    assert xs == sorted(xs)
    assert all(c2 >= c1 - 1e-12 for c1, c2 in zip(cdf, cdf[1:]))
    assert abs(cdf[-1] - 1.0) < 1e-6


def test_fourier_zero_mode_and_decay():
    f0 = ParryDensity(PHI, 1e-9).fourier(0)
    assert abs(f0.value - 1.0) < 1e-12
    # coefficients of an absolutely continuous measure with BV density decay
    small = abs(ParryDensity(PHI, 1e-8).fourier(256).value)
    big = abs(ParryDensity(PHI, 1e-10).fourier(1).value)
    assert small < big


def test_sampler_matches_interval_mass():
    pts = ParryDensity(SILVER, 1e-12).sample(200000, seed=5)
    assert ((pts >= 0) & (pts <= 1)).all()
    den = ParryDensity(SILVER, 1e-9)
    for u, v in ((0.0, 0.25), (0.3, 0.55), (0.7, 1.0)):
        m_lo, m_hi = den.interval_mass(
            Fraction(u).limit_denominator(10**6), Fraction(v).limit_denominator(10**6)
        )
        emp = float(np.mean((pts >= u) & (pts < v)))
        assert abs(emp - float((m_lo + m_hi) / 2)) < 0.005


def test_probe_inside_an_interval_enclosure_refines(monkeypatch):
    # past precision._EXACT_PATH_CUTOFF terms (b close to 1) the prefix of an
    # exact base comes from the interval path, without exact values; a probe
    # inside such an enclosure refines the prefix like a decimal base does
    b = parse_beta("7/5")
    monkeypatch.setattr(precision, "_EXACT_PATH_CUTOFF", 0)
    den = ParryDensity(b, 1e-9)
    den.density_at(0)
    r3 = den._orbit[3]
    x = r3.midpoint()
    assert r3.exact is None and r3.lo < x < r3.hi
    got = den.density_at(x)
    monkeypatch.undo()
    assert got == ParryDensity(b, 1e-9).density_at(x)  # the exact path's answer


def test_density_tolerance_drives_enclosure_width():
    b = parse_beta("2.3")
    x = Fraction(1, 3)
    lo1, hi1 = ParryDensity(b, 1e-6).density_at(x)
    lo2, hi2 = ParryDensity(b, 1e-12).density_at(x)
    assert hi2 - lo2 <= hi1 - lo1
    assert float(hi2 - lo2) < 1e-11


def test_interval_mass_rejects_bad_interval():
    den = ParryDensity(PHI, 1e-9)
    with pytest.raises(ValueError):
        den.interval_mass(Fraction(1, 2), Fraction(1, 4))
