import math
import random
from fractions import Fraction

import numpy as np
import pytest

from betalab import precision
from betalab.parry import ParryDensity, preimage_of_interval
from betalab.precision import parse_beta

PHI = parse_beta("(1+sqrt5)/2")
SILVER = parse_beta("1+sqrt2")

PHI_F = (1 + math.sqrt(5)) / 2
# normalizer of the unnormalized phi density: 1 + phi^-2, frozen independent value
Z_PHI = 1.381966011250105
# for 1+sqrt2 the series telescopes to 4 - 2*sqrt2
Z_SILVER = 4 - 2 * math.sqrt(2)


def test_integer_base_density_is_lebesgue():
    den = ParryDensity(parse_beta("2"))
    for x in np.linspace(0, 0.999, 101):
        lo, hi = den.density_at(Fraction(x).limit_denominator(10**6), tol=1e-13)
        assert abs(float(lo) - 1.0) < 1e-12 and abs(float(hi) - 1.0) < 1e-12
    z_lo, z_hi = den.normalizer(tol=1e-13)
    assert abs(float(z_lo) - 1.0) < 1e-12


def test_normalizer_follows_a_recomputed_prefix():
    # a longer prefix is recomputed from scratch, at other enclosure widths,
    # so Z at an unchanged tolerance must be summed again
    b = parse_beta("2.3")
    den = ParryDensity(b)
    short = den.normalizer(tol=1e-6)
    den.density_at(Fraction(1, 3), tol=1e-13)
    fresh = ParryDensity(b)
    fresh.density_at(Fraction(1, 3), tol=1e-13)
    assert den.normalizer(tol=1e-6) == fresh.normalizer(tol=1e-6) != short


def test_phi_density_is_two_level():
    den = ParryDensity(PHI)
    cut = 1 / PHI_F
    z_lo, z_hi = den.normalizer(tol=1e-12)
    assert abs(float((z_lo + z_hi) / 2) - Z_PHI) < 1e-10
    for xf in (0.1, 0.3, 0.5, 0.61, 0.63, 0.8, 0.95):
        lo, hi = den.density_at(Fraction(xf).limit_denominator(10**9), tol=1e-12)
        unnormalized = PHI_F if xf < cut else 1.0
        mid = float(lo + hi) / 2
        assert abs(mid - unnormalized) < 1e-10, xf


def test_silver_normalizer():
    den = ParryDensity(SILVER)
    z_lo, z_hi = den.normalizer(tol=1e-12)
    assert abs(float((z_lo + z_hi) / 2) - Z_SILVER) < 1e-10


def test_density_bounds_hold_everywhere():
    rng = random.Random(23)
    for _ in range(8):
        num = rng.randrange(15, 35)
        b = parse_beta(f"{num}/10")
        den = ParryDensity(b)
        bf = num / 10
        lo_bound = 1 - 1 / bf
        hi_bound = 1 / (1 - 1 / bf)
        for _ in range(50):
            x = Fraction(rng.randrange(0, 10**6), 10**6)
            lo, hi = den.density_at(x, tol=1e-9)
            assert float(hi) >= lo_bound - 1e-9
            assert float(lo) <= hi_bound + 1e-9


def test_interval_mass_is_invariant():
    # mass(T^-1 A) == mass(A): exact transfer-operator fixed point
    rng = random.Random(29)
    for b in (PHI, SILVER, parse_beta("5/2")):
        den = ParryDensity(b)
        for _ in range(40):
            u = Fraction(rng.randrange(0, 10**6), 10**6)
            v = u + Fraction(rng.randrange(1, 10**5), 10**6)
            v = min(v, Fraction(1))
            m_lo, m_hi = den.interval_mass(u, v, tol=1e-10)
            pieces = preimage_of_interval(b, u, v)
            p_lo = p_hi = Fraction(0)
            for a, c in pieces:
                lo, hi = den.interval_mass(a, c, tol=1e-10)
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


def test_cdf_rows_monotone():
    den = ParryDensity(PHI)
    rows = den.grid_rows(256, tol=1e-10)
    xs = [r[0] for r in rows]
    cdf = [r[2] for r in rows]
    assert xs == sorted(xs)
    assert all(c2 >= c1 - 1e-12 for c1, c2 in zip(cdf, cdf[1:]))
    assert abs(cdf[-1] - 1.0) < 1e-6


def test_fourier_zero_mode_and_decay():
    den = ParryDensity(PHI)
    f0 = den.fourier(0)
    assert abs(f0.value - 1.0) < 1e-12
    # coefficients of an absolutely continuous measure with BV density decay
    small = abs(den.fourier(256, tol=1e-8).value)
    big = abs(den.fourier(1, tol=1e-10).value)
    assert small < big


def test_sampler_matches_interval_mass():
    den = ParryDensity(SILVER)
    pts = den.sample(200000, seed=5)
    assert ((pts >= 0) & (pts <= 1)).all()
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
    den = ParryDensity(b)
    den.density_at(0)
    r3 = den._orbit[3]
    x = r3.midpoint()
    assert r3.exact is None and r3.lo < x < r3.hi
    got = den.density_at(x)
    monkeypatch.undo()
    assert got == ParryDensity(b).density_at(x)  # the exact path's answer


def test_density_tolerance_drives_enclosure_width():
    den = ParryDensity(parse_beta("2.3"))
    x = Fraction(1, 3)
    lo1, hi1 = den.density_at(x, tol=1e-6)
    lo2, hi2 = den.density_at(x, tol=1e-12)
    assert hi2 - lo2 <= hi1 - lo1
    assert float(hi2 - lo2) < 1e-11


def test_interval_mass_rejects_bad_interval():
    den = ParryDensity(PHI)
    with pytest.raises(ValueError):
        den.interval_mass(Fraction(1, 2), Fraction(1, 4))
