import math
import random
from fractions import Fraction

import numpy as np
import pytest

from betalab.parry import ParryDensity
from betalab.precision import parse_beta
from betalab.sources import iid_source
from betalab.weyl import (
    invariance_defect,
    lemma32_check,
    mean_decay_profile,
    multiplicatively_independent,
    optimize_exponent_grid,
    predicted_exponent,
    weyl_sums,
)

PHI = parse_beta("(1+sqrt5)/2")


def test_doubling_map_oracle():
    # orbit of 1/3 under x -> 2x is {1/3, 2/3}: S_N(1) = -1/2 exactly at even N
    series = weyl_sums(parse_beta("2"), Fraction(1, 3), (2500, 5000, 10000), (1, 2, 3))
    s = series.s(10000, 1)
    assert abs(s + 0.5) <= 2 / 10000
    # m = 3 sees e(0) at every point: mean exactly 1
    assert abs(series.s(10000, 3) - 1.0) < 1e-9


def test_weyl_equidistribution_for_integer_base():
    # generic rational orbit of the doubling map: S_N(m) ~ N^-1/2; the odd
    # prime denominator keeps the orbit period far beyond N
    x = Fraction(314159265, 998244353)
    series = weyl_sums(parse_beta("2"), x, (4096,), (1, 5))
    assert abs(series.s(4096, 1)) < 0.1
    assert abs(series.s(4096, 5)) < 0.1


def test_invariance_defect_budget():
    # |S_N(m) - (pushforward)| <= 2/N for every test degree: telescoping bound
    rng = random.Random(31)
    for desc in ("2", "5/2", "(1+sqrt5)/2", "2.2"):
        b = parse_beta(desc)
        x = Fraction(rng.randrange(1, 2**30), 2**30)
        series = weyl_sums(b, x, (400,), (1,))
        for k in (1, 2, 7, 32, 64):
            assert invariance_defect(series, k) <= 2 / 400 + 1e-12, (desc, k)


def test_multiplicative_independence():
    assert multiplicatively_independent(parse_beta("2"), 4) is False
    assert multiplicatively_independent(parse_beta("8"), 2) is False
    assert multiplicatively_independent(parse_beta("2"), 3) is True
    assert multiplicatively_independent(parse_beta("6"), 12) is True
    assert multiplicatively_independent(parse_beta("3/2"), 2) is True
    assert multiplicatively_independent(PHI, 2) is None


# -- rate formula ------------------------------------------------------------------


def test_predicted_exponent_values():
    assert abs(predicted_exponent(1.0, 1.0) + 0.2) < 1e-15
    # boundary of the balance regime: beta*(alpha-1) = 1
    assert abs(predicted_exponent(1.5, 2.0) + 1.0 / 3.0) < 1e-12


def test_predicted_exponent_domain():
    with pytest.raises(ValueError):
        predicted_exponent(2.0, 1.0)  # alpha > beta
    with pytest.raises(ValueError):
        predicted_exponent(-1.0, 2.0)
    with pytest.raises(ValueError):
        predicted_exponent(2.0, 2.0)  # beta*(alpha-1) = 2 > 1: valley escapes


def test_predicted_exponent_range():
    rng = random.Random(37)
    for _ in range(200):
        a = rng.uniform(0.05, 1.55)
        hi = 3.0 if a <= 1 else min(3.0, 0.95 / (a - 1))
        b = rng.uniform(max(a, 0.1), max(hi, max(a, 0.1)))
        if b < a or b * (a - 1) > 1:
            continue
        v = predicted_exponent(a, b)
        assert -0.5 < v < 0


def test_grid_matches_closed_form():
    rng = random.Random(41)
    for _ in range(6):
        a = rng.uniform(0.1, 1.5)
        hi = 3.0 if a <= 1 else min(3.0, 0.9 / (a - 1))
        b = rng.uniform(max(a, (2 * a + 1) / 9), hi)
        if b < a:
            b = a
        got = optimize_exponent_grid(a, b)
        want = predicted_exponent(a, b)
        assert abs(got["value"] - want) < 1e-3, (a, b)
        # interior optimum: gamma* = (2a+1)/b, delta* from the three-term tie
        assert abs(got["gamma_star"] - (2 * a + 1) / b) < 0.5


def test_grid_rejects_thin_resolution():
    with pytest.raises(ValueError):
        optimize_exponent_grid(1.0, 1.0, grid_resolution=50)


# -- oscillatory-average bound -------------------------------------------------------


def test_lemma32_uniform_analytic():
    b = parse_beta("2.2")
    for m in (4, 64, 1024):
        for r in (0.05, 0.15):
            res = lemma32_check("uniform", 0.0, 1.0, m, r, b)
            assert res.slack >= -res.quad_error, (m, r)


def test_lemma32_on_parry_cloud():
    den = ParryDensity(PHI)
    res = lemma32_check(den, 0.1, 0.9, 64, 0.1, PHI, cloud_size=20000, seed=3)
    assert res.slack >= -res.quad_error
    assert res.mass_cd < 1.0


def test_lemma32_rejects_tiny_clouds_and_atoms():
    b = parse_beta("2")
    with pytest.raises(ValueError):
        lemma32_check(np.linspace(0, 1, 100), 0.0, 1.0, 4, 0.1, b)
    atomic = np.full(20000, 0.5)
    with pytest.raises(ValueError):
        lemma32_check(atomic, 0.0, 1.0, 4, 0.1, b)
    with pytest.raises(ValueError):
        lemma32_check("uniform", 0.0, 1.0, 0, 0.1, b)  # m = 0


# -- mean profile ----------------------------------------------------------------------


def test_mean_decay_profile_shape():
    src = iid_source([Fraction(1, 2), Fraction(1, 2)])
    prof = mean_decay_profile(
        src, PHI, 2, (0, 1, 4, 16), n_points=800, samples=16, seed=9
    )
    assert prof.values[0] == 1.0
    assert all(0 <= v <= 1 for v in prof.values.values())
    assert prof.independence == "asserted"
    assert prof.checkpoints == (200, 400, 800)


def test_mean_decay_profile_worker_determinism():
    src = iid_source([Fraction(1, 2), Fraction(1, 2)])
    kw = dict(ms=(1, 2, 8), n_points=400, samples=16, seed=4)
    p1 = mean_decay_profile(src, PHI, 2, **kw)
    p2 = mean_decay_profile(src, PHI, 2, workers=2, **kw)
    assert p1.values == p2.values


def test_mean_decay_profile_rejects_dependent_pair():
    src = iid_source([Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        mean_decay_profile(src, parse_beta("4"), 2, (1,), 400, 16, 0)
