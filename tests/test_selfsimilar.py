import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from betalab.precision import parse_beta
from betalab.selfsimilar import (
    SelfSimilarMeasure,
    singularity_witness,
    ssm_decay_profile,
    ssm_fourier,
    ssm_fourier_many,
    ssm_invariance_check,
    ssm_sample,
    ssm_selfsim_residual,
    uniform_grid,
)

B22 = SelfSimilarMeasure(parse_beta("2.2"), 0.5, 0.5)
B3 = SelfSimilarMeasure(parse_beta("3"), 0.5, 0.5)
LEBESGUE = SelfSimilarMeasure(parse_beta("2"), 0.5, 0.5)  # the b = 2 oracle
PHI2 = SelfSimilarMeasure(parse_beta("(3+sqrt5)/2"), 0.5, 0.5)


def _brute_fourier(m: SelfSimilarMeasure, xi: float, depth: int = 40) -> complex:
    """mu_hat by direct digit enumeration: average e(xi x) over the 2^depth
    cylinder midpoints... via the exact product, recomputed independently."""
    b = m.b
    out = 1.0 + 0j
    for k in range(1, depth + 60):
        out *= m.p0 + m.p1 * cmath.exp(2j * math.pi * xi / b**k)
    return out


def test_measure_validation():
    with pytest.raises(ValueError):
        SelfSimilarMeasure(parse_beta("2.2"), 0.6, 0.6)
    with pytest.raises(ValueError):
        SelfSimilarMeasure(parse_beta("2.2"), -0.1, 1.1)
    with pytest.raises(ValueError):
        SelfSimilarMeasure(parse_beta("3/2"), 0.5, 0.5)  # below b = 2
    assert SelfSimilarMeasure(parse_beta("2.2"), 1.0, 0.0).degenerate


def test_attractor_support():
    assert abs(B3.attractor_sup - 0.5) < 1e-12
    assert abs(B22.attractor_sup - 1 / 1.2) < 1e-12


def test_fourier_against_brute_product():
    rng = random.Random(3)
    for meas in (B22, B3):
        for _ in range(20):
            xi = rng.uniform(0.1, 5000)
            got = ssm_fourier(meas, xi, tol=1e-13)
            want = _brute_fourier(meas, xi)
            assert abs(got - want) < 1e-10, xi


def test_fourier_at_zero_is_one():
    assert abs(ssm_fourier(B22, 0.0) - 1.0) < 1e-12


def test_fourier_many_matches_scalar():
    xis = np.geomspace(1, 1e4, 50)
    many = ssm_fourier_many(B22, xis, tol=1e-12)
    for xi, v in zip(xis, many):
        assert abs(v - ssm_fourier(B22, float(xi), tol=1e-12)) < 1e-9


def test_lebesgue_oracle_vanishes_at_integers():
    # b = 2, p = (1/2, 1/2) is Lebesgue on [0, 1]: mu_hat(k) = 0 for k >= 1
    for k in (1, 2, 3, 7, 32):
        assert abs(ssm_fourier(LEBESGUE, float(k), tol=1e-13)) < 1e-10
    # and matches sinc off the integers
    xi = 0.37
    want = cmath.exp(1j * math.pi * xi) * math.sin(math.pi * xi) / (math.pi * xi)
    assert abs(ssm_fourier(LEBESGUE, xi, tol=1e-13) - want) < 1e-9


def test_selfsim_residual_tiny():
    rng = random.Random(7)
    for meas in (B22, B3, PHI2):
        for _ in range(30):
            xi = rng.uniform(0.0, 1e5)
            assert ssm_selfsim_residual(meas, xi) < 1e-10


def test_sampler_first_digit_split():
    pts = ssm_sample(B22, 200000, seed=1)
    assert ((pts >= 0) & (pts <= B22.attractor_sup + 1e-12)).all()
    # first map vs second map: x < 1/b gets digit 0 except overlap; b > 2 has a gap
    frac_low = float(np.mean(pts < 1 / 2.2))
    assert abs(frac_low - 0.5) < 0.005


def test_sampler_mean_matches_moment():
    # E x = sum_k E d_k b^-k = p1/(b-1)
    pts = ssm_sample(B3, 200000, seed=2)
    assert abs(float(np.mean(pts)) - 0.5 / 2.0) < 0.002


def test_sampler_rejects_an_empty_cloud():
    with pytest.raises(ValueError, match="need n >= 1"):
        ssm_sample(B22, 0)


def test_weights_are_not_determined_by_invariance():
    # two different weight vectors on the same maps: both exactly T_b-invariant
    # on the attractor, yet measurably different: uniqueness fails for the
    # pushforward equation alone
    m_half = SelfSimilarMeasure(parse_beta("5/2"), 0.5, 0.5)
    m_skew = SelfSimilarMeasure(parse_beta("5/2"), 0.7, 0.3)
    n = 400000
    a_half = ssm_sample(m_half, n, seed=3)
    a_skew = ssm_sample(m_skew, n, seed=4)
    cut = 1 / 2.5  # first-digit cylinder boundary
    f_half = float(np.mean(a_half < cut))
    f_skew = float(np.mean(a_skew < cut))
    sigma = math.sqrt(0.25 / n) * 2
    assert abs(f_half - f_skew) > 6 * sigma
    for m in (m_half, m_skew):
        chk = ssm_invariance_check(m, uniform_grid(32), samples=200000, seed=5)
        assert chk.within_budget, m.p0


def test_invariance_check_within_monte_carlo_budget():
    for meas in (B22, B3):
        chk = ssm_invariance_check(meas, uniform_grid(64), samples=10**5, seed=8)
        assert chk.within_budget
        assert chk.max_defect < 0.02


def test_singularity_witness_oracle():
    # level-12 cylinders for b = 2.2: total length (2/2.2)^12/1.2, full coverage
    cloud = ssm_sample(B22, 200000, seed=9)
    w = singularity_witness(B22, cloud, 12)
    assert abs(w.total_length - (2 / 2.2) ** 12 / 1.2) < 1e-12
    assert abs(w.total_length - 0.2655256814252972) < 1e-12
    assert w.coverage_fraction == 1.0


def test_singularity_witness_rejects_no_gap_bases():
    cloud = ssm_sample(B22, 20000, seed=10)
    with pytest.raises(ValueError):
        singularity_witness(LEBESGUE, cloud, 4)


def test_witness_rejects_off_attractor_mass():
    w = singularity_witness(B22, np.full(1000, 0.95), 6)  # beyond sup = 0.8333
    assert w.coverage_fraction == 0.0


def test_decay_profile_discriminates_pisot():
    # b = 2.2: windowed maxima fall; b = phi^2 (Pisot): maxima stall near 0.1
    prof = ssm_decay_profile(B22, 1e5)
    assert prof.maxima[-1] < 0.5 * prof.maxima[0]
    assert max(prof.maxima[-3:]) < min(prof.maxima[:3])
    assert prof.fitted_c > 0
    pisot = ssm_decay_profile(PHI2, 1e5)
    assert max(pisot.maxima[-3:]) >= 0.1


def test_decay_profile_window_edges():
    prof = ssm_decay_profile(B22, 1e3)
    assert prof.edges[0] == 8.0  # windows start at 2^3
    assert len(prof.maxima) == len(prof.edges) - 1


def test_decay_profile_rejects_short_range():
    with pytest.raises(ValueError):
        ssm_decay_profile(B22, 100.0)
