import math
import os
import random
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from betalab.exactnum import Quadratic
from betalab.parry import ParryDensity
from betalab.precision import parse_beta
from betalab.sources import iid_source
from betalab.weyl import (
    _NUFFT_ERROR,
    MAX_FREQUENCY,
    WeylSeries,
    _checkpoint_means,
    _checkpoints,
    _lhs_quadrature_cloud,
    _phases,
    _worker_count,
    _window_sums,
    invariance_defect,
    invariance_defects,
    lemma32_check,
    lemma32_sweep,
    mean_decay_profile,
    multiplicatively_independent,
    optimize_exponent_grid,
    predicted_exponent,
    weyl_sums,
)

PHI = parse_beta("(1+sqrt5)/2")
PHI_F = float(PHI)


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


# -- the phase kernel against the complex-exponential paths it replaced ---------------

EPS = np.finfo(float).eps


def _phase_tolerance(m: int) -> float:
    """Bound on the gap between two float evaluations of a mean of e(m x_i):
    each rounds the phase 2 pi m x to within a few ulps of 2 pi |m|, and
    cos/sin, exp or a rotation step add a few ulps of 1."""
    return 1e-12 + 16 * abs(m) * EPS


def _power_maxima(xs, ms, cps):
    """Checkpoint-max |S(m)| by complex powers: z**m, or cur * z across a gap
    of at most 8 (the per-sample path the kernel replaced)."""
    z = np.exp(2j * math.pi * xs)
    out, cur, prev = [], None, None
    for m in ms:
        if prev is not None and 0 < m - prev <= 8:
            for _ in range(m - prev):
                cur = cur * z
        else:
            cur = z**m
        prev = m
        out.append(max(abs(v) for v in _checkpoint_means(cur, cps)))
    return out


def _exp_defects(xs, max_degree):
    """Running max of |E(e_m) - E(e_m o T)| by one complex exponential per m."""
    out, worst = [], 0.0
    for m in range(1, max_degree + 1):
        em = np.exp(2j * math.pi * m * xs)
        worst = max(worst, abs(np.mean(em[:-1]) - np.mean(em[1:])))
        out.append(float(worst))
    return out


@given(
    n=st.integers(100, 20_000),
    seed=st.integers(0, 2**32 - 1),
    first=st.integers(1, MAX_FREQUENCY),
    gaps=st.lists(st.one_of(st.integers(1, 8), st.integers(9, 4096)), max_size=12),
)
def test_phase_kernel_matches_complex_powers(n, seed, first, gaps):
    xs = np.random.default_rng(seed).random(n)
    ms = [first]
    for g in gaps:
        if ms[-1] + g <= MAX_FREQUENCY:
            ms.append(ms[-1] + g)
    cps = _checkpoints(n)
    fast = [max(map(math.hypot, _checkpoint_means(c, cps), _checkpoint_means(s, cps)))
            for c, s in _phases(xs, ms)]
    for m, got, want in zip(ms, fast, _power_maxima(xs, ms, cps), strict=True):
        assert abs(got - want) <= _phase_tolerance(m), (m, got - want)


@given(n=st.integers(100, 20_000), seed=st.integers(0, 2**32 - 1), degree=st.integers(1, 64))
def test_invariance_defects_match_complex_exponentials(n, seed, degree):
    xs = np.random.default_rng(seed).random(n + 1)
    got = invariance_defects(WeylSeries(values={}, orbit=xs), degree)
    want = _exp_defects(xs, degree)
    assert max(abs(g - w) for g, w in zip(got, want, strict=True)) <= 1e-14


@given(
    desc=st.sampled_from(("2", "5/2", "(1+sqrt5)/2", "2.2")),
    num=st.integers(1, 2**30 - 1),
    n=st.integers(100, 4000),
    ms=st.lists(st.integers(-5000, 5000), min_size=1, max_size=8),
)
def test_weyl_sums_match_complex_exponentials(desc, num, n, ms):
    cps = _checkpoints(n)
    series = weyl_sums(parse_beta(desc), Fraction(num, 2**30), cps, ms)
    for m in ms:
        cur = np.exp(2j * math.pi * m * series.orbit[:n])
        for cp, want in zip(cps, _checkpoint_means(cur, cps)):
            assert abs(series.s(cp, m) - want) <= _phase_tolerance(m), (m, cp)


def test_phase_kernel_rotation_and_direct_steps():
    # gaps of 1..8 rotate, 9 and more start afresh; either way the pair is
    # (cos, sin) of 2 pi m x to within the rounding of the phase
    xs = np.random.default_rng(3).random(1000)
    ms = [1, 2, 10, 18, 27, 1000, 1008, 2**20]
    for m, (c, s) in zip(ms, _phases(xs, ms), strict=True):
        phase = 2 * math.pi * np.mod(m * xs, 1.0)
        assert np.max(np.abs(c - np.cos(phase))) <= _phase_tolerance(m)
        assert np.max(np.abs(s - np.sin(phase))) <= _phase_tolerance(m)


def test_phase_reduction_has_the_bits_of_np_mod():
    # _phases reduces m x mod 1 as t - floor(t); weyl_sums takes negative m too
    xs = np.random.default_rng(5).random(2000)
    ts = np.concatenate([
        m * xs for m in (1, 3, 1000, MAX_FREQUENCY, -1, -7, -MAX_FREQUENCY)
    ] + [np.array([0.0, -0.0, 1.0, -1.0, 5.0, -5.0, 2.0**60, -(2.0**60), 0.5, -0.5,
                   -(2.0**-60), 2.0**-1074, -(2.0**-1074), 1 - 2.0**-53, -(1 - 2.0**-53)])])
    want = np.mod(ts, 1.0)
    got = ts - np.floor(ts)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    xs = np.array([0.0, -0.0, 0.25, 0.3, 0.5, 0.75])
    ms = [-50, -30, 1, 20]  # gaps above _ROTATION_STEPS: each pair comes direct
    for m, (c, s) in zip(ms, _phases(xs, ms), strict=True):
        want = 2 * math.pi * np.mod(m * xs, 1.0)
        assert np.array_equal(c, np.cos(want)) and np.array_equal(s, np.sin(want))


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
    assert multiplicatively_independent(PHI, 2) is True


def test_pure_surd_independence_matches_brute_force_powers():
    # b = v*sqrt(d) and a are dependent iff b^s = a^t for some s, t >= 1; at
    # these sizes every dependent pair has a witness with s, t <= 12
    for d in (2, 3, 5, 13):
        for v in (Fraction(1), Fraction(2), Fraction(3), Fraction(4), Fraction(1, 2),
                  Fraction(3, 2)):
            if v * v * d <= 1:
                continue
            b = parse_beta(f"{v.numerator}*sqrt{d}/{v.denominator}")
            q = b.exact_value()
            assert (q.u, q.v, q.d) == (0, v, d)
            powers = [q]
            for _ in range(11):
                powers.append(powers[-1] * q)
            for a in range(2, 13):
                witness = any(p.v == 0 and p.u == a**t for p in powers for t in range(1, 13))
                assert multiplicatively_independent(b, a) is (not witness), (str(b), a)


def test_quadratic_with_a_rational_part_has_no_rational_power():
    # b = u + v*sqrt(d), u and v nonzero: no b^k (k <= 12) is rational, so b
    # is independent of every integer a
    for d in (2, 3, 5, 13):
        for u in (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(3, 2)):
            for v in (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(2, 3)):
                q = Quadratic(u, v, d)
                power = q
                for _ in range(12):
                    assert power.v != 0, (u, v, d)
                    power = power * q
                if u > 0 and q > 1:  # the descriptor grammar takes u >= 0 only
                    b = parse_beta(f"({u}{'+' if v > 0 else '-'}{abs(v)}*sqrt{d})")
                    assert b.exact_value() == q
                    assert all(multiplicatively_independent(b, a) is True for a in range(2, 13))


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
    den = ParryDensity(PHI, 1e-12)
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


# -- lemma32 quadrature: the NUFFT against the direct sum -------------------------------


def _direct_sums(ys, m, b, q, nodes):
    """|sum_j e(m b^z y_j)| at the midpoint nodes z = (k + 1/2)/q, k in nodes,
    summed term by term: the direct O(q n) oracle for the NUFFT."""
    theta = 2.0 * math.pi * m * np.power(b, (nodes + 0.5) / q)
    return np.abs(np.exp(1j * np.outer(theta, ys)).sum(axis=1))


def _direct_lhs(ys, n_total, m, b, q):
    """_lhs_quadrature_cloud's midpoint rule over direct sums, in blocks of
    about 4M exponentials."""
    blocks = np.array_split(np.arange(q), max(1, q * len(ys) // 4_000_000))
    total = sum(float(np.sum(_direct_sums(ys, m, b, q, k) ** 2)) for k in blocks)
    return total / n_total**2 / q


def _rounding(ys, m, b):
    """Float rounding both sums may carry at one node: each phase theta y is
    rounded to a few ulps of the largest phase, 2 pi |m| b."""
    return 8 * np.finfo(float).eps * 2 * math.pi * abs(m) * b * len(ys)


@given(
    m=st.integers(1, 4096),
    sign=st.sampled_from((1, -1)),
    c=st.floats(0.0, 0.95),
    width=st.floats(0.01, 1.0),
    n=st.integers(10_000, 20_000),
    skew=st.floats(0.25, 4.0),
    seed=st.integers(0, 2**32 - 1),
    b=st.sampled_from((PHI_F, 2.0, 2.2)),
)
def test_window_sums_match_direct_sum(m, sign, c, width, n, skew, seed, b):
    # every |G(theta_k)| within len(ys) * _NUFFT_ERROR plus float rounding, on
    # 40 nodes of each Richardson pass: both ends, where the interpolation
    # window meets the grid's edges, and evenly between
    cloud = np.random.default_rng(seed).random(n) ** skew
    ys = np.sort(cloud[(cloud >= c) & (cloud <= min(1.0, c + width))])
    assume(len(ys) > 0)
    q = max(256, min(4 * m, 32768))
    bound = len(ys) * _NUFFT_ERROR + _rounding(ys, m, b)
    # both passes interpolate one spread of the cloud
    for passes, sums in zip((q, 2 * q), _window_sums(ys, sign * m, b, (q, 2 * q))):
        nodes = np.linspace(0, passes - 1, 40).astype(int)
        gap = np.abs(sums[nodes] - _direct_sums(ys, sign * m, b, passes, nodes))
        assert gap.max() <= bound, (gap.max(), bound)


@pytest.mark.parametrize("m, c, d", [(4, 0.0, 1.0), (64, 0.1, 0.9), (1024, 0.3, 0.35)])
def test_lhs_quadrature_matches_direct_sum(m, c, d):
    cloud = ParryDensity(PHI, 1e-12).sample(10_000, 11)
    ys = np.sort(cloud[(cloud >= c) & (cloud <= d)])
    mass = len(ys) / len(cloud)
    bound = (2 * _NUFFT_ERROR + _NUFFT_ERROR**2) * mass**2
    bound += 2 * mass * _rounding(ys, m, PHI_F) / len(cloud)
    q = max(256, min(4 * m, 32768))
    for passes, fast in zip((q, 2 * q), _lhs_quadrature_cloud(ys, len(cloud), m, PHI_F, q)):
        assert abs(fast - _direct_lhs(ys, len(cloud), m, PHI_F, passes)) <= bound


def test_window_sums_of_a_point_mass():
    # zero cloud width: G is the constant len(ys) in modulus
    (sums,) = _window_sums(np.full(7, 0.3), 64, 2.0, (256,))
    assert np.allclose(sums, 7.0, rtol=1e-13)


@pytest.mark.parametrize("m", [4, -64, 1024])
def test_one_spread_keeps_the_finer_pass(m):
    # the 2q nodes reach further out than the q nodes, so the grid shared by
    # both passes is the one the 2q pass spreads alone: its sums keep their
    # bits, and the q pass differs from its own grid's only by NUFFT error
    ys = np.sort(ParryDensity(PHI, 1e-12).sample(10_000, 5))
    q = max(256, min(4 * abs(m), 32768))
    coarse, fine = _window_sums(ys, m, PHI_F, (q, 2 * q))
    assert np.array_equal(fine, _window_sums(ys, m, PHI_F, (2 * q,))[0])
    (alone,) = _window_sums(ys, m, PHI_F, (q,))
    assert np.abs(coarse - alone).max() <= 2 * len(ys) * _NUFFT_ERROR


def test_lemma32_sweep_matches_one_check_per_config():
    # the flags of the benchmark's cli_sweep lemma32 command, seed 0
    ms, rs = (4, 64, 256), (0.05, 0.15)
    cloud = ParryDensity(PHI, 1e-12).sample(20000, 0)
    swept = lemma32_sweep(cloud, 0.0, 1.0, ms, rs, PHI)
    configs = [(m, r) for m in ms for r in rs]
    assert len(swept) == len(configs)
    for (m, r), got in zip(configs, swept):
        want = lemma32_check(cloud, 0.0, 1.0, m, r, PHI)
        for field in fields(want):
            if field.name != "quad_error":
                assert getattr(got, field.name) == getattr(want, field.name), (m, r, field.name)
        assert abs(got.quad_error - want.quad_error) <= 1e-16
        assert got.quad_error >= (2 * _NUFFT_ERROR + _NUFFT_ERROR**2) * got.mass_cd**2


# -- mean profile ----------------------------------------------------------------------


def test_mean_decay_profile_shape():
    src = iid_source([Fraction(1, 2), Fraction(1, 2)])
    prof = mean_decay_profile(
        src, PHI, 2, (0, 1, 4, 16), n_points=800, samples=16, seed=9
    )
    assert prof.values[0] == 1.0
    assert all(0 <= v <= 1 for v in prof.values.values())
    assert prof.independence == "verified"
    assert prof.checkpoints == (200, 400, 800)


@pytest.mark.parametrize("n", [2, 3])
def test_mean_decay_profile_at_the_shortest_orbits(n):
    # N // 4 and N // 2 both clamp to 1 here; a repeated checkpoint would count
    # x_1's term twice and lift D(m) above 1
    assert _checkpoints(n) == (1, n)
    assert _checkpoint_means(np.ones(n), _checkpoints(n)) == [1, 1]
    src = iid_source([Fraction(1, 2), Fraction(1, 2)])
    prof = mean_decay_profile(src, PHI, 2, (1, 2, 3), n_points=n, samples=16, seed=0)
    assert prof.checkpoints == (1, n)
    # |e(t)| is 1 only up to float rounding
    assert all(0 <= v <= 1 + 1e-12 for v in prof.values.values())


def test_mean_decay_profile_rejects_a_one_point_orbit():
    src = iid_source([Fraction(1, 2), Fraction(1, 2)])
    for n in (0, 1):
        with pytest.raises(ValueError, match="n_points >= 2"):
            mean_decay_profile(src, PHI, 2, (1,), n_points=n, samples=16, seed=0)


def test_mean_decay_profile_worker_determinism():
    src = iid_source([Fraction(1, 2), Fraction(1, 2)])
    kw = dict(ms=(1, 2, 8), n_points=400, samples=16, seed=4)
    serial = mean_decay_profile(src, PHI, 2, workers=1, **kw)
    assert mean_decay_profile(src, PHI, 2, **kw).values == serial.values
    assert mean_decay_profile(src, PHI, 2, workers=3, **kw).values == serial.values


@pytest.mark.parametrize("cpus, want", [(1, 1), (64, 16)])
def test_worker_count_follows_affinity_and_samples(monkeypatch, cpus, want):
    import multiprocessing.pool

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(multiprocessing.pool, "Pool", no_pool)
    assert _worker_count(0, 16) == want
    assert _worker_count(0, 10**6) == cpus
    assert _worker_count(3, 16) == 3  # an explicit count is used as given
    if want == 1:
        # one CPU: the samples run in this process, with no pool
        src = iid_source([Fraction(1, 2), Fraction(1, 2)])
        prof = mean_decay_profile(src, PHI, 2, (1, 2), n_points=50, samples=16, seed=0)
        assert len(prof.values) == 2


def test_worker_count_without_affinity_masks(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _worker_count(0, 16) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count(0, 16) == 1


def test_worker_count_rejects_a_negative_count():
    with pytest.raises(ValueError, match="workers must be >= 0"):
        _worker_count(-1, 16)


def test_mean_decay_profile_rejects_dependent_pair():
    src = iid_source([Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        mean_decay_profile(src, parse_beta("4"), 2, (1,), 400, 16, 0)
