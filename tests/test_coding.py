import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from betalab.coding import (
    CodedProcess,
    ConstructionParams,
    NearDiagonalEstimate,
    Stage,
    build_schedule,
    condition_violation_report,
    control_near_diagonal,
    estimate_near_diagonal,
    fit_polynomial_envelope,
    schedule_from_dict,
)


def test_schedule_first_stage_oracle():
    # budget 1/2: smallest n with ln n > 2 is 8; with K = 1 and eps = 1/4 the
    # budget is 1/(4*(1/4)) = 1... wait: stage thresholds derive from the
    # remaining-mass split; the frozen values below were hand-checked once
    # against the certified-log bisection and the exact transfer counts
    p = build_schedule(3, Fraction(1, 4), 1)
    s = p.stages[0]
    assert (s.n, s.window, s.depth, s.count) == (4, 1, 1, 1)
    assert s.y_mass == Fraction(1, 3)
    assert s.ycal_mass == Fraction(5, 9)


def test_schedule_second_stage_oracle():
    p = build_schedule(3, Fraction(1, 4), 2)
    s = p.stages[1]
    assert (s.n, s.window, s.depth, s.count) == (172, 5, 3, 1)
    assert s.y_mass == Fraction(1, 27)
    assert s.ycal_mass == Fraction(1037, 6561)
    assert p.ycal_total == Fraction(4682, 6561)
    assert p.ycal_total < Fraction(3, 4)
    assert p.span == 8


def test_schedule_epsilon_sensitivity():
    # a thinner epsilon leaves less slack: the first threshold moves up
    p = build_schedule(3, Fraction(49, 100), 1)
    assert p.stages[0].n == 8
    with pytest.raises(ValueError):
        build_schedule(3, Fraction(1, 2), 1)  # no mass left to split
    with pytest.raises(ValueError):
        build_schedule(2, Fraction(1, 4), 1)  # alphabet too small
    with pytest.raises(ValueError):
        build_schedule(3, Fraction(1, 4), 0)


def test_schedule_dict_roundtrip():
    p = build_schedule(3, Fraction(1, 4), 2)
    back = schedule_from_dict(p.to_dict())
    assert back == p
    assert back.to_dict() == p.to_dict()


def _brute_marginal(proc: CodedProcess) -> Fraction:
    """P(R_0 = 1) by full enumeration of the span window."""
    l = proc.params.alphabet_size
    span = proc.span
    hits = 0
    for word in itertools.product(range(l), repeat=span):
        arr = np.array([word], dtype=np.int64)
        if proc._r_values(arr)[0, 0]:
            hits += 1
    return Fraction(hits, l**span)


def _sliding_window_r_values(proc: CodedProcess, digits: np.ndarray) -> np.ndarray:
    """R by strided windows: int64 codes of every depth-word by one matmul,
    then an any() over each window of window+1 occurrences."""
    n, length = digits.shape
    out = length - proc.span + 1
    R = np.zeros((n, out), dtype=bool)
    l = proc.params.alphabet_size
    for s in proc.params.stages:
        pw = l ** np.arange(s.depth - 1, -1, -1)
        codes = sliding_window_view(digits, s.depth, axis=1) @ pw
        occ = codes < s.count
        hit = sliding_window_view(occ, s.window + 1, axis=1).any(axis=2)
        R |= hit[:, :out]
    return R


@st.composite
def _processes_and_digits(draw):
    l = draw(st.sampled_from((3, 4, 5)))
    stages = []
    for _ in range(draw(st.integers(1, 3))):
        # depths up to 20 reach every code type, int8 to int64
        depth = draw(st.integers(1, 20))
        count = draw(st.integers(1, l**depth - 1))
        window = draw(st.integers(0, 6))
        stages.append(Stage(n=2, window=window, depth=depth, count=count,
                            y_mass=Fraction(count, l**depth), ycal_mass=Fraction(0)))
    proc = CodedProcess(ConstructionParams(l, Fraction(1, 4), tuple(stages)))
    width = proc.span + draw(st.integers(0, 20))
    rows = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    digits = np.random.default_rng(seed).integers(0, l, (rows, width), dtype=np.int8)
    return proc, digits


@given(_processes_and_digits())
def test_r_values_match_sliding_windows(case):
    proc, digits = case
    got = proc._r_values(digits)
    want = _sliding_window_r_values(proc, digits)
    assert got.dtype == want.dtype == bool
    assert got.shape == want.shape == (len(digits), digits.shape[1] - proc.span + 1)
    assert np.array_equal(got, want)


def test_exact_marginal_against_enumeration():
    p = build_schedule(3, Fraction(1, 4), 1)
    proc = CodedProcess(p)
    assert proc.exact_marginal() == Fraction(5, 9)
    assert _brute_marginal(proc) == Fraction(5, 9)


def test_exact_marginal_two_stages():
    p = build_schedule(3, Fraction(1, 4), 2)
    proc = CodedProcess(p)
    m = proc.exact_marginal()
    assert m == Fraction(49, 81)
    # union of overlapping stage sets: below the summed stage masses
    assert m <= proc.params.ycal_total
    assert _brute_marginal(proc) == m


def test_sampled_marginal_agrees():
    p = build_schedule(3, Fraction(1, 4), 2)
    proc = CodedProcess(p)
    est, se = proc.sample_marginal(200000, seed=1)
    assert abs(est - float(proc.exact_marginal())) < 4 * se + 1e-9


def test_near_diagonal_meets_floor_with_margin():
    p = build_schedule(3, Fraction(1, 4), 2)
    proc = CodedProcess(p)
    e1 = estimate_near_diagonal(proc, 1, pair_samples=30000, seed=2)
    e2 = estimate_near_diagonal(proc, 2, pair_samples=30000, seed=3)
    assert e1.scale == 4 and e2.scale == 172
    assert e1.floor == 0.25 / math.log(4) ** 4
    for e in (e1, e2):
        assert e.meets_floor
        assert e.estimate > 5 * e.floor  # desk-scale margin is wide, not marginal
        assert e.n_pairs >= 30000


def test_near_diagonal_window_doubling_stable():
    p = build_schedule(3, Fraction(1, 4), 1)
    short = estimate_near_diagonal(CodedProcess(p), 1, pair_samples=40000, seed=4)
    wide = estimate_near_diagonal(CodedProcess(p, W=8), 1, pair_samples=40000, seed=4)
    tol = 3 * (short.std_err + wide.std_err)
    assert abs(short.estimate - wide.estimate) < tol


def test_near_diagonal_rejects_short_window():
    p = build_schedule(3, Fraction(1, 4), 2)
    proc = CodedProcess(p, W=3)  # stage 2 needs window+depth = 8
    with pytest.raises(ValueError):
        estimate_near_diagonal(proc, 2, pair_samples=1000)
    with pytest.raises(ValueError):
        estimate_near_diagonal(CodedProcess(p), 3, pair_samples=1000)


def test_window_longer_than_the_key_is_rejected():
    p = build_schedule(3, Fraction(1, 4), 1)
    assert CodedProcess(p, W=63).W == 63
    for W in (0, 64):
        with pytest.raises(ValueError, match="window must be"):
            CodedProcess(p, W=W)


def test_fewer_pairs_than_batch_groups_are_rejected():
    p = build_schedule(3, Fraction(1, 4), 1)
    with pytest.raises(ValueError, match="25 batch groups"):
        estimate_near_diagonal(CodedProcess(p), 1, pair_samples=24, seed=1)
    with pytest.raises(ValueError, match="25 batch groups"):
        control_near_diagonal((4,), pair_samples=24, seed=1)
    e = estimate_near_diagonal(CodedProcess(p), 1, pair_samples=25, seed=1)
    assert e.n_pairs == 25 and math.isfinite(e.std_err)
    (c,) = control_near_diagonal((4,), pair_samples=25, seed=1)
    assert math.isfinite(c.std_err)


def test_control_polynomial_envelope():
    ests = control_near_diagonal((4, 16, 64, 256), pair_samples=200000, seed=5)
    for e, n in zip(ests, (4, 16, 64, 256)):
        # iid uniform: P(|x-y| < 1/n) = 2/n - 1/n^2
        want = 2 / n - 1 / n**2
        assert abs(e.estimate - want) < 5 * e.std_err + 0.001
    c, beta_hat = fit_polynomial_envelope(ests)
    assert 0.8 <= beta_hat <= 1.2


def test_fit_envelope_needs_two_points():
    e = control_near_diagonal((4,), pair_samples=1000, seed=6)
    with pytest.raises(ValueError):
        fit_polynomial_envelope(e)


def _fake_estimate(n, value):
    return NearDiagonalEstimate(
        estimate=value,
        std_err=value / 100,
        scale=n,
        n_pairs=10**5,
        floor=0.25 / math.log(n) ** 4,
        window=8,
    )


def test_violation_report_verdicts():
    p = build_schedule(3, Fraction(1, 4), 2)
    proc = CodedProcess(p)
    # ratios e*n^beta strictly increasing at every probe -> flagged
    up = [_fake_estimate(4, 0.5), _fake_estimate(172, 0.4)]
    rep = condition_violation_report(proc, up, beta_probes=(0.1, 1.0))
    assert rep.verdict == "violated"
    assert all(rep.increasing.values())
    # single stage: nothing to compare
    rep = condition_violation_report(proc, up[:1])
    assert rep.verdict == "inconclusive"
    # fast true decay: not increasing anywhere
    down = [_fake_estimate(4, 0.5), _fake_estimate(172, 0.001)]
    rep = condition_violation_report(proc, down, beta_probes=(0.1,))
    assert rep.verdict == "not-visible-at-this-scale"
    d = rep.to_dict()
    assert d["log_convention"] == "natural"
    assert "caveat" in d


def test_estimator_floor_formula():
    p = build_schedule(3, Fraction(1, 4), 2)
    e = estimate_near_diagonal(CodedProcess(p), 2, pair_samples=20000, seed=7)
    assert abs(e.floor - 0.25 / math.log(172) ** 4) < 1e-15
    d = e.to_dict()
    assert set(d) >= {"estimate", "std_err", "scale", "floor"}
