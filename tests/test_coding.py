import functools
import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from betalab import coding
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
    # eps = 1/4 leaves the budget 3/4, so n is the smallest n with ln n > 4/3,
    # which is 4, and the window is floor(ln 4) = 1.  The mass window
    # (1/2, 1) / ln(4)^2 = (0.26, 0.52) first holds 1/3, at depth 1, and a
    # word 0 at offset 0 or 1 has mass 1 - (2/3)^2 = 5/9
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


def test_schedule_third_stage_oracle():
    # the first stage that searches the certified mass window down to depth 7
    s = build_schedule(3, Fraction(1, 4), 3).stages[2]
    assert (s.n, s.window, s.depth, s.count) == (860369919145, 27, 7, 2)
    assert s.y_mass == Fraction(2, 3**7)


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
        if proc._r_values(np.array([word], dtype=np.int64))[0, 0]:
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


@given(_processes_and_digits(), st.sampled_from((1, 3, 7, coding._CHUNK)))
def test_r_values_match_sliding_windows(case, chunk):
    # the kernels read sample-major digits, as drawn, and transpose one slice
    # of chunk samples at a time; most row counts leave a partial last slice
    proc, digits = case
    with mock.patch.object(coding, "_CHUNK", chunk):
        got = proc._r_values(digits)
        key, lsb_key = proc._r_key(digits), proc._r_key(digits, lsb_first=True)
    want = _sliding_window_r_values(proc, digits)
    assert got.dtype == want.dtype == bool
    assert got.shape == want.shape == (len(digits), digits.shape[1] - proc.span + 1)
    assert np.array_equal(got, want)
    T = want.shape[1]
    assert key.tolist() == [sum(int(r) << (T - 1 - t) for t, r in enumerate(row)) for row in want]
    assert lsb_key.tolist() == [sum(int(r) << t for t, r in enumerate(row)) for row in want]


def test_r_values_past_one_slice_match_sliding_windows():
    # more samples than one slice at the shipped _CHUNK, the last slice partial
    proc = CodedProcess(_schedule(3, 2))
    digits = np.random.default_rng(7).integers(0, 3, (2 * coding._CHUNK + 5, proc.span + 8),
                                               dtype=np.int8)
    want = _sliding_window_r_values(proc, digits)
    assert np.array_equal(proc._r_values(digits), want)
    weights = 1 << np.arange(want.shape[1] - 1, -1, -1)
    assert np.array_equal(proc._r_key(digits), want.astype(np.int64) @ weights)


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


# -- the time-major estimator against the row-major one it replaced ------------------


def _row_major_r_values(proc: CodedProcess, digits: np.ndarray) -> np.ndarray:
    """R[sample, t] from row-major digits[sample, t]."""
    n, length = digits.shape
    out = length - proc.span + 1
    R = np.zeros((n, out), dtype=bool)
    l = proc.params.alphabet_size
    for s in proc.params.stages:
        nc = out + s.window
        codes = digits[:, :nc].astype(np.min_scalar_type(-(l**s.depth)))
        for i in range(1, s.depth):
            codes = codes * l + digits[:, i : i + nc]
        occ = codes < s.count
        for j in range(s.window + 1):
            R |= occ[:, j : j + out]
    return R


def _row_major_estimate(proc, stage, pair_samples, past_samples, seed):
    """estimate_near_diagonal on row-major digit matrices: int64 eta keys,
    concatenated pair matrices and x by a bool @ float64 matmul."""
    st_ = proc.params.stages[stage - 1]
    rng = np.random.default_rng(seed)
    l, span, W = proc.params.alphabet_size, proc.span, proc.W
    pool = past_samples or int(2.4 * pair_samples) + 64
    digits = rng.integers(0, l, (pool, W + span - 1), dtype=np.int8)
    R_past = _row_major_r_values(proc, digits)
    eta = np.zeros(pool, dtype=np.int64)
    for j in range(W):
        eta |= R_past[:, j].astype(np.int64) << j
    overlap = digits[:, W:]
    order = rng.permutation(pool)
    eta_s = eta[order]
    rank = np.argsort(eta_s.astype(np.min_scalar_type((1 << W) - 1)), kind="stable")
    sorted_eta = eta_s[rank]
    same = sorted_eta[0::2][: len(sorted_eta) // 2] == sorted_eta[1::2]
    idx_a = order[rank[0::2][: len(same)][same]]
    idx_b = order[rank[1::2][same]]
    if len(idx_a) < 25:
        raise ValueError(f"{2 * len(idx_a)} of the pool's {pool} pasts found a partner with the "
                         f"same {W}-digit window; at least 25 matched pairs are needed")
    take = min(pair_samples, len(idx_a))
    sel = rng.permutation(len(idx_a))[:take]
    idx_a, idx_b = idx_a[sel], idx_b[sel]
    F = int(math.ceil(math.log2(st_.n))) + 8
    fresh = rng.integers(0, l, (2, take, F), dtype=np.int8)
    pow2 = 2.0 ** -np.arange(1, F + 1)
    xs = []
    for side, idx in enumerate((idx_a, idx_b)):
        mat = np.concatenate([overlap[idx], fresh[side]], axis=1)
        xs.append(_row_major_r_values(proc, mat) @ pow2)
    hits = (np.abs(xs[0] - xs[1]) < 1.0 / st_.n).astype(float)
    est, se = coding._batch_means(hits)
    return NearDiagonalEstimate(estimate=est, std_err=se, scale=st_.n, n_pairs=take, window=W)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@functools.lru_cache(maxsize=None)
def _schedule(l: int, K: int) -> ConstructionParams:
    return build_schedule(l, Fraction(1, 4), K)


def _sparse_process(l: int, window: int, depth: int, n: int) -> ConstructionParams:
    """One stage of mass l^-depth: long runs of R = 0, so even 63-bit past
    windows find partners."""
    stage = Stage(n=n, window=window, depth=depth, count=1,
                  y_mass=Fraction(1, l**depth), ycal_mass=Fraction(0))
    return ConstructionParams(l, Fraction(1, 4), (stage,))


@st.composite
def _estimator_cases(draw):
    l = draw(st.sampled_from((3, 4, 5)))
    if draw(st.booleans()):
        params = _schedule(l, draw(st.integers(1, 3)))
    else:
        # scales 2^45 and up take the F > 53 future-bit path
        params = _sparse_process(l, draw(st.integers(0, 3)), draw(st.integers(3, 5)),
                                 draw(st.sampled_from((4, 172, 2**45, 2**50))))
    # 8|9 and 16|17 straddle the byte edges of the eta key
    W = draw(st.sampled_from((params.span, 8, 9, 16, 17, 63)))
    stages = [k for k, s in enumerate(params.stages, 1) if W >= s.window + s.depth]
    assume(stages)
    return (CodedProcess(params, W=W), draw(st.sampled_from(stages)),
            draw(st.integers(25, 120)), draw(st.sampled_from((None, 3000))),
            draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from((5, 64, coding._CHUNK))))


@settings(max_examples=150, deadline=None)
@given(_estimator_cases())
def test_near_diagonal_matches_the_row_major_estimator(case):
    proc, stage, pairs, past, seed, chunk = case
    want = _outcome(_row_major_estimate, proc, stage, pairs, past, seed)
    with mock.patch.object(coding, "_CHUNK", chunk):
        got = _outcome(estimate_near_diagonal, proc, stage, pairs, past, seed)
    assert got == want


@pytest.mark.parametrize("n", [2**45, 2**45 + 1, 2**50, 2**60])
def test_near_diagonal_past_53_future_bits_matches_the_row_major_estimator(n):
    # F = ceil(log2 n) + 8 future bits: from 54 on x no longer fits a double
    # exactly and is summed as the row-major matmul did
    stages = (Stage(n=4, window=1, depth=1, count=1, y_mass=Fraction(1, 3), ycal_mass=Fraction(0)),
              Stage(n=n, window=2, depth=2, count=2, y_mass=Fraction(2, 9), ycal_mass=Fraction(0)))
    proc = CodedProcess(ConstructionParams(3, Fraction(1, 4), stages))
    want = _row_major_estimate(proc, 2, 2000, None, 5)
    assert estimate_near_diagonal(proc, 2, pair_samples=2000, seed=5) == want
    assert want.n_pairs == 2000


def test_near_diagonal_holds_at_most_48_bytes_per_pooled_past():
    # the pool is drawn sample-major and held once, each bucketing array is
    # dropped once the matched indices exist, and the pool is freed before the
    # fresh draw; a time-major copy of the pool alongside it reads 81 bytes
    proc = CodedProcess(_schedule(3, 2))
    pairs = 10**5
    pool = int(2.4 * pairs) + 64
    tracemalloc.start()
    try:
        estimate_near_diagonal(proc, 2, pair_samples=pairs, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 48 * pool, f"{peak / pool:.1f} bytes per pooled past"
