import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betalab import sources
from betalab.sources import (
    GridMass,
    MarkovSource,
    _chunk_length,
    chain_entropy,
    conditional_measure,
    ess_sup_interval_mass,
    fit_condition_exponents,
    iid_source,
    near_diagonal_mass,
    sample_digits,
    sample_point,
    source_from_dict,
    source_to_dict,
    stationary_distribution,
)

UNIFORM = iid_source([Fraction(1, 2), Fraction(1, 2)])
SKEW = iid_source([Fraction(7, 10), Fraction(3, 10)])
CHAIN = MarkovSource(2, 1, [["9/10", "1/10"], ["2/10", "8/10"]])


def test_source_validation():
    with pytest.raises(ValueError):
        iid_source([Fraction(1, 2), Fraction(1, 3)])  # does not sum to 1
    with pytest.raises(ValueError):
        MarkovSource(2, 1, [["1/2", "1/2"]])  # wrong row count
    with pytest.raises(ValueError):
        iid_source([Fraction(3, 2), Fraction(-1, 2)])


def test_stationary_distribution_exact():
    pi = stationary_distribution(CHAIN)
    # solve (pi P = pi) by hand: pi0 * 1/10 = pi1 * 2/10
    assert pi == [Fraction(2, 3), Fraction(1, 3)]
    assert sum(pi) == 1


def test_conditional_measure_rows():
    cm = conditional_measure(CHAIN, (0,))
    assert cm.cylinder_mass((0,)) == Fraction(9, 10)
    assert cm.cylinder_mass((1,)) == Fraction(1, 10)
    assert cm.cylinder_mass((0, 1)) == Fraction(9, 10) * Fraction(1, 10)


def test_ess_sup_iid_power_law():
    # dyadic interval of depth m carries max prob 0.7^m, exactly
    for m in range(1, 17):
        g = ess_sup_interval_mass(SKEW, 2**m)
        assert g.value == Fraction(7, 10) ** m


def test_ess_sup_uniform():
    g = ess_sup_interval_mass(UNIFORM, 2**8)
    assert g.value == Fraction(1, 2**8)


def test_chain_ess_sup_bound():
    # s^(m/(n+1)) with s = 9/10, n = 1 bounds the depth-m cylinder sup
    s = Fraction(9, 10)
    for m in range(1, 13):
        g = ess_sup_interval_mass(CHAIN, 2**m)
        assert g.value <= s ** Fraction(m, 2) + Fraction(1, 10**15)


def _brute_near_diagonal(src, k):
    """Max over past contexts of sum P(cell)^2 + 2 P(cell)P(next cell) by
    direct cylinder enumeration; k = 2^m cells."""
    m = int(math.log2(k))
    contexts = [()] if src.order == 0 else list(itertools.product(range(2), repeat=src.order))
    best = Fraction(0)
    for ctx in contexts:
        cm = conditional_measure(src, ctx)
        cells = [cm.cylinder_mass(w) for w in itertools.product(range(2), repeat=m)]
        total = sum(c * c for c in cells)
        total += 2 * sum(a * b for a, b in zip(cells, cells[1:]))
        best = max(best, total)
    return best


def test_near_diagonal_matches_enumeration():
    for src in (UNIFORM, SKEW, CHAIN):
        for m in (2, 4, 6):
            got = near_diagonal_mass(src, 2**m)
            want = _brute_near_diagonal(src, 2**m)
            assert got.value == want, (src.rows, m)


def test_fitted_exponents_frozen():
    # slopes of the exact mass grids; frozen from the DP values themselves
    est = fit_condition_exponents(UNIFORM, m_max=16)
    assert abs(est.beta_hat - 0.9788) < 5e-3
    assert abs(est.alpha_hat - 1.0) < 1e-9
    est = fit_condition_exponents(SKEW, m_max=16)
    assert abs(est.alpha_hat - math.log(Fraction(10, 7)) / math.log(2)) < 1e-9
    assert abs(est.beta_hat - 0.7762) < 5e-3
    est = fit_condition_exponents(CHAIN, m_max=16)
    assert abs(est.beta_hat - 0.2913) < 5e-3


def test_sample_digits_deterministic_and_distributed():
    d1 = sample_digits(SKEW, 50000, seed=42)
    d2 = sample_digits(SKEW, 50000, seed=42)
    assert (d1 == d2).all()
    assert abs(np.mean(d1 == 0) - 0.7) < 0.01
    d3 = sample_digits(SKEW, 50000, seed=43)
    assert not (d1 == d3).all()


def test_chain_sample_transition_frequencies():
    d = sample_digits(CHAIN, 200000, seed=7)
    from0 = d[1:][d[:-1] == 0]
    assert abs(np.mean(from0 == 0) - 0.9) < 0.01


def _searchsorted_digits(src, n_digits, seed):
    """The walk sample_digits must reproduce: one np.searchsorted call per
    digit on the float64 rows of cumulative probabilities."""
    rng = np.random.default_rng(seed)
    cum = np.array([[float(sum(row[: j + 1])) for j in range(src.a)] for row in src.rows])
    if src.order == 0:
        ctx = 0
    else:
        pi = stationary_distribution(src)
        cpi = np.cumsum([float(p) for p in pi])
        ctx = int(np.searchsorted(cpi, rng.random(), side="right"))
        ctx = min(ctx, src.n_contexts - 1)
    u = rng.random(n_digits)
    out = np.empty(n_digits, dtype=np.int64)
    for i in range(n_digits):
        s = int(np.searchsorted(cum[ctx], u[i], side="right"))
        s = min(s, src.a - 1)
        out[i] = s
        ctx = src.roll(ctx, s)
    return out


@st.composite
def _sources(draw):
    a = draw(st.sampled_from((2, 3, 5)))
    order = draw(st.integers(0, 2))
    rows = []
    for _ in range(a**order):
        weights = draw(st.lists(st.integers(1, 1000), min_size=a, max_size=a))
        rows.append([Fraction(w, sum(weights)) for w in weights])
    return MarkovSource(a, order, rows)


@settings(max_examples=60, deadline=None)
@given(src=_sources(), n_digits=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_sample_digits_matches_searchsorted_walk(src, n_digits, seed):
    got = sample_digits(src, n_digits, seed)
    want = _searchsorted_digits(src, n_digits, seed)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


def test_stationary_law_is_solved_once_per_source(monkeypatch):
    # the order-2 source of the benchmark's decay probe; the digits are the
    # per-digit walk's, and the exact solve runs at the first sample only
    src = MarkovSource(2, 2, [["3/4", "1/4"], ["2/5", "3/5"], ["1/2", "1/2"], ["1/5", "4/5"]])
    want = [_searchsorted_digits(src, 100, seed).tolist() for seed in range(16)]
    calls = []

    def counted(source):
        calls.append(source)
        return stationary_distribution(source)

    monkeypatch.setattr(sources, "stationary_distribution", counted)
    assert [sample_digits(src, 100, seed).tolist() for seed in range(16)] == want
    assert calls == [src]


def test_sample_point_prefix_consistency():
    x = sample_point(SKEW, 64, seed=3)
    d = sample_digits(SKEW, 64, seed=3)
    acc = Fraction(0)
    for i, dig in enumerate(d):
        acc += Fraction(int(dig), 2 ** (i + 1))
    assert x == acc
    assert 0 <= x < 1
    # around the int64 chunk boundary, a partial leading chunk, and a long
    # string, against Horner's rule one digit at a time
    for a in (2, 3, 10):
        src = iid_source([Fraction(1, a)] * a)
        k = _chunk_length(a)
        assert a**k < 2**62 <= a ** (k + 1)
        for n in (1, k - 1, k, k + 1, 7007):
            num = 0
            for dig in sample_digits(src, n, seed=n).tolist():
                num = num * a + dig
            x = sample_point(src, n, seed=n)
            assert x == Fraction(num, a**n), (a, n)
            assert 0 <= x < 1


def test_entropy_values():
    assert abs(chain_entropy(UNIFORM) - math.log(2)) < 1e-12
    h = -(0.7 * math.log(0.7) + 0.3 * math.log(0.3))
    assert abs(chain_entropy(SKEW) - h) < 1e-12


def test_source_dict_roundtrip(tmp_path):
    d = source_to_dict(CHAIN)
    back = source_from_dict(json.loads(json.dumps(d)))
    assert back.rows == CHAIN.rows and back.order == 1


# -- the one-pass condition DPs against the per-depth DPs --------------------------


def _per_depth_ess_sup(src, m):
    """Max conditional mass of a depth-m cylinder: the max-product DP run
    from scratch for this one depth."""
    v = [Fraction(1)] * src.n_contexts
    for _ in range(m):
        nxt = [Fraction(0)] * src.n_contexts
        for c in range(src.n_contexts):
            for s in range(src.a):
                t = src.roll(c, s)
                nxt[t] = max(nxt[t], v[c] * src.prob(c, s))
        v = nxt
    return max(v)


def _per_depth_near_diagonal(src, m):
    """Near-diagonal pair mass at depth m: the EQ/ADJ pair DP run from scratch
    for this one depth, from every starting context."""
    a, best = src.a, Fraction(0)
    for eta in range(src.n_contexts):
        eq, adj = {eta: Fraction(1)}, {}
        for _ in range(m):
            eq2, adj2 = {}, {}
            for c, val in eq.items():
                for s in range(a):
                    p, t = src.prob(c, s), src.roll(c, s)
                    eq2[t] = eq2.get(t, 0) + val * p * p
                    if s + 1 < a:
                        key = (t, src.roll(c, s + 1))
                        adj2[key] = adj2.get(key, 0) + val * p * src.prob(c, s + 1)
            for (c, c2), val in adj.items():
                key = (src.roll(c, a - 1), src.roll(c2, 0))
                adj2[key] = adj2.get(key, 0) + val * src.prob(c, a - 1) * src.prob(c2, 0)
            eq, adj = eq2, adj2
        best = max(best, sum(eq.values(), Fraction(0)) + 2 * sum(adj.values(), Fraction(0)))
    return best


@st.composite
def _small_sources(draw):
    a = draw(st.sampled_from((2, 3)))
    order = draw(st.integers(0, 2))
    rows = []
    for _ in range(a**order):
        weights = draw(st.lists(st.integers(1, 9), min_size=a, max_size=a))
        rows.append([Fraction(w, sum(weights)) for w in weights])
    return MarkovSource(a, order, rows)


@settings(max_examples=25, deadline=None)
@given(src=_small_sources(), m_max=st.integers(3, 10))
def test_one_pass_condition_dps_match_the_per_depth_dps(src, m_max):
    est = fit_condition_exponents(src, m_max=m_max)
    assert len(est.rows) == m_max
    for m, (ess, near) in enumerate(est.rows, start=1):
        k = src.a**m
        assert ess == GridMass(k=k, depth=m, value=_per_depth_ess_sup(src, m))
        assert near == GridMass(k=k, depth=m, value=_per_depth_near_diagonal(src, m))
        assert ess_sup_interval_mass(src, k) == ess and near_diagonal_mass(src, k) == near
    # depth 0 is the empty word alone
    assert ess_sup_interval_mass(src, 1) == near_diagonal_mass(src, 1) == GridMass(1, 0, 1)
    # a scale between two powers of a takes the covering bound one depth down
    k = src.a**m_max - 1
    cover = min(Fraction(1), 2 * _per_depth_ess_sup(src, m_max - 1))
    assert ess_sup_interval_mass(src, k) == GridMass(k=k, depth=m_max - 1, value=cover)
    cover = min(Fraction(1), 2 * _per_depth_near_diagonal(src, m_max - 1))
    assert near_diagonal_mass(src, k) == GridMass(k=k, depth=m_max - 1, value=cover)
