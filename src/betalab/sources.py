"""Finite-memory source measures on base-a digit sequences.

Order-n Markov chains with strictly positive transition rows: positivity buys
ergodicity and positive entropy in one check, and finite memory makes the
conditional measures mu_eta exact objects (mass of a depth-m cylinder is a
product of transition probabilities along the word).  All cylinder masses are
Fractions; the two regularity conditions (uniform interval bound, near
diagonal pair bound) are evaluated by exact dynamic programming so the fitted
exponents carry no estimator noise.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

Context = tuple[int, ...]


class MarkovSource:
    """Order-n chain on {0, ..., a-1}; order 0 is i.i.d. (one empty context)."""

    def __init__(self, alphabet_size: int, order: int, rows):
        if alphabet_size < 2:
            raise ValueError("need at least two symbols")
        if order < 0:
            raise ValueError("order must be >= 0")
        n_contexts = alphabet_size**order
        try:
            rows = [tuple(Fraction(p) for p in row) for row in rows]
        except ZeroDivisionError:
            raise ValueError("zero denominator in a transition entry") from None
        except TypeError:
            raise ValueError("transition entries must be numbers or fraction strings") from None
        if len(rows) != n_contexts:
            raise ValueError(f"expected {n_contexts} transition rows, got {len(rows)}")
        for row in rows:
            if len(row) != alphabet_size:
                raise ValueError("row length does not match alphabet")
            if any(p <= 0 for p in row):
                raise ValueError("transition entries must be strictly positive "
                                 "(ergodicity and positive entropy)")
            if sum(row) != 1:
                raise ValueError("transition rows must sum to 1 exactly")
        self.a = alphabet_size
        self.order = order
        self.rows = rows

    # contexts are encoded as integers in base a, most recent symbol last
    def context_index(self, context: Context) -> int:
        if len(context) != self.order:
            raise ValueError(f"context length must be {self.order}")
        idx = 0
        for s in context:
            if not 0 <= s < self.a:
                raise ValueError(f"symbol {s} outside alphabet")
            idx = idx * self.a + s
        return idx

    def roll(self, idx: int, symbol: int) -> int:
        """Context index after emitting `symbol`."""
        if self.order == 0:
            return 0
        return (idx * self.a + symbol) % (self.a**self.order)

    def prob(self, idx: int, symbol: int) -> Fraction:
        return self.rows[idx][symbol]

    @property
    def n_contexts(self) -> int:
        return self.a**self.order

    @cached_property
    def walk_tables(self) -> tuple[list[list[float]], np.ndarray | None]:
        """sample_digits' tables, computed once per source: each context's row
        of cumulative probabilities as Python floats, and the cumulative
        floats of the stationary law over contexts (None for order 0).  A
        source pickled to pool workers after its first sample carries them."""
        rows = [[float(sum(row[: j + 1])) for j in range(self.a)] for row in self.rows]
        if self.order == 0:
            return rows, None
        return rows, np.cumsum([float(p) for p in stationary_distribution(self)])

    def __repr__(self) -> str:
        return f"MarkovSource(a={self.a}, order={self.order})"


def iid_source(probs) -> MarkovSource:
    return MarkovSource(len(tuple(probs)), 0, [tuple(probs)])


def stationary_distribution(src: MarkovSource) -> list[Fraction]:
    """Exact stationary distribution; over symbols for i.i.d. sources, over
    length-n contexts otherwise (Gaussian elimination on pi(P - I) = 0).
    """
    if src.order == 0:
        return list(src.rows[0])
    n = src.n_contexts
    # build A = P_chain^T - I over contexts, solve A pi = 0 with sum pi = 1
    A = [[Fraction(0)] * n for _ in range(n)]
    for c in range(n):
        for s in range(src.a):
            A[src.roll(c, s)][c] += src.prob(c, s)
    for c in range(n):
        A[c][c] -= 1
    # replace last equation by the normalization
    A[n - 1] = [Fraction(1)] * n
    rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
    # exact Gaussian elimination with partial pivot by magnitude
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col]))
        if A[piv][col] == 0:
            raise ValueError("singular chain matrix (source not ergodic?)")
        A[col], A[piv] = A[piv], A[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / A[col][col]
        A[col] = [v * inv for v in A[col]]
        rhs[col] *= inv
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [vr - f * vc for vr, vc in zip(A[r], A[col])]
                rhs[r] -= f * rhs[col]
    return rhs


@dataclass(frozen=True)
class ConditionalMeasure:
    """mu_eta: the law of the future digits given the length-n past `context`."""

    source: MarkovSource
    context: Context

    def cylinder_mass(self, word) -> Fraction:
        ctx = self.source.context_index(self.context)
        mass = Fraction(1)
        for s in word:
            if not 0 <= s < self.source.a:
                raise ValueError(f"symbol {s} outside alphabet")
            mass *= self.source.prob(ctx, s)
            ctx = self.source.roll(ctx, s)
        return mass


def conditional_measure(src: MarkovSource, context) -> ConditionalMeasure:
    ctx = tuple(context)
    src.context_index(ctx)  # validates
    return ConditionalMeasure(src, ctx)


@dataclass(frozen=True)
class GridMass:
    """Condition estimate at one scale."""

    k: int
    depth: int
    value: Fraction


def _depth_for(src: MarkovSource, k: int) -> tuple[int, bool]:
    if k < 1:
        raise ValueError("k must be >= 1")
    m = 0
    p = 1
    while p * src.a <= k:
        p *= src.a
        m += 1
    return (m, p != k)


def _ess_sup_masses(src: MarkovSource, m_max: int) -> list[Fraction]:
    """Max conditional mass of a depth-m cylinder, over contexts and words,
    for every m = 0 .. m_max: one max-product DP over the context graph."""
    v = [Fraction(1)] * src.n_contexts
    masses = [max(v)]
    for _ in range(m_max):
        nxt = [Fraction(0)] * src.n_contexts
        for c in range(src.n_contexts):
            if v[c] == 0:
                continue
            for s in range(src.a):
                t = src.roll(c, s)
                cand = v[c] * src.prob(c, s)
                if cand > nxt[t]:
                    nxt[t] = cand
        v = nxt
        masses.append(max(v))
    return masses


def _near_diagonal_masses(src: MarkovSource, m_max: int) -> list[Fraction]:
    """Max over contexts of the ordered-pair mass of same-or-adjacent depth-m
    cylinders, sum mu[w]^2 + 2 sum mu[w] mu[w+1], for every m = 0 .. m_max:
    one exact DP per starting context.

    Pair states: EQ (words equal so far, one shared context) and ADJ (right
    word is the immediate neighbor; adjacency survives only through the edge
    pair (a-1, 0)).
    """
    a, nc = src.a, src.n_contexts
    best = [Fraction(1)] + [Fraction(0)] * m_max  # depth 0: the empty words, mass 1
    for eta in range(nc):
        eq = {eta: Fraction(1)}
        adj: dict[tuple[int, int], Fraction] = {}
        for m in range(1, m_max + 1):
            eq2: dict[int, Fraction] = {}
            adj2: dict[tuple[int, int], Fraction] = {}
            for c, val in eq.items():
                for s in range(a):
                    p = src.prob(c, s)
                    t = src.roll(c, s)
                    eq2[t] = eq2.get(t, Fraction(0)) + val * p * p
                    if s + 1 < a:
                        key = (t, src.roll(c, s + 1))
                        adj2[key] = adj2.get(key, Fraction(0)) + val * p * src.prob(c, s + 1)
            for (c, c2), val in adj.items():
                key = (src.roll(c, a - 1), src.roll(c2, 0))
                adj2[key] = adj2.get(key, Fraction(0)) + val * src.prob(c, a - 1) * src.prob(c2, 0)
            eq, adj = eq2, adj2
            total = sum(eq.values(), Fraction(0)) + 2 * sum(adj.values(), Fraction(0))
            best[m] = max(best[m], total)
        if src.order == 0:
            break  # single context, nothing else to scan
    return best


def _grid_mass(src: MarkovSource, k: int, masses) -> GridMass:
    """The estimate at scale k from a DP's masses by depth; for k not a power
    of a, the two-cylinder covering bound at depth floor(log_a k)."""
    m, covering = _depth_for(src, k)
    value = masses(src, m)[m]
    if covering:
        value = min(Fraction(1), 2 * value)
    return GridMass(k=k, depth=m, value=value)


def ess_sup_interval_mass(src: MarkovSource, k: int) -> GridMass:
    """Max conditional mass of a depth-m cylinder, over contexts and words
    (`_ess_sup_masses`)."""
    return _grid_mass(src, k, _ess_sup_masses)


def near_diagonal_mass(src: MarkovSource, k: int) -> GridMass:
    """Upper bound for the pair integral at distance 1/k: the near-diagonal
    pair mass of `_near_diagonal_masses`."""
    return _grid_mass(src, k, _near_diagonal_masses)


@dataclass(frozen=True)
class ConditionEstimates:
    alpha_hat: float
    beta_hat: float
    rows: tuple[tuple[GridMass, GridMass], ...]  # (ess, near) per scale


MIN_FIT_DEPTH = 3  # the least m_max a slope fit takes


def fit_condition_exponents(src: MarkovSource, m_max: int = 16) -> ConditionEstimates:
    """Least-squares slopes of log mass against log k over k = a, ..., a^m_max;
    alpha_hat for the interval bound, beta_hat for the near-diagonal bound.
    Each DP runs once over the depths 1 .. m_max.
    """
    if m_max < MIN_FIT_DEPTH:
        raise ValueError(f"need m_max >= {MIN_FIT_DEPTH} for a meaningful fit")
    ks = [src.a**m for m in range(1, m_max + 1)]
    ess_by_depth = _ess_sup_masses(src, m_max)
    near_by_depth = _near_diagonal_masses(src, m_max)
    ess = [GridMass(k=k, depth=m, value=ess_by_depth[m]) for m, k in enumerate(ks, start=1)]
    near = [GridMass(k=k, depth=m, value=near_by_depth[m]) for m, k in enumerate(ks, start=1)]
    logk = np.log([float(k) for k in ks])
    alpha = -np.polyfit(logk, np.log([float(g.value) for g in ess]), 1)[0]
    beta = -np.polyfit(logk, np.log([float(g.value) for g in near]), 1)[0]
    return ConditionEstimates(
        alpha_hat=float(alpha), beta_hat=float(beta), rows=tuple(zip(ess, near))
    )


def chain_entropy(src: MarkovSource) -> float:
    """Entropy rate in nats: -sum_c pi(c) sum_s P(c,s) ln P(c,s)."""
    if src.order == 0:
        return -sum(float(p) * math.log(float(p)) for p in src.rows[0])
    pi = stationary_distribution(src)
    h = 0.0
    for c, w in enumerate(pi):
        h -= float(w) * sum(float(p) * math.log(float(p)) for p in src.rows[c])
    return h


def sample_digits(src: MarkovSource, n_digits: int, seed: int) -> np.ndarray:
    """One digit string of the stationary chain; deterministic in seed.

    Each digit is bisect_right of its uniform draw in the context's row of
    cumulative probabilities, held as Python floats.  On a sorted row,
    bisect_right makes the same float comparisons as np.searchsorted with
    side="right" on the float64 array of that row, so the digits are those of
    the one-call-per-digit search.  An i.i.d. source has one row, so its
    digits are that search over all draws at once.
    """
    if n_digits < 1:
        raise ValueError("need n_digits >= 1")
    rng = np.random.default_rng(seed)
    rows, cpi = src.walk_tables
    last = src.a - 1
    if cpi is None:
        digits = np.searchsorted(rows[0], rng.random(n_digits), side="right")
        return np.minimum(digits, last).astype(np.int64)
    ctx = int(np.searchsorted(cpi, rng.random(), side="right"))
    ctx = min(ctx, src.n_contexts - 1)
    a, n_contexts = src.a, src.n_contexts
    out = []
    for u in rng.random(n_digits).tolist():
        s = bisect_right(rows[ctx], u)
        if s > last:
            s = last
        out.append(s)
        ctx = (ctx * a + s) % n_contexts  # `roll`
    return np.array(out, dtype=np.int64)


def _chunk_length(a: int) -> int:
    """The largest k with a^k < 2^62, so a base-a chunk of k digits fits int64."""
    k = 1
    while a ** (k + 1) < 1 << 62:
        k += 1
    return k


def sample_point(src: MarkovSource, digits: int, seed: int) -> Fraction:
    """Point sum w_i a^(-i) with w from the stationary chain (exact rational,
    so downstream certified orbits can consume it).

    The numerator is read k digits at a time (`_chunk_length`): one int64 dot
    product per chunk, then Horner's rule over the chunks in Python ints.
    """
    w = sample_digits(src, digits, seed)
    k = _chunk_length(src.a)
    weights = src.a ** np.arange(k - 1, -1, -1, dtype=np.int64)
    head = digits % k
    num = int(w[:head] @ weights[k - head :])
    radix = src.a**k
    for chunk in (w[head:].reshape(-1, k) @ weights).tolist():
        num = num * radix + chunk
    return Fraction(num, src.a**digits)


def source_to_dict(src: MarkovSource) -> dict:
    return {
        "alphabet_size": src.a,
        "order": src.order,
        "rows": [[str(p) for p in row] for row in src.rows],
    }


def source_from_dict(d: dict) -> MarkovSource:
    return MarkovSource(int(d["alphabet_size"]), int(d["order"]), d["rows"])


def load_source(path: str) -> MarkovSource:
    """The source a JSON file holds in `source_to_dict`'s layout; a file that
    cannot be read, is not JSON or lacks a key is a ValueError naming it."""
    try:
        with open(path) as fh:
            d = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read source file {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ValueError(f"source file {path} is not JSON: {exc}") from None
    try:
        return source_from_dict(d)
    except KeyError as exc:
        raise ValueError(f"source file {path} has no key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"source file {path} is malformed: {exc}") from None
