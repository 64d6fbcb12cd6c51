"""Greedy b-expansions and the combinatorics of the expansion of 1.

The expansion of 1 drives everything downstream: it classifies the base
(simple / Parry / specified-with-evidence), it is the comparison word of the
admissibility criterion for one-sided digit words, and its orbit values give
the uniform gap m_b that budgets the discontinuities of truncated densities.
Digit conventions: seed 1 emits the leading digit floor(b), so for integer b
the alphabet of the expansion of 1 is one larger than for interior points;
points exactly on a branch cut take the right-continuous branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import Quadratic
from .precision import (
    BetaNumber,
    Enclosure,
    UndeterminedValue,
    orbit_with_digits,
)

__all__ = [
    "BExpansion",
    "NumberClass",
    "AdmissibilityRule",
    "AdmissibilityResult",
    "greedy_expansion",
    "expansion_of_one",
    "classify",
    "admissibility_rule",
    "is_admissible",
    "specification_constants",
    "SpecConstants",
    "format_digits",
]


def format_digits(digits) -> str:
    """Comma-free decimal string when every digit fits one character."""
    ds = list(digits)
    if all(0 <= d <= 9 for d in ds):
        return "".join(str(d) for d in ds)
    return ",".join(str(d) for d in ds)


@dataclass(frozen=True)
class BExpansion:
    """First L digits of the greedy expansion plus the orbit they came from.

    digits[i] = floor(b * T^i(seed)); orbit[i] encloses T^(i+1)(seed).
    """

    base: BetaNumber
    digits: tuple[int, ...]
    orbit: tuple[Enclosure, ...]
    of_one: bool

    def __post_init__(self) -> None:
        # leading digit of the expansion of 1 is floor(b); everything else
        # stays below ceil(b)
        for i, d in enumerate(self.digits):
            limit = self.base.floor_b if (self.of_one and i == 0) else self.base.ceil_b - 1
            if not 0 <= d <= limit:
                raise ValueError(f"digit {d} at {i} outside alphabet of base {self.base}")

    def digit_string(self) -> str:
        return format_digits(self.digits)


def greedy_expansion(b: BetaNumber, x, n_digits: int, method: str = "auto") -> BExpansion:
    """Greedy digits of x in [0, 1) with certified orbit enclosures."""
    if n_digits < 1:
        raise ValueError("need at least one digit")
    if (x.hi if isinstance(x, Enclosure) else x) >= 1:
        raise ValueError("greedy_expansion wants x < 1; use expansion_of_one for the seed 1")
    points, digits, _ = orbit_with_digits(b, x, n_digits, method=method)
    return BExpansion(b, tuple(digits), tuple(points), of_one=False)


def expansion_of_one(b: BetaNumber, n_digits: int) -> BExpansion:
    """Expansion of 1: digits floor(b), floor(b*{b}), ... and orbit r_0 = {b}, r_1, ..."""
    if n_digits < 1:
        raise ValueError("need at least one digit")
    points, digits, _ = orbit_with_digits(b, Fraction(1), n_digits)
    return BExpansion(b, tuple(digits), tuple(points), of_one=True)


@dataclass(frozen=True)
class NumberClass:
    """Classification evidence for a base.

    Verdicts: Simple (orbit of 1 certifiedly hits 0), Parry (digit word
    eventually periodic, certified by an exact orbit-value repeat; exact kinds
    only; never purely periodic under the strict greedy convention, because no
    orbit value returns to the seed 1), SpecifiedWitness (every inspected orbit
    value certified positive; depth-limited evidence, never a proof),
    Undetermined.
    """

    verdict: str
    depth: int
    hit_zero_at: int | None
    period: tuple[int, int] | None  # (preperiod, period) of the digit word
    max_zero_run: int
    digits: tuple[int, ...]


def _max_zero_run(digits) -> int:
    best = run = 0
    for d in digits:
        run = run + 1 if d == 0 else 0
        best = max(best, run)
    return best


def classify(b: BetaNumber, depth: int) -> NumberClass:
    """Inspect the expansion of 1 to `depth` digits and classify the base."""
    if depth < 2:
        raise ValueError("classification depth must be >= 2")
    exp = expansion_of_one(b, depth)
    for i, p in enumerate(exp.orbit):
        if p.is_certified_zero():
            head = exp.digits[: i + 1]
            return NumberClass(
                verdict="Simple",
                depth=depth,
                hit_zero_at=i + 1,
                period=None,
                max_zero_run=_max_zero_run(head),
                digits=exp.digits,
            )
    if b.kind in ("rational", "quadratic"):
        seen: dict = {}
        for i, p in enumerate(exp.orbit):
            v = p.exact
            if v is None:
                break
            if v in seen:
                j = seen[v]
                return NumberClass(
                    verdict="Parry",
                    depth=depth,
                    hit_zero_at=None,
                    period=(j + 1, i - j),
                    max_zero_run=_max_zero_run(exp.digits),
                    digits=exp.digits,
                )
            seen[v] = i
    all_positive = all(p.certified_positive() for p in exp.orbit)
    return NumberClass(
        verdict="SpecifiedWitness" if all_positive else "Undetermined",
        depth=depth,
        hit_zero_at=None,
        period=None,
        max_zero_run=_max_zero_run(exp.digits),
        digits=exp.digits,
    )


@dataclass(frozen=True)
class AdmissibilityRule:
    """Comparison word for the lexicographic admissibility test.

    For a simple base with finite expansion (a_0, ..., a_{m-1}) the stored
    word is the periodic quasi-greedy word ((a_0, ..., a_{m-1} - 1))^inf,
    extendable to any length; otherwise it is the expansion of 1 truncated at
    the requested depth (comparisons running past it are depth-limited ties).
    """

    base: BetaNumber
    comparison_word: tuple[int, ...]
    quasi_greedy: bool
    period: int | None = None

    def digit_at(self, j: int) -> int | None:
        if self.period is not None:
            return self.comparison_word[j % self.period]
        if j < len(self.comparison_word):
            return self.comparison_word[j]
        return None


def admissibility_rule(b: BetaNumber, depth: int = 64) -> AdmissibilityRule:
    cls = classify(b, depth)
    if cls.verdict == "Simple":
        stem = list(cls.digits[: cls.hit_zero_at])
        stem[-1] -= 1
        word = tuple(stem)
        return AdmissibilityRule(b, word, quasi_greedy=True, period=len(word))
    return AdmissibilityRule(b, cls.digits, quasi_greedy=False)


@dataclass(frozen=True)
class AdmissibilityResult:
    ok: bool
    depth_limited: bool
    failing_suffix: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_admissible(word, rule: AdmissibilityRule) -> AdmissibilityResult:
    """Parry's criterion: every suffix (w_n, ...), n >= 1, lexicographically
    below the comparison word; first-difference order.  Ties that run out of
    data return true with the depth_limited flag set.
    """
    w = tuple(word)
    cap = rule.base.ceil_b - 1
    of_one_cap = max(cap, rule.base.floor_b)
    for i, d in enumerate(w):
        limit = of_one_cap if i == 0 else cap
        if not 0 <= d <= limit:
            raise ValueError(f"digit {d} outside alphabet {{0,...,{cap}}} of base {rule.base}")
    if rule.period is None and len(rule.comparison_word) < len(w):
        raise ValueError("comparison word shorter than the word under test")
    depth_limited = False
    for n in range(1, len(w)):
        decided = False
        for j in range(len(w) - n):
            c = rule.digit_at(j)
            if c is None:
                depth_limited = True
                decided = True
                break
            if w[n + j] < c:
                decided = True
                break
            if w[n + j] > c:
                return AdmissibilityResult(False, depth_limited, failing_suffix=n)
        if not decided:
            # suffix is a prefix of the comparison word: undecidable from
            # finite data, admitted with the flag
            depth_limited = True
    return AdmissibilityResult(True, depth_limited)


@dataclass(frozen=True)
class SpecConstants:
    m_b_lower: Fraction
    discontinuity_budget: int


def _positive_lower(p: Enclosure) -> Fraction:
    if p.lo > 0:
        return p.lo
    # certified positive through the exact value but the dyadic lower bound
    # collapsed to 0; re-round the exact value until it separates
    if isinstance(p.exact, Quadratic):
        bits = 128
        while bits <= 1 << 16:
            lo, _ = p.exact.bounds(bits)
            if lo > 0:
                return lo
            bits *= 2
        raise UndeterminedValue("positive orbit value too close to 0 to bound")
    if p.exact is not None and p.exact > 0:
        return p.exact
    raise UndeterminedValue("orbit enclosure straddles 0")


def specification_constants(b: BetaNumber, a: int, depth: int = 64) -> SpecConstants:
    """Uniform orbit gap m_b (certified lower bound) and the budget ceil(a/m_b).

    Simple bases take the minimum over the finitely many positive orbit
    values; when that set is empty (integer bases) m_b = 1 by convention,
    the largest bound the phase space admits.
    """
    if a < 2:
        raise ValueError("need a >= 2")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    exp = expansion_of_one(b, depth)
    lows: list[Fraction] = []
    for p in exp.orbit:
        if p.is_certified_zero():
            break
        if not p.certified_positive():
            raise UndeterminedValue(
                "orbit value neither certifiedly zero nor positive; raise precision"
            )
        lows.append(_positive_lower(p))
    m_lower = min(lows) if lows else Fraction(1)
    budget = math.ceil(Fraction(a) / m_lower)
    return SpecConstants(m_b_lower=m_lower, discontinuity_budget=budget)
