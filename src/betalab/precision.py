"""Certified evaluation of the map x -> b*x mod 1.

Bases are exact rationals, exact real-quadratic numbers, or high-precision
decimal literals; orbit points are dyadic interval enclosures.  Every emitted digit
floor(b*x) is certified: either the enclosure of b*x stays inside one integer
cell, or an exact backing resolves the branch (points exactly at a cut take the
right-continuous branch, so T(x) = 0 with digit floor(b*x)).  Decimal-literal
bases carry no exact certificates, so persistent ambiguity there raises instead
of silently guessing.

Exact numbers have one grammar, `parse_exact`, used for bases and points
alike; `parse_beta` adds decimal-literal bases ("@bits" precision requests) and
the checks that b exceeds 1 and rounds to a finite float.  A `Quadratic`
compares, floors and multiplies as a `Fraction` does, so exact values need no
per-type branches.

The interval engine treats greedy digits as a radix conversion and divides and
conquers (Brent & Zimmermann, Modern Computer Arithmetic, 2010, sec. 1.7): it
runs the first half of the steps on the top bits of the enclosure only, jumps
over them exactly with T^h x = b^h x - sum_k d_k b^(h-1-k), evaluated over
Z[sqrt(d)] from the certified digits, and recurses on the rest; short segments
run a per-step loop.  A point with r steps to go is held at about
r*log2(b) + 64 guard bits beyond the requested output precision.  An ambiguous
branch restarts the pass with doubled budget bits, and every working scale
grows by the bits gained over the first budget, so each restart really
computes more precisely.  For `tb_orbit_floats` the leaves step in float64
under an a-priori error bound (`_FloatLeafOrbit`) and rerun the per-step
loop where that bound cannot certify a digit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import gt, mul, sub

import numpy as np

from .exactnum import (
    Quadratic,
    round_down,
    round_up,
    scaled_ceil,
    scaled_floor,
    squarefree_split,
)

ExactValue = Fraction | Quadratic


class AmbiguousBranch(ArithmeticError):
    """Enclosure of b*x straddles an integer; refine and retry."""


class PrecisionExhausted(ArithmeticError):
    """Doubling reached the budget cap without resolving every branch."""


class UndeterminedValue(ArithmeticError):
    """A sign or membership query cannot be certified at any allowed precision."""


class CertificationError(ArithmeticError):
    """An internal soundness check failed: a certified bound does not hold."""


@dataclass(frozen=True)
class Enclosure:
    """Dyadic interval [lo, hi] around a point, with an optional exact value.

    `exact` is set only for bases/points living in Q or Q(sqrt(d)); decimal
    literal bases never produce exact orbit certificates.
    """

    lo: Fraction
    hi: Fraction
    exact: ExactValue | None = None

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise CertificationError("empty enclosure")
        if self.exact is not None and not self.lo <= self.exact <= self.hi:
            raise CertificationError("exact value escapes enclosure")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __float__(self) -> float:
        return float(self.midpoint())

    def is_certified_zero(self) -> bool:
        if self.exact is not None:
            return self.exact == 0
        return self.lo == 0 and self.hi == 0

    def certified_positive(self) -> bool:
        return self.lo > 0 or (self.exact is not None and self.exact > 0)


@dataclass(frozen=True)
class PrecisionBudget:
    """Bit budget for an interval orbit: start, cap, restart-by-doubling."""

    initial_bits: int
    max_bits: int

    @classmethod
    def for_orbit(cls, log2_b_hi: float, n_steps: int, digits_required: int) -> "PrecisionBudget":
        # each step multiplies the width by b, so reserve n*log2(b) bits plus
        # output precision and guard bits
        need = math.ceil(n_steps * max(log2_b_hi, 0.0)) + 64
        need += math.ceil(digits_required * math.log2(10)) + 8
        need = max(need, 128)
        return cls(initial_bits=need, max_bits=need * 64)


def _exact_bounds(value: ExactValue, bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure of an exact value rounded outward to `bits` fractional bits."""
    if isinstance(value, Quadratic):
        return value.bounds(bits)
    return round_down(value, bits), round_up(value, bits)


class DescriptorError(ValueError):
    """Malformed or out-of-range base descriptor."""


@dataclass(frozen=True)
class BetaNumber:
    """A base b > 1 with a certified dyadic enclosure.

    kind is one of "rational", "quadratic", "bigfloat".  Rational and quadratic
    bases carry exact values (decidable equality, exact floors); bigfloat bases
    are decimal literals whose enclosure can be re-rounded to any precision but
    which never certify exact identities.
    """

    kind: str
    descriptor: str
    bits: int
    lo: Fraction
    hi: Fraction
    floor_b: int
    ceil_b: int
    _value: ExactValue  # the literal's rational for bigfloat, used only to re-round
    _scaled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def exact_value(self) -> ExactValue | None:
        return None if self.kind == "bigfloat" else self._value

    def bounds(self, bits: int) -> tuple[Fraction, Fraction]:
        """Enclosure rounded outward to `bits` fractional bits."""
        return _exact_bounds(self._value, bits)

    def scaled_bounds(self, bits: int) -> tuple[int, int]:
        """Integer mantissas (lo, hi) at scale 2^-bits, computed once per bits:
        every interval orbit at a working precision starts from them."""
        mantissas = self._scaled.get(bits)
        if mantissas is None:
            lo, hi = self.bounds(bits)
            mantissas = self._scaled[bits] = scaled_floor(lo, bits), scaled_ceil(hi, bits)
        return mantissas

    def log2_upper(self) -> float:
        """A float upper bound on log2(b)."""
        hi = self.hi
        return math.log2(hi.numerator) - math.log2(hi.denominator) + 1e-9

    def __float__(self) -> float:
        return float((self.lo + self.hi) / 2)

    def __str__(self) -> str:
        return self.descriptor


# One grammar for exact numbers, shared by bases and points.  A decimal
# literal may carry an "@bits" precision request only as a base.
_INT_RE = re.compile(r"^[+]?\d+$")
_RAT_RE = re.compile(r"^(\d+)\s*/\s*(\d+)$")
_DEC_RE = re.compile(r"^(\d+\.\d+)(?:@(\d+))?$")
_QUAD_RE = re.compile(
    r"^\(?\s*(?:(\d+(?:/\d+)?)\s*)?([+-])?\s*(?:(\d+(?:/\d+)?)\s*\*\s*)?"
    r"sqrt\s*\(?\s*(\d+)\s*\)?\s*\)?\s*(?:/\s*(\d+))?$"
)

DEFAULT_DECIMAL_BITS = 256


def parse_exact(text: str) -> ExactValue:
    """Parse an exact number: INT (optional "+") | "p/q" | decimal literal,
    taken at face value | "(u+v*sqrtD)/w" (parentheses, u, v and w optional).

    sqrt(D) is split into s*sqrt(d0) with d0 squarefree, so a square D gives a
    rational.  A zero denominator is a DescriptorError.
    """
    s = text.strip()
    try:
        if _INT_RE.match(s):
            return Fraction(int(s))
        if m := _RAT_RE.match(s):
            return Fraction(int(m.group(1)), int(m.group(2)))
        if (m := _DEC_RE.match(s)) and not m.group(2):
            return Fraction(m.group(1))
        if m := _QUAD_RE.match(s):
            u = Fraction(m.group(1) or 0)
            sign = -1 if m.group(2) == "-" else 1
            v = Fraction(m.group(3) or 1)
            w = Fraction(m.group(5) or 1)
            sq, d0 = squarefree_split(int(m.group(4)))
            v = sign * v * sq
            if d0 <= 1:
                return (u + v * d0) / w
            return Quadratic(u / w, v / w, d0)
    except ZeroDivisionError:
        raise DescriptorError(f"zero denominator in {text!r}") from None
    raise DescriptorError(f"cannot parse descriptor {text!r}")


def parse_beta(text: str) -> BetaNumber:
    """Parse a base descriptor: the parse_exact grammar, where a decimal
    literal becomes a "bigfloat" base held at DEFAULT_DECIMAL_BITS or at an
    "@bits" precision request.  The value must exceed 1 and round to a
    finite float.
    """
    s = text.strip()
    literal = _DEC_RE.match(s)
    value = Fraction(literal.group(1)) if literal else parse_exact(s)
    if value <= 1:
        raise DescriptorError(f"base must exceed 1, got {s!r}")
    try:
        float(value)  # float code downstream reads b as a float
    except OverflowError:
        raise DescriptorError(f"base {s!r} is too large for a float") from None
    bits = DEFAULT_DECIMAL_BITS
    if literal:
        bits = int(literal.group(2) or bits)
        if bits < 4:
            raise DescriptorError("precision request below 4 bits")
        lo, hi = _exact_bounds(value, bits)
        flo = math.floor(lo)
        if flo != math.floor(hi):
            raise DescriptorError(f"enclosure of {s!r} straddles an integer at {bits} bits")
        cb = flo if lo == hi == flo else flo + 1
        return BetaNumber("bigfloat", s, bits, lo, hi, flo, cb, value)
    lo, hi = _exact_bounds(value, bits)
    fb = math.floor(value)
    if isinstance(value, Quadratic):
        return BetaNumber("quadratic", s, bits, lo, hi, fb, fb + 1, value)
    return BetaNumber("rational", s, bits, lo, hi, fb, math.ceil(value), value)


# ---------------------------------------------------------------------------
# single certified step


def tb_apply(b: BetaNumber, x: Enclosure) -> tuple[Enclosure, int]:
    """One certified step: returns (enclosure of {b*x}, digit floor(b*x)).

    x must satisfy 0 <= x <= 1; the endpoint 1 is admitted so the orbit of 1
    can be seeded directly.  Raises AmbiguousBranch when the product enclosure
    straddles an integer and no exact backing can resolve it.
    """
    if x.lo < 0 or x.hi > 1:
        raise ValueError("point enclosure must lie in [0, 1]")
    y_lo = b.lo * x.lo
    y_hi = b.hi * x.hi
    b_exact = b.exact_value()
    y_exact: ExactValue | None = None
    if b_exact is not None and x.exact is not None:
        y_exact = b_exact * x.exact
    k_lo = y_lo.numerator // y_lo.denominator
    k_hi = y_hi.numerator // y_hi.denominator
    if y_exact is not None:
        k = math.floor(y_exact)
        frac_exact = y_exact - k
        lo = max(y_lo - k, Fraction(0))
        hi = min(y_hi - k, Fraction(1))
        if isinstance(frac_exact, Quadratic):
            qlo, qhi = frac_exact.bounds(128)
            lo, hi = max(lo, qlo), min(hi, qhi)
        else:
            lo, hi = max(lo, frac_exact), min(hi, frac_exact)
        return Enclosure(lo, hi, exact=frac_exact), k
    if k_lo != k_hi:
        raise AmbiguousBranch(f"b*x in [{float(y_lo):.6g}, {float(y_hi):.6g}] straddles an integer")
    return Enclosure(y_lo - k_lo, y_hi - k_lo, exact=None), k_lo


# ---------------------------------------------------------------------------
# orbit engines

_EXACT_PATH_CUTOFF = 5000


def _seed_bounds(x0: object) -> tuple[Fraction, Fraction, ExactValue | None]:
    """(lo, hi, exact value or None) of an orbit seed in [0, 1]."""
    if isinstance(x0, Enclosure):
        lo, hi, exact = x0.lo, x0.hi, x0.exact
    elif isinstance(x0, Quadratic):
        (lo, hi), exact = x0.bounds(128), x0
    elif isinstance(x0, (int, float, Fraction)):
        lo = hi = exact = Fraction(x0)
    else:
        raise TypeError(f"unsupported orbit seed {type(x0).__name__}")
    if lo < 0 or hi > 1:
        raise ValueError("orbit seed must lie in [0, 1]")
    return lo, hi, exact


def _exact_orbit(
    b_val: ExactValue, seed: ExactValue, n_steps: int, out_bits: int
) -> tuple[list[Enclosure], list[int]]:
    points: list[Enclosure] = []
    digits: list[int] = []
    x = seed
    for _ in range(n_steps):
        y = b_val * x
        k = math.floor(y)
        x = y - k
        digits.append(k)
        if isinstance(x, Quadratic) and x.v == 0:
            x = x.u  # fall back to plain rationals once the sqrt part cancels
        points.append(Enclosure(*_exact_bounds(x, out_bits), exact=x))
    return points, digits


# Orbit segments of at most this many steps run the per-step loop; longer ones
# split in half and jump over the first half exactly.  Orbit cost is flat for
# values from 32 to 128; 128 keeps orbits of the CLI's default 100 steps on the
# per-step loop, so the enclosure widths they report are unchanged.
_BASE_STEPS = 128
# A jump's exact integers grow by log2(max(|u| + |v| sqrt(d), w)) bits per
# digit.  Past this multiple of the working scale (a base written with a long
# denominator, e.g. a decimal literal of 40 digits or more) the per-step loop
# is cheaper.  Halves pass the test whenever their parent does, so in effect
# it picks one engine per orbit.
_JUMP_SIZE_RATIO = 64


def _integer_form(b: BetaNumber) -> tuple[int, int, int, int]:
    """Integers (u, v, d, w) with b = (u + v*sqrt(d))/w exactly; v = d = 0 for
    rational bases and decimal literals."""
    value = b._value
    if b.kind == "quadratic":
        w = math.lcm(value.u.denominator, value.v.denominator)
        return int(value.u * w), int(value.v * w), value.d, w
    return value.numerator, 0, 0, value.denominator


def _zmul(x: tuple[int, int], y: tuple[int, int], d: int) -> tuple[int, int]:
    """Product of a + c*sqrt(d) and e + f*sqrt(d), as coefficient pairs."""
    a, c = x
    e, f = y
    return a * e + d * c * f, a * f + c * e


class _IntervalOrbit:
    """State of one fixed-budget interval pass: the divide-and-conquer engine.

    A segment of n steps runs its first h = n/2 steps on the top bits of its
    enclosure only, then jumps: every point of the enclosure shares those h
    certified digits d_k, so T^h x = b^h x - P(b) with P = sum d_k b^(h-1-k).
    With b = beta/w, beta = u + v*sqrt(d), the jump is evaluated exactly from
    the segment's digit block (beta^h, w^h, N), N = sum d_k beta^(h-1-k) w^k,
    and rounded outward once.  Short segments run the per-step loop, so the
    integers stay near the minimum size either way.

    The orbit is kept in four flat columns: each step's lo and hi mantissas,
    its scale and its digit.
    """

    def __init__(self, b: BetaNumber, bits: int, slack: int, log2b_up: float):
        self.bits = bits
        self.slack = slack
        self.log2b_up = log2b_up
        self.b_lo_full, self.b_hi_full = b.scaled_bounds(bits)
        u, v, self.d, self.w = _integer_form(b)
        self.beta = (u, v)
        self.log2_size = math.log2(max(abs(u) + abs(v) * (math.isqrt(self.d) + 1), self.w))
        self.los: list[int] = []
        self.his: list[int] = []
        self.scales: list[int] = []
        self.digits: list[int] = []
        self._terms: dict[int, tuple] = {}  # segment length -> _block's table
        self._sqrt_bits = -1  # isqrt(d << 2 * _sqrt_bits) is _sqrt_root
        self._sqrt_root = 0

    @property
    def columns(self) -> Columns:
        return self.los, self.his, self.scales

    def scale(self, rem: int) -> int:
        """Working scale of a point with rem steps still to run from it."""
        return min(self.bits, math.ceil(rem * self.log2b_up) + self.slack)

    def run(self, x_lo: int, x_hi: int, s: int, n: int, need_block: bool):
        """Advance [x_lo, x_hi]/2^s, with s = scale(n), by n steps.

        Appends each step's lo, hi, scale and digit to the columns; returns
        the segment's digit block when need_block is set.
        """
        h = n // 2
        if n <= _BASE_STEPS or h * self.log2_size > _JUMP_SIZE_RATIO * s:
            first = len(self.digits)
            self._steps(x_lo, x_hi, s, n)
            return self._block(self.digits[first:]) if need_block else None
        s1 = self.scale(h)
        drop = s - s1
        head = self.run(x_lo >> drop, -((-x_hi) >> drop), s1, h, True)
        s2 = self.scale(n - h)
        y_lo, y_hi = self._jump(x_lo, x_hi, s, head, s2)
        tail = self.run(y_lo, y_hi, s2, n - h, need_block)
        return self._combine(head, tail) if need_block else None

    def _steps(self, x_lo: int, x_hi: int, s: int, n: int) -> None:
        """The per-step loop: one outward-rounded product per step.

        b is rounded to the segment's starting scale once and then shifted
        along with the point whenever the scale drops.  floor(floor(y/2^i)/2^j)
        = floor(y/2^(i+j)) for integers, and likewise for ceil, so the shifted
        b_lo, b_hi are exactly the floor and ceil of b's full-width mantissas
        at the new scale: the integers of rounding afresh at every step.
        The next scale is `scale(rem)` without its cap at bits: s never
        exceeds bits, so wherever the cap applies there is no drop either way.
        """
        shift = self.bits - s
        b_lo = self.b_lo_full >> shift
        b_hi = -((-self.b_hi_full) >> shift)
        ceil, log2b_up, slack = math.ceil, self.log2b_up, self.slack
        los, his, scales, digits = self.los, self.his, self.scales, self.digits
        for rem in range(n - 1, -1, -1):
            y_lo = (x_lo * b_lo) >> s
            y_hi = -((-(x_hi * b_hi)) >> s)
            k = y_lo >> s
            if y_hi >> s != k:
                raise AmbiguousBranch(
                    f"step {len(digits)}: enclosure straddles an integer at {self.bits} bits"
                )
            x_lo = y_lo - (k << s)
            x_hi = y_hi - (k << s)
            s_next = ceil(rem * log2b_up) + slack
            if s_next < s:
                drop = s - s_next
                x_lo >>= drop
                x_hi = -((-x_hi) >> drop)
                b_lo >>= drop
                b_hi = -((-b_hi) >> drop)
                s = s_next
            los.append(x_lo)
            his.append(x_hi)
            scales.append(s)
            digits.append(k)

    def _block(self, digits: list[int]):
        """(beta^n, w^n, N) for a run of n digits, N = sum_k d_k t_k with the
        terms t_k = beta^(n-1-k) w^k of `_block_terms`."""
        power, w_power, term_a, term_c = self._block_terms(len(digits))
        return power, w_power, (sum(map(mul, digits, term_a)), sum(map(mul, digits, term_c)))

    def _block_terms(self, n: int):
        """beta^n, w^n and the coefficients of beta^(n-1-k) w^k, k < n; one
        table per segment length, and the leaves have only a few lengths."""
        table = self._terms.get(n)
        if table is None:
            d, w, beta = self.d, self.w, self.beta
            beta_powers = [(1, 0)]
            for _ in range(n):
                beta_powers.append(_zmul(beta_powers[-1], beta, d))
            term_a, term_c = [], []
            w_power = 1
            for k in range(n):
                a, c = beta_powers[n - 1 - k]
                term_a.append(a * w_power)
                term_c.append(c * w_power)
                w_power *= w
            table = self._terms[n] = (beta_powers[n], w_power, term_a, term_c)
        return table

    def _combine(self, left, right):
        """Block of two adjacent runs: N_ij = N_im beta^(j-m) + N_mj w^(m-i)."""
        p_left, w_left, n_left = left
        p_right, w_right, n_right = right
        a, c = _zmul(n_left, p_right, self.d)
        return (
            _zmul(p_left, p_right, self.d),
            w_left * w_right,
            (a + n_right[0] * w_left, c + n_right[1] * w_left),
        )

    def _sqrt_d(self, t: int) -> int:
        """isqrt(d << 2t), shifted down from the root at the largest T >= t
        asked for so far: floor(floor(y 2^T) / 2^(T-t)) = floor(y 2^t).  T at
        least doubles when it grows, so an orbit takes a few roots at most."""
        if t > self._sqrt_bits:
            self._sqrt_bits = max(t, 2 * self._sqrt_bits)
            self._sqrt_root = math.isqrt(self.d << (2 * self._sqrt_bits))
        return self._sqrt_root >> (self._sqrt_bits - t)

    def _jump(self, x_lo: int, x_hi: int, s: int, block, s2: int) -> tuple[int, int]:
        """Enclosure at scale s2 of T^h over [x_lo, x_hi]/2^s, from the block of
        the h digits every point of it shares, intersected with [0, 1].

        T^h x = (beta^h x - w N) / w^h, increasing in x.
        """
        (pa, pc), w_power, (na, nc) = block
        wna, wnc = (self.w * na) << s, (self.w * nc) << s
        shift = s - s2
        lo = self._round(pa * x_lo - wna, pc * x_lo - wnc, w_power, shift, up=False)
        hi = self._round(pa * x_hi - wna, pc * x_hi - wnc, w_power, shift, up=True)
        return max(lo, 0), min(hi, 1 << s2)

    def _round(self, g: int, e: int, den: int, shift: int, up: bool) -> int:
        """floor, or ceil if up, of (g + e*sqrt(d)) / (den * 2^shift).

        sqrt(d) is enclosed by isqrt at t bits, enough that its error moves
        the quotient by at most 2^-32.
        """
        t = 0
        if e:
            t = max(0, e.bit_length() - den.bit_length() + 33 - shift)
            r = self._sqrt_d(t)  # sqrt(d) * 2^t in (r, r + 1)
            g = (g << t) + e * (r + 1 if (e > 0) == up else r)
        if up:
            return -(((-g) >> (shift + t)) // den)
        return (g >> (shift + t)) // den


Columns = tuple[list[int], list[int], list[int]]  # per-step lo and hi mantissas, scale

# Float leaves.  u is float64's unit roundoff.  A chunk starts at the midpoint
# float of an enclosure at most 2^-63 wide: `_mid_float` lies within 2^-52 of
# the midpoint, and the midpoint within 2^-64 of every point of the enclosure.
_U = 2.0**-53
_START_ERROR = 2.0**-52 + 2.0**-64
LeafPlan = tuple[float, tuple[float, ...]]  # b~ and the bounds r_1 .. r_L


def _float_leaf_plan(b: BetaNumber, digits_required: int) -> LeafPlan:
    """(b~, (r_1, .., r_L)): a float b~ near b and error bounds for L float steps.

    Let x~ in [0, 1] lie within r_0 = _START_ERROR of x in [0, 1], and step
    x~ <- fl(b~ x~) mod 1.  While each step keeps the digit floor(b x),
    |fl(b~ x~) - b x| <= delta + u b_hi + b_hi r_j, where delta >= |b~ - b| and
    b_hi >= b, b~ (the standard model: Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, sec. 2.2); the factor 1 + 2^-50 covers the
    rounding of this recurrence itself.  L is the most steps, at most
    _BASE_STEPS, with r_L <= 10^-digits_required / 2.
    """
    # int / int is correctly rounded; each bound steps one float outward
    lo, hi = b.scaled_bounds(128)
    b_float = (lo + hi) / (1 << 129)
    num, den = b_float.as_integer_ratio()  # den = 2^k, k <= 52 as b~ >= 1
    mid = (num << 128) // den  # exact: b~ 2^128, even where it overflows a float
    delta = math.nextafter(max(hi - mid, mid - lo) / (1 << 128), math.inf)
    b_hi = math.nextafter(max(hi, mid) / (1 << 128), math.inf)
    target = math.nextafter(1 / (2 * 10**digits_required), 0.0)
    bounds = []
    r = _START_ERROR
    for _ in range(_BASE_STEPS):
        r = (delta + _U * b_hi + b_hi * r) * (1 + 2.0**-50)
        if r > target:
            break
        bounds.append(r)
    return b_float, tuple(bounds)


def _mid_float(lo: int, hi: int, s: int) -> float:
    """The midpoint (lo + hi) / 2^(s+1), truncated to 56 bits before the
    float conversion."""
    tot = lo + hi
    shift = max(0, tot.bit_length() - 56)
    return math.ldexp(float(tot >> shift), shift - s - 1)


class _FloatLeafOrbit(_IntervalOrbit):
    """The interval engine with float leaves, behind `tb_orbit_floats`.

    A leaf runs in chunks of at most L steps, L the length of the plan's
    bounds.  A chunk starts at the midpoint float of its certified enclosure
    and iterates x~ <- fl(b~ x~) mod 1.  It accepts the digit k = floor(fl(b~
    x~)) only when the new fractional part f satisfies r_j <= f and
    f + r_j < 1, which puts b x in [k, k + 1).  The bounds hold for every
    point of the enclosure, so every point shares the chunk's digits and the
    exact `_jump` over them encloses the next chunk's start.  If a check
    fails, the whole leaf reruns the integer `_steps` and takes its truncated
    midpoints.  The columns hold those points only, so the width check sees
    them; a float-leaf point is within r_j <= 10^-digits / 2 by construction.
    A segment longer than _BASE_STEPS, which `run` leaves whole because the
    base's jump integers are long (_JUMP_SIZE_RATIO), keeps the integer loop
    and its truncated midpoints.
    """

    def __init__(self, b: BetaNumber, bits: int, slack: int, log2b_up: float, plan: LeafPlan):
        super().__init__(b, bits, slack, log2b_up)
        self.b_float, self.bounds = plan
        self.floats: list[float] = []

    def _steps(self, x_lo: int, x_hi: int, s: int, n: int) -> None:
        first = len(self.digits)
        if n <= _BASE_STEPS and self.bounds and self._float_chunks(x_lo, x_hi, s, n):
            return
        del self.digits[first:], self.floats[first:]
        mark = len(self.los)
        super()._steps(x_lo, x_hi, s, n)
        self.floats += map(_mid_float, self.los[mark:], self.his[mark:], self.scales[mark:])

    def _float_chunks(self, x_lo: int, x_hi: int, s: int, n: int) -> bool:
        """Run n steps from [x_lo, x_hi]/2^s in float chunks; False at the
        first digit or start that the bounds cannot certify."""
        b_float, bounds, digits, floats = self.b_float, self.bounds, self.digits, self.floats
        done = 0
        while True:
            if (x_hi - x_lo) >> (s - 63):  # wider than _START_ERROR allows
                return False
            x = _mid_float(x_lo, x_hi, s)
            c = min(len(bounds), n - done)
            for r in bounds[:c]:
                p = b_float * x
                k = int(p)
                x = p - k  # exact
                if x < r or x + r >= 1.0:
                    return False
                digits.append(k)
                floats.append(x)
            done += c
            if done == n:
                return True
            s2 = self.scale(n - done)
            x_lo, x_hi = self._jump(x_lo, x_hi, s, self._block(digits[-c:]), s2)
            s = s2


def _interval_orbit_attempt(
    b: BetaNumber,
    lo0: Fraction,
    hi0: Fraction,
    n_steps: int,
    bits: int,
    width_bits: int,
    log2b_up: float,
    guard: int,
    leaf_plan: LeafPlan | None,
) -> _IntervalOrbit:
    """One fixed-budget interval pass; returns the finished engine, or raises
    AmbiguousBranch.

    The engine's columns (lo mantissas, hi mantissas, scales) give the points
    [lo, hi]/2^scale, and its digits the digits.  With a `_float_leaf_plan`
    the engine is a `_FloatLeafOrbit`, whose floats give every point.  A
    point with r steps to go is held at scale min(bits, r*log2(b) +
    width_bits + 64 + guard), which keeps the big-integer products near the
    minimum needed size; guard is what a restart adds.
    """
    slack = width_bits + 64 + guard
    if leaf_plan is None:
        engine = _IntervalOrbit(b, bits, slack, log2b_up)
    else:
        engine = _FloatLeafOrbit(b, bits, slack, log2b_up, leaf_plan)
    s = engine.scale(n_steps)
    engine.run(scaled_floor(lo0, s), scaled_ceil(hi0, s), s, n_steps, need_block=False)
    return engine


def _width_ok(columns: Columns, digits_required: int) -> bool:
    """Every (hi - lo)/2^s <= 10^-digits.  For an integer width w,
    w * 10^digits > 2^s exactly when w > floor(2^s / 10^digits)."""
    los, his, scales = columns
    scale = 10**digits_required
    limits = {s: (1 << s) // scale for s in set(scales)}
    return not any(map(gt, map(sub, his, los), map(limits.__getitem__, scales)))


def _column_enclosures(columns: Columns) -> list[Enclosure]:
    return [Enclosure(Fraction(lo, 1 << s), Fraction(hi, 1 << s)) for lo, hi, s in zip(*columns)]


def _certified_orbit(
    b: BetaNumber,
    x0: object,
    n_steps: int,
    digits_required: int,
    method: str,
    exact_cutoff: int,
    leaf_plan: LeafPlan | None,
) -> tuple[_IntervalOrbit | None, list[Enclosure] | None, list[int], int]:
    """The restart driver behind every orbit entry point.

    Returns (engine, points, digits, bits_used): the finished engine of the
    interval path, or points from the exact path (bits_used 0); the other is
    None.  leaf_plan is passed to every interval pass.
    method "auto" takes the exact path first when n_steps <= exact_cutoff.
    Each restart doubles the budget bits and widens every working scale by the
    bits gained over the initial budget.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if method not in ("auto", "interval", "exact"):
        raise ValueError(f"unknown orbit method {method!r}")
    lo0, hi0, seed_exact = _seed_bounds(x0)
    b_exact = b.exact_value()
    out_bits = math.ceil(digits_required * math.log2(10)) + 4

    exact_possible = b_exact is not None and seed_exact is not None
    if exact_possible and isinstance(seed_exact, Quadratic):
        exact_possible = isinstance(b_exact, Quadratic) and b_exact.d == seed_exact.d
    if method == "exact" or (method == "auto" and exact_possible and n_steps <= exact_cutoff):
        if not exact_possible:
            raise ValueError("exact orbit path needs an exact base and seed")
        points, digits = _exact_orbit(b_exact, seed_exact, n_steps, out_bits)
        return None, points, digits, 0

    log2b_up = b.log2_upper()
    budget = PrecisionBudget.for_orbit(log2b_up, n_steps, digits_required)
    bits = budget.initial_bits
    while True:
        try:
            engine = _interval_orbit_attempt(
                b, lo0, hi0, n_steps, bits, out_bits, log2b_up, bits - budget.initial_bits,
                leaf_plan,
            )
            if _width_ok(engine.columns, digits_required):
                return engine, None, engine.digits, bits
        except AmbiguousBranch:
            if exact_possible and method != "interval":
                points, digits = _exact_orbit(b_exact, seed_exact, n_steps, out_bits)
                return None, points, digits, 0
        bits *= 2
        if bits > budget.max_bits:
            raise PrecisionExhausted(
                f"orbit needs more than {budget.max_bits} bits "
                "(seed suspiciously close to a preimage of a branch cut?)"
            )


def orbit_with_digits(
    b: BetaNumber,
    x0: object,
    n_steps: int,
    digits_required: int = 12,
    method: str = "auto",
) -> tuple[list[Enclosure], list[int], int]:
    """Certified orbit T(x0), T^2(x0), ..., T^n(x0) with digits floor(b*T^i x0).

    method "auto" prefers the exact field path for rational/quadratic bases on
    short orbits; "interval" forces pure interval arithmetic (restarting with
    doubled precision on ambiguity); "exact" requires an exact backing.
    Returns (points, digits, bits_used); bits_used is 0 on the exact path.
    """
    engine, points, digits, bits = _certified_orbit(
        b, x0, n_steps, digits_required, method, _EXACT_PATH_CUTOFF, None
    )
    if points is None:
        points = _column_enclosures(engine.columns)
    return points, digits, bits


def tb_orbit(
    b: BetaNumber,
    x0: object,
    n_steps: int,
    digits_required: int = 12,
    method: str = "auto",
) -> list[Enclosure]:
    points, _, _ = orbit_with_digits(b, x0, n_steps, digits_required, method)
    return points


def tb_orbit_floats(
    b: BetaNumber,
    x0: object,
    n_steps: int,
    digits_required: int = 9,
) -> np.ndarray:
    """Orbit points as floats (certified to ~10^-digits_required each).

    The interval engine with float leaves (`_FloatLeafOrbit`): a float-leaf
    point is within 10^-digits_required / 2 of the orbit, in chunks of L
    steps certified a priori (28 for phi at 9 digits).  A leaf whose digits
    the float bound cannot certify, a segment on the per-step loop, and every
    leaf when no step fits under the bound give their enclosures' truncated
    midpoints.  Falls back to the exact path if a
    branch stays ambiguous and an exact backing exists.
    """
    plan = _float_leaf_plan(b, digits_required)
    engine, points, _, _ = _certified_orbit(b, x0, n_steps, digits_required, "auto", 0, plan)
    if engine is None:
        return np.array([float(p) for p in points])
    return np.array(engine.floats)
