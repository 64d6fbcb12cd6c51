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
the check b > 1.  A `Quadratic` compares, floors and multiplies as a `Fraction`
does, so exact values need no per-type branches.

The interval engine treats greedy digits as a radix conversion and divides and
conquers (Brent & Zimmermann, Modern Computer Arithmetic, 2010, sec. 1.7): it
runs the first half of the steps on the top bits of the enclosure only, jumps
over them exactly with T^h x = b^h x - sum_k d_k b^(h-1-k), evaluated over
Z[sqrt(d)] from the certified digits, and recurses on the rest; short segments
run a per-step loop.  A point with r steps to go is held at about
r*log2(b) + 64 guard bits beyond the requested output precision.  An ambiguous
branch restarts the pass with doubled budget bits, and every working scale
grows by the bits gained over the first budget, so each restart really
computes more precisely.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

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

    def exact_value(self) -> ExactValue | None:
        return None if self.kind == "bigfloat" else self._value

    def bounds(self, bits: int) -> tuple[Fraction, Fraction]:
        """Enclosure rounded outward to `bits` fractional bits."""
        return _exact_bounds(self._value, bits)

    def scaled_bounds(self, bits: int) -> tuple[int, int]:
        """Integer mantissas (lo, hi) at scale 2^-bits."""
        lo, hi = self.bounds(bits)
        return scaled_floor(lo, bits), scaled_ceil(hi, bits)

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
    "@bits" precision request.  The value must exceed 1.
    """
    s = text.strip()
    literal = _DEC_RE.match(s)
    value = Fraction(literal.group(1)) if literal else parse_exact(s)
    if value <= 1:
        raise DescriptorError(f"base must exceed 1, got {s!r}")
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
    """

    def __init__(self, b: BetaNumber, bits: int, slack: int, log2b_up: float):
        self.bits = bits
        self.slack = slack
        self.log2b_up = log2b_up
        self.b_lo_full, self.b_hi_full = b.scaled_bounds(bits)
        u, v, self.d, self.w = _integer_form(b)
        self.beta = (u, v)
        self.log2_size = math.log2(max(abs(u) + abs(v) * (math.isqrt(self.d) + 1), self.w))
        self.triples: list[tuple[int, int, int]] = []
        self.digits: list[int] = []

    def scale(self, rem: int) -> int:
        """Working scale of a point with rem steps still to run from it."""
        return min(self.bits, math.ceil(rem * self.log2b_up) + self.slack)

    def run(self, x_lo: int, x_hi: int, s: int, n: int, need_block: bool):
        """Advance [x_lo, x_hi]/2^s, with s = scale(n), by n steps.

        Appends each step's (lo, hi, scale) triple and digit; returns the
        segment's digit block when need_block is set.
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
        """The per-step loop: one outward-rounded product per step."""
        bits = self.bits
        for i in range(n):
            shift = bits - s
            b_lo = self.b_lo_full >> shift
            b_hi = -((-self.b_hi_full) >> shift)
            y_lo = (x_lo * b_lo) >> s
            y_hi = -((-(x_hi * b_hi)) >> s)
            k = y_lo >> s
            if y_hi >> s != k:
                raise AmbiguousBranch(
                    f"step {len(self.digits)}: enclosure straddles an integer at {bits} bits"
                )
            x_lo = y_lo - (k << s)
            x_hi = y_hi - (k << s)
            s_next = self.scale(n - i - 1)
            if s_next < s:
                drop = s - s_next
                x_lo >>= drop
                x_hi = -((-x_hi) >> drop)
                s = s_next
            self.triples.append((x_lo, x_hi, s))
            self.digits.append(k)

    def _block(self, digits: list[int]):
        """(beta^n, w^n, N) for a run of n digits, by Horner's rule."""
        d, w, beta = self.d, self.w, self.beta
        power, w_power, acc = (1, 0), 1, (0, 0)
        for k in digits:
            a, c = _zmul(acc, beta, d)
            acc = (a + k * w_power, c)
            power = _zmul(power, beta, d)
            w_power *= w
        return power, w_power, acc

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
            r = math.isqrt(self.d << (2 * t))  # sqrt(d) * 2^t in (r, r + 1)
            g = (g << t) + e * (r + 1 if (e > 0) == up else r)
        if up:
            return -(((-g) >> (shift + t)) // den)
        return (g >> (shift + t)) // den


def _interval_orbit_attempt(
    b: BetaNumber,
    lo0: Fraction,
    hi0: Fraction,
    n_steps: int,
    bits: int,
    width_bits: int,
    log2b_up: float,
    guard: int,
) -> tuple[list[tuple[int, int, int]], list[int]]:
    """One fixed-budget interval pass.

    Returns per-step (lo_mantissa, hi_mantissa, scale) triples plus digits, or
    raises AmbiguousBranch.  A point with r steps to go is held at scale
    min(bits, r*log2(b) + width_bits + 64 + guard), which keeps the big-integer
    products near the minimum needed size; guard is what a restart adds.
    """
    engine = _IntervalOrbit(b, bits, width_bits + 64 + guard, log2b_up)
    s = engine.scale(n_steps)
    engine.run(scaled_floor(lo0, s), scaled_ceil(hi0, s), s, n_steps, need_block=False)
    return engine.triples, engine.digits


def _width_ok(triples: list[tuple[int, int, int]], digits_required: int) -> bool:
    for lo, hi, s in triples:
        # (hi - lo)/2^s <= 10^-digits  <=>  (hi - lo) * 10^digits <= 2^s
        if (hi - lo) * 10**digits_required > (1 << s):
            return False
    return True


def _triples_to_enclosures(triples: list[tuple[int, int, int]]) -> list[Enclosure]:
    return [Enclosure(Fraction(lo, 1 << s), Fraction(hi, 1 << s)) for lo, hi, s in triples]


def _mid_float(lo: int, hi: int, s: int) -> float:
    tot = lo + hi
    shift = max(0, tot.bit_length() - 56)
    return math.ldexp(float(tot >> shift), shift - s - 1)


def _certified_orbit(
    b: BetaNumber,
    x0: object,
    n_steps: int,
    digits_required: int,
    method: str,
    exact_cutoff: int,
) -> tuple[list[tuple[int, int, int]] | None, list[Enclosure] | None, list[int], int]:
    """The restart driver behind every orbit entry point.

    Returns (triples, points, digits, bits_used): triples from the interval
    path, or points from the exact path (bits_used 0); the other is None.
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
            triples, digits = _interval_orbit_attempt(
                b, lo0, hi0, n_steps, bits, out_bits, log2b_up, bits - budget.initial_bits
            )
            if _width_ok(triples, digits_required):
                return triples, None, digits, bits
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
    triples, points, digits, bits = _certified_orbit(
        b, x0, n_steps, digits_required, method, _EXACT_PATH_CUTOFF
    )
    if points is None:
        points = _triples_to_enclosures(triples)
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
) -> list[float]:
    """Orbit midpoints as floats (certified to ~10^-digits_required each).

    Interval engine without Fraction wrapping; falls back to the exact path if
    a branch stays ambiguous and an exact backing exists.
    """
    triples, points, _, _ = _certified_orbit(
        b, x0, n_steps, digits_required, "auto", exact_cutoff=0
    )
    if triples is None:
        return [float(p) for p in points]
    return [_mid_float(lo, hi, s) for lo, hi, s in triples]
