"""Exact number helpers shared across the package.

Everything here is certified arithmetic over Q or a real quadratic field
Q(sqrt(d)): outward dyadic rounding, enclosures of sqrt and ln, and a small
exact type for numbers of the form u + v*sqrt(d) that compares with rationals
and with its own field, floors and multiplies as a Fraction does.  No floats
enter any bound; floats only appear as convenience output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

RationalLike = int | Fraction


def round_down(x: Fraction, bits: int) -> Fraction:
    """Largest dyadic p/2^bits <= x."""
    p = (x.numerator << bits) // x.denominator
    return Fraction(p, 1 << bits)


def round_up(x: Fraction, bits: int) -> Fraction:
    """Smallest dyadic p/2^bits >= x."""
    p = -((-x.numerator << bits) // x.denominator)
    return Fraction(p, 1 << bits)


def scaled_floor(x: Fraction, bits: int) -> int:
    """floor(x * 2^bits) as an integer (mantissa of round_down)."""
    return (x.numerator << bits) // x.denominator


def scaled_ceil(x: Fraction, bits: int) -> int:
    return -((-x.numerator << bits) // x.denominator)


def sqrt_bounds(x: RationalLike, bits: int) -> tuple[Fraction, Fraction]:
    """Certified enclosure [lo, hi] of sqrt(x) with hi - lo <= 2^-bits.

    sqrt(p/q) = sqrt(p*q)/q, and isqrt gives the exact integer floor.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt of negative rational")
    n = x.numerator * x.denominator
    r = isqrt(n << (2 * bits))
    den = x.denominator << bits
    lo = Fraction(r, den)
    hi = Fraction(r + 1, den)
    if lo * lo == x:
        return lo, lo
    return lo, hi


def _atanh_bounds(t: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    # atanh(t) = sum t^(2j+1)/(2j+1) for 0 <= t < 1; remainder after J terms
    # is below t^(2J+3) / ((2J+3) (1 - t^2)).
    if not 0 <= t < 1:
        raise ValueError("atanh series needs 0 <= t < 1")
    if t == 0:
        return Fraction(0), Fraction(0)
    s = Fraction(0)
    term = t
    t2 = t * t
    j = 0
    tol = Fraction(1, 1 << (bits + 4))
    while True:
        s += term / (2 * j + 1)
        term *= t2
        j += 1
        tail = term / ((2 * j + 1) * (1 - t2))
        if tail < tol:
            # keep the running fraction small
            lo = round_down(s, bits + 2)
            hi = round_up(s + tail, bits + 2)
            return lo, hi
        if j % 8 == 0:
            s = Fraction(scaled_floor(s, bits + 32), 1 << (bits + 32))


_LN2_CACHE: dict[int, tuple[Fraction, Fraction]] = {}


def ln2_bounds(bits: int) -> tuple[Fraction, Fraction]:
    if bits not in _LN2_CACHE:
        lo, hi = _atanh_bounds(Fraction(1, 3), bits + 2)
        _LN2_CACHE[bits] = (2 * lo, 2 * hi)
    return _LN2_CACHE[bits]


def ln_bounds(x: RationalLike, bits: int = 96) -> tuple[Fraction, Fraction]:
    """Certified enclosure of ln(x) for rational x > 0."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("ln needs a positive argument")
    if x == 1:
        return Fraction(0), Fraction(0)
    if x < 1:
        lo, hi = ln_bounds(1 / x, bits)
        return -hi, -lo
    # normalize x = 2^k * m with m in [1, 2)
    k = x.numerator.bit_length() - x.denominator.bit_length()
    m = x / (Fraction(2) ** k)
    while m >= 2:
        m /= 2
        k += 1
    while m < 1:
        m *= 2
        k -= 1
    t = (m - 1) / (m + 1)  # in [0, 1/3)
    alo, ahi = _atanh_bounds(t, bits + 2)
    l2lo, l2hi = ln2_bounds(bits + 2)
    if k >= 0:
        lo = 2 * alo + k * l2lo
        hi = 2 * ahi + k * l2hi
    else:
        lo = 2 * alo + k * l2hi
        hi = 2 * ahi + k * l2lo
    return round_down(lo, bits), round_up(hi, bits)


def squarefree_split(d: int) -> tuple[int, int]:
    """d = s^2 * d0 with d0 squarefree; returns (s, d0)."""
    if d < 0:
        raise ValueError("need d >= 0")
    s = 1
    f = 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            s *= f
        f += 1
    return s, d


@dataclass(frozen=True)
class Quadratic:
    """Exact element u + v*sqrt(d) of a real quadratic field; d squarefree, not a square."""

    u: Fraction
    v: Fraction
    d: int

    def __post_init__(self) -> None:
        if self.d <= 1:
            raise ValueError("d must be a squarefree integer > 1")
        object.__setattr__(self, "u", Fraction(self.u))
        object.__setattr__(self, "v", Fraction(self.v))

    # -- ring operations -------------------------------------------------
    def _coerce(self, other: "Quadratic | RationalLike") -> "Quadratic":
        if isinstance(other, Quadratic):
            if other.d != self.d:
                raise ValueError("mixed quadratic fields")
            return other
        return Quadratic(Fraction(other), Fraction(0), self.d)

    def __add__(self, other: "Quadratic | RationalLike") -> "Quadratic":
        o = self._coerce(other)
        return Quadratic(self.u + o.u, self.v + o.v, self.d)

    __radd__ = __add__

    def __sub__(self, other: "Quadratic | RationalLike") -> "Quadratic":
        o = self._coerce(other)
        return Quadratic(self.u - o.u, self.v - o.v, self.d)

    def __rsub__(self, other: "Quadratic | RationalLike") -> "Quadratic":
        o = self._coerce(other)
        return Quadratic(o.u - self.u, o.v - self.v, self.d)

    def __mul__(self, other: "Quadratic | RationalLike") -> "Quadratic":
        o = self._coerce(other)
        return Quadratic(
            self.u * o.u + self.v * o.v * self.d,
            self.u * o.v + self.v * o.u,
            self.d,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "Quadratic":
        return Quadratic(-self.u, -self.v, self.d)

    # -- order structure -------------------------------------------------
    def cmp_rational(self, q: RationalLike) -> int:
        """Sign of (self - q); exact.  Never 0 unless v == 0 and u == q."""
        q = Fraction(q)
        if self.v == 0:
            return (self.u > q) - (self.u < q)
        s = q - self.u  # compare v*sqrt(d) against s
        if self.v > 0:
            if s <= 0:
                return 1
            lhs, rhs = self.v * self.v * self.d, s * s
            return (lhs > rhs) - (lhs < rhs)
        if s >= 0:
            return -1
        lhs, rhs = self.v * self.v * self.d, s * s
        return (rhs > lhs) - (rhs < lhs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Quadratic):
            return self.d == other.d and self.u == other.u and self.v == other.v
        if isinstance(other, (int, Fraction)):
            return self.v == 0 and self.u == other
        return NotImplemented

    def _sign_of_difference(self, other: object) -> int | None:
        """Sign of (self - other) for a rational or same-field other, else None."""
        if isinstance(other, Quadratic):
            return (self - other).cmp_rational(0)
        if isinstance(other, (int, Fraction)):
            return self.cmp_rational(other)
        return None

    def __lt__(self, other: object) -> bool:
        c = self._sign_of_difference(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other: object) -> bool:
        c = self._sign_of_difference(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other: object) -> bool:
        c = self._sign_of_difference(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other: object) -> bool:
        c = self._sign_of_difference(other)
        return NotImplemented if c is None else c >= 0

    def __hash__(self) -> int:
        if self.v == 0:
            return hash(self.u)
        return hash((self.u, self.v, self.d))

    def bounds(self, bits: int) -> tuple[Fraction, Fraction]:
        """Certified dyadic enclosure of the value, width <= 2^-bits."""
        slo, shi = sqrt_bounds(self.d, bits + self._v_extra(bits))
        if self.v >= 0:
            lo, hi = self.u + self.v * slo, self.u + self.v * shi
        else:
            lo, hi = self.u + self.v * shi, self.u + self.v * slo
        return round_down(lo, bits + 1), round_up(hi, bits + 1)

    def _v_extra(self, bits: int) -> int:
        # widen the sqrt enclosure enough that |v| * width stays below 2^-(bits+2)
        av = abs(self.v)
        return max(0, (av.numerator // av.denominator).bit_length()) + 4

    def floor(self) -> int:
        if self.v == 0:
            return self.u.numerator // self.u.denominator
        lo, hi = self.bounds(64)
        n = lo.numerator // lo.denominator
        # exact adjustment; the loop runs at most a couple of times
        while self.cmp_rational(n + 1) >= 0:
            n += 1
        while self.cmp_rational(n) < 0:
            n -= 1
        return n

    def __floor__(self) -> int:
        return self.floor()

    def __float__(self) -> float:
        lo, hi = self.bounds(64)
        return float((lo + hi) / 2)

    def __repr__(self) -> str:
        return f"({self.u} + {self.v}*sqrt({self.d}))"
