"""The absolutely continuous invariant measure of x -> b*x mod 1.

Density series f(x) = sum over n >= 0 with x < T^n(1) of b^(-n), convention
T^0(1) = 1 so the n = 0 term always fires (the stated bounds 1 - 1/b <= f <=
1/(1 - 1/b) force that reading).  density_at evaluates the unnormalized f;
every measure-semantic operation divides by Z = sum b^(-n) T^n(1).  Endpoint
comparisons x < r_n are certified: an orbit point with an exact value compares
exactly; otherwise the orbit is refined, giving up with PrecisionExhausted when
x sits on an r_n below resolution.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .precision import (
    BetaNumber,
    Enclosure,
    PrecisionExhausted,
    orbit_with_digits,
)

__all__ = [
    "ParryDensity",
    "FourierCoefficient",
    "preimage_of_interval",
]

_ONE = Enclosure(Fraction(1), Fraction(1), exact=Fraction(1))


@dataclass(frozen=True)
class FourierCoefficient:
    """Value with a certified error radius (truncation + enclosure widths)."""

    value: complex
    err: float


def _cmp_point(x: Fraction, r: Enclosure) -> int:
    """-1 if x < r certified, +1 if x >= r certified, 0 if unresolved."""
    if x < r.lo:
        return -1
    if x >= r.hi:
        return 1
    if r.exact is not None:
        return -1 if x < r.exact else 1
    return 0


class ParryDensity:
    """Truncated density series with a lazily grown certified orbit prefix.

    The orbit prefix r_0 = 1, r_1 = {b}, ... is recomputed from scratch when a
    finer tolerance needs more terms; for simple bases the series is finite
    and evaluation becomes exact (tail identically zero past the hit).
    """

    def __init__(self, base: BetaNumber):
        self.base = base
        self.digits_required = 13  # doubled by _resolve_cmp when a probe needs it
        self._orbit: list[Enclosure] = [_ONE]
        self._z: dict[float, tuple[Fraction, Fraction]] = {}  # normalizer by tol
        self._zero_from: int | None = None  # least n with r_n certified 0
        self._pow_lo: list[Fraction] = [Fraction(1)]  # b^n lower bounds
        self._pow_hi: list[Fraction] = [Fraction(1)]

    # -- series bookkeeping -------------------------------------------------

    def _set_orbit(self, pts: list[Enclosure]) -> None:
        # a recomputed prefix changes earlier enclosures, so Z is summed again
        self._z.clear()
        self._orbit = [_ONE] + list(pts)
        for i, p in enumerate(self._orbit):
            if p.is_certified_zero():
                self._zero_from = i
                self._orbit = self._orbit[: i + 1]
                break

    def _extend(self, n_terms: int) -> None:
        """Grow the prefix to cover r_0 .. r_{n_terms-1}."""
        if self._zero_from is not None:
            return
        if len(self._orbit) >= n_terms:
            return
        pts, _, _ = orbit_with_digits(
            self.base, Fraction(1), n_terms - 1, digits_required=self.digits_required
        )
        self._set_orbit(pts)

    def _powers(self, n: int) -> None:
        while len(self._pow_lo) <= n:
            self._pow_lo.append(self._pow_lo[-1] * self.base.lo)
            self._pow_hi.append(self._pow_hi[-1] * self.base.hi)

    def _weight(self, n: int) -> tuple[Fraction, Fraction]:
        """Interval for b^(-n)."""
        self._powers(n)
        return 1 / self._pow_hi[n], 1 / self._pow_lo[n]

    def tail_bound(self, n_terms: int) -> Fraction:
        """Bound on sum_{n >= n_terms} b^(-n), i.e. everything past the prefix."""
        if self._zero_from is not None and n_terms > self._zero_from:
            return Fraction(0)
        w_lo, w_hi = self._weight(n_terms)
        return w_hi * self.base.hi / (self.base.lo - 1)

    def terms_for(self, tol: Fraction) -> int:
        """Smallest usable prefix length with tail_bound <= tol."""
        b_lo = float(self.base.lo)
        t = max(float(tol), 1e-300)
        n = max(1, math.ceil(math.log(1.0 / (t * (b_lo - 1))) / math.log(b_lo)) + 2)
        while self.tail_bound(n) > tol:
            n += max(4, n // 2)
        if self._zero_from is not None:
            n = min(n, self._zero_from + 1)
        return n

    def prefix(self, n_terms: int) -> list[Enclosure]:
        self._extend(n_terms)
        return self._orbit[:n_terms]

    # -- evaluation -----------------------------------------------------------

    def _resolve_cmp(self, x: Fraction, n: int) -> int:
        """Certified comparison of x against r_n, refining the orbit prefix
        while r_n's enclosure holds x and carries no exact value."""
        while True:
            c = _cmp_point(x, self._orbit[n])
            if c != 0:
                return c
            if self.digits_required >= 400:
                raise PrecisionExhausted(f"probe x = {x} sits on orbit point r_{n}")
            self.digits_required *= 2
            pts, _, _ = orbit_with_digits(
                self.base,
                Fraction(1),
                max(len(self._orbit) - 1, n, 1),
                digits_required=self.digits_required,
            )
            self._set_orbit(pts)
            if n >= len(self._orbit):
                # refinement certified an earlier zero, so r_n = 0 <= x
                return 1

    def density_at(self, x, tol: float = 1e-9) -> tuple[Fraction, Fraction]:
        """Interval of width <= tol around the unnormalized density f(x)."""
        x = Fraction(x)
        if not 0 <= x < 1:
            raise ValueError("density probes live in [0, 1)")
        if tol <= 0:
            raise ValueError("tol must be positive")
        target = Fraction(tol) / 2
        n_terms = self.terms_for(target)
        self._extend(n_terms + 1)
        n_terms = min(n_terms, len(self._orbit))
        s_lo = Fraction(0)
        s_hi = Fraction(0)
        for n in range(n_terms):
            if self._resolve_cmp(x, n) < 0:
                w_lo, w_hi = self._weight(n)
                s_lo += w_lo
                s_hi += w_hi
        s_hi += self.tail_bound(n_terms)
        return s_lo, s_hi

    def normalizer(self, tol: float = 1e-9) -> tuple[Fraction, Fraction]:
        """Interval of width <= tol around Z = sum b^(-n) T^n(1)."""
        if tol <= 0:
            raise ValueError("tol must be positive")
        if tol not in self._z:
            target = Fraction(tol) / 2
            n_terms = self.terms_for(target)
            pre = self.prefix(n_terms)
            z_lo = Fraction(0)
            z_hi = Fraction(0)
            for n, r in enumerate(pre):
                w_lo, w_hi = self._weight(n)
                z_lo += w_lo * r.lo
                z_hi += w_hi * r.hi
            z_hi += self.tail_bound(len(pre))
            self._z[tol] = (z_lo, z_hi)
        return self._z[tol]

    def interval_mass(self, u, v, tol: float = 1e-9) -> tuple[Fraction, Fraction]:
        """Normalized mass of [u, v): (1/Z) sum_n b^(-n) |[u,v) cap [0,r_n)|."""
        u, v = Fraction(u), Fraction(v)
        if not 0 <= u < v <= 1:
            raise ValueError("need 0 <= u < v <= 1")
        if tol <= 0:
            raise ValueError("tol must be positive")
        target = Fraction(tol) / 4
        n_terms = self.terms_for(target)
        pre = self.prefix(n_terms)
        m_lo = Fraction(0)
        m_hi = Fraction(0)
        for n, r in enumerate(pre):
            w_lo, w_hi = self._weight(n)
            c_lo = max(Fraction(0), min(v, r.lo) - u)
            c_hi = max(Fraction(0), min(v, r.hi) - u)
            m_lo += w_lo * c_lo
            m_hi += w_hi * c_hi
        m_hi += self.tail_bound(len(pre)) * (v - u)
        z_lo, z_hi = self.normalizer(tol=float(target))
        return m_lo / z_hi, m_hi / z_lo

    def fourier(self, m: int, tol: float = 1e-9) -> FourierCoefficient:
        """Coefficient int e(mx) dmu(x) from the closed form
        (1/Z) sum_n b^(-n) (e(m r_n) - 1) / (2 pi i m);  m = 0 gives exactly 1.
        """
        if m == 0:
            return FourierCoefficient(complex(1.0), 0.0)
        if tol <= 0:
            raise ValueError("tol must be positive")
        target = Fraction(tol) * abs(m) / 4
        n_terms = self.terms_for(target)
        pre = self.prefix(n_terms)
        two_pi_im = 2j * math.pi * m
        s = 0.0 + 0.0j
        width_err = 0.0
        for n, r in enumerate(pre):
            w_lo, w_hi = self._weight(n)
            w_mid = float((w_lo + w_hi) / 2)
            rn = float(r.midpoint())
            s += w_mid * (cmath.exp(two_pi_im * rn) - 1.0) / two_pi_im
            # |d/dr (e(mr)-1)/(2 pi i m)| = 1, so enclosure width passes straight through
            width_err += w_mid * float(r.width) + float(w_hi - w_lo) / (math.pi * abs(m))
        tail = float(self.tail_bound(len(pre))) / (math.pi * abs(m))
        z_lo, z_hi = self.normalizer(tol=1e-12)
        z = float((z_lo + z_hi) / 2)
        err = (abs(s) * float(z_hi - z_lo) / float(z_lo) ** 2
               + (tail + width_err + 1e-13 * len(pre)) / float(z_lo))
        return FourierCoefficient(s / z, err)

    # -- sampling and export ----------------------------------------------------

    def _knots(self, tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
        """Piecewise-linear normalized CDF: knot abscissae and F values."""
        n_terms = self.terms_for(Fraction(tol))
        pre = self.prefix(n_terms)
        rs = sorted({float(r.midpoint()) for r in pre} | {0.0, 1.0})
        xs = np.array([r for r in rs if 0.0 <= r <= 1.0])
        w_mid = np.array([float(sum(self._weight(n)) / 2) for n in range(len(pre))])
        r_mid = np.array([float(r.midpoint()) for r in pre])
        heights = np.array([
            float(w_mid[r_mid > 0.5 * (xs[j] + xs[j + 1])].sum())
            for j in range(len(xs) - 1)
        ])
        cdf = np.concatenate([[0.0], np.cumsum(heights * np.diff(xs))])
        cdf /= cdf[-1]
        return xs, cdf

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n i.i.d. draws by inversion of the piecewise-linear CDF."""
        if n < 1:
            raise ValueError("need n >= 1 samples")
        xs, cdf = self._knots()
        u = np.random.default_rng(seed).random(n)
        return np.interp(u, cdf, xs)

    def grid_rows(self, grid_n: int = 512, tol: float = 1e-10) -> list[tuple[float, float, float]]:
        """(x, f(x)/Z, F(x)) rows on a uniform grid, for CSV export."""
        z_lo, z_hi = self.normalizer(tol=tol)
        z = float((z_lo + z_hi) / 2)
        rows = []
        for i in range(grid_n + 1):
            x = Fraction(i, grid_n)
            if x == 1:
                rows.append((1.0, rows[-1][1] if rows else 1.0, 1.0))
                break
            f_lo, f_hi = self.density_at(x, tol=tol)
            cf = self.interval_mass(Fraction(0), x, tol=tol) if x > 0 else (Fraction(0), Fraction(0))
            rows.append((float(x), float((f_lo + f_hi) / 2) / z, float(sum(cf) / 2)))
        return rows


def preimage_of_interval(b: BetaNumber, u, v) -> list[tuple[Fraction, Fraction]]:
    """T^(-1)[u, v) as the finite union of branch preimages
    [(k+u)/b, (k+v)/b) cap [0, 1), one per digit branch k.
    """
    u, v = Fraction(u), Fraction(v)
    if not 0 <= u < v <= 1:
        raise ValueError("need 0 <= u < v <= 1")
    b_lo, b_hi = b.bounds(192)
    b_mid = (b_lo + b_hi) / 2
    out = []
    for k in range(b.ceil_b):
        lo = (k + u) / b_mid
        hi = (k + v) / b_mid
        lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
        if lo < hi:
            out.append((lo, hi))
    return out
