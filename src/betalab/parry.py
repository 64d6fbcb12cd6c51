"""The absolutely continuous invariant measure of x -> b*x mod 1.

Density series f(x) = sum over n >= 0 with x < T^n(1) of b^(-n), convention
T^0(1) = 1 so the n = 0 term always fires (the stated bounds 1 - 1/b <= f <=
1/(1 - 1/b) force that reading).  density_at evaluates the unnormalized f;
every measure-semantic operation divides by Z = sum b^(-n) T^n(1).  Endpoint
comparisons x < r_n are certified: an orbit point with an exact value compares
exactly; otherwise the orbit is refined, giving up with PrecisionExhausted when
x sits on an r_n below resolution.

Probes are evaluated in one sorted sweep.  f(x) is the sum of the weights
b^(-n) with x < r_n, and the unnormalized CDF M(x) = sum b^(-n) min(x, r_n)
equals P + x*Q, with P the sum of b^(-n) r_n over r_n <= x and Q the sum of
b^(-n) over r_n > x; all of them change only where a probe passes an orbit
point.  So each term is added once per sweep in exact Fraction arithmetic,
not once per probe, and each CDF row is one correctly rounded int / int
division.  On b = 2.2 at tol 1e-10 (34 terms) a 512-point grid takes about
0.2 s instead of 8 s row by row (one core of a 2-vCPU VM, Python 3.11).  density_at is the sweep at one
probe and interval_mass(u, v) is M(v) - M(u) over Z, from the same kernel.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
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


def _share(tol: float, parts: int) -> Fraction:
    """The exact tolerance tol / parts; tol must be positive."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    return Fraction(tol) / parts


def _sweep(terms: list[tuple], n_probes: int) -> list[tuple]:
    """Lower and upper sums over sorted probes, split where they change.

    A term (cut, j, q, p) adds q to sum j's Q at the probes i < cut and p to
    its P at the probes i >= cut (j = 0 lower, 1 upper).  Returns pieces
    (start, stop, (Q_0, P_0), (Q_1, P_1)) covering probes 0 .. n_probes-1 in
    order, each sum constant on start <= i < stop.  Q is summed from the
    right and P from the left, so every q and p is added once, and only
    where it counts.
    """
    at: dict[int, list[tuple]] = {}
    for term in terms:
        at.setdefault(term[0], []).append(term)
    starts = sorted({0} | {cut for cut in at if cut < n_probes})
    stops = starts[1:] + [n_probes]
    q = [Fraction(0), Fraction(0)]
    q_at = {}
    for stop in reversed(stops):
        for _, j, q_j, _ in at.get(stop, ()):
            q[j] += q_j
        q_at[stop] = tuple(q)
    p = [Fraction(0), Fraction(0)]
    pieces = []
    for start, stop in zip(starts, stops):
        for _, j, _, p_j in at.get(start, ()):
            p[j] += p_j
        pieces.append((start, stop, (q_at[stop][0], p[0]), (q_at[stop][1], p[1])))
    return pieces


def _per_probe(pieces: list[tuple]) -> list[tuple]:
    """The (lower, upper) sums of a sweep at each probe."""
    return [sums for start, stop, *sums in pieces for _ in range(start, stop)]


def _min_sum(sums: tuple[Fraction, Fraction], x: Fraction) -> Fraction:
    """sum_n w_n min(x, r_n) from a mass sweep's (Q, P) at x."""
    q, p = sums
    return p + x * q


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

    def _density_terms(self, tol: float) -> int:
        n_terms = self.terms_for(_share(tol, 2))
        self._extend(n_terms + 1)
        return min(n_terms, len(self._orbit))

    def _mass_terms(self, tol: float) -> tuple[int, float]:
        """Terms of the mass sums at tol, and the tolerance of their
        normalizer.  The prefix is grown for both at once, so that the sums
        and Z read the same prefix."""
        target = _share(tol, 4)
        z_tol = float(target)
        n_terms = self.terms_for(target)
        self._extend(max(n_terms, self.terms_for(_share(z_tol, 2))))
        return n_terms, z_tol

    def _density_sweep(self, xs: list[Fraction], n_terms: int) -> list[tuple]:
        """Sweep pieces (start, stop, (f_lo, _), (f_hi, _)) of the density
        over the sorted probes xs.

        Every comparison x < r_n is certified before anything is summed: a
        probe inside r_n's enclosure refines the prefix, which replaces it.
        """
        terms = []
        for n in range(n_terms):
            if n >= len(self._orbit):
                break  # a refinement certified an earlier zero
            r = self._orbit[n]
            k = bisect_left(xs, r.lo)
            for x in xs[k:bisect_left(xs, r.hi)]:
                if self._resolve_cmp(x, n) > 0:
                    break
                k += 1
            w_lo, w_hi = self._weight(n)
            terms += [(k, 0, w_lo, 0), (k, 1, w_hi, 0)]
        terms.append((len(xs), 1, self.tail_bound(n_terms), 0))
        return _sweep(terms, len(xs))

    def _mass_sweep(self, xs: list[Fraction], n_terms: int) -> list[tuple]:
        """Sweep pieces (start, stop, (Q_lo, P_lo), (Q_hi, P_hi)) over the
        sorted probes xs of M(x) = sum_n b^(-n) min(x, r_n) = P + x*Q, with
        r_n's lower (upper) end and weight in the lower (upper) sum; the
        upper sum also carries x * tail_bound."""
        pre = self._orbit[:n_terms]
        terms = []
        for n, r in enumerate(pre):
            w_lo, w_hi = self._weight(n)
            lo, hi = max(r.lo, 0), max(r.hi, 0)
            terms += [(bisect_left(xs, lo), 0, w_lo, w_lo * lo),
                      (bisect_left(xs, hi), 1, w_hi, w_hi * hi)]
        terms.append((len(xs), 1, self.tail_bound(len(pre)), 0))
        return _sweep(terms, len(xs))

    def density_at(self, x, tol: float = 1e-9) -> tuple[Fraction, Fraction]:
        """Interval of width <= tol around the unnormalized density f(x)."""
        x = Fraction(x)
        if not 0 <= x < 1:
            raise ValueError("density probes live in [0, 1)")
        [((f_lo, _), (f_hi, _))] = _per_probe(self._density_sweep([x], self._density_terms(tol)))
        return f_lo, f_hi

    def normalizer(self, tol: float = 1e-9) -> tuple[Fraction, Fraction]:
        """Interval of width <= tol around Z = sum b^(-n) T^n(1)."""
        target = _share(tol, 2)
        if tol not in self._z:
            pre = self.prefix(self.terms_for(target))
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
        """Normalized mass of [u, v): (1/Z) sum_n b^(-n) |[u,v) cap [0,r_n)|,
        which is (M(v) - M(u)) / Z."""
        u, v = Fraction(u), Fraction(v)
        if not 0 <= u < v <= 1:
            raise ValueError("need 0 <= u < v <= 1")
        n_terms, z_tol = self._mass_terms(tol)
        (lo_u, hi_u), (lo_v, hi_v) = _per_probe(self._mass_sweep([u, v], n_terms))
        m_lo = _min_sum(lo_v, v) - _min_sum(lo_u, u)
        m_hi = _min_sum(hi_v, v) - _min_sum(hi_u, u)
        z_lo, z_hi = self.normalizer(tol=z_tol)
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

    def _cdf_column(self, xs: list[Fraction], n_terms: int, z_tol: float) -> list[float]:
        """F(x) = (M_lo(x)/Z_hi + M_hi(x)/Z_lo)/2 at the grid xs = [i/g].

        Between orbit points F(i/g) = (A + i/g C)/2 with A and C constant,
        so each row is (n0 + i*n1)/d in integers: one correctly rounded
        division, the float of the exact Fraction interval_mass(0, x) gives.
        """
        g = len(xs)
        z_lo, z_hi = self.normalizer(tol=z_tol)

        def over_z(s_lo, s_hi):  # s_lo/z_hi + s_hi/z_lo as an unreduced (num, den)
            n1, d1 = s_lo.numerator * z_hi.denominator, s_lo.denominator * z_hi.numerator
            n2, d2 = s_hi.numerator * z_lo.denominator, s_hi.denominator * z_lo.numerator
            return n1 * d2 + n2 * d1, d1 * d2

        column = []
        for start, stop, (q_lo, p_lo), (q_hi, p_hi) in self._mass_sweep(xs, n_terms):
            a_num, a_den = over_z(p_lo, p_hi)
            c_num, c_den = over_z(q_lo, q_hi)
            n0, n1, d = g * a_num * c_den, c_num * a_den, 2 * g * a_den * c_den
            column += [(n0 + i * n1) / d for i in range(start, stop)]
        return column

    def grid_rows(self, grid_n: int = 512, tol: float = 1e-10) -> list[tuple[float, float, float]]:
        """(x, f(x)/Z, F(x)) rows on a uniform grid, for CSV export.

        One sweep of the sorted grid: the sums behind f and F change only
        where a grid point passes an orbit point, so each term is summed once
        per grid, not once per row.
        """
        if grid_n < 1:
            raise ValueError("need grid_n >= 1")
        xs = [Fraction(i, grid_n) for i in range(grid_n)]  # the row x = 1 closes the grid
        if grid_n > 1:
            n_mass, z_tol = self._mass_terms(tol)  # grown before any sum is taken
        density = self._density_sweep(xs, self._density_terms(tol))
        z_lo, z_hi = self.normalizer(tol=tol)
        z = float((z_lo + z_hi) / 2)
        f_col = []
        for start, stop, (f_lo, _), (f_hi, _) in density:
            f_col += [float((f_lo + f_hi) / 2) / z] * (stop - start)
        cdf_col = self._cdf_column(xs, n_mass, z_tol) if grid_n > 1 else [0.0]
        rows = [(i / grid_n, f, c) for i, (f, c) in enumerate(zip(f_col, cdf_col))]
        rows.append((1.0, rows[-1][1], 1.0))
        return rows


def preimage_of_interval(b: BetaNumber, u, v) -> list[tuple[Fraction, Fraction]]:
    """T^(-1)[u, v) as the finite union of branch preimages
    [(k+u)/b, (k+v)/b) cap [0, 1), one per digit branch k.

    Each piece is rounded outward from a 192-bit enclosure [b_lo, b_hi] of b,
    to [(k+u)/b_hi, (k+v)/b_lo), so it contains the true branch preimage.
    """
    u, v = Fraction(u), Fraction(v)
    if not 0 <= u < v <= 1:
        raise ValueError("need 0 <= u < v <= 1")
    b_lo, b_hi = b.bounds(192)
    out = []
    for k in range(b.ceil_b):
        lo = (k + u) / b_hi
        hi = (k + v) / b_lo
        lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
        if lo < hi:
            out.append((lo, hi))
    return out
