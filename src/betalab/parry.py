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
point.  So each term is added once per sweep, not once per probe.  The terms
of each side (lower, upper) are integer numerators over one denominator,
built from b's dyadic bound and the dyadic orbit enclosures, so no addition
pays for a gcd; a Fraction is formed only for a value handed back, and each
grid row is one correctly rounded int / int division of the exact value.
On b = 2.2 at tol 1e-10 (34 terms) a 512-point grid takes about 0.02 s (one
core of a 2-vCPU VM, Python 3.11).  density_at is the sweep at one probe,
interval_mass(u, v) is M(v) - M(u) over Z, and the normalizer Z sums the
same integer terms.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .precision import (
    BetaNumber,
    Enclosure,
    PrecisionExhausted,
    orbit_with_digits,
)

_ONE = Enclosure(Fraction(1), Fraction(1), exact=Fraction(1))

# width of the normalizer `ParryDensity.fourier` divides by, whatever the
# density's own tol
FOURIER_Z_TOL = 1e-12


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


def _mid_width(lo: Fraction, hi: Fraction) -> tuple[float, float]:
    """The floats of (lo + hi)/2 and hi - lo, each one correctly rounded
    division of integer cross products, with no gcd."""
    a, c = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    d = lo.denominator * hi.denominator
    return (a + c) / (2 * d), (c - a) / d


def _dyadic(x: Fraction) -> tuple[int, int]:
    """(m, k) with x = m / 2^k; b's bounds and the orbit enclosures are dyadic."""
    k = x.denominator.bit_length() - 1
    if x.denominator != 1 << k:
        raise ValueError(f"{x} is not dyadic")
    return x.numerator, k


class _Side:
    """One side of the Parry sums as integer numerators over one denominator.

    Term n < n_terms is b^(-n) and, given ends, b^(-n) * ends[n].  With b's
    bound a / 2^e, b^(-n) = 2^(en) a^(N-1-n) / a^(N-1); the dyadic ends
    m_n / 2^k_n share 2^k, k = max k_n; the tail's denominator widens D once.
    So every numerator is a shift of one running product, and no sum pays
    for a gcd.
    """

    def __init__(self, bound: Fraction, n_terms: int, ends=None, tail=Fraction(0)):
        self.a, self.e = _dyadic(bound)
        self.n_terms = n_terms
        self.ends = None if ends is None else [_dyadic(x) for x in ends]
        self.k = max((k for _, k in self.ends or ()), default=0)
        base = self.a ** max(n_terms - 1, 0) << self.k
        self.den = math.lcm(base, tail.denominator)
        self.widen = self.den // base
        self.tail = tail.numerator * (self.den // tail.denominator)

    def numerators(self, scale: int = 1):
        """(n, b^(-n) * den * scale, b^(-n) * ends[n] * den * scale) for
        n = n_terms-1 down to 0."""
        t = scale * self.widen  # den * scale * b^(-n) / 2^(en + k)
        for n in reversed(range(self.n_terms)):
            shift = self.e * n + self.k
            p = 0
            if self.ends:
                m, k = self.ends[n]
                p = t * m << (shift - k)
            yield n, t << shift, p
            t *= self.a


class _Sweep(NamedTuple):
    """Lower (j = 0) and upper (j = 1) sums over n_probes sorted probes.

    Side j's term n adds its weight to Q at the probes i < cuts[j][n] and its
    weight times end to P at the probes i >= cuts[j][n]; the tail adds to Q
    at every probe.
    """

    sides: tuple[_Side, _Side]
    cuts: tuple[list[int], list[int]]
    n_probes: int

    def pieces(self, scales: tuple[int, int]):
        """Pieces (start, stop, Q, P) covering the probes in order, each sum
        constant on start <= i < stop: the lower sum times den_lo * scales[0]
        plus the upper sum times den_hi * scales[1].  Terms are added into
        one bucket per cut as they are made, and Q is the total less the
        buckets passed, so every term is added once and the buckets, not the
        terms, are held.
        """
        at: dict[int, list[int]] = {}
        q = 0
        for side, cuts, scale in zip(self.sides, self.cuts, scales):
            q += side.tail * scale
            for n, q_n, p_n in side.numerators(scale):
                bucket = at.setdefault(cuts[n], [0, 0])
                bucket[0] += q_n
                bucket[1] += p_n
                q += q_n
        starts = sorted({0} | {cut for cut in at if cut < self.n_probes})
        p = 0
        for start, stop in zip(starts, starts[1:] + [self.n_probes]):
            q_cut, p_cut = at.get(start, (0, 0))
            q -= q_cut
            p += p_cut
            yield start, stop, q, p


def _per_probe(sweep: _Sweep) -> list[tuple]:
    """The lower and upper sums ((Q_lo, P_lo), (Q_hi, P_hi)) of a sweep at
    each probe, as Fractions."""
    sides = [[(Fraction(q, side.den), Fraction(p, side.den))
              for start, stop, q, p in sweep.pieces(scales) for _ in range(start, stop)]
             for side, scales in zip(sweep.sides, ((1, 0), (0, 1)))]
    return list(zip(*sides))


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


def estimated_terms(b: BetaNumber, tol) -> float:
    """Prefix length at which the tail bound b^(-n)/(b - 1) reaches tol, in
    floats from b's lower bound, plus 2: where `terms_for` starts its search.
    inf when that bound rounds to 1 as a float."""
    b_lo = float(b.lo)
    if b_lo <= 1.0:
        return math.inf
    t = max(float(tol), 1e-300)
    return max(1, math.ceil(math.log(1.0 / (t * (b_lo - 1))) / math.log(b_lo)) + 2)


class ParryDensity:
    """Truncated density series summed to one tolerance over a certified
    orbit prefix.

    Each sum reads its own share of tol: density_at and normalizer tol/2,
    interval_mass and the grid's CDF tol/4 over a normalizer summed to tol/8,
    fourier(m) tol*|m|/4 and the sampler's CDF knots tol.  The prefix
    r_0 = 1, r_1 = {b}, ... is computed in the constructor, long enough for
    all of them.  It is computed again, from scratch, in two cases only: a
    probe inside an orbit point's enclosure refines it at doubled precision
    (`_resolve_cmp`), and fourier's normalizer, summed to FOURIER_Z_TOL/2
    whatever tol is, may need more terms.  For simple bases the series is
    finite and evaluation becomes exact (tail identically zero past the hit).
    """

    def __init__(self, base: BetaNumber, tol: float):
        self.base = base
        self.tol = tol
        self.digits_required = 13  # doubled by _resolve_cmp when a probe needs it
        self._zero_from: int | None = None  # least n with r_n certified 0
        self._tails: dict[int, Fraction] = {}  # tail_bound by prefix length; b alone fixes it
        self._compute_orbit(max(self.terms_for(_share(tol, 8)) - 1, 1))  # the engine takes >= 1 step

    # -- series bookkeeping -------------------------------------------------

    def _compute_orbit(self, n_steps: int) -> None:
        """Compute r_1 .. r_n_steps at self.digits_required."""
        pts, _, _ = orbit_with_digits(
            self.base, Fraction(1), n_steps, digits_required=self.digits_required
        )
        # new enclosures: Z and the per-term floats are summed again
        self._z: dict[Fraction, tuple[Fraction, Fraction]] = {}  # normalizer by width
        self._floats: list[tuple[float, float, float, float]] = []  # see _term_floats
        self._orbit = [_ONE] + pts
        for i, p in enumerate(self._orbit):
            if p.is_certified_zero():
                self._zero_from = i
                self._orbit = self._orbit[: i + 1]
                break

    def tail_bound(self, n_terms: int) -> Fraction:
        """Bound b_hi / (b_lo^n (b_lo - 1)) on sum_{n >= n_terms} b^(-n),
        i.e. everything past the prefix."""
        if self._zero_from is not None and n_terms > self._zero_from:
            return Fraction(0)
        if n_terms not in self._tails:
            b_lo = self.base.lo
            self._tails[n_terms] = self.base.hi / (b_lo**n_terms * (b_lo - 1))
        return self._tails[n_terms]

    def terms_for(self, tol: Fraction) -> int:
        """Smallest usable prefix length with tail_bound <= tol."""
        n = estimated_terms(self.base, tol)
        if n == math.inf:
            raise ValueError(f"base {self.base} is too close to 1 for a Parry series")
        while self.tail_bound(n) > tol:
            n += max(4, n // 2)
        if self._zero_from is not None:
            n = min(n, self._zero_from + 1)
        return n

    def prefix(self, n_terms: int) -> list[Enclosure]:
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
            self._compute_orbit(max(len(self._orbit) - 1, n, 1))
            if n >= len(self._orbit):
                # refinement certified an earlier zero, so r_n = 0 <= x
                return 1

    def _sides(self, n_terms: int, ends=(None, None), tail=Fraction(0)) -> tuple[_Side, _Side]:
        """The lower sum weighs by 1/b_hi^n and the upper by 1/b_lo^n; only
        the upper sum carries the tail."""
        return (_Side(self.base.hi, n_terms, ends[0]),
                _Side(self.base.lo, n_terms, ends[1], tail))

    def _density_sweep(self, xs: list[Fraction]) -> _Sweep:
        """The density's sweep over the sorted probes xs, summed to tol/2:
        Q_lo and Q_hi are f's bounds, P is 0.

        Every comparison x < r_n is certified before anything is summed: a
        probe inside r_n's enclosure refines the prefix, which replaces it.
        """
        n_terms = min(self.terms_for(_share(self.tol, 2)), len(self._orbit))
        cuts = []
        for n in range(n_terms):
            if n >= len(self._orbit):
                break  # a refinement certified an earlier zero
            r = self._orbit[n]
            k = bisect_left(xs, r.lo)
            for x in xs[k:bisect_left(xs, r.hi)]:
                if self._resolve_cmp(x, n) > 0:
                    break
                k += 1
            cuts.append(k)
        return _Sweep(self._sides(len(cuts), tail=self.tail_bound(n_terms)), (cuts, cuts), len(xs))

    def _mass_sweep(self, xs: list[Fraction]) -> _Sweep:
        """The sweep over the sorted probes xs of M(x) = sum_n b^(-n)
        min(x, r_n) = P + x*Q, summed to tol/4, with r_n's lower (upper) end
        and weight in the lower (upper) sum; the upper sum also carries
        x * tail_bound."""
        pre = self._orbit[: self.terms_for(_share(self.tol, 4))]
        ends = ([max(r.lo, 0) for r in pre], [max(r.hi, 0) for r in pre])
        cuts = tuple([bisect_left(xs, x) for x in side] for side in ends)
        return _Sweep(self._sides(len(pre), ends, self.tail_bound(len(pre))), cuts, len(xs))

    def density_at(self, x) -> tuple[Fraction, Fraction]:
        """Interval of width <= tol around the unnormalized density f(x)."""
        x = Fraction(x)
        if not 0 <= x < 1:
            raise ValueError("density probes live in [0, 1)")
        [((f_lo, _), (f_hi, _))] = _per_probe(self._density_sweep([x]))
        return f_lo, f_hi

    def normalizer(self) -> tuple[Fraction, Fraction]:
        """Interval of width <= tol around Z = sum b^(-n) T^n(1)."""
        return self._normalizer(Fraction(self.tol))

    def _normalizer(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """Interval of width <= width around Z, each computed once per prefix.
        A width finer than tol/4 (fourier's) may need a longer prefix, which
        replaces the one every sum read so far."""
        n_terms = self.terms_for(width / 2)
        if n_terms > len(self._orbit) and self._zero_from is None:
            self._compute_orbit(n_terms - 1)
        if width not in self._z:
            pre = self._orbit[:n_terms]
            ends = ([r.lo for r in pre], [r.hi for r in pre])
            self._z[width] = tuple(
                Fraction(sum(p for _, _, p in side.numerators()) + side.tail, side.den)
                for side in self._sides(len(pre), ends, self.tail_bound(len(pre))))
        return self._z[width]

    def interval_mass(self, u, v) -> tuple[Fraction, Fraction]:
        """Normalized mass of [u, v): (1/Z) sum_n b^(-n) |[u,v) cap [0,r_n)|,
        which is (M(v) - M(u)) / Z."""
        u, v = Fraction(u), Fraction(v)
        if not 0 <= u < v <= 1:
            raise ValueError("need 0 <= u < v <= 1")
        (lo_u, hi_u), (lo_v, hi_v) = _per_probe(self._mass_sweep([u, v]))
        m_lo = _min_sum(lo_v, v) - _min_sum(lo_u, u)
        m_hi = _min_sum(hi_v, v) - _min_sum(hi_u, u)
        z_lo, z_hi = self._normalizer(_share(self.tol, 4))
        return m_lo / z_hi, m_hi / z_lo

    def fourier(self, m: int) -> FourierCoefficient:
        """Coefficient int e(mx) dmu(x) from the closed form
        (1/Z) sum_n b^(-n) (e(m r_n) - 1) / (2 pi i m);  m = 0 gives exactly 1.
        """
        if m == 0:
            return FourierCoefficient(complex(1.0), 0.0)
        terms = self._term_floats()[: self.terms_for(_share(self.tol, 4) * abs(m))]
        two_pi_im = 2j * math.pi * m
        s = 0.0 + 0.0j
        width_err = 0.0
        for w_mid, rn, width, w_width in terms:
            s += w_mid * (cmath.exp(two_pi_im * rn) - 1.0) / two_pi_im
            # |d/dr (e(mr)-1)/(2 pi i m)| = 1, so enclosure width passes straight through
            width_err += w_mid * width + w_width / (math.pi * abs(m))
        tail = float(self.tail_bound(len(terms))) / (math.pi * abs(m))
        z_lo, z_hi = self._normalizer(Fraction(FOURIER_Z_TOL))
        z, z_width = _mid_width(z_lo, z_hi)
        err = (abs(s) * z_width / float(z_lo) ** 2
               + (tail + width_err + 1e-13 * len(terms)) / float(z_lo))
        return FourierCoefficient(s / z, err)

    def _term_floats(self) -> list[tuple[float, float, float, float]]:
        """Per term n of the prefix, the floats of (w_lo + w_hi)/2, r_n, r_n's
        width and w_hi - w_lo, w = b^(-n); each is one correctly rounded
        division of a value that does not depend on the prefix's length, and
        is computed once per prefix."""
        if not self._floats:
            lo, hi = self._sides(len(self._orbit))
            d = lo.den * hi.den
            for (n, w_lo, _), (_, w_hi, _) in zip(lo.numerators(hi.den), hi.numerators(lo.den)):
                r_mid, r_width = _mid_width(self._orbit[n].lo, self._orbit[n].hi)
                self._floats.append(((w_lo + w_hi) / (2 * d), r_mid, r_width, (w_hi - w_lo) / d))
            self._floats.reverse()
        return self._floats

    # -- sampling and export ----------------------------------------------------

    def _knots(self) -> tuple[np.ndarray, np.ndarray]:
        """Piecewise-linear normalized CDF summed to tol: knot abscissae and
        F values."""
        floats = self._term_floats()[: self.terms_for(Fraction(self.tol))]
        rs = sorted({r for _, r, _, _ in floats} | {0.0, 1.0})
        xs = np.array([r for r in rs if 0.0 <= r <= 1.0])
        w_mid = np.array([w for w, _, _, _ in floats])
        r_mid = np.array([r for _, r, _, _ in floats])
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

    def _cdf_column(self, xs: list[Fraction]) -> list[float]:
        """F(x) = (M_lo(x)/Z_hi + M_hi(x)/Z_lo)/2 at the grid xs = [i/g].

        With M_j = (P_j + x Q_j) / D_j, F(i/g) has the denominator
        E = 2g D_lo D_hi num(Z_lo) num(Z_hi) on every piece, so the sweep sums
        the lower (upper) terms times K_lo = den(Z_hi) D_hi num(Z_lo)
        (K_hi = den(Z_lo) D_lo num(Z_hi)) and each row is (n0 + i*n1) / E in
        integers: one correctly rounded division, the float of the exact
        Fraction interval_mass(0, x) gives.
        """
        g = len(xs)
        z_lo, z_hi = self._normalizer(_share(self.tol, 4))
        sweep = self._mass_sweep(xs)
        d_lo, d_hi = (side.den for side in sweep.sides)
        k_lo = z_hi.denominator * d_hi * z_lo.numerator
        k_hi = z_lo.denominator * d_lo * z_hi.numerator
        e = 2 * g * d_lo * d_hi * z_lo.numerator * z_hi.numerator
        column = []
        for start, stop, n1, p in sweep.pieces((k_lo, k_hi)):
            n0 = g * p
            column += [(n0 + i * n1) / e for i in range(start, stop)]
        return column

    def grid_rows(self, grid_n: int = 512) -> list[tuple[float, float, float]]:
        """(x, f(x)/Z, F(x)) rows on a uniform grid, for CSV export.

        One sweep of the sorted grid: the sums behind f and F change only
        where a grid point passes an orbit point, so each term is summed once
        per grid, not once per row.
        """
        if grid_n < 1:
            raise ValueError("need grid_n >= 1")
        xs = [Fraction(i, grid_n) for i in range(grid_n)]  # the row x = 1 closes the grid
        density = self._density_sweep(xs)
        z, _ = _mid_width(*self.normalizer())
        d_lo, d_hi = (side.den for side in density.sides)
        two_d = 2 * d_lo * d_hi
        f_col = []  # float((f_lo + f_hi)/2) / z, with f_lo + f_hi over D_lo D_hi
        for start, stop, f_sum, _ in density.pieces((d_hi, d_lo)):
            f_col += [f_sum / two_d / z] * (stop - start)
        cdf_col = self._cdf_column(xs) if grid_n > 1 else [0.0]
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
