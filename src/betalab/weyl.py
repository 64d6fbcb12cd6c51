"""Weyl sums along certified orbits and the decay experiments built on them.

S_N(m) = (1/N) sum_{i<N} e(m T^i x0) with orbit points accurate to 1e-9, so
phase errors stay below ~1e-5 even at |m| ~ 1000.  The limsup over N that the
mean-decay statements speak about is not computable; the proxy used
everywhere is max |S_N'(m)| over the tail checkpoints {N/4, N/2, N}, biased
upward and therefore conservative for decay claims.  alpha/beta are reserved
for the mass exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .precision import BetaNumber, tb_orbit_floats
from .sources import MarkovSource, fit_condition_exponents, sample_point

MAX_FREQUENCY = 1 << 20
# a sample cloud with one value carrying more than this share of the mass is
# treated as atomic, and lemma32_check refuses it
ATOM_SHARE_LIMIT = 0.05
PROXY_NOTE = "max |S_N'(m)| over tail checkpoints {N/4, N/2, N}"


def _primitive_base(n: int) -> int:
    """Smallest g with g^k = n; n and n' are multiplicatively dependent
    integers iff they share this primitive base."""
    if n < 2:
        raise ValueError("need n >= 2")
    factors: dict[int, int] = {}
    m, p = n, 2
    while p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    g = math.gcd(*factors.values()) if len(factors) > 1 else next(iter(factors.values()))
    root = 1
    for q, e in factors.items():
        root *= q ** (e // g)
    return root


def multiplicatively_independent(b: BetaNumber, a: int) -> bool | None:
    """True/False when decidable (rational b vs integer a), None when the
    caller has to assert it (algebraic or decimal b)."""
    if a < 2:
        raise ValueError("alphabet size must be >= 2")
    if b.kind != "rational":
        return None
    v = b.exact_value()
    if v.denominator != 1:
        return True  # (p/q)^s is never an integer power of a for q >= 2
    return _primitive_base(v.numerator) != _primitive_base(a)


@dataclass(frozen=True, eq=False)
class WeylSeries:
    """Exponential-sum averages of one orbit at several checkpoints."""

    base: BetaNumber
    checkpoints: tuple[int, ...]
    ms: tuple[int, ...]
    values: dict  # (N, m) -> complex
    orbit: np.ndarray  # x_0 .. x_{N_max}, length N_max + 1

    @property
    def n_final(self) -> int:
        return self.checkpoints[-1]

    def s(self, n: int, m: int) -> complex:
        key = (n, m)
        if key in self.values:
            return self.values[key]
        if abs(m) > MAX_FREQUENCY:
            raise ValueError("frequency too large")
        if n > len(self.orbit) - 1:
            raise ValueError("checkpoint beyond stored orbit")
        return complex(np.mean(np.exp(2j * math.pi * m * self.orbit[:n])))


def _checkpoint_means(cur: np.ndarray, cps: tuple[int, ...]) -> list[complex]:
    idx = np.array([0] + list(cps[:-1]))
    seg = np.add.reduceat(cur, idx)
    tot = np.cumsum(seg)
    return [complex(tot[k] / cps[k]) for k in range(len(cps))]


def _orbit_floats(b: BetaNumber, x0, n: int, digits_required: int) -> np.ndarray:
    """x_0 = x0, x_1 .. x_n as floats."""
    xs = np.empty(n + 1)
    xs[0] = float(x0)
    xs[1:] = tb_orbit_floats(b, x0, n, digits_required=digits_required)
    return xs


def weyl_sums(
    b: BetaNumber,
    x0,
    checkpoints,
    ms,
    digits_required: int = 9,
) -> WeylSeries:
    """One orbit pass, S_N(m) at every checkpoint and frequency."""
    cps = tuple(sorted(set(int(n) for n in checkpoints)))
    if not cps or cps[0] < 1:
        raise ValueError("checkpoints must be positive")
    ms = tuple(int(m) for m in ms)
    if any(abs(m) > MAX_FREQUENCY for m in ms):
        raise ValueError(f"|m| capped at {MAX_FREQUENCY}")
    n_max = cps[-1]
    xs = _orbit_floats(b, x0, n_max, digits_required)
    values = {}
    for m in ms:
        if m == 0:
            for n in cps:
                values[(n, 0)] = complex(1.0)
            continue
        cur = np.exp(2j * math.pi * m * xs[:n_max])
        for n, sval in zip(cps, _checkpoint_means(cur, cps)):
            values[(n, m)] = sval
    return WeylSeries(
        base=b,
        checkpoints=cps,
        ms=ms,
        values=values,
        orbit=xs,
    )


@dataclass(frozen=True)
class DecayProfile:
    ms: tuple[int, ...]
    values: dict  # m -> D(m) in [0, 1]
    sample_count: int
    fitted_exponent: float | None
    predicted_exponent: float | None
    alpha_beta: tuple[float, float] | None
    proxy: str
    n_points: int
    checkpoints: tuple[int, ...]
    independence: str  # "verified" or "asserted"

    def median_over(self, m_lo: int, m_hi: int) -> float:
        vals = [v for m, v in self.values.items() if m_lo <= m <= m_hi]
        if not vals:
            raise ValueError("no frequencies in the requested band")
        return float(np.median(vals))


def _sample_seed(seed: int, j: int) -> int:
    return int(np.random.SeedSequence([seed, j]).generate_state(1)[0])


def _sample_maxima(src, b, ms, cps, n_points, digits, seed_j) -> np.ndarray:
    """Checkpoint-max |S(m)| along one mu-drawn orbit; picklable for pools."""
    x0 = sample_point(src, digits, seed_j)
    z = np.exp(2j * math.pi * _orbit_floats(b, x0, n_points - 1, 9))
    out = np.empty(len(ms))
    cur = None
    prev_m = None
    for i, m in enumerate(ms):
        if m == 0:
            out[i] = 1.0
            continue
        if prev_m is not None and 0 < m - prev_m <= 8:
            for _ in range(m - prev_m):
                cur = cur * z
        else:
            cur = z**m
        prev_m = m
        out[i] = max(abs(v) for v in _checkpoint_means(cur, cps))
    return out


def mean_decay_profile(
    src: MarkovSource,
    b: BetaNumber,
    a: int,
    ms,
    n_points: int,
    samples: int,
    seed: int,
    fit_m_max: int = 12,
    workers: int = 1,
) -> DecayProfile:
    """D(m) = sample mean over mu-drawn x0 of the checkpoint-max |S(m)|.

    Starting points are stationary-chain draws with enough base-a digits that
    the truncation sits below the orbit's b^N magnification.  Requires a and b
    multiplicatively independent: decided exactly when possible, recorded as
    an assertion otherwise.  workers > 1 farms the per-sample orbits out to a
    process pool; the merge is index-ordered, so results match workers = 1
    bit for bit.  D(m) carries the additive noise floor of the checkpoint-max
    statistic (a little above sqrt(pi) / (2 sqrt(N/4)), the mean |S| of
    equidistributed phases at the N/4 checkpoint), so a raw ratio
    D(m_high) / D(m_low) cannot fall much below floor / D(m_low).
    """
    if src.a != a:
        raise ValueError("source alphabet does not match a")
    if samples < 16:
        raise ValueError("need at least 16 samples for a mean profile")
    indep = multiplicatively_independent(b, a)
    if indep is False:
        raise ValueError(f"a = {a} and b = {b} are multiplicatively dependent")
    ms = tuple(sorted(set(int(m) for m in ms)))
    if any(m < 0 or m > MAX_FREQUENCY for m in ms):
        raise ValueError("profile frequencies must lie in [0, 2^20]")
    cps = (max(1, n_points // 4), max(1, n_points // 2), n_points)
    digits = math.ceil(n_points * math.log(float(b.hi)) / math.log(a)) + 64
    seeds = [_sample_seed(seed, j) for j in range(samples)]
    sample = partial(_sample_maxima, src, b, ms, cps, n_points, digits)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(sample, seeds, chunksize=max(1, samples // (4 * workers))))
    else:
        rows = [sample(s) for s in seeds]
    totals = np.sum(np.stack(rows), axis=0)
    values = {m: float(totals[i]) / samples for i, m in enumerate(ms)}
    pos = [m for m in ms if m > 0]
    fitted = None
    if len(pos) >= 3:
        fitted = float(np.polyfit(np.log(pos), np.log([max(values[m], 1e-300) for m in pos]), 1)[0])
    est = fit_condition_exponents(src, m_max=fit_m_max)
    try:
        predicted = predicted_exponent(est.alpha_hat, est.beta_hat)
    except ValueError:
        predicted = None
    return DecayProfile(
        ms=ms,
        values=values,
        sample_count=samples,
        fitted_exponent=fitted,
        predicted_exponent=predicted,
        alpha_beta=(est.alpha_hat, est.beta_hat),
        proxy=PROXY_NOTE,
        n_points=n_points,
        checkpoints=cps,
        independence="verified" if indep else "asserted",
    )


def predicted_exponent(alpha: float, beta: float) -> float:
    """Closed-form decay exponent -a*b/(b(1+a) + 2a + 1).

    The three-term balance point gamma = (2a+1)/b, d = b/(b(1+a)+2a+1) is the
    actual minimax only while the two-term valley ascends in d, which pins
    the regime to beta*(alpha-1) <= 1.  There the value lies in (-1/2, 0).
    Past that regime the valley keeps descending and the grid minimax runs
    away from the closed form, so this raises rather than return a number the
    optimizer would contradict.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("exponents must be positive")
    if alpha > beta:
        raise ValueError("need alpha <= beta")
    if beta * (alpha - 1) > 1:
        raise ValueError("outside the balance regime beta*(alpha-1) <= 1")
    return -alpha * beta / (beta * (1 + alpha) + 2 * alpha + 1)


def optimize_exponent_grid(alpha: float, beta: float, grid_resolution: int = 200) -> dict:
    """Grid minimax of max{-d*a, (-1 - d(a-1) + g*d)/2, d(1 - g*b)/2} over
    (g, d) in (0, 10]^2, with zoom refinements around the argmin."""
    if grid_resolution < 100:
        raise ValueError("need at least 100 points per axis")
    if alpha <= 0 or beta <= 0 or alpha > beta:
        raise ValueError("need 0 < alpha <= beta")
    g_lo, g_hi, d_lo, d_hi = 0.0, 10.0, 0.0, 10.0
    g_star = d_star = val = None
    for _ in range(7):
        gs = np.linspace(g_lo, g_hi, grid_resolution + 1)[1:]  # open at 0
        ds = np.linspace(d_lo, d_hi, grid_resolution + 1)[1:]
        G, D = np.meshgrid(gs, ds, indexing="ij")
        t1 = -D * alpha
        t2 = (-1.0 - D * (alpha - 1.0) + G * D) / 2.0
        t3 = D * (1.0 - G * beta) / 2.0
        F = np.maximum(t1, np.maximum(t2, t3))
        k = int(np.argmin(F))
        i, j = divmod(k, len(ds))
        if val is None or F[i, j] < val:
            g_star, d_star, val = float(G[i, j]), float(D[i, j]), float(F[i, j])
        # The coarse argmin can sit several cells from the optimum along the
        # nearly flat valley where two terms tie, so keep a generous window.
        wg = (g_hi - g_lo) / grid_resolution * 10
        wd = (d_hi - d_lo) / grid_resolution * 10
        g_c, d_c = float(G[i, j]), float(D[i, j])
        g_lo, g_hi = max(0.0, g_c - wg), min(10.0, g_c + wg)
        d_lo, d_hi = max(0.0, d_c - wd), min(10.0, d_c + wd)
    return {"gamma_star": g_star, "delta_star": d_star, "value": val}


@dataclass(frozen=True)
class Lemma32Result:
    lhs: float
    rhs: float
    slack: float
    quad_error: float
    mass_cd: float
    near_mass: float
    far_bound: float
    nodes: int


# Type-3 NUFFT behind _lhs_quadrature_cloud.  G(theta) = sum_j e^{i theta u_j}
# over a cloud centred to |u_j| <= w/2 is band-limited to w/2, so it is
# sampled at spacing h = 2 pi / (_OVERSAMPLE w) and interpolated by a
# Gaussian-regularized sinc of _HALF_WINDOW samples a side.  The samples come
# from a type-1 NUFFT by Gaussian gridding (Greengard & Lee, SIAM Review
# 46(3), 2004): each point spreads to _SPREAD fine-grid points a side, on a
# fine grid _FINE_RATIO times as long as the theta grid.
_OVERSAMPLE = 4
_HALF_WINDOW = 28
_SPREAD = 16
_FINE_RATIO = 2
# squared width of the sinc's Gaussian and tau * M^2 of the spreading Gaussian,
# each balancing that step's two error terms below
_SINC_VAR = _HALF_WINDOW / (math.pi * (1 - 1 / _OVERSAMPLE))
_SPREAD_TM2 = math.pi * _SPREAD * 2 * _FINE_RATIO / (2 * _FINE_RATIO - 1)
# cloud points or nodes per block, so the (block, window) arrays stay a few MB
# whatever the cloud size and q
_BLOCK = 4096


def _nufft_error() -> float:
    """Bound on |G~(theta) - G(theta)| / len(ys) at every node, in exact
    arithmetic.  Interpolating one exponential: Poisson summation leaves the
    Gaussian's mass outside the sinc's band, 2 erfc(s pi (1 - 1/sigma)/sqrt 2),
    plus the truncated tail.  Each grid value is off by the fine grid's
    aliasing plus the truncated spreading, and the interpolation weights
    amplify that by at most their l1 norm, 2 + (2/pi)(1 + ln(N - 1)).  Float
    rounding of the phases, about eps theta |y| per term in the direct sum as
    well, is not included."""
    n, s2, r, t = _HALF_WINDOW, _SINC_VAR, _FINE_RATIO, _SPREAD_TM2
    band = 2 * math.erfc(math.sqrt(s2) * math.pi * (1 - 1 / _OVERSAMPLE) / math.sqrt(2))
    tail = 2 / (math.pi * n) * math.exp(-n * n / (2 * s2)) / (1 - math.exp(-n / s2))
    alias = 2 * math.exp(-t * (1 - 1 / r)) / (1 - math.exp(-t))
    spread = (2 * math.sqrt(math.pi / t) * math.exp(-(math.pi * _SPREAD) ** 2 / t + t / (4 * r * r))
              / (1 - math.exp(-2 * math.pi**2 * _SPREAD / t)))
    lebesgue = 2 + 2 / math.pi * (1 + math.log(n - 1))
    return band + tail + lebesgue * (alias + spread)


_NUFFT_ERROR = _nufft_error()  # about 3.3e-14


def _window_sums(ys: np.ndarray, m: int, b: float, q: int) -> np.ndarray:
    """|sum_j e(m b^z y_j)| at the midpoint nodes z_k = (k + 1/2)/q, for a
    sorted nonempty ys, each within len(ys) * _NUFFT_ERROR."""
    w = (ys[-1] - ys[0]) or 1.0
    u = ys - 0.5 * (ys[0] + ys[-1])  # centring drops a phase |G| does not see
    # theta / h for theta = 2 pi |m| b^z; G(-theta) is conj G(theta)
    t = abs(m) * _OVERSAMPLE * w * np.power(b, (np.arange(q) + 0.5) / q)
    cell = np.floor(t).astype(np.int64)
    lo, hi = int(cell[0]) - _HALF_WINDOW + 1, int(cell[-1]) + _HALF_WINDOW
    # type 1: f(k) = sum_j c_j e^{i k x_j} = G((mid + k) h), x_j = h u_j, |k| <= half
    mid = (lo + hi) // 2
    half = max(mid - lo, hi - mid)
    size = 2 * _FINE_RATIO * half
    fine = np.zeros(size, dtype=complex)
    for block in range(0, len(u), _BLOCK):
        ub = u[block : block + _BLOCK]
        coeff = np.exp(2j * math.pi * mid / (_OVERSAMPLE * w) * ub)
        a = ub * (size / (_OVERSAMPLE * w))  # x_j in fine-grid steps 2 pi / size
        idx = np.floor(a).astype(np.int64)[:, None] + np.arange(1 - _SPREAD, _SPREAD + 1)
        vals = coeff[:, None] * np.exp(-(math.pi**2 / _SPREAD_TM2) * (a[:, None] - idx) ** 2)
        idx, vals = (idx % size).ravel(), vals.ravel()
        fine += np.bincount(idx, vals.real, size) + 1j * np.bincount(idx, vals.imag, size)
    k = np.arange(lo - mid, hi - mid + 1)
    grid = (np.fft.ifft(fine)[k % size] * (size * math.sqrt(math.pi / _SPREAD_TM2))
            * np.exp((_SPREAD_TM2 / size**2) * k * k))
    # type 3: interpolate the grid to the nodes
    out = np.empty(q)
    for block in range(0, q, _BLOCK):
        n = cell[block : block + _BLOCK, None] + np.arange(1 - _HALF_WINDOW, _HALF_WINDOW + 1)
        dt = t[block : block + _BLOCK, None] - n
        weights = np.sinc(dt) * np.exp(-dt * dt / (2 * _SINC_VAR))
        out[block : block + _BLOCK] = np.abs(np.einsum("ij,ij->i", weights, grid[n - lo]))
    return out


def _lhs_quadrature_cloud(ys: np.ndarray, n_total: int, m: int, b: float, q: int) -> float:
    """Midpoint rule for int_0^1 |sum_{y in window} e(m b^z y)/n|^2 dz, the
    inner sums by a type-3 NUFFT (`_window_sums`); within
    (2 eps + eps^2) (len(ys)/n_total)^2 of the direct sum, eps = _NUFFT_ERROR."""
    if len(ys) == 0:
        return 0.0
    return float(np.sum(_window_sums(ys, m, b, q) ** 2)) / n_total**2 / q


def _lhs_quadrature_uniform(c: float, d: float, m: int, b: float, q: int) -> float:
    """Analytic inner integral for Lebesgue on [0,1]: (e(th d)-e(th c))/(2 pi i th)."""
    zs = (np.arange(q) + 0.5) / q
    theta = 2.0 * math.pi * m * np.power(b, zs)
    inner = (np.exp(1j * theta * d) - np.exp(1j * theta * c)) / (1j * theta)
    return float(np.mean(np.abs(inner) ** 2))


def _near_pairs_sorted(ys: np.ndarray, r: float) -> int:
    """Ordered pairs (i, j), diagonal included, with |y_i - y_j| < r."""
    lo = np.searchsorted(ys, ys - r, side="right")
    hi = np.searchsorted(ys, ys + r, side="left")
    return int(np.sum(hi - lo))


def lemma32_check(
    mu,
    c: float,
    d: float,
    m: int,
    r: float,
    b: BetaNumber,
    quad_nodes: int = 256,
    cloud_size: int = 20000,
    seed: int = 0,
) -> Lemma32Result:
    """Oscillatory-average inequality check:

    int_0^1 |int_c^d e(m b^z y) dmu|^2 dz <= 2 mu([c,d])^2/(r|m|) + near-pair mass.

    mu may be a sample cloud (ndarray), the string "uniform", or any object
    with .sample(n, seed).  Both sides are evaluated on the same empirical
    measure, so the comparison is deterministic up to z-quadrature, whose
    error is estimated by a Richardson pass (node doubling).  On a cloud,
    quad_error adds the NUFFT's bound on the inner sums (`_NUFFT_ERROR`).
    """
    if m == 0:
        raise ValueError("m must be nonzero")
    if r <= 0:
        raise ValueError("r must be positive")
    if not 0 <= c < d <= 1:
        raise ValueError("need 0 <= c < d <= 1")
    bf = float(b)
    q = max(quad_nodes, min(4 * abs(m), 32768))
    if isinstance(mu, str):
        if mu != "uniform":
            raise ValueError(f"unknown analytic measure {mu!r}")
        lhs_q = _lhs_quadrature_uniform(c, d, m, bf, q)
        lhs_2q = _lhs_quadrature_uniform(c, d, m, bf, 2 * q)
        mass = d - c
        ell = d - c
        near = ell * ell if r >= ell else 2 * r * ell - r * r
        nufft = 0.0
    else:
        if hasattr(mu, "sample"):
            cloud = np.asarray(mu.sample(cloud_size, seed), dtype=float)
        else:
            cloud = np.asarray(mu, dtype=float)
        n_total = len(cloud)
        if n_total < 10_000:
            raise ValueError("sample cloud needs >= 10^4 points")
        _, counts = np.unique(cloud, return_counts=True)
        if counts.max() / n_total > ATOM_SHARE_LIMIT:
            raise ValueError(
                f"cloud looks atomic: one value carries {counts.max() / n_total:.1%} of the mass"
            )
        ys = np.sort(cloud[(cloud >= c) & (cloud <= d)])
        lhs_q = _lhs_quadrature_cloud(ys, n_total, m, bf, q)
        lhs_2q = _lhs_quadrature_cloud(ys, n_total, m, bf, 2 * q)
        mass = len(ys) / n_total
        near = _near_pairs_sorted(ys, r) / n_total**2
        nufft = (2 * _NUFFT_ERROR + _NUFFT_ERROR**2) * mass * mass
    quad_error = abs(lhs_2q - lhs_q) + nufft
    far = 2.0 * mass * mass / (r * abs(m))
    rhs = far + near
    return Lemma32Result(
        lhs=lhs_2q,
        rhs=rhs,
        slack=rhs - lhs_2q,
        quad_error=quad_error,
        mass_cd=mass,
        near_mass=near,
        far_bound=far,
        nodes=2 * q,
    )


def invariance_defects(series: WeylSeries, max_degree: int) -> list[float]:
    """invariance_defect(series, k) for k = 1..max_degree, as a running
    maximum: each per-frequency defect |E(e_m) - E(e_m o T)| is computed once."""
    if max_degree < 1:
        raise ValueError("degree must be >= 1")
    n = series.n_final
    xs = series.orbit
    if len(xs) < n + 1:
        raise ValueError("series does not retain the shifted orbit")
    out = []
    worst = 0.0
    for m in range(1, max_degree + 1):
        em = np.exp(2j * math.pi * m * xs[: n + 1])
        worst = max(worst, abs(np.mean(em[:n]) - np.mean(em[1:])))
        out.append(float(worst))
    return out


def invariance_defect(series: WeylSeries, test_degree: int) -> float:
    """max_m |E(e_m) - E(e_m o T)| over 1 <= m <= test_degree; the orbit
    telescoping identity caps this at |e_m(x_0) - e_m(x_N)|/N <= 2/N."""
    return invariance_defects(series, test_degree)[-1]
