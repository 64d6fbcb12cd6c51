"""Two-branch self-similar measures living inside [0,1) for b > 2.

The IFS f0(x) = x/b, f1(x) = x/b + 1/b has attractor [0, 1/(b-1)], and the
weight-(p0, p1) self-similar measure is the law of sum_{i>=1} w_i b^-i with
w_i i.i.d. Bernoulli(p1).  On the digit model T_b acts as the shift, so mu_p
is T_b-invariant for every p; the transform is the explicit product
mu_hat(xi) = prod_k (p0 + p1 e(xi b^-k)).  Everything here leans on that
digit picture: sampling, the functional-equation residual, the cylinder
singularity certificate, and the log-decay window scan.

b = 2 fills the attractor ([0,1], no gaps) and is admitted only because
p = (1/2, 1/2) then gives Lebesgue measure, a useful oracle; the singularity
machinery refuses it.  Degenerate weights (a zero entry) are likewise kept
constructible since delta_0 makes several checks exact, but they are flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .precision import BetaNumber

TWO_PI = 2.0 * math.pi
_SAMPLE_DEPTH = 64  # digits per sample
_EDGE_EPS = 1e-9  # float slack on cylinder edges in the singularity witness
_PROBES_PER_WINDOW = 64  # log-spaced probes per dyadic window of the decay profile


@dataclass(frozen=True)
class SelfSimilarMeasure:
    """Weights (p0, p1) on the maps x/b and x/b + 1/b."""

    base: BetaNumber
    p0: float
    p1: float

    def __post_init__(self) -> None:
        if not (self.p0 >= 0.0 and self.p1 >= 0.0):
            raise ValueError("weights must be nonnegative")
        if abs(self.p0 + self.p1 - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if self.base.hi < 2.0:
            raise ValueError("need b >= 2 (b = 2 only as the Lebesgue oracle)")

    @property
    def b(self) -> float:
        return 0.5 * (self.base.lo + self.base.hi)

    @property
    def degenerate(self) -> bool:
        """True when one branch carries no mass (an atom, not self-similar)."""
        return self.p0 == 0.0 or self.p1 == 0.0

    @property
    def attractor_sup(self) -> float:
        return 1.0 / (self.b - 1.0)


def _tail_cutoff(m: SelfSimilarMeasure, xi: float, tol: float) -> int:
    # |1 - (p0 + p1 e(theta))| = p1 |1 - e(theta)| <= 2 pi p1 |theta|, so the
    # factors beyond K sum to <= 2 pi p1 |xi| b^-K / (b - 1).
    if xi == 0.0 or m.p1 == 0.0:
        return 0
    b = m.b
    need = TWO_PI * m.p1 * abs(xi) / ((b - 1.0) * tol)
    if need <= 1.0:
        return 1
    return max(1, int(math.ceil(math.log(need) / math.log(b))) + 1)


def ssm_fourier(m: SelfSimilarMeasure, xi: float, tol: float = 1e-12) -> complex:
    """mu_hat(xi) as a truncated product, tail factors within tol of 1."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    k = _tail_cutoff(m, xi, tol)
    if k == 0:
        return complex(1.0, 0.0)
    scales = m.b ** -np.arange(1, k + 1, dtype=float)
    factors = m.p0 + m.p1 * np.exp(2j * np.pi * xi * scales)
    return complex(np.prod(factors))


def ssm_fourier_many(
    m: SelfSimilarMeasure, xis: np.ndarray, tol: float = 1e-9
) -> np.ndarray:
    """Vectorized transform over a batch of frequencies (shared cutoff)."""
    xis = np.asarray(xis, dtype=float)
    if xis.size == 0:
        return np.zeros(0, dtype=complex)
    k = _tail_cutoff(m, float(np.max(np.abs(xis))), tol)
    if k == 0:
        return np.ones(xis.shape, dtype=complex)
    scales = m.b ** -np.arange(1, k + 1, dtype=float)
    phases = np.exp(2j * np.pi * np.multiply.outer(xis, scales))
    return np.prod(m.p0 + m.p1 * phases, axis=-1)


def ssm_selfsim_residual(m: SelfSimilarMeasure, xi: float) -> float:
    """|mu_hat(xi) - (p0 + p1 e(xi/b)) mu_hat(xi/b)|; telescopes to ~0."""
    lhs = ssm_fourier(m, xi, tol=1e-13)
    rhs = (m.p0 + m.p1 * np.exp(2j * np.pi * xi / m.b)) * ssm_fourier(
        m, xi / m.b, tol=1e-13
    )
    return abs(lhs - rhs)


def ssm_sample(m: SelfSimilarMeasure, n: int, seed: int = 0) -> np.ndarray:
    """n draws of sum_{i<=64} w_i b^-i; truncation <= b^-64/(b-1)."""
    if n < 1:
        raise ValueError("need n >= 1 samples")
    rng = np.random.default_rng(seed)
    weights = m.b ** -np.arange(1, _SAMPLE_DEPTH + 1, dtype=float)
    out = np.zeros(n, dtype=float)
    # digit blocks keep the boolean matrix small at 10^6-sample scale
    block = int(4e7 // _SAMPLE_DEPTH)
    for i in range(0, n, block):
        j = min(n, i + block)
        bits = rng.random((j - i, _SAMPLE_DEPTH)) < m.p1
        out[i:j] = bits @ weights
    return out


@dataclass(frozen=True)
class SingularityWitness:
    coverage_fraction: float
    total_length: float
    level: int


def singularity_witness(
    m: SelfSimilarMeasure, samples: np.ndarray, level: int
) -> SingularityWitness:
    """Fraction of samples inside the 2^level level cylinders vs their length.

    For b > 2 the 2^n cylinders at level n have total Lebesgue length
    (2/b)^n / (b-1) -> 0 while carrying all the mass: the pair (coverage ~ 1,
    length -> 0) certifies singularity.  Requires the gap structure, so b > 2
    strictly.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    if m.base.lo <= 2.0:
        raise ValueError("need b > 2: no gaps at or below 2")
    b = m.b
    sup = m.attractor_sup
    total = (2.0 / b) ** level / (b - 1.0)
    x = np.asarray(samples, dtype=float).copy()
    ok = (x >= -_EDGE_EPS) & (x <= sup + _EDGE_EPS)
    for _ in range(level):
        hi_branch = x >= 1.0 / b - _EDGE_EPS
        ok &= hi_branch | (x <= sup / b + _EDGE_EPS)  # otherwise x fell in the gap
        x = np.where(hi_branch, b * x - 1.0, b * x)
    ok &= (x >= -_EDGE_EPS) & (x <= sup + _EDGE_EPS)
    return SingularityWitness(
        coverage_fraction=float(np.mean(ok)), total_length=total, level=level
    )


def uniform_grid(k: int) -> list:
    """k equal intervals of [0, 1) as (u, v) pairs."""
    edges = np.linspace(0.0, 1.0, k + 1)
    return [(float(edges[i]), float(edges[i + 1])) for i in range(k)]


@dataclass(frozen=True)
class InvarianceCheck:
    max_defect: float
    sigma_at_max: float
    within_budget: bool
    n_intervals: int
    n_samples: int


def ssm_invariance_check(
    m: SelfSimilarMeasure,
    grid: Sequence,
    samples: int = 10**6,
    seed: int = 0,
) -> InvarianceCheck:
    """Empirical |mu(T_b^{-1} A) - mu(A)| over the grid, against a 4 sigma MC budget.

    Shared sample cloud on both sides; the difference variance is bounded by
    the symmetric-difference mass, itself <= mass(A) + mass(T^-1 A), which is
    the (generous) sigma used for the budget.
    """
    if len(grid) < 1:
        raise ValueError("empty grid")
    pts = ssm_sample(m, samples, seed=seed)
    pts.sort()
    n = pts.size
    b = m.b

    def mass(u: float, v: float) -> float:
        return (np.searchsorted(pts, v, "left") - np.searchsorted(pts, u, "left")) / n

    worst = -1.0
    sig_at = 0.0
    ok = True
    for (u, v) in grid:
        ma = mass(u, v)
        mp = 0.0
        for k in range(m.base.ceil_b):
            pu, pv = (k + u) / b, (k + v) / b
            pu, pv = max(pu, 0.0), min(pv, 1.0)
            if pu < pv:
                mp += mass(pu, pv)
        defect = abs(ma - mp)
        sigma = math.sqrt((ma + mp) / n) + 1e-12
        if defect > worst:
            worst, sig_at = defect, sigma
        if defect > 4.0 * sigma:
            ok = False
    return InvarianceCheck(
        max_defect=worst,
        sigma_at_max=sig_at,
        within_budget=ok,
        n_intervals=len(grid),
        n_samples=samples,
    )


@dataclass(frozen=True)
class DecayWindows:
    edges: tuple
    maxima: tuple
    fitted_c: float

    def rows(self) -> list:
        return [
            (self.edges[j], self.edges[j + 1], self.maxima[j])
            for j in range(len(self.maxima))
        ]


def ssm_decay_profile(m: SelfSimilarMeasure, xi_max: float) -> DecayWindows:
    """max |mu_hat| over dyadic windows [2^j, 2^(j+1)] and the log-decay fit.

    Probes are log-spaced plus every power b^k inside the window; for Pisot b
    those powers carry the non-decay (b^k approaches integers exponentially
    fast, so the product factors all sit near 1) and omitting them would hide
    the negative control.  fitted_c is the least-squares slope of -log(max)
    against log log xi: evidence of a log^-c envelope, not a certificate.
    """
    if xi_max < 1e3:
        raise ValueError("xi_max must be >= 1e3")
    windows = range(3, int(math.floor(math.log2(xi_max))))
    b = m.b
    maxima = []
    edges = []
    for j in windows:
        lo, hi = 2.0**j, 2.0 ** (j + 1)
        probes = list(np.geomspace(lo, hi, _PROBES_PER_WINDOW, endpoint=False))
        k = int(math.ceil(math.log(lo) / math.log(b)))
        while b**k < hi:
            if b**k >= lo:
                probes.append(b**k)
            k += 1
        vals = np.abs(ssm_fourier_many(m, np.asarray(probes), tol=1e-10))
        maxima.append(float(np.max(vals)))
        edges.append(lo)
    edges.append(2.0 ** (windows[-1] + 1))
    mids = [math.sqrt(edges[j] * edges[j + 1]) for j in range(len(maxima))]
    logs = np.log(np.log(np.asarray(mids)))
    vals = np.asarray(maxima)
    if np.all(vals >= 1.0 - 1e-15) or len(maxima) < 2:
        c = 0.0  # flat profile (degenerate weights): no decay to fit
    else:
        c = -float(np.polyfit(logs, np.log(np.maximum(vals, 1e-300)), 1)[0])
    return DecayWindows(
        edges=tuple(edges),
        maxima=tuple(maxima),
        fitted_c=c,
    )
