"""Stationary coding of a Bernoulli shift whose near-diagonal mass resists
every polynomial envelope.

The construction marks a union of shifted cylinder events in an l-symbol
uniform shift, stage k contributing markers of mass ~ ln(n_k)^-2 smeared over
floor(ln n_k) shifts, and encodes the indicator process into [0,1) through
binary digits.  Runs of marked times force conditional mass to clump at
dyadic scale, so the expected near-diagonal pair mass at scale 1/n_k keeps a
floor of 0.25 ln(n_k)^-4 while any finite-memory source decays polynomially.

"log" here is natural log throughout: the recursion only needs a fixed
convention, and every report records it.  Schedule arithmetic is exact: stage
masses are rational, ln(n) enters only through certified rational enclosures,
and the marker-window measures come from an avoid-pattern transfer count, so
the admissibility inequalities are theorem-grade, not float comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .exactnum import ln_bounds
from .precision import UndeterminedValue

_GROUPS = 25  # batch groups for Monte-Carlo standard errors


def _certify(n: int, pred, bits: int = 128):
    """Evaluate a monotone predicate of ln(n) at both ends of its enclosure,
    doubling the bits until the two agree."""
    while True:
        lo, hi = ln_bounds(n, bits)
        below = pred(lo)
        if below == pred(hi):
            return below
        bits *= 2
        if bits > 1 << 14:
            raise UndeterminedValue(f"ln({n}) enclosure undecided at {1 << 14} bits (tie?)")


def _ln_gt(n: int, q: Fraction) -> bool:
    # ln(n) > q; ln of an integer >= 2 is irrational so this always decides
    return _certify(n, lambda ln: ln > q)


def _floor_ln(n: int) -> int:
    guess = int(math.floor(math.log(n)))
    while not _ln_gt(n, Fraction(guess)):
        guess -= 1
    while _ln_gt(n, Fraction(guess + 1)):
        guess += 1
    return guess


def _mass_ln_sq_above(n: int, mass: Fraction, edge: Fraction | int) -> bool:
    """Certified mass * ln(n)^2 > edge; ln(n)^2 is irrational, so no edge is
    ever a tie."""
    return _certify(n, lambda ln: mass * ln * ln > edge)


@dataclass(frozen=True)
class Stage:
    """One marker stage: the first `count` depth-`depth` cylinders, smeared
    over shifts 0..window."""

    n: int
    window: int  # floor(ln n)
    depth: int  # cylinder depth m_k
    count: int  # number of lexicographically-first cylinders in Y_k
    y_mass: Fraction  # nu(Y_k) = count / l^depth
    ycal_mass: Fraction  # exact nu of the shifted union


@dataclass(frozen=True)
class ConstructionParams:
    alphabet_size: int
    epsilon: Fraction
    stages: tuple

    @property
    def span(self) -> int:
        """Base coordinates read by the time-zero coder."""
        if not self.stages:
            return 1
        return max(s.window + s.depth for s in self.stages)

    @property
    def ycal_total(self) -> Fraction:
        return sum((s.ycal_mass for s in self.stages), Fraction(0))

    def to_dict(self) -> dict:
        return {
            "l": self.alphabet_size,
            "epsilon": str(self.epsilon),
            "log_convention": "natural",
            "stages": [
                {
                    "n": s.n,
                    "window": s.window,
                    "depth": s.depth,
                    "count": s.count,
                    "y_mass": str(s.y_mass),
                    "ycal_mass": str(s.ycal_mass),
                }
                for s in self.stages
            ],
            "ycal_total": str(self.ycal_total),
        }


def _count_avoiding(l: int, length: int, checks: Sequence[tuple]) -> int:
    """Strings of `length` symbols with no stage word at its allowed offsets.

    checks: (depth, count, offset_hi) per stage; a hit is word < count read at
    offsets 0..offset_hi.  Transfer counting over the last max(depth)-1
    symbols, exact integers.
    """
    if not checks:
        return l**length
    mmax = max(d for d, _, _ in checks)
    n_states = l ** (mmax - 1)
    # state = integer code of the last mmax-1 symbols; short prefixes pad with
    # leading zeros, harmless since a check only fires once t+1 >= depth
    counts = [0] * n_states
    counts[0] = 1
    mod = n_states
    for t in range(length):
        nxt = [0] * n_states
        for s, cnt in enumerate(counts):
            if cnt == 0:
                continue
            for sym in range(l):
                word_tail = s * l + sym
                hit = False
                for depth, c, off_hi in checks:
                    if t + 1 < depth or t + 1 - depth > off_hi:
                        continue
                    if word_tail % (l**depth) < c:
                        hit = True
                        break
                if not hit:
                    nxt[word_tail % mod] += cnt
        counts = nxt
    return sum(counts)


def schedule_from_dict(d: dict) -> ConstructionParams:
    """Inverse of ConstructionParams.to_dict; masses come back exact."""
    stages = tuple(
        Stage(
            n=int(s["n"]),
            window=int(s["window"]),
            depth=int(s["depth"]),
            count=int(s["count"]),
            y_mass=Fraction(s["y_mass"]),
            ycal_mass=Fraction(s["ycal_mass"]),
        )
        for s in d["stages"]
    )
    return ConstructionParams(
        alphabet_size=int(d["l"]), epsilon=Fraction(d["epsilon"]), stages=stages
    )


def build_schedule(l: int, epsilon, K: int) -> ConstructionParams:
    """Smallest admissible (n_k, Y_k) at each stage, all invariants exact."""
    if l < 3:
        raise ValueError("need alphabet size l >= 3")
    eps = epsilon if isinstance(epsilon, Fraction) else Fraction(str(epsilon))
    if not (0 < eps < Fraction(1, 2)):
        raise ValueError("need 0 < epsilon < 0.5")
    if K < 1:
        raise ValueError("need at least one stage")
    budget = 1 - eps
    stages = []
    n_prev = 1
    for _ in range(K):
        q = 1 / budget
        if q > 700:
            raise ValueError("stage budget too small: n_k would overflow any run")
        # smallest n > n_prev with ln(n) > 1/budget, by certified bisection
        lo = max(n_prev, 1)  # ln(lo) <= q or lo is n_prev
        hi = max(n_prev + 1, 2)
        while not _ln_gt(hi, q):
            lo, hi = hi, hi * 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if mid <= n_prev or not _ln_gt(mid, q):
                lo = mid
            else:
                hi = mid
        n = hi
        while True:
            window = _floor_ln(n)
            found = None
            for m in range(1, 41):
                gran = l**m
                # smallest count certifiably above the lower edge, kept if
                # it also stays below the upper edge
                c = 1
                while not _mass_ln_sq_above(n, Fraction(c, gran), Fraction(1, 2)):
                    c += 1
                    if c >= gran:
                        break
                if c < gran and not _mass_ln_sq_above(n, Fraction(c, gran), 1):
                    found = (m, c)
                    break
            if found is None:
                raise ValueError("mass window unreachable below depth 40")
            m, c = found
            length = window + m
            avoid = _count_avoiding(l, length, [(m, c, window)])
            ycal = 1 - Fraction(avoid, l**length)
            if ycal < budget:
                break
            n += 1  # ln only grows, stays admissible; mass window recomputed
        stages.append(
            Stage(
                n=n,
                window=window,
                depth=m,
                count=c,
                y_mass=Fraction(c, l**m),
                ycal_mass=ycal,
            )
        )
        budget -= ycal
        n_prev = n
    return ConstructionParams(alphabet_size=l, epsilon=eps, stages=tuple(stages))


class CodedProcess:
    """The 0/1 marker process R_t = chi_Y(sigma^t x), with a finite past
    window W approximating the conditioning sigma-algebra."""

    def __init__(self, params: ConstructionParams, W: Optional[int] = None):
        self.params = params
        self.W = params.span if W is None else int(W)
        if self.W < 1:
            raise ValueError("window must be >= 1")
        if self.W > 63:
            # the bucket key holds one R bit per past coordinate in an int64
            raise ValueError("window must be <= 63")

    @property
    def span(self) -> int:
        return self.params.span

    def _r_values(self, digits: np.ndarray) -> np.ndarray:
        """R at every coordinate whose full read window fits in `digits`."""
        n, length = digits.shape
        out = length - self.span + 1
        R = np.zeros((n, out), dtype=bool)
        l = self.params.alphabet_size
        for s in self.params.stages:
            # codes of the words starting at columns 0..out+window-1, by Horner
            # over shifted column slices, in the narrowest signed type that
            # holds -l**depth, so every code and partial code*l fits
            nc = out + s.window
            codes = digits[:, :nc].astype(np.min_scalar_type(-(l**s.depth)))
            for i in range(1, s.depth):
                codes = codes * l + digits[:, i : i + nc]
            occ = codes < s.count
            for j in range(s.window + 1):
                R |= occ[:, j : j + out]
        return R

    def exact_marginal(self) -> Fraction:
        """P(R_0 = 1) from the avoid-pattern transfer count."""
        checks = [(s.depth, s.count, s.window) for s in self.params.stages]
        l = self.params.alphabet_size
        avoid = _count_avoiding(l, self.span, checks)
        return 1 - Fraction(avoid, l**self.span)

    def sample_marginal(self, n: int, seed: int = 0) -> tuple:
        rng = np.random.default_rng(seed)
        digits = rng.integers(
            0, self.params.alphabet_size, (n, self.span), dtype=np.int8
        )
        r = self._r_values(digits)[:, 0]
        p = float(np.mean(r))
        return p, math.sqrt(max(p * (1 - p), 1e-12) / n)


@dataclass(frozen=True)
class NearDiagonalEstimate:
    estimate: float
    std_err: float
    scale: int
    n_pairs: int
    window: int  # past window actually used

    @property
    def floor(self) -> float:
        """0.25 ln(scale)^-4, the bound being probed."""
        return 0.25 / math.log(self.scale) ** 4

    @property
    def meets_floor(self) -> bool:
        return self.estimate >= self.floor - 2.0 * self.std_err

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "std_err": self.std_err,
            "scale": self.scale,
            "n_pairs": self.n_pairs,
            "floor": self.floor,
            "meets_floor": self.meets_floor,
            "window": self.window,
        }


def _check_groups(n_pairs: int) -> None:
    if n_pairs < _GROUPS:
        raise ValueError(f"{n_pairs} pairs cannot fill {_GROUPS} batch groups; need >= {_GROUPS}")


def _batch_means(hits: np.ndarray) -> tuple:
    """(mean, standard error) of 0/1 pair hits, the error by batch means over
    _GROUPS consecutive groups."""
    _check_groups(len(hits))
    means = np.array([np.mean(g) for g in np.array_split(hits, _GROUPS)])
    return float(np.mean(hits)), float(np.std(means, ddof=1) / math.sqrt(_GROUPS))


def estimate_near_diagonal(
    proc: CodedProcess,
    stage: int,
    pair_samples: int = 10**5,
    past_samples: Optional[int] = None,
    seed: int = 0,
) -> NearDiagonalEstimate:
    """Monte-Carlo E_eta[(mu_eta x mu_eta)(|x - y| < 1/n_k)].

    Pasts are pooled by their W-digit R-window; two distinct pool entries in
    the same bucket are exact i.i.d. draws from the conditional law given the
    window, so pairing within buckets needs no rejection loop.  Each pair
    completes its shared base overlap with fresh tails, maps futures through
    x = sum R_t 2^-t, and tests the scale-1/n_k ball.
    """
    params = proc.params
    if not 1 <= stage <= len(params.stages):
        raise ValueError("no such stage")
    st = params.stages[stage - 1]
    if proc.W < st.window + st.depth:
        raise ValueError("window too short for this stage")
    n_scale = st.n
    if n_scale < 2:
        raise ValueError("scale must be >= 2")
    _check_groups(pair_samples)
    if past_samples is not None and past_samples < 1:
        raise ValueError(f"past_samples must be >= 1, got {past_samples}")
    rng = np.random.default_rng(seed)
    l = params.alphabet_size
    span = proc.span
    W = proc.W
    pool = past_samples if past_samples is not None else int(2.4 * pair_samples) + 64
    seg_len = W + span - 1
    digits = rng.integers(0, l, (pool, seg_len), dtype=np.int8)
    R_past = proc._r_values(digits)  # width W: R_{-W+1}..R_0
    eta = np.zeros(pool, dtype=np.int64)
    for j in range(W):
        eta |= R_past[:, j].astype(np.int64) << j
    overlap = digits[:, W:]  # coords 1..span-1, feed the future digits

    # bucket by window; consecutive entries of a shuffled order are i.i.d.
    order = rng.permutation(pool)
    eta_s = eta[order]
    rank = np.argsort(eta_s, kind="stable")
    sorted_eta = eta_s[rank]
    same = sorted_eta[0::2][: len(sorted_eta) // 2] == sorted_eta[1::2]
    idx_a = order[rank[0::2][: len(same)][same]]
    idx_b = order[rank[1::2][same]]
    if len(idx_a) == 0:
        raise ValueError("no matched past pairs; enlarge past_samples")
    take = min(pair_samples, len(idx_a))
    sel = rng.permutation(len(idx_a))[:take]
    idx_a, idx_b = idx_a[sel], idx_b[sel]

    F = int(math.ceil(math.log2(n_scale))) + 8
    fresh = rng.integers(0, l, (2, take, F), dtype=np.int8)
    pow2 = 2.0 ** -np.arange(1, F + 1)
    xs = []
    for side, idx in enumerate((idx_a, idx_b)):
        mat = np.concatenate([overlap[idx], fresh[side]], axis=1)
        R_fut = proc._r_values(mat)  # width F: R_1..R_F
        xs.append(R_fut @ pow2)
    hits = (np.abs(xs[0] - xs[1]) < 1.0 / n_scale).astype(float)
    est, se = _batch_means(hits)
    return NearDiagonalEstimate(
        estimate=est,
        std_err=se,
        scale=n_scale,
        n_pairs=take,
        window=W,
    )


def control_near_diagonal(
    scales: Sequence[int], pair_samples: int = 10**5, seed: int = 0
) -> list:
    """Same pair statistic for i.i.d. uniform [0,1): the polynomial baseline."""
    _check_groups(pair_samples)
    rng = np.random.default_rng(seed)
    out = []
    for n in scales:
        x = rng.random(pair_samples)
        y = rng.random(pair_samples)
        hits = (np.abs(x - y) < 1.0 / n).astype(float)
        est, se = _batch_means(hits)
        out.append(
            NearDiagonalEstimate(
                estimate=est,
                std_err=se,
                scale=int(n),
                n_pairs=pair_samples,
                window=0,
            )
        )
    return out


def fit_polynomial_envelope(estimates: Sequence[NearDiagonalEstimate]) -> tuple:
    """(C, beta_hat) for estimate ~ C n^-beta, least squares in log-log."""
    if len(estimates) < 2:
        raise ValueError("need at least two scales to fit a slope")
    ns = np.array([e.scale for e in estimates], dtype=float)
    vals = np.array([max(e.estimate, 1e-300) for e in estimates])
    slope, intercept = np.polyfit(np.log(ns), np.log(vals), 1)
    return float(math.exp(intercept)), float(-slope)


@dataclass(frozen=True)
class ViolationReport:
    stages: tuple  # NearDiagonalEstimate per simulated stage
    beta_probes: tuple
    ratios: dict  # beta -> tuple of estimate / n^-beta
    increasing: dict  # beta -> bool
    verdict: str  # "violated" | "inconclusive" | "not-visible-at-this-scale"
    control: Optional[tuple] = None
    control_beta_hat: Optional[float] = None

    def to_dict(self) -> dict:
        d = {
            "log_convention": "natural",
            "stages": [e.to_dict() for e in self.stages],
            "beta_probes": list(self.beta_probes),
            "ratios": {str(b): list(r) for b, r in self.ratios.items()},
            "increasing": {str(b): v for b, v in self.increasing.items()},
            "verdict": self.verdict,
            "caveat": (
                "finite-stage simulation: the log^-4 floor outruns n^-beta "
                "only asymptotically, so a fixed-K run can sit below the "
                "crossover for small beta"
            ),
        }
        if self.control is not None:
            d["control"] = [e.to_dict() for e in self.control]
            d["control_beta_hat"] = self.control_beta_hat
        return d


def condition_violation_report(
    proc: CodedProcess,
    estimates: Sequence[NearDiagonalEstimate],
    beta_probes: Sequence[float] = (0.1, 0.25, 0.5, 1.0),
    control: Optional[Sequence[NearDiagonalEstimate]] = None,
) -> ViolationReport:
    """Ratio table estimate / n^-beta per probed beta, with verdict."""
    ratios = {}
    increasing = {}
    for b in beta_probes:
        r = tuple(e.estimate * e.scale**b for e in estimates)
        ratios[b] = r
        increasing[b] = len(r) >= 2 and all(r[i + 1] > r[i] for i in range(len(r) - 1))
    if len(estimates) < 2:
        verdict = "inconclusive"
    elif all(increasing.values()):
        verdict = "violated"
    else:
        verdict = "not-visible-at-this-scale"
    # a one-scale control cannot pin a slope
    cb = fit_polynomial_envelope(control)[1] if control and len(control) >= 2 else None
    return ViolationReport(
        stages=tuple(estimates),
        beta_probes=tuple(beta_probes),
        ratios=ratios,
        increasing=increasing,
        verdict=verdict,
        control=tuple(control) if control else None,
        control_beta_hat=cb,
    )
