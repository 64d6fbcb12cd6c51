"""Checks of `betalab` artifacts against computations made apart from it.

Every check reads what one command wrote and compares it with either an
independent computation (plain `Fraction` iteration, `mpmath` at a stated
precision, a closed form) or a property the method promises.  None of them
compares with a stored copy of earlier output.  A check returns the list of
its failures; an empty list means the command passed.

The oracles are cached per process, since every pass of one run asks the
same questions.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np

ORBIT_TOL = 1e-9  # accuracy tb_orbit_floats promises at digits_required = 9
ORBIT_PRINT_TOL = 1e-12  # enclosure width `orbit` promises at --digits-required 12
PARRY_TOL = 1e-9  # the CSV rounds a certified 1e-10 enclosure to floats
WEYL_TOL = 1e-9
CONTROL_SIGMAS = 4
DPS = 50  # mpmath digits of the Parry oracles


@dataclass
class Outcome:
    """What one command left behind, as the checks see it."""

    out_dir: Path
    rc: int
    stdout: str
    params: dict
    orbit: np.ndarray | None = None  # invariance orbit, when the pass kept one

    def json(self, name: str) -> dict:
        return json.loads((self.out_dir / name).read_text())

    def csv(self, name: str) -> list[dict]:
        with open(self.out_dir / name, newline="") as fh:
            return list(csv.DictReader(fh))


# -- oracles ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def phi_orbit_mp(x0: str, n: int) -> np.ndarray:
    """T^1(x0) .. T^n(x0) for T(x) = phi*x mod 1, in mpmath at n*log2(phi) + 128
    bits, so the error after n steps is still about 2^-128."""
    prec = math.ceil(n * math.log2((1 + math.sqrt(5)) / 2)) + 128
    x0 = Fraction(x0)
    out = np.empty(n)
    with mpmath.workprec(prec):
        phi = (1 + mpmath.sqrt(5)) / 2
        x = mpmath.mpf(x0.numerator) / x0.denominator
        for i in range(n):
            y = phi * x
            x = y - mpmath.floor(y)
            out[i] = float(x)
    return out


def fraction_orbit(b: Fraction, x: Fraction, n: int) -> tuple[list[int], list[Fraction]]:
    """Greedy digits floor(b*x_i) and points x_{i+1} = {b*x_i}, exactly."""
    digits, points = [], []
    for _ in range(n):
        y = b * x
        d = math.floor(y)
        x = y - d
        digits.append(d)
        points.append(x)
    return digits, points


class ParrySeries:
    """Parry density from its definition, f(x) = sum_n b^-n [x < T^n(1)].

    The orbit of 1 is exact (`Fraction`), the weights b^-n are mpmath numbers
    at 50 digits, and the series stops once the weights fall below 1e-40.
    """

    def __init__(self, b: Fraction):
        with mpmath.workdps(DPS):
            self.r: list[Fraction] = []
            self.w: list = []
            r, w = Fraction(1), mpmath.mpf(1)
            while w > mpmath.mpf("1e-40"):
                self.r.append(r)
                self.w.append(w)
                if r == 0:
                    break
                r = b * r - math.floor(b * r)
                w = w / (mpmath.mpf(b.numerator) / b.denominator)
            self.z = mpmath.fsum(w * _mp(r) for w, r in zip(self.w, self.r))

    def density(self, x: Fraction) -> float:
        with mpmath.workdps(DPS):
            return float(mpmath.fsum(w for w, r in zip(self.w, self.r) if x < r) / self.z)

    def cdf(self, x: Fraction) -> float:
        with mpmath.workdps(DPS):
            return float(mpmath.fsum(w * _mp(min(x, r)) for w, r in zip(self.w, self.r)) / self.z)

    def fourier(self, m: int) -> complex:
        with mpmath.workdps(DPS):
            s = mpmath.fsum(
                w * (mpmath.expjpi(2 * m * _mp(r)) - 1) for w, r in zip(self.w, self.r)
            )
            return complex(s / (2j * mpmath.pi * m) / self.z)

    def normalizer_in(self, lo: Fraction, hi: Fraction) -> bool:
        with mpmath.workdps(DPS):
            slack = mpmath.mpf("1e-35")  # covers the dropped tail, about 1e-40
            return _mp(lo) - slack <= self.z <= _mp(hi) + slack


class PhiParry:
    """Closed form for b = phi: T(1) = 1/phi and T^2(1) = 0, so the density
    takes two levels, (1 + 1/phi)/Z below 1/phi and 1/Z above, with
    Z = 1 + phi^-2 = (5 - sqrt 5)/2, and the CDF is piecewise linear."""

    def __init__(self):
        with mpmath.workdps(DPS):
            self.phi = (1 + mpmath.sqrt(5)) / 2
            self.z = 1 + self.phi**-2
            self.knot = 1 / self.phi
            self.r = [mpmath.mpf(1), self.knot]
            self.w = [mpmath.mpf(1), 1 / self.phi]

    def density(self, x: Fraction) -> float:
        with mpmath.workdps(DPS):
            return float((1 + 1 / self.phi) / self.z if _mp(x) < self.knot else 1 / self.z)

    def cdf(self, x: Fraction) -> float:
        with mpmath.workdps(DPS):
            xm = _mp(x)
            if xm <= self.knot:
                return float(xm * (1 + 1 / self.phi) / self.z)
            return float((xm + self.phi**-2) / self.z)

    def fourier(self, m: int) -> complex:
        with mpmath.workdps(DPS):
            s = mpmath.fsum(w * (mpmath.expjpi(2 * m * r) - 1) for w, r in zip(self.w, self.r))
            return complex(s / (2j * mpmath.pi * m) / self.z)

    @staticmethod
    def normalizer_in(lo: Fraction, hi: Fraction) -> bool:
        """Exact test of lo <= (5 - sqrt 5)/2 <= hi, by squaring."""
        a, c = 5 - 2 * lo, 5 - 2 * hi  # want a >= sqrt 5 >= c
        return a >= 0 and a * a >= 5 and (c <= 0 or c * c <= 5)


@lru_cache(maxsize=None)
def parry_oracle(b: str):
    return PhiParry() if b == "phi" else ParrySeries(Fraction(b))


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


# -- checks ----------------------------------------------------------------------


def check_decay(o: Outcome) -> list[str]:
    errs = []
    payload = o.json("decay.json")
    if payload["samples"] != o.params["samples"] or payload["n_points"] != o.params["n_points"]:
        errs.append("decay.json does not record the requested samples and N")
    if "rows" in o.params and payload["source"]["rows"] != o.params["rows"]:
        errs.append("decay read a different Markov source than the one written")
    rows = o.csv("decay.csv")
    if not rows:
        errs.append("decay.csv is empty")
    for row in rows:
        d = float(row["D"])
        if not 0 < d <= 1:
            errs.append(f"D({row['m']}) = {d!r} outside (0, 1]")
    return errs


def check_invariance(o: Outcome) -> list[str]:
    errs = []
    payload = o.json("invariance.json")
    if payload["within_budget"] is not True or not payload["max_defect"] <= 2.0 / o.params["N"]:
        errs.append(f"invariance defect {payload['max_defect']!r} outside 2/N")
    if o.orbit is None or len(o.orbit) != o.params["N"]:
        errs.append("the invariance orbit was not kept for the mpmath check")
        return errs
    gap = float(np.max(np.abs(o.orbit - phi_orbit_mp(o.params["x"], o.params["N"]))))
    if not gap <= ORBIT_TOL:
        errs.append(f"orbit differs from the mpmath orbit by {gap:.3e} > {ORBIT_TOL:g}")
    return errs


def check_parry(o: Outcome) -> list[str]:
    errs = []
    oracle = parry_oracle(o.params["b"])
    payload = o.json("parry.json")
    lo, hi = Fraction(payload["normalizer"]["lo"]), Fraction(payload["normalizer"]["hi"])
    if not oracle.normalizer_in(lo, hi):
        errs.append(f"normalizer [{float(lo)!r}, {float(hi)!r}] misses the series value")
    if not hi - lo <= Fraction(payload["tol"]):
        errs.append("normalizer enclosure wider than --tol")
    for fc in payload["fourier"]:
        want = oracle.fourier(fc["m"])
        gap = abs(complex(*fc["value"]) - want)
        if not gap <= fc["err"] + 1e-12:
            errs.append(f"Fourier m={fc['m']} off by {gap:.3e} > its err {fc['err']:.3e}")
    rows = [(float(r["x"]), float(r["density"]), float(r["cdf"])) for r in o.csv("parry.csv")]
    if not rows or rows[-1][0] != 1.0 or rows[-1][2] != 1.0:
        errs.append("the CDF does not end at 1")
    cdfs = [c for _, _, c in rows]
    if any(b < a for a, b in zip(cdfs, cdfs[1:])):
        errs.append("the CDF is not monotone")
    b = float(Fraction(o.params["b"])) if o.params["b"] != "phi" else (1 + math.sqrt(5)) / 2
    f_min, f_max = 1 - 1 / b, 1 / (1 - 1 / b)
    for x, f, c in rows:
        if not f_min - 1e-12 <= f <= f_max + 1e-12:
            errs.append(f"density {f!r} at x={x!r} outside [1 - 1/b, 1/(1 - 1/b)]")
        if x == 1.0:
            continue  # the last row repeats the previous density by construction
        want_f, want_c = oracle.density(Fraction(x)), oracle.cdf(Fraction(x))
        if abs(f - want_f) > PARRY_TOL:
            errs.append(f"density at x={x!r} is {f!r}, series gives {want_f!r}")
        if abs(c - want_c) > PARRY_TOL:
            errs.append(f"CDF at x={x!r} is {c!r}, series gives {want_c!r}")
    return errs


def check_classify_phi(o: Outcome) -> list[str]:
    payload = o.json("classify.json")
    if payload["verdict"] != "Simple" or payload["hit_zero_at"] != 2:
        return [f"phi classified {payload['verdict']}, hitting zero at {payload['hit_zero_at']}"]
    return []


def check_classify_rational(o: Outcome) -> list[str]:
    payload = o.json("classify.json")
    want, _ = fraction_orbit(Fraction(o.params["b"]), Fraction(1), len(payload["digits"]))
    if payload["digits"] != want:
        return ["digits of 1 differ from the exact Fraction iteration"]
    if not payload.get("m_b_lower_float", 0) > 0:
        return ["no positive gap constant m_b"]
    return []


def check_expand_phi(o: Outcome) -> list[str]:
    digits = o.json("expand.json")["digits"]
    x = Fraction(o.params["x"])
    with mpmath.workdps(60):
        phi = (1 + mpmath.sqrt(5)) / 2
        rem = _mp(x) - mpmath.fsum(d * phi ** -(i + 1) for i, d in enumerate(digits))
        if not 0 <= rem < phi ** -len(digits):
            return [f"digits leave remainder {float(rem):.3e}, not in [0, phi^-{len(digits)})"]
    return []


def check_orbit_rational(o: Outcome) -> list[str]:
    errs = []
    payload = o.json("orbit.json")
    if payload["path"] != o.params["path"]:
        errs.append(f"orbit ran the {payload['path']} path, expected {o.params['path']}")
    rows = o.csv("orbit.csv")
    digits, points = fraction_orbit(Fraction(o.params["b"]), Fraction(o.params["x"]), len(rows))
    for row, d, p in zip(rows, digits, points):
        if int(row["digit"]) != d:
            errs.append(f"digit {row['n']} is {row['digit']}, Fraction iteration gives {d}")
        gap = abs(float(row["value"]) - float(p))
        if gap > ORBIT_PRINT_TOL or float(row["width"]) > ORBIT_PRINT_TOL:
            errs.append(f"point {row['n']} off the Fraction iteration by {gap:.3e}")
    return errs


def check_weyl_doubling(o: Outcome) -> list[str]:
    # 1/3 -> 2/3 -> 1/3 under doubling, and e(1/3) + e(2/3) = -1, so every
    # even checkpoint averages to exactly -1/2
    errs = []
    for row in o.csv("weyl.csv"):
        s = complex(float(row["re"]), float(row["im"]))
        if row["m"] == "1" and abs(s + 0.5) > WEYL_TOL:
            errs.append(f"S_{row['N']}(1) = {s!r}, expected -1/2")
    return errs


def check_exponent(o: Outcome) -> list[str]:
    a, b = Fraction(o.params["alpha"]), Fraction(o.params["beta"])
    want = float(-a * b / (b * (1 + a) + 2 * a + 1))
    lines = o.stdout.split()
    got = float(lines[-1]) if lines else math.nan
    if not abs(got - want) <= 1e-11 * max(1.0, abs(want)):
        return [f"exponent printed {got!r}, -ab/(b(1+a)+2a+1) = {want!r}"]
    return []


def check_selfsim(o: Outcome) -> list[str]:
    if o.json("selfsim.json")["invariance"]["within_budget"] is not True:
        return ["selfsim invariance defect beyond its budget"]
    return []


def check_counterexample(o: Outcome) -> list[str]:
    # For independent uniform x, y: P(|x - y| < 1/n) = 2/n - 1/n^2, and an
    # estimate from k pairs has sd sqrt(p(1-p)/k).
    errs = []
    payload = o.json("counterexample.json")
    if payload["all_floors_met"] is not True:
        errs.append("a stage misses its near-diagonal floor")
    control = payload["report"]["control"]
    if not control:
        errs.append("no control was run")
    for c in control:
        n, k = c["scale"], c["n_pairs"]
        p = 2 / n - 1 / n**2
        sd = math.sqrt(p * (1 - p) / k)
        if abs(c["estimate"] - p) > CONTROL_SIGMAS * sd:
            errs.append(f"control at n={n}: {c['estimate']!r} vs {p!r} (sd {sd:.2e})")
    return errs


def check_conditions(o: Outcome) -> list[str]:
    with mpmath.workdps(30):
        want = float(-mpmath.fsum(_mp(p) * mpmath.log(_mp(p)) for p in map(Fraction, o.params["probs"])))
    got = o.json("conditions.json")["entropy_nats"]
    if abs(got - want) > 1e-12:
        return [f"entropy {got!r}, -sum p ln p = {want!r}"]
    return []


def check_lemma32(o: Outcome) -> list[str]:
    if o.json("lemma32.json")["violations"] != 0:
        return ["lemma32 reports violations"]
    return []


CHECKS = {
    "decay": check_decay,
    "invariance": check_invariance,
    "parry": check_parry,
    "classify_phi": check_classify_phi,
    "classify_rational": check_classify_rational,
    "expand_phi": check_expand_phi,
    "orbit_rational": check_orbit_rational,
    "weyl_doubling": check_weyl_doubling,
    "exponent": check_exponent,
    "selfsim": check_selfsim,
    "counterexample": check_counterexample,
    "conditions": check_conditions,
    "lemma32": check_lemma32,
}


def run_check(name: str, o: Outcome) -> list[str]:
    """Exit code first, then the command's own check; a check that cannot
    read what it needs counts as failed, not as a crash of the benchmark."""
    if o.rc != 0:
        return [f"exit code {o.rc}"]
    try:
        return CHECKS[name](o)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
