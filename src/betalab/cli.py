"""Batch front-end: subcommands that write JSON/CSV artifacts plus a manifest.

Every experiment is a pure function of its flags, so the manifest (command,
full argument set, output names, library versions; deliberately no timestamps)
is enough to reproduce the artifact bytes.  `decay` runs its independent
samples in --workers processes, by default (0) one per available CPU and at
most one per sample, or in-process when that comes to 1.  The samples merge
in index order, so decay.json and decay.csv have the same bytes at every
worker count (tests/test_cli.py::test_decay_bytes_are_pinned); only the
manifest records the flag.

Bases (--beta), points (--x) and counterexample's --epsilon share one
descriptor grammar, `precision.parse_exact`; a descriptor it rejects, a zero
denominator included, is a usage error.

Exit codes: 0 success, 1 usage or domain error, 2 certified invariant
violation (a bound the library promises was breached beyond its stated error
budget) or certification failure (an internal soundness check failed), 3
precision exhaustion.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from .betashift import classify, format_digits, greedy_expansion, specification_constants
from .coding import (
    CodedProcess,
    SparsePool,
    build_schedule,
    condition_violation_report,
    control_near_diagonal,
    estimate_near_diagonal,
)
from .parry import ParryDensity, estimated_terms
from .precision import (
    CertificationError,
    DescriptorError,
    PrecisionExhausted,
    UndeterminedValue,
    orbit_with_digits,
    parse_beta,
    parse_exact,
)
from .selfsimilar import (
    SelfSimilarMeasure,
    singularity_witness,
    ssm_decay_profile,
    ssm_fourier_many,
    ssm_invariance_check,
    ssm_sample,
    ssm_selfsim_residual,
    uniform_grid,
)
from .sources import (
    MIN_FIT_DEPTH,
    chain_entropy,
    fit_condition_exponents,
    iid_source,
    load_source,
    source_to_dict,
)
from .weyl import (
    MIN_SAMPLES,
    _checkpoints,
    invariance_defects,
    lemma32_sweep,
    mean_decay_profile,
    optimize_exponent_grid,
    predicted_exponent,
    weyl_sums,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_PRECISION = 3

# `parry` and `lemma32 --mu parry` refuse a base whose series needs more terms
# than this at the tolerance they sum to: the exact orbit prefix costs about
# quadratically in its length, and 900 terms (`parry --beta 1.03` at the
# default --tol) already take about 7 s on a 2-vCPU VM.
MAX_PARRY_TERMS = 1000

# tail tolerance of the series behind `lemma32 --mu parry`'s sample cloud
SAMPLE_TOL = 1e-12


class UsageError(Exception):
    pass


class InvariantViolation(Exception):
    """A certified bound failed beyond its combined error budget."""


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on bad flags; route everything through
    # UsageError so the exit-code contract stays ours
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


class _Floor(argparse.Action):
    """A number flag whose floor is checked as it is parsed, before any
    workspace exists: an int must be at least `floor` (`why` ends the
    message), a float positive (floor 0.0).  nan and inf pass on to
    `_check_finite`, which names them as such."""

    def __init__(self, option_strings, dest, floor, why="", **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.floor, self.why = floor, why

    def __call__(self, parser, namespace, value, option_string=None):
        flag = self.option_strings[0]
        if isinstance(value, float):
            if math.isfinite(value) and value <= self.floor:
                raise UsageError(f"{flag} must be positive, got {value}")
        elif value < self.floor:
            raise UsageError(f"{flag} must be at least {self.floor}{self.why}, got {value}")
        setattr(namespace, self.dest, value)


# -- point descriptors -------------------------------------------------------


def parse_point(text: str):
    """Exact orbit seed in [0, 1), in the grammar of `precision.parse_exact`.

    Decimal literals are taken at face value (exact fractions), never rounded:
    a seed is data, not a precision request.
    """
    try:
        val = parse_exact(text)
    except DescriptorError as exc:
        raise UsageError(str(exc)) from None
    if not 0 <= val < 1:
        raise UsageError(f"point {text!r} outside [0, 1)")
    return val


def _number_list(text: str, kind) -> tuple:
    """Comma-separated numbers, each read by kind (int, float or Fraction)."""
    vals = []
    for t in text.split(","):
        if t.strip():
            try:
                vals.append(kind(t))
            except (ValueError, ZeroDivisionError):
                raise UsageError(f"bad number list {text!r}: {t.strip()!r}") from None
    if not vals:
        raise UsageError("empty number list")
    return tuple(vals)


def _float_list(text: str, flag: str) -> tuple:
    vals = _number_list(text, float)
    if not all(map(math.isfinite, vals)):
        raise UsageError(f"{flag} must be finite, got {text!r}")
    return vals


def _check_finite(args: argparse.Namespace) -> None:
    """nan or inf in a float flag is a usage error; it would only reach the
    artifacts as a non-JSON token."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"--{name.replace('_', '-')} must be finite, got {value}")


def _make_source(args):
    if getattr(args, "source", None):
        return load_source(args.source)
    if getattr(args, "iid", None):
        return iid_source(_number_list(args.iid, Fraction))
    raise UsageError("need --iid or --source")


# -- artifact plumbing --------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def _exact_str(x: Fraction) -> str:
    """str(x) past Python's limit on int-to-str digits (a normalizer of a
    base near 1 runs to tens of thousands of bits); the limit holds again
    after."""
    if not hasattr(sys, "set_int_max_str_digits"):  # a Python without the limit
        return str(x)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


class Workspace:
    """Artifact writer for one command invocation; records output names.
    The directory is made at the first write, so a usage error leaves none."""

    def __init__(self, command: str, out_dir: str):
        self.command = command
        self.dir = out_dir
        self.outputs: list[str] = []

    def _path(self, name: str) -> str:
        os.makedirs(self.dir, exist_ok=True)
        return os.path.join(self.dir, name)

    def write_json(self, payload: dict) -> None:
        # encoded before the file opens, so a non-finite value (ValueError)
        # leaves no partial artifact behind
        text = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable, allow_nan=False)
        name = f"{self.command}.json"
        with open(self._path(name), "w") as fh:
            fh.write(text + "\n")
        self.outputs.append(name)

    def write_csv(self, header, rows) -> None:
        name = f"{self.command}.csv"
        with open(self._path(name), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow(["" if v is None else v for v in row])
        self.outputs.append(name)

    def write_manifest(self, args: argparse.Namespace) -> None:
        import betalab

        recorded = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}
        manifest = {
            "command": self.command,
            "args": recorded,
            "outputs": sorted(self.outputs),
            "versions": {
                "betalab": betalab.__version__,
                "numpy": np.__version__,
                "python": "%d.%d.%d" % sys.version_info[:3],
            },
        }
        name = f"{self.command}_manifest.json"
        with open(self._path(name), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


# -- subcommands ---------------------------------------------------------------


def cmd_classify(args, ws: Workspace) -> int:
    b = parse_beta(args.beta)
    nc = classify(b, args.depth)
    payload = {"beta": args.beta, **asdict(nc), "digit_string": format_digits(nc.digits)}
    if args.alphabet:
        sc = specification_constants(b, args.alphabet, args.depth)
        payload.update(asdict(sc), m_b_lower_float=float(sc.m_b_lower), alphabet=args.alphabet)
    ws.write_json(payload)
    ws.write_csv(("n", "digit"), list(enumerate(nc.digits)))
    return EXIT_OK


def cmd_expand(args, ws: Workspace) -> int:
    b = parse_beta(args.beta)
    x = parse_point(args.x)
    e = greedy_expansion(b, x, args.digits, method=args.method)
    rows = [
        (i, d, float(p), float(p.width))
        for i, (d, p) in enumerate(zip(e.digits, e.orbit))
    ]
    ws.write_json(
        {
            "beta": args.beta,
            "x": args.x,
            "digits": list(e.digits),
            "digit_string": e.digit_string(),
            "max_enclosure_width": max(float(p.width) for p in e.orbit),
        }
    )
    ws.write_csv(("n", "digit", "orbit_next", "enclosure_width"), rows)
    return EXIT_OK


def _parry_density(args, b, tol: float, at: str) -> ParryDensity:
    """b's Parry density summed to tol, refused when its series needs more
    than MAX_PARRY_TERMS terms there (`at` names tol in the message)."""
    terms = estimated_terms(b, tol)
    if terms > MAX_PARRY_TERMS:
        need = "over 10^17" if terms == math.inf else f"about {terms:,}"  # b - 1 < 2^-52
        raise UsageError(
            f"--beta {args.beta} needs {need} series terms at {at} "
            f"(tail bound b^-n/(b-1)); at most {MAX_PARRY_TERMS:,} are run"
        )
    return ParryDensity(b, tol)


def cmd_parry(args, ws: Workspace) -> int:
    b = parse_beta(args.beta)
    den = _parry_density(args, b, args.tol, f"--tol {args.tol:g}")
    rows = den.grid_rows(args.grid)
    z_lo, z_hi = den.normalizer()
    fourier = [{"m": m, **asdict(den.fourier(m))} for m in range(1, args.fourier + 1)]
    ws.write_json(
        {
            "beta": args.beta,
            "tol": args.tol,
            "normalizer": {
                "lo": _exact_str(z_lo),
                "hi": _exact_str(z_hi),
                "mid": float((z_lo + z_hi) / 2),
            },
            "fourier": fourier,
        }
    )
    ws.write_csv(("x", "density", "cdf"), rows)
    return EXIT_OK


def cmd_orbit(args, ws: Workspace) -> int:
    b = parse_beta(args.beta)
    x = parse_point(args.x)
    pts, digs, bits = orbit_with_digits(
        b, x, args.steps, digits_required=args.digits_required, method=args.method
    )
    rows = [
        (n + 1, digs[n], float(pts[n]), float(pts[n].width))
        for n in range(args.steps)
    ]
    ws.write_json(
        {
            "beta": args.beta,
            "x": args.x,
            "steps": args.steps,
            "digits_required": args.digits_required,
            "bits_used": bits,
            "path": "exact" if bits == 0 else "interval",
            "max_width": max(float(p.width) for p in pts),
            "final": float(pts[-1]),
        }
    )
    ws.write_csv(("n", "digit", "value", "width"), rows)
    return EXIT_OK


def cmd_weyl(args, ws: Workspace) -> int:
    b = parse_beta(args.beta)
    x = parse_point(args.x)
    ms = _number_list(args.m, int)
    n = args.N
    cps = _checkpoints(n)
    series = weyl_sums(b, x, cps, ms, digits_required=args.digits_required)
    rows = []
    for m in ms:
        for cp in cps:
            v = series.s(cp, m)
            rows.append((m, cp, v.real, v.imag, abs(v)))
    final = {str(m): series.s(n, m) for m in ms}
    ws.write_json(
        {
            "beta": args.beta,
            "x": args.x,
            "N": n,
            "checkpoints": list(cps),
            "S_final": final,
            "abs_final": {k: abs(complex(v)) for k, v in final.items()},
        }
    )
    ws.write_csv(("m", "N", "re", "im", "abs"), rows)
    return EXIT_OK


def cmd_decay(args, ws: Workspace) -> int:
    b = parse_beta(args.beta)
    src = _make_source(args)
    ms = _number_list(args.ms, int)
    prof = mean_decay_profile(
        src,
        b,
        args.a,
        ms,
        n_points=args.N,
        samples=args.samples,
        seed=args.seed,
        fit_m_max=args.fit_m_max,
        workers=args.workers,
    )
    payload = {
        "beta": args.beta,
        "a": args.a,
        "source": source_to_dict(src),
        "n_points": prof.n_points,
        "samples": prof.sample_count,
        "seed": args.seed,
        "proxy": prof.proxy,
        "independence": prof.independence,
        "values": {str(m): v for m, v in prof.values.items()},
        "fitted_exponent": prof.fitted_exponent,
        "predicted_exponent": prof.predicted_exponent,
        "alpha_beta": list(prof.alpha_beta) if prof.alpha_beta else None,
    }
    low = [m for m in prof.ms if 1 <= m <= 8]
    high = [m for m in prof.ms if 512 <= m <= 1024]
    if low and high:
        payload["band_medians"] = {
            "1-8": prof.median_over(1, 8),
            "512-1024": prof.median_over(512, 1024),
        }
    ws.write_json(payload)
    ws.write_csv(("m", "D"), [(m, prof.values[m]) for m in prof.ms])
    return EXIT_OK


def cmd_exponent(args, ws: Workspace) -> int:
    closed = predicted_exponent(args.alpha, args.beta)
    payload = {"alpha": args.alpha, "beta": args.beta, "closed_form": closed}
    rows = [("closed_form", closed, None, None)]
    if args.grid > 0:
        g = optimize_exponent_grid(args.alpha, args.beta, grid_resolution=args.grid)
        payload["grid"] = g
        payload["gap"] = abs(g["value"] - closed)
        rows.append(("grid", g["value"], g["gamma_star"], g["delta_star"]))
    ws.write_json(payload)
    ws.write_csv(("method", "value", "gamma_star", "delta_star"), rows)
    print(f"{closed:.12g}")
    return EXIT_OK


def _lemma32_measure(args, b):
    """The analytic measure's name, or one cloud drawn for every (m, r)."""
    if args.mu == "uniform":
        return "uniform"
    if args.mu == "parry":
        den = _parry_density(args, b, SAMPLE_TOL, f"the sampler's tolerance {SAMPLE_TOL:g}")
        return den.sample(args.cloud, args.seed)
    meas = SelfSimilarMeasure(b, args.p0, args.p1)
    return ssm_sample(meas, args.cloud, seed=args.seed)


def cmd_lemma32(args, ws: Workspace) -> int:
    b = parse_beta(args.beta)
    mu = _lemma32_measure(args, b)
    ms = _number_list(args.m, int)
    rs = _float_list(args.r, "--r")
    try:
        results = lemma32_sweep(
            mu, args.c, args.d, ms, rs, b, quad_nodes=args.nodes, cloud_size=args.cloud,
            seed=args.seed,
        )
    except ValueError as exc:
        raise ValueError(f"{exc} (--beta {args.beta!r})") from None
    configs = [
        {"m": m, "r": r, **asdict(res), "violated": bool(res.slack < -res.quad_error)}
        for (m, r), res in zip([(m, r) for m in ms for r in rs], results)
    ]
    violations = sum(c["violated"] for c in configs)
    ws.write_json(
        {
            "beta": args.beta,
            "mu": args.mu,
            "window": [args.c, args.d],
            "configs": configs,
            "violations": violations,
        }
    )
    ws.write_csv(
        ("m", "r", "lhs", "rhs", "slack", "quad_error", "violated"),
        [
            (c["m"], c["r"], c["lhs"], c["rhs"], c["slack"], c["quad_error"], int(c["violated"]))
            for c in configs
        ],
    )
    if violations:
        raise InvariantViolation(
            f"{violations} oscillatory-average bound violations beyond quadrature budget"
        )
    return EXIT_OK


def cmd_invariance(args, ws: Workspace) -> int:
    b = parse_beta(args.beta)
    x = parse_point(args.x)
    n = args.N
    series = weyl_sums(b, x, (n,), (1,), digits_required=args.digits_required)
    rows = list(enumerate(invariance_defects(series, args.degrees), start=1))
    max_defect = max(d for _, d in rows)
    budget = 2.0 / n
    ws.write_json(
        {
            "beta": args.beta,
            "x": args.x,
            "N": n,
            "degrees": args.degrees,
            "max_defect": max_defect,
            "budget": budget,
            "within_budget": max_defect <= budget,
        }
    )
    ws.write_csv(("degree", "defect"), rows)
    if max_defect > budget:
        raise InvariantViolation(
            f"invariance defect {max_defect:.3e} exceeds 2/N = {budget:.3e}"
        )
    return EXIT_OK


def cmd_selfsim(args, ws: Workspace) -> int:
    b = parse_beta(args.beta)
    meas = SelfSimilarMeasure(b, args.p0, args.p1)
    xis = np.geomspace(1.0, args.xi_max, 512)
    vals = np.abs(ssm_fourier_many(meas, xis))
    prof = ssm_decay_profile(meas, args.xi_max)
    # one cloud, sorted, serves the invariance check and the witness
    cloud = ssm_sample(meas, args.samples, seed=args.seed)
    cloud.sort()
    inv = ssm_invariance_check(meas, uniform_grid(args.grid_k), cloud=cloud)
    residual = max(
        ssm_selfsim_residual(meas, xi) for xi in np.geomspace(1.0, args.xi_max, 64)
    )
    payload = {
        "b": meas.b,
        "beta": args.beta,
        "p": [args.p0, args.p1],
        "windows": [list(r) for r in prof.rows()],
        "fitted_c": prof.fitted_c,
        "invariance_defect": inv.max_defect,
        "invariance": asdict(inv),
        "residual_max": residual,
    }
    if args.level > 0:
        try:
            payload["witness"] = asdict(singularity_witness(meas, cloud, args.level))
        except ValueError as exc:
            raise ValueError(f"{exc} (--beta {args.beta!r})") from None
    ws.write_json(payload)
    ws.write_csv(
        ("xi", "abs_mu_hat"),
        [(float(x), float(v)) for x, v in zip(xis, vals)],
    )
    if not inv.within_budget:
        raise InvariantViolation(
            f"invariance defect {inv.max_defect:.3e} beyond 4 sigma = {4 * inv.sigma_at_max:.3e}"
        )
    return EXIT_OK


def cmd_counterexample(args, ws: Workspace) -> int:
    try:
        eps = parse_exact(args.epsilon)
    except DescriptorError as exc:
        raise UsageError(f"--epsilon: {exc}") from None
    if not isinstance(eps, Fraction):
        raise UsageError(f"--epsilon must be rational, got {args.epsilon!r}")
    params = build_schedule(args.l, eps, args.K)
    proc = CodedProcess(params, W=args.window or None)
    try:
        estimates = [
            estimate_near_diagonal(
                proc,
                k,
                pair_samples=args.pairs,
                past_samples=args.past or None,
                seed=args.seed + k - 1,
            )
            for k in range(1, args.K + 1)
        ]
    except SparsePool as exc:
        raise UsageError(f"{exc}; raise --past or shorten --window") from None
    control = None
    if not args.skip_control:
        control = control_near_diagonal(
            [e.scale for e in estimates], pair_samples=args.pairs, seed=args.seed
        )
    report = condition_violation_report(
        proc, estimates, beta_probes=_float_list(args.beta_probes, "--beta-probes"), control=control
    )
    payload = {
        "schedule": params.to_dict(),
        "window": proc.W,
        "pairs": args.pairs,
        "seed": args.seed,
        "report": report.to_dict(),
        "all_floors_met": all(e.meets_floor for e in estimates),
    }
    ws.write_json(payload)
    ws.write_csv(
        ("stage", "n", "estimate", "std_err", "floor", "meets_floor"),
        [
            (k + 1, e.scale, e.estimate, e.std_err, e.floor, int(e.meets_floor))
            for k, e in enumerate(estimates)
        ],
    )
    return EXIT_OK


def cmd_conditions(args, ws: Workspace) -> int:
    src = _make_source(args)
    est = fit_condition_exponents(src, m_max=args.m_max)
    rows = [
        (ess.k, ess.depth, float(ess.value), float(near.value))
        for ess, near in est.rows
    ]
    ws.write_json(
        {
            "source": source_to_dict(src),
            "alpha_hat": est.alpha_hat,
            "beta_hat": est.beta_hat,
            "entropy_nats": chain_entropy(src),
            "m_max": args.m_max,
        }
    )
    ws.write_csv(("k", "depth", "ess_sup_mass", "near_diagonal_mass"), rows)
    return EXIT_OK


# -- wiring --------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=".", help="artifact directory (default: cwd)")


def build_parser() -> _Parser:
    top = _Parser(prog="betalab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a base from the orbit of 1")
    p.add_argument("--beta", required=True)
    p.add_argument("--depth", type=int, default=64, action=_Floor, floor=2)
    p.add_argument("--alphabet", type=int, default=0, action=_Floor, floor=0,
                   help="also report gap constants for this digit alphabet")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("expand", help="greedy digits of a point")
    p.add_argument("--beta", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--digits", type=int, default=32, action=_Floor, floor=1)
    p.add_argument("--method", default="auto", choices=("auto", "interval", "exact"))
    _add_common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("parry", help="invariant density grid, normalizer, Fourier prefix")
    p.add_argument("--beta", required=True)
    p.add_argument("--grid", type=int, default=512, action=_Floor, floor=1)
    p.add_argument("--tol", type=float, default=1e-10, action=_Floor, floor=0.0)
    p.add_argument("--fourier", type=int, default=8, action=_Floor, floor=0)
    _add_common(p)
    p.set_defaults(func=cmd_parry)

    p = sub.add_parser("orbit", help="certified orbit enclosures and digits")
    p.add_argument("--beta", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--steps", type=int, default=100, action=_Floor, floor=1)
    p.add_argument("--digits-required", type=int, default=12, action=_Floor, floor=1)
    p.add_argument("--method", default="auto", choices=("auto", "interval", "exact"))
    _add_common(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("weyl", help="exponential-sum averages along one orbit")
    p.add_argument("--beta", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--m", default="1", help="comma-separated frequencies")
    p.add_argument("--N", type=int, default=10000, action=_Floor, floor=1)
    p.add_argument("--digits-required", type=int, default=9, action=_Floor, floor=1)
    _add_common(p)
    p.set_defaults(func=cmd_weyl)

    p = sub.add_parser("decay", help="mean |S_N(m)| profile over mu-random starts")
    p.add_argument("--beta", required=True)
    p.add_argument("--a", type=int, default=2, action=_Floor, floor=2)
    p.add_argument("--iid", help="comma-separated digit probabilities")
    p.add_argument("--source", help="JSON Markov source file")
    p.add_argument("--N", type=int, default=20000, action=_Floor, floor=2)
    p.add_argument("--samples", type=int, default=128, action=_Floor, floor=MIN_SAMPLES)
    p.add_argument("--ms", default="1,2,3,4,5,6,7,8,512,640,768,896,1024")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fit-m-max", type=int, default=12, action=_Floor, floor=MIN_FIT_DEPTH,
                   why=" for a meaningful fit")
    p.add_argument("--workers", type=int, default=0, action=_Floor, floor=0,
                   help="sample processes, 0 for one per CPU")
    _add_common(p)
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser("exponent", help="closed-form rate vs grid minimax")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--grid", type=int, default=200, action=_Floor, floor=0,
                   help="grid resolution, 0 to skip")
    _add_common(p)
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser("lemma32", help="oscillatory-average bound sweep")
    p.add_argument("--mu", default="uniform", choices=("uniform", "parry", "selfsim"))
    p.add_argument("--beta", default="2")
    p.add_argument("--p0", type=float, default=0.5)
    p.add_argument("--p1", type=float, default=0.5)
    p.add_argument("--m", default="4,64,1024")
    p.add_argument("--r", default="0.05,0.15")
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--d", type=float, default=1.0)
    p.add_argument("--cloud", type=int, default=20000)
    p.add_argument("--nodes", type=int, default=256, action=_Floor, floor=1)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_lemma32)

    p = sub.add_parser("invariance", help="pushforward defect of empirical coefficients")
    p.add_argument("--beta", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--N", type=int, default=10000, action=_Floor, floor=1)
    p.add_argument("--degrees", type=int, default=64, action=_Floor, floor=1)
    p.add_argument("--digits-required", type=int, default=9, action=_Floor, floor=1)
    _add_common(p)
    p.set_defaults(func=cmd_invariance)

    p = sub.add_parser("selfsim", help="Bernoulli-convolution transform profile")
    p.add_argument("--beta", required=True)
    p.add_argument("--p0", type=float, default=0.5)
    p.add_argument("--p1", type=float, default=0.5)
    p.add_argument("--xi-max", type=float, default=1e4)
    p.add_argument("--level", type=int, default=0, action=_Floor, floor=0,
                   help="singularity witness level, 0 to skip")
    p.add_argument("--samples", type=int, default=200000)
    p.add_argument("--grid-k", type=int, default=64, action=_Floor, floor=1)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_selfsim)

    p = sub.add_parser("counterexample", help="staged marker process and near-diagonal floor")
    p.add_argument("--l", type=int, default=3, action=_Floor, floor=3)
    p.add_argument("--epsilon", default="1/4")
    p.add_argument("--K", type=int, default=2, action=_Floor, floor=1)
    p.add_argument("--pairs", type=int, default=100000)
    p.add_argument("--past", type=int, default=0, help="pool size, 0 for auto")
    p.add_argument("--window", type=int, default=0, help="conditioning window, 0 for span")
    p.add_argument("--beta-probes", default="0.1,0.25,0.5,1.0")
    p.add_argument("--skip-control", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("conditions", help="interval and near-diagonal mass exponents")
    p.add_argument("--iid", help="comma-separated digit probabilities")
    p.add_argument("--source", help="JSON Markov source file")
    p.add_argument("--m-max", type=int, default=12, action=_Floor, floor=MIN_FIT_DEPTH,
                   why=" for a meaningful fit")
    _add_common(p)
    p.set_defaults(func=cmd_conditions)

    return top


@functools.cache
def _parser() -> _Parser:
    """The parser, built on the first `main` call rather than at import, since
    set_defaults(func=...) keeps the cmd_* functions as they are at build time."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        _check_finite(args)
        ws = Workspace(args.command, args.out)
        code = args.func(args, ws)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as exc:
        # artifacts are already on disk at this point; the code is the signal
        ws.write_manifest(args)
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (PrecisionExhausted, UndeterminedValue) as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except CertificationError as exc:
        # no manifest: what such a run wrote is not a certified result
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    ws.write_manifest(args)
    return code


if __name__ == "__main__":
    sys.exit(main())
