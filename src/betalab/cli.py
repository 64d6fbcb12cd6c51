"""Batch front-end: subcommands that write JSON/CSV artifacts plus a manifest.

Every experiment is a pure function of its flags, so the manifest (command,
full argument set, output names, library versions; deliberately no timestamps)
is enough to reproduce the artifact bytes.  Parallel sample loops merge in
index order, so --workers does not change any output either, but replay
guarantees are only claimed for --workers 1.

Bases (--beta) and points (--x) share one descriptor grammar,
`precision.parse_exact`; a descriptor it rejects, a zero denominator
included, is a usage error.

Exit codes: 0 success, 1 usage or domain error, 2 certified invariant
violation (a bound the library promises was breached beyond its stated error
budget) or certification failure (an internal soundness check failed), 3
precision exhaustion.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from .betashift import classify, format_digits, greedy_expansion, specification_constants
from .coding import (
    CodedProcess,
    build_schedule,
    condition_violation_report,
    control_near_diagonal,
    estimate_near_diagonal,
)
from .parry import ParryDensity
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
    chain_entropy,
    fit_condition_exponents,
    iid_source,
    load_source,
    source_to_dict,
)
from .weyl import (
    invariance_defects,
    lemma32_check,
    mean_decay_profile,
    optimize_exponent_grid,
    predicted_exponent,
    weyl_sums,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_PRECISION = 3


class UsageError(Exception):
    pass


class InvariantViolation(Exception):
    """A certified bound failed beyond its combined error budget."""


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on bad flags; route everything through
    # UsageError so the exit-code contract stays ours
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


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


class Workspace:
    """Artifact writer for one command invocation; records output names."""

    def __init__(self, command: str, out_dir: str):
        self.command = command
        self.dir = out_dir
        self.outputs: list[str] = []
        os.makedirs(out_dir, exist_ok=True)

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def write_json(self, payload: dict) -> None:
        name = f"{self.command}.json"
        with open(self._path(name), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
            fh.write("\n")
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
    payload = {
        "beta": args.beta,
        "verdict": nc.verdict,
        "depth": nc.depth,
        "hit_zero_at": nc.hit_zero_at,
        "period": list(nc.period) if nc.period else None,
        "max_zero_run": nc.max_zero_run,
        "digits": list(nc.digits),
        "digit_string": format_digits(nc.digits),
    }
    if args.alphabet:
        sc = specification_constants(b, args.alphabet, args.depth)
        payload["m_b_lower"] = str(sc.m_b_lower)
        payload["m_b_lower_float"] = float(sc.m_b_lower)
        payload["discontinuity_budget"] = sc.discontinuity_budget
        payload["alphabet"] = args.alphabet
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


def cmd_parry(args, ws: Workspace) -> int:
    if args.grid < 1:
        raise UsageError(f"--grid must be at least 1, got {args.grid}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise UsageError(f"--tol must be finite and positive, got {args.tol}")
    b = parse_beta(args.beta)
    den = ParryDensity(b)
    rows = den.grid_rows(args.grid, tol=args.tol)
    z_lo, z_hi = den.normalizer(tol=args.tol)
    fourier = []
    for m in range(1, args.fourier + 1):
        fc = den.fourier(m, tol=args.tol)
        fourier.append({"m": m, "value": fc.value, "err": fc.err})
    ws.write_json(
        {
            "beta": args.beta,
            "tol": args.tol,
            "normalizer": {
                "lo": str(z_lo),
                "hi": str(z_hi),
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
    cps = tuple(sorted({max(1, n // 4), max(1, n // 2), n}))
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
        return ParryDensity(b).sample(args.cloud, args.seed)
    if args.mu == "selfsim":
        meas = SelfSimilarMeasure(b, args.p0, args.p1)
        return ssm_sample(meas, args.cloud, seed=args.seed)
    raise UsageError(f"unknown measure {args.mu!r}")


def cmd_lemma32(args, ws: Workspace) -> int:
    b = parse_beta(args.beta)
    mu = _lemma32_measure(args, b)
    configs = []
    violations = 0
    for m in _number_list(args.m, int):
        for r in _number_list(args.r, float):
            res = lemma32_check(
                mu,
                args.c,
                args.d,
                m,
                r,
                b,
                quad_nodes=args.nodes,
                cloud_size=args.cloud,
                seed=args.seed,
            )
            bad = res.slack < -res.quad_error
            violations += bad
            configs.append(
                {
                    "m": m,
                    "r": r,
                    "lhs": res.lhs,
                    "rhs": res.rhs,
                    "slack": res.slack,
                    "quad_error": res.quad_error,
                    "mass_cd": res.mass_cd,
                    "near_mass": res.near_mass,
                    "far_bound": res.far_bound,
                    "nodes": res.nodes,
                    "violated": bool(bad),
                }
            )
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
    inv = ssm_invariance_check(
        meas, uniform_grid(args.grid_k), samples=args.samples, seed=args.seed
    )
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
        "invariance": {
            "max_defect": inv.max_defect,
            "sigma_at_max": inv.sigma_at_max,
            "within_budget": inv.within_budget,
            "n_intervals": inv.n_intervals,
            "n_samples": inv.n_samples,
        },
        "residual_max": residual,
    }
    if args.level > 0:
        cloud = ssm_sample(meas, args.samples, seed=args.seed)
        w = singularity_witness(meas, cloud, args.level)
        payload["witness"] = {
            "level": w.level,
            "coverage_fraction": w.coverage_fraction,
            "total_length": w.total_length,
        }
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
    eps = Fraction(args.epsilon)
    params = build_schedule(args.l, eps, args.K)
    proc = CodedProcess(params, W=args.window or None)
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
    control = None
    if not args.skip_control:
        control = control_near_diagonal(
            [e.scale for e in estimates], pair_samples=args.pairs, seed=args.seed
        )
    report = condition_violation_report(
        proc, estimates, beta_probes=_number_list(args.beta_probes, float), control=control
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
        for ess, near in est.rows()
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

    p = sub.add_parser("classify", parents=[], help="classify a base from the orbit of 1")
    p.add_argument("--beta", required=True)
    p.add_argument("--depth", type=int, default=64)
    p.add_argument("--alphabet", type=int, default=0, help="also report gap constants for this digit alphabet")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("expand", help="greedy digits of a point")
    p.add_argument("--beta", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--digits", type=int, default=32)
    p.add_argument("--method", default="auto", choices=("auto", "interval", "exact"))
    _add_common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("parry", help="invariant density grid, normalizer, Fourier prefix")
    p.add_argument("--beta", required=True)
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--fourier", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=cmd_parry)

    p = sub.add_parser("orbit", help="certified orbit enclosures and digits")
    p.add_argument("--beta", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--digits-required", type=int, default=12)
    p.add_argument("--method", default="auto", choices=("auto", "interval", "exact"))
    _add_common(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("weyl", help="exponential-sum averages along one orbit")
    p.add_argument("--beta", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--m", default="1", help="comma-separated frequencies")
    p.add_argument("--N", type=int, default=10000)
    p.add_argument("--digits-required", type=int, default=9)
    _add_common(p)
    p.set_defaults(func=cmd_weyl)

    p = sub.add_parser("decay", help="mean |S_N(m)| profile over mu-random starts")
    p.add_argument("--beta", required=True)
    p.add_argument("--a", type=int, default=2)
    p.add_argument("--iid", help="comma-separated digit probabilities")
    p.add_argument("--source", help="JSON Markov source file")
    p.add_argument("--N", type=int, default=20000)
    p.add_argument("--samples", type=int, default=128)
    p.add_argument("--ms", default="1,2,3,4,5,6,7,8,512,640,768,896,1024")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fit-m-max", type=int, default=12)
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser("exponent", help="closed-form rate vs grid minimax")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--grid", type=int, default=200, help="grid resolution, 0 to skip")
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
    p.add_argument("--nodes", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_lemma32)

    p = sub.add_parser("invariance", help="pushforward defect of empirical coefficients")
    p.add_argument("--beta", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--N", type=int, default=10000)
    p.add_argument("--degrees", type=int, default=64)
    p.add_argument("--digits-required", type=int, default=9)
    _add_common(p)
    p.set_defaults(func=cmd_invariance)

    p = sub.add_parser("selfsim", help="Bernoulli-convolution transform profile")
    p.add_argument("--beta", required=True)
    p.add_argument("--p0", type=float, default=0.5)
    p.add_argument("--p1", type=float, default=0.5)
    p.add_argument("--xi-max", type=float, default=1e4)
    p.add_argument("--level", type=int, default=0, help="singularity witness level, 0 to skip")
    p.add_argument("--samples", type=int, default=200000)
    p.add_argument("--grid-k", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_selfsim)

    p = sub.add_parser("counterexample", help="staged marker process and near-diagonal floor")
    p.add_argument("--l", type=int, default=3)
    p.add_argument("--epsilon", default="1/4")
    p.add_argument("--K", type=int, default=2)
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
    p.add_argument("--m-max", type=int, default=12)
    _add_common(p)
    p.set_defaults(func=cmd_conditions)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
