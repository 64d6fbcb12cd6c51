"""Span tracer for the traced benchmark pass, installed from outside `betalab`.

`install` replaces the functions and methods listed in TRACED with timing
wrappers, in every `betalab` module namespace that refers to them, so the
program itself is not edited.  Each call becomes a span: its duration, its
self time (duration minus the traced spans it caused) and, for a few
functions, a count read from its arguments or result.  `layer_metrics` turns
the spans into the per-layer metrics of BENCHMARK.json.

Private functions are wrapped only to count: `_interval_orbit_attempt` and
`_exact_orbit` (orbit attempts and exact fallbacks), and the two
`_lhs_quadrature_*` kernels (complex exponentials evaluated).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter

# module -> names of the functions (or Class.method) timed as that layer
TRACED = {
    "precision": ["parse_beta", "orbit_with_digits", "tb_orbit", "tb_orbit_floats", "tb_apply",
                  "_interval_orbit_attempt", "_exact_orbit"],
    "exactnum": ["sqrt_bounds", "ln_bounds", "round_down", "round_up",
                 "Quadratic.floor", "Quadratic.bounds", "Quadratic.cmp_rational"],
    "parry": ["ParryDensity.density_at", "ParryDensity.normalizer", "ParryDensity.interval_mass",
              "ParryDensity.fourier", "ParryDensity.sample", "ParryDensity.grid_rows",
              "preimage_of_interval"],
    "sources": ["sample_point", "fit_condition_exponents", "chain_entropy", "load_source",
                "iid_source"],
    "weyl": ["weyl_sums", "mean_decay_profile", "invariance_defect", "predicted_exponent",
             "optimize_exponent_grid", "lemma32_check", "_lhs_quadrature_cloud",
             "_lhs_quadrature_uniform"],
    "selfsimilar": ["ssm_fourier", "ssm_fourier_many", "ssm_selfsim_residual", "ssm_sample",
                    "singularity_witness", "uniform_grid", "ssm_invariance_check",
                    "ssm_decay_profile"],
    "coding": ["build_schedule", "schedule_from_dict", "estimate_near_diagonal",
               "control_near_diagonal", "condition_violation_report", "fit_polynomial_envelope"],
    "betashift": ["classify", "greedy_expansion", "expansion_of_one", "specification_constants",
                  "format_digits", "admissibility_rule", "is_admissible"],
    "cli": ["main", "cmd_classify", "cmd_expand", "cmd_parry", "cmd_orbit", "cmd_weyl",
            "cmd_decay", "cmd_exponent", "cmd_lemma32", "cmd_invariance", "cmd_selfsim",
            "cmd_counterexample", "cmd_conditions"],
}

ORBIT_FUNCS = {"precision.orbit_with_digits", "precision.tb_orbit", "precision.tb_orbit_floats"}
ORBIT_CURVE = (5000, 10000, 20000)  # orbit lengths of the decay probe


class _Span:
    __slots__ = ("name", "layer", "t0", "child_ns", "tried_interval")

    def __init__(self, name: str, layer: str):
        self.name = name
        self.layer = layer
        self.child_ns = 0
        self.tried_interval = False
        self.t0 = time.perf_counter_ns()


class Tracer:
    """Spans kept in memory as per-name totals, plus the counts the metrics need."""

    def __init__(self):
        self.stack: list[_Span] = []
        self.calls: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.layer_outer_ns: Counter = Counter()  # time in a layer, nested calls counted once
        self._layer_depth: Counter = Counter()
        self.orbit_runs: list[tuple[int, int]] = []  # (n_steps, ns) of outermost orbit calls
        self.counts: Counter = Counter()
        self.lemma32_lhs: list[float] = []
        self.densities: dict[int, object] = {}  # ParryDensity objects seen, by id
        self.invariance_ns = 0

    def enter(self, name: str, layer: str) -> _Span:
        span = _Span(name, layer)
        if name == "precision._interval_orbit_attempt":
            self.counts["interval_attempts"] += 1
            orbit = self._innermost_orbit()
            if orbit is not None:
                orbit.tried_interval = True
        elif name == "precision._exact_orbit":
            orbit = self._innermost_orbit()
            if orbit is not None and orbit.tried_interval:
                self.counts["exact_fallbacks"] += 1
        self._layer_depth[layer] += 1
        self.stack.append(span)
        return span

    def leave(self, span: _Span) -> int:
        dur = time.perf_counter_ns() - span.t0
        self.stack.pop()
        self._layer_depth[span.layer] -= 1
        if self._layer_depth[span.layer] == 0:
            self.layer_outer_ns[span.layer] += dur
        self.calls[span.name] += 1
        self.incl_ns[span.name] += dur
        self.self_ns[span.name] += dur - span.child_ns
        if self.stack:
            self.stack[-1].child_ns += dur
        return dur

    def _innermost_orbit(self) -> _Span | None:
        for span in reversed(self.stack):
            if span.name in ORBIT_FUNCS:
                return span
        return None

    def in_command(self, cmd: str) -> bool:
        return any(s.name == f"cli.{cmd}" for s in self.stack)

    def outermost(self, names: set) -> bool:
        return not any(s.name in names for s in self.stack)


# -- hooks: counts read from a call's arguments and result -------------------------


def _orbit_hook(tr: Tracer, args: dict, result, dur: int) -> None:
    if tr.outermost(ORBIT_FUNCS):
        tr.orbit_runs.append((int(args["n_steps"]), dur))


def _weyl_invariance_hook(tr: Tracer, args: dict, result, dur: int) -> None:
    if tr.in_command("cmd_invariance"):
        tr.invariance_ns += dur


def _density_hook(tr: Tracer, args: dict, result, dur: int) -> None:
    tr.densities[id(args["self"])] = args["self"]


def _grid_rows_hook(tr: Tracer, args: dict, result, dur: int) -> None:
    _density_hook(tr, args, result, dur)
    tr.counts["grid_rows"] += len(result)


HOOKS = {
    "precision.orbit_with_digits": _orbit_hook,
    "precision.tb_orbit": _orbit_hook,
    "precision.tb_orbit_floats": _orbit_hook,
    "sources.sample_point": lambda tr, a, r, d: tr.counts.update(digits_sampled=int(a["digits"])),
    "weyl.mean_decay_profile": lambda tr, a, r, d: tr.counts.update(decay_samples=int(a["samples"])),
    "weyl.weyl_sums": _weyl_invariance_hook,
    "weyl.invariance_defect": _weyl_invariance_hook,
    "weyl.lemma32_check": lambda tr, a, r, d: tr.lemma32_lhs.append(r.lhs),
    "weyl._lhs_quadrature_cloud": lambda tr, a, r, d: tr.counts.update(
        lemma32_exp_evals=len(a["ys"]) * int(a["q"])),
    "weyl._lhs_quadrature_uniform": lambda tr, a, r, d: tr.counts.update(
        lemma32_exp_evals=2 * int(a["q"])),
    "coding.estimate_near_diagonal": lambda tr, a, r, d: tr.counts.update(
        pairs_requested=int(a["pair_samples"]), pairs_matched=int(r.n_pairs)),
    "parry.ParryDensity.grid_rows": _grid_rows_hook,
    "parry.ParryDensity.density_at": _density_hook,
    "parry.ParryDensity.normalizer": _density_hook,
    "parry.ParryDensity.interval_mass": _density_hook,
    "parry.ParryDensity.fourier": _density_hook,
    "parry.ParryDensity.sample": _density_hook,
}


def _wrap(tr: Tracer, name: str, layer: str, fn):
    hook = HOOKS.get(name)
    sig = inspect.signature(fn) if hook else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tr.enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = tr.leave(span)
        if hook is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(tr, bound.arguments, result, dur)
        return result

    return traced


def install(tr: Tracer) -> None:
    """Wrap every function in TRACED wherever a `betalab` module refers to it."""
    modules = {layer: importlib.import_module(f"betalab.{layer}") for layer in TRACED}
    namespaces = [m for n, m in sys.modules.items() if n == "betalab" or n.startswith("betalab.")]
    for layer, names in TRACED.items():
        mod = modules[layer]
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, _wrap(tr, f"{layer}.{name}", layer, cls.__dict__[meth]))
                continue
            orig = getattr(mod, name)
            wrapped = _wrap(tr, f"{layer}.{name}", layer, orig)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, attr, wrapped)


# -- per-layer metrics --------------------------------------------------------------


def _s(ns: int) -> float:
    return ns / 1e9


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when the layer did no such work on this workload."""
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every per-layer metric of BENCHMARK.json.

    A metric of a layer that the workload does not reach reads 0.
    """
    orbit_ns = sum(ns for _, ns in tr.orbit_runs)
    orbit_steps = sum(n for n, _ in tr.orbit_runs)
    curve = {}
    for n_ref in ORBIT_CURVE:
        runs = [ns for n, ns in tr.orbit_runs if abs(n - n_ref) <= n_ref // 50]
        curve[n_ref] = _s(sum(runs)) / len(runs) if runs else 0.0
    pts = [(math.log(n), math.log(t)) for n, t in curve.items() if t > 0]
    growth = 0.0
    if len(pts) >= 2:
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        growth = sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)

    decay_ns = tr.incl_ns["weyl.mean_decay_profile"]
    cli_self = sum(ns for name, ns in tr.self_ns.items() if name.startswith("cli."))
    exactnum_calls = sum(c for name, c in tr.calls.items() if name.startswith("exactnum."))
    selfsim_calls = sum(c for name, c in tr.calls.items() if name.startswith("selfsimilar."))
    c = tr.counts
    return {
        "precision.orbit_s": (_s(orbit_ns), "s"),
        "precision.orbit_calls": (len(tr.orbit_runs), "count"),
        "precision.orbit_steps": (orbit_steps, "count"),
        "precision.steps_per_s": (_ratio(orbit_steps, _s(orbit_ns)), "1/s"),
        "precision.orbit_s.N5000": (curve[5000], "s"),
        "precision.orbit_s.N10000": (curve[10000], "s"),
        "precision.orbit_s.N20000": (curve[20000], "s"),
        "precision.growth_exponent": (growth, "1"),
        "precision.interval_attempts": (c["interval_attempts"], "count"),
        "precision.exact_fallbacks": (c["exact_fallbacks"], "count"),
        "exactnum.s": (_s(tr.layer_outer_ns["exactnum"]), "s"),
        "exactnum.calls": (exactnum_calls, "count"),
        "parry.grid_rows_s": (_s(tr.incl_ns["parry.ParryDensity.grid_rows"]), "s"),
        "parry.density_at_calls": (tr.calls["parry.ParryDensity.density_at"], "count"),
        "parry.interval_mass_calls": (tr.calls["parry.ParryDensity.interval_mass"], "count"),
        "parry.normalizer_calls": (tr.calls["parry.ParryDensity.normalizer"], "count"),
        "parry.normalizer_calls_per_row": (
            _ratio(tr.calls["parry.ParryDensity.normalizer"], c["grid_rows"]), "calls/row"),
        "parry.fourier_s": (_s(tr.incl_ns["parry.ParryDensity.fourier"]), "s"),
        "parry.sample_s": (_s(tr.incl_ns["parry.ParryDensity.sample"]), "s"),
        "parry.terms": (max((len(d._orbit) for d in tr.densities.values()), default=0), "count"),
        "sources.sample_point_s": (_s(tr.incl_ns["sources.sample_point"]), "s"),
        "sources.digits_sampled": (c["digits_sampled"], "count"),
        "sources.fit_s": (_s(tr.incl_ns["sources.fit_condition_exponents"]), "s"),
        "weyl.decay_s": (_s(decay_ns), "s"),
        "weyl.decay_self_s": (_s(tr.self_ns["weyl.mean_decay_profile"]), "s"),
        "weyl.s_per_sample": (_ratio(_s(decay_ns), c["decay_samples"]), "s"),
        "weyl.invariance_s": (_s(tr.invariance_ns), "s"),
        "weyl.lemma32_s": (_s(tr.incl_ns["weyl.lemma32_check"]), "s"),
        "weyl.lemma32_calls": (tr.calls["weyl.lemma32_check"], "count"),
        "weyl.lemma32_exp_evals": (c["lemma32_exp_evals"], "count"),
        "weyl.lemma32_lhs_evals": (len(tr.lemma32_lhs), "count"),
        "weyl.lemma32_lhs_distinct": (len(set(tr.lemma32_lhs)), "count"),
        "selfsimilar.s": (_s(tr.layer_outer_ns["selfsimilar"]), "s"),
        "selfsimilar.calls": (selfsim_calls, "count"),
        "coding.s": (_s(tr.layer_outer_ns["coding"]), "s"),
        "coding.matched_pair_share": (_ratio(c["pairs_matched"], c["pairs_requested"]), "1"),
        "betashift.s": (_s(tr.layer_outer_ns["betashift"]), "s"),
        "cli.self_s": (_s(cli_self), "s"),
    }


def span_table(tr: Tracer) -> dict:
    """Per-span totals, for the run report."""
    return {
        name: {"calls": tr.calls[name], "incl_s": _s(tr.incl_ns[name]), "self_s": _s(tr.self_ns[name])}
        for name in sorted(tr.calls)
    }
