"""Benchmark of `betalab`: one workload, timed end to end, its outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-reference

A run measures set-up (fresh interpreters importing `betalab.cli` and
building its parser, plus writing the workload's input files), then runs
whole passes over the workload's commands, each pass in a fresh worker
process, until S seconds have gone.  It reports the median pass wall time,
the median set-up time and the median peak RSS of the pass processes.
With --trace 1 it then runs one more pass with the span tracer installed
and reports the per-layer metrics instead.  After the timed part it checks
every command of every pass against computations made apart from the
program (checks.py).  The last line of stdout is one JSON object.

--write-reference runs one pass of every workload at seed 0 and records the
sha256 of each artifact in reference_hashes.json.  Runs at seed 0 report
which artifacts differ from that list; a difference is reported, not failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference_hashes.json"

SETUP_ROUNDS = 9  # measured set-ups per run; one more warms the bytecode cache
PASS_TIMEOUT = 150  # seconds; a pass takes about 10
# one BLAS/OpenMP thread per process, so the figures measure the program
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def _env() -> dict:
    return dict(os.environ, **THREAD_ENV)


def write_inputs(workload, run_dir: Path) -> None:
    for rel, text in workload.inputs.items():
        path = run_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def measure_setup(workload, run_dir: Path) -> list[float]:
    """Seconds from launching a fresh interpreter to a built `betalab.cli`
    parser, plus the time to write the workload's inputs, once per round."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import betalab.cli; betalab.cli.build_parser()")
    samples = []
    for i in range(SETUP_ROUNDS + 1):
        t0 = time.perf_counter()
        write_inputs(workload, run_dir)
        subprocess.run([sys.executable, "-c", code], env=_env(), check=True, timeout=60)
        if i:
            samples.append(time.perf_counter() - t0)
    return samples


def run_pass(workload, run_dir: Path, name: str, traced: bool) -> dict:
    spec = {
        "commands": [{"label": c.label, "argv": list(c.argv)} for c in workload.commands],
        "capture_orbit": workload.capture_orbit,
    }
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    pass_dir, result_path = run_dir / name, run_dir / f"{name}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(spec_path), str(pass_dir), str(result_path)]
    subprocess.run(cmd + (["--trace"] if traced else []), cwd=run_dir, env=_env(), check=True,
                   timeout=PASS_TIMEOUT)
    result = json.loads(result_path.read_text())
    result["dir"] = str(pass_dir)
    return result


def check_pass(workload, result: dict) -> list[dict]:
    pass_dir = Path(result["dir"])
    kept = pass_dir / "kept_orbit.npy"
    verdicts = []
    for cmd, got in zip(workload.commands, result["commands"]):
        outcome = checks.Outcome(
            out_dir=pass_dir / cmd.label,
            rc=got["rc"],
            stdout=got["stdout"],
            params=cmd.params,
            orbit=np.load(kept) if cmd.check == "invariance" and kept.exists() else None,
        )
        errors = checks.run_check(cmd.check, outcome)
        if got["error"]:
            errors.append(got["error"].strip().splitlines()[-1])
        verdicts.append({"label": cmd.label, "rc": got["rc"], "errors": errors})
    return verdicts


def hash_report(workload, passes: list[dict]) -> list[str]:
    """Lines on artifact hashes: stable across passes, and against the
    seed-0 reference list when this run is at seed 0."""
    lines = []
    first = {c["label"]: c["sha256"] for c in passes[0]["commands"]}
    for p in passes[1:]:
        for c in p["commands"]:
            if c["sha256"] != first[c["label"]]:
                lines.append(f"hashes: {c['label']} differs between passes of one run")
    if workload.seed == 0 and REFERENCE.exists():
        ref = json.loads(REFERENCE.read_text()).get(workload.name, {})
        diff = [label for label, h in first.items() if ref.get(label) != h]
        lines.append(f"hashes vs reference: {len(first) - len(diff)} of {len(first)} commands "
                     f"identical" + (f"; differ: {', '.join(diff)}" if diff else ""))
    return lines


def write_reference() -> int:
    ref = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 0)
        run_dir = OUT / "reference" / name
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        write_inputs(wl, run_dir)
        result = run_pass(wl, run_dir, "pass1", traced=False)
        ref[name] = {c["label"]: c["sha256"] for c in result["commands"]}
        print(f"{name}: {sum(len(h) for h in ref[name].values())} artifacts")
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "betalab" / "cli.py").is_file():
        print(f"bench: no betalab sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.build(args.workload, args.seed)
    run_dir = OUT / wl.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup = measure_setup(wl, run_dir)
    passes = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < args.seconds:
        passes.append(run_pass(wl, run_dir, f"pass{len(passes) + 1}", traced=False))
    traced = run_pass(wl, run_dir, "traced", traced=True) if args.trace else None

    checked = passes + ([traced] if traced else [])
    verdicts = [check_pass(wl, p) for p in checked]
    attempted = sum(len(v) for v in verdicts)
    failed = sum(1 for v in verdicts for c in v if c["rc"] != 0 or c["errors"])
    correct = not any(c["errors"] for v in verdicts for c in v if c["rc"] == 0)

    walls = [p["wall_s"] for p in passes]
    wall = statistics.median(walls)
    if traced:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in traced["layers"].items()}
        metrics["trace.overhead_s"] = {"value": traced["wall_s"] - wall, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                            "unit": "MB"},
        }

    report = {
        "workload": asdict(wl),
        "setup_s": setup,
        "passes": [{k: p[k] for k in ("wall_s", "peak_rss_mb", "commands")} for p in passes],
        "traced": traced,
        "checks": verdicts,
    }
    (run_dir / "report.json").write_text(json.dumps(report, indent=1, default=str))
    print(f"{wl.name} seed {wl.seed}: {len(passes)} passes, wall "
          + ", ".join(f"{w:.3f}" for w in walls) + " s")
    for p_verdicts in verdicts:
        for c in p_verdicts:
            for err in c["errors"]:
                print(f"FAILED {c['label']}: {err}")
    for line in hash_report(wl, passes):
        print(line)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
