"""One pass over a workload's commands, in a fresh interpreter.

    python3 worker.py SPEC_JSON PASS_DIR RESULT_JSON [--trace]

Runs every command of the spec through `betalab.cli.main` in this process,
each writing its artifacts into PASS_DIR/<label>.  `wall_s` is the time of
the whole loop, artifact writing included; the import of `betalab` before it
is set-up, measured apart by run.py.  After the loop, and outside its time,
the worker hashes the artifacts, saves the kept orbit and, with --trace,
derives the per-layer metrics, then writes everything to RESULT_JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _keep_orbit(weyl, n_steps: int, kept: list) -> None:
    """Keep the float orbit of length n_steps that `weyl` computes, for the
    mpmath check after the pass; one extra call frame per orbit."""
    orig = weyl.tb_orbit_floats

    def keeping(b, x0, n, *args, **kwargs):
        out = orig(b, x0, n, *args, **kwargs)
        if n == n_steps:
            kept.append(out)
        return out

    weyl.tb_orbit_floats = keeping


def _artifacts(cmd_dir: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(cmd_dir.iterdir())
        if p.is_file()
    }


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    pass_dir, result_path = Path(argv[1]), Path(argv[2])
    traced = "--trace" in argv[3:]

    import betalab.cli
    import betalab.weyl

    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    kept: list = []
    if spec["capture_orbit"]:
        _keep_orbit(betalab.weyl, spec["capture_orbit"], kept)

    commands = []
    t_pass = time.perf_counter()
    for cmd in spec["commands"]:
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = betalab.cli.main(cmd["argv"] + ["--out", str(pass_dir / cmd["label"])])
            error = None
        except Exception:  # the pass must go on; the command counts as failed
            rc, error = -1, traceback.format_exc()
        commands.append({"label": cmd["label"], "rc": rc, "seconds": time.perf_counter() - t0,
                         "stdout": out.getvalue(), "error": error})
    wall_s = time.perf_counter() - t_pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    files = bytes_written = 0
    for c in commands:
        cmd_dir = pass_dir / c["label"]
        c["sha256"] = _artifacts(cmd_dir) if cmd_dir.is_dir() else {}
        files += len(c["sha256"])
        bytes_written += sum(p.stat().st_size for p in cmd_dir.glob("*") if p.is_file())
    if kept:
        import numpy as np

        np.save(pass_dir / "kept_orbit.npy", np.asarray(kept[-1], dtype=float))
    result = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "commands": commands}
    if tracer is not None:
        import tracing

        layers = tracing.layer_metrics(tracer)
        layers["cli.bytes_written"] = (bytes_written, "bytes")
        layers["cli.files_written"] = (files, "count")
        result["layers"] = layers
        result["spans"] = tracing.span_table(tracer)
    result_path.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
