"""Line coverage of `src/betalab` under the test suite, standard library only.

    PYTHONPATH=src python tests/linecov.py [pytest arguments]

runs pytest in this process under `sys.settrace` (the whole suite when no
arguments are given) and prints, per module of `src/betalab`, the code lines
that no test ran, then the totals.  A code line is a line that the compiled
module gives bytecode to, in any of its code objects; a function's `def`
line counts as run when the function is called.  Subprocesses (the CLI tests
that start `betalab` in a child, `decay`'s pool workers) are not seen.

pytest does not collect this file: its name does not match `test_*.py`.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "betalab"


def code_lines(path: Path) -> set[int]:
    """Every line that some code object compiled from path runs."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run, by file name under PACKAGE."""
    files = {str(p): set() for p in PACKAGE.glob("*.py")}
    by_code_name: dict[str, set[int] | None] = {}  # co_filename as imported

    def lines_of(frame) -> set[int] | None:
        name = frame.f_code.co_filename
        if name not in by_code_name:
            by_code_name[name] = files.get(str(Path(name).resolve()))
        return by_code_name[name]

    def local(frame, event, arg):
        if event == "line":
            lines_of(frame).add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        hit = lines_of(frame)
        if hit is None:
            return None
        hit.add(frame.f_code.co_firstlineno)
        return local

    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, files


def _ranges(lines: list[int]) -> str:
    """Sorted line numbers as "a, c-d": consecutive lines as one range."""
    runs, first = [], lines[0]
    for prev, line in zip(lines, lines[1:] + [None]):
        if line != prev + 1:
            runs.append(f"{first}" if first == prev else f"{first}-{prev}")
            first = line
    return ", ".join(runs)


def main(argv: list[str]) -> int:
    code, hit = run(argv or ["-q", "-p", "no:cacheprovider"])
    total = unrun_total = 0
    for name in sorted(hit):
        lines = code_lines(Path(name))
        unrun = sorted(lines - hit[name])
        total += len(lines)
        unrun_total += len(unrun)
        if unrun:
            print(f"{Path(name).name}: {len(unrun)} unrun: {_ranges(unrun)}")
    print(f"unrun code lines: {unrun_total} of {total} (pytest exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
