"""Dependency-free line-coverage measurement for the test suite.

CI measures coverage with pytest-cov / coverage.py (see the ``coverage``
job in ``.github/workflows/ci.yml``). Development containers for this
repo don't ship those packages, so this script approximates the same
line metric with nothing but the standard library:

- *executable lines* come from compiling every ``src/repro`` module and
  collecting the line numbers its code objects report (``co_lines``) —
  the same universe coverage.py derives from the AST, minus a few edge
  cases (docstring-only bodies, dead branches the compiler folds);
- *executed lines* are collected by a ``sys.settrace`` hook filtered to
  ``src/repro`` frames, installed before pytest imports the package so
  import-time lines count too.

Expect parity with coverage.py within a couple of percent; that margin
is why the CI ``--cov-fail-under`` floor sits below the measured number
(the floor-raise workflow is documented in docs/benchmarks.md — raise
the floor only from a number this script or CI actually reported).

Usage::

    PYTHONPATH=src python tools/measure_coverage.py [pytest args]

Defaults to the full quiet suite when no pytest args are given. Prints a
per-module table and the total percentage, and exits with pytest's exit
code so it can wrap the suite in automation.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

_executed: dict[str, set[int]] = {}
_src_prefix = str(SRC)


def _local_tracer(frame, event, arg):
    if event == "line":
        _executed.setdefault(frame.f_code.co_filename, set()).add(
            frame.f_lineno
        )
    return _local_tracer


def _global_tracer(frame, event, arg):
    if event != "call":
        return None
    code = frame.f_code
    if not code.co_filename.startswith(_src_prefix):
        return None
    # The def/class line itself executes as the enclosing scope's 'line'
    # event; the call event marks the body entry.
    _executed.setdefault(code.co_filename, set()).add(frame.f_lineno)
    return _local_tracer


def _executable_lines(path: Path) -> set[int]:
    """Line numbers coverage.py would consider executable, via bytecode."""
    lines: set[int] = set()
    try:
        top = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    except SyntaxError:
        return lines
    stack = [top]
    while stack:
        code = stack.pop()
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                stack.append(const)
        for _, _, lineno in code.co_lines():
            if lineno is not None:
                lines.add(lineno)
    return lines


def main(argv: list[str]) -> int:
    pytest_args = argv or ["-q", "-p", "no:cacheprovider", "tests"]

    sys.settrace(_global_tracer)
    threading.settrace(_global_tracer)
    import pytest  # imported after the tracer: conftest imports count

    exit_code = pytest.main(pytest_args)
    sys.settrace(None)
    threading.settrace(None)

    rows = []
    total_executable = total_executed = 0
    for path in sorted(SRC.rglob("*.py")):
        executable = _executable_lines(path)
        if not executable:
            continue
        executed = _executed.get(str(path), set()) & executable
        total_executable += len(executable)
        total_executed += len(executed)
        rows.append(
            (
                str(path.relative_to(REPO)),
                len(executed),
                len(executable),
                100.0 * len(executed) / len(executable),
            )
        )

    width = max(len(name) for name, *_ in rows) if rows else 20
    print(f"\n{'module':<{width}} {'run':>6} {'lines':>6} {'cover':>7}")
    for name, executed, executable, pct in rows:
        print(f"{name:<{width}} {executed:>6} {executable:>6} {pct:>6.1f}%")
    total_pct = (
        100.0 * total_executed / total_executable if total_executable else 0.0
    )
    print(
        f"{'TOTAL':<{width}} {total_executed:>6} {total_executable:>6} "
        f"{total_pct:>6.1f}%"
    )
    return int(exit_code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
