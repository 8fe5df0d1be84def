"""The lines of src/rltsketch/ that no tier-1 test reaches.

Runs the tier-1 suite (pytest over pytest.ini's testpaths) in this process
under a sys.settrace tracer that records line events in the frames of
src/rltsketch/ only, then prints each executable line that never ran, as
path:line and its text, and their count. A module's executable lines are
the line numbers of its compiled code objects. Lines that run only in the
subprocesses some tests start are not seen. Tracing makes the suite about
three times slower. pytest does not collect this file (not test_*.py).

    python tests/line_coverage.py [pytest arguments]
"""
from __future__ import annotations

import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "rltsketch")


def executable_lines(path: str) -> set[int]:
    """The line numbers of the code compiled from path, less each nested
    code object's first line (its def or class line runs in the code that
    holds it) and the module's line 0."""
    with open(path) as fh:
        top = compile(fh.read(), path, "exec")
    lines, stack = set(), [top]
    while stack:
        code = stack.pop()
        first = None if code is top else code.co_firstlineno
        lines.update(line for _, _, line in code.co_lines() if line and line != first)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    os.chdir(ROOT)  # pytest.ini's testpaths and pythonpath are relative
    reached: set[tuple[str, int]] = set()

    def on_line(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(SRC + os.sep) else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for name in sorted(os.listdir(SRC)):
        path = os.path.join(SRC, name)
        if not name.endswith(".py"):
            continue
        with open(path) as fh:
            text = fh.read().splitlines()
        for line in sorted(executable_lines(path)):
            if (path, line) not in reached:
                missed += 1
                print(f"{os.path.relpath(path, ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{missed} executable lines of src/rltsketch/ not reached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
