"""Print every line of the library that the test suite never runs.

usage (from anywhere):
    python3 tools/line_coverage.py [PYTEST_ARG ...]

Runs pytest in this process, on this checkout's ``tests`` directory or on
the given arguments, with ``sys.settrace`` and ``threading.settrace`` set,
so the helper threads of a Monte-Carlo run are traced too.  Only frames of
code under ``src/jacobi_fading`` get a line tracer; it records the lines
they run.  A module's executable lines are those its compiled code objects
list in ``co_lines()``, nested code objects included.  A function's own
first line is left out: the enclosing code runs it as the ``def``.  After
pytest's report, each executable line no test ran goes to standard output
as ``<module>.py:<line>``, in order, then a count.  Lines inside a
module's ``if __name__ == "__main__":`` block run only when the module is
a script, so they are listed with a ``(__main__ block)`` note and do not
count.  Needs nothing beyond pytest; the suite takes about 1.5x as long
under the tracer.  The exit code is pytest's where it did not run the
tests (2 and up), 1 where any other library line never ran, else 0.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
LIBRARY = os.path.join(ROOT, "src", "jacobi_fading")


def _executable_lines(path: str) -> set[int]:
    with open(path) as f:
        code = compile(f.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None: no line; 0: a module's entry
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                lines.discard(const.co_firstlineno)
                stack.append(const)
    return lines


def _main_block_lines(path: str) -> set[int]:
    """The lines of the module's top-level ``if __name__ == "__main__":`` blocks."""
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    return {
        line
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        for line in range(node.lineno, node.end_lineno + 1)
    }


def main(argv: list[str] | None = None) -> int:
    import pytest

    modules = {os.path.join(LIBRARY, name): name for name in os.listdir(LIBRARY) if name.endswith(".py")}
    ran: dict[str, set[int]] = {path: set() for path in modules}
    owner: dict[str, set[int] | None] = {}  # co_filename -> its set of run lines, or None outside the library

    def call_tracer(frame, event, arg):
        name = frame.f_code.co_filename
        lines = owner.get(name, False)
        if lines is False:
            lines = owner[name] = ran.get(os.path.realpath(name))
        if lines is None:
            return None

        def tracer(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return tracer

        return tracer

    threading.settrace(call_tracer)
    sys.settrace(call_tracer)
    try:
        tests = os.path.join(ROOT, "tests")
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", tests])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code >= 2:
        return int(code)
    missed, counted = [], 0
    for path in sorted(modules):
        script = _main_block_lines(path)
        for line in sorted(_executable_lines(path) - ran[path]):
            missed.append(f"{modules[path]}:{line}" + (" (__main__ block)" if line in script else ""))
            counted += line not in script
    print("\n".join(missed))
    print(f"{len(missed)} library lines never ran, {counted} of them outside a __main__ block")
    return 1 if counted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
