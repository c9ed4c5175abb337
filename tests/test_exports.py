"""Every name the package and its modules export resolves, the CLI's
import graph stays free of scipy, which only the tests need, and argument
range checks and reads of ``ChannelDims.complement`` live in ``ensembles``
alone."""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import jacobi_fading

MODULES = ["jacobi_fading"] + [
    f"jacobi_fading.{info.name}" for info in pkgutil.iter_modules(jacobi_fading.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    stale = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not stale, f"{name}.__all__ names missing attributes: {stale}"


def test_cli_import_loads_no_scipy():
    src = str(pathlib.Path(jacobi_fading.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import jacobi_fading.cli, sys; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "[]"


# Finiteness tests outside ensembles that are not argument range checks,
# by (module, function): each is named here so that no other slips in.
FINITENESS_TESTS_ALLOWED = {
    ("cli.py", "_parse_grid"),  # command-line grid text, before any library call
    ("cli.py", "_db_to_linear"),  # a command-line dB value, before any library call
    ("cli.py", "render"),  # refuses to write a non-finite result
    ("simulate.py", "_log_det_values"),  # a computed array, not an argument
    ("simulate.py", "_trace_values"),  # a computed array, not an argument
    ("simulate.py", "_sorted_sample"),  # a whole sample array, not a scalar argument
    ("specfun.py", "_inverse_lower"),  # the open end of a bisection bracket
}


def _is_inf(node):
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Attribute) and node.attr == "inf"


def _finiteness_tests(tree):
    """(enclosing function, line) of every isfinite call and comparison with inf."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        func = node.func if isinstance(node, ast.Call) else None
        # math.isfinite, np.isfinite, or a bare isfinite imported by name
        if getattr(func, "attr", getattr(func, "id", None)) == "isfinite" or (
            isinstance(node, ast.Compare) and any(map(_is_inf, [node.left, *node.comparators]))
        ):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_argument_range_checks_live_in_ensembles():
    # finite-and->=0 / finite-and->0 checks go through require_nonnegative and
    # require_positive, so every module raises the same messages
    package = pathlib.Path(jacobi_fading.__file__).parent
    found = [
        f"{path.name}:{line}: in {function}"
        for path in sorted(package.glob("*.py"))
        if path.name != "ensembles.py"
        for function, line in _finiteness_tests(ast.parse(path.read_text()))
        if (path.name, function) not in FINITENESS_TESTS_ALLOWED
    ]
    assert not found, "range checks outside ensembles:\n" + "\n".join(found)


def test_complement_is_read_in_ensembles_alone():
    # the k > 0 reduction ("dims if k == 0, else dims.complement") has one
    # home, ChannelDims.interior; every other module reads that
    package = pathlib.Path(jacobi_fading.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "ensembles.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "complement"
    ]
    assert not found, "reads of .complement outside ensembles:\n" + "\n".join(found)
