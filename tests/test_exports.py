"""Every name the package and its modules export resolves, the CLI's
import graph stays free of scipy, which only the tests need, argument
range checks and mode-count checks live in ``ensembles`` alone,
``simulate`` keys one stream per channel shape, every eigensolve is one of
a named few, a feedback frame solves only s x s eigenproblems, nothing
sums by ``reduceat``, nothing calls a library QR, each sample set fills
one buffer, every indicator estimate is a count, and a closed-form curve
takes one quadrature pass."""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import jacobi_fading
from jacobi_fading import analytic, cli, simulate
from jacobi_fading.ensembles import ChannelDims
from jacobi_fading.feedback import SchemeConfig, run_feedback_scheme

MODULES = ["jacobi_fading"] + [
    f"jacobi_fading.{info.name}" for info in pkgutil.iter_modules(jacobi_fading.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    stale = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not stale, f"{name}.__all__ names missing attributes: {stale}"


def _child_stdout(code):
    """Standard output of ``python -c code`` in a fresh interpreter that imports this checkout's package."""
    src = str(pathlib.Path(jacobi_fading.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    code = (
        "import jacobi_fading.cli, sys; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert _child_stdout(code) == "[]"


def test_threaded_monte_carlo_loads_no_thread_pool_or_logging():
    # three chunks of trials on the caller and a helper thread
    argv = "rayleigh --mt 2 --mr 2 --m 8 --rho-bar-db 20 --trials 20000 --workers 2".split()
    code = (
        "import contextlib, io, sys; from jacobi_fading import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'logging')))"
    )
    assert _child_stdout(code) == "0 []"


# Finiteness tests outside ensembles that are not argument range checks,
# by (module, function): each is named here so that no other slips in.
FINITENESS_TESTS_ALLOWED = {
    ("cli.py", "_parse_grid"),  # command-line grid text, before any library call
    ("cli.py", "_db_to_linear"),  # a command-line dB value, before any library call
    ("cli.py", "render"),  # refuses to write a non-finite result
    ("analytic.py", "rho_norm"),  # a computed result, 1/x past the float range
    ("simulate.py", "_check_comparable"),  # SNR products computed from rho_bar, past the float range
    ("simulate.py", "_log_det_values"),  # a computed array, not an argument
    ("simulate.py", "_trace_values"),  # a computed array, not an argument
    ("simulate.py", "_sorted_sample"),  # a whole sample array, not a scalar argument
    ("specfun.py", "_inverse_lower"),  # the open end of a bisection bracket
}


def _is_inf(node):
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Attribute) and node.attr == "inf"


def _called_name(node):
    """The function name of a call, whether bare (f) or an attribute (np.f); else None."""
    func = node.func if isinstance(node, ast.Call) else None
    return getattr(func, "attr", getattr(func, "id", None))


def _sites(tree, hit):
    """(enclosing function, line) of every node of ``tree`` that ``hit`` accepts."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if hit(node):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def _finiteness_tests(tree):
    """(enclosing function, line) of every isfinite call and comparison with inf."""
    # math.isfinite, np.isfinite, or a bare isfinite imported by name
    return _sites(
        tree,
        lambda node: _called_name(node) == "isfinite"
        or (isinstance(node, ast.Compare) and any(map(_is_inf, [node.left, *node.comparators]))),
    )


def _package_sites(find, skip=()):
    """(module, enclosing function, line) of every site that ``find`` returns, module by module."""
    package = pathlib.Path(jacobi_fading.__file__).parent
    return [
        (path.name, function, line)
        for path in sorted(package.glob("*.py"))
        if path.name not in skip
        for function, line in find(ast.parse(path.read_text()))
    ]


def _check_allow_list(sites, allowed, what):
    """Every site is allowed, and every allowed (module, function) still has a site."""
    found = [f"{name}:{line}: in {function}" for name, function, line in sites if (name, function) not in allowed]
    assert not found, f"{what} outside the allow-list:\n" + "\n".join(found)
    stale = sorted(allowed - {(name, function) for name, function, _ in sites})
    assert not stale, f"allow-list entries with no {what}: {stale}"


def test_argument_range_checks_live_in_ensembles():
    # finite-and->=0 / finite-and->0 checks go through require_nonnegative and
    # require_positive, so every module raises the same messages
    sites = _package_sites(_finiteness_tests, skip={"ensembles.py"})
    _check_allow_list(sites, FINITENESS_TESTS_ALLOWED, "finiteness tests")


MODE_COUNTS = {"mt", "mr", "m"}


def _checks_mode_counts(node):
    """A require_integer_list call, or a require_integers call with an mt, mr or m keyword."""
    name = _called_name(node)
    return name == "require_integer_list" or (
        name == "require_integers" and any(kw.arg in MODE_COUNTS for kw in node.keywords)
    )


def test_mode_counts_are_checked_by_channel_dims():
    # mt, mr and m are validated in one place, ChannelDims; an entry point
    # that takes mode counts builds one instead of checking them itself
    package = pathlib.Path(jacobi_fading.__file__).parent
    found = [
        f"{path.name}:{line}: in {function}"
        for path in sorted(package.glob("*.py"))
        if path.name != "ensembles.py"
        for function, line in _sites(ast.parse(path.read_text()), _checks_mode_counts)
    ]
    assert not found, "mode counts checked outside ChannelDims:\n" + "\n".join(found)


# Functions of simulate.py that may call stream_key: the bidiagonal model is
# keyed once per channel shape, so every spectral estimator and
# sample_spectra read one sample set; the count repetition method's noise
# and symbols are not channel draws and keep streams of their own.
STREAM_KEYS_ALLOWED = {"_channel_key", "mc_repetition_error"}


def test_one_channel_stream_in_simulate():
    path = pathlib.Path(jacobi_fading.__file__).parent / "simulate.py"
    found = [
        f"simulate.py:{line}: in {function}"
        for function, line in _sites(ast.parse(path.read_text()), lambda node: _called_name(node) == "stream_key")
        if function not in STREAM_KEYS_ALLOWED
    ]
    assert not found, "streams keyed outside _channel_key:\n" + "\n".join(found)


# Every dense eigensolve in the package, by (module, function).  Spectra
# come from the bidiagonal model; an eigensolve anywhere else is a second
# sampler or a reduction that could read log det or a trace instead.
EIGENSOLVES_ALLOWED = {
    ("analytic.py", "_legendre_rule"),  # Golub-Welsch nodes of the quadrature rule
    ("simulate.py", "_tridiagonal_spectra"),  # spectra outputs of the bidiagonal model
    ("ensembles.py", "verify_pinned_spectrum"),  # the check on whole Haar unitaries
    ("feedback.py", "_completion_last"),  # the s x s Gram of the completion basis, s >= 3 only
}


def _eigensolves(tree):
    """(enclosing function, line) of every eigvalsh, eigh, eigvals and eig call, np.linalg's or bare."""
    return _sites(tree, lambda node: _called_name(node) in ("eigvalsh", "eigh", "eigvals", "eig"))


def test_every_eigensolve_is_deliberate():
    _check_allow_list(_package_sites(_eigensolves), EIGENSOLVES_ALLOWED, "eigensolves")


@pytest.mark.parametrize(
    "dims", [ChannelDims(4, 4, 6), ChannelDims(2, 3, 3), ChannelDims(4, 4, 7)], ids=["s2", "s0", "s3"]
)
def test_feedback_frame_solves_only_s_by_s_eigenproblems(monkeypatch, dims):
    # a frame completes each use from its s x s Gram, s = m - mr, never from
    # the mt x mt residual: in closed form at s <= 2, with no eigh at all,
    # and by a stacked s x s eigh from s = 3 on
    s = dims.m - dims.mr
    shapes, eigh = [], np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    run_feedback_scheme(SchemeConfig(dims=dims, n_uses=200, delay=1))
    if s <= 2:
        assert shapes == []
    else:
        assert shapes and all(shape[-2:] == (s, s) for shape in shapes), shapes


def test_no_reduceat_in_the_package():
    # the Beta variates add their terms row by row in index order, into one
    # variate-major buffer: reduceat over a narrow trial-major axis is slower
    package = pathlib.Path(jacobi_fading.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "reduceat"
    ]
    assert not found, "reduceat in the package:\n" + "\n".join(found)


def test_no_qr_in_the_package():
    # the phase-fixed QR is a stack-last Gram-Schmidt kernel
    # (ensembles.phase_fixed_qr), with no LAPACK call per matrix
    package = pathlib.Path(jacobi_fading.__file__).parent
    found = [
        f"{path.name}:{line}: in {function}"
        for path in sorted(package.glob("*.py"))
        for function, line in _sites(ast.parse(path.read_text()), lambda node: _called_name(node) == "qr")
    ]
    assert not found, "QR calls in the package:\n" + "\n".join(found)


# Each fills one preallocated buffer chunk by chunk, with no joined per-chunk arrays.
FILLED_IN_PLACE = {"_reduce_model", "_model_coefficients", "_trace_values", "sample_spectra"}


def test_sample_sets_fill_one_buffer():
    path = pathlib.Path(jacobi_fading.__file__).parent / "simulate.py"
    functions = [node for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)]
    assert FILLED_IN_PLACE <= {function.name for function in functions}
    found = [
        f"simulate.py:{node.lineno}: in {function.name}"
        for function in functions
        if function.name in FILLED_IN_PLACE
        for node in ast.walk(function)  # nested chunk functions included
        if _called_name(node) == "_gather"
    ]
    assert not found, "sample sets joined from per-chunk arrays:\n" + "\n".join(found)


# Every Monte-Carlo estimate of the package, by (module, function) and
# estimator.  _estimate averages a per-trial array: only ergodic capacity
# and the conditional repetition error have one.  The indicator estimators
# (the outages and the count repetition method) count the trials past a
# threshold with _count_estimate, with no per-point 0/1 array.
ESTIMATES_ALLOWED = {
    "_estimate": {("simulate.py", "mc_ergodic_capacity"), ("simulate.py", "mc_repetition_error")},
    "_count_estimate": {
        ("simulate.py", "mc_outage"),
        ("simulate.py", "mc_alamouti_outage"),
        ("simulate.py", "mc_repetition_error"),
    },
}


def test_indicator_estimates_are_counts():
    # each allowed function estimates once, so mc_repetition_error averages
    # in its conditional branch alone and counts in the other
    package = pathlib.Path(jacobi_fading.__file__).parent
    found = sorted(
        (estimator, path.name, function)
        for path in sorted(package.glob("*.py"))
        for estimator in ESTIMATES_ALLOWED
        for function, _ in _sites(ast.parse(path.read_text()), lambda node: _called_name(node) == estimator)
    )
    assert found == sorted((estimator, *site) for estimator, sites in ESTIMATES_ALLOWED.items() for site in sites)


@pytest.mark.parametrize(
    "module, name, args",
    [
        (analytic, "_jacobi_density", ["ergodic", "--mt", "2", "--mr", "2", "--m", "4", "--rho-db", "0:120:10"]),
        (simulate, "q_function",
         ["repetition", "--mt", "1", "--mr", "2", "--m", "3", "--rho-db", "10:40:5", "--method", "tail"]),
    ],
    ids=["ergodic-13", "repetition-tail-7"],
)
def test_closed_form_curve_is_one_quadrature_pass(tmp_path, monkeypatch, module, name, args):
    # the integrand runs once per rule (coarse and check) for the whole
    # curve, not once per rule and SNR point
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or real(*a))
    assert cli.main(args + ["--out", str(tmp_path / "curve.csv")]) == 0
    assert len(calls) == 2
