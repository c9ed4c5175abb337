"""Spans at the library's module boundaries, recorded from outside the library.

The tracer replaces module attributes with timing wrappers.  Each wrapper
goes on the attribute the caller actually resolves: ``simulate`` imported
``complex_normals`` by name, so the Philox boundary is
``simulate.complex_normals``, not ``philox.complex_normals``.  A target that
no longer exists is reported as missing and skipped.

A span is (id, target, layer, start, end, parent, op, info).  Spans stay in
memory and are written out when the pass ends.  A span opened on a pool
thread, which has no open span of its own, attaches to the innermost open
span of the thread driving the op (the op's root span when nothing else is
open), so threaded chunk work nests under the entry point that scheduled it.
Self time is a span's duration minus the union of its children's intervals,
since children on two worker threads overlap.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from time import perf_counter


def _n_matrices(a) -> int:
    shape = getattr(a, "shape", ())
    n = 1
    for d in shape[:-2]:
        n *= int(d)
    return n


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _draw_info(words_per_value):
    def info(args, kwargs, result):
        key, lo, hi, n = (_arg(args, kwargs, i, nm) for i, nm in enumerate(("key", "lo", "hi", "n")))
        return {"words": (hi - lo) * n * words_per_value, "draw": [list(key), lo, hi, n]}
    return info


def _rule_info(args, kwargs, result):
    return {"rule": [_arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "alpha"), _arg(args, kwargs, 2, "beta")]}


def _report_uses(args, kwargs, result):
    return {"uses": int(result.n_uses) + int(result.overhead_uses)}


# (module, attribute, layer, info extractor)
TARGETS = [
    ("simulate", "complex_normals", "philox", _draw_info(2)),
    ("simulate", "uniforms", "philox", _draw_info(1)),
    ("simulate", "phase_fixed_qr", "ensembles", lambda a, k, r: {"matrices": _n_matrices(_arg(a, k, 0, "a"))}),
    ("feedback", "haar_isometry", "ensembles", lambda a, k, r: {"matrices": 1}),
    ("simulate", "mc_ergodic_capacity", "simulate", None),
    ("simulate", "mc_outage", "simulate", None),
    ("simulate", "mc_repetition_error", "simulate", None),
    ("simulate", "mc_alamouti_outage", "simulate", None),
    ("simulate", "rayleigh_compare", "simulate", None),
    ("simulate", "sample_spectra", "simulate", None),
    ("simulate", "sample_wishart_spectra", "simulate", None),
    ("simulate", "repetition_error_tail", "simulate", None),
    ("analytic", "ergodic_capacity", "analytic", None),
    ("analytic", "rho_norm", "analytic", None),
    ("analytic", "outage_single_mode", "analytic", None),
    ("analytic", "eigen_density", "analytic", None),
    ("analytic", "dmt_optimal_curve", "analytic", None),
    ("analytic", "gauss_jacobi_rule", "specfun", _rule_info),
    ("analytic", "jacobi_poly_sequence", "specfun", None),
    ("analytic", "jacobi_norm_b", "specfun", None),
    ("analytic", "reg_inc_beta", "specfun", None),
    ("analytic", "inv_reg_inc_beta", "specfun", None),
    ("feedback", "run_feedback_scheme", "feedback", _report_uses),
    ("feedback", "complete_unitary", "feedback", None),
    ("cli", "main", "cli", None),
]


class Tracer:
    """Installs the wrappers and keeps the spans of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.op = -1
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, layer, info in targets:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"jacobi_fading.{module_name}")
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, layer, info))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _record(self, span: list) -> None:
        with self._lock:
            self.spans.append(span)

    def _wrap(self, fn, name, layer, info):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                stack.pop()
                tracer._record([sid, name, layer, start, end, parent, tracer.op, {"error": True}])
                raise
            end = perf_counter()
            stack.pop()
            tracer._record(
                [sid, name, layer, start, end, parent, tracer.op, info(args, kwargs, result) if info else None]
            )
            return result

        return wrapper

    def begin_op(self, op: int) -> None:
        """Open the root span of op ``op`` on the driving thread."""
        self.op = op
        sid = next(self._ids)
        self._main_stack.append(sid)
        self._root = (sid, perf_counter())

    def end_op(self) -> None:
        sid, start = self._root
        self._main_stack.pop()
        self._record([sid, f"op:{self.op}", "op", start, perf_counter(), None, self.op, None])

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for sid, _, _, start, end, _, _, _ in self.spans:
            covered, cur_lo, cur_hi = 0.0, None, None
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, start), min(hi, end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[sid] = (end - start) - covered
        return out

    def summary(self) -> dict:
        """Per-target calls, self seconds and summed counters; distinct draws and rules."""
        self_s = self.self_times()
        targets: dict[str, dict] = {}
        draws, rules = set(), []
        seen_rules = set()
        for sid, name, layer, start, end, parent, op, info in self.spans:
            if layer == "op":
                continue
            agg = targets.setdefault(name, {"layer": layer, "calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += self_s[sid]
            for key, value in (info or {}).items():
                if key == "draw":
                    draws.add(json.dumps(value))
                elif key == "rule":
                    if tuple(value) not in seen_rules:
                        seen_rules.add(tuple(value))
                        rules.append(value)
                elif key != "error":
                    agg[key] = agg.get(key, 0) + value
        return {
            "targets": targets,
            "distinct_draws": len(draws),
            "rule_calls": [info["rule"][0] for *_, info in self.spans if info and "rule" in info],
            "rules_built": rules,
            "missing": list(self.missing),
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "target", "layer", "start", "end", "parent", "op", "info"],
                       "spans": sorted(self.spans, key=lambda s: s[3])}, fh, separators=(",", ":"))
