"""Benchmark: README-style jacobi-fading curves, end to end and per layer.

usage (from the repository root):
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed 0 --trace 1   # every workload
    python3 bench/run.py --self-test                          # quick check of the harness

Each pass of a workload runs in a fresh interpreter (bench/worker.py), so the
library's lazy caches start as cold as a CLI user finds them, with BLAS
pinned to one thread.  Passes repeat as a closed loop until --seconds is
used up; every metric is the median over passes.  Set-up time is measured
on every pass and on extra import-only probes.  With --trace 1, untraced and
traced passes alternate: the traced ones give the per-layer metrics, and
the difference of the two medians is the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (the end-to-end metrics with --trace 0, the
per-layer ones with --trace 1).  A results file with the environment, every
pass and the check failures goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
# one run must end within 180 s: no pass starts once RUN_DEADLINE_S is gone,
# whatever --seconds says, and a worker still running at RUN_KILL_S is killed
RUN_DEADLINE_S = 120.0
RUN_KILL_S = 170.0
# For the workloads in workloads.NORMALISED an op's time is normalised to
# the host's speed: raw time x CALIBRATION_REF_S / (mean of the calibration
# kernel's times just before and just after the op), i.e. seconds at the
# speed at which the kernel takes CALIBRATION_REF_S (about its time on an
# unloaded 2-core Xeon VM).  The raw time stays in the report and the results file.
CALIBRATION_REF_S = 0.02
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "rows_ok_frac": "ratio",
}

# Throughput figures printed with the end-to-end report (workloads.Op.throughput).
THROUGHPUT_UNITS = {
    "mc_small_m_trials_per_s": "trials/s",
    "mc_large_m_trials_per_s": "trials/s",
    "capacity_points_per_s": "rows/s",
    "feedback_uses_per_s": "uses/s",
}

PER_LAYER_UNITS = {
    "philox.calls": "count",
    "philox.self_s": "s",
    "philox.words": "count",
    "philox.ns_per_word": "ns/word",
    "philox.unique_draw_frac": "ratio",
    "ensembles.batched_calls": "count",
    "ensembles.batched_us_per_matrix": "us/matrix",
    "ensembles.per_draw_calls": "count",
    "ensembles.per_draw_us_per_matrix": "us/matrix",
    "ensembles.self_s": "s",
    "simulate.calls": "count",
    "simulate.self_s": "s",
    "simulate.chunks": "count",
    "simulate.self_ms_per_chunk": "ms/chunk",
    "analytic.calls": "count",
    "analytic.self_s": "s",
    "analytic.capacity_rel_err_max": "ratio",
    "analytic.capacity_rows_over_tol": "count",
    "specfun.calls": "count",
    "specfun.self_s": "s",
    "specfun.rule_builds": "count",
    "specfun.quad_nodes_max": "count",
    "specfun.quad_nodes_built": "count",
    "feedback.calls": "count",
    "feedback.self_s": "s",
    "feedback.uses": "count",
    "feedback.self_us_per_use": "us/use",
    "feedback.completions": "count",
    "cli.calls": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


# -- processes ------------------------------------------------------------


def _spawn(out_dir: str, extra_args: list[str], timeout: float) -> dict:
    """Run worker.py to completion and return its result and wall time."""
    result_path = os.path.join(out_dir, f"worker-{os.getpid()}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ, **PINNED_ENV)
    started = time.monotonic()
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), repr(started), result_path] + extra_args
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker still running at the run's {RUN_KILL_S} s limit: {cmd[2:]}")
    if rc != 0 or not os.path.exists(result_path):
        raise BenchError(f"worker exited {rc}: {cmd[2:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    os.remove(result_path)
    result["elapsed_s"] = time.monotonic() - started
    return result


# -- metrics --------------------------------------------------------------


def _per_layer(summary: dict, ops: list, checker: checks.Checker) -> dict:
    targets = summary["targets"]

    def agg(name: str, key: str = "calls") -> float:
        return targets.get(name, {}).get(key, 0)

    def layer(name: str, key: str) -> float:
        return sum(t.get(key, 0) for t in targets.values() if t["layer"] == name)

    philox_calls = agg("simulate.complex_normals") + agg("simulate.uniforms")
    words = agg("simulate.complex_normals", "words") + agg("simulate.uniforms", "words")
    chunks = sum(workloads.chunks_of(op) for op in ops)
    uses = agg("feedback.run_feedback_scheme", "uses")
    rule_ns = summary["rule_calls"]
    return {
        "philox.calls": philox_calls,
        "philox.self_s": layer("philox", "self_s"),
        "philox.words": words,
        "philox.ns_per_word": _ratio(layer("philox", "self_s"), words, 1e9),
        "philox.unique_draw_frac": _ratio(summary["distinct_draws"], philox_calls),
        "ensembles.batched_calls": agg("simulate.phase_fixed_qr"),
        "ensembles.batched_us_per_matrix": _ratio(
            agg("simulate.phase_fixed_qr", "self_s"), agg("simulate.phase_fixed_qr", "matrices"), 1e6),
        "ensembles.per_draw_calls": agg("feedback.haar_isometry"),
        "ensembles.per_draw_us_per_matrix": _ratio(
            agg("feedback.haar_isometry", "self_s"), agg("feedback.haar_isometry", "matrices"), 1e6),
        "ensembles.self_s": layer("ensembles", "self_s"),
        "simulate.calls": layer("simulate", "calls"),
        "simulate.self_s": layer("simulate", "self_s"),
        "simulate.chunks": chunks,
        "simulate.self_ms_per_chunk": _ratio(layer("simulate", "self_s"), chunks, 1e3),
        "analytic.calls": layer("analytic", "calls"),
        "analytic.self_s": layer("analytic", "self_s"),
        "analytic.capacity_rel_err_max": max(checker.capacity_rel_err, default=0.0),
        "analytic.capacity_rows_over_tol": checker.capacity_over_tol,
        "specfun.calls": layer("specfun", "calls"),
        "specfun.self_s": layer("specfun", "self_s"),
        "specfun.rule_builds": len(summary["rules_built"]),
        "specfun.quad_nodes_max": max(rule_ns, default=0),
        "specfun.quad_nodes_built": sum(rule[0] for rule in summary["rules_built"]),
        "feedback.calls": agg("feedback.run_feedback_scheme"),
        "feedback.self_s": layer("feedback", "self_s"),
        "feedback.uses": uses,
        "feedback.self_us_per_use": _ratio(layer("feedback", "self_s"), uses, 1e6),
        "feedback.completions": agg("feedback.complete_unitary"),
        "cli.calls": agg("cli.main"),
        "cli.self_s": layer("cli", "self_s"),
    }


def _op_seconds(res: dict) -> list[float]:
    """Each op's time, normalised to the host's speed when the pass was calibrated."""
    cal = res["calibration_s"]
    if not cal:
        return [rec["seconds"] for rec in res["ops"]]
    return [rec["seconds"] * CALIBRATION_REF_S * 2.0 / (cal[i] + cal[i + 1])
            for i, rec in enumerate(res["ops"])]


def _work_units(op, csv_text: str | None) -> float:
    """Units of work an op adds to its throughput figure."""
    if op.estimates:
        return op.trials * op.estimates  # trials x estimates simulated
    if op.check == "feedback":
        if not csv_text:
            return 0
        first_row = csv_text.splitlines()[1].split(",")
        return op.params["uses"] + int(first_row[-1])  # frame plus closing overhead_uses
    return op.rows  # closed-form capacity rows


def _throughput(ops: list, records: list) -> dict:
    """Each throughput figure: work units per second of the ops that count towards it."""
    out = {}
    for name in dict.fromkeys(op.throughput for op in ops if op.throughput):
        done = [rec for op, rec in zip(ops, records) if op.throughput == name]
        out[name] = _ratio(sum(rec["work"] for rec in done), sum(rec["seconds"] for rec in done))
    return out


def _source_id(root: str) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


# -- one workload -------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool,
                 out_dir: str, refs: dict, extra_targets=()) -> dict:
    ops = workloads.ops_for(workload, quick=quick)
    t0 = time.monotonic()

    def remaining() -> float:
        return RUN_KILL_S - (time.monotonic() - t0)

    setup = [_spawn(out_dir, [], remaining())["setup_s"] for _ in range(1 if quick else SETUP_PROBES)]
    kinds = [False, True] if trace else [False]
    passes = []
    while True:
        traced = kinds[len(passes) % len(kinds)]
        args = [workload, str(seed), "1" if traced else "0", "1" if quick else "0"]
        res = _spawn(out_dir, args + (list(extra_targets) if traced else []), remaining())
        res["traced"] = traced
        checker = checks.Checker(refs)
        for op, rec in zip(ops, res["ops"]):
            rec["work"] = _work_units(op, rec["csv"])
            checker.check_op(op, rec["rc"], rec.pop("csv"))
        res["checker"] = checker
        res["raw_wall_s"] = res["wall_s"]
        for rec, op_s in zip(res["ops"], _op_seconds(res)):
            rec["seconds"] = op_s
        res["wall_s"] = sum(rec["seconds"] for rec in res["ops"])
        passes.append(res)
        setup.append(res["setup_s"])
        if quick and len(passes) == len(kinds):
            break
        elapsed = time.monotonic() - t0
        typical = statistics.median(p["elapsed_s"] for p in passes)
        if len(passes) >= len(kinds) and (
            elapsed + typical > seconds or elapsed + typical > RUN_DEADLINE_S
        ):
            break
    plain = [p for p in passes if not p["traced"]]
    attempted = sum(p["checker"].attempted for p in passes)
    failed = sum(p["checker"].failed for p in passes)
    wall = statistics.median(p["wall_s"] for p in plain)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "rows_ok_frac": 1.0 - failed / attempted,
    }
    per_pass = [_throughput(ops, p["ops"]) for p in plain]
    throughput = {name: statistics.median(t[name] for t in per_pass) for name in per_pass[0]}
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "quick": quick,
        "env": dict(plain[0]["env"], nproc=os.cpu_count(),
                    nproc_usable=len(os.sched_getaffinity(0)), seed=seed),
        "correct": not any(p["checker"].unexpected for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "throughput": throughput,
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in plain),
        "setup_samples": setup,
        "passes": [
            {"traced": p["traced"], "wall_s": p["wall_s"], "raw_wall_s": p["raw_wall_s"],
             "calibration_s": p["calibration_s"], "setup_s": p["setup_s"],
             "peak_rss_mb": p["peak_rss_mb"], "elapsed_s": p["elapsed_s"],
             "op_seconds": [rec["seconds"] for rec in p["ops"]],
             "op_exit_codes": [rec["rc"] for rec in p["ops"]],
             "failed_rows": p["checker"].failed}
            for p in passes
        ],
        "failures": sorted({f for p in passes for f in p["checker"].unexpected}),
        "known_failing_rows": passes[0]["checker"].failed - len(passes[0]["checker"].unexpected),
    }
    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        layers = [_per_layer(p["trace"], ops, p["checker"]) for p in traced_passes]
        per_layer = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
        per_layer["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced_passes) - wall
        result["per_layer"] = per_layer
        result["missing_targets"] = traced_passes[0]["trace"]["missing"]
        result["spans_file"] = os.path.relpath(traced_passes[-1]["spans_file"])
    return result


def _report(result: dict) -> None:
    w = result["workload"]
    runs = len([p for p in result["passes"] if not p["traced"]])
    print(f"== {w}  seed {result['seed']}  ({runs} untraced pass(es), "
          f"{len(result['setup_samples'])} set-up samples)")
    for name, value in result["metrics"].items():
        print(f"  {name:34s} {value:.6g} {END_TO_END_UNITS[name]}")
    if w in workloads.NORMALISED:
        print(f"  {'wall_s before normalisation':34s} {result['raw_wall_s']:.6g} s")
    for name, value in result["throughput"].items():
        print(f"  {name:34s} {value:.6g} {THROUGHPUT_UNITS[name]}")
    print(f"  rows: {result['attempted']} checked, {result['failed']} failed "
          f"({result['known_failing_rows']} per pass known to fail on the seed)")
    for failure in result["failures"][:20]:
        print(f"  FAILED {failure}")
    if result["trace"]:
        for name, value in result["per_layer"].items():
            print(f"  {name:34s} {value:.6g} {PER_LAYER_UNITS[name]}")
        for target in result["missing_targets"]:
            print(f"  trace target missing: {target}")


def _final_line(results: list[dict], trace: bool) -> dict:
    if len(results) == 1:
        r = results[0]
        values, units = (r["per_layer"], PER_LAYER_UNITS) if trace else (r["metrics"], END_TO_END_UNITS)
        return {
            "correct": r["correct"],
            "attempted": r["attempted"],
            "failed": r["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        }
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            f"{r['workload']}:{k}": {"value": v, "unit": {**END_TO_END_UNITS, **PER_LAYER_UNITS}[k]}
            for r in results
            for k, v in (r["per_layer"] if trace else r["metrics"]).items()
        },
    }


# -- self-test ------------------------------------------------------------------


def self_test(root: str, out_dir: str, refs: dict) -> int:
    """Quick pass of every workload; check metric coverage, row checks and missing targets."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in workloads.WORKLOADS:
        r = run_workload(workload, 0, 0.0, True, True, out_dir, refs,
                         extra_targets=["philox.philox_4x64_removed"])
        _report(r)
        for kind, emitted in (("end_to_end", r["metrics"]), ("per_layer", r["per_layer"])):
            absent = {m["name"] for m in spec[kind]} - set(emitted)
            if absent:
                problems.append(f"{workload}: {kind} metrics not emitted: {sorted(absent)}")
        if "philox.philox_4x64_removed" not in r["missing_targets"]:
            problems.append(f"{workload}: missing trace target not reported")
        if not r["correct"]:
            # statistical row checks are stated at the full trial counts
            print(f"  (rows failed at {workloads.QUICK_TRIALS} trials are expected in the self-test)")

    # a capacity row perturbed by 1e-10 relative must count as failed
    op = next(op for op in workloads.ops_for("analytic-curves") if op.params.get("dims") == (2, 2, 4))
    table = refs["capacity"]["2,2,4"]
    lines = ["rho_db,capacity_bits,capacity_normalized,stderr"]
    for db in op.params["rho_db"]:
        lines.append(f"{db!r},{float(table[repr(db)])!r},0.0,")
    exact = "\n".join(lines) + "\n"
    first = lines[1].split(",")
    lines[1] = ",".join([first[0], repr(float(first[1]) * (1 + 1e-10))] + first[2:])
    for text, want_failed in ((exact, 0), ("\n".join(lines) + "\n", 1)):
        checker = checks.Checker(refs)
        checker.check_op(op, 0, text)
        if checker.failed != want_failed:
            problems.append(f"perturbation check: {checker.failed} failed rows, want {want_failed}")
    for problem in problems:
        print(f"SELF-TEST PROBLEM: {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "jacobi_fading", "cli.py")):
        print("error: run from the repository root; src/jacobi_fading is missing here", file=sys.stderr)
        return 2
    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    refs = checks.load_references()
    try:
        if args.self_test:
            return self_test(root, out_dir, refs)
        if args.workload is None:
            parser.error("--workload is required")
        names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), False, out_dir, refs)
            result["env"].update(_source_id(root))
            _report(result)
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(results if len(results) > 1 else results[0], fh, indent=1)
        fh.write("\n")
    print(f"results: {os.path.relpath(path)}")
    print(json.dumps(_final_line(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
