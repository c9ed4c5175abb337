"""One pass of a workload in a fresh interpreter (started by run.py).

usage: worker.py SPAWNED_AT RESULT_PATH [WORKLOAD SEED TRACED QUICK [EXTRA_TARGET ...]]

The first thing the interpreter does is import ``jacobi_fading.cli`` from the
checkout's ``src``; the time from SPAWNED_AT (a ``time.monotonic`` reading
taken by the parent just before it started this process) to the end of that
import is the set-up time a CLI user pays.  With only two arguments the
process stops there (a set-up probe).  Otherwise it runs every op of the
workload in order through ``cli.main`` as a closed loop, writing each CSV
under the checkout, and records op times, the CSV texts, peak RSS and, when
TRACED is 1, the tracer's summary and spans.  For the workloads in
``workloads.NORMALISED`` a calibration kernel runs before each op and after
the last, outside the op timings.  BLAS threads are pinned by the
parent through the environment before numpy is imported here.
"""

import os
import sys
import time

_BENCH = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, _SRC)

import jacobi_fading.cli as cli  # noqa: E402

_READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

sys.path.insert(0, _BENCH)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _environment() -> dict:
    import importlib.metadata
    import platform

    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    try:
        mpmath_version = importlib.metadata.version("mpmath")
    except importlib.metadata.PackageNotFoundError:
        mpmath_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath_version,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_configuration": blas.get("openblas configuration"),
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _calibration_kernel():
    """Fixed small-matrix work in a Python loop, like one feedback channel use."""
    import numpy as np

    rng = np.random.default_rng(12345)
    small = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))

    def run() -> float:
        start = perf_counter()
        for _ in range(600):
            q = np.linalg.qr(small)[0]
            np.linalg.eigh(q.conj().T @ q)
        return perf_counter() - start

    run()
    return run


def _run_pass(workload, seed, traced, quick, extra_targets, out_dir):
    ops = workloads.ops_for(workload, quick=quick)
    calibrate = _calibration_kernel() if workload in workloads.NORMALISED else None
    tr = None
    if traced:
        tr = tracing.Tracer()
        extra = [(mod, attr, "missing", None) for mod, attr in
                 (t.rsplit(".", 1) for t in extra_targets)]
        tr.install(tracing.TARGETS + extra)
    records = []
    calibration = []
    for i, op in enumerate(ops):
        if calibrate:
            calibration.append(calibrate())
        path = os.path.join(out_dir, f"op{i}.csv")
        argv = list(op.argv) + ["--seed", str(seed + op.seed_offset), "--out", path]
        if tr:
            tr.begin_op(i)
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # an op that raises fails all its rows; keep going
            traceback.print_exc()
            rc = None
        seconds = perf_counter() - start
        if tr:
            tr.end_op()
        text = None
        if rc == 0 and os.path.exists(path):
            with open(path) as fh:
                text = fh.read()
        records.append({"rc": rc, "seconds": seconds, "csv": text})
    if calibrate:
        calibration.append(calibrate())
    result = {
        "ops": records,
        "calibration_s": calibration,
        "wall_s": sum(r["seconds"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(),
    }
    if tr:
        tr.uninstall()
        result["trace"] = tr.summary()
        spans_path = os.path.join(os.path.dirname(out_dir), f"spans-{workload}-seed{seed}.json")
        tr.dump(spans_path)
        result["spans_file"] = spans_path
    return result


def main(argv):
    spawned_at, result_path = float(argv[0]), argv[1]
    result = {"setup_s": _READY - spawned_at}
    if len(argv) > 2:
        workload, seed, traced, quick = argv[2], int(argv[3]), argv[4] == "1", argv[5] == "1"
        out_dir = os.path.join(os.path.dirname(result_path), f"tmp-{os.getpid()}")
        os.makedirs(out_dir, exist_ok=True)
        try:
            result.update(_run_pass(workload, seed, traced, quick, argv[6:], out_dir))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
