"""Row-by-row output checks against references the library did not compute.

Every op's CSV is checked row by row; a row that misses its check counts as
failed, and an op that raised, exited non-zero or produced too few rows fails
every row it owes.  References come from ``references.json``, written by
``make_references.py`` with mpmath.

Tolerances are the library's own stated ones: analytic capacity to 1e-13
relative, the rho-norm round trip to 1e-9 relative in epsilon, the
deterministic repetition tail to 1e-9 relative, Monte-Carlo capacity within
five standard errors, and the feedback clauses of acceptance criterion 8.

Monte-Carlo probabilities (outage, repetition error) are tested at the same
five-sigma level, but with Bernstein's inequality and the reference's own
variance instead of the sample's standard error.  At 30-40 dB the repetition
error is 3e-6..3e-8, so 10^5 trials usually see no error event (or miss the
rare spectra that carry the mean) and report a standard error of 0 or far
too small; a sample-stderr test would fail correct output there.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

from workloads import dims_key

CAPACITY_RTOL = 1e-13
ROUND_TRIP_RTOL = 1e-9
TAIL_RTOL = 1e-9
MC_SIGMAS = 5.0
# two-sided tail of five standard normal deviations
MC_ALPHA = math.erfc(MC_SIGMAS / math.sqrt(2.0))
FROBENIUS_RTOL = 0.01
FEEDBACK_SNR_RTOL = 0.02
FEEDBACK_COV_TOL = 0.05

# Rows the seed is known to fail: the analytic capacity at 70-120 dB on the
# four 0:120:10 grids, where the quadrature misses 1e-13 (see NOTES.md).
# They count as failed rows; only the run's overall "correct" verdict
# tolerates them, so that a new failure anywhere else still flips it.
KNOWN_FAILING = frozenset(
    (dims, float(db))
    for dims in ("1,1,2", "4,4,8", "8,8,64", "2,2,3")
    for db in range(70, 121, 10)
)


def load_references() -> dict:
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")) as fh:
        return json.load(fh)


class Checker:
    """Accumulates attempted and failed rows over the ops of a pass."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.capacity_rel_err: list[float] = []
        self.capacity_over_tol = 0

    def _row(self, ok: bool, what: str, known: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known:
                self.unexpected.append(what)

    def check_op(self, op, rc, csv_text: str | None) -> None:
        rows = []
        if rc == 0 and csv_text:
            reader = csv.reader(io.StringIO(csv_text))
            next(reader, None)
            rows = [[float(v) if v else None for v in row] for row in reader]
        label = " ".join(op.argv)
        if rc != 0 or len(rows) != op.rows:
            for _ in range(op.rows):
                self._row(False, f"{label}: exit {rc}, {len(rows)} of {op.rows} rows")
            return
        getattr(self, "_" + op.check)(op, rows, label)

    # -- check families -------------------------------------------------

    def _capacity_analytic(self, op, rows, label):
        key = dims_key(*op.params["dims"])
        table = self.refs["capacity"][key]
        for (db, cap, _norm, _se), want_db in zip(rows, op.params["rho_db"]):
            ref = float(table[repr(want_db)])
            rel = abs(cap - ref) / abs(ref) if db == want_db else math.inf
            self.capacity_rel_err.append(rel)
            ok = rel <= CAPACITY_RTOL
            self.capacity_over_tol += not ok
            self._row(ok, f"{label} @ {db} dB: rel err {rel:.2e}", (key, want_db) in KNOWN_FAILING)

    @staticmethod
    def _within_bernstein(value: float, ref: float, var: float, trials: int) -> bool:
        """|mean - ref| below the Bernstein bound at level MC_ALPHA for values in [0, 1]."""
        log_term = math.log(2.0 / MC_ALPHA)
        lin = 2.0 * log_term / 3.0
        bound = (lin + math.sqrt(lin * lin + 8.0 * trials * log_term * var)) / (2.0 * trials)
        return abs(value - ref) <= bound

    def _capacity_mc(self, op, rows, label):
        table = self.refs["capacity"][dims_key(*op.params["dims"])]
        for (db, cap, _norm, se), want_db in zip(rows, op.params["rho_db"]):
            ref = float(table[repr(want_db)])
            ok = db == want_db and se is not None and abs(cap - ref) <= MC_SIGMAS * se
            self._row(ok, f"{label} @ {db} dB: {cap} vs {ref} (stderr {se})")

    def _outage_mc(self, op, rows, label):
        mt, mr, m = op.params["dims"]
        key = f"{dims_key(mt, mr, m)}@{op.params['rho_db']!r}"
        table = self.refs["outage"][key]
        for (r, p, se), want_r in zip(rows, op.params["r"]):
            if want_r < mt + mr - m:
                ok = r == want_r and p == 0.0 and se == 0.0
            else:
                ref = float(table[repr(want_r)])
                ok = r == want_r and self._within_bernstein(p, ref, ref * (1 - ref), op.trials)
            self._row(ok, f"{label} @ r={r}: {p} (stderr {se})")

    def _probability(self, op, rows, label):
        for db, p, _se in rows:
            self._row(math.isfinite(p) and 0.0 <= p <= 1.0, f"{label} @ {db} dB: {p}")

    def _repetition_mc(self, op, rows, label):
        key = dims_key(*op.params["dims"])
        counting = "count" in op.argv
        for (db, p, se), want_db in zip(rows, op.params["rho_db"]):
            ref = float(self.refs["repetition"][key][repr(want_db)])
            # per-trial values: error indicators when counting, else the
            # conditional error Ps(rho*lam) with second moment from the table
            m2 = ref if counting else float(self.refs["repetition_m2"][key][repr(want_db)])
            ok = db == want_db and self._within_bernstein(p, ref, m2 - ref * ref, op.trials)
            self._row(ok, f"{label} @ {db} dB: {p} (stderr {se})")

    def _repetition_tail(self, op, rows, label):
        table = self.refs["repetition"][dims_key(*op.params["dims"])]
        for (db, p, _se), want_db in zip(rows, op.params["rho_db"]):
            ref = float(table[repr(want_db)])
            ok = db == want_db and abs(p - ref) <= TAIL_RTOL * ref
            self._row(ok, f"{label} @ {db} dB: {p} vs {ref}")

    def _rho_norm(self, op, rows, label):
        want = [(m, mr, eps) for m in op.params["m"] for mr in range(1, m + 1)
                for eps in op.params["epsilon"]]
        for (m, mr, _ratio, eps, db), (wm, wmr, weps) in zip(rows, want):
            if (m, mr, eps) != (wm, wmr, weps):
                self._row(False, f"{label}: row ({m}, {mr}, {eps}) out of order")
                continue
            if mr == m:
                self._row(db == 0.0, f"{label} ({m}, {mr}, {eps}): {db} dB, want 0")
                continue
            ln_x, sens = (float(v) for v in self.refs["rho_norm"][f"{wm},{wmr},{weps!r}"])
            # I_x(mr, m - mr) at the row's x = 10^(-db/10), to first order in
            # the row's error: relative eps error = (d ln I / d ln x) * |ln x - ln x_ref|
            rel = sens * abs(-math.log(10.0) * db / 10.0 - ln_x)
            self._row(rel <= ROUND_TRIP_RTOL, f"{label} ({m}, {mr}, {eps}): eps rel err {rel:.2e}")

    def _rayleigh(self, op, rows, label):
        mt, mr = op.params["mt"], op.params["mr"]
        prev_ks = math.inf
        for (m, _rb, _cj, _cr, _se, ks, frob, _gap), want_m in zip(rows, op.params["m"]):
            expected = mt * mr / want_m
            ok = m == want_m and abs(frob - expected) <= FROBENIUS_RTOL * expected and ks < prev_ks
            self._row(ok, f"{label} m={m}: frobenius {frob} vs {expected}, ks {ks} after {prev_ks}")
            prev_ks = ks

    def _dmt(self, op, rows, label):
        want = self.refs["dmt"][dims_key(*op.params["dims"])]
        for (r, d, below), (wr, wd) in zip(rows, want):
            self._row((r, d, below) == (wr, wd, 0.0), f"{label}: vertex ({r}, {d}, {below})")

    def _feedback(self, op, rows, label):
        rho = op.params["rho"]
        for stream, snr, _db, cov_err, *_ in rows:
            ok = abs(snr - rho) < FEEDBACK_SNR_RTOL * rho and cov_err < FEEDBACK_COV_TOL
            self._row(ok, f"{label} stream {stream}: snr {snr}, cov err {cov_err}")

