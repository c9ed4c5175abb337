"""The benchmark's workloads: README-style CLI invocations and how to check them.

Each op is one ``jacobi-fading`` subcommand.  The run appends ``--seed`` and
``--out``; everything else is fixed here.  ``check`` names the family of
output check in :mod:`checks`, ``rows`` is the number of output rows the op
must produce, ``estimates`` counts the Monte-Carlo estimates it simulates
(one sample set of ``trials`` each), and ``throughput`` names the
throughput figure the op's work counts towards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# simulate's fixed chunk grid (trials per chunk)
CHUNK_TRIALS = 8192
# the README's trial count; the Rayleigh clauses of acceptance criterion 9
# are stated at 10^5 draws and are not robust across seeds at fewer
MC_TRIALS = 100_000
QUICK_TRIALS = 1024
FEEDBACK_FRAMES = 10


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: str
    rows: int
    estimates: int = 0
    throughput: str | None = None
    seed_offset: int = 0
    params: dict = field(default_factory=dict, hash=False, compare=False)

    @property
    def trials(self) -> int:
        return int(self.argv[self.argv.index("--trials") + 1]) if "--trials" in self.argv else 0


def grid(text: str) -> list[float]:
    """The CLI's grid syntax: 'start:stop:step' (inclusive), 'a,b,c' or 'x'."""
    if ":" in text:
        start, stop, step = (float(p) for p in text.split(":"))
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(count)]
    return [float(p) for p in text.split(",")]


def dims_key(mt: int, mr: int, m: int) -> str:
    return f"{mt},{mr},{m}"


def _ergodic(mt, mr, m, rho_db, method, extra=(), throughput="capacity_points_per_s"):
    argv = ("ergodic", "--mt", str(mt), "--mr", str(mr), "--m", str(m),
            "--rho-db", rho_db, "--method", method) + tuple(extra)
    n = len(grid(rho_db))
    return Op(argv, f"capacity_{method}", rows=n, estimates=n if method == "mc" else 0,
              throughput=throughput, params={"dims": (mt, mr, m), "rho_db": grid(rho_db)})


def _mc(trials: int, workers: int) -> tuple[str, ...]:
    return ("--trials", str(trials), "--workers", str(workers))


def _mc_curves(trials: int) -> list[Op]:
    # small-m class: one worker, m <= 8
    mc, small = _mc(trials, 1), "mc_small_m_trials_per_s"
    r_grid = grid("0:2:0.05")
    k = 2 + 2 - 3
    rep = ("repetition", "--mt", "1", "--mr", "2", "--m", "3", "--rho-db", "10:40:5")
    rep_params = {"dims": (1, 2, 3), "rho_db": grid("10:40:5")}
    ops = [
        _ergodic(2, 2, 4, "0:30:5", "mc", mc, small),
        Op(("outage", "--mt", "2", "--mr", "2", "--m", "3", "--rho-db", "20",
            "--r", "0:2:0.05") + mc, "outage_mc", rows=len(r_grid),
           estimates=sum(1 for r in r_grid if r >= k), throughput=small,
           params={"dims": (2, 2, 3), "rho_db": 20.0, "r": r_grid}),
        Op(("alamouti", "--m", "4", "--r", "0.5", "--rho-db", "0:30:5") + mc,
           "probability", rows=7, estimates=7, throughput=small),
        Op(rep + mc, "repetition_mc", rows=7, estimates=7, throughput=small, params=rep_params),
        Op(rep + ("--method", "count") + mc, "repetition_mc", rows=7, estimates=7,
           throughput=small, params=rep_params),
        # m_min = 4: the control for any shortcut that only covers m_min <= 2
        _ergodic(4, 4, 8, "0:30:10", "mc", mc, small),
    ]
    # large-m class: the README's --workers 4, capped at the machine's two cores
    mc, large = _mc(trials, 2), "mc_large_m_trials_per_s"
    m_list = [8, 16, 32, 64]
    return ops + [
        Op(("rayleigh", "--mt", "2", "--mr", "2", "--m", "8,16,32,64",
            "--rho-bar-db", "20") + mc, "rayleigh", rows=len(m_list),
           estimates=1 + len(m_list), throughput=large, params={"mt": 2, "mr": 2, "m": m_list}),
        _ergodic(2, 2, 32, "0:30:10", "mc", mc, large),
    ]


def _analytic() -> list[Op]:
    ops = [_ergodic(2, 2, 4, "0:30:1", "analytic")]
    # (2,2,3) has k = 1: the pinned floor plus the complementary channel
    for dims in ((1, 1, 2), (4, 4, 8), (8, 8, 64), (2, 2, 3)):
        ops.append(_ergodic(*dims, "0:120:10", "analytic"))
    m_list, eps = [4, 16, 64], grid("1e-3,1e-4,1e-5")
    ops += [
        Op(("rho-norm", "--m", "4,16,64", "--mr", "all", "--epsilon", "1e-3,1e-4,1e-5"),
           "rho_norm", rows=sum(m_list) * len(eps), params={"m": m_list, "epsilon": eps}),
        Op(("repetition", "--mt", "1", "--mr", "2", "--m", "3", "--rho-db", "10:40:5",
            "--method", "tail"), "repetition_tail", rows=7,
           params={"dims": (1, 2, 3), "rho_db": grid("10:40:5")}),
        Op(("dmt", "--mt", "4", "--mr", "4", "--m", "8"), "dmt", rows=5,
           params={"dims": (4, 4, 8)}),
    ]
    return ops


def _feedback(frames: int) -> list[Op]:
    configs = [
        ("--mt", "2", "--mr", "2", "--m", "3", "--rho-db", "10", "--uses", "1000", "--delay", "4"),
        ("--mt", "2", "--mr", "2", "--m", "3", "--rho-db", "10", "--uses", "1000", "--delay", "4",
         "--hold-channel"),
        ("--mt", "4", "--mr", "4", "--m", "6", "--rho-db", "10", "--uses", "1000", "--delay", "1"),
    ]
    ops = []
    for cfg in configs:
        k = int(cfg[1]) + int(cfg[3]) - int(cfg[5])
        for frame in range(frames):
            ops.append(Op(("feedback",) + cfg, "feedback", rows=k, seed_offset=frame,
                          throughput="feedback_uses_per_s", params={"rho": 10.0 ** (float(cfg[7]) / 10.0), "uses": int(cfg[9])}))
    return ops


WORKLOADS = ("mc-curves", "analytic-curves", "feedback-frames")

# Workloads whose op times are normalised to the host's speed (see run.py).
# The host's speed for small-matrix Python work drifts by up to 1.6x for
# minutes; a kernel of the same kind of work tracks it for the feedback
# ops, but not for the memory-heavy Monte-Carlo and quadrature ops, whose
# spread it widened.
NORMALISED = ("feedback-frames",)


def ops_for(workload: str, quick: bool = False) -> list[Op]:
    trials = QUICK_TRIALS if quick else MC_TRIALS
    if workload == "mc-curves":
        return _mc_curves(trials)
    if workload == "analytic-curves":
        return _analytic()
    if workload == "feedback-frames":
        return _feedback(1 if quick else FEEDBACK_FRAMES)
    raise ValueError(f"unknown workload {workload!r}")


def chunks_of(op: Op) -> int:
    """Chunks the op simulates: ceil(trials / 8192) per estimate."""
    return op.estimates * math.ceil(op.trials / CHUNK_TRIALS)


def reference_needs() -> dict:
    """Every reference value the checks of all workloads read."""
    needs: dict = {"capacity": {}, "outage": {}, "repetition": {}, "rho_norm": set(), "dmt": set()}
    for workload in WORKLOADS:
        for op in ops_for(workload):
            p = op.params
            if op.check.startswith("capacity_"):
                needs["capacity"].setdefault(p["dims"], set()).update(p["rho_db"])
            elif op.check == "outage_mc":
                needs["outage"][p["dims"] + (p["rho_db"],)] = p["r"]
            elif op.check.startswith("repetition_"):
                needs["repetition"][p["dims"]] = p["rho_db"]
            elif op.check == "rho_norm":
                for m in p["m"]:
                    for mr in range(1, m + 1):
                        for eps in p["epsilon"]:
                            needs["rho_norm"].add((m, mr, eps))
            elif op.check == "dmt":
                needs["dmt"].add(p["dims"])
    return needs
