"""Print the sha256 of the CSV and manifest of every benchmark op, to check that a change keeps output bytes.

usage (from anywhere):
    python3 tools/op_csv_hashes.py --seed N [--keep DIR]

Each op of the workloads in ``bench/workloads.py`` runs through
``jacobi_fading.cli.main`` (from this checkout's ``src``) in this one
process, with its argv plus ``--seed <N + seed_offset> --out <file>``, the
file in a temporary directory.  Two lines per op go to standard output:
``<workload>-<index> <sha256>`` of the CSV, then
``<workload>-<index>.manifest <sha256>`` of its manifest with the
``timestamp`` field dropped, re-serialised as JSON with sorted keys.
Nothing is written under ``bench/``.  Run it on two checkouts at the same
seed and diff the outputs.  With ``--keep DIR`` each op's CSV is also
copied to ``DIR/<workload>-<index>.csv`` (DIR is created if missing), for
``tools/csv_cell_diff.py`` to compare cell by cell.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # import bench/workloads.py without a __pycache__ there
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402
from jacobi_fading import cli  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--keep", metavar="DIR", help="also copy each op's CSV to DIR/<workload>-<index>.csv")
    args = parser.parse_args(argv)
    if args.keep:
        os.makedirs(args.keep, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "op.csv")
        for workload in workloads.WORKLOADS:
            for index, op in enumerate(workloads.ops_for(workload)):
                seed = str(args.seed + op.seed_offset)
                code = cli.main([*op.argv, "--seed", seed, "--out", out])
                if code:
                    print(f"{workload}-{index} failed with exit code {code}", file=sys.stderr)
                    return code
                with open(out, "rb") as f:
                    print(f"{workload}-{index} {hashlib.sha256(f.read()).hexdigest()}")
                if args.keep:
                    shutil.copyfile(out, os.path.join(args.keep, f"{workload}-{index}.csv"))
                with open(out + ".manifest.json") as f:
                    manifest = json.load(f)
                del manifest["timestamp"]
                text = json.dumps(manifest, sort_keys=True)
                print(f"{workload}-{index}.manifest {hashlib.sha256(text.encode()).hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
