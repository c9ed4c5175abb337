"""Compare two directories of op CSVs cell by cell.

usage (from anywhere):
    python3 tools/csv_cell_diff.py OLD NEW

OLD and NEW hold CSVs written by ``tools/op_csv_hashes.py --keep``, from two
checkouts at the same seed.  For each file name whose bytes differ, one
line goes to standard output:

    <file> cells=<count> max_rel=<change> at row <r> column <name>

``cells`` counts the data cells whose text differs, and ``max_rel`` is the
largest |new - old| / |old| over them, at the named cell (``inf`` where old
is 0 and new is not, ``nan`` where a cell is not a number).  A file with a
different header or row count, or present on one side only, gets one line
saying so instead.  Files whose bytes agree print nothing.  The exit code is
1 if any file differs, else 0.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys


def _read(path: str) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def _relative_change(old: str, new: str) -> float:
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.nan
    if a == b:
        return 0.0  # the same number written differently
    return abs(b - a) / abs(a) if a else math.inf


def compare(old_path: str, new_path: str) -> str | None:
    """One line describing how the CSV at new_path differs from old_path, or None if the bytes agree."""
    with open(old_path, "rb") as f_old, open(new_path, "rb") as f_new:
        if f_old.read() == f_new.read():
            return None
    old, new = _read(old_path), _read(new_path)
    if not old or not new or old[0] != new[0] or len(old) != len(new):
        return "header or row count differs"
    header, cells, worst, where = old[0], 0, -1.0, ""
    for r, (row_old, row_new) in enumerate(zip(old[1:], new[1:]), start=1):
        if len(row_old) != len(row_new):
            return f"row {r} has a different cell count"
        for c, (a, b) in enumerate(zip(row_old, row_new)):
            if a == b:
                continue
            cells += 1
            change = _relative_change(a, b)
            # nan outranks every number, so a changed text cell is always the one named
            if math.isnan(change) or (not math.isnan(worst) and change > worst):
                worst, where = change, f"at row {r} column {header[c] if c < len(header) else c}"
    return f"cells={cells} max_rel={worst:.3g} {where}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    names_old = {n for n in os.listdir(args.old) if n.endswith(".csv")}
    names_new = {n for n in os.listdir(args.new) if n.endswith(".csv")}
    differs = False
    for name in sorted(names_old | names_new):
        if name not in names_new or name not in names_old:
            line = f"only in {'OLD' if name in names_old else 'NEW'}"
        else:
            line = compare(os.path.join(args.old, name), os.path.join(args.new, name))
        if line is not None:
            differs = True
            print(f"{name} {line}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
