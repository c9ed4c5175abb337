"""Generate bench/references.json: high-precision references for the benchmark's checks.

Every value is computed here with mpmath at 40 significant digits, from
formulas written out in this file; nothing is taken from the library under
test.  The benchmark only reads the committed table.

* Ergodic capacity for mt + mr <= m integrates log2(1 + rho*lam) against the
  spectral density  lam^a (1-lam)^b sum_{n < m_min} P_n(1-2lam)^2 / h_n,
  with P_n the Jacobi polynomials from the DLMF 18.9.1 recurrence and h_n
  their closed-form squared norms on [0, 1].  The integral is split at 1/rho,
  10/rho and 100/rho, where the log factor bends.  For k = mt + mr - m > 0 the
  split identity adds k*log2(1 + rho) to the complementary channel's capacity.
* Single-mode outage of the complementary channel and the rho-norm round trip
  use mpmath.betainc.
* The repetition-scheme error, and its second moment for the Monte-Carlo
  checks, integrate the exact QPSK symbol error against the same density.

Run from the repository root:  python3 bench/make_references.py
"""

from __future__ import annotations

import json
import os
import sys

import mpmath as mp

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

mp.mp.dps = 40
DIGITS = 25
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def db_to_linear(db: float):
    # the CLI converts dB with 10.0 ** (db / 10.0) in double precision; the
    # references take that double exactly, so both sides see the same rho
    return mp.mpf(10.0 ** (db / 10.0))


def jacobi_values(nmax: int, a: int, b: int, x):
    """P_0 .. P_nmax of parameters (a, b) at x, by DLMF 18.9.1."""
    vals = [mp.mpf(1)]
    if nmax >= 1:
        vals.append((a + 1) + (a + b + 2) * (x - 1) / 2)
    for n in range(2, nmax + 1):
        c = 2 * n + a + b
        num = (c - 1) * (c * (c - 2) * x + a * a - b * b) * vals[n - 1]
        num -= 2 * (n + a - 1) * (n + b - 1) * c * vals[n - 2]
        vals.append(num / (2 * n * (n + a + b) * (c - 2)))
    return vals


def jacobi_norm01(n: int, a: int, b: int):
    """Integral over [0, 1] of lam^a (1-lam)^b P_n(1-2lam)^2."""
    return (
        mp.gamma(n + a + 1) * mp.gamma(n + b + 1)
        / ((2 * n + a + b + 1) * mp.gamma(n + a + b + 1) * mp.factorial(n))
    )


def density(mt: int, mr: int, m: int):
    """Sum of the m_min single-eigenvalue densities (integrates to m_min)."""
    n_min, a, b = min(mt, mr), abs(mr - mt), m - mt - mr
    inv_norms = [1 / jacobi_norm01(n, a, b) for n in range(n_min)]

    def f(lam):
        polys = jacobi_values(n_min - 1, a, b, 1 - 2 * lam)
        series = mp.fsum(p * p * w for p, w in zip(polys, inv_norms))
        return lam**a * (1 - lam) ** b * series

    return f


def split_points(rho):
    return [mp.mpf(0)] + [c / rho for c in (1, 10, 100) if c / rho < 1] + [mp.mpf(1)]


def capacity(mt: int, mr: int, m: int, db: float):
    rho = db_to_linear(db)
    k = mt + mr - m
    if k > 0:
        cap = k * mp.log(1 + rho, 2)
        if m - mr >= 1 and m - mt >= 1:
            cap += capacity(m - mr, m - mt, m, db)
        return cap
    f = density(mt, mr, m)
    return mp.quad(lambda lam: mp.log(1 + rho * lam, 2) * f(lam), split_points(rho))


def check_density(mt: int, mr: int, m: int) -> None:
    total = mp.quad(density(mt, mr, m), [0, 1])
    if abs(total - min(mt, mr)) > mp.mpf(10) ** -30:
        raise SystemExit(f"density of {(mt, mr, m)} integrates to {total}")


def outage_complementary(mt: int, mr: int, m: int, db: float, r: float):
    """P(mutual information < r log2(1+rho)) for k > 0 with a single interior mode."""
    rho = db_to_linear(db)
    k = mt + mr - m
    mt_c, mr_c = m - mr, m - mt
    if min(mt_c, mr_c) != 1:
        raise SystemExit("outage reference needs a single-mode complementary channel")
    x = ((1 + rho) ** (mp.mpf(r) - k) - 1) / rho
    if x <= 0:
        return mp.mpf(0)
    if x >= 1:
        return mp.mpf(1)
    n_max = max(mt_c, mr_c)
    return mp.betainc(n_max, m - n_max, 0, x, regularized=True)


def rho_norm_reference(m: int, mr: int, eps: float):
    """(ln x, d ln I / d ln x) at the x with I_x(mr, m - mr) = eps."""
    a, b, target = mp.mpf(mr), mp.mpf(m - mr), mp.mpf(eps)
    lo, hi = mp.mpf(-700), mp.mpf(0)
    for _ in range(140):
        mid = (lo + hi) / 2
        if mp.betainc(a, b, 0, mp.exp(mid), regularized=True) > target:
            hi = mid
        else:
            lo = mid
    t = (lo + hi) / 2
    x = mp.exp(t)
    got = mp.betainc(a, b, 0, x, regularized=True)
    if abs(got / target - 1) > mp.mpf(10) ** -25:
        raise SystemExit(f"rho-norm inversion missed at {(m, mr, eps)}: {got}")
    pdf = x ** (a - 1) * (1 - x) ** (b - 1) / mp.beta(a, b)
    return t, x * pdf / target


def qpsk_symbol_error(snr):
    q = mp.erfc(mp.sqrt(snr) / mp.sqrt(2)) / 2
    return 2 * q - q * q


def repetition_error(mt: int, mr: int, m: int, db: float, power: int = 1):
    """E[Ps(rho*lam)^power]: the error rate, or its second moment with power=2."""
    if mt + mr > m or min(mt, mr) != 1:
        raise SystemExit("repetition reference needs k = 0 and one eigenvalue")
    rho = db_to_linear(db)
    f = density(mt, mr, m)
    return mp.quad(lambda lam: qpsk_symbol_error(rho * lam) ** power * f(lam), split_points(rho))


def dmt_vertices(mt: int, mr: int, m: int):
    k = mt + mr - m
    if k > 0:
        raise SystemExit("dmt reference covers k = 0 only")
    return [[float(j), float((mt - j) * (mr - j))] for j in range(min(mt, mr) + 1)]


def fmt(x) -> str:
    return mp.nstr(x, DIGITS, strip_zeros=False)


def main() -> None:
    needs = workloads.reference_needs()
    table: dict = {
        "generator": {"mpmath": mp.__version__, "dps": mp.mp.dps, "digits": DIGITS},
        "capacity": {},
        "outage": {},
        "repetition": {},
        "repetition_m2": {},
        "rho_norm": {},
        "dmt": {},
    }
    for (mt, mr, m), dbs in sorted(needs["capacity"].items()):
        k = mt + mr - m
        base = (m - mr, m - mt, m) if k > 0 else (mt, mr, m)
        if min(base) >= 1 and base[0] + base[1] <= m:
            check_density(*base)
        key = workloads.dims_key(mt, mr, m)
        table["capacity"][key] = {repr(db): fmt(capacity(mt, mr, m, db)) for db in sorted(dbs)}
        print(f"capacity {key}: {len(dbs)} points", flush=True)
    for (mt, mr, m, db), rs in sorted(needs["outage"].items()):
        key = f"{workloads.dims_key(mt, mr, m)}@{db!r}"
        table["outage"][key] = {repr(r): fmt(outage_complementary(mt, mr, m, db, r)) for r in rs}
    for (mt, mr, m), dbs in sorted(needs["repetition"].items()):
        key = workloads.dims_key(mt, mr, m)
        table["repetition"][key] = {repr(db): fmt(repetition_error(mt, mr, m, db)) for db in dbs}
        table["repetition_m2"][key] = {repr(db): fmt(repetition_error(mt, mr, m, db, 2)) for db in dbs}
    for m, mr, eps in sorted(needs["rho_norm"]):
        if mr == m:
            continue  # exactly 0 dB; checked without a table entry
        t, sens = rho_norm_reference(m, mr, eps)
        table["rho_norm"][f"{m},{mr},{eps!r}"] = [fmt(t), fmt(sens)]
    print(f"rho-norm: {len(table['rho_norm'])} points", flush=True)
    for mt, mr, m in sorted(needs["dmt"]):
        table["dmt"][workloads.dims_key(mt, mr, m)] = dmt_vertices(mt, mr, m)
    with open(OUT, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
