"""Command-line front end: every analysis as a subcommand with reproducible seeds.

Units at this boundary: SNRs enter and leave in dB (the library is linear
throughout), rates are bits per channel use, probabilities are plain
fractions.  Every run can emit a JSON manifest recording the subcommand,
the full parameter set, the seed, the tool version, and a checksum of the
output, so a run can be reproduced byte for byte (timestamp aside).

Seeds are explicit or default to the constant 0; no environment variable is
consulted.  Exit codes: 0 success, 2 usage error, 1 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import sys
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from . import __version__, analytic, feedback, simulate
from .ensembles import ChannelDims
from .errors import NumericalError
from .specfun import log2_1p

__all__ = ["main"]


def _parse_grid(text: str) -> list[float]:
    """Parse 'start:stop:step' (inclusive when step divides), 'a,b,c', or 'x'.

    A grid with no points is a usage error, not an empty table.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"grid {text!r} needs a finite start, stop and step")
        if step <= 0.0:
            raise ValueError("grid step must be > 0")
        if stop < start:
            raise ValueError("grid stop must be >= start")
        span = (stop - start) / step
        if not math.isfinite(span):
            raise ValueError(f"grid {text!r} has too many points to count")
        count = int(math.floor(span + 1e-9)) + 1
        return [start + i * step for i in range(count)]
    if "," in text:
        values = [float(p) for p in text.split(",") if p.strip()]
        if not values:
            raise ValueError(f"grid {text!r} has no points")
        return values
    return [float(text)]


def _parse_int_list(text: str) -> list[int]:
    """Parse a grid of mode counts: every value a whole number >= 1."""
    values = _parse_grid(text)
    for v in values:
        if not (v.is_integer() and v >= 1):
            raise ValueError(f"mode counts must be whole numbers >= 1, got {v!r} in {text!r}")
    return [int(v) for v in values]


def _db_to_linear(db: float) -> float:
    if not math.isfinite(db):
        raise ValueError(f"an SNR must be a finite number of dB, got {db!r}")
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"{db!r} dB is beyond the float range") from None


def _rate_unit(rho_db: float, rho: float) -> float:
    """log2(1 + rho), the bits of one normalised rate unit; ValueError where 1 + rho rounds to 1."""
    if 1.0 + rho == 1.0:
        raise ValueError(f"at {rho_db!r} dB, 1 + rho rounds to 1: no normalised rate is defined")
    return log2_1p(rho)


def _linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


class _Output(NamedTuple):
    header: list[str]
    rows: list[list]

    def render(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.header)
        for row in self.rows:
            for v in row:
                if isinstance(v, float) and not math.isfinite(v):
                    raise NumericalError("refusing to serialize a non-finite value")
            writer.writerow([_fmt(v) for v in row])
        return buf.getvalue()


def _dims_from_args(args) -> ChannelDims:
    try:
        return ChannelDims(args.mt, args.mr, args.m)
    except ValueError as exc:
        raise ValueError(f"invalid mode counts: {exc}") from exc


def _mc_config(args) -> simulate.McConfig:
    return simulate.McConfig(trials=args.trials, master_seed=args.seed, workers=args.workers)


def _cmd_ergodic(args) -> _Output:
    dims = _dims_from_args(args)
    # every grid point is checked before any estimator runs
    grid = [(rho_db, _db_to_linear(rho_db)) for rho_db in _parse_grid(args.rho_db)]
    norms = [_rate_unit(rho_db, rho) for rho_db, rho in grid]
    rows = []
    for (rho_db, rho), norm in zip(grid, norms):
        if args.method == "analytic":
            cap = analytic.ergodic_capacity(dims, rho)
            stderr = None
        else:
            est = simulate.mc_ergodic_capacity(dims, rho, _mc_config(args))
            cap, stderr = est.value, est.stderr
        rows.append([rho_db, cap, cap / norm, stderr])
    return _Output(["rho_db", "capacity_bits", "capacity_normalized", "stderr"], rows)


def _cmd_outage(args) -> _Output:
    dims = _dims_from_args(args)
    rho = _db_to_linear(args.rho_db)
    cfg = _mc_config(args)
    rows = []
    if args.r is not None:
        for r in _parse_grid(args.r):
            est = simulate.mc_outage(dims, rho, cfg, r=r)
            rows.append([r, est.value, est.stderr])
    else:
        norm = _rate_unit(args.rho_db, rho)
        for rate in _parse_grid(args.rate_bits):
            est = simulate.mc_outage(dims, rho, cfg, rate_bits=rate)
            rows.append([rate / norm, est.value, est.stderr])
    return _Output(["r", "outage", "stderr"], rows)


def _cmd_rho_norm(args) -> _Output:
    eps_list = _parse_grid(args.epsilon)
    rows = []
    for m in _parse_int_list(args.m):
        if args.mr == "all":
            mr_list = list(range(1, m + 1))
        else:
            mr_list = [mr for mr in _parse_int_list(args.mr) if mr <= m]
        for mr in mr_list:
            for eps in eps_list:
                rn = analytic.rho_norm(mr, m, eps)
                rows.append([m, mr, mr / m, eps, _linear_to_db(rn)])
    if not rows:
        raise ValueError(f"no --mr value {args.mr!r} is <= any --m value {args.m!r}")
    return _Output(["m", "mr", "mr_over_m", "epsilon", "rho_norm_db"], rows)


def _cmd_dmt(args) -> _Output:
    dims = _dims_from_args(args)
    curve = analytic.dmt_optimal_curve(dims)
    rows = [[r, d, curve.infinite_below] for r, d in curve.vertices]
    out = _Output(["r", "d", "infinite_below"], rows)
    if args.json:
        payload = {
            "mt": dims.mt,
            "mr": dims.mr,
            "m": dims.m,
            "vertices": [list(v) for v in curve.vertices],
            "infinite_below": curve.infinite_below,
        }
        _write_file(args.json, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out


def _cmd_repetition(args) -> _Output:
    dims = _dims_from_args(args)
    rows = []
    for rho_db in _parse_grid(args.rho_db):
        rho = _db_to_linear(rho_db)
        if args.method == "tail":
            rows.append([rho_db, simulate.repetition_error_tail(dims, rho), 0.0])
        else:
            est = simulate.mc_repetition_error(dims, rho, _mc_config(args), method=args.method)
            rows.append([rho_db, est.value, est.stderr])
    return _Output(["rho_db", "error_prob", "stderr"], rows)


def _cmd_alamouti(args) -> _Output:
    cfg = _mc_config(args)
    rows = []
    for rho_db in _parse_grid(args.rho_db):
        rho = _db_to_linear(rho_db)
        est = simulate.mc_alamouti_outage(args.m, rho, args.r, cfg)
        rows.append([rho_db, est.value, est.stderr])
    return _Output(["rho_db", "outage", "stderr"], rows)


def _cmd_feedback(args) -> _Output:
    cfg = feedback.SchemeConfig(
        dims=_dims_from_args(args),
        n_uses=args.uses,
        delay=args.delay,
        rho=_db_to_linear(args.rho_db),
        modulation=args.modulation,
        master_seed=args.seed,
        fresh_channel_each_use=not args.hold_channel,
    )
    rep = feedback.run_feedback_scheme(cfg)
    rows = []
    for j, snr in enumerate(rep.per_stream_snr):
        rows.append(
            [
                j,
                snr,
                _linear_to_db(snr),
                rep.noise_cov_error,
                rep.achieved_rate,
                rep.ber,
                rep.overhead_uses,
            ]
        )
    return _Output(
        [
            "stream",
            "snr_linear",
            "snr_db",
            "noise_cov_error",
            "achieved_rate_bits",
            "ber",
            "overhead_uses",
        ],
        rows,
    )


def _cmd_rayleigh(args) -> _Output:
    cfg = _mc_config(args)
    m_list = _parse_int_list(args.m)
    rows = []
    for rho_bar_db in _parse_grid(args.rho_bar_db):
        table = simulate.rayleigh_compare(
            args.mt, args.mr, m_list, _db_to_linear(rho_bar_db), cfg
        )
        for row in table:
            rows.append(
                [
                    row.m,
                    rho_bar_db,
                    row.capacity_jacobi,
                    row.capacity_rayleigh,
                    0.0,  # the baseline is exact
                    row.ks_scaled_vs_wishart,
                    row.frobenius_mean,
                    row.capacity_jacobi - row.capacity_rayleigh,
                ]
            )
    return _Output(
        [
            "m",
            "rho_bar_db",
            "capacity_jacobi_bits",
            "capacity_rayleigh_bits",
            "rayleigh_stderr",
            "ks_scaled_spectrum",
            "frobenius_mean",
            "capacity_gap_bits",
        ],
        rows,
    )


def _add_dims(p):
    p.add_argument("--mt", type=int, required=True, help="transmit modes")
    p.add_argument("--mr", type=int, required=True, help="receive modes")
    p.add_argument("--m", type=int, required=True, help="total supported modes")


def _add_mc(p):
    p.add_argument("--trials", type=int, default=100_000, help="Monte-Carlo trials")
    p.add_argument("--workers", type=int, default=1, help="worker threads (speed only, never results)")


def _add_io(p):
    p.add_argument("--seed", type=int, default=0, help="master seed (default constant 0; no env fallback)")
    p.add_argument("--out", default="-", help="CSV output path, '-' for stdout")
    p.add_argument("--manifest", default=None, help="manifest JSON path (default <out>.manifest.json when --out is a file)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused for the process."""
    parser = argparse.ArgumentParser(
        prog="jacobi-fading",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ergodic", help="ergodic capacity over an SNR grid (bits)")
    _add_dims(p)
    p.add_argument("--rho-db", required=True, help="per-mode SNR grid in dB (start:stop:step, list, or value)")
    p.add_argument("--method", choices=["analytic", "mc"], default="analytic")
    _add_mc(p)
    _add_io(p)
    p.set_defaults(fn=_cmd_ergodic)

    p = sub.add_parser("outage", help="outage probability over a rate grid")
    _add_dims(p)
    p.add_argument("--rho-db", type=float, required=True, help="per-mode SNR in dB")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", help="multiplexing-ratio grid (rate = r*log2(1+rho))")
    group.add_argument("--rate-bits", help="absolute rate grid in bits per channel use")
    _add_mc(p)
    _add_io(p)
    p.set_defaults(fn=_cmd_outage)

    p = sub.add_parser("rho-norm", help="normalized SNR to reach a target outage (dB)")
    p.add_argument("--m", required=True, help="total modes (int or list)")
    p.add_argument("--mr", default="all", help="receive modes (int, list, or 'all')")
    p.add_argument("--epsilon", required=True, help="target outage probabilities (list)")
    _add_io(p)
    p.set_defaults(fn=_cmd_rho_norm)

    p = sub.add_parser("dmt", help="optimal diversity-multiplexing curve")
    _add_dims(p)
    p.add_argument("--json", default=None, help="also write the curve as JSON here")
    _add_io(p)
    p.set_defaults(fn=_cmd_dmt)

    p = sub.add_parser("repetition", help="repetition-scheme QPSK error rate vs SNR")
    _add_dims(p)
    p.add_argument("--rho-db", required=True, help="SNR grid in dB")
    p.add_argument(
        "--method",
        choices=["conditional", "count", "tail"],
        default="conditional",
        help="conditional: spectrum MC with exact noise averaging; count: full symbol counting; tail: deterministic deep-tail quadrature",
    )
    _add_mc(p)
    _add_io(p)
    p.set_defaults(fn=_cmd_repetition)

    p = sub.add_parser("alamouti", help="2x2 orthogonal block scheme outage vs SNR")
    p.add_argument("--m", type=int, required=True, help="total supported modes (>= 2)")
    p.add_argument("--r", type=float, required=True, help="multiplexing gain (rate = r*log2(rho))")
    p.add_argument("--rho-db", required=True, help="SNR grid in dB")
    _add_mc(p)
    _add_io(p)
    p.set_defaults(fn=_cmd_alamouti)

    p = sub.add_parser("feedback", help="run the zero-outage delayed-feedback scheme")
    _add_dims(p)
    p.add_argument("--rho-db", type=float, default=10.0, help="per-mode SNR in dB")
    p.add_argument("--uses", type=int, default=1000, help="frame length in channel uses")
    p.add_argument("--delay", type=int, default=1, help="feedback delay in channel uses")
    p.add_argument("--modulation", choices=["qpsk", "gaussian"], default="qpsk")
    p.add_argument("--hold-channel", action="store_true", help="hold one realization for the whole frame")
    _add_io(p)
    p.set_defaults(fn=_cmd_feedback)

    p = sub.add_parser("rayleigh", help="compare against the i.i.d. Rayleigh baseline on a shared received-SNR axis")
    p.add_argument("--mt", type=int, required=True)
    p.add_argument("--mr", type=int, required=True)
    p.add_argument("--m", required=True, help="total-mode list, every entry >= mt+mr")
    p.add_argument("--rho-bar-db", required=True, help="average received SNR per mode, dB grid")
    _add_mc(p)
    _add_io(p)
    p.set_defaults(fn=_cmd_rayleigh)

    return parser


def _write_file(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written is a usage error."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_manifest(path: str, args, csv_text: str) -> None:
    skip = {"fn", "out", "manifest"}
    params = {k: v for k, v in vars(args).items() if k not in skip}
    manifest = {
        "subcommand": args.command,
        "parameters": params,
        "master_seed": getattr(args, "seed", 0),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "output_sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
    }
    _write_file(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with simulate._shared_draws():
            out = args.fn(args)
        text = out.render()
        if args.out == "-":
            sys.stdout.write(text)
            if args.manifest:
                _write_manifest(args.manifest, args, text)
        else:
            _write_file(args.out, text)
            _write_manifest(args.manifest or args.out + ".manifest.json", args, text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
