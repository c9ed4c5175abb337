"""CLI surface: subcommands, units, reproducibility, exit codes, manifests."""

import csv
import hashlib
import json
import math

import pytest

from jacobi_fading import __version__, analytic, cli, simulate
from jacobi_fading.cli import _parse_grid, main
from jacobi_fading.ensembles import ChannelDims


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_grid_parsing():
    assert _parse_grid("0:30:10") == [0.0, 10.0, 20.0, 30.0]
    assert len(_parse_grid("0:30:1")) == 31
    assert _parse_grid("1,2.5,7") == [1.0, 2.5, 7.0]
    assert _parse_grid("42") == [42.0]
    with pytest.raises(ValueError):
        _parse_grid("0:10:-1")
    with pytest.raises(ValueError):
        _parse_grid("0:10")
    for text in ("0:inf:1", "nan:1:1", "0:1e300:1e-300"):
        with pytest.raises(ValueError, match=f"grid '{text}'"):
            _parse_grid(text)


def test_ergodic_analytic(tmp_path):
    code, out = run_cli(
        ["ergodic", "--mt", "2", "--mr", "2", "--m", "4", "--rho-db", "0:30:1", "--method", "analytic"],
        tmp_path,
    )
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 31
    assert rows[0]["stderr"] == ""
    norm30 = float(rows[-1]["capacity_normalized"])
    assert 1.0 < norm30 < 2.0
    # pinned dims guarantee k single-mode capacities
    code, out = run_cli(
        ["ergodic", "--mt", "3", "--mr", "3", "--m", "4", "--rho-db", "0:30:5", "--method", "analytic"],
        tmp_path,
        "pinned.csv",
    )
    for row in read_rows(out):
        assert float(row["capacity_normalized"]) >= 2.0


def test_ergodic_normalised_capacity_low_snr_limit(tmp_path):
    # (1,1,2) has one eigenvalue, uniform on [0, 1], so C / log2(1 + rho) =
    # 1/2 + rho/12 + O(rho^2): the limit mt*mr/m holds where 1 + rho rounds too
    args = ["ergodic", "--mt", "1", "--mr", "1", "--m", "2", "--rho-db=-150,-100", "--method", "analytic"]
    code, out = run_cli(args, tmp_path)
    assert code == 0
    rows = read_rows(out)
    assert [float(row["rho_db"]) for row in rows] == [-150.0, -100.0]
    for row in rows:
        rho = 10.0 ** (float(row["rho_db"]) / 10.0)
        assert abs(float(row["capacity_normalized"]) - (0.5 + rho / 12.0)) <= 1e-12


def test_ergodic_analytic_at_120_db(tmp_path):
    args = ["ergodic", "--mt", "2", "--mr", "2", "--m", "4", "--rho-db", "120", "--method", "analytic"]
    code, out = run_cli(args, tmp_path)
    assert code == 0
    assert len(read_rows(out)) == 1


def test_quadrature_failure_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(analytic, "_PANEL_EXTRA_NODES", 1)
    args = ["ergodic", "--mt", "2", "--mr", "2", "--m", "4", "--rho-db", "120", "--method", "analytic"]
    code, out = run_cli(args, tmp_path)
    assert code == 1
    assert "numerical failure:" in capsys.readouterr().err
    assert not out.exists()


def test_density_normaliser_overflow_exits_1(tmp_path, capsys):
    # 1/B(600, 700) does not fit in a float: a numerical failure, not a traceback
    args = ["ergodic", "--mt", "1", "--mr", "600", "--m", "1300", "--rho-db", "20", "--method", "analytic"]
    code, out = run_cli(args, tmp_path)
    assert code == 1
    assert "numerical failure:" in capsys.readouterr().err
    assert not out.exists()


def test_rayleigh_truncation_exits_1(tmp_path, capsys, monkeypatch):
    # a cutoff inside the bulk: the baseline capacity must fail loudly
    monkeypatch.setattr(analytic, "_laguerre_cutoff", lambda n, alpha: 10.0)
    args = ["rayleigh", "--mt", "2", "--mr", "2", "--m", "8", "--rho-bar-db", "20", "--trials", "100"]
    code, out = run_cli(args, tmp_path)
    assert code == 1
    assert "numerical failure:" in capsys.readouterr().err
    assert not out.exists()


def test_ergodic_mc_agrees_with_analytic(tmp_path):
    base = ["ergodic", "--mt", "2", "--mr", "2", "--m", "4", "--rho-db", "0:20:10"]
    _, out_a = run_cli(base + ["--method", "analytic"], tmp_path, "a.csv")
    _, out_m = run_cli(base + ["--method", "mc", "--trials", "40000"], tmp_path, "m.csv")
    for ra, rm in zip(read_rows(out_a), read_rows(out_m)):
        gap = abs(float(ra["capacity_bits"]) - float(rm["capacity_bits"]))
        assert gap < 3 * float(rm["stderr"])


def test_outage_zero_region_exact(tmp_path):
    code, out = run_cli(
        ["outage", "--mt", "2", "--mr", "2", "--m", "3", "--rho-db", "20", "--r", "0:2:0.25", "--trials", "20000"],
        tmp_path,
    )
    assert code == 0
    for row in read_rows(out):
        if float(row["r"]) < 1.0:
            assert row["outage"] == "0.0" and row["stderr"] == "0.0"
        if float(row["r"]) > 1.5:
            assert float(row["outage"]) > 0.0


def test_outage_monotone_in_m(tmp_path):
    vals = []
    for m in (4, 5, 6, 7):
        _, out = run_cli(
            ["outage", "--mt", "2", "--mr", "2", "--m", str(m), "--rho-db", "20", "--r", "1.2", "--trials", "30000"],
            tmp_path,
            f"m{m}.csv",
        )
        vals.append(float(read_rows(out)[0]["outage"]))
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_rho_norm_table(tmp_path):
    code, out = run_cli(
        ["rho-norm", "--m", "4,16", "--mr", "all", "--epsilon", "1e-3,1e-5"],
        tmp_path,
    )
    assert code == 0
    rows = read_rows(out)
    by_key = {(int(r["m"]), int(r["mr"]), float(r["epsilon"])): float(r["rho_norm_db"]) for r in rows}
    assert by_key[(4, 4, 1e-3)] == 0.0
    assert by_key[(4, 4, 1e-5)] == 0.0
    assert by_key[(4, 2, 1e-5)] > by_key[(4, 2, 1e-3)]
    assert by_key[(16, 8, 1e-3)] < by_key[(4, 2, 1e-3)]  # same mr/m, larger m


def test_dmt_csv_and_json(tmp_path):
    json_path = tmp_path / "curve.json"
    code, out = run_cli(
        ["dmt", "--mt", "2", "--mr", "2", "--m", "3", "--json", str(json_path)],
        tmp_path,
    )
    assert code == 0
    rows = read_rows(out)
    assert [(float(r["r"]), float(r["d"])) for r in rows] == [(1.0, 1.0), (2.0, 0.0)]
    curve = json.loads(json_path.read_text())
    assert curve["infinite_below"] == 1.0
    assert curve["vertices"] == [[1.0, 1.0], [2.0, 0.0]]


def test_repetition_methods(tmp_path):
    _, out = run_cli(
        ["repetition", "--mt", "1", "--mr", "2", "--m", "3", "--rho-db", "20,30,40", "--method", "tail"],
        tmp_path,
    )
    rows = read_rows(out)
    vals = [float(r["error_prob"]) for r in rows]
    assert vals[0] / vals[1] == pytest.approx(100.0, rel=0.05)
    _, out2 = run_cli(
        ["repetition", "--mt", "1", "--mr", "2", "--m", "3", "--rho-db", "3", "--method", "count", "--trials", "20000"],
        tmp_path,
        "cnt.csv",
    )
    assert 0.0 < float(read_rows(out2)[0]["error_prob"]) < 1.0


def test_alamouti_unitary_case(tmp_path):
    _, out = run_cli(
        ["alamouti", "--m", "2", "--r", "1.0", "--rho-db", "0:20:10", "--trials", "5000"],
        tmp_path,
    )
    for row in read_rows(out):
        assert row["outage"] == "0.0"


def test_feedback_csv(tmp_path):
    code, out = run_cli(
        ["feedback", "--mt", "2", "--mr", "2", "--m", "3", "--rho-db", "10", "--uses", "500"],
        tmp_path,
    )
    assert code == 0
    row = read_rows(out)[0]
    assert float(row["snr_linear"]) == pytest.approx(10.0, rel=0.02)
    assert float(row["achieved_rate_bits"]) <= math.log2(11.0)
    assert int(row["overhead_uses"]) == 2


def test_feedback_refuses_k0(tmp_path, capsys):
    code = main(["feedback", "--mt", "2", "--mr", "2", "--m", "4", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "mt + mr > m" in capsys.readouterr().err


def test_usage_error_bad_dims(tmp_path, capsys):
    code = main(["ergodic", "--mt", "5", "--mr", "2", "--m", "4", "--rho-db", "10", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "mt" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rho_db, method",
    # -200 dB: 1 + rho rounds to 1; -4000 dB: rho itself underflows to 0
    [("4000", "analytic"), ("inf", "mc"), ("nan", "mc"), ("-200", "analytic"), ("-200", "mc"), ("-4000", "analytic")],
)
def test_snr_out_of_range_exits_2(tmp_path, capsys, rho_db, method):
    code, out = run_cli(
        ["ergodic", "--mt", "1", "--mr", "1", "--m", "2", "--rho-db", rho_db, "--method", method,
         "--trials", "100"],
        tmp_path,
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["alamouti", "--m", "4", "--r", "nan", "--rho-db", "10"],
        ["alamouti", "--m", "4", "--r", "inf", "--rho-db", "10"],
        ["alamouti", "--m", "4", "--r=-0.5", "--rho-db", "10"],
        ["outage", "--mt", "1", "--mr", "1", "--m", "2", "--rho-db", "10", "--r", "nan"],
        ["outage", "--mt", "1", "--mr", "1", "--m", "2", "--rho-db", "10", "--rate-bits", "inf"],
        ["outage", "--mt", "2", "--mr", "2", "--m", "3", "--rho-db", "10", "--r=-1"],
        ["outage", "--mt", "2", "--mr", "2", "--m", "3", "--rho-db", "-200", "--rate-bits", "1"],
    ],
)
def test_bad_rate_exits_2(tmp_path, capsys, args):
    code, out = run_cli(args + ["--trials", "100"], tmp_path)
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["ergodic", "--mt", "2", "--mr", "2", "--m", "4", "--rho-db", ","],
        ["rho-norm", "--m", "0", "--epsilon", "1e-3"],
        ["rho-norm", "--m", "-4", "--epsilon", "1e-3"],
        ["rho-norm", "--m", "4", "--mr", "2.6", "--epsilon", "1e-3"],
        ["rho-norm", "--m", "4", "--mr", "5", "--epsilon", "1e-3"],
        ["rayleigh", "--mt", "2", "--mr", "2", "--m", "8.7", "--rho-bar-db", "20"],
        ["rayleigh", "--mt", "2", "--mr", "2", "--m", ",", "--rho-bar-db", "20"],
        ["ergodic", "--mt", "2", "--mr", "2", "--m", "4", "--rho-db", "0:inf:1"],
        ["ergodic", "--mt", "2", "--mr", "2", "--m", "4", "--rho-db", "nan:1:1"],
        ["ergodic", "--mt", "2", "--mr", "2", "--m", "4", "--rho-db", "0:1:nan"],
        ["ergodic", "--mt", "2", "--mr", "2", "--m", "4", "--rho-db", "-inf:0:1"],
        ["outage", "--mt", "2", "--mr", "2", "--m", "4", "--rho-db", "10", "--r", "0:1e300:1e-300"],
        ["rho-norm", "--m", "4", "--mr", "1:inf:1", "--epsilon", "1e-3"],
    ],
)
def test_bad_grid_or_mode_list_exits_2(tmp_path, capsys, args):
    code, out = run_cli(args, tmp_path)
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, target",
    [
        (["--out", "{missing}/x.csv"], "{missing}/x.csv"),
        (["--out", "-", "--manifest", "{missing}/m.json"], "{missing}/m.json"),
        (["--out", "{tmp}/x.csv", "--json", "{missing}/curve.json"], "{missing}/curve.json"),
    ],
    ids=["out", "manifest", "dmt-json"],
)
def test_unwritable_output_exits_2(tmp_path, capsys, extra, target):
    fill = {"missing": str(tmp_path / "no-such-dir"), "tmp": str(tmp_path)}
    args = ["dmt", "--mt", "2", "--mr", "2", "--m", "3"] + [a.format(**fill) for a in extra]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target.format(**fill)}: ")


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_rayleigh_table(tmp_path):
    code, out = run_cli(
        ["rayleigh", "--mt", "2", "--mr", "2", "--m", "8,16", "--rho-bar-db", "20", "--trials", "20000"],
        tmp_path,
    )
    assert code == 0
    rows = read_rows(out)
    assert [int(r["m"]) for r in rows] == [8, 16]
    for row in rows:
        for key, val in row.items():
            assert val != ""
            assert math.isfinite(float(val))
    assert float(rows[1]["ks_scaled_spectrum"]) < float(rows[0]["ks_scaled_spectrum"])
    # the baseline is exact: no stderr, and no seed or worker count moves it
    _, other = run_cli(
        ["rayleigh", "--mt", "2", "--mr", "2", "--m", "8,16", "--rho-bar-db", "20", "--trials", "20000",
         "--seed", "3", "--workers", "2"],
        tmp_path,
        "other.csv",
    )
    baseline = {r["capacity_rayleigh_bits"] for r in rows + read_rows(other)}
    assert len(baseline) == 1
    assert {r["rayleigh_stderr"] for r in rows} == {"0.0"}


def test_byte_identical_reruns(tmp_path):
    args = ["ergodic", "--mt", "2", "--mr", "2", "--m", "4", "--rho-db", "0:10:5",
            "--method", "mc", "--trials", "20000", "--seed", "7"]
    _, out1 = run_cli(args, tmp_path, "r1.csv")
    _, out2 = run_cli(args, tmp_path, "r2.csv")
    assert out1.read_bytes() == out2.read_bytes()
    _, out8 = run_cli(args + ["--workers", "8"], tmp_path, "r8.csv")
    assert out1.read_bytes() == out8.read_bytes()


def test_manifest_contents(tmp_path):
    _, out = run_cli(
        ["outage", "--mt", "1", "--mr", "2", "--m", "4", "--rho-db", "10", "--r", "0.5",
         "--trials", "5000", "--seed", "3"],
        tmp_path,
    )
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "outage"
    assert manifest["master_seed"] == 3
    assert manifest["parameters"]["trials"] == 5000
    assert manifest["output_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
    assert "timestamp" in manifest and "version" in manifest


def test_stdout_output(capsys):
    code = main(["dmt", "--mt", "4", "--mr", "4", "--m", "8"])
    assert code == 0
    captured = capsys.readouterr().out
    assert captured.splitlines()[0] == "r,d,infinite_below"
    assert len(captured.splitlines()) == 6


# (fixed arguments, grid option, grid points) of every Monte-Carlo subcommand
MC_GRIDS = [
    (["ergodic", "--mt", "2", "--mr", "2", "--m", "4", "--method", "mc"], "--rho-db", ["0", "10", "20"]),
    (["outage", "--mt", "2", "--mr", "2", "--m", "4", "--rho-db", "10"], "--r", ["0.5", "1", "1.5"]),
    (["alamouti", "--m", "4", "--r", "0.5"], "--rho-db", ["0", "10", "20"]),
    (["repetition", "--mt", "1", "--mr", "2", "--m", "3", "--method", "conditional"], "--rho-db", ["0", "5", "10"]),
    (["repetition", "--mt", "2", "--mr", "1", "--m", "3", "--method", "count"], "--rho-db", ["0", "5", "10"]),
    (["rayleigh", "--mt", "2", "--mr", "2", "--m", "4,8"], "--rho-bar-db", ["10", "20"]),
]


@pytest.mark.parametrize(
    "fixed, option, points",
    MC_GRIDS,
    ids=["ergodic", "outage", "alamouti", "repetition-conditional", "repetition-count", "rayleigh"],
)
def test_grid_rows_match_points_run_alone(tmp_path, fixed, option, points):
    # a grid shares one sample set across its points; each point alone
    # draws it afresh, and both must give the same bytes
    mc = ["--trials", "20000", "--seed", "5"]  # three chunks, the last partial
    _, grid_out = run_cli(fixed + [option, ",".join(points)] + mc + ["--workers", "2"], tmp_path, "grid.csv")
    grid_lines = grid_out.read_text().splitlines()
    alone = []
    for i, point in enumerate(points):
        _, out = run_cli(fixed + [option, point] + mc, tmp_path, f"p{i}.csv")
        alone += out.read_text().splitlines()[1:]
    assert len(grid_lines) > len(points)
    assert grid_lines[1:] == alone


def test_sample_sets_are_drawn_once_per_invocation(tmp_path, monkeypatch):
    draws = []

    def counting(name):
        real = getattr(simulate, name)

        def draw(key, lo, hi, n):
            draws.append((name, key, lo, hi, n))
            return real(key, lo, hi, n)

        return draw

    for name in ("complex_normals", "uniforms"):
        monkeypatch.setattr(simulate, name, counting(name))
    chunks = 3  # 20000 trials
    for args, per_chunk in (
        # the spectrum model: one uniforms draw per chunk
        (["ergodic", "--mt", "2", "--mr", "2", "--m", "4", "--rho-db", "0:20:5", "--method", "mc"], 1),
        # the gain's spectrum model, the combined noise and the symbol signs per chunk
        (["repetition", "--mt", "1", "--mr", "2", "--m", "3", "--rho-db", "0:20:5", "--method", "count"], 3),
    ):
        draws.clear()
        args = args + ["--trials", "20000"]
        run_cli(args, tmp_path)
        assert len(draws) == chunks * per_chunk == len(set(draws))
        # a second invocation shares nothing with the first
        run_cli(args, tmp_path)
        assert draws[len(draws) // 2:] == draws[: len(draws) // 2]
        assert len(draws) == 2 * chunks * per_chunk
    # library calls outside the CLI draw afresh on every call
    draws.clear()
    cfg = simulate.McConfig(trials=20000)
    dims = ChannelDims(2, 2, 4)
    first = simulate.mc_ergodic_capacity(dims, 10.0, cfg)
    assert simulate.mc_ergodic_capacity(dims, 10.0, cfg) == first
    assert len(draws) == 2 * chunks


def test_parser_is_built_once_per_process(tmp_path, capsys):
    calls = [
        ["ergodic", "--mt", "two", "--mr", "2", "--m", "4", "--rho-db", "0"],  # argparse rejects it
        ["--version"],
        ["ergodic", "--mt", "2", "--mr", "2", "--m", "4", "--rho-db", "0:20:10"],
        ["outage", "--mt", "2", "--mr", "2", "--m", "3", "--rho-db", "20", "--r", "1:2:0.5", "--trials", "2000"],
    ]

    def run_all(fresh):
        results = []
        for i, args in enumerate(calls):
            if fresh:
                cli._build_parser.cache_clear()
            code, out = run_cli(args, tmp_path, f"{fresh}-{i}.csv")
            results.append((code, out.read_bytes() if out.exists() else None, capsys.readouterr().out))
        return results

    fresh = run_all(True)
    cli._build_parser.cache_clear()
    shared = run_all(False)
    assert cli._build_parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 0]
    assert shared[1][2].strip() == __version__
    assert shared[2][1] != shared[3][1] and shared[3][1].startswith(b"r,outage,stderr\n")
