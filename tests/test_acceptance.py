"""Acceptance suite: one test per criterion, at the stated sizes and tolerances.

Each criterion prints a [PASS] line when it holds (run with ``pytest -s`` to
see them); a failed assertion carries the measured numbers.

Criterion 9's equivalent-SNR clause is expected to fail: the exact capacity
gap of the model at (2,2,32), rho_bar = 20 dB is 0.131 dB, above the stated
0.1 dB bound for any implementation (the gap scales like 1/m and crosses
0.1 dB only around m = 48 at this operating point), so the red assertion
reflects the mathematics, not a defect in the code under test.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from jacobi_fading.analytic import (
    dmt_optimal_curve,
    eigen_density,
    ergodic_capacity,
    outage_single_mode,
    rho_norm,
)
from jacobi_fading.cli import main as cli_main
from jacobi_fading.ensembles import ChannelDims, verify_pinned_spectrum
from jacobi_fading.philox import stream_key
from jacobi_fading.simulate import (
    McConfig,
    channel_blocks,
    estimate_diversity_slope,
    mc_ergodic_capacity,
    mc_outage,
    mc_repetition_error,
    qpsk_bit_error,
    rayleigh_compare,
    repetition_error_tail,
)
from jacobi_fading import feedback
from jacobi_fading.feedback import SchemeConfig, run_feedback_scheme
from oracles import haar_spectra, ks_distance, mode_power_deviation, sample_jacobi_spectra_wishart


def _passed(label: str, detail: str = ""):
    print(f"[PASS] {label}" + (f" :: {detail}" if detail else ""))


def test_criterion_01_pinned_spectrum_exactness_per_sample():
    """At least k unit and mt-m_min zero eigenvalues, interiors match H22H22+."""
    draws = 10_000
    for mt, mr, m in [(2, 2, 3), (3, 3, 4), (4, 3, 4), (3, 2, 4)]:
        dims = ChannelDims(mt, mr, m)
        unitaries = channel_blocks(ChannelDims(m, m, m), stream_key(0, f"criterion-1:{m}"), 0, draws)
        rep = verify_pinned_spectrum(unitaries, dims)
        assert np.all(rep.n_unit_found >= dims.k), (dims, rep.n_unit_found.min())
        assert np.all(rep.n_zero_found >= dims.mt - dims.m_min), (dims, rep.n_zero_found.min())
        worst = float(np.max(rep.residual_match_error))
        assert worst < 1e-9, (dims, worst)
        _passed(f"criterion 1 ({mt},{mr},{m})", f"{draws} draws, worst residual {worst:.2e}")


def test_criterion_02_ensemble_equivalence():
    """Truncated-Haar spectra match Wishart-built Jacobi spectra, KS < 0.01."""
    trials = 100_000
    for mt, mr, m in [(2, 2, 4), (1, 2, 4)]:
        dims = ChannelDims(mt, mr, m)
        cfg = McConfig(trials=trials)
        haar = haar_spectra(dims, cfg)
        wish = sample_jacobi_spectra_wishart(dims.m_max, m - dims.m_max, dims.m_min, cfg)
        ks = ks_distance(haar, wish)
        assert ks < 0.01, f"dims ({mt},{mr},{m}): KS = {ks:.4f}"
        _passed(f"criterion 2 ({mt},{mr},{m})", f"KS = {ks:.4f} at {trials} draws each")


def test_criterion_03_ergodic_capacity():
    """Closed form at (1,1,2;10); analytic vs MC across dims and SNRs."""
    rho = 10.0
    closed_form = ((1 + rho) * math.log(1 + rho) - rho) / (rho * math.log(2))
    got = ergodic_capacity(ChannelDims(1, 1, 2), rho)
    assert abs(got - closed_form) < 1e-6, (got, closed_form)
    _passed("criterion 3 closed form", f"C(1,1,2;10) = {got:.6f} vs {closed_form:.6f}")
    for mt, mr, m in [(2, 2, 4), (1, 2, 4), (2, 2, 6)]:
        dims = ChannelDims(mt, mr, m)
        for rho_db in (0.0, 10.0, 20.0):
            rho = 10.0 ** (rho_db / 10.0)
            est = mc_ergodic_capacity(dims, rho, McConfig(trials=100_000))
            ana = ergodic_capacity(dims, rho)
            assert est.stderr < 0.01, (dims, rho_db, est)
            assert abs(est.value - ana) < 3 * est.stderr, (dims, rho_db, est, ana)
        _passed(f"criterion 3 MC ({mt},{mr},{m})", "0/10/20 dB within 3 stderr, stderr < 0.01")


def test_criterion_04_capacity_recursion_identity():
    """C(dims) - k log2(1+rho) - C(m-mr, m-mt, m) = 0 to 1e-10, all k>0, m<=8."""
    checked = 0
    for m in range(2, 9):
        for mt in range(1, m + 1):
            for mr in range(1, m + 1):
                dims = ChannelDims(mt, mr, m)
                if dims.k == 0:
                    continue
                for rho in (1.0, 10.0, 100.0):
                    residual = 0.0
                    if m - mr >= 1 and m - mt >= 1:
                        residual = ergodic_capacity(ChannelDims(m - mr, m - mt, m), rho)
                    gap = ergodic_capacity(dims, rho) - dims.k * math.log2(1 + rho) - residual
                    assert abs(gap) < 1e-10, (dims, rho, gap)
                    checked += 1
    _passed("criterion 4", f"{checked} (dims, rho) identities within 1e-10")


def test_criterion_05_outage_closed_form_and_rho_norm():
    """Single-input MC outage vs incomplete beta; rho_norm values and orderings."""
    rho = 10.0
    for mt, mr, m in [(1, 1, 2), (1, 2, 4)]:
        dims = ChannelDims(mt, mr, m)
        for rate in (0.5, 1.0, 2.0):
            est = mc_outage(dims, rho, McConfig(trials=100_000), rate_bits=rate)
            want = outage_single_mode(mr, m, rate, rho)
            assert abs(est.value - want) < 3 * max(est.stderr, 1e-12), (dims, rate, est, want)
        _passed(f"criterion 5 MC vs beta ({mt},{mr},{m})", "R in {0.5,1,2} within 3 stderr")
    for eps in (1e-5, 1e-4, 1e-3):
        assert rho_norm(4, 4, eps) == 1.0
        assert rho_norm(16, 16, eps) == 1.0
    _passed("criterion 5 rho_norm(mr=m)", "exactly 1 (0 dB)")
    m_grid = (4, 16, 64)
    eps_grid = (1e-5, 1e-4, 1e-3)
    fractions = (0.25, 0.5, 0.75)
    table = {}
    for m in m_grid:
        for frac in fractions + (1.0,):
            mr = int(round(frac * m))
            for eps in eps_grid:
                table[(m, frac, eps)] = rho_norm(mr, m, eps)
    for m in m_grid:
        for frac in fractions:
            # tighter outage targets cost power
            assert table[(m, frac, 1e-5)] > table[(m, frac, 1e-4)] > table[(m, frac, 1e-3)]
        for eps in eps_grid:
            # addressing more receive modes reduces the power penalty
            assert (
                table[(m, 0.25, eps)] > table[(m, 0.5, eps)] > table[(m, 0.75, eps)] >= table[(m, 1.0, eps)]
            )
    for frac in fractions:
        for eps in eps_grid:
            # receiver-side diversity grows with m at fixed mr/m
            assert table[(4, frac, eps)] > table[(16, frac, eps)] > table[(64, frac, eps)]
    _passed("criterion 5 monotonicities", "in eps, in mr/m, in m at every grid point")


def test_criterion_06_rate_reduction():
    """Outage of (2,2,3) at r=1.5 equals (1,1,3) at r=0.5; zero below r=1."""
    rho = 100.0
    cfg = McConfig(trials=100_000)
    full = mc_outage(ChannelDims(2, 2, 3), rho, cfg, r=1.5)
    reduced = mc_outage(ChannelDims(1, 1, 3), rho, cfg, r=0.5)
    gap = abs(full.value - reduced.value)
    bound = 3 * math.hypot(full.stderr, reduced.stderr)
    assert gap < bound, (full, reduced)
    zero = mc_outage(ChannelDims(2, 2, 3), rho, cfg, r=0.9)
    assert zero.value == 0.0 and zero.stderr == 0.0
    _passed(
        "criterion 6",
        f"|{full.value:.5f} - {reduced.value:.5f}| = {gap:.5f} < {bound:.5f}; r=0.9 exactly 0/100000",
    )


def test_criterion_07_diversity_multiplexing():
    """DMT vertices; repetition-scheme slopes; exponential-vs-power-law split."""
    curve = dmt_optimal_curve(ChannelDims(4, 4, 8))
    assert curve.vertices == ((0.0, 16.0), (1.0, 9.0), (2.0, 4.0), (3.0, 1.0), (4.0, 0.0))
    _passed("criterion 7 DMT vertices", "(0,16),(1,9),(2,4),(3,1),(4,0)")

    rhos = [10.0 ** (db / 10.0) for db in (20.0, 30.0, 40.0)]
    pts = []
    for rho in rhos:
        est = mc_repetition_error(ChannelDims(1, 1, 2), rho, McConfig(trials=1_000_000))
        assert est.value > 3 * est.stderr, (rho, est)
        pts.append((rho, est.value))
    slope = estimate_diversity_slope(pts)
    assert abs(slope - 1.0) < 0.3, (slope, pts)
    _passed("criterion 7 slope (1,1,2)", f"conditional estimator slope {slope:.3f}")

    dims123 = ChannelDims(1, 2, 3)
    cond = mc_repetition_error(dims123, 10.0, McConfig(trials=200_000))
    exact = repetition_error_tail(dims123, 10.0)
    assert abs(cond.value - exact) < 3 * cond.stderr, (cond, exact)
    slope = estimate_diversity_slope([(rho, repetition_error_tail(dims123, rho)) for rho in rhos])
    assert abs(slope - 2.0) < 0.3, slope
    _passed(
        "criterion 7 slope (1,2,3)",
        f"tail-quadrature slope {slope:.3f}; cross-checked vs conditional MC at 10 dB",
    )

    fit_dbs = (0.0, 5.0, 10.0)
    log_rho, log_p = [], []
    for db in fit_dbs:
        rho = 10.0 ** (db / 10.0)
        est = mc_repetition_error(ChannelDims(2, 2, 4), rho, McConfig(trials=400_000))
        log_rho.append(db / 10.0)
        log_p.append(math.log10(est.value))
    coeffs = np.polyfit(log_rho, log_p, 1)
    extrapolated = 10.0 ** np.polyval(coeffs, 2.0)  # 20 dB
    pinned = mc_repetition_error(ChannelDims(2, 2, 3), 100.0, McConfig(trials=100_000))
    assert pinned.value < extrapolated / 10.0, (pinned.value, extrapolated)
    _passed(
        "criterion 7 exponential branch",
        f"(2,2,3)@20dB = {pinned.value:.2e} vs power-law extrapolation {extrapolated:.2e}",
    )


def _power_clause(cfg: SchemeConfig) -> float:
    """Criterion 8's power clause: every mode of every use at unit conditional power, within 0.03.

    The power is the per-use algorithm's, which carries each use's
    conditional covariance through the relay (``oracles.reference_frame``);
    the largest deviation over uses and modes is held to the bound.
    """
    power_dev = mode_power_deviation(cfg)
    assert power_dev < 0.03, (cfg.dims, cfg.delay, power_dev)
    return power_dev


def test_criterion_08_feedback_scheme():
    """Unfaded streams: SNR, noise covariance, power, BER, and frame rate."""
    dims = ChannelDims(2, 2, 3)
    rho, n = 10.0, 1000
    for delay in (1, 4):
        cfg = SchemeConfig(dims=dims, n_uses=n, delay=delay, rho=rho)
        rep = run_feedback_scheme(cfg)
        assert np.all(np.abs(rep.per_stream_snr - rho) < 0.02 * rho), (delay, rep.per_stream_snr)
        assert rep.noise_cov_error < 0.05, (delay, rep.noise_cov_error)
        power_dev = _power_clause(cfg)
        p_bit = float(qpsk_bit_error(rho))
        n_bits = 2 * dims.k * n
        bound = 3 * math.sqrt(p_bit * (1 - p_bit) / n_bits)
        assert abs(rep.ber - p_bit) < bound, (delay, rep.ber, p_bit, bound)
        _passed(
            f"criterion 8 (l={delay})",
            f"snr {rep.per_stream_snr[0]:.3f}, cov dev {rep.noise_cov_error:.1e}, "
            f"power dev {power_dev:.1e}, ber {rep.ber:.2e} vs {p_bit:.2e}",
        )
    for delay in (1, 4):  # s = 2 relay slots: two completion rows that must stay orthogonal
        power_dev = _power_clause(SchemeConfig(dims=ChannelDims(4, 4, 6), n_uses=n, delay=delay, rho=rho))
        _passed(f"criterion 8 power (4,4,6) (l={delay})", f"power dev {power_dev:.1e}")
    ok = 0
    for frame_seed in range(100):
        rep = run_feedback_scheme(
            SchemeConfig(dims=dims, n_uses=n, delay=1, rho=rho, master_seed=frame_seed)
        )
        rate = 0.95 * dims.k * math.log2(1 + rho) * (1 - rep.overhead_uses / n)
        if rep.mutual_information_per_use >= rate:
            ok += 1
    assert ok == 100, f"mutual information supported the rate in {ok}/100 frames"
    _passed("criterion 8 frame rate", "mutual information >= 0.95 k log2(11) (1 - ov/n) in 100/100 frames")


def test_criterion_08_power_clause_fails_on_rotated_completion_rows(monkeypatch):
    # turn the two rows of every s = 2 completion by a fixed rotation: the
    # combining identity still holds, but the rows are no longer orthogonal,
    # so the relays of later uses run above unit power
    real = feedback._rotate_pair

    def rotated(basis):
        rows = real(basis)
        return np.stack([0.8 * rows[:, 0] - 0.6 * rows[:, 1], 0.6 * rows[:, 0] + 0.8 * rows[:, 1]], axis=1)

    monkeypatch.setattr(feedback, "_rotate_pair", rotated)
    for delay in (1, 4):
        with pytest.raises(AssertionError):
            _power_clause(SchemeConfig(dims=ChannelDims(4, 4, 6), n_uses=1000, delay=delay, rho=10.0))


def test_criterion_09_rayleigh_convergence():
    """Frobenius mean, scaled-spectrum KS decrease, and the 0.1 dB gap clause.

    The third clause demands an equivalent-SNR gap below 0.1 dB at m = 32
    and rho_bar = 20 dB; the exact gap there is 0.131 dB, so the assertion
    is expected to fail on the mathematics of the model itself.
    """
    cfg = McConfig(trials=100_000)
    rows = [rayleigh_compare(ChannelDims(2, 2, m), 100.0, cfg) for m in (8, 16, 32, 64)]
    for row in rows:
        rel = abs(row.frobenius_mean - row.frobenius_expected) / row.frobenius_expected
        assert rel < 0.01, (row.m, row.frobenius_mean, row.frobenius_expected)
    _passed("criterion 9 Frobenius", "E||H11||_F^2 = mt*mr/m within 1% at 1e5 draws")
    ks = [row.ks_scaled_vs_wishart for row in rows]
    assert all(a > b for a, b in zip(ks, ks[1:])), ks
    _passed("criterion 9 KS decrease", " > ".join(f"{k:.4f}" for k in ks))

    row32 = next(row for row in rows if row.m == 32)
    gap_bits = abs(row32.capacity_jacobi - row32.capacity_rayleigh)
    # 0.1 dB of SNR expressed in bits via the analytic capacity slope
    dims32 = ChannelDims(2, 2, 32)
    bits_per_tenth_db = (
        ergodic_capacity(dims32, 10.0 ** (20.1 / 10.0) * 32 / 2) - row32.capacity_jacobi
    )
    gap_db = 0.1 * gap_bits / bits_per_tenth_db
    assert gap_db < 0.1, (
        f"equivalent-SNR gap at (2,2,32), rho_bar=20dB is {gap_db:.3f} dB "
        f"({gap_bits:.4f} bits vs {bits_per_tenth_db:.4f} bits per 0.1 dB); "
        f"both capacities are exact, and the gap only falls below 0.1 dB near "
        f"m=48, so this stated bound cannot be met"
    )
    _passed("criterion 9 capacity gap", f"{gap_db:.3f} dB < 0.1 dB")


def test_criterion_10_reproducibility(tmp_path):
    """Byte-identical CSV on rerun; worker count never changes results."""
    runs = {
        "ergodic": ["ergodic", "--mt", "2", "--mr", "2", "--m", "4", "--rho-db", "0:10:5",
                     "--method", "mc", "--trials", "20000"],
        "outage": ["outage", "--mt", "2", "--mr", "2", "--m", "4", "--rho-db", "15", "--r",
                    "0.5:1.5:0.5", "--trials", "20000"],
        "rho-norm": ["rho-norm", "--m", "4,16", "--epsilon", "1e-3,1e-4"],
        "dmt": ["dmt", "--mt", "3", "--mr", "3", "--m", "4"],
        "repetition": ["repetition", "--mt", "1", "--mr", "2", "--m", "4", "--rho-db", "5,10",
                        "--trials", "20000"],
        "alamouti": ["alamouti", "--m", "4", "--r", "0.5", "--rho-db", "10,20", "--trials", "20000"],
        "feedback": ["feedback", "--mt", "2", "--mr", "2", "--m", "3", "--rho-db", "10",
                      "--uses", "300"],
        "rayleigh": ["rayleigh", "--mt", "2", "--mr", "2", "--m", "8,16", "--rho-bar-db", "20",
                      "--trials", "20000"],
    }
    for name, args in runs.items():
        out1 = tmp_path / f"{name}-1.csv"
        out2 = tmp_path / f"{name}-2.csv"
        assert cli_main(args + ["--seed", "7", "--out", str(out1)]) == 0
        assert cli_main(args + ["--seed", "7", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes(), f"{name}: rerun differs"
        if "--trials" in args:
            out8 = tmp_path / f"{name}-8.csv"
            assert cli_main(args + ["--seed", "7", "--workers", "8", "--out", str(out8)]) == 0
            assert out1.read_bytes() == out8.read_bytes(), f"{name}: worker count changed results"
    _passed("criterion 10", f"{len(runs)} subcommands byte-identical; workers 1 vs 8 identical")
