"""Monte-Carlo engine: reproducibility, oracles, and estimator structure."""

import math
import re
import threading
import time
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import betainc
from scipy.stats import ks_2samp, kstest

from jacobi_fading import analytic, philox, simulate
from jacobi_fading.analytic import ergodic_capacity, outage_single_mode
from jacobi_fading.ensembles import ChannelDims, phase_fixed_qr
from jacobi_fading.errors import NumericalError
from jacobi_fading.philox import stream_key
from jacobi_fading.simulate import (
    McConfig,
    estimate_diversity_slope,
    ks_distance_to_cdf,
    mc_alamouti_outage,
    mc_ergodic_capacity,
    mc_outage,
    mc_repetition_error,
    q_function,
    qpsk_bit_error,
    qpsk_symbol_error,
    rayleigh_compare,
    repetition_error_tail,
    sample_spectra,
)
from jacobi_fading.specfun import log2_1p
from oracles import haar_spectra, ks_distance, model_squares, reference_spectra, reference_squares

DIMS_224 = ChannelDims(2, 2, 4)
DIMS_228 = ChannelDims(2, 2, 8)


def test_reproducibility_same_seed():
    a = mc_ergodic_capacity(DIMS_224, 10.0, McConfig(trials=20_000, master_seed=5))
    b = mc_ergodic_capacity(DIMS_224, 10.0, McConfig(trials=20_000, master_seed=5))
    assert a == b
    c = mc_ergodic_capacity(DIMS_224, 10.0, McConfig(trials=20_000, master_seed=6))
    assert c.value != a.value


def test_worker_count_never_changes_results():
    for fn in (
        lambda cfg: mc_ergodic_capacity(DIMS_224, 10.0, cfg),
        lambda cfg: mc_outage(ChannelDims(2, 2, 3), 100.0, cfg, r=1.5),
        lambda cfg: mc_repetition_error(ChannelDims(1, 2, 3), 10.0, cfg),
    ):
        one = fn(McConfig(trials=30_000, master_seed=3, workers=1))
        many = fn(McConfig(trials=30_000, master_seed=3, workers=8))
        assert one.value == many.value and one.stderr == many.stderr


@pytest.mark.parametrize("mt, mr, m", [(1, 3, 8), (3, 2, 4), (2, 2, 3), (4, 4, 6), (2, 2, 64), (4, 4, 8)])
def test_bidiagonal_model_matches_haar_spectra(mt, mr, m):
    # alpha > 0, mt > mr, k > 0, m = 64 and m_min = 4 against truncated-Haar channels
    dims = ChannelDims(mt, mr, m)
    cfg = McConfig(trials=100_000, master_seed=4, workers=2)
    haar = haar_spectra(dims, cfg)
    model = sample_spectra(dims, cfg)
    assert model.shape == haar.shape
    for i in range(dims.m_min):
        assert ks_distance(model[:, i], haar[:, i]) < 0.01


@pytest.mark.parametrize("mt, mr, m", [(2, 2, 2), (2, 3, 3)])
def test_bidiagonal_model_pinned_dims_draw_nothing(mt, mr, m, monkeypatch):
    def no_draw(*args):
        raise AssertionError("an all-pinned spectrum needs no variates")

    monkeypatch.setattr(simulate, "uniforms", no_draw)
    lam = sample_spectra(ChannelDims(mt, mr, m), McConfig(trials=1_000))
    assert lam.shape == (1_000, min(mt, mr))
    assert np.all(lam == 1.0)


def test_spectral_estimators_draw_words_flat_in_m(monkeypatch):
    sizes = []
    real = simulate.uniforms

    def counting(key, lo, hi, n):
        sizes.append(n)
        return real(key, lo, hi, n)

    def no_channels(*args):
        raise AssertionError("spectral estimators draw no channels")

    monkeypatch.setattr(simulate, "uniforms", counting)
    monkeypatch.setattr(simulate, "complex_normals", no_channels)
    cfg = McConfig(trials=1_000)
    for m in (8, 64):
        mc_ergodic_capacity(ChannelDims(2, 2, m), 10.0, cfg)
    # n^2 + n*min(a, b) uniforms per trial: J(2; 0, m - 4) reads 4 whatever m is
    assert sizes[0] == sizes[1] == 4
    mc_outage(ChannelDims(2, 2, 3), 100.0, cfg, r=1.5)
    mc_alamouti_outage(4, 100.0, 0.5, cfg)
    mc_repetition_error(ChannelDims(1, 2, 3), 10.0, cfg, method="conditional")
    assert sizes[2:] == [1, 4, 1]
    mc_ergodic_capacity(ChannelDims(4, 4, 8), 10.0, cfg)
    assert sizes[5:] == [16]
    # the public spectrum sampler reads the same model
    for m in (8, 64):
        sample_spectra(ChannelDims(2, 2, m), cfg)
    assert sizes[6:] == [4, 4]


def test_spectral_estimators_call_no_eigensolver(monkeypatch):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("log det and trace are read straight from the bidiagonal model")

    for name in ("eigvalsh", "eigh", "eigvals", "eig"):
        monkeypatch.setattr(np.linalg, name, no_eigensolve)
    monkeypatch.setattr(simulate, "_tridiagonal_spectra", no_eigensolve)
    cfg = McConfig(trials=3_000, workers=2)
    # m_min = 4 and 3 would go through eigvalsh, m_min = 2 through the closed form
    for dims in (ChannelDims(4, 4, 8), ChannelDims(3, 4, 9), ChannelDims(3, 3, 5)):
        assert math.isfinite(mc_ergodic_capacity(dims, 100.0, cfg).value)
        assert 0.0 <= mc_outage(dims, 100.0, cfg, r=1.0).value <= 1.0
        assert 0.0 <= mc_repetition_error(dims, 2.0, cfg, method="conditional").value <= 1.0
    assert 0.0 <= mc_alamouti_outage(8, 100.0, 0.5, cfg).value <= 1.0


def _mp_log_det(d2, e2, rho, k=0):
    """log2 det(I + rho B^T B) + k log2(1 + rho) by mpmath's LU, B^T B built from the squares at 50 digits."""
    n = len(d2)
    with mp.workdps(50):
        a = mp.eye(n)
        for i in range(n):
            a[i, i] += rho * (mp.mpf(d2[i]) + (mp.mpf(e2[i - 1]) if i else 0))
            if i + 1 < n:
                a[i, i + 1] = a[i + 1, i] = rho * mp.sqrt(mp.mpf(d2[i]) * mp.mpf(e2[i]))
        return mp.log(mp.det(a), 2) + k * mp.log(1 + mp.mpf(rho), 2)


@pytest.mark.parametrize("mt, mr, m", [(4, 4, 8), (3, 2, 7), (2, 2, 4), (2, 2, 32), (2, 2, 3), (1, 2, 3)])
def test_log_det_against_mpmath(mt, mr, m):
    # per trial, from rho = 1e-15, where log det is about rho trace / ln 2, up to 1e12
    dims, cfg = ChannelDims(mt, mr, m), McConfig(trials=100, master_seed=7)
    d2, e2 = model_squares(dims, cfg)
    coefficients = simulate._model_coefficients(dims, cfg)
    for rho in (1e-15, 1e-6, 1e-2, 1.0, 100.0, 1e6, 1e12):
        got = simulate._log_det_values(dims, rho, coefficients)
        want = np.array([float(_mp_log_det(d2[t], e2[t], rho, dims.k)) for t in range(cfg.trials)])
        assert np.max(np.abs(got - want) / want) <= 1e-15, rho


@pytest.mark.parametrize("mt, mr, m", [(4, 4, 8), (2, 2, 4), (2, 2, 3)])
def test_log_det_where_the_polynomial_overflows(mt, mr, m):
    # sum_j c_j rho^j overflows at every rho here for (4,4,8) and from 1e160 on
    # for (2,2,4); there log det is n log2 rho plus the log of the sum in
    # powers of 1 / rho, quietly (warnings are errors in this suite).  With
    # n = 1, (2,2,3) never overflows: k log2(1 + rho) near the float limit
    dims, cfg = ChannelDims(mt, mr, m), McConfig(trials=100, master_seed=7)
    d2, e2 = model_squares(dims, cfg)
    coefficients = simulate._model_coefficients(dims, cfg)
    for rho in (1e80, 1e160, 1e300, 1.7e308):
        got = simulate._log_det_values(dims, rho, coefficients)
        want = np.array([float(_mp_log_det(d2[t], e2[t], rho, dims.k)) for t in range(cfg.trials)])
        assert np.max(np.abs(got - want) / want) <= 1e-15, rho


@pytest.mark.parametrize("mt, mr, m", [(2, 2, 4), (2, 2, 64)])
def test_two_mode_spectra_against_mpmath(mt, mr, m):
    # n = 2: B^T B = [[p, sqrt(d_1^2 e_1^2)], [., r]], p = d_1^2 and r = e_1^2 + d_2^2,
    # the squares taken as exact; at 40 digits the small eigenvalue is det / lam_max too
    dims, cfg = ChannelDims(mt, mr, m), McConfig(trials=9_000, master_seed=7)
    d2, e2 = model_squares(dims, cfg)
    got = simulate._tridiagonal_spectra(d2.T, e2.T)
    want = np.empty_like(got)
    with mp.workdps(40):
        for t in range(cfg.trials):
            p, sq_d2, sq_e1 = (mp.mpf(v) for v in (d2[t, 0], d2[t, 1], e2[t, 0]))
            r = sq_e1 + sq_d2
            lam_max = (p + r) / 2 + mp.sqrt(((p - r) / 2) ** 2 + p * sq_e1)
            want[:, t] = float(p * sq_d2 / lam_max), float(lam_max)
    assert np.max(np.abs(got - want) / want) <= 1e-15


def _whole_array_polynomial(d2, e2):
    """Coefficients of det(I + rho B^T B) over all trials at once, rho^0 first: shape (n + 1, trials).

    P_i = Q_i + rho d_i^2 P_{i-1} and Q_{i+1} = P_i + rho e_i^2 Q_i, with
    P_0 = Q_1 = 1, as polynomials: a factor rho prepends a zero row.
    """
    trials, n = d2.shape
    one, zero = np.ones((1, trials)), np.zeros((1, trials))
    p, q = np.vstack([one, d2[:, :1].T]), one  # P_1, Q_1
    for i in range(1, n):
        q = p + e2[:, i - 1] * np.vstack([zero, q])
        p = np.vstack([q, zero]) + d2[:, i] * np.vstack([zero, p])
    return p


@pytest.mark.parametrize("rho", [1e-6, 1.0, 100.0, 1e6])
@pytest.mark.parametrize("mt, mr, m", [(2, 2, 4), (2, 2, 3), (4, 4, 8), (2, 2, 32)])
def test_chunked_polynomial_is_the_whole_array_polynomial(mt, mr, m, rho):
    # the polynomial built chunk by chunk as the sample set is drawn is, bit
    # for bit, the one built over all trials at once, and so is its log det by
    # Horner; 20 001 trials are two full chunks and a short one
    dims, cfg = ChannelDims(mt, mr, m), McConfig(trials=20_001, master_seed=3)
    d2, e2 = model_squares(dims, cfg)
    whole = _whole_array_polynomial(d2, e2)
    chunked = simulate._model_coefficients(dims, cfg)
    assert np.array_equal(chunked, whole[1:])
    s = whole[-1] * rho
    for c in whole[-2:0:-1]:
        s = (s + c) * rho
    want = np.log1p(s) / math.log(2.0) + dims.k * log2_1p(rho)
    assert np.array_equal(simulate._log_det_values(dims, rho, chunked), want)


@pytest.mark.parametrize("mt, mr, m", [(4, 4, 8), (3, 2, 7), (2, 2, 3), (1, 2, 3), (2, 2, 2)])
def test_trace_matches_the_model_spectra(mt, mr, m):
    dims, cfg = ChannelDims(mt, mr, m), McConfig(trials=5_000, master_seed=2)
    want = np.sum(sample_spectra(dims, cfg), axis=1)
    assert np.max(np.abs(simulate._trace_values(dims, cfg) - want)) <= 1e-14 * dims.m_min


@pytest.mark.parametrize("mt, mr, m", [(2, 2, 4), (2, 2, 3), (4, 4, 8), (3, 2, 7)])
def test_sample_spectra_audits_the_estimators(mt, mr, m):
    # one stream per channel: the capacity of the public sampler's rows is
    # the estimator's, up to rounding, not up to Monte-Carlo noise
    dims, cfg = ChannelDims(mt, mr, m), McConfig(trials=20_000)
    lam = sample_spectra(dims, cfg)
    for rho in (1e-15, 1e-6, 1.0, 100.0, 1e6):
        want = np.mean(np.sum(np.log1p(rho * lam), axis=1)) / math.log(2.0)
        assert mc_ergodic_capacity(dims, rho, cfg).value == pytest.approx(want, rel=1e-13, abs=0.0)


def test_non_finite_squares_raise(monkeypatch):
    real_chunk, real_coefficients = simulate._bidiagonal_chunk, simulate._model_coefficients

    def poisoned_chunk(dims, key, lo, hi, out):
        real_chunk(dims, key, lo, hi, out)
        out[1, 17] = math.nan  # d_2^2 of trial 17

    def poisoned_coefficients(*args):
        coefficients = real_coefficients(*args).copy()
        coefficients[1, 17] = math.nan
        return coefficients

    monkeypatch.setattr(simulate, "_bidiagonal_chunk", poisoned_chunk)
    monkeypatch.setattr(simulate, "_model_coefficients", poisoned_coefficients)
    cfg = McConfig(trials=1_000)
    with pytest.raises(NumericalError, match="log det"):
        mc_ergodic_capacity(ChannelDims(3, 3, 6), 10.0, cfg)
    with pytest.raises(NumericalError, match="log det"):
        mc_outage(ChannelDims(3, 3, 6), 10.0, cfg, r=1.0)
    with pytest.raises(NumericalError, match="trace"):
        mc_alamouti_outage(4, 10.0, 0.5, cfg)
    with pytest.raises(NumericalError, match="trace"):
        mc_repetition_error(ChannelDims(3, 3, 6), 10.0, cfg)


@pytest.mark.parametrize(
    "p, q", [(1, 1), (2, 1), (1, 2), (4, 4), (3, 7), (7, 3), (2, 62), (62, 2), (20, 25), (25, 20)]
)
def test_beta_variates_from_uniform_products(p, q):
    u = philox.uniforms(stream_key(9, f"beta:{p},{q}"), 0, 100_000, min(p, q))
    x = np.empty((1, 100_000))  # variate-major
    y = simulate._beta_variates(np.array([p]), np.array([q]), u, x)
    assert y.shape == (1, 100_000)
    assert ks_distance_to_cdf(x, lambda t: betainc(p, q, t)) < 0.01
    assert np.all(np.abs(x + y - 1.0) <= 2 * np.spacing(1.0))
    assert np.all(np.isfinite(x)) and np.all(x > 0.0)
    # a second variate reads the next min(p, q) columns
    pair = np.empty((2, 100_000))
    simulate._beta_variates(np.array([p, p]), np.array([q, q]), np.hstack([u, u]), pair)
    assert np.array_equal(pair, np.vstack([x, x]))


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize(
    "mt, mr, m",
    # the last three have variates of up to 10, 12 and 20 terms
    [(2, 2, 4), (2, 2, 3), (1, 2, 3), (4, 4, 8), (2, 2, 32), (4, 8, 16), (2, 10, 20), (3, 12, 30), (1, 20, 40)],
)
def test_kernel_has_the_bits_of_the_sequential_reference(mt, mr, m, workers):
    # 20 001 trials end in a partial chunk
    dims, cfg = ChannelDims(mt, mr, m), McConfig(trials=20_001, master_seed=5, workers=workers)
    d2, e2 = model_squares(dims, cfg)
    want_d2, want_e2 = reference_squares(dims, cfg)
    assert np.array_equal(d2, want_d2) and np.array_equal(e2, want_e2)
    assert np.array_equal(sample_spectra(dims, cfg), reference_spectra(dims, cfg))


@pytest.mark.parametrize("workers", [1, 3])
def test_no_value_depends_on_the_chunk_size(monkeypatch, workers):
    # _CHUNK sizes the kernels' passes and the threads' units of work only; 20 001
    # trials end in a partial chunk at both sizes
    dims, cfg = ChannelDims(3, 3, 7), McConfig(trials=20_001, master_seed=5, workers=workers)

    def outputs():
        values = [
            *model_squares(dims, cfg),
            sample_spectra(dims, cfg),
            simulate._model_coefficients(dims, cfg),
            simulate._log_det_values(dims, 10.0, simulate._model_coefficients(dims, cfg)),
            simulate._trace_values(dims, cfg),
            q_function(np.linspace(-3.0, 45.0, cfg.trials)),
        ]
        estimates = [mc_repetition_error(dims, 2.0, cfg, method) for method in ("conditional", "count")]
        estimates.append(mc_alamouti_outage(5, 10.0, 0.5, cfg))
        values += [np.array([e.value, e.stderr]) for e in estimates]
        return [np.ascontiguousarray(v).tobytes() for v in values]

    default = outputs()
    monkeypatch.setattr(simulate, "_CHUNK", 1000)
    assert outputs() == default


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_chunk_results_come_back_in_span_order(workers):
    def chunk(lo, hi):
        if lo == 0:
            time.sleep(0.01)  # the first span finishes last when a helper takes the others
        return lo, hi

    c = simulate._CHUNK  # 20 001 trials: two full chunks and a short one
    assert simulate._map_chunks(McConfig(trials=20_001, workers=workers), chunk) == [(0, c), (c, 2 * c), (2 * c, 20_001)]


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_a_chunk_error_reaches_the_caller_after_every_helper_ends(workers):
    before, started = threading.active_count(), []

    def chunk(lo, hi):
        started.append(lo)
        if lo == simulate._CHUNK:
            raise NumericalError("span 1 failed")

    with pytest.raises(NumericalError, match="span 1 failed"):
        simulate._map_chunks(McConfig(trials=20_001, workers=workers), chunk)
    assert threading.active_count() == before
    if workers == 1:  # in order, and no span starts after the one that raised
        assert started == [0, simulate._CHUNK]


@pytest.mark.parametrize("trials, workers", [(20_001, 1), (20_001, 2), (20_001, 3), (20_001, 8), (100, 8)])
def test_at_most_one_helper_thread_per_extra_worker_and_span(monkeypatch, trials, workers):
    started, ran_on = [], set()

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    spans = -(-trials // simulate._CHUNK)
    simulate._map_chunks(McConfig(trials=trials, workers=workers), lambda lo, hi: ran_on.add(threading.get_ident()))
    assert len(started) <= min(workers, spans) - 1
    if workers == 1 or spans == 1:  # no thread is started: the caller runs every span
        assert not started and ran_on == {threading.get_ident()}


def _draw_working_set(dims):
    """Bytes one chunk of the bidiagonal model holds at once: its Philox words,
    their uniforms and log terms, and the Beta variates and their complements."""
    core = dims.interior
    words = core.m_min ** 2 + core.m_min * min(core.alpha, core.beta)
    return 8 * simulate._CHUNK * (3 * words + 2 * (2 * core.m_min - 1))


def _peak_bytes(call):
    """Peak traced memory of call() above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_curves_keep_one_sample_set_and_no_copy():
    # a curve at 1e5 trials holds its sample set and one chunk's draw, or the
    # few per-trial rows of a reduction, but not the (2n - 1, trials) squares
    # buffer of the model or a copy of the spectra
    trials = 100_000
    ergodic, rhos = ChannelDims(4, 4, 8), [1.0, 10.0, 100.0, 1000.0]
    rayleigh, rho_bars = ChannelDims(2, 2, 64), [10.0, 100.0]
    simulate._ergodic_curve(ergodic, rhos, McConfig(trials=100))  # caches and imports first
    simulate._rayleigh_rows(rayleigh, rho_bars, McConfig(trials=100))
    cfg = McConfig(trials=trials, master_seed=1)
    n = ergodic.m_min
    # the coefficients, then either a chunk's draw or a point's log det and deviations
    budget = 8 * n * trials + max(_draw_working_set(ergodic), 8 * 2 * trials)
    peak = _peak_bytes(lambda: simulate._ergodic_curve(ergodic, rhos, cfg))
    assert peak < budget, (peak, budget)
    # the spectra, the row sums of the Frobenius mean, and a chunk's draw
    budget = 8 * rayleigh.m_min * trials + 8 * trials + _draw_working_set(rayleigh)
    peak = _peak_bytes(lambda: simulate._rayleigh_rows(rayleigh, rho_bars, cfg))
    assert peak < budget, (peak, budget)


def test_stderr_is_calibrated_against_exact_values():
    # z = (estimate - exact) / stderr over 40 fixed seeds is about N(0, 1) when
    # the stderr is right: sum z^2 within the two-sided p = 0.01 chi-square bounds
    # on 40 degrees of freedom per row and on 200 pooled; a stderr 0.7 or 1.4
    # times the true one roughly doubles or halves the sums
    t = math.expm1(0.5 * math.log(10.0)) / 10.0  # the Alamouti gain threshold at r = 0.5, 10 dB
    rows = {  # (estimator at a seeded config, exact value)
        "ergodic-448-10dB": (lambda cfg: mc_ergodic_capacity(ChannelDims(4, 4, 8), 10.0, cfg),
                             ergodic_capacity(ChannelDims(4, 4, 8), 10.0)),
        "ergodic-2232-20dB": (lambda cfg: mc_ergodic_capacity(ChannelDims(2, 2, 32), 100.0, cfg),
                              ergodic_capacity(ChannelDims(2, 2, 32), 100.0)),
        "outage-124-1bit-10dB": (lambda cfg: mc_outage(ChannelDims(1, 2, 4), 10.0, cfg, rate_bits=1.0),
                                 outage_single_mode(2, 4, 1.0, 10.0)),
        # the (2,2,4) gain g = ||H11||_F^2 has P(g < t) = t^4 / 2 for t <= 1
        "alamouti-4-r0.5-10dB": (lambda cfg: mc_alamouti_outage(4, 10.0, 0.5, cfg), t**4 / 2.0),
        "repetition-123-20dB": (lambda cfg: mc_repetition_error(ChannelDims(1, 2, 3), 100.0, cfg),
                                repetition_error_tail(ChannelDims(1, 2, 3), 100.0)),
    }
    sums = {}
    for name, (estimate, exact) in rows.items():
        ests = [estimate(McConfig(trials=20_000, master_seed=seed)) for seed in range(1000, 1040)]
        sums[name] = sum(((est.value - exact) / est.stderr) ** 2 for est in ests)
    assert all(20.7 <= total <= 66.8 for total in sums.values()), sums
    assert 152.2 <= sum(sums.values()) <= 255.3, sums


def test_count_stderr_is_calibrated_against_exact_values():
    # the three estimators whose stderr is _count_estimate's, from a count of
    # indicator events: sum z^2 over the same 40 seeds within the two-sided
    # p = 0.01 chi-square bounds on 40 degrees of freedom per row and on 120
    # pooled.  10 dB, not 20, for the repetition row: about 6 events per run at
    # 20 dB, where a run with none has stderr 0
    t = math.expm1(0.5 * math.log(10.0)) / 10.0  # the Alamouti gain threshold at r = 0.5, 10 dB
    rows = {  # (estimator at a seeded config, exact value)
        "outage-124-1bit-10dB": (lambda cfg: mc_outage(ChannelDims(1, 2, 4), 10.0, cfg, rate_bits=1.0),
                                 outage_single_mode(2, 4, 1.0, 10.0)),
        "alamouti-4-r0.5-10dB": (lambda cfg: mc_alamouti_outage(4, 10.0, 0.5, cfg), t**4 / 2.0),
        "repetition-count-123-10dB": (
            lambda cfg: mc_repetition_error(ChannelDims(1, 2, 3), 10.0, cfg, method="count"),
            repetition_error_tail(ChannelDims(1, 2, 3), 10.0),
        ),
    }
    sums = {}
    for name, (estimate, exact) in rows.items():
        ests = [estimate(McConfig(trials=20_000, master_seed=seed)) for seed in range(1000, 1040)]
        sums[name] = sum(((est.value - exact) / est.stderr) ** 2 for est in ests)
    assert all(20.7 <= total <= 66.8 for total in sums.values()), sums
    assert 83.9 <= sum(sums.values()) <= 163.6, sums


def test_stderr_of_the_trace_and_a_pinned_ergodic_row_is_calibrated():
    # the mean-estimator rows the first calibration test leaves out: the
    # trace, whose mean E||H11||_F^2 = mt mr / m is exact by Haar symmetry, and
    # ergodic capacity with k = 1 pinned mode.  Same 40 seeds and p = 0.01
    # chi-square bounds, on 40 degrees of freedom per row and 80 pooled
    rows = {  # (estimator at a seeded config, exact value)
        "trace-327": (lambda cfg: simulate._estimate(simulate._trace_values(ChannelDims(3, 2, 7), cfg), cfg),
                      3 * 2 / 7),
        "ergodic-223-10dB": (lambda cfg: mc_ergodic_capacity(ChannelDims(2, 2, 3), 10.0, cfg),
                             ergodic_capacity(ChannelDims(2, 2, 3), 10.0)),
    }
    sums = {}
    for name, (estimate, exact) in rows.items():
        ests = [estimate(McConfig(trials=20_000, master_seed=seed)) for seed in range(1000, 1040)]
        sums[name] = sum(((est.value - exact) / est.stderr) ** 2 for est in ests)
    assert all(20.7 <= total <= 66.8 for total in sums.values()), sums
    assert 51.2 <= sum(sums.values()) <= 116.3, sums


def test_mc_capacity_matches_analytic():
    cfg = McConfig(trials=100_000)
    est = mc_ergodic_capacity(DIMS_224, 10.0, cfg)
    assert est.stderr < 0.01
    assert abs(est.value - ergodic_capacity(DIMS_224, 10.0)) < 3 * est.stderr


def test_mc_capacity_unitary_channel_is_exact():
    est = mc_ergodic_capacity(ChannelDims(3, 3, 3), 9.0, McConfig(trials=5_000))
    assert est.value == 3 * math.log2(10.0)
    assert est.stderr == 0.0


def test_mc_capacity_pinned_recursion():
    cfg = McConfig(trials=100_000)
    full = mc_ergodic_capacity(ChannelDims(2, 2, 3), 10.0, cfg)
    residual = mc_ergodic_capacity(ChannelDims(1, 1, 3), 10.0, cfg)
    gap = abs(full.value - math.log2(11.0) - residual.value)
    assert gap < 3 * math.hypot(full.stderr, residual.stderr)


def test_mc_outage_single_mode_oracle():
    cfg = McConfig(trials=100_000)
    est = mc_outage(ChannelDims(1, 1, 2), 10.0, cfg, rate_bits=1.0)
    want = outage_single_mode(1, 2, 1.0, 10.0)
    assert abs(est.value - want) < 3 * est.stderr


def test_mc_outage_zero_below_pinned_rate():
    est = mc_outage(ChannelDims(2, 2, 3), 100.0, McConfig(trials=50_000), r=0.9)
    assert est.value == 0.0 and est.stderr == 0.0


def test_mc_outage_rate_reduction_equivalence():
    cfg = McConfig(trials=50_000)
    full = mc_outage(ChannelDims(2, 2, 3), 100.0, cfg, r=1.5)
    reduced = mc_outage(ChannelDims(1, 1, 3), 100.0, cfg, r=0.5)
    assert abs(full.value - reduced.value) < 3 * math.hypot(full.stderr, reduced.stderr)


def test_mc_outage_transposition_symmetry():
    cfg = McConfig(trials=50_000)
    a = mc_outage(ChannelDims(2, 3, 6), 100.0, cfg, r=1.2)
    b = mc_outage(ChannelDims(3, 2, 6), 100.0, cfg, r=1.2)
    assert abs(a.value - b.value) < 3 * math.hypot(a.stderr, b.stderr)


def test_mc_outage_argument_contract():
    with pytest.raises(ValueError):
        mc_outage(DIMS_224, 10.0, McConfig(trials=10))
    with pytest.raises(ValueError):
        mc_outage(DIMS_224, 10.0, McConfig(trials=10), r=1.0, rate_bits=1.0)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda cfg: mc_outage(DIMS_224, 10.0, cfg, rate_bits=-0.5), "rate_bits"),
        (lambda cfg: mc_outage(DIMS_224, 10.0, cfg, rate_bits=True), "rate_bits"),
        (lambda cfg: mc_outage(DIMS_224, 10.0, cfg, r=True), "r"),
        (lambda cfg: mc_alamouti_outage(4, 10.0, True, cfg), "r"),
        # r log2(1 + rho) past the float range is no rate either
        (lambda cfg: mc_outage(DIMS_224, 10.0, cfg, r=1e308), "rate_bits"),
    ],
    ids=["negative-rate_bits", "bool-rate_bits", "bool-r", "alamouti-bool-r", "r-rate-overflows"],
)
def test_outage_rates_must_be_real_and_nonnegative(call, name):
    # as analytic.outage_single_mode does: a negative rate is an error, not outage 0
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        call(McConfig(trials=10))


def test_stderr_scales_with_trials():
    small = mc_ergodic_capacity(DIMS_224, 10.0, McConfig(trials=25_000))
    large = mc_ergodic_capacity(DIMS_224, 10.0, McConfig(trials=100_000))
    ratio = small.stderr / large.stderr
    assert ratio == pytest.approx(2.0, rel=0.1)


def test_estimate_has_the_bits_of_numpy_mean_and_std():
    cfg, rng = McConfig(trials=1, master_seed=6), np.random.default_rng(42)
    for n in [2, 3, 129, 3000, *rng.integers(2, 3001, size=10)]:
        for sample in (rng.standard_normal(n), np.where(rng.random(n) < 0.5, 0.25, 0.75)):
            est = simulate._estimate(sample, cfg)
            assert (est.trials, est.seed) == (n, 6)
            assert est.value == float(np.mean(sample))
            assert est.stderr == float(np.std(sample, ddof=1) / math.sqrt(n))
    # a constant sample has stderr 0, even where its rounded mean is not its value
    assert np.mean([0.1] * 3) != 0.1 and np.std([0.1] * 3, ddof=1) > 0.0
    for value, n in [(0.1, 3), (3 * math.log2(10.0), 5_000), (0.0, 4), (1e-300, 7), (1e200, 10), (-2.5, 129)]:
        est = simulate._estimate(np.full(n, value), cfg)
        assert est.value == float(np.mean(np.full(n, value))) and est.stderr == 0.0
    one = simulate._estimate(np.array([0.7]), cfg)
    assert (one.value, one.stderr) == (0.7, 0.0)


@pytest.mark.parametrize("n", [1, 2, 7, 100_003])
def test_count_estimate_is_the_indicator_estimate(n):
    # the count's mean and standard error are those of the 0/1 array it counts
    cfg = McConfig(trials=n, master_seed=4)
    order = np.random.default_rng(n).permutation(n)
    for count in sorted({0, 1, n // 3, n - 1, n}):
        indicators = np.zeros(n)
        indicators[order[:count]] = 1.0
        want = simulate._estimate(indicators, cfg)
        got = simulate._count_estimate(np.count_nonzero(indicators), cfg)
        assert (got.value, got.trials, got.seed) == (want.value, n, 4)
        if count in (0, n):
            assert got.stderr == want.stderr == 0.0
        else:
            assert abs(got.stderr - want.stderr) <= 4 * np.spacing(want.stderr)


def test_qpsk_helpers():
    assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)
    assert qpsk_bit_error(10.0) == pytest.approx(q_function(math.sqrt(10.0)), abs=1e-15)
    pb = qpsk_bit_error(4.0)
    assert qpsk_symbol_error(4.0) == pytest.approx(1 - (1 - pb) ** 2, abs=1e-15)
    assert qpsk_symbol_error(0.0) == pytest.approx(0.75, abs=1e-12)


def _erfc_monomial_coefficients(terms=24, nodes=64):
    """Coefficients in powers of t of S(t) = (1 + 2y) exp(y^2) erfc(y), y = c (1 + t) / (1 - t).

    The ``terms``-term Chebyshev interpolant of S at ``nodes`` Chebyshev
    points of the first kind, computed with mpmath at 40 digits, converted
    there to powers of t (T_{k+1} = 2t T_k - T_{k-1}) and only then rounded
    to doubles, constant term first; this is the generator of
    ``simulate._ERFC_POLY`` (c = ``simulate._ERFC_SCALE``).
    """
    with mp.workdps(40):
        scale = mp.mpf(simulate._ERFC_SCALE)
        samples = []
        for j in range(nodes):
            theta = mp.pi * (j + mp.mpf(1) / 2) / nodes
            t = mp.cos(theta)
            y = scale * (1 + t) / (1 - t)
            samples.append((theta, (1 + 2 * y) * mp.exp(y * y) * mp.erfc(y)))
        cheb = [2 * mp.fsum(f * mp.cos(k * theta) for theta, f in samples) / nodes for k in range(terms)]
        cheb[0] /= 2
        zero, one = mp.mpf(0), mp.mpf(1)
        basis = [[one] + [zero] * (terms - 1), [zero, one] + [zero] * (terms - 2)]  # T_0, T_1
        while len(basis) < terms:
            basis.append([2 * a - b for a, b in zip([zero] + basis[-1][:-1], basis[-2])])
        return tuple(float(mp.fsum(c * poly[i] for c, poly in zip(cheb, basis))) for i in range(terms))


def test_erfc_coefficients_rebuild_from_mpmath():
    assert _erfc_monomial_coefficients() == simulate._ERFC_POLY


def test_q_function_against_mpmath():
    x = np.linspace(-6.0, 26.5, 1301)
    got = q_function(x)
    with mp.workdps(30):
        want = np.array([float(mp.erfc(mp.mpf(v) / mp.sqrt(2)) / 2) for v in x])
    # 1e-13 is the contract; the tighter 1e-14 holds because x^2 / 2 is
    # split into an exact part and a small rest (rounding x^2 whole costs
    # up to 3e-14 here, and scipy's erfc reaches 1.3e-13)
    assert np.max(np.abs(got - want) / want) <= 1e-14


def test_q_function_zero_where_erfc_underflows():
    # erfc(y) underflows from y = 27 on, that is from x = 27 sqrt(2) = 38.18...
    x = np.array([38.2, 40.0, 1e3, 1e300, math.inf])
    assert np.all(q_function(x) == 0.0)
    assert np.all(q_function(-x) == 1.0)
    assert 0.0 < q_function(38.1) < 1e-300


def test_q_function_special_values_and_shapes():
    assert math.isnan(q_function(math.nan))
    assert q_function(math.inf) == 0.0 and q_function(-math.inf) == 1.0
    scalar = q_function(1.0)
    assert isinstance(scalar, np.float64) and np.ndim(scalar) == 0
    assert q_function(-1.0) == pytest.approx(1.0 - scalar, abs=1e-16)
    grid = np.array([[0.0, -2.0, math.nan], [3.0, 50.0, -50.0]])
    out = q_function(grid)
    assert out.shape == (2, 3) and np.isnan(out[0, 2])
    assert out[1, 1] == 0.0 and out[1, 2] == 1.0
    assert out[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert q_function(np.empty((0, 4))).shape == (0, 4)
    assert q_function([0.0, 1.0]).shape == (2,)
    big = np.linspace(-3.0, 45.0, 3 * simulate._CHUNK + 5)  # several Horner passes
    assert np.array_equal(q_function(big), [q_function(v) for v in big])


def test_repetition_count_vs_conditional():
    # at moderate SNR both estimators see plenty of errors; they must agree
    dims = ChannelDims(1, 2, 3)
    rho = 2.0
    count = mc_repetition_error(dims, rho, McConfig(trials=60_000), method="count")
    cond = mc_repetition_error(dims, rho, McConfig(trials=60_000), method="conditional")
    assert abs(count.value - cond.value) < 3 * math.hypot(count.stderr, cond.stderr)
    assert cond.stderr < count.stderr  # the whole point of conditioning


def test_repetition_tail_matches_conditional_where_both_work():
    dims = ChannelDims(1, 2, 3)
    for rho in (2.0, 10.0):
        cond = mc_repetition_error(dims, rho, McConfig(trials=120_000))
        exact = repetition_error_tail(dims, rho)
        assert abs(cond.value - exact) < 3 * cond.stderr


def test_repetition_tail_pinned_channel():
    # (2,2,3): one pinned eigenvalue shifts the effective SNR by rho
    val = repetition_error_tail(ChannelDims(2, 2, 3), 10.0)
    clean = repetition_error_tail(ChannelDims(1, 1, 3), 10.0)
    assert val < clean  # pinned subspace can only help
    assert val < qpsk_symbol_error(10.0)
    full = repetition_error_tail(ChannelDims(2, 2, 2), 7.0)
    assert full == pytest.approx(qpsk_symbol_error(2 * 7.0), rel=1e-12)


def test_repetition_tail_power_law():
    dims = ChannelDims(1, 2, 3)  # diversity mt*mr = 2
    pts = [(10.0 ** (db / 10), repetition_error_tail(dims, 10.0 ** (db / 10))) for db in (20, 30, 40)]
    assert estimate_diversity_slope(pts) == pytest.approx(2.0, abs=0.05)


def test_repetition_tail_needs_single_eigenvalue():
    with pytest.raises(ValueError):
        repetition_error_tail(ChannelDims(2, 2, 4), 10.0)


def test_alamouti_unitary_and_pinned_gains():
    est = mc_alamouti_outage(2, 10.0, 1.0, McConfig(trials=5_000))
    assert est.value == 0.0  # ||H11||^2 = 2 always
    lam = sample_spectra(ChannelDims(2, 2, 3), McConfig(trials=20_000))
    assert np.min(np.sum(lam, axis=1)) >= 1.0 - 1e-9  # Frobenius norm pinned
    est4 = mc_alamouti_outage(4, 100.0, 0.5, McConfig(trials=100_000))
    assert est4.value > 0.0


def test_alamouti_outage_against_the_exact_trace_law():
    # (2,2,4) has k = 0 and eigenvalues of J(2; 0, 0), density 6 (l1 - l2)^2 on
    # [0, 1]^2, so P(||H11||_F^2 <= t) = t^4 / 2 for t <= 1.  Outage at rate
    # r log2(rho) is P(||H11||_F^2 < (rho^r - 1) / rho): none at 0 dB, where a
    # rate of r log2(1 + rho) would give ((sqrt(2) - 1)^4) / 2 = 0.0147
    cfg = McConfig(trials=400_000, master_seed=5)
    at_0db = mc_alamouti_outage(4, 1.0, 0.5, cfg)
    assert at_0db.value == 0.0 and at_0db.stderr == 0.0
    at_10db = mc_alamouti_outage(4, 10.0, 0.5, cfg)
    want = ((math.sqrt(10.0) - 1.0) / 10.0) ** 4 / 2.0
    assert abs(at_10db.value - want) <= 3.0 * at_10db.stderr, (at_10db, want)


@pytest.mark.parametrize("m", [4, 6])
def test_alamouti_gain_threshold_counts_the_log_form(m):
    # g < (rho^r - 1) / rho is the event log2(1 + rho g) < r log2(rho), with
    # no outage at all for rho <= 1 or r = 0
    cfg = McConfig(trials=20_000, master_seed=3)
    gain = simulate._trace_values(ChannelDims(2, 2, m), cfg)
    for rho in (0.25, 0.5, 1.0, *(10.0 ** (np.arange(0.0, 55.0, 5.0) / 10.0))):
        for r in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5):
            want = np.count_nonzero(np.log2(1.0 + rho * gain) < r * np.log2(rho))
            assert mc_alamouti_outage(m, rho, r, cfg).value == want / cfg.trials, (rho, r)


def test_alamouti_outage_is_certain_where_rho_to_the_r_overflows():
    # at 3080 dB rho^2 overflows, and so does rho g for gains above 1.8;
    # the threshold is inf and every draw is in outage
    est = mc_alamouti_outage(4, 1e308, 2.0, McConfig(trials=20_000, master_seed=3))
    assert est.value == 1.0 and est.stderr == 0.0


def test_ergodic_pinned_modes_low_snr_limit():
    # (2,2,2) is a whole unitary: both modes pinned at gain 1, so every trial
    # is 2 log2(1 + rho) and the pinned share must not round 1 + rho
    est = mc_ergodic_capacity(ChannelDims(2, 2, 2), 1e-15, McConfig(trials=1_000, master_seed=5))
    assert est.value == pytest.approx(2.0 * log2_1p(1e-15), rel=1e-14, abs=0.0)
    assert est.stderr == 0.0


def test_slope_estimator():
    pts = [(rho, rho**-2.0) for rho in (10.0, 100.0, 1000.0)]
    assert estimate_diversity_slope(pts) == pytest.approx(2.0, abs=1e-12)
    pts = [(rho, 0.25) for rho in (10.0, 100.0, 1000.0)]
    assert estimate_diversity_slope(pts) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        estimate_diversity_slope([(1.0, 0.1), (2.0, 0.05)])
    with pytest.raises(ValueError):
        estimate_diversity_slope([(1.0, 0.1), (2.0, 0.0), (3.0, 0.01)])
    for bad in (
        [(0.0, 0.1), (2.0, 0.05), (3.0, 0.01)],  # rho <= 0
        [(-1.0, 0.1), (2.0, 0.05), (3.0, 0.01)],
        [(math.inf, 0.1), (2.0, 0.05), (3.0, 0.01)],
        [(math.nan, 0.1), (2.0, 0.05), (3.0, 0.01)],
        [(1.0, math.nan), (2.0, 0.05), (3.0, 0.01)],  # non-finite probability
        [(1.0, math.inf), (2.0, 0.05), (3.0, 0.01)],
        [(10.0, 0.1), (10.0, 0.05), (10.0, 0.01)],  # fewer than two distinct rho
    ):
        with pytest.raises(ValueError, match="points"):
            estimate_diversity_slope(bad)


def test_ks_distance_basics():
    rng = np.random.default_rng(0)
    a = rng.uniform(size=5000)
    b = rng.uniform(size=5000)
    assert ks_distance(a, b) < 0.05
    assert ks_distance(a, a) == 0.0
    assert ks_distance(a, a + 10.0) == 1.0
    assert ks_distance_to_cdf(a, lambda x: np.clip(x, 0, 1)) < 0.03


@pytest.mark.parametrize(
    "power, larger",
    [(1.5, "greater"), (1 / 1.5, "less")],
    ids=["d-plus", "d-minus"],
)
def test_ks_distance_to_cdf_is_scipys(power, larger):
    # U^power against the uniform CDF: each one-sided term is the larger
    # once, and 20 001 points end in a short segment between knots
    sample = philox.uniforms(stream_key(8, "ks"), 0, 20_001, 1)[:, 0] ** power
    sides = {side: kstest(sample, lambda x: x, alternative=side).statistic for side in ("greater", "less")}
    assert max(sides, key=sides.get) == larger
    want = kstest(sample, lambda x: x).statistic
    assert ks_distance_to_cdf(sample, lambda x: x) == pytest.approx(want, rel=0.0, abs=1e-15)


def _full_ks(sample, cdf):
    """The KS statistic with cdf evaluated at every sorted point: the pruned one's reference."""
    s = np.sort(np.asarray(sample, dtype=float).ravel())
    values, i = np.asarray(cdf(s), dtype=float), np.arange(len(s))
    return float(max(np.max(values - i / len(s)), np.max((i + 1) / len(s) - values)))


@pytest.mark.parametrize("seed", [7, 11, 23])
def test_pruned_ks_is_the_full_evaluation_on_rayleigh_samples(seed):
    def cdf(x):
        return analytic._laguerre_cdf(2, 0, x)

    for m in (8, 16, 32, 64):
        lam = m * sample_spectra(ChannelDims(2, 2, m), McConfig(trials=100_000, master_seed=seed))
        assert ks_distance_to_cdf(lam, cdf) == _full_ks(lam, cdf)


def _random_ks_case(seed):
    """A seeded (sample, non-decreasing cdf) pair: n from 1 to 20 000, continuous,
    tied, or with a tie run shorter than a segment, against a smooth or a step CDF."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([1, 2, rng.integers(3, 64), 64, 65, 129, rng.integers(130, 3000), rng.integers(3000, 20_000)]))
    p, q = rng.uniform(0.5, 3.0, size=2)
    sample = rng.beta(*rng.uniform(0.5, 3.0, size=2), size=n)
    if seed % 3 == 1:  # ties: a coarse grid of values
        levels = rng.integers(2, 40)
        sample = np.round(sample * levels) / levels
    elif seed % 3 == 2 and n > 2:  # a run of equal values inside the sample
        start = int(rng.integers(0, n - 1))
        sample[start:start + int(rng.integers(1, 64))] = sample[start]
    if seed % 2:
        return sample, lambda x: np.floor(betainc(p, q, x) * 16.0) / 16.0
    return sample, lambda x: betainc(p, q, x)


def test_pruned_ks_is_the_full_evaluation_on_random_samples():
    for seed in range(300):
        sample, cdf = _random_ks_case(seed)
        assert ks_distance_to_cdf(sample, cdf) == _full_ks(sample, cdf), seed


def test_pruned_ks_finds_a_maximum_inside_a_segment():
    # an even spread with a bump, and a run of 40 equal values from index 9995:
    # F(s_i) - i/n peaks at the run's start, between knots 9984 and 10048
    n = 20_000
    u = (np.arange(n) + 0.5) / n
    sample = u + 0.05 * np.exp(-(((u - 0.5) / 0.1) ** 2))
    sample[9995:10035] = sample[10034]
    sizes = []

    def cdf(x):
        sizes.append(len(x))
        return np.clip(x, 0.0, 1.0)

    got = ks_distance_to_cdf(sample, cdf)
    i = np.arange(n)
    terms = np.maximum(sample - i / n, (i + 1) / n - sample)
    assert int(np.argmax(terms)) == 9995 and got == np.max(terms)
    assert len(sizes) == 2 and sum(sizes) <= n // 10, sizes  # the knots, then the segments near the bump
    assert got == _full_ks(sample, cdf)


def test_rayleigh_ks_evaluates_few_points(monkeypatch):
    sizes = []
    real = analytic._laguerre_cdf

    def counting(n, alpha, x):
        sizes.append(len(x))
        return real(n, alpha, x)

    monkeypatch.setattr(analytic, "_laguerre_cdf", counting)
    rayleigh_compare(ChannelDims(2, 2, 8), 100.0, McConfig(trials=100_000, master_seed=7))
    # 2 * 10^5 scaled eigenvalues: the knots, then one call on the segments that can reach the maximum
    assert len(sizes) == 2 and sum(sizes) <= 0.1 * 200_000, sizes


def _brute_force_ks(a, b):
    points = np.concatenate([a, b])
    f_a = np.array([np.count_nonzero(a <= x) for x in points]) / len(a)
    f_b = np.array([np.count_nonzero(b <= x) for x in points]) / len(b)
    return float(np.max(np.abs(f_a - f_b)))


@pytest.mark.parametrize(
    "a, b",
    [
        (np.random.default_rng(1).normal(size=700), np.random.default_rng(2).normal(0.2, 1.0, size=900)),
        (np.random.default_rng(3).integers(0, 6, size=800), np.random.default_rng(4).integers(0, 7, size=500)),
        (np.repeat([0.0, 1.0, 2.0], [300, 1, 300]), np.repeat([0.0, 1.0, 2.0], [1, 300, 300])),
    ],
    ids=["continuous", "integer-ties", "tie-runs"],
)
def test_ks_distance_is_the_supremum_over_sample_points(a, b):
    want = _brute_force_ks(a, b)
    assert ks_distance(a, b) == pytest.approx(want, abs=1e-15)
    assert ks_distance(a, b) == pytest.approx(ks_2samp(a, b).statistic, abs=1e-15)
    assert ks_distance(b, a) == ks_distance(a, b)


@pytest.mark.parametrize("rho_bar_db", [3070, 3075])
def test_rayleigh_compare_rejects_snr_products_past_the_float_range(monkeypatch, rho_bar_db):
    # at (2, 2, 8), 3070 dB overflows the baseline's rho_bar / mt * lam at its cutoff L = 56
    # and 3075 dB overflows rho_bar * m: one ValueError naming rho_bar, before any draw, with
    # no warning (the suite turns warnings into errors)
    def never(*args):
        raise AssertionError("sampled before rho_bar was checked")

    monkeypatch.setattr(simulate, "uniforms", never)
    rho_bar = 10.0 ** (rho_bar_db / 10.0)
    with pytest.raises(ValueError, match="^" + re.escape(f"rho_bar={rho_bar!r} overflows the SNR products")):
        rayleigh_compare(ChannelDims(2, 2, 8), rho_bar, McConfig(trials=100))


def test_rayleigh_compare_draws_no_channels(monkeypatch):
    sizes = {}
    real = simulate.uniforms

    def counting(key, lo, hi, n):
        sizes.setdefault(key, set()).add(n)
        return real(key, lo, hi, n)

    def no_channels(*args):
        raise AssertionError("the Rayleigh comparison draws spectra, not channels")

    monkeypatch.setattr(simulate, "uniforms", counting)
    monkeypatch.setattr(simulate, "complex_normals", no_channels)
    for m in (5, 6):
        rayleigh_compare(ChannelDims(1, 4, m), 100.0, McConfig(trials=1_000, master_seed=2))
    # only the Jacobi side is sampled, one stream per m; the baseline is exact
    assert sizes == {
        stream_key(2, "bidiagonal:1,4,5"): {1},
        stream_key(2, "bidiagonal:1,4,6"): {2},
    }


def test_rayleigh_grid_draws_each_spectrum_once(monkeypatch):
    solves = []
    real = simulate._tridiagonal_spectra

    def counting(d2, e2):
        solves.append(d2.shape)
        return real(d2, e2)

    monkeypatch.setattr(simulate, "_tridiagonal_spectra", counting)
    cfg = McConfig(trials=2_000)
    channels, rho_bars = [ChannelDims(2, 2, m) for m in (5, 8)], [10.0, 100.0]
    # the sample sets do not depend on rho_bar, so a curve over it draws each once
    inside = [row for dims in channels for row in simulate._rayleigh_rows(dims, rho_bars, cfg)]
    assert len(solves) == 2
    outside = [rayleigh_compare(dims, rho_bar, cfg) for dims in channels for rho_bar in rho_bars]
    assert len(solves) == 2 + 4
    assert inside == outside


@pytest.mark.parametrize("mt, mr", [(3, 2), (2, 1)])
def test_rayleigh_ks_falls_when_mt_differs_from_mr(mt, mr):
    # the m-scaled spectrum meets the exact marginal of the min(mt, mr)
    # nonzero Wishart eigenvalues, with no zero eigenvalues in the way
    cfg = McConfig(trials=100_000)
    rows = [rayleigh_compare(ChannelDims(mt, mr, m), 100.0, cfg) for m in (8, 16, 32, 64)]
    ks = [row.ks_scaled_vs_wishart for row in rows]
    assert all(a > b for a, b in zip(ks, ks[1:])), ks
    assert ks[-1] < 0.02, ks


def test_outage_reduces_once_per_rho(monkeypatch):
    reductions = []
    real = simulate._log_det_values

    def counting(*args):
        reductions.append(args)
        return real(*args)

    monkeypatch.setattr(simulate, "_log_det_values", counting)
    dims, cfg = ChannelDims(2, 2, 3), McConfig(trials=2_000)
    rates = np.linspace(1.0, 2.0, 41)
    inside = simulate._outage_curve(dims, 100.0, cfg, [r * log2_1p(100.0) for r in rates])
    assert len(reductions) == 1
    simulate._outage_curve(dims, 10.0, cfg, [1.5 * log2_1p(10.0)])
    assert len(reductions) == 2
    outside = [mc_outage(dims, 100.0, cfg, r=r) for r in rates]
    assert len(reductions) == 2 + len(rates)
    assert inside == outside


def _count_keys(tag, seed):
    """The noise and symbol streams of the count repetition method."""
    return stream_key(seed, f"rep-count:noise:{tag}"), stream_key(seed, f"rep-count:sym:{tag}")


@pytest.mark.parametrize("rho", [0.0, 1.0, 10.0, 1e4])
def test_decision_margins_decide_as_the_symbol_decision(rho, monkeypatch):
    dims, cfg = ChannelDims(1, 2, 3), McConfig(trials=30_000, master_seed=9)
    gain = simulate._trace_values(dims, cfg).copy()
    gain[123] = 0.0  # the decision is then 0, which errs at every rho
    monkeypatch.setattr(simulate, "_trace_values", lambda *args: gain)
    kz, ks = _count_keys("1,2,3", 9)
    # the symbol decision itself, in complex arithmetic
    signs = np.where(philox.uniforms(ks, 0, cfg.trials, 2) < 0.5, -1.0, 1.0)
    symbol = (signs[:, 0] + 1j * signs[:, 1]) / math.sqrt(2.0)
    noise = philox.complex_normals(kz, 0, cfg.trials, 1)[:, 0]
    decision = math.sqrt(rho) * gain * symbol + np.sqrt(gain) * noise
    errs = (np.sign(decision.real) != signs[:, 0]) | (np.sign(decision.imag) != signs[:, 1])
    w = simulate._decision_margins(dims, cfg, kz, ks)
    assert np.array_equal(w <= -math.sqrt(rho / 2.0), errs)
    assert w[123] == -math.inf and errs[123]
    assert mc_repetition_error(dims, rho, cfg, method="count").value == np.count_nonzero(errs) / cfg.trials


def test_count_method_draws_once_per_block(monkeypatch):
    draws, gains = [], []
    real_uniforms, real_normals, real_trace = simulate.uniforms, simulate.complex_normals, simulate._trace_values
    dims, cfg = ChannelDims(1, 2, 3), McConfig(trials=20_000)
    kz, ks = _count_keys("1,2,3", 0)

    def uniforms(key, *args):
        if key == ks:
            draws.append("signs")
        return real_uniforms(key, *args)

    def complex_normals(key, *args):
        if key == kz:
            draws.append("noise")
        return real_normals(key, *args)

    def trace_values(*args):
        gains.append(args)
        return real_trace(*args)

    monkeypatch.setattr(simulate, "uniforms", uniforms)
    monkeypatch.setattr(simulate, "complex_normals", complex_normals)
    monkeypatch.setattr(simulate, "_trace_values", trace_values)
    rhos = 10.0 ** (np.arange(10.0, 45.0, 5.0) / 10.0)
    chunks = math.ceil(cfg.trials / simulate._CHUNK)
    inside = simulate._repetition_curve(dims, rhos, cfg, "count")
    # one sample set: each chunk's signs and noise once, one gain reduction
    assert sorted(draws) == ["noise"] * chunks + ["signs"] * chunks and len(gains) == 1
    outside = [mc_repetition_error(dims, rho, cfg, method="count") for rho in rhos]
    assert len(draws) == 2 * chunks * (1 + len(rhos)) and len(gains) == 1 + len(rhos)
    assert inside == outside


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ks_distance(np.array([]), np.array([1.0])), "a must be a non-empty sample"),
        (lambda: ks_distance(np.array([1.0]), []), "b must be a non-empty sample"),
        (lambda: ks_distance([math.nan, 1.0], [0.5, 0.2]), "a must be a non-empty sample of finite"),
        (lambda: ks_distance([0.5, 0.2], [1.0, math.inf]), "b must be a non-empty sample of finite"),
        (lambda: ks_distance_to_cdf([], lambda x: x), "sample must be a non-empty sample"),
        (lambda: ks_distance_to_cdf([0.1, -math.inf], lambda x: x), "sample must be a non-empty sample"),
        (lambda: ks_distance_to_cdf([0.2, 0.5], lambda x: 5 + x), "cdf must return finite values in"),
        (lambda: ks_distance_to_cdf([0.2, 0.5], lambda x: x * math.nan), "cdf must return finite values in"),
        (lambda: ks_distance_to_cdf([0.2, 0.5], lambda x: 1.0 - x), "cdf must be non-decreasing"),
        (lambda: ks_distance_to_cdf(np.linspace(0.0, 1.0, 200), lambda x: np.cos(6.0 * x) ** 2), "cdf must be non-decreasing"),
        # a channel with too few modes is refused by ChannelDims before rayleigh_compare
        # runs; these two ids keep the names the rows had when rayleigh_compare
        # checked mt >= 1 and mr >= 1 itself
        pytest.param(
            lambda: rayleigh_compare(ChannelDims(0, 2, 8), 100.0, McConfig(trials=10)),
            "need 1 <= mt <= m",
            id="<lambda>-need mt >= 1 and mr >= 1_0",
        ),
        pytest.param(
            lambda: rayleigh_compare(ChannelDims(2, -1, 8), 100.0, McConfig(trials=10)),
            "need 1 <= mr <= m",
            id="<lambda>-need mt >= 1 and mr >= 1_1",
        ),
        (lambda: rayleigh_compare(ChannelDims(2, "a", 8), 100.0, McConfig(trials=10)), "mr must be an integer"),
        (lambda: rayleigh_compare(ChannelDims(1.5, 2, 8), 100.0, McConfig(trials=10)), "mt must be an integer"),
        (lambda: rayleigh_compare(DIMS_228, math.nan, McConfig(trials=10)), "rho_bar must be finite and > 0"),
        (lambda: rayleigh_compare(DIMS_228, math.inf, McConfig(trials=10)), "rho_bar must be finite and > 0"),
        (lambda: rayleigh_compare(DIMS_228, 0.0, McConfig(trials=10)), "rho_bar must be finite and > 0"),
        (lambda: mc_alamouti_outage("4", 100.0, 0.5, McConfig(trials=10)), "m must be an integer"),
        (lambda: mc_alamouti_outage(True, 100.0, 0.5, McConfig(trials=10)), "m must be an integer"),
        (lambda: estimate_diversity_slope([("10", 0.1), (2.0, 0.05), (3.0, 0.01)]), "points\\[0\\] rho must be a real"),
        (lambda: estimate_diversity_slope([(True, 0.1), (2.0, 0.05), (3.0, 0.01)]), "points\\[0\\] rho must be a real"),
        (lambda: rayleigh_compare(ChannelDims(2, 2, 3), 100.0, McConfig(trials=10)), "the comparison needs m >= mt \\+ mr"),
        (lambda: mc_alamouti_outage(1, 100.0, 0.5, McConfig(trials=10)), "need 1 <= mt <= m"),
        (lambda: mc_repetition_error(DIMS_224, 10.0, McConfig(trials=10), method="bogus"), "method must be 'conditional' or 'count'"),
    ],
)
def test_bad_samples_and_sizes_name_the_argument(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_rayleigh_compare_structure():
    cfg = McConfig(trials=20_000)
    rows = [rayleigh_compare(ChannelDims(2, 2, m), 100.0, cfg) for m in (8, 32)]
    assert [r.m for r in rows] == [8, 32]
    for row in rows:
        assert row.rho_per_mode == pytest.approx(100.0 * row.m / 2)
        assert abs(row.frobenius_mean - row.frobenius_expected) < 0.05 * row.frobenius_expected
        assert np.isfinite(row.capacity_jacobi) and np.isfinite(row.ks_scaled_vs_wishart)
    # randomness effect shrinks with m
    assert rows[1].ks_scaled_vs_wishart < rows[0].ks_scaled_vs_wishart
    with pytest.raises(ValueError):
        rayleigh_compare(ChannelDims(2, 2, 3), 100.0, cfg)


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(trials=0)
    with pytest.raises(ValueError):
        McConfig(trials=10, workers=0)
    for bad in (
        {"trials": True},
        {"trials": 1000.5},
        {"trials": 1000.0},
        {"trials": 10, "workers": 1.5},
        {"trials": 10, "workers": True},
        {"trials": 10, "master_seed": 1.5},
        {"trials": 10, "master_seed": False},
        {"trials": 10, "master_seed": "3"},
    ):
        with pytest.raises(ValueError):
            McConfig(**bad)
    cfg = McConfig(trials=np.int64(10), master_seed=np.int32(3), workers=np.int16(2))
    assert mc_ergodic_capacity(DIMS_224, 10.0, cfg) == mc_ergodic_capacity(DIMS_224, 10.0, McConfig(10, 3))


@pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "estimate",
    [
        lambda rho, cfg: mc_ergodic_capacity(DIMS_224, rho, cfg),
        lambda rho, cfg: mc_outage(DIMS_224, rho, cfg, r=0.5),
        lambda rho, cfg: mc_outage(DIMS_224, rho, cfg, rate_bits=1.0),
        lambda rho, cfg: mc_alamouti_outage(4, rho, 0.5, cfg),
        lambda rho, cfg: mc_repetition_error(ChannelDims(1, 2, 3), rho, cfg),
        lambda rho, cfg: mc_repetition_error(ChannelDims(1, 2, 3), rho, cfg, method="count"),
    ],
)
def test_mc_estimators_reject_non_finite_snr(estimate, rho):
    with pytest.raises(ValueError, match="finite"):
        estimate(rho, McConfig(trials=10))


@pytest.mark.parametrize("mt, mr, m", [(1, 3, 8), (2, 2, 3), (2, 3, 3), (3, 3, 5)])
def test_channel_blocks_match_the_feedback_isometry_draw(mt, mr, m):
    # the draw the feedback scheme made for mt <= mr before channel_blocks
    # became the one truncated-Haar draw: top mr rows of Haar m x mt isometries
    dims = ChannelDims(mt, mr, m)
    key = stream_key(9, "blocks")
    g = philox.complex_normals(key, 0, 300, dims.m * dims.mt).reshape(300, dims.m, dims.mt)
    want = phase_fixed_qr(g)[:, :dims.mr, :]
    assert np.array_equal(simulate.channel_blocks(dims, key, 0, 300), want)
    assert np.array_equal(simulate.channel_blocks(dims, key, 120, 300), want[120:])


@pytest.mark.parametrize("mt, mr, m", [(3, 2, 4), (4, 3, 5), (5, 2, 6), (3, 1, 3)])
def test_channel_blocks_wide_channel_shape_and_pinned_ones(mt, mr, m):
    dims = ChannelDims(mt, mr, m)
    key = stream_key(9, "wide")
    h = simulate.channel_blocks(dims, key, 0, 500)
    assert h.shape == (500, mr, mt)
    # the same draw as the transposed channel's, conjugate-transposed
    assert np.array_equal(h, simulate.channel_blocks(ChannelDims(dims.mr, dims.mt, dims.m), key, 0, 500).conj().swapaxes(1, 2))
    sv = np.linalg.svd(h, compute_uv=False)  # descending, mr per block
    assert np.max(np.abs(sv[:, : dims.k] - 1.0)) < 1e-12
    assert np.max(sv) < 1.0 + 1e-12
