"""Monte-Carlo engine: reproducibility, oracles, and estimator structure."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import betainc
from scipy.stats import ks_2samp

from jacobi_fading import philox, simulate
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
from oracles import haar_spectra, ks_distance

DIMS_224 = ChannelDims(2, 2, 4)


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


def test_shared_draws_keyed_by_everything_that_decides_them():
    with simulate._shared_draws():
        base = sample_spectra(DIMS_224, McConfig(trials=5_000, master_seed=1))
        assert sample_spectra(DIMS_224, McConfig(trials=5_000, master_seed=1, workers=2)) is base
        assert not base.flags.writeable
        assert len(sample_spectra(DIMS_224, McConfig(trials=6_000, master_seed=1))) == 6_000
        assert not np.array_equal(sample_spectra(DIMS_224, McConfig(trials=5_000, master_seed=2)), base)
    assert sample_spectra(DIMS_224, McConfig(trials=5_000, master_seed=1)).flags.writeable


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


def _mp_log_det(d2, e2, rho):
    """log2 det(I + rho B^T B) by mpmath's LU, B^T B built from the squares at 50 digits."""
    n = len(d2)
    with mp.workdps(50):
        a = mp.eye(n)
        for i in range(n):
            a[i, i] += rho * (mp.mpf(d2[i]) + (mp.mpf(e2[i - 1]) if i else 0))
            if i + 1 < n:
                a[i, i + 1] = a[i + 1, i] = rho * mp.sqrt(mp.mpf(d2[i]) * mp.mpf(e2[i]))
        return mp.log(mp.det(a), 2)


@pytest.mark.parametrize("rho", [1.0, 1e6, 1e12])
@pytest.mark.parametrize("mt, mr, m", [(4, 4, 8), (3, 2, 7)])
def test_pivot_log_det_against_mpmath(mt, mr, m, rho):
    dims, cfg = ChannelDims(mt, mr, m), McConfig(trials=100, master_seed=7)
    got = simulate._log_det_values(dims, rho, cfg)
    d2, e2 = simulate._model_squares(dims, cfg)
    want = np.array([float(_mp_log_det(d2[t], e2[t], rho)) for t in range(cfg.trials)])
    assert np.max(np.abs(got - want) / want) <= 1e-14


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
    for rho in (1.0, 100.0, 1e6):
        want = np.mean(np.sum(np.log2(1.0 + rho * lam), axis=1))
        assert mc_ergodic_capacity(dims, rho, cfg).value == pytest.approx(want, rel=1e-13, abs=0.0)


def test_non_finite_squares_raise(monkeypatch):
    real = simulate._model_squares

    def poisoned(*args):
        d2, e2 = (a.copy() for a in real(*args))
        d2[17, 1] = math.nan
        return d2, e2

    monkeypatch.setattr(simulate, "_model_squares", poisoned)
    cfg = McConfig(trials=1_000)
    with pytest.raises(NumericalError, match="log det"):
        mc_ergodic_capacity(ChannelDims(3, 3, 6), 10.0, cfg)
    with pytest.raises(NumericalError, match="log det"):
        mc_outage(ChannelDims(3, 3, 6), 10.0, cfg, r=1.0)
    with pytest.raises(NumericalError, match="trace"):
        mc_alamouti_outage(4, 10.0, 0.5, cfg)
    with pytest.raises(NumericalError, match="trace"):
        mc_repetition_error(ChannelDims(3, 3, 6), 10.0, cfg)


@pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (1, 2), (4, 4), (3, 7), (7, 3), (2, 62), (62, 2)])
def test_beta_variates_from_uniform_products(p, q):
    u = philox.uniforms(stream_key(9, f"beta:{p},{q}"), 0, 100_000, min(p, q))
    x, y = simulate._beta_variates(np.array([p]), np.array([q]), u)
    assert x.shape == y.shape == (100_000, 1)
    assert ks_distance_to_cdf(x, lambda t: betainc(p, q, t)) < 0.01
    assert np.all(np.abs(x + y - 1.0) <= 2 * np.spacing(1.0))
    assert np.all(np.isfinite(x)) and np.all(x > 0.0)
    # a second variate reads the next min(p, q) columns
    pair, _ = simulate._beta_variates(np.array([p, p]), np.array([q, q]), np.hstack([u, u]))
    assert np.array_equal(pair, np.hstack([x, x]))


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
    ],
    ids=["negative-rate_bits", "bool-rate_bits", "bool-r", "alamouti-bool-r"],
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


def test_qpsk_helpers():
    assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)
    assert qpsk_bit_error(10.0) == pytest.approx(q_function(math.sqrt(10.0)), abs=1e-15)
    pb = qpsk_bit_error(4.0)
    assert qpsk_symbol_error(4.0) == pytest.approx(1 - (1 - pb) ** 2, abs=1e-15)
    assert qpsk_symbol_error(0.0) == pytest.approx(0.75, abs=1e-12)


def _erfc_chebyshev_coefficients(terms=24, nodes=64):
    """Chebyshev coefficients of S(t) = (1 + 2y) exp(y^2) erfc(y), y = c (1 + t) / (1 - t).

    The interpolant of S at ``nodes`` Chebyshev points of the first kind,
    computed with mpmath at 40 digits and rounded to doubles; this is the
    generator of ``simulate._ERFC_CHEB`` (c = ``simulate._ERFC_SCALE``).
    """
    with mp.workdps(40):
        scale = mp.mpf(simulate._ERFC_SCALE)
        samples = []
        for j in range(nodes):
            theta = mp.pi * (j + mp.mpf(1) / 2) / nodes
            t = mp.cos(theta)
            y = scale * (1 + t) / (1 - t)
            samples.append((theta, (1 + 2 * y) * mp.exp(y * y) * mp.erfc(y)))
        coeffs = []
        for k in range(terms):
            c = 2 * mp.fsum(f * mp.cos(k * theta) for theta, f in samples) / nodes
            coeffs.append(float(c / 2 if k == 0 else c))
    return tuple(coeffs)


def test_erfc_coefficients_rebuild_from_mpmath():
    assert _erfc_chebyshev_coefficients() == simulate._ERFC_CHEB


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
    big = np.linspace(-3.0, 45.0, 3 * simulate._Q_BLOCK + 5)  # several Clenshaw blocks
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
    rayleigh_compare(1, 4, [5, 6], 100.0, McConfig(trials=1_000, master_seed=2))
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
    with simulate._shared_draws():
        # the sample sets do not depend on rho_bar, so a grid reuses them
        inside = [rayleigh_compare(2, 2, [5, 8], rho_bar, cfg) for rho_bar in (10.0, 100.0)]
        assert len(solves) == 2
    outside = [rayleigh_compare(2, 2, [5, 8], rho_bar, cfg) for rho_bar in (10.0, 100.0)]
    assert len(solves) == 2 + 4
    assert inside == outside


@pytest.mark.parametrize("mt, mr", [(3, 2), (2, 1)])
def test_rayleigh_ks_falls_when_mt_differs_from_mr(mt, mr):
    # the m-scaled spectrum meets the exact marginal of the min(mt, mr)
    # nonzero Wishart eigenvalues, with no zero eigenvalues in the way
    rows = rayleigh_compare(mt, mr, [8, 16, 32, 64], 100.0, McConfig(trials=100_000))
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
    with simulate._shared_draws():
        inside = [mc_outage(dims, 100.0, cfg, r=r) for r in rates]
        assert len(reductions) == 1
        mc_outage(dims, 10.0, cfg, r=1.5)
        assert len(reductions) == 2
    outside = [mc_outage(dims, 100.0, cfg, r=r) for r in rates]
    assert len(reductions) == 2 + len(rates)
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
        (lambda: rayleigh_compare(0, 2, [8], 100.0, McConfig(trials=10)), "need mt >= 1 and mr >= 1"),
        (lambda: rayleigh_compare(2, -1, [8], 100.0, McConfig(trials=10)), "need mt >= 1 and mr >= 1"),
        (lambda: rayleigh_compare(2, "a", [8], 100.0, McConfig(trials=10)), "mr must be an integer"),
        (lambda: rayleigh_compare(1.5, 2, [8], 100.0, McConfig(trials=10)), "mt must be an integer"),
        (lambda: rayleigh_compare(2, 2, [8], math.nan, McConfig(trials=10)), "rho_bar must be finite and > 0"),
        (lambda: rayleigh_compare(2, 2, [8], math.inf, McConfig(trials=10)), "rho_bar must be finite and > 0"),
        (lambda: rayleigh_compare(2, 2, [8], 0.0, McConfig(trials=10)), "rho_bar must be finite and > 0"),
        (lambda: rayleigh_compare(2, 2, [8.7], 100.0, McConfig(trials=10)), "m_list entries must be integers"),
        (lambda: rayleigh_compare(2, 2, [8, True], 100.0, McConfig(trials=10)), "m_list entries must be integers"),
        (lambda: rayleigh_compare(2, 2, [], 100.0, McConfig(trials=10)), "m_list must name at least one m"),
        (lambda: rayleigh_compare(2, 2, [8, 3], 100.0, McConfig(trials=10)), "every m in m_list must satisfy"),
        (lambda: mc_alamouti_outage("4", 100.0, 0.5, McConfig(trials=10)), "m must be an integer"),
        (lambda: mc_alamouti_outage(True, 100.0, 0.5, McConfig(trials=10)), "m must be an integer"),
        (lambda: estimate_diversity_slope([("10", 0.1), (2.0, 0.05), (3.0, 0.01)]), "points\\[0\\] rho must be a real"),
        (lambda: estimate_diversity_slope([(True, 0.1), (2.0, 0.05), (3.0, 0.01)]), "points\\[0\\] rho must be a real"),
        (lambda: rayleigh_compare(2, 2, 8, 100.0, McConfig(trials=10)), "m_list must be a sequence of integers"),
    ],
)
def test_bad_samples_and_sizes_name_the_argument(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_rayleigh_compare_structure():
    cfg = McConfig(trials=20_000)
    rows = rayleigh_compare(2, 2, [8, 32], 100.0, cfg)
    assert [r.m for r in rows] == [8, 32]
    for row in rows:
        assert row.rho_per_mode == pytest.approx(100.0 * row.m / 2)
        assert abs(row.frobenius_mean - row.frobenius_expected) < 0.05 * row.frobenius_expected
        assert np.isfinite(row.capacity_jacobi) and np.isfinite(row.ks_scaled_vs_wishart)
    # randomness effect shrinks with m
    assert rows[1].ks_scaled_vs_wishart < rows[0].ks_scaled_vs_wishart
    with pytest.raises(ValueError):
        rayleigh_compare(2, 2, [3], 100.0, cfg)


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
    assert np.array_equal(h, simulate.channel_blocks(dims.transposed(), key, 0, 500).conj().swapaxes(1, 2))
    sv = np.linalg.svd(h, compute_uv=False)  # descending, mr per block
    assert np.max(np.abs(sv[:, : dims.k] - 1.0)) < 1e-12
    assert np.max(sv) < 1.0 + 1e-12
