"""Sampler distributions, unitarity, and the pinned-eigenvalue structure."""

import numpy as np
import pytest

from jacobi_fading import philox
from jacobi_fading.ensembles import (
    ChannelDims,
    SpectrumSample,
    classify_spectrum,
    draw_channel,
    gram_eigenvalues,
    phase_fixed_qr,
    sample_ginibre,
    sample_haar_unitary,
    snap_endpoints,
    squared_singular_values,
    verify_pinned_spectrum,
)
from jacobi_fading.errors import NumericalError
from jacobi_fading.simulate import McConfig, ks_distance, sample_jacobi_spectra_wishart, sample_spectra


def test_dims_derived_quantities():
    d = ChannelDims(2, 3, 6)
    assert (d.k, d.m_min, d.m_max, d.alpha, d.beta) == (0, 2, 3, 1, 1)
    d = ChannelDims(3, 2, 4)
    assert (d.k, d.m_min, d.m_max, d.alpha, d.beta) == (1, 2, 3, 1, -1)
    assert d.transposed() == ChannelDims(2, 3, 4)


@pytest.mark.parametrize(
    "mt, mr, m, want",
    [
        (3, 3, 3, None),  # mt = mr = m
        (2, 3, 3, None),  # mr = m
        (4, 3, 4, None),  # mt = m
        (2, 2, 3, (1, 1, 3)),
        (3, 3, 4, (1, 1, 4)),
        (3, 2, 4, (2, 1, 4)),
        (4, 4, 6, (2, 2, 6)),
        (5, 2, 6, (4, 1, 6)),
        (2, 2, 4, (2, 2, 4)),  # k = 0: still the H22 block
    ],
)
def test_complement_table(mt, mr, m, want):
    d = ChannelDims(mt, mr, m)
    if want is None:
        assert d.complement is None
        return
    c = d.complement
    assert c == ChannelDims(*want)
    if d.k > 0:
        assert (c.m_min, c.alpha, c.beta) == (m - d.m_max, d.alpha, d.k)


def test_dims_eigenvalue_count_partition():
    # the mt eigenvalues of H11^+H11 split into k units, mt - m_min zeros,
    # and m - m_max interior values whenever k > 0
    for mt in range(1, 7):
        for mr in range(1, 7):
            for m in range(max(mt, mr), 7):
                d = ChannelDims(mt, mr, m)
                if d.k > 0:
                    assert d.k + (d.mt - d.m_min) + (d.m - d.m_max) == d.mt
                    # equivalently the compact m_min-level spectrum is k units
                    # plus m - m_max interior values
                    assert d.k + (d.m - d.m_max) == d.m_min


def test_dims_validation():
    with pytest.raises(ValueError):
        ChannelDims(0, 1, 2)
    with pytest.raises(ValueError):
        ChannelDims(3, 1, 2)
    with pytest.raises(ValueError):
        ChannelDims(1, 5, 4)


def test_ginibre_entry_moments():
    rng = np.random.default_rng(0)
    z = sample_ginibre(100_000, 1, rng)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.02
    # entries of a larger block behave as i.i.d. CN(0,1): unit variances,
    # vanishing cross-correlations
    z = sample_ginibre(100_000, 6, rng)
    cov = z.conj().T @ z / len(z)
    assert np.max(np.abs(cov - np.eye(6))) < 0.02


def test_ginibre_determinism():
    a = sample_ginibre(4, 3, np.random.default_rng(77))
    b = sample_ginibre(4, 3, np.random.default_rng(77))
    assert np.array_equal(a, b)


def test_haar_unitary_unitarity_and_scalar_case():
    rng = np.random.default_rng(1)
    u1 = sample_haar_unitary(1, rng)
    assert abs(abs(u1[0, 0]) - 1.0) < 1e-12
    for m in (2, 5, 8):
        u = sample_haar_unitary(m, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(m))) < 1e-12
    eig = np.linalg.eigvals(sample_haar_unitary(8, rng))
    assert np.max(np.abs(np.abs(eig) - 1.0)) < 1e-10


def test_haar_entry_symmetry():
    # every |u_ij|^2 averages to 1/m
    rng = np.random.default_rng(2)
    n = 20_000
    acc = np.zeros((4, 4))
    for _ in range(n):
        acc += np.abs(sample_haar_unitary(4, rng)) ** 2
    assert np.max(np.abs(acc / n - 0.25)) < 0.01


def test_haar_invariance_under_fixed_rotation():
    # spectra of (V U)_11 match spectra of U_11 in distribution
    m, mt, mr, n = 4, 2, 2, 100_000
    v_top = sample_haar_unitary(m, np.random.default_rng(123))[:mr, :]
    key = philox.stream_key(0, "invariance")
    z = philox.complex_normals(key, 0, n, m * mt).reshape(n, m, mt)
    iso = phase_fixed_qr(z)
    plain = np.linalg.eigvalsh(np.einsum("bij,bik->bjk", iso[:, :mr, :].conj(), iso[:, :mr, :]))
    rotated_blocks = np.einsum("ij,bjk->bik", v_top, iso)
    rotated = np.linalg.eigvalsh(np.einsum("bij,bik->bjk", rotated_blocks.conj(), rotated_blocks))
    assert ks_distance(plain, rotated) < 0.01


def test_draw_channel_full_truncation_is_unitary():
    real = draw_channel(ChannelDims(3, 3, 3), np.random.default_rng(3))
    lam = squared_singular_values(real)
    assert np.max(np.abs(lam.lambdas - 1.0)) < 1e-12
    assert lam.counts == (3, 0, 0)


def test_draw_channel_pinned_eigenvalue_every_draw():
    dims = ChannelDims(2, 2, 3)
    rng = np.random.default_rng(4)
    for _ in range(300):
        lam = squared_singular_values(draw_channel(dims, rng))
        # exactly one pinned value: the interior one stays away from 1
        assert lam.n_unit == 1
        assert lam.lambdas[-1] == 1.0


def test_draw_channel_frobenius_mean():
    dims = ChannelDims(2, 2, 4)
    rng = np.random.default_rng(5)
    vals = [np.sum(np.abs(draw_channel(dims, rng).h11) ** 2) for _ in range(20_000)]
    assert abs(np.mean(vals) - 1.0) < 0.01


def test_draw_channel_determinism_and_blocks():
    dims = ChannelDims(2, 3, 5)
    a = draw_channel(dims, np.random.default_rng(6), keep_full=True)
    b = draw_channel(dims, np.random.default_rng(6), keep_full=True)
    assert np.array_equal(a.h11, b.h11) and np.array_equal(a.h22, b.h22)
    full = a.full_matrix()
    assert np.max(np.abs(full.conj().T @ full - np.eye(5))) < 1e-12
    assert a.h11.shape == (3, 2) and a.h21.shape == (2, 2) and a.h12.shape == (3, 3)


def test_spectrum_matches_density_formula():
    # dims (1,2,4): marginal density is 6*lam*(1-lam); compare the empirical
    # CDF against the numerically integrated density formula
    from jacobi_fading.analytic import eigen_density
    from jacobi_fading.simulate import ks_distance_to_cdf

    dims = ChannelDims(1, 2, 4)
    lam = sample_spectra(dims, McConfig(trials=100_000))
    grid = np.linspace(0.0, 1.0, 4001)
    pdf = eigen_density(dims, grid)
    cdf_grid = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))])
    cdf_grid /= cdf_grid[-1]
    assert ks_distance_to_cdf(lam, lambda x: np.interp(x, grid, cdf_grid)) < 0.01


def test_spectrum_transposition_symmetry():
    lam_a = sample_spectra(ChannelDims(3, 2, 4), McConfig(trials=100_000))
    lam_b = sample_spectra(ChannelDims(2, 3, 4), McConfig(trials=100_000))
    assert ks_distance(lam_a, lam_b) < 0.01


def test_batched_spectra_match_per_draw_api():
    # the engine samples the first m_min Haar columns; per-draw API QRs the
    # full matrix; both must give the same spectrum law
    dims = ChannelDims(2, 2, 4)
    rng = np.random.default_rng(8)
    loop = np.array([squared_singular_values(draw_channel(dims, rng)).lambdas for _ in range(20_000)])
    batched = sample_spectra(dims, McConfig(trials=20_000))
    assert ks_distance(loop, batched) < 0.02


def test_classify_spectrum_snaps_and_counts():
    s = classify_spectrum(np.array([1.0 - 1e-12, 0.5, 1e-12, -1e-15, 1.0 + 1e-15]), tol=1e-9)
    assert s.counts == (2, 1, 2)
    assert s.lambdas[0] == 0.0 and s.lambdas[1] == 0.0
    assert s.lambdas[-2] == 1.0 and s.lambdas[-1] == 1.0
    with pytest.raises(ValueError):
        classify_spectrum(np.array([0.5]), tol=0.1)


def test_batched_snapping_is_the_classify_rule():
    batch = np.array([[1.0 - 1e-12, 0.5, 1e-12], [-1e-15, 1.0 + 1e-15, 0.25]])
    for row, snapped in zip(batch, snap_endpoints(batch, 1e-9)):
        np.testing.assert_array_equal(np.sort(snapped), classify_spectrum(row, 1e-9).lambdas)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericalError):
            snap_endpoints(np.array([[0.5, bad]]), 1e-9)
        with pytest.raises(NumericalError):
            classify_spectrum(np.array([0.5, bad]))


def test_wishart_jacobi_scalar_is_uniform():
    vals = sample_jacobi_spectra_wishart(1, 1, 1, McConfig(trials=20_000, master_seed=10))[:, 0]
    assert abs(np.mean(vals) - 0.5) < 0.011  # uniform mean, ~5 sigma margin
    assert ks_distance(vals, np.random.default_rng(1).uniform(size=20_000)) < 0.02


def test_wishart_jacobi_validation():
    with pytest.raises(ValueError):
        sample_jacobi_spectra_wishart(1, 3, 2, McConfig(trials=10))


@pytest.mark.parametrize(
    "dims,min_unit,min_zero",
    [
        (ChannelDims(2, 2, 3), 1, 0),
        (ChannelDims(3, 3, 4), 2, 0),
        (ChannelDims(4, 3, 4), 3, 1),
    ],
)
def test_verify_pinned_spectrum(dims, min_unit, min_zero):
    rng = np.random.default_rng(11)
    for _ in range(200):
        report = verify_pinned_spectrum(draw_channel(dims, rng, keep_full=True))
        assert report.n_unit_found >= min_unit
        assert report.n_zero_found >= min_zero
        assert report.residual_match_error < 1e-9


def test_verify_pinned_spectrum_contract_errors():
    rng = np.random.default_rng(12)
    with pytest.raises(ValueError):
        verify_pinned_spectrum(draw_channel(ChannelDims(2, 2, 4), rng, keep_full=True))
    with pytest.raises(ValueError):
        verify_pinned_spectrum(draw_channel(ChannelDims(2, 2, 3), rng, keep_full=False))


@pytest.mark.parametrize("mt, mr, m", [(2, 3, 6), (3, 2, 6), (2, 2, 3), (4, 1, 5)])
def test_stacked_gram_eigenvalues_match_per_block_calls(mt, mr, m):
    rng = np.random.default_rng(13)
    stack = np.array([draw_channel(ChannelDims(mt, mr, m), rng).h11 for _ in range(50)])
    want = np.array([gram_eigenvalues(h) for h in stack])
    assert want.shape == (50, min(mt, mr))
    np.testing.assert_allclose(gram_eigenvalues(stack), want, rtol=0, atol=1e-14)
