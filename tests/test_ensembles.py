"""Sampler distributions, unitarity, and the pinned-eigenvalue structure."""

import numpy as np
import pytest

from jacobi_fading import philox
from jacobi_fading.ensembles import (
    ChannelDims,
    phase_fixed_qr,
    snap_endpoints,
    verify_pinned_spectrum,
)
from jacobi_fading.errors import NumericalError
from jacobi_fading.simulate import McConfig, channel_blocks
from oracles import (
    gram_eigenvalues,
    haar_spectra,
    ks_distance,
    lapack_phase_fixed_qr,
    sample_jacobi_spectra_wishart,
)


def haar_unitaries(m, n, seed, tag="haar"):
    """n Haar unitaries of size m x m, trials [0, n) of stream (seed, tag)."""
    return channel_blocks(ChannelDims(m, m, m), philox.stream_key(seed, f"{tag}:{m}"), 0, n)


def channels(dims, n, seed):
    """n channel blocks H11 of dims, trials [0, n) of stream (seed, "channels")."""
    return channel_blocks(dims, philox.stream_key(seed, "channels"), 0, n)


def test_dims_derived_quantities():
    d = ChannelDims(2, 3, 6)
    assert (d.k, d.m_min, d.m_max, d.alpha, d.beta) == (0, 2, 3, 1, 1)
    d = ChannelDims(3, 2, 4)
    assert (d.k, d.m_min, d.m_max, d.alpha, d.beta) == (1, 2, 3, 1, -1)


# want is the interior, or None when every eigenvalue is pinned
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
        (2, 2, 4, (2, 2, 4)),  # k = 0: the interior is itself
        (1, 3, 8, (1, 3, 8)),  # k = 0, mt != mr: itself, not the H22 block
    ],
)
def test_complement_table(mt, mr, m, want):
    d = ChannelDims(mt, mr, m)
    if want is None:
        assert d.interior is None
        return
    c = d.interior
    assert c == ChannelDims(*want)
    if d.k > 0:  # the complementary (m - mr, m - mt, m) channel
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
    with pytest.raises(ValueError, match="need 1 <= mt <= m"):
        ChannelDims(0, 2, 8)
    with pytest.raises(ValueError, match="need 1 <= mr <= m"):
        ChannelDims(2, -1, 8)
    with pytest.raises(ValueError, match="mr must be an integer"):
        ChannelDims(2, "a", 8)
    with pytest.raises(ValueError, match="mt must be an integer"):
        ChannelDims(1.5, 2, 8)


def test_haar_unitary_unitarity_and_scalar_case():
    u1 = haar_unitaries(1, 1, 1)[0]
    assert abs(abs(u1[0, 0]) - 1.0) < 1e-12
    for m in (2, 5, 8):
        u = haar_unitaries(m, 1, 1)[0]
        assert np.max(np.abs(u.conj().T @ u - np.eye(m))) < 1e-12
    eig = np.linalg.eigvals(haar_unitaries(8, 1, 1, tag="eig")[0])
    assert np.max(np.abs(np.abs(eig) - 1.0)) < 1e-10


def test_haar_entry_symmetry():
    # every |u_ij|^2 averages to 1/m
    acc = np.mean(np.abs(haar_unitaries(4, 20_000, 2)) ** 2, axis=0)
    assert np.max(np.abs(acc - 0.25)) < 0.01


def test_haar_invariance_under_fixed_rotation():
    # spectra of (V U)_11 match spectra of U_11 in distribution
    m, mt, mr, n = 4, 2, 2, 100_000
    v_top = haar_unitaries(m, 1, 123)[0, :mr, :]
    key = philox.stream_key(0, "invariance")
    z = philox.complex_normals(key, 0, n, m * mt).reshape(n, m, mt)
    iso = phase_fixed_qr(z)
    plain = np.linalg.eigvalsh(np.einsum("bij,bik->bjk", iso[:, :mr, :].conj(), iso[:, :mr, :]))
    rotated_blocks = np.einsum("ij,bjk->bik", v_top, iso)
    rotated = np.linalg.eigvalsh(np.einsum("bij,bik->bjk", rotated_blocks.conj(), rotated_blocks))
    assert ks_distance(plain, rotated) < 0.01


@pytest.mark.parametrize("shape", [(1000, 6, 4), (1000, 3, 2), (10_000, 4, 4), (5, 3), (2, 3, 5, 3)])
def test_phase_fixed_qr_matches_lapack(shape):
    rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q = phase_fixed_qr(a)
    assert q.shape == a.shape and q.dtype == complex
    assert np.max(np.abs(q - lapack_phase_fixed_qr(a))) <= 1e-13
    gram = np.einsum("...ij,...ik->...jk", q.conj(), q)
    assert np.max(np.abs(gram - np.eye(shape[-1]))) <= 1e-14


def test_phase_fixed_qr_real_wide_and_zero_columns():
    a = np.random.default_rng(2).standard_normal((7, 5, 3))
    q = phase_fixed_qr(a)
    assert q.dtype == np.float64
    assert np.max(np.abs(q - lapack_phase_fixed_qr(a))) <= 1e-13
    with pytest.raises(ValueError):
        phase_fixed_qr(np.ones((2, 3, 4), dtype=complex))
    dependent = np.ones((2, 4, 2), dtype=complex)  # the second column projects to exactly zero
    with pytest.raises(NumericalError):
        phase_fixed_qr(dependent)
    zero = np.random.default_rng(3).standard_normal((4, 3, 2)) + 0j
    zero[1, :, 0] = 0.0
    with pytest.raises(NumericalError):
        phase_fixed_qr(zero)


def test_full_truncation_is_unitary():
    lam = gram_eigenvalues(channels(ChannelDims(3, 3, 3), 1, 3)[0])
    assert np.max(np.abs(lam - 1.0)) < 1e-12
    assert np.array_equal(snap_endpoints(lam), np.ones(3))


def test_pinned_eigenvalue_every_draw():
    lam = snap_endpoints(gram_eigenvalues(channels(ChannelDims(2, 2, 3), 300, 4)))
    # exactly one pinned value: the interior one stays away from 1
    assert np.all(np.sum(lam == 1.0, axis=1) == 1)
    assert np.all(lam[:, -1] == 1.0)


def test_channel_frobenius_mean():
    vals = np.sum(np.abs(channels(ChannelDims(2, 2, 4), 20_000, 5)) ** 2, axis=(1, 2))
    assert abs(np.mean(vals) - 1.0) < 0.01


def test_haar_determinism_and_blocks():
    dims = ChannelDims(2, 3, 5)
    a, b = haar_unitaries(5, 1, 6)[0], haar_unitaries(5, 1, 6)[0]
    assert np.array_equal(a, b)
    assert np.max(np.abs(a.conj().T @ a - np.eye(5))) < 1e-12
    h11, h12, h21 = a[: dims.mr, : dims.mt], a[: dims.mr, dims.mt :], a[dims.mr :, : dims.mt]
    assert h11.shape == (3, 2) and h21.shape == (2, 2) and h12.shape == (3, 3)


def test_spectrum_matches_density_formula():
    # dims (1,2,4): marginal density is 6*lam*(1-lam); compare the empirical
    # CDF against the numerically integrated density formula
    from jacobi_fading.analytic import eigen_density
    from jacobi_fading.simulate import ks_distance_to_cdf

    dims = ChannelDims(1, 2, 4)
    lam = haar_spectra(dims, McConfig(trials=100_000))
    grid = np.linspace(0.0, 1.0, 4001)
    pdf = eigen_density(dims, grid)
    cdf_grid = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))])
    cdf_grid /= cdf_grid[-1]
    assert ks_distance_to_cdf(lam, lambda x: np.interp(x, grid, cdf_grid)) < 0.01


def test_spectrum_transposition_symmetry():
    lam_a = haar_spectra(ChannelDims(3, 2, 4), McConfig(trials=100_000))
    lam_b = haar_spectra(ChannelDims(2, 3, 4), McConfig(trials=100_000))
    assert ks_distance(lam_a, lam_b) < 0.01


def test_batched_spectra_match_per_draw_api():
    # haar_spectra samples the first m_min Haar columns; here H11 is cut from
    # full Haar unitaries; both must give the same spectrum law
    dims = ChannelDims(2, 2, 4)
    full = haar_unitaries(4, 20_000, 8)[:, : dims.mr, : dims.mt]
    sliced = snap_endpoints(gram_eigenvalues(full))
    batched = haar_spectra(dims, McConfig(trials=20_000))
    assert ks_distance(sliced, batched) < 0.02


def test_snap_endpoints_snaps_and_counts():
    s = np.sort(snap_endpoints(np.array([1.0 - 1e-12, 0.5, 1e-12, -1e-15, 1.0 + 1e-15])))
    assert (np.sum(s == 1.0), np.sum((s > 0.0) & (s < 1.0)), np.sum(s == 0.0)) == (2, 1, 2)
    assert s[0] == 0.0 and s[1] == 0.0
    assert s[-2] == 1.0 and s[-1] == 1.0


def test_batched_snapping_is_the_per_row_rule():
    batch = np.array([[1.0 - 1e-12, 0.5, 1e-12], [-1e-15, 1.0 + 1e-15, 0.25]])
    for row, snapped in zip(batch, snap_endpoints(batch)):
        np.testing.assert_array_equal(snapped, snap_endpoints(row))
    np.testing.assert_array_equal(snap_endpoints(batch), [[1.0, 0.5, 0.0], [0.0, 1.0, 0.25]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericalError):
            snap_endpoints(np.array([[0.5, bad]]))
        with pytest.raises(NumericalError):
            snap_endpoints(np.array([0.5, bad]))


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
    report = verify_pinned_spectrum(haar_unitaries(dims.m, 200, 11), dims)
    assert report.n_unit_found.shape == (200,)
    assert np.all(report.n_unit_found >= min_unit)
    assert np.all(report.n_zero_found >= min_zero)
    assert np.all(report.residual_match_error < 1e-9)


def test_verify_pinned_spectrum_contract_errors():
    dims = ChannelDims(2, 2, 3)
    u = haar_unitaries(3, 4, 12)
    with pytest.raises(ValueError, match="mt \\+ mr > m"):
        verify_pinned_spectrum(haar_unitaries(4, 4, 12), ChannelDims(2, 2, 4))
    for bad in (u[0], u[:, :2, :], u[:, :, :2], u[None]):
        with pytest.raises(ValueError, match="unitaries must have shape"):
            verify_pinned_spectrum(bad, dims)


def test_verify_pinned_spectrum_flags_a_broken_realization():
    dims = ChannelDims(2, 2, 3)
    u = haar_unitaries(3, 4, 12).copy()
    u[1] = np.diag([1.0, 0.5, 1.0])  # H11 has an interior 0.25 but H22 = [1]
    report = verify_pinned_spectrum(u, dims)
    assert report.residual_match_error[1] == 0.75
    assert np.all(np.delete(report.residual_match_error, 1) < 1e-9)
    u[2, 0, 0] = np.nan
    with pytest.raises(NumericalError):
        verify_pinned_spectrum(u, dims)


@pytest.mark.parametrize("mt, mr, m", [(2, 3, 6), (3, 2, 6), (2, 2, 3), (4, 1, 5)])
def test_stacked_gram_eigenvalues_match_per_block_calls(mt, mr, m):
    stack = channels(ChannelDims(mt, mr, m), 50, 13)
    want = np.array([gram_eigenvalues(h) for h in stack])
    assert want.shape == (50, min(mt, mr))
    np.testing.assert_allclose(gram_eigenvalues(stack), want, rtol=0, atol=1e-14)
