"""Reference samplers and statistics that only the tests read.

``ks_distance`` is the two-sample Kolmogorov-Smirnov statistic the
distribution tests compare samples with.  The library draws spectra from
the bidiagonal model; the two references here draw them the long way, on
the library's Philox streams, so their samples are a pure function of
(shape, trials, master seed):

* ``haar_spectra`` diagonalises truncated-Haar channel blocks from
  :func:`jacobi_fading.simulate.channel_blocks`, through
  ``gram_eigenvalues``: the channel's own definition of the law;
* ``sample_jacobi_spectra_wishart`` builds Jacobi spectra the textbook
  way, from a pair of complex Wishart matrices, as an independent check on
  the truncated-Haar draw (acceptance criterion 2).  It reads the streams
  ``wishart-jacobi:g1`` and ``wishart-jacobi:g2``.

``lapack_phase_fixed_qr`` is the phase-fixed QR as it was first written,
LAPACK's QR with each column turned by the phase of R's diagonal entry:
the library's Gram-Schmidt kernel must give the same Q up to rounding.

``eigh_complete_unitary`` is the feedback completion as it was first
written, one stacked ``eigh`` of the mt x mt residual I - H11^+ H11: the
library's s x s path must give the same rows up to rounding, except where
an eigenvalue repeats and any basis of its eigenspace is valid.

``reference_frame`` is the feedback scheme one use at a time, the
algorithm the batched frame replaces, on the frame's own draws: the
batched run must give the same trace and measures up to rounding.  It
carries every use's conditional covariance through the relay, so
``mode_power_deviation`` reads each use's per-mode power from it instead
of trusting the batched frame's closed form.

``reference_squares`` and ``reference_spectra`` are the bidiagonal model
written the direct way, trial-major, each Beta variate's log terms added
column by column in index order and ``np.where`` for the p < q flip, on
the library's stream: the library's in-place, variate-major kernel, which
adds in the same order, must give the same bits.  ``model_squares`` keeps
that kernel's squares for every trial, which the library's estimators
reduce chunk by chunk and never hold whole.
"""

import math
from types import SimpleNamespace

import numpy as np

from jacobi_fading import feedback
from jacobi_fading.ensembles import UNIT_TOL, ChannelDims, snap_endpoints
from jacobi_fading.errors import NumericalError
from jacobi_fading.feedback import SchemeConfig
from jacobi_fading.philox import complex_normals, stream_key, uniforms
from jacobi_fading.simulate import (
    McConfig, _channel_key, _map_chunks, _reduce_model, _sorted_sample, channel_blocks,
)


def _gather(cfg: McConfig, chunk_fn):
    """:func:`~jacobi_fading.simulate._map_chunks`'s results joined along trials.

    chunk_fn returns an array, or a tuple of arrays that are joined
    componentwise.  The library fills each sample set in one buffer
    instead; only these references join per-chunk arrays.
    """
    parts = _map_chunks(cfg, chunk_fn)
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p, axis=0) for p in zip(*parts))
    return np.concatenate(parts, axis=0)


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|.

    One merge of the two sorted samples: walking the merged order, each
    a-point steps n_a*n_b*(F_a - F_b) by +n_b and each b-point by -n_a, in
    integers, and only the last point of each run of tied values is read.
    The walk ends at 0, so the last point never sets the supremum.
    """
    n_a, n_b = np.size(a), np.size(b)
    merged = np.concatenate([_sorted_sample(np.array(a, dtype=float).ravel(), "a"),
                             _sorted_sample(np.array(b, dtype=float).ravel(), "b")])
    order = np.argsort(merged, kind="stable")  # two sorted runs: one merge
    merged = merged[order]
    scaled = np.where(order < n_a, n_b, -n_a)
    np.cumsum(scaled, out=scaled)
    last_of_tie = merged[1:] != merged[:-1]
    top = np.max(scaled[:-1], where=last_of_tie, initial=0)
    bottom = np.min(scaled[:-1], where=last_of_tie, initial=0)
    return float(max(top, -bottom)) / (n_a * n_b)


def lapack_phase_fixed_qr(a: np.ndarray) -> np.ndarray:
    """Reduced QR of one matrix or a stack by ``np.linalg.qr``, R's diagonal phase folded into Q."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(d)
    if np.any(mag == 0.0):
        raise NumericalError("QR produced an exactly zero diagonal entry")
    return q * (d / mag)[..., None, :]


def eigh_complete_unitary(h11: np.ndarray, dims: ChannelDims) -> np.ndarray:
    """The (n, m - mr, mt) completions of a stack of blocks, from the mt x mt residual's ``eigh``.

    Rows by decreasing eigenvalue, each the eigenvector scaled by the
    eigenvalue's square root with its largest entry turned to the positive
    real axis.
    """
    mt, k, s = dims.mt, dims.k, dims.m - dims.mr
    residual = np.eye(mt) - h11.conj().swapaxes(-1, -2) @ h11
    w, v = np.linalg.eigh(residual)
    if np.any(w[:, 0] < -UNIT_TOL):
        raise NumericalError("I - H11^+H11 has a significantly negative eigenvalue")
    w = np.clip(w, 0.0, None)
    if s == 0:
        if np.any(w[:, -1] > UNIT_TOL):
            raise NumericalError("columns are not orthonormal but no completion rows remain")
        return np.zeros((len(h11), 0, mt), dtype=complex)
    # eigh sorts ascending and s = mt - k: the top s eigenvalues carry the whole residual
    if np.any(w[:, k - 1] > UNIT_TOL):
        raise NumericalError("residual rank exceeds the available completion rows")
    top = v[:, :, ::-1][:, :, :s]  # one eigenvector column per completion row
    # a unit eigenvector's largest entry is at least 1/sqrt(mt) in modulus
    pivot = np.take_along_axis(top, np.argmax(np.abs(top), axis=1)[:, None, :], axis=1)
    phase = pivot.conj() / np.abs(pivot)
    return (np.sqrt(w[:, None, ::-1][:, :, :s]) * (top * phase).conj()).swapaxes(1, 2)


def reference_frame(cfg: SchemeConfig) -> SimpleNamespace:
    """The feedback scheme one channel use at a time, fed the batched run's own draws.

    This is the per-use algorithm the batched recurrences replace: each use
    completes its block with :func:`~jacobi_fading.feedback.complete_unitary`,
    relays the l-uses-old vector, carries the transmit vector's exact
    conditional covariance (over symbols and dither, given the channels)
    through the relay, pads each relay slot up to unit power where the
    relay leaves room, and the receiver peels backwards one use at a time.
    Returns the report's measured numbers, the trace, every use's
    covariance ``sigmas`` (n, mt, mt) and its diagonal ``cond_power``
    (n, mt): the per-use, per-mode conditional power.  A relay slot whose
    relay alone runs above unit power gets no pad and keeps that power.
    """
    d = feedback._draw_frame(cfg)
    dims, n, l, rho = cfg.dims, cfg.n_uses, cfg.delay, cfg.rho
    mt, mr, k = dims.mt, dims.mr, dims.k
    s = dims.m - mr
    sqrt_rho = math.sqrt(rho)

    channels = np.empty((n, mr, mt), dtype=complex)
    completions = np.empty((n, s, mt), dtype=complex)
    xs = np.empty((n, mt), dtype=complex)
    ys = np.empty((n, mr), dtype=complex)
    dither = np.zeros((n, s), dtype=complex)
    sigmas = np.empty((n, mt, mt), dtype=complex)
    for i in range(n):
        h11 = d.channels[..., i if cfg.fresh_channel_each_use else 0]
        h21 = feedback.complete_unitary(h11, dims)
        channels[i] = h11
        completions[i] = h21
        if i >= l:
            w_rel = completions[i - l] @ xs[i - l]
            c_rel = completions[i - l] @ sigmas[i - l] @ completions[i - l].conj().T
        else:
            w_rel = np.zeros(s, dtype=complex)
            c_rel = np.zeros((s, s), dtype=complex)
        pad_var = 1.0 - np.diag(c_rel).real
        pad_var[pad_var < 64 * np.finfo(float).eps] = 0.0  # rounding residue on a unit-norm row
        pad = np.sqrt(pad_var) * d.dither[i]
        dither[i] = pad
        sigma = np.zeros((mt, mt), dtype=complex)
        sigma[:k, :k] = np.eye(k)
        sigma[k:, k:] = c_rel + np.diag(pad_var)
        sigmas[i] = sigma
        x = np.concatenate([d.symbols[i], w_rel + pad])
        xs[i] = x
        ys[i] = sqrt_rho * h11 @ x + d.noise[i]

    side_meas = [None] * n
    side_cov = [None] * n
    for j in range(n - l, n):
        w_close = completions[j] @ xs[j]
        meas = np.zeros(s, dtype=complex)
        var = np.zeros(s)
        for e in range(s):
            window = (j - (n - l)) * s + e
            hc = d.closing_channels[window]
            gain = float(np.sum(np.abs(hc) ** 2))
            combined_noise = complex(np.einsum("ij,ji->", hc.conj(), d.closing_noise[window]))
            meas[e] = sqrt_rho * w_close[e] + combined_noise / gain
            var[e] = 1.0 / gain
        side_meas[j] = meas
        side_cov[j] = np.diag(var)

    stream_meas = np.empty((n, k), dtype=complex)
    cond_cov_sum = np.zeros((mt, mt), dtype=complex)
    cond_var_stream = np.empty((n, k))
    for i in range(n - 1, -1, -1):
        v = side_meas[i] if s else np.zeros(0, dtype=complex)
        cov_v = side_cov[i] if s else np.zeros((0, 0))
        h11, h21 = channels[i], completions[i]
        y_tilde = h11.conj().T @ ys[i] + h21.conj().T @ v
        cov_z = h11.conj().T @ h11 + h21.conj().T @ (cov_v @ h21)
        stream_meas[i] = y_tilde[:k]
        cond_var_stream[i] = np.diag(cov_z).real[:k]
        cond_cov_sum += cov_z
        if i >= l:
            side_meas[i - l] = y_tilde[k:] - sqrt_rho * dither[i]
            side_cov[i - l] = cov_z[k:, k:]

    ber = None
    if cfg.modulation == "qpsk":
        sent, meas = d.symbols.ravel(), stream_meas.ravel()
        bit_errs = np.sum(np.sign(meas.real) != np.sign(sent.real))
        bit_errs += np.sum(np.sign(meas.imag) != np.sign(sent.imag))
        ber = float(bit_errs / (2 * len(sent)))
    return SimpleNamespace(
        per_stream_snr=rho / np.mean(cond_var_stream, axis=0),
        noise_cov_error=float(np.max(np.abs(cond_cov_sum / n - np.eye(mt)))),
        ber=ber,
        trace=feedback.FrameTrace(channels=channels, completions=completions, transmitted=xs, dither=dither),
        sigmas=sigmas,
        cond_power=np.diagonal(sigmas, axis1=1, axis2=2).real,
    )


def mode_power_deviation(cfg: SchemeConfig) -> float:
    """The largest |conditional power - 1| over every use and transmit mode of :func:`reference_frame`.

    Not a mean over uses: a completion whose rows are not orthogonal moves
    single uses far more than the per-mode mean.
    """
    return float(np.max(np.abs(reference_frame(cfg).cond_power - 1.0)))


def gram_eigenvalues(h11: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the smaller Gram form of one block or a stack (unclamped)."""
    mr, mt = h11.shape[-2:]
    block = h11 if mt <= mr else h11.conj().swapaxes(-1, -2)
    return np.linalg.eigvalsh(np.einsum("...ij,...ik->...jk", block.conj(), block))


def haar_spectra(dims: ChannelDims, cfg: McConfig) -> np.ndarray:
    """Ascending snapped spectra of cfg.trials truncated-Haar channels, shape (trials, m_min).

    Trial t diagonalises :func:`channel_blocks` trial t of the stream
    ``spectra:mt,mr,m``.  The library's spectral estimators and
    ``sample_spectra`` read ``bidiagonal:mt,mr,m`` instead, so this
    reference and the model never share Philox words.
    """
    key = stream_key(cfg.master_seed, f"spectra:{dims.mt},{dims.mr},{dims.m}")
    return _gather(cfg, lambda lo, hi: snap_endpoints(gram_eigenvalues(channel_blocks(dims, key, lo, hi))))


def sample_jacobi_spectra_wishart(m1: int, m2: int, n: int, cfg: McConfig) -> np.ndarray:
    """Spectra of J(m1, m2, n) built from Wishart pairs, shape (trials, n).

    With G1 (m1 x n) and G2 (m2 x n) complex Ginibre, the eigenvalues of
    S^-1/2 A S^-1/2, A = G1^+ G1 and S = A + G2^+ G2, follow J(m1, m2, n).
    """
    if n < 1:
        raise ValueError("n must be >= 1 (empty spectra carry no information)")
    if m1 < n or m2 < n:
        raise ValueError("need m1 >= n and m2 >= n")
    key1 = stream_key(cfg.master_seed, f"wishart-jacobi:g1:{m1},{m2},{n}")
    key2 = stream_key(cfg.master_seed, f"wishart-jacobi:g2:{m1},{m2},{n}")

    def chunk(lo, hi):
        g1 = complex_normals(key1, lo, hi, m1 * n).reshape(hi - lo, m1, n)
        g2 = complex_normals(key2, lo, hi, m2 * n).reshape(hi - lo, m2, n)
        a = np.einsum("bij,bik->bjk", g1.conj(), g1)
        s = a + np.einsum("bij,bik->bjk", g2.conj(), g2)
        w, v = np.linalg.eigh(s)
        if np.min(w) <= 0.0:
            raise NumericalError("Wishart sum numerically singular")
        inv_sqrt = np.einsum("bij,bj,bkj->bik", v, 1.0 / np.sqrt(w), v.conj())
        ratio = np.einsum("bij,bjk,bkl->bil", inv_sqrt, a, inv_sqrt)
        return snap_endpoints(np.linalg.eigvalsh(ratio))

    return _gather(cfg, chunk)


def _reference_chunk(dims: ChannelDims, key, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(d^2, e^2) of trials [lo, hi), shapes (hi-lo, n) and (hi-lo, n-1), summed in index order."""
    core = dims.interior
    if core is None:
        return np.zeros((hi - lo, 0)), np.zeros((hi - lo, 0))
    n, a, b = core.m_min, core.alpha, core.beta
    j = np.arange(n, 0, -1)
    p = np.concatenate([a + j, j[1:]])
    q = np.concatenate([b + j, a + b + 1 + j[1:]])
    u = uniforms(key, lo, hi, n * n + n * min(a, b))
    r, s = np.minimum(p, q), np.maximum(p, q)
    starts = np.cumsum(r) - r
    divisor = np.repeat(s - starts, r) + np.arange(r.sum())
    terms = np.log(u) / divisor
    log_x = terms[:, starts]
    for j, (start, count) in enumerate(zip(starts, r)):
        for i in range(start + 1, start + count):
            log_x[:, j] += terms[:, i]
    big, small = np.exp(log_x), -np.expm1(log_x)
    flip = p < q
    x, y = np.where(flip, small, big), np.where(flip, big, small)
    x[:, 1:n] *= y[:, n:]
    x[:, n:] *= y[:, : n - 1]
    return x[:, :n], x[:, n:]


def model_squares(dims: ChannelDims, cfg: McConfig) -> tuple[np.ndarray, np.ndarray]:
    """(d^2, e^2) of the library's :func:`~jacobi_fading.simulate._bidiagonal_chunk`, through ``_reduce_model``.

    Shapes (trials, n) and (trials, n-1): transposed views of one
    (2n-1, trials) buffer, so each column is contiguous.
    """
    n = dims.m_min - dims.k  # unpinned modes

    def keep(squares, out):
        out[...] = squares

    squares = _reduce_model(dims, cfg, max(2 * n - 1, 0), keep)
    return squares[:n].T, squares[n:].T


def reference_squares(dims: ChannelDims, cfg: McConfig) -> tuple[np.ndarray, np.ndarray]:
    """The model's (d^2, e^2), shapes (trials, n) and (trials, n-1), by the trial-major kernel."""
    key = _channel_key(dims, cfg)
    return _gather(cfg, lambda lo, hi: _reference_chunk(dims, key, lo, hi))


def reference_spectra(dims: ChannelDims, cfg: McConfig) -> np.ndarray:
    """The model's snapped spectra, shape (trials, m_min), by the trial-major kernel."""
    key = _channel_key(dims, cfg)

    def chunk(lo, hi):
        d2, e2 = _reference_chunk(dims, key, lo, hi)
        trials, n = d2.shape
        if n <= 1:
            interior = d2
        elif n == 2:
            p, r = d2[:, 0], e2[:, 0] + d2[:, 1]
            h = 0.5 * (p - r)
            lam_max = 0.5 * (p + r) + np.sqrt(h * h + d2[:, 0] * e2[:, 0])
            interior = np.stack((d2[:, 0] * d2[:, 1] / lam_max, lam_max), axis=1)
        else:
            gram = np.zeros((trials, n, n))
            i = np.arange(n)
            gram[:, i, i] = d2
            gram[:, i[1:], i[1:]] += e2
            gram[:, i[:-1], i[1:]] = gram[:, i[1:], i[:-1]] = np.sqrt(d2[:, :-1] * e2)
            interior = np.linalg.eigvalsh(gram)
        return snap_endpoints(np.concatenate([interior, np.ones((hi - lo, dims.k))], axis=1))

    return _gather(cfg, chunk)
