"""Deterministic-seeded Monte-Carlo engine for the channel model.

Every channel shape owns one tag, ``bidiagonal:mt,mr,m``, and trial ``t``
of every spectral estimator and of :func:`sample_spectra` draws from the
counter-based stream keyed by ``(master_seed, tag, t)`` (see
:mod:`jacobi_fading.philox`); only the ``count`` repetition method's noise
and symbols have tags of their own.  Estimates are therefore a pure
function of (experiment parameters, trials, master_seed): worker count
only changes which thread runs a chunk of trials, never which variates a
trial sees.

Because that stream depends on neither the estimator nor rho or r, all
estimators and points of a curve at the same (dims, trials, master_seed)
see the same channels (common random numbers).  Each estimator has a
private curve form (:func:`_ergodic_curve`, :func:`_outage_curve`,
:func:`_repetition_curve`, :func:`_alamouti_curve`, :func:`_rayleigh_rows`),
which the CLI calls once per grid: it checks every point, draws the rho-
and r-independent sample set once, and reduces it at each point (an
outage curve's mutual information at its one rho and the ``count``
method's decision margins too).  A public estimator is its curve at one
point, so every call draws afresh.  An outage or ``count`` point counts
the trials past its threshold.

The spectral estimators (ergodic capacity, outage, the Alamouti and
repetition errors, and the Jacobi side of the Rayleigh comparison) depend
on a channel only through its squared singular values, so they draw the
spectrum, not the channel.  The unpinned eigenvalues follow the Jacobi
ensemble J(n; a, b) of ``ChannelDims.interior``, with density proportional to
``prod lam^a (1-lam)^b * Vandermonde(lam)^2``, which by Edelman & Sutton
(Found. Comput. Math. 8, 2008; the beta = 2 case) is the law of the
squared singular values of a real ``n x n`` upper-bidiagonal matrix B
whose entries are products of independent Beta variates.  Every Beta
parameter there is an integer, so each variate is exactly a product of
uniform powers; a trial reads ``n^2 + n*min(a, b)`` uniforms, a fixed
count that does not grow with m.  The estimators reduce B's squared
entries directly, with no eigensolve: capacity and outage read
log2 det(I + rho B^T B) from its characteristic polynomial in rho, whose
n coefficients each chunk computes as it is drawn
(:func:`_det_coefficients`), one Horner pass and one log per trial and
point; the Alamouti and repetition errors read the trace of B^T B.
Pinned eigenvalues (k > 0) add exactly k log2(1 + rho) and k.
Only outputs that are spectra (:func:`sample_spectra`, behind
:func:`rayleigh_compare` too) diagonalise B^T B.
The Rayleigh baseline is not sampled: it is closed-form (:mod:`.analytic`).
Channels are drawn by :func:`channel_blocks` alone, for the feedback
scheme and, as whole Haar unitaries, for
:func:`~jacobi_fading.ensembles.verify_pinned_spectrum`: the first
``m_min`` columns of a Haar unitary are a uniformly distributed isometry,
obtained by phase-fixed QR of an ``m x m_min`` Ginibre block.

Each sample set lives in one preallocated, variate-major buffer: the
polynomial coefficients in an (n, trials) array, the gains in a (1, trials)
one, spectra in an (m_min, trials) one, handed out as a transposed view.
Each chunk of trials draws B's squares into a (2n-1, t) block that only it
holds and reduces them into its own slice.  The calling thread and up to
workers - 1 helper threads take chunks from one shared iterator, so a thread
that gets no core leaves its chunks to the others; every stage reads
contiguous rows.  A Beta variate's log terms are added row by row in index
order, into the row of its first term.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import analytic
from .ensembles import (
    ChannelDims, phase_fixed_qr, require_integers,
    require_nonnegative, require_positive, snap_endpoints,
)
from .errors import NumericalError
from .philox import complex_normals, stream_key, uniforms
from .specfun import log2_1p

__all__ = [
    "McConfig",
    "McEstimate",
    "RayleighComparison",
    "channel_blocks",
    "sample_spectra",
    "mc_ergodic_capacity",
    "mc_outage",
    "mc_repetition_error",
    "repetition_error_tail",
    "mc_alamouti_outage",
    "estimate_diversity_slope",
    "rayleigh_compare",
    "ks_distance_to_cdf",
    "q_function",
    "qpsk_bit_error",
    "qpsk_symbol_error",
]

# Trials per pass of every per-trial kernel, so that a pass's temporaries
# stay in cache, and the unit of work a thread takes in _map_chunks.  No value
# depends on it: every trial reads its own stream, and no reduction runs per chunk.
_CHUNK = 8192


@dataclass(frozen=True)
class McConfig:
    """Trial budget, master seed, and worker count (speed only) of a run."""

    trials: int
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        require_integers(trials=self.trials, master_seed=self.master_seed, workers=self.workers)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo mean with its standard error and reproduction seed."""

    value: float
    stderr: float
    trials: int
    seed: int


def _map_chunks(cfg: McConfig, chunk_fn) -> list:
    """[chunk_fn(lo, hi) for each span of the fixed chunk grid], in order; no span starts after one raises."""
    spans = [(lo, min(lo + _CHUNK, cfg.trials)) for lo in range(0, cfg.trials, _CHUNK)]
    results, errors, work = [None] * len(spans), [], iter(enumerate(spans))

    def run():
        for i, (lo, hi) in work:
            try:
                results[i] = chunk_fn(lo, hi)
            except BaseException as error:
                errors.append(error)
                list(work)  # hands out every span left, so no thread starts another

    helpers = [threading.Thread(target=run) for _ in range(min(cfg.workers, len(spans)) - 1)]
    for helper in helpers:
        helper.start()
    run()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return results


def _estimate(values: np.ndarray, cfg: McConfig) -> McEstimate:
    mean = float(np.mean(values))
    if len(values) > 1 and float(np.max(values)) != float(np.min(values)):
        stderr = float(np.std(values, ddof=1) / math.sqrt(len(values)))
    else:
        stderr = 0.0  # degenerate sample (e.g. a fully unitary channel)
    return McEstimate(value=mean, stderr=stderr, trials=len(values), seed=cfg.master_seed)


def _count_estimate(count: int, cfg: McConfig) -> McEstimate:
    """_estimate of cfg.trials indicators, ``count`` of them 1, from the count alone."""
    n = cfg.trials
    stderr = math.sqrt(count * (n - count) / (n - 1)) / n if 0 < count < n else 0.0
    return McEstimate(value=count / n, stderr=stderr, trials=n, seed=cfg.master_seed)


def channel_blocks(dims: ChannelDims, key, lo: int, hi: int) -> np.ndarray:
    """Channel blocks H11 of trials [lo, hi), shape (hi-lo, mr, mt).

    Trial t reads m * m_min complex normals: the first m_max rows of the
    phase-fixed QR of that m x m_min Ginibre block are the top-left block
    of a Haar unitary, conjugate-transposed when mt > mr.  With
    ``ChannelDims(m, m, m)`` the blocks are whole m x m Haar unitaries
    (Mezzadri, Notices AMS 54, 2007).
    """
    z = complex_normals(key, lo, hi, dims.m * dims.m_min).reshape(hi - lo, dims.m, dims.m_min)
    top = phase_fixed_qr(z)[:, : dims.m_max, :]
    return top if dims.mt <= dims.mr else top.conj().swapaxes(1, 2)


def _beta_variates(p: np.ndarray, q: np.ndarray, u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Beta(p_j, q_j) variates from uniforms ``u``: x_j into row j of ``x``, 1 - x_j returned.

    ``u`` has shape (trials, sum r_j); ``x`` and the returned array have
    shape (len(p), trials), variate-major.  For integers r = min(p, q) and
    s = max(p, q), the product of U_i^(1/(s+i)) over i < r is Beta(s, r):
    if X ~ Beta(a, b) and Y ~ Beta(a+b, c) are independent then
    XY ~ Beta(a, b+c) (Devroye, Non-Uniform Random Variate Generation,
    1986, ch. IX), and U^(1/s) is Beta(s, 1).  Beta(p, q) is that product
    when p >= q and one minus it otherwise.  Variate j reads the next r_j
    columns of ``u``; with L = sum log(U_i)/(s+i), the pair is exp(L) and
    -expm1(L), so neither side loses accuracy to cancellation.

    The terms log(U_i)/(s+i) are laid out variate-major in one scratch
    array, and L is summed in place into its first term's row, the others
    added in index order.  The r_j terms share a sign, so that sum is
    within (r_j - 1) units of roundoff, relative (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sec. 4.2), and r_j is at most
    m_min + min(a, b) in the bidiagonal model: no other order buys
    anything.
    """
    r, s = np.minimum(p, q), np.maximum(p, q)
    starts = np.cumsum(r) - r
    divisor = np.repeat(s - starts, r) + np.arange(r.sum())
    terms = np.log(u.T, out=np.empty(u.T.shape))
    terms /= divisor[:, None]
    y = np.empty(x.shape)
    for j, (start, count) in enumerate(zip(starts, r)):
        log_x = terms[start]
        for i in range(start + 1, start + count):
            log_x += terms[i]
        product, rest = (x[j], y[j]) if p[j] >= q[j] else (y[j], x[j])
        np.exp(log_x, out=product)
        np.negative(np.expm1(log_x, out=rest), out=rest)
    return y


def _bidiagonal_chunk(dims: ChannelDims, key, lo: int, hi: int, out: np.ndarray) -> None:
    """Squared entries of the bidiagonal model of ``dims.interior`` for trials [lo, hi), into ``out``.

    With (n, a, b) its (m_min, alpha, beta), ``out`` has shape
    (2n-1, hi-lo): rows 0..n-1 take d^2 and rows n..2n-2 take e^2, the
    squared diagonal and superdiagonal of an upper-bidiagonal B whose B^T B
    has the J(n; a, b) spectrum.  The k pinned eigenvalues are left to the
    caller; with no interior ``out`` has no rows.  Trial t reads
    n^2 + n*min(a, b) uniforms, turned into Beta variates as products of
    uniform powers (:func:`_beta_variates`): c_j^2 ~ Beta(a+j, b+j) for
    j = n..1, then c'_j^2 ~ Beta(j, a+b+1+j) for j = n-1..1.  B has
    diagonal c_n, c_{n-1} s'_{n-1}, ..., c_1 s'_1 and superdiagonal
    -s_n c'_{n-1}, ..., -s_2 c'_1, with s^2 = 1 - c^2; the squares are
    products of the variates, so no square root is taken.  The estimators
    reduce log det and trace straight from these squares; only spectrum
    outputs go on to an eigensolve (:func:`_tridiagonal_spectra`).
    """
    core = dims.interior
    if core is None:
        return
    n, a, b = core.m_min, core.alpha, core.beta
    j = np.arange(n, 0, -1)
    p = np.concatenate([a + j, j[1:]])
    q = np.concatenate([b + j, a + b + 1 + j[1:]])
    y = _beta_variates(p, q, uniforms(key, lo, hi, n * n + n * min(a, b)), out)
    out[1:n] *= y[n:]  # d^2: c_n^2, then c_j^2 s'_j^2
    out[n:] *= y[: n - 1]  # e^2: c'_j^2 s_{j+1}^2


def _channel_key(dims: ChannelDims, cfg: McConfig):
    """The one stream of the bidiagonal model for this channel shape and master seed."""
    return stream_key(cfg.master_seed, f"bidiagonal:{dims.mt},{dims.mr},{dims.m}")


def _tridiagonal_spectra(d2: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of B^T B from B's squared diagonal and superdiagonal.

    Variate-major: d2 has shape (n, trials), e2 (n-1, trials), and the
    result (n, trials), smallest first.
    """
    n, trials = d2.shape
    if n <= 1:
        return d2  # the variate itself
    if n == 2:
        p, r = d2[0], e2[0] + d2[1]
        h = 0.5 * (p - r)  # an h * h that underflows sits far below UNIT_TOL's snap to 0
        lam_max = 0.5 * (p + r) + np.sqrt(h * h + d2[0] * e2[0])
        # det / lam_max keeps the small eigenvalue's relative accuracy
        return np.stack((d2[0] * d2[1] / lam_max, lam_max))
    gram = np.zeros((trials, n, n))  # B^T B, symmetric tridiagonal
    i = np.arange(n)
    gram[:, i, i] = d2.T
    gram[:, i[1:], i[1:]] += e2.T
    gram[:, i[:-1], i[1:]] = gram[:, i[1:], i[:-1]] = np.sqrt(d2[:-1] * e2).T
    return np.linalg.eigvalsh(gram).T


def _det_coefficients(squares: np.ndarray, out: np.ndarray) -> None:
    """c_1..c_n of det(I + rho B^T B) = 1 + sum_j c_j rho^j per trial, into ``out``, from B's squares.

    ``squares`` is a (2n-1, t) block of :func:`_bidiagonal_chunk`, ``out``
    (n, t), row j-1 for c_j.  The running products of the LDL^T pivots of
    I + rho B^T B obey Q_i = P_{i-1} + rho e_{i-1}^2 Q_{i-1} and
    P_i = Q_i + rho d_i^2 P_{i-1}, P_0 = Q_1 = 1, det = P_n: a factor rho
    shifts a row, every term is non-negative, and nothing cancels.  Rows
    are updated in place from the top down, so the old rows a step reads
    are not yet overwritten.
    """
    n = len(out)
    if not n:
        return
    d2, e2 = squares[:n], squares[n:]
    p, q = out, np.empty((n - 1, out.shape[1]))  # P_i and Q_i, row j-1 for rho^j
    p[0] = d2[0]  # P_1 = 1 + rho d_1^2
    for i in range(1, n):  # P_i, Q_i (rows 0..i-1 and 0..i-2) become P_{i+1}, Q_{i+1}
        d, e = d2[i], e2[i - 1]
        np.multiply(p[i - 1], d, out=p[i])
        for j in range(i - 1, 0, -1):
            np.multiply(q[j - 1], e, out=q[j])
            q[j] += p[j]
            np.multiply(p[j - 1], d, out=p[j])
            p[j] += q[j]
        np.add(p[0], e, out=q[0])  # the rho^1 rows: Q_i and P_i have constant term 1
        np.add(q[0], d, out=p[0])


def _reduce_model(dims: ChannelDims, cfg: McConfig, rows: int, reduce) -> np.ndarray:
    """A (rows, trials) buffer, each chunk's slice filled by reduce(squares, slice) as it is drawn.

    ``squares`` is the chunk's (2n-1, t) block of :func:`_bidiagonal_chunk`,
    n = m_min - k; only the reduction outlives the chunk.
    """
    key = _channel_key(dims, cfg)
    n = dims.m_min - dims.k  # unpinned modes
    out = np.empty((rows, cfg.trials))

    def chunk(lo, hi):
        squares = np.empty((max(2 * n - 1, 0), hi - lo))
        _bidiagonal_chunk(dims, key, lo, hi, squares)
        reduce(squares, out[:, lo:hi])

    _map_chunks(cfg, chunk)
    return out


def _model_coefficients(dims: ChannelDims, cfg: McConfig) -> np.ndarray:
    """(n, trials) c_1..c_n of :func:`_det_coefficients`, drawn once per curve; a chunk keeps no squares."""
    return _reduce_model(dims, cfg, dims.m_min - dims.k, _det_coefficients)


def _log_det_values(dims: ChannelDims, rho: float, coefficients: np.ndarray) -> np.ndarray:
    """log2 det(I + rho B^T B) + k log2(1 + rho) per trial, from :func:`_model_coefficients`.

    log1p(S) / ln 2 with S = sum_{j>=1} c_j rho^j by Horner: no term is
    negative, so it is accurate as rho -> 0.  Where S overflows, log2 det >
    1024 and n log2 rho + log2 sum_{j>=0} c_j rho^(j-n) cannot cancel.
    """
    n, pinned = len(coefficients), dims.k * log2_1p(rho)
    bits = np.zeros(coefficients.shape[1])
    if n:
        with np.errstate(over="ignore"):  # an S that overflows takes the second form
            np.multiply(coefficients[-1], rho, out=bits)
            for c in coefficients[-2::-1]:  # S = (...(c_n rho + c_{n-1}) rho + ... + c_1) rho
                bits += c
                bits *= rho
        np.log1p(bits, out=bits)
        bits /= math.log(2.0)
    bits += pinned
    if not np.all(np.isfinite(bits)):
        over = np.flatnonzero(np.isinf(bits))  # S overflowed (or a coefficient is inf)
        tail = np.ones(over.size)  # c_0, then Horner in 1 / rho
        for c in coefficients[:, over]:
            tail /= rho
            tail += c
        bits[over] = n * math.log2(rho) + np.log2(tail) + pinned
        if not np.all(np.isfinite(bits)):
            raise NumericalError("log det of the bidiagonal model is not finite")
    return bits


def _trace_values(dims: ChannelDims, cfg: McConfig) -> np.ndarray:
    """trace(B^T B) + k = ||H11||_F^2 per trial, each chunk summed as it is drawn."""

    def trace(squares, row):
        row[...] = dims.k
        for square in squares:  # contiguous rows, added in the fixed order k + d^2 + e^2
            row += square

    gain = _reduce_model(dims, cfg, 1, trace)[0]
    if not np.all(np.isfinite(gain)):
        raise NumericalError("trace of the bidiagonal model is not finite")
    return gain


def sample_spectra(dims: ChannelDims, cfg: McConfig) -> np.ndarray:
    """Ascending squared singular values of cfg.trials channels, from the bidiagonal model.

    Shape (trials, m_min): the interior eigenvalues of :func:`_bidiagonal_chunk`
    on the estimators' stream, then k exact ones, clamped to [0, 1] and
    snapped by :func:`~jacobi_fading.ensembles.snap_endpoints`; drawn once
    per call, so a Rayleigh curve draws it once per m.  The result is the
    transposed view of one (m_min, trials) buffer that each chunk fills in
    place.
    """
    n = dims.m_min - dims.k  # unpinned modes

    def spectra(squares, rows):
        rows[:n] = _tridiagonal_spectra(squares[:n], squares[n:])
        rows[n:] = 1.0
        rows[...] = snap_endpoints(rows)

    return _reduce_model(dims, cfg, dims.m_min, spectra).T


def mc_ergodic_capacity(dims: ChannelDims, rho: float, cfg: McConfig) -> McEstimate:
    """Empirical mean of log2 det(I + rho * H11^+ H11) over fresh draws (bits)."""
    return _ergodic_curve(dims, [rho], cfg)[0]


def _ergodic_curve(dims: ChannelDims, rhos, cfg: McConfig) -> list[McEstimate]:
    """:func:`mc_ergodic_capacity` at each of ``rhos``, from one sample set."""
    for rho in rhos:
        require_nonnegative(rho=rho)
    coefficients = _model_coefficients(dims, cfg)
    return [_estimate(_log_det_values(dims, rho, coefficients), cfg) for rho in rhos]


def mc_outage(
    dims: ChannelDims,
    rho: float,
    cfg: McConfig,
    r: float | None = None,
    rate_bits: float | None = None,
) -> McEstimate:
    """Fraction of draws whose mutual information falls below the rate.

    The rate is either a multiplexing ratio ``r`` (so R = r * log2(1 + rho))
    or an absolute ``rate_bits``; exactly one must be given.  It counts the
    draws whose log2 det(I + rho B^T B), made once per rho, is below R.
    """
    require_positive(rho=rho)
    if (r is None) == (rate_bits is None):
        raise ValueError("give exactly one of r or rate_bits")
    if r is not None:
        require_nonnegative(r=r)
        rate_bits = r * log2_1p(rho)
    return _outage_curve(dims, rho, cfg, [rate_bits])[0]


def _outage_curve(dims: ChannelDims, rho: float, cfg: McConfig, rates_bits) -> list[McEstimate]:
    """:func:`mc_outage` at each of ``rates_bits``, from one log det per trial."""
    require_positive(rho=rho)
    for rate in rates_bits:
        require_nonnegative(rate_bits=rate)
    mi = _log_det_values(dims, rho, _model_coefficients(dims, cfg))
    return [_count_estimate(np.count_nonzero(mi < rate), cfg) for rate in rates_bits]


# For y >= 0, erfc(y) = exp(-y^2) S(t) / (1 + 2y), where S is smooth on
# [-1, 1] in t = (y - 3.75) / (y + 3.75) (Shepherd & Laframboise, Math.
# Comp. 36, 1981).  _ERFC_POLY holds S's coefficients in powers of t,
# constant first: the 24-term interpolant at 64 Chebyshev nodes, computed
# with mpmath at 40 digits and converted before rounding (sum |a_j| = 1.76);
# tests/test_simulate.py rebuilds them.
_ERFC_SCALE = 3.75
_ERFC_POLY = (
    1.2375126308378275, -0.14024059858554697, 0.0035854154854790257,
    0.0822767384901452, -0.10880393014244462, 0.09230432116037748,
    -0.05869339857664934, 0.028362277418956406, -0.009746579683265262,
    0.0017556258528952954, 0.000293714378044958, -0.0002901540805408417,
    5.164652974177416e-05, 2.238423915508223e-05, -1.1438048033346894e-05,
    -9.73559896736775e-07, 1.7419821586224816e-06, -5.7218230603224086e-08,
    -2.4857126248016745e-07, 2.3263508708859124e-08, 3.197926671666804e-08,
    -3.744210080962018e-09, -2.623107347133476e-09, 3.1114333809799254e-10,
)
# erfc(y) underflows from y = 27 on, so Q(x) is 0 from 27 sqrt(2) on.
_Q_ZERO = 27.0 * math.sqrt(2.0)


def _q_upper(v: np.ndarray) -> np.ndarray:
    """Q(v) = erfc(v / sqrt(2)) / 2 for 0 <= v < _Q_ZERO."""
    y = v * math.sqrt(0.5)
    t = y - _ERFC_SCALE
    t /= y + _ERFC_SCALE
    series = t * _ERFC_POLY[-1]
    for c in _ERFC_POLY[-2:0:-1]:  # Horner: series = (series + c) t
        series += c
        series *= t
    series += _ERFC_POLY[0]
    # exp(-v^2 / 2) with v = h + (v - h), h = floor(16 v) / 16: h^2 is
    # exact, so rounding v^2 cannot cost the ~v^2 ulps it would
    h = np.floor(v * 16.0)
    h *= 1.0 / 16.0
    rest = v - h
    rest *= v + h
    rest *= -0.5
    series *= np.exp(rest, out=rest)
    np.multiply(h, h, out=h)
    h *= -0.5
    series *= np.exp(h, out=h)
    y *= 4.0
    y += 2.0
    series /= y  # erfc / 2 = exp(-y^2) S / (2 + 4y)
    return series


def q_function(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x) = erfc(x / sqrt(2)) / 2.

    Shape-preserving (a scalar gives a numpy scalar).  Q(x) = 1 - Q(-x) for
    x < 0, Q is exactly 0 from 27 sqrt(2) on, where erfc underflows, and
    NaN stays NaN.
    """
    x = np.asarray(x, dtype=float)
    v = np.abs(x).reshape(-1)
    out = np.zeros(x.shape)
    flat = out.reshape(-1)
    live = np.flatnonzero(v < _Q_ZERO)
    for lo in range(0, live.size, _CHUNK):  # a Horner pass per chunk of values
        idx = live[lo:lo + _CHUNK]
        flat[idx] = _q_upper(v[idx])
    np.subtract(1.0, out, out=out, where=x < 0.0)
    np.copyto(out, x, where=np.isnan(x))
    return out if out.ndim else out[()]


def qpsk_bit_error(snr):
    """Gray-mapped QPSK bit error rate on an AWGN channel of linear SNR."""
    return q_function(np.sqrt(np.asarray(snr, dtype=float)))


def qpsk_symbol_error(snr):
    """QPSK symbol error rate on an AWGN channel of linear SNR."""
    pb = qpsk_bit_error(snr)
    return pb * (2.0 - pb)


def mc_repetition_error(
    dims: ChannelDims, rho: float, cfg: McConfig, method: str = "conditional"
) -> McEstimate:
    """Symbol error rate of the one-symbol repetition scheme with MRC.

    One uncoded QPSK symbol is repeated across the mt transmit slots of a
    fresh channel and maximum-ratio combined, so the decision variable sees
    the unfaded SNR ``rho * sum(lambda)``.

    ``method="count"`` simulates the symbol decision through a drawn gain
    ``||H11||_F^2``, QPSK signs and the combined noise, CN(0, gain) given
    the channel, and counts the trials whose :func:`_decision_margins` are
    at most -sqrt(rho / 2); ``method="conditional"`` averages the exact
    conditional (given the spectrum) QPSK error instead, removing all
    noise-dimension variance.  For deep tails dominated by near-zero eigenvalues see
    :func:`repetition_error_tail`.
    """
    return _repetition_curve(dims, [rho], cfg, method)[0]


def _repetition_curve(dims: ChannelDims, rhos, cfg: McConfig, method: str) -> list[McEstimate]:
    """:func:`mc_repetition_error` at each of ``rhos``, from one gain or margin per trial."""
    for rho in rhos:
        require_nonnegative(rho=rho)
    if method == "conditional":
        gain = _trace_values(dims, cfg)
        return [_estimate(qpsk_symbol_error(rho * gain), cfg) for rho in rhos]
    if method != "count":
        raise ValueError("method must be 'conditional' or 'count'")

    tag = f"{dims.mt},{dims.mr},{dims.m}"
    kz = stream_key(cfg.master_seed, f"rep-count:noise:{tag}")
    ks = stream_key(cfg.master_seed, f"rep-count:sym:{tag}")
    w = _decision_margins(dims, cfg, kz, ks)
    return [_count_estimate(np.count_nonzero(w <= -math.sqrt(0.5 * rho)), cfg) for rho in rhos]


def _decision_margins(dims: ChannelDims, cfg: McConfig, kz, ks) -> np.ndarray:
    """w = min(s_re Re z, s_im Im z) / sqrt(g) per trial, -inf where the gain g is 0.

    With QPSK signs s (stream ks) and noise z ~ CN(0, 1) (stream kz), the
    decision sqrt(rho) g (s_re + i s_im) / sqrt(2) + sqrt(g) z has a sign
    other than s's just when w <= -sqrt(rho / 2), up to rounding there.
    """
    gain, w = _trace_values(dims, cfg), np.full(cfg.trials, -np.inf)

    def chunk(lo, hi):
        signs = np.where(uniforms(ks, lo, hi, 2) < 0.5, -1.0, 1.0)
        z, g = complex_normals(kz, lo, hi, 1)[:, 0], gain[lo:hi]
        np.divide(np.minimum(signs[:, 0] * z.real, signs[:, 1] * z.imag), np.sqrt(g), out=w[lo:hi], where=g > 0)

    _map_chunks(cfg, chunk)
    return w


def repetition_error_tail(dims: ChannelDims, rho: float) -> float:
    """Deterministic repetition-scheme error for single-eigenvalue spectra.

    Integrates the exact conditional QPSK symbol error against the spectral
    density of ``dims.interior`` (the k pinned eigenvalues add k to the
    gain), which stays accurate in tails far beyond Monte-Carlo reach.
    Requires that interior to have ``m_min == 1``.  Raises
    :class:`NumericalError` when the quadrature does not settle to a
    relative 1e-13.
    """
    return float(_tail_curve(dims, [rho])[0])


def _tail_curve(dims: ChannelDims, rhos) -> np.ndarray:
    """:func:`repetition_error_tail` at each of ``rhos``, from one quadrature pass."""
    for rho in rhos:
        require_nonnegative(rho=rho)
    shift, residual = float(dims.k), dims.interior
    rho = np.array(rhos, dtype=float)
    if residual is None:
        return qpsk_symbol_error(rho * shift)
    if residual.m_min != 1:
        raise ValueError(
            "tail evaluation requires an effective single-eigenvalue spectrum; "
            "use mc_repetition_error for wider channels"
        )

    # In lam the symbol error has a sqrt(lam) branch point at 0; in u =
    # sqrt(lam) the integrand is smooth and decays like exp(-rho u^2 / 2).
    # Ratio-2 panels in u from 1/sqrt(rho) are the ratio-4 panels in lam
    # from 1/rho that the capacity integral uses.
    def integrand(u, point):
        lam = u * u
        density = analytic._jacobi_density(residual, lam)
        return 2.0 * u * qpsk_symbol_error(rho[point] * (shift + lam)) * density

    degree = 2 * (residual.alpha + residual.beta) + 1
    edges = [1.0 / math.sqrt(r) if r > 0.0 else 1.0 for r in rhos]
    return analytic._graded_integrals(integrand, edges, degree, ratio=2.0)


def mc_alamouti_outage(m: int, rho: float, r: float, cfg: McConfig) -> McEstimate:
    """Outage of the 2x2 orthogonal space-time block scheme at rate r*log2(rho).

    The scheme's equivalent scalar channel has gain g = ||H11||_F^2, and
    log2(1 + rho g) < r log2(rho) just when g < (rho^r - 1) / rho, so the
    estimate is the fraction of draws whose gain is below that threshold.
    Where rho^r overflows the threshold is inf and every draw is in outage.
    """
    return _alamouti_curve(m, [rho], r, cfg)[0]


def _alamouti_curve(m: int, rhos, r: float, cfg: McConfig) -> list[McEstimate]:
    """:func:`mc_alamouti_outage` at each of ``rhos``, from one gain per trial."""
    dims = ChannelDims(2, 2, m)
    for rho in rhos:
        require_positive(rho=rho)
    require_nonnegative(r=r)
    gain = _trace_values(dims, cfg)
    with np.errstate(over="ignore"):
        thresholds = [np.expm1(r * np.log(rho)) / rho for rho in rhos]
    return [_count_estimate(np.count_nonzero(gain < threshold), cfg) for threshold in thresholds]


def estimate_diversity_slope(points) -> float:
    """Least-squares decay exponent of probability against SNR, in decades.

    ``points`` is a sequence of (rho_linear, probability) pairs, at least
    three, at two or more distinct rho, every rho and probability finite and
    positive; returns d >= 0 such that the best power-law fit is P ~ rho^-d.
    """
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("points must hold at least 3 (rho, probability) pairs")
    for i, (rho, p) in enumerate(pts):
        require_positive(**{f"points[{i}] rho": rho, f"points[{i}] probability": p})
    if len({rho for rho, _ in pts}) < 2:
        raise ValueError("points must span at least 2 distinct rho values")
    log_rho = np.log10([rho for rho, _ in pts])
    log_p = np.log10([p for _, p in pts])
    return float(-np.polyfit(log_rho, log_p, 1)[0])


def _sorted_sample(values: np.ndarray, name: str) -> np.ndarray:
    """The 1-D float array ``values``, sorted in place; ValueError naming it if empty or not all finite."""
    values.sort()
    if len(values) == 0 or not np.isfinite(values[0]) or not np.isfinite(values[-1]):
        raise ValueError(f"{name} must be a non-empty sample of finite values")
    return values


# sorted-sample points per KS segment, whose ends are evaluated first
_KS_STRIDE = 64


def _ks_terms(cdf, s: np.ndarray, idx: np.ndarray):
    """(F(s[idx]), the largest of F(s_i) - i/n and (i+1)/n - F(s_i) there); ValueError unless F is in [0, 1]."""
    values = np.asarray(cdf(s[idx]), dtype=float)
    if not np.all((values >= 0.0) & (values <= 1.0)):  # nan fails both
        raise ValueError("cdf must return finite values in [0, 1]")
    return values, max(np.max(values - idx / len(s)), np.max((idx + 1) / len(s) - values))


def ks_distance_to_cdf(sample: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a callable CDF F, which must not decrease.

    The largest of F(s_i) - i/n and (i+1)/n - F(s_i), bit for bit that of |F(s_i) - i/n|
    and |F(s_i) - (i+1)/n|, over the sorted sample s_0 <= ... <= s_{n-1}.  F is called on
    the knots i_j (every _KS_STRIDE-th index and the last), then once on the points of each
    segment that can still attain the maximum: for i_j < i < i_{j+1}, monotonicity bounds
    F(s_i) - i/n by F(s_{i_{j+1}}) - (i_j+1)/n and (i+1)/n - F(s_i) by i_{j+1}/n - F(s_{i_j}),
    and rounding is monotone, so the computed terms obey the computed bounds and the result
    is bit for bit that of evaluating F everywhere.  ValueError when F decreases from knot to
    knot or an evaluated value leaves [0, 1]; a skipped value lies between two checked ones.
    """
    s = np.asarray(sample, dtype=float).flatten(order="K")  # one copy, sorted in place
    return _sorted_ks(_sorted_sample(s, "sample"), cdf)


def _sorted_ks(s: np.ndarray, cdf) -> float:
    """:func:`ks_distance_to_cdf` of the sorted, finite, non-empty sample ``s``."""
    n = len(s)
    knots = np.append(np.arange(0, n - 1, _KS_STRIDE), n - 1)
    f, distance = _ks_terms(cdf, s, knots)
    if np.any(f[1:] < f[:-1]):
        raise ValueError("cdf must be non-decreasing")
    bound = np.maximum(f[1:] - (knots[:-1] + 1) / n, knots[1:] / n - f[:-1])
    # the exact bounds need no slack; 1e-12 of it only costs evaluations
    inner = (knots[:-1][bound >= distance - 1e-12, None] + np.arange(1, _KS_STRIDE)).ravel()
    inner = inner[inner < n - 1]  # the last segment may be short
    return float(max(distance, _ks_terms(cdf, s, inner)[1]) if inner.size else distance)


@dataclass(frozen=True)
class RayleighComparison:
    """One row of the large-m comparison against the i.i.d. Gaussian channel."""

    m: int
    rho_bar: float
    rho_per_mode: float
    capacity_jacobi: float
    capacity_rayleigh: float
    ks_scaled_vs_wishart: float
    frobenius_mean: float
    frobenius_expected: float


def _check_comparable(dims: ChannelDims, rho_bar: float) -> None:
    """ValueError unless m >= mt + mr (k = 0) and ``rho_bar > 0`` keeps both SNR products
    finite, which :func:`rayleigh_compare` needs: rho = rho_bar m / mt, and the baseline's
    rho_bar / mt times lam up to its cutoff L."""
    if dims.k:
        raise ValueError(f"the comparison needs m >= mt + mr, got mt={dims.mt}, mr={dims.mr}, m={dims.m}")
    require_positive(rho_bar=rho_bar)
    peak = rho_bar / dims.mt * analytic._laguerre_cutoff(dims.m_min, dims.alpha)
    if not (math.isfinite(rho_bar * dims.m / dims.mt) and math.isfinite(peak)):
        raise ValueError(f"rho_bar={rho_bar!r} overflows the SNR products of the {dims} comparison")


def rayleigh_compare(dims: ChannelDims, rho_bar: float, cfg: McConfig) -> RayleighComparison:
    """Compare the truncated-unitary channel against the Rayleigh baseline.

    ``rho_bar`` is the average SNR per receive mode, the common axis of the
    comparison.  For the truncated-unitary channel the per-mode SNR is
    ``rho = rho_bar * m / mt`` (exact, since E||H11||_F^2 = mt*mr/m by Haar
    symmetry); the baseline is an i.i.d. CN(0,1) channel driven at
    ``rho_bar / mt`` per antenna.  The row reports both exact capacities
    and the KS distance from the sampled m-scaled spectrum to the exact law
    of the min(mt, mr) nonzero Wishart eigenvalues it converges to, which
    needs ``m >= mt + mr`` (k = 0).
    """
    return _rayleigh_rows(dims, [rho_bar], cfg)[0]


def _rayleigh_rows(dims: ChannelDims, rho_bars, cfg: McConfig) -> list[RayleighComparison]:
    """:func:`rayleigh_compare` at each of ``rho_bars``, from one spectrum sample, KS distance and mean."""
    for rho_bar in rho_bars:
        _check_comparable(dims, rho_bar)
    n, alpha = dims.m_min, dims.alpha
    rhos = [rho_bar * dims.m / dims.mt for rho_bar in rho_bars]
    lam = sample_spectra(dims, cfg)
    frobenius = float(np.mean(np.sum(lam, axis=1)))
    # the spectra buffer itself, sorted and then scaled: x -> m x is monotone,
    # so this is bit for bit the sorted m-scaled sample, with no copy
    scaled = _sorted_sample(lam.T.reshape(-1), "sample")
    scaled *= dims.m
    ks = _sorted_ks(scaled, lambda x: analytic._laguerre_cdf(n, alpha, x))
    return [
        RayleighComparison(
            m=dims.m,
            rho_bar=rho_bar,
            rho_per_mode=rho,
            capacity_jacobi=capacity,
            capacity_rayleigh=analytic._laguerre_capacity(n, alpha, rho_bar / dims.mt),
            ks_scaled_vs_wishart=ks,
            frobenius_mean=frobenius,
            frobenius_expected=dims.mt * dims.mr / dims.m,
        )
        for rho_bar, rho, capacity in zip(rho_bars, rhos, analytic._capacity_curve(dims, rhos))
    ]
