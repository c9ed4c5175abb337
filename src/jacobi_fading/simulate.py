"""Deterministic-seeded Monte-Carlo engine for the channel model.

Every channel shape owns one tag, ``bidiagonal:mt,mr,m``, and trial ``t``
of every spectral estimator and of :func:`sample_spectra` draws from the
counter-based stream keyed by ``(master_seed, tag, t)`` (see
:mod:`jacobi_fading.philox`); only the ``count`` repetition method's noise
and symbols have tags of their own.  Estimates are therefore a pure
function of (experiment parameters, trials, master_seed): worker count
only changes how chunks of trials are scheduled, never which variates a
trial sees, and chunk results are combined in a fixed order.

Because that stream depends on neither the estimator nor rho or r, all
estimators and points of a curve at the same (dims, trials, master_seed)
see the same channels (common random numbers).  Inside a
:func:`_shared_draws` block, which the CLI opens around each invocation,
the rho- and r-independent draws are made once and every point reduces
that one array (an outage curve's per-rho mutual information is computed
once too); outside it, every call draws afresh.

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
log2 det(I + rho B^T B) from the pivots of its tridiagonal LDL^T
factorisation, and the Alamouti and repetition errors read the trace of
B^T B.  Pinned eigenvalues (k > 0) add exactly k log2(1 + rho) and k.
Only outputs that are spectra (:func:`sample_spectra`, behind
:func:`rayleigh_compare` too) diagonalise B^T B.
The Rayleigh baseline is not sampled: it is closed-form (:mod:`.analytic`).
Channels are drawn by :func:`channel_blocks` alone, for the feedback
scheme and, as whole Haar unitaries, for
:func:`~jacobi_fading.ensembles.verify_pinned_spectrum`: the first
``m_min`` columns of a Haar unitary are a uniformly distributed isometry,
obtained by phase-fixed QR of an ``m x m_min`` Ginibre block.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from . import analytic
from .ensembles import (
    ChannelDims, phase_fixed_qr, require_integer_list, require_integers,
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

# Fixed chunk grid: results must not depend on worker count, so trials are
# always partitioned the same way and partial results combined in order.
_CHUNK = 8192

# Memo of sample sets, set only inside a _shared_draws block.  A context
# variable, not a module global, so nothing outlives the block.
_SHARED: ContextVar[dict | None] = ContextVar("jacobi_fading_shared_draws", default=None)


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


def _gather(cfg: McConfig, chunk_fn):
    """Evaluate chunk_fn(lo, hi) over the fixed chunk grid, threaded if asked.

    chunk_fn returns an array, or a tuple of arrays that are joined
    componentwise.
    """
    spans = [(lo, min(lo + _CHUNK, cfg.trials)) for lo in range(0, cfg.trials, _CHUNK)]
    if cfg.workers > 1 and len(spans) > 1:
        from concurrent.futures import ThreadPoolExecutor  # its import cost is paid only here

        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            parts = list(pool.map(lambda span: chunk_fn(*span), spans))
    else:
        parts = [chunk_fn(lo, hi) for lo, hi in spans]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p, axis=0) for p in zip(*parts))
    return np.concatenate(parts, axis=0)


def _estimate(values: np.ndarray, cfg: McConfig) -> McEstimate:
    mean = float(np.mean(values))
    if len(values) > 1 and float(np.max(values)) != float(np.min(values)):
        stderr = float(np.std(values, ddof=1) / math.sqrt(len(values)))
    else:
        stderr = 0.0  # degenerate sample (e.g. a fully unitary channel)
    return McEstimate(value=mean, stderr=stderr, trials=len(values), seed=cfg.master_seed)


@contextmanager
def _shared_draws():
    """Within this block, draw each sample set once and share it.

    A sample set is identified by everything that decides its values: the
    stream key(s), which hash seed, tag and dims, and the trial count.
    Worker count is left out since it never changes results.  Shared arrays
    are read-only, so no caller can alter another's.
    """
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _drawn(ident: tuple, draw):
    """draw(), or the result of an identical earlier draw in a shared block."""
    memo = _SHARED.get()
    if memo is None:
        return draw()
    if ident not in memo:
        arrays = draw()
        for a in arrays if isinstance(arrays, tuple) else (arrays,):
            a.flags.writeable = False
        memo[ident] = arrays
    return memo[ident]


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


def _beta_variates(p: np.ndarray, q: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Beta(p_j, q_j) variates x and 1 - x from uniforms, each of shape (trials, len(p)).

    For integers r = min(p, q) and s = max(p, q), the product of
    U_i^(1/(s+i)) over i < r is Beta(s, r): if X ~ Beta(a, b) and
    Y ~ Beta(a+b, c) are independent then XY ~ Beta(a, b+c) (Devroye,
    Non-Uniform Random Variate Generation, 1986, ch. IX), and U^(1/s) is
    Beta(s, 1).  Beta(p, q) is that product when p >= q and one minus it
    otherwise.  Variate j reads the next r_j columns of ``u``; with
    L = sum log(U_i)/(s+i), the pair is exp(L) and -expm1(L), so neither
    side loses accuracy to cancellation.
    """
    r, s = np.minimum(p, q), np.maximum(p, q)
    starts = np.cumsum(r) - r
    divisor = np.repeat(s - starts, r) + np.arange(r.sum())
    log_x = np.add.reduceat(np.log(u) / divisor, starts, axis=1)
    big, small = np.exp(log_x), -np.expm1(log_x)
    flip = p < q
    return np.where(flip, small, big), np.where(flip, big, small)


def _bidiagonal_chunk(dims: ChannelDims, key, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared entries of the bidiagonal model of ``dims.interior`` for trials [lo, hi).

    With (n, a, b) its (m_min, alpha, beta), returns d^2, shape (hi-lo, n),
    and e^2, shape (hi-lo, n-1): the squared diagonal and superdiagonal of
    an upper-bidiagonal B whose B^T B has the J(n; a, b) spectrum.  The k
    pinned eigenvalues are left to the caller; with no interior both arrays
    have no columns.  Trial t reads n^2 + n*min(a, b) uniforms, turned into
    Beta variates as products of uniform powers (:func:`_beta_variates`):
    c_j^2 ~ Beta(a+j, b+j) for j = n..1, then c'_j^2 ~ Beta(j, a+b+1+j) for
    j = n-1..1.  B has diagonal c_n, c_{n-1} s'_{n-1}, ..., c_1 s'_1 and
    superdiagonal -s_n c'_{n-1}, ..., -s_2 c'_1, with s^2 = 1 - c^2; the
    squares are products of the variates, so no square root is taken.  The
    estimators reduce log det and trace straight from these squares; only
    spectrum outputs go on to an eigensolve (:func:`_tridiagonal_spectra`).
    """
    core = dims.interior
    if core is None:
        return np.zeros((hi - lo, 0)), np.zeros((hi - lo, 0))
    n, a, b = core.m_min, core.alpha, core.beta
    j = np.arange(n, 0, -1)
    p = np.concatenate([a + j, j[1:]])
    q = np.concatenate([b + j, a + b + 1 + j[1:]])
    x, y = _beta_variates(p, q, uniforms(key, lo, hi, n * n + n * min(a, b)))
    x[:, 1:n] *= y[:, n:]  # d^2: c_n^2, then c_j^2 s'_j^2
    x[:, n:] *= y[:, : n - 1]  # e^2: c'_j^2 s_{j+1}^2
    return x[:, :n], x[:, n:]


def _channel_key(dims: ChannelDims, cfg: McConfig):
    """The one stream of the bidiagonal model for this channel shape and master seed."""
    return stream_key(cfg.master_seed, f"bidiagonal:{dims.mt},{dims.mr},{dims.m}")


def _model_squares(dims: ChannelDims, cfg: McConfig) -> tuple[np.ndarray, np.ndarray]:
    """(d^2, e^2) of :func:`_bidiagonal_chunk` for cfg.trials channels, drawn once per sample set."""
    key = _channel_key(dims, cfg)
    return _drawn(
        ("squares", key, dims, cfg.trials),
        lambda: _gather(cfg, lambda lo, hi: _bidiagonal_chunk(dims, key, lo, hi)),
    )


def _tridiagonal_spectra(d2: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of B^T B from B's squared diagonal and superdiagonal."""
    trials, n = d2.shape
    if n <= 1:
        return d2  # the variate itself
    if n == 2:
        p, r = d2[:, 0], e2[:, 0] + d2[:, 1]
        lam_max = 0.5 * (p + r) + np.hypot(0.5 * (p - r), np.sqrt(d2[:, 0] * e2[:, 0]))
        # det / lam_max keeps the small eigenvalue's relative accuracy
        return np.stack((d2[:, 0] * d2[:, 1] / lam_max, lam_max), axis=1)
    gram = np.zeros((trials, n, n))  # B^T B, symmetric tridiagonal
    i = np.arange(n)
    gram[:, i, i] = d2
    gram[:, i[1:], i[1:]] += e2
    gram[:, i[:-1], i[1:]] = gram[:, i[1:], i[:-1]] = np.sqrt(d2[:, :-1] * e2)
    return np.linalg.eigvalsh(gram)


def _log_det_values(dims: ChannelDims, rho: float, cfg: McConfig) -> np.ndarray:
    """log2 det(I + rho B^T B) per trial, plus k log2(1 + rho) for the pinned modes.

    The LDL^T pivots of the tridiagonal I + rho B^T B are p_1 = 1 + rho d_1^2
    and p_i = q_i + rho d_i^2 with q_i = 1 + rho e_{i-1}^2 q_{i-1} / p_{i-1}:
    every term is non-negative, so p_i >= 1 and nothing cancels.
    """
    d2, e2 = _model_squares(dims, cfg)
    bits = np.zeros(cfg.trials)
    q = 1.0
    for i in range(d2.shape[1]):
        if i:
            q = 1.0 + rho * e2[:, i - 1] * (q / p)
        p = q + rho * d2[:, i]
        bits += np.log2(p)
    bits += dims.k * log2_1p(rho)
    if not np.all(np.isfinite(bits)):
        raise NumericalError("log det of the bidiagonal model is not finite")
    return bits


def _trace_values(dims: ChannelDims, cfg: McConfig) -> np.ndarray:
    """trace(B^T B) + k = ||H11||_F^2 per trial."""
    d2, e2 = _model_squares(dims, cfg)
    gain = np.full(cfg.trials, float(dims.k))
    for column in (*d2.T, *e2.T):  # np.sum over a narrow axis 1 is ~10x slower
        gain += column
    if not np.all(np.isfinite(gain)):
        raise NumericalError("trace of the bidiagonal model is not finite")
    return gain


def sample_spectra(dims: ChannelDims, cfg: McConfig) -> np.ndarray:
    """Ascending squared singular values of cfg.trials channels, from the bidiagonal model.

    Shape (trials, m_min): the interior eigenvalues of :func:`_bidiagonal_chunk`
    on the estimators' stream, then k exact ones, clamped to [0, 1] and
    snapped by :func:`~jacobi_fading.ensembles.snap_endpoints`; drawn once
    per sample set.
    """
    key = _channel_key(dims, cfg)

    def chunk(lo, hi):
        interior = _tridiagonal_spectra(*_bidiagonal_chunk(dims, key, lo, hi))
        return snap_endpoints(np.concatenate([interior, np.ones((hi - lo, dims.k))], axis=1))

    return _drawn(("bidiagonal", key, dims, cfg.trials), lambda: _gather(cfg, chunk))


def mc_ergodic_capacity(dims: ChannelDims, rho: float, cfg: McConfig) -> McEstimate:
    """Empirical mean of log2 det(I + rho * H11^+ H11) over fresh draws (bits)."""
    require_nonnegative(rho=rho)
    return _estimate(_log_det_values(dims, rho, cfg), cfg)


def mc_outage(
    dims: ChannelDims,
    rho: float,
    cfg: McConfig,
    r: float | None = None,
    rate_bits: float | None = None,
) -> McEstimate:
    """Fraction of draws whose mutual information falls below the rate.

    The rate is either a multiplexing ratio ``r`` (so R = r * log2(1 + rho))
    or an absolute ``rate_bits``; exactly one must be given.
    """
    require_positive(rho=rho)
    if (r is None) == (rate_bits is None):
        raise ValueError("give exactly one of r or rate_bits")
    if r is not None:
        require_nonnegative(r=r)
        rate_bits = r * log2_1p(rho)
    else:
        require_nonnegative(rate_bits=rate_bits)
    # every rate of a curve at this rho compares against the same values
    mi = _drawn(
        ("mutual-information", cfg.master_seed, dims, cfg.trials, rho),
        lambda: _log_det_values(dims, rho, cfg),
    )
    return _estimate((mi < rate_bits).astype(float), cfg)


# For y >= 0, erfc(y) = exp(-y^2) S(t) / (1 + 2y), where S is smooth on
# [-1, 1] in t = (y - 3.75) / (y + 3.75) (Shepherd & Laframboise, Math.
# Comp. 36, 1981).  _ERFC_CHEB holds S's Chebyshev coefficients, the
# interpolant at 64 Chebyshev nodes computed with mpmath at 40 digits and
# cut after 24 terms; tests/test_simulate.py rebuilds them.
_ERFC_SCALE = 3.75
_ERFC_CHEB = (
    1.1775789345674017, -0.004590054580646478, -0.08424913336651792,
    0.05920993999819189, -0.026658668435305753, 0.009074997670705265,
    -0.002413163540417608, 0.0004907758365258086, -6.916973302501207e-05,
    4.13902798607301e-06, 7.74038306619849e-07, -2.1886401049234397e-07,
    1.076499946567091e-08, 4.521959811218287e-09, -7.754400208831351e-10,
    -6.318088340886684e-11, 2.86879501093067e-11, 1.9455868545777347e-13,
    -9.65469674843344e-13, 3.25254814814874e-14, 3.3478119482868056e-14,
    -1.864562880419313e-15, -1.2507950530688648e-15, 7.418235256624044e-17,
)
# erfc(y) underflows from y = 27 on, so Q(x) is 0 from 27 sqrt(2) on.
_Q_ZERO = 27.0 * math.sqrt(2.0)
# values per Clenshaw pass: the loop's buffers then stay in cache
_Q_BLOCK = 8192


def _q_upper(v: np.ndarray) -> np.ndarray:
    """Q(v) = erfc(v / sqrt(2)) / 2 for 0 <= v < _Q_ZERO."""
    y = v * math.sqrt(0.5)
    t = y - _ERFC_SCALE
    t /= y + _ERFC_SCALE
    twice_t = t + t
    b0 = np.empty_like(t)
    b1 = np.full_like(t, _ERFC_CHEB[-1])
    b2 = np.zeros_like(t)
    for c in _ERFC_CHEB[-2:0:-1]:  # Clenshaw: b0 = 2t b1 - b2 + c
        np.multiply(twice_t, b1, out=b0)
        b0 -= b2
        b0 += c
        b0, b1, b2 = b2, b0, b1
    series = np.multiply(t, b1, out=b0)
    series -= b2
    series += _ERFC_CHEB[0]
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
    for lo in range(0, live.size, _Q_BLOCK):
        idx = live[lo:lo + _Q_BLOCK]
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
    ``||H11||_F^2`` and the combined noise, which given the channel is
    CN(0, gain); ``method="conditional"`` averages the exact conditional
    (given the spectrum) QPSK error instead, removing all noise-dimension
    variance.  For deep tails dominated by near-zero eigenvalues see
    :func:`repetition_error_tail`.
    """
    require_nonnegative(rho=rho)
    if method == "conditional":
        return _estimate(qpsk_symbol_error(rho * _trace_values(dims, cfg)), cfg)
    if method != "count":
        raise ValueError("method must be 'conditional' or 'count'")

    tag = f"{dims.mt},{dims.mr},{dims.m}"
    gain = _trace_values(dims, cfg)
    kz = stream_key(cfg.master_seed, f"rep-count:noise:{tag}")
    ks = stream_key(cfg.master_seed, f"rep-count:sym:{tag}")

    def chunk(lo, hi):
        signs = np.where(uniforms(ks, lo, hi, 2) < 0.5, -1.0, 1.0)
        return complex_normals(kz, lo, hi, 1)[:, 0], signs[:, 0], signs[:, 1]

    noise, re_sign, im_sign = _drawn(("count", kz, ks, cfg.trials), lambda: _gather(cfg, chunk))
    symbol = (re_sign + 1j * im_sign) / math.sqrt(2.0)
    decision = math.sqrt(rho) * gain * symbol + np.sqrt(gain) * noise
    err = (np.sign(decision.real) != re_sign) | (np.sign(decision.imag) != im_sign)
    return _estimate(err.astype(float), cfg)


def repetition_error_tail(dims: ChannelDims, rho: float) -> float:
    """Deterministic repetition-scheme error for single-eigenvalue spectra.

    Integrates the exact conditional QPSK symbol error against the spectral
    density of ``dims.interior`` (the k pinned eigenvalues add k to the
    gain), which stays accurate in tails far beyond Monte-Carlo reach.
    Requires that interior to have ``m_min == 1``.  Raises
    :class:`NumericalError` when the quadrature does not settle to a
    relative 1e-13.
    """
    require_nonnegative(rho=rho)
    shift = float(dims.k)
    residual = dims.interior
    if residual is None:
        return float(qpsk_symbol_error(rho * shift))
    if residual.m_min != 1:
        raise ValueError(
            "tail evaluation requires an effective single-eigenvalue spectrum; "
            "use mc_repetition_error for wider channels"
        )

    # In lam the symbol error has a sqrt(lam) branch point at 0; in u =
    # sqrt(lam) the integrand is smooth and decays like exp(-rho u^2 / 2).
    # Ratio-2 panels in u from 1/sqrt(rho) are the ratio-4 panels in lam
    # from 1/rho that the capacity integral uses.
    def integrand(u):
        lam = u * u
        density = analytic.eigen_density(residual, lam)
        return 2.0 * u * qpsk_symbol_error(rho * (shift + lam)) * density

    degree = 2 * (residual.alpha + residual.beta) + 1
    edge = 1.0 / math.sqrt(rho) if rho > 0.0 else 1.0
    return analytic.graded_integral(integrand, edge, degree, ratio=2.0)


def mc_alamouti_outage(m: int, rho: float, r: float, cfg: McConfig) -> McEstimate:
    """Outage of the 2x2 orthogonal space-time block scheme at rate r*log2(rho).

    The scheme's equivalent scalar channel has gain ||H11||_F^2, so outage
    is the probability that ``log2(1 + ||H11||_F^2 rho) < r log2(rho)``.
    """
    require_integers(m=m)
    if m < 2:
        raise ValueError("m must be >= 2 (the scheme addresses 2x2 modes)")
    require_positive(rho=rho)
    require_nonnegative(r=r)
    dims = ChannelDims(2, 2, m)
    threshold = r * math.log2(rho)
    gain = _trace_values(dims, cfg)  # ||H11||_F^2
    return _estimate((np.log2(1.0 + rho * gain) < threshold).astype(float), cfg)


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


def _sorted_sample(values, name: str) -> np.ndarray:
    """values flattened and sorted; ValueError naming it if empty or not all finite."""
    s = np.sort(np.asarray(values, dtype=float).ravel())
    if len(s) == 0 or not np.isfinite(s[0]) or not np.isfinite(s[-1]):
        raise ValueError(f"{name} must be a non-empty sample of finite values")
    return s


def ks_distance_to_cdf(sample: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a callable CDF."""
    s = _sorted_sample(sample, "sample")
    n = len(s)
    values = np.asarray(cdf(s), dtype=float)
    if not np.all((values >= 0.0) & (values <= 1.0)):  # nan fails both
        raise ValueError("cdf must return finite values in [0, 1]")
    steps = np.arange(n + 1) / n
    return float(max(np.max(np.abs(values - steps[:-1])), np.max(np.abs(values - steps[1:]))))


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


def rayleigh_compare(
    mt: int, mr: int, m_list, rho_bar: float, cfg: McConfig
) -> list[RayleighComparison]:
    """Compare the truncated-unitary channel against the Rayleigh baseline.

    ``rho_bar`` is the average SNR per receive mode, the common axis of the
    comparison.  For the truncated-unitary channel the per-mode SNR is
    ``rho = rho_bar * m / mt`` (exact, since E||H11||_F^2 = mt*mr/m by Haar
    symmetry); the baseline is an i.i.d. CN(0,1) channel driven at
    ``rho_bar / mt`` per antenna.  Each row reports both exact capacities
    and the KS distance from the sampled m-scaled spectrum to the exact law
    of the min(mt, mr) nonzero Wishart eigenvalues it converges to.
    """
    require_integers(mt=mt, mr=mr)
    if min(mt, mr) < 1:
        raise ValueError(f"need mt >= 1 and mr >= 1, got mt={mt}, mr={mr}")
    require_positive(rho_bar=rho_bar)
    m_list = require_integer_list("m_list", m_list, "m")
    for m in m_list:
        if m < mt + mr:
            raise ValueError(f"every m in m_list must satisfy m >= mt + mr, got m={m}")
    n, alpha = min(mt, mr), abs(mt - mr)
    cap_ray = analytic._laguerre_capacity(n, alpha, rho_bar / mt)
    rows = []
    for m in m_list:
        dims = ChannelDims(mt, mr, m)
        rho = rho_bar * m / mt
        lam = sample_spectra(dims, cfg)
        ks = ks_distance_to_cdf(m * lam, lambda x: analytic._laguerre_cdf(n, alpha, x))
        rows.append(
            RayleighComparison(
                m=m,
                rho_bar=rho_bar,
                rho_per_mode=rho,
                capacity_jacobi=analytic.ergodic_capacity(dims, rho),
                capacity_rayleigh=cap_ray,
                ks_scaled_vs_wishart=ks,
                frobenius_mean=float(np.mean(np.sum(lam, axis=1))),
                frobenius_expected=mt * mr / m,
            )
        )
    return rows
