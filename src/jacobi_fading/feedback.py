"""Zero-outage transmission over the channel using delayed state feedback.

When ``k = mt + mr - m > 0`` the channel block always contains an unfaded
k-dimensional subspace.  The scheme realizes it: each channel use carries k
new symbols plus a relay of the l-uses-old transmit vector projected through
the completion of the old block to an isometry.  After the frame, the l
outstanding projections are conveyed by a short repetition sub-scheme, and
the receiver peels backwards, combining each received vector with the
stacked isometry to recover ``sqrt(rho) * x + z`` with unit white noise,
i.e. k parallel single-mode channels of SNR exactly rho and zero outage for
any rate below ``k * log2(1 + rho)`` (up to the fixed closing overhead).

Relay slots are topped up to unit average power with a pseudo-random
dither known to both ends (the transmitter and receiver share the seed),
which the receiver subtracts.  The relay alone runs below the per-mode power
constraint's equality, since ``||H21 x|| <= ||x||``; with the dither every
mode transmits at unit conditional power, given the channel sequence.

The closing repetition windows hold their channel realization for the mt
slots of each conveyed scalar, so the combined gain ``rho * ||H11||_F^2``
is at least ``rho * k >= rho`` for every realization; the closing measures
are rescaled to amplitude ``sqrt(rho)`` and their (better than unit) noise
is passed through unnormalized.

A frame is one batched pass.  Every variate comes from the counter-based
core (:mod:`.philox`) in one call per role (channel, symbols, noise,
dither, closing-channel, closing-noise), keyed ``stream_key(seed,
"feedback:<role>")`` with the use or closing-window index as the trial
index, so use i's variates depend on its position only.  All channels are
drawn and completed in one stacked QR and one stacked ``eigh``.  No step
runs per use: the completion rows are orthogonal, so every use's
conditional covariance is exactly I and the pads follow in closed form,
and the relay recurrence and the backward peeling (use i depends on use
i - l only) are affine maps along each delay chain, solved by a prefix
scan in ceil(log2(n / l)) batched steps.  The combining identity also
gives the receiver's noise in closed form, covariance ``I - M^H D M`` per
use from the peeling scan's prefix products: no covariance is scanned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .ensembles import UNIT_TOL, ChannelDims, require_integers, require_positive
from .errors import NumericalError
from .philox import complex_normals, stream_key, uniforms
from .simulate import channel_blocks
from .specfun import log2_1p

__all__ = [
    "SchemeConfig",
    "SchemeReport",
    "FrameTrace",
    "complete_unitary",
    "run_feedback_scheme",
]

_COMBINE_TOL = 1e-10
# a pad variance below this is rounding residue on a unit-norm completion row
_PAD_SNAP = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class SchemeConfig:
    """Parameters of one scheme run.

    ``n_uses`` is the frame length in channel uses, ``delay`` the feedback
    delay l, ``rho`` the linear per-mode SNR.  ``modulation`` is "qpsk" or
    "gaussian".  With ``fresh_channel_each_use`` every use (and every
    closing window) sees an independent realization, the worst case for an
    outdated feedback; otherwise one realization holds for the whole frame.
    """

    dims: ChannelDims
    n_uses: int = 1000
    delay: int = 1
    rho: float = 10.0
    modulation: str = "qpsk"
    master_seed: int = 0
    fresh_channel_each_use: bool = True

    def __post_init__(self):
        if not isinstance(self.dims, ChannelDims):
            raise ValueError(f"dims must be a ChannelDims, got {self.dims!r}")
        if self.dims.k < 1:
            raise ValueError(f"the feedback scheme needs mt + mr > m (k >= 1), got {self.dims}")
        require_integers(n_uses=self.n_uses, delay=self.delay, master_seed=self.master_seed)
        if self.delay < 1:
            raise ValueError("delay must be >= 1")
        if self.n_uses <= self.delay:
            raise ValueError("n_uses must exceed the feedback delay")
        require_positive(rho=self.rho)
        if not isinstance(self.fresh_channel_each_use, (bool, np.bool_)):
            raise ValueError(
                f"fresh_channel_each_use must be a bool, got {self.fresh_channel_each_use!r}"
            )
        if self.modulation not in ("qpsk", "gaussian"):
            raise ValueError("modulation must be 'qpsk' or 'gaussian'")


@dataclass(frozen=True)
class FrameTrace:
    """Everything the run transmitted and saw, for audits."""

    channels: np.ndarray        # (n, mr, mt) realized blocks
    completions: np.ndarray     # (n, s, mt)
    transmitted: np.ndarray     # (n, mt) actual slot contents
    new_symbols: np.ndarray     # (n, k)
    relay_content: np.ndarray   # (n, s) completion-projected old signal
    dither: np.ndarray          # (n, s) known padding added on top
    cond_mode_power: np.ndarray  # (n, mt) E|x_j|^2 given the channel sequence


@dataclass(frozen=True)
class SchemeReport:
    """Measured outcome of a scheme run.

    The noise statistics integrate the Gaussian dimensions exactly (the
    combined-noise covariance of every use is an algebraic function of the
    realized channels), leaving only the channel-sequence dependence.
    ``per_mode_power`` averages the exact conditional (over symbols and
    dither, given channels) second moments of each transmit mode, which
    are 1 by construction: the pads top every relay slot up to unit
    variance and the completion rows are orthogonal, so each use's
    conditional covariance is I.  ``per_mode_power_empirical`` averages the
    realized |x_j|^2.
    """

    per_stream_snr: np.ndarray
    noise_cov_error: float
    achieved_rate: float
    ber: float | None
    overhead_uses: int
    per_mode_power: np.ndarray
    per_mode_power_empirical: np.ndarray
    mutual_information_per_use: float
    stream_noise_max_cross_corr: float
    min_closing_gain: float
    n_uses: int
    delay: int
    rho: float
    trace: FrameTrace = field(repr=False)


def complete_unitary(h11: np.ndarray, dims: ChannelDims) -> np.ndarray:
    """Complete the block's columns to an isometry: H21 with H21^+H21 = I - H11^+H11.

    ``h11`` is one mr x mt block or a stack of them with shape (n, mr, mt).
    Returns the (m - mr) x mt completion of each block, built from the
    eigendecomposition of ``I - H11^+ H11``, its rows ordered by decreasing
    eigenvalue and each eigenvector's largest entry rotated to the positive
    real axis, so both ends of the link compute the identical matrix from
    H11 alone.  A single block is computed as a one-row stack.
    """
    h11 = np.asarray(h11)
    if h11.ndim not in (2, 3) or h11.shape[-2:] != (dims.mr, dims.mt):
        raise ValueError("h11 shape does not match dims")
    if dims.k < 1:
        raise ValueError("a zero-padded completion needs mt + mr > m")
    if h11.ndim == 2:
        return complete_unitary(h11[None], dims)[0]
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


class _FrameDraws(NamedTuple):
    """Every random variate of one frame, row i belonging to use (or closing window) i."""

    channels: np.ndarray          # (n, mr, mt), or (1, mr, mt) for a held realization
    symbols: np.ndarray           # (n, k) new symbols
    noise: np.ndarray             # (n, mr)
    dither: np.ndarray            # (n, s) CN(0, 1), scaled by the pad deviation
    closing_channels: np.ndarray  # (l * s, mr, mt)
    closing_noise: np.ndarray     # (l * s, mt, mr)


def _draw_frame(cfg: SchemeConfig) -> _FrameDraws:
    """Draw a frame's variates from the counter-based core, one call per role.

    Each role reads its own stream ``stream_key(seed, "feedback:<role>")``
    with the use (or closing window) index as the trial index, so use i's
    variates depend on its position only.  Every use draws its k new
    symbols (2k uniforms for QPSK, one bit each).
    """
    dims, n = cfg.dims, cfg.n_uses
    k, s = dims.k, dims.m - dims.mr
    windows = cfg.delay * s

    def key(role: str) -> tuple[int, int]:
        return stream_key(cfg.master_seed, f"feedback:{role}")

    if cfg.fresh_channel_each_use:
        channels = channel_blocks(dims, key("channel"), 0, n)
        closing_channels = channel_blocks(dims, key("closing-channel"), 0, windows)
    else:
        channels = channel_blocks(dims, key("channel"), 0, 1)
        closing_channels = np.repeat(channels, windows, axis=0)
    if cfg.modulation == "qpsk":
        bits = uniforms(key("symbols"), 0, n, 2 * k) > 0.5
        symbols = ((2.0 * bits[:, 0::2] - 1.0) + 1j * (2.0 * bits[:, 1::2] - 1.0)) / math.sqrt(2.0)
    else:
        symbols = complex_normals(key("symbols"), 0, n, k)
    closing_noise = complex_normals(key("closing-noise"), 0, windows, dims.mt * dims.mr)
    return _FrameDraws(
        channels=channels,
        symbols=symbols,
        noise=complex_normals(key("noise"), 0, n, dims.mr),
        dither=complex_normals(key("dither"), 0, n, s),
        closing_channels=closing_channels,
        closing_noise=closing_noise.reshape(windows, dims.mt, dims.mr),
    )


def _hermitian(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _mul_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over stacks of small matrices with the stack axis last: (p, q, N) by (q, r, N).

    numpy's batched ``@`` pays a fixed cost per matrix that dominates at
    these sizes (inner dimension 1 to 4).  Here the product is an add loop
    over the inner dimension, each term one multiply over the whole stack,
    which is contiguous when the stack axis is last.
    """
    if a.shape[1] == 0:
        return np.zeros(a.shape[:1] + b.shape[1:], dtype=np.result_type(a, b))
    out = a[:, :1] * b[None, 0]
    for j in range(1, a.shape[1]):
        out += a[:, j:j + 1] * b[None, j]
    return out


def _stack_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over stacks of small matrices with the stack axis first, by :func:`_mul_last`."""
    return np.moveaxis(_mul_last(np.moveaxis(a, 0, -1), np.moveaxis(b, 0, -1)), -1, 0)


def _affine_scan(g, vec, l):
    """Solve x_r = g_r x_{r-l} + vec_r for every row r; return x and the maps' prefix products.

    ``g`` and ``vec`` stack an (s, s) map and an s-vector per row; rows
    r < l start from a zero state.  Recursive doubling (Blelloch 1990)
    composes each row's map with the one d rows back, for d = l, 2l, 4l, ...,
    so the recurrence takes ceil(log2(N / l)) batched steps, not N / l.
    Row r's prefix product is g_r g_{r-l} ... g_{r mod l}, the composed map
    of its delay chain.  The steps run on copies with the row axis last
    (:func:`_mul_last`).
    """
    n, d = len(vec), l
    g = np.ascontiguousarray(np.moveaxis(g, 0, -1))
    x = vec.T[:, None, :].copy()  # a C-ordered copy, updated in place
    while d < n:
        head = g[:, :, d:]
        x[:, :, d:] += _mul_last(head, x[:, :, :-d])
        g = np.concatenate([g[:, :, :d], _mul_last(head, g[:, :, :-d])], axis=2)
        d *= 2
    return x[:, 0, :].T, np.moveaxis(g, -1, 0)


def run_feedback_scheme(cfg: SchemeConfig) -> SchemeReport:
    """Run one frame of the scheme end to end and measure it.

    Transmits ``n_uses`` vectors, conveys the l outstanding side-information
    vectors through the repetition sub-scheme, peels backwards, and reports
    per-stream SNRs, combined-noise statistics, rate, power, and (for QPSK)
    the bit error rate.

    All variates are drawn first (:func:`_draw_frame`), and every stage is
    batched over the frame.  Every use's conditional covariance is I, so the
    pads are closed-form; the relay recurrence and the backward peeling link
    use i to use i - l only, and each is one prefix scan of affine maps
    (:func:`_affine_scan`).  Use i's combined noise has covariance
    ``I - M_i^H D M_i``, from the peeling scan's prefix products.
    """
    dims, n, l, rho = cfg.dims, cfg.n_uses, cfg.delay, cfg.rho
    mt, k = dims.mt, dims.k
    s = dims.m - dims.mr
    sqrt_rho = math.sqrt(rho)
    draws = _draw_frame(cfg)

    h11 = draws.channels
    h21 = complete_unitary(h11, dims)
    gram11 = _hermitian(h11) @ h11
    deviation = np.max(np.abs(gram11 + _hermitian(h21) @ h21 - np.eye(mt)), axis=(1, 2))
    if np.any(deviation > _COMBINE_TOL):
        bad = int(np.argmax(deviation > _COMBINE_TOL))
        raise NumericalError(f"completion at use {bad} fails the combining identity")
    if not cfg.fresh_channel_each_use:
        h11, h21 = (np.repeat(a, n, axis=0) for a in (h11, h21))

    # relay slot e of use i carries row e of use i - l's completion applied
    # to x_{i-l}, of conditional variance |row e|^2 (the rows are orthogonal
    # and x_{i-l} has covariance I); the pad tops it up to 1.  The first l
    # uses relay nothing and pad at unit variance.
    pad_var = np.ones((n, s))
    pad_var[l:] = 1.0 - np.sum(np.abs(h21[:-l]) ** 2, axis=2)
    if np.any(pad_var < -_COMBINE_TOL):
        raise NumericalError("a completion row has norm above 1: the pad variance is negative")
    # rows spanning the null space of H11 (mt > mr) have norm 1: their pad is exactly 0
    pad_var[pad_var < _PAD_SNAP] = 0.0
    pad = np.sqrt(pad_var) * draws.dither
    cond_power = np.ones((n, mt))  # the diagonal of every use's covariance, I

    # forward relay: v_i = R2 v_{i-l} + (R1 sym_{i-l} + pad_i), R = use i - l's
    # completion split at column k
    g = np.zeros((n, s, s), dtype=complex)
    g[l:] = h21[:-l, :, k:]
    vec = pad.copy()
    vec[l:] += np.einsum("nij,nj->ni", h21[:-l, :, :k], draws.symbols[:-l])
    xs = np.empty((n, mt), dtype=complex)
    xs[:, :k] = draws.symbols
    xs[:, k:] = _affine_scan(g, vec, l)[0]
    relay_content = xs[:, k:] - pad
    ys = np.einsum("nij,nj->ni", sqrt_rho * h11, xs) + draws.noise

    # closing: convey the l outstanding completion projections, one scalar
    # per repetition window of mt uses on a held realization; window
    # (j - n + l) * s + e carries entry e of use j's projection
    hc = draws.closing_channels
    gain = np.sum(np.abs(hc) ** 2, axis=(1, 2))
    if np.any(gain < k - UNIT_TOL):
        raise NumericalError("closing window gain fell below the pinned bound k")
    min_gain = float(np.min(gain)) if s else float("nan")  # s == 0: no closing needed
    combined_noise = np.einsum("wij,wji->w", hc.conj(), draws.closing_noise)
    w_close = np.einsum("nij,nj->ni", h21[n - l:], xs[n - l:])
    overhead = l * s * mt

    # backward peeling: use i combines with the side measure u_{i+l} of its
    # relay, read from slots k: of use i + l's combined output (its known pad
    # removed).  So u_i = base_i[k:] + G_i u_{i+l} with G_i = (H21_i^H)[k:]:
    # one scan backwards in time, seeded by the l closing measures as rows
    # with identity maps.  u_i's noise covariance K_i = gram11_i[k:, k:] +
    # G_i K_{i+l} G_i^H, and the combining identity gives gram11[k:, k:] +
    # G G^H = I, so the deficit I - K is a pure congruence of the seeds' D =
    # diag(1 - 1/gain): I - K_{i+l} = P D P^H, P the scan's prefix product on
    # row i + l.  Use i's combined noise has covariance I - M^H D M, M = P^H H21_i.
    offset = np.zeros((n, s), dtype=complex)
    offset[:n - l] = sqrt_rho * pad[l:]
    h21h = _hermitian(h21)
    base = np.einsum("nij,nj->ni", _hermitian(h11), ys) - np.einsum("nij,nj->ni", h21h, offset)
    seed_meas = sqrt_rho * w_close + (combined_noise / gain).reshape(l, s)
    side, chain = _affine_scan(
        np.concatenate([np.broadcast_to(np.eye(s), (l, s, s)), h21h[::-1, k:]]),
        np.concatenate([seed_meas[::-1], base[::-1, k:]]),
        l,
    )
    side, chain = side[::-1][l:], chain[::-1][l:]  # row i: u_{i+l} and its P
    y_tilde = base + np.einsum("nij,nj->ni", h21h, side)
    m_noise = _stack_mul(_hermitian(chain), h21)
    # row i + l is on the chain of closing measure (i - n) mod l
    deficit = (1.0 - 1.0 / gain).reshape(l, s)[(np.arange(n) - n) % l]

    # measurements
    cond_var_stream = 1.0 - np.sum(deficit[:, :, None] * np.abs(m_noise[:, :, :k]) ** 2, axis=1)
    weighted = (deficit[:, :, None] * m_noise).reshape(-1, mt)
    noise_cov_error = float(np.max(np.abs(weighted.conj().T @ m_noise.reshape(-1, mt)))) / n
    per_stream_snr = rho / np.mean(cond_var_stream, axis=0)

    if k >= 2:
        stream_noise = y_tilde[:, :k] - sqrt_rho * xs[:, :k]
        c = (stream_noise.conj().T @ stream_noise) / n
        denom = np.sqrt(np.outer(np.diag(c).real, np.diag(c).real))
        corr = np.abs(c) / denom
        max_corr = float(np.max(corr - np.eye(k) * corr))
    else:
        max_corr = 0.0

    sent = draws.symbols
    ber = None
    if cfg.modulation == "qpsk":
        meas = y_tilde[:, :k]
        bit_errs = np.sum(np.sign(meas.real) != np.sign(sent.real))
        bit_errs += np.sum(np.sign(meas.imag) != np.sign(sent.imag))
        ber = float(bit_errs / (2 * sent.size))

    per_use_rate = log2_1p(rho)
    achieved_rate = k * n * per_use_rate / (n + overhead)
    mi_streams = float(np.sum(np.log2(1.0 + rho / cond_var_stream)))
    mi_per_use = mi_streams / (n + overhead)

    trace = FrameTrace(
        channels=h11,
        completions=h21,
        transmitted=xs,
        new_symbols=sent,
        relay_content=relay_content,
        dither=pad,
        cond_mode_power=cond_power,
    )
    return SchemeReport(
        per_stream_snr=per_stream_snr,
        noise_cov_error=noise_cov_error,
        achieved_rate=achieved_rate,
        ber=ber,
        overhead_uses=overhead,
        per_mode_power=np.mean(cond_power, axis=0),
        per_mode_power_empirical=np.mean(np.abs(xs) ** 2, axis=0),
        mutual_information_per_use=mi_per_use,
        stream_noise_max_cross_corr=max_corr,
        min_closing_gain=min_gain,
        n_uses=n,
        delay=l,
        rho=rho,
        trace=trace,
    )
