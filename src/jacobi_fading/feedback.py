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

Two departures from the bare description are implemented and flagged:

* ``pad_relay_power`` (default on): relay slots are topped up to unit
  average power with a pseudo-random dither known to both ends (the
  transmitter and receiver share the seed), which the receiver subtracts.
  Without it the relay modes run below the per-mode power constraint's
  equality, since ``||H21 x|| <= ||x||``.
* ``reclaim_zero_rows`` (default off): structurally zero relay entries
  (zero rows of the completion, or the first l uses whose relay is all
  zeros) carry additional information symbols instead of dither; their side
  measures are never consumed by the combiner, so the peeling is unchanged.

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
drawn and completed in one stacked QR and one stacked ``eigh``; since use i
depends only on use i - l, the relay recurrence and the backward peeling
each step l uses at a time, and everything else is vectorized over the
frame.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .ensembles import ChannelDims, phase_fixed_qr
from .errors import NumericalError
from .philox import complex_normals, stream_key, uniforms

__all__ = [
    "SchemeConfig",
    "SchemeReport",
    "FrameTrace",
    "PowerCheck",
    "complete_unitary",
    "run_feedback_scheme",
    "power_check",
]

_COMBINE_TOL = 1e-10
_ZERO_ROW_TOL = 1e-12


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
    pad_relay_power: bool = True
    reclaim_zero_rows: bool = False

    def __post_init__(self):
        if self.dims.k < 1:
            raise ValueError("the scheme requires mt + mr > m")
        for name in ("n_uses", "delay"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.delay < 1:
            raise ValueError("delay must be >= 1")
        if self.n_uses <= self.delay:
            raise ValueError("n_uses must exceed the feedback delay")
        if not (math.isfinite(self.rho) and self.rho > 0.0):
            raise ValueError("rho must be finite and > 0")
        if self.modulation not in ("qpsk", "gaussian"):
            raise ValueError("modulation must be 'qpsk' or 'gaussian'")


@dataclass(frozen=True)
class FrameTrace:
    """Everything the run transmitted and saw, for audits and power checks."""

    channels: np.ndarray        # (n, mr, mt) realized blocks
    completions: np.ndarray     # (n, s, mt)
    transmitted: np.ndarray     # (n, mt) actual slot contents
    new_symbols: np.ndarray     # (n, k)
    relay_content: np.ndarray   # (n, s) completion-projected old signal
    dither: np.ndarray          # (n, s) known padding added on top
    extra_mask: np.ndarray      # (n, s) bool, slots reclaimed for new symbols
    cond_mode_power: np.ndarray  # (n, mt) E|x_j|^2 given the channel sequence


@dataclass(frozen=True)
class PowerCheck:
    """Per-mode transmit power over the main frame.

    ``per_mode_power`` averages the exact conditional (over symbols and
    dither, given channels) second moments, ``per_mode_power_empirical`` the
    realized |x_j|^2.
    """

    per_mode_power: np.ndarray
    per_mode_power_empirical: np.ndarray
    worst_mode_deviation: float


@dataclass(frozen=True)
class SchemeReport:
    """Measured outcome of a scheme run.

    Noise statistics come in two flavors: the ``*_empirical`` fields are raw
    sample moments of the realized combined noise, while the headline fields
    integrate the Gaussian dimensions exactly (the combined-noise covariance
    of every use is an algebraic function of the realized channels), leaving
    only the channel-sequence dependence.
    """

    per_stream_snr: np.ndarray
    noise_cov_error: float
    achieved_rate: float
    ber: float | None
    overhead_uses: int
    per_stream_snr_empirical: np.ndarray
    noise_cov_error_empirical: float
    per_mode_power: np.ndarray
    per_mode_power_empirical: np.ndarray
    mutual_information_per_use: float
    stream_noise_max_cross_corr: float
    min_closing_gain: float
    extra_streams: int
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
    if np.any(w[:, 0] < -1e-9):
        raise NumericalError("I - H11^+H11 has a significantly negative eigenvalue")
    w = np.clip(w, 0.0, None)
    if s == 0:
        if np.any(w[:, -1] > 1e-9):
            raise NumericalError("columns are not orthonormal but no completion rows remain")
        return np.zeros((len(h11), 0, mt), dtype=complex)
    # eigh sorts ascending and s = mt - k: the top s eigenvalues carry the whole residual
    if np.any(w[:, k - 1] > 1e-9):
        raise NumericalError("residual rank exceeds the available completion rows")
    top = v[:, :, ::-1][:, :, :s]  # one eigenvector column per completion row
    # a unit eigenvector's largest entry is at least 1/sqrt(mt) in modulus
    pivot = np.take_along_axis(top, np.argmax(np.abs(top), axis=1)[:, None, :], axis=1)
    phase = pivot.conj() / np.abs(pivot)
    return (np.sqrt(w[:, None, ::-1][:, :, :s]) * (top * phase).conj()).swapaxes(1, 2)


@dataclass(frozen=True)
class _FrameDraws:
    """Every random variate of one frame, row i belonging to use (or closing window) i."""

    channels: np.ndarray          # (n, mr, mt), or (1, mr, mt) for a held realization
    symbols: np.ndarray           # (n, k + s): k new symbols, then one reclaim symbol per slot
    noise: np.ndarray             # (n, mr)
    dither: np.ndarray            # (n, s) CN(0, 1), scaled by the pad deviation
    closing_channels: np.ndarray  # (l * s, mr, mt)
    closing_noise: np.ndarray     # (l * s, mt, mr)


def _isometry_tops(key: tuple[int, int], count: int, dims: ChannelDims) -> np.ndarray:
    """The top mr rows of ``count`` Haar m x mt isometries, one per trial index."""
    g = complex_normals(key, 0, count, dims.m * dims.mt).reshape(count, dims.m, dims.mt)
    return phase_fixed_qr(g)[:, :dims.mr, :]


def _draw_frame(cfg: SchemeConfig) -> _FrameDraws:
    """Draw a frame's variates from the counter-based core, one call per role.

    Each role reads its own stream ``stream_key(seed, "feedback:<role>")``
    with the use (or closing window) index as the trial index, so use i's
    variates depend on its position only.  Every use is allotted k + s
    symbols (2(k + s) uniforms for QPSK, one bit each), so relay slot e
    carries symbol k + e when it is reclaimed, and the symbol goes unused
    otherwise.
    """
    dims, n = cfg.dims, cfg.n_uses
    k, s = dims.k, dims.m - dims.mr
    windows = cfg.delay * s

    def key(role: str) -> tuple[int, int]:
        return stream_key(cfg.master_seed, f"feedback:{role}")

    if cfg.fresh_channel_each_use:
        channels = _isometry_tops(key("channel"), n, dims)
        closing_channels = _isometry_tops(key("closing-channel"), windows, dims)
    else:
        channels = _isometry_tops(key("channel"), 1, dims)
        closing_channels = np.repeat(channels, windows, axis=0)
    if cfg.modulation == "qpsk":
        bits = uniforms(key("symbols"), 0, n, 2 * (k + s)) > 0.5
        symbols = ((2.0 * bits[:, 0::2] - 1.0) + 1j * (2.0 * bits[:, 1::2] - 1.0)) / math.sqrt(2.0)
    else:
        symbols = complex_normals(key("symbols"), 0, n, k + s)
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


def run_feedback_scheme(cfg: SchemeConfig) -> SchemeReport:
    """Run one frame of the scheme end to end and measure it.

    Transmits ``n_uses`` vectors, conveys the l outstanding side-information
    vectors through the repetition sub-scheme, peels backwards, and reports
    per-stream SNRs, combined-noise statistics, rate, power, and (for QPSK)
    the bit error rate.

    All variates are drawn first (:func:`_draw_frame`).  Use i depends only
    on use i - l, so the forward relay recurrence and the backward peeling
    each step l uses at a time, and every other stage is one batched pass.
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
        h11, h21, gram11 = (np.repeat(a, n, axis=0) for a in (h11, h21, gram11))

    # relay of use i goes through the completion of use i - l; the first l
    # uses relay through a zero completion, i.e. relay nothing
    prev_h21 = np.zeros_like(h21)
    prev_h21[l:] = h21[:-l]
    if cfg.reclaim_zero_rows:
        extra_mask = np.linalg.norm(prev_h21, axis=2) < _ZERO_ROW_TOL
    else:
        extra_mask = np.zeros((n, s), dtype=bool)
    # A reclaimed slot relays nothing (its completion row is gated to zero)
    # and carries its new symbol as a unit-variance pad, which leaves it
    # uncorrelated with the other slots and at unit power.
    relay = prev_h21 * ~extra_mask[:, :, None]
    relay_h = _hermitian(relay)
    pad_gate = np.where(extra_mask | cfg.pad_relay_power, 1.0, 0.0)
    pad_fill = np.where(extra_mask, draws.symbols[:, k:], draws.dither)

    # forward recurrence: row l + i of xs and sig holds use i, rows < l the zero past
    xs = np.zeros((n + l, mt), dtype=complex)
    xs[l:, :k] = draws.symbols[:, :k]
    sig = np.zeros((n + l, mt, mt), dtype=complex)  # conditional covariances given channels
    sig[l:, :k, :k] = np.eye(k)
    pad = np.empty((n, s), dtype=complex)
    for b in range(0, n, l):
        e = min(b + l, n)
        c_rel = relay[b:e] @ sig[b:e] @ relay_h[b:e]
        c_diag = c_rel.reshape(e - b, s * s)[:, ::s + 1]  # a writable view of the diagonals
        pad_var = np.maximum(1.0 - c_diag.real, 0.0) * pad_gate[b:e]
        pad[b:e] = np.sqrt(pad_var) * pad_fill[b:e]
        c_diag += pad_var
        xs[b + l:e + l, k:] = (relay[b:e] @ xs[b:e, :, None])[:, :, 0] + pad[b:e]
        sig[b + l:e + l, k:, k:] = c_rel
    relay_content = (prev_h21 @ xs[:n, :, None])[:, :, 0]
    dither = np.where(extra_mask, 0.0, pad)
    xs, sig = xs[l:], sig[l:]
    cond_power = np.diagonal(sig, axis1=1, axis2=2).real.copy()
    ys = ((sqrt_rho * h11) @ xs[:, :, None])[:, :, 0] + draws.noise

    # closing: convey the l outstanding completion projections, one scalar
    # per repetition window of mt uses on a held realization; window
    # (j - n + l) * s + e carries entry e of use j's projection
    hc = draws.closing_channels
    gain = np.sum(np.abs(hc) ** 2, axis=(1, 2))
    if np.any(gain < k - 1e-9):
        raise NumericalError("closing window gain fell below the pinned bound k")
    min_gain = float(np.min(gain)) if s else float("nan")  # s == 0: no closing needed
    combined_noise = np.einsum("wij,wji->w", hc.conj(), draws.closing_noise)
    w_close = (h21[n - l:] @ xs[n - l:, :, None])[:, :, 0]
    overhead = l * s * mt

    # backward peeling: use i combines with the side measure of its relay,
    # read from slots k: of use i + l (its known dither removed, reclaimed
    # slots never combined).  Rows n.. of y_pad and cov_pad hold the closing
    # measures in those slots; row i < n holds use i's combined output.
    y_pad = np.zeros((n + l, mt), dtype=complex)
    cov_pad = np.zeros((n + l, mt, mt), dtype=complex)
    y_pad[n:, k:] = sqrt_rho * w_close + (combined_noise / gain).reshape(l, s)
    cov_pad[n:, k:, k:] = (1.0 / gain).reshape(l, s, 1) * np.eye(s)
    keep = np.ones((n, s))
    keep[:n - l] = ~extra_mask[l:]
    offset = np.zeros((n, s), dtype=complex)
    offset[:n - l] = sqrt_rho * dither[l:]
    h21h = _hermitian(h21)
    h21h_kept = h21h * keep[:, None, :]
    base = ((_hermitian(h11) @ ys[:, :, None]) - h21h_kept @ offset[:, :, None])[:, :, 0]
    for e in range(n, 0, -l):
        b = max(e - l, 0)
        y_pad[b:e] = base[b:e] + (h21h_kept[b:e] @ y_pad[b + l:e + l, k:, None])[:, :, 0]
        cov_pad[b:e] = gram11[b:e] + h21h[b:e] @ (cov_pad[b + l:e + l, k:, k:] @ h21[b:e])
    y_tilde, cov_z = y_pad[:n], cov_pad[:n]

    # measurements
    noise_all = y_tilde - sqrt_rho * xs
    cond_var_stream = np.diagonal(cov_z, axis1=1, axis2=2).real[:, :k]
    noise_cov_error = float(np.max(np.abs(np.sum(cov_z, axis=0) / n - np.eye(mt))))
    emp_cov = noise_all.conj().T @ noise_all / n
    noise_cov_error_emp = float(np.max(np.abs(emp_cov - np.eye(mt))))

    per_stream_snr = rho / np.mean(cond_var_stream, axis=0)
    emp_var = np.mean(np.abs(noise_all[:, :k]) ** 2, axis=0)
    per_stream_snr_emp = rho / emp_var

    if k >= 2:
        stream_noise = noise_all[:, :k]
        c = (stream_noise.conj().T @ stream_noise) / n
        denom = np.sqrt(np.outer(np.diag(c).real, np.diag(c).real))
        corr = np.abs(c) / denom
        max_corr = float(np.max(corr - np.eye(k) * corr))
    else:
        max_corr = 0.0

    new_syms = draws.symbols[:, :k]
    n_extra = int(np.count_nonzero(extra_mask))
    ber = None
    if cfg.modulation == "qpsk":
        sent = np.concatenate([new_syms.ravel(), draws.symbols[:, k:][extra_mask]])
        meas = np.concatenate([y_tilde[:, :k].ravel(), y_tilde[:, k:][extra_mask]])
        bit_errs = np.sum(np.sign(meas.real) != np.sign(sent.real))
        bit_errs += np.sum(np.sign(meas.imag) != np.sign(sent.imag))
        ber = float(bit_errs / (2 * len(sent)))

    per_use_rate = math.log2(1.0 + rho)
    achieved_rate = (k * n + n_extra) * per_use_rate / (n + overhead)
    mi_streams = float(np.sum(np.log2(1.0 + rho / cond_var_stream)))
    mi_per_use = mi_streams / (n + overhead)

    trace = FrameTrace(
        channels=h11,
        completions=h21,
        transmitted=xs,
        new_symbols=new_syms,
        relay_content=relay_content,
        dither=dither,
        extra_mask=extra_mask,
        cond_mode_power=cond_power,
    )
    return SchemeReport(
        per_stream_snr=per_stream_snr,
        noise_cov_error=noise_cov_error,
        achieved_rate=achieved_rate,
        ber=ber,
        overhead_uses=overhead,
        per_stream_snr_empirical=per_stream_snr_emp,
        noise_cov_error_empirical=noise_cov_error_emp,
        per_mode_power=np.mean(cond_power, axis=0),
        per_mode_power_empirical=np.mean(np.abs(xs) ** 2, axis=0),
        mutual_information_per_use=mi_per_use,
        stream_noise_max_cross_corr=max_corr,
        min_closing_gain=min_gain,
        extra_streams=n_extra,
        n_uses=n,
        delay=l,
        rho=rho,
        trace=trace,
    )


def power_check(trace: FrameTrace) -> PowerCheck:
    """Per-mode transmit power over the main frame, conditional and realized."""
    cond = np.mean(trace.cond_mode_power, axis=0)
    emp = np.mean(np.abs(trace.transmitted) ** 2, axis=0)
    return PowerCheck(
        per_mode_power=cond,
        per_mode_power_empirical=emp,
        worst_mode_deviation=float(np.max(np.abs(cond - 1.0))),
    )
