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
drawn by one Gram-Schmidt pass over the whole stack
(:func:`.ensembles.phase_fixed_qr`, no LAPACK call per matrix) and
completed from an s x s problem each, s = m - mr: s pivoted Gram-Schmidt
steps on the rank-s residual ``I - H11^+ H11``, stack-last, then the
eigenvectors of the basis's s x s Gram, in closed form at s <= 2 (one
complex Jacobi rotation at s = 2) and by one stacked ``eigh`` from s = 3
on (:func:`complete_unitary`).  H11's Gram is formed once per frame and
also checks the combining identity.  No step runs per use: the completion
rows are orthogonal, so every use's conditional covariance is exactly I
and the pads follow in closed form,
and the relay recurrence and the backward peeling (use i depends on use
i - l only) are affine maps along each delay chain, solved by a prefix
scan in ceil(log2(n / l)) batched steps.  The combining identity also gives the receiver's noise in closed
form, covariance ``I - M^H D M`` per use from the peeling scan's prefix
products: no covariance is scanned.
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
    realized |x_j|^2.  ``stream_noise_max_cross_corr`` is 0.0 at k = 1.
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
    Returns the (m - mr) x mt completion of each block: the eigenvectors of
    ``I - H11^+ H11`` scaled by the square roots of their eigenvalues, its
    rows ordered by decreasing eigenvalue and each row's largest entry
    rotated to the positive real axis, so both ends of the link compute the
    identical matrix from H11 alone.  A single block is computed as a
    one-row stack.

    The residual R = I - H11^+ H11 has rank s = m - mr at most, so no mt x
    mt eigenproblem is solved.  s steps of pivoted Gram-Schmidt on R's
    columns, largest remaining diagonal first, give C (mt x s) with
    R = C C^+: column e is the leftover column at the pivot over the
    pivot's square root, and a pivot <= 0 gives a zero column.  What C
    leaves of R must vanish within ``UNIT_TOL`` entry by entry, or
    NumericalError is raised.  With U the eigenvectors of the s x s Gram
    C^+ C by decreasing eigenvalue, column e of C U is R's eigenvector for
    eigenvalue e scaled by its square root.  U is found in closed form at
    s <= 2: the identity at s <= 1, one complex Jacobi rotation at s = 2;
    only s >= 3 calls a stacked s x s ``eigh``.  Where an eigenvalue
    repeats (eigenvalue 1, when mt - mr >= 2) any basis of its eigenspace
    is valid, and the pivot order and the rotation fix this one.  Every
    step is one numpy call over the whole stack, laid out stack-last
    (:func:`_mul_last`, in :func:`_completion_last`): far cheaper than an
    mt x mt ``eigh`` per block on small blocks, but every step touches the
    whole mt x mt residual, so dearer from about 12 x 12 blocks on (see
    the README).  s = 0 gives empty rows by the same steps.
    """
    h11 = np.asarray(h11)
    if h11.ndim not in (2, 3) or h11.shape[-2:] != (dims.mr, dims.mt):
        raise ValueError("h11 shape does not match dims")
    if dims.k < 1:
        raise ValueError("a zero-padded completion needs mt + mr > m")
    if h11.ndim == 2:
        return complete_unitary(h11[None], dims)[0]
    return np.ascontiguousarray(_completion_last(h11, dims)[0].conj().transpose(2, 1, 0))


def _completion_last(h11: np.ndarray, dims: ChannelDims) -> tuple[np.ndarray, np.ndarray]:
    """H21^H of each block of an (n, mr, mt) stack, and the H11^H H11 it formed, both stack-last.

    Returns the (mt, s, n) conjugate transposes of :func:`complete_unitary`'s
    rows and the (mt, mt, n) Gram, so a caller checks the combining
    identity H11^H H11 + H21^H H21 = I without forming either again.
    """
    n, mt, s = len(h11), dims.mt, dims.m - dims.mr
    gram = _gram_last(_stack_last(h11))
    # the residual, then what the basis leaves of it: (mt, mt, n), stack axis last
    left = np.eye(mt)[:, :, None] - gram
    diag = np.diagonal(left, axis1=0, axis2=1).real  # (n, mt), a view that follows left
    basis = np.zeros((mt, s, n), dtype=left.dtype)
    at = np.arange(n)
    for e in range(s):
        j = np.argmax(diag, axis=1)
        pivot = diag[at, j]
        live = pivot > 0.0
        basis[:, e] = left[:, j, at] * np.where(live, 1.0 / np.sqrt(np.where(live, pivot, 1.0)), 0.0)
        left -= basis[:, None, e] * basis[None, :, e].conj()
    if np.any(diag < -UNIT_TOL):
        raise NumericalError("I - H11^+H11 has a significantly negative eigenvalue")
    if np.any(np.abs(left) > UNIT_TOL):
        raise NumericalError("residual rank exceeds the available completion rows")
    if s <= 1:
        rows = basis  # a 1 x 1 Gram's eigenvector is 1
    elif s == 2:
        rows = _rotate_pair(basis)
    else:
        # eigh sorts ascending: reverse for rows by decreasing eigenvalue
        u = np.linalg.eigh(np.moveaxis(_gram_last(basis), -1, 0))[1][:, :, ::-1]
        rows = _mul_last(basis, _stack_last(u))  # column e is C u_e: (mt, s, n)
    pivot = np.take_along_axis(rows, np.argmax(np.abs(rows), axis=0)[None], axis=0)
    size = np.abs(pivot)
    phase = np.where(size > 0.0, pivot.conj() / np.where(size > 0.0, size, 1.0), 1.0)
    return rows * phase, gram


def _rotate_pair(basis: np.ndarray) -> np.ndarray:
    """C U for a stack-last (mt, 2, n) basis C, U the eigenvectors of C^H C by decreasing eigenvalue.

    One complex Jacobi rotation diagonalises the Gram [[a, g], [g*, b]],
    a = |c_0|^2, b = |c_1|^2, g = c_0^H c_1: with w = g* / |g| the
    rotated columns cos c_0 - sin w c_1 and sin c_0 + cos w c_1 are
    orthogonal, of squared norms a - t|g| and b + t|g|, for Rutishauser's
    tangent t = sign(zeta) / (|zeta| + sqrt(1 + zeta^2)) with
    zeta = (b - a) / 2|g|, cos = 1 / sqrt(1 + t^2) and sin = t cos.  Here
    t is that form multiplied through by 2|g|, so |t| <= 1 with no
    division by |g|; g = 0 gives t = 0, no rotation.  The column with the
    larger norm comes first.
    """
    c0, c1 = basis[:, 0], basis[:, 1]
    a = np.sum(c0.real ** 2 + c0.imag ** 2, axis=0)
    b = np.sum(c1.real ** 2 + c1.imag ** 2, axis=0)
    g = np.sum(c0.conj() * c1, axis=0)
    size = np.abs(g)
    gap = b - a
    denominator = np.where(size > 0.0, np.abs(gap) + np.hypot(gap, 2.0 * size), 1.0)
    t = np.where(gap < 0.0, -2.0, 2.0) * size / denominator
    cos = 1.0 / np.sqrt(1.0 + t * t)
    sin = t * cos
    w = np.where(size > 0.0, g.conj() / np.where(size > 0.0, size, 1.0), 1.0)
    x0, y0 = cos, -sin * w  # the (c_0, c_1) coefficients of the column of squared norm a - t|g|
    x1, y1 = sin, cos * w  # and of b + t|g|
    swap = gap + 2.0 * t * size > 0.0  # the second is the larger
    rows = np.empty_like(basis)
    rows[:, 0] = np.where(swap, x1, x0) * c0 + np.where(swap, y1, y0) * c1
    rows[:, 1] = np.where(swap, x0, x1) * c0 + np.where(swap, y0, y1) * c1
    return rows


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


def _stack_last(a: np.ndarray) -> np.ndarray:
    """A contiguous copy of a stack of matrices with the stack axis moved last: (N, p, q) to (p, q, N)."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def _gram_last(a: np.ndarray) -> np.ndarray:
    """``a^H a`` over a stack of small matrices with the stack axis last: (p, q, N) to (q, q, N)."""
    return _mul_last(a.conj().swapaxes(0, 1), a)


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
    g = _stack_last(g)
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
    h21h, gram = _completion_last(h11, dims)
    h21 = np.ascontiguousarray(h21h.conj().transpose(2, 1, 0))
    # the combining identity H11^H H11 + H21^H H21 = I, stack axis last
    identity = gram + _mul_last(h21h, h21h.conj().swapaxes(0, 1))
    deviation = np.max(np.abs(identity - np.eye(mt)[:, :, None]), axis=(0, 1))
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
    # with identity maps.  u_i's noise covariance K_i = (H11_i^H H11_i)[k:, k:]
    # + G_i K_{i+l} G_i^H, and the combining identity gives (H11^H H11)[k:, k:]
    # + G G^H = I, so the deficit I - K is a pure congruence of the seeds' D =
    # diag(1 - 1/gain): I - K_{i+l} = P D P^H, P the scan's prefix product on
    # row i + l.  Use i's combined noise has covariance I - M^H D M, M = P^H H21_i.
    offset = np.zeros((n, s), dtype=complex)
    offset[:n - l] = sqrt_rho * pad[l:]
    h21h = h21.conj().swapaxes(1, 2)
    base = np.einsum("nji,nj->ni", h11.conj(), ys) - np.einsum("nij,nj->ni", h21h, offset)
    seed_meas = sqrt_rho * w_close + (combined_noise / gain).reshape(l, s)
    side, chain = _affine_scan(
        np.concatenate([np.broadcast_to(np.eye(s), (l, s, s)), h21h[::-1, k:]]),
        np.concatenate([seed_meas[::-1], base[::-1, k:]]),
        l,
    )
    side, chain = side[::-1][l:], chain[::-1][l:]  # row i: u_{i+l} and its P
    y_tilde = base[:, :k] + np.einsum("nij,nj->ni", h21h[:, :k], side)  # the k stream slots
    m_noise = np.einsum("nji,njk->nik", chain.conj(), h21)
    # row i + l is on the chain of closing measure (i - n) mod l
    deficit = (1.0 - 1.0 / gain).reshape(l, s)[(np.arange(n) - n) % l]

    # measurements
    cond_var_stream = 1.0 - np.sum(deficit[:, :, None] * np.abs(m_noise[:, :, :k]) ** 2, axis=1)
    weighted = (deficit[:, :, None] * m_noise).reshape(-1, mt)
    noise_cov_error = float(np.max(np.abs(weighted.conj().T @ m_noise.reshape(-1, mt)))) / n
    per_stream_snr = rho / np.mean(cond_var_stream, axis=0)

    stream_noise = y_tilde - sqrt_rho * xs[:, :k]
    c = (stream_noise.conj().T @ stream_noise) / n
    denom = np.sqrt(np.outer(np.diag(c).real, np.diag(c).real))
    corr = np.abs(c) / denom
    max_corr = float(np.max(corr - np.eye(k) * corr))

    sent = draws.symbols
    ber = None
    if cfg.modulation == "qpsk":
        bit_errs = np.sum(np.sign(y_tilde.real) != np.sign(sent.real))
        bit_errs += np.sum(np.sign(y_tilde.imag) != np.sign(sent.imag))
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
