"""Channel dimensions and exact spectral bookkeeping for the channel.

The channel transfer matrix is the upper-left ``m_r x m_t`` block of an
``m x m`` Haar-distributed unitary.  Its squared singular values live in
``[0, 1]`` and follow the Jacobi (MANOVA) ensemble law; when
``k = m_t + m_r - m > 0``, exactly ``k`` of them equal 1 for *every*
realization (an algebraic fact, not a statistical one), ``m_t - m_min``
equal 0, and the remaining ``m - m_max`` coincide with the nonzero
eigenvalues of the complementary block ``H22 H22^+``.

Channels are drawn by :func:`jacobi_fading.simulate.channel_blocks` on the
counter-based core; this module holds the dimensions, the phase-fixed QR
and the endpoint rule shared by every sampler, and a batched check of the
pinned structure on full Haar unitaries.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "ChannelDims",
    "PinnedSpectrumReport",
    "phase_fixed_qr",
    "verify_pinned_spectrum",
]

DEFAULT_UNIT_TOL = 1e-9


def require_integers(obj, *names: str) -> None:
    """Raise ValueError unless each named attribute of obj is an integer (not a bool)."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ChannelDims:
    """Mode counts (m_t, m_r, m) of the truncated-unitary channel.

    Parameters
    ----------
    mt, mr : int
        Modes addressed by the transmitter / receiver, ``1 <= mt, mr <= m``.
    m : int
        Total propagation modes supported by the medium.
    """

    mt: int
    mr: int
    m: int

    def __post_init__(self):
        require_integers(self, "mt", "mr", "m")
        if not (1 <= self.mt <= self.m):
            raise ValueError(f"need 1 <= mt <= m, got mt={self.mt}, m={self.m}")
        if not (1 <= self.mr <= self.m):
            raise ValueError(f"need 1 <= mr <= m, got mr={self.mr}, m={self.m}")

    @property
    def k(self) -> int:
        """Number of singular values pinned at 1: max(mt + mr - m, 0)."""
        return max(self.mt + self.mr - self.m, 0)

    @property
    def m_min(self) -> int:
        return min(self.mt, self.mr)

    @property
    def m_max(self) -> int:
        return max(self.mt, self.mr)

    @property
    def alpha(self) -> int:
        """Weight exponent |mr - mt| of the spectral density."""
        return abs(self.mr - self.mt)

    @property
    def beta(self) -> int:
        """Weight exponent m - mt - mr (negative exactly when k > 0)."""
        return self.m - self.mt - self.mr

    @property
    def complement(self) -> "ChannelDims | None":
        """The complementary (m - mr, m - mt, m) channel, None when mt or mr equals m.

        When k > 0 the spectrum is k exact ones followed by this channel's
        spectrum; its (m_min, alpha, beta) are (m - m_max, alpha, k).
        """
        if self.m in (self.mt, self.mr):
            return None
        return ChannelDims(self.m - self.mr, self.m - self.mt, self.m)

    def transposed(self) -> "ChannelDims":
        """Swap transmitter and receiver roles."""
        return ChannelDims(self.mr, self.mt, self.m)


@dataclass(frozen=True)
class PinnedSpectrumReport:
    """Check of the pinned-eigenvalue structure (k > 0), one entry per realization.

    Each field but ``tol`` is an (n,) array.  ``residual_match_error`` is
    the largest absolute mismatch between the interior eigenvalues of
    ``H11^+ H11`` and the nonzero eigenvalues of ``H22 H22^+`` after
    sorting both, or 1.0 where their counts differ.
    """

    n_unit_found: np.ndarray
    n_zero_found: np.ndarray
    residual_match_error: np.ndarray
    tol: float


def phase_fixed_qr(a: np.ndarray) -> np.ndarray:
    """Reduced QR with the R-diagonal phase folded into Q.

    Plain QR of a Ginibre matrix is *not* Haar distributed; multiplying each
    column of Q by the phase of the matching R diagonal entry fixes the
    distribution (Mezzadri's correction).  Works on stacked inputs.
    """
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(d)
    if np.any(mag == 0.0):
        raise NumericalError("QR produced an exactly zero diagonal entry")
    return q * (d / mag)[..., None, :]


def snap_endpoints(lams: np.ndarray, tol: float) -> np.ndarray:
    """Clamp eigenvalues to [0, 1] and snap those within ``tol`` of an endpoint onto it.

    Works elementwise on any shape.  Raises :class:`NumericalError` on a
    non-finite value, which clamping would otherwise pass on.
    """
    if not np.all(np.isfinite(lams)):
        raise NumericalError("eigensolver returned non-finite eigenvalues")
    lams = np.clip(lams, 0.0, 1.0)
    return np.where(lams >= 1.0 - tol, 1.0, np.where(lams <= tol, 0.0, lams))


def gram_eigenvalues(h11: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the smaller Gram form of one block or a stack (unclamped)."""
    mr, mt = h11.shape[-2:]
    block = h11 if mt <= mr else h11.conj().swapaxes(-1, -2)
    return np.linalg.eigvalsh(np.einsum("...ij,...ik->...jk", block.conj(), block))


def verify_pinned_spectrum(
    unitaries: np.ndarray, dims: ChannelDims, tol: float = DEFAULT_UNIT_TOL
) -> PinnedSpectrumReport:
    """Check the pinned-eigenvalue decomposition on a stack of full unitaries.

    ``unitaries`` has shape (n, m, m); realization i has H11 = u[i, :mr, :mt]
    and H22 = u[i, mr:, mt:].  Requires ``k = mt + mr - m > 0``.  The
    eigenvalues of ``H11^+ H11`` and ``H22 H22^+`` pass through
    :func:`snap_endpoints`; those of H11 at exactly 1 and 0 are counted,
    and its interior ones are matched against the nonzero ones of H22.
    """
    if dims.k <= 0:
        raise ValueError("verify_pinned_spectrum requires mt + mr > m")
    if not (0.0 < tol <= 1e-3):
        raise ValueError("tol must lie in (0, 1e-3]")
    u = np.asarray(unitaries)
    if u.ndim != 3 or u.shape[1:] != (dims.m, dims.m):
        raise ValueError(f"unitaries must have shape (n, {dims.m}, {dims.m}), got {u.shape}")
    h11, h22 = u[:, : dims.mr, : dims.mt], u[:, dims.mr :, dims.mt :]
    lam11 = snap_endpoints(np.linalg.eigvalsh(h11.conj().swapaxes(1, 2) @ h11), tol)
    lam22 = snap_endpoints(np.linalg.eigvalsh(h22 @ h22.conj().swapaxes(1, 2)), tol)
    unit, zero = lam11 == 1.0, lam11 == 0.0
    interior, nonzero = ~(unit | zero), lam22 != 0.0
    # each row's matched values first, padded with 2.0 (above every value), so pads cancel
    width = min(dims.mt, dims.m - dims.mr)
    a = np.sort(np.where(interior, lam11, 2.0), axis=1)[:, :width]
    b = np.sort(np.where(nonzero, lam22, 2.0), axis=1)[:, :width]
    err = np.max(np.abs(a - b), axis=1, initial=0.0)
    return PinnedSpectrumReport(
        n_unit_found=unit.sum(axis=1),
        n_zero_found=zero.sum(axis=1),
        # conservative: a count mismatch shows up as the worst possible error
        residual_match_error=np.where(interior.sum(axis=1) == nonzero.sum(axis=1), err, 1.0),
        tol=tol,
    )
