"""Channel dimensions and exact spectral bookkeeping for the channel.

The channel transfer matrix is the upper-left ``m_r x m_t`` block of an
``m x m`` Haar-distributed unitary.  Its squared singular values live in
``[0, 1]`` and follow the Jacobi (MANOVA) ensemble law; when
``k = m_t + m_r - m > 0``, exactly ``k`` of them equal 1 for *every*
realization (an algebraic fact, not a statistical one), ``m_t - m_min``
equal 0, and the remaining ``m - m_max`` coincide with the nonzero
eigenvalues of the complementary block ``H22 H22^+``.

Spectra come from the bidiagonal model, channels from
:func:`jacobi_fading.simulate.channel_blocks`; this module holds the
dimensions, the phase-fixed QR and the endpoint rule they share, a batched
check of the pinned structure on full Haar unitaries, the argument
contract of every public entry point (``require_integers``,
``require_integer_list``, ``require_reals``, ``require_nonnegative``,
``require_positive``) and the one pinned-eigenvalue tolerance, ``UNIT_TOL``.
"""

from __future__ import annotations

import math
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

# An eigenvalue within this of 0 or 1 is snapped onto the endpoint: an
# eigensolve leaves the pinned ones a few rounding errors off it.  The
# feedback scheme reads it too: its residual-rank checks in
# ``complete_unitary`` and its closing-gain bound ``gain < k - UNIT_TOL``
# raise NumericalError past it, so changing it moves when a frame fails.
UNIT_TOL = 1e-9


def require_integers(**values) -> None:
    """Raise ValueError naming the first of ``values`` that is not an integer (or is a bool)."""
    for name, value in values.items():
        if type(value) is int:  # the common case, without the slow ABC check
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def require_reals(**values) -> None:
    """Raise ValueError naming the first of ``values`` that is not a real number (or is a bool)."""
    for name, value in values.items():
        if type(value) is float:  # the common case, without the slow ABC check
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")


def require_integer_list(name: str, values, item: str) -> list:
    """Iterable ``values`` as a non-empty list of integers; else ValueError naming ``name``."""
    try:
        out = list(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of integers, got {values!r}") from None
    if not out:
        raise ValueError(f"{name} must name at least one {item}")
    for value in out:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} entries must be integers, got {value!r}")
    return out


def require_nonnegative(**values) -> None:
    """:func:`require_reals`, then raise ValueError naming the first of ``values`` not finite and >= 0."""
    require_reals(**values)
    for name, value in values.items():
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and >= 0")


def require_positive(**values) -> None:
    """:func:`require_reals`, then raise ValueError naming the first of ``values`` not finite and > 0."""
    require_reals(**values)
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0")


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
        require_integers(mt=self.mt, mr=self.mr, m=self.m)
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

    @property
    def interior(self) -> "ChannelDims | None":
        """The k = 0 channel whose J(m_min; alpha, beta) law the unpinned eigenvalues follow.

        ``self`` when k = 0, otherwise :attr:`complement`: None when every
        eigenvalue is pinned (k > 0 and mt or mr equals m).
        """
        return self if self.k == 0 else self.complement

    def transposed(self) -> "ChannelDims":
        """Swap transmitter and receiver roles."""
        return ChannelDims(self.mr, self.mt, self.m)


@dataclass(frozen=True)
class PinnedSpectrumReport:
    """Check of the pinned-eigenvalue structure (k > 0), one entry per realization.

    Each field is an (n,) array.  ``residual_match_error`` is the largest
    absolute mismatch between the interior eigenvalues of ``H11^+ H11`` and
    the nonzero eigenvalues of ``H22 H22^+`` after sorting both, or 1.0
    where their counts differ.
    """

    n_unit_found: np.ndarray
    n_zero_found: np.ndarray
    residual_match_error: np.ndarray


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


def snap_endpoints(lams: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues to [0, 1] and snap those within ``UNIT_TOL`` of an endpoint onto it.

    Works elementwise on any shape.  Raises :class:`NumericalError` on a
    non-finite value, which clamping would otherwise pass on.
    """
    if not np.all(np.isfinite(lams)):
        raise NumericalError("eigensolver returned non-finite eigenvalues")
    lams = np.clip(lams, 0.0, 1.0)
    return np.where(lams >= 1.0 - UNIT_TOL, 1.0, np.where(lams <= UNIT_TOL, 0.0, lams))


def verify_pinned_spectrum(unitaries: np.ndarray, dims: ChannelDims) -> PinnedSpectrumReport:
    """Check the pinned-eigenvalue decomposition on a stack of full unitaries.

    ``unitaries`` has shape (n, m, m); realization i has H11 = u[i, :mr, :mt]
    and H22 = u[i, mr:, mt:].  Requires ``k = mt + mr - m > 0``.  The
    eigenvalues of ``H11^+ H11`` and ``H22 H22^+`` pass through
    :func:`snap_endpoints`; those of H11 at exactly 1 and 0 are counted,
    and its interior ones are matched against the nonzero ones of H22.
    """
    if dims.k <= 0:
        raise ValueError("verify_pinned_spectrum requires mt + mr > m")
    u = np.asarray(unitaries)
    if u.ndim != 3 or u.shape[1:] != (dims.m, dims.m):
        raise ValueError(f"unitaries must have shape (n, {dims.m}, {dims.m}), got {u.shape}")
    h11, h22 = u[:, : dims.mr, : dims.mt], u[:, dims.mr :, dims.mt :]
    lam11 = snap_endpoints(np.linalg.eigvalsh(h11.conj().swapaxes(1, 2) @ h11))
    lam22 = snap_endpoints(np.linalg.eigvalsh(h22 @ h22.conj().swapaxes(1, 2)))
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
    )
