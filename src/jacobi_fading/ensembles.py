"""Random-matrix samplers and exact spectral bookkeeping for the channel.

The channel transfer matrix is the upper-left ``m_r x m_t`` block of an
``m x m`` Haar-distributed unitary.  Its squared singular values live in
``[0, 1]`` and follow the Jacobi (MANOVA) ensemble law; when
``k = m_t + m_r - m > 0``, exactly ``k`` of them equal 1 for *every*
realization (an algebraic fact, not a statistical one), ``m_t - m_min``
equal 0, and the remaining ``m - m_max`` coincide with the nonzero
eigenvalues of the complementary block ``H22 H22^+``.

Samplers are pure functions of an explicit ``numpy.random.Generator``, so
identical (dims, seed) always reproduce identical realizations.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

__all__ = [
    "ChannelDims",
    "ChannelRealization",
    "SpectrumSample",
    "PinnedSpectrumReport",
    "sample_ginibre",
    "sample_haar_unitary",
    "phase_fixed_qr",
    "draw_channel",
    "squared_singular_values",
    "classify_spectrum",
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
class ChannelRealization:
    """One draw of the channel block, optionally with the remaining blocks.

    ``h11`` has shape (mr, mt).  When the full unitary is retained, the
    blocks tile it as ``[[h11, h12], [h21, h22]]``.
    """

    dims: ChannelDims
    h11: np.ndarray
    h12: np.ndarray | None = None
    h21: np.ndarray | None = None
    h22: np.ndarray | None = None

    @property
    def has_full(self) -> bool:
        return self.h22 is not None

    def full_matrix(self) -> np.ndarray:
        if not self.has_full:
            raise ValueError("realization was drawn without keep_full=True")
        return np.block([[self.h11, self.h12], [self.h21, self.h22]])


@dataclass(frozen=True)
class SpectrumSample:
    """Ordered squared singular values with endpoint classification.

    ``lambdas`` is ascending in [0, 1]; ``counts`` is the triple
    (n_unit, n_interior, n_zero) under the classification tolerance ``tol``.
    Values within ``tol`` of an endpoint are snapped onto it, so the counts
    and the stored values agree.
    """

    lambdas: np.ndarray
    counts: tuple[int, int, int]
    tol: float = DEFAULT_UNIT_TOL

    @property
    def n_unit(self) -> int:
        return self.counts[0]

    @property
    def n_interior(self) -> int:
        return self.counts[1]

    @property
    def n_zero(self) -> int:
        return self.counts[2]


@dataclass(frozen=True)
class PinnedSpectrumReport:
    """Per-realization check of the pinned-eigenvalue structure (k > 0).

    ``residual_match_error`` is the largest absolute mismatch between the
    interior eigenvalues of ``H11^+ H11`` and the nonzero eigenvalues of
    ``H22 H22^+`` after sorting both.
    """

    n_unit_found: int
    n_zero_found: int
    residual_match_error: float
    tol: float


def sample_ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Matrix of i.i.d. CN(0, 1) entries (real/imag parts of variance 1/2)."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return z / np.sqrt(2.0)


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


def sample_haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an m x m unitary from the Haar (uniform) measure."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return phase_fixed_qr(sample_ginibre(m, m, rng))


def draw_channel(
    dims: ChannelDims, rng: np.random.Generator, keep_full: bool = False
) -> ChannelRealization:
    """Draw a fresh channel: the top-left mr x mt block of a Haar unitary.

    With ``keep_full`` the other three blocks are retained, which is needed
    by :func:`verify_pinned_spectrum`.
    """
    u = sample_haar_unitary(dims.m, rng)
    h11 = u[: dims.mr, : dims.mt].copy()
    if not keep_full:
        return ChannelRealization(dims, h11)
    return ChannelRealization(
        dims,
        h11,
        h12=u[: dims.mr, dims.mt:].copy(),
        h21=u[dims.mr:, : dims.mt].copy(),
        h22=u[dims.mr:, dims.mt:].copy(),
    )


def snap_endpoints(lams: np.ndarray, tol: float) -> np.ndarray:
    """Clamp eigenvalues to [0, 1] and snap those within ``tol`` of an endpoint onto it.

    Works elementwise on any shape.  Raises :class:`NumericalError` on a
    non-finite value, which clamping would otherwise pass on.
    """
    if not np.all(np.isfinite(lams)):
        raise NumericalError("eigensolver returned non-finite eigenvalues")
    lams = np.clip(lams, 0.0, 1.0)
    return np.where(lams >= 1.0 - tol, 1.0, np.where(lams <= tol, 0.0, lams))


def classify_spectrum(lams: np.ndarray, tol: float = DEFAULT_UNIT_TOL) -> SpectrumSample:
    """Sort, clamp to [0, 1], snap values within ``tol`` of an endpoint, count."""
    if not (0.0 < tol <= 1e-3):
        raise ValueError("tol must lie in (0, 1e-3]")
    lams = np.sort(snap_endpoints(np.asarray(lams, dtype=float), tol))
    unit = lams == 1.0
    zero = lams == 0.0
    counts = (int(unit.sum()), int(len(lams) - unit.sum() - zero.sum()), int(zero.sum()))
    return SpectrumSample(lambdas=lams, counts=counts, tol=tol)


def gram_eigenvalues(h11: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the smaller Gram form of one block or a stack (unclamped)."""
    mr, mt = h11.shape[-2:]
    block = h11 if mt <= mr else h11.conj().swapaxes(-1, -2)
    return np.linalg.eigvalsh(np.einsum("...ij,...ik->...jk", block.conj(), block))


def squared_singular_values(
    real: ChannelRealization, tol: float = DEFAULT_UNIT_TOL
) -> SpectrumSample:
    """Ascending squared singular values of the channel block.

    Solves the Hermitian eigenproblem of ``H11^+ H11`` (or ``H11 H11^+``
    when mt > mr), clamps into [0, 1], and classifies against ``tol``.
    """
    return classify_spectrum(gram_eigenvalues(real.h11), tol)


def verify_pinned_spectrum(real: ChannelRealization, tol: float = DEFAULT_UNIT_TOL) -> PinnedSpectrumReport:
    """Check the pinned-eigenvalue decomposition on one full realization.

    Requires ``k = mt + mr - m > 0`` and the full four-block realization.
    Counts eigenvalues of ``H11^+ H11`` at 1 and 0, and matches the interior
    ones against the nonzero eigenvalues of ``H22 H22^+``.
    """
    dims = real.dims
    if dims.k <= 0:
        raise ValueError("verify_pinned_spectrum requires mt + mr > m")
    if not real.has_full:
        raise ValueError("verify_pinned_spectrum requires a keep_full realization")
    lam11 = np.sort(np.linalg.eigvalsh(real.h11.conj().T @ real.h11))
    unit = lam11 >= 1.0 - tol
    zero = lam11 <= tol
    interior11 = lam11[~unit & ~zero]

    h22 = real.h22
    lam22 = np.sort(np.linalg.eigvalsh(h22 @ h22.conj().T))
    interior22 = lam22[lam22 > tol]

    if len(interior11) != len(interior22):
        # conservative: count mismatch shows up as the worst possible error
        err = 1.0
    elif len(interior11) == 0:
        err = 0.0
    else:
        err = float(np.max(np.abs(np.sort(interior11) - np.sort(interior22))))
    return PinnedSpectrumReport(
        n_unit_found=int(unit.sum()),
        n_zero_found=int(zero.sum()),
        residual_match_error=err,
        tol=tol,
    )
