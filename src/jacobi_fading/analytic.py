"""Closed-form channel quantities.

The single-eigenvalue marginal density of the channel spectrum; for the
ergodic capacity, the rate-reduction map and the optimal
diversity-multiplexing frontier, the ``k`` pinned modes' exact share plus
the law of ``ChannelDims.interior`` (the capacity integrates it on
SNR-graded Gauss-Legendre panels); single-input outage through the
incomplete beta function; and the exact i.i.d. Rayleigh baseline (private
helpers).  Both spectral densities, the channel's Jacobi one and the
baseline's Laguerre one, come from one orthonormal three-term recurrence.

All rates are in bits (log base 2) and all SNRs are linear; dB conversion
belongs to the CLI boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .ensembles import ChannelDims, require_nonnegative, require_reals
from .errors import NumericalError
from .specfun import inv_reg_inc_beta, log2_1p, reg_inc_beta

__all__ = [
    "DmtCurve",
    "eigen_density",
    "ergodic_capacity",
    "outage_single_mode",
    "rho_norm",
    "dmt_optimal_curve",
]

# The k = 0 capacity integrand is a polynomial of degree
# 2(m_min - 1) + alpha + beta times log(1 + rho*lam), whose branch point at
# -1/rho crowds [0, 1] as rho grows, so one Gauss rule on [0, 1] needs more
# nodes the higher the SNR.  _graded_integrals instead cuts [0, 1] into
# Gauss-Legendre panels [0, e], [e, 4e], [4e, 16e], ... with e = 1/rho:
# every panel then sits at a fixed relative distance from the branch point
# and converges at the same geometric rate whatever rho is (Trefethen,
# Approximation Theory and Approximation Practice, ch. 19).  A panel takes
# degree//2 + _PANEL_EXTRA_NODES nodes; the sum is repeated with
# _PANEL_CHECK_NODES more per panel, and a disagreement beyond _QUAD_RTOL
# raises NumericalError rather than returning an unconverged value.
_QUAD_RTOL = 1e-13
_PANEL_EXTRA_NODES = 16
_PANEL_CHECK_NODES = 8
# A grid of points is integrated in blocks of whole points of about this many
# panels, so the node arrays do not grow with the grid's length.
_BLOCK_PANELS = 1024


def _orthonormal_mean_square(lam, g, diag, off):
    """Mean over k < len(diag) of g_k^2, where g_k = q_k(lam) sqrt(w(lam)) for the q_k orthonormal
    under a weight w, from g_0 and off[k+1] g_{k+1} = (lam - diag[k]) g_k - off[k] g_{k-1}.

    This is the Christoffel-Darboux sum behind both spectral densities (Gautschi, Orthogonal
    Polynomials: Computation and Approximation, 2004); only squares are read, so the signs of
    the q_k do not matter, and no g_k can overflow where the density is finite.
    """
    g_prev, total = 0.0, g * g
    for k in range(len(diag) - 1):
        g, g_prev = ((lam - diag[k]) * g - off[k] * g_prev) / off[k + 1], g
        total += g * g
    return total / len(diag)


def _root_of(norm: int, what: str) -> float:
    """sqrt(norm) of an exact integer normaliser; NumericalError naming ``what`` past the float range."""
    try:
        return math.sqrt(norm)
    except OverflowError:
        raise NumericalError(f"the normaliser of {what} does not fit in a float") from None


@cache
def _jacobi_recurrence(dims: ChannelDims) -> tuple[list, list, float]:
    """(diag, off, sqrt(N)) of the polynomials orthonormal under lam^a (1-lam)^b on [0, 1].

    The monic Jacobi recurrence in x = 1 - 2*lam: diag_k = (1 - A_k)/2 and
    off_k = sqrt(k(k+a)(k+b)(k+a+b) / ((c-1)(c+1))) / c with c = 2k+a+b, A_0 = (b-a)/(a+b+2)
    and A_k = (b^2-a^2)/(c(c+2)); N = (a+b+1) C(a+b, a) = 1/B(a+1, b+1), exactly.
    """
    a, b = dims.alpha, dims.beta
    diag, off = [(1.0 - (b - a) / (a + b + 2)) / 2], [0.0]
    for k in range(1, dims.m_min):
        c = 2 * k + a + b
        diag.append((1.0 - (b * b - a * a) / (c * (c + 2))) / 2)
        off.append(math.sqrt(k * (k + a) * (k + b) * (k + a + b) / ((c - 1) * (c + 1))) / c)
    return diag, off, _root_of((a + b + 1) * math.comb(a + b, a), f"the {dims} spectrum")


def _jacobi_density(dims: ChannelDims, lam):
    """:func:`eigen_density` at ``lam``, unchecked."""
    diag, off, root_norm = _jacobi_recurrence(dims)
    g = lam ** (0.5 * dims.alpha) * (1.0 - lam) ** (0.5 * dims.beta) * root_norm
    return _orthonormal_mean_square(lam, g, diag, off)


def eigen_density(dims: ChannelDims, lam):
    """Marginal density of one unordered squared singular value.

    Only defined for ``mt + mr <= m`` (when ``k > 0`` the spectrum carries
    atoms at 1 and 0 and is handled through ``dims.interior``
    instead).  Normalized to integrate to 1 over [0, 1]; every point of
    ``lam`` must lie in that support.  It is the mean of g_k^2 over the
    m_min polynomials orthonormal under lam^alpha (1-lam)^beta, and
    :class:`NumericalError` is raised when their normaliser 1/B(alpha+1, beta+1)
    does not fit in a float.
    """
    if dims.k > 0:
        raise ValueError("eigen_density requires mt + mr <= m")
    lam_arr = np.asarray(lam, dtype=float)
    if not np.all((lam_arr >= 0.0) & (lam_arr <= 1.0)):
        raise ValueError("lam must lie in [0, 1]")
    out = _jacobi_density(dims, lam_arr)
    if np.ndim(lam) == 0:
        return float(out)
    return out


@cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (nodes, weights) of the n-point Gauss-Legendre rule on [0, 1].

    Golub-Welsch: the nodes on [-1, 1] are the eigenvalues of the Legendre
    Jacobi matrix (zero diagonal, off-diagonal j / sqrt(4j^2 - 1)) and the
    weights the squared first components of its eigenvectors, the measure's
    mass of 2 cancelling against the halving map onto [0, 1].
    """
    j = np.arange(1.0, n)
    x, vecs = np.linalg.eigh(np.diag(j / np.sqrt(4.0 * j * j - 1.0), 1), UPLO="U")
    nodes, weights = 0.5 * (1.0 + x), vecs[0] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _graded_integrals(f, edges, degree: int, ratio: float = 4.0, floor: float = 0.0) -> np.ndarray:
    """Integral of ``lam -> f(lam, j)`` over [0, 1] on geometrically graded Gauss-Legendre
    panels, at every grid point j.

    Point j's panel edges are 0, e, e*ratio, e*ratio^2, ... below 1, then 1, with
    e = ``edges[j]`` > 0 (a single panel when e >= 1) and ``ratio`` > 1.  This suits an
    integrand whose only non-polynomial feature has length scale e and sits at or next to
    0.  ``degree``, the degree of the integrand's polynomial factor, sets the nodes per
    panel, degree//2 + _PANEL_EXTRA_NODES.  :class:`NumericalError` is raised when a point's
    sum moves by more than ``_QUAD_RTOL * max(floor, |value|)`` on adding
    _PANEL_CHECK_NODES nodes to every panel, or is not finite.

    The grid runs in blocks of whole points, about _BLOCK_PANELS panels each.  A block's
    panels lie point after point in one array, and ``f`` is called on it once per rule with
    ``point``, the column of each panel's grid index (an integrand reads ``rho[point]``).
    Each point's value is the sum of its own rows: the terms and the order of a
    one-point call, so every value is bit for bit the point's value on its own.  The
    convergence check runs per point, and the first point in grid order that fails it is
    the one :class:`NumericalError` names.
    """
    for edge in edges:
        if not (edge > 0.0 and ratio > 1.0):
            raise ValueError(f"need edge > 0 and ratio > 1, got edge={edge}, ratio={ratio}")
    values, block, panels = np.empty(len(edges)), [], 0
    for point, edge in enumerate(edges):
        cuts = [0.0]
        while edge < 1.0:
            cuts.append(edge)
            edge *= ratio
        cuts.append(1.0)
        block.append(cuts)
        panels += len(cuts) - 1
        if panels >= _BLOCK_PANELS or point == len(edges) - 1:
            first = point + 1 - len(block)
            values[first:point + 1] = _graded_block(f, block, first, degree // 2 + _PANEL_EXTRA_NODES, floor)
            block, panels = [], 0
    return values


def _graded_block(f, block: list, first: int, n: int, floor: float) -> list:
    """The checked sums of grid points first, first + 1, ..., whose panel edges are ``block``."""
    counts = [len(cuts) - 1 for cuts in block]
    lo = np.array([a for cuts in block for a in cuts[:-1]])[:, None]
    width = np.array([b - a for cuts in block for a, b in zip(cuts, cuts[1:])])[:, None]
    point = np.repeat(np.arange(first, first + len(block)), counts)[:, None]
    rows = np.cumsum([0] + counts).tolist()

    def panel_sums(m: int) -> list:
        nodes, weights = _legendre_rule(m)
        terms = width * weights * f(lo + width * nodes, point)
        return [float(terms[a:b].sum()) for a, b in zip(rows, rows[1:])]

    coarse, values = panel_sums(n), panel_sums(n + _PANEL_CHECK_NODES)
    for count, c, value in zip(counts, coarse, values):
        if not abs(value - c) <= _QUAD_RTOL * max(floor, abs(value)):
            raise NumericalError(
                f"graded quadrature did not converge on {count} panels: "
                f"{n} and {n + _PANEL_CHECK_NODES} nodes per panel give {c!r} and {value!r}"
            )
    return values


def _capacity_curve(dims: ChannelDims, rhos) -> list[float]:
    """:func:`ergodic_capacity` at each of ``rhos``, the interior's integrals in one quadrature pass."""
    for rho in rhos:
        require_nonnegative(rho=rho)
    caps = [dims.k * log2_1p(rho) for rho in rhos]
    interior, live = dims.interior, [j for j, rho in enumerate(rhos) if rho > 0.0]
    if interior is None or not live:
        return caps
    rho = np.array([rhos[j] for j in live], dtype=float)

    def integrand(lam, point):
        return interior.m_min / math.log(2.0) * np.log1p(rho[point] * lam) * _jacobi_density(interior, lam)

    degree = 2 * (interior.m_min - 1) + interior.alpha + interior.beta
    integrals = _graded_integrals(integrand, [1.0 / rhos[j] for j in live], degree, floor=1.0)
    for j, integral in zip(live, integrals.tolist()):
        caps[j] += integral
    return caps


def ergodic_capacity(dims: ChannelDims, rho: float) -> float:
    """Ergodic capacity in bits per channel use at per-mode SNR ``rho``.

    ``k`` single-mode capacities pinned at ``log2(1 + rho)``, plus the
    spectral integral of ``dims.interior`` (none when mt or mr is m) on
    SNR-graded Gauss-Legendre panels (see :func:`_graded_integrals`), which
    raises :class:`NumericalError` when more nodes move it by over 1e-13
    relative, or by over 1e-13 bits where it is below 1 bit.
    """
    return _capacity_curve(dims, [rho])[0]


# The i.i.d. Rayleigh channel, the m -> infinity limit of the m-scaled spectrum:
# each of the n = min(mt, mr) nonzero eigenvalues of G^+ G, G with i.i.d. CN(0, 1)
# entries, has density (1/n) sum_{k<n} k!/(k+alpha)! L_k^alpha(lam)^2 lam^alpha e^-lam,
# alpha = |mt - mr| (Telatar, Eur. Trans. Telecommun. 10, 1999), cut at _laguerre_cutoff.
_LAGUERRE_GRID_PER_N = 256  # CDF grid steps per unit of lam, per eigenvalue


def _laguerre_cutoff(n: int, alpha: int) -> float:
    """Twice the Marchenko-Pastur upper edge (sqrt(n) + sqrt(n + alpha))^2, plus 40."""
    return 2.0 * (math.sqrt(n) + math.sqrt(n + alpha)) ** 2 + 40.0


def _laguerre_density(n: int, alpha: int, lam: np.ndarray) -> np.ndarray:
    """Density above at ``lam >= 0``, from the orthonormal L_k^alpha under lam^alpha e^-lam."""
    g = lam ** (0.5 * alpha) * np.exp(-0.5 * lam) / _root_of(math.factorial(alpha), f"lam^{alpha} e^-lam")
    diag = [2 * k + 1 + alpha for k in range(n)]
    return _orthonormal_mean_square(lam, g, diag, [math.sqrt(k * (k + alpha)) for k in range(n)])


def _laguerre_capacity(n: int, alpha: int, rho: float) -> float:
    """E log2 det(I + rho G^+ G) in bits, for ``rho > 0``, in t = lam / L on ratio-2 panels from
    min(1/rho, 1) / L.  The coarse/fine check cannot see the cut at L, so :class:`NumericalError`
    is also raised when the integrand at L exceeds 1e-17 of the value."""
    cutoff = _laguerre_cutoff(n, alpha)

    def integrand(t, point=None):
        lam = cutoff * t
        return n * cutoff / math.log(2.0) * np.log1p(rho * lam) * _laguerre_density(n, alpha, lam)

    edge, degree = min(1.0 / rho, 1.0) / cutoff, 2 * (n - 1) + alpha
    value = float(_graded_integrals(integrand, [edge], degree, ratio=2.0, floor=1.0)[0])
    if not integrand(np.array(1.0)) <= 1e-17 * value:
        raise NumericalError(f"Rayleigh capacity {value!r} is truncated at the cutoff {cutoff}")
    return value


def _laguerre_cells(n: int, alpha: int, lo: np.ndarray, width: float | np.ndarray) -> np.ndarray:
    """The density above integrated over [lo, lo + width] by 2-point Gauss-Legendre."""
    rule = zip(*_legendre_rule(2))
    return width * sum(w * _laguerre_density(n, alpha, lo + t * width) for t, w in rule)


@cache
def _laguerre_knots(n: int, alpha: int) -> np.ndarray:
    """Read-only CDF at the grid points 0, step, 2 step, ... up to L, step 1/(_LAGUERRE_GRID_PER_N * n),
    built once: the sequential cumulative sum of the cells' integrals."""
    step = 1.0 / (_LAGUERRE_GRID_PER_N * n)
    cells = _laguerre_cells(n, alpha, step * np.arange(int(_laguerre_cutoff(n, alpha) / step)), step)
    at_knots = np.add.accumulate(np.concatenate([[0.0], cells]))
    at_knots.setflags(write=False)
    return at_knots


def _laguerre_cdf(n: int, alpha: int, x: np.ndarray) -> np.ndarray:
    """P(lam <= x) under the density above, for a 1-D float array ``x >= 0``.

    The CDF at the grid point below each point (the last, L, for points past it), from
    :func:`_laguerre_knots`, plus the integral from there, both by 2-point
    Gauss-Legendre: no rule spans more than one step, so the error does not depend
    on the sample size.  (The closed form 1 - e^-x Q(x) cancels: 1.2e-9 at n = alpha = 8.)
    """
    step = 1.0 / (_LAGUERRE_GRID_PER_N * n)
    at_knots = _laguerre_knots(n, alpha)
    below = np.minimum(x / step, len(at_knots) - 1).astype(np.intp)
    return np.minimum(_laguerre_cells(n, alpha, step * below, x - step * below) + at_knots[below], 1.0)


def outage_single_mode(mr: int, m: int, rate_bits: float, rho: float) -> float:
    """Outage probability of a single-transmit-mode channel (mt = 1).

    Equals ``I_x(mr, m - mr)`` with ``x = (2^R - 1) / rho`` (and 1 whenever
    the threshold x reaches 1).  Needs ``m >= mr + 1`` (k = 0).
    """
    if ChannelDims(1, mr, m).k:
        raise ValueError(f"need m >= mr + 1, got mr={mr}, m={m}")
    require_nonnegative(rate_bits=rate_bits, rho=rho)
    if rate_bits == 0.0:
        return 0.0
    if rho == 0.0:
        return 1.0
    x = math.expm1(rate_bits * math.log(2.0)) / rho
    if x >= 1.0:
        return 1.0
    return reg_inc_beta(x, mr, m - mr)


def rho_norm(mr: int, m: int, epsilon: float) -> float:
    """Smallest ``rho / (2^R - 1)`` supporting outage <= epsilon (mt = 1).

    Linear scale.  For the lossless case ``mr = m`` (k = 1) the answer is exactly 1
    (0 dB): the minimal power is the unfaded single-mode requirement.  Raises
    :class:`NumericalError` where the answer overflows a float.
    """
    require_reals(epsilon=epsilon)
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if ChannelDims(1, mr, m).k:
        return 1.0
    value = 1.0 / inv_reg_inc_beta(epsilon, mr, m - mr)
    if value == math.inf:
        raise NumericalError(f"rho_norm(mr={mr}, m={m}, epsilon={epsilon!r}) is beyond the float range")
    return value


@dataclass(frozen=True)
class DmtCurve:
    """Piecewise-linear optimal diversity-multiplexing frontier.

    ``vertices`` are (multiplexing gain r, diversity gain d) corners with r
    ascending and d reaching 0 at the last vertex; diversity is infinite for
    ``r < infinite_below`` (0 when no such region exists).
    """

    vertices: tuple[tuple[float, float], ...]
    infinite_below: float = 0.0

    def diversity(self, r: float) -> float:
        """Evaluate d*(r); inf below the threshold, 0 beyond the last vertex."""
        require_nonnegative(r=r)
        if r < self.infinite_below:
            return math.inf
        rs = [v[0] for v in self.vertices]
        ds = [v[1] for v in self.vertices]
        if r >= rs[-1]:
            return 0.0
        return float(np.interp(r, rs, ds))


def dmt_optimal_curve(dims: ChannelDims) -> DmtCurve:
    """Optimal diversity-multiplexing curve of the channel.

    For ``mt + mr <= m`` it connects ``(j, (mt - j)(mr - j))`` for integer
    ``j  = 0 .. m_min`` and does not depend on m.  For ``k > 0`` diversity is
    unbounded below ``r = k`` and the finite branch is the curve of
    ``dims.interior``, the complementary channel, shifted right by k (the
    single vertex (k, 0) when mt or mr equals m).
    """
    k, core = dims.k, dims.interior
    corners = [(0, 0)] if core is None else [
        (j, (core.mt - j) * (core.mr - j)) for j in range(core.m_min + 1)
    ]
    return DmtCurve(
        vertices=tuple((float(k + j), float(d)) for j, d in corners), infinite_below=float(k)
    )
