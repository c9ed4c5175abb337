"""Closed-form quantities against closed-form and quadrature oracles."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from jacobi_fading import analytic, simulate, specfun
from jacobi_fading.analytic import (
    dmt_optimal_curve,
    eigen_density,
    ergodic_capacity,
    outage_single_mode,
    rho_norm,
)
from jacobi_fading.ensembles import ChannelDims
from jacobi_fading.errors import NumericalError
from jacobi_fading.feedback import SchemeConfig
from jacobi_fading.simulate import (
    McConfig,
    mc_alamouti_outage,
    mc_ergodic_capacity,
    mc_outage,
    mc_repetition_error,
    rayleigh_compare,
    repetition_error_tail,
)


def test_density_trivial_dims():
    dims = ChannelDims(1, 1, 2)  # alpha = beta = 0, b_0 = 1, P_0 = 1
    for lam in (0.0, 0.25, 0.77, 1.0):
        assert eigen_density(dims, lam) == pytest.approx(1.0, abs=1e-14)


def test_density_beta_2_2_shape():
    dims = ChannelDims(1, 2, 4)
    lam = np.linspace(0, 1, 101)
    assert np.max(np.abs(eigen_density(dims, lam) - 6.0 * lam * (1.0 - lam))) < 1e-12
    assert eigen_density(dims, 0.5) == pytest.approx(1.5, abs=1e-13)


@pytest.mark.parametrize(
    "dims",
    [
        ChannelDims(1, 1, 2),
        ChannelDims(2, 2, 4),
        ChannelDims(2, 3, 6),
        ChannelDims(4, 4, 8),
        ChannelDims(3, 5, 9),
    ],
)
def test_density_normalization_and_sign(dims):
    # the density is a polynomial, so a wide Legendre rule integrates exactly
    nodes, weights = analytic._legendre_rule(64)
    vals = eigen_density(dims, nodes)
    assert np.all(vals >= 0.0)
    assert weights @ vals == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "dims, lam, name",
    [
        (ChannelDims(2, 2, 3), 0.5, "mt \\+ mr"),
        (ChannelDims(2, 2, 4), 1.5, "lam"),
        (ChannelDims(2, 2, 4), -0.5, "lam"),
        (ChannelDims(2, 2, 4), math.nan, "lam"),
        (ChannelDims(2, 2, 4), [0.5, 1.0 + 1e-12], "lam"),
    ],
    ids=["pinned", "above-support", "below-support", "nan", "array-above-support"],
)
def test_density_rejects_pinned_regime(dims, lam, name):
    with pytest.raises(ValueError, match=name):
        eigen_density(dims, lam)


def test_capacity_siso_closed_form():
    # integral of log2(1 + rho*lam) on [0,1] = ((1+rho)ln(1+rho) - rho)/(rho ln 2)
    rho = 10.0
    want = ((1 + rho) * math.log(1 + rho) - rho) / (rho * math.log(2))
    assert ergodic_capacity(ChannelDims(1, 1, 2), rho) == pytest.approx(want, abs=1e-10)
    assert want == pytest.approx(2.3626, abs=1e-4)


@pytest.mark.parametrize("rho_db", [60.0, 90.0, 120.0])
def test_capacity_siso_closed_form_high_snr(rho_db):
    rho = 10.0 ** (rho_db / 10)
    want = ((1 + rho) * math.log(1 + rho) - rho) / (rho * math.log(2))
    assert ergodic_capacity(ChannelDims(1, 1, 2), rho) == pytest.approx(want, rel=1e-13)


def test_capacity_pinned_high_snr_closed_form():
    # (2,2,3) = log2(1 + rho) + C(1,1,3); the (1,1,3) density is 2(1 - lam),
    # and with a = 1 + rho its integral against ln(1 + rho*lam) is
    # 2/rho^2 * (a^2 ln(a) / 2 - 3 a^2 / 4 + a - 1/4)
    rho = 1e12
    a = 1.0 + rho
    c113 = 2.0 / rho**2 * (0.5 * a * a * math.log(a) - 0.75 * a * a + a - 0.25) / math.log(2)
    want = math.log2(1 + rho) + c113
    assert ergodic_capacity(ChannelDims(2, 2, 3), rho) == pytest.approx(want, rel=1e-13)


def test_graded_quadrature_raises_when_unconverged(monkeypatch):
    # too few nodes per panel: the check sum disagrees and must raise, never
    # fall through with the unconverged value
    monkeypatch.setattr(analytic, "_PANEL_EXTRA_NODES", 1)
    with pytest.raises(NumericalError):
        ergodic_capacity(ChannelDims(1, 1, 2), 1e12)
    with pytest.raises(NumericalError):
        repetition_error_tail(ChannelDims(1, 2, 3), 1e4)
    monkeypatch.undo()
    with pytest.raises(NumericalError):
        analytic._graded_integrals(lambda x, point: np.full_like(x, np.nan), [0.5], 0)


def _graded_integral_loop(f, edge, degree, ratio, floor):
    """The one-point graded quadrature as a plain loop over panels, the reference for the curves."""
    edges = [0.0]
    while edge < 1.0:
        edges.append(edge)
        edge *= ratio
    edges.append(1.0)
    lo, width = np.asarray(edges[:-1])[:, None], np.diff(edges)[:, None]
    sums = []
    for n in (degree // 2 + analytic._PANEL_EXTRA_NODES,) * 2:
        nodes, weights = analytic._legendre_rule(n + analytic._PANEL_CHECK_NODES * len(sums))
        sums.append(float(np.sum(width * weights * f(lo + width * nodes))))
    assert abs(sums[1] - sums[0]) <= analytic._QUAD_RTOL * max(floor, abs(sums[1]))
    return sums[1]


@pytest.mark.parametrize("dims", [(1, 1, 2), (2, 2, 4), (4, 4, 8), (8, 8, 64), (2, 2, 3), (2, 3, 7)])
def test_capacity_curve_is_the_per_point_loop_bit_for_bit(monkeypatch, dims):
    # one pass over a grid, in one block or in many, against each point
    # integrated alone by the loop the grid form replaced
    dims, rhos = ChannelDims(*dims), [0.0] + [10.0 ** (db / 10.0) for db in range(-30, 121, 7)]
    core = dims.interior
    degree = 2 * (core.m_min - 1) + core.alpha + core.beta

    def alone(rho):
        if rho == 0.0:
            return 0.0
        f = lambda lam: core.m_min / math.log(2.0) * np.log1p(rho * lam) * analytic._jacobi_density(core, lam)
        return dims.k * specfun.log2_1p(rho) + _graded_integral_loop(f, 1.0 / rho, degree, 4.0, 1.0)

    want = [alone(rho) for rho in rhos]
    assert analytic.ergodic_capacity(dims, rhos) == want
    monkeypatch.setattr(analytic, "_BLOCK_PANELS", 5)
    assert analytic.ergodic_capacity(dims, rhos) == want
    assert [ergodic_capacity(dims, rho) for rho in rhos] == want


def test_tail_curve_is_the_per_point_loop_bit_for_bit(monkeypatch):
    dims, rhos = ChannelDims(1, 2, 3), [0.0] + [10.0 ** (db / 10.0) for db in range(0, 61, 4)]

    def alone(rho):
        def f(u):
            lam = u * u
            return 2.0 * u * simulate.qpsk_symbol_error(rho * lam) * eigen_density(dims, lam)

        degree = 2 * (dims.alpha + dims.beta) + 1
        return _graded_integral_loop(f, 1.0 / math.sqrt(rho) if rho > 0.0 else 1.0, degree, 2.0, 0.0)

    want = [alone(rho) for rho in rhos]
    assert repetition_error_tail(dims, rhos) == want
    monkeypatch.setattr(analytic, "_BLOCK_PANELS", 3)
    assert repetition_error_tail(dims, rhos) == want
    assert [repetition_error_tail(dims, rho) for rho in rhos] == want


def test_capacity_rejects_non_finite_snr():
    for rho in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError):
            ergodic_capacity(ChannelDims(1, 1, 2), rho)
        with pytest.raises(ValueError):
            repetition_error_tail(ChannelDims(1, 2, 3), rho)


def test_capacity_fully_unitary():
    for rho in (0.5, 10.0, 1234.0):
        assert ergodic_capacity(ChannelDims(4, 4, 4), rho) == pytest.approx(
            4 * math.log2(1 + rho), rel=1e-14
        )


def test_capacity_pinned_recursion():
    for rho in (1.0, 10.0, 100.0):
        lhs = ergodic_capacity(ChannelDims(2, 2, 3), rho)
        rhs = math.log2(1 + rho) + ergodic_capacity(ChannelDims(1, 1, 3), rho)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_capacity_transposition_symmetry():
    for rho in (1.0, 10.0, 100.0):
        assert ergodic_capacity(ChannelDims(3, 2, 6), rho) == pytest.approx(
            ergodic_capacity(ChannelDims(2, 3, 6), rho), abs=1e-10
        )


def test_capacity_monotone_and_zero_snr():
    dims = ChannelDims(2, 2, 5)
    caps = [ergodic_capacity(dims, rho) for rho in (0.0, 0.1, 1.0, 10.0, 100.0)]
    assert caps[0] == 0.0
    assert all(b > a for a, b in zip(caps, caps[1:]))


def test_capacity_low_snr_limit():
    # C -> rho * m_min * E[lam] / ln 2 with E[lam] = m_max / m, pinned modes (k > 0) included
    for dims in (ChannelDims(2, 3, 6), ChannelDims(1, 2, 4), ChannelDims(3, 3, 8), ChannelDims(2, 2, 3)):
        for rho in (1e-6, 1e-15):
            want = rho * dims.m_min * dims.m_max / dims.m / math.log(2)
            assert ergodic_capacity(dims, rho) == pytest.approx(want, rel=1e-3, abs=0.0)


@pytest.mark.parametrize(
    "dims,rho",
    [(ChannelDims(2, 2, 4), 10.0), (ChannelDims(2, 2, 32), 1600.0), (ChannelDims(3, 4, 9), 250.0)],
)
def test_capacity_matches_adaptive_quadrature(dims, rho):
    # independent integrator against the same density
    val, err = integrate.quad(
        lambda lam: math.log2(1 + rho * lam) * eigen_density(dims, lam), 0, 1, limit=400
    )
    assert ergodic_capacity(dims, rho) == pytest.approx(dims.m_min * val, abs=max(1e-10, 10 * err))


# Weights lam^alpha (1-lam)^beta of high degree, whose normaliser 1/B(alpha+1, beta+1)
# is near 1e100 or beyond: log-gamma norms lose about |lgamma| * eps there.
WIDE_WEIGHT_SHAPES = [(1, 100, 400), (3, 200, 900), (1, 300, 700)]


def _mp_density(dims):
    """The marginal density from mpmath's Jacobi polynomials and gamma-function norms."""
    n, a, b = dims.m_min, dims.alpha, dims.beta
    # squared norm of P_k^(a,b)(1 - 2 lam) under lam^a (1-lam)^b on [0, 1]
    norms = [
        mp.gamma(k + a + 1) * mp.gamma(k + b + 1) / ((2 * k + a + b + 1) * mp.gamma(k + a + b + 1) * mp.factorial(k))
        for k in range(n)
    ]

    def density(lam):
        series = mp.fsum(mp.jacobi(k, a, b, 1 - 2 * lam) ** 2 / norms[k] for k in range(n))
        return series * lam**a * (1 - lam) ** b / n

    return density


@pytest.mark.parametrize("shape", WIDE_WEIGHT_SHAPES)
def test_wide_weight_density_against_mpmath(shape):
    dims = ChannelDims(*shape)
    lam = np.arange(1, 21) / 32.0  # dyadic, so 1 - lam is exact too
    got = eigen_density(dims, lam)
    with mp.workdps(35):
        density = _mp_density(dims)
        want = [density(mp.mpf(x)) for x in lam]
        assert max(abs(g - w) / w for g, w in zip(got, want)) < 1e-14


@pytest.mark.parametrize("shape", WIDE_WEIGHT_SHAPES)
def test_wide_weight_capacity_against_mpmath(shape):
    dims, rho = ChannelDims(*shape), 100.0
    with mp.workdps(35):
        density = _mp_density(dims)
        want = dims.m_min * mp.quad(lambda lam: mp.log(1 + rho * lam, 2) * density(lam), mp.linspace(0, 1, 41))
        assert abs(ergodic_capacity(dims, rho) - want) <= 1e-13 * want


def test_density_normaliser_past_float_range_raises():
    dims = ChannelDims(1, 600, 1300)  # 1/B(600, 700) is about 1e389
    with pytest.raises(NumericalError, match="mr=600"):
        eigen_density(dims, 0.5)
    with pytest.raises(NumericalError, match="normaliser"):
        ergodic_capacity(dims, 100.0)


def test_orthonormal_recurrences_give_unit_norms():
    # n g_{n-1}^2 = n mean_n - (n-1) mean_{n-1}, each of which must integrate to 1
    nodes, weights = analytic._legendre_rule(40)
    for a, b in [(0, 0), (1, 2), (6, 6), (0, 9), (5, 0)]:
        means = [eigen_density(ChannelDims(n, n + a, 2 * n + a + b), nodes) for n in range(1, 9)]
        squares = [means[0]] + [(n + 1) * hi - n * lo for n, (lo, hi) in enumerate(zip(means, means[1:]), 1)]
        assert np.max(np.abs([weights @ g2 - 1.0 for g2 in squares])) < 1e-12


def test_densities_take_no_log_gamma(monkeypatch):
    def refuse(x):
        raise AssertionError("lgamma called")

    monkeypatch.setattr(math, "lgamma", refuse)
    monkeypatch.setattr(specfun, "lgamma", refuse)  # bound by name at import
    analytic._jacobi_recurrence.cache_clear()
    lam = np.linspace(0.0, 1.0, 9)
    assert np.all(eigen_density(ChannelDims(3, 5, 12), lam) >= 0.0)
    assert ergodic_capacity(ChannelDims(2, 4, 9), 10.0) > 0.0
    assert np.all(analytic._laguerre_density(3, 4, 10.0 * lam) >= 0.0)


def test_capacity_pinned_split_identity_everywhere():
    for m in range(2, 9):
        for mt in range(1, m + 1):
            for mr in range(1, m + 1):
                dims = ChannelDims(mt, mr, m)
                if dims.k == 0:
                    continue
                for rho in (1.0, 10.0, 100.0):
                    residual = 0.0
                    if m - mr >= 1 and m - mt >= 1:
                        residual = ergodic_capacity(ChannelDims(m - mr, m - mt, m), rho)
                    lhs = ergodic_capacity(dims, rho)
                    assert abs(lhs - dims.k * math.log2(1 + rho) - residual) < 1e-10


# (mt, mr) of the Rayleigh baseline checks: square, both orientations, wide alpha
RAYLEIGH_SHAPES = [(1, 1), (2, 2), (2, 1), (1, 4), (3, 5), (4, 4), (8, 8), (8, 16)]


def _wishart_density_coefficients(n, alpha):
    """Exact c_j with (1/n) sum_k k!/(k+alpha)! L_k^alpha(x)^2 x^alpha = sum_j c_j x^j."""
    coeffs = {}
    for k in range(n):
        poly = [Fraction((-1) ** i * math.comb(k + alpha, k - i), math.factorial(i)) for i in range(k + 1)]
        scale = Fraction(math.factorial(k), n * math.factorial(k + alpha))
        for i, a in enumerate(poly):
            for j, b in enumerate(poly):
                coeffs[i + j + alpha] = coeffs.get(i + j + alpha, 0) + scale * a * b
    return coeffs


def _mp_rayleigh_capacity(n, alpha, rho):
    """n E log2(1 + rho lam), term by term in closed form, at 150 digits.

    int_0^inf ln(1 + rho x) x^j e^-x dx = j! sum_{i<=j} J_i / i!, with
    J_i = int_0^inf x^i e^-x / (x + c) dx
        = (-c)^i e^c E_1(c) + sum_{r=1}^{i} (r-1)! (-c)^(i-r), c = 1/rho.
    """
    with mp.workdps(150):
        c = 1 / mp.mpf(rho)
        tail = mp.exp(c) * mp.e1(c)
        j_terms = []
        for i in range(2 * n + alpha):
            j_terms.append((-c) ** i * tail + mp.fsum(mp.factorial(r - 1) * (-c) ** (i - r) for r in range(1, i + 1)))
        total = mp.fsum(
            mp.mpf(cj.numerator) / cj.denominator * mp.factorial(j)
            * mp.fsum(j_terms[i] / mp.factorial(i) for i in range(j + 1))
            for j, cj in _wishart_density_coefficients(n, alpha).items()
        )
        return float(n * total / mp.log(2))


def _mp_rayleigh_cdf(n, alpha, points):
    """P(lam <= x) = 1 - e^-x sum_i d_i x^i with d_i = sum_{j>=i} c_j j!/i!, at 50 digits."""
    coeffs = _wishart_density_coefficients(n, alpha)
    d = [
        sum(cj * Fraction(math.factorial(j), math.factorial(i)) for j, cj in coeffs.items() if j >= i)
        for i in range(max(coeffs) + 1)
    ]
    with mp.workdps(50):
        d = [mp.mpf(di.numerator) / di.denominator for di in d]
        return np.array([
            float(1 - mp.exp(-x) * mp.polyval(d[::-1], x)) for x in map(mp.mpf, map(float, points))
        ])


@pytest.mark.parametrize("mt, mr", RAYLEIGH_SHAPES)
def test_rayleigh_capacity_against_mpmath(mt, mr):
    n, alpha = min(mt, mr), abs(mt - mr)
    for rho_db in range(-30, 121, 15):
        rho = 10.0 ** (rho_db / 10)
        want = _mp_rayleigh_capacity(n, alpha, rho)
        assert analytic._laguerre_capacity(n, alpha, rho) == pytest.approx(want, rel=1e-13), rho_db


@pytest.mark.parametrize("mt, mr", RAYLEIGH_SHAPES)
@pytest.mark.parametrize("trials", [10, 100_000])
def test_rayleigh_cdf_against_mpmath(mt, mr, trials):
    # eigenvalues of G^+ G for i.i.d. CN(0, 1) G of shape (mr, mt), drawn
    # 10^4 trials at a time; with 10 trials every gap is wide
    n, alpha = min(mt, mr), abs(mt - mr)
    rng = np.random.default_rng(10 * mt + mr)
    parts = []
    for lo in range(0, trials, 10_000):
        size = (min(10_000, trials - lo), mr, mt)
        g = (rng.normal(size=size) + 1j * rng.normal(size=size)) / math.sqrt(2.0)
        parts.append(np.linalg.eigvalsh(np.einsum("bij,bik->bjk", g.conj(), g))[:, -n:].ravel())
    x = np.sort(np.concatenate(parts))
    cdf = analytic._laguerre_cdf(n, alpha, x)
    assert np.all(np.diff(cdf) >= 0.0) and 0.0 <= cdf[0] and cdf[-1] <= 1.0
    picks = np.unique(np.concatenate([[0, len(x) - 1], rng.integers(0, len(x), 60)]))
    want = _mp_rayleigh_cdf(n, alpha, x[picks])
    assert np.max(np.abs(cdf[picks] - want)) < 1e-12


def _laguerre_cdf_rebuilt(n, alpha, x):
    """_laguerre_cdf with its knot grid built for this call alone, up to min(max(x), L)."""

    def integral(lo, width):
        rule = zip(*analytic._legendre_rule(2))
        return width * sum(w * analytic._laguerre_density(n, alpha, lo + t * width) for t, w in rule)

    step = 1.0 / (analytic._LAGUERRE_GRID_PER_N * n)
    cells = int(min(np.max(x), analytic._laguerre_cutoff(n, alpha)) / step)
    at_knots = np.cumsum(np.concatenate([[0.0], integral(step * np.arange(cells), step)]))
    below = np.minimum(x / step, cells).astype(np.intp)
    return np.minimum(integral(step * below, x - step * below) + at_knots[below], 1.0)


@pytest.mark.parametrize("n, alpha", [(2, 0), (3, 1)])
@pytest.mark.parametrize("largest_first", [False, True], ids=["small-first", "large-first"])
def test_laguerre_cdf_table_is_a_per_call_rebuild(n, alpha, largest_first):
    # the cached knot table, built once up to the cutoff, gives every point
    # the bits of a grid rebuilt for that call alone, in either call order;
    # past the cutoff too
    cutoff = analytic._laguerre_cutoff(n, alpha)
    rng = np.random.default_rng(n + alpha)
    calls = [np.sort(rng.uniform(0.0, top, 3_000)) for top in (0.5, 4.0, cutoff)]
    calls[-1] = np.append(calls[-1], [cutoff, cutoff + 7.25])
    analytic._laguerre_knots.cache_clear()
    for x in (calls[::-1] if largest_first else calls) + [calls[1]]:
        assert np.array_equal(analytic._laguerre_cdf(n, alpha, x), _laguerre_cdf_rebuilt(n, alpha, x))
    assert not analytic._laguerre_knots(n, alpha).flags.writeable


def test_rayleigh_capacity_raises_when_truncated(monkeypatch):
    # a cutoff inside the bulk leaves mass beyond it that the coarse/fine
    # check cannot see; the edge check must raise, not return the value
    monkeypatch.setattr(analytic, "_laguerre_cutoff", lambda n, alpha: 10.0)
    with pytest.raises(NumericalError, match="cutoff"):
        analytic._laguerre_capacity(2, 0, 50.0)


def test_outage_single_mode_examples():
    assert outage_single_mode(1, 2, 1.0, 10.0) == pytest.approx(0.1, rel=1e-12)
    assert outage_single_mode(2, 4, 1.0, 10.0) == pytest.approx(0.028, rel=1e-12)
    assert outage_single_mode(2, 4, 0.0, 10.0) == 0.0
    assert outage_single_mode(1, 2, 4.0, 10.0) == 1.0  # threshold x = 1.5 >= 1
    assert outage_single_mode(1, 2, 1.0, 0.0) == 1.0


def test_outage_single_mode_monotonicity():
    rates = np.linspace(0.1, 3.0, 12)
    vals = [outage_single_mode(2, 5, float(r), 10.0) for r in rates]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    rhos = np.linspace(1.0, 100.0, 12)
    vals = [outage_single_mode(2, 5, 1.0, float(rho)) for rho in rhos]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_outage_single_mode_validation():
    with pytest.raises(ValueError, match="need m >= mr \\+ 1"):
        outage_single_mode(2, 2, 1.0, 10.0)  # k = 1


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: dmt_optimal_curve(ChannelDims(1, 3, 5)).diversity(-math.inf), "r must be finite"),
        (lambda: dmt_optimal_curve(ChannelDims(3, 3, 4)).diversity(math.nan), "r must be finite"),
        (lambda: dmt_optimal_curve(ChannelDims(2, 2, 4)).diversity(math.nan), "r must be finite"),
        (lambda: dmt_optimal_curve(ChannelDims(2, 2, 3)).diversity(math.inf), "r must be finite"),
        (lambda: outage_single_mode(1, 2, 1.0, math.inf), "rho must be finite"),
        (lambda: outage_single_mode(1, 2, 1.0, math.nan), "rho must be finite"),
        (lambda: outage_single_mode(1, 2, 1.0, -1.0), "rho must be finite and >= 0"),
        (lambda: outage_single_mode(1, 2, math.nan, 10.0), "rate_bits must be finite"),
        (lambda: outage_single_mode(1, 2, math.inf, 10.0), "rate_bits must be finite"),
        (lambda: outage_single_mode(1, 2, -1.0, 10.0), "rate_bits must be finite and >= 0"),
        (lambda: outage_single_mode(1.5, 3, 1.0, 10.0), "mr must be an integer"),
        (lambda: outage_single_mode(True, 3, 1.0, 10.0), "mr must be an integer"),
        (lambda: outage_single_mode(1, 3.0, 1.0, 10.0), "m must be an integer"),
        (lambda: rho_norm(1.5, 3, 0.1), "mr must be an integer"),
        (lambda: rho_norm(True, 3, 0.1), "mr must be an integer"),
        (lambda: rho_norm(2, 4.0, 0.1), "m must be an integer"),
        (lambda: rho_norm(2, "4", 0.1), "m must be an integer"),
        (lambda: rho_norm(5, 4, 0.1), "need 1 <= mr <= m"),
        (lambda: outage_single_mode(0, 3, 1.0, 10.0), "need 1 <= mr <= m"),
        (lambda: analytic._graded_integrals(lambda lam, point: lam, [0.0], 2), "need edge > 0 and ratio > 1"),
        (lambda: analytic._graded_integrals(lambda lam, point: lam, [0.5], 2, ratio=1.0), "need edge > 0 and ratio > 1"),
        (lambda: specfun.reg_inc_beta(0.5, 0, 3), "a and b must be >= 1"),
    ],
)
def test_closed_forms_reject_non_finite_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


_CFG = McConfig(trials=10)
REAL_ARGUMENTS = [
    ("rho", lambda v: ergodic_capacity(ChannelDims(2, 2, 4), v)),
    ("rho", lambda v: outage_single_mode(1, 2, 1.0, v)),
    ("rate_bits", lambda v: outage_single_mode(1, 2, v, 10.0)),
    ("rho", lambda v: repetition_error_tail(ChannelDims(1, 2, 3), v)),
    ("rho", lambda v: mc_ergodic_capacity(ChannelDims(2, 2, 4), v, _CFG)),
    ("rho", lambda v: mc_outage(ChannelDims(2, 2, 4), v, _CFG, r=0.5)),
    ("rho", lambda v: mc_repetition_error(ChannelDims(1, 2, 3), v, _CFG, method="count")),
    ("rho", lambda v: mc_alamouti_outage(4, v, 0.5, _CFG)),
    ("rho", lambda v: SchemeConfig(ChannelDims(2, 2, 3), rho=v)),
    ("epsilon", lambda v: rho_norm(2, 4, v)),
    ("rho_bar", lambda v: rayleigh_compare(ChannelDims(2, 2, 8), v, _CFG)),
    ("r", lambda v: dmt_optimal_curve(ChannelDims(2, 2, 4)).diversity(v)),
    ("x", lambda v: specfun.reg_inc_beta(v, 2, 3)),
    ("p", lambda v: specfun.inv_reg_inc_beta(v, 2, 3)),
]


@pytest.mark.parametrize("value", [True, "3", 1 + 0j])
@pytest.mark.parametrize("name, call", REAL_ARGUMENTS)
def test_snr_and_rate_arguments_must_be_real(name, call, value):
    with pytest.raises(ValueError, match=f"{name} must be a real number"):
        call(value)


def test_rho_norm_values():
    for eps in (1e-5, 1e-3, 0.1):
        assert rho_norm(4, 4, eps) == 1.0
    assert rho_norm(1, 2, 1e-3) == pytest.approx(1000.0, rel=1e-9)
    assert rho_norm(np.int64(1), np.int32(2), 1e-3) == rho_norm(1, 2, 1e-3)
    assert rho_norm(2, 4, 1e-5) > rho_norm(2, 4, 1e-3)
    with pytest.raises(ValueError):
        rho_norm(2, 4, 0.0)
    with pytest.raises(ValueError):
        rho_norm(2, 4, 1.0)


@pytest.mark.parametrize("epsilon", [5e-324, 1e-320])
def test_rho_norm_raises_where_it_overflows(epsilon):
    # rho_norm(1, 2, eps) is 1/eps, past the float range below about 5.6e-309
    with pytest.raises(NumericalError, match=rf"^rho_norm\(mr=1, m=2, epsilon={epsilon!r}\) is beyond the float range$"):
        rho_norm(1, 2, epsilon)


def test_inverse_incomplete_beta_raises_where_its_root_underflows():
    # I_x(1, 2) = 2x - x^2: the root at p = 5e-324 is 2.5e-324, which rounds to 0
    with pytest.raises(NumericalError, match=r"^inv_reg_inc_beta\(5e-324, 1, 2\) is below the float range$"):
        specfun.inv_reg_inc_beta(5e-324, 1, 2)
    with pytest.raises(NumericalError):
        rho_norm(1, 3, 5e-324)


@pytest.mark.parametrize("p, b", [(1e-320, 3), (1e-320, 5), (1e-320, 6), (1e-320, 7),
                                  (1e-322, 3), (1e-322, 6), (1e-322, 7), (1e-322, 8)])
def test_inverse_incomplete_beta_raises_the_range_error_at_a_subnormal_root(p, b):
    # the root, about p / b, is subnormal: no relative step test can settle it
    with pytest.raises(NumericalError, match=rf"^inv_reg_inc_beta\({p!r}, 1, {b}\) is below the float range$"):
        specfun.inv_reg_inc_beta(p, 1, b)


def test_inverse_incomplete_beta_keeps_the_subnormal_roots_it_settles():
    # I_x(1, 2) = 2x - x^2: at p = 1e-320 the root 5e-321 settles, subnormal as it is
    assert specfun.inv_reg_inc_beta(1e-320, 1, 2) == 5e-321


def test_rho_norm_guarantee():
    # rho/(2^R - 1) >= rho_norm really does cap the outage at epsilon
    mr, m, eps, rate = 2, 4, 1e-3, 1.5
    rho = rho_norm(mr, m, eps) * (2.0**rate - 1.0)
    assert outage_single_mode(mr, m, rate, rho) == pytest.approx(eps, rel=1e-8)
    assert outage_single_mode(mr, m, rate, rho * 1.01) < eps


def test_dmt_case1_vertices():
    curve = dmt_optimal_curve(ChannelDims(4, 4, 8))
    assert curve.vertices == ((0.0, 16.0), (1.0, 9.0), (2.0, 4.0), (3.0, 1.0), (4.0, 0.0))
    assert curve.infinite_below == 0.0
    # same curve for any m >= mt + mr
    assert dmt_optimal_curve(ChannelDims(4, 4, 11)).vertices == curve.vertices


def test_dmt_pinned_cases():
    curve = dmt_optimal_curve(ChannelDims(2, 2, 3))
    assert curve.infinite_below == 1.0
    assert curve.vertices == ((1.0, 1.0), (2.0, 0.0))
    curve = dmt_optimal_curve(ChannelDims(2, 2, 2))
    assert curve.infinite_below == 2.0
    assert curve.vertices == ((2.0, 0.0),)


def test_dmt_endpoints_and_convexity():
    for dims in (ChannelDims(2, 3, 6), ChannelDims(4, 4, 8), ChannelDims(1, 5, 7)):
        curve = dmt_optimal_curve(dims)
        rs = [v[0] for v in curve.vertices]
        ds = [v[1] for v in curve.vertices]
        assert ds[0] == dims.mt * dims.mr and ds[-1] == 0.0
        slopes = np.diff(ds) / np.diff(rs)
        assert np.all(np.diff(slopes) >= 0)  # convex
        assert np.all(np.diff(ds) <= 0)  # nonincreasing


def test_dmt_diversity_evaluation():
    curve = dmt_optimal_curve(ChannelDims(2, 2, 3))
    assert curve.diversity(0.5) == math.inf
    assert curve.diversity(1.5) == pytest.approx(0.5)
    assert curve.diversity(2.0) == 0.0
    assert curve.diversity(5.0) == 0.0
    assert dmt_optimal_curve(ChannelDims(2, 2, 5)).diversity(0.0) == 4.0
