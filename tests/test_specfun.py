"""Special functions against independent oracles.

The quadrature oracle is closed-form moments plus scipy's own
Gauss-Legendre nodes; the incomplete-beta oracles are mpmath,
scipy.special and small closed forms.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

from jacobi_fading import specfun
from jacobi_fading.analytic import _legendre_rule
from jacobi_fading.errors import NumericalError
from jacobi_fading.specfun import inv_reg_inc_beta, reg_inc_beta


def test_gauss_rule_midpoint_case():
    nodes, weights = _legendre_rule(1)
    assert nodes[0] == pytest.approx(0.5, abs=1e-14)
    assert weights[0] == pytest.approx(1.0, rel=1e-14)


def test_gauss_rule_moments_exact():
    # the integral of lam^j over [0, 1] is 1/(j+1), exact for j < 2n
    for n in (1, 6, 17):
        nodes, weights = _legendre_rule(n)
        for j in range(2 * n):
            assert weights @ nodes**j == pytest.approx(1.0 / (j + 1), rel=1e-12)


@pytest.mark.parametrize("n", [1, 5, 17, 55])
def test_gauss_rule_matches_scipy_roots_legendre(n):
    nodes, weights = _legendre_rule(n)
    x, w = sp.roots_legendre(n)  # ascending on [-1, 1], weights summing to 2
    assert np.max(np.abs(nodes - 0.5 * (1.0 + x))) < 1e-13
    assert np.max(np.abs(weights - 0.5 * w)) < 1e-13
    assert not (nodes.flags.writeable or weights.flags.writeable)


def test_reg_inc_beta_uniform_and_symmetry():
    for x in (0.0, 0.3, 1.0):
        assert reg_inc_beta(x, 1, 1) == pytest.approx(x, abs=1e-14)
    for a in (1, 2, 5):
        assert reg_inc_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-12)


def test_reg_inc_beta_closed_form_2_2():
    # I_x(2,2) = 3x^2 - 2x^3
    for x in (0.1, 0.25, 0.8):
        assert reg_inc_beta(x, 2, 2) == pytest.approx(3 * x**2 - 2 * x**3, rel=1e-12)
    assert reg_inc_beta(0.1, 2, 2) == pytest.approx(0.028, rel=1e-12)


def test_reg_inc_beta_against_scipy():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = int(rng.integers(1, 41))
        b = int(rng.integers(1, 41))
        x = float(rng.uniform(0.0, 1.0))
        assert reg_inc_beta(x, a, b) == pytest.approx(float(sp.betainc(a, b, x)), rel=1e-10, abs=1e-13)


def test_reg_inc_beta_monotone():
    xs = np.linspace(0, 1, 101)
    vals = [reg_inc_beta(float(x), 4, 2) for x in xs]
    assert np.all(np.diff(vals) >= 0)


def test_inverse_endpoints_and_symmetry():
    assert inv_reg_inc_beta(0.0, 2, 3) == 0.0
    assert inv_reg_inc_beta(1.0, 2, 3) == 1.0
    assert inv_reg_inc_beta(0.5, 3, 3) == pytest.approx(0.5, abs=1e-10)


def test_inverse_round_trip():
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 100:
        a = int(rng.integers(1, 31))
        b = int(rng.integers(1, 31))
        x = float(rng.uniform(1e-6, 1 - 1e-6))
        p = reg_inc_beta(x, a, b)
        back = inv_reg_inc_beta(p, a, b)
        # the defining contract always holds
        assert reg_inc_beta(back, a, b) == pytest.approx(p, abs=1e-9)
        # x itself is recoverable only where p has not saturated in floats
        if 1e-10 < p < 1.0 - 1e-10:
            assert back == pytest.approx(x, abs=1e-8)
            checked += 1


def test_inverse_deep_tail():
    # small-p inversion, the regime behind large normalized-SNR targets
    for eps in (1e-3, 1e-5, 1e-8):
        x = inv_reg_inc_beta(eps, 1, 1)
        assert x == pytest.approx(eps, rel=1e-9)
        x2 = inv_reg_inc_beta(eps, 2, 2)
        assert reg_inc_beta(x2, 2, 2) == pytest.approx(eps, rel=1e-6, abs=1e-12)


def _mp_inverse(p, a, b, x0):
    """Root of mpmath's I_x(a, b) = p by Newton from ``x0`` at 30 digits."""
    x = mp.mpf(x0)
    for _ in range(3):
        residual = mp.betainc(a, b, 0, x, regularized=True) - p
        x -= residual * mp.beta(a, b) / (x ** (a - 1) * (1 - x) ** (b - 1))
    return x


@pytest.mark.parametrize("m", [4, 16, 64])
def test_incomplete_beta_against_mpmath(m):
    # every (mr, m - mr) pair outage_single_mode and rho_norm can ask for
    with mp.workdps(30):
        for mr in range(1, m):
            a, b = mr, m - mr
            for e in range(3, 13):
                eps = 10.0**-e
                x = inv_reg_inc_beta(eps, a, b)
                want = _mp_inverse(eps, a, b, x)
                assert abs(x - want) <= 1e-13 * want
                xf = float(want)
                want_p = mp.betainc(a, b, 0, xf, regularized=True)
                assert abs(reg_inc_beta(xf, a, b) - want_p) <= 1e-13 * want_p


@pytest.mark.parametrize(
    "x, a, b",
    [
        (1e-8, 40, 600),  # x^a underflows, the lead term goes through logs
        (0.49, 600, 600),  # n = 1199: C(n, a) overflows a float
        (0.51, 600, 600),  # above the mean: the complement
        (0.3, 2, 1),  # b = 1: I_x = x^a, a single term
    ],
)
def test_reg_inc_beta_branches_against_mpmath(x, a, b):
    with mp.workdps(30):
        want = mp.betainc(a, b, 0, x, regularized=True)
        assert abs(reg_inc_beta(x, a, b) - want) <= 1e-12 * want
        p = float(want)
        assert abs(inv_reg_inc_beta(p, a, b) - x) <= 1e-12 * x


def test_unsettled_inverse_raises(monkeypatch):
    monkeypatch.setattr(specfun, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(NumericalError, match="did not converge"):
        inv_reg_inc_beta(1e-6, 3, 5)


def test_non_finite_result_raises():
    # NaN is not an integer parameter
    with pytest.raises(ValueError, match="b must be an integer"):
        reg_inc_beta(0.5, 1, math.nan)
    with pytest.raises(ValueError, match="a must be an integer"):
        inv_reg_inc_beta(0.5, math.nan, 1)
    with pytest.raises(ValueError):
        reg_inc_beta(math.nan, 1, 1)


def test_invalid_arguments_raise():
    with pytest.raises(ValueError):
        reg_inc_beta(-0.1, 1, 1)
    with pytest.raises(ValueError):
        reg_inc_beta(0.5, 0.0, 1)
    with pytest.raises(ValueError):
        inv_reg_inc_beta(1.5, 1, 1)
    for fn in (reg_inc_beta, inv_reg_inc_beta):
        with pytest.raises(ValueError, match="a must be an integer"):
            fn(0.5, 1.5, 1)
        with pytest.raises(ValueError, match="b must be an integer"):
            fn(0.5, 1, True)


def test_log2_1p_keeps_exact_sums_and_small_arguments():
    # where 1 + x is exact (every integer SNR) it is math.log2(1 + x) bit for bit
    for x in (0.0, 1.0, 9.0, 99.0, 1e6, 0.5, 2.0**-40):
        assert specfun.log2_1p(x) == math.log2(1.0 + x)
    # where the sum rounds, log2 of it is off by up to 11 %; log1p is not
    for x in (1e-15, 1e-10, 0.1, 1.0 / 3.0, 3e-300):
        with mp.workdps(40):
            want = float(mp.log1p(x) / mp.log(2))
        assert specfun.log2_1p(x) == pytest.approx(want, rel=4e-16, abs=0.0)
