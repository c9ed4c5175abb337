"""Special functions behind the closed-form channel quantities.

Jacobi orthogonal polynomials and their [0, 1]-interval normalization
constants, and the regularized incomplete beta function with its inverse
(thin wrappers on :func:`scipy.special.betainc` and ``betaincinv``).

Conventions: ``jacobi_poly_sequence`` lives on the classical interval
[-1, 1]; everything else works on [0, 1] under the substitution
``x -> 1 - 2*lam``, which turns the classical weight ``(1-x)^a (1+x)^b``
into ``2^(a+b) * lam^a (1-lam)^b`` and divides the classical normalization
``a_k`` by ``2^(a+b+1)`` to give ``b_k`` below.
"""

from __future__ import annotations

import math
from math import lgamma, log

import numpy as np
from scipy.special import betainc, betaincinv

from .errors import NumericalError

__all__ = [
    "jacobi_poly_sequence",
    "jacobi_norm_b",
    "reg_inc_beta",
    "inv_reg_inc_beta",
]


def jacobi_poly_sequence(kmax: int, alpha: int, beta: int, x) -> np.ndarray:
    """Evaluate P_0 .. P_kmax at ``x`` by the ascending three-term recurrence.

    Returns an array of shape ``(kmax + 1,) + shape(x)``.  The recurrence is
    O(kmax) per point and stable on [-1, 1], unlike the Rodrigues form.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    x = np.asarray(x, dtype=float)
    a, b = float(alpha), float(beta)
    out = np.empty((kmax + 1,) + x.shape)
    out[0] = 1.0
    if kmax == 0:
        return out
    out[1] = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
    for n in range(1, kmax):
        c = 2.0 * n + a + b
        a1 = 2.0 * (n + 1.0) * (n + a + b + 1.0) * c
        a2 = (c + 1.0) * (a * a - b * b)
        a3 = c * (c + 1.0) * (c + 2.0)
        a4 = 2.0 * (n + a) * (n + b) * (c + 2.0)
        out[n + 1] = ((a2 + a3 * x) * out[n] - a4 * out[n - 1]) / a1
    return out


def _log_choose(n: float, r: float) -> float:
    return lgamma(n + 1.0) - lgamma(r + 1.0) - lgamma(n - r + 1.0)


def jacobi_norm_b(k: int, alpha: int, beta: int) -> float:
    """Squared norm of P_k^(alpha,beta)(1 - 2*lam) under lam^alpha (1-lam)^beta on [0, 1].

    Equals ``C(2k+a+b, k) / ((2k+a+b+1) * C(2k+a+b, k+a))``, evaluated in
    log-gamma space so large orders stay finite.
    """
    if k < 0 or alpha < 0 or beta < 0:
        raise ValueError("k, alpha, beta must be >= 0")
    n = 2.0 * k + alpha + beta
    return float(
        np.exp(_log_choose(n, k) - _log_choose(n, k + alpha) - log(n + 1.0))
    )


def _finite(value, name: str, *args) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NumericalError(f"{name}{args} is not finite")
    return value


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b) = B(x; a, b) / B(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("a and b must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    return _finite(betainc(a, b, x), "reg_inc_beta", x, a, b)


def inv_reg_inc_beta(p: float, a: float, b: float) -> float:
    """Inverse of :func:`reg_inc_beta` in x."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("a and b must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return _finite(betaincinv(a, b, p), "inv_reg_inc_beta", p, a, b)
