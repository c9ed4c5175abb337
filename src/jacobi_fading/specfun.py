"""Special functions behind the closed-form channel quantities.

Jacobi orthogonal polynomials and their [0, 1]-interval normalization
constants, Gauss-Jacobi quadrature rules for weights ``x^a (1-x)^b`` on
[0, 1], and the regularized incomplete beta function with its inverse
(thin wrappers on :func:`scipy.special.betainc` and ``betaincinv``).

Conventions: ``jacobi_poly`` lives on the classical interval [-1, 1];
everything else works on [0, 1] under the substitution ``x -> 1 - 2*lam``,
which turns the classical weight ``(1-x)^a (1+x)^b`` into
``2^(a+b) * lam^a (1-lam)^b`` and divides the classical normalization
``a_k`` by ``2^(a+b+1)`` to give ``b_k`` below.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math
from math import lgamma, log

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import betainc, betaincinv

from .errors import NumericalError

__all__ = [
    "QuadratureRule",
    "jacobi_poly",
    "jacobi_poly_sequence",
    "jacobi_norm_b",
    "gauss_jacobi_rule",
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "log_beta",
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


def jacobi_poly(k: int, alpha: int, beta: int, x):
    """Jacobi polynomial P_k^(alpha, beta) at ``x`` (scalar or array)."""
    vals = jacobi_poly_sequence(k, alpha, beta, x)[k]
    if np.ndim(x) == 0:
        return float(vals)
    return vals


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


def log_beta(a: float, b: float) -> float:
    """log of the complete beta function B(a, b)."""
    return lgamma(a) + lgamma(b) - lgamma(a + b)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for the weight ``lam^alpha (1-lam)^beta`` on [0, 1].

    Exact for polynomial integrands up to degree ``2n - 1``; the weights sum
    to B(alpha+1, beta+1).
    """

    nodes: np.ndarray
    weights: np.ndarray
    alpha: int
    beta: int
    n: int

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum of integrand values evaluated at ``nodes``."""
        return float(self.weights @ values)


@lru_cache(maxsize=None)
def gauss_jacobi_rule(n: int, alpha: int, beta: int) -> QuadratureRule:
    """Golub-Welsch construction of the n-point Gauss-Jacobi rule on [0, 1].

    Builds the symmetric tridiagonal recurrence matrix of the classical
    polynomials on [-1, 1], diagonalizes it, and maps nodes/weights through
    ``lam = (1 - x) / 2`` which also absorbs the 2^(alpha+beta+1) measure
    factor.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be >= 0")
    a, b = float(alpha), float(beta)
    j = np.arange(n, dtype=float)
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2.0)
    if n > 1:
        jj = j[1:]
        diag[1:] = (b * b - a * a) / ((2 * jj + a + b) * (2 * jj + a + b + 2.0))
        jj = j[1:]
        num = 4.0 * jj * (jj + a) * (jj + b) * (jj + a + b)
        den = (2 * jj + a + b) ** 2 * (2 * jj + a + b + 1.0) * (2 * jj + a + b - 1.0)
        off = np.sqrt(num / den)
    else:
        off = np.empty(0)
    try:
        x, vecs = eigh_tridiagonal(diag, off)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError("tridiagonal eigensolve failed") from exc
    # classical zeroth moment 2^(a+b+1) B(a+1, b+1) cancels against the
    # interval map, leaving weights that sum to B(a+1, b+1)
    w = np.exp(log_beta(a + 1.0, b + 1.0)) * vecs[0] ** 2
    lam = 0.5 * (1.0 - x)
    order = np.argsort(lam)
    lam, w = np.ascontiguousarray(lam[order]), np.ascontiguousarray(w[order])
    lam.setflags(write=False)
    w.setflags(write=False)
    return QuadratureRule(nodes=lam, weights=w, alpha=alpha, beta=beta, n=n)


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
