"""Special functions behind the closed-form outage quantities.

The regularized incomplete beta function and its inverse for the integer
parameters the channel needs, in :mod:`math` alone: ``I_x(a, b)`` is the
binomial tail ``P(Bin(a + b - 1, x) >= a)``, and the inverse is a
safeguarded Newton iteration in ``log x``.  ``log2_1p`` is the scalar
``log2(1 + rho)`` that every module reads.
"""

from __future__ import annotations

import math
from functools import cache
from math import lgamma, log

from .ensembles import require_integers, require_reals
from .errors import NumericalError

__all__ = ["reg_inc_beta", "inv_reg_inc_beta"]


def log2_1p(x: float) -> float:
    """log2(1 + x), within a few ulps as x -> 0.

    Where 1 + x is exact it is ``math.log2(1 + x)``, bit for bit; where the
    sum rounds, log2 of it would lose relative accuracy (11 % at x = 1e-15),
    so it is ``log1p(x) / ln 2`` instead.
    """
    u = 1.0 + x
    if u - 1.0 == x:
        return math.log2(u)
    return math.log1p(x) / math.log(2.0)


def _log_choose(n: float, r: float) -> float:
    return lgamma(n + 1.0) - lgamma(r + 1.0) - lgamma(n - r + 1.0)


# A binomial-tail term below this fraction of the running sum no longer
# moves the sum in double precision.
_TAIL_RTOL = 1e-17
# Beyond this n the exact C(n, a) can overflow a float, and below this x^a
# loses precision to gradual underflow; the lead term then goes through
# logarithms instead.
_EXACT_COMB_MAX = 1000
_POW_MIN = 2.0**-1000
# With Halley's correction the iteration converges cubically: after a step
# this small in log x, the next would fall far below double precision.
_NEWTON_STEP_TOL = 1e-7
_NEWTON_MAX_ITER = 100


def _beta_params(a, b) -> tuple[int, int]:
    require_integers(a=a, b=b)
    if a < 1 or b < 1:
        raise ValueError(f"a and b must be >= 1, got a={a}, b={b}")
    return int(a), int(b)


def _binomial_tail(x: float, a: int, b: int) -> tuple[float, float]:
    """``I_x(a, b)`` and ``x * dI/dx`` for ``0 < x <= a / (a + b)``.

    ``I_x(a, b) = P(Bin(n, x) >= a)`` with ``n = a + b - 1``.  Below the
    mean the terms ``C(n, j) x^j (1-x)^(n-j)``, ``j = a .. n``, only fall,
    so they are summed upward from the first, which also gives the
    derivative: ``x * dI/dx = x^a (1-x)^(b-1) / B(a, b) = a * first term``.
    """
    n = a + b - 1
    x_pow = x**a
    if x_pow >= _POW_MIN and n <= _EXACT_COMB_MAX:
        term = math.comb(n, a) * x_pow * (1.0 - x) ** (b - 1)
    else:
        term = math.exp(_log_choose(n, a) + a * log(x) + (b - 1) * math.log1p(-x))
    lead = total = term
    odds = x / (1.0 - x)
    for j in range(a, n):
        term *= (n - j) / (j + 1) * odds
        total += term
        if term < _TAIL_RTOL * total:
            break
    return total, a * lead


def reg_inc_beta(x: float, a: int, b: int) -> float:
    """Regularized incomplete beta function I_x(a, b) = B(x; a, b) / B(a, b).

    ``a`` and ``b`` are integers >= 1; above the mean ``a / (a + b)`` the
    value is ``1 - I_{1-x}(b, a)``, whose binomial tail falls from its
    first term.  The relative error is a few 1e-14 while ``a + b <= 1000``
    and ``x^a`` does not underflow.  Otherwise the first term goes through
    log-gamma, and the error grows with ``a + b``, to about 2e-12 at 2000
    and 2e-11 at 6000.
    """
    a, b = _beta_params(a, b)
    require_reals(x=x)
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0 or x == 1.0:
        return float(x)
    if x * (a + b) > a:
        return 1.0 - _binomial_tail(1.0 - x, b, a)[0]
    return _binomial_tail(x, a, b)[0]


@cache
def _log_beta(a: int, b: int) -> float:
    return lgamma(a) + lgamma(b) - lgamma(a + b)


def _inverse_lower(p: float, a: int, b: int) -> float:
    """The x with ``I_x(a, b) = p`` for ``0 < p <= 1/2``.

    Newton on ``g(u) = log(I(e^u) / p)``.  ``g`` is concave in u (log x of a
    Beta variate has a log-concave density), and ``I_x <= x^a / (a B(a, b))``,
    so the start ``x0 = (p a B(a, b))^(1/a)``, where that bound reaches p,
    lies left of the root, from where plain Newton climbs without
    overshooting.  Each step takes Halley's correction, from
    ``g''/g' = a - (b-1) x/(1-x) - g'``, unless that would more than double
    it; a step that leaves the bracket of the root is bisected instead.
    """
    log_beta = _log_beta(a, b)
    u = (log(p) + log(a) + log_beta) / a
    lo, hi = -math.inf, 0.0
    for _ in range(_NEWTON_MAX_ITER):
        x = math.exp(u)
        if x * (a + b) > a:
            value = 1.0 - _binomial_tail(1.0 - x, b, a)[0]
            slope = math.exp(a * u + (b - 1) * math.log1p(-x) - log_beta)
        else:
            value, slope = _binomial_tail(x, a, b)
        if slope > 0.0:
            step = log(value / p) * value / slope
            bend = 1.0 - 0.5 * step * (a - (b - 1) * x / (1.0 - x) - slope / value)
            if bend > 0.5:
                step /= bend
        else:
            step = math.copysign(math.inf, value - p)
        if abs(step) <= _NEWTON_STEP_TOL:
            return math.exp(u - step)
        if step > 0.0:
            hi = u
        else:
            lo = u
        u -= step
        if not lo < u < hi:
            u = 0.5 * (lo + hi) if lo > -math.inf else hi - 1.0
    raise NumericalError(
        f"inv_reg_inc_beta({p!r}, {a}, {b}) did not converge in {_NEWTON_MAX_ITER} steps"
    )


def inv_reg_inc_beta(p: float, a: int, b: int) -> float:
    """Inverse of :func:`reg_inc_beta` in x, for integers a, b >= 1.

    For ``p > 1/2`` it solves ``I_{1-x}(b, a) = 1 - p`` instead, so the
    iteration always starts below the median.  Raises
    :class:`NumericalError` rather than return an unconverged value.
    """
    a, b = _beta_params(a, b)
    require_reals(p=p)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p == 0.0 or p == 1.0:
        return float(p)
    if p > 0.5:
        return 1.0 - _inverse_lower(1.0 - p, b, a)
    return _inverse_lower(p, a, b)
