"""Quadrature oracle for the interval model's contractive function.

Computes s(z) = (z - i)/(z + i) * (g_z, g_-)/(g_z, g_+) by numerical
quadrature of the defect-element inner products over [0, ell], with the
normalization constants and integrand exponents written out locally: this
unit must stay independent of the closed forms in :mod:`livcalc.model`, so
the two routes can cross-check each other.  The closed antiderivative of the
integrands is deliberately not used here.
"""

from __future__ import annotations

import math

from ._kernels import simpson_exp
from .core import ToleranceConfig, require_upper
from .errors import QuadratureFailed

#: Panel budget for the interval-halving loop.
MAX_PANELS = 2**16
_START_PANELS = 32
#: Largest Re(a)*ell admitted: exp overflows a double past about 709.8, and
#: the margin covers the Simpson weights and the panel sum.
MAX_EXPONENT = 700.0


def _adaptive_exp_integral(a: complex, ell: float, tol: float) -> complex:
    """Integral of exp(a*x) over [0, ell] by composite Simpson, halving the
    spacing until successive estimates differ by less than ``tol`` (relative
    once the magnitude exceeds 1)."""
    if a.real * ell > MAX_EXPONENT:
        raise QuadratureFailed(
            f"exp(a*x) overflows a double on [0, {ell}] (a = {a}, Re(a)*ell > {MAX_EXPONENT})"
        )
    n = _START_PANELS
    previous = simpson_exp(a, ell, n)
    while n < MAX_PANELS:
        n *= 2
        current = simpson_exp(a, ell, n)
        if abs(current - previous) < tol * max(1.0, abs(current)):
            return current
        previous = current
    raise QuadratureFailed(
        f"no convergence to {tol:.1e} within {MAX_PANELS} panels (a = {a})"
    )


def model_livsic_quadrature(
    ell: float,
    z: complex,
    cfg: ToleranceConfig = ToleranceConfig(),
) -> complex:
    """s(z) for the interval model, from quadrature of the inner products.

    (g_z, g_-) integrates e^{-izx} times sqrt(2)/sqrt(1 - e^{-2 ell}) e^{-x}
    and (g_z, g_+) integrates e^{-izx} times sqrt(2)/sqrt(e^{2 ell} - 1) e^{x}
    (both defect elements are real-valued, so conjugation is a no-op).
    Agrees with the closed form within ``cfg.quadrature_tol``; raises
    QuadratureFailed when an integrand overflows, i.e. once
    (Im z + 1) * ell exceeds MAX_EXPONENT.
    """
    ell = float(ell)
    if not ell > 0.0:
        raise ValueError(f"interval length must be positive, got {ell}")
    z = require_upper(z)
    tol = cfg.quadrature_tol / 10.0

    # sqrt(e^{2 ell} - 1) = e^ell sqrt(1 - e^{-2 ell}): no overflow at large ell
    c_plus = math.sqrt(2.0) * math.exp(-ell) / math.sqrt(-math.expm1(-2.0 * ell))
    c_minus = math.sqrt(2.0) / math.sqrt(-math.expm1(-2.0 * ell))

    inner_minus = c_minus * _adaptive_exp_integral(-1j * z - 1.0, ell, tol)
    inner_plus = c_plus * _adaptive_exp_integral(-1j * z + 1.0, ell, tol)
    return (z - 1j) / (z + 1j) * inner_minus / inner_plus
