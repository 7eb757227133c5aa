"""Quadrature oracle for the interval model's contractive function.

Computes s(z) = (z - i)/(z + i) * (g_z, g_-)/(g_z, g_+) by numerical
quadrature of the defect-element inner products over [0, ell], with the
normalization constants and integrand exponents written out locally: this
unit must stay independent of the closed forms in :mod:`livcalc.model`, so
the two routes can cross-check each other.  The closed antiderivative of the
integrands is deliberately not used here.

Both integrals, of exp(a x) for a = -iz - 1 and a = -iz + 1, are taken by
composite 16-point Gauss-Legendre quadrature on m and on 2m equal panels,
with m chosen so that each panel spans at most two radians of |a| x.  The
2m-panel value is returned once it agrees with the m-panel one; otherwise m
doubles, up to a node budget.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._kernels import gauss_exp
from .core import QUADRATURE_TOL, require_upper
from .errors import QuadratureFailed

#: Gauss-Legendre points per panel.
GAUSS_POINTS = 16
#: Largest |a| * (panel width) at the start: a 16-point rule integrates
#: exp over two radians to far below double precision.
PANEL_SPAN = 2.0
#: Node budget for one coarse-plus-fine rule (16 * 3m nodes).  It admits
#: |a| * ell up to about 1.09e4, e.g. Re z = 1e4 at ell = 1.
MAX_NODES = 2**18
#: Largest Re(a)*ell admitted: exp overflows a double past about 709.8, and
#: the margin covers the weights and the panel sum.
MAX_EXPONENT = 700.0


# The default grid at ell <= 2 uses m = 1..8 (41 kB in all); a rule at the
# node budget takes 6.3 MB, so the cache never exceeds about 100 MB.
@functools.lru_cache(maxsize=16)
def _panel_rule(m: int):
    """Nodes on [0, 1] of the m- and 2m-panel composite rules, and their
    weights as a (3 * 16 * m, 2) matrix: column 0 holds the m-panel weights,
    column 1 the 2m-panel weights, each zero on the other rule's nodes."""
    from numpy.polynomial.legendre import leggauss  # here, so cold CLI verbs skip it

    t, w = leggauss(GAUSS_POINTS)
    nodes, weights = [], np.zeros((3 * GAUSS_POINTS * m, 2))
    start = 0
    for column, panels in enumerate((m, 2 * m)):
        nodes.append(((np.arange(panels)[:, None] + 0.5 * (t + 1.0)) / panels).ravel())
        size = panels * GAUSS_POINTS
        weights[start : start + size, column] = np.tile(w / (2.0 * panels), panels)
        start += size
    nodes = np.concatenate(nodes)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _exp_integrals(a_minus: complex, a_plus: complex, ell: float, tol: float):
    """Integrals of exp(a_minus x) and exp(a_plus x) over [0, ell], each
    converged to ``tol`` (relative once its magnitude exceeds 1)."""
    for a in (a_minus, a_plus):
        if a.real * ell > MAX_EXPONENT:
            raise QuadratureFailed(
                f"exp(a*x) overflows a double on [0, {ell}] "
                f"(a = {a}, Re(a)*ell > {MAX_EXPONENT})"
            )
    b = np.array([a_minus * ell, a_plus * ell])
    m = max(1, math.ceil(max(abs(a_minus), abs(a_plus)) * ell / PANEL_SPAN))
    while 3 * GAUSS_POINTS * m <= MAX_NODES:
        # rows: a_minus, a_plus; columns: m panels, 2m panels
        estimates = (ell * gauss_exp(b, *_panel_rule(m))).tolist()
        if all(abs(fine - coarse) < tol * max(1.0, abs(fine)) for coarse, fine in estimates):
            return estimates[0][1], estimates[1][1]
        m *= 2
    raise QuadratureFailed(
        f"no convergence to {tol:.1e} within the {MAX_NODES}-node budget "
        f"(a = {a_minus} and {a_plus} on [0, {ell}])"
    )


def model_livsic_quadrature(ell: float, z: complex) -> complex:
    """s(z) for the interval model, from quadrature of the inner products.

    (g_z, g_-) integrates e^{-izx} times sqrt(2)/sqrt(1 - e^{-2 ell}) e^{-x}
    and (g_z, g_+) integrates e^{-izx} times sqrt(2)/sqrt(e^{2 ell} - 1) e^{x}
    (both defect elements are real-valued, so conjugation is a no-op), by
    composite Gauss-Legendre quadrature with a panel count scaled to
    |z + i| * ell.  Agrees with the closed form within QUADRATURE_TOL;
    raises QuadratureFailed when an integrand overflows, i.e. once
    (Im z + 1) * ell exceeds MAX_EXPONENT, or when |z + i| * ell is too large
    for the MAX_NODES budget (past about 1.09e4).
    """
    ell = float(ell)
    if not ell > 0.0:
        raise ValueError(f"interval length must be positive, got {ell}")
    z = require_upper(z)
    tol = QUADRATURE_TOL / 10.0

    # sqrt(e^{2 ell} - 1) = e^ell sqrt(1 - e^{-2 ell}): no overflow at large ell
    c_plus = math.sqrt(2.0) * math.exp(-ell) / math.sqrt(-math.expm1(-2.0 * ell))
    c_minus = math.sqrt(2.0) / math.sqrt(-math.expm1(-2.0 * ell))

    integral_minus, integral_plus = _exp_integrals(-1j * z - 1.0, -1j * z + 1.0, ell, tol)
    inner_minus = c_minus * integral_minus
    inner_plus = c_plus * integral_plus
    return (z - 1j) / (z + 1j) * inner_minus / inner_plus
