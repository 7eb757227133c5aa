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

The two integrands share the oscillating factor e^{-izx}: exp(a x) is
e^{-izx} e^{-x} or e^{-izx} e^{x}.  So the rule for one (ell, m) is cached
with the real factors e^{-+ ell t} folded into its weights, and each
convergence attempt is one complex exp of e^{-iz ell t} over the nodes and
one matrix-vector product that gives both integrals on both rules.

:func:`composite_rule` is the plain composite rule on [0, 1]; the
defect-element norm check integrates with it too.
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


#: (node, weight) of the 16-point Gauss-Legendre rule on [-1, 1] at its
#: positive nodes, ascending.  The rule is symmetric, and these are the
#: digits of numpy.polynomial.legendre.leggauss(16) to the last bit, so the
#: runtime need not import numpy.polynomial.
_LEGENDRE_HALF = (
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
)


@functools.cache
def _legendre():
    """Nodes (ascending) and weights of the GAUSS_POINTS-point rule on
    [-1, 1], as read-only arrays."""
    half = np.array(_LEGENDRE_HALF)
    t = np.concatenate([-half[::-1, 0], half[:, 0]])
    w = np.concatenate([half[::-1, 1], half[:, 1]])
    t.flags.writeable = w.flags.writeable = False
    return t, w


def composite_rule(panels: int):
    """Nodes and weights on [0, 1] of the composite Gauss-Legendre rule on
    ``panels`` equal panels."""
    t, w = _legendre()
    nodes = ((np.arange(panels)[:, None] + 0.5 * (t + 1.0)) / panels).ravel()
    return nodes, np.tile(w / (2.0 * panels), panels)


# The battery's sweep, ell in (0.5, 1, 2) over the default grid, uses 13
# (ell, m) keys with m = 1..8 (92 kB in all), so maxsize 16 keeps a warm
# battery free of misses.  A rule at the node budget takes about 10 MB
# (2 MB of nodes, 8 MB of weights), so the cache never exceeds about 170 MB.
@functools.lru_cache(maxsize=16)
def _panel_rule(ell: float, m: int):
    """Nodes t on [0, 1] of the m- and 2m-panel composite rules, and their
    weights as a (3 * 16 * m, 4) matrix with the real factor of each
    integrand folded in: columns 0 and 1 hold the m- and 2m-panel weights
    times ell e^{-ell t}, columns 2 and 3 the same times ell e^{ell t}.
    Each rule's columns are zero on the other rule's nodes."""
    coarse, fine = composite_rule(m), composite_rule(2 * m)
    nodes = np.concatenate([coarse[0], fine[0]])
    weights = np.zeros((nodes.size, 4))
    weights[: coarse[0].size, 0] = coarse[1]
    weights[coarse[0].size :, 1] = fine[1]
    weights[:, 2:] = weights[:, :2]
    weights[:, :2] *= (ell * np.exp(-ell * nodes))[:, None]
    weights[:, 2:] *= (ell * np.exp(ell * nodes))[:, None]
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _exp_integrals(z: complex, ell: float, tol: float):
    """Integrals of exp(a x) over [0, ell] for a = -iz - 1 and a = -iz + 1,
    each converged to ``tol`` (relative once its magnitude exceeds 1)."""
    a_minus, a_plus = -1j * z - 1.0, -1j * z + 1.0
    # Re(a_minus) < Re(a_plus): one guard covers both integrands
    if a_plus.real * ell > MAX_EXPONENT:
        raise QuadratureFailed(
            f"exp(a*x) overflows a double on [0, {ell}] "
            f"(a = {a_plus}, Re(a)*ell > {MAX_EXPONENT})"
        )
    b = -1j * z * ell
    m = max(1, math.ceil(max(abs(a_minus), abs(a_plus)) * ell / PANEL_SPAN))
    while 3 * GAUSS_POINTS * m <= MAX_NODES:
        # a_minus on m and 2m panels, then a_plus on m and 2m panels
        minus_m, minus_2m, plus_m, plus_2m = gauss_exp(b, *_panel_rule(ell, m)).tolist()
        if (abs(minus_2m - minus_m) < tol * max(1.0, abs(minus_2m))
                and abs(plus_2m - plus_m) < tol * max(1.0, abs(plus_2m))):
            return minus_2m, plus_2m
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
    if not (ell > 0.0 and math.isfinite(ell)):
        raise ValueError(f"interval length must be finite and positive, got {ell}")
    z = require_upper(z)
    tol = QUADRATURE_TOL / 10.0

    # sqrt(e^{2 ell} - 1) = e^ell sqrt(1 - e^{-2 ell}): no overflow at large ell
    c_plus = math.sqrt(2.0) * math.exp(-ell) / math.sqrt(-math.expm1(-2.0 * ell))
    c_minus = math.sqrt(2.0) / math.sqrt(-math.expm1(-2.0 * ell))

    integral_minus, integral_plus = _exp_integrals(z, ell, tol)
    inner_minus = c_minus * integral_minus
    inner_plus = c_plus * integral_plus
    return (z - 1j) / (z + 1j) * inner_minus / inner_plus
