"""Quadrature oracle for the interval model's contractive function.

Computes s(z) = (z - i)/(z + i) * (g_z, g_-)/(g_z, g_+) by numerical
quadrature of the defect-element inner products over [0, ell], with the
integrand exponents written out locally: this unit must stay independent of
the closed forms in :mod:`livcalc.model`, so the two routes can cross-check
each other.  The closed antiderivative of the integrands is deliberately not
used here.

With x = ell t, the two inner products are c_- e^{-iz ell} J_- and
c_+ e^{-iz ell} e^{ell} J_+, where J_- and J_+ integrate e^{-iz ell (t - 1)}
times ell e^{-ell t} and times ell e^{ell (t - 1)} over t in [0, 1].  Both
integrands are taken from their far end, t = 1, and neither exceeds ell in
modulus for Im z > 0.  The normalizers of g_- and g_+ have the ratio
c_-/c_+ = e^{ell}, so the ratio of the inner products is J_-/J_+.

J_- and J_+ are taken by composite 16-point Gauss-Legendre quadrature on m
and on 2m equal panels, with m chosen so that each panel spans at most eight
radians of |z + i| ell t.  The 2m-panel values, on panels of at most four
radians, are returned once both agree with the m-panel ones to a tolerance
relative to J_+; otherwise m doubles, up to a node budget.

The rule for one (ell, m) is cached with the real factors folded into its
complex weights, so each convergence attempt is one complex exp of
e^{-iz ell (t - 1)} over the nodes and one complex matrix-vector product that
gives both integrals on both rules.

:func:`composite_rule` is the plain composite rule on [0, 1]; the
defect-element norm check integrates with it too.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._kernels import gauss_exp
from .core import COUNTS, QUADRATURE_TOL, require_length, require_upper
from .errors import QuadratureFailed

#: Gauss-Legendre points per panel.
GAUSS_POINTS = 16
#: Largest |a| * (panel width) at the start: a 16-point rule integrates
#: e^{at} over eight radians to a relative error below 2e-25.
PANEL_SPAN = 8.0
#: Node budget for one coarse-plus-fine rule (16 * 3m nodes).  It admits
#: |z + i| * ell up to about 4.37e4, e.g. Re z = 4.3e4 at ell = 1.
MAX_NODES = 2**18


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


# The battery's sweep, ell in (0.5, 1, 2) over the default grid, uses 4
# (ell, m) keys with m = 1, 2 (17 kB in all), so maxsize 8 keeps a warm
# battery free of misses.  A rule at the node budget takes about 19 MB
# (2 MB of nodes, 17 MB of weights), so the cache never exceeds about 150 MB.
@functools.lru_cache(maxsize=8)
def _panel_rule(ell: float, m: int):
    """Nodes t - 1 on [-1, 0] of the m- and 2m-panel composite rules in t,
    and their weights as a (3 * 16 * m, 4) matrix with the real factor of
    each integrand folded in: columns 0 and 1 hold the m- and 2m-panel
    weights times ell e^{-ell t}, columns 2 and 3 the same times
    ell e^{ell (t - 1)}.  Each rule's columns are zero on the other rule's
    nodes.  Nodes and weights are both stored complex, with zero imaginary
    parts, so that gauss_exp casts nothing per call."""
    coarse, fine = composite_rule(m), composite_rule(2 * m)
    nodes = (np.concatenate([coarse[0], fine[0]]) - 1.0).astype(np.complex128)
    weights = np.zeros((nodes.size, 4), dtype=np.complex128)
    weights[: coarse[0].size, 0] = coarse[1]
    weights[coarse[0].size :, 1] = fine[1]
    weights[:, 2:] = weights[:, :2]
    weights[:, :2] *= (ell * np.exp(-ell * (nodes.real + 1.0)))[:, None]
    weights[:, 2:] *= (ell * np.exp(ell * nodes.real))[:, None]
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def model_livsic_quadrature(ell: float, z: complex) -> complex:
    """s(z) for the interval model, from quadrature of the inner products.

    (g_z, g_-) and (g_z, g_+) integrate e^{-izx} against multiples of e^{-x}
    and e^{x} (both defect elements are real-valued, so conjugation is a
    no-op); their ratio is taken as J_-/J_+, both integrated from the far
    end of the interval by composite Gauss-Legendre quadrature with a panel
    count scaled to |z + i| * ell.  Agrees with the closed form within
    QUADRATURE_TOL; raises QuadratureFailed when |z + i| * ell is too large
    for the MAX_NODES budget (past about 4.37e4, or where |z + i| overflows
    a double), and, as a guard, when J_+ underflows to 0.  A length below
    the smallest normal double, where J_+ can underflow, is an OutOfRange of
    :func:`require_length` that names the length.
    """
    ell = require_length(ell)
    z = require_upper(z)
    tol = QUADRATURE_TOL / 10.0
    b = -1j * z * ell
    try:
        reach = abs(z + 1j) * ell
    except OverflowError:  # |z + i| past the largest double
        reach = math.inf
    width = reach / PANEL_SPAN
    # past the budget, inf and NaN included, m starts too large to loop
    m = max(1, math.ceil(width)) if width <= MAX_NODES else MAX_NODES
    COUNTS["oracle.points"] += 1
    while 3 * GAUSS_POINTS * m <= MAX_NODES:
        COUNTS["oracle.panels"] += 3 * m
        # J_- on m and 2m panels, then J_+ on m and 2m panels
        minus_m, minus_2m, plus_m, plus_2m = gauss_exp(b, *_panel_rule(ell, m)).tolist()
        # bounds the estimated error of s by tol * (1 + |s|)
        if max(abs(minus_2m - minus_m), abs(plus_2m - plus_m)) <= tol * abs(plus_2m):
            if plus_2m == 0:
                raise QuadratureFailed(f"J_+ underflows to 0 (z = {z}, ell = {ell})")
            return (z - 1j) / (z + 1j) * minus_2m / plus_2m
        m *= 2
    raise QuadratureFailed(
        f"no convergence to {tol:.1e} within the {MAX_NODES}-node budget "
        f"(|z + i| * ell = {reach:.4g}, z = {z}, ell = {ell})"
    )
