"""Linear-fractional transformations: the Cayley transform, disk
automorphisms, and the half-plane rotation subgroup.

This is the one implementation of each map: the function-level bridges
(``characteristic_from_livsic``, ``livsic_from_weyl``,
``reference_change_weyl``, ``cayley_probe``, the general-k identity) compose
with :meth:`MoebiusMap.after` or evaluate :meth:`MoebiusMap.values`, and
the ``verify-all`` battery checks the maps on that same array path.  The
scalar :meth:`MoebiusMap.__call__` stays in Python-complex arithmetic as the
tests' independent reference for the array path; nothing in the package
calls it.

Every map has one pole rule, the guard of :class:`~livcalc.core.AnalyticFn`:
a value that is not finite or exceeds ``OVERFLOW_GUARD``.  Near a pole the
value is about -(ad - bc)/(c (c z + d)), past the guard; a small determinant
alone, as -(1 - |kappa|^2) of the disk automorphism at |kappa| -> 1, is none.
"""

from __future__ import annotations

import math

import numpy as np

from .core import AnalyticFn, FnKind, Record
from .errors import DegenerateMap, OutOfRange, PoleEncountered


def ensure_kappa(kappa: complex) -> complex:
    """Validate an extension parameter: a complex number with |kappa| < 1."""
    kappa = complex(kappa)
    if not abs(kappa) < 1.0:
        raise OutOfRange(f"extension parameter needs |kappa| < 1, got |{kappa}| = {abs(kappa)}")
    return kappa


class MoebiusMap(Record):
    """z -> (a z + b) / (c z + d) with ad - bc != 0.

    Coefficients are stored raw, so compositions do not drift.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: complex, b: complex, c: complex, d: complex):
        super().__init__(complex(a), complex(b), complex(c), complex(d))
        if self.a * self.d == self.b * self.c:
            raise DegenerateMap(f"determinant of {self!r} is zero")

    # --- named constructors --------------------------------------------

    @classmethod
    def cayley(cls) -> "MoebiusMap":
        """K(z) = (z - i)/(z + i), upper half-plane onto the unit disk."""
        return cls(1.0, -1j, 1.0, 1j)

    @classmethod
    def inverse_cayley(cls) -> "MoebiusMap":
        """K^{-1}(w) = i (1 + w)/(1 - w)."""
        return cls(1j, 1j, -1.0, 1.0)

    @classmethod
    def disk_automorphism(cls, kappa: complex) -> "MoebiusMap":
        """w -> (w - kappa)/(conj(kappa) w - 1), an involution of the disk."""
        kappa = ensure_kappa(kappa)
        return cls(1.0, -kappa, kappa.conjugate(), -1.0)

    @classmethod
    def halfplane_rotation(cls, alpha: float) -> "MoebiusMap":
        """K_alpha(z) = (cos a * z - sin a)/(sin a * z + cos a), fixes i."""
        ca, sa = math.cos(alpha), math.sin(alpha)
        return cls(ca, -sa, sa, ca)

    # --- action ----------------------------------------------------------

    def __call__(self, z: complex) -> complex:
        z = complex(z)
        den = self.c * z + self.d
        if den == 0:
            raise PoleEncountered(f"Moebius pole at z = {z}")
        return (self.a * z + self.b) / den

    def values(self, w: np.ndarray) -> np.ndarray:
        """The map over an array; inf or NaN at a pole."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return (self.a * w + self.b) / (self.c * w + self.d)

    def after(self, f: AnalyticFn, kind: FnKind, label: str) -> AnalyticFn:
        """The composition z -> self(f(z)) as an analytic function."""
        return AnalyticFn(lambda zs: self.values(f.evaluator(zs)), kind, label)
