"""Linear-fractional transformations: the Cayley transform, disk
automorphisms, and the half-plane rotation subgroup.

This is the one implementation of each map and of its pole rule: the
function-level bridges (``characteristic_from_livsic``, ``livsic_from_weyl``,
``reference_change_weyl``, ``cayley_probe``, the general-k identity) compose
with :meth:`MoebiusMap.after` or evaluate :meth:`MoebiusMap.values`, and
the ``verify-all`` battery checks the maps on that same array path.  The
scalar :meth:`MoebiusMap.__call__` stays in Python-complex arithmetic as the
tests' independent reference for the array path; nothing in the package
calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AnalyticFn, FnKind, divide_off_pole
from .errors import DegenerateMap, PoleEncountered

DET_THRESHOLD = 1e-14


@dataclass(frozen=True)
class MoebiusMap:
    """z -> (a z + b) / (c z + d) with ad - bc != 0.

    Coefficients are stored raw, so compositions do not drift.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if abs(self.det) <= DET_THRESHOLD:
            raise DegenerateMap(f"determinant {self.det!r} below threshold")

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

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
        kappa = complex(kappa)
        if not abs(kappa) < 1.0:
            raise ValueError(f"|kappa| = {abs(kappa)} must be < 1")
        return cls(1.0, -kappa, kappa.conjugate(), -1.0)

    @classmethod
    def halfplane_rotation(cls, alpha: float) -> "MoebiusMap":
        """K_alpha(z) = (cos a * z - sin a)/(sin a * z + cos a), fixes i."""
        ca, sa = math.cos(alpha), math.sin(alpha)
        return cls(ca, -sa, sa, ca)

    # --- action ----------------------------------------------------------

    @property
    def pole_floor(self) -> float:
        """|c z + d| below this is a pole: the guard scales with the
        coefficient magnitudes."""
        return DET_THRESHOLD * (abs(self.c) + abs(self.d))

    def __call__(self, z: complex) -> complex:
        z = complex(z)
        den = self.c * z + self.d
        if abs(den) < self.pole_floor:
            raise PoleEncountered(f"Moebius pole near z = {z}")
        return (self.a * z + self.b) / den

    def values(self, w: np.ndarray) -> np.ndarray:
        """The map over an array, NaN at a pole (see ``divide_off_pole``)."""
        return divide_off_pole(self.a * w + self.b, self.c * w + self.d, self.pole_floor)

    def after(self, f: AnalyticFn, kind: FnKind, label: str) -> AnalyticFn:
        """The composition z -> self(f(z)) as an analytic function."""
        return AnalyticFn(lambda zs: self.values(f.evaluator(zs)), kind, label)
