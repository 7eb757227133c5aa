"""Linear-fractional transformations: the Cayley transform, disk
automorphisms, and the half-plane rotation subgroup."""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    def __call__(self, z: complex) -> complex:
        z = complex(z)
        den = self.c * z + self.d
        # relative pole guard: scales with the coefficient magnitudes
        if abs(den) < DET_THRESHOLD * (abs(self.c) + abs(self.d)):
            raise PoleEncountered(f"Moebius pole near z = {z}")
        return (self.a * z + self.b) / den

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """Matrix product: (m1.compose(m2))(z) == m1(m2(z))."""
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )
