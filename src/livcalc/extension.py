"""Extension parameters and characteristic functions: the disk-automorphism
bridge between contractive function classes, parameter extraction at z = i,
reference-change laws, and a heuristic membership check for the subclass of
contractive functions vanishing at i with full radial growth."""

from __future__ import annotations

import cmath
import enum
import math

import numpy as np

from .core import IDENTITY_TOL, AnalyticFn, FnKind, Record, require_in
from .errors import NotContractive
from .moebius import MoebiusMap, ensure_kappa


def ensure_rotation(alpha: float) -> float:
    """Validate a reference-rotation angle in [0, pi)."""
    return require_in("rotation angle", alpha, "[0, pi)", 0.0, math.pi)


def characteristic_from_livsic(s: AnalyticFn, kappa: complex) -> AnalyticFn:
    """S(z) = (s(z) - kappa) / (conj(kappa) s(z) - 1).

    The map is a Moebius involution: applying it twice with the same kappa
    returns the input, so it also converts a characteristic function back to
    the underlying contractive one.  The output kind flips accordingly.
    """
    kappa = ensure_kappa(kappa)
    out_kind = FnKind.LIVSIC if s.kind is FnKind.CHARACTERISTIC else FnKind.CHARACTERISTIC
    # conj(kappa) s(z) = 1 is impossible for |s| < 1, |kappa| < 1
    return MoebiusMap.disk_automorphism(kappa).after(
        s, out_kind, f"diskauto[kappa={kappa}]({s.label})"
    )


def extract_kappa(S: AnalyticFn) -> complex:
    """The extension parameter recovered as the value S(i)."""
    value = S(1j)
    if not abs(value) < 1.0:
        raise NotContractive(f"|S(i)| = {abs(value)} >= 1")
    return value


def reference_change_livsic(s: AnalyticFn, alpha: float) -> AnalyticFn:
    """Reference rotation acts as the unimodular factor exp(-2 i alpha)."""
    alpha = ensure_rotation(alpha)
    phase = cmath.exp(-2j * alpha)
    return AnalyticFn(
        evaluator=lambda zs: phase * s.evaluator(zs),
        kind=s.kind,
        label=f"rot[{alpha}]({s.label})",
    )


def reference_change_weyl(M: AnalyticFn, alpha: float) -> AnalyticFn:
    """Reference rotation acts by the half-plane map
    (cos a * M - sin a)/(sin a * M + cos a), which fixes the value i."""
    alpha = ensure_rotation(alpha)
    return MoebiusMap.halfplane_rotation(alpha).after(M, M.kind, f"rot[{alpha}]({M.label})")


def cayley_probe() -> AnalyticFn:
    """(z - i)/(z + i): contractive and zero at i, but bounded along every
    ray, so the growth condition of the class fails."""
    return MoebiusMap.cayley().after(AnalyticFn(lambda zs: zs), FnKind.GENERIC, "cayley-probe")


class ClassVerdict(enum.Enum):
    CONSISTENT_WITH_C = "ConsistentWithC"
    FAILS_AT_I = "FailsAtI"
    FAILS_GROWTH = "FailsGrowth"


class ClassMembershipReport(Record):
    """The result of :func:`class_C_check`: ``value_at_i`` = s(i), whether
    it ``vanishes_at_i``, whether every ray passed (``ray_growth_passed``),
    the ``ray_details`` and the ``verdict``.  Each ray is a plain dict: the
    boundary phase angle ``alpha``, the ray angle ``theta``, the probe
    ``radii``, the ``magnitudes`` |z (s(z) - exp(2 i alpha))| there, and
    whether the ray ``passed``."""

    __slots__ = ("value_at_i", "vanishes_at_i", "ray_growth_passed", "ray_details", "verdict")


#: Probe schedule for the growth condition: sector angles, radii, and the
#: grid of boundary phases exp(2 i alpha).  This budget rejects the
#: Blaschke-type counterexamples in the test corpus while passing the
#: interval model at ell = 1; it also rejects the model once ell is below
#: about 0.1, where |z (s - 1)| ~ r (1 - e^{-ell}) stays under the threshold.
RAY_THETAS = (math.pi / 4, math.pi / 2, 3 * math.pi / 4)
RAY_RADII = (1e1, 1e2, 1e3, 1e4)
RAY_ALPHA_COUNT = 16
RAY_PASS_THRESHOLD = 1e3


def class_C_check(s: AnalyticFn) -> ClassMembershipReport:
    """Falsification heuristic for membership in the vanishing-at-i class.

    Checks s(i) = 0 against IDENTITY_TOL and, for every boundary
    phase exp(2 i alpha) on a 16-point grid over [0, pi), that
    |z (s(z) - exp(2 i alpha))| is strictly increasing along each probe ray
    and exceeds 10^3 at the largest radius.  FailsAtI is a conclusive
    rejection.  FailsGrowth is evidence against membership, not a conclusive
    rejection: the fixed threshold also rejects members of the class, such as
    the interval model at ell = 0.01, where |z (s(z) - e^{2 i alpha})| is
    about 99.5 at r = 10^4.  ConsistentWithC is evidence, not proof.
    """
    value_at_i = s(1j)
    vanishes = abs(value_at_i) < IDENTITY_TOL

    alphas = np.arange(RAY_ALPHA_COUNT) * math.pi / RAY_ALPHA_COUNT
    targets = np.exp(2j * alphas)[:, None, None]
    # probe points, one row per ray: shape (len(RAY_THETAS), len(RAY_RADII))
    zs = np.array([[r * cmath.exp(1j * theta) for r in RAY_RADII] for theta in RAY_THETAS])
    # |z (s(z) - exp(2 i alpha))|: shape (alphas, thetas, radii)
    mags = np.abs(zs * (s(zs) - targets))
    increasing = np.all(mags[:, :, 1:] > mags[:, :, :-1], axis=2)
    passed = increasing & (mags[:, :, -1] > RAY_PASS_THRESHOLD)
    all_passed = bool(passed.all())
    details = tuple(
        {"alpha": float(alphas[j]), "theta": theta, "radii": RAY_RADII,
         "magnitudes": tuple(mags[j, t].tolist()), "passed": bool(passed[j, t])}
        for j in range(RAY_ALPHA_COUNT)
        for t, theta in enumerate(RAY_THETAS)
    )

    if not vanishes:
        verdict = ClassVerdict.FAILS_AT_I
    elif not all_passed:
        verdict = ClassVerdict.FAILS_GROWTH
    else:
        verdict = ClassVerdict.CONSISTENT_WITH_C
    return ClassMembershipReport(value_at_i, vanishes, all_passed, details, verdict)
