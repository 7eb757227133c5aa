"""Coupling of contractive half-plane functions: the angle construction from
a pair of extension-parameter moduli, the rational coupling formula, its
general-k form, the convex addition law for half-plane functions, and the
multiplicative law for characteristic functions and their parameters."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .core import (
    IDENTITY_TOL,
    KAPPA2_ZERO_THRESHOLD,
    AnalyticFn,
    EvaluationGrid,
    FnKind,
    divide_off_pole,
    max_modulus,
    min_imag,
)
from .errors import OutOfRange, PoleEncountered
from .extension import ensure_kappa, extract_kappa
from .moebius import MoebiusMap

_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class CouplingAngles:
    """The pair (alpha, beta) parametrizing a coupling.

    For inputs produced by :func:`coupling_angles` the defining relations
    sin(beta) = kappa1 sin(alpha) and, off the degenerate branch,
    cos(beta) = cos(alpha)/kappa2 hold to 1e-14.  The range check admits
    beta = pi/2 so the symmetric collapse (alpha = beta = pi/2) remains
    expressible.
    """

    alpha: float
    beta: float
    kappa2_is_zero: bool = False

    def __post_init__(self):
        if not (0.0 <= self.alpha <= _HALF_PI):
            raise ValueError(f"alpha = {self.alpha} outside [0, pi/2]")
        if not (0.0 <= self.beta <= _HALF_PI):
            raise ValueError(f"beta = {self.beta} outside [0, pi/2]")
        if self.kappa2_is_zero and abs(self.alpha - _HALF_PI) > 1e-12:
            raise ValueError("degenerate branch requires alpha = pi/2")

    def trig(self):
        """(cos a cos b, sin a sin b), the two coefficients of the coupling."""
        return (
            math.cos(self.alpha) * math.cos(self.beta),
            math.sin(self.alpha) * math.sin(self.beta),
        )


def coupling_angles(kappa1: float, kappa2: float) -> CouplingAngles:
    """Angles (alpha, beta) determined by the moduli kappa1, kappa2 in [0, 1).

    kappa2 above KAPPA2_ZERO_THRESHOLD:
        alpha = arctan((1/kappa2) sqrt((1 - kappa2^2)/(1 - kappa1^2))),
        beta  = arctan(kappa1 kappa2 tan(alpha));
    kappa2 at/below threshold: alpha = pi/2, beta = arcsin(kappa1), which is
    what the sin/cos relations force there (the printed arctan argument
    kappa1/sqrt(1-kappa1^2) is the tangent of exactly this beta).

    Phases of complex extension parameters are handled by unimodular
    reference rotations outside this function; pass moduli here.
    """
    k1, k2 = float(kappa1), float(kappa2)
    for name, k in (("kappa1", k1), ("kappa2", k2)):
        if not (0.0 <= k < 1.0):
            raise OutOfRange(f"{name} = {k} outside [0, 1)")
    if k2 <= KAPPA2_ZERO_THRESHOLD:
        return CouplingAngles(_HALF_PI, math.asin(k1), kappa2_is_zero=True)
    ratio = math.sqrt((1.0 - k2 * k2) / (1.0 - k1 * k1))
    alpha = math.atan(ratio / k2)
    # tan(beta) = kappa1 kappa2 tan(alpha) with tan(alpha) folded in exactly
    beta = math.atan(k1 * ratio)
    return CouplingAngles(alpha, beta, kappa2_is_zero=False)


def couple_livsic(s1: AnalyticFn, s2: AnalyticFn, angles: CouplingAngles) -> AnalyticFn:
    """The coupled contractive function

        s = [cc*s1 - s1*s2 + ss*s2] / [1 - (ss*s1 + cc*s2)],

    with cc = cos(alpha)cos(beta) and ss = sin(alpha)sin(beta).  For
    contractive inputs with cc + ss <= 1 the denominator cannot vanish; a
    vanishing denominator therefore signals invalid input.
    """
    for name, s in (("s1", s1), ("s2", s2)):
        if s.kind is not FnKind.LIVSIC:
            raise ValueError(f"couple_livsic expects Livsic-kind inputs, {name} is {s.kind}")
    cc, ss = angles.trig()

    def evaluator(zs):
        v1, v2 = s1.evaluator(zs), s2.evaluator(zs)
        return divide_off_pole(cc * v1 - v1 * v2 + ss * v2, 1.0 - (ss * v1 + cc * v2), 1e-14)

    return AnalyticFn(
        evaluator=evaluator,
        kind=FnKind.LIVSIC,
        label=f"couple[{s1.label} , {s2.label}]",
    )


def general_k_identity_defect(
    k: float,
    s1: AnalyticFn,
    s2: AnalyticFn,
    angles: CouplingAngles,
    grid: EvaluationGrid,
) -> float:
    """Sup over the grid of |LHS - RHS| of the general-k form of the
    coupling identity,

        (s - k)/(k s - 1) = (a1 s1 + a2 s2 - s1 s2 - k)
                            / (a2 s1 + a1 s2 - k s1 s2 - 1),

    with a1 = cc + k ss, a2 = ss + k cc and s the coupled function.  A small
    defect confirms the identity; k = 0 reduces to the coupling formula's
    self-consistency."""
    k = float(k)
    if not (0.0 <= k < 1.0):
        raise OutOfRange(f"k = {k} outside [0, 1)")
    cc, ss = angles.trig()
    a1 = cc + k * ss
    a2 = ss + k * cc
    s = couple_livsic(s1, s2, angles)
    zs = grid.points
    v, v1, v2 = s(zs), s1(zs), s2(zs)
    lhs = MoebiusMap.disk_automorphism(k).values(v)
    rhs = divide_off_pole(
        a1 * v1 + a2 * v2 - v1 * v2 - k, a2 * v1 + a1 * v2 - k * v1 * v2 - 1.0, 1e-14
    )
    defect = np.abs(lhs - rhs)
    pole = np.isnan(defect)
    if pole.any():
        z = complex(zs[np.argmax(pole)])
        raise PoleEncountered(f"identity denominator vanished at z = {z}")
    return float(np.max(defect))


def add_weyl(M1: AnalyticFn, M2: AnalyticFn, alpha: float) -> AnalyticFn:
    """Convex combination cos^2(alpha) M1 + sin^2(alpha) M2.

    Preserves the half-plane range and the normalization M(i) = i when both
    inputs are normalized."""
    for name, m in (("M1", M1), ("M2", M2)):
        if m.kind is not FnKind.HERGLOTZ:
            raise ValueError(f"add_weyl expects Herglotz-kind inputs, {name} is {m.kind}")
    alpha = float(alpha)
    p = math.cos(alpha) ** 2
    q = math.sin(alpha) ** 2
    return AnalyticFn(
        evaluator=lambda zs: p * M1.evaluator(zs) + q * M2.evaluator(zs),
        kind=FnKind.HERGLOTZ,
        label=f"add[{M1.label} , {M2.label}; alpha={alpha}]",
    )


@dataclass(frozen=True)
class TaggedCharacteristic:
    """A characteristic function together with its extension parameter.

    Construction verifies the tag against the value at i, to IDENTITY_TOL."""

    fn: AnalyticFn
    kappa: complex

    def __post_init__(self):
        object.__setattr__(self, "kappa", ensure_kappa(self.kappa))
        if self.fn.kind is not FnKind.CHARACTERISTIC:
            raise ValueError("tagged function must have Characteristic kind")
        defect = abs(self.fn(1j) - self.kappa)
        if defect >= IDENTITY_TOL:
            raise ValueError(
                f"tag kappa = {self.kappa} disagrees with fn(i) by {defect:.3g}"
            )


def multiply_characteristic(
    t1: TaggedCharacteristic, t2: TaggedCharacteristic
) -> TaggedCharacteristic:
    """Pointwise product with multiplied parameter tag.

    The product is represented lazily (evaluation composes the factors), so
    the multiplicative law is exact by construction; tag consistency at i is
    automatic since (S1 S2)(i) = kappa1 kappa2."""
    f1, f2 = t1.fn, t2.fn
    product = AnalyticFn(
        evaluator=lambda zs: f1.evaluator(zs) * f2.evaluator(zs),
        kind=FnKind.CHARACTERISTIC,
        label=f"product[{f1.label} , {f2.label}]",
    )
    return TaggedCharacteristic(product, t1.kappa * t2.kappa)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    pairs_checked: int
    worst_deviation: float
    tolerance: float
    passed: bool

    def __post_init__(self):
        object.__setattr__(self, "worst_deviation", float(self.worst_deviation))
        object.__setattr__(self, "passed", bool(self.passed))


@dataclass(frozen=True)
class ClassPropertiesReport:
    results: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


_CONVEXITY_ANGLES = (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)


def verify_class_properties(
    samples: Sequence[AnalyticFn], grid: EvaluationGrid
) -> ClassPropertiesReport:
    """Check the four class-level closure properties over a sample corpus.

    (i)   convex combinations of normalized Herglotz samples stay Herglotz
          with value i at i;
    (ii)  products of characteristic samples are contractive with the
          product parameter at i;
    (iii) a product with a vanishing-parameter factor vanishes at i
          (two-sided ideal property);
    (iv)  products of Livsic samples vanish at i.

    Each property passes when its worst deviation is below IDENTITY_TOL.
    """
    tol = IDENTITY_TOL
    herglotz = [f for f in samples if f.kind is FnKind.HERGLOTZ]
    livsic = [f for f in samples if f.kind is FnKind.LIVSIC]
    charac = [f for f in samples if f.kind is FnKind.CHARACTERISTIC]

    results: List[PropertyResult] = []

    pairs = 0
    worst = 0.0
    for i in range(len(herglotz)):
        for j in range(i, len(herglotz)):
            for alpha in _CONVEXITY_ANGLES:
                combo = add_weyl(herglotz[i], herglotz[j], alpha)
                worst = max(worst, -min_imag(combo, grid), abs(combo(1j) - 1j))
                pairs += 1
    results.append(PropertyResult("herglotz-convexity", pairs, worst, tol, worst < tol))

    pairs = 0
    worst = 0.0
    for i in range(len(charac)):
        for j in range(i, len(charac)):
            k1, k2 = extract_kappa(charac[i]), extract_kappa(charac[j])
            t1 = TaggedCharacteristic(charac[i], k1)
            t2 = TaggedCharacteristic(charac[j], k2)
            prod = multiply_characteristic(t1, t2)
            worst = max(
                worst,
                max(0.0, max_modulus(prod.fn, grid) - 1.0),
                abs(prod.fn(1j) - k1 * k2),
            )
            pairs += 1
    results.append(
        PropertyResult("characteristic-multiplication", pairs, worst, tol, worst < tol)
    )

    vanishing = [f for f in charac if abs(extract_kappa(f)) < tol]
    pairs = 0
    worst = 0.0
    for c in vanishing:
        for other in charac:
            for left, right in ((c, other), (other, c)):
                prod_at_i = left(1j) * right(1j)
                worst = max(worst, abs(prod_at_i))
                pairs += 1
    results.append(PropertyResult("vanishing-ideal", pairs, worst, tol, worst < tol))

    pairs = 0
    worst = 0.0
    zs = grid.points
    livsic_values = [f(zs) for f in livsic]
    for i in range(len(livsic)):
        for j in range(i, len(livsic)):
            prod_at_i = livsic[i](1j) * livsic[j](1j)
            contraction = float(np.max(np.abs(livsic_values[i] * livsic_values[j])))
            worst = max(worst, abs(prod_at_i), max(0.0, contraction - 1.0))
            pairs += 1
    results.append(
        PropertyResult("livsic-multiplication", pairs, worst, tol, worst < tol)
    )

    return ClassPropertiesReport(tuple(results))
