"""Coupling of contractive half-plane functions: the angle construction from
a pair of extension-parameter moduli, the rational coupling formula, its
general-k form, the convex addition law for half-plane functions, the
multiplicative law for characteristic functions and their parameters, and
the class laws that check both over a sample corpus."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

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

    Takes moduli only.  Complex extension parameters are not handled
    anywhere yet (ROADMAP Direction 10).
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
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
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

    Construction measures the tag defect |fn(i) - kappa|, kept as
    ``tag_defect``, and rejects a tag whose defect reaches IDENTITY_TOL."""

    fn: AnalyticFn
    kappa: complex
    tag_defect: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "kappa", ensure_kappa(self.kappa))
        if self.fn.kind is not FnKind.CHARACTERISTIC:
            raise ValueError("tagged function must have Characteristic kind")
        defect = abs(self.fn(1j) - self.kappa)
        if defect >= IDENTITY_TOL:
            raise ValueError(
                f"tag kappa = {self.kappa} disagrees with fn(i) by {defect:.3g}"
            )
        object.__setattr__(self, "tag_defect", defect)


def multiply_characteristic(
    t1: TaggedCharacteristic, t2: TaggedCharacteristic
) -> TaggedCharacteristic:
    """Pointwise product with multiplied parameter tag.

    The product is represented lazily (evaluation composes the factors), so
    the multiplicative law is exact by construction; the product's
    ``tag_defect`` measures |(S1 S2)(i) - kappa1 kappa2| once, when it is
    built."""
    f1, f2 = t1.fn, t2.fn
    product = AnalyticFn(
        evaluator=lambda zs: f1.evaluator(zs) * f2.evaluator(zs),
        kind=FnKind.CHARACTERISTIC,
        label=f"product[{f1.label} , {f2.label}]",
    )
    return TaggedCharacteristic(product, t1.kappa * t2.kappa)


def convexity_defects(
    M1: AnalyticFn, M2: AnalyticFn, alphas: Iterable[float], grid: EvaluationGrid
) -> Tuple[float, float]:
    """The addition law over the angles, for M = cos^2(alpha) M1 +
    sin^2(alpha) M2: the worst |M(i) - i| and the worst -min Im M over the
    grid, which is negative when M maps the grid strictly into the
    half-plane."""
    sums = [add_weyl(M1, M2, alpha) for alpha in alphas]
    return max(abs(M(1j) - 1j) for M in sums), max(-min_imag(M, grid) for M in sums)


_CONVEXITY_ANGLES = (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)


def _pairs(items: Sequence) -> List[tuple]:
    return list(itertools.combinations_with_replacement(items, 2))


def _worst(law: str, deviations: Iterable[float]) -> Tuple[str, float]:
    deviations = list(deviations)
    if not deviations:
        raise ValueError(f"{law}: the corpus has no sample pair for this law")
    return law, max(deviations)


def verify_class_properties(
    samples: Sequence[AnalyticFn], grid: EvaluationGrid
) -> List[Tuple[str, float]]:
    """The (law, worst deviation) of the four class laws over the pairs of
    corpus samples of one kind, each pair unordered and possibly a sample
    with itself:

    (i)   herglotz-convexity: convex combinations of Herglotz samples stay
          Herglotz with value i at i (:func:`convexity_defects`);
    (ii)  characteristic-multiplication: products of characteristic samples
          are contractive, with the product of the parameters at i (the
          product's ``tag_defect``);
    (iii) vanishing-ideal: a product with a vanishing-parameter factor
          vanishes at i, as |kappa1 kappa2| plus the product's
          ``tag_defect`` bounds |(S1 S2)(i)|; pointwise products commute,
          so the ideal is two-sided;
    (iv)  livsic-multiplication: products of Livsic samples are contractive
          and vanish at i.

    A law with no sample pair in the corpus raises ValueError: a sweep over
    nothing verifies nothing.
    """
    herglotz, charac, livsic = (
        [f for f in samples if f.kind is kind]
        for kind in (FnKind.HERGLOTZ, FnKind.CHARACTERISTIC, FnKind.LIVSIC)
    )
    tagged = [TaggedCharacteristic(S, extract_kappa(S)) for S in charac]
    products = [(multiply_characteristic(*pair), pair) for pair in _pairs(tagged)]
    zs = grid.points
    # the value at i and the values on the grid of each Livsic sample
    livsic_values = [(s(1j), s(zs)) for s in livsic]
    return [
        _worst("herglotz-convexity",
               (max(convexity_defects(M1, M2, _CONVEXITY_ANGLES, grid))
                for M1, M2 in _pairs(herglotz))),
        _worst("characteristic-multiplication",
               (max(p.tag_defect, max_modulus(p.fn, grid) - 1.0) for p, _ in products)),
        _worst("vanishing-ideal",
               (abs(p.kappa) + p.tag_defect for p, (t1, t2) in products
                if min(abs(t1.kappa), abs(t2.kappa)) < IDENTITY_TOL)),
        _worst("livsic-multiplication",
               (max(abs(a1 * a2), float(np.max(np.abs(v1 * v2))) - 1.0)
                for (a1, v1), (a2, v2) in _pairs(livsic_values))),
    ]
