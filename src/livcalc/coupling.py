"""Coupling of contractive half-plane functions: the angle construction from
a pair of extension-parameter moduli, the rational coupling formula, its
general-k form, the convex addition law for half-plane functions, the
multiplicative law for characteristic functions and their parameters, and
the class laws that check both over a sample corpus."""

from __future__ import annotations

import itertools
import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .core import (
    IDENTITY_TOL,
    AnalyticFn,
    EvaluationGrid,
    FnKind,
    Record,
    divide_off_pole,
    require_in,
    require_kind,
    sup_deviation,
    worst_of,
)
from .errors import OutOfRange
from .moebius import MoebiusMap, ensure_kappa


class CouplingAngles(Record):
    """The pair (alpha, beta) parametrizing a coupling.

    For inputs produced by :func:`coupling_angles` the defining relations
    sin(beta) = kappa1 sin(alpha) and cos(alpha) = kappa2 cos(beta) hold to
    1e-14.  The range check admits beta = pi/2 so the symmetric collapse
    (alpha = beta = pi/2) remains expressible.
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: float, beta: float):
        super().__init__(require_in("alpha", alpha, "[0, pi/2]", 0.0, math.pi / 2),
                         require_in("beta", beta, "[0, pi/2]", 0.0, math.pi / 2))

    def trig(self):
        """(cos a cos b, sin a sin b), the two coefficients of the coupling."""
        return (
            math.cos(self.alpha) * math.cos(self.beta),
            math.sin(self.alpha) * math.sin(self.beta),
        )


def coupling_angles(kappa1: float, kappa2: float) -> CouplingAngles:
    """Angles (alpha, beta) determined by the moduli kappa1, kappa2 in [0, 1).

    With r = sqrt((1 - kappa2^2)/(1 - kappa1^2)), alpha = atan2(r, kappa2) and
    beta = arctan(kappa1 r), so tan(beta) = kappa1 kappa2 tan(alpha).  No case
    is needed at kappa2 = 0: there alpha = pi/2 and beta = arcsin(kappa1).

    Takes moduli only.  Complex extension parameters are not handled
    anywhere yet (ROADMAP Direction 10).
    """
    k1 = require_in("kappa1", kappa1, "[0, 1)", 0.0, 1.0)
    k2 = require_in("kappa2", kappa2, "[0, 1)", 0.0, 1.0)
    ratio = math.sqrt((1.0 - k2 * k2) / (1.0 - k1 * k1))
    return CouplingAngles(math.atan2(ratio, k2), math.atan(k1 * ratio))


def couple_livsic(s1: AnalyticFn, s2: AnalyticFn, angles: CouplingAngles) -> AnalyticFn:
    """The coupled contractive function

        s = [cc*s1 - s1*s2 + ss*s2] / [1 - (ss*s1 + cc*s2)],

    with cc = cos(alpha)cos(beta) and ss = sin(alpha)sin(beta).  For
    contractive inputs with cc + ss <= 1 the denominator cannot vanish; a
    vanishing denominator therefore signals invalid input.
    """
    require_kind(FnKind.LIVSIC, "couple_livsic", s1=s1, s2=s2)
    cc, ss = angles.trig()

    def evaluator(zs):
        v1, v2 = s1.evaluator(zs), s2.evaluator(zs)
        return divide_off_pole(cc * v1 - v1 * v2 + ss * v2, 1.0 - (ss * v1 + cc * v2))

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
    k = require_in("k", k, "[0, 1)", 0.0, 1.0)
    cc, ss = angles.trig()
    a1 = cc + k * ss
    a2 = ss + k * cc
    lhs = MoebiusMap.disk_automorphism(k).after(
        couple_livsic(s1, s2, angles), FnKind.GENERIC, f"general-k left[k={k}]")

    def rhs(zs):
        v1, v2 = s1.evaluator(zs), s2.evaluator(zs)
        return divide_off_pole(a1 * v1 + a2 * v2 - v1 * v2 - k,
                               a2 * v1 + a1 * v2 - k * v1 * v2 - 1.0)

    return sup_deviation(lhs, AnalyticFn(rhs, FnKind.GENERIC, f"general-k right[k={k}]"), grid)


def convex_sum(alpha: float, v1, v2):
    """cos^2(alpha) v1 + sin^2(alpha) v2 for a finite angle: the addition law on values."""
    if not math.isfinite(alpha):
        raise OutOfRange(f"alpha must be finite, got {alpha}")
    return math.cos(alpha) ** 2 * v1 + math.sin(alpha) ** 2 * v2


def add_weyl(M1: AnalyticFn, M2: AnalyticFn, alpha: float) -> AnalyticFn:
    """Convex combination cos^2(alpha) M1 + sin^2(alpha) M2 (:func:`convex_sum`).

    Preserves the half-plane range and the normalization M(i) = i when both
    inputs are normalized."""
    require_kind(FnKind.HERGLOTZ, "add_weyl", M1=M1, M2=M2)
    return AnalyticFn(
        evaluator=lambda zs: convex_sum(alpha, M1.evaluator(zs), M2.evaluator(zs)),
        kind=FnKind.HERGLOTZ,
        label=f"add[{M1.label} , {M2.label}; alpha={float(alpha)}]",
    )


class TaggedCharacteristic(Record):
    """A characteristic function together with its extension parameter.

    Construction measures the tag defect |fn(i) - kappa|, kept as
    ``tag_defect``, and rejects a tag whose defect reaches IDENTITY_TOL."""

    __slots__ = ("fn", "kappa", "tag_defect")

    def __init__(self, fn: AnalyticFn, kappa: complex):
        kappa = ensure_kappa(kappa)
        require_kind(FnKind.CHARACTERISTIC, "TaggedCharacteristic", fn=fn)
        defect = abs(fn(1j) - kappa)
        if defect >= IDENTITY_TOL:
            raise OutOfRange(f"tag kappa = {kappa} disagrees with fn(i) by {defect:.3g}")
        super().__init__(fn, kappa, defect)


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
    sin^2(alpha) M2: the worst |M(i) - i| and the signed worst -min Im M over
    the grid, negative when M maps the grid strictly into the half-plane."""
    require_kind(FnKind.HERGLOTZ, "convexity_defects", M1=M1, M2=M2)
    zs = np.append(grid.points, 1j)  # one sweep of each leaf gives M(i) too
    v1, v2 = M1(zs), M2(zs)
    sums = [convex_sum(alpha, v1, v2) for alpha in alphas]
    return (worst_of(abs(v[-1] - 1j) for v in sums),
            float(np.max([-np.min(v[:-1].imag) for v in sums])))


_CONVEXITY_ANGLES = (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)


def _pairs(items: Sequence) -> List[tuple]:
    return list(itertools.combinations_with_replacement(items, 2))


def _worst(law: str, deviations: Iterable) -> Tuple[str, float]:
    deviations = list(deviations)
    if not deviations:
        raise ValueError(f"{law}: the corpus has no sample pair for this law")
    return law, worst_of(deviations)


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
    # each sample swept once over the grid with i appended: its last value is
    # its value at i, and a product's values are its factors' products
    zs = np.append(grid.points, 1j)
    sweeps = [S(zs) for S in charac]
    tagged = [(TaggedCharacteristic(S, v[-1]), v[:-1]) for S, v in zip(charac, sweeps)]
    products = [(multiply_characteristic(t1, t2), (t1, t2), v1 * v2)
                for (t1, v1), (t2, v2) in _pairs(tagged)]
    livsic_values = [(v[-1], v[:-1]) for v in (s(zs) for s in livsic)]
    return [
        _worst("herglotz-convexity",
               (d for M1, M2 in _pairs(herglotz)
                for d in convexity_defects(M1, M2, _CONVEXITY_ANGLES, grid))),
        _worst("characteristic-multiplication",
               (d for p, _, v in products for d in (p.tag_defect, np.abs(v) - 1.0))),
        _worst("vanishing-ideal",
               (abs(p.kappa) + p.tag_defect for p, (t1, t2), _ in products
                if min(abs(t1.kappa), abs(t2.kappa)) < IDENTITY_TOL)),
        _worst("livsic-multiplication",
               (d for (a1, v1), (a2, v2) in _pairs(livsic_values)
                for d in (abs(a1 * a2), np.abs(v1 * v2) - 1.0))),
    ]
