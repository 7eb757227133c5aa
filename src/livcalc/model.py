"""Closed forms for the first-order differentiation model on [0, ell]: its
contractive function, characteristic function exp(i ell z), extension
parameter exp(-ell), the explicit deficiency elements, and the
interval-splitting consistency check.

The quadrature route to the same contractive function lives in
:mod:`livcalc.oracle` and deliberately shares no integration code with the
closed forms here."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coupling import TaggedCharacteristic, multiply_characteristic
from .core import AnalyticFn, EvaluationGrid, FnKind, sup_deviation
from .errors import LivcalcError


@dataclass(frozen=True)
class Interval:
    """A finite interval [a, b] with a < b.

    Only the length enters any of the closed forms (the model is translation
    invariant), so ``Interval(a, b).length`` is the handle the rest of the
    module consumes."""

    a: float
    b: float

    def __post_init__(self):
        if not float(self.b) > float(self.a):
            raise ValueError(f"interval needs a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return float(self.b) - float(self.a)


@dataclass(frozen=True)
class ModelFunctions:
    livsic: AnalyticFn
    characteristic: AnalyticFn
    kappa: float


def _require_positive_length(ell: float) -> float:
    ell = float(ell)
    if not ell > 0.0:
        raise ValueError(f"interval length must be positive, got {ell}")
    return ell


def model_closed_forms(ell: float) -> ModelFunctions:
    """The three closed forms for interval length ``ell``:

        s(z) = (e^{i ell z} - e^{-ell}) / (e^{-ell} e^{i ell z} - 1),
        S(z) = e^{i ell z},
        kappa = e^{-ell},

    already related by the disk automorphism S = (s - kappa)/(kappa s - 1).
    s is evaluated as (expm1(i ell z) - expm1(-ell)) / expm1(i ell z - ell),
    which keeps its digits as ell -> 0, where e^{-ell} rounds to 1.
    """
    ell = _require_positive_length(ell)
    decay = math.exp(-ell)
    decay_m1 = math.expm1(-ell)

    def s_eval(zs):
        iz = 1j * ell * zs
        return (np.expm1(iz) - decay_m1) / np.expm1(iz - ell)

    livsic = AnalyticFn(
        evaluator=s_eval,
        kind=FnKind.LIVSIC,
        label=f"interval-model s[ell={ell}]",
    )
    characteristic = AnalyticFn(
        evaluator=lambda zs: np.exp(1j * ell * zs),
        kind=FnKind.CHARACTERISTIC,
        label=f"interval-model S[ell={ell}]",
    )
    return ModelFunctions(livsic, characteristic, decay)


@dataclass(frozen=True)
class DeficiencyElement:
    """An explicit defect element of the interval model, evaluatable on
    [0, ell]."""

    length: float
    evaluator: Callable[[float], complex]
    label: str

    def __call__(self, x: float) -> complex:
        if not (0.0 <= x <= self.length):
            raise ValueError(f"x = {x} outside [0, {self.length}]")
        return complex(self.evaluator(x))


def g_plus(ell: float) -> DeficiencyElement:
    """g_+(x) = sqrt(2)/sqrt(e^{2 ell} - 1) * e^x, unit norm in L^2(0, ell)."""
    ell = _require_positive_length(ell)
    c = math.sqrt(2.0) / math.sqrt(math.expm1(2.0 * ell))
    return DeficiencyElement(ell, lambda x: c * math.exp(x), f"g_plus[ell={ell}]")


def g_minus(ell: float) -> DeficiencyElement:
    """g_-(x) = sqrt(2)/sqrt(1 - e^{-2 ell}) * e^{-x}, unit norm."""
    ell = _require_positive_length(ell)
    c = math.sqrt(2.0) / math.sqrt(-math.expm1(-2.0 * ell))
    return DeficiencyElement(ell, lambda x: c * math.exp(-x), f"g_minus[ell={ell}]")


def g_z(ell: float, z: complex) -> DeficiencyElement:
    """g_z(x) = e^{-i z x}, the defect element at spectral parameter z."""
    ell = _require_positive_length(ell)
    z = complex(z)
    return DeficiencyElement(ell, lambda x: cmath.exp(-1j * z * x), f"g_z[z={z}]")


def split_interval_check(
    ell: float, gamma_fraction: float, grid: EvaluationGrid
) -> float:
    """Sup over the grid of |e^{i ell z} - e^{i ell1 z} e^{i ell2 z}| for the
    split ell = ell1 + ell2 with ell1 = gamma_fraction * ell.

    The product side is assembled through :func:`multiply_characteristic`,
    which also confirms the product parameter tag e^{-ell1} e^{-ell2}; a tag
    off by more than 1e-12 raises (it cannot, short of an implementation
    bug)."""
    ell = _require_positive_length(ell)
    gamma = float(gamma_fraction)
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma_fraction = {gamma} outside (0, 1)")
    ell1 = gamma * ell
    ell2 = ell - ell1
    whole = model_closed_forms(ell)
    part1 = model_closed_forms(ell1)
    part2 = model_closed_forms(ell2)
    product = multiply_characteristic(
        TaggedCharacteristic(part1.characteristic, part1.kappa),
        TaggedCharacteristic(part2.characteristic, part2.kappa),
    )
    tag_defect = abs(product.kappa - whole.kappa)
    if tag_defect > 1e-12:
        raise LivcalcError(f"split kappa tag defect {tag_defect:.3g} exceeds 1e-12")
    return sup_deviation(whole.characteristic, product.fn, grid)
