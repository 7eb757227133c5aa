"""Closed forms for the first-order differentiation model on [0, ell]: its
contractive function, characteristic function exp(i ell z), extension
parameter exp(-ell), the explicit deficiency elements g_+ and g_-, and the
interval split as an operator coupling of the models on the two parts.

The quadrature route to the same contractive function lives in
:mod:`livcalc.oracle` and deliberately shares no integration code with the
closed forms here."""

from __future__ import annotations

import math

import numpy as np

from .coupling import couple_livsic, coupling_angles
from .core import (
    AnalyticFn, EvaluationGrid, FnKind, Record, require_in, require_length, sup_deviation,
)
from .errors import OutOfRange


class _ClosedForm(AnalyticFn):
    """A closed form of the interval model.  Its values lie in the unit disk,
    so the pole guard rejects a value only where i ell z overflowed.  It sets
    no ``__slots__``, so that Record's field list stays AnalyticFn's."""

    def pole_message(self, z) -> str:
        return (f"{self.label}: no finite value at z = {complex(z)} (|z| = {abs(z):.6g}): "
                f"ell * z overflows a double")


class ModelFunctions(Record):
    """The closed forms of one interval model: its contractive function
    ``livsic``, its characteristic function ``characteristic`` and its
    extension parameter ``kappa``."""

    __slots__ = ("livsic", "characteristic", "kappa")


def model_closed_forms(ell: float) -> ModelFunctions:
    """The three closed forms for interval length ``ell``:

        s(z) = (e^{i ell z} - e^{-ell}) / (e^{-ell} e^{i ell z} - 1),
        S(z) = e^{i ell z},
        kappa = e^{-ell},

    already related by the disk automorphism S = (s - kappa)/(kappa s - 1).
    With E = expm1(i ell z), s is evaluated as
    (E - expm1(-ell)) / (e^{-ell} E + expm1(-ell)), which keeps its digits as
    ell -> 0, where e^{-ell} rounds to 1.  The denominator is
    e^{i ell z - ell} - 1, at least 1 - e^{-ell} in modulus for Im z > 0.

    The error of s is bounded in absolute terms, about ell |z| units of
    roundoff, not relative to |s|: at ell = 400 and z = 2i this returns
    s = -0, where the value is e^{-400}, about 1.9e-174.
    """
    ell = require_length(ell)
    decay = math.exp(-ell)
    decay_m1 = math.expm1(-ell)

    def s_eval(zs):
        e = np.expm1(1j * ell * zs)
        return (e - decay_m1) / (decay * e + decay_m1)

    livsic = _ClosedForm(
        evaluator=s_eval,
        kind=FnKind.LIVSIC,
        label=f"interval-model s[ell={ell}]",
    )
    characteristic = _ClosedForm(
        evaluator=lambda zs: np.exp(1j * ell * zs),
        kind=FnKind.CHARACTERISTIC,
        label=f"interval-model S[ell={ell}]",
    )
    return ModelFunctions(livsic, characteristic, decay)


class DeficiencyElement(Record):
    """An explicit defect element of the interval model: a ``length``, an
    ``evaluator`` from [0, length] to the complex numbers, and a ``label``."""

    __slots__ = ("length", "evaluator", "label")

    def __call__(self, x: float) -> complex:
        if not (0.0 <= x <= self.length):
            raise OutOfRange(f"x = {x} outside [0, {self.length}]")
        return complex(self.evaluator(x))


def _normalizer(ell: float) -> float:
    """sqrt(2)/sqrt(1 - e^{-2 ell}), the factor that gives g_+ and g_- unit
    norm once each exponential is scaled to at most 1 on [0, ell]."""
    return math.sqrt(2.0) / math.sqrt(-math.expm1(-2.0 * ell))


def g_plus(ell: float) -> DeficiencyElement:
    """g_+(x) = sqrt(2)/sqrt(e^{2 ell} - 1) * e^x, unit norm in L^2(0, ell).

    Evaluated as sqrt(2) e^{x - ell}/sqrt(1 - e^{-2 ell}), which does not
    overflow at large ell."""
    ell = require_length(ell)
    c = _normalizer(ell)
    return DeficiencyElement(ell, lambda x: c * math.exp(x - ell), f"g_plus[ell={ell}]")


def g_minus(ell: float) -> DeficiencyElement:
    """g_-(x) = sqrt(2)/sqrt(1 - e^{-2 ell}) * e^{-x}, unit norm."""
    ell = require_length(ell)
    c = _normalizer(ell)
    return DeficiencyElement(ell, lambda x: c * math.exp(-x), f"g_minus[ell={ell}]")


def split_interval_check(
    ell: float, gamma_fraction: float, grid: EvaluationGrid
) -> float:
    """The coupling theorem on the split ell = ell1 + ell2, with
    ell1 = gamma_fraction * ell: the sup over the grid of |s_ell - s|, where
    s = couple_livsic(s_ell1, s_ell2, coupling_angles(e^{-ell1}, e^{-ell2})).
    A wrong or swapped pair of parameters fails it."""
    ell = require_length(ell)
    gamma = require_in("gamma_fraction", gamma_fraction, "(0, 1)", 0.0, 1.0)
    ell1 = gamma * ell
    part1 = model_closed_forms(ell1)
    part2 = model_closed_forms(ell - ell1)
    coupled = couple_livsic(part1.livsic, part2.livsic, coupling_angles(part1.kappa, part2.kappa))
    return sup_deviation(model_closed_forms(ell).livsic, coupled, grid)
