"""Measure models, the half-plane integral representation they generate, the
Cayley bridge to contractive functions, and Stieltjes-Perron recovery of the
measure from boundary values.

The representation realized here is

    M(z) = integral over R of [1/(lam - z) - lam/(1 + lam^2)] dmu(lam),

normalized (when it is) by integral of dmu/(1 + lam^2) = 1, equivalently
M(i) = i.  Measure models here are desk-scale: finitely many atoms plus a
compactly sampled density.  The representation theorem allows infinite
mass with a finite normalization integral; the inversion is tested on such
a measure, the interval model's Weyl measure (tests/test_measure.py,
TestModelWeylMeasure).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .core import (COUNTS, OVERFLOW_GUARD, AnalyticFn, FnKind, Record, evaluate_many, json_list,
                   json_number, require_kind)
from .errors import EmptyMeasure, OutOfRange, PoleEncountered, UsageError, WindowTooSmall
from .moebius import MoebiusMap


def require_window(name: str, x_lo: float, x_hi: float) -> tuple:
    """(x_lo, x_hi) as floats, for a window with finite ends, x_lo < x_hi
    and a finite width; OutOfRange, naming ``name``, otherwise."""
    x_lo, x_hi = float(x_lo), float(x_hi)
    # a finite width hi - lo rules out infinite and NaN ends too
    if not (math.isfinite(x_hi - x_lo) and x_hi > x_lo):
        raise OutOfRange(f"{name} {x_lo!r}:{x_hi!r} must be finite with lo < hi "
                         f"and a finite width")
    return x_lo, x_hi


class SampledDensity(Record):
    """Nonnegative density sampled on a uniform lattice over [x_lo, x_hi].

    The sample count must be odd so the stored lattice carries a composite
    Simpson rule directly.
    """

    __slots__ = ("x_lo", "x_hi", "values")

    def __init__(self, x_lo: float, x_hi: float, values: tuple):
        x_lo, x_hi = require_window("density window", x_lo, x_hi)
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 1 or vals.size < 3 or vals.size % 2 == 0:
            raise OutOfRange("density needs an odd sample count >= 3")
        if not np.all(np.isfinite(vals) & (vals >= 0.0)):
            raise OutOfRange("density samples must be finite and nonnegative")
        super().__init__(x_lo, x_hi, tuple(vals.tolist()))

    @property
    def h(self) -> float:
        return (self.x_hi - self.x_lo) / (len(self.values) - 1)

    def lattice(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, len(self.values))

    def quadrature_weights(self) -> np.ndarray:
        """Simpson weights times sample values: ready-to-sum kernel weights."""
        return _kernels.simpson_weights(len(self.values), self.h) * np.asarray(self.values)


class BorelMeasureModel(Record):
    """Finite atoms plus an optional sampled absolutely-continuous part."""

    __slots__ = ("atoms", "density")

    def __init__(self, atoms: tuple = (), density: Optional[SampledDensity] = None):
        atoms = tuple((float(loc), float(w)) for loc, w in atoms)
        locs = [a[0] for a in atoms]
        if len(set(locs)) != len(locs):
            raise OutOfRange("atom locations must be pairwise distinct")
        if any(w <= 0.0 or not math.isfinite(w) for _, w in atoms):
            raise OutOfRange("atom weights must be strictly positive and finite")
        if any(not math.isfinite(loc) for loc, _ in atoms):
            raise OutOfRange("atom locations must be finite")
        super().__init__(atoms, density)
        total = self.normalization_integral()
        if not math.isfinite(total):
            raise OutOfRange("normalization integral must be finite")
        if total > OVERFLOW_GUARD:
            raise OutOfRange(f"normalization integral = {total} above {OVERFLOW_GUARD:g}: "
                             "M(i) = i * integral would be a pole")

    def locations(self) -> np.ndarray:
        return np.asarray([a[0] for a in self.atoms], dtype=np.float64)

    def weights(self) -> np.ndarray:
        return np.asarray([a[1] for a in self.atoms], dtype=np.float64)

    def _density_arrays(self):
        if self.density is None:
            return np.empty(0), np.empty(0)
        return self.density.lattice(), self.density.quadrature_weights()

    def normalization_integral(self) -> float:
        """integral of dmu(lam) / (1 + lam^2).  Where lam^2 overflows, for
        |lam| above about 1.3e154, the term is 0, the integrand's limit, and
        no overflow warning is printed."""
        locs, ws = self.locations(), self.weights()
        x, w = self._density_arrays()
        with np.errstate(over="ignore"):
            return float(np.sum(ws / (1.0 + locs**2))) + float(np.sum(w / (1.0 + x**2)))

    @classmethod
    def from_json(cls, obj: dict) -> "BorelMeasureModel":
        atoms = tuple(
            (json_number(a, "location", f"atom {k}"), json_number(a, "weight", f"atom {k}"))
            for k, a in enumerate(json_list(obj, "atoms", "measure model", default=[]))
        )
        dens = None
        raw = obj.get("density")
        if raw is not None:
            values = json_list(raw, "values", "density")
            dens = SampledDensity(
                json_number(raw, "x_lo", "density"), json_number(raw, "x_hi", "density"),
                tuple(json_number(values, k, "density values") for k in range(len(values))),
            )
            h = json_number(raw, "h", "density") if "h" in raw else dens.h
            if not abs(dens.h - h) <= 1e-12 * max(1.0, dens.h):  # a NaN h fails too
                raise UsageError("density 'h' inconsistent with window and sample count")
        return cls(atoms, dens)


def realize_herglotz(mu: BorelMeasureModel) -> AnalyticFn:
    """The half-plane function represented by ``mu``.

    Atoms contribute the kernel sum directly; the density contributes the
    same kernel integrated by composite Simpson on its stored lattice (the
    kernel is smooth at the probe heights used here, so fixed-order
    quadrature at the stored resolution is adequate).
    """
    locs, ws = mu.locations(), mu.weights()
    dx, dw = mu._density_arrays()
    if len(locs) == 0 and float(np.sum(dw)) == 0.0:
        raise EmptyMeasure("measure has neither atoms nor density mass")
    return AnalyticFn(
        evaluator=lambda zs: _kernels.herglotz_eval(locs, ws, dx, dw, zs),
        kind=FnKind.HERGLOTZ,
        label=f"measure[{len(mu.atoms)} atoms"
        + (", density" if mu.density is not None else "")
        + "]",
    )


def normalization_defect(mu: BorelMeasureModel) -> float:
    """|integral of dmu/(1+lam^2) - 1|; zero iff M(i) = i."""
    return abs(mu.normalization_integral() - 1.0)


def livsic_from_weyl(M: AnalyticFn) -> AnalyticFn:
    """Cayley transform s = (M - i)/(M + i) of a Herglotz function."""
    require_kind(FnKind.HERGLOTZ, "livsic_from_weyl", M=M)
    # M(z) = -i is impossible for genuine Herglotz input
    return MoebiusMap.cayley().after(
        M, FnKind.LIVSIC, f"cayley({M.label})" if M.label else "cayley(M)"
    )


# --- Stieltjes inversion ------------------------------------------------


class BoundedMinimum(Record):
    """The point ``x`` that :func:`minimize_scalar` returns and the number
    ``nfev`` of evaluations of ``func`` it made."""

    __slots__ = ("x", "nfev")


XATOL = 1e-13


def minimize_scalar(func, bounds) -> BoundedMinimum:
    """Minimize ``func`` over the closed interval ``bounds``, a window of
    :func:`require_window`, assuming that it is a negative Lorentzian
    -w*eps/((x - lam)^2 + eps^2) near its minimum, as -Im M(x + i*eps) is
    near an atom of weight w at lam.  Then g = -1/func is a parabola with
    vertex lam: fit it through the bracket's ends and midpoint, then again
    around that vertex at the spacing the first fit implies (eps/sqrt(2) for
    a pure Lorentzian, floored at :data:`XATOL`), clamping each vertex to
    ``bounds``.  Where g is not convex, or not positive and finite, the
    current point is kept.  At most six evaluations, all counted in
    ``nfev``.  The name stays because the benchmark tracer binds it.
    """
    x1, x2 = require_window("bounds", bounds[0], bounds[1])
    nfev = 0

    def g(x):
        nonlocal nfev
        nfev += 1
        f = float(func(x))
        value = -1.0 / f if f < 0.0 else math.nan
        return value if math.isfinite(value) else math.nan

    def fit(x, h, mid):
        # vertex of the parabola through (x - h, x, x + h), and its curvature
        lo, hi = g(x - h), g(x + h)
        curve = lo - 2.0 * mid + hi
        if not curve > 0.0:
            return x, None
        return min(max(x + h * (lo - hi) / (2.0 * curve), x1), x2), curve

    x, h = 0.5 * (x1 + x2), 0.5 * (x2 - x1)
    mid = g(x)
    if mid > 0.0:
        x, curve = fit(x, h, mid)
        if curve is not None and (mid := g(x)) > 0.0:
            x, _ = fit(x, min(max(h * math.sqrt(mid / curve), XATOL), h), mid)
    return BoundedMinimum(float(x), nfev)


class RecoveredAtom(Record):
    """A point mass found by Stieltjes inversion: its ``location``, its
    ``weight`` and the ``residual`` |extrapolated weight - weight at the
    smallest epsilon|."""

    __slots__ = ("location", "weight", "residual")


class InversionResult(Record):
    """Estimated measure recovered from boundary values of Im M: the tuple of
    recovered ``atoms``, the remaining ``density`` and the ``scan_spacing``."""

    __slots__ = ("atoms", "density", "scan_spacing")


def _extrapolate_to_zero(eps: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Neville polynomial extrapolation of values(eps) to eps = 0.

    ``values`` has shape (n_eps, ...); extrapolation runs along axis 0.
    """
    table = [np.asarray(v, dtype=np.float64) for v in values]
    n = len(eps)
    for level in range(1, n):
        table = [
            (eps[i] * table[i + 1] - eps[i + level] * table[i])
            / (eps[i] - eps[i + level])
            for i in range(n - level)
        ]
    return table[0]


def stieltjes_invert(
    M: AnalyticFn,
    window: tuple,
    eps_schedule: Sequence[float],
    n_scan: int = 2001,
) -> InversionResult:
    """Recover a measure estimate from boundary values of Im M.

    Scans (1/pi) Im M(x + i*eps) over ``window`` for each ``eps`` in the
    strictly decreasing schedule.  Peaks whose mass eps * Im M stays put
    (changes by less than 10%) between consecutive eps values are point
    masses: their locations are refined by a Lorentzian vertex fit at the
    smallest eps and their weights Richardson-extrapolated to eps = 0,
    with the extrapolation residual reported per atom.  What remains, after
    subtracting the detected atoms' Poisson kernels, extrapolates to the
    density estimate.

    Raises WindowTooSmall when Im M at a window edge exceeds 10x the window
    median, i.e. when mass visibly leaks through the boundary, and
    OutOfRange, naming eps and x, where |M(x + i*eps)| passes the pole guard,
    or naming the window, where its n_scan points do not strictly increase.
    """
    require_kind(FnKind.HERGLOTZ, "stieltjes_invert", M=M)
    eps = np.asarray(list(eps_schedule), dtype=np.float64)
    if len(eps) < 2 or not np.all(np.isfinite(eps) & (eps > 0.0)) or np.any(np.diff(eps) >= 0.0):
        raise OutOfRange("eps_schedule must be >= 2 strictly decreasing finite positive reals")
    x_lo, x_hi = require_window("window", window[0], window[1])
    if n_scan < 5 or n_scan % 2 == 0:
        raise OutOfRange("n_scan must be odd and >= 5")

    def im_m(xs, e):
        zs = np.asarray(xs) + 1j * e
        try:
            return evaluate_many(M, zs).imag
        except PoleEncountered:
            # the pole guard's message names z, not which input set it
            with np.errstate(all="ignore"):
                x = zs[~(np.abs(M.evaluator(zs)) <= OVERFLOW_GUARD)][0].real
            raise OutOfRange(f"eps = {float(e)!r} at x = {float(x)!r}: |M(x + i*eps)| above "
                             f"the pole guard {OVERFLOW_GUARD:g}") from None

    scan = np.linspace(x_lo, x_hi, n_scan)
    if not np.all(np.diff(scan) > 0.0):
        raise OutOfRange(f"window {x_lo!r}:{x_hi!r} too narrow for n_scan = {n_scan} scan points")
    spacing = scan[1] - scan[0]
    imags = np.empty((len(eps), n_scan))
    for k, e in enumerate(eps):
        imags[k] = im_m(scan, e)

    finest = imags[-1]
    # n_scan is odd and every value finite: the middle element is the median
    median = float(np.sort(finest)[n_scan // 2])
    if max(finest[0], finest[-1]) > 10.0 * median:
        raise WindowTooSmall(
            f"Im M at window edge ({max(finest[0], finest[-1]):.3g}) exceeds "
            f"10x the window median ({median:.3g})"
        )

    e_min = eps[-1]
    atoms = []
    inner = finest[1:-1]
    peaks = np.flatnonzero((inner > finest[:-2]) & (inner >= finest[2:])) + 1
    COUNTS["measure.candidates"] += peaks.size
    for i in peaks:
        bracket = (scan[i] - spacing, scan[i] + spacing)
        refined = minimize_scalar(lambda x: -im_m([x], e_min)[0], bounds=bracket)
        COUNTS["measure.refinements"] += 1
        COUNTS["measure.refine_evals"] += refined.nfev
        loc = float(refined.x)
        mass = np.array([e * im_m([loc], e)[0] for e in eps])
        if mass[-1] <= 1e-6:
            continue
        # point mass: eps * Im M converges to the weight; density: it decays
        # with eps, so consecutive values move by far more than 10%
        if any(
            abs(mass[k + 1] - mass[k]) > 0.1 * abs(mass[k]) for k in range(len(eps) - 1)
        ):
            continue
        weight = float(_extrapolate_to_zero(eps, mass))
        atoms.append(RecoveredAtom(loc, weight, abs(weight - mass[-1])))

    atoms.sort(key=lambda a: a.location)
    deduped = []
    for a in atoms:
        if deduped and a.location - deduped[-1].location < 0.5 * spacing:
            continue
        deduped.append(a)
    atoms = deduped

    # density: remove the detected atoms' Poisson kernels, then extrapolate;
    # where (x - location)^2 overflows, the kernel is 0, its limit
    residual_imags = imags.copy()
    with np.errstate(over="ignore"):
        for a in atoms:
            for k, e in enumerate(eps):
                residual_imags[k] -= a.weight * e / ((scan - a.location) ** 2 + e * e)
    density_vals = _extrapolate_to_zero(eps, residual_imags / math.pi)
    density_vals = np.clip(density_vals, 0.0, None)
    density = SampledDensity(x_lo, x_hi, tuple(density_vals))

    return InversionResult(tuple(atoms), density, float(spacing))
