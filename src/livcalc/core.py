"""Analytic functions on the open upper half-plane: representation, grids,
the pinned tolerances, and pointwise comparison utilities.

Functions are represented by their array evaluators.  Every constructor in
the package returns an :class:`AnalyticFn`, so identity checks reduce to
array sweeps over an :class:`EvaluationGrid`.
"""

from __future__ import annotations

import enum
import math
import sys
from collections import defaultdict
from typing import Callable

import numpy as np

from .errors import OutOfRange, PoleEncountered, UsageError

#: Values with magnitude above this are treated as a pole hit.
OVERFLOW_GUARD = 1e12

# The pinned tolerances.  They are constants, not parameters: a verdict is
# only as strict as its tolerance, so no caller can loosen one.
#: Identity checks and values at i.
IDENTITY_TOL = 1e-10
#: The quadrature oracle against the closed form.
QUADRATURE_TOL = 1e-8
#: Relative atom-weight error of Stieltjes inversion.
INVERSION_REL_TOL = 0.02

#: The program's work, counted where it happens.  The counts only grow, so a
#: reader takes differences.  Keys: core.point_calls, core.array_calls,
#: core.grid_sweeps, core.points (evaluated), core.poles (points the guard
#: rejects), oracle.points, oracle.panels, and Stieltjes inversion's
#: measure.candidates, measure.refinements and measure.refine_evals.
COUNTS: defaultdict = defaultdict(int)


class FnKind(enum.Enum):
    """Class role of an analytic function on the upper half-plane."""

    LIVSIC = "livsic"                  # contractive, vanishing at i
    HERGLOTZ = "herglotz"              # maps the half-plane into itself
    CHARACTERISTIC = "characteristic"  # contractive
    GENERIC = "generic"


def require_upper(z: complex) -> complex:
    """Validate that ``z`` lies strictly in the open upper half-plane."""
    z = complex(z)
    if not (z.imag > 0.0) or not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise OutOfRange(f"point {z!r} is not in the open upper half-plane")
    return z


def require_upper_points(zs: np.ndarray) -> None:
    """:func:`require_upper` for each point of a complex ndarray."""
    outside = ~(zs.imag > 0.0) | ~np.isfinite(zs)
    if outside.any():
        require_upper(zs[np.argmax(outside)])


def require_in(name: str, value: float, interval: str, lo: float, hi: float) -> float:
    """``value`` as a float if it lies in ``interval``, "[lo, hi)", "[lo, hi]" or
    "(lo, hi)", whose brackets say which ends belong; else OutOfRange naming ``name``."""
    value = float(value)
    if not ((lo <= value if interval[0] == "[" else lo < value)
            and (value <= hi if interval[-1] == "]" else value < hi)):
        raise OutOfRange(f"{name} = {value} outside {interval}")
    return value


def require_kind(kind: FnKind, where: str, **fns) -> None:
    """ValueError, a program error, unless every function in ``fns`` (name:
    function) has the class role ``kind`` that ``where`` expects."""
    for name, f in fns.items():
        if f.kind is not kind:
            raise ValueError(f"{where} expects {kind.value.capitalize()}-kind input, "
                             f"{name} is {f.kind}")


def require_length(ell: float) -> float:
    """Validate an interval length: finite and at least the smallest normal
    double.  A subnormal length has fewer than 53 significant bits, and the
    closed form poles on the default grid there."""
    ell = float(ell)
    if not (ell >= sys.float_info.min and math.isfinite(ell)):
        raise OutOfRange(f"interval length must be finite and positive, at least "
                         f"{sys.float_info.min} (the smallest normal double), got {ell}")
    return ell


class Record:
    """An immutable value whose fields are the names in its class's
    ``__slots__``: repr, equality (between instances of one class) and hash
    follow the fields in order, and no code is generated at import.
    ``__init__`` takes the values in slot order and is the only writer of
    fields: a subclass validates its arguments, then calls it once."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    # copy, deepcopy and pickle restore the fields through these
    def __getstate__(self) -> tuple:
        return self._astuple()

    def __setstate__(self, state: tuple) -> None:
        Record.__init__(self, *state)


class AnalyticFn(Record):
    """An evaluatable analytic function on the open upper half-plane.

    ``evaluator`` maps a complex ndarray of half-plane points to the ndarray
    of values, elementwise and of the same shape, so a point has the same
    value alone as inside any array.  A value that is not finite or exceeds
    OVERFLOW_GUARD marks a pole.  Constructors that compose functions call the
    inner evaluators, so the domain check and the pole guard of
    :meth:`__call__` run once per call.  ``kind`` tags the class role the
    constructor claims for the function (contractivity for
    Livsic/characteristic kinds, nonnegative imaginary part for Herglotz);
    the claims are checked by probe sweeps, not at construction.
    """

    __slots__ = ("evaluator", "kind", "label")

    def __init__(self, evaluator: Callable[[np.ndarray], np.ndarray],
                 kind: FnKind = FnKind.GENERIC, label: str = ""):
        super().__init__(evaluator, kind, label)

    def __call__(self, z):
        """The value at a point, as a ``complex``, or the values over an
        array of points, as an ndarray of the same shape.

        Raises OutOfRange for a point outside the open upper half-plane and
        PoleEncountered where a value is not finite or exceeds
        OVERFLOW_GUARD.
        """
        point = np.ndim(z) == 0
        COUNTS["core.point_calls" if point else "core.array_calls"] += 1
        zs, values, bad = _guarded_values(self, z)
        if len(bad):
            raise PoleEncountered(self.pole_message(zs[bad[0]]))
        if point:
            return complex(values[0])
        return values.reshape(np.shape(z))

    def pole_message(self, z) -> str:
        """The message of the PoleEncountered at the point ``z``."""
        return f"{self.label or 'function'}: pole at {complex(z)}"


def _guarded_values(f: AnalyticFn, z):
    """(points, values, indices of the poles) of ``f`` over the points of
    ``z``, flattened."""
    zs = np.asarray(z, dtype=np.complex128).reshape(-1)
    COUNTS["core.points"] += zs.size
    require_upper_points(zs)
    with np.errstate(all="ignore"):
        values = np.asarray(f.evaluator(zs), dtype=np.complex128)
        modulus = np.abs(values)
    # NaN compares false, so one test catches NaN, infinities and overflow
    if modulus.max(initial=0.0) <= OVERFLOW_GUARD:
        return zs, values, ()
    bad = np.flatnonzero(~(modulus <= OVERFLOW_GUARD))
    COUNTS["core.poles"] += bad.size
    return zs, values, bad


def divide_off_pole(num, den):
    """``num / den``, with NaN wherever |den| < 1e-14: for the coupling
    formulas, where a 0/0 at a tiny |den| can leave a finite quotient that the
    pole guard of :meth:`AnalyticFn.__call__` would not see."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(den) < 1e-14, np.nan, num / den)


class EvaluationGrid(Record):
    """An ordered, duplicate-free set of probe points in the upper half-plane,
    held as one read-only complex ndarray.  Grids compare by identity."""

    __slots__ = ("points", "description")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, points: np.ndarray, description: str = ""):
        pts = np.array(points, dtype=np.complex128).reshape(-1)
        if pts.size == 0:
            raise OutOfRange("grid must be nonempty")
        require_upper_points(pts)
        ordered = np.sort(pts)
        if (ordered[1:] == ordered[:-1]).any():
            raise OutOfRange("grid points must be pairwise distinct")
        pts.flags.writeable = False
        super().__init__(pts, description)

    def __len__(self) -> int:
        return self.points.size

    def __iter__(self):
        """The points as Python complexes, in grid order."""
        return iter(self.points.tolist())


class ToleranceConfig:
    """The pinned tolerances as read-only attributes; takes no arguments."""

    __slots__ = ()
    identity_tol = IDENTITY_TOL
    quadrature_tol = QUADRATURE_TOL
    inversion_rel_tol = INVERSION_REL_TOL


def default_grid() -> EvaluationGrid:
    """The default probe grid: a 21x21 lattice on [-5, 5] x [0.1, 5] plus i.

    Dense enough to falsify the algebraic identities under test, cheap enough
    for property tests.  The distinguished point i is appended because many
    normalizations are pinned there.
    """
    res = np.linspace(-5.0, 5.0, 21)
    ims = np.linspace(0.1, 5.0, 21)
    lattice = (res[:, None] + 1j * ims).ravel()
    return EvaluationGrid(np.append(lattice, 1j), "default 21x21 lattice + i")


def evaluate_on_grid(f: AnalyticFn, grid: EvaluationGrid) -> list:
    """Evaluate ``f`` at every grid point, in grid order.

    A pole does not abort the sweep: the offending entry holds the
    :class:`PoleEncountered` instance instead of a complex value.
    """
    COUNTS["core.grid_sweeps"] += 1
    zs, values, bad = _guarded_values(f, grid.points)
    out = values.tolist()
    for k in bad:
        out[k] = PoleEncountered(f.pole_message(zs[k]))
    return out


def evaluate_many(f: AnalyticFn, zs: np.ndarray) -> np.ndarray:
    """``f`` over an array of points; raises PoleEncountered on any bad
    value."""
    return f(np.asarray(zs, dtype=np.complex128))


def sup_deviation(f: AnalyticFn, g: AnalyticFn, grid: EvaluationGrid) -> float:
    """max over the grid of |f(z) - g(z)|; symmetric in ``f`` and ``g``."""
    zs = grid.points
    return float(np.max(np.abs(f(zs) - g(zs))))


def max_modulus(f: AnalyticFn, grid: EvaluationGrid) -> float:
    """Largest |f(z)| over the grid (contractivity probe)."""
    return float(np.max(np.abs(f(grid.points))))


def min_imag(f: AnalyticFn, grid: EvaluationGrid) -> float:
    """Smallest Im f(z) over the grid (Herglotz probe)."""
    return float(np.min(f(grid.points).imag))


def worst_of(deviations) -> float:
    """The largest of the deviations, numbers and arrays in any mix, clipped
    below at 0; NaN as soon as one value is NaN, where the builtin ``max``
    drops a NaN that is not the first item.  No deviation at all raises
    ValueError: a sweep over nothing verifies nothing."""
    worst = None
    for d in deviations:
        d = float(d.max()) if isinstance(d, np.ndarray) else float(d)
        if math.isnan(d):
            return math.nan
        worst = d if worst is None or d > worst else worst
    if worst is None:
        raise ValueError("no deviations to reduce")
    return worst if worst > 0.0 else 0.0


def constant_fn(value: complex, kind: FnKind = FnKind.GENERIC,
                label: str = "") -> AnalyticFn:
    """Constant probe function."""
    value = complex(value)
    return AnalyticFn(
        evaluator=lambda zs: np.full_like(zs, value),
        kind=kind,
        label=label or f"constant {value}",
    )


# --- JSON serialization -----------------------------------------------------
#
# :func:`to_json` is the one place that decides how a value prints: every
# report is built from raw values and rendered by it.  Floats travel as
# decimal strings at 17 significant digits, which round-trips IEEE doubles
# bit-exactly, and complex values as {re, im} pairs of such strings.

def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def complex_to_json(z: complex) -> dict:
    z = complex(z)
    return {"re": fmt_float(z.real), "im": fmt_float(z.imag)}


def to_json(value):
    """The JSON form of a report value: a float as :func:`fmt_float`, a
    complex as :func:`complex_to_json`, an enum member as its value, a Record
    as the dict of its slots, a dict, tuple or list item by item; a bool, a
    str or None as it is.  Any other type raises TypeError."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, complex):
        return complex_to_json(value)
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Record):
        return {name: to_json(getattr(value, name)) for name in value.__slots__}
    if isinstance(value, dict):
        return {key: to_json(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [to_json(item) for item in value]
    raise TypeError(f"no JSON form for {type(value).__name__}")


def json_number(obj, key, where: str) -> float:
    """``obj[key]`` as a float; a UsageError that names ``where`` and
    ``key`` if the entry is missing or not a number."""
    try:
        return float(obj[key])
    except (KeyError, IndexError, TypeError, ValueError):
        raise UsageError(f"{where}: {key!r} is missing or not a number") from None


def json_list(obj, key: str, where: str, default=None) -> list:
    """``obj[key]``, or ``default`` where the key is absent; either must be
    a list."""
    value = obj.get(key, default) if isinstance(obj, dict) else None
    if not isinstance(value, list):
        raise UsageError(f"{where}: {key!r} is missing or not a list")
    return value


def complex_from_json(obj: dict, where: str = "complex value") -> complex:
    return complex(json_number(obj, "re", where), json_number(obj, "im", where))


def grid_from_json(obj: dict) -> EvaluationGrid:
    points = json_list(obj, "points", "grid")
    return EvaluationGrid(
        [complex_from_json(p, f"grid point {k}") for k, p in enumerate(points)],
        obj.get("description", ""),
    )
