"""Exception types shared across the package.  Every rejection of input from
outside the program is a LivcalcError; a bare ValueError is a program error."""


class LivcalcError(Exception):
    """Base class for all livcalc errors."""


class PoleEncountered(LivcalcError):
    """Evaluation hit (or got too close to) a pole of the function."""


class DegenerateMap(LivcalcError):
    """Moebius coefficients with ad - bc exactly zero; a small one is valid."""


class EmptyMeasure(LivcalcError):
    """Measure model with neither atoms nor density mass."""


class WindowTooSmall(LivcalcError):
    """Stieltjes inversion window leaks spectral mass at its boundary."""


class NotContractive(LivcalcError):
    """A function claimed contractive has |value| >= 1 where it matters."""


class OutOfRange(LivcalcError, ValueError):
    """A value outside its documented range: a scalar parameter, a point off
    the upper half-plane, a grid, a measure, an inversion window or eps schedule."""


class UsageError(LivcalcError, ValueError):
    """Conflicting flags, or a grid spec, grid file or measure file not of its form."""


class QuadratureFailed(LivcalcError):
    """Adaptive quadrature exhausted its refinement budget."""
