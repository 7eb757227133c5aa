"""Exception types shared across the package."""


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
    """Scalar parameter outside its documented range."""


class QuadratureFailed(LivcalcError):
    """Adaptive quadrature exhausted its refinement budget."""
