"""Exception hierarchy shared by all grauertlab modules.

Every numerical-domain failure raises a subclass of :class:`GrauertError`
carrying the offending point in its message, so CLI wrappers can surface
it verbatim.
"""


class GrauertError(Exception):
    """Base class for all grauertlab errors."""


class DenominatorVanishes(GrauertError):
    """A quotient map was evaluated where its denominator vanishes."""


class OrderUnsupported(GrauertError):
    """A jet of order > 3 was requested."""


class DomainUnderflow(GrauertError):
    """Argument below the representable range of the metric profile."""


class DomainOverflow(GrauertError):
    """Argument above the representable range of the metric profile."""


class OnDivisor(GrauertError):
    """A metric quantity was requested on (or too close to) the divisor."""


class SolveFailure(GrauertError):
    """A linear solve exceeded the conditioning guard."""


class NonFiniteInput(GrauertError):
    """An argument that must be finite holds a NaN or an infinity."""


class ZeroVector(GrauertError):
    """A direction argument was the zero vector."""


class NotCritical(GrauertError):
    """The critical-point formula was applied at a non-critical point."""


class SingularField(GrauertError):
    """A vector field vanishes at its base point."""


class LeafIllConditioned(GrauertError):
    """The rounding-error bound of a leaf curvature exceeds its tolerance."""


class DegenerateDirection(GrauertError):
    """No coordinate direction with a usable nonzero partial derivative."""


class GridTouchesDivisor(GrauertError):
    """Grid points lie on the divisor of a family member."""

    def __init__(self, j, points):
        self.j = j
        self.points = list(points)
        super().__init__(
            f"grid touches divisor of family member j={j} at {len(self.points)} "
            f"point(s), first: {self.points[0]}"
        )


class UnitVanishes(GrauertError):
    """The twisting unit is not bounded away from zero on the grid."""


class NonPositiveDensity(GrauertError):
    """A conformal density that must be positive is not."""
