"""Exception hierarchy for the reebmin toolkit."""


class ReebminError(Exception):
    """Base class for all reebmin errors."""


class InfeasibleSystem(ReebminError):
    """An inequality system has an empty solution set."""


class NotPointed(ReebminError):
    """A polyhedron contains a line, so its vertex set is undefined."""


class NotFullDimensional(ReebminError):
    """Cone rays span a proper subspace where full dimension is required."""


class NotStrictlyConvex(ReebminError):
    """A cone contains a line where strict convexity is required."""


class NotInReebCone(ReebminError):
    """A vector pairs non-positively with some weight-cone generator."""


class UnboundedCoefficient(ReebminError):
    """A polyhedral-divisor coefficient is unbounded below along a functional."""


class TorsionCokernel(ReebminError):
    """The cokernel of a weight matrix has torsion."""


class RankDeficient(ReebminError):
    """A weight matrix does not have full column rank."""


class EmptyFiber(ReebminError):
    """A fiber of the quotient lattice map meets the positive orthant nowhere."""


class Inconsistent(ReebminError):
    """An overdetermined linear system has no solution."""


class NonInvariant(ReebminError):
    """Monomials of a defining equation carry different torus weights."""


class SearchExhausted(ReebminError):
    """No approximation was found within the configured search bound."""


class TooLarge(ReebminError):
    """A lattice enumeration exceeds the configured cell budget."""
