"""Exception hierarchy shared by all homlab modules."""


class HomlabError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(HomlabError):
    """Dimension or space mismatch between operators, vectors, or probes."""


class NotInM(HomlabError):
    """Operator is outside the admissible class: the operator itself or its
    leading block is numerically singular (condition estimate above cutoff)."""


class NotSkew(HomlabError):
    """Operator fails the skew-adjointness test A* = -A at tolerance."""


class CoercivityError(HomlabError):
    """Coefficient or operator violates the declared coercivity bounds."""


class CompatibilityError(HomlabError):
    """Right-hand side incompatible with the kernel of the operator
    (Neumann/periodic data must annihilate constants)."""


class SolverDiverged(HomlabError):
    """Linear solver missed its residual contract within the iteration cap."""


class QuadratureError(HomlabError):
    """Adaptive quadrature met a value that is not finite, or missed its
    tolerance within its interval cap."""


class NonMeanFree(HomlabError):
    """Input vector required to be mean-free is not."""


class VanishingHarmonicMean(HomlabError):
    """The mean of the inverse coefficient vanishes, so its harmonic mean and
    the closed projected inverse formula are undefined (possible for complex
    coefficients and for real ones that change sign)."""


class SingularResolvent(HomlabError):
    """Candidate limit of resolvents is numerically singular and cannot be
    inverted to recover a coefficient."""


class MeshRuleViolation(HomlabError):
    """Requested oscillation index cannot be resolved within the mesh or
    unknown-count budget."""


class BudgetExceeded(HomlabError):
    """Total unknown count exceeds the configured budget guard."""


class ConfigError(HomlabError):
    """Malformed run configuration; carries section/key location info."""
