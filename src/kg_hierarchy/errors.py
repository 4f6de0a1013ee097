"""Exception types shared across the solver modules."""


class KGHierarchyError(Exception):
    """Base class for all library errors."""


class ParameterError(KGHierarchyError, ValueError):
    """A PotentialParams field is out of range; ``param`` names the field."""

    def __init__(self, param: str, message: str):
        self.param = param
        super().__init__(message)


class DomainError(KGHierarchyError):
    """Evaluation point is at (or too close to) the deformation pole 1 - q*k(x) = 0."""


class DegenerateRootError(KGHierarchyError):
    """The superpotential quadratic produced nu1 = 0; the hierarchy cannot start."""


class ZeroNuError(KGHierarchyError):
    """The level recurrence reached rho_n = 0; mu_n is undefined."""


class ComplexLevelError(KGHierarchyError):
    """Hermitian-branch level data would be complex (Gamma1 < -(q*lam)^2/4, or complex E)."""


class NoRootError(KGHierarchyError):
    """No self-consistent bound energy exists at the requested level (for the oracle: next to the claimed root)."""


class NonConvergenceError(KGHierarchyError):
    """Root polishing failed to reach tolerance within the iteration budget."""


class NonNormalizableError(KGHierarchyError):
    """Ground state with Re(mu) <= 0 on the Hermitian branch, or a grid norm of 0 or inf."""


class NoBoundStateError(KGHierarchyError):
    """The discretized operator has no negative eigenvalue at the requested index."""


class ConfigError(KGHierarchyError):
    """Malformed run configuration; carries the offending line number when known."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


class GammaPositivityWarning(UserWarning):
    """Gamma1 or Gamma2 is not positive; parts of the spectrum may be non-normalizable."""
