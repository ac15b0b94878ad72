"""Exception taxonomy for the engine.

Every failure mode the pipeline can hit maps to one of these classes so the
CLI can translate them into stable exit codes (config errors are 3, any
other computational error is 2).
"""


class EngineError(Exception):
    """Base class for all engine failures."""


class MalformedInputError(EngineError):
    """Raw term lists or context parameters that violate basic invariants."""


class ExpressionClassError(EngineError):
    """A result left the signomial class the engine can represent exactly.

    The documented closure boundary: only single-monomial fields are
    invertible, and Hessians must be diagonal with monomial entries.
    """


class FractionalDomainError(EngineError):
    """A Caputo power-rule application hit a Gamma pole in the numerator
    (at the term with exponent vector ``exponents``, in ``coordinate``).

    ``degree`` is the total degree the recursion or the tau lift was
    building when it happened.
    """

    def __init__(self, message, coordinate=None, exponents=None, degree=None):
        super().__init__(message)
        self.coordinate = coordinate
        self.exponents = exponents
        self.degree = degree


class EvaluationDomainError(EngineError):
    """Evaluation at a point with a non-positive coordinate, or whose value
    is not finite (a power or sum overflowing a float)."""


class QuadratureFailureError(EngineError):
    """The quadrature oracle did not converge within its subdivision budget."""

    def __init__(self, message, estimates=()):
        super().__init__(message)
        self.estimates = tuple(estimates)


class RegularityError(EngineError):
    """A Hessian entry degenerates at a configured sample point."""


class ConfigError(EngineError):
    """A run configuration failed validation."""
