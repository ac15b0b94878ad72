"""Almost-Kahler geometry and Fedosov star products for regular Lagrangians.

The pipeline: a signomial Lagrangian L(x, y) determines a Sasaki-type
metric, a nonlinear connection, the canonical metric d-connection with
torsion and curvature, and a compatible almost-complex / almost-symplectic
pair.  On top of that structure the package runs the flat-connection
recursion of deformation quantization and extracts the star product order
by order, together with the curvature-trace characteristic form.  All of
it works for classical derivatives (alpha = 1) and for the left Caputo
derivative of fractional order alpha in (0, 1).
"""

from .expr import AlphaContext, Signomial, coeff_distance
from .errors import (
    ConfigError,
    EngineError,
    EvaluationDomainError,
    ExpressionClassError,
    FractionalDomainError,
    MalformedInputError,
    QuadratureFailureError,
    RegularityError,
)
from .geometry import GeometryBundle, LagrangianSpec, build_geometry, poisson_bracket
from .fedosov import FedosovMachine, star, tau_lift
from .wick import WickElement

__version__ = "0.1.0"

__all__ = [
    "AlphaContext",
    "Signomial",
    "coeff_distance",
    "GeometryBundle",
    "LagrangianSpec",
    "build_geometry",
    "poisson_bracket",
    "FedosovMachine",
    "star",
    "tau_lift",
    "WickElement",
    "EngineError",
    "ConfigError",
    "EvaluationDomainError",
    "ExpressionClassError",
    "FractionalDomainError",
    "MalformedInputError",
    "QuadratureFailureError",
    "RegularityError",
    "__version__",
]
