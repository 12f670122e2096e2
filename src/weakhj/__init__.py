"""Weak inf-convolution semigroups on finite metric spaces.

The library evaluates the measure-valued inf-convolution Q~_t f, its
nonlinear gradient calculus and Hamilton-Jacobi residuals, weak
optimal-transport costs, and the functional-inequality estimators and
verifiers that connect them: Poincare and exponential-entropy ratios,
transport-entropy and dual bounds, and hypercontractive norm growth.
The `weakhj` console script exposes all of it with JSON reports.
"""

from .calculus import (
    classical_infconv,
    envelope,
    gradient_envelope_identity,
    lipschitz_seminorm,
    tilde_gradient,
    time_derivative,
    weak_infconv,
    weak_infconv_bruteforce,
)
from .cost import parse_cost_spec, power, quadratic, quadratic_linear
from .funcineq import (
    InequalityReport,
    entropy_exp,
    hypercontractivity_check,
    hypercontractivity_sweep,
    mlsi_verify,
    poincare_estimate,
    variance,
)
from .hj import (
    BoundaryReport,
    ObstructionResult,
    ObstructionWitness,
    ResidualReport,
    hj_boundary,
    hj_residual,
    hj_residuals,
    obstruction_search,
)
from .space import (
    MetricSpace,
    MetricViolation,
    build_example,
    build_from_graph,
    load_space,
    uniform_measure,
    validate_metric,
)
from .transport import (
    Coupling,
    TransportResult,
    check_transport_entropy,
    classical_transport_cost,
    dual_check,
    relative_entropy,
    transport_oracle_small,
    weak_transport_cost,
)

__version__ = "0.1.0"

__all__ = [
    "MetricSpace", "MetricViolation", "build_example", "build_from_graph",
    "load_space", "validate_metric", "uniform_measure",
    "quadratic", "power", "quadratic_linear", "parse_cost_spec",
    "weak_infconv", "weak_infconv_bruteforce", "classical_infconv",
    "time_derivative", "tilde_gradient", "lipschitz_seminorm", "envelope",
    "gradient_envelope_identity",
    "ResidualReport", "BoundaryReport", "ObstructionWitness",
    "ObstructionResult", "hj_residual", "hj_residuals", "hj_boundary",
    "obstruction_search",
    "Coupling", "TransportResult", "weak_transport_cost",
    "classical_transport_cost", "transport_oracle_small", "relative_entropy",
    "check_transport_entropy", "dual_check",
    "InequalityReport", "variance", "entropy_exp",
    "poincare_estimate", "mlsi_verify", "hypercontractivity_check",
    "hypercontractivity_sweep",
    "__version__",
]
