"""Weak inf-convolution semigroups on finite metric spaces.

The library evaluates the measure-valued inf-convolution Q~_t f, its
nonlinear gradient calculus and Hamilton-Jacobi residuals, weak
optimal-transport costs, and the functional-inequality estimators and
verifiers that connect them: Poincare and exponential-entropy ratios,
transport-entropy and dual bounds, hypercontractive norm growth, and
the quadratic-linear constant bookkeeping.  The `weakhj` console
script exposes all of it with JSON reports.
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
    appendix_checks,
    bobkov_ledoux_K,
    bobkov_ledoux_params,
    classical_mlsi_rhs,
    entropy_exp,
    herbst_tail_check,
    hypercontractivity_check,
    hypercontractivity_sweep,
    mlsi_verify,
    poincare_estimate,
    qlin_scaling_check,
    toto_bridge_check,
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
    nearest_neighbor_kernel,
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
    "nearest_neighbor_kernel",
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
    "classical_mlsi_rhs", "toto_bridge_check",
    "bobkov_ledoux_K", "bobkov_ledoux_params", "qlin_scaling_check",
    "appendix_checks", "herbst_tail_check",
    "__version__",
]
