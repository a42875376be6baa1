"""Production and pricing strategies for a discounted inventory problem.

A monopolist produces at rate a in A and sells at rate q in Q, holding a
non-negative stock; profit is discounted revenue minus discounted cost.
This package computes the value function of that control problem, decides
whether a constant production-equals-sales rate is optimal, builds relaxed
(mixed-rate) and near-optimal cyclic strategies when it is not, and checks
everything against a brute-force dynamic-programming oracle.
"""

from types import ModuleType as _ModuleType

from .errors import (
    AssumptionViolation,
    CoercivityUndetectable,
    DecompositionMismatch,
    DegenerateGrid,
    HorizonTooShort,
    InvalidParameter,
    MonopolyControlError,
    NotConverged,
    OutOfDomain,
    StateViolation,
    TruncationFailed,
    ZetaZeroWarning,
)
from .problem import (
    ControlSet,
    Curve,
    ProblemSpec,
    ValidatedProblem,
    builtin_arvan_moses,
    builtin_linear_cost,
    validate_problem,
)
from .hamiltonian import HamiltonianModel, build_hamiltonian, h_at
from .value import ValueFunction, build_value, write_value_csv
from .strategy import (
    CyclicPlan,
    DrawdownPlan,
    RelaxedStatic,
    StaticPlan,
    StaticReport,
    convexified_static,
    cyclic_strategy,
    cyclic_value,
    drawdown_plan,
    relaxed_static,
    static_optimality_test,
    stationary_plan,
)
from .simulate import (
    Trajectory,
    profit_gap,
    simulate,
    write_trajectory_csv,
)
from .oracle import DPResult, dp_value, write_dp_csv
from .config import load_problem

__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, _ModuleType))

__version__ = "0.1.0"
