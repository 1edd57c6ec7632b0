"""Linear-quadratic pursuit-evasion with intermittent state measurements.

Computes equilibrium strategies, the minimum number of sensor
communications and their optimal times (from finite escape times of a
matrix Riccati flow), and simulates the closed loop with payoff
verification by two independent routes.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateSchedule,
    DimensionMismatch,
    EscapeReport,
    FiniteEscape,
    InadmissibleInterval,
    IntervalAdmissible,
    NegativeBudget,
    NoFeasibleInstance,
    NonSymmetric,
    OutOfRange,
    ParseError,
    SchemaError,
    StepUnderflow,
    UnsortedInstants,
)
from .game_model import (
    GameSpec,
    ValidationReport,
    Violation,
    example_one_spec,
    validate_spec,
)
from .riccati import (
    RiccatiProblem,
    RiccatiSolution,
    eval_solution,
    make_gap_problem,
    make_value_problem,
    riccati_residual,
    solve_riccati,
    solve_value_riccati,
)
from .escape import detect_escape_norm, detect_escape_radon
from .scheduler import (
    CommSchedule,
    IntervalCertificate,
    check_admissibility,
    max_next_instance,
    optimal_schedule,
)
from .simulator import (
    InputSeries,
    Strategy,
    Trajectory,
    deviation_gain_check,
    deviation_sweep,
    game_value,
    open_loop_inputs,
    open_loop_pair,
    payoff_two_ways,
    piecewise_constant,
    reachable_radius,
    risky_strategy,
    simulate,
    transition_flow,
)

__all__ = [
    "CommSchedule",
    "DegenerateSchedule",
    "DimensionMismatch",
    "EscapeReport",
    "FiniteEscape",
    "GameSpec",
    "InadmissibleInterval",
    "InputSeries",
    "IntervalAdmissible",
    "IntervalCertificate",
    "NegativeBudget",
    "NoFeasibleInstance",
    "NonSymmetric",
    "OutOfRange",
    "ParseError",
    "RiccatiProblem",
    "RiccatiSolution",
    "SchemaError",
    "StepUnderflow",
    "Strategy",
    "Trajectory",
    "UnsortedInstants",
    "ValidationReport",
    "Violation",
    "check_admissibility",
    "detect_escape_norm",
    "detect_escape_radon",
    "deviation_gain_check",
    "deviation_sweep",
    "eval_solution",
    "example_one_spec",
    "game_value",
    "make_gap_problem",
    "make_value_problem",
    "max_next_instance",
    "open_loop_inputs",
    "open_loop_pair",
    "optimal_schedule",
    "payoff_two_ways",
    "piecewise_constant",
    "reachable_radius",
    "riccati_residual",
    "risky_strategy",
    "simulate",
    "solve_riccati",
    "solve_value_riccati",
    "transition_flow",
    "validate_spec",
]
