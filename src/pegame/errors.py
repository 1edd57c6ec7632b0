"""Exception types shared across the package, and the report FiniteEscape carries.

Every exception here is a ``DomainError`` or a ``ValueError``: the CLI
exits 1 on the former and 2 on the latter, so none reaches a traceback.
A ``DomainError`` is met by a game the library accepted; a ``ValueError``
rejects its input (a spec that is not a game, unsorted instants, a
negative budget)."""
from dataclasses import dataclass


@dataclass(frozen=True)
class EscapeReport:
    """Outcome of one escape search: whether it found an escape, and the
    largest one below the terminal time, to the search's time resolution."""

    found: bool
    t_escape: float | None


class DomainError(Exception):
    """A game, schedule or solve the library cannot go on with: the CLI
    exits 1 and names the class."""


class DimensionMismatch(ValueError):
    """Game matrices have inconsistent shapes: a ``GameSpec`` refuses them."""


class NonSymmetric(ValueError):
    """A weight matrix is asymmetric beyond tolerance: a ``GameSpec`` refuses it."""


class FiniteEscape(DomainError, RuntimeError):
    """A Riccati flow blew up before reaching the requested time; the
    escape report, when given, is in ``report``."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class StepUnderflow(DomainError, RuntimeError):
    """Adaptive step shrank below the minimum without meeting tolerance."""


class OutOfRange(ValueError):
    """Evaluation time outside the solved interval."""


class UnsortedInstants(ValueError):
    """Communication instants not strictly increasing inside the open
    horizon."""


class DegenerateSchedule(DomainError, RuntimeError):
    """The backward recursion collapsed onto the initial time."""


class NoFeasibleInstance(DomainError, RuntimeError):
    """No admissible next communication time exists; signals a numerical fault."""


class InadmissibleInterval(DomainError, ValueError):
    """Interval contains an escape time; error-value flow undefined on it."""


class IntervalAdmissible(DomainError, ValueError):
    """Interval is escape-free; a risky deviation cannot profit on it."""


class NegativeBudget(ValueError):
    """Control-effort budget must be nonnegative."""


class ParseError(ValueError):
    """Input file is not valid JSON."""


class SchemaError(ValueError):
    """Input file parses but violates the game-spec schema."""
