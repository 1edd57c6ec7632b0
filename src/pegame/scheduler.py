"""Minimum-cardinality communication scheduling.

The pursuer must refresh its state estimate before the gap flow, run
backward from the next communication time with boundary -P there, escapes.
The backward recursion places each instant at the largest escape time of
the flow ending at the next instant, plus a safety margin, which maximizes
every inter-communication duration and therefore minimizes the count.

Escapes are counted on the linear flow (``riccati._Count``), the oracle of
record; each flow starts from the value flow's plane at its end, read off
the value count (``escape._gap_plane``), not from an interpolated P.
Escape at an interval's left endpoint is allowed: the estimate resets
there.  A boundary tolerance of 1e-8 of the horizon absorbs detector noise
there: [a, b) passes unless the first meeting of the count of the flow
ending at b lies more than tol above a (``escape._intervals``, shared with
the simulator).  The recursion counts each flow once: that count gives
the next instant and certifies the interval that instant opens.  The
margin is 1e-6 of the horizon unless given.  Slack suprema come from
counts and root-finds in the flow's terminal time
(``escape._slack_counts``), to 1e-9 of the span; each is guarded by
asking that the root minus one margin lie above the previous instant.
Counts that do not depend on each other are one batch: all the slack
counts of a schedule, and all the intervals of ``check_admissibility``.
The recursion's counts depend on each other and are batches of one.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateSchedule, NoFeasibleInstance
from .escape import BOUNDARY_TOL_REL, _escape_inside, _intervals, _slack_counts
from .game_model import GameSpec
from .riccati import RiccatiSolution

MARGIN_REL = 1e-6


@dataclass(frozen=True)
class IntervalCertificate:
    """Escape check for one inter-communication interval [t_start, t_end)."""

    t_start: float
    t_end: float
    escape_found: bool
    t_escape: float | None = None

    @property
    def passed(self) -> bool:
        return not self.escape_found


@dataclass(frozen=True)
class CommSchedule:
    """Ordered communication instants with per-interval certificates.

    ``slack_sup[i]`` is the supremum to which instant ``i`` could be
    delayed, holding its neighbours fixed, without creating an escape in
    the preceding interval: the root of that escape's entry, found to 1e-9
    of the interval.  The schedule stays strictly below it.
    """

    instants: tuple[float, ...]
    margin: float
    certificates: tuple[IntervalCertificate, ...]
    slack_sup: tuple[float, ...] = ()

    @property
    def N(self) -> int:
        return len(self.instants)

    @property
    def admissible(self) -> bool:
        return all(c.passed for c in self.certificates)


def check_admissibility(
    spec: GameSpec, value_sol: RiccatiSolution, instants
) -> tuple[IntervalCertificate, ...]:
    """Certify every interval of a schedule, including the leading one.

    An interval fails when the gap flow run backward from its right
    endpoint escapes strictly inside it; an escape at the left endpoint
    (within the boundary tolerance) does not count against it.
    """
    instants = spec.checked_instants(instants)
    bounds = [spec.t0, *instants, spec.tf]
    checks = _escape_inside(spec, value_sol, bounds[:-1], bounds[1:])
    return tuple(
        IntervalCertificate(a, b, inside, pole)
        for a, b, (inside, pole, _) in zip(bounds, bounds[1:], checks)
    )


def optimal_schedule(
    spec: GameSpec,
    value_sol: RiccatiSolution,
    margin: float | None = None,
    *,
    compute_slack: bool = True,
) -> CommSchedule:
    """Backward recursion: each instant sits just above the escape time of
    the interval it opens.

    Stops when the count vanishes above the start of the game, within the
    boundary tolerance.  Raises DegenerateSchedule when an escape lands
    within the margin of the start time, where the required slack
    collapses.
    """
    margin = float(margin) if margin is not None else MARGIN_REL * spec.horizon
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    tol = BOUNDARY_TOL_REL * spec.horizon

    instants: list[float] = []
    flows = []
    t_next = spec.tf
    for _ in range(10000):
        ((inside, t_star, flow),) = _escape_inside(spec, value_sol, spec.t0, t_next)
        flows.insert(0, flow)
        if not inside:
            break
        if t_star <= spec.t0 + margin:
            raise DegenerateSchedule(
                f"escape at {t_star:.9g} within margin of t0={spec.t0}"
            )
        t_i = t_star + margin
        if t_i >= t_next:
            raise DegenerateSchedule(
                f"margin {margin:.3e} exceeds the slack below t={t_next:.9g}"
            )
        instants.insert(0, t_i)
        t_next = t_i
    else:
        raise DegenerateSchedule("backward recursion failed to terminate")

    bounds = [spec.t0, *instants, spec.tf]
    certificates = tuple(
        IntervalCertificate(a, b, *verdict)
        for a, b, verdict in zip(bounds, bounds[1:], _intervals(flows, bounds, tol))
    )
    slack = _slack_sups(spec, value_sol, bounds[:-2], bounds[2:]) if compute_slack else ()
    return CommSchedule(
        instants=tuple(instants),
        margin=margin,
        certificates=certificates,
        slack_sup=slack,
    )


def max_next_instance(
    spec: GameSpec,
    value_sol: RiccatiSolution,
    t_prev: float,
    upper: float,
) -> float:
    """Supremum of admissible next communication times after ``t_prev``.

    A candidate time is feasible when the gap flow run backward from it
    stays finite strictly above ``t_prev``.  The supremum is the least time
    whose flow has its pole at the boundary tolerance above ``t_prev``, or
    ``upper`` when there is none: one count and root-find in that time, to
    ``escape.TIME_TOL_REL`` (``_slack_sups``, a batch of one).  The time one
    margin below it must lie above ``t_prev``, and then passes the interval
    check, as it lies before that count's first meeting; the supremum
    itself is a strict bound for the schedule.
    """
    t_prev, upper = float(t_prev), float(upper)
    if not (spec.t0 <= t_prev < upper <= spec.tf):
        raise ValueError(
            f"need t0 <= t_prev < upper <= tf, got t_prev={t_prev}, upper={upper}"
        )
    return _slack_sups(spec, value_sol, [t_prev], [upper])[0]


def _slack_sups(spec: GameSpec, value_sol: RiccatiSolution, t_prev, upper) -> tuple[float, ...]:
    """``max_next_instance`` of each pair (t_prev[i], upper[i]), from one
    batch of slack counts (``escape._slack_counts``).

    Raises NoFeasibleInstance when the time one margin below a root is not
    above its ``t_prev``.  Above ``t_prev``, that time passes the interval
    check of [t_prev, it): it lies before the slack count's first meeting,
    where N is 0 (the homotopy in ``_slack_counts``).
    """
    counts = _slack_counts(spec, value_sol, t_prev, upper)
    margin = MARGIN_REL * spec.horizon
    for t, c in zip(t_prev, counts):
        if c is not None and c.first is not None and c.first - margin <= t:
            raise NoFeasibleInstance(f"no certified slack supremum above t_prev={t}")
    return tuple(
        float(up) if c is None or c.first is None else c.first for up, c in zip(upper, counts)
    )