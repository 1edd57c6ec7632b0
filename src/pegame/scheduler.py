"""Minimum-cardinality communication scheduling.

The pursuer must refresh its state estimate before the gap flow, run
backward from the next communication time with boundary -P there, escapes.
The backward recursion places each instant at the detected escape time of
the following interval plus a safety margin, which maximizes every
inter-communication duration and therefore minimizes the count.

Escapes are located by the linear-flow determinant detector, the oracle
of record.  Escape exactly at an interval's left endpoint is allowed: the
estimate resets there, so the half-open interval semantics exclude it.
A boundary tolerance of 1e-8 of the horizon absorbs detector noise at
that endpoint; ``escape._escape_inside`` holds that rule for the
scheduler and the simulator alike.  The margin (1e-6 of the horizon,
unless given) and the slack bisection tolerance (1e-4 of the horizon)
are module constants.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateSchedule, NoFeasibleInstance
from .escape import _escape_inside
from .game_model import GameSpec
from .riccati import RiccatiSolution

MARGIN_REL = 1e-6
BISECT_TOL_REL = 1e-4


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
    the preceding interval; the schedule must stay strictly below it.
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
    spec: GameSpec,
    value_sol: RiccatiSolution,
    instants,
    *,
    fail_fast: bool = False,
) -> tuple[IntervalCertificate, ...]:
    """Certify every interval of a schedule, including the leading one.

    An interval fails when the gap flow run backward from its right
    endpoint escapes strictly inside it; an escape at the left endpoint
    (within the boundary tolerance) does not count against it.  With
    ``fail_fast`` the certificate list stops at the first failure.
    """
    instants = spec.checked_instants(instants)
    bounds = [spec.t0, *instants, spec.tf]
    certificates = []
    for a, b in zip(bounds, bounds[1:]):
        rep, inside = _escape_inside(spec, value_sol, a, b)
        certificates.append(
            IntervalCertificate(
                t_start=float(a),
                t_end=float(b),
                escape_found=inside,
                t_escape=float(rep.t_escape) if rep.found else None,
            )
        )
        if fail_fast and inside:
            break
    return tuple(certificates)


def optimal_schedule(
    spec: GameSpec,
    value_sol: RiccatiSolution,
    margin: float | None = None,
    *,
    compute_slack: bool = True,
) -> CommSchedule:
    """Backward recursion: each instant sits just above the escape time of
    the interval it opens.

    Stops when the next escape falls below the start of the game.  Raises
    DegenerateSchedule when an escape lands within the margin of the start
    time, where the required slack collapses.
    """
    margin = float(margin) if margin is not None else MARGIN_REL * spec.horizon
    if margin < 0:
        raise ValueError("margin must be nonnegative")

    instants: list[float] = []
    t_next = spec.tf
    for _ in range(10000):
        rep = _escape_inside(spec, value_sol, spec.t0, t_next)[0]
        if not rep.found:
            break
        t_star = float(rep.t_escape)
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

    certificates = check_admissibility(spec, value_sol, instants)
    slack: tuple[float, ...] = ()
    if compute_slack:
        bounds = [spec.t0, *instants, spec.tf]
        slack = tuple(
            max_next_instance(spec, value_sol, bounds[i], bounds[i + 2])
            for i in range(len(instants))
        )
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
    stays finite strictly above ``t_prev``; the supremum is located by
    bisection and is itself a strict bound for the schedule.
    """
    t_prev, upper = float(t_prev), float(upper)
    if not (spec.t0 <= t_prev < upper <= spec.tf):
        raise ValueError(
            f"need t0 <= t_prev < upper <= tf, got t_prev={t_prev}, upper={upper}"
        )
    tol = BISECT_TOL_REL * spec.horizon

    def feasible(tau: float) -> bool:
        return not _escape_inside(spec, value_sol, t_prev, tau)[1]

    if feasible(upper):
        return upper
    probe = t_prev + tol * 1e-2
    if probe >= upper or not feasible(probe):
        raise NoFeasibleInstance(
            f"no admissible instant just above t_prev={t_prev}; numerical fault"
        )
    lo, hi = probe, upper
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
