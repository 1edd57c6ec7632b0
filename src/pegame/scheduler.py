"""Minimum-cardinality communication scheduling, and the interval rule.

The pursuer must refresh its state estimate before the gap flow, run
backward from the next communication time with boundary -P there, escapes.
The backward recursion places each instant at the largest escape time of
the flow ending at the next instant, plus a safety margin, which maximizes
every inter-communication duration and therefore minimizes the count.

Escapes are counted on the linear flow (``riccati._Count``), the oracle of
record; each flow starts from the value flow's plane at its end, read off
the value count (``_gap_plane``), not from an interpolated P.  Escape at
an interval's left endpoint is allowed: the estimate resets there.  A
boundary tolerance of ``BOUNDARY_TOL_REL`` of the horizon absorbs detector
noise there: [a, b) passes unless the first meeting of the count of the
flow ending at b lies more than tol above a.  ``_escape_inside`` certifies
intervals with their counts, for the schedule, ``check_admissibility``
and the simulator's deviation experiments.  The recursion counts each flow
once: that count gives the next instant and certifies the interval that
instant opens.  The margin is 1e-6 of the horizon unless given.  Slack
suprema come from counts and root-finds in the flow's terminal time
(``_slack_sups``), to 1e-9 of the span; each is guarded by asking that the
root minus one margin lie above the previous instant.  Counts that do not
depend on each other are one batch: all the slack counts of a schedule,
and all the intervals of ``check_admissibility``.  The recursion's counts
depend on each other and are batches of one.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DegenerateSchedule, NoFeasibleInstance
from .game_model import GameSpec
from .riccati import RiccatiSolution, _Count, _counts, _orth, _plane_counts

MARGIN_REL = 1e-6
# an escape within this share of the horizon above an interval's start
# falls outside the interval: the estimate resets at the start
BOUNDARY_TOL_REL = 1e-8


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


def _gap_plane(value_sol: RiccatiSolution, b) -> np.ndarray:
    """An orthonormal frame of [I; -P(b)], the start of the gap flow ending at
    b (a stack at an array of times): the value count's plane, V negated."""
    Z = value_sol.count.plane(b)
    return _orth(Z * np.repeat([1.0, -1.0], Z.shape[-1])[:, None])


def _intervals(spec: GameSpec, flows: list[_Count], a, b) -> list[IntervalCertificate]:
    """The certificate of each interval [a_i, b_i) from ``flows[i]``, its gap
    flow counted from b_i.  Its pole is the flow's largest, if at or above
    a_i - tol (tol the boundary tolerance), and lies inside when more than
    tol above a_i.  That pole is the count's first meeting: as every jump
    of N has one sign, N is nonzero exactly past it, so that is N at
    a_i + tol."""
    tol = BOUNDARY_TOL_REL * spec.horizon
    certificates = []
    for flow, a_i, b_i in zip(flows, a, b):
        pole = flow.first if flow.first is not None and flow.first >= a_i - tol else None
        inside = pole is not None and pole > a_i + tol
        certificates.append(IntervalCertificate(a_i, b_i, inside, pole))
    return certificates


def _escape_inside(
    spec: GameSpec, value_sol: RiccatiSolution, a, b
) -> list[tuple[IntervalCertificate, _Count]]:
    """``_intervals`` of the intervals [a_i, b_i), each with the count of its
    gap flow from ``_gap_plane`` at b_i down to a_i - tol, which also
    evaluates that flow.  The intervals' counts are one batch."""
    a, b = (np.array(x, dtype=float, ndmin=1) for x in (a, b))
    floors = a - BOUNDARY_TOL_REL * spec.horizon
    flows = _plane_counts(spec._gap_flow, b, _gap_plane(value_sol, b), floors)
    return list(zip(_intervals(spec, flows, a.tolist(), b.tolist()), flows))


def check_admissibility(
    spec: GameSpec, value_sol: RiccatiSolution, instants
) -> tuple[IntervalCertificate, ...]:
    """Certify every interval of a schedule, including the leading one.

    An interval fails when the gap flow run backward from its right
    endpoint escapes strictly inside it; an escape at the left endpoint
    (within the boundary tolerance) does not count against it.
    """
    bounds = [spec.t0, *spec.checked_instants(instants), spec.tf]
    return tuple(cert for cert, _ in _escape_inside(spec, value_sol, bounds[:-1], bounds[1:]))


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
    if not margin >= 0:
        raise ValueError("margin must be nonnegative")

    instants: list[float] = []
    flows = []
    t_next = spec.tf
    for _ in range(10000):
        ((check, flow),) = _escape_inside(spec, value_sol, spec.t0, t_next)
        flows.insert(0, flow)
        if not check.escape_found:
            break
        t_star = check.t_escape
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
    slack = _slack_sups(spec, value_sol, bounds[:-2], bounds[2:]) if compute_slack else ()
    return CommSchedule(
        instants=tuple(instants),
        margin=margin,
        certificates=tuple(_intervals(spec, flows, bounds[:-1], bounds[1:])),
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
    ``TIME_TOL_REL`` (``_slack_sups``, a batch of one).  The time one
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
    """``max_next_instance`` of each pair (t_prev[i], upper[i]): the first
    meeting of a count in tau over (t_a, upper], t_a the boundary-tolerance
    point above ``t_prev``, which is the least tau whose gap flow, ending
    at -P(tau), has its pole at t_a; or ``upper`` where the count has none,
    or where t_a is not below ``upper``.  The counts are one batch.

    That flow at t_a is V U^-1 for [U; V] = exp(H (t_a - tau)) [I; -P(tau)],
    so its pole is where the plane of [I; -P(tau)] meets
    exp(H (tau - t_a)) [0; I], a path moved by the gap Hamiltonian H.  The
    former is the value flow's plane, moved by the value Hamiltonian H_v,
    reflected by D = diag(I, -I) (``_gap_plane``, exact off the value
    count); D H_v D is Hamiltonian (J D = -D J) with the norm of H_v, so
    ``_Count``'s lift bound along tau is 2n (||H||_2 + ||H_v||_2), both
    norms kept by their propagators.  The count starts at 0 and, as the
    plane at t = tau never meets [0; I], equals at any tau the count at t_a
    of the flow ending at tau: no first meeting means the flow ending at
    ``upper`` has no pole there, and N at a tau is the interval check of
    [t_prev, tau).

    Raises NoFeasibleInstance when the time one margin below a root is not
    above its ``t_prev``.  Above ``t_prev``, that time passes the interval
    check of [t_prev, it): it lies before the count's first meeting, where
    N is 0.
    """
    t_prev, upper = (np.array(x, dtype=float, ndmin=1) for x in (t_prev, upper))
    t_a = t_prev + BOUNDARY_TOL_REL * spec.horizon
    counted = np.flatnonzero(t_a < upper)
    V0 = np.eye(2 * spec.n_x)[:, spec.n_x :]  # [0; I]
    partner = partial(_gap_plane, value_sol)
    counts = _counts(
        spec._gap_flow, V0, t_a[counted], upper[counted], partner, value_sol.count.exp.norm
    )
    margin, sups = MARGIN_REL * spec.horizon, upper.tolist()
    for i, c in zip(counted.tolist(), counts):
        if c.first is not None:
            if c.first - margin <= t_prev[i]:
                raise NoFeasibleInstance(f"no certified slack supremum above t_prev={t_prev[i]}")
            sups[i] = c.first
    return tuple(sups)
