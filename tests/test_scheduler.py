import numpy as np
import pytest

from pegame import riccati, simulator
from pegame.errors import DegenerateSchedule, UnsortedInstants
from pegame.escape import detect_escape_norm
from pegame.game_model import GameSpec, example_one_spec
from pegame.riccati import make_gap_problem, solve_value_riccati
from pegame.scheduler import (
    MARGIN_REL,
    check_admissibility,
    max_next_instance,
    optimal_schedule,
)
from pegame.simulator import open_loop_pair


def _with_horizon(spec, tf):
    return GameSpec(
        A=spec.A,
        B=spec.B,
        C=spec.C,
        Q=spec.Q,
        Q_f=spec.Q_f,
        R_p=spec.R_p,
        R_e=spec.R_e,
        t0=spec.t0,
        tf=tf,
        x0=spec.x0,
    )


def test_example_one_schedule(example_spec, example_value_sol):
    sched = optimal_schedule(example_spec, example_value_sol, margin=1e-6)
    assert sched.N == 1
    assert sched.instants[0] == pytest.approx(0.5 + 1e-6, abs=1e-6)
    assert sched.admissible
    assert len(sched.certificates) == 2
    assert sched.slack_sup[0] == pytest.approx(0.75, abs=1e-3)


def test_trivial_game_needs_no_communication():
    spec = example_one_spec()
    trivial = GameSpec(
        A=spec.A,
        B=spec.B,
        C=spec.C,
        Q=np.zeros((4, 4)),
        Q_f=np.zeros((4, 4)),
        R_p=spec.R_p,
        R_e=spec.R_e,
        t0=0.0,
        tf=1.0,
        x0=spec.x0,
    )
    sol = solve_value_riccati(trivial)
    sched = optimal_schedule(trivial, sol)
    assert sched.N == 0
    assert sched.admissible


def test_shortened_horizons():
    # Shortening the game moves the terminal anchor of the value flow, so
    # P(t) = K/(1 + 2(tf - t)) and the gap flow run back from tf escapes
    # at tf - 1/2: one communication for tf >= 1/2, none below.
    for tf, n_expected in ((0.7, 1), (0.45, 0), (0.6, 1)):
        short = _with_horizon(example_one_spec(), tf)
        sol = solve_value_riccati(short)
        sched = optimal_schedule(short, sol, compute_slack=False)
        assert sched.N == n_expected, f"tf={tf}"
        if n_expected:
            assert sched.instants[0] == pytest.approx(tf - 0.5, abs=1e-5)


def test_check_admissibility_boundary_escape_passes(example_spec, example_value_sol):
    certs = check_admissibility(example_spec, example_value_sol, [0.5])
    assert all(c.passed for c in certs)


def test_check_admissibility_late_instant_fails(example_spec, example_value_sol):
    certs = check_admissibility(example_spec, example_value_sol, [0.8])
    assert certs[0].escape_found
    assert certs[0].t_escape == pytest.approx(0.1, abs=1e-6)
    assert certs[0].t_start == 0.0 and certs[0].t_end == 0.8
    assert certs[1].passed


def test_check_admissibility_empty_schedule_fails(example_spec, example_value_sol):
    certs = check_admissibility(example_spec, example_value_sol, [])
    assert len(certs) == 1
    assert certs[0].escape_found
    assert certs[0].t_escape == pytest.approx(0.5, abs=1e-6)


def test_check_admissibility_interval_shorter_than_the_tolerance(
    example_spec, example_value_sol
):
    # [0.5, 0.5 + 1e-9) is shorter than the boundary tolerance (1e-8 of the
    # horizon): all of it sits on its start, so it holds no escape
    certs = check_admissibility(example_spec, example_value_sol, [0.5, 0.5 + 1e-9])
    assert len(certs) == 3 and all(c.passed for c in certs)
    assert certs[1].t_escape is None


def test_unsorted_instants_raise(example_spec, example_value_sol):
    with pytest.raises(UnsortedInstants):
        check_admissibility(example_spec, example_value_sol, [0.6, 0.4])
    with pytest.raises(UnsortedInstants):
        check_admissibility(example_spec, example_value_sol, [0.0, 0.5])


def test_max_next_instance_from_start(example_spec, example_value_sol):
    sup = max_next_instance(example_spec, example_value_sol, 0.0, 1.0)
    assert sup == pytest.approx(0.75, abs=1e-3)


@pytest.mark.parametrize("t_prev", [0.0, 0.1, 0.2, 0.3])
def test_max_next_instance_closed_form(example_spec, example_value_sol, t_prev):
    # the flow from tau escapes at (4 tau - 3)/2, which reaches t_prev + 1e-8
    # (the boundary tolerance above t_prev) at tau = 3/4 + (t_prev + 1e-8)/2
    sup = max_next_instance(example_spec, example_value_sol, t_prev, 1.0)
    assert abs(sup - (0.75 + 0.5 * (t_prev + 1e-8))) <= 1e-9


def test_max_next_instance_after_boundary_escape(example_spec, example_value_sol):
    # from terminal 1 the escape is exactly at 0.5, excluded by the
    # half-open interval, so the whole remaining horizon is feasible
    sup = max_next_instance(example_spec, example_value_sol, 0.5, 1.0)
    assert sup == 1.0


@pytest.mark.parametrize("t_prev", [0.9999999999, 0.99999999])
def test_max_next_instance_at_the_top_of_the_horizon(example_spec, example_value_sol, t_prev):
    # the boundary-tolerance point above t_prev lies at or above upper, so
    # no time in (t_a, upper] can host the pole: the supremum is upper, as
    # for a short interval mid-horizon
    assert max_next_instance(example_spec, example_value_sol, t_prev, 1.0) == 1.0
    assert max_next_instance(example_spec, example_value_sol, 0.5, 0.500000005) == 0.500000005


def test_max_next_instance_trivial_flow():
    spec = example_one_spec()
    trivial = GameSpec(
        A=spec.A,
        B=spec.B,
        C=spec.C,
        Q=np.zeros((4, 4)),
        Q_f=np.zeros((4, 4)),
        R_p=spec.R_p,
        R_e=spec.R_e,
        t0=0.0,
        tf=1.0,
        x0=spec.x0,
    )
    sol = solve_value_riccati(trivial)
    assert max_next_instance(trivial, sol, 0.2, 0.9) == 0.9


def test_schedule_far_from_time_zero(example_spec):
    # at t ~ 1e5 one ulp exceeds the golden-section target width; the
    # search must still stop, and the shifted example's answers shift
    spec = GameSpec(
        A=example_spec.A, B=example_spec.B, C=example_spec.C, Q=example_spec.Q,
        Q_f=example_spec.Q_f, R_p=example_spec.R_p, R_e=example_spec.R_e,
        t0=1e5, tf=1e5 + 1.0, x0=example_spec.x0,
    )
    sched = optimal_schedule(spec, solve_value_riccati(spec))
    assert sched.N == 1 and sched.admissible
    assert sched.instants[0] == pytest.approx(1e5 + 0.5, abs=1e-5)
    assert sched.slack_sup[0] == pytest.approx(1e5 + 0.75, abs=1e-5)


def test_degenerate_schedule_raises(example_spec):
    # the first escape lands at tf - 1/2, inside the margin of t0
    tf = 0.5 + 1e-7
    spec = _with_horizon(example_spec, tf)
    sol = solve_value_riccati(spec)
    with pytest.raises(DegenerateSchedule):
        optimal_schedule(spec, sol)  # default margin 1e-6 * horizon > 1e-7


@pytest.mark.parametrize("margin", [float("nan"), -1e-6])
def test_margin_must_be_nonnegative(example_spec, example_value_sol, margin):
    with pytest.raises(ValueError, match="margin must be nonnegative"):
        optimal_schedule(example_spec, example_value_sol, margin=margin)


def test_schedules_pass_their_own_check(make_escape_spec):
    rng = np.random.default_rng(314)
    checked = 0
    for trial in range(6):
        spec = make_escape_spec(rng, n=2)
        sol = solve_value_riccati(spec)
        sched = optimal_schedule(spec, sol, compute_slack=False)
        assert sched.admissible
        recheck = check_admissibility(spec, sol, sched.instants)
        assert all(c.passed for c in recheck)
        if sched.N:
            checked += 1
    assert checked >= 3


def test_minimal_count_by_exhaustive_single_instant_scan(
    example_spec, example_value_sol
):
    # the empty schedule fails, at least one single instant passes, and the
    # passing set matches the closed-form slack bound t1 < 3/4
    empty = check_admissibility(example_spec, example_value_sol, [])
    assert not all(c.passed for c in empty)
    passing = []
    for t1 in np.arange(0.01, 1.0, 0.01):
        certs = check_admissibility(example_spec, example_value_sol, [round(t1, 2)])
        if all(c.passed for c in certs):
            passing.append(round(t1, 2))
    assert passing, "some single-communication schedule must be admissible"
    # closed form: admissible iff the escape (4 t1 - 3)/2 is at or below
    # t0, i.e. t1 in [1/2, 3/4]; both endpoint escapes sit exactly on an
    # interval boundary, where the estimate reset makes them harmless
    assert passing == [round(0.01 * k, 2) for k in range(50, 76)]
    sched = optimal_schedule(example_spec, example_value_sol, compute_slack=False)
    assert sched.N == 1


def test_shift_monotonicity_via_slack(example_spec, example_value_sol):
    # pushing the terminal later never moves the required instant earlier
    sups = [
        max_next_instance(example_spec, example_value_sol, t_prev, 1.0)
        for t_prev in (0.0, 0.1, 0.2, 0.3)
    ]
    assert all(b >= a for a, b in zip(sups, sups[1:]))


def test_random_search_never_beats_recursion(make_escape_spec):
    # schedules with one fewer instant than the recursion's count must all
    # fail admissibility; statistical support for count-optimality
    rng = np.random.default_rng(2718)
    spec = None
    for _ in range(20):
        candidate = make_escape_spec(rng, n=2)
        sol = solve_value_riccati(candidate)
        sched = optimal_schedule(candidate, sol, compute_slack=False)
        if 2 <= sched.N <= 4:
            spec = candidate
            break
    assert spec is not None, "generator failed to produce a multi-instant game"

    n_fewer = sched.N - 1
    trials = 1000
    for _ in range(trials):
        instants = np.sort(rng.uniform(spec.t0, spec.tf, size=n_fewer))
        # enforce strict interior and strict increase
        instants = np.clip(instants, spec.t0 + 1e-6, spec.tf - 1e-6)
        if np.any(np.diff(instants) <= 0):
            continue
        certs = check_admissibility(spec, sol, instants)
        assert not all(c.passed for c in certs), (
            f"found an admissible schedule with {n_fewer} instants: {instants}"
        )


def test_slack_supremum_is_tight_on_random_games(make_escape_spec):
    # every instant lies strictly below its supremum; delaying it to just
    # below the supremum keeps the schedule admissible, and delaying it to
    # just above (while still below the next instant) breaks it
    rng = np.random.default_rng(4242)
    games = 0
    for trial in range(40):
        spec = make_escape_spec(rng, n=2 + trial % 2)
        sol = solve_value_riccati(spec)
        sched = optimal_schedule(spec, sol)
        if sched.N < 2:
            continue
        games += 1
        bounds = [*sched.instants, spec.tf]
        for i, (t_i, sup) in enumerate(zip(sched.instants, sched.slack_sup)):
            assert t_i < sup <= bounds[i + 1]
            for delta in (1e-7 * spec.horizon, MARGIN_REL * spec.horizon):
                moved = list(sched.instants)
                if sup - delta > t_i:
                    moved[i] = sup - delta
                    certs = check_admissibility(spec, sol, moved)
                    assert all(c.passed for c in certs), (trial, i, delta)
                if sup + delta < bounds[i + 1]:
                    moved[i] = sup + delta
                    certs = check_admissibility(spec, sol, moved)
                    assert not all(c.passed for c in certs), (trial, i, delta)
        if games == 5:
            break
    assert games == 5


@pytest.fixture(scope="module")
def long_schedule(long_spec, long_value_sol):
    return optimal_schedule(long_spec, long_value_sol)


def test_long_horizon_schedule(long_schedule):
    # the gap flows start from the value count's exact planes: read through
    # the Hermite interpolant, P(999.4065) was 20% off, and the schedule had
    # the one instant 999.4065, below which the flow from the exact -P
    # escapes at 996.1763
    assert long_schedule.instants == pytest.approx([996.1773038714, 999.4065417601], abs=1e-6)
    assert long_schedule.admissible


def test_long_horizon_slack_meets_the_norm_detector(long_spec, long_value_sol, long_schedule):
    # the flow from the exact terminal -P one margin below each supremum
    # stays finite above the instant before; one margin above, it escapes
    margin = MARGIN_REL * long_spec.horizon
    assert len(long_schedule.slack_sup) == 2
    for t_prev, sup in zip((long_spec.t0, *long_schedule.instants), long_schedule.slack_sup):
        below, above = (
            detect_escape_norm(make_gap_problem(long_spec, long_value_sol, sup + d), t_prev)
            for d in (-margin, margin)
        )
        assert not below.found and above.found


def test_planes_need_no_interpolant(example_spec, example_value_sol, monkeypatch):
    # the scheduler, the slack root, the certificates and open-loop play
    # read the value flow's planes off its count and never read P
    for module in (riccati, simulator):
        monkeypatch.setattr(module, "eval_solution", lambda *args: pytest.fail("P read"))
    sched = optimal_schedule(example_spec, example_value_sol)
    assert sched.N == 1 and len(sched.slack_sup) == 1
    assert all(c.passed for c in check_admissibility(example_spec, example_value_sol, [0.6]))
    assert max_next_instance(example_spec, example_value_sol, 0.0, 1.0) == sched.slack_sup[0]
    open_loop_pair(example_spec, example_value_sol)
