import numpy as np
import pytest
import scipy.linalg as la

from pegame.game_model import GameSpec, example_one_spec
from pegame.riccati import (
    _gap_problem,
    eval_solution,
    make_gap_problem,
    make_value_problem,
    solve_riccati,
    solve_value_riccati,
)
from pegame import escape, riccati
from pegame.errors import EscapeReport, FiniteEscape, OutOfRange
from pegame.escape import TIME_TOL_REL, detect_escape_norm, detect_escape_radon
from pegame.scheduler import MARGIN_REL, check_admissibility, max_next_instance, optimal_schedule
from pegame.simulator import Strategy, deviation_gain_check, risky_strategy, simulate


def escape_time_formula(t_next):
    # closed-form singularity of the worked example's gap flow
    return (4.0 * t_next - 3.0) / 2.0


def test_norm_detector_example_one(example_spec, example_value_sol):
    problem = make_gap_problem(example_spec, example_value_sol, 1.0)
    rep = detect_escape_norm(problem, 0.0)
    assert rep.found
    assert abs(rep.t_escape - 0.5) <= TIME_TOL_REL / 4


def test_radon_detector_example_one(example_spec, example_value_sol):
    boundary = -eval_solution(example_value_sol, 1.0)
    rep = detect_escape_radon(_gap_problem(example_spec, 1.0, boundary), 0.0)
    assert rep.found
    assert abs(rep.t_escape - 0.5) <= TIME_TOL_REL / 2


def test_detectors_agree_example_one(example_spec, example_value_sol):
    problem = make_gap_problem(example_spec, example_value_sol, 1.0)
    rn = detect_escape_norm(problem, 0.0)
    boundary = -eval_solution(example_value_sol, 1.0)
    rr = detect_escape_radon(_gap_problem(example_spec, 1.0, boundary), 0.0)
    assert abs(rn.t_escape - rr.t_escape) <= 1e-6


def test_no_escape_on_short_horizon(example_spec, example_value_sol):
    # from terminal 0.5 the singularity sits at -1/2, below the floor 0
    problem = make_gap_problem(example_spec, example_value_sol, 0.5)
    assert not detect_escape_norm(problem, 0.0).found
    boundary = -eval_solution(example_value_sol, 0.5)
    assert not detect_escape_radon(_gap_problem(example_spec, 0.5, boundary), 0.0).found


def test_zero_flow_never_escapes(example_spec):
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
    value_sol = solve_value_riccati(trivial)
    problem = make_gap_problem(trivial, value_sol, 1.0)
    assert not detect_escape_norm(problem, -5.0).found
    assert not detect_escape_radon(_gap_problem(trivial, 1.0, np.zeros((4, 4))), -5.0).found


def test_escape_time_formula_and_monotonicity(example_spec, example_value_sol):
    previous = -np.inf
    for t_next in (0.6, 0.75, 0.9, 1.0):
        boundary = -eval_solution(example_value_sol, t_next)
        rep = detect_escape_radon(_gap_problem(example_spec, t_next, boundary), -1.0)
        assert rep.found
        expected = escape_time_formula(t_next)
        assert rep.t_escape == pytest.approx(expected, abs=1e-6)
        assert rep.t_escape > previous
        previous = rep.t_escape


def test_methods_agree_on_random_games(make_escape_spec):
    rng = np.random.default_rng(20240)
    agreements = 0
    for trial in range(12):
        spec = make_escape_spec(rng, n=2 + trial % 2)
        value_sol = solve_value_riccati(spec)
        floor = spec.tf - 3.0
        rn = detect_escape_norm(make_gap_problem(spec, value_sol, spec.tf), floor)
        boundary = -eval_solution(value_sol, spec.tf)
        rr = detect_escape_radon(_gap_problem(spec, spec.tf, boundary), floor)
        assert rn.found == rr.found
        if rn.found and rr.found:
            agreements += 1
            assert abs(rn.t_escape - rr.t_escape) <= TIME_TOL_REL * 3.0
    assert agreements >= 8


def test_slack_exists_below_any_terminal(make_escape_spec, example_spec,
                                         example_value_sol):
    # a short enough backward run from any boundary is always escape-free
    rng = np.random.default_rng(99)
    cases = [(example_spec, example_value_sol)]
    for _ in range(4):
        spec = make_escape_spec(rng, n=2)
        cases.append((spec, solve_value_riccati(spec)))
    for spec, value_sol in cases:
        for t1 in (0.4 * spec.tf + 0.6 * spec.t0, spec.tf):
            problem = make_gap_problem(spec, value_sol, t1)
            rep = detect_escape_norm(problem, t1 - 1e-4)
            assert not rep.found


def test_bracket_is_certified_finite(example_spec, example_value_sol):
    # the count of the linear flow changes within a quarter of the time
    # resolution of the norm detector's escape, and at the upper end the
    # flow, evaluated pointwise-exactly, is finite and large
    problem = make_gap_problem(example_spec, example_value_sol, 1.0)
    t = detect_escape_norm(problem, 0.0).t_escape
    lo, hi = t - TIME_TOL_REL / 4, t + TIME_TOL_REL / 4
    flow = riccati._count(problem, 0.0)
    assert flow.count(hi) == 0 != flow.count(lo)
    norm_at_hi = np.linalg.norm(flow.value(hi), 2)
    assert np.isfinite(norm_at_hi) and norm_at_hi >= 1e8


@pytest.mark.parametrize("b", [1.0, 0.8])
def test_count_value_matches_closed_form(example_spec, example_value_sol, b):
    # example1's K is nilpotent, hence defective; above the pole the flow
    # is -K/(3 - 4b + 2t)
    boundary = -eval_solution(example_value_sol, b)
    flow = riccati._count(_gap_problem(example_spec, b, boundary), 0.0)
    t = np.linspace(escape_time_formula(b) + 0.05, b, 41)
    exact = -np.block([[np.eye(2), -np.eye(2)], [-np.eye(2), np.eye(2)]]) / (
        3.0 - 4.0 * b + 2.0 * t[:, None, None]
    )
    got = flow.value(t)
    assert np.abs(got - exact).max() <= 1e-12 * np.abs(exact).max()
    # one time gives one matrix; BLAS rounds it apart from a batch's row
    assert np.abs(flow.value(t[7]) - got[7]).max() <= 1e-15 * np.abs(got[7]).max()


def expm_value(flow, t):
    """The count's flow V U^-1 at an array of times, with the in-cell move
    made by scipy's scaling-and-squaring exponential."""
    k = flow._cell(t)
    UV = la.expm(flow.K * (t - flow.s[k])[:, None, None]) @ flow.frames[k]
    n = UV.shape[-1]
    return UV[:, n:] @ np.linalg.inv(UV[:, :n])


def relative_gap(got, reference):
    """Worst over times of the max-entry difference over the max entry."""
    scale = np.abs(reference).max(axis=(1, 2))
    return (np.abs(got - reference).max(axis=(1, 2)) / scale).max()


def test_count_value_moves_agree(make_escape_spec):
    # the Taylor move and the exponential move give one flow, at times at
    # least 0.05 above the largest pole
    rng = np.random.default_rng(71)
    worst, games = 0.0, 0
    while games < 20:
        spec = make_escape_spec(rng, n=2)
        sol = solve_value_riccati(spec)
        flow = riccati._count(_gap_problem(spec, spec.tf, -eval_solution(sol, spec.tf)), spec.t0)
        top = spec.t0 if flow.first is None else flow.first + 0.05
        if top >= spec.tf:
            continue
        games += 1
        t = np.linspace(top, spec.tf, 41)
        worst = max(worst, relative_gap(flow.value(t), expm_value(flow, t)))
    assert worst <= 1e-13


def test_count_value_near_a_defective_hamiltonian():
    # A is a Jordan block and Q nearly 0, so the gap Hamiltonian is close
    # to a defective one: its eigenvector matrix has condition 2.2e7
    n = 2
    spec = GameSpec(
        A=np.array([[0.0, 1.0], [0.0, 0.0]]), B=np.eye(n), C=0.5 * np.eye(n),
        Q=1e-10 * np.eye(n), Q_f=np.eye(n), R_p=np.eye(n), R_e=np.eye(n),
        t0=0.0, tf=1.0, x0=np.zeros(n),
    )
    flow = riccati._count(_gap_problem(spec, 1.0, -np.eye(n)), 0.0)
    assert np.linalg.cond(np.linalg.eig(flow.K)[1]) > 1e7
    t = np.linspace(0.0, 1.0, 41)
    assert relative_gap(flow.value(t), expm_value(flow, t)) <= 1e-13


@pytest.mark.parametrize(
    "K",
    [np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.5, 1.0], [0.0, 0.5]])],
    ids=["nilpotent", "jordan"],
)
def test_taylor_move_against_expm_at_the_bound(K):
    # n = 1 has the largest in-cell move the grid allows, ||K dt|| = pi/4
    frame = np.array([[1.0], [0.0]])
    (flow,) = riccati._counts(
        riccati._Taylor(K), frame, 0.0, 1.0, lambda s: np.broadcast_to(frame, np.shape(s) + (2, 1))
    )
    bound = np.pi / (4 * np.linalg.norm(K, 2))
    assert abs(flow.h) <= bound
    dt = np.linspace(-bound, bound, 9)
    want = la.expm(K * dt[:, None, None])
    got = flow.exp(dt)
    assert np.abs(got - want).max() <= 4e-16 * np.abs(want).max()
    assert np.allclose(flow.exp(dt[2]), got[2], rtol=0, atol=4e-16)


def test_count_refuses_times_outside_its_span(example_spec, example_value_sol):
    boundary = -eval_solution(example_value_sol, 1.0)
    flow = riccati._count(_gap_problem(example_spec, 1.0, boundary), 0.6)
    flow.value(np.array([0.6, 1.0]))
    for t in (0.6 - 1e-6, 1.0 + 1e-6):
        with pytest.raises(OutOfRange):
            flow.value(t)
        with pytest.raises(OutOfRange):
            flow.count(t)
    with pytest.raises(OutOfRange):
        flow.value(np.array([0.8, 1.5]))


# ---------------------------------------------------------------------------
# the Maslov count against closed forms


def _diagonal_game(a, q, c, tf=1.0):
    """Uncoupled scalar channels: A = diag(a), Q = diag(q), C = diag(c) and
    R_e = I, so channel k of the gap flow obeys X' = -2 a X + q + c^2 X^2."""
    n = len(a)
    return GameSpec(
        A=np.diag(a), B=np.eye(n), C=np.diag(c), Q=np.diag(q), Q_f=np.eye(n),
        R_p=np.eye(n), R_e=np.eye(n), t0=0.0, tf=tf, x0=np.zeros(n),
    )


def test_scalar_tan_escapes_are_counted():
    # X' = 1 + 4 X^2 from X(2) = 0 is tan(2 (t - 2)) / 2: poles at
    # 2 - pi/4 - k pi/2, two of them above the floor -1
    spec = _diagonal_game([0.0], [1.0], [2.0], tf=2.0)
    flow = riccati._count(_gap_problem(spec, 2.0, np.zeros((1, 1))), -1.0)
    poles = (2.0 - np.pi / 4, 2.0 - 3 * np.pi / 4)
    assert abs(flow.count(-1.0)) == 2
    assert abs(flow.count(0.5 * (poles[0] + poles[1]))) == 1
    assert flow.count(poles[0] + 1e-6) == 0
    rep = detect_escape_radon(_gap_problem(spec, 2.0, np.zeros((1, 1))), -1.0)
    assert rep.found and abs(rep.t_escape - poles[0]) <= 1e-12


def test_scalar_tanh_escape():
    # X' = -2X + X^2 = (X - 1)^2 - 1: from X(1) = x1 < 0, X - 1 = -coth(t - c)
    # with coth(1 - c) = 1 - x1, so the pole is at c = 1 - artanh(1/(1 - x1))
    spec = _diagonal_game([1.0], [0.0], [1.0])
    for x1, floor in ((-1.0, 0.0), (-0.2, -0.5)):
        t_star = 1.0 - np.arctanh(1.0 / (1.0 - x1))  # 0.451, -0.199
        rep = detect_escape_radon(_gap_problem(spec, 1.0, [[x1]]), floor)
        assert rep.found and abs(rep.t_escape - t_star) <= 1e-12
    assert not detect_escape_radon(_gap_problem(spec, 1.0, [[-0.2]]), 0.0).found


def test_solve_and_radon_detector_read_one_count(example_spec, example_value_sol):
    # an escape the solve raises is the radon detector's report, for value
    # and gap problems alike; without one, the solve returns
    value_escape = _diagonal_game([0.0], [0.0], [2.0], tf=2.0)  # X' = -3 X^2, pole at 5/3
    gap = make_gap_problem(example_spec, example_value_sol, 1.0)
    escaping = [
        (make_value_problem(value_escape), 0.0),
        (gap, 0.0),
        (_gap_problem(_diagonal_game([0.0], [1.0], [2.0], tf=2.0), 2.0, np.zeros((1, 1))), -1.0),
    ]
    for problem, floor in escaping:
        with pytest.raises(FiniteEscape) as raised:
            solve_riccati(problem, floor)
        assert raised.value.report == detect_escape_radon(problem, floor)
        assert raised.value.report.found
    short = make_gap_problem(example_spec, example_value_sol, 0.5)
    for problem in (make_value_problem(example_spec), short):
        assert detect_escape_radon(problem, 0.0) == EscapeReport(False, None)
        solve_riccati(problem, 0.0)
    # the norm detector takes the very problem the radon detector takes
    rn, rr = detect_escape_norm(gap, 0.0), detect_escape_radon(gap, 0.0)
    assert rn.found and abs(rn.t_escape - rr.t_escape) <= 1e-6


def test_count_is_the_number_of_escaping_blocks():
    # rotated diagonal game: channel k with rate w = sqrt(q c^2) escapes
    # from 0 at 1 - pi/(2w) and again a period pi/w earlier, below 0 here
    rates = np.array([0.5, 1.5, 2.5, 3.5])
    poles = 1.0 - np.pi / (2 * rates)  # -2.14, -0.05, 0.37, 0.55
    O = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))[0]
    base = _diagonal_game(np.zeros(4), rates**2, np.ones(4))
    spec = GameSpec(
        A=base.A, B=base.B, C=O @ base.C, Q=O @ base.Q @ O.T, Q_f=base.Q_f,
        R_p=base.R_p, R_e=base.R_e, t0=0.0, tf=1.0, x0=base.x0,
    )
    flow = riccati._count(_gap_problem(spec, 1.0, np.zeros((4, 4))), 0.0)
    for t in np.linspace(0.0, 1.0, 41):
        assert abs(flow.count(t)) == int(np.sum(poles >= t)), t
    assert abs(flow.first - poles[-1]) <= 1e-12


@pytest.mark.parametrize("eps", [1e-3, 1e-6])
def test_perturbed_double_root_splits(eps):
    # example1's channels escape together at (4 t1 - 3)/2, a double root of
    # det U; an evader weight r_e (1 + eps) on the second channel moves its
    # escape to t1 - r_e (1 + eps) (1 + b (1 - t1)), b = 1/r_p - 1/r_e,
    # which is 1/2 - eps/2 from t1 = 1
    ex = example_one_spec()
    spec = GameSpec(
        A=ex.A, B=ex.B, C=ex.C, Q=ex.Q, Q_f=ex.Q_f, R_p=ex.R_p,
        R_e=np.diag([0.5, 0.5 * (1 + eps)]), t0=0.0, tf=1.0, x0=ex.x0,
    )
    sol = solve_value_riccati(spec)
    flow = riccati._count(_gap_problem(spec, 1.0, -eval_solution(sol, 1.0)), 0.0)
    assert abs(flow.count(0.0)) == 2
    assert abs(flow.count(0.5 - eps / 4)) == 1
    assert flow.count(0.5 + eps / 4) == 0
    assert abs(flow.first - 0.5) <= 1e-11
    rn = detect_escape_norm(make_gap_problem(spec, sol, 1.0), 0.0)
    assert abs(rn.t_escape - flow.first) <= 1e-6


def test_example_one_double_root_counts_twice(example_spec, example_value_sol):
    boundary = -eval_solution(example_value_sol, 1.0)
    flow = riccati._count(_gap_problem(example_spec, 1.0, boundary), 0.0)
    assert flow.count(0.0) == -2
    assert flow.count(0.5 + 1e-6) == 0


def test_long_unstable_horizon_grid_grows():
    # unstable drift over 40 time units: the grid follows ||H|| * span and
    # the escape matches the norm detector
    spec = GameSpec(
        A=np.array([[2.0, 1.0], [0.0, 1.5]]), B=np.eye(2), C=np.eye(2),
        Q=0.05 * np.eye(2), Q_f=np.eye(2), R_p=np.eye(2), R_e=np.eye(2),
        t0=0.0, tf=40.0, x0=np.zeros(2),
    )
    X1 = np.zeros((2, 2))
    problem = _gap_problem(spec, 40.0, X1)
    flow = riccati._count(problem, 0.0)
    rate = 4 * 2 * np.linalg.norm(problem.hamiltonian, 2) / np.pi
    assert len(flow.s) - 1 == int(np.ceil(40.0 * rate)) > 250
    rr = detect_escape_radon(problem, 0.0)
    rn = detect_escape_norm(problem, 0.0)
    assert rr.found and rn.found
    assert abs(rr.t_escape - rn.t_escape) <= 1e-6


def test_lift_steps_stay_below_a_quarter_turn(make_escape_spec, counts):
    # the grid spacing pi/(4n (||K|| + partner speed)) bounds each lift
    # step by pi/2, for the counts in time and in the terminal time alike;
    # halving a cell splits its step in two without wrapping
    rng = np.random.default_rng(61)
    for trial in range(8):
        spec = make_escape_spec(rng, n=2 + trial % 2)
        before = len(counts)
        sol = solve_value_riccati(spec)
        assert len(counts) == before + 1  # the value solve counts its flow
        optimal_schedule(spec, sol)
    assert any(c.h > 0 for c in counts)  # slack counts run up in tau
    worst = 0.0
    for c in counts:
        steps = np.diff(c.S)
        lift = steps - 2 * np.pi * np.rint(steps / (2 * np.pi))
        worst = max(worst, float(np.abs(lift).max()))
        for k in range(0, len(c.s) - 1, 7):
            mid = c._jump(0.5 * (c.s[k] + c.s[k + 1]), k)[1].sum()
            halves = np.array([mid - c.S[k], c.S[k + 1] - mid])
            halves -= 2 * np.pi * np.rint(halves / (2 * np.pi))
            assert abs(halves.sum() - lift[k]) <= 1e-9
    assert worst < np.pi / 2


def test_schedule_counts_each_flow_once(make_escape_spec, counts):
    # the recursion counts N + 1 gap flows (down in time), the slack N
    # flows (up in the terminal time), and the guard reads its slack count
    rng = np.random.default_rng(8)
    for trial in range(4):
        spec = make_escape_spec(rng, n=2)
        sol = solve_value_riccati(spec)
        counts.clear()
        sched = optimal_schedule(spec, sol, compute_slack=False)
        assert len(counts) == sched.N + 1
        counts.clear()
        sched = optimal_schedule(spec, sol, compute_slack=True)
        assert sched.N > 0
        assert sum(c.h < 0 for c in counts) == sched.N + 1
        assert sum(c.h > 0 for c in counts) == sched.N
        assert len(counts) == 2 * sched.N + 1


def _scheduled_games(make_escape_spec, count, seed):
    """``count`` escape games of n = 2-4 with their value solutions and
    schedules."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        spec = make_escape_spec(rng, n=2 + trial % 3)
        sol = solve_value_riccati(spec)
        yield spec, sol, optimal_schedule(spec, sol)


def test_slack_guard_agrees_with_the_interval_check(make_escape_spec):
    # the guard lets every time one margin under a slack root pass; the
    # interval check of [t_prev, that time) counts independently and
    # passes too.  One margin past the root it fails.
    checked = 0
    for spec, sol, sched in _scheduled_games(make_escape_spec, 20, seed=21):
        bounds = [spec.t0, *sched.instants, spec.tf]
        margin = MARGIN_REL * spec.horizon
        slack = escape._slack_counts(spec, sol, bounds[:-2], bounds[2:])
        for t_prev, count in zip(bounds, slack):
            if count is None or count.first is None:
                continue
            for tau, want in ((count.first - margin, False), (count.first + margin, True)):
                if not count.s[0] < tau <= count.s[-1]:
                    continue
                ((inside, _, _),) = escape._escape_inside(spec, sol, t_prev, tau)
                assert inside == want, (t_prev, tau)
                checked += 1
    assert checked >= 40


def _tie_below(first: float, tol: float) -> float:
    """A start a with a + tol == first in floating point."""
    a = first - tol
    for _ in range(16):
        if a + tol == first:
            return a
        a = np.nextafter(a, np.inf if a + tol < first else -np.inf)
    raise AssertionError(f"no start with a + tol == {first!r}")


def test_interval_verdicts_match_the_exact_count(make_escape_spec):
    # [a, b) holds an escape when the first meeting of the count from b
    # lies more than tol above a; the oracle is the exact lift of N at
    # a + tol, or at b if lower.  Starts are random, and d tol under the
    # first meeting of the count from b to t0.  A start exactly tol under
    # the meeting is a tie, where the lift is round-off: the escape sits
    # on the tolerance edge, outside the interval.
    rng = np.random.default_rng(23)
    verdicts, ties = [], 0
    for trial in range(20):
        spec = make_escape_spec(rng, n=2 + trial % 3)
        sol = solve_value_riccati(spec)
        tol = escape.BOUNDARY_TOL_REL * spec.horizon
        ends = [*rng.uniform(spec.t0 + 0.1 * spec.horizon, spec.tf, 4), spec.tf]
        whole = escape._escape_inside(spec, sol, [spec.t0] * len(ends), ends)
        a = [float(rng.uniform(spec.t0, b)) for b in ends]
        b = list(ends)
        for end, (_, _, flow) in zip(ends, whole):
            if flow.first is not None:
                for d in (-2, -0.5, 0.5, 2, 10):
                    a.append(flow.first - d * tol)
                    b.append(end)
        for a_i, b_i, (inside, pole, flow) in zip(a, b, escape._escape_inside(spec, sol, a, b)):
            assert inside == (flow.count(min(a_i + tol, b_i)) != 0), (a_i, b_i)
            first = flow.first
            assert pole == (first if first is not None and first >= a_i - tol else None)
            verdicts.append(inside)
            if first is not None:
                tie = _tie_below(first, tol)
                assert escape._intervals([flow], [tie], tol) == [(False, first)]
                ties += 1
    assert len(verdicts) >= 300 and 50 <= sum(verdicts) <= len(verdicts) - 50
    assert ties >= 200


def test_batched_counts_equal_their_singles(make_escape_spec):
    # a batch moves its frames in lock step and refines its roots in lock
    # step; each result equals that of the same count built alone
    slack_roots = certificates = 0
    for spec, sol, sched in _scheduled_games(make_escape_spec, 20, seed=22):
        tol = 1e-12 * spec.horizon
        bounds = [spec.t0, *sched.instants, spec.tf]
        for t_prev, upper, sup in zip(bounds, bounds[2:], sched.slack_sup):
            assert abs(max_next_instance(spec, sol, t_prev, upper) - sup) <= tol
            slack_roots += 1
        # every instant but the first, and the midpoints: some intervals fail
        broken = sorted({*sched.instants[1:], *np.convolve(sched.instants, [0.5, 0.5], "valid")})
        ends = [spec.t0, *broken, spec.tf]
        for cert, a, b in zip(check_admissibility(spec, sol, broken), ends, ends[1:]):
            ((inside, pole, _),) = escape._escape_inside(spec, sol, a, b)
            assert cert.escape_found == inside
            assert (cert.t_escape is None) == (pole is None)
            if pole is not None:
                assert abs(cert.t_escape - pole) <= tol
            certificates += 1
    assert slack_roots >= 20 and certificates >= 20


def test_schedule_builds_the_gap_table_once(make_escape_spec, monkeypatch):
    # every gap count and slack count of one schedule moves by the game's
    # one gap propagator
    made = []

    class Recorded(riccati._Taylor):
        def __init__(self, K):
            super().__init__(K)
            made.append(self)

    monkeypatch.setattr(riccati, "_Taylor", Recorded)
    rng = np.random.default_rng(8)
    for trial in range(3):
        spec = make_escape_spec(rng, n=2)
        sol = solve_value_riccati(spec)
        made.clear()
        sched = optimal_schedule(spec, sol)
        assert sched.N > 0 and len(sched.slack_sup) == sched.N
        assert made == [spec._gap_flow]


def test_first_reads_the_bracket_ends_off_the_grid(make_escape_spec, counts):
    # the signed angles at the ends of the first jumped cell, read off the
    # grid, are those of a move from its opening frame
    rng = np.random.default_rng(21)
    for trial in range(8):
        spec = make_escape_spec(rng, n=2 + trial % 2)
        optimal_schedule(spec, solve_value_riccati(spec))
    checked = 0
    for c in counts:
        jumped = np.flatnonzero(c.N)
        if jumped.size == 0:
            continue
        k = int(jumped[0]) - 1
        for j, moved in ((k, False), (k + 1, True)):
            got_moved, a = c._jump(c.s[j], k)
            assert bool(got_moved) == moved
            assert abs(np.abs(a).max() - np.abs(c.angles[j]).max()) <= 1e-12
        checked += 1
    assert checked >= 20


def test_deviations_price_with_their_count(example_spec, example_value_sol, counts, monkeypatch):
    # the gain check and the risky deviation each count their interval's
    # gap flow once and evaluate the error-value flow with that count
    value, used = escape._Count.value, set()
    monkeypatch.setattr(escape._Count, "value", lambda flow, t: used.add(flow) or value(flow, t))
    spec, sol = example_spec, example_value_sol
    deviation_gain_check(spec, sol, (0.5, 1.0), np.array([1.0, 0.0]))
    assert len(counts) == 1 and used == {counts[0]}
    risky = risky_strategy(spec, sol, (0.0, 1.0), scale=2.0)
    simulate(spec, sol, [], Strategy.certainty_equivalent(), risky)
    assert len(counts) == 2 and used == set(counts)


# ---------------------------------------------------------------------------
# the norm detector's charts


@pytest.mark.parametrize("c", [0.02, 0.05, 0.1, 0.2])
def test_norm_detector_meets_a_weak_evaders_pole(c, charts):
    # near a pole X ~ v v' / (c^2 (t - t*)), so the time where ||X|| reaches
    # a fixed level trails the pole by about 1 / (c^2 level); the detector
    # locates the pole itself, as the count does
    spec = GameSpec(
        A=np.array([[0.5, 1.0], [0.0, 0.3]]), B=np.eye(2), C=c * np.eye(2),
        Q=0.01 * np.eye(2), Q_f=np.eye(2), R_p=np.eye(2), R_e=np.eye(2),
        t0=0.0, tf=30.0, x0=np.zeros(2),
    )
    X1 = np.zeros((2, 2))
    rn = detect_escape_norm(_gap_problem(spec, 30.0, X1), 0.0)
    rr = detect_escape_radon(_gap_problem(spec, 30.0, X1), 0.0)
    assert rn.found and rr.found
    assert abs(rn.t_escape - rr.t_escape) <= 1e-7
    # the first chart is made at the terminal time, from X = 0, with the
    # least shift
    assert charts[0] == (30.0, 1.0, -2 * escape.CHART_LEVEL)


@pytest.fixture
def charts(monkeypatch):
    """(t, s, sigma) of every chart the norm detector makes."""
    made, original = [], escape._chart

    def recorded(problem, t, X):
        chart, s, sigma = original(problem, t, X)
        made.append((t, s, sigma))
        return chart, s, sigma

    monkeypatch.setattr(escape, "_chart", recorded)
    return made


def test_norm_detector_past_the_level_without_escape(charts):
    # X' = -2X + X^2 / 1e4 from 50 grows backward toward the equilibrium
    # 2e4: it is 2e4 / (1 + 399 exp(-2 (1 - t))), past the chart level at
    # t = 0.65, and finite throughout
    spec = _diagonal_game([1.0], [0.0], [0.01])
    X1 = np.array([[50.0]])
    assert not detect_escape_norm(_gap_problem(spec, 1.0, X1), -4.0).found
    assert not detect_escape_radon(_gap_problem(spec, 1.0, X1), -4.0).found
    assert len(charts) == 1 and charts[0][1] == 1.0


def test_norm_detector_recharts_for_a_pole_of_the_other_sign(charts):
    # the first channel, as above, takes X past the chart level with the
    # sign +1 and never escapes; the second, X' = X^2 from -1/2 at t = 1,
    # is -1/(t + 1) and escapes to -infinity at t = -1, through the shift
    # of the first chart, so the detector charts afresh
    spec = _diagonal_game([1.0, 0.0], [0.0, 0.0], [0.01, 1.0])
    X1 = np.diag([50.0, -0.5])
    rn = detect_escape_norm(_gap_problem(spec, 1.0, X1), -2.0)
    assert rn.found and abs(rn.t_escape + 1.0) <= TIME_TOL_REL * 3.0 / 4
    assert charts[0][1] == 1.0 and charts[-1][1] == -1.0
    rr = detect_escape_radon(_gap_problem(spec, 1.0, X1), -2.0)
    assert abs(rn.t_escape - rr.t_escape) <= 1e-9


# ---------------------------------------------------------------------------
# the norm detector's stepper


@pytest.mark.parametrize("span", [3.0, 10.0, 100.0])
@pytest.mark.parametrize("X1", [0.0, 5.0, -5.0, 1e3])
def test_no_step_jumps_a_pole(span, X1):
    # X' = -(1 + X^2) from X1 at t1 is tan(atan X1 + t1 - t): poles every
    # pi below t1 - (pi/2 - atan X1), up to 31 of them in the span; a step
    # that jumped the first would report a later one
    t1 = 2.0
    one = np.ones((1, 1))
    problem = riccati.RiccatiProblem("gap", 0 * one, one, one, t1, X1 * one, 1)
    rn = detect_escape_norm(problem, t1 - span)
    assert rn.found
    assert abs(rn.t_escape - (t1 - (np.pi / 2 - np.arctan(X1)))) <= 1e-9 * span


def _escape_games(make_escape_spec):
    """The 31 of 32 ``make_escape_spec`` draws (rng seed 3) whose gap flow from
    tf escapes above the floor t0 - 2, as (spec, gap problem, floor)."""
    rng = np.random.default_rng(3)
    games = []
    for i in range(32):
        spec = make_escape_spec(rng, n=2 + i % 2)
        sol = solve_value_riccati(spec)
        floor = spec.t0 - 2.0
        boundary = -eval_solution(sol, spec.tf)
        if detect_escape_radon(_gap_problem(spec, spec.tf, boundary), floor).found:
            games.append((spec, make_gap_problem(spec, sol, spec.tf), floor))
    assert len(games) == 31
    return games


def test_stepper_nodes_match_the_count(make_escape_spec):
    # run on X itself, every accepted node of the stepper while ||X||_2
    # stays below the chart level is the exact flow, evaluated by the
    # count, to 1e-9 relative
    worst, nodes = 0.0, 0
    for spec, problem, floor in _escape_games(make_escape_spec):
        exact = riccati._count(problem, floor)
        march = escape._integrate_backward(
            problem.rhs, spec.tf, problem.terminal_value, floor, spec.tf - floor
        )
        for t, X in march:
            if np.linalg.norm(X, 2) >= escape.CHART_LEVEL:
                break
            V = exact.value(t)
            worst = max(worst, np.linalg.norm(X - V, 2) / np.linalg.norm(V, 2))
            nodes += 1
    assert nodes > 31
    assert worst <= 1e-9


def test_norm_detector_from_the_exact_terminal_on_a_long_horizon(long_spec, long_value_sol):
    # make_gap_problem reads -P(b) off the value count, the flow the count
    # certifies; through the Hermite interpolant the flow had no escape
    problem = make_gap_problem(long_spec, long_value_sol, 999.40654176010241)
    report = detect_escape_norm(problem, long_spec.t0)
    assert report.found
    assert report.t_escape == pytest.approx(996.17630387, abs=1e-6)
