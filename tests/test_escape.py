import numpy as np
import pytest
import scipy.linalg as la

from pegame.game_model import GameSpec, example_one_spec
from pegame.riccati import (
    DEFAULT_BLOWUP,
    _gap_problem,
    eval_solution,
    make_gap_problem,
    solve_value_riccati,
)
from pegame import escape
from pegame.errors import OutOfRange
from pegame.escape import TIME_TOL_REL, detect_escape_norm, detect_escape_radon
from pegame.scheduler import optimal_schedule
from pegame.simulator import Strategy, deviation_gain_check, risky_strategy, simulate


def escape_time_formula(t_next):
    # closed-form singularity of the worked example's gap flow
    return (4.0 * t_next - 3.0) / 2.0


def test_norm_detector_example_one(example_spec, example_value_sol):
    problem = make_gap_problem(example_spec, example_value_sol, 1.0)
    rep = detect_escape_norm(problem, 0.0)
    assert rep.found
    assert rep.t_escape == pytest.approx(0.5, abs=1e-6)
    lo, hi = rep.bracket
    assert 0.0 <= lo < hi <= 1.0
    assert hi - lo <= 1e-9
    assert rep.norm_at_detection >= DEFAULT_BLOWUP / 10


def test_radon_detector_example_one(example_spec, example_value_sol):
    boundary = -eval_solution(example_value_sol, 1.0)
    rep = detect_escape_radon(example_spec, 1.0, boundary, 0.0)
    assert rep.found
    assert rep.t_escape == pytest.approx(0.5, abs=1e-6)
    assert rep.method == "radon_determinant"


def test_detectors_agree_example_one(example_spec, example_value_sol):
    problem = make_gap_problem(example_spec, example_value_sol, 1.0)
    rn = detect_escape_norm(problem, 0.0)
    rr = detect_escape_radon(
        example_spec, 1.0, -eval_solution(example_value_sol, 1.0), 0.0
    )
    assert abs(rn.t_escape - rr.t_escape) <= 1e-6


def test_no_escape_on_short_horizon(example_spec, example_value_sol):
    # from terminal 0.5 the singularity sits at -1/2, below the floor 0
    problem = make_gap_problem(example_spec, example_value_sol, 0.5)
    assert not detect_escape_norm(problem, 0.0).found
    boundary = -eval_solution(example_value_sol, 0.5)
    assert not detect_escape_radon(example_spec, 0.5, boundary, 0.0).found


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
    assert not detect_escape_radon(
        trivial, 1.0, np.zeros((4, 4)), -5.0
    ).found


def test_escape_time_formula_and_monotonicity(example_spec, example_value_sol):
    previous = -np.inf
    for t_next in (0.6, 0.75, 0.9, 1.0):
        boundary = -eval_solution(example_value_sol, t_next)
        rep = detect_escape_radon(example_spec, t_next, boundary, -1.0)
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
        rr = detect_escape_radon(
            spec, spec.tf, -eval_solution(value_sol, spec.tf), floor
        )
        assert rn.found == rr.found
        if rn.found and rr.found:
            agreements += 1
            assert abs(rn.t_escape - rr.t_escape) <= 1e-6
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
    # the count of the linear flow changes inside the bracket, and at its
    # upper end the flow, evaluated pointwise-exactly, is finite and large
    problem = make_gap_problem(example_spec, example_value_sol, 1.0)
    lo, hi = detect_escape_norm(problem, 0.0).bracket
    flow = escape._gap_count(example_spec, 1.0, problem.terminal_value, 0.0)
    assert flow.count(hi) == 0 != flow.count(lo)
    norm_at_hi = np.linalg.norm(flow.value(hi), 2)
    assert np.isfinite(norm_at_hi) and norm_at_hi >= DEFAULT_BLOWUP / 10


@pytest.mark.parametrize("b", [1.0, 0.8])
def test_count_value_matches_closed_form(example_spec, example_value_sol, b):
    # example1's K is nilpotent, hence defective; above the pole the flow
    # is -K/(3 - 4b + 2t)
    flow = escape._gap_count(example_spec, b, -eval_solution(example_value_sol, b), 0.0)
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
        flow = escape._gap_count(spec, spec.tf, -eval_solution(sol, spec.tf), spec.t0)
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
    flow = escape._gap_count(spec, 1.0, -np.eye(n), 0.0)
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
    flow = escape._Count(K, frame, 0.0, 1.0, lambda s: np.broadcast_to(frame, np.shape(s) + (2, 1)))
    bound = np.pi / (4 * np.linalg.norm(K, 2))
    assert abs(flow.h) <= bound
    dt = np.linspace(-bound, bound, 9)
    want = la.expm(K * dt[:, None, None])
    got = flow._exp(dt)
    assert np.abs(got - want).max() <= 4e-16 * np.abs(want).max()
    assert np.allclose(flow._exp(dt[2]), got[2], rtol=0, atol=4e-16)


def test_count_refuses_times_outside_its_span(example_spec, example_value_sol):
    flow = escape._gap_count(example_spec, 1.0, -eval_solution(example_value_sol, 1.0), 0.6)
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
    flow = escape._gap_count(spec, 2.0, np.zeros((1, 1)), -1.0)
    poles = (2.0 - np.pi / 4, 2.0 - 3 * np.pi / 4)
    assert abs(flow.count(-1.0)) == 2
    assert abs(flow.count(0.5 * (poles[0] + poles[1]))) == 1
    assert flow.count(poles[0] + 1e-6) == 0
    rep = detect_escape_radon(spec, 2.0, np.zeros((1, 1)), -1.0)
    assert rep.found and abs(rep.t_escape - poles[0]) <= 1e-12
    assert rep.norm_at_detection is None


def test_scalar_tanh_escape():
    # X' = -2X + X^2 = (X - 1)^2 - 1: from X(1) = x1 < 0, X - 1 = -coth(t - c)
    # with coth(1 - c) = 1 - x1, so the pole is at c = 1 - artanh(1/(1 - x1))
    spec = _diagonal_game([1.0], [0.0], [1.0])
    for x1, floor in ((-1.0, 0.0), (-0.2, -0.5)):
        t_star = 1.0 - np.arctanh(1.0 / (1.0 - x1))  # 0.451, -0.199
        rep = detect_escape_radon(spec, 1.0, [[x1]], floor)
        assert rep.found and abs(rep.t_escape - t_star) <= 1e-12
        assert rep.bracket[0] <= t_star <= rep.bracket[1]
    assert not detect_escape_radon(spec, 1.0, [[-0.2]], 0.0).found


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
    flow = escape._gap_count(spec, 1.0, np.zeros((4, 4)), 0.0)
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
    flow = escape._gap_count(spec, 1.0, -eval_solution(sol, 1.0), 0.0)
    assert abs(flow.count(0.0)) == 2
    assert abs(flow.count(0.5 - eps / 4)) == 1
    assert flow.count(0.5 + eps / 4) == 0
    assert abs(flow.first - 0.5) <= 1e-11
    rn = detect_escape_norm(make_gap_problem(spec, sol, 1.0), 0.0)
    assert abs(rn.t_escape - flow.first) <= 1e-6


def test_example_one_double_root_counts_twice(example_spec, example_value_sol):
    flow = escape._gap_count(example_spec, 1.0, -eval_solution(example_value_sol, 1.0), 0.0)
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
    flow = escape._gap_count(spec, 40.0, X1, 0.0)
    rate = 4 * 2 * np.linalg.norm(problem.hamiltonian, 2) / np.pi
    assert len(flow.s) - 1 == int(np.ceil(40.0 * rate)) > 250
    rr = detect_escape_radon(spec, 40.0, X1, 0.0)
    rn = detect_escape_norm(problem, 0.0)
    assert rr.found and rn.found
    assert abs(rr.t_escape - rn.t_escape) <= 1e-6


@pytest.fixture
def counts(monkeypatch):
    """Every ``_Count`` built while the test runs."""
    made = []

    class Recorded(escape._Count):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(escape, "_Count", Recorded)
    return made


def test_lift_steps_stay_below_a_quarter_turn(make_escape_spec, counts):
    # the grid spacing pi/(4n (||K|| + partner speed)) bounds each lift
    # step by pi/2, for the counts in time and in the terminal time alike;
    # halving a cell splits its step in two without wrapping
    rng = np.random.default_rng(61)
    for trial in range(8):
        spec = make_escape_spec(rng, n=2 + trial % 2)
        optimal_schedule(spec, solve_value_riccati(spec))
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
    rng = np.random.default_rng(8)
    for trial in range(4):
        spec = make_escape_spec(rng, n=2)
        sol = solve_value_riccati(spec)
        counts.clear()
        sched = optimal_schedule(spec, sol, compute_slack=False)
        assert len(counts) == sched.N + 1


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
# the norm detector's second chart


@pytest.mark.parametrize("c", [0.02, 0.05, 0.1, 0.2])
def test_norm_detector_meets_a_weak_evaders_pole(c):
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
    rr = detect_escape_radon(spec, 30.0, X1, 0.0)
    assert rn.found and rr.found
    assert abs(rn.t_escape - rr.t_escape) <= 1e-7


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
    assert not detect_escape_radon(spec, 1.0, X1, -4.0).found
    assert len(charts) == 1 and charts[0][1] == 1.0


def test_norm_detector_recharts_for_a_pole_of_the_other_sign(charts):
    # the first channel, as above, takes X past the chart level with the
    # sign +1 and never escapes; the second, X' = X^2 from -1/2 at t = 1,
    # is -1/(t + 1) and escapes to -infinity at t = -1, through the shift
    # of the first chart, so the detector charts afresh
    spec = _diagonal_game([1.0, 0.0], [0.0, 0.0], [0.01, 1.0])
    X1 = np.diag([50.0, -0.5])
    rn = detect_escape_norm(_gap_problem(spec, 1.0, X1), -2.0)
    assert rn.found and abs(rn.t_escape + 1.0) <= 1e-9
    lo, hi = rn.bracket
    assert lo <= -1.0 <= hi and hi - lo <= TIME_TOL_REL * 3.0
    assert charts[0][1] == 1.0 and charts[-1][1] == -1.0
    rr = detect_escape_radon(spec, 1.0, X1, -2.0)
    assert abs(rn.t_escape - rr.t_escape) <= 1e-9
