import numpy as np
import pytest
import scipy.linalg as la

from pegame.game_model import GameSpec, example_one_spec
from pegame.riccati import (
    DEFAULT_BLOWUP,
    _integrate_backward,
    eval_solution,
    make_gap_problem,
    solve_value_riccati,
)
from pegame.escape import detect_escape_norm, detect_escape_radon


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
    problem = make_gap_problem(example_spec, example_value_sol, 1.0)
    rep = detect_escape_norm(problem, 0.0)
    _, hi = rep.bracket
    rerun = _integrate_backward(
        problem.rhs, problem.terminal_time, problem.terminal_value, hi
    )
    assert rerun.status == "reached"
    norm_at_hi = np.linalg.norm(rerun.xs[-1], 2)
    assert norm_at_hi >= DEFAULT_BLOWUP / 10


def test_matrix_exponential_against_series():
    # the linear-flow detector leans on the matrix exponential; check the
    # library routine against a plain Taylor sum on small-norm inputs
    rng = np.random.default_rng(42)
    for _ in range(10):
        H = rng.standard_normal((6, 6)) * 0.3
        series = np.eye(6)
        term = np.eye(6)
        for k in range(1, 30):
            term = term @ H / k
            series = series + term
        assert np.abs(la.expm(H) - series).max() <= 1e-12
