import numpy as np
import pytest

from pegame.errors import FiniteEscape, OutOfRange
from pegame.game_model import GameSpec, example_one_spec
from pegame.riccati import (
    _hermite,
    _integrate_backward,
    eval_solution,
    make_gap_problem,
    make_value_problem,
    riccati_residual,
    solve_riccati,
    solve_value_riccati,
)

K_BLOCK = np.block([[np.eye(2), -np.eye(2)], [-np.eye(2), np.eye(2)]])


def closed_form_value(t):
    return K_BLOCK / (3.0 - 2.0 * t)


def closed_form_gap(t, t_next):
    return -K_BLOCK / (3.0 - 4.0 * t_next + 2.0 * t)


def euler_backward_oracle(rhs, t1, X1, targets, h=1e-5):
    """Brute-force fixed-step explicit Euler, sampled at given times."""
    out = {}
    t, X = t1, X1.copy()
    for target in sorted(targets, reverse=True):
        n_steps = int(round((t - target) / h))
        for _ in range(n_steps):
            X = X - h * rhs(t, X)
            t -= h
        t = target
        out[target] = X.copy()
    return out


def test_example_one_closed_form_on_grid(example_spec, example_value_sol):
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 101):
        err = np.abs(eval_solution(example_value_sol, t) - closed_form_value(t)).max()
        worst = max(worst, err)
    assert worst <= 1e-6


def test_eval_at_grid_nodes_is_exact(example_value_sol):
    sol = example_value_sol
    for k in (0, 1, len(sol.grid) // 2, len(sol.grid) - 1):
        assert np.array_equal(eval_solution(sol, sol.grid[k]), sol.values[k])


def test_eval_at_midpoint_matches_closed_form(example_value_sol):
    P_half = eval_solution(example_value_sol, 0.5)
    assert np.abs(P_half - 0.5 * K_BLOCK).max() <= 1e-6


def test_eval_at_terminal_returns_terminal_weight(example_spec, example_value_sol):
    assert np.array_equal(
        eval_solution(example_value_sol, example_spec.tf), example_spec.Q_f
    )


def test_eval_out_of_range_raises(example_value_sol):
    with pytest.raises(OutOfRange):
        eval_solution(example_value_sol, -0.5)
    with pytest.raises(OutOfRange):
        eval_solution(example_value_sol, 1.5)


def test_zero_weights_give_zero_solution(example_spec):
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
    assert np.abs(sol.values).max() == 0.0


@pytest.mark.parametrize("n,seed", [(2, 11), (3, 7), (4, 23)])
def test_adaptive_matches_euler_oracle(make_clean_spec, n, seed):
    rng = np.random.default_rng(seed)
    spec = make_clean_spec(rng, n=n)
    problem = make_value_problem(spec)
    sol = solve_value_riccati(spec)
    targets = np.linspace(spec.t0, spec.tf, 11)[:-1]
    oracle = euler_backward_oracle(
        problem.rhs, spec.tf, problem.terminal_value, targets
    )
    for t, X_ref in oracle.items():
        X = eval_solution(sol, t)
        rel = np.abs(X - X_ref).max() / (1.0 + np.abs(X_ref).max())
        assert rel <= 1e-5, f"t={t}: rel err {rel}"


def test_residual_example_one(example_spec, example_value_sol):
    res = riccati_residual(example_value_sol, make_value_problem(example_spec))
    assert res <= 1e-7


def test_residual_zero_for_zero_gap_flow(example_spec, example_value_sol):
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
    sol = solve_riccati(problem, 0.0)
    assert np.abs(sol.values).max() == 0.0
    assert riccati_residual(sol, problem) == 0.0


def test_error_value_equals_gap_plus_value(example_spec, example_value_sol):
    # strictly admissible interval: escape for terminal 1 sits at 0.5 < 0.6
    a, b = 0.6, 1.0
    spec = example_spec
    S, W = spec.evader_power(), spec.pursuer_power()

    def error_value_rhs(t, M):
        # time-varying error-value flow: F = A + S P(t), D = -P W P, N = -S
        P = eval_solution(example_value_sol, t)
        F = spec.A + S @ P
        return -(F.T @ M + M @ F - P @ W @ P - M @ S @ M)

    nodes = list(_integrate_backward(error_value_rhs, b, np.zeros((4, 4)), a))
    ts, xs = map(np.array, zip(*nodes))
    assert ts[-1] == a
    fs = np.array([error_value_rhs(t, M) for t, M in zip(ts, xs)])
    gap_sol = solve_riccati(make_gap_problem(spec, example_value_sol, b), a)
    for t in np.linspace(a, b, 17):
        M = _hermite(ts, xs, fs, t)
        G = eval_solution(gap_sol, t)
        P = eval_solution(example_value_sol, t)
        rel = np.abs(M - (G + P)).max() / (1.0 + np.abs(M).max())
        assert rel <= 1e-6
        # closed form for the worked example
        at_t = K_BLOCK * (1.0 / (3.0 - 2.0 * t) - 1.0 / (2.0 * t - 1.0))
        assert np.abs(M - at_t).max() <= 1e-6


def test_gap_flow_matches_closed_form(example_spec, example_value_sol):
    gap_sol = solve_riccati(
        make_gap_problem(example_spec, example_value_sol, 1.0), 0.55
    )
    for t in np.linspace(0.55, 1.0, 19):
        assert np.abs(eval_solution(gap_sol, t) - closed_form_gap(t, 1.0)).max() <= 1e-6


def test_symmetry_preserved_on_grid(make_clean_spec):
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        sol = solve_value_riccati(make_clean_spec(rng, n=n))
        for X in sol.values:
            asym = np.linalg.norm(X - X.T) / (1.0 + np.linalg.norm(X))
            assert asym <= 1e-9


def test_value_flow_positive_semidefinite(make_clean_spec):
    rng = np.random.default_rng(5)
    for n in (2, 3):
        sol = solve_value_riccati(make_clean_spec(rng, n=n))
        for X in sol.values:
            assert np.linalg.eigvalsh(X)[0] >= -1e-8


def test_value_flow_escape_raises_with_report():
    # evader-only controllability: value flow blows up inside the horizon
    spec = GameSpec(
        A=np.zeros((1, 1)),
        B=np.zeros((1, 1)),
        C=np.eye(1),
        Q=np.zeros((1, 1)),
        Q_f=np.eye(1),
        R_p=np.eye(1),
        R_e=np.eye(1),
        t0=0.0,
        tf=2.0,
        x0=np.ones(1),
    )
    # dP/dt = -P^2 backward from 1 blows up one unit below the terminal
    with pytest.raises(FiniteEscape) as exc_info:
        solve_value_riccati(spec)
    report = exc_info.value.report
    assert report is not None and report.found
    assert report.t_escape == pytest.approx(1.0, abs=1e-3)


def test_double_pole_between_nodes_raises():
    # two evader-only axes: P = I / (t - 1.0005) backward from tf, a double
    # pole strictly between grid nodes, across which det U keeps its sign
    spec = GameSpec(
        A=np.zeros((2, 2)),
        B=np.zeros((2, 2)),
        C=np.eye(2),
        Q=np.zeros((2, 2)),
        Q_f=np.eye(2),
        R_p=np.eye(2),
        R_e=np.eye(2),
        t0=0.0,
        tf=2.0005,
        x0=np.ones(2),
    )
    with pytest.raises(FiniteEscape) as exc_info:
        solve_value_riccati(spec)
    report = exc_info.value.report
    assert report.found
    assert report.t_escape == pytest.approx(1.0005, abs=1e-6)


def test_floor_at_or_above_terminal_time_rejected(example_spec):
    problem = make_value_problem(example_spec)
    for floor in (example_spec.tf, example_spec.tf + 0.5):
        with pytest.raises(ValueError, match="floor must lie below the terminal time"):
            solve_riccati(problem, floor)

