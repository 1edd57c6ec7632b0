import numpy as np
import pytest

from pegame.errors import FiniteEscape, OutOfRange
from pegame.game_model import GameSpec, example_one_spec
from pegame.riccati import (
    _sym,
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


# Dormand-Prince 4(5): stage nodes, stage weights (the last row gives the
# fifth-order value) and the weights of its error estimate
DP_C = [0.0, 0.2, 0.3, 0.8, 8 / 9, 1.0, 1.0]
DP_A = [
    [],
    [0.2],
    [0.075, 0.225],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
DP_E = [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]


def dp45_backward(rhs, t1, X1, floor):
    """Accepted nodes (t, X) of an adaptive Dormand-Prince 4(5) march of
    X' = rhs(t, X) from (t1, X1) down to ``floor``, at rtol 1e-10 and atol
    1e-13 with steps at most 1e-3 of the span: an oracle for flows whose
    rhs depends on time."""
    rtol, atol = 1e-10, 1e-13
    nodes, t, X = [(t1, X1)], t1, X1
    h = h_max = 1e-3 * (t1 - floor)
    while t > floor:
        h_try = min(h, t - floor)
        k = []
        for c, a in zip(DP_C, DP_A):
            k.append(rhs(t - c * h_try, X - h_try * sum(w * ki for w, ki in zip(a, k))))
        X_new = X - h_try * sum(w * ki for w, ki in zip(DP_A[-1], k))
        err = h_try * sum(w * ki for w, ki in zip(DP_E, k))
        enorm = np.sqrt(np.mean((err / (atol + rtol * np.maximum(np.abs(X), np.abs(X_new)))) ** 2))
        if enorm <= 1.0:
            t = floor if h_try == t - floor else t - h_try
            X = _sym(X_new)
            nodes.append((t, X))
        else:
            assert h_try > 1e-12 * (t1 - floor), "step underflow"
        h = min(h_try * min(5.0, max(0.2, 0.9 * max(enorm, 1e-10) ** -0.2)), h_max)
    return nodes


def hermite(ts, xs, fs, t):
    """Cubic-Hermite interpolant at t of the values xs and derivatives fs
    at the decreasing nodes ts: the DP45 oracle's dense output."""
    j = int(np.clip(np.searchsorted(-ts, -t) - 1, 0, len(ts) - 2))  # ts[j] >= t >= ts[j + 1]
    h = ts[j] - ts[j + 1]
    s = (t - ts[j + 1]) / h
    return (
        (1 + 2 * s) * (1 - s) ** 2 * xs[j + 1]
        + s * (1 - s) ** 2 * h * fs[j + 1]
        + s * s * (3 - 2 * s) * xs[j]
        + s * s * (s - 1) * h * fs[j]
    )


def test_example_one_closed_form_on_grid(example_spec, example_value_sol):
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 101):
        err = np.abs(eval_solution(example_value_sol, t) - closed_form_value(t)).max()
        worst = max(worst, err)
    assert worst <= 1e-6


def test_eval_at_grid_nodes_is_exact(example_value_sol):
    sol = example_value_sol
    for k in (0, 1, len(sol.grid) // 2, len(sol.grid) - 1):
        assert np.array_equal(eval_solution(sol, sol.grid[k]), eval_solution(sol, sol.grid)[k])


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


def test_nan_time_is_out_of_range(example_value_sol):
    count = example_value_sol.count
    for read in (lambda t: eval_solution(example_value_sol, t), count.value, count.count):
        with pytest.raises(OutOfRange):
            read(np.nan)
    with pytest.raises(OutOfRange):
        eval_solution(example_value_sol, [0.5, np.nan])


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
    assert np.abs(eval_solution(sol, sol.grid)).max() == 0.0


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
    assert np.abs(eval_solution(sol, sol.grid)).max() == 0.0
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

    nodes = dp45_backward(error_value_rhs, b, np.zeros((4, 4)), a)
    ts, xs = map(np.array, zip(*nodes))
    assert ts[-1] == a
    fs = np.array([error_value_rhs(t, M) for t, M in zip(ts, xs)])
    gap_sol = solve_riccati(make_gap_problem(spec, example_value_sol, b), a)
    for t in np.linspace(a, b, 17):
        M = hermite(ts, xs, fs, t)
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
        for X in eval_solution(sol, sol.grid):
            asym = np.linalg.norm(X - X.T) / (1.0 + np.linalg.norm(X))
            assert asym <= 1e-9


def test_value_flow_positive_semidefinite(make_clean_spec):
    rng = np.random.default_rng(5)
    for n in (2, 3):
        sol = solve_value_riccati(make_clean_spec(rng, n=n))
        for X in eval_solution(sol, sol.grid):
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
    assert report.t_escape == pytest.approx(1.0, rel=0.0, abs=1e-12 * spec.horizon)


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
    assert report.t_escape == pytest.approx(1.0005, rel=0.0, abs=1e-12 * spec.horizon)


def test_floor_at_or_above_terminal_time_rejected(example_spec):
    problem = make_value_problem(example_spec)
    for floor in (example_spec.tf, example_spec.tf + 0.5):
        with pytest.raises(ValueError, match="floor must lie below the terminal time"):
            solve_riccati(problem, floor)

