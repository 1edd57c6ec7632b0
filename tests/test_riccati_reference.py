"""The exact solve against a plain per-step restart oracle, and its
escapes against closed forms.

``restart_solve`` propagates the flow exactly one step at a time: every
step restarts scipy's matrix exponential from [I; X] at its node.  The
solve reads its nodes, and its values between them, off the Maslov count
instead, so the two agree to round-off.
The oracle finds poles its own way: a step holds one when its U factor
has a real eigenvalue at or below zero, or when the value there is
singular or past the norm guard ``BLOWUP``; bisection on the step length
brackets it.  The solve asks the Maslov count instead, so the two agree
on whether a flow escapes, and the count's pole agrees with closed forms
to round-off.
"""
import math

import numpy as np
import pytest
import scipy.linalg as la

from pegame.errors import FiniteEscape
from pegame.game_model import TIME_TOL_REL, GameSpec
from pegame.riccati import (
    STEPS,
    RiccatiProblem,
    _sym,
    eval_solution,
    make_value_problem,
    solve_riccati,
)

REL = 1e-12
BLOWUP = 1e9  # the oracle's norm guard: a value past it lies past a pole


def _restart(E, X, n):
    """One exact step from [I; X] with the propagator E: the step's U
    factor and the value V U^-1 there, or None for the value when U is
    singular or the value is past ``BLOWUP``."""
    Z = E[:, :n] + E[:, n:] @ X
    U = Z[:n]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            X_new = _sym(np.linalg.solve(U.T, Z[n:].T).T)
    except np.linalg.LinAlgError:
        return U, None
    norm = np.linalg.norm(X_new)  # bounds ||X_new||_2
    if norm < BLOWUP or (np.isfinite(norm) and np.linalg.norm(X_new, 2) < BLOWUP):
        return U, X_new
    return U, None


def _crosses_pole(U):
    """Whether a step's U factor has a real eigenvalue at or below zero.

    U starts from I and is singular exactly at a pole, where eigenvalues
    pass through zero; so a step that jumps a pole ends with a negative
    real eigenvalue, even at a double root, across which det U keeps its
    sign."""
    w = np.linalg.eigvals(U)
    return bool(((w.imag == 0) & (w.real <= 0)).any())


def _bisect(problem, X, t, h):
    """Bracket of the pole below the node (t, X) inside one step of length
    h, by bisection on the step length down to round-off."""
    H, n = problem.hamiltonian, problem.n
    lo, hi = 0.0, h
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        U, X_mid = _restart(la.expm(-H * mid), X, n)
        if X_mid is None or _crosses_pole(U):
            hi = mid
        else:
            lo = mid
    return t - hi, t - lo


def restart_solve(problem, floor):
    """Node values and step factors, one restart per step; or the bracket
    of the first pole, as a tuple."""
    n, t1 = problem.n, problem.terminal_time
    h = (t1 - floor) / STEPS
    E = la.expm(-problem.hamiltonian * h)
    grid = np.linspace(t1, floor, STEPS + 1)
    values, steps = [_sym(problem.terminal_value)], []
    for k in range(STEPS):
        U, X = _restart(E, values[-1], n)
        if X is None or _crosses_pole(U):
            return _bisect(problem, values[-1], float(grid[k]), h)
        values.append(X)
        steps.append(U)
    return np.array(values), np.array(steps)


def _close(a, b):
    return np.abs(a - b).max() <= REL * (1.0 + np.abs(b).max())


def assert_matches(problem, floor):
    """The solve's nodes, and ``eval_solution`` at 25 times strictly inside
    node intervals, each against one exact restart from the oracle's node
    above it."""
    sol = solve_riccati(problem, floor)
    values, _ = restart_solve(problem, floor)
    assert _close(eval_solution(sol, sol.grid), values)
    rng = np.random.default_rng(25)
    k = rng.integers(0, STEPS, 25)
    t = sol.grid[k] - rng.uniform(0.1, 0.9, 25) * (sol.grid[k] - sol.grid[k + 1])
    for tk, top, X_k, X in zip(t, sol.grid[k], values[k], eval_solution(sol, t)):
        _, X_ref = _restart(la.expm(-problem.hamiltonian * (top - tk)), X_k, problem.n)
        assert _close(X, X_ref), tk
    return sol


def escape_time(problem, floor):
    """The solve's escape time, or None when it returns."""
    try:
        solve_riccati(problem, floor)
    except FiniteEscape as exc:
        return exc.report.t_escape
    return None


def test_example_one_matches_oracle(example_spec):
    assert_matches(make_value_problem(example_spec), example_spec.t0)


def test_clean_games_match_oracle(make_clean_spec):
    rng = np.random.default_rng(2024)
    for trial in range(20):
        spec = make_clean_spec(rng, n=2 + trial % 3)
        assert_matches(make_value_problem(spec), spec.t0)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_long_unstable_horizon_matches_oracle(make_unstable_spec, seed):
    # 40 time units of unstable drift: the count's frames stay well
    # conditioned where the oracle's restarts do
    assert_matches(make_value_problem(make_unstable_spec(seed)), 0.0)


def test_long_stable_horizon_matches_oracle(long_spec):
    # a grid step spans many cells of the count
    sol = assert_matches(make_value_problem(long_spec), 0.0)
    assert abs(sol.count.h) < 0.1 * long_spec.horizon / STEPS


def test_one_count_and_no_expm(example_spec, counts, monkeypatch):
    # the value solve counts its flow once and reads every node off that
    # count, with no matrix exponential of its own
    monkeypatch.setattr(la, "expm", lambda *args: pytest.fail("expm called"))
    sol = solve_riccati(make_value_problem(example_spec), example_spec.t0)
    assert counts == [sol.count]


@pytest.mark.parametrize("n", [1, 3])
def test_pole_inside_a_block_matches_oracle(n):
    # evader-only axes with weights 1, 2, ...: P_i = 1 / (1 - i^2 (tf - t))
    # has its pole at tf - 1/i^2, so the largest pole is tf - 1/n^2; it
    # falls strictly between nodes
    spec = GameSpec(
        A=np.zeros((n, n)), B=np.zeros((n, n)), C=np.diag(np.arange(1.0, n + 1)),
        Q=np.zeros((n, n)), Q_f=np.eye(n), R_p=np.eye(n), R_e=np.eye(n),
        t0=0.0, tf=2.0005, x0=np.ones(n),
    )
    problem = make_value_problem(spec)
    pole = spec.tf - 1.0 / n**2
    h = spec.horizon / STEPS
    k = int((spec.tf - pole) / h)
    assert (spec.tf - pole) / h > k
    with pytest.raises(FiniteEscape) as exc_info:
        solve_riccati(problem, spec.t0)
    report = exc_info.value.report
    assert report.t_escape == pytest.approx(pole, rel=0.0, abs=REL * spec.horizon)
    assert abs(report.t_escape - pole) <= TIME_TOL_REL * spec.horizon / 2


def test_pole_on_a_node_matches_oracle():
    # P' = -P^2 from 1 at t = 500, on steps of 1/2: the powers of E are
    # exact, and U vanishes exactly at the node t = 499
    spec = GameSpec(
        A=np.zeros((1, 1)), B=np.zeros((1, 1)), C=np.eye(1), Q=np.zeros((1, 1)),
        Q_f=np.eye(1), R_p=np.eye(1), R_e=np.eye(1), t0=0.0, tf=500.0,
        x0=np.ones(1),
    )
    problem = make_value_problem(spec)
    with pytest.raises(FiniteEscape) as exc_info:
        solve_riccati(problem, spec.t0)
    report = exc_info.value.report
    assert report.t_escape == pytest.approx(499.0, rel=0.0, abs=REL * spec.horizon)
    assert abs(report.t_escape - 499.0) <= TIME_TOL_REL * spec.horizon / 2


def test_scalar_pole_matches_tan_closed_form():
    # X' = -(2aX + q + nX^2) with w = sqrt(nq - a^2) > 0: Y = nX + a obeys
    # Y' = -(Y^2 + w^2), so backward from x_T it is w tan(w (tf - t) + c),
    # c = atan((n x_T + a) / w), with its pole where the argument is pi/2
    rng = np.random.default_rng(41)
    escaped = 0
    for _ in range(60):
        a, w, n = rng.uniform(-1.0, 1.0), rng.uniform(0.3, 3.0), rng.uniform(0.2, 2.0)
        x_T, tf = 2.0 * rng.standard_normal(), rng.uniform(1.0, 10.0)
        problem = RiccatiProblem(
            "value", np.array([[a]]), np.array([[(a * a + w * w) / n]]),
            np.array([[n]]), tf, np.array([[x_T]]), 1,
        )
        pole = tf - (np.pi / 2 - math.atan((n * x_T + a) / w)) / w
        if abs(pole) <= 1e-6 * tf:
            continue  # too near the floor to say which side it lies on
        got = escape_time(problem, 0.0)
        if pole < 0.0:
            assert got is None
        else:
            escaped += 1
            assert got == pytest.approx(pole, rel=0.0, abs=REL * tf)
    assert escaped >= 50


def test_escapes_agree_with_the_oracle():
    # random value flows of n = 1-4 on horizons 1-10: the count and the
    # oracle's per-step test agree on every escape; the oracle's norm guard
    # stops its bisection above the pole, within 1e-7 of the span
    rng = np.random.default_rng(17)
    escaped = 0
    for trial in range(220):
        n = 1 + trial % 4
        G, M, T = (rng.standard_normal((n, n)) for _ in range(3))
        tf = rng.uniform(1.0, 10.0)
        problem = RiccatiProblem(
            "value", 0.5 * rng.standard_normal((n, n)), G @ G.T / n,
            _sym(M) + 2.0 * np.eye(n), tf, _sym(T), n,
        )
        got, oracle = escape_time(problem, 0.0), restart_solve(problem, 0.0)
        assert (got is not None) == isinstance(oracle[0], float)
        if got is not None:
            escaped += 1
            assert got <= oracle[1] and oracle[0] - got <= 1e-7 * tf
    assert escaped >= 200
