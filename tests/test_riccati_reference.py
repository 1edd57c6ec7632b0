"""The blocked exact solve against a plain per-step restart oracle.

``restart_solve`` is the scheme ``solve_riccati`` implements, written out
one step at a time: every step restarts the exact propagator from
[I; X] at its node.  The blocked solve reaches the nodes of a block with
powers of the same propagator, so the two agree to round-off, and both
hand the first step that ends on or past a pole to ``_escape_in_step``.
"""
import math

import numpy as np
import pytest
import scipy.linalg as la

from pegame import riccati
from pegame.errors import FiniteEscape
from pegame.game_model import GameSpec
from pegame.riccati import (
    STEPS,
    _crosses_pole,
    _escape_in_step,
    _restart,
    _sym,
    make_value_problem,
    solve_riccati,
)

REL = 1e-12


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
            return _escape_in_step(problem, values[-1], float(grid[k]), h)
        values.append(X)
        steps.append(U)
    return np.array(values), np.array(steps)


def _close(a, b):
    return np.abs(a - b).max() <= REL * (1.0 + np.abs(b).max())


def assert_matches(problem, floor):
    sol = solve_riccati(problem, floor)
    values, steps = restart_solve(problem, floor)
    assert _close(sol.values, values)
    assert _close(sol.steps, steps)


def block_length(problem, floor):
    h = (problem.terminal_time - floor) / STEPS
    bound = np.pi / (la.norm(problem.hamiltonian, 2) * h)
    return int(max(1, min(math.ceil(math.sqrt(STEPS)), bound)))


def test_example_one_matches_oracle(example_spec):
    assert_matches(make_value_problem(example_spec), example_spec.t0)


def test_clean_games_match_oracle(make_clean_spec):
    rng = np.random.default_rng(2024)
    for trial in range(20):
        spec = make_clean_spec(rng, n=2 + trial % 3)
        assert_matches(make_value_problem(spec), spec.t0)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_long_unstable_horizon_matches_oracle(make_clean_spec, seed):
    # 40 time units of unstable drift: the block length follows ||H|| h
    # below its cap, and each block's propagators stay well conditioned
    spec = make_clean_spec(np.random.default_rng(seed), n=3)
    spec = GameSpec(
        A=spec.A + 2.0 * np.eye(3), B=spec.B, C=spec.C, Q=spec.Q, Q_f=spec.Q_f,
        R_p=spec.R_p, R_e=spec.R_e, t0=0.0, tf=40.0, x0=spec.x0,
    )
    problem = make_value_problem(spec)
    assert block_length(problem, 0.0) < math.ceil(math.sqrt(STEPS))
    assert_matches(problem, 0.0)


def test_one_call_per_block(example_spec, monkeypatch):
    # the loop runs once per block, and no step restarts on its own
    blocks = []
    original = riccati._block
    monkeypatch.setattr(
        riccati, "_block", lambda *args: blocks.append(1) or original(*args)
    )
    monkeypatch.setattr(riccati, "_restart", None)
    problem = make_value_problem(example_spec)
    solve_riccati(problem, example_spec.t0)
    assert len(blocks) == math.ceil(STEPS / block_length(problem, example_spec.t0))


@pytest.mark.parametrize("n", [1, 3])
def test_pole_inside_a_block_matches_oracle(n):
    # evader-only axes with weights 1, 2, ...: P_i = 1 / (i (t - t_i)) with
    # t_i = tf - 1/i, so the largest pole is 1.0005 for every n; it falls
    # strictly between nodes and strictly inside a block
    spec = GameSpec(
        A=np.zeros((n, n)), B=np.zeros((n, n)), C=np.diag(np.arange(1.0, n + 1)),
        Q=np.zeros((n, n)), Q_f=np.eye(n), R_p=np.eye(n), R_e=np.eye(n),
        t0=0.0, tf=2.0005, x0=np.ones(n),
    )
    problem = make_value_problem(spec)
    h = spec.horizon / STEPS
    k = int((spec.tf - 1.0005) / h)
    assert 0 < k % block_length(problem, spec.t0) and (spec.tf - 1.0005) / h > k
    with pytest.raises(FiniteEscape) as exc_info:
        solve_riccati(problem, spec.t0)
    # the node below which the pole lies agrees to round-off, and so does
    # the bisection from it
    assert exc_info.value.report.bracket == pytest.approx(
        restart_solve(problem, spec.t0), rel=0.0, abs=1e-12
    )


def test_pole_on_a_node_matches_oracle():
    # P' = -P^2 from 1 at t = 500, on steps of 1/2: the powers of E are
    # exact, and U vanishes exactly at the node t = 499, a zero pivot of the
    # block's solve, which cuts the block before that node
    spec = GameSpec(
        A=np.zeros((1, 1)), B=np.zeros((1, 1)), C=np.eye(1), Q=np.zeros((1, 1)),
        Q_f=np.eye(1), R_p=np.eye(1), R_e=np.eye(1), t0=0.0, tf=500.0,
        x0=np.ones(1),
    )
    problem = make_value_problem(spec)
    with pytest.raises(FiniteEscape) as exc_info:
        solve_riccati(problem, spec.t0)
    bracket = exc_info.value.report.bracket
    assert exc_info.value.report.t_escape == pytest.approx(499.0, rel=0.0, abs=1e-8)
    assert bracket == pytest.approx(restart_solve(problem, spec.t0), rel=0.0, abs=1e-12)
