import math

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st

from pegame import simulator
from pegame.errors import (
    InadmissibleInterval, IntervalAdmissible, NegativeBudget, UnsortedInstants,
)
from pegame.game_model import GameSpec, example_one_spec
from pegame.riccati import STEPS, eval_solution, make_value_problem, solve_value_riccati
from pegame.simulator import (
    BLOCK,
    MAX_STEPS,
    Strategy,
    _closed_loop,
    _grid,
    deviation_gain_check,
    deviation_sweep,
    game_value,
    open_loop_inputs,
    open_loop_pair,
    payoff_two_ways,
    piecewise_constant,
    reachable_radius,
    risky_strategy,
    simulate,
    transition_flow,
)
from test_riccati_reference import restart_solve


def deviation_payoff_formula(c):
    # worked example: constant evader input [-c, 0] against the committed
    # open-loop pursuer
    return 0.5 * c * c + (2.0 / 3.0) * c + 5.0 / 9.0


def random_zoh(rng, t0, tf, n, knots=6, scale=1.0):
    times = np.sort(rng.uniform(t0, tf, size=knots - 1))
    times = np.concatenate([[t0], times])
    values = scale * rng.standard_normal((knots, n))
    return piecewise_constant(times, values)


# ---------------------------------------------------------------------------
# open-loop pair


def test_open_loop_inputs_example_one(example_spec, example_value_sol):
    grid = np.linspace(0.0, 1.0, 11)
    up, ue = open_loop_inputs(example_spec, example_value_sol)
    assert np.abs(up.dense(grid) - np.array([4.0 / 3.0, 0.0])).max() <= 1e-6
    assert np.abs(ue.dense(grid) - np.array([2.0 / 3.0, 0.0])).max() <= 1e-6


def test_open_loop_inputs_zero_state(example_spec, example_value_sol):
    spec = example_one_spec()
    zero_start = GameSpec(
        A=spec.A,
        B=spec.B,
        C=spec.C,
        Q=spec.Q,
        Q_f=spec.Q_f,
        R_p=spec.R_p,
        R_e=spec.R_e,
        t0=0.0,
        tf=1.0,
        x0=np.zeros(4),
    )
    sol = solve_value_riccati(zero_start)
    up, ue = open_loop_inputs(zero_start, sol)
    grid = np.linspace(0, 1, 7)
    assert np.abs(up.dense(grid)).max() == 0.0
    assert np.abs(ue.dense(grid)).max() == 0.0


def test_open_loop_play_follows_transition_flow(example_spec, example_value_sol):
    phi = transition_flow(example_spec, example_value_sol)
    pursuer, evader = open_loop_pair(example_spec, example_value_sol)
    traj = simulate(example_spec, example_value_sol, [], pursuer, evader)
    for k in range(0, len(traj.t), 200):
        expected = phi(traj.t[k]) @ example_spec.x0
        assert np.abs(traj.x[k] - expected).max() <= 1e-6


# ---------------------------------------------------------------------------
# simulate and payoffs


def test_equilibrium_payoff_under_optimal_schedule(example_spec, example_value_sol):
    traj = simulate(
        example_spec,
        example_value_sol,
        [0.5],
        Strategy.certainty_equivalent(),
        Strategy.evader_equilibrium(),
    )
    direct, completed = payoff_two_ways(traj, example_spec, example_value_sol)
    assert direct == pytest.approx(1.0 / 3.0, abs=1e-4)
    assert completed == pytest.approx(1.0 / 3.0, abs=1e-4)
    assert np.abs(traj.e).max() == 0.0


def test_estimate_resets_at_events(example_spec, example_value_sol):
    w = piecewise_constant([0.0, 0.3, 0.7], [[0.5, 0.0], [-0.2, 0.4], [0.1, 0.1]])
    traj = simulate(
        example_spec,
        example_value_sol,
        [0.25, 0.5, 0.75],
        Strategy.certainty_equivalent(),
        Strategy.deviation(w),
    )
    e = traj.e
    for t_event in traj.events:
        idx = np.flatnonzero(traj.t == t_event)
        assert len(idx) == 1
        assert np.abs(e[idx[0]]).max() == 0.0
    # the deviation builds error away from events
    assert np.abs(e).max() > 1e-3


@pytest.mark.parametrize(
    "knots",
    [[0.0, 0.5, 0.2], [0.0, 0.5, 0.5], [0.0, np.nan, 0.7]],
    ids=["unsorted", "repeated", "nan"],
)
def test_piecewise_constant_rejects_bad_knots(knots):
    # unsorted knots would skip a value (1, 3, 3 at t = 0.1, 0.3, 0.6), a
    # repeated knot would drop one, and a NaN knot would pass unnoticed
    with pytest.raises(ValueError, match="strictly increasing"):
        piecewise_constant(knots, [[1.0], [2.0], [3.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_piecewise_constant_rejects_non_finite_values(bad):
    # a NaN value would price a deviation at NaN without a word
    with pytest.raises(ValueError, match="values must be finite"):
        piecewise_constant([0.0, 0.5], [[bad, 0.0], [1.0, 0.0]])


def test_zero_deviation_keeps_error_zero(make_clean_spec):
    rng = np.random.default_rng(8)
    spec = make_clean_spec(rng, n=3)
    sol = solve_value_riccati(spec)
    traj = simulate(
        spec,
        sol,
        [0.33, 0.71],
        Strategy.certainty_equivalent(),
        Strategy.evader_equilibrium(),
    )
    assert np.abs(traj.e).max() <= 1e-12
    direct, completed = payoff_two_ways(traj, spec, sol)
    value = game_value(spec, sol)
    assert direct == pytest.approx(value, rel=1e-6, abs=1e-8)
    assert completed == pytest.approx(value, rel=1e-6, abs=1e-8)


def test_deviation_payoff_formula_single(example_spec, example_value_sol):
    pursuer, _ = open_loop_pair(example_spec, example_value_sol)
    traj = simulate(
        example_spec,
        example_value_sol,
        [],
        pursuer,
        Strategy.evader_open_loop(np.array([-1.0, 0.0])),
    )
    assert traj.payoff_direct == pytest.approx(deviation_payoff_formula(1.0), abs=1e-4)


def test_event_ordering_raises(example_spec, example_value_sol):
    ce, eq = Strategy.certainty_equivalent(), Strategy.evader_equilibrium()
    with pytest.raises(UnsortedInstants):
        simulate(example_spec, example_value_sol, [0.7, 0.3], ce, eq)
    with pytest.raises(UnsortedInstants):
        simulate(example_spec, example_value_sol, [0.0, 0.5], ce, eq)
    with pytest.raises(UnsortedInstants):
        simulate(example_spec, example_value_sol, [1.0], ce, eq)


def test_instants_as_array(example_spec, example_value_sol):
    ce, eq = Strategy.certainty_equivalent(), Strategy.evader_equilibrium()
    runs = [
        simulate(example_spec, example_value_sol, instants, ce, eq, step=0.01)
        for instants in ([0.3, 0.6], np.array([0.3, 0.6]))
    ]
    assert runs[0].events == runs[1].events == (0.3, 0.6)
    assert runs[0].payoff_direct == runs[1].payoff_direct


def test_role_mismatch_raises(example_spec, example_value_sol):
    with pytest.raises(ValueError):
        simulate(
            example_spec,
            example_value_sol,
            [],
            Strategy.evader_equilibrium(),
            Strategy.evader_equilibrium(),
        )


def test_payoff_identity_random_inputs(make_clean_spec):
    rng = np.random.default_rng(77)
    for trial in range(12):
        spec = make_clean_spec(rng, n=2 + trial % 3)
        sol = solve_value_riccati(spec)
        up = random_zoh(rng, spec.t0, spec.tf, spec.n_p)
        ue = random_zoh(rng, spec.t0, spec.tf, spec.n_e)
        traj = simulate(
            spec,
            sol,
            [],
            Strategy.pursuer_open_loop(up),
            Strategy.evader_open_loop(ue),
            step=spec.horizon / 500,
        )
        direct, completed = payoff_two_ways(traj, spec, sol)
        assert abs(direct - completed) <= 1e-5 * (1.0 + abs(direct))


def test_unforced_payoff_matches_exponential_oracle(make_clean_spec):
    rng = np.random.default_rng(123)
    spec0 = make_clean_spec(rng, n=3)
    spec = GameSpec(
        A=spec0.A,
        B=spec0.B,
        C=spec0.C,
        Q=np.zeros((3, 3)),
        Q_f=spec0.Q_f,
        R_p=spec0.R_p,
        R_e=spec0.R_e,
        t0=spec0.t0,
        tf=spec0.tf,
        x0=spec0.x0,
    )
    sol = solve_value_riccati(spec)
    zero_p = Strategy.pursuer_open_loop(np.zeros(spec.n_p))
    zero_e = Strategy.evader_open_loop(np.zeros(spec.n_e))
    traj = simulate(spec, sol, [], zero_p, zero_e)
    x_f = la.expm(spec.A * spec.horizon) @ spec.x0
    assert traj.payoff_direct == pytest.approx(float(x_f @ spec.Q_f @ x_f), rel=1e-7)


def test_half_step_convergence(example_spec, example_value_sol):
    pursuer, _ = open_loop_pair(example_spec, example_value_sol)
    evader = Strategy.evader_open_loop(np.array([-0.8, 0.3]))
    base = simulate(example_spec, example_value_sol, [0.4], pursuer, evader)
    fine = simulate(
        example_spec, example_value_sol, [0.4], pursuer, evader,
        step=example_spec.horizon / 4000,
    )
    rel = abs(base.payoff_direct - fine.payoff_direct) / (1 + abs(fine.payoff_direct))
    assert rel <= 1e-6


def test_zoh_open_loop_payoff_is_fourth_order(make_clean_spec):
    # a segment that ends at a knot reads its inputs from its own piece,
    # so halving the step cuts the error about 16-fold, not 2-fold
    rng = np.random.default_rng(2024)
    for trial in range(3):
        spec = make_clean_spec(rng, n=2 + trial)
        sol = solve_value_riccati(spec)
        up = random_zoh(rng, spec.t0, spec.tf, spec.n_p, knots=5)
        ue = random_zoh(rng, spec.t0, spec.tf, spec.n_e, knots=5)
        pursuer, evader = Strategy.pursuer_open_loop(up), Strategy.evader_open_loop(ue)
        fine, half, base = (
            simulate(spec, sol, [], pursuer, evader, step=spec.horizon / d).payoff_direct
            for d in (3200, 200, 100)
        )
        assert abs(base - fine) >= 10.0 * abs(half - fine)


def test_pursuer_perturbation_increases_payoff(make_clean_spec, probed):
    # with the evader at equilibrium, the payoff is the game value plus a
    # pursuer-side square; any fixed probe strictly raises it
    rng = np.random.default_rng(9)
    for trial in range(3):
        spec = make_clean_spec(rng, n=2)
        sol = solve_value_riccati(spec)
        value = game_value(spec, sol)
        probe = random_zoh(rng, spec.t0, spec.tf, spec.n_p, scale=0.7)
        traj = simulate(
            spec,
            sol,
            [0.5],
            probed(probe),
            Strategy.evader_equilibrium(),
        )
        assert traj.payoff_direct > value + 1e-6


# ---------------------------------------------------------------------------
# deviation gain identity


def test_deviation_gain_zero_w(example_spec, example_value_sol):
    gain, square = deviation_gain_check(example_spec, example_value_sol, (0.5, 1.0), None)
    assert gain == 0.0 and square == 0.0


def test_deviation_gain_boundary_interval(example_spec, example_value_sol):
    gain, square = deviation_gain_check(
        example_spec, example_value_sol, (0.5, 1.0), np.array([1.0, 0.0])
    )
    assert gain < 0
    assert abs(gain - square) <= 1e-6 * (1.0 + abs(gain))


def test_deviation_gain_random_trials(make_clean_spec):
    rng = np.random.default_rng(31337)
    for trial in range(10):
        spec = make_clean_spec(rng, n=2 + trial % 2)
        sol = solve_value_riccati(spec)
        a = rng.uniform(spec.t0, spec.t0 + 0.5)
        b = a + rng.uniform(0.15, 0.4)
        w = random_zoh(rng, a, b, spec.n_e)
        gain, square = deviation_gain_check(spec, sol, (a, b), w)
        assert gain <= 1e-8
        assert abs(gain - square) <= 1e-6 * (1.0 + abs(gain))


def test_deviation_gain_splits_at_knots(example_spec, example_value_sol):
    # example1's leading interval under its one-instant schedule {1/2}
    w = piecewise_constant(
        [0.0, 0.1, 0.23, 0.37], [[1.0, -0.5], [-0.3, 0.8], [0.6, 0.2], [-1.1, 0.4]]
    )
    gain, square = deviation_gain_check(example_spec, example_value_sol, (0.0, 0.5), w)
    assert gain < 0
    assert abs(gain - square) <= 1e-10 * (1.0 + abs(gain))


def test_deviation_gain_on_an_interval_shorter_than_the_tolerance(
    example_spec, example_value_sol
):
    interval = (0.5, 0.5 + 1e-9)  # shorter than the boundary tolerance
    gain, square = deviation_gain_check(
        example_spec, example_value_sol, interval, np.array([1.0, 0.0])
    )
    assert gain < 0
    assert abs(gain - square) <= 1e-6 * abs(gain)


def test_deviation_gain_inadmissible_interval_raises(example_spec, example_value_sol):
    with pytest.raises(InadmissibleInterval):
        deviation_gain_check(
            example_spec, example_value_sol, (0.0, 1.0), np.array([1.0, 0.0])
        )


# ---------------------------------------------------------------------------
# deviation sweep and risky strategy


def test_deviation_sweep_formula(example_spec):
    cs = [0.0, 0.5, 1.0, 2.0]
    payoffs = deviation_sweep(example_spec, cs)
    for c, payoff in zip(cs, payoffs):
        assert payoff == pytest.approx(deviation_payoff_formula(c), abs=1e-3)


def test_deviation_sweep_capped_under_admissible_schedule(example_spec):
    payoffs = deviation_sweep(
        example_spec,
        [0.0, 0.5, 1.0, 2.0],
        schedule=[0.5],
        pursuer="certainty_equivalent",
    )
    assert (payoffs <= 1.0 / 3.0 + 1e-4).all()


def test_risky_strategy_grows_with_scale(example_spec, example_value_sol):
    value = game_value(example_spec, example_value_sol)
    payoffs = []
    for scale in (0.0, 1.0, 2.0, 4.0):
        strat = risky_strategy(example_spec, example_value_sol, (0.0, 1.0), scale=scale)
        traj = simulate(
            example_spec,
            example_value_sol,
            [],
            Strategy.certainty_equivalent(),
            strat,
        )
        payoffs.append(traj.payoff_direct)
    assert payoffs[0] <= value + 1e-4
    assert all(b > a for a, b in zip(payoffs, payoffs[1:]))
    assert all(p > value for p in payoffs[1:])


def test_risky_growth_is_quadratic(example_spec, example_value_sol):
    base = None
    gains = []
    for scale in (4.0, 8.0, 16.0):
        strat = risky_strategy(example_spec, example_value_sol, (0.0, 1.0), scale=scale)
        traj = simulate(
            example_spec,
            example_value_sol,
            [],
            Strategy.certainty_equivalent(),
            strat,
        )
        if base is None:
            zero = risky_strategy(example_spec, example_value_sol, (0.0, 1.0), scale=0.0)
            base = simulate(
                example_spec,
                example_value_sol,
                [],
                Strategy.certainty_equivalent(),
                zero,
            ).payoff_direct
        gains.append(traj.payoff_direct - base)
    exponents = [
        np.log2(gains[i + 1] / gains[i]) for i in range(len(gains) - 1)
    ]
    assert all(e >= 1.9 for e in exponents)


def test_risky_on_admissible_interval_raises(example_spec, example_value_sol):
    with pytest.raises(IntervalAdmissible):
        risky_strategy(example_spec, example_value_sol, (0.5, 1.0), scale=1.0)


# ---------------------------------------------------------------------------
# reachability


def test_reachable_radius_worked_example_values():
    assert reachable_radius(2.0 * 0.75 / 9.0, 0.75, 0.5) == pytest.approx(0.5)
    assert reachable_radius(2.0 * 0.5 / 9.0, 0.5, 0.5) == pytest.approx(1.0 / 3.0)
    assert reachable_radius(0.0, 1.0, 0.5) == 0.0


def test_reachable_radius_negative_budget_raises():
    with pytest.raises(NegativeBudget):
        reachable_radius(-1.0, 1.0, 0.5)


@settings(max_examples=40, deadline=None)
@given(
    budget=st.floats(0.0, 10.0),
    horizon=st.floats(0.01, 10.0),
    weight=st.floats(0.01, 10.0),
    k=st.floats(0.01, 9.0),
)
def test_reachable_radius_scaling_laws(budget, horizon, weight, k):
    r = reachable_radius(budget, horizon, weight)
    # displacement scales with sqrt of budget and horizon, inversely with
    # sqrt of the effort weight
    assert reachable_radius(k * budget, horizon, weight) == pytest.approx(
        np.sqrt(k) * r, rel=1e-12, abs=1e-12
    )
    assert reachable_radius(budget, k * horizon, weight) == pytest.approx(
        np.sqrt(k) * r, rel=1e-12, abs=1e-12
    )
    assert reachable_radius(budget, horizon, k * weight) == pytest.approx(
        r / np.sqrt(k), rel=1e-12, abs=1e-12
    )


def _restart_transition(spec):
    """The per-step restart oracle's node values, and Phi(t, t0) at its
    nodes by one solve per step factor; each of the STEPS products may add
    a rounding error."""
    values, steps = restart_solve(make_value_problem(spec), spec.t0)
    phis = [np.eye(spec.n_x)]
    for step in steps[::-1]:
        phis.append(np.linalg.solve(step, phis[-1]))
    return values, np.stack(phis[::-1])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_transition_flow_nodes_match_step_loop(make_clean_spec, n):
    spec = make_clean_spec(np.random.default_rng(40 + n), n=n)
    sol = solve_value_riccati(spec)
    _, ref = _restart_transition(spec)
    got = transition_flow(spec, sol)(sol.grid)
    assert np.abs(got - ref).max() <= STEPS * np.finfo(float).eps * np.abs(ref).max()


@pytest.mark.parametrize("game", [5, 6, 7, "example1", "long"])
def test_transition_flow_off_nodes_matches_restart_oracle(
    game, make_unstable_spec, example_spec, long_spec
):
    # the oracle restarts exactly from the node above each time; the flow
    # reads the value count's plane there, with no interpolant.  On the long
    # horizon one rounding of the count's grid step compounds over its 20486
    # cells: 3.9e-12 at t = 959 against a 450-digit expm, where the oracle
    # is within 1.5e-13.  An int game is the rng seed of an unstable one.
    spec = {"example1": example_spec, "long": long_spec}.get(game) or make_unstable_spec(game)
    values, phis = _restart_transition(spec)
    rng = np.random.default_rng(13)
    k, h = rng.choice(STEPS, 25, replace=False), spec.horizon / STEPS
    t = spec.tf - (k + rng.uniform(0.1, 0.9, 25)) * h
    H, n = make_value_problem(spec).hamiltonian, spec.n_x
    E = np.stack([la.expm(H * (tk - spec.tf + j * h)) for tk, j in zip(t, k)])
    ref = (E[:, :n, :n] + E[:, :n, n:] @ values[k]) @ phis[k]
    got = transition_flow(spec, solve_value_riccati(spec))(t)
    rel = np.abs(got - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
    assert rel.max() <= (1e-11 if game == "long" else 1e-12)


def test_transition_flow_matches_rk4_reference(make_clean_spec):
    # reference: fixed-step RK4 on F' = (A + (S - W) P(t)) F from the identity
    rng = np.random.default_rng(17)
    spec = make_clean_spec(rng, n=3)
    sol = solve_value_riccati(spec)
    phi = transition_flow(spec, sol)
    gap = spec.controllability_gap()

    def rhs(t, F):
        return (spec.A + gap @ eval_solution(sol, t)) @ F

    substeps = 2000
    h = spec.horizon / substeps
    F = np.eye(spec.n_x)
    for k in range(substeps):
        t = spec.t0 + k * h
        k1 = rhs(t, F)
        k2 = rhs(t + 0.5 * h, F + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, F + 0.5 * h * k2)
        k4 = rhs(t + h, F + h * k3)
        F = F + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if (k + 1) % 333 == 0:  # between value-flow nodes
            t_next = spec.t0 + (k + 1) * h
            assert np.abs(phi(t_next) - F).max() <= 1e-10 * (1.0 + np.abs(F).max())


# ---------------------------------------------------------------------------
# the RK4 core


def test_grid_refuses_more_than_max_steps():
    # each of the 150000 segments gets MIN_SUBSTEPS = 10 steps, although the
    # span alone needs only 2000
    with pytest.raises(ValueError, match=f"needs more than {MAX_STEPS} RK4 steps"):
        _grid(np.linspace(0.0, 1.0, 150001), 1.0 / 2000.0)
    t, h, end = _grid([0.0, float(MAX_STEPS)], 1.0)
    assert len(t) == MAX_STEPS + 1 and h[-1] == 0.0


def test_batch_members_equal_their_runs_alone(make_clean_spec, probed):
    # evaders of one batch with different gains get their own closed-loop
    # matrices, and those with the same gains share one; each member's
    # states, integrals and inputs are those of its run alone, bit for bit
    rng = np.random.default_rng(620)
    spec = make_clean_spec(rng, n=3)
    sol = solve_value_riccati(spec)
    step, instants = spec.horizon / 300, [0.4, 0.7]
    pursuit = random_zoh(rng, spec.t0, spec.tf, spec.n_p)
    knots = [spec.t0, *pursuit.knots]

    def shared(n):
        # an input with the pursuer's knots, so every run has one grid
        return piecewise_constant(knots, rng.standard_normal((len(knots), n)))

    w = rng.standard_normal(spec.n_e)
    no_push = -0.0 * np.ones(spec.n_e)
    plain = [
        Strategy.evader_open_loop(w),
        Strategy.deviation(w),
        Strategy.evader_equilibrium(),
        Strategy.deviation(no_push),
        Strategy.evader_open_loop(no_push),
    ]
    knotted = [Strategy.deviation(shared(spec.n_e)), Strategy.evader_open_loop(shared(spec.n_e))]
    ce = Strategy.certainty_equivalent()
    for pursuer, evaders in [
        (ce, plain),
        (probed(shared(spec.n_p)), plain + knotted),
        (open_loop_pair(spec, sol)[0], plain),
        (Strategy.pursuer_open_loop(pursuit), knotted + plain),
    ]:
        batch = _closed_loop(spec, sol, instants, pursuer, evaders, step)
        for j, evader in enumerate(evaders):
            alone = _closed_loop(spec, sol, instants, pursuer, [evader], step)
            assert np.array_equal(batch[0], alone[0])
            for ours, its in zip(batch[1:4], alone[1:4]):
                assert ours[:, j].tobytes() == its[:, 0].tobytes()


def test_value_flow_is_read_once_per_distinct_stage_time(
    example_spec, example_value_sol, monkeypatch
):
    # a block of K steps has 2K + 1 distinct stage times: stages two and
    # three share the midpoint, and stage four is the next step's start
    reads, steps = [], []
    rk4 = simulator._rk4

    def counted_eval(sol, t):
        reads.append(np.size(t))
        return eval_solution(sol, t)

    def counted_rk4(grid, *args):
        steps.append(len(grid[0]))
        return rk4(grid, *args)

    monkeypatch.setattr(simulator, "eval_solution", counted_eval)
    monkeypatch.setattr(simulator, "_rk4", counted_rk4)
    spec, sol = example_spec, example_value_sol
    w = piecewise_constant([0.0, 0.3], [[1.0, 0.0], [0.0, -1.0]])
    runs = [
        lambda: simulate(
            spec, sol, [0.5], Strategy.certainty_equivalent(), Strategy.evader_equilibrium()
        ),
        lambda: simulate(spec, sol, [], *open_loop_pair(spec, sol)),
        lambda: deviation_sweep(spec, [0.0, 1.0], value_sol=sol),
        lambda: deviation_sweep(
            spec, [1.0], schedule=[0.5], pursuer="certainty_equivalent", value_sol=sol
        ),
        lambda: deviation_gain_check(spec, sol, (0.5, 1.0), w),
    ]
    for run in runs:
        reads.clear(), steps.clear()
        run()
        (n,) = steps
        assert 0 < sum(reads) <= 2 * n + math.ceil(n / BLOCK) + 1
