"""Acceptance suite: one test per release criterion, printed pass lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are fixed here and nowhere else.
"""
import numpy as np

from pegame.errors import InadmissibleInterval
from pegame.riccati import (
    _gap_problem,
    eval_solution,
    make_gap_problem,
    solve_value_riccati,
)
from pegame.escape import detect_escape_norm, detect_escape_radon
from pegame.scheduler import check_admissibility, max_next_instance, optimal_schedule
from pegame.simulator import (
    Strategy,
    deviation_gain_check,
    deviation_sweep,
    game_value,
    open_loop_inputs,
    payoff_two_ways,
    piecewise_constant,
    risky_strategy,
    simulate,
)

K_BLOCK = np.block([[np.eye(2), -np.eye(2)], [-np.eye(2), np.eye(2)]])


def _report(line):
    print(f"PASS: {line}")


def _random_zoh(rng, t0, tf, n, knots=5, scale=1.0):
    times = np.concatenate([[t0], np.sort(rng.uniform(t0, tf, size=knots - 1))])
    return piecewise_constant(times, scale * rng.standard_normal((knots, n)))


def test_c01_value_flow_closed_form(example_spec, example_value_sol):
    worst = max(
        np.abs(eval_solution(example_value_sol, t) - K_BLOCK / (3.0 - 2.0 * t)).max()
        for t in np.linspace(0.0, 1.0, 101)
    )
    assert worst <= 1e-6
    _report(f"criterion 1: value flow matches closed form, max err {worst:.2e} <= 1e-6")


def test_c02_open_loop_pair(example_spec, example_value_sol):
    grid = np.linspace(0.0, 1.0, 11)
    up, ue = open_loop_inputs(example_spec, example_value_sol)
    err_p = np.abs(up.dense(grid) - np.array([4.0 / 3.0, 0.0])).max()
    err_e = np.abs(ue.dense(grid) - np.array([2.0 / 3.0, 0.0])).max()
    assert err_p <= 1e-6 and err_e <= 1e-6
    _report(
        "criterion 2: open-loop pair constant [4/3,0] / [2/3,0], "
        f"errs {err_p:.2e}, {err_e:.2e} <= 1e-6"
    )


def test_c03_equilibrium_payoff(example_spec, example_value_sol):
    traj = simulate(
        example_spec,
        example_value_sol,
        [0.5],
        Strategy.certainty_equivalent(),
        Strategy.evader_equilibrium(),
    )
    direct, completed = payoff_two_ways(traj, example_spec, example_value_sol)
    assert abs(direct - 1.0 / 3.0) <= 1e-4
    assert abs(completed - 1.0 / 3.0) <= 1e-4
    _report(
        "criterion 3: payoff under schedule {0.5} is 1/3 both ways "
        f"({direct:.8f}, {completed:.8f}), tol 1e-4"
    )


def test_c04_deviation_formula(example_spec):
    cs = [0.0, 0.5, 1.0, 2.0]
    payoffs = deviation_sweep(example_spec, cs)
    worst = max(
        abs(p - (0.5 * c * c + 2.0 * c / 3.0 + 5.0 / 9.0))
        for c, p in zip(cs, payoffs)
    )
    assert worst <= 1e-3
    _report(
        "criterion 4: open-loop-pursuer deviation payoffs match "
        f"c^2/2 + 2c/3 + 5/9, max err {worst:.2e} <= 1e-3"
    )


def test_c05_optimal_schedule(example_spec, example_value_sol):
    margin = 1e-6
    sched = optimal_schedule(
        example_spec, example_value_sol, margin=margin, compute_slack=False
    )
    assert sched.N == 1
    assert 0.5 <= sched.instants[0] <= 0.5 + margin + 1e-3
    # the recursion's next candidate from the emitted instant sits at -1/2
    boundary = -eval_solution(example_value_sol, sched.instants[0])
    rep = detect_escape_radon(_gap_problem(example_spec, sched.instants[0], boundary), floor=-1.0)
    assert rep.found and abs(rep.t_escape - (-0.5)) <= 1e-3
    _report(
        f"criterion 5: one communication at t1={sched.instants[0]:.7f}; "
        f"next candidate {rep.t_escape:.6f} below t0, recursion stops"
    )


def test_c06_slack_bound(example_spec, example_value_sol):
    sup = max_next_instance(example_spec, example_value_sol, 0.0, 1.0)
    assert abs(sup - 0.75) <= 1e-3
    _report(f"criterion 6: admissible supremum after t0 is {sup:.6f} ~ 3/4, tol 1e-3")


def test_c07_detector_agreement(example_spec, example_value_sol, make_escape_spec):
    problem = make_gap_problem(example_spec, example_value_sol, 1.0)
    rn = detect_escape_norm(problem, 0.0)
    boundary = -eval_solution(example_value_sol, 1.0)
    rr = detect_escape_radon(_gap_problem(example_spec, 1.0, boundary), 0.0)
    assert rn.found and rr.found
    assert abs(rn.t_escape - 0.5) <= 1e-6 and abs(rr.t_escape - 0.5) <= 1e-6
    worst = abs(rn.t_escape - rr.t_escape)

    rng = np.random.default_rng(777)
    both = 0
    tried = 0
    while both < 50 and tried < 120:
        tried += 1
        spec = make_escape_spec(rng, n=2 + tried % 2)
        sol = solve_value_riccati(spec)
        floor = spec.tf - 3.0
        a = detect_escape_norm(make_gap_problem(spec, sol, spec.tf), floor)
        b = detect_escape_radon(_gap_problem(spec, spec.tf, -eval_solution(sol, spec.tf)), floor)
        if a.found and b.found:
            both += 1
            worst = max(worst, abs(a.t_escape - b.t_escape))
    assert both == 50
    assert worst <= 1e-6
    _report(
        "criterion 7: norm and determinant detectors agree on the worked "
        f"example and 50 random games, worst gap {worst:.2e} <= 1e-6"
    )


def test_c08_payoff_identity_property(make_clean_spec):
    rng = np.random.default_rng(424242)
    worst = 0.0
    for trial in range(100):
        spec = make_clean_spec(rng, n=2 + trial % 3)
        sol = solve_value_riccati(spec)
        up = _random_zoh(rng, spec.t0, spec.tf, spec.n_p)
        ue = _random_zoh(rng, spec.t0, spec.tf, spec.n_e)
        traj = simulate(
            spec,
            sol,
            [],
            Strategy.pursuer_open_loop(up),
            Strategy.evader_open_loop(ue),
            step=spec.horizon / 400,
        )
        direct, completed = payoff_two_ways(traj, spec, sol)
        rel = abs(direct - completed) / (1.0 + abs(direct))
        worst = max(worst, rel)
        assert rel <= 1e-5
    _report(
        "criterion 8: direct and completed-square payoffs agree on 100 "
        f"random games, worst rel gap {worst:.2e} <= 1e-5"
    )


def test_c09_deviation_gain_property(make_clean_spec):
    rng = np.random.default_rng(31415)
    worst_gain = -np.inf
    worst_rel = 0.0
    done = 0
    attempts = 0
    while done < 100 and attempts < 200:
        attempts += 1
        spec = make_clean_spec(rng, n=2 + attempts % 2)
        sol = solve_value_riccati(spec)
        a = rng.uniform(spec.t0, spec.t0 + 0.5)
        b = a + rng.uniform(0.1, 0.45)
        w = _random_zoh(rng, a, b, spec.n_e)
        try:
            gain, square = deviation_gain_check(spec, sol, (a, b), w)
        except InadmissibleInterval:
            continue
        done += 1
        worst_gain = max(worst_gain, gain)
        rel = abs(gain - square) / (1.0 + abs(gain))
        worst_rel = max(worst_rel, rel)
        assert gain <= 1e-8
        assert rel <= 1e-6
    assert done == 100
    _report(
        "criterion 9: deviation gain nonpositive and equal to its "
        f"completed square on 100 intervals, worst gain {worst_gain:.2e}, "
        f"worst rel gap {worst_rel:.2e}"
    )


def test_c10_intermittent_equals_continuous(make_escape_spec):
    rng = np.random.default_rng(5150)
    games = 0
    attempts = 0
    worst_rel = 0.0
    while games < 4 and attempts < 30:
        attempts += 1
        spec = make_escape_spec(rng, n=2)
        sol = solve_value_riccati(spec)
        try:
            sched = optimal_schedule(spec, sol, compute_slack=False)
        except Exception:
            continue
        if not 1 <= sched.N <= 4:
            continue
        games += 1
        value = game_value(spec, sol)

        # admissible schedule with the zero deviation restores the value
        traj = simulate(
            spec,
            sol,
            sched,
            Strategy.certainty_equivalent(),
            Strategy.evader_equilibrium(),
        )
        payoff = traj.payoff_direct
        rel = abs(payoff - value) / (1.0 + abs(value))
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-4

        # dropping the first instant produces a failing schedule whose
        # risky deviation beats the value without bound in the kick scale
        broken = sched.instants[1:]
        certs = check_admissibility(spec, sol, broken)
        assert not all(c.passed for c in certs)
        fail = next(c for c in certs if not c.passed)
        interval = (fail.t_start, fail.t_end)

        base = simulate(
            spec,
            sol,
            broken,
            Strategy.certainty_equivalent(),
            risky_strategy(spec, sol, interval, scale=0.0),
        ).payoff_direct
        gains = []
        for scale in (4.0, 8.0, 16.0):
            strat = risky_strategy(spec, sol, interval, scale=scale)
            payoff_s = simulate(
                spec, sol, broken, Strategy.certainty_equivalent(), strat
            ).payoff_direct
            gains.append(payoff_s - base)
        assert all(g > 0 for g in gains)
        exponents = [np.log2(gains[i + 1] / gains[i]) for i in range(2)]
        assert all(e >= 1.9 for e in exponents)

        scale = 16.0
        payoff_big = base + gains[-1]
        target = max(10.0 * abs(value), abs(value) + 1.0)
        while payoff_big < target and scale < 2**14:
            scale *= 2.0
            strat = risky_strategy(spec, sol, interval, scale=scale)
            payoff_big = simulate(
                spec, sol, broken, Strategy.certainty_equivalent(), strat
            ).payoff_direct
        assert payoff_big >= target
    assert games == 4
    _report(
        "criterion 10: admissible schedules restore the game value "
        f"(worst rel {worst_rel:.2e} <= 1e-4); broken schedules lose it "
        "without bound (quadratic kick growth, factor >= 10 reached)"
    )
