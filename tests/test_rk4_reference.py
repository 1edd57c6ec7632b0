"""The batched closed-loop core against a plain per-step RK4 oracle.

``rk4_simulate`` is the scheme ``simulate`` implements, written out one
step and one stage at a time on (x, x_hat), with each strategy evaluated
at a single time.  The batched core forms the same steps as an affine
recurrence, so the two agree to round-off.
"""
import math

import numpy as np
import pytest

from pegame.riccati import eval_solution, solve_value_riccati
from pegame.simulator import (
    MIN_SUBSTEPS,
    InputSeries,
    Strategy,
    deviation_sweep,
    open_loop_pair,
    piecewise_constant,
    risky_strategy,
    simulate,
)

REL = 1e-12


def play(strategy, t, t_in, K):
    """K_x, K_h and v of ``strategy`` at the time t, given the side's
    equilibrium gain K there, with its input read at t_in."""
    if strategy.terms is not None:
        K_x, K_h, v = strategy.terms(np.array([t]), K[None])
        return K_x[0], K_h[0], v[0]
    if strategy.w is None:
        v = np.zeros(len(K))
    elif isinstance(strategy.w, InputSeries):
        v = strategy.w.dense(np.array([t_in]))[0]
    else:
        v = np.asarray(strategy.w, dtype=float)
    return strategy.state * K, strategy.estimate * K, v


def rk4_simulate(spec, sol, instants, pursuer, evader, step=None):
    """Per-step classical RK4 of the closed loop; returns node times,
    states, estimates, both inputs, the three payoff integrals and the
    direct payoff."""
    step = step if step is not None else spec.horizon / 2000.0
    cuts = {float(t) for t in instants}
    cuts |= {float(k) for k in (*pursuer.knots, *evader.knots) if spec.t0 < k < spec.tf}
    bounds = [spec.t0, *sorted(cuts), spec.tf]
    A, B, C = spec.A, spec.B, spec.C

    def derivatives(t, x, x_hat, t_in):
        P = eval_solution(sol, t)
        Kp, Ke = spec._gains[0] @ P, spec._gains[1] @ P
        Kx, Kh, v = play(pursuer, t, t_in, Kp)
        u_p = Kx @ x + Kh @ x_hat + v
        Kx, Kh, v = play(evader, t, t_in, Ke)
        u_e = Kx @ x + Kh @ x_hat + v
        dx = A @ x + B @ u_p + C @ u_e
        dx_hat = A @ x_hat - B @ (Kp @ x_hat) + C @ (Ke @ x_hat)
        v_p, v_e = u_p + Kp @ x, u_e - Ke @ x
        rates = np.array([
            x @ spec.Q @ x + u_p @ spec.R_p @ u_p - u_e @ spec.R_e @ u_e,
            v_p @ spec.R_p @ v_p,
            v_e @ spec.R_e @ v_e,
        ])
        return dx, dx_hat, rates, u_p, u_e

    x, x_hat, q = spec.x0.copy(), spec.x0.copy(), np.zeros(3)
    ts, xs, hats, ups, ues, qs = [], [], [], [], [], []
    for a, b in zip(bounds, bounds[1:]):
        if a in instants:
            x_hat = x.copy()
        n = max(MIN_SUBSTEPS, math.ceil((b - a) / step))
        h = (b - a) / n
        for k in range(n):
            t = a + k * h
            end = b if k == n - 1 else a + (k + 1) * h
            # a step reads its inputs at the left limit of its end, so a step
            # that ends at a knot stays on its own piece
            end_in = np.nextafter(end, -np.inf)
            dx1, dh1, r1, u_p, u_e = derivatives(t, x, x_hat, t)
            ts.append(t), xs.append(x), hats.append(x_hat), ups.append(u_p)
            ues.append(u_e), qs.append(q)
            mid = t + 0.5 * h
            dx2, dh2, r2, _, _ = derivatives(
                mid, x + 0.5 * h * dx1, x_hat + 0.5 * h * dh1, mid
            )
            dx3, dh3, r3, _, _ = derivatives(
                mid, x + 0.5 * h * dx2, x_hat + 0.5 * h * dh2, mid
            )
            dx4, dh4, r4, _, _ = derivatives(end, x + h * dx3, x_hat + h * dh3, end_in)
            x = x + (h / 6.0) * (dx1 + 2 * dx2 + 2 * dx3 + dx4)
            x_hat = x_hat + (h / 6.0) * (dh1 + 2 * dh2 + 2 * dh3 + dh4)
            q = q + (h / 6.0) * (r1 + 2 * r2 + 2 * r3 + r4)
    _, _, _, u_p, u_e = derivatives(spec.tf, x, x_hat, spec.tf)
    ts.append(spec.tf), xs.append(x), hats.append(x_hat), ups.append(u_p)
    ues.append(u_e), qs.append(q)
    q = np.array(qs)
    return {
        "t": np.array(ts), "x": np.array(xs), "x_hat": np.array(hats),
        "u_p": np.array(ups), "u_e": np.array(ues), "q": q,
        "payoff": q[-1, 0] + x @ spec.Q_f @ x,
    }


def _close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.abs(a - b).max() <= REL * (1.0 + np.abs(b).max())


def assert_matches(spec, sol, instants, pursuer, evader, step=None):
    traj = simulate(spec, sol, instants, pursuer, evader, step)
    ref = rk4_simulate(spec, sol, instants, pursuer, evader, step)
    assert np.array_equal(traj.t, ref["t"])
    # the state and the estimate are one trajectory, compared on one scale
    assert _close(np.hstack([traj.x, traj.x_hat]), np.hstack([ref["x"], ref["x_hat"]]))
    assert _close(np.hstack([traj.u_p, traj.u_e]), np.hstack([ref["u_p"], ref["u_e"]]))
    q = np.stack([traj.running_cost, traj.cs_pursuer, traj.cs_evader], axis=1)
    assert _close(q, ref["q"])
    # a risky run's payoff is a small difference of a large running cost and
    # a large terminal cost, so it is compared on the scale of those terms
    scale = 1.0 + abs(traj.running_cost[-1]) + traj.terminal_cost
    assert abs(traj.payoff_direct - ref["payoff"]) <= REL * scale


def _zoh(rng, spec, n, knots=4):
    inner = np.sort(rng.uniform(spec.t0, spec.tf, knots - 1))
    times = np.concatenate([[spec.t0], inner])
    return piecewise_constant(times, rng.standard_normal((knots, n)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_feedback_and_open_loop_kinds_match_oracle(make_clean_spec, probed, n):
    rng = np.random.default_rng(600 + n)
    spec = make_clean_spec(rng, n=n)
    sol = solve_value_riccati(spec)
    instants = np.sort(rng.uniform(spec.t0, spec.tf, 2)).tolist()
    step = spec.horizon / 300
    ce, eq = Strategy.certainty_equivalent(), Strategy.evader_equilibrium()
    probe = probed(_zoh(rng, spec, spec.n_p))
    w = _zoh(rng, spec, spec.n_e)
    ol_p, ol_e = open_loop_pair(spec, sol)
    sin_p = Strategy.pursuer_open_loop(
        InputSeries(lambda t: np.repeat(np.sin(3 * t)[..., None], spec.n_p, axis=-1))
    )
    for pursuer, evader in [
        (ce, eq),
        (probe, eq),
        (ce, Strategy.deviation(w)),
        (ce, Strategy.evader_open_loop(w)),
        (ol_p, ol_e),
        (sin_p, Strategy.evader_open_loop(w)),
    ]:
        assert_matches(spec, sol, instants, pursuer, evader, step)


@pytest.mark.parametrize("n", [2, 3])
def test_risky_two_phase_matches_oracle(make_escape_spec, n):
    rng = np.random.default_rng(610 + n)
    spec = make_escape_spec(rng, n=n)
    sol = solve_value_riccati(spec)
    for scale in (0.0, 3.0):
        risky = risky_strategy(spec, sol, (spec.t0, spec.tf), scale=scale)
        assert_matches(
            spec, sol, [], Strategy.certainty_equivalent(), risky, spec.horizon / 400
        )


def test_risky_example_one_matches_oracle(example_spec, example_value_sol):
    risky = risky_strategy(example_spec, example_value_sol, (0.0, 1.0), scale=2.0)
    assert_matches(
        example_spec, example_value_sol, [], Strategy.certainty_equivalent(), risky,
        example_spec.horizon / 500,
    )


def test_sweep_batch_matches_oracle(example_spec, example_value_sol):
    cs, step = [0.0, 0.7, 2.0], example_spec.horizon / 400
    ol_p, _ = open_loop_pair(example_spec, example_value_sol)
    ce = Strategy.certainty_equivalent()
    for mode, pursuer, instants in [
        ("open_loop", ol_p, []),
        ("certainty_equivalent", ce, [0.5]),
    ]:
        payoffs = deviation_sweep(
            example_spec, cs, schedule=instants, pursuer=mode, step=step,
            value_sol=example_value_sol,
        )
        for c, payoff in zip(cs, payoffs):
            ref = rk4_simulate(
                example_spec, example_value_sol, instants, pursuer,
                Strategy.evader_open_loop(np.array([-c, 0.0])), step,
            )
            assert _close(payoff, ref["payoff"])
