"""Closed-loop simulation, payoff evaluation, and deviation experiments.

The pursuer only sees the state at communication instants; between them it
propagates a certainty-equivalent estimate under assumed mutual
equilibrium play and feeds back on the estimate.  The evader sees
everything continuously.  Trajectories carry the running payoff integrand
plus both completed-square integrands, so the payoff can be evaluated two
independent ways and compared:

    direct            = int (x'Qx + u_p'R_p u_p - u_e'R_e u_e) dt + x(tf)'Q_f x(tf)
    completed square  = x0'P(t0)x0 + int |u_p + R_p^-1 B'P x|^2_{R_p} dt
                                   - int |u_e - R_e^-1 C'P x|^2_{R_e} dt

which agree identically for arbitrary inputs whenever the value flow P is
finite on the horizon.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg as la

from .errors import (
    EventOrdering,
    InadmissibleInterval,
    IntervalAdmissible,
    NegativeBudget,
)
from .escape import _flow_norm, _StackedFlow, detect_escape_radon
from .game_model import GameSpec
from .riccati import (
    DEFAULT_BLOWUP,
    RiccatiSolution,
    _hermite,
    eval_solution,
    make_gap_problem,
)

DEFAULT_STEP_REL = 1.0 / 2000.0
MIN_SUBSTEPS = 10


# ---------------------------------------------------------------------------
# input series


@dataclass(frozen=True)
class InputSeries:
    """Sampled input signal with a dense evaluator behind it."""

    times: np.ndarray
    values: np.ndarray
    dense: Callable[[float], np.ndarray]
    knots: tuple[float, ...] = ()

    def __call__(self, t: float) -> np.ndarray:
        return self.dense(t)


def piecewise_constant(knots, values) -> InputSeries:
    """Zero-order-hold signal: ``values[k]`` on ``[knots[k], knots[k+1])``."""
    knots = np.asarray(knots, dtype=float)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if len(knots) != len(values):
        raise ValueError("need one value row per knot")

    def dense(t: float) -> np.ndarray:
        k = int(np.searchsorted(knots, t, side="right")) - 1
        return values[min(max(k, 0), len(values) - 1)]

    return InputSeries(
        times=knots, values=values, dense=dense, knots=tuple(knots[1:])
    )


# ---------------------------------------------------------------------------
# strategies


@dataclass(frozen=True)
class Strategy:
    """Declarative description of one player's play.

    kinds: pursuer -- "certainty_equivalent" (estimate feedback, optionally
    plus an additive probe signal) or "open_loop"; evader --
    "equilibrium_feedback", "open_loop", "deviation" (equilibrium feedback
    plus an offset, or a raw input when ``absolute``), or
    "risky_two_phase" (kick then error feedback, built by
    ``risky_strategy``).
    """

    side: str
    kind: str
    u: Callable[[float], np.ndarray] | None = None
    w: np.ndarray | Callable[[float], np.ndarray] | None = None
    absolute: bool = False
    w_state: Callable[[float, np.ndarray], np.ndarray] | None = None
    offset: Callable[[float], np.ndarray] | None = None

    @staticmethod
    def certainty_equivalent(offset=None) -> "Strategy":
        return Strategy(side="pursuer", kind="certainty_equivalent", offset=offset)

    @staticmethod
    def pursuer_open_loop(u) -> "Strategy":
        return Strategy(side="pursuer", kind="open_loop", u=u)

    @staticmethod
    def evader_equilibrium() -> "Strategy":
        return Strategy(side="evader", kind="equilibrium_feedback")

    @staticmethod
    def evader_open_loop(u) -> "Strategy":
        return Strategy(side="evader", kind="open_loop", u=u)

    @staticmethod
    def deviation(w, absolute: bool = False) -> "Strategy":
        return Strategy(side="evader", kind="deviation", w=w, absolute=absolute)


class _Gains:
    """Equilibrium gain evaluators shared by simulator internals."""

    def __init__(self, spec: GameSpec, value_sol: RiccatiSolution):
        self.spec = spec
        self.value_sol = value_sol
        self.Rp_inv_BT = la.solve(spec.R_p, spec.B.T, assume_a="sym")
        self.Re_inv_CT = la.solve(spec.R_e, spec.C.T, assume_a="sym")

    def value(self, t: float) -> np.ndarray:
        return eval_solution(self.value_sol, t)

    def pursuer(self, t: float, P: np.ndarray | None = None) -> np.ndarray:
        P = self.value(t) if P is None else P
        return self.Rp_inv_BT @ P

    def evader(self, t: float, P: np.ndarray | None = None) -> np.ndarray:
        P = self.value(t) if P is None else P
        return self.Re_inv_CT @ P


def _as_signal(w, n: int):
    if w is None:
        zero = np.zeros(n)
        return lambda t: zero
    if callable(w):
        return w
    vec = np.asarray(w, dtype=float).reshape(n)
    return lambda t: vec


def _resolve_pursuer(strategy: Strategy, gains: _Gains):
    if strategy.side != "pursuer":
        raise ValueError(f"pursuer strategy required, got side={strategy.side!r}")
    if strategy.kind == "certainty_equivalent":
        probe = _as_signal(strategy.offset, gains.spec.n_p)

        def u(t, x, x_hat, P):
            return -(gains.pursuer(t, P) @ x_hat) + probe(t)

        return u
    if strategy.kind == "open_loop":
        sig = strategy.u
        if sig is None:
            raise ValueError("open_loop pursuer strategy needs an input signal")
        return lambda t, x, x_hat, P: np.asarray(sig(t), dtype=float)
    raise ValueError(f"unsupported pursuer kind {strategy.kind!r}")


def _resolve_evader(strategy: Strategy, gains: _Gains):
    if strategy.side != "evader":
        raise ValueError(f"evader strategy required, got side={strategy.side!r}")
    n_e = gains.spec.n_e
    if strategy.kind == "equilibrium_feedback":
        return lambda t, x, x_hat, P: gains.evader(t, P) @ x
    if strategy.kind == "open_loop":
        sig = strategy.u
        if sig is None:
            raise ValueError("open_loop evader strategy needs an input signal")
        return lambda t, x, x_hat, P: np.asarray(sig(t), dtype=float)
    if strategy.kind == "deviation":
        w = _as_signal(strategy.w, n_e)
        if strategy.absolute:
            return lambda t, x, x_hat, P: np.asarray(w(t), dtype=float)
        return lambda t, x, x_hat, P: gains.evader(t, P) @ x + w(t)
    if strategy.kind == "risky_two_phase":
        w_state = strategy.w_state
        if w_state is None:
            raise ValueError("risky_two_phase strategy needs its state feedback")

        def u(t, x, x_hat, P):
            return gains.evader(t, P) @ x + w_state(t, x - x_hat)

        return u
    raise ValueError(f"unsupported evader kind {strategy.kind!r}")


def _strategy_knots(strategy: Strategy) -> tuple[float, ...]:
    sig = strategy.u
    if isinstance(sig, InputSeries):
        return sig.knots
    if isinstance(strategy.w, InputSeries):
        return strategy.w.knots
    return ()


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True)
class Trajectory:
    """Sampled closed-loop run with cumulative payoff integrals.

    ``running_cost`` accumulates the payoff integrand; ``cs_pursuer`` and
    ``cs_evader`` accumulate the two completed-square integrands.  The
    estimate is stored post-reset at event times, so ``e`` vanishes there.
    """

    t: np.ndarray
    x: np.ndarray
    x_hat: np.ndarray
    u_p: np.ndarray
    u_e: np.ndarray
    running_cost: np.ndarray
    cs_pursuer: np.ndarray
    cs_evader: np.ndarray
    events: tuple[float, ...]
    terminal_cost: float

    @property
    def e(self) -> np.ndarray:
        return self.x - self.x_hat

    @property
    def payoff_direct(self) -> float:
        return float(self.running_cost[-1] + self.terminal_cost)


def _validate_instants(spec: GameSpec, instants) -> list[float]:
    instants = [float(t) for t in instants]
    if any(b <= a for a, b in zip(instants, instants[1:])):
        raise EventOrdering(f"instants not strictly increasing: {instants}")
    if instants and not (spec.t0 < instants[0] and instants[-1] < spec.tf):
        raise EventOrdering(
            f"instants must lie strictly inside ({spec.t0}, {spec.tf}): {instants}"
        )
    return instants


def simulate(
    spec: GameSpec,
    value_sol: RiccatiSolution,
    schedule,
    pursuer: Strategy,
    evader: Strategy,
    step: float | None = None,
    *,
    extra_breakpoints: Sequence[float] = (),
) -> Trajectory:
    """Fixed-step joint integration of state and estimate.

    ``schedule`` is a CommSchedule or an iterable of instants.  Steps are
    split exactly at communication events (where the estimate resets to
    the true state) and at any declared input breakpoints, with at least
    ten substeps per segment.  The three payoff integrals ride along as
    quadrature states of the same fourth-order scheme.
    """
    instants = _validate_instants(
        spec, getattr(schedule, "instants", schedule) or ()
    )
    step = float(step) if step is not None else DEFAULT_STEP_REL * spec.horizon
    if step <= 0:
        raise ValueError("step must be positive")

    gains = _Gains(spec, value_sol)
    u_p_fn = _resolve_pursuer(pursuer, gains)
    u_e_fn = _resolve_evader(evader, gains)

    cuts = set(instants)
    for t in (*_strategy_knots(pursuer), *_strategy_knots(evader), *extra_breakpoints):
        t = float(t)
        if spec.t0 < t < spec.tf:
            cuts.add(t)
    bounds = [spec.t0, *sorted(cuts), spec.tf]
    event_set = set(instants)

    A, B, C = spec.A, spec.B, spec.C
    Q, R_p, R_e = spec.Q, spec.R_p, spec.R_e

    def derivatives(t, x, x_hat):
        P = gains.value(t)
        Kp = gains.pursuer(t, P)
        Ke = gains.evader(t, P)
        u_p = u_p_fn(t, x, x_hat, P)
        u_e = u_e_fn(t, x, x_hat, P)
        dx = A @ x + B @ u_p + C @ u_e
        dx_hat = A @ x_hat - B @ (Kp @ x_hat) + C @ (Ke @ x_hat)
        d_cost = x @ Q @ x + u_p @ R_p @ u_p - u_e @ R_e @ u_e
        v_p = u_p + Kp @ x
        v_e = u_e - Ke @ x
        return dx, dx_hat, d_cost, v_p @ R_p @ v_p, v_e @ R_e @ v_e, u_p, u_e

    x = spec.x0.copy()
    x_hat = spec.x0.copy()
    cost = cs_p = cs_e = 0.0

    ts = [spec.t0]
    xs = [x.copy()]
    x_hats = [x_hat.copy()]
    d0 = derivatives(spec.t0, x, x_hat)
    u_ps = [d0[5]]
    u_es = [d0[6]]
    costs = [0.0]
    cs_ps = [0.0]
    cs_es = [0.0]

    for a, b in zip(bounds, bounds[1:]):
        if a in event_set:
            x_hat = x.copy()
            # overwrite the stored node with the post-reset estimate
            x_hats[-1] = x_hat.copy()
            d = derivatives(a, x, x_hat)
            u_ps[-1], u_es[-1] = d[5], d[6]
        n_sub = max(MIN_SUBSTEPS, math.ceil((b - a) / step))
        h = (b - a) / n_sub
        t = a
        for k in range(n_sub):
            # classical RK4 on the augmented state (quadrature rides along)
            dx1, dh1, dc1, dp1, de1, _, _ = derivatives(t, x, x_hat)
            x2 = x + 0.5 * h * dx1
            h2 = x_hat + 0.5 * h * dh1
            dx2, dh2, dc2, dp2, de2, _, _ = derivatives(t + 0.5 * h, x2, h2)
            x3 = x + 0.5 * h * dx2
            h3 = x_hat + 0.5 * h * dh2
            dx3, dh3, dc3, dp3, de3, _, _ = derivatives(t + 0.5 * h, x3, h3)
            x4 = x + h * dx3
            h4 = x_hat + h * dh3
            dx4, dh4, dc4, dp4, de4, _, _ = derivatives(t + h, x4, h4)

            x = x + (h / 6.0) * (dx1 + 2 * dx2 + 2 * dx3 + dx4)
            x_hat = x_hat + (h / 6.0) * (dh1 + 2 * dh2 + 2 * dh3 + dh4)
            cost += (h / 6.0) * (dc1 + 2 * dc2 + 2 * dc3 + dc4)
            cs_p += (h / 6.0) * (dp1 + 2 * dp2 + 2 * dp3 + dp4)
            cs_e += (h / 6.0) * (de1 + 2 * de2 + 2 * de3 + de4)
            t = b if k == n_sub - 1 else a + (k + 1) * h

            d = derivatives(t, x, x_hat)
            ts.append(t)
            xs.append(x.copy())
            x_hats.append(x_hat.copy())
            u_ps.append(d[5])
            u_es.append(d[6])
            costs.append(cost)
            cs_ps.append(cs_p)
            cs_es.append(cs_e)

    x_f = xs[-1]
    return Trajectory(
        t=np.array(ts),
        x=np.array(xs),
        x_hat=np.array(x_hats),
        u_p=np.array(u_ps),
        u_e=np.array(u_es),
        running_cost=np.array(costs),
        cs_pursuer=np.array(cs_ps),
        cs_evader=np.array(cs_es),
        events=tuple(instants),
        terminal_cost=float(x_f @ spec.Q_f @ x_f),
    )


def payoff_two_ways(
    traj: Trajectory, spec: GameSpec, value_sol: RiccatiSolution
) -> tuple[float, float]:
    """Payoff by direct quadrature and by the completed-square identity."""
    direct = traj.payoff_direct
    P0 = eval_solution(value_sol, spec.t0)
    completed = float(
        spec.x0 @ P0 @ spec.x0 + traj.cs_pursuer[-1] - traj.cs_evader[-1]
    )
    return direct, completed


def game_value(spec: GameSpec, value_sol: RiccatiSolution) -> float:
    """Payoff under mutual equilibrium play, x0'P(t0)x0."""
    P0 = eval_solution(value_sol, spec.t0)
    return float(spec.x0 @ P0 @ spec.x0)


# ---------------------------------------------------------------------------
# open-loop pair


def transition_flow(spec: GameSpec, value_sol: RiccatiSolution):
    """Dense state-transition matrix Phi(t, t0) of mutual equilibrium play.

    Mutual equilibrium play drives the state with A + (C R_e^-1 C' -
    B R_p^-1 B') P, the U block of the value flow's linear
    representation, so Phi(t, t0) = U(t) U(t0)^-1.  The value solve's
    restart steps carry U from node to node, so Phi at each node is a
    product of their inverses; between nodes it is cubic Hermite.
    """
    steps = value_sol.steps
    phis = np.empty((len(steps) + 1, spec.n_x, spec.n_x))
    phis[-1] = np.eye(spec.n_x)
    for k in range(len(steps) - 1, -1, -1):
        phis[k] = np.linalg.solve(steps[k], phis[k + 1])
    closed_loop = spec.A + spec.controllability_gap() @ value_sol.values
    derivs = closed_loop @ phis
    return lambda t: _hermite(value_sol.grid, phis, derivs, t)


def open_loop_inputs(
    spec: GameSpec, value_sol: RiccatiSolution, grid
) -> tuple[InputSeries, InputSeries]:
    """Equilibrium inputs precomputed from the initial state alone.

    Matches the feedback pair along the mutual-equilibrium trajectory but
    depends only on time, so either player can commit to it offline.
    """
    grid = np.asarray(grid, dtype=float)
    phi = transition_flow(spec, value_sol)
    gains = _Gains(spec, value_sol)
    x0 = spec.x0

    def u_p_dense(t: float) -> np.ndarray:
        return -(gains.pursuer(t) @ (phi(t) @ x0))

    def u_e_dense(t: float) -> np.ndarray:
        return gains.evader(t) @ (phi(t) @ x0)

    up = np.array([u_p_dense(t) for t in grid])
    ue = np.array([u_e_dense(t) for t in grid])
    return (
        InputSeries(times=grid, values=up, dense=u_p_dense),
        InputSeries(times=grid, values=ue, dense=u_e_dense),
    )


def open_loop_pair(
    spec: GameSpec, value_sol: RiccatiSolution
) -> tuple[Strategy, Strategy]:
    """Both players committed to the precomputed equilibrium inputs."""
    grid = np.linspace(spec.t0, spec.tf, 3)
    up, ue = open_loop_inputs(spec, value_sol, grid)
    return Strategy.pursuer_open_loop(up), Strategy.evader_open_loop(ue)


# ---------------------------------------------------------------------------
# deviation analysis


def _interval_escape(spec, value_sol, a, b):
    boundary = -eval_solution(value_sol, b)
    return detect_escape_radon(spec, b, boundary, a)


def _gap_flow(spec, value_sol, b):
    """Pointwise-exact gap flow G of the interval ending at b; the
    interval's error-value flow is M = G + P."""
    return _StackedFlow(make_gap_problem(spec, value_sol, b))



def deviation_gain_check(
    spec: GameSpec,
    value_sol: RiccatiSolution,
    interval: tuple[float, float],
    w,
    *,
    step: float | None = None,
) -> tuple[float, float]:
    """Net evader gain from a deviation on one escape-free interval,
    evaluated two ways.

    The evader plays its equilibrium feedback plus ``w`` while the pursuer
    feeds back on its estimate; the estimation error then obeys
    e' = (A + C R_e^-1 C'P) e + C w with e = 0 at the interval start. The
    gain int (|e|^2_{P B R_p^-1 B' P} - |w|^2_{R_e}) dt collapses, by the
    error-value flow M of the interval, to -int |w + R_e^-1 C'M e|^2_{R_e} dt,
    so it is never positive.  Returns (gain, completed_square); callers
    assert their agreement and nonpositivity.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (spec.t0 <= a < b <= spec.tf):
        raise ValueError(f"interval {interval} outside the horizon")
    rep = _interval_escape(spec, value_sol, a, b)
    btol = 1e-8 * spec.horizon
    if rep.found and rep.t_escape > a + btol:
        raise InadmissibleInterval(
            f"interval [{a}, {b}) contains an escape at {rep.t_escape:.9g}"
        )
    gap = _gap_flow(spec, value_sol, b)

    gains = _Gains(spec, value_sol)
    w_fn = _as_signal(w, spec.n_e)
    A, C, R_p, R_e = spec.A, spec.C, spec.R_p, spec.R_e
    S = spec.evader_power()

    # An escape at the interval start gives the error-value flow a simple
    # pole there, or puts it past the blow-up guard at the start.  The
    # square integrand still has a finite limit at the start (the error
    # vanishes linearly while the flow has a simple pole), equal to the raw
    # formula with M e replaced by residue * C w; the start uses that limit.
    limit_map = None
    at_start = rep.found and (
        rep.t_escape >= a or _flow_norm(gap, a) >= DEFAULT_BLOWUP
    )
    if at_start:
        offset = 1e-6 * (b - a)
        residue = offset * gap.value(rep.t_escape + offset)
        limit_map = gains.Re_inv_CT @ residue @ C

    def derivatives(t, e):
        P = gains.value(t)
        wt = np.asarray(w_fn(t), dtype=float)
        de = (A + S @ P) @ e + C @ wt
        v = gains.pursuer(t, P) @ e
        gain_rate = v @ R_p @ v - wt @ R_e @ wt
        if limit_map is not None and t == a:
            g = wt + limit_map @ wt
        else:
            M = gap.value(t) + P
            g = wt + gains.Re_inv_CT @ (M @ e)
        square_rate = -(g @ R_e @ g)
        return de, gain_rate, square_rate

    step = float(step) if step is not None else (b - a) / 1000.0
    n_sub = max(MIN_SUBSTEPS, math.ceil((b - a) / step))
    h = (b - a) / n_sub
    e = np.zeros(spec.n_x)
    gain = square = 0.0
    t = a
    for k in range(n_sub):
        d1, g1, s1 = derivatives(t, e)
        d2, g2, s2 = derivatives(t + 0.5 * h, e + 0.5 * h * d1)
        d3, g3, s3 = derivatives(t + 0.5 * h, e + 0.5 * h * d2)
        d4, g4, s4 = derivatives(t + h, e + h * d3)
        e = e + (h / 6.0) * (d1 + 2 * d2 + 2 * d3 + d4)
        gain += (h / 6.0) * (g1 + 2 * g2 + 2 * g3 + g4)
        square += (h / 6.0) * (s1 + 2 * s2 + 2 * s3 + s4)
        t = b if k == n_sub - 1 else a + (k + 1) * h
    return float(gain), float(square)


def risky_strategy(
    spec: GameSpec,
    value_sol: RiccatiSolution,
    interval: tuple[float, float],
    kick_w0: np.ndarray | None = None,
    kick_len: float | None = None,
    scale: float = 1.0,
    *,
    standoff: float | None = None,
) -> Strategy:
    """Two-phase deviation for an interval whose error-value flow escapes.

    Phase one injects ``scale * kick_w0`` to build estimation error while
    the error-value flow is still undefined; phase two plays the
    gain-maximizing error feedback -R_e^-1 C'M~ e, where M~ is the
    error-value solution truncated a standoff above its escape time (and
    frozen below the truncation).  The extracted gain grows quadratically
    in ``scale``, which is the working demonstration that an inadmissible
    schedule forfeits any payoff bound.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (spec.t0 <= a < b <= spec.tf):
        raise ValueError(f"interval {interval} outside the horizon")
    rep = _interval_escape(spec, value_sol, a, b)
    btol = 1e-8 * spec.horizon
    if not (rep.found and rep.t_escape > a + btol):
        raise IntervalAdmissible(
            f"interval [{a}, {b}) is escape-free; the deviation cannot profit"
        )
    t_star = float(rep.t_escape)
    standoff = (
        float(standoff) if standoff is not None else 1e-4 * max(b - t_star, 1e-12)
    )
    t_trunc = min(t_star + standoff, 0.5 * (t_star + b))
    gap = _gap_flow(spec, value_sol, b)

    t_switch = a + float(kick_len) if kick_len is not None else t_trunc
    if not (a < t_switch < b):
        raise ValueError("kick must end strictly inside the interval")

    if kick_w0 is None:
        # basis direction with the strongest immediate effect on the state
        col = int(np.argmax(np.linalg.norm(spec.C, axis=0)))
        kick_w0 = np.eye(spec.n_e)[col]
    kick = float(scale) * np.asarray(kick_w0, dtype=float).reshape(spec.n_e)

    Re_inv_CT = la.solve(spec.R_e, spec.C.T, assume_a="sym")

    def w_state(t: float, e: np.ndarray) -> np.ndarray:
        if t <= t_switch:
            return kick
        tt = min(max(t, t_trunc), b)
        M = gap.value(tt) + eval_solution(value_sol, tt)
        return -(Re_inv_CT @ (M @ e))

    return Strategy(side="evader", kind="risky_two_phase", w_state=w_state)


def deviation_sweep(
    spec: GameSpec,
    c_values,
    *,
    schedule=(),
    pursuer: str = "open_loop",
    direction: np.ndarray | None = None,
    absolute: bool = True,
    step: float | None = None,
    value_sol: RiccatiSolution | None = None,
) -> np.ndarray:
    """Payoffs of constant evader deviations scaled by each ``c``.

    With the default direction the evader input is ``[-c, 0, ...]``; the
    pursuer either commits to the open-loop pair or runs the
    certainty-equivalent estimator over ``schedule``.
    """
    from .riccati import solve_value_riccati

    value_sol = value_sol if value_sol is not None else solve_value_riccati(spec)
    if direction is None:
        direction = np.zeros(spec.n_e)
        direction[0] = -1.0
    direction = np.asarray(direction, dtype=float).reshape(spec.n_e)

    if pursuer == "open_loop":
        pursuer_strategy, _ = open_loop_pair(spec, value_sol)
    elif pursuer == "certainty_equivalent":
        pursuer_strategy = Strategy.certainty_equivalent()
    else:
        raise ValueError(f"unsupported pursuer choice {pursuer!r}")

    payoffs = []
    for c in c_values:
        evader = Strategy.deviation(float(c) * direction, absolute=absolute)
        traj = simulate(spec, value_sol, schedule, pursuer_strategy, evader, step)
        payoffs.append(traj.payoff_direct)
    return np.array(payoffs)


def reachable_radius(
    effort_budget: float, horizon: float, R_e_scalar: float
) -> float:
    """Largest displacement of a single-integrator evader whose control
    effort int r |u|^2 dt stays within the budget (Cauchy-Schwarz tight,
    achieved by a constant input)."""
    if effort_budget < 0:
        raise NegativeBudget(f"effort budget must be nonnegative, got {effort_budget}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if R_e_scalar <= 0:
        raise ValueError(f"effort weight must be positive, got {R_e_scalar}")
    return float(np.sqrt(effort_budget * horizon / R_e_scalar))
