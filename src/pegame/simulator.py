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

Every strategy is affine, u = K_x(t) x + K_h(t) x_hat + v(t), so the
closed loop is a linear ODE z' = F(t) z + g(t) and classical RK4 on it is
an affine recurrence z_{k+1} = T_k z_k + c_k.  ``_rk4`` evaluates F and g
at all stage times of a block of steps in one batched call, runs the
short sequential recurrence, then rebuilds the stage states to evaluate
the quadrature integrands at once.  The deviation sweep runs as one
batch, the deviation gain check on the estimation error alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as la

from .errors import InadmissibleInterval, IntervalAdmissible, NegativeBudget
from .escape import _escape_inside, _flow_norm, _StackedFlow
from .game_model import GameSpec
from .riccati import (
    DEFAULT_BLOWUP,
    RiccatiSolution,
    _eval_many,
    _hermite,
    eval_solution,
    make_gap_problem,
    solve_value_riccati,
)

DEFAULT_STEP_REL = 1.0 / 2000.0
MIN_SUBSTEPS = 10
MAX_STEPS = 10**6  # RK4 steps of one run; a step that needs more is refused
BLOCK = 128  # RK4 steps per batched evaluation; bounds the stage arrays


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector products over stacks of matrices and vectors."""
    return (M @ v[..., None])[..., 0]


def _quad(v: np.ndarray, W: np.ndarray) -> np.ndarray:
    """v'Wv over a stack of vectors."""
    return np.einsum("...i,ij,...j->...", v, W, v)


def _gain(R: np.ndarray, B: np.ndarray) -> np.ndarray:
    """R^-1 B', the factor of an equilibrium gain R^-1 B'P."""
    return la.solve(R, B.T, assume_a="sym")


# ---------------------------------------------------------------------------
# input series


@dataclass(frozen=True)
class InputSeries:
    """Sampled input signal with a dense evaluator behind it.

    ``dense`` takes a time or an array of times; ``knots`` are the times
    where the signal may jump.
    """

    times: np.ndarray
    values: np.ndarray
    dense: Callable[[np.ndarray], np.ndarray]
    knots: tuple[float, ...] = ()

    def __call__(self, t) -> np.ndarray:
        return self.dense(t)


def piecewise_constant(knots, values) -> InputSeries:
    """Zero-order-hold signal: ``values[k]`` on ``[knots[k], knots[k+1])``."""
    knots = np.asarray(knots, dtype=float)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if len(knots) != len(values):
        raise ValueError("need one value row per knot")

    def dense(t):
        k = np.searchsorted(knots, t, side="right") - 1
        return values[np.clip(k, 0, len(values) - 1)]

    return InputSeries(
        times=knots, values=values, dense=dense, knots=tuple(knots[1:])
    )


def _signal(w) -> Callable[[np.ndarray, int], np.ndarray]:
    """Evaluator (times, dim) -> (*times.shape, dim) of an input given as
    None (zero), a constant vector, an InputSeries, or a callable of one
    time."""
    if w is None:
        return lambda t, dim: np.zeros((*t.shape, dim))
    if isinstance(w, InputSeries):
        return lambda t, dim: w.dense(t)
    if callable(w):
        return lambda t, dim: np.array(
            [np.asarray(w(tk), dtype=float).reshape(dim) for tk in t.ravel()]
        ).reshape(*t.shape, dim)
    vec = np.asarray(w, dtype=float)
    return lambda t, dim: np.broadcast_to(vec.reshape(dim), (*t.shape, dim))


# ---------------------------------------------------------------------------
# strategies


@dataclass(frozen=True)
class _Stages:
    """Times at which strategies are evaluated, with the equilibrium
    gains Kp = R_p^-1 B'P and Ke = R_e^-1 C'P there.

    ``t_in`` is ``t`` with each step's end moved to its left limit; inputs
    read it, so a step never samples the next piece of a zero-order hold.
    """

    t: np.ndarray
    t_in: np.ndarray
    Kp: np.ndarray
    Ke: np.ndarray


def _stages(spec: GameSpec, value_sol: RiccatiSolution, t, t_in) -> _Stages:
    P = _eval_many(value_sol, t)
    return _Stages(t, t_in, _gain(spec.R_p, spec.B) @ P, _gain(spec.R_e, spec.C) @ P)


@dataclass(frozen=True)
class Strategy:
    """One player's play in affine form, u = K_x(t) x + K_h(t) x_hat + v(t).

    ``terms`` maps ``_Stages`` at times of any shape S to the stacks K_x
    (*S, m, n), K_h (*S, m, n) and v (*S, m).  ``knots`` are the times
    where v may jump; the simulator splits its steps there.
    """

    side: str
    terms: Callable[[_Stages], tuple[np.ndarray, np.ndarray, np.ndarray]]
    knots: tuple[float, ...] = ()

    @staticmethod
    def certainty_equivalent(offset=None) -> "Strategy":
        """Equilibrium feedback on the estimate, plus an optional probe."""
        return _affine("pursuer", offset, estimate=-1.0)

    @staticmethod
    def pursuer_open_loop(u) -> "Strategy":
        return _affine("pursuer", u)

    @staticmethod
    def evader_equilibrium() -> "Strategy":
        return _affine("evader", None, state=1.0)

    @staticmethod
    def evader_open_loop(u) -> "Strategy":
        return _affine("evader", u)

    @staticmethod
    def deviation(w, absolute: bool = False) -> "Strategy":
        """Equilibrium feedback plus ``w``, or ``w`` alone when ``absolute``."""
        return _affine("evader", w, state=0.0 if absolute else 1.0)


def _affine(side: str, w, state: float = 0.0, estimate: float = 0.0) -> Strategy:
    """Strategy feeding back ``state`` and ``estimate`` times the side's
    equilibrium gain on the state and on the estimate, plus the input ``w``."""
    signal = _signal(w)

    def terms(s: _Stages):
        K = s.Kp if side == "pursuer" else s.Ke
        return state * K, estimate * K, signal(s.t_in, K.shape[-2])

    return Strategy(side, terms, getattr(w, "knots", ()))


# ---------------------------------------------------------------------------
# the RK4 core


def _grid(bounds, step: float):
    """RK4 steps: at least MIN_SUBSTEPS equal steps of at most ``step`` on
    each segment between ``bounds``, then a zero-length step whose start
    is the final node.  Returns each step's start, length and end."""
    if not step > 0:
        raise ValueError("step must be positive")
    if bounds[-1] - bounds[0] > MAX_STEPS * step:
        raise ValueError(f"step {step:g} needs more than {MAX_STEPS} RK4 steps")
    t, h = [], []
    for a, b in zip(bounds, bounds[1:]):
        n = max(MIN_SUBSTEPS, math.ceil((b - a) / step))
        t.append(a + np.arange(n) * ((b - a) / n))
        h.append(np.full(n, (b - a) / n))
    t = np.append(np.concatenate(t), bounds[-1])
    return t, np.append(np.concatenate(h), 0.0), np.append(t[1:], bounds[-1])


def _rk4(grid, z0: np.ndarray, system, events=(), reset=None):
    """Classical RK4 for z' = F(t) z + g(t) on ``grid``, BLOCK steps at a time.

    ``system(t, t_in, F, g)`` gets a block's stage times (K, 4), and the
    same with each step's end at its left limit for inputs; it fills in F
    (K, 4, B, m, m) and g (K, 4, B, m) there and returns ``rates``, a map
    from the stage states (K, 4, B, m) to the quadrature integrands
    (K, 4, B, q) and to outputs at the step starts (K, B, p).  ``z0`` is
    (B, m); a step that starts at one of ``events`` first maps the state
    by ``reset``.  Returns the states, integrals and outputs at each node.
    """
    n_batch, m = z0.shape
    # homogeneous coordinates: [z; 1]' = [[F, g], [0, 0]] [z; 1]
    z = np.append(z0, np.ones((n_batch, 1)), axis=1)[..., None]
    resets = np.isin(grid[0], list(events))
    nodes, increments, outputs = [], [], []
    for lo in range(0, len(grid[0]), BLOCK):
        t, h, end = (a[lo : lo + BLOCK] for a in grid)
        mid, K = t + 0.5 * h, len(t)
        G = np.zeros((K, 4, n_batch, m + 1, m + 1))
        rates = system(
            np.stack([t, mid, mid, end], axis=1),
            np.stack([t, mid, mid, np.nextafter(end, -np.inf)], axis=1),
            G[..., :m, :m], G[..., :m, m],
        )
        # stage slopes are K_i z, K_1 = G_1 and K_i = G_i (I + c_i h K_{i-1}),
        # so a step maps z to T z with T = I + h/6 (K_1 + 2K_2 + 2K_3 + K_4)
        hk = h[:, None, None, None]
        k = G[:, 0]
        T = k.copy()
        for i, (c, weight) in enumerate(((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)), 1):
            k = G[:, i] + c * hk * (G[:, i] @ k)
            T += weight * k
        T = np.eye(m + 1) + (hk / 6.0) * T

        starts = np.empty((K, n_batch, m + 1, 1))
        for j in range(K):
            if resets[lo + j]:
                z = la.block_diag(reset, 1.0) @ z
            starts[j] = z
            z = T[j] @ z

        hk = h[:, None, None]
        Z = [starts[..., 0]]
        for i, c in enumerate((0.5, 0.5, 1.0)):
            Z.append(Z[0] + c * hk * _mv(G[:, i], Z[-1]))
        r, out = rates(np.stack(Z, axis=1)[..., :m])
        increments.append((hk / 6.0) * (r[:, 0] + 2 * r[:, 1] + 2 * r[:, 2] + r[:, 3]))
        nodes.append(Z[0][..., :m])
        outputs.append(out)
    inc = np.concatenate(increments)
    integrals = np.concatenate([np.zeros_like(inc[:1]), np.cumsum(inc[:-1], axis=0)])
    return np.concatenate(nodes), integrals, np.concatenate(outputs)


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


def _closed_loop(spec, value_sol, schedule, pursuer, evaders, step):
    """One closed-loop run per evader strategy, batched.

    The state is carried as z = [x; e], e = x - x_hat, and the coefficient
    of x in e' is formed from gain differences alone, so that an estimate
    which tracks the state keeps e exactly zero.  Returns the node times, z
    (S, B, 2n), the three payoff integrals (S, B, 3), the inputs
    [u_p, u_e] (S, B, n_p + n_e) and the instants.
    """
    for strategy, side in [(pursuer, "pursuer"), *((e, "evader") for e in evaders)]:
        if strategy.side != side:
            raise ValueError(f"{side} strategy required, got side={strategy.side!r}")
    instants = spec.checked_instants(getattr(schedule, "instants", schedule))
    step = float(step) if step is not None else DEFAULT_STEP_REL * spec.horizon
    knots = (*pursuer.knots, *(k for e in evaders for k in e.knots))
    cuts = {*instants, *(float(t) for t in knots if spec.t0 < float(t) < spec.tf)}
    grid = _grid([spec.t0, *sorted(cuts), spec.tf], step)

    n, n_batch = spec.n_x, len(evaders)
    A, B, C = spec.A, spec.B, spec.C

    def system(t, t_in, F, g):
        s = _stages(spec, value_sol, t, t_in)
        Kpx, Kph, vp, Kp, Ke = (a[:, :, None] for a in (*pursuer.terms(s), s.Kp, s.Ke))
        terms = zip(*(e.terms(s) for e in evaders))
        Kex, Keh, ve = (np.stack(a, axis=2) for a in terms)
        F[..., :n, n:] = -(B @ Kph + C @ Keh)
        F[..., :n, :n] = A + B @ (Kpx + Kph) + C @ (Kex + Keh)
        F[..., n:, :n] = B @ (Kpx + Kph + Kp) + C @ (Kex + Keh - Ke)
        F[..., n:, n:] = A - B @ Kp + C @ Ke + F[..., :n, n:]

        def rates(Z):
            x, x_hat = Z[..., :n], Z[..., :n] - Z[..., n:]
            u_p = _mv(Kpx, x) + _mv(Kph, x_hat) + vp
            u_e = _mv(Kex, x) + _mv(Keh, x_hat) + ve
            cost = _quad(x, spec.Q) + _quad(u_p, spec.R_p) - _quad(u_e, spec.R_e)
            cs_p = _quad(u_p + _mv(Kp, x), spec.R_p)
            cs_e = _quad(u_e - _mv(Ke, x), spec.R_e)
            inputs = np.concatenate([u_p[:, 0], u_e[:, 0]], axis=-1)
            return np.stack([cost, cs_p, cs_e], axis=-1), inputs

        g[...] = np.tile(_mv(B, vp) + _mv(C, ve), 2)
        return rates

    reset = la.block_diag(np.eye(n), np.zeros((n, n)))
    z0 = np.tile(np.append(spec.x0, np.zeros(n)), (n_batch, 1))
    z, integrals, inputs = _rk4(grid, z0, system, instants, reset)
    return grid[0], z, integrals, inputs, instants


def simulate(
    spec: GameSpec,
    value_sol: RiccatiSolution,
    schedule,
    pursuer: Strategy,
    evader: Strategy,
    step: float | None = None,
) -> Trajectory:
    """Fixed-step joint integration of state and estimate.

    ``schedule`` is a CommSchedule or an iterable of instants.  Steps are
    split exactly at communication events (where the estimate resets to
    the true state) and at the strategies' knots, with at least ten
    substeps per segment; a segment reads
    its inputs from its own piece, up to the left limit at its end.  The
    three payoff integrals ride along as quadrature states of the same
    fourth-order scheme.
    """
    t, z, integrals, inputs, instants = _closed_loop(
        spec, value_sol, schedule, pursuer, [evader], step
    )
    x, e = np.split(z[:, 0], 2, axis=-1)
    return Trajectory(
        t=t,
        x=x,
        x_hat=x - e,
        u_p=inputs[:, 0, : spec.n_p],
        u_e=inputs[:, 0, spec.n_p :],
        running_cost=integrals[:, 0, 0],
        cs_pursuer=integrals[:, 0, 1],
        cs_evader=integrals[:, 0, 2],
        events=tuple(instants),
        terminal_cost=float(x[-1] @ spec.Q_f @ x[-1]),
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

    def dense(gain):
        return lambda t: _mv(gain @ _eval_many(value_sol, t), phi(t) @ spec.x0)

    u_p, u_e = dense(-_gain(spec.R_p, spec.B)), dense(_gain(spec.R_e, spec.C))
    return tuple(InputSeries(times=grid, values=u(grid), dense=u) for u in (u_p, u_e))


def open_loop_pair(
    spec: GameSpec, value_sol: RiccatiSolution
) -> tuple[Strategy, Strategy]:
    """Both players committed to the precomputed equilibrium inputs."""
    grid = np.linspace(spec.t0, spec.tf, 3)
    up, ue = open_loop_inputs(spec, value_sol, grid)
    return Strategy.pursuer_open_loop(up), Strategy.evader_open_loop(ue)


# ---------------------------------------------------------------------------
# deviation analysis


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
    so it is never positive.  Steps split at the knots of ``w``, as in
    ``simulate``.  Returns (gain, completed_square); callers assert their
    agreement and nonpositivity.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (spec.t0 <= a < b <= spec.tf):
        raise ValueError(f"interval {interval} outside the horizon")
    rep, inside = _escape_inside(spec, value_sol, a, b)
    if inside:
        raise InadmissibleInterval(
            f"interval [{a}, {b}) contains an escape at {rep.t_escape:.9g}"
        )
    gap = _gap_flow(spec, value_sol, b)

    # An escape at the interval start gives the error-value flow a simple
    # pole there, or puts it past the blow-up guard at the start.  The
    # square integrand still has a finite limit at the start (the error
    # vanishes linearly while the flow has a simple pole), equal to the raw
    # formula with M e replaced by residue * C w; the start uses that limit.
    n, n_e = spec.n_x, spec.n_e
    residue = np.zeros((n, n))
    pole_at_start = rep.found and (
        rep.t_escape >= a or _flow_norm(gap, a) >= DEFAULT_BLOWUP
    )
    if pole_at_start:
        offset = 1e-6 * (b - a)
        residue = offset * gap.value(rep.t_escape + offset)

    w_fn = _signal(w)
    pursuer_gain, evader_gain = _gain(spec.R_p, spec.B), _gain(spec.R_e, spec.C)

    def system(t, t_in, F, g):
        P = _eval_many(value_sol, t)
        wt = w_fn(t_in, n_e)
        at_start = (t == a) & pole_at_start
        M = np.zeros_like(P)
        M[~at_start] = gap.value(t[~at_start]) + P[~at_start]
        limit = at_start[..., None] * _mv(residue @ spec.C, wt)
        P, wt, M, limit = (x[:, :, None] for x in (P, wt, M, limit))

        def rates(Z):
            gain_rate = _quad(_mv(pursuer_gain @ P, Z), spec.R_p) - _quad(wt, spec.R_e)
            v = wt + _mv(evader_gain, _mv(M, Z) + limit)
            r = np.stack([gain_rate, -_quad(v, spec.R_e)], axis=-1)
            return r, np.empty((len(t), 1, 0))

        F[...] = spec.A + spec.C @ (evader_gain @ P)
        g[...] = _mv(spec.C, wt)
        return rates

    step = float(step) if step is not None else (b - a) / 1000.0
    knots = sorted(k for k in getattr(w, "knots", ()) if a < k < b)
    _, integrals, _ = _rk4(_grid([a, *knots, b], step), np.zeros((1, n)), system)
    gain, square = integrals[-1, 0]
    return float(gain), float(square)


def risky_strategy(
    spec: GameSpec,
    value_sol: RiccatiSolution,
    interval: tuple[float, float],
    scale: float = 1.0,
) -> Strategy:
    """Two-phase deviation for an interval whose error-value flow escapes.

    Phase one injects ``scale`` times the basis input with the strongest
    immediate effect on the state, building estimation error while the
    error-value flow is still undefined; phase two plays the
    gain-maximizing error feedback -R_e^-1 C'M~ e, where M~ is the
    error-value solution truncated a standoff above its escape time (1e-4
    of the time left to the interval end) and frozen below the
    truncation, where the kick ends.  Both phases add to the equilibrium
    feedback, so the play stays affine: K_h = L and K_x = R_e^-1 C'P - L
    with L = R_e^-1 C'M~ after the kick.  The extracted gain grows
    quadratically in ``scale``, which is the working demonstration that an
    inadmissible schedule forfeits any payoff bound.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (spec.t0 <= a < b <= spec.tf):
        raise ValueError(f"interval {interval} outside the horizon")
    rep, inside = _escape_inside(spec, value_sol, a, b)
    if not inside:
        raise IntervalAdmissible(
            f"interval [{a}, {b}) is escape-free; the deviation cannot profit"
        )
    t_star = float(rep.t_escape)
    t_trunc = min(t_star + 1e-4 * max(b - t_star, 1e-12), 0.5 * (t_star + b))
    gap = _gap_flow(spec, value_sol, b)

    col = int(np.argmax(np.linalg.norm(spec.C, axis=0)))
    kick = float(scale) * np.eye(spec.n_e)[col]
    evader_gain = _gain(spec.R_e, spec.C)

    def terms(s: _Stages):
        kicking = (s.t <= t_trunc)[..., None]
        tt = np.clip(s.t, t_trunc, b)
        M = gap.value(tt) + _eval_many(value_sol, tt)
        L = np.where(kicking[..., None], 0.0, evader_gain @ M)
        return s.Ke - L, L, np.where(kicking, kick, 0.0)

    return Strategy("evader", terms)


def deviation_sweep(
    spec: GameSpec,
    c_values,
    *,
    schedule=(),
    pursuer: str = "open_loop",
    step: float | None = None,
    value_sol: RiccatiSolution | None = None,
) -> np.ndarray:
    """Payoffs of the constant evader inputs ``[-c, 0, ...]``, played
    instead of the equilibrium feedback, for each ``c``.

    The pursuer either commits to the open-loop pair or runs the
    certainty-equivalent estimator over ``schedule``.  All deviations run
    as one batch.
    """
    value_sol = value_sol if value_sol is not None else solve_value_riccati(spec)
    direction = np.zeros(spec.n_e)
    direction[0] = -1.0

    if pursuer == "open_loop":
        pursuer_strategy, _ = open_loop_pair(spec, value_sol)
    elif pursuer == "certainty_equivalent":
        pursuer_strategy = Strategy.certainty_equivalent()
    else:
        raise ValueError(f"unsupported pursuer choice {pursuer!r}")

    evaders = [
        Strategy.deviation(float(c) * direction, absolute=True) for c in c_values
    ]
    if not evaders:
        return np.array([])
    _, z, integrals, _, _ = _closed_loop(
        spec, value_sol, schedule, pursuer_strategy, evaders, step
    )
    x_f = z[-1, :, : spec.n_x]
    return integrals[-1, :, 0] + _quad(x_f, spec.Q_f)


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
