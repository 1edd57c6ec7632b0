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
an affine recurrence z_{k+1} = T_k z_k + c_k.  ``_rk4`` asks for F once
per distinct stage time of a block of K steps, 2K + 1 of them, as stages
two and three share the midpoint and stage four is the next step's
first, and for g at the stages, in one batched call; it runs the short
sequential recurrence, then rebuilds the stage states to evaluate the
quadrature integrands at once.  The built-in strategies feed back 0 or
+-1 times their side's equilibrium gain, so F is formed from B Kp and
C Ke alone, once for all evaders that share their gains; only a play
with gains of its own (the risky deviation) forms its products
explicitly.  The deviation sweep runs as one batch, the deviation gain
check on the estimation error alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

from .errors import InadmissibleInterval, IntervalAdmissible, NegativeBudget
from .escape import _escape_inside
from .game_model import GameSpec
from .riccati import RiccatiSolution, eval_solution, solve_value_riccati

DEFAULT_STEP_REL = 1.0 / 2000.0
MIN_SUBSTEPS = 10
MAX_STEPS = 10**6  # RK4 steps of one run; a step that needs more is refused
BLOCK = 256  # RK4 steps per batched evaluation; bounds the stage arrays


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector products over stacks of matrices and vectors."""
    return np.einsum("...ij,...j->...i", M, v)


def _quad(v: np.ndarray, W: np.ndarray) -> np.ndarray:
    """v'Wv over a stack of vectors."""
    return np.einsum("...i,ij,...j->...", v, W, v)


# ---------------------------------------------------------------------------
# input series


@dataclass(frozen=True)
class InputSeries:
    """Input signal given by its dense evaluator.

    ``dense``, the one way to read the signal, takes an array of times, of
    any shape S, and gives the inputs there, (*S, m); ``knots`` are the
    times where the signal may jump.
    """

    dense: Callable[[np.ndarray], np.ndarray]
    knots: tuple[float, ...] = ()


def piecewise_constant(knots, values) -> InputSeries:
    """Zero-order-hold signal: ``values[k]`` on ``[knots[k], knots[k+1])``."""
    knots = np.asarray(knots, dtype=float)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if len(knots) != len(values):
        raise ValueError("need one value row per knot")
    if not (np.isfinite(knots).all() and (np.diff(knots) > 0).all()):
        raise ValueError(f"knots must be finite and strictly increasing: {knots}")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")

    def dense(t):
        k = np.searchsorted(knots, t, side="right") - 1
        return values[np.clip(k, 0, len(values) - 1)]

    return InputSeries(dense, tuple(knots[1:]))


def _signal(w) -> Callable[["_Stages", int], np.ndarray]:
    """Evaluator (stages, dim) -> (K, 4, dim) at the RK4 stages of a block
    of an input given as None (zero), a constant vector or an InputSeries;
    a series is read once per distinct input time."""
    if w is None:
        return lambda s, dim: np.zeros((*s.at.shape, dim))
    if isinstance(w, InputSeries):
        return lambda s, dim: w.dense(s.t_in)[:, (0, 1, 1, 2)]
    vec = np.asarray(w, dtype=float)
    return lambda s, dim: np.broadcast_to(vec.reshape(dim), (*s.at.shape, dim))


# ---------------------------------------------------------------------------
# strategies


@dataclass(frozen=True, eq=False)
class Strategy:
    """One player's play in affine form, u = K_x(t) x + K_h(t) x_hat + v(t).

    The gains are ``state`` and ``estimate`` times the side's equilibrium
    gain K (Kp = R_p^-1 B'P for the pursuer, Ke = R_e^-1 C'P for the
    evader), and v is the input ``w``: None (zero), a constant vector or an
    InputSeries, whose knots the simulator splits its steps at.  A play
    whose gains are not of that form gives ``terms`` instead, a map from
    times (S,) and K there (S, m, n) to the stacks K_x, K_h (S, m, n) and
    v (S, m) at those times; the simulator calls it once per distinct
    stage time.
    """

    side: str
    state: float = 0.0
    estimate: float = 0.0
    w: object = None
    terms: Callable[[np.ndarray, np.ndarray], tuple] | None = None

    @property
    def knots(self) -> tuple[float, ...]:
        return tuple(getattr(self.w, "knots", ()))

    @staticmethod
    def certainty_equivalent() -> "Strategy":
        """Equilibrium feedback on the estimate."""
        return Strategy("pursuer", estimate=-1.0)

    @staticmethod
    def pursuer_open_loop(u) -> "Strategy":
        return Strategy("pursuer", w=u)

    @staticmethod
    def evader_equilibrium() -> "Strategy":
        return Strategy("evader", state=1.0)

    @staticmethod
    def evader_open_loop(u) -> "Strategy":
        return Strategy("evader", w=u)

    @staticmethod
    def deviation(w) -> "Strategy":
        """Equilibrium feedback plus ``w``."""
        return Strategy("evader", state=1.0, w=w)


def _times(c: float, M):
    """c M, or 0.0 for c = 0: a product a strategy does not have, which
    adds +0 as the zero product it stands for would."""
    return 0.0 if c == 0 else M if c == 1 else c * M


class _Play:
    """The strategies of one side that share their gains, over a block.

    With D the side's input matrix, K its equilibrium gain and ``sign`` +1
    for the pursuer and -1 for the evader, ``X``, ``H`` and ``E`` are
    D(K_x + K_h), D K_h and D(K_x + K_h + sign K) at the block's distinct
    stage times: the terms the gains add to the closed-loop matrix, each
    0.0 where the strategies have no such product.  Equilibrium-gain
    strategies take them from D K alone; ``v`` lists each strategy's input
    at the stages, (K, 4, m).
    """

    def __init__(self, strategies, s: "_Stages", D, K, DK, sign: float):
        self.lead = lead = strategies[0]
        if lead.terms is None:
            a, b = lead.state, lead.estimate
            self.X, self.H, self.E = _times(a + b, DK), _times(b, DK), _times(a + b + sign, DK)
            v = [_signal(strategy.w)(s, K.shape[-2]) for strategy in strategies]
        else:
            Kx, Kh, v = lead.terms(s.t, K)
            KxKh = Kx + Kh
            self.X, self.H = D @ KxKh, D @ Kh
            self.E = D @ (KxKh + K if sign > 0 else KxKh - K)
            self.gains = Kx[s.at][:, :, None], Kh[s.at][:, :, None]
            v = [v[s.at]] * len(strategies)
        self.v = v

    def feedback(self, K, Kx, x, x_hat):
        """K_x x + K_h x_hat at the stage states x and x_hat (K, 4, B, n),
        with K the equilibrium gain at the stages and Kx = K x."""
        if self.lead.terms is not None:
            return _mv(self.gains[0], x) + _mv(self.gains[1], x_hat)
        b = self.lead.estimate
        return _times(self.lead.state, Kx) + (_times(b, _mv(K, x_hat)) if b else 0.0)


# ---------------------------------------------------------------------------
# the RK4 core


def _grid(bounds, step: float):
    """RK4 steps: at least MIN_SUBSTEPS equal steps of at most ``step`` on
    each segment between ``bounds``, then a zero-length step whose start
    is the final node.  Returns each step's start, length and end."""
    if not step > 0:
        raise ValueError("step must be positive")
    too_many = ValueError(f"step {step:g} needs more than {MAX_STEPS} RK4 steps")
    if bounds[-1] - bounds[0] > MAX_STEPS * step:  # which keeps each count finite
        raise too_many
    segments = list(zip(bounds, bounds[1:]))
    counts = [max(MIN_SUBSTEPS, math.ceil((b - a) / step)) for a, b in segments]
    if sum(counts) > MAX_STEPS:
        raise too_many
    t = [a + np.arange(n) * ((b - a) / n) for (a, b), n in zip(segments, counts)]
    h = [np.full(n, (b - a) / n) for (a, b), n in zip(segments, counts)]
    t = np.append(np.concatenate(t), bounds[-1])
    return t, np.append(np.concatenate(h), 0.0), np.append(t[1:], bounds[-1])


@dataclass(frozen=True)
class _Stages:
    """The RK4 stage times of a block of K steps.

    ``t`` (2K + 1,) holds each distinct stage time once: each step's start
    and midpoint, then the end of the block.  ``at`` (K, 4) indexes each
    step's four stages in it, as stages two and three share the midpoint
    and stage four is the next step's start.  ``t_in`` (K, 3) holds each
    step's distinct input times: its start, its midpoint and the left
    limit of its end, so a step never samples the next piece of a
    zero-order hold.  A series reads them as this stack, one small
    product per step, and not flattened: one long product rounds by
    its row count.
    """

    t: np.ndarray
    at: np.ndarray
    t_in: np.ndarray

    @staticmethod
    def of(t, h, end) -> "_Stages":
        mid = t + 0.5 * h
        return _Stages(
            np.append(np.column_stack([t, mid]).ravel(), end[-1]),
            2 * np.arange(len(t))[:, None] + (0, 1, 1, 2),
            np.stack([t, mid, np.nextafter(end, -np.inf)], axis=1),
        )


def _rk4(grid, z0: np.ndarray, system, events=(), reset=slice(0)):
    """Classical RK4 for z' = F(t) z + g(t) on a ``_grid``, BLOCK steps at
    a time.

    ``system(s)`` gets a block's ``_Stages`` and returns F (2K + 1, B or 1,
    m, m) at its distinct stage times ``s.t``, g (K, 4, B, m) at its
    stages, and ``rates``, a map from the stage states (K, 4, B, m) to the
    quadrature integrands (K, 4, B, q) and to outputs at the step starts
    (K, B, p).  F is spread to the four stages by ``s.at``, so whatever
    depends on time alone is evaluated once per distinct time, and inputs
    once per distinct input time ``s.t_in``.  ``z0`` is (B, m); a step
    that starts at one of ``events`` first zeroes the coordinates in the
    slice ``reset``.  Returns the states, integrals and outputs at each
    node.
    """
    n_batch, m = z0.shape
    # homogeneous coordinates: [z; 1]' = [[F, g], [0, 0]] [z; 1]
    z = np.append(z0, np.ones((n_batch, 1)), axis=1)[..., None]
    resets = np.isin(grid[0], list(events))
    nodes, increments, outputs = [], [], []
    for lo in range(0, len(grid[0]), BLOCK):
        t, h, end = (a[lo : lo + BLOCK] for a in grid)
        K = len(t)
        s = _Stages.of(t, h, end)
        F, g, rates = system(s)
        G = np.zeros((K, 4, n_batch, m + 1, m + 1))
        G[..., :m, :m] = F[s.at]
        G[..., :m, m] = g
        # stage slopes are K_i z, K_1 = G_1 and K_i = G_i (I + c_i h K_{i-1}),
        # so a step maps z to T z with T = I + h/6 (K_1 + 2K_2 + 2K_3 + K_4)
        # (in place: the stacks are large, and fresh arrays cost more than
        # the arithmetic)
        hk = h[:, None, None, None]
        k = G[:, 0]
        T = k.copy()
        for i, (c, weight) in enumerate(((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)), 1):
            k = G[:, i] @ k
            k *= c * hk
            k += G[:, i]
            T += weight * k
        T *= hk / 6.0
        T += np.eye(m + 1)

        starts = np.empty((K + 1, n_batch, m + 1, 1))
        starts[0] = z
        # a batch of one steps by np.dot on 2-D slices, the product matmul
        # forms too, at a fraction of a ufunc call's cost
        if n_batch == 1:
            steps, S, product = T[:, 0], list(starts[:, 0]), np.dot
        else:
            steps, S, product = T, list(starts), np.matmul
        jumps = set(np.flatnonzero(resets[lo : lo + K]).tolist())
        for j, step in enumerate(steps):
            if j in jumps:
                S[j][..., reset, :] = 0.0
            product(step, S[j], out=S[j + 1])
        z = starts[K]

        hk = h[:, None, None]
        Z = np.empty((K, 4, n_batch, m + 1))
        Z[:, 0] = starts[:K, ..., 0]
        for i, c in enumerate((0.5, 0.5, 1.0)):
            slope = _mv(G[:, i], Z[:, i])
            slope *= c * hk
            np.add(Z[:, 0], slope, out=Z[:, i + 1])
        r, out = rates(Z[..., :m])
        increments.append((hk / 6.0) * (r[:, 0] + 2 * r[:, 1] + 2 * r[:, 2] + r[:, 3]))
        nodes.append(starts[:K, :, :m, 0])
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
    which tracks the state keeps e exactly zero; each instant zeroes e.
    Returns the node times, z (S, B, 2n), the three payoff integrals
    (S, B, 3), the inputs [u_p, u_e] (S, B, n_p + n_e) and the instants.
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
    # evaders that share their gains form a group, with one play and one
    # closed-loop matrix; a single group is the batch as it stands
    groups = {}
    for j, evader in enumerate(evaders):
        groups.setdefault((evader.state, evader.estimate, evader.terms), []).append(j)
    groups = list(groups.values())
    mixed = len(groups) > 1
    members = groups if mixed else [slice(None)]
    order = np.argsort(np.concatenate(groups))
    group_of = np.repeat(np.arange(len(groups)), [len(g) for g in groups])[order]

    def batch(parts):
        """Per-group stacks (K, 4, B_g, d) as one (K, 4, B, d), in evader order."""
        return np.concatenate(parts, axis=2)[:, :, order] if mixed else parts[0]

    def system(s):
        P = eval_solution(value_sol, s.t)
        Kp, Ke = spec._gains[0] @ P, spec._gains[1] @ P
        BKp, CKe = B @ Kp, C @ Ke
        pursuit = _Play([pursuer], s, B, Kp, BKp, 1.0)
        evasions = [_Play([evaders[j] for j in g], s, C, Ke, CKe, -1.0) for g in groups]
        F = np.empty((len(s.t), len(evasions), 2 * n, 2 * n))
        drift = A - BKp + CKe
        for k, evasion in enumerate(evasions):
            F[:, k, :n, n:] = -(pursuit.H + evasion.H)
            F[:, k, :n, :n] = A + pursuit.X + evasion.X
            F[:, k, n:, :n] = pursuit.E + evasion.E
            F[:, k, n:, n:] = drift + F[:, k, :n, n:]
        Kp, Ke = Kp[s.at][:, :, None], Ke[s.at][:, :, None]
        # the pursuer's input is one for the batch, the evaders' one each
        vp, ve = pursuit.v[0][:, :, None], [np.stack(e.v, axis=2) for e in evasions]

        def rates(Z):
            x, x_hat = Z[..., :n], Z[..., :n] - Z[..., n:]
            Kp_x, Ke_x = _mv(Kp, x), _mv(Ke, x)
            u_p = pursuit.feedback(Kp, Kp_x, x, x_hat) + vp
            u_e = batch([
                evasion.feedback(Ke, Ke_x[:, :, j], x[:, :, j], x_hat[:, :, j]) + v
                for evasion, v, j in zip(evasions, ve, members)
            ])
            cost = _quad(x, spec.Q) + _quad(u_p, spec.R_p) - _quad(u_e, spec.R_e)
            cs_p = _quad(u_p + Kp_x, spec.R_p)
            cs_e = _quad(u_e - Ke_x, spec.R_e)
            u_p = np.broadcast_to(u_p[:, 0], (len(u_p), n_batch, spec.n_p))
            inputs = np.concatenate([u_p, u_e[:, 0]], axis=-1)
            return np.stack([cost, cs_p, cs_e], axis=-1), inputs

        g = np.tile(_mv(B, vp) + _mv(C, batch(ve)), 2)
        return (F[:, group_of] if mixed else F), g, rates

    z0 = np.tile(np.append(spec.x0, np.zeros(n)), (n_batch, 1))
    z, integrals, inputs = _rk4(grid, z0, system, instants, slice(n, 2 * n))
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
    completed = game_value(spec, value_sol) + traj.cs_pursuer[-1] - traj.cs_evader[-1]
    return traj.payoff_direct, float(completed)


def game_value(spec: GameSpec, value_sol: RiccatiSolution) -> float:
    """Payoff under mutual equilibrium play, x0'P(t0)x0."""
    P0 = eval_solution(value_sol, spec.t0)
    return float(spec.x0 @ P0 @ spec.x0)


# ---------------------------------------------------------------------------
# open-loop pair


def _equilibrium_flow(value_sol: RiccatiSolution, x0: np.ndarray):
    """[x; P x](t) of mutual equilibrium play from the columns of ``x0`` at
    t0, at a time or a stack of it at an array of times.

    The play drives the state with A + (C R_e^-1 C' - B R_p^-1 B') P, the U
    block of the value flow's linear representation, so [x; P x](t) =
    [U; V](t) U(t0)^-1 x0 = exp(H (t - s_k)) F_k c_k, with F_k the value
    count's frame at the grid point s_k that opens the cell of t.  At t0,
    the last point, c_K = U_K^-1 x0 with U_K the top block of F_K; each c_k
    above is F_{k+1}, moved up one cell and projected onto F_k, times c_{k+1}.
    """
    count = value_sol.count
    up = count.frames[:-1].swapaxes(-1, -2) @ count.exp(-count.h) @ count.frames[1:]
    last = np.linalg.solve(count.frames[-1][: len(x0)], x0)
    coeffs = np.stack(list(accumulate(up[::-1], lambda c, step: step @ c, initial=last))[::-1])

    def flow(t) -> np.ndarray:
        k = count._cell(t)
        return count._move(t, k) @ coeffs[k]

    return flow


def transition_flow(spec: GameSpec, value_sol: RiccatiSolution):
    """Dense state-transition matrix Phi(t, t0) of mutual equilibrium play:
    ``_equilibrium_flow`` from the identity, exact at every time."""
    flow = _equilibrium_flow(value_sol, np.eye(spec.n_x))
    return lambda t: flow(t)[..., : spec.n_x, :]


def open_loop_inputs(
    spec: GameSpec, value_sol: RiccatiSolution
) -> tuple[InputSeries, InputSeries]:
    """Equilibrium inputs precomputed from the initial state alone.

    Matches the feedback pair along the mutual-equilibrium trajectory but
    depends only on time, so either player can commit to it offline.  Both
    read P x(t) off ``_equilibrium_flow``.
    """
    flow = _equilibrium_flow(value_sol, spec.x0[:, None])

    def series(gain) -> InputSeries:
        return InputSeries(lambda t: (gain @ flow(t)[..., spec.n_x :, :])[..., 0])

    return series(-spec._gains[0]), series(spec._gains[1])


def open_loop_pair(
    spec: GameSpec, value_sol: RiccatiSolution
) -> tuple[Strategy, Strategy]:
    """Both players committed to the precomputed equilibrium inputs."""
    up, ue = open_loop_inputs(spec, value_sol)
    return Strategy.pursuer_open_loop(up), Strategy.evader_open_loop(ue)


# ---------------------------------------------------------------------------
# deviation analysis


def _counted_gap(spec: GameSpec, value_sol: RiccatiSolution, interval, escapes: bool):
    """The bounds a < b of ``interval``, its gap flow G's largest pole at
    or above a (or None), and G as counted to check the interval: the
    error-value flow is M = G.value + P.  Raises InadmissibleInterval if
    the interval holds an escape and ``escapes`` is false, and
    IntervalAdmissible if it holds none and ``escapes`` is true."""
    a, b = float(interval[0]), float(interval[1])
    if not (spec.t0 <= a < b <= spec.tf):
        raise ValueError(f"interval {interval} outside the horizon")
    ((inside, pole, gap),) = _escape_inside(spec, value_sol, a, b)
    if inside and not escapes:
        raise InadmissibleInterval(f"interval [{a}, {b}) contains an escape at {pole:.9g}")
    if escapes and not inside:
        raise IntervalAdmissible(
            f"interval [{a}, {b}) is escape-free; the deviation cannot profit"
        )
    return a, b, pole, gap


def deviation_gain_check(
    spec: GameSpec,
    value_sol: RiccatiSolution,
    interval: tuple[float, float],
    w,
) -> tuple[float, float]:
    """Net evader gain from a deviation on one escape-free interval,
    evaluated two ways.

    The evader plays its equilibrium feedback plus ``w`` while the pursuer
    feeds back on its estimate; the estimation error then obeys
    e' = (A + C R_e^-1 C'P) e + C w with e = 0 at the interval start. The
    gain int (|e|^2_{P B R_p^-1 B' P} - |w|^2_{R_e}) dt collapses, by the
    error-value flow M of the interval, to -int |w + R_e^-1 C'M e|^2_{R_e} dt,
    so it is never positive; M = G + P comes from the count of the gap
    flow G that certifies the interval.  The steps, (b - a) / 1000 at most,
    split at the knots of ``w``, as in ``simulate``.  Returns (gain,
    completed_square); callers assert their agreement and nonpositivity.
    """
    a, b, pole, gap = _counted_gap(spec, value_sol, interval, escapes=False)

    # An escape at the interval start (a pole within the boundary
    # tolerance of it) gives the error-value flow a simple pole there.  The
    # square integrand still has a finite limit at the start (the error
    # vanishes linearly while the flow has a simple pole), equal to the raw
    # formula with M e replaced by residue * C w; the start uses that limit.
    n, n_e = spec.n_x, spec.n_e
    residue = np.zeros((n, n))
    pole_at_start = pole is not None
    if pole_at_start:
        offset = 1e-6 * (b - a)
        residue = offset * gap.value(pole + offset)

    w_fn = _signal(w)
    pursuer_gain, evader_gain = spec._gains

    def system(s):
        P = eval_solution(value_sol, s.t)
        at_start = (s.t == a) & pole_at_start
        M = np.zeros_like(P)
        M[~at_start] = gap.value(s.t[~at_start]) + P[~at_start]
        F = spec.A + spec.C @ (evader_gain @ P)
        wt = w_fn(s, n_e)
        limit = at_start[s.at][..., None] * _mv(residue @ spec.C, wt)
        Kp, M, wt, limit = (
            x[:, :, None] for x in ((pursuer_gain @ P)[s.at], M[s.at], wt, limit)
        )

        def rates(Z):
            gain_rate = _quad(_mv(Kp, Z), spec.R_p) - _quad(wt, spec.R_e)
            v = wt + _mv(evader_gain, _mv(M, Z) + limit)
            r = np.stack([gain_rate, -_quad(v, spec.R_e)], axis=-1)
            return r, np.empty((len(s.at), 1, 0))

        return F[:, None], _mv(spec.C, wt), rates

    knots = sorted(k for k in getattr(w, "knots", ()) if a < k < b)
    _, integrals, _ = _rk4(_grid([a, *knots, b], (b - a) / 1000.0), np.zeros((1, n)), system)
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
    inadmissible schedule forfeits any payoff bound.  M = G + P and the
    escape time come from the one count of the interval's gap flow G.
    """
    a, b, t_star, gap = _counted_gap(spec, value_sol, interval, escapes=True)
    t_trunc = min(t_star + 1e-4 * max(b - t_star, 1e-12), 0.5 * (t_star + b))

    col = int(np.argmax(np.linalg.norm(spec.C, axis=0)))
    kick = float(scale) * np.eye(spec.n_e)[col]
    evader_gain = spec._gains[1]

    def terms(t, Ke):
        kicking = (t <= t_trunc)[..., None]
        tt = np.clip(t, t_trunc, b)
        M = gap.value(tt) + eval_solution(value_sol, tt)
        L = np.where(kicking[..., None], 0.0, evader_gain @ M)
        return Ke - L, L, np.where(kicking, kick, 0.0)

    return Strategy("evader", terms=terms)


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

    evaders = [Strategy.evader_open_loop(float(c) * direction) for c in c_values]
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
