"""The game's matrix Riccati flows, their exact backward propagation and
the Maslov count that finds their poles.

Three flows share one quadratic form ``X' + F'X + XF + D + X N X = 0``
run backward from a terminal condition:

* value flow:        F = A, D = Q,  N = evader power - pursuer power,
                     terminal Q_f.  Its solution prices the game and feeds
                     the equilibrium gains.
* gap flow:          F = A, D = -Q, N = -S, terminal -P(t1) at the end of
                     a sensing interval, where S = C R_e^-1 C'.  Drives the
                     scheduler.
* error-value flow:  M = G + P, the gap flow plus the value flow, with
                     terminal 0 at t1.  Prices what the evader can extract
                     from estimation error on one interval, and blows up
                     exactly when the gap flow does.

All coefficients are constant, so X = V U^-1 where [U; V] obeys the linear
flow [U; V]' = H [U; V] with H = [[F, N], [-D, -F']].  The flow has a pole
where the plane of [U; V] meets the vertical plane {U = 0}; ``_Count``
counts those meetings with multiplicity, as the Maslov index of the path
(Robbin and Salamon, Topology 32, 1993), and is the one oracle of poles:
the linear flow has no finite-time singularity.  ``_count`` counts a
problem's flow from its terminal value, for ``solve_riccati`` and the
radon escape detector alike; the solve raises FiniteEscape at its first
pole, and otherwise keeps the count, exact at any time (``eval_solution``).
What needs the flow's plane instead (gap flows' starts, the slack partner,
the transition matrix) reads it off the count too (``_Count.plane``).  Escape times
are resolved to ``TIME_TOL_REL`` of the span.  Everything here works on
the Hamiltonian form; the independent check that integrates the nonlinear
flow itself, the norm escape detector, lives in ``escape``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import EscapeReport, FiniteEscape, OutOfRange
from .game_model import TIME_TOL_REL, GameSpec

STEPS = 1000       # uniform steps of an exact solve's grid
RESIDUAL_SAMPLES = 100  # node intervals whose midpoints ``riccati_residual`` checks
DEGREE = 18  # degree of the Taylor propagator of ``_Count``
MAX_COUNT_POINTS = 10**5  # grid points of one count; a span that needs more is refused


def _sym(X: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix or of each matrix of a stack."""
    return 0.5 * (X + X.swapaxes(-1, -2))


def _powers(E: np.ndarray, m: int) -> np.ndarray:
    """E, E^2, ..., E^m, stacked."""
    return np.stack(list(accumulate([E] * m, np.matmul)))


@dataclass(frozen=True)
class RiccatiProblem:
    """One backward terminal-value problem in the shared quadratic form,
    with constant coefficients."""

    kind: str  # "value" | "gap"
    drift: np.ndarray   # F
    load: np.ndarray    # D
    quad: np.ndarray    # N
    terminal_time: float
    terminal_value: np.ndarray
    n: int

    def rhs(self, t, X: np.ndarray) -> np.ndarray:
        """Time derivative at X; also accepts a stack of matrices."""
        F = self.drift
        return -(F.T @ X + X @ F + self.load + X @ self.quad @ X)

    @property
    def hamiltonian(self) -> np.ndarray:
        """H = [[F, N], [-D, -F']]: X = V U^-1 for [U; V]' = H [U; V]."""
        F = self.drift
        return np.block([[F, self.quad], [-self.load, -F.T]])


def make_value_problem(spec: GameSpec) -> RiccatiProblem:
    return RiccatiProblem(
        kind="value",
        drift=spec.A,
        load=spec.Q,
        quad=spec.controllability_gap(),
        terminal_time=spec.tf,
        terminal_value=_sym(spec.Q_f),
        n=spec.n_x,
    )


def _gap_problem(
    spec: GameSpec, terminal_time: float, terminal_value: np.ndarray
) -> RiccatiProblem:
    """Gap flow ending at ``terminal_value`` at ``terminal_time``."""
    return RiccatiProblem(
        kind="gap",
        drift=spec.A,
        load=-spec.Q,
        quad=-spec.evader_power(),
        terminal_time=float(terminal_time),
        terminal_value=np.array(terminal_value, dtype=float),
        n=spec.n_x,
    )


def make_gap_problem(
    spec: GameSpec, value_sol: "RiccatiSolution", terminal_time: float
) -> RiccatiProblem:
    """Gap flow (error-value minus value) ending at ``terminal_time``,
    where it equals minus the value flow."""
    return _gap_problem(spec, terminal_time, -value_sol.count.value(terminal_time))


@dataclass(frozen=True)
class RiccatiSolution:
    """Backward solution of one flow, read off ``count``, its Maslov count,
    which is exact at any time (``eval_solution``).

    ``grid`` is a strictly decreasing uniform grid from the terminal time
    to the floor, the nodes at which callers tabulate the solution.
    """

    kind: str
    grid: np.ndarray      # strictly decreasing, grid[0] = terminal_time
    terminal_value: np.ndarray
    count: _Count


def _in_range(t, lo, hi) -> np.ndarray:
    """t, or an array of times, clipped to [lo, hi]; raises OutOfRange if
    one is NaN or lies outside by more than 1e-12 of the interval's scale."""
    t = np.asarray(t, dtype=float)
    slack = 1e-12 * max(1.0, abs(hi - lo), abs(hi), abs(lo))
    outside = ~((t >= lo - slack) & (t <= hi + slack))
    if outside.any():
        t_bad = float(np.extract(outside, t)[0])
        raise OutOfRange(f"t={t_bad} outside solved interval [{lo}, {hi}]")
    return np.minimum(np.maximum(t, lo), hi)  # np.clip, with less call overhead


def eval_solution(sol: RiccatiSolution, t) -> np.ndarray:
    """The flow's value V U^-1 at t, or a stack of it at an array of times,
    read off the count; at the terminal time, the terminal value as given."""
    at_end = (np.asarray(t) == sol.grid[0])[..., None, None]
    return np.where(at_end, sol.terminal_value, sol.count.value(t))


def _illinois_steps(a: float, fa: float, b: float, fb: float, tol: float):
    """Root of f between a, where f < 0, and b, where f > 0, by regula
    falsi with the Illinois rule, to 1e-2 of ``tol``: a generator that
    yields each time at which it needs f, is sent f there, and returns
    the root."""
    side = 0
    for _ in range(100):  # converges superlinearly; the cap is a guard
        c = a - fa * (b - a) / (fb - fa)
        if abs(b - a) <= 1e-2 * tol or c in (a, b) or (fc := (yield c)) == 0:
            break
        if fc < 0:
            a, fa, fb, side = c, fc, fb / 2 if side < 0 else fb, -1
        else:
            b, fb, fa, side = c, fc, fa / 2 if side > 0 else fa, 1
    return float(c)


def _illinois(f, brackets) -> list[float]:
    """``_illinois_steps`` for each bracket (a, fa, b, fb, tol), in lock
    step: f(i, c) gives f at the times c of the brackets i still moving,
    in one call for all of them."""
    runs = [_illinois_steps(*map(float, bracket)) for bracket in brackets]
    roots, sent = [0.0] * len(runs), dict.fromkeys(range(len(runs)))
    while sent:
        asked = {}
        for j, fc in sent.items():
            try:
                asked[j] = runs[j].send(fc)
            except StopIteration as stop:
                roots[j] = stop.value
        i = list(asked)
        values = f(np.array(i), np.array(list(asked.values()))) if i else []
        sent = dict(zip(i, np.asarray(values, dtype=float).tolist()))
    return roots


def _orth(Z: np.ndarray) -> np.ndarray:
    """An orthonormal frame of the column span of Z, or of each of a stack."""
    return np.linalg.qr(Z)[0]


def _eigen_angles(Q: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Arguments in (-pi, pi] of the eigenvalues of W = G G' for
    G = (i G_M)^-1 G_Q, with G_Z = U + iV unitary for an orthonormal frame
    Z = [U; V] of a Lagrangian plane (stacks broadcast).  (i G_M)^-1 takes
    M's plane to {U = 0}, which a plane [U; V] meets in ker U, where
    G_Z z = -conj(G_Z) z: so W has the eigenvalue -1 with multiplicity
    dim(Q ∩ M), and its eigenvalues depend on the planes only."""
    n = Q.shape[-1]
    G_M = M[..., :n, :] + 1j * M[..., n:, :]
    G = -1j * G_M.conj().swapaxes(-1, -2) @ (Q[..., :n, :] + 1j * Q[..., n:, :])
    return np.angle(np.linalg.eigvals(G @ G.swapaxes(-1, -2)))


class _Taylor:
    """exp(K dt) for one constant K as sum_j dt^j T_j with T_j = K^j / j!,
    j <= ``DEGREE``, and ||K||_2: ``_Count``'s propagator, exact to
    round-off while ||K dt||_2 <= pi/4.  A game keeps its gap flow's
    (``GameSpec._gap_flow``)."""

    def __init__(self, K: np.ndarray):
        self.K, self.norm = K, np.linalg.norm(K, 2)
        factorials = np.cumprod(np.arange(1.0, DEGREE + 1))[:, None, None]
        self.T = np.reshape([np.eye(len(K)), *_powers(K, DEGREE) / factorials], (DEGREE + 1, -1))

    def __call__(self, dt) -> np.ndarray:
        """exp(K dt), or a stack of it at an array of times, in one product."""
        dt = np.asarray(dt, dtype=float)[..., None]
        # the running product of [1, dt, ..., dt] is [1, dt, ..., dt^DEGREE]
        powers = np.cumprod(np.where(np.arange(DEGREE + 1) == 0, 1.0, dt), axis=-1)
        return (powers @ self.T).reshape(dt.shape[:-1] + self.K.shape)


class _Count:
    """Maslov count of the meetings of two Lagrangian paths on a grid.

    The path Q(s) = exp(K (s - start)) Z0 moves by the constant
    Hamiltonian K; ``partner(s)`` gives frames of the other path M(s) at
    an array of times, moved by a constant Hamiltonian of norm at most
    ``partner_speed`` (an argument of ``_counts``).  With W(s) from
    ``_eigen_angles``, Phi the lift of arg det W and S the sum of the
    arguments of W's eigenvalues, Phi - S jumps by 2 pi exactly where an
    eigenvalue passes -1, so
    N(s) = (Phi(s) - Phi(start) - S(s) + S(start)) / 2 pi is an integer
    that counts the meetings with multiplicity.

    Bound: |Phi'| <= 2n (||K||_2 + partner_speed).  Proof: Gram-Schmidt of
    exp(K s) Z0 gives a frame F = [U; V] with F' = K F - F T for an n x n
    T.  With G = U + iV and J = [[0, I], [-I, 0]],
    Im tr(G^* G') = tr(U^T V' - V^T U') = tr(F^T J F') = tr(F^T J K F),
    since F^T J F = U^T V - V^T U = 0 on a Lagrangian plane.  J K is
    symmetric with ||J K||_2 = ||K||_2, and F has n unit columns, so
    |tr(F^T J K F)| <= n ||K||_2.  As |det G| = 1,
    det W = (-1)^n det(G_Q)^2 / det(G_M)^2, so Phi' = 2 Im tr(G_Q^* G_Q')
    - 2 Im tr(G_M^* G_M'), and W depends on the planes only.  So a spacing
    of pi / (4n (||K||_2 + partner_speed)) keeps every lift step at most
    pi/2, and N_{k+1} - N_k = -round((S_{k+1} - S_k) / 2 pi).  Frames are
    propagated in blocks of 4n steps, which span ||K|| |s| <= pi: each
    block's propagators have condition number at most e^(2 pi).

    ``exp``, the Taylor sum of exp(K dt) to ``DEGREE`` (``_Taylor``), makes
    the grid step and every move within a cell: as |dt| <= |h|, the
    spacing gives x = ||K dt||_2 <= pi/4, so it errs by at most
    x^19 / 19! e^x < 2e-19 for any K, defective or not (Moler and Van
    Loan, SIAM Rev. 45, 2003).
    Outside the span that fails: a time outside it raises OutOfRange.

    Counts are built by ``_counts``, as one batch of counts that share K
    and the partner (a single count is a batch of one), which also finds
    each one's ``first`` meeting.
    """

    def __init__(self, flow: _Taylor, partner, s: np.ndarray, frames, angles):
        self.exp, self.K, self.partner = flow, flow.K, partner
        self.s, self.frames, self.angles = s, frames, angles
        self.h = (s[-1] - s[0]) / (len(s) - 1)  # s[1] - s[0] rounds to their ulp
        self.tol = TIME_TOL_REL * max(abs(s[-1] - s[0]), 1e-12)
        self.S = angles.sum(axis=-1)
        self.N = -np.cumsum(np.rint(np.diff(self.S, prepend=self.S[0]) / (2 * np.pi))).astype(int)
        jumped = np.flatnonzero(self.N)
        # the cell where N first changes, and the first meeting, in it
        self.met_cell = int(jumped[0]) - 1 if jumped.size else None
        self.first: float | None = None

    def _cell(self, s) -> np.ndarray:
        """The grid point that opens the cell of s, or of each of an array;
        raises OutOfRange outside the counted span."""
        s = _in_range(s, *sorted((self.s[0], self.s[-1])))
        return np.minimum(np.maximum((s - self.s[0]) // self.h, 0), len(self.s) - 2).astype(int)

    def _move(self, s, k) -> np.ndarray:
        """exp(K (s - s_k)) times the frame at grid point k, for s and k
        of one shape."""
        return self.exp(s - self.s[k]) @ self.frames[k]

    def plane(self, s) -> np.ndarray:
        """A frame [U; V] of Q's plane at s, or a stack at an array of
        times: the frame that opens the cell of s, moved to s."""
        s = np.asarray(s, dtype=float)
        return self._move(s, self._cell(s))

    def value(self, s) -> np.ndarray:
        """Q's flow V U^-1 at s, or a stack of it at an array of times,
        solved once per distinct time; raises LinAlgError at a pole."""
        s = np.asarray(s, dtype=float)
        times, back = np.unique(s, return_inverse=True)
        UV = self.plane(times).swapaxes(-1, -2)  # [U' V']
        n = UV.shape[-2]
        # the symmetric part of (V U^-1)' is that of V U^-1
        X = _sym(np.linalg.solve(UV[..., :n], UV[..., n:]))
        return X[back].reshape(s.shape + X.shape[1:])

    def _jump(self, s: float, k: int) -> tuple[int, np.ndarray]:
        """Minus the change of N from grid point k to s in its cell, and
        W's eigenvalue arguments at s."""
        a = _angles_at(self.exp, self.partner, s, self.s[k], self.frames[k])
        return int(_turns(a, self.S[k])), a

    def count(self, s: float) -> int:
        """N at s, lifted from the grid point that opens the cell of s."""
        k = int(self._cell(s))
        return int(self.N[k]) - self._jump(s, k)[0]


def _angles_at(flow: _Taylor, partner, s, s_k, frame_k) -> np.ndarray:
    """W's eigenvalue arguments at s, with the frame ``frame_k`` at s_k moved
    to s; for arrays of times and stacks of frames too."""
    return _eigen_angles(_orth(flow(s - s_k) @ frame_k), partner(s))


def _turns(angles: np.ndarray, S_k) -> np.ndarray:
    """Minus the change of N from a grid point with angle sum S_k to where
    W's eigenvalue arguments are ``angles``, within the cell."""
    return np.rint((angles.sum(axis=-1) - S_k) / (2 * np.pi))


def _counts(flow: _Taylor, Z0, starts, ends, partner, partner_speed=0.0) -> list[_Count]:
    """The ``_Count``s of the paths from the frames Z0 (one, or one per
    count) at ``starts`` to ``ends`` against one partner, as one batch.

    Each count gets its own grid and step; the frames then move forward
    block by block in lock step, with one stacked ``_orth`` per block
    (counts that need fewer blocks drop out), and the partner and
    ``_eigen_angles`` are called once over every grid point of the batch.
    The first meetings are refined in lock step too (``_first_meetings``).
    A span that needs ``MAX_COUNT_POINTS`` grid points or more raises
    ValueError before anything is allocated.
    """
    starts, ends = (np.array(x, dtype=float, ndmin=1) for x in (starts, ends))
    if starts.size == 0:
        return []
    n, span = Z0.shape[-1], np.abs(ends - starts)
    cells = np.ceil(span * 4 * n * (flow.norm + partner_speed) / np.pi)
    if not (cells < MAX_COUNT_POINTS).all():
        raise ValueError(
            f"the escape count of a span of {np.extract(~(cells < MAX_COUNT_POINTS), span)[0]:g} "
            f"needs more than {MAX_COUNT_POINTS} grid points"
        )
    cells = np.maximum(cells, 1).astype(int)
    order = np.argsort(-cells, kind="stable")  # the counts still moving are a prefix
    starts, ends, cells = starts[order], ends[order], cells[order]
    steps = _powers(flow((ends - starts) / cells), 4 * n)
    blocks = (-(-cells // (4 * n))).tolist()
    moved = [np.broadcast_to(_orth(Z0), (len(cells), 2 * n, n))[order][None]]
    for j in range(blocks[0]):
        m = sum(b > j for b in blocks)
        moved.append(_orth(steps[:, :m] @ moved[-1][-1, :m]))
    points = (cells + 1).tolist()
    grids = [np.linspace(a, b, k) for a, b, k in zip(starts.tolist(), ends.tolist(), points)]
    frames = [
        np.concatenate([m[:, p] for m in moved[: b + 1]])[:k]
        for p, (b, k) in enumerate(zip(blocks, points))
    ]
    angles = _eigen_angles(np.concatenate(frames), partner(np.concatenate(grids)))
    angles = np.split(angles, np.cumsum(points)[:-1])
    made = [_Count(flow, partner, *c) for c in zip(grids, frames, angles)]
    counts = [made[i] for i in np.argsort(order).tolist()]
    _first_meetings(flow, partner, [c for c in counts if c.met_cell is not None])
    return counts


def _first_meetings(flow: _Taylor, partner, counts: list[_Count]) -> None:
    """Set each count's ``first``, its first meeting: in ``met_cell``, the
    sign change of the angle of W's eigenvalue nearest -1, signed by
    whether N has changed (which flips at a double meeting too), by
    ``_illinois`` over the batch.  At the cell's ends, where N has not
    changed and has, the angles are the grid's."""
    refine, brackets, opens = [], [], []
    for c in counts:
        k = c.met_cell
        fb = np.pi - np.abs(c.angles[k + 1]).max()
        c.first = float(c.s[k + 1])
        if fb > 0:  # else the meeting sits on the grid point
            refine.append(c)
            brackets.append((c.s[k], np.abs(c.angles[k]).max() - np.pi, c.first, fb, c.tol))
            opens.append((c.s[k], c.frames[k], c.S[k]))
    if not refine:
        return
    # the grid point that opens each cell, with its frame and angle sum, stacked
    s_k, frame_k, S_k = map(np.array, zip(*opens))

    def signed_angle(i: np.ndarray, s: np.ndarray) -> list[float]:
        angles = _angles_at(flow, partner, s, s_k[i], frame_k[i])
        turns = _turns(angles, S_k[i]).tolist()
        reach = np.abs(angles).max(axis=-1).tolist()
        return [np.pi - r if t else r - np.pi for r, t in zip(reach, turns)]

    for c, t in zip(refine, _illinois(signed_angle, brackets)):
        c.first = t


def _plane_counts(flow: _Taylor, starts, Z0: np.ndarray, floors) -> list[_Count]:
    """Counts of the linear flow moved by ``flow`` from the frames Z0 at
    ``starts`` ([I; X] for a terminal value X) against the plane [0; I],
    down to ``floors``, as one batch; the first meeting of each is its
    Riccati flow's largest pole."""
    n = Z0.shape[-1]
    V0 = np.eye(2 * n)[:, n:]
    return _counts(flow, Z0, starts, floors, lambda s: V0)


def _count(problem: RiccatiProblem, floor: float) -> _Count:
    """The count of ``problem``'s flow from [I; X1] at its terminal time,
    X1 its terminal value, down to ``floor``: its first meeting is the
    flow's largest pole above the floor."""
    floor = float(floor)
    if not floor < problem.terminal_time:
        raise ValueError("floor must lie below the terminal time")
    Z0 = np.vstack((np.eye(problem.n), problem.terminal_value))
    return _plane_counts(_Taylor(problem.hamiltonian), problem.terminal_time, Z0, floor)[0]


def solve_riccati(problem: RiccatiProblem, floor: float) -> RiccatiSolution:
    """Propagate ``problem`` exactly backward to ``floor``; dense output.

    The flow is counted once (``_count``, as the radon detector counts it):
    it raises FiniteEscape at the count's first meeting when the flow has
    a pole above the floor.  Otherwise the solution keeps the count, the
    terminal value and ``STEPS + 1`` uniform nodes.
    """
    count = _count(problem, floor)
    if count.first is not None:
        raise FiniteEscape(
            f"{problem.kind} flow escaped near t={count.first:.9g}",
            report=EscapeReport(True, count.first),
        )
    grid = np.linspace(problem.terminal_time, float(floor), STEPS + 1)
    return RiccatiSolution(problem.kind, grid, _sym(problem.terminal_value), count)


def solve_value_riccati(spec: GameSpec) -> RiccatiSolution:
    """Value flow from Q_f at tf down to t0."""
    return solve_riccati(make_value_problem(spec), spec.t0)


def riccati_residual(sol: RiccatiSolution, problem: RiccatiProblem) -> float:
    """Max normalized ODE residual at the midpoints of up to
    ``RESIDUAL_SAMPLES`` node intervals, in one batched call: the exact
    derivative X' = (V' - X U') U^-1 of the count's planes, with
    [U'; V'] = H [U; V], against ``problem.rhs`` at X = V U^-1."""
    K = len(sol.grid)
    j = np.unique(np.linspace(0, K - 2, min(RESIDUAL_SAMPLES, K - 1)).round().astype(int))
    tm = 0.5 * (sol.grid[j] + sol.grid[j + 1])
    n, Z = problem.n, sol.count.plane(tm)
    # [U; V; U'; V'] U^-1 = [I; X; U' U^-1; V' U^-1]
    ZZ = np.concatenate([Z, sol.count.K @ Z], axis=-2).swapaxes(-1, -2)
    W = np.linalg.solve(ZZ[..., :n], ZZ).swapaxes(-1, -2)
    X = W[..., n : 2 * n, :]
    res = W[..., 3 * n :, :] - X @ W[..., 2 * n : 3 * n, :] - problem.rhs(tm, X)
    norms = np.linalg.norm(res, axis=(-2, -1)) / (1.0 + np.linalg.norm(X, axis=(-2, -1)))
    return float(np.max(norms, initial=0.0))
