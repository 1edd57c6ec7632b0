"""The game's matrix Riccati flows and their exact backward propagation.

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
flow [U; V]' = H [U; V] with H = [[F, N], [-D, -F']].  ``solve_riccati``
propagates it exactly on a uniform grid with the powers of one matrix
exponential, restarting from [I; X] once per block of steps to keep U well
conditioned (Davison and Maki, IEEE TAC 1973), and stores node derivatives
for cubic-Hermite dense output; a node past the blow-up guard
``DEFAULT_BLOWUP`` counts as a pole.  The adaptive Dormand-Prince 4(5)
integrator below stays as an independent check: the norm escape detector
runs on it, with the fixed tolerances ``RTOL`` and ``ATOL`` and steps
between ``H_MIN_REL`` and ``H_MAX_REL`` of the span.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np
import scipy.linalg as la

from .errors import EscapeReport, FiniteEscape, OutOfRange, StepUnderflow
from .game_model import GameSpec

DEFAULT_BLOWUP = 1e9  # spectral-norm guard at which an exact solve has escaped
STEPS = 1000       # uniform steps of an exact solve
# adaptive integrator: error tolerances, and the largest and smallest step
# relative to the span
RTOL = 1e-10
ATOL = 1e-13
H_MAX_REL = 1e-3
H_MIN_REL = 1e-12


def _sym(X: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix or of each matrix of a stack."""
    return 0.5 * (X + X.swapaxes(-1, -2))


def _guard_norm(X: np.ndarray, threshold: float) -> np.ndarray:
    """Spectral norm of a matrix, or of each of a stack, evaluated exactly
    only where the cheap Frobenius bound says the threshold could be
    crossed; not finite where X is not."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.array(np.linalg.norm(X, axis=(-2, -1)))  # ||X||_2 <= ||X||_F
    over = np.isfinite(norm) & (norm >= threshold)
    if over.any():
        norm[over] = np.linalg.norm(X[over], 2, axis=(-2, -1))
    return norm


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
    return _gap_problem(
        spec, terminal_time, -eval_solution(value_sol, terminal_time)
    )


@dataclass(frozen=True)
class RiccatiSolution:
    """Dense backward solution on a strictly decreasing uniform grid.

    ``values[k]`` and ``derivs[k]`` hold the matrix and its time
    derivative at ``grid[k]``; evaluation between nodes is cubic Hermite.
    ``steps[k]`` is the U factor of the exact step from ``grid[k]`` down
    to ``grid[k + 1]``: it maps the U block of the linear flow there.
    """

    kind: str
    grid: np.ndarray      # strictly decreasing, grid[0] = terminal_time
    values: np.ndarray    # (K, n, n)
    derivs: np.ndarray    # (K, n, n)
    steps: np.ndarray     # (K - 1, n, n)


def _segment(grid: np.ndarray, t):
    """Storage index j of the node interval [grid[j+1], grid[j]] holding
    t, the position s in [0, 1] from its lower end, and its length; t may
    be an array of times."""
    asc_t = grid[::-1]
    k_asc = np.searchsorted(asc_t, t, side="right") - 1
    j = len(grid) - 2 - np.clip(k_asc, 0, len(asc_t) - 2)
    h = grid[j] - grid[j + 1]
    return j, (t - grid[j + 1]) / h, h


def _hermite(grid, values, derivs, t) -> np.ndarray:
    """Cubic-Hermite interpolant of node values and derivatives on a
    decreasing grid; exact at the nodes.  A time gives one matrix, an
    array of times a stack of them."""
    t = np.asarray(t, dtype=float)
    lo, hi = float(grid[-1]), float(grid[0])
    slack = 1e-12 * max(1.0, abs(hi - lo), abs(hi), abs(lo))
    outside = (t < lo - slack) | (t > hi + slack)
    if outside.any():
        t_bad = float(np.extract(outside, t)[0])
        raise OutOfRange(f"t={t_bad} outside solved interval [{lo}, {hi}]")
    j, s, h = _segment(grid, np.clip(t, lo, hi))
    s, h = s[..., None, None], h[..., None, None]
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return (
        h00 * values[j + 1]
        + h10 * h * derivs[j + 1]
        + h01 * values[j]
        + h11 * h * derivs[j]
    )


def _eval_many(sol: RiccatiSolution, t) -> np.ndarray:
    """``eval_solution`` at an array of times in one batched call."""
    return _sym(_hermite(sol.grid, sol.values, sol.derivs, t))


def eval_solution(sol: RiccatiSolution, t: float) -> np.ndarray:
    """Cubic-Hermite interpolant; exact at grid nodes, symmetrized."""
    return _eval_many(sol, t)


def _eval_derivative(sol: RiccatiSolution, t: float) -> np.ndarray:
    """Time derivative of the Hermite interpolant (for residual checks)."""
    j, s, h = _segment(sol.grid, t)
    y0, y1 = sol.values[j + 1], sol.values[j]
    f0, f1 = sol.derivs[j + 1], sol.derivs[j]
    d00 = 6 * s * (s - 1) / h
    d10 = (3 * s - 1) * (s - 1)
    d01 = -6 * s * (s - 1) / h
    d11 = s * (3 * s - 2)
    return d00 * y0 + d10 * f0 + d01 * y1 + d11 * f1


def _dp_step(rhs, t, X, h):
    k1 = rhs(t, X)
    k2 = rhs(t + 0.2 * h, X + h * (0.2 * k1))
    k3 = rhs(t + 0.3 * h, X + h * (0.075 * k1 + 0.225 * k2))
    k4 = rhs(
        t + 0.8 * h,
        X + h * ((44 / 45) * k1 + (-56 / 15) * k2 + (32 / 9) * k3),
    )
    k5 = rhs(
        t + (8 / 9) * h,
        X
        + h
        * (
            (19372 / 6561) * k1
            + (-25360 / 2187) * k2
            + (64448 / 6561) * k3
            + (-212 / 729) * k4
        ),
    )
    k6 = rhs(
        t + h,
        X
        + h
        * (
            (9017 / 3168) * k1
            + (-355 / 33) * k2
            + (46732 / 5247) * k3
            + (49 / 176) * k4
            + (-5103 / 18656) * k5
        ),
    )
    X5 = X + h * (
        (35 / 384) * k1
        + (500 / 1113) * k3
        + (125 / 192) * k4
        + (-2187 / 6784) * k5
        + (11 / 84) * k6
    )
    k7 = rhs(t + h, X5)
    err = h * (
        (71 / 57600) * k1
        + (-71 / 16695) * k3
        + (71 / 1920) * k4
        + (-17253 / 339200) * k5
        + (22 / 525) * k6
        + (-1 / 40) * k7
    )
    return X5, err


def _integrate_backward(
    rhs,
    t_start: float,
    X_start: np.ndarray,
    floor: float,
    span_hint: float | None = None,
):
    """Yield the accepted nodes (t, X) of an adaptive backward march from
    (t_start, X_start) down to ``floor``, the start first and the floor
    last; the caller stops it where it likes.

    Steps lie between ``H_MIN_REL`` and ``H_MAX_REL`` of the span, which
    is ``t_start - floor`` unless ``span_hint`` gives it.  Every node is
    finite.  Raises StepUnderflow when the step falls below the least.
    """
    span = span_hint if span_hint is not None else max(t_start - floor, 1e-300)
    h_max, h_min = H_MAX_REL * span, H_MIN_REL * span
    time_eps = 1e-14 * max(1.0, abs(t_start), abs(floor))

    t = float(t_start)
    X = _sym(np.array(X_start, dtype=float))
    yield t, X

    h = min(h_max, t_start - floor)
    while t - floor > time_eps:
        h_try = min(h, t - floor)
        last = abs((t - h_try) - floor) <= time_eps
        with np.errstate(over="ignore", invalid="ignore"):
            X_new, err = _dp_step(rhs, t, X, -h_try)
        finite = bool(np.isfinite(X_new).all() and np.isfinite(err).all())
        if finite:
            denom = ATOL + RTOL * np.maximum(np.abs(X), np.abs(X_new))
            enorm = float(np.sqrt(np.mean((err / denom) ** 2)))
        else:
            enorm = np.inf

        if enorm <= 1.0:
            t = floor if last else t - h_try
            X = _sym(X_new)
            yield t, X
            grow = 5.0 if enorm == 0.0 else min(5.0, 0.9 * enorm ** -0.2)
            h = min(h_try * max(grow, 0.2), h_max)
        else:
            shrink = 0.2 if not np.isfinite(enorm) else max(0.2, 0.9 * enorm ** -0.2)
            h = h_try * min(shrink, 0.9)
            if h < h_min:
                raise StepUnderflow(
                    f"step {h:.3e} below h_min {h_min:.3e} at t={t} "
                    f"(norm {np.linalg.norm(X, 2):.3e})"
                )


def _restart(E: np.ndarray, X: np.ndarray, n: int):
    """One exact step from [I; X] with the propagator E.

    Returns the step's U factor and the flow value V U^-1 there, or None
    for the value when U is singular or the value is past the blow-up
    guard."""
    Z = E[:, :n] + E[:, n:] @ X
    U = Z[:n]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            X_new = _sym(np.linalg.solve(U.T, Z[n:].T).T)
    except np.linalg.LinAlgError:
        return U, None
    if _guard_norm(X_new, DEFAULT_BLOWUP) < DEFAULT_BLOWUP:
        return U, X_new
    return U, None


def _crosses_pole(U: np.ndarray) -> np.ndarray:
    """Whether a step's U factor (or each of a stack) has a real
    eigenvalue at or below zero.

    U starts from I and is singular exactly at a pole, where eigenvalues
    pass through zero; so a step that jumps a pole ends with a negative
    real eigenvalue, even at a double root, across which det U keeps its
    sign."""
    w = np.linalg.eigvals(U)
    return ((w.imag == 0) & (w.real <= 0)).any(axis=-1)


def _escape_in_step(problem: RiccatiProblem, X: np.ndarray, t: float, h: float):
    """Bracket the pole below the node (t, X) inside one step of length h
    by bisection on the step length."""
    H, n = problem.hamiltonian, problem.n
    lo, hi = 0.0, h
    for _ in range(60):  # down to round-off in the step length
        mid = 0.5 * (lo + hi)
        U, X_mid = _restart(la.expm(-H * mid), X, n)
        if X_mid is None or _crosses_pole(U):
            hi = mid
        else:
            lo = mid
    return t - hi, t - lo


def _first(flags: np.ndarray) -> int:
    """Index of the first true flag, or the number of flags."""
    return int(np.argmax(flags)) if flags.any() else len(flags)


def _block(powers: np.ndarray, X: np.ndarray, n: int):
    """Exact steps from the node value X with the propagators E^1 ... E^m.

    With [U_j; V_j] = E^j [I; X], returns the node values V_j U_j^-1 and
    the step factors U_j U_{j-1}^-1 (U_0 = I), each from one batched
    solve, and the number of steps before the first that ends on or past a
    pole: where U_j is singular, the node is not finite or is past the
    blow-up guard, or the factor crosses a pole."""
    Z = powers[:, :, :n] + powers[:, :, n:] @ X
    U = Z[:, :n].swapaxes(-1, -2)  # the U_j, transposed
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = _sym(np.linalg.solve(U, Z[:, n:].swapaxes(-1, -2)))
    except np.linalg.LinAlgError:  # a zero pivot: cut the block before it
        return _block(powers[: min(_first(np.linalg.det(U) == 0), len(U) - 1)], X, n)
    good = _first(~(_guard_norm(values, DEFAULT_BLOWUP) < DEFAULT_BLOWUP))
    U_prev = np.concatenate((np.eye(n)[None], U[:-1]))[:good]
    factors = np.linalg.solve(U_prev, U[:good]).swapaxes(-1, -2)
    return values, factors, _first(_crosses_pole(factors))


def solve_riccati(problem: RiccatiProblem, floor: float) -> RiccatiSolution:
    """Propagate ``problem`` exactly backward to ``floor``; dense output.

    The grid has ``STEPS`` uniform steps of length h.  With E = exp(-H h),
    the blocks of B steps restart from [I; X] at their first node and
    reach each of their nodes with a power of E (``_block``).  B is the
    least of pi / (||H||_2 h) and ceil(sqrt(STEPS)), and at least 1: the
    first keeps each block's propagators within condition number
    e^(2 pi), and the second balances building the powers against the
    calls per block.

    Raises FiniteEscape when the flow has a pole above the floor; the
    first step that ends on or past one is bisected by ``_escape_in_step``.
    """
    t1 = problem.terminal_time
    floor = float(floor)
    if not floor < t1:
        raise ValueError("floor must lie below the terminal time")
    n = problem.n
    h = (t1 - floor) / STEPS
    H = problem.hamiltonian
    with np.errstate(divide="ignore"):
        block = int(max(1, min(np.ceil(np.sqrt(STEPS)), np.pi / (la.norm(H, 2) * h))))
    powers = _powers(la.expm(-H * h), block)
    grid = np.linspace(t1, floor, STEPS + 1)
    values = np.empty((STEPS + 1, n, n))
    steps = np.empty((STEPS, n, n))
    values[0] = _sym(problem.terminal_value)
    for k in range(0, STEPS, block):
        m = min(block, STEPS - k)
        X, factors, good = _block(powers[:m], values[k], n)
        values[k + 1 : k + 1 + good] = X[:good]
        steps[k : k + good] = factors[:good]
        if good < m:
            break
    else:
        return RiccatiSolution(
            kind=problem.kind,
            grid=grid,
            values=values,
            derivs=problem.rhs(grid, values),
            steps=steps,
        )
    k += good
    lo, hi = _escape_in_step(problem, values[k], float(grid[k]), h)
    report = EscapeReport(
        found=True,
        t_escape=0.5 * (lo + hi),
        bracket=(lo, hi),
        method="radon_determinant",
        norm_at_detection=None,
        floor=floor,
        terminal_time=t1,
    )
    raise FiniteEscape(
        f"{problem.kind} flow escaped near t={report.t_escape:.9g}",
        report=report,
    )


def solve_value_riccati(spec: GameSpec) -> RiccatiSolution:
    """Value flow from Q_f at tf down to t0."""
    return solve_riccati(make_value_problem(spec), spec.t0)


def riccati_residual(
    sol: RiccatiSolution, problem: RiccatiProblem, samples: int = 100
) -> float:
    """Max normalized ODE residual of the interpolant at interval midpoints."""
    K = len(sol.grid)
    idx = np.unique(np.linspace(0, K - 2, min(samples, K - 1)).round().astype(int))
    worst = 0.0
    for j in idx:
        tm = 0.5 * (sol.grid[j] + sol.grid[j + 1])
        X = eval_solution(sol, tm)
        dX = _eval_derivative(sol, tm)
        res = dX - problem.rhs(tm, X)
        worst = max(
            worst, float(np.linalg.norm(res) / (1.0 + np.linalg.norm(X)))
        )
    return worst
