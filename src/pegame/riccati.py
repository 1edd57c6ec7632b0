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
propagates it exactly on a uniform grid with one matrix exponential,
restarting from [I; X] at every node to keep U well conditioned (Davison
and Maki, IEEE TAC 1973), and stores node derivatives for cubic-Hermite
dense output.  The adaptive Dormand-Prince 4(5) integrator below stays as
an independent check: the norm blow-up escape detector runs on it, with
the fixed tolerances ``RTOL`` and ``ATOL``, steps between ``H_MIN_REL``
and ``H_MAX_REL`` of the span, and the blow-up guard ``DEFAULT_BLOWUP``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import FiniteEscape, OutOfRange, StepUnderflow
from .game_model import GameSpec

DEFAULT_BLOWUP = 1e9  # spectral-norm guard above which a flow has escaped
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


def _guard_norm(X: np.ndarray, threshold: float) -> float:
    """Spectral norm, evaluated exactly only when the cheap Frobenius
    bound says the threshold could be crossed."""
    fro = float(np.linalg.norm(X))
    if fro < threshold:
        return fro  # ||X||_2 <= ||X||_F, cannot have crossed
    return float(np.linalg.norm(X, 2))


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


@dataclass(frozen=True)
class IntegrationRun:
    """Raw backward-integration record of the adaptive integrator."""

    ts: np.ndarray
    xs: np.ndarray
    fs: np.ndarray
    status: str                 # "reached" | "blowup"
    t_trip: float | None
    norm_trip: float | None


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
) -> IntegrationRun:
    """March backward from (t_start, X_start) toward ``floor``.

    Stops early with status "blowup" when the spectral norm crosses the
    guard, or when the pole squeezes the step below h_min while the norm
    already exceeds sqrt(guard).  Every recorded node is finite and below
    the guard.
    """
    span = span_hint if span_hint is not None else max(t_start - floor, 1e-300)
    h_max, h_min = H_MAX_REL * span, H_MIN_REL * span
    time_eps = 1e-14 * max(1.0, abs(t_start), abs(floor))

    t = float(t_start)
    X = _sym(np.array(X_start, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        f = rhs(t, X)
    ts = [t]
    xs = [X]
    fs = [f]
    status = "reached"
    t_trip = norm_trip = None

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
            nrm = _guard_norm(X, DEFAULT_BLOWUP)
            if nrm >= DEFAULT_BLOWUP:
                status = "blowup"
                t_trip = t
                norm_trip = nrm
                break
            with np.errstate(over="ignore", invalid="ignore"):
                f = rhs(t, X)
            ts.append(t)
            xs.append(X)
            fs.append(f)
            grow = 5.0 if enorm == 0.0 else min(5.0, 0.9 * enorm ** -0.2)
            h = min(h_try * max(grow, 0.2), h_max)
        else:
            shrink = 0.2 if not np.isfinite(enorm) else max(0.2, 0.9 * enorm ** -0.2)
            h = h_try * min(shrink, 0.9)
            if h < h_min:
                nrm = _guard_norm(X, DEFAULT_BLOWUP)
                if nrm >= np.sqrt(DEFAULT_BLOWUP):
                    # The pole itself is strangling the step: count it as escape.
                    status = "blowup"
                    t_trip = t
                    norm_trip = nrm
                    break
                raise StepUnderflow(
                    f"step {h:.3e} below h_min {h_min:.3e} at t={t} (norm {nrm:.3e})"
                )

    return IntegrationRun(
        ts=np.array(ts),
        xs=np.array(xs),
        fs=np.array(fs),
        status=status,
        t_trip=t_trip,
        norm_trip=norm_trip,
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
    finite = np.isfinite(X_new).all()
    if finite and _guard_norm(X_new, DEFAULT_BLOWUP) < DEFAULT_BLOWUP:
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


def solve_riccati(problem: RiccatiProblem, floor: float) -> RiccatiSolution:
    """Propagate ``problem`` exactly backward to ``floor``; dense output.

    Raises FiniteEscape when the flow has a pole above the floor.
    """
    t1 = problem.terminal_time
    floor = float(floor)
    if not floor < t1:
        raise ValueError("floor must lie below the terminal time")
    n = problem.n
    h = (t1 - floor) / STEPS
    E = la.expm(-problem.hamiltonian * h)
    grid = np.linspace(t1, floor, STEPS + 1)
    values = np.empty((STEPS + 1, n, n))
    steps = np.empty((STEPS, n, n))
    values[0] = _sym(problem.terminal_value)
    tripped = STEPS
    for k in range(STEPS):
        steps[k], X = _restart(E, values[k], n)
        if X is None:
            tripped = k
            break
        values[k + 1] = X
    crossed = np.flatnonzero(_crosses_pole(steps[:tripped]))
    if crossed.size or tripped < STEPS:
        k = int(crossed[0]) if crossed.size else tripped
        from .escape import EscapeReport  # deferred: escape builds on this module

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
    return RiccatiSolution(
        kind=problem.kind,
        grid=grid,
        values=values,
        derivs=problem.rhs(grid, values),
        steps=steps,
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
