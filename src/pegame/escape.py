"""Finite escape-time detection for backward Riccati flows.

Two independent detectors cross-validate each other:

* norm blow-up: integrate the nonlinear flow backward and bracket the time
  where the spectral norm crosses the guard threshold.
* linear-flow determinant: write the constant-coefficient gap flow as
  Y(t) X(t)^-1 where [X; Y] obeys the linear ODE of the gap problem's
  Hamiltonian H = [[A, -C R_e^-1 C'], [Q, -A']]; escapes are the zeros of
  det X(t).  The linear flow has no finite-time singularity in exact
  arithmetic, which makes this the oracle of record.

det X can touch zero without a sign change (its roots carry the
multiplicity of the number of simultaneously diverging eigendirections,
and the bundled example's root is a double one), so zeros are located by
scanning the smallest singular value of X for dips and refining each dip
by golden-section; a dip counts as an escape only when the reconstructed
flow value there exceeds the blow-up guard.  LU sign changes of det X are
kept as an additional candidate source.

Both detectors resolve escape times to ``TIME_TOL_REL`` of the search
span and share the blow-up guard ``riccati.DEFAULT_BLOWUP``; the scan
has ``SCAN_POINTS`` points.  ``_escape_inside`` applies the determinant
detector to one sensing interval and decides whether its escape lies
inside it, for the scheduler and the simulator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .game_model import GameSpec
from .riccati import (
    DEFAULT_BLOWUP,
    RiccatiProblem,
    RiccatiSolution,
    _gap_problem,
    _integrate_backward,
    _sym,
    eval_solution,
)

TIME_TOL_REL = 1e-9  # escape-time resolution, relative to the search span
SCAN_POINTS = 2001   # uniform scan of the span by the determinant detector
# an escape within this share of the horizon above an interval's start
# falls outside the interval: the estimate resets at the start
BOUNDARY_TOL_REL = 1e-8
_GOLDEN = 0.5 * (np.sqrt(5.0) - 1.0)


@dataclass(frozen=True)
class EscapeReport:
    """Outcome of one escape search on [floor, terminal_time]."""

    found: bool
    t_escape: float | None
    bracket: tuple[float, float] | None
    method: str  # "norm_blowup" | "radon_determinant"
    norm_at_detection: float | None
    floor: float
    terminal_time: float


def _time_tol(terminal_time: float, floor: float) -> float:
    return TIME_TOL_REL * max(terminal_time - floor, 1e-12)


def detect_escape_norm(problem: RiccatiProblem, floor: float) -> EscapeReport:
    """Escape search by backward integration with a blow-up guard.

    On a guard trip the crossing time is bracketed by re-integration from
    the last finite node; the adaptive step near a pole is usually already
    far below the time resolution so refinement rarely iterates.
    """
    t1 = problem.terminal_time
    if not floor < t1:
        raise ValueError("floor must lie below the terminal time")
    tol = _time_tol(t1, floor)

    run = _integrate_backward(problem.rhs, t1, problem.terminal_value, floor)
    if run.status == "reached":
        return EscapeReport(
            found=False,
            t_escape=None,
            bracket=None,
            method="norm_blowup",
            norm_at_detection=None,
            floor=float(floor),
            terminal_time=t1,
        )

    lo = float(run.t_trip)
    hi = float(run.ts[-1])
    X_hi = run.xs[-1]
    norm_det = float(run.norm_trip)
    span = t1 - floor

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        sub = _integrate_backward(problem.rhs, hi, X_hi, mid, span_hint=span)
        if sub.status == "reached":
            hi = float(sub.ts[-1])
            X_hi = sub.xs[-1]
        else:
            lo = float(sub.t_trip)
            hi = float(sub.ts[-1])
            X_hi = sub.xs[-1]
            norm_det = float(sub.norm_trip)

    t_star = 0.5 * (lo + hi)
    return EscapeReport(
        found=True,
        t_escape=max(t_star, floor),
        bracket=(max(lo, floor), hi),
        method="norm_blowup",
        norm_at_detection=norm_det,
        floor=float(floor),
        terminal_time=t1,
    )


def _normalize(Z: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(Z)
    return Z / nrm if nrm > 0 else Z


class _StackedFlow:
    """Pointwise-exact evaluator of a constant-coefficient flow.

    Evaluates exp(H (t - t1)) @ Z0, normalized, for the problem's
    Hamiltonian H and Z0 = [I; X(t1)].  Uses the eigendecomposition of H
    when it is well conditioned; falls back to the scaling-and-squaring
    exponential otherwise (the bundled example's H is nilpotent, hence
    defective)."""

    def __init__(self, problem: RiccatiProblem):
        n = problem.n
        self.n = n
        self.H = problem.hamiltonian
        self.Z0 = _normalize(np.vstack([np.eye(n), problem.terminal_value]))
        self.t1 = problem.terminal_time
        self._eig = None
        try:
            w, V = np.linalg.eig(self.H)
            cond = np.linalg.cond(V)
            if np.isfinite(cond) and cond < 1e8:
                self._eig = (w, V, np.linalg.solve(V, self.Z0.astype(complex)))
        except np.linalg.LinAlgError:
            pass

    def _stacked(self, t):
        dt = np.asarray(t, dtype=float) - self.t1
        if self._eig is not None:
            w, V, VZ = self._eig
            return (V @ (np.exp(w * dt[..., None])[..., :, None] * VZ)).real
        return la.expm(self.H * dt[..., None, None]) @ self.Z0

    def __call__(self, t: float) -> np.ndarray:
        return _normalize(self._stacked(t))

    def value(self, t) -> np.ndarray:
        """The flow Y X^-1 at t, or a stack of it at an array of times;
        raises LinAlgError at a pole."""
        Z = self._stacked(t)
        U, V = Z[..., : self.n, :], Z[..., self.n :, :]
        # the symmetric part of (V U^-1)' is that of V U^-1
        return _sym(np.linalg.solve(U.swapaxes(-1, -2), V.swapaxes(-1, -2)))


def _flow_norm(stacked: _StackedFlow, t: float) -> float:
    """Spectral norm of the flow at t; infinite at a pole."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            val = stacked.value(t)
    except np.linalg.LinAlgError:
        return np.inf
    if not np.isfinite(val).all():
        return np.inf
    return float(np.linalg.norm(val, 2))


def detect_escape_radon(
    spec: GameSpec,
    terminal_time: float,
    terminal_value: np.ndarray,
    floor: float,
) -> EscapeReport:
    """Escape search for the constant-coefficient gap flow via its
    linear representation; reports the largest singularity below the
    terminal time."""
    terminal_time = float(terminal_time)
    if not floor < terminal_time:
        raise ValueError("floor must lie below the terminal time")
    tol = _time_tol(terminal_time, floor)
    n = spec.n_x
    stacked = _StackedFlow(_gap_problem(spec, terminal_time, terminal_value))
    H, Z0n = stacked.H, stacked.Z0

    ts = np.linspace(terminal_time, floor, SCAN_POINTS)
    delta = ts[0] - ts[1]
    E = la.expm(-H * delta)

    # chunked propagation: the chain Z_{k+1} = E Z_k evaluated in batched
    # blocks, renormalizing at chunk boundaries only
    chunk = 64
    E_pows = np.empty((chunk + 1, 2 * n, 2 * n))
    E_pows[0] = np.eye(2 * n)
    for j in range(1, chunk + 1):
        E_pows[j] = E_pows[j - 1] @ E
    Z_start = Z0n.copy()
    X_blocks = np.empty((SCAN_POINTS, n, n))
    scales = np.empty(SCAN_POINTS)
    k = 0
    while k < SCAN_POINTS:
        m = min(chunk, SCAN_POINTS - k)
        block = E_pows[:m] @ Z_start
        X_blocks[k : k + m] = block[:, :n, :]
        scales[k : k + m] = np.linalg.norm(block, axis=(1, 2))
        Z_start = _normalize(E_pows[m] @ Z_start)
        k += m
    sigmas = np.linalg.svd(X_blocks, compute_uv=False)[:, -1] / scales
    signs = np.linalg.slogdet(X_blocks)[0]

    def sigma_min(t: float) -> float:
        return float(np.linalg.svd(stacked(t)[:n], compute_uv=False)[-1])

    # Candidate dips, walked from the terminal time downward.  Flat noise
    # produces endless shallow "local minima"; only prominent or deep dips
    # are worth refining (sign changes always are).
    deep = 0.3 * float(np.median(sigmas))
    candidates: list[tuple[float, float]] = []  # (t_high, t_low) brackets
    for k in range(1, SCAN_POINTS):
        sign_change = signs[k - 1] * signs[k] < 0
        if k + 1 < SCAN_POINTS:
            neighbor = min(sigmas[k - 1], sigmas[k + 1])
            local_min = sigmas[k] <= neighbor
        else:
            neighbor = sigmas[k - 1]
            local_min = sigmas[k] <= neighbor
        prominent = local_min and (
            sigmas[k] <= 0.9 * neighbor or sigmas[k] <= deep
        )
        if sign_change or prominent:
            t_high = ts[k - 1]
            t_low = ts[k + 1] if k + 1 < SCAN_POINTS else ts[k]
            candidates.append((t_high, t_low))
            if len(candidates) >= 200:
                break

    width_target = max(1e-2 * tol, 1e-15 * (terminal_time - floor))
    for t_high, t_low in candidates:
        a, b = t_low, t_high  # ascending for the golden search
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        fc, fd = sigma_min(c), sigma_min(d)
        while b - a > width_target:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                fc = sigma_min(c)
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                fd = sigma_min(d)
        t_hat = 0.5 * (a + b)
        nrm = _flow_norm(stacked, t_hat)
        if nrm >= DEFAULT_BLOWUP:
            t_hat = float(min(max(t_hat, floor), terminal_time))
            half = float(0.5 * max(b - a, tol))
            return EscapeReport(
                found=True,
                t_escape=t_hat,
                bracket=(
                    float(max(t_hat - half, floor)),
                    float(min(t_hat + half, terminal_time)),
                ),
                method="radon_determinant",
                norm_at_detection=float(min(nrm, np.finfo(float).max)),
                floor=float(floor),
                terminal_time=terminal_time,
            )

    return EscapeReport(
        found=False,
        t_escape=None,
        bracket=None,
        method="radon_determinant",
        norm_at_detection=None,
        floor=float(floor),
        terminal_time=terminal_time,
    )


def _escape_inside(
    spec: GameSpec, value_sol: RiccatiSolution, a: float, b: float
) -> tuple[EscapeReport, bool]:
    """Determinant search on [a, b] for the gap flow that ends at -P(b),
    and whether its escape lies inside the interval [a, b)."""
    rep = detect_escape_radon(spec, b, -eval_solution(value_sol, b), a)
    inside = bool(rep.found and rep.t_escape > a + BOUNDARY_TOL_REL * spec.horizon)
    return rep, inside
