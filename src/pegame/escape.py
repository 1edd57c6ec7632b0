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
kept as an additional candidate source.  ``_slack_root`` runs the same
search in the terminal time, for the scheduler's slack supremum.

Both detectors resolve escape times to ``TIME_TOL_REL`` of the search
span and share the blow-up guard ``riccati.DEFAULT_BLOWUP``; scans have
``SCAN_POINTS`` points.  ``_escape_inside`` applies the determinant
detector to one sensing interval and decides whether its escape lies
inside it, for the scheduler and the simulator.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np
import scipy.linalg as la

from .game_model import GameSpec
from .riccati import (
    DEFAULT_BLOWUP,
    RiccatiProblem,
    RiccatiSolution,
    _gap_problem,
    _integrate_backward,
    _eval_many,
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

    @classmethod
    def missed(cls, method: str, floor: float, terminal_time: float) -> "EscapeReport":
        """The report of a search that found no escape."""
        return cls(False, None, None, method, None, float(floor), terminal_time)


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
        return EscapeReport.missed("norm_blowup", floor, t1)

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

    def _step(self, dt, Z=None) -> np.ndarray:
        """exp(H dt) @ Z for a step or an array of steps; Z defaults to Z0."""
        if self._eig is None:
            return la.expm(self.H * dt[..., None, None]) @ (self.Z0 if Z is None else Z)
        w, V, VZ = self._eig
        if Z is not None:
            VZ = np.linalg.solve(V, Z.astype(complex))
        return (V @ (np.exp(w * dt[..., None])[..., :, None] * VZ)).real

    def _stacked(self, t):
        return self._step(np.asarray(t, dtype=float) - self.t1)

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
    return float(np.linalg.norm(val, 2)) if np.isfinite(val).all() else np.inf


def _powers(E: np.ndarray, count: int) -> np.ndarray:
    """E^0, ..., E^(count - 1) by repeated multiplication."""
    return np.stack(list(accumulate([E] * (count - 1), np.matmul, initial=np.eye(len(E)))))


def _dips(s: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Scan points k >= 1 worth refining, in scan order: sign changes of
    det X, and local minima of the normalised sigma_min ``s`` at most 0.9
    of the smaller neighbour or 0.3 of the median.  Flat noise makes endless
    shallow minima, so only the first 200 count."""
    nb = np.append(np.where(s[2:] < s[:-2], s[2:], s[:-2]), s[-2])
    prominent = (s[1:] <= nb) & ((s[1:] <= 0.9 * nb) | (s[1:] <= 0.3 * float(np.median(s))))
    return np.flatnonzero(prominent | (signs[:-1] * signs[1:] < 0))[:200] + 1


def _first_pole(grid, Z, sigma_min, tol, flow_norm):
    """Golden-section refinement of the dips of a scan of stacks Z = [X; Y]
    at ``grid``, in scan order, to 1e-2 of ``tol``; the first minimum of
    ``sigma_min`` that is a pole (where ``flow_norm`` reaches the guard)
    gives its bracket and norm, else None."""
    X = Z[:, : Z.shape[-1]]
    s = np.linalg.svd(X, compute_uv=False)[:, -1] / np.linalg.norm(Z, axis=(1, 2))
    for k in _dips(s, np.linalg.slogdet(X)[0]):
        a, b = sorted((grid[k - 1], grid[min(k + 1, len(grid) - 1)]))
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        fc, fd = sigma_min(c), sigma_min(d)
        width = np.inf  # far from zero, rounding can stall the bracket above tol
        while width > b - a > 1e-2 * tol:
            width = b - a
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                fc = sigma_min(c)
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                fd = sigma_min(d)
        nrm = flow_norm(0.5 * (a + b))
        if nrm >= DEFAULT_BLOWUP:
            return a, b, nrm
    return None


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

    ts = np.linspace(terminal_time, floor, SCAN_POINTS)
    E = la.expm(-stacked.H * (ts[0] - ts[1]))

    # chunked propagation: the chain Z_{k+1} = E Z_k evaluated in batched
    # blocks of 64, renormalizing at block boundaries only
    E_pows = _powers(E, 65)
    blocks, Z_start = [], stacked.Z0
    for k in range(0, SCAN_POINTS, 64):
        blocks.append(E_pows[: min(64, SCAN_POINTS - k)] @ Z_start)
        Z_start = _normalize(E_pows[len(blocks[-1])] @ Z_start)
    Z = np.concatenate(blocks)

    def sigma_min(t: float) -> float:
        return float(np.linalg.svd(_normalize(stacked._stacked(t))[:n], compute_uv=False)[-1])

    hit = _first_pole(ts, Z, sigma_min, tol, lambda t: _flow_norm(stacked, t))
    if hit is not None:
        a, b, nrm = hit
        t_hat = float(min(max(0.5 * (a + b), floor), terminal_time))
        half = float(0.5 * max(b - a, tol))
        return EscapeReport(
            found=True,
            t_escape=t_hat,
            bracket=(float(max(t_hat - half, floor)), float(min(t_hat + half, terminal_time))),
            method="radon_determinant",
            norm_at_detection=float(min(nrm, np.finfo(float).max)),
            floor=float(floor),
            terminal_time=terminal_time,
        )
    return EscapeReport.missed("radon_determinant", floor, terminal_time)


def _escape_inside(
    spec: GameSpec, value_sol: RiccatiSolution, a: float, b: float
) -> tuple[EscapeReport, bool]:
    """Determinant search on [a, b] for the gap flow that ends at -P(b),
    and whether its escape lies inside the interval [a, b)."""
    rep = detect_escape_radon(spec, b, -eval_solution(value_sol, b), a)
    inside = bool(rep.found and rep.t_escape > a + BOUNDARY_TOL_REL * spec.horizon)
    return rep, inside


def _slack_root(
    spec: GameSpec, value_sol: RiccatiSolution, t_prev: float, upper: float
) -> float | None:
    """Least tau in (t_a, upper] whose gap flow, ending at -P(tau), has its
    pole at t_a, the boundary-tolerance point above ``t_prev``; None when
    the scan finds none.  At t_a that flow is V U^-1 for
    [U; V] = exp(H (t_a - tau)) [I; -P(tau)], so the pole is a zero of
    sigma_min(U), scanned and refined in tau as the detector does in t."""
    n = spec.n_x
    t_a = t_prev + BOUNDARY_TOL_REL * spec.horizon
    flow = _StackedFlow(_gap_problem(spec, upper, np.zeros((n, n))))

    def sigma_min(tau: float) -> float:
        Z0 = np.vstack((np.eye(n), -_eval_many(value_sol, tau)))
        Z = flow._step(np.asarray(t_a - tau), Z0)
        return float(np.linalg.svd(Z[:n], compute_uv=False)[-1] / np.linalg.norm(Z))

    def flow_norm(tau: float) -> float:
        ending = _gap_problem(spec, tau, -_eval_many(value_sol, tau))
        return _flow_norm(_StackedFlow(ending), t_a)

    taus = np.linspace(t_a, upper, SCAN_POINTS)
    pw = _powers(la.expm(flow.H * (taus[0] - taus[1])), 65)
    # the scan's exp(H (t_a - tau_k)) = E^k = (E^64)^(k // 64) E^(k % 64)
    Phi = (_powers(pw[64], -(-SCAN_POINTS // 64))[:, None] @ pw[:64]).reshape(-1, 2 * n, 2 * n)
    Z = Phi[:SCAN_POINTS, :, :n] - Phi[:SCAN_POINTS, :, n:] @ _eval_many(value_sol, taus)
    hit = _first_pole(taus, Z, sigma_min, _time_tol(upper, t_a), flow_norm)
    return None if hit is None else float(0.5 * (hit[0] + hit[1]))
