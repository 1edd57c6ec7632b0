"""Finite escape-time detection for backward Riccati flows.

Two independent detectors cross-validate each other:

* norm blow-up: integrate the nonlinear flow backward until its spectral
  norm reaches ``CHART_LEVEL``, then in the chart Y = (X - sigma I)^-1,
  where the pole is a smooth zero of an eigenvalue; refine that zero.
* Maslov count (``_Count``): the gap flow is V U^-1 for the linear flow
  [U; V]' = H [U; V] with the gap problem's Hamiltonian
  H = [[A, -C R_e^-1 C'], [Q, -A']], so it escapes where the plane of
  [U; V] meets the vertical plane {U = 0}; the Maslov index of the path
  counts those meetings with multiplicity, so the bundled example's
  double root, where det U keeps its sign, counts twice.  Every jump has
  one sign, as the crossing form on ker U is (V x)' C R_e^-1 C' (V x) >= 0
  (Robbin and Salamon, Topology 32, 1993; Coppel, LNM 220, 1971).  The
  linear flow has no finite-time singularity: the oracle of record.
  Frames move by a Taylor sum of exp(K dt), exact as ||K dt|| is small.

Escape times are resolved to ``TIME_TOL_REL`` of the search span.
``_escape_inside`` decides whether an interval's escape lies inside it,
for the scheduler and the simulator: within ``BOUNDARY_TOL_REL`` of the
horizon of its start it sits on the start, where the estimate resets.  It
hands back the counted flow, which also evaluates the interval's gap flow.
``_slack_root`` runs the count in the terminal time.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import EscapeReport
from .game_model import GameSpec
from .riccati import (
    RiccatiProblem,
    RiccatiSolution,
    _gap_problem,
    _guard_norm,
    _integrate_backward,
    _eval_many,
    _in_range,
    _powers,
    _sym,
    eval_solution,
    make_value_problem,
)

TIME_TOL_REL = 1e-9  # escape-time resolution, relative to the search span
CHART_LEVEL = 1e2  # spectral norm at which the norm detector changes chart
# an escape within this share of the horizon above an interval's start
# falls outside the interval: the estimate resets at the start
BOUNDARY_TOL_REL = 1e-8
DEGREE = 18  # degree of the Taylor propagator of ``_Count``


def _chart(problem: RiccatiProblem, t: float, X: np.ndarray):
    """The flow Y = (X - sigma I)^-1 from its value at t, with s the sign of
    X's eigenvalue of largest modulus and sigma = -2 s ||X||_2, as a problem
    in the shared quadratic form; and s and sigma.

    X - sigma I has the sign s and condition number at most 3, so sY is
    positive definite.  Substituting X = sigma I + Y^-1 into the flow gives
    Y' + G'Y + YG + D~ + Y N~ Y = 0 with G = -(F + sigma N)', D~ = -N and
    N~ = -(D + sigma (F + F') + sigma^2 N).  A pole of X with the sign s is
    where an eigenvalue of sY falls through 0; X meets sigma I where Y
    blows up."""
    w = np.linalg.eigvalsh(X)
    s = 1.0 if w[-1] >= -w[0] else -1.0
    sigma = -2.0 * s * max(w[-1], -w[0])
    F, D, N = problem.drift, problem.load, problem.quad
    shifted = np.linalg.inv(X - sigma * np.eye(problem.n))
    chart = RiccatiProblem(
        problem.kind, -(F + sigma * N).T, -N, -(D + sigma * (F + F.T) + sigma**2 * N),
        t, _sym(shifted), problem.n,
    )
    return chart, s, sigma


def _chart_root(chart: RiccatiProblem, s: float, above, below, tol: float, span: float):
    """The zero of the least eigenvalue of sY between the chart's nodes
    (t_a, Y_a, least_a) above it and (t_b, least_b) at or below it, by
    ``_illinois``, each evaluation one re-integration from the node above;
    the bracket of half the time resolution ``tol`` about it, inside the
    nodes; and Y at the bracket's upper end."""
    (t_a, Y_a, least_a), (t_b, least_b) = above, below

    def at(t: float) -> np.ndarray:
        *_, (_, Y) = _integrate_backward(chart.rhs, t_a, Y_a, t, span)
        return Y

    def minus_least(t: float) -> float:
        return -np.linalg.eigvalsh(s * at(t))[0]

    root = _illinois(minus_least, t_a, -least_a, t_b, -least_b, tol)
    lo, hi = max(root - tol / 4, t_b), min(root + tol / 4, t_a)
    return root, (lo, hi), at(hi)


def detect_escape_norm(problem: RiccatiProblem, floor: float) -> EscapeReport:
    """Escape search by adaptive integration of the nonlinear flow.

    X is integrated until its spectral norm reaches ``CHART_LEVEL``; from
    there on, Y = (X - sigma I)^-1 from ``_chart``, which turns a pole of X
    into a smooth zero of the least eigenvalue of sY (Schiff and Shnider,
    SIAM J. Numer. Anal. 36, 1999).  When ||Y|| reaches the level, X nears
    sigma I, and the chart is made afresh from X there.  The pole is
    refined by ``_chart_root`` and reported with a bracket of half the
    time resolution; ``norm_at_detection`` is ||X||_2 at its upper end.
    The detector never uses the Hamiltonian, so it checks the count
    independently.
    """
    t1 = problem.terminal_time
    floor = float(floor)
    if not floor < t1:
        raise ValueError("floor must lie below the terminal time")
    span = t1 - floor
    tol = TIME_TOL_REL * max(span, 1e-12)
    for t, X in _integrate_backward(problem.rhs, t1, problem.terminal_value, floor, span):
        if _guard_norm(X, CHART_LEVEL) >= CHART_LEVEL:
            break
    else:
        return EscapeReport.missed("norm_blowup", floor, t1)
    eye = np.eye(problem.n)
    while True:  # one pass per chart
        chart, s, sigma = _chart(problem, t, X)
        for t, Y in _integrate_backward(chart.rhs, t, chart.terminal_value, floor, span):
            w = np.linalg.eigvalsh(s * Y)  # sY is positive definite above the pole
            if w[0] <= 0:
                root, bracket, Y = _chart_root(chart, s, above, (t, w[0]), tol, span)
                norm = np.linalg.norm(sigma * eye + np.linalg.inv(Y), 2)
                return EscapeReport(True, root, bracket, "norm_blowup", float(norm), floor, t1)
            if w[-1] >= CHART_LEVEL:
                X = sigma * eye + np.linalg.inv(Y)
                break
            above = (t, Y, w[0])
        else:
            return EscapeReport.missed("norm_blowup", floor, t1)


def _illinois(f, a: float, fa: float, b: float, fb: float, tol: float) -> float:
    """Root of f between a, where f < 0, and b, where f > 0, by regula
    falsi with the Illinois rule, to 1e-2 of ``tol``."""
    side = 0
    for _ in range(100):  # converges superlinearly; the cap is a guard
        c = a - fa * (b - a) / (fb - fa)
        if abs(b - a) <= 1e-2 * tol or c in (a, b) or (fc := f(c)) == 0:
            break
        if fc < 0:
            a, fa, fb, side = c, fc, fb / 2 if side < 0 else fb, -1
        else:
            b, fb, fa, side = c, fc, fa / 2 if side > 0 else fa, 1
    return float(c)


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


class _Count:
    """Maslov count of the meetings of two Lagrangian paths on a grid.

    The path Q(s) = exp(K (s - start)) Z0 moves by the constant
    Hamiltonian K; ``partner(s)`` gives frames of the other path M(s) at
    an array of times, moved by a constant Hamiltonian of norm at most
    ``partner_speed``.  With W(s) from ``_eigen_angles``, Phi the lift of
    arg det W and S the sum of the arguments of W's eigenvalues, Phi - S
    jumps by 2 pi exactly where an eigenvalue passes -1, so
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

    ``_exp``, the Taylor sum of exp(K dt) to ``DEGREE``, makes the grid
    step and every move within a cell: as |dt| <= |h|, the spacing gives
    x = ||K dt||_2 <= pi/4, so it errs by at most x^19 / 19! e^x < 2e-19
    for any K, defective or not (Moler and Van Loan, SIAM Rev. 45, 2003).
    Outside the span that fails: ``value`` and ``count`` raise OutOfRange.
    """

    def __init__(self, K, Z0, start, end, partner, partner_speed=0.0):
        n = Z0.shape[-1]
        self.K, self.partner = K, partner
        factorials = np.cumprod(np.arange(1.0, DEGREE + 1))[:, None, None]
        self.T = np.concatenate(([np.eye(2 * n)], _powers(K, DEGREE) / factorials))
        rate = 4 * n * (np.linalg.norm(K, 2) + partner_speed) / np.pi
        self.s = np.linspace(start, end, max(1, int(np.ceil(abs(end - start) * rate))) + 1)
        self.h = self.s[1] - self.s[0]
        self.tol = TIME_TOL_REL * max(abs(end - start), 1e-12)
        steps = _powers(self._exp(self.h), 4 * n)
        frames = [_orth(Z0)]
        while len(frames) < len(self.s):
            frames.extend(_orth(steps @ frames[-1]))
        self.frames = np.stack(frames[: len(self.s)])
        self.S = _eigen_angles(self.frames, partner(self.s)).sum(axis=-1)
        self.N = -np.cumsum(np.rint(np.diff(self.S, prepend=self.S[0]) / (2 * np.pi))).astype(int)

    def _exp(self, dt) -> np.ndarray:
        """exp(K dt) as sum_j dt^j T_j with T_j = K^j / j!, or a stack of it
        at an array of times, in one matrix product."""
        dt = np.asarray(dt, dtype=float)[..., None]
        # the running product of [1, dt, ..., dt] is [1, dt, ..., dt^DEGREE]
        powers = np.cumprod(np.where(np.arange(DEGREE + 1) == 0, 1.0, dt), axis=-1)
        return (powers @ self.T.reshape(DEGREE + 1, -1)).reshape(dt.shape[:-1] + self.K.shape)

    def _cell(self, s) -> np.ndarray:
        """The grid point that opens the cell of s, or of each of an array;
        raises OutOfRange outside the counted span."""
        s = _in_range(s, *sorted((self.s[0], self.s[-1])))
        return np.clip((s - self.s[0]) // self.h, 0, len(self.s) - 2).astype(int)

    def _move(self, s, k) -> np.ndarray:
        """exp(K (s - s_k)) times the frame at grid point k, for s and k
        of one shape."""
        return self._exp(s - self.s[k]) @ self.frames[k]

    def value(self, s) -> np.ndarray:
        """Q's flow V U^-1 at s, or a stack of it at an array of times;
        raises LinAlgError at a pole."""
        s = np.asarray(s, dtype=float)
        UV = self._move(s, self._cell(s)).swapaxes(-1, -2)  # [U' V']
        n = UV.shape[-2]
        # the symmetric part of (V U^-1)' is that of V U^-1
        return _sym(np.linalg.solve(UV[..., :n], UV[..., n:]))

    def _jump(self, s: float, k: int) -> tuple[int, np.ndarray]:
        """Minus the change of N from grid point k to s in its cell, and
        W's eigenvalue arguments at s."""
        frame = _orth(self._move(s, k))
        a = _eigen_angles(frame, self.partner(np.asarray(s)))
        return int(np.rint((a.sum() - self.S[k]) / (2 * np.pi))), a

    def count(self, s: float) -> int:
        """N at s, lifted from the grid point that opens the cell of s."""
        k = int(self._cell(s))
        return int(self.N[k]) - self._jump(s, k)[0]

    @cached_property
    def first(self) -> float | None:
        """The first meeting, or None: in the first cell where N changes,
        the sign change of the angle of W's eigenvalue nearest -1, signed
        by whether N has changed (which flips at a double meeting too), by
        ``_illinois``."""
        jumped = np.flatnonzero(self.N)
        if jumped.size == 0:
            return None
        k = int(jumped[0]) - 1

        def signed_angle(s: float) -> float:
            moved, a = self._jump(s, k)
            return (np.pi - np.abs(a).max()) * (1.0 if moved else -1.0)

        a, b = float(self.s[k]), float(self.s[k + 1])
        fa, fb = signed_angle(a), signed_angle(b)
        if fb <= 0:  # the meeting sits on the grid point
            return b
        return _illinois(signed_angle, a, fa, b, fb, self.tol)


def _gap_count(spec: GameSpec, terminal_time: float, terminal_value, floor: float) -> _Count:
    """Count of the gap flow ending at ``terminal_value`` against the plane
    [0; I], down to ``floor``; its first meeting is the largest pole."""
    n = spec.n_x
    H = _gap_problem(spec, terminal_time, terminal_value).hamiltonian
    V0 = np.vstack((np.zeros((n, n)), np.eye(n)))
    Z0 = np.vstack((np.eye(n), terminal_value))
    return _Count(H, Z0, float(terminal_time), float(floor), lambda s: V0)


def detect_escape_radon(
    spec: GameSpec,
    terminal_time: float,
    terminal_value: np.ndarray,
    floor: float,
) -> EscapeReport:
    """Escape search for the constant-coefficient gap flow via its
    linear representation; reports the largest singularity below the
    terminal time."""
    terminal_time, floor = float(terminal_time), float(floor)
    if not floor < terminal_time:
        raise ValueError("floor must lie below the terminal time")
    flow = _gap_count(spec, terminal_time, np.array(terminal_value, dtype=float), floor)
    if flow.first is None:
        return EscapeReport.missed("radon_determinant", floor, terminal_time)
    t, half = flow.first, 0.5 * flow.tol
    bracket = (max(t - half, floor), min(t + half, terminal_time))
    return EscapeReport(True, t, bracket, "radon_determinant", None, floor, terminal_time)


def _interval(flow: _Count, a: float, tol: float) -> tuple[bool, float | None]:
    """Whether ``flow``, counted from the interval's end, has a pole inside
    the interval that starts at a (N nonzero at a + tol, or at the end if
    that lies lower), and its largest pole if at or above a - tol."""
    pole = flow.first if flow.first is not None and flow.first >= a - tol else None
    return flow.count(min(a + tol, flow.s[0])) != 0, pole


def _escape_inside(
    spec: GameSpec, value_sol: RiccatiSolution, a: float, b: float
) -> tuple[bool, float | None, _Count]:
    """``_interval`` of [a, b) for the gap flow that ends at -P(b), counted
    down to a - tol, tol the boundary tolerance; and that counted flow."""
    tol = BOUNDARY_TOL_REL * spec.horizon
    flow = _gap_count(spec, b, -eval_solution(value_sol, b), a - tol)
    return (*_interval(flow, a, tol), flow)


def _slack_root(
    spec: GameSpec, value_sol: RiccatiSolution, t_prev: float, upper: float
) -> float | None:
    """Least tau in (t_a, upper] whose gap flow, ending at -P(tau), has its
    pole at t_a, the boundary-tolerance point above ``t_prev``, or None.

    That flow at t_a is V U^-1 for [U; V] = exp(H (t_a - tau)) [I; -P(tau)],
    so its pole is where the plane of [I; -P(tau)] meets
    exp(H (tau - t_a)) [0; I], a path moved by the gap Hamiltonian H.  The
    former is the value flow's plane [I; P(tau)], moved by the value
    Hamiltonian H_v, reflected by D = diag(I, -I); D H_v D is Hamiltonian
    (J D = -D J) with the norm of H_v, so ``_Count``'s lift bound along tau
    is 2n (||H||_2 + ||H_v||_2).  The count starts at 0 and, as the plane
    at t = tau never meets [0; I], equals at ``upper`` the count at t_a of
    the flow ending at ``upper``: None means that flow has no pole there.
    """
    n = spec.n_x
    H = _gap_problem(spec, upper, np.zeros((n, n))).hamiltonian
    t_a = t_prev + BOUNDARY_TOL_REL * spec.horizon

    def partner(tau):
        P = _eval_many(value_sol, tau)
        return _orth(np.concatenate((np.broadcast_to(np.eye(n), P.shape), -P), axis=-2))

    speed = np.linalg.norm(make_value_problem(spec).hamiltonian, 2)
    V0 = np.vstack((np.zeros((n, n)), np.eye(n)))
    return _Count(H, V0, t_a, float(upper), partner, speed).first
