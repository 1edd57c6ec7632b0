"""Finite escape-time detection for backward Riccati flows.

Two independent detectors, of a ``RiccatiProblem`` and a floor each, cross-check:

* norm blow-up: integrate the nonlinear flow backward, by the adaptive
  extrapolation stepper ``_integrate_backward``, in the chart
  Y = (X - sigma I)^-1 from the terminal time on, where the pole is a
  smooth zero of an eigenvalue; refine that zero.  This detector never
  uses the Hamiltonian form.
* Maslov count (``riccati._count``, the oracle of record, which the
  exact value solve reads too): any problem's flow is V U^-1 for the
  linear flow [U; V]' = H [U; V] with its Hamiltonian H, so it escapes
  where the plane of [U; V] meets the vertical plane {U = 0}; the count
  takes those meetings with multiplicity, so the bundled example's double
  root, where det U keeps its sign, counts twice.  On the gap flow every
  jump has one sign: the crossing form on ker U is (V x)' C R_e^-1 C' (V x)
  >= 0 (Coppel, LNM 220, 1971).

Escape times are resolved to ``TIME_TOL_REL`` of the search span.  This
module holds the two detectors and nothing else: the rule that decides
whether a sensing interval holds an escape, and the slack of each
instant, belong to the scheduler.
"""
from __future__ import annotations

import numpy as np

from .errors import EscapeReport, StepUnderflow
from .riccati import TIME_TOL_REL, RiccatiProblem, _count, _illinois, _sym

CHART_LEVEL = 1e1  # least |sigma| / 2 of a chart, and the norm of sY that ends it
# the norm detector's stepper: error tolerances, and its least step
# relative to the span
RTOL = 1e-10
ATOL = 1e-13
H_MIN_REL = 1e-12
SUBSTEPS = np.arange(2, 14, 2)  # modified-midpoint chains of one step


def _to_zero(n: np.ndarray) -> np.ndarray:
    """Weights that take the values at h = 1/n of a polynomial in h^2 to
    its value at h = 0 (Lagrange), padded with zeros to ``SUBSTEPS``."""
    w = [np.prod([a * a / (a * a - b * b) for b in n if b != a]) for a in n]
    return np.pad(w, (0, len(SUBSTEPS) - len(n)))


# applied to the chains' ends: T66, all of them extrapolated to zero
# substep, and the error estimate T66 - T55
EXTRAPOLATE = np.array([_to_zero(SUBSTEPS), _to_zero(SUBSTEPS) - _to_zero(SUBSTEPS[:-1])])


def _gbs_step(rhs, t: float, X: np.ndarray, h: float) -> np.ndarray:
    """One Gragg-Bulirsch-Stoer step of length h from X: the value
    extrapolated to zero substep and its error estimate, stacked.

    The modified-midpoint chains with ``SUBSTEPS`` substeps run side by
    side as one stack; at the m-th midpoint move only the chains with more
    than m substeps move, so a step makes ``SUBSTEPS[-1]`` stacked rhs
    calls.  Every chain passes the step's start t, which is exact only
    because every flow the detector integrates is autonomous (Hairer,
    Norsett and Wanner, Solving ODEs I, II.9)."""
    sub = (h / SUBSTEPS)[:, None, None]
    prev = np.repeat(X[None], len(SUBSTEPS), axis=0)
    z = X + sub * rhs(t, X)
    for m in range(1, SUBSTEPS[-1]):
        k = m // 2  # chains 0 .. k-1, with 2 .. 2k substeps, have made them all
        prev[k:], z[k:] = z[k:], prev[k:] + 2 * sub[k:] * rhs(t, z[k:])
    return np.tensordot(EXTRAPOLATE, z, axes=1)


def _integrate_backward(rhs, t_start: float, X_start: np.ndarray, floor: float, span: float):
    """Yield the accepted nodes (t, X) of an adaptive backward march of the
    autonomous flow X' = rhs(t, X) from (t_start, X_start) down to
    ``floor``, the start first and the floor last; the caller stops it
    where it likes.

    Steps are ``_gbs_step``s; the first tries the whole way to the floor,
    and each next one is scaled by 0.94 (0.65 / err)^(1/11), clipped to
    [0.2, 4], with err the root-mean-square error estimate against
    ``ATOL + RTOL |X|``.  Every node is finite.  Raises StepUnderflow when
    the step falls below ``H_MIN_REL`` of ``span``, the search's whole span.
    """
    h_min = H_MIN_REL * span
    time_eps = 1e-14 * max(1.0, abs(t_start), abs(floor))

    t = float(t_start)
    X = _sym(np.array(X_start, dtype=float))
    yield t, X

    h = t_start - floor
    while t - floor > time_eps:
        h_try = min(h, t - floor)
        last = abs((t - h_try) - floor) <= time_eps
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            X_new, err = _gbs_step(rhs, t, X, -h_try)
            denom = ATOL + RTOL * np.maximum(np.abs(X), np.abs(X_new))
            enorm = np.sqrt(np.mean((err / denom) ** 2))
            if not (np.isfinite(enorm) and np.isfinite(X_new).all()):
                enorm = np.inf
            h = h_try * min(4.0, max(0.2, 0.94 * (0.65 / enorm) ** (1 / 11)))
        if enorm <= 1.0:
            t = floor if last else t - h_try
            X = _sym(X_new)
            yield t, X
        elif h < h_min:
            raise StepUnderflow(
                f"step {h:.3e} below h_min {h_min:.3e} at t={t} "
                f"(norm {np.linalg.norm(X, 2):.3e})"
            )


def _chart(problem: RiccatiProblem, t: float, X: np.ndarray):
    """The flow Y = (X - sigma I)^-1 from its value at t, with s the sign of
    X's eigenvalue of largest modulus and sigma = -2 s max(||X||_2,
    ``CHART_LEVEL``), as a problem in the shared quadratic form; and s and
    sigma.

    X - sigma I has the sign s and condition number at most 3, for any X,
    so sY is positive definite.  Substituting X = sigma I + Y^-1 into the
    flow gives Y' + G'Y + YG + D~ + Y N~ Y = 0 with G = -(F + sigma N)',
    D~ = -N and N~ = -(D + sigma (F + F') + sigma^2 N).  A pole of X with
    the sign s is where an eigenvalue of sY falls through 0; X meets
    sigma I where Y blows up."""
    w = np.linalg.eigvalsh(X)
    s = 1.0 if w[-1] >= -w[0] else -1.0
    sigma = -2.0 * s * max(w[-1], -w[0], CHART_LEVEL)
    F, D, N = problem.drift, problem.load, problem.quad
    shifted = np.linalg.inv(X - sigma * np.eye(problem.n))
    chart = RiccatiProblem(
        problem.kind, -(F + sigma * N).T, -N, -(D + sigma * (F + F.T) + sigma**2 * N),
        t, _sym(shifted), problem.n,
    )
    return chart, s, sigma


def _chart_root(chart: RiccatiProblem, s: float, above, below, tol: float, span: float) -> float:
    """The zero of the least eigenvalue of sY between the chart's nodes
    (t_a, Y_a, least_a) above it and (t_b, least_b) at or below it, to the
    time resolution ``tol``, by ``_illinois``; each evaluation is one
    re-integration from the node above."""
    (t_a, Y_a, least_a), (t_b, least_b) = above, below

    def minus_least(t: float) -> float:
        *_, (_, Y) = _integrate_backward(chart.rhs, t_a, Y_a, t, span)
        return -np.linalg.eigvalsh(s * Y)[0]

    (root,) = _illinois(lambda i, t: [minus_least(t[0])], [(t_a, -least_a, t_b, -least_b, tol)])
    return root


def detect_escape_norm(problem: RiccatiProblem, floor: float) -> EscapeReport:
    """Escape search by adaptive integration of the nonlinear flow.

    The flow is integrated as Y = (X - sigma I)^-1 from ``_chart``, made
    first from the terminal value, which turns a pole of X into a smooth
    zero of the least eigenvalue of sY (Schiff and Shnider, SIAM J. Numer.
    Anal. 36, 1999).  When ||Y|| reaches ``CHART_LEVEL``, X nears sigma I,
    and the chart is made afresh from X there.  The pole is refined by
    ``_chart_root``.  The detector never uses the Hamiltonian, so it
    checks the count independently.
    """
    t = problem.terminal_time
    floor = float(floor)
    if not floor < t:
        raise ValueError("floor must lie below the terminal time")
    span = t - floor
    tol = TIME_TOL_REL * max(span, 1e-12)
    X = _sym(np.array(problem.terminal_value, dtype=float))
    eye = np.eye(problem.n)
    while True:  # one pass per chart
        chart, s, sigma = _chart(problem, t, X)
        for t, Y in _integrate_backward(chart.rhs, t, chart.terminal_value, floor, span):
            w = np.linalg.eigvalsh(s * Y)  # sY is positive definite above the pole
            if w[0] <= 0:
                return EscapeReport(_chart_root(chart, s, above, (t, w[0]), tol, span))
            if w[-1] >= CHART_LEVEL:
                X = sigma * eye + np.linalg.inv(Y)
                break
            above = (t, Y, w[0])
        else:
            return EscapeReport(None)


def detect_escape_radon(problem: RiccatiProblem, floor: float) -> EscapeReport:
    """Escape search via the flow's linear representation (``riccati._count``,
    as the exact value solve counts it); reports the largest singularity
    below the terminal time."""
    return EscapeReport(_count(problem, floor).first)
