"""Game definition and the checks of its assumptions.

A game couples a minimizing pursuer and a maximizing evader through the
linear dynamics ``x' = A x + B u_p + C u_e`` and the quadratic payoff

    J = int_{t0}^{tf} (x'Qx + u_p'R_p u_p - u_e'R_e u_e) dt + x(tf)'Q_f x(tf).

A ``GameSpec`` exists only for a game: building one refuses non-finite
entries, t0 >= tf, a horizon tf - t0 that overflows, times whose ulp
exceeds ``TIME_TOL_REL`` of the horizon (the escape-time resolution),
non-conformable shapes, asymmetric Q, Q_f, R_p or R_e, singular effort
weights and powers ``B R_p^-1 B'`` or ``C R_e^-1 C'`` that overflow,
each with a ``ValueError``.  Validation then measures the paper's
assumptions: the sign conventions on the weights and the
controllability-dominance condition, under which the gap matrix
``C R_e^-1 C' - B R_p^-1 B'`` must be negative definite for the game
value to be guaranteed finite on the whole horizon.  Dominance failures
are reported as warnings rather than hard errors because the value can
stay finite anyway; the Riccati solver detects blow-up independently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NonSymmetric, UnsortedInstants

TOL_SYM = 1e-10  # relative Frobenius asymmetry
TOL_PSD = 1e-10  # absolute eigenvalue floor
TIME_TOL_REL = 1e-9  # escape-time resolution, relative to the search span


def _as_array(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_dimensions(spec: GameSpec) -> None:
    n, p, e = spec.n_x, spec.n_p, spec.n_e
    expected = {"A": (n, n), "B": (n, p), "C": (n, e), "Q": (n, n), "Q_f": (n, n),
                "R_p": (p, p), "R_e": (e, e), "x0": (n,)}
    for name, shape in expected.items():
        got = getattr(spec, name).shape
        if got != shape:
            raise DimensionMismatch(f"{name} has shape {got}, expected {shape}")


def _asymmetry(M: np.ndarray) -> float:
    return float(np.linalg.norm(M - M.T) / (1.0 + np.linalg.norm(M)))


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Immutable description of one pursuit-evasion game; a spec that is
    not a game raises a ValueError when built (see the module docstring)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    Q_f: np.ndarray
    R_p: np.ndarray
    R_e: np.ndarray
    t0: float
    tf: float
    x0: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "C", "Q", "Q_f", "R_p", "R_e"):
            arr = np.atleast_2d(_as_array(getattr(self, name), name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        x0 = np.atleast_1d(_as_array(self.x0, "x0"))
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "tf", float(self.tf))
        if not -math.inf < self.t0 < self.tf < math.inf:
            raise ValueError(f"need finite t0 < tf, got t0={self.t0}, tf={self.tf}")
        if not math.isfinite(self.horizon):
            raise ValueError(f"t0={self.t0}, tf={self.tf}: the horizon tf - t0 overflows")
        if np.spacing(max(abs(self.t0), abs(self.tf))) > TIME_TOL_REL * self.horizon:
            raise ValueError(
                f"t0={self.t0}, tf={self.tf}: one ulp of the times exceeds "
                f"{TIME_TOL_REL:g} of the horizon, the escape-time resolution"
            )
        _check_dimensions(self)
        for name in ("Q", "Q_f", "R_p", "R_e"):
            if not _asymmetry(getattr(self, name)) <= TOL_SYM:  # NaN from overflow too
                raise NonSymmetric(f"{name} not symmetric")
        # R_p^-1 B' and R_e^-1 C', the factors of the players' equilibrium
        # gains R^-1 B'P; read-only, as the game is frozen
        gains = []
        for name, M_name in (("R_p", "B"), ("R_e", "C")):
            M = getattr(self, M_name)
            try:
                G = np.linalg.solve(getattr(self, name), M.T)
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"{name} is not invertible ({exc})") from exc
            with np.errstate(over="ignore", invalid="ignore"):
                if not np.isfinite(M @ G).all():
                    raise ValueError(f"{M_name} {name}^-1 {M_name}' is not finite")
            G.setflags(write=False)
            gains.append(G)
        object.__setattr__(self, "_gains", tuple(gains))

    def __eq__(self, other):
        if not isinstance(other, GameSpec):
            return NotImplemented
        return (
            all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in ("A", "B", "C", "Q", "Q_f", "R_p", "R_e", "x0")
            )
            and self.t0 == other.t0
            and self.tf == other.tf
        )

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_p(self) -> int:
        return self.B.shape[1]

    @property
    def n_e(self) -> int:
        return self.C.shape[1]

    @property
    def horizon(self) -> float:
        return self.tf - self.t0

    @cached_property
    def _gap_flow(self):
        """The propagator of the gap flow's Hamiltonian, built once."""
        from .riccati import _Taylor, _gap_problem  # riccati imports this module
        return _Taylor(_gap_problem(self, self.tf, self.Q_f).hamiltonian)

    def pursuer_power(self) -> np.ndarray:
        """B R_p^-1 B', the rate at which the pursuer can steer the state."""
        return self.B @ self._gains[0]

    def evader_power(self) -> np.ndarray:
        """C R_e^-1 C', the rate at which the evader can steer the state."""
        return self.C @ self._gains[1]

    def controllability_gap(self) -> np.ndarray:
        """Evader power minus pursuer power; must be negative definite."""
        return self.evader_power() - self.pursuer_power()

    def checked_instants(self, instants) -> list[float]:
        """Communication instants as floats; raises UnsortedInstants unless
        they increase strictly inside the open horizon (t0, tf)."""
        instants = [float(t) for t in instants]
        if any(b <= a for a, b in zip(instants, instants[1:])):
            raise UnsortedInstants(f"instants not strictly increasing: {instants}")
        if instants and not (self.t0 < instants[0] and instants[-1] < self.tf):
            raise UnsortedInstants(
                f"instants must lie strictly inside ({self.t0}, {self.tf}): {instants}"
            )
        return instants


@dataclass(frozen=True)
class Violation:
    """One failed validation check with its measured margin."""

    name: str
    measured: float
    message: str
    severity: str = "error"  # "error" | "warning"


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    assumption1_max_eig: float
    violations: tuple[Violation, ...]


def validate_spec(spec: GameSpec) -> ValidationReport:
    """Measure the paper's assumptions on a game.

    The report lists every failed check with its measured margin: PSD
    state weights, PD effort weights, and controllability dominance, a
    warning because the game value can remain finite even when it fails.
    Nothing here raises on a defect: ``GameSpec`` refuses the structural
    ones when it is built, and the rest are violations.
    """
    violations: list[Violation] = []
    for name in ("Q", "Q_f"):
        min_eig = float(np.linalg.eigvalsh(getattr(spec, name))[0])
        if min_eig < -TOL_PSD:
            violations.append(
                Violation(
                    name=f"{name}_psd",
                    measured=min_eig,
                    message=f"{name} not positive semidefinite (min eig {min_eig:.3e})",
                )
            )
    for name in ("R_p", "R_e"):
        min_eig = float(np.linalg.eigvalsh(getattr(spec, name))[0])
        if min_eig <= 0.0:
            violations.append(
                Violation(
                    name=f"{name}_pd",
                    measured=min_eig,
                    message=f"{name} not positive definite (min eig {min_eig:.3e})",
                )
            )
    max_eig = float(np.linalg.eigvalsh(spec.controllability_gap())[-1])
    if max_eig >= -TOL_PSD:
        violations.append(
            Violation(
                name="controllability_dominance",
                measured=max_eig,
                message=(
                    "controllability gap not negative definite "
                    f"(max eig {max_eig:.3e}); not satisfied "
                    "(solution may still exist)"
                ),
                severity="warning",
            )
        )

    return ValidationReport(
        passed=not violations,
        assumption1_max_eig=max_eig,
        violations=tuple(violations),
    )


def example_one_spec() -> GameSpec:
    """The bundled worked example (CLI preset ``example1``).

    Planar pursuer and evader, both single integrators, unit horizon,
    terminal miss penalty ``|x_p(1) - x_e(1)|^2`` and effort weights 1/4
    (pursuer) and 1/2 (evader).  The evader input map is taken with
    positive sign so that the evader state integrates its own input
    directly; payoffs are invariant to that sign choice.
    """
    I2 = np.eye(2)
    Z2 = np.zeros((2, 2))
    return GameSpec(
        A=np.zeros((4, 4)),
        B=np.vstack([I2, Z2]),
        C=np.vstack([Z2, I2]),
        Q=np.zeros((4, 4)),
        Q_f=np.block([[I2, -I2], [-I2, I2]]),
        R_p=0.25 * I2,
        R_e=0.5 * I2,
        t0=0.0,
        tf=1.0,
        x0=np.array([0.0, 0.0, 1.0, 0.0]),
    )
