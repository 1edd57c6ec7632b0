"""Seeded game generators for the benchmark.

Three families, all drawn from ``numpy.random.default_rng`` so that one
seed always yields the same games:

* ``example1``: the bundled worked example (fixed, no randomness);
* clean: random games with controllability dominance held by a margin,
  n = 2-4, unit horizon (the family of acceptance criteria c08/c09);
* escape: random games whose gap flow escapes within a unit of time
  while dominance still holds (the family of c07/c10), so schedules need
  communications.  Each escape game comes from its own sub-seed; the
  ``design`` variant has n = 2-3 and horizon 1-4, the ``deviate``
  variant is c10's (n = 2, unit horizon).  ``census.py`` records the
  instant count N of every sub-seed, and the workloads draw sub-seeds
  by N.

The games are plain dictionaries in the CLI's JSON schema (version 1),
so the program receives nothing but the generated data.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

EXAMPLE1 = {"preset": "example1"}
MATRICES = ("A", "B", "C", "Q", "Q_f", "R_p", "R_e")


def _doc(tf: float, x0: np.ndarray, **matrices: np.ndarray) -> dict:
    return {
        "version": 1,
        **{name: m.tolist() for name, m in matrices.items()},
        "t0": 0.0,
        "tf": float(tf),
        "x0": x0.tolist(),
    }


def clean_game(rng: np.random.Generator, n: int) -> dict:
    """Random game whose value flow stays finite on [0, 1]."""
    A = 0.6 * rng.standard_normal((n, n))
    B = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    R_p = np.eye(n)
    n_e = max(1, n - 1)
    C = rng.standard_normal((n, n_e))
    R_e = np.eye(n_e)
    for _ in range(60):
        gap = C @ np.linalg.solve(R_e, C.T) - B @ np.linalg.solve(R_p, B.T)
        if np.linalg.eigvalsh(gap)[-1] < -0.3:
            break
        C = 0.8 * C
    H = rng.standard_normal((n, n))
    Q_f = H @ H.T / n
    G = rng.standard_normal((n, n))
    Q = 0.3 * G @ G.T / n
    x0 = rng.standard_normal(n)
    return _doc(1.0, x0, A=A, B=B, C=C, Q=Q, Q_f=_sym(Q_f), R_p=R_p, R_e=R_e)


def escape_game(rng: np.random.Generator, n: int, horizon: float) -> dict:
    """Random game whose gap flow escapes within a unit of time: the
    evader's power sits just below the pursuer's."""
    A = 0.6 * rng.standard_normal((n, n))
    B = np.eye(n)
    R_p = 0.25 * np.eye(n)
    G = rng.standard_normal((n, n))
    S0 = G @ G.T
    S0 /= np.linalg.eigvalsh(S0)[-1]
    mu = 2.0 + 1.2 * rng.random()
    C = np.linalg.cholesky(mu * S0 + 1e-9 * np.eye(n))
    R_e = np.eye(n)
    H = rng.standard_normal((n, n))
    Q_f = H @ H.T / np.linalg.eigvalsh(H @ H.T)[-1] * (2.0 + 2.0 * rng.random())
    Q = 0.1 * np.eye(n)
    x0 = rng.standard_normal(n)
    return _doc(horizon, x0, A=A, B=B, C=C, Q=Q, Q_f=_sym(Q_f), R_p=R_p, R_e=R_e)


def design_n(sub_seed: int) -> int:
    """State size of a ``design`` escape game: 2 or 3 by sub-seed parity."""
    return 2 + sub_seed % 2


def escape_game_from(family: str, sub_seed: int) -> dict:
    """The escape game of one sub-seed.  Family ``design``: n from
    ``design_n``, horizon uniform on [1, 4].  Family ``deviate``: n = 2,
    unit horizon, as in acceptance criterion c10."""
    rng = np.random.default_rng(sub_seed)
    if family == "design":
        return escape_game(rng, design_n(sub_seed), float(rng.uniform(1.0, 4.0)))
    return escape_game(rng, 2, 1.0)


def _sym(M: np.ndarray) -> np.ndarray:
    # exact symmetry keeps the JSON within the schema's symmetry check
    return 0.5 * (M + M.T)


def write_spec(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")
