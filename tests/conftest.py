import os
from dataclasses import replace

# one BLAS thread for the small matrices of this suite, fixed before numpy
# is first imported: a threaded BLAS spends far longer starting its
# threads than on the arithmetic
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from pegame import escape, riccati  # noqa: E402
from pegame.game_model import GameSpec, example_one_spec  # noqa: E402
from pegame.riccati import solve_value_riccati  # noqa: E402
from pegame.simulator import Strategy  # noqa: E402


def _clean_spec(rng, n=3):
    """Random game satisfying controllability dominance with margin."""
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
    return GameSpec(
        A=A, B=B, C=C, Q=Q, Q_f=Q_f, R_p=R_p, R_e=R_e, t0=0.0, tf=1.0, x0=x0
    )


def _escape_spec(rng, n=2):
    """Random game whose gap flow escapes within a unit horizon while
    controllability dominance still holds (evader power just below the
    pursuer's)."""
    A = 0.6 * rng.standard_normal((n, n))
    B = np.eye(n)
    R_p = 0.25 * np.eye(n)  # pursuer power 4 I
    G = rng.standard_normal((n, n))
    S0 = G @ G.T
    S0 /= np.linalg.eigvalsh(S0)[-1]
    mu = 2.0 + 1.2 * rng.random()  # evader power peak in [2, 3.2)
    C = np.linalg.cholesky(mu * S0 + 1e-9 * np.eye(n))
    R_e = np.eye(n)
    H = rng.standard_normal((n, n))
    Q_f = H @ H.T / np.linalg.eigvalsh(H @ H.T)[-1] * (2.0 + 2.0 * rng.random())
    Q = 0.1 * np.eye(n)
    x0 = rng.standard_normal(n)
    return GameSpec(
        A=A, B=B, C=C, Q=Q, Q_f=Q_f, R_p=R_p, R_e=R_e, t0=0.0, tf=1.0, x0=x0
    )


def _unstable_spec(seed):
    """The clean n = 3 game of rng seed ``seed`` with 2 I added to its
    drift, over 40 time units."""
    spec = _clean_spec(np.random.default_rng(seed), n=3)
    return replace(spec, A=spec.A + 2.0 * np.eye(3), tf=40.0)


@pytest.fixture(scope="session")
def example_spec():
    return example_one_spec()


@pytest.fixture(scope="session")
def example_value_sol(example_spec):
    return solve_value_riccati(example_spec)


@pytest.fixture(scope="session")
def make_clean_spec():
    return _clean_spec


@pytest.fixture(scope="session")
def make_escape_spec():
    return _escape_spec


@pytest.fixture(scope="session")
def make_unstable_spec():
    return _unstable_spec


@pytest.fixture(scope="session")
def long_spec():
    """example1 with A = -0.3 I over 1000 time units: the value flow
    settles, and its gap flows escape twice within four time units of the
    end, where the value solve's nodes lie one time unit apart."""
    return replace(example_one_spec(), A=-0.3 * np.eye(4), tf=1000.0)


@pytest.fixture(scope="session")
def long_value_sol(long_spec):
    return solve_value_riccati(long_spec)


@pytest.fixture(scope="session")
def probed():
    """The certainty-equivalent pursuer plus an input series, the probe."""

    def make(probe):
        return replace(Strategy.certainty_equivalent(), w=probe)

    return make


@pytest.fixture
def counts(monkeypatch):
    """Every ``_Count`` built while the test runs: the plane counts of the
    value solve and the gap flows, and the slack counts."""
    made = []

    class Recorded(riccati._Count):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    # ``riccati._counts`` builds every count; escape's name is patched too,
    # so that a test patching ``escape._Count`` reaches only these
    monkeypatch.setattr(riccati, "_Count", Recorded)
    monkeypatch.setattr(escape, "_Count", Recorded)
    return made
