"""The three workloads: inputs built at set-up, ops, and per-op checks.

An op is one unit of user work.  Every op calls the library through the
``pegame`` module attributes at call time (``simulator.simulate(...)``,
never a name imported once), so the tracer's wrappers see the calls.
An op either returns normally, having passed its checks, or raises;
``CheckFailed`` marks an output that ran but failed its check.

Check tolerances come from ``tests/test_acceptance.py`` (c03-c10).

* design -- ``pegame schedule`` then ``pegame check-schedule --strict``
  through ``pegame.cli.main`` on a random escape game (n = 2-3, horizon
  1-4; example1 first), then a norm-detector cross-check of the
  interval ending at ``tf``.  The scheduler's radon detector and its
  slack bisection dominate; the simulator does no work.
* verify -- the two-way payoff check on a random clean game (n = 2-4):
  one certainty-equivalent/equilibrium run under random instants and one
  zero-order-hold open-loop run.  The simulator's per-step Python
  dominates; the escape detectors and the scheduler make no calls.
* deviate -- rounds of three experiments on c10's escape games: a
  deviation gain check on a random certified interval, a risky deviation
  ladder (scales 0, 4, 8) on the schedule minus its first instant, and
  an example1 deviation sweep against the open-loop pursuer.  The
  time-varying error-value flow calls ``eval_solution`` inside every
  right-hand side, and each game runs several simulations on one value
  solution.

An op's cost follows a few input properties: the instant count N and
the state size n on design, n and the number of instants on verify.
Design and verify run their ops in a fixed sequence of those properties,
the same for every seed; the seed picks the games that fill it.  So a
run of a given length meets the same mix of costs whatever the seed, and
seeds differ only in the games themselves.

Two program defects show on deviate's inputs; their cases are run and
counted rather than left out (see ``Deviate``).
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import pegame.cli as cli
import pegame.escape as escape
import pegame.game_model as game_model
import pegame.riccati as riccati
import pegame.scheduler as scheduler
import pegame.simulator as simulator

from . import games

DETECTOR_AGREEMENT = 1e-6   # c07
PAYOFF_TWO_WAYS = 1e-5      # c08, relative
PAYOFF_VALUE = 1e-4         # c03 / c10, relative
SWEEP_FORMULA = 1e-3        # c04
GAIN_SIGN = 1e-8            # c09
GAIN_SQUARE = 1e-6          # c09, relative
RISKY_EXPONENT = 1.9        # c10
EXAMPLE1_T1 = 1e-3          # c05
EXAMPLE1_SLACK = 1e-3       # c06


class CheckFailed(Exception):
    """An op ran but its output failed a check."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# instants are checked against their slack supremum to this share of the
# horizon, the scheduler's bisection tolerance when the benchmark was made
SLACK_TOL_REL = 1e-4

# design's escape games per pass, at evenly spaced quantiles of the census
DESIGN_SLOTS = 6
PASSES = 2   # slot sequences generated at set-up, each with its own games


def census(family: str) -> dict:
    """The census of one escape family; see ``census.py``."""
    return json.loads(Path(__file__).with_name("census.json").read_text())[family]


class _Base:
    """Inputs of one workload; ``op(k)`` runs the k-th op."""

    kinds: tuple[str, ...]
    pass_ops = 1   # ops whose mix of costs repeats; a timed run ends on a pass

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.counts: dict[str, int] = {}

    def kind(self, k: int) -> str:
        return self.kinds[k % len(self.kinds)]

    def bump(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def reset(self) -> None:
        """Forget what the warm-up op counted."""
        self.counts.clear()

    def record(self) -> dict:
        """Facts about the inputs the timed ops met, for the run record."""
        return {}


def spec_of(doc: dict):
    if "preset" in doc:
        return game_model.example_one_spec()
    fields = {k: np.array(v) for k, v in doc.items() if k in games.MATRICES}
    return game_model.GameSpec(t0=doc["t0"], tf=doc["tf"], x0=np.array(doc["x0"]), **fields)


def _cli(argv: list[str]) -> tuple[int, dict | None, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    return code, (json.loads(text) if text else None), err.getvalue().strip()


class Design(_Base):
    """A pass is example1 and then DESIGN_SLOTS escape games, one per
    (N, n) slot; the slots are the census games' (N, n) at evenly spaced
    quantiles, and the seed draws each slot's game from the census games
    with that exact (N, n)."""

    kinds = ("design",)
    pass_ops = 1 + DESIGN_SLOTS

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed)
        by_slot: dict[tuple[int, int], list[int]] = {}
        for s, n_instants in census("design")["N"].items():
            by_slot.setdefault((n_instants, games.design_n(int(s))), []).append(int(s))
        ranked = sorted(slot for slot, subs in by_slot.items() for _ in subs)
        slots = [ranked[(2 * i + 1) * len(ranked) // (2 * DESIGN_SLOTS)]
                 for i in range(DESIGN_SLOTS)]
        docs = []
        for _ in range(PASSES):
            docs.append(games.EXAMPLE1)
            docs += [games.escape_game_from("design", int(self.rng.choice(by_slot[slot])))
                     for slot in slots]
        self.games = []
        for k, doc in enumerate(docs):
            path = workdir / f"design_{k:03d}.json"
            games.write_spec(doc, path)
            self.games.append((str(path), spec_of(doc), "preset" in doc))
        self.instants: list[int] = []

    def reset(self) -> None:
        super().reset()
        self.instants.clear()

    def record(self) -> dict:
        return {"design_instants_N": self.instants}

    def op(self, k: int) -> None:
        path, spec, is_example = self.games[k % len(self.games)]
        code, doc, err = _cli(["schedule", "--spec", path])
        check(code == 0 and doc is not None, f"schedule exit {code}: {err}")
        instants, sup = doc["instants"], doc["slack_sup"]
        self.instants.append(len(instants))
        check(
            all(not c["escape_found"] for c in doc["certificates"]),
            "schedule not admissible",
        )
        check(len(sup) == len(instants), "one slack supremum per instant")
        # slack_sup is a bisection midpoint, accurate to the bisection
        # tolerance; instants squeezed by their successor sit within that of
        # the true supremum, so the strict order is counted, not gated
        tol = SLACK_TOL_REL * spec.horizon
        check(
            all(t < s + tol for t, s in zip(instants, sup)),
            "an instant lies above its slack supremum",
        )
        self.bump("instants_not_below_slack_sup", sum(t >= s for t, s in zip(instants, sup)))
        code, doc2, err = _cli(
            ["check-schedule", "--spec", path, "--instants",
             ",".join(repr(t) for t in instants), "--strict"]
        )
        check(code == 0 and doc2 is not None and doc2["pass"], f"check-schedule exit {code}: {err}")

        sol = riccati.solve_value_riccati(spec)
        norm = escape.detect_escape_norm(
            riccati.make_gap_problem(spec, sol, spec.tf), spec.t0
        )
        if instants:
            radon_escape = instants[-1] - doc["margin"]
            check(
                norm.found and abs(norm.t_escape - radon_escape) <= DETECTOR_AGREEMENT,
                "norm and determinant detectors disagree",
            )
        else:
            check(not norm.found, "norm detector finds an escape the schedule missed")
        if is_example:
            check(len(instants) == 1, "example1 needs one communication")
            check(
                0.5 <= instants[0] <= 0.5 + doc["margin"] + EXAMPLE1_T1,
                "example1 instant not at 1/2",
            )
            check(abs(sup[0] - 0.75) <= EXAMPLE1_SLACK, "example1 slack not 3/4")


class Verify(_Base):
    """Nine clean games, one for each pair of state size n = 2-4 and
    instant count 1-3, in a fixed order.  Their ops cost alike (within 4%),
    so a timed run may end after any op."""

    kinds = ("verify",)
    slots = [(2 + k % 3, 1 + (k + k // 3) % 3) for k in range(9)]

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed)
        self.games = []
        for n, count in self.slots * PASSES:
            spec = spec_of(games.clean_game(self.rng, n))
            instants = np.sort(self.rng.uniform(spec.t0, spec.tf, count)).tolist()
            up = _zoh(self.rng, spec.t0, spec.tf, spec.n_p)
            ue = _zoh(self.rng, spec.t0, spec.tf, spec.n_e)
            self.games.append((spec, instants, up, ue))

    def op(self, k: int) -> None:
        spec, instants, up, ue = self.games[k % len(self.games)]
        sol = riccati.solve_value_riccati(spec)
        value = simulator.game_value(spec, sol)
        traj = simulator.simulate(
            spec, sol, instants,
            simulator.Strategy.certainty_equivalent(),
            simulator.Strategy.evader_equilibrium(),
        )
        direct, completed = simulator.payoff_two_ways(traj, spec, sol)
        check(_rel(direct, completed) <= PAYOFF_TWO_WAYS, "equilibrium payoff two ways disagree")
        check(_rel(direct, value) <= PAYOFF_VALUE, "equilibrium payoff is not the game value")
        traj = simulator.simulate(
            spec, sol, [],
            simulator.Strategy.pursuer_open_loop(_series(*up)),
            simulator.Strategy.evader_open_loop(_series(*ue)),
        )
        direct, completed = simulator.payoff_two_ways(traj, spec, sol)
        check(_rel(direct, completed) <= PAYOFF_TWO_WAYS, "open-loop payoff two ways disagree")


class Deviate(_Base):
    """Rounds of a gain check, a risky ladder and a sweep, one c10 game
    per round.

    Two program defects show on these inputs.  Their cases are run and
    counted in per-layer counters, and the op is failed only where the
    program is known to be right:

    * on a certified interval that starts at an instant (every one but
      the leading interval), the gain and its completed square mostly
      disagree by more than c09's 1e-6 relative, up to 1e-4 at the
      default step.
      ``gain_square_mismatch`` counts each disagreement, and one on the
      leading interval fails the op;
    * on the census's ``risky_fails`` games the default risky deviation
      loses, quadratically in its scale.  ``risky_ladder_lost`` counts
      each ladder lost, and a loss on any other game fails the op.
    """

    kinds = ("gain", "risky", "sweep")
    pass_ops = len(kinds)
    rounds = 4   # games generated at set-up; a run covers three or four

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed)
        self.example = game_model.example_one_spec()
        # c10's games, whose checks these experiments borrow: unit horizon
        # and 1 <= N <= 4, as the risky ladder drops the first instant
        deviate = census("deviate")
        self.known_losses = set(deviate["risky_fails"])
        pool = sorted(int(s) for s, n in deviate["N"].items() if 1 <= n <= 4)
        self.games = []
        for sub_seed in self.rng.choice(pool, self.rounds, replace=False):
            spec = spec_of(games.escape_game_from("deviate", int(sub_seed)))
            interval = int(self.rng.integers(0, deviate["N"][str(sub_seed)] + 1))
            knots = self.rng.random(4)
            values = self.rng.standard_normal((5, spec.n_e))
            self.games.append((int(sub_seed), spec, interval, knots, values))
        # two deviation sizes keep a sweep (about 3 s) between a gain check
        # (about 1 s) and a risky ladder (about 6 s), so the median op of a
        # run does not flip between kinds
        self.c_values = [self.rng.uniform(0.0, 2.0, 2) for _ in range(self.rounds)]

    def op(self, k: int) -> None:
        round_, kind = divmod(k, len(self.kinds))
        sub_seed, spec, interval, knots, values = self.games[round_ % self.rounds]
        if self.kinds[kind] == "gain":
            self._gain(spec, interval, knots, values)
        elif self.kinds[kind] == "risky":
            if not risky_ladder(spec):
                self.bump("risky_ladder_lost")
                check(sub_seed in self.known_losses, "risky deviation does not gain")
        else:
            self._sweep(self.c_values[round_ % self.rounds])

    def _gain(self, spec, interval, knots, values) -> None:
        sol, sched = _schedule(spec)
        ends = [spec.t0, *sched.instants, spec.tf]
        interval %= len(ends) - 1
        a, b = ends[interval], ends[interval + 1]
        w = _series(np.concatenate([[a], a + (b - a) * np.sort(knots)]), values)
        gain, square = simulator.deviation_gain_check(spec, sol, (a, b), w)
        check(gain <= GAIN_SIGN, f"deviation gain {gain:.3e} is positive")
        if _rel(gain, square) > GAIN_SQUARE:
            self.bump("gain_square_mismatch")
            check(interval > 0, "gain and completed square disagree on the leading interval")

    def _sweep(self, c_values) -> None:
        payoffs = simulator.deviation_sweep(self.example, c_values)
        worst = max(
            abs(p - (0.5 * c * c + 2.0 * c / 3.0 + 5.0 / 9.0))
            for c, p in zip(c_values, payoffs)
        )
        check(worst <= SWEEP_FORMULA, f"sweep off c^2/2 + 2c/3 + 5/9 by {worst:.2e}")


def _schedule(spec):
    sol = riccati.solve_value_riccati(spec)
    sched = scheduler.optimal_schedule(spec, sol, compute_slack=False)
    check(sched.admissible, "schedule not admissible")
    return sol, sched


def risky_ladder(spec) -> bool:
    """Whether risky deviations of scale 0, 4 and 8 against the schedule
    minus its first instant gain, quadratically in the scale (c10)."""
    sol, sched = _schedule(spec)
    check(sched.N >= 1, "escape game needs a communication")
    broken = sched.instants[1:]
    certs = scheduler.check_admissibility(spec, sol, broken)
    failing = [c for c in certs if not c.passed]
    check(bool(failing), "dropping the first instant left the schedule admissible")
    interval = (failing[0].t_start, failing[0].t_end)
    payoffs = []
    for scale in (0.0, 4.0, 8.0):
        evader = simulator.risky_strategy(spec, sol, interval, scale=scale)
        traj = simulator.simulate(
            spec, sol, broken, simulator.Strategy.certainty_equivalent(), evader
        )
        payoffs.append(traj.payoff_direct)
    gains = [p - payoffs[0] for p in payoffs[1:]]
    return all(g > 0 for g in gains) and math.log2(gains[1] / gains[0]) >= RISKY_EXPONENT


def _rel(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + abs(a))


def _zoh(rng, t0: float, tf: float, n: int, knots: int = 5):
    times = np.concatenate([[t0], np.sort(rng.uniform(t0, tf, knots - 1))])
    return times, rng.standard_normal((knots, n))


def _series(times, values):
    return simulator.piecewise_constant(times, values)


def make(name: str, seed: int, workdir: Path) -> _Base:
    return {"design": Design, "verify": Verify, "deviate": Deviate}[name](seed, workdir)
