#!/usr/bin/env python3
"""End-to-end walkthrough of the bundled planar pursuit game.

Solves the value flow, computes the minimum-communication schedule and its
slack, plays the game under the schedule, then demonstrates what the
evader extracts when the pursuer skips the communication: the constant
deviation sweep and the two-phase risky deviation.  Writes CSV artifacts
next to the printed summary.
"""
import argparse
import os

# one BLAS thread, fixed before numpy is first imported: on matrices this
# small a threaded BLAS spends far longer starting its threads than on the
# arithmetic
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from pegame.cli import write_matrix_csv, write_trajectory_csv  # noqa: E402
from pegame.game_model import example_one_spec, validate_spec  # noqa: E402
from pegame.riccati import solve_value_riccati  # noqa: E402
from pegame.scheduler import optimal_schedule  # noqa: E402
from pegame.simulator import (  # noqa: E402
    Strategy,
    deviation_sweep,
    game_value,
    payoff_two_ways,
    risky_strategy,
    simulate,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="artifact directory")
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    spec = example_one_spec()
    report = validate_spec(spec)
    print(f"validation passed={report.passed}")
    for v in report.violations:
        print(f"  [{v.severity}] {v.message}")

    value_sol = solve_value_riccati(spec)
    write_matrix_csv(os.path.join(args.outdir, "value_flow.csv"), value_sol)
    value = game_value(spec, value_sol)
    print(f"game value x0'P(t0)x0 = {value:.6f}")

    sched = optimal_schedule(spec, value_sol)
    print(f"minimum communications N = {sched.N} at {list(sched.instants)}")
    print(f"delay suprema per instant: {list(sched.slack_sup)}")

    traj = simulate(
        spec,
        value_sol,
        sched,
        Strategy.certainty_equivalent(),
        Strategy.evader_equilibrium(),
    )
    direct, completed = payoff_two_ways(traj, spec, value_sol)
    write_trajectory_csv(os.path.join(args.outdir, "equilibrium_run.csv"), traj)
    print(f"payoff under the schedule: direct {direct:.6f}, squared {completed:.6f}")

    cs = [0.0, 0.5, 1.0, 2.0, 4.0]
    payoffs = deviation_sweep(spec, cs)
    print("committed (open-loop) pursuer vs constant deviations:")
    for c, p in zip(cs, payoffs):
        print(f"  c={c:<4} payoff={p:.4f}")

    print("risky two-phase deviation when no communication ever happens:")
    for scale in (0.0, 1.0, 2.0, 4.0, 8.0):
        strat = risky_strategy(spec, value_sol, (spec.t0, spec.tf), scale=scale)
        run = simulate(
            spec, value_sol, [], Strategy.certainty_equivalent(), strat
        )
        print(f"  kick scale={scale:<4} payoff={run.payoff_direct:.3f}")
        if scale == 8.0:
            write_trajectory_csv(
                os.path.join(args.outdir, "risky_run.csv"), run
            )
    print(f"artifacts in {args.outdir}/")


if __name__ == "__main__":
    main()
