"""Census of the escape-game families, written to ``census.json``.

    python3 perfbench/census.py

For every sub-seed of ``games.escape_game_from`` it records the instant
count N of the game's schedule (``optimal_schedule`` without slack,
which emits the same instants as the default), and any exception.

* design: a design op costs about 0.8 s plus 0.14 s per instant, and N
  runs from 0 to about 30, so a run of sixteen freely drawn games moves
  its throughput by a quarter from seed to seed.  The design workload
  therefore runs a fixed sequence of (N, n) slots taken from this census
  and lets the seed pick only the games that fill them.
* deviate: for each game with 1 <= N <= 4 the census also runs the risky
  ladder of ``workloads.risky_ladder`` and lists the games on which it
  loses under ``risky_fails``.  On those games the default risky
  deviation loses, quadratically in its scale, against acceptance
  criterion c10.  The deviate workload runs them too, counts each loss,
  and fails an op only on a loss outside this list.
"""
import json
import sys

import run  # sits beside this file; pins BLAS threads before numpy loads

run.import_program()

import pegame.riccati as riccati  # noqa: E402
import pegame.scheduler as scheduler  # noqa: E402
from perfbench import games, workloads  # noqa: E402

PATH = run.ROOT / "perfbench" / "census.json"
GAMES = {"design": 240, "deviate": 120}


def main() -> int:
    doc = {}
    for family, count in GAMES.items():
        counts, raised, risky_fails = {}, {}, []
        for sub_seed in range(count):
            spec = workloads.spec_of(games.escape_game_from(family, sub_seed))
            try:
                sol = riccati.solve_value_riccati(spec)
                counts[sub_seed] = scheduler.optimal_schedule(spec, sol, compute_slack=False).N
            except Exception as exc:  # noqa: BLE001 - a census records every outcome
                raised[sub_seed] = f"{type(exc).__name__}: {exc}"
                continue
            if family == "deviate" and 1 <= counts[sub_seed] <= 4:
                if not workloads.risky_ladder(spec):
                    risky_fails.append(sub_seed)
        doc[family] = {"N": counts, "raised": raised, "risky_fails": risky_fails}
        print(f"{family}: {len(counts)} games, {len(raised)} raised, "
              f"{len(risky_fails)} risky ladders lost; N histogram:",
              {n: list(counts.values()).count(n) for n in sorted(set(counts.values()))})
    PATH.write_text(json.dumps(doc, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
