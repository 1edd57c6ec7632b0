"""Run every workload untraced and then traced, and print all metrics.

    python3 perfbench/report.py --seed 1

Each run lasts BENCHMARK.json's ``run_seconds``.  For each workload this
prints the end-to-end metrics of an untraced run
by name with units (and fail_frac, the failed share of attempted ops),
the per-layer metrics of a separate traced run with the same seed, and
the tracing overhead: traced against untraced ops_per_s.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def show(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    for workload in WORKLOADS:
        plain = run(workload, args.seed, seconds, 0)
        traced = run(workload, args.seed, seconds, 1)
        print(f"== {workload}: seed {args.seed}, {seconds} s, end to end (untraced)")
        show(plain["metrics"])
        print(f"  {'fail_frac':48s} {plain['failed'] / plain['attempted']:.6g} ratio "
              f"({plain['failed']} of {plain['attempted']} ops)")
        print(f"== {workload}: per layer (traced run; self_s measured with wrappers on)")
        show(traced["metrics"])
        fast = plain["metrics"]["ops_per_s"]["value"]
        slow = traced["metrics"]["trace.ops_per_s"]["value"]
        print(f"== {workload}: tracing overhead {1.0 - slow / fast:+.1%} "
              f"(traced {slow:.4g} against untraced {fast:.4g} ops/s)\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
