"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload design --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
its ``src/`` directory.  With ``--trace 0`` the last stdout line holds
the end-to-end metrics, measured untraced; with ``--trace 1`` it holds
the per-layer metrics of a traced run.  Set-up is measured three times,
here and in two fresh interpreters (``--setup-probe``), and its median
is reported, so work moved into imports or set-up shows.  Spans of a
traced run go to ``.perfbench/spans-<workload>.npz``.

Exits non-zero, with no result line, when the program cannot be imported
from this checkout.
"""
import os
import sys
from time import perf_counter

_START = perf_counter()
# one BLAS thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("design", "verify", "deviate")
SETUP_PROBES = 2


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up once, print the set-up seconds and exit")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import pegame from this checkout's src/, nowhere else."""
    if not (SRC / "pegame" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'pegame'}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import pegame

    if SRC not in Path(pegame.__file__).resolve().parents:
        raise SystemExit(f"perfbench: pegame imported from {pegame.__file__}, not {SRC}")
    from perfbench import bench

    return bench


def probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = import_program()
    OUT.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        from perfbench.trace import Tracer

        tracer = Tracer()
        tracer.install()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = bench.setup(args.workload, args.seed, Path(workdir))
        setup_s = perf_counter() - _START
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        run = bench.timed_run(workload, args.seconds, tracer)

    record = bench.run_record()
    if tracer is None:
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
        metrics = bench.end_to_end(run, statistics.median(setups))
        record["setup_samples_s"] = setups
    else:
        tracer.uninstall()
        metrics = bench.per_layer(run, tracer, workload)
        tracer.write(OUT / f"spans-{args.workload}.npz")
    record.update(workload.record(), workload=args.workload, seed=args.seed,
                  trace=args.trace, run=run)
    print("# run record " + json.dumps(record))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
