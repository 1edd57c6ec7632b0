"""Set-up, the timed closed loop, and the metrics of one run.

One client runs ops back to back (a closed loop) on one thread in one
process.  The timed run starts only after set-up and stops at the first
op boundary past ``seconds`` that ends a whole pass of the workload
(``pass_ops`` ops), so every run meets its mix of op kinds and input
costs in equal shares.
"""
from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from . import workloads
from .trace import LAYERS, Tracer

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

_TRACED_FUNCTIONS = (
    "cli.main",
    "game_model.validate_spec",
    "riccati.solve_value_riccati",
    "riccati.solve_riccati",
    "riccati.eval_solution",
    "escape.detect_escape_radon",
    "escape.detect_escape_norm",
    "scheduler.optimal_schedule",
    "scheduler.max_next_instance",
    "scheduler.check_admissibility",
    "simulator.simulate",
    "simulator.transition_flow",
    "simulator.deviation_sweep",
    "simulator.deviation_gain_check",
    "simulator.risky_strategy",
)

PER_LAYER = {
    **{f"{f}.{m}": u for f in _TRACED_FUNCTIONS for m, u in (("calls", "count"), ("self_s", "s"))},
    "riccati.value_nodes": "count",
    "riccati.rhs.calls": "count",
    "escape.detect_escape_radon.found_ratio": "ratio",
    "scheduler.optimal_schedule.instants": "count",
    "scheduler.radon_calls_in_schedule": "count",
    "scheduler.radon_calls_per_instant": "calls/instant",
    "scheduler.instants_not_below_slack_sup": "count",
    "simulator.simulate.nodes": "count",
    "simulator.gain_square_mismatch": "count",
    "simulator.risky_ladder_lost": "count",
    **{f"{layer}.raised": "count" for layer in LAYERS},
    "trace.ops": "count",
    "trace.ops_per_s": "ops/s",
    "trace.fail_frac": "ratio",
    "trace.spans": "count",
}


def run_record() -> dict:
    """Where and how the run was made; every self_s is with wrappers on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "processes": 1,
        "threads": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "self_s": "measured with tracing wrappers on",
    }


def setup(name: str, seed: int, workdir: Path):
    """Generate the inputs and run one warm-up op (op 0, untimed)."""
    workload = workloads.make(name, seed, workdir)
    workload.op(0)
    workload.reset()
    return workload


def timed_run(workload, seconds: float, tracer: Tracer | None = None,
              max_ops: int | None = None) -> dict:
    """Run ops from op 0 until ``seconds`` have passed at a pass's end."""
    pass_ops = workload.pass_ops
    latencies: list[float] = []
    by_kind: dict[str, list[float]] = {}
    failed = 0
    k = 0
    start = perf_counter()
    while True:
        t = perf_counter()
        try:
            if tracer is None:
                workload.op(k)
            else:
                tracer.current_op = k
                with tracer.span(f"op.{workload.kind(k)}"):
                    workload.op(k)
        except Exception as exc:  # noqa: BLE001 - the op boundary must keep going
            failed += 1
            if failed <= 3:
                print(f"op {k} ({workload.kind(k)}) failed: {exc!r}", file=sys.stderr)
                if not isinstance(exc, workloads.CheckFailed):
                    traceback.print_exc(file=sys.stderr)
        latencies.append(perf_counter() - t)
        by_kind.setdefault(workload.kind(k), []).append(latencies[-1])
        k += 1
        if max_ops is not None:
            if k >= max_ops:
                break
        elif k % pass_ops == 0 and perf_counter() - start >= seconds:
            break
    if tracer is not None:
        tracer.current_op = -1
    elapsed = perf_counter() - start
    return {
        "attempted": k,
        "failed": failed,
        "elapsed_s": elapsed,
        "ops_per_s": (k - failed) / elapsed,
        "op_p50_s": statistics.median(latencies),
        "op_s_by_kind": by_kind,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: dict, setup_s: float) -> dict:
    values = {
        "ops_per_s": run["ops_per_s"],
        "op_p50_s": run["op_p50_s"],
        "ok_frac": 1.0 - run["failed"] / run["attempted"],
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(run: dict, tracer: Tracer, workload) -> dict:
    table = tracer.layer_table()
    counts = tracer.counts
    values: dict[str, float] = {}
    for f in _TRACED_FUNCTIONS:
        row = table.get(f, {"calls": 0, "self_s": 0.0})
        values[f"{f}.calls"] = row["calls"]
        values[f"{f}.self_s"] = row["self_s"]
    radon = values["escape.detect_escape_radon.calls"]
    instants = counts["scheduler.optimal_schedule.instants"]
    in_schedule = tracer.calls_under("escape.detect_escape_radon", "scheduler.optimal_schedule")
    values.update({
        "riccati.value_nodes": counts["riccati.value_nodes"],
        "riccati.rhs.calls": counts["riccati.rhs.calls"],
        "escape.detect_escape_radon.found_ratio":
            counts["escape.detect_escape_radon.found"] / radon if radon else 0.0,
        "scheduler.optimal_schedule.instants": instants,
        "scheduler.radon_calls_in_schedule": in_schedule,
        "scheduler.radon_calls_per_instant": in_schedule / instants if instants else 0.0,
        "scheduler.instants_not_below_slack_sup":
            workload.counts.get("instants_not_below_slack_sup", 0),
        "simulator.simulate.nodes": counts["simulator.simulate.nodes"],
        **{f"simulator.{k}": workload.counts.get(k, 0)
           for k in ("gain_square_mismatch", "risky_ladder_lost")},
        **{f"{layer}.raised": counts[f"{layer}.raised"] for layer in LAYERS},
        "trace.ops": run["attempted"],
        "trace.ops_per_s": run["ops_per_s"],
        "trace.fail_frac": run["failed"] / run["attempted"],
        "trace.spans": int(sum(1 for op in tracer.op if op >= 0)),
    })
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
