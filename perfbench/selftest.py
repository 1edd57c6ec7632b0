"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Smoke: each workload runs briefly, untraced and traced, and prints
   every metric by name with its unit; the names and units must be the
   ones ``BENCHMARK.json`` declares.
2. The checker fails a verify op whose payoff is perturbed by 1e-3, and
   passes the same op unperturbed.
3. Two traced runs with one seed and a fixed op count give identical
   ``.calls``, ``riccati.value_nodes`` and ``simulator.simulate.nodes``.
4. A lost risky ladder is counted on every deviate game and fails the op
   on each game that the census does not list as a known loss.

Exits 0 when every check holds.
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # sits beside this file; pins BLAS threads before numpy loads

bench = run.import_program()

from perfbench import trace, workloads  # noqa: E402

SEED = 0
RISKY_SEED = 4   # its deviate games include listed and unlisted ones
DETERMINISM_OPS = {"design": 2, "verify": 1, "deviate": 3}


def declared() -> dict:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in doc["end_to_end"]},
        1: {m["name"]: m["unit"] for m in doc["per_layer"]},
    }


def smoke() -> None:
    names = declared()
    assert names[0] == bench.END_TO_END, "BENCHMARK.json end_to_end differs from bench.py"
    assert names[1] == bench.PER_LAYER, "BENCHMARK.json per_layer differs from bench.py"
    for workload in run.WORKLOADS:
        for traced in (0, 1):
            cmd = [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
                   "--seed", str(SEED), "--seconds", "0.1", "--trace", str(traced)]
            done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                                  timeout=300, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == names[traced], f"{workload} trace {traced}: {sorted(got)}"
            for name, m in result["metrics"].items():
                print(f"{workload} trace={traced} {name} {m['value']!r} {m['unit']}")


def perturbed_payoff_fails() -> None:
    simulator = workloads.simulator
    original = simulator.payoff_two_ways
    verify = workloads.make("verify", SEED, None)
    verify.op(0)

    def off_by_1e_3(traj, spec, value_sol):
        direct, completed = original(traj, spec, value_sol)
        return direct + 1e-3, completed

    simulator.payoff_two_ways = off_by_1e_3
    try:
        verify.op(0)
    except workloads.CheckFailed as exc:
        print(f"perturbed payoff rejected: {exc}")
    else:
        raise AssertionError("a payoff perturbed by 1e-3 passed the check")
    finally:
        simulator.payoff_two_ways = original


def traced_counts(workload: str) -> dict:
    tracer = trace.Tracer()
    tracer.install()
    try:
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            wl = bench.setup(workload, SEED, Path(tmp))
            result = bench.timed_run(wl, 0.0, tracer, max_ops=DETERMINISM_OPS[workload])
    finally:
        tracer.uninstall()
    metrics = bench.per_layer(result, tracer, wl)
    return {
        k: m["value"] for k, m in metrics.items()
        if k.endswith(".calls") or k in ("riccati.value_nodes", "simulator.simulate.nodes")
    }


def counts_repeat() -> None:
    for workload in run.WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        assert first == second, f"{workload}: traced counts differ between runs"
        print(f"{workload}: {len(first)} counts repeat exactly over "
              f"{DETERMINISM_OPS[workload]} ops")


def risky_loss_gated() -> None:
    deviate = workloads.make("deviate", RISKY_SEED, None)
    listed = sum(sub_seed in deviate.known_losses for sub_seed, *_ in deviate.games)
    assert 0 < listed < deviate.rounds, "the seed must mix listed and unlisted games"
    original = workloads.risky_ladder
    workloads.risky_ladder = lambda spec: False
    try:
        for round_, (sub_seed, *_) in enumerate(deviate.games):
            try:
                deviate.op(round_ * len(deviate.kinds) + deviate.kinds.index("risky"))
            except workloads.CheckFailed:
                assert sub_seed not in deviate.known_losses, f"listed game {sub_seed} failed"
            else:
                assert sub_seed in deviate.known_losses, f"unlisted game {sub_seed} passed"
    finally:
        workloads.risky_ladder = original
    assert deviate.counts["risky_ladder_lost"] == deviate.rounds
    print(f"risky losses counted on {deviate.rounds} games and gated off the census list")


def main() -> int:
    smoke()
    perturbed_payoff_fails()
    counts_repeat()
    risky_loss_gated()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
