"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces each public function of the ``pegame``
layer modules with a wrapper, at every place a ``pegame`` module binds
it (``pegame.scheduler.detect_escape_radon`` is the same function as
``pegame.escape.detect_escape_radon``, so both names get the wrapper).
``RiccatiProblem.rhs`` gets a counting wrapper without a span: it runs
thousands of times per solve.  Nothing in the package is edited;
``uninstall()`` puts every original back.

Each wrapped call records one span (name, start, end, parent span, op
id) in flat arrays held in memory; ``write()`` saves them when the run
ends.  Self time is a span's duration minus the time its direct child
spans cover, which on one thread is the sum of their durations.  Every
time here is measured with the wrappers on.
"""
from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "game_model", "riccati", "escape", "scheduler", "simulator")

# wrapped function -> (counter, count taken from its return value)
_RESULT_COUNTS = {
    "riccati.solve_value_riccati": ("riccati.value_nodes", lambda r: len(r.grid)),
    "escape.detect_escape_radon": ("escape.detect_escape_radon.found", lambda r: int(r.found)),
    "scheduler.optimal_schedule": ("scheduler.optimal_schedule.instants", lambda r: r.N),
    "simulator.simulate": ("simulator.simulate.nodes", lambda r: len(r.t)),
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self.current_op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one op."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        tracer = self
        nid = self._name_id(name)
        layer = name.split(".", 1)[0]
        result_count = _RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if tracer.current_op >= 0:
                    tracer.counts[f"{layer}.raised"] += 1
                raise
            finally:
                tracer._close(idx)
            if result_count is not None and tracer.current_op >= 0:
                tracer.counts[result_count[0]] += result_count[1](result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "pegame" or name.startswith("pegame.")
        }
        for layer in LAYERS:
            mod = modules[f"pegame.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for other in modules.values():
                    for bound, value in list(vars(other).items()):
                        if value is fn:
                            self._restore.append((other, bound, fn))
                            setattr(other, bound, wrapper)

        problem_cls = modules["pegame.riccati"].RiccatiProblem
        rhs = problem_cls.rhs
        tracer = self

        def counted_rhs(problem, t, X):
            if tracer.current_op >= 0:
                tracer.counts["riccati.rhs.calls"] += 1
            return rhs(problem, t, X)

        self._restore.append((problem_cls, "rhs", rhs))
        problem_cls.rhs = counted_rhs

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per span name, timed ops only."""
        name, parent, op = np.array(self.name), np.array(self.parent), np.array(self.op)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        timed = op >= 0
        table = {}
        for nid, label in enumerate(self.names):
            mask = timed & (name == nid)
            table[label] = {
                "calls": int(mask.sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return table

    def calls_under(self, callee: str, ancestor: str) -> int:
        """Timed calls of ``callee`` made, at any depth, inside ``ancestor``."""
        if callee not in self._ids or ancestor not in self._ids:
            return 0
        cid, aid = self._ids[callee], self._ids[ancestor]
        found = 0
        for idx in range(len(self.name)):
            if self.name[idx] != cid or self.op[idx] < 0:
                continue
            p = self.parent[idx]
            while p >= 0 and self.name[p] != aid:
                p = self.parent[p]
            found += p >= 0
        return found

    def write(self, path: Path) -> None:
        """Save every span and counter; self times are derivable from it."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent),
            op=np.array(self.op),
            counter_names=np.array(sorted(self.counts)),
            counter_values=np.array([self.counts[k] for k in sorted(self.counts)]),
        )
