"""Configuration loading, command dispatch, and result serialization.

Game specs travel as JSON (schema version 1): matrices are row-major
nested arrays, times and scalars are numbers, and ``{"preset":
"example1"}`` loads the bundled worked example.  Reports are printed to
stdout with floats at 17 significant digits so identical configurations
produce byte-identical output.  Each command's arguments are declared
once, in ``_COMMANDS``; the parser is built from that table, and each
handler does only its command's own work.  ``main`` loads the spec,
stamps the report with its ``command``, sorts the errors into exit codes
and writes the canonical JSON.  Exit codes: 0 success; 1 domain
failures (``errors.DomainError``), failed checks under --strict (the
report is still printed), and reports that hold a non-finite number (not
printed); 2 usage and parse errors, non-finite numeric arguments, specs
that are not games, and arguments the library rejects (``ValueError``).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Any

import numpy as np

from . import __version__
from .errors import DomainError, ParseError, SchemaError
from .game_model import GameSpec, example_one_spec, validate_spec
from .riccati import (
    eval_solution,
    make_value_problem,
    riccati_residual,
    solve_value_riccati,
)
from .scheduler import check_admissibility, max_next_instance, optimal_schedule
from .simulator import (
    Strategy,
    deviation_sweep,
    game_value,
    open_loop_pair,
    payoff_two_ways,
    reachable_radius,
    risky_strategy,
    simulate,
)

SCHEMA_VERSION = 1
MAX_SAMPLES = 10**6  # points of a reachability circle CSV
_MATRIX_FIELDS = ("A", "B", "C", "Q", "Q_f", "R_p", "R_e")
_PRESETS = {"example1": example_one_spec}


# ---------------------------------------------------------------------------
# canonical serialization


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def dumps_canonical(obj: Any) -> str:
    """JSON text with floats fixed at 17 significant digits."""
    return _dumps(obj)


def _dumps(obj: Any) -> str:
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return json.dumps(obj)
    if isinstance(obj, np.integer):
        return json.dumps(int(obj))
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        return "[" + ", ".join(_dumps(v) for v in seq) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# spec (de)serialization


def spec_to_dict(spec: GameSpec) -> dict:
    doc = {"version": SCHEMA_VERSION}
    for name in _MATRIX_FIELDS:
        doc[name] = getattr(spec, name).tolist()
    doc["t0"] = spec.t0
    doc["tf"] = spec.tf
    doc["x0"] = spec.x0.tolist()
    return doc


def spec_from_dict(doc: dict) -> GameSpec:
    if not isinstance(doc, dict):
        raise SchemaError("top-level document must be an object")
    if "preset" in doc:
        name = doc["preset"]
        maker = _PRESETS.get(name) if isinstance(name, str) else None
        if maker is None:
            raise SchemaError(
                f"unknown preset {name!r}; available: {sorted(_PRESETS)}"
            )
        return maker()
    version = doc.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {version!r}")
    missing = [name for name in (*_MATRIX_FIELDS, "t0", "tf", "x0") if name not in doc]
    if missing:
        raise SchemaError(f"missing fields: {missing}")

    values = {}
    for name in _MATRIX_FIELDS:
        try:
            arr = np.array(doc[name], dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"{name} is not a numeric matrix: {exc}") from exc
        if arr.ndim != 2:
            raise SchemaError(f"{name} must be a nested (row-major) array")
        values[name] = arr
    try:
        x0 = np.array(doc["x0"], dtype=float).reshape(-1)
        t0 = float(doc["t0"])
        tf = float(doc["tf"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad scalar field: {exc}") from exc
    try:
        return GameSpec(t0=t0, tf=tf, x0=x0, **values)
    except ValueError as exc:  # the spec is not a game
        raise SchemaError(str(exc)) from exc


def load_spec(path: str) -> GameSpec:
    """Parse a game-spec JSON file; preset references are honored."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return spec_from_dict(doc)


# ---------------------------------------------------------------------------
# CSV artifacts


def _write_csv(path: str, header: list[str], table) -> None:
    """A header line, then one line per row of the float ``table``."""
    lines = [",".join(header)]
    lines += [",".join(format_float(v) for v in row) for row in table]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_matrix_csv(path: str, sol) -> None:
    """Time column plus row-major matrix entries, ascending in time."""
    values = eval_solution(sol, sol.grid)
    n = values.shape[1]
    header = ["t"] + [f"m{i}_{j}" for i in range(n) for j in range(n)]
    entries = values[::-1].reshape(len(sol.grid), n * n)
    _write_csv(path, header, np.column_stack([sol.grid[::-1], entries]))


def write_trajectory_csv(path: str, traj) -> None:
    """Time, state, estimate, error, inputs, running cost and a 0/1 flag
    at communication events, one row per node."""
    columns = {"x": traj.x, "xhat": traj.x_hat, "e": traj.e, "up": traj.u_p, "ue": traj.u_e}
    header = ["t"] + [f"{name}{i}" for name, v in columns.items() for i in range(v.shape[1])]
    table = np.column_stack(
        [traj.t, *columns.values(), traj.running_cost, np.isin(traj.t, traj.events)]
    )
    _write_csv(path, header + ["running_cost", "event_flag"], table)


# ---------------------------------------------------------------------------
# command implementations: each gets the parsed arguments and the game spec
# (None for a command that reads none) and returns (exit code, report)


def _spec(args: argparse.Namespace) -> GameSpec:
    return load_spec(args.spec) if args.spec else _PRESETS[args.preset]()


def _violation_dict(v) -> dict:
    return {key: getattr(v, key) for key in ("name", "measured", "severity", "message")}


def _certificates_json(certs) -> list[dict]:
    return [
        {"start": c.t_start, "end": c.t_end, "escape_found": c.escape_found, "t_escape": c.t_escape}
        for c in certs
    ]


def _cmd_validate(args, spec) -> tuple[int, dict]:
    report = validate_spec(spec)
    return (1 if (args.strict and not report.passed) else 0), {
        "passed": report.passed,
        "assumption1_max_eig": report.assumption1_max_eig,
        "violations": [_violation_dict(v) for v in report.violations],
    }


def _cmd_riccati(args, spec) -> tuple[int, dict]:
    sol = solve_value_riccati(spec)
    residual = riccati_residual(sol, make_value_problem(spec))
    if args.out:
        write_matrix_csv(args.out, sol)
    return 0, {
        "kind": sol.kind,
        "grid_points": len(sol.grid),
        "reached_floor": True,  # the solve raises FiniteEscape otherwise
        "residual": residual,
        "value_at_t0": eval_solution(sol, spec.t0).tolist(),
        "game_value": game_value(spec, sol),
        "csv": args.out,
    }


def _cmd_schedule(args, spec) -> tuple[int, dict]:
    sol = solve_value_riccati(spec)
    sched = optimal_schedule(spec, sol, args.margin, compute_slack=not args.no_slack)
    return 0, {
        "N": sched.N,
        "instants": list(sched.instants),
        "margin": sched.margin,
        "slack_sup": list(sched.slack_sup),
        "certificates": _certificates_json(sched.certificates),
    }


def _cmd_check_schedule(args, spec) -> tuple[int, dict]:
    certs = check_admissibility(spec, solve_value_riccati(spec), args.instants)
    passed = all(c.passed for c in certs)
    return (1 if (args.strict and not passed) else 0), {
        "instants": list(args.instants),
        "pass": passed,
        "intervals": _certificates_json(certs),
    }


def _evader_strategy(args, spec, sol) -> Strategy:
    if args.evader == "open-loop":
        return open_loop_pair(spec, sol)[1]
    if args.evader == "deviation":
        w = args.w
        if w is None:
            w = np.zeros(spec.n_e)
            w[0] = -(1.0 if args.c is None else args.c)
        elif args.c is not None:
            raise SchemaError("--c and --w exclude each other: --w is the whole deviation")
        elif len(w) != spec.n_e:
            raise SchemaError(f"--w needs n_e = {spec.n_e} numbers, got {len(w)}")
        return Strategy.evader_open_loop(np.asarray(w, dtype=float))
    if args.evader == "risky":
        # the leading interval of the schedule
        bounds = [spec.t0, *spec.checked_instants(args.instants), spec.tf]
        return risky_strategy(spec, sol, (bounds[0], bounds[1]), scale=args.scale)
    return Strategy.evader_equilibrium()


def _cmd_simulate(args, spec) -> tuple[int, dict]:
    sol = solve_value_riccati(spec)
    if args.pursuer == "open-loop":
        pursuer = open_loop_pair(spec, sol)[0]
    else:
        pursuer = Strategy.certainty_equivalent()
    evader = _evader_strategy(args, spec, sol)
    traj = simulate(spec, sol, args.instants, pursuer, evader, args.step)
    direct, completed = payoff_two_ways(traj, spec, sol)
    if args.out:
        write_trajectory_csv(args.out, traj)
    return 0, {
        "payoff_direct": direct,
        "payoff_completed_square": completed,
        "game_value": game_value(spec, sol),
        "events": list(traj.events),
        "terminal_cost": traj.terminal_cost,
        "csv": args.out,
    }


def _cmd_sweep(args, spec) -> tuple[int, dict]:
    sol = solve_value_riccati(spec)
    payoffs = deviation_sweep(
        spec, args.c, schedule=args.instants, pursuer=args.pursuer_mode, step=args.step,
        value_sol=sol,
    )
    return 0, {
        "c_values": list(args.c),
        "payoffs": payoffs.tolist(),
        "game_value": game_value(spec, sol),
    }


def _cmd_slack(args, spec) -> tuple[int, dict]:
    sol = solve_value_riccati(spec)
    t_prev = spec.t0 if args.t_prev is None else args.t_prev
    upper = spec.tf if args.upper is None else args.upper
    return 0, {
        "t_prev": t_prev,
        "upper": upper,
        "sup_next_instant": max_next_instance(spec, sol, t_prev, upper),
    }


def _cmd_reachability(args, _) -> tuple[int, dict]:
    if args.budget is None or args.horizon is None:
        raise SchemaError("reachability needs --budget and --horizon")
    budget, horizon, weight = args.budget, args.horizon, args.re_scalar
    radius = reachable_radius(budget, horizon, weight)
    doc = {"effort_budget": budget, "horizon": horizon, "re_scalar": weight, "radius": radius}
    if args.out:
        x, y = args.center
        th = np.linspace(0.0, 2.0 * np.pi, args.samples)
        circle = np.column_stack([x + radius * np.cos(th), y + radius * np.sin(th)])
        _write_csv(args.out, ["x", "y"], circle)
        doc["csv"] = args.out
    return 0, doc


# ---------------------------------------------------------------------------
# argument parsing


def _finite(text: str) -> float:
    """A float argument; nan and inf are rejected."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _finite_list(text: str) -> list[float]:
    text = text.strip()
    if not text:
        return []
    return [_finite(tok) for tok in text.split(",")]


def _step(text: str) -> float:
    step = _finite(text)
    if not step > 0:
        raise argparse.ArgumentTypeError(f"--step must be positive, got {step}")
    return step


def _samples(text: str) -> int:
    try:
        samples = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 1 <= samples <= MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"--samples must be 1 to {MAX_SAMPLES}, got {samples}")
    return samples


def _point(text: str) -> list[float]:
    point = _finite_list(text)
    if len(point) != 2:
        raise argparse.ArgumentTypeError(f"need two numbers x,y, got {text!r}")
    return point


_STRICT = ("--strict", {"action": "store_true"})
_INSTANTS = ("--instants", {"type": _finite_list, "default": ()})
_STEP = ("--step", {"type": _step})

# Every command once: its handler, its help, whether it reads a game spec
# (--spec or --preset), and its other arguments.
_COMMANDS = {
    "validate": (_cmd_validate, "check a game spec's well-posedness", True, [
        _STRICT,
    ]),
    "riccati": (_cmd_riccati, "solve the value flow, export CSV", True, [
        ("--out", {"help": "CSV output path"}),
    ]),
    "schedule": (_cmd_schedule, "minimum-communication schedule", True, [
        ("--margin", {"type": _finite}),
        ("--no-slack", {"action": "store_true"}),
    ]),
    "check-schedule": (_cmd_check_schedule, "certify a given schedule", True, [
        _INSTANTS,
        _STRICT,
    ]),
    "simulate": (_cmd_simulate, "closed-loop run, payoff two ways", True, [
        _INSTANTS,
        ("--pursuer", {
            "default": "ce", "choices": ["ce", "certainty-equivalent", "open-loop"],
        }),
        ("--evader", {
            "default": "equilibrium",
            "choices": ["equilibrium", "open-loop", "deviation", "risky"],
        }),
        ("--c", {"type": _finite, "help": "deviation magnitude (default 1.0)"}),
        ("--w", {"type": _finite_list, "help": "deviation vector"}),
        ("--scale", {"type": _finite, "default": 1.0, "help": "risky kick scale"}),
        _STEP,
        ("--out", {"help": "trajectory CSV output path"}),
    ]),
    "sweep": (_cmd_sweep, "payoffs of scaled constant deviations", True, [
        ("--c", {"type": _finite_list, "default": (0.0, 1.0, 2.0)}),
        _INSTANTS,
        ("--pursuer-mode", {
            "default": "open_loop", "choices": ["open_loop", "certainty_equivalent"],
        }),
        _STEP,
    ]),
    "slack": (_cmd_slack, "supremum of the next admissible instant", True, [
        ("--t-prev", {"type": _finite}),
        ("--upper", {"type": _finite}),
    ]),
    "reachability": (_cmd_reachability, "evader budget-limited reach radius", False, [
        ("--budget", {"type": _finite}),
        ("--horizon", {"type": _finite}),
        ("--re-scalar", {"type": _finite, "default": 1.0}),
        ("--out", {"help": "circle sample CSV output path"}),
        ("--samples", {"type": _samples, "default": 64}),
        ("--center", {"type": _point, "default": (1.0, 0.0)}),
    ]),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors are one line, without the usage block; subparsers share the class."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``_COMMANDS``, built once; its defaults are immutable."""
    parser = _Parser(
        prog="pegame",
        description=(
            "Equilibrium strategies and minimum-communication schedules for "
            "linear-quadratic pursuit-evasion with intermittent measurements"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, reads_spec, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if reads_spec:
            g = p.add_mutually_exclusive_group()
            g.add_argument("--spec", help="path to a game-spec JSON file")
            g.add_argument(
                "--preset",
                choices=sorted(_PRESETS),
                default="example1",
                help="named built-in game",
            )
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def _non_finite_field(report: dict) -> str | None:
    """The first report field that holds a non-finite number, if any."""

    def finite(obj) -> bool:
        if isinstance(obj, dict):
            return all(finite(v) for v in obj.values())
        if isinstance(obj, (list, tuple)):
            return all(finite(v) for v in obj)
        return not isinstance(obj, (float, np.floating)) or math.isfinite(obj)

    return next((key for key, value in report.items() if not finite(value)), None)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    handler, _, reads_spec, _ = _COMMANDS[args.command]
    try:
        # overflow shows in the report, which is checked below
        with np.errstate(all="ignore"):
            code, report = handler(args, _spec(args) if reads_spec else None)
    except DomainError as exc:  # before ValueError: some domain errors are both
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # bad input: a spec, a file or an argument
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {"command": args.command, **report}
    field = _non_finite_field(report)
    if field is not None:
        print(f"error: report field {field!r} is not finite", file=sys.stderr)
        return 1
    sys.stdout.write(dumps_canonical(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
