"""Configuration loading, command dispatch, and result serialization.

Game specs travel as JSON (schema version 1): matrices are row-major
nested arrays, times and scalars are numbers, and ``{"preset":
"example1"}`` loads the bundled worked example.  Reports are printed to
stdout with floats at 17 significant digits so identical configurations
produce byte-identical output.  Exit codes: 0 success, 1 domain failures
(only with --strict where a report is still the normal outcome), 2
usage/parse errors and arguments the library rejects.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import __version__
from .errors import (
    DegenerateSchedule,
    DimensionMismatch,
    FiniteEscape,
    InadmissibleInterval,
    IntervalAdmissible,
    NegativeBudget,
    NoFeasibleInstance,
    NonSymmetric,
    ParseError,
    SchemaError,
    StepUnderflow,
    UnsortedInstants,
)
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
_MATRIX_FIELDS = ("A", "B", "C", "Q", "Q_f", "R_p", "R_e")
_PRESETS = {"example1": example_one_spec}

_DOMAIN_ERRORS = (
    DegenerateSchedule,
    DimensionMismatch,
    FiniteEscape,
    InadmissibleInterval,
    IntervalAdmissible,
    NegativeBudget,
    NoFeasibleInstance,
    NonSymmetric,
    StepUnderflow,
    UnsortedInstants,
)


# ---------------------------------------------------------------------------
# canonical serialization


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def dumps_canonical(obj: Any) -> str:
    """JSON text with floats fixed at 17 significant digits."""
    out: list[str] = []
    _write(obj, out)
    return "".join(out)


def _write(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _write(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, value in enumerate(seq):
            if i:
                out.append(", ")
            _write(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# spec (de)serialization


def escape_report_to_dict(report) -> dict:
    return {
        "found": report.found,
        "t_escape": report.t_escape,
        "bracket": list(report.bracket) if report.bracket else None,
        "method": report.method,
        "norm_at_detection": report.norm_at_detection,
        "floor": report.floor,
        "terminal_time": report.terminal_time,
    }


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
        maker = _PRESETS.get(name)
        if maker is None:
            raise SchemaError(
                f"unknown preset {name!r}; available: {sorted(_PRESETS)}"
            )
        return maker()
    version = doc.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {version!r}")
    missing = [
        name
        for name in (*_MATRIX_FIELDS, "t0", "tf", "x0")
        if name not in doc
    ]
    if missing:
        raise SchemaError(f"missing fields: {missing}")

    values = {}
    for name in _MATRIX_FIELDS:
        try:
            arr = np.array(doc[name], dtype=float)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{name} is not a numeric matrix: {exc}") from exc
        if arr.ndim != 2:
            raise SchemaError(f"{name} must be a nested (row-major) array")
        values[name] = arr
    try:
        x0 = np.array(doc["x0"], dtype=float).reshape(-1)
        t0 = float(doc["t0"])
        tf = float(doc["tf"])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad scalar field: {exc}") from exc

    if not (np.isfinite(t0) and np.isfinite(tf) and t0 < tf):
        raise SchemaError(f"need finite t0 < tf, got t0={t0}, tf={tf}")
    try:
        spec = GameSpec(t0=t0, tf=tf, x0=x0, **values)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    try:
        validate_spec(spec)
    except DimensionMismatch as exc:
        raise SchemaError(str(exc)) from exc
    except NonSymmetric as exc:
        name = str(exc).split(" ", 1)[0]
        raise SchemaError(f"{name} not symmetric") from exc
    return spec


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


def write_matrix_csv(path: str, sol) -> None:
    """Time column plus row-major matrix entries, ascending in time."""
    n = sol.values.shape[1]
    header = ["t"] + [f"m{i}_{j}" for i in range(n) for j in range(n)]
    lines = [",".join(header)]
    for k in range(len(sol.grid) - 1, -1, -1):
        row = [format_float(sol.grid[k])]
        row += [format_float(v) for v in sol.values[k].reshape(-1)]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trajectory_csv(path: str, traj) -> None:
    n = traj.x.shape[1]
    n_p = traj.u_p.shape[1]
    n_e = traj.u_e.shape[1]
    header = (
        ["t"]
        + [f"x{i}" for i in range(n)]
        + [f"xhat{i}" for i in range(n)]
        + [f"e{i}" for i in range(n)]
        + [f"up{i}" for i in range(n_p)]
        + [f"ue{i}" for i in range(n_e)]
        + ["running_cost", "event_flag"]
    )
    events = set(traj.events)
    e = traj.e
    lines = [",".join(header)]
    for k in range(len(traj.t)):
        row = [format_float(traj.t[k])]
        row += [format_float(v) for v in traj.x[k]]
        row += [format_float(v) for v in traj.x_hat[k]]
        row += [format_float(v) for v in e[k]]
        row += [format_float(v) for v in traj.u_p[k]]
        row += [format_float(v) for v in traj.u_e[k]]
        row.append(format_float(traj.running_cost[k]))
        row.append("1" if traj.t[k] in events else "0")
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# command implementations


@dataclass
class RunConfig:
    """One resolved CLI invocation."""

    command: str
    spec: GameSpec | None
    options: dict = field(default_factory=dict)
    strict: bool = False


def _violation_dict(v) -> dict:
    return {
        "name": v.name,
        "measured": v.measured,
        "severity": v.severity,
        "message": v.message,
    }


def _certificates_json(certs) -> list[dict]:
    return [
        {
            "start": c.t_start,
            "end": c.t_end,
            "escape_found": c.escape_found,
            "t_escape": c.t_escape,
        }
        for c in certs
    ]


def _cmd_validate(config: RunConfig) -> tuple[int, dict]:
    report = validate_spec(config.spec)
    doc = {
        "command": "validate",
        "passed": report.passed,
        "assumption1_max_eig": report.assumption1_max_eig,
        "violations": [_violation_dict(v) for v in report.violations],
    }
    code = 1 if (config.strict and not report.passed) else 0
    return code, doc


def _cmd_riccati(config: RunConfig) -> tuple[int, dict]:
    spec = config.spec
    sol = solve_value_riccati(spec)
    residual = riccati_residual(sol, make_value_problem(spec), 100)
    out = config.options.get("out")
    if out:
        write_matrix_csv(out, sol)
    P0 = eval_solution(sol, spec.t0)
    doc = {
        "command": "riccati",
        "kind": sol.kind,
        "grid_points": len(sol.grid),
        "reached_floor": True,  # the solve raises FiniteEscape otherwise
        "residual": residual,
        "value_at_t0": P0.tolist(),
        "game_value": float(spec.x0 @ P0 @ spec.x0),
        "csv": out,
    }
    return 0, doc


def _cmd_schedule(config: RunConfig) -> tuple[int, dict]:
    spec = config.spec
    sol = solve_value_riccati(spec)
    sched = optimal_schedule(
        spec,
        sol,
        config.options.get("margin"),
        compute_slack=not config.options.get("no_slack", False),
    )
    doc = {
        "command": "schedule",
        "N": sched.N,
        "instants": list(sched.instants),
        "margin": sched.margin,
        "slack_sup": list(sched.slack_sup),
        "certificates": _certificates_json(sched.certificates),
    }
    return 0, doc


def _cmd_check_schedule(config: RunConfig) -> tuple[int, dict]:
    spec = config.spec
    sol = solve_value_riccati(spec)
    instants = config.options.get("instants", [])
    certs = check_admissibility(spec, sol, instants)
    passed = all(c.passed for c in certs)
    doc = {
        "command": "check-schedule",
        "instants": list(instants),
        "pass": passed,
        "intervals": _certificates_json(certs),
    }
    return (1 if (config.strict and not passed) else 0), doc


def _pursuer_strategy(name: str, spec, sol) -> Strategy:
    if name in ("ce", "certainty-equivalent"):
        return Strategy.certainty_equivalent()
    if name == "open-loop":
        return open_loop_pair(spec, sol)[0]
    raise SchemaError(f"unknown pursuer strategy {name!r}")


def _evader_strategy(config: RunConfig, spec, sol) -> Strategy:
    name = config.options.get("evader", "equilibrium")
    if name == "equilibrium":
        return Strategy.evader_equilibrium()
    if name == "open-loop":
        return open_loop_pair(spec, sol)[1]
    if name == "deviation":
        w = config.options.get("w")
        if w is None:
            c = float(config.options.get("c", 1.0))
            w = np.zeros(spec.n_e)
            w[0] = -c
        return Strategy.deviation(np.asarray(w, dtype=float), absolute=True)
    if name == "risky":
        interval = config.options.get("interval")
        if interval is None:
            instants = config.options.get("instants", [])
            bounds = [spec.t0, *instants, spec.tf]
            interval = (bounds[0], bounds[1])
        return risky_strategy(
            spec,
            sol,
            interval,
            scale=float(config.options.get("scale", 1.0)),
        )
    raise SchemaError(f"unknown evader strategy {name!r}")


def _cmd_simulate(config: RunConfig) -> tuple[int, dict]:
    spec = config.spec
    sol = solve_value_riccati(spec)
    instants = config.options.get("instants", [])
    pursuer = _pursuer_strategy(config.options.get("pursuer", "ce"), spec, sol)
    evader = _evader_strategy(config, spec, sol)
    traj = simulate(
        spec, sol, instants, pursuer, evader, config.options.get("step")
    )
    direct, completed = payoff_two_ways(traj, spec, sol)
    out = config.options.get("out")
    if out:
        write_trajectory_csv(out, traj)
    doc = {
        "command": "simulate",
        "payoff_direct": direct,
        "payoff_completed_square": completed,
        "game_value": game_value(spec, sol),
        "events": list(traj.events),
        "terminal_cost": traj.terminal_cost,
        "csv": out,
    }
    return 0, doc


def _cmd_sweep(config: RunConfig) -> tuple[int, dict]:
    spec = config.spec
    sol = solve_value_riccati(spec)
    c_values = config.options.get("c_values", [0.0, 1.0, 2.0])
    payoffs = deviation_sweep(
        spec,
        c_values,
        schedule=config.options.get("instants", []),
        pursuer=config.options.get("pursuer_mode", "open_loop"),
        step=config.options.get("step"),
        value_sol=sol,
    )
    doc = {
        "command": "sweep",
        "c_values": list(c_values),
        "payoffs": payoffs.tolist(),
        "game_value": game_value(spec, sol),
    }
    return 0, doc


def _cmd_slack(config: RunConfig) -> tuple[int, dict]:
    spec = config.spec
    sol = solve_value_riccati(spec)
    t_prev = float(config.options.get("t_prev", spec.t0))
    upper = float(config.options.get("upper", spec.tf))
    sup = max_next_instance(spec, sol, t_prev, upper)
    doc = {
        "command": "slack",
        "t_prev": t_prev,
        "upper": upper,
        "sup_next_instant": sup,
    }
    return 0, doc


def _cmd_reachability(config: RunConfig) -> tuple[int, dict]:
    opts = config.options
    if opts.get("t1") is not None:
        # worked-example convention: the equilibrium evader input has
        # magnitude 2/3, so its effort budget over [0, t1] is 2*t1/9
        t1 = float(opts["t1"])
        budget = 2.0 * t1 / 9.0
        horizon = t1
        weight = 0.5
    else:
        budget = float(opts["budget"])
        horizon = float(opts["horizon"])
        weight = float(opts.get("re_scalar", 1.0))
    radius = reachable_radius(budget, horizon, weight)
    doc = {
        "command": "reachability",
        "effort_budget": budget,
        "horizon": horizon,
        "re_scalar": weight,
        "radius": radius,
    }
    out = opts.get("out")
    if out:
        center = opts.get("center", [1.0, 0.0])
        thetas = np.linspace(0.0, 2.0 * np.pi, int(opts.get("samples", 64)))
        lines = ["x,y"]
        for th in thetas:
            lines.append(
                format_float(center[0] + radius * np.cos(th))
                + ","
                + format_float(center[1] + radius * np.sin(th))
            )
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        doc["csv"] = out
    return 0, doc


_COMMANDS = {
    "validate": _cmd_validate,
    "riccati": _cmd_riccati,
    "schedule": _cmd_schedule,
    "check-schedule": _cmd_check_schedule,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "slack": _cmd_slack,
    "reachability": _cmd_reachability,
}


def run(config: RunConfig) -> tuple[int, dict]:
    """Dispatch one command; returns (exit_code, report)."""
    handler = _COMMANDS.get(config.command)
    if handler is None:
        raise SchemaError(f"unknown command {config.command!r}")
    return handler(config)


# ---------------------------------------------------------------------------
# argument parsing


def _float_list(text: str) -> list[float]:
    text = text.strip()
    if not text:
        return []
    return [float(tok) for tok in text.split(",")]


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--spec", help="path to a game-spec JSON file")
    g.add_argument(
        "--preset", choices=sorted(_PRESETS), help="named built-in game"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pegame",
        description=(
            "Equilibrium strategies and minimum-communication schedules for "
            "linear-quadratic pursuit-evasion with intermittent measurements"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a game spec's well-posedness")
    _add_spec_args(p)
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("riccati", help="solve the value flow, export CSV")
    _add_spec_args(p)
    p.add_argument("--out", help="CSV output path")

    p = sub.add_parser("schedule", help="minimum-communication schedule")
    _add_spec_args(p)
    p.add_argument("--margin", type=float, default=None)
    p.add_argument("--no-slack", action="store_true")

    p = sub.add_parser("check-schedule", help="certify a given schedule")
    _add_spec_args(p)
    p.add_argument("--instants", type=_float_list, default=[])
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("simulate", help="closed-loop run, payoff two ways")
    _add_spec_args(p)
    p.add_argument("--instants", type=_float_list, default=[])
    p.add_argument(
        "--pursuer", default="ce", choices=["ce", "certainty-equivalent", "open-loop"]
    )
    p.add_argument(
        "--evader",
        default="equilibrium",
        choices=["equilibrium", "open-loop", "deviation", "risky"],
    )
    p.add_argument("--c", type=float, default=1.0, help="deviation magnitude")
    p.add_argument("--w", type=_float_list, default=None, help="deviation vector")
    p.add_argument("--scale", type=float, default=1.0, help="risky kick scale")
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--out", help="trajectory CSV output path")

    p = sub.add_parser("sweep", help="payoffs of scaled constant deviations")
    _add_spec_args(p)
    p.add_argument("--c", type=_float_list, default=[0.0, 1.0, 2.0])
    p.add_argument("--instants", type=_float_list, default=[])
    p.add_argument(
        "--pursuer-mode",
        default="open_loop",
        choices=["open_loop", "certainty_equivalent"],
    )
    p.add_argument("--step", type=float, default=None)

    p = sub.add_parser("slack", help="supremum of the next admissible instant")
    _add_spec_args(p)
    p.add_argument("--t-prev", type=float, default=None)
    p.add_argument("--upper", type=float, default=None)

    p = sub.add_parser("reachability", help="evader budget-limited reach radius")
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--re-scalar", type=float, default=1.0)
    p.add_argument("--t1", type=float, default=None)
    p.add_argument("--out", help="circle sample CSV output path")
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--center", type=_float_list, default=[1.0, 0.0])

    return parser


def _needs_spec(command: str) -> bool:
    return command != "reachability"


def config_from_args(args: argparse.Namespace) -> RunConfig:
    spec = None
    if _needs_spec(args.command):
        if getattr(args, "spec", None):
            spec = load_spec(args.spec)
        else:
            preset = getattr(args, "preset", None) or "example1"
            spec = _PRESETS[preset]()

    step = getattr(args, "step", None)
    if step is not None and not step > 0:
        raise SchemaError(f"--step must be positive, got {step}")

    options: dict[str, Any] = {}
    if args.command == "riccati":
        options["out"] = args.out
    elif args.command == "schedule":
        options["margin"] = args.margin
        options["no_slack"] = args.no_slack
    elif args.command == "check-schedule":
        options["instants"] = args.instants
    elif args.command == "simulate":
        options.update(
            instants=args.instants,
            pursuer=args.pursuer,
            evader=args.evader,
            c=args.c,
            w=args.w,
            scale=args.scale,
            step=args.step,
            out=args.out,
        )
    elif args.command == "sweep":
        options.update(
            c_values=args.c,
            instants=args.instants,
            pursuer_mode=args.pursuer_mode,
            step=args.step,
        )
    elif args.command == "slack":
        if args.t_prev is not None:
            options["t_prev"] = args.t_prev
        if args.upper is not None:
            options["upper"] = args.upper
    elif args.command == "reachability":
        if args.t1 is None and (args.budget is None or args.horizon is None):
            raise SchemaError("reachability needs --t1 or --budget with --horizon")
        options.update(
            budget=args.budget,
            horizon=args.horizon,
            re_scalar=args.re_scalar,
            t1=args.t1,
            out=args.out,
            samples=args.samples,
            center=args.center,
        )

    return RunConfig(
        command=args.command,
        spec=spec,
        options=options,
        strict=getattr(args, "strict", False),
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        config = config_from_args(args)
        code, report = run(config)
    except (ParseError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # a library argument check: bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(dumps_canonical(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
