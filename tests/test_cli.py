import contextlib
import io
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegame.cli import (
    _COMMANDS,
    _finite,
    _finite_list,
    _point,
    _samples,
    _step,
    dumps_canonical,
    load_spec,
    main,
    spec_from_dict,
    spec_to_dict,
)
from pegame.errors import ParseError, SchemaError
from pegame.game_model import example_one_spec

# example1's evader reach at t1 = 3/4: its equilibrium input has magnitude
# 2/3 and weight 1/2, so its effort budget over [0, 3/4] is 2 * 0.75 / 9
EXAMPLE1_REACH = ("--budget", "0.16666666666666666", "--horizon", "0.75", "--re-scalar", "0.5")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_load_preset(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"preset": "example1"}')
    assert load_spec(str(path)) == example_one_spec()


def test_round_trip_serialization(tmp_path):
    spec = example_one_spec()
    doc = spec_to_dict(spec)
    path = tmp_path / "round.json"
    path.write_text(dumps_canonical(doc))
    again = load_spec(str(path))
    assert again == spec
    assert spec_from_dict(spec_to_dict(again)) == spec


def test_round_trip_random_two_state(tmp_path):
    rng = np.random.default_rng(6)
    A = -np.eye(2) + 0.1 * rng.standard_normal((2, 2))
    doc = {
        "version": 1,
        "A": A.tolist(),
        "B": np.eye(2).tolist(),
        "C": np.zeros((2, 1)).tolist(),
        "Q": np.eye(2).tolist(),
        "Q_f": np.eye(2).tolist(),
        "R_p": np.eye(2).tolist(),
        "R_e": [[1.0]],
        "t0": 0.0,
        "tf": 1.0,
        "x0": [1.0, -1.0],
    }
    spec = spec_from_dict(doc)
    assert spec_from_dict(spec_to_dict(spec)) == spec


def test_schema_error_nonsymmetric():
    doc = spec_to_dict(example_one_spec())
    doc["Q_f"][0][1] = 99.0
    with pytest.raises(SchemaError, match="Q_f not symmetric"):
        spec_from_dict(doc)


def test_schema_error_missing_field():
    doc = spec_to_dict(example_one_spec())
    del doc["R_e"]
    with pytest.raises(SchemaError, match="R_e"):
        spec_from_dict(doc)


def test_parse_error_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1,,}')
    with pytest.raises(ParseError, match="line 1"):
        load_spec(str(path))


def test_unknown_preset_rejected():
    with pytest.raises(SchemaError, match="unknown preset"):
        spec_from_dict({"preset": "nope"})


def test_validate_command(capsys):
    code, out, _ = run_cli(capsys, "validate", "--preset", "example1")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["assumption1_max_eig"] == pytest.approx(2.0)
    assert doc["violations"][0]["severity"] == "warning"


def test_validate_strict_exit_code(capsys):
    code, _, _ = run_cli(capsys, "validate", "--preset", "example1", "--strict")
    assert code == 1


def test_schedule_command(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--preset", "example1")
    assert code == 0
    doc = json.loads(out)
    assert doc["N"] == 1
    assert doc["instants"][0] == pytest.approx(0.500001, abs=1e-5)
    assert doc["slack_sup"][0] == pytest.approx(0.75, abs=1e-3)
    assert all(not c["escape_found"] for c in doc["certificates"])


def test_check_schedule_accepts_instants_closer_than_the_tolerance(capsys):
    code, out, _ = run_cli(
        capsys, "check-schedule", "--preset", "example1", "--instants", "0.5,0.500000001",
        "--strict",
    )
    assert code == 0 and json.loads(out)["pass"] is True


def test_check_schedule_fail_and_strict(capsys):
    code, out, _ = run_cli(
        capsys, "check-schedule", "--preset", "example1", "--instants", "0.8"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is False
    assert doc["intervals"][0]["escape_found"] is True
    assert doc["intervals"][0]["t_escape"] == pytest.approx(0.1, abs=1e-6)

    code, _, _ = run_cli(
        capsys,
        "check-schedule",
        "--preset",
        "example1",
        "--instants",
        "0.8",
        "--strict",
    )
    assert code == 1


def test_simulate_command(capsys, tmp_path):
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--preset",
        "example1",
        "--instants",
        "0.5",
        "--out",
        str(out_csv),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["payoff_direct"] == pytest.approx(1.0 / 3.0, abs=1e-4)
    assert doc["payoff_completed_square"] == pytest.approx(1.0 / 3.0, abs=1e-4)
    rows = out_csv.read_text().splitlines()
    header = rows[0].split(",")
    assert header[:5] == ["t", "x0", "x1", "x2", "x3"]
    assert header[-2:] == ["running_cost", "event_flag"]
    events = [row for row in rows[1:] if row.endswith(",1")]
    assert len(events) == 1 and events[0].startswith("0.5,")


def test_riccati_command_csv(capsys, tmp_path):
    out_csv = tmp_path / "value.csv"
    code, out, _ = run_cli(
        capsys, "riccati", "--preset", "example1", "--out", str(out_csv)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["residual"] <= 1e-7
    assert doc["game_value"] == pytest.approx(1.0 / 3.0, rel=1e-9)
    lines = out_csv.read_text().splitlines()
    assert lines[0].split(",")[:3] == ["t", "m0_0", "m0_1"]
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0  # ascending time order
    assert first[1] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_sweep_command(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--preset", "example1", "--c", "0,1,2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["payoffs"] == pytest.approx([5.0 / 9.0, 31.0 / 18.0, 35.0 / 9.0], abs=1e-3)


def test_slack_command(capsys):
    code, out, _ = run_cli(
        capsys, "slack", "--preset", "example1", "--t-prev", "0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["sup_next_instant"] == pytest.approx(0.75, abs=1e-3)


def test_reachability_command(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "reachability", *EXAMPLE1_REACH)
    assert code == 0
    doc = json.loads(out)
    assert doc["radius"] == pytest.approx(0.5)

    out_csv = tmp_path / "circle.csv"
    code, out, _ = run_cli(
        capsys,
        "reachability",
        "--budget",
        "0.1111111111111111",
        "--horizon",
        "0.5",
        "--re-scalar",
        "0.5",
        "--out",
        str(out_csv),
    )
    doc = json.loads(out)
    assert doc["radius"] == pytest.approx(1.0 / 3.0)
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "x,y"
    x, y = (float(v) for v in rows[1].split(","))
    assert np.hypot(x - 1.0, y) == pytest.approx(doc["radius"], rel=1e-9)


# header, first and last data row of each example1 CSV, as written before
# the three writers shared one
CSV_ROWS = {
    ("riccati", "--preset", "example1"): (
        "t,m0_0,m0_1,m0_2,m0_3,m1_0,m1_1,m1_2,m1_3,m2_0,m2_1,m2_2,m2_3,m3_0,m3_1,m3_2,m3_3",
        "0,0.3333333333333332,0,-0.33333333333333315,0,0,0.3333333333333332,0,"
        "-0.33333333333333315,-0.33333333333333315,0,0.33333333333333276,0,0,"
        "-0.33333333333333315,0,0.33333333333333276",
        "1,1,0,-1,-0,0,1,-0,-1,-1,-0,1,0,-0,-1,0,1",
    ),
    ("simulate", "--preset", "example1", "--instants", "0.5"): (
        "t,x0,x1,x2,x3,xhat0,xhat1,xhat2,xhat3,e0,e1,e2,e3,up0,up1,ue0,ue1,"
        "running_cost,event_flag",
        "0,0,0,1,0,0,0,1,0,0,0,0,0,1.3333333333333326,0,0.66666666666666552,0,0,0",
        "1,1.3333333333332558,0,1.6666666666666308,0,1.3333333333332558,0,"
        "1.6666666666666308,0,0,0,0,0,1.3333333333335,0,0.66666666666675001,0,"
        "0.22222222222219729,0",
    ),
    ("reachability", *EXAMPLE1_REACH): ("x,y", "1.5,0", "1.5,-1.2246467991473532e-16"),
}


@pytest.mark.parametrize("argv", list(CSV_ROWS), ids=["riccati", "simulate", "reachability"])
def test_csv_rows_pinned(capsys, tmp_path, argv):
    out_csv = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, *argv, "--out", str(out_csv))
    rows = out_csv.read_text().splitlines()
    assert code == 0 and (rows[0], rows[1], rows[-1]) == CSV_ROWS[argv]


@pytest.mark.parametrize("samples", ["0", "-1", "1000001", "100000000000000", "2.5"])
def test_samples_out_of_range_is_usage_error(capsys, tmp_path, samples):
    # a huge count used to reach numpy's allocator and end in a traceback
    out_csv = tmp_path / "circle.csv"
    code, out, err = run_cli(
        capsys, "reachability", *EXAMPLE1_REACH, "--out", str(out_csv), "--samples", samples
    )
    one_line_error(code, out, err)
    assert "--samples" in err
    assert not out_csv.exists()


def test_reachability_requires_arguments(capsys):
    code, _, err = run_cli(capsys, "reachability")
    assert code == 2
    assert "error" in err


def test_spec_file_and_csv_determinism(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(dumps_canonical(spec_to_dict(example_one_spec())))
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "schedule", "--spec", str(spec_path)
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_usage_error_exit_code(capsys):
    one_line_error(*run_cli(capsys, "no-such-command"))
    one_line_error(*run_cli(capsys))


def test_bad_spec_file_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "validate", "--spec", str(path))
    assert code == 2
    assert "invalid JSON" in err


@settings(max_examples=30, deadline=None)
@given(
    st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(min_value=-(10**12), max_value=10**12),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.text(max_size=12),
        ),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.text(max_size=8), inner, max_size=4),
        ),
        max_leaves=12,
    )
)
def test_canonical_json_round_trips(doc):
    text = dumps_canonical(doc)
    parsed = json.loads(text)

    def normalize(value):
        if isinstance(value, float) and value == int(value) and abs(value) < 2**53:
            return int(value)
        if isinstance(value, list):
            return [normalize(v) for v in value]
        if isinstance(value, dict):
            return {k: normalize(v) for k, v in value.items()}
        return value

    assert normalize(parsed) == normalize(doc)


def test_non_finite_matrix_entry_is_schema_error(capsys, tmp_path):
    doc = spec_to_dict(example_one_spec())
    doc["A"][0][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # writes the NaN literal json.loads accepts
    with pytest.raises(SchemaError, match="non-finite"):
        load_spec(str(path))
    code, out, err = run_cli(capsys, "schedule", "--spec", str(path))
    assert code == 2 and out == ""
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("t0,tf", [(1.0, 1.0), (2.0, 1.0)])
def test_time_order_is_schema_error(capsys, tmp_path, t0, tf):
    doc = spec_to_dict(example_one_spec())
    doc["t0"], doc["tf"] = t0, tf
    path = tmp_path / "order.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="t0 < tf"):
        load_spec(str(path))
    code, out, err = run_cli(capsys, "schedule", "--spec", str(path))
    assert code == 2 and out == ""
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_zero_step_is_usage_error(capsys, command):
    code, out, err = run_cli(capsys, command, "--preset", "example1", "--step", "0")
    one_line_error(code, out, err)
    assert "--step must be positive" in err


@pytest.mark.parametrize(
    "flag", ["--rtol", "--atol", "--h-max", "--h-min", "--blowup"]
)
def test_removed_tolerance_flags_are_unknown(capsys, flag):
    code, out, err = run_cli(capsys, "riccati", "--preset", "example1", flag, "1e-9")
    one_line_error(code, out, err)
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["slack", "--preset", "example1", "--t-prev", "2"],
        ["schedule", "--preset", "example1", "--margin", "-1"],
        ["reachability", "--budget", "1", "--horizon", "0"],
    ],
    ids=["slack", "schedule", "reachability"],
)
def test_rejected_argument_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def one_line_error(code, out, err, expected_code=2):
    assert code == expected_code and out == ""
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_step_too_small_for_the_horizon_is_usage_error(capsys, command):
    # 1e9 RK4 steps would exhaust memory; the step count is refused up front
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, "--preset", "example1", "--step", "1e-9")
    assert time.perf_counter() - start < 1.0
    one_line_error(code, out, err)
    assert "RK4 steps" in err


@pytest.mark.parametrize("preset", [[], {"a": 1}], ids=["list", "object"])
def test_unhashable_preset_is_schema_error(capsys, tmp_path, preset):
    with pytest.raises(SchemaError, match="unknown preset"):
        spec_from_dict({"preset": preset})
    path = tmp_path / "preset.json"
    path.write_text(json.dumps({"preset": preset}))
    one_line_error(*run_cli(capsys, "validate", "--spec", str(path)))


@pytest.mark.parametrize("field", ["t0", "tf", "x0", "A"])
def test_int_too_large_for_a_float_is_schema_error(capsys, tmp_path, field):
    doc = spec_to_dict(example_one_spec())
    huge = 10**400
    if field == "x0":
        doc["x0"][0] = huge
    elif field == "A":
        doc["A"][0][0] = huge
    else:
        doc[field] = huge
    with pytest.raises(SchemaError):
        spec_from_dict(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    one_line_error(*run_cli(capsys, "validate", "--spec", str(path)))


FINITE_TYPES = (_finite, _finite_list, _step, _point)
FLOAT_OPTIONS = [
    (command, flag)
    for command, (_, _, _, arguments) in _COMMANDS.items()
    for flag, options in arguments
    if options.get("type") in FINITE_TYPES
]


def test_every_float_option_is_finite():
    typed = {
        (command, flag)
        for command, (_, _, _, arguments) in _COMMANDS.items()
        for flag, options in arguments
        if "type" in options
    }
    assert typed - set(FLOAT_OPTIONS) == {("reachability", "--samples")}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command,flag", FLOAT_OPTIONS, ids=[f"{c}{f}" for c, f in FLOAT_OPTIONS]
)
def test_non_finite_argument_is_usage_error(capsys, command, flag, value):
    code, out, err = run_cli(capsys, command, f"{flag}={value}")
    one_line_error(code, out, err)
    assert "finite" in err


def test_center_needs_two_entries(capsys, tmp_path):
    for center in ("1", "1,2,3", ""):
        code, out, err = run_cli(
            capsys, "reachability", *EXAMPLE1_REACH, "--out",
            str(tmp_path / "c.csv"), f"--center={center}",
        )
        assert code == 2 and out == "" and "Traceback" not in err
        assert "--center" in err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize(
    "argv,field",
    [
        (["sweep", "--preset", "example1", "--c", "1e200"], "payoffs"),
        (["simulate", "--preset", "example1", "--evader", "risky", "--scale", "1e200"],
         "payoff_direct"),
        (["reachability", "--budget", "1e300", "--horizon", "1e300"], "radius"),
    ],
    ids=["sweep", "simulate", "reachability"],
)
def test_non_finite_report_is_not_printed(capsys, argv, field):
    code, out, err = run_cli(capsys, *argv)
    one_line_error(code, out, err, expected_code=1)
    assert f"report field {field!r} is not finite" in err


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    missing = tmp_path / "no-such-dir" / "value.csv"
    one_line_error(*run_cli(capsys, "riccati", "--preset", "example1", "--out", str(missing)))


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def run_clean(argv):
    """Run the CLI in-process; the outcome must be an exit code of 0, 1 or
    2 with no traceback, and strict JSON on stdout after exit 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    return code


JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10**400), max_value=10**400),
        st.floats(width=64),
        st.text(max_size=8),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=10,
)
SPEC_FIELDS = ["version", "preset", "A", "B", "C", "Q", "Q_f", "R_p", "R_e",
               "t0", "tf", "x0"]


@st.composite
def spec_documents(draw):
    """Whole random documents, and the example1 spec with some fields
    replaced by random values, written as JSON text (NaN literals and
    huge integers included)."""
    if draw(st.booleans()):
        return json.dumps(draw(JSON_VALUES))
    doc = spec_to_dict(example_one_spec())
    for name in draw(st.lists(st.sampled_from(SPEC_FIELDS), max_size=3)):
        doc[name] = draw(JSON_VALUES)
    return json.dumps(doc)


@settings(max_examples=80, deadline=None)
@given(text=spec_documents())
def test_fuzz_validate_spec(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    path.write_text(text)
    run_clean(["validate", "--spec", str(path)])


# values for fuzzed flags: valid, out of range, non-finite and malformed
NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "1e200", "-1", "0", "0.25", "0.5", "0.8",
                     "1", "2", "x", "", "1e-300"]),
    st.floats(min_value=-2.0, max_value=2.0).map(repr),
)
LISTS = st.lists(NUMBERS, max_size=3).map(",".join)
STEPS = st.sampled_from(["0", "-1", "nan", "inf", "x", "1e200", "0.01", "0.05"])


def flag_values(options, tmp_dir):
    if "choices" in options:
        return st.sampled_from([*options["choices"], "bogus"])
    kind = options.get("type")
    if kind is _step:  # a tiny step is only slow
        return STEPS
    if kind in (_finite_list, _point):
        return LISTS
    if kind is _finite:
        return NUMBERS
    if kind is _samples:
        return st.integers(min_value=-3, max_value=200).map(str)
    # output paths, one in a missing directory
    return st.sampled_from([str(tmp_dir / "out.csv"), str(tmp_dir / "no" / "out.csv")])


@st.composite
def command_lines(draw, tmp_dir):
    """One command with a random subset of its flags, each with a value
    drawn for its type."""
    command = draw(st.sampled_from(list(_COMMANDS)))
    argv = [command]
    for flag, options in _COMMANDS[command][3]:
        if not draw(st.booleans()):
            continue
        if options.get("action") == "store_true":
            argv.append(flag)
        else:
            argv.append(f"{flag}={draw(flag_values(options, tmp_dir))}")
    return argv


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fuzz_command_flags(tmp_path_factory, data):
    tmp_dir = tmp_path_factory.getbasetemp()
    run_clean(data.draw(command_lines(tmp_dir)))


# Reports of the README's example1 commands (riccati without --out), as
# printed before the closed loop became one batched recurrence (simulate,
# sweep) and before the CLI became table-driven (the others): the exit
# code, then fields.  Floats match to 1e-12 relative; ints, bools, strings
# and nulls exactly.  The slack supremum is pinned at its closed form
# 3/4 + 1e-8/2: the Maslov count's root-find gives 0.75000000500001862, the
# golden-section refine before it 0.75000000500066144, and the bisection
# before that a midpoint 3.0e-5 below.
THIRD = 0.33333333333333492
SLACK = 0.75 + 0.5e-8
GOLDEN = {
    ("simulate", "--preset", "example1", "--instants", "0.5"): (0, {
        "payoff_direct": 0.33333333333333381,
        "payoff_completed_square": THIRD,
        "game_value": THIRD,
        "terminal_cost": 0.11111111111114852,
    }),
    ("sweep", "--preset", "example1", "--c", "0,1,2"): (0, {
        "payoffs": [0.55555555555538905, 1.7222222222216537, 3.8888888888882525],
        "game_value": THIRD,
    }),
    ("validate", "--preset", "example1"): (0, {
        "command": "validate",
        "passed": False,
        "assumption1_max_eig": 2.0,
        "violations": [{
            "name": "controllability_dominance",
            "measured": 2.0,
            "severity": "warning",
            "message": "controllability gap not negative definite (max eig "
            "2.000e+00); not satisfied (solution may still exist)",
        }],
    }),
    ("riccati", "--preset", "example1"): (0, {
        "command": "riccati",
        "kind": "value",
        "grid_points": 1001,
        "reached_floor": True,
        "residual": 1.473561720801787e-12,
        "value_at_t0": [
            [0.33333333333333282, 0.0, -0.33333333333333337, 0.0],
            [0.0, 0.33333333333333282, 0.0, -0.33333333333333337],
            [-0.33333333333333337, 0.0, THIRD, 0.0],
            [0.0, -0.33333333333333337, 0.0, THIRD],
        ],
        "game_value": THIRD,
        "csv": None,
    }),
    ("schedule", "--preset", "example1"): (0, {
        "command": "schedule",
        "N": 1,
        "instants": [0.50000100000000003],
        "margin": 9.9999999999999995e-07,
        "slack_sup": [SLACK],
        "certificates": [
            {"start": 0.0, "end": 0.50000100000000003, "escape_found": False,
             "t_escape": None},
            {"start": 0.50000100000000003, "end": 1.0, "escape_found": False,
             "t_escape": None},
        ],
    }),
    ("check-schedule", "--preset", "example1", "--instants", "0.8", "--strict"): (1, {
        "command": "check-schedule",
        "instants": [0.80000000000000004],
        "pass": False,
        "intervals": [
            {"start": 0.0, "end": 0.80000000000000004, "escape_found": True,
             "t_escape": 0.10000000000000003},
            {"start": 0.80000000000000004, "end": 1.0, "escape_found": False,
             "t_escape": None},
        ],
    }),
    ("slack", "--preset", "example1", "--t-prev", "0"): (0, {
        "command": "slack",
        "t_prev": 0.0,
        "upper": 1.0,
        "sup_next_instant": SLACK,
    }),
    ("reachability", *EXAMPLE1_REACH): (0, {
        "command": "reachability",
        "effort_budget": 0.16666666666666666,
        "horizon": 0.75,
        "re_scalar": 0.5,
        "radius": 0.5,
    }),
}


def assert_pinned(got, expected, where):
    if isinstance(expected, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0), where
    elif isinstance(expected, list):
        assert isinstance(got, list) and len(got) == len(expected), where
        for k, (g, e) in enumerate(zip(got, expected)):
            assert_pinned(g, e, f"{where}[{k}]")
    elif isinstance(expected, dict):
        assert isinstance(got, dict) and list(got) == list(expected), where
        for key in expected:
            assert_pinned(got[key], expected[key], f"{where}.{key}")
    else:
        assert type(got) is type(expected) and got == expected, where


@pytest.mark.parametrize(
    "argv",
    list(GOLDEN),
    ids=["simulate", "sweep", "validate", "riccati", "schedule", "check-schedule",
         "slack", "reachability"],
)
def test_readme_reports_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    expected_code, fields = GOLDEN[argv]
    assert code == expected_code
    doc = json.loads(out)
    for key, expected in fields.items():
        assert_pinned(doc[key], expected, key)
