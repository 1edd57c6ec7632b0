import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

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
    build_parser,
    dumps_canonical,
    load_spec,
    main,
    spec_from_dict,
    spec_to_dict,
)
from pegame import cli, errors
from pegame.errors import DomainError, ParseError, SchemaError
from pegame.game_model import example_one_spec

ROOT = Path(__file__).resolve().parents[1]

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


def test_slack_at_the_top_of_the_horizon(capsys):
    code, out, _ = run_cli(
        capsys, "slack", "--preset", "example1", "--t-prev", "0.9999999999", "--upper", "1"
    )
    assert code == 0
    assert json.loads(out)["sup_next_instant"] == 1.0


def test_deviation_of_the_wrong_length_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--preset", "example1", "--evader", "deviation", "--w", "1,2,3"
    )
    one_line_error(code, out, err)
    assert "--w" in err and "n_e = 2" in err


def test_deviation_magnitude_and_vector_exclude_each_other(capsys):
    # --w is the whole deviation, so a --c beside it would be ignored
    deviation = ("simulate", "--preset", "example1", "--evader", "deviation")
    code, out, err = run_cli(capsys, *deviation, "--w", "1,2", "--c", "3")
    one_line_error(code, out, err)
    assert "--c" in err and "--w" in err
    # --c alone keeps its default of 1.0
    default, explicit = run_cli(capsys, *deviation), run_cli(capsys, *deviation, "--c", "1")
    assert default[0] == 0 and default == explicit
    assert run_cli(capsys, *deviation, "--c", "3")[1] != default[1]


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; calls that set defaults, and a
    # usage error between them, leave nothing for the next call to see
    argvs = [
        ("check-schedule", "--preset", "example1", "--instants", "0.8"),
        ("simulate", "--preset", "example1", "--evader", "deviation", "--c", "2"),
        ("simulate", "--preset", "example1", "--bogus"),
        ("simulate", "--preset", "example1", "--evader", "deviation"),
        ("reachability", *EXAMPLE1_REACH, "--center", "0,0"),
        ("reachability", *EXAMPLE1_REACH),
        ("validate", "--preset", "example1"),
    ]
    reused = [run_cli(capsys, *argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert reused == fresh
    assert reused[2][0] == 2 and build_parser() is build_parser()


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
# the three writers shared one; the riccati and simulate rows re-pinned to
# round-off when the Maslov count's grid step stopped being read off two
# rounded grid points, and the simulate rows again when the simulation
# read P off the count instead of a cubic-Hermite interpolant
CSV_ROWS = {
    ("riccati", "--preset", "example1"): (
        "t,m0_0,m0_1,m0_2,m0_3,m1_0,m1_1,m1_2,m1_3,m2_0,m2_1,m2_2,m2_3,m3_0,m3_1,m3_2,m3_3",
        "0,0.33333333333333331,-0,-0.33333333333333348,-0,-0,0.33333333333333331,-0,"
        "-0.33333333333333348,-0.33333333333333348,-0,0.33333333333333359,-0,-0,"
        "-0.33333333333333348,-0,0.33333333333333359",
        "1,1,0,-1,-0,0,1,-0,-1,-1,-0,1,0,-0,-1,0,1",
    ),
    ("simulate", "--preset", "example1", "--instants", "0.5"): (
        "t,x0,x1,x2,x3,xhat0,xhat1,xhat2,xhat3,e0,e1,e2,e3,up0,up1,ue0,ue1,"
        "running_cost,event_flag",
        "0,0,0,1,0,0,0,1,0,0,0,0,0,1.3333333333333339,0,0.66666666666666718,0,0,0",
        "1,1.3333333333333544,0,1.6666666666666983,0,1.3333333333333544,0,"
        "1.6666666666666983,0,0,0,0,0,1.3333333333333757,0,0.66666666666668783,0,"
        "0.2222222222222309,0",
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


# each exception class of the package
ERRORS = [
    value for value in vars(errors).values()
    if isinstance(value, type) and issubclass(value, BaseException)
]


@pytest.mark.parametrize("error", ERRORS, ids=lambda error: error.__name__)
def test_every_error_has_an_exit_code(capsys, monkeypatch, error):
    # a DomainError exits 1 with its class named; any other error of the
    # package is a ValueError, which exits 2
    assert issubclass(error, (DomainError, ValueError))

    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "_spec", fail)
    code, out, err = run_cli(capsys, "validate", "--preset", "example1")
    if issubclass(error, DomainError):
        assert (code, out, err) == (1, "", f"error: {error.__name__}: boom\n")
    else:
        assert (code, out, err) == (2, "", "error: boom\n")


def test_domain_errors_pinned():
    assert {e.__name__ for e in ERRORS if issubclass(e, DomainError)} - {"DomainError"} == {
        "DegenerateSchedule", "FiniteEscape", "InadmissibleInterval", "IntervalAdmissible",
        "NoFeasibleInstance", "StepUnderflow",
    }


@pytest.mark.parametrize(
    "argv,message",
    [
        (["check-schedule", "--preset", "example1", "--instants", "0.5,0.5"],
         "instants not strictly increasing: [0.5, 0.5]"),
        (["simulate", "--preset", "example1", "--instants", "1.0"],
         "instants must lie strictly inside (0.0, 1.0): [1.0]"),
        (["simulate", "--preset", "example1", "--evader", "risky", "--instants", "0.7,0.6"],
         "instants not strictly increasing: [0.7, 0.6]"),
        (["simulate", "--preset", "example1", "--evader", "risky", "--instants", "2"],
         "instants must lie strictly inside (0.0, 1.0): [2.0]"),
        (["reachability", "--budget", "-1", "--horizon", "1"],
         "effort budget must be nonnegative, got -1.0"),
    ],
    ids=[
        "unsorted-instants", "instant-at-tf", "risky-unsorted-instants",
        "risky-instant-past-tf", "negative-budget",
    ],
)
def test_rejected_input_exits_2_without_class_name(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def _defect_documents() -> dict:
    """example1 documents with one structural defect each (the last has two)."""
    good = spec_to_dict(example_one_spec())
    asymmetric_q_f = [row[:] for row in good["Q_f"]]
    asymmetric_q_f[0][1] += 1e-3
    nan_q = [row[:] for row in good["Q"]]
    nan_q[0][0] = float("nan")
    one_pursuer_input = {"B": [[1.0], [0.0], [0.0], [0.0]]}
    changes = {
        "good": {},
        "B-1x1": {"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0]], "C": [[1.0], [0.0]],
                  "Q": [[0.0, 0.0], [0.0, 0.0]], "Q_f": [[1.0, 0.0], [0.0, 1.0]],
                  "R_p": [[1.0]], "R_e": [[1.0]], "x0": [1.0, 0.0]},
        "x0-3": {"x0": [0.0, 0.0, 1.0]},
        "Q_f-asymmetric": {"Q_f": asymmetric_q_f},
        "R_e-asymmetric": {"R_e": [[0.5, 0.1], [0.0, 0.5]]},
        "t0-after-tf": {"t0": 1.0, "tf": 0.0},
        "horizon-overflow": {"t0": -1e308, "tf": 1e308},
        "Q-nan": {"Q": nan_q},
        "R_p-zero": {"R_p": [[0.0]], **one_pursuer_input},
        "R_p-negative": {"R_p": [[-1.0]], **one_pursuer_input},
        "A-string": {"A": "x"},
        "A-flat": {"A": [0.0, 0.0, 0.0, 0.0]},
        "B-and-Q_f": {"B": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], "Q_f": asymmetric_q_f},
    }
    return {name: {**good, **change} for name, change in changes.items()}


DEFECT_ERRORS = {
    "B-1x1": "B has shape (1, 1), expected (2, 1)",
    "x0-3": "x0 has shape (3,), expected (4,)",
    "Q_f-asymmetric": "Q_f not symmetric",
    "R_e-asymmetric": "R_e not symmetric",
    "t0-after-tf": "need finite t0 < tf, got t0=1.0, tf=0.0",
    "horizon-overflow": "t0=-1e+308, tf=1e+308: the horizon tf - t0 overflows",
    "Q-nan": "Q contains non-finite entries",
    "R_p-zero": "R_p is not invertible (Singular matrix)",
    "A-string": "A is not a numeric matrix: could not convert string to float: 'x'",
    "A-flat": "A must be a nested (row-major) array",
    "B-and-Q_f": "B has shape (3, 2), expected (4, 2)",
}
DEFECT_DOCUMENTS = _defect_documents()


@pytest.mark.parametrize("command", ["validate", "schedule"])
@pytest.mark.parametrize("name", DEFECT_DOCUMENTS)
def test_single_defect_documents_pinned(capsys, tmp_path, command, name):
    # a spec that is not a game exits 2 under every command, validate
    # included; an invertible indefinite weight is a game that breaks the
    # assumptions: validate reports it and the value flow escapes
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(DEFECT_DOCUMENTS[name]))
    code, out, err = run_cli(capsys, command, "--spec", str(path))
    if name in DEFECT_ERRORS:
        assert (code, out, err) == (2, "", f"error: {DEFECT_ERRORS[name]}\n")
    elif name == "R_p-negative" and command == "schedule":
        assert (code, out, err) == (1, "", "error: FiniteEscape: value flow escaped near t=0.666666667\n")
    else:
        assert (code, err) == (0, "")
        report = json.loads(out)
        if command == "validate":
            expected = ["R_p_pd"] if name == "R_p-negative" else []
            assert [v["name"] for v in report["violations"]] == [*expected, "controllability_dominance"]


@pytest.mark.parametrize("weight", ["R_p", "R_e"])
def test_singular_weight_is_named(capsys, tmp_path, weight):
    doc = spec_to_dict(example_one_spec())
    doc[weight] = np.zeros((2, 2)).tolist()
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "riccati", "--spec", str(path))
    assert (code, out, err) == (2, "", f"error: {weight} is not invertible (Singular matrix)\n")


@pytest.mark.parametrize("command", ["validate", "schedule"])
@pytest.mark.parametrize(
    "name,product", [("B", "B R_p^-1 B'"), ("C", "C R_e^-1 C'")], ids=["B", "C"]
)
def test_overflowing_power_is_named(capsys, tmp_path, command, name, product):
    # finite entries whose power overflows: refused like any spec that is not a game
    doc = spec_to_dict(example_one_spec())
    doc[name] = (np.array(doc[name]) * 1e200).tolist()
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, command, "--spec", str(path)) == (
        2, "", f"error: {product} is not finite\n"
    )


@pytest.mark.parametrize("command", ["validate", "riccati", "simulate"])
def test_unresolvable_times_are_refused(capsys, tmp_path, command):
    # example1 shifted by 1e13 ran with exit 0 and a wrong game value
    doc = spec_to_dict(example_one_spec())
    doc["t0"], doc["tf"] = 1e13, 1e13 + 1.0
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, command, "--spec", str(path)) == (
        2, "", "error: t0=10000000000000.0, tf=10000000000001.0: one ulp of the times "
        "exceeds 1e-09 of the horizon, the escape-time resolution\n"
    )


@pytest.mark.parametrize(
    "value,text",
    [
        (None, "null"),
        (True, "true"),
        (False, "false"),
        (-(10**20), "-100000000000000000000"),
        (np.int64(7), "7"),
        (0.1, "0.10000000000000001"),
        (np.float64(-0.0), "-0"),
        (np.float32(0.5), "0.5"),
        (float("nan"), "nan"),
        (-float("inf"), "-inf"),
        ('a"b\\c\n', r'"a\"b\\c\n"'),
        ("é→", r'"\u00e9\u2192"'),
        ([1, [2.5, None], ()], "[1, [2.5, null], []]"),
        ((True, "x"), '[true, "x"]'),
        (np.array([[1.0, 2.0], [3.0, 4.5]]), "[[1, 2], [3, 4.5]]"),
        (np.arange(3), "[0, 1, 2]"),
        ({1: 2.0, None: {}, (1, 2): [], "k": "v"}, '{"1": 2, "None": {}, "(1, 2)": [], "k": "v"}'),
    ],
)
def test_canonical_text_pinned(value, text):
    assert dumps_canonical(value) == text


@pytest.mark.parametrize("value", [{1, 2}, np.bool_(True), 1j, [np.bool_(False)]],
                         ids=["set", "numpy-bool", "complex", "nested-numpy-bool"])
def test_canonical_text_refuses_other_types(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps_canonical(value)


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


@pytest.mark.parametrize("command", ["riccati", "schedule", "simulate"])
def test_horizon_too_long_for_the_count_is_usage_error(capsys, tmp_path, command):
    # a count over 1e5 time units would need about 2e6 grid points, which
    # would exhaust memory; the count is refused up front
    doc = spec_to_dict(example_one_spec())
    doc["A"], doc["tf"] = (-0.3 * np.eye(4)).tolist(), 1e5
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, "--spec", str(path))
    assert time.perf_counter() - start < 1.0
    one_line_error(code, out, err)
    assert "grid points" in err


def long_spec_file(tmp_path):
    """example1 with A = -0.3 I over 1000 time units, as a spec file."""
    doc = spec_to_dict(example_one_spec())
    doc["A"], doc["tf"] = (-0.3 * np.eye(4)).tolist(), 1000.0
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    return path


def test_long_horizon_schedule_fails_a_late_single_instant(capsys, tmp_path):
    # example1 with A = -0.3 I over 1000 time units needs two instants; the
    # last alone leaves an escape at 996.1763 inside [0, 999.4065)
    path = long_spec_file(tmp_path)
    code, out, _ = run_cli(capsys, "schedule", "--spec", str(path))
    assert code == 0 and json.loads(out)["N"] == 2
    code, out, _ = run_cli(
        capsys, "check-schedule", "--spec", str(path), "--strict",
        "--instants", "999.40654176010241",
    )
    assert code == 1 and json.loads(out)["pass"] is False


def test_long_horizon_riccati_residual(capsys, tmp_path):
    # the residual reads the count's exact planes: round-off on a long
    # horizon, where nodes lie one time unit apart
    code, out, _ = run_cli(capsys, "riccati", "--spec", str(long_spec_file(tmp_path)))
    assert code == 0 and json.loads(out)["residual"] <= 1e-12


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
        "residual": 0.0,
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


# each README report's top-level keys in order, after the command
REPORT_KEYS = {
    "simulate": ["payoff_direct", "payoff_completed_square", "game_value", "events",
                 "terminal_cost", "csv"],
    "sweep": ["c_values", "payoffs", "game_value"],
    "validate": ["passed", "assumption1_max_eig", "violations"],
    "riccati": ["kind", "grid_points", "reached_floor", "residual", "value_at_t0",
                "game_value", "csv"],
    "schedule": ["N", "instants", "margin", "slack_sup", "certificates"],
    "check-schedule": ["instants", "pass", "intervals"],
    "slack": ["t_prev", "upper", "sup_next_instant"],
    "reachability": ["effort_budget", "horizon", "re_scalar", "radius"],
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: argv[0])
def test_readme_report_keys_in_order(capsys, argv):
    _, out, _ = run_cli(capsys, *argv)
    doc = json.loads(out)
    assert list(doc) == ["command", *REPORT_KEYS[argv[0]]]
    assert doc["command"] == argv[0]


# simulate's open-loop and deviation paths, stdout byte for byte
SIMULATE_STDOUT = {
    ("--pursuer", "open-loop", "--evader", "open-loop"): (
        '{"command": "simulate", "payoff_direct": 0.33333333333330117, '
        '"payoff_completed_square": 0.33333333333333359, "game_value": 0.33333333333333359, '
        '"events": [], "terminal_cost": 0.11111111111107125, "csv": null}\n'
    ),
    ("--evader", "deviation", "--w", "1,2"): (
        '{"command": "simulate", "payoff_direct": 2.3888888888883377, '
        '"payoff_completed_square": 2.3888888888887827, "game_value": 0.33333333333333359, '
        '"events": [], "terminal_cost": 4.4444444444439943, "csv": null}\n'
    ),
}


@pytest.mark.parametrize("argv", list(SIMULATE_STDOUT), ids=["open-loop", "deviation"])
def test_simulate_stdout_pinned(capsys, argv):
    assert run_cli(capsys, "simulate", "--preset", "example1", *argv) == (
        0, SIMULATE_STDOUT[argv], ""
    )


# two README runs of the simulator, stdout byte for byte: GOLDEN holds
# their payoffs to 1e-12 relative, these to the last printed digit
README_STDOUT = {
    ("simulate", "--preset", "example1", "--instants", "0.5"): (
        '{"command": "simulate", "payoff_direct": 0.33333333333334902, '
        '"payoff_completed_square": 0.33333333333333359, "game_value": 0.33333333333333359, '
        '"events": [0.5], "terminal_cost": 0.11111111111111815, "csv": null}\n'
    ),
    ("sweep", "--preset", "example1", "--c", "0,1,2"): (
        '{"command": "sweep", "c_values": [0, 1, 2], "payoffs": [0.55555555555556191, '
        '1.7222222222220382, 3.8888888888888533], "game_value": 0.33333333333333359}\n'
    ),
}


@pytest.mark.parametrize("argv", list(README_STDOUT), ids=lambda argv: argv[0])
def test_readme_simulator_stdout_pinned(capsys, argv):
    assert run_cli(capsys, *argv) == (0, README_STDOUT[argv], "")


# A game with coupled, non-diagonal effort weights R_p and R_e, so that the
# gain factors R^-1 B' and R^-1 C' come from a genuine solve; its reports
# are pinned like GOLDEN's.  The values were printed when the factors came
# from a symmetric (LDL') solve; the LU solve that replaced it moves them
# by at most 1.7e-14 relative.  The residual is round-off (6e-16), so it
# is bounded rather than pinned.
COUPLED_SPEC = {
    "version": 1,
    "A": [[0, 0, 0.2, 0], [0, 0, 0, 0.1], [0, 0, 0, 0], [0, 0, 0, 0]],
    "B": [[1, 0], [0, 1], [0, 0], [0, 0]],
    "C": [[0, 0], [0, 0], [1, 0], [0, 1]],
    "Q": [[0] * 4] * 4,
    "Q_f": [[1, 0, -1, 0], [0, 1, 0, -1], [-1, 0, 1, 0], [0, -1, 0, 1]],
    "R_p": [[0.25, 0.1], [0.1, 0.3]],
    "R_e": [[0.5, 0.2], [0.2, 0.7]],
    "t0": 0,
    "tf": 3,
    "x0": [0, 0, 1, 0.5],
}
COUPLED_VALUE = 0.042023159229780879
COUPLED_INSTANTS = [1.3027869185166299, 2.5963220758480605]
COUPLED_MAX_EIG = 2.6567961217741258
COUPLED = {
    ("validate",): (0, {
        "command": "validate",
        "passed": False,
        "assumption1_max_eig": COUPLED_MAX_EIG,
        "violations": [{
            "name": "controllability_dominance",
            "measured": COUPLED_MAX_EIG,
            "severity": "warning",
            "message": "controllability gap not negative definite (max eig "
            "2.657e+00); not satisfied (solution may still exist)",
        }],
    }),
    ("riccati",): (0, {
        "command": "riccati",
        "kind": "value",
        "grid_points": 1001,
        "reached_floor": True,
        "value_at_t0": [
            [0.099863686327774717, 0.038085497896378523,
             -0.039945474531109929, -0.026659848527464954],
            [0.038085497896378523, 0.12555942862327246,
             -0.015234199158551417, -0.087891600036290748],
            [-0.039945474531109929, -0.015234199158551417,
             0.015978189812444019, 0.010663939410985979],
            [-0.026659848527464954, -0.087891600036290748,
             0.010663939410985979, 0.061524120025403542],
        ],
        "game_value": COUPLED_VALUE,
        "csv": None,
    }),
    ("schedule",): (0, {
        "command": "schedule",
        "N": 2,
        "instants": COUPLED_INSTANTS,
        "margin": 3.0000000000000001e-06,
        "slack_sup": [2.3310498440551437, 2.5963227996273641],
        "certificates": [
            {"start": 0, "end": COUPLED_INSTANTS[0], "escape_found": False,
             "t_escape": None},
            {"start": COUPLED_INSTANTS[0], "end": COUPLED_INSTANTS[1],
             "escape_found": False, "t_escape": None},
            {"start": COUPLED_INSTANTS[1], "end": 3, "escape_found": False,
             "t_escape": None},
        ],
    }),
    ("simulate", "--instants", "1,2"): (0, {
        "command": "simulate",
        "payoff_direct": 0.042023159229780428,
        "payoff_completed_square": COUPLED_VALUE,
        "game_value": COUPLED_VALUE,
        "events": [1, 2],
        "terminal_cost": 0.0063405404193031655,
        "csv": None,
    }),
    ("sweep", "--c", "0,1"): (0, {
        "command": "sweep",
        "c_values": [0, 1],
        "payoffs": [0.06233174599011531, 3.2433195687880403],
        "game_value": COUPLED_VALUE,
    }),
}


@pytest.mark.parametrize(
    "argv", list(COUPLED), ids=["validate", "riccati", "schedule", "simulate", "sweep"]
)
def test_coupled_weights_reports_pinned(capsys, tmp_path, argv):
    path = tmp_path / "coupled.json"
    path.write_text(json.dumps(COUPLED_SPEC))
    code, out, _ = run_cli(capsys, *argv, "--spec", str(path))
    expected_code, fields = COUPLED[argv]
    assert code == expected_code
    doc = json.loads(out)
    for key, expected in fields.items():
        assert_pinned(doc[key], expected, key)
    if argv == ("riccati",):
        assert doc["residual"] <= 1e-14


def test_cli_import_leaves_scipy_out():
    # numpy is the package's one runtime dependency; scipy is a test oracle
    probe = "import sys, pegame.cli; print('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_python_dash_m_runs_the_cli():
    done = subprocess.run(
        [sys.executable, "-m", "pegame", "validate", "--preset", "example1"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["command"] == "validate"
