import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegame.cli import (
    dumps_canonical,
    load_spec,
    main,
    spec_from_dict,
    spec_to_dict,
)
from pegame.errors import ParseError, SchemaError
from pegame.game_model import example_one_spec


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
    header = out_csv.read_text().splitlines()[0].split(",")
    assert header[:5] == ["t", "x0", "x1", "x2", "x3"]
    assert header[-2:] == ["running_cost", "event_flag"]


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
    code, out, _ = run_cli(capsys, "reachability", "--t1", "0.75")
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


def test_escape_report_serializes(example_spec, example_value_sol):
    from pegame.cli import escape_report_to_dict
    from pegame.escape import detect_escape_radon
    from pegame.riccati import eval_solution

    rep = detect_escape_radon(
        example_spec, 1.0, -eval_solution(example_value_sol, 1.0), 0.0
    )
    doc = json.loads(dumps_canonical(escape_report_to_dict(rep)))
    assert doc["found"] is True
    assert doc["method"] == "radon_determinant"
    assert doc["t_escape"] == pytest.approx(0.5, abs=1e-6)
    assert doc["floor"] == 0.0


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


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
    assert code == 2 and out == ""
    assert "Traceback" not in err and "--step must be positive" in err


@pytest.mark.parametrize(
    "flag", ["--rtol", "--atol", "--h-max", "--h-min", "--blowup"]
)
def test_removed_tolerance_flags_are_unknown(capsys, flag):
    code, out, err = run_cli(capsys, "riccati", "--preset", "example1", flag, "1e-9")
    assert code == 2 and out == ""
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


# Reports of the README's example1 commands, as printed before the closed
# loop became one batched recurrence.
GOLDEN = {
    ("simulate", "--preset", "example1", "--instants", "0.5"): {
        "payoff_direct": 0.33333333333333381,
        "payoff_completed_square": 0.33333333333333492,
        "game_value": 0.33333333333333492,
        "terminal_cost": 0.11111111111114852,
    },
    ("sweep", "--preset", "example1", "--c", "0,1,2"): {
        "payoffs": [0.55555555555538905, 1.7222222222216537, 3.8888888888882525],
        "game_value": 0.33333333333333492,
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=["simulate", "sweep"])
def test_readme_reports_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    for key, expected in GOLDEN[argv].items():
        assert doc[key] == pytest.approx(expected, rel=1e-12, abs=0.0), key
