import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegame.errors import DimensionMismatch, NonSymmetric
from pegame.game_model import GameSpec, example_one_spec, validate_spec
from pegame.riccati import solve_value_riccati
from pegame.simulator import game_value


def test_example_one_matrices():
    spec = example_one_spec()
    I2 = np.eye(2)
    assert np.array_equal(spec.A, np.zeros((4, 4)))
    assert np.array_equal(spec.B, np.vstack([I2, np.zeros((2, 2))]))
    assert np.array_equal(spec.C, np.vstack([np.zeros((2, 2)), I2]))
    assert np.array_equal(spec.Q, np.zeros((4, 4)))
    assert np.array_equal(spec.Q_f, np.block([[I2, -I2], [-I2, I2]]))
    assert np.array_equal(spec.R_p, 0.25 * I2)
    assert np.array_equal(spec.R_e, 0.5 * I2)
    assert spec.t0 == 0.0 and spec.tf == 1.0
    assert spec.tf - spec.t0 == 1.0
    assert np.array_equal(spec.x0, [0.0, 0.0, 1.0, 0.0])


def test_example_one_terminal_weight_eigenvalues():
    eigs = np.linalg.eigvalsh(example_one_spec().Q_f)
    assert np.allclose(sorted(eigs), [0.0, 0.0, 2.0, 2.0], atol=1e-12)


def test_controllability_gap_example_one():
    spec = example_one_spec()
    gap = spec.controllability_gap()
    expected = np.diag([-4.0, -4.0, 2.0, 2.0])
    assert np.allclose(gap, expected, atol=1e-12)


def test_validate_example_one_flags_only_dominance():
    report = validate_spec(example_one_spec())
    assert not report.passed
    assert report.assumption1_max_eig == pytest.approx(2.0, abs=1e-12)
    assert [v.name for v in report.violations] == ["controllability_dominance"]
    v = report.violations[0]
    assert v.severity == "warning"
    assert "may still exist" in v.message


def test_validate_pursuer_only_controllability_passes():
    spec = example_one_spec()
    no_evader = GameSpec(
        A=spec.A,
        B=np.eye(4),
        C=np.zeros((4, 2)),
        Q=spec.Q,
        Q_f=spec.Q_f,
        R_p=np.eye(4),
        R_e=spec.R_e,
        t0=0.0,
        tf=1.0,
        x0=spec.x0,
    )
    report = validate_spec(no_evader)
    assert report.passed
    assert report.assumption1_max_eig < 0


def test_validate_evader_only_controllability_fails():
    spec = example_one_spec()
    no_pursuer = GameSpec(
        A=spec.A,
        B=np.zeros((4, 2)),
        C=spec.C,
        Q=spec.Q,
        Q_f=spec.Q_f,
        R_p=spec.R_p,
        R_e=np.eye(2),
        t0=0.0,
        tf=1.0,
        x0=spec.x0,
    )
    report = validate_spec(no_pursuer)
    assert not report.passed
    assert report.assumption1_max_eig >= 0
    assert any(v.name == "controllability_dominance" for v in report.violations)


def test_dimension_mismatch_raises():
    spec = example_one_spec()
    with pytest.raises(DimensionMismatch):
        GameSpec(
            A=spec.A,
            B=np.zeros((3, 2)),
            C=spec.C,
            Q=spec.Q,
            Q_f=spec.Q_f,
            R_p=spec.R_p,
            R_e=spec.R_e,
            t0=0.0,
            tf=1.0,
            x0=spec.x0,
        )


def test_non_symmetric_weight_raises():
    spec = example_one_spec()
    Qf = spec.Q_f.copy()
    Qf[0, 1] += 1e-3
    with pytest.raises(NonSymmetric):
        GameSpec(
            A=spec.A,
            B=spec.B,
            C=spec.C,
            Q=spec.Q,
            Q_f=Qf,
            R_p=spec.R_p,
            R_e=spec.R_e,
            t0=0.0,
            tf=1.0,
            x0=spec.x0,
        )


def test_time_order_violation_reported():
    spec = example_one_spec()
    with pytest.raises(ValueError, match="need finite t0 < tf, got t0=1.0, tf=0.0"):
        GameSpec(
            A=spec.A,
            B=spec.B,
            C=spec.C,
            Q=spec.Q,
            Q_f=spec.Q_f,
            R_p=spec.R_p,
            R_e=spec.R_e,
            t0=1.0,
            tf=0.0,
            x0=spec.x0,
        )


def test_validate_is_pure():
    spec = example_one_spec()
    assert validate_spec(spec) == validate_spec(spec)


def test_spec_equality_and_immutability():
    a, b = example_one_spec(), example_one_spec()
    assert a == b
    with pytest.raises(Exception):
        a.A[0, 0] = 1.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
def test_random_clean_specs_validate(seed, n):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    B = np.eye(n)
    L = rng.standard_normal((n, n))
    Q = L @ L.T
    M = rng.standard_normal((n, n))
    Q_f = M @ M.T
    spec = GameSpec(
        A=A,
        B=B,
        C=np.zeros((n, 1)),
        Q=Q,
        Q_f=Q_f,
        R_p=np.eye(n),
        R_e=np.eye(1),
        t0=0.0,
        tf=1.0,
        x0=rng.standard_normal(n),
    )
    report = validate_spec(spec)
    assert report.passed
    assert report.assumption1_max_eig < 0


def _with(**changes) -> dict:
    """example1's fields, some replaced."""
    spec = example_one_spec()
    fields = {name: getattr(spec, name) for name in
              ("A", "B", "C", "Q", "Q_f", "R_p", "R_e", "t0", "tf", "x0")}
    return {**fields, **changes}


ASYMMETRIC_Q_F = example_one_spec().Q_f + np.outer([1e-3, 0, 0, 0], [0, 1, 0, 0])
NAN_Q = np.where(np.eye(4) == 1, np.nan, 0.0)


@pytest.mark.parametrize(
    "changes,error,message",
    [
        ({"B": np.zeros((3, 2))}, DimensionMismatch, r"B has shape \(3, 2\), expected \(4, 2\)"),
        ({"x0": [0.0, 0.0, 1.0]}, DimensionMismatch, r"x0 has shape \(3,\), expected \(4,\)"),
        ({"Q_f": ASYMMETRIC_Q_F}, NonSymmetric, "^Q_f not symmetric$"),
        ({"R_e": [[0.5, 0.1], [0.0, 0.5]]}, NonSymmetric, "^R_e not symmetric$"),
        ({"t0": 1.0, "tf": 1.0}, ValueError, r"need finite t0 < tf, got t0=1.0, tf=1.0"),
        ({"t0": 2.0}, ValueError, r"need finite t0 < tf, got t0=2.0, tf=1.0"),
        ({"tf": np.inf}, ValueError, r"need finite t0 < tf, got t0=0.0, tf=inf"),
        ({"t0": -1e308, "tf": 1e308}, ValueError,
         r"^t0=-1e\+308, tf=1e\+308: the horizon tf - t0 overflows$"),
        # example1 shifted by 1e13: one ulp there is 2e-3 of the horizon, and
        # the game value came out as 0.33350 instead of 1/3
        ({"t0": 1e13, "tf": 1e13 + 1.0}, ValueError,
         r"^t0=10000000000000.0, tf=10000000000001.0: one ulp of the times exceeds "
         r"1e-09 of the horizon, the escape-time resolution$"),
        ({"Q": NAN_Q}, ValueError, "Q contains non-finite entries"),
        ({"R_p": np.zeros((2, 2))}, ValueError, r"R_p is not invertible \(Singular matrix\)"),
        ({"R_e": [[1.0, 1.0], [1.0, 1.0]]}, ValueError, r"R_e is not invertible"),
    ],
    ids=["B-shape", "x0-length", "Q_f-asymmetric", "R_e-asymmetric", "t0-equals-tf",
         "t0-after-tf", "tf-infinite", "horizon-infinite", "times-unresolvable", "Q-nan",
         "R_p-singular", "R_e-singular"],
)
def test_structural_defect_raises_at_construction(changes, error, message):
    with pytest.raises(error, match=message):
        GameSpec(**_with(**changes))


@pytest.mark.parametrize(
    "name,product", [("B", "B R_p^-1 B'"), ("C", "C R_e^-1 C'")], ids=["B", "C"]
)
def test_overflowing_power_raises_at_construction(name, product):
    # finite entries whose power overflows: the game's flows cannot be built
    fields = _with(**{name: getattr(example_one_spec(), name) * 1e200})
    with pytest.raises(ValueError) as caught:
        GameSpec(**fields)
    assert str(caught.value) == f"{product} is not finite"


def test_indefinite_weight_is_a_violation_not_a_refusal():
    # an invertible weight of the wrong sign is a game that breaks the
    # paper's assumptions: validate reports it
    report = validate_spec(GameSpec(**_with(R_p=-np.eye(2))))
    assert [v.name for v in report.violations] == ["R_p_pd", "controllability_dominance"]


# entries of fuzzed specs are small integers, which keeps the inverse of
# every invertible weight bounded and so the escape count's grid small
ENTRY = st.integers(-3, 3).map(float)
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


@st.composite
def raw_specs(draw):
    """GameSpec arguments for n = 1-3: weights symmetric or not (often
    singular), random times, and at most one field mis-shaped or given a
    non-finite entry."""
    n, p, e = (draw(st.integers(1, 3)) for _ in range(3))
    shapes = {"A": (n, n), "B": (n, p), "C": (n, e), "Q": (n, n), "Q_f": (n, n),
              "R_p": (p, p), "R_e": (e, e), "x0": (n,)}
    fields = {}
    for name, shape in shapes.items():
        size = int(np.prod(shape))
        M = np.array(draw(st.lists(ENTRY, min_size=size, max_size=size))).reshape(shape)
        if name.startswith(("Q", "R")) and draw(st.integers(0, 7)):
            M = np.triu(M) + np.triu(M, 1).T
        fields[name] = M
    name = draw(st.sampled_from(sorted(shapes)))
    defect = draw(st.sampled_from(["none", "none", "none", "none", "shape", "entry"]))
    if defect == "shape":  # one row too many
        fields[name] = np.concatenate([fields[name], fields[name][:1]])
    elif defect == "entry":
        fields[name] = fields[name].copy()
        fields[name].flat[draw(st.integers(0, fields[name].size - 1))] = draw(NON_FINITE)
    fields["t0"] = draw(st.sampled_from([-1.0, 0.0, 1.0]))
    fields["tf"] = fields["t0"] + draw(
        st.sampled_from([0.5, 1.0, 2.0, 3.0, 0.5, 1.0, 0.0, -1.0, np.nan, np.inf])
    )
    return fields


@settings(max_examples=60, deadline=None)
@given(fields=raw_specs())
def test_fuzz_the_gate(fields):
    # a spec is refused at construction, or the library meets it with its
    # own errors only: no numpy shape error, LinAlgError or TypeError
    try:
        spec = GameSpec(**fields)
    except ValueError:
        return
    validate_spec(spec)
    try:
        game_value(spec, solve_value_riccati(spec))
    except Exception as exc:  # the type is the check
        assert type(exc).__module__ == "pegame.errors", repr(exc)
