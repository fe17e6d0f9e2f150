import json

import numpy as np
import pytest

from entcesaro.linalg import operator_norm
from entcesaro.scenario import Scenario, ScenarioError, load_scenario, rng_for


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


BASE = {
    "unitary": {"kind": "random", "dim": 3, "seed": 4, "phaseMode": "rational", "maxDenominator": 6},
    "partition": [1, 2, 1, 2],
    "operators": [{"kind": "random"}, {"kind": "random"}, {"kind": "random"}],
    "engine": "spectral",
    "Ns": [10, 100],
    "seed": 9,
}


def test_load_round_trip(tmp_path):
    scenario = load_scenario(write_scenario(tmp_path, BASE))
    u, dec = scenario.system()
    assert dec.dim == 3
    assert operator_norm(u.conj().T @ u - np.eye(3)) <= 1e-10
    ops = scenario.operators(3)
    assert len(ops) == 3
    for a in ops:
        assert operator_norm(a) == pytest.approx(1.0, abs=1e-9)
    assert scenario.partition.labels == (1, 2, 1, 2)
    assert scenario.horizons == [10, 100]


def test_operators_derive_from_scenario_seed(tmp_path):
    s1 = load_scenario(write_scenario(tmp_path, BASE, "a.json"))
    s2 = load_scenario(write_scenario(tmp_path, BASE, "b.json"))
    for a, b in zip(s1.operators(3), s2.operators(3)):
        assert np.array_equal(a, b)
    other = dict(BASE, seed=10)
    s3 = load_scenario(write_scenario(tmp_path, other, "c.json"))
    assert not np.array_equal(s1.operators(3)[0], s3.operators(3)[0])


def test_diagonal_rational_unitary():
    scenario = Scenario({
        "unitary": {"kind": "diagonal-rational", "phases": ["0/1", "1/2", "2/3"]},
    })
    u, dec = scenario.system()
    np.testing.assert_allclose(
        u, np.diag([1.0, -1.0, np.exp(4j * np.pi / 3)]), atol=1e-14
    )
    assert [str(ph) for ph in dec.phases] == ["0/1", "1/2", "2/3"]
    assert np.bincount(dec.blocks).tolist() == [1, 1, 1]


def test_matrix_unitary_and_operator():
    scenario = Scenario({
        "unitary": {"kind": "matrix", "re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]},
        "partition": [1, 1],
        "operators": [{"kind": "matrix", "re": [[1, 0], [0, 2]]}],
    })
    u, dec = scenario.system()
    np.testing.assert_array_equal(u, np.array([[0, 1], [1, 0]], dtype=complex))
    np.testing.assert_array_equal(scenario.operators(1)[0], np.diag([1.0, 2.0]))


def test_state_specs():
    base = {
        "unitary": {"kind": "diagonal-rational", "phases": ["0/1", "1/2"]},
        "state": {"kind": "vector", "omega": [[1.0, 0.0], 0.0]},
    }
    scenario = Scenario(base)
    np.testing.assert_array_equal(scenario.state(), np.array([1.0, 0.0], dtype=complex))
    scenario = Scenario(dict(base, state={"kind": "trace", "diag": [1.0, 0.0]}))
    np.testing.assert_array_equal(scenario.state(), np.diag([1.0, 0.0]))


def test_tolerance_overrides():
    scenario = Scenario({
        "unitary": {"kind": "diagonal-rational", "phases": ["0/1"]},
        "tolerances": {"resonance": 1e-6},
    })
    assert scenario.tolerances.resonance == 1e-6
    assert scenario.tolerances.cluster == 1e-8


@pytest.mark.parametrize("mutation", [
    {"unitary": None},
    {"unitary": {"kind": "warp"}},
    {"unitary": {"kind": "random"}},
    {"partition": []},
    {"partition": [0, 1]},
    {"engine": "warp"},
    {"Ns": [2, 2]},
    {"Ns": [5, 2]},
    {"Ns": ["2"]},
    {"seed": "x"},
    {"tolerances": {"warp": 1}},
    {"tolerances": {"resonance": -1}},
    {"operators": {"kind": "random"}},
    {"partition": [1, 1, 1]},
    {"partition": [1, 2, 1, 2, 1]},
])
def test_malformed_scenarios_rejected(mutation):
    data = dict(BASE)
    data.update(mutation)
    data = {k: v for k, v in data.items() if v is not None}
    with pytest.raises(ScenarioError):
        scenario = Scenario(data)
        scenario.system()
        scenario.operators(3)


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioError):
        load_scenario(str(bad))


def test_operator_count_mismatch(tmp_path):
    scenario = load_scenario(write_scenario(tmp_path, BASE))
    with pytest.raises(ScenarioError):
        scenario.operators(5)


def test_rng_for_is_deterministic_and_name_sensitive():
    a = rng_for(7, "operator", 0).standard_normal(4)
    b = rng_for(7, "operator", 0).standard_normal(4)
    c = rng_for(7, "operator", 1).standard_normal(4)
    d = rng_for(7, "unitary").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("engine", ["warp", ["spectral"], {"name": "direct"}, None])
def test_unknown_engine_message_is_the_engines_message(engine):
    from entcesaro.engines import _engine

    with pytest.raises(ValueError) as expected:
        _engine(engine)
    with pytest.raises(ScenarioError) as got:
        Scenario(dict(BASE, engine=engine))
    assert str(got.value) == f"malformed scenario: {expected.value}"
