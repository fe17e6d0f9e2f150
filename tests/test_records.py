"""The package's records: keyword construction, immutability, and value equality where it is kept."""

from fractions import Fraction

import numpy as np
import pytest

from entcesaro.correlations import CorrelationSpec, DynamicalSystem
from entcesaro.engines import CesaroResult, ConvergenceReport, ReportRow, cesaro_direct, cesaro_spectral
from entcesaro.linalg import haar_unitary
from entcesaro.partitions import Partition, parse_partition
from entcesaro.scenario import Scenario
from entcesaro.spectral import (
    Phase,
    PhaseSums,
    SpectralDecomposition,
    SpectralLine,
    Tolerances,
    _Resonance,
    decompose,
    reconstruct,
)
from entcesaro.verify import Check

from conftest import random_ops

EYE = np.eye(2, dtype=complex)
P1212 = Partition((1, 2, 1, 2))
SUMS = PhaseSums(np.array([0.0, 0.5]), np.zeros(2, dtype=bool), np.zeros(2, dtype=object), 1)
DEC = SpectralDecomposition(SUMS, EYE, np.arange(2))
ROW_FIELDS = {"N": 10, "error_op": 0.1, "error_frob": 0.2, "certified_bound": 0.3, "engine": "spectral",
              "seconds": 0.0}
ROW = ReportRow(**ROW_FIELDS)

# Per record: its class, the arguments given by keyword, and the values of the fields they leave out.  An
# argument is stored as the field of its name, but ``Phase``'s value, which is folded into its two fields.
RECORDS = {
    "Partition": (Partition, {"labels": (1, 2, 2, 1)}, {}),
    "Phase": (Phase, {"value": 1.25}, {"turns": 0.25, "frac": None}),
    "Tolerances": (Tolerances, {"cluster": 1e-6}, {"unitarity": 1e-10, "resonance": 1e-8}),
    "PhaseSums": (PhaseSums, {"turns": SUMS.turns, "exact": SUMS.exact, "numerators": SUMS.numerators,
                              "denominator": 1}, {}),
    "SpectralLine": (SpectralLine, {"phase": Phase(0.5), "basis": EYE[:, 1:]}, {}),
    "SpectralDecomposition": (SpectralDecomposition, {"spectrum": SUMS, "frame": EYE, "blocks": DEC.blocks},
                              {"tolerances": Tolerances()}),
    "_Resonance": (_Resonance, {"table": np.zeros((2, 2)), "partners": (None, None), "gap": 1.0, "one": None}, {}),
    "CesaroResult": (CesaroResult, {"matrix": EYE, "engine": "direct", "N": 3, "elapsed": 0.5}, {}),
    "ReportRow": (ReportRow, ROW_FIELDS, {}),
    "ConvergenceReport": (ConvergenceReport, {"rows": (ROW,), "spectral_gap": 0.5}, {}),
    "Check": (Check, {"name": "unitarity", "passed": True, "value": 0.0, "threshold": 1e-10}, {"detail": ""}),
    "DynamicalSystem": (DynamicalSystem, {"unitary": EYE, "dec": DEC, "density": EYE / 2}, {}),
    "CorrelationSpec": (CorrelationSpec, {"partition": P1212, "ops": (EYE,) * 5}, {}),
}


@pytest.mark.parametrize("name", [*RECORDS, "Scenario"])
def test_record_fields_and_mutability(name):
    if name == "Scenario":  # read from a JSON object, and mutable: the command line overrides the seed and the engine
        unitary = {"kind": "random", "dim": 2}
        record = Scenario({"unitary": unitary, "partition": [1, 2, 1, 2], "Ns": [10]})
        assert record.unitary_spec is unitary
        assert (record.partition, record.operator_specs, record.state_spec, record.engine, record.horizons,
                record.tolerances, record.seed, record.out) == (P1212, None, None, "spectral", [10], Tolerances(), 0, None)
        record.seed, record.engine = 5, "direct"
        assert (record.seed, record.engine) == (5, "direct")
        return
    cls, given, defaults = RECORDS[name]
    record = cls(**given)
    for field, value in given.items():
        if field in cls._fields:
            assert getattr(record, field) is value
    for field, value in defaults.items():
        assert getattr(record, field) == value
    field = cls._fields[0]
    kept = getattr(record, field)
    for attempt in (lambda: setattr(record, field, None), lambda: setattr(record, "extra", None),
                    lambda: delattr(record, field)):
        with pytest.raises(AttributeError):
            attempt()
    assert getattr(record, field) is kept


@pytest.mark.parametrize("make, other", [
    (lambda: Partition([1, 2, 1, 2]), Partition((1, 2, 2, 1))),
    (lambda: Phase(Fraction(1, 2)), Phase(0.5)),
    (lambda: Tolerances(resonance=1e-6), Tolerances()),
])
def test_value_records_compare_and_hash_by_class_and_fields(make, other):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, other}) == 2 and a != other
    assert a != tuple(vars(a).values())  # another class with the same fields


def test_records_without_value_equality_compare_by_identity():
    twin = SpectralDecomposition(DEC.spectrum, DEC.frame, DEC.blocks)
    assert DEC == DEC and DEC != twin and len({DEC, twin, SUMS}) == 3


def test_a_partition_from_a_list_is_the_parsed_partition():
    p = Partition([1, 2, 1, 2])
    assert p.labels == (1, 2, 1, 2) and p == parse_partition("1,2,1,2")
    assert p.class_pairs == ((1, 3), (2, 4))
    u = haar_unitary(np.random.default_rng(3), 3)
    dec = decompose(u)
    ops = random_ops(np.random.default_rng(3), 3, 3)
    np.testing.assert_allclose(cesaro_spectral(dec, p, ops, 7).matrix,
                               cesaro_direct(reconstruct(dec), p, ops, 7).matrix, atol=1e-12)
