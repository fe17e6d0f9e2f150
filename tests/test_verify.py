"""``verify``'s cross-checks judge rounding per unit of the operators' norm product, so no verdict
depends on the operators' scale, and a wrong engine fails at every scale."""

import numpy as np
import pytest

from entcesaro import engines
from entcesaro.correlations import CorrelationSpec, correlation_term, make_system
from entcesaro.engines import ENGINES
from entcesaro.scenario import Scenario
from entcesaro.spectral import PhaseSums
from entcesaro.verify import run_invariant_suite

SCALES = [1e-3, 1.0, 100.0, 1000.0]


def haar_scenario(norm):
    """Haar d=4 on 1,2,2,1: the nested engine's rounding grows with the cube of the operators' norm."""
    return {"unitary": {"kind": "random", "dim": 4, "seed": 3, "phaseMode": "haar"}, "partition": [1, 2, 2, 1],
            "operators": [{"kind": "random", "norm": norm}] * 3, "Ns": [100, 1000], "seed": 3}


def identity_scenario(norm):
    """Three multiples of I under U^2 = I, so the mean's norm is the norm product, up to rounding."""
    entry = 1.0001 * norm
    matrix = {"kind": "matrix", "re": [[entry if i == j else 0.0 for j in range(3)] for i in range(3)]}
    return {"unitary": {"kind": "diagonal-rational", "phases": ["0/1", "0/1", "1/2"]}, "partition": [1, 2, 2, 1],
            "operators": [matrix] * 3, "Ns": [100, 1000], "seed": 1}


def correlation_scenario(norm):
    """Five observables and the vector state e_1 on exact phases, partition 1,2,1,2."""
    return {"unitary": {"kind": "diagonal-rational", "phases": ["0/1", "1/2", "1/3", "2/3"]},
            "partition": [1, 2, 1, 2], "operators": [{"kind": "random", "norm": norm}] * 5,
            "state": {"kind": "vector", "omega": [1.0, 0.0, 0.0, 0.0]}, "Ns": [100, 1000], "seed": 2}


SCENARIOS = pytest.mark.parametrize("make", [haar_scenario, identity_scenario, correlation_scenario],
                                    ids=["haar", "identity", "correlation"])


def checks_of(data):
    return {check.name: check for check in run_invariant_suite(Scenario(data))}


@SCENARIOS
def test_verdicts_do_not_depend_on_the_operators_scale(make):
    verdicts = []
    for norm in SCALES:
        checks = checks_of(make(norm))
        assert all(check.passed for check in checks.values()), (norm, checks)
        verdicts.append({name: check.passed for name, check in checks.items()})
    assert all(v == verdicts[0] for v in verdicts[1:])


@pytest.mark.parametrize("make, engine", [(haar_scenario, "direct"), (haar_scenario, "nested"),
                                          (identity_scenario, "direct"), (identity_scenario, "nested"),
                                          (correlation_scenario, "direct")],  # 1,2,1,2 crosses: no nested
                         ids=["haar-direct", "haar-nested", "identity-direct", "identity-nested", "correlation-direct"])
def test_an_engine_wrong_by_one_in_a_million_fails_its_cross_check_at_every_scale(monkeypatch, make, engine):
    run = ENGINES[engine]

    def wrong(*args):
        result = run(*args)
        return result._replace(matrix=result.matrix * (1 + 1e-6))

    monkeypatch.setitem(ENGINES, engine, wrong)
    for norm in SCALES:
        assert not checks_of(make(norm))[f"{engine} vs spectral at N=20"].passed, norm


def test_every_other_engine_is_checked_against_the_spectral_mean_in_engines_order():
    names = [name for name in checks_of(haar_scenario(1.0)) if " vs spectral" in name]
    assert names == ["direct vs spectral at N=20", "nested vs spectral at N=20"]
    names = [name for name in checks_of(correlation_scenario(1.0)) if " vs spectral" in name]
    assert names == ["direct vs spectral at N=20"]  # 1,2,1,2 crosses: no nested engine


def test_the_correlation_identity_holds_on_norm_100_observables():
    scenario = Scenario(correlation_scenario(100.0))
    u, dec = scenario.system()
    system = make_system(u, scenario.state(), dec=dec)
    spec = CorrelationSpec(scenario.partition, tuple(scenario.operators(5)))
    rng = np.random.default_rng(4)
    for _ in range(20):
        correlation_term(system, spec, [int(n) for n in rng.integers(0, 30, size=2)])


def test_the_cross_module_identity_fails_on_a_wrong_spectral_mean(monkeypatch):
    # Every kernel table 1e-6 off: the spectral mean, on both the verify side and in
    # cesaro_correlation, is wrong, while the direct mean is not.
    kernels = PhaseSums.kernels
    monkeypatch.setattr(PhaseSums, "kernels", lambda self, N: kernels(self, N) * (1 + 1e-6))
    checks = checks_of(correlation_scenario(1.0))
    assert not checks["correlation cross-module identity"].passed
    assert not checks["direct vs spectral at N=20"].passed


@pytest.mark.parametrize("first, fits", [(100, 20), (100, 19), (100, 13), (7, 20), (7, 5)])
def test_the_cross_check_horizon_is_the_largest_within_20_the_first_horizon_and_the_cap(monkeypatch, first, fits):
    # The cap admits the direct sweep up to N = fits: every check passes, the cross-checks at the largest N
    # that is at most 20, the first horizon and fits.
    data = dict(haar_scenario(1.0), Ns=[first, 1000])
    monkeypatch.setattr(engines, "_SWEEP_ENTRY_BUDGET", engines._direct_entries(Scenario(data).partition, fits, 4))
    checks = checks_of(data)
    assert all(check.passed for check in checks.values()), checks
    n = min(first, fits, 20)
    assert [name for name in checks if " vs spectral" in name] == [f"{name} vs spectral at N={n}"
                                                                    for name in ("direct", "nested")]
