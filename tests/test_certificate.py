"""The certificate rule: an error passes its certified bound when it exceeds it by at most ``ROUNDING_TOL``
times the operators' norm product (``linalg.bound_excess``).  So correct runs pass at every operator
scale, and a wrong mean or correlation value fails at every scale."""

import json

import numpy as np
import pytest

from entcesaro import cli, correlations
from entcesaro.engines import ENGINES
from entcesaro.linalg import ROUNDING_TOL, norm_product
from entcesaro.scenario import Scenario
from entcesaro.verify import run_invariant_suite

SCALES = [1e-3, 1.0, 100.0, 1000.0]


def rational_scenario(seed, norm, engine, Ns=(60, 120)):
    """Rational phases of denominator at most 6 on d=4: at N = 60 and 120 every kernel equals its
    resonance indicator, so the certified bound is 0.0 there.  The nested engine runs on 1,2,2,1."""
    return {"unitary": {"kind": "random", "dim": 4, "seed": seed, "phaseMode": "rational", "maxDenominator": 6},
            "partition": [1, 2, 2, 1] if engine == "nested" else [1, 2, 1, 2],
            "operators": [{"kind": "random", "norm": norm}] * 3, "engine": engine, "Ns": list(Ns), "seed": seed}


def correlation_scenario(norm):
    """Five observables and the vector state e_1 on phases of denominator 6, partition 1,2,1,2; the
    certified bound at N=60 is 0.0."""
    return {"unitary": {"kind": "diagonal-rational", "phases": ["0/1", "1/2", "1/3", "2/3"]},
            "partition": [1, 2, 1, 2], "operators": [{"kind": "random", "norm": norm}] * 5,
            "state": {"kind": "vector", "omega": [1.0, 0.0, 0.0, 0.0]}, "Ns": [60], "seed": 2}


def run_cli(tmp_path, command, data):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return cli.main([command, "--scenario", str(path)])


def report_check(data):
    checks = {check.name: check for check in run_invariant_suite(Scenario(data))}
    return checks["report rows within certified bound"]


@pytest.mark.parametrize("engine", ["direct", "nested"])
@pytest.mark.parametrize("norm", [100.0, 1000.0])
def test_correct_means_of_large_operators_pass_converge_and_verify(tmp_path, capsys, engine, norm):
    for seed in range(1, 13):
        data = rational_scenario(seed, norm, engine)
        assert run_cli(tmp_path, "converge", data) == 0, (seed, capsys.readouterr().err)
        assert run_cli(tmp_path, "verify", data) == 0, (seed, capsys.readouterr().out)


def shifted(mean, ops):
    """The mean moved by twice the allowance: ||2 ROUNDING_TOL norm_product(ops) I|| = twice it."""
    return mean + 2 * ROUNDING_TOL * norm_product(ops) * np.eye(mean.shape[0])


# (seed, wrong mean): a shifted mean, and a doubled one on seed 3, whose limit is nonzero.
WRONG_MEANS = pytest.mark.parametrize("seed, wrong", [(1, shifted), (3, lambda mean, ops: 2 * mean)],
                                      ids=["shifted", "doubled"])


@WRONG_MEANS
@pytest.mark.parametrize("norm", SCALES)
def test_a_wrong_direct_mean_fails_the_certificate_at_every_scale(tmp_path, capsys, monkeypatch, seed, wrong, norm):
    data = rational_scenario(seed, norm, "direct", Ns=[60])  # the certified bound is 0.0
    assert run_cli(tmp_path, "converge", data) == 0
    assert report_check(data).passed
    direct = ENGINES["direct"]

    def moved(u, dec, p, ops, N):
        result = direct(u, dec, p, ops, N)
        return result._replace(matrix=wrong(result.matrix, ops))

    monkeypatch.setitem(ENGINES, "direct", moved)
    capsys.readouterr()
    assert run_cli(tmp_path, "converge", data) == 1
    assert capsys.readouterr().err == "certified bound violated at N in [60]\n"
    assert not report_check(data).passed


@pytest.mark.parametrize("norm", SCALES)
def test_a_correlation_value_moved_by_twice_its_allowance_fails_at_every_scale(tmp_path, capsys, monkeypatch, norm):
    data = correlation_scenario(norm)
    assert run_cli(tmp_path, "correlate", data) == 0
    exact = correlations.cesaro_correlation

    def moved(system, spec, N):
        return exact(system, spec, N) + 2 * ROUNDING_TOL * norm_product(spec.ops)

    monkeypatch.setattr(correlations, "cesaro_correlation", moved)
    capsys.readouterr()
    assert run_cli(tmp_path, "correlate", data) == 1
    assert capsys.readouterr().err == "certified bound violated at N in [60]\n"
    checks = {check.name: check for check in run_invariant_suite(Scenario(data))}
    assert not checks["correlation limit within certified bound"].passed
