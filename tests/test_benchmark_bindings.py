"""The names of the package that the benchmark under ``perfbench/`` binds.

The benchmark's traced run rebinds every function in ``perfbench/spans.py``'s layer map, its library
operations read each line of a decomposition and call the engines positionally, and its CLI
operations pass ``--scenario`` and, to ``converge``, ``--out``.  A rename or removal in the package
would otherwise surface only when the benchmark runs.  These checks read the benchmark's files and
leave them as they are.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from entcesaro.cli import build_parser
from entcesaro.engines import cesaro_spectral, limit_operator
from entcesaro.linalg import haar_unitary
from entcesaro.partitions import parse_partition
from entcesaro.spectral import Tolerances, decompose

from conftest import random_ops

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _layer_functions():
    spec = importlib.util.spec_from_file_location("perfbench_spans", os.path.join(PERFBENCH, "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYER_FUNCTIONS


@pytest.mark.parametrize("module, attr", _layer_functions(), ids=lambda v: v)
def test_every_traced_function_resolves(module, attr):
    owner = importlib.import_module(f"entcesaro.{module}")
    for name in attr.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


def test_decomposition_lines_carry_a_phase_and_a_projection():
    u = haar_unitary(np.random.default_rng(1), 6)
    dec = decompose(u, Tolerances())
    rebuilt = sum(np.exp(2j * np.pi * line.phase.turns) * line.projection for line in dec.entries)
    np.testing.assert_allclose(rebuilt, u, atol=1e-12)


def test_the_engines_take_positional_arguments():
    u = haar_unitary(np.random.default_rng(2), 4)
    dec = decompose(u)
    p = parse_partition("1,2,1,2")
    ops = random_ops(np.random.default_rng(2), p.m - 1, dec.dim)
    assert limit_operator(dec, p, ops).shape == (4, 4)
    assert cesaro_spectral(dec, p, ops, 100).matrix.shape == (4, 4)


@pytest.mark.parametrize("argv", [["converge", "--scenario", "s.json", "--out", "r.csv"],
                                  ["correlate", "--scenario", "s.json"],
                                  ["verify", "--scenario", "s.json"]])
def test_the_cli_accepts_the_benchmark_arguments(argv):
    assert build_parser().parse_args(argv).command == argv[0]
