import gc
import json
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import entcesaro
from entcesaro import cli, correlations
from entcesaro.__main__ import BROKEN_PIPE_EXIT
from entcesaro.cli import main, report_csv, CSV_HEADER
from entcesaro.engines import ENGINES, ConvergenceReport, ReportRow, convergence_report
from entcesaro.linalg import ROUNDING_TOL, rounding_gap
from entcesaro.partitions import enumerate_pair_partitions, render_partition
from entcesaro.scenario import load_scenario

from conftest import crossing_by_quadruple_scan, numpy_max_dims

# The tree that holds the entcesaro these tests import (the checkout's src/, another tree on
# PYTHONPATH, or site-packages), put first on PYTHONPATH so that subprocesses test the same package.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(entcesaro.__file__)))


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


ENGINE_SCENARIO = {
    "unitary": {"kind": "random", "dim": 3, "seed": 8, "phaseMode": "rational", "maxDenominator": 6},
    "partition": [1, 2, 2, 1],
    "operators": [{"kind": "random"}, {"kind": "random"}, {"kind": "random"}],
    "engine": "spectral",
    "Ns": [10, 100, 1000],
    "seed": 12,
}

IDENTITY_SCENARIO = {
    "unitary": {"kind": "diagonal-rational", "phases": ["0/1", "0/1"]},
    "partition": [1, 1],
    "operators": [{"kind": "random"}],
    "engine": "spectral",
    "Ns": [2, 4, 8],
    "seed": 1,
}

CORRELATE_SCENARIO = {
    "unitary": {"kind": "diagonal-rational", "phases": ["0/1", "1/2", "1/3", "2/3"]},
    "partition": [1, 2, 1, 2],
    "operators": [{"kind": "random"} for _ in range(5)],
    "state": {"kind": "vector", "omega": [1.0, 0.0, 0.0, 0.0]},
    "engine": "spectral",
    "Ns": [100, 1000],
    "seed": 2,
}

# A trace state on the two phase-0 lines of exact phases, partition 1,2,2,1, so the nested engine runs too.
TRACE_CORRELATE_SCENARIO = {
    "unitary": {"kind": "diagonal-rational", "phases": ["0/1", "0/1", "1/2", "1/3"]},
    "partition": [1, 2, 2, 1],
    "operators": [{"kind": "random"} for _ in range(5)],
    "state": {"kind": "trace", "diag": [0.5, 0.5, 0, 0]},
    "Ns": [31, 1000],
    "seed": 7,
}

# A unit vector state on four phase-0 lines and its trace twin T = omega omega*: every entry of T is exact.
OMEGA = [0.5, 0.5j, -0.5, 0.5, 0.0, 0.0]
VECTOR_CORRELATE_SCENARIO = {
    "unitary": {"kind": "diagonal-rational", "phases": ["0/1", "0/1", "0/1", "0/1", "1/2", "1/3"]},
    "partition": [1, 2, 1, 2],
    "operators": [{"kind": "random"} for _ in range(5)],
    "state": {"kind": "vector", "omega": [[w.real, w.imag] for w in OMEGA]},
    "Ns": [31, 1000],
    "seed": 4,
}
TWIN_DENSITY = np.outer(OMEGA, np.conj(OMEGA))
TWIN_CORRELATE_SCENARIO = dict(VECTOR_CORRELATE_SCENARIO, state={
    "kind": "trace", "re": TWIN_DENSITY.real.tolist(), "im": TWIN_DENSITY.imag.tolist()})

# Partition 1,1 on phases 0 and 1/3 with A_0 = I, A_1 = e_0 e_1* and A_2 = e_1 e_0*: the correlation at N is the
# kernel K_N(-1/3), its limit is 0, and its certified bound equals that distance.
TIGHT_CORRELATE_SCENARIO = {
    "unitary": {"kind": "diagonal-rational", "phases": ["0/1", "1/3"]},
    "partition": [1, 1],
    "operators": [{"kind": "identity"}, {"kind": "matrix", "re": [[0, 1], [0, 0]]},
                  {"kind": "matrix", "re": [[0, 0], [1, 0]]}],
    "state": {"kind": "vector", "omega": [1, 0]},
    "Ns": [10, 100],
}

# A Haar system at the largest random dimension: the certified bound no longer walks its 64^4 block tuples.
HAAR64_SCENARIO = {
    "unitary": {"kind": "random", "dim": 64, "seed": 3, "phaseMode": "haar"},
    "partition": [1, 2, 1, 2],
    "operators": [{"kind": "random"} for _ in range(3)],
    "engine": "spectral",
    "Ns": [100, 1000, 10000],
    "seed": 5,
}



def diagonal_matrix_scenario(turns):
    """A 'matrix' scenario of the diagonal unitary with eigenphases ``turns``, partition 1,2,1,2."""
    d = len(turns)
    diag = [[[f(2 * math.pi * t) if i == j else 0.0 for j in range(d)] for i, t in enumerate(turns)]
            for f in (math.cos, math.sin)]
    return {"unitary": {"kind": "matrix", "re": diag[0], "im": diag[1]}, "partition": [1, 2, 1, 2],
            "operators": [{"kind": "random"} for _ in range(3)], "Ns": [10, 100], "seed": 3}


def run_cli(args):
    return main(list(args))


def subprocess_env(**extra):
    """The environment of a subprocess that imports the same entcesaro as these tests."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_module(args):
    """``python -m entcesaro`` with ``args``, the way the command runs in its own process."""
    return subprocess.run([sys.executable, "-m", "entcesaro", *args], env=subprocess_env(),
                          capture_output=True, text=True, timeout=300)


class TestExitCodes:
    def test_verify_identity_scenario_passes(self, tmp_path, capsys):
        path = write_scenario(tmp_path, IDENTITY_SCENARIO)
        assert run_cli(["verify", "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_converge_and_verify_certify_a_dimension_64_haar_scenario(self, tmp_path, capsys):
        path = write_scenario(tmp_path, HAAR64_SCENARIO)
        assert run_cli(["converge", "--scenario", path]) == 0
        capsys.readouterr()
        assert run_cli(["verify", "--scenario", path]) == 0
        assert "11/11 checks passed" in capsys.readouterr().out

    def test_verify_and_the_direct_mean_hold_24_classes_open_at_once(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"unitary": {"kind": "diagonal-rational", "phases": ["0", "1/2"]},
                                         "partition": [*range(1, 25)] * 2, "operators": [{"kind": "identity"}] * 47,
                                         "Ns": [5]})
        assert run_cli(["verify", "--scenario", path]) == 0
        out, err = capsys.readouterr()
        assert "direct vs spectral at N=1" in out and "11/11 checks passed" in out and "Traceback" not in err
        assert run_cli(["mean", "--engine", "direct", "--N", "1", "--scenario", path]) == 0

    def test_a_direct_mean_with_more_axes_than_numpy_allows_is_one_error_line(self, tmp_path):
        # limit - 1 classes open at once, and the matrix's two axes: one more than numpy allows an array.
        limit = numpy_max_dims()
        path = write_scenario(tmp_path, {"unitary": {"kind": "diagonal-rational", "phases": ["0", "1/2"]},
                                         "partition": [*range(1, limit)] * 2,
                                         "operators": [{"kind": "identity"}] * (2 * limit - 3)})
        result = run_module(["mean", "--engine", "direct", "--N", "1", "--scenario", path])
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: direct engine: a partition on {2 * limit - 2} slots needs more "
                                        "array axes than numpy allows: ")
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr

    def test_a_direct_mean_whose_n_to_the_k_overflows(self, tmp_path, capsys):
        # N^2 = 10^400 is past the float range, but each class's mean is finite: identity dynamics give the
        # spectral engine's mean, A_1 A_2 A_3.
        path = write_scenario(tmp_path, {"unitary": {"kind": "diagonal-rational", "phases": ["0/1", "0/1"]},
                                         "partition": [1, 1, 2, 2], "operators": [{"kind": "random"}] * 3})
        means = []
        for engine in ("direct", "spectral"):
            assert run_cli(["mean", "--engine", engine, "--N", str(10**200), "--scenario", path]) == 0
            means.append([line for line in capsys.readouterr().out.splitlines()[1:] if not line.startswith("elapsed")])
        assert means[0] == means[1]

    def test_a_power_sum_that_is_not_finite_is_one_error_line(self, tmp_path):
        # U = diag(1, -1) resonates with itself, so the pair sum of an operator of norm 1e300 grows like N and
        # overflows by N = 10^20: one error line that names the horizon, and no warning.
        path = write_scenario(tmp_path, {"unitary": {"kind": "diagonal-rational", "phases": ["0/1", "1/2"]},
                                         "partition": [1, 1], "operators": [{"kind": "random", "norm": 1e300}]})
        result = run_module(["mean", "--engine", "direct", "--N", str(10**20), "--scenario", path])
        assert result.returncode == 1
        assert result.stderr == "error: the power sum at horizon N=1.000000e+20 is not finite\n"

    def test_a_direct_mean_at_a_large_horizon_matches_the_spectral_one(self, tmp_path, capsys):
        # The direct engine's doubling loop keeps its powers unitary: at N = 10^18 on this Haar scenario plain squaring
        # printed operator norm 4.8e14 where the spectral mean is about 3e-18.
        path = write_scenario(tmp_path, {"unitary": {"kind": "random", "dim": 4, "seed": 3},
                                         "partition": [1, 1], "operators": [{"kind": "random"}]})
        assert run_cli(["mean", "--engine", "direct", "--N", str(10**18), "--scenario", path]) == 0
        assert float(capsys.readouterr().out.splitlines()[1].removeprefix("operator norm ")) < ROUNDING_TOL
        scenario = load_scenario(path)
        u, dec = scenario.system()
        ops = scenario.operators(1)
        means = [ENGINES[name](u, dec, scenario.partition, ops, 10**18).matrix for name in ("direct", "spectral")]
        assert rounding_gap(*means, ops) <= ROUNDING_TOL

    # 0.7 + 3e-11 resonates with 0.3 but is not its exact conjugate; 1e-9 is within the resonance
    # tolerance of 1 but does not resonate with itself.  Neither system has a phase-1 line.
    @pytest.mark.parametrize("turns", [(0.3, 0.7 + 3e-11, 0.1, 0.55), (1e-9, 0.3, 0.55)],
                             ids=["near-conjugate", "near-one"])
    def test_verify_passes_on_float_phases_that_resonate_inexactly(self, tmp_path, capsys, turns):
        path = write_scenario(tmp_path, diagonal_matrix_scenario(turns))
        assert run_cli(["verify", "--scenario", path]) == 0
        assert "11/11 checks passed" in capsys.readouterr().out
        assert run_cli(["decompose", "--scenario", path]) == 0
        assert "invariant projection rank 0\n" in capsys.readouterr().out

    def test_malformed_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert run_cli(["verify", "--scenario", str(bad)]) == 2
        missing = tmp_path / "missing.json"
        assert run_cli(["verify", "--scenario", str(missing)]) == 2
        wrong = write_scenario(tmp_path, {"unitary": {"kind": "warp"}}, "wrong.json")
        assert run_cli(["decompose", "--scenario", wrong]) == 2
        random_unitary = {"kind": "random", "dim": 3, "phaseMode": "rational"}
        swap = {"kind": "matrix", "re": [[0, 1], [1, 0]]}
        pair = {"unitary": swap, "partition": [1, 1], "operators": [{"kind": "random"}], "Ns": [10, 100]}
        positive = "must be a positive finite number"
        for name, command, data, message in (
            ("max_den.json", "decompose",
             {"unitary": dict(random_unitary, maxDenominator="x")}, "'maxDenominator' must be an integer"),
            ("op_seed.json", "mean",
             {"unitary": random_unitary, "partition": [1, 1],
              "operators": [{"kind": "random", "seed": "abc"}]}, "operator 0 'seed'"),
            ("bool_ns.json", "converge",
             {"unitary": random_unitary, "partition": [1, 1],
              "operators": [{"kind": "random"}], "Ns": [True]}, "'Ns' must be a list"),
            # NaN passed the positivity test: with it the phase-0 line paired with nothing.
            ("nan_resonance.json", "converge", dict(pair, tolerances={"resonance": math.nan}),
             f"tolerance 'resonance' {positive}"),
            ("nan_unitarity.json", "verify", dict(pair, tolerances={"unitarity": math.nan}),
             f"tolerance 'unitarity' {positive}"),
            ("nan_cluster.json", "decompose", dict(pair, tolerances={"cluster": math.nan}),
             f"tolerance 'cluster' {positive}"),
            ("bool_tolerance.json", "converge", dict(pair, tolerances={"resonance": True}),
             f"tolerance 'resonance' {positive}"),
            ("nan_norm.json", "limit", dict(pair, operators=[{"kind": "random", "norm": math.nan}]),
             f"operator 0 'norm' {positive}"),
            ("inf_norm.json", "converge", dict(pair, operators=[{"kind": "random", "norm": math.inf}]),
             f"operator 0 'norm' {positive}"),
            ("bool_norm.json", "mean", dict(pair, operators=[{"kind": "random", "norm": True}]),
             f"operator 0 'norm' {positive}"),
            ("huge_norm.json", "limit", dict(pair, operators=[{"kind": "random", "norm": 10**400}]),
             f"operator 0 'norm' {positive}"),
            ("huge_ns.json", "converge", dict(pair, Ns=[10, 10**400]), "'Ns' must be a list of positive integers"),
            ("bool_seed.json", "converge", dict(pair, seed=True), "'seed' must be an integer"),
            ("dict_entries.json", "limit", dict(pair, operators=[{"kind": "matrix", "re": {}}]),
             "operator 0 're' and 'im' must hold finite numbers"),
            # Every number is a JSON number: a string or a bool was read as one, a ragged array is none.
            *((f"string_unitary_{command}.json", command,
               dict(pair, unitary={"kind": "matrix", "re": [["0", "1"], ["1", "0"]]}),
               "unitary 're' and 'im' must hold finite numbers") for command in ("decompose", "converge")),
            ("bool_operator.json", "mean",
             dict(pair, operators=[{"kind": "matrix", "re": [[1, 0], [0, 1]], "im": [[True, False], [False, True]]}]),
             "operator 0 're' and 'im' must hold finite numbers"),
            ("ragged_operator.json", "limit", dict(pair, operators=[{"kind": "matrix", "re": [[1, 0], [0, [1]]]}]),
             "operator 0 're' and 'im' must hold finite numbers"),
            ("bool_diag.json", "correlate",
             dict(pair, operators=[{"kind": "random"}] * 3, state={"kind": "trace", "diag": [True, 0]}),
             "trace state 'diag' needs 2 finite numbers"),
            ("bool_omega.json", "verify",
             dict(pair, operators=[{"kind": "random"}] * 3, state={"kind": "vector", "omega": [True, 0]}),
             "omega entries must be finite numbers or [re, im] pairs"),
            # JSON reads NaN and Infinity; they were refused only later, as a verification failure (exit 1).
            ("nan_operator.json", "converge",
             dict(pair, operators=[{"kind": "matrix", "re": [[1, 0], [0, math.nan]]}]),
             "operator 0 're' and 'im' must hold finite numbers"),
            ("inf_operator.json", "verify",
             dict(pair, operators=[{"kind": "matrix", "re": [[1, 0], [0, 1]], "im": [[0, math.inf], [0, 0]]}]),
             "operator 0 're' and 'im' must hold finite numbers"),
            ("nan_diag.json", "correlate",
             dict(pair, operators=[{"kind": "random"}] * 3, state={"kind": "trace", "diag": [1, math.nan]}),
             "trace state 'diag' needs 2 finite numbers"),
            ("nan_omega.json", "verify",
             dict(pair, operators=[{"kind": "random"}] * 3, state={"kind": "vector", "omega": [1, math.nan]}),
             "omega entries must be finite numbers or [re, im] pairs"),
            # A trace matrix of another dimension was refused only by the state checks (exit 1).
            *((f"wrong_shape_{command}.json", command,
               dict(pair, operators=[{"kind": "random"}] * 3,
                    state={"kind": "trace", "re": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}),
               "malformed scenario: trace state has shape (3, 3), system dimension is 2")
              for command in ("correlate", "verify")),
        ):
            capsys.readouterr()
            assert run_cli([command, "--scenario", write_scenario(tmp_path, data, name)]) == 2, name
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert message in err, (name, err)

    def test_verify_with_two_zero_operators(self, tmp_path, capsys):
        # The product of their norms underflows to 0; the relative engine check must not divide by it.
        zero = {"kind": "matrix", "re": [[0.0]]}
        data = {"unitary": {"kind": "diagonal-rational", "phases": ["0/1"]}, "partition": [1, 2, 1, 2],
                "operators": [{"kind": "random"}, zero, zero], "Ns": [10]}
        assert run_cli(["verify", "--scenario", write_scenario(tmp_path, data)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["converge", "mean", "limit", "verify", "bench"])
    def test_non_pair_partition_is_a_malformed_scenario(self, tmp_path, capsys, command):
        data = dict(ENGINE_SCENARIO, partition=[1, 2, 1, 2, 1], operators=[{"kind": "random"}] * 4)
        assert run_cli([command, "--scenario", write_scenario(tmp_path, data)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "bad partition: class 1 has 3 elements, pair partition required" in err

    @pytest.mark.parametrize("value", ["0", "-3", "x", "1e3", pytest.param(str(10**400), id="10**400")])
    def test_a_horizon_that_is_not_a_positive_integer_exits_2(self, tmp_path, capsys, value):
        path = write_scenario(tmp_path, ENGINE_SCENARIO)
        with pytest.raises(SystemExit) as exc:
            run_cli(["mean", "--scenario", path, "--N", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --N: horizon N must be a positive integer within the float range, got '{value}'" in err

    @pytest.mark.parametrize("command", ["converge", "mean", "verify"])
    def test_the_nested_engine_on_a_crossing_partition_is_a_malformed_scenario(self, tmp_path, capsys, command):
        crossing = dict(ENGINE_SCENARIO, partition=[1, 2, 1, 2])
        nested = write_scenario(tmp_path, dict(crossing, engine="nested"), "nested.json")
        spectral = write_scenario(tmp_path, crossing, "spectral.json")
        message = "scenario error: nested engine requires a non-crossing pair partition, got 1,2,1,2"
        for argv in (["--scenario", nested], ["--scenario", spectral, "--engine", "nested"]):
            assert run_cli([command, *argv]) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""  # refused before any check or report line
            assert message in captured.err
        # The option overrides the scenario's engine, and a command that runs no engine ignores it.
        assert run_cli([command, "--scenario", nested, "--engine", "spectral"]) == 0
        assert run_cli(["limit", "--scenario", nested]) == 0

    def test_a_float_phase_horizon_near_the_largest_float_runs(self, tmp_path, capsys):
        # Every kernel reduces (N - 1) t mod 2 in integers, so a float phase's kernel stays finite at N = 10^308.
        haar = {"unitary": {"kind": "random", "dim": 3, "seed": 1}, "partition": [1, 1],
                "operators": [{"kind": "random"}], "Ns": [10**308], "seed": 1}
        state = dict(diagonal_matrix_scenario([0.0, 0.1234, 0.377]), partition=[1, 1], Ns=[10**308],
                     operators=[{"kind": "random"}] * 3, state={"kind": "vector", "omega": [1, 0, 0]})
        for command, data in (("converge", haar), ("mean", haar), ("correlate", state)):
            assert run_cli([command, "--scenario", write_scenario(tmp_path, data)]) == 0, command
            out, err = capsys.readouterr()
            assert err == "" and "nan" not in out.lower(), command

    def test_phases_closer_than_the_cluster_tolerance_are_a_malformed_unitary(self, tmp_path, capsys):
        # Distinct exact phases are separate lines, so decompose's validation refuses a pair 1e-9 turns apart.
        data = {"unitary": {"kind": "diagonal-rational", "phases": ["0", "1/1000000000", "1/2"]}}
        assert run_cli(["decompose", "--scenario", write_scenario(tmp_path, data)]) == 2
        assert capsys.readouterr() == ("", "scenario error: malformed scenario: unitary spec rejected: "
                                           "decomposition has phases closer than the cluster tolerance\n")

    def test_converge_without_horizons_is_a_malformed_scenario(self, tmp_path, capsys):
        data = {key: value for key, value in ENGINE_SCENARIO.items() if key != "Ns"}
        assert run_cli(["converge", "--scenario", write_scenario(tmp_path, data)]) == 2
        assert capsys.readouterr() == ("", "scenario error: the 'converge' command needs a nonempty 'Ns' list\n")

    def test_command_needing_partition_fails_cleanly(self, tmp_path, capsys):
        data = {"unitary": {"kind": "diagonal-rational", "phases": ["0/1"]}}
        path = write_scenario(tmp_path, data)
        assert run_cli(["converge", "--scenario", path]) == 2

    def test_unwritable_report_path_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "report.csv")
        path = write_scenario(tmp_path, ENGINE_SCENARIO)
        in_scenario = write_scenario(tmp_path, dict(ENGINE_SCENARIO, out=out), "with_out.json")
        for argv in (["converge", "--scenario", path, "--out", out],
                     ["converge", "--scenario", in_scenario],
                     ["demo-appendix", "--out", out]):
            assert run_cli(argv) == 2, argv
            captured = capsys.readouterr()
            assert CSV_HEADER in captured.out  # the report is printed although the write failed
            assert "Traceback" not in captured.err
            assert f"error: cannot write report to {out}: No such file or directory" in captured.err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command, flag", [
        ("decompose", ["--engine", "direct"]),
        ("mean", ["--out", "report.csv"]),
        ("limit", ["--timings"]),
        ("verify", ["--out", "report.csv"]),
        ("bench", ["--engine", "direct"]),
        ("correlate", ["--timings"]),
        ("demo-appendix", ["--engine", "direct"]),
    ])
    def test_a_flag_the_command_does_not_read_exits_2(self, tmp_path, capsys, monkeypatch, command, flag):
        # converge reads every option it takes, so it has none to refuse.
        monkeypatch.chdir(tmp_path)
        argv = [command] if command == "demo-appendix" else [command, "--scenario", write_scenario(tmp_path, ENGINE_SCENARIO)]
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
class TestReportMode:
    """A report gets the mode ``open(path, "w")`` would give it."""

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_a_new_report_takes_its_mode_from_the_umask(self, tmp_path, capsys, umask):
        path = write_scenario(tmp_path, ENGINE_SCENARIO)
        for argv, out in ((["converge", "--scenario", path, "--out"], tmp_path / "converge.csv"),
                          (["demo-appendix", "--out"], tmp_path / "demo.csv")):
            old = os.umask(umask)
            try:
                assert run_cli([*argv, str(out)]) == 0
            finally:
                os.umask(old)
            assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask

    def test_a_replaced_report_keeps_its_mode(self, tmp_path, capsys):
        path = write_scenario(tmp_path, ENGINE_SCENARIO)
        for argv, out in ((["converge", "--scenario", path, "--out"], tmp_path / "converge.csv"),
                          (["demo-appendix", "--out"], tmp_path / "demo.csv")):
            out.write_text("old", encoding="utf-8")
            out.chmod(0o604)
            assert run_cli([*argv, str(out)]) == 0
            assert stat.S_IMODE(out.stat().st_mode) == 0o604
            assert out.read_text(encoding="utf-8").startswith(CSV_HEADER)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["converge.csv", "demo.csv", "scenario.json"]


class TestCommands:
    def test_decompose_output(self, tmp_path, capsys):
        path = write_scenario(tmp_path, ENGINE_SCENARIO)
        assert run_cli(["decompose", "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert "antidiagonal" in out
        assert "residual reconstruction" in out

    def test_mean_and_limit(self, tmp_path, capsys):
        path = write_scenario(tmp_path, ENGINE_SCENARIO)
        assert run_cli(["mean", "--scenario", path, "--N", "20"]) == 0
        assert run_cli(["mean", "--scenario", path, "--N", "20", "--engine", "direct"]) == 0
        assert run_cli(["mean", "--scenario", path, "--N", "20", "--engine", "nested"]) == 0
        assert run_cli(["limit", "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert "operator norm" in out

    def test_limit_suppresses_a_matrix_above_dimension_8(self, tmp_path, capsys):
        data = dict(ENGINE_SCENARIO, unitary=dict(ENGINE_SCENARIO["unitary"], dim=9))
        assert run_cli(["limit", "--scenario", write_scenario(tmp_path, data)]) == 0
        assert "  (9x9 matrix suppressed)\n" in capsys.readouterr().out

    def test_the_seed_option_overrides_the_scenario_seed(self, tmp_path, capsys):
        # The unitary and the operators draw from the scenario seed when their specs name none.
        random = {"unitary": {"kind": "random", "dim": 3}, "partition": [1, 2, 2, 1],
                  "operators": [{"kind": "random"}] * 3, "Ns": [10, 100], "seed": 12}
        reports = []
        for data, extra in ((random, ["--seed", "5"]), (dict(random, seed=5), []), (random, [])):
            out = tmp_path / f"report{len(reports)}.csv"
            assert run_cli(["converge", "--scenario", write_scenario(tmp_path, data), "--out", str(out), *extra]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] != reports[2]
        # demo-appendix's operators draw from its built-in seed, 21.
        demos = []
        for extra in (["--seed", "21"], [], ["--seed", "5"]):
            out = tmp_path / f"demo{len(demos)}.csv"
            assert run_cli(["demo-appendix", "--out", str(out), *extra]) == 0
            demos.append(out.read_bytes())
        assert demos[0] == demos[1] != demos[2]

    def test_converge_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "report.csv"
        path = write_scenario(tmp_path, ENGINE_SCENARIO)
        assert run_cli(["converge", "--scenario", path, "--out", str(out_path)]) == 0
        text = out_path.read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 7
            assert float(fields[2]) <= float(fields[4]) + 1e-9  # error_op <= certified
            assert fields[6] == ""  # seconds blank by default

    def test_converge_timings_flag_fills_seconds(self, tmp_path, capsys):
        out_path = tmp_path / "report.csv"
        path = write_scenario(tmp_path, ENGINE_SCENARIO)
        assert run_cli(["converge", "--scenario", path, "--out", str(out_path), "--timings"]) == 0
        lines = out_path.read_text(encoding="utf-8").strip().split("\n")
        assert all(float(line.split(",")[6]) >= 0.0 for line in lines[1:])

    def test_bench_runs(self, tmp_path, capsys):
        data = dict(ENGINE_SCENARIO, Ns=[5, 10])
        path = write_scenario(tmp_path, data)
        assert run_cli(["bench", "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert "spectral" in out and "direct" in out and "nested" in out

    @pytest.mark.parametrize("p", [p for k in (1, 2, 3) for p in enumerate_pair_partitions(k)], ids=render_partition)
    def test_bench_and_verify_run_the_nested_engine_exactly_on_non_crossing_partitions(self, tmp_path, capsys, p):
        data = dict(ENGINE_SCENARIO, partition=list(p.labels), operators=[{"kind": "random"}] * (p.m - 1), Ns=[5, 50])
        path = write_scenario(tmp_path, data)
        expected = ["direct", "spectral"] + ([] if crossing_by_quadruple_scan(p) else ["nested"])
        assert run_cli(["bench", "--scenario", path]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[:2] for row in rows] == [[n, name] for n in ("5", "50") for name in expected]
        assert run_cli(["verify", "--scenario", path]) == 0
        checks = [line.split(":")[0] for line in capsys.readouterr().out.splitlines() if " vs spectral" in line]
        assert checks == [f"PASS  {name} vs spectral at N=5" for name in expected if name != "spectral"]

    def test_converge_reads_the_frobenius_norm_of_a_tiny_difference(self, tmp_path, capsys):
        # At N = 10^300 the difference is near 1e-300, whose squared entries underflow.
        data = {"unitary": {"kind": "diagonal-rational", "phases": ["0", "1/3", "2/3"]}, "partition": [1, 1],
                "operators": [{"kind": "random"}], "Ns": [10**300], "seed": 1}
        assert run_cli(["converge", "--scenario", write_scenario(tmp_path, data)]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        error_op, error_frob = float(row[2]), float(row[3])
        assert 0.0 < error_op <= error_frob <= math.sqrt(3) * error_op

    def test_converge_reads_exact_kernels_at_the_largest_horizons(self, tmp_path):
        # At N = 10^308 the kernels of 1/3 and 2/3 are about 1e-308, just above the subnormal range.
        data = {"unitary": {"kind": "diagonal-rational", "phases": ["0", "1/3", "2/3"]}, "partition": [1, 1],
                "operators": [{"kind": "random"}], "Ns": [10**308], "seed": 1}
        proc = run_module(["converge", "--scenario", write_scenario(tmp_path, data)])
        assert (proc.returncode, proc.stderr) == (0, "")
        row = proc.stdout.splitlines()[1].split(",")
        error_op, certified_bound = float(row[2]), float(row[4])
        assert 0.0 < error_op <= certified_bound

    def test_correlate(self, tmp_path, capsys):
        path = write_scenario(tmp_path, CORRELATE_SCENARIO)
        assert run_cli(["correlate", "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert "correlation limit" in out

    def test_correlate_names_the_horizons_that_break_the_bound(self, tmp_path, capsys, monkeypatch):
        # A bound of zero at every horizon, below each nonzero distance from the limit.
        deviations = correlations.correlation_deviations
        monkeypatch.setattr(correlations, "correlation_deviations",
                            lambda *args: [(deviation, 0.0) for deviation, _ in deviations(*args)])
        path = write_scenario(tmp_path, CORRELATE_SCENARIO)
        assert run_cli(["correlate", "--scenario", path]) == 1
        captured = capsys.readouterr()
        assert "correlation limit" in captured.out
        assert captured.err == "certified bound violated at N in [100, 1000]\n"

    def test_correlate_and_verify_read_one_correlation_bound(self, tmp_path, capsys, monkeypatch):
        path = write_scenario(tmp_path, TIGHT_CORRELATE_SCENARIO)
        assert run_cli(["correlate", "--scenario", path]) == 0
        assert "10       +0.100000000+0.000000000j   1.000e-01       1.000e-01\n" in capsys.readouterr().out
        assert run_cli(["verify", "--scenario", path]) == 0
        capsys.readouterr()
        deviations = correlations.correlation_deviations
        monkeypatch.setattr(correlations, "correlation_deviations",
                            lambda *args: [(deviation, bound / 2) for deviation, bound in deviations(*args)])
        assert run_cli(["correlate", "--scenario", path]) == 1
        captured = capsys.readouterr()
        assert "10       +0.100000000+0.000000000j   1.000e-01       5.000e-02\n" in captured.out
        assert captured.err == "certified bound violated at N in [10, 100]\n"
        assert run_cli(["verify", "--scenario", path]) == 1
        assert "FAIL  correlation limit within certified bound" in capsys.readouterr().out

    def test_a_vector_state_and_its_trace_twin_print_the_same_bytes(self, tmp_path, capsys):
        outputs = []
        for name, data in (("vector.json", VECTOR_CORRELATE_SCENARIO), ("twin.json", TWIN_CORRELATE_SCENARIO)):
            assert run_cli(["correlate", "--scenario", write_scenario(tmp_path, data, name)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\n") == 4

    @pytest.mark.parametrize("size", [1e-200, 1e200])
    def test_correlate_reads_a_tiny_or_huge_state_vector(self, tmp_path, capsys, size):
        outputs = []
        for scale in (1.0, size):
            data = dict(VECTOR_CORRELATE_SCENARIO, state={"kind": "vector", "omega": [scale, 0, 0, 0, 0, 0]})
            assert run_cli(["correlate", "--scenario", write_scenario(tmp_path, data)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_verify_correlate_scenario(self, tmp_path, capsys):
        path = write_scenario(tmp_path, CORRELATE_SCENARIO)
        assert run_cli(["verify", "--scenario", path]) == 0

    @pytest.mark.parametrize("data", [CORRELATE_SCENARIO, TRACE_CORRELATE_SCENARIO], ids=["vector", "trace"])
    def test_the_mean_commands_read_the_inner_operators_of_a_state_scenario(self, tmp_path, capsys, data):
        path = write_scenario(tmp_path, data)
        for command in ("mean", "limit", "bench"):
            assert run_cli([command, "--scenario", path]) == 0, (command, capsys.readouterr().err)
        capsys.readouterr()
        assert run_cli(["converge", "--scenario", path]) == 0
        scenario = load_scenario(path)
        _, dec = scenario.system()
        p = scenario.partition
        report = convergence_report(dec, p, scenario.operators(p.m + 1)[1:-1], scenario.horizons, scenario.engine)
        assert capsys.readouterr().out == report_csv(report)

    def test_correlate_refuses_a_scenario_without_a_state(self, tmp_path, capsys):
        path = write_scenario(tmp_path, dict(ENGINE_SCENARIO, operators=[{"kind": "random"}] * 5))
        assert run_cli(["correlate", "--scenario", path]) == 2
        assert capsys.readouterr().err == "scenario error: scenario has no 'state' entry\n"

    def test_demo_appendix(self, tmp_path, capsys):
        out_path = tmp_path / "demo.csv"
        assert run_cli(["demo-appendix", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "1,2,1,3,2,3" in out
        lines = out_path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == CSV_HEADER
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[2]) <= float(fields[4]) + 1e-9


class TestDeterminism:
    def test_converge_twice_is_byte_identical(self, tmp_path):
        path = write_scenario(tmp_path, ENGINE_SCENARIO)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run_cli(["converge", "--scenario", path, "--out", str(out1)]) == 0
        assert run_cli(["converge", "--scenario", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_converge_across_processes_and_thread_counts(self, tmp_path):
        path = write_scenario(tmp_path, ENGINE_SCENARIO)
        outputs = []
        for threads, name in (("1", "t1.csv"), ("4", "t4.csv")):
            out = tmp_path / name
            env = subprocess_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                                 MKL_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "entcesaro", "converge",
                 "--scenario", path, "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestProcessEntry:
    """``python -m entcesaro`` and the console script run ``entcesaro.__main__.run``, which freezes the
    collector around ``cli.main``; ``cli.main`` itself leaves the collector alone."""

    def test_module_output_matches_in_process_main(self, tmp_path, capsys):
        converge = write_scenario(tmp_path, ENGINE_SCENARIO)
        correlate = write_scenario(tmp_path, CORRELATE_SCENARIO, "correlate.json")
        in_process, child = tmp_path / "in-process.csv", tmp_path / "child.csv"
        cases = ((["converge", "--scenario", converge, "--out", str(in_process)],
                  ["converge", "--scenario", converge, "--out", str(child)]),
                 (["verify", "--scenario", correlate],) * 2)
        for in_process_argv, child_argv in cases:
            assert run_cli(in_process_argv) == 0
            expected = capsys.readouterr().out
            proc = run_module(child_argv)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == expected
        assert child.read_bytes() == in_process.read_bytes()

    def test_exit_codes_pass_through(self, tmp_path):
        path = write_scenario(tmp_path, ENGINE_SCENARIO)
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        over_budget = ["mean", "--scenario", path, "--engine", "direct", "--N", "10000000"]
        for argv, code, message in ((["decompose", "--scenario", path], 0, ""),
                                    (over_budget, 1, "error: direct engine: planned peak"),
                                    (["verify", "--scenario", str(bad)], 2, "scenario error:"),
                                    (["verify"], 2, "required: --scenario")):
            proc = run_module(argv)
            assert proc.returncode == code, (argv, proc.stderr)
            assert message in proc.stderr
            assert "Traceback" not in proc.stderr

    @pytest.mark.skipif(os.name != "posix", reason="SIGPIPE exit status")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["converge", "verify", "decompose"])
    def test_a_closed_stdout_exits_without_a_traceback(self, tmp_path, command, unbuffered):
        # converge writes its report before it prints, so the report is written in both modes.
        path = write_scenario(tmp_path, ENGINE_SCENARIO)
        out = ["--out", "report.csv"] if command == "converge" else []
        env = subprocess_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:  # the first print raises, not the flush at the end
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the command writes
        try:
            proc = subprocess.run([sys.executable, "-m", "entcesaro", command, "--scenario", path, *out],
                                  cwd=tmp_path, env=env, stdout=write, stderr=subprocess.PIPE, text=True, timeout=300)
        finally:
            os.close(write)
        assert proc.returncode == BROKEN_PIPE_EXIT, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr
        if out:
            report = (tmp_path / "report.csv").read_text(encoding="utf-8")
            assert report.startswith(CSV_HEADER + "\n") and len(report.splitlines()) == 1 + len(ENGINE_SCENARIO["Ns"])

    @pytest.mark.parametrize("enabled", [True, False])
    def test_in_process_main_leaves_the_collector_alone(self, tmp_path, capsys, enabled):
        path = write_scenario(tmp_path, ENGINE_SCENARIO)
        frozen = gc.get_freeze_count()
        (gc.enable if enabled else gc.disable)()
        try:
            assert run_cli(["converge", "--scenario", path]) == 0
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen
        finally:
            gc.enable()

    def test_run_freezes_and_importing_the_entry_does_not(self, tmp_path):
        path = write_scenario(tmp_path, ENGINE_SCENARIO)
        code = ("import gc, sys, entcesaro.__main__ as entry; "
                "print(gc.isenabled(), gc.get_freeze_count()); "
                "sys.argv[1:] = ['decompose', '--scenario', sys.argv[1]]; code = entry.run(); "
                "print(code, gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", code, path], env=subprocess_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "True 0"
        assert proc.stderr.strip() == "0 True True"


def test_report_csv_formatting():
    report = ConvergenceReport(
        rows=(ReportRow(10, 1e-3, 2e-3, 5e-3, "spectral", 0.25),),
        spectral_gap=1.0,
    )
    text = report_csv(report)
    assert text.splitlines()[0] == CSV_HEADER
    assert text.splitlines()[1] == "10,spectral,0.001,0.002,0.005,1.0,"
    timed = report_csv(report, include_timings=True)
    assert timed.splitlines()[1].endswith(",0.25")


def test_cli_import_loads_no_scipy():
    env = subprocess_env()
    code = "import sys, entcesaro.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_defers_correlations_and_verify():
    env = subprocess_env()
    code = ("import sys, entcesaro.cli; "
            "print([m for m in ('entcesaro.correlations', 'entcesaro.verify') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_float_phase_commands_load_no_fractions(tmp_path):
    """``fractions`` is imported only where an exact phase is made: a float ``matrix`` unitary makes none."""
    path = write_scenario(tmp_path, {
        "unitary": {"kind": "matrix", "re": np.diag([1, -1, 0]).tolist(), "im": np.diag([0, 0, 1]).tolist()},
        "partition": [1, 2, 2, 1],
        "operators": [{"kind": "random"}] * 3,
        "Ns": [10, 100],
    })
    code = ("import sys; from entcesaro.cli import main; "
            "codes = [main([command, '--scenario', sys.argv[1]]) for command in ('decompose', 'converge', 'verify')]; "
            "print(codes, 'fractions' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code, path], env=subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.stderr.strip() == "[0, 0, 0] False", proc.stderr


def test_verify_on_matrix_specs_loads_no_numpy_random(tmp_path):
    """``verify`` draws its form probes and index tuples from ``random``, not ``numpy.random``.

    Counted against what importing numpy loads, whatever its version.
    """
    ops = [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [1, 0, 1], [0, 1, 0]], [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
           [[0, 0, 1], [0, 1, 0], [1, 0, 0]], [[2, 0, 0], [0, 1, 0], [0, 0, 1]]]
    path = write_scenario(tmp_path, {
        "unitary": {"kind": "matrix", "re": np.diag([1, -1, 1]).tolist()},
        "partition": [1, 2, 2, 1],
        "operators": [{"kind": "matrix", "re": a} for a in ops],
        "state": {"kind": "trace", "diag": [0.5, 0, 0.5]},
        "Ns": [10, 100],
    })
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; from entcesaro.cli import main; "
            "code = main(['verify', '--scenario', sys.argv[1]]); "
            "print(code, before, 'numpy.random' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code, path], env=subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert "PASS  correlation proof identity" in proc.stdout
    code, before, after = proc.stderr.split()
    assert code == "0" and after == before


def test_package_import_generates_no_record_code():
    """Start-up loads neither ``dataclasses`` nor ``string``: no record generates and execs methods at import.

    The modules are counted against those numpy, argparse and json load, whatever their version.
    """
    env = subprocess_env()
    code = ("import sys, numpy, argparse, json; before = set(sys.modules); "
            "import entcesaro.cli, entcesaro.correlations, entcesaro.verify; "
            "print(sorted({'dataclasses', 'string'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_names_resolve_on_first_access():
    import entcesaro
    from entcesaro import correlations, engines, partitions, spectral

    namespace = {}
    exec("from entcesaro import *", namespace)
    modules = (partitions, spectral, engines, correlations)
    for name in entcesaro.__all__:
        assert namespace[name] is getattr(entcesaro, name)
        assert any(getattr(module, name, None) is namespace[name] for module in modules)
        assert name in dir(entcesaro)
    assert entcesaro.linalg.operator_norm(np.eye(2)) == 1.0
    with pytest.raises(AttributeError):
        entcesaro.no_such_name


def test_bench_and_demo_compare_engines_by_the_relative_gap(tmp_path, capsys):
    """``bench`` lists the engines in ``ENGINES`` order against the spectral mean, each gap per unit of the
    operators' norm product; ``demo-appendix`` prints its cross-check in the same measure."""
    from entcesaro.engines import ENGINES

    path = write_scenario(tmp_path, dict(ENGINE_SCENARIO, Ns=[5]))
    assert run_cli(["bench", "--scenario", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "N        engine    seconds      |diff vs spectral| / norm product"
    rows = [line.split() for line in lines[1:]]
    assert [row[1] for row in rows] == list(ENGINES)
    assert all(float(row[3]) <= 1e-10 for row in rows)
    assert rows[1][1:4:2] == ["spectral", "0.000e+00"]
    assert run_cli(["demo-appendix", "--out", str(tmp_path / "demo.csv")]) == 0
    assert "direct vs spectral at N=30: |diff| / norm product " in capsys.readouterr().out
