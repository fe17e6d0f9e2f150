"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import entcesaro
from entcesaro.cli import main as cli_main
from entcesaro.correlations import CorrelationSpec, cesaro_correlation, correlation_limit, correlation_term, make_system
from entcesaro.engines import (
    cesaro_direct,
    cesaro_spectral,
    convergence_report,
    error_bound,
    form_value,
    limit_operator,
    mean_ergodic,
)
from entcesaro.linalg import ROUNDING_TOL, bound_excess, haar_unitary, operator_norm
from entcesaro.partitions import Partition, enumerate_pair_partitions, is_crossing, remove_last_class
from entcesaro.spectral import antidiagonal_spectrum, decompose, invariant_projection, random_system

from conftest import crossing_by_quadruple_scan, invariant_system, phase_value, random_ops, resonates

# The tree that holds the entcesaro these tests import (the checkout's src/, another tree on
# PYTHONPATH, or site-packages), put first on PYTHONPATH so that subprocesses test the same package.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(entcesaro.__file__)))


def report(criterion, message):
    print(f"\n[criterion {criterion}] PASS - {message}")


def test_criterion_1_oracle_equivalence():
    """Direct and spectral engines agree on 200 randomized cases."""
    start = time.perf_counter()
    partitions = [p for k in (1, 2, 3) for p in enumerate_pair_partitions(k)]
    assert len(partitions) == 19
    worst = 0.0
    seen = set()
    for case in range(200):
        p = partitions[case % len(partitions)]
        seen.add(p.labels)
        d = 2 + case % 4
        mode = "haar" if case % 2 == 0 else "rational"
        rng = np.random.default_rng(10_000 + case)
        u, dec = random_system(20_000 + case, d, mode, 6)
        ops = random_ops(rng, p.m - 1, d)
        n = int(rng.integers(2, 41))
        direct = cesaro_direct(u, p, ops, n).matrix
        spectral = cesaro_spectral(dec, p, ops, n).matrix
        scale = float(np.prod([np.linalg.norm(a) for a in ops]))
        worst = max(worst, float(np.linalg.norm(direct - spectral)) / scale)
    elapsed = time.perf_counter() - start
    assert len(seen) == 19, "every pair partition with k <= 3 must be exercised"
    assert worst <= 1e-9, f"worst relative deviation {worst:.3e}"
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report(1, f"200 cases, all 19 partitions, worst relative deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_convergence_witness():
    """Certified bounds dominate measured errors and decay like 1/N."""
    start = time.perf_counter()
    partitions = [p for k in (1, 2, 3) for p in enumerate_pair_partitions(k)]
    horizons = [10**3, 10**4, 10**5]
    checked = 0
    worst_margin = -np.inf
    worst_ratio = 0.0
    for case in range(50):
        rng = np.random.default_rng(30_000 + case)
        d = 3 + case % 2
        _, dec = random_system(40_000 + case, d, "rational", 6)
        p = partitions[case % len(partitions)]
        ops = random_ops(rng, p.m - 1, d)
        rep = convergence_report(dec, p, ops, horizons, engine="spectral")
        assert rep.spectral_gap >= 0.1, f"system gap {rep.spectral_gap} below premise"
        for row in rep.rows:
            assert bound_excess(row.error_op, row.certified_bound, ops) <= ROUNDING_TOL, (
                f"case {case}: error {row.error_op:.3e} above bound {row.certified_bound:.3e} at N={row.N}"
            )
            worst_margin = max(worst_margin, row.error_op - row.certified_bound)
        b_first, b_last = rep.rows[0].certified_bound, rep.rows[-1].certified_bound
        assert b_last <= 1.1e-2 * b_first, (
            f"case {case}: bound ratio {b_last:.3e} / {b_first:.3e} exceeds 1.1e-2"
        )
        if b_first > 0:
            worst_ratio = max(worst_ratio, b_last / b_first)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 50
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds 120s"
    report(2, f"50 systems, every error within bound (worst margin {worst_margin:.2e}), "
              f"worst decay ratio {worst_ratio:.3e} <= 1.1e-2, {elapsed:.1f}s")


def test_criterion_3_form_and_norm_bounds():
    """Uniform sesquilinear-form and limit-norm bounds over 500 draws."""
    worst_form = 0.0
    worst_norm = 0.0
    for draw in range(500):
        rng = np.random.default_rng(50_000 + draw)
        d = 2 + draw % 3
        k = 1 + draw % 2 if draw % 10 else 3
        p = enumerate_pair_partitions(k)[draw % len(enumerate_pair_partitions(k))]
        mode = "haar" if draw % 2 else "rational"
        _, dec = random_system(60_000 + draw, d, mode, 6)
        ops = random_ops(rng, p.m - 1, d, unit="operator")
        product = float(np.prod([operator_norm(a) for a in ops]))
        s = limit_operator(dec, p, ops)
        worst_norm = max(worst_norm, operator_norm(s) - product)
        sigma = antidiagonal_spectrum(dec)
        subset = tuple(ph for i, ph in enumerate(sigma) if (draw >> i) & 1)
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        y = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        value = abs(form_value(dec, p, ops, x, y, subset))
        worst_form = max(worst_form, value - product)
    assert worst_form <= 1e-10, f"form bound exceeded by {worst_form:.3e}"
    assert worst_norm <= 1e-10, f"norm bound exceeded by {worst_norm:.3e}"
    report(3, f"500 draws, form excess {worst_form:.2e}, norm excess {worst_norm:.2e}")


def test_criterion_4_mean_ergodic_bound():
    """Plain Cesaro means reach the invariant projection at the kernel rate."""
    n = 10**4
    accepted = 0
    seed = 0
    worst = -np.inf
    while accepted < 20:
        seed += 1
        u = haar_unitary(np.random.default_rng(70_000 + seed), 4)
        dec = decompose(u)
        gap = min(
            (abs(1.0 - phase_value(ph.turns, ph.frac)) for ph in dec.phases if not resonates(ph.turns, ph.frac, 1e-8)),
            default=np.inf,
        )
        if gap < 0.1:
            continue
        accepted += 1
        err = operator_norm(mean_ergodic(u, n) - invariant_projection(dec))
        bound = 2.0 / (n * gap)
        assert err <= bound + 1e-9, f"seed {seed}: {err:.3e} > {bound:.3e}"
        worst = max(worst, err - bound)
    report(4, f"20 unitaries with gap >= 0.1 at N=10^4, worst error-bound margin {worst:.2e}")


def test_criterion_5_appendix_regression(tmp_path):
    """Fixed seeded system on the entangled partition 1,2,1,3,2,3."""
    p = Partition((1, 2, 1, 3, 2, 3))
    u, dec = random_system(21, 4, "rational", 6)
    rng = np.random.default_rng(80_000)
    ops = random_ops(rng, 5, 4, unit="operator")

    direct = cesaro_direct(u, p, ops, 30).matrix
    spectral = cesaro_spectral(dec, p, ops, 30).matrix
    agreement = float(np.linalg.norm(direct - spectral))
    assert agreement <= 1e-10, f"engines disagree: {agreement:.3e}"

    n = 10**4
    err = operator_norm(cesaro_spectral(dec, p, ops, n).matrix - limit_operator(dec, p, ops))
    bound = error_bound(dec, p, ops, n)
    assert bound_excess(err, bound, ops) <= ROUNDING_TOL, f"error {err:.3e} above certified bound {bound:.3e}"

    out = tmp_path / "demo.csv"
    exit_code = cli_main(["demo-appendix", "--out", str(out)])
    assert exit_code == 0
    report(5, f"direct/spectral agreement {agreement:.2e} at N=30, "
              f"error {err:.2e} <= bound {bound:.2e} at N=10^4, demo exit 0")


def test_criterion_6_correlation_limits():
    """Correlation averages reach their limits within the certified bound."""
    n = 10**4
    identity_checks = 0
    worst = -np.inf
    for case in range(20):
        kind = "vector" if case < 10 else "trace"
        d = 3 + case % 2
        k = 1 + case % 2
        p = enumerate_pair_partitions(k)[case % len(enumerate_pair_partitions(k))]
        u, dec, omega, basis = invariant_system(90_000 + case, d, zero_multiplicity=2)
        rng = np.random.default_rng(91_000 + case)
        ops = random_ops(rng, p.m + 1, d, unit="operator")
        if kind == "vector":
            system = make_system(u, omega, dec=dec)
        else:
            weights = rng.uniform(0.2, 0.8)
            t = weights * np.outer(basis[:, 0], basis[:, 0].conj())
            t += (1.0 - weights) * np.outer(basis[:, 1], basis[:, 1].conj())
            system = make_system(u, t, dec=dec)
        spec = CorrelationSpec(p, tuple(ops))

        deviation = abs(cesaro_correlation(system, spec, n) - correlation_limit(system, spec))
        budget = error_bound(dec, p, ops[1:-1], n)
        budget *= operator_norm(ops[0]) * operator_norm(ops[-1])
        assert bound_excess(deviation, budget, ops) <= ROUNDING_TOL, f"case {case}: {deviation:.3e} > {budget:.3e}"
        worst = max(worst, deviation - budget)

        for _ in range(5):
            tuple_n = [int(v) for v in rng.integers(0, 50, size=p.k)]
            correlation_term(system, spec, tuple_n)  # raises beyond ROUNDING_TOL times the observables' norm product
            identity_checks += 1
    assert identity_checks == 100
    report(6, f"20 systems (10 vector, 10 trace), worst limit margin {worst:.2e}, "
              f"100 proof-identity tuples at 1e-10")


def test_criterion_7_partition_suite():
    """Enumeration counts, crossing classification, and deletion chains."""
    expected = {1: 1, 2: 3, 3: 15, 4: 105, 5: 945}
    for k, count in expected.items():
        assert len(enumerate_pair_partitions(k)) == count
    mismatches = sum(
        1 for p in enumerate_pair_partitions(5)
        if is_crossing(p) != crossing_by_quadruple_scan(p)
    )
    assert mismatches == 0
    for k in (2, 3, 4, 5):
        for p in enumerate_pair_partitions(k):
            current = p
            for _ in range(k - 1):
                current, _ = remove_last_class(current)
            assert current == Partition((1, 1))
    report(7, "counts (2k-1)!! for k=1..5, crossing matches quadruple scan on 945, "
              "deletion chains all end at 1,1")


def test_criterion_8_deterministic_csv(tmp_path):
    """Byte-identical converge output across runs and thread counts."""
    scenario = {
        "unitary": {"kind": "random", "dim": 5, "seed": 33, "phaseMode": "rational", "maxDenominator": 6},
        "partition": [1, 2, 1, 3, 2, 3],
        "operators": [{"kind": "random"} for _ in range(5)],
        "engine": "spectral",
        "Ns": [100, 1000, 10000],
        "seed": 17,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    outputs = []
    for threads, name in (("1", "a.csv"), ("4", "b.csv"), ("1", "c.csv")):
        out = tmp_path / name
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["OMP_NUM_THREADS"] = threads
        env["OPENBLAS_NUM_THREADS"] = threads
        env["MKL_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-m", "entcesaro", "converge", "--scenario", str(path), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    report(8, f"3 runs (thread counts 1, 4, 1) byte-identical, {len(outputs[0])} bytes")
