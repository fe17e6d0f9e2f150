"""Runtime invariant suite for a scenario: every module contract, checked.

Each check compares a measured residual against its contract threshold.
The CLI ``verify`` command prints one line per check and exits nonzero if
any fails.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np

from .engines import (
    CERTIFICATE_SLACK,
    BudgetError,
    cesaro_direct,
    cesaro_nested,
    cesaro_spectral,
    convergence_report,
    error_bound,
    limit_operator,
    limit_truncated,
)
from .linalg import frobenius_norm, operator_norm
from .partitions import is_crossing
from .scenario import Scenario
from .spectral import FRAME_TOL, RECONSTRUCTION_TOL, antidiagonal_spectrum, decomposition_residuals

__all__ = ["Check", "run_invariant_suite"]

ORACLE_REL_TOL = 1e-9
NESTED_TOL = 1e-10
MEAN_NORM_SLACK = 1e-9
LIMIT_NORM_SLACK = 1e-10
FORM_SLACK = 1e-10
CROSS_CHECK_N = 20
FORM_DRAWS = 10


class Check(NamedTuple):
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""


def _check(name, value, threshold, detail="") -> Check:
    return Check(name, bool(value <= threshold), float(value), float(threshold), detail)


def run_invariant_suite(scenario: Scenario) -> list[Check]:
    """All scenario-level invariants; correlation checks run when a state is given."""
    checks: list[Check] = []
    u, dec = scenario.system()

    residuals = decomposition_residuals(dec, u)
    checks.append(_check("unitarity", residuals["unitarity"], dec.tolerances.unitarity))
    checks.append(_check("frame orthonormality", residuals["frame"], FRAME_TOL))
    checks.append(_check("reconstruction", residuals["reconstruction"], RECONSTRUCTION_TOL))

    # Both read the resonance record the limit reads: the partner of a line in the antidiagonal
    # spectrum is its conjugate, and the phase-1 line is its own partner.
    partners, one = dec._resonance.partners, dec._resonance.one
    conj_closed = all(partners[c] == b for b, c in enumerate(partners) if c is not None)
    checks.append(_check("antidiagonal conjugation closure", 0.0 if conj_closed else 1.0, 0.0))
    checks.append(_check("phase 1 in antidiagonal spectrum",
                         0.0 if one is None or partners[one] == one else 1.0, 0.0))

    if scenario.partition is None or scenario.operator_specs is None:
        return checks

    p = scenario.partition
    has_state = scenario.state_spec is not None
    ops_all = scenario.operators(p.m + 1 if has_state else p.m - 1)
    inner = ops_all[1:-1] if has_state else ops_all

    n_small = min(scenario.horizons[0], CROSS_CHECK_N) if scenario.horizons else CROSS_CHECK_N
    direct = cesaro_direct(u, p, inner, n_small)
    spectral = cesaro_spectral(dec, p, inner, n_small)
    # Relative to the product of the norms; clamped after the product, which underflows to 0
    # with two zero operators.
    scale = max(math.prod(frobenius_norm(a) for a in inner), 1e-300)
    checks.append(_check(
        f"direct vs spectral at N={n_small}",
        frobenius_norm(direct.matrix - spectral.matrix) / scale,
        ORACLE_REL_TOL,
    ))
    if not is_crossing(p):
        nested = cesaro_nested(dec, p, inner, n_small)
        checks.append(_check(
            f"nested vs direct at N={n_small}",
            frobenius_norm(nested.matrix - direct.matrix),
            NESTED_TOL,
        ))

    product_norm = 1.0
    for a in inner:
        product_norm *= operator_norm(a)
    limit = limit_operator(dec, p, inner)
    checks.append(_check("mean norm bound", operator_norm(direct.matrix),
                         product_norm + MEAN_NORM_SLACK))
    checks.append(_check("limit norm bound", operator_norm(limit),
                         product_norm + LIMIT_NORM_SLACK))

    truncated = limit_truncated(dec, p, inner, antidiagonal_spectrum(dec))
    checks.append(_check(
        "full truncation reproduces the limit",
        0.0 if np.array_equal(truncated, limit) else 1.0,
        0.0,
    ))

    rng = random.Random(f"{scenario.seed}/verify/form")
    worst_excess = 0.0
    for _ in range(FORM_DRAWS):
        x, y = (np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(dec.dim)])
                for _ in range(2))
        bound = float(np.linalg.norm(x)) * float(np.linalg.norm(y)) * product_norm
        value = abs(complex(np.vdot(y, truncated @ x)))  # the form <S x, y> of the truncated limit
        worst_excess = max(worst_excess, value - bound)
    checks.append(_check("sesquilinear form bound", worst_excess, FORM_SLACK))

    report = None
    if scenario.horizons:
        try:
            report = convergence_report(dec, p, inner, scenario.horizons, scenario.engine)
            worst = max(row.error_op - row.certified_bound for row in report.rows)
            checks.append(_check("report rows within certified bound", worst, CERTIFICATE_SLACK))
        except BudgetError as exc:
            checks.append(Check("report rows within certified bound", False,
                                float("inf"), CERTIFICATE_SLACK, str(exc)))

    if has_state:
        checks.extend(_correlation_checks(scenario, u, dec, p, ops_all, n_small, spectral.matrix, report))
    return checks


def _correlation_checks(scenario, u, dec, p, ops_all, n_small, mean, report) -> list[Check]:
    """``mean`` is the spectral mean of the inner operators at ``n_small``."""
    from .correlations import CorrelationSpec, cesaro_correlation, correlation_limit, correlation_term, make_system

    checks: list[Check] = []
    state = scenario.state()  # a malformed state spec is a ScenarioError, not a failed check
    try:
        system = make_system(u, state, dec=dec, tolerances=scenario.tolerances)
    except ValueError as exc:
        return [Check("state validation", False, float("inf"), 0.0, str(exc))]
    checks.append(_check("state validation", 0.0, 0.0))
    spec = CorrelationSpec(p, tuple(ops_all))

    rng = random.Random(f"{scenario.seed}/verify/correlation")
    worst = 0.0
    for _ in range(5):
        n = [rng.randrange(30) for _ in range(p.k)]
        try:
            correlation_term(system, spec, n)
        except ValueError:
            worst = float("inf")
    checks.append(_check("correlation proof identity", worst, 0.0))

    via_state = system.expect(ops_all[0] @ mean @ ops_all[-1])
    value = cesaro_correlation(system, spec, n_small)
    checks.append(_check("correlation cross-module identity",
                         abs(via_state - value), 1e-10))

    horizon = scenario.horizons[-1] if scenario.horizons else 10**4
    if report is not None:  # its last row already holds the bound at this horizon
        gap_bound = report.rows[-1].certified_bound
    else:
        gap_bound = error_bound(dec, p, ops_all[1:-1], horizon)
    edge = operator_norm(ops_all[0]) * operator_norm(ops_all[-1])
    deviation = abs(cesaro_correlation(system, spec, horizon) - correlation_limit(system, spec))
    checks.append(_check("correlation limit within certified bound",
                         deviation, gap_bound * edge + CERTIFICATE_SLACK))
    return checks
