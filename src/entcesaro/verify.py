"""Runtime invariant suite for a scenario: every module contract, checked.

Each check compares a measured residual against its contract threshold.
The CLI ``verify`` command prints one line per check and exits nonzero if
any fails.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import numpy as np

from .engines import (
    BudgetError,
    _direct_horizon,
    _engine,
    _engines_for,
    convergence_report,
    limit_operator,
    limit_truncated,
)
from .linalg import ROUNDING_TOL, bound_excess, norm_product, operator_norm, rounding_gap
from .scenario import Scenario
from .spectral import FRAME_TOL, RECONSTRUCTION_TOL, antidiagonal_spectrum, decomposition_residuals

__all__ = ["Check", "engine_checks", "run_invariant_suite"]

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
    ops_all, inner = scenario.partition_operators()

    # The largest N up to CROSS_CHECK_N and the first horizon whose direct sweep fits the direct engine's cap.
    n_small = _direct_horizon(p, min([*scenario.horizons[:1], CROSS_CHECK_N]), dec.dim)
    cross_checks, means = engine_checks(u, dec, p, inner, n_small)
    checks.extend(cross_checks)

    # ||M_N||, ||L|| and |<S x, y>| / (|x| |y|) are at most the norm product, up to rounding.
    product = norm_product(inner)
    norm_bound = product + ROUNDING_TOL * product
    limit = limit_operator(dec, p, inner)
    checks.append(_check("mean norm bound", operator_norm(means["direct"]), norm_bound))
    checks.append(_check("limit norm bound", operator_norm(limit), norm_bound))

    truncated = limit_truncated(dec, p, inner, antidiagonal_spectrum(dec))
    checks.append(_check(
        "full truncation reproduces the limit",
        0.0 if np.array_equal(truncated, limit) else 1.0,
        0.0,
    ))

    rng = random.Random(f"{scenario.seed}/verify/form")
    worst = 0.0
    for _ in range(FORM_DRAWS):
        x, y = (np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(dec.dim)])
                for _ in range(2))
        value = abs(complex(np.vdot(y, truncated @ x)))  # the form <S x, y> of the truncated limit
        worst = max(worst, value / (float(np.linalg.norm(x)) * float(np.linalg.norm(y))))
    checks.append(_check("sesquilinear form bound", worst, norm_bound))

    if scenario.horizons:
        try:
            report = convergence_report(dec, p, inner, scenario.horizons, scenario.engine)
            worst, detail = max(bound_excess(row.error_op, row.certified_bound, inner) for row in report.rows), ""
        except BudgetError as exc:
            worst, detail = float("inf"), str(exc)
        checks.append(_check("report rows within certified bound", worst, ROUNDING_TOL, detail))

    if scenario.state_spec is not None:
        checks.extend(_correlation_checks(scenario, u, dec, p, ops_all, n_small, means["direct"]))
    return checks


def engine_checks(u, dec, p, ops, N) -> tuple[list[Check], dict[str, np.ndarray]]:
    """Each engine that evaluates ``p`` (``_engines_for``) against the spectral mean at N by ``rounding_gap``,
    in ``ENGINES`` order; with the means by engine name."""
    means = {name: _engine(name)(u, dec, p, ops, N).matrix for name in _engines_for(p)}
    checks = [_check(f"{name} vs spectral at N={N}", rounding_gap(mean, means["spectral"], ops), ROUNDING_TOL)
              for name, mean in means.items() if name != "spectral"]
    return checks, means


def _correlation_checks(scenario, u, dec, p, ops_all, n_small, direct_mean) -> list[Check]:
    """``direct_mean`` is the direct engine's mean of the inner operators at ``n_small``."""
    from .correlations import CorrelationSpec, cesaro_correlation, correlation_deviations, correlation_limit
    from .correlations import correlation_term, make_system

    checks: list[Check] = []
    state = scenario.state()  # a malformed state spec is a ScenarioError, not a failed check
    try:
        system = make_system(u, state, dec=dec)
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

    # The state of A_0 (direct mean) A_m against cesaro_correlation, which runs the spectral engine.
    via_state = system.expect(ops_all[0] @ direct_mean @ ops_all[-1])
    value = cesaro_correlation(system, spec, n_small)
    checks.append(_check("correlation cross-module identity", rounding_gap(via_state, value, ops_all), ROUNDING_TOL))

    # The bound read from the summed difference, against the mean's value minus the limit's, formed apart.
    horizon = scenario.horizons[-1] if scenario.horizons else 10**4
    bound = correlation_deviations(system, spec, [horizon])[0][1]
    deviation = abs(cesaro_correlation(system, spec, horizon) - correlation_limit(system, spec))
    checks.append(_check("correlation limit within certified bound",
                         bound_excess(deviation, bound, ops_all), ROUNDING_TOL))
    return checks
