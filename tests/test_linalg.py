import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entcesaro.correlations import CorrelationSpec, correlation_term, make_system
from entcesaro.engines import kernel
from entcesaro.linalg import (
    _unitarity_residual,
    as_operator,
    as_vector,
    frobenius_norm,
    gaussian_operator,
    haar_unitary,
    operator_norm,
    require_unitary,
)
from entcesaro.partitions import canonicalize, enumerate_pair_partitions, parse_partition
from entcesaro.scenario import Scenario
from entcesaro.spectral import Phase, Tolerances, random_system


def test_operator_norm_matches_lapack_svd(rng):
    for d in (1, 2, 3, 5, 8):
        for _ in range(20):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-10, abs=1e-12)


def test_operator_norm_special_cases():
    assert operator_norm(np.zeros((3, 3))) == 0.0
    assert operator_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    # rank one
    v = np.array([1.0, 2.0, 2.0])
    assert operator_norm(np.outer(v, v)) == pytest.approx(9.0, rel=1e-11)
    # degenerate top singular values
    assert operator_norm(np.diag([3.0, 3.0, 1.0])) == pytest.approx(3.0, rel=1e-11)


def test_operator_norm_close_top_singular_values():
    # A gap of 1e-4 between the two largest singular values leaves an
    # iterative estimate short of the top one; the norm must not be.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        left, right = haar_unitary(rng, 6), haar_unitary(rng, 6)
        a = left @ np.diag([1.0, 1.0 - 1e-4, 0.9, 0.5, 0.3, 0.1]) @ right
        assert operator_norm(a) == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_operator_norm_random_property(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-9, abs=1e-12)


def test_operator_norm_is_deterministic(rng):
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert operator_norm(a) == operator_norm(a.copy())


def test_as_operator_validation():
    with pytest.raises(ValueError):
        as_operator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_operator(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        as_operator(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        as_operator(np.eye(3), dim=2)


def test_as_vector_validation():
    assert as_vector([1, 2], 2).dtype == np.complex128
    with pytest.raises(ValueError):
        as_vector([1, 2], dim=3)
    with pytest.raises(ValueError):
        as_vector([np.inf, 0], 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_imaginary_part_alone_is_rejected(bad):
    entry = complex(1.0, bad)
    with pytest.raises(ValueError, match="non-finite"):
        as_operator(np.array([[entry, 0], [0, 1]]))
    with pytest.raises(ValueError, match="non-finite"):
        as_vector([0, entry], 2)


def test_haar_unitary_is_unitary_and_seeded():
    u1 = haar_unitary(np.random.default_rng(5), 6)
    u2 = haar_unitary(np.random.default_rng(5), 6)
    assert np.array_equal(u1, u2)
    assert operator_norm(u1.conj().T @ u1 - np.eye(6)) <= 1e-12
    assert require_unitary(u1, 1e-10) is u1
    assert _unitarity_residual(u1, 1e-10) == np.linalg.norm(u1.conj().T @ u1 - np.eye(6))


def test_require_unitary_rejects():
    with pytest.raises(ValueError, match=r"unitary fails unitarity: residual 3\.000e\+00 > 1\.000e-10"):
        require_unitary(np.diag([1.0, 2.0]), 1e-10)
    # (1 + e) W has W*W - I = ((1 + e)^2 - 1) I: the Frobenius norm, twice the operator norm at d = 4,
    # fails the tolerance and the operator norm decides.
    u = haar_unitary(np.random.default_rng(5), 4) * np.sqrt(1.0 + 0.9e-10)
    residual = u.conj().T @ u - np.eye(4)
    assert np.linalg.norm(residual) > 1e-10
    assert require_unitary(u, 1e-10) is u and _unitarity_residual(u, 1e-10) == np.linalg.norm(residual, 2)
    with pytest.raises(ValueError, match="eigenbasis fails unitarity"):
        require_unitary(u, 0.5e-10, name="eigenbasis")


def test_gaussian_operator_norm_target(rng):
    a = gaussian_operator(rng, 5, op_norm=1.0)
    assert operator_norm(a) == pytest.approx(1.0, abs=1e-9)
    b = gaussian_operator(rng, 5, op_norm=2.5)
    assert operator_norm(b) == pytest.approx(2.5, abs=1e-9)


def test_frobenius_norm():
    assert frobenius_norm(np.array([[3.0, 0.0], [0.0, 4.0]])) == pytest.approx(5.0)


@pytest.mark.parametrize("exponent", [-1060, -600, 0, 600, 1020])
def test_frobenius_norm_scales_exactly_by_powers_of_two(rng, exponent):
    # Squaring entries near 1e-300 underflows and near 1e300 overflows; the norm scales first, exactly.
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    scaled = frobenius_norm(a * 2.0**exponent)
    if exponent < -1022:  # subnormal entries keep only some of their bits
        assert scaled == pytest.approx(frobenius_norm(a) * 2.0**exponent, rel=1e-3, abs=0.0)
    else:
        assert scaled == frobenius_norm(a) * 2.0**exponent
    assert frobenius_norm(np.zeros((2, 2))) == 0.0


def _scenario(unitary=None, operator=None, **top):
    """A scenario object read from a Haar d=2 ``1,1`` scenario with the given fields, its system and operator built."""
    scenario = Scenario({"unitary": {"kind": "random", "dim": 2, **(unitary or {})}, "partition": [1, 1],
                         "operators": [{"kind": "random", **(operator or {})}], **top})
    scenario.operators(1)
    return scenario


def _exponent(n):
    system = make_system(np.diag([1.0, -1.0]).astype(complex), np.array([1.0, 0.0]))
    return correlation_term(system, CorrelationSpec(parse_partition("1,1"), (np.eye(2),) * 3), [n])


# Every integer a caller passes is read by one rule, ``linalg._integer``: each entry point, given the integer n,
# takes it as a numpy integer and refuses a bool, numpy's bool, a float and a string with its own message.
INTEGER_ENTRY_POINTS = {
    "label": (lambda n: canonicalize([n, n]), 1, "label at position 1 is not an integer: {!r}"),
    "k": (enumerate_pair_partitions, 2, "k must be a positive integer, got {!r}"),
    "dimension": (lambda n: random_system(1, n), 3, "dimension must be an integer, got {!r}"),
    "max_denominator": (lambda n: random_system(1, 3, "rational", n), 4,
                        "max_denominator must be an integer, got {!r}"),
    "horizon": (lambda n: kernel(Phase(Fraction(1, 4)), n), 3,
                "horizon N must be a positive integer no larger than the largest float, got {!r}"),
    "exponent": (_exponent, 3, "exponents must be nonnegative integers, got [{!r}]"),
    "scenario Ns": (lambda n: _scenario(Ns=[n]), 10,
                    "malformed scenario: 'Ns' must be a list of positive integers within the float range"),
    "scenario seed": (lambda n: _scenario(seed=n), 3, "malformed scenario: 'seed' must be an integer"),
    "scenario dim": (lambda n: _scenario(unitary={"dim": n}), 2,
                     "malformed scenario: 'random' unitary needs a positive integer 'dim'"),
    "scenario maxDenominator": (lambda n: _scenario(unitary={"phaseMode": "rational", "maxDenominator": n}), 4,
                                "malformed scenario: 'maxDenominator' must be an integer"),
    "scenario unitary seed": (lambda n: _scenario(unitary={"seed": n}), 5,
                              "malformed scenario: unitary 'seed' must be a non-negative integer"),
    "scenario operator seed": (lambda n: _scenario(operator={"seed": n}), 5,
                               "malformed scenario: operator 0 'seed' must be a non-negative integer"),
}


@pytest.mark.parametrize("value", [np.int64, True, np.True_, 2.5, "3"],
                         ids=["np.int64", "True", "np.True_", "2.5", "3"])
@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
def test_every_integer_is_read_by_one_rule(entry, value):
    call, n, message = INTEGER_ENTRY_POINTS[entry]
    if value is np.int64:
        call(np.int64(n))
        return
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(value))}$"):
        call(value)


# Every positive number a caller passes is read by one rule, ``linalg._positive``: a finite real above 0, never a
# bool.  Each entry point takes a numpy float and a fraction, and refuses the rest with its own message.
POSITIVE_ENTRY_POINTS = {
    "tolerance": (lambda x: Tolerances(cluster=x).cluster, "tolerance cluster must be positive and finite, got {!r}"),
    "operator norm": (lambda x: operator_norm(gaussian_operator(np.random.default_rng(1), 3, x)),
                      "operator norm must be a positive finite number, got {!r}"),
}


@pytest.mark.parametrize("entry", POSITIVE_ENTRY_POINTS)
def test_every_positive_number_is_read_by_one_rule(entry):
    call, message = POSITIVE_ENTRY_POINTS[entry]
    for value in (np.float64(0.5), Fraction(1, 2)):
        assert call(value) == pytest.approx(0.5, rel=1e-12)
    for value in ("x", None, 1j, -2.0, 0, math.inf, math.nan, True, np.True_, 10**400):
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(value))}$"):
            call(value)
