import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
