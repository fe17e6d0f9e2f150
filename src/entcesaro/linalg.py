"""Dense complex matrix helpers: norms, the rounding tolerance, the unitarity gate, random matrices."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "as_operator",
    "as_vector",
    "frobenius_norm",
    "operator_norm",
    "require_unitary",
    "ROUNDING_TOL",
    "norm_product",
    "rounding_gap",
    "bound_excess",
    "haar_unitary",
    "gaussian_operator",
]


def as_operator(a, dim: int | None = None, name: str = "operator") -> np.ndarray:
    """Validate and return a square complex128 matrix with finite entries."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty square matrix, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} has dimension {arr.shape[0]}, expected {dim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_vector(x, dim: int, name: str = "vector") -> np.ndarray:
    arr = np.asarray(x, dtype=np.complex128).reshape(-1)
    if arr.shape[0] != dim:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {dim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _unit_scale(a: np.ndarray) -> float:
    """The power of two that takes the largest real or imaginary part of ``a`` into [1, 2), at most 2^1023:
    scaling by it is exact, so a norm of the scaled entries cannot under- or overflow."""
    exponent = int(np.frexp(max(np.abs(a.real).max(initial=0.0), np.abs(a.imag).max(initial=0.0)))[1])
    return 2.0 ** min(1 - exponent, 1023)


def frobenius_norm(a) -> float:
    """The Frobenius norm, taken of the entries scaled by ``_unit_scale`` and scaled back, so that no squared
    entry under- or overflows."""
    arr = np.asarray(a)
    scale = _unit_scale(arr)
    return float(np.linalg.norm(arr * scale)) / scale


def _gamma(n: int) -> float:
    """g_n = n eps / (1 - n eps), eps the machine epsilon: a complex product summed through at most n real
    roundings errs by at most g_n times its magnitude (eps is twice the unit roundoff, which covers the
    sqrt 2 of a complex modulus)."""
    eps = np.finfo(float).eps
    return n * eps / (1 - n * eps)


def operator_norm(a) -> float:
    """Largest singular value, from the LAPACK singular value decomposition."""
    return float(np.linalg.norm(as_operator(a), 2))


# How far two evaluations of one quantity multilinear in some operators may differ (``rounding_gap``), or an
# error exceed its certified bound (``bound_excess``), per unit of their operators' norm product.
ROUNDING_TOL = 1e-10


def norm_product(ops) -> float:
    """The product of the operator norms of ``ops``, clamped at 1e-300 so that a zero operator, or a
    product that underflows, leaves it positive."""
    return max(math.prod(operator_norm(a) for a in ops), 1e-300)


def rounding_gap(a, b, ops) -> float:
    """||a - b||_F per unit of ``norm_product(ops)``: the measure that ``ROUNDING_TOL`` bounds."""
    return frobenius_norm(np.asarray(a) - np.asarray(b)) / norm_product(ops)


def bound_excess(error: float, bound: float, ops) -> float:
    """(error - bound) per unit of ``norm_product(ops)``: an error passes its certified bound when this is at
    most ``ROUNDING_TOL``, the ``rounding_gap`` allowed between any engine's mean and the certified one."""
    return (error - bound) / norm_product(ops)


def _gated_norm(residual: np.ndarray, tol: float) -> float:
    """Frobenius norm of ``residual`` when within ``tol``, its operator norm otherwise.

    The Frobenius norm bounds the operator norm, so the value is within ``tol`` exactly when the
    operator norm is; the SVD runs only when the Frobenius test fails.
    """
    norm = frobenius_norm(residual)
    return norm if norm <= tol else operator_norm(residual)


def require_unitary(u, tol: float, name: str = "unitary") -> tuple[np.ndarray, float]:
    """``u`` as a matrix with its unitarity residual: ||U*U - I|| gated at ``tol`` by ``_gated_norm``.

    Raises ``ValueError`` when the residual exceeds ``tol``.
    """
    arr = as_operator(u, name=name)
    res = _gated_norm(arr.conj().T @ arr - np.eye(arr.shape[0]), tol)
    if res > tol:
        raise ValueError(f"{name} fails unitarity: residual {res:.3e} > {tol:.3e}")
    return arr, res


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-like unitary from QR orthonormalization of a complex Gaussian matrix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag = np.where(np.abs(diag) < 1e-300, 1.0, diag / np.abs(diag))
    return q * diag


def gaussian_operator(rng: np.random.Generator, d: int, op_norm: float) -> np.ndarray:
    """Complex Gaussian matrix rescaled to the operator norm ``op_norm``."""
    a = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0 * d)
    current = operator_norm(a)
    if current == 0.0:
        raise ValueError("cannot rescale a zero matrix to a target norm")
    return a * (op_norm / current)
