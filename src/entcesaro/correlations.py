"""Multiple correlations of finite-dimensional dynamical systems.

A system is a unitary U together with an invariant state A -> tr(T A), given
by its density operator T; a unit vector omega fixed by U gives T = omega omega*.
The automorphism is conjugation by U; correlations average state values of products

    A_0 g^{c_1}(A_1) g^{c_2}(A_2) ... g^{c_m}(A_m),   c_i = n_a(1) + ... + n_a(i),

over the partition-driven index tuples, and converge to the state applied
to A_0 * limit_operator * A_m.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._record import Record
from .engines import _check_horizon, _check_partition, _differences, cesaro_spectral, limit_operator
from .linalg import ROUNDING_TOL, _gamma, _gated_norm, _unit_scale, as_operator, as_vector, operator_norm, rounding_gap
from .partitions import Partition
from .spectral import (
    FRAME_TOL,
    RECONSTRUCTION_TOL,
    SpectralDecomposition,
    decompose,
    invariant_projection,
    reconstruct,
)

__all__ = [
    "DynamicalSystem",
    "CorrelationSpec",
    "make_system",
    "correlation_term",
    "cesaro_correlation",
    "correlation_limit",
    "correlation_deviations",
]

STATE_TOL = 1e-10


class DynamicalSystem(NamedTuple):
    """A unitary, its decomposition, and the density operator T of an invariant state A -> tr(T A)."""

    unitary: np.ndarray
    dec: SpectralDecomposition
    density: np.ndarray

    @property
    def dim(self) -> int:
        return self.dec.dim

    def expect(self, a: np.ndarray) -> complex:
        return complex(np.einsum("ij,ji->", self.density, a))


class CorrelationSpec(Record):
    """A pair partition plus the 2k+1 observables A_0 ... A_2k."""

    _fields = ("partition", "ops")

    def __init__(self, partition: Partition, ops: tuple[np.ndarray, ...]):
        if len(ops) != partition.m + 1:
            raise ValueError(
                f"partition on {partition.m} slots needs {partition.m + 1} "
                f"observables, got {len(ops)}"
            )
        self.__dict__.update(partition=partition, ops=ops)


def make_system(u, state, *, dec: SpectralDecomposition | None = None) -> DynamicalSystem:
    """Validate a unitary plus invariant state into a DynamicalSystem.

    ``state`` is a density operator T, or a nonzero vector omega that stands for T = omega omega* / |omega|^2.
    T must be self-adjoint, positive, of trace one, fixed by U (UT = T = TU; for rank one, U omega = omega)
    and supported inside the invariant eigenspace, and the state must be invariant under conjugation by U
    on the matrix-unit basis (U* T U = T).  Every check allows ``STATE_TOL``.  ``dec`` defaults to ``decompose(u)``.
    """
    arr = as_operator(u, name="unitary")
    if dec is None:
        dec = decompose(arr)
    else:
        if dec.dim != arr.shape[0]:
            raise ValueError("decomposition dimension does not match the unitary")
        if _gated_norm(reconstruct(dec) - arr, RECONSTRUCTION_TOL) > RECONSTRUCTION_TOL:
            raise ValueError("decomposition does not reconstruct the unitary")
    d = arr.shape[0]
    t = np.asarray(state, dtype=np.complex128)
    if t.ndim == 1:
        omega = as_vector(t, d, name="omega")
        omega = omega * _unit_scale(omega)
        norm = float(np.linalg.norm(omega))
        if norm == 0.0:
            raise ValueError("state vector must be nonzero")
        omega = omega / norm
        t = np.outer(omega, omega.conj())
    t = as_operator(t, d, name="density")
    if _gated_norm(t - t.conj().T, STATE_TOL) > STATE_TOL:
        raise ValueError("density operator must be self-adjoint")
    eigs = np.linalg.eigvalsh(t)
    if float(eigs.min()) < -STATE_TOL:
        raise ValueError(f"density operator must be positive, min eigenvalue {eigs.min():.3e}")
    trace = complex(np.trace(t))
    if abs(trace - 1.0) > STATE_TOL:
        raise ValueError(f"density operator must have trace one, got {trace:.6f}")
    if _gated_norm(arr @ t - t, STATE_TOL) > STATE_TOL or _gated_norm(t @ arr - t, STATE_TOL) > STATE_TOL:
        raise ValueError("state is not invariant under the unitary (UT = T = TU fails)")
    e1 = invariant_projection(dec)
    if _gated_norm((np.eye(d) - e1) @ t, STATE_TOL) > STATE_TOL:
        raise ValueError("density operator is not supported inside the invariant eigenspace")
    # Matrix-unit invariance: omega(e_pq) = T_qp, and conjugating the unit
    # by U transposes into U* T U, which must equal T.
    if _gated_norm(arr.conj().T @ t @ arr - t, STATE_TOL) > STATE_TOL:
        raise ValueError("state is not invariant on the matrix-unit basis")
    return DynamicalSystem(arr, dec, t)


def _check_spec(sys: DynamicalSystem, spec: CorrelationSpec) -> list[np.ndarray]:
    return [as_operator(a, sys.dim, name=f"observable {j}") for j, a in enumerate(spec.ops)]


def correlation_term(sys: DynamicalSystem, spec: CorrelationSpec, n) -> complex:
    """One correlation value at the index tuple n = (n_1, ..., n_k).

    Evaluates the automorphism form with cumulative exponents and also the
    sandwiched form

        omega(A_0 U^{n_a(1)} A_1 U^{n_a(2)} ... A_{m-1} U^{n_a(m)} A_m),

    raising if the two disagree beyond ``linalg.ROUNDING_TOL`` times the
    product of the 2k+1 operator norms (they are equal because every index
    occurs twice and the state is invariant).
    """
    ops = _check_spec(sys, spec)
    p = spec.partition
    n = list(n)
    if len(n) != p.k:
        raise ValueError(f"need {p.k} exponents, got {len(n)}")
    if any(not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 0 for v in n):
        raise ValueError(f"exponents must be nonnegative integers, got {n!r}")
    n = [int(v) for v in n]
    u = sys.unitary
    u_star = u.conj().T

    powers: dict[int, np.ndarray] = {}

    def u_power(m: int) -> np.ndarray:
        if m not in powers:
            base = u if m >= 0 else u_star
            powers[m] = np.linalg.matrix_power(base, abs(m))
        return powers[m]

    cumulative = 0
    product = ops[0]
    for i, lab in enumerate(p.labels, start=1):
        cumulative += n[lab - 1]
        conjugated = u_power(cumulative) @ ops[i] @ u_power(-cumulative)
        product = product @ conjugated
    value = sys.expect(product)

    sandwich = ops[0]
    for i, lab in enumerate(p.labels, start=1):
        sandwich = sandwich @ u_power(n[lab - 1]) @ ops[i]
    other = sys.expect(sandwich)
    gap = rounding_gap(value, other, ops)
    if gap > ROUNDING_TOL:
        raise ValueError(f"correlation identity violated: |{value} - {other}| / norm product = {gap:.3e}"
                         f" > {ROUNDING_TOL:.1e}")
    return value


def cesaro_correlation(sys: DynamicalSystem, spec: CorrelationSpec, N: int) -> complex:
    """Cesaro average of the correlation terms up to horizon N.

    By linearity this is the state applied to A_0 * M_N * A_m, which is how it is computed: M_N is the
    ``cesaro_spectral`` mean of the inner observables, the representation that ``error_bound`` certifies.
    """
    ops = _check_spec(sys, spec)
    mean = cesaro_spectral(sys.dec, spec.partition, ops[1:-1], N)
    return sys.expect(ops[0] @ mean.matrix @ ops[-1])


def correlation_limit(sys: DynamicalSystem, spec: CorrelationSpec) -> complex:
    """Limit of the correlation averages: state of A_0 * limit_operator * A_m."""
    ops = _check_spec(sys, spec)
    limit = limit_operator(sys.dec, spec.partition, ops[1:-1])
    return sys.expect(ops[0] @ limit @ ops[-1])


def correlation_deviations(sys: DynamicalSystem, spec: CorrelationSpec, Ns) -> list[tuple[complex, float]]:
    """Per horizon in ``Ns``, the distance of the correlation average from its limit, with its certified bound.

    The distance is the state of A_0 (M_N - L) A_m, read from ``engines._differences``'s X, the computed
    S = sum_l X_l with M_N - L = W S W* (``error_bound``'s S): delta = tr(T A_0 W X W* A_m), evaluated
    as ``sys.expect`` of (A_0 W) X (W* A_m).  The bound is (1 + g)(|delta| + g tr(|T| |A_0| |W| |X| |W*| |A_m|)
    + (1 + FRAME_TOL) ||A_0|| ||A_m|| r), with r >= ||S - X||_2 the radius ``_differences`` yields.

    Proof.  With E = S - X, the true distance is tr(T A_0 W X W* A_m) + tr(T A_0 W E W* A_m).  The
    second term is at most ||T||_1 ||A_0|| ||W||^2 ||E||_2 ||A_m|| <= (1 + FRAME_TOL) ||A_0|| ||A_m|| r, since
    the state has trace norm one and ||W||^2 = ||W* W|| <= 1 + ||W*W - I||.  The first is delta up to
    its rounding: the four products have inner lengths d each and the trace sums d^2 terms; a complex
    product adds one rounding to its length, so each term meets at most n = 4 d + d^2 + 5 roundings,
    and the computed delta errs by at most g_n times the same chain over the magnitudes
    (``linalg._gamma``).  The outer 1 + g allows for the rounding of that chain, of the norms and of the sum.
    """
    ops = _check_spec(sys, spec)
    p, dec, d = _check_partition(spec.partition), sys.dec, sys.dim
    frame, frame_h = dec.frame, dec._frame_h
    left, right = ops[0] @ frame, frame_h @ ops[-1]
    abs_left, abs_right = np.abs(sys.density) @ np.abs(ops[0]) @ np.abs(frame), np.abs(frame_h) @ np.abs(ops[-1])
    g = _gamma(4 * d + d * d + 5)
    edge = (1 + FRAME_TOL) * operator_norm(ops[0]) * operator_norm(ops[-1])
    out = []
    for x, _, radius in _differences(dec, p, np.array(ops[1:-1]), [_check_horizon(n) for n in Ns]):
        deviation = sys.expect(left @ x @ right)
        rounding = float(np.trace(abs_left @ np.abs(x) @ abs_right))
        out.append((deviation, float((1 + g) * (abs(deviation) + g * rounding + edge * radius))))
    return out
