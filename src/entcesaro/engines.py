"""Evaluation engines for entangled Cesaro means of unitary dynamics.

The object of interest is the k-fold average

    M_N = (1/N^k) sum_{n_1..n_k < N}  U^{n_a(1)} A_1 U^{n_a(2)} ... A_{m-1} U^{n_a(m)}

over a pair partition a of {1..m}, m = 2k.  Three engines compute it:

* ``cesaro_direct``    walks the power table of U and contracts the sum
  slot by slot, left to right (cost grows with N); ``_power_sum`` sums a pair
  on adjacent slots into one d x d factor, which holds no index axis, from
  powers it keeps unitary.
* ``cesaro_spectral``  inserts U = sum_b z_b E_b at every slot: a sum over
  block tuples t of prod_classes K_N(class phase sum) E_t1 A_1 ... E_tm,
  K_N the Cesaro kernel.  In the eigenframe W each E_b is a diagonal mask,
  so the sum is one contraction over W* A_j W (cost independent of N).
* ``cesaro_nested``    collapses innermost adjacent class pairs recursively,
  each by binary splitting of its sum over n (cost grows with log N);
  valid for non-crossing partitions only, which the gate ``_engine`` checks.

All three compute the same finite-N sum by different factorizations;
``ENGINES`` maps each name to its call.  The limit swaps each class's
kernel table for the resonance indicator R (phase sum equal to 1) in the
same contraction; ``limit_truncated`` restricts R to chosen phases.  Every
such table, the spectral gap and the resonance pairing read one array of
class phase sums (``spectral.PhaseSums``): Python-int numerators over one
denominator L (a float turn is a dyadic rational), so every kernel reduces
N t in integers and periodic zeros (a N = 0 mod L) are exact.  The
decomposition records these tables, W* and the block pair of every pair of
frame columns on first use: a horizon forms only the N-dependent factors of
its kernel table, and the resonance table is checked and formed once, at
``dec.tolerances.resonance``.

The mean, the limit, the truncated limit and the certified bound share one
contraction core, ``_contract``, of the stacked slot matrices
S_j = W* A_j W (shape (m-1, d, d)) and the class tables, each read at the
blocks of every column pair (shape (d, d)); it returns the sum in the frame
(zero, with no product, when a table is all zero), and each call forms
every S_j in one batched product.  Telescoped over the classes,
prod K_N - prod R gives k contractions X_l whose sum S has
M_N - L = W S W*: ``error_bound`` is its norm plus a rounding allowance,
and the spectral ``convergence_report`` reads its error from that sum.

Each engine has one memoized plan that its memory check and its loop both
read.  ``_network`` plans ``_contract`` per (partition, d) as one tensor
network on slot numbers: S_j on the column indices of slots j and j+1, each
class table on the indices of its slots.  It orders the network once,
whatever the cap, by numpy's greedy pair rule, and each pairwise step is one
transpose and reshape per operand and one matrix product.  ``_direct_plan``
gives ``cesaro_direct``'s steps per partition (operator, factor, and the open
axis a closing class sums out), each one matrix product, and the index axes of
the arrays each step holds.  Module constants, read at every call, cap the
entries of the largest planned tensor: any step's operand or result for the
mean, the limits and the bound (``SPECTRAL_ENTRY_BUDGET``), N^h d^2 for h index
axes held by ``cesaro_direct`` (``_SWEEP_ENTRY_BUDGET``).
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .linalg import _gamma, _integer, as_operator, as_vector, frobenius_norm, operator_norm, require_unitary
from .partitions import Partition, is_crossing, render_partition
from .spectral import (
    FRAME_TOL,
    Phase,
    SpectralDecomposition,
    Tolerances,
    _summands_of,
    antidiagonal_spectrum,
    reconstruct,
    resonant_partners,
)

__all__ = [
    "BudgetError",
    "CesaroResult",
    "ReportRow",
    "ConvergenceReport",
    "kernel",
    "mean_ergodic",
    "cesaro_direct",
    "cesaro_spectral",
    "cesaro_nested",
    "limit_operator",
    "limit_truncated",
    "form_value",
    "error_bound",
    "error_bounds",
    "spectral_gap",
    "convergence_report",
    "ENGINE_NAMES",
]

SPECTRAL_ENTRY_BUDGET = 10**7  # the spectral engines' memory cap: entries in the largest planned tensor
_SWEEP_ENTRY_BUDGET = 1 << 24  # the direct engine's memory cap: complex entries it holds at once


class BudgetError(ValueError):
    """Requested evaluation exceeds the configured work budget."""


class CesaroResult(NamedTuple):
    matrix: np.ndarray
    engine: str
    N: int
    elapsed: float


class ReportRow(NamedTuple):
    """One horizon of a convergence report; ``seconds`` is the row's wall time, its bound plus its mean."""

    N: int
    error_op: float
    error_frob: float
    certified_bound: float
    engine: str
    seconds: float


class ConvergenceReport(NamedTuple):
    rows: tuple[ReportRow, ...]
    spectral_gap: float


def _check_horizon(n, message: str = "") -> int:
    """``n`` as an integer (``_integer``) in [1, largest float], which the kernels take N to; else ``ValueError``."""
    message = message or f"horizon N must be a positive integer no larger than the largest float, got {n!r}"
    if not 1 <= (n := _integer(n, message)) <= sys.float_info.max:
        raise ValueError(message)
    return n


def _check_partition(p) -> Partition:
    if not isinstance(p, Partition):
        raise ValueError("expected a Partition")
    return p


def _check_ops(p: Partition, ops, dim: int) -> np.ndarray:
    """The operators as one complex stack of shape (m - 1, dim, dim), checked at once; ``p`` is checked first.

    Only when the stack fails its shape or finiteness check are the operators checked one by one,
    for a message that names the first bad one.
    """
    _check_partition(p)
    try:
        stack = np.asarray(ops, dtype=np.complex128)
    except (TypeError, ValueError):  # a ragged list, or entries that are not numbers
        stack = None
    if stack is None or stack.shape != (p.m - 1, dim, dim) or not np.isfinite(stack).all():
        checked = [as_operator(a, dim, name=f"operator {j + 1}") for j, a in enumerate(ops)]
        if len(checked) != p.m - 1:
            raise ValueError(f"partition on {p.m} slots needs {p.m - 1} operators, got {len(checked)}")
        stack = np.array(checked, dtype=np.complex128)
    return stack


def kernel(phase: Phase, N) -> complex:
    """Cesaro kernel (1/N) sum_{n<N} z^n for z the given phase.

    Equals 1 at z == 1 and otherwise the Dirichlet form
    e^{i pi (N-1) t} sin(pi N t) / (N sin(pi t)) with t in [-1/2, 1/2), accurate
    near resonance, where 1 - z cancels.  A phase c/L (a float turn is a dyadic
    rational) reduces N t and (N - 1) t from the integers N c and (N - 1) c, so
    periodic zeros are exact and the kernel is finite up to the largest float horizon.
    """
    return complex(_summands_of([phase]).kernels(_check_horizon(N))[0])


def mean_ergodic(u, N) -> np.ndarray:
    """(1/N) sum_{n<N} U^n, evaluated by binary splitting of the sum (``_power_sum``), whose powers stay unitary
    at any N; U is gated at ``Tolerances().unitarity``.  Its phases are read from its float entries, so from
    N ~ 10^15 the part of the mean that decays is as large as its error."""
    arr = require_unitary(u, Tolerances().unitarity)
    N = _check_horizon(N)
    eye = np.eye(arr.shape[0], dtype=np.complex128)
    return _power_sum(arr, eye, eye, N) / N


def _unitarised(x: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step X (3I - X*X) / 2 toward the unitary polar factor of X (Higham, *Functions of
    Matrices*, ch. 8): for X unitary up to e it is unitary up to about e^2 + eps.  Exact on the identity."""
    return 1.5 * x - 0.5 * (x @ (x.conj().T @ x))


def _power_sum(left: np.ndarray, mid: np.ndarray, right: np.ndarray, N: int) -> np.ndarray:
    """sum_{n<N} left^n mid right^n for unitary ``left`` and ``right``, by binary splitting: the sum over
    n < 2c is the sum over n < c plus left^c times it times right^c, and a set bit of N then adds the term
    n = 2c.  Each power formed takes one ``_unitarised`` step, so its unitarity residual stays at rounding
    size at any N (its phases still carry about c eps of rounding), and the powers are formed once when
    ``right`` is ``left``.  A sum that is not finite (an operator whose sum overflows) raises ``ValueError``."""
    total, power_l, power_r = mid, left, right  # the sum over n < 1, and the powers c = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for bit in bin(N)[3:]:
            total = total + power_l @ total @ power_r
            power_l = _unitarised(power_l @ power_l)
            power_r = power_l if right is left else _unitarised(power_r @ power_r)
            if bit == "1":
                total = total + power_l @ mid @ power_r
                power_l = _unitarised(power_l @ left)
                power_r = power_l if right is left else _unitarised(power_r @ right)
    if not np.isfinite(total).all():
        raise ValueError(f"the power sum at horizon N={N:.6e} is not finite")
    return total


class _DirectStep(NamedTuple):
    """One step of ``cesaro_direct``'s sweep, one matrix product of the tensor, ``ops[op]`` and the factor: a
    pair on adjacent slots, ``_power_sum``'s sum_n U^n ops[op + 1] U^n ("pair"), or the power table, where a
    class opens an axis after the open ones ("opens") or sums out the ``axis``-th open one ("closes")."""

    op: int  # -1 at the first step, which starts from its factor
    factor: str
    axis: int | None


@lru_cache(maxsize=64)
def _direct_plan(p: Partition) -> tuple[tuple[_DirectStep, ...], tuple[tuple[int, ...], ...]]:
    """``cesaro_direct``'s steps, and the index axes of the arrays each step holds at once.

    Each class opens an axis of size N at its first slot and sums it out at its last; a pair on adjacent
    slots (one step) opens none, its d x d factor summed by the doubling loop, whose few d x d arrays are
    not counted.  The power table (one axis) is held throughout when some class opens an axis.  The first
    step holds its factor, a later one its input tensor (unless that is the power table itself), its
    output and between them the tensor times the operator (a pair), or the operator times the power table
    and, where a class closes, the product before the axis is summed.  ``ValueError`` when an array needs
    more axes than numpy allows.
    """
    pairs = p.class_pairs
    table = (1,) if any(last > first + 1 for first, last in pairs) else ()  # the power table's axis
    axes: list[int] = []  # the open classes, in axis order
    steps, loads, tensor = [], [], None  # tensor: the axes of a step's input, () when it is the power table
    pos = 1
    while pos <= p.m:
        lab = p.labels[pos - 1]
        first, last = pairs[lab - 1]
        if last == first + 1:
            step, between = _DirectStep(pos - 2, "pair", None), (len(axes),)
        elif pos == last:
            step, between = _DirectStep(pos - 2, "closes", axes.index(lab)), (1, len(axes))
            axes.remove(lab)
        else:
            step, between = _DirectStep(pos - 2, "opens", None), (1,)
            axes.append(lab)
        if tensor is None:  # the first step's output is its factor: the power table, or a pair's d x d sum
            tensor = () if step.factor == "opens" else (0,)
            loads.append((*table, *tensor))
        else:
            loads.append((*table, *tensor, *between, len(axes)))
            tensor = (len(axes),)
        steps.append(step)
        pos += 2 if step.factor == "pair" else 1
    try:  # numpy's own limit on an array's axes, the matrix's two included: 32 before numpy 2.0, 64 since
        np.empty((0,) * (2 + max(map(max, loads))))
    except ValueError as exc:
        raise ValueError(f"direct engine: a partition on {p.m} slots needs more array axes than numpy allows: "
                         f"{exc}") from None
    return tuple(steps), tuple(loads)


def _direct_entries(p: Partition, N: int, d: int) -> int:
    """Entries ``cesaro_direct`` plans to hold at once at its peak: the largest sum of N^h d^2 over the
    arrays held at one point of the sweep, h the index axes of each (``_direct_plan``)."""
    return max(sum(N**h for h in load) for load in _direct_plan(p)[1]) * d * d


def _direct_horizon(p: Partition, N: int, d: int) -> int:
    """The largest horizon up to N, and at least 1, whose direct sweep fits ``_SWEEP_ENTRY_BUDGET``."""
    return next((n for n in range(N, 1, -1) if _direct_entries(p, n, d) <= _SWEEP_ENTRY_BUDGET), 1)


def _refuse_over_cap(engine: str, peak: int, cap: int) -> None:
    """``BudgetError`` naming the engine, its planned peak of entries and its cap, when the peak exceeds it."""
    if peak > cap:
        shown = f"{peak:.3e}" if peak <= sys.float_info.max else f"more than {sys.float_info.max:.3e}"
        raise BudgetError(f"{engine} engine: planned peak of {shown} entries exceeds the memory budget {cap}")


def cesaro_direct(u, p: Partition, ops, N) -> CesaroResult:
    """Finite-N entangled mean from the power table of U.

    The sum over index tuples is contracted slot by slot: each class opens an
    axis of size N at its first slot and is summed out at its last slot.  A
    pair on adjacent slots opens none: the doubling loop ``_power_sum`` sums its
    sum_n U^n A U^n into one d x d factor from U alone, at any N; it assumes U
    unitary and keeps each power it forms unitary.  U's phases are read from
    its float entries, so from N ~ 10^15 a pair whose phases resonate only to
    rounding no longer averages to its limit.  The contraction path is
    fixed per partition (``_direct_plan``), and each step is one matrix product,
    broadcast over the open axes, so results are reproducible bit for bit.  The
    power table is built only when some class opens an axis.
    ``_SWEEP_ENTRY_BUDGET`` caps the entries of the arrays a step holds at once,
    each N^h d^2 for h index axes (``_direct_entries``).
    """
    start = time.perf_counter()
    arr = as_operator(u, name="unitary")
    ops = _check_ops(p, ops, arr.shape[0])
    N = _check_horizon(N)
    d = arr.shape[0]
    steps, _ = _direct_plan(p)
    _refuse_over_cap("direct", _direct_entries(p, N, d), _SWEEP_ENTRY_BUDGET)

    if any(step.factor == "opens" for step in steps):
        powers = np.empty((N, d, d), dtype=np.complex128)
        powers[0] = np.eye(d)
        for n in range(1, N):
            powers[n] = powers[n - 1] @ arr
    first, *rest = steps
    tensor = powers if first.factor == "opens" else _power_sum(arr, ops[0], arr, N) / N
    for step in rest:  # each class is divided by N where it is summed: a pair in its factor, a class by its mean
        if step.factor == "pair":
            tensor = tensor @ ops[step.op] @ (_power_sum(arr, ops[step.op + 1], arr, N) / N)
        elif step.factor == "opens":
            tensor = tensor[..., None, :, :] @ (ops[step.op] @ powers)
        else:
            tensor = (np.moveaxis(tensor, step.axis, -3) @ (ops[step.op] @ powers)).mean(axis=-3)
    return CesaroResult(tensor, "direct", N, time.perf_counter() - start)


@lru_cache(maxsize=64)
def _network(p: Partition, d: int) -> tuple[tuple[tuple, ...], tuple[int, ...], int]:
    """The plan of ``_contract`` in a frame of d columns: its pairwise steps, the axis order that takes
    the last result to (row, column), and the planned peak, the entry count of the largest tensor any
    step forms (at least d^2, one slot matrix).

    Slot j (from 0) holds one column index: S_j sits on (j, j + 1), each class table on its two slots,
    the result on (0, m - 1).  Each step takes the live pair x < y sharing an index that removes the
    most entries, then needs the fewest multiply-adds (d^|x or y|, twice that if an index is summed),
    then comes first by (max(y, operands given - 1), x, y): numpy's greedy ``einsum_path`` rule and pair
    order, so at d > 1 the plans are numpy's.  A step (x, y) groups x to (kept, x only, summed) and y to
    (kept, summed, y only), multiplies them, and appends the result, on (kept, x only, y only).
    """
    terms = [(j, j + 1) for j in range(p.m - 1)] + [(a - 1, b - 1) for a, b in p.class_pairs]
    output, given = (0, p.m - 1), len(terms)

    def count(cs):
        return d ** len(cs)

    def groups(x, y):  # the kept, summed, x-only and y-only indices of step (x, y)
        xs, ys = terms[x], terms[y]
        shared = [c for c in xs if c in ys]
        summed = [c for c in shared if held[c] == 2]  # on x and y alone
        kept = [c for c in shared if c not in summed]
        return kept, summed, [c for c in xs if c not in shared], [c for c in ys if c not in shared]

    def key(x, y):  # the change in entries, the multiply-adds, then the order numpy finds pairs in
        kept, summed, x_only, y_only = groups(x, y)
        return (count(kept + x_only + y_only) - count(terms[x]) - count(terms[y]),
                count(kept + summed + x_only + y_only) * (2 if summed else 1), max(y, given - 1), x, y)

    live, steps, peak = list(range(given)), [], d * d
    while len(live) > 1:
        held = Counter([*output, *(c for t in live for c in terms[t])])  # the holders of each index
        *_, x, y = min(key(x, y) for x, y in combinations(live, 2) if set(terms[x]) & set(terms[y]))
        kept, summed, x_only, y_only = groups(x, y)
        live = [t for t in live if t not in (x, y)] + [len(terms)]
        terms.append((*kept, *x_only, *y_only))
        steps.append((x, y,
                      tuple(map(terms[x].index, kept + x_only + summed)), (count(kept), count(x_only), count(summed)),
                      tuple(map(terms[y].index, kept + summed + y_only)), (count(kept), count(summed), count(y_only)),
                      (d,) * len(terms[-1]), bool(summed)))
        peak = max(peak, count(terms[x]), count(terms[y]), count(terms[-1]))
    return tuple(steps), tuple(map(terms[-1].index, output)), peak


def _contract(p: Partition, slots: np.ndarray, tables) -> np.ndarray:
    """Sum over column tuples (i_1, ..., i_m) of prod_c tables[c][i_a, i_b] S_1[i_1, i_2] ... S_{m-1}[i_{m-1}, i_m],
    class c on slots a < b, as the matrix on (i_1, i_m).

    ``slots`` stacks the slot matrices S_j = W* A_j W, shape (m - 1, d, d), in the eigenframe W, where each
    projection E_b is the diagonal mask of block b's columns; ``tables`` holds each class's (B, B) block table
    read at the blocks of every column pair, shape (d, d) (``dec._column_pairs``).  So the result is the sum
    over block tuples in the frame, and W (result) W* is the sum in the original basis.  The steps are those
    ``_network`` planned, after the planned peak is checked against ``SPECTRAL_ENTRY_BUDGET``; an all-zero
    table gives the zero matrix with no product.
    """
    d = slots.shape[-1]
    steps, order, peak = _network(p, d)
    _refuse_over_cap("spectral", peak, SPECTRAL_ENTRY_BUDGET)
    if not all(table.any() for table in tables):  # an all-zero table gives a zero sum
        return np.zeros((d, d), np.result_type(slots, *tables))
    operands = [*slots, *tables]
    for x, y, x_order, x_grouped, y_order, y_grouped, shape, summed in steps:
        a = operands[x].transpose(x_order).reshape(x_grouped)
        b = operands[y].transpose(y_order).reshape(y_grouped)
        operands[x] = operands[y] = None
        operands.append((a @ b if summed else a * b).reshape(shape))
    return operands[-1].transpose(order).reshape(d, d)


def _slot_matrices(dec: SpectralDecomposition, ops: np.ndarray) -> np.ndarray:
    """W* A_j W for the stack of operators in the decomposition's frame."""
    return dec._frame_h @ ops @ dec.frame


def _spectral_sum(dec: SpectralDecomposition, p: Partition, ops: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``_contract`` with the block table ``table`` at every class, taken back to the original basis."""
    tables = [table.take(dec._column_pairs)] * p.k
    return dec.frame @ _contract(p, _slot_matrices(dec, ops), tables) @ dec._frame_h


def cesaro_spectral(dec: SpectralDecomposition, p: Partition, ops, N) -> CesaroResult:
    """Finite-N entangled mean as a kernel-weighted sum over projection tuples.

    Mathematically identical to ``cesaro_direct`` for every N; the cost does
    not depend on N.  ``SPECTRAL_ENTRY_BUDGET`` caps the entries of the largest
    tensor the planned contraction forms, at least those of one slot matrix.
    """
    start = time.perf_counter()
    ops = _check_ops(p, ops, dec.dim)
    N = _check_horizon(N)
    matrix = _spectral_sum(dec, p, ops, dec._pair_sums.kernels(N))
    return CesaroResult(matrix, "spectral", N, time.perf_counter() - start)


def cesaro_nested(dec: SpectralDecomposition, p: Partition, ops, N) -> CesaroResult:
    """Entangled mean by collapsing innermost adjacent class pairs.

    Each collapse replaces U^n A U^n (both slots driven by the same index) by
    its plain Cesaro average and merges the neighbors.  Finite sums over
    independent indices factor exactly, so this agrees with ``cesaro_direct``
    up to rounding, but it is only defined for non-crossing pair partitions.
    """
    start = time.perf_counter()
    _engine("nested", _check_partition(p))
    ops = _check_ops(p, ops, dec.dim)
    N = _check_horizon(N)
    u = reconstruct(dec)
    eye = np.eye(dec.dim, dtype=np.complex128)
    chain: list[np.ndarray] = [eye, *ops, eye]
    labels = list(p.labels)
    while labels:
        pair_at = next(i for i in range(len(labels) - 1) if labels[i] == labels[i + 1])
        total = _power_sum(u, chain[pair_at + 1], u, N)
        merged = chain[pair_at] @ (total / N) @ chain[pair_at + 2]
        chain = chain[:pair_at] + [merged] + chain[pair_at + 3 :]
        labels = labels[:pair_at] + labels[pair_at + 2 :]
    return CesaroResult(chain[0], "nested", N, time.perf_counter() - start)


# Every engine's finite-N mean by name, called as (u, dec, p, ops, N); the direct engine reads U.
ENGINES = {
    "direct": lambda u, dec, p, ops, N: cesaro_direct(u, p, ops, N),
    "spectral": lambda u, dec, p, ops, N: cesaro_spectral(dec, p, ops, N),
    "nested": lambda u, dec, p, ops, N: cesaro_nested(dec, p, ops, N),
}
ENGINE_NAMES = tuple(ENGINES)


def _engines_for(p: Partition) -> tuple[str, ...]:
    """The engines that evaluate ``p``, in ``ENGINES`` order: the nested one only if ``p`` does not cross."""
    return tuple(name for name in ENGINE_NAMES if name != "nested" or not is_crossing(p))


def _engine(name: str, p: Partition | None = None):
    """``ENGINES[name]``; ``ValueError`` for an unknown name, and given ``p`` for one not in ``_engines_for(p)``."""
    if name not in ENGINE_NAMES:  # a tuple, so an unhashable name is unknown too
        raise ValueError(f"unknown engine {name!r}, expected one of {ENGINE_NAMES}")
    if p is not None and name not in _engines_for(p):
        raise ValueError(f"nested engine requires a non-crossing pair partition, got {render_partition(p)}")
    return ENGINES[name]


def limit_truncated(dec: SpectralDecomposition, p: Partition, ops, phases) -> np.ndarray:
    """Partial limit sum restricted to class phases drawn from ``phases``.

    Every element of ``phases`` must lie in the antidiagonal spectrum.  The
    first slot of each class carries the conjugate projection, the second the
    plain one.  With the full antidiagonal spectrum this is the limit
    operator itself, bit for bit.
    """
    ops = _check_ops(p, ops, dec.dim)
    partners = resonant_partners(dec)
    index_of = {ph: b for b, ph in enumerate(dec.phases)}
    chosen = np.zeros(len(dec.phases))
    for ph in phases:
        b = index_of.get(ph)
        if b is None or partners[b] is None:
            raise ValueError(f"phase {ph} is not in the antidiagonal spectrum")
        chosen[b] = 1.0
    # R_S[b, c] = [c in S and partners[c] == b]: the mask acts on the last slot.
    return _spectral_sum(dec, p, ops, dec._resonance.table * chosen)


def limit_operator(dec: SpectralDecomposition, p: Partition, ops) -> np.ndarray:
    """Limit of the entangled mean: the sum over resonant block tuples."""
    ops = _check_ops(p, ops, dec.dim)
    return _spectral_sum(dec, p, ops, dec._resonance.table)


def form_value(dec: SpectralDecomposition, p: Partition, ops, x, y, phases=None) -> complex:
    """Sesquilinear form <S^F x, y> of the (truncated) limit operator."""
    x = as_vector(x, dec.dim, name="x")
    y = as_vector(y, dec.dim, name="y")
    if phases is None:
        phases = antidiagonal_spectrum(dec)
    s = limit_truncated(dec, p, ops, phases)
    return complex(np.vdot(y, s @ x))


def error_bound(dec: SpectralDecomposition, p: Partition, ops, N) -> float:
    """Certified bound on the operator-norm distance of M_N from the limit.

    It certifies the spectral representation in the computed frame W (||W*W - I|| <= FRAME_TOL).  Telescoped
    over the classes, its tuple weight prod K - prod R = sum_l (prod_{j<l} R_j)(K_l - R_l)(prod_{j>l} K_j), so
    M_N - L = W S W* for S = sum_l X_l, X_l the contraction with K - R at class l, R before it and K after.
    The bound is (1 + FRAME_TOL)(1 + g)(||X||_2 + g sum_l ||Y_l||_F) for X the computed S.  Rounding: each
    product summed into an entry of X_l meets at most n = 2 d + 4 m + the planned steps' summed lengths
    roundings, so |fl(X_l) - X_l| <= g_n Y_l entrywise for g_n = n eps / (1 - n eps), Y_l the contraction
    over |W*| |A_j| |W| with the tables' magnitudes (at a resonance whose sum is not exactly 0, where K - 1
    cancels, its table at class l also holds |K|).  Summing the j terms that are not all zero adds j - 1
    roundings (an all-zero term adds exactly), so |X - S| <= g sum_l Y_l for g = g_{n+j-1}, and ||S||_2 <=
    ||X||_2 + g sum_l ||Y_l||_F; 1 + g allows for the rounding of the norms and of Y_l.  Identity dynamics
    give 0.0; with no resonance, X_1 = W* M_N W is the one term.
    """
    return error_bounds(dec, p, ops, [N])[0]


def error_bounds(dec: SpectralDecomposition, p: Partition, ops, Ns) -> list[float]:
    """``error_bound`` at every horizon in ``Ns``; the slot matrices are formed once."""
    ops = _check_ops(p, ops, dec.dim)
    return [bound for _, bound, _ in _differences(dec, p, ops, [_check_horizon(n) for n in Ns])]


def _differences(dec: SpectralDecomposition, p: Partition, ops: np.ndarray, Ns):
    """Per horizon in ``Ns`` (arguments checked), X = fl(sum_l X_l), the computed S = sum_l X_l with
    M_N - L = W S W* in the frame, ``error_bound`` at N, and the radius (1 + g) g sum_l ||Y_l||_F
    >= ||S - X||_2 of ``error_bound``'s proof; one horizon at a time, each from its kept kernel table."""
    slots = _slot_matrices(dec, ops)
    abs_slots = np.abs(dec._frame_h) @ np.abs(ops) @ np.abs(dec.frame)
    n = 2 * dec.dim + 4 * p.m + sum(step[3][2] for step in _network(p, dec.dim)[0])  # step[3][2]: its summed length
    pairs = dec._column_pairs
    resonance = dec._resonance.table.take(pairs)
    floating = resonance * (dec._pair_sums.numerators != 0).take(pairs)  # resonant with K != 1, so K - 1 cancels
    for N in Ns:
        kernels = dec._pair_sums.kernels(N).take(pairs)
        abs_kernels = abs(kernels)
        terms, allowance = [], 0.0
        for c in range(p.k):  # X_c: K - R at class c, R before it and K after
            tables = [resonance] * c + [kernels - resonance] + [kernels] * (p.k - 1 - c)
            abs_tables = [resonance] * c + [abs(tables[c]) + floating * abs_kernels] + [abs_kernels] * (p.k - 1 - c)
            terms.append(_contract(p, slots, tables))
            allowance += frobenius_norm(_contract(p, abs_slots, abs_tables))
        terms = [x for x in terms if x.any()] or terms[:1]  # an all-zero term adds exactly
        g = _gamma(n + len(terms) - 1)
        x, radius = sum(terms[1:], terms[0]), g * allowance
        yield x, float((1 + FRAME_TOL) * (1 + g) * (operator_norm(x) + radius)), float((1 + g) * radius)


def spectral_gap(dec: SpectralDecomposition) -> float:
    """Smallest |1 - z*w| over non-resonant phase pairs; inf when none exist."""
    return dec._resonance.gap


def convergence_report(dec: SpectralDecomposition, p: Partition, ops, Ns,
                       engine: str = "spectral") -> ConvergenceReport:
    """Measured error against the limit, with certified bound, per horizon: on the spectral engine from the
    bound's X (no mean, no limit formed), on the others as their mean minus ``limit_operator``.  The direct
    engine's mean, like the nested one's, is of V = W diag(z) W* (``reconstruct(dec)``), not of the source U."""
    Ns = [(_check_horizon(n)) for n in Ns]
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("horizons must be strictly increasing")
    run = _engine(engine, _check_partition(p))  # refused before any contraction
    ops = _check_ops(p, ops, dec.dim)
    u = reconstruct(dec) if engine == "direct" else None  # the nested engine forms V itself
    limit = None if engine == "spectral" else limit_operator(dec, p, ops)
    rows, start = [], time.perf_counter()
    for n, (x, bound, _) in zip(Ns, _differences(dec, p, ops, Ns)):
        diff = dec.frame @ x @ dec._frame_h if limit is None else run(u, dec, p, ops, n).matrix - limit
        rows.append(ReportRow(n, operator_norm(diff), frobenius_norm(diff), bound, engine, time.perf_counter() - start))
        start = time.perf_counter()
    return ConvergenceReport(tuple(rows), spectral_gap(dec))
