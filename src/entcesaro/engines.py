"""Evaluation engines for entangled Cesaro means of unitary dynamics.

The object of interest is the k-fold average

    M_N = (1/N^k) sum_{n_1..n_k < N}  U^{n_a(1)} A_1 U^{n_a(2)} ... A_{m-1} U^{n_a(m)}

over a pair partition a of {1..m}, m = 2k.  Three engines compute it:

* ``cesaro_direct``    walks the power table of U and contracts the sum
  slot by slot, left to right (cost grows with N); a pair on adjacent slots
  is summed into one d x d factor, so it holds no index axis.
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
class phase sums (``spectral.PhaseSums``): float turns, and for exact
phases Python-int numerators over their common denominator L, so exact
resonances and periodic zeros (a N = 0 mod L) stay exact.  The
decomposition records these tables and the padded frame W_p (every block
zero-padded to the largest rank r) on first use: a horizon forms only the
N-dependent factors of its kernel table, and the resonance table is checked
and formed once, at ``dec.tolerances.resonance``.

The mean, the limit, the truncated limit and the certified bound share one
contraction core, ``_contract``, of the stacked slot matrices
S_j = W_p* A_j W_p (shape (m-1, D, D), B blocks of r columns, D = B r) and
the class tables; it returns the sum in the frame (zero, with no product,
when a table is all zero), and each call forms every S_j in one batched
product.  Telescoped over the classes, prod K_N - prod R gives k
contractions X_l whose sum S has M_N - L = W_p S W_p*: ``error_bound`` is
its norm plus a rounding allowance, and the spectral ``convergence_report``
reads its error from that sum.

Each engine has one memoized plan that its memory check and its loop both
read.  ``_network`` plans ``_contract`` per (partition, B, r) as one tensor
network: S_j on the block and position indices of slots j and j+1, each
class table on the blocks of its slots.  numpy's greedy ``einsum_path``
orders it once, whatever the cap, and each pairwise step is one
transpose and reshape per operand and one matrix product.  ``_direct_plan``
gives ``cesaro_direct``'s steps per partition (operator, factor, einsum
subscripts) and the most index axes held at once.  Module constants, read
at every call, cap the entries of the largest planned tensor: any step's
operand or result for the mean, the limits and the bound
(``SPECTRAL_ENTRY_BUDGET``), N^h d^2 for h index axes held by ``cesaro_direct``
(``_SWEEP_ENTRY_BUDGET``).
"""

from __future__ import annotations

import math
import sys
import time
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .linalg import _gamma, as_operator, as_vector, frobenius_norm, operator_norm, require_unitary
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
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"  # einsum's index names


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


def _check_horizon(n) -> int:
    # The kernels take N to a float, so N must lie within the float range.
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or not 1 <= n <= sys.float_info.max:
        raise ValueError(f"horizon N must be a positive integer no larger than the largest float, got {n!r}")
    return int(n)


def _check_partition(p) -> Partition:
    if not isinstance(p, Partition):
        raise ValueError("expected a Partition")
    return p


def _check_ops(p: Partition, ops, dim: int) -> np.ndarray:
    """The operators as one complex stack of shape (m - 1, dim, dim), checked at once.

    Only when the stack fails its shape or finiteness check are the operators checked one by one,
    for a message that names the first bad one.
    """
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

    Equals 1 at z == 1 and otherwise, float or exact, the Dirichlet form
    e^{i pi (N-1) t} sin(pi N t) / (N sin(pi t)) with t in [-1/2, 1/2), accurate
    near resonance, where 1 - z cancels.  An exact phase c/L reduces N t and
    (N - 1) t from the integers N c and (N - 1) c, so periodic zeros are exact
    and its kernel stays finite up to the largest float horizon.
    """
    return complex(_summands_of([phase]).kernels(_check_horizon(N))[0])


def mean_ergodic(u, N) -> np.ndarray:
    """(1/N) sum_{n<N} U^n, evaluated by binary splitting of the sum; U is gated at ``Tolerances().unitarity``."""
    arr, _ = require_unitary(u, Tolerances().unitarity)
    N = _check_horizon(N)
    eye = np.eye(arr.shape[0], dtype=np.complex128)
    return _power_sum(arr, eye, eye, N) / N


def _power_sum(left: np.ndarray, mid: np.ndarray, right: np.ndarray, N: int) -> np.ndarray:
    """sum_{n<N} left^n mid right^n by binary splitting: the sum over n < 2c is the sum over n < c plus
    left^c times it times right^c, and a set bit of N then adds the term n = 2c."""
    total, power_l, power_r = mid, left, right  # the sum over n < 1, and the powers c = 1
    for bit in bin(N)[3:]:
        total = total + power_l @ total @ power_r
        power_l, power_r = power_l @ power_l, power_r @ power_r
        if bit == "1":
            total = total + power_l @ mid @ power_r
            power_l, power_r = power_l @ left, power_r @ right
    return total


class _DirectStep(NamedTuple):
    """One step of ``cesaro_direct``'s sweep: multiply the tensor by ``ops[op]``, then take in the factor.

    The factor is the power table ("powers", one index axis of size N) or a pair on adjacent slots,
    sum_n U^n ops[op + 1] U^n ("pair").  The first step (op = -1) starts the tensor from its factor.
    """

    op: int
    factor: str
    subscripts: str  # the einsum of (tensor, factor)


@lru_cache(maxsize=64)
def _direct_plan(p: Partition) -> tuple[tuple[_DirectStep, ...], tuple[tuple[int, ...], ...]]:
    """``cesaro_direct``'s steps, and the index axes of the arrays its sweep holds at once, one tuple
    per point where its holdings peak.

    Each class opens an axis of size N at its first slot and is summed out at its last; a pair on
    adjacent slots (both slots in one step) opens none.  The power table (one axis) is held
    throughout.  A step after the first holds its input tensor (unless that is the power table
    itself), then adds that tensor times the operator and the einsum output; a pair's factor is
    formed first, through two products with the power table.
    """
    pairs = p.class_pairs
    letters = iter("abcdefghijklmnopqrstuvw")
    axes: dict[int, str] = {}  # the letter of each open class's axis, in axis order
    steps = []
    loads = []
    pos = 1
    while pos <= p.m:
        lab = p.labels[pos - 1]
        base, ell = "".join(axes.values()), ""
        if pairs[lab - 1] == (pos, pos + 1):
            factor = "pair"
        else:
            factor = "powers"
            if lab not in axes:
                axes[lab] = next(letters)
            ell = axes[lab]
            if pos == pairs[lab - 1][1]:
                del axes[lab]
        out = "".join(axes.values())
        # The tensor the step starts from: none for the first, and after a first step that opened an
        # axis it is the power table itself, already counted.
        tensor = (len(base),) if steps and (len(steps) > 1 or steps[0].factor != "powers") else ()
        if factor == "pair":  # the pair's two products with the power table
            loads.append((1, *tensor, 1, 1))
        # Then the tensor times the operator and the einsum output; the first step's output is its factor.
        loads.append((1, *tensor, *((len(base), len(out)) if steps else ())))
        steps.append(_DirectStep(pos - 2, factor, f"{base}xy,{ell}yz->{out}xz"))
        pos += 2 if factor == "pair" else 1
    return tuple(steps), tuple(loads)


def _direct_entries(p: Partition, N: int, d: int) -> int:
    """Entries ``cesaro_direct`` plans to hold at once at its peak: the largest sum of N^h d^2 over the
    arrays held at one point of the sweep, h the index axes of each (``_direct_plan``)."""
    return max(sum(N**h for h in load) for load in _direct_plan(p)[1]) * d * d


def cesaro_direct(u, p: Partition, ops, N) -> CesaroResult:
    """Finite-N entangled mean from the power table of U.

    The sum over index tuples is contracted slot by slot: each class opens an
    axis of size N at its first slot and is summed out at its last slot.  A
    pair on adjacent slots opens none: its sum_n U^n A U^n is one d x d factor.
    The contraction path is fixed per partition (``_direct_plan``), so results
    are reproducible bit for bit.  ``_SWEEP_ENTRY_BUDGET`` caps the entries of
    the arrays the sweep holds at once: the power table, and at each step the tensor,
    its product with the operator and the einsum output, each N^h d^2 for h
    index axes (``_direct_entries``).
    """
    start = time.perf_counter()
    arr = as_operator(u, name="unitary")
    p = _check_partition(p)
    ops = _check_ops(p, ops, arr.shape[0])
    N = _check_horizon(N)
    d = arr.shape[0]
    steps, _ = _direct_plan(p)
    entries = _direct_entries(p, N, d)
    if entries > _SWEEP_ENTRY_BUDGET:
        shown = f"{entries:.3e}" if entries <= sys.float_info.max else f"more than {sys.float_info.max:.3e}"
        raise BudgetError(f"direct engine: planned peak of {shown} entries exceeds the memory budget "
                          f"{_SWEEP_ENTRY_BUDGET}")

    powers = np.empty((N, d, d), dtype=np.complex128)
    powers[0] = np.eye(d)
    for n in range(1, N):
        powers[n] = powers[n - 1] @ arr
    tensor = None
    for step in steps:
        factor = (powers @ ops[step.op + 1] @ powers).sum(axis=0) if step.factor == "pair" else powers
        tensor = factor if tensor is None else np.einsum(step.subscripts, tensor @ ops[step.op], factor)
    matrix = tensor / float(N) ** p.k
    return CesaroResult(matrix, "direct", N, time.perf_counter() - start)


@lru_cache(maxsize=64)
def _network(p: Partition, B: int, r: int) -> tuple[tuple[tuple, ...], tuple[int, ...], int]:
    """The plan of ``_contract`` for the block layout (B, r): its pairwise steps, the axis order that
    takes the last result to (row, column), and the planned peak, the entry count of the largest
    tensor any step forms (at least D^2, one slot matrix).

    Column c = (block b, position i) of slot j is a pair of indices (b_j, i_j): S_j sits on
    (b_j, i_j, b_{j+1}, i_{j+1}), each class table on the b of its slots, the result on
    (b_1, i_1, b_m, i_m); axes of size 1 (i when r = 1, b when B = 1) are left out.  numpy's greedy
    ``einsum_path``, with no memory limit, orders the network once; a step of more than two
    operands is taken pairwise.  A step (x, y, ...) transposes and groups operands x and y to
    (kept, x only, summed) and (kept, summed, y only), multiplies them, and appends the result,
    axes (kept, x only, y only), to the operand list.
    """
    needed = p.m * ((B > 1) + (r > 1))  # einsum names each index by one letter
    if needed > len(_LETTERS):
        raise ValueError(f"spectral engine: a partition on {p.m} slots needs {needed} indices, more than 52")
    letters = iter(_LETTERS)
    block = [next(letters) if B > 1 else "" for _ in range(p.m)]
    place = [next(letters) if r > 1 else "" for _ in range(p.m)]
    size = dict.fromkeys(block, B) | dict.fromkeys(place, r)
    terms = [block[j] + place[j] + block[j + 1] + place[j + 1] for j in range(p.m - 1)]
    terms += [block[i - 1] + block[j - 1] for i, j in p.class_pairs]
    output = block[0] + place[0] + block[-1] + place[-1]
    shapes = [np.broadcast_to(0.0, [size[c] for c in term]) for term in terms]  # no entries
    path = np.einsum_path(",".join(terms) + "->" + output, *shapes, optimize=("greedy", sys.maxsize))[0]

    def count(cs):
        return math.prod(size[c] for c in cs)

    live, steps = list(range(len(terms))), []
    peak = (B * r) ** 2
    for group in path[1:]:
        ids = [live[i] for i in sorted(group)]
        live = [t for t in live if t not in ids]
        x = ids.pop(0)
        while ids:  # numpy's step, taken pairwise from the left
            y = ids.pop(0)
            xs, ys = terms[x], terms[y]
            later = "".join(terms[t] for t in live + ids) + output
            kept = [c for c in xs if c in ys and c in later]
            summed = [c for c in xs if c in ys and c not in later]
            x_only = [c for c in xs if c not in ys]
            y_only = [c for c in ys if c not in xs]
            terms.append("".join(kept + x_only + y_only))
            steps.append((x, y,
                          tuple(map(xs.index, kept + x_only + summed)), (count(kept), count(x_only), count(summed)),
                          tuple(map(ys.index, kept + summed + y_only)), (count(kept), count(summed), count(y_only)),
                          tuple(size[c] for c in terms[-1]), bool(summed)))
            peak = max(peak, count(xs), count(ys), count(terms[-1]))
            x = len(terms) - 1
        live.append(x)
    return tuple(steps), tuple(map(terms[-1].index, output)), peak


def _contract(p: Partition, slots: np.ndarray, B: int, r: int, tables) -> np.ndarray:
    """Sum over block tuples t of prod_c tables[c][t_c] P_t1 S_1 P_t2 ... S_{m-1} P_tm.

    ``slots`` stacks the slot matrices S_j = W_p* A_j W_p, shape (m - 1, D, D), in a padded frame
    W_p of B blocks with r columns each (D = B r, zero beyond a block's rank): column c is (block
    b, position i), and P_b is the projection onto block b's columns.  The result is the summed
    matrix in that frame; W_p (result) W_p* is the sum in the original basis.  The steps are those
    ``_network`` planned, after the planned peak is checked against ``SPECTRAL_ENTRY_BUDGET``; an all-zero table
    gives the zero matrix with no product.
    """
    steps, order, peak = _network(p, B, r)
    if peak > SPECTRAL_ENTRY_BUDGET:
        raise BudgetError(f"spectral engine: planned peak of {peak:.3e} entries exceeds budget "
                          f"{SPECTRAL_ENTRY_BUDGET}")
    if not all(table.any() for table in tables):  # an all-zero table gives a zero sum
        return np.zeros((B * r, B * r), np.result_type(slots, *tables))
    operands = [*slots.reshape(p.m - 1, *(n for n in (B, r, B, r) if n > 1))]
    operands += [table.reshape([n for n in table.shape if n > 1]) for table in tables]
    for x, y, x_order, x_grouped, y_order, y_grouped, shape, summed in steps:
        a = operands[x].transpose(x_order).reshape(x_grouped)
        b = operands[y].transpose(y_order).reshape(y_grouped)
        operands[x] = operands[y] = None
        operands.append((a @ b if summed else a * b).reshape(shape))
    return operands[-1].transpose(order).reshape(B * r, B * r)


def _slot_matrices(dec: SpectralDecomposition, ops: np.ndarray) -> tuple[np.ndarray, int, int]:
    """W_p* A_j W_p for the stack of operators in the decomposition's padded frame, and its (B, r)."""
    frame, frame_h = dec._padded
    B = len(dec.spectrum.turns)
    return frame_h @ ops @ frame, B, frame.shape[1] // B


def _spectral_sum(dec: SpectralDecomposition, p: Partition, ops: np.ndarray, tables) -> np.ndarray:
    """``_contract`` over the decomposition's padded frame, taken back to the original basis."""
    frame, frame_h = dec._padded
    return frame @ _contract(p, *_slot_matrices(dec, ops), tables) @ frame_h


def cesaro_spectral(dec: SpectralDecomposition, p: Partition, ops, N) -> CesaroResult:
    """Finite-N entangled mean as a kernel-weighted sum over projection tuples.

    Mathematically identical to ``cesaro_direct`` for every N; the cost does
    not depend on N.  ``SPECTRAL_ENTRY_BUDGET`` caps the entries of the largest
    tensor the planned contraction forms, at least those of one slot matrix.
    """
    start = time.perf_counter()
    p = _check_partition(p)
    ops = _check_ops(p, ops, dec.dim)
    N = _check_horizon(N)
    matrix = _spectral_sum(dec, p, ops, [dec._pair_sums.kernels(N)] * p.k)
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
    p = _check_partition(p)
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
    tables = [dec._resonance.table * chosen] * p.k
    return _spectral_sum(dec, p, ops, tables)


def limit_operator(dec: SpectralDecomposition, p: Partition, ops) -> np.ndarray:
    """Limit of the entangled mean: the sum over resonant block tuples."""
    p = _check_partition(p)
    ops = _check_ops(p, ops, dec.dim)
    return _spectral_sum(dec, p, ops, [dec._resonance.table] * p.k)


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
    M_N - L = W_p S W_p* for S = sum_l X_l, X_l the contraction with K - R at class l, R before it and K after.
    The bound is (1 + FRAME_TOL)(1 + g)(||X||_2 + g sum_l ||Y_l||_F) for X the computed S.  Rounding: each
    product summed into an entry of X_l meets at most n = 2 d + 4 m + the planned steps' summed lengths
    roundings, so |fl(X_l) - X_l| <= g_n Y_l entrywise for g_n = n eps / (1 - n eps), Y_l the contraction
    over |W_p*| |A_j| |W_p| with the tables' magnitudes (at a float resonance, where K - 1 cancels, its table
    at class l also holds |K|).  Summing the j terms that are not all zero adds j - 1 roundings (an all-zero
    term adds exactly), so |X - S| <= g sum_l Y_l for g = g_{n+j-1}, and ||S||_2 <= ||X||_2 + g sum_l ||Y_l||_F;
    1 + g allows for the rounding of the norms and of Y_l.  Identity dynamics give 0.0; with no resonance,
    X_1 = W_p* M_N W_p is the one term.
    """
    return error_bounds(dec, p, ops, [N])[0]


def error_bounds(dec: SpectralDecomposition, p: Partition, ops, Ns) -> list[float]:
    """``error_bound`` at every horizon in ``Ns``; the slot matrices are formed once."""
    p = _check_partition(p)
    ops = _check_ops(p, ops, dec.dim)
    return [bound for _, bound, _ in _differences(dec, p, ops, [_check_horizon(n) for n in Ns])]


def _differences(dec: SpectralDecomposition, p: Partition, ops: np.ndarray, Ns):
    """Per horizon in ``Ns`` (arguments checked), X = fl(sum_l X_l), the computed S = sum_l X_l with
    M_N - L = W_p S W_p* in the padded frame, ``error_bound`` at N, and the radius (1 + g) g sum_l ||Y_l||_F
    >= ||S - X||_2 of ``error_bound``'s proof; one horizon at a time, each from its kept kernel table."""
    slots, B, r = _slot_matrices(dec, ops)
    abs_slots = np.abs(dec._padded[1]) @ np.abs(ops) @ np.abs(dec._padded[0])
    n = 2 * dec.dim + 4 * p.m + sum(step[3][2] for step in _network(p, B, r)[0])  # step[3][2]: its summed length
    resonance = dec._resonance.table
    floating = resonance * (dec._pair_sums.turns != 0.0)  # resonant with K != 1, so K - 1 cancels
    for N in Ns:
        kernels = dec._pair_sums.kernels(N)
        abs_kernels = abs(kernels)
        terms, allowance = [], 0.0
        for c in range(p.k):  # X_c: K - R at class c, R before it and K after
            tables = [resonance] * c + [kernels - resonance] + [kernels] * (p.k - 1 - c)
            abs_tables = [resonance] * c + [abs(tables[c]) + floating * abs_kernels] + [abs_kernels] * (p.k - 1 - c)
            terms.append(_contract(p, slots, B, r, tables))
            allowance += frobenius_norm(_contract(p, abs_slots, B, r, abs_tables))
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
    frame, frame_h = dec._padded
    u = reconstruct(dec) if engine == "direct" else None  # the nested engine forms V itself
    limit = None if engine == "spectral" else limit_operator(dec, p, ops)
    rows, start = [], time.perf_counter()
    for n, (x, bound, _) in zip(Ns, _differences(dec, p, ops, Ns)):
        diff = frame @ x @ frame_h if limit is None else run(u, dec, p, ops, n).matrix - limit
        rows.append(ReportRow(n, operator_norm(diff), frobenius_norm(diff), bound, engine, time.perf_counter() - start))
        start = time.perf_counter()
    return ConvergenceReport(tuple(rows), spectral_gap(dec))
