"""Evaluation engines for entangled Cesaro means of unitary dynamics.

The object of interest is the k-fold average

    M_N = (1/N^k) sum_{n_1..n_k < N}  U^{n_a(1)} A_1 U^{n_a(2)} ... A_{m-1} U^{n_a(m)}

over a pair partition a of {1..m}, m = 2k.  Three engines compute it:

* ``cesaro_direct``    walks the power table of U and contracts the sum
  slot by slot, left to right (cost grows with N).
* ``cesaro_spectral``  inserts U = sum_b z_b E_b at every slot: a sum over
  block tuples t of prod_classes K_N(class phase sum) E_t1 A_1 ... E_tm,
  K_N the Cesaro kernel.  In the eigenframe W each E_b is a diagonal mask,
  so the sum is one contraction over W* A_j W (cost independent of N).
* ``cesaro_nested``    collapses innermost adjacent class pairs recursively,
  each by binary splitting of its sum over n (cost grows with log N);
  valid for non-crossing partitions only.

All three compute the same finite-N sum by different factorizations.  The
limit swaps each class's kernel table for the resonance indicator R (phase
sum equal to 1) in the same contraction; ``limit_truncated`` restricts R to
chosen phases.  Every such table, the spectral gap and the resonance pairing
read one array of class phase sums, ``spectral.phase_sums``: float turns,
and for exact phases Python-int numerators over their common denominator L,
so exact resonances and periodic zeros (a N = 0 mod L) stay exact.
``error_bound`` sums |prod K_N - prod R| times each tuple's block-chain
norm.  ``budget`` caps the entries of a widened swept tensor
for the mean and limit, and the tuple count B^m for the bound.

Classes of size other than two are supported behind ``general=True``; that
finite-dimensional extension is flagged and kept out of the default path.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .linalg import as_operator, as_vector, frobenius_norm, operator_norm, require_unitary
from .partitions import Partition, is_crossing, require_pair
from .spectral import (
    Phase,
    PhaseSums,
    SpectralDecomposition,
    antidiagonal_spectrum,
    phase_sums,
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

DIRECT_TUPLE_BUDGET = 10**8
SPECTRAL_TUPLE_BUDGET = 10**7
_SWEEP_ENTRY_BUDGET = 1 << 24  # complex entries allowed in one sweep intermediate

ENGINE_NAMES = ("direct", "spectral", "nested")


class BudgetError(ValueError):
    """Requested evaluation exceeds the configured work budget."""


@dataclass(frozen=True, eq=False)
class CesaroResult:
    matrix: np.ndarray
    engine: str
    N: int
    elapsed: float


@dataclass(frozen=True)
class ReportRow:
    N: int
    error_op: float
    error_frob: float
    certified_bound: float
    engine: str
    seconds: float


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[ReportRow, ...]
    spectral_gap: float


def _check_horizon(n) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"horizon N must be a positive integer, got {n!r}")
    return int(n)


def _check_partition(p, general: bool) -> Partition:
    if not isinstance(p, Partition):
        raise ValueError("expected a Partition")
    if not general:
        require_pair(p)
    return p


def _check_ops(p: Partition, ops, dim: int) -> list[np.ndarray]:
    ops = [as_operator(a, dim, name=f"operator {j + 1}") for j, a in enumerate(ops)]
    if len(ops) != p.m - 1:
        raise ValueError(f"partition on {p.m} slots needs {p.m - 1} operators, got {len(ops)}")
    return ops


def _first_last(p: Partition) -> tuple[list[int], list[int]]:
    """First and last slot (1-based) of each class, indexed by slot."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for pos, lab in enumerate(p.labels, start=1):
        first.setdefault(lab, pos)
        last[lab] = pos
    return (
        [first[lab] for lab in p.labels],
        [last[lab] for lab in p.labels],
    )


def kernel(phase: Phase, N) -> complex:
    """Cesaro kernel (1/N) sum_{n<N} z^n for z the given phase.

    Equals 1 at z == 1 and (1 - z^N) / (N (1 - z)) otherwise; an exact phase
    a/L takes z^N from the integer a N mod L, so periodic zeros are exact.
    Float phases use the Dirichlet form e^{i pi (N-1) t} sin(pi N t) /
    (N sin(pi t)) with t in [-1/2, 1/2), which keeps full relative accuracy
    near resonance, where 1 - z cancels.
    """
    return complex(_kernels(phase_sums([phase], 1), _check_horizon(N))[0])


def _kernels(sums: PhaseSums, N: int) -> np.ndarray:
    """``kernel`` of every phase sum in ``sums`` at horizon N."""
    t = np.where(sums.turns < 0.5, sums.turns, sums.turns - 1.0)
    # sin(pi N t) = (-1)^n sin(pi (N t - n)) with n the integer nearest N t,
    # so the kernel vanishes exactly when N t is an integer.
    n = np.round(N * t)
    with np.errstate(divide="ignore", invalid="ignore"):  # z == 1 gives 0/0, then set to 1
        ratio = np.where(n % 2, -1.0, 1.0) * np.sin(np.pi * (N * t - n)) / (N * np.sin(np.pi * t))
        angle = math.pi * (N - 1) * t
        out = np.empty(t.shape, dtype=np.complex128)
        out.real, out.imag = np.cos(angle) * ratio, np.sin(angle) * ratio
        out[t == 0.0] = 1.0
        if sums.exact.any():
            a = sums.numerators[sums.exact]
            z = np.exp(2j * np.pi * sums.turns[sums.exact])
            z_n = np.exp(2j * np.pi * (a * N % sums.denominator / sums.denominator).astype(float))
            quotient = (1.0 - z_n) / (N * (1.0 - z))
            quotient[a == 0] = 1.0
            out[sums.exact] = quotient
    return out


def mean_ergodic(u, N, unitarity_tol: float = 1e-10) -> np.ndarray:
    """(1/N) sum_{n<N} U^n, evaluated by binary splitting of the sum."""
    arr = require_unitary(u, unitarity_tol)
    N = _check_horizon(N)
    d = arr.shape[0]
    total = np.eye(d, dtype=np.complex128)  # sum over n < 1
    power = arr.copy()
    for bit in bin(N)[3:]:
        total = total + power @ total
        power = power @ power
        if bit == "1":
            total = total + power
            power = power @ arr
    return total / N


def _max_open_axes(p: Partition, first: list[int], last: list[int]) -> int:
    open_count = 0
    worst = 0
    for pos in range(1, p.m + 1):
        idx = pos - 1
        if first[idx] == pos and last[idx] != pos:
            open_count += 1
        worst = max(worst, open_count)
        if last[idx] == pos and first[idx] != pos:
            open_count -= 1
    return worst


def cesaro_direct(u, p: Partition, ops, N, *, general: bool = False,
                  budget: int = DIRECT_TUPLE_BUDGET) -> CesaroResult:
    """Finite-N entangled mean from the power table of U.

    The sum over index tuples is contracted slot by slot: each class opens an
    axis of size N at its first slot and is summed out at its last slot.  The
    contraction path is fixed, so results are reproducible bit for bit.
    """
    start = time.perf_counter()
    arr = as_operator(u, name="unitary")
    p = _check_partition(p, general)
    ops = _check_ops(p, ops, arr.shape[0])
    N = _check_horizon(N)
    d = arr.shape[0]
    if N**p.k > budget:
        raise BudgetError(f"direct engine: N^k = {N**p.k:.3e} exceeds budget {budget:.1e}")
    first, last = _first_last(p)
    peak = max(_max_open_axes(p, first, last), 1)
    if (N**peak) * d * d > _SWEEP_ENTRY_BUDGET:
        raise BudgetError("direct engine: sweep intermediate exceeds the memory budget")

    powers = np.empty((N, d, d), dtype=np.complex128)
    powers[0] = np.eye(d)
    for n in range(1, N):
        powers[n] = powers[n - 1] @ arr
    power_sum = powers.sum(axis=0)

    letters = iter("abcdefghijklmnopqrstuvw")
    open_axes: list[tuple[int, str]] = []  # (class label, axis letter), in axis order
    tensor = None
    for pos, lab in enumerate(p.labels, start=1):
        idx = pos - 1
        if tensor is not None:
            tensor = tensor @ ops[pos - 2]
        if tensor is None:
            if first[idx] == last[idx]:
                tensor = power_sum
            else:
                tensor = powers
                open_axes.append((lab, next(letters)))
            continue
        base = "".join(l for _, l in open_axes)
        open_labels = [c for c, _ in open_axes]
        if lab not in open_labels:
            if first[idx] == last[idx]:
                tensor = np.einsum(f"{base}xy,yz->{base}xz", tensor, power_sum)
            else:
                ell = next(letters)
                tensor = np.einsum(f"{base}xy,{ell}yz->{base}{ell}xz", tensor, powers)
                open_axes.append((lab, ell))
        else:
            ell = open_axes[open_labels.index(lab)][1]
            if pos == last[idx]:
                out = "".join(l for c, l in open_axes if c != lab)
                tensor = np.einsum(f"{base}xy,{ell}yz->{out}xz", tensor, powers)
                open_axes.pop(open_labels.index(lab))
            else:
                tensor = np.einsum(f"{base}xy,{ell}yz->{base}xz", tensor, powers)
    matrix = tensor / float(N) ** p.k
    return CesaroResult(matrix, "direct", N, time.perf_counter() - start)


def _class_tables(dec: SpectralDecomposition, p: Partition, weight) -> list[np.ndarray]:
    """Per class, ``weight`` of the ``PhaseSums`` of the class's size: one entry per block tuple.

    Axis j of a class's table is the block at the class's j-th slot; classes
    of equal size share one table.
    """
    sizes = [p.labels.count(lab) for lab in range(1, p.k + 1)]
    by_size = {size: weight(phase_sums(dec.phases, size)) for size in set(sizes)}
    return [by_size[size] for size in sizes]


def _kernel_tables(dec: SpectralDecomposition, p: Partition, N: int) -> list[np.ndarray]:
    return _class_tables(dec, p, lambda sums: _kernels(sums, N))


def _resonance_tables(dec: SpectralDecomposition, p: Partition, resonance_tol) -> list[np.ndarray]:
    tol = dec.tolerances.resonance if resonance_tol is None else resonance_tol
    resonant_partners(dec, tol)  # rejects a tolerance that pairs phases ambiguously
    return _class_tables(dec, p, lambda sums: sums.resonant(tol).astype(float))


def _contract(dec: SpectralDecomposition, p: Partition, ops, tables, budget: int) -> np.ndarray:
    """Sum over block tuples t of prod_c tables[c][t_c] E_t1 A_1 E_t2 ... A_{m-1} E_tm.

    In the frame W each E_b is the diagonal 0/1 mask ``blocks == b``, so the
    sum is W M~ W* with M~ swept over A~_j = W* A_j W slot by slot, left to
    right, as ``cesaro_direct`` sweeps the power table.  The block at slot 1
    is the row's block.  Every later slot of a class that stays open widens
    the class's block axis by B in the product with the next operator, one
    block of columns at a time; the class's last slot contracts that axis
    against the class table.  ``budget`` caps the entries of a widened tensor.
    """
    first, last = _first_last(p)
    blk = dec.blocks
    d, B = dec.dim, len(dec.entries)
    cols = [np.flatnonzero(blk == b) for b in range(B)]
    frame_ops = [dec.frame.conj().T @ a @ dec.frame for a in ops]
    tensor = np.eye(d, dtype=np.complex128)
    open_labels: list[int] = []  # class of each block axis, in axis order
    for pos, lab in enumerate(p.labels, start=1):
        idx = pos - 1
        if pos > 1:
            a = frame_ops[pos - 2]
            if pos > 2 and last[pos - 2] != pos - 1:
                if tensor.size * B > budget:
                    raise BudgetError(f"spectral engine: {tensor.size * B:.3e} entries "
                                      f"exceed budget {budget:.1e}")
                axis = open_labels.index(p.labels[pos - 2])
                shape = list(tensor.shape)
                shape[axis] *= B
                parts = [tensor[..., c] @ a[c] for c in cols]
                tensor = np.stack(parts, axis=axis + 1).reshape(shape)
            else:
                tensor = tensor @ a
        table = tables[lab - 1]
        if first[idx] == pos and last[idx] == pos:
            tensor = tensor * table[blk]
        elif first[idx] == pos:
            open_labels.append(lab)
            tensor = tensor[..., None, :, :]
        elif last[idx] == pos:
            axis = open_labels.index(lab)
            if first[idx] == 1:
                lift = table[blk].reshape(d, -1, B)[..., blk].transpose(1, 0, 2)
            else:
                lift = table.reshape(-1, 1, B)[..., blk]
            later = len(open_labels) - 1 - axis
            lift = lift.reshape(lift.shape[:1] + (1,) * later + lift.shape[1:])
            tensor = (tensor * lift).sum(axis=axis)
            open_labels.pop(axis)
    return dec.frame @ tensor @ dec.frame.conj().T


def _chain_norms(dec: SpectralDecomposition, p: Partition, ops, budget: int) -> np.ndarray:
    """||E_t1 A_1 E_t2 ... A_{m-1} E_tm|| for every block tuple t, shape (B,)*m.

    Each chain's norm is that of the product of the r_b x r_c frame blocks of
    A~_j = W* A_j W along t, zero-padded to the largest rank.  The tuples are
    extended one slot at a time, so every prefix product is formed once.
    """
    B, blk = len(dec.entries), dec.blocks
    if B**p.m > budget:
        raise BudgetError(f"spectral engine: B^m = {B**p.m:.3e} exceeds budget {budget:.1e}")
    within = np.empty(dec.dim, dtype=int)  # position of each column inside its block
    for b in range(B):
        within[blk == b] = np.arange(np.count_nonzero(blk == b))
    r = int(within.max()) + 1
    chain = np.zeros((B, r, r), dtype=np.complex128)  # E_t1 alone: identity blocks
    chain[blk, within, within] = 1.0
    for a in ops:
        blocks = np.zeros((B, B, r, r), dtype=np.complex128)
        blocks[blk[:, None], blk[None, :], within[:, None], within[None, :]] = (
            dec.frame.conj().T @ a @ dec.frame
        )
        chain = chain[..., None, :, :] @ blocks
    if r == 1:  # every chain is 1 x 1
        return np.abs(chain[..., 0, 0])
    return np.linalg.norm(chain, 2, axis=(-2, -1))


def _spread(p: Partition, tables) -> np.ndarray:
    """Product over classes of the class tables, broadcast to one axis per slot."""
    total = np.ones((1,) * p.m)
    for lab, table in enumerate(tables, start=1):
        total = total * table.reshape([table.shape[0] if l == lab else 1 for l in p.labels])
    return total


def cesaro_spectral(dec: SpectralDecomposition, p: Partition, ops, N, *,
                    general: bool = False, budget: int = SPECTRAL_TUPLE_BUDGET) -> CesaroResult:
    """Finite-N entangled mean as a kernel-weighted sum over projection tuples.

    Mathematically identical to ``cesaro_direct`` for every N; the cost does
    not depend on N.  ``budget`` caps the entries of the swept tensor.
    """
    start = time.perf_counter()
    p = _check_partition(p, general)
    ops = _check_ops(p, ops, dec.dim)
    N = _check_horizon(N)
    matrix = _contract(dec, p, ops, _kernel_tables(dec, p, N), budget)
    return CesaroResult(matrix, "spectral", N, time.perf_counter() - start)


def cesaro_nested(dec: SpectralDecomposition, p: Partition, ops, N) -> CesaroResult:
    """Entangled mean by collapsing innermost adjacent class pairs.

    Each collapse replaces U^n A U^n (both slots driven by the same index) by
    its plain Cesaro average and merges the neighbors.  Finite sums over
    independent indices factor exactly, so this agrees with ``cesaro_direct``
    up to rounding, but it is only defined for non-crossing pair partitions.
    """
    start = time.perf_counter()
    p = _check_partition(p, general=False)
    if is_crossing(p):
        raise ValueError("nested engine requires a non-crossing pair partition")
    ops = _check_ops(p, ops, dec.dim)
    N = _check_horizon(N)
    u = reconstruct(dec)
    eye = np.eye(dec.dim, dtype=np.complex128)
    chain: list[np.ndarray] = [eye, *ops, eye]
    labels = list(p.labels)
    while labels:
        pair_at = next(i for i in range(len(labels) - 1) if labels[i] == labels[i + 1])
        mid = chain[pair_at + 1]
        # Binary splitting of sum_{n<N} U^n mid U^n, as in mean_ergodic.
        total = mid
        power = u
        for bit in bin(N)[3:]:
            total = total + power @ total @ power
            power = power @ power
            if bit == "1":
                total = total + power @ mid @ power
                power = power @ u
        merged = chain[pair_at] @ (total / N) @ chain[pair_at + 2]
        chain = chain[:pair_at] + [merged] + chain[pair_at + 3 :]
        labels = labels[:pair_at] + labels[pair_at + 2 :]
    return CesaroResult(chain[0], "nested", N, time.perf_counter() - start)


def limit_truncated(dec: SpectralDecomposition, p: Partition, ops, phases,
                    resonance_tol: float | None = None) -> np.ndarray:
    """Partial limit sum restricted to class phases drawn from ``phases``.

    Every element of ``phases`` must lie in the antidiagonal spectrum.  The
    first slot of each class carries the conjugate projection, the second the
    plain one.  With the full antidiagonal spectrum this is the limit
    operator itself, bit for bit.
    """
    require_pair(p)
    ops = _check_ops(p, ops, dec.dim)
    partners = resonant_partners(dec, resonance_tol)
    index_of = {line.phase: b for b, line in enumerate(dec.entries)}
    chosen = np.zeros(len(dec.entries))
    for ph in phases:
        b = index_of.get(ph)
        if b is None or partners[b] is None:
            raise ValueError(f"phase {ph} is not in the antidiagonal spectrum")
        chosen[b] = 1.0
    # R_S[b, c] = [c in S and partners[c] == b]: the mask acts on the last slot.
    tables = [table * chosen for table in _resonance_tables(dec, p, resonance_tol)]
    return _contract(dec, p, ops, tables, SPECTRAL_TUPLE_BUDGET)


def limit_operator(dec: SpectralDecomposition, p: Partition, ops,
                   resonance_tol: float | None = None, *, general: bool = False,
                   budget: int = SPECTRAL_TUPLE_BUDGET) -> np.ndarray:
    """Limit of the entangled mean: the sum over resonant block tuples."""
    p = _check_partition(p, general)
    ops = _check_ops(p, ops, dec.dim)
    return _contract(dec, p, ops, _resonance_tables(dec, p, resonance_tol), budget)


def form_value(dec: SpectralDecomposition, p: Partition, ops, x, y,
               phases=None, resonance_tol: float | None = None) -> complex:
    """Sesquilinear form <S^F x, y> of the (truncated) limit operator."""
    x = as_vector(x, dec.dim, name="x")
    y = as_vector(y, dec.dim, name="y")
    if phases is None:
        phases = antidiagonal_spectrum(dec, resonance_tol)
    s = limit_truncated(dec, p, ops, phases, resonance_tol)
    return complex(np.vdot(y, s @ x))


def error_bound(dec: SpectralDecomposition, p: Partition, ops, N,
                resonance_tol: float | None = None, *, general: bool = False,
                budget: int = SPECTRAL_TUPLE_BUDGET) -> float:
    """Certified bound on the operator-norm distance of M_N from the limit.

    Sums |kernel product - resonance indicator| times the operator norm of
    the block chain over all B^m block tuples (``budget`` caps B^m); by the
    triangle inequality this dominates the true error of the spectral
    representation.
    """
    return error_bounds(dec, p, ops, [N], resonance_tol, general=general, budget=budget)[0]


def error_bounds(dec: SpectralDecomposition, p: Partition, ops, Ns,
                 resonance_tol: float | None = None, *, general: bool = False,
                 budget: int = SPECTRAL_TUPLE_BUDGET) -> list[float]:
    """``error_bound`` at every horizon in ``Ns``; the N-independent chain norms are built once."""
    p = _check_partition(p, general)
    ops = _check_ops(p, ops, dec.dim)
    Ns = [_check_horizon(n) for n in Ns]
    norms = _chain_norms(dec, p, ops, budget)
    resonance = _spread(p, _resonance_tables(dec, p, resonance_tol))
    return [float(np.sum(np.abs(_spread(p, _kernel_tables(dec, p, n)) - resonance) * norms))
            for n in Ns]


def spectral_gap(dec: SpectralDecomposition, resonance_tol: float | None = None) -> float:
    """Smallest |1 - z*w| over non-resonant phase pairs; inf when none exist."""
    partners = resonant_partners(dec, resonance_tol)
    gaps = phase_sums(dec.phases, 2).distances()
    for b, c in enumerate(partners):
        if c is not None:
            gaps[b, c] = np.inf
    return float(gaps.min())


def convergence_report(dec: SpectralDecomposition, p: Partition, ops, Ns,
                       engine: str = "spectral", resonance_tol: float | None = None, *,
                       general: bool = False) -> ConvergenceReport:
    """Measured error against the limit, with certified bound, per horizon."""
    Ns = [(_check_horizon(n)) for n in Ns]
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("horizons must be strictly increasing")
    if engine not in ENGINE_NAMES:
        raise ValueError(f"unknown engine {engine!r}, expected one of {ENGINE_NAMES}")
    p = _check_partition(p, general)
    ops = _check_ops(p, ops, dec.dim)
    limit = limit_operator(dec, p, ops, resonance_tol, general=general)
    gap = spectral_gap(dec, resonance_tol)
    bounds = error_bounds(dec, p, ops, Ns, resonance_tol, general=general)
    source = reconstruct(dec) if engine == "direct" else None
    rows = []
    for n, bound in zip(Ns, bounds):
        if engine == "direct":
            result = cesaro_direct(source, p, ops, n, general=general)
        elif engine == "spectral":
            result = cesaro_spectral(dec, p, ops, n, general=general)
        else:
            result = cesaro_nested(dec, p, ops, n)
        diff = result.matrix - limit
        rows.append(ReportRow(
            N=n,
            error_op=operator_norm(diff),
            error_frob=frobenius_norm(diff),
            certified_bound=bound,
            engine=engine,
            seconds=result.elapsed,
        ))
    return ConvergenceReport(tuple(rows), gap)
