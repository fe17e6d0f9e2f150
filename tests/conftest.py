"""Shared test helpers: independent brute-force oracles and system builders."""

import cmath
import functools
import importlib.util
import itertools
import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

# The package under test is the one ``import entcesaro`` finds (an installed package, or the tree on
# PYTHONPATH); the checkout's src/ is used only when there is none.
if importlib.util.find_spec("entcesaro") is None:
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from entcesaro.partitions import Partition  # noqa: E402


def brute_force_mean(u, partition, ops, N):
    """Literal tuple loop for the entangled mean; the engines' oracle.

    Kept deliberately naive: powers by repeated multiplication, one full
    matrix product per index tuple, no shared work with the engines.
    """
    d = u.shape[0]
    powers = [np.eye(d, dtype=complex)]
    for _ in range(N - 1):
        powers.append(powers[-1] @ u)
    k = partition.k
    total = np.zeros((d, d), dtype=complex)
    counters = [0] * k
    while True:
        term = powers[counters[partition.labels[0] - 1]].copy()
        for slot in range(1, partition.m):
            term = term @ ops[slot - 1] @ powers[counters[partition.labels[slot] - 1]]
        total += term
        pos = k - 1
        while pos >= 0:
            counters[pos] += 1
            if counters[pos] < N:
                break
            counters[pos] = 0
            pos -= 1
        if pos < 0:
            break
    return total / N**k


def _class_blocks(partition, blocks):
    """Blocks at the slots of each class, in slot order, keyed by class label."""
    out = {}
    for lab, b in zip(partition.labels, blocks):
        out.setdefault(lab, []).append(b)
    return out.values()


def exact_sum(phases):
    """The sum of ``phases`` mod 1 as a ``Fraction``: an exact phase's ``frac``, a float phase's ``turns``
    read as the dyadic rational it holds."""
    return sum((Fraction(ph.turns if ph.frac is None else ph.frac) for ph in phases), Fraction(0)) % 1


def phase_sum(phases):
    """The sum of ``phases`` as (turns, frac): turns is ``exact_sum`` rounded to a float, with 1.0 read as
    0.0, and frac that sum when every summand is exact, else None.

    Only the ``turns`` and ``frac`` fields of each phase are read.
    """
    phases = list(phases)
    total = exact_sum(phases)
    turns = float(total)
    return (0.0 if turns == 1.0 else turns), (total if all(ph.frac is not None for ph in phases) else None)


def phase_value(turns, frac):
    """e^{2 pi i turns}, exactly 1 for an exact phase 0."""
    return 1.0 + 0.0j if frac == 0 else cmath.exp(2j * math.pi * turns)


def resonates(turns, frac, tol):
    """Whether the phase is 1 on the circle: frac 0 when exact, |e^{2 pi i turns} - 1| <= tol otherwise."""
    if frac is not None:
        return frac == 0
    return abs(phase_value(turns, frac) - 1.0) <= tol


def projections(dec):
    """W_b W_b^* of every line b, from the frame's columns of that line."""
    cols = [dec.frame[:, dec.blocks == b] for b in range(int(dec.blocks.max()) + 1)]
    return [w @ w.conj().T for w in cols]


def _phase_sum(dec, blocks):
    return phase_sum(dec.phases[b] for b in blocks)


def block_tuple_chains(dec, partition, ops):
    """Every projection-block tuple t with E_t1 A_1 E_t2 ... A_{m-1} E_tm.

    A literal loop over ``itertools.product``; one full product per tuple.
    """
    lines = projections(dec)
    for blocks in itertools.product(range(len(lines)), repeat=partition.m):
        chain = lines[blocks[0]]
        for a, b in zip(ops, blocks[1:]):
            chain = chain @ a @ lines[b]
        yield blocks, chain


def exact_kernel(frac, N):
    """Cesaro kernel of an exact phase in mpmath at its working precision: 1 at phase 0, otherwise
    (1 - z^N) / (N (1 - z)) with z^N from ``Fraction`` arithmetic, so a periodic zero is exactly 0."""
    import mpmath

    if frac == 0:
        return mpmath.mpf(1)
    z, z_n = (mpmath.expjpi(2 * mpmath.mpf(f.numerator) / f.denominator) for f in (frac, frac * N % 1))
    return (1 - z_n) / (N * (1 - z))


def scalar_kernel(total, N):
    """Cesaro kernel of the phase ``total``, a ``Fraction`` such as an ``exact_sum``, by ``exact_kernel`` in
    50-digit mpmath: the reference for the array kernel, float or exact."""
    import mpmath

    with mpmath.workdps(50):
        return complex(exact_kernel(total, N))


def phase_sum_loop(phases, size):
    """Every sum of ``size`` phases as (turns, frac, total): ``phase_sum`` and ``exact_sum``.

    Returns the flat list of sums in index-tuple order, as a table of shape
    (len(phases),) * size would hold them.
    """
    return [(*phase_sum(combo), exact_sum(combo)) for combo in itertools.product(phases, repeat=size)]


def resonant_partners_loop(phases, tol):
    """The partner of each phase by a double loop over ``phase_sum`` and ``resonates``."""
    partners = []
    for zb in phases:
        matches = [c for c, zc in enumerate(phases) if resonates(*phase_sum((zb, zc)), tol)]
        if len(matches) > 1:
            raise ValueError(
                "resonance tolerance admits multiple partners for one phase; "
                "decrease the tolerance or separate the spectrum"
            )
        partners.append(matches[0] if matches else None)
    for b, c in enumerate(partners):
        if c is not None and partners[c] != b:
            raise ValueError("resonance pairing is not symmetric; tolerance too large")
    return tuple(partners)


def spectral_gap_loop(phases, partners):
    """Smallest |1 - z w| over the phase pairs that are not partners, by a double loop."""
    gap = float("inf")
    for b in range(len(phases)):
        for c in range(len(phases)):
            if partners[b] != c:
                gap = min(gap, abs(1.0 - phase_value(*phase_sum((phases[b], phases[c])))))
    return gap


def tuple_bound_oracle(dec, partition, ops, N, tol=1e-8):
    """Per-tuple certified bound: sum of |prod K - prod R| * ||chain||_2 (SVD), K the kernel of each class's
    ``exact_sum``."""

    @functools.cache
    def kernel_of(blocks):  # tuples repeat a class's blocks, so each kernel is formed once
        return scalar_kernel(exact_sum(dec.phases[b] for b in blocks), N)

    total = 0.0
    for blocks, chain in block_tuple_chains(dec, partition, ops):
        classes = [tuple(cls) for cls in _class_blocks(partition, blocks)]
        kernels = [kernel_of(cls) for cls in classes]
        weight = abs(np.prod(kernels) - float(all(resonates(*_phase_sum(dec, cls), tol) for cls in classes)))
        total += weight * np.linalg.svd(chain, compute_uv=False)[0]
    return total


def tuple_limit_oracle(dec, partition, ops, last_blocks=None, tol=1e-8):
    """Sum of the chains whose every class resonates.

    With ``last_blocks``, a class also needs the block at its last slot in
    that set (the truncated limit).
    """
    total = np.zeros((dec.dim, dec.dim), dtype=complex)
    for blocks, chain in block_tuple_chains(dec, partition, ops):
        classes = list(_class_blocks(partition, blocks))
        if all(resonates(*_phase_sum(dec, cls), tol) for cls in classes) and (
            last_blocks is None or all(cls[-1] in last_blocks for cls in classes)
        ):
            total += chain
    return total


def contract_per_block(dec, partition, ops, tables):
    """The per-block frame sweep that ``engines._contract`` replaced, kept as its reference.

    Widens a class's block axis by B before it closes any other class, one
    ``tensor[..., cols] @ a[cols]`` product per block, and builds every
    projection's columns with ``flatnonzero``.
    """
    first, last = {}, {}
    for pos, lab in enumerate(partition.labels, start=1):
        first.setdefault(lab, pos)
        last[lab] = pos
    blk = dec.blocks
    d, B = dec.dim, int(dec.blocks.max()) + 1
    cols = [np.flatnonzero(blk == b) for b in range(B)]
    frame_ops = [dec.frame.conj().T @ a @ dec.frame for a in ops]
    tensor = np.eye(d, dtype=np.complex128)
    open_labels = []
    for pos, lab in enumerate(partition.labels, start=1):
        if pos > 1:
            a = frame_ops[pos - 2]
            prev = partition.labels[pos - 2]
            if pos > 2 and last[prev] != pos - 1:
                axis = open_labels.index(prev)
                shape = list(tensor.shape)
                shape[axis] *= B
                parts = [tensor[..., c] @ a[c] for c in cols]
                tensor = np.stack(parts, axis=axis + 1).reshape(shape)
            else:
                tensor = tensor @ a
        table = tables[lab - 1]
        if first[lab] == pos and last[lab] == pos:
            tensor = tensor * table[blk]
        elif first[lab] == pos:
            open_labels.append(lab)
            tensor = tensor[..., None, :, :]
        elif last[lab] == pos:
            axis = open_labels.index(lab)
            if first[lab] == 1:
                lift = table[blk].reshape(d, -1, B)[..., blk].transpose(1, 0, 2)
            else:
                lift = table.reshape(-1, 1, B)[..., blk]
            later = len(open_labels) - 1 - axis
            lift = lift.reshape(lift.shape[:1] + (1,) * later + lift.shape[1:])
            tensor = (tensor * lift).sum(axis=axis)
            open_labels.pop(axis)
    return dec.frame @ tensor @ dec.frame.conj().T


def pairwise_residuals(dec, source=None):
    """Decomposition residuals measured on every projection and pair of projections by SVD.

    The pairwise loop that the Gram-matrix bounds of ``decomposition_residuals`` replaced, kept as
    their reference.
    """
    from entcesaro.spectral import reconstruct

    def norm(x):
        return np.linalg.norm(x, 2)

    lines = projections(dec)
    out = {
        "hermiticity": max(norm(q - q.conj().T) for q in lines),
        "idempotency": max(norm(q @ q - q) for q in lines),
        "orthogonality": max((norm(lines[a] @ lines[b])
                              for a in range(len(lines)) for b in range(a + 1, len(lines))),
                             default=0.0),
        "completeness": norm(sum(lines) - np.eye(dec.dim)),
    }
    if source is not None:
        out["reconstruction"] = norm(reconstruct(dec) - source)
    return out


def numpy_max_dims() -> int:
    """The most axes this numpy allows an array, read from the arrays it makes: 32 before numpy 2.0, 64 since."""
    for n in range(1, 1024):
        try:
            np.empty((0,) * (n + 1))
        except ValueError:
            return n
    raise AssertionError("numpy made an array of 1024 axes")


def crossing_by_quadruple_scan(partition: Partition) -> bool:
    """O(m^4) definition of a crossing: a<b<c<d with a~c and b~d in other classes."""
    labels = partition.labels
    m = len(labels)
    for a in range(m):
        for b in range(a + 1, m):
            for c in range(b + 1, m):
                for d in range(c + 1, m):
                    if labels[a] == labels[c] and labels[b] == labels[d] and labels[a] != labels[b]:
                        return True
    return False


def random_ops(rng, count, dim, unit="frobenius"):
    """Complex Gaussian operators scaled to unit Frobenius or operator norm."""
    out = []
    for _ in range(count):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        if unit == "frobenius":
            a /= np.linalg.norm(a)
        elif unit == "operator":
            a /= np.linalg.norm(a, 2)
        out.append(a)
    return out


def invariant_system(seed, d, zero_multiplicity=1, max_denominator=6):
    """Rational-phase system with a forced invariant eigenspace of given rank.

    Returns (U, decomposition, invariant unit vector, eigenbasis); the first
    ``zero_multiplicity`` basis columns span the invariant eigenspace.
    """
    from entcesaro.linalg import haar_unitary
    from entcesaro.spectral import Phase, from_eigensystem

    rng = np.random.default_rng(seed)
    fracs = [Fraction(0)] * zero_multiplicity
    while len(fracs) < d:
        q = int(rng.integers(2, max_denominator + 1))
        fracs.append(Fraction(int(rng.integers(1, q)), q))
    phases = [Phase(float(f), f) for f in fracs]
    basis = haar_unitary(rng, d)
    u, dec = from_eigensystem(phases, basis)
    return u, dec, basis[:, 0], basis


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
