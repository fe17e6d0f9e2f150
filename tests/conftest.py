"""Shared test helpers: independent brute-force oracles and system builders."""

import itertools
import os
import sys

import numpy as np
import pytest

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


def _phase_sum(dec, blocks):
    total = dec.phases[blocks[0]]
    for b in blocks[1:]:
        total = total + dec.phases[b]
    return total


def block_tuple_chains(dec, partition, ops):
    """Every projection-block tuple t with E_t1 A_1 E_t2 ... A_{m-1} E_tm.

    A literal loop over ``itertools.product``; one full product per tuple.
    """
    projections = dec.projections
    for blocks in itertools.product(range(len(projections)), repeat=partition.m):
        chain = projections[blocks[0]]
        for a, b in zip(ops, blocks[1:]):
            chain = chain @ a @ projections[b]
        yield blocks, chain


def tuple_bound_oracle(dec, partition, ops, N, tol=1e-8):
    """Per-tuple certified bound: sum of |prod K - prod R| * ||chain||_2 (SVD)."""
    from entcesaro.engines import kernel

    total = 0.0
    for blocks, chain in block_tuple_chains(dec, partition, ops):
        sums = [_phase_sum(dec, cls) for cls in _class_blocks(partition, blocks)]
        weight = abs(np.prod([kernel(s, N) for s in sums]) - float(all(s.is_one(tol) for s in sums)))
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
        if all(_phase_sum(dec, cls).is_one(tol) for cls in classes) and (
            last_blocks is None or all(cls[-1] in last_blocks for cls in classes)
        ):
            total += chain
    return total


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
    phases = [Phase.rational(0, 1)] * zero_multiplicity
    while len(phases) < d:
        q = int(rng.integers(2, max_denominator + 1))
        p = int(rng.integers(1, q))
        phases.append(Phase.rational(p, q))
    basis = haar_unitary(rng, d)
    u, dec = from_eigensystem(phases, basis)
    return u, dec, basis[:, 0], basis


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
