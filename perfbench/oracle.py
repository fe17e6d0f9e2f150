"""Reference values computed apart from the program under test.

The oracle shares no code with ``entcesaro``.  It diagonalises the
benchmark's own ``U`` with ``numpy.linalg.eig`` (``U = V diag(w) V^-1``),
moves the operators into that eigenbasis, and contracts

    M~[i_1, i_m] = sum  prod_j A~_j[i_j, i_{j+1}] * prod_classes W[i_first, i_last]

slot by slot, left to right: a class opens an index axis at its first slot
and closes it against the per-class weight matrix ``W`` at its last slot.
``W[i, j]`` is the Cesaro kernel ``(1/N) sum_{n<N} (w_i w_j)^n`` for the mean
and the resonance indicator ``w_i w_j == 1`` for the limit.  Kernels are
evaluated with mpmath at 40 digits from the eigenphases in turns; exact
rational turns keep exact periodic zeros and exact resonances.

``self_check`` compares the contraction against a literal loop over index
tuples on tiny systems before any output is trusted.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import mpmath
import numpy as np

DIGITS = 40
RESONANCE_TOL = 1e-8  # |w_i w_j - 1|; the program's documented default


def eigensystem(u: np.ndarray, exact_turns=None):
    """Eigenvectors, their inverse and the turn of each eigenvalue.

    With ``exact_turns`` (one Fraction per basis vector of a diagonal ``U``),
    each numerical eigenvalue takes the exact turn it approximates.
    """
    w, v = np.linalg.eig(u)
    turns = [float(np.angle(z) / (2.0 * np.pi)) % 1.0 for z in w]
    if exact_turns is not None:
        candidates = sorted(set(Fraction(t) for t in exact_turns))

        def nearest(t):
            return min(candidates, key=lambda f: min(abs(t - float(f)), 1.0 - abs(t - float(f))))

        turns = [nearest(t) for t in turns]
    return v, np.linalg.inv(v), turns


def kernel(turn, N: int) -> complex:
    """(1/N) sum_{n<N} exp(2 pi i turn n), evaluated at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        return _kernel(turn, N)


def _kernel(turn, N: int) -> complex:
    if isinstance(turn, Fraction):
        turn %= 1
        if turn == 0:
            return 1.0 + 0.0j
        turn_n = (turn * N) % 1  # exact, so periodic zeros stay exact
        t = mpmath.mpf(turn.numerator) / turn.denominator
        tn = mpmath.mpf(turn_n.numerator) / turn_n.denominator
    else:
        if turn % 1.0 == 0.0:
            return 1.0 + 0.0j
        t = mpmath.mpf(turn)
        tn = t * N
    z = mpmath.expjpi(2 * t)
    zn = mpmath.expjpi(2 * tn)
    return complex((1 - zn) / (N * (1 - z)))


def _pair_turn(a, b):
    return (a + b) % 1 if isinstance(a, Fraction) else a + b


def weight_matrix(turns, N=None, resonance_tol: float = RESONANCE_TOL) -> np.ndarray:
    """Kernel table (N given) or resonance indicator (N None) over eigen-index pairs."""
    d = len(turns)
    out = np.empty((d, d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            t = _pair_turn(turns[i], turns[j])
            if N is not None:
                out[i, j] = kernel(t, N)
            elif isinstance(t, Fraction):
                out[i, j] = 1.0 if t == 0 else 0.0
            else:
                out[i, j] = 1.0 if abs(np.exp(2j * np.pi * t) - 1.0) <= resonance_tol else 0.0
    return out


def contract(ops_eig, partition, weight: np.ndarray) -> np.ndarray:
    """Slot-by-slot contraction in the eigenbasis with one weight per class.

    The state tensor has axes (row, open class indices..., current index).
    """
    d = weight.shape[0]
    labels = list(partition)
    first = {lab: labels.index(lab) for lab in set(labels)}
    last = {lab: len(labels) - 1 - labels[::-1].index(lab) for lab in set(labels)}
    state = np.eye(d, dtype=np.complex128)  # (row, current)
    open_labels: list[int] = []
    for pos, lab in enumerate(labels):
        if pos > 0:
            state = state @ ops_eig[pos - 1]  # contract current index with A~
        if first[lab] == pos and last[lab] != pos:
            # open: copy the current index into a new axis just before it
            state = state[..., None] * np.eye(d)
            open_labels.append(lab)
        elif last[lab] == pos and first[lab] != pos:
            axis = 1 + open_labels.index(lab)
            shape = [1] * state.ndim
            shape[axis], shape[-1] = d, d
            state = (state * weight.reshape(shape)).sum(axis=axis)
            open_labels.remove(lab)
        else:
            raise ValueError("oracle handles pair partitions only")
    return state


def _to_eig(v, vinv, ops):
    return [vinv @ a @ v for a in ops]


def mean(u, ops, partition, N, exact_turns=None) -> np.ndarray:
    v, vinv, turns = eigensystem(u, exact_turns)
    core = contract(_to_eig(v, vinv, ops), partition, weight_matrix(turns, N))
    return v @ core @ vinv


def limit(u, ops, partition, exact_turns=None) -> np.ndarray:
    v, vinv, turns = eigensystem(u, exact_turns)
    core = contract(_to_eig(v, vinv, ops), partition, weight_matrix(turns))
    return v @ core @ vinv


def literal_mean(u, ops, partition, N) -> np.ndarray:
    """Literal loop over all index tuples (n_1..n_k) < N."""
    d = u.shape[0]
    powers = [np.eye(d, dtype=np.complex128)]
    for _ in range(N - 1):
        powers.append(powers[-1] @ u)
    k = max(partition)
    total = np.zeros((d, d), dtype=np.complex128)
    for n in itertools.product(range(N), repeat=k):
        term = powers[n[partition[0] - 1]]
        for slot in range(1, len(partition)):
            term = term @ ops[slot - 1] @ powers[n[partition[slot] - 1]]
        total += term
    return total / N**k


def self_check() -> list[str]:
    """Compare the contraction with the literal loop on tiny systems.

    Returns a list of failure messages, empty when the oracle is sound.
    """
    rng = np.random.default_rng(7)
    failures = []
    d = 3
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(z)
    for partition in ((1, 2, 1, 2), (1, 2, 2, 1), (1, 2, 1, 3, 2, 3)):
        ops = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
               for _ in range(len(partition) - 1)]
        # Haar-like float system at a small horizon.
        haar_u = q @ np.diag(np.exp(2j * np.pi * rng.random(d))) @ q.conj().T
        got = mean(haar_u, ops, partition, 5)
        want = literal_mean(haar_u, ops, partition, 5)
        if np.abs(got - want).max() > 1e-11:
            failures.append(f"mean {partition}: {np.abs(got - want).max():.3e}")
        # Exact phases with a rank-two block: at N a multiple of every
        # phase-sum order the finite mean equals the limit exactly.
        turns = [Fraction(0), Fraction(0), Fraction(1, 2)]
        diag_u = np.diag(np.exp(2j * np.pi * np.array([float(t) for t in turns])))
        exact_ops = [q @ a @ q.conj().T for a in ops]
        got = limit(diag_u, exact_ops, partition, turns)
        want = literal_mean(diag_u, exact_ops, partition, 2)
        if np.abs(got - want).max() > 1e-11:
            failures.append(f"limit {partition}: {np.abs(got - want).max():.3e}")
        got = mean(diag_u, exact_ops, partition, 3, turns)
        want = literal_mean(diag_u, exact_ops, partition, 3)
        if np.abs(got - want).max() > 1e-11:
            failures.append(f"exact mean {partition}: {np.abs(got - want).max():.3e}")
    return failures
