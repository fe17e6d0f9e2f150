"""Seeded input generator: scenario files for the three workloads.

Every workload is built from a fixed base system plus a per-seed draw, so the
same seed always writes the same files and every seed hands the program
different matrices.

* ``converge-haar`` and ``exact-correlate`` present a fixed base system in a
  basis drawn from the seed: a Haar unitary ``W`` conjugates the unitary, the
  operators and the state together (for the diagonal rational system ``W`` is
  block diagonal over the eigenspaces, followed by a random permutation of the
  basis).  The mean, the limit, the certified bound and the correlation values
  are invariant under that change of basis, so ``bound_over_error`` and every
  call count are the same on every seed up to rounding, while the eigenvectors
  and operator entries the program sees change with the seed.
* ``wide-means`` draws fresh Haar unitaries and operators from the seed; its
  cost depends only on the dimensions, which are fixed.

The generator draws its own Haar unitaries and operators with numpy and does
not use the package under test.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# Base systems of the basis-change workloads; changing it changes the inputs
# of every seed.
BASE_SEED = 20091024

CONVERGE_DIM = 4
CONVERGE_PARTITION = (1, 2, 1, 3, 2, 3)
CONVERGE_NS = (100, 1000, 10000)

DECOMPOSE_DIMS = (64, 48)
WIDE_MEANS = (  # (name, partition, dimension)
    ("pairs-d14", (1, 2, 1, 2), 14),
    ("triple-d6", (1, 2, 3, 1, 2, 3), 6),
    ("quad-d4", (1, 2, 3, 1, 2, 3, 4, 4), 4),
)
WIDE_NS = (100, 10000)

# Phase 0 and phase 1/2 carry rank-two blocks; 1/3 and 2/3 resonate with
# each other.  B = 4 blocks on d = 6.
EXACT_PHASES = ("0", "0", "1/2", "1/2", "1/3", "2/3")
EXACT_STATE_WEIGHTS = (0.625, 0.375)  # trace state on the phase-0 eigenspace
# Norm of the outer observables A_0 and A_m.  It brings the correlation values
# to about 0.2-0.6, so the 9 printed decimals carry 8 significant digits.
EXACT_EDGE_NORM = 30.0
EXACT_PARTITION = (1, 2, 2, 1, 3, 3)
# Horizons coprime to every phase-sum denominator, so no kernel is exactly
# zero and every correlation error is nonzero; N = 31 is small enough that
# ``correlate`` picks the direct engine there.
EXACT_NS = (31, 10007)

WORKLOADS = ("converge-haar", "wide-means", "exact-correlate")


@dataclass
class Case:
    """One scenario file plus the arrays the oracle needs to check it."""

    name: str
    path: str
    u: np.ndarray
    ops: list[np.ndarray] = field(default_factory=list)
    partition: tuple[int, ...] | None = None
    horizons: tuple[int, ...] = ()
    exact_turns: list[Fraction] | None = None
    state: np.ndarray | None = None


def rng_for(seed: int, *names) -> np.random.Generator:
    entropy = [int(seed) & 0xFFFFFFFF] + [zlib.crc32(str(n).encode()) for n in names]
    return np.random.default_rng(entropy)


def haar(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def unit_operator(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a / np.linalg.norm(a, 2)


def _matrix_spec(a: np.ndarray) -> dict:
    return {"kind": "matrix", "re": a.real.tolist(), "im": a.imag.tolist()}


def _write(path: str, scenario: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario, fh)


def _conjugate(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    return w @ a @ w.conj().T


def converge_haar(seed: int, out: str) -> list[Case]:
    base = rng_for(BASE_SEED, "converge-haar")
    d = CONVERGE_DIM
    u0 = haar(base, d)
    ops0 = [unit_operator(base, d) for _ in range(len(CONVERGE_PARTITION) - 1)]
    w = haar(rng_for(seed, "converge-haar", "basis"), d)
    u = _conjugate(w, u0)
    ops = [_conjugate(w, a) for a in ops0]
    path = os.path.join(out, "converge-haar.json")
    _write(path, {
        "unitary": _matrix_spec(u),
        "partition": list(CONVERGE_PARTITION),
        "operators": [_matrix_spec(a) for a in ops],
        "engine": "spectral",
        "Ns": list(CONVERGE_NS),
        "seed": seed,
    })
    return [Case("converge-haar", path, u, ops, CONVERGE_PARTITION, CONVERGE_NS)]


def wide_means(seed: int, out: str) -> list[Case]:
    cases = []
    for d in DECOMPOSE_DIMS:
        u = haar(rng_for(seed, "wide-means", "decompose", d), d)
        path = os.path.join(out, f"decompose-d{d}.json")
        _write(path, {"unitary": _matrix_spec(u), "seed": seed})
        cases.append(Case(f"decompose-d{d}", path, u))
    for name, partition, d in WIDE_MEANS:
        rng = rng_for(seed, "wide-means", name)
        u = haar(rng, d)
        ops = [unit_operator(rng, d) for _ in range(len(partition) - 1)]
        path = os.path.join(out, f"{name}.json")
        _write(path, {
            "unitary": _matrix_spec(u),
            "partition": list(partition),
            "operators": [_matrix_spec(a) for a in ops],
            "Ns": list(WIDE_NS),
            "seed": seed,
        })
        cases.append(Case(name, path, u, ops, partition, WIDE_NS))
    return cases


def exact_correlate(seed: int, out: str) -> list[Case]:
    turns0 = [Fraction(t) for t in EXACT_PHASES]
    d = len(turns0)
    base = rng_for(BASE_SEED, "exact-correlate")
    ops0 = [unit_operator(base, d) for _ in range(len(EXACT_PARTITION) + 1)]
    ops0[0] *= EXACT_EDGE_NORM
    ops0[-1] *= EXACT_EDGE_NORM
    state0 = np.zeros((d, d), dtype=np.complex128)
    support = [i for i, t in enumerate(turns0) if t == 0]
    for i, weight in zip(support, EXACT_STATE_WEIGHTS):
        state0[i, i] = weight

    # Basis change that commutes with U: a Haar unitary on each eigenspace,
    # then a permutation of the basis vectors.
    rng = rng_for(seed, "exact-correlate", "basis")
    w = np.zeros((d, d), dtype=np.complex128)
    for t in sorted(set(turns0)):
        idx = [i for i, s in enumerate(turns0) if s == t]
        w[np.ix_(idx, idx)] = haar(rng, len(idx))
    perm = rng.permutation(d)
    w = w[perm]  # row i of the new basis is row perm[i] of the old one
    turns = [turns0[i] for i in perm]
    ops = [_conjugate(w, a) for a in ops0]
    state = _conjugate(w, state0)
    state = (state + state.conj().T) / 2.0

    path = os.path.join(out, "exact-correlate.json")
    _write(path, {
        "unitary": {"kind": "diagonal-rational", "phases": [str(t) for t in turns]},
        "partition": list(EXACT_PARTITION),
        "operators": [_matrix_spec(a) for a in ops],
        "state": {"kind": "trace", "re": state.real.tolist(), "im": state.imag.tolist()},
        "engine": "nested",
        "Ns": list(EXACT_NS),
        "seed": seed,
    })
    u = np.diag(np.exp(2j * np.pi * np.array([float(t) for t in turns])))
    return [Case("exact-correlate", path, u, ops, EXACT_PARTITION, EXACT_NS, turns, state)]


GENERATORS = {
    "converge-haar": converge_haar,
    "wide-means": wide_means,
    "exact-correlate": exact_correlate,
}


def generate(workload: str, seed: int, out: str) -> list[Case]:
    os.makedirs(out, exist_ok=True)
    return GENERATORS[workload](seed, out)
