"""Spectral decompositions of unitary matrices.

Eigenphases are kept in turns (fractions of a full rotation, in [0, 1)),
either as exact rationals or as floats.  Exact phases make the resonance
test z*w == 1 an integer check on phase sums; float phases fall back to a
tolerance on |z*w - 1|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .linalg import as_operator, haar_unitary, operator_norm, unitarity_residual

__all__ = [
    "Phase",
    "Tolerances",
    "SpectralLine",
    "SpectralDecomposition",
    "decompose",
    "reconstruct",
    "from_eigensystem",
    "random_system",
    "antidiagonal_spectrum",
    "resonant_partners",
    "invariant_projection",
    "decomposition_residuals",
]

MAX_RANDOM_DIM = 64

# Residual ceilings every constructed decomposition must satisfy.
PROJECTOR_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9
# With e = ||W*W - I||, each projection W_b W_b* has idempotency and
# orthogonality residuals at most e(1 + e) and the completeness residual is e;
# half of PROJECTOR_TOL leaves room for the rounding of those products.
FRAME_TOL = PROJECTOR_TOL / 2


@dataclass(frozen=True)
class Phase:
    """A point on the unit circle, stored as an angle in turns.

    ``turns`` is always in [0, 1).  When ``frac`` is set the phase is exact
    and ``turns == float(frac)``; arithmetic on exact phases stays exact.
    """

    turns: float
    frac: Fraction | None = None

    @classmethod
    def rational(cls, p: int, q: int) -> "Phase":
        f = Fraction(p, q) % 1
        return cls(float(f), f)

    @classmethod
    def from_fraction(cls, f: Fraction) -> "Phase":
        f = f % 1
        return cls(float(f), f)

    @classmethod
    def from_turns(cls, t: float) -> "Phase":
        t = float(t) % 1.0
        if t == 1.0:  # rounding artifact of the modulo
            t = 0.0
        return cls(t, None)

    @property
    def is_exact(self) -> bool:
        return self.frac is not None

    def value(self) -> complex:
        if self.frac is not None and self.frac == 0:
            return 1.0 + 0.0j
        return cmath.exp(2j * math.pi * self.turns)

    def conjugate(self) -> "Phase":
        if self.frac is not None:
            return Phase.from_fraction(-self.frac)
        return Phase.from_turns(-self.turns)

    def __add__(self, other: "Phase") -> "Phase":
        if self.frac is not None and other.frac is not None:
            return Phase.from_fraction(self.frac + other.frac)
        return Phase.from_turns(self.turns + other.turns)

    def power(self, n: int) -> "Phase":
        if self.frac is not None:
            return Phase.from_fraction(self.frac * n)
        return Phase.from_turns(self.turns * n)

    def is_one(self, tol: float) -> bool:
        """Whether this phase equals 1 on the circle, within |z - 1| <= tol."""
        if self.frac is not None:
            return self.frac == 0
        return abs(self.value() - 1.0) <= tol

    def __format__(self, spec):
        return format(str(self), spec)

    def __str__(self):
        if self.frac is not None:
            return f"{self.frac.numerator}/{self.frac.denominator}"
        return repr(self.turns)


@dataclass(frozen=True)
class Tolerances:
    """Tolerance policy for decomposition and resonance decisions."""

    unitarity: float = 1e-10
    cluster: float = 1e-8
    resonance: float = 1e-8

    def __post_init__(self):
        for name in ("unitarity", "cluster", "resonance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"tolerance {name} must be positive")


@dataclass(frozen=True, eq=False)
class SpectralLine:
    phase: Phase
    projection: np.ndarray

    @property
    def rank(self) -> int:
        return int(round(float(np.trace(self.projection).real)))


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenphases with mutually orthogonal eigenprojections summing to I.

    ``frame`` is an orthonormal eigenbasis whose column i lies in the range
    of the projection of line ``blocks[i]``; each projection is
    ``frame[:, blocks == b] @ frame[:, blocks == b]^*``.
    """

    dim: int
    entries: tuple[SpectralLine, ...]
    frame: np.ndarray
    blocks: np.ndarray
    source_unitarity: float
    tolerances: Tolerances = field(default_factory=Tolerances)

    @property
    def phases(self) -> tuple[Phase, ...]:
        return tuple(line.phase for line in self.entries)

    @property
    def projections(self) -> tuple[np.ndarray, ...]:
        return tuple(line.projection for line in self.entries)


def reconstruct(dec: SpectralDecomposition) -> np.ndarray:
    """Sum of phase * projection over all spectral lines."""
    u = np.zeros((dec.dim, dec.dim), dtype=np.complex128)
    for line in dec.entries:
        u += line.phase.value() * line.projection
    return u


def decomposition_residuals(dec: SpectralDecomposition, source=None) -> dict[str, float]:
    """Worst-case residuals of the decomposition invariants.

    When ``source`` is given, the reconstruction residual against it is
    included; otherwise that key reports the stored construction-time value.
    """
    herm = idem = ortho = 0.0
    total = np.zeros((dec.dim, dec.dim), dtype=np.complex128)
    for line in dec.entries:
        p = line.projection
        herm = max(herm, operator_norm(p - p.conj().T))
        idem = max(idem, operator_norm(p @ p - p))
        total += p
    for a in range(len(dec.entries)):
        for b in range(a + 1, len(dec.entries)):
            ortho = max(ortho, operator_norm(dec.entries[a].projection @ dec.entries[b].projection))
    completeness = operator_norm(total - np.eye(dec.dim))
    out = {
        "hermiticity": herm,
        "idempotency": idem,
        "orthogonality": ortho,
        "completeness": completeness,
        "unitarity": dec.source_unitarity,
    }
    if source is not None:
        out["reconstruction"] = operator_norm(reconstruct(dec) - as_operator(source))
    return out


def _with_frame(phases, columns, source_unitarity: float, tol: Tolerances) -> SpectralDecomposition:
    """Decomposition from one orthonormal column block per phase, sorted by phase."""
    order = sorted(range(len(phases)), key=lambda b: phases[b].turns)
    frame = np.concatenate([columns[b] for b in order], axis=1)
    blocks = np.repeat(np.arange(len(order)), [columns[b].shape[1] for b in order])
    entries = tuple(SpectralLine(phases[b], columns[b] @ columns[b].conj().T) for b in order)
    return SpectralDecomposition(frame.shape[0], entries, frame, blocks, source_unitarity, tol)


def _validate(dec: SpectralDecomposition, source) -> SpectralDecomposition:
    frame_res = unitarity_residual(dec.frame)
    if frame_res > FRAME_TOL:
        raise ValueError(f"decomposition fails frame orthonormality check: residual {frame_res:.3e}")
    recon = operator_norm(reconstruct(dec) - as_operator(source))
    if recon > RECONSTRUCTION_TOL:
        raise ValueError(f"decomposition fails reconstruction check: residual {recon:.3e}")
    # Entries are sorted by turns, so the closest pair on the circle is adjacent.
    turns = [line.phase.turns for line in dec.entries]
    if np.diff(turns + [turns[0] + 1.0]).min() <= dec.tolerances.cluster:
        raise ValueError("decomposition has phases closer than the cluster tolerance")
    return dec


def decompose(u, tol: Tolerances = Tolerances()) -> SpectralDecomposition:
    """Spectral decomposition of a unitary from its eigenvectors.

    Eigenvalues are clustered at ``tol.cluster`` angular (turns) distance,
    with wrap-around at 0/1.  QR of the eigenvectors taken cluster by cluster
    keeps nested spans, so Q is a Schur basis of U: for normal U, an
    orthonormal eigenframe.  All decomposition invariants are checked.
    """
    arr = as_operator(u, name="unitary")
    source_res = unitarity_residual(arr)
    if source_res > tol.unitarity:
        raise ValueError(f"input fails unitarity: residual {source_res:.3e} > {tol.unitarity:.3e}")
    try:
        eigs, vecs = np.linalg.eig(arr)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ValueError(f"eigensolver failure: {exc}") from exc
    angles = np.angle(eigs) / (2.0 * math.pi)
    angles = np.mod(angles, 1.0)
    order = np.argsort(angles, kind="stable")

    # Group sorted angles into clusters, merging across the 0/1 seam.
    clusters: list[list[int]] = []
    for idx in order:
        if clusters and angles[idx] - angles[clusters[-1][-1]] <= tol.cluster:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    if len(clusters) > 1:
        first, last = clusters[0], clusters[-1]
        if (angles[first[0]] + 1.0) - angles[last[-1]] <= tol.cluster:
            clusters[0] = last + first
            clusters.pop()

    q, _ = np.linalg.qr(vecs[:, np.concatenate(clusters)])
    columns = np.split(q, np.cumsum([len(members) for members in clusters])[:-1], axis=1)
    phases = [Phase.from_turns(cmath.phase(np.mean(eigs[members])) / (2.0 * math.pi))
              for members in clusters]
    return _validate(_with_frame(phases, columns, source_res, tol), arr)


def from_eigensystem(phases, basis, tol: Tolerances = Tolerances()) -> tuple[np.ndarray, SpectralDecomposition]:
    """Build (U, decomposition) from per-column phases and a unitary eigenbasis.

    Equal phases are merged into one projection.  The returned unitary is the
    reconstruction itself, so the pair is exactly consistent.
    """
    basis = as_operator(basis, name="eigenbasis")
    d = basis.shape[0]
    if len(phases) != d:
        raise ValueError(f"need {d} phases, got {len(phases)}")
    res = unitarity_residual(basis)
    if res > tol.unitarity:
        raise ValueError(f"eigenbasis fails unitarity: residual {res:.3e}")
    groups: dict[Phase, list[int]] = {}
    for col, ph in enumerate(phases):
        groups.setdefault(ph, []).append(col)
    dec = _with_frame(list(groups), [basis[:, cols] for cols in groups.values()], 0.0, tol)
    u = reconstruct(dec)
    dec = replace(dec, source_unitarity=unitarity_residual(u))
    return u, _validate(dec, u)


def random_system(
    seed,
    d: int,
    phase_mode: str = "haar",
    max_denominator: int = 8,
    tol: Tolerances = Tolerances(),
) -> tuple[np.ndarray, SpectralDecomposition]:
    """Reproducible random unitary plus its decomposition.

    ``haar`` draws a Haar-like unitary and decomposes it (float phases).
    ``rational`` draws rational eigenphases with denominator at most
    ``max_denominator`` and a Haar-like eigenbasis, so every resonance among
    the phases is exact.
    """
    if not 1 <= d <= MAX_RANDOM_DIM:
        raise ValueError(f"dimension {d} outside supported range 1..{MAX_RANDOM_DIM}")
    rng = np.random.default_rng(seed)
    if phase_mode == "haar":
        u = haar_unitary(rng, d)
        return u, decompose(u, tol)
    if phase_mode == "rational":
        if max_denominator < 1:
            raise ValueError("max_denominator must be >= 1")
        phases = []
        for _ in range(d):
            q = int(rng.integers(1, max_denominator + 1))
            p = int(rng.integers(0, q))
            phases.append(Phase.rational(p, q))
        basis = haar_unitary(rng, d)
        return from_eigensystem(phases, basis, tol)
    raise ValueError(f"unknown phase mode {phase_mode!r}")


def resonant_partners(dec: SpectralDecomposition, tol: float | None = None) -> tuple[int | None, ...]:
    """For each spectral line, the index of the line it resonates with.

    Line b resonates with b' when z_b * z_b' == 1: exactly for exact phases,
    within ``tol`` on |z_b * z_b' - 1| otherwise.  Distinct phases admit at
    most one partner; ambiguity means the tolerance exceeds the phase
    separation and is rejected.
    """
    if tol is None:
        tol = dec.tolerances.resonance
    phases = dec.phases
    partners: list[int | None] = []
    for b, zb in enumerate(phases):
        matches = []
        for c, zc in enumerate(phases):
            combined = zb + zc
            if combined.is_one(tol):
                matches.append((abs(combined.value() - 1.0), c))
        if not matches:
            partners.append(None)
        elif len(matches) == 1:
            partners.append(matches[0][1])
        else:
            raise ValueError(
                "resonance tolerance admits multiple partners for one phase; "
                "decrease the tolerance or separate the spectrum"
            )
    for b, c in enumerate(partners):
        if c is not None and partners[c] != b:
            raise ValueError("resonance pairing is not symmetric; tolerance too large")
    return tuple(partners)


def antidiagonal_spectrum(dec: SpectralDecomposition, tol: float | None = None) -> tuple[Phase, ...]:
    """Phases whose product with some phase of the decomposition equals 1."""
    partners = resonant_partners(dec, tol)
    return tuple(dec.phases[b] for b in range(len(partners)) if partners[b] is not None)


def invariant_projection(dec: SpectralDecomposition) -> np.ndarray:
    """Eigenprojection at phase 1, or the zero matrix when absent."""
    for line in dec.entries:
        if line.phase.is_one(dec.tolerances.resonance):
            return line.projection.copy()
    return np.zeros((dec.dim, dec.dim), dtype=np.complex128)
