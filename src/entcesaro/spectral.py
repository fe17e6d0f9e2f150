"""Spectral decompositions of unitary matrices.

Eigenphases are kept in turns (fractions of a full rotation, in [0, 1)), exact
rationals or floats, each an integer numerator over a common denominator (a float
turn is a dyadic rational).  Exact phases make the resonance test z*w == 1 an
integer check on phase sums; float phases fall back to a tolerance on |z*w - 1|.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ._record import Record, ValueRecord
from .linalg import _gated_norm, as_operator, frobenius_norm, haar_unitary, operator_norm, require_unitary

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "Phase",
    "Tolerances",
    "SpectralLine",
    "SpectralDecomposition",
    "PhaseSums",
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
# Horizons whose kernel tables one ``PhaseSums`` keeps, the oldest dropped first: repeated means, as in
# ``verify`` or a benchmark pass, re-read a few horizons' tables.
KERNEL_MEMO_HORIZONS = 4

# Residual ceilings every constructed decomposition must satisfy: the frame's ||W*W - I|| and
# the reconstruction's ||W diag(z) W* - U||.
FRAME_TOL = 5e-11
RECONSTRUCTION_TOL = 1e-9


def _fold(turns):
    """Turns mod 1, in [0, 1): a result of 1.0, a rounding artifact of the modulo, is taken as 0.0."""
    turns = np.mod(turns, 1.0)
    return np.where(turns == 1.0, 0.0, turns)


class Phase(ValueRecord):
    """A point on the unit circle, stored as an angle in turns: how a phase is read in and printed.

    ``turns`` is always in [0, 1) (``_fold``), ``float(frac)`` folded when ``frac`` makes it exact.  Phases
    compare and hash by value; sums, kernels and resonance are formed on ``PhaseSums`` arrays only.
    """

    _fields = ("turns", "frac")

    def __init__(self, turns: float, frac: Fraction | None = None):
        self.__dict__.update(turns=turns, frac=frac)

    def _values(self) -> tuple:
        return (self.turns, self.frac)

    @classmethod
    def rational(cls, p: int, q: int) -> "Phase":
        from fractions import Fraction

        return cls.from_fraction(Fraction(p, q))

    @classmethod
    def from_fraction(cls, f: Fraction) -> "Phase":
        f = f % 1
        return cls(float(_fold(float(f))), f)

    @classmethod
    def from_turns(cls, t: float) -> "Phase":
        return cls(float(_fold(float(t))), None)

    @property
    def is_exact(self) -> bool:
        return self.frac is not None

    def __format__(self, spec):
        return format(str(self), spec)

    def __str__(self):
        if self.frac is not None:
            return f"{self.frac.numerator}/{self.frac.denominator}"
        return repr(self.turns)


class PhaseSums(Record):
    """Phases, or the sums of every pair of them, as arrays.

    Each entry is ``numerators / denominator`` mod 1, Python-int numerators (object dtype: no overflow)
    over one L, a float turn being the dyadic rational a / 2^e it holds; a sum adds numerators mod L, is
    exact iff both summands are (``exact`` chooses only the resonance test), and its ``turns`` is numerator
    / L rounded once, 1.0 taken as 0.0.  The horizon-independent factors of ``kernels`` are formed on its
    first call and kept, and so is the table of each of the last ``KERNEL_MEMO_HORIZONS`` horizons it was called at.
    """

    _fields = ("turns", "exact", "numerators", "denominator")

    def __init__(self, turns: np.ndarray, exact: np.ndarray, numerators: np.ndarray, denominator: int):
        self.__dict__.update(turns=turns, exact=exact, numerators=numerators, denominator=denominator)

    def distances(self) -> np.ndarray:
        """|e^{2 pi i s} - 1| of every sum s, the ``hypot`` of the real and imaginary parts."""
        diff = np.exp(2j * np.pi * self.turns) - 1.0
        return np.hypot(diff.real, diff.imag)

    def resonant(self, tol: float) -> np.ndarray:
        """Whether each sum is 1 on the circle: numerator 0 when exact, ``distances`` <= tol otherwise."""
        out = self.distances() <= tol
        out[self.exact] = self.numerators[self.exact] == 0
        return out

    @cached_property
    def _kernel_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Centred turns t in [-1/2, 1/2), sin(pi t), and the centred numerators c in [-L/2, L/2), whose
        t is c / L rounded once."""
        L = self.denominator
        c = np.where(2 * self.numerators < L, self.numerators, self.numerators - L)
        t = (c / L).astype(float)
        return t, np.sin(np.pi * t), c

    @cached_property
    def _kernel_memo(self) -> dict[int, np.ndarray]:
        return {}

    def kernels(self, N: int) -> np.ndarray:
        """The Cesaro kernel (1/N) sum_{n<N} z^n of every sum at horizon N (``engines.kernel``).

        The table is kept for later calls at N, so it is read-only: every caller shares it.
        """
        memo = self._kernel_memo
        table = memo.get(N)
        if table is None:
            table = self._kernels(N)
            if len(memo) >= KERNEL_MEMO_HORIZONS:
                del memo[next(iter(memo))]
            table = memo[N] = _read_only(table)
        return table

    def _kernels(self, N: int) -> np.ndarray:
        t, sin_t, c = self._kernel_factors
        L = self.denominator
        # The Dirichlet form e^{i pi (N-1) t} (-1)^n sin(pi (N t - n)) / (N sin(pi t)) with n the integer nearest
        # N t, so the kernel vanishes exactly when N t is an integer.  For t = c / L the parity of n, N t - n and
        # (N - 1) t mod 2 in (-1, 1] come from Python ints, each rounded once.
        n = (2 * N * c + L) // (2 * L)  # the integer nearest N c / L
        frac = ((N * c - n * L) / L).astype(float)
        angle = math.pi * ((L - (L - (N - 1) * c) % (2 * L)) / L).astype(float)
        # N sin(pi t), but pi N c / L where t is subnormal, as pi t would round to the subnormal grid there
        scale, tiny = N * sin_t, np.abs(t) < np.finfo(float).tiny
        scale[tiny] = math.pi * (N * c[tiny] / L).astype(float)
        with np.errstate(divide="ignore", invalid="ignore"):  # z == 1 gives 0/0, then set to 1
            ratio = np.where(n % 2, -1.0, 1.0) * np.sin(np.pi * frac) / scale
            out = np.empty(t.shape, dtype=np.complex128)
            out.real, out.imag = np.cos(angle) * ratio, np.sin(angle) * ratio
            out[t == 0.0] = 1.0
        return out


def _common(ratios) -> tuple[np.ndarray, int]:
    """Numerators mod L over the common denominator L of the (numerator, denominator) pairs ``ratios``, with L."""
    L = math.lcm(*(q for _, q in ratios))
    return np.array([a * (L // q) % L for a, q in ratios], dtype=object), L


def _sums(exact: np.ndarray, numerators: np.ndarray, L: int) -> PhaseSums:
    """``PhaseSums`` of ``numerators`` over L, whose turns are each numerator / L correctly rounded (``_fold``)."""
    return PhaseSums(_fold((numerators / L).astype(float)), exact, numerators, L)


def _summands_of(phases) -> PhaseSums:
    """``phases`` as arrays: each phase's fraction, or the dyadic rational its float turns hold, as a
    numerator mod L over their common denominator L."""
    ratios = [(ph.frac if ph.is_exact else ph.turns).as_integer_ratio() for ph in phases]
    return _sums(np.array([ph.is_exact for ph in phases], dtype=bool), *_common(ratios))


def _pairs_of(summands: PhaseSums) -> PhaseSums:
    """``PhaseSums`` of every pair of the phases ``summands`` holds, entry (b, c) the sum p_b + p_c."""
    L = summands.denominator
    return _sums(summands.exact[:, None] & summands.exact, (summands.numerators[:, None] + summands.numerators) % L, L)


class Tolerances(ValueRecord):
    """Tolerance policy for decomposition and resonance decisions."""

    _fields = ("unitarity", "cluster", "resonance")

    def __init__(self, unitarity: float = 1e-10, cluster: float = 1e-8, resonance: float = 1e-8):
        for name, value in zip(self._fields, (unitarity, cluster, resonance)):
            if not value > 0:  # NaN included
                raise ValueError(f"tolerance {name} must be positive")
        self.__dict__.update(unitarity=unitarity, cluster=cluster, resonance=resonance)

    def _values(self) -> tuple:
        return (self.unitarity, self.cluster, self.resonance)


class SpectralLine(NamedTuple):
    """An eigenphase with its block of the frame: orthonormal columns spanning the eigenspace.

    ``basis`` is a view of the decomposition's frame; the projection ``basis @ basis^*`` is formed
    when read.
    """

    phase: Phase
    basis: np.ndarray

    @property
    def projection(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


class SpectralDecomposition(Record):
    """Eigenphases with mutually orthogonal eigenprojections summing to I.

    ``spectrum`` holds the phase of line b at index b, as arrays: float turns, the exact mask, and
    Python-int numerators over the common denominator L of every phase (a ``PhaseSums`` of one
    summand).  ``frame`` is an orthonormal eigenbasis with the columns of each line contiguous and
    in line order: column i lies in the eigenspace of line ``blocks[i]``, and line b's columns are
    its ``basis``.  Decompositions built by this module hold these arrays read-only.

    ``phases`` and ``entries`` (one ``Phase`` and one ``SpectralLine`` per line) are built from
    them on first read and kept: ``phases`` to print and to match the phases ``limit_truncated`` is
    given, ``entries`` for line projections.  In the frame W, line b's projection is the diagonal
    mask of its columns, so the engines contract in W itself.  The tables they read are built on
    first use and kept on the instance too, so each is built once per decomposition: the phase sums
    of block pairs with the horizon-independent factors of their kernels and the kernel tables of
    recent horizons, the resonance record at its resonance tolerance, W* and the block pair of each
    pair of frame columns.  A new ``SpectralDecomposition`` built from its fields shares ``spectrum``
    and starts with none of them.
    """

    _fields = ("dim", "spectrum", "frame", "blocks", "source_unitarity", "tolerances")

    def __init__(self, dim: int, spectrum: PhaseSums, frame: np.ndarray, blocks: np.ndarray,
                 source_unitarity: float, tolerances: Tolerances = Tolerances()):
        self.__dict__.update(dim=dim, spectrum=spectrum, frame=frame, blocks=blocks,
                             source_unitarity=source_unitarity, tolerances=tolerances)

    @cached_property
    def phases(self) -> tuple[Phase, ...]:
        s = self.spectrum
        if not s.exact.any():
            return tuple(Phase(t) for t in s.turns.tolist())
        from fractions import Fraction

        return tuple(Phase(t, Fraction(a, s.denominator) if e else None)
                     for t, e, a in zip(s.turns.tolist(), s.exact.tolist(), s.numerators.tolist()))

    @cached_property
    def entries(self) -> tuple[SpectralLine, ...]:
        bounds = np.searchsorted(self.blocks, np.arange(len(self.phases) + 1)).tolist()
        return tuple(SpectralLine(ph, self.frame[:, s:e]) for ph, s, e in zip(self.phases, bounds[:-1], bounds[1:]))

    @cached_property
    def _pair_sums(self) -> PhaseSums:
        """The phase sums of a pair class, one per block pair."""
        return _pairs_of(self.spectrum)

    @cached_property
    def _resonance(self) -> _Resonance:
        """The resonance record at the decomposition's resonance tolerance.

        Line b resonates with c when z_b z_c == 1: their pair sum s has numerator 0 when exact, and
        |e^{2 pi i s} - 1| (``PhaseSums.distances``) within the tolerance otherwise.  Distinct phases
        admit at most one partner; a tolerance that gives a phase two raises ``ValueError`` on every
        read, and nothing is recorded.  The table is symmetric, since both sums of a pair are formed
        alike, so the pairing is too.  The phase-1 line resonates with itself and lies nearer +1
        than -1, the other root of z^2 = 1; an exact phase-1 line has numerator 0.
        """
        tol = self.tolerances.resonance
        resonant = self._pair_sums.resonant(tol)
        if (resonant.sum(axis=1) > 1).any():
            raise ValueError(
                "resonance tolerance admits multiple partners for one phase; "
                "decrease the tolerance or separate the spectrum"
            )
        partners = tuple(int(c) if hit else None for c, hit in zip(resonant.argmax(axis=1), resonant.any(axis=1)))
        gap = float(np.where(resonant, np.inf, self._pair_sums.distances()).min())
        turns = self.spectrum.turns
        ones = np.flatnonzero(resonant.diagonal() & (np.minimum(turns, 1.0 - turns) < 0.25))
        return _Resonance(_read_only(resonant.astype(float)), partners, gap, int(ones[0]) if ones.size else None)

    @cached_property
    def _frame_h(self) -> np.ndarray:
        """W*, the conjugate transpose of the frame."""
        return _read_only(self.frame.conj().T)

    @cached_property
    def _column_pairs(self) -> np.ndarray:
        """Entry (i, j) is blocks[i] B + blocks[j]: a (B, B) block table's ``take`` of it reads the
        table at the blocks of frame columns i and j."""
        return _read_only(self.blocks[:, None] * len(self.spectrum.turns) + self.blocks)


class _Resonance(NamedTuple):
    """The resonance decisions of one decomposition at its resonance tolerance."""

    table: np.ndarray  # R[b, c] = [z_b z_c == 1] as 0.0 or 1.0
    partners: tuple[int | None, ...]
    gap: float  # smallest |1 - z_b z_c| over non-resonant pairs; inf when none exist
    one: int | None  # the phase-1 line: its own partner, nearer +1 than -1; None when absent


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def reconstruct(dec: SpectralDecomposition) -> np.ndarray:
    """Sum of phase * projection over all spectral lines, as W diag(z) W* from the frame.

    z = e^{2 pi i turns} from ``np.exp``, which gives exactly 1 at turns 0.
    """
    z = np.exp(2j * np.pi * dec.spectrum.turns)
    return (dec.frame * z[dec.blocks]) @ dec.frame.conj().T


def decomposition_residuals(dec: SpectralDecomposition, source) -> dict[str, float]:
    """The frame residual ||W*W - I||, the source's stored unitarity residual and the reconstruction
    residual ||W diag(z) W* - source||.

    The frame residual e implies the projection invariants: line b's projection W_b W_b^* is
    Hermitian by construction, its idempotency and orthogonality residuals are at most (1 + e) e,
    and the completeness residual ||W W^* - I|| is e.
    """
    frame, reconstruction = map(operator_norm, _residual_matrices(dec, source))
    return {"frame": frame, "unitarity": dec.source_unitarity, "reconstruction": reconstruction}


def _residual_matrices(dec: SpectralDecomposition, source) -> tuple[np.ndarray, np.ndarray]:
    """W*W - I and W diag(z) W* - source, whose norms are the frame and the reconstruction residuals."""
    return dec.frame.conj().T @ dec.frame - np.eye(dec.dim), reconstruct(dec) - as_operator(source)


def _with_frame(phases: PhaseSums, frame, labels, source_unitarity: float, tol: Tolerances) -> SpectralDecomposition:
    """Decomposition from an orthonormal frame whose column i lies in the line of phase ``labels[i]``.

    Lines are sorted by phase and the columns regrouped to match, so each line's basis is a
    contiguous block of the frame.
    """
    order = np.argsort(phases.turns, kind="stable")
    blocks = np.argsort(order)[labels]
    perm = np.argsort(blocks, kind="stable")
    spectrum = PhaseSums(*(_read_only(x[order]) for x in (phases.turns, phases.exact, phases.numerators)),
                         phases.denominator)
    return SpectralDecomposition(frame.shape[0], spectrum, _read_only(frame[:, perm]), _read_only(blocks[perm]),
                                 source_unitarity, tol)


def _validate(dec: SpectralDecomposition, source) -> SpectralDecomposition:
    checks = (("frame orthonormality", FRAME_TOL), ("reconstruction", RECONSTRUCTION_TOL))
    for (check, tol), residual in zip(checks, _residual_matrices(dec, source)):
        norm = _gated_norm(residual, tol)
        if norm > tol:
            raise ValueError(f"decomposition fails {check} check: residual {norm:.3e}")
    # Lines are sorted by turns, so the closest pair on the circle is adjacent.
    turns = dec.spectrum.turns
    if np.diff(turns, append=turns[0] + 1.0).min() <= dec.tolerances.cluster:
        raise ValueError("decomposition has phases closer than the cluster tolerance")
    return dec


def _turns(values: np.ndarray) -> np.ndarray:
    """The angle of each complex value in turns, rounded as ``Phase.from_turns(cmath.phase(v) / 2 pi)``.

    The angle is ``cmath.phase``'s: ``np.angle`` can differ from it in the last bit.
    """
    return _fold(np.array([cmath.phase(v) for v in values.tolist()]) / (2.0 * math.pi))


def _clusters(angles: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices in angle order with each cluster contiguous, and the index where each cluster starts.

    A step above ``tol`` between sorted angles starts a cluster; the last joins the first across 0/1.
    """
    order = np.argsort(angles, kind="stable")
    starts = np.flatnonzero(np.diff(angles[order], prepend=-np.inf) > tol)
    if len(starts) > 1 and (angles[order[0]] + 1.0) - angles[order[-1]] <= tol:
        shift = len(order) - starts[-1]
        return np.roll(order, shift), np.concatenate(([0], starts[1:-1] + shift))
    return order, starts


def _pole(arr: np.ndarray) -> complex:
    """e^{i psi} with cos(psi) the midpoint of the widest gap of [-1, eigenvalues of (U+U*)/2, 1]."""
    edges = np.concatenate(([-1.0], np.linalg.eigvalsh((arr + arr.conj().T) / 2), [1.0]))
    j = int(np.argmax(np.diff(edges)))
    return cmath.exp(1j * math.acos((edges[j] + edges[j + 1]) / 2))


# The pole tried first, at the irrational turn (sqrt(5) - 1) / 2, where no exact rational phase lies.
_FIXED_POLE = cmath.exp(1j * math.pi * (math.sqrt(5.0) - 1.0))


def _transform(arr: np.ndarray, pole: complex) -> np.ndarray:
    """The Cayley transform H = i (I+V)^{-1} (I-V) of V = -U / pole, symmetrised."""
    eye = np.eye(arr.shape[0])
    v = arr / -pole
    h = 1j * np.linalg.solve(eye + v, eye - v)
    return (h + h.conj().T) / 2


def _cayley(arr: np.ndarray) -> tuple[complex, np.ndarray]:
    """The pole and the Cayley transform H of U about it that ``decompose`` diagonalises.

    The fixed pole is kept when its H is finite with ||H||_F <= 2(d+1) sqrt(d); otherwise, or when
    its solve is singular, the widest-gap pole of ``_pole`` is taken, which keeps every eigenvalue
    |tan(phi/2)| <= 2(d+1) and so meets the same bound.
    """
    d = arr.shape[0]
    try:
        h = _transform(arr, _FIXED_POLE)
        if frobenius_norm(h) <= 2 * (d + 1) * math.sqrt(d):  # NaN and inf fail
            return _FIXED_POLE, h
    except np.linalg.LinAlgError:
        pass
    pole = _pole(arr)
    return pole, _transform(arr, pole)


def decompose(u, tol: Tolerances = Tolerances()) -> SpectralDecomposition:
    """Spectral decomposition of a unitary from a Hermitian eigensolver.

    With V = -U / e^{i psi} for a pole e^{i psi} off the spectrum, H = i (I+V)^{-1} (I-V) is
    Hermitian with eigenvalues tan(phi/2), phi the eigenphase of V: injective in the eigenphase.
    So ``eigh(H)`` returns an orthonormal eigenframe of U directly and no QR is needed.  The pole
    is first a fixed one at an irrational turn; its H is kept when ||H||_F <= 2(d+1) sqrt(d).
    Otherwise the real parts cos(theta_j) leave a gap of width at least 2/(d+1) in [-1, 1], and the
    pole at its midpoint is at least 1/(d+1) from every eigenvalue, so ||H|| <= 2(d+1) and the
    same Frobenius bound holds: every frame comes from an H within it.  The phases are the
    Rayleigh quotients w* U w, exact to rounding whatever ||H||, clustered at ``tol.cluster`` turns
    with wrap-around at 0/1.  A cluster's columns are its frame block, and its phase that of the
    sum (so of the mean) of its quotients.  All decomposition invariants are checked.
    ``source_unitarity`` is the value the unitarity gate ``linalg.require_unitary`` measured.
    """
    arr, source_res = require_unitary(u, tol.unitarity, name="input")
    try:
        _, vecs = np.linalg.eigh(_cayley(arr)[1])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ValueError(f"eigensolver failure: {exc}") from exc
    eigs = np.einsum("ij,ij->j", vecs.conj(), arr @ vecs)
    order, starts = _clusters(np.mod(np.angle(eigs) / (2.0 * math.pi), 1.0), tol.cluster)
    B = len(starts)
    turns = _turns(np.add.reduceat(eigs[order], starts))  # each its own numerator over L, so not divided back
    phases = PhaseSums(turns, np.zeros(B, dtype=bool), *_common([t.as_integer_ratio() for t in turns.tolist()]))
    labels = np.repeat(np.arange(B), np.diff(starts, append=len(order)))
    return _validate(_with_frame(phases, vecs[:, order], labels, source_res, tol), arr)


def from_eigensystem(phases, basis, tol: Tolerances = Tolerances()) -> tuple[np.ndarray, SpectralDecomposition]:
    """Build (U, decomposition) from per-column phases and a unitary eigenbasis.

    Equal phases are merged into one projection.  The returned unitary is the
    reconstruction itself, so the pair is exactly consistent.  The eigenbasis is gated on
    unitarity as ``decompose`` gates its input, and ``source_unitarity`` is that gate's value
    for the returned unitary.
    """
    basis, _ = require_unitary(basis, tol.unitarity, name="eigenbasis")
    d = basis.shape[0]
    if len(phases) != d:
        raise ValueError(f"need {d} phases, got {len(phases)}")
    groups: dict[Phase, int] = {}
    labels = np.array([groups.setdefault(ph, len(groups)) for ph in phases])
    dec = _with_frame(_summands_of(list(groups)), basis, labels, 0.0, tol)
    u = reconstruct(dec)
    dec = SpectralDecomposition(dec.dim, dec.spectrum, dec.frame, dec.blocks,
                                _gated_norm(u.conj().T @ u - np.eye(d), tol.unitarity), tol)
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


def resonant_partners(dec: SpectralDecomposition) -> tuple[int | None, ...]:
    """For each spectral line, the index of the line it resonates with.

    Line b resonates with b' when z_b * z_b' == 1: exactly for exact phases,
    within ``dec.tolerances.resonance`` on |z_b * z_b' - 1| otherwise.  Distinct
    phases admit at most one partner; ambiguity means the tolerance exceeds the
    phase separation and is rejected.  The pairing is symmetric, as its table is.
    """
    return dec._resonance.partners


def antidiagonal_spectrum(dec: SpectralDecomposition) -> tuple[Phase, ...]:
    """Phases whose product with some phase of the decomposition equals 1."""
    partners = resonant_partners(dec)
    return tuple(dec.phases[b] for b in range(len(partners)) if partners[b] is not None)


def invariant_projection(dec: SpectralDecomposition) -> np.ndarray:
    """Eigenprojection of the resonance record's phase-1 line, or the zero matrix when absent."""
    one = dec._resonance.one
    if one is None:
        return np.zeros((dec.dim, dec.dim), dtype=np.complex128)
    return dec.entries[one].projection
