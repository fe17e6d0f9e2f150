"""Spectral decompositions of unitary matrices.

Eigenphases are kept in turns (fractions of a full rotation, in [0, 1)),
either as exact rationals or as floats.  Exact phases make the resonance
test z*w == 1 an integer check on phase sums; float phases fall back to a
tolerance on |z*w - 1|.
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


class Phase(ValueRecord):
    """A point on the unit circle, stored as an angle in turns: how a phase is read in and printed.

    ``turns`` is always in [0, 1), and ``turns == float(frac)`` when ``frac`` makes it exact.  Phases
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

    def __format__(self, spec):
        return format(str(self), spec)

    def __str__(self):
        if self.frac is not None:
            return f"{self.frac.numerator}/{self.frac.denominator}"
        return repr(self.turns)


class PhaseSums(Record):
    """Phases, or the sums of every pair of them, as arrays.

    The sum of turns t_b and t_c is fl(t_b + t_c) mod 1 with a result of 1.0 taken as 0.0; it is
    exact iff both summands are.  Exact entries are ``numerators / denominator`` with Python-int
    numerators (object dtype, so a large denominator cannot overflow) and ``turns`` their correctly
    rounded float.  The horizon-independent factors of ``kernels`` are formed on its first call and
    kept, and so is the table of each of the last ``KERNEL_MEMO_HORIZONS`` horizons it was called at.
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
        """Centred turns t in [-1/2, 1/2), sin(pi t), and the centred numerators c of the exact sums, in
        [-L/2, L/2), whose t is c / L rounded once."""
        L = self.denominator
        c = self.numerators[self.exact]
        c = np.where(2 * c < L, c, c - L)
        t = np.where(self.turns < 0.5, self.turns, self.turns - 1.0)
        t[self.exact] = (c / L).astype(float)
        return t, np.sin(np.pi * t), c

    @cached_property
    def _kernel_memo(self) -> dict[int, np.ndarray]:
        return {}

    def kernels(self, N: int) -> np.ndarray:
        """The Cesaro kernel (1/N) sum_{n<N} z^n of every sum at horizon N (``engines.kernel``).

        The table is kept for later calls at N, so it is read-only: every caller shares it.  A table that
        is not finite (float sums from N ~ 5.7e307, where pi (N - 1) overflows) raises ``ValueError``.
        """
        memo = self._kernel_memo
        table = memo.get(N)
        if table is None:
            table = self._kernels(N)
            if not np.isfinite(table).all():
                raise ValueError(f"the kernel table at horizon N={N:.6e} is not finite")
            if len(memo) >= KERNEL_MEMO_HORIZONS:
                del memo[next(iter(memo))]
            table = memo[N] = _read_only(table)
        return table

    def _kernels(self, N: int) -> np.ndarray:
        t, sin_t, c = self._kernel_factors
        L = self.denominator
        # The Dirichlet form e^{i pi (N-1) t} (-1)^n sin(pi (N t - n)) / (N sin(pi t)) with n the integer nearest
        # N t, so the kernel vanishes exactly when N t is an integer.  An exact sum t = c / L takes the parity of
        # n, N t - n and (N - 1) t mod 2 in (-1, 1] from Python ints, each rounded once.
        with np.errstate(divide="ignore", invalid="ignore"):  # z == 1 gives 0/0, then set to 1
            n = np.round(N * t)
            odd, frac, angle = n % 2, N * t - n, math.pi * (N - 1) * t
            m = (2 * N * c + L) // (2 * L)  # the integer nearest N c / L
            odd[self.exact] = m % 2
            frac[self.exact] = (N * c - m * L) / L
            angle[self.exact] = math.pi * ((L - (L - (N - 1) * c) % (2 * L)) / L)
            ratio = np.where(odd, -1.0, 1.0) * np.sin(np.pi * frac) / (N * sin_t)
            out = np.empty(t.shape, dtype=np.complex128)
            out.real, out.imag = np.cos(angle) * ratio, np.sin(angle) * ratio
            out[t == 0.0] = 1.0
        return out


def _summands_of(phases) -> PhaseSums:
    """``phases`` as arrays: their turns mod 1 (a result of 1.0 taken as 0.0), exact mask, and
    numerators mod L over the common denominator L of the exact ones (0 when inexact), with L.  An
    exact phase's turns are its numerator over L, correctly rounded."""
    exact = np.array([ph.is_exact for ph in phases], dtype=bool)
    turns = np.mod(np.array([ph.turns for ph in phases], dtype=float), 1.0)
    turns[turns == 1.0] = 0.0  # rounding artifact of the modulo, as in Phase.from_turns
    denominator = math.lcm(*(ph.frac.denominator for ph in phases if ph.is_exact))
    numerators = np.array([ph.frac.numerator * (denominator // ph.frac.denominator) % denominator
                           if ph.is_exact else 0 for ph in phases], dtype=object)
    turns[exact] = (numerators[exact] / denominator).astype(float)
    return PhaseSums(turns, exact, numerators, denominator)


def _pairs_of(summands: PhaseSums) -> PhaseSums:
    """``PhaseSums`` of every pair of the phases ``summands`` holds, entry (b, c) the sum p_b + p_c."""
    turns = np.mod(summands.turns[:, None] + summands.turns, 1.0)
    turns[turns == 1.0] = 0.0  # rounding artifact of the modulo, as in Phase.from_turns
    exact = summands.exact[:, None] & summands.exact
    numerators = (summands.numerators[:, None] + summands.numerators) % summands.denominator
    turns[exact] = (numerators[exact] / summands.denominator).astype(float)
    return PhaseSums(turns, exact, numerators, summands.denominator)


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
    Python-int numerators over the common denominator L of the exact phases (a ``PhaseSums`` of one
    summand).  ``frame`` is an orthonormal eigenbasis with the columns of each line contiguous and
    in line order: column i lies in the eigenspace of line ``blocks[i]``, and line b's columns are
    its ``basis``.  Decompositions built by this module hold these arrays read-only.

    ``phases`` and ``entries`` (one ``Phase`` and one ``SpectralLine`` per line) are built from
    them on first read and kept: ``phases`` to print and to match the phases ``limit_truncated`` is
    given, ``entries`` for readers outside the package.  The tables the engines read are built on
    first use and kept on the instance too, so each is built once per decomposition: the phase sums
    of block pairs with the horizon-independent factors of their kernels and the kernel tables of
    recent horizons, the resonance record at its resonance tolerance, and the padded frame.  A new
    ``SpectralDecomposition`` built from its fields shares ``spectrum`` and starts with none of them.
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
    def _padded(self) -> tuple[np.ndarray, np.ndarray]:
        """The frame with each line's block zero-padded to the largest rank r, shape (d, B * r), and
        its conjugate transpose.

        Padded column b * r + j is column j of line b's basis for j < rank, and zero beyond.  So
        W_p^* M W_p, reshaped to (B, r, B, r), holds the r_a x r_b blocks of a matrix M in the
        frame, zero-padded; with every block of rank 1, W_p is the frame itself.
        """
        ranks = np.bincount(self.blocks)
        r = int(ranks.max())
        kept = (np.arange(r) < ranks[:, None]).ravel()
        padded = np.zeros((self.dim, kept.size), dtype=np.complex128)
        padded[:, kept] = self.frame
        return _read_only(padded), _read_only(padded.conj().T)


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
    return {
        "frame": operator_norm(dec.frame.conj().T @ dec.frame - np.eye(dec.dim)),
        "unitarity": dec.source_unitarity,
        "reconstruction": operator_norm(reconstruct(dec) - as_operator(source)),
    }


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
    for check, tol, residual in (
        ("frame orthonormality", FRAME_TOL, dec.frame.conj().T @ dec.frame - np.eye(dec.dim)),
        ("reconstruction", RECONSTRUCTION_TOL, reconstruct(dec) - as_operator(source)),
    ):
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
    turns = np.mod(np.array([cmath.phase(v) for v in values.tolist()]) / (2.0 * math.pi), 1.0)
    turns[turns == 1.0] = 0.0  # rounding artifact of the modulo, as in Phase.from_turns
    return turns


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
    phases = PhaseSums(_turns(np.add.reduceat(eigs[order], starts)), np.zeros(B, dtype=bool),
                       np.zeros(B, dtype=object), 1)
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
    start, stop = np.searchsorted(dec.blocks, (one, one + 1))
    basis = dec.frame[:, start:stop]
    return basis @ basis.conj().T
