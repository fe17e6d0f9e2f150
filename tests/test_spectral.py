import cmath
import math
import re
import warnings

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from entcesaro import spectral
from entcesaro.linalg import haar_unitary, operator_norm
from conftest import pairwise_residuals, phase_value, resonates
from entcesaro.spectral import (
    FRAME_TOL,
    RECONSTRUCTION_TOL,
    Phase,
    Tolerances,
    antidiagonal_spectrum,
    decompose,
    decomposition_residuals,
    from_eigensystem,
    invariant_projection,
    random_system,
    reconstruct,
    resonant_partners,
)

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

# Diagonal unitaries whose float phases split the scalar rules from the resonance record at the
# default tolerance 1e-8: 0.7 + 3e-11 resonates with 0.3 but is not its exact conjugate, and 1e-9
# is within the tolerance of 1 (|z - 1| = 6.3e-9) but does not resonate with itself (|z^2 - 1| = 1.3e-8).
FLOAT_RESONANCE_TURNS = {
    "near-conjugate": (0.3, 0.7 + 3e-11, 0.1, 0.55),
    "near-one": (1e-9, 0.3, 0.55),
}


def diagonal_system(turns):
    return decompose(np.diag(np.exp(2j * np.pi * np.array(turns))))


def antidiagonal_by_product_scan(dec, tol=1e-8):
    """Independent oracle: pairwise scan of |z*w - 1| over complex values."""
    values = [phase_value(ph.turns, ph.frac) for ph in dec.phases]
    out = []
    for b, z in enumerate(values):
        if any(abs(z * w - 1.0) <= tol for w in values):
            out.append(dec.phases[b])
    return tuple(out)


class TestPhase:
    def test_rational_reduction(self):
        ph = Phase(Fraction(2, 4))
        assert ph.frac == Fraction(1, 2)
        assert ph.turns == 0.5
        assert Phase(Fraction(5, 4)).frac == Fraction(1, 4)
        assert Phase(Fraction(-1, 4)).frac == Fraction(3, 4)

    def test_a_phase_is_folded_mod_1(self):
        assert Phase(1.25).turns == 0.25
        assert Phase(-0.25).turns == 0.75
        assert Phase(1.0).turns == 0.0
        assert str(Phase(-0.0)) == "0.0"  # the modulo's zero is +0.0
        assert Phase(-1e-20).turns == 0.0  # the modulo rounds to 1.0, read as 0.0
        assert Phase(-(2.0**-60)).turns == 0.0
        assert Phase(Fraction(-1, 3)) == Phase(Fraction(2, 3))
        assert not Phase(0.5).is_exact and Phase(Fraction(1, 2)).is_exact

    def test_two_names_for_one_point_are_one_phase(self):
        # Equal and of one hash, float with float and exact with exact; a float and an exact phase stay
        # apart, as exactness chooses the resonance test.  An int, a numpy float and a numpy int are read
        # as the float or the exact rational they hold.
        for a, b in [(1.5, 0.5), (-0.25, 0.75), (Fraction(4, 3), Fraction(1, 3)), (7, 0), (np.float64(2.5), 0.5),
                     (np.float32(0.25), 0.25), (np.int64(-2), Fraction(0)), (Fraction(3, 1), 0)]:
            assert Phase(a) == Phase(b) and hash(Phase(a)) == hash(Phase(b))
        assert Phase(0.5) != Phase(Fraction(1, 2)) and Phase(0.0) != Phase(0)
        assert type(Phase(np.float64(0.5)).turns) is float and type(Phase(np.int64(3)).frac) is Fraction

    def test_str_and_format_print_the_fraction_or_the_float(self):
        assert str(Phase(Fraction(2, 4))) == "1/2"
        assert str(Phase(3)) == "0/1"
        assert str(Phase(0.25)) == "0.25"
        assert f"{Phase(Fraction(1, 3)):>6}|{Phase(0.5):<5}|" == "   1/3|0.5  |"

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64("nan"), True, np.bool_(False),
                                       "0.5", None, 1j, complex(0.5, 0.0), [0.5]])
    def test_a_value_that_is_no_finite_turn_is_one_value_error_naming_it(self, value):
        # Refused where the phase is made, with no numpy warning first, so neither the kernels' integer ratios
        # (OverflowError on an infinite turn) nor a decomposition ever meets it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = f"a phase is a finite float or a rational number of turns, got {value!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Phase(value)

    def test_equal_phases_merge_into_one_line(self):
        # from_eigensystem groups its phases by equality and hash, however each was named.
        phases = [Phase(Fraction(1, 3)), Phase(Fraction(4, 3)), Phase(0)]
        _, dec = from_eigensystem(phases, np.eye(3))
        assert dec.phases == (Phase(0), Phase(Fraction(1, 3)))
        assert dec.blocks.tolist() == [0, 1, 1]

    def test_two_float_names_for_one_eigenvalue_merge_into_one_line(self):
        _, dec = from_eigensystem([Phase(1.5), Phase(0.5), Phase(0.25)], np.eye(3))
        assert dec.phases == (Phase(0.25), Phase(0.5))
        assert np.bincount(dec.blocks).tolist() == [1, 2]  # the ranks of the lines


class TestDecompose:
    def test_identity(self):
        dec = decompose(np.eye(3, dtype=complex))
        assert len(dec.entries) == 1
        assert resonates(dec.phases[0].turns, dec.phases[0].frac, 1e-12)
        np.testing.assert_allclose(dec.entries[0].projection, np.eye(3), atol=1e-14)

    def test_diagonal(self):
        dec = decompose(np.diag([1.0, -1.0]).astype(complex))
        assert [ph.turns for ph in dec.phases] == [0.0, 0.5]
        np.testing.assert_allclose(dec.entries[0].projection, np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(dec.entries[1].projection, np.diag([0.0, 1.0]), atol=1e-14)

    def test_swap_matrix(self):
        dec = decompose(SWAP)
        assert [ph.turns for ph in dec.phases] == [0.0, 0.5]
        np.testing.assert_allclose(dec.entries[0].projection, (np.eye(2) + SWAP) / 2, atol=1e-12)
        np.testing.assert_allclose(dec.entries[1].projection, (np.eye(2) - SWAP) / 2, atol=1e-12)
        np.testing.assert_allclose(reconstruct(dec), SWAP, atol=1e-12)

    def test_diagonal_returns_given_phases(self, rng):
        turns = [0.0, 0.125, 0.375, 0.8]
        u = np.diag([np.exp(2j * np.pi * t) for t in turns])
        dec = decompose(u)
        assert [ph.turns for ph in dec.phases] == pytest.approx(turns, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_roundtrip_and_invariants_haar(self, seed):
        u = haar_unitary(np.random.default_rng(seed), 5)
        dec = decompose(u)
        res = decomposition_residuals(dec, u)
        assert res["frame"] <= FRAME_TOL
        measured = pairwise_residuals(dec, u)
        assert measured["hermiticity"] <= 1e-10
        assert measured["idempotency"] <= 1e-10
        assert measured["orthogonality"] <= 1e-10
        assert measured["completeness"] <= 1e-10
        assert res["reconstruction"] <= 1e-10

    def test_degenerate_eigenvalues_merge_into_one_projection(self):
        phases = [Phase(Fraction(1, 3)), Phase(Fraction(1, 3)), Phase(0)]
        basis = haar_unitary(np.random.default_rng(9), 3)
        u, built = from_eigensystem(phases, basis)
        assert [line.basis.shape[1] for line in built.entries] == [1, 2]
        dec = decompose(u)
        assert len(dec.entries) == 2
        assert [line.basis.shape[1] for line in dec.entries] == [1, 2]
        for got, expected in zip(dec.entries, built.entries):
            np.testing.assert_allclose(got.projection, expected.projection, atol=1e-10)

    def test_eigenphase_cluster_wraps_around_zero(self):
        angles = [1e-12, 1.0 - 1e-12]
        u = np.diag([np.exp(2j * np.pi * t) for t in angles])
        dec = decompose(u)
        assert len(dec.entries) == 1
        assert resonates(dec.phases[0].turns, dec.phases[0].frac, 1e-8)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            decompose(np.diag([1.0, 0.5]))
        with pytest.raises(ValueError):
            decompose(np.ones((2, 3)))


class TestFrame:
    @pytest.mark.parametrize("seed", range(4))
    def test_frame_spans_each_projection(self, seed):
        _, rational = random_system(seed, 6, "rational", 4)
        haar = decompose(haar_unitary(np.random.default_rng(seed), 5))
        for dec in (rational, haar):
            assert operator_norm(dec.frame.conj().T @ dec.frame - np.eye(dec.dim)) <= 1e-12
            for b, line in enumerate(dec.entries):
                cols = dec.frame[:, dec.blocks == b]
                assert cols.shape[1] == line.basis.shape[1]
                np.testing.assert_allclose(cols @ cols.conj().T, line.projection, atol=1e-12)

    def test_rejects_frame_outside_projector_tolerance(self):
        # Residual 7e-11 passes the 1e-10 unitarity tolerance of the basis but
        # not the frame check, which must keep every projector residual <= 1e-10.
        basis = haar_unitary(np.random.default_rng(3), 3) * (1.0 + 3.5e-11)
        assert 6e-11 < operator_norm(basis.conj().T @ basis - np.eye(3)) < 1e-10
        with pytest.raises(ValueError, match="frame"):
            from_eigensystem([Phase(Fraction(j, 3)) for j in range(3)], basis)


class TestValidateGates:
    """Frame and reconstruction gates: a Frobenius pass accepts, otherwise the operator norm decides."""

    @staticmethod
    def _scaled_basis(d, residual):
        # (1 + e) W has W*W - I = ((1 + e)^2 - 1) I: operator norm ``residual``, Frobenius sqrt(d) times it.
        return haar_unitary(np.random.default_rng(5), d) * np.sqrt(1.0 + residual)

    def test_frame_just_above_tolerance_reports_operator_norm(self):
        basis = self._scaled_basis(3, 1.1 * FRAME_TOL)
        norm = np.linalg.norm(basis.conj().T @ basis - np.eye(3), 2)
        assert FRAME_TOL < norm < 1.2 * FRAME_TOL
        with pytest.raises(ValueError, match=f"frame orthonormality check: residual {norm:.3e}"):
            from_eigensystem([Phase(Fraction(j, 3)) for j in range(3)], basis)

    def test_frame_within_operator_norm_passes_a_failing_frobenius_test(self):
        basis = self._scaled_basis(4, 0.9 * FRAME_TOL)
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(4)) > FRAME_TOL
        from_eigensystem([Phase(Fraction(j, 4)) for j in range(4)], basis)

    def test_source_just_above_unitarity_tolerance_reports_operator_norm(self):
        tol = Tolerances()
        u = self._scaled_basis(4, 1.1 * tol.unitarity)
        norm = np.linalg.norm(u.conj().T @ u - np.eye(4), 2)
        with pytest.raises(ValueError, match=f"input fails unitarity: residual {norm:.3e} > {tol.unitarity:.3e}"):
            decompose(u, tol)

    def test_source_within_operator_norm_passes_a_failing_frobenius_test(self):
        tol = Tolerances()
        u = self._scaled_basis(4, 0.9 * tol.unitarity)
        residual = u.conj().T @ u - np.eye(4)
        assert np.linalg.norm(residual) > tol.unitarity
        assert decomposition_residuals(decompose(u, tol), u)["unitarity"] == np.linalg.norm(residual, 2)

    def test_reported_unitarity_is_the_gate_value(self):
        u = haar_unitary(np.random.default_rng(8), 6)
        residual = u.conj().T @ u - np.eye(6)
        reported = decomposition_residuals(decompose(u), u)["unitarity"]
        assert reported == np.linalg.norm(residual) >= np.linalg.norm(residual, 2)

    def test_reported_unitarity_does_not_depend_on_the_constructor(self):
        u, dec = random_system(2, 6, "rational", 5)
        residual = np.linalg.norm(u.conj().T @ u - np.eye(6))
        reported = [decomposition_residuals(d, u)["unitarity"] for d in (dec, decompose(u))]
        assert reported == [residual, residual]

    def test_residuals_are_measured_on_the_unitary_given(self):
        u, dec = random_system(2, 4, "rational", 5)
        v = 1.3 * u
        residual = v.conj().T @ v - np.eye(4)
        res = decomposition_residuals(dec, v)
        assert res["unitarity"] == np.linalg.norm(residual, 2)  # above the tolerance, the operator norm decides
        assert res["reconstruction"] == operator_norm(reconstruct(dec) - v)
        assert res["frame"] == decomposition_residuals(dec, u)["frame"]
        with pytest.raises(ValueError, match="^unitary has dimension 3, expected 4$"):
            decomposition_residuals(dec, np.eye(3))

    def test_a_decomposition_holds_only_spectral_data(self, monkeypatch):
        built = []

        class Counted(spectral.SpectralDecomposition):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr(spectral, "SpectralDecomposition", Counted)
        u, dec = random_system(2, 4, "rational", 5)
        assert built == [dec]  # from_eigensystem builds one record
        assert Counted._fields == ("spectrum", "frame", "blocks", "tolerances")
        assert dec.dim == dec.frame.shape[0] == 4

    @pytest.mark.parametrize("factor, passed", [(1.1, False), (0.9, True)])
    def test_verify_checks_the_frame_against_its_tolerance(self, monkeypatch, factor, passed):
        from entcesaro.scenario import Scenario
        from entcesaro.verify import run_invariant_suite

        scenario = Scenario({"unitary": {"kind": "random", "dim": 4, "seed": 5,
                                         "phaseMode": "rational", "maxDenominator": 4}})
        u, dec = scenario.system()
        # Built directly, so no construction gate runs: scaled by sqrt(1 + r), the frame has
        # ||W*W - I|| = r, and its reconstruction residual r stays within RECONSTRUCTION_TOL.
        scaled = spectral.SpectralDecomposition(dec.spectrum, dec.frame * np.sqrt(1.0 + factor * FRAME_TOL),
                                                dec.blocks, dec.tolerances)
        monkeypatch.setattr(scenario, "system", lambda: (u, scaled))
        checks = {check.name: check for check in run_invariant_suite(scenario)}
        assert checks["frame orthonormality"].passed is passed
        assert checks["frame orthonormality"].threshold == FRAME_TOL
        assert all(check.passed for name, check in checks.items() if name != "frame orthonormality")

    def test_reconstruction_just_above_tolerance_reports_operator_norm(self):
        _, dec = random_system(2, 4, "rational", 5)
        bump = np.zeros((4, 4), dtype=complex)
        bump[0, 0] = 1.1 * RECONSTRUCTION_TOL  # rank one: operator and Frobenius norms agree
        source = reconstruct(dec) + bump
        norm = np.linalg.norm(reconstruct(dec) - source, 2)
        with pytest.raises(ValueError, match=f"reconstruction check: residual {norm:.3e}"):
            spectral._validate(dec, source)

    def test_reconstruction_within_operator_norm_passes_a_failing_frobenius_test(self):
        _, dec = random_system(2, 4, "rational", 5)
        source = reconstruct(dec) + 0.9 * RECONSTRUCTION_TOL * np.eye(4)
        assert np.linalg.norm(reconstruct(dec) - source) > RECONSTRUCTION_TOL
        assert spectral._validate(dec, source) is dec


# Eigenphase clusters (turns) that stress the eigensolver: rank-16 blocks of
# exact rational phases, distinct phases 1e-7 turns apart (ten times the
# cluster tolerance) and a sub-tolerance cluster straddling the 0/1 seam.
HARD_SPECTRA = {
    "rank16-rational-d64": [[t] * 16 for t in (0.0, 0.25, 0.5, 0.75)],
    "pairs-1e-7-apart": [[c + s] for c in (0.05, 0.3, 0.55, 0.8) for s in (0.0, 1e-7)],
    "seam-cluster": [[-2e-11 % 1.0, -1e-11 % 1.0, 0.0, 1e-11, 2e-11],
                     [0.1], [0.3], [0.45, 0.45], [0.7], [0.9]],
}


def _circle_distance(a, b):
    return abs((a - b + 0.5) % 1.0 - 0.5)


def _hard_system(clusters, seed):
    """U = W diag(e^{2 pi i t}) W* in a Haar basis W, with each cluster's true projection."""
    turns = np.concatenate(clusters)
    labels = np.repeat(np.arange(len(clusters)), [len(c) for c in clusters])
    w = haar_unitary(np.random.default_rng(seed), len(turns))
    u = (w * np.exp(2j * np.pi * turns)) @ w.conj().T
    return u, [w[:, labels == c] @ w[:, labels == c].conj().T for c in range(len(clusters))]


def _line_at(dec, turns):
    (line,) = [l for l in dec.entries if _circle_distance(l.phase.turns, turns) <= dec.tolerances.cluster]
    return line


def _assert_frame_lines(dec):
    """Each line's basis is its block of the frame, held as a view; its rank is the block's width."""
    for b, line in enumerate(dec.entries):
        assert line.basis.shape[1] == np.count_nonzero(dec.blocks == b)
        assert np.shares_memory(line.basis, dec.frame)
        np.testing.assert_array_equal(line.basis, dec.frame[:, dec.blocks == b])


def _projection_atol(clusters, d):
    """Davis-Kahan: a backward error of 10 d eps moves a projection by at most that over the gap."""
    values = [np.exp(2j * np.pi * c[0]) for c in clusters]
    gap = min(abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :])
    return 10 * d * np.finfo(float).eps / gap


def _phase_path_reconstruct(dec):
    """W diag(z) W* with each z from ``cmath.exp`` of one phase at a time, exactly 1 at an exact 0."""
    z = np.array([phase_value(ph.turns, ph.frac) for ph in dec.phases])
    return (dec.frame * z[dec.blocks]) @ dec.frame.conj().T


def _array_phase_systems(name):
    """(decompositions, their unitaries) of one kind, and the phases given to ``from_eigensystem`` (or None)."""
    rng = np.random.default_rng(len(name))
    if name == "haar":
        return [(decompose(u), u, None) for u in (haar_unitary(rng, d) for d in (5, 17, 64))]
    if name == "exact":
        phases = [Phase(Fraction(int(rng.integers(0, q)), q)) for q in rng.integers(1, 8, 12).tolist()]
        return [(*from_eigensystem(phases, haar_unitary(rng, 12))[::-1], phases)]
    if name == "merged":  # decompose merges the repeated exact phases into clusters
        u, _ = random_system(4, 12, "rational", 3)
        return [(decompose(u), u, None)]
    # The seam: a cluster straddling 0/1, and phases whose turns round to 1.0 and are taken as 0.0.
    u, _ = _hard_system(HARD_SPECTRA["seam-cluster"], 3)
    phases = [Phase(t) for t in (-1e-17, 0.5, 1.0 - 1e-7, 1e-7, 0.25)]
    return [(decompose(u), u, None), (*from_eigensystem(phases, haar_unitary(rng, 5))[::-1], phases)]


class TestArrayPhases:
    """The phase arrays a decomposition stores give the phases and the reconstruction of the ``Phase``
    path bit for bit: ``Phase(cmath.phase(m) / 2 pi)`` of each cluster sum m, and ``phase_value`` of
    each phase."""

    def test_turns_round_as_cmath_phase(self):
        # np.angle can differ from cmath.phase in the last bit; the turns must not.
        rng = np.random.default_rng(15)
        values = np.exp(2j * np.pi * rng.random(20000)) * rng.uniform(0.5, 2.0, 20000)
        seam = [complex(x, y) for x in (1.0, -1.0, 1e-300) for y in (0.0, -0.0, 1e-300, -1e-300, 1e-17, -1e-17)]
        values = np.concatenate([values, seam])
        expected = [Phase(cmath.phase(v) / (2.0 * math.pi)).turns for v in values.tolist()]
        assert spectral._turns(values).tolist() == expected
        assert spectral._turns(np.array([complex(1.0, -1e-300)])).tolist() == [0.0]  # the modulo rounds to 1.0

    def test_the_phase_arrays_read_a_modulo_of_one_as_zero(self):
        # As Phase and _turns do: the turns of a phase, and a pair sum that rounds to 1.0.
        assert spectral._summands_of([Phase(-(2.0**-60)), Phase(0.25)]).turns.tolist() == [0.0, 0.25]
        pairs = spectral._pairs_of(spectral._summands_of([Phase(0.5), Phase(0.5 - 2.0**-54)]))
        assert pairs.turns[0, 1] == pairs.turns[1, 0] == 0.0

    @pytest.mark.parametrize("name", ["haar", "exact", "merged", "seam"])
    def test_phases_and_reconstruction_match_the_phase_path(self, monkeypatch, name):
        sums = []  # the cluster sums m of each decompose call, in call order
        turns_of = spectral._turns
        monkeypatch.setattr(spectral, "_turns", lambda values: sums.append(values) or turns_of(values))
        systems = _array_phase_systems(name)
        for dec, u, given in systems:
            if given is None:
                lines = [Phase(cmath.phase(m) / (2.0 * math.pi)) for m in sums.pop(0).tolist()]
            else:
                lines = list(dict.fromkeys(given))
            expected = sorted(lines, key=lambda ph: ph.turns)
            assert [(ph.turns, ph.frac) for ph in dec.phases] == [(ph.turns, ph.frac) for ph in expected]
            assert reconstruct(dec).tobytes() == _phase_path_reconstruct(dec).tobytes()
            if given is not None:  # the unitary from_eigensystem returns is the reconstruction
                assert u.tobytes() == _phase_path_reconstruct(dec).tobytes()
        assert not sums


class TestHardSpectra:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", sorted(HARD_SPECTRA))
    def test_ranks_residuals_and_true_projections(self, name, seed):
        clusters = HARD_SPECTRA[name]
        u, truth = _hard_system(clusters, seed)
        dec = decompose(u)
        assert len(dec.entries) == len(clusters)
        assert operator_norm(dec.frame.conj().T @ dec.frame - np.eye(dec.dim)) <= FRAME_TOL
        assert operator_norm(reconstruct(dec) - u) <= RECONSTRUCTION_TOL
        _assert_frame_lines(dec)
        atol = _projection_atol(clusters, u.shape[0])
        for cluster, proj in zip(clusters, truth):
            line = _line_at(dec, cluster[0])
            assert line.basis.shape[1] == len(cluster)
            np.testing.assert_allclose(line.projection, proj, rtol=0, atol=atol)

    @pytest.mark.parametrize("name", sorted(HARD_SPECTRA))
    def test_projections_match_schur_reference(self, name):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        clusters = HARD_SPECTRA[name]
        u, _ = _hard_system(clusters, 0)
        dec = decompose(u)
        t, z = scipy_linalg.schur(u, output="complex")
        schur_turns = np.mod(np.angle(np.diagonal(t)) / (2 * np.pi), 1.0)
        atol = _projection_atol(clusters, u.shape[0])
        for cluster in clusters:
            q, _ = np.linalg.qr(z[:, _circle_distance(schur_turns, cluster[0]) <= dec.tolerances.cluster])
            assert q.shape[1] == len(cluster)
            np.testing.assert_allclose(_line_at(dec, cluster[0]).projection, q @ q.conj().T, rtol=0, atol=atol)


def _residual_systems():
    for seed in range(3):
        u = haar_unitary(np.random.default_rng(seed), 12)
        yield f"haar-{seed}", u, decompose(u)
        yield f"rational-{seed}", *random_system(seed, 10, "rational", 3)
    for name in sorted(HARD_SPECTRA):
        u, _ = _hard_system(HARD_SPECTRA[name], 0)
        yield name, u, decompose(u)


@pytest.mark.parametrize("name,u,dec", list(_residual_systems()), ids=lambda v: v if isinstance(v, str) else "")
def test_residual_bounds_dominate_the_pairwise_measurement(name, u, dec):
    residuals = decomposition_residuals(dec, u)
    measured = pairwise_residuals(dec, u)
    # The frame residual e implies every projection residual: the projections are Hermitian by
    # construction, idempotency and orthogonality are at most (1 + e) e, and completeness is e.
    e = residuals["frame"]
    bounds = {"hermiticity": 0.0, "idempotency": (1 + e) * e, "orthogonality": (1 + e) * e,
              "completeness": e, "reconstruction": residuals["reconstruction"]}
    # The measurement forms each projection and product in floating point, d-term inner products
    # whose rounding, up to about d eps, is not a residual of the projections themselves.
    rounding = 4 * dec.dim * np.finfo(float).eps
    for key, value in measured.items():
        assert bounds[key] + rounding >= value, key
    assert set(residuals) == {"frame", "unitarity", "reconstruction"}
    assert residuals["reconstruction"] == measured["reconstruction"]


# Spectra that stress the choice of the Cayley pole and the frame blocks.
# Turns of 0 and 1/2 give the eigenvalues 1 and -1 exactly.
CAYLEY_SPECTRA = {
    # theta and -theta share a real part, so the Hermitian part alone merges them.
    "conjugate-pairs": [[t] for t in (0.1, 0.9, 0.2, 0.8, 0.35, 0.65, 0.45, 0.55)],
    "minus-identity": [[0.5] * 8],
    "plus-minus-one": [[0.0] * 3, [0.5] * 3, [0.25], [0.6]],
    # A Haar basis times the Fourier basis is again Haar: this is the cyclic
    # shift of C^64 in a Haar basis; its 64 roots of unity leave the narrowest
    # widest gap of the real parts.
    "cyclic-shift-d64": [[k / 64] for k in range(64)],
    "rank1-and-rank16": [[0.0] * 16, [0.5] * 16] + [[t] for t in (0.1, 0.2, 0.3, 0.6, 0.7, 0.8, 0.9, 0.95)],
}


def _cayley_system(clusters, seed):
    """U = W diag(z) W* in a Haar basis W; returns U, the eigenvalue of each cluster and its projection."""
    turns = np.concatenate(clusters)
    labels = np.repeat(np.arange(len(clusters)), [len(c) for c in clusters])
    values = np.where(turns == 0.5, -1.0, np.exp(2j * np.pi * turns))
    w = haar_unitary(np.random.default_rng(seed), len(turns))
    u = (w * values) @ w.conj().T
    projections = [w[:, labels == c] @ w[:, labels == c].conj().T for c in range(len(clusters))]
    return u, values[np.cumsum([0] + [len(c) for c in clusters[:-1]])], projections


def _loop_clusters(angles, tol):
    """The per-index clustering loop that ``spectral._clusters`` replaced, kept as its reference."""
    clusters = []
    for idx in np.argsort(angles, kind="stable"):
        if clusters and angles[idx] - angles[clusters[-1][-1]] <= tol:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    if len(clusters) > 1:
        first, last = clusters[0], clusters[-1]
        if (angles[first[0]] + 1.0) - angles[last[-1]] <= tol:
            clusters[0] = last + first
            clusters.pop()
    return clusters


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([0.0, 0.3, 0.5, 1.0 - 2e-8]), st.integers(-3, 3)), min_size=1, max_size=12),
    st.sampled_from([1e-8, 0.25, 2.0]),
)
def test_clusters_match_the_loop(points, tol):
    # Steps of half the 1e-8 tolerance put neighbours on, inside and outside it, also across 0/1.
    angles = np.mod([base + step * 0.5e-8 for base, step in points], 1.0)
    order, starts = spectral._clusters(angles, tol)
    ends = [*starts[1:], len(order)]
    assert [order[a:b].tolist() for a, b in zip(starts, ends)] == _loop_clusters(angles, tol)


class TestCayleyEigensolve:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", sorted(CAYLEY_SPECTRA))
    def test_ranks_and_true_projections(self, name, seed):
        clusters = CAYLEY_SPECTRA[name]
        u, _, truth = _cayley_system(clusters, seed)
        dec = decompose(u)
        assert len(dec.entries) == len(clusters)
        _assert_frame_lines(dec)
        # One cluster has the projection I; take its gap as the circle's diameter.
        atol = _projection_atol(clusters, u.shape[0]) if len(clusters) > 1 else 5 * u.shape[0] * np.finfo(float).eps
        for cluster, proj in zip(clusters, truth):
            line = _line_at(dec, cluster[0])
            assert line.basis.shape[1] == len(cluster)
            np.testing.assert_allclose(line.projection, proj, rtol=0, atol=atol)

    @pytest.mark.parametrize("name", sorted(CAYLEY_SPECTRA))
    def test_reconstruct_is_the_spectral_sum(self, name):
        u, _, _ = _cayley_system(CAYLEY_SPECTRA[name], 0)
        dec = decompose(u)
        spectral_sum = sum(phase_value(line.phase.turns, line.phase.frac) * line.projection for line in dec.entries)
        np.testing.assert_allclose(reconstruct(dec), spectral_sum, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("name", sorted(CAYLEY_SPECTRA))
    def test_pole_keeps_its_distance_from_the_spectrum(self, name):
        u, values, _ = _cayley_system(CAYLEY_SPECTRA[name], 0)
        pole = spectral._pole(u)
        assert abs(abs(pole) - 1.0) <= 1e-15
        assert np.abs(values - pole).min() >= 1.0 / (u.shape[0] + 1)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("clusters,system",
                             [pytest.param(CAYLEY_SPECTRA[n], _cayley_system, id=n) for n in sorted(CAYLEY_SPECTRA)]
                             + [pytest.param(HARD_SPECTRA[n], _hard_system, id=n) for n in sorted(HARD_SPECTRA)])
    def test_transform_meets_the_frobenius_bound(self, clusters, system, seed):
        u = system(clusters, seed)[0]
        d = u.shape[0]
        pole, h = spectral._cayley(u)
        assert pole == spectral._FIXED_POLE or pole == spectral._pole(u)
        assert np.linalg.norm(h) <= 2 * (d + 1) * np.sqrt(d)

    def test_haar_draws_mostly_keep_the_fixed_pole(self):
        kept = [spectral._cayley(haar_unitary(np.random.default_rng(seed), 64))[0] == spectral._FIXED_POLE
                for seed in range(20)]
        assert sum(kept) >= 18

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("offset", [0.0, 1e-12, 1e-4])
    def test_eigenvalue_at_the_fixed_pole_takes_the_widest_gap_pole(self, offset, seed):
        at_pole = np.angle(spectral._FIXED_POLE) / (2 * np.pi) % 1.0 + offset
        clusters = [[at_pole] * 2, [0.1], [0.3], [0.45, 0.45], [0.9]]
        u, truth = _hard_system(clusters, seed)
        d = u.shape[0]
        pole, h = spectral._cayley(u)
        assert pole != spectral._FIXED_POLE and pole == spectral._pole(u)
        assert np.linalg.norm(h) <= 2 * (d + 1) * np.sqrt(d)
        dec = decompose(u)
        assert len(dec.entries) == len(clusters)
        atol = _projection_atol(clusters, d)
        for cluster, proj in zip(clusters, truth):
            line = _line_at(dec, cluster[0])
            assert line.basis.shape[1] == len(cluster)
            np.testing.assert_allclose(line.projection, proj, rtol=0, atol=atol)


class TestAntidiagonal:
    def test_examples(self):
        dec = decompose(np.diag([1.0, -1.0]).astype(complex))
        assert [ph.turns for ph in antidiagonal_spectrum(dec)] == [0.0, 0.5]

        golden = 0.3819660112501051
        dec = decompose(np.diag([1.0, np.exp(2j * np.pi * golden)]))
        sigma = antidiagonal_spectrum(dec)
        assert len(sigma) == 1 and resonates(sigma[0].turns, sigma[0].frac, 1e-8)

        dec = decompose(np.diag([np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)]))
        assert len(antidiagonal_spectrum(dec)) == 2

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_pairwise_product_scan(self, seed):
        mode = "rational" if seed % 2 else "haar"
        _, dec = random_system(seed, 4, mode, 6)
        assert antidiagonal_spectrum(dec) == antidiagonal_by_product_scan(dec)

    @pytest.mark.parametrize("seed", range(8))
    def test_closed_under_conjugation(self, seed):
        _, dec = random_system(seed, 5, "rational", 8)
        fracs = {ph.frac for ph in antidiagonal_spectrum(dec)}
        for frac in fracs:
            assert -frac % 1 in fracs

    def test_phase_one_always_antidiagonal(self):
        # The lines the invariant projection acts on: the rational system's phase 0/1, and none of the
        # float systems'.  Each lies in the antidiagonal spectrum.
        expected = {"rational": [0], "near-conjugate": [], "near-one": []}
        for name, dec in [("rational", random_system(2, 4, "rational", 6)[1]),
                          *((name, diagonal_system(t)) for name, t in FLOAT_RESONANCE_TURNS.items())]:
            e1 = invariant_projection(dec)
            sigma = antidiagonal_spectrum(dec)
            hit = [b for b in range(len(dec.phases)) if np.linalg.norm(e1 @ dec.frame[:, dec.blocks == b]) > 0.5]
            assert hit == expected[name]
            assert all(dec.phases[b] in sigma for b in hit)

    def test_partner_map_is_symmetric_involution(self):
        for dec in (random_system(13, 6, "rational", 6)[1], *map(diagonal_system, FLOAT_RESONANCE_TURNS.values())):
            partners = resonant_partners(dec)
            for b, c in enumerate(partners):
                if c is not None:
                    assert partners[c] == b
                    z, w = (phase_value(dec.phases[j].turns, dec.phases[j].frac) for j in (b, c))
                    assert abs(z * w - 1.0) <= dec.tolerances.resonance
        assert resonant_partners(diagonal_system(FLOAT_RESONANCE_TURNS["near-conjugate"])) == (None, 3, None, 1)


class TestInvariantProjection:
    def test_examples(self):
        np.testing.assert_array_equal(invariant_projection(decompose(np.eye(3, dtype=complex))), np.eye(3))
        np.testing.assert_allclose(
            invariant_projection(decompose(np.diag([1.0, -1.0]).astype(complex))),
            np.diag([1.0, 0.0]),
            atol=1e-14,
        )
        dec = decompose(np.diag([np.exp(2j * np.pi / 5)]))
        np.testing.assert_array_equal(invariant_projection(dec), np.zeros((1, 1)))
        # 1e-9 turns is within the tolerance of 1 but does not resonate with itself.
        dec = diagonal_system(FLOAT_RESONANCE_TURNS["near-one"])
        np.testing.assert_array_equal(invariant_projection(dec), np.zeros((3, 3)))


class TestRandomSystem:
    def test_seed_determinism(self):
        u1, _ = random_system(42, 4, "haar")
        u2, _ = random_system(42, 4, "haar")
        assert np.array_equal(u1, u2)
        v1, _ = random_system(42, 4, "rational", 6)
        v2, _ = random_system(42, 4, "rational", 6)
        assert np.array_equal(v1, v2)

    def test_rational_denominator_cap(self):
        for seed in range(10):
            _, dec = random_system(seed, 5, "rational", 6)
            assert all(ph.frac is not None and ph.frac.denominator <= 6 for ph in dec.phases)

    def test_haar_unitarity(self):
        u, dec = random_system(7, 4, "haar")
        assert decomposition_residuals(dec, u)["unitarity"] <= 1e-12

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            random_system(0, 0)
        with pytest.raises(ValueError):
            random_system(0, 65)
        with pytest.raises(ValueError):
            random_system(0, 3, "bogus")

    @pytest.mark.parametrize("d", [2.5, True, "3"])
    def test_a_dimension_that_is_not_an_integer_is_refused_naming_it(self, d):
        with pytest.raises(ValueError, match=f"^dimension must be an integer, got {re.escape(repr(d))}$"):
            random_system(1, d)

    def test_a_numpy_integer_dimension_is_read_as_its_int(self):
        u, dec = random_system(1, np.int64(3))
        np.testing.assert_array_equal(u, random_system(1, 3)[0])
        assert dec.dim == 3


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(unitarity=0.0)
    with pytest.raises(ValueError):
        Tolerances(cluster=-1e-9)
    with pytest.raises(ValueError):
        Tolerances(resonance=float("nan"))


@pytest.mark.parametrize("name", ["unitarity", "cluster", "resonance"])
def test_a_tolerance_that_is_not_finite_is_refused_naming_it(name):
    # An infinite cluster tolerance would merge every phase into one empty cluster, and an infinite
    # unitarity tolerance would switch the unitarity gate off.
    with pytest.raises(ValueError, match=f"^tolerance {name} must be positive and finite, got inf$"):
        Tolerances(**{name: math.inf})


@pytest.mark.parametrize("name", ["unitarity", "cluster", "resonance"])
@pytest.mark.parametrize("value", [True, np.True_])
def test_a_bool_tolerance_is_refused_naming_it(name, value):
    # True is 1: a unitarity tolerance of True would pass residuals up to 1, such as 0.69 for 1.3 I.
    message = f"^tolerance {name} must be positive and finite, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        Tolerances(**{name: value})


def test_from_eigensystem_requires_matching_lengths():
    with pytest.raises(ValueError):
        from_eigensystem([Phase(0)], np.eye(2))
