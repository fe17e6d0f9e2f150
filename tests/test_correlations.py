import math

import numpy as np
import pytest

from entcesaro import correlations
from entcesaro.correlations import (
    STATE_TOL,
    CorrelationSpec,
    DynamicalSystem,
    cesaro_correlation,
    correlation_bounds,
    correlation_limit,
    correlation_term,
    make_system,
)
from entcesaro.engines import cesaro_direct, cesaro_spectral, error_bound
from entcesaro.linalg import ROUNDING_TOL, ROUNDING_TOL as IDENTITY_TOL, bound_excess, haar_unitary, operator_norm
from entcesaro.partitions import parse_partition
from entcesaro.spectral import Phase, decompose, from_eigensystem

from conftest import invariant_system, random_ops

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
DIAG_PM = np.diag([1.0, -1.0]).astype(complex)
P11 = parse_partition("1,1")
P1221 = parse_partition("1,2,2,1")
P1212 = parse_partition("1,2,1,2")


class TestMakeSystem:
    def test_vector_state_examples(self):
        sys1 = make_system(DIAG_PM, np.array([1.0, 0.0]))
        np.testing.assert_array_equal(sys1.density, np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            make_system(DIAG_PM, np.array([1.0, 1.0]) / np.sqrt(2))
        with pytest.raises(ValueError):
            make_system(DIAG_PM, np.zeros(2))

    def test_state_checks_read_one_tolerance(self):
        # Under diag(1, -1), omega = (1, delta) / norm has density T = omega omega*, and
        # ||UT - T||_F = ||U omega - omega|| = 2 delta / norm.
        for delta, invariant in ((0.3 * STATE_TOL, True), (0.6 * STATE_TOL, False)):
            omega = np.array([1.0, delta])
            if invariant:
                assert make_system(DIAG_PM, omega).density.shape == (2, 2)
            else:
                with pytest.raises(ValueError, match=r"state is not invariant under the unitary \(UT = T = TU fails\)"):
                    make_system(DIAG_PM, omega)
        # There is no per-call tolerance, so a NaN cannot accept a state that U does not fix.
        with pytest.raises(ValueError, match="not invariant"):
            make_system(DIAG_PM, np.array([0.0, 1.0]))
        with pytest.raises(TypeError):
            make_system(DIAG_PM, np.array([0.0, 1.0]), tol=float("nan"))
        with pytest.raises(TypeError):  # the decomposition and its tolerances are keywords
            make_system(DIAG_PM, np.array([1.0, 0.0]), float("nan"))

    def test_vector_state_is_normalized(self):
        system = make_system(np.eye(2, dtype=complex), np.array([3.0, 4.0j]))
        np.testing.assert_allclose(system.density, np.array([[9.0, -12.0j], [12.0j, 16.0]]) / 25.0, atol=1e-15)

    @pytest.mark.parametrize("size", [1e-200, 1e200])
    def test_a_tiny_or_huge_vector_state_is_normalized(self, size):
        # The squared entries under- or overflow; the vector is scaled by a power of two before its norm.
        np.testing.assert_array_equal(make_system(np.eye(2), [size, 0.0]).density, np.diag([1.0, 0.0]))
        near = 2.0 ** round(np.log2(size))  # a power of two, so the scaled vector is exact
        np.testing.assert_array_equal(make_system(np.eye(2), [3.0 * near, 4.0j * near]).density,
                                      make_system(np.eye(2), [3.0, 4.0j]).density)
        with pytest.raises(ValueError, match="^state vector must be nonzero$"):
            make_system(np.eye(2), [0.0, 0.0])

    def test_trace_state_examples(self):
        sys2 = make_system(DIAG_PM, np.diag([1.0, 0.0]).astype(complex))
        np.testing.assert_array_equal(sys2.density, np.diag([1.0, 0.0]))
        # not supported inside the invariant eigenspace
        with pytest.raises(ValueError):
            make_system(DIAG_PM, np.diag([0.0, 1.0]).astype(complex))
        # not normalized
        with pytest.raises(ValueError):
            make_system(DIAG_PM, np.diag([2.0, 0.0]).astype(complex))
        # not positive
        with pytest.raises(ValueError):
            make_system(np.eye(2, dtype=complex), np.diag([1.5, -0.5]).astype(complex))
        # not self-adjoint
        with pytest.raises(ValueError):
            make_system(np.eye(2, dtype=complex), np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_a_vector_state_meets_the_support_check(self):
        # ||U omega - omega|| is 2 pi 2e-8 5e-4 / norm, about 6.3e-11, within STATE_TOL, but 5e-4 of omega lies
        # on the line of phase 2e-8, which is not the phase-1 line at the resonance tolerance 1e-8.
        u = np.diag([1.0, np.exp(2j * np.pi * 2e-8)])
        omega = np.array([1.0, 5e-4]) / math.hypot(1.0, 5e-4)
        for state in (omega, np.outer(omega, omega.conj())):
            with pytest.raises(ValueError, match="^density operator is not supported inside the invariant eigenspace$"):
                make_system(u, state)
        assert make_system(u, np.array([1.0, 0.0])).density[0, 0] == 1.0

    def test_trace_state_with_rotated_support(self):
        u, dec, omega, basis = invariant_system(5, 4, zero_multiplicity=2)
        t = 0.5 * np.outer(basis[:, 0], basis[:, 0].conj()) + 0.5 * np.outer(basis[:, 1], basis[:, 1].conj())
        system = make_system(u, t, dec=dec)
        np.testing.assert_array_equal(system.density, t)

    def test_state_invariance_under_conjugation(self):
        u, dec, omega, _ = invariant_system(7, 4)
        system = make_system(u, omega, dec=dec)
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            conjugated = u @ a @ u.conj().T
            assert system.expect(conjugated) == pytest.approx(system.expect(a), abs=1e-10)


class TestCorrelationTerm:
    def test_identity_dynamics_independent_of_n(self, rng):
        ops = random_ops(rng, 3, 2)
        system = make_system(np.eye(2, dtype=complex), np.array([1.0, 0.0]))
        spec = CorrelationSpec(P11, tuple(ops))
        values = {correlation_term(system, spec, [n]) for n in (0, 1, 5, 9)}
        expected = np.vdot([1, 0], (ops[0] @ ops[1] @ ops[2]) @ np.array([1, 0]))
        assert len(values) == 1
        assert values.pop() == pytest.approx(complex(expected), abs=1e-12)

    def test_parity_example(self):
        system = make_system(DIAG_PM, np.array([1.0, 0.0]))
        spec = CorrelationSpec(P11, (SWAP, SWAP, np.eye(2, dtype=complex)))
        for n in range(6):
            assert correlation_term(system, spec, [n]) == pytest.approx((-1.0) ** n, abs=1e-12)

    def test_gamma_form_equals_sandwich_form(self):
        u, dec, omega, _ = invariant_system(11, 4)
        rng = np.random.default_rng(4)
        ops = random_ops(rng, 5, 4)
        system = make_system(u, omega, dec=dec)
        spec = CorrelationSpec(P1212, tuple(ops))
        scale = max(1.0, max(operator_norm(a) for a in ops))
        for _ in range(25):
            n = [int(v) for v in rng.integers(0, 40, size=2)]
            value = correlation_term(system, spec, n)
            # independent re-evaluation of the automorphism form
            gamma = ops[0].copy()
            cumulative = 0
            for i, lab in enumerate(P1212.labels, start=1):
                cumulative += n[lab - 1]
                um = np.linalg.matrix_power(u, cumulative)
                gamma = gamma @ (um @ ops[i] @ um.conj().T)
            assert value == pytest.approx(complex(np.vdot(omega, gamma @ omega)), abs=1e-11)
            # and of the sandwiched form, which must agree to 1e-12 per unit of the largest norm
            sandwich = ops[0].copy()
            for i, lab in enumerate(P1212.labels, start=1):
                sandwich = sandwich @ np.linalg.matrix_power(u, n[lab - 1]) @ ops[i]
            assert abs(value - complex(np.vdot(omega, sandwich @ omega))) <= 1e-12 * scale

    def test_the_identity_is_checked_at_one_constant(self):
        # Under U = diag(1, i) the state of omega = (1, delta) / norm is not invariant: with every
        # observable I, the automorphism form is omega(I) = 1 and the sandwiched form omega(U^2) differs
        # from it by 2 delta^2 / (1 + delta^2), here ratio * IDENTITY_TOL.
        u = np.diag([1.0, 1j])
        spec = CorrelationSpec(P11, (np.eye(2, dtype=complex),) * 3)
        for ratio, passes in ((0.5, True), (2.0, False)):
            delta = math.sqrt(ratio * IDENTITY_TOL / (2.0 - ratio * IDENTITY_TOL))
            omega = np.array([1.0, delta]) / math.hypot(1.0, delta)
            system = DynamicalSystem(u, decompose(u), np.outer(omega, omega.conj()))
            if passes:
                assert correlation_term(system, spec, [1]) == pytest.approx(1.0, abs=1e-15)
            else:
                with pytest.raises(ValueError, match="correlation identity violated"):
                    correlation_term(system, spec, [1])
        for keyword in ("check_identity", "identity_tol"):
            with pytest.raises(TypeError):
                correlation_term(system, spec, [1], **{keyword: 1e-6})

    def test_rejects_bad_exponents(self):
        system = make_system(DIAG_PM, np.array([1.0, 0.0]))
        spec = CorrelationSpec(P11, (SWAP, SWAP, np.eye(2, dtype=complex)))
        with pytest.raises(ValueError):
            correlation_term(system, spec, [1, 2])
        with pytest.raises(ValueError):
            correlation_term(system, spec, [-1])

    @pytest.mark.parametrize("exponent", [1.7, 2.0, True, np.float64(3.0), "2"])
    def test_rejects_non_integer_exponents(self, exponent):
        system = make_system(DIAG_PM, np.array([1.0, 0.0]))
        spec = CorrelationSpec(P11, (SWAP, SWAP, np.eye(2, dtype=complex)))
        with pytest.raises(ValueError, match="exponents must be nonnegative integers"):
            correlation_term(system, spec, [exponent])
        assert correlation_term(system, spec, [np.int64(3)]) == correlation_term(system, spec, [3])


class TestCesaroCorrelation:
    @pytest.mark.parametrize("horizon", [2.5, 3.0, True, 0, "3"])
    def test_rejects_a_horizon_that_is_not_a_positive_integer(self, horizon):
        system = make_system(DIAG_PM, np.array([1.0, 0.0]))
        spec = CorrelationSpec(P11, (SWAP, SWAP, np.eye(2, dtype=complex)))
        with pytest.raises(ValueError, match="horizon N must be a positive integer"):
            cesaro_correlation(system, spec, horizon)

    def test_identity_dynamics(self, rng):
        ops = random_ops(rng, 5, 3)
        system = make_system(np.eye(3, dtype=complex), np.array([1.0, 0.0, 0.0]))
        spec = CorrelationSpec(P1221, tuple(ops))
        expected = system.expect(ops[0] @ ops[1] @ ops[2] @ ops[3] @ ops[4])
        for n in (1, 3, 10):
            assert cesaro_correlation(system, spec, n) == pytest.approx(expected, abs=1e-12)

    def test_parity_average(self):
        system = make_system(DIAG_PM, np.array([1.0, 0.0]))
        spec = CorrelationSpec(P11, (SWAP, SWAP, np.eye(2, dtype=complex)))
        assert cesaro_correlation(system, spec, 10) == 0.0
        assert cesaro_correlation(system, spec, 9) == pytest.approx(1.0 / 9.0)
        assert correlation_limit(system, spec) == 0.0

    def test_matches_termwise_average(self):
        u, dec, omega, _ = invariant_system(13, 3)
        rng = np.random.default_rng(2)
        ops = random_ops(rng, 5, 3)
        system = make_system(u, omega, dec=dec)
        spec = CorrelationSpec(P1221, tuple(ops))
        n = 5
        literal = np.mean(
            [correlation_term(system, spec, [a, b]) for a in range(n) for b in range(n)]
        )
        assert cesaro_correlation(system, spec, n) == pytest.approx(complex(literal), abs=1e-11)

    @pytest.mark.parametrize("engine", ["direct", "spectral"])
    def test_cross_module_identity(self, engine):
        u, dec, omega, _ = invariant_system(17, 4)
        rng = np.random.default_rng(3)
        ops = random_ops(rng, 5, 4)
        system = make_system(u, omega, dec=dec)
        spec = CorrelationSpec(P1212, tuple(ops))
        n = 12
        if engine == "direct":
            mean = cesaro_direct(u, P1212, ops[1:-1], n).matrix
        else:
            mean = cesaro_spectral(dec, P1212, ops[1:-1], n).matrix
        expected = system.expect(ops[0] @ mean @ ops[-1])
        assert cesaro_correlation(system, spec, n) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("labels,d,n", [("1,2,1,2", 16, 300), ("1,2,2,1,3,3", 6, 31), ("1,2,2,1,3,3", 6, 47)])
    def test_is_one_spectral_evaluation(self, monkeypatch, labels, d, n):
        p = parse_partition(labels)
        basis = haar_unitary(np.random.default_rng(5), d)
        u, dec = from_eigensystem([Phase.rational(k, 17) for k in range(d)], basis)
        system = make_system(u, basis[:, 0], dec=dec)
        ops = random_ops(np.random.default_rng(6), p.m + 1, d)
        spec = CorrelationSpec(p, tuple(ops))
        spectral = system.expect(ops[0] @ cesaro_spectral(dec, p, ops[1:-1], n).matrix @ ops[-1])
        used = []
        monkeypatch.setattr(correlations, "cesaro_spectral",
                            lambda *args: used.append(args[3]) or cesaro_spectral(*args))
        assert cesaro_correlation(system, spec, n) == spectral
        assert used == [n]
        with pytest.raises(TypeError, match="unexpected keyword argument 'engine'"):
            cesaro_correlation(system, spec, n, engine="direct")


class TestCorrelationLimit:
    def test_limit_within_certified_bound(self):
        for seed, kind in [(3, "vector"), (4, "trace")]:
            u, dec, omega, basis = invariant_system(seed, 4, zero_multiplicity=2)
            rng = np.random.default_rng(seed)
            ops = random_ops(rng, 5, 4, unit="operator")
            if kind == "vector":
                system = make_system(u, omega, dec=dec)
            else:
                t = 0.7 * np.outer(basis[:, 0], basis[:, 0].conj())
                t += 0.3 * np.outer(basis[:, 1], basis[:, 1].conj())
                system = make_system(u, t, dec=dec)
            spec = CorrelationSpec(P1212, tuple(ops))
            n = 10**4
            deviation = abs(cesaro_correlation(system, spec, n) - correlation_limit(system, spec))
            budget = error_bound(dec, P1212, ops[1:-1], n)
            budget *= operator_norm(ops[0]) * operator_norm(ops[-1])
            assert bound_excess(deviation, budget, ops) <= ROUNDING_TOL

    def test_correlation_bounds_scale_the_operator_bounds_by_the_edge_norms(self):
        u, dec, omega, _ = invariant_system(3, 4, zero_multiplicity=2)
        ops = random_ops(np.random.default_rng(3), 5, 4)
        system, spec = make_system(u, omega, dec=dec), CorrelationSpec(P1212, tuple(ops))
        Ns = [10, 100, 10**4]
        edge = operator_norm(ops[0]) * operator_norm(ops[-1])
        assert correlation_bounds(system, spec, Ns) == [error_bound(dec, P1212, ops[1:-1], n) * edge for n in Ns]
        with pytest.raises(ValueError, match="horizon N must be a positive integer"):
            correlation_bounds(system, spec, [10, 0])

    def test_rank_one_trace_state_reproduces_vector_state(self):
        u, dec, omega, _ = invariant_system(19, 3)
        rng = np.random.default_rng(6)
        ops = random_ops(rng, 3, 3)
        vec_sys = make_system(u, omega, dec=dec)
        trace_sys = make_system(u, np.outer(omega, omega.conj()), dec=dec)
        spec = CorrelationSpec(P11, tuple(ops))
        np.testing.assert_array_equal(trace_sys.density, vec_sys.density)
        assert cesaro_correlation(trace_sys, spec, 7) == cesaro_correlation(vec_sys, spec, 7)
        assert correlation_limit(trace_sys, spec) == correlation_limit(vec_sys, spec)


class TestCorrelationSpec:
    def test_requires_matching_operator_count(self, rng):
        with pytest.raises(ValueError):
            CorrelationSpec(P11, tuple(random_ops(rng, 2, 2)))
        with pytest.raises(ValueError):
            CorrelationSpec(parse_partition("1,1,1"), tuple(random_ops(rng, 4, 2)))
