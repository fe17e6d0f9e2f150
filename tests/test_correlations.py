import importlib.util
import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

from entcesaro import correlations
from entcesaro.correlations import (
    STATE_TOL,
    CorrelationSpec,
    DynamicalSystem,
    cesaro_correlation,
    correlation_deviations,
    correlation_limit,
    correlation_term,
    make_system,
)
from entcesaro.engines import cesaro_direct, cesaro_nested, cesaro_spectral, error_bound
from entcesaro.linalg import ROUNDING_TOL, ROUNDING_TOL as IDENTITY_TOL, bound_excess, haar_unitary, operator_norm
from entcesaro.partitions import parse_partition
from entcesaro.scenario import load_scenario
from entcesaro.spectral import Phase, decompose, from_eigensystem

from conftest import _class_blocks, block_tuple_chains, brute_force_mean, invariant_system, phase_sum, random_ops

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
DIAG_PM = np.diag([1.0, -1.0]).astype(complex)
P11 = parse_partition("1,1")
P1221 = parse_partition("1,2,2,1")
P1212 = parse_partition("1,2,1,2")
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


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


def _mp_deviations(dec, spec, density, Ns):
    """The true distance of the correlation average from its limit at each horizon, in 50 digits, for a
    system of exact phases whose frame is exact: the sum over block tuples of the state of
    A_0 E_t1 A_1 ... E_tm A_m times prod_classes K_N - prod_classes R."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        to_mp = np.vectorize(mpmath.mpc, otypes=[object])
        ops = [to_mp(a) for a in spec.ops]
        outer = to_mp(density) @ ops[0]
        terms = []  # (class phase sums, state value) per block tuple
        for blocks, chain in block_tuple_chains(dec, spec.partition, ops[1:-1]):
            sums = [phase_sum(dec.phases[b] for b in cls)[1] for cls in _class_blocks(spec.partition, blocks)]
            terms.append((sums, np.trace(outer @ chain @ ops[-1])))

        def kernel(s, N):  # (1/N) sum_{n<N} e^{2 pi i s n} of an exact turn s
            if s == 0:
                return mpmath.mpf(1)
            power = s * N % 1
            return (1 - mpmath.expjpi(2 * mpmath.mpf(power.numerator) / power.denominator)) / (
                N * (1 - mpmath.expjpi(2 * mpmath.mpf(s.numerator) / s.denominator)))

        return [complex(sum((math.prod(kernel(s, N) for s in sums) - all(s == 0 for s in sums)) * value
                            for sums, value in terms)) for N in Ns]


def _diagonal_correlation(phases, labels, seed):
    """Exact phases on the diagonal (the frame is the identity, exact), random observables, and a trace state
    on the phase-0 lines with an off-diagonal entry."""
    p = parse_partition(labels)
    u, dec = from_eigensystem([Phase.from_fraction(Fraction(f)) for f in phases], np.eye(len(phases)))
    zero = [i for i, f in enumerate(phases) if Fraction(f) == 0]
    density = np.zeros((len(phases), len(phases)), dtype=complex)
    density[np.ix_(zero, zero)] = [[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]]
    ops = random_ops(np.random.default_rng(seed), p.m + 1, len(phases), unit="operator")
    return make_system(u, density, dec=dec), CorrelationSpec(p, tuple(ops))


def _real_orthogonal_correlation(labels, d=16, seed=5):
    """U = diag(1, Q) with Q real orthogonal, so every line resonates with its conjugate, the vector state e_0,
    and random observables of unit operator norm."""
    p = parse_partition(labels)
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((d - 1, d - 1)))
    u = np.eye(d, dtype=complex)
    u[1:, 1:] = q * np.sign(np.diag(r))
    system = make_system(u, np.eye(d)[0])
    return system, CorrelationSpec(p, tuple(random_ops(rng, p.m + 1, d, unit="operator")))


class TestCorrelationDeviations:
    @pytest.mark.parametrize("labels", ["1,2,1,2", "1,2,2,1"])
    def test_the_bound_exceeds_the_true_distance_at_every_horizon(self, labels):
        # At N = 10^9 + 7 the float difference of the mean's value and the limit's loses 3e-8 to 2e-7 relative
        # here, so the reference is the 50-digit sum over block tuples.
        system, spec = _diagonal_correlation(["0", "0", "1/2", "1/3", "2/3", "1/7"], labels, 11)
        Ns = [31, 10007, 10**6 + 3, 10**9 + 7]
        for N, true, (deviation, bound) in zip(Ns, _mp_deviations(system.dec, spec, system.density, Ns),
                                               correlation_deviations(system, spec, Ns)):
            assert abs(true) < bound, N
            assert abs(deviation - true) <= bound - abs(deviation), N
            assert bound <= abs(true) * (1 + 1e-9), N

    def test_the_bound_dominates_the_brute_force_and_nested_values_at_a_float_resonance(self):
        # 0.3 and 0.7 + delta resonate at 0.9 of the resonance tolerance: |e^{2 pi i delta} - 1| = 0.9e-8.
        delta = math.asin(0.45e-8) / math.pi
        basis = haar_unitary(np.random.default_rng(7), 4)
        u, dec = from_eigensystem([Phase.from_turns(t) for t in (0.0, 0.3, 0.7 + delta, 0.45)], basis)
        p = parse_partition("1,2,2,1")
        system = make_system(u, basis[:, 0], dec=dec)
        assert sum(c is not None for c in dec._resonance.partners) == 3  # phase 0 and the pair resonate
        spec = CorrelationSpec(p, tuple(random_ops(np.random.default_rng(8), p.m + 1, 4, unit="operator")))
        limit = correlation_limit(system, spec)
        a0, am = spec.ops[0], spec.ops[-1]
        for N, (_, bound) in zip((31, 97), correlation_deviations(system, spec, [31, 97])):
            for mean in (brute_force_mean(u, p, spec.ops[1:-1], N),
                         cesaro_nested(system.dec, p, spec.ops[1:-1], N).matrix):
                error = abs(system.expect(a0 @ mean @ am) - limit)
                assert bound_excess(error, bound, spec.ops) <= ROUNDING_TOL

    @pytest.mark.parametrize("labels", ["1,2,1,2", "1,2,2,1"])
    def test_the_bound_is_the_distance_up_to_rounding_on_real_orthogonal_dynamics(self, labels):
        # The excess is X's rounding radius times ||A_0|| ||A_m||: at a resonance whose sum is not exactly 0,
        # which every conjugate pair of float phases here is, the radius's magnitude contraction holds |K| ~ 1.
        # That is up to 1.1e-6 of the distance at N = 10^3 and 4.9e-6 at N = 10^4.
        system, spec = _real_orthogonal_correlation(labels)
        Ns, slack = [100, 1000, 10**4], [1e-6, 2e-6, 1e-5]
        for (deviation, bound), allowed in zip(correlation_deviations(system, spec, Ns), slack):
            assert abs(deviation) <= bound <= abs(deviation) * (1 + allowed)

    def test_the_bound_is_the_distance_up_to_rounding_on_the_benchmark_base_system(self, tmp_path, monkeypatch):
        spec_file = importlib.util.spec_from_file_location("perfbench_inputs", os.path.join(PERFBENCH, "inputs.py"))
        inputs = importlib.util.module_from_spec(spec_file)
        monkeypatch.setitem(sys.modules, spec_file.name, inputs)  # where its dataclass reads its own module
        spec_file.loader.exec_module(inputs)
        scenario = load_scenario(inputs.exact_correlate(1, str(tmp_path))[0].path)
        u, dec = scenario.system()
        system = make_system(u, scenario.state(), dec=dec)
        spec = CorrelationSpec(scenario.partition, tuple(scenario.partition_operators()[0]))
        for deviation, bound in correlation_deviations(system, spec, scenario.horizons):
            assert abs(deviation) <= bound <= abs(deviation) * (1 + 1e-6)

    def test_rejects_a_horizon_that_is_not_a_positive_integer(self):
        system, spec = _diagonal_correlation(["0", "0", "1/2", "1/3"], "1,2,1,2", 3)
        with pytest.raises(ValueError, match="horizon N must be a positive integer"):
            correlation_deviations(system, spec, [10, 0])


class TestCorrelationSpec:
    def test_requires_matching_operator_count(self, rng):
        with pytest.raises(ValueError):
            CorrelationSpec(P11, tuple(random_ops(rng, 2, 2)))
        with pytest.raises(ValueError):
            CorrelationSpec(parse_partition("1,1,1"), tuple(random_ops(rng, 4, 2)))
