import hashlib
import inspect
import math
import re
import sys
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entcesaro import engines
from entcesaro.correlations import (
    CorrelationSpec,
    cesaro_correlation,
    correlation_deviations,
    correlation_limit,
    make_system,
)
from entcesaro.engines import (
    BudgetError,
    cesaro_direct,
    cesaro_nested,
    cesaro_spectral,
    convergence_report,
    error_bound,
    error_bounds,
    form_value,
    kernel,
    limit_operator,
    limit_truncated,
    mean_ergodic,
    spectral_gap,
)
from entcesaro.linalg import ROUNDING_TOL, bound_excess, frobenius_norm, haar_unitary, norm_product, operator_norm
from entcesaro.partitions import enumerate_pair_partitions, is_crossing, parse_partition, render_partition
from entcesaro.spectral import (
    KERNEL_MEMO_HORIZONS,
    Phase,
    PhaseSums,
    SpectralDecomposition,
    Tolerances,
    _pairs_of,
    _summands_of,
    antidiagonal_spectrum,
    decompose,
    decomposition_residuals,
    from_eigensystem,
    invariant_projection,
    random_system,
    reconstruct,
    resonant_partners,
)

from conftest import (
    brute_force_mean,
    contract_per_block,
    crossing_by_quadruple_scan,
    exact_kernel,
    exact_sum,
    numpy_max_dims,
    phase_sum,
    phase_sum_loop,
    phase_value,
    random_ops,
    resonant_partners_loop,
    resonates,
    scalar_kernel,
    spectral_gap_loop,
    tuple_bound_oracle,
    tuple_limit_oracle,
)

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
DIAG_PM = np.diag([1.0, -1.0]).astype(complex)
P11 = parse_partition("1,1")
P1212 = parse_partition("1,2,1,2")
P1221 = parse_partition("1,2,2,1")
P121323 = parse_partition("1,2,1,3,2,3")
# Every pair partition with k <= 3: one with k = 1, three with k = 2 and fifteen with k = 3.
PAIR_PARTITIONS = [p for k in (1, 2, 3) for p in enumerate_pair_partitions(k)]


class TestKernel:
    def test_at_one(self):
        for n in (1, 2, 7, 10**5):
            assert kernel(Phase.rational(0, 1), n) == 1.0 + 0.0j
            assert kernel(Phase.from_turns(0.0), n) == 1.0 + 0.0j

    def test_half_turn_values(self):
        assert kernel(Phase.rational(1, 2), 4) == 0.0 + 0.0j
        assert kernel(Phase.rational(1, 2), 3) == pytest.approx(1.0 / 3.0)

    def test_matches_literal_geometric_sum(self, rng):
        for _ in range(30):
            ph = Phase.from_turns(rng.uniform(0, 1))
            n = int(rng.integers(1, 50))
            lam = np.exp(2j * np.pi * ph.turns)
            literal = sum(lam**j for j in range(n)) / n
            assert kernel(ph, n) == pytest.approx(literal, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=999),
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=1, max_value=10**5),
    )
    def test_kernel_bound(self, p, q, n):
        ph = Phase.rational(p, q)
        value = abs(kernel(ph, n))
        assert value <= 1.0 + 1e-12
        if ph.frac != 0:
            assert value <= 2.0 / (n * abs(1.0 - phase_value(ph.turns, ph.frac))) + 1e-12

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            kernel(Phase.rational(0, 1), 0)
        with pytest.raises(ValueError, match="largest float"):  # the kernel takes N to a float
            kernel(Phase.rational(1, 3), 10**400)

    @pytest.mark.parametrize("n", [1, 3, 7, 100, 10**4, 999999937])
    def test_a_raw_phase_is_taken_mod_1_and_at_its_fraction(self, n):
        # Phase(turns, frac) as given, without the normalisation of its constructors: turns outside
        # [0, 1), or a frac whose float is not turns.  The kernel reads turns mod 1 and an exact
        # phase's fraction, so it equals the kernel of the normalised phase bit for bit.
        pairs = [(Phase(1.5), Phase.from_turns(0.5)), (Phase(-0.25), Phase.from_turns(0.75)),
                 (Phase(0.3, Fraction(1, 3)), Phase.rational(1, 3)),
                 (Phase(3.75, Fraction(15, 4)), Phase.rational(3, 4))]
        got = np.array([kernel(raw, n) for raw, _ in pairs])
        want = np.array([kernel(normal, n) for _, normal in pairs])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [100, 10**4])
    @pytest.mark.parametrize("turns", [1e-14, 1.6e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6])
    def test_matches_mpmath_near_resonance(self, turns, n):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for t in (turns, 1.0 - turns):  # both sides of z = 1
                z = mpmath.expjpi(2 * mpmath.mpf(t))
                exact = complex((1 - z**n) / (n * (1 - z)))
                assert abs(kernel(Phase.from_turns(t), n) - exact) <= 1e-12


# Float turns whose sums land on the 0/1 seam, at 1/2 or next to 0 and 1.
SEAM_TURNS = [0.0, 0.5, 0.25, 0.75, 0.3, 0.7, 0.1, 0.9, 2.0**-53, 1.0 - 2.0**-53, 1e-9, 1.0 - 1e-9]
DENOMINATORS = [1, 2, 3, 4, 6, 7, 12, 998244353, 1000000007]

float_phases = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                         st.sampled_from(SEAM_TURNS)).map(Phase.from_turns)
exact_phases = st.builds(Phase.rational, st.integers(0, 10**10), st.sampled_from(DENOMINATORS))


@st.composite
def phase_lists(draw):
    """Float, exact or mixed phases, a resonance tolerance, and maybe a partner near its edge."""
    tol = draw(st.sampled_from([1e-8, 1e-6, 1e-4, 1e-2, 0.3]))  # the larger ones pair ambiguously
    kinds = draw(st.sampled_from([float_phases, exact_phases, st.one_of(float_phases, exact_phases)]))
    phases = draw(st.lists(kinds, min_size=1, max_size=5))
    if draw(st.booleans()):
        # |z w - 1| = 2 sin(pi |delta|), so delta = k tol / (2 pi) is just inside or outside for k near 1.
        base = draw(st.sampled_from(phases))
        k = draw(st.sampled_from([0.0, 0.999999, 1.000001, -0.999999, -1.000001]))
        phases.append(Phase.from_turns(-base.turns + k * tol / (2.0 * math.pi)))
    return phases, tol


def _outcome(fn, *args):
    """("returned", value) of ``fn(*args)``, or ("raised", message) of its ValueError."""
    try:
        return "returned", fn(*args)
    except ValueError as exc:
        return "raised", str(exc)


def pair_sums(phases) -> PhaseSums:
    """The ``PhaseSums`` of every pair of ``phases``."""
    return _pairs_of(_summands_of(phases))


def _lines_only(phases, tol: float = 1e-8) -> SpectralDecomposition:
    """A decomposition with one line per entry of ``phases`` on the standard basis, built without
    validation, so that equal or clustered phases stay separate lines."""
    eye = np.eye(len(phases))
    return SpectralDecomposition(len(phases), _summands_of(phases), eye, np.arange(len(phases)), 0.0,
                                 Tolerances(resonance=tol))


class TestPhaseSumTables:
    """The array phase-sum tables against the per-entry loops in conftest, which read only each
    phase's ``turns`` and ``frac``."""

    @settings(max_examples=300, deadline=None)
    @given(phase_lists(), st.sampled_from([1, 2]), st.sampled_from([1, 2, 3, 7, 100, 10**4, 999999937, 10**9]))
    # Near resonance, where 1 - z cancels: the imaginary part of the kernel is about pi / 998244353.
    @example(([Phase.rational(1, 998244353)], 1e-8), 1, 2)
    def test_tables_match_the_loops(self, case, size, n):
        phases, tol = case
        loop = phase_sum_loop(phases, size)
        sums = _summands_of(phases) if size == 1 else pair_sums(phases)
        assert sums.turns.shape == (len(phases),) * size
        assert sums.turns.ravel().tolist() == [turns for turns, _, _ in loop]
        assert sums.exact.ravel().tolist() == [frac is not None for _, frac, _ in loop]
        assert [Fraction(num, sums.denominator) for num in sums.numerators.ravel()] == [total for *_, total in loop]

        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        for value, (*_, total) in zip(sums.kernels(n).ravel(), loop):
            ref = scalar_kernel(total, n)
            assert (value == 0) == (ref == 0)  # exact zeros stay exact
            assert abs(value - ref) <= 4 * eps * max(abs(ref), tiny)  # absolute where the kernel is subnormal

        # The engines' tables: one pair class, on the decomposition's recorded pair sums.
        dec = _lines_only(phases, tol)
        pair_loop = phase_sum_loop(phases, 2)
        assert dec._pair_sums.kernels(n).tobytes() == pair_sums(phases).kernels(n).tobytes()
        outcome, partners = _outcome(resonant_partners_loop, phases, tol)
        assert _outcome(resonant_partners, dec) == (outcome, partners)
        if outcome == "raised":  # an ambiguous or asymmetric pairing
            assert _outcome(limit_operator, dec, P11, [np.eye(len(phases))]) == (outcome, partners)
        else:
            resonance = dec._resonance.table
            assert resonance.ravel().tolist() == [float(resonates(turns, frac, tol)) for turns, frac, _ in pair_loop]
            assert spectral_gap(dec) == spectral_gap_loop(phases, partners)

    @settings(max_examples=200, deadline=None)
    @given(phase_lists())
    def test_pair_table_is_symmetric(self, case):
        # So the partner map is an involution, and resonant_partners needs no asymmetry check.
        phases, _ = case
        sums = pair_sums(phases)
        for field in (sums.turns, sums.exact, sums.numerators):
            assert (field == field.T).all()

    def test_large_coprime_denominators_stay_exact(self):
        # 1/1000000007 would wrap in int64 once summed and multiplied by N; the numerators do not.
        phases = [Phase.rational(1, 1000000007), Phase.rational(1000000006, 1000000007),
                  Phase.rational(1, 998244353)]
        sums = pair_sums(phases)
        assert sums.denominator == 1000000007 * 998244353
        assert sums.resonant(1e-8).tolist() == [[False, True, False], [True, False, False],
                                                [False, False, False]]
        table = _lines_only(phases)._pair_sums.kernels(1000000007)
        assert table[0, 0] == 0.0 and table[0, 1] == 1.0  # a period of 2/1000000007; a resonance


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [10**300, 10**307, 10**308, int(sys.float_info.max)],
                             ids=["1e300", "1e307", "1e308", "max"])
    def test_exact_kernels_hold_up_to_the_largest_horizon(self, n):
        # Against ``exact_kernel`` in 80-digit mpmath: relative to the kernel where it is a normal double,
        # absolute in the subnormal range, and exactly 0 at periodic zeros.
        # Float phases too, at the odd horizon n - 1: a float turn is a / 2^e, so at an even n every float sum
        # would be a periodic zero.
        mpmath = pytest.importorskip("mpmath")
        exact = [Phase.rational(p, q) for p, q in [(1, 3), (2, 3), (1, 7), (1, 1000000007), (1, 4), (1, 2)]]
        floats = [Phase.from_turns(t) for t in (0.3, 0.45, 0.7 + 3e-11, 2.0**-40, 1 / 3)]
        cases = []
        for phases, horizon in ((exact, n), (floats, n - 1)):
            sums = pair_sums(phases)
            cases += [(kernel(ph, horizon), exact_sum([ph]), horizon) for ph in phases]
            cases += [(value, Fraction(num, sums.denominator), horizon) for value, num in
                      zip(sums.kernels(horizon).ravel().tolist(), sums.numerators.ravel().tolist())]
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        with mpmath.workdps(80):
            for value, frac, horizon in cases:
                ref = exact_kernel(frac, horizon)
                if ref == 0:
                    assert value == 0, frac
                elif abs(ref) >= tiny:
                    assert abs(mpmath.mpc(value) - ref) <= 8 * eps * abs(ref), frac
                else:
                    assert abs(mpmath.mpc(value) - ref) <= 16 * 2.0**-1074, frac

    @pytest.mark.filterwarnings("error")
    def test_a_float_table_is_finite_up_to_the_largest_horizon(self):
        # (N - 1) t is reduced mod 2 in integers, so the phase factor pi (N - 1) t cannot overflow.
        sums = pair_sums([Phase.from_turns(0.3), Phase.from_turns(0.45)])
        for n in (10**307, 10**308 + 1, int(sys.float_info.max)):
            assert np.isfinite(sums.kernels(n)).all()
            assert np.isfinite(kernel(Phase.from_turns(0.3), n))

    @pytest.mark.parametrize("n", [10**3, 10**6, 10**9, 10**12, 10**15], ids=lambda n: f"1e{len(str(n)) - 1}")
    def test_float_kernels_are_those_of_the_exact_sums(self, n):
        # Against ``exact_kernel`` of the exact sum of the two float turns, not of fl(t_b + t_c), in 80-digit
        # mpmath: within 4 eps relative at every horizon.
        mpmath = pytest.importorskip("mpmath")
        phases = [Phase.from_turns(t) for t in np.random.default_rng(3).random(40).tolist()]
        sums = pair_sums(phases)
        table = sums.kernels(n)
        eps = np.finfo(float).eps
        with mpmath.workdps(80):
            for ph in phases:
                ref = exact_kernel(exact_sum([ph]), n)
                assert abs(mpmath.mpc(kernel(ph, n)) - ref) <= 4 * eps * abs(ref), ph
            for b in range(0, 40, 3):
                for c in range(40):
                    ref = exact_kernel(exact_sum([phases[b], phases[c]]), n)
                    assert abs(mpmath.mpc(complex(table[b, c])) - ref) <= 4 * eps * abs(ref), (b, c)


class TestMeanErgodic:
    def test_identity(self):
        for n in (1, 5, 100):
            np.testing.assert_array_equal(mean_ergodic(np.eye(3, dtype=complex), n), np.eye(3))

    def test_parity_exact(self):
        np.testing.assert_allclose(mean_ergodic(DIAG_PM, 4), np.diag([1.0, 0.0]), atol=1e-15)

    def test_matches_literal_sum(self, rng):
        u = haar_unitary(rng, 4)
        for n in (1, 2, 3, 17, 64):
            literal = sum(np.linalg.matrix_power(u, j) for j in range(n)) / n
            np.testing.assert_allclose(mean_ergodic(u, n), literal, atol=1e-12)

    def test_unitarity_gate_is_the_default_tolerance(self):
        tol = Tolerances().unitarity
        u = haar_unitary(np.random.default_rng(3), 4)
        mean_ergodic(u * np.sqrt(1.0 + 0.9 * tol), 10)  # ||U*U - I|| = 0.9 tol
        with pytest.raises(ValueError, match="fails unitarity"):
            mean_ergodic(u * np.sqrt(1.0 + 1.1 * tol), 10)
        with pytest.raises(TypeError):
            mean_ergodic(u, 10, unitarity_tol=1.0)

    def test_kernel_decay_bound(self):
        u = np.diag([np.exp(2j * np.pi / 5)])
        n = 10**4
        bound = 2.0 / (n * abs(1.0 - np.exp(2j * np.pi / 5)))
        assert np.abs(mean_ergodic(u, n)).max() <= bound + 1e-12

    def test_converges_to_invariant_projection(self):
        u, dec = random_system(3, 4, "rational", 4)
        gap = min(
            (abs(1.0 - phase_value(ph.turns, ph.frac)) for ph in dec.phases if not resonates(ph.turns, ph.frac, 1e-8)),
            default=np.inf,
        )
        n = 10**4
        err = operator_norm(mean_ergodic(u, n) - invariant_projection(dec))
        assert err <= 2.0 / (n * gap) + 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            mean_ergodic(np.diag([1.0, 2.0]), 5)

    @pytest.mark.filterwarnings("error")
    def test_a_sum_that_is_not_finite_is_refused_naming_the_horizon(self):
        # Repeated squaring takes the powers of a Haar U off the unit circle, and they overflow by N = 10^20.
        u = haar_unitary(np.random.default_rng(3), 4)
        with pytest.raises(ValueError, match=r"^the power sum at horizon N=1\.000000e\+20 is not finite$"):
            mean_ergodic(u, 10**20)


class TestCesaroDirect:
    def test_identity_dynamics_gives_plain_product(self, rng):
        ops = random_ops(rng, 3, 3)
        for p in (P1212, P1221):
            result = cesaro_direct(np.eye(3, dtype=complex), p, ops, 5)
            np.testing.assert_allclose(result.matrix, ops[0] @ ops[1] @ ops[2], atol=1e-12)

    def test_closed_form_single_class(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        for n in (1, 2, 3, 4, 7):
            s = (1 - (-1) ** n) / (2 * n)
            expected = np.array([[1.0, 2.0 * s], [3.0 * s, 4.0]])
            np.testing.assert_allclose(cesaro_direct(DIAG_PM, P11, [a], n).matrix, expected, atol=1e-14)

    @pytest.mark.parametrize("labels,n", [("1,1", 9), ("1,2,2,1", 5), ("1,2,1,2", 4), ("1,2,1,3,2,3", 3),
                                          ("1,2,2,1,3,3", 4), ("1,1,2,3,3,2", 4)])
    def test_matches_brute_force(self, rng, labels, n):
        p = parse_partition(labels)
        u = haar_unitary(rng, 3)
        ops = random_ops(rng, p.m - 1, 3)
        got = cesaro_direct(u, p, ops, n).matrix
        expected = brute_force_mean(u, p, ops, n)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_adjacent_pair_opens_no_index_axis(self, rng):
        # sum_n U^n A U^n is one d x d factor: the sweep holds N d^2 entries, not N^2 d^2.
        u, dec = random_system(3, 4, "haar")
        ops = random_ops(rng, 3, 4)
        tracemalloc.start()
        try:
            mean = cesaro_direct(u, P1221, ops, 300).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        assert np.linalg.norm(mean - cesaro_nested(dec, P1221, ops, 300).matrix) <= 1e-12
        np.testing.assert_allclose(cesaro_direct(u, P1221, ops, 40).matrix, brute_force_mean(u, P1221, ops, 40),
                                   atol=1e-12)

    @pytest.mark.parametrize("labels,n", [("1,2,1,2", 300), ("1,2,2,1", 300), ("1,2,1,3,2,3", 60),
                                          ("1,2,3,1,2,3", 40), ("1,1", 300), ("1,1,2,2,3,3", 300)])
    def test_peak_memory_is_within_the_planned_entries(self, rng, labels, n):
        # The plan counts every array the sweep holds at once, 16 bytes per complex entry.
        p = parse_partition(labels)
        u = haar_unitary(rng, 4)
        ops = random_ops(rng, p.m - 1, 4)
        tracemalloc.start()
        try:
            cesaro_direct(u, p, ops, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * engines._direct_entries(p, n, 4) + 2**16

    def test_plan_counts_the_power_table_once(self):
        # After slot 1 opens class 1, the tensor is the power table itself.  At the peak, the last
        # step, the sweep holds the power table, the tensor, the operator times the power table, their
        # product before class 1 is summed, and the d x d result.
        assert engines._direct_entries(P1221, 300, 4) == (4 * 300 + 1) * 16

    def test_an_adjacent_pair_holds_no_n_sized_products(self):
        # The doubling loop sums a pair's factor from U alone, and no power table is built: 1,1 holds its
        # d x d factor, and 1,1,2,2,3,3 at its peak the d x d tensor, its product with the operator and the
        # output, at every horizon.
        for n in (1, 300, 10**9):
            assert engines._direct_entries(P11, n, 4) == 16
            assert engines._direct_entries(parse_partition("1,1,2,2,3,3"), n, 4) == 3 * 16

    def test_each_class_is_divided_by_n_where_it_is_summed(self):
        # N^2 overflows a float at N = 10^155, but each class's sum is finite: the mean is 1e-30 I.
        mean = cesaro_direct(np.eye(2), parse_partition("1,1,2,2"), [1e-10 * np.eye(2)] * 3, 10**155).matrix
        np.testing.assert_allclose(mean, 1e-30 * np.eye(2), rtol=4 * np.finfo(float).eps, atol=0.0)

    def test_twenty_four_classes_open_at_once(self):
        # 1..24,1..24 holds 24 index axes at once, each array 26 axes: within numpy 1.x's 32.
        p = parse_partition(",".join(map(str, [*range(1, 25)] * 2)))
        u = np.diag([1.0, -1.0]).astype(complex)
        mean = cesaro_direct(u, p, [np.eye(2)] * 47, 1).matrix
        np.testing.assert_array_equal(mean, np.eye(2))
        assert engines._direct_horizon(p, 5, 2) == 1

    @pytest.mark.skipif(numpy_max_dims() < 52, reason="this numpy allows fewer than 52 array axes")
    def test_fifty_classes_open_at_once(self):
        # 50 index axes at once and the matrix's two: only numpy's own limit on an array's axes caps them.
        p = parse_partition(",".join(map(str, [*range(1, 51)] * 2)))
        u = np.diag([1.0, -1.0]).astype(complex)
        mean = cesaro_direct(u, p, [np.eye(2)] * 99, 1).matrix
        np.testing.assert_array_equal(mean, np.eye(2))

    def test_a_partition_with_more_axes_than_numpy_allows_is_refused(self):
        # With the matrix's two axes, limit - 2 open classes fill numpy's limit and run; one more is refused.
        limit = numpy_max_dims()
        u = np.diag([1.0, -1.0]).astype(complex)
        p = parse_partition(",".join(map(str, [*range(1, limit - 1)] * 2)))
        np.testing.assert_array_equal(cesaro_direct(u, p, [np.eye(2)] * (p.m - 1), 1).matrix, np.eye(2))
        p = parse_partition(",".join(map(str, [*range(1, limit)] * 2)))
        message = (f"^direct engine: a partition on {p.m} slots needs more array axes than numpy allows: "
                   f".*{limit + 1}$")
        with pytest.raises(ValueError, match=message):
            cesaro_direct(u, p, [np.eye(2)] * (p.m - 1), 1)
        with pytest.raises(ValueError, match=message):
            engines._direct_horizon(p, 5, 2)

    def test_memory_budget_counts_the_axes_held(self, rng):
        # N = 2100, d = 4: N d^2 entries fit the sweep budget, N^2 d^2 do not.
        u, dec = random_system(5, 4, "haar")
        ops = random_ops(rng, 3, 4)
        mean = cesaro_direct(u, P1221, ops, 2100).matrix
        assert np.linalg.norm(mean - cesaro_nested(dec, P1221, ops, 2100).matrix) <= 1e-12
        with pytest.raises(BudgetError, match="memory budget"):
            cesaro_direct(u, P1212, ops, 2100)

    @pytest.mark.parametrize("labels,n", [("1,1,2,2,3,3", 500), ("1,2,2,1,3,3", 500), ("1,2,1,2,3,4,3,4", 200)])
    def test_budget_counts_entries_not_index_tuples(self, rng, labels, n):
        # N^k is over 10^8 here, but the sweep holds at most N^2 d^2 entries.
        p = parse_partition(labels)
        u, dec = random_system(11, 4, "haar")
        ops = random_ops(rng, p.m - 1, 4)
        mean = cesaro_direct(u, p, ops, n).matrix
        scale = np.prod([np.linalg.norm(a) for a in ops])
        assert np.linalg.norm(mean - cesaro_spectral(dec, p, ops, n).matrix) <= 1e-12 * scale
        if not is_crossing(p):
            assert np.linalg.norm(mean - cesaro_nested(dec, p, ops, n).matrix) <= 1e-12 * scale

    def test_over_budget_message_names_the_planned_entries(self, rng):
        u = haar_unitary(rng, 4)
        # At slot 3: the power table, the N^2 d^2 tensor, the operator times the power table, their N^2 d^2
        # product and the N d^2 output.
        with pytest.raises(BudgetError, match="planned peak of 1.412e[+]08 entries exceeds the memory budget"):
            cesaro_direct(u, P1212, random_ops(rng, 3, 4), 2100)
        # A count beyond the float range is reported, not overflowed.
        with pytest.raises(BudgetError, match="planned peak of more than 1.798e[+]308 entries"):
            cesaro_direct(np.eye(2, dtype=complex), P1212, [np.eye(2)] * 3, 10**200)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            cesaro_direct(np.eye(3, dtype=complex), P11, [np.eye(2)], 3)
        with pytest.raises(ValueError):
            cesaro_direct(np.eye(3, dtype=complex), P1212, [np.eye(3)] * 2, 3)

    def test_budget_guard(self, monkeypatch):
        with pytest.raises(BudgetError):
            cesaro_direct(np.eye(2, dtype=complex), P1212, [np.eye(2)] * 3, 10**5)
        monkeypatch.setattr(engines, "_SWEEP_ENTRY_BUDGET", 3)  # 1,1 holds its 2 x 2 factor
        with pytest.raises(BudgetError):
            cesaro_direct(np.eye(2, dtype=complex), P11, [np.eye(2)], 100)


class TestOracleEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_direct_vs_spectral_all_partitions(self, k):
        rng = np.random.default_rng(1000 + k)
        for i, p in enumerate(enumerate_pair_partitions(k)):
            d = 2 + (i % 3)
            mode = "haar" if i % 2 else "rational"
            u, dec = random_system(rng.integers(0, 2**32), d, mode, 6)
            ops = random_ops(rng, p.m - 1, d)
            n = int(rng.integers(2, 12))
            direct = cesaro_direct(u, p, ops, n).matrix
            spectral = cesaro_spectral(dec, p, ops, n).matrix
            scale = np.prod([np.linalg.norm(a) for a in ops])
            assert np.linalg.norm(direct - spectral) <= 1e-9 * scale

    def test_spectral_against_brute_force(self, rng):
        u, dec = random_system(77, 3, "rational", 5)
        ops = random_ops(rng, 3, 3)
        got = cesaro_spectral(dec, P1212, ops, 6).matrix
        np.testing.assert_allclose(got, brute_force_mean(u, P1212, ops, 6), atol=1e-12)

    def test_spectral_is_bitwise_deterministic(self, rng):
        _, dec = random_system(5, 4, "rational", 6)
        ops = random_ops(rng, 3, 4)
        a = cesaro_spectral(dec, P1212, ops, 100).matrix
        b = cesaro_spectral(dec, P1212, ops, 100).matrix
        assert np.array_equal(a, b)

    def test_spectral_budget_guard(self, rng, monkeypatch):
        _, dec = random_system(5, 4, "rational", 6)
        ops = random_ops(rng, 3, 4)
        monkeypatch.setattr(engines, "SPECTRAL_ENTRY_BUDGET", 10)
        with pytest.raises(BudgetError):
            cesaro_spectral(dec, P1212, ops, 10)


class TestCesaroNested:
    def test_single_class_matches_direct(self, rng):
        u, dec = random_system(8, 3, "haar")
        ops = random_ops(rng, 1, 3)
        direct = cesaro_direct(u, P11, ops, 12).matrix
        nested = cesaro_nested(dec, P11, ops, 12).matrix
        assert np.linalg.norm(direct - nested) <= 1e-10

    @pytest.mark.parametrize("labels", ["1,2,2,1", "1,1,2,2", "1,2,2,1,3,3"])
    def test_non_crossing_matches_direct(self, rng, labels):
        p = parse_partition(labels)
        u, dec = random_system(17, 3, "haar")
        ops = random_ops(rng, p.m - 1, 3)
        direct = cesaro_direct(u, p, ops, 20).matrix
        nested = cesaro_nested(dec, p, ops, 20).matrix
        assert np.linalg.norm(direct - nested) <= 1e-10

    # Horizons whose binary digits reach every branch of the splitting loop:
    # no bits after the leading one, a lone 0 or 1, runs of 1s and of 0s.
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 31, 64, 1000])
    @pytest.mark.parametrize("labels", ["1,1,2,2", "1,2,2,1"])
    @pytest.mark.parametrize("mode", ["rational", "haar"])
    def test_binary_splitting_horizons(self, rng, mode, labels, n):
        p = parse_partition(labels)
        u, dec = random_system(4, 4, mode, 3)
        if mode == "rational":
            assert max(line.basis.shape[1] for line in dec.entries) > 1
        ops = random_ops(rng, p.m - 1, 4)
        nested = cesaro_nested(dec, p, ops, n).matrix
        references = [cesaro_spectral(dec, p, ops, n).matrix]
        # The direct sweep over a nested pair holds an (N, N, d, d) tensor.
        if labels == "1,1,2,2" or n <= 64:
            references.append(cesaro_direct(u, p, ops, n).matrix)
        for ref in references:
            assert np.linalg.norm(nested - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))

    def test_rejects_crossing(self, rng):
        _, dec = random_system(1, 2, "haar")
        with pytest.raises(ValueError):
            cesaro_nested(dec, P1212, random_ops(rng, 3, 2), 5)


class TestEngineReach:
    """``_engines_for`` names the engines that evaluate a partition, and ``_engine`` is the one gate: the
    nested engine is refused on exactly the crossing partitions, with one message, wherever it is asked for."""

    @pytest.mark.parametrize("p", PAIR_PARTITIONS, ids=render_partition)
    def test_the_nested_engine_evaluates_exactly_the_non_crossing_partitions(self, rng, p):
        crossing = crossing_by_quadruple_scan(p)
        assert engines._engines_for(p) == (("direct", "spectral") if crossing else ("direct", "spectral", "nested"))
        for name in engines._engines_for(p):
            assert engines._engine(name, p) is engines.ENGINES[name]
        _, dec = random_system(4, 3, "rational", 4)
        ops = random_ops(rng, p.m - 1, 3)
        calls = [lambda: engines._engine("nested", p), lambda: cesaro_nested(dec, p, ops, 5),
                 lambda: convergence_report(dec, p, ops, [5, 50], "nested")]
        message = f"nested engine requires a non-crossing pair partition, got {render_partition(p)}"
        for call in calls:
            if crossing:
                with pytest.raises(ValueError) as refused:
                    call()
                assert refused.type is ValueError and str(refused.value) == message
            else:
                call()

    def test_an_unknown_name_is_refused_before_the_partition_is_read(self):
        message = r"^unknown engine 'warp', expected one of \('direct', 'spectral', 'nested'\)$"
        with pytest.raises(ValueError, match=message):
            engines._engine("warp", P1212)


class TestLimitOperator:
    def test_identity_dynamics(self, rng):
        dec = decompose(np.eye(3, dtype=complex))
        ops = random_ops(rng, 3, 3)
        np.testing.assert_allclose(limit_operator(dec, P1212, ops), ops[0] @ ops[1] @ ops[2], atol=1e-12)

    def test_non_resonant_phase_drops_out(self):
        golden = 0.3819660112501051
        dec = decompose(np.diag([1.0, np.exp(2j * np.pi * golden)]))
        a = np.array([[1.5, 2.0], [3.0, 4.5]], dtype=complex)
        np.testing.assert_allclose(limit_operator(dec, P11, [a]), np.diag([1.5, 0.0]), atol=1e-12)

    def test_swap_example(self):
        dec = decompose(DIAG_PM)
        s = limit_operator(dec, P1212, [SWAP, SWAP, SWAP])
        np.testing.assert_allclose(s, SWAP, atol=1e-14)
        # independent witness: the finite mean converges to it
        mean = cesaro_spectral(dec, P1212, [SWAP] * 3, 10**3).matrix
        assert np.abs(mean - SWAP).max() <= 2e-3

    def test_limit_is_cesaro_limit_numerically(self, rng):
        u, dec = random_system(23, 3, "rational", 6)
        ops = random_ops(rng, 3, 3)
        s = limit_operator(dec, P1212, ops)
        errs = [operator_norm(cesaro_spectral(dec, P1212, ops, n).matrix - s) for n in (10, 100, 1000, 10000)]
        assert errs[-1] <= 1e-3 * max(np.prod([operator_norm(a) for a in ops]), 1.0)

    def test_norm_bound(self, rng):
        for seed in range(5):
            u, dec = random_system(seed, 4, "rational", 6)
            ops = random_ops(rng, 3, 4, unit="operator")
            s = limit_operator(dec, P1212, ops)
            assert operator_norm(s) <= 1.0 + 1e-10

    def test_single_class_reduction(self):
        u = np.diag([1.0, -1.0, 1j, -1j]).astype(complex)
        dec = decompose(u)
        s = limit_operator(dec, P11, [np.eye(4, dtype=complex)])
        np.testing.assert_allclose(s, invariant_projection(decompose(u @ u)), atol=1e-12)
        mean = cesaro_direct(u, P11, [np.eye(4, dtype=complex)], 8).matrix
        np.testing.assert_allclose(mean, mean_ergodic(u @ u, 8), atol=1e-12)


class TestLimitTruncated:
    def test_empty_subset_is_zero(self, rng):
        _, dec = random_system(2, 3, "rational", 6)
        ops = random_ops(rng, 3, 3)
        np.testing.assert_array_equal(limit_truncated(dec, P1212, ops, []), np.zeros((3, 3)))

    def test_full_subset_reproduces_limit_exactly(self, rng):
        _, dec = random_system(21, 4, "rational", 6)
        ops = random_ops(rng, 3, 4)
        sigma = antidiagonal_spectrum(dec)
        assert np.array_equal(
            limit_truncated(dec, P1212, ops, sigma),
            limit_operator(dec, P1212, ops),
        )

    def test_duplicate_phases_in_subset_do_not_double_count(self, rng):
        _, dec = random_system(21, 4, "rational", 6)
        ops = random_ops(rng, 3, 4)
        sigma = antidiagonal_spectrum(dec)
        doubled = list(sigma) + list(sigma)
        assert np.array_equal(
            limit_truncated(dec, P1212, ops, doubled),
            limit_truncated(dec, P1212, ops, sigma),
        )

    def test_single_phase_term(self):
        dec = decompose(DIAG_PM)
        a = np.array([[1.5, 2.0], [3.0, 4.5]], dtype=complex)
        zero_phase = [ph for ph in dec.phases if ph.turns == 0.0]
        np.testing.assert_allclose(
            limit_truncated(dec, P11, [a], zero_phase), np.diag([1.5, 0.0]), atol=1e-14
        )

    def test_rejects_phase_outside_antidiagonal(self):
        golden = 0.3819660112501051
        dec = decompose(np.diag([1.0, np.exp(2j * np.pi * golden)]))
        bad = [ph for ph in dec.phases if ph.turns != 0.0]
        with pytest.raises(ValueError):
            limit_truncated(dec, P11, [np.eye(2, dtype=complex)], bad)


class TestFormValue:
    def test_zero_vector(self, rng):
        _, dec = random_system(4, 3, "rational", 6)
        ops = random_ops(rng, 3, 3)
        assert form_value(dec, P1212, ops, np.zeros(3), rng.standard_normal(3)) == 0.0

    def test_empty_subset(self, rng):
        _, dec = random_system(4, 3, "rational", 6)
        ops = random_ops(rng, 3, 3)
        assert form_value(dec, P1212, ops, np.ones(3), np.ones(3), phases=[]) == 0.0

    def test_uniform_bound_over_subsets(self, rng):
        import itertools

        _, dec = random_system(21, 4, "rational", 6)
        ops = random_ops(rng, 3, 4, unit="operator")
        sigma = antidiagonal_spectrum(dec)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        for size in range(len(sigma) + 1):
            for subset in itertools.combinations(sigma, size):
                assert abs(form_value(dec, P1212, ops, x, y, subset)) <= 1.0 + 1e-10

    def test_dimension_mismatch(self, rng):
        _, dec = random_system(4, 3, "rational", 6)
        with pytest.raises(ValueError):
            form_value(dec, P1212, random_ops(rng, 3, 3), np.ones(2), np.ones(3))


class TestErrorBound:
    def test_identity_dynamics_zero(self, rng):
        dec = decompose(np.eye(3, dtype=complex))
        ops = random_ops(rng, 3, 3)
        assert error_bound(dec, P1212, ops, 7) == 0.0
        mean = cesaro_spectral(dec, P1212, ops, 7).matrix
        assert operator_norm(mean - limit_operator(dec, P1212, ops)) <= 1e-12

    def test_parity_example(self):
        dec = decompose(DIAG_PM)
        assert error_bound(dec, P11, [SWAP], 4) == 0.0
        bound3 = error_bound(dec, P11, [SWAP], 3)
        err3 = operator_norm(cesaro_direct(DIAG_PM, P11, [SWAP], 3).matrix - limit_operator(dec, P11, [SWAP]))
        assert err3 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert bound3 >= err3

    @pytest.mark.parametrize("seed", range(6))
    def test_certifies_measured_error(self, seed):
        rng = np.random.default_rng(seed)
        u, dec = random_system(seed, 4, "rational", 6)
        p = [P11, P1221, P1212][seed % 3]
        ops = random_ops(rng, p.m - 1, 4)
        for n in (13, 130, 1300):
            mean = cesaro_spectral(dec, p, ops, n).matrix
            err = operator_norm(mean - limit_operator(dec, p, ops))
            assert err <= error_bound(dec, p, ops, n) + 1e-9

    @pytest.mark.parametrize("labels", ["1,2,1,2", "1,2,1,3,2,3"])
    def test_haar_bounds_at_dimension_64_under_the_default_budget(self, rng, labels):
        p = parse_partition(labels)
        _, dec = random_system(5, 64, "haar")
        ops = random_ops(rng, p.m - 1, 64)
        Ns = [100, 1000, 10000]
        limit = limit_operator(dec, p, ops)
        for n, bound in zip(Ns, error_bounds(dec, p, ops, Ns)):
            assert operator_norm(cesaro_spectral(dec, p, ops, n).matrix - limit) <= bound

    @pytest.mark.parametrize("s", [Fraction(1, 4), Fraction(1, 3), Fraction(1, 8)], ids=str)
    @pytest.mark.parametrize("L", [998244353, 1000000007])
    def test_certifies_near_resonant_exact_sums(self, L, s):
        # The sum of s + 1/L and 1 - s is 1/L, where 1 - z cancels.  On diagonal U and partition 1,1 the mean
        # minus the limit is A_bc (K_N(t_b + t_c) - R_bc), entrywise; its norm is taken in 40-digit mpmath.
        mpmath = pytest.importorskip("mpmath")
        fracs = [(s + Fraction(1, L)) % 1, 1 - s, Fraction(1, 2)]
        _, dec = from_eigensystem([Phase.from_fraction(f) for f in fracs], np.eye(3))
        sums = [[(fb + fc) % 1 for fc in fracs] for fb in fracs]
        for seed in range(12):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for n in (2, 3, 5, 31, 1001):
                with mpmath.workdps(40):
                    diff = mpmath.matrix([[mpmath.mpc(complex(a[b, c])) * (exact_kernel(t, n) - (t == 0))
                                           for c, t in enumerate(row)] for b, row in enumerate(sums)])
                    error = max(mpmath.svd_c(diff, compute_uv=False))
                assert error_bound(dec, P11, [a], n) >= error, (seed, n)

    @pytest.mark.parametrize("seed", range(12))
    def test_certifies_the_true_error_of_the_representation_at_large_horizons(self, seed):
        # The true M_N - L of V = W diag(z) W*, z at the float turns taken exactly, is W (C o W* A W) W* with
        # C the kernel of each exact pair sum minus R, in 120-digit mpmath.  From N ~ 10^6 the kernels of the
        # rounded sums fl(t_b + t_c) differ from C by more than the bound's rounding allowance.
        mpmath = pytest.importorskip("mpmath")
        _, dec = random_system(seed, 3, "haar")
        a = random_ops(np.random.default_rng(seed), 1, 3)[0]
        lines, resonance = dec.blocks.tolist(), dec._resonance.table
        Ns = [10**6, 10**9, 10**12]
        with mpmath.workdps(120):
            w = mpmath.matrix(dec.frame.tolist())
            slot = w.H * mpmath.matrix(a.tolist()) * w
            for n, bound in zip(Ns, error_bounds(dec, P11, [a], Ns)):
                weights = {(b, c): exact_kernel(exact_sum([dec.phases[b], dec.phases[c]]), n) - resonance[b, c]
                           for b in set(lines) for c in set(lines)}
                x = mpmath.matrix([[weights[b, c] * slot[i, j] for j, c in enumerate(lines)]
                                   for i, b in enumerate(lines)])
                error = max(mpmath.svd_c(w * x * w.H, compute_uv=False))
                assert bound >= error, (n, bound, error)

    def test_decays_like_one_over_n(self):
        rng = np.random.default_rng(0)
        _, dec = random_system(11, 4, "rational", 6)
        ops = random_ops(rng, 3, 4)
        b1 = error_bound(dec, P1212, ops, 10**3)
        b2 = error_bound(dec, P1212, ops, 10**5)
        assert b2 <= 1.1e-2 * b1


class TestSpectralGap:
    def test_examples(self):
        assert spectral_gap(decompose(DIAG_PM)) == pytest.approx(2.0)
        assert spectral_gap(decompose(np.eye(3, dtype=complex))) == np.inf
        _, dec = random_system(4, 4, "rational", 6)
        assert spectral_gap(dec) >= 2 * np.sin(np.pi / 60) - 1e-12


class TestConvergenceReport:
    def test_identity_dynamics_all_zero(self, rng):
        dec = decompose(np.eye(2, dtype=complex))
        ops = random_ops(rng, 1, 2)
        report = convergence_report(dec, P11, ops, [2, 4, 8])
        for row in report.rows:
            assert row.error_op == 0.0
            assert row.certified_bound == 0.0

    def test_parity_zero_rows_at_even_horizons(self, rng):
        dec = decompose(DIAG_PM)
        report = convergence_report(dec, P11, [SWAP], [2, 4, 8], engine="direct")
        for row in report.rows:
            assert row.error_op <= 1e-14

    @pytest.mark.parametrize("engine", ["direct", "spectral", "nested"])
    def test_rows_certified_for_every_engine(self, rng, engine):
        _, dec = random_system(19, 3, "rational", 6)
        ops = random_ops(rng, 3, 3)
        report = convergence_report(dec, P1221, ops, [5, 10, 20], engine=engine)
        for row in report.rows:
            assert bound_excess(row.error_op, row.certified_bound, ops) <= ROUNDING_TOL
            assert row.engine == engine

    def test_rejects_bad_horizons_and_engine(self, rng):
        _, dec = random_system(19, 3, "rational", 6)
        ops = random_ops(rng, 3, 3)
        with pytest.raises(ValueError):
            convergence_report(dec, P1221, ops, [10, 10])
        with pytest.raises(ValueError):
            convergence_report(dec, P1221, ops, [10, 5])
        with pytest.raises(ValueError, match=r"unknown engine 'warp', expected one of \('direct', 'spectral', 'nested'\)"):
            convergence_report(dec, P1221, ops, [5, 10], engine="warp")

    @pytest.mark.parametrize("labels", ["1,2,1,2", "1,2,2,1"])
    def test_direct_rows_are_the_direct_mean_of_the_reconstruction(self, labels):
        # Like the nested engine, a report's direct engine evaluates V = W diag(z) W*, not the source U.
        p = parse_partition(labels)
        u = haar_unitary(np.random.default_rng(3), 8)
        dec = decompose(u)
        ops = random_ops(np.random.default_rng(3), p.m - 1, 8)
        report = convergence_report(dec, p, ops, [7, 100], engine="direct")
        v, limit = reconstruct(dec), limit_operator(dec, p, ops)
        for row in report.rows:
            diff = cesaro_direct(v, p, ops, row.N).matrix - limit
            assert (row.error_op, row.error_frob) == (operator_norm(diff), frobenius_norm(diff))


# Every public engine entry point, called as (u, dec, p, ops, **keywords).
ENTRY_POINTS = {
    "cesaro_direct": lambda u, dec, p, ops, **kw: cesaro_direct(u, p, ops, 3, **kw),
    "cesaro_spectral": lambda u, dec, p, ops, **kw: cesaro_spectral(dec, p, ops, 3, **kw),
    "cesaro_nested": lambda u, dec, p, ops, **kw: cesaro_nested(dec, p, ops, 3, **kw),
    "limit_operator": lambda u, dec, p, ops, **kw: limit_operator(dec, p, ops, **kw),
    "limit_truncated": lambda u, dec, p, ops, **kw: limit_truncated(dec, p, ops, antidiagonal_spectrum(dec), **kw),
    "form_value": lambda u, dec, p, ops, **kw: form_value(dec, p, ops, np.ones(dec.dim), np.ones(dec.dim), **kw),
    "error_bound": lambda u, dec, p, ops, **kw: error_bound(dec, p, ops, 3, **kw),
    "error_bounds": lambda u, dec, p, ops, **kw: error_bounds(dec, p, ops, [3, 5], **kw),
    "convergence_report": lambda u, dec, p, ops, **kw: convergence_report(dec, p, ops, [3, 5], **kw),
    **{f"ENGINES[{name}]": lambda u, dec, p, ops, run=run, **kw: run(u, dec, p, ops, 3, **kw)
       for name, run in engines.ENGINES.items()},
}
# The calls that must refuse a ``general=`` keyword, and those that must refuse a ``budget=`` keyword.
FORMER_GENERAL = ["cesaro_direct", "cesaro_spectral", "limit_operator", "error_bound", "error_bounds",
                  "convergence_report", *(f"ENGINES[{name}]" for name in engines.ENGINE_NAMES)]
FORMER_BUDGET = ["cesaro_direct", "cesaro_spectral", "limit_operator", "error_bound", "error_bounds"]


class TestPairPartitionsOnly:
    # A Partition is a pair partition by construction (tests/test_partitions.py), so the entry points
    # check only that they were given one.
    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("labels", [(1, 1), [1, 2, 1, 2]], ids=["tuple", "list"])
    def test_rejects_labels_that_are_not_a_partition(self, rng, name, labels):
        u, dec = random_system(31, 3, "rational", 6)
        with pytest.raises(ValueError, match="^expected a Partition$"):
            ENTRY_POINTS[name](u, dec, labels, random_ops(rng, len(labels) - 1, 3))

    @pytest.mark.parametrize("name", FORMER_GENERAL)
    def test_takes_no_general_keyword(self, rng, name):
        u, dec = random_system(31, 3, "rational", 6)
        with pytest.raises(TypeError, match="unexpected keyword argument 'general'"):
            ENTRY_POINTS[name](u, dec, P1212, random_ops(rng, 3, 3), general=True)

    @pytest.mark.parametrize("name", FORMER_BUDGET)
    def test_takes_no_budget_keyword(self, rng, name):
        # The memory caps are the module constants SPECTRAL_ENTRY_BUDGET and _SWEEP_ENTRY_BUDGET.
        u, dec = random_system(31, 3, "rational", 6)
        with pytest.raises(TypeError, match="unexpected keyword argument 'budget'"):
            ENTRY_POINTS[name](u, dec, P1212, random_ops(rng, 3, 3), budget=10**9)


class TestMeanNormBound:
    @pytest.mark.parametrize("seed", range(4))
    def test_mean_norm_below_operator_norm_product(self, seed):
        rng = np.random.default_rng(seed)
        u, dec = random_system(seed, 3, "haar")
        for p in (P11, P1221, P1212):
            ops = random_ops(rng, p.m - 1, 3, unit="operator")
            product = np.prod([operator_norm(a) for a in ops])
            mean = cesaro_spectral(dec, p, ops, 25).matrix
            assert operator_norm(mean) <= product + 1e-9


def degenerate_system(seed):
    """d=6 exact phases 0, 1/3, 1/2, 2/3 with rank-2 blocks at 1/3 and 2/3."""
    phases = [Phase.rational(*f) for f in ((1, 3), (1, 3), (2, 3), (2, 3), (0, 1), (1, 2))]
    return from_eigensystem(phases, haar_unitary(np.random.default_rng(seed), 6))


def orthogonal_system(seed, d):
    """A real orthogonal U: every line resonates with its conjugate line, so the limit is nonzero."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    u = (q * np.sign(np.diag(r))).astype(complex)
    return u, decompose(u)


def float_resonance_system(seed):
    """Float phases of which 0.1 and 0.9 + delta resonate at 0.9 times the resonance tolerance."""
    delta = math.asin(0.45e-8) / math.pi  # |e^{2 pi i delta} - 1| = 0.9e-8
    phases = [Phase.from_turns(t) for t in (0.1, 0.9 + delta, 0.35, 0.6)]
    return from_eigensystem(phases, haar_unitary(np.random.default_rng(seed), 4))


def measured_error(u, dec, p, ops, n):
    """||M_N - limit||, M_N by the brute-force tuple loop when it has at most 10^3 tuples, else by the
    spectral engine."""
    mean = brute_force_mean(u, p, ops, n) if n**p.k <= 10**3 else cesaro_spectral(dec, p, ops, n).matrix
    return operator_norm(mean - limit_operator(dec, p, ops))


class TestTupleOracle:
    """The frame contraction and the telescoped bound against literal tuple loops."""

    @pytest.mark.parametrize("n", [7, 1000])
    def test_bound_on_degenerate_rational_system(self, rng, n):
        u, dec = degenerate_system(3)
        assert sorted(line.basis.shape[1] for line in dec.entries) == [1, 1, 2, 2]
        ops = random_ops(rng, 5, 6)
        bound = error_bound(dec, P121323, ops, n)
        assert measured_error(u, dec, P121323, ops, n) <= bound
        assert bound <= tuple_bound_oracle(dec, P121323, ops, n) * (1 + 1e-12)

    @pytest.mark.parametrize("n", [7, 1000])
    def test_bound_on_haar_system(self, rng, n):
        u, dec = random_system(12, 4, "haar")
        ops = random_ops(rng, 5, 4)
        bound = error_bound(dec, P121323, ops, n)
        assert measured_error(u, dec, P121323, ops, n) <= bound
        assert bound <= tuple_bound_oracle(dec, P121323, ops, n) * (1 + 1e-12)

    @pytest.mark.parametrize("n", [7, 10**3, 10**6, 10**9])
    def test_bound_at_a_float_resonance_inside_the_tolerance(self, rng, n):
        # z_0 z_1 lies 0.9 tol from 1, so the pair resonates with a kernel K != 1: K - 1 cancels.
        u, dec = float_resonance_system(7)
        distance = abs(phase_value(*phase_sum([dec.phases[0], dec.phases[-1]])) - 1.0)
        assert 0.89 * dec.tolerances.resonance < distance < 0.91 * dec.tolerances.resonance
        assert resonant_partners(dec) == (3, None, None, 0)  # lines sorted by turns: 0.9 + delta is last
        ops = random_ops(rng, 5, 4)
        assert measured_error(u, dec, P121323, ops, n) <= error_bound(dec, P121323, ops, n)

    def test_report_bounds_match_error_bound(self, rng):
        _, dec = degenerate_system(4)
        ops = random_ops(rng, 5, 6)
        report = convergence_report(dec, P121323, ops, [10, 100])
        for row in report.rows:
            assert row.certified_bound == error_bound(dec, P121323, ops, row.N)

    def test_error_bounds_equal_per_horizon_bounds(self, rng):
        _, dec = degenerate_system(6)
        ops = random_ops(rng, 5, 6)
        Ns = [1, 7, 100, 10007]
        assert error_bounds(dec, P121323, ops, Ns) == [error_bound(dec, P121323, ops, n) for n in Ns]
        with pytest.raises(ValueError):
            error_bounds(dec, P121323, ops, [10, 0])

    def test_mean_and_limit_on_degenerate_crossing_case(self, rng):
        u, dec = degenerate_system(5)
        ops = random_ops(rng, 5, 6)
        for n in (3, 5):
            got = cesaro_spectral(dec, P121323, ops, n).matrix
            np.testing.assert_allclose(got, brute_force_mean(u, P121323, ops, n), atol=1e-12)
        np.testing.assert_allclose(
            limit_operator(dec, P121323, ops), tuple_limit_oracle(dec, P121323, ops), atol=1e-12
        )

    def test_truncated_limit_on_proper_subset(self, rng):
        _, dec = degenerate_system(6)
        ops = random_ops(rng, 3, 6)
        sigma = antidiagonal_spectrum(dec)
        subset = sigma[::2]
        assert 0 < len(subset) < len(sigma)
        last_blocks = {dec.phases.index(ph) for ph in subset}
        np.testing.assert_allclose(
            limit_truncated(dec, P1212, ops, subset),
            tuple_limit_oracle(dec, P1212, ops, last_blocks),
            atol=1e-12,
        )


PAIR_PARTITIONS = [p for k in (1, 2, 3) for p in enumerate_pair_partitions(k)]
RESONANT_SYSTEMS = {
    "rational-rank-2": lambda: degenerate_system(3),
    "orthogonal": lambda: orthogonal_system(5, 6),
    "float-resonance": lambda: float_resonance_system(7),
}


class TestSummedDifference:
    """The spectral report reads M_N - L from the bound's summed difference W (sum_l X_l) W*, so its
    error is checked here against means and limits it does not form."""

    @staticmethod
    def spectral_report(monkeypatch, dec, p, ops, Ns):
        def refuse(*args, **kwargs):
            raise AssertionError("a spectral report formed a mean or a limit")

        monkeypatch.setattr(engines, "cesaro_spectral", refuse)
        monkeypatch.setattr(engines, "limit_operator", refuse)
        report = convergence_report(dec, p, ops, Ns)
        monkeypatch.undo()
        return report

    @pytest.mark.parametrize("system", RESONANT_SYSTEMS)
    @pytest.mark.parametrize("p", PAIR_PARTITIONS, ids=str)
    def test_errors_match_the_direct_mean_minus_the_limit(self, monkeypatch, system, p):
        u, dec = RESONANT_SYSTEMS[system]()
        ops = random_ops(np.random.default_rng(len(p.labels)), p.m - 1, dec.dim)
        Ns = [7, 20]
        report = self.spectral_report(monkeypatch, dec, p, ops, Ns)
        limit = limit_operator(dec, p, ops)
        assert operator_norm(limit) > 0.0
        for row in report.rows:
            diff = cesaro_direct(u, p, ops, row.N).matrix - limit
            assert abs(row.error_op - operator_norm(diff)) <= ROUNDING_TOL * norm_product(ops)
            assert abs(row.error_frob - np.linalg.norm(diff)) <= ROUNDING_TOL * norm_product(ops)
            assert bound_excess(row.error_op, row.certified_bound, ops) <= ROUNDING_TOL

    @pytest.mark.parametrize("p", PAIR_PARTITIONS, ids=str)
    def test_errors_on_a_haar_system_are_the_mean_minus_the_limit_bit_for_bit(self, monkeypatch, p):
        _, dec = random_system(12, 5, "haar")
        ops = random_ops(np.random.default_rng(len(p.labels)), p.m - 1, 5)
        Ns = [7, 100, 10**4]
        report = self.spectral_report(monkeypatch, dec, p, ops, Ns)
        limit = limit_operator(dec, p, ops)
        for row in report.rows:
            diff = cesaro_spectral(dec, p, ops, row.N).matrix - limit
            assert (row.error_op, row.error_frob) == (operator_norm(diff), float(np.linalg.norm(diff)))

    @pytest.mark.parametrize("system, labels", [("orthogonal-16", "1,2,1,2"), ("orthogonal-16", "1,2,2,1"),
                                                ("rational-rank-2", "1,2,1,2"), ("rational-rank-2", "1,2,2,1")])
    def test_the_bound_is_the_error_up_to_its_allowance(self, system, labels):
        # The norm of the summed difference: the sum of the terms' norms was 1.3-2 times the error here.
        _, dec = orthogonal_system(5, 16) if system == "orthogonal-16" else degenerate_system(3)
        p = parse_partition(labels)
        ops = random_ops(np.random.default_rng(5), p.m - 1, dec.dim)
        for row in convergence_report(dec, p, ops, [100, 10**4]).rows:
            assert 0.0 < row.error_op <= row.certified_bound <= row.error_op * (1 + 1e-6)


    def test_the_rounding_radius_survives_a_difference_near_1e_minus_300(self):
        # At N = 10^300 the magnitude contractions are near 1e-300, whose squared entries underflow.
        _, dec = from_eigensystem([Phase.rational(k, 3) for k in range(3)], np.eye(3))
        ops = np.array(random_ops(np.random.default_rng(1), 1, 3))
        (x, bound, radius), = engines._differences(dec, P11, ops, [10**300])
        assert 0.0 < radius < 1e-12 * operator_norm(x) < bound


SWEEP_PARTITIONS = PAIR_PARTITIONS + [parse_partition("1,2,3,1,2,3,4,4")]


def _sweep_system(kind, seed):
    """All blocks of rank 1 (Haar, or distinct sevenths that resonate in pairs), mixed ranks (exact
    phases with repeats), or one block (U = zI)."""
    d = 2 + seed % 5
    if kind == "rank-one" and seed % 2:
        rng = np.random.default_rng(seed)
        return from_eigensystem([Phase.rational(int(k), 7) for k in rng.permutation(7)[:d]], haar_unitary(rng, d))[1]
    if kind == "rank-one":
        return random_system(seed, d, "haar")[1]
    if kind == "mixed":
        return degenerate_system(seed)[1]
    d = 1 + seed % 4
    return from_eigensystem([Phase.rational(seed % 5, 5)] * d, haar_unitary(np.random.default_rng(seed), d))[1]


class TestPlannedSweep:
    """``engines._contract`` against the per-block sweep it replaced (``conftest.contract_per_block``)."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["rank-one", "mixed", "single-block"]), st.integers(0, 2**16),
           st.sampled_from(SWEEP_PARTITIONS), st.sampled_from([1, 2, 7, 10**4]))
    def test_mean_and_limits_match_the_per_block_sweep(self, kind, seed, p, n):
        dec = _sweep_system(kind, seed)
        rng = np.random.default_rng(seed)
        ops = random_ops(rng, p.m - 1, dec.dim)
        scale = max(1.0, np.prod([np.linalg.norm(a) for a in ops]))
        resonance = [dec._resonance.table] * p.k
        sigma = antidiagonal_spectrum(dec)
        subset = [ph for ph in sigma if rng.random() < 0.5]
        chosen = np.isin(np.arange(len(dec.phases)), [dec.phases.index(ph) for ph in subset])
        pairs = [
            (cesaro_spectral(dec, p, ops, n).matrix, contract_per_block(dec, p, ops, [dec._pair_sums.kernels(n)] * p.k)),
            (limit_operator(dec, p, ops), contract_per_block(dec, p, ops, resonance)),
            (limit_truncated(dec, p, ops, subset),
             contract_per_block(dec, p, ops, [table * chosen for table in resonance])),
        ]
        for got, ref in pairs:
            assert np.linalg.norm(got - ref) <= 1e-12 * scale

    @pytest.mark.parametrize("p", SWEEP_PARTITIONS, ids=str)
    def test_core_on_slot_matrices_in_an_identity_frame(self, p):
        # The core reads arrays only: dense slot matrices, random class tables read at the blocks of
        # each column pair, and a stand-in for the decomposition that the reference reads.
        rng = np.random.default_rng(len(p.labels) * 31 + p.k)
        for ranks in [(1,), (1, 1, 1), (2, 2), (2, 2, 2), (3,), (2, 1, 3)]:
            B, d = len(ranks), sum(ranks)
            blocks = np.repeat(np.arange(B), ranks)
            slots = np.array(random_ops(rng, p.m - 1, d)).reshape(p.m - 1, d, d)
            tables = [rng.standard_normal((B, B)) + 1j * rng.standard_normal((B, B)) for _ in range(p.k)]
            frame = types.SimpleNamespace(dim=d, frame=np.eye(d), blocks=blocks)
            scale = max(1.0, np.prod([np.linalg.norm(a) for a in slots])) * max(1.0, *(np.abs(t).max() for t in tables)) ** p.k
            got = engines._contract(p, slots, [t.take(blocks[:, None] * B + blocks) for t in tables])
            assert np.linalg.norm(got - contract_per_block(frame, p, list(slots), tables)) <= 1e-12 * scale

    def test_plan_peaks(self):
        # The crossing triples hold at most one column index besides the result's two: d^3 at d = 64,
        # whatever the ranks of the blocks.  The fourfold crossing holds d^4.
        assert engines._network(P121323, 64)[2] == 64**3
        assert engines._network(parse_partition("1,2,3,1,2,3"), 64)[2] == 64**3
        assert engines._network(parse_partition("1,2,3,1,2,3,4,4"), 64)[2] == 64**3
        assert engines._network(parse_partition("1,2,3,4,1,2,3,4"), 6)[2] == 6**4

    def test_a_network_on_56_slots_is_planned_and_evaluated(self):
        # One index per slot, with no cap on their number: 1,1,2,2,...,28,28 at d = 2 holds d^2 entries at most,
        # and its means are the nested engine's.
        p = parse_partition(",".join(str(1 + i // 2) for i in range(56)))
        assert engines._network(p, 2)[2] == 4
        dec = random_system(7, 2, "haar")[1]
        rng = np.random.default_rng(7)
        ops = [haar_unitary(rng, 2) for _ in range(55)]
        for n in (3, 10):
            want = cesaro_nested(dec, p, ops, n).matrix
            assert np.linalg.norm(cesaro_spectral(dec, p, ops, n).matrix - want) <= 1e-12 * np.linalg.norm(want)

    def test_plans_are_pinned(self):
        # Every pair partition with k <= 4 at d = 2, 4 and 64, 372 networks, planned by the greedy pair rule
        # (numpy's greedy einsum_path gives the same plans); a digest of the steps, result order and peaks.
        plans = [engines._network(p, d) for k in range(1, 5) for p in enumerate_pair_partitions(k) for d in (2, 4, 64)]
        digest = "013fe5f3f0ad4d6916f30994e9803c49e21cf56f46738aa08e577aff6d24a0e9"
        assert hashlib.sha256(repr(plans).encode()).hexdigest() == digest

    @pytest.mark.parametrize("p", SWEEP_PARTITIONS, ids=str)
    def test_planned_peak_is_the_largest_tensor_the_steps_form(self, p):
        for d in (1, 2, 3, 4, 6):
            steps, _, peak = engines._network(p, d)
            # Each step's operands, grouped as the product reads them, and its result.
            formed = [math.prod(step[i]) for step in steps for i in (3, 5, 6)]
            assert peak == max(d * d, *formed)

    @pytest.mark.parametrize("labels", ["1,1", "1,2,2,1", "1,2,2,1,3,3"])
    def test_budget_counts_the_starting_tensor_of_a_sweep_that_never_widens(self, labels, monkeypatch):
        p = parse_partition(labels)
        dec = random_system(3, 8, "haar")[1]
        ops = random_ops(np.random.default_rng(3), p.m - 1, 8)
        assert engines._network(p, 8)[2] == 64
        for run in (lambda: cesaro_spectral(dec, p, ops, 5), lambda: limit_operator(dec, p, ops)):
            monkeypatch.setattr(engines, "SPECTRAL_ENTRY_BUDGET", 63)
            with pytest.raises(BudgetError, match="planned peak of 6.400e[+]01 entries"):
                run()
            monkeypatch.setattr(engines, "SPECTRAL_ENTRY_BUDGET", 64)
            run()

    def test_budget_counts_the_frame_whatever_the_ranks(self, monkeypatch):
        # Ranks 2, 1, 1 at d = 4 plan the network of a Haar d = 4 system: d^3 = 64 entries on 1,2,1,2.
        systems = [from_eigensystem([Phase.rational(k, 3) for k in (0, 0, 1, 2)],
                                    haar_unitary(np.random.default_rng(4), 4)), random_system(4, 4, "haar")]
        ops = random_ops(np.random.default_rng(4), 3, 4)
        assert engines._network(P1212, 4)[2] == 64
        for u, dec in systems:
            monkeypatch.setattr(engines, "SPECTRAL_ENTRY_BUDGET", 63)
            with pytest.raises(BudgetError, match="planned peak of 6.400e[+]01 entries"):
                cesaro_spectral(dec, P1212, ops, 5)
            monkeypatch.setattr(engines, "SPECTRAL_ENTRY_BUDGET", 64)
            mean = cesaro_spectral(dec, P1212, ops, 5).matrix
            assert np.linalg.norm(mean - cesaro_direct(u, P1212, ops, 5).matrix) <= 1e-12

    @pytest.mark.parametrize("labels", ["1,2,1,2", "1,2,1,3,2,3"])
    def test_d64_rank_8_line_under_the_default_budget(self, labels):
        # One rank-8 phase-0 line and 56 simple lines plan the d^3 entries of a Haar d = 64 system; a frame
        # padded to rank 8 (57 blocks of 8 columns) would plan 57 * 456^2 = 1.185e7.
        p = parse_partition(labels)
        u, dec = from_eigensystem([Phase.rational(0, 1)] * 8 + [Phase.rational(k, 67) for k in range(1, 57)],
                                  haar_unitary(np.random.default_rng(8), 64))
        ops = random_ops(np.random.default_rng(1), p.m - 1, 64)
        mean = cesaro_spectral(dec, p, ops, 3).matrix
        if p == P1212:
            limit = limit_operator(dec, p, ops)
            assert np.linalg.norm(mean - contract_per_block(dec, p, ops, [dec._pair_sums.kernels(3)] * 2)) <= 1e-12
            assert np.linalg.norm(limit - contract_per_block(dec, p, ops, [dec._resonance.table] * 2)) <= 1e-12
        else:  # the per-block sweep would hold 57^2 d^2 entries here
            assert np.linalg.norm(mean - cesaro_direct(u, p, ops, 3).matrix) <= 1e-12

    @pytest.mark.parametrize("labels", ["1,2,1,3,2,3", "1,2,3,1,2,3", "1,2,3,1,2,3,4,4"])
    def test_d64_crossing_triple_under_the_default_budget(self, labels):
        # Exact phases k/67: every block has rank 1, and K_67 equals R entry for entry.
        p = parse_partition(labels)
        u, dec = from_eigensystem([Phase.rational(k, 67) for k in range(64)],
                                  haar_unitary(np.random.default_rng(67), 64))
        ops = random_ops(np.random.default_rng(1), p.m - 1, 64)
        mean = cesaro_spectral(dec, p, ops, 3).matrix
        assert np.linalg.norm(mean - cesaro_direct(u, p, ops, 3).matrix) <= 1e-12
        limit = limit_operator(dec, p, ops)
        assert np.array_equal(limit, cesaro_spectral(dec, p, ops, 67).matrix)

    def test_d64_fourfold_crossing_is_over_the_default_budget(self):
        p = parse_partition("1,2,3,4,1,2,3,4")
        dec = from_eigensystem([Phase.rational(k, 67) for k in range(64)],
                               haar_unitary(np.random.default_rng(67), 64))[1]
        ops = random_ops(np.random.default_rng(1), p.m - 1, 64)
        with pytest.raises(BudgetError, match="planned peak of 1.678e[+]07 entries"):
            limit_operator(dec, p, ops)
        with pytest.raises(BudgetError, match="planned peak of 1.678e[+]07 entries"):
            cesaro_spectral(dec, p, ops, 3)


class TestOperatorStack:
    """The operators are checked as one stack; a failure names the first bad operator as before."""

    @staticmethod
    def _calls(dec):
        sigma = antidiagonal_spectrum(dec)
        return [lambda ops: cesaro_spectral(dec, P1212, ops, 10),
                lambda ops: limit_operator(dec, P1212, ops),
                lambda ops: limit_truncated(dec, P1212, ops, sigma)]

    @pytest.mark.parametrize("case,message", [
        ("ragged", r"operator 2 must be a nonempty square matrix, got shape \(4, 3\)"),
        ("nan", "operator 3 contains non-finite entries"),
        ("inf", "operator 1 contains non-finite entries"),
        ("-inf", "operator 2 contains non-finite entries"),
        ("dimension", "operator 1 has dimension 3, expected 4"),
        ("count", "partition on 4 slots needs 3 operators, got 2"),
        ("3-d", r"operator 1 must be a nonempty square matrix, got shape \(1, 4, 4\)"),
    ])
    def test_rejects_each_bad_stack_naming_the_operator(self, rng, case, message):
        _, dec = random_system(6, 4, "rational", 4)
        ops = random_ops(rng, 3, 4)
        if case == "ragged":
            ops[1] = ops[1][:, :3]
        elif case in ("nan", "inf", "-inf"):
            bad = {"nan": 2, "inf": 0, "-inf": 1}[case]
            ops[bad] = ops[bad].copy()
            ops[bad][1, 2] = float(case)
        elif case == "dimension":
            ops = [a[:3, :3] for a in ops]
        elif case == "count":
            ops = ops[:2]
        else:
            ops = [a[None] for a in ops]
        for call in self._calls(dec):
            with pytest.raises(ValueError, match=message):
                call(ops)
            if case != "ragged":
                with pytest.raises(ValueError, match=message):  # the same operators as one array
                    call(np.array(ops))

    def test_accepts_lists_tuples_arrays_and_nested_lists(self, rng):
        _, dec = random_system(6, 4, "rational", 4)
        ops = random_ops(rng, 3, 4)
        for call in self._calls(dec):
            want = call(ops)
            want = want.matrix if hasattr(want, "matrix") else want
            for form in (tuple(ops), np.array(ops), [a.tolist() for a in ops], (a for a in ops)):
                got = call(form)
                assert np.array_equal(got.matrix if hasattr(got, "matrix") else got, want)


def test_the_resonance_tolerance_is_read_from_the_decomposition_only():
    from entcesaro.correlations import correlation_limit

    for fn in (limit_operator, limit_truncated, form_value, error_bound, error_bounds, spectral_gap,
               convergence_report, resonant_partners, antidiagonal_spectrum, correlation_limit):
        assert not [name for name in inspect.signature(fn).parameters if "tol" in name], fn.__name__
    _, dec = random_system(3, 4, "rational", 3)
    with pytest.raises(TypeError):
        limit_operator(dec, P1212, random_ops(np.random.default_rng(3), 3, 4), 1e-6)


def _record_outputs(dec, p, ops):
    """Every engine output that reads the decomposition's recorded tables."""
    sigma = antidiagonal_spectrum(dec)
    return [
        dec._pair_sums.kernels(1000),
        dec._resonance.table,
        cesaro_spectral(dec, p, ops, 7).matrix,
        cesaro_spectral(dec, p, ops, 10**4).matrix,
        limit_operator(dec, p, ops),
        limit_truncated(dec, p, ops, sigma),
        limit_truncated(dec, p, ops, sigma[:1]),
        np.array(error_bounds(dec, p, ops, [3, 10**5])),
        np.array(list(decomposition_residuals(dec, reconstruct(dec)).values())),
        np.array([-1 if c is None else c for c in resonant_partners(dec)]),
        np.array([ph.turns for ph in sigma]),
        np.array(spectral_gap(dec)),
    ]


def _assert_bit_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSpectralRecord:
    """The tables a decomposition records on first use: read again, never stale, never shared."""

    @pytest.mark.parametrize("mode", ["haar", "rational"])
    def test_repeated_calls_are_bit_identical_to_a_fresh_decomposition(self, mode):
        u, dec = random_system(9, 5, mode, 4)
        ops = random_ops(np.random.default_rng(9), 5, 5)
        first = _record_outputs(dec, P121323, ops)
        _assert_bit_identical(_record_outputs(dec, P121323, ops), first)
        fresh = decompose(u) if mode == "haar" else random_system(9, 5, mode, 4)[1]
        _assert_bit_identical(_record_outputs(fresh, P121323, ops), first)

    def test_the_resonance_tolerance_decides_the_record(self):
        # 0.1 and 0.9 + 1e-7 resonate within 1e-5 (|zw - 1| = 6.3e-7) but not within 1e-8;
        # within 2 every pair resonates, so each phase gets several partners.
        phases = [Phase.from_turns(t) for t in (0.1, 0.9 + 1e-7, 0.5, 0.3)]

        def built(tol):
            return from_eigensystem(phases, haar_unitary(np.random.default_rng(5), 4), Tolerances(resonance=tol))[1]

        ops = random_ops(np.random.default_rng(5), 3, 4)
        decs = {tol: built(tol) for tol in (1e-8, 2.0, 1e-5)}
        expected = {tol: _record_outputs(built(tol), P1212, ops) for tol in (1e-8, 1e-5)}
        assert resonant_partners(decs[1e-5]) != resonant_partners(decs[1e-8])
        for _ in range(2):
            for tol, dec in decs.items():
                if tol == 2.0:
                    with pytest.raises(ValueError, match="multiple partners"):
                        limit_operator(dec, P1212, ops)
                    with pytest.raises(ValueError, match="multiple partners"):
                        spectral_gap(dec)
                else:
                    _assert_bit_identical(_record_outputs(dec, P1212, ops), expected[tol])
        assert "_resonance" not in vars(decs[2.0])
        with pytest.raises(ValueError, match="must be positive"):
            Tolerances(resonance=math.nan)
        assert all("_resonance" in vars(decs[tol]) for tol in (1e-8, 1e-5))

    def test_recorded_arrays_reject_writes(self):
        _, dec = random_system(3, 4, "rational", 3)
        limit_operator(dec, P1212, random_ops(np.random.default_rng(3), 3, 4))
        arrays = [dec.frame, dec.blocks, dec.spectrum.turns, dec.spectrum.exact, dec.spectrum.numerators,
                  *(line.basis for line in dec.entries), dec._frame_h, dec._column_pairs, dec._resonance.table,
                  dec._pair_sums.kernels(10)]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]

    @pytest.mark.parametrize("mode", ["haar", "rational"])
    def test_kept_kernel_tables_equal_fresh_ones(self, mode):
        _, dec = random_system(6, 5, mode, 4)
        for n in (7, 100, 7, 10**4, 100, 3, 11, 13, 7, 10**9, 100):
            sums = dec._pair_sums
            table = sums.kernels(n)
            assert sums.kernels(n) is table
            assert not table.flags.writeable
            assert table.tobytes() == pair_sums(dec.phases).kernels(n).tobytes()
            assert len(sums._kernel_memo) <= KERNEL_MEMO_HORIZONS

    def test_kernel_memo_keeps_the_latest_horizons(self):
        sums = pair_sums([Phase.from_turns(t) for t in (0.1, 0.35, 0.6)])
        for n in range(1, 11):
            sums.kernels(n)
        assert list(sums._kernel_memo) == list(range(11 - KERNEL_MEMO_HORIZONS, 11))

    @pytest.mark.parametrize("Ns", [[10, 100, 1000], [1, 2, 3, 4, 5, 6]], ids=["three", "six"])
    def test_convergence_report_computes_each_kernel_table_once(self, monkeypatch, Ns):
        # The bound and the error at each horizon read one table, also with more horizons than the
        # decomposition keeps tables for.
        _, dec = random_system(8, 4, "haar")
        computed = []
        uncached = PhaseSums._kernels
        monkeypatch.setattr(PhaseSums, "_kernels", lambda self, n: computed.append(n) or uncached(self, n))
        convergence_report(dec, P1212, random_ops(np.random.default_rng(8), 3, 4), Ns)
        assert sorted(computed) == Ns

    def test_engine_calls_build_no_phase_objects(self):
        u = haar_unitary(np.random.default_rng(12), 6)
        dec = decompose(u)
        ops = random_ops(np.random.default_rng(12), 5, 6)
        cesaro_spectral(dec, P121323, ops, 100)
        limit_operator(dec, P121323, ops)
        error_bounds(dec, P121323, ops, [10, 100])
        for engine in engines.ENGINE_NAMES:
            convergence_report(dec, P1221, ops[:3], [10, 100], engine=engine)
        assert not {"entries", "phases"} & set(vars(dec))

    def test_replace_starts_an_empty_record(self):
        _, dec = random_system(4, 4, "haar")
        ops = random_ops(np.random.default_rng(4), 3, 4)
        limit_operator(dec, P1212, ops)
        assert {"_pair_sums", "_frame_h", "_column_pairs", "_resonance"} <= set(vars(dec))
        copy = SpectralDecomposition(dec.dim, dec.spectrum, dec.frame, dec.blocks, dec.source_unitarity,
                                     Tolerances(resonance=1e-6))
        assert not {"phases", "entries", "_pair_sums", "_frame_h", "_column_pairs", "_resonance"} & set(vars(copy))
        _, at_tolerance = random_system(4, 4, "haar", tol=Tolerances(resonance=1e-6))
        np.testing.assert_array_equal(limit_operator(copy, P1212, ops), limit_operator(at_tolerance, P1212, ops))

    def test_budget_guard_runs_after_a_successful_call(self, rng, monkeypatch):
        _, dec = random_system(5, 4, "rational", 6)
        ops = random_ops(rng, 3, 4)
        cesaro_spectral(dec, P1212, ops, 10)
        monkeypatch.setattr(engines, "SPECTRAL_ENTRY_BUDGET", 10)
        for _ in range(2):
            with pytest.raises(BudgetError):
                cesaro_spectral(dec, P1212, ops, 10)
            with pytest.raises(BudgetError):
                limit_operator(dec, P1212, ops)


def _capped_system():
    """A d = 6 system with a Haar eigenbasis, float phases and a state on its phase-0 line, with a
    correlation on 1,2,1,2; six blocks of rank 1."""
    rng = np.random.default_rng(6)
    basis = haar_unitary(rng, 6)
    u, dec = from_eigensystem([Phase.from_turns(t) for t in (0.0, *rng.random(5))], basis)
    return make_system(u, basis[:, 0], dec=dec), CorrelationSpec(P1212, tuple(random_ops(rng, 5, 6)))


# Every call that runs a planned spectral contraction, on (system, spec): the spectral entry points on the
# inner operators, the correlations on all of them.
SPECTRAL_CALLS = {
    "cesaro_spectral": lambda s, c: cesaro_spectral(s.dec, c.partition, c.ops[1:-1], 5),
    "limit_operator": lambda s, c: limit_operator(s.dec, c.partition, c.ops[1:-1]),
    "limit_truncated": lambda s, c: limit_truncated(s.dec, c.partition, c.ops[1:-1], antidiagonal_spectrum(s.dec)),
    "form_value": lambda s, c: form_value(s.dec, c.partition, c.ops[1:-1], np.ones(6), np.ones(6)),
    "error_bound": lambda s, c: error_bound(s.dec, c.partition, c.ops[1:-1], 5),
    "error_bounds": lambda s, c: error_bounds(s.dec, c.partition, c.ops[1:-1], [5, 50]),
    **{f"convergence_report[{name}]": lambda s, c, name=name: convergence_report(
        s.dec, c.partition, c.ops[1:-1], [5, 50], engine=name) for name in ("spectral", "direct")},
    "cesaro_correlation": lambda s, c: cesaro_correlation(s, c, 5),
    "correlation_limit": correlation_limit,
    "correlation_deviations": lambda s, c: correlation_deviations(s, c, [5, 50]),
}
# Every call that runs the direct engine's sweep at N = 5.
DIRECT_CALLS = {
    "cesaro_direct": lambda s, c: cesaro_direct(s.unitary, c.partition, c.ops[1:-1], 5),
    "ENGINES[direct]": lambda s, c: engines.ENGINES["direct"](s.unitary, s.dec, c.partition, c.ops[1:-1], 5),
    "convergence_report[direct]": lambda s, c: convergence_report(s.dec, c.partition, c.ops[1:-1], [5], "direct"),
}


class TestMemoryCaps:
    """One module constant caps each engine's planned peak, read by every entry point when it is called."""

    @pytest.mark.parametrize("name", SPECTRAL_CALLS)
    def test_the_spectral_cap_covers_every_entry_point(self, monkeypatch, name):
        system, spec = _capped_system()
        assert len(system.dec.spectrum.turns) == 6
        peak = engines._network(P1212, 6)[2]
        monkeypatch.setattr(engines, "SPECTRAL_ENTRY_BUDGET", peak - 1)
        message = re.escape(f"spectral engine: planned peak of {peak:.3e} entries exceeds")
        with pytest.raises(BudgetError, match=message):
            SPECTRAL_CALLS[name](system, spec)
        monkeypatch.setattr(engines, "SPECTRAL_ENTRY_BUDGET", peak)
        SPECTRAL_CALLS[name](system, spec)

    @pytest.mark.parametrize("name", DIRECT_CALLS)
    def test_the_sweep_cap_covers_every_direct_entry_point(self, monkeypatch, name):
        system, spec = _capped_system()
        peak = engines._direct_entries(P1212, 5, 6)
        monkeypatch.setattr(engines, "_SWEEP_ENTRY_BUDGET", peak - 1)
        with pytest.raises(BudgetError, match=re.escape(f"direct engine: planned peak of {peak:.3e} entries exceeds")):
            DIRECT_CALLS[name](system, spec)
        monkeypatch.setattr(engines, "_SWEEP_ENTRY_BUDGET", peak)
        DIRECT_CALLS[name](system, spec)

    def test_a_nested_report_refuses_a_crossing_partition_before_any_contraction(self, monkeypatch):
        system, spec = _capped_system()
        monkeypatch.setattr(engines, "SPECTRAL_ENTRY_BUDGET", engines._network(P1212, 6)[2] - 1)
        calls, contract = [], engines._contract
        monkeypatch.setattr(engines, "_contract", lambda *args: calls.append(args) or contract(*args))
        message = "^nested engine requires a non-crossing pair partition, got 1,2,1,2$"
        with pytest.raises(ValueError, match=message) as refused:
            convergence_report(system.dec, P1212, spec.ops[1:-1], [10, 100], "nested")
        assert refused.type is ValueError and calls == []

    def test_each_message_prints_its_cap_exactly(self, monkeypatch):
        system, spec = _capped_system()
        monkeypatch.setattr(engines, "SPECTRAL_ENTRY_BUDGET", 215)  # the plan's peak is 216
        with pytest.raises(BudgetError) as spectral:
            limit_operator(system.dec, P1212, spec.ops[1:-1])
        assert str(spectral.value) == "spectral engine: planned peak of 2.160e+02 entries exceeds the memory budget 215"
        monkeypatch.setattr(engines, "_SWEEP_ENTRY_BUDGET", 2339)  # the sweep's peak at N = 5 is 2340
        with pytest.raises(BudgetError) as direct:
            cesaro_direct(system.unitary, P1212, spec.ops[1:-1], 5)
        assert str(direct.value) == "direct engine: planned peak of 2.340e+03 entries exceeds the memory budget 2339"
