import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpurify import (
    MixedQubit,
    SizeLimitError,
    block_fidelity,
    block_probability,
    block_spectrum,
    block_state_matrix,
    estimation_lambda,
    kron_power,
    max_abs,
    mean_fidelity,
    mean_fidelity_asymptote,
    multiplicity,
    outer,
    partial_trace,
    qubit_eigenstates,
    random_direction,
    yield_asymptote,
    yield_factor,
)
from qpurify import analytics
from qpurify.blocks import dicke_rows

from exact import exact_bloch_lengths, exact_probabilities

lam_st = st.floats(0.0, 1.0, allow_nan=False)
even_n_st = st.integers(1, 20).map(lambda k: 2 * k)

LAM_GRID = [i / 20 for i in range(21)]


def lab_block_state(q, j):
    """block_state_matrix lifted from Dicke coordinates to the 2j kept qubits."""
    dicke = dicke_rows(j)
    return dicke.T @ block_state_matrix(q, j) @ dicke


def exact_probability(n, lam: Fraction, j) -> Fraction:
    """Independent exact-rational route to the block probability."""
    c1 = (1 + lam) / 2
    c0 = (1 - lam) / 2
    J = n // 2
    d = math.comb(n, J - j) - (math.comb(n, J - j - 1) if j < J else 0)
    geom = sum(c1**k * c0 ** (2 * j - k) for k in range(2 * j + 1))
    return d * (c0 * c1) ** (J - j) * geom


def exact_fidelity(lam: Fraction, j) -> Fraction:
    c1 = (1 + lam) / 2
    c0 = (1 - lam) / 2
    return Fraction(1, 2 * j) * (
        (2 * j + 1) * c1 ** (2 * j + 1) / (c1 ** (2 * j + 1) - c0 ** (2 * j + 1))
        - c1 / (c1 - c0)
    )


class TestMultiplicity:
    def test_frozen_small_registers(self):
        assert [multiplicity(2, j) for j in (0, 1)] == [1, 1]
        assert [multiplicity(4, j) for j in (0, 1, 2)] == [2, 3, 1]
        assert [multiplicity(8, j) for j in (0, 1, 2, 3, 4)] == [14, 28, 20, 7, 1]

    def test_top_spin_always_single_copy(self):
        for n in (2, 10, 40, 68, 200):
            assert multiplicity(n, n // 2) == 1

    def test_exact_beyond_64_bit(self):
        # C(80, 40) - C(80, 39) overflows int64; result must stay exact
        value = multiplicity(80, 0)
        assert value == math.comb(80, 40) - math.comb(80, 39)
        assert value > 2**63 // 2**10

    def test_range_errors(self):
        with pytest.raises(ValueError):
            multiplicity(4, 3)
        with pytest.raises(ValueError):
            multiplicity(3, 1)


class TestBlockProbability:
    def test_pure_input_fills_top_block(self):
        assert block_probability(6, 1.0, 3) == 1.0
        for j in (0, 1, 2):
            assert block_probability(6, 1.0, j) == 0.0

    def test_two_qubit_values(self):
        assert block_probability(2, 0.5, 0) == pytest.approx(0.1875, abs=1e-15)
        assert block_probability(2, 0.5, 1) == pytest.approx(0.8125, abs=1e-15)

    def test_maximally_mixed_limit(self):
        expected = {0: 2 / 16, 1: 9 / 16, 2: 5 / 16}
        for j, value in expected.items():
            assert block_probability(4, 0.0, j) == pytest.approx(value, abs=1e-15)

    def test_matches_exact_rational_oracle(self):
        for n in (2, 6, 14):
            for num in (1, 3, 7):
                lam = Fraction(num, 10)
                for j in range(n // 2 + 1):
                    exact = float(exact_probability(n, lam, j))
                    got = block_probability(n, float(lam), j)
                    assert got == pytest.approx(exact, rel=1e-13, abs=1e-300)

    def test_log_space_path_matches_exact_oracle(self):
        # p_j is a product of up to n/2 ratios over the rows' sum, far out on both sides of the mode
        cases = [(60, Fraction(1, 2), (0, 5, 15, 30))]
        cases += [(2000, Fraction(num, 10), (0, 100, 600, 1000)) for num in (1, 6, 9)]
        for n, lam, js in cases:
            for j in js:
                exact = float(exact_probability(n, lam, j))
                got = block_probability(n, float(lam), j)
                assert got == pytest.approx(exact, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("lam", [0.0, 1e-12, 0.6, 1.0])
    @pytest.mark.parametrize("n", [2, 40, 2000])
    def test_one_row_is_the_spectrums_row(self, n, lam):
        # row j alone, from the cached columns, is the same float as row j of the full spectrum
        spect = block_spectrum(n, lam)
        assert [block_probability(n, lam, j) for j in range(n // 2 + 1)] == list(spect.probabilities)

    @pytest.mark.parametrize("x", [0.0, 1e-12, 0.3, 0.6, 0.999, 1 - 2**-52])
    @pytest.mark.parametrize("n", [2, 4, 6, 10, 40, 400])
    def test_every_row_matches_the_exact_rational(self, n, x):
        # rows on both sides of the mode, which lies at j = J for the largest x; an exact p_j below the smallest
        # normal float is only held to 1e-300
        exact = exact_probabilities(n, Fraction(x))
        got = block_spectrum(n, x).probabilities
        assert len(got) == len(exact) == n // 2 + 1
        for j, (p, q) in enumerate(zip(got, exact)):
            error = abs(Fraction(p) - q)
            assert error <= Fraction(1e-12) * q or (q < Fraction(sys.float_info.min) and error <= Fraction(1e-300)), j

    @given(n=even_n_st, lam=lam_st)
    @settings(max_examples=80, deadline=None)
    def test_normalization(self, n, lam):
        total = math.fsum(block_probability(n, lam, j) for j in range(n // 2 + 1))
        assert abs(total - 1.0) < 1e-12

    def test_normalization_grid_up_to_forty(self):
        for n in range(2, 41, 2):
            for lam in LAM_GRID:
                total = math.fsum(block_probability(n, lam, j) for j in range(n // 2 + 1))
                assert abs(total - 1.0) < 1e-12


class TestBlockFidelity:
    def test_pure_input(self):
        for j in (1, 2, 7):
            assert block_fidelity(1.0, j) == 1.0

    def test_two_qubit_worked_value(self):
        c1, c0 = 0.75, 0.25
        assert block_fidelity(0.5, 1) == pytest.approx(c1 * (1 - c0 / 2) / (1 - c0 * c1), abs=1e-15)
        assert block_fidelity(0.5, 1) == pytest.approx(21 / 26, abs=1e-15)

    def test_small_lambda_limit(self):
        for j in (1, 3, 10):
            assert block_fidelity(1e-6, j) == pytest.approx(0.5, abs=1e-5)
            assert block_fidelity(1e-7, j) == pytest.approx(0.5, abs=1e-6)
            assert abs(block_fidelity(1e-6, j) - block_fidelity(1e-7, j)) < 1e-5

    def test_matches_exact_rational_oracle(self):
        for num in (1, 5, 9):
            lam = Fraction(num, 10)
            for j in (1, 2, 5, 11):
                exact = float(exact_fidelity(lam, j))
                assert block_fidelity(float(lam), j) == pytest.approx(exact, rel=1e-13)

    def test_large_block_path_agrees_with_exact_oracle(self):
        for num in (1, 6, 9):
            lam = Fraction(num, 10)
            for j in (100, 600, 1000):
                exact = float(exact_fidelity(lam, j))
                assert block_fidelity(float(lam), j) == pytest.approx(exact, rel=1e-11)

    def test_columns_past_the_available_memory_are_refused_before_the_build(self, monkeypatch):
        # about 400 bytes a qubit: spin 10^6 needs about 763 MiB, and a spectrum of 10^6 qubits half that
        monkeypatch.setattr("qpurify.core._mem_available_bytes", lambda: 100 * 2**20)
        analytics._lambda_columns.cache_clear()
        for build in (lambda: block_fidelity(0.6, 10**6), lambda: block_spectrum(10**6, 0.6)):
            with pytest.raises(SizeLimitError, match=r"^a spectrum to j=\d+ needs about \d+ MiB of float columns"):
                build()
        assert analytics._lambda_columns.cache_info()[:2] == (0, 0)

        def unread():
            raise AssertionError("MemAvailable read below 64 MiB")

        monkeypatch.setattr("qpurify.core._mem_available_bytes", unread)
        assert 0.5 < block_fidelity(0.6, 80000) < 1.0  # 61 MiB

    def test_monotone_and_bounded_in_block_spin(self):
        for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
            values = [block_fidelity(lam, j) for j in range(1, 51)]
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert all(0.5 <= v <= 1.0 for v in values)

    def test_j0_continuation_is_continuous_and_bounded(self):
        # the small-lambda series branch must agree with the closed form
        for lam in (0.002, 0.0099):
            c1, c0 = (1 + lam) / 2, (1 - lam) / 2
            closed = c1 / lam + c1 * c0 * math.log(c0 / c1) / lam**2
            assert block_fidelity(lam, 0) == pytest.approx(closed, abs=1e-12)
        assert block_fidelity(0.0, 0) == 0.5
        assert block_fidelity(1.0, 0) == 1.0
        for lam in LAM_GRID:
            assert 0.5 <= block_fidelity(lam, 0) <= 1.0


class TestBlockSpectrum:
    def test_rows_cover_all_spins(self):
        spect = block_spectrum(6, 0.4)
        assert [row.j for row in spect.rows] == [0, 1, 2, 3]
        assert [row.multiplicity for row in spect.rows] == [5, 9, 5, 1]
        assert math.fsum(row.probability for row in spect.rows) == pytest.approx(1.0, abs=1e-13)
        assert all(row.probability >= 0.0 for row in spect.rows)
        big = block_spectrum(2000, 0.6)
        assert [row.multiplicity for row in big.rows] == [multiplicity(2000, j) for j in range(1001)]

    @pytest.mark.parametrize("lam, J", [(1e-12, 200), (1e-100, 40)])
    def test_bloch_lengths_match_exact_rationals_at_small_lengths(self, lam, J):
        # delta_j is a sum of positive terms, not 2 f_j - 1 formed from f_j ~ 1/2, so it keeps its relative accuracy
        blochs = block_spectrum(2 * J, lam).bloch_lengths
        for j, exact in enumerate(exact_bloch_lengths(J, Fraction(lam)), 1):
            assert abs(Fraction(blochs[j]) - exact) <= Fraction(1e-14) * exact, j

    @given(n=st.integers(1, 200).map(lambda k: 2 * k), lam=lam_st)
    @settings(max_examples=80, deadline=None)
    def test_spectrum_properties(self, n, lam):
        spect = block_spectrum(n, lam)
        assert abs(math.fsum(row.probability for row in spect.rows) - 1.0) <= 16 * np.finfo(float).eps
        # when lam is within a few ulps of 0, the prefix sums of ~2j weights
        # near 1 round f_j by up to ~1e-14 around its exact value 1/2 + O(lam j)
        tol = 64 * np.finfo(float).eps
        f = np.array([row.fidelity for row in spect.rows])
        assert np.all(f >= 0.5 - tol) and np.all(f <= 1.0)
        assert np.all(np.diff(f) >= -tol)

    def test_improvement_over_input_fidelity(self):
        # keeping both qubits after the symmetric outcome beats the raw c1
        for lam in LAM_GRID[1:-1]:
            assert block_fidelity(lam, 1) > (1 + lam) / 2


class TestSpectrumCaches:
    # the per-lambda columns are the one spectrum cache; nothing is cached per n
    @given(n=even_n_st, lam=lam_st, others=st.lists(lam_st, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_warm_caches_give_the_cold_spectrum(self, n, lam, others):
        def everything():
            summary = (yield_factor(n, lam), mean_fidelity(n, lam), estimation_lambda(n, lam))
            return block_spectrum(n, lam), summary, block_fidelity(lam, n // 2)

        analytics._lambda_columns.cache_clear()
        cold = everything()
        block_spectrum(8 * n + 6, lam)  # lam's columns now reach past n's power of two
        for other in others:  # n's spectrum built last under another lam
            block_spectrum(n, other)
        assert everything() == cold

    def test_columns_are_tuples(self):
        spect = block_spectrum(10, 0.3)
        cached = analytics._lambda_columns(0.3, 8)
        for column in (spect.multiplicities, spect.probabilities, spect.fidelities, *cached):
            assert isinstance(column, tuple)
        with pytest.raises(AttributeError):
            spect.probabilities = [0.0] * 6

    def test_caches_stay_within_their_bounds(self):
        for i in range(100):
            block_spectrum(2 * (i + 1), i / 99)
            block_fidelity(i / 99, 300)
        info = analytics._lambda_columns.cache_info()
        assert info.currsize <= info.maxsize

    @pytest.mark.parametrize("n, lam", [(4, math.nan), (4, -0.1), (4, 1.5), (4, math.inf), (5, 0.5), (0, 0.5)])
    def test_bad_input_is_refused_before_the_lookup(self, n, lam):
        analytics._lambda_columns.cache_clear()
        for call in (block_spectrum, yield_factor, mean_fidelity, estimation_lambda):
            with pytest.raises(ValueError):
                call(n, lam)
        if n == 4:
            with pytest.raises(ValueError):
                block_fidelity(lam, 2)
        assert analytics._lambda_columns.cache_info()[:2] == (0, 0)  # no hit, no miss


class TestAverages:
    def test_yield_pure(self):
        assert yield_factor(8, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_yield_two_qubits(self):
        assert yield_factor(2, 0.5) == pytest.approx(0.8125, abs=1e-15)
        assert yield_factor(2, 0.0) == pytest.approx(0.75, abs=1e-15)

    def test_mean_fidelity_pure(self):
        assert mean_fidelity(12, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_mean_fidelity_two_qubits_split(self):
        # p_1 f_1 = 13/16 * 21/26, and the spin-0 weight takes the continuity value
        assert mean_fidelity(2, 0.5) == pytest.approx(0.65625 + 0.1875 * block_fidelity(0.5, 0), abs=1e-14)

    def test_yield_tracks_asymptote(self):
        # the residual against lam + (1-lam)/(n lam) decays faster than 1/n^2
        for lam in (0.5, 0.6, 0.8):
            residuals = [
                abs(yield_factor(n, lam) - yield_asymptote(n, lam)) for n in (20, 40, 80)
            ]
            assert residuals[0] < 2e-3
            assert residuals[0] > residuals[1] > residuals[2]
            assert residuals[1] < residuals[0] / 4.5  # strictly super-quadratic decay

    def test_yield_residual_is_two_binomial_tails(self):
        # With k = J - j, B the Binomial(n, c0) pmf and B' the Binomial(n, c1)
        # pmf, p_j = [c1 B(k) - c0 B(k-1) + c1 B'(k-1) - c0 B'(k)] / lam.  The
        # first pair summed over every k gives lam + (1-lam)/(n lam) exactly,
        # so the residual is that pair's tail above J and the second pair,
        # both exponentially small in n.
        eps = np.finfo(float).eps

        def pmf(n, k, p):
            return math.comb(n, k) * p**k * (1 - p) ** (n - k) if 0 <= k <= n else 0

        for lam in (Fraction(1, 5), Fraction(3, 5), Fraction(9, 10)):
            c1, c0 = (1 + lam) / 2, (1 - lam) / 2
            for n in (2, 10, 40, 160):
                J = n // 2
                upper = sum(
                    (c1 * pmf(n, k, c0) - c0 * pmf(n, k - 1, c0)) * (1 - Fraction(k, J))
                    for k in range(J + 1, n + 2)
                )
                mirrored = sum(
                    (c1 * pmf(n, k - 1, c1) - c0 * pmf(n, k, c1)) * (1 - Fraction(k, J))
                    for k in range(J + 1)
                )
                tails = (mirrored - upper) / lam
                exact = sum(exact_probability(n, lam, j) * Fraction(j, J) for j in range(1, J + 1))
                assert exact - (lam + (1 - lam) / (n * lam)) == tails
                residual = yield_factor(n, float(lam)) - yield_asymptote(n, float(lam))
                assert abs(residual - tails) < n * eps

    def test_mean_fidelity_quadratic_residual(self):
        # genuine 1/n^2 correction: scaled residual stays near a constant
        for lam in (0.6, 0.8):
            scaled = [
                abs(mean_fidelity(n, lam) - mean_fidelity_asymptote(n, lam)) * n * n
                for n in (40, 80, 160, 320)
            ]
            for a, b in zip(scaled, scaled[1:]):
                assert b / a > 0.85 and b / a < 1.15

    def test_mean_fidelity_limit_scaling(self):
        lam = 0.6
        for n in (200, 400):
            scaled = (1 - mean_fidelity(n, lam)) * 2 * n * lam * lam / (1 - lam)
            assert scaled == pytest.approx(1.0, abs=0.02)

    def test_asymptote_requires_positive_lambda(self):
        with pytest.raises(ValueError):
            yield_asymptote(10, 0.0)


class TestBlockStateMatrix:
    def test_pure_input_gives_aligned_product(self, rng):
        q = MixedQubit(1.0, random_direction(rng))
        aligned = qubit_eigenstates(q)[0]
        got = lab_block_state(q, 1)
        assert max_abs(got - outer(kron_power(aligned, 2))) < 1e-13

    def test_maximally_mixed_gives_uniform_triplet(self):
        from qpurify.blocks import SINGLET

        got = lab_block_state(MixedQubit(0.0), 1)
        triplet = np.eye(4) - outer(SINGLET)
        assert max_abs(got - triplet / 3) < 1e-14

    def test_z_axis_weights(self):
        q = MixedQubit(0.5, (0, 0, 1))
        got = lab_block_state(q, 1)
        c1, c0 = 0.75, 0.25
        norm = c0**2 + c0 * c1 + c1**2
        expected = (
            c0**2 * np.diag([1.0, 0, 0, 0])
            + c0 * c1 * outer(np.array([0, 1, 1, 0]) / math.sqrt(2))
            + c1**2 * np.diag([0, 0, 0, 1.0])
        ) / norm
        assert max_abs(got - expected) < 1e-14

    def test_reduced_qubits_identical_with_block_fidelity(self, rng):
        for lam, j in [(0.3, 1), (0.7, 2), (0.5, 3)]:
            q = MixedQubit(lam, random_direction(rng))
            rho = lab_block_state(q, j)
            aligned = qubit_eigenstates(q)[0]
            first = partial_trace(rho, [1])
            for k in range(1, 2 * j + 1):
                reduced = partial_trace(rho, [k])
                assert max_abs(reduced - first) < 1e-12
                assert abs(np.real(aligned.conj() @ reduced @ aligned) - block_fidelity(lam, j)) < 1e-10

    def test_rejects_spin_zero(self):
        with pytest.raises(ValueError):
            block_state_matrix(MixedQubit(0.5), 0)
