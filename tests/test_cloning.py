
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpurify import (
    MixedQubit,
    block_fidelity,
    block_spectrum,
    block_state_matrix,
    build_schur_basis,
    density_matrix,
    estimation_lambda,
    kron_power,
    mean_fidelity,
    mixed_cloning_fidelity,
    pure_cloning_fidelity,
    purification_map_outputs,
)

from certificate import assert_bracketed, certified, certify, fidelity_operator
from conftest import random_qubit
from exact import exact_estimation_lambda


EXACT_LAMS = (Fraction(3, 10), Fraction(3, 5), Fraction(9, 10))


class TestPureCloningFidelity:
    def test_identity_cloning_is_perfect(self):
        for j in (1, 2, 5):
            assert pure_cloning_fidelity(j, 2 * j) == 1.0

    def test_two_to_four(self):
        assert pure_cloning_fidelity(1, 4) == pytest.approx(14 / 16, abs=1e-15)

    def test_estimation_limit(self):
        assert pure_cloning_fidelity(1, math.inf) == pytest.approx(3 / 4, abs=1e-15)
        assert pure_cloning_fidelity(0, math.inf) == 0.5

    def test_fewer_clones_than_copies_are_perfect(self):
        # a block keeps m of its 2j purified qubits
        for j in range(1, 6):
            assert [pure_cloning_fidelity(j, m) for m in range(1, 2 * j + 1)] == [1.0] * (2 * j)

    @pytest.mark.parametrize("m", [0, -1, 2.5, -math.inf, math.nan])
    def test_rejects_a_clone_count_below_one(self, m):
        for j in (0, 2):
            with pytest.raises(ValueError, match="integer >= 1"):
                pure_cloning_fidelity(j, m)

    @given(j=st.integers(1, 50), m_extra=st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_bloch_length_identity(self, j, m_extra):
        m = 2 * j + m_extra
        lhs = 2.0 * pure_cloning_fidelity(j, m) - 1.0
        rhs = (j / (j + 1)) * (m + 2) / m
        assert abs(lhs - rhs) < 1e-13


class TestMixedCloningFidelity:
    def test_pure_identity_cloning(self):
        assert mixed_cloning_fidelity(4, 4, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_pure_estimation_limit(self):
        for n in (2, 4, 10):
            f = mixed_cloning_fidelity(n, math.inf, 1.0)
            assert 2 * f - 1 == pytest.approx(n / (n + 2), abs=1e-13)

    def test_two_copies_match_scaling_relation(self):
        f = mixed_cloning_fidelity(2, math.inf, 0.5)
        assert 2 * f - 1 == pytest.approx(estimation_lambda(2, 0.5), abs=1e-14)

    def test_monotone_toward_estimation_limit(self):
        limit = mixed_cloning_fidelity(4, math.inf, 0.5)
        values = [mixed_cloning_fidelity(4, m, 0.5) for m in (4, 6, 10, 40, 400)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > limit for v in values)
        assert values[-1] == pytest.approx(limit, abs=1e-3)

    @pytest.mark.parametrize("n", [8, 200, 2000])
    def test_matches_exact_rationals(self, n):
        # 2F - 1 = lambda_inf (M + 2)/M exactly once the p_j sum to one
        for lam in EXACT_LAMS:
            lam_inf = exact_estimation_lambda(n, lam)
            for m in (n, n + 7, math.inf):
                gain = 1 if math.isinf(m) else Fraction(m + 2, m)
                exact = float(Fraction(1, 2) + lam_inf * gain / 2)
                assert abs(mixed_cloning_fidelity(n, m, float(lam)) - exact) <= 5e-16 * exact, (lam, m)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            mixed_cloning_fidelity(3, 4, 0.5)
        with pytest.raises(ValueError):
            mixed_cloning_fidelity(4, 4, 1.5)
        for m in (0, -1, -3, 2.5):
            with pytest.raises(ValueError, match="integer >= 1"):
                mixed_cloning_fidelity(2, m, 0.5)

    @pytest.mark.parametrize("n,lam,gap", [(2, 0.3, 0.0231761), (4, 0.6, 0.0111208), (20, 0.6, 4.011e-5)])
    def test_purification_differs_from_mean_fidelity_by_the_spin_zero_guess(self, n, lam, gap):
        # mixed_cloning_fidelity(n, 1, lam) scores the spin-0 outcome 1/2, the certified optimum;
        # mean_fidelity scores it at the continuity value f_0 (ROADMAP item 2)
        spect = block_spectrum(n, lam)
        expected = spect.probabilities[0] * (spect.fidelities[0] - 0.5) / spect.total()
        assert abs(mean_fidelity(n, lam) - mixed_cloning_fidelity(n, 1, lam) - expected) <= 1e-15
        assert expected == pytest.approx(gap, rel=1e-4)


class TestEstimationLambda:
    def test_no_information_at_zero_length(self):
        assert estimation_lambda(6, 0.0) == 0.0

    def test_pure_input_closed_form(self):
        assert estimation_lambda(2, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert estimation_lambda(4, 1.0) == pytest.approx(2 / 3, abs=1e-15)
        assert estimation_lambda(40, 1.0) == pytest.approx(40 / 42, abs=1e-13)

    @pytest.mark.parametrize("n", [8, 200, 2000])
    def test_matches_exact_rationals(self, n):
        for lam in EXACT_LAMS:
            exact = float(exact_estimation_lambda(n, lam))
            assert abs(estimation_lambda(n, float(lam)) - exact) <= 5e-16 * exact, lam

    @pytest.mark.parametrize("x", [1e-6, 1e-12, 1e-100])
    def test_matches_exact_rationals_at_small_lengths(self, x):
        # the Bloch lengths are summed, never formed as 2 f - 1 from f ~ 1/2, so nothing cancels as lam -> 0
        for n in (2, 4, 40, 400):
            exact = exact_estimation_lambda(n, Fraction(x))
            assert abs(Fraction(estimation_lambda(n, x)) - exact) <= Fraction(1e-14) * exact, n

    def test_two_copy_value_is_half_lambda(self):
        # exact identity: the symmetric-block weight times its length gain
        # reduces to lam for two copies, and the spin factor is 1/2
        for lam in (0.1, 0.25, 0.5, 0.75, 1.0):
            assert estimation_lambda(2, lam) == pytest.approx(lam / 2, abs=1e-14)

    def test_monotone_in_copies(self):
        for lam in (0.2, 0.6, 1.0):
            values = [estimation_lambda(n, lam) for n in range(2, 42, 2)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_bounded_and_convergent_to_unit_length(self):
        # many mixed copies pin down the direction perfectly, so the
        # estimated pure state approaches unit Bloch length
        for lam in (0.4, 0.8):
            v400 = estimation_lambda(400, lam)
            assert estimation_lambda(100, lam) < v400 < 1.0
        assert 1.0 - estimation_lambda(400, 0.8) < 0.015


DENSE_LAMS = (0.2, 0.4, 0.6, 0.8, 1.0)


def dense_estimate_and_prepare(n: int, q: MixedQubit) -> np.ndarray:
    """Single-qubit output of block measurement then estimate-and-prepare, on matrices.

    Each kept 2j-qubit branch of purification_map_outputs is measured with
    the covariant POVM (2j+1)|psi><psi|^(x)2j dpsi and |psi> is prepared; the
    spin-0 branch carries no direction and prepares I/2.  dpsi is uniform on
    the Bloch sphere: Gauss-Legendre in cos(theta) with 2j+2 nodes and a
    uniform rule in phi with 4j+1 points integrate the degree-(2j+1)
    integrand exactly.
    """
    outs = purification_map_outputs(build_schur_basis(n), kron_power(density_matrix(q), n))
    rho = 0.5 * np.trace(outs.pop(0)) * np.eye(2)
    for m_out, sigma in outs.items():
        j = m_out // 2
        n_phi = 4 * j + 1
        for x, w in zip(*np.polynomial.legendre.leggauss(2 * j + 2)):
            for step in range(n_phi):
                phase = np.exp(2j * math.pi * step / n_phi)
                psi = np.array([math.sqrt((1 + x) / 2), math.sqrt((1 - x) / 2) * phase])
                psi_m = kron_power(psi, m_out)
                density = (2 * j + 1) * np.real(psi_m.conj() @ sigma @ psi_m)
                rho = rho + (w / 2 / n_phi) * density * np.outer(psi, psi.conj())
    return rho


@pytest.fixture(scope="module")
def dense_estimation_table():
    """(N, lam) -> dense output state in the input's (anti-aligned, aligned) eigenbasis."""
    rng = np.random.default_rng(1995)
    table = {}
    for n in (2, 4, 6, 8):
        for lam in DENSE_LAMS:
            q = random_qubit(rng, lam=lam)
            _, vecs = np.linalg.eigh(density_matrix(q))  # columns: anti-aligned, aligned
            table[n, lam] = vecs.conj().T @ dense_estimate_and_prepare(n, q) @ vecs
    return table


def bloch_along_input(out: np.ndarray) -> float:
    return float(np.real(out[1, 1] - out[0, 0]))


class TestDenseEstimationRoute:
    def test_output_is_normalised_and_along_the_input(self, dense_estimation_table):
        for out in dense_estimation_table.values():
            assert abs(np.trace(out) - 1.0) < 1e-12
            assert abs(out[0, 1]) < 1e-12

    def test_matches_estimation_lambda(self, dense_estimation_table):
        for (n, lam), out in dense_estimation_table.items():
            assert abs(bloch_along_input(out) - estimation_lambda(n, lam)) < 1e-12, (n, lam)

    def test_crosses_the_input_length_at_small_n(self, dense_estimation_table):
        # superbroadcasting (D'Ariano, Macchiavello & Perinotti, PRL 95,
        # 060503): the estimated state is purer than each input from N = 6
        # at lam = 0.2 and from N = 8 at lam = 0.4 and 0.6
        first = {
            lam: next(
                (n for n in (2, 4, 6, 8) if bloch_along_input(dense_estimation_table[n, lam]) > lam),
                None,
            )
            for lam in DENSE_LAMS
        }
        assert first == {0.2: 6, 0.4: 8, 0.6: 8, 0.8: None, 1.0: None}


def measurement_bound(n: int, lam: float) -> float:
    """2 tr Y - 1 for tr Y, a bound on the mean fidelity of every measurement that guesses the direction from n copies.

    A measurement {E_m dm} that guesses m scores (1 + n.m)/2 on a direction n, so its mean fidelity is
    the integral over m of tr(E_m Omega_m), with Omega_m the integral over n of rho_n^(x)n (1 + n.m)/2.  Each
    Omega_m is a rotation of Omega_z, and Y = (+)_j y_j 1 commutes with every rotation, so Y >= Omega_z bounds
    every POVM, continuous outcomes included: F <= tr Y.  On one spin-j copy Omega_z is (c0 c1)^(J-j) times
    the diagonal [S_j + m T_j/(j(j + 1))]/(2(2j + 1)), m = -j..j, by the rotation integrals of |d^j_mk|^2 and
    |d^j_mk|^2 cos(theta) (1/(2j + 1) and mk/(j(j + 1)(2j + 1))), where S_j = sum_k c1^(j+k) c0^(j-k) and
    T_j = sum_k k c1^(j+k) c0^(j-k) over k = -j..j.  T_j >= 0 puts the top entry at m = j, so over the
    d_j copies of dimension 2j + 1, tr Y = 1/2 sum_j d_j (c0 c1)^(J-j) [S_j + T_j/(j + 1)].  Evaluated at
    250 digits, enough for 2 tr Y - 1 to survive at lam = 1e-100; no package code is used.
    """
    with mpmath.workdps(250):
        x = mpmath.mpf(lam)
        c1, c0 = (1 + x) / 2, (1 - x) / 2
        J = n // 2
        total = mpmath.mpf(0)
        for j in range(J + 1):
            weights = [(k, c1 ** (j + k) * c0 ** (j - k)) for k in range(-j, j + 1)]
            s = mpmath.fsum(w for _, w in weights)
            t = mpmath.fsum(k * w for k, w in weights)
            d = math.comb(n, J - j) * (2 * j + 1) // (J + j + 1)
            total += d * (c0 * c1) ** (J - j) * (s + t / (j + 1))
        return float(total - 1)  # 2 tr Y - 1


class TestMeasurementBound:
    """Figure 1's curve is the best that any measurement on the n copies achieves (Massar & Popescu,
    PRL 74, 1259 (1995), for pure copies), down to lam = 1e-100."""

    @pytest.mark.parametrize("lam", [0.3, 0.6, 1e-6, 1e-12, 1e-100])
    def test_estimation_attains_the_bound(self, lam):
        for n in (2, 4, 10, 40, 100):
            bound = measurement_bound(n, lam)
            assert abs(estimation_lambda(n, lam) - bound) <= 1e-14 * bound, n

    def test_pure_copies_give_the_known_limit(self):
        # c0 = 0 leaves the top block: 2 tr Y - 1 = n/(n + 2)
        for n in (2, 10, 40):
            assert measurement_bound(n, 1.0) == pytest.approx(n / (n + 2), rel=1e-15)


class TestScalingRelation:
    """2 F_M - 1 = lambda_inf (M + 2)/M: the clones' Bloch length against the estimation limit."""

    @staticmethod
    def residual(n, m, lam):
        return abs(2.0 * mixed_cloning_fidelity(n, m, lam) - 1.0 - estimation_lambda(n, lam) * (m + 2) / m)

    @pytest.mark.parametrize(
        "n,m,lam", [(2, 2, 0.7), (8, 16, 0.3), (4, 4, 1.0), (20, 100, 0.9)]
    )
    def test_residual_vanishes(self, n, m, lam):
        assert self.residual(n, m, lam) < 1e-12

    def test_sweep(self):
        for n in range(2, 21, 2):
            for m in (n, n + 7, 100):
                for lam in (0.05, 0.35, 0.65, 0.95):
                    assert self.residual(n, m, lam) < 1e-12

    @pytest.mark.parametrize("lam", [0.3, 0.6])
    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (2, 4), (4, 4)])
    def test_holds_on_certified_values(self, n, m, lam):
        # the best of all channels, not a closed form, obeys the relation
        assert_bracketed((1.0 + estimation_lambda(n, lam) * (m + 2) / m) / 2.0, certified(n, m, lam))


class TestSuperbroadcasting:
    """Clones purer than their inputs (D'Ariano, Macchiavello & Perinotti, PRL 95, 060503 (2005))."""

    @staticmethod
    def last_gain(n, lam):
        gains = [m for m in range(1, 40) if 2.0 * mixed_cloning_fidelity(n, m, lam) - 1.0 - lam > 1e-12]
        return max(gains, default=None)

    def test_region_on_the_closed_form(self):
        # two copies never gain: for M <= 2 the best output is an input, 2F - 1 = lam up to
        # rounding; test_certified_gain_ends_at_five_clones certifies 2F - 1 = 0.6272 at (4, 5, 0.6) and
        # 0.5973 at (4, 6, 0.6)
        lams = (0.1, 0.2, 0.3, 0.6)
        assert {lam: self.last_gain(2, lam) for lam in lams} == dict.fromkeys(lams)
        assert {lam: self.last_gain(4, lam) for lam in lams} == {0.1: 7, 0.2: 7, 0.3: 7, 0.6: 5}

    @pytest.mark.parametrize("m", [5, 6])
    def test_certified_gain_ends_at_five_clones(self, m):
        # on the all-channel bracket: some 4 -> 5 map gives clones purer than the inputs, no 4 -> 6 map does
        bracket = certified(4, m, 0.6)
        assert_bracketed(mixed_cloning_fidelity(4, m, 0.6), bracket)
        low, high = (2 * f - 1 for f in bracket)
        assert low > 0.6 if m == 5 else high < 0.6


class TestOptimalityScan:
    """Keeping a qubit of a spin-j block is the best of all maps from the block to one qubit."""

    @pytest.mark.parametrize("lam", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_maximum_on_keep_edge(self, lam, j):
        # the block state's entries have degree 2j in the direction, so the integrand has 2j + 1
        omega = fidelity_operator(lambda v: block_state_matrix(MixedQubit(lam, v), j), 1, 2 * j + 1)
        assert_bracketed(block_fidelity(lam, j), certify(omega, 2))
