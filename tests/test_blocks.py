import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import qpurify
from qpurify import (
    block_swap,
    build_schur_basis,
    dicke_state,
    haar_unitary,
    kron_power,
    max_abs,
    multiplicity,
)
from qpurify.blocks import (
    SINGLET,
    block_coordinates,
    collective_lowering,
    dicke_power,
    dicke_rows,
    measure_block,
    power_coordinates,
    seed_vector,
)
from qpurify import MixedQubit, SizeLimitError, blocks, qubit_eigenstates
from qpurify.oracle import orthonormality_residual

from conftest import basis_labels


def _vector_count(basis):
    return sum(rows.shape[0] * rows.shape[1] for rows in basis.spins.values())


class TestDickeState:
    def test_two_qubit_symmetric(self):
        got = dicke_state(1, 0)
        assert np.allclose(got, np.array([0, 1, 1, 0]) / math.sqrt(2))

    def test_highest_weight(self):
        got = dicke_state(1, 1)
        expected = np.zeros(4)
        expected[0b11] = 1.0
        assert np.allclose(got, expected)

    def test_four_qubit_balanced_amplitudes(self):
        got = dicke_state(2, 0)
        weight2 = [i for i in range(16) if bin(i).count("1") == 2]
        assert len(weight2) == 6
        for idx in weight2:
            assert got[idx] == pytest.approx(1 / math.sqrt(6), abs=1e-15)
        assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-15)

    def test_invalid_labels(self):
        with pytest.raises(ValueError):
            dicke_state(1, 2)
        with pytest.raises(ValueError):
            dicke_state(-1, 0)


def _dicke_power_inputs(rng):
    """Matrices dicke_power must serve, zero entries included."""
    inputs = {
        "haar": haar_unitary(rng),
        "non_unitary": rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
        "identity": np.eye(2),
        "phase": np.diag([1.0, np.exp(0.7j)]),
        "sigma_x": np.array([[0.0, 1.0], [1.0, 0.0]]),
    }
    for sign in (1, -1):
        aligned, anti = qubit_eigenstates(MixedQubit(0.5, (0.0, 0.0, sign)))
        inputs[f"rot_z{sign:+d}"] = np.column_stack([anti, aligned])
    return inputs


class TestDickePower:
    @pytest.mark.parametrize("j", range(5))
    def test_matches_kronecker_power_on_dicke_rows(self, j, rng):
        dicke = dicke_rows(j)
        for name, u in _dicke_power_inputs(rng).items():
            want = dicke @ kron_power(u, 2 * j) @ dicke.T if j else np.eye(1)
            got = dicke_power(u, j)
            assert got.shape == (2 * j + 1, 2 * j + 1), name
            assert max_abs(got - want) < 1e-12, name

    @pytest.mark.parametrize("j", range(5))
    def test_multiplicative(self, j, rng):
        u, v = haar_unitary(rng), rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert max_abs(dicke_power(u @ v, j) - dicke_power(u, j) @ dicke_power(v, j)) < 1e-12


class TestSeedVector:
    def test_two_qubit_singlet(self):
        assert np.allclose(seed_vector(2, 0, 0), SINGLET)

    def test_two_qubit_triplet_is_dicke(self):
        for m in (-1, 0, 1):
            assert np.allclose(seed_vector(2, 1, m), dicke_state(1, m))

    def test_four_qubit_amplitude_product(self):
        vec = seed_vector(4, 1, 1)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-15)
        # |1101>: Dicke part |11>, singlet contributes +1/sqrt(2) on |01>
        assert vec[0b1101] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert vec[0b1110] == pytest.approx(-1 / math.sqrt(2), abs=1e-15)

    def test_rejects_odd_register(self):
        with pytest.raises(ValueError):
            seed_vector(3, 1, 0)


def _bit_mask_lowering(vec, n):
    # the boolean-mask form of the collective lowering, one index mask per qubit
    out = np.zeros_like(vec)
    idx = np.arange(vec.shape[-1])
    for k in range(n):
        bit = 1 << (n - 1 - k)
        hot = (idx & bit) != 0
        out[..., idx[hot] ^ bit] += vec[..., hot]
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_collective_lowering_matches_the_bit_mask_form(n, rng):
    vec = rng.normal(size=(3, 5, 2**n))
    assert np.array_equal(collective_lowering(vec, n), _bit_mask_lowering(vec, n))
    assert np.array_equal(collective_lowering(vec[:, 1], n), _bit_mask_lowering(vec[:, 1], n))  # a strided view


def test_collective_lowering_norm_matches_ladder_coefficient():
    for j, m in [(1, 1), (2, 2), (2, 1), (3, 0)]:
        lowered = collective_lowering(dicke_state(j, m), 2 * j)
        expected = math.sqrt((j + m) * (j - m + 1))
        assert np.linalg.norm(lowered) == pytest.approx(expected, abs=1e-12)
        assert max_abs(lowered / np.linalg.norm(lowered) - dicke_state(j, m - 1)) < 1e-12


class TestBasisConstruction:
    def test_two_qubits_singlet_plus_triplet(self):
        basis = build_schur_basis(2)
        assert list(basis.spins) == [0, 1]
        assert basis.multiplicity_of(0) == 1 and basis.multiplicity_of(1) == 1
        assert np.allclose(basis.block(0, 1)[0], SINGLET)

    def test_four_qubit_multiplicities(self):
        basis = build_schur_basis(4)
        assert [basis.multiplicity_of(j) for j in (0, 1, 2)] == [2, 3, 1]
        assert _vector_count(basis) == 16

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_gram_matrix_is_identity(self, n):
        assert orthonormality_residual(build_schur_basis(n)) < 1e-10

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_counts_and_completeness(self, n):
        basis = build_schur_basis(n)
        total = sum(basis.multiplicity_of(j) * (2 * j + 1) for j in basis.spins)
        assert total == 2**n
        for j in basis.spins:
            assert basis.multiplicity_of(j) == multiplicity(n, j)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_first_copy_equals_seed(self, n):
        basis = build_schur_basis(n)
        for j in basis.spins:
            for m in range(-j, j + 1):
                assert max_abs(basis.block(j, 1)[j + m] - seed_vector(n, j, m)) < 1e-13

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_lowest_weight_is_annihilated(self, n):
        # a copy that leaves the kernel of S+ stays orthonormal, so only the
        # end of its lowering ladder shows that it is not a spin-j copy
        basis = build_schur_basis(n)
        for j in basis.spins:
            for alpha in range(1, basis.multiplicity_of(j) + 1):
                lowered = collective_lowering(basis.block(j, alpha)[0], n)
                assert np.linalg.norm(lowered) < 1e-10

    def test_rejects_odd_or_oversized(self):
        with pytest.raises(ValueError):
            build_schur_basis(5)
        with pytest.raises(SizeLimitError, match="dense cap of 12 qubits"):
            build_schur_basis(14)

    def test_memory_estimate_follows_the_block_route(self, monkeypatch):
        # n = 10 needs about 74 MiB: the 8 MiB basis, the 252-square on-weight rows and Gram
        # matrix of weight 5 (1 MiB), four complex copies of one copy's 11 rows (0.7 MiB) and
        # 64 MiB; four complex copies of the largest spin sector were 95 MiB, and eight complex
        # 2^10-square matrices 128 MiB
        monkeypatch.setattr("qpurify.core._mem_available_bytes", lambda: 100 * 2**20)
        assert build_schur_basis(10).n == 10

    def test_memory_check_skipped_without_meminfo(self, monkeypatch):
        monkeypatch.setattr("qpurify.core._mem_available_bytes", lambda: None)
        assert build_schur_basis(4).n == 4

    def test_only_the_requested_register_stays_cached(self):
        # each register grows from the next smaller one, and none of those may stay held beside
        # n's basis: the memory estimate does not count them
        blocks._build_basis.cache_clear()
        tracemalloc.start()
        try:
            basis = build_schur_basis(10)
            held = tracemalloc.get_traced_memory()[0] - sum(rows.nbytes for rows in basis.spins.values())
        finally:
            tracemalloc.stop()
        assert held < 2**18, held / 2**20


_BASIS_DIGEST = (
    "import hashlib; from qpurify import build_schur_basis; spins = build_schur_basis(10).spins; "
    "print(hashlib.sha256(b''.join(spins[j].tobytes() for j in sorted(spins))).hexdigest())"
)


class TestCouplingPaths:
    def test_same_bytes_for_one_and_two_blas_threads(self):
        src = str(Path(qpurify.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", _BASIS_DIGEST], env=env, capture_output=True, text=True
            )
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout.strip())
        spins = build_schur_basis(10).spins
        here = hashlib.sha256(b"".join(spins[j].tobytes() for j in sorted(spins))).hexdigest()
        assert digests == [here, here]

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_lowering_keeps_every_copy(self, n):
        basis = build_schur_basis(n)
        for j, rows in basis.spins.items():
            for m in range(-j + 1, j + 1):
                lowered = collective_lowering(rows[:, j + m], n)
                expected = math.sqrt((j + m) * (j - m + 1)) * rows[:, j + m - 1]
                assert max_abs(lowered - expected) < 1e-12

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_leading_copies_are_the_smaller_register_and_a_singlet(self, n):
        smaller, basis = build_schur_basis(n - 2), build_schur_basis(n)
        for j, rows in smaller.spins.items():
            assert np.array_equal(basis.spins[j][: len(rows)], np.kron(rows, SINGLET.real))


def _racah_fraction(j1, m1, j2, m2, j, m):
    """<j1 m1; j2 m2 | j m> from Racah's series summed in Fractions, the square rounded to float once."""
    f = math.factorial
    total = sum(
        Fraction((-1) ** k, f(k) * f(j1 + j2 - j - k) * f(j1 - m1 - k) * f(j2 + m2 - k))
        / (f(j - j2 + m1 + k) * f(j - j1 - m2 + k))
        for k in range(max(0, j2 - j - m1, j1 - j + m2), min(j1 + j2 - j, j1 - m1, j2 + m2) + 1)
    )
    square = Fraction((2 * j + 1) * f(j + j1 - j2) * f(j - j1 + j2) * f(j1 + j2 - j))
    square *= f(j + m) * f(j - m) * f(j1 - m1) * f(j1 + m1) * f(j2 - m2) * f(j2 + m2)
    return math.copysign(math.sqrt(square / f(j1 + j2 + j + 1) * total**2), total)


class TestIntegerClebschGordan:
    """``_clebsch_gordan`` sums over one integer denominator; the basis bytes must not notice."""

    @staticmethod
    def grow_to_twelve_qubits():
        """The couplings ``_add_pair`` asks for and the sha256 prefix of each register's spins, n = 2..12."""
        spins, digests = {0: np.ones((1, 1, 1))}, {}
        with mock.patch.object(blocks, "_clebsch_gordan", wraps=blocks._clebsch_gordan) as spy:
            for n in range(2, 13, 2):
                spins = blocks._add_pair(spins)
                digests[n] = hashlib.sha256(b"".join(spins[j].tobytes() for j in sorted(spins))).hexdigest()[:16]
        return {call.args for call in spy.call_args_list}, digests

    def test_every_coupling_equals_the_fraction_reference_and_the_basis_bytes_stay(self):
        couplings, digests = self.grow_to_twelve_qubits()
        assert len(couplings) == 314
        for args in sorted(couplings):
            assert blocks._clebsch_gordan(*args).hex() == _racah_fraction(*args).hex(), args
        # the prefixes that the Fraction sum produced
        assert (digests[10], digests[12]) == ("4014ebfd6afcb5e0", "1d917e45bca37bd3")


def test_multiplicity_completeness_identity_exact():
    for n in range(2, 21, 2):
        total = sum(multiplicity(n, j) * (2 * j + 1) for j in range(n // 2 + 1))
        assert total == 2**n


class TestRotationStructure:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_tensor_rotation_stays_in_copy_span(self, n, rng):
        basis = build_schur_basis(n)
        for _ in range(5):
            u_n = kron_power(haar_unitary(rng), n)
            for j in basis.spins:
                for alpha in range(1, basis.multiplicity_of(j) + 1):
                    rows = basis.block(j, alpha)
                    coeff = np.empty((2 * j + 1, 2 * j + 1), dtype=complex)
                    for col, m in enumerate(range(-j, j + 1)):
                        rotated = u_n @ basis.block(j, alpha)[j + m]
                        coeff[:, col] = rows.conj() @ rotated
                        residual = rotated - rows.T @ coeff[:, col]
                        assert np.linalg.norm(residual) < 1e-9
                    # the coefficient matrix is a spin-j rotation, hence unitary
                    assert max_abs(coeff @ coeff.conj().T - np.eye(2 * j + 1)) < 1e-9


class TestBlockProjector:
    def test_invalid_label(self):
        basis = build_schur_basis(4)
        with pytest.raises(ValueError):
            basis.block(1, 4)
        with pytest.raises(ValueError):
            basis.block(5, 1)


class TestBlockSwap:
    def test_alpha_one_is_flagged_identity(self):
        basis = build_schur_basis(4)
        swap = block_swap(basis, 1, 1)
        assert swap.is_identity
        assert max_abs(swap.matrix - np.eye(16)) == 0.0

    def test_involution_and_unitarity(self):
        basis = build_schur_basis(4)
        for j, alpha in [(0, 2), (1, 2), (1, 3)]:
            mat = block_swap(basis, j, alpha).matrix
            assert max_abs(mat @ mat - np.eye(16)) < 1e-10
            assert max_abs(mat @ mat.conj().T - np.eye(16)) < 1e-10

    def test_swaps_named_copies_and_fixes_others(self):
        basis = build_schur_basis(4)
        mat = block_swap(basis, 1, 2).matrix
        # rows are |j, m, alpha>, so block @ mat.T applies the swap to every m at once
        for moved, expected in [((1, 2), (1, 1)), ((1, 1), (1, 2)), ((1, 3), (1, 3)), ((2, 1), (2, 1))]:
            assert max_abs(basis.block(*moved) @ mat.T - basis.block(*expected)) < 1e-12

    def test_commutes_with_collective_rotation(self, rng):
        basis = build_schur_basis(4)
        mat = block_swap(basis, 1, 2).matrix
        for _ in range(5):
            v4 = kron_power(haar_unitary(rng), 4)
            assert max_abs(mat @ v4 - v4 @ mat) < 1e-9


def _random_state(rng, n):
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    state = a @ a.conj().T
    return state / np.trace(state).real  # full rank, not a tensor power


class TestBlockCoordinates:
    @pytest.mark.parametrize("n", [4, 6])
    def test_matches_lab_frame_measurement(self, n, rng):
        basis = build_schur_basis(n)
        state = _random_state(rng, n)
        coords = block_coordinates(basis, state)
        assert sorted(coords) == list(basis.spins)
        for label in basis_labels(basis):
            rows = basis.block(label.j, label.alpha)
            prob, post = measure_block(state, basis, label)
            expected = rows @ (prob * post) @ rows.T
            assert max_abs(coords[label.j][label.alpha - 1] - expected) < 1e-12

    @pytest.mark.parametrize("n", [4, 6])
    def test_swap_conjugation_relabels_copy(self, n, rng):
        basis = build_schur_basis(n)
        state = _random_state(rng, n)
        coords = block_coordinates(basis, state)
        for label in basis_labels(basis):
            swap = block_swap(basis, label.j, label.alpha).matrix
            swapped = block_coordinates(basis, swap @ state @ swap.conj().T)
            got = swapped[label.j][0]
            assert max_abs(got - coords[label.j][label.alpha - 1]) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_power_coordinates_match_the_tensor_power(self, n, rng):
        basis = build_schur_basis(n)
        rho = _random_state(rng, 1)
        got = power_coordinates(basis, rho)
        want = block_coordinates(basis, kron_power(rho, n))
        assert sorted(got) == sorted(want)
        assert max(max_abs(got[j] - want[j]) for j in want) < 1e-12
