import functools
import math
import random
import tracemalloc

import numpy as np
import pytest

from qpurify import (
    BlockLabel,
    MixedQubit,
    block_probability,
    block_state_matrix,
    build_schur_basis,
    covariance_residual,
    density_matrix,
    haar_unitary,
    kron_power,
    max_abs,
    measure_block,
    multiplicity,
    partial_trace,
    purification_map_outputs,
    quadrature_check,
    random_direction,
    verify_decomposition,
)
from qpurify.analytics import cross_power_sum
from qpurify.blocks import SINGLET, SchurBasis, dicke_rows
from qpurify.blocks import outer, power_coordinates, qubit_eigenstates
from qpurify.oracle import _angular_rule, _gauss_legendre, orthonormality_residual
from qpurify.protocol import run_protocol_dense

from conftest import basis_labels, random_qubit


def worst_residual(rows):
    return max(residual for _, _, residual in rows)


def row_residual(rows, label):
    return next(residual for _, row_label, residual in rows if row_label == label)


def checked(rows, *checks):
    return [row for row in rows if row[0] in checks]


def reversibility_rows(q, n):
    """The reversibility residual of every copy, by label."""
    return {label: residual for check, label, residual in verify(q, n) if check == "reversibility"}


def verify(q, n):
    return verify_decomposition(q, build_schur_basis(n))


class TestVerifyDecomposition:
    def test_two_qubits_any_direction(self, rng):
        for lam in (0.0, 0.3, 0.8, 1.0):
            rows = verify(MixedQubit(lam, random_direction(rng)), 2)
            assert worst_residual(rows) < 1e-10

    def test_pure_input_single_block(self, rng):
        # every copy keeps its row at lambda = 1; only the symmetric block has weight, the rest read zero
        rows = verify(MixedQubit(1.0, random_direction(rng)), 4)
        post_state = {label: residual for check, label, residual in rows if check == "post_state"}
        assert list(post_state) == basis_labels(build_schur_basis(4))
        assert max(residual for label, residual in post_state.items() if label.j != 2) <= 1e-15

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_nearly_pure_inputs_pass_the_default_tolerance(self, n):
        # copies of trace down to about 1e-17 are judged on the state's scale, so no row nears 1e-10
        basis = build_schur_basis(n)
        for lam in (0.99, 0.999, 1.0):
            for seed in (0, 1):
                rows = verify_decomposition(MixedQubit(lam, random_direction(random.Random(seed))), basis)
                assert worst_residual(rows) < 1e-10, (lam, seed)

    @pytest.mark.parametrize("n", [4, 6])
    def test_random_parameters(self, n, rng):
        for _ in range(3):
            rows = verify(random_qubit(rng), n)
            assert worst_residual(rows) < 1e-9
            # every copy's trace is p_j / d_j, so the traces sum to the closed-form total of one
            assert row_residual(rows, "copy_traces") < 1e-10

    def test_copy_probabilities_match_within_spin(self, rng):
        # the copy_traces row is the largest |tr B - p_j / d_j| over all copies
        assert row_residual(verify(random_qubit(rng), 6), "copy_traces") < 1e-10

    def test_report_rows_shape(self, rng):
        rows = verify(random_qubit(rng), 2)
        assert [(check, str(label)) for check, label, _ in rows] == [
            ("decomposition", "orthonormality"),
            ("decomposition", "off_block_weight"),
            ("decomposition", "copy_traces"),
            ("post_state", "j=0;alpha=1"),
            ("post_state", "j=1;alpha=1"),
            ("quadrature", "j=1"),
            ("reversibility", "j=0;alpha=1"),
            ("reversibility", "j=1;alpha=1"),
            ("covariance", "collective_lowering"),
        ]


def _mix_spins(spins):  # 0.1 rad rotation of |2,0,1> with |1,0,1>
    c, s = math.cos(0.1), math.sin(0.1)
    a, b = spins[2][0, 2].copy(), spins[1][0, 1].copy()
    spins[2][0, 2], spins[1][0, 1] = c * a - s * b, s * a + c * b


def _flip_sign(spins):  # |2,0,1> -> -|2,0,1>
    spins[2][0, 2] *= -1


def _swap_m(spins):  # |2,-1,1> <-> |2,0,1>
    spins[2][0, [1, 2]] = spins[2][0, [2, 1]]


def _negate_state(spins):  # |1,0,1> -> -|1,0,1>
    spins[1][0, 1] *= -1


def _rotate_copies(spins):  # 0.3 rad rotation of |1,0,1> with |1,0,2>, at m = 0 only
    c, s = math.cos(0.3), math.sin(0.3)
    a, b = spins[1][0, 1].copy(), spins[1][1, 1].copy()
    spins[1][0, 1], spins[1][1, 1] = c * a - s * b, s * a + c * b


def _unannihilated_singlet(spins):  # |0,0,1> -> |1,0,1>, which J- does not annihilate
    spins[0][0, 0] = spins[1][0, 1]


def _negate_copy(spins):  # |1,m,2> -> -|1,m,2> for every m: still a valid basis
    spins[1][1] *= -1


_MUTATED_Q = MixedQubit(0.6, (0.48, 0.6, 0.64))


def _mutated_rows(n, mutate):
    """The rows of ``qpurify verify`` on a copy of the n-qubit basis after ``mutate`` of its spin arrays."""
    spins = {j: np.array(rows) for j, rows in build_schur_basis(n).spins.items()}
    mutate(spins)
    return verify_decomposition(_MUTATED_Q, SchurBasis(n, spins))


_MUTATIONS = [
    (8, _mix_spins), (8, _flip_sign), (8, _swap_m), (6, _negate_state), (6, _rotate_copies), (2, _unannihilated_singlet)
]


# the round trip reads copy 1's rows on both sides, so a sign or an order change of them cancels;
# only the mutations that mix rows or replace one move the reversibility rows
_MOVE_REVERSIBILITY = (_mix_spins, _rotate_copies, _unannihilated_singlet)


@pytest.mark.parametrize("n, mutate", [pytest.param(n, f, id=f.__name__) for n, f in _MUTATIONS])
def test_verify_fails_a_mutated_basis(n, mutate):
    rows = _mutated_rows(n, mutate)
    assert worst_residual(checked(rows, "post_state")) >= 1e-9
    assert worst_residual(checked(rows, "covariance")) >= 1e-9
    assert (worst_residual(checked(rows, "reversibility")) >= 1e-9) == (mutate in _MOVE_REVERSIBILITY)


def test_verify_passes_a_negated_copy():
    # a copy's overall sign is a free choice of basis, so no row may see it
    assert worst_residual(_mutated_rows(6, _negate_copy)) < 1e-9


def test_each_basis_gets_its_own_rows():
    # one q and n on a mutated basis, then on the real one: nothing of the first run may reach the second
    mutated = _mutated_rows(8, _mix_spins)
    real = verify_decomposition(_MUTATED_Q, build_schur_basis(8))
    assert worst_residual(mutated) >= 1e-9
    assert worst_residual(real) < 1e-9


class TestMeasureBlock:
    def test_singlet_probability(self):
        basis = build_schur_basis(2)
        state = kron_power(density_matrix(MixedQubit(0.5)), 2)
        prob, post = measure_block(state, basis, BlockLabel(0, 1))
        assert prob == pytest.approx(0.1875, abs=1e-12)
        assert post is not None

    def test_probabilities_uniform_over_copies(self, rng):
        basis = build_schur_basis(4)
        q = random_qubit(rng, lam=0.5)
        state = kron_power(density_matrix(q), 4)
        for j in basis.spins:
            expected = block_probability(4, q.lam, j) / multiplicity(4, j)
            for alpha in range(1, basis.multiplicity_of(j) + 1):
                prob, _ = measure_block(state, basis, BlockLabel(j, alpha))
                assert prob == pytest.approx(expected, abs=1e-10)

    def test_post_state_after_swap_and_discard(self, rng):
        basis = build_schur_basis(6)
        q = random_qubit(rng)
        state = kron_power(density_matrix(q), 6)
        from qpurify import block_swap

        for label in basis_labels(basis):
            if label.j == 0:
                continue
            prob, post = measure_block(state, basis, label)
            if post is None:
                continue
            swap = block_swap(basis, label.j, label.alpha)
            moved = post if swap.is_identity else swap.matrix @ post @ swap.matrix.conj().T
            kept = partial_trace(moved, range(1, 2 * label.j + 1))
            dicke = dicke_rows(label.j)
            assert max_abs(kept - dicke.T @ block_state_matrix(q, label.j) @ dicke) < 1e-10

    def test_vanishing_outcome_flagged(self):
        basis = build_schur_basis(2)
        state = kron_power(density_matrix(MixedQubit(1.0)), 2)
        prob, post = measure_block(state, basis, BlockLabel(0, 1))
        assert prob < 1e-14 and post is None


class TestQuadrature:
    def test_small_blocks_tight(self, rng):
        q = random_qubit(rng, lam=0.5)
        assert quadrature_check(q, 1) < 1e-10

    def test_medium_block(self, rng):
        q = random_qubit(rng, lam=0.3)
        assert quadrature_check(q, 3) < 1e-9

    def test_pure_input_trivial(self, rng):
        q = random_qubit(rng, lam=1.0)
        assert quadrature_check(q, 2) < 1e-9

    def test_spin_zero_rejected(self, rng):
        with pytest.raises(ValueError):
            quadrature_check(random_qubit(rng), 0)


class TestGaussLegendre:
    """The Golub-Welsch nodes of ``_angular_rule`` against numpy's ``leggauss``, and their exactness."""

    @pytest.mark.parametrize("degree", range(2, 31))
    def test_matches_numpy_leggauss(self, degree):
        nodes, weights = _gauss_legendre(degree)
        want_nodes, want_weights = np.polynomial.legendre.leggauss(degree)
        assert max_abs(nodes - want_nodes) < 1e-14
        assert max_abs(weights - want_weights) < 1e-14

    @pytest.mark.parametrize("degree", range(1, 31))
    def test_integrates_monomials_below_twice_the_degree(self, degree):
        nodes, weights = _gauss_legendre(degree)
        for k in range(2 * degree):
            assert abs(math.fsum(weights * nodes**k) - (1 + (-1) ** k) / (k + 1)) < 1e-14


class TestReversibility:
    def test_first_copy_trivial(self, rng):
        q = random_qubit(rng, lam=0.5)
        assert reversibility_rows(q, 4)[BlockLabel(2, 1)] < 1e-12

    def test_four_qubit_swapped_copies(self, rng):
        rows = reversibility_rows(random_qubit(rng, lam=0.5), 4)
        for alpha in (2, 3):
            assert rows[BlockLabel(1, alpha)] < 1e-10

    def test_six_qubit_sweep(self, rng):
        rows = reversibility_rows(random_qubit(rng), 6)
        assert list(rows) == basis_labels(build_schur_basis(6))
        assert max(rows.values()) < 1e-9

    @pytest.mark.parametrize("lam", [0.0, 0.6, 1.0])
    def test_rows_follow_the_defined_post_states(self, lam, rng):
        # both row kinds carry every copy at every lambda, a pure input's empty blocks included
        for n in (2, 4):
            rows = verify(MixedQubit(lam, random_direction(rng)), n)
            for kind in ("post_state", "reversibility"):
                assert [label for check, label, _ in rows if check == kind] == basis_labels(build_schur_basis(n))


def lab_frame_covariance(q, n, unitaries):
    """Largest defect of the measurement maps from covariance, on 2^n-square tensor powers in the lab frame.

    For each single-qubit U the maps applied to the rotated input must equal
    U^(x m) times the outputs times its adjoint, branch by branch.
    """
    basis = build_schur_basis(n)
    rho1 = density_matrix(q)
    base = purification_map_outputs(basis, kron_power(rho1, n))
    worst = 0.0
    for u in unitaries:
        lhs = purification_map_outputs(basis, kron_power(u @ rho1 @ u.conj().T, n))
        for m_out, sigma in lhs.items():
            u_m = kron_power(u, m_out) if m_out else np.eye(1)
            worst = max(worst, max_abs(sigma - u_m @ base[m_out] @ u_m.conj().T))
    return worst


class TestCovariance:
    def test_measurement_maps_commute_with_rotations(self, rng):
        q = random_qubit(rng, lam=0.5)
        assert lab_frame_covariance(q, 4, [haar_unitary(rng) for _ in range(20)]) < 1e-9

    @pytest.mark.parametrize("n", [4, 6])
    def test_map_outputs_match_swap_route(self, n, rng):
        from qpurify import block_swap

        basis = build_schur_basis(n)
        a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        state = a @ a.conj().T
        state /= np.trace(state).real  # full rank, not a tensor power
        got = purification_map_outputs(basis, state)
        for j in basis.spins:
            acc = np.zeros_like(state)
            for alpha in range(1, basis.multiplicity_of(j) + 1):
                rows = basis.block(j, alpha)
                branch = rows.T @ (rows.conj() @ state @ rows.T) @ rows.conj()
                swap = block_swap(basis, j, alpha).matrix
                acc += swap @ branch @ swap.conj().T
            if j > 0:
                expected = partial_trace(acc, range(1, 2 * j + 1))
            else:
                expected = np.array([[np.trace(acc)]])
            assert max_abs(got[2 * j] - expected) < 1e-12

    def test_map_outputs_conserve_probability(self, rng):
        basis = build_schur_basis(4)
        q = random_qubit(rng)
        outs = purification_map_outputs(basis, kron_power(density_matrix(q), 4))
        total = math.fsum(np.trace(sigma).real for sigma in outs.values())
        assert abs(total - 1.0) < 1e-10


class TestKroneckerReferenceRoutes:
    """The spin-coordinate checks against their former 2^2j and 2^n routes, written out here."""

    @staticmethod
    def lab_block_state(q, j):
        # rotated Dicke states as 2^2j vectors, R^(x 2j) D^T
        aligned, anti = qubit_eigenstates(q)
        vecs = kron_power(np.column_stack([anti, aligned]), 2 * j) @ dicke_rows(j).T
        ones = np.arange(2 * j + 1)
        weights = q.c1**ones * q.c0 ** (2 * j - ones) / cross_power_sum(q.c1, q.c0, 2 * j)
        return (vecs * weights) @ vecs.conj().T

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_block_state_and_quadrature(self, j, rng):
        for q in (random_qubit(rng), MixedQubit(0.6), MixedQubit(1.0, (0.0, 0.0, -1.0))):
            want = self.lab_block_state(q, j)
            dicke = dicke_rows(j)
            assert max_abs(dicke.T @ block_state_matrix(q, j) @ dicke - want) < 1e-12
            aligned, anti = qubit_eigenstates(q)
            acc = np.zeros_like(want)
            for cos_half, sin_half, phase, weight in _angular_rule(j):
                component = math.sqrt(q.c1) * cos_half * aligned + math.sqrt(q.c0) * sin_half * phase * anti
                acc += weight * outer(kron_power(component, 2 * j))
            old = max_abs((2 * j + 1) / cross_power_sum(q.c1, q.c0, 2 * j) * acc - want)
            assert old < 1e-12
            assert abs(quadrature_check(q, j) - old) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_reversibility(self, n, rng):
        q = random_qubit(rng)
        basis = build_schur_basis(n)
        state = kron_power(density_matrix(q), n)
        reversibility = reversibility_rows(q, n)
        for label in basis_labels(basis):
            rows, first = basis.block(label.j, label.alpha), basis.block(label.j, 1)
            measured = rows @ state @ rows.T  # the copy's unnormalised block, relabelled as copy 1
            unwound = first.T @ measured @ first
            kept = partial_trace(unwound, range(1, 2 * label.j + 1)) if label.j else np.trace(unwound).reshape(1, 1)
            singlets = functools.reduce(np.kron, [SINGLET] * (n // 2 - label.j), np.ones(1))
            back = first.reshape(2 * label.j + 1, kept.shape[0], singlets.size) @ singlets
            old = max_abs(back @ kept @ back.conj().T - measured)
            assert old < 1e-12
            assert abs(reversibility[label] - old) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_covariance(self, n, rng):
        # the sampled lab-frame route stays the independent check of what the ladder row implies
        unitaries = [haar_unitary(rng) for _ in range(3)] + [np.diag([1.0, 1j]), np.array([[0, 1], [1, 0]])]
        assert lab_frame_covariance(random_qubit(rng), n, unitaries) < 1e-12
        assert covariance_residual(build_schur_basis(n)) < 1e-12



def test_dense_working_sets_are_one_copy_at_a_time():
    # traced peaks at n = 10 beside the cached basis (numpy reports its buffers to tracemalloc): a spin sector at a
    # time took 16.0, 8.8, 5.4 and 16.0 MiB; one copy's rows, or one weight's on-weight rows, take under 2 MiB
    basis = build_schur_basis(10)
    q = MixedQubit(0.6, (0.6, 0.0, 0.8))
    calls = {
        "power_coordinates": lambda: power_coordinates(basis, density_matrix(q)),
        "covariance_residual": lambda: covariance_residual(basis),
        "orthonormality_residual": lambda: orthonormality_residual(basis),
        "run_protocol_dense": lambda: run_protocol_dense(q, 10, 1000, 1),
    }
    peaks = {}
    tracemalloc.start()
    try:
        for name, call in calls.items():
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            peaks[name] = (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) < 2, peaks
