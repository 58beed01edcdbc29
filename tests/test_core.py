import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpurify import (
    DENSE_CAP,
    BlockLabel,
    MixedQubit,
    SizeLimitError,
    block_spectrum,
    block_swap,
    build_schur_basis,
    density_matrix,
    haar_unitary,
    kron_power,
    max_abs,
    outer,
    partial_trace,
    qubit_eigenstates,
    random_direction,
)
from qpurify.blocks import SINGLET

from conftest import random_qubit

lam_st = st.floats(0.0, 1.0, allow_nan=False)


def direction_st():
    return st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * math.pi)).map(
        lambda uv: (
            math.sqrt(max(0.0, 1.0 - uv[0] ** 2)) * math.cos(uv[1]),
            math.sqrt(max(0.0, 1.0 - uv[0] ** 2)) * math.sin(uv[1]),
            uv[0],
        )
    )


class TestMixedQubit:
    def test_eigenvalue_split(self):
        q = MixedQubit(0.5)
        assert q.c1 == 0.75 and q.c0 == 0.25
        assert q.c1 + q.c0 == 1.0
        assert q.c1 - q.c0 == pytest.approx(q.lam, abs=1e-15)

    def test_rejects_bad_length(self):
        for lam in (1.2, -0.1, math.nan, "2"):  # the message names the value as given
            with pytest.raises(ValueError, match=f"^{re.escape(f'Bloch length must lie in [0, 1], got {lam}')}$"):
                MixedQubit(lam)

    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValueError):
            MixedQubit(0.5, (1.0, 1.0, 0.0))

    @pytest.mark.parametrize(
        "direction", [[0.0, 0.6, 0.8], (0, 0.6, 0.8), np.array([0.0, 0.6, 0.8]), (np.float64(0.0), 0.6, 0.8)]
    )
    def test_direction_is_stored_as_a_float_triple(self, direction):
        stored = MixedQubit(0.5, direction).direction
        assert stored == (0.0, 0.6, 0.8)
        assert type(stored) is tuple and all(type(x) is float for x in stored)

    @pytest.mark.parametrize(
        "direction, message",
        [
            ((0.0, 1.0), "direction must be a 3-vector"),
            ((0.0, 0.0, 0.0, 1.0), "direction must be a 3-vector"),
            (np.eye(3), "direction must be a 3-vector"),
            (np.array([[0.0], [0.0], [1.0]]), "direction must be a 3-vector"),
            (1.0, "direction must be a 3-vector"),
            ((0.0, 0.0, 1.0 + 2e-12), "direction must be a unit vector to within 1e-12"),
            ((0.0, 0.0, math.nan), "direction must be a unit vector to within 1e-12"),
        ],
    )
    def test_rejects_a_direction_that_is_not_a_unit_3_vector(self, direction, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MixedQubit(0.5, direction)

    def test_unit_tolerance_is_1e_12(self):
        assert MixedQubit(0.5, (0.0, 0.0, 1.0 + 5e-13)).direction[2] == 1.0 + 5e-13

    def test_block_label_validation(self):
        with pytest.raises(ValueError, match="^total spin j must be nonnegative$"):
            BlockLabel(-1, 1)
        with pytest.raises(ValueError, match="^copy index alpha starts at 1$"):
            BlockLabel(0, 0)


def _value_types():
    """One of each named-tuple value type, with its repr in the dataclass form Name(field=value, ...)."""
    basis = build_schur_basis(4)
    spect = block_spectrum(4, 0.5)
    swap = block_swap(basis, 1, 2)
    p, f, b = spect.probabilities, spect.fidelities, spect.bloch_lengths
    return [
        (MixedQubit(0.5), "MixedQubit(lam=0.5, direction=(0.0, 0.0, 1.0))"),
        (BlockLabel(1, 2), "BlockLabel(j=1, alpha=2)"),
        (spect, f"BlockSpectrum(n=4, lam=0.5, probabilities={p!r}, bloch_lengths={b!r})"),
        (spect.rows[2], f"SpectrumRow(j=2, multiplicity=1, probability={p[2]!r}, fidelity={f[2]!r})"),
        (basis, f"SchurBasis(n=4, spins={basis.spins!r})"),
        (swap, f"BlockSwap(label=BlockLabel(j=1, alpha=2), matrix={swap.matrix!r}, is_identity=False)"),
    ]


class TestValueTypes:
    def test_repr_is_unchanged(self):
        for value, text in _value_types():
            assert repr(value) == text

    def test_attributes_cannot_be_assigned(self):
        for value, _ in _value_types():
            field = type(value)._fields[0]
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                value.extra = None

    def test_labels_hash_and_sort_as_tuples(self):
        labels = build_schur_basis(6).labels()
        assert sorted(labels) == sorted(labels[::-1]) == labels
        assert labels == sorted(labels, key=lambda label: (label.j, label.alpha))
        assert hash(BlockLabel(1, 2)) == hash((1, 2))
        assert BlockLabel(1, 2) == (1, 2)  # a label now equals its plain tuple

    def test_validation_runs_on_keywords(self):
        assert MixedQubit(lam=1, direction=[1, 0, 0]) == MixedQubit(1.0, (1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="^copy index alpha starts at 1$"):
            BlockLabel(j=1, alpha=0)

    def test_make_and_replace_check_their_fields(self):
        with pytest.raises(ValueError, match="^Bloch length must lie in"):
            MixedQubit(0.5)._replace(lam=2.0)
        with pytest.raises(ValueError, match="^copy index alpha starts at 1$"):
            BlockLabel(1, 1)._replace(alpha=0)
        with pytest.raises(ValueError, match="^direction must be a 3-vector$"):
            MixedQubit._make((0.5, "x"))
        assert MixedQubit(0.5)._replace(direction=[0, 1, 0]) == MixedQubit(0.5, (0.0, 1.0, 0.0))
        assert type(BlockLabel._make((1, 2))) is BlockLabel


class TestEigenstates:
    def test_z_axis(self):
        aligned, anti = qubit_eigenstates(MixedQubit(0.5, (0, 0, 1)))
        assert np.allclose(aligned, [0, 1], atol=1e-15)
        assert np.allclose(anti, [1, 0], atol=1e-15)

    def test_x_axis(self):
        aligned, _ = qubit_eigenstates(MixedQubit(0.5, (1, 0, 0)))
        assert np.allclose(aligned, np.array([1, 1]) / math.sqrt(2), atol=1e-15)

    def test_minus_z_phase_convention(self):
        aligned, anti = qubit_eigenstates(MixedQubit(0.7, (0, 0, -1)))
        assert np.allclose(aligned, [1, 0], atol=1e-15)
        assert np.allclose(anti, [0, 1], atol=1e-15)

    @given(lam=lam_st, direction=direction_st())
    @settings(max_examples=60, deadline=None)
    def test_aligned_is_c1_eigenvector(self, lam, direction):
        q = MixedQubit(lam, direction)
        rho = density_matrix(q)
        aligned, anti = qubit_eigenstates(q)
        assert max_abs(rho @ aligned - q.c1 * aligned) < 1e-12
        assert max_abs(rho @ anti - q.c0 * anti) < 1e-12

    def test_orthogonality_over_many_directions(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            aligned, anti = qubit_eigenstates(MixedQubit(0.5, random_direction(rng)))
            assert abs(np.vdot(anti, aligned)) < 1e-12


class TestDensityMatrix:
    def test_maximally_mixed(self):
        assert np.allclose(density_matrix(MixedQubit(0.0)), np.eye(2) / 2, atol=1e-15)

    def test_pure_along_z(self):
        assert np.allclose(density_matrix(MixedQubit(1.0)), np.diag([0.0, 1.0]), atol=1e-15)

    def test_half_mixed_along_z(self):
        assert np.allclose(density_matrix(MixedQubit(0.5)), np.diag([0.25, 0.75]), atol=1e-15)

    @given(lam=lam_st, direction=direction_st())
    @settings(max_examples=60, deadline=None)
    def test_spectrum_and_trace(self, lam, direction):
        rho = density_matrix(MixedQubit(lam, direction))
        assert max_abs(rho - rho.conj().T) < 1e-12
        assert abs(np.trace(rho).real - 1.0) < 1e-14
        eig = np.sort(np.linalg.eigvalsh(rho))
        assert max_abs(eig - np.array([(1 - lam) / 2, (1 + lam) / 2])) < 1e-12


class TestKronPower:
    def test_identity_square(self):
        assert np.allclose(kron_power(np.eye(2), 2), np.eye(4))

    def test_diagonal_square(self):
        got = kron_power(np.diag([0.25, 0.75]), 2)
        assert np.allclose(got, np.diag([0.0625, 0.1875, 0.1875, 0.5625]), atol=1e-16)

    def test_trace_of_power_is_one(self, rng):
        for n in (2, 4, 8):
            rho = density_matrix(random_qubit(rng))
            assert abs(np.trace(kron_power(rho, n)).real - 1.0) < 1e-12

    def test_cap_enforced(self):
        with pytest.raises(SizeLimitError):
            kron_power(np.eye(2), DENSE_CAP + 1)


class TestPartialTrace:
    def test_product_state(self, rng):
        a = density_matrix(random_qubit(rng))
        b = density_matrix(random_qubit(rng))
        assert max_abs(partial_trace(np.kron(a, b), [1]) - a) < 1e-14
        assert max_abs(partial_trace(np.kron(a, b), [2]) - b) < 1e-14

    def test_singlet_marginals(self):
        rho = outer(SINGLET)
        for k in (1, 2):
            assert max_abs(partial_trace(rho, [k]) - np.eye(2) / 2) < 1e-14

    def test_trace_preserved(self, rng):
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        herm = m + m.conj().T
        reduced = partial_trace(herm, [2])
        assert abs(np.trace(reduced) - np.trace(herm)) < 1e-12

    def test_roundtrip_with_kron_power(self, rng):
        rho = density_matrix(random_qubit(rng))
        big = kron_power(rho, 5)
        for k in range(1, 6):
            assert max_abs(partial_trace(big, [k]) - rho) < 1e-12

    def test_invalid_indices(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), [3])
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), [])


def test_haar_unitary_is_unitary(rng):
    for _ in range(25):
        u = haar_unitary(rng)
        assert max_abs(u @ u.conj().T - np.eye(2)) < 1e-12


def test_random_direction_is_unit(rng):
    for _ in range(100):
        assert abs(np.linalg.norm(random_direction(rng)) - 1.0) < 1e-12


class TestRandomDirectionFromTheStandardLibrary:
    def test_unit_and_seeded(self):
        rng = random.Random(3)
        for _ in range(100):
            assert abs(math.hypot(*random_direction(rng)) - 1.0) < 1e-12
        assert random_direction(random.Random(7)) == random_direction(random.Random(7))
        assert random_direction(random.Random(7)) != random_direction(random.Random(8))

    def test_uniform_on_the_sphere(self):
        # each Cartesian component of a uniform unit vector has mean 0 and variance 1/3
        rng = random.Random(2024)
        sample = np.array([random_direction(rng) for _ in range(10_000)])
        sigma = math.sqrt(1.0 / 3.0 / len(sample))
        assert np.all(np.abs(sample.mean(axis=0)) < 4.0 * sigma)


def test_memory_refusal_names_the_need_and_the_available_memory(monkeypatch):
    from qpurify.core import _check_memory

    monkeypatch.setattr("qpurify.core._mem_available_bytes", lambda: 3 * 2**20)
    _check_memory(3 * 2**20, "n=4")
    with pytest.raises(SizeLimitError, match=r"^n=4 needs about 4 MiB of dense arrays, more than the 3 MiB available$"):
        _check_memory(4 * 2**20, "n=4", " of dense arrays")
    monkeypatch.setattr("qpurify.core._mem_available_bytes", lambda: None)
    _check_memory(2**80, "n=4")
