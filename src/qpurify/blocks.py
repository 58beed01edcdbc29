"""Construction of the total-spin block basis for an even qubit register.

The basis vectors |j, m, alpha> organise the 2^n computational dimensions
into blocks: j is the collective spin, m its projection, and alpha counts
the equivalent copies of the spin-j sector.  The highest-weight vectors of
each sector are the kernel of the collective raising operator, and the
basis is kept as one real array per spin.  Dense consumers read each
copy's (2j+1)-square block of a state (``block_coordinates``), in which
exchanging copies is a relabelling; block projectors, the lab-frame
``measure_block`` and the exchange unitary ``block_swap`` are the
references they are tested against.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import BlockLabel, SizeLimitError, dense_cap

SINGLET = np.zeros(4, dtype=complex)
SINGLET[0b01] = 1.0 / math.sqrt(2.0)
SINGLET[0b10] = -1.0 / math.sqrt(2.0)

_PROB_FLOOR = 1e-14  # below this an outcome's post-state is undefined


def _check_register(n: int) -> None:
    if n < 2 or n % 2:
        raise ValueError(
            f"register size must be a positive even integer, got {n} "
            "(odd sizes are not supported)"
        )


def _popcounts(n: int) -> np.ndarray:
    """Number of ones in each n-qubit basis index."""
    return np.array([bin(i).count("1") for i in range(1 << n)])


def dicke_rows(j: int) -> np.ndarray:
    """Real (2j+1, 2^2j) rows of Dicke states, m = -j + i in row i.

    Copy 1 of spin j is these rows followed by singlet pairs.
    """
    rows = (_popcounts(2 * j) == np.arange(2 * j + 1)[:, None]).astype(float)
    return rows / np.sqrt(rows.sum(axis=1, keepdims=True))


def dicke_state(j: int, m: int) -> np.ndarray:
    """Symmetric state of 2j qubits with j+m ones, equal real amplitudes."""
    if j < 0 or abs(m) > j:
        raise ValueError(f"invalid spin labels (j, m) = ({j}, {m})")
    return dicke_rows(j)[j + m].astype(complex)


def seed_vector(n: int, j: int, m: int) -> np.ndarray:
    """Dicke state on the leading 2j qubits, singlet pairs on the rest."""
    _check_register(n)
    if not 0 <= j <= n // 2:
        raise ValueError(f"total spin must lie in 0..{n // 2}, got {j}")
    vec = dicke_state(j, m)
    for _ in range(n // 2 - j):
        vec = np.kron(vec, SINGLET)
    return vec


def collective_lowering(vec: np.ndarray, n: int) -> np.ndarray:
    """Apply the sum of single-qubit lowering operators (|1> -> |0>) on the last axis."""
    out = np.zeros_like(vec)
    idx = np.arange(vec.shape[-1])
    for k in range(n):
        bit = 1 << (n - 1 - k)
        hot = (idx & bit) != 0
        out[..., idx[hot] ^ bit] += vec[..., hot]
    return out


def _highest_weight_vectors(n: int, j: int) -> np.ndarray:
    """Orthonormal spin-j highest-weight vectors, seed_vector(n, j, j) first.

    They span the kernel of the collective raising map (|0> -> |1> on each
    qubit) from the weight space with n/2 + j ones into the one with one
    more.  The map is onto, so the last rows of its right singular vectors
    span the kernel; the copies after the seed are the leading left
    singular vectors of that kernel with the seed projected out.
    """
    ones = _popcounts(n)
    low = np.flatnonzero(ones == n // 2 + j)
    high = np.flatnonzero(ones == n // 2 + j + 1)
    raising = np.zeros((high.size, low.size))
    for k in range(n):
        bit = 1 << k
        free = (low & bit) == 0
        raising[np.searchsorted(high, low[free] | bit), np.flatnonzero(free)] = 1.0
    kernel = np.linalg.svd(raising)[2][high.size :]
    seed = seed_vector(n, j, j).real[low]
    rest = kernel - np.outer(kernel @ seed, seed)
    others = np.linalg.svd(rest.T, full_matrices=False)[0][:, : len(kernel) - 1]
    tops = np.zeros((len(kernel), 1 << n))
    tops[:, low] = np.vstack([seed, others.T])
    return tops


@dataclass(frozen=True)
class SchurBasis:
    """Orthonormal vectors |j, m, alpha> for n qubits, one real array per spin.

    ``spins[j]`` is read-only, shaped (d_j, 2j+1, 2^n); [alpha - 1, j + m] is |j, m, alpha>.
    """

    n: int
    spins: dict

    def j_values(self) -> list[int]:
        return sorted(self.spins)

    def multiplicity_of(self, j: int) -> int:
        if j not in self.spins:
            raise ValueError(f"no spin-{j} sector in a register of {self.n} qubits")
        return self.spins[j].shape[0]

    def labels(self) -> list[BlockLabel]:
        return [BlockLabel(j, a) for j in self.j_values() for a in range(1, len(self.spins[j]) + 1)]

    def vector(self, j: int, m: int, alpha: int) -> np.ndarray:
        if abs(m) > j:
            raise ValueError(f"no basis vector (j={j}, m={m}, alpha={alpha})")
        return self.block(j, alpha)[j + m]

    def block(self, j: int, alpha: int) -> np.ndarray:
        """View of the block vectors; row i is |j, m, alpha> with m = -j + i."""
        d = self.multiplicity_of(j)
        if not 1 <= alpha <= d:
            raise ValueError(f"alpha must lie in 1..{d} for j={j}, got {alpha}")
        return self.spins[j][alpha - 1]

    def gram_matrix(self) -> np.ndarray:
        mat = np.concatenate([rows.reshape(-1, 1 << self.n) for rows in self.spins.values()])
        return mat @ mat.T


@functools.lru_cache(maxsize=None)
def _build_basis(n: int) -> SchurBasis:
    spins: dict[int, np.ndarray] = {}
    for j in range(n // 2 + 1):
        ladder = [_highest_weight_vectors(n, j)]
        for _ in range(2 * j):
            vecs = collective_lowering(ladder[-1], n)
            ladder.append(vecs / np.linalg.norm(vecs, axis=1, keepdims=True))
        spins[j] = np.stack(ladder[::-1], axis=1)
        spins[j].setflags(write=False)
    return SchurBasis(n=n, spins=spins)


def _mem_available_bytes() -> int | None:
    """MemAvailable from /proc/meminfo, or None where it cannot be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            fields = dict(line.split(":", 1) for line in fh)
        return int(fields["MemAvailable"].split()[0]) * 1024
    except (OSError, KeyError, ValueError):
        return None


def build_schur_basis(n: int, cap: int | None = None) -> SchurBasis:
    """Full orthonormal block basis of an even register of n qubits.

    Highest-weight vectors span the kernel of the collective raising
    operator, with seed_vector(n, j, j) as copy 1; lower m values follow by
    collective lowering, which keeps the copy index consistent across m.
    Results are cached per n and immutable.  Raises SizeLimitError above
    the dense cap, or when the dense work that follows, about eight
    complex 2^n x 2^n matrices, would not fit in the available memory.
    """
    _check_register(n)
    if n > dense_cap(cap):
        raise SizeLimitError(f"n={n} exceeds the dense cap of {dense_cap(cap)} qubits")
    needed, available = 8 * 16 * 4**n, _mem_available_bytes()
    if available is not None and needed > available:
        raise SizeLimitError(
            f"n={n} needs about {needed / 2**20:.3g} MiB of dense matrices, "
            f"more than the {available / 2**20:.3g} MiB available"
        )
    return _build_basis(n)


@dataclass(frozen=True)
class BlockProjector:
    label: BlockLabel
    matrix: np.ndarray


@dataclass(frozen=True)
class BlockSwap:
    label: BlockLabel
    matrix: np.ndarray
    is_identity: bool


def block_projector(basis: SchurBasis, j: int, alpha: int) -> BlockProjector:
    """Orthogonal projector onto span{|j, m, alpha>: m = -j..j}."""
    rows = basis.block(j, alpha)
    return BlockProjector(BlockLabel(j, alpha), (rows.T @ rows).astype(complex))


def block_swap(basis: SchurBasis, j: int, alpha: int) -> BlockSwap:
    """Involution exchanging copy alpha with copy 1 of the spin-j sector.

    Acts as the identity on every other block; alpha = 1 returns the
    identity matrix, flagged on the result.  The lab-frame reference for
    the relabelling that ``block_coordinates`` makes of a copy exchange.
    """
    diff = basis.block(j, 1) - basis.block(j, alpha)
    mat = np.eye(1 << basis.n, dtype=complex)
    if alpha == 1:
        return BlockSwap(BlockLabel(j, alpha), mat, True)
    # 1 - sum_m |u_m - w_m><u_m - w_m| for u_m = |j,m,1>, w_m = |j,m,alpha>
    mat -= diff.T @ diff
    return BlockSwap(BlockLabel(j, alpha), mat, False)


def block_coordinates(basis: SchurBasis, state: np.ndarray) -> dict[int, np.ndarray]:
    """Every copy's (2j+1)-square block of ``state``, keyed by spin j.

    Entry [alpha - 1] of the (d_j, 2j+1, 2j+1) array is rows state rows^T
    for the real rows = basis.block(j, alpha); its trace is the outcome
    probability of that block.  One matmul per spin.
    """
    # real rows times the state as (re, im) column pairs: one real matmul
    pairs = np.ascontiguousarray(state, dtype=complex).view(np.float64)
    coords = {}
    for j, rows in basis.spins.items():
        half = (rows.reshape(-1, rows.shape[-1]) @ pairs).view(complex).reshape(rows.shape)
        coords[j] = half @ rows.transpose(0, 2, 1)
    return coords


def measure_block(
    state: np.ndarray, basis: SchurBasis, label: BlockLabel
) -> tuple[float, np.ndarray | None]:
    """Project ``state`` onto one block, in the lab frame.

    Returns (probability, normalized post-measurement state); the state is
    None when the probability falls below 1e-14 and is undefined.
    """
    rows = basis.block(label.j, label.alpha)
    inner = rows @ state @ rows.T
    prob = float(np.real(np.trace(inner)))
    if prob < _PROB_FLOOR:
        return prob, None
    post = rows.T @ inner @ rows / prob
    return prob, post


def export_basis_csv(basis: SchurBasis, dest) -> None:
    """Write every amplitude as CSV rows ``j,m,alpha,basis_index,re,im``.

    Copy 1 of each spin is fixed (Dicke states followed by singlet pairs).
    Copies alpha >= 2 are one orthonormal choice among many: they come from
    LAPACK singular vectors of a degenerate subspace, so their rows can
    change with the LAPACK build or its thread count, while every block
    projector sum, probability and fidelity stays the same.
    """
    own = isinstance(dest, (str, os.PathLike))
    fh = open(dest, "w", encoding="utf-8", newline="") if own else dest
    try:
        fh.write("j,m,alpha,basis_index,re,im\n")
        for j, rows in basis.spins.items():
            for (i, a, idx), amp in np.ndenumerate(rows.transpose(1, 0, 2)):
                fh.write(f"{j},{i - j},{a + 1},{idx},{float(amp)!r},0.0\n")
    finally:
        if own:
            fh.close()
