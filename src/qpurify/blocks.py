"""Construction of the total-spin block basis for an even qubit register.

The basis vectors |j, m, alpha> organise the 2^n computational dimensions
into blocks: j is the collective spin, m its projection, and alpha counts
the equivalent copies of the spin-j sector.  The highest-weight vectors of
each sector are the kernel of the collective raising operator; block
projectors, the block measurement and the exchange of copies (a relabelling
in block coordinates, or the dense reference unitary ``block_swap``) are
assembled from the same vectors.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import BlockLabel, SizeLimitError, dense_cap, outer

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


def dicke_state(j: int, m: int) -> np.ndarray:
    """Symmetric state of 2j qubits with j+m ones, equal real amplitudes."""
    if j < 0 or abs(m) > j:
        raise ValueError(f"invalid spin labels (j, m) = ({j}, {m})")
    width = 2 * j
    vec = np.zeros(1 << width, dtype=complex)
    if width == 0:
        vec[0] = 1.0
        return vec
    ones = j + m
    amp = 1.0 / math.sqrt(math.comb(width, ones))
    for positions in itertools.combinations(range(width), ones):
        vec[sum(1 << (width - 1 - p) for p in positions)] = amp
    return vec


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
    """Apply the sum of single-qubit lowering operators (|1> -> |0> on each)."""
    out = np.zeros_like(vec)
    idx = np.arange(vec.size)
    for k in range(n):
        bit = 1 << (n - 1 - k)
        hot = (idx & bit) != 0
        out[idx[hot] ^ bit] += vec[hot]
    return out


def _highest_weight_vectors(n: int, j: int) -> np.ndarray:
    """Orthonormal spin-j highest-weight vectors, seed_vector(n, j, j) first.

    They span the kernel of the collective raising map (|0> -> |1> on each
    qubit) from the weight space with n/2 + j ones into the one with one
    more.  The map is onto, so the last rows of its right singular vectors
    span the kernel; the copies after the seed are the leading left
    singular vectors of that kernel with the seed projected out.
    """
    ones = np.array([bin(i).count("1") for i in range(1 << n)])
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
    tops = np.zeros((len(kernel), 1 << n), dtype=complex)
    tops[:, low] = np.vstack([seed, others.T])
    return tops


@dataclass(frozen=True)
class SchurBasis:
    """Orthonormal vectors |j, m, alpha> for n qubits, keyed (j, m, alpha)."""

    n: int
    vectors: dict

    def j_values(self) -> list[int]:
        return sorted({key[0] for key in self.vectors})

    def multiplicity_of(self, j: int) -> int:
        alphas = [key[2] for key in self.vectors if key[0] == j]
        if not alphas:
            raise ValueError(f"no spin-{j} sector in a register of {self.n} qubits")
        return max(alphas)

    def labels(self) -> list[BlockLabel]:
        return [
            BlockLabel(j, alpha)
            for j in self.j_values()
            for alpha in range(1, self.multiplicity_of(j) + 1)
        ]

    def vector(self, j: int, m: int, alpha: int) -> np.ndarray:
        try:
            return self.vectors[(j, m, alpha)]
        except KeyError:
            raise ValueError(f"no basis vector (j={j}, m={m}, alpha={alpha})") from None

    def block(self, j: int, alpha: int) -> np.ndarray:
        """Stacked block vectors; row i is |j, m, alpha> with m = -j + i."""
        return np.array([self.vector(j, m, alpha) for m in range(-j, j + 1)])

    def gram_matrix(self) -> np.ndarray:
        mat = np.array([self.vectors[key] for key in sorted(self.vectors)])
        return mat.conj() @ mat.T


@functools.lru_cache(maxsize=None)
def _build_basis(n: int) -> SchurBasis:
    vectors: dict[tuple[int, int, int], np.ndarray] = {}
    for j in range(n // 2, -1, -1):
        for alpha, top in enumerate(_highest_weight_vectors(n, j), start=1):
            vectors[(j, j, alpha)] = top
            vec = top
            for m in range(j, -j, -1):
                vec = collective_lowering(vec, n)
                vec = vec / np.linalg.norm(vec)
                vectors[(j, m - 1, alpha)] = vec
    for vec in vectors.values():
        vec.setflags(write=False)
    return SchurBasis(n=n, vectors=vectors)


def build_schur_basis(n: int, cap: int | None = None) -> SchurBasis:
    """Full orthonormal block basis of an even register of n qubits.

    Highest-weight vectors span the kernel of the collective raising
    operator, with seed_vector(n, j, j) as copy 1; lower m values follow by
    collective lowering, which keeps the copy index consistent across m.
    Results are cached per n and immutable.
    """
    _check_register(n)
    if n > dense_cap(cap):
        raise SizeLimitError(f"n={n} exceeds the dense cap of {dense_cap(cap)} qubits")
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


def _check_label(basis: SchurBasis, j: int, alpha: int) -> None:
    if j not in basis.j_values():
        raise ValueError(f"no spin-{j} sector for n={basis.n}")
    d = basis.multiplicity_of(j)
    if not 1 <= alpha <= d:
        raise ValueError(f"alpha must lie in 1..{d} for j={j}, got {alpha}")


def block_projector(basis: SchurBasis, j: int, alpha: int) -> BlockProjector:
    """Orthogonal projector onto span{|j, m, alpha>: m = -j..j}."""
    _check_label(basis, j, alpha)
    rows = basis.block(j, alpha)
    return BlockProjector(BlockLabel(j, alpha), rows.T @ rows.conj())


def block_swap(basis: SchurBasis, j: int, alpha: int) -> BlockSwap:
    """Involution exchanging copy alpha with copy 1 of the spin-j sector.

    Acts as the identity on every other block; alpha = 1 returns the
    identity matrix, flagged on the result.
    """
    _check_label(basis, j, alpha)
    mat = np.eye(1 << basis.n, dtype=complex)
    if alpha == 1:
        return BlockSwap(BlockLabel(j, alpha), mat, True)
    for m in range(-j, j + 1):
        u = basis.vector(j, m, 1)
        w = basis.vector(j, m, alpha)
        mat += outer(u, w) + outer(w, u) - outer(u) - outer(w)
    return BlockSwap(BlockLabel(j, alpha), mat, False)


def move_copy(basis: SchurBasis, state: np.ndarray, j: int, src: int, dst: int) -> np.ndarray:
    """Carry a state inside block (j, src) over to block (j, dst).

    Copies of a spin-j sector differ only in their multiplicity label, so
    this is the relabelling rows_dst^T (rows_src^* state rows_src^T) rows_dst^*;
    it equals conjugation by the exchange unitary ``block_swap`` without
    building that 2^n x 2^n matrix.
    """
    rows_src = basis.block(j, src)
    rows_dst = basis.block(j, dst)
    return rows_dst.T @ (rows_src.conj() @ state @ rows_src.T) @ rows_dst.conj()


def measure_block(
    state: np.ndarray, basis: SchurBasis, label: BlockLabel
) -> tuple[float, np.ndarray | None]:
    """Project ``state`` onto one block.

    Returns (probability, normalized post-measurement state); the state is
    None when the probability falls below 1e-14 and is undefined.
    """
    rows = basis.block(label.j, label.alpha)
    inner = rows.conj() @ state @ rows.T
    prob = float(np.real(np.trace(inner)))
    if prob < _PROB_FLOOR:
        return prob, None
    post = rows.T @ inner @ rows.conj() / prob
    return prob, post


def export_basis_csv(basis: SchurBasis, dest) -> None:
    """Write every amplitude as CSV rows ``j,m,alpha,basis_index,re,im``."""
    own = isinstance(dest, (str, os.PathLike))
    fh = open(dest, "w", encoding="utf-8", newline="") if own else dest
    try:
        fh.write("j,m,alpha,basis_index,re,im\n")
        for key in sorted(basis.vectors):
            j, m, alpha = key
            for idx, amp in enumerate(basis.vectors[key]):
                fh.write(
                    f"{j},{m},{alpha},{idx},{float(amp.real)!r},{float(amp.imag)!r}\n"
                )
    finally:
        if own:
            fh.close()
