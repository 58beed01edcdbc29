"""Construction of the total-spin block basis for an even qubit register.

The basis vectors |j, m, alpha> organise the 2^n computational dimensions
into blocks: j is the collective spin, m its projection, and alpha counts
the equivalent copies of the spin-j sector.  Qubit pairs couple one after
another through Clebsch-Gordan coefficients (Bacon, Chuang & Harrow, PRL
97, 170502 (2006)), and alpha names the coupling path, the same on every
machine.  Dense consumers read each copy's (2j+1)-square block of a state
(``block_coordinates``), in which exchanging copies is a relabelling,
tested against the lab-frame ``measure_block`` and exchange unitary
``block_swap``; each copy is one spin-j ladder of ``collective_lowering``.

The package's dense helpers live here too: qubit eigenstates and density
matrices, tensor powers, partial traces and random unitaries.  States and
operators are numpy complex128 arrays.  |1> (index 1) is the +1 eigenstate
of Z = diag(-1, 1), so a Bloch vector along +z purifies onto (0, 1).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

import numpy as np

from .core import DENSE_CAP, BlockLabel, MixedQubit, SizeLimitError, _check_memory, _check_register


def _fix_global_phase(v: np.ndarray) -> np.ndarray:
    # Convention: real nonnegative coefficient on |1>, falling back to |0>
    # when the |1> coefficient is exactly zero.
    pivot = v[1] if v[1] else v[0]
    return v * (pivot.conjugate() / abs(pivot))


def qubit_eigenstates(q: MixedQubit) -> tuple[np.ndarray, np.ndarray]:
    """Return (aligned, anti-aligned) eigenvectors of the qubit state.

    The aligned vector v satisfies density_matrix(q) @ v = c1 * v.  Global
    phases are fixed so results are reproducible: the coefficient on |1>
    is real and nonnegative when nonzero, otherwise the one on |0> is.
    """
    nx, ny, nz = q.direction
    theta = math.acos(min(1.0, max(-1.0, nz)))
    phi = math.atan2(ny, nx)
    half_c = math.cos(theta / 2.0)
    half_s = math.sin(theta / 2.0)
    phase = complex(math.cos(phi), math.sin(phi))
    aligned = np.array([half_s * phase, half_c], dtype=complex)
    anti = np.array([-half_c * phase, half_s], dtype=complex)
    return _fix_global_phase(aligned), _fix_global_phase(anti)


def outer(u: np.ndarray) -> np.ndarray:
    """Dense |u><u|."""
    return np.outer(u, u.conj())


def density_matrix(q: MixedQubit) -> np.ndarray:
    """2x2 density operator with eigenvalues (c1, c0) along ``q.direction``."""
    aligned, anti = qubit_eigenstates(q)
    rho = q.c1 * outer(aligned) + q.c0 * outer(anti)
    return 0.5 * (rho + rho.conj().T)


def kron_power(a: np.ndarray, n: int) -> np.ndarray:
    """n-fold tensor power of a vector or square matrix.

    The first factor is the most significant one, so for qubit operators
    the result follows the register ordering of this package.  Raises
    SizeLimitError once the total dimension exceeds 2^DENSE_CAP.
    """
    a = np.asarray(a, dtype=complex)
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    if a.ndim == 2 and a.shape[0] != a.shape[1]:
        raise ValueError("matrix factor must be square")
    if a.ndim not in (1, 2):
        raise ValueError("factor must be a vector or a matrix")
    if a.shape[0] ** n > 2**DENSE_CAP:
        raise SizeLimitError(f"{n} factors of dimension {a.shape[0]} exceed the dense cap of {DENSE_CAP} qubits")
    out = a
    for _ in range(n - 1):
        out = np.kron(out, a)
    return out


def _qubit_count(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def partial_trace(a: np.ndarray, keep) -> np.ndarray:
    """Trace out every qubit not listed in ``keep`` (1-based indices).

    Qubit 1 is the most significant tensor factor; the reduced operator
    keeps the surviving qubits in ascending index order.
    """
    a = np.asarray(a)
    n = _qubit_count(a.shape[0])
    kept = sorted({int(k) for k in keep})
    if not kept:
        raise ValueError("keep must name at least one qubit")
    if kept[0] < 1 or kept[-1] > n:
        raise ValueError(f"keep indices must lie in 1..{n}")
    kept_set = set(kept)
    tensor = a.reshape((2,) * (2 * n))
    row = list(range(n))
    col = [n + i if (i + 1) in kept_set else i for i in range(n)]
    out = [i for i in range(n) if (i + 1) in kept_set]
    out += [n + i for i in range(n) if (i + 1) in kept_set]
    reduced = np.einsum(tensor, row + col, out)
    d = 2 ** len(kept)
    return reduced.reshape(d, d)


def max_abs(a: np.ndarray) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 2x2 unitary: complex Ginibre QR with the phase fix."""
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    qmat, rmat = np.linalg.qr(z / math.sqrt(2.0))
    diag = np.diagonal(rmat)
    return qmat * (diag / np.abs(diag))


def random_direction(rng) -> tuple[float, float, float]:
    """Uniform point on the unit sphere from two ``rng.random()`` draws.

    z is uniform on [-1, 1], which is uniform on the sphere (Archimedes'
    hat-box theorem), and the azimuth uniform on [0, 2 pi).  Works for a
    ``random.Random`` and a numpy Generator alike.
    """
    z = 2.0 * rng.random() - 1.0
    phi = 2.0 * math.pi * rng.random()
    r = math.sqrt(1.0 - z * z)
    return (r * math.cos(phi), r * math.sin(phi), z)


SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)

_PROB_FLOOR = 1e-14  # below this an outcome's post-state is undefined


def _popcounts(n: int) -> np.ndarray:
    """Number of ones in each n-qubit basis index."""
    return np.array([bin(i).count("1") for i in range(1 << n)])


def dicke_rows(j: int) -> np.ndarray:
    """Real (2j+1, 2^2j) rows of Dicke states, m = -j + i in row i.

    Copy 1 of spin j is these rows followed by singlet pairs.
    """
    rows = (_popcounts(2 * j) == np.arange(2 * j + 1)[:, None]).astype(float)
    return rows / np.sqrt(rows.sum(axis=1, keepdims=True))


def dicke_power(u: np.ndarray, j: int) -> np.ndarray:
    """Symmetric power W = D u^(x 2j) D^T of a 2x2 matrix u on the Dicke rows D.

    W[l, k] is the x^l coefficient of (u00 + u10 x)^(2j-k) (u01 + u11 x)^k
    times sqrt(C(2j,k) / C(2j,l)).  Convolutions keep zero coefficients, so
    W is (2j+1)-square for any u; W(uv) = W(u) W(v).
    """
    u = np.asarray(u, dtype=complex)
    factors = [[u[:, 0]] * (2 * j - k) + [u[:, 1]] * k for k in range(2 * j + 1)]
    w = np.column_stack([functools.reduce(np.convolve, f, np.ones(1, dtype=complex)) for f in factors])
    binom = np.array([math.comb(2 * j, k) for k in range(2 * j + 1)], dtype=float)
    return w * np.sqrt(binom / binom[:, None])


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
    return functools.reduce(np.kron, [SINGLET] * (n // 2 - j), dicke_state(j, m))


def collective_lowering(vec: np.ndarray, n: int) -> np.ndarray:
    """Apply J-, the sum of single-qubit lowerings |1> -> |0>, on the last axis, one reshaped view per qubit."""
    out = np.zeros(vec.shape, vec.dtype)  # C order, so each reshape of it below is a view
    for k in range(n):
        shape = (*vec.shape[:-1], 2**k, 2, -1)
        out.reshape(shape)[..., 0, :] += vec.reshape(shape)[..., 1, :]
    return out


def _clebsch_gordan(j1: int, m1: int, j2: int, m2: int, j: int, m: int) -> float:
    """<j1 m1; j2 m2 | j m> for an allowed integer coupling: Racah's form, summed exactly.

    The series is summed over its terms' least common denominator, so the
    squared coefficient is one ratio of integers, rounded to float once.
    """
    f = math.factorial
    ks = range(max(0, j2 - j - m1, j1 - j + m2), min(j1 + j2 - j, j1 - m1, j2 + m2) + 1)
    dens = [
        f(k) * f(j1 + j2 - j - k) * f(j1 - m1 - k) * f(j2 + m2 - k) * f(j - j2 + m1 + k) * f(j - j1 - m2 + k) for k in ks
    ]
    common = math.lcm(*dens)
    total = sum((-1) ** k * (common // den) for k, den in zip(ks, dens))
    square = (2 * j + 1) * f(j + j1 - j2) * f(j - j1 + j2) * f(j1 + j2 - j)
    square *= f(j + m) * f(j - m) * f(j1 - m1) * f(j1 + m1) * f(j2 - m2) * f(j2 + m2)
    return math.copysign(math.sqrt(square * total**2 / (f(j1 + j2 + j + 1) * common**2)), total)


def _add_pair(spins: dict) -> dict:
    """Spin arrays of a register grown by one qubit pair of spin k, coupled last.

    Copies of spin t come singlet from s = t first, then triplet from
    s = t - 1, t, t + 1, each in the smaller register's order.  Each entry
    is one old entry times one coefficient, so no BLAS order can change it.
    """
    pair = {0: SINGLET.real[None], 1: dicke_rows(1)}  # row k + mu is |k, mu>
    grown = {}
    for t in range(len(spins) + 1):
        steps = ((0, t), (1, t - 1), (1, t), (1, t + 1))
        paths = [(k, s) for k, s in steps if s in spins and abs(s - k) <= t]
        rows = np.zeros((sum(len(spins[s]) for _, s in paths), 2 * t + 1, spins[0].shape[-1], 4))
        start = 0
        for k, s in paths:
            copies = rows[start : start + len(spins[s])]
            for mu in range(-k, k + 1):
                lo, hi = max(-t, mu - s), min(t, mu + s)
                cg = np.array([_clebsch_gordan(s, m - mu, k, mu, t, m) for m in range(lo, hi + 1)])
                old = spins[s][:, lo - mu + s : hi - mu + s + 1, :, None]
                copies[:, lo + t : hi + t + 1] += old * (cg[:, None, None] * pair[k][k + mu])
            start += len(spins[s])
        grown[t] = rows.reshape(len(rows), 2 * t + 1, -1)
    return grown


class SchurBasis(namedtuple("SchurBasis", "n spins")):
    """Orthonormal vectors |j, m, alpha> for n qubits, one real array per spin.

    ``spins[j]`` is read-only, shaped (d_j, 2j+1, 2^n); [alpha - 1, j + m] is |j, m, alpha>.
    """

    __slots__ = ()

    def multiplicity_of(self, j: int) -> int:
        if j not in self.spins:
            raise ValueError(f"no spin-{j} sector in a register of {self.n} qubits")
        return self.spins[j].shape[0]

    def block(self, j: int, alpha: int) -> np.ndarray:
        """View of the block vectors; row i is |j, m, alpha> with m = -j + i."""
        d = self.multiplicity_of(j)
        if not 1 <= alpha <= d:
            raise ValueError(f"alpha must lie in 1..{d} for j={j}, got {alpha}")
        return self.spins[j][alpha - 1]


@functools.lru_cache(maxsize=None)
def _build_basis(n: int) -> SchurBasis:
    spins = {0: np.ones((1, 1, 1))}
    for _ in range(n // 2):  # the smaller registers are dropped on the way, so only n stays cached
        spins = _add_pair(spins)
    for rows in spins.values():
        rows.setflags(write=False)
    return SchurBasis(n=n, spins=spins)


def _check_dense(n: int) -> None:
    _check_register(n)
    if n > DENSE_CAP:
        raise SizeLimitError(f"n={n} exceeds the dense cap of {DENSE_CAP} qubits")


def build_schur_basis(n: int) -> SchurBasis:
    """Full orthonormal block basis of an even register of n qubits.

    Qubit pairs couple in register order; alpha numbers the coupling paths
    as ``_add_pair`` lists them, so copy 1 is seed_vector(n, j, .) and
    copies 1..d_j(n - 2) are the n - 2 basis followed by a singlet.  Cached
    for the n asked for alone, immutable, but every call checks again: it raises
    SizeLimitError above DENSE_CAP qubits, or when the dense work would not
    fit in the memory available then: the real basis (8 4^n bytes), what
    the dense checks hold beside it (the on-weight rows and Gram matrix of
    the largest weight, 16 C(n, n/2)^2 bytes, and four complex copies of
    one copy's n + 1 rows), and 64 MiB for buffers and allocator slack.
    At 12 qubits that is 208 MiB, above the 184 MiB peak of ``qpurify verify``.
    """
    _check_dense(n)
    beside = 16 * math.comb(n, n // 2) ** 2 + 4 * 16 * (n + 1) * 2**n
    _check_memory(8 * 4**n + beside + 2**26, f"n={n}", " of dense arrays")
    return _build_basis(n)


BlockSwap = namedtuple("BlockSwap", "label matrix is_identity")


def block_swap(basis: SchurBasis, j: int, alpha: int) -> BlockSwap:
    """Involution exchanging copy alpha with copy 1 of the spin-j sector.

    Acts as the identity on every other block; alpha = 1 returns the
    identity matrix, flagged on the result.  The lab-frame reference for
    the relabelling that ``block_coordinates`` makes of a copy exchange.
    """
    diff = basis.block(j, 1) - basis.block(j, alpha)
    # 1 - sum_m |u_m - w_m><u_m - w_m| for u_m = |j,m,1>, w_m = |j,m,alpha>
    mat = np.eye(1 << basis.n, dtype=complex) - diff.T @ diff
    return BlockSwap(BlockLabel(j, alpha), mat, alpha == 1)


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


def power_coordinates(basis: SchurBasis, rho: np.ndarray) -> dict[int, np.ndarray]:
    """``block_coordinates(basis, kron_power(rho, basis.n))`` without the 2^n-square power.

    A row r read as the 2^(n/2)-square matrix R of its two qubit halves
    has r rho^(x n) = K^T R K for K = rho^(x n/2); each copy's block is
    then one (2j+1)-square product, as in ``block_coordinates``.  One copy
    at a time, so the temporaries are (2j+1) rows, never a spin sector.
    """
    k = kron_power(rho, basis.n // 2)
    side = len(k)
    coords = {}
    for j, rows in basis.spins.items():
        coords[j] = np.stack([(k.T @ copy.reshape(-1, side, side) @ k).reshape(copy.shape) @ copy.T for copy in rows])
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

