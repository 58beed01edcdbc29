"""Mixed-qubit domain types and dense multi-qubit linear algebra.

Conventions shared by the whole package: an N-qubit register uses the
computational basis |b1 b2 ... bN> with qubit 1 as the most significant
bit and |0> at index 0.  State vectors and operators are plain numpy
arrays of complex128; the helpers here construct and validate them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_QUBIT_CAP = 12
CAP_ENV_VAR = "SCHUR_CAP"

# Pauli convention matching the index order above: |1> (index 1) is the +1
# eigenstate of Z = diag(-1, 1), so a Bloch vector along +z purifies onto (0, 1).


class SizeLimitError(ValueError):
    """A request would exceed the dense cap or the available memory, or the cap is unreadable."""


def _check_register(n: int) -> None:
    if n < 2 or n % 2:
        raise ValueError(f"register size must be a positive even integer, got {n}")


def dense_cap() -> int:
    """Maximum register size, in qubits, for dense objects.

    The SCHUR_CAP environment variable overrides the built-in default of
    12 qubits.  On a 2-core machine ``qpurify verify`` takes 0.6 s at 10
    qubits and 6.5 s at 0.5 GB at 12.  At 14 the real basis alone takes
    2.1 GB, and ``build_schur_basis`` estimates 7.0 GiB for the whole
    dense route, so it also needs that much available memory.
    """
    env = os.environ.get(CAP_ENV_VAR, "").strip() or str(DEFAULT_QUBIT_CAP)
    try:
        return int(env)
    except ValueError:
        raise SizeLimitError(f"{CAP_ENV_VAR} must be an integer qubit count, got {env!r}") from None


@dataclass(frozen=True)
class MixedQubit:
    """A qubit state with Bloch vector ``lam * direction``.

    The eigenvalue c1 = (1 + lam)/2 belongs to the eigenstate aligned with
    ``direction`` and c0 = (1 - lam)/2 to the anti-aligned one, so lam is
    both the Bloch-vector length and the eigenvalue gap.
    """

    lam: float
    direction: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self) -> None:
        lam = float(self.lam)
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"Bloch length must lie in [0, 1], got {self.lam}")
        vec = np.asarray(self.direction, dtype=float)
        if vec.shape != (3,):
            raise ValueError("direction must be a 3-vector")
        if abs(float(np.linalg.norm(vec)) - 1.0) > 1e-12:
            raise ValueError("direction must be a unit vector to within 1e-12")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "direction", (float(vec[0]), float(vec[1]), float(vec[2])))

    @property
    def c1(self) -> float:
        return (1.0 + self.lam) / 2.0

    @property
    def c0(self) -> float:
        return (1.0 - self.lam) / 2.0


@dataclass(frozen=True, order=True)
class BlockLabel:
    """Label (j, alpha) of one total-spin block; alpha counts copies from 1."""

    j: int
    alpha: int

    def __post_init__(self) -> None:
        if self.j < 0:
            raise ValueError("total spin j must be nonnegative")
        if self.alpha < 1:
            raise ValueError("copy index alpha starts at 1")


def _fix_global_phase(v: np.ndarray) -> np.ndarray:
    # Convention: real nonnegative coefficient on |1>, falling back to |0>
    # when the |1> coefficient vanishes.
    pivot = v[1] if abs(v[1]) > 1e-14 else v[0]
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


def outer(u: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
    """Dense |u><v| (|u><u| when v is omitted)."""
    w = u if v is None else v
    return np.outer(u, w.conj())


def density_matrix(q: MixedQubit) -> np.ndarray:
    """2x2 density operator with eigenvalues (c1, c0) along ``q.direction``."""
    aligned, anti = qubit_eigenstates(q)
    rho = q.c1 * outer(aligned) + q.c0 * outer(anti)
    return 0.5 * (rho + rho.conj().T)


def kron_power(a: np.ndarray, n: int) -> np.ndarray:
    """n-fold tensor power of a vector or square matrix.

    The first factor is the most significant one, so for qubit operators
    the result follows the register ordering of this package.  Raises
    SizeLimitError once the total dimension exceeds 2^dense_cap().
    """
    a = np.asarray(a, dtype=complex)
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    if a.ndim == 2 and a.shape[0] != a.shape[1]:
        raise ValueError("matrix factor must be square")
    if a.ndim not in (1, 2):
        raise ValueError("factor must be a vector or a matrix")
    if a.shape[0] ** n > 2 ** dense_cap():
        raise SizeLimitError(
            f"{n} factors of dimension {a.shape[0]} exceed the dense cap "
            f"of {dense_cap()} qubits"
        )
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


def haar_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Haar-distributed unitary: complex Ginibre QR with the phase fix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    qmat, rmat = np.linalg.qr(z / math.sqrt(2.0))
    diag = np.diagonal(rmat)
    return qmat * (diag / np.abs(diag))


def random_direction(rng: np.random.Generator) -> tuple[float, float, float]:
    """Uniform point on the unit sphere."""
    while True:
        v = rng.standard_normal(3)
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-12:
            v = v / nrm
            return (float(v[0]), float(v[1]), float(v[2]))
