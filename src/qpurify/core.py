"""Mixed-qubit domain types: the qubit state, block labels and the dense cap.

This module, like ``analytics`` and ``cloning``, needs only the standard
library; the dense helpers that build numpy states and operators live in
``blocks``.  The package's value types are named tuples that check their
fields in ``__new__``: immutable, hashed and ordered as tuples, and built
without the ``dataclasses`` import that every CLI process would pay for.
Conventions shared by the whole package: an N-qubit register uses the
computational basis |b1 b2 ... bN> with qubit 1 as the most significant
bit and |0> at index 0.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple

# Largest register, in qubits, for dense objects.  On a 2-core machine
# ``qpurify verify`` takes 0.24 s at 10 qubits and 1.4-1.6 s at 192 MiB at
# 12.  At 14 the real basis alone takes 2.1 GB, and ``build_schur_basis``
# would estimate 2.3 GiB for the whole dense route; no run has measured it.
DENSE_CAP = 12


class SizeLimitError(ValueError):
    """A request would exceed the dense cap of DENSE_CAP qubits or the available memory."""


def _check_register(n: int) -> None:
    if n < 2 or n % 2:
        raise ValueError(f"register size must be a positive even integer, got {n}")


def _check_lambda(lam: float) -> None:
    if not 0.0 <= float(lam) <= 1.0:
        raise ValueError(f"Bloch length must lie in [0, 1], got {lam}")


def _mem_available_bytes() -> int | None:
    """MemAvailable from /proc/meminfo, or None where it cannot be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            fields = dict(line.split(":", 1) for line in fh)
        return int(fields["MemAvailable"].split()[0]) * 1024
    except (OSError, KeyError, ValueError):
        return None


def _check_memory(needed: int, subject: str, what: str = "") -> None:
    """Raise SizeLimitError when ``needed`` bytes exceed MemAvailable; do nothing where that cannot be read."""
    available = _mem_available_bytes()
    if available is not None and needed > available:
        raise SizeLimitError(
            f"{subject} needs about {needed / 2**20:.3g} MiB{what}, more than the {available / 2**20:.3g} MiB available"
        )


# namedtuple's own _make, which _replace also calls, skips __new__ and so its checks
_checked_make = classmethod(lambda cls, fields: cls(*fields))


class MixedQubit(namedtuple("MixedQubit", "lam direction")):
    """A qubit state with Bloch vector ``lam * direction``.

    The eigenvalue c1 = (1 + lam)/2 belongs to the eigenstate aligned with
    ``direction`` and c0 = (1 - lam)/2 to the anti-aligned one, so lam is
    both the Bloch-vector length and the eigenvalue gap.
    """

    __slots__ = ()

    def __new__(cls, lam: float, direction: tuple[float, float, float] = (0.0, 0.0, 1.0)) -> MixedQubit:
        _check_lambda(lam)
        try:
            vec = tuple(direction)
        except TypeError:  # a scalar
            vec = ()
        if len(vec) != 3 or not all(isinstance(x, numbers.Real) for x in vec):
            raise ValueError("direction must be a 3-vector")
        vec = tuple(map(float, vec))
        if not abs(math.hypot(*vec) - 1.0) <= 1e-12:
            raise ValueError("direction must be a unit vector to within 1e-12")
        return super().__new__(cls, float(lam), vec)

    _make = _checked_make

    @property
    def c1(self) -> float:
        return (1.0 + self.lam) / 2.0

    @property
    def c0(self) -> float:
        return (1.0 - self.lam) / 2.0


class BlockLabel(namedtuple("BlockLabel", "j alpha")):
    """Label (j, alpha) of one total-spin block; alpha counts copies from 1."""

    __slots__ = ()

    def __new__(cls, j: int, alpha: int) -> BlockLabel:
        if j < 0:
            raise ValueError("total spin j must be nonnegative")
        if alpha < 1:
            raise ValueError("copy index alpha starts at 1")
        return super().__new__(cls, j, alpha)

    _make = _checked_make

    def __str__(self) -> str:
        return f"j={self.j};alpha={self.alpha}"
