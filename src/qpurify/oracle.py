"""Brute-force verification of the block structure on explicit bases and blocks.

Every closed-form claim made by :mod:`qpurify.analytics` is re-derived
here for small registers from the blocks of the tensor power, which
``power_coordinates`` reads off the basis rows without the 2^n-square
power: the basis is orthonormal weight by weight, the blocks carry the
whole weight of the power, and each copy's trace and block match the
closed forms p_j / d_j and (p_j / d_j) rho_j; block states are rebuilt
by quadrature over pure components; the maps are reversible; and the
rows obey the collective lowering relation, so the maps commute with
every rotation.  Each check returns its residuals.
``verify_decomposition(q, basis)`` runs them all on the basis it is
given, from one ``power_coordinates`` call, and returns the (check,
label, residual) rows that ``qpurify verify`` prints.
Nothing is cached, and no check raises on the size of a residual: the
tolerance and the verdict belong to ``qpurify verify``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .analytics import _probabilities, cross_power_sum
from .blocks import SINGLET, SchurBasis, _popcounts, block_coordinates
from .blocks import collective_lowering, density_matrix, dicke_power, dicke_rows, max_abs, power_coordinates
from .blocks import qubit_eigenstates
from .core import BlockLabel, MixedQubit


def orthonormality_residual(basis: SchurBasis) -> float:
    """Largest defect of the basis rows from orthonormality, one Hamming weight at a time.

    |j, m, alpha> must vanish off the basis states with n/2 + m ones, and
    the rows of each weight must be orthonormal there: C(n, w)-square Gram
    matrices instead of one 2^n-square one.  The off-weight maximum comes
    from each spin's column extremes, the Gram matrix from on-weight columns.
    """
    weight = _popcounts(basis.n)
    worst = 0.0
    for w in range(basis.n + 1):
        m = w - basis.n // 2
        rows = [r[:, j + m] for j, r in basis.spins.items() if abs(m) <= j]
        for spin in rows:
            worst = max(worst, spin.max(axis=0)[weight != w].max(), -spin.min(axis=0)[weight != w].min())
        on = np.concatenate([spin[:, weight == w] for spin in rows])
        gram = on @ on.T
        gram.flat[:: len(on) + 1] -= 1.0
        worst = max(worst, np.abs(gram, out=gram).max())
        del on, gram  # before the next weight's columns are gathered
    return float(worst)


def block_state_matrix(q: MixedQubit, j: int) -> np.ndarray:
    """Density operator of the 2j qubits kept after a spin-j outcome, in Dicke coordinates.

    W diag(w) W^H for W = dicke_power(rot, j), rot the rotation to the Bloch
    direction, and geometric weights w_k ~ c1^k c0^(2j-k); as 2j qubits it is D^T (this) D.
    """
    if j < 1:
        raise ValueError("the kept block needs j >= 1")
    aligned, anti = qubit_eigenstates(q)
    rot = dicke_power(np.column_stack([anti, aligned]), j)  # |0> -> |0_n>, |1> -> |1_n>
    ones = np.arange(2 * j + 1)
    weights = q.c1**ones * q.c0 ** (2 * j - ones) / cross_power_sum(q.c1, q.c0, 2 * j)
    return (rot * weights) @ rot.conj().T


def verify_decomposition(q: MixedQubit, basis: SchurBasis) -> list[tuple[str, str | BlockLabel, float]]:
    """Residuals of rho^(x n) = sum_j p_j rho_j (x) 1_{d_j} on the blocks of ``q``'s tensor power.

    The (check, label, residual) rows that ``qpurify verify`` prints, all
    in block coordinates of one ``power_coordinates`` call.  Three
    ``decomposition`` rows: the basis rows are orthonormal
    (``orthonormality_residual``); the blocks B hold the whole weight,
    |sum ||B||_F^2 - tr(rho^2)^n|, which for an orthonormal basis vanishes
    exactly when every off-diagonal block does; and each copy's trace is
    p_j / d_j.  Then one ``post_state`` row per copy, by BlockLabel in the basis' order:
    max|B - (p_j / d_j) block_state_matrix| on the unnormalised block, the
    state's own scale.  Then a ``quadrature`` row per spin j >= 1, a
    ``reversibility`` row per copy and the ``covariance`` row: 3 +
    2 C(n, n/2) + n/2 + 1 rows at every lambda, whatever the residuals
    are; the caller judges them.
    """
    n = basis.n
    post_state, reversibility = [], []
    copy_traces = 0.0
    coords = power_coordinates(basis, density_matrix(q))
    probs = _probabilities(n, q.lam)
    for j, blocks in coords.items():
        # every copy's block is its share p_j / d_j of the kept 2j-qubit state, in Dicke coordinates
        share = probs[j] / len(blocks)
        predicted = share * (block_state_matrix(q, j) if j > 0 else np.eye(1))
        # copy 1's rows as (2j+1, 2^2j kept, 2^(n-2j) discarded); kept ⊗ |singlets> projected back onto them
        first = basis.spins[j][0].reshape(2 * j + 1, 4**j, -1)
        back = first @ functools.reduce(np.kron, [SINGLET] * (n // 2 - j), np.ones(1))
        lift = np.einsum("xa,lar->rxl", back, first)
        for alpha, measured in enumerate(blocks, start=1):
            label = BlockLabel(j, alpha)
            copy_traces = max(copy_traces, abs(float(np.trace(measured).real) - share))
            post_state.append(("post_state", label, max_abs(measured - predicted)))
            reversibility.append(("reversibility", label, reversibility_check(lift, measured)))
    weight = math.fsum(float(np.vdot(blocks, blocks).real) for blocks in coords.values())
    return [
        ("decomposition", "orthonormality", orthonormality_residual(basis)),
        ("decomposition", "off_block_weight", abs(weight - (q.c0**2 + q.c1**2) ** n)),
        ("decomposition", "copy_traces", copy_traces),
        *post_state,
        *(("quadrature", f"j={j}", quadrature_check(q, j)) for j in range(1, n // 2 + 1)),
        *reversibility,
        ("covariance", "collective_lowering", covariance_residual(basis)),
    ]


def _gauss_legendre(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] from the Golub-Welsch eigenproblem.

    The nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix
    of the Legendre recurrence, off-diagonal k / sqrt(4k^2 - 1), and the
    weights 2 v_0^2 from the eigenvectors' first components (Golub & Welsch,
    Math. Comp. 23, 221 (1969)).
    """
    k = np.arange(1.0, degree)
    nodes, vecs = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))  # eigh reads the lower triangle
    return nodes, 2.0 * vecs[0] ** 2


def _angular_rule(j: int) -> list[tuple[float, float, complex, float]]:
    """(cos(theta/2), sin(theta/2), e^{i phi}, weight) of the spin-j pure-component rule.

    Gauss-Legendre in cos(theta) with 2j + 2 nodes and a uniform rule in
    phi with 4j + 1, which integrate the degree-2j trigonometric integrand
    exactly; the weights sum to one.
    """
    if j < 1:
        raise ValueError("the pure-component integral needs j >= 1")
    n_phi = 4 * j + 1
    phases = np.exp(1j * (2.0 * math.pi * np.arange(n_phi) / n_phi))
    return [
        (math.sqrt((1.0 + x) / 2.0), math.sqrt((1.0 - x) / 2.0), phase, w / 2.0 / n_phi)
        for x, w in zip(*_gauss_legendre(2 * j + 2))
        for phase in phases
    ]


def quadrature_check(q: MixedQubit, j: int) -> float:
    """Rebuild the kept-block state from its pure-component integral.

    The block state is a rotation average over 2j-fold copies of a single
    pure state (b0, b1), integrated by ``_angular_rule``.  Each copy is a
    spin-coherent state with Dicke coordinates sqrt(C(2j,k)) b1^k b0^(2j-k),
    so every node costs (2j+1)^2.  Returns the max-element residual against
    block_state_matrix.
    """
    rule = _angular_rule(j)
    aligned, anti = qubit_eigenstates(q)
    cos_half, sin_half, phase, weight = (np.array(col) for col in zip(*rule))
    # unnormalized pure components (b0, b1), one row per node; their norm^2 supplies the angular weight
    b = np.outer(math.sqrt(q.c1) * cos_half, aligned) + np.outer(math.sqrt(q.c0) * sin_half * phase, anti)
    k = np.arange(2 * j + 1)
    binom = np.array([math.comb(2 * j, i) for i in k], dtype=float)
    coherent = np.sqrt(binom) * b[:, 1:] ** k * b[:, :1] ** (2 * j - k)
    acc = (coherent.T * weight) @ coherent.conj()
    rho_quad = (2 * j + 1) / cross_power_sum(q.c1, q.c0, 2 * j) * acc
    return max_abs(rho_quad - block_state_matrix(q, j))


def reversibility_check(lift: np.ndarray, post: np.ndarray) -> float:
    """Undo the protocol on one outcome and compare with its block ``post``.

    Lifting the block onto the first copy, discarding the singlet pairs,
    re-appending fresh singlets and projecting back must reproduce the
    block exactly.  ``lift`` is that round trip as (2^(n-2j), 2j+1, 2j+1)
    slices, which ``verify_decomposition`` builds once per spin from copy
    1's rows, so no 2^n or 2^2j square matrix appears and each block pays
    one (2j+1)-square sandwich per slice.

    build_schur_basis makes copy 1 the Dicke rows followed by singlet
    pairs, so the lift is the Dicke rows times the singlet amplitudes s and
    the round trip returns sum(s^2) * post = post for any block, of any
    trace.  The check therefore tests that factorisation of the basis, once
    per block; it cannot fail for a measured block.
    """
    # kept = sum_r first[:, :, r]^T post first[:, :, r]; back kept back^H, one slice r at a time
    return max_abs((lift @ post @ lift.conj().transpose(0, 2, 1)).sum(axis=0) - post)


def purification_map_outputs(basis: SchurBasis, state: np.ndarray) -> dict[int, np.ndarray]:
    """Unnormalized outputs of the block measurement, keyed by kept-qubit count.

    Each branch projects onto a copy, relabels it as the first copy and
    discards the singlet pairs.  Relabelling keeps a copy's block, so the
    blocks B of one spin sum, and the kept 2j qubits are in D^T B D for
    the Dicke rows D.  Traces give outcome probabilities.
    """
    outs: dict[int, np.ndarray] = {}
    for j, blocks in block_coordinates(basis, state).items():
        rows = dicke_rows(j)
        outs[2 * j] = rows.T @ blocks.sum(axis=0) @ rows
    return outs


def covariance_residual(basis: SchurBasis) -> float:
    """Largest defect of the basis rows from the standard collective lowering relation.

    Every row must obey J- |j, m, alpha> = sqrt((j+m)(j-m+1)) |j, m-1, alpha>,
    the row m = -j being annihilated; one ``collective_lowering`` per spin
    copy.  With the weights and orthonormality that ``orthonormality_residual``
    checks, this puts J_z, J- and J+ = J-^T in standard form on every copy,
    so U^(x n) acts on each copy as the same spin-j irrep for every
    single-qubit U.  Every block map therefore commutes with every rotation,
    and no unitary needs to be sampled.
    """
    worst = 0.0
    for j, rows in basis.spins.items():
        m = np.arange(1 - j, j + 1)
        ladder = np.sqrt((j + m) * (j - m + 1))[:, None]
        for copy in rows:  # one copy at a time: the lowered rows minus their expected ladder, in place
            lowered = collective_lowering(copy, basis.n)
            lowered[1:] -= ladder * copy[:-1]
            worst = max(worst, max_abs(lowered))
    return worst
