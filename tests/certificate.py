"""An all-channel bound on the average fidelity of a map from N qubits to M.

A channel with Choi matrix C on input ⊗ output (tr_out C = 1) scores
tr(Ω C), the fidelity of its outputs with the input direction n averaged
over each output qubit and over n uniform on the sphere, where

    Ω = ∫ dn state(n)ᵀ ⊗ (1/M) Σ_i P_n^(i),   P_n = (1 + n·σ)/2,

and state(n) = ρ_n^⊗N, ρ_n = (1 + λ n·σ)/2, for a register of N mixed
qubits.  ``certify`` climbs tr(Ω C) by channel power iteration (Reimpell &
Werner, PRL 94, 080501 (2005)) and returns [tr(Ω C), dual]: the dual is
tr Y for Y = tr_out(Ω C) shifted by max(0, λ_max(Ω − Y ⊗ 1)) so that
Y ⊗ 1 ≥ Ω, which bounds every channel whatever C is.  Nothing here uses
the block decomposition, Schur–Weyl duality or covariance, so the
bracket is independent of the closed forms it judges.
"""

import functools
import math

import numpy as np

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def sphere_rule(degree):
    """(unit vector, weight) pairs, weights summing to one, exact for polynomials of ``degree``."""
    n_phi = degree + 1
    for x, w in zip(*np.polynomial.legendre.leggauss(degree // 2 + 1)):
        s = math.sqrt(1.0 - x * x)
        for k in range(n_phi):
            phi = 2.0 * math.pi * k / n_phi
            yield (s * math.cos(phi), s * math.sin(phi), x), w / 2.0 / n_phi


def bloch(v, length):
    return (np.eye(2) + length * np.tensordot(v, PAULI, 1)) / 2.0


def fidelity_operator(state, m, degree):
    """Ω for input states state(n) whose entries are polynomials of degree ``degree`` - 1 in n."""
    total = 0.0
    for v, w in sphere_rule(degree):
        on = [functools.reduce(np.kron, [bloch(v, 1.0) if i == k else np.eye(2) for i in range(m)]) for k in range(m)]
        total = total + w * np.kron(state(v).T, sum(on) / m)
    # the rule is symmetric under phi -> -phi, which turns each term into its conjugate, so Ω is real
    assert np.abs(total.imag).max() < 1e-13
    return total.real


def register_operator(n, m, lam):
    """Ω for n -> m maps of n qubits of Bloch length lam: the integrand has degree n + 1."""
    return fidelity_operator(lambda v: functools.reduce(np.kron, [bloch(v, lam)] * n), m, n + 1)


@functools.lru_cache(maxsize=None)
def certified(n, m, lam):
    """[primal, dual] on the best average fidelity of an n -> m map, shared by every test that asks."""
    return certify(register_operator(n, m, lam), 2**m)


def certify(omega, d_out, iterations=2000):
    """Bracket [primal, dual] on max tr(Ω C), starting from the depolarising channel C = 1/d_out."""
    d_in = len(omega) // d_out

    def tr_out(a):
        return np.einsum("iaja->ij", a.reshape(d_in, d_out, d_in, d_out))

    def bracket(choi):
        y = tr_out(omega @ choi)
        y = (y + y.T) / 2.0
        gap = max(0.0, np.linalg.eigvalsh(omega - np.kron(y, np.eye(d_out)))[-1])
        return float(np.trace(y)), float(np.trace(y) + d_in * gap)

    choi = np.eye(len(omega)) / d_out
    primal, dual = bracket(choi)
    for step in range(1, iterations + 1):
        choi = omega @ choi @ omega
        vals, vecs = np.linalg.eigh(tr_out(choi))
        r = (vecs / np.sqrt(vals)) @ vecs.T
        for _ in range(2):  # choi <- (r ⊗ 1) choi (r ⊗ 1), one side at a time
            choi = (r @ choi.reshape(d_in, -1)).reshape(choi.shape).T
        if step % 10 == 0 or step == iterations:
            primal, dual = bracket(choi)
            if dual - primal < 1e-12:
                break
    return primal, dual


def assert_bracketed(value, bracket):
    primal, dual = bracket
    assert dual - primal < 1e-8, f"bracket [{primal}, {dual}] is not converged"
    assert primal - 1e-9 <= value <= dual + 1e-9, f"{value} lies outside [{primal}, {dual}]"
