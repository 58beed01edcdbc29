"""Exact rationals for the closed forms at a rational Bloch length lam = a/b.

With u = b + a, v = b - a, g = sum_k u^(2j-k) v^k and h = sum_k k u^(2j-k) v^k
over the k anti-aligned qubits of a spin-j block, p_j = d_j (uv)^(J-j) g / (2b)^n
and the kept qubit's Bloch length is delta_j = (j g - h) / (j g).  Every output
of the decomposition is a Bloch-length average sum_j p_j w_j delta_j with
w_0 = 0, and the p_j sum to one exactly, so no normalisation enters.
"""

import itertools
import math
import operator
from fractions import Fraction


def block_sums(J: int, lam: Fraction):
    """(j, g, h) for j = 1..J, exact integers."""
    a, b = lam.numerator, lam.denominator
    u, v = b + a, b - a
    g, h, v_m = 1, 0, 1
    for j in range(1, J + 1):
        for m in (2 * j - 1, 2 * j):
            v_m *= v
            g, h = u * g + v_m, u * h + m * v_m
        yield j, g, h


def exact_probabilities(n: int, lam: Fraction) -> list[Fraction]:
    """p_j for j = 0..n/2."""
    a, b = lam.numerator, lam.denominator
    J = n // 2
    gs = [1, *(g for _, g, _ in block_sums(J, lam))]
    return [
        Fraction(math.comb(n, J - j) * (2 * j + 1) // (J + j + 1) * ((b + a) * (b - a)) ** (J - j) * g, (2 * b) ** n)
        for j, g in enumerate(gs)
    ]


def exact_bloch_lengths(J: int, lam: Fraction) -> list[Fraction]:
    """delta_j for j = 1..J."""
    return [Fraction(j * g - h, j * g) for j, g, h in block_sums(J, lam)]


def exact_bloch_average(n: int, lam: Fraction, weight) -> Fraction:
    """sum_{j>=1} p_j weight(j) delta_j, with p_j delta_j = d_j (uv)^(J-j) (j g - h) / (j (2b)^n)."""
    a, b = lam.numerator, lam.denominator
    J = n // 2
    pair_powers = list(itertools.accumulate([(b + a) * (b - a)] * (J - 1), operator.mul, initial=1))  # (uv)^(J-j)
    total = Fraction(0)
    for j, g, h in block_sums(J, lam):
        d = math.comb(n, J - j) * (2 * j + 1) // (J + j + 1)
        total += Fraction(d * pair_powers[J - j] * (j * g - h), j) * weight(j)
    return total / (2 * b) ** n


def exact_estimation_lambda(n: int, lam: Fraction) -> Fraction:
    """The estimation limit: weights j/(j + 1)."""
    return exact_bloch_average(n, lam, lambda j: Fraction(j, j + 1))


def exact_clone_lambda(n: int, m: int, lam: Fraction) -> Fraction:
    """The Bloch length of each of m clones: weights 2 f_pur - 1, 1 for m <= 2j and j(m + 2)/(m(j + 1)) above."""
    return exact_bloch_average(n, lam, lambda j: 1 if m <= 2 * j else Fraction(j * (m + 2), m * (j + 1)))
