"""Closed-form statistics of the total-spin blocks of N identical qubits.

Everything here is binomial/geometric arithmetic on plain floats, with no exact d_j on the float route, so it
needs only the standard library and stays cheap for register sizes far beyond any dense 2^N object.  Exact d_j
are walked only where read and only while they print: no other module knows the printable-digit rule.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from collections import namedtuple

from .core import SizeLimitError, _check_lambda, _check_memory, _check_register

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def multiplicity(n: int, j: int) -> int:
    """Number of equivalent spin-j blocks in n qubits (exact integer)."""
    _check_register(n)
    J = n // 2
    if not 0 <= j <= J:
        raise ValueError(f"total spin must lie in 0..{J}, got {j}")
    return math.comb(n, J - j) * (2 * j + 1) // (J + j + 1)


def cross_power_sum(c1: float, c0: float, m: int) -> float:
    """sum_{k=0..m} c1^k c0^(m-k), a cancellation-free form of
    (c1^(m+1) - c0^(m+1)) / (c1 - c0)."""
    return math.fsum(c1**k * c0 ** (m - k) for k in range(m + 1))


def _prefix_sums(lam: float, J: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """S0[2j] and delta_j for j = 0..J, read off the cached columns of lam, once they fit MemAvailable."""
    _check_lambda(lam)  # before the lookup, so no bad lam becomes a key
    if 800 * J > 2**26:  # the float columns hold about 400 bytes a qubit; read only above 64 MiB
        _check_memory(800 * J, f"a spectrum to j={J}", " of float columns")
    s0, blochs = _lambda_columns(lam, 1 << J.bit_length())
    return s0[: J + 1], blochs[: J + 1]


@functools.lru_cache(maxsize=32)
def _lambda_columns(lam: float, size: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """S0[2j] and the kept qubit's Bloch length delta_j = 2 f_j - 1 for j < size.

    A spin-j block holds k = 0..2j anti-aligned qubits with weight r^k,
    r = c0/c1.  With S0[m] = sum_{k<=m} r^k, delta_j = nu_j / (j S0[2j]) for
    nu_j = sum_k (j - k) r^k = r nu_{j-1} + (1 - r) j S0[2j-1], nu_0 = 0, and
    1 - r = 2 lam/(1 + lam) formed directly: every term is positive, so
    nothing cancels for any lam.  j = 0 takes the continuous limit.  The sums
    run in order, so each entry is the same float whatever ``size`` is; callers
    round size up to a power of two, so a growing J costs O(log J) builds.
    """
    r, gap = (1.0 - lam) / (1.0 + lam), 2.0 * lam / (1.0 + lam)
    s0 = list(itertools.accumulate(r**k for k in range(2 * size - 1)))
    steps = (gap * j * s0[2 * j - 1] for j in range(1, size))
    nus = itertools.accumulate(steps, lambda nu, step: r * nu + step)
    blochs = (nu / (j * s0[2 * j]) for j, nu in enumerate(nus, 1))
    return tuple(s0[::2]), (_bloch_limit_j0(lam), *blochs)


def _probabilities(n: int, lam: float) -> tuple[float, ...]:
    """Float p_j = d_j (c0 c1)^(J-j) c1^(2j) S0[2j] for j = 0..n/2, one product walk out of the mode.

    Each factor of p_{j+1}/p_j = (J-j)(2j+3)/((2j+1)(J+j+2)) (c1/c0) S0[2j+2]/S0[2j] falls with j, so the
    mode k is the number of ratios above 1: the walk starts at 1.0 on row k and is divided by its own sum.
    """
    _check_register(n)
    J = n // 2
    s0 = _prefix_sums(lam, J)[0]  # which refuses a bad lam first
    if lam == 1.0:
        return (0.0,) * J + (1.0,)
    a, b = lam.as_integer_ratio()
    odds = (b + a) / (b - a)  # c1/c0 rounded once, so the walk's bias is half an ulp a step
    ratios = [(J - j) * (2 * j + 3) / ((2 * j + 1) * (J + j + 2)) * odds * (s0[j + 1] / s0[j]) for j in range(J)]
    k = sum(ratio > 1.0 for ratio in ratios)
    down = list(itertools.accumulate(reversed(ratios[:k]), operator.truediv, initial=1.0))
    up = list(itertools.accumulate(ratios[k:], operator.mul, initial=1.0))
    # each side of the mode smallest row first: fsum is slow here and sum() rounds anew from Python 3.12
    total = functools.reduce(operator.add, itertools.chain(reversed(down), reversed(up[1:])))
    return tuple(p / total for p in itertools.chain(reversed(down[1:]), up))


def block_probability(n: int, lam: float, j: int) -> float:
    """Probability that n copies with Bloch length lam land in total spin j: row j of the spectrum's walk.
    Each call walks all n/2 + 1 rows, so a caller that reads them row by row takes ``block_spectrum`` once."""
    if not 0 <= j <= n // 2:
        raise ValueError(f"total spin must lie in 0..{n // 2}, got {j}")
    return _probabilities(n, lam)[j]


def _bloch_limit_j0(lam: float) -> float:
    # continuous j -> 0 limit of delta_j, by its series where the closed form cancels
    if lam < 1e-2:
        l2 = lam * lam
        return lam * (2.0 / 3.0 + l2 * (2.0 / 15.0 + 2.0 * l2 / 35.0))
    if lam == 1.0:
        return 1.0
    return 1.0 / lam - (1.0 - lam * lam) * math.atanh(lam) / lam**2


def block_fidelity(lam: float, j: int) -> float:
    """Fidelity (1 + delta_j)/2 of each kept qubit after the spin-j measurement outcome.

    j = 0 keeps no qubits; the continuous j -> 0 limit returned there is a
    convention, above the 1/2 that any channel achieves on that outcome.
    """
    if j < 0:
        raise ValueError("total spin j must be nonnegative")
    return (1.0 + _prefix_sums(lam, j)[1][j]) / 2.0


def _stirling_error(x: int) -> float:
    """lgamma(x + 1) - ((x + 1/2) log x - x + log(2 pi)/2), for x >= 1."""
    if x < 16:
        return math.lgamma(x + 1) - (x + 0.5) * math.log(x) + x - _HALF_LOG_2PI
    r = 1.0 / (x * x)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r / 1680))) / x  # error below 1.2e-14


def _log_factorial_gap(a: int, b: int) -> float:
    """log(a! / b!) + (b - a) log a for a >= 1, b >= 0, without the cancellation
    of its two terms: -bd0(b, a) - log(b/a)/2 plus Stirling errors, where
    bd0(b, a) = b log(b/a) + a - b comes from Loader's series near b = a."""
    if b == 0:  # the limit of the form below, whose log(b/a) diverges
        return 0.5 * math.log(a) - a + _HALF_LOG_2PI + _stirling_error(a)
    t = b - a
    v = t / (a + b)
    if abs(v) < 0.1:
        bd0, last, term, j = t * v, None, 2 * b * v, 1  # t v + 2b sum_i v^(2i+1) / (2i+1)
        while bd0 != last:
            term, j = term * v * v, j + 2
            last, bd0 = bd0, bd0 + term / j
    else:
        bd0 = b * math.log(b / a) - t
    return -bd0 - 0.5 * math.log(b / a) + _stirling_error(a) - _stirling_error(b)


def _printable_digits() -> int:
    """D, the most digits of a d_j printed exactly: 4,300, or Python's int-to-str limit where that is lower."""
    return min(getattr(sys, "get_int_max_str_digits", int)() or 4300, 4300)  # 0 is no limit, as before Python had one


def _scientific(log10: float) -> str:
    """<mantissa>e<exponent> of 10**log10 with only the digits that a float logarithm fixes."""
    exponent = math.floor(log10)
    # the log is off by a few units in its last place, ln(10) times that relative error in the mantissa, so round to
    # the places in which that error is under half a unit: the exact count is within one unit of the last printed digit
    mantissa = round(10 ** (log10 - exponent), math.floor(-math.log10(400 * math.ulp(log10))))
    if mantissa == 10:  # 9.99...95 and up rounds into the next decade
        mantissa, exponent = 1.0, exponent + 1
    return f"{mantissa!r}e{exponent}"


def _exact_walk(n: int, big: int, low: int = 0):
    """(j, d_j) for j = J, J-1, ..., low, d_j = C(n, k)(2j+1)/(J+j+1) walked up from d_J = 1 by C(n, k+1) =
    C(n, k)(n-k)/(k+1), k = J-j: an int below ``big``, else None, as is every row once C(n, k) reaches (J+1) big
    (d_j >= C(n, k)/(J+1), and C(n, k) grows up to k = J), where the walk stops and sets C(n, k) to 0."""
    J, comb, stop = n // 2, 1, (n // 2 + 1) * big
    for k in range(J - low + 1):
        d = comb * (2 * (J - k) + 1) // (2 * J - k + 1) if comb else big
        yield J - k, d if d < big else None
        comb = comb * (n - k) // (k + 1) if comb < stop else 0


SpectrumRow = namedtuple("SpectrumRow", "j multiplicity probability fidelity")


class BlockSpectrum(namedtuple("BlockSpectrum", "n lam probabilities bloch_lengths")):
    """Per-j columns of block probability and the kept qubit's Bloch length delta_j, as tuples."""

    __slots__ = ()

    @property
    def multiplicities(self) -> tuple[int | str, ...]:
        """d_j on each read, for ``stats``: ``_exact_walk``'s int, or past 10^D the text ``_scientific`` makes of
        log d_j = gap(J, J-j) + gap(J, J+j) - gap(J, n) - gap(J, 0) + log((2j+1)/(J+j+1)), gap = _log_factorial_gap."""
        n, J, gap = self.n, self.n // 2, _log_factorial_gap
        rest, mults = gap(J, n) + gap(J, 0), []
        for j, d in _exact_walk(n, 10 ** _printable_digits()):
            if d is None:
                log_d = gap(J, J - j) + gap(J, J + j) - rest + math.log((2 * j + 1) / (J + j + 1))
                d = _scientific(log_d / math.log(10))
            mults.append(d)
        return tuple(reversed(mults))

    def copies(self) -> tuple[int, ...]:
        """The exact d_j of each row a trial can draw (p_j > 0) and 0 for the rest, walked only down to the lowest
        such row; SizeLimitError if one has more than D = _printable_digits() digits.  Trial dumps read them."""
        probs, digits = self.probabilities, _printable_digits()
        low = next(j for j, p in enumerate(probs) if p)
        copies = [d if probs[j] else 0 for j, d in _exact_walk(self.n, 10**digits, low)]
        if None in copies:
            raise SizeLimitError(f"a trial dump at n={self.n} may draw an alpha of more than {digits} digits")
        return (0,) * low + tuple(reversed(copies))

    @property
    def fidelities(self) -> tuple[float, ...]:
        """The kept qubit's fidelity f_j = (1 + delta_j)/2, built on each read."""
        return tuple((1.0 + delta) / 2.0 for delta in self.bloch_lengths)

    @property
    def rows(self) -> tuple[SpectrumRow, ...]:
        """The columns as (j, d_j, p_j, f_j) rows, built on each read."""
        return tuple(map(SpectrumRow, itertools.count(), self.multiplicities, self.probabilities, self.fidelities))

    def total(self) -> float:
        """The fsum of the p_j, which every average divides by."""
        return math.fsum(self.probabilities)

    def bloch_average(self, weights) -> float:
        """sum_j p_j w_j delta_j / total() for weights w_0, w_1, ...; every fidelity average is 1/2 + 1/2 of one."""
        return math.fsum(p * w * d for p, w, d in zip(self.probabilities, weights, self.bloch_lengths)) / self.total()


def block_spectrum(n: int, lam: float) -> BlockSpectrum:
    """The float (j, p_j, delta_j) columns for a register of n qubits; the d_j are built only when read."""
    probs = _probabilities(n, lam)  # first, so a bad n or lam is refused before any build
    return BlockSpectrum(n, lam, probs, _prefix_sums(lam, n // 2)[1])


def yield_factor(n: int, lam: float) -> float:
    """Expected fraction of qubits kept by the block measurement, over the fsum of the p_j."""
    spect = block_spectrum(n, lam)
    J = n // 2
    return math.fsum(p * j / J for j, p in enumerate(spect.probabilities)) / spect.total()


def mean_fidelity(n: int, lam: float) -> float:
    """Probability-weighted kept-qubit fidelity: 1/2 + 1/2 the bloch_average with w_j = 1.

    The spin-0 outcome, which keeps no qubits, is scored at the continuity value
    block_fidelity(lam, 0), a convention shared with simulate's fidelity_target and
    run_protocol_dense that lifts the average p_0 (f_0 - 1/2) above the best over all channels.
    """
    return 0.5 + 0.5 * block_spectrum(n, lam).bloch_average(itertools.repeat(1.0))


def yield_asymptote(n: int, lam: float) -> float:
    """Large-N approximation of yield_factor: lam + (1 - lam)/(n lam).

    There is no power-law remainder: yield_factor minus this value is two
    binomial tails, the Binomial(n, c0) mass above n/2 and the Binomial(n, c1)
    mass below it, so it falls exponentially in n.
    """
    if lam <= 0.0:
        raise ValueError("asymptote requires lam > 0")
    return lam + (1.0 - lam) / (n * lam)


def mean_fidelity_asymptote(n: int, lam: float) -> float:
    """Large-N approximation of mean_fidelity: 1 - (1 - lam)/(2 n lam^2).

    The leading terms of a series in 1/(n lam^2); the next term is
    -(1 - lam)^2/(2 n^2 lam^3), and exponentially small binomial tails
    come on top.
    """
    if lam <= 0.0:
        raise ValueError("asymptote requires lam > 0")
    return 1.0 - (1.0 - lam) / (2.0 * n * lam * lam)
