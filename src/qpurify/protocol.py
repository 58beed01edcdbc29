"""Monte Carlo simulation of the block-measurement purification protocol.

Two paths give the same outcome distribution: a fast one that samples the
closed-form probabilities directly (any register size the closed forms
serve), and a dense one that runs the measurement on the blocks of the
input's tensor power for registers within the cap.  Both draw from one
``random.Random(seed)`` through one exact multinomial sampler, so the
fast path needs only the standard library; the dense path imports numpy
when it runs.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from array import array
from collections import namedtuple

from . import analytics
from .core import MixedQubit, SizeLimitError, _check_memory


_CHUNK = 1 << 14  # trials per chunk of copy indices and CSV text
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


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


def _log_binomial_ratio(n: int, p: float, m: int):
    """k -> log(b(k) / b(m)) for the Binomial(n, p) pmf b and 1 <= m < n.  Summed as gap(m, k) +
    gap(n - m, n - k) + (k - m) log1p((np - m) / (m (1 - p))) with np - m exact, it keeps about
    1e-14 relative accuracy up to n = 2**63 - 1, where lgamma differences are off by up to 5e4."""
    num, den = p.as_integer_ratio()
    c = math.log1p((n * num - m * den) / (m * (den - num)))
    return lambda k: _log_factorial_gap(m, k) + _log_factorial_gap(n - m, n - k) + (k - m) * c


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """One exact Binomial(n, p) draw for 0 <= p <= 1 and any n >= 0: Devroye's geometric
    method (O(np) draws) below np = 10, else Hormann's BTRS (J. Stat. Comput. Simul. 46, 101
    (1993)) centred on the exact integer mode, so it resolves single counts at n = 2**63."""
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)  # 1 - p is exact here
    if n * p < 10:
        c, x, y = math.log1p(-p), 0, 0
        if not c:
            return 0
        while (gap := math.log(1.0 - rng.random()) / c) < n - y:  # gap may be inf where p underflows
            x, y = x + 1, y + math.floor(gap) + 1
        return x
    num, den = p.as_integer_ratio()
    m = (n + 1) * num // den  # the mode
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = (n * num - m * den) / den + 0.5  # np + 1/2 - m
    vr, alpha, log_ratio = 0.92 - 4.2 / b, (2.83 + 5.1 / b) * spq, None
    while True:
        u = (rng.getrandbits(52) + 0.5) / 2**52 - 0.5  # midpoints of a 2**-52 grid: us > 0 always
        us = 0.5 - abs(u)
        k = m + math.floor((2.0 * a / us + b) * u + c)
        if not 0 <= k <= n:
            continue
        v = 1.0 - rng.random()  # in (0, 1], so log(v) below is finite
        if us >= 0.07 and v <= vr:
            return k
        log_ratio = log_ratio or _log_binomial_ratio(n, p, m)
        if math.log(v * alpha / (a / (us * us) + b)) <= log_ratio(k):
            return k


def _multinomial(rng: random.Random, trials: int, probs: list[float]) -> list[int]:
    """Exact multinomial counts as conditional binomials, p_i over the suffix
    sum of p; the last positive outcome takes the remainder (its ratio is 1)
    and an outcome of probability 0 is never drawn."""
    tails = list(itertools.accumulate(reversed(probs)))[::-1]
    counts, left = [0] * len(probs), trials
    for i, (p, tail) in enumerate(zip(probs, tails)):
        if p and left:
            counts[i] = _binomial(rng, left, p / tail)
            left -= counts[i]
    return counts


def _shuffle(rng: random.Random, x: memoryview) -> None:
    """``rng.shuffle(x)`` as CPython runs it, without its Python call per swap: for i = len - 1 ... 1, swap
    x[i] with x[r], r = getrandbits((i + 1).bit_length()) drawn again while r > i.  Same draws, same state."""
    bits, n = rng.getrandbits, len(x)
    for k in range(n.bit_length(), 1, -1):  # i + 1 has k bits for i in 2**(k-1) - 1 .. 2**k - 2
        for i in range(min(n, (1 << k) - 1) - 1, (1 << k - 1) - 2, -1):
            r = bits(k)
            while r > i:
                r = bits(k)
            x[i], x[r] = x[r], x[i]


def _typecode(outcomes: int) -> str:
    """The smallest unsigned array typecode that indexes ``outcomes`` outcomes."""
    return next(code for code in "BHIL" if outcomes <= 1 << 8 * array(code).itemsize)


class TrialOutcomes:
    """The per-trial outcomes of a simulation, held as its outcome order.

    Trial t fell on outcome i = ``order[t]``, which has spin ``js[i]`` and
    fidelity ``fids[i]``; ``order`` is the drawn counts laid out by outcome
    and shuffled in place by ``_shuffle``.  In dense mode ``copies[i]`` is
    the outcome's copy index; in fast mode it is the multiplicity d_j, and
    the trials draw their copy indices in trial order, uniform in 1..d_j,
    from one ``random.Random(alpha_seed)``.  ``order`` is an ``array`` of
    the smallest unsigned typecode that indexes every outcome: 1 byte a
    trial up to 256 outcomes, 2 up to 65,536.  Its one reader,
    ``write_outcomes_csv``, makes the rows a chunk at a time.
    """

    __slots__ = ("order", "js", "fids", "copies", "alpha_seed")

    def __init__(self, order: array, js: list[int], fids: list[float], copies: list[int], alpha_seed: int | None):
        self.order, self.js, self.fids, self.copies, self.alpha_seed = order, js, fids, copies, alpha_seed

    def _chunks(self):
        """(trial numbers, outcome indices, copy indices) of consecutive chunks; a copy
        index is ``randrange(d) + 1`` written out, exact for any d."""
        copies, bits = self.copies, None
        if self.alpha_seed is not None:
            bits, pairs = random.Random(self.alpha_seed).getrandbits, [(d, d.bit_length()) for d in copies]
        for start in range(0, len(self.order), _CHUNK):
            idx = self.order[start : start + _CHUNK].tolist()
            if bits is None:
                alphas = [copies[i] for i in idx]
            else:
                alphas = []
                for i in idx:
                    d, w = pairs[i]
                    r = bits(w)
                    while r >= d:
                        r = bits(w)
                    alphas.append(r + 1)
            yield range(start, start + len(idx)), idx, alphas

    def __len__(self) -> int:
        return len(self.order)


class SimulationSummary(
    namedtuple(
        "SimulationSummary",
        "trials mode empirical_yield yield_se empirical_mean_fidelity fidelity_se norm_defect histogram "
        "label_histogram outcomes",
        defaults=(None,),
    )
):
    """Aggregates of a simulation, reproducible from the run's (n, lam, trials, seed).

    ``norm_defect`` is the sum of the outcome probabilities minus one, which
    the draw divides away; ``label_histogram`` holds (j, alpha) counts in
    dense mode only.  ``==`` compares these aggregates, not the per-trial
    ``outcomes``.
    """

    __slots__ = ()

    def __eq__(self, other):
        return self[:-1] == other[:-1] if isinstance(other, SimulationSummary) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal


def _moments(counts: list[int], values: list[float], p: list[float]) -> tuple[float, float]:
    """Mean and standard error of a sample holding values[i] counts[i] times.

    A sample on one value has no spread, which is no evidence of certainty:
    its standard error is then the one that the drawn distribution p
    implies, sqrt(sum_i p_i (values[i] - mean_p)^2 / trials), and 0 only
    when every outcome p can draw has that one value.
    """
    trials = sum(counts)
    mean = math.fsum(c * v for c, v in zip(counts, values)) / trials
    if len({v for c, v in zip(counts, values) if c}) > 1:
        variance = math.fsum(c * (v - mean) ** 2 for c, v in zip(counts, values)) / (trials - 1)
    elif len({v for v, q in zip(values, p) if q > 0}) > 1:
        mean_p = math.fsum(q * v for q, v in zip(p, values))
        variance = math.fsum(q * (v - mean_p) ** 2 for q, v in zip(p, values))
    else:
        variance = 0.0
    return mean, math.sqrt(variance / trials)


def _check_trials(trials: int, keep_outcomes: bool, outcomes: int) -> None:
    """Reject a trial count outside 1..2**63 - 1, or a per-trial outcome
    order over ``outcomes`` outcomes larger than the available memory."""
    if not 1 <= trials < 2**63:
        raise ValueError(f"trials must lie in 1..2**63 - 1, got {trials}")
    if keep_outcomes:
        _check_memory(trials * array(_typecode(outcomes)).itemsize, f"keeping {trials} trial outcomes")


def _simulate(
    n: int, trials: int, seed: int, keep_outcomes: bool, mode: str, outcome, copies, labels=()
) -> SimulationSummary:
    """Draw the counts of all outcomes in one multinomial and reduce them exactly.

    Outcome i has spin, probability and fidelity ``outcome[k][i]``; ``copies``
    is as in ``TrialOutcomes``."""
    js, probs, fids = outcome
    rng = random.Random(seed)
    counts = _multinomial(rng, trials, probs)
    outcomes = None
    if keep_outcomes:  # drawn after the counts, so the summary stays the same
        code = _typecode(len(counts))
        order = array(code)
        for i, c in enumerate(counts):
            order += array(code, [i]) * c
        _shuffle(rng, memoryview(order))
        alpha_seed = rng.getrandbits(63) if mode == "fast" else None
        outcomes = TrialOutcomes(order, js, fids, copies, alpha_seed)
    total = math.fsum(probs)
    p = [prob / total for prob in probs]
    histogram = dict.fromkeys(range(n // 2 + 1), 0)
    for j, c in zip(js, counts):
        histogram[j] += c
    yield_moments = _moments(counts, [2.0 * j / n for j in js], p)
    fidelity_moments = _moments(counts, fids, p)
    label_histogram = {(lab.j, lab.alpha): c for lab, c in zip(labels, counts) if c}
    return SimulationSummary(
        trials, mode, *yield_moments, *fidelity_moments, total - 1.0, histogram, label_histogram, outcomes
    )


def run_protocol(
    q: MixedQubit, n: int, trials: int, seed: int, keep_outcomes: bool = False
) -> SimulationSummary:
    """Sample the protocol outcome distribution from the closed forms.

    The post-measurement state depends only on the total spin j, so one
    multinomial draw of the j counts gives every average exactly, at a cost
    that does not grow with ``trials``.  With ``keep_outcomes`` each trial
    also gets a copy index alpha, uniform among its d_j copies, and
    ``outcomes`` holds 1 byte a trial up to N = 510 and 2 bytes beyond
    (SizeLimitError if that exceeds the available memory, or if an outcome
    with p_j > 0 has a d_j past ``sys.get_int_max_str_digits()`` digits:
    at the default 4,300, past N = 14,298 for lam <= 0.3 and N = 15,596 at
    lam = 0.6).  Results are bit-reproducible for a given seed; only the
    standard library runs.
    """
    _check_trials(trials, keep_outcomes, n // 2 + 1)
    spect = analytics.block_spectrum(n, q.lam)
    digits = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, where Python predates the limit
    drawable = (d for d, p in zip(spect.multiplicities, spect.probabilities) if p)  # _multinomial never draws p = 0
    if keep_outcomes and digits and max(drawable) >= 10**digits:
        raise SizeLimitError(f"a trial dump at n={n} may draw an alpha past Python's {digits}-digit int-to-str limit")
    outcome = (range(n // 2 + 1), spect.probabilities, spect.fidelities)
    return _simulate(n, trials, seed, keep_outcomes, "fast", outcome, spect.multiplicities)


def run_protocol_dense(
    q: MixedQubit, n: int, trials: int, seed: int, keep_outcomes: bool = False
) -> SimulationSummary:
    """Run the protocol on the blocks of the input's tensor power.

    The blocks come from ``power_coordinates``: a copy's trace is its
    probability, 0 below ``blocks._PROB_FLOOR``, where it is never drawn.
    Every copy of spin j holds one kept state, so the spin is scored once,
    on the sum B of its blocks: the 2j kept qubits are B in Dicke
    coordinates, and diagonal entry k of W B W^H, W = dicke_power of the
    change to the input's eigenbasis, weighs k aligned qubits.  Every copy
    gets that diagonal's <k> / 2j, or 0.0 if none of the spin's copies can
    be drawn.  One multinomial draw over the traces gives the (j, alpha) counts.
    """
    import numpy as np

    from . import blocks

    blocks._check_dense(n)  # before C(n, n/2), which takes seconds at a million qubits
    _check_trials(trials, keep_outcomes, math.comb(n, n // 2))
    basis = blocks.build_schur_basis(n)
    coords = blocks.power_coordinates(basis, blocks.density_matrix(q))
    aligned, anti = blocks.qubit_eigenstates(q)
    to_eigenbasis = np.vstack([anti, aligned]).conj()
    probs, fids = [], []
    for j in basis.j_values():
        traces = np.trace(coords[j], axis1=1, axis2=2).real
        drawn = traces >= blocks._PROB_FLOOR
        probs += np.where(drawn, traces, 0.0).tolist()  # a floored copy's probability stays zero
        if not drawn.any():
            fid = 0.0
        elif j == 0:  # nothing kept: the continuity value keeps averages comparable with the fast path
            fid = analytics.block_fidelity(q.lam, 0)
        else:
            w = blocks.dicke_power(to_eigenbasis, j)
            weights = (w @ coords[j].sum(axis=0) @ w.conj().T).diagonal().real
            fid = float(np.arange(2 * j + 1) @ weights / (2 * j * weights.sum()))
        fids += [fid] * len(traces)

    labels = basis.labels()
    outcome = ([label.j for label in labels], probs, fids)
    copies = [label.alpha for label in labels]
    return _simulate(n, trials, seed, keep_outcomes, "dense", outcome, copies, labels)


def write_outcomes_csv(outcomes: TrialOutcomes, fh) -> None:
    """Dump per-trial outcomes to the open text file ``fh`` as CSV rows ``trial,j,alpha,kept,fidelity``.

    The text is built and written one chunk of trials at a time: the chunk's per-outcome
    ``%d,j,%d,kept,fidelity`` rows joined, then one ``%`` over its trial numbers and copy indices."""
    rows = [f"%d,{j},%d,{2 * j},{fid!r}\n" for j, fid in zip(outcomes.js, outcomes.fids)]
    fh.write("trial,j,alpha,kept,fidelity\n")
    for trials, idx, alphas in outcomes._chunks():
        fh.write("".join(map(rows.__getitem__, idx)) % tuple(itertools.chain.from_iterable(zip(trials, alphas))))
