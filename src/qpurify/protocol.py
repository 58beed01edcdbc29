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
from array import array
from collections import namedtuple

from . import analytics
from .core import MixedQubit, _check_memory


_CHUNK = 1 << 14  # trials per chunk of copy indices and CSV text


def _log_binomial_ratio(n: int, p: float, m: int):
    """k -> log(b(k) / b(m)) for the Binomial(n, p) pmf b and 1 <= m < n.  Summed as gap(m, k) +
    gap(n - m, n - k) + (k - m) log1p((np - m) / (m (1 - p))) with np - m exact, it keeps about
    1e-14 relative accuracy up to n = 2**63 - 1, where lgamma differences are off by up to 5e4."""
    num, den = p.as_integer_ratio()
    c = math.log1p((n * num - m * den) / (m * (den - num)))
    return lambda k: analytics._log_factorial_gap(m, k) + analytics._log_factorial_gap(n - m, n - k) + (k - m) * c


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
    the outcome's copy index; in fast mode ``BlockSpectrum.copies``, d_j or 0 where
    it is never drawn, and the trials draw their copy indices in trial order, uniform
    in 1..d_j, from one ``random.Random(alpha_seed)``.  ``order`` is an ``array`` of
    the smallest unsigned typecode that indexes every outcome: 1 byte a
    trial up to 256 outcomes, 2 up to 65,536.  Its one reader is
    ``write_outcomes_csv``.
    """

    __slots__ = ("order", "js", "fids", "copies", "alpha_seed")

    def __init__(self, order: array, js: list[int], fids: list[float], copies: list[int], alpha_seed: int | None):
        self.order, self.js, self.fids, self.copies, self.alpha_seed = order, js, fids, copies, alpha_seed

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


def _moments(drawn: list[int], counts: list[int], value, probs: list[float], total: float) -> tuple[float, float]:
    """Mean and standard error of a sample holding value(i) counts[i] times, i in ``drawn`` (every counts[i] > 0).

    A sample on one value has no spread, which is no evidence of certainty:
    its standard error is then the one that the drawn distribution p =
    probs / total implies, sqrt(sum_i p_i (value(i) - mean_p)^2 / trials)
    over the outcomes with p_i > 0, and 0 only when all of them have that
    one value.  Only that fallback reads outcomes that were not drawn.
    """
    trials = sum(counts[i] for i in drawn)
    mean = math.fsum(counts[i] * value(i) for i in drawn) / trials
    if len({value(i) for i in drawn}) > 1:
        return mean, math.sqrt(math.fsum(counts[i] * (value(i) - mean) ** 2 for i in drawn) / (trials - 1) / trials)
    support = [(q, value(i)) for i, prob in enumerate(probs) if (q := prob / total) > 0]
    if len({v for _, v in support}) < 2:
        return mean, 0.0
    mean_p = math.fsum(q * v for q, v in support)
    return mean, math.sqrt(math.fsum(q * (v - mean_p) ** 2 for q, v in support) / trials)


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
    drawn = list(itertools.compress(range(len(counts)), counts))  # every count-weighted walk below reads these alone
    outcomes = None
    if keep_outcomes:  # drawn after the counts, so the summary stays the same
        code = _typecode(len(counts))
        order = array(code)
        for i in drawn:
            order += array(code, [i]) * counts[i]
        _shuffle(rng, memoryview(order))
        alpha_seed = rng.getrandbits(63) if mode == "fast" else None
        outcomes = TrialOutcomes(order, js, fids, copies, alpha_seed)
    total = math.fsum(probs)
    histogram = dict.fromkeys(range(n // 2 + 1), 0)
    for i in drawn:
        histogram[js[i]] += counts[i]
    yield_moments = _moments(drawn, counts, lambda i: 2.0 * js[i] / n, probs, total)
    fidelity_moments = _moments(drawn, counts, fids.__getitem__, probs, total)
    label_histogram = {(labels[i].j, labels[i].alpha): counts[i] for i in drawn} if labels else {}
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
    (SizeLimitError if that exceeds the available memory, or from
    ``BlockSpectrum.copies`` if an outcome with p_j > 0 has a d_j of more than
    D = 4,300 digits: past N = 14,298 for lam <= 0.3 and N = 15,596 at lam = 0.6).
    Results are bit-reproducible for a given seed; only the standard library runs.
    """
    _check_trials(trials, keep_outcomes, n // 2 + 1)
    spect = analytics.block_spectrum(n, q.lam)
    copies = spect.copies() if keep_outcomes else ()  # only a dump reads the d_j, for its copy indices
    outcome = (range(n // 2 + 1), spect.probabilities, spect.fidelities)
    return _simulate(n, trials, seed, keep_outcomes, "fast", outcome, copies)


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

    One chunk of trials at a time, the chunk's per-outcome ``%d,j,%d,kept,fidelity`` rows are joined and filled by
    one ``%`` with its trial numbers and copy indices, in fast mode ``randrange(d) + 1`` written out, exact for any d.
    An outcome of copies 0 is never drawn, so it gets no row and no (d, bit width) pair."""
    order, copies, bits = outcomes.order, outcomes.copies, None
    rows = [d and f"%d,{j},%d,{2 * j},{fid!r}\n" for j, fid, d in zip(outcomes.js, outcomes.fids, copies)]
    if outcomes.alpha_seed is not None:
        bits, pairs = random.Random(outcomes.alpha_seed).getrandbits, [d and (d, d.bit_length()) for d in copies]
    fh.write("trial,j,alpha,kept,fidelity\n")
    for start in range(0, len(order), _CHUNK):
        idx = order[start : start + _CHUNK].tolist()
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
        fields = itertools.chain.from_iterable(zip(range(start, start + len(idx)), alphas))
        fh.write("".join(map(rows.__getitem__, idx)) % tuple(fields))
