"""Monte Carlo simulation of the block-measurement purification protocol.

Two paths give the same outcome distribution: a fast one that samples the
closed-form probabilities directly (usable for hundreds of qubits), and a
dense one that runs the measurement on the blocks of the input's tensor
power for registers within the cap.
"""

from __future__ import annotations

import math
import os
import random as pyrandom
from dataclasses import dataclass, field

import numpy as np

from . import analytics, blocks
from .blocks import _PROB_FLOOR, build_schur_basis, density_matrix, dicke_power, power_coordinates, qubit_eigenstates
from .core import MixedQubit, SizeLimitError


_CHUNK = 1 << 16  # trials per chunk of copy indices and CSV text


@dataclass(frozen=True, eq=False)
class TrialOutcomes:
    """The per-trial outcomes of a simulation, held as its outcome order.

    Trial t fell on outcome ``order[t]``, which has spin ``js[i]`` and
    fidelity ``fids[i]``.  In dense mode ``copies[i]`` is the outcome's copy
    index; in fast mode it is the multiplicity d_j, and the trials draw
    their copy indices in trial order, uniform in 1..d_j, from one
    ``random.Random(alpha_seed)``.  ``order`` has the smallest unsigned
    dtype that indexes every outcome: 1 byte a trial up to 256 outcomes, 2
    up to 65,536.  Its one reader, ``write_outcomes_csv``, makes the rows a
    chunk at a time.
    """

    order: np.ndarray
    js: list[int]
    fids: list[float]
    copies: list[int]
    alpha_seed: int | None

    def _chunks(self):
        """(trial numbers, outcome indices, copy indices) of consecutive chunks."""
        draw = None if self.alpha_seed is None else pyrandom.Random(self.alpha_seed).randrange
        copies = self.copies
        for start in range(0, len(self.order), _CHUNK):
            idx = self.order[start : start + _CHUNK].tolist()
            if draw is None:
                alphas = [copies[i] for i in idx]
            else:  # exact uniform copy indices even when d_j exceeds 64-bit range
                alphas = [draw(copies[i]) + 1 for i in idx]
            yield range(start, start + len(idx)), idx, alphas

    def __len__(self) -> int:
        return len(self.order)


@dataclass
class SimulationSummary:
    """Aggregates of a simulation, reproducible from (n, lam, trials, seed)."""

    n: int
    lam: float
    trials: int
    seed: int
    mode: str
    empirical_yield: float
    yield_se: float
    empirical_mean_fidelity: float
    fidelity_se: float
    norm_defect: float  # sum of the outcome probabilities minus one; the draw divides it away
    histogram: dict[int, int]
    label_histogram: dict[tuple[int, int], int]  # (j, alpha) counts, dense mode only
    outcomes: TrialOutcomes | None = field(default=None, compare=False)


def _moments(counts: np.ndarray, values: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of a sample holding values[i] counts[i] times.

    A sample on one value has no spread, which is no evidence of certainty:
    its standard error is then the one that the drawn distribution p
    implies, sqrt(sum_i p_i (values[i] - mean_p)^2 / trials), and 0 only
    when every outcome p can draw has that one value.
    """
    trials = int(counts.sum())
    mean = math.fsum(counts * values) / trials
    if np.ptp(values[counts > 0]) > 0:
        variance = math.fsum(counts * (values - mean) ** 2) / (trials - 1)  # spread needs two trials
    elif np.ptp(values[p > 0]) > 0:
        variance = math.fsum(p * (values - math.fsum(p * values)) ** 2)
    else:
        variance = 0.0
    return mean, math.sqrt(variance / trials)


def _check_trials(trials: int, keep_outcomes: bool, outcomes: int) -> None:
    """Reject a trial count outside 1..2**63 - 1, or a per-trial outcome
    order over ``outcomes`` outcomes larger than the available memory."""
    if not 1 <= trials < 2**63:
        raise ValueError(f"trials must lie in 1..2**63 - 1, got {trials}")
    available = blocks._mem_available_bytes() if keep_outcomes else None
    size = trials * np.min_scalar_type(outcomes - 1).itemsize  # the dtype _simulate gives the order
    if available is not None and size > available:
        raise SizeLimitError(
            f"keeping {trials} trial outcomes needs about {size / 2**20:.3g} MiB, "
            f"more than the {available / 2**20:.3g} MiB available"
        )


def _simulate(
    q: MixedQubit,
    n: int,
    trials: int,
    seed: int,
    keep_outcomes: bool,
    mode: str,
    outcome: tuple[np.ndarray, np.ndarray, np.ndarray],
    copies: list[int],
    labels=(),
) -> SimulationSummary:
    """Draw the counts of all outcomes in one multinomial and reduce them exactly.

    Outcome i has spin, probability and fidelity ``outcome[k][i]``; ``copies``
    is as in ``TrialOutcomes``."""
    js, probs, fids = outcome
    rng = np.random.Generator(np.random.Philox(seed))
    p = probs / probs.sum()
    counts = rng.multinomial(trials, p)
    outcomes = None
    if keep_outcomes:  # drawn after the counts, so the summary stays the same
        order = np.repeat(np.arange(len(counts), dtype=np.min_scalar_type(len(counts) - 1)), counts)
        rng.shuffle(order)  # the draws of rng.permutation, without its copy
        alpha_seed = int(rng.integers(0, 2**63)) if mode == "fast" else None
        outcomes = TrialOutcomes(order, js.tolist(), fids.tolist(), copies, alpha_seed)
    empirical_yield, yield_se = _moments(counts, 2.0 * js / n, p)
    empirical_fidelity, fidelity_se = _moments(counts, fids, p)
    return SimulationSummary(
        n=n,
        lam=q.lam,
        trials=trials,
        seed=seed,
        mode=mode,
        empirical_yield=empirical_yield,
        yield_se=yield_se,
        empirical_mean_fidelity=empirical_fidelity,
        fidelity_se=fidelity_se,
        norm_defect=math.fsum(probs) - 1.0,
        histogram={j: int(c) for j, c in enumerate(np.bincount(js, counts, n // 2 + 1))},
        label_histogram={(lab.j, lab.alpha): int(c) for lab, c in zip(labels, counts) if c},
        outcomes=outcomes,
    )


def run_protocol(
    q: MixedQubit, n: int, trials: int, seed: int, keep_outcomes: bool = False
) -> SimulationSummary:
    """Sample the protocol outcome distribution from the closed forms.

    The post-measurement state depends only on the total spin j, so one
    multinomial draw of the j counts gives every average exactly, at a cost
    that does not grow with ``trials``.  With ``keep_outcomes`` each trial
    also gets a copy index alpha, uniform among its d_j copies, and
    ``outcomes`` holds 1 byte a trial up to N = 510 and 2 bytes up to
    N = 131,070 (SizeLimitError if that exceeds the available memory).
    Results are bit-reproducible for a given seed.
    """
    _check_trials(trials, keep_outcomes, n // 2 + 1)
    spect = analytics.block_spectrum(n, q.lam)
    probs = spect.probabilities()
    outcome = (np.arange(len(probs)), probs, spect.fidelities())
    return _simulate(q, n, trials, seed, keep_outcomes, "fast", outcome, spect.multiplicities())


def run_protocol_dense(
    q: MixedQubit,
    n: int,
    trials: int,
    seed: int,
    keep_outcomes: bool = False,
) -> SimulationSummary:
    """Run the protocol on the blocks of the input's tensor power.

    The blocks come from ``power_coordinates``: the trace of a copy's
    block B is its probability, and after relabelling it as the first copy
    and discarding the singlet pairs, the 2j kept qubits are B in Dicke
    coordinates.  In the eigenbasis of the input, W B W^H for W =
    dicke_power of the basis change, diagonal entry k is the weight of k
    aligned qubits, so the mean kept-qubit fidelity is <k> / 2j.  Outcome
    states depend only on the block label, so the (j, alpha) label counts
    come from one multinomial draw over the block traces.
    """
    blocks._check_dense(n)  # before C(n, n/2), which takes seconds at a million qubits
    _check_trials(trials, keep_outcomes, math.comb(n, n // 2))
    basis = build_schur_basis(n)
    coords = power_coordinates(basis, density_matrix(q))
    aligned, anti = qubit_eigenstates(q)
    to_eigenbasis = {j: dicke_power(np.vstack([anti, aligned]).conj(), j) for j in coords}
    labels = basis.labels()

    probs = np.zeros(len(labels))
    fids = np.zeros(len(labels))
    for i, label in enumerate(labels):
        block = coords[label.j][label.alpha - 1]
        prob = float(np.trace(block).real)
        if prob < _PROB_FLOOR:
            continue  # never drawn: its probability stays zero
        probs[i] = prob
        if label.j == 0:
            # nothing kept; use the continuity value so averages stay
            # comparable with the fast path
            fids[i] = analytics.block_fidelity(q.lam, 0)
        else:
            w = to_eigenbasis[label.j]
            aligned_counts = (w @ block @ w.conj().T).diagonal().real
            fids[i] = float(np.arange(2 * label.j + 1) @ aligned_counts) / (2 * label.j * prob)

    outcome = (np.array([label.j for label in labels]), probs, fids)
    copies = [label.alpha for label in labels]
    return _simulate(q, n, trials, seed, keep_outcomes, "dense", outcome, copies, labels)


def write_outcomes_csv(outcomes: TrialOutcomes, dest) -> None:
    """Dump per-trial outcomes as CSV rows ``trial,j,alpha,kept,fidelity``.

    The text is built and written one chunk of trials at a time, from
    per-outcome ``,j,`` and ``,kept,fidelity`` strings."""
    head = [f",{j}," for j in outcomes.js]
    tail = [f",{2 * j},{fid!r}\n" for j, fid in zip(outcomes.js, outcomes.fids)]
    own = isinstance(dest, (str, os.PathLike))
    fh = open(dest, "w", encoding="utf-8", newline="") if own else dest
    try:
        fh.write("trial,j,alpha,kept,fidelity\n")
        for trials, idx, alphas in outcomes._chunks():
            fh.write("".join([f"{t}{head[i]}{a}{tail[i]}" for t, i, a in zip(trials, idx, alphas)]))
    finally:
        if own:
            fh.close()
