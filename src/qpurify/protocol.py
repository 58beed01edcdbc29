"""Monte Carlo simulation of the block-measurement purification protocol.

Two paths give the same outcome distribution: a fast one that samples the
closed-form probabilities directly (usable for hundreds of qubits), and a
dense one that runs the measurement on explicit matrices for registers
within the cap.
"""

from __future__ import annotations

import math
import os
import random as pyrandom
from dataclasses import dataclass, field

import numpy as np

from . import analytics
from .blocks import _PROB_FLOOR, block_coordinates, build_schur_basis, dicke_rows
from .core import (
    MixedQubit,
    density_matrix,
    kron_power,
    partial_trace,
    qubit_eigenstates,
    state_fidelity,
)


@dataclass(frozen=True)
class OutcomeRecord:
    """One protocol run: the sampled block and resulting kept-qubit data."""

    trial: int
    j: int
    alpha: int
    kept_qubits: int
    fidelity: float


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
    outcomes: list[OutcomeRecord] | None = field(default=None, compare=False)


def _moments(counts: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of a sample holding values[i] counts[i] times."""
    trials = int(counts.sum())
    mean = math.fsum(counts * values) / trials
    variance = math.fsum(counts * (values - mean) ** 2) / max(trials - 1, 1)
    return mean, math.sqrt(variance / trials)


def _simulate(
    q: MixedQubit,
    n: int,
    trials: int,
    seed: int,
    keep_outcomes: bool,
    mode: str,
    outcome: tuple[np.ndarray, np.ndarray, np.ndarray],
    alphas,
    labels=(),
) -> SimulationSummary:
    """Draw the counts of all outcomes in one multinomial and reduce them exactly.

    Outcome i has spin, probability and fidelity ``outcome[k][i]``; ``alphas(rng,
    order)`` gives the copy index of each outcome listed in ``order``."""
    if not 1 <= trials < 2**63:
        raise ValueError(f"trials must lie in 1..2**63 - 1, got {trials}")
    js, probs, fids = outcome
    rng = np.random.Generator(np.random.Philox(seed))
    counts = rng.multinomial(trials, probs / probs.sum())
    outcomes = None
    if keep_outcomes:  # drawn after the counts, so the summary stays the same
        order = rng.permutation(np.repeat(np.arange(len(counts)), counts)).tolist()
        j_of, fid_of = js.tolist(), fids.tolist()
        outcomes = [
            OutcomeRecord(t, j_of[i], alpha, 2 * j_of[i], fid_of[i])
            for t, (i, alpha) in enumerate(zip(order, alphas(rng, order)))
        ]
    empirical_yield, yield_se = _moments(counts, 2.0 * js / n)
    empirical_fidelity, fidelity_se = _moments(counts, fids)
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
    also gets a copy index alpha, uniform among its d_j copies.  Results
    are bit-reproducible for a given seed.
    """
    spect = analytics.block_spectrum(n, q.lam)
    probs = spect.probabilities()
    mults = spect.multiplicities()

    def alphas(rng, order):
        # exact uniform copy indices even when d_j exceeds 64-bit range
        alpha_rng = pyrandom.Random(int(rng.integers(0, 2**63)))
        return [alpha_rng.randrange(mults[j]) + 1 for j in order]

    outcome = (np.arange(len(probs)), probs, spect.fidelities())
    return _simulate(q, n, trials, seed, keep_outcomes, "fast", outcome, alphas)


def run_protocol_dense(
    q: MixedQubit,
    n: int,
    trials: int,
    seed: int,
    keep_outcomes: bool = False,
    cap: int | None = None,
) -> SimulationSummary:
    """Run the protocol on explicit matrices.

    The tensor power of the input is built once and read in block
    coordinates: the trace of a copy's block B is its probability, and
    after relabelling it as the first copy and discarding the singlet
    pairs, the 2j kept qubits are in D^T B D for the Dicke rows D.  Outcome
    states depend only on the block label, so the (j, alpha) label counts
    come from one multinomial draw over the block traces.
    """
    basis = build_schur_basis(n, cap)
    coords = block_coordinates(basis, kron_power(density_matrix(q), n, cap))
    target = qubit_eigenstates(q)[0]
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
            rows = dicke_rows(label.j)
            state = rows.T @ (block / prob) @ rows
            kept = range(1, 2 * label.j + 1)
            fids[i] = float(
                np.mean([state_fidelity(partial_trace(state, [k]), target) for k in kept])
            )

    outcome = (np.array([label.j for label in labels]), probs, fids)
    alphas = lambda rng, order: [labels[i].alpha for i in order]
    return _simulate(q, n, trials, seed, keep_outcomes, "dense", outcome, alphas, labels)


def write_outcomes_csv(outcomes, dest) -> None:
    """Dump per-trial records as CSV rows ``trial,j,alpha,kept,fidelity``."""
    own = isinstance(dest, (str, os.PathLike))
    fh = open(dest, "w", encoding="utf-8", newline="") if own else dest
    try:
        fh.write("trial,j,alpha,kept,fidelity\n")
        for rec in outcomes:
            fh.write(
                f"{rec.trial},{rec.j},{rec.alpha},{rec.kept_qubits},{float(rec.fidelity)!r}\n"
            )
    finally:
        if own:
            fh.close()
