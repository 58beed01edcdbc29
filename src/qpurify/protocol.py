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
    histogram: dict[int, int]
    label_histogram: dict[tuple[int, int], int]
    outcomes: list[OutcomeRecord] | None = field(default=None, compare=False)


def _standard_error(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


def _summarize(
    q: MixedQubit,
    n: int,
    trials: int,
    seed: int,
    mode: str,
    js: np.ndarray,
    alphas: list[int],
    fidelities: np.ndarray,
    keep_outcomes: bool,
) -> SimulationSummary:
    J = n // 2
    yields = 2.0 * js / n
    counts = np.bincount(js, minlength=J + 1)
    label_hist: dict[tuple[int, int], int] = {}
    for jv, av in zip(js, alphas):
        key = (int(jv), int(av))
        label_hist[key] = label_hist.get(key, 0) + 1
    outcomes = None
    if keep_outcomes:
        outcomes = [
            OutcomeRecord(t, int(jv), int(av), int(2 * jv), float(fv))
            for t, (jv, av, fv) in enumerate(zip(js, alphas, fidelities))
        ]
    return SimulationSummary(
        n=n,
        lam=q.lam,
        trials=trials,
        seed=seed,
        mode=mode,
        empirical_yield=float(np.mean(yields)),
        yield_se=_standard_error(yields),
        empirical_mean_fidelity=float(np.mean(fidelities)),
        fidelity_se=_standard_error(fidelities),
        histogram={j: int(c) for j, c in enumerate(counts)},
        label_histogram=dict(sorted(label_hist.items())),
        outcomes=outcomes,
    )


def run_protocol(
    q: MixedQubit, n: int, trials: int, seed: int, keep_outcomes: bool = False
) -> SimulationSummary:
    """Sample the protocol outcome distribution from the closed forms.

    Each trial draws the total spin j with its block probability and the
    copy index alpha uniformly among the d_j copies; the kept-qubit count
    2j and their fidelity follow deterministically.  Results are
    bit-reproducible for a given seed.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    spect = analytics.block_spectrum(n, q.lam)
    probs = spect.probabilities()
    probs = probs / probs.sum()
    fids = spect.fidelities()
    mults = spect.multiplicities()

    rng = np.random.Generator(np.random.Philox(seed))
    js = rng.choice(len(probs), size=trials, p=probs)
    # exact uniform copy indices even when d_j exceeds 64-bit range
    alpha_rng = pyrandom.Random(int(rng.integers(0, 2**63)))
    alphas = [alpha_rng.randrange(mults[jv]) + 1 for jv in js]
    return _summarize(q, n, trials, seed, "fast", js, alphas, fids[js], keep_outcomes)


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
    states depend only on the block label, so they are computed once per
    label and reused across trials.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    basis = build_schur_basis(n, cap)
    coords = block_coordinates(basis, kron_power(density_matrix(q), n, cap))
    target = qubit_eigenstates(q)[0]
    labels = basis.labels()

    probs = np.zeros(len(labels))
    fids = np.zeros(len(labels))
    for i, label in enumerate(labels):
        block = coords[label.j][label.alpha - 1]
        prob = float(np.trace(block).real)
        probs[i] = max(prob, 0.0)
        if prob < _PROB_FLOOR:
            continue  # never sampled; probability renormalizes to zero
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

    rng = np.random.Generator(np.random.Philox(seed))
    picks = rng.choice(len(labels), size=trials, p=probs / probs.sum())
    label_j = np.array([label.j for label in labels])
    label_alpha = [label.alpha for label in labels]
    js = label_j[picks]
    alphas = [label_alpha[i] for i in picks]
    return _summarize(q, n, trials, seed, "dense", js, alphas, fids[picks], keep_outcomes)


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
