"""Command-line front end: tables, verification runs, simulations, curves.

Commands: ``stats``, ``verify``, ``simulate``, ``figure1``, ``clone``.
Exit codes are stable for CI use: 0 success, 1 verification/statistical
failure, 2 usage error.  All numeric output uses shortest round-trip
decimals so CSV files parse back losslessly.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import analytics, cloning, protocol
from .core import MixedQubit, SizeLimitError, haar_unitary, random_direction
from .oracle import (
    VerificationError,
    covariance_residual,
    default_tolerance,
    quadrature_check,
    reversibility_check,
    verify_decomposition,
)


class UsageError(ValueError):
    """Bad command-line configuration (exit code 2)."""


@dataclass
class RunConfig:
    """Validated per-command configuration."""

    command: str
    n: int | None = None
    m: float | None = None
    lams: tuple[float, ...] = ()
    trials: int = 0
    seed: int = 0
    tol: float | None = None
    out: str | None = None
    fmt: str = "csv"
    dense: bool = False
    plot: str | None = None
    dump_trials: str | None = None
    lines: list[str] = field(default_factory=list, repr=False)

    @property
    def delim(self) -> str:
        return "\t" if self.fmt == "tsv" else ","

    @property
    def lam(self) -> float:
        if len(self.lams) != 1:
            raise UsageError("this command takes a single --lambda value")
        return self.lams[0]

    def emit(self, line: str) -> None:
        self.lines.append(line)

    def flush(self) -> None:
        text = "".join(line + "\n" for line in self.lines)
        if self.out:
            with open(self.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _num(x) -> str:
    return repr(float(x))


def _parse_lambdas(raw: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in raw.split(","))
    except ValueError as exc:
        raise UsageError(f"could not parse --lambda value {raw!r}") from exc
    for value in values:
        if not 0.0 <= value <= 1.0:
            raise UsageError(f"--lambda values must lie in [0, 1], got {value}")
    return values


def _count(d: int) -> str:
    """An exact integer up to Python's int-to-str limit, <mantissa>e<exponent> above it."""
    try:
        return str(d)
    except ValueError:
        log = math.log10(d)
        return f"{_num(10 ** (log - math.floor(log)))}e{math.floor(log)}"


def _require_even(n: int | None) -> int:
    if n is None:
        raise UsageError("--n is required")
    if n < 2 or n % 2:
        raise UsageError(f"N must be even and positive, got {n}")
    return n


def cmd_stats(config: RunConfig) -> int:
    n = _require_even(config.n)
    lam = config.lam
    spect = analytics.block_spectrum(n, lam)
    d = config.delim
    config.emit(d.join(("j", "d_j", "p_j", "f_j")))
    for row in spect.rows:
        config.emit(d.join((str(row.j), _count(row.multiplicity), _num(row.probability), _num(row.fidelity))))
    config.emit(f"yield={_num(analytics.yield_factor(n, lam))}")
    config.emit(f"mean_fidelity={_num(analytics.mean_fidelity(n, lam))}")
    config.flush()
    return 0


def cmd_verify(config: RunConfig) -> int:
    n = _require_even(config.n)
    lam = config.lam
    tol = config.tol if config.tol is not None else default_tolerance(n)
    rng = np.random.Generator(np.random.Philox(config.seed))
    direction = random_direction(rng)
    q = MixedQubit(lam, direction)
    d = config.delim

    config.emit(
        f"# n={n} lambda={_num(lam)} direction=({_num(direction[0])},{_num(direction[1])},"
        f"{_num(direction[2])}) tol={_num(tol)} seed={config.seed}"
    )
    config.emit(d.join(("check", "label", "residual")))

    rows: list[tuple[str, str, float]] = []
    try:
        report = verify_decomposition(q, n, tol=tol)
    except VerificationError as exc:
        report = exc.report
    rows.extend(report.rows())

    for j in range(1, n // 2 + 1):
        rows.append(("quadrature", f"j={j}", quadrature_check(q, j)))

    for label in report.post_state_residuals:  # the outcomes whose post-state is defined
        rows.append(
            ("reversibility", f"j={label.j};alpha={label.alpha}", reversibility_check(q, n, label))
        )

    unitaries = [haar_unitary(rng) for _ in range(5)]
    rows.append(("covariance", "max_over_5_unitaries", covariance_residual(q, n, unitaries)))

    ok = True
    for check, label, residual in rows:
        config.emit(d.join((check, label, _num(residual))))
        ok = ok and residual < tol
    config.emit(f"status={'pass' if ok else 'fail'}")
    config.flush()
    return 0 if ok else 1


def cmd_simulate(config: RunConfig) -> int:
    n = _require_even(config.n)
    lam = config.lam
    keep = config.dump_trials is not None
    run = protocol.run_protocol_dense if config.dense else protocol.run_protocol
    try:
        summary = run(MixedQubit(lam), n, config.trials, config.seed, keep_outcomes=keep)
    except SizeLimitError:
        raise
    except ValueError as exc:  # the trial count, checked before any work
        raise UsageError(f"--{exc}") from exc
    if keep:
        protocol.write_outcomes_csv(summary.outcomes, config.dump_trials)

    yield_target = analytics.yield_factor(n, lam)
    fidelity_target = analytics.mean_fidelity(n, lam)
    yield_z = _z_score(summary.empirical_yield, yield_target, summary.yield_se)
    fidelity_z = _z_score(summary.empirical_mean_fidelity, fidelity_target, summary.fidelity_se)

    config.emit(f"n={n}")
    config.emit(f"lambda={_num(lam)}")
    config.emit(f"trials={config.trials}")
    config.emit(f"seed={config.seed}")
    config.emit(f"mode={summary.mode}")
    config.emit(f"empirical_yield={_num(summary.empirical_yield)}")
    config.emit(f"yield_se={_num(summary.yield_se)}")
    config.emit(f"yield_target={_num(yield_target)}")
    config.emit(f"yield_z={_num(yield_z)}")
    config.emit(f"empirical_mean_fidelity={_num(summary.empirical_mean_fidelity)}")
    config.emit(f"fidelity_se={_num(summary.fidelity_se)}")
    config.emit(f"fidelity_target={_num(fidelity_target)}")
    config.emit(f"fidelity_z={_num(fidelity_z)}")
    hist = ";".join(f"{j}:{count}" for j, count in sorted(summary.histogram.items()))
    config.emit(f"histogram={hist}")
    config.emit(f"norm_defect={_num(summary.norm_defect)}")
    ok = abs(yield_z) < 4.0 and abs(fidelity_z) < 4.0
    config.emit(f"status={'pass' if ok else 'fail'}")
    config.flush()
    return 0 if ok else 1


def _z_score(value: float, target: float, se: float) -> float:
    diff = value - target
    if se == 0.0:
        return 0.0 if abs(diff) < 1e-12 else math.inf
    return diff / se


def cmd_figure1(config: RunConfig) -> int:
    n_max = _require_even(config.n if config.n is not None else 40)
    lams = config.lams or (0.2, 0.4, 0.6, 0.8, 1.0)
    d = config.delim
    config.emit(d.join(("N", "lambda", "lambda_mix_inf")))
    curves = {}
    n_values = list(range(2, n_max + 1, 2))
    for lam in lams:
        curve = [cloning.estimation_lambda(n, lam) for n in n_values]
        curves[lam] = curve
        for n, value in zip(n_values, curve):
            config.emit(d.join((str(n), _num(lam), _num(value))))
    config.flush()
    if config.plot:
        _render_figure1(config.plot, n_values, curves)
    return 0


def _render_figure1(path: str, n_values, curves) -> None:
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError as exc:  # pragma: no cover - depends on extras
        raise UsageError("plot output needs matplotlib (install the 'plot' extra)") from exc
    fig, ax = plt.subplots(figsize=(6, 4))
    for lam in sorted(curves):
        ax.plot(n_values, curves[lam], marker="o", markersize=3, label=f"initial length {lam:g}")
    ax.set_xlabel("number of input copies N")
    ax.set_ylabel("achievable Bloch length (infinite clones)")
    ax.set_ylim(0.0, 1.0)
    ax.legend(loc="lower right", fontsize=8)
    fig.tight_layout()
    fig.savefig(path)
    plt.close(fig)


def cmd_clone(config: RunConfig) -> int:
    n = _require_even(config.n)
    lam = config.lam
    if config.m is None:
        raise UsageError("--m is required (an integer or 'inf')")
    try:
        settings = cloning.CloneSettings(n_in=n, m_out=config.m, lam=lam)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    spect = analytics.block_spectrum(n, lam)
    d = config.delim
    config.emit(d.join(("j", "p_j", "f_j", "f_pur", "term")))
    for row in spect.rows:
        f_pure = cloning.pure_cloning_fidelity(row.j, settings.m_out)
        term = row.probability * (f_pure * row.fidelity + (1 - f_pure) * (1 - row.fidelity))
        config.emit(d.join((str(row.j), _num(row.probability), _num(row.fidelity), _num(f_pure), _num(term))))
    f_mix = cloning.mixed_cloning_fidelity(settings)
    config.emit(f"F_mix={_num(f_mix)}")
    config.emit(f"lambda_mix={_num(2.0 * f_mix - 1.0)}")
    config.emit(f"lambda_mix_inf={_num(cloning.estimation_lambda(n, lam))}")
    if not math.isinf(settings.m_out):
        config.emit(f"scaling_residual={_num(cloning.scaling_relation_check(settings))}")
    config.flush()
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpurify",
        description="Spin-block statistics, purification simulation and cloning "
        "fidelities for identical mixed qubits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--format", choices=("csv", "tsv"), default="csv", dest="fmt")

    p = sub.add_parser("stats", help="per-block multiplicity/probability/fidelity table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    common(p)

    p = sub.add_parser("verify", help="run the dense verification suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("simulate", help="Monte Carlo protocol simulation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dense", action="store_true", help="simulate on explicit matrices")
    p.add_argument("--dump-trials", dest="dump_trials", help="write per-trial CSV here")
    common(p)

    p = sub.add_parser("figure1", help="achievable Bloch length vs input copies")
    p.add_argument("--n", type=int, default=40, help="largest even N (default 40)")
    p.add_argument("--lambda", dest="lam", default="0.2,0.4,0.6,0.8,1.0")
    p.add_argument("--plot", help="also render the curves to this image file")
    common(p)

    p = sub.add_parser("clone", help="optimal mixed-state cloning fidelities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", required=True, help="clone count, or 'inf'")
    p.add_argument("--lambda", dest="lam", required=True)
    common(p)

    return parser


_COMMANDS = {
    "stats": cmd_stats,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "figure1": cmd_figure1,
    "clone": cmd_clone,
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    config.n = getattr(args, "n", None)
    config.out = getattr(args, "out", None)
    config.fmt = getattr(args, "fmt", "csv")
    config.seed = getattr(args, "seed", 0)
    config.trials = getattr(args, "trials", 0) or 0
    config.tol = getattr(args, "tol", None)
    config.dense = getattr(args, "dense", False)
    config.plot = getattr(args, "plot", None)
    config.dump_trials = getattr(args, "dump_trials", None)
    lam_raw = getattr(args, "lam", None)
    if lam_raw is not None:
        config.lams = _parse_lambdas(lam_raw)
    m_raw = getattr(args, "m", None)
    if m_raw is not None:
        if str(m_raw).lower() in ("inf", "infinity"):
            config.m = math.inf
        else:
            try:
                config.m = int(m_raw)
            except ValueError as exc:
                raise UsageError(f"--m must be an integer or 'inf', got {m_raw!r}") from exc
    return config


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
        return _COMMANDS[args.command](config)
    except (UsageError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
