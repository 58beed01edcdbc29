"""Command-line front end: tables, verification runs, simulations, curves.

Commands: ``stats``, ``verify``, ``simulate``, ``figure1``, ``clone``.
Each ``cmd_*`` returns a ``Report`` of Python values, and ``main`` alone writes it:
``_render`` joins a table row's cells (ints, floats, strings, ``BlockLabel``s) by
``str`` with the ``--format`` delimiter and the other values through ``_text``.  A
float's ``str`` is its shortest round-trip decimal, so CSV files parse back
losslessly.  Exit codes are stable for CI use: 0 success, 1 verification/statistical
failure, 2 usage error.  ``main`` turns a report's verdict into both its ``status=``
line and the exit code.  The parser checks each flag's value through its ``type=``,
in the order the flags are read, and turns every usage error, its own included, into
a ``UsageError``: one ``error:`` line on stderr.  Only ``verify`` and
``simulate --dense`` import numpy and the dense modules; the closed-form commands,
summary ``simulate`` runs, ``--help`` and every usage error run on the stdlib alone.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import namedtuple

from . import analytics, cloning
from .core import MixedQubit, SizeLimitError


class UsageError(ValueError):
    """Bad command-line configuration (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors are ``UsageError``s; its subparsers inherit the class."""

    def error(self, message: str):
        raise UsageError(message)


def _flag(expected: str, convert, ok=lambda value: True):
    """A ``type=`` that converts a flag's value and refuses one that is not ``expected``."""

    def parse(raw: str):
        try:
            value = convert(raw)
            if ok(value):
                return value
        except (ValueError, argparse.ArgumentTypeError):
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {raw!r}")

    return parse


_even = _flag("an even integer >= 2", int, lambda n: n >= 2 and n % 2 == 0)
_length = _flag("a number in [0, 1]", float, lambda lam: 0.0 <= lam <= 1.0)
_lengths = _flag("a comma list of numbers in [0, 1]", lambda raw: tuple(map(_length, raw.split(","))))
_seed = _flag("a non-negative integer", int, lambda seed: seed >= 0)
_trials = _flag("an integer in 1..2**63 - 1", int, lambda trials: 1 <= trials < 2**63)
_tol = _flag("a positive finite number", float, lambda tol: 0.0 < tol < math.inf)  # also refuses nan
_clones = _flag(
    "an integer >= 1 or 'inf'", lambda raw: math.inf if raw.lower() in ("inf", "infinity") else int(raw),
    lambda m: m >= 1,
)


# what a command found: the (name, value) pairs of an optional ``#`` comment line, an optional table (a header and
# rows of values), the ``name=value`` results, and a verdict, True or False, or None for a command that judges nothing
Report = namedtuple("Report", "comment header rows values verdict", defaults=((), (), (), (), None))


def _text(value) -> str:
    """A plain tuple as ``(x,y,z)``, a dict as ``k:v;k:v`` by key, and anything else by ``str``: a float in
    shortest round-trip form, an integer exactly, and a d_j too long for that is already its own text."""
    if type(value) is tuple:  # not a named tuple such as BlockLabel, which has its own str
        return f"({','.join(map(_text, value))})"
    if isinstance(value, dict):
        return ";".join(f"{key}:{count}" for key, count in sorted(value.items()))
    return str(value)


def _render(report: Report, d: str) -> str:
    lines = ["# " + " ".join(f"{name}={_text(value)}" for name, value in report.comment)] if report.comment else []
    if report.header:
        lines.append(d.join(report.header))
        lines.extend(d.join(map(str, row)) for row in report.rows)
    lines.extend(f"{name}={_text(value)}" for name, value in report.values)
    if report.verdict is not None:
        lines.append(f"status={'pass' if report.verdict else 'fail'}")
    return "".join(line + "\n" for line in lines)


def _writable(path: str) -> str:
    """Refuse an empty output path, or one whose file cannot be opened for writing, before any work."""
    folder = os.path.dirname(path) or "."
    target = path if os.path.exists(path) else folder
    if not path or os.path.isdir(path) or not os.path.isdir(folder) or not os.access(target, os.W_OK):
        raise argparse.ArgumentTypeError(f"cannot write to {path!r}")
    return path


def _plottable(path: str) -> str:
    try:
        import matplotlib
    except ImportError:
        raise argparse.ArgumentTypeError("plot output needs matplotlib (install the 'plot' extra)") from None
    return path


def _write(option: str, path: str, write) -> None:
    """Run ``write(file)`` on ``path`` opened as UTF-8 text; a failed write, say on a full device,
    is a usage error naming the file."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise UsageError(f"cannot write the {option} file {path!r}: {exc.strerror or exc}") from exc


def cmd_stats(args: argparse.Namespace) -> Report:
    n, lam = args.n, args.lam
    rows = analytics.block_spectrum(n, lam).rows
    values = (("yield", analytics.yield_factor(n, lam)), ("mean_fidelity", analytics.mean_fidelity(n, lam)))
    return Report(header=("j", "d_j", "p_j", "f_j"), rows=rows, values=values)


def cmd_verify(args: argparse.Namespace) -> Report:
    import random

    from .blocks import build_schur_basis, random_direction
    from .oracle import verify_decomposition

    n, lam = args.n, args.lam
    direction = random_direction(random.Random(args.seed))
    rows = verify_decomposition(MixedQubit(lam, direction), build_schur_basis(n))
    comment = (("n", n), ("lambda", lam), ("direction", direction), ("tol", args.tol), ("seed", args.seed))
    ok = all(residual < args.tol for _, _, residual in rows)
    return Report(comment=comment, header=("check", "label", "residual"), rows=rows, verdict=ok)


def cmd_simulate(args: argparse.Namespace) -> Report:
    from . import protocol

    n, lam = args.n, args.lam
    keep = args.dump_trials is not None
    if keep and args.out is not None and os.path.realpath(args.out) == os.path.realpath(args.dump_trials):
        raise UsageError(f"--out and --dump-trials name the same file {args.out!r}")
    run = protocol.run_protocol_dense if args.dense else protocol.run_protocol
    summary = run(MixedQubit(lam), n, args.trials, args.seed, keep_outcomes=keep)
    if keep:
        _write("--dump-trials", args.dump_trials, lambda fh: protocol.write_outcomes_csv(summary.outcomes, fh))

    yield_target = analytics.yield_factor(n, lam)
    fidelity_target = analytics.mean_fidelity(n, lam)
    yield_z = _z_score(summary.empirical_yield, yield_target, summary.yield_se)
    fidelity_z = _z_score(summary.empirical_mean_fidelity, fidelity_target, summary.fidelity_se)
    return Report(
        values=(
            ("n", n), ("lambda", lam), ("trials", args.trials), ("seed", args.seed), ("mode", summary.mode),
            ("empirical_yield", summary.empirical_yield), ("yield_se", summary.yield_se),
            ("yield_target", yield_target), ("yield_z", yield_z),
            ("empirical_mean_fidelity", summary.empirical_mean_fidelity), ("fidelity_se", summary.fidelity_se),
            ("fidelity_target", fidelity_target), ("fidelity_z", fidelity_z),
            ("histogram", summary.histogram), ("norm_defect", summary.norm_defect),
        ),
        verdict=abs(yield_z) < 4.0 and abs(fidelity_z) < 4.0,
    )


def _z_score(value: float, target: float, se: float) -> float:
    diff = value - target
    if se == 0.0:
        return 0.0 if abs(diff) < 1e-12 else math.inf
    return diff / se


_FIGURE1_ROWS = 10**8  # spectrum rows a figure1 run may build: about 85 s at 0.85 us a row, measured on 2 cores


def cmd_figure1(args: argparse.Namespace) -> Report:
    lams = dict.fromkeys(args.lam)  # a repeated lam shares one curve
    K = args.n // 2
    needed = len(lams) * K * (K + 3) // 2  # sum of J + 1 over J = 1..K, for each lam
    if needed > _FIGURE1_ROWS:
        raise SizeLimitError(f"figure1 needs {needed} spectrum rows for {len(lams)} lambdas, above {_FIGURE1_ROWS}")
    n_values = range(2, args.n + 1, 2)
    curves = {lam: [cloning.estimation_lambda(n, lam) for n in n_values] for lam in lams}  # lam outer
    if args.plot:
        _render_figure1(args.plot, n_values, curves)
    rows = [(n, lam, value) for lam in args.lam for n, value in zip(n_values, curves[lam])]
    return Report(header=("N", "lambda", "lambda_mix_inf"), rows=rows)


def _render_figure1(path: str, n_values, curves) -> None:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

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


def cmd_clone(args: argparse.Namespace) -> Report:
    n, lam, m_out = args.n, args.lam, args.m
    spect = analytics.block_spectrum(n, lam)
    columns = zip(spect.probabilities, spect.fidelities, cloning.clone_terms(spect, m_out))
    rows = [(j, p, f, f_pure, term) for j, (p, f, (f_pure, term)) in enumerate(columns)]
    values = (
        ("F_mix", cloning.mixed_cloning_fidelity(n, m_out, lam)),
        ("lambda_mix", cloning.clone_bloch_length(spect, m_out)), ("lambda_mix_inf", cloning.estimation_lambda(n, lam)),
    )
    return Report(header=("j", "p_j", "f_j", "f_pur", "term"), rows=rows, values=values)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qpurify",
        description="Spin-block statistics, purification simulation and cloning "
        "fidelities for identical mixed qubits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def finish(p: argparse.ArgumentParser, func) -> None:
        p.add_argument("--out", type=_writable, help="write output to this file instead of stdout")
        p.add_argument("--format", choices=("csv", "tsv"), default="csv", dest="fmt")
        p.set_defaults(func=func)

    p = sub.add_parser("stats", help="per-block multiplicity/probability/fidelity table")
    p.add_argument("--n", type=_even, required=True)
    p.add_argument("--lambda", dest="lam", type=_length, required=True)
    finish(p, cmd_stats)

    p = sub.add_parser("verify", help="run the dense verification suite")
    p.add_argument("--n", type=_even, required=True)
    p.add_argument("--lambda", dest="lam", type=_length, required=True)
    p.add_argument("--tol", type=_tol, default=1e-10)
    p.add_argument("--seed", type=_seed, default=0)
    finish(p, cmd_verify)

    p = sub.add_parser("simulate", help="Monte Carlo protocol simulation")
    p.add_argument("--n", type=_even, required=True)
    p.add_argument("--lambda", dest="lam", type=_length, required=True)
    p.add_argument("--trials", type=_trials, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--dense", action="store_true", help="simulate on explicit matrices")
    p.add_argument("--dump-trials", dest="dump_trials", type=_writable, help="write per-trial CSV here")
    finish(p, cmd_simulate)

    p = sub.add_parser("figure1", help="achievable Bloch length vs input copies")
    p.add_argument("--n", type=_even, default=40, help="largest even N (default 40); at most 10^8 spectrum rows")
    p.add_argument("--lambda", dest="lam", type=_lengths, default="0.2,0.4,0.6,0.8,1.0")
    p.add_argument("--plot", type=_plottable, help="also render the curves to this image file")
    finish(p, cmd_figure1)

    p = sub.add_parser("clone", help="optimal mixed-state cloning fidelities")
    p.add_argument("--n", type=_even, required=True)
    p.add_argument("--m", type=_clones, required=True, help="clone count, or 'inf'")
    p.add_argument("--lambda", dest="lam", type=_length, required=True)
    finish(p, cmd_clone)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        report = args.func(args)
        text = _render(report, "\t" if args.fmt == "tsv" else ",")
        if args.out is None:
            sys.stdout.write(text)
        else:
            _write("--out", args.out, lambda fh: fh.write(text))
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (UsageError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if report.verdict is not None and not report.verdict else 0


if __name__ == "__main__":
    sys.exit(main())
