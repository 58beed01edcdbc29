"""Exact references for the closed-form numbers the CLI prints, and output checks.

Every reference is evaluated in exact integer / rational arithmetic at the
decimal Bloch length given on the command line (``Fraction("0.6") = 3/5``)
and rounded once to a float.  The only irrational number involved, the
j = 0 continuity value of the block fidelity, is evaluated with mpmath at
50 digits.

Write the Bloch length as lam = a/b and the qubit eigenvalues as
c1 = u/(2b), c0 = v/(2b) with u = b + a, v = b - a.  For total spin j of an
even register of n qubits (J = n/2) the benchmark uses

    d_j = C(n, J - j) - C(n, J - j - 1)
    G_j = sum_{k=0..2j} u^k v^(2j-k)
    H_j = sum_{k=0..2j} k u^k v^(2j-k)
    p_j = d_j (u v)^(J - j) G_j / (2b)^n
    f_j = H_j / (2j G_j)                        (j >= 1)

so p_j is the block probability and f_j the mean aligned fraction of the
2j kept qubits under the geometric weights c1^k c0^(2j-k).

A printed number x passes when |x - ref| <= RTOL |ref| + ATOL.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from functools import lru_cache

import mpmath

RTOL = 1e-10
# Numbers this small may underflow to subnormals or to zero in double
# precision; below it only the absolute error is checked.
ATOL = 1e-300


def _geometric_sums(u: int, v: int, j: int) -> tuple[int, int]:
    """(G_j, H_j) in closed form, exact integers."""
    m = 2 * j
    if u == v:
        return (m + 1) * u**m, u**m * m * (m + 1) // 2
    g = (u ** (m + 1) - v ** (m + 1)) // (u - v)
    h = u * (v ** (m + 1) - (m + 1) * u**m * v + m * u ** (m + 1)) // (v - u) ** 2
    return g, h


def _fraction(lam: str) -> Fraction:
    value = Fraction(lam)
    if not 0 <= value <= 1:
        raise ValueError(f"lambda {lam} outside [0, 1]")
    return value


@lru_cache(maxsize=None)
def fidelity_j0(lam: str) -> float:
    """Continuous j -> 0 limit c1/lam + c1 c0 log(c0/c1)/lam^2 of the block fidelity."""
    value = _fraction(lam)
    if value == 0:
        return 0.5
    if value == 1:
        return 1.0
    with mpmath.workdps(50):
        x = mpmath.mpf(value.numerator) / value.denominator
        c1 = (1 + x) / 2
        c0 = (1 - x) / 2
        return float(c1 / x + c1 * c0 * mpmath.log(c0 / c1) / x**2)


class Spectrum:
    """Exact per-j multiplicities, probabilities and fidelities of (n, lam)."""

    def __init__(self, n: int, lam: str):
        value = _fraction(lam)
        a, b = value.numerator, value.denominator
        u, v = b + a, b - a
        J = n // 2
        scale = (2 * b) ** n
        self.n = n
        self.lam = lam
        self.d: list[int] = []
        self.p: list[Fraction] = []
        self.f: list[Fraction | None] = []  # None at j = 0 (irrational limit)
        for j in range(J + 1):
            d = math.comb(n, J - j) - (math.comb(n, J - j - 1) if j < J else 0)
            g, h = _geometric_sums(u, v, j)
            self.d.append(d)
            self.p.append(Fraction(d * (u * v) ** (J - j) * g, scale))
            self.f.append(Fraction(h, 2 * j * g) if j else None)
        self.f0 = fidelity_j0(lam)

    def fidelity(self, j: int) -> float:
        return self.f0 if j == 0 else float(self.f[j])

    def yield_factor(self) -> float:
        J = self.n // 2
        return float(sum(p * j for j, p in enumerate(self.p)) / J)

    def mean_fidelity(self) -> float:
        exact = sum(p * f for p, f in zip(self.p[1:], self.f[1:]))
        return float(exact) + float(self.p[0]) * self.f0

    def estimation_lambda(self) -> float:
        return float(
            sum(p * (2 * f - 1) * Fraction(j, j + 1) for j, (p, f) in enumerate(zip(self.p, self.f)) if j)
        )

    def clone_terms(self) -> list[tuple[Fraction, Fraction]]:
        """(f_pur, term) per j at m = inf; term_0 = p_0/2 whatever f_0 is."""
        out = []
        for j, (p, f) in enumerate(zip(self.p, self.f)):
            f_pur = Fraction(2 * j + 1, 2 * j + 2)
            out.append((f_pur, p / 2 if j == 0 else p * (f_pur * f + (1 - f_pur) * (1 - f))))
        return out


@lru_cache(maxsize=None)
def spectrum(n: int, lam: str) -> Spectrum:
    return Spectrum(n, lam)


def figure1_curve(n_max: int, lam: str) -> list[float]:
    """Exact lambda_mix_inf(N, lam) for N = 2, 4, ..., n_max.

    Uses p_j (2 f_j - 1) j/(j+1) = d_j (uv)^(J-j) (H_j - j G_j) / ((j+1) (2b)^N),
    with G_j, H_j shared across N.
    """
    value = _fraction(lam)
    a, b = value.numerator, value.denominator
    u, v = b + a, b - a
    sums = [_geometric_sums(u, v, j) for j in range(n_max // 2 + 1)]
    curve = []
    for n in range(2, n_max + 1, 2):
        J = n // 2
        lcm = math.lcm(*range(2, J + 2))
        total = 0
        for j in range(1, J + 1):
            d = math.comb(n, J - j) - (math.comb(n, J - j - 1) if j < J else 0)
            g, h = sums[j]
            total += d * (u * v) ** (J - j) * (h - j * g) * (lcm // (j + 1))
        curve.append(float(Fraction(total, lcm * (2 * b) ** n)))
    return curve


# ---------------------------------------------------------------- checks


class CheckFailure(Exception):
    """An output that disagrees with its reference."""


def close(x: float, ref: float | Fraction, what: str) -> None:
    ref = float(ref)
    if not abs(x - ref) <= RTOL * abs(ref) + ATOL:
        raise CheckFailure(f"{what}: got {x!r}, exact {ref!r}")


def _key_values(lines: list[str]) -> dict[str, str]:
    return dict(line.split("=", 1) for line in lines if "=" in line and not line.startswith("#"))


def _rows(lines: list[str], header: str) -> list[list[str]]:
    if not lines or lines[0] != header:
        raise CheckFailure(f"expected header {header!r}, got {lines[:1]!r}")
    return [line.split(",") for line in lines[1:] if "=" not in line]


def check_stats(text: str, n: int, lam: str) -> None:
    lines = text.splitlines()
    ref = spectrum(n, lam)
    rows = _rows(lines, "j,d_j,p_j,f_j")
    if [int(r[0]) for r in rows] != list(range(n // 2 + 1)):
        raise CheckFailure("stats: j column is not 0..n/2")
    for r in rows:
        j = int(r[0])
        if int(r[1]) != ref.d[j]:
            raise CheckFailure(f"stats: d_{j} = {r[1]}, exact {ref.d[j]}")
        close(float(r[2]), ref.p[j], f"stats p_{j}")
        close(float(r[3]), ref.fidelity(j), f"stats f_{j}")
    kv = _key_values(lines)
    close(float(kv["yield"]), ref.yield_factor(), "stats yield")
    close(float(kv["mean_fidelity"]), ref.mean_fidelity(), "stats mean_fidelity")


def check_clone_inf(text: str, n: int, lam: str) -> None:
    lines = text.splitlines()
    ref = spectrum(n, lam)
    rows = _rows(lines, "j,p_j,f_j,f_pur,term")
    if [int(r[0]) for r in rows] != list(range(n // 2 + 1)):
        raise CheckFailure("clone: j column is not 0..n/2")
    terms = ref.clone_terms()
    for r in rows:
        j = int(r[0])
        close(float(r[1]), ref.p[j], f"clone p_{j}")
        close(float(r[2]), ref.fidelity(j), f"clone f_{j}")
        close(float(r[3]), terms[j][0], f"clone f_pur_{j}")
        close(float(r[4]), terms[j][1], f"clone term_{j}")
    f_mix = sum(term for _, term in terms)
    kv = _key_values(lines)
    close(float(kv["F_mix"]), f_mix, "clone F_mix")
    close(float(kv["lambda_mix"]), 2 * f_mix - 1, "clone lambda_mix")
    close(float(kv["lambda_mix_inf"]), ref.estimation_lambda(), "clone lambda_mix_inf")


def check_figure1(text: str, n_max: int, lams: tuple[str, ...], curves: dict[str, list[float]]) -> None:
    rows = _rows(text.splitlines(), "N,lambda,lambda_mix_inf")
    expected = [(n, lam) for lam in lams for n in range(2, n_max + 1, 2)]
    if len(rows) != len(expected):
        raise CheckFailure(f"figure1: {len(rows)} rows, expected {len(expected)}")
    for (n, lam), r in zip(expected, rows):
        if int(r[0]) != n or float(r[1]) != float(lam):
            raise CheckFailure(f"figure1: row {r[:2]} out of order, expected ({n}, {lam})")
        close(float(r[2]), curves[lam][n // 2 - 1], f"figure1 N={n} lambda={lam}")


def _histogram(raw: str) -> dict[int, int]:
    return {int(j): int(c) for j, c in (part.split(":") for part in raw.split(";"))}


def check_simulate(text: str, n: int, lam: str, trials: int, require_pass: bool = True) -> dict[int, int]:
    """Check a simulate report; returns its j histogram.

    With ``require_pass`` false a ``status=fail`` line (simulate's own 4-sigma
    test) is accepted and every other check still applies.
    """
    kv = _key_values(text.splitlines())
    if kv.get("status") not in (("pass",) if require_pass else ("pass", "fail")):
        raise CheckFailure(f"simulate: status={kv.get('status')}")
    if int(kv["n"]) != n or int(kv["trials"]) != trials:
        raise CheckFailure("simulate: echoed n or trials differ from the request")
    ref = spectrum(n, lam)
    close(float(kv["yield_target"]), ref.yield_factor(), "simulate yield_target")
    close(float(kv["fidelity_target"]), ref.mean_fidelity(), "simulate fidelity_target")
    hist = _histogram(kv["histogram"])
    if sum(hist.values()) != trials or not set(hist) <= set(range(n // 2 + 1)):
        raise CheckFailure(f"simulate: histogram sums to {sum(hist.values())}, expected {trials}")
    kept = math.fsum(count * 2 * j / n for j, count in hist.items()) / trials
    close(float(kv["empirical_yield"]), kept, "simulate empirical_yield vs histogram")
    return hist


def check_dump(path: str, n: int, lam: str, hist: dict[int, int]) -> None:
    """One CSV row per trial, kept = 2j, j counts as in the histogram,
    and every fidelity equal to the exact f_j of its row."""
    ref = spectrum(n, lam)
    counts: dict[int, int] = {}
    fids: dict[int, set[str]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["trial", "j", "alpha", "kept", "fidelity"]:
            raise CheckFailure("dump: bad header")
        for index, (trial, j, alpha, kept, fid) in enumerate(reader):
            jv = int(j)
            if int(trial) != index or int(kept) != 2 * jv or not 1 <= int(alpha) <= ref.d[jv]:
                raise CheckFailure(f"dump: bad row {index}: {trial},{j},{alpha},{kept}")
            counts[jv] = counts.get(jv, 0) + 1
            fids.setdefault(jv, set()).add(fid)
    if counts != {j: c for j, c in hist.items() if c}:
        raise CheckFailure("dump: per-j row counts differ from the printed histogram")
    for jv, values in fids.items():
        for fid in values:
            close(float(fid), ref.fidelity(jv), f"dump fidelity j={jv}")


def check_verify(text: str, n: int) -> None:
    lines = text.splitlines()
    header = lines[0] if lines else ""
    if not header.startswith(f"# n={n} "):
        raise CheckFailure(f"verify: bad header {header!r}")
    tol = float(header.rsplit("tol=", 1)[1].split()[0])
    if lines[1:2] != ["check,label,residual"] or lines[-1] != "status=pass":
        raise CheckFailure(f"verify: bad table framing or status line {lines[-1:]!r}")
    rows = [line.split(",") for line in lines[2:-1]]
    checks = {r[0] for r in rows}
    if not {"quadrature", "reversibility", "covariance"} <= checks:
        raise CheckFailure(f"verify: missing checks, got {sorted(checks)}")
    for check, label, residual in rows:
        if not float(residual) < tol:
            raise CheckFailure(f"verify: {check} {label} residual {residual} >= tol {tol}")
