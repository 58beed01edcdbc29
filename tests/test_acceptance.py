"""Acceptance checks: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
from fractions import Fraction

import numpy as np
from scipy import stats

from qpurify import (
    MixedQubit,
    block_fidelity,
    block_probability,
    build_schur_basis,
    covariance_residual,
    estimation_lambda,
    kron_power,
    mean_fidelity,
    mean_fidelity_asymptote,
    mixed_cloning_fidelity,
    multiplicity,
    partial_trace,
    pure_cloning_fidelity,
    quadrature_check,
    random_direction,
    run_protocol,
    run_protocol_dense,
    qubit_eigenstates,
    verify_decomposition,
    yield_asymptote,
    yield_factor,
)
from qpurify.blocks import measure_block
from qpurify.cli import main as cli_main
from qpurify.blocks import density_matrix

from certificate import certified
from conftest import basis_labels


def report(number: int, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {tag}" + (f": {detail}" if detail else ""))
    return ok


def test_criterion_01_two_qubit_closed_forms():
    failures = []
    for k in range(1, 10):
        lam = k / 10
        c1, c0 = (1 + lam) / 2, (1 - lam) / 2
        if abs(block_probability(2, lam, 1) - (3 + lam * lam) / 4) >= 1e-12:
            failures.append(f"P2({lam})")
        if abs(block_fidelity(lam, 1) - c1 * (1 - c0 / 2) / (1 - c0 * c1)) >= 1e-12:
            failures.append(f"F2({lam})")
    if abs(block_probability(2, 0.5, 1) - 0.8125) >= 1e-12:
        failures.append("P2(0.5) anchor")
    if abs(block_fidelity(0.5, 1) - 21 / 26) >= 1e-12:
        failures.append("F2(0.5) anchor")
    assert report(1, not failures, "two-qubit probability and fidelity closed forms"), failures


def test_criterion_02_decomposition_identity():
    rng = np.random.default_rng(202)
    worst = 0.0
    for n in (2, 4, 6, 8):
        for _ in range(10):
            q = MixedQubit(float(rng.uniform(0, 1)), random_direction(rng))
            rows = verify_decomposition(q, build_schur_basis(n))
            worst = max(worst, *(residual for check, _, residual in rows if check in ("decomposition", "post_state")))
    ok = worst < 1e-9
    assert report(2, ok, f"worst reconstruction residual {worst:.2e}"), worst


def test_criterion_03_normalization_and_completeness():
    ok = True
    for n in range(2, 41, 2):
        for k in range(21):
            lam = k / 20
            total = math.fsum(block_probability(n, lam, j) for j in range(n // 2 + 1))
            ok = ok and abs(total - 1.0) < 1e-12
    for n in range(2, 21, 2):
        dims = sum(multiplicity(n, j) * (2 * j + 1) for j in range(n // 2 + 1))
        ok = ok and dims == 2**n
    assert report(3, ok, "sum of block probabilities and dimension counting")


def test_criterion_04_oracle_formula_agreement():
    rng = np.random.default_rng(404)
    worst = 0.0
    for n in (2, 4, 6, 8):
        basis = build_schur_basis(n)
        q = MixedQubit(float(rng.uniform(0.2, 0.9)), random_direction(rng))
        state = kron_power(density_matrix(q), n)
        aligned = qubit_eigenstates(q)[0]
        from qpurify import block_swap

        for label in basis_labels(basis):
            expected = block_probability(n, q.lam, label.j) / multiplicity(n, label.j)
            prob, post = measure_block(state, basis, label)
            worst = max(worst, abs(prob - expected))
            if post is None or label.j == 0:
                continue
            swap = block_swap(basis, label.j, label.alpha)
            moved = post if swap.is_identity else swap.matrix @ post @ swap.matrix.conj().T
            f_ref = block_fidelity(q.lam, label.j)
            for k in range(1, 2 * label.j + 1):
                fid = np.real(aligned.conj() @ partial_trace(moved, [k]) @ aligned)
                worst = max(worst, abs(fid - f_ref))
    ok = worst < 1e-10
    assert report(4, ok, f"worst probability/fidelity deviation {worst:.2e}"), worst


def test_criterion_05_integral_representation():
    rng = np.random.default_rng(505)
    worst = 0.0
    for lam in (0.3, 0.5, 0.9):
        q = MixedQubit(lam, random_direction(rng))
        for j in (1, 2, 3, 4):
            worst = max(worst, quadrature_check(q, j))
    ok = worst < 1e-9
    assert report(5, ok, f"worst quadrature residual {worst:.2e}"), worst


def exact_yield(n: int, lam: Fraction) -> Fraction:
    """Exact rational yield sum_j p_j j/J, with d_j = C(n, k) - C(n, k-1), k = J-j."""
    c1, c0 = (1 + lam) / 2, (1 - lam) / 2
    J = n // 2
    total = Fraction(0)
    for j in range(1, J + 1):
        d = math.comb(n, J - j) - (math.comb(n, J - j - 1) if j < J else 0)
        p = d * (c0 * c1) ** (J - j) * (c1 ** (2 * j + 1) - c0 ** (2 * j + 1)) / (c1 - c0)
        total += p * Fraction(j, J)
    return total


def test_criterion_06_asymptotic_residual_scaling():
    # Yield: lam + (1-lam)/(N lam) is exact up to two binomial tails (the
    # Binomial(N, c0) mass above N/2 and the Binomial(N, c1) mass below it),
    # so the residual falls exponentially and has no 1/N^2 term.  Each float
    # residual must match the exact rational one within N eps, and the exact
    # residual must fall by at least the window's lower edge per doubling.
    #
    # Fidelity: f_j = 1 - (1-lam)/(4 lam j) up to exponentially small terms
    # and E[1/j] = 2/(N lam) + 2(1-lam)/(N lam)^2 + O(N^-3), so the residual
    # is c2/N^2 (1 + a/N + ...) with c2 = -(1-lam)^2/(2 lam^3) and a close to
    # 2/lam^2.  The doubling ratio is then 4 (1 + a/N)/(1 + a/(2N)), about
    # 4 (1 + 1/(N lam^2)), and staying inside 4.5 = 4 (1 + 1/8) needs
    # N lam^2 >= 8.  Doublings from a smaller N are printed but not held to
    # the window; at N = 320, N^2 times the residual must be within 5 % of c2.
    window = (3.5, 4.5)
    ladder = (20, 40, 80, 160, 320)
    eps = np.finfo(float).eps
    rows = []
    failures = []
    for lam in (Fraction(2, 5), Fraction(3, 5), Fraction(4, 5)):
        x = float(lam)
        c2 = -((1 - x) ** 2) / (2 * x**3)
        exact = {}
        fid = {}
        for n in ladder:
            exact[n] = exact_yield(n, lam) - (lam + (1 - lam) / (n * lam))
            floating = yield_factor(n, x) - yield_asymptote(n, x)
            if abs(floating - exact[n]) > n * eps:
                failures.append(
                    f"lam={x} N={n}: float yield residual {floating:.3e} is "
                    f"{abs(floating - exact[n]):.1e} from the exact {float(exact[n]):.3e} "
                    f"(budget N eps = {n * eps:.1e})"
                )
            fid[n] = mean_fidelity(n, x) - mean_fidelity_asymptote(n, x)
        for n in ladder[:-1]:
            yield_ratio = abs(float(exact[n] / exact[2 * n]))
            fid_ratio = abs(fid[n] / fid[2 * n])
            windowed = n * x * x >= 8
            rows.append(
                f"lam={x} N={n}->{2 * n}: exact yield residual {float(exact[n]):.3e}"
                f"->{float(exact[2 * n]):.3e} (ratio {yield_ratio:.3g}), fidelity ratio "
                f"{fid_ratio:.3g} (N lam^2 = {n * x * x:.3g}"
                + ("" if windowed else " < 8, not windowed")
                + ")"
            )
            if yield_ratio < window[0]:
                failures.append(f"lam={x} N={n}: exact yield residual ratio {yield_ratio:.3g}")
            if windowed and not window[0] <= fid_ratio <= window[1]:
                failures.append(f"lam={x} N={n}: fidelity ratio {fid_ratio:.3g}")
        scaled = ladder[-1] ** 2 * fid[ladder[-1]]
        rows.append(f"lam={x} N={ladder[-1]}: N^2 fidelity residual {scaled:.4g}, c2 {c2:.4g}")
        if abs(scaled / c2 - 1) > 0.05:
            failures.append(f"lam={x}: N^2 fidelity residual {scaled:.4g} vs c2 {c2:.4g}")
    print("\n".join(rows))
    detail = "exact yield tails, fidelity doubling window where N lam^2 >= 8, c2 at N=320"
    assert report(6, not failures, detail), (
        "the yield residual is two binomial tails (exact values -2.5e-5, -6.4e-8, "
        "-1.7e-12 at lam=0.6, N=20, 40, 80), so it must match exact rationals and "
        "fall by >= 3.5 per doubling; the fidelity residual is "
        "-(1-lam)^2/(2 N^2 lam^3) (1 + O(1/(N lam^2))), c2 = -2.81, -0.370, -0.0391 "
        "at lam=0.4, 0.6, 0.8, so its doubling ratio must lie in [3.5, 4.5] once "
        "N lam^2 >= 8:\n  " + "\n  ".join(failures + rows)
    )


def test_criterion_07_monte_carlo_consistency():
    summary = run_protocol(MixedQubit(0.6), 20, trials=100_000, seed=1234)
    y_t, f_t = yield_factor(20, 0.6), mean_fidelity(20, 0.6)
    ok = abs(summary.empirical_yield - y_t) < 4 * summary.yield_se
    ok = ok and abs(summary.empirical_mean_fidelity - f_t) < 4 * summary.fidelity_se

    dense = run_protocol_dense(MixedQubit(0.5), 4, trials=50_000, seed=77)
    labels = sorted(dense.label_histogram)
    counts = [dense.label_histogram[lab] for lab in labels]
    expected = [
        dense.trials * block_probability(4, 0.5, j) / multiplicity(4, j) for j, _ in labels
    ]
    pvalue = stats.chisquare(counts, f_exp=expected).pvalue
    ok = ok and pvalue > 0.001
    assert report(7, ok, f"simulation z-scores within 4 se, chi-square p={pvalue:.3f}")


def within_certificate(cases) -> tuple[list, float]:
    """The cases whose closed form leaves the all-channel bracket, and the widest bracket."""
    outside, widest = [], 0.0
    for n, m, lam in cases:
        primal, dual = certified(n, m, lam)
        widest = max(widest, dual - primal)
        if not primal - 1e-9 <= mixed_cloning_fidelity(n, m, lam) <= dual + 1e-9:
            outside.append((n, m, lam))
    return outside, widest


def test_criterion_08_optimality_scan():
    # mixed_cloning_fidelity, which measures j and keeps min(M, 2j) purified qubits, a guess at j = 0,
    # is the best of all channels from N qubits to M < N, purification (M = 1) included
    cases = [(2, 1, lam) for lam in (0.3, 0.6)]
    cases += [(4, m, lam) for m in (1, 2, 3) for lam in (0.3, 0.6)]
    cases += [(n, m, lam) for n, m in ((6, 1), (6, 2), (8, 1)) for lam in (0.3, 0.6)]  # about 4 s
    outside, widest = within_certificate(cases)
    ok = not outside and widest < 1e-8
    assert report(8, ok, f"{len(cases)} cases, widest bracket {widest:.1e}, outside it {outside}")


def test_criterion_09_cloning_identities():
    worst_pure = 0.0
    for j in range(1, 51):
        for m in {2 * j, 2 * j + 1, 2 * j + 9, 1000, 10_000}:
            lhs = 2 * pure_cloning_fidelity(j, m) - 1
            worst_pure = max(worst_pure, abs(lhs - (j / (j + 1)) * (m + 2) / m))
    worst_scaling = 0.0
    for n in range(2, 21, 2):
        for m in (n, n + 13, 100):
            for lam in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
                lhs = 2.0 * mixed_cloning_fidelity(n, m, lam) - 1.0
                worst_scaling = max(worst_scaling, abs(lhs - estimation_lambda(n, lam) * (m + 2) / m))
    # mixed_cloning_fidelity is the best of all channels from N qubits to M >= N
    cases = [(n, m, lam) for n, m in ((2, 2), (2, 3), (2, 4), (4, 4)) for lam in (0.3, 0.6)]
    outside, widest = within_certificate(cases)
    ok = worst_pure < 1e-13 and worst_scaling < 1e-12 and not outside and widest < 1e-8
    assert report(
        9,
        ok,
        f"pure identity {worst_pure:.2e}, scaling relation {worst_scaling:.2e}, "
        f"widest bracket {widest:.1e}, outside it {outside}",
    )


def test_criterion_10_figure_reproduction(tmp_path):
    path = tmp_path / "figure1.csv"
    code = cli_main(["figure1", "--out", str(path)])
    ok = code == 0
    curves: dict[float, list[tuple[int, float]]] = {}
    for line in path.read_text().splitlines()[1:]:
        n, lam, value = line.split(",")
        curves.setdefault(float(lam), []).append((int(n), float(value)))
    ok = ok and set(curves) == {0.2, 0.4, 0.6, 0.8, 1.0}
    pure = dict(curves[1.0])
    ok = ok and all(abs(pure[n] - n / (n + 2)) < 1e-12 for n in range(2, 41, 2))
    for lam in curves:
        values = [v for _, v in sorted(curves[lam])]
        ok = ok and all(b >= a for a, b in zip(values, values[1:]))
    lams = sorted(curves)
    for low, high in zip(lams, lams[1:]):
        low_curve = dict(curves[low])
        high_curve = dict(curves[high])
        ok = ok and all(low_curve[n] < high_curve[n] for n in low_curve)

    # Estimate-and-prepare is one particular purification map, so its Bloch
    # length cannot beat the optimal purifier's 2F - 1.  It rises towards 1
    # and passes lam at small N (superbroadcasting), so lam is no bound.
    unbounded = [
        (n, lam, v)
        for lam in curves
        for n, v in curves[lam]
        if not (0.0 <= v < 1.0 and v <= 2.0 * mean_fidelity(n, lam) - 1.0)
    ]
    ok = ok and not unbounded
    crossings = {
        lam: next((n for n, v in sorted(curves[lam]) if v > lam), None) for lam in curves
    }
    print(f"first N with an estimation Bloch length above lambda: {crossings}")
    assert report(10, ok, "curve grid, pure column, monotonicity, ordering, bounds"), (
        "every curve value must satisfy 0 <= v < 1 and v <= 2 F(N, lam) - 1; "
        f"(N, lam, v) outside these bounds: {unbounded}"
    )


def test_criterion_11_covariance_and_reversibility():
    rng = np.random.default_rng(1111)
    q = MixedQubit(0.55, random_direction(rng))
    cov = max(covariance_residual(build_schur_basis(n)) for n in (4, 6))  # every copy a standard spin-j ladder
    ok = cov < 1e-9
    worst_rev = 0.0
    for n in (4, 6):
        basis = build_schur_basis(n)
        reversibility = [residual for check, _, residual in verify_decomposition(q, basis) if check == "reversibility"]
        assert len(reversibility) == len(basis_labels(basis))  # one round trip per copy
        worst_rev = max(worst_rev, *reversibility)
    ok = ok and worst_rev < 1e-10
    assert report(11, ok, f"covariance {cov:.2e}, reversibility {worst_rev:.2e}")
