"""The closed forms against a 40-digit oracle up to N = 10^5.

The oracle shares no code with the package.  It takes the exact d_j at one
row j0 = round(lam J) and walks outward with the exact ratios
d_{j+1}/d_j = (J-j)(2j+3)/((J+j+2)(2j+1)), with p_j = d_j (c0 c1)^(J-j)
c1^(2j) S0[2j] and f_j = 1 - S1[2j]/(2j S0[2j]) for S0 and S1 in closed
form.  It keeps the rows with p_j > e^-200 p_max, whose neglected rest
cannot move any average at 40 digits.  j = 0 lies outside every window
here, so these cases do not judge how the spin-0 block is scored.
"""

import functools
import math

import mpmath
import pytest

from qpurify import analytics, block_spectrum, estimation_lambda, mean_fidelity, mixed_cloning_fidelity, yield_factor

CASES = [(2000, 0.6), (100000, 0.6), (100000, 0.2), (100000, 0.9)]
CLONES = [1, 5, math.inf]


def _clone_weight(j, m):
    """g_j: per-clone fidelity of a spin-j block cloned like 2j pure copies to m outputs."""
    if m == math.inf:
        return mpmath.mpf(2 * j + 1) / (2 * j + 2)
    if m <= 2 * j:
        return mpmath.mpf(1)
    return mpmath.mpf(m * (2 * j + 1) + 2 * j) / (m * (2 * j + 2))


@functools.lru_cache(maxsize=None)
def exact_window(n, lam):
    """{j: (p_j, f_j)} over the rows with p_j > e^-200 p_max, at 40 digits, for the float lam itself."""
    with mpmath.workdps(40):
        J = n // 2
        c1, c0 = (1 + mpmath.mpf(lam)) / 2, (1 - mpmath.mpf(lam)) / 2
        r = c0 / c1

        def row(j, d):
            s0 = (1 - r ** (2 * j + 1)) / (1 - r)
            s1 = r * (1 - (2 * j + 1) * r ** (2 * j) + 2 * j * r ** (2 * j + 1)) / (1 - r) ** 2
            return d * (c0 * c1) ** (J - j) * c1 ** (2 * j) * s0, 1 - s1 / (2 * j * s0)

        j0 = round(lam * J)
        d0 = mpmath.mpf(math.comb(n, J - j0) * (2 * j0 + 1) // (J + j0 + 1))
        rows = {j0: row(j0, d0)}
        cut = mpmath.exp(-200)
        peak = rows[j0][0]
        for step in (1, -1):  # up from j0, then down
            j, d = j0, d0
            while 0 < j + step <= J:
                if step == 1:
                    d = d * ((J - j) * (2 * j + 3)) / ((J + j + 2) * (2 * j + 1))
                else:
                    d = d * ((J + j + 1) * (2 * j - 1)) / ((J - j + 1) * (2 * j + 1))
                j += step
                rows[j] = row(j, d)
                peak = max(peak, rows[j][0])
                if rows[j][0] < cut * peak:
                    break
        return {j: pf for j, pf in rows.items() if pf[0] > cut * peak}


def exact_averages(n, lam):
    """The package's averages, each summed over the window at 40 digits."""
    window = exact_window(n, lam)
    with mpmath.workdps(40):
        J = n // 2
        total = mpmath.fsum(p for p, _ in window.values())

        def mean(weight):
            return mpmath.fsum(p * weight(j, f) for j, (p, f) in window.items()) / total

        averages = {
            "yield_factor": mean(lambda j, f: mpmath.mpf(j) / J),
            "mean_fidelity": mean(lambda j, f: f),
            "estimation_lambda": mean(lambda j, f: (2 * f - 1) * j / (j + 1)),
        }
        for m in CLONES:
            g = {j: _clone_weight(j, m) for j in window}
            averages[f"mixed_cloning_fidelity M={m}"] = mean(lambda j, f: g[j] * f + (1 - g[j]) * (1 - f))
        return averages


def relative_error(got, exact):
    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(got) - exact) / abs(exact))


@pytest.fixture(scope="module", autouse=True)
def _release_spectra():
    # the per-lambda columns of N = 10^5 are not needed by any other module
    yield
    analytics._lambda_columns.cache_clear()


@pytest.fixture(scope="module", params=CASES, ids=lambda case: "{}-{}".format(*case))
def case(request):
    # module scope groups the tests by case
    return request.param


def test_window_lies_inside_the_register(case):
    n, lam = case
    window = exact_window(n, lam)
    assert 0 < min(window) and max(window) < n // 2
    assert max(window) - min(window) + 1 == len(window)


def test_averages_match_the_oracle(case):
    n, lam = case
    got = {
        "yield_factor": yield_factor(n, lam),
        "mean_fidelity": mean_fidelity(n, lam),
        "estimation_lambda": estimation_lambda(n, lam),
        **{f"mixed_cloning_fidelity M={m}": mixed_cloning_fidelity(n, m, lam) for m in CLONES},
    }
    errors = {name: relative_error(got[name], exact) for name, exact in exact_averages(n, lam).items()}
    assert max(errors.values()) <= 1e-14, errors


def test_probabilities_match_the_oracle(case):
    n, lam = case
    probs = block_spectrum(n, lam).probabilities
    errors = {j: relative_error(probs[j], p) for j, (p, _) in exact_window(n, lam).items()}
    worst = max(errors, key=errors.get)
    assert errors[worst] <= 1e-12, (worst, errors[worst])
