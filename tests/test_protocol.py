import hashlib
import io
import math
import random
import warnings
from array import array
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import stats

from qpurify import (
    MixedQubit,
    SizeLimitError,
    block_fidelity,
    block_probability,
    block_spectrum,
    build_schur_basis,
    density_matrix,
    kron_power,
    mean_fidelity,
    multiplicity,
    random_direction,
    run_protocol,
    run_protocol_dense,
    write_outcomes_csv,
    yield_factor,
)
from qpurify.protocol import _binomial, _log_binomial_ratio, _multinomial, _shuffle

from conftest import ROOT, run_python


def dumped_csv(outcomes) -> str:
    buf = io.StringIO()
    write_outcomes_csv(outcomes, buf)
    return buf.getvalue()


def dumped_rows(outcomes) -> list[tuple[int, int, int, int, float]]:
    """The (trial, j, alpha, kept, fidelity) rows of the per-trial CSV, parsed back."""
    header, *lines = dumped_csv(outcomes).splitlines()
    assert header == "trial,j,alpha,kept,fidelity"
    return [(int(t), int(j), int(a), int(k), float(f)) for t, j, a, k, f in (line.split(",") for line in lines)]


class TestFastPath:
    def test_seed_determinism(self):
        q = MixedQubit(0.6)
        a = run_protocol(q, 20, trials=5000, seed=9, keep_outcomes=True)
        b = run_protocol(q, 20, trials=5000, seed=9, keep_outcomes=True)
        assert a == b
        assert dumped_csv(a.outcomes) == dumped_csv(b.outcomes)
        c = run_protocol(q, 20, trials=5000, seed=10)
        assert c != a

    def test_pure_input_always_top_spin(self):
        summary = run_protocol(MixedQubit(1.0), 8, trials=500, seed=1)
        assert summary.histogram[4] == 500
        assert summary.empirical_yield == 1.0
        assert summary.empirical_mean_fidelity == 1.0
        assert summary.yield_se == 0.0

    def test_sample_on_one_value_takes_the_drawn_spread(self):
        # all 10 trials in j = 2: the sample fidelity SE is 0 in exact arithmetic but 3.7e-17 in
        # floating point, so neither may stand for it
        n, lam, trials = 4, 0.9, 10
        summary = run_protocol(MixedQubit(lam), n, trials, seed=1)
        assert summary.histogram == {0: 0, 1: 0, 2: trials}
        rows = block_spectrum(n, lam).rows
        probs = np.array([row.probability for row in rows])
        p = probs / math.fsum(probs)
        for se, values in ((summary.yield_se, np.arange(3) / 2), (summary.fidelity_se, np.array([row.fidelity for row in rows]))):
            assert se == pytest.approx(math.sqrt(p @ (values - p @ values) ** 2 / trials), rel=1e-12)

    def test_two_qubit_yield_within_three_sigma(self):
        summary = run_protocol(MixedQubit(0.5), 2, trials=100_000, seed=5)
        target = 0.8125
        assert abs(summary.empirical_yield - target) < 3 * summary.yield_se

    def test_large_register_matches_closed_forms(self):
        q = MixedQubit(0.6)
        summary = run_protocol(q, 20, trials=100_000, seed=42)
        assert abs(summary.empirical_yield - yield_factor(20, 0.6)) < 3 * summary.yield_se
        assert (
            abs(summary.empirical_mean_fidelity - mean_fidelity(20, 0.6))
            < 3 * summary.fidelity_se
        )

    def test_per_spin_frequencies_within_four_sigma(self):
        n, lam, trials = 20, 0.6, 1_000_000
        summary = run_protocol(MixedQubit(lam), n, trials=trials, seed=3)
        for j, count in summary.histogram.items():
            p = block_probability(n, lam, j)
            se = math.sqrt(max(p * (1 - p), 1e-12) / trials)
            assert abs(count / trials - p) < 4 * se + 1e-9

    def test_copy_index_uniform_within_spin(self):
        n, lam = 4, 0.5
        summary = run_protocol(MixedQubit(lam), n, trials=200_000, seed=8, keep_outcomes=True)
        for j in (0, 1):
            alphas = [alpha for _, jj, alpha, _, _ in dumped_rows(summary.outcomes) if jj == j]
            counts = np.bincount(alphas, minlength=multiplicity(n, j) + 1)[1:]
            assert len(counts) == multiplicity(n, j)
            assert stats.chisquare(counts).pvalue > 0.001

    def test_summary_from_counts_matches_per_trial_records(self):
        for n, summary in (
            (20, run_protocol(MixedQubit(0.6), 20, trials=20_000, seed=13, keep_outcomes=True)),
            (6, run_protocol_dense(MixedQubit(0.5, (0.6, 0.0, 0.8)), 6, 5000, 13, keep_outcomes=True)),
        ):
            rows = dumped_rows(summary.outcomes)
            yields = np.array([2 * j / n for _, j, _, _, _ in rows])
            fids = np.array([fid for *_, fid in rows])
            root_t = math.sqrt(summary.trials)
            assert summary.empirical_yield == pytest.approx(np.mean(yields), abs=1e-12)
            assert summary.yield_se == pytest.approx(np.std(yields, ddof=1) / root_t, abs=1e-12)
            assert summary.empirical_mean_fidelity == pytest.approx(np.mean(fids), abs=1e-12)
            assert summary.fidelity_se == pytest.approx(np.std(fids, ddof=1) / root_t, abs=1e-12)
            assert summary.yield_se > 0 and summary.fidelity_se > 0

    def test_summary_does_not_depend_on_keep_outcomes(self):
        q = MixedQubit(0.6)
        kept = run_protocol(q, 30, trials=10_000, seed=17, keep_outcomes=True)
        plain = run_protocol(q, 30, trials=10_000, seed=17)
        assert plain == kept and not plain != kept
        assert plain.outcomes is None and len(kept.outcomes) == 10_000
        js = [j for _, j, _, _, _ in dumped_rows(kept.outcomes)]
        assert np.bincount(js, minlength=16).tolist() == list(plain.histogram.values())
        dense_q = MixedQubit(0.5, (0.6, 0.0, 0.8))
        assert run_protocol_dense(dense_q, 4, 3000, 17, keep_outcomes=True) == run_protocol_dense(
            dense_q, 4, 3000, 17
        )

    def test_billion_trials_in_one_draw(self):
        n, lam, trials = 1000, 0.6, 10**9
        summary = run_protocol(MixedQubit(lam), n, trials=trials, seed=1)
        assert sum(summary.histogram.values()) == trials
        assert summary.label_histogram == {}
        assert abs(summary.empirical_yield - yield_factor(n, lam)) < 4 * summary.yield_se
        assert (
            abs(summary.empirical_mean_fidelity - mean_fidelity(n, lam))
            < 4 * summary.fidelity_se
        )

    def test_norm_defect_is_reported(self):
        summary = run_protocol(MixedQubit(0.6), 1000, trials=10, seed=1)
        probs = [row.probability for row in block_spectrum(1000, 0.6).rows]
        assert summary.norm_defect == math.fsum(probs) - 1.0
        assert 0 < abs(summary.norm_defect) < 1e-12

    def test_records_shape(self):
        summary = run_protocol(MixedQubit(0.5), 4, trials=200, seed=2, keep_outcomes=True)
        assert len(summary.outcomes) == 200
        assert sum(summary.histogram.values()) == 200
        rows = dumped_rows(summary.outcomes)
        assert [trial for trial, *_ in rows] == list(range(200))
        for _, j, alpha, kept, fid in rows:
            assert kept == 2 * j
            assert 1 <= alpha <= multiplicity(4, j)
            if j >= 1:
                assert 0.5 <= fid <= 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_protocol(MixedQubit(0.5), 3, trials=10, seed=0)
        with pytest.raises(ValueError):
            run_protocol(MixedQubit(0.5), 4, trials=0, seed=0)
        with pytest.raises(ValueError):
            run_protocol(MixedQubit(0.5), 4, trials=2**63, seed=0)


class TestSampler:
    @pytest.mark.parametrize("p", [0.02, 0.3, 0.5])
    @pytest.mark.parametrize("n", [20, 10**3, 10**6, 10**9, 2**53, 2**63 - 1])
    def test_log_ratio_matches_mpmath(self, n, p):
        # BTRS's acceptance test, log(b(k) / b(m)) at the mode m, k = m +- 1, 3 and 6 sigma and
        # k in {0, 1}; the naive lgamma difference is off by up to 5.2e4 at n = 2**63 - 1.  At
        # (20, 0.02) the mode is 0, where BTRS never runs (np < 10), so the anchor is 1 there.
        # Far tails reach -1e18, so the bound is relative beyond magnitude 1.
        num, den = p.as_integer_ratio()
        m = max(1, (n + 1) * num // den)
        sigma = math.sqrt(n * p * (1 - p))
        ks = {0, 1, m} | {m + sign * round(z * sigma) for z in (1, 3, 6) for sign in (-1, 1)}
        ratio = _log_binomial_ratio(n, p, m)
        with mpmath.workdps(60):
            log_odds = mpmath.log(mpmath.mpf(p) / (1 - mpmath.mpf(p)))
            for k in sorted(k for k in ks if 0 <= k <= n):
                exact = (
                    mpmath.loggamma(m + 1) + mpmath.loggamma(n - m + 1)
                    - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1) + (k - m) * log_odds
                )
                assert abs(ratio(k) - exact) <= 1e-6 * max(1, abs(exact)), k

    def test_binomial_edge_cases(self):
        rng = random.Random(1)
        assert _binomial(rng, 10**6, 0.0) == 0
        assert _binomial(rng, 2**63 - 1, 1.0) == 2**63 - 1
        assert _binomial(rng, 0, 0.3) == _binomial(rng, 0, 0.9) == 0
        for n, p in ((40, 0.85), (10**6, 0.7)):  # p > 1/2 is n minus a draw at 1 - p
            assert _binomial(random.Random(7), n, p) == n - _binomial(random.Random(7), n, 1.0 - p)

    @pytest.mark.parametrize(("n", "p"), [(200, 0.02), (10**6, 4e-6), (40, 0.85), (200, 0.3), (5000, 0.5)])
    def test_binomial_matches_scipy(self, n, p):
        # np < 10 (Devroye's geometric method, directly or by symmetry) and np >= 10 (BTRS)
        draws = 50_000
        rng = random.Random(3)
        counts = np.bincount([_binomial(rng, n, p) for _ in range(draws)], minlength=n + 1)
        expected = stats.binom.pmf(np.arange(n + 1), n, p) * draws
        big = expected >= 5  # pool the sparse tails into one cell
        observed = np.append(counts[big], counts[~big].sum())
        expected = np.append(expected[big], draws - expected[big].sum())
        assert stats.chisquare(observed, expected).pvalue > 1e-3

    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_binomial_moments_at_2_62(self, p):
        n, draws = 2**62, 20_000
        center = n * Fraction(p)  # the exact mean
        base = round(center)
        rng = random.Random(11)
        devs = [_binomial(rng, n, p) - base for _ in range(draws)]  # exact small ints
        npq = n * p * (1 - p)
        mean = math.fsum(devs) / draws
        var = math.fsum((d - mean) ** 2 for d in devs) / (draws - 1)
        assert abs(mean - float(center - base)) < 4 * math.sqrt(npq / draws)
        # var(s^2) ~ (mu4 - sigma^4) / draws with the binomial mu4 = 3 npq^2 + npq (1 - 6pq)
        assert abs(var - npq) < 4 * math.sqrt((2 * npq**2 + npq * (1 - 6 * p * (1 - p))) / draws)

    def test_multinomial_never_draws_zero_probability_outcomes(self):
        rng = random.Random(2)
        for trials in (1, 1000, 2**63 - 1):
            counts = _multinomial(rng, trials, [0.0, 0.25, 0.0, 0.5, 0.25, 0.0, 0.0])
            assert sum(counts) == trials
            assert counts[0] == counts[2] == counts[5] == counts[6] == 0

    def test_histogram_sums_exactly_at_the_largest_trial_count(self):
        summary = run_protocol(MixedQubit(0.6), 1000, trials=2**63 - 1, seed=1)
        assert sum(summary.histogram.values()) == 2**63 - 1


class TestDensePath:
    def test_seed_determinism(self):
        q = MixedQubit(0.5, (0.6, 0.0, 0.8))
        a = run_protocol_dense(q, 4, trials=2000, seed=21)
        b = run_protocol_dense(q, 4, trials=2000, seed=21)
        assert a == b

    def test_label_histogram_from_counts(self):
        from qpurify.blocks import block_coordinates

        n, trials = 4, 20_000
        for q in (MixedQubit(0.5, (0.6, 0.0, 0.8)), MixedQubit(1.0, (0.0, 0.6, 0.8))):
            summary = run_protocol_dense(q, n, trials=trials, seed=19)
            coords = block_coordinates(build_schur_basis(n), kron_power(density_matrix(q), n))
            traces = {
                (j, a + 1): np.trace(b).real for j, bs in coords.items() for a, b in enumerate(bs)
            }
            assert sum(summary.label_histogram.values()) == trials
            assert all(traces[label] > 1e-14 for label in summary.label_histogram)
            folded = {j: 0 for j in range(n // 2 + 1)}
            for (j, _), count in summary.label_histogram.items():
                folded[j] += count
            assert folded == summary.histogram
        assert summary.label_histogram == {(2, 1): trials}

    def test_maximally_mixed_two_qubits(self):
        summary = run_protocol_dense(MixedQubit(0.0), 2, trials=100_000, seed=4)
        freq0 = summary.histogram[0] / summary.trials
        assert abs(freq0 - 0.25) < 4 * math.sqrt(0.25 * 0.75 / summary.trials)

    def test_pure_two_qubits_always_symmetric(self):
        summary = run_protocol_dense(MixedQubit(1.0), 2, trials=300, seed=6)
        assert summary.histogram == {0: 0, 1: 300}

    def test_label_frequencies_match_traces(self):
        n, lam, trials = 4, 0.5, 100_000
        summary = run_protocol_dense(MixedQubit(lam, (0.6, 0.0, 0.8)), n, trials=trials, seed=7)
        for (j, alpha), count in summary.label_histogram.items():
            p = block_probability(n, lam, j) / multiplicity(n, j)
            se = math.sqrt(p * (1 - p) / trials)
            assert abs(count / trials - p) < 4 * se

    def test_distribution_matches_fast_path(self):
        q = MixedQubit(0.5)
        dense = run_protocol_dense(q, 4, trials=50_000, seed=31)
        fast = run_protocol(q, 4, trials=50_000, seed=77)
        table = np.array(
            [
                [dense.histogram[j] for j in sorted(dense.histogram)],
                [fast.histogram[j] for j in sorted(fast.histogram)],
            ]
        )
        assert stats.chi2_contingency(table).pvalue > 0.001

    def test_fidelities_match_closed_form(self):
        for n in (4, 6, 8):
            q = MixedQubit(0.5, (0.6, 0.0, 0.8))
            summary = run_protocol_dense(q, n, trials=5000, seed=12, keep_outcomes=True)
            expected = {j: block_fidelity(0.5, j) for j in range(n // 2 + 1)}
            for _, j, _, _, fid in dumped_rows(summary.outcomes):
                assert fid == pytest.approx(expected[j], abs=1e-12)

    @pytest.mark.parametrize("lam", [0.99, 0.999])
    def test_drawable_copies_share_their_spins_fidelity(self, lam):
        # a copy scored over its own trace (6.2e-14 for spin 1 at lam = 0.999) lands up to 1.2e-6 off
        from qpurify.blocks import power_coordinates

        n, q = 10, MixedQubit(lam, random_direction(random.Random(0)))
        outcomes = run_protocol_dense(q, n, 10, 0, keep_outcomes=True).outcomes
        coords = power_coordinates(build_schur_basis(n), density_matrix(q))
        traces = np.concatenate([np.trace(coords[j], axis1=1, axis2=2).real for j in sorted(coords)])
        drawable = {}  # spin -> the fidelities of its copies with trace >= 1e-14
        for j, fid, trace in zip(outcomes.js, outcomes.fids, traces):
            if trace >= 1e-14:
                drawable.setdefault(j, set()).add(fid)
        assert set(range(1, n // 2 + 1)) <= set(drawable)  # spin 0 has none at lam = 0.999
        for j, fids in drawable.items():
            assert len(fids) == 1, j
            assert abs(fids.pop() - block_fidelity(lam, j)) <= 1e-8, j

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_spins_that_cannot_be_drawn(self, n):
        # at lam = 1 every copy below the top spin has trace 0, so a spin's ratio would be 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = run_protocol_dense(MixedQubit(1.0), n, 1000, n)
        moments = (summary.empirical_yield, summary.yield_se, summary.empirical_mean_fidelity, summary.fidelity_se)
        assert all(map(math.isfinite, moments))
        assert summary.empirical_mean_fidelity == 1.0
        assert summary.histogram[n // 2] == 1000

    def test_cap_enforced(self):
        with pytest.raises(SizeLimitError):
            run_protocol_dense(MixedQubit(0.5), 14, trials=10, seed=0)


def test_outcome_csv_roundtrip():
    outcomes = run_protocol(MixedQubit(0.5), 4, trials=50, seed=15, keep_outcomes=True).outcomes
    rows = dumped_rows(outcomes)
    assert len(rows) == 50
    for (_, j, _, kept, fid), i in zip(rows, outcomes.order):
        assert (j, kept) == (outcomes.js[i], 2 * outcomes.js[i])
        assert fid == outcomes.fids[i]  # loss-free round trip


@pytest.mark.parametrize(
    ("n", "trials", "seed", "dense", "digest"),
    [
        (20, 5000, 9, False, "bc60e04b21ef2002"),
        (100, 100_000, 3, False, "2ab8361f8f9d2d68"),
        (4, 500, 2, True, "4090e82b67d94d1c"),
        (600, 20_000, 7, False, "f5d0e6c136015f24"),  # 301 outcomes: a 2-byte order
    ],
)
def test_outcome_csv_golden(n, trials, seed, dense, digest):
    # sha256 prefixes of `simulate --lambda 0.6 ... --dump-trials`, pinning the seed -> CSV mapping
    run = run_protocol_dense if dense else run_protocol
    text = dumped_csv(run(MixedQubit(0.6), n, trials, seed, keep_outcomes=True).outcomes)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("code", "BHIL")
@pytest.mark.parametrize("length", [1, 2, 3, 255, 256, 257, 65535, 65536, 65537, 100_000])
def test_shuffle_is_the_standard_librarys(code, length):
    # the same permutation and the same generator state afterwards as random.Random.shuffle
    a = array(code, [i % (1 << 8 * array(code).itemsize) for i in range(length)])
    expected, ref = a.tolist(), random.Random(length)
    ref.shuffle(expected)
    rng = random.Random(length)
    _shuffle(rng, memoryview(a))
    assert a.tolist() == expected
    assert rng.getstate() == ref.getstate()


def test_outcome_csv_is_repeatable():
    # the copy indices are drawn anew from alpha_seed on every write
    for summary in (
        run_protocol(MixedQubit(0.6), 100, 70_000, 5, keep_outcomes=True),
        run_protocol_dense(MixedQubit(0.6), 4, 300, 5, keep_outcomes=True),
    ):
        first = dumped_csv(summary.outcomes)
        assert dumped_csv(summary.outcomes) == first
        assert [int(line.split(",")[0]) for line in first.splitlines()[1:]] == list(range(summary.trials))


# main(argv), then the child's own peak RSS on stderr: VmHWM starts afresh at exec, where ru_maxrss would start
# from the RSS of the parent that forked the child
_PEAK_RSS = (
    "import sys; from qpurify.cli import main; code = main(sys.argv[1:]); "
    "print(next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')), file=sys.stderr); "
    "sys.exit(code)"
)


def test_outcome_dump_memory_is_bounded(tmp_path):
    # one 1-byte outcome index per trial plus one chunk of text over the same run without a dump; a list of
    # records reached 195 MB
    argv = "simulate --n 100 --lambda 0.6 --trials 1000000 --seed 1".split()
    dump = tmp_path / "trials.csv"
    peaks = []
    for extra in ([], ["--dump-trials", str(dump)]):
        run = run_python("-c", _PEAK_RSS, *argv, *extra)
        assert run.returncode == 0 and run.stdout.endswith(b"\nstatus=pass\n")
        value, unit = run.stderr.split()[-2:]
        assert unit == b"kB"
        peaks.append(int(value) * 1024)
    assert peaks[1] - peaks[0] < 40e6
    with open(dump, "rb") as fh:
        assert sum(1 for _ in fh) == 10**6 + 1


def test_scaling_script_runs():
    # the exact averages against their large-N forms to N = 40, and 10^6 Monte Carlo trials at N = 40
    args = ("--lambda", "0.6", "--n-max", "40", "--trials", "1000000")
    run = run_python(str(ROOT / "scripts" / "protocol_scaling.py"), *args)
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout.splitlines()[-1].startswith(b"monte carlo at N=40: ")


def test_kept_outcomes_must_fit_in_memory(monkeypatch):
    # 1 byte a trial: 11 outcomes at N = 20, 6 labels at n = 4
    monkeypatch.setattr("qpurify.core._mem_available_bytes", lambda: 999)
    with pytest.raises(SizeLimitError):
        run_protocol(MixedQubit(0.6), 20, 1000, 1, keep_outcomes=True)
    with pytest.raises(SizeLimitError):
        run_protocol_dense(MixedQubit(0.6), 4, 1000, 1, keep_outcomes=True)
    assert run_protocol(MixedQubit(0.6), 20, 1000, 1).outcomes is None
    assert len(run_protocol(MixedQubit(0.6), 20, 999, 1, keep_outcomes=True).outcomes) == 999
    monkeypatch.setattr("qpurify.core._mem_available_bytes", lambda: None)
    assert len(run_protocol(MixedQubit(0.6), 20, 1000, 1, keep_outcomes=True).outcomes) == 1000
