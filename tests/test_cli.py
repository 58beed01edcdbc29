import hashlib
import math
import os
import random
import shlex
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import qpurify
from qpurify import analytics, cloning, random_direction
from qpurify.cli import _build_parser, main
from qpurify.core import BlockLabel

from conftest import run_cli_peak_rss, run_python
from exact import exact_clone_lambda, exact_estimation_lambda


def assert_digits_right(text, value):
    """``text`` is <mantissa>e<exponent> with 1 <= mantissa < 10, within one unit of its last digit of ``value``."""
    mantissa, exponent = text.split("e")
    assert 1 <= float(mantissa) < 10
    digits = mantissa.replace(".", "")
    unit = 10 ** (int(exponent) - len(digits) + 1)
    assert abs(int(digits) * unit - value) < unit


_PRINTABLE = 10**4300  # a d_j with fewer digits prints exactly


def exact_counts(n):
    """Every d_j = C(n, J - j)(2j + 1)/(J + j + 1), j = 0..J, from one ``math.comb`` walked down from the middle."""
    J, comb, counts = n // 2, math.comb(n, n // 2), []
    for j in range(J + 1):
        counts.append(comb * (2 * j + 1) // (J + j + 1))
        comb = comb * (J - j) // (J + j + 1)
    return counts


def run_cli(*args, out=None):
    argv = list(args)
    if out is not None:
        argv += ["--out", str(out)]
    return main(argv)


# peak RSS bound of the dense commands at the cap: the 128 MiB basis, about 30 MiB of interpreter and numpy, and
# working sets of one copy's rows (192 MiB for verify, 174 MiB for simulate --dense)
_DENSE_CAP_PEAK_MIB = 300


class TestStats:
    def test_two_qubit_table(self, tmp_path):
        path = tmp_path / "stats.csv"
        assert run_cli("stats", "--n", "2", "--lambda", "0.5", out=path) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "j,d_j,p_j,f_j"
        j0 = lines[1].split(",")
        j1 = lines[2].split(",")
        assert (j0[0], j0[1]) == ("0", "1") and float(j0[2]) == 0.1875
        assert (j1[0], j1[1]) == ("1", "1") and float(j1[2]) == 0.8125
        assert float(j1[3]) == pytest.approx(21 / 26, abs=1e-15)
        assert lines[3] == f"yield={analytics.yield_factor(2, 0.5)!r}"
        assert lines[4] == f"mean_fidelity={analytics.mean_fidelity(2, 0.5)!r}"

    def test_pure_input(self, capsys):
        assert run_cli("stats", "--n", "2", "--lambda", "1") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[2].split(",")[2] == "1.0"  # p_1 = 1

    def test_floats_roundtrip(self, tmp_path):
        path = tmp_path / "stats.csv"
        for n in (8, 200):
            run_cli("stats", "--n", str(n), "--lambda", "0.37", out=path)
            for line in path.read_text().splitlines()[1:-2]:
                j, d, p, f = line.split(",")
                assert float(p) == analytics.block_probability(n, 0.37, int(j))
                assert float(f) == analytics.block_fidelity(0.37, int(j))

    def test_counts_past_the_int_to_str_limit(self, tmp_path):
        path = tmp_path / "stats.csv"
        assert run_cli("stats", "--n", "14300", "--lambda", "0.6", out=path) == 0
        rows = path.read_text().splitlines()[1:-2]
        counts = exact_counts(14300)
        assert len(rows) == len(counts)
        scientific = 0
        for j, (line, count) in enumerate(zip(rows, counts)):
            row_j, d = line.split(",")[:2]
            assert int(row_j) == j
            if count < _PRINTABLE:  # exact below 4,300 digits, as at j = 0..9 here
                assert int(d) == count
                continue
            scientific += 1
            assert_digits_right(d, count)
            mantissa, exponent = d.split("e")
            error = Fraction(mantissa) * 10 ** int(exponent) - count
            assert abs(error) * 10**9 <= count
        assert scientific > 0

    @pytest.mark.parametrize("n, step", [(20000, 1), (100000, 7)])
    def test_every_scientific_cell_is_right_to_its_last_digit(self, n, step, capsys):
        # the exact rows are exactly the d_j below 10^4300, and every step-th row past that is within one unit
        # of its last printed digit: a log d_j from math.lgamma misses 1,640 of the 47,974 rows at N = 10^5,
        # by up to 3.2 units
        assert run_cli("stats", "--n", str(n), "--lambda", "0.6") == 0
        cells = [line.split(",")[1] for line in capsys.readouterr().out.splitlines()[1:-2]]
        counts = exact_counts(n)
        assert len(cells) == len(counts)
        assert [int(d) for d in cells if "e" not in d] == [count for count in counts if count < _PRINTABLE]
        scientific = [(d, count) for d, count in zip(cells, counts) if count >= _PRINTABLE]
        assert all("e" in d for d, _ in scientific)
        for d, count in scientific[::step]:
            assert_digits_right(d, count)

    def test_text_cells_at_a_million_are_right_to_their_last_digit(self):
        # the 5,000 text rows nearest j = J, where a d_j has the fewest digits of any text cell, and every 1,000th
        # row beyond, against a 40-digit log10 of C(n, k)(2j+1)/(J+j+1) from mpmath.loggamma.  A log d_j summed
        # from Stirling series misses 141 of those 5,000 rows, by up to 1.95 units
        n, J = 10**6, 10**6 // 2
        cells = analytics.block_spectrum(n, 0.6).multiplicities
        text = [j for j in range(J, -1, -1) if type(cells[j]) is str]
        wrong = []
        with mpmath.workdps(40):
            log_n = mpmath.loggamma(n + 1)
            for j in text[:5000] + text[5000::1000]:
                k = J - j
                log_d = log_n - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1) + mpmath.log(2 * j + 1)
                log10 = (log_d - mpmath.log(J + j + 1)) / mpmath.ln10
                mantissa, exponent = cells[j].split("e")
                digits = mantissa.replace(".", "")  # the cell is int(digits) units of its last printed digit
                if abs(int(digits) - mpmath.power(10, log10 - int(exponent) + len(digits) - 1)) >= 1:
                    wrong.append((j, cells[j]))
        assert len(text) == 498705 and not wrong, f"{len(wrong)} cells off, first {wrong[:3]}"

    @pytest.mark.parametrize(
        "value, text",
        [(3**200000, "1.78214868e95424"), (10**5000 - 1, "1.0e5000"), (99999999996 * 10**4400, "1.0e4411")],
        ids=["3**200000", "10**5000-1", "99999999996e4400"],
    )
    def test_text_past_the_int_to_str_limit(self, value, text):
        # 10^k - 1 rounds up into the next decade, never to a mantissa of 10; log10(10**5000 - 1) is 5000.0
        # already, so only a mantissa such as 9.9999999996, rounded to the printed places, reaches the carry
        assert analytics._scientific(math.log10(value)) == text
        assert_digits_right(text, value)

    def test_tsv_format(self, capsys):
        assert run_cli("stats", "--n", "2", "--lambda", "0.5", "--format", "tsv") == 0
        assert capsys.readouterr().out.splitlines()[0] == "j\td_j\tp_j\tf_j"

    def test_odd_register_usage_error(self, capsys):
        assert run_cli("stats", "--n", "3", "--lambda", "0.5") == 2
        assert "even" in capsys.readouterr().err

    def test_bad_lambda_usage_error(self):
        assert run_cli("stats", "--n", "2", "--lambda", "1.5") == 2
        assert run_cli("stats", "--n", "2", "--lambda", "zebra") == 2
        assert run_cli("stats", "--n", "2", "--lambda", "0.2,0.4") == 2


class TestVerify:
    def test_small_register_passes(self, tmp_path):
        path = tmp_path / "verify.csv"
        assert run_cli("verify", "--n", "4", "--lambda", "0.37", "--tol", "1e-9", out=path) == 0
        lines = path.read_text().splitlines()
        assert lines[-1] == "status=pass"
        checks = {line.split(",")[0] for line in lines[2:-1]}
        assert checks == {"decomposition", "post_state", "quadrature", "reversibility", "covariance"}

    def test_degenerate_lambda(self):
        assert run_cli("verify", "--n", "2", "--lambda", "0", out=None) == 0

    def test_pure_lambda(self):
        assert run_cli("verify", "--n", "2", "--lambda", "1", out=None) == 0

    def test_cap_exceeded_usage_error(self, capsys):
        assert run_cli("verify", "--n", "14", "--lambda", "0.5") == 2
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "20"])
    def test_cap_ignores_the_environment(self, value, capsys, monkeypatch):
        # the cap is a constant: no variable can break it or lift it
        monkeypatch.setenv("SCHUR_CAP", value)
        assert run_cli("verify", "--n", "4", "--lambda", "0.5") == 0
        capsys.readouterr()
        start = time.perf_counter()
        assert run_cli("verify", "--n", "14", "--lambda", "0.5") == 2
        assert time.perf_counter() - start < 0.5
        out, err = capsys.readouterr()
        assert out == "" and err == "error: n=14 exceeds the dense cap of 12 qubits\n"

    def test_dense_gate_passed_once_per_basis(self, capsys, monkeypatch):
        # one basis serves every row, so one MemAvailable read, not one per check or per label
        reads = []
        real = qpurify.core._mem_available_bytes
        monkeypatch.setattr("qpurify.core._mem_available_bytes", lambda: reads.append(1) or real())
        assert run_cli("verify", "--n", "8", "--lambda", "0.6", "--seed", "1") == 0
        assert len(reads) == 1

    def test_memory_estimate_usage_error(self, capsys, monkeypatch):
        # the n = 4 estimate is about 64 MiB, nearly all of it the fixed allowance
        monkeypatch.setattr("qpurify.core._mem_available_bytes", lambda: 1024)
        assert run_cli("verify", "--n", "4", "--lambda", "0.5") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n=4 needs about") and err.count("\n") == 1

    def test_unreachable_tolerance_fails(self, tmp_path):
        path = tmp_path / "verify.csv"
        assert run_cli("verify", "--n", "2", "--lambda", "0.5", "--tol", "1e-20", out=path) == 1
        assert path.read_text().splitlines()[-1] == "status=fail"

    @staticmethod
    def dense_cap_lines(*args):
        # every copy has a post_state and a round-trip row at every lambda: 924 of each at n = 12
        run, peak_mib = run_cli_peak_rss("verify", "--n", "12", *args)
        assert (run.returncode, run.stderr) == (0, b"")
        assert peak_mib < _DENSE_CAP_PEAK_MIB
        lines = run.stdout.decode().splitlines()
        assert lines[-1] == "status=pass" and lines[-2].startswith("covariance,collective_lowering,")
        checks = Counter(line.split(",")[0] for line in lines[2:-1])
        assert checks == {"decomposition": 3, "post_state": 924, "quadrature": 6, "reversibility": 924, "covariance": 1}
        return lines

    def test_dense_cap_passes_every_row(self):
        self.dense_cap_lines("--lambda", "0.6")

    def test_dense_cap_passes_a_nearly_pure_input(self):
        # copies of trace down to about 1e-20 are judged on the state's scale, at the one default tolerance
        assert " tol=1e-10 " in self.dense_cap_lines("--lambda", "0.999", "--seed", "0")[0]

    def test_nearly_pure_input_passes(self):
        assert run_cli("verify", "--n", "8", "--lambda", "0.999", "--seed", "0") == 0


class TestSimulate:
    def test_matches_closed_forms(self, tmp_path):
        path = tmp_path / "sim.txt"
        code = run_cli(
            "simulate", "--n", "20", "--lambda", "0.6", "--trials", "100000", "--seed", "42",
            out=path,
        )
        assert code == 0
        fields = dict(
            line.split("=", 1) for line in path.read_text().splitlines() if "=" in line
        )
        assert abs(float(fields["yield_z"])) < 4
        assert abs(float(fields["fidelity_z"])) < 4
        assert fields["status"] == "pass"
        lines = path.read_text().splitlines()
        assert lines[-2] == f"norm_defect={fields['norm_defect']}"
        assert abs(float(fields["norm_defect"])) < 1e-12

    def test_trial_count_out_of_range_usage_error(self, capsys):
        for trials in ("0", str(2**63)):
            args = ("simulate", "--n", "4", "--lambda", "0.5", "--trials", trials, "--seed", "1")
            assert run_cli(*args) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: argument --trials: expected an integer in 1..2**63 - 1")
            assert f"got '{trials}'" in err

    def test_negative_seed_usage_error(self, capsys):
        for command in (("simulate", "--trials", "10"), ("verify",)):
            assert run_cli(*command, "--n", "4", "--lambda", "0.5", "--seed", "-1") == 2
            assert capsys.readouterr().err == "error: argument --seed: expected a non-negative integer, got '-1'\n"

    def test_oversized_dump_usage_error(self, tmp_path, capsys):
        # 1 byte a trial at 2**62 trials is 4 EiB: refused before anything is allocated
        dump = tmp_path / "trials.csv"
        args = ("simulate", "--n", "20", "--lambda", "0.6", "--trials", str(2**62), "--seed", "1")
        assert run_cli(*args, "--dump-trials", str(dump)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: keeping {2**62} trial outcomes needs about")
        assert err.count("\n") == 1
        assert not dump.exists()

    @pytest.mark.parametrize(
        "n, lam, code, setting",
        # named n-lam-code at Python's default int_max_str_digits=4300, with the setting appended at the others;
        # 0 is no limit, so D stays 4,300, and at 640 every case has a drawable d_j past D and is refused
        [
            pytest.param(n, lam, code, setting, id="-".join(map(str, (n, lam, code, setting)[: 3 + (setting != 4300)])))
            for setting in (4300, 0, 640)
            for n, lam, code in [(14298, 0.02, 0), (14300, 0.02, 2), (14300, 0.6, 0), (20000, 0.6, 2)]
            for code in [2 if setting == 640 else code]
        ],
    )
    def test_dump_past_the_int_to_str_limit_is_refused(self, n, lam, code, setting, tmp_path):
        # refused before the draw and the file when an outcome with p_j > 0 has a d_j of more than D digits, D = 4,300
        # or a lower int_max_str_digits: at lam = 0.02 the peak d_j (j = 59, p_j ~ 1e-3) passes 4,300 digits between
        # N = 14,298 and 14,300; at lam = 0.6 the drawable d_j have 3,969 digits at most at N = 14,300, and at
        # N = 20,000 90 % of the mass is past 4,300
        digits = setting or 4300
        dump = tmp_path / "trials.csv"
        args = f"simulate --n {n} --lambda {lam} --trials 10 --seed 1 --dump-trials {dump}".split()
        run = run_python("-X", f"int_max_str_digits={setting}", "-m", "qpurify", *args)
        assert run.returncode == code
        if code:
            assert run.stderr == (
                f"error: a trial dump at n={n} may draw an alpha of more than {digits} digits\n"
            ).encode()
            assert run.stdout == b"" and not dump.exists()
        else:
            assert run.stderr == b"" and len(dump.read_text().splitlines()) == 11

    def test_dump_builds_no_text(self, tmp_path, monkeypatch):
        # a dump reads exact d_j only for the rows it can draw, and refuses a drawable row past the printable
        # digits without formatting any <mantissa>e<exponent> cell; stats still formats them
        def no_text(log10):
            raise AssertionError("_scientific called")

        monkeypatch.setattr(analytics, "_scientific", no_text)
        dump = tmp_path / "trials.csv"
        for lam, code in (("1", 0), ("0.6", 2)):
            args = ("simulate", "--n", "100000", "--lambda", lam, "--trials", "10", "--seed", "1")
            assert run_cli(*args, "--dump-trials", str(dump)) == code
            if code:
                assert not dump.exists()
            else:
                assert len(dump.read_text().splitlines()) == 11
                dump.unlink()
        with pytest.raises(AssertionError, match="_scientific called"):
            run_cli("stats", "--n", "20000", "--lambda", "0.6")

    def test_pure_input_exact_yield(self, tmp_path):
        path = tmp_path / "sim.txt"
        assert (
            run_cli("simulate", "--n", "2", "--lambda", "1", "--trials", "10", "--seed", "1", out=path)
            == 0
        )
        fields = dict(line.split("=", 1) for line in path.read_text().splitlines())
        assert float(fields["empirical_yield"]) == 1.0

    def test_sample_without_spread_uses_the_drawn_distribution(self, capsys):
        # all 5 trials land in j = 1 (probability 0.75**5) at seed 2: the sample SE is 0, the drawn
        # one is not
        assert run_cli("simulate", "--n", "2", "--lambda", "0", "--trials", "5", "--seed", "2") == 0
        fields = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        assert fields["histogram"] == "0:0;1:5"
        assert float(fields["yield_se"]) == pytest.approx((0.75 * 0.25 / 5) ** 0.5, rel=1e-12)
        assert abs(float(fields["yield_z"])) < 4 and fields["status"] == "pass"

    def test_wrong_target_fails_without_spread(self, monkeypatch, capsys):
        # at lambda = 1 every trial keeps all qubits and the drawn distribution has no spread either
        monkeypatch.setattr("qpurify.analytics.yield_factor", lambda n, lam: 0.9)
        assert run_cli("simulate", "--n", "4", "--lambda", "1", "--trials", "10", "--seed", "1") == 1
        fields = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        assert fields["yield_se"] == "0.0" and fields["status"] == "fail"

    def test_byte_identical_repetition(self, capsys):
        args = ("simulate", "--n", "6", "--lambda", "0.5", "--trials", "2000", "--seed", "3")
        assert run_cli(*args) == 0
        first = capsys.readouterr().out
        assert run_cli(*args) == 0
        assert capsys.readouterr().out == first

    def test_dense_mode_and_trial_dump(self, tmp_path):
        dump = tmp_path / "trials.csv"
        path = tmp_path / "sim.txt"
        code = run_cli(
            "simulate", "--n", "4", "--lambda", "0.5", "--trials", "500", "--seed", "2",
            "--dense", "--dump-trials", str(dump), out=path,
        )
        assert code == 0
        fields = dict(line.split("=", 1) for line in path.read_text().splitlines())
        assert fields["mode"] == "dense"
        rows = dump.read_text().splitlines()
        assert rows[0] == "trial,j,alpha,kept,fidelity"
        assert len(rows) == 501

    @pytest.mark.parametrize("existing", [False, True])
    def test_dump_and_out_naming_one_file_is_refused_before_the_work(self, existing, tmp_path, monkeypatch, capsys):
        # ./x.csv and x.csv are one file; the dump would be overwritten by the report
        monkeypatch.chdir(tmp_path)
        if existing:
            Path("x.csv").write_text("kept\n")
        args = ("simulate", "--n", "20", "--lambda", "0.6", "--trials", "100", "--seed", "1")
        assert run_cli(*args, "--dump-trials", "x.csv", out="./x.csv") == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --out and --dump-trials name the same file")
        assert err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == (["x.csv"] if existing else [])
        assert not existing or Path("x.csv").read_text() == "kept\n"


class TestFigure1:
    def test_default_grid(self, tmp_path):
        path = tmp_path / "fig1.csv"
        assert run_cli("figure1", out=path) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "N,lambda,lambda_mix_inf"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 20 * 5
        by_lam = {}
        for n, lam, value in rows:
            by_lam.setdefault(float(lam), []).append((int(n), float(value)))
        assert set(by_lam) == {0.2, 0.4, 0.6, 0.8, 1.0}
        for n, value in by_lam[1.0]:
            assert abs(value - n / (n + 2)) < 1e-12
        for lam, curve in by_lam.items():
            values = [v for _, v in sorted(curve)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_small_lengths_keep_their_relative_accuracy(self, capsys):
        # the curve is a sum of Bloch lengths, so it stays nonzero and exact to rounding down to lam = 1e-100
        assert run_cli("figure1", "--n", "6", "--lambda", "1e-100,1e-12") == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 2 * 3
        for n, lam, value in rows:
            exact = exact_estimation_lambda(int(n), Fraction(float(lam)))
            assert float(value) > 0.0 and abs(Fraction(float(value)) - exact) <= Fraction(1e-14) * exact, (n, lam)

    def test_custom_lambda_list(self, tmp_path):
        path = tmp_path / "fig1.csv"
        assert run_cli("figure1", "--n", "10", "--lambda", "0.3,0.9", out=path) == 0
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert len(rows) == 5 * 2
        for n, lam, value in rows:
            assert float(value) == cloning.estimation_lambda(int(n), float(lam))

    def test_repeated_lambda_prints_its_curve_each_time(self, tmp_path):
        path = tmp_path / "fig1.csv"
        assert run_cli("figure1", "--n", "6", "--lambda", "0.6,0.2,0.6", out=path) == 0
        rows = [tuple(line.split(",")) for line in path.read_text().splitlines()[1:]]
        assert [(n, lam) for n, lam, _ in rows] == [(str(n), lam) for lam in ("0.6", "0.2", "0.6") for n in (2, 4, 6)]
        assert rows[:3] == rows[6:]
        for n, lam, value in rows:
            assert float(value) == cloning.estimation_lambda(int(n), float(lam))

    def test_no_cache_cliff_past_32_values_of_lambda(self, capsys):
        # lam outer: each of 40 lambdas builds its columns once per power of two >= J + 1, 8 up to J = 200;
        # an N-outer loop over more lambdas than the cache holds would miss on every call
        analytics._lambda_columns.cache_clear()
        lams = ",".join(str(i / 40) for i in range(40))
        assert run_cli("figure1", "--n", "400", "--lambda", lams) == 0
        capsys.readouterr()
        assert analytics._lambda_columns.cache_info().misses == 40 * 8

    def test_builds_no_exact_multiplicities(self, capsys, monkeypatch):
        # the float spectrum takes no exact d_j: not one multiplicity, and no column of them
        anchors, exact = [], analytics.multiplicity

        def anchor(n, j):
            anchors.append((n, j))
            return exact(n, j)

        def unread(self):
            raise AssertionError("exact d_j built for figure1")

        monkeypatch.setattr(analytics, "multiplicity", anchor)
        monkeypatch.setattr(analytics.BlockSpectrum, "multiplicities", property(unread))
        assert run_cli("figure1", "--n", "200") == 0
        capsys.readouterr()
        assert anchors == []

    def test_bad_range(self):
        assert run_cli("figure1", "--n", "7") == 2
        assert run_cli("figure1", "--lambda", "0.5,1.2") == 2

    def test_plot_rendering(self, tmp_path):
        pytest.importorskip("matplotlib")
        plot = tmp_path / "fig1.svg"
        csv = tmp_path / "fig1.csv"
        assert run_cli("figure1", "--n", "8", "--plot", str(plot), out=csv) == 0
        assert plot.stat().st_size > 0

    def test_plot_without_matplotlib_is_one_error_line_and_writes_no_file(self, tmp_path):
        blocked = _run_without("matplotlib", f"figure1 --n 8 --plot {tmp_path}/f.svg --out {tmp_path}/f.csv")
        assert (blocked.returncode, blocked.stdout) == (2, b"")
        assert blocked.stderr.startswith(b"error: ") and blocked.stderr.count(b"\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestClone:
    def test_identity_cloning_pure(self, tmp_path):
        path = tmp_path / "clone.txt"
        assert run_cli("clone", "--n", "2", "--m", "2", "--lambda", "1", out=path) == 0
        fields = dict(
            line.split("=", 1) for line in path.read_text().splitlines() if "=" in line
        )
        assert float(fields["F_mix"]) == pytest.approx(1.0, abs=1e-14)

    def test_estimation_limit_pure(self, tmp_path):
        path = tmp_path / "clone.txt"
        assert run_cli("clone", "--n", "2", "--m", "inf", "--lambda", "1", out=path) == 0
        fields = dict(
            line.split("=", 1) for line in path.read_text().splitlines() if "=" in line
        )
        assert float(fields["lambda_mix"]) == pytest.approx(0.5, abs=1e-14)

    def test_infinite_clones_print_the_estimation_length(self, capsys):
        # lambda_mix at m = inf and lambda_mix_inf are one quantity under one weight rule, so one text
        for n in (2, 4, 6, 20, 100, 2000):
            for lam in ("1e-12", "0.1", "0.3", "0.5", "0.6", "0.9", "0.999", "1"):
                assert run_cli("clone", "--n", str(n), "--m", "inf", "--lambda", lam) == 0
                fields = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines() if "=" in line)
                assert fields["lambda_mix"] == fields["lambda_mix_inf"], (n, lam)

    def test_lambda_mix_is_the_clones_bloch_length(self, capsys):
        # summed from the Bloch lengths, not 2 F_mix - 1 with F_mix ~ 1/2
        assert run_cli("clone", "--n", "40", "--m", "8", "--lambda", "1e-12") == 0
        fields = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines() if "=" in line)
        for name, exact in (
            ("lambda_mix", exact_clone_lambda(40, 8, Fraction(1e-12))),
            ("lambda_mix_inf", exact_estimation_lambda(40, Fraction(1e-12))),
        ):
            assert abs(Fraction(float(fields[name])) - exact) <= Fraction(1e-14) * exact, name

    def test_too_few_clones_usage_error(self):
        for m in ("0", "-1"):
            assert run_cli("clone", "--n", "4", "--m", m, "--lambda", "0.5") == 2

    def test_fewer_clones_than_copies(self, tmp_path):
        # the j = 1 and j = 2 blocks keep 2 of their purified qubits; the spin-0 block guesses
        path = tmp_path / "clone.txt"
        assert run_cli("clone", "--n", "4", "--m", "2", "--lambda", "0.5", out=path) == 0
        table = [line.split(",") for line in path.read_text().splitlines() if "=" not in line]
        assert [float(row[3]) for row in table[1:]] == [0.5, 1.0, 1.0]

    def test_bad_m_usage_error(self):
        assert run_cli("clone", "--n", "4", "--m", "four", "--lambda", "0.5") == 2


def test_unknown_command_exits_two():
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "argv, digest",
    # each case is named by its command line alone, so a re-pinned digest keeps the test's id
    [
        pytest.param(argv, digest, id=argv)
        for argv, digest in [
            ("stats --n 8 --lambda 0.5", "5416f45e81d00496"),
            ("stats --n 8 --lambda 0.5 --format tsv", "26c231a3875205f9"),
            ("clone --n 4 --m 8 --lambda 0.5", "648120253165d167"),
            ("clone --n 4 --m inf --lambda 0.5", "d9c3ee8abb05a547"),
            ("figure1 --n 10 --lambda 0.3,0.9 --format tsv", "fadc9d2b5546aeb7"),
            ("figure1 --n 6 --lambda 0.6,0.2,0.6", "6bb6f0fe8c8b98de"),
            ("figure1 --n 200", "fc5c01046c499ce4"),
            ("stats --n 2000 --lambda 0.6", "844ace7f39b2cd53"),
            ("stats --n 20000 --lambda 0.6", "6883e87efc7e594f"),
            ("clone --n 2000 --m inf --lambda 0.6", "79e91766fa83af53"),
            ("simulate --n 20 --lambda 0.6 --trials 100000 --seed 42", "1fa8b3ec8b2968f3"),
        ]
    ],
)
def test_output_bytes_golden(argv, digest, capsys):
    # sha256 prefixes of the stdout.  The closed-form rows are plain float arithmetic and
    # libm (pow, atanh, and log10 in the <mantissa>e<exponent> d_j of N = 20000),
    # so numpy's CPU dispatch cannot move them; the simulate row also pins
    # the seed -> draw mapping of the stdlib sampler on random.Random (MT19937)
    assert main(argv.split()) == 0
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert got == digest, f"{argv!r} printed bytes with digest {got}"


@pytest.mark.parametrize(
    "argv",
    [
        "stats --n 8 --lambda 0.5",
        "clone --n 4 --m 8 --lambda 0.5",
        "figure1 --n 10",
        "simulate --n 20 --lambda 0.6 --trials 1000 --seed 1",
        "simulate --dense --n 4 --lambda 0.5 --trials 500 --seed 2",
        "verify --n 4 --lambda 0.37",
        "verify --n 2 --lambda 0.5 --tol 1e-20",
    ],
)
def test_one_writer_for_every_command(argv, tmp_path, capsys):
    # the delimiter is the only difference between csv and tsv, --out holds the bytes stdout gets,
    # and exit 1 goes with a last line of status=fail
    code = main(argv.split())
    csv = capsys.readouterr().out
    assert main([*argv.split(), "--format", "tsv"]) == code
    assert capsys.readouterr().out.replace("\t", ",") == csv
    assert main([*argv.split(), "--out", str(tmp_path / "out.txt")]) == code
    assert capsys.readouterr().out == ""
    assert (tmp_path / "out.txt").read_bytes() == csv.encode()
    assert (code == 1) == (csv.splitlines()[-1] == "status=fail")
    assert code in (0, 1)


@pytest.mark.parametrize(
    "argv",
    [
        "stats --n 8 --lambda 0.5",
        "stats --n 20000 --lambda 0.6",
        "clone --n 4 --m 8 --lambda 0.5",
        "clone --n 6 --m inf --lambda 0.3",
        "figure1 --n 10",
        "verify --n 4 --lambda 0.37",
        "simulate --n 20 --lambda 0.6 --trials 1000 --seed 1",
        "simulate --dense --n 4 --lambda 0.5 --trials 500 --seed 2",
    ],
)
def test_report_cells_are_plain_python_values(argv):
    # a table row is joined by str, which gives a float's shortest round-trip form; a numpy scalar, a tuple or
    # a dict would print otherwise, so every cell is exactly one of these types (bool and float64 subclass them).
    # The named values go through _text, which spells out tuples and dicts but has no numpy branch either
    args = _build_parser().parse_args(argv.split())
    report = args.func(args)
    kinds = {type(cell) for row in report.rows for cell in row}
    assert kinds <= {int, float, str, BlockLabel} and bool(kinds) == bool(report.header)
    assert "stats --n 20000" not in argv or str in kinds  # the d_j past the int-to-str limit
    assert {type(value) for _, value in (*report.comment, *report.values)} <= {int, float, str, tuple, dict}
    assert all(type(x) is float for _, value in report.comment if type(value) is tuple for x in value)


def _run_without(module: str, argv: str):
    """``main(argv)`` in a fresh process that blocks ``module`` before the first import of qpurify, so any
    import of it fails."""
    code = (
        f"import sys; sys.modules[{module!r}] = None; import qpurify; from qpurify.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    return run_python("-c", code, *argv.split())


@pytest.mark.parametrize(
    "argv",
    [
        "stats --n 2000 --lambda 0.6",
        "clone --n 2000 --m inf --lambda 0.6",
        "figure1 --n 200",
        "simulate --n 1000 --lambda 0.6 --trials 1000000000 --seed 1",
        "simulate --n 100 --lambda 0.6 --trials 10000 --seed 1 --dump-trials {tmp}/trials.csv",
    ],
)
def test_closed_form_commands_print_the_same_bytes_without_numpy(argv, tmp_path, capsys):
    # summary simulate runs the stdlib sampler, per-trial dump included
    argv = argv.format(tmp=tmp_path)
    blocked = _run_without("numpy", argv)
    dumped = sorted((path.name, path.read_bytes()) for path in tmp_path.iterdir())
    assert (blocked.returncode, blocked.stderr) == (0, b"")
    assert main(argv.split()) == 0
    assert blocked.stdout == capsys.readouterr().out.encode()
    assert dumped == sorted((path.name, path.read_bytes()) for path in tmp_path.iterdir())


class TestClosedFormSizeGuard:
    """The float columns hold about 400 bytes a qubit: there an N whose columns exceed the available memory is
    refused.  The d_j hold O(N) bits a row, so stats rows and trial dumps run wherever the float columns fit."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(argv, message, id=argv)
            for argv, message in [
                ("figure1 --n 100000", "figure1 needs 6250375000 spectrum rows for 5 lambdas, above 100000000"),
            ]
        ],
    )
    def test_oversized_n_is_one_error_line_before_any_build(self, argv, message, capsys, monkeypatch):
        # by its row budget, before any spectrum
        monkeypatch.setattr("qpurify.core._mem_available_bytes", lambda: 100 * 2**20)
        analytics._lambda_columns.cache_clear()
        assert main(argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1
        assert analytics._lambda_columns.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "argv",
        [
            "clone --n 100000 --m inf --lambda 0.6",
            "simulate --n 100000 --lambda 0.6 --trials 10 --seed 1",
            "stats --n 100000 --lambda 0.6",
            "simulate --n 100000 --lambda 0.999 --trials 10 --seed 1 --dump-trials {tmp}/trials.csv",
        ],
    )
    def test_float_columns_run_where_the_exact_d_j_would_not_fit(self, argv, tmp_path, capsys, monkeypatch):
        # every exact d_j at N = 10^5 would take 477 MiB; the printed and drawn ones take a few MiB
        monkeypatch.setattr("qpurify.core._mem_available_bytes", lambda: 100 * 2**20)
        assert main(argv.format(tmp=tmp_path).split()) == 0
        capsys.readouterr()
        assert "--dump-trials" not in argv or len((tmp_path / "trials.csv").read_text().splitlines()) == 11

    def test_runs_as_before_without_meminfo(self, capsys, monkeypatch):
        # 200000 is above the 64 MiB of float columns below which no memory figure is read
        monkeypatch.setattr("qpurify.core._mem_available_bytes", lambda: None)
        assert main("clone --n 200000 --m inf --lambda 0.6".split()) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"lambda_mix_inf={cloning.estimation_lambda(200000, 0.6)!r}"

    def test_small_n_reads_no_memory_figure(self, capsys, monkeypatch):
        def unread():
            raise AssertionError("MemAvailable read below 64 MiB")

        monkeypatch.setattr("qpurify.core._mem_available_bytes", unread)
        assert main("clone --n 36000 --m inf --lambda 0.6".split()) == 0
        assert main("figure1 --n 200".split()) == 0
        capsys.readouterr()


def test_usage_error_without_numpy():
    blocked = _run_without("numpy", "stats --n 3 --lambda 0.5")
    assert (blocked.returncode, blocked.stdout) == (2, b"")
    assert blocked.stderr.startswith(b"error: ") and blocked.stderr.count(b"\n") == 1


# modules that no closed-form or summary-sampler process needs, listed on the last stderr line
# if ``main`` loaded them
_UNNEEDED = ("numpy", "dataclasses", "inspect", "typing", "fractions", "decimal", "pathlib")
# what a dense command needs beyond numpy's core: nothing of these
_DENSE_UNNEEDED = ("numpy.random", "numpy.polynomial", "fractions", "decimal")


def _loaded(unneeded: tuple[str, ...]) -> str:
    return (
        "import sys; from qpurify.cli import main; code = main(sys.argv[1:]); "
        f"print('loaded:', *sorted(set({unneeded!r}) & set(sys.modules)), file=sys.stderr); sys.exit(code)"
    )


@pytest.mark.parametrize(
    "argv, code",
    [
        ("stats --n 2000 --lambda 0.6", 0),
        ("clone --n 2000 --m inf --lambda 0.6", 0),
        ("figure1 --n 200", 0),
        ("simulate --n 1000 --lambda 0.6 --trials 1000000000 --seed 1", 0),
        ("simulate --n 100 --lambda 0.6 --trials 100000 --seed 1 --dump-trials {tmp}/trials.csv", 0),
        ("stats --n 20 --lambda 0.6 --out {tmp}/stats.csv", 0),
        ("stats --n 3 --lambda 0.5", 2),
    ],
)
def test_closed_form_commands_load_only_what_they_use(argv, code, tmp_path):
    # -S, as site may preload typing or pathlib itself
    run = run_python("-S", "-c", _loaded(_UNNEEDED), *argv.format(tmp=tmp_path).split())
    assert run.returncode == code
    assert run.stderr.splitlines()[-1] == b"loaded:"


@pytest.mark.parametrize(
    "argv", ["verify --n 4 --lambda 0.6 --seed 1", "simulate --dense --n 4 --lambda 0.6 --trials 1000 --seed 1"]
)
def test_dense_commands_load_only_numpys_core(argv):
    # without -S: numpy lives in site-packages
    run = run_python("-c", _loaded(_DENSE_UNNEEDED), *argv.split())
    assert run.returncode == 0
    assert run.stderr.splitlines()[-1] == b"loaded:"


def test_verify_direction_depends_only_on_the_seed(capsys):
    def header(argv):
        assert main(argv.split()) == 0
        return capsys.readouterr().out.splitlines()[0].split()[3]

    drawn = "direction=({!r},{!r},{!r})".format(*random_direction(random.Random(5)))
    assert {header("verify --n 2 --lambda 0.3 --seed 5"), header("verify --n 4 --lambda 0.9 --seed 5")} == {drawn}
    assert header("verify --n 2 --lambda 0.3 --seed 6") != drawn


def test_verify_rows_golden(capsys):
    # the residual digits are BLAS round-off, so only the check and label columns are pinned
    assert main("verify --n 4 --lambda 0.37 --tol 1e-9".split()) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "check,label,residual" and lines[-1] == "status=pass"
    post = ["j=0;alpha=1", "j=0;alpha=2", "j=1;alpha=1", "j=1;alpha=2", "j=1;alpha=3", "j=2;alpha=1"]
    assert [tuple(line.split(",")[:2]) for line in lines[2:-1]] == [
        ("decomposition", "orthonormality"),
        ("decomposition", "off_block_weight"),
        ("decomposition", "copy_traces"),
        *(("post_state", label) for label in post),
        ("quadrature", "j=1"),
        ("quadrature", "j=2"),
        *(("reversibility", label) for label in post),
        ("covariance", "collective_lowering"),
    ]


def test_verify_covariance_row_reads_only_the_basis(capsys):
    # the row checks the basis rows, so neither the drawn direction nor lambda moves it
    rows = []
    for lam, seed in (("0.3", "1"), ("0.9", "7")):
        assert main(f"verify --n 6 --lambda {lam} --seed {seed}".split()) == 0
        lines = capsys.readouterr().out.splitlines()
        rows.append(next(line for line in lines if line.startswith("covariance,")))
    assert rows[0] == rows[1]


_USAGE_ERRORS = (
    "stats --n 3 --lambda 0.5",
    "figure1 --n 7",
    "stats --n 8 --lambda 1.5",
    "stats --n 8 --lambda zebra",
    "stats --n 8 --lambda 0.2,0.4",
    "clone --n 4 --m four --lambda 0.5",
    "clone --n 4 --m 0 --lambda 0.5",
    "simulate --n 20 --lambda 0.6 --trials 0 --seed 1",
    "verify --n 14 --lambda 0.5",
    "stats --n 4 --lambda 0.5 --out {missing}/x.csv",
    "simulate --n 20 --lambda 0.6 --trials 10 --seed 1 --dump-trials {missing}/d.csv",
    "stats --n 4 --lambda 0.5 --out ''",
    "simulate --n 20 --lambda 0.6 --trials 10 --seed 1 --dump-trials ''",
    "clone --n 4 --m -1 --lambda 0.5",
    "simulate --n 4 --lambda 0.5 --trials 10 --seed -1",
    "verify --n 4 --lambda 0.5 --seed -1",
    "verify --n 4 --lambda 0.5 --tol nan",
    "verify --n 4 --lambda 0.5 --tol inf",
    "verify --n 4 --lambda 0.5 --tol 0",
    "verify --n 4 --lambda 0.5 --tol -1",
    "stats --n 4 --lambda 0.5 --out /dev/full",
    "verify --n 4 --lambda 0.5 --out /dev/full",
    "simulate --n 4 --lambda 0.5 --trials 10 --seed 1 --dump-trials /dev/full",
    "clone --n 4 --m -inf --lambda 0.5",
    "stats --n abc --lambda 0.5",
    "stats --lambda 0.5",
    "stats --n 4 --lambda 0.5 --format xml",
    "stats --n 4 --lambda 0.5 --bogus 1",
    "frobnicate",
)
_NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@pytest.mark.parametrize(
    "argv",
    # each case keeps the id it had when the cases also named an environment, so runs compare case by case
    [
        pytest.param(argv, id=f"{argv}-env{i}", marks=_NEEDS_DEV_FULL if "/dev/full" in argv else ())
        for i, argv in enumerate(_USAGE_ERRORS)
    ],
)
def test_usage_error_is_one_stderr_line(argv, capsys, tmp_path):
    assert main(shlex.split(argv.format(missing=tmp_path / "missing"))) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [
        "verify --n 12 --lambda 0.6 --out {missing}/v.csv",
        "verify --n 12 --lambda 0.6 --tol nan",
        "stats --n 1000000000 --lambda 0.6",
        "clone --n 1000000000 --m inf --lambda 0.6",
    ],
)
def test_refusal_at_the_largest_sizes_comes_before_the_work(argv, tmp_path):
    # in a fresh process against the real MemAvailable: one error line within 10 s, where the work would take
    # seconds (verify) or more memory than a machine has (stats and clone, whose float columns need about 370 GiB)
    run = run_python("-m", "qpurify", *argv.format(missing=tmp_path / "missing").split(), timeout=10)
    assert (run.returncode, run.stdout) == (2, b"")
    assert run.stderr.startswith(b"error: ") and run.stderr.count(b"\n") == 1


def test_figure1_row_budget_is_one_line_within_a_second():
    # in a fresh process that reads MemAvailable as 4 EiB, so the row budget alone refuses
    code = (
        "import sys, qpurify.core; qpurify.core._mem_available_bytes = lambda: 2**62; "
        "from qpurify.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    run = run_python("-c", code, "figure1", "--n", "100000", timeout=1)
    assert (run.returncode, run.stdout) == (2, b"")
    assert run.stderr == b"error: figure1 needs 6250375000 spectrum rows for 5 lambdas, above 100000000\n"


@pytest.mark.parametrize(
    "argv, timeout",
    [
        ("simulate --n 100000 --lambda 0.6 --trials 1000000000 --seed 1", None),
        ("simulate --dense --n 12 --lambda 0.6 --trials 10000 --seed 1", None),
        ("figure1 --n 2000", 90),
        ("stats --n 100000 --lambda 0.6", 90),
    ],
)
def test_runs_at_the_advertised_sizes(argv, timeout):
    # each in a fresh process; a simulation's normalised targets also pass the 4-sigma gate, and the dense one
    # stays below the peak bound of verify at the cap
    if "--dense" in argv:
        run, peak_mib = run_cli_peak_rss(*argv.split())
        assert peak_mib < _DENSE_CAP_PEAK_MIB
    else:
        run = run_python("-m", "qpurify", *argv.split(), timeout=timeout)
    assert (run.returncode, run.stderr) == (0, b"")
    assert not argv.startswith("simulate") or run.stdout.endswith(b"\nstatus=pass\n")


@pytest.mark.parametrize("command", ["", "stats", "verify", "simulate", "figure1", "clone"])
def test_help_is_usage_on_stdout(command, capsys):
    assert main([*command.split(), "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"usage: qpurify {command}".rstrip()) and err == ""
