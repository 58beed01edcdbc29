"""Smoke tests of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

TINY = {
    "stats": 4,
    "clone": 4,
    "figure1": 4,
    "simulate": ((4, 300),),
    "dump": (4, 300),
    "verify": 4,
    "dense": (4, 300),
}


def test_plain_run_reports_every_end_to_end_metric():
    report = io.StringIO()
    result = run.benchmark("tiny", seed=1, seconds=0, trace=False, sizes=TINY, once=set(), out=report)
    assert result["correct"], report.getvalue()
    assert (result["attempted"], result["failed"]) == (7 * run.REPEAT, 0)
    assert list(result["metrics"]) == [name for name, *_ in run.END_TO_END]
    assert all(item["value"] > 0 for item in result["metrics"].values())
    assert result["metrics"]["trials_per_s"]["value"] == pytest.approx(300 / result["metrics"]["simulate_s"]["value"])


def test_traced_run_counts_repeat_and_match_the_code():
    report = io.StringIO()
    result = run.benchmark("tiny", seed=2, seconds=0, trace=True, sizes=TINY, once=set(), out=report)
    assert result["correct"], report.getvalue()
    assert set(result["metrics"]) == {name for name, _, _ in run.PER_LAYER}
    counts = {name: item["value"] for name, item in result["metrics"].items()}
    # 3 per stats, 3 per clone --m inf, one per figure1 point (N = 2, 4 for five
    # lambdas), 3 per summary simulate and 2 per dense simulate
    assert counts["analytics.spectrum_builds"] == 3 + 3 + 10 + 3 + 3 + 2
    assert counts["analytics.spectrum_rows"] == 3 * 3 + 3 * 3 + 5 * (2 + 3) + 3 * 3 + 3 * 3 + 2 * 3
    assert counts["cloning.estimation_calls"] == 10 + 1
    assert counts["protocol.outcome_records"] == 300
    assert counts["oracle.reversibility_calls"] == 6  # blocks of n = 4: 2 + 3 + 1
    assert counts["analytics.norm_defect"] < run.NORM_DEFECT_BUDGET


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


def _stats_output(n: int, lam: str, capsys) -> str:
    from qpurify.cli import main

    assert main(["stats", "--n", str(n), "--lambda", lam]) == 0
    return capsys.readouterr().out


def test_checks_accept_the_program_and_reject_a_wrong_digit(capsys):
    text = _stats_output(40, "0.37", capsys)
    reference.check_stats(text, 40, "0.37")
    lines = text.splitlines()
    j, d, p, f = lines[5].split(",")
    lines[5] = ",".join((j, d, repr(float(p) * (1 + 1e-9)), f))
    with pytest.raises(reference.CheckFailure, match="p_4"):
        reference.check_stats("\n".join(lines), 40, "0.37")


def test_warm_up_redraws_a_seed_only_for_a_4_sigma_false_alarm(tmp_path, capsys):
    from qpurify.cli import main

    cmds = run.build_commands(TINY, "tiny/3", tmp_path)
    simulate = next(cmd for cmd in cmds if cmd.metric == "simulate_s")
    main(simulate.argv)
    passing = capsys.readouterr().out
    assert "status=pass" in passing.splitlines()

    class Replay:
        """Stands in for Runner: every run prints ``text`` and fails."""

        def __init__(self, text: str):
            self.tmp, self.text = tmp_path, text

        def run(self, cmd, traced):
            (tmp_path / "stdout.txt").write_text(self.text)
            return run.Outcome(0.0, 0.0, "exit code 1", 0)

    def redraws(text: str) -> int:
        seed_before = simulate.argv[simulate.argv.index("--seed") + 1]
        notes = run.warm_up(Replay(text), [simulate], run.random.Random(0))
        changed = simulate.argv[simulate.argv.index("--seed") + 1] != seed_before
        assert changed == bool(notes)
        return len(notes)

    assert redraws(passing.replace("status=pass", "status=fail")) == 1
    # a wrong target or a lost trial is a real failure, not a false alarm
    lines = passing.splitlines()
    wrong = ["yield_target=0.5" if line.startswith("yield_target=") else line for line in lines]
    assert redraws("\n".join(wrong).replace("status=pass", "status=fail")) == 0
    assert redraws(passing.replace("trials=300", "trials=299").replace("status=pass", "status=fail")) == 0


def test_closed_forms_match_brute_force_sums():
    for u, v in [(8, 2), (3, 3), (2, 0), (13, 7)]:
        for j in range(6):
            m = 2 * j
            g = sum(u**k * v ** (m - k) for k in range(m + 1))
            h = sum(k * u**k * v ** (m - k) for k in range(m + 1))
            assert reference._geometric_sums(u, v, j) == (g, h)
    # sum_j p_j = 1 exactly, and the figure1 curve agrees with the spectrum
    spect = reference.spectrum(12, "0.4")
    assert sum(spect.p) == 1
    assert reference.figure1_curve(12, "0.4")[-1] == spect.estimation_lambda()


def test_self_time_and_missing_functions():
    proc = {
        "missing": ["blocks.swap"],
        "spans": [
            {"id": 0, "parent": None, "name": "cli.main", "start": 0.0, "end": 10.0, "rss_growth_kb": 0},
            {"id": 1, "parent": 0, "name": "analytics.yield", "start": 1.0, "end": 5.0, "rss_growth_kb": 0},
            {"id": 2, "parent": 1, "name": "analytics.spectrum", "start": 2.0, "end": 4.0, "rss_growth_kb": 0,
             "rows": 3, "norm_defect": 0.0},
        ],
    }
    values, missing = layers.layer_metrics([proc])
    assert values["cli.self_s"] == 6.0
    assert values["analytics.averages_self_s"] == 2.0
    assert values["analytics.rows_per_s"] == 1.5
    assert {"blocks.swap_s", "blocks.swap_calls", "blocks.swap_bytes", "blocks.rss_growth_mb"} <= missing
    assert "blocks.basis_s" in values


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "closed_form", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
