"""Benchmark of the qpurify command line, one workload per layer.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 36 --trace 0

Every command is a fresh interpreter that calls ``qpurify.cli.main(argv)``,
so per-process caches start cold as they do for a CLI user.  The load is a
closed loop with one client: a pass runs the workload's commands one after
another, and passes repeat until the next one would end after ``--seconds``.
Each time metric is the median of its samples in the run.  Every output is
checked against exact references (see reference.py); a command that fails
or prints a wrong number counts as a failed operation.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates plain
and traced passes (layers.py) and reports the per-layer metrics plus
``trace.overhead_s``, the traced pass time minus the plain pass time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import layers  # noqa: E402  (the script's directory is on sys.path)
import reference  # noqa: E402

LAM = "0.6"
FIGURE1_LAMBDAS = ("0.2", "0.4", "0.6", "0.8", "1.0")

# Every workload runs every command, so every end-to-end metric exists on
# every workload.  A workload runs the commands of its own layer at the
# sizes below and the others at PROBE sizes, where interpreter start-up
# dominates: a change to one layer should move its own workload and leave
# the probes of the other two where they were.
PROBE = {
    "stats": 20,
    "clone": 20,
    "figure1": 20,
    "simulate": ((20, 2000),),  # (n, trials) of each summary-only run
    "dump": (20, 2000),
    "verify": 4,
    "dense": (4, 2000),
}
WORKLOADS = {
    "closed_form": {**PROBE, "stats": 2000, "clone": 2000, "figure1": 200},
    "sampler": {**PROBE, "simulate": ((1000, 200_000), (20, 200_000)), "dump": (100, 100_000)},
    "dense": {**PROBE, "verify": 8, "dense": (8, 10_000)},
}
# Time is noisy on a shared machine: the same command varies by about 20%
# within a run.  So a plain pass runs its commands once and then, in
# REPEAT - 1 more sweeps, again all commands except each workload's longest
# ones (listed here), which get fewer but longer samples.
ONCE = {
    "closed_form": {"stats_s", "clone_s"},
    "sampler": {"simulate_s"},
    "dense": {"verify_s"},
}
REPEAT = 2

# name, unit, better, bound (share of the parent's median a change may lose)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("stats_s", "s", "lower", 0.25),
    ("clone_s", "s", "lower", 0.25),
    ("figure1_s", "s", "lower", 0.25),
    ("simulate_s", "s", "lower", 0.25),
    ("simulate_dump_s", "s", "lower", 0.25),
    ("trials_per_s", "1/s", "higher", 0.25),
    ("verify_s", "s", "lower", 0.25),
    ("simulate_dense_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]
# per-layer metrics measured by this file rather than from spans
EXTRA_LAYER = [
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
PER_LAYER = [(name, unit, better) for name, unit, better, _, _ in layers.PER_LAYER] + EXTRA_LAYER

HARD_LIMIT_S = 165.0  # the whole run, set-up included, stays under this
# |sum p_j - 1| above this is a failed operation in the traced run
NORM_DEFECT_BUDGET = 1e-12

CLI_SNIPPET = "import sys; from qpurify.cli import main; sys.exit(main(sys.argv[1:]))"


@dataclass
class Command:
    metric: str  # end-to-end metric its time adds to
    argv: list[str]
    check: Callable[..., None]  # raises on a wrong output
    trials: int = 0  # summary-only trials, counted in trials_per_s
    dump: Path | None = None
    statistical: bool = False  # its status line is simulate's 4-sigma test


@dataclass
class Outcome:
    wall: float
    rss_mb: float
    error: str | None
    output_bytes: int
    spans: dict | None = None


@dataclass
class Pass:
    traced: bool
    sweeps: list[list[tuple[Command, Outcome]]] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)  # fresh interpreter + import qpurify
    numpy_floor: list[float] = field(default_factory=list)  # fresh interpreter + import numpy

    @property
    def outcomes(self) -> list[Outcome]:
        return [o for sweep in self.sweeps for _, o in sweep]

    @property
    def wall(self) -> float:
        """One pass over the workload's commands: the first sweep."""
        return sum(o.wall for _, o in self.sweeps[0])


def build_commands(sizes: dict, seed_text: str, tmp: Path) -> list[Command]:
    """The workload's command list; every --seed is drawn from ``seed_text``."""
    rng = random.Random(seed_text)

    def seed() -> list[str]:
        return ["--seed", str(rng.randrange(2**31))]

    def simulate_check(n: int, trials: int, dump: Path | None = None):
        def check(out: str, require_pass: bool = True) -> None:
            hist = reference.check_simulate(out, n, LAM, trials, require_pass)
            if dump is not None:
                reference.check_dump(str(dump), n, LAM, hist)

        return check

    curves = {lam: reference.figure1_curve(sizes["figure1"], lam) for lam in FIGURE1_LAMBDAS}
    n_stats, n_clone, n_fig, n_verify = sizes["stats"], sizes["clone"], sizes["figure1"], sizes["verify"]
    cmds = [
        Command("stats_s", ["stats", "--n", str(n_stats), "--lambda", LAM],
                lambda out: reference.check_stats(out, n_stats, LAM)),
        Command("clone_s", ["clone", "--n", str(n_clone), "--m", "inf", "--lambda", LAM],
                lambda out: reference.check_clone_inf(out, n_clone, LAM)),
        Command("figure1_s", ["figure1", "--n", str(n_fig), "--lambda", ",".join(FIGURE1_LAMBDAS)],
                lambda out: reference.check_figure1(out, n_fig, FIGURE1_LAMBDAS, curves)),
    ]
    for n, trials in sizes["simulate"]:
        argv = ["simulate", "--n", str(n), "--lambda", LAM, "--trials", str(trials), *seed()]
        cmds.append(Command("simulate_s", argv, simulate_check(n, trials), trials=trials, statistical=True))
    n, trials = sizes["dump"]
    dump = tmp / "trials.csv"
    argv = ["simulate", "--n", str(n), "--lambda", LAM, "--trials", str(trials), *seed(), "--dump-trials", str(dump)]
    cmds.append(Command("simulate_dump_s", argv, simulate_check(n, trials, dump), dump=dump, statistical=True))
    cmds.append(Command("verify_s", ["verify", "--n", str(n_verify), "--lambda", LAM, *seed()],
                        lambda out: reference.check_verify(out, n_verify)))
    n, trials = sizes["dense"]
    argv = ["simulate", "--dense", "--n", str(n), "--lambda", LAM, "--trials", str(trials), *seed()]
    cmds.append(Command("simulate_dense_s", argv, simulate_check(n, trials), statistical=True))
    # warm the reference cache so no check pays for it inside a pass
    for n in {n_stats, n_clone, sizes["dump"][0], sizes["dense"][0], *(n for n, _ in sizes["simulate"])}:
        reference.spectrum(n, LAM)
    return cmds


class Runner:
    """Starts children from the checkout with its ``src`` first on the path."""

    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src

    def spawn(self, argv: list[str], stdout_path: Path) -> tuple[float, int, float, str]:
        """Run ``argv`` to completion: (wall s, exit code, peak RSS MB, stderr tail).

        Peak RSS is this child's own, from ``os.wait4``; RUSAGE_CHILDREN
        would only give the largest over all children so far.
        """
        holder: dict = {}

        def kill() -> None:
            proc = holder.get("proc")
            if proc is not None and proc.returncode is None:
                proc.kill()

        timer = threading.Timer(max(1.0, self.deadline - time.perf_counter()), kill)
        timer.start()
        err_path = self.tmp / "stderr.txt"
        try:
            with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
                start = time.perf_counter()
                proc = holder["proc"] = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
        return wall, proc.returncode, usage.ru_maxrss / 1024.0, " ".join(tail)

    def import_time(self, module: str) -> float:
        wall, code, _, err = self.spawn([sys.executable, "-c", f"import {module}"], self.tmp / "stdout.txt")
        if code != 0:
            raise RuntimeError(f"import {module} failed: {err}")
        return wall

    def run(self, cmd: Command, traced: bool) -> Outcome:
        """Run ``cmd`` and check its output; the output stays in ``stdout.txt`` until the next run."""
        out_path = self.tmp / "stdout.txt"
        spans_path = self.tmp / "spans.json"
        if cmd.dump is not None and cmd.dump.exists():
            cmd.dump.unlink()
        if traced:
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "layers.py"), str(spans_path), "--", *cmd.argv]
        else:
            argv = [sys.executable, "-c", CLI_SNIPPET, *cmd.argv]
        wall, code, rss_mb, err = self.spawn(argv, out_path)
        text = out_path.read_text(encoding="utf-8", errors="replace")
        size = len(text.encode()) + (cmd.dump.stat().st_size if cmd.dump is not None and cmd.dump.exists() else 0)
        outcome = Outcome(wall, rss_mb, None, size)
        try:
            if code != 0:
                raise reference.CheckFailure(f"exit code {code}: {err}")
            cmd.check(text)
            if traced:
                outcome.spans = json.loads(spans_path.read_text(encoding="utf-8"))
                defects = [s["norm_defect"] for s in outcome.spans["spans"] if "norm_defect" in s]
                if max(defects, default=0.0) > NORM_DEFECT_BUDGET:
                    raise reference.CheckFailure(f"|sum p - 1| = {max(defects):.3e} > {NORM_DEFECT_BUDGET}")
        except (reference.CheckFailure, ValueError, KeyError, IndexError, OSError) as exc:
            outcome.error = f"{' '.join(cmd.argv)}: {type(exc).__name__}: {exc}"
        return outcome


def false_alarm(runner: Runner, cmd: Command) -> bool:
    """Whether the last run of ``cmd`` failed simulate's 4-sigma test and nothing else."""
    text = (runner.tmp / "stdout.txt").read_text(encoding="utf-8", errors="replace")
    try:
        cmd.check(text, require_pass=False)
    except (reference.CheckFailure, ValueError, KeyError, IndexError, OSError):
        return False
    return "status=fail" in text.splitlines()


def warm_up(runner: Runner, cmds: list[Command], rng: random.Random) -> list[str]:
    """Run each ``simulate`` command once, untimed; returns a note per redrawn seed.

    simulate's status line is a test at |z| < 4, which its exact sampler fails
    on a few seeds in 10^4 (README.md).  When the warm-up run fails that test
    and passes every other check, the command's --seed is redrawn from ``rng``
    once.  A failure of any other kind, or of the redrawn seed too, is kept:
    every pass then runs the command and counts it as failed.
    """
    notes = []
    for cmd in cmds:
        if cmd.statistical and runner.run(cmd, False).error is not None and false_alarm(runner, cmd):
            at = cmd.argv.index("--seed") + 1
            old, cmd.argv[at] = cmd.argv[at], str(rng.randrange(2**31))
            notes.append(f"{cmd.metric} seed {old} failed only the 4-sigma test; redrawn as {cmd.argv[at]}")
    return notes


def end_to_end(passes: list[Pass]) -> dict[str, list[float]]:
    """Samples of every end-to-end time.  A command metric gets one sample
    per sweep that ran it: the sweep's total time in that metric's commands."""
    samples: dict[str, list[float]] = {name: [] for name, *_ in END_TO_END if name != "trials_per_s"}
    for p in passes:
        for sweep in p.sweeps:
            totals: dict[str, float] = {}
            for cmd, o in sweep:
                totals[cmd.metric] = totals.get(cmd.metric, 0.0) + o.wall
            for metric, total in totals.items():
                samples[metric].append(total)
        samples["wall_s"].append(p.wall)
        samples["peak_rss_mb"].append(max(o.rss_mb for o in p.outcomes))
        samples["setup_s"] += p.setup
    return samples


def per_layer(p: Pass) -> tuple[dict[str, float], set[str]]:
    values, missing = layers.layer_metrics([o.spans for o in p.outcomes if o.spans is not None])
    values["cli.output_bytes"] = float(sum(o.output_bytes for o in p.outcomes))
    return values, missing


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def benchmark(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None,
              once: set[str] | None = None, out=sys.stdout) -> dict:
    """Run one workload; prints a readable report to ``out`` and returns the result object.

    ``sizes`` and ``once`` default to the workload's own (WORKLOADS, ONCE).
    """
    sizes = WORKLOADS[name] if sizes is None else sizes
    once = ONCE[name] if once is None else once
    begin = time.perf_counter()
    (ROOT / ".perfbench-tmp").mkdir(exist_ok=True)
    tmp = ROOT / ".perfbench-tmp" / f"{name}-{os.getpid()}"
    tmp.mkdir()
    try:
        runner = Runner(tmp, begin + HARD_LIMIT_S)
        t0 = time.perf_counter()
        cmds = build_commands(sizes, f"{name}/{seed}", tmp)
        ref_s = time.perf_counter() - t0
        probe_out = tmp / "probe.json"
        if runner.spawn([sys.executable, str(HERE / "probe.py")], probe_out)[1] != 0:
            raise RuntimeError("probe.py failed")
        facts = json.loads(probe_out.read_text())
        redrawn = warm_up(runner, cmds, random.Random(f"{name}/{seed}/redraw"))

        # closed loop: plain passes, or plain and traced passes in turn
        passes: list[Pass] = []
        last: dict[bool, float] = {}
        start = time.perf_counter()
        for traced in itertools.cycle([False, True] if trace else [False]):
            needed = len(passes) < (2 if trace else 1)
            estimate = last.get(traced, last.get(not traced, 0.0))
            now = time.perf_counter()
            if not needed and (now - start + estimate > seconds or now + estimate > begin + HARD_LIMIT_S):
                break
            p = Pass(traced)
            if not traced:
                p.numpy_floor.append(runner.import_time("numpy"))
                p.setup.append(runner.import_time("qpurify"))
            p.sweeps.append([(cmd, runner.run(cmd, traced)) for cmd in cmds])
            # traced runs compare single sweeps, so that the overhead is like for like
            for _ in range(0 if trace else REPEAT - 1):
                p.setup.append(runner.import_time("qpurify"))
                p.sweeps.append([(cmd, runner.run(cmd, False)) for cmd in cmds if cmd.metric not in once])
            passes.append(p)
            last[traced] = time.perf_counter() - now
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".perfbench-tmp").rmdir()
        except OSError:
            pass  # another run still uses it

    errors = [o.error for p in passes for o in p.outcomes if o.error]
    attempted = sum(len(p.outcomes) for p in passes)
    plain = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    numpy_floor = [t for p in plain for t in p.numpy_floor]
    provenance = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **facts,
        "import_numpy_floor_s": statistics.median(numpy_floor),
        "sizes": sizes,
        "once": sorted(once),
        "repeat": 1 if trace else REPEAT,
    }

    print(f"# perfbench workload={name} seed={seed} seconds={seconds} trace={int(trace)}", file=out)
    print(f"# provenance {json.dumps(provenance)}", file=out)
    print(f"# references built in {ref_s:.3f} s; relative-error budget {reference.RTOL:g}, "
          f"underflow floor {reference.ATOL:g}", file=out)
    print(f"# {len(plain)} plain and {len(traced_passes)} traced passes, {attempted} commands, "
          f"in {time.perf_counter() - start:.1f} s", file=out)
    for note in redrawn:
        print(f"# warm-up: {note}", file=out)
    for error in errors:
        print(f"# FAILED {error}", file=out)

    metrics: dict[str, dict] = {}
    if not trace:
        samples = end_to_end(plain)
        print(f"# samples {json.dumps(samples)}", file=out)
        trials = sum(cmd.trials for cmd in cmds)
        for metric, unit, _, _ in END_TO_END:
            if metric == "trials_per_s":
                value = trials / statistics.median(samples["simulate_s"])
                print(f"{metric:<18} {value:>14.6g} {unit:<6} {trials} trials / simulate_s", file=out)
            else:
                vals = samples[metric]
                value = statistics.median(vals)
                print(f"{metric:<18} {value:>14.6g} {unit:<6} median of {len(vals)}, "
                      f"min {min(vals):.6g}, max {max(vals):.6g}", file=out)
            metrics[metric] = {"value": value, "unit": unit}
        print(f"{'import_numpy_s':<18} {statistics.median(numpy_floor):>14.6g} {'s':<6} median of {len(numpy_floor)} "
              "(floor under setup_s)", file=out)
    else:
        layer_samples = [per_layer(p) for p in traced_passes]
        missing = set().union(*(m for _, m in layer_samples))
        units = {metric: unit for metric, unit, _ in PER_LAYER}
        for metric, unit, _ in PER_LAYER:
            if metric == "trace.overhead_s" or metric in missing:
                continue
            vals = [v[metric] for v, _ in layer_samples]
            metrics[metric] = {"value": statistics.median(vals), "unit": unit}
        overhead = statistics.median([p.wall for p in traced_passes]) - statistics.median([p.wall for p in plain])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": units["trace.overhead_s"]}
        for metric, item in metrics.items():
            print(f"{metric:<28} {item['value']:>14.6g} {item['unit']}", file=out)
        if missing:
            print(f"# missing per-layer metrics (function not found): {' '.join(sorted(missing))}", file=out)
        print("# spectrum builds per command in the first traced pass:", file=out)
        for cmd, o in traced_passes[0].sweeps[0]:
            builds = sum(1 for s in (o.spans or {}).get("spans", []) if s["name"] == "analytics.spectrum")
            print(f"#   {builds:>5}  {' '.join(cmd.argv)}", file=out)
    print(f"error_rate={len(errors) / attempted:.6g} ({len(errors)} failed / {attempted} attempted)", file=out)
    return {"correct": not errors, "attempted": attempted, "failed": len(errors), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qpurify" / "cli.py").is_file():
        print(f"error: no qpurify sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
