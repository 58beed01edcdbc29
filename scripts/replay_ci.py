#!/usr/bin/env python3
"""Replay the ``run:`` steps of .github/workflows/tests.yml on this machine.

Every step after ``Install`` runs in file order from the repository root,
as ``bash -e`` on the step's script, the shell a runner uses when a step
names none.  ``RUNNER_TEMP`` is a fresh temporary directory, and ``PATH``
starts with a directory whose ``qpurify`` runs ``python -m qpurify`` on
``src`` and whose ``python`` and ``python3`` are the interpreter running
this script.  Each step prints ``pass`` or ``fail`` and its wall time; a
failed step also prints the end of its output.  The exit code is 1 if any
step failed.

This is a replay of the step scripts, not a runner: the ``uses:`` steps,
the ``if:`` conditions (every step runs), the runner image and its Python
version are not reproduced.

Usage: python3 scripts/replay_ci.py
"""

import os
import subprocess
import sys
import tempfile
import time

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tests.yml")
TAIL_LINES = 30


def replayed_steps(workflow: dict) -> list[dict]:
    """The steps with a ``run:`` script after the ``Install`` step, in file order."""
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    after = [step.get("name") for step in steps].index("Install") + 1
    return [step for step in steps[after:] if "run" in step]


def _command(folder: str, name: str, line: str) -> None:
    path = os.path.join(folder, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#!/bin/sh\n{line}\n")
    os.chmod(path, 0o755)


def main() -> int:
    with open(WORKFLOW, encoding="utf-8") as fh:
        steps = replayed_steps(yaml.safe_load(fh))
    failed = 0
    with tempfile.TemporaryDirectory(prefix="replay-ci-") as tmp:
        bin_dir, runner_temp = os.path.join(tmp, "bin"), os.path.join(tmp, "runner")
        os.mkdir(bin_dir)
        os.mkdir(runner_temp)
        src = os.path.join(ROOT, "src")
        path = f'PYTHONPATH="{src}${{PYTHONPATH:+:$PYTHONPATH}}"'
        _command(bin_dir, "qpurify", f'{path} exec "{sys.executable}" -m qpurify "$@"')
        for name in ("python", "python3"):
            _command(bin_dir, name, f'exec "{sys.executable}" "$@"')
        env = dict(os.environ, RUNNER_TEMP=runner_temp, PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
        for i, step in enumerate(steps):
            script = os.path.join(tmp, f"step{i}.sh")
            with open(script, "w", encoding="utf-8") as fh:
                fh.write(step["run"])
            start = time.perf_counter()
            proc = subprocess.run(
                ["bash", "-e", script], cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT
            )
            wall = time.perf_counter() - start
            ok = proc.returncode == 0
            failed += not ok
            name = step.get("name", step["run"].splitlines()[0])
            print(f"{'pass' if ok else 'fail'} {wall:7.1f} s  {name}", flush=True)
            if not ok:
                tail = proc.stdout.decode(errors="replace").splitlines()[-TAIL_LINES:]
                print("".join(f"    | {line}\n" for line in tail), end="", flush=True)
    print(f"{len(steps) - failed} of {len(steps)} steps passed (a local replay, not a runner)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
