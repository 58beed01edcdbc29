"""Per-layer spans for the traced benchmark run.

Run as a child process in place of the plain CLI:

    python perfbench/layers.py SPANS.json -- stats --n 20 --lambda 0.6

It imports ``qpurify``, replaces each public function named in ``SPANS``
by a wrapper that records an in-memory span (name, parent, start, end,
peak-RSS growth and a few counts read off the result), calls
``qpurify.cli.main(argv)`` and writes the spans to SPANS.json on exit.
No file of the program changes.

A function is found by name in whichever ``qpurify`` module defines it, and
every module namespace that binds it is patched, because modules import
each other's names (``kron_power`` is bound in ``core``, ``analytics``,
``oracle`` and ``protocol``).  A function that no module defines any more
is listed as missing, and every metric that needs it is reported missing.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import pkgutil
import resource
import sys
import time

# span name -> function name
SPANS = {
    "analytics.spectrum": "block_spectrum",
    "analytics.yield": "yield_factor",
    "analytics.mean_fidelity": "mean_fidelity",
    "analytics.block_state": "block_state_matrix",
    "cloning.estimation": "estimation_lambda",
    "cloning.mixed_cloning": "mixed_cloning_fidelity",
    "protocol.sample": "run_protocol",
    "protocol.dense": "run_protocol_dense",
    "protocol.dump": "write_outcomes_csv",
    "blocks.basis": "build_schur_basis",
    "blocks.swap": "block_swap",
    "oracle.decomposition": "verify_decomposition",
    "oracle.measure_block": "measure_block",
    "oracle.quadrature": "quadrature_check",
    "oracle.reversibility": "reversibility_check",
    "oracle.covariance": "covariance_residual",
    "oracle.map_outputs": "purification_map_outputs",
    "core.kron_power": "kron_power",
    "core.partial_trace": "partial_trace",
}
ROOT_SPAN = "cli.main"


def _spectrum_fields(result) -> dict:
    probs = [row.probability for row in result.rows]
    return {"rows": len(probs), "norm_defect": abs(math.fsum(probs) - 1.0)}


def _summary_fields(result) -> dict:
    return {
        "trials": result.trials,
        "label_hist_keys": len(result.label_histogram),
        "outcome_records": len(result.outcomes or ()),
    }


def _swap_fields(result) -> dict:
    # computed bytes of the dense 2^n x 2^n complex swap, 16 * 4^n
    return {"bytes": 0 if result.is_identity else 16 * result.matrix.shape[0] ** 2}


# counts read off a span's return value, outside its timed interval
FIELDS = {
    "analytics.spectrum": _spectrum_fields,
    "protocol.sample": _summary_fields,
    "protocol.dense": _summary_fields,
    "blocks.swap": _swap_fields,
    "core.kron_power": lambda result: {"bytes": result.nbytes},
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Recorder:
    """In-memory spans of one process; the parent of a span is the span
    open when it started."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        fields = FIELDS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None, "name": name}
            self.spans.append(record)
            self._stack.append(record["id"])
            rss0 = _maxrss_kb()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                record.update(start=start, end=end, rss_growth_kb=_maxrss_kb() - rss0)
                self._stack.pop()
            if fields is not None:
                try:
                    record.update(fields(result))
                except (AttributeError, TypeError, ValueError) as exc:
                    record["field_error"] = f"{type(exc).__name__}: {exc}"
            return result

        return wrapper


def _qpurify_modules() -> list:
    import qpurify

    names = sorted(m.name for m in pkgutil.iter_modules(qpurify.__path__) if m.name != "__main__")
    return [qpurify] + [importlib.import_module(f"qpurify.{name}") for name in names]


def install(recorder: Recorder) -> list[str]:
    """Patch every binding of every SPANS function; returns the missing span names."""
    modules = _qpurify_modules()
    missing = []
    for span, fname in SPANS.items():
        homes = [mod for mod in modules if getattr(getattr(mod, fname, None), "__module__", None) == mod.__name__]
        if not homes:
            missing.append(span)
            continue
        target = getattr(homes[0], fname)
        wrapper = recorder.wrap(span, target)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is target:
                    setattr(mod, attr, wrapper)
    return missing


def child_main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: layers.py SPANS.json -- <qpurify arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    recorder = Recorder()
    missing = install(recorder)
    from qpurify import cli

    try:
        return recorder.wrap(ROOT_SPAN, cli.main)(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans, "missing": missing}, fh)


# ---------------------------------------------------------------- metrics


class _Spans:
    """Spans of one traced pass: several processes, one list each."""

    def __init__(self, processes: list[dict]):
        self.processes = processes
        self.missing = set().union(*(p["missing"] for p in processes)) if processes else set()

    def named(self, name: str):
        for proc in self.processes:
            yield from (s for s in proc["spans"] if s["name"] == name)

    def total(self, *names: str) -> float:
        return math.fsum(s["end"] - s["start"] for name in names for s in self.named(name))

    def count(self, name: str) -> int:
        return sum(1 for _ in self.named(name))

    def self_time(self, *names: str) -> float:
        """Duration minus the time covered by direct child spans."""
        out = []
        for proc in self.processes:
            children: dict[int, float] = {}
            for s in proc["spans"]:
                if s["parent"] is not None:
                    children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
            out += [s["end"] - s["start"] - children.get(s["id"], 0.0) for s in proc["spans"] if s["name"] in names]
        return math.fsum(out)

    def field(self, name: str, key: str) -> list:
        values = []
        for s in self.named(name):
            if key not in s:
                raise KeyError(f"{name}.{key}: {s.get('field_error', 'not recorded')}")
            values.append(s[key])
        return values

    def rss_growth_mb(self, *names: str) -> float:
        """Largest peak-RSS growth one process had inside the outermost spans of ``names``."""
        worst = 0
        for proc in self.processes:
            by_id = {s["id"]: s for s in proc["spans"]}
            grown = 0
            for s in proc["spans"]:
                if s["name"] not in names:
                    continue
                parent = s["parent"]
                while parent is not None and by_id[parent]["name"] not in names:
                    parent = by_id[parent]["parent"]
                if parent is None:
                    grown += s["rss_growth_kb"]
            worst = max(worst, grown)
        return worst / 1024.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# name, unit, better, spans the metric needs, value from the pass's spans
PER_LAYER = [
    ("analytics.spectrum_s", "s", "lower", ["analytics.spectrum"], lambda t: t.total("analytics.spectrum")),
    ("analytics.spectrum_builds", "count", "lower", ["analytics.spectrum"], lambda t: t.count("analytics.spectrum")),
    ("analytics.spectrum_rows", "count", "lower", ["analytics.spectrum"], lambda t: sum(t.field("analytics.spectrum", "rows"))),
    ("analytics.rows_per_s", "1/s", "higher", ["analytics.spectrum"],
     lambda t: _ratio(sum(t.field("analytics.spectrum", "rows")), t.total("analytics.spectrum"))),
    ("analytics.averages_self_s", "s", "lower", ["analytics.yield", "analytics.mean_fidelity"],
     lambda t: t.self_time("analytics.yield", "analytics.mean_fidelity")),
    ("analytics.block_state_s", "s", "lower", ["analytics.block_state"], lambda t: t.total("analytics.block_state")),
    ("analytics.norm_defect", "1", "lower", ["analytics.spectrum"],
     lambda t: max(t.field("analytics.spectrum", "norm_defect"), default=0.0)),
    ("cloning.estimation_s", "s", "lower", ["cloning.estimation"], lambda t: t.total("cloning.estimation")),
    ("cloning.estimation_calls", "count", "lower", ["cloning.estimation"], lambda t: t.count("cloning.estimation")),
    ("cloning.mixed_cloning_s", "s", "lower", ["cloning.mixed_cloning"], lambda t: t.total("cloning.mixed_cloning")),
    ("protocol.sample_s", "s", "lower", ["protocol.sample"], lambda t: t.total("protocol.sample")),
    ("protocol.sample_self_s", "s", "lower", ["protocol.sample"], lambda t: t.self_time("protocol.sample")),
    ("protocol.trials_per_s", "1/s", "higher", ["protocol.sample"],
     lambda t: _ratio(sum(t.field("protocol.sample", "trials")), t.total("protocol.sample"))),
    ("protocol.label_hist_keys", "count", "lower", ["protocol.sample", "protocol.dense"],
     lambda t: sum(t.field("protocol.sample", "label_hist_keys") + t.field("protocol.dense", "label_hist_keys"))),
    ("protocol.outcome_records", "count", "lower", ["protocol.sample", "protocol.dense"],
     lambda t: sum(t.field("protocol.sample", "outcome_records") + t.field("protocol.dense", "outcome_records"))),
    ("protocol.dump_s", "s", "lower", ["protocol.dump"], lambda t: t.total("protocol.dump")),
    ("protocol.rss_growth_mb", "MB", "lower", ["protocol.sample", "protocol.dense", "protocol.dump"],
     lambda t: t.rss_growth_mb("protocol.sample", "protocol.dense", "protocol.dump")),
    ("protocol.dense_s", "s", "lower", ["protocol.dense"], lambda t: t.total("protocol.dense")),
    ("protocol.dense_self_s", "s", "lower", ["protocol.dense"], lambda t: t.self_time("protocol.dense")),
    ("blocks.basis_s", "s", "lower", ["blocks.basis"], lambda t: t.total("blocks.basis")),
    ("blocks.basis_calls", "count", "lower", ["blocks.basis"], lambda t: t.count("blocks.basis")),
    ("blocks.swap_s", "s", "lower", ["blocks.swap"], lambda t: t.total("blocks.swap")),
    ("blocks.swap_calls", "count", "lower", ["blocks.swap"], lambda t: t.count("blocks.swap")),
    ("blocks.swap_bytes", "bytes", "lower", ["blocks.swap"], lambda t: sum(t.field("blocks.swap", "bytes"))),
    ("blocks.rss_growth_mb", "MB", "lower", ["blocks.basis", "blocks.swap"],
     lambda t: t.rss_growth_mb("blocks.basis", "blocks.swap")),
    ("oracle.decomposition_self_s", "s", "lower", ["oracle.decomposition"], lambda t: t.self_time("oracle.decomposition")),
    ("oracle.measure_block_s", "s", "lower", ["oracle.measure_block"], lambda t: t.total("oracle.measure_block")),
    ("oracle.measure_block_calls", "count", "lower", ["oracle.measure_block"], lambda t: t.count("oracle.measure_block")),
    ("oracle.quadrature_s", "s", "lower", ["oracle.quadrature"], lambda t: t.total("oracle.quadrature")),
    ("oracle.reversibility_s", "s", "lower", ["oracle.reversibility"], lambda t: t.total("oracle.reversibility")),
    ("oracle.reversibility_calls", "count", "lower", ["oracle.reversibility"], lambda t: t.count("oracle.reversibility")),
    ("oracle.covariance_s", "s", "lower", ["oracle.covariance"], lambda t: t.total("oracle.covariance")),
    ("oracle.map_outputs_calls", "count", "lower", ["oracle.map_outputs"], lambda t: t.count("oracle.map_outputs")),
    ("core.kron_power_s", "s", "lower", ["core.kron_power"], lambda t: t.total("core.kron_power")),
    ("core.kron_power_calls", "count", "lower", ["core.kron_power"], lambda t: t.count("core.kron_power")),
    ("core.kron_power_bytes", "bytes", "lower", ["core.kron_power"], lambda t: sum(t.field("core.kron_power", "bytes"))),
    ("core.partial_trace_s", "s", "lower", ["core.partial_trace"], lambda t: t.total("core.partial_trace")),
    ("core.partial_trace_calls", "count", "lower", ["core.partial_trace"], lambda t: t.count("core.partial_trace")),
    ("cli.self_s", "s", "lower", [ROOT_SPAN], lambda t: t.self_time(ROOT_SPAN)),
]


def layer_metrics(processes: list[dict]) -> tuple[dict[str, float], set[str]]:
    """Per-layer values of one traced pass, and the names that could not be measured."""
    spans = _Spans(processes)
    values: dict[str, float] = {}
    missing: set[str] = set()
    for name, _, _, needs, value in PER_LAYER:
        if spans.missing.intersection(needs):
            missing.add(name)
            continue
        try:
            values[name] = float(value(spans))
        except KeyError:
            missing.add(name)
    return values, missing


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
