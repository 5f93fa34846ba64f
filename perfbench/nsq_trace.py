"""Traced in-process run of nsq CLI commands, for the per-layer split.

    PYTHONPATH=src python3 perfbench/nsq_trace.py RUN_ID '[["search", "--n", "20"]]'

runs each command through ``nsq.cli.main`` in this one process, with a
span recorded around every call named in ``WRAPS``.  Spans stay in memory
as ``[name, start, end, parent, run_id]`` and are written out at the end,
with the captured command outputs, as one JSON object on stdout.

Nothing inside nsq is changed: each wrapper replaces the module attribute
its caller looks up at call time, and every attribute is restored before
the process writes its result.  ``layer_metrics`` turns the spans into the
per-layer metrics and imports nothing from nsq.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from collections import Counter, defaultdict
from importlib import import_module

# (module, attribute, span name).  A span name is "<layer>.<call>", the
# layer being the nsq module that implements the call.
WRAPS = (
    ("nsq.cli", "enumerate_classes", "search.enumerate"),
    # group imports enumerate_classes from search inside _relation_samples
    ("nsq.search", "enumerate_classes", "search.enumerate"),
    ("nsq.cli", "golay_type_class_count", "golay.count"),
    ("nsq.golay", "golay_pairs", "golay.golay_pairs"),
    ("nsq.cli", "verify_tables", "tables.verify"),
    ("nsq.cli", "verify_relations", "group.verify_relations"),
    # search_normal and search_golay resolve run_search at call time
    ("nsq._engine", "run_search", "engine.run_search"),
    ("nsq.search", "is_normal", "core.is_normal"),
    ("nsq.tables", "is_normal", "core.is_normal"),
    # GolayPair.__post_init__ validates every pair through npaf
    ("nsq.golay", "npaf", "core.npaf"),
    ("nsq.search", "decode_quadruple", "quadcodec.decode_quadruple"),
    ("nsq.tables", "decode_quadruple", "quadcodec.decode_quadruple"),
    ("nsq.search", "canonical_violation", "equivalence.canonical_violation"),
    ("nsq.tables", "canonical_violation", "equivalence.canonical_violation"),
    ("nsq.search", "canonical_raw", "equivalence.canonical_raw"),
    ("nsq.golay", "canonical_raw", "equivalence.canonical_raw"),
    ("nsq.tables", "canonical_raw", "equivalence.canonical_raw"),
    ("nsq.search", "is_golay_type", "equivalence.is_golay_type"),
    ("nsq.tables", "is_golay_type", "equivalence.is_golay_type"),
)
ROOT_SPAN = "cli.main"

# Counts taken from what a traced call returns.
COUNTS = {
    "engine.run_search": lambda leaves: {"engine.leaves": len(leaves["syms"][0])},
    "search.enumerate": lambda records: {"search.records": len(records)},
    "golay.golay_pairs": lambda pairs: {"golay.pairs": len(pairs)},
    "tables.verify": lambda report: {
        "tables.rows": report.checked_rows,
        "tables.findings": len(report.findings),
    },
}
# Spans whose growth of the process's peak resident set is recorded.
RSS_SPANS = {"engine.run_search": "engine.rss_growth_mb"}
COUNTERS = (
    "engine.leaves",
    "search.records",
    "golay.pairs",
    "tables.rows",
    "tables.findings",
    "engine.rss_growth_mb",
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Records spans around wrapped calls and restores what it wrapped."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._restore: list[tuple] = []

    def traced(self, name: str, fn):
        count = COUNTS.get(name)
        rss_metric = RSS_SPANS.get(name)

        def wrapper(*args, **kwargs):
            rss_before = _maxrss_mb() if rss_metric else 0.0
            parent = self._open[-1] if self._open else None
            record = [name, time.perf_counter(), None, parent, self.run_id]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if rss_metric:
                self.counts[rss_metric] += _maxrss_mb() - rss_before
            if count:
                self.counts.update(count(result))
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name in WRAPS:
            module = import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.traced(name, original))

    def restore(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)


def span_names() -> set[str]:
    return {name for _, _, name in WRAPS} | {ROOT_SPAN}


def layer_metrics(spans: list[list], counts: dict) -> dict[str, float]:
    """``<span>_s`` and ``<span>_calls`` per span name, ``<layer>.self_s``
    per layer, and the recorded counts; 0 for what did not run.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time sums that over the layer's spans, so
    nested spans of one layer count once."""
    names = span_names()
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    self_time: dict[str, float] = defaultdict(float)
    durations = [end - start for _, start, end, _, _ in spans]
    own = list(durations)
    for index, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            own[parent] -= durations[index]
    for index, (name, *_rest) in enumerate(spans):
        total[name] += durations[index]
        calls[name] += 1
        self_time[name.split(".")[0]] += own[index]
    metrics: dict[str, float] = {}
    for name in names:
        metrics[f"{name}_s"] = total[name]
        metrics[f"{name}_calls"] = calls[name]
    for layer in {name.split(".")[0] for name in names}:
        metrics[f"{layer}.self_s"] = self_time[layer]
    metrics.update(dict.fromkeys(COUNTERS, 0))
    metrics.update(counts)
    return metrics


def main(argv: list[str]) -> int:
    run_id, commands = argv[1], json.loads(argv[2])
    start = time.perf_counter()
    import nsq.cli

    import_s = time.perf_counter() - start
    tracer = Tracer(run_id)
    tracer.install()
    outputs = []
    try:
        main_span = tracer.traced(ROOT_SPAN, nsq.cli.main)
        for command in commands:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = main_span(command)
            outputs.append({"returncode": code, "stdout": buffer.getvalue()})
    finally:
        tracer.restore()
    json.dump(
        {
            "run_id": run_id,
            "nsq_file": nsq.cli.__file__,
            "import_s": import_s,
            "outputs": outputs,
            "counts": dict(tracer.counts),
            "spans": tracer.spans,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
