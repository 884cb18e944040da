"""Spans recorded from the benchmark's side around the program's own calls.

The program has no spans of its own yet. A traced op runs the real
``cli.main``; while it runs, each call one layer makes into another is
replaced, on the module or class attribute the caller looks it up through,
by a wrapper that opens a span around the original. The originals are put
back when the command returns, so untraced ops run unwrapped code.

Spans nest through one stack, so traced ops must run the sweep on one
thread (``MODSELECT_THREADS=1``); run.py does.
"""

from __future__ import annotations

import contextlib
import time

from modselect import cli, dataio, fusion, select
from modselect.core import AccuracyTable
from modselect.fusion import FusionStrategy
from modselect.quantify import ContributionReport
from modselect.select import SelectionReport
from modselect.synth import Scenario

LAYERS = ("cli", "dataio", "core", "fusion", "metrics", "select", "quantify", "synth")

# (owner, attribute, span name): every call site a span wraps. The owner is
# the namespace the caller resolves the name in, and the span's layer is the
# module that defines the function.
CALLS = (
    (dataio, "sha256_file", "dataio.sha256_file"),
    (dataio, "load_json", "dataio.load_json"),
    (dataio, "load_manifest", "dataio.load_manifest"),
    (dataio, "load_bundle", "dataio.load_bundle"),
    (dataio, "read_matrix_csv", "dataio.read_matrix_csv"),
    (dataio, "read_labels_csv", "dataio.read_labels_csv"),
    (dataio, "write_bundle", "dataio.write_bundle"),
    (dataio, "write_matrix_csv", "dataio.write_matrix_csv"),
    (dataio, "write_labels_csv", "dataio.write_labels_csv"),
    (dataio, "dump_json", "dataio.dump_json"),
    (dataio, "write_table_csv", "dataio.write_table_csv"),
    (dataio, "validate_bundle", "core.validate_bundle"),
    (AccuracyTable, "from_dict", "core.table_build"),
    (AccuracyTable, "from_per_strategy", "core.table_build"),
    (AccuracyTable, "to_dict", "core.table_to_dict"),
    (cli, "parse_strategies", "fusion.parse_strategies"),
    (cli, "sweep", "fusion.sweep"),
    (fusion, "fuse", lambda strategy, *_: f"fusion.fuse.{FusionStrategy(strategy).value}"),
    (fusion, "predict", "fusion.predict"),
    (fusion, "mpca", "fusion.mpca"),
    (cli, "run_modselect", "select.run_modselect"),
    (select, "correlation_matrix", "metrics.correlation_matrix"),
    (select, "mmd_matrix", "metrics.mmd_matrix"),
    (select, "aggregated_from_matrices", "metrics.aggregate"),
    (select, "aggregated_select", "select.decide"),
    (SelectionReport, "to_dict", "select.report_to_dict"),
    (cli, "contribution_report", "quantify.contribution_report"),
    (ContributionReport, "to_dict", "quantify.report_to_dict"),
    (Scenario, "from_dict", "synth.scenario_from_dict"),
    (cli, "generate", "synth.generate"),
)


class Tracer:
    """In-memory spans of one op: (id, parent id, name, start, end).

    A span's name is ``<layer>.<call>``, where the layer is the module of
    ``modselect`` that does the work. Spans nest; all spans of one tracer
    belong to the same op.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def open(self, name: str) -> list:
        record = [len(self.spans), self._open[-1] if self._open else None, name, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(record[0])
        return record

    def close(self, record: list) -> None:
        record[4] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self.open(name)
        try:
            yield
        finally:
            self.close(record)

    def roots(self) -> list[list]:
        return [s for s in self.spans if s[1] is None]

    def children(self, span_id) -> list[list]:
        return [s for s in self.spans if s[1] == span_id]

    def subtree(self, root) -> list[list]:
        """The root span and every span opened before the next root."""
        later = [s[0] for s in self.roots() if s[0] > root[0]]
        return self.spans[root[0] : later[0] if later else len(self.spans)]


def _wrap(tracer: Tracer, original, name):
    if isinstance(original, classmethod):
        return classmethod(_wrap(tracer, original.__func__, name))

    def wrapper(*args, **kwargs):
        record = tracer.open(name(*args) if callable(name) else name)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.close(record)

    return wrapper


@contextlib.contextmanager
def wrapped(tracer: Tracer):
    """Route every call site in CALLS through a span for the block's duration."""
    saved = []
    try:
        for owner, attr, name in CALLS:
            original = vars(owner)[attr]  # the raw classmethod, for class attributes
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def run_traced(tracer: Tracer, name: str, argv) -> int:
    """``cli.main(argv)`` under a root span ``cli.<name>``; returns its exit code."""
    with wrapped(tracer), tracer.span(f"cli.{name}"):
        return cli.main(argv)


def covered(spans, names) -> float:
    """Time spent in spans named in ``names``, a span inside another of them counted once."""
    names = set(names)
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for _, parent, name, start, end in spans:
        if name not in names:
            continue
        while parent is not None and parent in by_id and by_id[parent][2] not in names:
            parent = by_id[parent][1]
        if parent is None or parent not in by_id:
            total += end - start
    return total


def inclusive(spans) -> dict[str, float]:
    """Time per span name, a span nested in one of the same name counted once."""
    return {name: covered(spans, (name,)) for name in dict.fromkeys(s[2] for s in spans)}


def self_by_layer(spans) -> dict[str, float]:
    """Per layer: span time minus the time its child spans cover."""
    child_time: dict[int, float] = {}
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = dict.fromkeys(LAYERS, 0.0)
    for sid, _, name, start, end in spans:
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - child_time.get(sid, 0.0)
    return out
