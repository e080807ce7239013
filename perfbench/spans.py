"""Span tracing from outside the package.

The package imports its collaborators with ``from .x import f``, so each
call site looks the name up in its own module's globals. Rebinding those
names (``toolqa.pipeline.calc``, ``toolqa.sql_engine.parse_table``, ...)
to timing wrappers therefore catches every call without touching the
package. ``Tracer.installed()`` rebinds and restores them.

A span is (id, name, start, end, parent id, record id, phase, bytes).
Parents come from a per-thread stack, so spans opened on worker threads of
``run_batch`` nest under the record they belong to. The record id is the
record's index in the batch; nested spans inherit it from their parent.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager

from toolqa import calculator, datasets, evalkit, lm_backend, pipeline, sql_engine, templates

ID, NAME, START, END, PARENT, RID, PHASE, BYTES = range(8)

# (span name, modules whose global of that function name is rebound).
# Every call site of these functions goes through one of the listed names.
TRACED_FUNCTIONS = (
    ("datasets.load_dataset", "load_dataset", (datasets,)),
    ("templates.render_prompt", "render_prompt", (templates, datasets, pipeline)),
    ("templates.gold_template", "gold_template", (templates, datasets, evalkit)),
    ("tabular.render_table", "render_table", (templates, pipeline, evalkit)),
    ("tabular.parse_table", "parse_table", (sql_engine,)),
    ("sql_engine.run_script", "run_script", (pipeline, evalkit)),
    ("sql_engine.parse_sql", "parse_sql", (sql_engine,)),
    ("sql_engine.execute_query", "execute_query", (sql_engine,)),
    ("calculator.calc", "calc", (pipeline, evalkit)),
    ("calculator.parse_expression", "parse_expression", (calculator,)),
    ("lm_backend.prompt_digest", "prompt_digest", (lm_backend,)),
    ("pipeline.record", "answer_with_backoff", (pipeline,)),
    ("evalkit.score_run", "score_run", (evalkit,)),
    ("evalkit.gold_answer", "gold_answer", (evalkit,)),
    ("evalkit.exact_match", "exact_match", (evalkit,)),
)
# Generation is a method; wrapping it on the classes covers the echo-gold
# backend too, which inherits ReplayBackend.generate.
TRACED_METHODS = (
    ("lm_backend.generate", "generate", (lm_backend.ReplayBackend, lm_backend.RemoteBackend)),
)
RECORD_ARG = {"pipeline.record", "evalkit.gold_answer"}
MEASURE_BYTES = {"templates.render_prompt"}


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.phase = "setup"
        self.record_ids: dict[int, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        record_arg = name in RECORD_ARG
        measure_bytes = name in MEASURE_BYTES
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if record_arg:
                rid = self.record_ids.get(id(args[0]))
            else:
                rid = parent[1] if parent else None
            span_id = next(ids)
            stack.append((span_id, rid))
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                # Calls that raise (a failed grammar probe, a tool error) count too.
                size = len(result.encode("utf-8")) if measure_bytes and result else 0
                spans.append((span_id, name, start, end, parent[0] if parent else None,
                              rid, self.phase, size))

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, e.g. a backend build."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append((span_id, None))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent[0] if parent else None,
                               None, self.phase, 0))

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name, attr, owners in TRACED_FUNCTIONS + TRACED_METHODS:
                for owner in owners:
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children of one span run on its thread one after another, so the part
    they cover is the sum of their durations.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s[PARENT] is not None:
            covered[s[PARENT]] = covered.get(s[PARENT], 0.0) + (s[END] - s[START])
    return {s[ID]: (s[END] - s[START]) - covered.get(s[ID], 0.0) for s in spans}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def write_spans(path: str, spans: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["id", "name", "start", "end", "parent", "record", "phase", "bytes"])
                 + "\n")
        for s in spans:
            fh.write(json.dumps(s) + "\n")
