"""Workloads, measurement cycles, correctness gates and metrics.

A run repeats *cycles* until the timed phases add up to ``--seconds``. A
cycle is what one user invocation does: set-up (sources on disk -> a
backend ready to answer), infer (``run_batch``) and score (``score_run``
+ ``render_report``). Every cycle gets its own corpus, generated from
(seed, cycle index) before its clock starts, so no cycle can profit from
a cache filled by an earlier one; within a cycle, sharing (many questions
on one table) is part of the workload. End-to-end figures are medians
over cycles of phase times scaled by the machine speed measured around
the cycle's phases (``calibrate.py``).

With ``--trace 1`` cycles alternate untraced and traced; the per-layer
metrics come from the traced cycles and ``trace.overhead_share`` compares
the two kinds.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import http.client
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import requests

from toolqa import datasets, evalkit, lm_backend, pipeline

import calibrate
import gen
import spans as spanlib
import stub_model

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

NPROC = len(os.sched_getaffinity(0))
MIXED_PER_LOADER = 1000
REMOTE_PER_LOADER = 100
MIN_CYCLES = 3
MIN_TRACED_PAIRS = 2
# Start no cycle that could end after this many seconds of wall time: a run
# must exit within 180 s.
WALL_LIMIT_S = 150.0


@dataclass(frozen=True)
class Workload:
    """A workload's name, its generations in flight, and which of its phases
    (set-up, infer, score) are reported scaled by the machine speed index.
    A phase stays as measured where the recorded runs showed scaling widens
    its spread (README.md, "Machine-speed scaling"). README.md says why
    each workload exists."""

    name: str
    max_in_flight: int
    scaled: tuple[bool, bool, bool] = (True, True, True)


WORKLOADS = {w.name: w for w in (
    Workload("mixed-replay", 1),
    Workload("big-tables", 1),
    # Infer mostly waits on the stub's fixed service time, not on the CPU.
    Workload("remote-loopback", NPROC, scaled=(True, False, True)),
)}


@dataclass
class Cycle:
    setup_s: float = 0.0
    infer_s: float = 0.0
    score_s: float = 0.0
    records: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    layer: dict | None = None
    valid: bool = True  # False when the program raised or lost records: no timings
    # Machine speed index of the cycle (calibrate.py).
    speed: float = 1.0


# -- stub model process --------------------------------------------------------------

class StubModel:
    """The remote-loopback model, in its own process for the run's length."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub_model.py")],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError(f"stub model did not report a port (got {line!r})")
        self.port = int(line)
        self.base_url = f"http://127.0.0.1:{self.port}/v1"

    def _call(self, method: str, path: str, body: dict | None = None) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            payload = json.dumps(body).encode("utf-8") if body is not None else None
            conn.request(method, path, body=payload,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            data = json.loads(resp.read())
            if resp.status != 200:
                raise RuntimeError(f"stub {path}: HTTP {resp.status} {data}")
            return data
        finally:
            conn.close()

    def load(self, fixture_path: str) -> int:
        return self._call("POST", "/control/load", {"fixture": fixture_path})["entries"]

    def stats(self) -> dict:
        return self._call("GET", "/control/stats")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# -- one cycle ------------------------------------------------------------------------

def build_corpus(workload: str, work_dir: str, seed: int) -> gen.Corpus:
    def load(sources):
        return [r for tag, path, tables in sources
                for r in datasets.load_dataset(tag, path, tables_path=tables)]

    if workload == "big-tables":
        corpus = gen.build_big_corpus(work_dir, seed)
        gen.check_big_corpus(load(corpus.sources), corpus)
        return corpus
    if workload == "mixed-replay":
        return gen.build_mixed_corpus(work_dir, seed, MIXED_PER_LOADER, True, load)
    return gen.build_mixed_corpus(work_dir, seed, REMOTE_PER_LOADER, False, load)


def set_up(workload: str, corpus: gen.Corpus, work_dir: str, stub: StubModel | None,
           session: requests.Session | None, build_span):
    """Sources on disk -> (records, backend). This is the timed set-up."""
    records = []
    for tag, path, tables in corpus.sources:
        records.extend(datasets.load_dataset(tag, path, tables_path=tables))
    if workload != "big-tables":
        # The CLI path: prepare filters by budget and writes record files,
        # infer reads them back.
        records = datasets.filter_by_budget(records, datasets.BudgetSpec())
        record_path = os.path.join(work_dir, "records.jsonl")
        datasets.save_records(records, record_path)
        records = datasets.load_records(record_path)
    with build_span("lm_backend.backend_build"):
        if workload == "mixed-replay":
            backend = lm_backend.ReplayBackend(lm_backend.load_fixture(corpus.fixture_path))
        elif workload == "big-tables":
            backend = lm_backend.EchoGoldBackend(records)
        else:
            backend = lm_backend.RemoteBackend(stub.base_url, "stub-model", timeout_s=10.0,
                                               max_in_flight=NPROC, session=session)
    return records, backend


def outcome_deviates(outcome, exp: gen.Expected) -> bool:
    """Compare only the fields the gate names, so optional outcome fields
    added later do not matter."""
    if (outcome.route is not exp.route or outcome.used_backoff != exp.used_backoff
            or outcome.final_answer != exp.answer):
        return True
    if exp.error_tag is None:
        return outcome.error is not None
    return outcome.error is None or not outcome.error.startswith(exp.error_tag + ":")


def report_problems(report, expected: list[gen.Expected]) -> list[str]:
    """Scorer checks: full exact match, and router accuracy and backoff
    usage equal to what the injected faults imply."""
    problems = []
    by_tag: dict[str, list[gen.Expected]] = {}
    for e in expected:
        by_tag.setdefault(e.tag, []).append(e)
    for tag, exps in by_tag.items():
        accuracy = report.per_dataset_accuracy.get(tag)
        if accuracy != 1.0:
            problems.append(f"{tag}: exact match {accuracy}, expected 1.0")
        router = sum(e.route is e.gold_kind for e in exps) / len(exps)
        got = report.router_accuracy.get(tag)
        if got is None or not math.isclose(got, router, rel_tol=1e-12):
            problems.append(f"{tag}: router accuracy {got}, expected {router}")
    backoff = sum(e.used_backoff for e in expected) / len(expected)
    if not math.isclose(report.backoff_usage, backoff, rel_tol=1e-12, abs_tol=1e-15):
        problems.append(f"backoff usage {report.backoff_usage}, expected {backoff}")
    return problems


def timed_phases(workload: Workload, corpus: gen.Corpus, work_dir: str,
                 stub: StubModel | None, session, tracer: spanlib.Tracer | None, cycle: Cycle):
    """Set-up, infer and score under the clock; returns (records, outcomes, report)."""
    installed = tracer.installed() if tracer else contextlib.nullcontext()
    build_span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    config = pipeline.BatchConfig(max_in_flight=workload.max_in_flight)
    report = None
    # The calibration kernel brackets every phase, outside its clock.
    cal = [calibrate.sample()]
    with installed:
        t0 = time.perf_counter()
        records, backend = set_up(workload.name, corpus, work_dir, stub, session, build_span)
        t1 = time.perf_counter()
        cal.append(calibrate.sample())
        if tracer:
            tracer.phase = "infer"
            tracer.record_ids = {id(r): i for i, r in enumerate(records)}
        t2 = time.perf_counter()
        outcomes = pipeline.run_batch(records, backend, config)
        t3 = time.perf_counter()
        cal.append(calibrate.sample())
        if tracer:
            tracer.phase = "score"
        t4 = time.perf_counter()
        if len(records) == len(corpus.expected):
            report = evalkit.score_run(outcomes, records)
            evalkit.render_report(report)
        t5 = time.perf_counter()
    cal.append(calibrate.sample())
    cycle.setup_s, cycle.infer_s, cycle.score_s = t1 - t0, t3 - t2, t5 - t4
    # One index per cycle: a single kernel sample is noisier than the
    # host's speed changes between neighbouring phases, so all four are
    # averaged.
    cycle.speed = calibrate.REFERENCE_S * len(cal) / sum(cal)
    return records, outcomes, report


def run_cycle(workload: Workload, corpus: gen.Corpus, work_dir: str,
              stub: StubModel | None, tracer: spanlib.Tracer | None) -> Cycle:
    expected = corpus.expected
    cycle = Cycle(records=len(expected))
    if stub is not None:
        stub.load(corpus.fixture_path)
    session = requests.Session() if stub is not None else None
    gc.collect()
    try:
        records, outcomes, report = timed_phases(workload, corpus, work_dir, stub, session,
                                                 tracer, cycle)
    except Exception as exc:  # the program failed: count it, keep measuring
        traceback.print_exc()
        cycle.problems.append(f"cycle raised {type(exc).__name__}: {exc}")
        cycle.failed, cycle.valid = len(expected), False
        return cycle
    finally:
        if session is not None:
            session.close()
    if len(records) != len(expected):
        cycle.problems.append(f"set-up yielded {len(records)} records, expected {len(expected)}")
        # Timings of a different amount of work are not comparable.
        cycle.failed, cycle.valid = len(expected), False
        return cycle
    cycle.failed = sum(outcome_deviates(o, e) for o, e in zip(outcomes, expected))
    cycle.problems.extend(report_problems(report, expected))
    stats = None
    if stub is not None:
        stats = stub.stats()
        want_rejects = stub_model.reject_count(corpus.n_fixture_entries)
        want_requests = corpus.n_fixture_entries + want_rejects
        if stats["rejected"] != want_rejects or stats["requests"] != want_requests:
            cycle.problems.append(
                f"stub counted {stats['requests']} requests with {stats['rejected']} 503s, "
                f"expected {want_requests} with {want_rejects}")
    if cycle.problems:
        cycle.failed = len(expected)
    if tracer:
        cycle.layer = layer_sample(tracer.spans, outcomes, expected, cycle.infer_s, stats)
    return cycle


# -- per-layer metrics -----------------------------------------------------------------

CALL_COUNTS = ("sql_engine.parse_sql", "tabular.render_table", "tabular.parse_table",
               "templates.render_prompt", "templates.gold_template",
               "calculator.parse_expression", "calculator.calc", "lm_backend.prompt_digest")
# The echo-path counts are checked per phase, so these are also split by
# phase; every other phase of these counts is 0 on the seed code.
PHASE_SPLITS = {"templates.gold_template": ("setup", "score"),
                "tabular.render_table": ("setup", "infer"),
                "lm_backend.prompt_digest": ("setup", "infer"),
                "sql_engine.parse_sql": ("score",)}
SELF_TIMES = ("sql_engine.execute_query", "tabular.render_table", "tabular.parse_table",
              "templates.render_prompt", "templates.gold_template", "lm_backend.generate",
              "pipeline.record", "evalkit.score_run", "evalkit.gold_answer",
              "datasets.load_dataset")
PERCENTILES = ("lm_backend.generate", "pipeline.record", "calculator.calc", "evalkit.exact_match")
ROW_BUCKET_NAMES = ("rows_small",) + tuple(f"rows_{n}" for n in gen.ROW_BUCKETS)
ERROR_TAGS = ("DivisionByZero", "ParseError", "sql:ParseError", "execute:UnknownColumn",
              "UnknownTemplate")


def row_bucket(rows: int) -> str:
    return f"rows_{rows}" if rows in gen.ROW_BUCKETS else "rows_small"


def layer_sample(spans: list[tuple], outcomes, expected, infer_wall_s: float,
                 stub_stats: dict | None) -> dict:
    """Per-layer figures of one traced cycle; duration lists are pooled
    over cycles later, everything else is taken as a median. A figure of a
    layer the workload never exercises (a self time or percentile with no
    spans, stub figures without the stub) is left out."""
    n = len(expected)
    S = spanlib
    self_t = S.self_times(spans)
    counts: dict[tuple[str, str], int] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    prompt_bytes = 0
    generate_s = 0.0
    build_s = 0.0
    for s in spans:
        name, dur = s[S.NAME], s[S.END] - s[S.START]
        counts[(name, s[S.PHASE])] = counts.get((name, s[S.PHASE]), 0) + 1
        self_s[name] = self_s.get(name, 0.0) + self_t[s[S.ID]]
        key = name
        if name == "sql_engine.run_script":
            rows = expected[s[S.RID]].rows if s[S.RID] is not None else 0
            key = f"{name}.{row_bucket(rows)}"
        durations.setdefault(key, []).append(dur)
        prompt_bytes += s[S.BYTES]
        if name == "lm_backend.generate":
            generate_s += dur
        elif name == "lm_backend.backend_build":
            build_s += dur

    m: dict[str, float] = {}
    for name in CALL_COUNTS:
        m[f"{name}.calls_per_record"] = sum(
            v for (span, _), v in counts.items() if span == name) / n
    for name, phases in PHASE_SPLITS.items():
        for phase in phases:
            m[f"{name}.calls_per_record.{phase}"] = counts.get((name, phase), 0) / n
    generates = sum(v for (name, _), v in counts.items() if name == "lm_backend.generate")
    m["lm_backend.generate.calls_per_record"] = generates / n
    for name in SELF_TIMES:
        if name in self_s:
            m[f"{name}.self_s"] = self_s[name]
    m["templates.prompt_bytes_per_record"] = prompt_bytes / n
    m["lm_backend.backend_build_s"] = build_s
    if stub_stats is not None and generates:
        m["lm_backend.http_attempts_per_generate"] = stub_stats["requests"] / generates
        m["lm_backend.stub_service_share"] = stub_stats["service_s"] / generate_s
    m["pipeline.mean_in_flight"] = generate_s / infer_wall_s
    m["pipeline.backoff_share"] = sum(o.used_backoff for o in outcomes) / n
    errors = [o.error.split(": ", 1)[0] for o in outcomes if o.error is not None]
    m["pipeline.tool_error_share"] = len(errors) / n
    for tag in ERROR_TAGS:
        m[f"pipeline.tool_error_share.{tag.replace(':', '.')}"] = errors.count(tag) / n
    return {"metrics": m, "durations": durations, "spans": spans}


def layer_metrics(samples: list[dict], untraced_infer: list[float],
                  traced_infer: list[float]) -> dict[str, float]:
    S = spanlib
    names = samples[0]["metrics"].keys()
    m = {name: S.median([s["metrics"][name] for s in samples]) for name in names}
    pooled: dict[str, list[float]] = {}
    for s in samples:
        for key, values in s["durations"].items():
            pooled.setdefault(key, []).extend(values)
    for bucket in ROW_BUCKET_NAMES:
        values = pooled.get(f"sql_engine.run_script.{bucket}")
        if values:
            m[f"sql_engine.run_script.p50_us.{bucket}"] = S.percentile(values, 50) * 1e6
            m[f"sql_engine.run_script.p99_us.{bucket}"] = S.percentile(values, 99) * 1e6
    for name in PERCENTILES:
        values = pooled.get(name)
        if values:
            m[f"{name}.p50_us"] = S.percentile(values, 50) * 1e6
            if name in ("lm_backend.generate", "pipeline.record"):
                m[f"{name}.p99_us"] = S.percentile(values, 99) * 1e6
    m["trace.overhead_share"] = S.median(traced_infer) / S.median(untraced_infer) - 1.0
    return m


# -- environment stamp --------------------------------------------------------------------

def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def source_digest(root: Path) -> str:
    """Digest of the package sources, which names the code under test even
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "toolqa").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def stamp(args, counts: dict[str, int], cycles: list[Cycle]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "run_seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": NPROC,
        "git_sha": git_sha(ROOT),
        "src_digest": source_digest(ROOT),
        "records_per_cycle": counts,
        "cycles": len(cycles),
        "median_speed_index": spanlib.median([c.speed for c in cycles if c.valid]),
    }


# -- a whole run ---------------------------------------------------------------------------

def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    work_dir.mkdir()
    if workload.name == "remote-loopback":
        # The stub listens on loopback; never route that through a proxy.
        os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    started = time.monotonic()
    cycles: list[Cycle] = []
    traced: list[Cycle] = []
    counts: dict[str, int] = {}
    stub = None
    try:
        if workload.name == "remote-loopback":
            stub = StubModel()
        index = 0
        measured = 0.0
        last_wall = 0.0
        while True:
            enough = (len(traced) >= MIN_TRACED_PAIRS if args.trace else len(cycles) >= MIN_CYCLES)
            if enough and (measured >= args.seconds
                           or time.monotonic() - started + 1.5 * last_wall > WALL_LIMIT_S):
                break
            wall0 = time.monotonic()
            for tracing in ((False, True) if args.trace else (False,)):
                corpus = build_corpus(workload.name, str(work_dir), args.seed * 1_000_003 + index)
                index += 1
                counts = corpus.counts
                cycle = run_cycle(workload, corpus, str(work_dir), stub,
                                  spanlib.Tracer() if tracing else None)
                (traced if tracing else cycles).append(cycle)
                measured += cycle.setup_s + cycle.infer_s + cycle.score_s
            last_wall = time.monotonic() - wall0
    finally:
        if stub is not None:
            stub.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    everything = cycles + traced
    attempted = sum(c.records for c in everything)
    failed = sum(c.failed for c in everything)
    problems = [p for c in everything for p in c.problems]
    cycles = [c for c in cycles if c.valid]
    traced = [c for c in traced if c.valid]
    if not cycles or (args.trace and not traced):
        raise SystemExit(f"perfbench: no cycle completed: {problems[:3]}")
    unscaled = None
    if args.trace:
        metrics = layer_metrics([c.layer for c in traced],
                                [phase_times(c, workload)[1] for c in cycles],
                                [phase_times(c, workload)[1] for c in traced])
        trace_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        spanlib.write_spans(str(trace_path), traced[-1].layer["spans"])
    else:
        metrics = end_to_end(cycles, workload)
        unscaled = end_to_end(cycles, workload, scaled=False)
    return {
        "stamp": stamp(args, counts, everything),
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "records_failed_share": failed / attempted,
        "problems": problems[:20],
        "metrics": metrics,
        "unscaled_metrics": unscaled,
        "cycles": [{"traced": c.layer is not None, "valid": c.valid, "setup_s": c.setup_s,
                    "infer_s": c.infer_s, "score_s": c.score_s, "speed": c.speed}
                   for c in everything],
    }


def phase_times(c: Cycle, workload: Workload, scaled: bool = True) -> tuple[float, ...]:
    """(set-up, infer, score) seconds. Scaled: each phase the workload
    scales is multiplied by the cycle's machine speed index."""
    times = (c.setup_s, c.infer_s, c.score_s)
    if not scaled:
        return times
    return tuple(t * c.speed if k else t for t, k in zip(times, workload.scaled))


def end_to_end(cycles: list[Cycle], workload: Workload, scaled: bool = True) -> dict[str, float]:
    """Medians over cycles of the (scaled) phase times."""
    med = spanlib.median

    def phases(c: Cycle) -> tuple[float, ...]:
        return phase_times(c, workload, scaled)

    return {
        "setup_s": med([phases(c)[0] for c in cycles]),
        "infer_records_per_s": med([c.records / phases(c)[1] for c in cycles]),
        "score_records_per_s": med([c.records / phases(c)[2] for c in cycles]),
        "total_s": med([sum(phases(c)) for c in cycles]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
