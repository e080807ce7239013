"""Exact-match scoring with numeric-format normalization and run reports.

Identical values arrive in many spellings ("$4 million" vs "$4,000,000",
"0.24" vs "24%"), so answers are canonicalized before comparison: case and
terminal punctuation folded away, currency symbols and thousands separators
stripped, scale words expanded, fully numeric parts carried as exact values
with a percent flag. The matcher adds two numeric bridges: a 0-1 <-> 0-100
percent alignment and rounding to the shorter side's printed precision.
No universal normalizer is attempted beyond these rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .calculator import calc, expression_complexity
from .errors import LengthMismatch, ToolqaError
from .numfmt import format_number, strip_grouping
from .pipeline import DispatchOutcome
from .sql_engine import run_script
from .tabular import render_table  # noqa: F401 -- unused; perfbench/spans.py rebinds it by name
from .templates import Record, TemplateKind, direct_kind, gold_template

RELATIVE_TOLERANCE = Fraction(1, 10**6)

_CURRENCY_RE = re.compile(r"[$€£]")
_SCALE_WORDS = {"thousand": 10**3, "million": 10**6, "billion": 10**9}
_NUMERIC_PART_RE = re.compile(
    r"(?P<num>[+-]?(?:\d+(?:\.\d+)?|\.\d+))\s*(?:(?P<pct>%)|(?P<scale>thousand|million|billion)s?)?\Z"
)
_TERMINAL_PUNCT = ".!?,;:"


@dataclass(frozen=True)
class CanonicalPart:
    """One comparison unit: a number (with percent flag) or folded text.

    ``text`` is always the canonical spelling, so part equality treats
    "0.240", "00.24" and "0.24" alike.
    """

    text: str
    value: Fraction | None = None
    percent: bool = False

    def render(self) -> str:
        return self.text


@dataclass(frozen=True)
class Canonical:
    parts: tuple[CanonicalPart, ...]

    def render(self) -> str:
        return ", ".join(p.render() for p in self.parts)

    def __str__(self) -> str:
        return self.render()


def _canonical_part(raw: str) -> CanonicalPart | None:
    s = raw.strip().casefold()
    while True:
        # punctuation stripping and currency removal can expose each other
        prev = s
        s = s.rstrip(_TERMINAL_PUNCT).rstrip()
        s = _CURRENCY_RE.sub("", s).strip()
        if s == prev:
            break
    if not s:
        return None
    m = _NUMERIC_PART_RE.match(s)
    if m is not None:
        try:
            value = Fraction(m.group("num"))
            if m.group("scale"):
                value *= _SCALE_WORDS[m.group("scale")]
            canonical = format_number(value)
        except ValueError:
            # Past the interpreter's integer-string digit limit: compare as text.
            return CanonicalPart(text=s)
        percent = m.group("pct") is not None
        return CanonicalPart(text=canonical + ("%" if percent else ""),
                             value=value, percent=percent)
    return CanonicalPart(text=s)


def normalize_answer(text: str) -> Canonical:
    """Canonicalize an answer string for exact-match comparison.

    Comma-separated answers canonicalize part-wise as an ordered list;
    commas acting as 3-digit grouping separators are consumed first.
    """
    ungrouped = strip_grouping(text)
    parts = []
    for raw in ungrouped.split(","):
        part = _canonical_part(raw)
        if part is not None:
            parts.append(part)
    if not parts:
        parts.append(CanonicalPart(text=""))
    return Canonical(parts=tuple(parts))


def _frac_digits(value: Fraction) -> int:
    rendered = format_number(value)
    if "." in rendered:
        return len(rendered.split(".", 1)[1])
    return 0


def _round_to(value: Fraction, digits: int) -> Fraction:
    scale = Fraction(10) ** digits
    scaled = value * scale
    # round half away from zero, matching how human answers round
    if scaled >= 0:
        rounded = (scaled + Fraction(1, 2)).__floor__()
    else:
        rounded = -((-scaled + Fraction(1, 2)).__floor__())
    return Fraction(rounded, 1) / scale


def _numbers_match(a: CanonicalPart, b: CanonicalPart) -> bool:
    va, vb = a.value, b.value
    if a.percent != b.percent:
        # 0-1 <-> 0-100 bridge: "0.24" matches "24%" and nothing wider.
        if a.percent:
            vb = vb * 100
        else:
            va = va * 100
    diff = abs(va - vb)
    if diff <= RELATIVE_TOLERANCE * max(abs(va), abs(vb)):
        return True
    # Precision bridge: one side rounded to the other's printed decimals.
    for x, y in ((va, vb), (vb, va)):
        if _round_to(x, _frac_digits(y)) == y:
            return True
    return False


def _parts_match(a: CanonicalPart, b: CanonicalPart) -> bool:
    if a.value is not None and b.value is not None:
        return _numbers_match(a, b)
    if a.value is None and b.value is None:
        return a.text == b.text
    return False


def exact_match(pred: str, gold: str) -> bool:
    """True iff the canonical forms of prediction and gold answer agree."""
    ca, cb = normalize_answer(pred), normalize_answer(gold)
    if len(ca.parts) != len(cb.parts):
        return False
    return all(_parts_match(a, b) for a, b in zip(ca.parts, cb.parts))


# -- run scoring ---------------------------------------------------------------

DATASET_ORDER = ("tatqa", "ottqa", "wikisql", "fpb")
DATASET_DISPLAY = {"tatqa": "TAT-QA", "ottqa": "OTT-QA",
                   "wikisql": "Wiki-SQL", "fpb": "FPB"}


@dataclass
class EvalReport:
    per_dataset_accuracy: dict[str, float] = field(default_factory=dict)
    router_accuracy: dict[str, float] = field(default_factory=dict)
    per_template_accuracy: dict[str, float] = field(default_factory=dict)
    complexity_histogram: dict[int, tuple[int, int]] = field(default_factory=dict)
    backoff_usage: float = 0.0

    def to_obj(self) -> dict:
        return {
            "per_dataset_accuracy": dict(self.per_dataset_accuracy),
            "router_accuracy": dict(self.router_accuracy),
            "per_template_accuracy": dict(self.per_template_accuracy),
            "complexity_histogram": {
                str(k): {"total": t, "correct": c}
                for k, (t, c) in sorted(self.complexity_histogram.items())
            },
            "backoff_usage": self.backoff_usage,
        }


def gold_answer(r: Record) -> str | None:
    """The reference answer: the response, or the evaluated derivation."""
    if r.response is not None:
        return r.response
    if r.derivation is None:
        return None
    try:
        kind = gold_template(r)
        if kind is TemplateKind.SCRIPT and r.data is not None:
            return run_script(r.derivation, r.data)
        if kind is TemplateKind.ARITHMETIC:
            return calc(r.derivation)
    except ToolqaError:
        return None
    return None


def score_run(outcomes: list[DispatchOutcome], golds: list[Record]) -> EvalReport:
    """Aggregate exact-match, router, template, and complexity accuracy."""
    if len(outcomes) != len(golds):
        raise LengthMismatch(
            f"{len(outcomes)} outcomes vs {len(golds)} records"
        )
    per_ds: dict[str, list[bool]] = {}
    per_ds_router: dict[str, list[bool]] = {}
    per_template: dict[str, list[bool]] = {}
    histogram: dict[int, list[int]] = {}
    backoffs = 0

    for outcome, record in zip(outcomes, golds):
        tag = record.dataset_tag or "unknown"
        try:
            kind = gold_template(record)
        except ToolqaError:
            kind = direct_kind(record)
        gold = gold_answer(record)
        correct = (outcome.final_answer is not None and gold is not None
                   and exact_match(outcome.final_answer, gold))

        per_ds.setdefault(tag, []).append(correct)
        per_ds_router.setdefault(tag, []).append(outcome.route is kind)
        per_template.setdefault(kind.label, []).append(correct)
        if outcome.used_backoff:
            backoffs += 1
        if kind is TemplateKind.ARITHMETIC and record.derivation is not None:
            try:
                ops = expression_complexity(record.derivation)
            except ToolqaError:
                ops = None
            if ops is not None:
                bucket = histogram.setdefault(ops, [0, 0])
                bucket[0] += 1
                bucket[1] += int(correct)

    def mean(flags: list[bool]) -> float:
        return sum(flags) / len(flags)

    return EvalReport(
        per_dataset_accuracy={k: mean(v) for k, v in per_ds.items()},
        router_accuracy={k: mean(v) for k, v in per_ds_router.items()},
        per_template_accuracy={k: mean(v) for k, v in per_template.items()},
        complexity_histogram={k: (t, c) for k, (t, c) in histogram.items()},
        backoff_usage=(backoffs / len(outcomes)) if outcomes else 0.0,
    )


def _pct(fraction: float) -> str:
    return f"{fraction * 100:.2f}%"


def _ordered_tags(present) -> list[str]:
    known = [t for t in DATASET_ORDER if t in present]
    extra = sorted(t for t in present if t not in DATASET_ORDER)
    return known + extra


def render_report(rep: EvalReport) -> str:
    """Plain-text report: one exact-match row per dataset, router-accuracy
    and backoff-usage lines, template and complexity breakdowns."""
    lines = [f"{'Dataset':<12}{'Exact Match':>12}"]
    for tag in _ordered_tags(rep.per_dataset_accuracy):
        name = DATASET_DISPLAY.get(tag, tag)
        lines.append(f"{name:<12}{_pct(rep.per_dataset_accuracy[tag]):>12}")
    for tag in _ordered_tags(rep.router_accuracy):
        name = DATASET_DISPLAY.get(tag, tag)
        lines.append(f"Router accuracy {name}: {_pct(rep.router_accuracy[tag])}")
    lines.append(f"Backoff usage: {_pct(rep.backoff_usage)}")
    if rep.per_template_accuracy:
        lines.append("Per-template accuracy:")
        for label in sorted(rep.per_template_accuracy):
            lines.append(f"  {label}: {_pct(rep.per_template_accuracy[label])}")
    if rep.complexity_histogram:
        lines.append("Accuracy by operator count:")
        for ops in sorted(rep.complexity_histogram):
            total, correct = rep.complexity_histogram[ops]
            lines.append(f"  {ops} operator(s): {correct}/{total} ({_pct(correct / total)})")
    return "\n".join(lines) + "\n"
