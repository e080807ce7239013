"""Two-step inference: route each record to a template, solve, dispatch tools.

Routing asks the model which of the four task templates fits; solving
renders that template and either takes the generation as the answer
(classification, information extraction) or feeds it to the matching tool
(arithmetic -> calculator, script -> SQL engine). When a tool call cannot
be served, the backoff path re-asks the model for a direct answer under the
information-extraction template (classification when the record carries no
structured data).
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .calculator import calc
from .errors import (
    DivisionByZero,
    MalformedInput,
    MissingAttribute,
    MissingFixtureEntry,
    NoRows,
    ParseError,
    RaggedRow,
    ToolqaError,
    TransportError,
    TypeMismatch,
    UnknownColumn,
    UnknownTemplate,
    UnsupportedStatement,
)
from .lm_backend import GenerationRequest
from .sql_engine import run_script
from .tabular import render_table  # noqa: F401 -- unused; perfbench/spans.py rebinds it by name
from .templates import (
    Record,
    TemplateKind,
    direct_kind,
    parse_template_choice,
    render_prompt,
)

# Failures of the tool stage (not of transport) that trigger backoff.
TOOL_ERRORS = (
    ParseError, DivisionByZero, UnsupportedStatement, UnknownColumn,
    TypeMismatch, NoRows, MalformedInput, RaggedRow, MissingAttribute,
)

_log = logging.getLogger(__name__)

_DIRECT_KINDS = (TemplateKind.CLASSIFICATION, TemplateKind.INFORMATION_EXTRACTION)


@dataclass
class DispatchOutcome:
    """What happened to one record: route taken, raw generation, tool
    result, final answer, backoff flag, and any tagged error."""

    route: TemplateKind
    raw_model_output: str = ""
    tool_result: str | None = None
    final_answer: str | None = None
    used_backoff: bool = False
    error: str | None = None

    def to_obj(self) -> dict:
        return {
            "route": self.route.label,
            "raw_model_output": self.raw_model_output,
            "tool_result": self.tool_result,
            "final_answer": self.final_answer,
            "used_backoff": self.used_backoff,
            "error": self.error,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "DispatchOutcome":
        return cls(
            route=TemplateKind(obj["route"]),
            raw_model_output=obj.get("raw_model_output", ""),
            tool_result=obj.get("tool_result"),
            final_answer=obj.get("final_answer"),
            used_backoff=bool(obj.get("used_backoff", False)),
            error=obj.get("error"),
        )


@dataclass(frozen=True)
class BatchConfig:
    max_in_flight: int = 1
    backoff_enabled: bool = True
    max_new_units: int = 256
    temperature: float = 0.0

    def __post_init__(self):
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")


def _generate(backend, prompt: str, config: BatchConfig) -> str:
    return backend.generate(GenerationRequest(
        prompt=prompt,
        max_new_units=config.max_new_units,
        temperature=config.temperature,
    ))


def _trim_for_tool(raw: str) -> str:
    """Strip generation artifacts that would masquerade as grammar errors."""
    text = raw.strip()
    if text.endswith("."):
        text = text[:-1]
    return text


def _error_tag(exc: ToolqaError) -> str:
    return f"{exc.tag()}: {exc.message}"


def route(r: Record, backend, config: BatchConfig = BatchConfig()) -> TemplateKind:
    """Ask the model which task template fits the record."""
    prompt = render_prompt(TemplateKind.TEMPLATE_CHOICE, r)
    raw = _generate(backend, prompt, config)
    return parse_template_choice(raw)


def solve(r: Record, kind: TemplateKind, backend,
          config: BatchConfig = BatchConfig()) -> DispatchOutcome:
    """Render the template, generate, and dispatch the matching tool.

    Tool-stage failures are recorded in the outcome, not raised; a Script
    solve without structured data raises MissingAttribute.
    """
    if kind not in (TemplateKind.ARITHMETIC, TemplateKind.SCRIPT) + _DIRECT_KINDS:
        raise ValueError(f"{kind} is not a routable template")
    if kind is TemplateKind.SCRIPT and r.data is None:
        raise MissingAttribute("script template requires a data table")

    prompt = render_prompt(kind, r)
    raw = _generate(backend, prompt, config)
    outcome = DispatchOutcome(route=kind, raw_model_output=raw)

    if kind in _DIRECT_KINDS:
        outcome.final_answer = raw.strip()
        return outcome

    tool_input = _trim_for_tool(raw)
    try:
        if kind is TemplateKind.ARITHMETIC:
            result = calc(tool_input)
        else:
            result = run_script(tool_input, r.data)
    except TOOL_ERRORS as exc:
        outcome.error = _error_tag(exc)
        return outcome
    outcome.tool_result = result
    outcome.final_answer = result
    return outcome


def answer_with_backoff(r: Record, backend,
                        config: BatchConfig = BatchConfig()) -> DispatchOutcome:
    """Route then solve; on a failed tool call (or an unroutable record),
    re-solve on the direct-answer path and mark the outcome as backoff."""
    try:
        kind = route(r, backend, config)
    except UnknownTemplate as exc:
        fallback = direct_kind(r)
        outcome = solve(r, fallback, backend, config)
        outcome.route = fallback
        outcome.used_backoff = True
        outcome.error = _error_tag(exc)
        return outcome

    try:
        outcome = solve(r, kind, backend, config)
    except MissingAttribute as exc:
        outcome = DispatchOutcome(route=kind, error=_error_tag(exc))

    if outcome.error is None:
        return outcome

    fallback = direct_kind(r)
    direct = solve(r, fallback, backend, config)
    outcome.final_answer = direct.final_answer
    outcome.used_backoff = True
    return outcome


def answer_once(r: Record, backend,
                config: BatchConfig = BatchConfig()) -> DispatchOutcome:
    """Route then solve with backoff disabled; errors stay in the outcome."""
    try:
        kind = route(r, backend, config)
    except UnknownTemplate as exc:
        return DispatchOutcome(route=direct_kind(r), error=_error_tag(exc))
    try:
        return solve(r, kind, backend, config)
    except MissingAttribute as exc:
        return DispatchOutcome(route=kind, error=_error_tag(exc))


def run_batch(records: list[Record], backend,
              config: BatchConfig = BatchConfig()) -> list[DispatchOutcome]:
    """One outcome per record, in input order.

    At most max_in_flight generations run concurrently; a failing record
    yields an error-carrying outcome and never aborts the batch. An
    unexpected exception is tagged ``internal:<Type>``; KeyboardInterrupt
    and SystemExit still propagate.
    """
    answer = answer_with_backoff if config.backoff_enabled else answer_once

    def run_one(r: Record) -> DispatchOutcome:
        try:
            return answer(r, backend, config)
        except (TransportError, MissingFixtureEntry) as exc:
            return DispatchOutcome(route=direct_kind(r), error=_error_tag(exc))
        except Exception as exc:
            # A model's output is untrusted; whatever it breaks stays with its record.
            _log.debug("record failed internally", exc_info=True)
            return DispatchOutcome(route=direct_kind(r),
                                   error=f"internal:{type(exc).__name__}: {exc}")

    if config.max_in_flight == 1:
        return [run_one(r) for r in records]
    with ThreadPoolExecutor(max_workers=config.max_in_flight) as pool:
        return list(pool.map(run_one, records))
