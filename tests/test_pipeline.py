import pytest

from toolqa.errors import MissingAttribute, UnknownTemplate
from toolqa.lm_backend import EchoGoldBackend, ReplayBackend, ReplayFixture
from toolqa.pipeline import (
    BatchConfig,
    DispatchOutcome,
    answer_once,
    answer_with_backoff,
    route,
    run_batch,
    solve,
)
from toolqa.templates import Record, TemplateKind, direct_kind, gold_template, render_prompt

from sample_data import (
    ALL_SAMPLE_RECORDS,
    DENSITY_RECORD,
    EPS_RECORD,
    HEDGE_RECORD,
    SENTIMENT_POSITIVE_RECORD,
    TAX_RECORD,
    VENUE_RECORD,
)


def _fixture_with(backend, overrides):
    fixture = ReplayFixture()
    fixture.entries.update(backend.fixture.entries)
    for prompt, completion in overrides.items():
        fixture.put(prompt, completion)
    return ReplayBackend(fixture)


def _solver_prompt(record, kind=None):
    return render_prompt(kind or gold_template(record), record)


class TestRoute:
    def test_routes_to_arithmetic(self):
        assert route(HEDGE_RECORD, EchoGoldBackend([HEDGE_RECORD])) is \
            TemplateKind.ARITHMETIC

    def test_routes_to_script(self):
        assert route(DENSITY_RECORD, EchoGoldBackend([DENSITY_RECORD])) is \
            TemplateKind.SCRIPT

    def test_unparseable_routing_output(self):
        backend = _fixture_with(
            EchoGoldBackend([EPS_RECORD]),
            {render_prompt(TemplateKind.TEMPLATE_CHOICE, EPS_RECORD): "poem"})
        with pytest.raises(UnknownTemplate):
            route(EPS_RECORD, backend)


class TestSolve:
    def test_arithmetic_uses_calculator(self):
        backend = EchoGoldBackend([EPS_RECORD])
        outcome = solve(EPS_RECORD, TemplateKind.ARITHMETIC, backend)
        assert outcome.final_answer == "-1.32"
        assert outcome.tool_result == "-1.32"
        assert outcome.used_backoff is False
        assert outcome.error is None

    def test_script_uses_sql_engine(self):
        backend = EchoGoldBackend([VENUE_RECORD])
        outcome = solve(VENUE_RECORD, TemplateKind.SCRIPT, backend)
        assert outcome.final_answer == "5000"
        assert outcome.tool_result == "5000"

    def test_classification_taken_as_is(self):
        backend = EchoGoldBackend([SENTIMENT_POSITIVE_RECORD])
        outcome = solve(SENTIMENT_POSITIVE_RECORD, TemplateKind.CLASSIFICATION, backend)
        assert outcome.final_answer == "positive"
        assert outcome.tool_result is None

    def test_extraction_taken_as_is(self):
        backend = EchoGoldBackend([TAX_RECORD])
        outcome = solve(TAX_RECORD, TemplateKind.INFORMATION_EXTRACTION, backend)
        assert outcome.final_answer == "164, 142"

    def test_trailing_period_trimmed_before_tool(self):
        backend = _fixture_with(
            EchoGoldBackend([EPS_RECORD]),
            {_solver_prompt(EPS_RECORD): "0.74-2.06."})
        outcome = solve(EPS_RECORD, TemplateKind.ARITHMETIC, backend)
        assert outcome.final_answer == "-1.32"

    def test_tool_error_recorded_not_raised(self):
        backend = _fixture_with(
            EchoGoldBackend([EPS_RECORD]),
            {_solver_prompt(EPS_RECORD): "1/0"})
        outcome = solve(EPS_RECORD, TemplateKind.ARITHMETIC, backend)
        assert outcome.final_answer is None
        assert "DivisionByZero" in outcome.error

    def test_script_without_data_raises(self):
        record = Record(instruction="q", response="a")
        with pytest.raises(MissingAttribute):
            solve(record, TemplateKind.SCRIPT, EchoGoldBackend([record]))

    def test_template_choice_not_solvable(self):
        with pytest.raises(ValueError):
            solve(EPS_RECORD, TemplateKind.TEMPLATE_CHOICE,
                  EchoGoldBackend([EPS_RECORD]))


class TestAnswerWithBackoff:
    def test_happy_path_no_backoff(self):
        backend = EchoGoldBackend([EPS_RECORD])
        outcome = answer_with_backoff(EPS_RECORD, backend)
        assert outcome.used_backoff is False
        assert outcome.final_answer == "-1.32"
        assert outcome.route is TemplateKind.ARITHMETIC

    def test_tool_failure_falls_back_to_direct_answer(self):
        backend = _fixture_with(
            EchoGoldBackend([EPS_RECORD]),
            {_solver_prompt(EPS_RECORD): "1/0",
             _solver_prompt(EPS_RECORD, TemplateKind.INFORMATION_EXTRACTION): "-1.32"})
        outcome = answer_with_backoff(EPS_RECORD, backend)
        assert outcome.used_backoff is True
        assert outcome.final_answer == "-1.32"
        assert outcome.route is TemplateKind.ARITHMETIC
        assert "DivisionByZero" in outcome.error
        assert outcome.tool_result is None

    def test_sql_failure_falls_back(self):
        backend = _fixture_with(
            EchoGoldBackend([VENUE_RECORD]),
            {_solver_prompt(VENUE_RECORD): "SELEKT",
             _solver_prompt(VENUE_RECORD, TemplateKind.INFORMATION_EXTRACTION): "5000"})
        outcome = answer_with_backoff(VENUE_RECORD, backend)
        assert outcome.used_backoff is True
        assert outcome.final_answer == "5000"
        assert "ParseError" in outcome.error

    def test_sql_numeral_past_digit_limit_falls_back(self):
        backend = _fixture_with(
            EchoGoldBackend([VENUE_RECORD]),
            {_solver_prompt(VENUE_RECORD):
                "SELECT COUNT([Crowd]) FROM data_table WHERE [Crowd] > " + "1" * 5000,
             _solver_prompt(VENUE_RECORD, TemplateKind.INFORMATION_EXTRACTION): "5000"})
        outcome = answer_with_backoff(VENUE_RECORD, backend)
        assert outcome.used_backoff is True
        assert outcome.final_answer == "5000"
        assert outcome.error.startswith("execute:MalformedInput: ")

    def test_routing_failure_falls_back(self):
        backend = _fixture_with(
            EchoGoldBackend([TAX_RECORD]),
            {render_prompt(TemplateKind.TEMPLATE_CHOICE, TAX_RECORD): "a poem"})
        outcome = answer_with_backoff(TAX_RECORD, backend)
        assert outcome.used_backoff is True
        assert outcome.final_answer == "164, 142"
        assert "UnknownTemplate" in outcome.error

    def test_classification_fallback_without_data(self):
        backend = _fixture_with(
            EchoGoldBackend([SENTIMENT_POSITIVE_RECORD]),
            {render_prompt(TemplateKind.TEMPLATE_CHOICE,
                           SENTIMENT_POSITIVE_RECORD): "what?"})
        outcome = answer_with_backoff(SENTIMENT_POSITIVE_RECORD, backend)
        assert outcome.used_backoff is True
        assert outcome.final_answer == "positive"


class TestAnswerOnce:
    def test_no_backoff_leaves_error(self):
        backend = _fixture_with(
            EchoGoldBackend([EPS_RECORD]),
            {_solver_prompt(EPS_RECORD): "1/0"})
        outcome = answer_once(EPS_RECORD, backend)
        assert outcome.used_backoff is False
        assert outcome.final_answer is None
        assert "DivisionByZero" in outcome.error


class TestRunBatch:
    def test_outcomes_in_input_order(self):
        backend = EchoGoldBackend(ALL_SAMPLE_RECORDS)
        outcomes = run_batch(ALL_SAMPLE_RECORDS, backend)
        assert len(outcomes) == len(ALL_SAMPLE_RECORDS)
        for outcome, record in zip(outcomes, ALL_SAMPLE_RECORDS):
            assert outcome.route is gold_template(record)
            assert outcome.used_backoff is False
            assert outcome.error is None

    def test_concurrency_level_does_not_change_results(self):
        backend = EchoGoldBackend(ALL_SAMPLE_RECORDS)
        serial = run_batch(ALL_SAMPLE_RECORDS, backend, BatchConfig(max_in_flight=1))
        threaded = run_batch(ALL_SAMPLE_RECORDS, backend, BatchConfig(max_in_flight=8))
        assert serial == threaded

    def test_missing_fixture_entry_isolated(self):
        records = [EPS_RECORD, TAX_RECORD, VENUE_RECORD]
        backend = EchoGoldBackend([EPS_RECORD, VENUE_RECORD])  # TAX missing
        outcomes = run_batch(records, backend)
        assert outcomes[0].error is None
        assert "MissingFixtureEntry" in outcomes[1].error
        assert outcomes[1].final_answer is None
        assert outcomes[2].error is None

    def test_unexpected_exception_isolated(self):
        records = [EPS_RECORD, VENUE_RECORD, HEDGE_RECORD, TAX_RECORD]
        clean = run_batch(records, EchoGoldBackend(records))
        backend = _fixture_with(EchoGoldBackend(records), {
            _solver_prompt(EPS_RECORD): "-" * 3000 + "1",   # RecursionError in calc
            _solver_prompt(HEDGE_RECORD): "1" * 5000,       # ValueError: digit limit
        })
        outcomes = run_batch(records, backend)
        assert outcomes[1] == clean[1]
        assert outcomes[3] == clean[3]
        for i, name in ((0, "RecursionError"), (2, "ValueError")):
            assert outcomes[i].route is direct_kind(records[i])
            assert outcomes[i].error.startswith(f"internal:{name}: ")
            assert outcomes[i].final_answer is None

    def test_keyboard_interrupt_propagates(self):
        class Interrupted(ReplayBackend):
            def generate(self, req):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_batch([EPS_RECORD], Interrupted(ReplayFixture()))

    def test_repeated_runs_identical(self):
        backend = EchoGoldBackend(ALL_SAMPLE_RECORDS)
        assert run_batch(ALL_SAMPLE_RECORDS, backend) == \
            run_batch(ALL_SAMPLE_RECORDS, backend)

    def test_tool_result_present_iff_tool_route_succeeded(self):
        backend = EchoGoldBackend(ALL_SAMPLE_RECORDS)
        for outcome in run_batch(ALL_SAMPLE_RECORDS, backend):
            if outcome.route in (TemplateKind.ARITHMETIC, TemplateKind.SCRIPT):
                assert outcome.tool_result is not None
            else:
                assert outcome.tool_result is None

    def test_backoff_disabled(self):
        backend = _fixture_with(
            EchoGoldBackend([EPS_RECORD]),
            {_solver_prompt(EPS_RECORD): "1/0"})
        outcomes = run_batch([EPS_RECORD], backend,
                             BatchConfig(backoff_enabled=False))
        assert outcomes[0].final_answer is None
        assert outcomes[0].used_backoff is False

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BatchConfig(max_in_flight=0)


class TestOutcomeSerialization:
    def test_round_trip(self):
        backend = EchoGoldBackend(ALL_SAMPLE_RECORDS)
        for outcome in run_batch(ALL_SAMPLE_RECORDS, backend):
            assert DispatchOutcome.from_obj(outcome.to_obj()) == outcome
