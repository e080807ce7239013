import pytest
from hypothesis import given, settings, strategies as st

from toolqa.calculator import calc
from toolqa.errors import LengthMismatch
from toolqa.evalkit import (
    EvalReport,
    exact_match,
    gold_answer,
    normalize_answer,
    render_report,
    score_run,
)
from toolqa.lm_backend import EchoGoldBackend
from toolqa.pipeline import DispatchOutcome, run_batch
from toolqa.templates import Record, TemplateKind, gold_template

from sample_data import ALL_SAMPLE_RECORDS, EPS_RECORD, VESTING_RECORD


class TestNormalizeAnswer:
    def test_scale_word_equals_grouped_numerals(self):
        assert normalize_answer("$4 million").render() == \
            normalize_answer("$4,000,000").render() == "4000000"

    def test_case_fold(self):
        assert normalize_answer("Positive").render() == "positive"

    def test_scale_suffix_is_not_dropped(self):
        a = normalize_answer("$480 million")
        b = normalize_answer("$480")
        assert a.render() != b.render()
        assert not exact_match("$480 million", "$480")

    def test_percent_flag(self):
        canonical = normalize_answer("24%")
        assert canonical.parts[0].percent is True
        assert canonical.parts[0].value == 24

    def test_multi_part_ordered_list(self):
        canonical = normalize_answer("164, 142")
        assert [p.value for p in canonical.parts] == [164, 142]

    def test_thousands_separator_not_a_list_separator(self):
        assert len(normalize_answer("4,000,000").parts) == 1
        assert len(normalize_answer("164, 142").parts) == 2

    def test_terminal_punctuation_and_whitespace(self):
        assert normalize_answer("  neutral.\n").render() == "neutral"

    def test_text_answer(self):
        assert normalize_answer("Glenferrie Oval").render() == "glenferrie oval"

    @given(st.text(max_size=40))
    @settings(max_examples=200)
    def test_idempotent(self, text):
        once = normalize_answer(text)
        again = normalize_answer(once.render())
        assert once == again


class TestExactMatch:
    @pytest.mark.parametrize("pred,gold", [
        ("$4 million", "$4,000,000"),
        ("0.24", "24%"),
        ("24%", "0.24"),
        ("164, 142", "164, 142"),
        ("Positive", "positive"),
        ("23.62473469387755", "23.62"),
        ("23.62", "23.62473469387755"),
        ("-1.32", "-1.32"),
        ("$5,000", "5000"),
        ("5.3%", "5.30%"),
        ("1,000", "1000"),
    ])
    def test_matches(self, pred, gold):
        assert exact_match(pred, gold)

    @pytest.mark.parametrize("pred,gold", [
        ("$480 million", "$480"),
        ("142, 164", "164, 142"),
        ("positive", "negative"),
        ("23.63", "23.62"),
        ("24", "24%"),
        ("164", "164, 142"),
        ("glenferrie oval", "junction oval"),
        ("0.25", "24%"),
    ])
    def test_rejects(self, pred, gold):
        assert not exact_match(pred, gold)

    def test_numerals_past_digit_limit(self):
        assert exact_match("1" * 5000, "1") is False
        assert exact_match("1" * 5000, "1" * 5000) is True

    def test_quotient_rounded_to_gold_precision(self):
        assert exact_match(calc(VESTING_RECORD.derivation), VESTING_RECORD.response)

    @given(st.text(max_size=30))
    @settings(max_examples=150)
    def test_reflexive(self, text):
        assert exact_match(text, text)

    @given(st.sampled_from(["24%", "0.24", "1,000", "abc", "Positive.",
                            "$4 million", "164, 142", "", "23.62"]),
           st.sampled_from(["24%", "0.24", "1,000", "abc", "Positive.",
                            "$4 million", "164, 142", "", "23.62"]))
    def test_symmetric(self, a, b):
        assert exact_match(a, b) == exact_match(b, a)

    def test_gold_self_consistency_on_arithmetic_samples(self):
        for record in ALL_SAMPLE_RECORDS:
            if record.derivation and gold_template(record) is TemplateKind.ARITHMETIC \
                    and record.response is not None:
                assert exact_match(calc(record.derivation), record.response), record

    def test_gold_self_consistency_on_loaded_fixtures(self, tmp_path):
        from toolqa.datasets import load_dataset
        from datagen import make_tatqa_file

        path = tmp_path / "tatqa.json"
        make_tatqa_file(path, 60, seed=77)
        arithmetic = 0
        for record in load_dataset("tatqa", str(path)):
            if record.derivation is not None:
                assert gold_template(record) is TemplateKind.ARITHMETIC
                assert exact_match(calc(record.derivation), record.response)
                arithmetic += 1
        assert arithmetic > 0


class TestGoldAnswer:
    def test_prefers_response(self):
        assert gold_answer(EPS_RECORD) == "-1.32"

    def test_evaluates_sql_derivation(self):
        from sample_data import VENUE_RECORD

        assert gold_answer(VENUE_RECORD) == "5000"

    def test_unevaluable_derivation_is_none(self):
        record = Record(instruction="q", derivation="1/0", dataset_tag="tatqa")
        assert gold_answer(record) is None


class TestScoreRun:
    def _echo_outcomes(self):
        backend = EchoGoldBackend(ALL_SAMPLE_RECORDS)
        return run_batch(ALL_SAMPLE_RECORDS, backend)

    def test_echo_gold_scores_perfectly(self):
        report = score_run(self._echo_outcomes(), ALL_SAMPLE_RECORDS)
        assert set(report.per_dataset_accuracy) == {"tatqa", "fpb", "wikisql", "ottqa"}
        assert all(v == 1.0 for v in report.per_dataset_accuracy.values())
        assert all(v == 1.0 for v in report.router_accuracy.values())
        assert report.backoff_usage == 0.0

    def test_one_wrong_of_four(self):
        records = [Record(instruction=f"q{i}", response="yes", dataset_tag="fpb")
                   for i in range(4)]
        outcomes = [DispatchOutcome(route=TemplateKind.CLASSIFICATION,
                                    final_answer="yes") for _ in range(3)]
        outcomes.append(DispatchOutcome(route=TemplateKind.CLASSIFICATION,
                                        final_answer="no"))
        report = score_run(outcomes, records)
        assert report.per_dataset_accuracy["fpb"] == 0.75

    def test_router_accuracy_counts_mismatches(self):
        records = [Record(instruction="q", response="yes", dataset_tag="fpb")] * 2
        outcomes = [
            DispatchOutcome(route=TemplateKind.CLASSIFICATION, final_answer="yes"),
            DispatchOutcome(route=TemplateKind.ARITHMETIC, final_answer="yes"),
        ]
        report = score_run(outcomes, records)
        assert report.router_accuracy["fpb"] == 0.5

    def test_complexity_histogram_buckets(self):
        records = [
            Record(instruction="a", derivation="1+2", response="3", dataset_tag="tatqa"),
            Record(instruction="b", derivation="1+2*3", response="7", dataset_tag="tatqa"),
            Record(instruction="c", derivation="2-1", response="1", dataset_tag="tatqa"),
        ]
        outcomes = [DispatchOutcome(route=TemplateKind.ARITHMETIC, final_answer=x)
                    for x in ("3", "7", "0")]
        report = score_run(outcomes, records)
        assert set(report.complexity_histogram) == {1, 2}
        assert report.complexity_histogram[1] == (2, 1)
        assert report.complexity_histogram[2] == (1, 1)
        total = sum(t for t, _ in report.complexity_histogram.values())
        assert total == len(records)

    def test_backoff_usage_fraction(self):
        records = [Record(instruction="q", response="yes", dataset_tag="fpb")] * 4
        outcomes = [DispatchOutcome(route=TemplateKind.CLASSIFICATION,
                                    final_answer="yes", used_backoff=(i == 0))
                    for i in range(4)]
        assert score_run(outcomes, records).backoff_usage == 0.25

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            score_run([], ALL_SAMPLE_RECORDS)

    def test_permutation_equivariance(self):
        outcomes = self._echo_outcomes()
        report = score_run(outcomes, ALL_SAMPLE_RECORDS)
        order = list(range(len(outcomes)))[::-1]
        permuted = score_run([outcomes[i] for i in order],
                             [ALL_SAMPLE_RECORDS[i] for i in order])
        assert report.per_dataset_accuracy == permuted.per_dataset_accuracy
        assert report.router_accuracy == permuted.router_accuracy
        assert report.complexity_histogram == permuted.complexity_histogram
        assert report.backoff_usage == permuted.backoff_usage


class TestRenderReport:
    def test_percentage_formatting(self):
        report = EvalReport(per_dataset_accuracy={"tatqa": 0.5135})
        assert "51.35%" in render_report(report)

    def test_full_accuracy(self):
        report = EvalReport(per_dataset_accuracy={"fpb": 1.0})
        assert "100.00%" in render_report(report)

    def test_empty_report_is_header_only(self):
        text = render_report(EvalReport())
        lines = text.strip().splitlines()
        assert lines[0].startswith("Dataset")
        assert lines[1].startswith("Backoff usage")

    def test_dataset_row_order(self):
        report = EvalReport(per_dataset_accuracy={
            "fpb": 0.9, "tatqa": 0.5, "wikisql": 0.8, "ottqa": 0.2})
        text = render_report(report)
        assert text.index("TAT-QA") < text.index("OTT-QA") \
            < text.index("Wiki-SQL") < text.index("FPB")

    def test_router_accuracy_line_per_dataset(self):
        report = EvalReport(router_accuracy={"tatqa": 0.9062})
        assert "Router accuracy TAT-QA: 90.62%" in render_report(report)

    def test_serializable(self):
        import json

        report = score_run(
            run_batch(ALL_SAMPLE_RECORDS, EchoGoldBackend(ALL_SAMPLE_RECORDS)),
            ALL_SAMPLE_RECORDS)
        obj = report.to_obj()
        assert json.loads(json.dumps(obj)) == obj
