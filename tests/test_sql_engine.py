import random
from fractions import Fraction

import pytest

from toolqa.errors import (
    MalformedInput,
    NoRows,
    ParseError,
    ToolqaError,
    TypeMismatch,
    UnknownColumn,
    UnsupportedStatement,
)
from toolqa.sql_engine import (
    Predicate,
    Query,
    QueryResult,
    execute_query,
    parse_sql,
    run_script,
)
from toolqa.tabular import REAL, TEXT, Table, render_table

from oracles import oracle_execute, random_query, random_table, render_query
from sample_data import VENUE_SQL, VENUE_TABLE_TEXT, venue_table


class TestParseSql:
    def test_sum_with_lower_equality(self):
        q = parse_sql(VENUE_SQL)
        assert q == Query(
            aggregate="SUM",
            projection="Crowd",
            predicates=[Predicate(column="Venue", op="=",
                                  literal="glenferrie oval", fold_case=True)],
        )

    def test_minimal_form(self):
        q = parse_sql("SELECT [Home team] FROM data_table")
        assert q.aggregate is None
        assert q.projection == "Home team"
        assert q.predicates == ()

    def test_bare_word_column(self):
        q = parse_sql("SELECT Crowd FROM data_table WHERE Venue = 'Corio Oval'")
        assert q.projection == "Crowd"
        assert q.predicates[0].fold_case is False

    def test_case_insensitive_keywords(self):
        q = parse_sql("select count([Crowd]) from data_table where [Crowd] > 5000")
        assert q.aggregate == "COUNT"
        assert q.predicates[0].op == ">"

    def test_numeric_literal_with_grouping(self):
        q = parse_sql("SELECT [a] FROM data_table WHERE [a] = 6,000")
        assert q.predicates[0].literal == "6,000"

    def test_quoted_literal_with_escape(self):
        q = parse_sql("SELECT [a] FROM data_table WHERE [a] = 'O''Brien'")
        assert q.predicates[0].literal == "O'Brien"

    def test_multiple_predicates(self):
        q = parse_sql(
            "SELECT [a] FROM data_table WHERE [b] = 'x' AND [c] < 5 AND [d] > 7")
        assert len(q.predicates) == 3

    def test_one_sided_lower_sets_fold(self):
        q = parse_sql("SELECT [a] FROM data_table WHERE LOWER([b]) = 'x'")
        assert q.predicates[0].fold_case is True
        q = parse_sql("SELECT [a] FROM data_table WHERE [b] = LOWER('x')")
        assert q.predicates[0].fold_case is True

    def test_trailing_semicolon(self):
        parse_sql("SELECT [a] FROM data_table;")

    @pytest.mark.parametrize("text", [
        "DROP TABLE data_table",
        "INSERT INTO data_table VALUES ('x')",
        "DELETE FROM data_table",
        "CREATE TABLE t (a TEXT)",
        "UPDATE data_table SET a = 'x'",
        "SELECT [a] FROM data_table ORDER BY [a]",
        "SELECT [a] FROM data_table LIMIT 5",
        "SELECT [a] FROM other_table",
        "SELECT [a], [b] FROM data_table",
        "SELECT [a] FROM data_table WHERE [b] = 'x' OR [c] = 'y'",
        "SELECT [a] FROM data_table GROUP BY [a]",
        "SELECT * FROM data_table",
        "SELECT [a] FROM data_table WHERE [b] IN ('x')",
        "SELECT MAX([a]) FROM (SELECT [a] FROM data_table)",
    ])
    def test_unsupported(self, text):
        with pytest.raises(UnsupportedStatement):
            parse_sql(text)

    @pytest.mark.parametrize("text", [
        "SELEKT x",
        "",
        "SELECT",
        "SELECT [a]",
        "SELECT [a] FROM",
        "SELECT [a] FROM data_table WHERE",
        "SELECT [a] FROM data_table WHERE [b]",
        "SELECT [a] FROM data_table WHERE [b] = ",
        "SELECT [a] FROM data_table WHERE LOWER([b]) < LOWER('x')",
        "SELECT SUM [a] FROM data_table",
        "SELECT [a] FROM data_table garbage",
        "What is the total?",
    ])
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_sql(text)


class TestExecuteQuery:
    def test_sum_crowd_at_glenferrie(self):
        result = execute_query(parse_sql(VENUE_SQL), venue_table())
        assert result == QueryResult.scalar_number(5000)

    def test_count_all_rows(self):
        q = Query(aggregate="COUNT", projection="Home team", predicates=[])
        assert execute_query(q, venue_table()) == QueryResult.scalar_number(6)

    def test_sum_no_matching_rows(self):
        q = Query(aggregate="SUM", projection="Crowd",
                  predicates=[Predicate("Venue", "=", "nowhere")])
        with pytest.raises(NoRows):
            execute_query(q, venue_table())

    def test_count_zero_rows_is_zero(self):
        q = Query(aggregate="COUNT", projection="Crowd",
                  predicates=[Predicate("Venue", "=", "nowhere")])
        assert execute_query(q, venue_table()) == QueryResult.scalar_number(0)

    def test_unknown_column(self):
        with pytest.raises(UnknownColumn):
            execute_query(Query(None, "Nope"), venue_table())
        with pytest.raises(UnknownColumn):
            execute_query(Query(None, "Crowd",
                                [Predicate("Nope", "=", "x")]), venue_table())

    def test_numeric_aggregate_over_text_column(self):
        with pytest.raises(TypeMismatch):
            execute_query(Query("SUM", "Venue"), venue_table())
        with pytest.raises(TypeMismatch):
            execute_query(Query("AVG", "Home team"), venue_table())

    def test_min_max_over_text_column(self):
        assert execute_query(Query("MIN", "Venue"), venue_table()) == \
            QueryResult.scalar_text("Arden Street Oval")
        assert execute_query(Query("MAX", "Home team"), venue_table()) == \
            QueryResult.scalar_text("St Kilda")

    def test_min_max_avg_numeric(self):
        t = venue_table()
        assert execute_query(Query("MIN", "Crowd"), t) == QueryResult.scalar_number(5000)
        assert execute_query(Query("MAX", "Crowd"), t) == QueryResult.scalar_number(31000)
        avg = execute_query(Query("AVG", "Crowd"), t)
        assert avg.number == Fraction(6000 + 12000 + 26000 + 10000 + 5000 + 31000, 6)

    def test_numeric_comparison_beats_string_comparison(self):
        # "6,000" > "999" numerically even though "6,000" < "999" as text
        q = Query(None, "Venue", [Predicate("Crowd", ">", "999")])
        result = execute_query(q, venue_table())
        assert len(result.values) == 6

    def test_numeric_comparison_with_grouped_literal(self):
        q = Query(None, "Crowd", [Predicate("Crowd", ">", "5,999")])
        result = execute_query(q, venue_table())
        assert result.values == ("6,000", "12,000", "26,000", "10,000", "31,000")

    def test_fold_case_row_sets_match(self):
        t = venue_table()
        lower = execute_query(
            Query(None, "Crowd", [Predicate("Venue", "=", "glenferrie oval", True)]), t)
        mixed = execute_query(
            Query(None, "Crowd", [Predicate("Venue", "=", "Glenferrie Oval", True)]), t)
        assert lower == mixed == QueryResult.text_list(["5,000"])

    def test_projection_preserves_row_order(self):
        result = execute_query(Query(None, "Home team"), venue_table())
        assert result.values[0] == "North Melbourne"
        assert result.values[-1] == "St Kilda"

    def test_predicate_order_does_not_matter(self):
        preds = [Predicate("Crowd", ">", "5,999"), Predicate("Venue", "=", "Corio Oval")]
        t = venue_table()
        a = execute_query(Query(None, "Home team", preds), t)
        b = execute_query(Query(None, "Home team", list(reversed(preds))), t)
        assert a == b == QueryResult.text_list(["Geelong"])


class TestRunScript:
    def test_composition(self):
        assert run_script(VENUE_SQL, VENUE_TABLE_TEXT) == "5000"

    def test_sql_stage_tagged(self):
        with pytest.raises(ParseError) as excinfo:
            run_script("SELEKT x", VENUE_TABLE_TEXT)
        assert excinfo.value.stage == "sql"

    def test_table_stage_tagged(self):
        with pytest.raises(Exception) as excinfo:
            run_script(VENUE_SQL, "{broken")
        assert excinfo.value.stage == "table"

    def test_execute_stage_tagged(self):
        with pytest.raises(UnknownColumn) as excinfo:
            run_script("SELECT [Nope] FROM data_table", VENUE_TABLE_TEXT)
        assert excinfo.value.stage == "execute"

    def test_text_list_rendering(self):
        out = run_script("SELECT [Venue] FROM data_table WHERE [Crowd] > 20,000",
                         VENUE_TABLE_TEXT)
        assert out == "Punt Road Oval, Junction Oval"

    def test_avg_rendering_rounds(self):
        out = run_script("SELECT AVG([Crowd]) FROM data_table", VENUE_TABLE_TEXT)
        assert out == "15000"

    def test_table_object_accepted(self):
        assert run_script(VENUE_SQL, venue_table()) == "5000"

    def test_literal_past_digit_limit_is_tagged(self):
        with pytest.raises(MalformedInput) as excinfo:
            run_script("SELECT COUNT([a]) FROM data_table WHERE [a] > " + "1" * 5000,
                       '{"header":["a"],"rows":[["1"]]}')
        assert excinfo.value.stage == "execute"

    def test_result_past_digit_limit_is_tagged(self):
        table = Table(header=["a"], rows=[["9" * 4299]] * 20, col_types=[REAL])
        with pytest.raises(MalformedInput) as excinfo:
            run_script("SELECT SUM([a]) FROM data_table", table)
        assert excinfo.value.stage == "execute"


class TestOracleEquivalence:
    def _normalize(self, result: QueryResult):
        if result.kind == "number":
            return ("number", Fraction(result.number))
        if result.kind == "text":
            return ("text", result.text)
        return ("list", result.values)

    def test_random_tables_and_queries(self):
        rng = random.Random(991)
        checked = 0
        for _ in range(200):
            table = random_table(rng)
            for _ in range(4):
                query = random_query(rng, table)
                expected = oracle_execute(query, table)
                try:
                    got = ("ok", self._normalize(execute_query(query, table)))
                except (NoRows, TypeMismatch, UnknownColumn) as exc:
                    got = ("error", type(exc).__name__)
                assert got == expected, (query, table.header, table.col_types)
                checked += 1
        assert checked == 800

    @staticmethod
    def _big_table(rng):
        while True:
            table = random_table(rng, max_cols=8, max_rows=200)
            if table.n_rows >= 100 and {REAL, TEXT} <= set(table.col_types):
                return table

    def test_one_table_answers_many_queries(self):
        # One Table object, so every query after the first reads the
        # numeric view cached on it.
        rng = random.Random(2024)
        table = self._big_table(rng)
        answered = 0
        for _ in range(250):
            query = random_query(rng, table)
            got = self._outcome(query, table)
            assert got == oracle_execute(query, table), (query, table.header)
            answered += got[0] == "ok"
        assert "numeric_columns" in vars(table)
        assert answered > 100

    def test_table_and_text_forms_agree(self):
        rng = random.Random(77)
        table = self._big_table(rng)
        text = render_table(table)
        real = f"[{table.header[table.col_types.index(REAL)]}]"
        plain = f"[{table.header[table.col_types.index(TEXT)]}]"
        scripts = [render_query(random_query(rng, table)) for _ in range(100)] + [
            "SELEKT x",
            "DROP TABLE data_table",
            "SELECT [Nope] FROM data_table",
            f"SELECT {real} FROM data_table WHERE [Nope] = 1",
            f"SELECT SUM({plain}) FROM data_table",
            f"SELECT MAX({real}) FROM data_table WHERE {real} = 'no such cell'",
            f"SELECT COUNT({real}) FROM data_table WHERE {real} > " + "1" * 5000,
        ]
        for script in scripts:
            assert self._run(script, table) == self._run(script, text), script

    @staticmethod
    def _run(script, table):
        try:
            return ("ok", run_script(script, table))
        except ToolqaError as exc:
            return ("error", type(exc).__name__, exc.stage)

    def test_parser_round_trip_on_random_queries(self):
        rng = random.Random(321)
        for _ in range(200):
            table = random_table(rng, max_cols=6, max_rows=10)
            query = random_query(rng, table)
            reparsed = parse_sql(render_query(query))
            assert reparsed == query

    def test_count_without_predicates_equals_row_count(self):
        rng = random.Random(5)
        for _ in range(50):
            table = random_table(rng)
            q = Query("COUNT", table.header[0])
            assert execute_query(q, table).number == table.n_rows

    def test_predicate_permutation_commutes(self):
        rng = random.Random(17)
        checked = 0
        while checked < 50:
            table = random_table(rng, max_cols=6, max_rows=20)
            query = random_query(rng, table)
            if len(query.predicates) < 2:
                continue
            shuffled = list(query.predicates)
            rng.shuffle(shuffled)
            permuted = Query(query.aggregate, query.projection, shuffled)
            assert self._outcome(query, table) == self._outcome(permuted, table)
            checked += 1

    def _outcome(self, query, table):
        try:
            return ("ok", self._normalize(execute_query(query, table)))
        except (NoRows, TypeMismatch, UnknownColumn) as exc:
            return ("error", type(exc).__name__)
