import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from toolqa.errors import MalformedInput, RaggedRow
from toolqa.numfmt import format_number
from toolqa.tabular import (
    REAL,
    TEXT,
    Table,
    coerce_numeric,
    infer_types,
    parse_table,
    render_table,
    table_to_obj,
)

from sample_data import VENUE_TABLE_TEXT


class TestParseTable:
    def test_venue_table_shape_and_types(self):
        t = parse_table(VENUE_TABLE_TEXT)
        assert t.n_cols == 7
        assert t.n_rows == 6
        assert t.col_types == ("text", "text", "text", "text", "text", "real", "text")
        assert t.caption == "Round 15"

    def test_empty_rows(self):
        t = parse_table('{"header":["a"],"rows":[]}')
        assert t.n_cols == 1
        assert t.n_rows == 0

    def test_ragged_row(self):
        with pytest.raises(RaggedRow):
            parse_table('{"header":["a","b"],"rows":[["1"]]}')

    def test_unparseable_text(self):
        with pytest.raises(MalformedInput):
            parse_table("not json at all {")

    def test_missing_keys(self):
        with pytest.raises(MalformedInput):
            parse_table('{"rows": []}')
        with pytest.raises(MalformedInput):
            parse_table('{"header": ["a"]}')

    def test_non_object(self):
        with pytest.raises(MalformedInput):
            parse_table('[1, 2]')

    def test_numbers_read_as_decimal_rendering(self):
        t = parse_table('{"header":["a","b"],"rows":[["x", 9036647], ["y", 1463.6]]}')
        assert t.rows[0][1] == "9036647"
        assert t.rows[1][1] == "1463.6"

    def test_bad_types_value(self):
        with pytest.raises(MalformedInput):
            parse_table('{"header":["a"],"rows":[],"types":["decimal"]}')

    def test_non_finite_number_cell(self):
        with pytest.raises(MalformedInput):
            parse_table('{"header":["a"],"rows":[[Infinity]]}')
        with pytest.raises(MalformedInput):
            parse_table('{"header":["a"],"rows":[[NaN]]}')

    def test_types_length_mismatch(self):
        with pytest.raises(MalformedInput):
            parse_table('{"header":["a","b"],"rows":[],"types":["text"]}')

    def test_inferred_types(self):
        t = parse_table('{"header":["name","n"],"rows":[["x","6,000"],["y",""]]}')
        assert t.col_types == (TEXT, REAL)


class TestCoerceNumeric:
    @pytest.mark.parametrize("cell,expected", [
        ("6,000", 6000),
        ("(301)", -301),
        ("(32.2)", Fraction("-32.2")),
        ("$108.8", Fraction("108.8")),
        ("$ 6,164", 6164),
        ("€5", 5),
        ("£1,000", 1000),
        ("  42  ", 42),
        ("-1.32", Fraction("-1.32")),
        ("+7", 7),
        ("5,114.6", Fraction("5114.6")),
        ("($33)", -33),
    ])
    def test_coerces(self, cell, expected):
        assert coerce_numeric(cell) == expected

    @pytest.mark.parametrize("cell", [
        "Arden Street Oval",
        "",
        "   ",
        "12.10 (82)",   # footy score, not a numeral
        "1,23",          # bad grouping
        "4 August 1928",
        "5.",
        "()",
        "$",
        "12%",
    ])
    def test_rejects(self, cell):
        assert coerce_numeric(cell) is None

    def test_numeral_past_digit_limit_is_malformed(self):
        with pytest.raises(MalformedInput):
            coerce_numeric("1" * 5000)

    def test_idempotent_on_rendered_output(self):
        for cell in ("6,000", "(301)", "$0.74", "5,114.6", "-2.06", "0.12345678901234"):
            value = coerce_numeric(cell)
            assert coerce_numeric(format_number(value)) == value


class TestRenderTable:
    def test_contains_cells(self):
        rendered = render_table(parse_table(VENUE_TABLE_TEXT))
        assert "Glenferrie Oval" in rendered

    def test_round_trip_empty(self):
        t = parse_table('{"header":["a"],"rows":[]}')
        assert parse_table(render_table(t)) == t

    def test_one_by_one(self):
        t = Table(header=["x"], rows=[["y"]], col_types=[TEXT])
        rendered = render_table(t)
        assert "x" in rendered and "y" in rendered

    def test_round_trip_venue(self):
        t = parse_table(VENUE_TABLE_TEXT)
        assert parse_table(render_table(t)) == t

    def test_single_line(self):
        assert "\n" not in render_table(parse_table(VENUE_TABLE_TEXT))


_cell = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.integers(0, 10**6).map(str),
    st.integers(0, 10**6).map(lambda n: f"{n / 100:.2f}"),
    st.sampled_from(["", "6,000", "(301)", "$9.99", "n/a"]),
)


@st.composite
def _tables(draw):
    n_cols = draw(st.integers(1, 5))
    header = [f"col {i}" for i in range(n_cols)]
    n_rows = draw(st.integers(0, 6))
    rows = [[draw(_cell) for _ in range(n_cols)] for _ in range(n_rows)]
    return Table(header=header, rows=rows, col_types=infer_types(header, rows))


class TestProperties:
    @given(_tables())
    def test_round_trip(self, t):
        assert parse_table(render_table(t)) == t

    @given(_tables())
    def test_render_is_canonical_json(self, t):
        assert render_table(t) == json.dumps(table_to_obj(t), ensure_ascii=False)

    @given(_tables())
    def test_numeric_columns_read_every_cell(self, t):
        assert t.numeric_columns == tuple(
            tuple(coerce_numeric(row[i]) for row in t.rows) for i in range(t.n_cols))

    def test_cached_views_leave_equality_and_hash_alone(self):
        t = parse_table(VENUE_TABLE_TEXT)
        render_table(t)
        t.numeric_columns
        fresh = parse_table(VENUE_TABLE_TEXT)
        assert {"serialized", "numeric_columns"} <= set(vars(t))
        assert not {"serialized", "numeric_columns"} & set(vars(fresh))
        assert t == fresh
        assert hash(t) == hash(fresh)

    @given(_tables())
    def test_rendered_form_is_json_object(self, t):
        obj = json.loads(render_table(t))
        assert list(obj)[:2] == ["header", "rows"]

    def test_inference_monotone_real_to_text(self):
        header = ["n"]
        rows = [["1"], ["2"]]
        assert infer_types(header, rows) == [REAL]
        assert infer_types(header, rows + [["oops"]]) == [TEXT]

    def test_inference_monotone_text_stays_text(self):
        header = ["n"]
        rows = [["oops"], ["2"]]
        assert infer_types(header, rows) == [TEXT]
        assert infer_types(header, rows + [["3"]]) == [TEXT]

    def test_immutability(self):
        t = parse_table(VENUE_TABLE_TEXT)
        with pytest.raises(AttributeError):
            t.header = ("x",)
        assert isinstance(t.rows, tuple)
