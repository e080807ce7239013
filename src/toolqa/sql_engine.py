"""Restricted SELECT dialect executed against an in-memory Table.

Accepted statements (keywords case-insensitive):

    SELECT [AGG(] col [)] FROM data_table [WHERE pred (AND pred)*]

with AGG one of SUM/COUNT/MIN/MAX/AVG, columns either bracketed
``[Name With Spaces]`` or bare single words, string literals single-quoted
(doubled quote escapes), and ``LOWER(x) = LOWER(y)`` marking a case-folded
equality. Recognizable SQL outside the dialect (DDL, joins, ORDER BY,
nested queries, ...) raises UnsupportedStatement; garbage raises ParseError.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    MalformedInput,
    NoRows,
    ParseError,
    ToolqaError,
    TypeMismatch,
    UnknownColumn,
    UnsupportedStatement,
)
from .numfmt import format_number
from .tabular import REAL, Table, coerce_numeric, parse_table

AGGREGATES = ("SUM", "COUNT", "MIN", "MAX", "AVG")
NUMERIC_AGGREGATES = ("SUM", "AVG")

_UNSUPPORTED_LEADS = (
    "DROP", "CREATE", "INSERT", "UPDATE", "DELETE", "ALTER", "TRUNCATE",
    "WITH", "EXPLAIN", "PRAGMA",
)
_UNSUPPORTED_KEYWORDS = (
    "JOIN", "ORDER", "GROUP", "LIMIT", "HAVING", "UNION", "DISTINCT",
    "OFFSET", "OR", "NOT", "BETWEEN", "LIKE", "IN",
)


@dataclass(frozen=True)
class Predicate:
    column: str
    op: str  # '=', '<' or '>'
    literal: str  # literal text: unquoted string or numeral as written
    fold_case: bool = False

    def __post_init__(self):
        if self.fold_case and self.op != "=":
            raise ParseError("LOWER applies to equality predicates only")


@dataclass(frozen=True)
class Query:
    aggregate: str | None
    projection: str
    predicates: tuple[Predicate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "predicates", tuple(self.predicates))


@dataclass(frozen=True)
class QueryResult:
    """Scalar number, scalar text, or an ordered list of cell strings."""

    kind: str  # 'number', 'text' or 'list'
    number: int | Fraction | None = None
    text: str | None = None
    values: tuple[str, ...] = ()

    @classmethod
    def scalar_number(cls, value) -> "QueryResult":
        return cls(kind="number", number=value)

    @classmethod
    def scalar_text(cls, value: str) -> "QueryResult":
        return cls(kind="text", text=value)

    @classmethod
    def text_list(cls, values) -> "QueryResult":
        return cls(kind="list", values=tuple(values))

    def render(self) -> str:
        if self.kind == "number":
            try:
                return format_number(self.number)
            except ValueError as exc:  # past the integer-string digit limit
                raise MalformedInput(f"result too long to render: {exc}") from exc
        if self.kind == "text":
            return self.text
        return ", ".join(self.values)


# -- tokenizer ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<bracket>\[[^\]]*\])
      | (?P<string>'(?:[^']|'')*')
      | (?P<number>(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?|\.\d+)
      | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<sym>[(),=<>*;])
    )""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str

    def keyword(self) -> str | None:
        return self.text.upper() if self.kind == "word" else None


def _tokenize(text: str) -> list[_Tok]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r} in SQL")
        for kind in ("bracket", "string", "number", "word", "sym"):
            if m.group(kind) is not None:
                tokens.append(_Tok(kind, m.group(kind)))
                break
        pos = m.end()
    return tokens


def _unquote(text: str) -> str:
    return text[1:-1].replace("''", "'")


class _SqlParser:
    def __init__(self, tokens: list[_Tok]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Tok | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> _Tok | None:
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_keyword(self, word: str):
        tok = self.advance()
        found = tok.text if tok else "end of input"
        if tok is None or tok.keyword() != word:
            raise ParseError(f"expected {word}, found {found}")

    def expect_sym(self, sym: str):
        tok = self.advance()
        if tok is None or tok.kind != "sym" or tok.text != sym:
            raise ParseError(f"expected {sym!r}")

    def column(self) -> str:
        tok = self.advance()
        if tok is None:
            raise ParseError("expected a column name")
        if tok.kind == "bracket":
            return tok.text[1:-1]
        if tok.kind == "word":
            kw = tok.keyword()
            if kw in AGGREGATES or kw in _UNSUPPORTED_KEYWORDS or kw in (
                "SELECT", "FROM", "WHERE", "AND", "LOWER",
            ):
                raise ParseError(f"expected a column name, found {tok.text}")
            return tok.text
        raise ParseError(f"expected a column name, found {tok.text}")

    def parse(self) -> Query:
        first = self.peek()
        if first is None:
            raise ParseError("empty SQL script")
        lead = first.keyword()
        if lead in _UNSUPPORTED_LEADS:
            raise UnsupportedStatement(f"{lead} statements are outside the dialect")
        if lead != "SELECT":
            raise ParseError(f"expected SELECT, found {first.text}")
        self.advance()
        self._reject_unsupported_keywords()

        aggregate = None
        tok = self.peek()
        if tok is not None and tok.keyword() in AGGREGATES:
            aggregate = tok.keyword()
            self.advance()
            self.expect_sym("(")
            projection = self.column()
            self.expect_sym(")")
        else:
            projection = self.column()
            nxt = self.peek()
            if nxt is not None and nxt.kind == "sym" and nxt.text == ",":
                raise UnsupportedStatement("multi-column projections are outside the dialect")

        self.expect_keyword("FROM")
        table_tok = self.advance()
        if table_tok is None or table_tok.kind != "word":
            raise ParseError("expected a table name after FROM")
        if table_tok.text.lower() != "data_table":
            raise UnsupportedStatement(f"unknown table {table_tok.text!r}; only data_table exists")

        predicates = []
        tok = self.peek()
        if tok is not None and tok.keyword() == "WHERE":
            self.advance()
            predicates.append(self.predicate())
            while (tok := self.peek()) is not None and tok.keyword() == "AND":
                self.advance()
                predicates.append(self.predicate())

        tok = self.peek()
        if tok is not None and tok.kind == "sym" and tok.text == ";":
            self.advance()
        if self.peek() is not None:
            leftover = self.peek()
            if leftover.keyword() in _UNSUPPORTED_KEYWORDS:
                raise UnsupportedStatement(f"{leftover.keyword()} is outside the dialect")
            raise ParseError(f"trailing input at {leftover.text!r}")
        return Query(aggregate=aggregate, projection=projection, predicates=predicates)

    def _reject_unsupported_keywords(self):
        for tok in self.tokens[self.pos:]:
            kw = tok.keyword()
            if kw in _UNSUPPORTED_KEYWORDS:
                raise UnsupportedStatement(f"{kw} is outside the dialect")
            if kw == "SELECT":
                raise UnsupportedStatement("nested queries are outside the dialect")
        star = next((t for t in self.tokens[self.pos:] if t.kind == "sym" and t.text == "*"), None)
        if star is not None:
            raise UnsupportedStatement("star projections are outside the dialect")

    def predicate(self) -> Predicate:
        fold_case = False
        tok = self.peek()
        if tok is not None and tok.keyword() == "LOWER":
            self.advance()
            self.expect_sym("(")
            column = self.column()
            self.expect_sym(")")
            fold_case = True
        else:
            column = self.column()

        op_tok = self.advance()
        if op_tok is None or op_tok.kind != "sym" or op_tok.text not in ("=", "<", ">"):
            raise ParseError("expected =, < or > in predicate")
        op = op_tok.text
        if fold_case and op != "=":
            raise ParseError("LOWER applies to equality predicates only")

        tok = self.peek()
        if tok is not None and tok.keyword() == "LOWER":
            if op != "=":
                raise ParseError("LOWER applies to equality predicates only")
            self.advance()
            self.expect_sym("(")
            literal = self.literal()
            self.expect_sym(")")
            fold_case = True
        else:
            literal = self.literal()
        return Predicate(column=column, op=op, literal=literal, fold_case=fold_case)

    def literal(self) -> str:
        tok = self.advance()
        if tok is None:
            raise ParseError("expected a literal")
        if tok.kind == "string":
            return _unquote(tok.text)
        if tok.kind == "number":
            return tok.text
        raise ParseError(f"expected a literal, found {tok.text}")


def parse_sql(text: str) -> Query:
    """Parse a script in the restricted dialect into a Query."""
    return _SqlParser(_tokenize(text)).parse()


# -- execution ----------------------------------------------------------------

_COMPARE = {"=": operator.eq, "<": operator.lt, ">": operator.gt}


def _filter_rows(t: Table, keep: list[int], idx: int, pred: Predicate) -> list[int]:
    """Indices in keep whose cell in column idx satisfies the predicate.

    Cell and literal compare as numbers when both read as numerals, else as
    text; the literal is read and case-folded once per query.
    """
    rows, nums = t.rows, t.numeric_columns[idx]
    literal = pred.literal
    lit_num = coerce_numeric(literal)
    compare = _COMPARE[pred.op]
    if pred.op == "=":
        # String equality always folds case: the corpora wrap both sides in
        # LOWER, and model output occasionally drops one wrapper.
        folded = literal.strip().casefold()

        def text_match(cell: str) -> bool:
            return cell.strip().casefold() == folded
    else:
        def text_match(cell: str) -> bool:
            return compare(cell, literal)

    if lit_num is None:
        return [i for i in keep if text_match(rows[i][idx])]
    return [i for i in keep
            if (compare(nums[i], lit_num) if nums[i] is not None
                else text_match(rows[i][idx]))]


def execute_query(q: Query, t: Table) -> QueryResult:
    """Filter rows by the predicate conjunction and apply the aggregate."""
    proj_idx = t.column_index(q.projection)
    if proj_idx is None:
        raise UnknownColumn(f"no column named {q.projection!r}")
    pred_idx = []
    for pred in q.predicates:
        idx = t.column_index(pred.column)
        if idx is None:
            raise UnknownColumn(f"no column named {pred.column!r}")
        pred_idx.append(idx)

    keep = list(range(t.n_rows))
    for pred, idx in zip(q.predicates, pred_idx):
        keep = _filter_rows(t, keep, idx, pred)

    if q.aggregate is None:
        return QueryResult.text_list(t.rows[i][proj_idx] for i in keep)
    if q.aggregate == "COUNT":
        return QueryResult.scalar_number(len(keep))
    if not keep:
        raise NoRows(f"{q.aggregate} over zero surviving rows")

    col_type = t.col_types[proj_idx]
    if q.aggregate in NUMERIC_AGGREGATES and col_type != REAL:
        raise TypeMismatch(f"{q.aggregate} needs a real column, {q.projection!r} is text")

    if col_type == REAL:
        nums = t.numeric_columns[proj_idx]
        values = [nums[i] for i in keep if nums[i] is not None]
        if not values:
            raise NoRows(f"{q.aggregate} found no numeric cells in {q.projection!r}")
        if q.aggregate == "SUM":
            return QueryResult.scalar_number(sum(values))
        if q.aggregate == "AVG":
            return QueryResult.scalar_number(Fraction(sum(values), 1) / len(values))
        if q.aggregate == "MIN":
            return QueryResult.scalar_number(min(values))
        return QueryResult.scalar_number(max(values))

    # MIN/MAX over a text column compare lexicographically.
    cells = [t.rows[i][proj_idx] for i in keep]
    if q.aggregate == "MIN":
        return QueryResult.scalar_text(min(cells))
    return QueryResult.scalar_text(max(cells))


def run_script(script: str, table: Table | str) -> str:
    """Tool API surface: SQL script + table in, answer text out.

    A serialized table (the CLI and file boundary) is parsed first.
    Errors from the three stages propagate tagged with the failing stage.
    """
    if isinstance(table, str):
        try:
            table = parse_table(table)
        except ToolqaError as exc:
            exc.stage = "table"
            raise
    try:
        query = parse_sql(script)
    except ToolqaError as exc:
        exc.stage = "sql"
        raise
    try:
        return execute_query(query, table).render()
    except ToolqaError as exc:
        exc.stage = "execute"
        raise
