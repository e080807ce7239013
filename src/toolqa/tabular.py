"""In-memory tables, their serialized text form, and numeric cell coercion.

The serialized form is a compact single-line JSON object with keys
``header`` (array of strings), ``rows`` (array of arrays of strings or
numbers), optional ``types`` (array of ``"text"``/``"real"``) and optional
``caption``. Numbers appearing in ``rows`` are read as their decimal
rendering; cells are always stored as strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import MalformedInput, RaggedRow
from .numfmt import format_number, is_grouped_decimal, strip_grouping

TEXT = "text"
REAL = "real"

_CURRENCY = ("$", "€", "£")


@dataclass(frozen=True)
class Table:
    """Immutable table: header, string cells, per-column types.

    The serialized text and the numeric view of the cells are computed on
    first use and kept on the instance; equality and hashing compare the
    fields only.
    """

    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    col_types: tuple[str, ...]
    caption: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "header", tuple(self.header))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        object.__setattr__(self, "col_types", tuple(self.col_types))
        width = len(self.header)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise RaggedRow(f"row {i} has {len(row)} cells, header has {width}")
        if len(self.col_types) != width:
            raise MalformedInput(
                f"types has {len(self.col_types)} entries, header has {width}"
            )
        for t in self.col_types:
            if t not in (TEXT, REAL):
                raise MalformedInput(f"unknown column type {t!r}")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.header)

    def column_index(self, name: str) -> int | None:
        try:
            return self.header.index(name)
        except ValueError:
            return None

    def column(self, index: int) -> list[str]:
        return [row[index] for row in self.rows]

    @cached_property
    def serialized(self) -> str:
        """Canonical single-line serialized form; parse_table round-trips it."""
        return json.dumps(table_to_obj(self), ensure_ascii=False)

    @cached_property
    def numeric_columns(self) -> tuple[tuple[int | Fraction | None, ...], ...]:
        """Per column, every cell read by coerce_numeric (None: no numeral)."""
        return tuple(tuple(map(coerce_numeric, self.column(i))) for i in range(self.n_cols))


def coerce_numeric(cell: str) -> int | Fraction | None:
    """Read a cell as a number, or None when no numeral remains.

    Strips surrounding whitespace, valid 3-digit thousands separators and a
    single leading currency symbol. A fully parenthesized numeral is negated
    (accounting convention). Integral values come back as int, everything
    else as an exact Fraction. A numeral past the interpreter's limit on
    integer-string conversion raises MalformedInput.
    """
    s = cell.strip()
    negate = False
    if len(s) >= 2 and s.startswith("(") and s.endswith(")"):
        s = s[1:-1].strip()
        negate = True
    if s[:1] in _CURRENCY:
        s = s[1:].lstrip()
    if not s or not is_grouped_decimal(s):
        return None
    try:
        value = Fraction(strip_grouping(s))
    except ValueError as exc:
        raise MalformedInput(f"numeral of {len(s)} characters: {exc}") from exc
    if negate:
        value = -value
    if value.denominator == 1:
        return int(value)
    return value


def infer_types(header: list[str] | tuple[str, ...], rows) -> list[str]:
    """Per column: real if every non-empty cell coerces numerically, else text."""
    types = []
    for col in range(len(header)):
        real = True
        for row in rows:
            cell = row[col]
            if cell.strip() and coerce_numeric(cell) is None:
                real = False
                break
        types.append(REAL if real else TEXT)
    return types


def _cell_to_text(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        raise MalformedInput(f"cell {value!r} is not a string or number")
    if isinstance(value, (int, float)):
        try:
            return format_number(value)
        except ValueError as exc:
            raise MalformedInput(f"cell {value!r}: {exc}") from exc
    raise MalformedInput(f"cell {value!r} is not a string or number")


def table_from_obj(obj) -> Table:
    """Build a Table from an already-decoded serialized-table object."""
    if not isinstance(obj, dict):
        raise MalformedInput("serialized table must be an object")
    if "header" not in obj or "rows" not in obj:
        raise MalformedInput("serialized table needs 'header' and 'rows' keys")
    header = obj["header"]
    if not isinstance(header, list) or not all(isinstance(h, str) for h in header):
        raise MalformedInput("'header' must be an array of strings")
    raw_rows = obj["rows"]
    if not isinstance(raw_rows, list):
        raise MalformedInput("'rows' must be an array of arrays")
    rows = []
    for i, raw in enumerate(raw_rows):
        if not isinstance(raw, list):
            raise MalformedInput(f"row {i} is not an array")
        if len(raw) != len(header):
            raise RaggedRow(f"row {i} has {len(raw)} cells, header has {len(header)}")
        rows.append([_cell_to_text(c) for c in raw])
    types = obj.get("types")
    if types is None:
        types = infer_types(header, rows)
    elif not isinstance(types, list) or not all(t in (TEXT, REAL) for t in types):
        raise MalformedInput("'types' must be an array of 'text'/'real'")
    caption = obj.get("caption")
    if caption is not None and not isinstance(caption, str):
        raise MalformedInput("'caption' must be a string")
    return Table(header=header, rows=rows, col_types=types, caption=caption)


def parse_table(text: str) -> Table:
    """Parse serialized-table text into a Table.

    When ``types`` is absent, column types are inferred from the cells.
    """
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, TypeError) as exc:
        raise MalformedInput(f"unparseable table text: {exc}") from exc
    return table_from_obj(obj)


def table_to_obj(t: Table) -> dict:
    obj = {"header": list(t.header), "rows": [list(r) for r in t.rows],
           "types": list(t.col_types)}
    if t.caption is not None:
        obj["caption"] = t.caption
    return obj


def render_table(t: Table) -> str:
    """The table's canonical serialized form (``Table.serialized``)."""
    return t.serialized
