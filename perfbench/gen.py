"""Seeded input generators for the benchmark workloads.

Each generator writes source files in the loaders' published formats and
returns, next to the file paths, what the benchmark expects the program to
produce for every record: the route, the final answer, whether backoff
fires and the error tag. Expected answers come from the generator itself
(arithmetic on the integers it chose) or from the independent row-scan
oracle in ``tests/oracles.py``, never from the package's own tools.

``check_*`` functions are the hygiene checks run before any timing: a
generator bug must fail loudly instead of being measured.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from toolqa.sql_engine import Predicate, Query
from toolqa.tabular import Table
from toolqa.templates import TemplateKind, render_prompt

from oracles import oracle_execute

LOADERS = ("tatqa", "wikisql", "fpb", "ottqa")

COMPANIES = ("Acme Holdings", "Borealis Group", "Cedar Finance", "Dunmore Ltd",
             "Eastgate Capital", "Fairway Industries", "Granite Partners")
LINE_ITEMS = ("Revenue", "Operating costs", "Net earnings", "Total assets",
              "Deferred tax", "Goodwill", "Interest expense", "Dividends paid")
VENUES = ("Arden Street Oval", "Brunswick Street Oval", "Corio Oval",
          "Glenferrie Oval", "Junction Oval", "Punt Road Oval", "Lake Oval",
          "Windy Hill", "Victoria Park")
SENTENCES = {
    "positive": (
        "Operating profit rose to EUR {a}.{b}mn from EUR {c}.{d}mn a year earlier.",
        "Net sales increased {a}% to EUR {c}.{d}mn in the {b}th quarter.",
    ),
    "negative": (
        "Operating profit fell to EUR {a}.{b}mn from EUR {c}.{d}mn a year earlier.",
        "Order intake dropped {a}% to EUR {c}.{d}mn in the {b}th quarter.",
    ),
    "neutral": (
        "The plant will produce {a} tonnes of board annually from line {b}{c}{d}.",
        "The contract covers {a} deliveries over {b} months across {c}{d} sites.",
    ),
}

# Faults injected into the mixed-replay fixture, as (share of the n records
# per loader, loader). Each faulted record's backoff prompt maps to the gold
# answer, so every fault ends as backoff with the right answer.
FAULT_PLAN = (
    ("div_zero", "tatqa", 0.15),
    ("bad_sql", "wikisql", 0.15),
    ("unknown_column", "wikisql", 0.15),
    ("misroute", "wikisql", 0.15),
    ("unknown_template", "tatqa", 0.05),
    ("unknown_template", "wikisql", 0.05),
    ("unknown_template", "fpb", 0.05),
    ("unknown_template", "ottqa", 0.05),
)
BAD_SQL = "SELECT FROM data_table"
UNKNOWN_COLUMN_SQL = "SELECT SUM([Attendance]) FROM data_table"
UNKNOWN_TEMPLATE = "spreadsheet"
FAULT_ERROR_TAG = {
    "div_zero": "DivisionByZero",
    "bad_sql": "sql:ParseError",
    "unknown_column": "execute:UnknownColumn",
    "misroute": "ParseError",
    "unknown_template": "UnknownTemplate",
}

# Wiki-SQL annotation indices.
AGG_INDEX = {None: 0, "MAX": 1, "MIN": 2, "COUNT": 3, "SUM": 4, "AVG": 5}
OP_INDEX = {"=": 0, ">": 1, "<": 2}

ROW_BUCKETS = (50, 500, 5000)
QUESTIONS_PER_BIG_TABLE = 24


class HygieneError(Exception):
    """Generated inputs break a property the benchmark relies on."""


@dataclass(frozen=True)
class Expected:
    """What one record must end as: the outcome's (route, final answer,
    backoff flag, error-tag prefix) plus the scorer's view of it."""

    tag: str
    gold_kind: TemplateKind
    route: TemplateKind
    answer: str
    used_backoff: bool = False
    error_tag: str | None = None
    rows: int = 0


@dataclass
class Corpus:
    """Generated source files and the expectations derived with them."""

    sources: list[tuple[str, str, str | None]]  # (loader, path, tables_path)
    expected: list[Expected]
    counts: dict[str, int]  # records per loader and per row bucket
    fixture_path: str | None = None
    n_fixture_entries: int = 0


def render_oracle_answer(result) -> str:
    """Render an oracle result the way a reader would write the answer."""
    status, payload = result
    if status != "ok":
        raise HygieneError(f"gold query has no answer: {payload}")
    kind, value = payload
    if kind == "list":
        if len(value) != 1:
            raise HygieneError(f"gold query selects {len(value)} cells, not one")
        return value[0]
    if kind == "text":
        return value
    value = Fraction(value)
    if value.denominator != 1:
        raise HygieneError(f"gold aggregate {value} is not integral")
    return str(value.numerator)


def _grouped(value: int) -> str:
    return f"{value:,}"


def _write_jsonl(path: str, objs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


# -- mixed four-loader corpus ----------------------------------------------------

def _tatqa(rng: random.Random, n: int, path: str) -> list[dict]:
    """n questions, two per report block: one arithmetic, one span."""
    if n % 2:
        raise HygieneError("tatqa question count must be even")
    blocks, items_out = [], []
    for b in range(n // 2):
        items = rng.sample(LINE_ITEMS, 4)
        cells = {item: (rng.randint(100, 99999), rng.randint(100, 99999)) for item in items}
        grid = [["", "2019", "2018"]] + [[item, _grouped(a), _grouped(c)]
                                         for item, (a, c) in cells.items()]
        change_item, span_item = items[0], items[1]
        a, c = cells[change_item]
        derivation = f"{_grouped(a)}-{_grouped(c)}"
        questions = [
            {"uid": f"q{2 * b}", "answer_type": "arithmetic", "derivation": derivation,
             "question": f"What was the change in {change_item} between 2018 and 2019?",
             "answer": str(a - c)},
            {"uid": f"q{2 * b + 1}", "answer_type": "span", "derivation": "",
             "question": f"What was the {span_item} in 2019?",
             "answer": _grouped(cells[span_item][0])},
        ]
        blocks.append({
            "table": {"uid": f"t{b}", "table": grid},
            "paragraphs": [{"uid": f"p{b}", "order": 1,
                            "text": f"{rng.choice(COMPANIES)} reported the following figures."}],
            "questions": questions,
        })
        items_out.append({"kind": TemplateKind.ARITHMETIC, "answer": str(a - c)})
        items_out.append({"kind": TemplateKind.INFORMATION_EXTRACTION,
                          "answer": _grouped(cells[span_item][0])})
    _write_json(path, blocks)
    return items_out


def _wikisql_small(rng: random.Random, n: int, data_path: str, tables_path: str) -> list[dict]:
    """n questions over 3-6 row venue tables, four distinct questions each."""
    if n % 4:
        raise HygieneError("wikisql question count must be a multiple of 4")
    header, types = ["Venue", "Round", "Crowd"], ["text", "real", "real"]
    tables, questions, items_out = [], [], []
    for t in range(n // 4):
        rows = [[venue, str(rng.randint(1, 30)), _grouped(rng.randint(1000, 99999))]
                for venue in rng.sample(VENUES, rng.randint(3, 6))]
        table_id = f"1-{1000 + t}"
        tables.append({"id": table_id, "header": header, "types": types, "rows": rows})
        table = Table(header=header, rows=rows, col_types=types)
        v_sum, v_round = rng.sample([r[0] for r in rows], 2)
        specs = [
            ("SUM", 2, [(0, "=", v_sum.lower())], f"How many people watched at {v_sum}?"),
            ("COUNT", 0, [], "How many venues are listed?"),
            ("MAX", 2, [], "What was the largest crowd?"),
            (None, 1, [(0, "=", v_round)], f"In which round did the game at {v_round} take place?"),
        ]
        for agg, sel, conds, text in specs:
            questions.append({"phase": 1, "question": text, "table_id": table_id, "sql": {
                "sel": sel, "agg": AGG_INDEX[agg],
                "conds": [[c, OP_INDEX[op], v] for c, op, v in conds]}})
            query = Query(aggregate=agg, projection=header[sel], predicates=[
                Predicate(column=header[c], op=op, literal=str(v), fold_case=op == "=")
                for c, op, v in conds])
            items_out.append({"kind": TemplateKind.SCRIPT,
                              "answer": render_oracle_answer(oracle_execute(query, table)),
                              "rows": len(rows)})
    _write_jsonl(tables_path, tables)
    _write_jsonl(data_path, questions)
    return items_out


def _fpb(rng: random.Random, n: int, path: str) -> list[dict]:
    labels = sorted(SENTENCES)
    seen, lines, items_out = set(), [], []
    while len(lines) < n:
        label = labels[len(lines) % len(labels)]
        sentence = rng.choice(SENTENCES[label]).format(
            a=rng.randint(1, 999), b=rng.randint(1, 99), c=rng.randint(1, 99), d=rng.randint(1, 9))
        if sentence in seen:
            continue
        seen.add(sentence)
        lines.append(f"{sentence}@{label}\n")
        items_out.append({"kind": TemplateKind.CLASSIFICATION, "answer": label})
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return items_out


def _ottqa(rng: random.Random, n: int, path: str) -> list[dict]:
    seen, items, items_out = set(), [], []
    while len(items) < n:
        rows = [[venue, rng.choice(COMPANIES), str(rng.randint(1880, 1999))]
                for venue in rng.sample(VENUES, 4)]
        pick = rows[rng.randrange(4)]
        question = f"In what year was {pick[0]} first used by {pick[1]}?"
        key = (question, json.dumps(rows))
        if key in seen:
            continue
        seen.add(key)
        items.append({
            "question": question,
            "answer-text": pick[2],
            "table": {"header": ["Ground", "Club", "First used"], "rows": rows},
            "passage": f"{pick[1]} has played at several grounds over the years.",
        })
        items_out.append({"kind": TemplateKind.INFORMATION_EXTRACTION, "answer": pick[2]})
    _write_json(path, items)
    return items_out


def _assign_faults(rng: random.Random, items_by_tag: dict[str, list[dict]], n: int) -> None:
    """Mark a fixed number of records per (fault, loader), chosen by seed."""
    free = {tag: list(range(len(items))) for tag, items in items_by_tag.items()}
    for tag in free:
        rng.shuffle(free[tag])
    for fault, tag, share in FAULT_PLAN:
        want = round(share * n)
        eligible = [i for i in free[tag] if fault != "div_zero"
                    or items_by_tag[tag][i]["kind"] is TemplateKind.ARITHMETIC]
        if len(eligible) < want:
            raise HygieneError(f"not enough {tag} records for {want} {fault} faults")
        for i in eligible[:want]:
            items_by_tag[tag][i]["fault"] = fault
            free[tag].remove(i)


def _write_mixed(rng: random.Random, work_dir: str, n: int) -> tuple[list, dict[str, list[dict]]]:
    """Write the four source files; return the loader sources and the
    generated items per loader."""
    path = functools.partial(os.path.join, work_dir)
    sources = [("tatqa", path("tatqa.json"), None),
               ("wikisql", path("wikisql.jsonl"), path("wikisql.tables.jsonl")),
               ("fpb", path("fpb.txt"), None),
               ("ottqa", path("ottqa.json"), None)]
    items = {
        "tatqa": _tatqa(rng, n, path("tatqa.json")),
        "wikisql": _wikisql_small(rng, n, path("wikisql.jsonl"), path("wikisql.tables.jsonl")),
        "fpb": _fpb(rng, n, path("fpb.txt")),
        "ottqa": _ottqa(rng, n, path("ottqa.json")),
    }
    return sources, items


def _direct(record) -> TemplateKind:
    if record.data is not None:
        return TemplateKind.INFORMATION_EXTRACTION
    return TemplateKind.CLASSIFICATION


def _gold_completion(record, kind: TemplateKind, answer: str) -> str:
    if kind in (TemplateKind.ARITHMETIC, TemplateKind.SCRIPT):
        return record.derivation
    return answer


def fixture_entries(record, item: dict) -> tuple[list[tuple[str, str]], Expected]:
    """The prompts this record sends, each with its completion, and the
    outcome they must produce."""
    kind, answer, fault = item["kind"], item["answer"], item.get("fault")
    tag = record.dataset_tag
    route_prompt = render_prompt(TemplateKind.TEMPLATE_CHOICE, record)
    direct = _direct(record)
    if fault is None:
        entries = [(route_prompt, kind.label),
                   (render_prompt(kind, record), _gold_completion(record, kind, answer))]
        return entries, Expected(tag, kind, kind, answer, rows=item.get("rows", 0))
    backoff = (render_prompt(direct, record), answer)
    if fault == "unknown_template":
        entries = [(route_prompt, UNKNOWN_TEMPLATE), backoff]
        route = direct
    elif fault == "div_zero":
        entries = [(route_prompt, kind.label),
                   (render_prompt(TemplateKind.ARITHMETIC, record), "1/0"), backoff]
        route = TemplateKind.ARITHMETIC
    elif fault == "misroute":
        entries = [(route_prompt, TemplateKind.ARITHMETIC.label),
                   (render_prompt(TemplateKind.ARITHMETIC, record), record.derivation), backoff]
        route = TemplateKind.ARITHMETIC
    else:
        bad = BAD_SQL if fault == "bad_sql" else UNKNOWN_COLUMN_SQL
        entries = [(route_prompt, kind.label),
                   (render_prompt(TemplateKind.SCRIPT, record), bad), backoff]
        route = TemplateKind.SCRIPT
    return entries, Expected(tag, kind, route, answer, True, FAULT_ERROR_TAG[fault],
                             rows=item.get("rows", 0))


def build_mixed_corpus(work_dir: str, seed: int, n_per_loader: int, faults: bool,
                       load) -> Corpus:
    """Generate the four-loader corpus and its replay fixture.

    ``load(sources)`` loads the written files with the package's loaders;
    the fixture needs the exact prompts the package renders.
    """
    rng = random.Random(seed)
    sources, items = _write_mixed(rng, work_dir, n_per_loader)
    if faults:
        _assign_faults(rng, items, n_per_loader)
    records = load(sources)
    flat = [item for tag in LOADERS for item in items[tag]]
    check_counts(records, {tag: n_per_loader for tag in LOADERS})
    expected, digests, n_prompts = [], set(), 0
    fixture_path = os.path.join(work_dir, "fixture.jsonl")
    # Streamed, so that generation holds no more memory than the timed phases.
    with open(fixture_path, "w", encoding="utf-8") as fh:
        for record, item in zip(records, flat):
            entries, exp = fixture_entries(record, item)
            expected.append(exp)
            for prompt, completion in entries:
                digests.add(hashlib.sha256(prompt.encode("utf-8")).digest())
                fh.write(json.dumps({"prompt": prompt, "completion": completion}) + "\n")
            n_prompts += len(entries)
    # One fixture entry per distinct prompt: a repeated prompt would make the
    # digest-keyed backends answer two records with one completion.
    if len(digests) != n_prompts:
        raise HygieneError(f"{n_prompts - len(digests)} repeated prompts in the fixture")
    counts = {tag: n_per_loader for tag in LOADERS}
    counts["rows_small"] = sum(1 for e in expected if 0 < e.rows < ROW_BUCKETS[0])
    return Corpus(sources, expected, counts, fixture_path, n_prompts)


# -- big tables ------------------------------------------------------------------

FIRST = ("Alex", "Blake", "Casey", "Dana", "Emery", "Finley", "Gray", "Harper",
         "Indy", "Jordan", "Kai", "Logan", "Morgan", "Noel", "Oakley", "Parker")
LAST = ("Abbott", "Bishop", "Carver", "Dalton", "Ellis", "Foster", "Garner",
        "Hale", "Irving", "Jensen", "Keller", "Lowry", "Mercer", "Nolan")
TEAMS = ("Eagles", "Falcons", "Giants", "Hawks", "Lions", "Magpies", "Owls",
         "Panthers", "Ravens", "Saints", "Tigers", "Wolves")
POSITIONS = ("Forward", "Midfield", "Defence", "Ruck", "Utility")
BIG_HEADER = ["Player", "Team", "Position", "Points", "Games", "Year"]
BIG_TYPES = ["text", "text", "text", "real", "real", "real"]
PLAYER, TEAM, POSITION, POINTS, GAMES, YEAR = range(6)

# Query shapes, cycled over each table: (aggregate, projection, predicates),
# a predicate being (column, op). Each shape has at most one numeric
# predicate.
BIG_SHAPES = (
    ("SUM", POINTS, ((TEAM, "="),)),
    ("SUM", POINTS, ((TEAM, "="), (GAMES, ">"))),
    ("COUNT", PLAYER, ((POSITION, "="), (YEAR, "<"))),
    ("COUNT", PLAYER, ((POINTS, ">"),)),
    ("MAX", POINTS, ((TEAM, "="),)),
    ("MAX", GAMES, ((POSITION, "="), (POINTS, ">"))),
    ("SUM", GAMES, ((YEAR, ">"), (TEAM, "="))),
    ("COUNT", TEAM, ((TEAM, "="), (POINTS, "<"))),
)


def _big_row(rng: random.Random) -> list[str]:
    points = rng.randint(1, 99999)
    return [f"{rng.choice(FIRST)} {rng.choice(LAST)}", rng.choice(TEAMS),
            rng.choice(POSITIONS), _grouped(points) if rng.random() < 0.3 else str(points),
            str(rng.randint(1, 82)), str(rng.randint(1990, 2023))]


def _cell_int(cell: str) -> int:
    return int(cell.replace(",", ""))


def _big_question(rng: random.Random, rows, shape) -> tuple[dict, str]:
    """One query of the given shape. A numeric predicate's threshold sits
    near the column's median, so it keeps about half the rows on every
    seed and the work per query stays the same; equality literals come
    from an anchor row that passes it, so at least one row survives."""
    agg, sel, preds = shape
    thresholds, survivors = {}, rows
    for col, op in preds:
        if op != "=":
            values = sorted(_cell_int(r[col]) for r in rows)
            t = thresholds[col] = values[int(len(values) * rng.uniform(0.45, 0.55))]
            survivors = [r for r in survivors
                         if (_cell_int(r[col]) > t if op == ">" else _cell_int(r[col]) < t)]
    if not survivors:
        raise HygieneError(f"no row passes the numeric predicates of {shape}")
    anchor = survivors[rng.randrange(len(survivors))]
    conds, words = [], []
    for col, op in preds:
        if op == "=":
            value = anchor[col].lower() if rng.random() < 0.5 else anchor[col]
            words.append(f"{BIG_HEADER[col]} is {value}")
        else:
            value = thresholds[col]
            words.append(f"{BIG_HEADER[col]} {'above' if op == '>' else 'below'} {value}")
        conds.append([col, OP_INDEX[op], value])
    verb = {"SUM": "total", "COUNT": "number of", "MAX": "highest"}[agg]
    question = f"What is the {verb} {BIG_HEADER[sel]} where {' and '.join(words)}?"
    return {"sel": sel, "agg": AGG_INDEX[agg], "conds": conds}, question


def build_big_corpus(work_dir: str, seed: int) -> Corpus:
    """One table per row bucket, each with distinct questions cycling the
    query shapes; gold answers from the row-scan oracle."""
    rng = random.Random(seed)
    agg_name = {v: k for k, v in AGG_INDEX.items()}
    op_name = {v: k for k, v in OP_INDEX.items()}
    tables, questions, expected = [], [], []
    for n_rows in ROW_BUCKETS:
        rows = [_big_row(rng) for _ in range(n_rows)]
        table_id = f"2-{n_rows}"
        tables.append({"id": table_id, "header": BIG_HEADER, "types": BIG_TYPES, "rows": rows})
        table = Table(header=BIG_HEADER, rows=rows, col_types=BIG_TYPES)
        seen = set()
        while len(seen) < QUESTIONS_PER_BIG_TABLE:
            shape = BIG_SHAPES[len(seen) % len(BIG_SHAPES)]
            sql, question = _big_question(rng, rows, shape)
            if question in seen:
                continue
            seen.add(question)
            questions.append({"phase": 1, "question": question, "table_id": table_id, "sql": sql})
            query = Query(aggregate=agg_name[sql["agg"]], projection=BIG_HEADER[sql["sel"]],
                          predicates=[Predicate(column=BIG_HEADER[c], op=op_name[o], literal=str(v),
                                                fold_case=op_name[o] == "=")
                                      for c, o, v in sql["conds"]])
            answer = render_oracle_answer(oracle_execute(query, table))
            expected.append(Expected("wikisql", TemplateKind.SCRIPT, TemplateKind.SCRIPT,
                                     answer, rows=n_rows))
    data_path = os.path.join(work_dir, "big.jsonl")
    tables_path = os.path.join(work_dir, "big.tables.jsonl")
    _write_jsonl(tables_path, tables)
    _write_jsonl(data_path, questions)
    counts = {"wikisql": len(questions)}
    for n_rows in ROW_BUCKETS:
        counts[f"rows_{n_rows}"] = sum(1 for e in expected if e.rows == n_rows)
    return Corpus([("wikisql", data_path, tables_path)], expected, counts)


# -- hygiene checks ---------------------------------------------------------------

def check_counts(records, declared: dict[str, int]) -> None:
    """Every loader yields exactly the declared number of records."""
    found: dict[str, int] = {}
    for r in records:
        found[r.dataset_tag] = found.get(r.dataset_tag, 0) + 1
    if found != declared:
        raise HygieneError(f"record counts {found} differ from declared {declared}")


def check_big_corpus(records, corpus: Corpus) -> None:
    """Declared counts, row buckets and distinct questions per table.
    (``render_oracle_answer`` has already refused a missing gold answer.)"""
    check_counts(records, {"wikisql": len(corpus.expected)})
    keys = set()
    for r, exp in zip(records, corpus.expected):
        if r.data is None or r.data.n_rows != exp.rows:
            raise HygieneError(f"record table has the wrong row count (want {exp.rows})")
        keys.add((exp.rows, r.instruction))
    if len(keys) != len(records):
        raise HygieneError("repeated question on one table")
    for n_rows in ROW_BUCKETS:
        if corpus.counts[f"rows_{n_rows}"] != QUESTIONS_PER_BIG_TABLE:
            raise HygieneError(f"row bucket {n_rows} has {corpus.counts[f'rows_{n_rows}']} records")
