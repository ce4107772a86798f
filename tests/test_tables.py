"""The file contract every reader shares: physical line numbers, the header's
field count, finite numbers, unique keys, and write/read round trips."""

import csv
import io
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from frugaleval.careers import CareerSequence
from frugaleval.ecology import Environment
from frugaleval.indicators import Publication, Validation
from frugaleval.tables import (
    _DOC_TYPES,
    _VALIDATIONS,
    TableError,
    _member,
    _number,
    read_candidates,
    read_career,
    read_corpus,
    read_environment,
    read_profiles_table,
    write_career,
)

# reader, header, a valid row numbered k; field 1 of every valid row is a number
READERS = {
    "corpus": (
        read_corpus,
        ["id", "year", "category", "citations", "doc_type"],
        lambda k: [f"p{k}", "2020", "phys", "3", "article"],
    ),
    "candidates": (
        read_candidates,
        ["id", "year", "category", "citations", "doc_type", "candidate_id", "validated"],
        lambda k: [f"p{k}", "2020", "phys", "3", "article", "alice", "included"],
    ),
    "profiles": (read_profiles_table, ["id", "hcp", "collab"], lambda k: [f"c{k}", "4", "2"]),
    "environment": (
        read_environment,
        ["id", "criterion", "c1", "c2"],
        lambda k: [f"o{k}", str(k), "1", "0"],
    ),
    "career": (read_career, ["position", "impact"], lambda k: [str(k), "1.5"]),
}


def record(fields):
    """One CSV record as csv.writer quotes it (a blank line for None)."""
    if fields is None:
        return "\n"
    out = io.StringIO()
    csv.writer(out).writerow(fields)
    return out.getvalue()


def table(tmp_path, header, rows):
    path = tmp_path / "table.csv"
    path.write_text("".join(record(r) for r in [header, *rows]), encoding="utf-8")
    return path


def problems(reader, path):
    """(line, text) of every problem in the reader's TableError."""
    with pytest.raises(TableError) as err:
        reader(path)
    found = re.findall(r"(?:: |; )line (\d+): ([^;]*)", str(err.value))
    return [(int(line), text) for line, text in found]


def bad(fields):
    return [fields[0], "x", *fields[2:]]


def spread_over_lines(fields):
    # field 0 is free text or an integer, which int() reads through whitespace
    return ["\n" + fields[0] + "\n", *fields[1:]]


@pytest.mark.parametrize("name", READERS)
class TestEveryReader:
    def test_surplus_field_rejected(self, tmp_path, name):
        reader, header, good = READERS[name]
        path = table(tmp_path, header, [good(0), good(1) + ["9"]])
        assert problems(reader, path) == [
            (3, f"{len(header) + 1} fields, header has {len(header)}")
        ]

    def test_short_row_rejected(self, tmp_path, name):
        reader, header, good = READERS[name]
        path = table(tmp_path, header, [good(0), good(1)[:-1]])
        assert problems(reader, path) == [
            (3, f"{len(header) - 1} fields, header has {len(header)}")
        ]

    def test_blank_line_before_bad_row(self, tmp_path, name):
        reader, header, good = READERS[name]
        path = table(tmp_path, header, [good(0), None, bad(good(1))])
        [(line, text)] = problems(reader, path)
        assert line == 4
        assert text.startswith(f"{header[1]} 'x' is not")

    def test_quoted_newline_before_bad_row(self, tmp_path, name):
        reader, header, good = READERS[name]
        # the quoted record covers lines 2 to 4
        path = table(tmp_path, header, [spread_over_lines(good(0)), bad(good(1))])
        [(line, text)] = problems(reader, path)
        assert line == 5
        assert text.startswith(f"{header[1]} 'x' is not")

    def test_blank_lines_and_quoted_newlines_load(self, tmp_path, name):
        reader, header, good = READERS[name]
        path = table(tmp_path, header, [None, spread_over_lines(good(0)), None, good(1), None])
        reader(path)

    def test_blank_lines_before_header_skipped(self, tmp_path, name):
        reader, header, good = READERS[name]
        path = tmp_path / "table.csv"
        path.write_text("\n\n" + "".join(record(r) for r in [header, good(0), bad(good(1))]),
                        encoding="utf-8")
        # line numbers stay physical: the header is on line 3
        [(line, text)] = problems(reader, path)
        assert line == 5
        assert text.startswith(f"{header[1]} 'x' is not")

    def test_only_blank_lines_is_empty(self, tmp_path, name):
        reader, _, _ = READERS[name]
        path = tmp_path / "table.csv"
        path.write_text("\n\r\n\n", encoding="utf-8")
        with pytest.raises(TableError, match="file is empty"):
            reader(path)

    def test_missing_required_column_named(self, tmp_path, name):
        reader, header, good = READERS[name]
        # a profiles or environment file requires only its key columns
        required = header[:{"profiles": 1, "environment": 2}.get(name, len(header))]
        for i, column in enumerate(required):
            path = table(tmp_path, header[:i] + header[i + 1:], [good(0)[:i] + good(0)[i + 1:]])
            with pytest.raises(TableError) as err:
                reader(path)
            assert str(err.value) == f"{path}: missing required columns: {column}"

    def test_repeated_header_column_rejected(self, tmp_path, name):
        reader, header, good = READERS[name]
        path = table(tmp_path, [*header, header[1]], [good(0) + ["1"]])
        with pytest.raises(TableError, match=f"repeated header columns: {header[1]}$"):
            reader(path)

    def test_nameless_header_column_rejected(self, tmp_path, name):
        # two nameless columns used to fail as "repeated header columns: "
        reader, header, good = READERS[name]
        path = table(tmp_path, [*header, "", ""], [good(0) + ["1", "1"]])
        with pytest.raises(TableError) as err:
            reader(path)
        assert str(err.value) == f"{path}: header column {len(header) + 1} has no name"

    def test_byte_order_mark_accepted(self, tmp_path, name):
        reader, header, good = READERS[name]
        path = table(tmp_path, header, [good(0), good(1)])
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        loaded, _ = LOADED[name]
        assert loaded(reader(marked)) == loaded(reader(path))

    @pytest.mark.parametrize("rows_before", [0, 3, 2000])
    def test_undecodable_byte_names_its_line(self, tmp_path, name, rows_before):
        # 2000 rows put the byte past the decoder's first chunk
        reader, header, good = READERS[name]
        rows = [good(k) for k in range(rows_before)]
        text = "".join(record(r) for r in [header, *rows])
        path = tmp_path / "table.csv"
        path.write_bytes(text.encode("utf-8") + b"\xe9" + record(good(rows_before)).encode())
        # csv.writer ends records with \r\n, one line break each
        assert problems(reader, path) == [(rows_before + 2, "byte 0xe9 is not valid UTF-8")]

    def test_undecodable_header_names_line_one(self, tmp_path, name):
        reader, header, good = READERS[name]
        path = tmp_path / "table.csv"
        path.write_bytes(b"\xff" + record(header).encode() + record(good(0)).encode())
        assert problems(reader, path) == [(1, "byte 0xff is not valid UTF-8")]


@pytest.mark.parametrize("name, first, again", [
    ("candidates", "(candidate_id, id)", "('alice', 'p0')"),
    ("profiles", "id", "'c0'"),
    ("environment", "id", "'o0'"),
    ("career", "position", "0"),
])
def test_repeated_key_names_both_lines(tmp_path, name, first, again):
    reader, header, good = READERS[name]
    path = table(tmp_path, header, [good(0), good(1), good(0)])
    assert problems(reader, path) == [(4, f"{first} {again} repeats line 2")]


def test_publication_id_may_repeat_across_candidates(tmp_path):
    reader, header, good = READERS["candidates"]
    path = table(tmp_path, header, [good(0), good(1), [*good(0)[:5], "bob", "included"]])
    assert [len(p.publications) for p in reader(path)] == [2, 1]
    path = table(tmp_path, header, [good(0), good(1), good(0), good(1)])
    with pytest.raises(TableError, match=re.escape(f"{path}: line 4: ")):
        reader(path)
    assert [line for line, _ in problems(reader, path)] == [4, 5]


def test_negative_citations_reported_by_the_publication(tmp_path):
    reader, header, good = READERS["corpus"]
    path = table(tmp_path, header, [["p1", "2020", "phys", "-5", "article"], good(2)])
    assert problems(reader, path) == [(2, "publication 'p1': citations must be >= 0, got -5")]


# a spoilt corpus or candidate row names one field: the first bad one in the
# order validated, year, citations, doc_type; the sign of citations comes last
SPOILT_PUBLICATION = [
    ({"year": "20x0"}, "year '20x0' is not an integer"),
    ({"citations": "3.5"}, "citations '3.5' is not an integer"),
    ({"doc_type": "poster"}, "doc_type 'poster' is not one of article, review, other"),
    ({"citations": "-5"}, "publication 'p1': citations must be >= 0, got -5"),
    ({"year": "x", "citations": "y"}, "year 'x' is not an integer"),
    ({"year": "x", "doc_type": "poster"}, "year 'x' is not an integer"),
    ({"citations": "y", "doc_type": "poster"}, "citations 'y' is not an integer"),
    ({"doc_type": "poster", "citations": "-5"},
     "doc_type 'poster' is not one of article, review, other"),
    ({"year": "x", "citations": "-5"}, "year 'x' is not an integer"),
]
SPOILT_VALIDATION = [
    ({"validated": "maybe"}, "validated 'maybe' is not one of pending, included, excluded"),
    ({"validated": "maybe", "year": "x"},
     "validated 'maybe' is not one of pending, included, excluded"),
    ({"doc_type": "poster", "validated": "maybe"},
     "validated 'maybe' is not one of pending, included, excluded"),
    ({"validated": "maybe", "citations": "-5"},
     "validated 'maybe' is not one of pending, included, excluded"),
]


@pytest.mark.parametrize("name, spoilt, message", [
    *(("corpus", spoilt, message) for spoilt, message in SPOILT_PUBLICATION),
    *(("candidates", spoilt, message) for spoilt, message in
      SPOILT_PUBLICATION + SPOILT_VALIDATION),
])
def test_spoilt_publication_row_names_its_first_bad_field(tmp_path, name, spoilt, message):
    reader, header, good = READERS[name]
    row = good(1)
    for column, text in spoilt.items():
        row[header.index(column)] = text
    path = table(tmp_path, header, [good(0), row, good(2)])
    with pytest.raises(TableError) as err:
        reader(path)
    assert str(err.value) == f"{path}: line 3: {message}"


@pytest.mark.parametrize("name, header, what", [
    ("profiles", ["id"], "profiles table"),
    ("profiles", ["criterion", "id"], "profiles table"),
    ("environment", ["id", "criterion"], "environment file"),
])
@pytest.mark.parametrize("rows", [0, 2])
def test_no_value_columns_fails_on_the_header(tmp_path, name, header, what, rows):
    reader = READERS[name][0]
    path = table(tmp_path, header, [[f"{k}"] * len(header) for k in range(rows)])
    with pytest.raises(TableError) as err:
        reader(path)
    assert str(err.value) == f"{path}: {what} has no value columns"


@pytest.mark.parametrize("name", ["", " "], ids=["empty", "blank"])
@pytest.mark.parametrize("reader, header, row, what", [
    (read_profiles_table, ["id", "hcp"], ["a", "1", "5"], "header column 3"),
    (read_environment, ["id", "criterion", "c1"], ["a", "1", "2", "5"], "header column 4"),
], ids=["profiles", "environment"])
def test_value_column_without_a_name_fails_on_the_header(tmp_path, reader, header, row, what,
                                                         name):
    path = table(tmp_path, [*header, name], [row, [f"b{k}" if k == 0 else v
                                                    for k, v in enumerate(row)]])
    with pytest.raises(TableError) as err:
        reader(path)
    assert str(err.value) == f"{path}: {what} has no name"


def test_header_only_file_holds_nothing(tmp_path):
    for name in ("candidates", "profiles"):
        reader, header, _ = READERS[name]
        assert reader(table(tmp_path, header, [])) == []
    reader, header, _ = READERS["corpus"]
    assert reader(table(tmp_path, header, [])).group_keys() == ()


def test_non_finite_profile_value_names_its_line(tmp_path):
    path = table(tmp_path, ["id", "hcp", "collab"], [["A", "1", "2"], ["B", "3", "nan"]])
    assert problems(read_profiles_table, path) == [(3, "collab 'nan' is not a finite number")]


def test_profiles_table_ignores_criterion(tmp_path):
    path = table(tmp_path, ["id", "criterion", "hcp", "collab"],
                 [["A", "9.9", "4", "2"], ["B", "1.1", "3", "7"]])
    assert read_profiles_table(path)[0].indicators == {"hcp": 4.0, "collab": 2.0}


@pytest.mark.parametrize("impact, message", [
    ("nan", "impact 'nan' is not a finite number"),
    ("inf", "impact 'inf' is not a finite number"),
    ("-2", "impact must be >= 0, got -2.0"),
])
def test_bad_career_impact_names_its_file_line(tmp_path, impact, message):
    # position 0 sorts first, but the row is the file's line 3
    path = table(tmp_path, ["position", "impact"], [["5", "1"], ["0", impact], ["2", "3"]])
    assert problems(read_career, path) == [(3, message)]


def test_unparsable_record_names_its_line(tmp_path):
    path = table(tmp_path, ["position", "impact"], [["0", "1"], ["1", "9" * 200_000]])
    [(line, text)] = problems(read_career, path)
    assert line == 3
    assert "field limit" in text


def test_unparsable_header_names_line_one(tmp_path):
    path = table(tmp_path, ["position", "impact" * 30_000], [["0", "1"]])
    [(line, text)] = problems(read_career, path)
    assert line == 1
    assert "field limit" in text


def test_career_rows_sorted_by_position(tmp_path):
    path = table(tmp_path, ["position", "impact"], [["5", "1"], ["0", "7"], ["2", "3"]])
    assert read_career(path).impacts == (7.0, 3.0, 1.0)


finite = st.floats(allow_nan=False, allow_infinity=False)
# any text a CSV field can carry, quotes, separators and line breaks included
texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_environment_round_trip(tmp_path_factory, data):
    # rows of floats written as repr() writes them read back as those floats
    n = data.draw(st.integers(2, 6))
    # Environment rejects a blank cue name
    names = data.draw(st.lists(
        texts.filter(lambda t: t.strip() and t not in ("id", "criterion")),
        min_size=1, max_size=3, unique=True
    ))
    ids = data.draw(st.lists(texts, min_size=n, max_size=n, unique=True))
    criterion = data.draw(st.lists(finite, min_size=n, max_size=n))
    cues = data.draw(st.lists(st.lists(finite, min_size=len(names), max_size=len(names)),
                              min_size=n, max_size=n))
    rows = [[pid, repr(value), *map(repr, row)] for pid, value, row in zip(ids, criterion, cues)]
    back = read_environment(table(tmp_path_factory.mktemp("env"), ["id", "criterion", *names],
                                  rows))
    env = Environment(ids, criterion, cues, names)
    assert back.ids == env.ids
    assert back.cue_names == env.cue_names
    assert back.criterion_values.tolist() == env.criterion_values.tolist()
    assert back.cue_matrix.tolist() == env.cue_matrix.tolist()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(impacts=st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=1, max_size=30))
def test_career_round_trip(tmp_path_factory, impacts):
    seq = CareerSequence(tuple(impacts))
    path = tmp_path_factory.mktemp("career") / "career.csv"
    write_career(seq, path)
    assert read_career(path).impacts == seq.impacts


# the fuzz oracle: what each column accepts
ENUMS = {
    "doc_type": {"article", "review", "other"},
    "validated": {"pending", "included", "excluded"},
}
INTEGERS = {"year", "citations", "position"}
TEXTS = {"id", "category", "candidate_id"}
NON_NEGATIVE = {"citations", "impact"}
KEYS = {
    "profiles": lambda row: row["id"],
    "environment": lambda row: row["id"],
    "career": lambda row: row["position"],
}
# what a loaded table holds, and the same built from rows the oracle converted
LOADED = {
    "corpus": (
        lambda corpus: sorted((p.id, p.year, p.category, p.citations, p.doc_type.value)
                              for p in corpus.publications),
        lambda rows: sorted(tuple(row.values()) for row in rows),
    ),
    "candidates": (
        lambda profiles: sorted((p.id, p.year, p.category, p.citations, p.doc_type.value,
                                 prof.id, p.validated.value)
                                for prof in profiles for p in prof.publications),
        lambda rows: sorted(tuple(row.values()) for row in rows),
    ),
    "profiles": (
        lambda profiles: sorted((p.id, *p.indicators.values()) for p in profiles),
        lambda rows: sorted(tuple(row.values()) for row in rows),
    ),
    "environment": (
        lambda env: sorted(zip(env.ids, env.criterion_values.tolist(), *env.cue_matrix.T.tolist())),
        lambda rows: sorted(tuple(row.values()) for row in rows),
    ),
    "career": (
        lambda seq: list(seq.impacts),
        lambda rows: [row["impact"] for row in sorted(rows, key=lambda row: row["position"])],
    ),
}


def oracle(column, text):
    """The field's value, or None where the contract rejects it."""
    if column in TEXTS:
        return text
    if column in ENUMS:
        return text if text in ENUMS[column] else None
    try:
        value = int(text) if column in INTEGERS else float(text)
    except ValueError:
        return None
    if not math.isfinite(value) or (column in NON_NEGATIVE and value < 0):
        return None
    return value


def typed(column):
    """Text of the column's own type, some of which (negative, non-finite) is rejected."""
    if column in TEXTS:
        return texts
    if column in ENUMS:
        return st.sampled_from(sorted(ENUMS[column]))
    if column in INTEGERS:
        return st.integers(-3, 3000).map(str)
    return st.floats().map(repr)


junk = st.one_of(
    st.sampled_from(["0", "7", "-3", " 2", "1.5", "1e3", "nan", "inf", "-inf", "", "x",
                     "article", "poster", "included", "alice", "p0", "o0", "c0"]),
    texts,
)


@pytest.mark.parametrize("name", READERS)
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_row_loads_every_value_or_names_its_line(tmp_path_factory, name, data):
    reader, header, good = READERS[name]
    row = [data.draw(typed(column)) for column in header]
    spoilt = data.draw(st.integers(-1, len(header) - 1))
    if spoilt >= 0:
        row[spoilt] = data.draw(junk)
    row = data.draw(st.sampled_from([row, row[:-1], [*row, data.draw(junk)]]))
    path = tmp_path_factory.mktemp(name) / "table.csv"
    path.write_text(record(header) + record(good(0)) + record(row), encoding="utf-8")

    rows = [dict(zip(header, map(oracle, header, fields))) for fields in (good(0), row)]
    valid = len(row) == len(header) and None not in rows[1].values()
    if valid and name in KEYS:
        valid = KEYS[name](rows[0]) != KEYS[name](rows[1])
    if valid:
        loaded, expected = LOADED[name]
        assert loaded(reader(path)) == expected(rows)
    else:
        assert [line for line, _ in problems(reader, path)] == [3]


# int() reads each of these, on the inline path and the checked one alike
INT_TEXTS = [" 7", "7 ", "+7", "0_7", "\u0663", "-0", "007"]


def checked_publication(header, fields):
    """The reference for one corpus or candidates row: the Publication that the
    checked conversions build, taken field by field in the order validated,
    year, citations, doc_type, or the message of the first one that fails."""
    row = dict(zip(header, fields))
    try:
        validated = (_member(row["validated"], "validated", _VALIDATIONS)
                     if "validated" in row else Validation.INCLUDED)
        year = _number(row["year"], "year", int)
        citations = _number(row["citations"], "citations", int)
        doc_type = _member(row["doc_type"], "doc_type", _DOC_TYPES)
        return Publication(row["id"], year, row["category"], citations, doc_type, validated)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("name", ["corpus", "candidates"])
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_publication_row_matches_the_checked_conversions(tmp_path_factory, name, data):
    reader, header, good = READERS[name]
    # any id but the first row's, so that no candidate repeats a publication
    row = [data.draw(texts.filter(lambda t: t != "p0")) if column == "id" else
           data.draw(typed(column)) for column in header]
    kind = data.draw(st.sampled_from(["valid", "spoilt", "negative", "int text"]))
    if kind == "negative":
        row[header.index("citations")] = data.draw(st.integers(-9, -1).map(str))
    if kind in ("spoilt", "negative"):
        # up to two spoilt fields, so that the first bad one must be named
        typed_columns = [header.index(c) for c in header if c not in TEXTS]
        for i in data.draw(st.lists(st.sampled_from(typed_columns), min_size=kind == "spoilt",
                                    max_size=2, unique=True)):
            row[i] = data.draw(junk)
    elif kind == "int text":
        row[header.index(data.draw(st.sampled_from(["year", "citations"])))] = \
            data.draw(st.sampled_from(INT_TEXTS))
    path = tmp_path_factory.mktemp(name) / "table.csv"
    path.write_text(record(header) + record(good(0)) + record(row), encoding="utf-8")

    expected = checked_publication(header, row)
    if isinstance(expected, str):
        with pytest.raises(TableError) as err:
            reader(path)
        assert str(err.value) == f"{path}: line 3: {expected}"
        return
    if name == "corpus":
        loaded = list(reader(path).publications)
        expected = [checked_publication(header, good(0)), expected]
    else:
        loaded = [pub for profile in reader(path) for pub in profile.publications]
        # profiles in candidate_id order, each profile's rows in file order
        owners = sorted([("alice", checked_publication(header, good(0))),
                         (row[header.index("candidate_id")], expected)], key=lambda o: o[0])
        expected = [pub for _, pub in owners]
    assert all(type(pub) is Publication for pub in loaded)
    assert loaded == expected
    assert [hash(pub) for pub in loaded] == [hash(pub) for pub in expected]
    for pub in loaded:
        with pytest.raises(ValueError, match="citations must be >= 0, got -1"):
            pub._replace(citations=-1)
