from __future__ import annotations

import csv
import io
import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from logbench.errors import ValidationError
from logbench.events import (
    EVENTS_HEADER,
    NORMAL,
    Label,
    ParsedEvent,
    format_label,
    parse_label,
    read_events,
    write_events,
    write_store,
)

#: Any text the store's UTF-8 file can hold: no surrogates, no NUL.
TEXT = st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")
#: Characters the csv dialect must quote or escape.
AWKWARD = st.sampled_from(["\t", ":", '"', "'", ",", " ", "\n", "\r", "anomalous", "normal"])

tags = st.lists(st.one_of(AWKWARD, TEXT), max_size=8).map("".join)
labels = st.one_of(st.none(), st.just(NORMAL), tags.map(lambda tag: Label(True, tag)))
seq_ids = st.lists(st.one_of(AWKWARD, TEXT), min_size=1, max_size=6).map("".join)
events = st.builds(
    ParsedEvent,
    st.integers(min_value=0, max_value=10**12),
    st.integers(min_value=1, max_value=10**6),
    st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False), st.integers(-10**10, 10**10).map(float)),
    st.lists(seq_ids, max_size=3, unique=True).map(tuple),
    labels,
)


def rows_of(stream: list[ParsedEvent], keep_unidentified: bool) -> list[ParsedEvent]:
    """What the store should read back: one event per (line, seq_id) row."""
    out = []
    for ev in stream:
        if ev.seq_ids:
            out.extend(ev._replace(seq_ids=(sid,)) for sid in ev.seq_ids)
        elif keep_unidentified:
            out.append(ev)
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(events, max_size=12), st.booleans())
def test_store_round_trip(tmp_path_factory, stream, keep_unidentified):
    path = tmp_path_factory.mktemp("store") / "events.tsv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        rows = write_events(stream, handle, keep_unidentified=keep_unidentified)
    expected = rows_of(stream, keep_unidentified)
    assert rows == len(expected)
    back = list(read_events(path))
    assert back == expected
    # float repr round trips to the bit, including signed zero
    for got, want in zip(back, expected):
        if want.timestamp is not None:
            assert math.copysign(1.0, got.timestamp) == math.copysign(1.0, want.timestamp)


@given(labels)
def test_label_text_round_trip(label):
    assert parse_label(format_label(label)) == label


def test_label_whitespace():
    assert parse_label(" normal\t") == NORMAL
    assert parse_label("  ") is None
    assert parse_label(" anomalous:net down ") == Label(True, "net down ")


def test_rows_with_one_label_text_share_one_label(tmp_path):
    path = tmp_path / "events.tsv"
    text = "\t".join(EVENTS_HEADER) + "\n1\t4\t0.5\ta\tanomalous:x\n2\t5\t\tb\tnormal\n3\t4\t1.5\tc\tanomalous:x\n"
    path.write_text(text, encoding="utf-8")
    first, _, third = read_events(path)
    assert first.label == Label(True, "x")
    assert first.label is third.label
    assert list(read_events(path))[0].label is not first.label  # shared within one read only
    out = io.StringIO(newline="")
    write_events(read_events(path), out)
    assert out.getvalue() == text


def test_rows_with_one_event_id_share_one_int(tmp_path):
    path = tmp_path / "events.tsv"
    path.write_text("\t".join(EVENTS_HEADER) + "\n1\t1000\t\ta\t\n2\t300\t\ta\t\n3\t1000\t\tb\t\n4\t300\t\tb\t\n")
    first, second, third, fourth = read_events(path)
    assert [e.event_id for e in (first, second, third, fourth)] == [1000, 300, 1000, 300]
    assert first.event_id is third.event_id
    assert second.event_id is fourth.event_id
    assert list(read_events(path))[0].event_id is not first.event_id  # shared within one read only


def test_an_event_id_that_is_no_integer_is_refused_at_its_line(tmp_path):
    path = tmp_path / "events.tsv"
    path.write_text("\t".join(EVENTS_HEADER) + "\n1\t300\t\ta\t\n2\t3o0\t\ta\t\n")
    message = rf"^{re.escape(str(path))}:3: invalid literal for int\(\) with base 10: '3o0'$"
    with pytest.raises(ValidationError, match=message):
        list(read_events(path))


def test_parsed_event_is_a_tuple_with_an_optional_label():
    ev = ParsedEvent(3, 7, None, ("a", "b"))
    assert ev.label is None
    assert tuple(ev) == (3, 7, None, ("a", "b"), None)
    assert ev._replace(seq_ids=("a",)) == ParsedEvent(3, 7, None, ("a",), None)


def csv_store(header, rows):
    """The store as the csv module writes it: a row with a carriage return has every field quoted."""
    out = io.StringIO()
    plain = csv.writer(out, delimiter="\t", lineterminator="\n")
    quoted = csv.writer(out, delimiter="\t", lineterminator="\n", quoting=csv.QUOTE_ALL)
    plain.writerow(header)
    for row in rows:
        (quoted if "\r" in "".join(row) else plain).writerow(row)
    return out.getvalue()


def written(write, header, rows):
    """What `write` produces, or the csv error it raises (Python 3.10's csv refuses a NUL)."""
    try:
        return write(header, rows)
    except csv.Error as exc:
        return ("csv.Error", str(exc))


def join_store(header, rows):
    out = io.StringIO()
    assert write_store(out, header, rows) == len(rows)
    return out.getvalue()


FIELD = st.lists(st.sampled_from(["a", "7", " ", "\t", '"', "'", "\n", "\r", "\0", ":", "\u00e9", ""]), max_size=4).map(
    "".join
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda width: st.lists(st.tuples(*[FIELD] * width), max_size=5)))
@example([("",)])  # a lone empty field is quoted
@example([("a\tb", "c"), ('"', ""), ("x\ry", "z"), ("\0", "n"), ("", "")])
def test_store_writer_matches_csv_writer(rows):
    header = tuple(f"c{i}" for i in range(len(rows[0]) if rows else 1))
    assert written(join_store, header, rows) == written(csv_store, header, rows)


@pytest.mark.parametrize("stamp", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_non_finite_timestamp_refused_at_its_line(tmp_path, stamp):
    path = tmp_path / "events.tsv"
    path.write_text("\t".join(EVENTS_HEADER) + f"\n1\t2\t5.0\ta\t\n2\t2\t{stamp}\ta\t\n")
    with pytest.raises(ValidationError, match=rf"{re.escape(str(path))}:3: timestamp is not finite"):
        list(read_events(path))
