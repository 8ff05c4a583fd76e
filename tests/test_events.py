from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from logbench.events import NORMAL, Label, ParsedEvent, format_label, parse_label, read_events, write_events

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
    st.one_of(st.none(), st.floats(allow_nan=False), st.integers(-10**10, 10**10).map(float)),
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
    # float repr round trips to the bit, including signed zero and infinities
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


def test_parsed_event_is_a_tuple_with_an_optional_label():
    ev = ParsedEvent(3, 7, None, ("a", "b"))
    assert ev.label is None
    assert tuple(ev) == (3, 7, None, ("a", "b"), None)
    assert ev._replace(seq_ids=("a",)) == ParsedEvent(3, 7, None, ("a",), None)
