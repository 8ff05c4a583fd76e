from __future__ import annotations

import io
import re
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from logbench.errors import ValidationError
from logbench.events import Label, NORMAL, ParsedEvent
from logbench.sequencing import (
    GroupingReport,
    Sequence,
    attach_sequence_labels,
    count_vector_key,
    dedupe_replicated,
    group_by_identifier,
    group_by_window,
    load_label_file,
    read_sequences,
    to_count_vector,
    write_sequences,
)

from oracles import window_spans_naive


def ev(line_no, event_id, seq_ids, ts=None, label=None):
    return ParsedEvent(line_no, event_id, ts, tuple(seq_ids), label)


class TestGroupByIdentifier:
    def test_basic_grouping(self):
        events = [ev(1, 5, ["blk_1"]), ev(2, 22, ["blk_1"]), ev(3, 5, ["blk_2"])]
        seqs = group_by_identifier(events)
        assert {s.seq_id: s.events for s in seqs} == {"blk_1": [5, 22], "blk_2": [5]}

    def test_multi_id_event_replicated(self):
        seqs = group_by_identifier([ev(1, 9, ["a", "b"])])
        assert {s.seq_id: s.events for s in seqs} == {"a": [9], "b": [9]}

    def test_empty_input(self):
        assert group_by_identifier([]) == []

    def test_discard_counter_for_unidentified(self):
        report = GroupingReport()
        seqs = group_by_identifier([ev(1, 5, []), ev(2, 5, ["a"])], report=report)
        assert report.discarded_no_id == 1
        assert report.grouped_events == 1
        assert len(seqs) == 1

    def test_event_sum_invariant(self):
        events = [ev(i, 1, ["a", "b"] if i % 3 == 0 else ["a"]) for i in range(1, 20)]
        seqs = group_by_identifier(events)
        assert sum(len(s) for s in seqs) == sum(len(e.seq_ids) for e in events)

    def test_order_is_line_order(self):
        events = [ev(1, 3, ["a"], ts=100.0), ev(2, 1, ["a"], ts=50.0), ev(3, 2, ["a"], ts=75.0)]
        (seq,) = group_by_identifier(events)
        assert seq.events == [3, 1, 2]

    def test_timestamps_carried_and_label_lifted(self):
        events = [
            ev(1, 3, ["a"], ts=1.0, label=NORMAL),
            ev(2, 4, ["a"], ts=2.0, label=Label(True, "x")),
        ]
        (seq,) = group_by_identifier(events)
        assert seq.timestamps == [1.0, 2.0]
        assert seq.label == Label(True, "x")

    def test_label_lifted_when_every_event_has_one(self):
        events = [ev(1, 3, ["a"], label=NORMAL), ev(2, 4, ["a", "b"], label=Label(True, "x"))]
        a, b = group_by_identifier(events)
        assert (a.label, b.label) == (Label(True, "x"), Label(True, "x"))

    def test_no_label_when_an_event_has_none(self):
        (seq,) = group_by_identifier([ev(1, 3, ["a"], label=Label(True, "x")), ev(2, 4, ["a"])])
        assert seq.label is None
        (seq,) = group_by_identifier([ev(1, 3, ["a"]), ev(2, 4, ["a"], label=Label(True, "x"))])
        assert seq.label is None


class TestGroupByWindow:
    def test_window5_step2_over_7_events(self):
        events = [ev(i + 1, i, ["x"]) for i in range(7)]
        windows = group_by_window(events, 5, 2)
        # [4, 5, 6] lies inside [2..6], so no trailing window follows
        assert [w.events for w in windows] == [
            [0, 1, 2, 3, 4],
            [2, 3, 4, 5, 6],
        ]

    def test_window_at_least_stream_length(self):
        events = [ev(i + 1, i, ["x"]) for i in range(4)]
        assert [w.events for w in group_by_window(events, 4, 2)] == [[0, 1, 2, 3]]
        assert [w.events for w in group_by_window(events, 9, 2)] == [[0, 1, 2, 3]]

    @settings(max_examples=300)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=0, max_value=2),
    )
    def test_matches_naive_oracle(self, window, step, offset, periods):
        # stream lengths around the window and its following step starts
        n = max(0, window + offset + periods * step)
        events = [ev(i + 1, i, ["x"]) for i in range(n)]
        windows = group_by_window(events, window, step)
        spans = window_spans_naive(n, window, step)
        assert [w.events for w in windows] == [list(range(a, b)) for a, b in spans]
        assert [w.seq_id for w in windows] == [f"window-{a}" for a, _ in spans]

    def test_tumbling_10_events_window3(self):
        events = [ev(i + 1, i, ["x"]) for i in range(10)]
        windows = group_by_window(events, 3, 3)
        assert [w.events for w in windows] == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    def test_zero_window_rejected(self):
        with pytest.raises(ValidationError):
            group_by_window([], 0, 1)
        with pytest.raises(ValidationError):
            group_by_window([], 3, 0)

    def test_empty_stream(self):
        assert group_by_window([], 5, 2) == []

    def test_window_labels_lifted_from_events(self):
        events = [
            ev(1, 1, ["x"], label=NORMAL),
            ev(2, 2, ["x"], label=Label(True, "bad")),
            ev(3, 3, ["x"], label=NORMAL),
        ]
        windows = group_by_window(events, 2, 2)
        assert windows[0].label == Label(True, "bad")
        assert windows[1].label == NORMAL

    def test_dedupe_replicated(self):
        rows = [ev(1, 5, ["a"]), ev(1, 5, ["b"]), ev(2, 6, ["a"])]
        assert [e.line_no for e in dedupe_replicated(rows)] == [1, 2]


def lifted(labels):
    """The label each grouper gives one sequence of events with these labels."""
    events = [ev(i, i, ["s"], label=label) for i, label in enumerate(labels, 1)]
    (by_id,) = group_by_identifier(events)
    (window,) = group_by_window(events, len(events), 1)
    assert by_id.label == window.label
    return by_id.label


class TestLiftEventLabels:
    def test_all_normal(self):
        assert lifted([NORMAL, NORMAL]) == NORMAL
        assert lifted([Label(False), Label(False)]) == NORMAL

    def test_single_anomalous_event_dominates(self):
        assert lifted([NORMAL] * 10_000 + [Label(True, "KERN")]) == Label(True, "KERN")

    def test_tag_comes_from_first_anomalous_event(self):
        assert lifted([NORMAL, Label(True, "first"), Label(True, "second")]).tag == "first"

    def test_monotone_adding_anomaly_never_clears(self):
        assert lifted([Label(True, "x"), NORMAL]) == Label(True, "x")

    def test_an_unlabeled_event_clears_it_for_good(self):
        for labels in ([None, NORMAL], [Label(True, "x"), None], [None, Label(True, "x")], [NORMAL, None, NORMAL]):
            assert lifted(labels) is None

    def test_each_window_lifts_its_own_events(self):
        labels = [NORMAL, Label(True, "x"), None, NORMAL, Label(True, "y"), NORMAL]
        events = [ev(i, i, ["s"], label=label) for i, label in enumerate(labels, 1)]
        assert [w.label for w in group_by_window(events, 2, 2)] == [Label(True, "x"), None, Label(True, "y")]


class TestTallyAnomalousEvents:
    def test_counts_anomalous_events_of_labeled_sequences_per_type(self):
        bad, worse = Label(True, "bad"), Label(True, "worse")
        events = [
            ev(1, 5, ["a"], label=NORMAL),
            ev(2, 7, ["a"], label=bad),
            ev(3, 7, ["b"], label=worse),
            ev(4, 7, ["a", "b"], label=bad),
            ev(5, 8, ["u"], label=bad),
            ev(6, 8, ["u"]),
            ev(7, 9, [], label=bad),
        ]
        report = GroupingReport()
        seqs = group_by_identifier(events, report=report)
        assert [s.label for s in seqs] == [bad, worse, None]
        # the shared row counts once per sequence; `u` is unlabeled and the id-less row joins none
        assert report.anomalous_events == {7: 4}


class TestAttachLabels:
    def test_attach_and_exclude(self):
        seqs = [Sequence("blk_1", [1]), Sequence("blk_9", [2])]
        labeled, unlabeled = attach_sequence_labels(seqs, {"blk_1": NORMAL})
        assert [s.seq_id for s in labeled] == ["blk_1"]
        assert labeled[0].label == NORMAL
        assert unlabeled == ["blk_9"]

    def test_label_file_formats(self, tmp_path):
        f = tmp_path / "labels.csv"
        f.write_text("BlockId,Label\nblk_1,Normal\nblk_2,Anomaly\nblk_3,machine down\n")
        labels = load_label_file(f)
        assert labels["blk_1"] == NORMAL
        assert labels["blk_2"] == Label(True)
        assert labels["blk_3"] == Label(True, "machine down")

    def test_label_file_tsv(self, tmp_path):
        f = tmp_path / "labels.tsv"
        f.write_text("blk_1\tnormal\nblk_2\tanomaly\n")
        labels = load_label_file(f)
        assert labels["blk_2"].anomalous


class TestCountVector:
    def test_fig4_sequence(self):
        # the "22 5 5 7" pattern plus the longer variant with three 5s
        assert to_count_vector(Sequence("s", [22, 5, 5, 7])) == Counter({5: 2, 22: 1, 7: 1})
        cv = to_count_vector(Sequence("s", [5, 22, 5, 5, 7]))
        assert cv == Counter({5: 3, 22: 1, 7: 1})
        assert cv.total() == 5

    def test_empty(self):
        cv = to_count_vector(Sequence("s", []))
        assert cv == Counter()
        assert cv.total() == 0

    def test_key_is_canonical(self):
        a = Sequence("s", [1, 2, 2])
        b = Sequence("s", [2, 1, 2])
        assert count_vector_key(a) == count_vector_key(b) == (1, 2, 2)


@given(
    st.lists(st.integers(min_value=1, max_value=4), max_size=8),
    st.lists(st.integers(min_value=1, max_value=4), max_size=8),
)
def test_count_vector_key_equal_iff_count_vectors_equal(a, b):
    a, b = Sequence("a", a), Sequence("b", b)
    assert (count_vector_key(a) == count_vector_key(b)) == (to_count_vector(a) == to_count_vector(b))


@given(st.lists(st.integers(min_value=1, max_value=9), max_size=20), st.randoms())
def test_count_vector_permutation_invariant(events, rng):
    permuted = list(events)
    rng.shuffle(permuted)
    assert to_count_vector(Sequence("a", events)) == to_count_vector(Sequence("b", permuted))


class TestSequenceStore:
    def test_round_trip(self, tmp_path):
        seqs = [
            Sequence("a", [1, 2, 3], [1.0, None, 3.5], NORMAL),
            Sequence("b", [9], None, Label(True, "net down")),
            Sequence("c", [], None, NORMAL),
        ]
        path = tmp_path / "seqs.tsv"
        with open(path, "w", newline="") as handle:
            assert write_sequences(seqs, handle) == 3
        back = read_sequences(path)
        assert back == seqs
        assert [s.seq_id for s in back] == ["a", "b", "c"]
        assert back[0].events == (1, 2, 3)
        assert back[0].timestamps == [1.0, None, 3.5]
        assert back[1].label == Label(True, "net down")
        assert back[2].events == ()

    def test_carriage_return_in_text_round_trips(self, tmp_path):
        seqs = [Sequence("a\rb", [1], None, Label(True, "x\ry")), Sequence("c", [2], None, NORMAL)]
        path = tmp_path / "seqs.tsv"
        with open(path, "w", newline="") as handle:
            write_sequences(seqs, handle)
        back = read_sequences(path)
        assert [(s.seq_id, s.label) for s in back] == [("a\rb", Label(True, "x\ry")), ("c", NORMAL)]

    def test_sequence_named_like_the_header_column_is_kept(self, tmp_path):
        seqs = [Sequence(sid, [i], None, NORMAL) for i, sid in enumerate(["a", "seq_id", "b"])]
        path = tmp_path / "seqs.tsv"
        with open(path, "w", newline="") as handle:
            assert write_sequences(seqs, handle) == 3
        assert [(s.seq_id, s.events) for s in read_sequences(path)] == [("a", (0,)), ("seq_id", (1,)), ("b", (2,))]

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tnormal\t1 2\t1.0\n")
        with pytest.raises(ValidationError):
            read_sequences(path)

    def test_headerless_store_keeps_a_first_record_named_like_the_first_column(self, tmp_path):
        path = tmp_path / "headerless.tsv"
        path.write_text("seq_id\tnormal\t1\t\nb\tnormal\t2\t\n")
        assert [(s.seq_id, s.events) for s in read_sequences(path)] == [("seq_id", (1,)), ("b", (2,))]

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_timestamp_refused_at_its_line(self, tmp_path, stamp):
        path = tmp_path / "seqs.tsv"
        path.write_text(f"seq_id\tlabel\tevents\ttimestamps\na\tnormal\t1 2\t0.0 1.0\nb\tnormal\t1 2\t0.0 {stamp}\n")
        with pytest.raises(ValidationError, match=rf"{re.escape(str(path))}:3: sequence b: a timestamp is not finite"):
            read_sequences(path)


class TestSequenceRecord:
    def test_length_equality_and_no_hash(self):
        seq = Sequence("a", [1, 2], [0.0, None], NORMAL)
        assert len(seq) == 2
        assert seq == Sequence("a", [1, 2], [0.0, None], NORMAL)
        assert seq != Sequence("a", [1, 2], [0.0, None], Label(True))
        assert seq != ("a", (1, 2), (0.0, None), NORMAL)
        with pytest.raises(TypeError):
            hash(seq)
        with pytest.raises(AttributeError):
            seq.extra = 1

    def test_equality_is_by_value_whatever_the_container(self):
        assert Sequence("a", [1]) == Sequence("a", (1,))
        assert Sequence("a", [1, 2], [0.5, 1.5]) == Sequence("a", (1, 2), array("d", [0.5, 1.5]))
        assert Sequence("a", [1], [0.5]) != Sequence("a", (1,), array("d", [0.25]))
        assert Sequence("a", [1], [None], NORMAL) == Sequence("a", (1,), [None], NORMAL)


def test_rows_with_one_label_text_share_one_label(tmp_path):
    seqs = [Sequence("a", [1, 2], None, Label(True, "x")), Sequence("b", [1], None, NORMAL)]
    seqs.append(Sequence("c", [3], [0.5], Label(True, "x")))
    path = tmp_path / "sequences.tsv"
    text = store_text(seqs)
    path.write_text(text, encoding="utf-8", newline="")
    back = read_sequences(path)
    assert back == seqs
    assert back[0].label is back[2].label
    assert store_text(back) == text


@st.composite
def stored_sequences(draw):
    """Sequences as `group` builds them (lists; an empty one has no stamps), with `-` stamps and odd ids and tags."""
    text = st.text(alphabet="ab \r\t\n\":-", max_size=4)
    sid = draw(st.one_of(text, st.just("seq_id")))
    label = draw(st.one_of(st.none(), st.just(NORMAL), st.builds(lambda tag: Label(True, tag), text)))
    events = draw(st.lists(st.integers(1, 3), max_size=4))
    stamp = st.floats(allow_nan=False, allow_infinity=False)
    n = len(events)
    stamps = draw(st.one_of(st.none(), st.lists(st.one_of(stamp, st.none()), min_size=n, max_size=n)))
    return Sequence(sid, events, stamps if events else None, label)


def store_text(seqs):
    handle = io.StringIO(newline="")
    write_sequences(seqs, handle)
    return handle.getvalue()


@settings(max_examples=200)
@given(st.lists(stored_sequences(), max_size=12))
def test_store_read_back_is_compact_and_writes_the_same_bytes(tmp_path_factory, seqs):
    path = tmp_path_factory.getbasetemp() / "round_trip.tsv"
    written = store_text(seqs)
    path.write_text(written, encoding="utf-8", newline="")
    back = read_sequences(path)
    assert back == seqs
    assert store_text(back) == written
    first: dict[tuple[int, ...], tuple[int, ...]] = {}
    for seq in back:
        assert type(seq.events) is tuple
        assert first.setdefault(seq.events, seq.events) is seq.events
        if seq.timestamps is not None:
            assert type(seq.timestamps) is (list if None in seq.timestamps else array)
