from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from logbench.errors import ValidationError
from logbench.ingest import Label, NORMAL, ParsedEvent
from logbench.sequencing import (
    GroupingReport,
    Sequence,
    attach_sequence_labels,
    count_vector_key,
    dedupe_replicated,
    group_by_identifier,
    group_by_window,
    lift_event_labels,
    load_label_file,
    read_sequences,
    to_count_vector,
    write_sequences,
)


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

    def test_timestamps_and_event_labels_carried(self):
        events = [
            ev(1, 3, ["a"], ts=1.0, label=NORMAL),
            ev(2, 4, ["a"], ts=2.0, label=Label(True, "x")),
        ]
        (seq,) = group_by_identifier(events)
        assert seq.timestamps == [1.0, 2.0]
        assert seq.event_labels == [NORMAL, Label(True, "x")]


class TestGroupByWindow:
    def test_window5_step2_over_7_events(self):
        events = [ev(i + 1, i, ["x"]) for i in range(7)]
        windows = group_by_window(events, 5, 2)
        assert [w.events for w in windows] == [
            [0, 1, 2, 3, 4],
            [2, 3, 4, 5, 6],
            [4, 5, 6],
        ]

    def test_window_at_least_stream_length(self):
        events = [ev(i + 1, i, ["x"]) for i in range(4)]
        assert [w.events for w in group_by_window(events, 4, 2)] == [[0, 1, 2, 3]]
        assert [w.events for w in group_by_window(events, 9, 2)] == [[0, 1, 2, 3]]

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


class TestLiftEventLabels:
    def test_all_normal(self):
        seq = Sequence("s", [1, 2], event_labels=[NORMAL, NORMAL])
        assert lift_event_labels(seq).label == NORMAL

    def test_single_anomalous_event_dominates(self):
        labels = [NORMAL] * 10_000 + [Label(True, "KERN")]
        seq = Sequence("s", list(range(10_001)), event_labels=labels)
        assert lift_event_labels(seq).label == Label(True, "KERN")

    def test_tag_comes_from_first_anomalous_event(self):
        labels = [NORMAL, Label(True, "first"), Label(True, "second")]
        seq = Sequence("s", [1, 2, 3], event_labels=labels)
        assert lift_event_labels(seq).label.tag == "first"

    def test_empty_sequence_degenerate_normal(self):
        seq = Sequence("s", [], event_labels=[])
        assert lift_event_labels(seq).label == NORMAL

    def test_monotone_adding_anomaly_never_clears(self):
        seq = Sequence("s", [1], event_labels=[Label(True, "x")])
        lift_event_labels(seq)
        seq.events.append(2)
        seq.event_labels.append(NORMAL)
        assert lift_event_labels(seq).label.anomalous


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
        a = to_count_vector(Sequence("s", [1, 2, 2]))
        b = to_count_vector(Sequence("s", [2, 1, 2]))
        assert count_vector_key(a) == count_vector_key(b) == ((1, 1), (2, 2))


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
        assert [s.seq_id for s in back] == ["a", "b", "c"]
        assert back[0].events == [1, 2, 3]
        assert back[0].timestamps == [1.0, None, 3.5]
        assert back[1].label == Label(True, "net down")
        assert back[2].events == []

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tnormal\t1 2\t1.0\n")
        with pytest.raises(ValidationError):
            read_sequences(path)
