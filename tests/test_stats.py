from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from logbench.errors import ValidationError
from logbench.events import Label, NORMAL
from logbench.sequencing import Sequence
from logbench.stats import (
    event_frequency_dist,
    five_number,
    interarrival_dist,
    length_dist,
    report_files,
    summarize,
    summary_lines,
    top_sequences,
)

from oracles import event_frequency_naive, length_dist_naive, summarize_naive, top_sequences_naive


ANOM = Label(True, "x")


def nseq(events, sid="n", ts=None):
    return Sequence(sid, list(events), ts, NORMAL)


def aseq(events, sid="a", ts=None):
    return Sequence(sid, list(events), ts, ANOM)


class TestSummarize:
    def test_cross_class_overlap_one_each_side(self):
        summary = summarize([nseq([1, 2]), aseq([1, 2])])
        assert summary.cross_class_sequences.normal == 1
        assert summary.cross_class_sequences.anomalous == 1
        assert summary.cross_class_count_vectors.normal == 1
        assert summary.cross_class_count_vectors.anomalous == 1

    def test_all_distinct_no_overlap(self):
        summary = summarize([nseq([1]), nseq([2]), aseq([3])])
        assert summary.unique_sequences.total == summary.sequences.total == 3
        assert summary.cross_class_sequences.normal == 0
        assert summary.cross_class_sequences.anomalous == 0

    def test_counts_and_classes(self):
        seqs = [nseq([1, 2, 2]), nseq([1, 2, 2]), aseq([9, 1])]
        summary = summarize(seqs)
        assert summary.sequences.total == 3
        assert summary.sequences.normal == 2
        assert summary.sequences.anomalous == 1
        assert summary.events.total == 8
        assert summary.events.normal == 6
        assert summary.event_types.total == 3  # {1, 2, 9}
        assert summary.event_types.anomalous == 2
        assert summary.unique_sequences.normal == 1
        assert summary.unique_count_vectors.normal == 1

    def test_cross_class_counts_instances_not_patterns(self):
        seqs = [nseq([1, 2]), nseq([1, 2]), nseq([3]), aseq([1, 2])]
        summary = summarize(seqs)
        assert summary.cross_class_sequences.normal == 2
        assert summary.cross_class_sequences.anomalous == 1

    def test_count_vector_overlap_catches_permutations(self):
        seqs = [nseq([1, 2, 3]), aseq([3, 2, 1])]
        summary = summarize(seqs)
        assert summary.cross_class_sequences.normal == 0
        assert summary.cross_class_count_vectors.normal == 1

    def test_label_swap_symmetry(self):
        seqs = [nseq([1, 2], sid="s1"), nseq([5], sid="s2"), aseq([1, 2], sid="s3"), aseq([7, 7], sid="s4")]
        forward = summarize(seqs)
        swapped_seqs = [
            Sequence(s.seq_id, s.events, s.timestamps, ANOM if not s.label.anomalous else NORMAL)
            for s in seqs
        ]
        backward = summarize(swapped_seqs)
        assert forward.sequences.normal == backward.sequences.anomalous
        assert forward.unique_sequences.normal == backward.unique_sequences.anomalous
        assert forward.cross_class_sequences.normal == backward.cross_class_sequences.anomalous
        assert forward.events.normal == backward.events.anomalous

    def test_order_invariance(self):
        seqs = [nseq([1, 2], sid="s1"), aseq([9], sid="s2"), nseq([3], sid="s3")]
        assert summarize(seqs) == summarize(list(reversed(seqs)))

    def test_unlabeled_rejected(self):
        """Every public report refuses a store with an unlabeled sequence, naming the first one."""
        seqs = [nseq([1], ts=[0.0]), Sequence("u", [1, 2], [0.0, 1.0]), Sequence("v", [2])]
        reports = [
            summarize, event_frequency_dist, length_dist, lambda s: top_sequences(s, 3), interarrival_dist,
            lambda s: interarrival_dist(s, by_pair=True), lambda s: report_files(s, 3),
        ]
        for report in reports:
            with pytest.raises(ValidationError, match=r"^sequence u is unlabeled$"):
                report(seqs)

    def test_negative_top_k_is_reported_before_an_unlabeled_sequence(self):
        seqs = [Sequence("u", [1])]
        for report in (lambda: top_sequences(seqs, -1), lambda: report_files(seqs, -1)):
            with pytest.raises(ValidationError, match=r"^top-k must be >= 0$"):
                report()

    def test_distinct_anomaly_tags(self):
        seqs = [aseq([1], sid="a1"), Sequence("a2", [2], None, Label(True, "other")), nseq([3])]
        assert summarize(seqs).distinct_anomaly_tags == 2

    def test_rendered_lines_carry_denominators(self):
        lines = summary_lines(summarize([nseq([1, 2]), aseq([2])]))
        joined = "\n".join(lines)
        assert "of 2 sequences" in joined
        assert "%" in joined


class TestEventFrequencies:
    def test_per_class_counts(self):
        rows = event_frequency_dist([nseq([1, 1]), aseq([2])])
        assert rows == [(1, 2, 0), (2, 0, 1)] or rows == [(2, 0, 1), (1, 2, 0)]
        # sorted ascending by normal-class frequency
        assert rows[0] == (2, 0, 1)

    def test_symmetric_classes_identical(self):
        rows = event_frequency_dist([nseq([1, 2]), aseq([1, 2])])
        assert [(e, n) for e, n, _ in rows] == [(e, a) for e, _, a in rows]

    def test_event_frequency_sum_matches_event_count(self):
        seqs = [nseq([1, 2, 2, 3]), aseq([2, 9])]
        rows = event_frequency_dist(seqs)
        assert sum(n for _, n, _ in rows) == 4
        assert sum(a for _, _, a in rows) == 2


class TestLengthDist:
    def test_single_sequence_single_bin(self):
        assert length_dist([nseq([1, 2, 3])]) == [(3, 1, 0)]

    def test_same_lengths_identical_histograms(self):
        rows = length_dist([nseq([1, 2]), aseq([3, 4])])
        assert rows == [(2, 1, 1)]

    def test_short_anomaly_profile(self):
        seqs = [nseq(range(13)), nseq(range(15)), aseq([1, 2]), aseq([1, 2, 3])]
        rows = dict((l, (n, a)) for l, n, a in length_dist(seqs))
        assert rows[2] == (0, 1)
        assert rows[13] == (1, 0)


class TestTopSequences:
    def test_descending_with_lexicographic_ties(self):
        seqs = [nseq([1, 2]), nseq([1, 2]), nseq([1, 1]), nseq([2, 1]), aseq([9])]
        top = top_sequences(seqs, 3)
        assert top["normal"][0] == (2, (1, 2))
        assert top["normal"][1] == (1, (1, 1))
        assert top["normal"][2] == (1, (2, 1))
        assert top["anomalous"] == [(1, (9,))]

    def test_k_zero_empty(self):
        top = top_sequences([nseq([1]), aseq([2])], 0)
        assert top == {"normal": [], "anomalous": []}


class TestInterarrival:
    def test_constant_spacing(self):
        s = nseq([1, 2, 3], ts=[0.0, 2.0, 4.0])
        report = interarrival_dist([s, aseq([1], ts=[0.0])])
        assert report["normal"].minimum == report["normal"].median == report["normal"].maximum == 2.0

    def test_hand_computed_median(self):
        s = nseq([1, 2, 3], ts=[0.0, 2.0, 7.0])
        report = interarrival_dist([s, aseq([5], ts=[1.0])])
        assert report["normal"].median == pytest.approx(3.5)
        assert report["normal"].minimum == 2.0
        assert report["normal"].maximum == 5.0

    def test_timestampless_dataset_empty_report(self):
        assert interarrival_dist([nseq([1, 2]), aseq([3])]) == {}

    def test_by_pair_keying(self):
        s = nseq([1, 2, 1, 2], ts=[0.0, 1.0, 5.0, 9.0])
        report = interarrival_dist([s, aseq([1], ts=[0.0])], by_pair=True)
        assert report["normal"][(1, 2)].minimum == 1.0
        assert report["normal"][(1, 2)].maximum == 4.0
        assert report["normal"][(2, 1)].count == 1

    def test_five_number_quartiles_linear_interpolation(self):
        stats = five_number([1.0, 2.0, 3.0, 4.0])
        assert stats.q1 == pytest.approx(1.75)
        assert stats.q3 == pytest.approx(3.25)
        assert five_number([]) is None
        single = five_number([7.0])
        assert single.q1 == single.median == single.q3 == 7.0


@given(
    st.lists(
        st.tuples(
            st.booleans(),
            st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_per_class_event_totals_match(data):
    seqs = [
        Sequence(f"s{i}", events, None, Label(anom)) for i, (anom, events) in enumerate(data)
    ]
    summary = summarize(seqs)
    rows = event_frequency_dist(seqs)
    assert sum(n for _, n, _ in rows) == summary.events.normal
    assert sum(a for _, _, a in rows) == summary.events.anomalous


@st.composite
def labeled_stores(draw):
    """Sequences drawn from a few tuples: permutations of one multiset, the empty tuple and a few others.

    Each draw is repeated up to four times, and few tuples give tuples in
    both classes; a store may hold one class only.
    """
    base = draw(st.lists(st.integers(1, 4), max_size=5))
    pool = [base, []] + draw(st.lists(st.permutations(base), max_size=3))
    pool += draw(st.lists(st.lists(st.integers(1, 6), max_size=6), max_size=3))
    classes = draw(st.sampled_from([(False, True), (False,), (True,)]))
    picks = st.tuples(st.sampled_from(pool), st.sampled_from(classes), st.sampled_from("xy"), st.integers(1, 4))
    labeled = [
        (events, Label(True, tag) if anomalous else NORMAL)
        for events, anomalous, tag, repeats in draw(st.lists(picks, max_size=12))
        for _ in range(repeats)
    ]
    return [Sequence(f"s{i}", list(events), None, label) for i, (events, label) in enumerate(labeled)]


@given(labeled_stores(), st.integers(min_value=0, max_value=5))
def test_count_reports_match_per_sequence_oracles(seqs, k):
    assert summarize(seqs) == summarize_naive(seqs)
    assert event_frequency_dist(seqs) == event_frequency_naive(seqs)
    assert length_dist(seqs) == length_dist_naive(seqs)
    assert list(top_sequences(seqs, k).items()) == list(top_sequences_naive(seqs, k).items())
