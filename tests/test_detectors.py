from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, strategies as st

from logbench.detectors import (
    CountVectorDetector,
    EditDistanceDetector,
    EventTimingDetector,
    NGramDetector,
    NewEventTypeDetector,
    PAD_EVENT,
    SequenceLengthDetector,
    levenshtein,
    make_detector,
)
from logbench.errors import DetectorNotApplicable, ValidationError
from logbench.evaluation import THRESHOLD_GRID, EvalConfig, evaluate_study, split
from logbench.ingest import NORMAL, Label
from logbench.sequencing import Sequence

from oracles import ecvc_score_naive, levenshtein_recursive, ngram_mismatches_naive


def seq(events, ts=None, sid="s"):
    return Sequence(sid, list(events), list(ts) if ts is not None else None)


class TestNewEvents:
    def test_union_of_training_types(self):
        det = NewEventTypeDetector().fit([seq([1, 2]), seq([2, 3])])
        assert det.known_events == {1, 2, 3}

    def test_duplicate_training_idempotent(self):
        a = NewEventTypeDetector().fit([seq([1, 2]), seq([1, 2]), seq([2, 3])])
        b = NewEventTypeDetector().fit([seq([1, 2]), seq([2, 3])])
        assert a.known_events == b.known_events

    def test_known_sequence_not_flagged(self):
        det = NewEventTypeDetector().fit([seq([1, 2, 3])])
        assert det.score(seq([1, 2])) == 0.0

    def test_unknown_event_flagged(self):
        det = NewEventTypeDetector().fit([seq([1, 2, 3])])
        assert det.score(seq([1, 99])) == 1.0

    def test_self_consistency_on_training_data(self):
        train = [seq([1, 2, 7]), seq([3])]
        det = NewEventTypeDetector().fit(train)
        assert all(det.score(s) == 0.0 for s in train)

    def test_empty_training_rejected(self):
        with pytest.raises(ValidationError):
            NewEventTypeDetector().fit([])


class TestLengths:
    def test_short_sequence_flagged(self):
        det = SequenceLengthDetector().fit([seq(range(13)), seq(range(20))])
        assert det.min_len == 13
        assert det.score(seq([1, 2])) == 1.0

    def test_inside_bounds_not_flagged(self):
        det = SequenceLengthDetector().fit([seq(range(5)), seq(range(9))])
        assert det.score(seq(range(7))) == 0.0

    def test_bounds_inclusive(self):
        det = SequenceLengthDetector().fit([seq(range(5)), seq(range(9))])
        assert det.score(seq(range(5))) == 0.0
        assert det.score(seq(range(9))) == 0.0
        assert det.score(seq(range(4))) == 1.0
        assert det.score(seq(range(10))) == 1.0

    def test_trained_and_tested_identical_flags_nothing(self):
        train = [seq(range(n)) for n in (3, 5, 8)]
        det = SequenceLengthDetector().fit(train)
        assert all(det.score(s) == 0.0 for s in train)


class TestEcvc:
    def test_bank_from_single_sequence(self):
        det = CountVectorDetector().fit([seq([1, 1, 2])])
        assert det.bank == [{1: 2, 2: 1}]

    def test_identical_vectors_score_zero(self):
        det = CountVectorDetector().fit([seq([5, 22, 5])])
        assert det.score(seq([5, 5, 22])) == 0.0

    def test_disjoint_supports_score_one(self):
        det = CountVectorDetector().fit([seq([2])])
        assert det.score(seq([1])) == 1.0

    def test_normalized_distance_example(self):
        det = CountVectorDetector().fit([seq([5, 5, 5, 22, 7])])
        score = det.score(seq([5, 5, 5, 22]))
        assert score == pytest.approx(1 / 9)

    def test_idf_weight_event_in_every_sequence_is_zero(self):
        det = CountVectorDetector(idf=True).fit([seq([1, 2]), seq([1, 3])])
        assert det.weights[1] == pytest.approx(0.0)

    def test_idf_weight_rare_event(self):
        train = [seq([1, 9]), seq([1]), seq([1]), seq([1])]
        det = CountVectorDetector(idf=True).fit(train)
        assert det.weights[9] == pytest.approx(math.log(4), abs=1e-9)
        assert det.weights[9] == pytest.approx(1.386, abs=1e-3)

    def test_idf_unseen_event_weight(self):
        det = CountVectorDetector(idf=True).fit([seq([1])] * 4)
        assert det.default_weight == pytest.approx(math.log(4) + 1)
        # unseen events must not vanish from the distance
        assert det.score(seq([1, 99])) > 0.0

    def test_len_norm_knob(self):
        det = CountVectorDetector(norm="len").fit([seq([1, 1, 1])])
        # L1 = 2, max total = 3
        assert det.score(seq([1])) == pytest.approx(2 / 3)

    def test_oracle_equivalence_random_banks(self):
        rng = random.Random(5)
        for idf in (False, True):
            for _ in range(20):
                train = [
                    seq([rng.randint(1, 6) for _ in range(rng.randint(1, 12))])
                    for _ in range(rng.randint(1, 50))
                ]
                det = CountVectorDetector(idf=idf).fit(train)
                probe = seq([rng.randint(1, 8) for _ in range(rng.randint(0, 12))])
                from collections import Counter

                expected = ecvc_score_naive(
                    Counter(probe.events),
                    [Counter(t.events) for t in train],
                    det.weights if idf else None,
                    det.default_weight,
                )
                assert det.score(probe) == pytest.approx(expected, abs=1e-12)

    def test_both_empty_score_zero(self):
        det = CountVectorDetector().fit([seq([])])
        assert det.score(seq([])) == 0.0


@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=10),
    st.randoms(),
)
def test_ecvc_permutation_invariant(events, rng):
    det = CountVectorDetector().fit([seq([1, 2, 3]), seq([2, 2, 4])])
    permuted = list(events)
    rng.shuffle(permuted)
    assert det.score(seq(events)) == det.score(seq(permuted))


class TestNGrams:
    def test_training_windows(self):
        det = NGramDetector(2).fit([seq([1, 2, 3])])
        assert det.ngrams == {(1, 2), (2, 3)}

    def test_short_sequence_start_padded(self):
        det = NGramDetector(2).fit([seq([1])])
        assert det.ngrams == {(PAD_EVENT, 1)}

    def test_end_pad_flag(self):
        det = NGramDetector(2, pad_side="end").fit([seq([1])])
        assert det.ngrams == {(1, PAD_EVENT)}

    def test_all_windows_known_scores_zero(self):
        det = NGramDetector(2).fit([seq([1, 2, 3])])
        assert det.score(seq([1, 2, 3])) == 0.0

    def test_half_mismatch_example(self):
        det = NGramDetector(2, normalization="per-sequence").fit([seq([1, 2])])
        assert det.score(seq([1, 2, 3])) == pytest.approx(0.5)

    def test_study_window_sizes_constructable(self):
        for n in (2, 3, 10):
            assert make_detector(f"ngram{n}").n == n

    def test_global_max_squashes_other_scores(self):
        det = NGramDetector(2).fit([seq([1, 2])])
        batch = [seq([1, 2] + [9] * 100, sid="huge"), seq([1, 3], sid="small"), seq([1, 2], sid="clean")]
        scores = det.score_batch(batch)
        assert scores[0] == 1.0
        assert 0 < scores[1] < 0.05
        assert scores[2] == 0.0

    def test_global_max_all_clean(self):
        det = NGramDetector(2).fit([seq([1, 2])])
        assert det.score_batch([seq([1, 2]), seq([1, 2])]) == [0.0, 0.0]

    def test_mismatch_oracle_random(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.choice((2, 3))
            train = [seq([rng.randint(1, 4) for _ in range(rng.randint(1, 15))]) for _ in range(5)]
            det = NGramDetector(n).fit(train)
            probe = [rng.randint(1, 5) for _ in range(rng.randint(0, 15))]
            assert det.mismatches(seq(probe)) == ngram_mismatches_naive(probe, det.ngrams, n)

    def test_zero_n_rejected(self):
        with pytest.raises(ValidationError):
            NGramDetector(0)


class TestEdit:
    def test_member_of_bank_scores_zero(self):
        det = EditDistanceDetector().fit([seq([1, 2, 3])])
        assert det.score(seq([1, 2, 3])) == 0.0

    def test_single_deletion_example(self):
        det = EditDistanceDetector().fit([seq([1, 3])])
        assert det.score(seq([1, 2, 3])) == pytest.approx(1 / 3)

    def test_disjoint_equal_length_scores_one(self):
        det = EditDistanceDetector().fit([seq([1, 1, 1, 1])])
        assert det.score(seq([2, 2, 2, 2])) == 1.0

    def test_not_permutation_invariant_witness(self):
        det = EditDistanceDetector().fit([seq([1, 2])])
        assert det.score(seq([1, 2])) == 0.0
        assert det.score(seq([2, 1])) == 1.0

    def test_min_over_bank(self):
        det = EditDistanceDetector().fit([seq([1, 2, 3, 4]), seq([9, 9])])
        assert det.score(seq([9, 8])) == pytest.approx(0.5)

    def test_pruning_matches_bruteforce(self):
        rng = random.Random(3)
        train = [
            seq([rng.randint(1, 3) for _ in range(rng.randint(1, 9))]) for _ in range(40)
        ]
        det = EditDistanceDetector().fit(train)
        for _ in range(60):
            probe = [rng.randint(1, 4) for _ in range(rng.randint(0, 9))]
            brute = min(
                levenshtein_recursive(tuple(probe), tuple(t.events))
                / max(len(probe), len(t.events), 1)
                for t in train
            )
            assert det.score(seq(probe)) == pytest.approx(min(brute, 1.0), abs=1e-12)


class TestLevenshtein:
    def test_known_values(self):
        assert levenshtein([1, 2, 3], [1, 3]) == 1
        assert levenshtein([], [1, 2]) == 2
        assert levenshtein([1, 2], [1, 2]) == 0
        assert levenshtein([1, 2], [2, 1]) == 2

    def test_cutoff_short_circuits(self):
        assert levenshtein([1] * 10, [2] * 10, cutoff=3) == 4
        assert levenshtein([1] * 10, [], cutoff=3) == 4

    def test_cutoff_exact_when_within(self):
        assert levenshtein([1, 2, 3], [1, 3], cutoff=2) == 1

    @given(
        st.lists(st.integers(min_value=1, max_value=3), max_size=6),
        st.lists(st.integers(min_value=1, max_value=3), max_size=6),
    )
    def test_matches_recursive_oracle(self, a, b):
        assert levenshtein(a, b) == levenshtein_recursive(tuple(a), tuple(b))


class TestTiming:
    def test_singleton_range(self):
        det = EventTimingDetector().fit([seq([1, 2], ts=[0.0, 3.0])])
        assert det.ranges[(1, 2)] == (3.0, 3.0)

    def test_min_max_over_occurrences(self):
        train = [
            seq([1, 2], ts=[0.0, 2.0]),
            seq([1, 2], ts=[0.0, 5.0]),
            seq([1, 2], ts=[0.0, 4.0]),
        ]
        det = EventTimingDetector().fit(train)
        assert det.ranges[(1, 2)] == (2.0, 5.0)

    def test_vm_start_style_range(self):
        train = [seq([3, 22], ts=[0.0, dt]) for dt in (12.0, 13.5, 15.0)]
        det = EventTimingDetector().fit(train)
        assert det.ranges[(3, 22)] == (12.0, 15.0)

    def test_inside_range_scores_zero(self):
        det = EventTimingDetector().fit([seq([1, 2, 3], ts=[0.0, 10.0, 30.0])])
        assert det.score(seq([1, 2, 3], ts=[0.0, 10.0, 30.0])) == 0.0

    def test_relative_deviation_example(self):
        det = EventTimingDetector()
        det.fit([seq([1, 2], ts=[0.0, 10.0]), seq([1, 2], ts=[0.0, 20.0])])
        assert det.score(seq([1, 2], ts=[0.0, 30.0])) == pytest.approx(0.5)

    def test_boundary_inclusive(self):
        det = EventTimingDetector()
        det.fit([seq([1, 2], ts=[0.0, 10.0]), seq([1, 2], ts=[0.0, 20.0])])
        assert det.score(seq([1, 2], ts=[0.0, 20.0])) == 0.0
        assert det.score(seq([1, 2], ts=[0.0, 10.0])) == 0.0

    def test_unseen_pair_contributes_nothing(self):
        det = EventTimingDetector().fit([seq([1, 2], ts=[0.0, 1.0])])
        assert det.score(seq([7, 8], ts=[0.0, 500.0])) == 0.0

    def test_score_clamped_to_one(self):
        det = EventTimingDetector().fit([seq([1, 2], ts=[0.0, 1.0])])
        assert det.score(seq([1, 2], ts=[0.0, 1000.0])) == 1.0

    def test_zero_boundary_epsilon_guard(self):
        det = EventTimingDetector().fit([seq([1, 2], ts=[5.0, 5.0])])
        assert det.score(seq([1, 2], ts=[0.0, 2.0])) == 1.0

    def test_negative_delta_clamped_and_tallied(self):
        det = EventTimingDetector().fit([seq([1, 2], ts=[0.0, 1.0])])
        det.score(seq([1, 2], ts=[10.0, 4.0]))
        assert det.negative_deltas == 1

    def test_not_applicable_without_timestamps(self):
        with pytest.raises(DetectorNotApplicable):
            EventTimingDetector().fit([seq([1, 2])])

    def test_missing_timestamps_in_test_sequence(self):
        det = EventTimingDetector().fit([seq([1, 2], ts=[0.0, 1.0])])
        assert det.score(seq([1, 2])) == 0.0
        assert det.score(seq([1, 2], ts=[None, 1.0])) == 0.0


def study_row(spec):
    """Evaluate one OR-combination row for one run.

    Returns its outcome, its run-0 scores by seq_id, and the run's training
    and test sets. Any two of the three normals include a length-3 [1, 2, 3].
    """
    normals = [[1, 2, 3], [1, 2, 3, 3], [1, 2, 3]]
    anomalies = [[1, 99, 3], [1, 2, 3, 3, 3], [1, 3, 2]]
    seqs = [Sequence(f"n{i}", e, label=NORMAL) for i, e in enumerate(normals)]
    seqs += [Sequence(f"a{i}", e, label=Label(True)) for i, e in enumerate(anomalies)]
    config = EvalConfig(train_fraction=0.67, repetitions=1)
    report = evaluate_study(seqs, config, [spec], dump_run0_scores=True)
    (outcome,) = report.outcomes
    scores = {sid: score for sid, score, _, _ in report.score_dump[outcome.detector]}
    train, test = split(seqs, config, 0)
    return outcome, scores, train, test


def fitted_members(spec, train):
    return [make_detector(part).fit(train) for part in spec.split("+")]


class TestCombination:
    def test_flag_only_row_is_or_of_member_flags(self):
        outcome, scores, train, test = study_row("event+length")
        members = fitted_members("event+length", train)
        for s in test:
            assert (scores[s.seq_id] > 0.5) == any(m.score(s) > 0.5 for m in members)
        assert scores["a0"] == 1.0 and scores["a1"] == 1.0  # new event; too long
        assert scores["a2"] == 0.0

    def test_named_preset_parses(self):
        outcome, _, _, _ = study_row("event+length+ecvc")
        assert outcome.detector == "event+length+ecvc"
        assert [r.threshold for r in outcome.results] == list(THRESHOLD_GRID)  # thresholded

    def test_flag_only_combination_not_thresholded(self):
        outcome, _, _, _ = study_row("event+length")
        assert [r.threshold for r in outcome.results] == [None]

    def test_combined_score_is_member_max(self):
        _, scores, _, _ = study_row("event+length+ecvc")
        assert scores["a0"] == 1.0  # new event forces a flag
        assert scores["a1"] == 1.0  # length 5 > trained max 4 or 3
        assert scores["a2"] < 1.0

    def test_batch_combination_matches_scalar(self):
        _, scores, train, test = study_row("length+ecvc")
        members = fitted_members("length+ecvc", train)
        assert scores == {s.seq_id: max(m.score(s) for m in members) for s in test}

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            make_detector("quantum")

    def test_alias_names(self):
        assert make_detector("2-gram").n == 2
        assert make_detector("ecvc(idf)").idf is True


@given(
    st.lists(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=8),
        min_size=1,
        max_size=6,
    ),
    st.lists(st.integers(min_value=1, max_value=9), max_size=10),
)
def test_all_scores_in_unit_interval(train_events, probe):
    train = [seq(e) for e in train_events]
    probe_seq = seq(probe)
    for name in ("event", "length", "ecvc", "ecvc-idf", "ngram2", "edit"):
        det = make_detector(name)
        det.fit(train)
        score = det.score(probe_seq)
        assert 0.0 <= score <= 1.0


def test_flag_monotone_in_threshold():
    det = CountVectorDetector().fit([seq([1, 2, 3])])
    score = det.score(seq([1, 2, 4]))
    flags = [score > t / 100 for t in range(101)]
    assert all(a or not b for a, b in zip(flags, flags[1:]))
