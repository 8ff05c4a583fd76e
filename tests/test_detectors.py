from __future__ import annotations

import copy
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from logbench import detectors
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
from logbench.events import NORMAL, Label
from logbench.sequencing import Sequence, to_count_vector

from oracles import (
    ecvc_score_bruteforce,
    ecvc_score_naive,
    levenshtein_dp,
    levenshtein_recursive,
    ngram_mismatches_naive,
)


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
        for idf, norm in [(False, "mass"), (True, "mass"), (False, "len"), (True, "len")]:
            for _ in range(20):
                train = [
                    seq([rng.randint(1, 6) for _ in range(rng.randint(1, 12))])
                    for _ in range(rng.randint(1, 50))
                ]
                det = CountVectorDetector(idf=idf, norm=norm).fit(train)
                probe = seq([rng.randint(1, 8) for _ in range(rng.randint(0, 12))])
                expected = ecvc_score_naive(
                    Counter(probe.events),
                    [Counter(t.events) for t in train],
                    det.weights if idf else None,
                    det.default_weight,
                    norm=norm,
                )
                assert det.score(probe) == pytest.approx(expected, abs=1e-12)

    def test_both_empty_score_zero(self):
        det = CountVectorDetector().fit([seq([])])
        assert det.score(seq([])) == 0.0

    def test_index_built_at_fit(self):
        det = CountVectorDetector(idf=True).fit([seq([1, 1, 2]), seq([2, 3]), seq([2, 1, 1])])
        assert det.postings == {1: [(0, 2)], 2: [(0, 1), (1, 1)], 3: [(1, 1)]}
        assert det.lengths == [3, 2]
        assert det.masses == [2 * det.weights[1], det.weights[3]]

    @pytest.mark.parametrize("norm", ["mass", "len"])
    def test_empty_probe(self, norm):
        without_empty = CountVectorDetector(norm=norm).fit([seq([1]), seq([2, 2])])
        assert without_empty.score(seq([])) == 1.0
        for idf in (False, True):
            with_empty = CountVectorDetector(idf=idf, norm=norm).fit([seq([1]), seq([])])
            assert with_empty.score(seq([])) == 0.0

    @pytest.mark.parametrize(
        "norm, train, probe",
        [
            (
                "mass",
                [[1, 1, 1, 2, 2, 3, 3, 3], [3, 1, 1, 2], [2, 3, 3, 3], [1, 1, 1, 2, 2, 2]],
                [3, 1, 2, 1, 1, 1, 1],
            ),
            (
                "len",
                [
                    [3, 4, 5, 5, 2, 2, 1],
                    [4, 4, 2, 2, 2, 6, 6, 6, 5],
                    [5, 5, 5, 1, 1, 4, 4, 3, 3, 3, 2, 2, 2],
                    [4, 4, 4],
                    [1, 1],
                    [1, 1, 6],
                    [5, 5, 5, 2, 2, 6, 6, 3, 3, 1, 1, 4, 4],
                    [5, 5, 5, 3, 1],
                ],
                [1, 3, 2, 1, 6, 1, 3, 3, 7, 4],
            ),
        ],
    )
    def test_idf_rescores_near_ties(self, norm, train, probe):
        # the approximate minimum sits on a bank vector whose exact distance
        # is one ulp above another's, so only re-scoring near ties is exact
        det = CountVectorDetector(idf=True, norm=norm).fit([seq(t) for t in train])
        assert det.score(seq(probe)).hex() == ecvc_score_bruteforce(det, Counter(probe)).hex()

    @pytest.mark.parametrize("idf", [False, True])
    def test_batch_searches_once_per_distinct_count_vector(self, idf):
        det = CountVectorDetector(idf=idf).fit([seq([1, 2]), seq([2, 3, 3])])
        searched = []
        search = det._nearest
        det._nearest = lambda cv: searched.append(dict(cv)) or search(cv)
        batch = [seq(t) for t in ([1, 2, 2], [2, 1, 2], [3], [2, 2, 1], [3], [], [])]
        scores = det.score_batch(batch)
        assert searched == [{1: 1, 2: 2}, {3: 1}, {}]
        # nothing is kept between batches
        assert det.score_batch(batch[:1]) == scores[:1]
        assert len(searched) == 4
        assert scores == [search(to_count_vector(s)) for s in batch]

    def test_idf_len_norm_disjoint_vectors_score_below_one(self):
        # an idf-weighted numerator over an unweighted length: both weights are log 2
        det = CountVectorDetector(idf=True, norm="len").fit([seq([1]), seq([2, 2])])
        assert det.weights == {1: math.log(2), 2: math.log(2)}
        assert det.score(seq([])) == math.log(2)
        assert det.score_batch([seq([])]) == [math.log(2)]
        mass = CountVectorDetector(idf=True).fit([seq([1]), seq([2, 2])])
        assert mass.score(seq([])) == 1.0

    def test_zero_mass_pair_scores_zero(self):
        # event 1 is in every training sequence, so its idf weight is 0
        det = CountVectorDetector(idf=True).fit([seq([1]), seq([1, 2])])
        assert det.weights[1] == 0.0
        assert det.score(seq([1, 1, 1])) == 0.0


@st.composite
def ecvc_cases(draw):
    """A training bank and probes that reach the index's edge cases.

    A shared event in every training sequence has idf weight 0 (sequences
    of it alone have zero mass); duplicated sequences repeat bank vectors;
    probes may be empty, singletons, or hold events unseen in training.
    """
    n_events = draw(st.integers(min_value=1, max_value=8))
    events = st.integers(min_value=1, max_value=n_events)
    train = draw(st.lists(st.lists(events, max_size=12), min_size=1, max_size=25))
    if draw(st.booleans()):
        train = [t + [0] * draw(st.integers(min_value=1, max_value=2)) for t in train]
    if draw(st.booleans()):
        train += draw(st.lists(st.sampled_from(train), max_size=10))
    probe_events = st.integers(min_value=0, max_value=n_events + 3)
    probes = draw(
        st.lists(
            st.one_of(
                st.lists(probe_events, max_size=12),
                st.lists(probe_events, min_size=1, max_size=1),
                st.lists(st.just(0), max_size=3),
                st.sampled_from(train),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return train, probes


@settings(max_examples=300, deadline=None)
@given(ecvc_cases())
def test_ecvc_index_equals_bruteforce_bitwise(case):
    train, probes = case
    for idf in (False, True):
        for norm in ("mass", "len"):
            det = CountVectorDetector(idf=idf, norm=norm).fit([seq(t) for t in train])
            scores = det.score_batch([seq(p) for p in probes])
            expected = [ecvc_score_bruteforce(det, Counter(p)) for p in probes]
            assert [s.hex() for s in scores] == [e.hex() for e in expected], (idf, norm)


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

    @pytest.mark.parametrize("normalization", ["per-sequence", "global-max"])
    def test_score_is_a_batch_of_one(self, normalization):
        det = NGramDetector(2, normalization=normalization).fit([seq([1, 2, 3])])
        for events in ([1, 2, 3], [1, 2, 9], [9, 9, 9, 9], [1], []):
            probe = seq(events)
            assert det.score(probe) == det.score_batch([probe])[0]
        want = 1.0 if normalization == "global-max" else 0.5
        assert det.score(seq([1, 2, 9])) == want

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

    @given(
        st.lists(st.integers(min_value=1, max_value=3), max_size=6),
        st.lists(st.integers(min_value=1, max_value=3), max_size=6),
    )
    def test_matches_recursive_oracle(self, a, b):
        assert levenshtein(a, b) == levenshtein_recursive(tuple(a), tuple(b))


def _mutated(rng, events, alphabet, edits):
    """`events` after `edits` random replacements, insertions and deletions."""
    out = list(events)
    for _ in range(edits):
        op = rng.randrange(3)
        if op == 0 and out:
            out[rng.randrange(len(out))] = rng.randint(1, alphabet)
        elif op == 1:
            out.insert(rng.randint(0, len(out)), rng.randint(1, alphabet))
        elif out:
            del out[rng.randrange(len(out))]
    return out


#: Pattern lengths on both sides of the 64- and 128-bit word boundaries.
_WORD_EDGES = (0, 1, 2, 63, 64, 65, 127, 128, 129, 200, 400)

#: Pattern lengths on both sides of a packed `edit` block, and one over two blocks.
_BLOCK_EDGES = (1023, 1024, 1025, 2100)


@st.composite
def _kernel_case(draw):
    """Two event sequences of length 0-400 over 1-40 event ids."""
    alphabet = draw(st.integers(min_value=1, max_value=40))
    event = st.integers(min_value=1, max_value=alphabet)
    length = st.integers(min_value=0, max_value=400)
    size = draw(length)
    a = draw(st.lists(event, min_size=size, max_size=size))
    if draw(st.booleans()):
        size = draw(length)
        b = draw(st.lists(event, min_size=size, max_size=size))
    else:  # a few edits away
        rng = draw(st.randoms(use_true_random=False))
        b = _mutated(rng, a, alphabet, draw(st.integers(min_value=0, max_value=12)))
    return a, b


class TestLevenshteinKernel:
    """`levenshtein`, the packed `edit` scan over one lane, against the O(mn) DP."""

    @settings(max_examples=100, deadline=None)
    @given(_kernel_case())
    def test_matches_dp_oracle(self, case):
        a, b = case
        want = levenshtein_dp(a, b)
        assert levenshtein(a, b) == want
        assert levenshtein(b, a) == want

    @staticmethod
    def _check_pairs(pairs, rng):
        """Random sequences of each length pair; equal lengths get a mutant a few edits away."""
        for m, n in pairs:
            alphabet = rng.choice((1, 2, 5, 40))
            a = [rng.randint(1, alphabet) for _ in range(m)]
            if m == n:
                b = _mutated(rng, a, alphabet, rng.randint(0, 6))
            else:
                b = [rng.randint(1, alphabet) for _ in range(n)]
            want = levenshtein_dp(a, b)
            assert levenshtein(a, b) == want, (m, n)
            assert levenshtein(b, a) == want, (m, n)

    def test_word_boundary_lengths(self):
        self._check_pairs([(m, n) for m in _WORD_EDGES for n in _WORD_EDGES], random.Random(64))

    def test_block_boundary_lengths(self):
        """A one-lane block longer than `EDIT_BLOCK_BITS` is scanned like any other."""
        pairs = [(m, n) for m in _BLOCK_EDGES for n in (0, 1, 65, m)] + [(1023, 1025), (1024, 2100)]
        self._check_pairs(pairs, random.Random(1024))


class TestEditKernelCalls:
    def test_long_tailed_bank_matches_bruteforce(self):
        rng = random.Random(1)
        bank = []
        for _ in range(24):
            length = min(300, int(rng.paretovariate(0.8) * 8))
            bank.append([rng.randint(1, 8) for _ in range(length)])
        train = [seq(events) for events in bank]
        det = EditDistanceDetector().fit(train)
        probes = [_mutated(rng, rng.choice(bank), 9, rng.randint(1, 15)) for _ in range(12)]
        probes += [[rng.randint(1, 9) for _ in range(rng.randint(0, 120))] for _ in range(4)]
        for probe in probes:
            brute = min(
                levenshtein_dp(probe, events) / max(len(probe), len(events), 1) for events in bank
            )
            assert det.score(seq(probe)) == pytest.approx(min(brute, 1.0), abs=1e-12)

    def test_length_bound_skips_far_blocks(self, monkeypatch):
        monkeypatch.setattr(detectors, "EDIT_BLOCK_BITS", 10)
        det = EditDistanceDetector().fit([seq([1, 2, 3, 4]), seq([1, 2, 5, 4]), seq([7] * 9)])
        # two 4-event lanes and their zero bits fill a 10-bit block
        assert [[m for _, _, m in block[5]] for block in det.blocks] == [[4, 4], [9]]
        reads = []

        def watched(index, table):
            class Watched(dict):
                def get(self, event, default=None):
                    reads.append(index)
                    return dict.get(self, event, default)

            return Watched(table)

        det.blocks = [
            block[:2] + (watched(i, block[2]),) + block[3:] for i, block in enumerate(det.blocks)
        ]
        assert det.score(seq([1, 2, 6, 4])) == 0.25
        # the 9-event block's length bound 5/9 is not below 1/4: never scanned
        assert reads == [0] * 4
        reads.clear()
        assert det.score(seq([7] * 8)) == 1 / 9
        # the nearer 9-event block goes first; then the 4-event block's bound 4/8 >= 1/9
        assert reads == [1] * 8


@st.composite
def _edit_bank_case(draw):
    """A bank of 1-12 sequences of long-tailed lengths up to 400 over 1-8 event ids,
    probes (the empty one, bank members, mutants, random ones with an unseen id)
    and a block width narrow enough for lanes longer than a block."""
    alphabet = draw(st.integers(min_value=1, max_value=8))
    length = st.one_of(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=400),
    )

    def events(top):
        size = draw(length)
        return draw(st.lists(st.integers(min_value=1, max_value=top), min_size=size, max_size=size))

    bank = [events(alphabet) for _ in range(draw(st.integers(min_value=1, max_value=12)))]
    rng = draw(st.randoms(use_true_random=False))
    probes = [[]]
    for kind in draw(st.lists(st.sampled_from(("member", "mutant", "random")), min_size=1, max_size=4)):
        if kind == "member":
            probes.append(rng.choice(bank))
        elif kind == "mutant":
            probes.append(_mutated(rng, rng.choice(bank), alphabet + 1, rng.randint(1, 6)))
        else:
            probes.append(events(alphabet + 1))
    return bank, probes, draw(st.sampled_from((8, 64, detectors.EDIT_BLOCK_BITS)))


def _nearest_normalized(probe, bank):
    return min(1.0, min(levenshtein_dp(probe, events) / max(len(probe), len(events), 1) for events in bank))


class TestEditPackedKernel:
    """The packed bank blocks against the O(mn) DP, with exact float equality."""

    @settings(max_examples=100, deadline=None)
    @given(_edit_bank_case())
    def test_matches_dp_oracle(self, case):
        bank, probes, block_bits = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(detectors, "EDIT_BLOCK_BITS", block_bits)
            det = EditDistanceDetector().fit([seq(events) for events in bank])
        for block in det.blocks:
            lanes = block[5]
            assert len(lanes) == 1 or sum(m + 1 for _, _, m in lanes) <= block_bits
        for probe in probes:
            assert det.score(seq(probe)) == _nearest_normalized(probe, bank)

    def test_lane_longer_than_a_block(self):
        rng = random.Random(1024)
        long = [rng.randint(1, 3) for _ in range(detectors.EDIT_BLOCK_BITS + 6)]
        bank = [long, [1, 2, 3], [2] * 30, []]
        det = EditDistanceDetector().fit([seq(events) for events in bank])
        assert [[m for _, _, m in block[5]] for block in det.blocks] == [[3, 30], [len(long)]]
        probes = [_mutated(rng, long, 4, 20), long[:900], [1, 2, 4], [2] * 31, []]
        for probe in probes:
            assert det.score(seq(probe)) == _nearest_normalized(probe, bank)


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
        det = EventTimingDetector().fit([seq([1, 2], ts=[0.0, 1.0]), seq([3, 4, 3], ts=[5.0, 2.0, 1.0])])
        assert det.negative_deltas == 2
        assert det.ranges[(3, 4)] == (0.0, 0.0)
        before = copy.deepcopy(vars(det))
        # dt = -6 is clamped to 0, one whole range width below lo = 1
        assert det.score(seq([1, 2], ts=[10.0, 4.0])) == 1.0
        assert det.score_batch([seq([3, 4], ts=[2.0, 1.0])]) == [0.0]
        assert vars(det) == before

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
        assert [r.threshold for r in outcome.results()] == list(THRESHOLD_GRID)  # thresholded

    def test_flag_only_combination_not_thresholded(self):
        outcome, _, _, _ = study_row("event+length")
        assert [r.threshold for r in outcome.results()] == [None]

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


@pytest.mark.parametrize(
    "name", ["event", "length", "ecvc", "ecvc-idf", "ngram2", "ngram3", "ngram10", "edit", "timing"]
)
def test_scoring_writes_no_state(name):
    """`score` and `score_batch` leave the fitted model as `fit` left it, repeats included."""
    train = [
        seq([1, 2, 3], ts=[0.0, 1.0, 3.0]),
        seq([1, 2, 2, 3], ts=[0.0, 1.0, 1.5, 2.0]),
        seq([4, 1], ts=[0.0, 5.0]),
    ]
    probes = [
        seq([1, 2, 3], ts=[0.0, 9.0, 9.5]),
        seq([3, 2, 1], ts=[0.0, 1.0, 2.0]),
        seq([1, 2, 3], ts=[0.0, 1.0, 3.0]),
        seq([1, 2, 4, 4]),
        seq([]),
        seq([3, 2, 1], ts=[0.0, 7.0, 8.0]),
    ]
    det = make_detector(name).fit(train)
    before = copy.deepcopy(vars(det))
    for probe in probes:
        det.score(probe)
    det.score_batch(probes + probes)
    assert vars(det) == before
