from __future__ import annotations

import random
from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

from logbench import complexity
from logbench.complexity import entropy_report, lz_complexity, ngram_entropy
from logbench.errors import ValidationError
from logbench.sequencing import Sequence

from oracles import entropy_bits_naive, lz_phrases_naive, ngram_counts_naive


class TestEntropy:
    def test_uniform_four_unigrams(self):
        entry = ngram_entropy([[1], [2], [3], [4]], 1)
        assert entry.total_entropy == pytest.approx(2.0, abs=1e-12)
        assert entry.normalized_entropy == pytest.approx(1.0, abs=1e-12)
        assert entry.distinct_ngrams == 4

    def test_single_repeated_gram(self):
        entry = ngram_entropy([[7, 7, 7, 7]], 1)
        assert entry.total_entropy == 0.0
        assert entry.normalized_entropy == 0.0
        assert not entry.degenerate

    def test_two_one_split_bigrams(self):
        entry = ngram_entropy([[1, 2, 1, 2]], 2)
        # grams: (1,2) x2, (2,1) x1
        assert entry.total_entropy == pytest.approx(0.9183, abs=1e-4)
        assert entry.normalized_entropy == pytest.approx(0.9183, abs=1e-4)
        assert entry.distinct_ngrams == 2

    def test_short_sequences_contribute_nothing(self):
        entry = ngram_entropy([[1], [2]], 3)
        assert entry.degenerate
        assert entry.distinct_ngrams == 0
        assert entry.total_entropy == 0.0

    def test_independent_entropy_routine(self):
        rng = random.Random(2)
        for _ in range(50):
            seqs = [
                [rng.randint(1, 5) for _ in range(rng.randint(0, 12))] for _ in range(6)
            ]
            for n in (1, 2, 3):
                entry = ngram_entropy(seqs, n)
                from collections import Counter

                counts = Counter()
                for s in seqs:
                    for i in range(len(s) - n + 1):
                        counts[tuple(s[i : i + n])] += 1
                assert entry.total_entropy == pytest.approx(
                    entropy_bits_naive(list(counts.values())), abs=1e-9
                )

    def test_report_covers_requested_ns(self):
        report = entropy_report([[1, 2, 3, 4, 5]], ns=(1, 2, 3))
        assert [e.n for e in report] == [1, 2, 3]

    def test_report_keeps_the_order_and_repeats_of_ns(self):
        seqs = [[1, 2, 3, 1, 2, 4], [2, 3], [5]]
        assert entropy_report(seqs, ns=(3, 1, 3, 2)) == [ngram_entropy(seqs, n) for n in (3, 1, 3, 2)]

    def test_sequences_accepted_directly(self):
        entry = ngram_entropy([Sequence("a", [1, 2, 1, 2])], 2)
        assert entry.distinct_ngrams == 2

    def test_invalid_n(self):
        with pytest.raises(ValidationError):
            ngram_entropy([[1]], 0)


@given(
    st.lists(
        st.lists(st.integers(min_value=1, max_value=4), max_size=8), max_size=6
    ),
    st.randoms(),
)
def test_entropy_invariant_under_sequence_reordering(seqs, rng):
    shuffled = list(seqs)
    rng.shuffle(shuffled)
    a = ngram_entropy(seqs, 2)
    b = ngram_entropy(shuffled, 2)
    assert a.total_entropy == pytest.approx(b.total_entropy, abs=1e-12)
    assert a.distinct_ngrams == b.distinct_ngrams


@given(
    st.lists(
        st.one_of(
            st.lists(st.integers(min_value=1, max_value=5), max_size=14),
            st.lists(st.integers(min_value=1, max_value=3), max_size=14).map(
                lambda events: Sequence("s", events)
            ),
        ),
        max_size=8,
    ),
    st.integers(min_value=1, max_value=12),
)
def test_pooled_ngrams_match_naive_slicing(seqs, n):
    pooled = complexity._pool_ngrams(seqs, n)
    naive = ngram_counts_naive(seqs, n)
    assert list(pooled.items()) == list(naive.items())
    fast = ngram_entropy(seqs, n)
    with patch.object(complexity, "_pool_ngrams", ngram_counts_naive):
        slow = ngram_entropy(seqs, n)
    assert fast.total_entropy.hex() == slow.total_entropy.hex()
    assert fast.normalized_entropy.hex() == slow.normalized_entropy.hex()
    assert fast == slow


class TestLempelZiv:
    def test_repeated_symbol_trailing_not_counted(self):
        curve = lz_complexity([[1, 1, 1, 1]])
        assert curve.final_complexity == 2

    def test_trailing_flag_counts_it(self):
        curve = lz_complexity([[1, 1, 1, 1]], count_trailing=True)
        assert curve.final_complexity == 3

    def test_shared_dictionary_across_sequences(self):
        curve = lz_complexity([[1], [1]])
        assert curve.points == ((1, 1), (2, 1))

    def test_all_distinct_symbols(self):
        assert lz_complexity([[1, 2, 3, 4]]).final_complexity == 4

    def test_phrase_resets_at_boundary(self):
        # within one sequence 1,1 extends to the phrase (1,1); across a
        # boundary the parse restarts, so the second 1 matches and adds nothing
        assert lz_complexity([[1, 1]]).final_complexity == 1
        assert lz_complexity([[1], [1]]).final_complexity == 1
        assert lz_complexity([[1, 1, 1]]).final_complexity == 2

    def test_curve_monotone(self):
        rng = random.Random(9)
        seqs = [[rng.randint(1, 3) for _ in range(rng.randint(0, 20))] for _ in range(30)]
        curve = lz_complexity(seqs)
        values = [c for _, c in curve.points]
        assert values == sorted(values)

    def test_duplicating_dataset_adds_no_phrases(self):
        # prefix-closed phrases: every sequence re-parses into known phrases
        seqs = [[1], [1, 1], [1, 1, 1], [2], [2, 1]]
        once = lz_complexity(seqs).final_complexity
        twice = lz_complexity(seqs + seqs).final_complexity
        assert twice == once == 5

    def test_exhaustive_binary_oracle_up_to_length_12(self):
        for total_len in range(13):
            for mask in range(2 ** total_len):
                s = [(mask >> i) & 1 for i in range(total_len)]
                assert lz_complexity([s]).points == tuple(lz_phrases_naive([s])), s

    def test_oracle_on_random_partitions(self):
        rng = random.Random(4)
        for _ in range(300):
            stream = [rng.randint(1, 2) for _ in range(rng.randint(0, 12))]
            cuts = sorted(rng.sample(range(len(stream) + 1), rng.randint(0, min(3, len(stream)))))
            parts = []
            prev = 0
            for cut in cuts + [len(stream)]:
                parts.append(stream[prev:cut])
                prev = cut
            for trailing in (False, True):
                assert lz_complexity(parts, count_trailing=trailing).points == tuple(
                    lz_phrases_naive(parts, count_trailing=trailing)
                )

    def test_empty_dataset(self):
        assert lz_complexity([]).points == ()
        assert lz_complexity([]).final_complexity == 0
