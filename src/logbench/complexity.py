"""Dataset complexity measures: n-gram entropy and Lempel-Ziv phrase counts."""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, NamedTuple, Sequence as PySequence

from .errors import ValidationError
from .sequencing import Sequence

DEFAULT_ENTROPY_NS = tuple(range(1, 11))


class EntropyEntry(NamedTuple):
    """Shannon entropy of the pooled n-gram distribution for one window size.

    normalized_entropy divides by log2(distinct n-grams), the maximum
    entropy reached when every observed n-gram occurs equally often; with
    at most one distinct n-gram it is defined as 0. degenerate marks the
    no-n-grams-at-all case.
    """

    n: int
    total_entropy: float
    normalized_entropy: float
    distinct_ngrams: int
    degenerate: bool


def _pool_ngrams(seqs: Iterable[Sequence | PySequence[int]], n: int) -> Counter:
    """Count every contiguous n-gram in first-seen order, the order `ngram_entropy` sums in."""
    pooled: Counter = Counter()
    for seq in seqs:
        events = seq.events if isinstance(seq, Sequence) else seq
        pooled.update(zip(*(events[k:] for k in range(n))))
    return pooled


def ngram_entropy(seqs: Iterable[Sequence | PySequence[int]], n: int) -> EntropyEntry:
    """Entropy of contiguous n-grams pooled across all sequences (no padding).

    Sequences shorter than n contribute nothing for that n.
    """
    if n < 1:
        raise ValidationError("entropy n must be >= 1")
    pooled = _pool_ngrams(seqs, n)
    total = sum(pooled.values())
    distinct = len(pooled)
    if distinct == 0:
        return EntropyEntry(n, 0.0, 0.0, 0, degenerate=True)
    h = 0.0
    for count in pooled.values():
        p = count / total
        h -= p * math.log2(p)
    h_max = math.log2(distinct) if distinct > 1 else 0.0
    normalized = h / h_max if h_max > 0 else 0.0
    return EntropyEntry(n, h, normalized, distinct, degenerate=False)


def entropy_report(
    seqs: list[Sequence] | list[PySequence[int]], ns: Iterable[int] = DEFAULT_ENTROPY_NS
) -> list[EntropyEntry]:
    return [ngram_entropy(seqs, n) for n in ns]


class LZCurve(NamedTuple):
    """Cumulative phrase count sampled after each consecutively processed sequence."""

    points: tuple[tuple[int, int], ...]

    @property
    def final_complexity(self) -> int:
        return self.points[-1][1] if self.points else 0


def lz_complexity(
    seqs: Iterable[Sequence | PySequence[int]], *, count_trailing: bool = False
) -> LZCurve:
    """Incremental-parse phrase count with one dictionary shared across sequences.

    Each symbol extends the current phrase; a phrase not yet in the
    dictionary is added, counted, and the parse restarts. The current
    phrase also resets at every sequence boundary, where a trailing
    incomplete phrase (it matched the dictionary) is not counted unless
    count_trailing is set. Inherently sequential: order-dependent shared
    dictionary.
    """
    trie: dict[tuple[int, int], int] = {}
    next_node = 1
    complexity = 0
    events_processed = 0
    points = []
    for seq in seqs:
        events = seq.events if isinstance(seq, Sequence) else seq
        node = 0
        for sym in events:
            key = (node, sym)
            child = trie.get(key)
            if child is None:
                trie[key] = next_node
                next_node += 1
                complexity += 1
                node = 0
            else:
                node = child
        if count_trailing and node != 0:
            complexity += 1
        events_processed += len(events)
        points.append((events_processed, complexity))
    return LZCurve(tuple(points))
