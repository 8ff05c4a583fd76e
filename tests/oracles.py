"""Independent brute-force oracles the implementation is checked against.

These deliberately use different mechanics than the production code
(plain recursion, substring sets, naive enumeration) and must stay free
of imports from the optimized paths they verify. The combination oracle
builds single base detectors with `make_detector`; the per-run scoring
it verifies lives in `logbench.evaluation`.
"""

from __future__ import annotations

import math

from logbench.detectors import make_detector
from logbench.errors import DetectorNotApplicable


def levenshtein_recursive(a, b) -> int:
    """Textbook recursive edit distance with memoization."""
    memo: dict[tuple[int, int], int] = {}

    def go(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        key = (i, j)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if a[i - 1] == b[j - 1]:
            result = go(i - 1, j - 1)
        else:
            result = 1 + min(go(i - 1, j), go(i, j - 1), go(i - 1, j - 1))
        memo[key] = result
        return result

    return go(len(a), len(b))


def lz_phrases_naive(seqs, count_trailing: bool = False) -> list[tuple[int, int]]:
    """Incremental parse with a plain set of phrase tuples shared across sequences."""
    seen: set[tuple] = set()
    complexity = 0
    processed = 0
    points = []
    for seq in seqs:
        current: tuple = ()
        for sym in seq:
            current = current + (sym,)
            if current not in seen:
                seen.add(current)
                complexity += 1
                current = ()
        if count_trailing and current:
            complexity += 1
        processed += len(seq)
        points.append((processed, complexity))
    return points


def ngram_mismatches_naive(events, dictionary, n, pad_symbol=0, pad_side="start"):
    """Enumerate windows explicitly and count dictionary misses."""
    events = tuple(events)
    if len(events) >= n:
        windows = [events[i : i + n] for i in range(len(events) - n + 1)]
    else:
        pad = (pad_symbol,) * (n - len(events))
        windows = [pad + events if pad_side == "start" else events + pad]
    return sum(1 for w in windows if w not in dictionary), len(windows)


def ecvc_score_naive(cv, bank, weights=None, default_weight=1.0, norm="mass"):
    """Direct pairwise weighted L1 over the bank; min normalized distance."""

    def weight(e):
        if weights is None:
            return 1.0
        return weights.get(e, default_weight)

    best = 1.0
    for other in bank:
        keys = set(cv) | set(other)
        num = sum(weight(e) * abs(cv.get(e, 0) - other.get(e, 0)) for e in keys)
        if norm == "mass":
            den = sum(weight(e) * (cv.get(e, 0) + other.get(e, 0)) for e in keys)
        else:
            den = max(sum(cv.values()), sum(other.values()))
        d = 0.0 if den == 0 else min(num / den, 1.0)
        best = min(best, d)
    return best


def entropy_bits_naive(counts) -> float:
    """Shannon entropy via the algebraic form H = log2(T) - (1/T) sum c*log2(c)."""
    total = sum(counts)
    if total == 0:
        return 0.0
    return math.log2(total) - sum(c * math.log2(c) for c in counts) / total


def confusion_naive(scores, labels, threshold):
    """Count the confusion matrix by iterating (score, label) pairs."""
    tp = fp = tn = fn = 0
    for score, anomalous in zip(scores, labels):
        flagged = score > threshold
        if anomalous:
            tp += flagged
            fn += not flagged
        else:
            fp += flagged
            tn += not flagged
    return tp, fp, tn, fn


def combination_scores_naive(spec, train, test, **knobs):
    """Fit a fresh detector per member of an OR-combination; per-sequence max.

    Returns None when any member is not applicable to the training set.
    """
    scores = [0.0] * len(test)
    for part in spec.split("+"):
        detector = make_detector(part, **knobs)
        try:
            detector.fit(train)
        except DetectorNotApplicable:
            return None
        for i, value in enumerate(detector.score_batch(test)):
            if value > scores[i]:
                scores[i] = value
    return scores
