"""Independent brute-force oracles the implementation is checked against.

These deliberately use different mechanics than the production code
(plain recursion, a row-by-row DP, substring sets, naive enumeration)
and must stay free of imports from the optimized paths they verify. The
combination oracle builds single base detectors with `make_detector`;
the per-run scoring it verifies lives in `logbench.evaluation`. The
sweep oracle builds every result row, metrics included, with the
evaluation's record types and `metrics_from_counts`, and picks the best
row among them, where the evaluation keeps only confusion counts. The
event-granularity oracle groups and labels on its own and walks every test
event; it shares only the run's sampling, `evaluation.split`.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from collections import Counter

from logbench.detectors import make_detector
from logbench.errors import DetectorNotApplicable
from logbench.evaluation import FLAG_CUTOFF, THRESHOLD_GRID, ConfusionCounts, EvalResult, metrics_from_counts, split
from logbench.events import NORMAL
from logbench.sequencing import Sequence


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


def levenshtein_dp(a, b) -> int:
    """Row-by-row O(mn) edit distance."""
    m, n = len(a), len(b)
    if m < n:
        a, b, m, n = b, a, n, m
    if n == 0:
        return m
    prev = list(range(n + 1))
    for i in range(1, m + 1):
        ai = a[i - 1]
        cur = [i]
        append = cur.append
        for j in range(1, n + 1):
            c = prev[j - 1] + (ai != b[j - 1])
            up = prev[j] + 1
            if up < c:
                c = up
            left = cur[j - 1] + 1
            if left < c:
                c = left
            append(c)
        prev = cur
    return prev[n]


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


def ecvc_score_bruteforce(detector, cv):
    """Minimum of the fitted detector's `distance` over its whole bank, from 1.0.

    The pairwise loop `CountVectorDetector.score` ran before its postings
    index; the indexed score must equal it to the bit.
    """
    best = 1.0
    for bank_cv in detector.bank:
        d = detector.distance(cv, bank_cv)
        if d < best:
            best = d
            if best == 0.0:
                break
    return best


def ngram_counts_naive(seqs, n):
    """Pool contiguous n-grams by slicing one tuple per start position, in first-seen order."""
    pooled = Counter()
    for seq in seqs:
        events = getattr(seq, "events", seq)
        for i in range(len(events) - n + 1):
            pooled[tuple(events[i : i + n])] += 1
    return pooled


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


def event_confusion_naive(events, config, run_index) -> ConfusionCounts:
    """One event-granularity run's counts, from a label list kept per grouped sequence.

    Groups `events` by identifier, keeping each event's label. A sequence
    with an unlabeled event is dropped; the others take their first
    anomalous event's label, else normal. Each event of the run's test
    sequences is then a unit, flagged when no training sequence holds its
    type, and counted against its own label.
    """
    grouped: dict[str, tuple[list[int], list]] = {}
    for ev in events:
        for sid in ev.seq_ids:
            types, labels = grouped.setdefault(sid, ([], []))
            types.append(ev.event_id)
            labels.append(ev.label)
    seqs, labels_of = [], {}
    for sid, (types, labels) in grouped.items():
        if any(label is None for label in labels):
            continue
        lifted = next((label for label in labels if label.anomalous), NORMAL)
        seqs.append(Sequence(sid, types, None, lifted))
        labels_of[sid] = labels
    train, test = split(seqs, config, run_index)
    known = {e for seq in train for e in seq.events}
    anomalous, scores = [], []
    for seq in test:
        for event, label in zip(seq.events, labels_of[seq.seq_id]):
            anomalous.append(label.anomalous)
            scores.append(1.0 if event not in known else 0.0)
    return ConfusionCounts(*confusion_naive(scores, anomalous, FLAG_CUTOFF))


def evaluate_run_listed(detector, thresholded, anomalous, scores, *, run=0, train_size=0):
    """(every result row, the best row) of one row's score column, each row built with its metrics.

    The best row is the first of the highest F1, skipping undefined ones; a
    threshold-free row has one result at the flag cutoff.
    """
    anom = sorted(s for s, a in zip(scores, anomalous) if a)
    norm = sorted(s for s, a in zip(scores, anomalous) if not a)

    def row(threshold, cutoff):
        tp = len(anom) - bisect_right(anom, cutoff)
        fp = len(norm) - bisect_right(norm, cutoff)
        counts = ConfusionCounts(tp, fp, len(norm) - fp, len(anom) - tp)
        return EvalResult(run, detector, threshold, counts, metrics_from_counts(counts))

    if not thresholded:
        result = row(None, FLAG_CUTOFF)
        return [result], (result if result.metrics.f1 is not None else None)
    results = [row(t, t) for t in THRESHOLD_GRID]
    best = None
    for res in results:
        if res.metrics.f1 is not None and (best is None or res.metrics.f1 > best.metrics.f1):
            best = res
    return results, best


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


def window_spans_naive(n, window, step):
    """(start, end) of each window over n events, enumerating every step start.

    A window starting at a multiple of `step` is kept when it is full, or
    when it holds an index that no window kept before it covers.
    """
    spans, covered = [], set()
    for start in range(0, n, step):
        indexes = set(range(start, min(start + window, n)))
        if start + window <= n or indexes - covered:
            spans.append((start, min(start + window, n)))
            covered |= indexes
    return spans


def catalog_match_naive(catalog, message):
    """Try every template in catalog order; the first whose regex fullmatches wins.

    Each template's regex is built here from its literal segments, joined by
    non-greedy groups that match anything but a newline.
    """
    for tpl in catalog.templates:
        if re.compile("(.*?)".join(map(re.escape, tpl.segments))).fullmatch(message):
            return tpl
    return None


def split_line_naive(line, preamble_tokens, n_tokens):
    """Up to `n_tokens` leading tokens and the message, from regex token offsets.

    The message is the line from the start of token `preamble_tokens` on,
    empty when the line has fewer tokens, and the whole line without a
    preamble.
    """
    spans = [(m.start(), m.group()) for m in re.finditer(r"\S+", line)]
    tokens = [text for _, text in spans[:n_tokens]]
    if not preamble_tokens:
        return tokens, line
    if len(spans) <= preamble_tokens:
        return tokens, ""
    return tokens, line[spans[preamble_tokens][0] :]
