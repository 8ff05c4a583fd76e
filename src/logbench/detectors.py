"""The seven baseline detection techniques.

Every detector trains on normal sequences only and scores test sequences
in [0, 1]; a sequence is flagged iff score > threshold (strict). The
new-event and length detectors are threshold-free and emit 0/1 scores.
Trained models are immutable; scoring is a pure function of
(model, sequence) except for the timing detector's diagnostics tally.

Study rows such as `event+length+ecvc` are OR-combinations of these base
detectors. They are not detectors of their own: the evaluation fits and
scores each base detector once per run, and a combination's score is the
element-wise maximum of its members' score columns, so `max > threshold`
is exactly the OR of the member flags.
"""

from __future__ import annotations

import bisect
import math
import re
from collections import Counter
from typing import Iterable, Sequence as PySequence

from .errors import DetectorNotApplicable, ValidationError
from .sequencing import Sequence, count_vector_key, to_count_vector

#: Reserved boundary symbol used to pad sequences shorter than the n-gram
#: window; real event ids are positive integers.
PAD_EVENT = 0

#: Guard against zero-valued timing range boundaries.
TIMING_EPSILON = 1e-6

#: Detector rows evaluated in the study, in reporting order.
STUDY_DETECTORS = (
    "event",
    "length",
    "event+length",
    "ecvc",
    "event+length+ecvc",
    "ecvc-idf",
    "event+length+ecvc-idf",
    "ngram2",
    "ngram2+length",
    "ngram3",
    "ngram10",
    "edit",
    "event+length+edit",
    "timing",
)


def levenshtein(a: PySequence, b: PySequence, *, cutoff: int | None = None) -> int:
    """Edit distance (insert/delete/replace) between two event sequences.

    With a cutoff, returns cutoff + 1 as soon as the distance provably
    exceeds it; otherwise the exact distance.
    """
    m, n = len(a), len(b)
    if m < n:
        a, b, m, n = b, a, n, m
    if cutoff is not None and m - n > cutoff:
        return cutoff + 1
    if n == 0:
        return m
    prev = list(range(n + 1))
    for i in range(1, m + 1):
        ai = a[i - 1]
        cur = [i]
        append = cur.append
        best = i
        for j in range(1, n + 1):
            c = prev[j - 1] + (ai != b[j - 1])
            up = prev[j] + 1
            if up < c:
                c = up
            left = cur[j - 1] + 1
            if left < c:
                c = left
            append(c)
            if c < best:
                best = c
        if cutoff is not None and best > cutoff:
            return cutoff + 1
        prev = cur
    d = prev[n]
    if cutoff is not None and d > cutoff:
        return cutoff + 1
    return d


def _require_training(train: list[Sequence]) -> None:
    if not train:
        raise ValidationError("training set is empty")


class Detector:
    """Train-on-normal / score-test interface shared by every technique."""

    name = "base"
    thresholded = True

    def fit(self, train: list[Sequence]) -> "Detector":
        raise NotImplementedError

    def score(self, seq: Sequence) -> float:
        raise NotImplementedError

    def score_batch(self, seqs: list[Sequence]) -> list[float]:
        return [self.score(s) for s in seqs]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class NewEventTypeDetector(Detector):
    """Flags sequences containing event types never seen during training."""

    name = "event"
    thresholded = False

    def __init__(self):
        self.known_events: frozenset[int] = frozenset()

    def fit(self, train):
        _require_training(train)
        known: set[int] = set()
        for seq in train:
            known.update(seq.events)
        self.known_events = frozenset(known)
        return self

    def score(self, seq):
        known = self.known_events
        return 1.0 if any(e not in known for e in seq.events) else 0.0


class SequenceLengthDetector(Detector):
    """Flags sequences shorter than the trained minimum or longer than the maximum.

    Bounds are inclusive: a test length equal to min or max is normal.
    """

    name = "length"
    thresholded = False

    def __init__(self):
        self.min_len = 0
        self.max_len = 0

    def fit(self, train):
        _require_training(train)
        lengths = [len(seq) for seq in train]
        self.min_len = min(lengths)
        self.max_len = max(lengths)
        return self

    def score(self, seq):
        n = len(seq)
        return 1.0 if n < self.min_len or n > self.max_len else 0.0


class CountVectorDetector(Detector):
    """Nearest-neighbour distance between event count vectors (ECVC).

    Distance to one bank vector is the (optionally idf-weighted) L1
    distance, normalized by the weighted total mass so the score lies in
    [0, 1]; the sequence score is the minimum over the training bank.
    With norm="len" the denominator is the larger unweighted total instead.
    """

    def __init__(self, idf: bool = False, norm: str = "mass"):
        if norm not in ("mass", "len"):
            raise ValidationError(f"unknown ecvc norm: {norm!r}")
        self.name = "ecvc-idf" if idf else "ecvc"
        self.idf = idf
        self.norm = norm
        self.bank: list[Counter] = []
        self.weights: dict[int, float] = {}
        self.default_weight = 1.0
        self._cache: dict[tuple, float] = {}

    def fit(self, train):
        _require_training(train)
        seen = set()
        self.bank = []
        df: Counter = Counter()
        for seq in train:
            cv = to_count_vector(seq)
            df.update(set(cv))
            key = count_vector_key(cv)
            if key not in seen:
                seen.add(key)
                self.bank.append(cv)
        n = len(train)
        if self.idf:
            self.weights = {e: math.log(n / d) for e, d in df.items()}
            # events unseen in training must not vanish from the distance
            self.default_weight = math.log(n) + 1.0
        else:
            self.weights = {}
            self.default_weight = 1.0
        self._cache = {}
        return self

    def _weight(self, event: int) -> float:
        return self.weights.get(event, self.default_weight)

    def distance(self, cv_a: Counter, cv_b: Counter) -> float:
        """Normalized weighted L1 distance between two count vectors."""
        num = 0.0
        mass = 0.0
        for e in cv_a.keys() | cv_b.keys():
            a, b = cv_a.get(e, 0), cv_b.get(e, 0)
            w = self._weight(e)
            num += w * abs(a - b)
            mass += w * (a + b)
        if self.norm == "len":
            den = float(max(sum(cv_a.values()), sum(cv_b.values())))
        else:
            den = mass
        if den == 0:
            return 0.0
        return min(num / den, 1.0)

    def score(self, seq):
        cv = to_count_vector(seq)
        key = count_vector_key(cv)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        best = 1.0
        for bank_cv in self.bank:
            d = self.distance(cv, bank_cv)
            if d < best:
                best = d
                if best == 0.0:
                    break
        self._cache[key] = best
        return best


class NGramDetector(Detector):
    """Mismatch rate of sliding event-type windows against the trained dictionary.

    Sequences shorter than N are padded with a boundary symbol so every
    sequence yields at least one window. Normalization is either
    per-sequence (mismatches / window count) or global-max (mismatches /
    batch-wide maximum), the latter matching the across-sequence behavior
    observed on large heterogeneous corpora.
    """

    def __init__(self, n: int, normalization: str = "global-max", pad_side: str = "start"):
        if n < 1:
            raise ValidationError("n-gram size must be >= 1")
        if normalization not in ("per-sequence", "global-max"):
            raise ValidationError(f"unknown n-gram normalization: {normalization!r}")
        if pad_side not in ("start", "end"):
            raise ValidationError(f"unknown pad side: {pad_side!r}")
        self.name = f"ngram{n}"
        self.n = n
        self.normalization = normalization
        self.pad_side = pad_side
        self.ngrams: frozenset[tuple[int, ...]] = frozenset()

    def windows(self, events: PySequence[int]) -> list[tuple[int, ...]]:
        n = self.n
        if len(events) >= n:
            return [tuple(events[i : i + n]) for i in range(len(events) - n + 1)]
        pad = (PAD_EVENT,) * (n - len(events))
        padded = pad + tuple(events) if self.pad_side == "start" else tuple(events) + pad
        return [padded]

    def fit(self, train):
        _require_training(train)
        grams: set[tuple[int, ...]] = set()
        for seq in train:
            grams.update(self.windows(seq.events))
        self.ngrams = frozenset(grams)
        return self

    def mismatches(self, seq: Sequence) -> tuple[int, int]:
        """Return (windows absent from the dictionary, total windows)."""
        wins = self.windows(seq.events)
        known = self.ngrams
        miss = sum(1 for w in wins if w not in known)
        return miss, len(wins)

    def score(self, seq):
        miss, total = self.mismatches(seq)
        return miss / total if total else 0.0

    def score_batch(self, seqs):
        if self.normalization == "per-sequence":
            return [self.score(s) for s in seqs]
        counts = [self.mismatches(s)[0] for s in seqs]
        peak = max(counts, default=0)
        if peak == 0:
            return [0.0 for _ in counts]
        return [c / peak for c in counts]


class EditDistanceDetector(Detector):
    """Minimum normalized edit distance to any training sequence.

    The bank is deduplicated and candidates are visited in order of the
    length-difference lower bound |len(a) - len(b)| / max(len(a), len(b)),
    pruning everything that cannot beat the current best; results are
    exact. Normalization is per sequence: distance / max length of the pair.
    """

    name = "edit"

    def __init__(self):
        self.bank_set: frozenset[tuple[int, ...]] = frozenset()
        self.by_length: dict[int, list[tuple[int, ...]]] = {}
        self.lengths: list[int] = []
        self._cache: dict[tuple[int, ...], float] = {}

    def fit(self, train):
        _require_training(train)
        bank = {tuple(seq.events) for seq in train}
        self.bank_set = frozenset(bank)
        self.by_length = {}
        for item in bank:
            self.by_length.setdefault(len(item), []).append(item)
        for items in self.by_length.values():
            items.sort()
        self.lengths = sorted(self.by_length)
        self._cache = {}
        return self

    @staticmethod
    def _length_bound(m: int, length: int) -> float:
        top = max(m, length)
        return abs(m - length) / top if top else 0.0

    def _candidate_lengths(self, m: int) -> Iterable[int]:
        """Bank lengths ordered by ascending length-difference lower bound."""
        lengths = self.lengths
        right = bisect.bisect_left(lengths, m)
        left = right - 1
        while left >= 0 or right < len(lengths):
            if left < 0:
                yield lengths[right]
                right += 1
            elif right >= len(lengths):
                yield lengths[left]
                left -= 1
            elif self._length_bound(m, lengths[left]) <= self._length_bound(m, lengths[right]):
                yield lengths[left]
                left -= 1
            else:
                yield lengths[right]
                right += 1

    def score(self, seq):
        target = tuple(seq.events)
        cached = self._cache.get(target)
        if cached is not None:
            return cached
        if target in self.bank_set:
            self._cache[target] = 0.0
            return 0.0
        m = len(target)
        best = 1.0
        for length in self._candidate_lengths(m):
            if self._length_bound(m, length) >= best:
                break
            top = max(m, length)
            for cand in self.by_length[length]:
                cutoff = int(best * top)
                d = levenshtein(target, cand, cutoff=cutoff)
                nd = d / top if top else 0.0
                if nd < best:
                    best = nd
            if best == 0.0:
                break
        self._cache[target] = best
        return best


class EventTimingDetector(Detector):
    """Deviation of inter-arrival times from per-event-pair trained ranges.

    For each adjacent event pair with learned range (lo, hi), the relative
    deviation is (lo - dt)/max(lo, eps) below the range or
    (dt - hi)/max(hi, eps) above it, zero inside (boundaries inclusive).
    The sequence score is the maximum deviation clamped to [0, 1]; pairs
    unseen in training contribute nothing (novelty is the new-event
    detector's job). Negative time deltas are clamped to zero and tallied.
    """

    name = "timing"

    def __init__(self):
        self.ranges: dict[tuple[int, int], tuple[float, float]] = {}
        self.negative_deltas = 0

    def _pair_deltas(self, seq: Sequence):
        ts = seq.timestamps
        if ts is None:
            return
        events = seq.events
        for i in range(len(events) - 1):
            t0, t1 = ts[i], ts[i + 1]
            if t0 is None or t1 is None:
                continue
            dt = t1 - t0
            if dt < 0:
                self.negative_deltas += 1
                dt = 0.0
            yield (events[i], events[i + 1]), dt

    def fit(self, train):
        _require_training(train)
        ranges: dict[tuple[int, int], tuple[float, float]] = {}
        for seq in train:
            for pair, dt in self._pair_deltas(seq):
                cur = ranges.get(pair)
                if cur is None:
                    ranges[pair] = (dt, dt)
                else:
                    lo, hi = cur
                    ranges[pair] = (min(lo, dt), max(hi, dt))
        if not ranges:
            raise DetectorNotApplicable(
                "event timing requires training sequences with timestamps"
            )
        self.ranges = ranges
        return self

    def score(self, seq):
        worst = 0.0
        for pair, dt in self._pair_deltas(seq):
            learned = self.ranges.get(pair)
            if learned is None:
                continue
            lo, hi = learned
            if dt < lo:
                dev = (lo - dt) / max(lo, TIMING_EPSILON)
            elif dt > hi:
                dev = (dt - hi) / max(hi, TIMING_EPSILON)
            else:
                dev = 0.0
            if dev > worst:
                worst = dev
        return min(worst, 1.0)


_NGRAM_NAME = re.compile(r"^(?:ngram(\d+)|(\d+)-gram)$")


class DetectorBuilder:
    """Picklable detector factory carrying the normalization knobs.

    Needed so evaluation runs can be dispatched to worker processes.
    """

    def __init__(self, ecvc_norm="mass", ngram_norm="global-max", ngram_pad="start"):
        self.ecvc_norm = ecvc_norm
        self.ngram_norm = ngram_norm
        self.ngram_pad = ngram_pad

    def __call__(self, spec: str) -> "Detector":
        return make_detector(
            spec,
            ecvc_norm=self.ecvc_norm,
            ngram_norm=self.ngram_norm,
            ngram_pad=self.ngram_pad,
        )


def make_detector(
    spec: str,
    *,
    ecvc_norm: str = "mass",
    ngram_norm: str = "global-max",
    ngram_pad: str = "start",
) -> Detector:
    """Build one base detector from its name, e.g. `ecvc-idf` or `2-gram`."""
    name = spec.strip().lower()
    if name == "event":
        return NewEventTypeDetector()
    if name == "length":
        return SequenceLengthDetector()
    if name == "ecvc":
        return CountVectorDetector(idf=False, norm=ecvc_norm)
    if name in ("ecvc-idf", "ecvc(idf)"):
        return CountVectorDetector(idf=True, norm=ecvc_norm)
    if name == "edit":
        return EditDistanceDetector()
    if name in ("timing", "event-timing"):
        return EventTimingDetector()
    m = _NGRAM_NAME.match(name)
    if not m:
        raise ValidationError(f"unknown detector: {name!r}")
    return NGramDetector(int(m.group(1) or m.group(2)), normalization=ngram_norm, pad_side=ngram_pad)
