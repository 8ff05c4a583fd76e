"""The seven baseline detection techniques.

Every detector trains on normal sequences only and scores test sequences
in [0, 1]; a sequence is flagged iff score > threshold (strict). The
new-event and length detectors are threshold-free and emit 0/1 scores.
`fit` builds the whole model and scoring writes no state, so every score
is a pure function of (model, sequence), and of the batch for `global-max`
n-grams. The study loop scores each distinct event tuple once per run. A
detector whose score depends on less than the tuple merges the repeats
left within one `score_batch` call and keeps nothing across calls: `ecvc`
searches once per distinct count vector, so reorderings of one multiset
share a search.

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
from .sequencing import Sequence, count_vector_key, pair_deltas, to_count_vector

#: Reserved boundary symbol used to pad sequences shorter than the n-gram
#: window; real event ids are positive integers.
PAD_EVENT = 0

#: Guard against zero-valued timing range boundaries.
TIMING_EPSILON = 1e-6

#: How far above the approximate minimum an ecvc-idf candidate is re-scored.
ECVC_RESCORE_TOLERANCE = 1e-9

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

    Returns the exact distance, or cutoff + 1 as soon as the distance
    provably exceeds `cutoff`. Computed with the bit-parallel algorithm of
    Myers (JACM 1999) in Hyyrö's formulation for edit distance (2001,
    2003): the shorter sequence is the pattern, and one column of the DP
    matrix is held as vertical +1/-1 delta bit vectors of its length,
    so each event of the longer sequence costs a fixed number of
    big-integer operations. `score` follows the last matrix row; as it
    falls by at most one per remaining column, the scan stops once
    `score - remaining > cutoff`.
    """
    m, n = len(a), len(b)
    if m > n:
        a, b, m, n = b, a, n, m
    if cutoff is None:
        cutoff = n  # the distance never exceeds the longer length
    elif n - m > cutoff:
        return cutoff + 1
    if m == 0:
        return n
    peq: dict = {}
    bit = 1
    for event in a:
        peq[event] = peq.get(event, 0) | bit
        bit <<= 1
    full = bit - 1  # the m pattern bits
    high = bit >> 1  # the last pattern row
    vp, vn, score = full, 0, m
    bound = cutoff + n  # score - (n - j) > cutoff  <=>  score + j > bound
    get = peq.get
    for j, event in enumerate(b, 1):
        x = get(event, 0) | vn
        d0 = ((((x & vp) + vp) ^ vp) | x) & full
        hp = vn | (full ^ (d0 | vp))
        hn = d0 & vp
        if hp & high:
            score += 1
            if score + j > bound:
                return cutoff + 1
        elif hn & high:
            score -= 1  # score + j is unchanged: no new exit
        elif score + j > bound:
            return cutoff + 1
        hp = (hp << 1) | 1  # the top row grows by one per column
        vp = ((hn << 1) | (full ^ (d0 | hp))) & full
        vn = hp & d0
    return score  # the exits keep score + n <= bound, so score <= cutoff


def _require_training(train: list[Sequence]) -> None:
    if not train:
        raise ValidationError("training set is empty")


class Detector:
    """Train-on-normal / score-test interface shared by every technique."""

    name = "base"
    thresholded = True
    reads_timestamps = False  # whether equal event tuples may score differently

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
    For ecvc-idf that divides an idf-weighted numerator by an unweighted
    length, so a bank vector sharing no event with the test vector scores
    min((W_a + W_b) / max(L_a, L_b), 1.0), below 1.0 whenever the weights
    are below 1: fitted on [1] and [2, 2] (both idf weights log 2), the
    empty sequence scores log 2 = 0.693, where mass norm gives 1.0.

    `fit` deduplicates the bank and indexes it: `postings` maps each event
    to its (bank index, count) pairs, beside each bank vector's unweighted
    length `lengths` and weighted mass `masses`. By histogram intersection
    (Swain & Ballard, IJCV 1991), the L1 numerator equals
    W_a + W_b - 2 * sum(w * min(a, b)), and the overlap sum needs only the
    events the test vector shares with a bank vector, which `score`
    accumulates by walking the test vector's postings (as in all-pairs
    similarity search, Bayardo, Ma & Srikant, WWW 2007). Scores equal the
    minimum over `distance` to the bit:

    * Plain ecvc has unit weights, so the numerator and both denominators
      (L_a + L_b for mass, max(L_a, L_b) for len) are integers below 2**53
      that `distance` also sums exactly; the same correctly rounded
      quotient follows. A bank vector sharing no event with a non-empty
      test vector scores exactly 1.0 and is never visited; an empty test
      vector scores 0.0 if the bank holds an empty vector, else 1.0.
    * ecvc-idf computes an approximate distance for every bank vector from
      the weighted overlap and re-scores with `distance` every candidate
      within `ECVC_RESCORE_TOLERANCE` of the approximate minimum, keeping
      its 1.0 clamp and its zero-denominator 0.0 (idf weights of 0 make
      zero mass possible). Both values differ from the true quotient by
      rounding errors of order (distinct events) * 2**-53 * (W_a + W_b) / den,
      a ratio of 1 under mass norm and below 2 * (log(n) + 1) under len
      norm, so the true minimum is always among the re-scored candidates.
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
        self.postings: dict[int, list[tuple[int, int]]] = {}
        self.lengths: list[int] = []
        self.masses: list[float] = []

    def fit(self, train):
        _require_training(train)
        seen = set()
        self.bank = []
        df: Counter = Counter()
        for seq in train:
            df.update(set(seq.events))
            key = count_vector_key(seq)
            if key not in seen:
                seen.add(key)
                self.bank.append(to_count_vector(seq))
        n = len(train)
        if self.idf:
            self.weights = {e: math.log(n / d) for e, d in df.items()}
            # events unseen in training must not vanish from the distance
            self.default_weight = math.log(n) + 1.0
        else:
            self.weights = {}
            self.default_weight = 1.0
        self.postings = {}
        for i, cv in enumerate(self.bank):
            for event, count in cv.items():
                self.postings.setdefault(event, []).append((i, count))
        self.lengths = [sum(cv.values()) for cv in self.bank]
        self.masses = [self._mass(cv) for cv in self.bank]
        return self

    def _weight(self, event: int) -> float:
        return self.weights.get(event, self.default_weight)

    def _mass(self, cv: Counter) -> float:
        weight = self._weight
        return sum(weight(e) * c for e, c in cv.items())

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

    def _nearest_unweighted(self, cv: Counter) -> float:
        if not cv:
            return 0.0 if 0 in self.lengths else 1.0
        overlap: dict[int, int] = {}
        get = overlap.get
        postings = self.postings
        for event, a in cv.items():
            for i, b in postings.get(event, ()):
                overlap[i] = get(i, 0) + (a if a < b else b)
        la = sum(cv.values())
        lengths = self.lengths
        mass_norm = self.norm == "mass"
        best = 1.0
        for i, shared in overlap.items():
            lb = lengths[i]
            den = la + lb if mass_norm else (la if la > lb else lb)
            d = (la + lb - 2 * shared) / den
            if d < best:
                best = d
        return best

    def _nearest_weighted(self, cv: Counter) -> float:
        weight = self._weight
        overlap = [0.0] * len(self.bank)
        postings = self.postings
        for event, a in cv.items():
            w = weight(event)
            for i, b in postings.get(event, ()):
                overlap[i] += w * (a if a < b else b)
        wa = self._mass(cv)
        la = sum(cv.values())
        mass_norm = self.norm == "mass"
        approx = []
        for shared, wb, lb in zip(overlap, self.masses, self.lengths):
            den = wa + wb if mass_norm else max(la, lb)
            approx.append((wa + wb - 2.0 * shared) / den if den else 0.0)
        limit = min(approx) + ECVC_RESCORE_TOLERANCE
        best = 1.0
        for i, guess in enumerate(approx):
            if guess <= limit:
                d = self.distance(cv, self.bank[i])
                if d < best:
                    best = d
        return best

    def score(self, seq):
        cv = to_count_vector(seq)
        return self._nearest_weighted(cv) if self.idf else self._nearest_unweighted(cv)

    def score_batch(self, seqs):
        """One nearest-neighbour search per distinct count vector (`count_vector_key`) of the batch."""
        nearest = self._nearest_weighted if self.idf else self._nearest_unweighted
        found: dict[tuple[int, ...], float] = {}
        scores = []
        for seq in seqs:
            key = count_vector_key(seq)
            score = found.get(key)
            if score is None:
                score = found[key] = nearest(to_count_vector(seq))
            scores.append(score)
        return scores


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
        """The score of `seq` as a batch of one: under global-max, 1.0 iff any window misses."""
        return self.score_batch([seq])[0]

    def score_batch(self, seqs):
        if self.normalization == "per-sequence":
            return [miss / total for miss, total in map(self.mismatches, seqs)]
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
    Each pair goes through the bit-parallel `levenshtein` with the cutoff
    int(best * max length): a candidate whose distance exceeds it cannot
    lower the score, so the kernel may stop early and return cutoff + 1.
    """

    name = "edit"

    def __init__(self):
        self.bank_set: frozenset[tuple[int, ...]] = frozenset()
        self.by_length: dict[int, list[tuple[int, ...]]] = {}
        self.lengths: list[int] = []

    def fit(self, train):
        _require_training(train)
        bank = {tuple(seq.events) for seq in train}
        self.bank_set = frozenset(bank)
        self.by_length = {}
        for item in sorted(bank):
            self.by_length.setdefault(len(item), []).append(item)
        self.lengths = sorted(self.by_length)
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
        if target in self.bank_set:
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
        return best


class EventTimingDetector(Detector):
    """Deviation of inter-arrival times from per-event-pair trained ranges.

    For each adjacent event pair with learned range (lo, hi), the relative
    deviation is (lo - dt)/max(lo, eps) below the range or
    (dt - hi)/max(hi, eps) above it, zero inside (boundaries inclusive).
    The sequence score is the maximum deviation clamped to [0, 1]; pairs
    unseen in training contribute nothing (novelty is the new-event
    detector's job). Negative time deltas are clamped to zero; `fit`
    tallies those of the training sequences in `negative_deltas`.
    """

    name = "timing"
    reads_timestamps = True

    def __init__(self):
        self.ranges: dict[tuple[int, int], tuple[float, float]] = {}
        self.negative_deltas = 0

    def fit(self, train):
        _require_training(train)
        ranges: dict[tuple[int, int], tuple[float, float]] = {}
        negative = 0
        for seq in train:
            for pair, dt in pair_deltas(seq):
                if dt < 0:
                    negative += 1
                    dt = 0.0
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
        self.negative_deltas = negative
        return self

    def score(self, seq):
        worst = 0.0
        for pair, dt in pair_deltas(seq):
            learned = self.ranges.get(pair)
            if learned is None:
                continue
            if dt < 0:
                dt = 0.0
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
    """Detector factory carrying the normalization knobs the CLI passes to `evaluate_study`."""

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
