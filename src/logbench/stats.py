"""Dataset characterization: class structure counts and distribution reports.

Every relative value is emitted together with its denominator, since the
customary table layout mixes percentage bases (class totals, unique
totals, grand totals) in ways that are otherwise ambiguous.

The count reports derive from one tally, built in one pass: how often each
distinct event tuple occurs in each class, and how many distinct tags the
anomalies carry. `interarrival_dist` reads stamps, so it walks the
sequences once more. `report_files` gives the `stats` stage's report files
line by line, so this module owns their layouts as `evaluation` owns its
own.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import ValidationError
from .sequencing import Sequence, count_vector_key, pair_deltas


class ClassSplit(NamedTuple):
    total: int
    normal: int
    anomalous: int


class CrossClass(NamedTuple):
    """Instance counts of items whose pattern also occurs in the other class."""

    normal: int
    anomalous: int


class DatasetSummary(NamedTuple):
    events: ClassSplit
    event_types: ClassSplit
    sequences: ClassSplit
    unique_sequences: ClassSplit
    cross_class_sequences: CrossClass
    unique_count_vectors: ClassSplit
    cross_class_count_vectors: CrossClass
    distinct_anomaly_tags: int


_CLASSES = ("normal", "anomalous")


class _Tally(NamedTuple):
    """How often each event tuple occurs per class (normal, then anomalous; first-seen order), and the anomaly tags."""

    classes: tuple[Counter, Counter]
    anomaly_tags: int


def _classes(seqs: Iterable[Sequence]) -> Iterator[tuple[str, Sequence]]:
    """Each sequence with its class name; ValidationError at the first unlabeled one."""
    for seq in seqs:
        if seq.label is None:
            raise ValidationError(f"sequence {seq.seq_id} is unlabeled")
        yield ("anomalous" if seq.label.anomalous else "normal"), seq


def _tally(seqs: Iterable[Sequence]) -> _Tally:
    keys: dict[str, list[tuple[int, ...]]] = {cls: [] for cls in _CLASSES}
    tags = set()
    for cls, seq in _classes(seqs):
        keys[cls].append(tuple(seq.events))
        if cls == "anomalous":
            tags.add(seq.label.tag)
    return _Tally((Counter(keys["normal"]), Counter(keys["anomalous"])), len(tags))


def _overlap(normal: Counter, anomalous: Counter) -> tuple[ClassSplit, CrossClass]:
    """Distinct keys per class, and the instances of each class whose key the other class also has."""
    shared = normal.keys() & anomalous.keys()
    return (
        ClassSplit(len(normal.keys() | anomalous.keys()), len(normal), len(anomalous)),
        CrossClass(sum(normal[key] for key in shared), sum(anomalous[key] for key in shared)),
    )


def _count_vectors(counts: Counter) -> Counter:
    """The counts keyed by count vector instead of event tuple."""
    vectors: Counter = Counter()
    for events, n in counts.items():
        vectors[count_vector_key(events)] += n
    return vectors


def summarize(seqs: list[Sequence]) -> DatasetSummary:
    """Compute the dataset-overview counts over fully labeled sequences.

    Uniqueness compares the ordered event list; cross-class overlap counts
    sequences (per class, by instance) whose exact event list also occurs
    in the other class; count-vector analogs use count-vector equality.
    """
    return _summary(_tally(seqs))


def _summary(tally: _Tally) -> DatasetSummary:
    normal, anomalous = counts = tally.classes
    ev_normal, ev_anom = (sum(len(events) * n for events, n in c.items()) for c in counts)
    types_normal, types_anom = (set(chain.from_iterable(c)) for c in counts)
    seqs_normal, seqs_anom = normal.total(), anomalous.total()
    unique_sequences, cross_class_sequences = _overlap(normal, anomalous)
    unique_count_vectors, cross_class_count_vectors = _overlap(_count_vectors(normal), _count_vectors(anomalous))
    return DatasetSummary(
        events=ClassSplit(ev_normal + ev_anom, ev_normal, ev_anom),
        event_types=ClassSplit(len(types_normal | types_anom), len(types_normal), len(types_anom)),
        sequences=ClassSplit(seqs_normal + seqs_anom, seqs_normal, seqs_anom),
        unique_sequences=unique_sequences,
        cross_class_sequences=cross_class_sequences,
        unique_count_vectors=unique_count_vectors,
        cross_class_count_vectors=cross_class_count_vectors,
        distinct_anomaly_tags=tally.anomaly_tags,
    )


def _pct(count: int, denom: int | None) -> str:
    if not denom:
        return "NA"
    return f"{100.0 * count / denom:.1f}%"


def summary_lines(summary: DatasetSummary) -> list[str]:
    """Render the summary as aligned text rows: metric, class, count, relative, base."""
    rows: list[tuple[str, str, str, str, str]] = []

    def row(metric, cls, count, denom, base_name):
        rows.append((metric, cls, str(count), _pct(count, denom), f"of {denom} {base_name}" if denom else ""))

    def per_class(metric, split, total_denom, total_base, base_name):
        row(metric, "total", split.total, total_denom, total_base)
        row(metric, "normal", split.normal, split.total, base_name)
        row(metric, "anomalous", split.anomalous, split.total, base_name)

    def also_in_other_class(metric, cross):
        row(metric, "normal", cross.normal, sq.normal, "normal sequences")
        row(metric, "anomalous", cross.anomalous, sq.anomalous, "anomalous sequences")

    et, sq, us, uc = summary.event_types, summary.sequences, summary.unique_sequences, summary.unique_count_vectors
    per_class("number_of_parsed_events", summary.events, None, "", "events")
    per_class("number_of_event_types", et, et.total, "event types", "event types")
    per_class("number_of_sequences", sq, sq.total, "sequences", "sequences")
    per_class("number_of_unique_sequences", us, sq.total, "sequences", "unique sequences")
    also_in_other_class("sequences_also_in_other_class", summary.cross_class_sequences)
    per_class("number_of_unique_count_vectors", uc, us.total, "unique sequences", "unique count vectors")
    also_in_other_class("count_vectors_also_in_other_class", summary.cross_class_count_vectors)
    rows.append(("distinct_anomaly_labels", "", str(summary.distinct_anomaly_tags), "", ""))

    width_metric, width_cls, width_count, width_pct = (max(map(len, column)) for column in list(zip(*rows))[:4])
    return [
        f"{m:<{width_metric}}  {c:<{width_cls}}  {n:>{width_count}}  {p:>{width_pct}}  {b}".rstrip()
        for m, c, n, p, b in rows
    ]


def event_frequency_dist(seqs: list[Sequence]) -> list[tuple[int, int, int]]:
    """Per-class event occurrence counts, sorted ascending by normal-class frequency.

    Returns (event_id, normal_count, anomalous_count) rows; ties resolve by
    event id for deterministic plotting parity.
    """
    return _event_frequencies(_tally(seqs))


def _event_frequencies(tally: _Tally) -> list[tuple[int, int, int]]:
    # `elements()` repeats each tuple by its count, so the counting stays in C
    normal, anom = (Counter(chain.from_iterable(c.elements())) for c in tally.classes)
    all_events = sorted(normal.keys() | anom.keys(), key=lambda e: (normal[e], e))
    return [(e, normal[e], anom[e]) for e in all_events]


def length_dist(seqs: list[Sequence]) -> list[tuple[int, int, int]]:
    """Per-class histogram of sequence lengths: (length, normal, anomalous) rows."""
    return _lengths(_tally(seqs))


def _lengths(tally: _Tally) -> list[tuple[int, int, int]]:
    normal, anom = (Counter(map(len, c.elements())) for c in tally.classes)
    return [(n, normal[n], anom[n]) for n in sorted(normal.keys() | anom.keys())]


def top_sequences(seqs: list[Sequence], k: int) -> dict[str, list[tuple[int, tuple[int, ...]]]]:
    """Most common event lists per class as (count, events), ties broken lexicographically."""
    return _top(k)(_tally(seqs))  # `_top(k)` runs first, so a bad k is reported before a bad label


def _top(k: int) -> Callable[[_Tally], dict[str, list[tuple[int, tuple[int, ...]]]]]:
    """The ranking of a tally's `k` most common tuples per class; ValidationError for a negative `k`."""
    if k < 0:
        raise ValidationError("top-k must be >= 0")
    return lambda tally: {
        cls: [(count, events) for events, count in sorted(c.items(), key=lambda item: (-item[1], item[0]))[:k]]
        for cls, c in zip(_CLASSES, tally.classes)
    }


class FiveNumber(NamedTuple):
    """min, Q1, median, Q3, max of a sample; quartiles by linear interpolation."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    count: int


def _quantile(sorted_xs: list[float], q: float) -> float:
    pos = (len(sorted_xs) - 1) * q
    lo = int(pos)
    frac = pos - lo
    if lo + 1 < len(sorted_xs):
        return sorted_xs[lo] * (1 - frac) + sorted_xs[lo + 1] * frac
    return sorted_xs[lo]


def five_number(xs: Iterable[float]) -> FiveNumber | None:
    data = sorted(xs)
    if not data:
        return None
    return FiveNumber(
        data[0],
        _quantile(data, 0.25),
        _quantile(data, 0.5),
        _quantile(data, 0.75),
        data[-1],
        len(data),
    )


def interarrival_dist(
    seqs: list[Sequence], *, by_pair: bool = False
) -> dict[str, FiveNumber | dict[tuple[int, int], FiveNumber]]:
    """Five-number summaries of consecutive-event time deltas per class.

    A dataset without timestamps yields an empty report, not an error.
    With by_pair, summaries are keyed by the (event, next event) pair.
    """
    if by_pair:
        pools: dict[str, dict[tuple[int, int], list[float]]] = {cls: {} for cls in _CLASSES}
        for cls, s in _classes(seqs):
            for pair, dt in pair_deltas(s):
                pools[cls].setdefault(pair, []).append(dt)
        return {
            cls: {pair: five_number(xs) for pair, xs in sorted(pool.items())}
            for cls, pool in pools.items()
            if pool
        }
    flat: dict[str, list[float]] = {cls: [] for cls in _CLASSES}
    for cls, s in _classes(seqs):
        flat[cls].extend(dt for _, dt in pair_deltas(s))
    return {cls: five_number(xs) for cls, xs in flat.items() if xs}


def _csv(row: Iterable) -> str:
    return ",".join(map(str, row))


def report_files(seqs: list[Sequence], top_k: int, *, interarrival_by_pair: bool = False) -> dict[str, list[str]]:
    """The lines of each report file of the `stats` stage, by file name; a CSV's header comes first."""
    top = _top(top_k)
    tally = _tally(seqs)
    timing = interarrival_dist(seqs, by_pair=interarrival_by_pair)
    if not interarrival_by_pair:  # one row per class, with an empty pair column
        timing = {cls: {(): s} for cls, s in timing.items()}
    return {
        "summary.txt": summary_lines(_summary(tally)),
        "event_frequencies.csv": ["event_id,normal_count,anomalous_count", *map(_csv, _event_frequencies(tally))],
        "length_distribution.csv": ["length,normal_count,anomalous_count", *map(_csv, _lengths(tally))],
        "top_sequences.csv": ["class,count,events"] + [
            f"{cls},{count},{' '.join(map(str, events))}"
            for cls, ranked in top(tally).items()
            for count, events in ranked
        ],
        "interarrival.csv": ["class,pair,min,q1,median,q3,max,count"] + [
            _csv((cls, "->".join(map(str, pair)), *s)) for cls, pairs in timing.items() for pair, s in pairs.items()
        ],
    }
