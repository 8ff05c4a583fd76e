"""Dataset characterization: class structure counts and distribution reports.

Every relative value is emitted together with its denominator, since the
customary table layout mixes percentage bases (class totals, unique
totals, grand totals) in ways that are otherwise ambiguous.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple

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


def _require_labeled(seqs: Iterable[Sequence]) -> None:
    for seq in seqs:
        if seq.label is None:
            raise ValidationError(f"sequence {seq.seq_id} is unlabeled")


def summarize(seqs: list[Sequence]) -> DatasetSummary:
    """Compute the dataset-overview counts over fully labeled sequences.

    Uniqueness compares the ordered event list; cross-class overlap counts
    sequences (per class, by instance) whose exact event list also occurs
    in the other class; count-vector analogs use count-vector equality.
    """
    _require_labeled(seqs)
    normal = [s for s in seqs if not s.label.anomalous]
    anom = [s for s in seqs if s.label.anomalous]

    ev_normal = sum(len(s) for s in normal)
    ev_anom = sum(len(s) for s in anom)

    types_normal = set()
    for s in normal:
        types_normal.update(s.events)
    types_anom = set()
    for s in anom:
        types_anom.update(s.events)

    seq_keys_normal = [tuple(s.events) for s in normal]
    seq_keys_anom = [tuple(s.events) for s in anom]
    uniq_normal = set(seq_keys_normal)
    uniq_anom = set(seq_keys_anom)

    cv_keys_normal = [count_vector_key(s) for s in normal]
    cv_keys_anom = [count_vector_key(s) for s in anom]
    uniq_cv_normal = set(cv_keys_normal)
    uniq_cv_anom = set(cv_keys_anom)

    tags = {s.label.tag for s in anom}

    return DatasetSummary(
        events=ClassSplit(ev_normal + ev_anom, ev_normal, ev_anom),
        event_types=ClassSplit(
            len(types_normal | types_anom), len(types_normal), len(types_anom)
        ),
        sequences=ClassSplit(len(seqs), len(normal), len(anom)),
        unique_sequences=ClassSplit(
            len(uniq_normal | uniq_anom), len(uniq_normal), len(uniq_anom)
        ),
        cross_class_sequences=CrossClass(
            sum(1 for k in seq_keys_normal if k in uniq_anom),
            sum(1 for k in seq_keys_anom if k in uniq_normal),
        ),
        unique_count_vectors=ClassSplit(
            len(uniq_cv_normal | uniq_cv_anom), len(uniq_cv_normal), len(uniq_cv_anom)
        ),
        cross_class_count_vectors=CrossClass(
            sum(1 for k in cv_keys_normal if k in uniq_cv_anom),
            sum(1 for k in cv_keys_anom if k in uniq_cv_normal),
        ),
        distinct_anomaly_tags=len(tags),
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

    ev = summary.events
    row("number_of_parsed_events", "total", ev.total, None, "")
    row("number_of_parsed_events", "normal", ev.normal, ev.total, "events")
    row("number_of_parsed_events", "anomalous", ev.anomalous, ev.total, "events")
    et = summary.event_types
    row("number_of_event_types", "total", et.total, et.total, "event types")
    row("number_of_event_types", "normal", et.normal, et.total, "event types")
    row("number_of_event_types", "anomalous", et.anomalous, et.total, "event types")
    sq = summary.sequences
    row("number_of_sequences", "total", sq.total, sq.total, "sequences")
    row("number_of_sequences", "normal", sq.normal, sq.total, "sequences")
    row("number_of_sequences", "anomalous", sq.anomalous, sq.total, "sequences")
    us = summary.unique_sequences
    row("number_of_unique_sequences", "total", us.total, sq.total, "sequences")
    row("number_of_unique_sequences", "normal", us.normal, us.total, "unique sequences")
    row("number_of_unique_sequences", "anomalous", us.anomalous, us.total, "unique sequences")
    cs = summary.cross_class_sequences
    row("sequences_also_in_other_class", "normal", cs.normal, sq.normal, "normal sequences")
    row("sequences_also_in_other_class", "anomalous", cs.anomalous, sq.anomalous, "anomalous sequences")
    uc = summary.unique_count_vectors
    row("number_of_unique_count_vectors", "total", uc.total, us.total, "unique sequences")
    row("number_of_unique_count_vectors", "normal", uc.normal, uc.total, "unique count vectors")
    row("number_of_unique_count_vectors", "anomalous", uc.anomalous, uc.total, "unique count vectors")
    cc = summary.cross_class_count_vectors
    row("count_vectors_also_in_other_class", "normal", cc.normal, sq.normal, "normal sequences")
    row("count_vectors_also_in_other_class", "anomalous", cc.anomalous, sq.anomalous, "anomalous sequences")
    rows.append(("distinct_anomaly_labels", "", str(summary.distinct_anomaly_tags), "", ""))

    width_metric = max(len(r[0]) for r in rows)
    width_cls = max(len(r[1]) for r in rows)
    width_count = max(len(r[2]) for r in rows)
    width_pct = max(len(r[3]) for r in rows)
    return [
        f"{m:<{width_metric}}  {c:<{width_cls}}  {n:>{width_count}}  {p:>{width_pct}}  {b}".rstrip()
        for m, c, n, p, b in rows
    ]


def event_frequency_dist(seqs: list[Sequence]) -> list[tuple[int, int, int]]:
    """Per-class event occurrence counts, sorted ascending by normal-class frequency.

    Returns (event_id, normal_count, anomalous_count) rows; ties resolve by
    event id for deterministic plotting parity.
    """
    _require_labeled(seqs)
    normal: Counter = Counter()
    anom: Counter = Counter()
    for s in seqs:
        target = anom if s.label.anomalous else normal
        target.update(s.events)
    all_events = sorted(set(normal) | set(anom), key=lambda e: (normal.get(e, 0), e))
    return [(e, normal.get(e, 0), anom.get(e, 0)) for e in all_events]


def length_dist(seqs: list[Sequence]) -> list[tuple[int, int, int]]:
    """Per-class histogram of sequence lengths: (length, normal, anomalous) rows."""
    _require_labeled(seqs)
    normal: Counter = Counter()
    anom: Counter = Counter()
    for s in seqs:
        (anom if s.label.anomalous else normal)[len(s)] += 1
    return [
        (n, normal.get(n, 0), anom.get(n, 0)) for n in sorted(set(normal) | set(anom))
    ]


def top_sequences(
    seqs: list[Sequence], k: int
) -> dict[str, list[tuple[int, tuple[int, ...]]]]:
    """Most common event lists per class as (count, events), ties broken lexicographically."""
    if k < 0:
        raise ValidationError("top-k must be >= 0")
    _require_labeled(seqs)
    counters: dict[str, Counter] = {"normal": Counter(), "anomalous": Counter()}
    for s in seqs:
        cls = "anomalous" if s.label.anomalous else "normal"
        counters[cls][tuple(s.events)] += 1
    out: dict[str, list[tuple[int, tuple[int, ...]]]] = {}
    for cls, counter in counters.items():
        ranked = sorted(counter.items(), key=lambda item: (-item[1], item[0]))
        out[cls] = [(count, events) for events, count in ranked[:k]]
    return out


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
    _require_labeled(seqs)
    if by_pair:
        pools: dict[str, dict[tuple[int, int], list[float]]] = {"normal": {}, "anomalous": {}}
        for s in seqs:
            cls = "anomalous" if s.label.anomalous else "normal"
            for pair, dt in pair_deltas(s):
                pools[cls].setdefault(pair, []).append(dt)
        return {
            cls: {pair: five_number(xs) for pair, xs in sorted(pool.items())}
            for cls, pool in pools.items()
            if pool
        }
    flat: dict[str, list[float]] = {"normal": [], "anomalous": []}
    for s in seqs:
        cls = "anomalous" if s.label.anomalous else "normal"
        flat[cls].extend(dt for _, dt in pair_deltas(s))
    return {cls: five_number(xs) for cls, xs in flat.items() if xs}
