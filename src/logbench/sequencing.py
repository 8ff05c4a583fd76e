"""Group parsed events into labeled sequences and derive count vectors.

Within-sequence order is source line order throughout: simultaneous
timestamps make line order the only reliable total order.
"""

from __future__ import annotations

import csv
import logging
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, TextIO

from .errors import ValidationError
from .ingest import Label, NORMAL, ParsedEvent, format_label, parse_label

LOGGER = logging.getLogger("logbench.sequencing")

SEQUENCES_HEADER = ("seq_id", "label", "events", "timestamps")

#: CountVector: per-sequence event multiset as event_id -> occurrence count.
CountVector = Counter


@dataclass
class Sequence:
    """Ordered event-type ids with parallel timestamps and a ground-truth label.

    timestamps, when present, has exactly one (possibly None) entry per
    event; event_labels is carried for event-granularity evaluation on
    datasets labeled per line.
    """

    seq_id: str
    events: list[int]
    timestamps: list[float | None] | None = None
    label: Label | None = None
    event_labels: list[Label] | None = None

    def __len__(self) -> int:
        return len(self.events)


@dataclass
class GroupingReport:
    """Accounting for one grouping pass over an event stream."""

    events_total: int = 0
    grouped_events: int = 0
    discarded_no_id: int = 0


def _finalize(seq: Sequence) -> Sequence:
    if seq.timestamps is not None and all(t is None for t in seq.timestamps):
        seq.timestamps = None
    if seq.event_labels is not None and any(l is None for l in seq.event_labels):
        seq.event_labels = None
    return seq


def group_by_identifier(
    events: Iterable[ParsedEvent], *, report: GroupingReport | None = None
) -> list[Sequence]:
    """One sequence per distinct identifier; an event with k ids joins k sequences.

    Events without identifiers are counted as discarded, never silently
    dropped. Sequences come out in order of first identifier appearance.
    """
    if report is None:
        report = GroupingReport()
    sequences: dict[str, Sequence] = {}
    for ev in events:
        report.events_total += 1
        if not ev.seq_ids:
            report.discarded_no_id += 1
            continue
        for sid in ev.seq_ids:
            seq = sequences.get(sid)
            if seq is None:
                seq = Sequence(sid, [], [], event_labels=[])
                sequences[sid] = seq
            seq.events.append(ev.event_id)
            seq.timestamps.append(ev.timestamp)  # type: ignore[union-attr]
            seq.event_labels.append(ev.label)  # type: ignore[union-attr]
            report.grouped_events += 1
    return [_finalize(seq) for seq in sequences.values()]


def dedupe_replicated(events: Iterable[ParsedEvent]) -> Iterator[ParsedEvent]:
    """Collapse per-(line, seq_id) replicated records back to one event per line.

    Needed when window-grouping a stream read from the parsed-event store.
    """
    last_line = None
    for ev in events:
        if ev.line_no != last_line:
            last_line = ev.line_no
            yield ev


def group_by_window(
    events: Iterable[ParsedEvent], window_size: int, step: int
) -> list[Sequence]:
    """Slide a fixed window over the global event stream.

    Windows start at multiples of `step`; all full windows are emitted,
    followed by one trailing partial window when events remain beyond the
    last full start. A window at least as large as the stream yields the
    whole stream as a single sequence.
    """
    if window_size < 1:
        raise ValidationError("window_size must be >= 1")
    if step < 1:
        raise ValidationError("step must be >= 1")
    stream = list(events)
    n = len(stream)
    if n == 0:
        return []
    starts: list[int]
    if window_size >= n:
        starts = [0]
    else:
        starts = []
        s = 0
        while s + window_size <= n:
            starts.append(s)
            s += step
        if s < n:
            starts.append(s)
    out = []
    for s in starts:
        chunk = stream[s : s + window_size]
        seq = Sequence(
            f"window-{s}",
            [ev.event_id for ev in chunk],
            [ev.timestamp for ev in chunk],
            event_labels=[ev.label for ev in chunk],
        )
        _finalize(seq)
        if seq.event_labels is not None:
            lift_event_labels(seq)
        out.append(seq)
    return out


def lift_event_labels(seq: Sequence) -> Sequence:
    """Label the sequence anomalous iff any event is; tag comes from the first one."""
    if not seq.events:
        LOGGER.warning("sequence %s is empty; labeling as normal (degenerate)", seq.seq_id)
        seq.label = NORMAL
        return seq
    if seq.event_labels is None:
        raise ValidationError(f"sequence {seq.seq_id} has no per-event labels to lift")
    first = next((l for l in seq.event_labels if l.anomalous), None)
    seq.label = Label(True, first.tag) if first is not None else NORMAL
    return seq


def attach_sequence_labels(
    seqs: Iterable[Sequence], labels: Mapping[str, Label]
) -> tuple[list[Sequence], list[str]]:
    """Attach per-sequence ground truth; ids absent from the map are excluded.

    Returns (labeled sequences, excluded ids). Excluded sequences are
    reported rather than defaulted to normal to avoid contaminating the
    ground truth.
    """
    labeled = []
    unlabeled = []
    for seq in seqs:
        label = labels.get(seq.seq_id)
        if label is None:
            unlabeled.append(seq.seq_id)
            continue
        seq.label = label
        labeled.append(seq)
    if unlabeled:
        LOGGER.warning(
            "%d sequences missing from the label file were excluded (first: %s)",
            len(unlabeled),
            unlabeled[:5],
        )
    return labeled, unlabeled


_NORMAL_VALUES = {"normal", "-", "0", "success"}
_PLAIN_ANOMALY_VALUES = {"anomaly", "anomalous", "abnormal", "1"}


def load_label_file(path: str | Path) -> dict[str, Label]:
    """Load a per-sequence label file (CSV or TSV, `seq_id,label` per row).

    A header row is detected and skipped. Label values: `normal` (and
    common aliases) map to normal; anything else is anomalous, with the
    raw value kept as the tag unless it is a generic anomaly word.
    """
    path = Path(path)
    labels: dict[str, Label] = {}
    with open(path, encoding="utf-8", newline="") as handle:
        sample = handle.read(4096)
        handle.seek(0)
        delimiter = "\t" if sample.count("\t") > sample.count(",") else ","
        reader = csv.reader(handle, delimiter=delimiter)
        for row_no, row in enumerate(reader, 1):
            if not row or not row[0].strip():
                continue
            if len(row) < 2:
                raise ValidationError(f"{path}:{row_no}: expected 'seq_id{delimiter}label'")
            sid, value = row[0].strip(), row[1].strip()
            low = value.lower()
            if row_no == 1 and low in ("label", "class"):
                continue
            if low in _NORMAL_VALUES:
                labels[sid] = NORMAL
            elif low in _PLAIN_ANOMALY_VALUES:
                labels[sid] = Label(True)
            else:
                labels[sid] = Label(True, value)
    return labels


def to_count_vector(seq: Sequence) -> CountVector:
    """Event multiset of a sequence; order-invariant by construction."""
    return Counter(seq.events)


def count_vector_key(cv: Mapping[int, int]) -> tuple[tuple[int, int], ...]:
    """Hashable canonical form of a count vector (zero entries dropped)."""
    return tuple(sorted((e, c) for e, c in cv.items() if c))


def write_sequences(seqs: Iterable[Sequence], handle: TextIO) -> int:
    """Write the sequence store: seq_id, label, events, timestamps (tab-separated)."""
    writer = csv.writer(handle, delimiter="\t", lineterminator="\n")
    writer.writerow(SEQUENCES_HEADER)
    rows = 0
    for seq in seqs:
        events = " ".join(str(e) for e in seq.events)
        if seq.timestamps is None:
            ts = ""
        else:
            ts = " ".join("-" if t is None else repr(t) for t in seq.timestamps)
        writer.writerow((seq.seq_id, format_label(seq.label), events, ts))
        rows += 1
    return rows


def _parse_sequence_row(row: list[str]) -> Sequence:
    if len(row) != len(SEQUENCES_HEADER):
        raise ValidationError(f"expected {len(SEQUENCES_HEADER)} columns, got {len(row)}")
    sid, label, events, ts = row
    seq = Sequence(
        sid,
        [int(e) for e in events.split()] if events else [],
        [None if t == "-" else float(t) for t in ts.split()] if ts else None,
        parse_label(label),
    )
    if seq.timestamps is not None and len(seq.timestamps) != len(seq.events):
        raise ValidationError(f"sequence {sid}: timestamp count != event count")
    return seq


def read_sequences(path: str | Path) -> list[Sequence]:
    """Read the sequence store back; a malformed row raises ValidationError at path:line."""
    out = []
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter="\t")
        for row in reader:
            if not row or row[0] == SEQUENCES_HEADER[0]:
                continue
            try:
                out.append(_parse_sequence_row(row))
            except (ValueError, ValidationError) as exc:
                raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None
    return out
