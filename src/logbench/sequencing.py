"""Group parsed events into labeled sequences and derive count vectors.

Within-sequence order is source line order throughout: simultaneous
timestamps make line order the only reliable total order.

Grouping builds each sequence's events and stamps as lists. The sequence
store reader, which `stats`, `complexity`, `eval` and `sweep` all use,
gives them back compactly: the events as a tuple, one object per distinct
tuple of the read, and the stamps as one `array('d')` when all of them are
present. A sequence with a missing stamp keeps a list with None in its
place. A sequence compares by value, so both forms of the same sequence
are equal, and both write out the same bytes.

A grouped sequence's label is a running value over its events: normal,
then the first anomalous event's label, and None for good once an event
has none. No sequence keeps its events' labels; grouping by identifier
tallies the anomalous ones on its report.
"""

from __future__ import annotations

import csv
import logging
from array import array
from collections import Counter
from math import isfinite
from pathlib import Path
from typing import Iterable, Iterator, Mapping, TextIO

from .errors import ValidationError
from .events import Label, NORMAL, ParsedEvent, format_label, label_reader, open_utf8, read_store, write_store

LOGGER = logging.getLogger("logbench.sequencing")

SEQUENCES_HEADER = ("seq_id", "label", "events", "timestamps")


class Sequence:
    """Ordered event-type ids with parallel timestamps and a ground-truth label.

    events is a list while `group` builds the sequence and a tuple once read
    from the store, where equal tuples are one shared object. timestamps,
    when present, has exactly one entry per event: a list, where a missing
    stamp is None, or an `array('d')` read from a store row with every stamp
    present. Two sequences are equal when all their fields hold the same
    values, whatever their container, so `Sequence("a", [1]) ==
    Sequence("a", (1,))`; a sequence is mutable, so it is not hashable.
    """

    __slots__ = ("seq_id", "events", "timestamps", "label")

    def __init__(
        self,
        seq_id: str,
        events: list[int] | tuple[int, ...],
        timestamps: list[float | None] | array | None = None,
        label: Label | None = None,
    ):
        self.seq_id = seq_id
        self.events = events
        self.timestamps = timestamps
        self.label = label

    def _values(self) -> tuple:
        stamps = self.timestamps
        return (self.seq_id, tuple(self.events), None if stamps is None else tuple(stamps), self.label)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return "Sequence(" + ", ".join(f"{name}={getattr(self, name)!r}" for name in Sequence.__slots__) + ")"

    def __len__(self) -> int:
        return len(self.events)


class GroupingReport:
    """Accounting for one grouping pass over an event stream.

    `anomalous_events` counts, per event type, the anomalous events of the
    sequences whose label is not None, once per sequence an event joined.
    """

    __slots__ = ("events_total", "grouped_events", "discarded_no_id", "anomalous_events")

    def __init__(self):
        self.events_total = 0
        self.grouped_events = 0
        self.discarded_no_id = 0
        self.anomalous_events: Counter = Counter()


def _finalize(seq: Sequence) -> Sequence:
    """Drop all-None timestamps."""
    if seq.timestamps is not None and all(t is None for t in seq.timestamps):
        seq.timestamps = None
    return seq


def group_by_identifier(
    events: Iterable[ParsedEvent], *, report: GroupingReport | None = None
) -> list[Sequence]:
    """One sequence per distinct identifier; an event with k ids joins k sequences.

    Events without identifiers are counted as discarded, never silently
    dropped. Sequences come out in order of first identifier appearance. A
    sequence whose events all carry a label gets the lifted label, and its
    anomalous events are added to `report.anomalous_events`.
    """
    if report is None:
        report = GroupingReport()
    sequences: dict[str, Sequence] = {}
    flagged: dict[str, list[int]] = {}  # each sequence's anomalous event types, in order
    for ev in events:
        report.events_total += 1
        if not ev.seq_ids:
            report.discarded_no_id += 1
            continue
        label = ev.label
        for sid in ev.seq_ids:
            seq = sequences.get(sid)
            if seq is None:
                seq = Sequence(sid, [], [], NORMAL)
                sequences[sid] = seq
            seq.events.append(ev.event_id)
            seq.timestamps.append(ev.timestamp)  # type: ignore[union-attr]
            if label is None:
                seq.label = None
            elif label.anomalous:
                if seq.label is NORMAL:
                    seq.label = label
                flagged.setdefault(sid, []).append(ev.event_id)
            report.grouped_events += 1
    for sid, types in flagged.items():
        if sequences[sid].label is not None:
            report.anomalous_events.update(types)
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


def pair_deltas(seq: Sequence) -> Iterator[tuple[tuple[int, int], float]]:
    """Each (event, next event) pair whose two timestamps are known, with its time delta."""
    ts = seq.timestamps
    if ts is None:
        return
    events = seq.events
    for i in range(len(events) - 1):
        t0, t1 = ts[i], ts[i + 1]
        if t0 is not None and t1 is not None:
            yield (events[i], events[i + 1]), t1 - t0


def group_by_window(
    events: Iterable[ParsedEvent], window_size: int, step: int
) -> list[Sequence]:
    """Slide a fixed window over the global event stream.

    Windows start at multiples of `step`; all full windows are emitted,
    followed by the next start's partial window when it holds events no
    full window covers. A stream no longer than the window thus yields
    itself as the single sequence. A window whose events all carry a label
    gets the lifted label.
    """
    if window_size < 1:
        raise ValidationError("window_size must be >= 1")
    if step < 1:
        raise ValidationError("step must be >= 1")
    stream = list(events)
    n = len(stream)
    starts = list(range(0, n - window_size + 1, step))
    covered, tail = (starts[-1] + window_size, starts[-1] + step) if starts else (0, 0)
    if max(covered, tail) < n:
        starts.append(tail)
    out = []
    for s in starts:
        chunk = stream[s : s + window_size]
        seq = Sequence(f"window-{s}", [ev.event_id for ev in chunk], [ev.timestamp for ev in chunk], NORMAL)
        for ev in chunk:
            if ev.label is None or (ev.label.anomalous and seq.label is NORMAL):
                seq.label = ev.label
        out.append(_finalize(seq))
    return out


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
    with open_utf8(path, newline="") as handle:
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


def to_count_vector(seq: Sequence) -> Counter:
    """Event multiset of a sequence; order-invariant by construction."""
    return Counter(seq.events)


def count_vector_key(seq: Sequence) -> tuple[int, ...]:
    """The sorted event tuple: two sequences share it exactly when their count vectors are equal."""
    return tuple(sorted(seq.events))


def write_sequences(seqs: Iterable[Sequence], handle: TextIO) -> int:
    """Write the sequence store: seq_id, label, events, timestamps (tab-separated)."""

    def timestamps(seq: Sequence) -> str:
        if seq.timestamps is None:
            return ""
        return " ".join("-" if t is None else repr(t) for t in seq.timestamps)

    return write_store(
        handle,
        SEQUENCES_HEADER,
        ((seq.seq_id, format_label(seq.label), " ".join(map(str, seq.events)), timestamps(seq)) for seq in seqs),
    )


def read_sequences(path: str | Path) -> list[Sequence]:
    """Read the sequence store back.

    Events come back as tuples, one shared object per distinct tuple of the
    read, and labels as one shared `Label` per distinct label text. A row
    whose stamps are all present gets them as one `array('d')`; a row with
    a missing stamp (`-`) gets a list with None in its place.
    A malformed row, or a timestamp that is nan or infinite, raises
    ValidationError at path:line.
    """
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    read_label = label_reader()
    by_text: dict[str, tuple[int, ...]] = {}  # a repeated events column is parsed once

    def parse_row(row: list[str]) -> Sequence:
        sid, label, events, ts = row
        key = by_text.get(events)
        if key is None:
            key = tuple(map(int, events.split()))
            key = by_text[events] = shared.setdefault(key, key)
        stamps: list[float | None] | array | None = None
        if ts:
            parts = ts.split()
            if "-" in parts:
                stamps = [None if t == "-" else float(t) for t in parts]
                # `filter(None, ...)` skips the missing stamps (and zeros, which are finite).
                finite = all(map(isfinite, filter(None, stamps)))
            else:
                stamps = array("d", [float(t) for t in parts])
                finite = all(map(isfinite, stamps))
            if len(stamps) != len(key):
                raise ValidationError(f"sequence {sid}: timestamp count != event count")
            if not finite:
                raise ValidationError(f"sequence {sid}: a timestamp is not finite")
        return Sequence(sid, key, stamps, read_label(label))

    return list(read_store(path, SEQUENCES_HEADER, parse_row))
