"""Labels and the parsed-event store shared by `parse`, `group` and event-granularity `eval`.

This module imports only `errors` and the standard library, so the stages
after `parse` read parsed events and labels without loading the parser
(`ingest`) or `datetime`. Every text input but the raw log, whose parser
replaces bad bytes, is read through `open_utf8`.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from math import isfinite
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO, TypeVar

from .errors import LogbenchError, ValidationError

T = TypeVar("T")

EVENTS_HEADER = ("line_no", "event_id", "timestamp", "seq_id", "label")


class Label(NamedTuple):
    """Ground-truth class of an event or sequence; anomalies carry a free-form tag."""

    anomalous: bool
    tag: str = ""


NORMAL = Label(False)


def parse_label(text: str) -> Label | None:
    """Parse the serialized label column; empty string means unlabeled.

    Whitespace around the class is ignored; a tag is kept as written.
    """
    kind, colon, tag = text.partition(":")
    kind = kind.strip()
    if not colon:
        if not kind:
            return None
        if kind == "normal":
            return NORMAL
        if kind == "anomalous":
            return Label(True)
    elif kind == "anomalous":
        return Label(True, tag)
    raise ValidationError(f"unrecognized label value: {text.strip()!r}")


def label_reader() -> Callable[[str], Label | None]:
    """`parse_label` that returns one shared `Label` per distinct text; one for each store read."""
    labels: dict[str, Label | None] = {}

    def read(text: str) -> Label | None:
        try:
            return labels[text]
        except KeyError:
            label = labels[text] = parse_label(text)
            return label

    return read


def format_label(label: Label | None) -> str:
    if label is None:
        return ""
    if not label.anomalous:
        return "normal"
    return f"anomalous:{label.tag}" if label.tag else "anomalous"


class ParsedEvent(NamedTuple):
    """One log occurrence after template matching.

    A line mentioning k sequence identifiers yields one event carrying all
    k ids; replication into k grouped events happens downstream. A tuple,
    because parse builds one per matched line and group one per store row.
    """

    line_no: int
    event_id: int
    timestamp: float | None
    seq_ids: tuple[str, ...]
    label: Label | None = None


def write_store(handle: TextIO, header: tuple[str, ...], rows: Iterable[tuple[str, ...]]) -> int:
    """Write a tab-separated store: the header, then one line per row of text fields.

    Returns the number of rows. A row that the csv writer would write
    unquoted is written as its fields joined by tabs: one with no tab inside
    a field and no quote, newline, carriage return or NUL. Every other row
    goes through the csv writer, which quotes a field holding a tab, a quote
    or a newline, but not a bare carriage return, at which the reader ends
    the row; a row with a carriage return is written with every field
    quoted.
    """
    writer = csv.writer(handle, delimiter="\t", lineterminator="\n")
    quoted = csv.writer(handle, delimiter="\t", lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(header)
    write = handle.write
    n = 0
    for row in rows:
        line = "\t".join(row)
        if (
            '"' in line or "\n" in line or "\r" in line or "\0" in line
            or line.count("\t") != len(row) - 1 or not line
        ):
            (quoted if "\r" in line else writer).writerow(row)
        else:
            write(line + "\n")
        n += 1
    return n


@contextmanager
def open_utf8(path: str | Path, error: type[LogbenchError] = ValidationError, newline: str | None = None):
    """`path` opened as UTF-8 text; a read that does not decode raises `error` at path:line.

    Only that error path reads the file again, in binary, to find the line.
    """
    with open(path, encoding="utf-8", newline=newline) as handle:
        try:
            yield handle
            return
        except UnicodeDecodeError:
            pass
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{path}:{line_no}: not valid UTF-8 (byte {line[exc.start]:#04x})") from None
    raise error(f"{path}: not valid UTF-8")


def read_store(path: str | Path, header: tuple[str, ...], parse_row: Callable[[list[str]], T]) -> Iterator[T]:
    """Each row of a tab-separated store through `parse_row`; blank lines are skipped.

    Line 1 is the header when its first field is the first column's name
    and it does not parse as a record (no header does: `label` is not a
    label and `line_no` not an integer), so a store without a header keeps
    a first record named like that column. A row with the wrong number of
    columns, one `parse_row` rejects with ValueError or ValidationError, or
    one that is not UTF-8 raises ValidationError at path:line.
    """
    with open_utf8(path, newline="") as handle:
        reader = csv.reader(handle, delimiter="\t")
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != len(header):
                    raise ValidationError(f"expected {len(header)} columns, got {len(row)}")
                record = parse_row(row)
            except (ValueError, ValidationError) as exc:
                if reader.line_num == 1 and row[0] == header[0]:
                    continue
                raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None
            yield record


def write_events(
    events: Iterable[ParsedEvent],
    handle: TextIO,
    *,
    keep_unidentified: bool = False,
) -> int:
    """Write the parsed-event store: one row per (line, seq_id) pair.

    Events without identifiers are skipped unless keep_unidentified, in
    which case they get a single row with an empty seq_id (needed when the
    stream will be window-grouped later). Returns the number of rows.
    """
    def rows():
        for ev in events:
            ids: Iterable[str] = ev.seq_ids
            if not ev.seq_ids:
                if not keep_unidentified:
                    continue
                ids = ("",)
            line_no, event_id = str(ev.line_no), str(ev.event_id)
            ts = "" if ev.timestamp is None else repr(ev.timestamp)
            label = format_label(ev.label)
            for sid in ids:
                yield (line_no, event_id, ts, sid, label)

    return write_store(handle, EVENTS_HEADER, rows())


def read_events(path: str | Path) -> Iterator[ParsedEvent]:
    """Read the parsed-event store back; rows with the same label text share one `Label`.

    A malformed row, or a timestamp that is nan or infinite, raises
    ValidationError at path:line.
    """
    read_label = label_reader()

    def parse_row(row: list[str]) -> ParsedEvent:
        line_no, event_id, ts, sid, label = row
        stamp = float(ts) if ts else None
        if stamp is not None and not isfinite(stamp):
            raise ValidationError(f"timestamp is not finite: {ts}")
        return ParsedEvent(int(line_no), int(event_id), stamp, (sid,) if sid else (), read_label(label))

    return read_store(path, EVENTS_HEADER, parse_row)
