"""Raw log ingestion: template catalogs, dataset profiles, and parsed event streams.

A template catalog maps free-text log messages to integer event type ids.
A dataset profile describes the per-dataset line conventions (preamble
fields, timestamp format, sequence identifier extraction, label source).
Parsing a file yields one ParsedEvent per matched line and an IngestReport
with exact accounting: matched + unmatched + invalid = total lines.
"""

from __future__ import annotations

import csv
import logging
import re
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Iterator, Mapping, TextIO

from .errors import CatalogError, ProfileError, ValidationError

LOGGER = logging.getLogger("logbench.ingest")

WILDCARD = "<*>"

#: Role names a template wildcard may be annotated with.
ROLE_SEQ_ID = "sequence-id"
ROLE_TIMESTAMP = "timestamp"
ROLE_OTHER = "other"

#: Cap on stored per-line error records; totals keep counting past it.
MAX_ERROR_RECORDS = 1000

EVENTS_HEADER = ("line_no", "event_id", "timestamp", "seq_id", "label")

_TOKEN_RE = re.compile(r"\S+")


@dataclass(frozen=True)
class Label:
    """Ground-truth class of an event or sequence; anomalies carry a free-form tag."""

    anomalous: bool
    tag: str = ""


NORMAL = Label(False)


def parse_label(text: str) -> Label | None:
    """Parse the serialized label column; empty string means unlabeled."""
    text = text.strip()
    if not text:
        return None
    if text == "normal":
        return NORMAL
    if text == "anomalous":
        return Label(True)
    if text.startswith("anomalous:"):
        return Label(True, text.split(":", 1)[1])
    raise ValidationError(f"unrecognized label value: {text!r}")


def format_label(label: Label | None) -> str:
    if label is None:
        return ""
    if not label.anomalous:
        return "normal"
    return f"anomalous:{label.tag}" if label.tag else "anomalous"


@dataclass(frozen=True)
class EventTemplate:
    """One parsing pattern: literal segments joined by `<*>` wildcards."""

    event_id: int
    pattern: str
    segments: tuple[str, ...]
    regex: re.Pattern
    param_roles: Mapping[int, str] | None = None

    @property
    def n_wildcards(self) -> int:
        return len(self.segments) - 1

    @property
    def literal_length(self) -> int:
        return sum(len(seg) for seg in self.segments)


def compile_template(
    event_id: int, pattern: str, param_roles: Mapping[int, str] | None = None
) -> EventTemplate:
    """Compile a `<*>`-wildcard pattern into an anchored regex template.

    Wildcards match non-greedily up to the next literal; a trailing
    wildcard consumes the rest of the message. A pattern must contain at
    least one literal character unless it is the explicit catch-all `<*>`.
    """
    if event_id < 1:
        raise CatalogError(f"event id must be a positive integer, got {event_id}")
    segments = tuple(pattern.split(WILDCARD))
    if sum(len(s) for s in segments) == 0 and pattern != WILDCARD:
        raise CatalogError(
            f"template {event_id} has no literal text and is not the catch-all {WILDCARD!r}"
        )
    body = "(.*?)".join(re.escape(seg) for seg in segments)
    regex = re.compile(body)
    if param_roles is not None:
        bad = [i for i in param_roles if not 0 <= i < len(segments) - 1]
        if bad:
            raise CatalogError(f"template {event_id}: role index out of range: {bad}")
    return EventTemplate(event_id, pattern, segments, regex, param_roles)


class TemplateCatalog:
    """Ordered template collection; matching tries the most specific template first.

    Order: longest total literal length first, ties broken by lowest event id.
    """

    def __init__(self, templates: Iterable[EventTemplate]):
        self.templates = sorted(
            templates, key=lambda t: (-t.literal_length, t.event_id)
        )
        self.by_id: dict[int, EventTemplate] = {}
        for tpl in self.templates:
            if tpl.event_id in self.by_id:
                raise CatalogError(f"duplicate event id {tpl.event_id} in catalog")
            self.by_id[tpl.event_id] = tpl

    def __len__(self) -> int:
        return len(self.templates)

    def match(self, message: str) -> tuple[EventTemplate, tuple[str, ...]] | None:
        """Return the first (most specific) matching template and its wildcard captures."""
        for tpl in self.templates:
            m = tpl.regex.fullmatch(message)
            if m is not None:
                return tpl, m.groups()
        return None


def load_template_catalog(path: str | Path) -> TemplateCatalog:
    """Load a catalog file: one `<id><TAB><pattern>` template per line.

    Blank lines and `#` comments are skipped. Raises CatalogError with the
    offending line number for malformed lines or duplicate ids.
    """
    path = Path(path)
    templates = []
    seen: set[int] = set()
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, 1):
            line = raw.rstrip("\n\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split(maxsplit=1)
            if len(parts) != 2 or not parts[0].isdigit():
                raise CatalogError(
                    f"{path}:{line_no}: expected '<id>\\t<pattern>', got {line!r}"
                )
            event_id = int(parts[0])
            if event_id in seen:
                raise CatalogError(f"{path}:{line_no}: duplicate event id {event_id}")
            seen.add(event_id)
            try:
                templates.append(compile_template(event_id, parts[1].strip()))
            except CatalogError as exc:
                raise CatalogError(f"{path}:{line_no}: {exc}") from exc
    if not templates:
        LOGGER.warning("template catalog %s is empty", path)
    return TemplateCatalog(templates)


@dataclass(frozen=True)
class DatasetProfile:
    """Per-dataset line conventions. Exactly one label source applies.

    label_source: "sequence-file" (labels attached later from a per-sequence
    file), "event-marker" (a line token marks each event), or "file-dir"
    (one sequence per input file, label derived from its path).
    """

    name: str
    label_source: str
    preamble_tokens: int = 0
    seq_id_pattern: str | None = None
    seq_id_token: int | None = None
    timestamp_pattern: str | None = None
    timestamp_format: str | None = None
    timezone: str = "UTC"
    base_year: int | None = None
    label_token: int | None = None
    normal_marker: str = "-"
    tokenized: bool = False
    anomaly_dir_pattern: str | None = None

    def __post_init__(self):
        if self.label_source not in ("sequence-file", "event-marker", "file-dir"):
            raise ProfileError(f"unknown label_source: {self.label_source!r}")
        if self.label_source == "event-marker" and self.label_token is None:
            raise ProfileError("event-marker profiles require label_token")
        if self.timestamp_pattern and not self.timestamp_format:
            raise ProfileError("timestamp_pattern requires timestamp_format")


_PROFILE_INT_KEYS = {"preamble_tokens", "seq_id_token", "base_year", "label_token"}
_PROFILE_BOOL_KEYS = {"tokenized"}
_PROFILE_KEYS = {
    "name",
    "label_source",
    "preamble_tokens",
    "seq_id_pattern",
    "seq_id_token",
    "timestamp_pattern",
    "timestamp_format",
    "timezone",
    "base_year",
    "label_token",
    "normal_marker",
    "tokenized",
    "anomaly_dir_pattern",
}


def load_profile_file(path: str | Path) -> DatasetProfile:
    """Load a flat key = value profile file."""
    path = Path(path)
    values: dict[str, object] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ProfileError(f"{path}:{line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _PROFILE_KEYS:
                raise ProfileError(f"{path}:{line_no}: unknown profile key {key!r}")
            if key in _PROFILE_INT_KEYS:
                values[key] = int(value)
            elif key in _PROFILE_BOOL_KEYS:
                values[key] = value.lower() in ("1", "true", "yes")
            else:
                values[key] = value
    if "name" not in values or "label_source" not in values:
        raise ProfileError(f"{path}: profile requires at least name and label_source")
    return DatasetProfile(**values)  # type: ignore[arg-type]


def bundled_profile_names() -> list[str]:
    from importlib.resources import files

    root = files("logbench") / "profiles"
    return sorted(p.name[: -len(".profile")] for p in root.iterdir() if p.name.endswith(".profile"))


def load_profile(name_or_path: str | Path) -> DatasetProfile:
    """Resolve a profile by bundled name or by file path."""
    path = Path(name_or_path)
    if path.exists() and path.is_file():
        return load_profile_file(path)
    from importlib.resources import as_file, files

    resource = files("logbench") / "profiles" / f"{name_or_path}.profile"
    try:
        with as_file(resource) as real:
            if real.exists():
                return load_profile_file(real)
    except FileNotFoundError:
        pass
    raise ProfileError(
        f"no such profile: {name_or_path!r} (bundled: {', '.join(bundled_profile_names())})"
    )


@dataclass(frozen=True)
class ParsedEvent:
    """One log occurrence after template matching.

    A line mentioning k sequence identifiers yields one event carrying all
    k ids; replication into k grouped events happens downstream.
    """

    line_no: int
    event_id: int
    timestamp: float | None
    seq_ids: tuple[str, ...]
    label: Label | None = None


@dataclass
class IngestReport:
    """Exact line accounting for one parse pass.

    parsed_events counts one event per (line, seq_id) pair, i.e. the
    replicated total; lines without any identifier are tallied in
    no_id_lines but still streamed for window-based grouping.
    """

    lines_total: int = 0
    matched_lines: int = 0
    unmatched_lines: int = 0
    invalid_lines: int = 0
    parsed_events: int = 0
    no_id_lines: int = 0
    events_normal: int = 0
    events_anomalous: int = 0
    timestamp_error_count: int = 0
    timestamp_errors: list[tuple[int, str]] = field(default_factory=list)

    def add_timestamp_error(self, line_no: int, reason: str) -> None:
        self.timestamp_error_count += 1
        if len(self.timestamp_errors) < MAX_ERROR_RECORDS:
            self.timestamp_errors.append((line_no, reason))


class _ProfileMachinery:
    """Compiled per-profile extraction state, cached on demand."""

    def __init__(self, profile: DatasetProfile):
        self.profile = profile
        self.seq_id_re = re.compile(profile.seq_id_pattern) if profile.seq_id_pattern else None
        self.ts_re = re.compile(profile.timestamp_pattern) if profile.timestamp_pattern else None
        self.tzinfo = _parse_timezone(profile.timezone)
        self.ts_has_year = bool(
            profile.timestamp_format
            and ("%y" in profile.timestamp_format or "%Y" in profile.timestamp_format)
        )
        self.max_token = max(
            profile.preamble_tokens,
            (profile.label_token + 1) if profile.label_token is not None else 0,
            (profile.seq_id_token + 1) if profile.seq_id_token is not None else 0,
        )


_MACHINERY_CACHE: dict[int, _ProfileMachinery] = {}


def _machinery(profile: DatasetProfile) -> _ProfileMachinery:
    mach = _MACHINERY_CACHE.get(id(profile))
    if mach is None or mach.profile is not profile:
        mach = _ProfileMachinery(profile)
        _MACHINERY_CACHE[id(profile)] = mach
    return mach


def _parse_timezone(spec: str) -> timezone:
    if spec.upper() == "UTC":
        return timezone.utc
    m = re.fullmatch(r"([+-])(\d{2}):(\d{2})", spec)
    if not m:
        raise ProfileError(f"unsupported timezone spec: {spec!r} (use UTC or +HH:MM)")
    sign = 1 if m.group(1) == "+" else -1
    return timezone(sign * timedelta(hours=int(m.group(2)), minutes=int(m.group(3))))


def parse_timestamp_text(text: str, profile: DatasetProfile) -> float:
    """Parse a timestamp string to epoch seconds per the profile format."""
    fmt = profile.timestamp_format
    if fmt is None:
        raise ValidationError("profile has no timestamp_format")
    if fmt == "epoch":
        return float(text)
    mach = _machinery(profile)
    dt = datetime.strptime(text, fmt)
    if not mach.ts_has_year:
        dt = dt.replace(year=profile.base_year if profile.base_year else 1970)
    return dt.replace(tzinfo=mach.tzinfo).timestamp()


def _extract_timestamp(
    line: str, profile: DatasetProfile
) -> tuple[float | None, str | None]:
    mach = _machinery(profile)
    if mach.ts_re is None:
        return None, None
    m = mach.ts_re.search(line)
    if m is None:
        return None, "timestamp pattern not found"
    raw = m.group(1) if m.groups() else m.group(0)
    try:
        return parse_timestamp_text(raw, profile), None
    except (ValueError, OverflowError) as exc:
        return None, f"unparseable timestamp {raw!r}: {exc}"


def _dedup(ids: Iterable[str]) -> tuple[str, ...]:
    seen: set[str] = set()
    out = []
    for sid in ids:
        if sid and sid not in seen:
            seen.add(sid)
            out.append(sid)
    return tuple(out)


def _extract_seq_ids(line: str, tokens: list[str], profile: DatasetProfile) -> tuple[str, ...]:
    if profile.seq_id_token is not None:
        if profile.seq_id_token < len(tokens):
            return (tokens[profile.seq_id_token],)
        return ()
    mach = _machinery(profile)
    if mach.seq_id_re is None:
        return ()
    if mach.seq_id_re.groups > 1:
        raise ProfileError("seq_id_pattern must have at most one capture group")
    return _dedup(mach.seq_id_re.findall(line))


def _split_tokens(line: str, n_tokens: int, preamble_tokens: int) -> tuple[list[str], int]:
    """Return up to `n_tokens` leading tokens and the offset where the message starts.

    The message begins at token index `preamble_tokens`; a line with fewer
    tokens than the preamble has an empty message.
    """
    tokens: list[str] = []
    msg_offset = 0 if preamble_tokens == 0 else len(line)
    stop = max(n_tokens, preamble_tokens + 1)
    for i, m in enumerate(_TOKEN_RE.finditer(line)):
        if i < n_tokens:
            tokens.append(m.group(0))
        if preamble_tokens and i == preamble_tokens:
            msg_offset = m.start()
        if i + 1 >= stop:
            break
    return tokens, msg_offset


def parse_line(
    line: str,
    catalog: TemplateCatalog,
    profile: DatasetProfile,
    *,
    line_no: int = 1,
    report: IngestReport | None = None,
) -> ParsedEvent | None:
    """Match one line against the catalog; returns None when no template matches.

    Matching never throws: an unparseable timestamp yields an event with
    timestamp None plus an error record on the report.
    """
    if len(catalog) == 0:
        raise ValidationError("cannot parse with an empty template catalog")
    mach = _machinery(profile)
    tokens, msg_start = _split_tokens(line, mach.max_token, profile.preamble_tokens)
    message = line[msg_start:] if profile.preamble_tokens else line
    matched = catalog.match(message)
    if matched is None:
        return None
    template, groups = matched

    label: Label | None = None
    if profile.label_source == "event-marker" and profile.label_token is not None:
        if profile.label_token < len(tokens):
            marker = tokens[profile.label_token]
            label = NORMAL if marker == profile.normal_marker else Label(True, marker)

    timestamp, ts_error = _extract_timestamp(line, profile)
    seq_ids = list(_extract_seq_ids(line, tokens, profile))

    if template.param_roles:
        for idx, role in template.param_roles.items():
            if idx >= len(groups):
                continue
            value = groups[idx]
            if role == ROLE_SEQ_ID:
                seq_ids.append(value)
            elif role == ROLE_TIMESTAMP and timestamp is None:
                try:
                    timestamp = parse_timestamp_text(value, profile)
                    ts_error = None
                except (ValueError, ValidationError):
                    ts_error = f"unparseable timestamp capture {value!r}"

    if ts_error and report is not None:
        report.add_timestamp_error(line_no, ts_error)
    return ParsedEvent(line_no, template.event_id, timestamp, _dedup(seq_ids), label)


def _count_event(report: IngestReport, event: ParsedEvent) -> None:
    report.matched_lines += 1
    report.parsed_events += len(event.seq_ids)
    if not event.seq_ids:
        report.no_id_lines += 1
    if event.label is not None:
        if event.label.anomalous:
            report.events_anomalous += 1
        else:
            report.events_normal += 1


def parse_file(
    path: str | Path,
    catalog: TemplateCatalog | None,
    profile: DatasetProfile,
    *,
    report: IngestReport | None = None,
    seq_id: str | None = None,
    unmatched_sink: TextIO | None = None,
) -> Iterator[ParsedEvent]:
    """Stream ParsedEvents from one log file in bounded memory.

    Pass `report` to collect the line accounting; `seq_id` forces every
    event into one sequence (file-per-sequence datasets). In tokenized
    mode each whitespace token is its own integer event and counts as one
    logical line. Unmatched lines are optionally dumped to `unmatched_sink`.
    """
    if report is None:
        report = IngestReport()
    if profile.tokenized:
        yield from _parse_tokenized(path, profile, report, seq_id)
        return
    if catalog is None or len(catalog) == 0:
        raise ValidationError("cannot parse with an empty template catalog")
    with open(path, encoding="utf-8", errors="replace") as handle:
        for line_no, raw in enumerate(handle, 1):
            line = raw.rstrip("\n\r")
            report.lines_total += 1
            if not line.strip():
                report.invalid_lines += 1
                continue
            event = parse_line(line, catalog, profile, line_no=line_no, report=report)
            if event is None:
                report.unmatched_lines += 1
                if unmatched_sink is not None:
                    unmatched_sink.write(raw if raw.endswith("\n") else raw + "\n")
                continue
            if seq_id is not None:
                event = replace(event, seq_ids=(seq_id,))
            _count_event(report, event)
            yield event


def _parse_tokenized(
    path: str | Path,
    profile: DatasetProfile,
    report: IngestReport,
    seq_id: str | None,
) -> Iterator[ParsedEvent]:
    sid = seq_id if seq_id is not None else Path(path).stem
    index = 0
    with open(path, encoding="utf-8", errors="replace") as handle:
        for raw in handle:
            for token in raw.split():
                index += 1
                report.lines_total += 1
                if not token.isdigit():
                    report.invalid_lines += 1
                    continue
                event = ParsedEvent(index, int(token), None, (sid,))
                _count_event(report, event)
                yield event


def iter_dataset_files(root: str | Path) -> list[Path]:
    """Deterministically ordered regular files under a dataset directory."""
    root = Path(root)
    return sorted(p for p in root.rglob("*") if p.is_file())


def dir_label_map(root: str | Path, profile: DatasetProfile) -> dict[str, Label]:
    """Derive per-file sequence labels from the directory layout.

    A file whose relative path matches anomaly_dir_pattern is anomalous
    (tag = first capture group when present); everything else is normal.
    """
    root = Path(root)
    pattern = re.compile(profile.anomaly_dir_pattern) if profile.anomaly_dir_pattern else None
    labels: dict[str, Label] = {}
    for path in iter_dataset_files(root):
        rel = path.relative_to(root).as_posix()
        sid = _file_seq_id(path, root)
        if pattern is None:
            labels[sid] = NORMAL
            continue
        m = pattern.search(rel)
        if m:
            tag = m.group(1) if m.groups() else m.group(0)
            labels[sid] = Label(True, tag)
        else:
            labels[sid] = NORMAL
    return labels


def _file_seq_id(path: Path, root: Path) -> str:
    rel = path.relative_to(root)
    return rel.as_posix()


def parse_tree(
    root: str | Path,
    catalog: TemplateCatalog | None,
    profile: DatasetProfile,
    *,
    report: IngestReport | None = None,
    unmatched_sink: TextIO | None = None,
) -> Iterator[ParsedEvent]:
    """Stream events from every file under a directory, one sequence per file."""
    root = Path(root)
    if report is None:
        report = IngestReport()
    for path in iter_dataset_files(root):
        sid = _file_seq_id(path, root)
        yield from parse_file(
            path, catalog, profile, report=report, seq_id=sid, unmatched_sink=unmatched_sink
        )


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
    writer = csv.writer(handle, delimiter="\t", lineterminator="\n")
    writer.writerow(EVENTS_HEADER)
    rows = 0
    for ev in events:
        ids: Iterable[str] = ev.seq_ids
        if not ev.seq_ids:
            if not keep_unidentified:
                continue
            ids = ("",)
        ts = "" if ev.timestamp is None else repr(ev.timestamp)
        label = format_label(ev.label)
        for sid in ids:
            writer.writerow((ev.line_no, ev.event_id, ts, sid, label))
            rows += 1
    return rows


def _parse_event_row(row: list[str]) -> ParsedEvent:
    if len(row) != len(EVENTS_HEADER):
        raise ValidationError(f"expected {len(EVENTS_HEADER)} columns, got {len(row)}")
    line_no, event_id, ts, sid, label = row
    return ParsedEvent(
        int(line_no),
        int(event_id),
        float(ts) if ts else None,
        (sid,) if sid else (),
        parse_label(label),
    )


def read_events(path: str | Path) -> Iterator[ParsedEvent]:
    """Read the parsed-event store back; a malformed row raises ValidationError at path:line."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter="\t")
        for row in reader:
            if not row or row[0] == EVENTS_HEADER[0]:
                continue
            try:
                event = _parse_event_row(row)
            except (ValueError, ValidationError) as exc:
                raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None
            yield event
