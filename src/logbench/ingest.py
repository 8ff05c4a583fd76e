"""Raw log ingestion: template catalogs, dataset profiles, and parsed event streams.

A template catalog maps free-text log messages to integer event type ids.
A dataset profile describes the per-dataset line conventions (preamble
fields, timestamp format, sequence identifier extraction, label source).
Parsing a file yields one ParsedEvent per matched line and an IngestReport
with exact accounting: matched + unmatched + invalid = total lines.
`ParsedEvent`, `Label` and the parsed-event store live in `events`, which
the later stages load without this module; `write_events` and
`read_events` stay importable from here.

A template is a sequence of literal segments joined by `<*>` wildcards. A
message matches it when it is those segments in order, with any text
between them that holds no newline. Matching compiles nothing; it verifies
the segments with `str` methods. The first segment must start the message
and the last must end it, with room for both (`ab<*>ba` does not match
`aba`). Each middle segment is then found at its leftmost place after the
one before it. Newlines aside, this is exact: a segment placed further left
leaves at least as much room for the segments after it, so the leftmost
placement succeeds whenever any placement does. The text between segments
holds a newline exactly when the message holds more newlines than the
literals, whatever the placement, so one count settles that. Lines read
from a file never hold a newline.

Which templates a message is checked against rests on one invariant. A
*whole literal token* of a template is a run of non-whitespace inside a
literal segment with whitespace on both sides, where the start of the first
segment and the end of the last segment count as whitespace. If a template
matches a message, each of its whole literal tokens is also a
whitespace-separated token of that message, and its leading whole token
(the first segment's first token, when that token is whole) is the
message's first token. The catalog therefore indexes each template under exactly one
whole token and tries only the templates indexed under the message's own
tokens, plus the templates without a whole token, in catalog order. The
result is the one a linear scan over the whole catalog gives.

Which token keys a template depends on the catalog. When every template
with a whole token has a leading one, each is keyed by its leading token,
and a message is split only for its first token. When some template has
whole tokens but no leading one (say it starts with `<*>`), every message
must be split into all its tokens to find that template anyway, so every
template is keyed by its rarest whole token, the one fewest templates hold.
A template without a whole token, such as the catch-all `<*>`, is tried for
every message and does not change the keys.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from math import isfinite
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

from .errors import CatalogError, ProfileError, ValidationError
from .events import NORMAL, Label, ParsedEvent, open_utf8
from .events import read_events, write_events  # noqa: F401  (the store stays reachable from `ingest`)

LOGGER = logging.getLogger("logbench.ingest")

WILDCARD = "<*>"

#: Timestamp errors an IngestReport keeps as (line, reason), the first ones
#: met; `timestamp_error_count` counts them all.
TIMESTAMP_ERROR_SAMPLE = 10

#: A profile's `timezone` other than UTC: a fixed offset.
_OFFSET_RE = re.compile(r"([+-])(\d{2}):(\d{2})")


class EventTemplate(NamedTuple):
    """One parsing pattern: literal segments joined by `<*>` wildcards."""

    event_id: int
    pattern: str
    segments: tuple[str, ...]

    @property
    def literal_length(self) -> int:
        return sum(len(seg) for seg in self.segments)


def compile_template(event_id: int, pattern: str) -> EventTemplate:
    """Split a `<*>`-wildcard pattern into the literal segments a message must hold.

    A wildcard matches any text without a newline, the empty text included;
    a trailing wildcard takes the rest of the message. A pattern must
    contain at least one literal character unless it is the explicit
    catch-all `<*>`.
    """
    if event_id < 1:
        raise CatalogError(f"event id must be a positive integer, got {event_id}")
    segments = tuple(pattern.split(WILDCARD))
    if sum(len(s) for s in segments) == 0 and pattern != WILDCARD:
        raise CatalogError(
            f"template {event_id} has no literal text and is not the catch-all {WILDCARD!r}"
        )
    return EventTemplate(event_id, pattern, segments)


def _index_tokens(segments: tuple[str, ...]) -> tuple[str | None, list[str]]:
    """A template's leading whole literal token (None if it has none) and all its whole literal tokens."""
    last = len(segments) - 1
    leading = None
    whole: list[str] = []
    for i, seg in enumerate(segments):
        tokens = seg.split()
        # A run that touches a wildcard is not whole: the wildcard may extend it.
        if tokens and i < last and not seg[-1].isspace():
            tokens.pop()
        if tokens and i > 0 and not seg[0].isspace():
            del tokens[0]
        if i == 0 and tokens:
            leading = tokens[0]
        whole += tokens
    return leading, whole


def _segment_check(tpl: EventTemplate) -> tuple:
    """What `TemplateCatalog.match` verifies, as one tuple.

    The tuple is `(head, tail, middles, literal_length, template, len(head),
    len(tail))`: `head` and `tail` are the first and last segment, `middles`
    the non-empty segments between them. `tail` is None for a template
    without a wildcard, which only its own text matches.
    """
    segs = tpl.segments
    if len(segs) == 1:
        return segs[0], None, (), tpl.literal_length, tpl, 0, 0
    head, tail = segs[0], segs[-1]
    # An empty middle segment (adjacent wildcards) is found everywhere.
    middles = tuple(seg for seg in segs[1:-1] if seg)
    return head, tail, middles, tpl.literal_length, tpl, len(head), len(tail)


class TemplateCatalog:
    """Ordered template collection; matching tries the most specific template first.

    Order: longest total literal length first, ties broken by lowest event id.
    Each template is indexed under one whole literal token (see the module
    docstring): its leading one, unless some template has whole tokens but
    no leading one; then every template is indexed under the one fewest
    templates share. A template without a whole token, such as the
    catch-all `<*>`, is a candidate for every message. A candidate is
    verified against its literal segments, as the module docstring
    describes.
    """

    def __init__(self, templates: Iterable[EventTemplate]):
        self.templates = tuple(
            sorted(templates, key=lambda t: (-t.literal_length, t.event_id))
        )
        self.by_id: dict[int, EventTemplate] = {}
        for tpl in self.templates:
            if tpl.event_id in self.by_id:
                raise CatalogError(f"duplicate event id {tpl.event_id} in catalog")
            self.by_id[tpl.event_id] = tpl
        self._checks = [_segment_check(tpl) for tpl in self.templates]
        keys = [_index_tokens(tpl.segments) for tpl in self.templates]
        # Split every message whole only when some template needs it.
        self._split_whole = any(leading is None and whole for leading, whole in keys)
        if self._split_whole:
            shared = Counter(token for _, whole in keys for token in set(whole))
            key_of = [min(whole, key=shared.__getitem__) if whole else None for _, whole in keys]
        else:
            key_of = [leading for leading, _ in keys]
        index: dict[str, list[int]] = {}
        always: list[int] = []
        for rank, key in enumerate(key_of):
            if key is None:
                always.append(rank)
            else:
                index.setdefault(key, []).append(rank)
        # Values are ranks in `templates`. Keyed by leading token, a lookup
        # finds one bucket, so the always-tried ranks are merged into each.
        self._always = tuple(always)
        if self._split_whole:
            self._index = {tok: tuple(r) for tok, r in index.items()}
        else:
            self._index = {tok: tuple(sorted(r + always)) for tok, r in index.items()}

    def __len__(self) -> int:
        return len(self.templates)

    def match(self, message: str) -> EventTemplate | None:
        """Return the first (most specific) template that matches the message, else None."""
        if self._split_whole:
            ranks = list(self._always)
            index = self._index
            for token in set(message.split()):
                hit = index.get(token)
                if hit is not None:
                    ranks += hit
            ranks.sort()
        else:
            lead = message.split(None, 1)
            ranks = self._index.get(lead[0], self._always) if lead else self._always
        checks = self._checks
        size = len(message)
        for rank in ranks:
            # `pos` starts as the head's length: where the first middle may start.
            head, tail, middles, length, template, pos, tail_length = checks[rank]
            if tail is None:
                if message == head:
                    return template
                continue
            # An empty head or tail (leading or trailing wildcard) needs no call.
            if size < length or (head and not message.startswith(head)) or (tail and not message.endswith(tail)):
                continue
            end = size - tail_length
            for segment in middles:
                pos = message.find(segment, pos, end)
                if pos < 0:
                    break
                pos += len(segment)
            else:
                if "\n" not in message or message.count("\n") == template.pattern.count("\n"):
                    return template
        return None


def load_template_catalog(path: str | Path) -> TemplateCatalog:
    """Load a catalog file: one `<id><TAB><pattern>` template per line.

    Blank lines and `#` comments are skipped. Raises CatalogError with the
    offending line number for malformed lines, duplicate ids or a line that
    is not valid UTF-8.
    """
    path = Path(path)
    templates = []
    seen: set[int] = set()
    with open_utf8(path, CatalogError) as handle:
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


class _ProfileFields(NamedTuple):
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


class DatasetProfile(_ProfileFields):
    """Per-dataset line conventions. Exactly one label source applies.

    label_source: "sequence-file" (labels attached later from a per-sequence
    file), "event-marker" (a line token marks each event), or "file-dir"
    (one sequence per input file, label derived from its path). Built from
    the fields of `_ProfileFields`, positionally or by name; construction
    and `_replace` both raise ProfileError for an invalid profile.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *args, **kwargs)._checked()

    def _replace(self, **changes) -> DatasetProfile:
        return super()._replace(**changes)._checked()

    def _checked(self) -> DatasetProfile:
        if self.label_source not in ("sequence-file", "event-marker", "file-dir"):
            raise ProfileError(f"unknown label_source: {self.label_source!r}")
        if self.label_source == "event-marker" and self.label_token is None:
            raise ProfileError("event-marker profiles require label_token")
        for key in ("preamble_tokens", "seq_id_token", "label_token"):
            index = getattr(self, key)
            if index is not None and index < 0:
                raise ProfileError(f"{key} must be >= 0, got {index}")
        if self.timestamp_pattern and not self.timestamp_format:
            raise ProfileError("timestamp_pattern requires timestamp_format")
        if self.timezone.upper() != "UTC":
            offset = _OFFSET_RE.fullmatch(self.timezone)
            if offset is None or int(offset.group(2)) >= 24 or int(offset.group(3)) >= 60:
                raise ProfileError(f"unsupported timezone spec: {self.timezone!r} (use UTC or +HH:MM)")
        return self


_PROFILE_INT_KEYS = {"preamble_tokens", "seq_id_token", "base_year", "label_token"}
_PROFILE_BOOL_KEYS = {"tokenized"}
_PROFILE_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_PROFILE_KEYS = set(DatasetProfile._fields)


def load_profile_file(path: str | Path) -> DatasetProfile:
    """Load a flat key = value profile file; every ProfileError names the file."""
    path = Path(path)
    values: dict[str, object] = {}
    with open_utf8(path, ProfileError) as handle:
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
                try:
                    values[key] = int(value)
                except ValueError:
                    raise ProfileError(
                        f"{path}:{line_no}: {key} must be an integer, got {value!r}"
                    ) from None
            elif key in _PROFILE_BOOL_KEYS:
                flag = _PROFILE_BOOLS.get(value.lower())
                if flag is None:
                    raise ProfileError(
                        f"{path}:{line_no}: {key} must be 1, true, yes, 0, false or no, got {value!r}"
                    )
                values[key] = flag
            else:
                values[key] = value
    if "name" not in values or "label_source" not in values:
        raise ProfileError(f"{path}: profile requires at least name and label_source")
    try:
        return DatasetProfile(**values)  # type: ignore[arg-type]
    except ProfileError as exc:
        raise ProfileError(f"{path}: {exc}") from None


#: The bundled profiles, installed as package data next to this module.
#: Found by path, not through `importlib.resources`, which loads `inspect`
#: from Python 3.12 on.
_BUNDLED_PROFILES = Path(__file__).with_name("profiles")


def bundled_profile_names() -> list[str]:
    return sorted(p.stem for p in _BUNDLED_PROFILES.glob("*.profile"))


def load_profile(name_or_path: str | Path) -> DatasetProfile:
    """Resolve a profile by bundled name or by file path."""
    path = Path(name_or_path)
    if path.exists() and path.is_file():
        return load_profile_file(path)
    bundled = _BUNDLED_PROFILES / f"{name_or_path}.profile"
    if bundled.is_file():
        return load_profile_file(bundled)
    raise ProfileError(
        f"no such profile: {name_or_path!r} (bundled: {', '.join(bundled_profile_names())})"
    )


class IngestReport:
    """Exact line accounting for one parse pass.

    parsed_events counts one event per (line, seq_id) pair, i.e. the
    replicated total; lines without any identifier are tallied in
    no_id_lines but still streamed for window-based grouping.
    """

    __slots__ = (
        "lines_total",
        "matched_lines",
        "unmatched_lines",
        "invalid_lines",
        "parsed_events",
        "no_id_lines",
        "timestamp_error_count",
        "timestamp_errors",
    )

    def __init__(self):
        self.lines_total = 0
        self.matched_lines = 0
        self.unmatched_lines = 0
        self.invalid_lines = 0
        self.parsed_events = 0
        self.no_id_lines = 0
        self.timestamp_error_count = 0
        self.timestamp_errors: list[tuple[int, str]] = []

    def add_timestamp_error(self, line_no: int, reason: str) -> None:
        self.timestamp_error_count += 1
        if len(self.timestamp_errors) < TIMESTAMP_ERROR_SAMPLE:
            self.timestamp_errors.append((line_no, reason))


def _epoch(text: str) -> float:
    value = float(text)
    if not isfinite(value):
        raise ValueError("not a finite number")
    return value


def _stamp_converter(profile: DatasetProfile) -> Callable[[str], float] | None:
    """The profile's timestamp-text-to-epoch-seconds function; None without a timestamp_format.

    Only a `strptime` format loads `datetime`; an epoch profile never does.
    Epoch text that is nan or infinite is refused like unparseable text.
    """
    fmt = profile.timestamp_format
    if fmt is None:
        return None
    if fmt == "epoch":
        return _epoch
    from datetime import datetime, timedelta, timezone

    offset = _OFFSET_RE.fullmatch(profile.timezone)
    if offset is None:
        tzinfo = timezone.utc
    else:
        sign = 1 if offset.group(1) == "+" else -1
        tzinfo = timezone(sign * timedelta(hours=int(offset.group(2)), minutes=int(offset.group(3))))
    year = None if "%y" in fmt or "%Y" in fmt else (profile.base_year or 1970)

    def convert(text: str) -> float:
        dt = datetime.strptime(text, fmt)
        if year is not None:
            dt = dt.replace(year=year)
        return dt.replace(tzinfo=tzinfo).timestamp()

    return convert


def parse_timestamp_text(text: str, profile: DatasetProfile) -> float:
    """Parse a timestamp string to epoch seconds per the profile format."""
    convert = _stamp_converter(profile)
    if convert is None:
        raise ValidationError("profile has no timestamp_format")
    return convert(text)


def _compile_profile_regex(profile: DatasetProfile, key: str) -> re.Pattern | None:
    pattern = getattr(profile, key)
    if not pattern:
        return None
    try:
        return re.compile(pattern)
    except re.error as exc:
        raise ProfileError(f"{key} {pattern!r} does not compile: {exc}") from None


def _dedup(ids: Iterable[str]) -> tuple[str, ...]:
    seen: set[str] = set()
    out = []
    for sid in ids:
        if sid and sid not in seen:
            seen.add(sid)
            out.append(sid)
    return tuple(out)


class LineParser:
    """Parses the lines of one file against one catalog under one profile.

    Built once per file: it compiles the profile's regexes and timestamp
    conversion, works out how many leading tokens a line needs, and checks
    the seq-id capture groups up front, so a malformed profile fails before
    the first line. It keeps the last timestamp text and what it parsed to,
    because consecutive lines often carry the same stamp (one-second
    resolution).
    """

    def __init__(self, catalog: TemplateCatalog | None, profile: DatasetProfile):
        if catalog is None or len(catalog) == 0:
            raise ValidationError("cannot parse with an empty template catalog")
        self.catalog = catalog
        self.profile = profile
        self.seq_id_re = _compile_profile_regex(profile, "seq_id_pattern")
        if self.seq_id_re is not None and self.seq_id_re.groups > 1:
            raise ProfileError("seq_id_pattern must have at most one capture group")
        self.ts_re = _compile_profile_regex(profile, "timestamp_pattern")
        self.ts_group = 1 if self.ts_re is not None and self.ts_re.groups else 0
        self.to_epoch = _stamp_converter(profile)
        self.max_token = max(
            profile.preamble_tokens,
            (profile.label_token + 1) if profile.label_token is not None else 0,
            (profile.seq_id_token + 1) if profile.seq_id_token is not None else 0,
        )
        self.marks_labels = profile.label_source == "event-marker" and profile.label_token is not None
        self._stamp_text: str | None = None
        self._stamp: tuple[float | None, str | None] = (None, None)

    def split(self, line: str) -> tuple[list[str], str]:
        """The line's leading tokens and its message.

        Entries below index `max_token` are the line's first whitespace
        tokens; one more entry may hold the rest of the line. The message
        starts at token index `preamble_tokens` and keeps any trailing
        whitespace; a line with fewer tokens has an empty message.
        """
        pre = self.profile.preamble_tokens
        tokens = line.split(None, self.max_token) if self.max_token else []
        if not pre:
            return tokens, line
        parts = tokens if pre == self.max_token else line.split(None, pre)
        return tokens, parts[pre] if len(parts) > pre else ""

    def _timestamp(self, line: str) -> tuple[float | None, str | None]:
        if self.ts_re is None:
            return None, None
        m = self.ts_re.search(line)
        text = None if m is None else m.group(self.ts_group)
        if text is None:
            return None, "timestamp pattern not found"
        if text != self._stamp_text:
            try:
                self._stamp = self.to_epoch(text), None
            except (ValueError, OverflowError) as exc:
                self._stamp = None, f"unparseable timestamp {text!r}: {exc}"
            self._stamp_text = text
        return self._stamp

    def parse(
        self, line: str, line_no: int = 1, report: IngestReport | None = None
    ) -> ParsedEvent | None:
        """Match one line; None when no template matches.

        Matching never throws: an unparseable timestamp yields an event with
        timestamp None plus an error record on `report`.
        """
        profile = self.profile
        tokens, message = self.split(line)
        matched = self.catalog.match(message)
        if matched is None:
            return None

        label: Label | None = None
        if self.marks_labels and profile.label_token < len(tokens):
            marker = tokens[profile.label_token]
            label = NORMAL if marker == profile.normal_marker else Label(True, marker)

        timestamp, ts_error = self._timestamp(line)
        if ts_error and report is not None:
            report.add_timestamp_error(line_no, ts_error)

        seq_ids: tuple[str, ...] = ()
        if profile.seq_id_token is not None:
            if profile.seq_id_token < len(tokens):
                seq_ids = (tokens[profile.seq_id_token],)
        elif self.seq_id_re is not None:
            seq_ids = _dedup(self.seq_id_re.findall(line))
        return ParsedEvent(line_no, matched.event_id, timestamp, seq_ids, label)


def _count_event(report: IngestReport, event: ParsedEvent) -> None:
    report.matched_lines += 1
    report.parsed_events += len(event.seq_ids)
    if not event.seq_ids:
        report.no_id_lines += 1


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
    One `LineParser` parses every line of the file.
    """
    if report is None:
        report = IngestReport()
    if profile.tokenized:
        yield from _parse_tokenized(path, profile, report, seq_id)
        return
    parser = LineParser(catalog, profile)
    with open(path, encoding="utf-8", errors="replace") as handle:
        for line_no, raw in enumerate(handle, 1):
            line = raw.rstrip("\n\r")
            report.lines_total += 1
            if not line.strip():
                report.invalid_lines += 1
                continue
            event = parser.parse(line, line_no, report)
            if event is None:
                report.unmatched_lines += 1
                if unmatched_sink is not None:
                    unmatched_sink.write(raw if raw.endswith("\n") else raw + "\n")
                continue
            if seq_id is not None:
                event = event._replace(seq_ids=(seq_id,))
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
    pattern = _compile_profile_regex(profile, "anomaly_dir_pattern")
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
