from __future__ import annotations

import logging
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import catalog_match_naive, split_line_naive

from logbench.errors import CatalogError, ProfileError, ValidationError
from logbench.events import format_label, parse_label
from logbench.ingest import (
    _index_tokens,
    _stamp_converter,
    _stamp_layout,
    DatasetProfile,
    IngestReport,
    Label,
    LineParser,
    NORMAL,
    ParsedEvent,
    compile_template,
    load_profile,
    load_template_catalog,
    parse_file,
    parse_timestamp_text,
    parse_tree,
    read_events,
    write_events,
    TemplateCatalog,
)


DATA = Path(__file__).parent.parent / "src" / "logbench" / "data"
BENCHMARKS = Path(__file__).parent.parent / "benchmarks"

HDFS_LINE = (
    "081109 203518 143 INFO dfs.DataNode$DataXceiver: "
    "Receiving block blk_123 src: /A dest: /B"
)


def make_catalog(*patterns):
    return TemplateCatalog(compile_template(i, p) for i, p in patterns)


class TestCatalogLoading:
    def test_wildcard_count_example(self, tmp_path):
        f = tmp_path / "t.templates"
        f.write_text("5\tReceiving block <*> src: <*> dest: <*>\n")
        catalog = load_template_catalog(f)
        assert len(catalog) == 1
        assert len(catalog.by_id[5].segments) - 1 == 3

    def test_empty_file_warns(self, tmp_path, caplog):
        f = tmp_path / "empty.templates"
        f.write_text("")
        with caplog.at_level(logging.WARNING):
            catalog = load_template_catalog(f)
        assert len(catalog) == 0
        assert any("empty" in rec.message for rec in caplog.records)

    def test_duplicate_id_rejected(self, tmp_path):
        f = tmp_path / "dup.templates"
        f.write_text("7\tfoo <*>\n7\tbar <*>\n")
        with pytest.raises(CatalogError, match="duplicate"):
            load_template_catalog(f)

    def test_malformed_line_reports_number(self, tmp_path):
        f = tmp_path / "bad.templates"
        f.write_text("1\tok <*>\nnot-a-template\n")
        with pytest.raises(CatalogError, match=":2"):
            load_template_catalog(f)

    def test_no_literal_rejected_unless_catchall(self):
        with pytest.raises(CatalogError):
            compile_template(1, "<*><*>")
        catalog = make_catalog((1, "<*>"))
        assert catalog.match("anything at all") is catalog.by_id[1]
        assert catalog.match("") is catalog.by_id[1]

    @pytest.mark.parametrize("digit", ["²", "①", "٣"])
    def test_non_ascii_digit_id_names_the_line(self, tmp_path, digit):
        """`str.isdigit` takes these, and `int` refuses the first two."""
        f = tmp_path / "digits.templates"
        f.write_text(f"1\tok <*>\n{digit}\tfoo <*>\n")
        with pytest.raises(CatalogError, match=rf"{re.escape(str(f))}:2: expected"):
            load_template_catalog(f)

    def test_comments_and_blanks_skipped(self, tmp_path):
        f = tmp_path / "c.templates"
        f.write_text("# header\n\n1\tfoo <*>\n")
        assert len(load_template_catalog(f)) == 1


class TestTemplateMatching:
    def test_most_specific_first(self):
        catalog = make_catalog((1, "Receiving <*>"), (2, "Receiving block <*>"))
        assert catalog.match("Receiving block blk_1").event_id == 2

    def test_tie_breaks_to_lowest_id(self):
        catalog = make_catalog((9, "abc <*>"), (3, "abd <*>"))
        assert catalog.match("abc x").event_id == 9
        assert [t.event_id for t in catalog.templates] == [3, 9]

    def test_trailing_wildcard_matches_rest(self):
        catalog = make_catalog((1, "tail <*>"), (2, "tail <*> end"))
        assert catalog.match("tail a b c d") is catalog.by_id[1]
        assert catalog.match("tail ") is catalog.by_id[1]
        assert catalog.match("tail a end b") is catalog.by_id[1]
        assert catalog.match("tail a end") is catalog.by_id[2]
        assert catalog.match("tail") is None

    def test_wildcard_non_greedy_until_literal(self):
        catalog = make_catalog((1, "from <*> to <*>"))
        assert catalog.match("from x to y") is catalog.by_id[1]
        # The last wildcard may hold the literal again ("y to z").
        assert catalog.match("from x to y to z") is catalog.by_id[1]
        assert catalog.match("from  to ") is catalog.by_id[1]
        assert catalog.match("from x y") is None

    def test_literal_template_exact_match(self):
        catalog = make_catalog((1, "exact message"))
        assert catalog.match("exact message") is not None
        assert catalog.match("exact message plus") is None


class TestParseLine:
    def test_hdfs_receiving_block(self, synthetic_profile):
        catalog = make_catalog((5, "Receiving block <*> src: <*> dest: <*>"))
        profile = DatasetProfile(
            name="hdfs-test",
            label_source="sequence-file",
            preamble_tokens=5,
            seq_id_pattern=r"blk_-?\d+",
            timestamp_pattern=r"^(\d{6} \d{6})",
            timestamp_format="%y%m%d %H%M%S",
        )
        ev = LineParser(catalog, profile).parse(HDFS_LINE)
        assert ev is not None
        assert ev.event_id == 5
        assert ev.seq_ids == ("blk_123",)
        assert ev.timestamp is not None

    def test_no_match_returns_none(self, synthetic_profile, synthetic_catalog):
        assert (
            LineParser(synthetic_catalog, synthetic_profile).parse("080109 120000 1 INFO x: nothing matches this")
            is None
        )

    def test_dual_identifier_line(self, synthetic_profile, synthetic_catalog):
        line = "080109 120000 1 INFO store.Mirror: Mirroring blk_1 into blk_2"
        ev = LineParser(synthetic_catalog, synthetic_profile).parse(line)
        assert ev.seq_ids == ("blk_1", "blk_2")

    def test_duplicate_ids_in_line_deduped(self, synthetic_profile, synthetic_catalog):
        line = "080109 120000 1 INFO store.Mirror: Mirroring blk_1 into blk_1"
        ev = LineParser(synthetic_catalog, synthetic_profile).parse(line)
        assert ev.seq_ids == ("blk_1",)

    def test_unparseable_timestamp_recorded_not_raised(self, synthetic_catalog):
        profile = DatasetProfile(
            name="t",
            label_source="sequence-file",
            preamble_tokens=5,
            seq_id_pattern=r"blk_\d+",
            timestamp_pattern=r"^(\S+ \S+)",
            timestamp_format="%y%m%d %H%M%S",
        )
        report = IngestReport()
        line = "BADDATE BADTIME 1 INFO store.Writer: Starting transfer for blk_1"
        ev = LineParser(synthetic_catalog, profile).parse(line, 3, report)
        assert ev is not None
        assert ev.timestamp is None
        assert report.timestamp_error_count == 1
        assert report.timestamp_errors[0][0] == 3

    def test_matching_is_deterministic(self, synthetic_profile, synthetic_catalog):
        first = LineParser(synthetic_catalog, synthetic_profile).parse(HDFS_LINE)
        second = LineParser(synthetic_catalog, synthetic_profile).parse(HDFS_LINE)
        assert first == second

    def test_empty_catalog_rejected(self, synthetic_profile, tmp_path):
        f = tmp_path / "e.templates"
        f.write_text("")
        catalog = load_template_catalog(f)
        with pytest.raises(ValidationError):
            LineParser(catalog, synthetic_profile).parse("x")

    def test_event_marker_label(self):
        catalog = make_catalog((1, "core error <*>"))
        profile = DatasetProfile(
            name="bgl-test",
            label_source="event-marker",
            preamble_tokens=2,
            label_token=0,
            normal_marker="-",
        )
        normal = LineParser(catalog, profile).parse("- 123 core error x")
        anom = LineParser(catalog, profile).parse("KERNDTLB 123 core error x")
        assert normal.label == NORMAL
        assert anom.label == Label(True, "KERNDTLB")


# Pieces random templates are glued from: words, separators, wildcards, punctuation.
TEMPLATE_PIECES = ["blk", "ok", "x", "to", " ", "  ", "\t", "\u00a0", ":", "<*>", "<*><*>", "blk<*>", "<*>:x"]
# What a message puts where a template has a wildcard.
FILLS = ["", " ", "  ", "\t", "7", "blk", "blk_3", "ok x", ":", "to", "x:y", "\u00a0"]


def _catalog_from(patterns):
    templates = []
    for event_id, pattern in enumerate(patterns, 1):
        try:
            templates.append(compile_template(event_id, pattern))
        except CatalogError:
            continue  # wildcards only, not the catch-all
    return TemplateCatalog(templates)


@st.composite
def catalog_and_messages(draw):
    """A random catalog and messages built from its templates' own literals."""
    patterns = draw(
        st.lists(
            st.one_of(
                st.just("<*>"),
                st.lists(st.sampled_from(TEMPLATE_PIECES), min_size=1, max_size=7).map("".join),
            ),
            min_size=1,
            max_size=12,
        )
    )
    catalog = _catalog_from(patterns)
    messages = []
    for _ in range(draw(st.integers(1, 12))):
        if catalog.templates and draw(st.booleans()):
            tpl = draw(st.sampled_from(catalog.templates))
            parts = [tpl.segments[0]]
            for seg in tpl.segments[1:]:
                parts += [draw(st.sampled_from(FILLS)), seg]
            message = "".join(parts)
        else:
            message = " ".join(draw(st.lists(st.sampled_from(TEMPLATE_PIECES + FILLS), max_size=5)))
        messages.append(draw(st.sampled_from(["", " ", "\t", "  "])) + message)
    return catalog, messages


def _hit(template):
    return None if template is None else template.event_id


class TestIndexedMatch:
    """The token index picks what the linear scan in catalog order picks."""

    @settings(max_examples=400, deadline=None)
    @given(catalog_and_messages())
    def test_matches_linear_scan_on_random_catalogs(self, case):
        catalog, messages = case
        for message in messages:
            assert _hit(catalog.match(message)) == _hit(catalog_match_naive(catalog, message)), message

    @pytest.mark.parametrize(
        "patterns, message, expected",
        [
            (["<*> served <*>", "x served <*>"], "x served y", 2),  # leading wildcard vs leading token
            (["blk<*> ok", "<*>:x ok"], "blk_1:x ok", 1),  # glued wildcards have no whole first token
            (["<*><*>ok", "<*>"], "a ok", 1),
            (["<*>", "to <*>"], "to x", 2),  # catch-all is tried after the more specific template
            (["<*>", "to <*>"], "", 1),
            (["ok  to", "ok <*>"], "ok  to", 1),  # literal-only, repeated space
            (["ok <*>", "<*> ok <*>"], "\tok ok x", 2),  # leading whitespace in the message
        ],
    )
    def test_edge_cases(self, patterns, message, expected):
        catalog = _catalog_from(patterns)
        assert _hit(catalog_match_naive(catalog, message)) == expected
        assert _hit(catalog.match(message)) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bundled_hdfs_catalog(self, data):
        catalog = load_template_catalog(DATA / "hdfs.templates")
        assert {2, 4, 12, 16, 17} <= {t.event_id for t in catalog.templates if t.pattern.startswith("<*>")}
        tpl = data.draw(st.sampled_from(catalog.templates))
        n_wildcards = len(tpl.segments) - 1
        fills = data.draw(st.lists(st.sampled_from(FILLS), min_size=n_wildcards, max_size=n_wildcards))
        message = tpl.segments[0] + "".join(f + seg for f, seg in zip(fills, tpl.segments[1:]))
        assert _hit(catalog.match(message)) == _hit(catalog_match_naive(catalog, message))

    def test_bundled_hdfs_catalog_on_synthetic_log(self, synthetic_log_path, synthetic_profile):
        catalog = load_template_catalog(DATA / "hdfs.templates")
        parser = LineParser(catalog, synthetic_profile)
        for line in synthetic_log_path.read_text().splitlines():
            _, message = parser.split(line)
            expected = _hit(catalog_match_naive(catalog, message))
            assert _hit(catalog.match(message)) == expected
            event = parser.parse(line)
            assert (event and event.event_id) == expected


# Pieces for templates whose segments overlap, repeat and hold line breaks.
SEGMENT_PIECES = ["a", "b", "ab", " ", "\n", "\r", "<*>"]
SEGMENT_FILLS = ["", "a", "b", "ab", "ba", " ", "\n", "\r"]


# Templates with a whole literal token but no leading one: a catalog holding
# one keys every template by its rarest whole token.
INNER_KEYED = ["<*> a", "<*> ab <*>", "a<*> b", "<*>\nb a", "b<*> ab\r", "<*> a b a"]


@st.composite
def segment_cases(draw, inner_keyed=False):
    """Patterns over a two-letter alphabet and messages near them, the empty one included.

    With `inner_keyed`, one of the patterns is drawn from INNER_KEYED.
    """
    patterns = draw(
        st.lists(st.lists(st.sampled_from(SEGMENT_PIECES), min_size=1, max_size=6).map("".join), min_size=1, max_size=6)
    )
    if inner_keyed:
        patterns.insert(draw(st.integers(0, len(patterns))), draw(st.sampled_from(INNER_KEYED)))
    messages = [""]
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            segments = draw(st.sampled_from(patterns)).split("<*>")
            message = segments[0] + "".join(draw(st.sampled_from(SEGMENT_FILLS)) + seg for seg in segments[1:])
        else:
            message = "".join(draw(st.lists(st.sampled_from(SEGMENT_FILLS), max_size=6)))
        messages.append(message)
    return patterns, messages


class TestSegmentMatch:
    """Segment verification matches what a regex per template matches."""

    @settings(max_examples=500, deadline=None)
    @given(segment_cases())
    @example((["ab<*>ba"], ["aba", "abba", "ab ba"]))  # head and tail overlap
    @example((["a<*>b<*>c", "a<*><*>c"], ["abc", "ac", "abbc"]))  # adjacent segments, adjacent wildcards
    @example((["a<*>a<*>a", "<*>ab<*>ab"], ["aa", "aaa", "aaaa", "abab", "ab"]))  # repeated segments
    @example((["a<*>", "<*>", "a\n<*>b"], ["a\n", "a\r", "\n", "\r", "", "a\nb", "a\n\nb"]))  # line breaks
    def test_matches_regex_oracle(self, case):
        patterns, messages = case
        catalog = _catalog_from(patterns)
        for message in messages:
            assert _hit(catalog.match(message)) == _hit(catalog_match_naive(catalog, message)), (patterns, message)

    @settings(max_examples=500, deadline=None)
    @given(segment_cases(inner_keyed=True))
    @example((["<*> a", "a <*>", "b a<*>"], ["b a", "a a", "a b a", " a"]))  # leading and inner keys at once
    @example((["<*> a b a", "<*> b", "<*>"], ["a b a", "b", "x a b a", ""]))  # a shared token is not the key
    def test_rarest_token_keys_match_regex_oracle(self, case):
        patterns, messages = case
        catalog = _catalog_from(patterns)
        keys = [_index_tokens(tpl.segments) for tpl in catalog.templates]
        assert any(leading is None and whole for leading, whole in keys)
        for message in messages:
            assert _hit(catalog.match(message)) == _hit(catalog_match_naive(catalog, message)), (patterns, message)

    def test_loading_the_wide_catalog_compiles_no_regex(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        import generate

        truth = generate.generate("wide-catalog", 1, tmp_path, scale=0.05)
        compiled = []
        compile_ = re.compile
        monkeypatch.setattr(re, "compile", lambda *args, **kwargs: compiled.append(args) or compile_(*args, **kwargs))
        catalog = load_template_catalog(tmp_path / truth["files"]["templates"])
        assert len(catalog) == 1000
        assert compiled == []


WHITESPACE = [" ", "  ", "\t", "\x0b", "\x1c", "\u00a0", "\u2003"]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(WHITESPACE), st.sampled_from(["a", "bb", "-", "blk_1", "\u00e9"])),
        max_size=12,
    ).map("".join),
    st.integers(0, 3),
    st.sampled_from([None, 0, 2, 5]),
)
def test_line_split_matches_regex_offsets(line, preamble, label_token):
    """LineParser.split cuts tokens and message where the regex token offsets do."""
    profile = DatasetProfile(
        name="p",
        label_source="sequence-file" if label_token is None else "event-marker",
        preamble_tokens=preamble,
        label_token=label_token,
    )
    parser = LineParser(make_catalog((1, "a <*>")), profile)
    tokens, message = parser.split(line)
    expected_tokens, expected_message = split_line_naive(line, preamble, parser.max_token)
    assert (tokens[: parser.max_token], message) == (expected_tokens, expected_message)


class TestTimestampMemo:
    PROFILE = DatasetProfile(
        name="m",
        label_source="sequence-file",
        preamble_tokens=2,
        seq_id_pattern=r"blk_\d+",
        timestamp_pattern=r"^(?:(\d{6} \d{6})|XX)\s",
        timestamp_format="%y%m%d %H%M%S",
    )
    STAMPS = [
        "080109 120000",
        "080109 120000",
        "080109 120001",
        "081399 120001",  # month 13: unparseable
        "081399 120001",
        "080109 120001",
        "081399 120001",
        "XX YY",  # the stamp group takes no part in the match
        "080109 120000",
    ]

    def test_same_timestamps_and_errors_as_per_line_parsing(self, tmp_path):
        catalog = make_catalog((1, "Finalizing <*>"))
        log = tmp_path / "stamps.log"
        log.write_text("".join(f"{stamp} Finalizing blk_{i}\n" for i, stamp in enumerate(self.STAMPS)))
        memo_report = IngestReport()
        events = list(parse_file(log, catalog, self.PROFILE, report=memo_report))

        line_report = IngestReport()
        for line_no, line in enumerate(log.read_text().splitlines(), 1):
            expected = LineParser(catalog, self.PROFILE).parse(line, line_no, line_report)
            assert events[line_no - 1] == expected
        assert memo_report.timestamp_errors == line_report.timestamp_errors
        assert [n for n, _ in memo_report.timestamp_errors] == [4, 5, 7, 8]

        for event, stamp in zip(events, self.STAMPS):
            try:
                value = parse_timestamp_text(stamp, self.PROFILE)
            except ValueError:
                value = None
            assert event.timestamp == value


#: The stamp formats the decoder is checked on; the last two have no year, so they are
#: read as "%Y " + format on the text prefixed with the profile's base year 2012.
STAMP_FORMATS = ["%y%m%d %H%M%S", "%Y-%m-%d %H:%M:%S,%f", "%Y-%m-%d %H:%M:%S.%f", "%H:%M:%S.%f", "%m-%d %H:%M:%S"]
STAMP_ZONES = ["UTC", "+05:30", "-11:45"]
#: Non-ASCII digits: Arabic-Indic and fullwidth ones match `\d`, so `strptime` reads them.
FOREIGN_DIGITS = ["٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９", "⁰¹²³⁴⁵⁶⁷⁸⁹"]


def _stamp_profile(fmt, zone):
    return DatasetProfile(
        name="s", label_source="sequence-file", timestamp_format=fmt, timezone=zone, base_year=2012
    )


def _strptime_outcome(text, fmt, zone):
    """The reference: `strptime`'s epoch seconds for `text` in `zone`, or its error text."""
    from datetime import datetime, timedelta, timezone

    offset = timedelta(0) if zone == "UTC" else timedelta(hours=int(zone[1:3]), minutes=int(zone[4:]))
    tzinfo = timezone(-offset if zone[0] == "-" else offset)
    if "%y" not in fmt and "%Y" not in fmt:
        text, fmt = f"2012 {text}", f"%Y {fmt}"
    try:
        return datetime.strptime(text, fmt).replace(tzinfo=tzinfo).timestamp()
    except ValueError as exc:
        return str(exc)


def _outcome(convert, text):
    try:
        return convert(text)
    except ValueError as exc:
        return str(exc)


def _render(fmt, fields):
    out = fmt
    for directive, value in fields.items():
        out = out.replace(f"%{directive}", value)
    return out


#: An on-layout stamp's fields, and edge cases as changes to them.
BASE_FIELDS = {"Y": "2008", "y": "08", "m": "11", "d": "09", "H": "20", "M": "35", "S": "18", "f": "123"}
EDGE_FIELDS = [
    {},
    {"m": "00"}, {"m": "13"}, {"d": "00"}, {"d": "31"}, {"d": "32"}, {"m": "04", "d": "31"},
    {"Y": "1900", "m": "02", "d": "29"}, {"Y": "2000", "y": "00", "m": "02", "d": "29"},
    {"Y": "2023", "y": "23", "m": "02", "d": "29"}, {"Y": "1996", "y": "96", "m": "02", "d": "29"},
    {"H": "24"}, {"M": "60"}, {"S": "60"}, {"S": "61"}, {"Y": "0000"}, {"Y": "0001", "m": "01", "d": "01"},
    {"Y": "9999", "m": "12", "d": "31", "H": "23", "M": "59", "S": "59", "f": "999999"},
    {"y": "68"}, {"y": "69"}, {"y": "99"}, {"y": "00"},
    {"f": "1"}, {"f": "12"}, {"f": "1234"}, {"f": "12345"}, {"f": "123456"}, {"f": "1234567"},
    {"d": " 9"}, {"m": "+1"}, {"M": "1_"}, {"S": "5"},
]


@st.composite
def stamp_texts(draw, fmt):
    """Stamps for `fmt`: mostly on its layout, some with foreign digits, other whitespace, or a length off by one."""
    fields = {
        "Y": f"{draw(st.integers(0, 9999)):04d}",
        "y": f"{draw(st.integers(0, 99)):02d}",
        "m": f"{draw(st.integers(0, 13)):02d}",
        "d": f"{draw(st.integers(0, 32)):02d}",
        "H": f"{draw(st.integers(0, 24)):02d}",
        "M": f"{draw(st.integers(0, 60)):02d}",
        "S": f"{draw(st.integers(0, 61)):02d}",
        "f": draw(st.text("0123456789", min_size=1, max_size=7)),
    }
    text = _render(fmt, fields)
    change = draw(st.sampled_from(["none", "none", "digits", "digit", "space", "short", "long"]))
    if change in ("digits", "digit"):
        table = draw(st.sampled_from(FOREIGN_DIGITS))
        positions = [i for i, c in enumerate(text) if c.isdigit()]
        if change == "digit":
            positions = [draw(st.sampled_from(positions))]
        chars = list(text)
        for i in positions:
            chars[i] = table[int(chars[i])]
        text = "".join(chars)
    elif change == "space" and " " in text:
        text = text.replace(" ", draw(st.sampled_from(["  ", "\t", "\u00a0"])), 1)
    elif change == "short":
        text = text[:-1]
    elif change == "long":
        text += draw(st.sampled_from(["0", "7", " ", "x"]))
    return text


class TestStampDecoder:
    """The fixed-width decoder gives `strptime`'s value or error text on every stamp."""

    def test_layouts(self):
        assert [_stamp_layout(fmt) is not None for fmt in STAMP_FORMATS] == [True, True, True, False, False]
        # a year-less numeric format is decoded once its base-year prefix is added
        assert all(_stamp_layout("%Y " + fmt) is not None for fmt in STAMP_FORMATS[3:])
        for fmt in [
            "%b %d %H:%M:%S", "%Y %y", "%Y%Y", "%Y-%m-%d  %H", "%Y\t%m", "%Y1%m", "%Y%%", "%Y%",
            "%Y%f%m", "%f%Y", "%m%d", "%Y-%m-%d %H:%M:%S %z", "",
        ]:
            assert _stamp_layout(fmt) is None, fmt
        shapes, fields, width, short_year = _stamp_layout("%Y-%m-%dT%H:%M:%S.%f")
        assert (width, short_year, sorted(shapes)) == (20, False, [21, 22, 23, 24, 25, 26])
        assert shapes[23] == "0000-00-00T00:00:00.000"
        assert fields == ((0, 0, 4), (1, 5, 7), (2, 8, 10), (3, 11, 13), (4, 14, 16), (5, 17, 19))

    @pytest.mark.parametrize("zone", STAMP_ZONES)
    @pytest.mark.parametrize("fmt", STAMP_FORMATS)
    def test_edge_stamps(self, fmt, zone):
        convert = _stamp_converter(_stamp_profile(fmt, zone))
        for change in EDGE_FIELDS:
            text = _render(fmt, {**BASE_FIELDS, **change})
            for variant in (text, text[:-1], text + "0", text.replace(" ", "  "), text.replace(" ", "\t")):
                assert _outcome(convert, variant) == _strptime_outcome(variant, fmt, zone), variant
            for table in FOREIGN_DIGITS:
                foreign = "".join(table[int(c)] if c.isascii() and c.isdigit() else c for c in text)
                assert _outcome(convert, foreign) == _strptime_outcome(foreign, fmt, zone), foreign

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_strptime(self, data):
        fmt = data.draw(st.sampled_from(STAMP_FORMATS))
        zone = data.draw(st.sampled_from(STAMP_ZONES))
        text = data.draw(stamp_texts(fmt))
        convert = _stamp_converter(_stamp_profile(fmt, zone))
        assert _outcome(convert, text) == _strptime_outcome(text, fmt, zone)


class TestEpochStamps:
    PROFILE = DatasetProfile(
        name="e",
        label_source="sequence-file",
        preamble_tokens=2,
        timestamp_pattern=r"^\S+ (\S+)",
        timestamp_format="epoch",
        seq_id_pattern=r"blk_\d+",
    )

    def test_non_finite_stamp_is_an_error_and_the_event_is_kept(self, tmp_path):
        stamps = ["5", "nan", "inf", "-inf", "1e999", "-Infinity", "NaN", "6.5", "x"]
        log = tmp_path / "epoch.log"
        log.write_text("".join(f"a {stamp} Finalizing blk_{i}\n" for i, stamp in enumerate(stamps)))
        report = IngestReport()
        events = list(parse_file(log, make_catalog((1, "Finalizing <*>")), self.PROFILE, report=report))
        assert [ev.timestamp for ev in events] == [5.0] + [None] * 6 + [6.5, None]
        assert report.timestamp_error_count == 7
        assert [n for n, _ in report.timestamp_errors] == [2, 3, 4, 5, 6, 7, 9]
        assert "unparseable timestamp 'nan': not a finite number" in report.timestamp_errors[0][1]

    def test_epoch_text_to_seconds(self):
        assert parse_timestamp_text("1117838570.5", self.PROFILE) == 1117838570.5
        with pytest.raises(ValueError, match="not a finite number"):
            parse_timestamp_text("inf", self.PROFILE)


class TestLineParserChecksProfile:
    @pytest.mark.parametrize(
        "field, pattern, message",
        [
            ("seq_id_pattern", "blk_(", "seq_id_pattern"),
            ("timestamp_pattern", r"^(\d+", "timestamp_pattern"),
            ("seq_id_pattern", r"(blk)_(\d+)", "at most one capture group"),
        ],
    )
    def test_bad_pattern_raises_profile_error_when_built(self, field, pattern, message):
        kwargs = {field: pattern}
        if field == "timestamp_pattern":
            kwargs["timestamp_format"] = "epoch"
        profile = DatasetProfile(name="bad", label_source="sequence-file", **kwargs)
        with pytest.raises(ProfileError, match=message):
            LineParser(make_catalog((1, "x <*>")), profile)

    def test_bad_timezone_and_anomaly_dir_pattern(self, tmp_path):
        with pytest.raises(ProfileError, match="timezone"):
            DatasetProfile(name="bad", label_source="sequence-file", timezone="CET")
        profile = DatasetProfile(name="bad", label_source="file-dir", tokenized=True, anomaly_dir_pattern="Attack_(")
        with pytest.raises(ProfileError, match="anomaly_dir_pattern"):
            list(parse_tree(tmp_path, None, profile))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"label_source": "stdin"}, "label_source"),
            ({"label_source": "event-marker"}, "label_token"),
            ({"timestamp_format": None}, "timestamp_format"),
            ({"timezone": "+5:00"}, "timezone"),
            ({"timezone": "+25:00"}, "timezone"),
            ({"timezone": "-24:00"}, "timezone"),
            ({"timezone": "+00:60"}, "timezone"),
            ({"preamble_tokens": -1}, "preamble_tokens must be >= 0"),
            ({"seq_id_token": -1}, "seq_id_token must be >= 0"),
            ({"label_token": -1}, "label_token must be >= 0"),
        ],
    )
    def test_replace_validates(self, change, message):
        profile = load_profile("hdfs")
        with pytest.raises(ProfileError, match=message):
            profile._replace(**change)
        assert profile._replace(timezone="-03:30").timezone == "-03:30"

    @pytest.mark.parametrize(
        "value, expected", [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("False", False), ("NO", False)]
    )
    def test_boolean_profile_values(self, tmp_path, value, expected):
        f = tmp_path / "flag.profile"
        f.write_text(f"name = x\nlabel_source = file-dir\ntokenized = {value}\n")
        assert load_profile(f).tokenized is expected

    @pytest.mark.parametrize("value", ["ture", "on", ""])
    def test_unknown_boolean_value_names_the_line(self, tmp_path, value):
        f = tmp_path / "flag.profile"
        f.write_text(f"name = x\nlabel_source = file-dir\ntokenized = {value}\n")
        with pytest.raises(ProfileError, match=rf"{f}:3: tokenized"):
            load_profile(f)

    def test_non_integer_profile_value_names_the_line(self, tmp_path):
        f = tmp_path / "bad.profile"
        f.write_text("name = x\nlabel_source = sequence-file\npreamble_tokens = five\n")
        with pytest.raises(ProfileError, match=rf"{f}:3: preamble_tokens"):
            load_profile(f)


class TestParseFile:
    def test_three_line_file_with_dual_id_yields_four_events(
        self, tmp_path, synthetic_profile, synthetic_catalog
    ):
        f = tmp_path / "mini.log"
        f.write_text(
            "080109 120000 1 INFO store.Writer: Starting transfer for blk_1\n"
            "080109 120001 1 INFO store.Mirror: Mirroring blk_1 into blk_2\n"
            "080109 120002 1 INFO store.Writer: Finalizing blk_2\n"
        )
        report = IngestReport()
        events = list(parse_file(f, synthetic_catalog, synthetic_profile, report=report))
        assert report.lines_total == 3
        assert report.parsed_events == 4
        assert report.parsed_events > report.lines_total
        assert sum(len(e.seq_ids) for e in events) == 4

    def test_only_unmatched_lines(self, tmp_path, synthetic_profile, synthetic_catalog):
        f = tmp_path / "junk.log"
        f.write_text("070101 010101 1 INFO x: gibberish one\n070101 010101 1 INFO x: gibberish two\n")
        report = IngestReport()
        events = list(parse_file(f, synthetic_catalog, synthetic_profile, report=report))
        assert events == []
        assert report.unmatched_lines == report.lines_total == 2
        assert report.parsed_events == 0

    def test_no_silent_loss_accounting(self, tmp_path, synthetic_profile, synthetic_catalog):
        f = tmp_path / "mixed.log"
        f.write_text(
            "080109 120000 1 INFO store.Writer: Starting transfer for blk_1\n"
            "\n"
            "080109 120001 1 INFO x: unmatched gibberish\n"
            "080109 120002 1 INFO store.Writer: Finalizing blk_1\n"
        )
        report = IngestReport()
        list(parse_file(f, synthetic_catalog, synthetic_profile, report=report))
        assert (
            report.matched_lines + report.unmatched_lines + report.invalid_lines
            == report.lines_total
            == 4
        )

    def test_unmatched_side_dump(self, tmp_path, synthetic_profile, synthetic_catalog):
        f = tmp_path / "m.log"
        f.write_text("080109 120000 1 INFO x: gibberish\n")
        sink = tmp_path / "unmatched.log"
        with open(sink, "w") as handle:
            list(parse_file(f, synthetic_catalog, synthetic_profile, unmatched_sink=handle))
        assert "gibberish" in sink.read_text()

    def test_bundled_log_counts(self, synthetic_log_path, synthetic_profile, synthetic_catalog):
        report = IngestReport()
        events = list(parse_file(synthetic_log_path, synthetic_catalog, synthetic_profile, report=report))
        assert report.lines_total == 15
        assert report.matched_lines == 14
        assert report.unmatched_lines == 1
        assert report.parsed_events == 15  # one dual-id line
        assert len(events) == 14

    def test_tokenized_mode(self, tmp_path):
        profile = DatasetProfile(name="tk", label_source="file-dir", tokenized=True)
        f = tmp_path / "trace.txt"
        f.write_text("6 6 63 6 42\n120 6\n")
        report = IngestReport()
        events = list(parse_file(f, None, profile, report=report))
        assert [e.event_id for e in events] == [6, 6, 63, 6, 42, 120, 6]
        assert all(e.seq_ids == ("trace",) for e in events)
        assert report.lines_total == report.parsed_events == 7

    def test_tokenized_non_ascii_digit_is_an_invalid_line(self, tmp_path):
        profile = DatasetProfile(name="tk", label_source="file-dir", tokenized=True)
        f = tmp_path / "trace.txt"
        f.write_text("6 ² 7 ① ٣\n")
        report = IngestReport()
        events = list(parse_file(f, None, profile, report=report))
        assert [(e.line_no, e.event_id) for e in events] == [(1, 6), (3, 7)]
        assert (report.lines_total, report.invalid_lines, report.matched_lines) == (5, 3, 2)

    def test_parse_tree_and_dir_labels(self, tmp_path):
        profile = DatasetProfile(
            name="tk",
            label_source="file-dir",
            tokenized=True,
            anomaly_dir_pattern=r"Attack_Data_Master/([A-Za-z_]+?)_\d",
        )
        (tmp_path / "Training_Data_Master").mkdir()
        (tmp_path / "Attack_Data_Master" / "Hydra_FTP_1").mkdir(parents=True)
        (tmp_path / "Training_Data_Master" / "UTD-0001.txt").write_text("1 2 3\n")
        (tmp_path / "Attack_Data_Master" / "Hydra_FTP_1" / "UAD-1.txt").write_text("4 5\n")
        report = IngestReport()
        events = list(parse_tree(tmp_path, None, profile, report=report))
        assert report.parsed_events == 5
        assert [(e.seq_ids, e.event_id, e.label) for e in events] == [
            (("Attack_Data_Master/Hydra_FTP_1/UAD-1.txt",), 4, Label(True, "Hydra_FTP")),
            (("Attack_Data_Master/Hydra_FTP_1/UAD-1.txt",), 5, Label(True, "Hydra_FTP")),
            (("Training_Data_Master/UTD-0001.txt",), 1, NORMAL),
            (("Training_Data_Master/UTD-0001.txt",), 2, NORMAL),
            (("Training_Data_Master/UTD-0001.txt",), 3, NORMAL),
        ]

    def test_dir_label_tag_kept_as_matched(self, tmp_path):
        # a tag that reads like a normal alias or an anomaly word stays the tag
        profile = DatasetProfile(name="tk", label_source="file-dir", tokenized=True, anomaly_dir_pattern=r"attack/(\d+)")
        for rel in ("attack/0/a.txt", "attack/1/b.txt", "attack/x/c.txt", "clean/d.txt"):
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text("7\n")
        labels = {e.seq_ids[0]: e.label for e in parse_tree(tmp_path, None, profile)}
        assert labels == {
            "attack/0/a.txt": Label(True, "0"),
            "attack/1/b.txt": Label(True, "1"),
            "attack/x/c.txt": NORMAL,
            "clean/d.txt": NORMAL,
        }
        assert [format_label(labels[k]) for k in sorted(labels)[:2]] == ["anomalous:0", "anomalous:1"]

    def test_dir_label_without_a_group_is_the_match(self, tmp_path):
        profile = DatasetProfile(name="tk", label_source="file-dir", tokenized=True, anomaly_dir_pattern="bad")
        (tmp_path / "bad").mkdir()
        (tmp_path / "bad" / "t.txt").write_text("1\n")
        (tmp_path / "ok.txt").write_text("2\n")
        assert [e.label for e in parse_tree(tmp_path, None, profile)] == [Label(True, "bad"), NORMAL]

    def test_dir_profile_without_a_pattern_leaves_events_unlabeled(self, tmp_path):
        profile = DatasetProfile(name="tk", label_source="file-dir", tokenized=True)
        (tmp_path / "attack").mkdir()
        (tmp_path / "attack" / "t.txt").write_text("1\n")
        (tmp_path / "ok.txt").write_text("2\n")
        events = list(parse_tree(tmp_path, None, profile))
        assert [(e.seq_ids, e.label) for e in events] == [(("attack/t.txt",), None), (("ok.txt",), None)]

    def test_event_marker_directory_keeps_line_labels(self, tmp_path):
        profile = DatasetProfile(
            name="em", label_source="event-marker", label_token=0, preamble_tokens=1,
            anomaly_dir_pattern="attack",
        )
        (tmp_path / "attack").mkdir()
        (tmp_path / "attack" / "n1.log").write_text("- boot ok\nKERN boot failed\n")
        (tmp_path / "n2.log").write_text("- boot ok\n")
        events = list(parse_tree(tmp_path, make_catalog((1, "boot <*>")), profile))
        assert [(e.seq_ids, e.label) for e in events] == [
            (("attack/n1.log",), NORMAL),
            (("attack/n1.log",), Label(True, "KERN")),
            (("n2.log",), NORMAL),
        ]

    def test_sequence_file_directory_leaves_events_unlabeled(self, tmp_path):
        # only a file-dir profile compiles its directory pattern
        profile = DatasetProfile(name="sf", label_source="sequence-file", tokenized=True, anomaly_dir_pattern="(")
        (tmp_path / "attack").mkdir()
        (tmp_path / "attack" / "t.txt").write_text("1 2\n")
        events = list(parse_tree(tmp_path, None, profile))
        assert [(e.seq_ids, e.label) for e in events] == [(("attack/t.txt",), None)] * 2


class TestEventStore:
    def test_round_trip_one_row_per_pair(self, tmp_path):
        events = [
            ParsedEvent(1, 5, 100.5, ("a", "b"), None),
            ParsedEvent(2, 7, None, ("a",), Label(True, "x")),
        ]
        out = tmp_path / "events.tsv"
        with open(out, "w", newline="") as handle:
            rows = write_events(events, handle)
        assert rows == 3
        back = list(read_events(out))
        assert [(e.line_no, e.event_id, e.seq_ids) for e in back] == [
            (1, 5, ("a",)),
            (1, 5, ("b",)),
            (2, 7, ("a",)),
        ]
        assert back[0].timestamp == 100.5
        assert back[2].label == Label(True, "x")

    def test_unidentified_events_skipped_unless_kept(self, tmp_path):
        events = [ParsedEvent(1, 5, None, (), None)]
        out = tmp_path / "events.tsv"
        with open(out, "w", newline="") as handle:
            assert write_events(events, handle) == 0
        with open(out, "w", newline="") as handle:
            assert write_events(events, handle, keep_unidentified=True) == 1
        back = list(read_events(out))
        assert back[0].seq_ids == ()


class TestProfiles:
    def test_bundled_profiles_load(self):
        for name in ("hdfs", "bgl", "thunderbird", "hadoop", "adfa", "openstack", "synthetic"):
            profile = load_profile(name)
            assert profile.name == name

    def test_unknown_profile(self):
        with pytest.raises(ProfileError, match="no such profile"):
            load_profile("does-not-exist")

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "bad.profile"
        f.write_text("name = x\nlabel_source = sequence-file\nbogus_key = 1\n")
        with pytest.raises(ProfileError, match="bogus_key"):
            load_profile(f)

    def test_event_marker_requires_label_token(self):
        with pytest.raises(ProfileError):
            DatasetProfile(name="x", label_source="event-marker")

    def test_base_year_applied_for_yearless_formats(self):
        profile = DatasetProfile(
            name="y",
            label_source="sequence-file",
            preamble_tokens=3,
            timestamp_pattern=r"^(\w{3} +\d+ \d{2}:\d{2}:\d{2})",
            timestamp_format="%b %d %H:%M:%S",
            base_year=2005,
        )
        catalog = make_catalog((1, "session closed <*>"))
        ev = LineParser(catalog, profile).parse("Nov  9 12:01:01 session closed for root")
        import datetime

        dt = datetime.datetime.fromtimestamp(ev.timestamp, datetime.timezone.utc)
        assert dt.year == 2005

    @pytest.mark.parametrize("fmt", ["%b %d %H:%M:%S", "%m-%d %H:%M:%S"])
    def test_feb_29_parses_only_in_a_leap_base_year(self, fmt):
        """A year-less stamp is built in base_year itself, not in strptime's default year 1900."""
        from datetime import datetime, timezone

        text = "Feb 29 12:01:01" if fmt.startswith("%b") else "02-29 12:01:01"
        catalog = make_catalog((1, "session closed <*>"))
        for year, expected in ((2008, datetime(2008, 2, 29, 12, 1, 1, tzinfo=timezone.utc).timestamp()), (2007, None)):
            profile = DatasetProfile(
                name="y",
                label_source="sequence-file",
                preamble_tokens=3 if fmt.startswith("%b") else 2,
                timestamp_pattern=r"^(\S+ +\S+ \S+)" if fmt.startswith("%b") else r"^(\S+ \S+)",
                timestamp_format=fmt,
                base_year=year,
            )
            report = IngestReport()
            ev = LineParser(catalog, profile).parse(f"{text} session closed for root", 1, report)
            assert ev.timestamp == expected
            assert report.timestamp_error_count == (expected is None)
            if expected is None:
                assert "day is out of range for month" in report.timestamp_errors[0][1]

    def test_label_round_trip(self):
        for label in (None, NORMAL, Label(True), Label(True, "net")):
            assert parse_label(format_label(label)) == label


@given(st.lists(st.sampled_from(["blk_1", "blk_2", "blk_3"]), min_size=1, max_size=3, unique=True))
def test_replication_identity(ids):
    """Sum over lines of |seq_ids| equals the replicated parsed-event count."""
    profile = DatasetProfile(
        name="p", label_source="sequence-file", preamble_tokens=0, seq_id_pattern=r"blk_\d+"
    )
    catalog = make_catalog((1, "touch <*>"))
    line = "touch " + " ".join(ids)
    ev = LineParser(catalog, profile).parse(line)
    assert len(ev.seq_ids) == len(ids)
