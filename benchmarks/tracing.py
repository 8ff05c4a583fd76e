"""The traced run: the pipeline's layers called in-process, with spans around each call.

Spans are recorded from the benchmark's side of each public function the CLI
calls, never from inside the program. Each span keeps its name, start, end,
parent span and pass id in memory; they are written out once the pass ends.
A span's self time is its duration minus the time its child spans cover.

Detector `fit`/`score_batch`, `evaluation.split`, `evaluation.evaluate_run` and
`detectors.levenshtein` are wrapped only for the duration of a traced pass
and restored afterwards, so the end-to-end run never pays for them.
"""

from __future__ import annotations

import functools
import json
import re
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

#: Base detectors the per-layer metrics are reported for, in reporting order.
BASE_DETECTORS = (
    "event", "length", "ecvc", "ecvc-idf", "ngram2", "ngram3", "ngram10", "edit", "timing",
)

STAGES = ("parse", "group", "stats", "complexity", "eval")


class Tracer:
    """In-memory span and counter recorder for one or more traced passes."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, pass id]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.pass_id = 0

    def begin_pass(self, pass_id: int) -> None:
        """Start a new pass: later spans carry `pass_id`, and the counters restart at zero."""
        self.pass_id = pass_id
        self.counters = Counter()

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None, self.pass_id]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, fn, name):
        """Wrap `fn` in a span; `name` is a string or a function of the call's arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(*args) if callable(name) else name):
                return fn(*args, **kwargs)

        return traced

    def totals(self, pass_id: int) -> dict[str, dict[str, float]]:
        """Per span name: summed duration, summed self time and call count for one pass."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, pid) in enumerate(self.spans):
            if pid != pass_id:
                continue
            entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            entry["s"] += end - start
            entry["self_s"] += end - start - child[i]
            entry["calls"] += 1
        return out

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, pid) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end, "parent": parent, "pass": pid}
                    )
                    + "\n"
                )


@contextmanager
def instrumented(tracer: Tracer):
    """Temporarily wrap detector, evaluation and levenshtein entry points."""
    from logbench import detectors, evaluation

    saved: list[tuple[object, str, object, bool]] = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
        setattr(owner, attr, replacement)

    def score_batch_of(fn):
        @functools.wraps(fn)
        def traced(self, seqs):
            tracer.counters[f"detectors.{self.name}.seqs"] += len(seqs)
            if self.name == "edit":
                tracer.counters["detectors.edit.distinct_targets"] += len(
                    {tuple(s.events) for s in seqs}
                )
            with tracer.span(f"detectors.{self.name}.score"):
                return fn(self, seqs)

        return traced

    levenshtein = detectors.levenshtein

    def counted_levenshtein(a, b, *, cutoff=None):
        tracer.counters["detectors.edit.pairs"] += 1
        return levenshtein(a, b, cutoff=cutoff)

    try:
        for cls in (
            detectors.NewEventTypeDetector,
            detectors.SequenceLengthDetector,
            detectors.CountVectorDetector,
            detectors.NGramDetector,
            detectors.EditDistanceDetector,
            detectors.EventTimingDetector,
        ):
            patch(cls, "fit", tracer.wrap(cls.fit, lambda self, *a: f"detectors.{self.name}.fit"))
            patch(cls, "score_batch", score_batch_of(cls.score_batch))
        patch(detectors, "levenshtein", counted_levenshtein)
        patch(evaluation, "split", tracer.wrap(evaluation.split, "evaluation.split"))
        patch(evaluation, "evaluate_run", tracer.wrap(evaluation.evaluate_run, "evaluation.evaluate_run"))
        yield
    finally:
        for owner, attr, original, own in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _messages(log: Path, preamble: int) -> list[str]:
    """The message part of each non-blank line, as the parser cuts it."""
    out = []
    with open(log, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.rstrip("\n\r")
            if not line.strip():
                continue
            parts = line.split(None, preamble)
            out.append(parts[preamble] if len(parts) > preamble else "")
    return out


def _stamps(log: Path, pattern: str) -> list[str]:
    regex = re.compile(pattern)
    out = []
    with open(log, encoding="utf-8") as handle:
        for line in handle:
            m = regex.search(line)
            if m is not None:
                out.append(m.group(1) if m.groups() else m.group(0))
    return out


def traced_pass(tracer: Tracer, w, inputs: dict[str, Path], out: Path) -> dict:
    """Run the workload's chain in-process under spans; return the pass's raw facts."""
    from logbench import cli, complexity, evaluation, ingest, sequencing, stats
    from logbench.detectors import DetectorBuilder, make_detector

    span = tracer.span
    out.mkdir(parents=True, exist_ok=True)
    log, templates = inputs["log"], inputs["templates"]
    events_path = out / "events.tsv"
    seqs_path = out / "sequences.tsv"
    facts: dict = {}

    with span("cli.parse"):
        with span("cli.digest"):
            cli.sha256_file(log), cli.sha256_file(templates)
        with span("ingest.load"):
            profile = ingest.load_profile(w.profile)
            catalog = ingest.load_template_catalog(templates)
        report = ingest.IngestReport()
        with span("ingest.parse_file"):
            events = list(ingest.parse_file(log, catalog, profile, report=report))
        with span("ingest.write_events"), open(events_path, "w", encoding="utf-8", newline="") as h:
            ingest.write_events(events, h)
    facts["report"] = report

    with span("cli.group"):
        with span("cli.digest"):
            cli.sha256_file(events_path)
        with span("ingest.read_events"):
            events = list(ingest.read_events(events_path))
        greport = sequencing.GroupingReport()
        with span("sequencing.group"):
            if w.kind == "hdfs":
                seqs = sequencing.group_by_identifier(events, report=greport)
            else:
                window = w.params["window"]
                seqs = sequencing.group_by_window(sequencing.dedupe_replicated(events), window, window)
        facts["grouped_events"] = greport.grouped_events if w.kind == "hdfs" else sum(map(len, seqs))
        with span("sequencing.labels"):
            if w.kind == "hdfs":
                labels = sequencing.load_label_file(inputs["labels"])
                seqs, _ = sequencing.attach_sequence_labels(seqs, labels)
        with span("sequencing.write_sequences"), open(seqs_path, "w", encoding="utf-8", newline="") as h:
            sequencing.write_sequences(seqs, h)
    del events

    with span("cli.stats"):
        with span("cli.digest"):
            cli.sha256_file(seqs_path)
        with span("sequencing.read_sequences"):
            seqs = sequencing.read_sequences(seqs_path)
        with span("stats.summarize"):
            stats.summarize(seqs)
        with span("stats.distributions"):
            stats.event_frequency_dist(seqs), stats.length_dist(seqs), stats.top_sequences(seqs, 7)
        with span("stats.interarrival"):
            stats.interarrival_dist(seqs)

    with span("cli.complexity"):
        with span("cli.digest"):
            cli.sha256_file(seqs_path)
        with span("sequencing.read_sequences"):
            seqs = sequencing.read_sequences(seqs_path)
        with span("complexity.entropy"):
            complexity.entropy_report(seqs, complexity.DEFAULT_ENTROPY_NS)
        with span("complexity.lz"):
            complexity.lz_complexity(seqs)

    specs = w.detectors.split(",")
    config = evaluation.EvalConfig(train_fraction=w.train_frac, repetitions=w.runs, rng_seed=1)
    with span("cli.eval"):
        with span("cli.digest"):
            cli.sha256_file(seqs_path)
        with span("sequencing.read_sequences"):
            seqs = sequencing.read_sequences(seqs_path)
        with instrumented(tracer):
            pairs_before = tracer.counters["detectors.edit.pairs"]
            with span("evaluation.study"):
                study = evaluation.evaluate_study(
                    seqs, config, specs, detector_factory=DetectorBuilder(), jobs=1
                )
            facts["study_pairs"] = tracer.counters["detectors.edit.pairs"] - pairs_before
        with span("evaluation.write"):
            for name, writer in (
                ("results.csv", evaluation.write_results_csv),
                ("summary.csv", evaluation.write_summary_csv),
                ("bests.csv", evaluation.write_bests_csv),
            ):
                with open(out / name, "w", encoding="utf-8", newline="") as h:
                    writer(study, h)

    # Probes: layers the chain runs only inside a larger call, measured on their own.
    studied = {part for spec in specs for part in spec.split("+")}
    missing = [b for b in BASE_DETECTORS if b not in studied]
    with span("probe.detectors"):
        train, test = evaluation.split(seqs, config, 0)
        with instrumented(tracer):
            for base in missing:
                detector = make_detector(base)
                detector.fit(train)
                detector.score_batch(test)

    messages = _messages(log, profile.preamble_tokens)
    with span("probe.match"):
        hits = sum(1 for m in messages if catalog.match(m) is not None)
    facts["messages"], facts["match_hits"] = len(messages), hits

    stamps = _stamps(log, profile.timestamp_pattern)
    with span("probe.timestamp"):
        for stamp in stamps:
            ingest.parse_timestamp_text(stamp, profile)
    facts["stamps"], facts["distinct_stamps"] = len(stamps), len(set(stamps))
    facts["events_bytes"] = events_path.stat().st_size
    facts["store_bytes"] = seqs_path.stat().st_size
    return facts


def layer_metrics(tracer: Tracer, pass_id: int, facts: dict, w, stage_walls: dict) -> dict[str, float]:
    """Per-layer metric values of one traced pass."""
    t = tracer.totals(pass_id)
    c = tracer.counters

    def s(name: str) -> float:
        return t.get(name, {"s": 0.0})["s"]

    report = facts["report"]
    lines = report.lines_total
    m: dict[str, float] = {
        "ingest.parse_file.s": s("ingest.parse_file"),
        "ingest.parse_file.lines_per_s": lines / s("ingest.parse_file"),
        "ingest.unmatched_ratio": report.unmatched_lines / lines,
        "ingest.match.s": s("probe.match"),
        "ingest.match.us_per_line": 1e6 * s("probe.match") / facts["messages"],
        "ingest.match.hit_ratio": facts["match_hits"] / facts["messages"],
        "ingest.timestamp.s": s("probe.timestamp"),
        "ingest.timestamp.distinct_ratio": facts["distinct_stamps"] / facts["stamps"],
        "ingest.write_events.s": s("ingest.write_events"),
        "ingest.read_events.s": s("ingest.read_events"),
        "ingest.events_bytes": facts["events_bytes"],
        "sequencing.group.s": s("sequencing.group"),
        "sequencing.group.events": facts["grouped_events"],
        "sequencing.write_sequences.s": s("sequencing.write_sequences"),
        "sequencing.read_sequences.s": s("sequencing.read_sequences")
        / t["sequencing.read_sequences"]["calls"],
        "sequencing.store_bytes": facts["store_bytes"],
        "stats.summarize.s": s("stats.summarize"),
        "stats.distributions.s": s("stats.distributions"),
        "stats.interarrival.s": s("stats.interarrival"),
        "complexity.entropy.s": s("complexity.entropy"),
        "complexity.lz.s": s("complexity.lz"),
    }
    for base in BASE_DETECTORS:
        score = s(f"detectors.{base}.score")
        seqs = c[f"detectors.{base}.seqs"]
        m[f"detectors.{base}.fit_s"] = s(f"detectors.{base}.fit")
        m[f"detectors.{base}.score_s"] = score
        m[f"detectors.{base}.score_us_per_seq"] = 1e6 * score / seqs if seqs else 0.0
    pairs = c["detectors.edit.pairs"]
    m["detectors.edit.pairs"] = pairs
    m["detectors.edit.us_per_pair"] = 1e6 * s("detectors.edit.score") / pairs if pairs else 0.0
    m["detectors.edit.distinct_target_ratio"] = (
        c["detectors.edit.distinct_targets"] / c["detectors.edit.seqs"]
    )
    m["evaluation.split.s"] = s("evaluation.split")
    m["evaluation.study.s"] = s("evaluation.study")
    m["evaluation.sweep.s"] = t.get("evaluation.evaluate_run", {"self_s": 0.0})["self_s"]
    m["evaluation.edit_pairs_per_run"] = facts["study_pairs"] / w.runs
    m["cli.digest.s"] = s("cli.digest")
    for stage in STAGES:
        layers = s(f"cli.{stage}") - t[f"cli.{stage}"]["self_s"]
        m[f"cli.{stage}.overhead_s"] = stage_walls[stage] - layers
    traced_total = sum(s(f"cli.{stage}") for stage in STAGES)
    untraced_total = sum(stage_walls.values())
    m["trace.total_s"] = traced_total
    m["trace.untraced_total_s"] = untraced_total
    m["trace.overhead_s"] = traced_total - untraced_total
    return m


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
