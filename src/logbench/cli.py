"""Unified command-line front end: parse -> group -> stats/complexity -> eval.

Artifacts are written atomically (temp file + rename) and every command
drops a JSON manifest capturing the tool version, arguments, input
digests, realized sample sizes, and timings, so a run can be replayed.

Each command imports the `logbench` modules it runs inside its own
function. Every stage of the study is a fresh process per corpus, so what
this module imports before parsing its arguments is paid once per stage:
on small corpora, importing all modules up front took as long as the work
itself. Besides `cli` and `errors`, each stage loads:

* `parse`: `ingest` (the parser) and `events`, and `datetime` only when
  the profile's timestamps need `strptime` (an epoch profile such as `bgl`
  does not);
* `group`: `events` and `sequencing`;
* `stats`: `sequencing` (with `events`) and `stats`;
* `complexity`: `sequencing` (with `events`) and `complexity`;
* `eval` and `sweep`: `sequencing` (with `events`), `detectors` and
  `evaluation`, and `forked` when `eval --jobs` splits the runs over more
  than one process: it forks the study process, and no stage loads a
  process pool (`multiprocessing`, `concurrent.futures`).

No stage after `parse` loads `ingest` or `datetime`. No stage loads the
record-class machinery of the standard library (`inspect`, `ast`, `dis`):
the records are `NamedTuple`s, or `__slots__` classes where a stage
updates them in place.

Both stores go through `events.read_store` and `events.write_store`.
`sequencing` labels a grouped sequence from its events when every event
has a label; `group --labels` replaces that label.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from . import __version__
from .errors import DetectorNotApplicable, EvalDataError, LogbenchError, ValidationError

LOGGER = logging.getLogger("logbench.cli")

DATA_DIR_ENV = "LOGBENCH_DATA_DIR"


@contextmanager
def atomic_write(path: Path):
    """Write to a sibling temp file and rename on success; no partial artifacts.

    The artifact gets the mode a plain `open()` would give it under the
    current umask, not the 0600 of the temp file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    handle = os.fdopen(fd, "w", encoding="utf-8", newline="")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        yield handle
        handle.close()
        os.replace(tmp, path)
    except BaseException:
        handle.close()
        os.unlink(tmp)
        raise


def resolve_input(path: str) -> Path:
    """Resolve an input path, falling back to the dataset root directory."""
    p = Path(path)
    if p.exists():
        return p
    root = os.environ.get(DATA_DIR_ENV)
    if root:
        candidate = Path(root) / path
        if candidate.exists():
            return candidate
    raise ValidationError(f"input not found: {path}")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _digest_inputs(paths: list[Path]) -> dict[str, str]:
    out = {}
    for p in paths:
        if p.is_dir():
            out[str(p)] = "directory"
        else:
            out[str(p)] = sha256_file(p)
    return out


class Manifest:
    """Replay record written next to (or inside) each command's output.

    `timings_sec` starts with `digest`, the hashing of the inputs, so no
    later stage's time includes it.
    """

    def __init__(self, args: argparse.Namespace, inputs: list[Path]):
        self.started = time.perf_counter()
        self.data = {
            "tool": "logbench",
            "version": __version__,
            "command_line": sys.argv[1:] if sys.argv[0].endswith(("logbench", "cli.py")) else None,
            "args": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
            "inputs": _digest_inputs(inputs),
            "realized": {},
            "warnings": [],
            "timings_sec": {},
        }
        self.data["config_hash"] = hashlib.sha256(
            json.dumps(self.data["args"], sort_keys=True, default=str).encode()
        ).hexdigest()
        self.time_stage("digest")

    def record(self, key: str, value) -> None:
        self.data["realized"][key] = value

    def warn(self, message: str) -> None:
        self.data["warnings"].append(message)
        LOGGER.warning("%s", message)

    def time_stage(self, stage: str) -> None:
        now = time.perf_counter()
        self.data["timings_sec"][stage] = round(now - self.started, 3)
        self.started = now

    def write(self, path: Path) -> None:
        with atomic_write(path) as handle:
            json.dump(self.data, handle, indent=2, default=str)
            handle.write("\n")


def _manifest_path_for(out: Path, is_dir: bool) -> Path:
    return out / "manifest.json" if is_dir else out.with_name(out.name + ".manifest.json")


def cmd_parse(args: argparse.Namespace) -> int:
    from . import ingest
    from .events import write_events

    source = resolve_input(args.input)
    templates = resolve_input(args.templates) if args.templates else None
    manifest = Manifest(args, [source] + ([templates] if templates else []))
    profile = ingest.load_profile(args.profile)
    catalog = None
    if not profile.tokenized:
        if templates is None:
            raise ValidationError("--templates is required for non-tokenized profiles")
        catalog = ingest.load_template_catalog(templates)
    manifest.time_stage("load")
    report = ingest.IngestReport()
    out = Path(args.out)

    unmatched = atomic_write(Path(args.unmatched_out)) if args.unmatched_out else nullcontext()
    with unmatched as unmatched_handle:
        if source.is_dir():
            events = ingest.parse_tree(
                source, catalog, profile, report=report, unmatched_sink=unmatched_handle
            )
        else:
            events = ingest.parse_file(
                source, catalog, profile, report=report, unmatched_sink=unmatched_handle
            )
        with atomic_write(out) as handle:
            rows = write_events(events, handle, keep_unidentified=args.keep_unidentified)

    if source.is_dir() and profile.label_source == "file-dir":
        labels = ingest.dir_label_map(source, profile)
        label_path = out.with_name(out.name + ".labels.csv")
        with atomic_write(label_path) as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("seq_id", "label"))
            for sid in sorted(labels):
                lab = labels[sid]
                writer.writerow((sid, (lab.tag or "anomaly") if lab.anomalous else "normal"))
        print(f"wrote per-file labels to {label_path}")

    manifest.time_stage("parse")
    manifest.record("lines_total", report.lines_total)
    manifest.record("matched_lines", report.matched_lines)
    manifest.record("unmatched_lines", report.unmatched_lines)
    manifest.record("invalid_lines", report.invalid_lines)
    manifest.record("parsed_events", report.parsed_events)
    manifest.record("no_id_lines", report.no_id_lines)
    manifest.record("rows_written", rows)
    manifest.record(
        "timestamp_error_sample", [f"{line_no}: {reason}" for line_no, reason in report.timestamp_errors]
    )
    if report.timestamp_error_count:
        manifest.warn(f"{report.timestamp_error_count} lines had unparseable timestamps")
    manifest.write(_manifest_path_for(out, is_dir=False))
    print(
        f"{report.lines_total} lines: {report.matched_lines} matched, "
        f"{report.unmatched_lines} unmatched, {report.invalid_lines} invalid; "
        f"{report.parsed_events} parsed events -> {out}"
    )
    return 0


def cmd_group(args: argparse.Namespace) -> int:
    from . import sequencing
    from .events import read_events

    source = resolve_input(args.input)
    manifest = Manifest(args, [source])
    events = read_events(source)
    if args.mode in ("id", "file"):
        greport = sequencing.GroupingReport()
        seqs = sequencing.group_by_identifier(events, report=greport)
        manifest.record("events_total", greport.events_total)
        manifest.record("discarded_no_id", greport.discarded_no_id)
    else:
        if args.window is None:
            raise ValidationError("--window is required for window mode")
        seqs = sequencing.group_by_window(sequencing.dedupe_replicated(events), args.window, args.step)

    if args.labels:
        labels = sequencing.load_label_file(resolve_input(args.labels))
        seqs, unlabeled = sequencing.attach_sequence_labels(seqs, labels)
        manifest.record("unlabeled_excluded", len(unlabeled))
    else:
        manifest.record("labels_lifted_from_events", sum(1 for seq in seqs if seq.label is not None))

    out = Path(args.out)
    with atomic_write(out) as handle:
        rows = sequencing.write_sequences(seqs, handle)
    manifest.time_stage("group")
    manifest.record("sequences_written", rows)
    manifest.write(_manifest_path_for(out, is_dir=False))
    print(f"{rows} sequences -> {out}")
    return 0


def _labeled(seqs, manifest: Manifest, unlabeled: str = "unlabeled sequences"):
    """The labeled ones of `seqs`; the manifest records how many others were dropped."""
    labeled = [s for s in seqs if s.label is not None]
    dropped = len(seqs) - len(labeled)
    manifest.record("unlabeled_dropped", dropped)
    if dropped:
        manifest.warn(f"dropped {dropped} {unlabeled}")
    return labeled


def cmd_stats(args: argparse.Namespace) -> int:
    from . import sequencing, stats

    source = resolve_input(args.input)
    manifest = Manifest(args, [source])
    seqs = _labeled(sequencing.read_sequences(source), manifest)
    out_dir = Path(args.out_dir)

    top = stats.top_sequences(seqs, args.top_k)
    summary = stats.summarize(seqs)
    with atomic_write(out_dir / "summary.txt") as handle:
        handle.write("\n".join(stats.summary_lines(summary)) + "\n")

    with atomic_write(out_dir / "event_frequencies.csv") as handle:
        handle.write("event_id,normal_count,anomalous_count\n")
        for event_id, n, a in stats.event_frequency_dist(seqs):
            handle.write(f"{event_id},{n},{a}\n")

    with atomic_write(out_dir / "length_distribution.csv") as handle:
        handle.write("length,normal_count,anomalous_count\n")
        for length, n, a in stats.length_dist(seqs):
            handle.write(f"{length},{n},{a}\n")

    with atomic_write(out_dir / "top_sequences.csv") as handle:
        handle.write("class,count,events\n")
        for cls, items in top.items():
            for count, events in items:
                handle.write(f"{cls},{count},{' '.join(map(str, events))}\n")

    with atomic_write(out_dir / "interarrival.csv") as handle:
        handle.write("class,pair,min,q1,median,q3,max,count\n")
        if args.interarrival_by_pair:
            for cls, pairs in stats.interarrival_dist(seqs, by_pair=True).items():
                for pair, s in pairs.items():
                    handle.write(
                        f"{cls},{pair[0]}->{pair[1]},{s.minimum},{s.q1},{s.median},{s.q3},{s.maximum},{s.count}\n"
                    )
        else:
            for cls, s in stats.interarrival_dist(seqs).items():
                handle.write(
                    f"{cls},,{s.minimum},{s.q1},{s.median},{s.q3},{s.maximum},{s.count}\n"
                )

    manifest.time_stage("stats")
    manifest.record("sequences", len(seqs))
    manifest.write(out_dir / "manifest.json")
    print("\n".join(stats.summary_lines(summary)))
    print(f"reports -> {out_dir}")
    return 0


def _parse_entropy_ns(spec: str) -> tuple[int, ...]:
    spec = spec.strip()
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            ns = tuple(range(int(lo), int(hi) + 1))
        else:
            ns = tuple(int(part) for part in spec.split(","))
    except ValueError:
        raise ValidationError(
            f"--entropy-n expects N, N,M,... or LO..HI with integers, got {spec!r}"
        ) from None
    if not ns:
        raise ValidationError(f"--entropy-n range {spec!r} is empty")
    return ns


def cmd_complexity(args: argparse.Namespace) -> int:
    from . import complexity, sequencing

    source = resolve_input(args.input)
    manifest = Manifest(args, [source])
    seqs = sequencing.read_sequences(source)
    ns = _parse_entropy_ns(args.entropy_n) if args.entropy_n else complexity.DEFAULT_ENTROPY_NS
    out = Path(args.out)
    with atomic_write(out) as handle:
        handle.write("measure,N,value\n")
        for entry in complexity.entropy_report(seqs, ns):
            handle.write(f"entropy,{entry.n},{entry.total_entropy:.6f}\n")
            handle.write(f"normalized_entropy,{entry.n},{entry.normalized_entropy:.6f}\n")
            handle.write(f"distinct_ngrams,{entry.n},{entry.distinct_ngrams}\n")
            if entry.degenerate:
                manifest.warn(f"no {entry.n}-grams observed; entropy entry degenerate")
        if args.lz:
            curve = complexity.lz_complexity(seqs, count_trailing=args.lz_count_trailing)
            for events_processed, value in curve.points:
                handle.write(f"lz_complexity,{events_processed},{value}\n")
            manifest.record("lz_final_complexity", curve.final_complexity)
    manifest.time_stage("complexity")
    manifest.record("sequences", len(seqs))
    manifest.write(_manifest_path_for(out, is_dir=False))
    print(f"complexity measures -> {out}")
    return 0


def _load_for_eval(source: Path, granularity: str, manifest: Manifest):
    """The labeled sequences `eval` studies, and at event granularity the tally of their anomalous events.

    At event granularity the parsed-event store is read twice, to group it
    and to tally it; a sequence is labeled when all its events carry a label.
    """
    from . import sequencing

    tally = None
    if granularity == "event":
        from .events import read_events

        greport = sequencing.GroupingReport()
        seqs = sequencing.group_by_identifier(read_events(source), report=greport)
        manifest.record("events_total", greport.events_total)
        manifest.record("discarded_no_id", greport.discarded_no_id)
        if greport.discarded_no_id:
            manifest.warn(f"{greport.discarded_no_id} events without a sequence id were discarded")
        seqs = _labeled(seqs, manifest, "sequences with unlabeled events")
        if greport.grouped_events and not seqs:
            raise EvalDataError(
                f"evaluation refused: no sequence of {source} has a label on every event "
                "(events parsed with a sequence-file profile carry no label)"
            )
        tally = sequencing.tally_anomalous_events(read_events(source), seqs)
    else:
        seqs = _labeled(sequencing.read_sequences(source), manifest)
    manifest.time_stage("load")
    return seqs, tally


def _study(args: argparse.Namespace, seqs, config, **options):
    """Run the study over the comma-separated `--detectors` rows."""
    from . import detectors, evaluation

    detector_specs = [d.strip() for d in args.detectors.split(",") if d.strip()]
    factory = detectors.DetectorBuilder(args.ecvc_norm, args.ngram_norm, args.ngram_pad)
    return evaluation.evaluate_study(seqs, config, detector_specs, detector_factory=factory, **options)


def cmd_eval(args: argparse.Namespace) -> int:
    from . import detectors, evaluation

    if args.detectors is None:
        args.detectors = "event" if args.granularity == "event" else ",".join(detectors.STUDY_DETECTORS)
    if args.granularity == "event" and args.dump_scores:
        raise ValidationError("--dump-scores is not supported with --granularity event")
    source = resolve_input(args.input)
    manifest = Manifest(args, [source])
    seqs, tally = _load_for_eval(source, args.granularity, manifest)
    config = evaluation.EvalConfig(args.train_frac, args.runs, args.seed)
    report = _study(
        args, seqs, config, anomalous_events=tally, jobs=args.jobs, dump_run0_scores=args.dump_scores
    )
    out_dir = Path(args.out_dir)
    with atomic_write(out_dir / "results.csv") as handle:
        evaluation.write_results_csv(report, handle)
    with atomic_write(out_dir / "summary.csv") as handle:
        evaluation.write_summary_csv(report, handle)
    with atomic_write(out_dir / "bests.csv") as handle:
        evaluation.write_bests_csv(report, handle)
    if args.dump_scores:
        with atomic_write(out_dir / "scores_run0.csv") as handle:
            evaluation.write_scores_csv(report.score_dump, handle)
    manifest.time_stage("eval")
    manifest.record("sequences", len(seqs))
    manifest.record("train_sizes", report.train_sizes)
    for warning in report.warnings:
        manifest.warn(warning)
    manifest.write(out_dir / "manifest.json")
    for s in report.summaries:
        avg = "NA" if s.avg_f1 is None else f"{100 * s.avg_f1:.1f}"
        peak = "NA" if s.max_f1 is None else f"{100 * s.max_f1:.1f}"
        note = "  [not applicable]" if s.not_applicable else ""
        print(f"{s.detector:<24} avg F1 {avg:>6}  max F1 {peak:>6}{note}")
    print(f"results -> {out_dir}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """The per-threshold curves of the study's run 0: `eval --runs 1` without the summaries."""
    from . import evaluation

    source = resolve_input(args.input)
    manifest = Manifest(args, [source])
    seqs, _ = _load_for_eval(source, "sequence", manifest)
    config = evaluation.EvalConfig(train_fraction=args.train_frac, repetitions=1, rng_seed=args.seed)
    report = _study(args, seqs, config, jobs=1)
    refused = [o.detector for o in report.outcomes if o.not_applicable]
    if refused:
        raise DetectorNotApplicable(f"detector not applicable to this data set: {', '.join(refused)}")
    out_dir = Path(args.out_dir)
    with atomic_write(out_dir / "sweep.csv") as handle:
        evaluation.write_sweep_csv(report.results(), handle)
    manifest.time_stage("sweep")
    manifest.record("train_size", report.train_sizes[0])
    manifest.write(out_dir / "manifest.json")
    print(f"sweep curves -> {out_dir / 'sweep.csv'}")
    return 0


def cmd_profiles(args: argparse.Namespace) -> int:
    from . import ingest

    if args.action == "list":
        for name in ingest.bundled_profile_names():
            print(name)
        return 0
    profile = ingest.load_profile(args.name)
    for key, value in sorted(profile._asdict().items()):
        if value is not None:
            print(f"{key} = {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logbench",
        description=(
            "Characterize event-sequence log data sets and evaluate simple "
            "anomaly detection baselines under a semi-supervised protocol."
        ),
        epilog=f"Set {DATA_DIR_ENV} to resolve relative inputs against a dataset root.",
    )
    parser.add_argument("--version", action="version", version=f"logbench {__version__}")
    parser.add_argument(
        "--log-level",
        default="WARNING",
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
        help="logging verbosity (default: WARNING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by `eval` and `sweep`
    study = argparse.ArgumentParser(add_help=False)
    study.add_argument(
        "--input", required=True, help="sequence store (or parsed events for eval --granularity event)"
    )
    study.add_argument("--train-frac", type=float, default=0.01, help="normal-class training fraction")
    study.add_argument("--seed", type=int, default=1, help="base RNG seed (sweep uses run 0's split)")
    study.add_argument(
        "--ecvc-norm",
        default="mass",
        choices=["mass", "len"],
        help="ECVC denominator: the (idf-)weighted mass, or the larger unweighted length; "
        "ecvc-idf under len divides a weighted numerator by an unweighted length, so "
        "vectors sharing no event can score below 1.0",
    )
    study.add_argument(
        "--ngram-norm",
        default="global-max",
        choices=["global-max", "per-sequence"],
        help="n-gram mismatch normalization",
    )
    study.add_argument("--ngram-pad", default="start", choices=["start", "end"], help="n-gram pad side")

    p = sub.add_parser("parse", help="match raw log lines against a template catalog")
    p.add_argument("--profile", required=True, help="bundled profile name or profile file path")
    p.add_argument("--templates", help="template catalog file (<id><TAB><pattern> per line)")
    p.add_argument("--input", required=True, help="log file, or directory for per-file datasets")
    p.add_argument("--out", required=True, help="parsed-event output file")
    p.add_argument(
        "--keep-unidentified",
        action="store_true",
        help="write events without sequence identifiers (needed for window grouping)",
    )
    p.add_argument("--unmatched-out", help="dump unmatched lines to this side file")
    p.set_defaults(func=cmd_parse)

    g = sub.add_parser("group", help="group parsed events into labeled sequences")
    g.add_argument("--input", required=True, help="parsed-event file from `logbench parse`")
    g.add_argument("--mode", default="id", choices=["id", "window", "file"], help="grouping mode")
    g.add_argument("--window", type=int, help="window size N for window mode")
    g.add_argument("--step", type=int, default=1, help="window step S (default: 1)")
    g.add_argument("--labels", help="per-sequence label file (seq_id,label)")
    g.add_argument("--out", required=True, help="sequence store output file")
    g.set_defaults(func=cmd_group)

    s = sub.add_parser("stats", help="dataset characterization reports")
    s.add_argument("--input", required=True, help="sequence store file")
    s.add_argument("--out-dir", required=True, help="directory for the report CSVs")
    s.add_argument("--top-k", type=int, default=7, help="most-common sequences per class")
    s.add_argument(
        "--interarrival-by-pair",
        action="store_true",
        help="key inter-arrival summaries by (event, next event) pair",
    )
    s.set_defaults(func=cmd_stats)

    c = sub.add_parser("complexity", help="n-gram entropy and Lempel-Ziv complexity")
    c.add_argument("--input", required=True, help="sequence store file")
    c.add_argument("--entropy-n", default="1..10", help="N values, e.g. 1..10 or 1,2,5")
    c.add_argument("--lz", action="store_true", help="also emit the Lempel-Ziv curve")
    c.add_argument(
        "--lz-count-trailing",
        action="store_true",
        help="count trailing incomplete phrases at sequence boundaries",
    )
    c.add_argument("--out", required=True, help="output CSV (measure,N,value rows)")
    c.set_defaults(func=cmd_complexity)

    e = sub.add_parser("eval", parents=[study], help="repeated semi-supervised evaluation study")
    e.add_argument(
        "--detectors",
        help="comma-separated detector rows, each named once; + joins OR-combinations "
        "(event, length, ecvc, ecvc-idf, ngram2, ngram3, ngram10, edit, timing); "
        "default: the study's 14 rows, or only `event` at event granularity",
    )
    e.add_argument("--runs", type=int, default=25, help="independent sampling repetitions")
    e.add_argument(
        "--granularity", default="sequence", choices=["sequence", "event"], help="evaluation unit"
    )
    e.add_argument(
        "--jobs", type=int, default=os.cpu_count() or 1, help="processes that score the runs, this one included"
    )
    e.add_argument("--out-dir", required=True, help="directory for results.csv and summary.csv")
    e.add_argument("--dump-scores", action="store_true", help="dump run 0 scores (sequence granularity)")
    e.set_defaults(func=cmd_eval)

    w = sub.add_parser("sweep", parents=[study], help="full threshold sweep curves from a single run")
    w.add_argument("--detectors", default="ecvc,ngram2,edit", help="comma-separated detector names")
    w.add_argument("--out-dir", required=True, help="directory for sweep.csv")
    w.set_defaults(func=cmd_sweep)

    pr = sub.add_parser("profiles", help="list or show bundled dataset profiles")
    pr.add_argument("action", choices=["list", "show"], help="profiles action")
    pr.add_argument("name", nargs="?", help="profile name for `show`")
    pr.set_defaults(func=cmd_profiles)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level), format="%(levelname)s %(name)s: %(message)s")
    if args.command == "profiles" and args.action == "show" and not args.name:
        parser.error("profiles show requires a profile name")
    try:
        return args.func(args)
    except LogbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
