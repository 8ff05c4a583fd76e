"""Semi-supervised evaluation protocol: repeated sampling, threshold sweeps, metrics.

Training data is sampled from the normal class only; the test set is the
remaining normals plus all anomalies. A run scores units: test sequences
at sequence granularity, or the events of the test sequences, against
their own labels, at event granularity. Both kinds share one loop from a
run's split to its rows, one confusion count and one report assembly.

At sequence granularity, each distinct base detector is fitted once per
run and scores the test set once, giving one score column per base.
A run interns its test set's event tuples, and a base detector scores one
sequence per distinct tuple, expanded back to test-set order (repeats do
not change the `global-max` n-gram batch maximum); only a detector that
`reads_timestamps` (`timing`) scores the whole test set.
Every requested row reads those columns: an OR-combination such as
`event+length+ecvc` is the element-wise maximum of its members' columns,
and is not applicable when any member is. Confusion counts at every grid
threshold, the score dump and the sweep curves all derive from a row's
column. Metrics with a zero denominator are reported as undefined
(None / "NA"), never coerced to 0.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import random
import statistics
import time
from bisect import bisect_right
from contextlib import ExitStack
from typing import Callable, Iterable, NamedTuple, Sequence as PySequence, TextIO

from .detectors import Detector, NewEventTypeDetector, make_detector
from .errors import DetectorNotApplicable, EvalDataError, ValidationError
from .sequencing import Sequence

LOGGER = logging.getLogger("logbench.evaluation")

#: Thresholds 0.00, 0.01, ..., 1.00.
THRESHOLD_GRID = tuple(i / 100 for i in range(101))

#: Flag cutoff for threshold-free detectors emitting 0/1 scores.
FLAG_CUTOFF = 0.5


class _EvalConfigFields(NamedTuple):
    train_fraction: float = 0.01
    repetitions: int = 25
    rng_seed: int = 1
    granularity: str = "sequence"


class EvalConfig(_EvalConfigFields):
    """Study parameters; defaults follow the 1%-sample, 25-run protocol.

    Built from the fields of `_EvalConfigFields`, positionally or by name;
    construction and `_replace` both raise ValidationError for an invalid
    configuration.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *args, **kwargs)._checked()

    def _replace(self, **changes) -> EvalConfig:
        return super()._replace(**changes)._checked()

    def _checked(self) -> EvalConfig:
        if not 0.0 < self.train_fraction < 1.0:
            raise ValidationError("train_fraction must lie strictly between 0 and 1")
        if self.repetitions < 1:
            raise ValidationError("repetitions must be >= 1")
        if self.granularity not in ("sequence", "event"):
            raise ValidationError(f"unknown granularity: {self.granularity!r}")
        return self


class ConfusionCounts(NamedTuple):
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


class Metrics(NamedTuple):
    """Each value is None when its denominator is zero (reported as NA)."""

    precision: float | None
    recall: float | None
    tnr: float | None
    f1: float | None


def metrics_from_counts(c: ConfusionCounts) -> Metrics:
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp else None
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn else None
    tnr = c.tn / (c.tn + c.fp) if c.tn + c.fp else None
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return Metrics(precision, recall, tnr, f1)


class EvalResult(NamedTuple):
    """Confusion counts and metrics for one (run, detector, threshold) triple.

    threshold is None for threshold-free detectors. The result rows are
    tuples because a run builds one per grid threshold of each row, and
    workers send them back pickled.
    """

    run: int
    detector: str
    threshold: float | None
    counts: ConfusionCounts
    metrics: Metrics


class RunOutcome(NamedTuple):
    """Everything produced by one detector on one run."""

    run: int
    detector: str
    train_size: int
    results: list[EvalResult]
    best: EvalResult | None
    not_applicable: bool = False


class DetectorSummary(NamedTuple):
    """Across-run aggregate of per-run best F1 scores."""

    detector: str
    avg_f1: float | None
    max_f1: float | None
    std_f1: float | None
    not_applicable: bool = False


#: Run 0's scores per row: (seq_id, score, flagged at the best threshold, label).
ScoreDump = dict[str, list[tuple[str, float, bool, str]]]


class StudyReport(NamedTuple):
    granularity: str
    outcomes: list[RunOutcome]
    summaries: list[DetectorSummary]
    warnings: list[str]
    train_sizes: list[int]
    score_dump: ScoreDump

    def results(self) -> Iterable[EvalResult]:
        for outcome in self.outcomes:
            yield from outcome.results


def run_seed(rng_seed: int, run_index: int) -> int:
    """Stable per-run seed stream so runs are independent and replayable."""
    digest = hashlib.sha256(f"{rng_seed}:{run_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def split(
    seqs: list[Sequence], config: EvalConfig, run_index: int
) -> tuple[list[Sequence], list[Sequence]]:
    """Sample training normals uniformly without replacement for one run.

    Training size is round-half-up(train_fraction * #normals) with a floor
    of 1; the test set is the remaining normals plus all anomalies, in
    original dataset order.
    """
    normals = [s for s in seqs if s.label is not None and not s.label.anomalous]
    anomalies = [s for s in seqs if s.label is not None and s.label.anomalous]
    if len(normals) + len(anomalies) != len(seqs):
        raise EvalDataError("evaluation requires fully labeled sequences")
    if not anomalies:
        raise EvalDataError("evaluation refused: the data set contains no anomalies")
    if not normals:
        raise EvalDataError("evaluation refused: the data set contains no normals")
    k = max(1, int(config.train_fraction * len(normals) + 0.5))
    rng = random.Random(run_seed(config.rng_seed, run_index))
    chosen = set(rng.sample(range(len(normals)), k))
    train = [normals[i] for i in sorted(chosen)]
    test = [s for i, s in enumerate(normals) if i not in chosen] + anomalies
    return train, test


def _counts_at(
    anom_sorted: list[float], norm_sorted: list[float], threshold: float
) -> ConfusionCounts:
    tp = len(anom_sorted) - bisect_right(anom_sorted, threshold)
    fp = len(norm_sorted) - bisect_right(norm_sorted, threshold)
    return ConfusionCounts(tp, fp, len(norm_sorted) - fp, len(anom_sorted) - tp)


def _best_result(results: list[EvalResult]) -> EvalResult | None:
    """F1-maximizing grid point; ties resolve to the smallest threshold."""
    best = None
    for res in results:
        if res.metrics.f1 is None:
            continue
        if best is None or res.metrics.f1 > best.metrics.f1:
            best = res
    return best


def evaluate_run(
    detector: str,
    thresholded: bool,
    anomalous: list[bool],
    scores: list[float],
    *,
    run: int = 0,
    train_size: int = 0,
) -> RunOutcome:
    """Derive metrics at every `THRESHOLD_GRID` threshold from one row's score column.

    `scores[i]` is the score of a unit whose class is `anomalous[i]`. A
    threshold-free row gets one result at the 0/1 flag cutoff instead of
    the grid.
    """
    anom = sorted(s for s, a in zip(scores, anomalous) if a)
    norm = sorted(s for s, a in zip(scores, anomalous) if not a)
    if thresholded:
        results = []
        for t in THRESHOLD_GRID:
            counts = _counts_at(anom, norm, t)
            results.append(EvalResult(run, detector, t, counts, metrics_from_counts(counts)))
        best = _best_result(results)
    else:
        counts = _counts_at(anom, norm, FLAG_CUTOFF)
        result = EvalResult(run, detector, None, counts, metrics_from_counts(counts))
        results = [result]
        best = result if result.metrics.f1 is not None else None
    return RunOutcome(run, detector, train_size, results, best)


DetectorFactory = Callable[[str], Detector]


def _score_column(
    detector: Detector, train: list[Sequence], test: list[Sequence], unique: list[Sequence], index: list[int]
) -> list[float] | None:
    """Fit once, score each distinct tuple `unique[index[i]]` of `test[i]` once; None if not applicable."""
    try:
        detector.fit(train)
    except DetectorNotApplicable as exc:
        LOGGER.info("detector %s not applicable: %s", detector.name, exc)
        return None
    if detector.reads_timestamps:
        return detector.score_batch(test)
    scores = detector.score_batch(unique)
    return [scores[i] for i in index]


def _evaluate_one_run(
    seqs: list[Sequence],
    config: EvalConfig,
    detector_specs: PySequence[str],
    factory: DetectorFactory,
    dump_run0_scores: bool,
    run_index: int,
) -> tuple[list[RunOutcome], ScoreDump]:
    train, test = split(seqs, config, run_index)
    if config.granularity == "event":
        known = NewEventTypeDetector().fit(train).known_events
        anomalous, scores = [], []
        for seq in test:
            for event, label in zip(seq.events, seq.event_labels):
                anomalous.append(label.anomalous)
                scores.append(1.0 if event not in known else 0.0)
        outcome = evaluate_run("event", False, anomalous, scores, run=run_index, train_size=len(train))
        return [outcome], {}
    anomalous = [seq.label.anomalous for seq in test]
    ids: dict[tuple[int, ...], int] = {}
    index, unique = [], []
    for seq in test:
        i = ids.setdefault(tuple(seq.events), len(unique))
        if i == len(unique):
            unique.append(seq)
        index.append(i)
    columns: dict[str, list[float] | None] = {}
    outcomes = []
    dumps: ScoreDump = {}
    for spec in detector_specs:
        members = [factory(part) for part in spec.split("+")]
        for member in members:
            if member.name not in columns:
                columns[member.name] = _score_column(member, train, test, unique, index)
        name = "+".join(member.name for member in members)
        member_columns = [columns[member.name] for member in members]
        if any(column is None for column in member_columns):
            outcomes.append(RunOutcome(run_index, name, len(train), [], None, True))
            continue
        scores = [max(values) for values in zip(*member_columns)]
        thresholded = any(member.thresholded for member in members)
        outcome = evaluate_run(name, thresholded, anomalous, scores, run=run_index, train_size=len(train))
        outcomes.append(outcome)
        if dump_run0_scores and run_index == 0:
            best = outcome.best
            cutoff = best.threshold if best is not None and best.threshold is not None else FLAG_CUTOFF
            dumps[name] = [
                (seq.seq_id, score, score > cutoff, "anomalous" if a else "normal")
                for seq, score, a in zip(test, scores, anomalous)
            ]
    return outcomes, dumps


_WORKER_ARGS: tuple = ()


def _init_worker(*args):
    global _WORKER_ARGS
    _WORKER_ARGS = args


def _timed_run(args: tuple, run_index: int) -> tuple[list[RunOutcome], ScoreDump, float]:
    start = time.perf_counter()
    outcomes, dumps = _evaluate_one_run(*args, run_index)
    return outcomes, dumps, time.perf_counter() - start


def _worker(run_index: int):
    return _timed_run(_WORKER_ARGS, run_index)


def _summarize_detector(detector: str, outcomes: list[RunOutcome]) -> DetectorSummary:
    if all(o.not_applicable for o in outcomes):
        return DetectorSummary(detector, None, None, None, not_applicable=True)
    f1s = [o.best.metrics.f1 for o in outcomes if o.best is not None]
    if not f1s:
        return DetectorSummary(detector, None, None, None)
    avg = sum(f1s) / len(f1s)
    std = statistics.stdev(f1s) if len(f1s) > 1 else 0.0
    return DetectorSummary(detector, avg, max(f1s), std)


def _degeneracy_warnings(detector: str, outcomes: list[RunOutcome]) -> list[str]:
    warnings = []
    bests = [o.best for o in outcomes if o.best is not None]
    if bests and all(b.metrics.tnr == 0.0 for b in bests):
        warnings.append(
            f"{detector}: TNR is 0 at every run's best threshold; the detector "
            "flags every sequence and the F1 score is misleading"
        )
    na_runs = sum(
        1
        for o in outcomes
        if not o.not_applicable
        and (o.best is None or None in (o.best.metrics.precision, o.best.metrics.recall, o.best.metrics.tnr))
    )
    if na_runs:
        warnings.append(
            f"{detector}: {na_runs} run(s) produced undefined (NA) metrics at the "
            "best threshold; inspect the per-run results"
        )
    return warnings


def evaluate_study(
    seqs: list[Sequence],
    config: EvalConfig,
    detector_specs: PySequence[str],
    *,
    detector_factory: DetectorFactory = make_detector,
    jobs: int = 1,
    dump_run0_scores: bool = False,
) -> StudyReport:
    """Run the full repeated-sampling study for a set of detector rows.

    Each spec is a base detector name or a `+`-joined OR-combination of
    them. At least one row is required, and row names must be distinct: a
    row's name joins its members' canonical names, so `ngram2` and `2-gram`
    name the same row, while a row may repeat a member (`event+event`).
    Both are checked before the first run. Runs are independent (per-run
    seed stream) and may execute in parallel; results are identical
    regardless of the worker count. Each finished run logs one INFO line
    with its row count and wall seconds.

    At event granularity every sequence must carry per-event labels, and
    `detector_specs` must name only the threshold-free `event` row (an
    event is flagged iff its type is unseen in the run's training
    sequences); it writes no score dump.
    """
    if jobs < 1:
        raise ValidationError("jobs must be >= 1")
    if config.granularity == "event":
        others = [spec for spec in detector_specs if spec.strip().lower() != "event"]
        if others:
            raise ValidationError(
                "event-granularity evaluation scores only the 'event' detector, not: "
                + ", ".join(others)
            )
        if any(s.event_labels is None for s in seqs):
            raise EvalDataError(
                "event-granularity evaluation requires per-event labels on every sequence"
            )
    if not detector_specs:
        raise ValidationError("no detector rows to evaluate")
    names = ["+".join(detector_factory(part).name for part in spec.split("+")) for spec in detector_specs]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValidationError(f"detector row {name!r} is named more than once")
    args = (seqs, config, tuple(detector_specs), detector_factory, dump_run0_scores)
    runs = range(config.repetitions)
    outcomes: list[RunOutcome] = []
    score_dump: ScoreDump = {}
    with ExitStack() as stack:
        if jobs > 1 and len(runs) > 1:
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=min(jobs, len(runs)), initializer=_init_worker, initargs=args)
            )
            per_run = pool.map(_worker, runs)
        else:
            per_run = (_timed_run(args, r) for r in runs)
        for run_index, (run_outcomes, dumps, seconds) in zip(runs, per_run):
            LOGGER.info(
                "run %d/%d finished: %d rows in %.2f s", run_index + 1, len(runs), len(run_outcomes), seconds
            )
            outcomes.extend(run_outcomes)
            score_dump.update(dumps)
    by_detector: dict[str, list[RunOutcome]] = {}
    for outcome in outcomes:
        by_detector.setdefault(outcome.detector, []).append(outcome)
    summaries = []
    warnings = []
    for detector, detector_outcomes in by_detector.items():
        summaries.append(_summarize_detector(detector, detector_outcomes))
        warnings.extend(_degeneracy_warnings(detector, detector_outcomes))
    train_sizes = sorted({o.train_size for o in outcomes})
    return StudyReport(config.granularity, outcomes, summaries, warnings, train_sizes, score_dump)


def _fmt(value: float | None) -> str:
    return "NA" if value is None else f"{value:.6f}"


def _threshold_cell(threshold: float | None) -> str:
    return "NA" if threshold is None else f"{threshold:.2f}"


def _metric_cells(metrics: Metrics) -> tuple[str, str, str, str]:
    return _fmt(metrics.precision), _fmt(metrics.recall), _fmt(metrics.tnr), _fmt(metrics.f1)


RESULTS_HEADER = (
    "run",
    "detector",
    "threshold",
    "tp",
    "fp",
    "tn",
    "fn",
    "precision",
    "recall",
    "tnr",
    "f1",
)


def write_results_csv(report: StudyReport, handle: TextIO) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(RESULTS_HEADER)
    for res in report.results():
        c = res.counts
        writer.writerow(
            (res.run, res.detector, _threshold_cell(res.threshold), c.tp, c.fp, c.tn, c.fn)
            + _metric_cells(res.metrics)
        )


def write_summary_csv(report: StudyReport, handle: TextIO) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(("detector", "avg_f1", "max_f1", "std_f1"))
    for s in report.summaries:
        writer.writerow((s.detector, _fmt(s.avg_f1), _fmt(s.max_f1), _fmt(s.std_f1)))


def write_bests_csv(report: StudyReport, handle: TextIO) -> None:
    """Per-run metrics at each run's best threshold; boxplot-ready distributions."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(("run", "detector", "best_threshold", "precision", "recall_tpr", "tnr", "f1"))
    for outcome in report.outcomes:
        if outcome.best is None:
            continue
        best = outcome.best
        writer.writerow(
            (outcome.run, outcome.detector, _threshold_cell(best.threshold)) + _metric_cells(best.metrics)
        )


def write_sweep_csv(results: Iterable[EvalResult], handle: TextIO) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(("detector", "threshold", "precision", "recall", "tnr", "f1"))
    for res in results:
        writer.writerow((res.detector, _threshold_cell(res.threshold)) + _metric_cells(res.metrics))


def write_scores_csv(dump: ScoreDump, handle: TextIO) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(("seq_id", "detector", "score", "flag", "label"))
    for detector in sorted(dump):
        for seq_id, score, flag, label in dump[detector]:
            writer.writerow((seq_id, detector, f"{score:.6f}", int(flag), label))
