"""Semi-supervised evaluation protocol: repeated sampling, threshold sweeps, metrics.

Training data is sampled from the normal class only; the test set is the
remaining normals plus all anomalies. A run scores units: test sequences
at sequence granularity, or the events of the test sequences, against
their own labels, at event granularity. Both kinds share one split, one
confusion count and one report assembly. At event granularity, training
sequences and all their events are normal, so a run's counts follow from
the study's anomalous and normal events per type, `A[e]` and `N[e]`: `tp`
and `fp` sum them over the types unseen in training.

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

A run keeps each row's outcome as confusion counts: the flagged anomalous
and normal units at every grid threshold (or at the flag cutoff), the two
class sizes, and the index of the best threshold, picked from the counts.
With `jobs > 1`, the study process forks children after the study is
loaded, so they share it without a copy; each child scores its share of
the runs and sends back only that form, pickled through a pipe. The
per-threshold `EvalResult` rows, with their metrics, are built only where
they are read: the CSV writers, `sweep`, and `StudyReport.results()`.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import os
import random
import statistics
import time
from array import array
from bisect import bisect_right
from collections import Counter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence as PySequence, TextIO

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


def _f1(precision: float | None, recall: float | None) -> float | None:
    if precision is None or recall is None or precision + recall == 0:
        return None
    return 2 * precision * recall / (precision + recall)


def metrics_from_counts(c: ConfusionCounts) -> Metrics:
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp else None
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn else None
    tnr = c.tn / (c.tn + c.fp) if c.tn + c.fp else None
    return Metrics(precision, recall, tnr, _f1(precision, recall))


class EvalResult(NamedTuple):
    """Confusion counts and metrics for one (run, detector, threshold) triple.

    threshold is None for threshold-free detectors. Built from a
    `RunOutcome`'s counts when a writer or a caller reads it.
    """

    run: int
    detector: str
    threshold: float | None
    counts: ConfusionCounts
    metrics: Metrics


class RunOutcome(NamedTuple):
    """One detector row's confusion counts on one run.

    `tp[i]` and `fp[i]` count the anomalous and normal units flagged at
    `THRESHOLD_GRID[i]` for a thresholded row, or at the 0/1 flag cutoff
    (index 0, threshold None) for a threshold-free one; `tn` and `fn` follow
    from the class sizes. `best_index` is the threshold index of the highest
    F1, None when every F1 is undefined. A not-applicable row keeps no
    counts. `results()` and `best()` build the rows from the counts.
    """

    run: int
    detector: str
    train_size: int
    thresholded: bool = False
    anomalies: int = 0
    normals: int = 0
    tp: PySequence[int] = ()
    fp: PySequence[int] = ()
    best_index: int | None = None
    not_applicable: bool = False

    def _result(self, i: int) -> EvalResult:
        """The row at threshold index `i`."""
        tp, fp = self.tp[i], self.fp[i]
        counts = ConfusionCounts(tp, fp, self.normals - fp, self.anomalies - tp)
        threshold = THRESHOLD_GRID[i] if self.thresholded else None
        return EvalResult(self.run, self.detector, threshold, counts, metrics_from_counts(counts))

    def results(self) -> list[EvalResult]:
        """One row per threshold, in threshold order; none for a not-applicable row."""
        return [self._result(i) for i in range(len(self.tp))]

    def best(self) -> EvalResult | None:
        return None if self.best_index is None else self._result(self.best_index)


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
    outcomes: list[RunOutcome]
    summaries: list[DetectorSummary]
    warnings: list[str]
    train_sizes: list[int]
    score_dump: ScoreDump

    def results(self) -> Iterable[EvalResult]:
        for outcome in self.outcomes:
            yield from outcome.results()


def run_seed(rng_seed: int, run_index: int) -> int:
    """Stable per-run seed stream so runs are independent and replayable."""
    digest = hashlib.sha256(f"{rng_seed}:{run_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def split(
    seqs: list[Sequence], config: EvalConfig, run_index: int
) -> tuple[list[Sequence], list[Sequence]]:
    """Sample training normals uniformly without replacement for one run.

    Training size is round-half-up(train_fraction * #normals) with a floor
    of 1. Training holds the chosen normals in dataset order; the test set
    holds the remaining normals, then all anomalies, each in dataset order.
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


def _best_index(tp: PySequence[int], fp: PySequence[int], anomalies: int) -> int | None:
    """Index of the highest F1; undefined F1s are skipped, ties go to the smallest threshold.

    F1 is undefined without a true positive; with one, precision and recall
    are the quotients `metrics_from_counts` takes.
    """
    best = best_f1 = None
    for i, (t, f) in enumerate(zip(tp, fp)):
        if t:
            f1 = _f1(t / (t + f), t / anomalies)
            if best_f1 is None or f1 > best_f1:
                best, best_f1 = i, f1
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
    """Confusion counts at every `THRESHOLD_GRID` threshold from one row's score column.

    `scores[i]` is the score of a unit whose class is `anomalous[i]`. A
    threshold-free row is counted at the 0/1 flag cutoff instead of the
    grid. The counts are held as unsigned 32-bit integers.
    """
    anom = sorted(s for s, a in zip(scores, anomalous) if a)
    norm = sorted(s for s, a in zip(scores, anomalous) if not a)
    cutoffs = THRESHOLD_GRID if thresholded else (FLAG_CUTOFF,)
    tp = array("I", [len(anom) - bisect_right(anom, t) for t in cutoffs])
    fp = array("I", [len(norm) - bisect_right(norm, t) for t in cutoffs])
    return RunOutcome(
        run, detector, train_size, thresholded, len(anom), len(norm), tp, fp, _best_index(tp, fp, len(anom))
    )


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


#: `A[e]` and `N[e]`, the study's anomalous and normal events per event type.
EventCounts = tuple[Mapping[int, int], Mapping[int, int]]


def _event_counts(seqs: list[Sequence], anomalous_events: Mapping[int, int]) -> EventCounts:
    """EvalDataError when the anomalous sequences cannot hold the `A[e]` tally."""
    total: Counter = Counter()
    held: Counter = Counter()
    for seq in seqs:
        total.update(seq.events)
        if seq.label is not None and seq.label.anomalous:
            held.update(seq.events)
    for event, count in anomalous_events.items():
        if not 0 <= count <= held[event]:
            raise EvalDataError(
                f"{count} anomalous events of type {event}, but the anomalous sequences hold {held[event]}"
            )
    normal = {event: n - anomalous_events.get(event, 0) for event, n in total.items()}
    return anomalous_events, normal


def _event_outcome(train: list[Sequence], counts: EventCounts, run_index: int) -> RunOutcome:
    """The `event` row over the test events: flagged iff the type is unseen in `train`."""
    anomalous, normal = counts
    known = NewEventTypeDetector().fit(train).known_events
    anomalies, normals = sum(anomalous.values()), sum(normal.values())
    tp = array("I", [anomalies - sum(anomalous.get(e, 0) for e in known)])
    fp = array("I", [normals - sum(normal.get(e, 0) for e in known)])
    normals -= sum(map(len, train))
    best = _best_index(tp, fp, anomalies)
    return RunOutcome(run_index, "event", len(train), False, anomalies, normals, tp, fp, best)


def _evaluate_one_run(
    seqs: list[Sequence],
    config: EvalConfig,
    detector_specs: PySequence[str],
    factory: DetectorFactory,
    dump_run0_scores: bool,
    event_counts: EventCounts | None,
    run_index: int,
) -> tuple[list[RunOutcome], ScoreDump]:
    train, test = split(seqs, config, run_index)
    if event_counts is not None:
        return [_event_outcome(train, event_counts, run_index)], {}
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
            outcomes.append(RunOutcome(run_index, name, len(train), not_applicable=True))
            continue
        scores = [max(values) for values in zip(*member_columns)]
        thresholded = any(member.thresholded for member in members)
        outcome = evaluate_run(name, thresholded, anomalous, scores, run=run_index, train_size=len(train))
        outcomes.append(outcome)
        if dump_run0_scores and run_index == 0:
            best = outcome.best()
            cutoff = best.threshold if best is not None and best.threshold is not None else FLAG_CUTOFF
            dumps[name] = [
                (seq.seq_id, score, score > cutoff, "anomalous" if a else "normal")
                for seq, score, a in zip(test, scores, anomalous)
            ]
    return outcomes, dumps


def _timed_run(args: tuple, run_index: int) -> tuple[list[RunOutcome], ScoreDump, float]:
    start = time.perf_counter()
    outcomes, dumps = _evaluate_one_run(*args, run_index)
    return outcomes, dumps, time.perf_counter() - start


def _summarize_detector(detector: str, outcomes: list[RunOutcome]) -> DetectorSummary:
    if all(o.not_applicable for o in outcomes):
        return DetectorSummary(detector, None, None, None, not_applicable=True)
    bests = [o.best() for o in outcomes]
    f1s = [b.metrics.f1 for b in bests if b is not None]
    if not f1s:
        return DetectorSummary(detector, None, None, None)
    avg = sum(f1s) / len(f1s)
    std = statistics.stdev(f1s) if len(f1s) > 1 else 0.0
    return DetectorSummary(detector, avg, max(f1s), std)


def _degeneracy_warnings(detector: str, outcomes: list[RunOutcome]) -> list[str]:
    warnings = []
    applicable = [o.best() for o in outcomes if not o.not_applicable]
    bests = [b for b in applicable if b is not None]
    if bests and all(b.metrics.tnr == 0.0 for b in bests):
        warnings.append(
            f"{detector}: TNR is 0 at every run's best threshold; the detector "
            "flags every sequence and the F1 score is misleading"
        )
    na_runs = sum(
        1 for b in applicable if b is None or None in (b.metrics.precision, b.metrics.recall, b.metrics.tnr)
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
    anomalous_events: Mapping[int, int] | None = None,
) -> StudyReport:
    """Run the full repeated-sampling study for a set of detector rows.

    Each spec is a base detector name or a `+`-joined OR-combination of
    them. At least one row is required, and row names must be distinct: a
    row's name joins its members' canonical names, so `ngram2` and `2-gram`
    name the same row, while a row may repeat a member (`event+event`).
    Both are checked before the first run. Runs are independent (per-run
    seed stream). With `jobs > 1`, `min(jobs, repetitions)` processes score
    them, this one included (see `forked.forked_map`); where `os.fork` is
    missing, this process scores them all and logs a warning. Results are
    identical whatever the process count. Each run logs one INFO line, in
    run order, with its row count and wall seconds, as soon as it and every
    earlier run are scored.

    `anomalous_events`, the count of anomalous events per event type in
    `seqs`, selects event granularity. `detector_specs` must then name only
    the threshold-free `event` row, and no score dump is written. A tally
    that counts more anomalous events of a type than the anomalous
    sequences hold raises EvalDataError.
    """
    if jobs < 1:
        raise ValidationError("jobs must be >= 1")
    if anomalous_events is not None:
        others = [spec for spec in detector_specs if spec.strip().lower() != "event"]
        if others:
            raise ValidationError(
                "event-granularity evaluation scores only the 'event' detector, not: "
                + ", ".join(others)
            )
    if not detector_specs:
        raise ValidationError("no detector rows to evaluate")
    names = ["+".join(detector_factory(part).name for part in spec.split("+")) for spec in detector_specs]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValidationError(f"detector row {name!r} is named more than once")
    event_counts = None if anomalous_events is None else _event_counts(seqs, anomalous_events)
    args = (seqs, config, tuple(detector_specs), detector_factory, dump_run0_scores, event_counts)
    runs = range(config.repetitions)
    width = min(jobs, len(runs))
    if width > 1 and not hasattr(os, "fork"):
        LOGGER.warning("no os.fork on this platform: the %d runs are scored in this process", len(runs))
        width = 1
    if width > 1:
        from .forked import forked_map

        per_run = forked_map(lambda r: _timed_run(args, r), runs, width)
    else:
        per_run = (_timed_run(args, r) for r in runs)
    outcomes: list[RunOutcome] = []
    score_dump: ScoreDump = {}
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
    return StudyReport(outcomes, summaries, warnings, train_sizes, score_dump)


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
        best = outcome.best()
        if best is None:
            continue
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
