"""Semi-supervised evaluation protocol: repeated sampling, threshold sweeps, metrics.

Training data is sampled from the normal class only; the test set is the
remaining normals plus all anomalies. Each distinct base detector is
fitted once per run and scores the test set once, giving one score column
per base. Every requested row reads those columns: an OR-combination such
as `event+length+ecvc` is the element-wise maximum of its members' columns,
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
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence as PySequence, TextIO

from .detectors import Detector, make_detector
from .errors import DetectorNotApplicable, EvalDataError, ValidationError
from .sequencing import Sequence

LOGGER = logging.getLogger("logbench.evaluation")

#: Thresholds 0.00, 0.01, ..., 1.00.
THRESHOLD_GRID = tuple(i / 100 for i in range(101))

#: Flag cutoff for threshold-free detectors emitting 0/1 scores.
FLAG_CUTOFF = 0.5


@dataclass(frozen=True)
class EvalConfig:
    """Study parameters; defaults follow the 1%-sample, 25-run protocol."""

    train_fraction: float = 0.01
    repetitions: int = 25
    rng_seed: int = 1
    threshold_grid: tuple[float, ...] = THRESHOLD_GRID
    granularity: str = "sequence"

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValidationError("train_fraction must lie strictly between 0 and 1")
        if self.repetitions < 1:
            raise ValidationError("repetitions must be >= 1")
        if self.granularity not in ("sequence", "event"):
            raise ValidationError(f"unknown granularity: {self.granularity!r}")
        grid = self.threshold_grid
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValidationError("threshold grid must be strictly increasing")
        if grid[0] < 0.0 or grid[-1] > 1.0:
            raise ValidationError("threshold grid must lie within [0, 1]")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class Metrics:
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


@dataclass(frozen=True)
class EvalResult:
    """Confusion counts and metrics for one (run, detector, threshold) triple.

    threshold is None for threshold-free detectors.
    """

    run: int
    detector: str
    threshold: float | None
    counts: ConfusionCounts
    metrics: Metrics


@dataclass
class RunOutcome:
    """Everything produced by one detector on one run."""

    run: int
    detector: str
    train_size: int
    results: list[EvalResult] = field(default_factory=list)
    best: EvalResult | None = None
    not_applicable: bool = False


@dataclass(frozen=True)
class DetectorSummary:
    """Across-run aggregate of per-run best F1 scores."""

    detector: str
    avg_f1: float | None
    max_f1: float | None
    std_f1: float | None
    n_runs: int
    not_applicable: bool = False


#: Run 0's scores per row: (seq_id, score, flagged at the best threshold, label).
ScoreDump = dict[str, list[tuple[str, float, bool, str]]]


@dataclass
class StudyReport:
    granularity: str
    outcomes: list[RunOutcome]
    summaries: list[DetectorSummary]
    warnings: list[str]
    train_sizes: list[int]
    score_dump: ScoreDump = field(default_factory=dict)

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
    test: list[Sequence],
    scores: list[float],
    threshold_grid: PySequence[float] = THRESHOLD_GRID,
    *,
    run: int = 0,
    train_size: int = 0,
) -> RunOutcome:
    """Derive metrics at every grid threshold from one row's score column.

    `scores[i]` is the score of `test[i]`. A threshold-free row gets one
    result at the 0/1 flag cutoff instead of the grid.
    """
    outcome = RunOutcome(run=run, detector=detector, train_size=train_size)
    anom = sorted(s for s, seq in zip(scores, test) if seq.label.anomalous)
    norm = sorted(s for s, seq in zip(scores, test) if not seq.label.anomalous)
    if thresholded:
        for t in threshold_grid:
            counts = _counts_at(anom, norm, t)
            outcome.results.append(
                EvalResult(run, detector, t, counts, metrics_from_counts(counts))
            )
        outcome.best = _best_result(outcome.results)
    else:
        counts = _counts_at(anom, norm, FLAG_CUTOFF)
        result = EvalResult(run, detector, None, counts, metrics_from_counts(counts))
        outcome.results.append(result)
        outcome.best = result if result.metrics.f1 is not None else None
    return outcome


DetectorFactory = Callable[[str], Detector]


def _score_column(
    detector: Detector, train: list[Sequence], test: list[Sequence]
) -> list[float] | None:
    """Fit once and score the test set once; None when the detector is not applicable."""
    try:
        detector.fit(train)
    except DetectorNotApplicable as exc:
        LOGGER.info("detector %s not applicable: %s", detector.name, exc)
        return None
    return detector.score_batch(test)


def _evaluate_one_run(
    seqs: list[Sequence],
    config: EvalConfig,
    detector_specs: PySequence[str],
    factory: DetectorFactory,
    dump_run0_scores: bool,
    run_index: int,
) -> tuple[list[RunOutcome], ScoreDump]:
    train, test = split(seqs, config, run_index)
    columns: dict[str, list[float] | None] = {}
    outcomes = []
    dumps: ScoreDump = {}
    for spec in detector_specs:
        members = [factory(part) for part in spec.split("+")]
        for member in members:
            if member.name not in columns:
                columns[member.name] = _score_column(member, train, test)
        name = "+".join(member.name for member in members)
        member_columns = [columns[member.name] for member in members]
        if any(column is None for column in member_columns):
            outcomes.append(RunOutcome(run_index, name, len(train), not_applicable=True))
            continue
        scores = [max(values) for values in zip(*member_columns)]
        thresholded = any(member.thresholded for member in members)
        outcome = evaluate_run(
            name, thresholded, test, scores, config.threshold_grid, run=run_index, train_size=len(train)
        )
        outcomes.append(outcome)
        if dump_run0_scores and run_index == 0:
            best = outcome.best
            cutoff = best.threshold if best is not None and best.threshold is not None else FLAG_CUTOFF
            dumps[name] = [
                (seq.seq_id, score, score > cutoff, "anomalous" if seq.label.anomalous else "normal")
                for seq, score in zip(test, scores)
            ]
    return outcomes, dumps


_WORKER_ARGS: tuple = ()


def _init_worker(*args):
    global _WORKER_ARGS
    _WORKER_ARGS = args


def _worker(run_index: int):
    return _evaluate_one_run(*_WORKER_ARGS, run_index)


def _summarize_detector(detector: str, outcomes: list[RunOutcome]) -> DetectorSummary:
    if all(o.not_applicable for o in outcomes):
        return DetectorSummary(detector, None, None, None, len(outcomes), not_applicable=True)
    f1s = [o.best.metrics.f1 for o in outcomes if o.best is not None]
    if not f1s:
        return DetectorSummary(detector, None, None, None, len(outcomes))
    avg = sum(f1s) / len(f1s)
    std = statistics.stdev(f1s) if len(f1s) > 1 else 0.0
    return DetectorSummary(detector, avg, max(f1s), std, len(outcomes))


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
    them. Runs are independent (per-run seed stream) and may execute in
    parallel; results are identical regardless of the worker count.
    """
    if config.granularity == "event":
        return evaluate_events(seqs, config)
    args = (seqs, config, tuple(detector_specs), detector_factory, dump_run0_scores)
    runs = range(config.repetitions)
    if jobs > 1 and len(runs) > 1:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(runs)), initializer=_init_worker, initargs=args
        ) as pool:
            per_run = list(pool.map(_worker, runs))
    else:
        per_run = [_evaluate_one_run(*args, r) for r in runs]
    outcomes: list[RunOutcome] = []
    score_dump: ScoreDump = {}
    for run_outcomes, dumps in per_run:
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
    return StudyReport(
        granularity="sequence",
        outcomes=outcomes,
        summaries=summaries,
        warnings=warnings,
        train_sizes=train_sizes,
        score_dump=score_dump,
    )


def evaluate_events(seqs: list[Sequence], config: EvalConfig) -> StudyReport:
    """Event-granularity evaluation of new-event detection.

    Training event types come from sampled normal sequences; every test
    event is classified anomalous iff its type is unknown, and confusion
    counts run over events against their own labels.
    """
    if any(s.event_labels is None for s in seqs):
        raise EvalDataError(
            "event-granularity evaluation requires per-event labels on every sequence"
        )
    outcomes = []
    for r in range(config.repetitions):
        train, test = split(seqs, config, r)
        known: set[int] = set()
        for seq in train:
            known.update(seq.events)
        tp = fp = tn = fn = 0
        for seq in test:
            for event, label in zip(seq.events, seq.event_labels):
                flagged = event not in known
                if label.anomalous:
                    tp += flagged
                    fn += not flagged
                else:
                    fp += flagged
                    tn += not flagged
        counts = ConfusionCounts(tp, fp, tn, fn)
        result = EvalResult(r, "event", None, counts, metrics_from_counts(counts))
        outcomes.append(
            RunOutcome(
                r,
                "event",
                len(train),
                results=[result],
                best=result if result.metrics.f1 is not None else None,
            )
        )
    summaries = [_summarize_detector("event", outcomes)]
    warnings = _degeneracy_warnings("event", outcomes)
    return StudyReport(
        granularity="event",
        outcomes=outcomes,
        summaries=summaries,
        warnings=warnings,
        train_sizes=sorted({o.train_size for o in outcomes}),
    )


def _fmt(value: float | None, spec: str = "{:.6f}") -> str:
    return "NA" if value is None else spec.format(value)


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
        writer.writerow(
            (
                res.run,
                res.detector,
                "NA" if res.threshold is None else f"{res.threshold:.2f}",
                res.counts.tp,
                res.counts.fp,
                res.counts.tn,
                res.counts.fn,
                _fmt(res.metrics.precision),
                _fmt(res.metrics.recall),
                _fmt(res.metrics.tnr),
                _fmt(res.metrics.f1),
            )
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
            (
                outcome.run,
                outcome.detector,
                "NA" if best.threshold is None else f"{best.threshold:.2f}",
                _fmt(best.metrics.precision),
                _fmt(best.metrics.recall),
                _fmt(best.metrics.tnr),
                _fmt(best.metrics.f1),
            )
        )


def write_sweep_csv(results: Iterable[EvalResult], handle: TextIO) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(("detector", "threshold", "precision", "recall", "tnr", "f1"))
    for res in results:
        writer.writerow(
            (
                res.detector,
                "NA" if res.threshold is None else f"{res.threshold:.2f}",
                _fmt(res.metrics.precision),
                _fmt(res.metrics.recall),
                _fmt(res.metrics.tnr),
                _fmt(res.metrics.f1),
            )
        )


def write_scores_csv(dump: ScoreDump, handle: TextIO) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(("seq_id", "detector", "score", "flag", "label"))
    for detector in sorted(dump):
        for seq_id, score, flag, label in dump[detector]:
            writer.writerow((seq_id, detector, f"{score:.6f}", int(flag), label))
