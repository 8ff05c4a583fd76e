from __future__ import annotations

import io
import itertools
import logging
import multiprocessing
import os
import pickle
import random
import re
import signal
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from logbench import evaluation
from logbench.cli import main as cli_main
from logbench.detectors import Detector, STUDY_DETECTORS, make_detector
from logbench.errors import EvalDataError, LogbenchError, ValidationError
from logbench.evaluation import (
    ConfusionCounts,
    EvalConfig,
    FLAG_CUTOFF,
    Metrics,
    THRESHOLD_GRID,
    evaluate_run,
    evaluate_study,
    metrics_from_counts,
    run_seed,
    split,
    write_bests_csv,
    write_results_csv,
    write_scores_csv,
    write_summary_csv,
)
from logbench.events import Label, NORMAL, ParsedEvent
from logbench.sequencing import Sequence, read_sequences

from corpora import event_labeled_corpus, event_study, synthetic_corpus
from oracles import combination_scores_naive, confusion_naive, evaluate_run_listed, event_confusion_naive

BUNDLED = Path(__file__).parent.parent / "src" / "logbench" / "data" / "synthetic_sequences.tsv"


ANOM = Label(True, "t")


def nseq(events, sid):
    return Sequence(sid, list(events), None, NORMAL)


def aseq(events, sid):
    return Sequence(sid, list(events), None, ANOM)


class FixedScoreDetector(Detector):
    """Scores each sequence by a preassigned value; for protocol tests."""

    name = "fixed"
    thresholded = True

    def __init__(self, scores):
        self.scores = dict(scores)

    def fit(self, train):
        return self

    def score(self, seq):
        return self.scores[seq.seq_id]


def run_detector(train, test, det):
    """One study row by hand: fit, score the test set once, sweep the column."""
    det.fit(train)
    anomalous = [s.label.anomalous for s in test]
    return evaluate_run(det.name, det.thresholded, anomalous, det.score_batch(test), train_size=len(train))


def tiny_dataset(n_normal=10, n_anom=4):
    seqs = [nseq([1, 2, 3], f"n{i}") for i in range(n_normal)]
    seqs += [aseq([9, 9], f"a{i}") for i in range(n_anom)]
    return seqs


class TestConfig:
    def test_defaults(self):
        config = EvalConfig()
        assert config.train_fraction == 0.01
        assert config.repetitions == 25
        assert len(THRESHOLD_GRID) == 101

    def test_invalid_fraction(self):
        with pytest.raises(ValidationError):
            EvalConfig(train_fraction=1.5)
        with pytest.raises(ValidationError):
            EvalConfig(train_fraction=0.0)

    @pytest.mark.parametrize(
        "change", [{"train_fraction": 1.0}, {"repetitions": 0}, {"train_fraction": 0.0}]
    )
    def test_replace_validates(self, change):
        config = EvalConfig(train_fraction=0.2, repetitions=3, rng_seed=5)
        with pytest.raises(ValidationError):
            config._replace(**change)
        assert config._replace(rng_seed=6) == EvalConfig(0.2, 3, 6)


class TestMetrics:
    def test_formulas(self):
        m = metrics_from_counts(ConfusionCounts(tp=6, fp=2, tn=10, fn=2))
        assert m.precision == pytest.approx(0.75)
        assert m.recall == pytest.approx(0.75)
        assert m.tnr == pytest.approx(10 / 12)
        assert m.f1 == pytest.approx(0.75)

    def test_undefined_metrics_are_none_not_zero(self):
        m = metrics_from_counts(ConfusionCounts(tp=0, fp=0, tn=5, fn=3))
        assert m.precision is None
        assert m.f1 is None
        assert m.recall == 0.0
        m2 = metrics_from_counts(ConfusionCounts(tp=0, fp=1, tn=5, fn=0))
        assert m2.recall is None
        assert m2.f1 is None

    def test_zero_precision_and_recall_gives_na_f1(self):
        m = metrics_from_counts(ConfusionCounts(tp=0, fp=2, tn=5, fn=3))
        assert m.precision == 0.0 and m.recall == 0.0
        assert m.f1 is None


class TestSplit:
    def test_one_percent_of_hundred_is_one(self):
        seqs = tiny_dataset(n_normal=100, n_anom=1)
        train, test = split(seqs, EvalConfig(train_fraction=0.01), 0)
        assert len(train) == 1
        assert len(test) == 100

    def test_round_half_up_with_floor_one(self):
        seqs = tiny_dataset(n_normal=100, n_anom=1)
        train, _ = split(seqs, EvalConfig(train_fraction=0.015), 0)
        assert len(train) == 2  # 1.5 rounds half-up
        train, _ = split(seqs, EvalConfig(train_fraction=0.001), 0)
        assert len(train) == 1  # floor of one

    def test_same_seed_identical_split(self):
        seqs = tiny_dataset()
        config = EvalConfig(train_fraction=0.2, rng_seed=7)
        a = split(seqs, config, 3)
        b = split(seqs, config, 3)
        assert [s.seq_id for s in a[0]] == [s.seq_id for s in b[0]]
        assert [s.seq_id for s in a[1]] == [s.seq_id for s in b[1]]

    def test_different_runs_differ(self):
        seqs = tiny_dataset(n_normal=50)
        config = EvalConfig(train_fraction=0.2, rng_seed=7)
        ids = {tuple(s.seq_id for s in split(seqs, config, r)[0]) for r in range(10)}
        assert len(ids) > 1

    def test_training_only_from_normals(self):
        seqs = tiny_dataset()
        train, test = split(seqs, EvalConfig(train_fraction=0.3), 0)
        assert all(not s.label.anomalous for s in train)
        assert sum(s.label.anomalous for s in test) == 4

    def test_partition_is_exact(self):
        seqs = tiny_dataset()
        train, test = split(seqs, EvalConfig(train_fraction=0.3), 1)
        assert len(train) + len(test) == len(seqs)
        assert {s.seq_id for s in train}.isdisjoint({s.seq_id for s in test})

    def test_zero_anomalies_refused(self):
        seqs = [nseq([1], f"n{i}") for i in range(5)]
        with pytest.raises(EvalDataError, match="no anomalies"):
            split(seqs, EvalConfig(train_fraction=0.2), 0)

    def test_run_seed_stream_is_stable(self):
        assert run_seed(42, 0) == run_seed(42, 0)
        assert run_seed(42, 0) != run_seed(42, 1)
        assert run_seed(42, 0) != run_seed(43, 0)


class TestEvaluateRun:
    def test_perfect_detector(self):
        seqs = tiny_dataset()
        train, test = split(seqs, EvalConfig(train_fraction=0.2), 0)
        scores = {s.seq_id: (1.0 if s.label.anomalous else 0.0) for s in test}
        outcome = run_detector(train, test, FixedScoreDetector(scores))
        assert outcome.best().metrics.f1 == pytest.approx(1.0)
        mid = [r for r in outcome.results() if r.threshold == pytest.approx(0.5)][0]
        assert mid.metrics.f1 == pytest.approx(1.0)

    def test_flag_everything_hadoop_degeneracy(self):
        # 844 anomalies / 1000 items: Prec 0.844, Rec 1, TNR 0, F1 ~ 0.915
        test = [aseq([1], f"a{i}") for i in range(844)] + [nseq([1], f"n{i}") for i in range(156)]
        outcome = run_detector([nseq([1], "tr")], test, FixedScoreDetector({s.seq_id: 1.0 for s in test}))
        at0 = outcome.results()[0]
        assert at0.threshold == 0.0
        assert at0.metrics.precision == pytest.approx(0.844)
        assert at0.metrics.recall == pytest.approx(1.0)
        assert at0.metrics.tnr == 0.0
        assert at0.metrics.f1 == pytest.approx(0.915, abs=5e-4)

    def test_grid_enumeration_example(self):
        test = [nseq([1], "n0"), aseq([2], "a0"), aseq([3], "a1")]
        det = FixedScoreDetector({"n0": 0.2, "a0": 0.6, "a1": 0.9})
        outcome = run_detector([nseq([1], "tr")], test, det)
        by_t = {round(r.threshold, 2): r for r in outcome.results()}
        for t in (0.2, 0.3, 0.45, 0.59):
            r = by_t[round(t, 2)] if round(t, 2) in by_t else None
            if r is not None:
                assert (r.counts.tp, r.counts.fp) == (2, 0)
                assert r.metrics.f1 == pytest.approx(1.0)
        assert by_t[0.1].counts.fp == 1
        assert by_t[0.95].counts.tp == 0
        assert outcome.best().metrics.f1 == pytest.approx(1.0)
        assert outcome.best().threshold == pytest.approx(0.2)  # smallest best threshold

    def test_counts_sum_to_test_size_at_every_threshold(self):
        seqs = tiny_dataset()
        train, test = split(seqs, EvalConfig(train_fraction=0.2), 0)
        rng = random.Random(0)
        det = FixedScoreDetector({s.seq_id: rng.random() for s in test})
        outcome = run_detector(train, test, det)
        assert all(r.counts.total == len(test) for r in outcome.results())

    def test_flagged_sets_nested_in_threshold(self):
        rng = random.Random(1)
        test = [nseq([1], f"n{i}") for i in range(30)] + [aseq([2], f"a{i}") for i in range(10)]
        det = FixedScoreDetector({s.seq_id: rng.random() for s in test})
        outcome = run_detector([nseq([1], "tr")], test, det)
        flagged = [r.counts.tp + r.counts.fp for r in outcome.results()]
        assert flagged == sorted(flagged, reverse=True)

    def test_threshold_free_detector_single_result(self):
        seqs = synthetic_corpus(n_normal=40, per_anomaly=3, kinds=("new-event",))
        config = EvalConfig(train_fraction=0.2, repetitions=1)
        train, test = split(seqs, config, 0)
        outcome = run_detector(train, test, make_detector("event"))
        assert len(outcome.results()) == 1
        assert outcome.results()[0].threshold is None
        assert outcome.best().metrics.f1 == pytest.approx(1.0)

    def test_pipeline_matches_naive_confusion_oracle(self):
        rng = random.Random(2)
        test = [nseq([1], f"n{i}") for i in range(600)] + [aseq([2], f"a{i}") for i in range(400)]
        scores = {s.seq_id: rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) for s in test}
        det = FixedScoreDetector(scores)
        outcome = run_detector([nseq([1], "tr")], test, det)
        ordered_scores = [scores[s.seq_id] for s in test]
        labels = [s.label.anomalous for s in test]
        for r in outcome.results():
            tp, fp, tn, fn = confusion_naive(ordered_scores, labels, r.threshold)
            assert (r.counts.tp, r.counts.fp, r.counts.tn, r.counts.fn) == (tp, fp, tn, fn)


@st.composite
def score_columns(draw):
    """(thresholded, classes, scores): scores at and between grid values, all-equal columns, one-class columns."""
    thresholded = draw(st.booleans())
    value = (
        st.one_of(st.sampled_from(THRESHOLD_GRID), st.floats(0.0, 1.0), st.just(FLAG_CUTOFF))
        if thresholded
        else st.sampled_from([0.0, 1.0])
    )
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):
        scores = [draw(value)] * n
    else:
        scores = draw(st.lists(value, min_size=n, max_size=n))
    if draw(st.booleans()):
        anomalous = [draw(st.booleans())] * n
    else:
        anomalous = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return thresholded, anomalous, scores


class TestConfusionCountOutcomes:
    @given(score_columns(), st.integers(0, 30), st.integers(0, 1000))
    def test_rows_and_best_match_the_listed_oracle(self, column, run, train_size):
        thresholded, anomalous, scores = column
        outcome = evaluate_run("row", thresholded, anomalous, scores, run=run, train_size=train_size)
        results, best = evaluate_run_listed("row", thresholded, anomalous, scores, run=run, train_size=train_size)
        assert outcome.results() == results
        assert outcome.best() == best
        assert (outcome.anomalies, outcome.normals) == (sum(anomalous), len(anomalous) - sum(anomalous))
        assert pickle.loads(pickle.dumps(outcome)) == outcome

    def test_not_applicable_row_keeps_no_counts(self):
        report = evaluate_study(tiny_dataset(), EvalConfig(train_fraction=0.2, repetitions=2), ["timing"])
        for outcome in report.outcomes:
            assert outcome.not_applicable
            assert (outcome.tp, outcome.fp, outcome.best_index) == ((), (), None)
            assert outcome.results() == [] and outcome.best() is None

    def test_a_run_pickles_to_a_fifth_of_its_rows(self):
        seqs = read_sequences(BUNDLED)
        report = evaluate_study(seqs, EvalConfig(train_fraction=0.1, repetitions=1), STUDY_DETECTORS)
        rows = list(report.results())
        assert len(rows) == 11 * len(THRESHOLD_GRID) + 3
        assert 5 * len(pickle.dumps(report.outcomes)) < len(pickle.dumps(rows))


class TestThresholdSweep:
    def test_extremes(self):
        test = [nseq([1], "n0"), aseq([2], "a0")]
        det = FixedScoreDetector({"n0": 0.4, "a0": 0.8})
        results = run_detector([nseq([1], "tr")], test, det).results()
        assert results[0].threshold == 0.0
        assert results[0].metrics.tnr == 0.0  # all scores > 0: everything flagged
        assert results[-1].threshold == 1.0
        assert results[-1].counts.tp == 0  # strict comparison: nothing flagged
        assert results[-1].metrics.recall == 0.0

    def test_monotone_flag_counts(self):
        rng = random.Random(3)
        test = [nseq([1], f"n{i}") for i in range(20)] + [aseq([2], f"a{i}") for i in range(5)]
        det = FixedScoreDetector({s.seq_id: rng.random() for s in test})
        results = run_detector([nseq([1], "tr")], test, det).results()
        flagged = [r.counts.tp + r.counts.fp for r in results]
        assert flagged == sorted(flagged, reverse=True)


class TestEvaluateStudy:
    def test_deterministic_detector_avg_equals_max(self):
        seqs = synthetic_corpus(n_normal=60, per_anomaly=4, kinds=("short-length",))
        config = EvalConfig(train_fraction=0.2, repetitions=4, rng_seed=3)
        report = evaluate_study(seqs, config, ["length"])
        summary = report.summaries[0]
        assert summary.avg_f1 == pytest.approx(summary.max_f1)
        assert summary.std_f1 == pytest.approx(0.0)

    def test_report_shape(self):
        seqs = synthetic_corpus(n_normal=50, per_anomaly=4)
        config = EvalConfig(train_fraction=0.2, repetitions=3, rng_seed=1)
        report = evaluate_study(seqs, config, ["event", "ecvc"])
        assert {s.detector for s in report.summaries} == {"event", "ecvc"}
        assert len(report.outcomes) == 6
        ecvc_results = [r for r in report.results() if r.detector == "ecvc"]
        assert len(ecvc_results) == 3 * len(THRESHOLD_GRID)

    def test_not_applicable_detector_marked(self):
        seqs = tiny_dataset()  # no timestamps at all
        config = EvalConfig(train_fraction=0.2, repetitions=2)
        report = evaluate_study(seqs, config, ["timing"])
        assert report.summaries[0].not_applicable
        assert report.summaries[0].avg_f1 is None

    @pytest.mark.parametrize(
        "specs", [["ngram2", "ngram2"], ["ngram2", "2-gram"], ["ecvc-idf+event", "ECVC(idf)+event"]]
    )
    def test_row_named_twice_refused_before_the_first_run(self, specs):
        factory = CountingFactory()
        config = EvalConfig(train_fraction=0.1, repetitions=2)
        name = "+".join(make_detector(part).name for part in specs[0].split("+"))
        with pytest.raises(ValidationError, match=re.escape(f"{name!r} is named more than once")):
            evaluate_study(read_sequences(BUNDLED), config, specs, detector_factory=factory)
        assert not factory.fits

    @pytest.mark.parametrize("granularity", ["sequence", "event"])
    def test_empty_row_list_refused(self, granularity):
        config = EvalConfig(train_fraction=0.1, repetitions=2)
        seqs, tally = event_study(event_labeled_corpus())
        with pytest.raises(ValidationError, match="no detector rows"):
            evaluate_study(seqs, config, [], anomalous_events=tally if granularity == "event" else None)

    def test_parallel_equals_serial(self):
        seqs = synthetic_corpus(n_normal=60, per_anomaly=4)
        config = EvalConfig(train_fraction=0.15, repetitions=4, rng_seed=9)
        serial = evaluate_study(seqs, config, ["event", "ecvc"], jobs=1)
        parallel = evaluate_study(seqs, config, ["event", "ecvc"], jobs=2)
        assert serial.outcomes == parallel.outcomes

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_progress_logged_per_run(self, caplog, jobs):
        seqs = synthetic_corpus(n_normal=40, per_anomaly=2)
        config = EvalConfig(train_fraction=0.2, repetitions=3, rng_seed=2)
        with caplog.at_level(logging.INFO, logger="logbench.evaluation"):
            evaluate_study(seqs, config, ["event", "ecvc", "timing"], jobs=jobs)
        records = [r for r in caplog.records if "finished" in r.getMessage()]
        assert [r.levelno for r in records] == [logging.INFO] * 3
        lines = [r.getMessage() for r in records]
        assert [line.split(" rows in ")[0] for line in lines] == [
            f"run {i}/3 finished: 3" for i in (1, 2, 3)
        ]
        assert all(re.fullmatch(r".* rows in \d+\.\d\d s", line) for line in lines)

    def test_progress_silent_at_warning(self, caplog):
        seqs = synthetic_corpus(n_normal=40, per_anomaly=2)
        config = EvalConfig(train_fraction=0.2, repetitions=2, rng_seed=2)
        with caplog.at_level(logging.WARNING, logger="logbench.evaluation"):
            evaluate_study(seqs, config, ["event"])
        assert caplog.records == []

    def test_degeneracy_warning_surfaced(self):
        # anomalies mirror the normal patterns exactly, so the F1 optimum
        # is the flag-everything threshold and TNR collapses to 0
        patterns = [[1, 2] + [3] * i for i in range(20)]
        seqs = [nseq(p, f"n{i}") for i, p in enumerate(patterns)]
        seqs += [aseq(patterns[i % 20], f"a{i}") for i in range(60)]
        config = EvalConfig(train_fraction=0.1, repetitions=2, rng_seed=5)
        report = evaluate_study(seqs, config, ["ecvc"])
        assert any("TNR is 0" in w for w in report.warnings)

    def test_score_dump(self):
        seqs = synthetic_corpus(n_normal=30, per_anomaly=2, kinds=("new-event",))
        config = EvalConfig(train_fraction=0.2, repetitions=2, rng_seed=1)
        report = evaluate_study(seqs, config, ["event"], dump_run0_scores=True)
        rows = report.score_dump["event"]
        assert len(rows) == len(seqs) - report.train_sizes[0]
        assert all(flag == (score > FLAG_CUTOFF) for _, score, flag, _ in rows)


BASES = ("event", "length", "ecvc", "ecvc-idf", "ngram2", "ngram3", "edit", "timing")


def repetitive_corpus(n=120, seed=7):
    """Few distinct event tuples, each repeated many times with its own timestamps.

    Some tuples reorder one multiset, and one tuple occurs in both classes.
    """
    rng = random.Random(seed)
    normal = [(1, 2, 3, 4), (1, 3, 2, 4), (4, 3, 2, 1), (1, 2, 2, 3), (1, 2, 3), (5, 1, 2)]
    anomalous = [(1, 2, 4, 3), (1, 2, 3, 9), (2, 2, 2, 2, 2, 2), (1, 2), (4, 3, 2, 1)]
    seqs = []
    for i in range(n):
        anomaly = i % 6 == 5
        events = rng.choice(anomalous if anomaly else normal)
        stamps = list(itertools.accumulate(round(rng.uniform(0.1, 5.0), 3) for _ in events))
        seqs.append(Sequence(f"s{i}", list(events), stamps, ANOM if anomaly else NORMAL))
    return seqs


def random_specs(rng):
    """Rows of one to three members, repeated members and aliases included; the first row of each name is kept."""
    names = BASES + ("2-gram", "ECVC(idf)", "event-timing")
    rows: dict[str, str] = {}
    for _ in range(rng.randint(1, 6)):
        spec = "+".join(rng.choice(names) for _ in range(rng.randint(1, 3)))
        rows.setdefault("+".join(make_detector(part).name for part in spec.split("+")), spec)
    return list(rows.values())


class CountingFactory:
    """make_detector, with every fit and score_batch call tallied per base name.

    `batches[name]` holds the sequences of each `score_batch` call, in call order.
    """

    def __init__(self):
        self.fits = Counter()
        self.scores = Counter()
        self.batches = defaultdict(list)

    def __call__(self, part):
        detector = make_detector(part)
        fit, score_batch = detector.fit, detector.score_batch

        def counted_fit(train):
            self.fits[detector.name] += 1
            return fit(train)

        def counted_score_batch(seqs):
            self.scores[detector.name] += 1
            self.batches[detector.name].append(list(seqs))
            return score_batch(seqs)

        detector.fit, detector.score_batch = counted_fit, counted_score_batch
        return detector


class TestSharedScoreColumns:
    @pytest.mark.parametrize("timestamps", [True, False])
    @pytest.mark.parametrize("jobs,dump", [(1, False), (2, False), (1, True), (2, True)])
    def test_rows_match_member_max_oracle(self, jobs, dump, timestamps):
        rng = random.Random(100 * jobs + 10 * dump + timestamps)
        for seqs, trial in itertools.product((read_sequences(BUNDLED), repetitive_corpus()), range(3)):
            if not timestamps:
                seqs = [Sequence(s.seq_id, s.events, None, s.label) for s in seqs]
            specs = random_specs(rng)
            config = EvalConfig(train_fraction=0.1, repetitions=2, rng_seed=trial)
            report = evaluate_study(seqs, config, specs, jobs=jobs, dump_run0_scores=dump)
            outcomes = iter(report.outcomes)
            for run in range(config.repetitions):
                train, test = split(seqs, config, run)
                labels = [s.label.anomalous for s in test]
                for spec in specs:
                    outcome = next(outcomes)
                    expected = combination_scores_naive(spec, train, test)
                    assert outcome.not_applicable == (expected is None), spec
                    if expected is None:
                        assert not outcome.results() and outcome.detector not in report.score_dump
                        continue
                    for res in outcome.results():
                        cutoff = FLAG_CUTOFF if res.threshold is None else res.threshold
                        counts = (res.counts.tp, res.counts.fp, res.counts.tn, res.counts.fn)
                        assert counts == confusion_naive(expected, labels, cutoff), (spec, cutoff)
                    if dump and run == 0:
                        dumped = report.score_dump[outcome.detector]
                        assert [row[0] for row in dumped] == [s.seq_id for s in test]
                        assert [row[1] for row in dumped] == expected
                        best = outcome.best()
                        cutoff = FLAG_CUTOFF if best is None or best.threshold is None else best.threshold
                        assert [row[2] for row in dumped] == [v > cutoff for v in expected]
            assert next(outcomes, None) is None
            assert bool(report.score_dump) == (dump and any(not o.not_applicable for o in report.outcomes))

    @pytest.mark.parametrize("dump", [False, True])
    def test_each_base_fitted_and_scored_once_per_run(self, dump):
        seqs = read_sequences(BUNDLED)
        factory = CountingFactory()
        config = EvalConfig(train_fraction=0.1, repetitions=3)
        evaluate_study(seqs, config, STUDY_DETECTORS, detector_factory=factory, dump_run0_scores=dump)
        bases = {part for spec in STUDY_DETECTORS for part in spec.split("+")}
        assert len(bases) == 9
        assert factory.fits == {base: 3 for base in bases}
        assert factory.scores == {base: 3 for base in bases}

    def test_bases_score_each_distinct_tuple_once(self):
        seqs = repetitive_corpus()
        factory = CountingFactory()
        config = EvalConfig(train_fraction=0.1, repetitions=2)
        evaluate_study(seqs, config, STUDY_DETECTORS, detector_factory=factory)
        assert len(factory.batches) == 9
        for run in range(config.repetitions):
            _, test = split(seqs, config, run)
            distinct = list(dict.fromkeys(tuple(s.events) for s in test))
            assert len(distinct) < len(test) / 5
            for name, batches in factory.batches.items():
                batch = batches[run]
                if name == "timing":
                    assert [s.seq_id for s in batch] == [s.seq_id for s in test]
                else:
                    assert [tuple(s.events) for s in batch] == distinct, name

    def test_aliases_share_one_column(self):
        seqs = read_sequences(BUNDLED)
        factory = CountingFactory()
        config = EvalConfig(train_fraction=0.1, repetitions=1)
        report = evaluate_study(
            seqs, config, ["ecvc(idf)", "ecvc-idf+2-gram", "ngram2", "event+event"], detector_factory=factory
        )
        assert [o.detector for o in report.outcomes] == ["ecvc-idf", "ecvc-idf+ngram2", "ngram2", "event+event"]
        assert factory.fits == {"ecvc-idf": 1, "ngram2": 1, "event": 1}
        assert factory.scores == factory.fits

    def test_not_applicable_member_is_fitted_once(self):
        seqs = [Sequence(s.seq_id, s.events, None, s.label) for s in read_sequences(BUNDLED)]
        factory = CountingFactory()
        config = EvalConfig(train_fraction=0.1, repetitions=1)
        report = evaluate_study(seqs, config, ["timing", "event+timing", "event"], detector_factory=factory)
        assert [o.not_applicable for o in report.outcomes] == [True, True, False]
        assert factory.fits == {"timing": 1, "event": 1}
        assert factory.scores == {"event": 1}


#: Event types, and the labels an event may carry, in generated event streams.
EVENT_TYPES = st.integers(min_value=0, max_value=7)
ANOMALOUS_LABELS = st.sampled_from([Label(True, "a"), Label(True, "b")])


@st.composite
def labeled_event_streams(draw):
    """A shuffled event stream: normal sequences, anomalous ones with mixed labels,
    partly unlabeled ones, rows without an id, and a few rows shared by two ids."""
    rows = []
    for i in range(draw(st.integers(min_value=2, max_value=6))):
        rows += [((f"n{i}",), e, NORMAL) for e in draw(st.lists(EVENT_TYPES, min_size=1, max_size=6))]
    mixed = st.tuples(EVENT_TYPES, st.one_of(st.just(NORMAL), ANOMALOUS_LABELS))
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        rows += [((f"a{i}",), e, label) for e, label in draw(st.lists(mixed, max_size=5))]
        rows.append(((f"a{i}",), draw(EVENT_TYPES), draw(ANOMALOUS_LABELS)))
    for i in range(draw(st.integers(min_value=0, max_value=2))):
        rows += [((f"u{i}",), e, label) for e, label in draw(st.lists(mixed, max_size=3))]
        rows.append(((f"u{i}",), draw(EVENT_TYPES), None))
    maybe = st.one_of(st.none(), st.just(NORMAL), ANOMALOUS_LABELS)
    rows += [((), e, label) for e, label in draw(st.lists(st.tuples(EVENT_TYPES, maybe), max_size=3))]
    ids = sorted({sid for sids, _, _ in rows for sid in sids})
    shared = st.tuples(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True), EVENT_TYPES, maybe)
    rows += [(tuple(sids), e, label) for sids, e, label in draw(st.lists(shared, max_size=2))]
    draw(st.randoms(use_true_random=False)).shuffle(rows)
    return [ParsedEvent(n, e, None, sids, label) for n, (sids, e, label) in enumerate(rows, 1)]


class TestEvaluateEvents:
    @settings(max_examples=200, deadline=None)
    @given(labeled_event_streams(), st.sampled_from([0.2, 0.5, 0.8]), st.integers(min_value=0, max_value=9))
    def test_counts_match_the_per_event_loop(self, events, fraction, seed):
        config = EvalConfig(train_fraction=fraction, repetitions=3, rng_seed=seed)
        seqs, tally = event_study(events)
        try:
            expected = [event_confusion_naive(events, config, run) for run in range(config.repetitions)]
        except EvalDataError:
            with pytest.raises(EvalDataError):
                evaluate_study(seqs, config, ["event"], anomalous_events=tally)
            return
        report = evaluate_study(seqs, config, ["event"], anomalous_events=tally)
        assert [o.results()[0].counts for o in report.outcomes] == expected

    def test_disjoint_anomalous_types_full_recall(self):
        seqs, tally = event_study(event_labeled_corpus(n_normal=40, n_anomalous=10))
        config = EvalConfig(train_fraction=0.2, repetitions=3, rng_seed=2)
        report = evaluate_study(seqs, config, ["event"], anomalous_events=tally)
        for outcome in report.outcomes:
            assert outcome.best().metrics.recall == pytest.approx(1.0)

    def test_full_training_coverage_no_false_positives(self):
        seqs, tally = event_study(event_labeled_corpus(n_normal=40, n_anomalous=10))
        config = EvalConfig(train_fraction=0.5, repetitions=2, rng_seed=2)
        report = evaluate_study(seqs, config, ["event"], anomalous_events=tally)
        for outcome in report.outcomes:
            assert outcome.results()[0].counts.fp == 0
            assert outcome.best().metrics.tnr == pytest.approx(1.0)

    def test_confusion_is_over_events(self):
        seqs, tally = event_study(event_labeled_corpus(n_normal=10, n_anomalous=3))
        config = EvalConfig(train_fraction=0.3, repetitions=1, rng_seed=0)
        train, test = split(seqs, config, 0)
        report = evaluate_study(seqs, config, ["event"], anomalous_events=tally)
        total_events = sum(len(s) for s in test)
        assert report.outcomes[0].results()[0].counts.total == total_events

    def test_counts_flag_event_types_unseen_in_training(self):
        events = event_labeled_corpus(n_normal=30, n_anomalous=8)
        seqs, tally = event_study(events)
        config = EvalConfig(train_fraction=0.1, repetitions=3, rng_seed=4)
        report = evaluate_study(seqs, config, ["event"], anomalous_events=tally)
        for r, outcome in enumerate(report.outcomes):
            train, test = split(seqs, config, r)
            known = {e for seq in train for e in seq.events}
            scores = [float(e not in known) for seq in test for e in seq.events]
            labels = [e == 99 for seq in test for e in seq.events]
            counts = outcome.results()[0].counts
            assert (counts.tp, counts.fp, counts.tn, counts.fn) == confusion_naive(scores, labels, 0.5)
            assert counts == event_confusion_naive(events, config, r)

    def test_refuses_a_tally_its_sequences_cannot_hold(self):
        seqs, tally = event_study(event_labeled_corpus(n_normal=30, n_anomalous=5))
        assert tally == {99: 5}
        config = EvalConfig(train_fraction=0.2, repetitions=1)
        # type 99 occurs 5 times in the anomalous sequences, type 7 in none of the sequences
        for bad in ({99: 6}, {99: 5, 7: 1}, {99: -1}):
            with pytest.raises(EvalDataError, match="the anomalous sequences hold"):
                evaluate_study(seqs, config, ["event"], anomalous_events=bad)
        # type 1 occurs once in each anomalous sequence, so its events may all be anomalous
        report = evaluate_study(seqs, config, ["event"], anomalous_events={99: 5, 1: 5})
        assert report.outcomes[0].anomalies == 10

    def test_refuses_rows_other_than_event(self):
        seqs, tally = event_study(event_labeled_corpus(n_normal=30, n_anomalous=5))
        config = EvalConfig(train_fraction=0.2, repetitions=1)
        with pytest.raises(ValidationError, match="not: ecvc, event\\+edit"):
            evaluate_study(seqs, config, ["event", "ecvc", "event+edit"], anomalous_events=tally)
        report = evaluate_study(seqs, config, [" Event "], anomalous_events=tally)
        assert [s.detector for s in report.summaries] == ["event"]

    def test_granularity_dispatch(self):
        """The tally, even an empty one, selects the event units; without it a run scores sequences."""
        seqs, tally = event_study(event_labeled_corpus(n_normal=30, n_anomalous=5))
        config = EvalConfig(train_fraction=0.2, repetitions=1)
        _, test = split(seqs, config, 0)
        events = sum(map(len, test))
        for anomalous_events, units, anomalies in ((tally, events, 5), ({}, events, 0), (None, len(test), 5)):
            (outcome,) = evaluate_study(seqs, config, ["event"], anomalous_events=anomalous_events).outcomes
            assert (outcome.results()[0].counts.total, outcome.anomalies) == (units, anomalies)


def written(report) -> list[str]:
    """The four CSVs `eval --dump-scores` writes for a report."""
    texts = []
    for write, arg in (
        (write_results_csv, report),
        (write_summary_csv, report),
        (write_bests_csv, report),
        (write_scores_csv, report.score_dump),
    ):
        handle = io.StringIO(newline="")
        write(arg, handle)
        texts.append(handle.getvalue())
    return texts


class TwoArgumentError(Exception):
    """Pickles, but cannot be rebuilt from its pickled arguments."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def in_child(parent: int) -> bool:
    return os.getpid() != parent


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedRuns:
    """`jobs > 1` forks children of the study process; none outlives `evaluate_study`."""

    SPECS = ["event", "ecvc", "edit", "timing", "event+length"]

    @pytest.fixture(autouse=True)
    def bounded_without_leftovers(self):
        """Fail a test that hangs past 30 s, or leaves a child process or an open pipe behind."""

        def timeout(signum, frame):
            raise TimeoutError("the test hung")

        fds = sorted(os.listdir("/dev/fd"))
        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(30)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert sorted(os.listdir("/dev/fd")) == fds

    @pytest.fixture(scope="class")
    def corpus(self):
        return synthetic_corpus(n_normal=50, per_anomaly=3)

    @pytest.mark.parametrize("jobs, runs", [(2, 4), (3, 4), (3, 5), (8, 3)])
    def test_uneven_shares_write_the_serial_bytes(self, corpus, jobs, runs):
        config = EvalConfig(train_fraction=0.1, repetitions=runs, rng_seed=6)
        serial = evaluate_study(corpus, config, self.SPECS, jobs=1, dump_run0_scores=True)
        forked = evaluate_study(corpus, config, self.SPECS, jobs=jobs, dump_run0_scores=True)
        assert forked.outcomes == serial.outcomes
        assert written(forked) == written(serial)

    def test_no_sequence_is_pickled(self, corpus, monkeypatch):
        def refuse(self, protocol):
            raise AssertionError("a Sequence was pickled")

        monkeypatch.setattr(Sequence, "__reduce_ex__", refuse)
        with pytest.raises(AssertionError, match="was pickled"):
            pickle.dumps(corpus[0])
        config = EvalConfig(train_fraction=0.1, repetitions=3, rng_seed=2)
        forked = evaluate_study(corpus, config, self.SPECS, jobs=2, dump_run0_scores=True)
        assert written(forked) == written(evaluate_study(corpus, config, self.SPECS, dump_run0_scores=True))

    @pytest.mark.parametrize("error", [EvalDataError, ZeroDivisionError])
    def test_child_exception_raises_here_with_its_message(self, corpus, monkeypatch, error):
        parent = os.getpid()

        def split_failing_in_children(seqs, config, run_index):
            if in_child(parent):
                raise error(f"run {run_index} refused")
            return split(seqs, config, run_index)

        monkeypatch.setattr(evaluation, "split", split_failing_in_children)
        config = EvalConfig(train_fraction=0.1, repetitions=4)
        with pytest.raises(error, match=r"^run 1 refused$") as info:
            evaluate_study(corpus, config, ["event"], jobs=2)
        assert "split_failing_in_children" in str(info.value.__cause__)

    def test_exception_that_cannot_be_rebuilt_names_its_type(self, corpus, monkeypatch):
        parent = os.getpid()

        def split_failing_in_children(seqs, config, run_index):
            if in_child(parent):
                raise TwoArgumentError("a", "b")
            return split(seqs, config, run_index)

        monkeypatch.setattr(evaluation, "split", split_failing_in_children)
        config = EvalConfig(train_fraction=0.1, repetitions=2)
        with pytest.raises(LogbenchError, match=r"^TwoArgumentError: a/b$"):
            evaluate_study(corpus, config, ["event"], jobs=2)

    @pytest.mark.parametrize(
        "die, ending",
        [(lambda: os._exit(3), "exit code 3"), (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9")],
        ids=["exit", "signal"],
    )
    def test_child_that_dies_names_its_runs(self, corpus, monkeypatch, die, ending):
        parent = os.getpid()

        def split_dying_in_children(seqs, config, run_index):
            if in_child(parent):
                die()
            return split(seqs, config, run_index)

        monkeypatch.setattr(evaluation, "split", split_dying_in_children)
        config = EvalConfig(train_fraction=0.1, repetitions=5)
        message = rf"^the process scoring runs 2, 5 of 5 ended without a result \({ending}\)$"
        with pytest.raises(LogbenchError, match=message):
            evaluate_study(corpus, config, ["event"], jobs=3)

    def test_failure_here_while_a_child_writes_more_than_a_pipe_holds(self, corpus, monkeypatch):
        parent = os.getpid()

        def one_run(*args):
            if not in_child(parent):
                time.sleep(0.5)  # the child has finished its share and blocks on its pipe
                raise EvalDataError("the study process failed")
            ids = [(f"{i:0500d}", 0.0, False, "normal") for i in range(400)]
            return [], {f"run{args[-1]}": ids}

        monkeypatch.setattr(evaluation, "_evaluate_one_run", one_run)
        with pytest.raises(EvalDataError, match="the study process failed"):
            evaluate_study(corpus, EvalConfig(train_fraction=0.1, repetitions=4), ["event"], jobs=2)

    def test_without_fork_one_process_scores_every_run(self, corpus, monkeypatch, caplog):
        config = EvalConfig(train_fraction=0.1, repetitions=3, rng_seed=4)
        serial = evaluate_study(corpus, config, self.SPECS, jobs=1, dump_run0_scores=True)
        monkeypatch.delattr(os, "fork")
        with caplog.at_level(logging.WARNING, logger="logbench.evaluation"):
            report = evaluate_study(corpus, config, self.SPECS, jobs=2, dump_run0_scores=True)
        assert [r.getMessage() for r in caplog.records] == [
            "no os.fork on this platform: the 3 runs are scored in this process"
        ]
        assert written(report) == written(serial)

    def test_cli_exits_as_at_one_job(self, tmp_path, monkeypatch, capsys):
        """A child's error ends `eval --jobs 2` as the same error ends `eval --jobs 1`."""
        parent = os.getpid()

        def run(jobs, refuse):
            def refused_split(seqs, config, run_index):
                if refuse():
                    raise EvalDataError("split refused")
                return split(seqs, config, run_index)

            monkeypatch.setattr(evaluation, "split", refused_split)
            code = cli_main([
                "eval", "--input", str(BUNDLED), "--detectors", "event", "--train-frac", "0.1",
                "--runs", "2", "--jobs", jobs, "--out-dir", str(tmp_path / jobs),
            ])
            return code, capsys.readouterr().err

        serial = run("1", lambda: True)
        assert serial == (2, "error: split refused\n")
        assert run("2", lambda: in_child(parent)) == serial


START_METHOD_SCRIPT = """
import multiprocessing, sys
from logbench.detectors import STUDY_DETECTORS
from logbench.evaluation import EvalConfig, evaluate_study, write_results_csv, write_scores_csv
from logbench.sequencing import read_sequences

method, store, out = sys.argv[1:]
multiprocessing.set_start_method(method)
config = EvalConfig(train_fraction=0.1, repetitions=4)
report = evaluate_study(read_sequences(store), config, STUDY_DETECTORS, jobs=2, dump_run0_scores=True)
with open(out + "/results.csv", "w", newline="") as handle:
    write_results_csv(report, handle)
with open(out + "/scores_run0.csv", "w", newline="") as handle:
    write_scores_csv(report.score_dump, handle)
"""


def study_under(method, out):
    """results.csv and scores_run0.csv of a `jobs=2` study of the bundled corpus in a fresh interpreter."""
    out.mkdir()
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run(
        [sys.executable, "-c", START_METHOD_SCRIPT, method, str(BUNDLED), str(out)],
        env=env, check=True, timeout=300,
    )
    return [(out / name).read_bytes() for name in ("results.csv", "scores_run0.csv")]


@pytest.fixture(scope="module")
def forked_study(tmp_path_factory):
    return study_under("fork", tmp_path_factory.mktemp("start") / "fork")


class TestStartMethods:
    """The start method an embedding program sets does not change the results.

    `evaluate_study` forks its children itself and starts no process pool,
    so no start method pickles the study.
    """

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_results_match_the_forked_run(self, tmp_path, forked_study, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        assert study_under(method, tmp_path / method) == forked_study


class TestReproducibility:
    def test_identical_config_identical_report(self):
        seqs = synthetic_corpus(n_normal=50, per_anomaly=3)
        config = EvalConfig(train_fraction=0.1, repetitions=3, rng_seed=11)
        a = evaluate_study(seqs, config, ["event", "ecvc", "edit"])
        b = evaluate_study(seqs, config, ["event", "ecvc", "edit"])
        assert list(a.results()) == list(b.results())
        assert a.summaries == b.summaries


@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=500),
)
def test_f1_identity(tp, fp, tn, fn):
    m = metrics_from_counts(ConfusionCounts(tp, fp, tn, fn))
    if m.f1 is not None:
        assert m.f1 == pytest.approx(2 * tp / (2 * tp + fp + fn), abs=1e-12)
