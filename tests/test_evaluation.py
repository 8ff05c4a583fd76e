from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from logbench.detectors import Detector, STUDY_DETECTORS, make_detector
from logbench.errors import EvalDataError, ValidationError
from logbench.evaluation import (
    ConfusionCounts,
    EvalConfig,
    FLAG_CUTOFF,
    Metrics,
    THRESHOLD_GRID,
    evaluate_events,
    evaluate_run,
    evaluate_study,
    metrics_from_counts,
    run_seed,
    split,
)
from logbench.fixtures import event_labeled_corpus, synthetic_corpus
from logbench.ingest import Label, NORMAL
from logbench.sequencing import Sequence, read_sequences

from oracles import combination_scores_naive, confusion_naive

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
    return evaluate_run(
        det.name, det.thresholded, test, det.score_batch(test), train_size=len(train)
    )


def tiny_dataset(n_normal=10, n_anom=4):
    seqs = [nseq([1, 2, 3], f"n{i}") for i in range(n_normal)]
    seqs += [aseq([9, 9], f"a{i}") for i in range(n_anom)]
    return seqs


class TestConfig:
    def test_defaults(self):
        config = EvalConfig()
        assert config.train_fraction == 0.01
        assert config.repetitions == 25
        assert config.threshold_grid == THRESHOLD_GRID
        assert len(THRESHOLD_GRID) == 101

    def test_invalid_fraction(self):
        with pytest.raises(ValidationError):
            EvalConfig(train_fraction=1.5)
        with pytest.raises(ValidationError):
            EvalConfig(train_fraction=0.0)

    def test_grid_must_increase(self):
        with pytest.raises(ValidationError):
            EvalConfig(threshold_grid=(0.0, 0.5, 0.5))


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
        assert outcome.best.metrics.f1 == pytest.approx(1.0)
        mid = [r for r in outcome.results if r.threshold == pytest.approx(0.5)][0]
        assert mid.metrics.f1 == pytest.approx(1.0)

    def test_flag_everything_hadoop_degeneracy(self):
        # 844 anomalies / 1000 items: Prec 0.844, Rec 1, TNR 0, F1 ~ 0.915
        test = [aseq([1], f"a{i}") for i in range(844)] + [nseq([1], f"n{i}") for i in range(156)]
        outcome = run_detector([nseq([1], "tr")], test, FixedScoreDetector({s.seq_id: 1.0 for s in test}))
        at0 = outcome.results[0]
        assert at0.threshold == 0.0
        assert at0.metrics.precision == pytest.approx(0.844)
        assert at0.metrics.recall == pytest.approx(1.0)
        assert at0.metrics.tnr == 0.0
        assert at0.metrics.f1 == pytest.approx(0.915, abs=5e-4)

    def test_grid_enumeration_example(self):
        test = [nseq([1], "n0"), aseq([2], "a0"), aseq([3], "a1")]
        det = FixedScoreDetector({"n0": 0.2, "a0": 0.6, "a1": 0.9})
        outcome = run_detector([nseq([1], "tr")], test, det)
        by_t = {round(r.threshold, 2): r for r in outcome.results}
        for t in (0.2, 0.3, 0.45, 0.59):
            r = by_t[round(t, 2)] if round(t, 2) in by_t else None
            if r is not None:
                assert (r.counts.tp, r.counts.fp) == (2, 0)
                assert r.metrics.f1 == pytest.approx(1.0)
        assert by_t[0.1].counts.fp == 1
        assert by_t[0.95].counts.tp == 0
        assert outcome.best.metrics.f1 == pytest.approx(1.0)
        assert outcome.best.threshold == pytest.approx(0.2)  # smallest best threshold

    def test_counts_sum_to_test_size_at_every_threshold(self):
        seqs = tiny_dataset()
        train, test = split(seqs, EvalConfig(train_fraction=0.2), 0)
        rng = random.Random(0)
        det = FixedScoreDetector({s.seq_id: rng.random() for s in test})
        outcome = run_detector(train, test, det)
        assert all(r.counts.total == len(test) for r in outcome.results)

    def test_flagged_sets_nested_in_threshold(self):
        rng = random.Random(1)
        test = [nseq([1], f"n{i}") for i in range(30)] + [aseq([2], f"a{i}") for i in range(10)]
        det = FixedScoreDetector({s.seq_id: rng.random() for s in test})
        outcome = run_detector([nseq([1], "tr")], test, det)
        flagged = [r.counts.tp + r.counts.fp for r in outcome.results]
        assert flagged == sorted(flagged, reverse=True)

    def test_threshold_free_detector_single_result(self):
        seqs = synthetic_corpus(n_normal=40, per_anomaly=3, kinds=("new-event",))
        config = EvalConfig(train_fraction=0.2, repetitions=1)
        train, test = split(seqs, config, 0)
        outcome = run_detector(train, test, make_detector("event"))
        assert len(outcome.results) == 1
        assert outcome.results[0].threshold is None
        assert outcome.best.metrics.f1 == pytest.approx(1.0)

    def test_pipeline_matches_naive_confusion_oracle(self):
        rng = random.Random(2)
        test = [nseq([1], f"n{i}") for i in range(600)] + [aseq([2], f"a{i}") for i in range(400)]
        scores = {s.seq_id: rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) for s in test}
        det = FixedScoreDetector(scores)
        outcome = run_detector([nseq([1], "tr")], test, det)
        ordered_scores = [scores[s.seq_id] for s in test]
        labels = [s.label.anomalous for s in test]
        for r in outcome.results:
            tp, fp, tn, fn = confusion_naive(ordered_scores, labels, r.threshold)
            assert (r.counts.tp, r.counts.fp, r.counts.tn, r.counts.fn) == (tp, fp, tn, fn)


class TestThresholdSweep:
    def test_extremes(self):
        test = [nseq([1], "n0"), aseq([2], "a0")]
        det = FixedScoreDetector({"n0": 0.4, "a0": 0.8})
        results = run_detector([nseq([1], "tr")], test, det).results
        assert results[0].threshold == 0.0
        assert results[0].metrics.tnr == 0.0  # all scores > 0: everything flagged
        assert results[-1].threshold == 1.0
        assert results[-1].counts.tp == 0  # strict comparison: nothing flagged
        assert results[-1].metrics.recall == 0.0

    def test_monotone_flag_counts(self):
        rng = random.Random(3)
        test = [nseq([1], f"n{i}") for i in range(20)] + [aseq([2], f"a{i}") for i in range(5)]
        det = FixedScoreDetector({s.seq_id: rng.random() for s in test})
        results = run_detector([nseq([1], "tr")], test, det).results
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

    def test_parallel_equals_serial(self):
        seqs = synthetic_corpus(n_normal=60, per_anomaly=4)
        config = EvalConfig(train_fraction=0.15, repetitions=4, rng_seed=9)
        serial = evaluate_study(seqs, config, ["event", "ecvc"], jobs=1)
        parallel = evaluate_study(seqs, config, ["event", "ecvc"], jobs=2)
        assert [o.best.metrics for o in serial.outcomes if o.best] == [
            o.best.metrics for o in parallel.outcomes if o.best
        ]

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


def random_specs(rng):
    """Rows of one to three members; repeated members and aliases included."""
    names = BASES + ("2-gram", "ECVC(idf)", "event-timing")
    return ["+".join(rng.choice(names) for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(1, 6))]


class CountingFactory:
    """make_detector, with every fit and score_batch call tallied per base name."""

    def __init__(self):
        self.fits = Counter()
        self.scores = Counter()

    def __call__(self, part):
        detector = make_detector(part)
        fit, score_batch = detector.fit, detector.score_batch

        def counted_fit(train):
            self.fits[detector.name] += 1
            return fit(train)

        def counted_score_batch(seqs):
            self.scores[detector.name] += 1
            return score_batch(seqs)

        detector.fit, detector.score_batch = counted_fit, counted_score_batch
        return detector


class TestSharedScoreColumns:
    @pytest.mark.parametrize("timestamps", [True, False])
    @pytest.mark.parametrize("jobs,dump", [(1, False), (2, False), (1, True), (2, True)])
    def test_rows_match_member_max_oracle(self, jobs, dump, timestamps):
        seqs = read_sequences(BUNDLED)
        if not timestamps:
            seqs = [replace(s, timestamps=None) for s in seqs]
        rng = random.Random(100 * jobs + 10 * dump + timestamps)
        for trial in range(3):
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
                        assert not outcome.results and outcome.detector not in report.score_dump
                        continue
                    for res in outcome.results:
                        cutoff = FLAG_CUTOFF if res.threshold is None else res.threshold
                        counts = (res.counts.tp, res.counts.fp, res.counts.tn, res.counts.fn)
                        assert counts == confusion_naive(expected, labels, cutoff), (spec, cutoff)
                    if dump and run == 0:
                        dumped = report.score_dump[outcome.detector]
                        assert [row[0] for row in dumped] == [s.seq_id for s in test]
                        assert [row[1] for row in dumped] == expected
                        best = outcome.best
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
        seqs = [replace(s, timestamps=None) for s in read_sequences(BUNDLED)]
        factory = CountingFactory()
        config = EvalConfig(train_fraction=0.1, repetitions=1)
        report = evaluate_study(seqs, config, ["timing", "event+timing", "event"], detector_factory=factory)
        assert [o.not_applicable for o in report.outcomes] == [True, True, False]
        assert factory.fits == {"timing": 1, "event": 1}
        assert factory.scores == {"event": 1}


class TestEvaluateEvents:
    def test_disjoint_anomalous_types_full_recall(self):
        seqs = event_labeled_corpus(n_normal=40, n_anomalous=10)
        config = EvalConfig(train_fraction=0.2, repetitions=3, rng_seed=2)
        report = evaluate_events(seqs, config)
        assert report.granularity == "event"
        for outcome in report.outcomes:
            assert outcome.best.metrics.recall == pytest.approx(1.0)

    def test_full_training_coverage_no_false_positives(self):
        seqs = event_labeled_corpus(n_normal=40, n_anomalous=10)
        config = EvalConfig(train_fraction=0.5, repetitions=2, rng_seed=2)
        report = evaluate_events(seqs, config)
        for outcome in report.outcomes:
            assert outcome.results[0].counts.fp == 0
            assert outcome.best.metrics.tnr == pytest.approx(1.0)

    def test_confusion_is_over_events(self):
        seqs = event_labeled_corpus(n_normal=10, n_anomalous=3)
        config = EvalConfig(train_fraction=0.3, repetitions=1, rng_seed=0)
        train, test = split(seqs, config, 0)
        report = evaluate_events(seqs, config)
        total_events = sum(len(s) for s in test)
        assert report.outcomes[0].results[0].counts.total == total_events

    def test_refused_without_event_labels(self):
        with pytest.raises(EvalDataError, match="per-event labels"):
            evaluate_events(tiny_dataset(), EvalConfig(train_fraction=0.2))

    def test_granularity_dispatch(self):
        seqs = event_labeled_corpus(n_normal=30, n_anomalous=5)
        config = EvalConfig(train_fraction=0.2, repetitions=1, granularity="event")
        report = evaluate_study(seqs, config, ["event"])
        assert report.granularity == "event"


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
