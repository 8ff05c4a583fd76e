"""Acceptance gate: every criterion runs on bundled fixtures only, no downloads.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on failure).
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from logbench.cli import main as cli_main
from logbench.complexity import lz_complexity, ngram_entropy
from logbench.detectors import NGramDetector, CountVectorDetector, levenshtein, make_detector
from logbench.evaluation import ConfusionCounts, EvalConfig, evaluate_study, metrics_from_counts
from logbench.fixtures import synthetic_corpus

from oracles import (
    confusion_naive,
    ecvc_score_naive,
    levenshtein_recursive,
    lz_phrases_naive,
    ngram_mismatches_naive,
)


def _report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


# criterion 1 ---------------------------------------------------------------


def test_criterion_1_metric_identities():
    rng = random.Random(20240501)
    ok = True
    for _ in range(10_000):
        tp, fp, tn, fn = (rng.randint(0, 1000) for _ in range(4))
        counts = ConfusionCounts(tp, fp, tn, fn)
        if counts.total != tp + fp + tn + fn:
            ok = False
            break
        m = metrics_from_counts(counts)
        if m.f1 is not None:
            identity = 2 * tp / (2 * tp + fp + fn)
            if abs(m.f1 - identity) > 1e-12:
                ok = False
                break
        elif tp and (tp + fp) and (tp + fn):
            ok = False  # defined F1 was reported as NA
            break
    # confusion sums through the scoring pipeline are exact
    rng2 = random.Random(7)
    scores = [rng2.random() for _ in range(500)]
    labels = [rng2.random() < 0.3 for _ in range(500)]
    for t in (0.0, 0.25, 0.5, 1.0):
        tp, fp, tn, fn = confusion_naive(scores, labels, t)
        if tp + fp + tn + fn != 500:
            ok = False
    _report("1 metric-identities", ok)


# criterion 2 ---------------------------------------------------------------


def test_criterion_2a_levenshtein_exhaustive():
    seqs = []
    for length in range(7):
        seqs.extend(itertools.product((1, 2, 3), repeat=length))
    ok = True
    for i, a in enumerate(seqs):
        for b in seqs[i:]:
            if levenshtein(a, b) != levenshtein_recursive(a, b):
                ok = False
                break
        if not ok:
            break
    _report("2a levenshtein-oracle-exhaustive", ok)


def test_criterion_2b_lz_exhaustive_binary():
    ok = True
    for total_len in range(13):
        for mask in range(2 ** total_len):
            s = [1 + ((mask >> i) & 1) for i in range(total_len)]
            if lz_complexity([s]).points != tuple(lz_phrases_naive([s])):
                ok = False
                break
        if not ok:
            break
    _report("2b lz-oracle-exhaustive", ok)


def test_criterion_2c_ngram_mismatches_random():
    from logbench.sequencing import Sequence

    rng = random.Random(99)
    ok = True
    for _ in range(1000):
        n = rng.choice((2, 3, 10))
        train_events = [[rng.randint(1, 4) for _ in range(rng.randint(1, 20))] for _ in range(6)]
        det = NGramDetector(n).fit([Sequence("t", e) for e in train_events])
        probe = [rng.randint(1, 5) for _ in range(rng.randint(0, 20))]
        got = det.mismatches(Sequence("p", probe))
        want = ngram_mismatches_naive(probe, det.ngrams, n)
        if got != want:
            ok = False
            break
    _report("2c ngram-mismatch-oracle", ok)


def test_criterion_2d_ecvc_direct_l1():
    from logbench.sequencing import Sequence

    rng = random.Random(123)
    ok = True
    for idf in (False, True):
        for _ in range(25):
            bank_size = rng.randint(1, 50)
            train = [
                Sequence("t", [rng.randint(1, 7) for _ in range(rng.randint(1, 10))])
                for _ in range(bank_size)
            ]
            det = CountVectorDetector(idf=idf).fit(train)
            probe = Sequence("p", [rng.randint(1, 9) for _ in range(rng.randint(0, 10))])
            expected = ecvc_score_naive(
                Counter(probe.events),
                [Counter(t.events) for t in train],
                det.weights if idf else None,
                det.default_weight,
            )
            if abs(det.score(probe) - expected) > 1e-12:
                ok = False
    _report("2d ecvc-direct-l1-oracle", ok)


# criterion 3 ---------------------------------------------------------------


def _best_f1(seqs, detector_name):
    config = EvalConfig(train_fraction=0.10, repetitions=3, rng_seed=2024)
    report = evaluate_study(seqs, config, [detector_name])
    summary = report.summaries[0]
    return summary.avg_f1, summary.max_f1


@pytest.mark.parametrize(
    "kind,detector",
    [
        ("new-event", "event"),
        ("short-length", "length"),
        ("count-shift", "ecvc"),
        ("order-swap", "edit"),
        ("order-swap", "ngram2"),
        ("timing-delay", "timing"),
    ],
)
def test_criterion_3_planted_anomaly_recovery(kind, detector):
    seqs = synthetic_corpus(kinds=(kind,))
    avg_f1, _ = _best_f1(seqs, detector)
    ok = avg_f1 == pytest.approx(1.0)
    _report(f"3 planted {kind} -> {detector} F1=1.0", ok)


def test_criterion_3_ecvc_blind_to_order_swap():
    seqs = synthetic_corpus(kinds=("order-swap",))
    avg_f1, max_f1 = _best_f1(seqs, "ecvc")
    # count vectors discard order: the swap is invisible, F1 never reaches 1
    ok = max_f1 is None or max_f1 < 1.0
    _report("3 order-swap NOT caught by ecvc (permutation invariance)", ok)


# criterion 4 ---------------------------------------------------------------


def test_criterion_4_entropy_fixtures():
    uniform = ngram_entropy([[1], [2], [3], [4], [5], [6], [7], [8]], 1)
    single = ngram_entropy([[7] * 50], 1)
    ok = (
        abs(uniform.normalized_entropy - 1.0) <= 1e-9
        and single.total_entropy == 0.0
        and single.normalized_entropy == 0.0
    )
    _report("4 entropy uniform=1.0 single=0", ok)


# criterion 5 ---------------------------------------------------------------


def test_criterion_5_byte_identical_results(tmp_path, bundled_corpus_path):
    args = [
        "eval",
        "--input", str(bundled_corpus_path),
        "--detectors", "event,length,ecvc,ngram2,edit,timing",
        "--train-frac", "0.1",
        "--runs", "3",
        "--seed", "1234",
        "--jobs", "1",
    ]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert cli_main(args + ["--out-dir", str(out_a)]) == 0
    assert cli_main(args + ["--out-dir", str(out_b)]) == 0
    # two workers and a score dump must not change a byte either
    assert cli_main(args + ["--jobs", "2", "--dump-scores", "--out-dir", str(out_c)]) == 0
    identical = all(
        (out_a / name).read_bytes() == (out / name).read_bytes()
        for out in (out_b, out_c)
        for name in ("results.csv", "summary.csv", "bests.csv")
    )
    _report("5 determinism byte-identical results.csv", identical)
