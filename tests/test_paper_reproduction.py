"""Reproduction checks against the public corpora (criteria 6-10).

These tests need the original data sets, which are not redistributable
with this package. Point LOGBENCH_DATA_DIR at a directory laid out as
described in the README; every test skips when its inputs are missing.
The HDFS runs take minutes; the edit-distance row is additionally marked
slow (hours-scale) and deselected by default.

Layout expected under LOGBENCH_DATA_DIR:
    hdfs/HDFS.log                original Xu et al. log file
    hdfs/anomaly_label.csv       per-block labels (BlockId,Label)
    bgl/BGL.log                  CFDR BGL log
    bgl/BGL.templates            template catalog (<id><TAB><pattern>)
    hadoop/sequences.tsv         pre-grouped sequence store (see README)
    adfa/ADFA-LD/                Training_Data_Master, Validation_Data_Master,
                                 Attack_Data_Master trees
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from logbench.detectors import STUDY_DETECTORS
from logbench.evaluation import EvalConfig, evaluate_study
from logbench.ingest import (
    IngestReport,
    dir_label_map,
    load_profile,
    load_template_catalog,
    parse_file,
    parse_tree,
)
from logbench.sequencing import (
    attach_sequence_labels,
    group_by_identifier,
    load_label_file,
    read_sequences,
    tally_anomalous_events,
    write_sequences,
)
from logbench.stats import summarize

DATA_ROOT = Path(os.environ.get("LOGBENCH_DATA_DIR", "/nonexistent"))
BUNDLED = Path(__file__).parent.parent / "src" / "logbench" / "data"

pytestmark = pytest.mark.paper


def _need(*relative: str) -> list[Path]:
    paths = [DATA_ROOT / rel for rel in relative]
    missing = [p for p in paths if not p.exists()]
    if missing:
        pytest.skip(f"public corpus not available: {missing[0]}")
    return paths


def _cache_dir() -> Path:
    cache = DATA_ROOT / ".logbench_cache"
    cache.mkdir(exist_ok=True)
    return cache


def _hdfs_sequences():
    log, labels_path = _need("hdfs/HDFS.log", "hdfs/anomaly_label.csv")
    cache = _cache_dir() / "hdfs_sequences.tsv"
    if cache.exists():
        return read_sequences(cache), None
    profile = load_profile("hdfs")
    catalog = load_template_catalog(BUNDLED / "hdfs.templates")
    report = IngestReport()
    seqs = group_by_identifier(parse_file(log, catalog, profile, report=report))
    labels = load_label_file(labels_path)
    seqs, _ = attach_sequence_labels(seqs, labels)
    with open(cache, "w", newline="") as handle:
        write_sequences(seqs, handle)
    return seqs, report


def _bgl_events():
    """A fresh parse of the BGL log, labeled per line."""
    (log,) = _need("bgl/BGL.log")
    templates = _need("bgl/BGL.templates")[0]
    return parse_file(log, load_template_catalog(templates), load_profile("bgl"), report=IngestReport())


def _bgl_sequences():
    seqs = [s for s in group_by_identifier(_bgl_events()) if s.label is not None]
    cache = _cache_dir() / "bgl_sequences.tsv"
    if not cache.exists():
        with open(cache, "w", newline="") as handle:
            write_sequences(seqs, handle)
    return seqs


def test_criterion_6_hdfs_structural_counts():
    seqs, report = _hdfs_sequences()
    summary = summarize(seqs, report)
    checks = {
        "sequences": (summary.sequences.total, 575_061),
        "unique_sequences": (summary.unique_sequences.total, 26_814),
        "unique_count_vectors": (summary.unique_count_vectors.total, 666),
    }
    mismatches = {k: v for k, v in checks.items() if v[0] != v[1]}
    # exact reproduction; deviations must trace to template-catalog
    # differences, so report them explicitly
    assert not mismatches, (
        f"structural counts deviate (likely template-catalog drift): {mismatches}"
    )
    if report is not None:
        assert report.lines_total == 11_197_705
        assert report.parsed_events == 12_580_989


def test_criterion_7_hdfs_table2_rows():
    seqs, _ = _hdfs_sequences()
    config = EvalConfig(train_fraction=0.01, repetitions=25, rng_seed=1)
    report = evaluate_study(seqs, config, ["ecvc", "event+length"], jobs=os.cpu_count() or 1)
    by_name = {s.detector: s for s in report.summaries}
    assert by_name["ecvc"].avg_f1 == pytest.approx(0.960, abs=0.015)
    assert by_name["event+length"].avg_f1 == pytest.approx(0.720, abs=0.05)
    assert by_name["event+length"].max_f1 >= 0.90


@pytest.mark.slow
def test_criterion_7_hdfs_edit_row():
    seqs, _ = _hdfs_sequences()
    config = EvalConfig(train_fraction=0.01, repetitions=25, rng_seed=1)
    report = evaluate_study(seqs, config, ["edit"], jobs=os.cpu_count() or 1)
    assert report.summaries[0].avg_f1 == pytest.approx(0.716, abs=0.02)


def test_criterion_8_bgl_event_detector():
    seqs = _bgl_sequences()
    config = EvalConfig(train_fraction=0.01, repetitions=25, rng_seed=1)
    report = evaluate_study(seqs, config, ["event"], jobs=os.cpu_count() or 1)
    assert report.summaries[0].avg_f1 == pytest.approx(0.988, abs=0.005)


def test_criterion_8_bgl_event_granularity_tnr():
    seqs = _bgl_sequences()
    tally = tally_anomalous_events(_bgl_events(), seqs)  # parses the log a second time
    config = EvalConfig(train_fraction=0.01, repetitions=25, rng_seed=1)
    report = evaluate_study(seqs, config, ["event"], jobs=os.cpu_count() or 1, anomalous_events=tally)
    tnrs = [best.metrics.tnr for best in (o.best() for o in report.outcomes) if best is not None]
    assert sum(tnrs) / len(tnrs) >= 0.998


def test_criterion_9_hadoop_degenerate_detection():
    (store,) = _need("hadoop/sequences.tsv")
    seqs = read_sequences(store)
    config = EvalConfig(train_fraction=0.10, repetitions=25, rng_seed=1)
    report = evaluate_study(seqs, config, ["ecvc"])
    bests = [best for best in (o.best() for o in report.outcomes) if best is not None]
    assert bests, "no defined best operating point"
    for best in bests:
        assert best.metrics.tnr == 0.0
        assert best.metrics.recall == pytest.approx(1.0)
        assert best.metrics.precision == pytest.approx(0.844, abs=0.01)
    assert any("TNR is 0" in w for w in report.warnings)


def test_criterion_10_adfa_resists_simple_baselines():
    (root,) = _need("adfa/ADFA-LD")
    profile = load_profile("adfa")
    seqs = group_by_identifier(parse_tree(root, None, profile))
    labels = dir_label_map(root, profile)
    seqs, _ = attach_sequence_labels(seqs, labels)
    config = EvalConfig(train_fraction=0.01, repetitions=25, rng_seed=1)
    detectors = [d for d in STUDY_DETECTORS if d != "timing"]  # no timestamps
    report = evaluate_study(seqs, config, detectors, jobs=os.cpu_count() or 1)
    for summary in report.summaries:
        assert summary.avg_f1 is not None
        assert summary.avg_f1 <= 0.50, f"{summary.detector} exceeded 0.50"
