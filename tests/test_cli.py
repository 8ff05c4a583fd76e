from __future__ import annotations

import json
import os
import stat
from pathlib import Path

import pytest

from logbench.cli import build_parser, main

DATA = Path(__file__).parent.parent / "src" / "logbench" / "data"


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def parsed_events(tmp_path, synthetic_log_path):
    out = tmp_path / "events.tsv"
    code = run(
        "parse",
        "--profile", "synthetic",
        "--templates", DATA / "synthetic.templates",
        "--input", synthetic_log_path,
        "--out", out,
    )
    assert code == 0
    return out


@pytest.fixture()
def sequence_store(tmp_path, parsed_events, synthetic_labels_path):
    out = tmp_path / "seqs.tsv"
    code = run("group", "--input", parsed_events, "--labels", synthetic_labels_path, "--out", out)
    assert code == 0
    return out


class TestParseCommand:
    def test_outputs_and_manifest(self, tmp_path, parsed_events):
        assert parsed_events.exists()
        manifest = json.loads((tmp_path / "events.tsv.manifest.json").read_text())
        assert manifest["realized"]["lines_total"] == 15
        assert manifest["realized"]["parsed_events"] == 15
        assert manifest["realized"]["unmatched_lines"] == 1
        assert manifest["version"]
        assert manifest["config_hash"]

    def test_unmatched_side_file(self, tmp_path, synthetic_log_path):
        out = tmp_path / "ev.tsv"
        side = tmp_path / "unmatched.log"
        code = run(
            "parse",
            "--profile", "synthetic",
            "--templates", DATA / "synthetic.templates",
            "--input", synthetic_log_path,
            "--out", out,
            "--unmatched-out", side,
        )
        assert code == 0
        assert "sweep cycle" in side.read_text()

    def test_missing_input_fails(self, tmp_path):
        code = run(
            "parse",
            "--profile", "synthetic",
            "--templates", DATA / "synthetic.templates",
            "--input", tmp_path / "nope.log",
            "--out", tmp_path / "out.tsv",
        )
        assert code != 0

    def test_unknown_profile_fails(self, tmp_path, synthetic_log_path):
        code = run(
            "parse",
            "--profile", "venus",
            "--templates", DATA / "synthetic.templates",
            "--input", synthetic_log_path,
            "--out", tmp_path / "out.tsv",
        )
        assert code != 0

    def test_no_leftover_temp_files(self, tmp_path, parsed_events):
        assert not list(tmp_path.glob("*.tmp"))


class TestGroupCommand:
    def test_grouping_with_labels(self, sequence_store):
        text = sequence_store.read_text().splitlines()
        assert text[0].startswith("seq_id")
        assert len(text) == 4  # header + blk_1..blk_3

    def test_window_mode(self, tmp_path, parsed_events):
        out = tmp_path / "win.tsv"
        code = run("group", "--input", parsed_events, "--mode", "window", "--window", "5", "--step", "2", "--out", out)
        assert code == 0
        assert out.exists()

    def test_window_mode_requires_window(self, tmp_path, parsed_events):
        code = run("group", "--input", parsed_events, "--mode", "window", "--out", tmp_path / "w.tsv")
        assert code != 0

    def test_window_zero_reports_the_bound(self, tmp_path, parsed_events, capsys):
        code = run("group", "--input", parsed_events, "--mode", "window", "--window", "0", "--out", tmp_path / "w.tsv")
        assert code == 2
        assert "must be >= 1" in capsys.readouterr().err


class TestStatsCommand:
    def test_reports_written(self, tmp_path, sequence_store):
        out_dir = tmp_path / "stats"
        code = run("stats", "--input", sequence_store, "--out-dir", out_dir)
        assert code == 0
        for name in (
            "summary.txt",
            "event_frequencies.csv",
            "length_distribution.csv",
            "top_sequences.csv",
            "interarrival.csv",
            "manifest.json",
        ):
            assert (out_dir / name).exists(), name
        assert "number_of_sequences" in (out_dir / "summary.txt").read_text()


    def test_non_integer_event_names_the_line(self, tmp_path, capsys):
        store = tmp_path / "bad.tsv"
        store.write_text("seq_id\tlabel\tevents\ttimestamps\ns1\tnormal\t1 2\t\ns2\tnormal\t1 x\t\n")
        code = run("stats", "--input", store, "--out-dir", tmp_path / "stats")
        assert code == 2
        assert f"{store}:3:" in capsys.readouterr().err


class TestComplexityCommand:
    def test_csv_schema(self, tmp_path, sequence_store):
        out = tmp_path / "complexity.csv"
        code = run("complexity", "--input", sequence_store, "--entropy-n", "1..3", "--lz", "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "measure,N,value"
        measures = {line.split(",")[0] for line in lines[1:]}
        assert measures == {"entropy", "normalized_entropy", "distinct_ngrams", "lz_complexity"}

    def test_entropy_n_list_syntax(self, tmp_path, sequence_store):
        out = tmp_path / "c.csv"
        assert run("complexity", "--input", sequence_store, "--entropy-n", "1,2", "--out", out) == 0
        body = out.read_text()
        assert "entropy,1," in body and "entropy,2," in body


class TestEvalCommand:
    def test_bundled_corpus_summary_has_row_per_detector(self, tmp_path, bundled_corpus_path):
        out_dir = tmp_path / "eval"
        code = run(
            "eval",
            "--input", bundled_corpus_path,
            "--detectors", "event,length,ecvc,edit",
            "--train-frac", "0.1",
            "--runs", "2",
            "--seed", "5",
            "--jobs", "1",
            "--out-dir", out_dir,
        )
        assert code == 0
        lines = (out_dir / "summary.csv").read_text().splitlines()
        assert lines[0] == "detector,avg_f1,max_f1,std_f1"
        assert [line.split(",")[0] for line in lines[1:]] == ["event", "length", "ecvc", "edit"]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["realized"]["train_sizes"] == [17]

    def test_invalid_train_fraction_rejected(self, tmp_path, bundled_corpus_path):
        code = run(
            "eval",
            "--input", bundled_corpus_path,
            "--train-frac", "1.5",
            "--out-dir", tmp_path / "x",
        )
        assert code != 0

    def test_three_column_store_names_the_line(self, tmp_path, capsys):
        store = tmp_path / "bad.tsv"
        store.write_text("seq_id\tlabel\tevents\ns1\tnormal\t1 2\n")
        code = run("eval", "--input", store, "--jobs", "1", "--out-dir", tmp_path / "eval")
        assert code == 2
        err = capsys.readouterr().err
        assert f"{store}:2:" in err and "columns" in err

    def test_artifacts_get_umask_permissions(self, tmp_path, bundled_corpus_path):
        old = os.umask(0o022)
        try:
            code = run(
                "eval",
                "--input", bundled_corpus_path,
                "--detectors", "event",
                "--train-frac", "0.1",
                "--runs", "1",
                "--jobs", "1",
                "--out-dir", tmp_path / "eval",
            )
        finally:
            os.umask(old)
        assert code == 0
        for name in ("results.csv", "manifest.json"):
            assert stat.S_IMODE((tmp_path / "eval" / name).stat().st_mode) == 0o644, name

    def test_score_dump(self, tmp_path, bundled_corpus_path):
        out_dir = tmp_path / "eval"
        code = run(
            "eval",
            "--input", bundled_corpus_path,
            "--detectors", "event",
            "--train-frac", "0.1",
            "--runs", "1",
            "--jobs", "1",
            "--out-dir", out_dir,
            "--dump-scores",
        )
        assert code == 0
        lines = (out_dir / "scores_run0.csv").read_text().splitlines()
        assert lines[0] == "seq_id,detector,score,flag,label"
        assert len(lines) > 100

    def test_event_granularity(self, tmp_path):
        from logbench.fixtures import event_labeled_corpus
        from logbench.ingest import ParsedEvent, write_events

        events = []
        line_no = 0
        for seq in event_labeled_corpus(n_normal=25, n_anomalous=5):
            for event, ts, label in zip(seq.events, seq.timestamps, seq.event_labels):
                line_no += 1
                events.append(ParsedEvent(line_no, event, ts, (seq.seq_id,), label))
        events_path = tmp_path / "events.tsv"
        with open(events_path, "w", newline="") as handle:
            write_events(events, handle)
        out_dir = tmp_path / "ev"
        code = run(
            "eval",
            "--input", events_path,
            "--granularity", "event",
            "--train-frac", "0.2",
            "--runs", "2",
            "--jobs", "1",
            "--out-dir", out_dir,
        )
        assert code == 0
        assert "event" in (out_dir / "summary.csv").read_text()


class TestSweepCommand:
    def test_sweep_csv(self, tmp_path, bundled_corpus_path):
        out_dir = tmp_path / "sweep"
        code = run(
            "sweep",
            "--input", bundled_corpus_path,
            "--detectors", "ecvc,ngram2",
            "--train-frac", "0.1",
            "--out-dir", out_dir,
        )
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "detector,threshold,precision,recall,tnr,f1"
        assert len(lines) == 1 + 2 * 101

    def test_not_applicable_detector_refused(self, tmp_path, bundled_corpus_path, capsys):
        store = tmp_path / "no_timestamps.tsv"
        rows = bundled_corpus_path.read_text().splitlines()
        store.write_text("\n".join(row.rsplit("\t", 1)[0] + "\t" for row in rows) + "\n")
        out_dir = tmp_path / "sweep"
        code = run(
            "sweep",
            "--input", store,
            "--detectors", "ecvc,timing",
            "--train-frac", "0.1",
            "--out-dir", out_dir,
        )
        assert code == 2
        assert "timing" in capsys.readouterr().err
        assert not (out_dir / "sweep.csv").exists()


class TestProfilesCommand:
    def test_list_names(self, capsys):
        assert run("profiles", "list") == 0
        out = capsys.readouterr().out.split()
        for name in ("hdfs", "bgl", "thunderbird", "hadoop", "adfa"):
            assert name in out

    def test_show(self, capsys):
        assert run("profiles", "show", "hdfs") == 0
        out = capsys.readouterr().out
        assert "label_source = sequence-file" in out


class TestHelpEnumeratesFlags:
    def test_every_spec_flag_is_documented(self):
        parser = build_parser()
        helps = [parser.format_help()]
        for action in parser._subparsers._actions:
            if isinstance(getattr(action, "choices", None), dict):
                helps.extend(sub.format_help() for sub in action.choices.values())
        blob = "\n".join(helps)
        for flag in (
            "--profile", "--templates", "--input", "--out",
            "--mode", "--window", "--step", "--labels",
            "--out-dir", "--entropy-n", "--lz",
            "--detectors", "--train-frac", "--runs", "--seed",
            "--granularity", "--jobs", "--ecvc-norm", "--ngram-norm",
            "--ngram-pad", "--dump-scores", "--keep-unidentified",
            "--unmatched-out", "--top-k", "--lz-count-trailing",
        ):
            assert flag in blob, flag
        assert "LOGBENCH_DATA_DIR" in blob


def test_data_dir_env_resolution(tmp_path, monkeypatch, bundled_corpus_path):
    monkeypatch.setenv("LOGBENCH_DATA_DIR", str(bundled_corpus_path.parent))
    out_dir = tmp_path / "eval"
    code = run(
        "eval",
        "--input", "synthetic_sequences.tsv",
        "--detectors", "event",
        "--train-frac", "0.1",
        "--runs", "1",
        "--jobs", "1",
        "--out-dir", out_dir,
    )
    assert code == 0
