from __future__ import annotations

import json
import os
import stat
from pathlib import Path

import pytest

from logbench.cli import build_parser, main, sha256_file
from logbench.detectors import STUDY_DETECTORS
from logbench.events import ParsedEvent, read_events, write_events
from logbench.ingest import bundled_profile_names, load_profile, load_profile_file

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

    def test_manifest_times_load_apart_from_parse(self, tmp_path, parsed_events, synthetic_log_path):
        manifest = json.loads((tmp_path / "events.tsv.manifest.json").read_text())
        assert list(manifest["timings_sec"]) == ["digest", "load", "parse"]
        assert all(seconds >= 0 for seconds in manifest["timings_sec"].values())
        assert list(manifest["inputs"]) == [str(synthetic_log_path), str(DATA / "synthetic.templates")]

    def test_manifests_digest_profile_and_label_files(self, tmp_path, synthetic_log_path, synthetic_labels_path):
        profile = tmp_path / "mine.profile"
        profile.write_text((DATA.parent / "profiles" / "synthetic.profile").read_text())
        events = tmp_path / "events.tsv"
        args = ("--templates", DATA / "synthetic.templates", "--input", synthetic_log_path, "--out", events)
        assert run("parse", "--profile", profile, *args) == 0
        inputs = json.loads((tmp_path / "events.tsv.manifest.json").read_text())["inputs"]
        assert list(inputs) == [str(synthetic_log_path), str(DATA / "synthetic.templates"), str(profile)]
        assert inputs[str(profile)] == sha256_file(profile)
        digests = []
        for name, text in (("a.csv", synthetic_labels_path.read_text()), ("b.csv", "seq_id,label\n")):
            labels = tmp_path / name
            labels.write_text(text)
            out = tmp_path / f"{name}.tsv"
            assert run("group", "--input", events, "--labels", labels, "--out", out) == 0
            inputs = json.loads((tmp_path / f"{name}.tsv.manifest.json").read_text())["inputs"]
            assert list(inputs) == [str(events), str(labels)]
            digests.append(inputs[str(labels)])
        assert digests == [sha256_file(tmp_path / "a.csv"), sha256_file(tmp_path / "b.csv")]
        assert digests[0] != digests[1]

    def test_manifest_samples_timestamp_errors(self, tmp_path, parsed_events, synthetic_log_path):
        clean = json.loads((tmp_path / "events.tsv.manifest.json").read_text())
        assert clean["realized"]["timestamp_error_sample"] == []
        lines = synthetic_log_path.read_text().splitlines()
        for line_no in (3, 9):
            lines[line_no - 1] = "089999" + lines[line_no - 1][6:]
        log = tmp_path / "bad_stamps.log"
        log.write_text("\n".join(lines) + "\n")
        out = tmp_path / "bad.tsv"
        code = run(
            "parse",
            "--profile", "synthetic",
            "--templates", DATA / "synthetic.templates",
            "--input", log,
            "--out", out,
        )
        assert code == 0
        manifest = json.loads((tmp_path / "bad.tsv.manifest.json").read_text())
        sample = manifest["realized"]["timestamp_error_sample"]
        assert [entry.split(": ", 1)[0] for entry in sample] == ["3", "9"]
        assert sample[0].startswith("3: unparseable timestamp '089999 120002': ")
        assert manifest["warnings"] == ["2 lines had unparseable timestamps"]

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

    def test_failed_parse_leaves_no_unmatched_side_file(self, tmp_path, synthetic_log_path):
        bad = tmp_path / "bad.profile"
        bad.write_text("name = x\nlabel_source = sequence-file\nseq_id_pattern = blk_(\n")
        side = tmp_path / "unmatched.log"
        for profile, expected in ((bad, 2), ("synthetic", 0)):
            code = run(
                "parse",
                "--profile", profile,
                "--templates", DATA / "synthetic.templates",
                "--input", synthetic_log_path,
                "--out", tmp_path / "ev.tsv",
                "--unmatched-out", side,
            )
            assert code == expected
            assert side.exists() == (expected == 0)
            assert not list(tmp_path.glob("*.tmp"))
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

    def test_non_ascii_digits_end_in_an_error_or_an_invalid_line(self, tmp_path, synthetic_log_path, capsys):
        """`str.isdigit` takes "²", which `int` refuses: a catalog id names its line, a trace token is invalid."""
        catalog = tmp_path / "digits.templates"
        catalog.write_text("1\tok <*>\n²\tfoo <*>\n")
        out = tmp_path / "out.tsv"
        code = run("parse", "--profile", "synthetic", "--templates", catalog, "--input", synthetic_log_path, "--out", out)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {catalog}:2: expected")
        assert not out.exists()

        trace = tmp_path / "trace.txt"
        trace.write_text("6 ² 7\n")
        assert run("parse", "--profile", "adfa", "--input", trace, "--out", out) == 0
        assert out.read_text().splitlines()[1:] == ["1\t6\t\ttrace\t", "3\t7\t\ttrace\t"]
        assert "3 lines: 2 matched, 0 unmatched, 1 invalid" in capsys.readouterr().out

    def test_no_leftover_temp_files(self, tmp_path, parsed_events):
        assert not list(tmp_path.glob("*.tmp"))


def test_every_manifest_times_input_digest_first(tmp_path, sequence_store, bundled_corpus_path):
    """No command's first stage time includes the hashing of its inputs."""
    study = ("--input", bundled_corpus_path, "--detectors", "ecvc", "--train-frac", "0.1")
    commands = {
        "stats": ("stats", "--input", sequence_store, "--out-dir", tmp_path / "stats"),
        "complexity": ("complexity", "--input", sequence_store, "--out", tmp_path / "c.csv"),
        "eval": ("eval", *study, "--runs", "1", "--jobs", "1", "--out-dir", tmp_path / "eval"),
        "sweep": ("sweep", *study, "--out-dir", tmp_path / "sweep"),
    }
    for argv in commands.values():
        assert run(*argv) == 0, argv
    manifests = {
        "parse": tmp_path / "events.tsv.manifest.json",
        "group": tmp_path / "seqs.tsv.manifest.json",
        "stats": tmp_path / "stats" / "manifest.json",
        "complexity": tmp_path / "c.csv.manifest.json",
        "eval": tmp_path / "eval" / "manifest.json",
        "sweep": tmp_path / "sweep" / "manifest.json",
    }
    for command, path in manifests.items():
        timings = json.loads(path.read_text())["timings_sec"]
        assert list(timings)[0] == "digest" and list(timings)[-1] == command, (command, timings)


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

    @pytest.mark.parametrize("mode", ["id", "window"])
    def test_labels_lifted_from_events_in_every_mode(self, tmp_path, event_store, mode):
        out = tmp_path / "seqs.tsv"
        code = run("group", "--input", event_store, "--mode", mode, "--window", "10", "--step", "10", "--out", out)
        assert code == 0
        manifest = json.loads((tmp_path / "seqs.tsv.manifest.json").read_text())
        rows = out.read_text().splitlines()[1:]
        assert manifest["realized"]["labels_lifted_from_events"] == len(rows) > 0
        assert all(row.split("\t")[1] for row in rows)

    def test_file_mode_lifts_the_directory_labels(self, tmp_path):
        tree = tmp_path / "adfa"
        files = {
            "Training_Data_Master/UTD-1.txt": "1 2 3\n",
            "normal/a,b.txt": "4 5\n",
            "Attack_Data_Master/Hydra_FTP_1/UAD-1.txt": "6\n",
        }
        for rel, text in files.items():
            (tree / rel).parent.mkdir(parents=True, exist_ok=True)
            (tree / rel).write_text(text)
        events = tmp_path / "events.tsv"
        assert run("parse", "--profile", "adfa", "--input", tree, "--out", events) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adfa", "events.tsv", "events.tsv.manifest.json"]
        out = tmp_path / "seqs.tsv"
        assert run("group", "--input", events, "--mode", "file", "--out", out) == 0
        manifest = json.loads((tmp_path / "seqs.tsv.manifest.json").read_text())
        assert manifest["realized"]["labels_lifted_from_events"] == 3
        rows = [row.split("\t")[:3] for row in out.read_text().splitlines()[1:]]
        assert rows == [
            ["Attack_Data_Master/Hydra_FTP_1/UAD-1.txt", "anomalous:Hydra_FTP", "6"],
            ["Training_Data_Master/UTD-1.txt", "normal", "1 2 3"],
            ["normal/a,b.txt", "normal", "4 5"],
        ]
        # a label file still replaces the lifted labels (Hadoop's runs are labeled by a listing)
        labels = tmp_path / "labels.csv"
        labels.write_text('seq_id,label\nTraining_Data_Master/UTD-1.txt,Failed\n"normal/a,b.txt",normal\n')
        assert run("group", "--input", events, "--mode", "file", "--labels", labels, "--out", out) == 0
        manifest = json.loads((tmp_path / "seqs.tsv.manifest.json").read_text())
        assert manifest["realized"]["unlabeled_excluded"] == 1
        rows = [row.split("\t")[:2] for row in out.read_text().splitlines()[1:]]
        assert rows == [["Training_Data_Master/UTD-1.txt", "anomalous:Failed"], ["normal/a,b.txt", "normal"]]

    def test_a_digit_directory_tag_survives_parse_and_group(self, tmp_path):
        # `0` and `1` are label words in a label file, but here they are the tags
        for rel in ("attack/0/a.txt", "attack/1/b.txt", "clean/c.txt"):
            (tmp_path / "tree" / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / "tree" / rel).write_text("1 2\n")
        profile = tmp_path / "digits.profile"
        profile.write_text("name = digits\nlabel_source = file-dir\ntokenized = true\nanomaly_dir_pattern = attack/(\\d+)\n")
        events, out = tmp_path / "events.tsv", tmp_path / "seqs.tsv"
        assert run("parse", "--profile", profile, "--input", tmp_path / "tree", "--out", events) == 0
        assert run("group", "--input", events, "--mode", "file", "--out", out) == 0
        rows = [row.split("\t")[:2] for row in out.read_text().splitlines()[1:]]
        assert rows == [["attack/0/a.txt", "anomalous:0"], ["attack/1/b.txt", "anomalous:1"], ["clean/c.txt", "normal"]]

    def test_dir_profile_without_a_pattern_groups_unlabeled(self, tmp_path):
        for rel in ("attack/a.txt", "clean/b.txt"):
            (tmp_path / "tree" / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / "tree" / rel).write_text("1 2\n")
        profile = tmp_path / "plain.profile"
        profile.write_text("name = plain\nlabel_source = file-dir\ntokenized = true\n")
        events, out = tmp_path / "events.tsv", tmp_path / "seqs.tsv"
        assert run("parse", "--profile", profile, "--input", tmp_path / "tree", "--out", events) == 0
        assert run("group", "--input", events, "--mode", "file", "--out", out) == 0
        rows = [row.split("\t")[:2] for row in out.read_text().splitlines()[1:]]
        assert rows == [["attack/a.txt", ""], ["clean/b.txt", ""]]

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


    def test_negative_top_k_rejected(self, tmp_path, sequence_store, capsys):
        out_dir = tmp_path / "stats"
        code = run("stats", "--input", sequence_store, "--out-dir", out_dir, "--top-k", "-1")
        assert code == 2
        assert capsys.readouterr().err == "error: top-k must be >= 0\n"
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("spec, message", [("abc", "integers"), ("3..1", "empty"), ("1..x", "integers")])
    def test_bad_entropy_n_rejected(self, tmp_path, sequence_store, capsys, spec, message):
        out = tmp_path / "c.csv"
        assert run("complexity", "--input", sequence_store, "--entropy-n", spec, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --entropy-n") and message in err
        assert not out.exists()


class TestParseProfileErrors:
    """A malformed profile ends in an `error:` line and exit 2, not a traceback."""

    def _parse(self, tmp_path, synthetic_log_path, profile_text):
        profile = tmp_path / "bad.profile"
        profile.write_text(profile_text)
        out = tmp_path / "ev.tsv"
        code = run(
            "parse",
            "--profile", profile,
            "--templates", DATA / "synthetic.templates",
            "--input", synthetic_log_path,
            "--out", out,
        )
        assert not out.exists()
        return code, profile

    def test_non_integer_value_names_the_line(self, tmp_path, synthetic_log_path, capsys):
        code, profile = self._parse(
            tmp_path, synthetic_log_path, "name = x\nlabel_source = sequence-file\npreamble_tokens = five\n"
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {profile}:3: preamble_tokens")

    @pytest.mark.parametrize(
        "line",
        ["seq_id_pattern = blk_(\\d+", "timestamp_pattern = ^(\\d{6}\ntimestamp_format = epoch"],
        ids=["seq_id_pattern", "timestamp_pattern"],
    )
    def test_uncompilable_pattern_names_the_key(self, tmp_path, synthetic_log_path, capsys, line):
        code, _ = self._parse(
            tmp_path, synthetic_log_path, f"name = x\nlabel_source = sequence-file\npreamble_tokens = 5\n{line}\n"
        )
        assert code == 2
        err = capsys.readouterr().err
        key = line.split(" =")[0]
        assert err.startswith(f"error: {key} ") and "does not compile" in err

    def test_uncompilable_timestamp_format_names_the_key(self, tmp_path, synthetic_log_path, capsys):
        """A repeated directive makes `strptime` raise `re.error`; parse names the key instead."""
        code, _ = self._parse(
            tmp_path,
            synthetic_log_path,
            "name = x\nlabel_source = sequence-file\npreamble_tokens = 5\n"
            "timestamp_pattern = ^(\\d{6} \\d{2})\ntimestamp_format = %y%m%d %m\n",
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: timestamp_format '%y%m%d %m' is not a valid format")


    def test_unknown_boolean_value_names_the_line(self, tmp_path, synthetic_log_path, capsys):
        code, profile = self._parse(
            tmp_path, synthetic_log_path, "name = x\nlabel_source = sequence-file\ntokenized = ture\n"
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {profile}:3: tokenized")

    @pytest.mark.parametrize("key", ["preamble_tokens", "seq_id_token", "label_token"])
    def test_negative_token_index_refused(self, tmp_path, synthetic_log_path, capsys, key):
        code, profile = self._parse(
            tmp_path, synthetic_log_path, f"name = x\nlabel_source = sequence-file\n{key} = -1\n"
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {profile}: {key} must be >= 0, got -1\n"

    def test_unknown_label_source_names_the_file(self, tmp_path, synthetic_log_path, capsys):
        code, profile = self._parse(tmp_path, synthetic_log_path, "name = x\nlabel_source = stdin\n")
        assert code == 2
        assert capsys.readouterr().err == f"error: {profile}: unknown label_source: 'stdin'\n"


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

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_non_positive_jobs_rejected(self, tmp_path, bundled_corpus_path, capsys, jobs):
        out_dir = tmp_path / "eval"
        code = run("eval", "--input", bundled_corpus_path, "--runs", "2", "--jobs", jobs, "--out-dir", out_dir)
        assert code == 2
        assert capsys.readouterr().err == "error: jobs must be >= 1\n"
        assert not out_dir.exists()

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

    def test_event_granularity(self, tmp_path, event_store):
        out_dir = tmp_path / "ev"
        code = run(
            "eval",
            "--input", event_store,
            "--granularity", "event",
            "--train-frac", "0.2",
            "--runs", "2",
            "--jobs", "1",
            "--out-dir", out_dir,
        )
        assert code == 0
        assert "event" in (out_dir / "summary.csv").read_text()


    def test_event_granularity_reads_the_store_once(self, tmp_path, event_store, monkeypatch):
        import logbench.events

        opened = []
        open_utf8 = logbench.events.open_utf8

        def counting(path, *args, **kwargs):
            opened.append(Path(path))
            return open_utf8(path, *args, **kwargs)

        monkeypatch.setattr(logbench.events, "open_utf8", counting)
        argv = ("--granularity", "event", "--train-frac", "0.2", "--runs", "2", "--jobs", "1")
        assert run("eval", "--input", event_store, *argv, "--out-dir", tmp_path / "ev") == 0
        assert opened == [event_store]

    def test_event_granularity_counts_events_without_id(self, tmp_path, event_store):
        events = list(read_events(event_store))
        mixed = tmp_path / "mixed.tsv"
        extra = [ParsedEvent(10_000 + i, 1 + i % 3, None, (), None) for i in range(40)]
        with open(mixed, "w", newline="") as handle:
            write_events(events[:100] + extra + events[100:], handle, keep_unidentified=True)
        outputs = []
        for store in (event_store, mixed):
            out_dir = tmp_path / store.stem
            argv = ("--granularity", "event", "--train-frac", "0.2", "--runs", "2", "--jobs", "1")
            assert run("eval", "--input", store, *argv, "--out-dir", out_dir) == 0
            outputs.append((out_dir / "results.csv").read_bytes())
        manifest = json.loads((tmp_path / "mixed" / "manifest.json").read_text())
        assert manifest["realized"]["events_total"] == len(events) + 40
        assert manifest["realized"]["discarded_no_id"] == 40
        assert manifest["warnings"] == ["40 events without a sequence id were discarded"]
        assert outputs[0] == outputs[1]

    def test_event_granularity_refuses_a_store_without_event_labels(self, tmp_path, parsed_events, capsys):
        # the synthetic profile takes its labels from a per-sequence file, so no event has one
        argv = ("--granularity", "event", "--train-frac", "0.2", "--runs", "1", "--jobs", "1")
        code = run("eval", "--input", parsed_events, *argv, "--out-dir", tmp_path / "ev")
        assert code == 2
        err = capsys.readouterr().err
        assert "no sequence of" in err and "has a label on every event" in err
        assert "no anomalies" not in err

    def test_event_granularity_counts_sequences_without_event_labels(self, tmp_path, event_store):
        events = list(read_events(event_store))
        mixed = tmp_path / "mixed.tsv"
        extra = [ParsedEvent(10_000 + i, 1 + i % 3, None, (f"bare-{i % 4}",), None) for i in range(40)]
        with open(mixed, "w", newline="") as handle:
            write_events(events + extra, handle)
        outputs = []
        for store in (event_store, mixed):
            out_dir = tmp_path / store.stem
            argv = ("--granularity", "event", "--train-frac", "0.2", "--runs", "2", "--jobs", "1")
            assert run("eval", "--input", store, *argv, "--out-dir", out_dir) == 0
            outputs.append((out_dir / "results.csv").read_bytes())
        assert json.loads((tmp_path / "events" / "manifest.json").read_text())["realized"]["unlabeled_dropped"] == 0
        manifest = json.loads((tmp_path / "mixed" / "manifest.json").read_text())
        assert manifest["realized"]["unlabeled_dropped"] == 4
        assert manifest["warnings"] == ["dropped 4 sequences with unlabeled events"]
        assert outputs[0] == outputs[1]

    def test_event_granularity_identical_for_every_jobs_value(self, tmp_path, event_store):
        outputs = []
        for jobs in ("1", "2"):
            out_dir = tmp_path / f"jobs{jobs}"
            code = run(
                "eval",
                "--input", event_store,
                "--granularity", "event",
                "--train-frac", "0.2",
                "--runs", "4",
                "--jobs", jobs,
                "--out-dir", out_dir,
            )
            assert code == 0
            outputs.append([(out_dir / name).read_bytes() for name in ("results.csv", "summary.csv", "bests.csv")])
        assert outputs[0] == outputs[1]

    def test_event_granularity_refuses_score_dump(self, tmp_path, event_store, capsys):
        out_dir = tmp_path / "ev"
        code = run(
            "eval",
            "--input", event_store,
            "--granularity", "event",
            "--runs", "1",
            "--jobs", "1",
            "--out-dir", out_dir,
            "--dump-scores",
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --dump-scores")
        assert not out_dir.exists()


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


@pytest.mark.parametrize(
    "command, argv",
    [
        ("eval", ("--runs", "2", "--jobs", "1")),
        ("sweep", ()),
    ],
)
def test_unlabeled_sequences_dropped_are_recorded(tmp_path, bundled_corpus_path, command, argv):
    rows = bundled_corpus_path.read_text().splitlines()
    for i in range(1, 8):
        seq_id, _, rest = rows[i].split("\t", 2)
        rows[i] = f"{seq_id}\t\t{rest}"
    store = tmp_path / "partly_unlabeled.tsv"
    store.write_text("\n".join(rows) + "\n")
    out_dir = tmp_path / command
    code = run(
        command,
        "--input", store,
        "--detectors", "event,length",
        "--train-frac", "0.1",
        *argv,
        "--out-dir", out_dir,
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["realized"]["unlabeled_dropped"] == 7
    assert manifest["warnings"] == ["dropped 7 unlabeled sequences"]


@pytest.mark.parametrize("command, argv", [("eval", ("--runs", "2", "--jobs", "2")), ("sweep", ())])
@pytest.mark.parametrize(
    "detectors, message",
    [
        ("ngram2,2-gram", "detector row 'ngram2' is named more than once"),
        (",", "no detector rows to evaluate"),
        ("", "no detector rows to evaluate"),
    ],
)
def test_repeated_or_empty_rows_refused(tmp_path, bundled_corpus_path, capsys, command, argv, detectors, message):
    out_dir = tmp_path / command
    code = run(
        command,
        "--input", bundled_corpus_path,
        "--detectors", detectors,
        "--train-frac", "0.1",
        *argv,
        "--out-dir", out_dir,
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


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

    def test_show_refuses_an_unknown_boolean_value(self, tmp_path, capsys):
        profile = tmp_path / "typo.profile"
        profile.write_text("name = x\nlabel_source = file-dir\ntokenized = ture\n")
        assert run("profiles", "show", profile) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {profile}:3: tokenized") and not captured.out

    @pytest.mark.parametrize("name", bundled_profile_names())
    def test_show_output_loads_as_the_same_profile(self, tmp_path, capsys, name):
        assert run("profiles", "show", name) == 0
        path = tmp_path / f"{name}.profile"
        path.write_text(capsys.readouterr().out)
        assert load_profile_file(path) == load_profile(name)


class TestHelpEnumeratesFlags:
    def test_event_granularity_refuses_other_detectors(self, tmp_path, event_store, capsys):
        out_dir = tmp_path / "ev"
        code = run(
            "eval",
            "--input", event_store,
            "--granularity", "event",
            "--detectors", "ecvc,edit",
            "--runs", "1",
            "--jobs", "1",
            "--out-dir", out_dir,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "ecvc, edit" in err
        assert not out_dir.exists()

    def test_event_granularity_defaults_to_the_event_row(self, tmp_path, event_store):
        outputs = []
        for detectors in ((), ("--detectors", "event")):
            out_dir = tmp_path / f"ev{len(detectors)}"
            code = run(
                "eval",
                "--input", event_store,
                "--granularity", "event",
                *detectors,
                "--train-frac", "0.2",
                "--runs", "2",
                "--jobs", "1",
                "--out-dir", out_dir,
            )
            assert code == 0
            manifest = json.loads((out_dir / "manifest.json").read_text())
            assert manifest["args"]["detectors"] == "event"
            outputs.append([(out_dir / name).read_bytes() for name in ("results.csv", "summary.csv", "bests.csv")])
        assert outputs[0] == outputs[1]

    def test_sequence_granularity_defaults_to_the_study_rows(self, tmp_path, bundled_corpus_path):
        out_dir = tmp_path / "eval"
        code = run(
            "eval",
            "--input", bundled_corpus_path,
            "--train-frac", "0.1",
            "--runs", "1",
            "--jobs", "1",
            "--out-dir", out_dir,
        )
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["args"]["detectors"] == ",".join(STUDY_DETECTORS)
        rows = [line.split(",")[0] for line in (out_dir / "summary.csv").read_text().splitlines()[1:]]
        assert len(rows) == len(STUDY_DETECTORS)

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


class TestInvalidUtf8:
    """A text input with a byte that is not UTF-8 ends in `error: path:line:` and exit 2, not a traceback."""

    @staticmethod
    def refused(capsys, path, argv):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:3: not valid UTF-8 (byte 0xff)"), err

    def test_event_store(self, tmp_path, capsys):
        store = tmp_path / "events.tsv"
        store.write_bytes(b"line_no\tevent_id\ttimestamp\tseq_id\tlabel\n1\t1\t\ta\tnormal\n2\xff\t1\t\tb\tnormal\n")
        self.refused(capsys, store, ["group", "--input", store, "--out", tmp_path / "seqs.tsv"])

    def test_sequence_store(self, tmp_path, capsys):
        store = tmp_path / "seqs.tsv"
        store.write_bytes(b"seq_id\tlabel\tevents\ttimestamps\na\tnormal\t1 2\t\nb\xff\tnormal\t1\t\n")
        self.refused(capsys, store, ["stats", "--input", store, "--out-dir", tmp_path / "stats"])

    def test_label_file(self, tmp_path, parsed_events, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_bytes(b"seq_id,label\nblk_1,normal\nb\xff,anomaly\n")
        argv = ["group", "--input", parsed_events, "--labels", labels, "--out", tmp_path / "seqs.tsv"]
        self.refused(capsys, labels, argv)

    def test_template_catalog(self, tmp_path, synthetic_log_path, capsys):
        catalog = tmp_path / "bad.templates"
        catalog.write_bytes(b"1\tStarting transfer for <*>\n\n#\xff comment\n")
        argv = ["parse", "--profile", "synthetic", "--templates", catalog, "--input", synthetic_log_path,
                "--out", tmp_path / "events.tsv"]
        self.refused(capsys, catalog, argv)

    def test_profile_file(self, tmp_path, synthetic_log_path, capsys):
        profile = tmp_path / "bad.profile"
        profile.write_bytes(b"name = x\nlabel_source = sequence-file\n#\xff\n")
        argv = ["parse", "--profile", profile, "--templates", DATA / "synthetic.templates",
                "--input", synthetic_log_path, "--out", tmp_path / "events.tsv"]
        self.refused(capsys, profile, argv)
