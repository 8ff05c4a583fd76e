"""Command-line checks that drive `python -m logbench.cli` end to end, with the standard library only.

Each `check_*` function takes an empty working directory, runs the CLI
there through `subprocess` with this interpreter, and asserts on what it
wrote. They need neither pytest nor hypothesis, so every supported Python
runs them:

    python tests/cli_checks.py

runs them all and exits non-zero when one fails.
`tests/test_cli_checks.py` collects them, so the tier-1 pytest run runs
them too. A new cross-version or CLI-level check belongs here.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "logbench" / "data"
EVAL_FILES = ("results.csv", "summary.csv", "bests.csv", "scores_run0.csv")


def run(*args: object, cwd: Path, python_flags: tuple[str, ...] = (), env: dict[str, str] | None = None) -> str:
    """Run this interpreter on `args` with `src` importable and `env` added; return its standard output.

    A non-zero exit fails the check with the command's output.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, *python_flags, *map(str, args)]
    env = {**os.environ, **(env or {}), "PYTHONPATH": path}
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"{cmd} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}"
    return proc.stdout


def logbench(*args: object, cwd: Path, **options) -> str:
    return run("-m", "logbench.cli", *args, cwd=cwd, **options)


def rows_of(path: Path) -> list[list[str]]:
    """The tab-separated rows of a store after its header."""
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def assert_same_files(first: Path, other: Path, names: tuple[str, ...]) -> None:
    for name in names:
        assert (first / name).read_bytes() == (other / name).read_bytes(), f"{other / name} differs from {name}"


def check_bundled_corpus_is_what_its_generator_writes(work: Path) -> None:
    run(ROOT / "tests" / "corpora.py", work / "synthetic_sequences.tsv", cwd=work)
    assert (work / "synthetic_sequences.tsv").read_bytes() == (DATA / "synthetic_sequences.tsv").read_bytes()


def check_calendar_stamps_read_as_strptime_reads_them(work: Path) -> None:
    """On and off the fixed-width layout, a stamp reads as `strptime` reads it.

    The decoder reads on-layout stamps itself and hands the rest to
    `strptime`; `_strptime` ships with each Python, so each version checks
    its own.
    """
    stamps = [
        "2017-05-16 00:00:04.500", "2017-05-16 00:00:04.500123", "2017-05-16 00:00:04.5001234",
        "2017-05-16 00:00:04.5", "2023-02-29 12:00:00.100", "2024-02-29 12:00:00.100",
        "٢٠١٧-05-16 00:00:04.500", "2017-13-01 00:00:00.000", "2017-05-16 23:59:60.000",
    ]
    log = work / "openstack.log"
    log.write_text(
        "".join(
            f"nova-compute.log {s} 2931 INFO nova.compute.manager [instance: 0123abcd-ef] VM Started\n"
            for s in stamps
        ),
        encoding="utf-8",
    )
    (work / "openstack.templates").write_text("1\t<*>VM Started\n", encoding="utf-8")
    logbench(
        "parse", "--profile", "openstack", "--templates", "openstack.templates", "--input", log,
        "--out", "openstack_events.tsv", cwd=work,
    )
    expected = []
    for line in log.read_text(encoding="utf-8").splitlines():
        text = re.search(r"(\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}\.\d+)", line).group(1)
        try:
            stamp = datetime.strptime(text, "%Y-%m-%d %H:%M:%S.%f").replace(tzinfo=timezone.utc)
            expected.append(repr(stamp.timestamp()))
        except ValueError:
            expected.append("")
    assert [row[2] for row in rows_of(work / "openstack_events.tsv")] == expected, expected
    assert expected.count("") == 4, expected


#: kind -> (preamble tokens, timestamp pattern, timestamp format, the log's stamps)
YEARLESS_PROFILES = {
    "named": (
        3, r"^(\w{3} +\d+ \d{2}:\d{2}:\d{2})", "%b %d %H:%M:%S",
        ["Feb 28 23:59:59", "Feb 29 12:00:00", "Mar  1 00:00:00", "Dec 31 23:59:59", "Feb 30 01:02:03"],
    ),
    "numeric": (
        2, r"^(\d{2}-\d{2} \d{2}:\d{2}:\d{2})", "%m-%d %H:%M:%S",
        ["02-28 23:59:59", "02-29 12:00:00", "03-01 00:00:00", "12-31 23:59:59", "02-30 01:02:03"],
    ),
}


def check_yearless_stamps_read_in_base_year_without_a_warning(work: Path) -> None:
    """Year-less stamps are read in `base_year`, Feb 29 included, and nothing warns.

    Python 3.13 warns when `strptime` reads a day of month without a year;
    `parse` reads a year-less stamp in `base_year` itself, so the run under
    `-W error::DeprecationWarning` succeeds.
    """
    (work / "yearless.templates").write_text("1\tsession closed <*>\n", encoding="utf-8")
    whens = [(2, 28, 23, 59, 59), (2, 29, 12, 0, 0), (3, 1, 0, 0, 0), (12, 31, 23, 59, 59)]
    expected = [repr(datetime(2008, *when, tzinfo=timezone.utc).timestamp()) for when in whens]
    expected.append("")  # Feb 30 is an unparseable timestamp
    for kind, (preamble, pattern, fmt, stamps) in YEARLESS_PROFILES.items():
        (work / f"{kind}.profile").write_text(
            f"name = {kind}\nlabel_source = sequence-file\npreamble_tokens = {preamble}\n"
            f"timestamp_pattern = {pattern}\ntimestamp_format = {fmt}\nbase_year = 2008\n"
            "seq_id_pattern = blk_\\d+\n",
            encoding="utf-8",
        )
        log = "".join(f"{stamp} session closed for blk_1\n" for stamp in stamps)
        (work / f"{kind}.log").write_text(log, encoding="utf-8")
        logbench(
            "parse", "--profile", f"{kind}.profile", "--templates", "yearless.templates", "--input", f"{kind}.log",
            "--out", f"{kind}_events.tsv", cwd=work, python_flags=("-W", "error::DeprecationWarning"),
        )
        stamps_read = [row[2] for row in rows_of(work / f"{kind}_events.tsv")]
        assert stamps_read == expected, (kind, stamps_read, expected)


def write_tree(root: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")


def check_directory_parse_of_an_adfa_tree(work: Path) -> None:
    """An ADFA-shaped tree, a file name with a comma included, gives one sequence per file."""
    tree = work / "adfa"
    write_tree(tree, {
        "Training_Data_Master/UTD-0001.txt": "6 6 63 6 42\n",
        "Attack_Data_Master/Hydra_FTP_1/UAD-0001.txt": "120 6\n",
        "normal/a,b.txt": "3 4 5\n",
    })
    logbench("parse", "--profile", "adfa", "--input", tree, "--out", "adfa_events.tsv", cwd=work)
    logbench("group", "--input", "adfa_events.tsv", "--mode", "file", "--out", "adfa_sequences.tsv", cwd=work)
    files = sum(1 for path in tree.rglob("*") if path.is_file())
    assert len(rows_of(work / "adfa_sequences.tsv")) == files == 3
    assert "anomalous:Hydra_FTP" in (work / "adfa_sequences.tsv").read_text(encoding="utf-8")


def check_directory_label_with_a_digit_tag_keeps_its_tag(work: Path) -> None:
    write_tree(work / "digits", {"attack/0/a.txt": "1 2 3\n", "clean/b.txt": "1 2\n"})
    (work / "digits.profile").write_text(
        "name = digits\nlabel_source = file-dir\ntokenized = true\nanomaly_dir_pattern = attack/(\\d+)\n",
        encoding="utf-8",
    )
    logbench("parse", "--profile", "digits.profile", "--input", "digits", "--out", "digits_events.tsv", cwd=work)
    logbench("group", "--input", "digits_events.tsv", "--mode", "file", "--out", "digits_sequences.tsv", cwd=work)
    assert "attack/0/a.txt\tanomalous:0\t" in (work / "digits_sequences.tsv").read_text(encoding="utf-8")


def check_file_dir_profile_without_a_pattern_leaves_sequences_unlabeled(work: Path) -> None:
    write_tree(work / "plain", {"attack/a.txt": "1 2 3\n", "clean/b.txt": "1 2\n"})
    profile = "name = plain\nlabel_source = file-dir\ntokenized = true\n"
    (work / "plain.profile").write_text(profile, encoding="utf-8")
    logbench("parse", "--profile", "plain.profile", "--input", "plain", "--out", "plain_events.tsv", cwd=work)
    logbench("group", "--input", "plain_events.tsv", "--mode", "file", "--out", "plain_sequences.tsv", cwd=work)
    rows = rows_of(work / "plain_sequences.tsv")
    assert [row[1] for row in rows] == ["", ""], rows


def check_edit_scores_over_several_bank_blocks_do_not_depend_on_jobs(work: Path) -> None:
    """Long-tailed, mostly distinct blocks: at `--train-frac 0.5` each run's bank of ~90 spans several blocks."""
    run(
        ROOT / "benchmarks" / "generate.py", "--workload", "edit-study", "--seed", "1", "--scale", "0.5",
        "--out", "edit", cwd=work,
    )
    logbench(
        "parse", "--profile", "synthetic", "--templates", DATA / "synthetic.templates", "--input", "edit/raw.log",
        "--out", "edit_events.tsv", cwd=work,
    )
    logbench(
        "group", "--input", "edit_events.tsv", "--labels", "edit/labels.csv", "--out", "edit_sequences.tsv",
        cwd=work,
    )
    for jobs in (1, 2, 3):
        logbench(
            "eval", "--input", "edit_sequences.tsv", "--detectors", "edit,event+length+edit", "--train-frac", "0.5",
            "--runs", 4, "--jobs", jobs, "--dump-scores", "--out-dir", f"edit{jobs}", cwd=work,
        )
    for jobs in (2, 3):
        assert_same_files(work / "edit1", work / f"edit{jobs}", EVAL_FILES)


def check_eval_results_do_not_depend_on_jobs(work: Path) -> None:
    """The bundled store, and one with a missing stamp, an empty sequence and an unlabeled one.

    `--jobs 3` splits the 4 runs unevenly over 3 processes.
    """
    odd = ["seq_id\tlabel\tevents\ttimestamps"]
    odd += [f"n{i}\tnormal\t1 2 3 4\t0.0 1.0 2.5 3.0" for i in range(1, 13)]
    odd += [
        "gap\tnormal\t1 2 3\t0.0 - 2.0", "empty\tnormal\t\t", "unlabeled\t\t1 2\t0.0 1.0",
        "a1\tanomalous\t1 9 3\t0.0 9.0 9.5", "a2\tanomalous:slow\t1 2 3 4\t0.0 8.0 9.0 30.0",
    ]
    (work / "odd_sequences.tsv").write_text("\n".join(odd) + "\n", encoding="utf-8")
    for jobs in (1, 2, 3):
        logbench(
            "eval", "--input", DATA / "synthetic_sequences.tsv", "--train-frac", "0.1", "--runs", 4, "--jobs", jobs,
            "--dump-scores", "--out-dir", f"jobs{jobs}", cwd=work,
        )
        logbench(
            "eval", "--input", "odd_sequences.tsv", "--train-frac", "0.2", "--runs", 4, "--jobs", jobs,
            "--dump-scores", "--out-dir", f"odd{jobs}", cwd=work,
        )
    for jobs in (2, 3):
        assert_same_files(work / "jobs1", work / f"jobs{jobs}", EVAL_FILES)
        assert_same_files(work / "odd1", work / f"odd{jobs}", EVAL_FILES)
    assert '"unlabeled_dropped": 1' in (work / "odd1" / "manifest.json").read_text(encoding="utf-8")


def check_event_granularity_eval_does_not_depend_on_jobs(work: Path) -> None:
    """`eval --granularity event` writes the same bytes at every `--jobs`.

    The events: normal nodes, two anomalous nodes with mixed line labels, a
    node with an unlabeled line, and a line without a node.
    """
    rows = ["line_no\tevent_id\ttimestamp\tseq_id\tlabel"]
    line_no = 0
    for node in range(1, 11):
        for event in range(1, 5):
            line_no += 1
            rows.append(f"{line_no}\t{event}\t{line_no}.0\tnode{node}\tnormal")
    rows += [
        "41\t1\t41.0\tnodeA\tnormal", "42\t9\t42.0\tnodeA\tanomalous:KERN",
        "43\t3\t43.0\tnodeA\tnormal", "44\t9\t44.0\tnodeA\tanomalous:APP",
        "45\t2\t45.0\tnodeB\tanomalous", "46\t5\t46.0\tnodeB\tnormal",
        "47\t8\t47.0\tnodeB\tanomalous:KERN",
        "48\t1\t48.0\tnodeU\tnormal", "49\t7\t49.0\tnodeU\t",
        "50\t6\t50.0\t\tanomalous",
    ]
    (work / "line_events.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    for jobs in (1, 2, 3):
        logbench(
            "eval", "--granularity", "event", "--input", "line_events.tsv", "--train-frac", "0.2", "--runs", 4,
            "--jobs", jobs, "--out-dir", f"line{jobs}", cwd=work,
        )
    for jobs in (2, 3):
        assert_same_files(work / "line1", work / f"line{jobs}", EVAL_FILES[:3])
    assert '"unlabeled_dropped": 1' in (work / "line1" / "manifest.json").read_text(encoding="utf-8")


def check_window_grouping_writes_the_list_grouping_bytes(work: Path) -> None:
    """`group --mode window`, which streams its windows, writes what `group_by_window` then `write_sequences` write.

    On a generated BGL-shaped log, for a step equal to, shorter than and
    longer than the window. Both also write what the list oracle's windows
    write, and the manifest counts the windows that got a lifted label.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from logbench.events import read_events
    from logbench.sequencing import dedupe_replicated, group_by_window, write_sequences
    from oracles import windows_naive

    run(
        ROOT / "benchmarks" / "generate.py", "--workload", "wide-catalog", "--seed", "1", "--scale", "0.5",
        "--out", "wide", cwd=work,
    )
    logbench(
        "parse", "--profile", "bgl", "--templates", "wide/catalog.templates", "--input", "wide/raw.log",
        "--out", "events.tsv", cwd=work,
    )
    events = list(dedupe_replicated(read_events(work / "events.tsv")))
    for window, step in ((20, 20), (20, 7), (7, 20)):
        out = work / f"windows_{window}_{step}.tsv"
        logbench(
            "group", "--input", "events.tsv", "--mode", "window", "--window", window, "--step", step, "--out", out,
            cwd=work,
        )
        for name, grouped in (("list", group_by_window), ("oracle", windows_naive)):
            expected = work / f"{name}_{window}_{step}.tsv"
            with open(expected, "w", encoding="utf-8", newline="") as handle:
                write_sequences(grouped(events, window, step), handle)
            assert out.read_bytes() == expected.read_bytes(), (name, window, step)
        rows = rows_of(out)
        realized = json.loads(out.with_name(out.name + ".manifest.json").read_text(encoding="utf-8"))["realized"]
        assert realized["labels_lifted_from_events"] == sum(1 for row in rows if row[1]) > 0, (window, step)
        assert realized["sequences_written"] == len(rows) > 1, (window, step)


def check_outputs_do_not_depend_on_the_hash_seed(work: Path) -> None:
    """Every stage writes and prints the same bytes under two hash seeds, manifests aside.

    `parse` and `group` run on the bundled log; `stats`, `complexity`,
    `eval` and `sweep` on the bundled 200-sequence store, and `stats` and
    `complexity` also on the grouped log.
    """
    store = DATA / "synthetic_sequences.tsv"
    stages = [
        ("parse", "--profile", "synthetic", "--templates", DATA / "synthetic.templates", "--input",
         DATA / "synthetic.log", "--out", "events.tsv"),
        ("group", "--input", "events.tsv", "--labels", DATA / "synthetic_labels.csv", "--out", "sequences.tsv"),
        ("stats", "--input", "sequences.tsv", "--interarrival-by-pair", "--out-dir", "grouped_stats"),
        ("complexity", "--input", "sequences.tsv", "--lz", "--out", "grouped_complexity.csv"),
        ("stats", "--input", store, "--interarrival-by-pair", "--out-dir", "stats"),
        ("complexity", "--input", store, "--lz", "--out", "complexity.csv"),
        ("eval", "--input", store, "--train-frac", "0.1", "--runs", 5, "--jobs", 2, "--dump-scores",
         "--out-dir", "eval"),
        ("sweep", "--input", store, "--train-frac", "0.1", "--out-dir", "sweep"),
    ]
    outputs = {}
    for seed in ("1", "2"):
        out = work / f"seed{seed}"
        out.mkdir()
        printed = "".join(logbench(*stage, cwd=out, env={"PYTHONHASHSEED": seed}) for stage in stages)
        files = sorted(p for p in out.rglob("*") if p.is_file() and not p.name.endswith("manifest.json"))
        outputs[seed] = printed, {str(p.relative_to(out)): p.read_bytes() for p in files}
    assert len(outputs["1"][1]) == 19, sorted(outputs["1"][1])
    assert outputs["1"] == outputs["2"], [
        name for name, data in outputs["1"][1].items() if outputs["2"][1].get(name) != data
    ] or "standard output differs"


CHECKS = [check for name, check in list(globals().items()) if name.startswith("check_")]


def main() -> int:
    failed = 0
    for check in CHECKS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="cli_checks.") as work:
            try:
                check(Path(work))
            except Exception:
                failed += 1
                traceback.print_exc()
                print(f"FAIL {check.__name__}", flush=True)
                continue
        print(f"ok   {check.__name__} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"Python {sys.version.split()[0]}: {failed} of {len(CHECKS)} checks failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
