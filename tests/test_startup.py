"""Each command starts with only the modules it runs, and runs the same as a fresh process.

Every stage of the study is its own process, so what `logbench.cli` imports
before parsing its arguments is paid once per stage and corpus. These tests
start fresh interpreters to see what each command loads, and run the README
chain through `python -m logbench.cli` against in-process `main()`. The
standard-library sets are checked only on the modules a command loads
beyond a bare interpreter of the same environment: a site `.pth` file may
load `inspect` before any `logbench` code runs.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from logbench.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = SRC / "logbench" / "data"

#: Imports the CLI, runs `main` on the arguments if there are any, and
#: prints the exit code and every loaded module name as the last line.
PROBE = (
    "import json, sys\n"
    "from logbench.cli import main\n"
    "code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
    "print(json.dumps([code, sorted(sys.modules)]))\n"
)

POOL_MODULES = {"concurrent.futures", "multiprocessing"}

#: What only `parse` needs: the parser and its timestamp conversion.
PARSER_MODULES = {"logbench.ingest", "datetime"}

#: What `dataclasses` imports; every record is a NamedTuple or a __slots__ class.
RECORD_MODULES = {"dataclasses", "inspect"}


def fresh_python(cwd: Path, *args) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, args)],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


def loaded_modules(cwd: Path, *argv) -> set[str]:
    proc = fresh_python(cwd, "-c", PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(modules)


@functools.lru_cache(maxsize=None)
def bare_modules() -> frozenset[str]:
    """What an interpreter of this environment has loaded before it runs a program, as for `-c pass`."""
    proc = fresh_python(SRC, "-c", "import sys\nprint(' '.join(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.split())


def logbench_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "logbench" or m.startswith("logbench.")}


def test_bare_import_loads_only_cli_and_errors(tmp_path):
    modules = loaded_modules(tmp_path)
    assert logbench_modules(modules) == {"logbench", "logbench.cli", "logbench.errors"}
    assert not (modules - bare_modules()) & POOL_MODULES


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["parse", "--profile", "synthetic", "--templates", DATA / "synthetic.templates",
          "--input", DATA / "synthetic.log", "--out", "events.tsv"], {"ingest", "events"}),
        (["group", "--input", "EVENT_STORE", "--out", "sequences.tsv"], {"events", "sequencing"}),
        (["stats", "--input", DATA / "synthetic_sequences.tsv", "--out-dir", "stats"],
         {"events", "sequencing", "stats"}),
        (["complexity", "--input", DATA / "synthetic_sequences.tsv", "--out", "complexity.csv"],
         {"events", "sequencing", "complexity"}),
        (["eval", "--input", DATA / "synthetic_sequences.tsv", "--detectors", "event,ecvc,edit,timing",
          "--train-frac", "0.1", "--runs", "2", "--jobs", "1", "--out-dir", "eval"],
         {"events", "sequencing", "detectors", "evaluation"}),
        (["sweep", "--input", DATA / "synthetic_sequences.tsv", "--detectors", "event,ecvc,timing",
          "--train-frac", "0.1", "--out-dir", "sweep"],
         {"events", "sequencing", "detectors", "evaluation"}),
        (["eval", "--granularity", "event", "--input", "EVENT_STORE", "--train-frac", "0.2", "--runs", "2",
          "--jobs", "1", "--out-dir", "eval"],
         {"events", "sequencing", "detectors", "evaluation"}),
    ],
    ids=["parse", "group", "stats", "complexity", "eval-jobs1", "sweep", "eval-event"],
)
def test_command_loads_only_what_it_runs(tmp_path, event_store, argv, modules):
    argv = [event_store if a == "EVENT_STORE" else a for a in argv]
    loaded = loaded_modules(tmp_path, *argv)
    expected = {"logbench", "logbench.cli", "logbench.errors"} | {f"logbench.{m}" for m in modules}
    assert logbench_modules(loaded) == expected
    added = loaded - bare_modules()
    assert not added & POOL_MODULES
    assert not added & RECORD_MODULES
    if argv[0] == "parse":
        assert PARSER_MODULES <= loaded
    else:
        assert not added & PARSER_MODULES


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_eval_loads_no_process_pool(tmp_path, jobs):
    """`--jobs 2` forks the study process instead of starting a pool."""
    modules = loaded_modules(
        tmp_path,
        "eval", "--input", DATA / "synthetic_sequences.tsv", "--detectors", "event,length",
        "--train-frac", "0.1", "--runs", "2", "--jobs", jobs, "--out-dir", tmp_path / "eval",
    )
    assert (tmp_path / "eval" / "results.csv").is_file()
    assert ("logbench.forked" in modules) == (jobs == "2")
    added = modules - bare_modules()
    assert not added & POOL_MODULES
    assert not added & PARSER_MODULES
    assert not added & RECORD_MODULES


def test_epoch_profile_parse_loads_no_datetime(tmp_path):
    """`bgl` stamps are epoch seconds, so its parse never needs `strptime`."""
    node = "R02-M1-N0-C:J12-U11"
    (tmp_path / "bgl.log").write_text(
        f"- 1117838570 2005.06.03 {node} 2005-06-03-15.42.50.363779 {node} RAS KERNEL INFO cache parity error\n"
        f"KERNDTLB 1117838571 2005.06.03 {node} 2005-06-03-15.42.51.100000 {node} RAS KERNEL FATAL data TLB error\n"
    )
    (tmp_path / "bgl.templates").write_text("1\tcache parity error\n2\tdata TLB <*>\n")
    loaded = loaded_modules(
        tmp_path, "parse", "--profile", "bgl", "--templates", "bgl.templates", "--input", "bgl.log",
        "--out", "events.tsv",
    )
    assert "logbench.ingest" in loaded
    assert not (loaded - bare_modules()) & ({"datetime"} | RECORD_MODULES)
    rows = (tmp_path / "events.tsv").read_text().splitlines()
    assert rows[1:] == [f"1\t1\t1117838570.0\t{node}\tnormal", f"2\t2\t1117838571.0\t{node}\tanomalous:KERNDTLB"]


def test_calendar_stamps_load_strptime_only_off_their_layout(tmp_path):
    """Stamps on the format's fixed-width layout are decoded without `_strptime`; another stamp loads it.

    An off-layout stamp gets `strptime`'s value or error text, as it did when
    every stamp went through `strptime`.
    """
    parse = ["parse", "--profile", "synthetic", "--templates", DATA / "synthetic.templates", "--out"]
    loaded = loaded_modules(tmp_path, *parse, "plain.tsv", "--input", DATA / "synthetic.log")
    assert "datetime" in loaded
    assert "_strptime" not in loaded - bare_modules()

    from datetime import datetime, timezone

    lines = (DATA / "synthetic.log").read_text().splitlines()
    # Arabic-Indic digits where strptime reads them, month 13, Feb 29 of a non-leap year
    stamps = {2: "٠٨0109 12000١", 4: "081309 120005", 5: "230229 120006"}
    for index, stamp in stamps.items():
        lines[index] = stamp + lines[index][13:]
    (tmp_path / "odd.log").write_text("\n".join(lines) + "\n")
    loaded = loaded_modules(tmp_path, *parse, "odd.tsv", "--input", "odd.log")
    assert "_strptime" in loaded

    values, errors = [], []
    for line_no, line in enumerate(lines, 1):
        try:
            stamp = datetime.strptime(line[:13], "%y%m%d %H%M%S").replace(tzinfo=timezone.utc).timestamp()
            values.append(repr(stamp))
        except ValueError as exc:
            values.append("")
            errors.append(f"{line_no}: unparseable timestamp {line[:13]!r}: {exc}")
    assert len(errors) == 2 and values[2] == repr(1199880001.0)
    rows = [row.split("\t") for row in (tmp_path / "odd.tsv").read_text().splitlines()[1:]]
    assert [row[2] for row in rows] == [values[int(row[0]) - 1] for row in rows]
    assert {"3", "5", "6"} <= {row[0] for row in rows}
    manifest = json.loads((tmp_path / "odd.tsv.manifest.json").read_text())
    assert manifest["realized"]["timestamp_error_sample"] == errors


def readme_chain(event_store: Path) -> list[list[str]]:
    """The README pipeline on the bundled data, plus the other commands, with relative outputs."""
    commands = [
        ["parse", "--profile", "synthetic", "--templates", DATA / "synthetic.templates",
         "--input", DATA / "synthetic.log", "--out", "out/events.tsv"],
        ["group", "--input", "out/events.tsv", "--labels", DATA / "synthetic_labels.csv",
         "--out", "out/sequences.tsv"],
        ["stats", "--input", "out/sequences.tsv", "--out-dir", "out/stats"],
        ["complexity", "--input", "out/sequences.tsv", "--lz", "--out", "out/complexity.csv"],
        ["eval", "--input", DATA / "synthetic_sequences.tsv", "--train-frac", "0.1", "--runs", "5",
         "--jobs", "2", "--dump-scores", "--out-dir", "out/eval"],
        ["eval", "--granularity", "event", "--input", event_store, "--train-frac", "0.1",
         "--runs", "3", "--jobs", "1", "--out-dir", "out/event-eval"],
        ["sweep", "--input", DATA / "synthetic_sequences.tsv", "--train-frac", "0.1",
         "--out-dir", "out/sweep"],
        ["profiles", "list"],
        ["profiles", "show", "hdfs"],
    ]
    return [[str(a) for a in command] for command in commands]


def artifacts(root: Path) -> dict[str, bytes | dict]:
    """Every file under `root`; manifests without their wall times and command line."""
    out: dict[str, bytes | dict] = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        key = str(path.relative_to(root))
        if path.name.endswith("manifest.json"):
            manifest = json.loads(path.read_text())
            del manifest["timings_sec"], manifest["command_line"]
            out[key] = manifest
        else:
            out[key] = path.read_bytes()
    return out


def test_readme_chain_as_processes_matches_in_process(tmp_path, monkeypatch, capsys, event_store):
    chain = readme_chain(event_store)
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    fresh_stdout = []
    for command in chain:
        proc = fresh_python(fresh, "-m", "logbench.cli", *command)
        assert proc.returncode == 0, (command, proc.stderr)
        fresh_stdout.append(proc.stdout)

    inproc = tmp_path / "inproc"
    inproc.mkdir()
    monkeypatch.chdir(inproc)
    capsys.readouterr()
    for command, expected in zip(chain, fresh_stdout):
        assert main(command) == 0, command
        assert capsys.readouterr().out == expected, command

    produced = artifacts(fresh)
    assert {"out/eval/scores_run0.csv", "out/sweep/sweep.csv", "out/complexity.csv"} <= set(produced)
    assert produced == artifacts(inproc)
