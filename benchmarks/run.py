"""End-to-end and per-layer benchmark of the logbench pipeline on generated workloads.

    python3 benchmarks/run.py --workload wide-catalog --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout. The workload's inputs are generated
from the seed under `.bench_work/`, then:

* `--trace 0` runs the CLI chain `parse -> group -> stats -> complexity ->
  eval`, one process per command, again and again until `--seconds` are
  used, and before each repetition times set-up (a fresh interpreter that
  imports `logbench.cli`, loads the profile and compiles the catalog). Each
  time is the mean of the run's samples without the top and bottom tenth
  (see `trimmed_mean`); peak RSS is their median.
* `--trace 1` runs the CLI chain once for reference, then traced in-process
  passes (see tracing.py) for the per-layer metrics, again until `--seconds`
  are used, reporting per-metric medians.

Every repetition's outputs are checked against the generator's ground truth;
each stage command and each check is one attempted operation. The last line
of standard output is the result object; the line before it holds the
environment, the inputs' properties and the output digests. The full record,
with every sample, goes to `.bench_work/<workload>-s<seed>/report.json`
(and the traced run's spans to `spans.jsonl` next to it); generated inputs
and outputs are deleted after a run whose checks all pass.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import generate
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: A run must end within 180 s; stages are killed past this point.
RUN_LIMIT_S = 170.0

#: Fresh interpreters timed for `setup_s` before each repetition of the chain.
SETUP_PER_REP = 2

SETUP_SCRIPT = (
    "import sys\n"
    "import logbench.cli\n"
    "from logbench.ingest import load_profile, load_template_catalog\n"
    "load_profile(sys.argv[1])\n"
    "load_template_catalog(sys.argv[2])\n"
)

OUTPUT_DIGESTS = ("results.csv", "summary.csv", "bests.csv")


class Budget:
    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.seconds = seconds

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def fits(self, cost: float) -> bool:
        """Whether another step expected to take `cost` seconds ends within the budget."""
        return self.elapsed() + cost <= self.seconds


class Ops:
    """Attempted and failed operations; a failure keeps its message for the report."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, fn) -> None:
        self.attempted += 1
        try:
            problem = fn()
        except Exception as exc:  # a crashed check is a failed operation, not a crash
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{name}: {problem}")


class Launcher:
    """Client of launcher.py, the small process that runs and measures every command."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(WORK / "tmp"))
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, cmd: list[str], log: Path) -> dict:
        """Run one command; return its exit code, wall s, user+system CPU s and peak RSS MB.

        CPU time and peak RSS come from `os.wait4`, so they include every
        worker the command started and waited for.
        """
        timeout = max(1.0, self.deadline - time.perf_counter())
        request = {"cmd": cmd, "cwd": str(ROOT), "env": self.env, "log": str(log), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended unexpectedly")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=10)


def stage_commands(w: generate.Workload, inputs: dict[str, Path], out: Path) -> dict[str, list[str]]:
    cli = [sys.executable, "-m", "logbench.cli"]
    events, seqs = out / "events.tsv", out / "sequences.tsv"
    if w.kind == "hdfs":
        group = ["--mode", "id", "--labels", str(inputs["labels"])]
    else:
        size = str(w.params["window"])
        group = ["--mode", "window", "--window", size, "--step", size]
    return {
        "parse": cli + ["parse", "--profile", w.profile, "--templates", str(inputs["templates"]),
                        "--input", str(inputs["log"]), "--out", str(events)],
        "group": cli + ["group", "--input", str(events), "--out", str(seqs)] + group,
        "stats": cli + ["stats", "--input", str(seqs), "--out-dir", str(out / "stats")],
        "complexity": cli + ["complexity", "--input", str(seqs), "--lz",
                             "--out", str(out / "complexity.csv")],
        "eval": cli + ["eval", "--input", str(seqs), "--detectors", w.detectors,
                       "--runs", str(w.runs), "--jobs", str(w.jobs), "--train-frac", str(w.train_frac),
                       "--out-dir", str(out / "eval")],
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --------------------------------------------------------------------------
# Output checks against the generator's ground truth


def _read_tsv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return [row for row in csv.reader(handle, delimiter="\t") if row][1:]


def _compare(what: str, got, want) -> str | None:
    return None if got == want else f"{what} is {got}, expected {want}"


def check_outputs(ops: Ops, w: generate.Workload, truth: dict, out: Path) -> None:
    manifest = {}

    def accounting():
        manifest.update(json.loads((out / "events.tsv.manifest.json").read_text())["realized"])
        total = manifest["matched_lines"] + manifest["unmatched_lines"] + manifest["invalid_lines"]
        return _compare("matched+unmatched+invalid", total, truth["lines"]) or _compare(
            "lines_total", manifest["lines_total"], truth["lines"]
        )

    def unmatched():
        return _compare("unmatched lines", manifest["unmatched_lines"], truth["noise_lines"]) or (
            _compare("invalid lines", manifest["invalid_lines"], truth["invalid_lines"])
        )

    def template_hits():
        lines: dict[str, set[str]] = {}
        for line_no, event_id, *_ in _read_tsv(out / "events.tsv"):
            lines.setdefault(event_id, set()).add(line_no)
        hits = {k: len(v) for k, v in lines.items()}
        return _compare("hits per template", hits, truth["lines_per_template"])

    def sequences():
        rows = _read_tsv(out / "sequences.tsv")
        seqs = {sid: (label, [int(e) for e in events.split()]) for sid, label, events, _ in rows}
        classes = Counter("normal" if label == "normal" else "anomalous" for label, _ in seqs.values())
        want = truth["sequences"]
        return (
            _compare("sequences", len(rows), want["total"])
            or _compare("normal sequences", classes["normal"], want["normal"])
            or _compare("anomalous sequences", classes["anomalous"], want["anomalous"])
            or _compare("sequence digest", generate.sequence_digest(seqs), truth["sequence_digest"])
        )

    def stats_counts():
        counts = {}
        for line in (out / "stats" / "summary.txt").read_text().splitlines():
            parts = line.split()
            if parts[0] in ("number_of_sequences", "number_of_parsed_events"):
                counts[(parts[0], parts[1])] = int(parts[2])
        want = truth["sequences"]
        return (
            _compare("stats total", counts[("number_of_sequences", "total")], want["total"])
            or _compare("stats normal", counts[("number_of_sequences", "normal")], want["normal"])
            or _compare("stats anomalous", counts[("number_of_sequences", "anomalous")], want["anomalous"])
            or _compare("stats events", counts[("number_of_parsed_events", "total")], truth["events"])
        )

    def complexity_rows():
        with open(out / "complexity.csv", encoding="utf-8") as handle:
            kinds = Counter(row["measure"] for row in csv.DictReader(handle))
        return _compare("entropy rows", kinds["entropy"], 10) or _compare(
            "lz points", kinds["lz_complexity"], truth["sequences"]["total"]
        )

    def results_rows():
        with open(out / "eval" / "results.csv", encoding="utf-8") as handle:
            rows = Counter(row["detector"] for row in csv.DictReader(handle))
        want = {d: n * w.runs for d, n in generate.expected_rows_per_run(w.detectors).items()}
        return _compare("results.csv rows per detector", dict(rows), want)

    ops.check("parse.accounting", accounting)
    ops.check("parse.unmatched", unmatched)
    ops.check("parse.template_hits", template_hits)
    ops.check("group.sequences", sequences)
    ops.check("stats.class_counts", stats_counts)
    ops.check("complexity.rows", complexity_rows)
    ops.check("eval.results_rows", results_rows)


# --------------------------------------------------------------------------
# Measurement


def run_chain(ops: Ops, launcher: Launcher, w, truth, inputs, out: Path, digests: dict) -> dict:
    """One repetition of the CLI chain plus its checks; returns per-stage measurements."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    stages = {}
    for stage, cmd in stage_commands(w, inputs, out).items():
        ops.attempted += 1
        stages[stage] = result = launcher.run(cmd, out / f"{stage}.log")
        if result["code"] != 0:
            log = (out / f"{stage}.log").read_text()[-500:]
            ops.failures.append(f"{stage} exited {result['code']}: {log}")
    check_outputs(ops, w, truth, out)

    def same_outputs():
        now = {name: sha256(out / "eval" / name) for name in OUTPUT_DIGESTS}
        if not digests:
            digests.update(now)
        return _compare("output digests", now, digests)

    ops.check("eval.deterministic", same_outputs)
    return stages


def time_setup(launcher: Launcher, w, inputs) -> float:
    """Wall time of one fresh interpreter that does the set-up every `parse` pays."""
    cmd = [sys.executable, "-c", SETUP_SCRIPT, w.profile, str(inputs["templates"])]
    log = WORK / "tmp" / "setup.log"
    result = launcher.run(cmd, log)
    if result["code"] != 0:
        raise RuntimeError(f"set-up process exited {result['code']}: {log.read_text()[-500:]}")
    return result["wall"]


def trimmed_mean(samples, cut: float = 0.1) -> float:
    """Mean of the samples left after dropping the lowest and highest `cut` share.

    On a host shared with other tenants the CPU often alternates between a
    fast and a slow speed, so a run's samples fall into two clusters. Their
    median jumps between the clusters as the share of slow samples crosses
    one half, while their mean moves with that share smoothly; the trim keeps
    a single stall from moving it.
    """
    values = sorted(samples)
    k = int(len(values) * cut)
    return statistics.fmean(values[k : len(values) - k])


def end_to_end(reps: list[dict], setup: list[float], lines: int, ops: Ops) -> dict[str, float]:
    total_s = trimmed_mean(sum(s["wall"] for s in rep.values()) for rep in reps)
    return {
        "setup_s": trimmed_mean(setup),
        "total_s": total_s,
        "lines_per_s": lines / total_s,
        "parse_s": trimmed_mean(rep["parse"]["wall"] for rep in reps),
        "eval_s": trimmed_mean(rep["eval"]["wall"] for rep in reps),
        "cpu_s": trimmed_mean(sum(s["cpu"] for s in rep.values()) for rep in reps),
        "peak_rss_mb": statistics.median(max(s["rss_mb"] for s in rep.values()) for rep in reps),
        "pass_ratio": 1.0 - len(ops.failures) / ops.attempted,
    }


def environment(args, w, truth: dict, run_dir: Path) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = probe.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted((SRC / "logbench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "workload": w.name,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": {"size": truth["size"], **w.params, **truth["chain"]},
        "inputs": {
            "bytes": sum(p.stat().st_size for p in (run_dir / "inputs").glob("*")),
            "lines": truth["lines"],
            "templates": truth["templates"],
            "sequences": truth["sequences"]["total"],
            "length_quartiles": truth["properties"]["length_quartiles"],
        },
        "properties": truth["properties"],
    }


def measure_traced(ops: Ops, launcher: Launcher, w, truth, inputs, run_dir: Path, budget: Budget):
    """Reference CLI chain, then traced passes until the budget is used; per-layer medians."""
    digests: dict[str, str] = {}
    reference = run_chain(ops, launcher, w, truth, inputs, run_dir / "chain", digests)
    walls = {stage: m["wall"] for stage, m in reference.items()}
    sys.path.insert(0, str(SRC))
    import logbench

    if Path(logbench.__file__).resolve().parent != SRC / "logbench":
        raise RuntimeError(f"imported logbench from {logbench.__file__}, not from {SRC}")
    tracer = tracing.Tracer()
    samples = []
    cost = 0.0
    while not samples or budget.fits(cost):
        tracer.begin_pass(len(samples))
        started = time.perf_counter()
        facts = tracing.traced_pass(tracer, w, inputs, run_dir / "traced")
        cost = time.perf_counter() - started
        samples.append(tracing.layer_metrics(tracer, tracer.pass_id, facts, w, walls))
        traced = {name: sha256(run_dir / "traced" / name) for name in OUTPUT_DIGESTS}
        ops.check("trace.same_outputs", lambda: _compare("traced output digests", traced, digests))
    tracer.dump(run_dir / "spans.jsonl")
    samples_info = {"chain": [reference], "traced_passes": len(samples)}
    return tracing.median_metrics(samples), samples_info, digests


def measure_end_to_end(ops: Ops, launcher: Launcher, w, truth, inputs, run_dir: Path, budget: Budget):
    """Set-up samples and CLI chain repetitions, alternating until the budget is used.

    Set-up is timed a few times before every repetition rather than all at
    the start, so that its samples, like the chain's, cover the whole run.
    """
    digests: dict[str, str] = {}
    time_setup(launcher, w, inputs)  # warm-up: page cache and bytecode
    setup: list[float] = []
    reps: list[dict] = []

    def cost() -> float:
        chain = statistics.median(sum(s["wall"] for s in r.values()) for r in reps)
        return chain + SETUP_PER_REP * statistics.median(setup)

    while not reps or budget.fits(cost()):
        setup.extend(time_setup(launcher, w, inputs) for _ in range(SETUP_PER_REP))
        reps.append(run_chain(ops, launcher, w, truth, inputs, run_dir / "chain", digests))
        if ops.failures:
            break
    metrics = end_to_end(reps, setup, truth["lines"], ops)
    return metrics, {"setup_s": setup, "chain": reps}, digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(generate.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor (tests use < 1)")
    args = parser.parse_args(argv)

    if not (SRC / "logbench" / "cli.py").is_file():
        print(f"error: no logbench sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    budget = Budget(args.seconds)
    w = generate.WORKLOADS[args.workload]
    suffix = "" if args.scale == 1.0 else f"-x{args.scale}"
    run_dir = WORK / f"{w.name}-s{args.seed}{suffix}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    launcher = Launcher(time.perf_counter() + RUN_LIMIT_S)
    try:
        truth = generate.generate(w.name, args.seed, run_dir / "inputs", args.scale)
        inputs = {key: run_dir / "inputs" / name for key, name in truth["files"].items()}
        if w.kind == "hdfs":
            inputs["templates"] = ROOT / generate.SYNTHETIC_TEMPLATES
        env = environment(args, w, truth, run_dir)
        ops = Ops()
        measure = measure_traced if args.trace else measure_end_to_end
        metrics, samples, digests = measure(ops, launcher, w, truth, inputs, run_dir, budget)
    finally:
        launcher.close()

    report = {
        "environment": env,
        "output_sha256": digests,
        "failures": ops.failures,
        "samples": samples,
    }
    with open(run_dir / "report.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    for failure in ops.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if not ops.failures:  # keep a failed run's files for inspection
        for bulky in ("inputs", "chain", "traced"):
            shutil.rmtree(run_dir / bulky, ignore_errors=True)
    print(json.dumps({k: report[k] for k in ("environment", "output_sha256")}))
    units = {m["name"]: m["unit"] for m in _declared_metrics(args.trace)}
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _declared_metrics(trace_on: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace_on else "end_to_end"]


if __name__ == "__main__":
    sys.exit(main())
