"""Deterministic workload generator for the logbench benchmark.

Each workload is a raw log shaped like one of the paper's corpora, plus the
files the CLI needs next to it (a per-block label file, or a generated
template catalog) and a ground-truth record that the benchmark checks the
program's outputs against. The program only ever sees the generated files.

The same (workload, seed, scale) always gives byte-identical files: every
random draw comes from a `random.Random` seeded with a string. What sets the
cost of a run is fixed per workload and scale, drawn from a "layout" stream
that ignores the seed: block lengths (from fixed quantiles of their
distribution), which blocks are anomalous, the template catalog, which
templates are frequent, and where anomaly bursts sit. The seed varies the
content: block ids, interleaving, parameters, timestamps, node ids, noise
lines, mirror and replication events and anomaly kinds. Runs on different
seeds therefore do about the same work, so their spread measures the
machine rather than the inputs.

Run `python3 benchmarks/generate.py --workload hdfs-pipeline --seed 1 --out DIR`
to write one workload's files by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The bundled 9-template catalog the HDFS-shaped workloads are parsed with.
SYNTHETIC_TEMPLATES = Path("src/logbench/data/synthetic.templates")

# Event ids of the bundled synthetic catalog (src/logbench/data/synthetic.templates).
START, ALLOC, WRITE, ACK, FINAL, DONE, ABORT, MIRROR, REPLICATE = range(1, 10)

#: Detectors that emit 0/1 scores and so get one results.csv row per run.
THRESHOLD_FREE = {"event", "length"}

#: The study's 14 detector rows, as the CLI's default `--detectors`; spelled
#: out so the workloads stay fixed if that default changes.
STUDY_DETECTORS = (
    "event,length,event+length,ecvc,event+length+ecvc,ecvc-idf,event+length+ecvc-idf,"
    "ngram2,ngram2+length,ngram3,ngram10,edit,event+length+edit,timing"
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: input shape and the CLI chain run on it."""

    name: str
    kind: str  # "hdfs" (block transfers, id grouping) or "bgl" (node lines, windows)
    size: int  # blocks for "hdfs", lines for "bgl", at scale 1
    detectors: str
    runs: int
    jobs: int
    train_frac: float
    params: dict = field(default_factory=dict)

    @property
    def profile(self) -> str:
        """The bundled dataset profile the CLI parses this workload with."""
        return "synthetic" if self.kind == "hdfs" else "bgl"

    def scaled(self, scale: float) -> int:
        return max(40, int(round(self.size * scale)))


#: Every workload the generator knows. BENCHMARK.json times `wide-catalog` and
#: `edit-study`; `hdfs-pipeline` is run by hand, for the comparison with the
#: ROADMAP baseline in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hdfs-pipeline",
            "hdfs",
            size=2500,
            detectors=STUDY_DETECTORS,
            runs=3,
            jobs=1,
            train_frac=0.01,
            params=dict(
                max_loops=6, pareto_alpha=None, anomaly_rate=0.03, noise_rate=0.02,
                mirror_rate=0.0, replicate_rate=0.0, tick_rate=0.15, active=8,
            ),
        ),
        Workload(
            "wide-catalog",
            "bgl",
            size=8000,
            detectors="event,length,ecvc,ngram2,ngram3,ngram10,timing",
            runs=3,
            jobs=1,
            train_frac=0.01,
            params=dict(
                templates=1000, leading_wildcard=0.10, zipf_s=1.05, noise_rate=0.01,
                nodes=64, bursts=6, burst_lines=40, failure_templates=20, tick_rate=0.3,
                window=20,
            ),
        ),
        Workload(
            "edit-study",
            "hdfs",
            size=400,
            detectors=STUDY_DETECTORS,
            runs=2,
            jobs=2,
            train_frac=0.12,
            params=dict(
                max_loops=150, pareto_alpha=1.1, loop_scale=3, anomaly_rate=0.03,
                noise_rate=0.02, mirror_rate=0.3, replicate_rate=0.2, tick_rate=0.15, active=8,
            ),
        ),
    )
}


def expected_rows_per_run(detectors: str) -> dict[str, int]:
    """results.csv rows one run yields per detector: the 101-point grid or one row."""
    rows = {}
    for spec in detectors.split(","):
        threshold_free = all(part in THRESHOLD_FREE for part in spec.split("+"))
        rows[spec] = 1 if threshold_free else 101
    return rows


def sequence_digest(sequences: dict[str, tuple[str, list[int]]]) -> str:
    """SHA-256 over `seq_id<TAB>label<TAB>events` lines sorted by seq_id."""
    digest = hashlib.sha256()
    for sid in sorted(sequences):
        label, events = sequences[sid]
        digest.update(f"{sid}\t{label}\t{' '.join(map(str, events))}\n".encode())
    return digest.hexdigest()


def _properties(sequences, repeated_stamps: int, stamped_lines: int, leading: float) -> dict:
    lengths = [len(events) for _, events in sequences.values()]
    distinct = len({tuple(events) for _, events in sequences.values()})
    return {
        "distinct_sequence_ratio": distinct / len(sequences),
        "repeated_timestamp_share": repeated_stamps / stamped_lines,
        "leading_wildcard_template_share": leading,
        "length_quartiles": statistics.quantiles(lengths, n=4),
    }


# --------------------------------------------------------------------------
# HDFS-shaped block-transfer logs (bundled `synthetic` profile and catalog)


_HDFS_MESSAGES = {
    START: ("INFO", "store.Writer", "Starting transfer for {b}"),
    ALLOC: ("INFO", "store.Master", "Allocated slot for {b} on node {n}"),
    WRITE: ("INFO", "store.Writer", "Writing chunk {c} for {b}"),
    ACK: ("INFO", "store.Writer", "Chunk ack {c} for {b}"),
    FINAL: ("INFO", "store.Writer", "Finalizing {b}"),
    DONE: ("INFO", "store.Writer", "Transfer of {b} complete"),
    ABORT: ("ERROR", "store.Writer", "Transfer of {b} aborted with error {e}"),
    REPLICATE: ("INFO", "store.Replicator", "Replicating {b} from node {n} to node {m}"),
}

_ERRORS = ("timeout", "checksum", "disk-full", "peer-reset")


def _loop_counts(layout: random.Random, p: dict, n: int) -> list[int]:
    """Write/ack loops per block: fixed quantiles of the length distribution, shuffled."""
    if p["pareto_alpha"]:
        loops = [
            min(p["max_loops"], int(p["loop_scale"] * (1 - (i + 0.5) / n) ** (-1 / p["pareto_alpha"])))
            for i in range(n)
        ]
    else:
        loops = [1 + i * p["max_loops"] // n for i in range(n)]
    layout.shuffle(loops)
    return loops


def _block_plan(rng: random.Random, p: dict, loops: int, anomaly: str | None) -> list[int]:
    """Events one block emits itself; mirror events are added while interleaving."""
    body: list[int] = []
    for _ in range(loops):
        body += [WRITE, ACK]
        if rng.random() < p["replicate_rate"]:
            body.append(REPLICATE)
    if anomaly == "abort":
        cut = rng.randrange(len(body) + 1)
        return [START, ALLOC] + body[:cut] + [ABORT]
    events = [START, ALLOC] + body + [FINAL, DONE]
    if anomaly == "shuffle":
        while True:
            i, j = sorted(rng.sample(range(1, len(events)), 2))
            if events[i] != events[j]:
                events[i], events[j] = events[j], events[i]
                break
    return events


def _hdfs_stamp(clock: int) -> str:
    return time.strftime("%y%m%d %H%M%S", time.gmtime(clock))


def generate_hdfs(w: Workload, seed: int, scale: float, out: Path) -> dict:
    rng = random.Random(f"{w.name}:{seed}")
    layout = random.Random(f"{w.name}:layout")
    p = w.params
    n_blocks = w.scaled(scale)
    loops = _loop_counts(layout, p, n_blocks)
    n_anomalous = max(1, round(n_blocks * p["anomaly_rate"]))
    anomalous = set(layout.sample(range(n_blocks), n_anomalous))
    kinds: dict[str, int] = {"abort": 0, "shuffle": 0}
    ids = rng.sample(range(1, 100 * n_blocks), n_blocks)
    blocks = []
    for i, num in enumerate(ids):
        kind = rng.choice(("abort", "shuffle")) if i in anomalous else None
        if kind:
            kinds[kind] += 1
        blocks.append((f"blk_{num}", kind, _block_plan(rng, p, loops[i], kind)))

    # Each line is a block's next event or a noise line. Up to `active` blocks
    # are interleaved; a block's first line is written as it starts, so blocks
    # first appear in list order and the eval split samples the same block
    # positions, and so the same lengths, whatever the seed.
    truth_events: dict[str, list[int]] = {b: [] for b, _, _ in blocks}
    per_template: dict[int, int] = {}
    lines: list[str] = []
    clock = 1226262918  # 2008-11-09 20:35:18 UTC, as in the HDFS corpus
    last_stamp = None
    repeated = 0
    stamped = 0
    active: list[list] = []  # [block_id, plan, position]
    pending = iter(blocks)
    noise = 0
    n_lines_target = sum(len(plan) for _, _, plan in blocks)
    n_noise = round(n_lines_target * p["noise_rate"])
    noise_slots = set(rng.sample(range(n_lines_target + n_noise), n_noise))
    slot = 0

    def emit(text: str, level: str, component: str) -> None:
        nonlocal last_stamp, repeated, stamped, clock
        if rng.random() < p["tick_rate"]:
            clock += 1
        stamp = _hdfs_stamp(clock)
        stamped += 1
        repeated += stamp == last_stamp
        last_stamp = stamp
        lines.append(f"{stamp} {rng.randint(10, 99)} {level} {component}: {text}")

    while True:
        if slot in noise_slots:
            emit(f"sweep cycle {rng.randint(1, 999)} finished", "WARN", "store.GC")
            noise += 1
            slot += 1
            continue
        slot += 1
        nxt = next(pending, None) if len(active) < p["active"] else None
        if nxt is not None:
            entry = [nxt[0], nxt[2], 0]
            active.append(entry)
        elif active:
            entry = rng.choice(active)
        else:
            break
        block, plan, pos = entry
        event = plan[pos]
        entry[2] += 1
        if entry[2] == len(plan):
            active.remove(entry)
        others = [a[0] for a in active if a[0] != block]
        if event in (WRITE, ACK) and others and rng.random() < p["mirror_rate"] / 4:
            # A mirroring line names two blocks, so it joins both sequences.
            target = rng.choice(others)
            emit(f"Mirroring {block} into {target}", "INFO", "store.Mirror")
            truth_events[block].append(MIRROR)
            truth_events[target].append(MIRROR)
            per_template[MIRROR] = per_template.get(MIRROR, 0) + 1
        level, component, fmt = _HDFS_MESSAGES[event]
        text = fmt.format(
            b=block, c=rng.randint(0, 63), n=f"n{rng.randint(1, 40)}",
            m=f"n{rng.randint(1, 40)}", e=rng.choice(_ERRORS),
        )
        emit(text, level, component)
        truth_events[block].append(event)
        per_template[event] = per_template.get(event, 0) + 1

    out.mkdir(parents=True, exist_ok=True)
    (out / "raw.log").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with open(out / "labels.csv", "w", encoding="utf-8") as handle:
        handle.write("BlockId,Label\n")
        for block, kind, _ in blocks:
            handle.write(f"{block},{'Anomaly' if kind else 'Normal'}\n")
    sequences = {
        b: ("anomalous" if kind else "normal", truth_events[b]) for b, kind, _ in blocks
    }
    return {
        "files": {"log": "raw.log", "labels": "labels.csv", "templates": str(SYNTHETIC_TEMPLATES)},
        "lines": len(lines),
        "noise_lines": noise,
        "invalid_lines": 0,
        "lines_per_template": {str(k): v for k, v in sorted(per_template.items())},
        "templates": 9,
        "blocks": n_blocks,
        "anomaly_kinds": kinds,
        "sequences": {
            "total": n_blocks,
            "normal": n_blocks - n_anomalous,
            "anomalous": n_anomalous,
        },
        "events": sum(len(e) for _, e in sequences.values()),
        "sequence_digest": sequence_digest(sequences),
        "properties": _properties(sequences, repeated, stamped, 0.0),
    }


# --------------------------------------------------------------------------
# BGL-shaped node logs with a wide generated catalog (bundled `bgl` profile)


_WORDS = (
    "instruction cache parity error corrected data tlb miss interrupt kernel "
    "node card fan speed temperature sensor link failure retry torus receiver "
    "sender packet dropped memory controller ddr ecc single symbol chip "
    "mailbox ciod generating core file program exited signal idoproxy "
    "rts panic machine check floating point alignment exception lustre mount "
    "directory service timeout ethernet bit steering capacity reached "
    "invalid message header checksum power module voltage warning clock "
    "external input idle halted restart torn down job partition block "
    "midplane switch port service action"
).split()

_FAILURE_TAGS = ("KERNDTLB", "KERNSTOR", "APPSEV", "KERNMNTF", "MMCS")


def _bgl_param(rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return f"0x{rng.getrandbits(32):08x}"
    if kind == 1:
        return str(rng.randint(0, 99999))
    if kind == 2:
        return f"core.{rng.randint(0, 4095)}"
    return f"/p/gb{rng.randint(1, 9)}/{rng.choice(_WORDS)}"


def _bgl_catalog(rng: random.Random, n: int, leading: float) -> list[str]:
    """Templates that each carry a unique literal tag, so every message matches one."""
    n_leading = round(n * leading)
    leading_ids = set(rng.sample(range(n), n_leading))
    patterns = []
    for i in range(n):
        words = rng.sample(_WORDS, rng.randint(2, 6))
        words.insert(rng.randint(0, len(words)), f"E{i + 1:04d}")
        for _ in range(rng.randint(1, 3)):
            words.insert(rng.randint(1, len(words)), "<*>")
        if i in leading_ids:
            if words[0] != "<*>":
                words.insert(0, "<*>")
        elif words[0] == "<*>":
            words.pop(0)
        patterns.append(" ".join(words))
    return patterns


def _zipf_lines(ranks: list[int], s: float, n_lines: int) -> list[int]:
    """Template index per line: each template's Zipf share of `n_lines`, largest remainders rounded up."""
    weights = [1.0 / (rank + 1) ** s for rank in ranks]
    total = sum(weights)
    exact = [n_lines * weight / total for weight in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda t: (counts[t] - exact[t], t))
    for t in by_remainder[: n_lines - sum(counts)]:
        counts[t] += 1
    return [t for t, count in enumerate(counts) for _ in range(count)]


def _bgl_node(i: int) -> str:
    return f"R{i // 32:02d}-M{(i // 16) % 2}-N{(i // 4) % 4}-C:J{i % 4:02d}-U11"


def generate_bgl(w: Workload, seed: int, scale: float, out: Path) -> dict:
    rng = random.Random(f"{w.name}:{seed}")
    layout = random.Random(f"{w.name}:layout")
    p = w.params
    n_lines = w.scaled(scale)
    patterns = _bgl_catalog(layout, p["templates"], p["leading_wildcard"])
    n = len(patterns)
    ranks = list(range(n))
    layout.shuffle(ranks)  # Zipf rank is independent of the catalog's match order
    failure_ids = layout.sample(range(n), p["failure_templates"])

    n_bursts = max(1, round(p["bursts"] * n_lines / w.size))
    burst_len = min(p["burst_lines"], max(2, n_lines // (4 * n_bursts)))
    # Bursts sit in disjoint stretches of the log, one failing node each.
    stretch = n_lines // n_bursts
    bursts = {}
    for b in range(n_bursts):
        start = b * stretch + layout.randrange(max(1, stretch - burst_len))
        tag = rng.choice(_FAILURE_TAGS)
        node = rng.randrange(p["nodes"])
        for k in range(burst_len):
            bursts[start + k] = (tag, node)
    n_noise = round(n_lines * p["noise_rate"])
    noise_slots = set(rng.sample([i for i in range(n_lines) if i not in bursts], n_noise))
    # Each template gets its expected share of lines, in a seed-shuffled order,
    # so every seed parses the same template mix.
    regular = _zipf_lines(ranks, p["zipf_s"], n_lines - len(bursts) - n_noise)
    rng.shuffle(regular)
    failing = [failure_ids[k % len(failure_ids)] for k in range(len(bursts))]
    rng.shuffle(failing)

    lines = []
    per_template: dict[int, int] = {}
    matched: list[tuple[int, str]] = []  # (event id, label) per matched line, in order
    clock = 1117838570  # 2005-06-03 22:42:50 UTC, as in the BGL corpus
    last = None
    repeated = 0
    noise = 0
    for i in range(n_lines):
        if rng.random() < p["tick_rate"]:
            clock += 1
        repeated += clock == last
        last = clock
        burst = bursts.get(i)
        if burst:
            tag, node = burst
        else:
            tag, node = "-", rng.randrange(p["nodes"])
        if i in noise_slots:
            message = " ".join(rng.sample(_WORDS, 5))
            noise += 1
        else:
            tpl = failing.pop() if burst else regular.pop()
            message = " ".join(
                _bgl_param(rng) if word == "<*>" else word for word in patterns[tpl].split()
            )
            event = tpl + 1
            per_template[event] = per_template.get(event, 0) + 1
            matched.append((event, "normal" if tag == "-" else f"anomalous:{tag}"))
        day = time.strftime("%Y.%m.%d", time.gmtime(clock))
        full = time.strftime("%Y-%m-%d-%H.%M.%S", time.gmtime(clock))
        where = _bgl_node(node)
        lines.append(
            f"{tag} {clock} {day} {where} {full}.{rng.randrange(10**6):06d} {where} "
            f"RAS KERNEL INFO {message}"
        )

    window = p["window"]
    sequences = {}
    for start in range(0, len(matched), window):
        chunk = matched[start : start + window]
        label = next((lab for _, lab in chunk if lab != "normal"), "normal")
        sequences[f"window-{start}"] = (label, [e for e, _ in chunk])
    n_anom = sum(1 for lab, _ in sequences.values() if lab != "normal")

    out.mkdir(parents=True, exist_ok=True)
    (out / "raw.log").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with open(out / "catalog.templates", "w", encoding="utf-8") as handle:
        for i, pattern in enumerate(patterns, 1):
            handle.write(f"{i}\t{pattern}\n")
    return {
        "files": {"log": "raw.log", "templates": "catalog.templates"},
        "lines": n_lines,
        "noise_lines": noise,
        "invalid_lines": 0,
        "lines_per_template": {str(k): v for k, v in sorted(per_template.items())},
        "templates": n,
        "anomalous_lines": sum(1 for _, lab in matched if lab != "normal"),
        "anomaly_kinds": {"burst": n_bursts},
        "sequences": {
            "total": len(sequences),
            "normal": len(sequences) - n_anom,
            "anomalous": n_anom,
        },
        "events": len(matched),
        "sequence_digest": sequence_digest(sequences),
        "properties": _properties(
            sequences, repeated, n_lines, sum(pt.startswith("<*>") for pt in patterns) / n
        ),
    }


def generate(name: str, seed: int, out: Path, scale: float = 1.0) -> dict:
    """Write one workload's input files under `out` and return its ground truth."""
    w = WORKLOADS[name]
    make = generate_hdfs if w.kind == "hdfs" else generate_bgl
    truth = make(w, seed, scale, out)
    truth.update(
        workload=name,
        seed=seed,
        scale=scale,
        size=w.scaled(scale),
        params=w.params,
        chain={"detectors": w.detectors, "runs": w.runs, "jobs": w.jobs, "train_frac": w.train_frac},
    )
    with open(out / "truth.json", "w", encoding="utf-8") as handle:
        json.dump(truth, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return truth


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    truth = generate(args.workload, args.seed, args.out, args.scale)
    print(json.dumps({k: truth[k] for k in ("lines", "noise_lines", "sequences", "properties")}))


if __name__ == "__main__":
    main()
