"""Test corpora: the planted-anomaly study corpus and an event-labeled stream.

`synthetic_corpus` is fully deterministic. Normal sequences come in two
canonical variants with fixed event order and constant 1.5 s inter-arrival
times, so every trained model is stable under any training sample:

    short: 1 2 3 4 3 4 5 6
    long:  1 2 3 4 3 4 3 4 5 6

Planted anomaly kinds (the label tag names the kind):

    new-event:    contains event type 99, length inside normal bounds
    short-length: known events only, far below the minimum length
    count-shift:  same alphabet and length, shifted occurrence counts
    order-swap:   exact normal multiset with two events transposed
    timing-delay: canonical events, one 60 s inter-arrival gap

The bundled `src/logbench/data/synthetic_sequences.tsv` is its default
corpus; regenerate it with

    python tests/corpora.py [out.tsv]
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path

from logbench.errors import ValidationError
from logbench.events import Label, NORMAL, ParsedEvent
from logbench.sequencing import GroupingReport, Sequence, group_by_identifier, write_sequences

ANOMALY_KINDS = ("new-event", "short-length", "count-shift", "order-swap", "timing-delay")

NORMAL_SHORT = (1, 2, 3, 4, 3, 4, 5, 6)
NORMAL_LONG = (1, 2, 3, 4, 3, 4, 3, 4, 5, 6)

_ANOMALY_EVENTS = {
    "new-event": (1, 2, 3, 4, 99, 3, 4, 5, 6),
    "short-length": (1, 2),
    "count-shift": (1, 2, 3, 4, 3, 3, 5, 6),
    "order-swap": (1, 2, 3, 4, 3, 4, 6, 5),
    "timing-delay": NORMAL_SHORT,
}

_BASE_TIME = 1_600_000_000.0
_STEP = 1.5
_DELAY = 60.0


def _timestamps(start: float, n: int, *, delay_at: int | None = None) -> list[float]:
    ts = [start]
    for i in range(1, n):
        gap = _DELAY if delay_at is not None and i == delay_at else _STEP
        ts.append(ts[-1] + gap)
    return ts


def synthetic_corpus(
    n_normal: int = 170,
    per_anomaly: int = 6,
    kinds: tuple[str, ...] = ANOMALY_KINDS,
    seed: int = 7,
) -> list[Sequence]:
    """Build the planted-anomaly corpus; defaults give 200 sequences."""
    unknown = [k for k in kinds if k not in ANOMALY_KINDS]
    if unknown:
        raise ValidationError(f"unknown anomaly kinds: {unknown}")
    rng = random.Random(seed)
    seqs = []
    base = _BASE_TIME
    for i in range(n_normal):
        events = list(NORMAL_LONG if rng.random() < 0.5 else NORMAL_SHORT)
        seqs.append(
            Sequence(
                f"normal-{i:04d}",
                events,
                _timestamps(base, len(events)),
                NORMAL,
            )
        )
        base += 100.0
    for kind in kinds:
        events = list(_ANOMALY_EVENTS[kind])
        delay_at = len(events) - 1 if kind == "timing-delay" else None
        for j in range(per_anomaly):
            seqs.append(
                Sequence(
                    f"{kind}-{j:02d}",
                    list(events),
                    _timestamps(base, len(events), delay_at=delay_at),
                    Label(True, kind),
                )
            )
            base += 100.0
    return seqs


#: An anomalous sequence's events; the occurrences of type 99 are its anomalous events.
FAULT_EVENTS = (1, 2, 3, 4, 99, 3, 4, 5, 6)
FAULT = Label(True, "fault")


def event_labeled_corpus(n_normal: int = 60, n_anomalous: int = 15, seed: int = 11) -> list[ParsedEvent]:
    """Normal sequences, then anomalous ones, as a parsed-event stream labeled per event.

    Each sequence is one identifier's consecutive lines, 1.5 s apart, and
    starts 100 s after the previous one. A normal sequence is one of the
    two canonical variants of `synthetic_corpus`; an anomalous one is
    `FAULT_EVENTS`, whose type-99 events carry the `fault` label.
    """
    rng = random.Random(seed)
    events: list[ParsedEvent] = []
    start = 1_600_000_000.0

    def add(seq_id, types, labels):
        nonlocal start
        for i, (event, label) in enumerate(zip(types, labels)):
            events.append(ParsedEvent(len(events) + 1, event, start + 1.5 * i, (seq_id,), label))
        start += 100.0

    for i in range(n_normal):
        types = NORMAL_LONG if rng.random() < 0.5 else NORMAL_SHORT
        add(f"normal-{i:04d}", types, [NORMAL] * len(types))
    for j in range(n_anomalous):
        add(f"fault-{j:02d}", FAULT_EVENTS, [FAULT if e == 99 else NORMAL for e in FAULT_EVENTS])
    return events


def event_study(events: list[ParsedEvent]) -> tuple[list[Sequence], Counter]:
    """The labeled sequences grouped from `events`, and their anomalous events per type."""
    report = GroupingReport()
    seqs = [seq for seq in group_by_identifier(events, report=report) if seq.label is not None]
    return seqs, report.anomalous_events


def _main() -> None:
    """Write `synthetic_corpus()` to the path given, by default the bundled data file."""
    default = Path(__file__).parent.parent / "src" / "logbench" / "data" / "synthetic_sequences.tsv"
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else default
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as handle:
        rows = write_sequences(synthetic_corpus(), handle)
    print(f"wrote {rows} sequences to {out}")


if __name__ == "__main__":
    _main()
