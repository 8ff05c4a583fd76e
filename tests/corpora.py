"""A corpus labeled per event, for event-granularity tests, and the study built from it."""

from __future__ import annotations

import random
from collections import Counter

from logbench.events import Label, NORMAL, ParsedEvent
from logbench.fixtures import NORMAL_LONG, NORMAL_SHORT
from logbench.sequencing import Sequence, group_by_identifier, tally_anomalous_events

#: An anomalous sequence's events; the occurrences of type 99 are its anomalous events.
FAULT_EVENTS = (1, 2, 3, 4, 99, 3, 4, 5, 6)
FAULT = Label(True, "fault")


def event_labeled_corpus(n_normal: int = 60, n_anomalous: int = 15, seed: int = 11) -> list[ParsedEvent]:
    """Normal sequences, then anomalous ones, as a parsed-event stream labeled per event.

    Each sequence is one identifier's consecutive lines, 1.5 s apart, and
    starts 100 s after the previous one. A normal sequence is one of the
    two canonical variants of `logbench.fixtures`; an anomalous one is
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
    seqs = [seq for seq in group_by_identifier(events) if seq.label is not None]
    return seqs, tally_anomalous_events(events, seqs)
