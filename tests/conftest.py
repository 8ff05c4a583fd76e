from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from logbench.fixtures import event_labeled_corpus
from logbench.events import ParsedEvent, write_events
from logbench.ingest import load_profile, load_template_catalog


DATA = Path(__file__).parent.parent / "src" / "logbench" / "data"


@pytest.fixture(scope="session")
def synthetic_catalog():
    return load_template_catalog(DATA / "synthetic.templates")


@pytest.fixture(scope="session")
def synthetic_profile():
    return load_profile("synthetic")


@pytest.fixture(scope="session")
def synthetic_log_path():
    return DATA / "synthetic.log"


@pytest.fixture(scope="session")
def synthetic_labels_path():
    return DATA / "synthetic_labels.csv"


@pytest.fixture(scope="session")
def bundled_corpus_path():
    return DATA / "synthetic_sequences.tsv"


@pytest.fixture()
def event_store(tmp_path):
    """Parsed events with per-event labels, as read by `eval --granularity event`."""
    events = []
    line_no = 0
    for seq in event_labeled_corpus(n_normal=25, n_anomalous=5):
        for event, ts, label in zip(seq.events, seq.timestamps, seq.event_labels):
            line_no += 1
            events.append(ParsedEvent(line_no, event, ts, (seq.seq_id,), label))
    events_path = tmp_path / "events.tsv"
    with open(events_path, "w", newline="") as handle:
        write_events(events, handle)
    return events_path
