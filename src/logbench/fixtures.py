"""Bundled synthetic corpora with planted anomalies, one kind per detection technique.

The corpus is fully deterministic. Normal sequences come in two canonical
variants with fixed event order and constant 1.5 s inter-arrival times,
so every trained model is stable under any training sample:

    short: 1 2 3 4 3 4 5 6
    long:  1 2 3 4 3 4 3 4 5 6

Planted anomaly kinds (the label tag names the kind):

    new-event:    contains event type 99, length inside normal bounds
    short-length: known events only, far below the minimum length
    count-shift:  same alphabet and length, shifted occurrence counts
    order-swap:   exact normal multiset with two events transposed
    timing-delay: canonical events, one 60 s inter-arrival gap
"""

from __future__ import annotations

import random

from .errors import ValidationError
from .events import Label, NORMAL
from .sequencing import Sequence

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


def _main() -> None:
    """Regenerate the bundled corpus data file (developer utility)."""
    import sys
    from pathlib import Path

    from .sequencing import write_sequences

    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / "data" / "synthetic_sequences.tsv"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as handle:
        rows = write_sequences(synthetic_corpus(), handle)
    print(f"wrote {rows} sequences to {out}")


if __name__ == "__main__":
    _main()
