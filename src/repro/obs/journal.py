"""Structured JSONL run journals.

Every training run and benchmark streams its telemetry through one schema:
a run directory containing ``events.jsonl``, one JSON object per line, each
with an ``event`` type from :data:`EVENT_TYPES`, a ``ts`` wall-clock stamp,
and event-specific fields.  The trainer emits ``config`` → per-epoch
``epoch`` (loss / loss_f / loss_g / grad_norm / throughput) → ``spectrum``
(singular values + effective rank, the paper's collapse diagnostic) →
``engine`` / ``metrics`` / ``trace`` snapshots → ``run_end``; benchmarks
emit ``bench_table`` rows.  ``repro report <run-dir>`` renders any journal
back into the text tables of :mod:`repro.utils.tables`.

Events are append-only and flushed per line, so a crashed run still leaves
a readable journal prefix.  All numpy scalars/arrays are coerced to plain
python before serialization; apart from ``ts`` and measured durations the
fields are deterministic under a fixed seed (the schema round-trip tests
rely on this).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import IO, Iterable

import numpy as np

__all__ = ["EVENT_TYPES", "JOURNAL_FILENAME", "RunJournal", "read_journal",
           "validate_journal", "events_of", "canonical_events"]

JOURNAL_FILENAME = "events.jsonl"

#: Known event types; ``validate_journal`` rejects anything else so schema
#: drift fails loudly in CI instead of silently producing unreadable runs.
EVENT_TYPES = frozenset({
    "config",       # run hyperparameters, dtype/fused flags, dataset size
    "epoch",        # per-epoch loss (+ loss_f/loss_g), grad_norm, throughput
    "spectrum",     # singular values + effective rank (Figs. 1/5)
    "eval",         # downstream accuracy after training
    "metrics",      # MetricRegistry snapshot
    "trace",        # Tracer span statistics
    "engine",       # tensor-engine op/backward/bytes counters
    "bench_table",  # one benchmark result table
    "note",         # free-form annotation
    "run_end",      # final loss + total seconds; closes the run
})


def _jsonify(value):
    """Coerce numpy scalars/arrays (and Paths) to JSON-native types."""
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Path):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


class RunJournal:
    """Append-only JSONL event stream under a run directory.

    Parameters
    ----------
    run_dir:
        Directory to hold ``events.jsonl`` (created if missing).
    append:
        Keep existing events (benchmark sessions accumulate tables);
        the default truncates so each training run starts clean.
    clock:
        Timestamp source; tests inject a constant for byte-identical
        journals.
    """

    def __init__(self, run_dir, *, append: bool = False, clock=time.time):
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.run_dir / JOURNAL_FILENAME
        self._clock = clock
        self._fh: IO[str] | None = self.path.open("a" if append else "w")
        self.num_events = 0

    def log(self, event: str, **fields) -> dict:
        """Write one event line; returns the record as a dict."""
        if event not in EVENT_TYPES:
            raise ValueError(
                f"unknown event type {event!r}; known: {sorted(EVENT_TYPES)}")
        if self._fh is None:
            raise RuntimeError("journal is closed")
        record = {"event": event, "ts": round(float(self._clock()), 6),
                  **fields}
        self._fh.write(json.dumps(record, default=_jsonify) + "\n")
        self._fh.flush()
        self.num_events += 1
        return record

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _journal_path(run_dir) -> Path:
    path = Path(run_dir)
    if path.is_dir():
        path = path / JOURNAL_FILENAME
    return path


def read_journal(run_dir) -> list[dict]:
    """Parse every event line of a run directory (or journal file) in order."""
    path = _journal_path(run_dir)
    events = []
    with path.open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def validate_journal(run_dir) -> list[dict]:
    """Read a journal and enforce the schema; returns the events.

    Checks every line parses as a JSON object carrying a known ``event``
    type and a numeric ``ts``.  Raises ``ValueError`` with the offending
    line number otherwise — this is the assertion CI's telemetry smoke
    tier runs against a fresh 2-epoch training journal.
    """
    path = _journal_path(run_dir)
    events: list[dict] = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not valid JSON ({exc})") from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: event is not an object")
            event = record.get("event")
            if event not in EVENT_TYPES:
                raise ValueError(
                    f"{path}:{lineno}: unknown event type {event!r}")
            ts = record.get("ts")
            if not isinstance(ts, (int, float)):
                raise ValueError(f"{path}:{lineno}: missing numeric 'ts'")
            events.append(record)
    if not events:
        raise ValueError(f"{path}: journal is empty")
    return events


def events_of(events: Iterable[dict], event_type: str) -> list[dict]:
    """Filter a parsed journal down to one event type (in order)."""
    return [e for e in events if e.get("event") == event_type]


#: Fields that legitimately differ between reruns of the same seed:
#: wall-clock stamps, measured durations, throughput derived from them, and
#: the pipeline/eval-shape knobs that are guaranteed not to change any
#: number (the evaluation engine is bit-identical at every worker count).
NONDETERMINISTIC_KEYS = frozenset({
    "ts", "seconds", "total_seconds", "graphs_per_sec", "nodes_per_sec",
    "workers", "prefetch", "cache",   # prefetch: older journals only
    "eval_seconds", "eval_repeat_seconds", "eval_workers", "eval_solver",
})

#: Event types that are timing-only (span statistics) or depend on
#: cache hit/miss patterns rather than on training numbers.
NONDETERMINISTIC_EVENTS = frozenset({"trace", "metrics"})


def canonical_events(events: Iterable[dict]) -> list[dict]:
    """Strip wall-clock/throughput noise for journal equality checks.

    Two runs of the same seed — at different eval worker counts, or split
    by a checkpoint/resume cycle — must produce *identical* canonical
    event lists.  This is the comparison behind CI's determinism and resume
    smokes and the checkpoint tests.
    """
    canonical = []
    for event in events:
        if event.get("event") in NONDETERMINISTIC_EVENTS:
            continue
        canonical.append({k: v for k, v in event.items()
                          if k not in NONDETERMINISTIC_KEYS})
    return canonical
