"""In-memory span recording around public callables, and self-time sums.

The traced runs wrap the public functions of each layer from the
benchmark's own files (nothing under ``src/`` records spans).  Every call
of a wrapped callable appends one record to :class:`SpanRecorder`:

``[name, start, end, parent, thread, op, keys]``

``parent`` is the index of the enclosing span on the same thread (or -1),
``op`` an optional operation id taken from the call's arguments, and
``keys`` optional identities used to link spans across threads (the
serving batcher runs forwards on its own thread).  Records stay in memory
and are written out once, at the end of the run.

A layer's *self time* is its span's duration minus the durations of its
child spans.  Children run inside their parent on the same thread, so the
subtraction is exact and self times of all spans partition the covered
wall time.

Stdlib only: ``run.py`` imports this module without numpy.
"""

from __future__ import annotations

import bisect
import functools
import json
import threading
import time
from pathlib import Path

__all__ = ["SpanRecorder", "read_spans", "self_times", "assign_to_windows"]

NAME, START, END, PARENT, THREAD, OP, KEYS = range(7)


class SpanRecorder:
    """Wrap callables so every call records a span; undo with
    :meth:`unwrap_all`."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, *, op=None, keys=None):
        """Replace ``owner.attr`` with a recording wrapper.

        ``owner`` is a class (methods) or a module (functions looked up
        through the module's globals).  ``op(args)`` and ``keys(args)``
        extract the optional operation id and link keys from the call's
        positional arguments.
        """
        original = owner.__dict__[attr]
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      threading.get_ident(),
                      op(args) if op is not None else None,
                      keys(args) if keys is not None else None]
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(record)
            stack.append(index)
            record[START] = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped callable (reverse order of wrapping)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines (one record per line)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            records = list(self.spans)
        with path.open("w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")


def read_spans(path) -> list[list]:
    """Inverse of :meth:`SpanRecorder.write`."""
    with Path(path).open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time in seconds (duration minus child durations)."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def assign_to_windows(spans: list[list],
                      windows: list[tuple[float, float]]) -> list[int]:
    """Index of the window holding each span's start, or -1.

    ``windows`` are sorted, non-overlapping ``(start, end)`` op intervals.
    """
    starts = [w[0] for w in windows]
    out = []
    for span in spans:
        i = bisect.bisect_right(starts, span[START]) - 1
        out.append(i if i >= 0 and span[START] < windows[i][1] else -1)
    return out
