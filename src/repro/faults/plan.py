"""Deterministic fault injection: named points, trigger predicates, replay.

A :class:`FaultPlan` is a list of :class:`FaultRule` entries, each naming
an **injection point** (a string like ``"serve.forward"`` or
``"eval.repeat"``) and a fault kind:

* ``slow`` — sleep ``delay_s`` at the point (a hung forward, a stalled
  disk);
* ``raise`` — raise :class:`FaultInjected` (a crashing forward, an IO
  error);
* ``kill`` — ``os._exit`` the current process — but **only** inside a
  forked :func:`~repro.pipeline.pool.fork_map` worker; in the parent
  process a ``kill`` rule is inert, so a plan written for
  ``--eval-workers N`` is safe to run serially;
* ``drop`` — return the ``"drop"`` action for the call site to apply (the
  micro-batcher drops the batch's results so waiters must be rescued by
  their deadlines).

Trigger predicates are counted **per point**: the ``n``-th call to
:func:`inject` at a point fires a rule when ``n >= at`` and, with
``every`` set, ``(n - at) % every == 0``, up to ``times`` firings.
``probability`` adds a coin flip drawn from a per-rule PCG-free
:mod:`random` stream seeded from ``(plan.seed, rule index)`` — so a chaos
run replays *exactly* under the same plan, process layout, and request
order.

The active plan is a module global (not a contextvar) on purpose: fork
pool workers inherit it through copy-on-write memory, which is how
``kill`` rules reach the child processes.

Module-level fault counters (``faults.injected`` / ``faults.timeouts`` /
``faults.respawns`` / ``faults.retries``) are the cross-subsystem tally:
the serving stack mirrors them into its :class:`~repro.obs.MetricRegistry`
snapshot and the trainer journals them as a ``metrics`` event (which
journal canonicalization strips, keeping chaos runs bit-comparable to
fault-free ones).
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["FaultInjected", "FaultRule", "FaultPlan", "KINDS",
           "active_plan", "use_fault_plan", "activate", "deactivate",
           "inject", "record", "counters_snapshot", "reset_counters"]

KINDS = ("slow", "raise", "kill", "drop")

#: The cross-subsystem fault tally, journaled/served as ``faults.*``.
COUNTER_NAMES = ("faults.injected", "faults.timeouts", "faults.respawns",
                 "faults.retries")


class FaultInjected(RuntimeError):
    """An injected fault fired (``raise`` rules and their downstream)."""


@dataclass
class FaultRule:
    """One trigger: fire ``kind`` at ``point`` on matching call indices."""

    point: str
    kind: str
    at: int = 1                  # first 1-based call index that can fire
    every: int | None = None     # fire every Nth call from ``at`` onward
    times: int | None = 1        # max firings (None = unlimited)
    probability: float | None = None
    delay_s: float = 0.05        # sleep length for ``slow`` rules
    fired: int = field(default=0, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {KINDS}")
        if self.at < 1:
            raise ValueError(f"at must be >= 1, got {self.at}")
        if self.every is not None and self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if (self.probability is not None
                and not 0.0 < self.probability <= 1.0):
            raise ValueError(
                f"probability must be in (0, 1], got {self.probability}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")

    def matches(self, n: int, rng: random.Random) -> bool:
        """Whether the ``n``-th call at this rule's point fires it."""
        if n < self.at:
            return False
        if self.every is None:
            if n != self.at:
                return False
        elif (n - self.at) % self.every != 0:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        if self.probability is not None and rng.random() >= self.probability:
            return False
        return True

    def to_dict(self) -> dict:
        record = {"point": self.point, "kind": self.kind, "at": self.at}
        if self.every is not None:
            record["every"] = self.every
        record["times"] = self.times
        if self.probability is not None:
            record["probability"] = self.probability
        if self.kind == "slow":
            record["delay_s"] = self.delay_s
        return record


class FaultPlan:
    """A seeded, replayable set of fault rules plus its firing record.

    Thread-safe: the per-point call counters and rule state are guarded by
    one lock, so concurrent injection points (HTTP handler threads, the
    batcher worker) count deterministically *given* a deterministic call
    order.  Forked children each inherit a copy of the plan at fork time;
    their counters then track per-process calls, which is what a
    ``kill``-the-worker rule wants.
    """

    def __init__(self, rules=(), *, seed: int = 0):
        self.rules = [rule if isinstance(rule, FaultRule)
                      else FaultRule(**rule) for rule in rules]
        self.seed = int(seed)
        self.origin_pid = os.getpid()
        self.counters: dict[str, int] = {}
        self._calls: dict[str, int] = {}
        self._lock = threading.Lock()
        # One independent stream per rule (string seeds hash with
        # sha512, stable across processes and python versions).
        self._rngs = [random.Random(f"fault:{self.seed}:{index}")
                      for index in range(len(self.rules))]

    # -- construction --------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(data.get("rules", ()), seed=data.get("seed", 0))

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "rules": [rule.to_dict() for rule in self.rules]}

    def to_file(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    # -- firing --------------------------------------------------------
    def fire(self, point: str) -> FaultRule | None:
        """Count one call at ``point``; return the rule that fires, if any.

        The first matching rule wins (rule order is part of the plan).
        ``kill`` rules are skipped outside forked children so a worker
        plan cannot take down the training process itself.
        """
        with self._lock:
            n = self._calls.get(point, 0) + 1
            self._calls[point] = n
            for rule, rng in zip(self.rules, self._rngs):
                if rule.point != point or not rule.matches(n, rng):
                    continue
                if rule.kind == "kill" and not _in_forked_child():
                    continue
                rule.fired += 1
                key = f"{point}.{rule.kind}"
                self.counters[key] = self.counters.get(key, 0) + 1
                return rule
        return None

    def calls(self, point: str) -> int:
        with self._lock:
            return self._calls.get(point, 0)


def _in_forked_child() -> bool:
    """True inside a multiprocessing child (where ``kill`` may fire)."""
    return multiprocessing.parent_process() is not None


# ----------------------------------------------------------------------
# The active plan (module global so fork children inherit it)
# ----------------------------------------------------------------------

_ACTIVE: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    return _ACTIVE


def activate(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` process-wide; returns the previous plan."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    return previous


def deactivate() -> None:
    activate(None)


@contextlib.contextmanager
def use_fault_plan(plan: FaultPlan | None):
    """Scope a plan to a ``with`` block (tests, the chaos CI tier)."""
    previous = activate(plan)
    try:
        yield plan
    finally:
        activate(previous)


def inject(point: str, metrics=None) -> str | None:
    """The one call an instrumented site makes: maybe fault, else no-op.

    With no active plan this is a dict lookup away from free.  When a rule
    fires, ``slow`` sleeps here, ``raise`` raises :class:`FaultInjected`,
    ``kill`` hard-exits a forked worker, and ``drop`` is returned for the
    caller to apply.  Every firing increments the global
    ``faults.injected`` counter (and ``metrics``' mirror when given).
    """
    plan = _ACTIVE
    if plan is None:
        return None
    rule = plan.fire(point)
    if rule is None:
        return None
    record("injected")
    if metrics is not None:
        metrics.counter("faults.injected").inc()
    if rule.kind == "slow":
        time.sleep(rule.delay_s)
        return "slow"
    if rule.kind == "raise":
        raise FaultInjected(
            f"injected fault at {point!r} (call {plan.calls(point)})")
    if rule.kind == "kill":
        os._exit(17)
    return "drop"


# ----------------------------------------------------------------------
# Cross-subsystem fault counters
# ----------------------------------------------------------------------

_COUNTER_LOCK = threading.Lock()
_COUNTERS: dict[str, int] = {name: 0 for name in COUNTER_NAMES}


def record(kind: str, amount: int = 1) -> None:
    """Bump one of the ``faults.*`` counters (injected/timeouts/respawns/
    retries)."""
    name = f"faults.{kind}"
    if name not in _COUNTERS:
        raise ValueError(f"unknown fault counter {kind!r}; "
                         f"choose from {sorted(_COUNTERS)}")
    with _COUNTER_LOCK:
        _COUNTERS[name] += amount


def counters_snapshot() -> dict[str, int]:
    """Current ``faults.*`` tallies (always all four keys)."""
    with _COUNTER_LOCK:
        return dict(_COUNTERS)


def reset_counters() -> None:
    """Zero the tallies (tests and fresh chaos sessions)."""
    with _COUNTER_LOCK:
        for name in _COUNTERS:
            _COUNTERS[name] = 0
