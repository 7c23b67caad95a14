"""Fault tolerance: deadlines, retries, and deterministic chaos injection.

The robustness layer the serving/evaluation/training stacks build on:

* :mod:`repro.faults.deadline` — :class:`Deadline` (the only place in the
  library allowed to do ``time.monotonic()`` arithmetic; lint rule 8) and
  :class:`RetryPolicy` (capped exponential backoff + deterministic jitter,
  honoring ``Retry-After``);
* :mod:`repro.faults.plan` — :class:`FaultPlan`, a seeded, replayable
  fault-injection harness with named points (``serve.forward``,
  ``eval.repeat``, ``train.epoch``) and trigger predicates for
  ``slow`` / ``raise`` / ``kill`` / ``drop`` faults, plus the process-wide
  ``faults.*`` counters (injected / timeouts / respawns / retries).

See ``docs/robustness.md`` for the fault model and the chaos CI recipe
(``make chaos`` / CI tier f).
"""

from .deadline import (
    DEFAULT_DEADLINE_MS,
    DEFAULT_POOL_RECOVER_S,
    Deadline,
    RetryPolicy,
    default_deadline_ms,
    default_forward_timeout_ms,
    default_pool_recover_s,
)
from .plan import (
    FaultInjected,
    FaultPlan,
    FaultRule,
    activate,
    active_plan,
    counters_snapshot,
    deactivate,
    inject,
    record,
    reset_counters,
    use_fault_plan,
)

__all__ = [
    "Deadline", "RetryPolicy",
    "DEFAULT_DEADLINE_MS", "DEFAULT_POOL_RECOVER_S",
    "default_deadline_ms", "default_forward_timeout_ms",
    "default_pool_recover_s",
    "FaultInjected", "FaultPlan", "FaultRule",
    "activate", "active_plan", "deactivate", "use_fault_plan", "inject",
    "record", "counters_snapshot", "reset_counters",
]
