"""Deadline and retry policy: the repo's single source of timeout truth.

Every subsystem that bounds a wait — the micro-batcher's per-request
deadline, the serving client's retry loop, the fork pool's crash-recovery
timeout — expresses it through a :class:`Deadline` or a
:class:`RetryPolicy` from this module.  ``scripts/lint_repro.py`` (rule 8)
bans bare ``time.monotonic()`` arithmetic everywhere else in the library,
so there is exactly one place where "how long is left" can be computed,
tested, and reasoned about.

Defaults are environment-tunable:

* ``REPRO_DEADLINE_MS`` — per-request serving deadline (default 30000);
* ``REPRO_FORWARD_TIMEOUT_MS`` — watchdog threshold for a hung forward
  (default: the request deadline);
* ``REPRO_POOL_RECOVER_S`` — how long :func:`~repro.pipeline.pool.fork_map`
  waits on one item before declaring its worker dead and replaying the
  item in-process (default 60).

:class:`RetryPolicy` implements capped exponential backoff with
deterministic (seedable) jitter and honors server-provided ``Retry-After``
hints; jitter draws from :mod:`random` (never the global numpy RNG, which
the determinism lint bans).
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass

__all__ = ["Deadline", "RetryPolicy", "DEFAULT_DEADLINE_MS",
           "DEFAULT_POOL_RECOVER_S", "default_deadline_ms",
           "default_forward_timeout_ms", "default_pool_recover_s"]

DEFAULT_DEADLINE_MS = 30_000.0
DEFAULT_POOL_RECOVER_S = 60.0


def _env_float(name: str, fallback: float) -> float:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    value = float(raw)
    if not 0 < value < math.inf:       # NaN fails the comparison too
        raise ValueError(f"{name} must be finite and positive, got {raw!r}")
    return value


def default_deadline_ms() -> float:
    """Per-request serving deadline (``REPRO_DEADLINE_MS``)."""
    return _env_float("REPRO_DEADLINE_MS", DEFAULT_DEADLINE_MS)


def default_forward_timeout_ms() -> float:
    """Hung-forward watchdog threshold (``REPRO_FORWARD_TIMEOUT_MS``).

    Defaults to the request deadline: a forward that outlives every
    deadline that could be waiting on it is hung by definition.
    """
    return _env_float("REPRO_FORWARD_TIMEOUT_MS", default_deadline_ms())


def default_pool_recover_s() -> float:
    """Fork-pool item recovery timeout (``REPRO_POOL_RECOVER_S``)."""
    return _env_float("REPRO_POOL_RECOVER_S", DEFAULT_POOL_RECOVER_S)


class Deadline:
    """A monotonic point in time that waits can be bounded against.

    All ``time.monotonic()`` arithmetic in the library happens here.  A
    deadline is cheap (one slot), comparison-free to pass around, and
    composes: the remaining budget of an outer request bounds each inner
    wait (queue admission, ``Event.wait``, socket timeout).
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float):
        self.expires_at = float(expires_at)

    @classmethod
    def after(cls, seconds: float | None) -> "Deadline":
        """A deadline ``seconds`` from now; ``None`` never expires."""
        if seconds is None:
            return cls.never()
        return cls(time.monotonic() + float(seconds))

    @classmethod
    def after_ms(cls, ms: float | None) -> "Deadline":
        """A deadline ``ms`` milliseconds from now; ``None`` never expires."""
        if ms is None:
            return cls.never()
        return cls(time.monotonic() + float(ms) / 1000.0)

    @classmethod
    def never(cls) -> "Deadline":
        return cls(math.inf)

    def remaining(self) -> float:
        """Seconds left (clamped at 0; ``inf`` for a never-deadline)."""
        if math.isinf(self.expires_at):
            return math.inf
        return max(0.0, self.expires_at - time.monotonic())

    def remaining_or_none(self) -> float | None:
        """Seconds left, or ``None`` for a never-deadline — the form
        ``Event.wait`` / ``Queue.get`` accept as their timeout."""
        remaining = self.remaining()
        return None if math.isinf(remaining) else remaining

    def expired(self) -> bool:
        return self.remaining() == 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if math.isinf(self.expires_at):
            return "Deadline(never)"
        return f"Deadline(remaining={self.remaining():.3f}s)"


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``delay(attempt)`` for attempts ``0, 1, 2, ...`` grows as
    ``base_delay * multiplier**attempt`` capped at ``max_delay``, then a
    jitter fraction of the delay is randomized (full-jitter style on that
    fraction) so synchronized clients do not retry in lockstep.  A
    server-provided ``retry_after`` hint is a *floor*: the client never
    comes back sooner than the server asked.

    The jitter RNG is owned by the policy (seedable for reproducible
    tests) and is :mod:`random`, not numpy — the global-numpy-RNG lint
    applies to the whole library.
    """

    retries: int = 4
    base_delay: float = 0.1
    max_delay: float = 5.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int | None = None

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError(
                f"need 0 <= base_delay <= max_delay, got "
                f"{self.base_delay}/{self.max_delay}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        object.__setattr__(self, "_rng", random.Random(self.seed))

    def delay(self, attempt: int,
              retry_after: float | None = None) -> float:
        """Backoff before retry ``attempt`` (0-based), in seconds."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        base = min(self.base_delay * self.multiplier ** attempt,
                   self.max_delay)
        jittered = base * (1.0 - self.jitter * self._rng.random())
        if retry_after is not None:
            jittered = max(jittered, float(retry_after))
        return jittered
