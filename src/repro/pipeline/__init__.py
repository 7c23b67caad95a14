"""Input pipeline: batched augmentation, fork pool and diffusion cache.

Four cooperating pieces speed up the data side of training and
evaluation without changing a single number:

* :mod:`~repro.pipeline.seeding` — per-graph ``SeedSequence``-derived
  PCG64 streams, the determinism backbone;
* :mod:`~repro.pipeline.workers` — :class:`ViewGenerator`, in-process
  view generation (per-graph draws, batch-wide post-processing);
* :mod:`~repro.pipeline.pool` — :func:`~repro.pipeline.pool.fork_map`, the
  fork pool with crash replay that parallelizes evaluation repeats;
* :mod:`~repro.pipeline.cache` — :class:`LRU`, the one bounded LRU, and
  :class:`StructureCache`, its subclass over MVGRL's PPR / heat
  diffusion reused across epochs.

See ``docs/performance.md`` for the knobs and the determinism contract.
"""

from .cache import (
    LRU,
    StructureCache,
    active_structure_cache,
    structure_fingerprint,
    use_structure_cache,
)
from .seeding import spawn_root, stream_from_key, view_stream_keys
from .workers import ViewGenerator, ViewPair

__all__ = [
    "LRU",
    "StructureCache",
    "active_structure_cache",
    "structure_fingerprint",
    "use_structure_cache",
    "spawn_root",
    "stream_from_key",
    "view_stream_keys",
    "ViewGenerator",
    "ViewPair",
]
