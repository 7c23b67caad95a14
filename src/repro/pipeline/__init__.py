"""Input pipeline: batched and parallel augmentation + diffusion cache.

Four cooperating pieces speed up the data side of training without
changing a single number:

* :mod:`~repro.pipeline.seeding` — per-graph ``SeedSequence``-derived
  PCG64 streams, the determinism backbone;
* :mod:`~repro.pipeline.workers` — :class:`ViewGenerator`, serial or
  fork-pool view generation (per-graph draws, chunk-wide batched
  post-processing) that is bit-identical at every worker count;
* :mod:`~repro.pipeline.prefetch` — :class:`PrefetchLoader`,
  double-buffering the next batch's views during the optimizer step;
* :mod:`~repro.pipeline.cache` — :class:`StructureCache`, a bounded LRU
  over MVGRL's PPR / heat diffusion reused across epochs.

See ``docs/performance.md`` for the knobs and the determinism contract.
"""

from .cache import (
    StructureCache,
    active_structure_cache,
    invalidate_structure,
    structure_fingerprint,
    use_structure_cache,
)
from .prefetch import PrefetchLoader
from .seeding import spawn_root, stream_from_key, view_stream_keys
from .workers import ViewGenerator, ViewPair, resolve_workers

__all__ = [
    "StructureCache",
    "active_structure_cache",
    "invalidate_structure",
    "structure_fingerprint",
    "use_structure_cache",
    "PrefetchLoader",
    "spawn_root",
    "stream_from_key",
    "view_stream_keys",
    "ViewGenerator",
    "ViewPair",
    "resolve_workers",
]
