"""Embedding inference service: the serving half of the roadmap.

Training produces a checkpoint; this package turns it into embeddings on
demand.  Four layers, stdlib+numpy only:

* :mod:`repro.serve.encoder` — :class:`FrozenEncoder`: rebuild the method
  from a run directory's ``config.json``, reinstall parameters and
  BatchNorm running statistics from the PR-4 checkpoint, pin eval mode,
  disable gradients, and expose batched block-diagonal ``embed``;
* :mod:`repro.serve.batcher` — :class:`MicroBatcher`: coalesce the
  requests that queue during a forward into the next one (up to
  ``max_batch_size`` graphs, with no wait window), shedding load with
  :class:`ServiceOverloaded` when the bounded queue fills, failing requests that miss their deadline with
  :class:`ServiceTimeout`, and tombstoning hung forwards via a watchdog
  (see ``docs/robustness.md``);
* :mod:`repro.serve.client` — :class:`ServingClient`: the retrying HTTP
  client (capped exponential backoff + jitter, honors ``Retry-After``)
  behind ``repro embed --remote`` and the serving bench;
* :mod:`repro.serve.cache` — :class:`EmbeddingCache`: LRU keyed on the
  blake2b structure+feature :func:`content_fingerprint`, so repeated
  graphs skip the forward entirely;
* :mod:`repro.serve.http` / :mod:`repro.serve.service` — the
  :class:`EmbeddingService` request path and the threaded HTTP front end
  (``/embed``, ``/healthz``, ``/metrics``) behind ``repro serve``.

The determinism contract: a graph's served embedding is bit-identical to
the offline ``repro embed`` output (:func:`embed_dataset`) at every
concurrency level, batch composition, and arrival order — enforced by
``tests/serve`` and CI tier e.
"""

from .batcher import MicroBatcher, ServiceOverloaded, ServiceTimeout
from .bulk import embed_dataset
from .cache import EmbeddingCache, content_fingerprint
from .client import RetriesExhausted, ServingClient, embed_remote
from .encoder import CheckpointMismatch, FrozenEncoder
from .http import (
    EmbeddingHTTPServer,
    graph_from_payload,
    install_drain_handler,
    make_server,
    payload_from_graph,
)
from .service import EmbeddingService

__all__ = [
    "FrozenEncoder", "CheckpointMismatch",
    "MicroBatcher", "ServiceOverloaded", "ServiceTimeout",
    "ServingClient", "RetriesExhausted", "embed_remote",
    "EmbeddingCache", "content_fingerprint",
    "EmbeddingService", "EmbeddingHTTPServer", "make_server",
    "install_drain_handler",
    "graph_from_payload", "payload_from_graph",
    "embed_dataset",
]
