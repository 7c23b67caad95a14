"""Deterministic per-graph RNG streams for the augmentation pipeline.

A batch's views must depend only on the pipeline root and the batch
counter, never on the order graphs are processed in.  That rules out
sharing one sequential generator across graphs, so every (batch, view,
graph) triple gets its own independent PCG64 stream derived through
:class:`numpy.random.SeedSequence`:

* one ``SeedSequence((root, batch_counter, view))`` per view per batch
  yields 128 bits of entropy per graph via ``generate_state`` — a single
  cheap call instead of one ``SeedSequence`` object per graph;
* each graph's 128-bit key seeds a fresh ``PCG64`` generator.

Because a stream depends only on ``(root, counter, view, index)``,
post-processing a whole batch at once consumes randomness exactly as the
per-graph loop did (``tests/pipeline/test_golden_views.py`` pins it).

This module (together with :mod:`repro.utils.seed`) is one of the two
sanctioned homes for ``np.random.*`` constructor calls in the library;
``scripts/lint_repro.py`` flags bare global-RNG use anywhere else under
``src/`` because it silently breaks the view determinism contract.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spawn_root", "view_stream_keys", "stream_from_key"]

#: Root seeds are drawn below 2**63 so they stay exact int64 values.
_ROOT_SPAN = 2 ** 63


def spawn_root(rng: np.random.Generator) -> int:
    """Draw a pipeline root seed from an existing generator.

    Consuming exactly one draw keeps any initialization that happened
    before the pipeline was attached (encoder weights, projector weights)
    byte-identical to the pre-pipeline era.
    """
    return int(rng.integers(0, _ROOT_SPAN))


def view_stream_keys(root: int, counter: int, view: int,
                     count: int) -> np.ndarray:
    """128-bit stream keys for every graph of one view of one batch.

    Returns a ``(count, 2)`` uint64 array; row ``i`` is graph ``i``'s key.
    """
    seq = np.random.SeedSequence((root, counter, view))
    return seq.generate_state(2 * max(count, 1),
                              dtype=np.uint64).reshape(-1, 2)[:count]


def stream_from_key(key: np.ndarray) -> np.random.Generator:
    """Fresh PCG64 generator for one 128-bit key row of ``view_stream_keys``."""
    seed = (int(key[0]) << 64) | int(key[1])
    return np.random.Generator(np.random.PCG64(seed))
