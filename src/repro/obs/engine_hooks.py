"""Tensor-engine instrumentation counters.

The autodiff engine in :mod:`repro.tensor.tensor` calls into the module
singleton :data:`ENGINE` from its two hot entry points: ``Tensor._make``
(every interior graph node) and ``Tensor.backward`` (every reverse sweep).
Both call sites guard on ``ENGINE.enabled`` — a single attribute load — so
the disabled-mode cost is far below the <5% smoke-train budget; the import
direction is strictly ``tensor -> obs`` (this module touches nothing of the
engine), so there is no cycle.

Counters tracked while enabled:

* ``ops`` — forward graph nodes created;
* ``bytes_allocated`` — cumulative output-array bytes of those nodes;
* ``peak_ndarray_bytes`` — largest single output allocation;
* ``backward_sweeps`` / ``backward_nodes`` — reverse passes and the total
  node count they visited;
* ``dispatch`` — per-op registry dispatch counts keyed ``"<op>.<impl>"``
  (e.g. ``"linear.fused"``), recorded by :func:`repro.tensor.registry.call`.

Use :func:`engine_stats` to enable collection for a scoped region::

    with engine_stats() as engine:
        Trainer(method, GraphSteps(graphs), epochs=20).fit()
    journal.log("engine", **engine.snapshot())
"""

from __future__ import annotations

import contextlib

__all__ = ["EngineStats", "ENGINE", "engine_stats"]


class EngineStats:
    """Cheap op/byte/backward counters for the autodiff engine."""

    __slots__ = ("enabled", "ops", "bytes_allocated", "peak_ndarray_bytes",
                 "backward_sweeps", "backward_nodes", "dispatch")

    def __init__(self):
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        self.ops = 0
        self.bytes_allocated = 0
        self.peak_ndarray_bytes = 0
        self.backward_sweeps = 0
        self.backward_nodes = 0
        self.dispatch = {}

    # Called from Tensor._make; keep it branch-light.
    def record_op(self, nbytes: int) -> None:
        self.ops += 1
        self.bytes_allocated += nbytes
        if nbytes > self.peak_ndarray_bytes:
            self.peak_ndarray_bytes = nbytes

    # Called from registry.call with the registry op name and the
    # implementation ("fused" / "reference") dispatch resolved to.
    def record_dispatch(self, name: str, which: str) -> None:
        key = f"{name}.{which}"
        self.dispatch[key] = self.dispatch.get(key, 0) + 1

    # Called once per Tensor.backward with the topo-sorted node count.
    def record_backward(self, num_nodes: int) -> None:
        self.backward_sweeps += 1
        self.backward_nodes += num_nodes

    def snapshot(self) -> dict:
        return {"ops": self.ops,
                "bytes_allocated": self.bytes_allocated,
                "peak_ndarray_bytes": self.peak_ndarray_bytes,
                "backward_sweeps": self.backward_sweeps,
                "backward_nodes": self.backward_nodes,
                "dispatch": dict(self.dispatch)}


ENGINE = EngineStats()


@contextlib.contextmanager
def engine_stats(enabled: bool = True):
    """Reset and (optionally) enable the engine counters for a region.

    Yields :data:`ENGINE`; restores the previous enabled flag on exit but
    keeps the collected counters readable afterwards.  ``enabled=False``
    makes the whole block a no-op, which lets instrumented code keep one
    code path for telemetry-on and telemetry-off runs.
    """
    if not enabled:
        yield ENGINE
        return
    previous = ENGINE.enabled
    ENGINE.reset()
    ENGINE.enabled = True
    try:
        yield ENGINE
    finally:
        ENGINE.enabled = previous
