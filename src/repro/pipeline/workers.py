"""Deterministic two-view generation for the GraphCL family.

:class:`ViewGenerator` owns view generation for GraphCL-family methods.
Each ``(batch, view, graph)`` gets its own PCG64 stream (see
:mod:`repro.pipeline.seeding`), so a batch's views depend only on the
pipeline root and the batch counter, never on iteration order.  Views are
generated in-process: a :class:`~repro.augment.base.BatchedAugmentation`
draws graph by graph, then post-processes the whole batch at once as
:class:`~repro.augment.base.ViewArrays`; the view batches are assembled
straight from those arrays.

Generation runs on the method's own augmentation objects, so JOAO's
post-loss read of ``RandomChoice.last_choice`` sees the batch's last pick
directly.
"""

from __future__ import annotations

from ..augment.base import ViewArrays
from ..graph.batch import GraphBatch
from .seeding import stream_from_key, view_stream_keys

__all__ = ["ViewGenerator", "ViewPair"]


def _apply_chunk(augmentation, graphs, keys) -> ViewArrays:
    """Augment a run of graphs, each under its own stream.

    Batched augmentations draw graph by graph, in order, then
    post-process the whole chunk at once; any other callable runs per
    graph.
    """
    if getattr(augmentation, "batched", False):
        views = ViewArrays(graphs)
        augmentation.apply(views, [
            augmentation.draw(graph, stream_from_key(key))
            for graph, key in zip(graphs, keys)])
        return views
    return ViewArrays([augmentation(graph, stream_from_key(key))
                       for graph, key in zip(graphs, keys)])


class ViewPair:
    """Two augmented views of one batch."""

    __slots__ = ("view1", "view2")

    def __init__(self, view1: GraphBatch, view2: GraphBatch):
        self.view1 = view1
        self.view2 = view2


class ViewGenerator:
    """Deterministic two-view generator for a batch.

    Parameters
    ----------
    augmentation / augmentation2:
        The per-view augmentation pools; ``augmentation2=None`` shares the
        first (GraphCL's default).
    root:
        Pipeline root seed, normally ``seeding.spawn_root(method_rng)``.
    """

    def __init__(self, augmentation, augmentation2=None, *, root: int):
        self.augmentation = augmentation
        self.augmentation2 = (augmentation2 if augmentation2 is not None
                              else augmentation)
        self.root = int(root)
        self.counter = 0

    def generate(self, batch: GraphBatch) -> ViewPair:
        """Both views of ``batch``; each call advances the batch counter.

        View 1 is generated before view 2, so when both views share one
        ``RandomChoice`` (GraphCL's default) its ``last_choice`` is
        view 2's.
        """
        counter = self.counter
        self.counter += 1
        graphs = list(batch.graphs)
        keys1 = view_stream_keys(self.root, counter, 1, len(graphs))
        keys2 = view_stream_keys(self.root, counter, 2, len(graphs))
        views1 = _apply_chunk(self.augmentation, graphs, keys1)
        views2 = _apply_chunk(self.augmentation2, graphs, keys2)
        return ViewPair(views1.to_batch(), views2.to_batch())
