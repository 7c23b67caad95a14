"""Feature-level augmentations: attribute masking and column dropping."""

from __future__ import annotations

import numpy as np

from ..graph import Graph
from .base import BatchedAugmentation, ViewArrays

__all__ = ["AttributeMask", "FeatureColumnDrop"]


class AttributeMask(BatchedAugmentation):
    """Zero out a random fraction of per-node feature entries.

    GraphCL's attribute-masking operator; GRACE uses the column variant
    (:class:`FeatureColumnDrop`).
    """

    name = "attr_mask"

    def __init__(self, mask_ratio: float = 0.2):
        if not 0.0 <= mask_ratio < 1.0:
            raise ValueError(f"mask_ratio must be in [0, 1), got {mask_ratio}")
        self.mask_ratio = mask_ratio

    def draw(self, graph: Graph, rng: np.random.Generator) -> np.ndarray:
        return rng.random(graph.x.shape) < self.mask_ratio

    def apply(self, views: ViewArrays, plans: list) -> None:
        views.zero_features(plans)


class FeatureColumnDrop(BatchedAugmentation):
    """Zero entire feature columns (GRACE/GCA-style feature masking)."""

    name = "feature_column_drop"

    def __init__(self, drop_ratio: float = 0.2):
        if not 0.0 <= drop_ratio < 1.0:
            raise ValueError(f"drop_ratio must be in [0, 1), got {drop_ratio}")
        self.drop_ratio = drop_ratio

    def draw(self, graph: Graph, rng: np.random.Generator) -> np.ndarray:
        return rng.random(graph.x.shape[1]) < self.drop_ratio

    def apply(self, views: ViewArrays, plans: list) -> None:
        views.zero_features(plans)
