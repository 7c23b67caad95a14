"""Augmentation combinators: sequencing and (weighted) random choice.

GraphCL samples one augmentation per view uniformly; JOAO replaces the
uniform distribution with a learned one, which it updates through
:meth:`RandomChoice.set_probabilities`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..graph import Graph
from .base import Augmentation

__all__ = ["Compose", "RandomChoice"]


class Compose:
    """Apply augmentations in sequence."""

    def __init__(self, augmentations: Sequence[Augmentation]):
        if not augmentations:
            raise ValueError("Compose needs at least one augmentation")
        self.augmentations = list(augmentations)
        self.name = "+".join(a.name for a in self.augmentations)

    def __call__(self, graph: Graph, rng: np.random.Generator) -> Graph:
        for aug in self.augmentations:
            graph = aug(graph, rng)
        return graph


class RandomChoice:
    """Pick one augmentation per call according to ``probabilities``."""

    def __init__(self, augmentations: Sequence[Augmentation],
                 probabilities: Sequence[float] | None = None):
        if not augmentations:
            raise ValueError("RandomChoice needs at least one augmentation")
        self.augmentations = list(augmentations)
        self.name = "choice(" + "|".join(a.name for a in self.augmentations) + ")"
        if probabilities is None:
            probabilities = np.full(len(self.augmentations),
                                    1.0 / len(self.augmentations))
        self.set_probabilities(probabilities)
        self.last_choice: int | None = None

    def set_probabilities(self, probabilities: Sequence[float]) -> None:
        probabilities = np.asarray(probabilities, dtype=np.float64)
        if len(probabilities) != len(self.augmentations):
            raise ValueError("probability count must match augmentations")
        if (probabilities < 0).any():
            raise ValueError("probabilities must be non-negative")
        total = probabilities.sum()
        if total <= 0:
            raise ValueError("probabilities must not all be zero")
        self.probabilities = probabilities / total
        # Cached inverse-CDF table.  ``rng.choice(k, p=p)`` re-validates and
        # re-accumulates ``p`` on every call, which dominates per-graph
        # augmentation dispatch; searching the cached CDF against a single
        # ``rng.random()`` draw consumes the generator identically.
        self._cdf = self.probabilities.cumsum()
        self._cdf /= self._cdf[-1]

    def _choose(self, rng: np.random.Generator) -> int:
        index = int(np.searchsorted(self._cdf, rng.random(), side="right"))
        self.last_choice = index
        return index

    def __call__(self, graph: Graph, rng: np.random.Generator) -> Graph:
        return self.augmentations[self._choose(rng)](graph, rng)

    @property
    def batched(self) -> bool:
        """Batchable when every member augmentation is."""
        return all(getattr(aug, "batched", False)
                   for aug in self.augmentations)

    def draw(self, graph: Graph, rng: np.random.Generator):
        index = self._choose(rng)
        return index, self.augmentations[index].draw(graph, rng)

    def apply(self, views, plans: list) -> None:
        """Run each member over the graphs that chose it; a member leaves
        every other graph untouched, so the members compose in any order."""
        for index, aug in enumerate(self.augmentations):
            own = [None if plan is None or plan[0] != index else plan[1]
                   for plan in plans]
            if any(plan is not None for plan in own):
                aug.apply(views, own)
