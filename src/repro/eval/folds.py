"""Per-repeat cross-validation layout for the fast evaluation engine.

:func:`plan_folds` decides, from label bincounts alone, which folds the
reference protocol would fit and which of those see every class in their
training split.  The engine standardizes each fold it fits with the
reference's own :func:`repro.eval.protocol.standardize`, so no per-fold
statistics live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FoldPlan", "plan_folds"]


@dataclass
class FoldPlan:
    """Per-repeat cross-validation layout.

    Attributes
    ----------
    folds:
        The shuffled fold index arrays (held-out split of each cell).
    valid:
        Positions of folds whose *training* complement has at least two
        classes; the reference protocol silently skips the rest.
    covered:
        ``(len(valid),)`` bool; True when the fold's training split
        contains every global class.  Folds with partial coverage train
        a smaller classifier in the reference path and are solved there.
    """

    folds: list[np.ndarray]
    valid: list[int]
    covered: np.ndarray

    @property
    def skipped(self) -> int:
        """Folds dropped because their training split was single-class."""
        return len(self.folds) - len(self.valid)

    def train_indices(self, position: int) -> np.ndarray:
        """Reference-ordered training indices of fold ``position``.

        Concatenates the other folds in fold order: the exact array (and
        row order) the reference path builds.
        """
        return np.concatenate([f for j, f in enumerate(self.folds)
                               if j != position])


def plan_folds(class_ids: np.ndarray, fold_list: list[np.ndarray],
               num_classes: int) -> FoldPlan:
    """Build the :class:`FoldPlan` for one repeat's folds.

    ``class_ids`` are dense label indices (``np.unique`` inverse) over all
    ``n`` rows; validity of a fold means its training complement still
    contains at least two classes, computed from bincount differences and
    matching the reference's ``len(np.unique(labels[train_idx])) < 2``
    skip rule exactly.
    """
    total_counts = np.bincount(class_ids, minlength=num_classes)
    valid = []
    full_cover = []
    for i, fold in enumerate(fold_list):
        train_counts = total_counts - np.bincount(class_ids[fold],
                                                  minlength=num_classes)
        present = train_counts > 0
        if present.sum() >= 2:
            valid.append(i)
            full_cover.append(bool(present.all()))
    return FoldPlan(folds=fold_list, valid=valid,
                    covered=np.asarray(full_cover, dtype=bool))
