"""Graph augmentations: structural, feature-level, adaptive, encoder-level."""

from .base import Augmentation, BatchedAugmentation, Identity, ViewArrays
from .structural import EdgePerturb, NodeDrop, SubgraphSample
from .features import AttributeMask, FeatureColumnDrop
from .compose import Compose, RandomChoice
from .adaptive import AdaptiveEdgeDrop, AdaptiveFeatureMask
from .encoder_perturb import perturbed_copy

__all__ = [
    "Augmentation", "BatchedAugmentation", "Identity", "ViewArrays",
    "NodeDrop", "EdgePerturb", "SubgraphSample",
    "AttributeMask", "FeatureColumnDrop",
    "Compose", "RandomChoice",
    "AdaptiveEdgeDrop", "AdaptiveFeatureMask",
    "perturbed_copy",
]
