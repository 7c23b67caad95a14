"""Golden views: augmentation output pinned to recorded sha256 digests.

The digests were recorded with the per-graph augmentation loop.  Any
change to how views are produced (batched post-processing, a refactored
augmentation) must consume every per-graph PCG64 stream exactly as before
and emit the same bytes, whatever batches the generator produced first.
"""

import hashlib

import numpy as np
import pytest

from repro.augment import (
    AttributeMask,
    EdgePerturb,
    FeatureColumnDrop,
    Identity,
    NodeDrop,
    SubgraphSample,
)
from repro.datasets import load_tu_dataset
from repro.graph import Graph, GraphBatch
from repro.methods.graphcl import default_augmentation
from repro.pipeline import ViewGenerator

#: JOAO-style learned distributions over GraphCL's pool (view 1, view 2).
JOAO_WEIGHTS = ([0.1, 0.4, 0.2, 0.3], [0.35, 0.05, 0.25, 0.35])

#: Single augmentations, applied to every graph of both views.
SINGLE = {"node_drop": lambda: NodeDrop(0.3),
          "edge_perturb": lambda: EdgePerturb(0.4),
          "edge_drop": lambda: EdgePerturb(0.3, add_edges=False),
          "attr_mask": lambda: AttributeMask(0.3),
          "column_drop": lambda: FeatureColumnDrop(0.3),
          "subgraph": lambda: SubgraphSample(0.6),
          "identity": Identity}

#: (pool, root, counter) -> (sha256 of both views, choice1, choice2).
GOLDEN = {
    ("graphcl", 123, 0): (
        "20052d343d72d6d35848d6739b1be36c"
        "ecd04672f60708bf8941d851cdfea00c", 2, 2),
    ("graphcl", 2 ** 62 + 11, 5): (
        "3965228dbe757c691580be225e1bf957"
        "e287976d9bf13a88a50d58d6fff4fc6b", 2, 2),
    ("joao", 123, 0): (
        "4cfb1c27f6d4fc06c5ec39bb125f8ca9"
        "54d13072ba705891bf4307566555c767", 3, 3),
    ("joao", 77, 3): (
        "4b94791c3fcc003515c99980e84ac930"
        "bedd7aa3e9f11c9d82a83b46efb9b1fc", 1, 0),
    ("node_drop", 123, 0): (
        "a79f4204653d33ccd2b332204c76fff5"
        "6fa1d8b059ba4819161a12a76b811b7d", None, None),
    ("edge_perturb", 123, 0): (
        "13c1954518516ae69280d2fa2b4837b0"
        "a7b5ef88307d61b5225a4a4eaa5aa6d1", None, None),
    ("edge_drop", 123, 0): (
        "af0b202917c9ec3d9f399f0968f91312"
        "3013b8f4adc322047cf77fe336544223", None, None),
    ("attr_mask", 123, 0): (
        "bb57ea3293323f23f5d7491372bed547"
        "2e1756960d9d273c7dc1516db85f33b5", None, None),
    ("column_drop", 123, 0): (
        "2b278f58b455d0b196b72a545a9f38a9"
        "f4116c6b983a429bb988e793dc333253", None, None),
    ("subgraph", 123, 0): (
        "16583f258bb128eddf0db6c29088a586"
        "2340106abd03e547ed3127e48a6ba2d6", None, None),
    ("identity", 123, 0): (
        "2ed844b3ddafe04ec639f414714fc2f7"
        "c43eed04899a7d0f4d4a681a200389a5", None, None),
}


def golden_batch() -> GraphBatch:
    """MUTAG graphs plus the degenerate shapes augmentations must handle."""
    graphs = list(load_tu_dataset("MUTAG", scale="tiny", seed=0).graphs[:16])
    rng = np.random.default_rng(5)
    star = np.stack([np.zeros(8, dtype=np.int64), np.arange(1, 9)], axis=1)
    graphs[3:3] = [Graph(1, np.empty((0, 2)), rng.normal(size=(1, 8)), y=0),
                   Graph(4, np.empty((0, 2)), rng.normal(size=(4, 8)), y=1),
                   Graph(9, star, rng.normal(size=(9, 8)), y=0)]
    graphs.append(Graph(5, [[1, 3]], rng.normal(size=(5, 8)), y=1))
    return GraphBatch(graphs)


def make_pools(pool: str):
    if pool in SINGLE:
        return SINGLE[pool](), None
    if pool == "graphcl":
        return default_augmentation(), None
    first, second = default_augmentation(), default_augmentation()
    first.set_probabilities(JOAO_WEIGHTS[0])
    second.set_probabilities(JOAO_WEIGHTS[1])
    return first, second


def digest(pair) -> str:
    sha = hashlib.sha256()
    for view in (pair.view1, pair.view2):
        for array in (view.x, view.edges, view.node_offsets):
            sha.update(str((array.dtype.str, array.shape)).encode())
            sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def generate(pool: str, root: int, counter: int, warmup: int):
    """The golden batch's views at ``counter``, after ``warmup`` batches.

    The warm-up batches reuse the golden graphs in reverse order, so any
    state an augmentation kept from them (a cached structure, a stale
    choice) would show up in the digest.
    """
    augmentation, augmentation2 = make_pools(pool)
    generator = ViewGenerator(augmentation, augmentation2, root=root)
    for _ in range(warmup):
        generator.generate(GraphBatch(golden_batch().graphs[::-1]))
    generator.counter = counter
    pair = generator.generate(golden_batch())
    return (digest(pair),
            getattr(generator.augmentation, "last_choice", None),
            getattr(generator.augmentation2, "last_choice", None))


@pytest.mark.parametrize("warmup", [0, 2])
@pytest.mark.parametrize("case", sorted(GOLDEN, key=str))
def test_views_match_golden_digest(case, warmup):
    assert generate(*case, warmup) == GOLDEN[case]
