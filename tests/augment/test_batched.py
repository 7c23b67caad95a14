"""Batched augmentation == the per-graph reference, byte for byte.

The oracles below are the per-graph implementations the batched code
replaced.  A chunk of hostile graphs (edge-less, single-node, isolated
nodes, stars, unsorted and non-canonical edge lists) goes through
``_apply_chunk`` and through the oracle graph by graph, each graph on its
own stream; the two batches must match exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.augment import (
    AttributeMask,
    EdgePerturb,
    FeatureColumnDrop,
    Identity,
    NodeDrop,
    RandomChoice,
    SubgraphSample,
)
from repro.graph import Graph, GraphBatch
from repro.pipeline import stream_from_key, view_stream_keys
from repro.pipeline.workers import _apply_chunk


def oracle_node_drop(aug, graph, rng):
    n = graph.num_nodes
    keep_count = max(1, int(round(n * (1.0 - aug.drop_ratio))))
    return graph.subgraph(rng.choice(n, size=keep_count, replace=False))


def oracle_edge_perturb(aug, graph, rng):
    out = graph.copy()
    m = graph.num_edges
    if m == 0:
        return out
    num_changed = int(round(m * aug.perturb_ratio))
    if num_changed == 0:
        return out
    keep_mask = np.ones(m, dtype=bool)
    keep_mask[rng.choice(m, size=num_changed, replace=False)] = False
    kept = graph.edges[keep_mask]
    if aug.add_edges and graph.num_nodes > 1:
        n = graph.num_nodes
        proposals = rng.integers(0, n, size=(20 * num_changed, 2))
        lo, hi = proposals.min(axis=1), proposals.max(axis=1)
        keys = (lo * n + hi)[lo != hi]
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
        existing = graph.edges.min(axis=1) * n + graph.edges.max(axis=1)
        keys = keys[~np.isin(keys, existing)][:num_changed]
        if len(keys):
            kept = np.concatenate(
                [kept, np.stack([keys // n, keys % n], axis=1)])
    out.edges = Graph.canonical_edges(kept)
    return out


def oracle_attribute_mask(aug, graph, rng):
    out = graph.copy()
    out.x = np.where(rng.random(out.x.shape) < aug.mask_ratio, 0.0, out.x)
    return out


def oracle_column_drop(aug, graph, rng):
    out = graph.copy()
    cols = rng.random(out.x.shape[1]) < aug.drop_ratio
    out.x[:, cols] = 0.0
    return out


def oracle_subgraph(aug, graph, rng):
    n = graph.num_nodes
    target = max(1, int(round(n * aug.keep_ratio)))
    neighbors = [[] for _ in range(n)]
    for u, v in graph.edges.tolist():
        neighbors[u].append(v)
        neighbors[v].append(u)
    visited = np.zeros(n, dtype=bool)
    start = int(rng.integers(0, n))
    visited[start] = True
    frontier = [start]
    while visited.sum() < target:
        if not frontier:
            fresh = int(rng.choice(np.flatnonzero(~visited)))
            visited[fresh] = True
            frontier.append(fresh)
            continue
        current = frontier[int(rng.integers(0, len(frontier)))]
        adjacent = np.array(neighbors[current], dtype=np.int64)
        options = adjacent[~visited[adjacent]]
        if not len(options):
            frontier.remove(current)
            continue
        nxt = int(options[int(rng.integers(0, len(options)))])
        visited[nxt] = True
        frontier.append(nxt)
    return graph.subgraph(np.flatnonzero(visited))


ORACLES = {NodeDrop: oracle_node_drop, EdgePerturb: oracle_edge_perturb,
           AttributeMask: oracle_attribute_mask,
           FeatureColumnDrop: oracle_column_drop,
           SubgraphSample: oracle_subgraph,
           Identity: lambda aug, graph, rng: graph.copy()}


def oracle(aug, graph, rng):
    if isinstance(aug, RandomChoice):
        index = int(np.searchsorted(aug._cdf, rng.random(), side="right"))
        aug = aug.augmentations[index]
    return ORACLES[type(aug)](aug, graph, rng)


AUGMENTATIONS = {
    "node_drop": lambda: NodeDrop(0.4),
    "edge_perturb": lambda: EdgePerturb(0.5),
    "edge_drop": lambda: EdgePerturb(0.3, add_edges=False),
    "attr_mask": lambda: AttributeMask(0.3),
    "column_drop": lambda: FeatureColumnDrop(0.4),
    "subgraph": lambda: SubgraphSample(0.5),
    "identity": Identity,
    "choice": lambda: RandomChoice(
        [NodeDrop(0.2), EdgePerturb(0.2), AttributeMask(0.2),
         SubgraphSample(0.8), FeatureColumnDrop(0.2)],
        [0.3, 0.3, 0.1, 0.2, 0.1]),
}


@st.composite
def hostile_graph(draw):
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "edgeless", "star", "raw"]))
    if kind == "edgeless" or n == 1:
        edges = np.empty((0, 2), dtype=np.int64)
    elif kind == "star":
        edges = np.stack([np.zeros(n - 1, dtype=np.int64),
                          np.arange(1, n)], axis=1)
    else:
        iu = np.triu_indices(n, k=1)
        mask = rng.random(len(iu[0])) < draw(st.floats(0.0, 1.0))
        edges = np.stack([iu[0][mask], iu[1][mask]], axis=1)
        if kind == "raw":
            # Unsorted, some reversed: a legal but non-canonical list.
            edges = edges[rng.permutation(len(edges))]
            flip = rng.random(len(edges)) < 0.5
            edges[flip] = edges[flip][:, ::-1]
    return Graph(n, edges, rng.normal(size=(n, 3)),
                 y=draw(st.sampled_from([None, 0, 1])))


def assert_same_batch(a: GraphBatch, b: GraphBatch):
    for name in ("x", "edges", "node_offsets", "labels"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype and left.shape == right.shape, name
        assert left.tobytes() == right.tobytes(), name


@pytest.mark.parametrize("name", sorted(AUGMENTATIONS))
@settings(max_examples=40, deadline=None)
@given(graphs=st.lists(hostile_graph(), min_size=1, max_size=8),
       root=st.integers(0, 2 ** 62))
def test_chunk_matches_per_graph_reference(name, graphs, root):
    keys = view_stream_keys(root, 0, 1, len(graphs))
    views = _apply_chunk(AUGMENTATIONS[name](), graphs, keys)
    aug = AUGMENTATIONS[name]()
    expected = GraphBatch([oracle(aug, graph, stream_from_key(key))
                           for graph, key in zip(graphs, keys)])
    assert_same_batch(views.to_batch(), expected)


@pytest.mark.parametrize("name", sorted(AUGMENTATIONS))
def test_single_graph_call_keeps_labels_and_node_labels(name):
    rng = np.random.default_rng(0)
    graph = Graph(6, [[0, 1], [1, 2], [3, 4]], rng.normal(size=(6, 3)), y=1,
                  node_y=np.arange(6) * 10)
    key = view_stream_keys(5, 0, 1, 1)[0]
    out = AUGMENTATIONS[name]()(graph, stream_from_key(key))
    ref = oracle(AUGMENTATIONS[name](), graph, stream_from_key(key))
    assert out.y == ref.y == 1
    np.testing.assert_array_equal(out.node_y, ref.node_y)
    np.testing.assert_array_equal(out.edges, ref.edges)
    np.testing.assert_array_equal(out.x, ref.x)
    assert out.x is not graph.x and out.edges is not graph.edges
