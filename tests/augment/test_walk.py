"""The subgraph walk draws exactly what the plain numpy walk drew.

``oracle_walk`` is the walk as it was written against ``rng.integers`` /
``rng.choice`` before its draws moved to
:class:`repro.utils.seed.RawIntegers`.  On hostile graphs both must pick
the same nodes and leave the stream in the same state.
"""

import numpy as np
import pytest

from repro.augment import SubgraphSample
from repro.graph import Graph


def oracle_walk(keep_ratio, graph, rng):
    n = graph.num_nodes
    target = max(1, int(round(n * keep_ratio)))
    neighbors = [[] for _ in range(graph.num_nodes)]
    for u, v in graph.edges.tolist():
        neighbors[u].append(v)
        neighbors[v].append(u)
    visited = [False] * n
    start = int(rng.integers(0, n))
    visited[start] = True
    num_visited = 1
    frontier = [start]
    while num_visited < target:
        if not frontier:
            remaining = np.flatnonzero(np.logical_not(visited))
            fresh = int(rng.choice(remaining))
            visited[fresh] = True
            num_visited += 1
            frontier.append(fresh)
            continue
        current = frontier[int(rng.integers(0, len(frontier)))]
        options = [v for v in neighbors[current] if not visited[v]]
        if not options:
            frontier.remove(current)
            continue
        nxt = options[int(rng.integers(0, len(options)))]
        visited[nxt] = True
        num_visited += 1
        frontier.append(nxt)
    return np.flatnonzero(visited)


def _graph(n, edges):
    return Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                 np.zeros((n, 2)))


def _random_edges(n, rng, density):
    iu = np.triu_indices(n, k=1)
    keep = rng.random(len(iu[0])) < density
    return np.stack([iu[0][keep], iu[1][keep]], axis=1)


def hostile_graphs():
    rng = np.random.default_rng(7)
    star = [[0, v] for v in range(1, 9)]
    raw = _random_edges(14, rng, 0.3)
    raw = raw[rng.permutation(len(raw))]
    raw[::2] = raw[::2, ::-1]                      # unsorted, reversed
    return {
        "single-node": _graph(1, []),
        "edgeless": _graph(6, []),
        "isolated-nodes": _graph(9, [[0, 1], [1, 2], [5, 6]]),
        "star": _graph(9, star),
        "star-reversed": _graph(9, [[v, 0] for v in range(8, 0, -1)]),
        "duplicate-edges": _graph(5, [[0, 1], [1, 0], [0, 1], [2, 3],
                                      [3, 2], [1, 2]]),
        "unsorted": _graph(14, raw),
        "components": _graph(30, np.concatenate(
            [_random_edges(10, rng, 0.4) + 10 * block
             for block in range(3)])),
    }


@pytest.mark.parametrize("keep_ratio", [0.2, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("name", sorted(hostile_graphs()))
def test_walk_matches_numpy_walk(name, keep_ratio):
    graph = hostile_graphs()[name]
    aug = SubgraphSample(keep_ratio)
    for seed in range(30):
        for prior in (0, 1):
            expected_rng = np.random.default_rng(seed)
            walk_rng = np.random.default_rng(seed)
            for rng in (expected_rng, walk_rng):
                for _ in range(prior):
                    rng.integers(0, 5)    # leaves a half-word buffered
            expected = oracle_walk(keep_ratio, graph, expected_rng)
            got = aug.draw(graph, walk_rng)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)
            assert (walk_rng.bit_generator.state
                    == expected_rng.bit_generator.state)
            assert walk_rng.random() == expected_rng.random()
