"""Structural augmentations: node dropping, edge perturbation, subgraphs.

These are GraphCL's augmentation family (You et al. 2020); JOAO reuses the
same operators and learns a sampling distribution over them.  Each one
draws per graph and relabels / deduplicates a whole chunk at once (see
:class:`repro.augment.base.BatchedAugmentation`).
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph
from ..utils.seed import RawIntegers
from .base import BatchedAugmentation, ViewArrays

__all__ = ["NodeDrop", "EdgePerturb", "SubgraphSample"]


def _validate_ratio(ratio: float, name: str) -> None:
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"{name} must be in [0, 1), got {ratio}")


def _edge_keys(edges: np.ndarray, base: int) -> np.ndarray:
    """Undirected edge keys ``min * base + max`` (``base`` > every id)."""
    return (np.minimum(edges[:, 0], edges[:, 1]) * base
            + np.maximum(edges[:, 0], edges[:, 1]))


def _rank_in_group(groups: np.ndarray, count: int) -> np.ndarray:
    """Position of each element within its run of a grouped id array."""
    sizes = np.bincount(groups, minlength=count)
    return np.arange(len(groups)) - (np.cumsum(sizes) - sizes)[groups]


def _first_fresh(keys: np.ndarray, existing: np.ndarray) -> np.ndarray:
    """Mask of each key's first occurrence, unless ``existing`` has it."""
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.flatnonzero(np.concatenate(
        [[True], ordered[1:] != ordered[:-1]]))
    mask = np.zeros(len(keys), dtype=bool)
    if len(starts):
        # Membership by one merge sort: an odd ``2k + 1`` directly follows
        # ``2k`` exactly when ``k`` is an existing key.
        merged = np.sort(np.concatenate([existing * 2,
                                         ordered[starts] * 2 + 1]))
        twin = np.concatenate([[False], merged[1:] - merged[:-1] == 1])
        fresh = ~twin[merged % 2 == 1]
        mask[np.minimum.reduceat(order, starts)[fresh]] = True
    return mask


def _neighbor_lists(graph) -> list[list[int]]:
    """Each node's neighbours in edge-list order, as plain Python lists.

    Edge-list order keeps random walks consuming RNG draws identically;
    Python lists beat per-step numpy indexing on ~25-node graphs.
    """
    neighbors = [[] for _ in range(graph.num_nodes)]
    for u, v in graph.edges.tolist():
        neighbors[u].append(v)
        neighbors[v].append(u)
    return neighbors


class NodeDrop(BatchedAugmentation):
    """Remove a random fraction of nodes and keep the induced subgraph.

    At least one node always survives so the view is non-degenerate.
    """

    name = "node_drop"

    def __init__(self, drop_ratio: float = 0.2):
        _validate_ratio(drop_ratio, "drop_ratio")
        self.drop_ratio = drop_ratio

    def draw(self, graph: Graph, rng: np.random.Generator) -> np.ndarray:
        n = graph.num_nodes
        keep_count = max(1, int(round(n * (1.0 - self.drop_ratio))))
        return rng.choice(n, size=keep_count, replace=False)

    def apply(self, views: ViewArrays, plans: list) -> None:
        views.keep_nodes(plans)


class EdgePerturb(BatchedAugmentation):
    """Delete a fraction of edges and add the same number of random edges.

    Additions come from rejection sampling over a pre-drawn budget of
    ``20 * num_changed`` proposals: the first ``num_changed`` that are not
    self loops, not repeats and not original edges, in proposal order.
    """

    name = "edge_perturb"

    def __init__(self, perturb_ratio: float = 0.2, add_edges: bool = True):
        _validate_ratio(perturb_ratio, "perturb_ratio")
        self.perturb_ratio = perturb_ratio
        self.add_edges = add_edges

    def draw(self, graph: Graph, rng: np.random.Generator):
        """``(dropped edge indices, proposals or None)``; ``None`` if the
        graph has no edge to change."""
        m = graph.num_edges
        num_changed = int(round(m * self.perturb_ratio))
        if m == 0 or num_changed == 0:
            return None
        dropped = rng.choice(m, size=num_changed, replace=False)
        proposals = None
        if self.add_edges and graph.num_nodes > 1:
            proposals = rng.integers(0, graph.num_nodes,
                                     size=(20 * num_changed, 2))
        return dropped, proposals

    def apply(self, views: ViewArrays, plans: list) -> None:
        active = [i for i, plan in enumerate(plans) if plan is not None]
        if not active:
            return
        # Keys over global node ids never collide across graphs, so one
        # dedup / membership pass serves every graph of the chunk.
        count, total = len(plans), int(views.sizes.sum())
        offsets, edge_offsets = views.node_offsets(), views.edge_offsets()
        edges, edge_graph = views.edges, views.edge_graph_ids()
        node_graph = views.node_graph_ids()
        is_active = np.zeros(count, dtype=bool)
        is_active[active] = True
        touched = is_active[edge_graph]
        keep = touched.copy()
        keep[np.concatenate([plans[i][0] + edge_offsets[i]
                             for i in active])] = False
        kept = edges[keep]
        adding = [i for i in active if plans[i][1] is not None]
        if adding:
            proposals = np.concatenate([plans[i][1] + offsets[i]
                                        for i in adding])
            proposals = proposals[proposals[:, 0] != proposals[:, 1]]
            new = _edge_keys(proposals, total)
            new = new[_first_fresh(new, _edge_keys(edges[touched], total))]
            owner = node_graph[new // total]
            budget = np.zeros(count, dtype=np.int64)
            budget[active] = [len(plans[i][0]) for i in active]
            new = new[_rank_in_group(owner, count) < budget[owner]]
            kept = np.concatenate(
                [kept, np.stack([new // total, new % total], axis=1)])
        # Sorting global ``(lo, hi)`` pairs is graph-major, so this is
        # every touched graph's canonical edge list, in graph order.
        changed = Graph.canonical_edges(kept)
        # Untouched graphs keep their edges verbatim; both parts are
        # graph-major, so each lands at its graph's slot in the output.
        parts = ((changed, node_graph[changed[:, 0]]),
                 (edges[~touched], edge_graph[~touched]))
        sizes = sum(np.bincount(graph, minlength=count) for _, graph in parts)
        starts = np.cumsum(sizes) - sizes
        out = np.empty((int(sizes.sum()), 2), dtype=np.int64)
        for part, graph in parts:
            out[starts[graph] + _rank_in_group(graph, count)] = part
        views.edges, views.edge_sizes = out, sizes


class SubgraphSample(BatchedAugmentation):
    """Random-walk subgraph sampling: keep nodes reached by a walk."""

    name = "subgraph"

    def __init__(self, keep_ratio: float = 0.8):
        if not 0.0 < keep_ratio <= 1.0:
            raise ValueError(f"keep_ratio must be in (0, 1], got {keep_ratio}")
        self.keep_ratio = keep_ratio

    def draw(self, graph: Graph, rng: np.random.Generator) -> np.ndarray:
        """The walk itself: it branches on what it has visited, so it runs
        per graph; only the relabelling is batched.  Its draws are the
        ``rng.integers`` / ``rng.choice`` calls of a plain walk, replayed by
        :class:`repro.utils.seed.RawIntegers`."""
        n = graph.num_nodes
        target = max(1, int(round(n * self.keep_ratio)))
        neighbors = _neighbor_lists(graph)
        visited = [False] * n
        with RawIntegers(rng) as randint:
            start = randint(n)
            visited[start] = True
            num_visited = 1
            frontier = [start]
            # Random-walk-with-restart style expansion until the target size.
            while num_visited < target:
                if not frontier:
                    # Disconnected remainder: jump to a fresh random node
                    # (``rng.choice`` over the unvisited ids draws this way).
                    remaining = [v for v in range(n) if not visited[v]]
                    fresh = remaining[randint(len(remaining))]
                    visited[fresh] = True
                    num_visited += 1
                    frontier.append(fresh)
                    continue
                current = frontier[randint(len(frontier))]
                options = [v for v in neighbors[current] if not visited[v]]
                if not options:
                    frontier.remove(current)
                    continue
                nxt = options[randint(len(options))]
                visited[nxt] = True
                num_visited += 1
                frontier.append(nxt)
        return np.flatnonzero(visited)

    def apply(self, views: ViewArrays, plans: list) -> None:
        views.keep_nodes(plans)
