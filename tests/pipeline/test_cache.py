"""Structure cache: fingerprints, LRU bound, fresh keys, metrics."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, GraphBatch, heat_diffusion, ppr_diffusion
from repro.graph.adjacency import NORMALIZATIONS, normalized_adjacency
from repro.pipeline import (
    StructureCache,
    active_structure_cache,
    structure_fingerprint,
    use_structure_cache,
)


def make_graph(n=6, seed=0):
    rng = np.random.default_rng(seed)
    edges = [[i, (i + 1) % n] for i in range(n - 1)]
    return Graph(n, edges, rng.normal(size=(n, 3)))


class TestFingerprint:
    def test_stable_and_memoized(self):
        g = make_graph()
        first = structure_fingerprint(g)
        assert structure_fingerprint(g) == first
        assert g._structure_key == first

    def test_structure_sensitive(self):
        a = make_graph(seed=0)
        b = a.copy()
        b.edges = Graph.canonical_edges(np.array([[0, 2]]))
        assert structure_fingerprint(a) != structure_fingerprint(b)

    def test_features_do_not_matter(self):
        a = make_graph(seed=0)
        b = make_graph(seed=1)  # same structure, different features
        assert structure_fingerprint(a) == structure_fingerprint(b)


class TestCacheCore:
    def test_hit_returns_same_object(self):
        cache = StructureCache()
        g = make_graph()
        first = cache.ppr(g)
        assert cache.ppr(g) is first
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_values_match_uncached(self):
        cache = StructureCache()
        g = make_graph()
        heat_cached = cache.heat(g).toarray()
        np.testing.assert_array_equal(heat_cached, heat_diffusion(g))
        ppr_cached = cache.ppr(g, alpha=0.2).toarray()
        np.testing.assert_array_equal(ppr_cached, ppr_diffusion(g, alpha=0.2))

    def test_lru_eviction_bound(self):
        cache = StructureCache(max_entries=3)
        graphs = [make_graph(n=4 + i) for i in range(5)]
        for g in graphs:
            cache.ppr(g)
        assert len(cache) == 3
        assert cache.stats()["evictions"] == 2
        # Oldest two were evicted; refetching them misses again.
        cache.ppr(graphs[0])
        assert cache.stats()["misses"] == 6

    def test_lru_recency_order(self):
        cache = StructureCache(max_entries=2)
        a, b, c = (make_graph(n=4), make_graph(n=5), make_graph(n=6))
        cache.ppr(a)
        cache.ppr(b)
        cache.ppr(a)  # refresh a; b is now least recent
        cache.ppr(c)  # evicts b
        cache.ppr(a)
        assert cache.stats()["hits"] == 2

    def test_bytes_accounting(self):
        cache = StructureCache(max_entries=1)
        g = make_graph()
        cache.ppr(g)
        assert cache.nbytes > 0
        cache.ppr(make_graph(n=12))  # evicts the first entry
        assert len(cache) == 1
        cache.clear()
        assert cache.nbytes == 0

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError):
            StructureCache(max_entries=0)


class TestInvalidation:
    def test_in_place_mutation_invalidation(self):
        # Graphs are not edited in place: an edit rebuilds the graph, and
        # the rebuilt object carries no memoized fingerprint of its source.
        cache = StructureCache()
        g = make_graph()
        stale = cache.ppr(g)
        rebuilt = g.copy()
        assert not hasattr(rebuilt, "_structure_key")
        rebuilt.edges = Graph.canonical_edges(
            np.concatenate([g.edges, [[0, 3]]], axis=0))
        assert structure_fingerprint(rebuilt) != structure_fingerprint(g)
        fresh = cache.ppr(rebuilt)
        assert (fresh != stale).nnz > 0
        np.testing.assert_array_equal(fresh.toarray(),
                                      ppr_diffusion(rebuilt, alpha=0.2))
        assert cache.stats()["misses"] == 2 and len(cache) == 2

    def test_invalidate_unseen_graph_is_noop(self):
        cache = StructureCache()
        key = ("ppr", structure_fingerprint(make_graph()), 0.2)
        assert cache.lookup(key) is None
        assert len(cache) == 0 and cache.nbytes == 0
        assert cache.stats()["misses"] == 1

    def test_augmented_views_never_alias_source(self):
        cache = StructureCache()
        g = make_graph()
        source = cache.ppr(g)
        view = g.subgraph(np.arange(g.num_nodes - 1))
        assert cache.ppr(view) is not source
        assert structure_fingerprint(view) != structure_fingerprint(g)


class TestActiveCacheContext:
    def test_context_installs_and_restores(self):
        cache = StructureCache()
        assert active_structure_cache() is None
        with use_structure_cache(cache):
            assert active_structure_cache() is cache
            with use_structure_cache(None):
                assert active_structure_cache() is None
            assert active_structure_cache() is cache
        assert active_structure_cache() is None


# ----------------------------------------------------------------------
# Batch adjacency: direct build == block_diag of per-graph matrices
# ----------------------------------------------------------------------

def _edgeless(n, rng):
    return Graph(n, np.empty((0, 2), dtype=np.int64), rng.normal(size=(n, 2)))


def _star(n, rng):
    """Hub 0 joined to every other node: the maximum possible degree."""
    edges = np.stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)], 1)
    return Graph(n, edges, rng.normal(size=(n, 2)))


def _random_graph(n, density, rng):
    iu = np.triu_indices(n, k=1)
    mask = rng.random(len(iu[0])) < density
    edges = np.stack([iu[0][mask], iu[1][mask]], axis=1)
    return Graph(n, edges, rng.normal(size=(n, 2)))


def _with_isolated(n, rng):
    """A connected pair plus ``n - 2`` isolated nodes."""
    return Graph(n, [[0, 1]], rng.normal(size=(n, 2)))


@st.composite
def hostile_batches(draw):
    """Random graphs mixed with every degenerate shape batching must keep.

    Each batch holds a zero-edge graph, a single-node graph, a graph with
    isolated nodes and a max-degree star at drawn positions, and always
    ends in an edge-less graph.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    graphs = [_random_graph(draw(st.integers(1, 9)),
                            draw(st.floats(0.0, 1.0)), rng)
              for _ in range(draw(st.integers(0, 5)))]
    special = [_edgeless(draw(st.integers(2, 5)), rng), _edgeless(1, rng),
               _with_isolated(draw(st.integers(3, 6)), rng),
               _star(draw(st.integers(2, 12)), rng)]
    for graph in special:
        graphs.insert(draw(st.integers(0, len(graphs))), graph)
    graphs.append(_edgeless(draw(st.integers(1, 4)), rng))
    return graphs


class TestBatchAdjacencyDirect:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["f32", "f64"])
    @pytest.mark.parametrize("normalization", NORMALIZATIONS)
    @settings(max_examples=25, deadline=None)
    @given(graphs=hostile_batches())
    def test_equals_block_diag(self, graphs, normalization, dtype):
        from repro.tensor import autocast

        cache = StructureCache()
        with autocast(dtype), use_structure_cache(cache):
            direct = GraphBatch(graphs).adjacency(normalization)
            blocks = sp.block_diag(
                [normalized_adjacency(g, normalization) for g in graphs],
                format="csr")
        assert direct.shape == blocks.shape
        assert direct.dtype == blocks.dtype
        assert (direct != blocks).nnz == 0
        # Batch adjacency never consults an active structure cache.
        stats = cache.stats()
        assert stats["hits"] == stats["misses"] == 0
