"""MicroBatcher: coalescing, equivalence, backpressure, teardown."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.faults import FaultPlan, use_fault_plan
from repro.graph import Graph
from repro.obs import MetricRegistry
from repro.serve import MicroBatcher, ServiceOverloaded, ServiceTimeout


def make_graphs(count, num_features=4, seed=0):
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(count):
        n = int(rng.integers(2, 9))
        iu = np.triu_indices(n, k=1)
        mask = rng.random(len(iu[0])) < 0.5
        edges = np.stack([iu[0][mask], iu[1][mask]], axis=1)
        graphs.append(Graph(n, edges, rng.normal(size=(n, num_features))))
    return graphs


def hostile_graphs(num_features=4, seed=0):
    """Edge cases for batch composition: a single node, zero edges,
    isolated nodes beside a component, and a max-degree star."""
    rng = np.random.default_rng(seed)
    no_edges = np.empty((0, 2), dtype=np.int64)
    leaves = np.arange(1, 33)
    star = np.stack([np.zeros_like(leaves), leaves], axis=1)
    shapes = [
        (1, no_edges),                            # single node
        (1, no_edges),                            # another single node
        (5, no_edges),                            # zero edges
        (6, np.array([[0, 1], [1, 2], [0, 2]])),  # 3 isolated nodes
        (7, np.array([[2, 4]])),                  # 5 isolated nodes
        (33, star),                               # hub of degree 32
    ]
    return [Graph(n, edges, rng.normal(size=(n, num_features)))
            for n, edges in shapes]


def row_sum_forward(graphs):
    """A cheap stand-in forward with the same per-graph-determinism
    property as FrozenEncoder.embed: row i depends only on graph i."""
    return np.stack([np.asarray(g.x).sum(axis=0) for g in graphs])


class TestCoalescing:
    def test_results_match_per_request_forwards(self):
        graphs = make_graphs(12)
        expected = row_sum_forward(graphs)
        with MicroBatcher(row_sum_forward, max_batch_size=8) as batcher:
            with ThreadPoolExecutor(max_workers=4) as pool:
                rows = list(pool.map(
                    lambda g: batcher.submit([g])[0], graphs))
        assert np.array_equal(np.stack(rows), expected)

    def test_concurrent_requests_share_forwards(self):
        """Requests that queue while a forward runs ride the next one."""
        graphs = make_graphs(16)
        metrics = MetricRegistry()
        entered = threading.Event()
        release = threading.Event()

        def gated_forward(batch):
            entered.set()
            release.wait(timeout=10)
            return row_sum_forward(batch)

        with MicroBatcher(gated_forward, max_batch_size=16,
                          metrics=metrics) as batcher:
            with ThreadPoolExecutor(max_workers=len(graphs)) as pool:
                head = pool.submit(batcher.submit, [graphs[0]])
                assert entered.wait(timeout=10)  # first forward is held
                futures = [pool.submit(batcher.submit, [g])
                           for g in graphs[1:]]
                while batcher._queue.qsize() < len(futures):
                    time.sleep(0.001)            # all 15 followers queued
                release.set()
                for future in [head, *futures]:
                    future.result(timeout=30)
        snapshot = metrics.snapshot()
        assert snapshot["serve.coalesced_requests"] > 0
        assert snapshot["serve.batches"] < len(graphs)

    def test_lone_request_forms_batch_of_one(self):
        """With nothing queued behind it, a request runs at once, alone."""
        metrics = MetricRegistry()
        graph = make_graphs(1)[0]
        with MicroBatcher(row_sum_forward, metrics=metrics) as batcher:
            assert np.array_equal(batcher.submit([graph]),
                                  row_sum_forward([graph]))
        snapshot = metrics.snapshot()
        assert snapshot["serve.batches"] == 1
        assert snapshot["serve.batch.requests"]["total"] == 1
        assert "serve.coalesced_requests" not in snapshot

    def test_multi_graph_requests_never_split(self):
        graphs = make_graphs(6)
        with MicroBatcher(row_sum_forward, max_batch_size=2) as batcher:
            # 6 graphs > max_batch_size: the request still rides whole.
            out = batcher.submit(graphs)
        assert np.array_equal(out, row_sum_forward(graphs))

    def test_zero_wait_still_answers(self):
        graphs = make_graphs(3)
        with MicroBatcher(row_sum_forward) as batcher:
            for graph in graphs:
                assert np.array_equal(batcher.submit([graph]),
                                      row_sum_forward([graph]))


class TestBackpressure:
    def test_full_queue_sheds(self):
        metrics = MetricRegistry()
        entered = threading.Event()
        release = threading.Event()

        def blocking_forward(batch):
            entered.set()
            release.wait(timeout=10)
            return row_sum_forward(batch)

        graphs = make_graphs(4)
        batcher = MicroBatcher(blocking_forward, max_batch_size=1,
                               queue_size=1, metrics=metrics)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                # First request occupies the worker inside the forward...
                first = pool.submit(batcher.submit, [graphs[0]])
                assert entered.wait(timeout=10)
                # ...second fills the queue (the worker is busy)...
                second = pool.submit(batcher.submit, [graphs[1]])
                deadline = threading.Event()
                while batcher._queue.empty() and not second.done():
                    if deadline.wait(timeout=0.01):  # pragma: no cover
                        break
                # ...third finds it full and must shed immediately.
                with pytest.raises(ServiceOverloaded, match="queue-size"):
                    batcher.submit([graphs[2]])
                release.set()
                first.result(timeout=30)
                second.result(timeout=30)
        finally:
            release.set()
            batcher.close()
        assert metrics.snapshot()["serve.shed"] == 1

    def test_forward_errors_propagate_to_callers(self):
        calls = []

        def flaky_forward(batch):
            calls.append(len(batch))
            if len(calls) == 1:
                raise RuntimeError("engine on fire")
            return row_sum_forward(batch)

        graphs = make_graphs(2)
        with MicroBatcher(flaky_forward) as batcher:
            with pytest.raises(RuntimeError, match="engine on fire"):
                batcher.submit([graphs[0]])
            # The worker survives an erroring forward.
            assert np.array_equal(batcher.submit([graphs[1]]),
                                  row_sum_forward([graphs[1]]))

    def test_closed_batcher_rejects(self):
        batcher = MicroBatcher(row_sum_forward)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(make_graphs(1))

    def test_close_drains_in_flight(self):
        """Requests enqueued before close() are answered, not dropped."""
        graphs = make_graphs(5)
        entered = threading.Event()
        release = threading.Event()

        def gated_forward(batch):
            entered.set()
            release.wait(timeout=10)
            return row_sum_forward(batch)

        batcher = MicroBatcher(gated_forward, max_batch_size=1)
        with ThreadPoolExecutor(max_workers=len(graphs) + 1) as pool:
            head = pool.submit(batcher.submit, [graphs[0]])
            assert entered.wait(timeout=10)   # worker is inside a forward
            tail = [pool.submit(batcher.submit, [g]) for g in graphs[1:]]
            while batcher._queue.qsize() < len(tail):
                pass                          # all followers enqueued
            closer = pool.submit(batcher.close)
            release.set()
            closer.result(timeout=30)
            for graph, future in zip(graphs, [head, *tail]):
                assert np.array_equal(future.result(timeout=30),
                                      row_sum_forward([graph]))

    def test_empty_request_rejected(self):
        with MicroBatcher(row_sum_forward) as batcher:
            with pytest.raises(ValueError, match="empty"):
                batcher.submit([])


class TestDeadlines:
    def test_invalid_deadline_rejected(self, monkeypatch):
        with MicroBatcher(row_sum_forward) as batcher:
            for bad in (0, float("nan"), float("inf"), 1e300, 10**400):
                with pytest.raises(ValueError, match="deadline_ms"):
                    batcher.submit(make_graphs(1), deadline_ms=bad)
        with pytest.raises(ValueError, match="deadline_ms"):
            MicroBatcher(row_sum_forward, deadline_ms=-5.0)
        # The watchdog threshold is judged like a deadline: a NaN one
        # would expire every forward at once.
        for bad in (float("nan"), float("inf"), 0, -1):
            with pytest.raises(ValueError, match="forward_timeout_ms"):
                MicroBatcher(row_sum_forward, forward_timeout_ms=bad)
        monkeypatch.setenv("REPRO_FORWARD_TIMEOUT_MS", "nan")
        with pytest.raises(ValueError, match="REPRO_FORWARD_TIMEOUT_MS"):
            MicroBatcher(row_sum_forward)

    def test_request_expiring_in_queue_times_out(self):
        metrics = MetricRegistry()
        entered = threading.Event()
        release = threading.Event()

        def gated_forward(batch):
            entered.set()
            release.wait(timeout=10)
            return row_sum_forward(batch)

        graphs = make_graphs(2)
        batcher = MicroBatcher(gated_forward, max_batch_size=1,
                               metrics=metrics)
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                head = pool.submit(batcher.submit, [graphs[0]])
                assert entered.wait(timeout=10)
                # The worker is stuck inside the forward; a follower with
                # a tiny deadline must fail in bounded time, not block.
                with pytest.raises(ServiceTimeout, match="deadline"):
                    batcher.submit([graphs[1]], deadline_ms=80.0)
                release.set()
                head.result(timeout=30)
        finally:
            release.set()
            batcher.close()
        assert metrics.snapshot()["serve.timeouts"] >= 1

    def test_watchdog_tombstones_hung_forward(self):
        metrics = MetricRegistry()
        hang = threading.Event()
        calls = []

        def hanging_once(batch):
            calls.append(len(batch))
            if len(calls) == 1:
                hang.wait(timeout=30)     # simulated wedged forward
            return row_sum_forward(batch)

        graphs = make_graphs(2)
        batcher = MicroBatcher(hanging_once, deadline_ms=5_000.0,
                               forward_timeout_ms=100.0, metrics=metrics)
        try:
            with pytest.raises(ServiceTimeout, match="tombstone"):
                batcher.submit([graphs[0]])
            # The replacement worker serves the next request normally.
            assert np.array_equal(batcher.submit([graphs[1]]),
                                  row_sum_forward([graphs[1]]))
        finally:
            hang.set()
            batcher.close()
        snapshot = metrics.snapshot()
        assert snapshot["serve.tombstones"] == 1
        assert snapshot["serve.timeouts"] >= 1

    def test_dropped_batch_rescued_by_deadline(self):
        metrics = MetricRegistry()
        plan = FaultPlan([{"point": "serve.forward", "kind": "drop",
                           "at": 1}])
        graphs = make_graphs(2)
        with MicroBatcher(row_sum_forward, deadline_ms=150.0,
                          metrics=metrics) as batcher:
            with use_fault_plan(plan):
                with pytest.raises(ServiceTimeout):
                    batcher.submit([graphs[0]])
                # The drop rule is exhausted; service recovers.
                assert np.array_equal(batcher.submit([graphs[1]]),
                                      row_sum_forward([graphs[1]]))
        assert metrics.snapshot()["serve.dropped_batches"] == 1


class TestCloseSubmitRace:
    def test_close_vs_submit_stress(self):
        """Regression for the close/submit deadlock: a submit racing
        close() could land its request *behind* the shutdown sentinel and
        wait on it forever.  Race 4 submitters against close repeatedly;
        every submit must resolve in bounded time — a correct row, a
        clean 'closed' rejection, or a timeout — never a hang."""
        graph = make_graphs(1)[0]
        expected = row_sum_forward([graph])

        for trial in range(30):
            batcher = MicroBatcher(row_sum_forward, max_batch_size=4,
                                   queue_size=16, deadline_ms=2_000.0)
            barrier = threading.Barrier(5)

            def submit_one():
                barrier.wait(timeout=10)
                return batcher.submit([graph])

            def close_it():
                barrier.wait(timeout=10)
                batcher.close()

            with ThreadPoolExecutor(max_workers=5) as pool:
                futures = [pool.submit(submit_one) for _ in range(4)]
                closer = pool.submit(close_it)
                closer.result(timeout=10)
                for future in futures:
                    try:
                        rows = future.result(timeout=10)
                    except RuntimeError as exc:
                        assert ("closed" in str(exc)
                                or isinstance(exc, (ServiceTimeout,
                                                    ServiceOverloaded)))
                        continue
                    assert np.array_equal(rows, expected)
            batcher.close()


@pytest.mark.slow
class TestBatchInvarianceProperty:
    """Hypothesis: block-diagonal coalesced forwards == per-graph forwards
    through a real frozen encoder, for arbitrary request shapes, arrival
    orders, and batcher settings, over a pool that includes hostile
    graphs (see :func:`hostile_graphs`)."""

    @classmethod
    def setup_class(cls):
        from repro.methods import GraphCL
        from repro.serve import FrozenEncoder
        from repro.tensor import autocast

        cls.graphs = (make_graphs(24, num_features=4, seed=7)
                      + hostile_graphs(num_features=4, seed=11))
        with autocast("float32"):
            method = GraphCL(4, hidden_dim=8, num_layers=2,
                             rng=np.random.default_rng(0))
        cls.encoder = FrozenEncoder(method, num_features=4)
        cls.singles = np.concatenate(
            [cls.encoder.embed([g]) for g in cls.graphs])

    def test_arbitrary_arrivals_match_per_graph_forwards(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        graphs, singles, encoder = self.graphs, self.singles, self.encoder

        @settings(max_examples=25, deadline=None)
        @given(
            order=st.permutations(range(len(graphs))),
            cuts=st.sets(st.integers(1, len(graphs) - 1), max_size=6),
            max_batch_size=st.integers(1, 32),
            workers=st.integers(1, 6),
        )
        def check(order, cuts, max_batch_size, workers):
            # Partition the shuffled indices into contiguous requests.
            bounds = [0, *sorted(cuts), len(order)]
            requests = [order[a:b] for a, b in zip(bounds, bounds[1:])
                        if b > a]
            with MicroBatcher(encoder.embed,
                              max_batch_size=max_batch_size,
                              queue_size=len(requests) + 1) as batcher:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(
                        lambda idxs: batcher.submit(
                            [graphs[i] for i in idxs]),
                        requests))
            for idxs, block in zip(requests, results):
                assert np.array_equal(block, singles[list(idxs)])

        check()
