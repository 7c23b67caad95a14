"""Chaos harness properties: no orphaned waiters, bit-identical respawn.

Two properties the fault layer guarantees end to end:

* arbitrary interleavings of ``submit`` / ``close`` / injected faults
  over a real encoder leave **no orphaned waiter** — every ``submit``
  call returns or raises within a bounded wait;
* a fork-pool worker killed mid-task changes nothing: the parent replays
  the lost work and the output is bit-identical to the serial path.
"""

import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.faults import (
    FaultInjected,
    FaultPlan,
    counters_snapshot,
    inject,
    use_fault_plan,
)
from repro.graph import GraphBatch
from repro.pipeline import ViewGenerator
from repro.pipeline.pool import fork_map, map_context
from repro.serve import MicroBatcher, ServiceOverloaded, ServiceTimeout

from ..serve.test_batcher import make_graphs


@pytest.mark.slow
class TestInterleavingProperty:
    """Hypothesis: for any submit/close schedule under any seeded fault
    plan, every request resolves — success, shed, timeout, or injected
    error — within its deadline machinery's bound.  The pre-fix batcher
    failed this: a submit racing close could enqueue behind the shutdown
    sentinel and block forever."""

    @classmethod
    def setup_class(cls):
        from repro.methods import GraphCL
        from repro.serve import FrozenEncoder
        from repro.tensor import autocast

        cls.graphs = make_graphs(8, num_features=4, seed=3)
        with autocast("float32"):
            method = GraphCL(4, hidden_dim=8, num_layers=2,
                             rng=np.random.default_rng(0))
        cls.encoder = FrozenEncoder(method, num_features=4)
        cls.expected = np.concatenate(
            [cls.encoder.embed([g]) for g in cls.graphs])

    def test_every_pending_resolves(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        graphs, expected, encoder = self.graphs, self.expected, self.encoder

        @settings(max_examples=20, deadline=None)
        @given(
            ops=st.lists(st.sampled_from(["submit", "close"]),
                         min_size=2, max_size=10),
            plan_seed=st.integers(0, 10_000),
        )
        def check(ops, plan_seed):
            plan = FaultPlan([
                {"point": "serve.forward", "kind": "slow", "at": 1,
                 "every": 1, "times": None, "probability": 0.3,
                 "delay_s": 0.02},
                {"point": "serve.forward", "kind": "raise", "at": 1,
                 "every": 1, "times": None, "probability": 0.2},
                {"point": "serve.forward", "kind": "drop", "at": 1,
                 "every": 1, "times": None, "probability": 0.2},
            ], seed=plan_seed)
            batcher = MicroBatcher(encoder.embed, max_batch_size=4,
                                   queue_size=4, deadline_ms=500.0,
                                   forward_timeout_ms=250.0)
            futures = []
            try:
                with use_fault_plan(plan), \
                        ThreadPoolExecutor(max_workers=4) as pool:
                    for i, op in enumerate(ops):
                        if op == "close":
                            pool.submit(batcher.close)
                        else:
                            index = i % len(graphs)
                            futures.append((index, pool.submit(
                                batcher.submit, [graphs[index]])))
                    # The property: every waiter resolves in bounded time
                    # (10 s >> deadline); a hang here is the regression.
                    for index, future in futures:
                        try:
                            rows = future.result(timeout=10)
                        except (ServiceTimeout, ServiceOverloaded,
                                FaultInjected):
                            continue
                        except RuntimeError as exc:
                            assert "closed" in str(exc)
                            continue
                        assert np.array_equal(rows[0], expected[index])
            finally:
                batcher.close()

        check()


def _double_or_die(item):
    """Pure task for fork_map; item 3 kills its pool worker (child only)."""
    if item == 3 and multiprocessing.parent_process() is not None:
        os._exit(13)
    return item * 2


def _views_at(counter):
    """Fingerprint of the context batch's views at one batch counter."""
    from repro.methods.graphcl import default_augmentation

    inject("test.views")
    generator = ViewGenerator(default_augmentation(), root=42)
    generator.counter = counter
    pair = generator.generate(map_context())
    return [(g.num_nodes, g.edges.tobytes(), g.x.tobytes())
            for view in (pair.view1, pair.view2) for g in view.graphs]


class TestRespawnBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_kill_leaves_views_bit_identical(self, workers):
        """Views lost to a killed ``fork_map`` worker are regenerated in
        the parent from the same seed streams — output equals the serial
        path byte for byte, and the replay is tallied in
        ``faults.respawns``."""
        batch = GraphBatch(make_graphs(9, seed=21))
        counters = list(range(4))
        reference = fork_map(_views_at, counters, workers=0, context=batch)

        before = counters_snapshot()["faults.respawns"]
        # Each worker counts its own calls, so the kill lands on the
        # second batch some worker takes; with more batches than workers
        # one always does.
        plan = FaultPlan([{"point": "test.views", "kind": "kill",
                           "at": 2}], seed=0)
        with use_fault_plan(plan):
            views = fork_map(_views_at, counters, workers=workers,
                             context=batch, recover_s=1.0)
        assert views == reference
        assert counters_snapshot()["faults.respawns"] > before

    def test_eval_worker_kill_leaves_protocol_identical(self, monkeypatch):
        """A repeat lost to a killed ``fork_map`` worker is replayed in the
        parent — ``(mean, std)`` equals the serial protocol's, and the
        replay is tallied in ``faults.respawns``."""
        from repro.eval import fast_evaluate_graph

        rng = np.random.default_rng(5)
        labels = np.repeat(np.arange(2), 30)
        embeddings = rng.normal(size=(60, 6)) + labels[:, None]
        serial = fast_evaluate_graph(embeddings, labels, seed=3,
                                     eval_workers=0)[:2]

        monkeypatch.setenv("REPRO_POOL_RECOVER_S", "1")
        before = counters_snapshot()["faults.respawns"]
        plan = FaultPlan([{"point": "eval.repeat", "kind": "kill",
                           "at": 2}], seed=0)
        with use_fault_plan(plan):
            parallel = fast_evaluate_graph(embeddings, labels, seed=3,
                                           eval_workers=2)[:2]
        assert parallel == serial
        assert counters_snapshot()["faults.respawns"] > before

    def test_fork_map_replays_lost_items(self):
        before = counters_snapshot()["faults.respawns"]
        out = fork_map(_double_or_die, list(range(6)), workers=2,
                       recover_s=1.0)
        assert out == [0, 2, 4, 6, 8, 10]
        assert counters_snapshot()["faults.respawns"] > before
