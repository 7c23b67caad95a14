"""HTTP front end: real sockets, JSON round-trips, error mapping."""

import json
import threading
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import numpy as np
import pytest

from repro.methods import GraphCL
from repro.serve import (
    EmbeddingService,
    FrozenEncoder,
    graph_from_payload,
    make_server,
    payload_from_graph,
)
from repro.tensor import autocast

from .test_batcher import make_graphs


@pytest.fixture(scope="module")
def stack():
    """A live server on an OS-assigned port, torn down after the module."""
    with autocast("float32"):
        method = GraphCL(4, hidden_dim=8, num_layers=2,
                         rng=np.random.default_rng(0))
    encoder = FrozenEncoder(method, num_features=4)
    service = EmbeddingService(encoder)
    server = make_server(service, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    yield encoder, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    service.close()


def post_embed(base, graphs):
    body = json.dumps(
        {"graphs": [payload_from_graph(g) for g in graphs]}).encode()
    request = Request(f"{base}/embed", data=body,
                      headers={"Content-Type": "application/json"})
    with urlopen(request, timeout=30) as response:
        return json.loads(response.read())


class TestPayloadCodec:
    def test_round_trip(self):
        graph = make_graphs(1, seed=5)[0]
        back = graph_from_payload(payload_from_graph(graph))
        assert back.num_nodes == graph.num_nodes
        assert np.array_equal(back.edges, graph.edges)
        assert np.array_equal(back.x, graph.x)

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            graph_from_payload({"num_nodes": 2})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            graph_from_payload([1, 2])

    def test_ragged_features_rejected(self):
        with pytest.raises(ValueError):
            graph_from_payload({"num_nodes": 2, "edges": [],
                                "x": [[1.0], [1.0, 2.0]]})


class TestEndpoints:
    def test_healthz(self, stack):
        _, base = stack
        with urlopen(f"{base}/healthz", timeout=30) as response:
            health = json.loads(response.read())
        assert health["status"] == "ok"
        assert health["num_features"] == 4

    def test_embed_bit_identical_to_offline(self, stack):
        """JSON floats round-trip exactly: served bytes == offline bytes."""
        encoder, base = stack
        graphs = make_graphs(5, seed=11)
        offline = encoder.embed(graphs)
        payload = post_embed(base, graphs)
        served = np.asarray(payload["embeddings"], dtype=offline.dtype)
        assert np.array_equal(served, offline)
        assert payload["count"] == 5
        assert payload["dim"] == offline.shape[1]

    def test_metrics_endpoint(self, stack):
        _, base = stack
        post_embed(base, make_graphs(2, seed=13))
        with urlopen(f"{base}/metrics", timeout=30) as response:
            metrics = json.loads(response.read())
        assert metrics["serve.requests"] >= 1
        assert "serve.batch_coalesce_rate" in metrics

    def test_malformed_body_is_400(self, stack):
        _, base = stack
        request = Request(f"{base}/embed", data=b"not json",
                          headers={"Content-Type": "application/json"})
        with pytest.raises(HTTPError) as excinfo:
            urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read())

    def test_empty_graph_list_is_400(self, stack):
        _, base = stack
        request = Request(f"{base}/embed",
                          data=json.dumps({"graphs": []}).encode(),
                          headers={"Content-Type": "application/json"})
        with pytest.raises(HTTPError) as excinfo:
            urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_wrong_feature_width_is_400(self, stack):
        _, base = stack
        wrong = {"num_nodes": 1, "edges": [], "x": [[1.0, 2.0]]}
        request = Request(f"{base}/embed",
                          data=json.dumps({"graphs": [wrong]}).encode(),
                          headers={"Content-Type": "application/json"})
        with pytest.raises(HTTPError) as excinfo:
            urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert "node features" in json.loads(excinfo.value.read())["error"]

    def test_negative_edge_endpoint_is_400(self, stack):
        """Regression: a negative endpoint used to wrap around via numpy
        fancy indexing and embed garbage with a 200; it must be rejected
        at graph construction and surface as a 400."""
        _, base = stack
        bad = {"num_nodes": 2, "edges": [[-1, 1]],
               "x": [[1.0] * 4, [2.0] * 4]}
        request = Request(f"{base}/embed",
                          data=json.dumps({"graphs": [bad]}).encode(),
                          headers={"Content-Type": "application/json"})
        with pytest.raises(HTTPError) as excinfo:
            urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert "out of range" in json.loads(excinfo.value.read())["error"]

    @pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e999"])
    def test_non_finite_feature_is_400(self, stack, literal):
        """``json.loads`` accepts these literals; a non-finite feature must
        not reach the forward and come back as a non-finite row."""
        _, base = stack
        body = ('{"graphs": [{"num_nodes": 2, "edges": [[0, 1]], '
                f'"x": [[1.0, 2.0, 3.0, {literal}], [1.0, 1.0, 1.0, 1.0]]}}]}}')
        request = Request(f"{base}/embed", data=body.encode(),
                          headers={"Content-Type": "application/json"})
        with pytest.raises(HTTPError) as excinfo:
            urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert "finite" in json.loads(excinfo.value.read())["error"]

    @pytest.mark.parametrize("deadline_ms", [
        "soon", {"ms": 5}, 0, -10,
        # A 504 (NaN), a 500 (1e300 overflows ``Event.wait``, the int
        # overflows ``float``), no deadline at all (Infinity) and 1 ms
        # (``true``) are what these used to get.
        pytest.param(float("nan"), id="nan"),
        pytest.param(float("inf"), id="inf"),
        pytest.param(1e300, id="1e300"),
        pytest.param(10 ** 400, id="huge-int"),
        pytest.param(True, id="true"),
    ])
    def test_invalid_deadline_ms_is_400(self, stack, deadline_ms):
        _, base = stack
        body = {"graphs": [payload_from_graph(g)
                           for g in make_graphs(1, seed=17)],
                "deadline_ms": deadline_ms}
        request = Request(f"{base}/embed", data=json.dumps(body).encode(),
                          headers={"Content-Type": "application/json"})
        with pytest.raises(HTTPError) as excinfo:
            urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert "deadline_ms" in json.loads(excinfo.value.read())["error"]

    @pytest.mark.parametrize("body, field", [
        ("[1, 2]", "graphs"),
        ("3", "graphs"),
        ('{"graphs": [{"num_nodes": 2.7, "edges": [[0, 1]], '
         '"x": [[1, 2, 3, 4], [5, 6, 7, 8]]}]}', "num_nodes"),
        ('{"graphs": [{"num_nodes": true, "edges": [], '
         '"x": [[1, 2, 3, 4]]}]}', "num_nodes"),
    ], ids=["list-body", "number-body", "num-nodes-float", "num-nodes-bool"])
    def test_hostile_body_is_400(self, stack, body, field):
        """A non-object body used to be a 500; a float or boolean
        ``num_nodes`` used to be truncated and served with a 200."""
        _, base = stack
        request = Request(f"{base}/embed", data=body.encode(),
                          headers={"Content-Type": "application/json"})
        with pytest.raises(HTTPError) as excinfo:
            urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert field in json.loads(excinfo.value.read())["error"]

    def test_valid_deadline_ms_is_honored(self, stack):
        _, base = stack
        body = {"graphs": [payload_from_graph(g)
                           for g in make_graphs(2, seed=19)],
                "deadline_ms": 10_000}
        request = Request(f"{base}/embed", data=json.dumps(body).encode(),
                          headers={"Content-Type": "application/json"})
        with urlopen(request, timeout=30) as response:
            assert json.loads(response.read())["count"] == 2

    def test_unknown_path_is_404(self, stack):
        _, base = stack
        with pytest.raises(HTTPError) as excinfo:
            urlopen(f"{base}/nope", timeout=30)
        assert excinfo.value.code == 404


class TestDeadlineTimeout:
    def test_missed_deadline_is_504_with_retry_after(self):
        """A forward slowed past the request deadline maps to 504 and
        advertises ``Retry-After`` so clients back off instead of piling
        on.  Dedicated stack: the slow fault would perturb the shared
        module fixture's latency metrics."""
        from repro.faults import FaultPlan, use_fault_plan

        with autocast("float32"):
            method = GraphCL(4, hidden_dim=8, num_layers=2,
                             rng=np.random.default_rng(0))
        encoder = FrozenEncoder(method, num_features=4)
        service = EmbeddingService(encoder, deadline_ms=100.0,
                                   forward_timeout_ms=5_000.0)
        server = make_server(service, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]
        plan = FaultPlan([{"point": "serve.forward", "kind": "slow",
                           "at": 1, "every": 1, "times": None,
                           "delay_s": 0.4}])
        try:
            with use_fault_plan(plan):
                with pytest.raises(HTTPError) as excinfo:
                    post_embed(f"http://{host}:{port}",
                               make_graphs(1, seed=23))
            assert excinfo.value.code == 504
            assert excinfo.value.headers["Retry-After"] is not None
            assert "error" in json.loads(excinfo.value.read())
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestKeepAliveLatency:
    def test_nodelay_and_round_trip_on_keep_alive(self, monkeypatch):
        """Regression: replies go out as two writes (headers, body); with
        Nagle on, a keep-alive client's delayed ACK stalled every reply
        by ~40 ms.  The server socket must set TCP_NODELAY, and 30
        keep-alive ``/embed`` round trips must have a median under 20 ms."""
        import socket
        import statistics
        import time
        from http.client import HTTPConnection

        from repro.serve.http import _Handler

        nodelay = []
        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        with autocast("float32"):
            method = GraphCL(4, hidden_dim=8, num_layers=2,
                             rng=np.random.default_rng(0))
        service = EmbeddingService(FrozenEncoder(method, num_features=4))
        server = make_server(service, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]
        body = json.dumps({"graphs": [payload_from_graph(g)
                                      for g in make_graphs(2, seed=31)]})
        connection = HTTPConnection(host, port, timeout=30)
        rounds = []
        try:
            for _ in range(31):
                start = time.perf_counter()
                connection.request("POST", "/embed", body=body, headers={
                    "Content-Type": "application/json"})
                response = connection.getresponse()
                assert response.status == 200
                response.read()
                rounds.append(time.perf_counter() - start)
        finally:
            connection.close()
            server.shutdown()
            server.server_close()
            service.close()
        assert nodelay and all(nodelay)
        assert len(nodelay) == 1  # one keep-alive connection served it all
        # The first request pays the connect.
        assert statistics.median(rounds[1:]) < 0.020
