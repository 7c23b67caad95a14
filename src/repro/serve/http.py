"""Stdlib-only threaded HTTP front end for the embedding service.

``repro serve`` binds an :class:`EmbeddingHTTPServer` (a
``ThreadingHTTPServer`` with daemon handler threads) over one
:class:`~repro.serve.EmbeddingService`.  Three endpoints:

* ``POST /embed`` — body ``{"graphs": [{"num_nodes": N, "edges":
  [[u, v], ...], "x": [[...], ...]}, ...]}``; responds ``{"embeddings":
  [[...], ...], "dim": d, "count": n}`` with rows in request order.
  Responses are JSON — python's ``repr``-based float serialization round-
  trips exactly, so the bytes a client reconstructs are bit-identical to
  the offline ``repro embed`` npz (CI tier e asserts this under load).
* ``GET /healthz`` — encoder identity (method, dataset, config hash,
  dims, dtype) plus service knobs; any 200 means the model is loaded.
* ``GET /metrics`` — JSON :class:`~repro.obs.MetricRegistry` snapshot with
  derived rates (``serve.batch_coalesce_rate``, ``serve.requests_per_batch``).

Error mapping: malformed payloads are 400, backpressure sheds are 429
(with ``Retry-After``), missed deadlines are 504 (also retry-able), and
unexpected failures are 500; every error body is ``{"error": message}``.
A request may bound its own wait with a top-level ``"deadline_ms"``
field; otherwise the service default applies (see ``docs/robustness.md``).

Handler threads only parse JSON and wait on the micro-batcher — all tensor
work happens on the batcher's single worker thread, so concurrency never
touches the engine's global dtype state.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from ..graph import Graph
from .batcher import ServiceOverloaded, ServiceTimeout
from .service import EmbeddingService

__all__ = ["EmbeddingHTTPServer", "graph_from_payload",
           "payload_from_graph", "make_server", "install_drain_handler"]

#: Cap on accepted request bodies (64 MiB): a malicious or confused client
#: should shed here, not in the allocator.
MAX_BODY_BYTES = 64 * 1024 * 1024


def graph_from_payload(payload: dict) -> Graph:
    """Build a :class:`Graph` from one ``/embed`` request entry.

    Validation errors raise ``ValueError`` (mapped to HTTP 400): the
    payload must carry ``num_nodes``, ``edges``, and a finite feature
    matrix ``x`` with one row per node.  ``json.loads`` accepts ``NaN``,
    ``Infinity`` and overflowing literals such as ``1e999``; those would
    embed to non-finite rows, so :class:`Graph` rejects them.
    """
    if not isinstance(payload, dict):
        raise ValueError("each graph must be a JSON object")
    missing = {"num_nodes", "edges", "x"} - set(payload)
    if missing:
        raise ValueError(f"graph payload missing {sorted(missing)}")
    num_nodes = payload["num_nodes"]
    if not _is_json(num_nodes, int):
        raise ValueError(f"num_nodes must be an integer, got {num_nodes!r}")
    try:
        edges = np.asarray(payload["edges"], dtype=np.int64).reshape(-1, 2)
        x = np.asarray(payload["x"], dtype=np.float64)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed graph payload: {exc}") from exc
    if x.ndim != 2:
        raise ValueError(f"x must be a 2-d feature matrix, got {x.ndim}-d")
    return Graph(num_nodes, edges, x)


def _is_json(value, kinds) -> bool:
    # ``bool`` subclasses ``int``: ``true`` is neither a count nor a time.
    return isinstance(value, kinds) and not isinstance(value, bool)


def payload_from_graph(graph: Graph) -> dict:
    """Inverse of :func:`graph_from_payload` (client-side convenience)."""
    return {"num_nodes": int(graph.num_nodes),
            "edges": np.asarray(graph.edges).tolist(),
            "x": np.asarray(graph.x).tolist()}


class _Handler(BaseHTTPRequestHandler):
    """Routes the three endpoints onto ``self.server.service``."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # Replies leave in two writes (headers, then body).  With Nagle on, a
    # keep-alive client's delayed ACK holds the second write back ~40 ms.
    disable_nagle_algorithm = True

    # BaseHTTPRequestHandler logs every request to stderr; serving should
    # account through the metric registry instead of a text log.
    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        pass

    @property
    def service(self) -> EmbeddingService:
        return self.server.service

    def _reply(self, status: int, payload: dict,
               headers: dict | None = None) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
        if self.path == "/healthz":
            self._reply(200, self.service.health())
        elif self.path == "/metrics":
            self._reply(200, self.service.metrics_snapshot())
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}; "
                                       "endpoints: /embed /healthz /metrics"})

    def do_POST(self) -> None:  # noqa: N802 (stdlib casing)
        if self.path != "/embed":
            self._reply(404, {"error": f"unknown path {self.path!r}; "
                                       "POST to /embed"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            if length <= 0:
                raise ValueError("empty request body")
            if length > MAX_BODY_BYTES:
                self._reply(413, {"error": f"request body of {length} bytes "
                                           f"exceeds {MAX_BODY_BYTES}"})
                return
            request = json.loads(self.rfile.read(length))
            entries = (request.get("graphs") if isinstance(request, dict)
                       else None)
            if not isinstance(entries, list) or not entries:
                raise ValueError('body must be {"graphs": [...]} with at '
                                 "least one graph")
            deadline_ms = request.get("deadline_ms")  # range: the batcher
            if deadline_ms is not None and not _is_json(deadline_ms,
                                                        (int, float)):
                raise ValueError(f"deadline_ms must be a number of "
                                 f"milliseconds, got {deadline_ms!r}")
            graphs = [graph_from_payload(entry) for entry in entries]
            embeddings = self.service.embed_graphs(graphs,
                                                   deadline_ms=deadline_ms)
        except ServiceOverloaded as exc:
            self._reply(429, {"error": str(exc)}, {"Retry-After": "1"})
            return
        except ServiceTimeout as exc:
            self._reply(504, {"error": str(exc)}, {"Retry-After": "1"})
            return
        except (ValueError, json.JSONDecodeError) as exc:
            self._reply(400, {"error": str(exc)})
            return
        except Exception as exc:  # pragma: no cover - defensive 500
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        self._reply(200, {"embeddings": embeddings.tolist(),
                          "dim": int(embeddings.shape[1]),
                          "count": int(embeddings.shape[0])})


class EmbeddingHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`EmbeddingService`.

    ``daemon_threads`` keeps a hung client from blocking shutdown;
    :meth:`shutdown` (inherited) stops the accept loop, after which the
    owner closes the service to drain the batcher.
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: EmbeddingService):
        super().__init__(address, _Handler)
        self.service = service


def make_server(service: EmbeddingService, host: str = "127.0.0.1",
                port: int = 8080) -> EmbeddingHTTPServer:
    """Bind (but do not start) the serving endpoint; ``port=0`` picks a
    free port (``server.server_address`` reports the bound one)."""
    return EmbeddingHTTPServer((host, port), service)


def install_drain_handler(server: EmbeddingHTTPServer,
                          signals=(signal.SIGTERM,)) -> dict:
    """Make SIGTERM a graceful drain instead of a hard kill.

    The handler asks the server to stop accepting (``shutdown`` must run
    off the serve_forever thread, hence the helper thread); in-flight
    requests finish on their daemon handler threads, ``serve_forever``
    returns, and the owner's teardown path (close the service, journal the
    final metrics snapshot) runs exactly as on Ctrl-C.  Returns the
    previous handlers keyed by signal, for callers that restore them.
    """
    def _drain(signum, frame):
        threading.Thread(target=server.shutdown,
                         name="repro-serve-drain", daemon=True).start()

    return {sig: signal.signal(sig, _drain) for sig in signals}
