"""Start ``repro serve`` with the serving layers' spans recorded.

    python -u perfbench/serve_launcher.py --trace-out FILE -- serve ARGS...

Installs the benchmark's wrappers around the public serving callables,
then runs the same ``repro.cli`` entry point as ``python -m repro.cli``.
When the server drains (SIGTERM), the spans are written to ``FILE``.
The request span carries the client's op id from the ``X-Bench-Op``
header; the batcher's forward spans carry the identities of the graphs
they embedded, which link each forward to the submits that rode it.
"""

from __future__ import annotations

import argparse
import sys

from spans import SpanRecorder

OP_HEADER = "X-Bench-Op"


def _graph_ids(args) -> list[int]:
    return [id(graph) for graph in args[1]]


def install_layer_spans(recorder: SpanRecorder) -> None:
    """Wrap the HTTP handler, payload decode, service, cache, batcher
    submit and encoder forward."""
    from repro.serve import (
        EmbeddingCache,
        EmbeddingService,
        FrozenEncoder,
        MicroBatcher,
        http,
    )

    recorder.wrap(http._Handler, "do_POST", "http.request",
                  op=lambda args: args[0].headers.get(OP_HEADER))
    recorder.wrap(http, "graph_from_payload", "http.decode")
    recorder.wrap(EmbeddingService, "embed_graphs", "serve.service")
    recorder.wrap(EmbeddingCache, "get", "serve.cache")
    recorder.wrap(EmbeddingCache, "put", "serve.cache")
    recorder.wrap(MicroBatcher, "submit", "serve.submit", keys=_graph_ids)
    recorder.wrap(FrozenEncoder, "embed", "serve.forward", keys=_graph_ids)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv[:split])

    from repro.cli import main as cli_main

    recorder = SpanRecorder()
    install_layer_spans(recorder)
    try:
        return cli_main(argv[split + 1:])
    finally:
        recorder.write(args.trace_out)


if __name__ == "__main__":
    raise SystemExit(main())
