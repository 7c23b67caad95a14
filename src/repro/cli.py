"""Command-line interface for the GradGCL reproduction.

Subcommands
-----------
``run``
    The unified experiment runner: build a :class:`repro.run.RunConfig`
    from a JSON config file and/or flags, train via the registry-driven
    :class:`repro.run.Trainer`, evaluate, and optionally checkpoint.
    ``--list-methods`` enumerates every registered method;
    ``--resume RUN_DIR`` continues an interrupted run bit-identically.
``datasets``
    Print the statistics tables (paper Tables I/II/III) of the synthetic
    benchmark registry.
``spectrum``
    Collapse analysis: train SimGRACE at a gradient weight and print the
    covariance spectrum summary.
``flow``
    Run the Lemma 2/3 linear-encoder gradient-flow simulation.
``report``
    Render the JSONL telemetry journal of a ``--run-dir`` training run as
    text tables (config, per-epoch losses/grad-norms/throughput, collapse
    spectrum, span timings, engine counters, metric snapshots — including
    the serving counters a ``repro serve`` session journals).
``serve``
    Embedding inference service: load a frozen encoder from a
    checkpointed run directory and serve ``/embed`` / ``/healthz`` /
    ``/metrics`` over HTTP with dynamic micro-batching, an embedding LRU
    cache, and bounded-queue load shedding.
``embed``
    Offline bulk embedding: run the same frozen encoder over a whole
    dataset and write ``embeddings.npz`` (the byte-exact reference for
    the served numbers).

Examples::

    repro run --list-methods
    repro run --method SimGRACE --weight 0.5 --dataset MUTAG
    repro run config.json --epochs 40 --run-dir runs/exp1
    repro run --resume runs/exp1
    repro datasets --family tu
    repro run --method GraphCL --epochs 2 --run-dir runs/smoke
    repro report runs/smoke
    repro run --method GRACE --dataset Cora --weight 0.2
    repro spectrum --dataset IMDB-B --weight 0.5
    repro flow --weight 0.5
    repro serve --run-dir runs/exp1 --port 8080
    repro embed --run-dir runs/exp1 --out embeddings.npz
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.run.config import ConfigError
from repro.run.registry import method_names
from repro.utils.seed import seeded_rng

__all__ = ["main", "build_parser"]

_SCALES = ["tiny", "small", "paper"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GradGCL (ICDE 2024) reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    rn = sub.add_parser(
        "run", help="run (or resume) an experiment from a config/flags")
    rn.add_argument("config", nargs="?", default=None,
                    help="JSON RunConfig file; flags override its fields")
    rn.add_argument("--list-methods", action="store_true",
                    help="print every registered method and exit")
    rn.add_argument("--resume", default=None, metavar="RUN_DIR",
                    help="continue an interrupted run from its directory")
    rn.add_argument("--method", choices=method_names(), default=None)
    rn.add_argument("--level", choices=["graph", "node"], default=None,
                    help="training level (inferred from the method when "
                         "unambiguous)")
    rn.add_argument("--dataset", default=None)
    rn.add_argument("--scale", choices=_SCALES, default=None)
    rn.add_argument("--weight", type=float, default=None,
                    help="gradient-loss weight a (0 = base model)")
    rn.add_argument("--epochs", type=int, default=None)
    rn.add_argument("--batch-size", type=int, default=None)
    rn.add_argument("--lr", type=float, default=None)
    rn.add_argument("--weight-decay", type=float, default=None)
    rn.add_argument("--grad-clip", type=float, default=None)
    rn.add_argument("--patience", type=int, default=None,
                    help="early-stopping patience in epochs")
    rn.add_argument("--min-delta", type=float, default=None,
                    help="early-stopping improvement threshold")
    rn.add_argument("--seed", type=int, default=None)
    rn.add_argument("--hidden-dim", type=int, default=None)
    rn.add_argument("--out-dim", type=int, default=None)
    rn.add_argument("--layers", type=int, default=None)
    rn.add_argument("--workers", type=int, default=None,
                    help="augmentation worker processes; only 0 is "
                         "accepted (views are generated in-process)")
    rn.add_argument("--eval-workers", type=int, default=None,
                    help="evaluation worker processes for parallel "
                         "cross-validation; results are identical at "
                         "every count (default: REPRO_EVAL_WORKERS or "
                         "0 = serial)")
    rn.add_argument("--run-dir", default=None,
                    help="journal + config + checkpoint directory")
    rn.add_argument("--spectrum-every", type=int, default=None)
    rn.add_argument("--checkpoint-every", type=int, default=None,
                    help="write a resumable checkpoint every N epochs "
                         "(requires --run-dir)")
    rn.add_argument("--stop-after", type=int, default=None,
                    help="simulate an interruption after N epochs "
                         "(for resume drills)")
    rn.add_argument("--retries", type=int, default=None,
                    help="auto-resume from the last checkpoint up to N "
                         "times when a recoverable fault (worker crash, "
                         "IO error, injected fault) interrupts training "
                         "(requires --run-dir)")
    rn.add_argument("--fault-plan", default=None, metavar="PLAN_JSON",
                    help="activate a deterministic fault-injection plan "
                         "for this run (chaos drills; see "
                         "docs/robustness.md)")
    rn.add_argument("--save", default=None,
                    help="path to save the trained encoder (.npz)")
    rn.add_argument("--no-cache", action="store_true",
                    help="disable the persistent structure cache "
                         "(MVGRL's PPR/heat diffusion reuse across epochs)")
    rn.add_argument("--cache-entries", type=int, default=None,
                    help="structure-cache LRU bound (default: 1024)")

    ds = sub.add_parser("datasets", help="print benchmark statistics")
    ds.add_argument("--family", choices=["tu", "node", "molecule", "all"],
                    default="all")
    ds.add_argument("--scale", default="small", choices=_SCALES)
    ds.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("spectrum", help="collapse spectrum analysis")
    sp.add_argument("--dataset", default="IMDB-B")
    sp.add_argument("--weight", type=float, default=0.0)
    sp.add_argument("--epochs", type=int, default=60)
    sp.add_argument("--scale", default="small", choices=_SCALES)
    sp.add_argument("--seed", type=int, default=0)

    fl = sub.add_parser("flow",
                        help="Lemma 2/3 linear gradient-flow simulation")
    fl.add_argument("--weight", type=float, default=0.0)
    fl.add_argument("--steps", type=int, default=200)
    fl.add_argument("--samples", type=int, default=32)
    fl.add_argument("--dim", type=int, default=10)
    fl.add_argument("--seed", type=int, default=0)

    rp = sub.add_parser("report",
                        help="render a run-dir telemetry journal as tables")
    rp.add_argument("run_dir", help="directory holding events.jsonl")
    rp.add_argument("--spectrum-top", type=int, default=8,
                    help="how many leading singular values to print")

    sv = sub.add_parser("serve",
                        help="serve embeddings from a checkpointed run "
                             "over HTTP with dynamic micro-batching")
    sv.add_argument("--run-dir", required=True,
                    help="run directory holding config.json + checkpoint "
                         "(written by repro run --checkpoint-every)")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8080,
                    help="listen port (0 picks a free one)")
    _add_inference_arguments(sv)
    sv.add_argument("--max-batch-size", type=int, default=64,
                    help="coalesce at most this many graphs per forward")
    sv.add_argument("--queue-size", type=int, default=128,
                    help="bounded request queue; beyond it requests shed "
                         "with HTTP 429 instead of queueing latency")
    sv.add_argument("--deadline-ms", type=float, default=None,
                    help="default per-request deadline; a request that "
                         "misses it gets HTTP 504 instead of waiting "
                         "(default: REPRO_DEADLINE_MS or 30000)")
    sv.add_argument("--forward-timeout-ms", type=float, default=None,
                    help="watchdog threshold for a hung forward: past it "
                         "the batch is tombstoned and a fresh worker "
                         "takes over (default: REPRO_FORWARD_TIMEOUT_MS "
                         "or the deadline)")
    sv.add_argument("--cache-entries", type=int, default=None,
                    help="embedding LRU bound (0 disables the cache; "
                         "default: 4096)")
    sv.add_argument("--journal-dir", default=None,
                    help="append a serving metrics event to this journal "
                         "directory on shutdown")

    em = sub.add_parser("embed",
                        help="bulk-embed a dataset with a checkpointed "
                             "encoder into an .npz file")
    em.add_argument("--run-dir", default=None,
                    help="run directory holding config.json + checkpoint "
                         "(required unless --remote)")
    em.add_argument("--remote", default=None, metavar="URL",
                    help="embed through a live repro serve endpoint "
                         "instead of a local checkpoint; requests retry "
                         "with exponential backoff on 429/504")
    em.add_argument("--retries", type=int, default=4,
                    help="max retries per request with --remote")
    em.add_argument("--deadline-ms", type=float, default=None,
                    help="per-request deadline_ms forwarded to the "
                         "server with --remote")
    em.add_argument("--out", required=True,
                    help="output .npz path (embeddings + labels + "
                         "provenance)")
    em.add_argument("--dataset", default=None,
                    help="dataset to embed (default: the one the "
                         "checkpoint was trained on)")
    em.add_argument("--scale", choices=_SCALES, default=None)
    em.add_argument("--seed", type=int, default=None)
    em.add_argument("--batch-size", type=int, default=128,
                    help="graphs per block-diagonal forward chunk")
    _add_inference_arguments(em)
    return parser


def _add_inference_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dtype", choices=["float32", "float64"],
                     default="float32",
                     help="inference dtype (float32 serves ~2x faster; "
                          "float64 reproduces training-precision numbers)")


# ----------------------------------------------------------------------
# The unified runner
# ----------------------------------------------------------------------

#: run-subcommand flag -> RunConfig field (identity unless noted).
_RUN_CONFIG_FLAGS = {
    "method": "method", "level": "level", "dataset": "dataset",
    "scale": "scale", "weight": "weight", "epochs": "epochs",
    "batch_size": "batch_size", "lr": "lr",
    "weight_decay": "weight_decay", "grad_clip": "grad_clip",
    "patience": "patience", "min_delta": "min_delta", "seed": "seed",
    "hidden_dim": "hidden_dim",
    "out_dim": "out_dim", "layers": "num_layers", "workers": "workers",
    "eval_workers": "eval_workers",
    "cache_entries": "cache_entries", "run_dir": "run_dir",
    "spectrum_every": "spectrum_every",
    "checkpoint_every": "checkpoint_every", "save": "save",
}


def _print_run_result(result) -> int:
    """Human summary of a RunResult (``run`` and ``run --resume``)."""
    config = result.config
    if result.interrupted:
        done = len(result.history.losses) if result.history else 0
        print(f"{config.method}(a={config.weight}) on {config.dataset}: "
              f"interrupted after {done}/{config.epochs} epochs")
        if config.run_dir:
            print(f"resume with: repro run --resume {config.run_dir}")
        return 0
    line = (f"{config.method}(a={config.weight}) on {config.dataset}: "
            f"accuracy {result.accuracy:.2f}±{result.accuracy_std:.2f}%  ")
    if result.effective_rank is not None:
        line += f"effective-rank {result.effective_rank:.2f}  "
    line += (f"final-loss {result.history.final_loss:.3f}  "
             f"time {result.history.total_seconds:.1f}s")
    print(line)
    if result.journal_path is not None:
        print(f"journal written to {result.journal_path}")
    if result.saved_to is not None:
        print(f"encoder saved to {result.saved_to}")
    return 0


def _cmd_run(args) -> int:
    import dataclasses

    from repro.run import RunConfig, execute_run, list_methods, resume_run
    from repro.utils import print_table

    if args.list_methods:
        rows = [[e.name, e.level, e.cls.__name__, e.summary]
                for e in list_methods()]
        print_table("Registered methods",
                    ["Method", "Level", "Class", "Summary"], rows)
        return 0
    from repro.faults import FaultPlan, use_fault_plan

    plan = (FaultPlan.from_file(args.fault_plan)
            if args.fault_plan is not None else None)
    with use_fault_plan(plan):
        if args.resume is not None:
            return _print_run_result(
                resume_run(args.resume, stop_after=args.stop_after))
        overrides = {field: getattr(args, flag)
                     for flag, field in _RUN_CONFIG_FLAGS.items()
                     if getattr(args, flag) is not None}
        if args.no_cache:
            overrides["cache"] = False
        if args.config is not None:
            config = dataclasses.replace(RunConfig.from_file(args.config),
                                         **overrides)
        else:
            config = RunConfig(**overrides)
        return _print_run_result(execute_run(config,
                                             stop_after=args.stop_after,
                                             retries=args.retries or 0))


def _cmd_datasets(args) -> int:
    from repro.datasets import (
        load_molecule_dataset,
        load_node_dataset,
        load_tu_dataset,
        molecule_dataset_names,
        node_dataset_names,
        tu_dataset_names,
    )
    from repro.utils import print_table

    if args.family in ("tu", "all"):
        rows = []
        for name in tu_dataset_names():
            stats = load_tu_dataset(name, scale=args.scale,
                                    seed=args.seed).statistics()
            rows.append([stats["name"], stats["category"],
                         stats["num_graphs"], stats["num_classes"],
                         f"{stats['avg_nodes']:.2f}",
                         f"{stats['avg_edges']:.2f}"])
        print_table("Table I: graph-classification datasets",
                    ["Dataset", "Category", "Graphs", "Classes",
                     "Avg. nodes", "Avg. edges"], rows)
    if args.family in ("node", "all"):
        rows = []
        for name in node_dataset_names():
            stats = load_node_dataset(name, scale=args.scale,
                                      seed=args.seed).statistics()
            rows.append([stats["name"], stats["nodes"], stats["edges"],
                         stats["features"], stats["classes"]])
        print_table("Table II: node-classification datasets",
                    ["Dataset", "Nodes", "Edges", "Features", "Classes"],
                    rows)
    if args.family in ("molecule", "all"):
        rows = []
        for name in molecule_dataset_names():
            stats = load_molecule_dataset(name, scale=args.scale,
                                          seed=args.seed).statistics()
            rows.append([stats["name"], stats["num_graphs"],
                         f"{stats['avg_nodes']:.2f}"])
        print_table("Table III: transfer-learning finetune datasets",
                    ["Dataset", "Graphs", "Avg. nodes"], rows)
    return 0


def _cmd_spectrum(args) -> int:
    from repro.core import (
        effective_rank,
        gradgcl,
        num_collapsed_dimensions,
    )
    from repro.datasets import load_tu_dataset
    from repro.methods import SimGRACE
    from repro.run import GraphSteps, Trainer

    dataset = load_tu_dataset(args.dataset, scale=args.scale,
                              seed=args.seed)
    rng = seeded_rng(args.seed)
    method = SimGRACE(dataset.num_features, 32, 2, rng=rng,
                      perturb_magnitude=0.5)
    if args.weight > 0:
        method = gradgcl(method, args.weight)
    Trainer(method, GraphSteps(dataset.graphs, batch_size=64,
                               seed=args.seed),
            epochs=args.epochs, lr=3e-3, weight_decay=3e-2).fit()
    embeddings = method.embed(dataset.graphs)
    print(f"SimGRACE(a={args.weight}) on {args.dataset}: "
          f"effective-rank {effective_rank(embeddings):.2f}"
          f"/{embeddings.shape[1]}  "
          f"collapsed-dims "
          f"{num_collapsed_dimensions(embeddings, tol=1e-4)}")
    return 0


def _cmd_flow(args) -> int:
    from repro.core import simulate_gradient_flow

    rng = seeded_rng(args.seed)
    x = rng.normal(size=(args.samples, args.dim))
    x_pos = x + 0.1 * rng.normal(size=x.shape)
    result = simulate_gradient_flow(x, x_pos, dim_out=args.dim,
                                    steps=args.steps,
                                    gradient_weight=args.weight,
                                    seed=args.seed)
    print(f"gradient flow (a={args.weight}, {args.steps} steps): "
          f"embedding rank {result.embedding_ranks[0]:.2f} -> "
          f"{result.final_embedding_rank:.2f}, "
          f"weight rank -> {result.final_weight_rank:.2f}, "
          f"loss -> {result.losses[-1]:.4f}")
    return 0


def _judge_serve_flags(args) -> None:
    """Reject bad ``repro serve`` values before the checkpoint loads."""
    from repro.serve.batcher import check_deadline_ms
    from repro.utils.checks import check_count

    try:
        check_count(args.max_batch_size, "max_batch_size")
        check_count(args.queue_size, "queue_size")
        if args.cache_entries is not None and args.cache_entries != 0:
            check_count(args.cache_entries, "cache_entries")
        for name in ("deadline_ms", "forward_timeout_ms"):
            if getattr(args, name) is not None:
                check_deadline_ms(getattr(args, name), name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_serve(args) -> int:
    from repro.serve import (
        EmbeddingService,
        FrozenEncoder,
        install_drain_handler,
        make_server,
    )

    _judge_serve_flags(args)
    encoder = FrozenEncoder.from_checkpoint(args.run_dir, dtype=args.dtype)
    service = EmbeddingService(encoder,
                               max_batch_size=args.max_batch_size,
                               queue_size=args.queue_size,
                               deadline_ms=args.deadline_ms,
                               forward_timeout_ms=args.forward_timeout_ms,
                               cache_entries=args.cache_entries)
    server = make_server(service, host=args.host, port=args.port)
    install_drain_handler(server)
    host, port = server.server_address[:2]
    info = encoder.describe()
    print(f"serving {info['method']}(a={info['gradgcl_weight']}) "
          f"[{info['dataset']}, {info['embedding_dim']}-d {info['dtype']}] "
          f"on http://{host}:{port}  (POST /embed, GET /healthz /metrics; "
          "Ctrl-C to stop, SIGTERM to drain)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
        snapshot = service.metrics_snapshot()
        if args.journal_dir is not None:
            from repro.obs import RunJournal

            with RunJournal(args.journal_dir, append=True) as journal:
                journal.log("metrics", **snapshot)
                journal.log("note",
                            message="repro serve session closed",
                            config_hash=encoder.config_hash)
        requests = snapshot.get("serve.requests", 0)
        batches = snapshot.get("serve.batches", 0)
        shed = snapshot.get("serve.shed", 0)
        print(f"\nserved {requests} request(s) in {batches} forward "
              f"batch(es), shed {shed}")
    return 0


def _cmd_embed(args) -> int:
    if args.remote is not None:
        from repro.faults import RetryPolicy
        from repro.serve import ServingClient, embed_remote

        client = ServingClient(args.remote,
                               policy=RetryPolicy(retries=args.retries),
                               deadline_ms=args.deadline_ms)
        summary = embed_remote(args.remote, args.out,
                               dataset=args.dataset, scale=args.scale,
                               seed=args.seed, batch_size=args.batch_size,
                               client=client)
        print(f"embedded {summary['num_graphs']} {summary['dataset']} "
              f"graphs ({summary['scale']}, seed {summary['seed']}) via "
              f"{args.remote} into {summary['dim']}-d {summary['dtype']} "
              f"rows -> {summary['out']} [config {summary['config_hash']}; "
              f"{summary['attempts']} request(s), "
              f"{summary['retries']} retried]")
        return 0
    if args.run_dir is None:
        raise SystemExit("repro embed: --run-dir is required "
                         "(or use --remote URL)")
    from repro.serve import embed_dataset

    summary = embed_dataset(args.run_dir, args.out, dataset=args.dataset,
                            scale=args.scale, seed=args.seed,
                            batch_size=args.batch_size, dtype=args.dtype)
    print(f"embedded {summary['num_graphs']} {summary['dataset']} graphs "
          f"({summary['scale']}, seed {summary['seed']}) into "
          f"{summary['dim']}-d {summary['dtype']} rows -> {summary['out']} "
          f"[config {summary['config_hash']}]")
    return 0


def _fmt(value, digits: int = 4) -> str:
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    if isinstance(value, dict):
        # Histogram snapshots ({count, total, mean, p50, p95}) and other
        # structured metric values render as compact k=v lists.
        return "  ".join(f"{k}={_fmt(v)}" for k, v in value.items())
    return str(value)


def _cmd_report(args) -> int:
    from repro.obs import events_of, validate_journal
    from repro.utils import print_table

    events = validate_journal(args.run_dir)

    for config in events_of(events, "config"):
        rows = [[key, _fmt(value)] for key, value in sorted(config.items())
                if key not in ("event", "ts")]
        print_table("Run config", ["Field", "Value"], rows)

    epochs = events_of(events, "epoch")
    if epochs:
        throughput_key = ("graphs_per_sec" if "graphs_per_sec" in epochs[0]
                          else "nodes_per_sec")
        rows = [[e["epoch"], _fmt(e.get("loss")), _fmt(e.get("loss_f", "-")),
                 _fmt(e.get("loss_g", "-")), _fmt(e.get("grad_norm", "-")),
                 _fmt(e.get("seconds")), _fmt(e.get(throughput_key, "-"))]
                for e in epochs]
        print_table("Epochs",
                    ["Epoch", "Loss", "loss_f", "loss_g", "Grad norm",
                     "Seconds", throughput_key.replace("_per_sec", "/s")],
                    rows)

    spectra = events_of(events, "spectrum")
    if spectra:
        rows = []
        for e in spectra:
            values = e.get("singular_values", [])
            head = "  ".join(_fmt(v, 3) for v in values[:args.spectrum_top])
            if len(values) > args.spectrum_top:
                head += "  ..."
            rows.append([e.get("epoch"), _fmt(e.get("effective_rank")),
                         e.get("collapsed_dims"), head])
        print_table("Collapse spectrum (Figs. 1/5)",
                    ["Epoch", "Eff. rank", "Collapsed", "Top singular "
                     "values"], rows)

    for ev in events_of(events, "eval"):
        rows = [[key, _fmt(value)] for key, value in sorted(ev.items())
                if key not in ("event", "ts")]
        print_table("Evaluation", ["Field", "Value"], rows)

    for tr in events_of(events, "trace"):
        rows = [[path, stats["count"], _fmt(stats["total"]),
                 _fmt(stats["p50"]), _fmt(stats["p95"])]
                for path, stats in sorted(tr.get("spans", {}).items())]
        print_table("Span timings",
                    ["Span", "Count", "Total s", "p50 s", "p95 s"], rows)

    for eng in events_of(events, "engine"):
        rows = [[key, _fmt(value)] for key, value in sorted(eng.items())
                if key not in ("event", "ts")]
        print_table("Tensor engine", ["Counter", "Value"], rows)

    for met in events_of(events, "metrics"):
        # Render every key generically (structure-cache counters, serving
        # counters, future instruments) instead of dropping unknown names.
        rows = [[key, _fmt(value)] for key, value in sorted(met.items())
                if key not in ("event", "ts")]
        title = ("Serving metrics"
                 if any(key.startswith("serve.") for key in met)
                 else "Metrics")
        print_table(title, ["Name", "Value"], rows)

    for table in events_of(events, "bench_table"):
        print_table(table.get("title", table.get("name", "bench")),
                    table.get("headers", []), table.get("rows", []))

    for end in events_of(events, "run_end"):
        rows = [[key, _fmt(value)] for key, value in sorted(end.items())
                if key not in ("event", "ts")]
        print_table("Run end", ["Field", "Value"], rows)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "datasets": _cmd_datasets,
    "spectrum": _cmd_spectrum,
    "flow": _cmd_flow,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "embed": _cmd_embed,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        # A run that cannot start is a usage error, reported the way
        # argparse reports one; errors raised while training propagate.
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
