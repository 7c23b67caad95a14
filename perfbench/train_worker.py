"""train-gradgcl worker: GradGCL-wrapped GraphCL on NCI1, one op per step.

Run by ``run.py`` in a fresh process::

    python -u perfbench/train_worker.py --seed 0 --seconds 20 [--setup-only]
        [--trace-out FILE]

Set-up (imports, dataset generation, method and trainer build, all with
the repository defaults for a graph run) ends with a ``READY`` line.  The
first epoch is warm-up (it fills the structure cache); the following
epochs are timed until ``--seconds`` have passed, closing at an epoch end.
One op is one optimizer step.  Step boundaries are taken where the
trainer calls ``method.training_loss``; the gap between an epoch end and
the next epoch's first step (loader reshuffle, first batch) counts
towards that first step, so the ops tile the timed phase.

After the timed phase the worker checks outputs (every epoch loss finite;
on the last batch the fused loss equals the ``fused_kernels(False)`` loss
within 1e-9 relative), measures SVM accuracy of the trained encoder, and
prints one JSON object.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from harness import emit, latency_metrics, peak_rss_mb
from repro.run import Callback

WARMUP_EPOCHS = 1
FUSED_RTOL = 1e-9


def install_layer_spans(recorder) -> None:
    """Wrap the public callables of every layer a training step calls."""
    from repro.core import GradGCLObjective, InfoNCEObjective
    from repro.gnn import GINEncoder, ProjectionHead
    from repro.graph import GraphBatch
    from repro.nn import Adam
    from repro.nn.optim import Optimizer
    from repro.pipeline import ViewGenerator
    from repro.tensor import Tensor

    recorder.wrap(ViewGenerator, "generate", "augment.views")
    recorder.wrap(GraphBatch, "__init__", "graph.batch")
    recorder.wrap(GraphBatch, "adjacency", "graph.batch")
    recorder.wrap(GINEncoder, "forward", "gnn.encoder")
    recorder.wrap(ProjectionHead, "forward", "gnn.projector")
    recorder.wrap(InfoNCEObjective, "loss", "losses.loss_f")
    recorder.wrap(InfoNCEObjective, "gradient_features",
                  "core.gradient_features")
    recorder.wrap(GradGCLObjective, "gradient_loss", "core.loss_g")
    recorder.wrap(Tensor, "backward", "tensor.backward")
    recorder.wrap(Adam, "step", "nn.optimizer")
    recorder.wrap(Optimizer, "zero_grad", "nn.optimizer")


class StepClock(Callback):
    """Op boundaries of the timed phase (see the module docstring).

    Also checks every epoch's loss and stops training once ``seconds`` of
    timed epochs have passed.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.timing = False
        self.open = False
        self.mark = 0.0
        self.began = 0.0
        self.cache_at_start: dict = {}
        self.windows: list[tuple[float, float]] = []
        self.graphs: list[int] = []
        self.last_batch = None

    def on_step(self, batch) -> None:
        now = time.perf_counter()
        self.last_batch = batch
        if not self.timing:
            return
        if self.open:
            self.windows.append((self.mark, now))
            self.mark = now
        self.open = True
        self.graphs.append(batch.num_graphs)

    def on_epoch_end(self, trainer, epoch: int) -> None:
        now = time.perf_counter()
        if not math.isfinite(trainer.history.losses[-1]):
            raise FloatingPointError(f"epoch {epoch} loss is not finite")
        if self.timing:
            if self.open:
                self.windows.append((self.mark, now))
            self.open = False
            self.mark = now
            if now - self.began >= self.seconds:
                self.timing = False
                trainer.request_stop()
        elif epoch + 1 >= WARMUP_EPOCHS:
            self.cache_at_start = trainer.structure_cache.stats()
            self.timing = True
            self.began = self.mark = time.perf_counter()


def build(seed: int, seconds: float):
    """Dataset, GradGCL(GraphCL) method and trainer with repo defaults."""
    from repro.core import gradgcl
    from repro.datasets import load_tu_dataset
    from repro.pipeline import StructureCache
    from repro.run import RunConfig, Trainer, get_method
    from repro.run.trainer import GraphSteps
    from repro.utils.seed import seeded_rng

    config = RunConfig(method="GraphCL", dataset="NCI1", scale="small",
                       weight=0.5, seed=seed, workers=0).resolve()
    dataset = load_tu_dataset(config.dataset, scale=config.scale,
                              seed=config.seed)
    method = get_method(config.method, config.level).build(
        dataset.num_features, rng=seeded_rng(config.seed),
        hidden_dim=config.hidden_dim, out_dim=config.out_dim,
        num_layers=config.num_layers)
    method = gradgcl(method, config.weight)
    clock = StepClock(seconds)
    trainer = Trainer(
        method, GraphSteps(dataset.graphs, batch_size=config.batch_size,
                           seed=config.seed),
        epochs=10 ** 6, lr=config.lr, workers=config.workers,
        structure_cache=StructureCache(max_entries=config.cache_entries),
        callbacks=[clock])
    return config, dataset, method, trainer, clock


def fused_matches_reference(method, batch) -> tuple[bool, float, float]:
    """Loss of one fixed pair of views with fused and reference kernels."""
    from repro.tensor import fused_kernels

    pair = method.view_generator.generate(batch)
    values = []
    for fused in (True, False):
        batch.__dict__["_precomputed_views"] = pair
        with fused_kernels(fused):
            values.append(method.training_loss(batch).item())
    fast, reference = values
    ok = (math.isfinite(fast) and
          abs(fast - reference) <= FUSED_RTOL * abs(reference))
    return ok, fast, reference


def layer_breakdown(spans, windows, cache_hits: int,
                    cache_lookups: int) -> dict:
    """Per-op mean self time of every training layer."""
    from spans import NAME, assign_to_windows, self_times

    names = ("augment.views", "graph.batch", "gnn.encoder",
             "gnn.projector", "losses.loss_f", "core.gradient_features",
             "core.loss_g", "tensor.backward", "nn.optimizer")
    totals = dict.fromkeys(names, 0.0)
    for span, own, op in zip(spans, self_times(spans),
                             assign_to_windows(spans, windows)):
        if op >= 0:
            totals[span[NAME]] += own
    op_total = sum(end - start for start, end in windows)
    attributed = sum(totals.values())
    n = len(windows)
    out = {f"{name}_ms": 1000.0 * value / n for name, value in totals.items()}
    out["run.trainer_other_ms"] = 1000.0 * (op_total - attributed) / n
    out["run.op_ms.mean"] = 1000.0 * op_total / n
    out["run.coverage_pct"] = 100.0 * attributed / op_total
    out["core.gradgcl_share_pct"] = 100.0 * (
        totals["core.gradient_features"] + totals["core.loss_g"]) / op_total
    out["pipeline.structure_cache.hit_ratio"] = (
        cache_hits / cache_lookups if cache_lookups else 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    config, dataset, method, trainer, clock = build(args.seed, args.seconds)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    inner = method.training_loss

    def timed_training_loss(batch):
        clock.on_step(batch)
        return inner(batch)

    method.training_loss = timed_training_loss
    recorder = None
    if args.trace_out:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        install_layer_spans(recorder)
    failed = 0
    try:
        trainer.fit()
    except FloatingPointError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        failed = 1
    finally:
        if recorder is not None:
            recorder.unwrap_all()
    method.training_loss = inner
    timed_s = sum(end - start for start, end in clock.windows)
    result = {"failed": failed, "attempted": len(clock.windows) + failed,
              "warmup": f"{WARMUP_EPOCHS} epoch(s)",
              "epochs": len(trainer.history.losses)}
    if failed or not clock.windows:
        emit({**result, "correct": False})
        return 0
    result["metrics"] = latency_metrics(
        [1000.0 * (end - start) for start, end in clock.windows], timed_s,
        sum(clock.graphs))
    ok, fast, reference = fused_matches_reference(method, clock.last_batch)
    result["checks"] = {"losses_finite": all(
        math.isfinite(loss) for loss in trainer.history.losses),
        "fused_loss": fast, "reference_loss": reference, "fused_ok": ok}
    result["correct"] = all(result["checks"][key]
                            for key in ("losses_finite", "fused_ok"))
    if recorder is not None:
        recorder.write(args.trace_out)
        end, start = trainer.structure_cache.stats(), clock.cache_at_start
        hits = end["hits"] - start["hits"]
        result["layers"] = layer_breakdown(
            recorder.spans, clock.windows, hits,
            hits + end["misses"] - start["misses"])
    from repro.eval import evaluate_graph_embeddings

    result["metrics"]["accuracy_pct"], _ = evaluate_graph_embeddings(
        method.embed(dataset.graphs), dataset.labels(), seed=config.seed,
        eval_workers=0)
    result["metrics"]["peak_rss_mb"] = peak_rss_mb()
    emit(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
