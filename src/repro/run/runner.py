"""Config-driven experiment execution: build, run, evaluate, resume.

This module turns a :class:`~repro.run.RunConfig` into a finished
experiment: dataset loading, registry-based method construction, GradGCL
wrapping, journal + checkpoint wiring, training via the unified
:class:`~repro.run.Trainer`, and the level-appropriate evaluation
protocol (SVM for graph embeddings, linear probe for node embeddings).

``repro run`` calls :func:`execute_run` (or :func:`resume_run` with
``--resume``).  Heavy imports (datasets, methods, eval) happen inside
functions so that importing :mod:`repro.run` stays light.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from ..faults import FaultInjected
from ..faults import record as _record_fault
from .callbacks import StopAfter, TrainingInterrupted
from .config import CONFIG_FILENAME, ConfigError, RunConfig
from .registry import get_method
from .state import TrainState

__all__ = ["RunResult", "execute_run", "resume_run", "prepare_resume"]

#: Exceptions :func:`execute_run` treats as transient when ``retries > 0``:
#: chaos-injected faults and worker/IO failures.  Anything else (config
#: errors, non-finite losses, interrupts) fails the run immediately.
RECOVERABLE_FAULTS = (FaultInjected, OSError)


@dataclass
class RunResult:
    """Outcome of one :func:`execute_run` / :func:`resume_run` call."""

    config: RunConfig                 # the resolved config that ran
    history: object                   # TrainHistory (None when interrupted
    #                                   before any epoch completed)
    accuracy: float | None = None
    accuracy_std: float | None = None
    effective_rank: float | None = None   # graph-level runs only
    interrupted: bool = False
    journal_path: Path | None = None
    saved_to: Path | None = None


@dataclass
class _RunContext:
    """Everything a run needs between build and finish."""

    config: RunConfig
    trainer: object
    method: object
    dataset: object
    journal: object | None


def _build(config: RunConfig, *, append_journal: bool = False,
           stop_after: int | None = None) -> _RunContext:
    """Construct dataset, method, journal, and trainer from a config."""
    from ..core import gradgcl
    from ..obs import RunJournal
    from ..pipeline import StructureCache
    from ..utils.seed import seeded_rng
    from .trainer import GraphSteps, NodeSteps, Trainer

    config = config.resolve()
    entry = get_method(config.method, config.level)
    if config.level == "graph":
        from ..datasets import load_tu_dataset

        dataset = load_tu_dataset(config.dataset, scale=config.scale,
                                  seed=config.seed)
        strategy = GraphSteps(dataset.graphs, batch_size=config.batch_size,
                              seed=config.seed)
    else:
        from ..datasets import load_node_dataset

        dataset = load_node_dataset(config.dataset, scale=config.scale,
                                    seed=config.seed)
        strategy = NodeSteps(dataset.graph)
    method = entry.build(dataset.num_features, rng=seeded_rng(config.seed),
                         hidden_dim=config.hidden_dim,
                         out_dim=config.out_dim,
                         num_layers=config.num_layers)
    if config.weight > 0:
        method = gradgcl(method, config.weight)
    journal = None
    if config.run_dir is not None:
        journal = RunJournal(config.run_dir, append=append_journal)
    cache = (StructureCache(max_entries=config.cache_entries)
             if config.cache else None)
    callbacks = [StopAfter(stop_after)] if stop_after is not None else []
    trainer = Trainer(method, strategy, epochs=config.epochs,
                      lr=config.lr, weight_decay=config.weight_decay,
                      grad_clip=config.grad_clip, patience=config.patience,
                      min_delta=config.min_delta, journal=journal,
                      spectrum_every=config.spectrum_every,
                      workers=config.workers, structure_cache=cache,
                      checkpoint_every=config.checkpoint_every,
                      run_dir=config.run_dir,
                      config_hash=config.config_hash(),
                      callbacks=callbacks)
    return _RunContext(config=config, trainer=trainer, method=method,
                       dataset=dataset, journal=journal)


def _finish(ctx: _RunContext) -> RunResult:
    """Train (or continue training), evaluate, save, close the journal."""
    config = ctx.config
    journal_path = ctx.journal.path if ctx.journal is not None else None
    try:
        try:
            history = ctx.trainer.fit()
        except (TrainingInterrupted, KeyboardInterrupt):
            # Torn down like a real kill: no end-of-run journal events.
            # The latest checkpoint (if any) stays behind for --resume.
            return RunResult(config=config, history=ctx.trainer.history,
                             interrupted=True, journal_path=journal_path)
        result = _evaluate(ctx, history)
    finally:
        if ctx.journal is not None:
            ctx.journal.close()
    if config.save:
        from ..nn import save_module

        # MVGRLNode exposes no ``.encoder``; fall back to the full module.
        target = getattr(ctx.method, "encoder", ctx.method)
        result.saved_to = save_module(target, config.save)
    return result


def _eval_journal_fields() -> dict:
    """Engine telemetry for the journal ``eval`` event (may be empty)."""
    from ..eval import last_eval_stats

    stats = last_eval_stats()
    return stats.to_fields() if stats is not None else {}


def _log_eval(ctx: _RunContext, **fields) -> None:
    """Emit the ``eval`` event plus a ``note`` for silently skipped folds.

    The trainer's end-of-run ``trace`` event predates evaluation, so the
    ``evaluate`` span (when telemetry is on) gets its own ``trace`` event
    here, restricted to evaluation paths.
    """
    if ctx.journal is None:
        return
    extra = _eval_journal_fields()
    ctx.journal.log("eval", dataset=ctx.config.dataset, **fields, **extra)
    skipped = extra.get("eval_folds_skipped", 0)
    if skipped:
        ctx.journal.log(
            "note",
            message=f"evaluation skipped {skipped} degenerate fold(s) "
                    "whose training split had fewer than two classes; the "
                    "reported mean/std covers the remaining folds only",
            folds_skipped=skipped)
    spans = {path: stats for path, stats
             in ctx.trainer.tracer.snapshot().items()
             if path.split("/", 1)[0] == "evaluate"}
    if spans:
        ctx.journal.log("trace", spans=spans)


def _evaluate(ctx: _RunContext, history) -> RunResult:
    """Level-appropriate downstream evaluation + journal ``eval`` event."""
    config = ctx.config
    method, dataset, journal = ctx.method, ctx.dataset, ctx.journal
    journal_path = journal.path if journal is not None else None
    tracer = ctx.trainer.tracer
    if config.level == "graph":
        from ..core import effective_rank
        from ..eval import evaluate_graph_embeddings

        with tracer.trace("evaluate"):
            embeddings = method.embed(dataset.graphs)
            acc, std = evaluate_graph_embeddings(
                embeddings, dataset.labels(), seed=config.seed,
                eval_workers=config.eval_workers)
        rank = effective_rank(embeddings)
        _log_eval(ctx, accuracy=acc, accuracy_std=std, effective_rank=rank)
        return RunResult(config=config, history=history, accuracy=acc,
                         accuracy_std=std, effective_rank=rank,
                         journal_path=journal_path)
    from ..eval import evaluate_node_embeddings

    with tracer.trace("evaluate"):
        acc, std = evaluate_node_embeddings(method.embed(dataset.graph),
                                            dataset.labels(),
                                            dataset.train_mask,
                                            dataset.test_mask,
                                            seed=config.seed)
    _log_eval(ctx, accuracy=acc, accuracy_std=std)
    return RunResult(config=config, history=history, accuracy=acc,
                     accuracy_std=std, journal_path=journal_path)


def execute_run(config: RunConfig, *, stop_after: int | None = None,
                retries: int = 0) -> RunResult:
    """Run a config from scratch (the ``repro run`` entry point).

    When the config names a ``run_dir``, the resolved config is persisted
    there as ``config.json`` so the run can later be resumed (or simply
    reproduced) from the directory alone.

    ``retries=N`` arms fault tolerance: a run that dies with a
    :data:`RECOVERABLE_FAULTS` exception is resumed from its last
    checkpoint up to N times (``faults.retries`` counts each attempt).
    This requires a ``run_dir`` — checkpoints are the recovery point — and
    forces ``checkpoint_every=1`` when the config leaves it unset, so at
    most one epoch of work is ever lost.  The journal is truncated back to
    the checkpoint on every resume, so the finished journal is
    canonically identical to a fault-free run's (see
    ``docs/robustness.md``).

    A configuration that cannot start (a bad field, an unknown method or
    dataset, a ``batch_size`` below 2) raises :class:`ConfigError` before
    ``config.json`` is written; errors once training runs propagate as
    they are.
    """
    try:
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        config = config.resolve()
        if retries:
            if config.run_dir is None:
                raise ConfigError(
                    "retries requires run_dir: resume recovers from the "
                    "checkpoints written there")
            if config.checkpoint_every is None:
                config = dataclasses.replace(config, checkpoint_every=1)
        ctx = _build(config, stop_after=stop_after)
    except ConfigError:
        raise
    except (KeyError, ValueError) as exc:
        # Lookups (method, dataset) and step-strategy checks such as
        # ``batch_size >= 2`` fail here, before anything is written.
        raise ConfigError(exc.args[0] if exc.args else str(exc)) from exc
    if config.run_dir is not None:
        config.to_file(Path(config.run_dir) / CONFIG_FILENAME)
    ctx.trainer.log_config(**config.journal_fields())
    try:
        return _finish(ctx)
    except RECOVERABLE_FAULTS as exc:
        if not retries:
            raise
        last_error: BaseException = exc
    for _ in range(retries):
        _record_fault("retries")
        try:
            return _resume_after_fault(config.run_dir,
                                       stop_after=stop_after)
        except RECOVERABLE_FAULTS as exc:
            last_error = exc
    raise last_error


def _truncate_journal_for_resume(run_dir: Path, start_epoch: int) -> None:
    """Rewind the journal to match the checkpoint we are resuming from.

    A fault can strike anywhere, so the journal may hold epoch events the
    checkpoint never saw (or end-of-run events from a crash during
    evaluation).  Keep only what the resumed run will *not* re-emit — the
    ``config`` event and ``epoch``/``spectrum`` events from epochs
    before ``start_epoch`` — and drop the rest; the resumed run
    regenerates it, leaving one seamless record.
    """
    import json

    from ..obs.journal import JOURNAL_FILENAME

    path = Path(run_dir) / JOURNAL_FILENAME
    if not path.exists():
        return
    kept = []
    with path.open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            event = json.loads(line)
            kind = event.get("event")
            if kind == "config":
                kept.append(line)
            elif (kind in ("epoch", "spectrum")
                    and event.get("epoch", start_epoch) < start_epoch):
                kept.append(line)
    path.write_text("".join(f"{line}\n" for line in kept))


def _resume_after_fault(run_dir: str | Path, *,
                        stop_after: int | None = None) -> RunResult:
    """One recovery attempt: rewind the journal, restore, train on.

    A crash before the first checkpoint restarts from scratch (minus the
    already-journaled ``config`` event); otherwise training continues from
    the checkpointed epoch, bit-identical to a fault-free run by the
    resume contract.
    """
    run_dir = Path(run_dir)
    config = RunConfig.from_file(run_dir / CONFIG_FILENAME)
    config = dataclasses.replace(config, run_dir=str(run_dir))
    try:
        state = TrainState.load(run_dir)
    except FileNotFoundError:
        state = None
    start_epoch = state.epoch if state is not None else 0
    _truncate_journal_for_resume(run_dir, start_epoch)
    ctx = _build(config, append_journal=True, stop_after=stop_after)
    if state is not None:
        state.restore(ctx.trainer)
    return _finish(ctx)


def resume_run(run_dir: str | Path, *,
               stop_after: int | None = None) -> RunResult:
    """Continue an interrupted run from its directory.

    Rebuilds everything from ``<run_dir>/config.json``, restores the
    checkpoint, reopens the journal in append mode (the ``config`` event
    is *not* re-emitted), and trains the remaining epochs — producing a
    journal bit-identical (modulo wall-clock fields) to a run that was
    never interrupted.
    """
    import dataclasses

    run_dir = Path(run_dir)
    config = RunConfig.from_file(run_dir / CONFIG_FILENAME)
    # The directory may have moved since the run started; the passed path
    # wins (run_dir is excluded from the config hash for this reason).
    config = dataclasses.replace(config, run_dir=str(run_dir))
    ctx = _build(config, append_journal=True, stop_after=stop_after)
    state = TrainState.load(run_dir)
    state.restore(ctx.trainer)
    if ctx.trainer.start_epoch >= ctx.trainer.epochs:
        raise ValueError(
            f"run in {run_dir} already completed "
            f"{ctx.trainer.start_epoch}/{ctx.trainer.epochs} epochs; "
            "nothing to resume")
    return _finish(ctx)


def prepare_resume(run_dir: str | Path, **overrides):
    """Restore a ready-to-``fit()`` trainer (``Trainer.resume`` backend).

    ``overrides`` replace config fields (e.g. extend ``epochs``) before the
    trainer is rebuilt; the checkpoint's config hash is only enforced when
    no overrides are given, since overriding is an explicit opt-out.
    """
    import dataclasses

    run_dir = Path(run_dir)
    config = RunConfig.from_file(run_dir / CONFIG_FILENAME)
    if overrides:
        config = dataclasses.replace(config.resolve(), **overrides)
    ctx = _build(config, append_journal=True)
    state = TrainState.load(run_dir)
    if overrides:
        state.meta["config_hash"] = None
    state.restore(ctx.trainer)
    return ctx.trainer
