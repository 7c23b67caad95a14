"""The training engine behind every experiment in the repo.

One :class:`Trainer` trains every method at both levels.  The graph/node
difference is a small *step strategy* object (:class:`GraphSteps`:
shuffled minibatch loader with an in-batch-negatives check;
:class:`NodeSteps`: one full-graph step per epoch), and everything around
the step — early stopping, journal emission, spectrum probes, user
probes, checkpointing — is a :class:`repro.run.callbacks.Callback`::

    history = Trainer(method, GraphSteps(graphs, batch_size=32, seed=0),
                      epochs=20, lr=1e-3).fit()

``repro run`` builds the same Trainer from a :class:`repro.run.RunConfig`
(:func:`repro.run.execute_run`).  With ``checkpoint_every=N`` a
:class:`repro.run.state.TrainState` snapshot (parameters, Adam moments,
loader/augmentation RNG states, history, config hash) is written to the
run directory, and ``Trainer.resume(run_dir)`` continues a run such that
the final losses, history, and ts-stripped journal are bit-identical to
an uninterrupted run.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..faults import inject as _inject
from ..graph import Graph, GraphLoader
from ..nn import Adam
from ..obs import RunJournal, Tracer, engine_stats
from ..pipeline import StructureCache, use_structure_cache
from ..utils import Timer
from ..utils.seed import seeded_rng
from .callbacks import (
    Callback,
    CheckpointCallback,
    EarlyStopping,
    JournalCallback,
    ProbeCallback,
)

__all__ = ["TrainHistory", "Trainer", "GraphSteps", "NodeSteps",
           "gradient_norm", "clip_gradients"]

#: Fault-injection point drilled by the chaos tier: fires at the top of
#: every epoch, before any batch work, so a crash here never leaves a
#: half-logged epoch behind (journal and checkpoint stay in lockstep).
EPOCH_POINT = "train.epoch"


def gradient_norm(parameters) -> float:
    """Global L2 norm over all materialized parameter gradients."""
    total = 0.0
    for p in parameters:
        if p.grad is not None:
            total += float((p.grad ** 2).sum())
    return float(np.sqrt(total))


def clip_gradients(parameters, max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (the quantity the run journal logs).
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    parameters = list(parameters)
    norm = gradient_norm(parameters)
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for p in parameters:
            if p.grad is not None:
                p.grad *= scale
    return norm


def _check_finite(loss_value: float, context: str) -> None:
    if not np.isfinite(loss_value):
        raise FloatingPointError(
            f"non-finite loss ({loss_value}) during {context}; check the "
            "learning rate and temperature settings")


@dataclass
class TrainHistory:
    """Per-epoch training record."""

    losses: list[float] = field(default_factory=list)
    parts: list[dict[str, float]] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    probes: list[dict[str, float]] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return float(sum(self.epoch_seconds))

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise ValueError("history is empty")
        return self.losses[-1]

    def to_dict(self) -> dict:
        """JSON-able form for the checkpoint."""
        return {"losses": self.losses, "parts": self.parts,
                "epoch_seconds": self.epoch_seconds, "probes": self.probes,
                "grad_norms": self.grad_norms}

    @classmethod
    def from_dict(cls, data: dict) -> "TrainHistory":
        """Inverse of :meth:`to_dict`."""
        return cls(losses=list(data["losses"]),
                   parts=[dict(p) for p in data["parts"]],
                   epoch_seconds=list(data["epoch_seconds"]),
                   probes=[dict(p) for p in data["probes"]],
                   grad_norms=list(data["grad_norms"]))


def _mean_parts(parts: list[dict[str, float]]) -> dict[str, float]:
    """Mean per key over batch part-dicts, with **sorted** keys so the
    loss_f/loss_g order in histories and journal events is identical
    across processes (set iteration order is not)."""
    if not parts:
        return {}
    keys = sorted(set().union(*parts))
    return {k: float(np.mean([p[k] for p in parts if k in p])) for k in keys}


def _training_flags() -> dict:
    """Dtype/fused-kernel state recorded in every run's config event."""
    from ..tensor import get_default_dtype, use_fused

    return {"dtype": np.dtype(get_default_dtype()).name,
            "fused_kernels": use_fused()}


# ----------------------------------------------------------------------
# Step strategies: the entire graph-level vs node-level difference
# ----------------------------------------------------------------------

class GraphSteps:
    """Minibatch strategy: shuffled loader + in-batch-negatives check."""

    kind = "graph"

    def __init__(self, graphs: Sequence[Graph], *, batch_size: int = 64,
                 seed: int = 0):
        # Contrastive losses need >= 2 graphs per batch; with these two
        # checks every epoch holds at least one trainable batch.
        if batch_size < 2:
            raise ValueError(
                f"batch_size must be >= 2 (contrastive losses need in-batch "
                f"negatives), got {batch_size}")
        if len(graphs) < 2:
            raise ValueError(
                f"graph-level training needs >= 2 graphs, got {len(graphs)}")
        self.graphs = graphs
        self.batch_size = batch_size
        self.seed = seed
        self.loader = GraphLoader(graphs, batch_size=batch_size,
                                  shuffle=True, rng=seeded_rng(seed))

    def batches(self):
        """Yield one epoch's trainable minibatches, skipping a trailing
        1-graph batch (contrastive losses need >= 2 in-batch graphs to form
        negatives)."""
        for batch in self.loader:
            if batch.num_graphs < 2:
                continue
            yield batch

    @staticmethod
    def units(batch) -> int:
        return batch.num_graphs

    throughput_unit = "graphs"

    @property
    def num_features(self) -> int:
        """Input feature width (recorded in checkpoints for serving)."""
        return int(self.graphs[0].num_features)

    def embed(self, method) -> np.ndarray:
        return method.embed(self.graphs)

    def journal_fields(self) -> dict:
        return {"num_graphs": len(self.graphs)}

    # -- checkpoint support -------------------------------------------
    def rng_state(self) -> dict:
        """Bit-generator state of the shuffle RNG."""
        return self.loader._rng.bit_generator.state

    def set_rng_state(self, state: dict) -> None:
        self.loader._rng.bit_generator.state = state


class NodeSteps:
    """Full-graph strategy: one optimization step per epoch."""

    kind = "node"

    def __init__(self, graph: Graph):
        self.graph = graph

    def batches(self):
        yield self.graph

    @staticmethod
    def units(graph) -> int:
        return graph.num_nodes

    throughput_unit = "nodes"

    @property
    def num_features(self) -> int:
        """Input feature width (recorded in checkpoints for serving)."""
        return int(self.graph.num_features)

    def embed(self, method) -> np.ndarray:
        return method.embed(self.graph)

    def journal_fields(self) -> dict:
        return {"num_nodes": self.graph.num_nodes}

    def rng_state(self) -> None:
        """Node runs have no loader RNG (full-graph, no shuffling)."""
        return None

    def set_rng_state(self, state) -> None:
        if state is not None:
            raise ValueError("node strategy carries no loader RNG state")


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

class Trainer:
    """Callback-driven Adam training engine over a step strategy.

    ``patience`` / ``probe`` / ``journal`` are conveniences that install
    the matching stock callbacks (:class:`EarlyStopping`,
    :class:`ProbeCallback`, :class:`JournalCallback`).  Additional
    callbacks run after the stock ones in list order.  A journal's
    ``config`` event is written by :meth:`log_config`, which callers
    invoke before :meth:`fit`.

    Checkpointing: pass ``checkpoint_every`` and ``run_dir`` (or a
    :class:`CheckpointCallback`).  ``config_hash`` is stamped into each
    snapshot; :meth:`Trainer.resume` verifies it before continuing.

    ``workers`` accepts only ``None`` or ``0``: views are generated
    in-process, and the argument stays so existing callers keep working.
    """

    def __init__(self, method, strategy, *, epochs: int,
                 lr: float = 1e-3, weight_decay: float = 0.0,
                 grad_clip: float | None = None,
                 patience: int | None = None, min_delta: float = 1e-4,
                 probe=None,
                 journal: RunJournal | None = None,
                 spectrum_every: int | None = None,
                 workers: int | None = None,
                 structure_cache: StructureCache | None = None,
                 checkpoint_every: int | None = None,
                 run_dir=None,
                 config_hash: str | None = None,
                 callbacks: Sequence[Callback] = ()):
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        self.method = method
        self.strategy = strategy
        self.epochs = epochs
        self.grad_clip = grad_clip
        self.journal = journal
        self.config_hash = config_hash
        self.telemetry = journal is not None
        self.optimizer = Adam(method.parameters(), lr=lr,
                              weight_decay=weight_decay)
        if workers not in (None, 0):
            raise ValueError(
                f"workers must be 0 (views are generated in-process), "
                f"got {workers}")
        self.structure_cache = structure_cache
        self.history = TrainHistory()
        self.tracer = Tracer(enabled=self.telemetry)
        self.engine = None               # set while fit() is active
        self.last_throughput: dict = {}
        self.epochs_run = 0
        self.start_epoch = 0
        self.stop_requested = False
        self._engine_restore: dict | None = None
        self._early_stopping: EarlyStopping | None = None
        self._journal_callback: JournalCallback | None = None

        stock: list[Callback] = []
        if probe is not None:
            stock.append(ProbeCallback(probe))
        if journal is not None:
            self._journal_callback = JournalCallback(journal, spectrum_every)
            stock.append(self._journal_callback)
        if patience is not None:
            self._early_stopping = EarlyStopping(patience, min_delta)
            stock.append(self._early_stopping)
        if checkpoint_every is not None:
            if run_dir is None:
                raise ValueError("checkpoint_every requires run_dir")
            stock.append(CheckpointCallback(checkpoint_every, run_dir))
        self.callbacks: list[Callback] = stock + list(callbacks)

    # ------------------------------------------------------------------
    # Journal config event
    # ------------------------------------------------------------------
    def log_config(self, **fields) -> None:
        """Emit the journal ``config`` event (no-op without a journal).

        Method identity, the GradGCL weight, and dtype/fused flags are
        introspected; callers add the run-shape fields (dataset sizes,
        epochs, lr, ...) — ``repro run`` passes
        ``RunConfig.journal_fields()``.  Explicit fields win
        over the introspected ones (a config's ``method`` is the registry
        name, which for MVGRLNode differs from the class name).
        """
        if self.journal is None:
            return
        method = self.method
        objective = getattr(method, "objective", None)
        weight = getattr(objective, "weight", None)
        record = {"kind": self.strategy.kind,
                  "method": type(method).__name__,
                  "method_name": getattr(method, "name",
                                         type(method).__name__),
                  "gradgcl_weight": weight, **_training_flags()}
        record.update(fields)
        self.journal.log("config", **record)

    # ------------------------------------------------------------------
    # Callback services
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Ask the engine to stop after the current epoch's callbacks."""
        self.stop_requested = True

    def embed(self) -> np.ndarray:
        """Current evaluation-mode embeddings (spectrum probes)."""
        return self.strategy.embed(self.method)

    def find_callback(self, cls) -> Callback | None:
        """First installed callback of the given type, if any."""
        for callback in self.callbacks:
            if isinstance(callback, cls):
                return callback
        return None

    def save_checkpoint(self, run_dir, epoch: int) -> None:
        """Snapshot the full training state after ``epoch`` completed."""
        from .state import TrainState

        TrainState.capture(self, epoch + 1).save(run_dir)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def fit(self) -> TrainHistory:
        """Run epochs ``start_epoch .. epochs-1``; return the history."""
        method = self.method
        optimizer = self.optimizer
        track_norms = self.grad_clip is not None or self.telemetry
        method.train()
        with contextlib.ExitStack() as stack:
            # The active structure cache covers training *and* the final
            # embed/spectrum.
            stack.enter_context(use_structure_cache(self.structure_cache))
            self.engine = stack.enter_context(
                engine_stats(enabled=self.telemetry))
            if self._engine_restore:
                # Resumed run: re-seed the op counters so the final engine
                # event equals an uninterrupted run's.
                for key, value in self._engine_restore.items():
                    setattr(self.engine, key, value)
            for callback in self.callbacks:
                callback.on_train_begin(self)
            for epoch in range(self.start_epoch, self.epochs):
                _inject(EPOCH_POINT)
                losses: list[float] = []
                parts_acc: list[dict[str, float]] = []
                norms: list[float] = []
                units_seen = 0
                with self.tracer.trace("epoch"), Timer() as timer:
                    for item in self.strategy.batches():
                        optimizer.zero_grad()
                        with self.tracer.trace("forward"):
                            loss = method.training_loss(item)
                        _check_finite(loss.item(), f"epoch {epoch}")
                        with self.tracer.trace("backward"):
                            loss.backward()
                        if self.grad_clip is not None:
                            norms.append(clip_gradients(optimizer.params,
                                                        self.grad_clip))
                        elif track_norms:
                            norms.append(gradient_norm(optimizer.params))
                        with self.tracer.trace("step"):
                            optimizer.step()
                        losses.append(loss.item())
                        units_seen += self.strategy.units(item)
                        parts = getattr(method.objective, "last_parts",
                                        None)
                        if parts:
                            parts_acc.append(dict(parts))
                history = self.history
                history.losses.append(float(np.mean(losses)))
                history.parts.append(_mean_parts(parts_acc))
                history.epoch_seconds.append(timer.elapsed)
                if norms:
                    history.grad_norms.append(float(np.mean(norms)))
                self.epochs_run = epoch + 1
                unit = self.strategy.throughput_unit
                self.last_throughput = {
                    f"{unit}_per_sec":
                        units_seen / max(timer.elapsed, 1e-12),
                    f"{unit}_seen": units_seen}
                method.on_epoch_end(epoch, history.losses[-1])
                for callback in self.callbacks:
                    callback.on_epoch_end(self, epoch)
                if self.stop_requested:
                    break
            for callback in self.callbacks:
                callback.on_train_end(self)
        return self.history

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    @classmethod
    def resume(cls, run_dir, **overrides) -> "Trainer":
        """Rebuild a trainer from ``run_dir``'s config + checkpoint.

        Reconstructs the method and dataset from the stored
        ``config.json`` (via the registry), restores the
        :class:`~repro.run.state.TrainState` snapshot — parameters, Adam
        moments, RNG streams, history, early-stopping counters — and
        reopens the journal in append mode.  Calling :meth:`fit` then
        continues the run; losses, history, and the ts-stripped journal
        come out bit-identical to a never-interrupted run.
        """
        from .runner import prepare_resume

        return prepare_resume(run_dir, **overrides)
