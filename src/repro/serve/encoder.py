"""Frozen inference encoders loaded from training checkpoints.

A :class:`FrozenEncoder` is the serving-side view of a finished (or
checkpointed) training run: the method is rebuilt from the run directory's
``config.json`` exactly as :func:`repro.run.execute_run` built it, the
parameters and BatchNorm running statistics are reinstalled from the
PR-4 :class:`repro.run.TrainState` snapshot (``checkpoint.npz`` +
``checkpoint.json``), and the module is pinned in eval mode with gradients
disabled — BatchNorm normalizes with the checkpointed ``_buffer_attrs``
running statistics and no autograd graph is ever built.

Inference runs in float32 by default (serving is bandwidth-bound and the
downstream protocols are float32-stable); pass ``dtype="float64"`` to
reproduce training-precision embeddings.  Whatever the dtype, embeddings
are a pure per-graph function: because every layer (sparse block-diagonal
adjacency matmul, row-wise dense GEMM, eval-mode BatchNorm, per-graph
readout) treats graphs independently, the embedding of a graph is
bit-identical no matter which batch it rides in.  That property is what
lets the micro-batcher coalesce unrelated requests into one forward and
still promise byte-equality with the offline ``repro embed`` path; the
hypothesis suite in ``tests/serve/test_batcher.py`` enforces it.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Sequence

import numpy as np

from ..graph import Graph, GraphBatch
from ..tensor import autocast, no_grad

__all__ = ["FrozenEncoder", "CheckpointMismatch"]

#: Default offline chunk size, mirroring ``Module.embed``'s historical value.
DEFAULT_BATCH_SIZE = 128


class CheckpointMismatch(ValueError):
    """A checkpoint does not belong to the config it was loaded against."""


def _params_and_buffers(arrays: dict) -> tuple[dict, dict]:
    """Split a TrainState array dict into parameter and buffer groups."""
    from ..run.state import _ADAM_M, _ADAM_V, _BUFFER

    params = {name: arr for name, arr in arrays.items()
              if not name.startswith((_ADAM_M, _ADAM_V, _BUFFER))}
    buffers = {name[len(_BUFFER):]: arr for name, arr in arrays.items()
               if name.startswith(_BUFFER)}
    return params, buffers


class FrozenEncoder:
    """An eval-mode, gradient-free graph encoder ready for serving.

    Build one with :meth:`from_checkpoint`; the direct constructor accepts
    an already-restored method (tests use it to freeze an in-memory model
    without a disk round-trip).
    """

    def __init__(self, method, *, dtype: str = "float32",
                 config=None, config_hash: str | None = None,
                 num_features: int | None = None):
        from ..tensor.dtype import _validate

        self._dtype = np.dtype(_validate(dtype)).name
        self._num_features = num_features
        self.method = method.eval()
        for param in method.parameters():
            param.requires_grad = False
        self.config = config
        self.config_hash = config_hash
        self._embedding_dim: int | None = None
        # Forwards mutate no state, but the tensor engine's dtype policy is
        # process-global; serialize forwards so concurrent callers (the
        # micro-batcher is single-threaded, but tests call embed directly)
        # cannot interleave autocast scopes.
        self._forward_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Construction from a run directory
    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(cls, run_dir: str | Path, *,
                        dtype: str = "float32") -> "FrozenEncoder":
        """Load a frozen encoder from a PR-4 run directory.

        The directory must hold ``config.json`` plus the
        ``checkpoint.npz``/``checkpoint.json`` pair written by a run with
        ``checkpoint_every``.  The checkpoint's embedded config hash is
        checked against the hash of ``config.json`` — a mismatch means the
        directory's config no longer describes the weights and loading is
        refused with :class:`CheckpointMismatch`.
        """
        from ..run import RunConfig
        from ..run.config import CONFIG_FILENAME
        from ..run.registry import get_method
        from ..run.state import TrainState
        from ..utils.seed import seeded_rng

        run_dir = Path(run_dir)
        config_path = run_dir / CONFIG_FILENAME
        if not config_path.exists():
            raise FileNotFoundError(
                f"no {CONFIG_FILENAME} in {run_dir}; serving loads runs "
                "written by `repro run --run-dir ... --checkpoint-every N`")
        config = RunConfig.from_file(config_path).resolve()
        if config.level != "graph":
            raise ValueError(
                f"run in {run_dir} trained {config.method!r} at the "
                "node level; the embedding service batches graph-level "
                "requests — use the method's embed() directly for "
                "node-level inference")
        state = TrainState.load(run_dir)
        expected = config.config_hash()
        stored = state.meta.get("config_hash")
        if stored and stored != expected:
            raise CheckpointMismatch(
                f"checkpoint in {run_dir} was written under config hash "
                f"{stored} but {CONFIG_FILENAME} now resolves to "
                f"{expected}; the config no longer describes these "
                "weights — restore the original config.json or re-train "
                "under the edited one")
        num_features = state.meta.get("num_features")
        if num_features is None:
            # Pre-serving checkpoints did not record the input width; the
            # training dataset is synthetic and reproducible, so recover it.
            from ..datasets import load_tu_dataset

            num_features = load_tu_dataset(
                config.dataset, scale=config.scale,
                seed=config.seed).num_features
        entry = get_method(config.method, config.level)
        with autocast(dtype):
            method = entry.build(int(num_features), rng=seeded_rng(config.seed),
                                 hidden_dim=config.hidden_dim,
                                 out_dim=config.out_dim,
                                 num_layers=config.num_layers)
            params, buffers = _params_and_buffers(state.arrays)
            method.load_state_dict(params)
            if buffers:
                method.load_buffers_dict(buffers)
        return cls(method, dtype=dtype, config=config, config_hash=expected,
                   num_features=int(num_features))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dtype(self) -> str:
        """Numpy dtype name embeddings are computed and returned in."""
        return self._dtype

    @property
    def num_features(self) -> int:
        """Node-feature width every request graph must match."""
        if self._num_features is None:
            # Fallback for directly-constructed encoders: the first module
            # exposing ``in_features`` is the input-side Linear of the
            # first encoder layer (modules() walks attributes in
            # registration order, and every method registers its encoder
            # before its projector).
            for module in self.method.modules():
                width = getattr(module, "in_features", None)
                if width is not None:
                    self._num_features = int(width)
                    break
            else:
                raise AttributeError(
                    "encoder exposes no in_features; pass num_features= "
                    "to FrozenEncoder to validate request feature widths")
        return self._num_features

    @property
    def embedding_dim(self) -> int:
        """Output dimensionality (computed once via a one-node probe)."""
        if self._embedding_dim is None:
            probe = Graph(1, np.empty((0, 2), dtype=np.int64),
                          np.zeros((1, self.num_features)))
            self._embedding_dim = int(self.embed([probe]).shape[1])
        return self._embedding_dim

    def describe(self) -> dict:
        """JSON-able identity block (the ``/healthz`` payload core)."""
        info = {"dtype": self._dtype, "embedding_dim": self.embedding_dim,
                "num_features": self.num_features,
                "config_hash": self.config_hash}
        if self.config is not None:
            info.update(method=self.config.method,
                        dataset=self.config.dataset,
                        level=self.config.level,
                        gradgcl_weight=self.config.weight,
                        scale=self.config.scale,
                        seed=self.config.seed)
        return info

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def validate(self, graphs: Sequence[Graph]) -> None:
        """Reject feature widths the checkpoint was not trained on."""
        width = self.num_features
        for i, graph in enumerate(graphs):
            if graph.num_features != width:
                raise ValueError(
                    f"graph {i} has {graph.num_features} node features "
                    f"but the checkpoint was trained on {width}")

    def embed(self, graphs: Sequence[Graph],
              batch_size: int | None = None) -> np.ndarray:
        """Embed ``graphs`` with one block-diagonal forward per chunk.

        ``batch_size=None`` embeds everything in a single forward (what
        the micro-batcher wants); the offline bulk path passes a chunk
        size to bound peak memory.  Either way each graph's row is
        bit-identical — batch composition is numerically invisible.
        """
        if len(graphs) == 0:
            raise ValueError("cannot embed an empty list of graphs")
        if batch_size is None:
            batch_size = len(graphs)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        chunks = []
        with self._forward_lock, autocast(self._dtype), no_grad():
            for start in range(0, len(graphs), batch_size):
                batch = GraphBatch(list(graphs[start:start + batch_size]))
                chunks.append(self.method.graph_embeddings(batch).data)
        out = np.concatenate(chunks, axis=0)
        if self._embedding_dim is None:
            self._embedding_dim = int(out.shape[1])
        return out
