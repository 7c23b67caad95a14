"""Offline bulk embedding: ``repro embed`` (checkpoint -> embeddings.npz).

The batch counterpart of the online service: load a
:class:`~repro.serve.FrozenEncoder` from a run directory, embed a whole
dataset in fixed-size block-diagonal chunks, and write one ``.npz`` with
the embedding matrix, the labels, and the provenance fields needed to
audit it later (config hash, dtype, dataset identity).

Because per-graph embeddings are independent of batch composition, this
path is the *reference* the served numbers are gated against: CI tier e
fires concurrent ``/embed`` requests and asserts byte-equality with the
``embeddings.npz`` produced here.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .encoder import DEFAULT_BATCH_SIZE, FrozenEncoder

__all__ = ["embed_dataset"]


def embed_dataset(run_dir: str | Path, out: str | Path, *,
                  dataset: str | None = None, scale: str | None = None,
                  seed: int | None = None,
                  batch_size: int = DEFAULT_BATCH_SIZE,
                  dtype: str = "float32") -> dict:
    """Embed ``dataset`` with the checkpoint in ``run_dir``; write ``out``.

    ``dataset``/``scale``/``seed`` default to the values the checkpoint
    was trained with (from the run directory's ``config.json``).  Returns
    a JSON-able summary (shape, output path, provenance) for the CLI.
    """
    from ..datasets import load_tu_dataset

    encoder = FrozenEncoder.from_checkpoint(run_dir, dtype=dtype)
    config = encoder.config
    dataset = dataset if dataset is not None else config.dataset
    scale = scale if scale is not None else config.scale
    seed = seed if seed is not None else config.seed
    data = load_tu_dataset(dataset, scale=scale, seed=seed)
    encoder.validate(data.graphs)
    embeddings = encoder.embed(data.graphs, batch_size=batch_size)

    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    np.savez(out,
             embeddings=embeddings,
             labels=data.labels(),
             dataset=np.array(dataset),
             scale=np.array(scale),
             seed=np.array(int(seed)),
             dtype=np.array(encoder.dtype),
             config_hash=np.array(encoder.config_hash or ""))
    saved = out if out.suffix == ".npz" else out.with_suffix(
        out.suffix + ".npz")
    return {"out": str(saved), "dataset": dataset, "scale": scale,
            "seed": int(seed), "num_graphs": int(embeddings.shape[0]),
            "dim": int(embeddings.shape[1]), "dtype": encoder.dtype,
            "config_hash": encoder.config_hash}
