"""Frozen run configuration with a JSON round-trip.

A :class:`RunConfig` captures everything needed to reproduce a training
run: method + level, dataset + scale, the GradGCL weight ``a``, optimizer
hyperparameters, early-stopping knobs, pipeline/cache settings, and
journal/checkpoint cadence.  ``repro run <config.json>`` and
``repro run --method SimGRACE --weight 0.5 ...`` both build one.

Level-dependent defaults (a node run wants ``lr=3e-3`` and ``epochs=40``
where a graph run wants ``1e-3`` / ``20``) are left as ``None`` in the
dataclass and filled by :meth:`RunConfig.resolve`, which also infers the
level from the method registry.  ``config_hash`` fingerprints the resolved
config; checkpoints embed it so ``Trainer.resume`` refuses to continue a
run under different hyperparameters.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from ..utils.checks import check_count
from .registry import get_method, method_levels

__all__ = ["RunConfig", "CONFIG_FILENAME", "ConfigError"]

CONFIG_FILENAME = "config.json"

#: Defaults that depend on the training level.  Changing any of them
#: changes the numbers (and the config hash) of every run that omits it.
_LEVEL_DEFAULTS = {
    "graph": {"epochs": 20, "lr": 1e-3, "hidden_dim": 16, "out_dim": None,
              "num_layers": 2, "batch_size": 32},
    "node": {"epochs": 40, "lr": 3e-3, "hidden_dim": 32, "out_dim": 16,
             "num_layers": None, "batch_size": None},
}


class ConfigError(ValueError):
    """A run configuration that cannot start; raised before any training."""


@dataclass(frozen=True)
class RunConfig:
    """Immutable description of one training run (JSON round-trippable)."""

    method: str = "SimGRACE"
    dataset: str = "MUTAG"
    level: str | None = None          # inferred from the registry when None
    scale: str = "small"
    weight: float = 0.0               # GradGCL gradient weight ``a`` (Eq. 18)
    epochs: int | None = None
    batch_size: int | None = None     # graph-level only
    lr: float | None = None
    weight_decay: float = 0.0
    grad_clip: float | None = None
    patience: int | None = None
    min_delta: float = 1e-4
    seed: int = 0
    hidden_dim: int | None = None
    out_dim: int | None = None        # node-level only
    num_layers: int | None = None     # graph-level only
    workers: int | None = None        # only None or 0 (views in-process)
    eval_workers: int | None = None   # None defers to REPRO_EVAL_WORKERS
    cache: bool = True
    cache_entries: int | None = None
    run_dir: str | None = None        # journal + checkpoint directory
    spectrum_every: int | None = None
    checkpoint_every: int | None = None
    save: str | None = None           # encoder .npz path after training

    # ------------------------------------------------------------------
    # Validation / resolution
    # ------------------------------------------------------------------
    def __post_init__(self):
        if self.workers not in (None, 0):
            raise ConfigError(
                f"workers must be 0 (training views are generated "
                f"in-process; eval_workers parallelizes evaluation), "
                f"got {self.workers}")
        if not 0.0 <= self.weight <= 1.0:
            raise ConfigError(
                f"weight must be in [0, 1], got {self.weight}")
        if self.epochs is not None and self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.cache_entries is not None:
            try:
                check_count(self.cache_entries, "cache_entries")
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if self.level is not None and self.level not in ("graph", "node"):
            raise ConfigError(
                f"level must be 'graph' or 'node', got {self.level!r}")
        if self.checkpoint_every is not None:
            if self.checkpoint_every < 1:
                raise ConfigError("checkpoint_every must be >= 1, got "
                                  f"{self.checkpoint_every}")
            if self.run_dir is None:
                raise ConfigError("checkpoint_every requires run_dir (the "
                                  "checkpoint lives in the run directory)")

    def resolve(self) -> "RunConfig":
        """Fill level-dependent defaults; validate against the registry.

        Returns a new config with ``level``, ``epochs``, ``lr``,
        dimension fields, and ``batch_size`` all concrete.  Raises early
        (before any dataset/model work) when the method is unknown or the
        level is ambiguous.
        """
        level = self.level
        if level is None:
            levels = method_levels(self.method)
            if not levels:
                get_method(self.method)  # raises KeyError with known names
            if len(levels) > 1:
                raise ConfigError(
                    f"method {self.method!r} trains at levels {levels}; "
                    "set level explicitly")
            level = levels[0]
        get_method(self.method, level)  # validates the (name, level) pair
        defaults = _LEVEL_DEFAULTS[level]
        filled = {key: (getattr(self, key) if getattr(self, key) is not None
                        else default)
                  for key, default in defaults.items()}
        return dataclasses.replace(self, level=level, **filled)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form (JSON-native values only)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise with the field
        list so config typos fail loudly."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown RunConfig field(s) {sorted(unknown)}; "
                f"known fields: {sorted(known)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """Load a config from a JSON file."""
        with Path(path).open() as fh:
            return cls.from_dict(json.load(fh))

    # Named to_file (not save) because ``save`` is a config *field*: the
    # dataclass machinery would otherwise take the method object as the
    # field default.
    def to_file(self, path: str | Path) -> Path:
        """Write the config as pretty JSON (returns the path written)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True)
                        + "\n")
        return path

    #: Fields that do not influence the training numbers: storage
    #: locations, execution topology (the structure cache and the
    #: evaluation engine are bit-identical at every setting), and
    #: journal/checkpoint cadence.
    _NON_TRAINING_FIELDS = ("run_dir", "save", "workers", "eval_workers",
                            "cache", "cache_entries", "spectrum_every",
                            "checkpoint_every")

    def config_hash(self) -> str:
        """Stable fingerprint of the training-relevant fields.

        Non-training fields are excluded: moving a run directory, changing
        the eval worker count, or altering the checkpoint cadence must not
        change the hash a checkpoint is checked against — the same numbers
        come out regardless.
        """
        payload = {k: v for k, v in self.resolve().to_dict().items()
                   if k not in self._NON_TRAINING_FIELDS}
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def journal_fields(self) -> dict:
        """Fields for the journal ``config`` event, from the config itself.

        The trainer adds the method/dtype introspection fields on top
        (``method_name``, ``gradgcl_weight``, ``dtype``, ...).
        """
        resolved = self.resolve()
        fields = {k: v for k, v in resolved.to_dict().items()
                  if k not in ("run_dir", "save") and v is not None}
        fields["config_hash"] = self.config_hash()
        return fields
