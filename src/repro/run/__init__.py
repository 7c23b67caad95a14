"""Unified experiment runner: registry, configs, trainer, checkpoints.

The ``repro.run`` subsystem is how every experiment in the repo is
launched (see ``docs/architecture.md`` for the full layering):

* :mod:`repro.run.registry` — ``@register_method`` decorator and lookup
  helpers; the single source of truth for runnable methods.
* :mod:`repro.run.config` — :class:`RunConfig`, a frozen JSON-round-trip
  description of one run.
* :mod:`repro.run.trainer` — the callback-driven :class:`Trainer` over a
  :class:`GraphSteps` / :class:`NodeSteps` step strategy.
* :mod:`repro.run.callbacks` — the :class:`Callback` protocol and the
  stock callbacks (early stopping, journal, checkpointing).
* :mod:`repro.run.state` — :class:`TrainState` snapshots enabling
  bit-identical checkpoint/resume.
* :mod:`repro.run.runner` — :func:`execute_run` / :func:`resume_run`,
  the config-to-result entry points behind ``repro run``.
"""

from .callbacks import (
    Callback,
    CheckpointCallback,
    EarlyStopping,
    JournalCallback,
    ProbeCallback,
    StopAfter,
    TrainingInterrupted,
)
from .config import CONFIG_FILENAME, ConfigError, RunConfig
from .registry import (
    MethodEntry,
    get_method,
    list_methods,
    method_levels,
    method_names,
    register_method,
)
from .runner import RunResult, execute_run, prepare_resume, resume_run
from .state import TrainState
from .trainer import (
    GraphSteps,
    NodeSteps,
    Trainer,
    TrainHistory,
    clip_gradients,
    gradient_norm,
)

__all__ = [
    "register_method", "get_method", "list_methods", "method_names",
    "method_levels", "MethodEntry",
    "RunConfig", "CONFIG_FILENAME", "ConfigError",
    "Trainer", "TrainHistory", "GraphSteps", "NodeSteps",
    "gradient_norm", "clip_gradients",
    "Callback", "EarlyStopping", "ProbeCallback", "JournalCallback",
    "CheckpointCallback", "StopAfter", "TrainingInterrupted",
    "TrainState",
    "RunResult", "execute_run", "resume_run", "prepare_resume",
]
