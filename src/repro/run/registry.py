"""Method registry: the single source of truth for runnable methods.

Every contrastive method class in :mod:`repro.methods` registers itself
with :func:`register_method`, recording its training level (``"graph"`` or
``"node"``) and its constructor signature.  Everything that used to
hardcode method-name lists — the CLI's ``choices=``, dispatch via
``getattr``, sweep loops — now queries this registry instead, so adding a
method is one decorator and zero CLI edits (``scripts/lint_repro.py``
rejects new hardcoded method-name lists outside this module).

Because the registry captures each constructor's signature at registration
time, a :class:`repro.run.RunConfig` can be validated *before* datasets are
loaded: :meth:`MethodEntry.build` passes only the standard dimension
keywords the constructor actually accepts (``hidden_dim`` / ``out_dim`` /
``num_layers``) and rejects unknown overrides with the full parameter list
in the error message.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field

__all__ = ["MethodEntry", "register_method", "get_method", "list_methods",
           "method_names", "method_levels"]

LEVELS = ("graph", "node")

#: ``(name, level) -> MethodEntry``; populated by import side effects of
#: :mod:`repro.methods` (see :func:`_ensure_populated`).
_REGISTRY: dict[tuple[str, str], "MethodEntry"] = {}

#: Standard constructor keywords the runner forwards when (and only when)
#: the method's signature declares them.
_STANDARD_KWARGS = ("hidden_dim", "out_dim", "num_layers")


@dataclass(frozen=True)
class MethodEntry:
    """One registered method: class, level, and introspected signature."""

    name: str
    level: str
    cls: type
    signature: inspect.Signature
    summary: str = ""
    accepts: frozenset = field(default_factory=frozenset)

    def build(self, num_features: int, *, rng, **kwargs):
        """Construct the method, forwarding only accepted keywords.

        Standard dimension keywords (``hidden_dim``/``out_dim``/
        ``num_layers``) are dropped silently when the constructor does not
        declare them (e.g. ``MVGRLNode`` takes no ``out_dim``); any *other*
        unknown keyword raises immediately with the accepted set, so a bad
        config fails before a dataset is built.
        """
        forwarded = {}
        for key, value in kwargs.items():
            if value is None:
                continue
            if key in self.accepts:
                forwarded[key] = value
            elif key not in _STANDARD_KWARGS:
                raise TypeError(
                    f"{self.name} ({self.level}) does not accept {key!r}; "
                    f"constructor parameters: {sorted(self.accepts)}")
        return self.cls(num_features, rng=rng, **forwarded)

    def describe(self) -> dict:
        """JSON-able summary row for ``repro run --list-methods``."""
        return {"name": self.name, "level": self.level,
                "class": self.cls.__name__,
                "params": sorted(self.accepts),
                "summary": self.summary}


def register_method(name: str, *, level: str, summary: str = ""):
    """Class decorator adding the method to the global registry.

    Parameters
    ----------
    name:
        Public method name (what ``--method`` accepts).  The same name may
        be registered once per level (MVGRL trains at both).
    level:
        ``"graph"`` (minibatch loop over a graph dataset) or ``"node"``
        (full-graph loop on one large graph).
    summary:
        One-line description shown by ``repro run --list-methods``;
        defaults to the first docstring line.
    """
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")

    def decorate(cls):
        key = (name, level)
        if key in _REGISTRY and _REGISTRY[key].cls is not cls:
            raise ValueError(
                f"method {name!r} is already registered at level {level!r} "
                f"by {_REGISTRY[key].cls.__name__}")
        signature = inspect.signature(cls.__init__)
        # Subclasses that forward ``*args, **kwargs`` (JOAO, SGCL, GCA)
        # accept everything their bases declare; union over the MRO so the
        # recorded signature reflects what the constructor really takes.
        accepts = set()
        for klass in cls.__mro__:
            init = klass.__dict__.get("__init__")
            if init is None:
                continue
            accepts.update(
                p.name for p in inspect.signature(init).parameters.values()
                if p.kind not in (inspect.Parameter.VAR_POSITIONAL,
                                  inspect.Parameter.VAR_KEYWORD)
                and p.name != "self")
        accepts = frozenset(accepts)
        line = summary
        if not line:
            doc = (cls.__doc__ or "").strip()
            line = doc.splitlines()[0] if doc else ""
        _REGISTRY[key] = MethodEntry(
            name=name, level=level, cls=cls, signature=signature,
            summary=line, accepts=accepts)
        return cls

    return decorate


def _ensure_populated() -> None:
    """Trigger the registration side effects of :mod:`repro.methods`."""
    if not _REGISTRY:
        importlib.import_module("repro.methods")


def get_method(name: str, level: str | None = None) -> MethodEntry:
    """Look up one method, inferring the level when unambiguous.

    Raises ``KeyError`` with the known-name list for typos, and
    ``ValueError`` when ``level=None`` and the name is registered at both
    levels (MVGRL).
    """
    _ensure_populated()
    if level is not None:
        entry = _REGISTRY.get((name, level))
        if entry is None:
            known = method_names(level)
            raise KeyError(
                f"unknown {level}-level method {name!r}; known: {known}")
        return entry
    matches = [e for (n, _), e in sorted(_REGISTRY.items()) if n == name]
    if not matches:
        raise KeyError(f"unknown method {name!r}; known: {method_names()}")
    if len(matches) > 1:
        raise ValueError(
            f"method {name!r} is registered at levels "
            f"{[e.level for e in matches]}; pass level= to disambiguate")
    return matches[0]


def list_methods(level: str | None = None) -> list[MethodEntry]:
    """All registered entries (optionally one level), sorted by name."""
    _ensure_populated()
    entries = [e for e in _REGISTRY.values()
               if level is None or e.level == level]
    return sorted(entries, key=lambda e: (e.name, e.level))


def method_names(level: str | None = None) -> list[str]:
    """Sorted, de-duplicated method names for CLI ``choices=``."""
    return sorted({e.name for e in list_methods(level)})


def method_levels(name: str) -> list[str]:
    """The levels a method name is registered at (empty when unknown)."""
    _ensure_populated()
    return sorted(level for (n, level) in _REGISTRY if n == name)
