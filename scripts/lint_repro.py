#!/usr/bin/env python
"""AST-based repo lint for CI tier (a).

Ten rules, all cheap; the first eight keep the library embeddable and
deterministic, the ninth keeps every tree free of dead imports, the tenth
keeps the library to one LRU:

1. **No ``print()`` in the library** — ``src/repro/`` must stay silent so it
   can run inside servers and benchmark harnesses; all terminal output
   belongs to the CLI (``cli.py``) or the designated table renderer
   (``utils/tables.py``), which are allowlisted.
2. **No bare ``except:``** anywhere under ``src/`` — swallowing
   ``KeyboardInterrupt``/``SystemExit`` has no place in a training stack.
3. **No bare ``np.random.<fn>`` calls** anywhere under ``src/`` outside the
   sanctioned seeding helpers (``utils/seed.py``, ``pipeline/seeding.py``).
   Global-RNG use (``np.random.default_rng()``, ``np.random.seed``,
   legacy samplers) silently breaks the worker-determinism contract: the
   pipeline guarantees bit-identical output at every worker count only
   because every draw flows through an explicitly seeded, explicitly
   routed ``Generator``.
4. **No hardcoded method-name lists** anywhere under ``src/`` outside the
   method registry (``run/registry.py``): a list/tuple/set literal holding
   two or more known method names (``"GraphCL"``, ``"SimGRACE"``, ...) is
   a parallel source of truth that silently goes stale when a method is
   added — query ``repro.run.registry.method_names()`` instead.
   ``__all__`` assignments are exempt (re-export lists name classes, not
   runnable methods).
5. **No ``time.sleep()`` in the library outside ``serve/`` and
   ``faults/``** — training, evaluation, and the pipeline are
   deterministic compute; a sleep is either a latent flake (polling) or
   dead weight.  Only the serving client's retry backoff and injected
   ``slow`` faults may block on the wall clock.
6. **No ``threading.Thread(`` outside ``serve/`` and ``pipeline/``** —
   the worker-determinism story depends on every thread being owned by
   one of the two audited subsystems (the pipeline's deterministic
   worker pool, the serving stack's batcher/handler threads).  Ad-hoc
   threads elsewhere bypass both audits.
7. **No branching on ``use_fused()`` outside the op registry**
   (``tensor/registry.py``) — kernel selection is the registry's job
   (PR 9); an ``if use_fused():`` at a call site reintroduces the
   scattered dual-implementation dispatch the registry replaced.
   Reading the value (telemetry) is fine; branching on it is not.
8. **No bare ``time.monotonic()`` outside ``faults/``** — deadline and
   timeout arithmetic lives in one audited place,
   :class:`repro.faults.Deadline`.  Hand-rolled ``monotonic()`` math at
   call sites is how the batcher's close/submit hang slipped in: each
   site reinvents expiry, clamping, and the never-expires case.  Build a
   ``Deadline`` and ask it for ``remaining()`` instead.
9. **No imported name left unused** in ``src/``, ``tests/``,
   ``benchmarks/``, ``examples/`` and ``scripts/`` — a dead import is a
   stale dependency edge that outlives the code that needed it.  Package
   ``__init__.py`` re-exports, names listed in ``__all__`` and
   ``from __future__`` imports are exempt; a name counts as used when it
   appears anywhere in the module, string annotations included.
10. **No ``OrderedDict`` in ``src/`` outside ``pipeline/cache.py``** — that
    module's :class:`repro.pipeline.LRU` is the library's one bounded
    LRU (the structure and embedding caches subclass it); a second
    hand-rolled ``OrderedDict`` cache duplicates its eviction, byte
    accounting and counters.

Exit status is the number of violations (0 = clean).  Run from the repo
root::

    python scripts/lint_repro.py
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
LIBRARY = REPO_ROOT / "src" / "repro"

# Modules whose job is terminal rendering; print() is their output channel.
PRINT_ALLOWED = {LIBRARY / "cli.py", LIBRARY / "utils" / "tables.py"}

# The only library modules allowed to touch ``np.random`` constructors:
# the seeding helpers everything else is expected to route through.
NP_RANDOM_ALLOWED = {LIBRARY / "utils" / "seed.py",
                     LIBRARY / "pipeline" / "seeding.py"}

# The registry is the single place allowed to enumerate methods by name.
METHOD_LIST_ALLOWED = {LIBRARY / "run" / "registry.py"}

# Subsystems allowed to sleep (injected slow faults, client
# retry backoff) or start threads (audited worker pools); everything else
# in the library must stay single-threaded and non-blocking.
SLEEP_ALLOWED_DIRS = (LIBRARY / "serve", LIBRARY / "faults")
THREAD_ALLOWED_DIRS = (LIBRARY / "serve", LIBRARY / "pipeline")

# All monotonic-clock arithmetic flows through repro.faults.Deadline.
MONOTONIC_ALLOWED_DIRS = (LIBRARY / "faults",)

# The registry owns kernel dispatch; nothing else may branch on the switch.
USE_FUSED_BRANCH_ALLOWED = {LIBRARY / "tensor" / "registry.py"}

# Trees scanned for unused imports (rule 9); the library rules scan src/.
IMPORT_SCAN_DIRS = ("src", "tests", "benchmarks", "examples", "scripts")

# The one LRU lives here; no other library module may build on OrderedDict.
ORDERED_DICT_ALLOWED = {LIBRARY / "pipeline" / "cache.py"}


def _under(path: Path, dirs: tuple[Path, ...]) -> bool:
    return any(d in path.parents for d in dirs)


def _is_time_sleep_call(node: ast.Call) -> bool:
    """Match ``time.sleep(...)`` / bare ``sleep(...)`` from time."""
    func = node.func
    if (isinstance(func, ast.Attribute) and func.attr == "sleep"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"):
        return True
    return isinstance(func, ast.Name) and func.id == "sleep"


def _is_thread_constructor(node: ast.Call) -> bool:
    """Match ``threading.Thread(...)`` / bare ``Thread(...)``."""
    func = node.func
    if (isinstance(func, ast.Attribute) and func.attr == "Thread"
            and isinstance(func.value, ast.Name)
            and func.value.id == "threading"):
        return True
    return isinstance(func, ast.Name) and func.id == "Thread"


def _is_monotonic_call(node: ast.Call) -> bool:
    """Match ``time.monotonic(...)`` / bare ``monotonic(...)``."""
    func = node.func
    if (isinstance(func, ast.Attribute) and func.attr == "monotonic"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"):
        return True
    return isinstance(func, ast.Name) and func.id == "monotonic"

#: Every name registered via ``@register_method`` — a literal list/tuple/
#: set containing two or more of these outside the registry is a stale-
#: prone duplicate of ``method_names()``.
KNOWN_METHOD_NAMES = {
    "GraphCL", "RGCL", "JOAO", "SimGRACE", "InfoGraph", "MVGRL",
    "GraphMAE", "GRACE", "GCA", "BGRL", "SGCL", "COSTA", "DGI",
    "AttrMasking", "ContextPred",
}


def _all_assignment_nodes(tree: ast.AST) -> set[int]:
    """ids of every node inside an ``__all__ = [...]`` style assignment."""
    exempt: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets):
            exempt.update(id(sub) for sub in ast.walk(node))
    return exempt


def _contains_use_fused_call(node: ast.AST) -> bool:
    """Whether any ``use_fused(...)`` call appears under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if name == "use_fused":
                return True
    return False


def _is_np_random_call(node: ast.Call) -> bool:
    """Match ``np.random.<fn>(...)`` / ``numpy.random.<fn>(...)``."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return False
    middle = func.value
    return (isinstance(middle, ast.Attribute)
            and middle.attr == "random"
            and isinstance(middle.value, ast.Name)
            and middle.value.id in ("np", "numpy"))


def _all_names(tree: ast.AST) -> set[str]:
    """String entries of every ``__all__`` list/tuple in the module."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in getattr(node, "targets", [getattr(
                            node, "target", None)]))
                and isinstance(node.value, (ast.List, ast.Tuple))):
            names.update(elt.value for elt in node.value.elts
                         if isinstance(elt, ast.Constant))
    return names


def _used_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, including inside string annotations."""
    used: set[str] = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    for annotation in annotations:
        for sub in ast.walk(annotation) if annotation is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    parsed = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(n.id for n in ast.walk(parsed)
                            if isinstance(n, ast.Name))
    return used


def unused_imports(path: Path, tree: ast.AST) -> list[str]:
    """Rule 9: imported names the module never uses."""
    if path.name == "__init__.py":
        return []
    exempt = _all_names(tree)
    used = _used_names(tree)
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and bound not in exempt:
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}:{node.lineno}: "
                    f"unused import {bound!r} — delete it")
    return problems


def ordered_dicts(path: Path, tree: ast.AST) -> list[str]:
    """Rule 10: ``OrderedDict`` imported or referenced outside the LRU."""
    if LIBRARY not in path.parents or path in ORDERED_DICT_ALLOWED:
        return []
    lines = sorted(
        {node.lineno for node in ast.walk(tree)
         if (isinstance(node, ast.ImportFrom)
             and any(alias.name == "OrderedDict" for alias in node.names))
         or (isinstance(node, ast.Attribute)
             and node.attr == "OrderedDict")})
    return [f"{path.relative_to(REPO_ROOT)}:{line}: OrderedDict outside "
            "repro.pipeline.cache — subclass repro.pipeline.LRU, the one "
            "bounded LRU" for line in lines]


def check_file(path: Path) -> list[str]:
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [f"{path}:{exc.lineno}: syntax error: {exc.msg}"]
    problems = []
    rel = path.relative_to(REPO_ROOT)
    print_banned = (LIBRARY in path.parents and path not in PRINT_ALLOWED)
    all_exempt = _all_assignment_nodes(tree)
    for node in ast.walk(tree):
        if (path not in METHOD_LIST_ALLOWED
                and isinstance(node, (ast.List, ast.Tuple, ast.Set))
                and id(node) not in all_exempt):
            names = {elt.value for elt in node.elts
                     if isinstance(elt, ast.Constant)
                     and isinstance(elt.value, str)}
            hits = sorted(names & KNOWN_METHOD_NAMES)
            if len(hits) >= 2:
                problems.append(
                    f"{rel}:{node.lineno}: hardcoded method-name list "
                    f"{hits} — query repro.run.registry.method_names() "
                    "instead")
        if (print_banned
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            problems.append(
                f"{rel}:{node.lineno}: print() in library code — return "
                "data or log to a RunJournal instead")
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            problems.append(
                f"{rel}:{node.lineno}: bare 'except:' — catch a specific "
                "exception type")
        if (path not in NP_RANDOM_ALLOWED
                and isinstance(node, ast.Call)
                and _is_np_random_call(node)):
            problems.append(
                f"{rel}:{node.lineno}: bare np.random.{node.func.attr}() — "
                "route RNG through repro.utils.seed / repro.pipeline.seeding "
                "(global-RNG use breaks worker determinism)")
        if (LIBRARY in path.parents
                and not _under(path, SLEEP_ALLOWED_DIRS)
                and isinstance(node, ast.Call)
                and _is_time_sleep_call(node)):
            problems.append(
                f"{rel}:{node.lineno}: time.sleep() outside repro.serve / "
                "repro.faults — library code must not block on wall-clock "
                "(polling sleeps are latent flakes)")
        if (LIBRARY in path.parents
                and not _under(path, THREAD_ALLOWED_DIRS)
                and isinstance(node, ast.Call)
                and _is_thread_constructor(node)):
            problems.append(
                f"{rel}:{node.lineno}: threading.Thread() outside "
                "repro.serve / repro.pipeline — threads belong to the "
                "audited worker pools; ad-hoc threads bypass the "
                "determinism contract")
        if (LIBRARY in path.parents
                and not _under(path, MONOTONIC_ALLOWED_DIRS)
                and isinstance(node, ast.Call)
                and _is_monotonic_call(node)):
            problems.append(
                f"{rel}:{node.lineno}: time.monotonic() outside "
                "repro.faults — deadline arithmetic belongs to "
                "repro.faults.Deadline (after/after_ms/remaining), the "
                "single audited source of timeout truth")
        if (LIBRARY in path.parents
                and path not in USE_FUSED_BRANCH_ALLOWED
                and isinstance(node, (ast.If, ast.IfExp, ast.While))
                and _contains_use_fused_call(node.test)):
            problems.append(
                f"{rel}:{node.lineno}: branching on use_fused() outside "
                "repro.tensor.registry — dispatch through "
                "repro.tensor.call(name, ...) so the registry owns "
                "kernel selection")
    problems.extend(ordered_dicts(path, tree))
    return problems


def main() -> int:
    problems: list[str] = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        problems.extend(check_file(path))
    for tree_dir in IMPORT_SCAN_DIRS:
        for path in sorted((REPO_ROOT / tree_dir).rglob("*.py")):
            try:
                tree = ast.parse(path.read_text(), filename=str(path))
            except SyntaxError:
                continue          # reported by check_file / compileall
            problems.extend(unused_imports(path, tree))
    for problem in problems:
        print(problem)
    if not problems:
        print("lint_repro: clean (" + ", ".join(IMPORT_SCAN_DIRS) + ")")
    return len(problems)


if __name__ == "__main__":
    raise SystemExit(main())
