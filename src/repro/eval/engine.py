"""Fast evaluation engine: exact lockstep fold solves.

The reference protocol (:mod:`repro.eval.protocol`) runs one scipy
L-BFGS fit per (repeat, fold) cell — 50 serial solver calls for the
paper's 10-fold x 5-repeat graph protocol.  This module returns the
identical ``(mean, std)`` several times faster:

Exact lockstep solves
    A fold's accuracy depends on scipy's *under-converged* L-BFGS
    endpoint (200 iterations), so only the reference trajectory itself
    will do.  The engine drives one reverse-communication ``setulb``
    instance per fold — the exact routine, constants, and iteration
    policy behind ``optimize.minimize(method="L-BFGS-B")`` — and answers
    all pending (loss, gradient) requests per round with stacked
    kernels.  Each fold's inputs come from the reference's own
    :func:`~repro.eval.protocol.standardize`, and every fold's (f, g) is
    bit-identical to the reference objective's: scores are ``x @ w + b``,
    the loss expressions run in the reference's order, the bias gradient
    is the same sequential column sum, and the parameters keep the
    ``[w.ravel(), b]`` layout.  Stacking is exact because the GEMMs run
    slice by slice and the elementwise steps do not depend on their
    neighbours.  So every fold follows the reference trajectory to the
    last bit; nothing is guarded or re-fit.

    Folds whose training split misses a global class (the reference fits
    a smaller classifier there), the SGD classifier (its trajectory
    depends on every minibatch draw) and any run where scipy's private
    driver is unavailable take exact reference cells instead.

Node probe
    The node protocol's probe repeats are the same kind of cell: one
    logistic fit per subsampled training mask, solved on the same exact
    lockstep.

Parallel cross-validation
    The parallel unit is one repeat, fanned out through
    :func:`repro.pipeline.fork_map`.  Each repeat derives its RNG from
    the cell index alone (``seeded_rng(seed + repeat)``, the
    reference's own scheme), so results are bit-identical at every
    ``eval_workers`` setting.

:class:`EvalStats` records solver/fallback/skip counts and timings for
the run journal and ``repro report``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

try:  # scipy's private L-BFGS-B core; probed before use, never required
    from scipy.optimize import _lbfgsb as _lbfgsb_core
except ImportError:  # pragma: no cover - scipy always ships it today
    _lbfgsb_core = None

from ..faults import inject as _inject
from ..obs.tracing import trace
from ..pipeline.pool import fork_map, map_context
from ..utils.seed import seeded_rng
from .classifiers import make_classifier
from .folds import FoldPlan, plan_folds
from .metrics import accuracy, mean_std
from .protocol import kfold_indices, standardize

__all__ = ["EvalStats", "fast_evaluate_graph", "fast_evaluate_node",
           "lockstep_available", "resolve_eval_workers"]

#: Fault-injection point at the top of every graph-protocol repeat: the
#: chaos drill kills a forked ``fork_map`` worker here (``kill`` rules are
#: inert in the parent, which replays the lost repeat).
REPEAT_POINT = "eval.repeat"

# Constants scipy's minimize(method="L-BFGS-B") passes to setulb for the
# options the reference leaves at their defaults (maxiter is per fold).
_LBFGS_M = 10
_LBFGS_FACTR = 2.2204460492503131e-09 / np.finfo(np.float64).eps
_LBFGS_PGTOL = 1e-5
_LBFGS_MAXLS = 20
_LBFGS_MAXFUN = 15000


def resolve_eval_workers(workers: int | None = None) -> int:
    """Eval worker count: explicit, else ``REPRO_EVAL_WORKERS``, else 0."""
    if workers is None:
        workers = int(os.environ.get("REPRO_EVAL_WORKERS", "0"))
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"eval workers must be >= 0, got {workers}")
    return workers


@dataclass
class EvalStats:
    """Telemetry from one protocol evaluation (fast or reference path)."""

    seconds: float = 0.0
    solver: str = "lockstep"      # lockstep | reference | sgd
    workers: int = 0
    repeats: int = 0
    folds_total: int = 0
    folds_batched: int = 0        # solved on the lockstep
    folds_fallback: int = 0       # solved as reference cells
    folds_skipped: int = 0        # degenerate folds the protocol drops
    fit_iterations: int = 0       # total L-BFGS iterations across solves
    repeat_seconds: tuple = field(default_factory=tuple)

    def to_fields(self) -> dict:
        """Flat journal-friendly dict (floats rounded for readability)."""
        fields = {
            "eval_seconds": round(self.seconds, 4),
            "eval_solver": self.solver,
            "eval_workers": self.workers,
            "eval_repeats": self.repeats,
            "eval_folds": self.folds_total,
            "eval_folds_batched": self.folds_batched,
            "eval_folds_fallback": self.folds_fallback,
            "eval_folds_skipped": self.folds_skipped,
            "eval_fit_iterations": self.fit_iterations,
        }
        if self.repeat_seconds:
            fields["eval_repeat_seconds"] = list(self.repeat_seconds)
        return fields


# ----------------------------------------------------------------------
# Lockstep L-BFGS-B driver
# ----------------------------------------------------------------------
class _LBFGSInstance:
    """One reverse-communication L-BFGS-B solve over shared state rows.

    ``x_row`` and ``g_row`` are row views into the lockstep's shared
    parameter/gradient matrices; ``setulb`` updates the parameters in
    place, and the batched kernels overwrite the gradient rows, exactly
    mirroring scipy's rebinding of ``g`` on every objective call.
    """

    __slots__ = ("x", "f", "g", "low", "up", "nbd", "wa", "iwa", "task",
                 "ln_task", "lsave", "isave", "dsave", "nfev", "nit",
                 "max_iter")

    def __init__(self, x_row: np.ndarray, g_row: np.ndarray,
                 max_iter: int):
        dim = x_row.size
        m = _LBFGS_M
        self.x = x_row
        self.f = np.array(0.0)
        self.g = g_row
        # Unbounded problem: nbd == 0 everywhere, bounds arrays unused.
        self.low = np.zeros(dim)
        self.up = np.zeros(dim)
        self.nbd = np.zeros(dim, np.int32)
        self.wa = np.zeros(2 * m * dim + 5 * dim + 11 * m * m + 8 * m)
        self.iwa = np.zeros(3 * dim, np.int32)
        self.task = np.zeros(2, np.int32)
        self.ln_task = np.zeros(2, np.int32)
        self.lsave = np.zeros(4, np.int32)
        self.isave = np.zeros(44, np.int32)
        self.dsave = np.zeros(29)
        self.nfev = 0
        self.nit = 0
        self.max_iter = max_iter

    def advance(self) -> bool:
        """Step the driver; True when it wants (f, g), False when done.

        Applies scipy's iteration policy between steps: task 1 is a
        completed iteration (stop at ``max_iter`` via status 504 or at
        ``maxfun`` via 502), task 3 requests an objective evaluation.
        """
        task = self.task
        x, g = self.x, self.g
        low, up, nbd = self.low, self.up, self.nbd
        wa, iwa = self.wa, self.iwa
        while True:
            _lbfgsb_core.setulb(_LBFGS_M, x, low, up, nbd, self.f, g,
                                _LBFGS_FACTR, _LBFGS_PGTOL, wa, iwa, task,
                                self.lsave, self.isave, self.dsave,
                                _LBFGS_MAXLS, self.ln_task)
            t = task[0]
            if t == 3:
                return True
            if t == 1:
                self.nit += 1
                if self.nit >= self.max_iter:
                    task[0] = 5
                    task[1] = 504
                elif self.nfev > _LBFGS_MAXFUN:
                    task[0] = 5
                    task[1] = 502
            else:
                return False


_lockstep_ok: bool | None = None


def lockstep_available() -> bool:
    """Whether scipy's ``setulb`` driver works here (probed once).

    The lockstep leans on a private scipy routine; if its signature ever
    shifts, the engine must fall back to reference fits rather than
    crash.  The probe minimizes a tiny quadratic through the driver and
    checks the solution, caching the verdict for the process.
    """
    global _lockstep_ok
    if _lockstep_ok is None:
        try:
            flat = np.zeros((1, 2))
            grad = np.zeros((1, 2))
            inst = _LBFGSInstance(flat[0], grad[0], 50)
            while inst.advance():
                inst.f = np.float64((flat[0, 0] - 1.0) ** 2
                                    + (flat[0, 1] + 2.0) ** 2)
                grad[0, 0] = 2.0 * (flat[0, 0] - 1.0)
                grad[0, 1] = 2.0 * (flat[0, 1] + 2.0)
                inst.nfev += 1
            _lockstep_ok = bool(abs(flat[0, 0] - 1.0) < 1e-6
                                and abs(flat[0, 1] + 2.0) < 1e-6)
        except Exception:
            _lockstep_ok = False
    return _lockstep_ok


class _LockstepState:
    """Shared buffers for one rectangular batch of lockstep solves.

    ``xs`` stacks the folds' standardized training matrices, shape
    ``(count, n, d)``; ``y_list`` holds the matching class-index vectors.
    Each fold's parameter row is the reference's flat ``[w.ravel(), b]``,
    seen through the stacked views ``w`` ``(count, d, k)`` and ``b``
    ``(count, 1, k)``; the gradient rows are laid out the same way.
    """

    def __init__(self, xs: np.ndarray, y_list: list[np.ndarray], k: int,
                 l2: float, max_iter: int):
        count, n, d = xs.shape
        dk = d * k
        self.count, self.n, self.l2 = count, n, l2
        self.flat = np.zeros((count, dk + k))
        self.grad = np.zeros((count, dk + k))
        self.insts = [_LBFGSInstance(self.flat[i], self.grad[i], max_iter)
                      for i in range(count)]
        self.w_flat = self.flat[:, :dk]
        self.w = self.w_flat.reshape(count, d, k)
        self.b = self.flat[:, None, dk:]
        self.grad_w = self.grad[:, :dk].reshape(count, d, k)
        self.grad_b = self.grad[:, dk:]
        self.xs = xs
        self.xs_t = xs.transpose(0, 2, 1)
        onehot = np.zeros((count, n, k))
        for i, y_idx in enumerate(y_list):
            onehot[i, np.arange(n), y_idx] = 1.0
        self.onehot = onehot
        self.act = np.empty((count, n, k))
        self.gm = np.empty((count, n, k))
        self.col_sums = np.empty((count, n, k))
        self.l2_w = np.empty((count, d, k))
        self.w_sq = np.empty((count, dk))

    def run(self, chain) -> tuple[np.ndarray, int]:
        """Drive all solves to termination; ``chain`` fills loss + gm.

        Per round, ``act`` receives every fold's scores ``x @ w + b``;
        ``chain()`` must return the data-loss vector and leave each
        fold's score gradient in ``gm``; the gradient is then finished
        as ``x.T @ gm + l2 * w`` and ``gm.sum(axis=0)`` (a sequential
        column sum, which ``cumsum`` reproduces and a GEMM against ones
        does not).  Finished folds are recomputed harmlessly: their
        instances never read f or g again.  Returns ``(flat, nit)`` with
        ``flat[i]`` fold ``i``'s ``[w.ravel(), b]`` solution.
        """
        insts = self.insts
        act, gm, col_sums = self.act, self.gm, self.col_sums
        half_l2 = 0.5 * self.l2
        active = list(range(self.count))
        while True:
            active = [i for i in active if insts[i].advance()]
            if not active:
                break
            np.matmul(self.xs, self.w, out=act)
            np.add(act, self.b, out=act)
            data_loss = chain()
            np.matmul(self.xs_t, gm, out=self.grad_w)
            np.multiply(self.l2, self.w, out=self.l2_w)
            np.add(self.grad_w, self.l2_w, out=self.grad_w)
            np.cumsum(gm, axis=1, out=col_sums)
            self.grad_b[...] = col_sums[:, -1]
            np.multiply(self.w_flat, self.w_flat, out=self.w_sq)
            loss = data_loss + half_l2 * np.add.reduce(self.w_sq, axis=1)
            for i in active:
                inst = insts[i]
                inst.f = loss[i]
                inst.nfev += 1
        return self.flat, sum(inst.nit for inst in insts)


def _lockstep_svm_solve(xs: np.ndarray, y_list: list[np.ndarray], k: int,
                        l2: float, max_iter: int) -> tuple[np.ndarray, int]:
    """Lockstep squared-hinge solves (reference ``LinearSVMClassifier``)."""
    state = _LockstepState(xs, y_list, k, l2, max_iter)
    signs = 2.0 * state.onehot - 1.0
    neg2signs = -2.0 * signs
    act, gm = state.act, state.gm
    count, n = state.count, state.n
    sq = np.empty((count, n * k))

    def chain():
        # margins = 1 - signs * scores; active = max(margins, 0)
        np.multiply(signs, act, out=act)
        np.subtract(1.0, act, out=act)
        np.maximum(act, 0.0, out=act)
        np.multiply(act, act, out=sq.reshape(count, n, k))
        # grad_margin = -2 * signs * active / n
        np.multiply(neg2signs, act, out=gm)
        np.divide(gm, n, out=gm)
        return np.add.reduce(sq, axis=1) / (n * k)

    return state.run(chain)


def _lockstep_logreg_solve(xs: np.ndarray, y_list: list[np.ndarray], k: int,
                           l2: float,
                           max_iter: int) -> tuple[np.ndarray, int]:
    """Lockstep softmax solves (reference ``LogisticRegressionClassifier``)."""
    state = _LockstepState(xs, y_list, k, l2, max_iter)
    act, gm = state.act, state.gm
    count, n = state.count, state.n
    act_flat = act.reshape(count, n * k)
    rows = np.arange(count)[:, None]
    gather = np.stack([np.arange(n) * k + y_idx for y_idx in y_list])

    def chain():
        # stabilized softmax -> nll means, (probs - targets) / n in gm
        np.subtract(act, act.max(axis=2, keepdims=True), out=act)
        np.exp(act, out=act)
        np.divide(act, np.add.reduce(act, axis=2, keepdims=True), out=act)
        picked = act_flat[rows, gather]
        np.add(picked, 1e-12, out=picked)
        np.log(picked, out=picked)
        nll = -(np.add.reduce(picked, axis=1) / n)
        np.subtract(act, state.onehot, out=gm)
        np.divide(gm, n, out=gm)
        return nll

    return state.run(chain)


_LOCKSTEP_SOLVERS = {"svm": _lockstep_svm_solve,
                     "logreg": _lockstep_logreg_solve}


def _lockstep_cells(classifier: str, x: np.ndarray, labels: np.ndarray,
                    classes: np.ndarray, cells: list[tuple],
                    l2: float, max_iter: int) -> tuple[list[float], int]:
    """Accuracies of ``(train_idx, test_idx)`` cells on the lockstep.

    Each cell is what the reference fits: ``standardize`` on its rows, a
    ``classifier`` fit on ``labels[train_idx]`` (whose class set must be
    ``classes``), and predictions ``classes[argmax(x_test @ w + b)]``.
    Cells are grouped by training-row count so every lockstep batch is
    rectangular.  Returns the accuracies in cell order and the total
    L-BFGS iteration count.
    """
    solve = _LOCKSTEP_SOLVERS[classifier]
    d = x.shape[1]
    k = len(classes)
    groups: dict[int, list[int]] = {}
    for c, (train_idx, _) in enumerate(cells):
        groups.setdefault(len(train_idx), []).append(c)
    scores = [0.0] * len(cells)
    nit = 0
    for n, members in groups.items():
        xs = np.empty((len(members), n, d))
        x_tests, y_list = [], []
        for i, c in enumerate(members):
            train_idx, test_idx = cells[c]
            xs[i], x_test = standardize(x[train_idx], x[test_idx])
            x_tests.append(x_test)
            y_list.append(np.searchsorted(classes, labels[train_idx]))
        with trace("eval/lockstep"):
            flat, group_nit = solve(xs, y_list, k, l2, max_iter)
        nit += group_nit
        for i, c in enumerate(members):
            weight = flat[i, : d * k].reshape(d, k)
            test_scores = x_tests[i] @ weight + flat[i, d * k:]
            preds = classes[np.argmax(test_scores, axis=1)]
            scores[c] = accuracy(preds, labels[cells[c][1]])
    return scores, nit


# ----------------------------------------------------------------------
# Graph protocol tasks (one per repeat; also the fork-pool task unit)
# ----------------------------------------------------------------------
@dataclass
class _GraphContext:
    """Shared read-only state for graph-protocol repeat tasks."""

    x: np.ndarray
    labels: np.ndarray
    class_ids: np.ndarray
    classes: np.ndarray
    classifier: str
    folds: int
    seed: int
    l2: float
    max_iter: int
    lockstep: bool = False


def _reference_cell(ctx, plan: FoldPlan, position: int, repeat: int) -> float:
    """One (repeat, fold) cell on the reference classifier."""
    train_idx = plan.train_indices(position)
    test_idx = plan.folds[position]
    x_train, x_test = standardize(ctx.x[train_idx], ctx.x[test_idx])
    model = make_classifier(ctx.classifier, seed=ctx.seed + repeat)
    model.fit(x_train, ctx.labels[train_idx])
    return accuracy(model.predict(x_test), ctx.labels[test_idx])


def _graph_repeat_task(repeat: int) -> dict:
    """Evaluate one repeat of the graph protocol on the fast engine.

    Covered folds are solved together on the lockstep; the rest (every
    fold for SGD or without the driver) are reference cells, for which
    parallel repeats are the only speedup.
    """
    _inject(REPEAT_POINT)
    ctx = map_context()
    started = time.perf_counter()
    rng = seeded_rng(ctx.seed + repeat)
    fold_list = kfold_indices(len(ctx.labels), ctx.folds, rng)
    plan = plan_folds(ctx.class_ids, fold_list, len(ctx.classes))
    out = {"score": None, "skipped": plan.skipped, "batched": 0,
           "fallback": 0, "nit": 0, "seconds": 0.0}
    scores_by_pos: dict[int, float] = {}
    lockstep_pos = []
    for j, position in enumerate(plan.valid):
        if ctx.lockstep and plan.covered[j]:
            lockstep_pos.append(position)
        else:
            scores_by_pos[position] = _reference_cell(ctx, plan, position,
                                                      repeat)
            out["fallback"] += 1
    if lockstep_pos:
        cells = [(plan.train_indices(p), plan.folds[p]) for p in lockstep_pos]
        scores, out["nit"] = _lockstep_cells(
            ctx.classifier, ctx.x, ctx.labels, ctx.classes, cells,
            ctx.l2, ctx.max_iter)
        scores_by_pos.update(zip(lockstep_pos, scores))
        out["batched"] = len(cells)
    if plan.valid:
        out["score"] = float(np.mean([scores_by_pos[p] for p in plan.valid]))
    out["seconds"] = time.perf_counter() - started
    return out


def fast_evaluate_graph(embeddings: np.ndarray, labels: np.ndarray, *,
                        classifier: str = "svm", folds: int = 10,
                        repeats: int = 5, seed: int = 0,
                        eval_workers: int | None = None,
                        ) -> tuple[float, float, EvalStats]:
    """Fast path for :func:`repro.eval.protocol.evaluate_graph_embeddings`.

    Returns ``(mean, std, stats)`` with the mean/std identical to the
    reference protocol at every ``eval_workers`` count.
    """
    started = time.perf_counter()
    x = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    classes, class_ids = np.unique(labels, return_inverse=True)
    workers = resolve_eval_workers(eval_workers)
    probe = make_classifier(classifier, seed=seed)
    lockstep = classifier in _LOCKSTEP_SOLVERS and lockstep_available()
    ctx = _GraphContext(x=x, labels=labels, class_ids=class_ids,
                        classes=classes, classifier=classifier, folds=folds,
                        seed=seed, l2=probe.l2, max_iter=probe.max_iter,
                        lockstep=lockstep)
    with trace("eval/graph"):
        results = fork_map(_graph_repeat_task, range(repeats),
                           workers=workers, context=ctx)
    run_scores = [r["score"] for r in results if r["score"] is not None]
    mean, std = mean_std(run_scores)
    if classifier == "sgd":
        solver = "sgd"
    else:
        solver = "lockstep" if lockstep else "reference"
    stats = EvalStats(
        seconds=time.perf_counter() - started,
        solver=solver,
        workers=workers, repeats=repeats,
        folds_total=folds * repeats,
        folds_batched=sum(r["batched"] for r in results),
        folds_fallback=sum(r["fallback"] for r in results),
        folds_skipped=sum(r["skipped"] for r in results),
        fit_iterations=sum(r["nit"] for r in results),
        repeat_seconds=tuple(round(r["seconds"], 4) for r in results))
    return 100.0 * mean, 100.0 * std, stats


# ----------------------------------------------------------------------
# Node protocol (probe repeats on the same lockstep)
# ----------------------------------------------------------------------
def _node_reference_repeat(x: np.ndarray, labels: np.ndarray,
                           subset: np.ndarray,
                           test_idx: np.ndarray) -> float:
    """One node-probe repeat on the reference classifier."""
    x_train, x_test = standardize(x[subset], x[test_idx])
    model = make_classifier("logreg")
    model.fit(x_train, labels[subset])
    return accuracy(model.predict(x_test), labels[test_idx])


def fast_evaluate_node(embeddings: np.ndarray, labels: np.ndarray,
                       train_mask: np.ndarray, test_mask: np.ndarray, *,
                       repeats: int = 3, seed: int = 0,
                       ) -> tuple[float, float, EvalStats]:
    """Fast path for :func:`repro.eval.protocol.evaluate_node_embeddings`.

    The probe repeats differ only in their subsampled training masks;
    repeats whose subset sees every training class are solved together
    on the lockstep, the rest (or all, without the driver) as reference
    repeats.  The batch is the whole evaluation, so worker count is moot.
    """
    started = time.perf_counter()
    x = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    train_idx = np.flatnonzero(train_mask)
    test_idx = np.flatnonzero(test_mask)
    probe = make_classifier("logreg")

    # Reproduce the reference's subset draws exactly (same generators,
    # same call order within each independent per-repeat stream).
    subsets = []
    for repeat in range(repeats):
        rng = seeded_rng(seed + repeat)
        take = max(2, int(round(len(train_idx) * 0.9)))
        subset = rng.choice(train_idx, size=take, replace=False)
        if len(np.unique(labels[subset])) < 2:
            subset = train_idx
        subsets.append(subset)

    # With fewer than two training classes the reference raises; its
    # repeats below reproduce that error.
    classes = np.unique(labels[train_idx])
    lockstep = len(classes) >= 2 and lockstep_available()
    scores: list[float] = [0.0] * repeats
    lockstep_rep = []
    for r, subset in enumerate(subsets):
        if lockstep and len(np.unique(labels[subset])) == len(classes):
            lockstep_rep.append(r)
        else:
            scores[r] = _node_reference_repeat(x, labels, subset, test_idx)
    nit = 0
    if lockstep_rep:
        with trace("eval/node"):
            cell_scores, nit = _lockstep_cells(
                "logreg", x, labels, classes,
                [(subsets[r], test_idx) for r in lockstep_rep],
                probe.l2, probe.max_iter)
        for r, score in zip(lockstep_rep, cell_scores):
            scores[r] = score
    mean, std = mean_std(scores)
    stats = EvalStats(seconds=time.perf_counter() - started,
                      solver="lockstep" if lockstep else "reference",
                      repeats=repeats, folds_total=repeats,
                      folds_batched=len(lockstep_rep),
                      folds_fallback=repeats - len(lockstep_rep),
                      fit_iterations=nit)
    return 100.0 * mean, 100.0 * std, stats
