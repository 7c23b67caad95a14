"""Table VIII: training-time overhead of GradGCL.

Measures wall-clock training time of each backbone with and without the
gradient loss at the same epoch count.  Per-epoch times are condensed with
:func:`repro.utils.lap_statistics` and the overhead is computed from p50
epoch times — medians shrug off the scheduler hiccups that a total over a
handful of epochs inherits.

Shape target (paper): the (f+g) variant costs only a few percent extra
(2-6% on a GPU; our numpy stack pays a somewhat larger but still modest
relative overhead since Eq. 6 adds one dense softmax per step).
"""

from repro.datasets import load_tu_dataset
from repro.methods import GraphCL, InfoGraph, JOAO, SimGRACE
from repro.run import GraphSteps, Trainer
from repro.utils import lap_statistics

from .common import build_graph_variant, config, report, run_once

PAIRS = [("DD", InfoGraph), ("PROTEINS", GraphCL), ("IMDB-B", JOAO),
         ("RDT-B", SimGRACE)]


def _run():
    cfg = config()
    rows = []
    for dataset_name, cls in PAIRS:
        dataset = load_tu_dataset(dataset_name, scale=cfg.dataset_scale,
                                  seed=0)
        p50s = {}
        for suffix, weight in [("", 0.0), ("(f+g)", 0.5)]:
            method = build_graph_variant(cls, dataset, weight, seed=0)
            history = Trainer(
                method, GraphSteps(dataset.graphs, batch_size=32, seed=0),
                epochs=cfg.graph_epochs).fit()
            stats = lap_statistics(history.epoch_seconds)
            p50s[suffix] = stats.p50
            rows.append([dataset_name, cls.name + suffix,
                         f"{stats.total:.2f}",
                         f"{stats.p50:.3f}", f"{stats.p95:.3f}"])
        overhead = 100.0 * (p50s["(f+g)"] / max(p50s[""], 1e-9) - 1.0)
        rows.append([dataset_name, "-> overhead (p50)", f"{overhead:+.1f}%",
                     "", ""])
    report("table8", "Table VIII: training time (s) and GradGCL overhead",
           ["Dataset", "Model", "Total (s)", "Epoch p50 (s)",
            "Epoch p95 (s)"], rows,
           note="Shape target: modest relative overhead for (f+g); "
                "overhead computed from p50 epoch times.")
    return rows


def test_table8_efficiency(benchmark):
    rows = run_once(benchmark, _run)
    assert rows
