"""Fig. 8: graph-classification accuracy vs gradient weight a.

Sweeps a over a grid for GraphCL, SimGRACE, and JOAO backbones on selected
datasets and compares against the a=0 baseline (the paper's yellow dashed
line).

Shape target (paper): the curve improves over the baseline for a wide range
of a; the optimal a varies per model/dataset.
"""

from repro.datasets import load_tu_dataset
from repro.methods import GraphCL, JOAO, SimGRACE

from .common import config, full_grid, graph_accuracy, report, run_once

BENCH_PANELS = [("GraphCL", GraphCL, "DD"), ("SimGRACE", SimGRACE, "MUTAG")]
FULL_PANELS = [("GraphCL", GraphCL, "DD"), ("SimGRACE", SimGRACE, "MUTAG"),
               ("GraphCL", GraphCL, "PROTEINS"), ("JOAO", JOAO, "IMDB-B")]
WEIGHTS = [0.0, 0.2, 0.5, 0.8, 1.0]


def _run():
    cfg = config()
    panels = FULL_PANELS if full_grid() else BENCH_PANELS
    rows = []
    improvements = []
    for label, cls, dataset_name in panels:
        dataset = load_tu_dataset(dataset_name, scale=cfg.dataset_scale,
                                  seed=0)
        curve = {}
        for weight in WEIGHTS:
            acc, std = graph_accuracy(cls, dataset, weight, cfg)
            curve[weight] = acc
            rows.append([f"{label}/{dataset_name}", f"a={weight}",
                         f"{acc:.2f}±{std:.2f}"])
        best = max(curve.values())
        improvements.append(best - curve[0.0])
        rows.append([f"{label}/{dataset_name}", "best - baseline",
                     f"{best - curve[0.0]:+.2f}"])
    report("fig8", "Fig. 8: accuracy vs gradient weight "
                   "(graph classification)",
           ["Panel", "Weight", "Accuracy (%)"], rows,
           note="Shape target: some a > 0 beats the a=0 baseline in each "
                "panel.")
    return improvements


def test_fig8_weight_sensitivity_graph(benchmark):
    improvements = run_once(benchmark, _run)
    # In most panels a nonzero gradient weight should help.
    assert sum(1 for d in improvements if d > -0.5) >= len(improvements) // 2 + 1
