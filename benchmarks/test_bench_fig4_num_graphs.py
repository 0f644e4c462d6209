"""Figure 4: prediction/imputation error vs number of temporal graphs M.

Expected shape: an interior optimum — very small M (coarse intervals)
underfits intra-day variation; very large M brings redundant intervals and
extra parameters. The paper finds M=8 optimal on PeMS at 40% missing; on
the scaled-down simulator the optimum may land at a neighbouring M, but
the curve should not be monotone in M.
"""

import pytest

from bench_config import SCALE, model_config, pems_data_config, run_once, trainer_config

from repro.experiments import fig4, run_grid

pytestmark = pytest.mark.bench

GRAPH_COUNTS = {"fast": [2, 8], "small": [2, 4, 8, 16], "full": [2, 4, 8, 16, 24]}[SCALE]


def test_fig4_num_graphs(benchmark):
    grid = run_once(
        benchmark,
        lambda: run_grid(
            fig4(GRAPH_COUNTS),
            pems_data_config(), model_config(), trainer_config(),
        ),
    )
    print()
    print(grid.render())
    best = min(grid.cells, key=lambda cell: cell.metric_at().mae)
    print(f"best prediction at M={best.value}")

    maes = [grid.cell("RIHGCN", value=m).metric_at().mae for m in GRAPH_COUNTS]
    assert all(m > 0 for m in maes)
    if len(maes) >= 3:
        # The largest M should not be the (strict) best: redundancy costs.
        assert min(maes) <= maes[-1] * 1.0001
