"""End to end: plan the whole assembly under different cost functions.

Weights every trajectory edge by a closed-loop system norm, runs Dijkstra
against the minimum-hop baseline, and reports the cumulative metric and
how close the robot stays to the hub.  A reduced grid keeps this demo
quick; the acceptance suite runs the full z = 7 configuration.
"""

import os

import numpy as np

from flexasm import _svg
from flexasm import pathopt as po
from flexasm import scenario as sc

cfg = sc.table_scenario(4, z_grid=3)
planner = po.AssemblyPlanner(cfg)

os.makedirs("out", exist_ok=True)
for kind in ("hinf-wrench", "h2-theta"):
    res = planner.plan_full_assembly(po.CostSpec(kind))
    print(f"{kind}: optimized {res.cumulative:.4f}, baseline "
          f"{res.cumulative_baseline:.4f} "
          f"(baseline excess {res.improvement_percent:.2f}%)")
    print(f"  mean dock distance: optimized {res.mean_dock_distance:.3f} m, "
          f"baseline {res.mean_dock_distance_baseline:.3f} m")
    w = np.array([v for _, v, _, _ in res.series])
    u = np.array([v for _, v, _, _ in res.series_baseline])
    _svg.line_plot(f"out/plan_{kind}.svg",
                   [("optimized", np.arange(w.size), w),
                    ("baseline", np.arange(u.size), u)],
                   title=f"{kind} per grid point", xlabel="grid point",
                   ylabel="metric", xlog=False, ylog=False)
    print(f"  wrote out/plan_{kind}.svg")

# graph bookkeeping at mission scale: graphs only, no dynamics
big = sc.table_scenario(28)
edges = 0
for n in range(1, 29):
    for g in po.build_node_graphs(big, n):
        edges += len(g.edges())
print(f"mission scale N=28: 56 graphs, {edges} edges on the default "
      f"serpentine layout, model family {len(sc.enumerate_model_family(28))}")
