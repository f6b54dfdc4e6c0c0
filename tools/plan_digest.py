"""Print one SHA-256 over everything the planner decides.

Usage::

    PYTHONPATH=src python tools/plan_digest.py
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/plan_digest.py --mission

For each configuration below a cold :class:`flexasm.pathopt.AssemblyPlanner`
of all four cost kinds plans the full assembly under every kind, from
tile 1 on arm 1 and then on arm 2.  The digest covers, in order: the
attitude gain ``K_att``; every stage's path, cost and the plan's
cumulative cost, optimized and baseline; then every edge the planner
stored, in key order, with its edge id, its dock distances (derived from
its key, as a stage log derives them) and its per-loop prices (an edge
without an inverse-kinematics solution as ``None``).
Floats enter as their bytes, so two trees print the same digest only when
every planned value is bitwise the same.

Configurations: the packaged desk layout at z = 2 and z = 7, a 4-tile
straight strip at z = 4 and ``table_scenario(8, z_grid=3)``.  With
``--mission`` the digest covers the mission scale instead,
``table_scenario(28, z_grid=7)``, in the same way.  The script reports; it
gates nothing.  On a two-core x86-64 box with one BLAS thread and no
bytecode cache, the default run took 4 s and the mission run 90 s (peak
RSS 65 MB).

The mission digest depends on the BLAS thread count: some N = 28 loops
close with other bits under one OpenBLAS thread than under two, so quote
and compare it with ``OPENBLAS_NUM_THREADS=1``, the setting of the
benchmark workers.  The default digest is the same under one thread and
under two.
"""

from __future__ import annotations

import argparse
import hashlib
from dataclasses import replace

import numpy as np

from flexasm import data_path, pathopt
from flexasm.modal import TileLayout
from flexasm.pathopt import COST_KINDS, AssemblyPlanner, CostSpec
from flexasm.scenario import load_scenario, table_scenario


def configurations():
    desk, _ = load_scenario(data_path("scenario_desk.yaml"))
    strip = TileLayout(tuple((0, c) for c in range(4)))
    return [replace(desk, z_grid=2), replace(desk, z_grid=7),
            table_scenario(4, layout=strip, z_grid=4),
            table_scenario(8, z_grid=3)]


def digest_planner(h, cfg) -> None:
    planner = AssemblyPlanner(cfg)
    h.update(planner.K_att.tobytes())
    for arm in (1, 2):
        for kind in COST_KINDS:
            res = planner.plan_full_assembly(CostSpec(kind), start=(1, arm))
            for stages, total in ((res.stages, res.cumulative),
                                  (res.stages_baseline, res.cumulative_baseline)):
                for st in stages:
                    h.update(repr((st.kind, st.n, st.path_nodes)).encode())
                    h.update(np.float64(st.cost).tobytes())
                h.update(np.float64(total).tobytes())
    for key in sorted(planner._edges, key=repr):
        rec = planner._edges[key]
        h.update(repr(key).encode())
        if rec is None:
            h.update(b"None")
            continue
        h.update(repr(rec.edge_id).encode())
        h.update(pathopt._EdgePose.of(cfg, *key).dock_distance(cfg).tobytes())
        h.update(rec.values.tobytes())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mission", action="store_true",
                        help="digest table_scenario(28, z_grid=7) instead")
    args = parser.parse_args(argv)
    h = hashlib.sha256()
    for cfg in ([table_scenario(28, z_grid=7)] if args.mission else configurations()):
        digest_planner(h, cfg)
    print(h.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
