"""One benchmark iteration in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --t0 EPOCH_S
        [--setup-only] [--trace-file PATH] --workdir DIR

Set-up (imports, input generation and, for library workloads, planner
construction) runs first; ``setup_s`` is the time from ``--t0``, taken by
the parent just before it started this process, to the end of set-up, so
it includes interpreter start.  The timed section then runs every plan of
the workload once, under a ``SpeedProbe`` that also gives each time at
idle-core speed.  The last stdout line is one JSON object holding the
timings, a summary of every plan for the correctness check and, with
``--trace-file``, the per-layer metrics; the spans go to that file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import signal
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import ALL, start_arm  # noqa: E402


class SpeedProbe:
    """Samples how fast the machine runs while the timed section runs.

    On a shared host the same plan takes up to 30 % longer or shorter from
    one minute to the next, because neighbours load the core; the worker's
    CPU time rises with its wall time, so it cannot tell the two apart.
    Every ``INTERVAL_S`` a SIGALRM handler times a fixed calibration
    kernel of Python and small-matrix numpy work, like the planner's own.
    ``ref_s`` turns a wall-clock window into the time it would have taken
    at the kernel's idle-core speed ``K_REF_S``: the window minus the
    probe's own time, times the mean of ``K_REF_S / k`` over the samples
    ``k`` taken in it.
    """

    INTERVAL_S = 0.05
    K_REF_S = 2.25e-4   # kernel time on an idle core of a 2-core x86-64 box

    def __init__(self):
        import numpy as np

        self._np = np
        self._a = np.random.default_rng(0).standard_normal((24, 24))
        self.samples = []           # (perf_counter at start, kernel seconds)

    def _kernel(self):
        s = 0.0
        for _ in range(60):
            s += (self._a @ self._a)[0, 0]
            s += sum([j * 2 for j in range(40)])
        return s

    def _sample(self, signum, frame):
        t = time.perf_counter()
        self._kernel()
        self.samples.append((t, time.perf_counter() - t))

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0=-math.inf, t1=math.inf) -> float:
        """Mean of ``K_REF_S / k`` over the samples in ``[t0, t1)``; over
        all samples when the window holds none."""
        ks = [k for t, k in self.samples if t0 <= t < t1] or \
             [k for _, k in self.samples]
        return self._np.mean(self.K_REF_S / self._np.asarray(ks)) if ks else 1.0

    def probe_s(self, t0=-math.inf, t1=math.inf) -> float:
        return sum(k for t, k in self.samples if t0 <= t < t1)

    def ref_s(self, t0, t1) -> float:
        return float((t1 - t0 - self.probe_s(t0, t1)) * self.scale(t0, t1))


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _path_text(nodes) -> str:
    return " -> ".join(map(str, nodes))


def _infinite_edges(graphs) -> int:
    return sum(1 for g in graphs for i, k in g.edges()
               if not math.isfinite(g.weights[i, k]))


class LibraryRun:
    """Plans through a cold ``AssemblyPlanner`` on the packaged scenario."""

    def __init__(self, wl, seed, workdir):
        from flexasm import data_path
        from flexasm.cli import load_scenario
        from flexasm.pathopt import AssemblyPlanner

        cfg, _ = load_scenario(data_path("scenario_desk.yaml"))
        self.cfg = replace(cfg, n_tiles=wl.n_tiles, z_grid=wl.z)
        self.start = (1, start_arm(seed))
        self.planner = AssemblyPlanner(self.cfg)
        self.results = {}

    def plan(self, cost):
        from flexasm.pathopt import CostSpec

        self.results[cost] = self.planner.plan_full_assembly(
            CostSpec(cost), start=self.start)

    def summary(self, cost):
        from flexasm.pathopt import CostSpec, build_node_graphs

        res = self.results[cost]
        spec = CostSpec(cost)
        graphs = [self.planner.weight_graph(g, spec)
                  for n in range(1, self.cfg.n_tiles)
                  for g in build_node_graphs(self.cfg, n)]
        return {"paths": [_path_text(s.path_nodes) for s in res.stages],
                "paths_baseline": [_path_text(s.path_nodes)
                                   for s in res.stages_baseline],
                "cumulative": res.cumulative,
                "cumulative_baseline": res.cumulative_baseline,
                "inf_edges": _infinite_edges(graphs)}


class CliRun:
    """Plans through ``flexasm full-assembly`` on a generated strip file."""

    def __init__(self, wl, seed, workdir):
        import flexasm.cli  # noqa: F401  (import cost belongs to set-up)

        self.wl = wl
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.scenario = self.workdir / "scenario.yaml"
        cells = ", ".join(f"[0, {c}]" for c in range(wl.n_tiles))
        self.scenario.write_text(
            f"name: {wl.name}\nn_tiles: {wl.n_tiles}\nz_grid: {wl.z}\n"
            f"layout:\n  cells: [{cells}]\n", encoding="utf-8")
        self.start = f"1,{start_arm(seed)}"

    def _out(self, cost):
        return self.workdir / f"out-{cost}"

    def plan(self, cost):
        import flexasm.cli

        argv = ["--scenario", str(self.scenario), "--out", str(self._out(cost)),
                "full-assembly", "--cost", cost, "--start", self.start]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = flexasm.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"flexasm full-assembly exited {rc}")

    def summary(self, cost):
        out = self._out(cost)
        fields = {}
        for line in (out / "summary.txt").read_text(encoding="utf-8").splitlines():
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()

        def paths(stem):
            text = (out / f"{stem}.txt").read_text(encoding="utf-8")
            return [line.split("path: ", 1)[1] for line in text.splitlines()
                    if line.startswith("  path: ")]

        inf_edges = 0
        for n in range(1, self.wl.n_tiles):
            for kind in ("pickup", "assemble"):
                inf_edges += _dumped_infinite_edges(out / f"graph_{kind}_n{n}.csv")
        return {"paths": paths("trajectory_weighted"),
                "paths_baseline": paths("trajectory_baseline"),
                "cumulative": float(fields["cumulative optimized"]),
                "cumulative_baseline": float(fields["cumulative baseline"]),
                "inf_edges": inf_edges}


def _dumped_infinite_edges(path) -> int:
    """Edges with an infinite weight in one CLI graph dump."""
    adjacency, weights, block = [], [], None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            block = {"# adjacency": adjacency, "# weights": weights}.get(line)
        elif block is not None:
            block.append([float(v) for v in line.split(",")])
    return sum(1 for a_row, w_row in zip(adjacency, weights)
               for a, w in zip(a_row, w_row) if a > 0 and not math.isfinite(w))


def _timed(probe, runner, wl, out):
    """Run every plan of one iteration; adds raw and idle-core-speed times."""
    plans = []
    cpu0 = _cpu_s()
    w0 = time.perf_counter()
    for cost in wl.costs:
        p0 = time.perf_counter()
        try:
            runner.plan(cost)
            plan = {"cost": cost}
        except Exception as exc:  # a failed plan is counted, not fatal
            plan = {"cost": cost, "error": f"{type(exc).__name__}: {exc}"}
        p1 = time.perf_counter()
        plans.append({**plan, "plan_s": p1 - p0, "plan_ref_s": probe.ref_s(p0, p1)})
    w1 = time.perf_counter()
    cpu = _cpu_s() - cpu0
    out.update(plans=plans, wall_s=w1 - w0, cpu_s=cpu,
               wall_ref_s=probe.ref_s(w0, w1),
               cpu_ref_s=float((cpu - probe.probe_s(w0, w1)) * probe.scale(w0, w1)),
               speed_ratio=float(probe.scale(w0, w1)),
               probe_samples=len(probe.samples))


def run(workload: str, seed: int, t0: float, workdir, setup_only=False,
        trace_file=None) -> dict:
    wl = ALL[workload]
    tracer = None
    if trace_file is not None:
        from tracer import Tracer

        tracer = Tracer().install()
    runner = (CliRun if wl.via_cli else LibraryRun)(wl, seed, workdir)
    out = {"setup_s": time.time() - t0}
    if setup_only:
        return out

    probe = SpeedProbe()
    probe.start()
    try:
        _timed(probe, runner, wl, out)
    finally:
        probe.stop()

    if tracer is not None:
        tracer.uninstall()
        from tracer import wrapper_cost

        span_cost, count_cost = wrapper_cost()
        n_span, n_count = tracer.wrapped_calls()
        layers = tracer.metrics(overhead_s=n_span * span_cost + n_count * count_cost)
        layers["trace.wall_s"] = out["wall_s"]
        layers["trace.wall_ref_s"] = out["wall_ref_s"]
        layers["trace.speed_ratio"] = out["speed_ratio"]
        out["layers"] = layers
        tracer.write(trace_file)

    for p in out["plans"]:
        if "error" not in p:
            try:
                p.update(runner.summary(p["cost"]))
            except Exception as exc:  # unreadable output fails the plan
                p["error"] = f"{type(exc).__name__}: {exc}"
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(ALL))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-file", default=None)
    a = p.parse_args(argv)
    out = run(a.workload, a.seed, a.t0, a.workdir, a.setup_only, a.trace_file)

    import numpy
    import scipy

    out["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__,
                  "flexasm": str(Path(sys.modules["flexasm"].__file__).parent)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
