"""Configuration-driven command line front end: argv, the four commands and
their outputs.  Each command reads its scenario file through
:func:`flexasm.scenario.load_scenario`.

Commands
--------
analyze        frequency response of one channel with the uncertainty at
               delta in {-1, 0, +1}: CSV plus a log-log SVG plot.
optimize       one optimized walk across the current structure between
               two (tile, arm) states, compared against the minimum-hop
               baseline: trajectory log, metric CSV, comparison plot.
full-assembly  the complete build plan (alternating pickup/assemble),
               same outputs plus node-graph dumps.
validate       what the constructors leave unchecked (the array's residual
               mass), once the file loads with a layout tied to the
               clamp: pass/warn/fail report.

Exit codes: 0 success, 2 configuration error (a bad argument, scenario or
body file, an unknown key in any block of either), 3 modeling error, 4
unreachable goal.
The output directory comes from ``--out`` or the ``FLEXASM_OUTDIR``
environment variable; a command makes it just before its first write.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import _svg, data_path
from .errors import FlexasmError, ParseError, SchemaError, StateInvalid, UnitError, Unreachable
from .linss import freq_response, lft_upper
from .multibody import residual_mass
from .pathopt import (
    COST_KINDS,
    AssemblyPlanner,
    CostSpec,
    PlanResult,
    build_node_graphs,
    shortest_path,
)
from .scenario import HOME_JOINTS, AssemblyState, ScenarioModels, load_scenario

__all__ = ["main"]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _parse_channel(text: str, system):
    """'T_G[0]:omega_dot_G[0]' -> (in, in_idx, out, out_idx); indices optional.

    Names and indices are checked against the channels of ``system``.
    """
    def part(p, has, width):
        name, idx = p, None
        if p.endswith("]") and "[" in p:
            name, _, idx = p[:-1].partition("[")
            try:
                idx = int(idx)
            except ValueError:
                raise SchemaError(f"channel index in {p!r} must be an integer") from None
        if not has(name):
            raise SchemaError(f"no channel {name!r} in {text!r}")
        if idx is not None and not 0 <= idx < width(name):
            raise SchemaError(f"index {idx} of {name!r} outside 0..{width(name) - 1}")
        return name, idx

    pin, sep, pout = text.partition(":")
    if not sep:
        raise SchemaError(f"channel spec {text!r} must be 'input:output'")
    return (*part(pin, system.has_input, system.in_width),
            *part(pout, system.has_output, system.out_width))


def _node(text: str):
    try:
        tile, arm = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"node {text!r} must be 'tile,arm'") from None
    return (tile, arm)


def _state(text: str) -> AssemblyState:
    try:
        return AssemblyState(*(int(v) for v in text.split(",")))
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(f"{text!r} must be n,j,arm,delta") from None
    except StateInvalid as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return value


def _grid_points(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 2:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 2")
    return value


def _check_node(flag: str, node, n: int):
    tile, arm = node
    if not (1 <= tile <= n and arm in (1, 2)):
        raise SchemaError(f"{flag} {tile},{arm} is not a node of the "
                          f"{n}-tile structure (tile 1..{n}, arm 1 or 2)")


def _out_dir(args) -> Path:
    """``--out``, made just before a command's first write."""
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SchemaError(f"--out {args.out}: cannot make the output "
                          f"directory ({exc.strerror})") from exc
    return args.out


def _write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.10e}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _series_csv(out_dir: Path, stem: str, series):
    _write_csv(out_dir / f"{stem}.csv",
               ["grid_index", "metric", "edge_id", "action"],
               [(i, float(v), e, a) for (i, v, e, a) in series])


def _trajectory_log(out_dir: Path, stem: str, stages):
    lines = []
    for st in stages:
        lines.append(f"stage kind={st.kind} n={st.n} cost={st.cost:.10e}")
        lines.append("  path: " + " -> ".join(map(str, st.path_nodes)))
        for e in st.edges:
            lines.append(f"  edge m={e.edge_id} {e.src}->{e.dst} "
                         f"cost={e.cost:.10e}")
    (out_dir / f"{stem}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _graph_dump(out_dir: Path, graph):
    stem = f"graph_{graph.kind}_n{graph.n}"
    with open(out_dir / f"{stem}.csv", "w", encoding="utf-8") as fh:
        fh.write("# nodes: " + "; ".join(map(str, graph.nodes)) + "\n")
        fh.write("# adjacency\n")
        for row in graph.adjacency:
            fh.write(",".join(f"{v:g}" for v in row) + "\n")
        if graph.weights is not None:
            fh.write("# weights\n")
            for row in graph.weights:
                fh.write(",".join(f"{v:.10e}" for v in row) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    cfg, _ = load_scenario(args.scenario)
    state = args.state
    if state.n > cfg.n_tiles:
        raise SchemaError(f"--state has n={state.n} > N={cfg.n_tiles}")
    plant = ScenarioModels(cfg).open_loop(state, (HOME_JOINTS,) * 3)
    closed = {delta: lft_upper(plant, delta) for delta in (-1.0, 0.0, 1.0)}
    i_name, i_idx, o_name, o_idx = _parse_channel(args.channel, closed[0.0])

    f_hz = np.geomspace(args.fmin, args.fmax, args.points)
    traces = {}
    # each given index keeps one row or one column of the channel
    rows = slice(None) if o_idx is None else [o_idx]
    cols = slice(None) if i_idx is None else [i_idx]
    for delta, loop in closed.items():
        resp = freq_response(loop.subsystem(outputs=[o_name], inputs=[i_name]),
                             2.0 * np.pi * f_hz)
        traces[delta] = replace(
            resp, values=resp.values[:, rows][:, :, cols]).magnitude()

    out = _out_dir(args)
    _write_csv(out / "analyze.csv",
               ["freq_hz", "sigma_nominal", "sigma_delta_minus", "sigma_delta_plus"],
               [(float(f), float(traces[0.0][k]), float(traces[-1.0][k]),
                 float(traces[1.0][k])) for k, f in enumerate(f_hz)])
    _svg.line_plot(out / "analyze.svg",
                   [("delta=0", f_hz, traces[0.0]),
                    ("delta=-1", f_hz, traces[-1.0]),
                    ("delta=+1", f_hz, traces[1.0])],
                   title=f"{args.channel} gain", xlabel="frequency [Hz]",
                   ylabel="magnitude", xlog=True, ylog=True)
    print(f"analyze: {len(f_hz)} points on {args.channel} "
          f"-> {out / 'analyze.csv'}")
    return 0


def _compare_plot(out_dir: Path, series, series_baseline, title: str):
    w = np.array([v for _, v, _, _ in series])
    u = np.array([v for _, v, _, _ in series_baseline])
    _svg.line_plot(out_dir / "plot_compare.svg",
                   [("optimized", np.arange(w.size), w),
                    ("baseline", np.arange(u.size), u)],
                   title=title, xlabel="grid point", ylabel="metric",
                   xlog=False, ylog=bool(np.all(w > 0) and np.all(u > 0)))


def _cmd_optimize(args) -> int:
    cfg, _ = load_scenario(args.scenario)
    spec = CostSpec(args.cost, hard_cap=args.hard_cap)
    n = cfg.n_tiles if args.n is None else args.n
    if not 1 <= n <= cfg.n_tiles:
        raise SchemaError(f"--n {n} outside 1..{cfg.n_tiles}")
    src, dst = args.src, args.dst
    _check_node("--from", src, n)
    _check_node("--to", dst, n)
    if src == dst:
        raise SchemaError(f"--from and --to are the same node {src[0]},{src[1]}: "
                          "a walk needs two")

    planner = AssemblyPlanner(cfg, costs=(spec.kind,))
    _, graph = build_node_graphs(cfg, n)   # walking with a carried tile
    planner.weight_graph(graph, spec)
    path_w, _ = shortest_path(graph, src, dst, "dijkstra")
    path_u, _ = shortest_path(graph, src, dst, "bfs_unit")
    walk = PlanResult(spec, [planner.stage(graph, path_w, spec)],
                      [planner.stage(graph, path_u, spec)])
    series_w = [(i, v, e, "walk") for i, v, e, _ in walk.series]
    series_u = [(i, v, e, "walk") for i, v, e, _ in walk.series_baseline]

    out = _out_dir(args)
    _series_csv(out, "metrics_weighted", series_w)
    _series_csv(out, "metrics_baseline", series_u)
    _graph_dump(out, graph)
    _compare_plot(out, series_w, series_u, f"{spec.kind} along the walk")

    lines = [f"optimized path:  {' -> '.join(str(graph.nodes[i]) for i in path_w)}",
             f"baseline path:   {' -> '.join(str(graph.nodes[i]) for i in path_u)}",
             f"cumulative optimized: {walk.cumulative:.10e}",
             f"cumulative baseline:  {walk.cumulative_baseline:.10e}",
             f"baseline excess: {walk.improvement_percent:.2f}%"]
    (out / "optimize.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


def _cmd_full_assembly(args) -> int:
    cfg, _ = load_scenario(args.scenario)
    spec = CostSpec(args.cost, hard_cap=args.hard_cap)
    _check_node("--start", args.start, 1)   # the plan starts on one tile
    if cfg.n_tiles < 2:
        raise SchemaError(f"full-assembly needs n_tiles >= 2: a {cfg.n_tiles}-tile "
                          "structure is already assembled")
    planner = AssemblyPlanner(cfg, costs=(spec.kind,))
    res = planner.plan_full_assembly(spec, start=args.start)

    out = _out_dir(args)
    _series_csv(out, "metrics_weighted", res.series)
    _series_csv(out, "metrics_baseline", res.series_baseline)
    _trajectory_log(out, "trajectory_weighted", res.stages)
    _trajectory_log(out, "trajectory_baseline", res.stages_baseline)
    for n in range(1, cfg.n_tiles + 1):
        for g in build_node_graphs(cfg, n):
            if n < cfg.n_tiles:
                planner.weight_graph(g, spec)
            _graph_dump(out, g)
    _compare_plot(out, res.series, res.series_baseline,
                  f"{spec.kind} over the full assembly")

    lines = [f"cumulative optimized: {res.cumulative:.10e}",
             f"cumulative baseline:  {res.cumulative_baseline:.10e}",
             f"baseline excess: {res.improvement_percent:.2f}%",
             f"mean dock distance optimized: {res.mean_dock_distance:.6f} m",
             f"mean dock distance baseline:  {res.mean_dock_distance_baseline:.6f} m"]
    print("\n".join(lines))
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _cmd_validate(args) -> int:
    """What no constructor checks: the array's residual mass.  Loading
    the file checks the rest, the layout's tie to the clamp included
    (:class:`~flexasm.modal.TileLayout`), and a file that fails it exits
    as every other command exits on it.  Writes nothing."""
    try:
        cfg, _ = load_scenario(args.scenario)
    except ParseError:
        raise                       # unreadable input: configuration error
    except FlexasmError as exc:
        # the exit code the other commands give the same file
        print(f"FAIL  {exc}")
        print("validate: 0 pass, 0 warn, 1 fail")
        return 2 if isinstance(exc, (SchemaError, UnitError)) else 3

    ev = np.linalg.eigvalsh(residual_mass(cfg.array))
    warn = ev.min() < -1e-10 * max(1.0, ev.max())
    print(f"warn  array residual mass indefinite (min eig {ev.min():.2e})" if warn
          else "pass  array residual mass PSD")
    print(f"validate: {int(not warn)} pass, {int(warn)} warn, 0 fail")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(prog="flexasm", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--scenario", default=str(data_path("scenario_desk.yaml")),
                   help="scenario YAML (default: packaged desk scenario)")
    p.add_argument("--out", default=None, help="output directory "
                   "(default $FLEXASM_OUTDIR or ./flexasm_out)")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="frequency response of one channel")
    a.add_argument("--channel", default="T_G[0]:omega_dot_G[0]")
    a.add_argument("--fmin", type=_positive_float, default=0.01)
    a.add_argument("--fmax", type=_positive_float, default=20.0)
    a.add_argument("--points", type=_grid_points, default=400)
    a.add_argument("--state", type=_state, default="1,1,1,0",
                   help="n,j,arm,delta of the analyzed configuration")

    for name in ("optimize", "full-assembly"):
        o = sub.add_parser(name)
        o.add_argument("--cost", required=True,
                       choices=COST_KINDS)
        o.add_argument("--hard-cap", type=_positive_float, default=None)
        if name == "optimize":
            o.add_argument("--from", dest="src", type=_node, required=True,
                           help="start node tile,arm")
            o.add_argument("--to", dest="dst", type=_node, required=True,
                           help="goal node tile,arm")
            o.add_argument("--n", type=int, default=None,
                           help="structure size (default: N)")
        else:
            o.add_argument("--start", type=_node, default="1,1",
                           help="initial tile,arm")

    sub.add_parser("validate", help="check scenario data invariants")
    return p


def main(argv=None) -> int:
    """Run one command; a bad argument exits 2 through argparse."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze" and args.fmin == args.fmax:
        parser.error("--fmin and --fmax must differ")
    args.scenario = Path(args.scenario)
    args.out = Path(args.out or os.environ.get("FLEXASM_OUTDIR", "flexasm_out"))

    try:
        if not args.scenario.exists():
            print(f"error: scenario file {args.scenario} not found", file=sys.stderr)
            return 2
        handler = {"analyze": _cmd_analyze, "optimize": _cmd_optimize,
                   "full-assembly": _cmd_full_assembly, "validate": _cmd_validate}
        return handler[args.command](args)
    except Unreachable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ParseError, SchemaError, UnitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FlexasmError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
