"""Configuration-driven command line front end.

Commands
--------
analyze        frequency response of one channel with the uncertainty at
               delta in {-1, 0, +1}: CSV plus a log-log SVG plot.
optimize       one optimized walk across the current structure between
               two (tile, arm) states, compared against the minimum-hop
               baseline: trajectory log, metric CSV, comparison plot.
full-assembly  the complete build plan (alternating pickup/assemble),
               same outputs plus node-graph dumps.
validate       data invariants of the scenario: pass/warn/fail report.

Exit codes: 0 success, 2 configuration error (a bad argument or scenario
file), 3 modeling error, 4 unreachable goal.  The output directory comes
from ``--out`` or the ``FLEXASM_OUTDIR`` environment variable.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from . import _svg, data_path
from .errors import (
    FlexasmError,
    InvalidModalData,
    ParseError,
    SchemaError,
    StateInvalid,
    UnitError,
    Unreachable,
)
from .linss import freq_response, lft_upper
from .modal import (
    LatticeStiffness,
    TileLayout,
    _inertia_from_rows,
    build_lattice,
    load_body_file,
)
from .multibody import RigidBodyData, residual_mass
from .pathopt import (
    COST_KINDS,
    AssemblyPlanner,
    CostSpec,
    PlanResult,
    build_node_graphs,
    shortest_path,
)
from .robot import ArmGeometry, default_arm_geometry
from .scenario import ARM_MOUNT_DCMS, AssemblyState, ScenarioModels, table_scenario

__all__ = ["main", "load_scenario"]


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

def _rigid_body(doc, block):
    """Body from the scenario block ``block`` (``robot.hub`` is named
    ``robot_hub``); bad mass or inertia values are a ``SchemaError`` naming
    the block."""
    ports = doc.get("ports_m", {})
    if not isinstance(ports, dict):
        raise SchemaError(f"{block}: ports must be a mapping, got {ports!r}")
    ports = {k: np.asarray(v, dtype=float) for k, v in ports.items()}
    if "mass" in doc or "inertia" in doc:
        raise UnitError(f"{block}: use mass_kg / inertia_kgm2 keys")
    try:
        return RigidBodyData(
            float(doc["mass_kg"]),
            _inertia_from_rows(doc["inertia_kgm2"],
                               str(doc.get("inertia_convention", "tensor"))),
            ports, name=block.replace(".", "_"))
    except (InvalidModalData, SchemaError) as exc:
        raise SchemaError(f"{block}: {exc}") from exc


def _arm_geometry(doc) -> ArmGeometry:
    base = default_arm_geometry()
    coms = np.asarray(doc.get("link_com_m", base.coms), dtype=float)
    offsets = np.asarray(doc.get("joint_offsets_m", 2.0 * coms), dtype=float)
    inertias = doc.get("link_inertia_kgm2")
    if inertias is not None:
        inertias = np.array([j * np.eye(3) for j in np.asarray(inertias, float)])
    else:
        inertias = base.inertias
    return ArmGeometry(
        joint_offsets=offsets,
        joint_axes=np.asarray(doc.get("joint_axes", base.joint_axes), dtype=float),
        masses=np.asarray(doc.get("link_masses_kg", base.masses), dtype=float),
        coms=coms,
        inertias=inertias,
    )


# every top-level key load_scenario reads; ``name`` labels the file only
SCENARIO_KEYS = frozenset({
    "name", "seed", "n_tiles", "z_grid", "layout", "controller", "uncertainty",
    "structure", "hub", "tile", "robot", "solar_array_file"})


def load_scenario(path) -> tuple:
    """Read a scenario file; returns ``(ScenarioConfig, seed)``.

    Files start from the published-table defaults and override only the
    blocks they name, so a minimal scenario is just ``n_tiles`` and grid
    settings; ``robot.mount_dcms`` overrides only the arms (``A1``..``A3``)
    it names.  Quantities carry unit suffixes (kg, m, hz, kgm2).  A
    top-level key outside ``SCENARIO_KEYS`` (a misspelling would silently
    keep a default) and bad values raise ``SchemaError``; so does a block
    that is not a mapping, and a count (``n_tiles``, ``z_grid``, ``seed``,
    ``structure.n_modes``, ``uncertainty.mode``) that is not a YAML
    integer, which ``int()`` would truncate.
    """
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read scenario {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ParseError(f"cannot parse scenario {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: scenario must be a mapping")
    unknown = sorted(map(str, set(doc) - SCENARIO_KEYS))
    if unknown:
        raise SchemaError(f"{path}: unknown top-level keys {unknown}; "
                          f"known keys are {sorted(SCENARIO_KEYS)}")

    def integer(block, key, default, label=None):
        value = block.get(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(
                f"{path}: {label or key} must be an integer, got {value!r}")
        return value

    def mapping(block, key, label=None):
        value = block[key]
        if not isinstance(value, dict):
            raise SchemaError(
                f"{path}: {label or key} must be a mapping, got {value!r}")
        return value

    try:
        n_tiles = integer(doc, "n_tiles", 4)
        layout = None
        if "layout" in doc:
            layout = TileLayout(tuple(map(tuple, mapping(doc, "layout")["cells"])))
        kw = {}
        if "controller" in doc:
            ctl = mapping(doc, "controller")
            if "freq" in ctl:
                raise UnitError("controller frequency must be freq_hz")
            kw["xi_att"] = float(ctl.get("xi", 1.0))
            kw["f_att_hz"] = float(ctl.get("freq_hz", 0.01))
        if "uncertainty" in doc:
            unc = mapping(doc, "uncertainty")
            kw["r_omega"] = float(unc.get("r_omega", 0.2))
            kw["uncertain_mode"] = integer(unc, "mode", 1, "uncertainty.mode") - 1
        if "structure" in doc:
            s = mapping(doc, "structure")
            kw["n_struct_modes"] = integer(s, "n_modes", 4, "structure.n_modes")
            kw["xi_struct"] = float(s.get("damping", 0.005))
            if "k_trans" in s:
                kw["stiffness"] = LatticeStiffness(
                    k_trans=float(s["k_trans"]),
                    k_rot=float(s.get("k_rot", 0.25 * float(s["k_trans"]))),
                    diag_scale=float(s.get("diag_scale", 0.5)))
            if "stack_reach_m" in s:
                kw["stack_reach"] = float(s["stack_reach_m"])
        if "hub" in doc:
            kw["hub"] = _rigid_body(mapping(doc, "hub"), "hub")
        if "tile" in doc:
            kw["tile"] = _rigid_body(mapping(doc, "tile"), "tile")
        if "robot" in doc:
            rob = mapping(doc, "robot")
            if "hub" in rob:
                hub = mapping(rob, "hub", "robot.hub")
                kw["robot_hub"] = _rigid_body(
                    {**hub, "ports_m": hub.get("mounts_m", {})}, "robot.hub")
            if "mount_dcms" in rob:
                dcms = dict(ARM_MOUNT_DCMS)
                for k, v in mapping(rob, "mount_dcms", "robot.mount_dcms").items():
                    if k not in ("A1", "A2", "A3"):
                        raise SchemaError(f"{path}: mount_dcms names {k!r}; "
                                          "the arms are A1, A2 and A3")
                    dcms[int(k[1])] = np.asarray(v, dtype=float)
                kw["arm_mount_dcms"] = dcms
            if "arm" in rob:
                kw["arm_geometry"] = _arm_geometry(mapping(rob, "arm", "robot.arm"))
        array = None
        if "solar_array_file" in doc:
            ref = Path(doc["solar_array_file"])
            if not ref.is_absolute():
                cand = path.parent / ref
                ref = cand if cand.exists() else Path(str(data_path(str(ref))))
            array = load_body_file(ref)
        cfg = table_scenario(n_tiles, layout=layout,
                             z_grid=integer(doc, "z_grid", 7),
                             array=array, **kw)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return cfg, integer(doc, "seed", 0)


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

def cmd_analyze(args) -> int:
    cfg, _ = load_scenario(args.scenario)
    state = args.state
    if state.n > cfg.n_tiles:
        raise SchemaError(f"--state has n={state.n} > N={cfg.n_tiles}")
    plant = ScenarioModels(cfg).open_loop(state, (np.zeros(5),) * 3)
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

    out = args.out
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


def cmd_optimize(args) -> int:
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

    out = args.out
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


def cmd_full_assembly(args) -> int:
    cfg, _ = load_scenario(args.scenario)
    spec = CostSpec(args.cost, hard_cap=args.hard_cap)
    _check_node("--start", args.start, 1)   # the plan starts on one tile
    if cfg.n_tiles < 2:
        raise SchemaError(f"full-assembly needs n_tiles >= 2: a {cfg.n_tiles}-tile "
                          "structure is already assembled")
    planner = AssemblyPlanner(cfg, costs=(spec.kind,))
    res = planner.plan_full_assembly(spec, start=args.start)

    out = args.out
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


def cmd_validate(args) -> int:
    failures = []
    warnings = []
    passes = []

    try:
        cfg, _ = load_scenario(args.scenario)
    except ParseError:
        raise                       # unreadable input: configuration error
    except FlexasmError as exc:
        # the exit code the other commands give the same file
        print(f"FAIL  {exc}")
        print("validate: 0 pass, 0 warn, 1 fail")
        return 2 if isinstance(exc, (SchemaError, UnitError)) else 3

    def check(name, ok):
        (passes if ok else failures).append(name)

    for body, label in ((cfg.hub, "hub"), (cfg.tile, "tile"),
                        (cfg.robot_hub, "robot hub")):
        ev = np.linalg.eigvalsh(body.inertia_G)
        check(f"{label} inertia SPD", bool(np.all(ev > 0)) or body.mass == 0)

    check("solar array dampings in (0,1)",
          bool(np.all((cfg.array.dampings > 0) & (cfg.array.dampings < 1))))
    ev = np.linalg.eigvalsh(residual_mass(cfg.array))
    if ev.min() < -1e-10 * max(1.0, ev.max()):
        warnings.append(f"array residual mass indefinite (min eig {ev.min():.2e})")
    else:
        passes.append("array residual mass PSD")

    try:
        build_lattice(cfg.layout, cfg.tile.mass, cfg.tile.inertia_G,
                      cfg.stiffness)
        passes.append("layout connected to the clamp")
    except FlexasmError as exc:
        failures.append(f"layout: {exc}")

    for name in passes:
        print(f"pass  {name}")
    for w in warnings:
        print(f"warn  {w}")
    for f in failures:
        print(f"FAIL  {f}")
    print(f"validate: {len(passes)} pass, {len(warnings)} warn, {len(failures)} fail")
    return 3 if failures else 0


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
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise SchemaError(f"--out {args.out}: cannot make the output "
                              f"directory ({exc.strerror})") from exc
        handler = {"analyze": cmd_analyze, "optimize": cmd_optimize,
                   "full-assembly": cmd_full_assembly, "validate": cmd_validate}
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
