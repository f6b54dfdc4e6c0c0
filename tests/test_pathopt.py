"""Graphs, search, edge costs and the full-assembly planner."""

import gc
import hashlib
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from flexasm import linss, robust
from flexasm import pathopt as po
from flexasm import scenario as sc
from flexasm.errors import (CostNotPlanned, IkNotConverged, NominalUnstable,
                            NonzeroFeedthrough, StateInvalid, Unreachable, UnstableSystem)
from flexasm.linss import StateSpace
from flexasm.modal import TileLayout

from conftest import assert_same_system, closed_loop, make_rng, plan_keys


@pytest.fixture(scope="module")
def cfg():
    return sc.table_scenario(3, z_grid=3)


@pytest.fixture(scope="module")
def planner(cfg):
    return po.AssemblyPlanner(cfg)


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------

def test_graph_shapes_and_counts(cfg):
    for n in (1, 2, 3):
        pick, asm = po.build_node_graphs(cfg, n)
        for g in (pick, asm):
            assert len(g.nodes) == 2 * n + 1
            assert g.adjacency.shape == (2 * n + 1, 2 * n + 1)
            assert np.all(np.diag(g.adjacency) == 0)


def test_total_graphs_for_full_assembly(cfg):
    graphs = [g for n in range(1, cfg.n_tiles + 1)
              for g in po.build_node_graphs(cfg, n)]
    assert len(graphs) == 2 * cfg.n_tiles
    # the final assemble graph has no action edges left
    final_asm = graphs[-1]
    assert final_asm.kind == "assemble"
    assert np.all(final_asm.adjacency[:, final_asm.action_index] == 0)


def test_walk_edges_swap_arms(cfg):
    pick, _ = po.build_node_graphs(cfg, 3)
    for i, k in pick.edges():
        if k == pick.action_index:
            continue
        (_, arm_a) = pick.nodes[i]
        (_, arm_b) = pick.nodes[k]
        assert arm_b == 3 - arm_a


def test_pickup_adjacency_respects_reach(cfg):
    pick, _ = po.build_node_graphs(cfg, 3)
    c0 = cfg.stack_center()
    for t in range(1, 4):
        reachable = np.linalg.norm(cfg.tile_center(t) - c0) <= cfg.stack_reach
        for arm in (1, 2):
            has_edge = pick.adjacency[pick.node_index((t, arm)),
                                      pick.action_index] > 0
            assert has_edge == reachable


def test_an_action_node_of_the_other_kind_is_no_node(cfg):
    # the pickup graph ends at the stack, the assemble graph at the target:
    # neither graph nor an edge key takes the other's action node
    pick, asm = po.build_node_graphs(cfg, 2)
    assert pick.node_index("stack") == asm.node_index("target") == pick.action_index
    for graph, node in ((pick, "target"), (asm, "stack"), (pick, (3, 1)), (asm, (1, 3))):
        with pytest.raises(StateInvalid):
            graph.node_index(node)
    planner = po.AssemblyPlanner(cfg, costs=("h2-theta",))
    for key in (("pickup", 1, (1, 1), "target"), ("assemble", 1, (1, 1), "stack")):
        with pytest.raises(StateInvalid):
            planner._build([key])
    assert not planner._edges and not planner.models._reach


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def triangle_graph():
    g = po.NodeGraph("pickup", 1, [(1, 1), (1, 2), "stack"],
                     np.array([[0, 1, 1], [0, 0, 1], [0, 0, 0]], dtype=float))
    g.weights = np.array([[np.inf, 1.0, 3.0],
                          [np.inf, np.inf, 1.0],
                          [np.inf, np.inf, np.inf]])
    return g


def test_dijkstra_vs_bfs_on_triangle():
    g = triangle_graph()
    path_w, cost_w = po.shortest_path(g, 0, 2, "dijkstra")
    assert path_w == [0, 1, 2]
    assert cost_w == pytest.approx(2.0)
    path_u, hops = po.shortest_path(g, 0, 2, "bfs_unit")
    assert path_u == [0, 2]
    assert hops == pytest.approx(1.0)


def test_search_trivial_and_unreachable():
    g = triangle_graph()
    assert po.shortest_path(g, 1, 1, "dijkstra") == ([1], 0.0)
    with pytest.raises(Unreachable):
        po.shortest_path(g, 2, 0, "dijkstra")


def exhaustive_best(adjacency, weights, s, t):
    n = adjacency.shape[0]
    best = None
    stack = [(s, (s,), 0.0)]
    while stack:
        node, path, cost = stack.pop()
        if node == t:
            key = (cost, len(path) - 1, path)
            if best is None or key < best:
                best = key
            continue
        for nxt in range(n):
            if adjacency[node, nxt] > 0 and nxt not in path:
                stack.append((nxt, path + (nxt,), cost + weights[node, nxt]))
    return best


def test_dijkstra_matches_exhaustive_enumeration():
    rng = make_rng(404)
    for trial in range(40):
        size = int(rng.integers(3, 10))
        adj = (rng.uniform(size=(size, size)) < 0.35).astype(float)
        np.fill_diagonal(adj, 0.0)
        W = np.where(adj > 0, rng.uniform(0.1, 5.0, size=(size, size)), np.inf)
        g = po.NodeGraph("pickup", (size - 1) // 2, list(range(size)), adj)
        g.weights = W
        s, t = 0, size - 1
        best = exhaustive_best(adj, W, s, t)
        if best is None:
            with pytest.raises(Unreachable):
                po.shortest_path(g, s, t, "dijkstra")
            continue
        path, cost = po.shortest_path(g, s, t, "dijkstra")
        assert cost == pytest.approx(best[0])
        assert tuple(path) == best[2]


# ---------------------------------------------------------------------------
# cost spec / edge cost
# ---------------------------------------------------------------------------

def test_cost_spec_validation():
    with pytest.raises(ValueError):
        po.CostSpec("nope")
    with pytest.raises(ValueError):
        po.CostSpec("mu", hard_cap=-1.0)
    with pytest.raises(ValueError):
        po.CostSpec("mu", hard_cap=float("nan"))


def same_system(a, b) -> bool:
    return (all(np.array_equal(getattr(a, m), getattr(b, m)) for m in "ABCD")
            and a.in_channels == b.in_channels and a.out_channels == b.out_channels)


def edge_models(planner, kind, n, src, dst):
    return po.grid_edge_models(planner.models, kind, n, src, dst, planner.K_att)


def assert_legs_run_home(planner, arr, pre, post):
    # leg 1 leaves home under the pre-action state, leg 2 ends there under
    # the post-action one
    home = (sc.HOME_JOINTS,) * 3
    models, K = planner.models, planner.K_att
    assert same_system(arr.systems[0], closed_loop(models, pre, home, K))
    assert same_system(arr.systems[-1], closed_loop(models, post, home, K))


def test_edge_cost_sums_and_hard_cap(planner):
    arr = edge_models(planner, "pickup", 1, (1, 1), "stack")
    assert len(arr.systems) == 2 * planner.cfg.z_grid
    assert_legs_run_home(planner, arr, sc.AssemblyState(1, 1, 1, 0),
                         sc.AssemblyState(1, 1, 1, 1))
    spec = po.CostSpec("hinf-wrench")
    cost, values = po.edge_cost(arr, spec)
    assert cost == pytest.approx(np.sum(values))
    assert np.all(values > 0)
    capped = po.CostSpec("hinf-wrench", hard_cap=float(np.max(values)) * 0.5)
    cost_capped, _ = po.edge_cost(arr, capped)
    assert np.isinf(cost_capped)


def test_identical_systems_cost_is_multiple(planner):
    arr = edge_models(planner, "pickup", 1, (1, 1), "stack")
    sys0 = arr.systems[0]
    z = planner.cfg.z_grid
    clone = po.EdgeModelArray([sys0] * (2 * z))
    spec = po.CostSpec("hinf-wrench")
    cost, values = po.edge_cost(clone, spec)
    assert np.allclose(values, values[0])
    assert cost == pytest.approx(2 * z * values[0])


def test_assemble_edge_grows_structure(planner):
    arr = edge_models(planner, "assemble", 1, (1, 1), "target")
    assert_legs_run_home(planner, arr, sc.AssemblyState(1, 1, 1, 1),
                         sc.AssemblyState(2, 1, 1, 0))


def test_edge_weighs_its_mass_matrix_misses_in_one_link_poses_call(cfg, monkeypatch):
    # the IK memoized first, building an edge costs one link_poses call of
    # three rows per mass-matrix miss, in its batch, and nothing more while
    # its loops are built; an edge whose mass matrices are all memoized
    # poses nothing
    planner = po.AssemblyPlanner(cfg, costs=("h2-theta",))
    models = planner.models
    pick, asm = po.build_node_graphs(cfg, 2)
    walk = next((i, k) for i, k in pick.edges() if k != pick.action_index)
    keys = [("pickup", 2, pick.nodes[walk[0]], pick.nodes[walk[1]]),
            ("pickup", 2, (1, 2), "stack"), ("assemble", 2, (2, 1), "target")]
    calls = []
    link_poses = sc.link_poses
    monkeypatch.setattr(sc, "link_poses",
                        lambda geom, q: calls.append(np.shape(q)) or link_poses(geom, q))
    for key in keys:
        planner._build([key])
        del planner._edges[key]
        models._masses.clear()
        calls.clear()
        planner._build([key])
        assert calls == [(3 * len(models._masses), 5)], key
        assert len(models._masses) == 2 * cfg.z_grid
        del planner._edges[key]
        calls.clear()
        planner._build([key])
        assert calls == []


def test_weight_graph_builds_its_edges_in_batches(cfg, monkeypatch):
    # a cold planner weighing a graph makes one solve_reaches per batch
    # besides each built edge's own solve_reach, and keeps the edge ids and
    # price bits of building each edge alone.  With both H-infinity kinds
    # planned it prices chunks of whole edges (here two edges of 2z loops
    # each), whose peaks are polished in one lockstep, yet each built loop
    # still makes one hinf_norm call per H-infinity kind and keeps no
    # primed peak.  Each chunk's certificates run as stacked Hamiltonian
    # tests, and no hinf_norm call makes a test of its own.  On a 4-tile
    # graph the edges without IK keep their place as None.  A planner of no
    # H-infinity kind prices each edge before it builds the next
    monkeypatch.setattr(po, "POSE_BATCH", 3)
    monkeypatch.setattr(po, "PEAK_LOOPS", 2 * cfg.z_grid + 1)
    costs = ("hinf-wrench", "h2-theta", "hinf-isens")
    graph = po.build_node_graphs(cfg, 2)[0]
    keys = po._edge_keys(graph)
    assert len(keys) > 2 * po.POSE_BATCH
    events = []
    solve_reach, solve_reaches = sc.ScenarioModels.solve_reach, sc.ScenarioModels.solve_reaches
    monkeypatch.setattr(sc.ScenarioModels, "solve_reach",
                        lambda self, *a: events.append("edge") or solve_reach(self, *a))
    monkeypatch.setattr(sc.ScenarioModels, "solve_reaches",
                        lambda self, problems: events.append(len(problems))
                        or solve_reaches(self, problems))
    batched = po.AssemblyPlanner(cfg, costs=costs)
    batched.weight_graph(graph, po.CostSpec("h2-theta"))
    batches, calls = [], iter(events)
    for event in calls:
        if event == "edge":
            assert next(calls) == 1     # solve_reach is solve_reaches of one
        else:
            batches.append(event)
    assert batches == [3] * (len(keys) // 3) + [len(keys) % 3] * (len(keys) % 3 > 0)
    assert events.count("edge") == len(keys)

    def same_as_alone(planner, keys):
        alone = po.AssemblyPlanner(planner.cfg, costs=planner.costs)
        for key in keys:
            alone._build([key])
        assert list(alone._edges) == list(planner._edges) == keys
        for key in keys:
            got, want = planner._edges[key], alone._edges[key]
            assert (got is None) == (want is None)
            if got is not None:
                assert got.edge_id == want.edge_id
                assert got.values.tobytes() == want.values.tobytes()

    same_as_alone(batched, keys)
    steps, loops, tests, inside = [], [], [], []
    hinf, grid, cost = po.hinf_norm, po.grid_edge_models, po.edge_cost
    crossings = linss._hamiltonian_imag_crossings

    def built(*args):
        steps.append("build")
        arr = grid(*args)
        loops.extend(arr.systems)
        return arr

    def traced_hinf(sys):
        steps.append("hinf")
        inside.append(sys)
        try:
            return hinf(sys)
        finally:
            inside.pop()

    monkeypatch.setattr(po, "hinf_norm", traced_hinf)
    monkeypatch.setattr(linss, "_hamiltonian_imag_crossings",
                        lambda ss, gs: tests.append(bool(inside)) or crossings(ss, gs))
    monkeypatch.setattr(po, "grid_edge_models", built)
    monkeypatch.setattr(po, "edge_cost",
                        lambda arr, spec: steps.append("price") or cost(arr, spec))
    wide = sc.table_scenario(4, z_grid=2)
    monkeypatch.setattr(po, "PEAK_LOOPS", 2 * wide.z_grid + 1)
    graph4 = po.build_node_graphs(wide, 3)[0]
    keys4 = po._edge_keys(graph4)
    chunked = po.AssemblyPlanner(wide, costs=costs)
    chunked.weight_graph(graph4, po.CostSpec("hinf-wrench"))
    built_edges = len(loops) // (2 * wide.z_grid)
    assert None in chunked._edges.values() and 0 < built_edges < len(keys4)
    assert steps.count("hinf") == 2 * len(loops)
    assert tests and not any(tests)
    assert not [s for s in loops for kind in chunked._hinf
                for ch in po._channels(po.EdgeModelArray([s]), kind)
                if linss._peak_key(ch) in s._modes]
    order = [step for step in steps if step != "hinf"]
    assert order[:2] == ["build", "build"]
    assert order.count("price") == len(costs) * built_edges
    same_as_alone(chunked, keys4)
    steps.clear()
    po.AssemblyPlanner(cfg, costs=("h2-theta",)).weight_graph(graph, po.CostSpec("h2-theta"))
    assert steps == ["build", "price"] * len(keys)


def test_a_mu_planner_prices_chunks_with_the_all_kinds_bits(monkeypatch):
    # a planner of mu alone cuts its chunks at PEAK_LOOPS, as one with an
    # H-infinity kind does: it runs the margin pass as often, on the same
    # loops, and stores the bits of the all-kinds planner's mu column
    cfg = _desk_z2()
    passes, prime = [], robust._prime_margins
    monkeypatch.setattr(po, "_prime_margins",
                        lambda loops: passes.append(len(loops)) or prime(loops))
    full = po.AssemblyPlanner(cfg)
    full._build(plan_keys(cfg))
    full_passes = list(passes)
    passes.clear()
    alone = po.AssemblyPlanner(cfg, costs=("mu",))
    alone._build(plan_keys(cfg))
    built = [key for key, rec in full._edges.items() if rec is not None]
    assert passes == full_passes and len(passes) < len(built)
    assert list(alone._edges) == list(full._edges)
    column = full.costs.index("mu")
    for key in built:
        assert (alone._edges[key].values[:, 0].tobytes()
                == np.ascontiguousarray(full._edges[key].values[:, column]).tobytes()), key


def _desk_z2():
    from flexasm import data_path
    from flexasm.cli import load_scenario

    return replace(load_scenario(data_path("scenario_desk.yaml"))[0], z_grid=2)


@pytest.mark.parametrize("scenario, count", [
    (_desk_z2, 28), (lambda: sc.table_scenario(8, z_grid=3), 88)],
    ids=["desk-z2", "table-8-z3"])
def test_build_solves_each_target_as_alone(scenario, count):
    # every reach target of a plan's edges, solved in the lockstep batches
    # of _build, has the q bits of solve_reach on a fresh model, or its
    # exception type, message and task error
    cfg = scenario()
    planner = po.AssemblyPlanner(cfg, costs=("h2-theta",))
    planner._build(plan_keys(cfg))
    memo = planner.models._reach
    assert len(memo) == count
    for (j, arm, reach_arm, target), hit in memo.items():
        state = sc.AssemblyState(cfg.n_tiles, j, arm, 0)
        try:
            ref = np.concatenate(sc.ScenarioModels(cfg).solve_reach(
                state, reach_arm, np.frombuffer(target)))
        except IkNotConverged as exc:
            assert (type(hit), str(hit), np.float64(hit.task_error).tobytes()) == \
                (type(exc), str(exc), np.float64(exc.task_error).tobytes())
        else:
            assert hit.tobytes() == ref.tobytes()


def test_walk_edge_requires_arm_swap(planner):
    with pytest.raises(StateInvalid):
        po.grid_edge_models(planner.models, "pickup", 2, (1, 1), (2, 1),
                            planner.K_att)


@pytest.fixture(scope="module")
def coarse_planner():
    return po.AssemblyPlanner(sc.table_scenario(3, z_grid=2))


@pytest.mark.parametrize("kind", [
    pytest.param(kind, marks=pytest.mark.xfail(
        strict=True, reason="the mu margin is the array-mode collapse at "
        "delta = -1/r_omega on every loop, so the mu plan is a hop count "
        "(FOUND line on the mu edge cost in CHANGES.md; ROADMAP item 3)"))
    if kind == "mu" else kind for kind in po.COST_KINDS])
def test_every_cost_ranks_edges(coarse_planner, kind):
    # a cost that prices every edge alike cannot steer the plan
    cfg, spec = coarse_planner.cfg, po.CostSpec(kind)
    weights = np.concatenate([
        coarse_planner.weight_graph(g, spec).weights[g.adjacency > 0]
        for n in range(1, cfg.n_tiles) for g in po.build_node_graphs(cfg, n)])
    finite = weights[np.isfinite(weights)]
    assert finite.size == 20
    assert np.unique(finite).size > 1


# ---------------------------------------------------------------------------
# planner
# ---------------------------------------------------------------------------

def test_plan_full_assembly_small(planner):
    spec = po.CostSpec("hinf-wrench")
    res = planner.plan_full_assembly(spec)
    assert res.cumulative <= res.cumulative_baseline + 1e-12
    # 2 stages per intermediate size, non-empty logs
    assert len(res.stages) == 2 * (planner.cfg.n_tiles - 1)
    z = planner.cfg.z_grid
    n_edges = sum(len(st.edges) for st in res.stages)
    assert len(res.series) == 2 * z * n_edges
    # walking legs alternate the gripping arm along every stage path
    for st in res.stages:
        arms = [node[1] for node in st.path_nodes if isinstance(node, tuple)]
        for a, b in zip(arms, arms[1:]):
            assert b == 3 - a


def test_planner_dijkstra_optimal_on_real_graphs(planner):
    spec = po.CostSpec("hinf-wrench")
    for n in (1, 2):
        pick, asm = po.build_node_graphs(planner.cfg, n)
        for g in (pick, asm):
            planner.weight_graph(g, spec)
            goal = g.action_index
            for start in range(2 * n):
                best = exhaustive_best(g.adjacency, g.weights, start, goal)
                if best is None:
                    continue
                path, cost = po.shortest_path(g, start, goal, "dijkstra")
                assert cost == pytest.approx(best[0], rel=1e-12)


def test_hard_cap_soundness_on_returned_path(planner):
    # cap sits just above the uncapped plan's own worst grid point, so a
    # feasible route survives while anything worse becomes impassable;
    # the post-hoc scan then proves no returned grid point exceeds it
    spec0 = po.CostSpec("hinf-wrench")
    res0 = planner.plan_full_assembly(spec0)
    plan_max = max(v for _, v, _, _ in res0.series)
    cap = plan_max * (1.0 + 1e-9)
    spec = po.CostSpec("hinf-wrench", hard_cap=cap)
    res = planner.plan_full_assembly(spec)
    assert np.isfinite(res.cumulative)
    for st in res.stages:
        for e in st.edges:
            assert e.values.size > 0
            assert np.max(e.values) <= cap
    # and a cap below every value prices everything out
    with pytest.raises(po.Unreachable):
        planner.plan_full_assembly(po.CostSpec("hinf-wrench", hard_cap=1e-12))


def test_each_built_edge_primes_its_open_loops_once(monkeypatch):
    # _build closes each built edge's open loops from its 2z waypoints;
    # grid_edge_models's per-waypoint open_loop calls only pop them, so no
    # list of one is primed and no open loop is left behind
    prime, primed = sc.ScenarioModels._prime_open_loops, []
    monkeypatch.setattr(sc.ScenarioModels, "_prime_open_loops",
                        lambda self, waypoints: primed.append(len(waypoints))
                        or prime(self, waypoints))
    planner = po.AssemblyPlanner(sc.table_scenario(3, z_grid=2), costs=("h2-theta",))
    planner.plan_full_assembly(po.CostSpec("h2-theta"))
    built = [rec for rec in planner._edges.values() if rec is not None]
    assert built and primed == [2 * planner.cfg.z_grid] * len(built)
    assert planner.models._open == {}
    # a state beyond the tile count fails its prime and leaves nothing
    with pytest.raises(StateInvalid):
        planner.models.open_loop(sc.AssemblyState(4, 1, 1, 0), (sc.HOME_JOINTS,) * 3)
    assert planner.models._open == {}


def test_planner_keeps_prices_not_loops(planner):
    # the store and the logs hold only what no key derives
    assert po.EdgePrices._fields == ("edge_id", "values")
    assert [f.name for f in fields(po.EdgeModelArray)] == ["systems"]
    assert "cost" not in [f.name for f in fields(po.StageLog)]
    planner.plan_full_assembly(po.CostSpec("h2-theta"))
    built = [rec for rec in planner._edges.values() if rec is not None]
    assert built and all(rec.values.shape == (2 * planner.cfg.z_grid,
                                              len(po.COST_KINDS)) for rec in built)
    # walk the caches' references, classes aside (they lead to modules);
    # the memo of edge-end prices holds no array at all
    assert planner._memo
    for cache, kept in ((planner._edges, (StateSpace, po.EdgeModelArray)),
                        (planner._memo, (StateSpace, po.EdgeModelArray, np.ndarray))):
        seen, todo = set(), [cache]
        while todo:
            obj = todo.pop()
            if id(obj) in seen or isinstance(obj, type):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, kept), type(obj)
            todo.extend(gc.get_referents(obj))


def test_stage_derives_the_dock_distances_of_its_edges():
    # per waypoint the gripped tile's distance to the hub CoM: the source
    # tile on leg 1, the tile gripped after the action on leg 2; an edge
    # with no IK solution (a diagonal straddle of the square) logs none
    square = TileLayout(((0, 0), (0, 1), (1, 0), (1, 1)))
    cfg = sc.table_scenario(4, layout=square, z_grid=2)
    planner = po.AssemblyPlanner(cfg, costs=("h2-theta",))
    spec = po.CostSpec("h2-theta")
    pick, asm = po.build_node_graphs(cfg, 3)

    def dock(*tiles):
        return np.array([np.linalg.norm(cfg.tile_center(t)) for t in tiles
                         for _ in range(cfg.z_grid)])

    for graph, path, legs in ((pick, [(1, 1), (2, 2), "stack"], [(1, 2), (2, 2)]),
                              (asm, [(3, 1), "target"], [(3, 3)])):
        log = planner.stage(graph, [graph.node_index(v) for v in path], spec)
        assert len(log.edges) == len(legs)
        for e, tiles in zip(log.edges, legs):
            assert e.edge_id == planner._edges[(e.kind, e.n, e.src, e.dst)].edge_id
            assert e.dock_distance.tobytes() == dock(*tiles).tobytes()
        assert log.cost == sum(e.cost for e in log.edges)
    (e,) = planner.stage(pick, [pick.node_index((2, 1)), pick.node_index((3, 2))], spec).edges
    assert planner._edges[(e.kind, e.n, e.src, e.dst)] is None
    assert (e.edge_id, e.dock_distance.size, e.values.size, e.cost) == (-1, 0, 0, np.inf)


def test_a_plan_builds_once_per_weighed_graph_and_stage(planner, monkeypatch):
    # one _build of the plan's edges, then one per weighed graph and one
    # per logged stage, not one per edge
    calls = []
    build = po.AssemblyPlanner._build
    monkeypatch.setattr(po.AssemblyPlanner, "_build",
                        lambda self, keys: calls.append(keys) or build(self, keys))
    planner.plan_full_assembly(po.CostSpec("hinf-isens"))
    graphs = 2 * (planner.cfg.n_tiles - 1)
    assert len(calls) == 1 + graphs + 2 * graphs


@pytest.mark.parametrize("key", [("pickup", 1, (1, 1), "stack"),
                                 ("assemble", 2, (2, 2), (1, 1))], ids=str)
def test_stored_prices_are_edge_cost_bits(planner, key):
    # what the planner keeps prices the edge exactly as edge_cost prices
    # its loops, under every kind, with and without a hard cap that bites
    arr = edge_models(planner, *key)
    for kind in po.COST_KINDS:
        _, values = po.edge_cost(arr, po.CostSpec(kind))
        for cap in (None, 0.5 * float(np.max(values)), 2.0 * float(np.max(values))):
            spec = po.CostSpec(kind, hard_cap=cap)
            want = po.edge_cost(arr, spec)
            planner._build([key])
            got = planner._priced(key, spec)
            assert got[0] == want[0] and np.array_equal(got[1], want[1]), (kind, cap)
            assert np.isinf(got[0]) == (cap is not None and cap < np.max(values))


def loop_digest(sys) -> bytes:
    """SHA-256 over a system's channels and the shapes and bits of its
    matrices."""
    h = hashlib.sha256(repr((sys.in_channels, sys.out_channels)).encode())
    for a in (sys.A, sys.B, sys.C, sys.D):
        h.update(repr(a.shape).encode() + np.ascontiguousarray(a).tobytes())
    return h.digest()


def test_planner_prices_each_distinct_loop_once(monkeypatch):
    # desk z = 2, all kinds, from both arms: 122 of the 184 loops built are
    # distinct, and the H-infinity pass and the margin pass see each of
    # them once (the repeats are edge ends, priced from the memo); no
    # mu_real_repeated call primes a margin of its own.  Every stored price
    # has the bits of edge_cost on the edge built afresh
    built, peaks, margins, alone = [], [], [], []
    grid, prime_peaks = po.grid_edge_models, linss._prime_peaks
    prime_margins = robust._prime_margins

    def build(*args):
        arr = grid(*args)
        built.extend(loop_digest(s) for s in arr.systems)
        return arr

    def primed_peaks(systems):
        peaks.extend(loop_digest(s) for s in systems)
        return prime_peaks(systems)

    def primed_margins(loops, *args):
        margins.extend(loop_digest(s) for s in loops)
        return prime_margins(loops, *args)

    monkeypatch.setattr(po, "grid_edge_models", build)
    for module in (po, linss):
        monkeypatch.setattr(module, "_prime_peaks", primed_peaks)
    monkeypatch.setattr(po, "_prime_margins", primed_margins)
    monkeypatch.setattr(robust, "_prime_margins",
                        lambda loops, *args: alone.extend(loops) or prime_margins(loops, *args))
    planner = po.AssemblyPlanner(desk(2))
    for arm in (1, 2):
        for kind in po.COST_KINDS:
            planner.plan_full_assembly(po.CostSpec(kind), start=(1, arm))
    assert (len(built), len(set(built))) == (184, 122)
    assert len(peaks) == len(set(peaks)) == 2 * 122
    assert len(margins) == len(set(margins)) == 122 and set(margins) == set(built)
    assert alone == []
    monkeypatch.undo()
    for key, rec in planner._edges.items():
        if rec is not None:
            arr = po.grid_edge_models(planner.models, *key, planner.K_att)
            want = np.stack([po.edge_cost(arr, spec)[1] for spec in planner._specs], axis=1)
            assert rec.values.tobytes() == want.tobytes(), key


@pytest.mark.parametrize("make, repeats", [
    (lambda: desk(2), 62), (lambda: strip(4), 58),
    (lambda: sc.table_scenario(8, z_grid=3), 430)],
    ids=["desk-z2", "strip-z4", "table8-z3"])
def test_memo_hits_are_bitwise_copies_of_their_leaders(make, repeats, monkeypatch):
    # the memo key of an edge end, its waypoint's state and joint bytes, is
    # exact: each hit has its leader's matrices, every bitwise repeat of a
    # loop is a hit, and no loop between an edge's ends repeats
    cfg = make()
    leaders, hits, counts, inner = {}, [], Counter(), []
    price = po.AssemblyPlanner._price

    def spy(self, chunk):
        for _, arr, ends in chunk:
            if arr is None:
                continue
            loops = arr.systems
            for loop, end in zip((loops[0], loops[-1]), ends):
                mats = (loop.A, loop.B, loop.C, loop.D)
                if end in leaders:
                    hits.append(all(np.array_equal(a, b) for a, b in zip(mats, leaders[end])))
                else:
                    leaders[end] = [a.copy() for a in mats]
            digests = [loop_digest(s) for s in loops]
            counts.update(digests)
            inner.extend(digests[1:-1])
        return price(self, chunk)

    monkeypatch.setattr(po.AssemblyPlanner, "_price", spy)
    planner = po.AssemblyPlanner(cfg, costs=("h2-theta",))
    planner._build(plan_keys(cfg))
    assert len(hits) == repeats and all(hits)
    assert set(planner._memo) == set(leaders)
    assert sum(counts.values()) - len(counts) == repeats
    assert all(counts[d] == 1 for d in inner)


def test_an_open_attitude_loop_raises_in_pricing_order(cfg):
    # with no attitude gain every loop has poles at 0: a leader's margin is
    # primed all the same, yet the planner raises what pricing the first
    # edge kind by kind raises, as without the memo
    key = ("pickup", 1, (1, 1), "stack")
    for costs, error in ((("mu",), NominalUnstable), (po.COST_KINDS, UnstableSystem)):
        planner = po.AssemblyPlanner(cfg, costs=costs)
        planner.K_att = np.zeros_like(planner.K_att)
        with pytest.raises(error, match="unstable"):
            planner._build([key])


def test_plan_for_an_unplanned_kind_raises(cfg):
    planner = po.AssemblyPlanner(cfg, costs=("h2-theta",))
    with pytest.raises(CostNotPlanned, match=r"'mu'.*\['h2-theta'\]"):
        planner.plan_full_assembly(po.CostSpec("mu"))
    with pytest.raises(CostNotPlanned):
        planner.weight_graph(po.build_node_graphs(cfg, 2)[0], po.CostSpec("mu"))
    # the kind is checked before any edge is posed
    assert not planner._edges
    assert not planner.models._reach and not planner.models._masses
    with pytest.raises(ValueError):
        po.AssemblyPlanner(cfg, costs=("hinf",))


def test_planner_rejects_repeated_cost_kinds(cfg):
    # a repeated kind would price every edge twice under one kind
    for costs in (("h2-theta", "h2-theta"), ("mu", "hinf-wrench", "mu")):
        with pytest.raises(ValueError, match="repeat"):
            po.AssemblyPlanner(cfg, costs=costs)
    with pytest.raises(ValueError):
        po.AssemblyPlanner(cfg, costs=())


# ---------------------------------------------------------------------------
# leg stacks
# ---------------------------------------------------------------------------

def desk(z):
    from flexasm import data_path
    from flexasm.cli import load_scenario

    return replace(load_scenario(data_path("scenario_desk.yaml"))[0], z_grid=z)


def strip(z):
    return sc.table_scenario(4, layout=TileLayout(tuple((0, c) for c in range(4))),
                             z_grid=z)


@pytest.mark.parametrize("make", [
    lambda: desk(2), lambda: desk(7), lambda: strip(4),
    lambda: sc.table_scenario(8, z_grid=3),
    lambda: sc.table_scenario(3, z_grid=2, n_struct_modes=8)],
    ids=["desk-z2", "desk-z7", "strip-z4", "table8-z3", "table3-z2-modes8"])
def test_leg_stacks_equal_loops_built_and_priced_alone(make, monkeypatch):
    # every loop of every edge: the edge's stack (two runs where its legs
    # differ in state count, as F_1 -> F_2 does with 8 structure modes)
    # gives each loop the bits of closing its waypoint alone, and the
    # edge's H2 prices have the bits of h2_norm on that loop's own channel
    # slice, with its own eig and inv
    cfg = make()
    models = sc.ScenarioModels(cfg)
    alone = sc.ScenarioModels(cfg)
    K = models.design_gains()
    waypoints = []
    open_loop = sc.ScenarioModels.open_loop
    monkeypatch.setattr(sc.ScenarioModels, "open_loop",
                        lambda self, state, qs: waypoints.append((state, qs))
                        or open_loop(self, state, qs))
    spec = po.CostSpec("h2-theta")
    loops = 0
    for n in range(1, cfg.n_tiles):
        for graph in po.build_node_graphs(cfg, n):
            for i, k in graph.edges():
                waypoints.clear()
                try:
                    arr = po.grid_edge_models(models, graph.kind, n, graph.nodes[i],
                                              graph.nodes[k], K)
                except IkNotConverged:
                    continue
                assert len(waypoints) == len(arr.systems) == 2 * cfg.z_grid
                prices = po.edge_cost(arr, spec)[1]
                for loop, (state, qs), price in zip(arr.systems, waypoints, prices):
                    ref = closed_loop(alone, state, qs, K)
                    assert_same_system(loop, ref)
                    want = linss.h2_norm([ref.subsystem(["Theta_G"], ["W_ext"])])[0]
                    assert np.float64(price).tobytes() == np.float64(want).tobytes()
                    loops += 1
    assert loops > 0


def test_plan_slices_each_edge_channel_once_per_kind(monkeypatch):
    # the H-infinity pass and the prices read one slice list per edge and
    # norm-priced kind: its chunk, its memo leaders and its values alike
    cfg = sc.table_scenario(3, z_grid=2)
    planner = po.AssemblyPlanner(cfg)
    slices, cut = [], po._subsystems
    monkeypatch.setattr(po, "_subsystems", lambda loops, outputs, inputs: slices.append(
        (loops, outputs[0])) or cut(loops, outputs, inputs))
    for kind in po.COST_KINDS:
        planner.plan_full_assembly(po.CostSpec(kind))
    built = sum(rec is not None for rec in planner._edges.values())
    assert built > 0
    # every edge's whole list of 2z loops, once per priced channel
    assert {len(loops) for loops, _ in slices} == {2 * cfg.z_grid}
    assert len({(id(loops[0]), out) for loops, out in slices}) == len(slices)
    assert len(slices) == built * len(po._PRICED_CHANNELS)


def test_plan_makes_one_stacked_eig_per_edge(monkeypatch):
    shapes = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: shapes.append(np.shape(a)) or eig(a))
    cfg = sc.table_scenario(3, z_grid=2)
    planner = po.AssemblyPlanner(cfg)
    for kind in po.COST_KINDS:
        planner.plan_full_assembly(po.CostSpec(kind))
    built = sum(rec is not None for rec in planner._edges.values())
    assert built > 0
    assert len(shapes) == built
    assert all(len(s) == 3 and s[0] == 2 * cfg.z_grid for s in shapes)


def test_a_list_of_two_state_counts_is_stacked_by_shape(monkeypatch):
    # groups of equal shapes, in order of first appearance: each group is
    # one stacked eig, and every loop's modes and H2 price keep the bits
    # of its own calls
    rng = make_rng(11)
    systems = ([stable_system(rng, complex_poles(rng, 4)) for _ in range(2)]
               + [stable_system(rng, complex_poles(rng, 6)) for _ in range(3)]
               + [stable_system(rng, complex_poles(rng, 4))])
    by_shape = (lambda s: s.A.shape), (lambda s: 8 * s.n_states ** 2)
    assert linss._stacks(systems, *by_shape) == [[0, 1, 5], [2, 3, 4]]
    assert linss._stacks(systems[:2], *by_shape) == [[0, 1]]
    shapes = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: shapes.append(np.shape(a)) or eig(a))
    linss._prime_modes(systems)
    assert shapes == [(3, 4, 4), (3, 6, 6)]
    got = linss.h2_norm(systems)
    alone = copies(systems)
    for sys, ref in zip(systems, alone):
        for mine, theirs in zip(sys.eig() + (sys.modal_inverse(),),
                                ref.eig() + (ref.modal_inverse(),)):
            assert mine.tobytes() == theirs.tobytes()
    want = [linss.h2_norm([s])[0] for s in alone]
    assert got.tobytes() == np.array(want).tobytes()


def stable_system(rng, A, feedthrough=0.0):
    """A one-input, one-output system of ``A`` with random B and C."""
    n = A.shape[0]
    return StateSpace(A, rng.standard_normal((n, 1)), rng.standard_normal((1, n)),
                      [[feedthrough]], (("u", 1),), (("y", 1),))


def complex_poles(rng, n):
    """A stable ``n x n`` A (n even) of lightly damped complex pairs."""
    blocks = [np.array([[-s, w], [-w, -s]])
              for s, w in zip(rng.uniform(0.1, 1.0, n // 2), rng.uniform(1.0, 5.0, n // 2))]
    A = np.zeros((n, n))
    for k, b in enumerate(blocks):
        A[2 * k:2 * k + 2, 2 * k:2 * k + 2] = b
    T = rng.standard_normal((n, n))
    return T @ A @ np.linalg.inv(T)


def copies(systems):
    """Fresh systems with the same matrices and empty caches."""
    return [StateSpace(s.A, s.B, s.C, s.D, s.in_channels, s.out_channels)
            for s in systems]


def test_defective_loop_of_a_leg_takes_the_kronecker_solve_alone(monkeypatch):
    # a repeated complex pair in one Jordan chain: its eigenvectors are
    # gated out, so that loop, and only it, solves the Kronecker form
    rng = make_rng(8)
    jordan = np.zeros((6, 6))
    pair = np.array([[-0.5, 2.0], [-2.0, -0.5]])
    jordan[:2, :2] = jordan[2:4, 2:4] = pair
    jordan[:2, 2:4] = np.eye(2)
    jordan[4:, 4:] = [[-1.0, 3.0], [-3.0, -1.0]]
    leg = [stable_system(rng, complex_poles(rng, 6)) for _ in range(4)]
    leg[2] = stable_system(rng, jordan)
    linss._prime_modes(leg)
    assert [s.modal_inverse() is None for s in leg] == [False, False, True, False]
    solved = []
    kron = linss._h2_kronecker
    monkeypatch.setattr(linss, "_h2_kronecker",
                        lambda sys: solved.append(sys) or kron(sys))
    got = linss.h2_norm(leg)
    assert len(solved) == 1 and solved[0] is leg[2]
    want = [linss.h2_norm([s])[0] for s in copies(leg)]
    assert got.tobytes() == np.array(want).tobytes()


def test_gated_inverse_of_a_stack_with_a_singular_matrix():
    # the stacked inv fails, so each matrix is inverted alone
    rng = make_rng(9)
    V = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
    V[1] = 0.0
    W = linss._gated_inverse(V)
    assert W[1] is None
    for k in (0, 2):
        assert W[k].tobytes() == linss._gated_inverse(V[k]).tobytes()


def test_leg_stack_raises_the_first_loop_error_in_pricing_order():
    # loop by loop, h2_norm checks the feedthrough and then the stability:
    # the leg raises what pricing its loops one by one raises first
    rng = make_rng(10)
    leg = [stable_system(rng, complex_poles(rng, 4)) for _ in range(4)]
    unstable = stable_system(rng, complex_poles(rng, 4) + 2.0 * np.eye(4))
    direct = stable_system(rng, complex_poles(rng, 4), feedthrough=0.5)

    def first_error(systems):
        for s in copies(systems):
            try:
                linss.h2_norm([s])
            except (UnstableSystem, NonzeroFeedthrough) as exc:
                return type(exc), str(exc)

    for bad, want in (([unstable, direct], UnstableSystem),
                      ([direct, unstable], NonzeroFeedthrough)):
        systems = leg[:1] + bad + leg[3:]
        linss._prime_modes(systems)
        kind, message = first_error(systems)
        assert kind is want
        with pytest.raises(kind) as info:
            linss.h2_norm(systems)
        assert str(info.value) == message
    assert first_error([unstable])[1].startswith("H2 norm of unstable system (abscissa")
