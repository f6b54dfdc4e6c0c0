"""Graphs, search, edge costs and the full-assembly planner."""

import numpy as np
import pytest

from flexasm import pathopt as po
from flexasm import scenario as sc
from flexasm.errors import StateInvalid, Unreachable

from conftest import make_rng


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


def test_edge_cost_sums_and_hard_cap(planner):
    arr = planner.edge_array("pickup", 1, (1, 1), "stack")
    assert len(arr.systems) == 2 * planner.cfg.z_grid
    assert arr.state_pre.delta == 0 and arr.state_post.delta == 1
    spec = po.CostSpec("hinf-wrench")
    cost, values = po.edge_cost(arr, spec)
    assert cost == pytest.approx(np.sum(values))
    assert np.all(values > 0)
    capped = po.CostSpec("hinf-wrench", hard_cap=float(np.max(values)) * 0.5)
    cost_capped, _ = po.edge_cost(arr, capped)
    assert np.isinf(cost_capped)


def test_identical_systems_cost_is_multiple(planner):
    arr = planner.edge_array("pickup", 1, (1, 1), "stack")
    sys0 = arr.systems[0]
    z = planner.cfg.z_grid
    clone = po.EdgeModelArray(0, "pickup", 1, (1, 1), "stack",
                              [sys0] * z, [sys0] * z, np.zeros(2 * z))
    spec = po.CostSpec("hinf-wrench")
    cost, values = po.edge_cost(clone, spec)
    assert np.allclose(values, values[0])
    assert cost == pytest.approx(2 * z * values[0])


def test_assemble_edge_grows_structure(planner):
    arr = planner.edge_array("assemble", 1, (1, 1), "target")
    assert arr.state_pre.n == 1 and arr.state_pre.delta == 1
    assert arr.state_post.n == 2 and arr.state_post.delta == 0


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
        "(FOUND line on the mu edge cost in CHANGES.md; ROADMAP item 2)"))
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
