"""Graphs, search, edge costs and the full-assembly planner."""

import gc
from dataclasses import replace

import numpy as np
import pytest

from flexasm import linss
from flexasm import pathopt as po
from flexasm import scenario as sc
from flexasm.errors import (CostNotPlanned, IkNotConverged, NonzeroFeedthrough,
                            StateInvalid, Unreachable, UnstableSystem)
from flexasm.linss import StateSpace
from flexasm.modal import TileLayout

from conftest import assert_same_system, make_rng


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


def same_system(a, b) -> bool:
    return (all(np.array_equal(getattr(a, m), getattr(b, m)) for m in "ABCD")
            and a.in_channels == b.in_channels and a.out_channels == b.out_channels)


def edge_models(planner, kind, n, src, dst):
    return po.grid_edge_models(planner.models, kind, n, src, dst, planner.K_att)


def assert_legs_run_home(planner, arr, pre, post):
    # leg 1 leaves home under the pre-action state, leg 2 ends there under
    # the post-action one
    home = (sc.HOME_JOINTS,) * 3
    closed = planner.models.closed_loop
    assert same_system(arr.systems[0], closed(pre, home, planner.K_att))
    assert same_system(arr.systems[-1], closed(post, home, planner.K_att))


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
    clone = po.EdgeModelArray(0, [sys0] * (2 * z), np.zeros(2 * z))
    spec = po.CostSpec("hinf-wrench")
    cost, values = po.edge_cost(clone, spec)
    assert np.allclose(values, values[0])
    assert cost == pytest.approx(2 * z * values[0])


def test_assemble_edge_grows_structure(planner):
    arr = edge_models(planner, "assemble", 1, (1, 1), "target")
    assert_legs_run_home(planner, arr, sc.AssemblyState(1, 1, 1, 1),
                         sc.AssemblyState(2, 1, 1, 0))


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


def test_planner_keeps_prices_not_loops(planner):
    planner.plan_full_assembly(po.CostSpec("h2-theta"))
    built = [rec for rec in planner._edges.values() if rec is not None]
    assert built and all(rec.values.shape == (2 * planner.cfg.z_grid,
                                              len(po.COST_KINDS)) for rec in built)
    # walk the cache's references, classes aside (they lead to modules)
    seen, todo = set(), [planner._edges]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, (StateSpace, po.EdgeModelArray)), type(obj)
        todo.extend(gc.get_referents(obj))


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
            got = planner.edge_values(*key, spec)
            assert got[0] == want[0] and np.array_equal(got[1], want[1]), (kind, cap)
            assert np.isinf(got[0]) == (cap is not None and cap < np.max(values))


def test_plan_for_an_unplanned_kind_raises(cfg):
    planner = po.AssemblyPlanner(cfg, costs=("h2-theta",))
    with pytest.raises(CostNotPlanned, match=r"'mu'.*\['h2-theta'\]"):
        planner.plan_full_assembly(po.CostSpec("mu"))
    assert not planner._edges
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
    lambda: sc.table_scenario(8, z_grid=3)],
    ids=["desk-z2", "desk-z7", "strip-z4", "table8-z3"])
def test_leg_stacks_equal_loops_built_and_priced_alone(make, monkeypatch):
    # every loop of every edge: the stack's view has the bits of closing
    # its waypoint alone, and each leg's H2 prices have the bits of
    # h2_norm on that loop's own channel slice, with its own eig and inv
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
                    ref = alone.closed_loop(state, qs, K)
                    assert_same_system(loop, ref)
                    want = linss.h2_norm(ref.subsystem(["Theta_G"], ["W_ext"]))
                    assert np.float64(price).tobytes() == np.float64(want).tobytes()
                    loops += 1
    assert loops > 0


def test_plan_makes_one_stacked_eig_per_leg(monkeypatch):
    shapes = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: shapes.append(np.shape(a)) or eig(a))
    cfg = sc.table_scenario(3, z_grid=2)
    planner = po.AssemblyPlanner(cfg)
    for kind in po.COST_KINDS:
        planner.plan_full_assembly(po.CostSpec(kind))
    built = sum(rec is not None for rec in planner._edges.values())
    assert built > 0
    assert len(shapes) == 2 * built
    assert all(len(s) == 3 and s[0] == cfg.z_grid for s in shapes)


def stable_system(rng, A, feedthrough=0.0):
    """A one-input, one-output system of ``A`` with random B and C."""
    n = A.shape[0]
    return StateSpace(A, rng.standard_normal((n, 1)), rng.standard_normal((1, n)),
                      [[feedthrough]])


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
    return [StateSpace(s.A, s.B, s.C, s.D) for s in systems]


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
    want = [linss.h2_norm(s) for s in copies(leg)]
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
                linss.h2_norm(s)
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
