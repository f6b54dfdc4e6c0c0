"""Node graphs, edge model grids, cost functions and assembly planning.

For a structure of n tiles there are two directed graphs, one per action:
*pickup* (action node = the stack) and *assemble* (action node = the next
tile's position).  Tile nodes are (tile, arm) pairs; every tile-to-tile
edge swaps the walking arm, since the robot holds with one arm and
reaches with the other.  Adjacency matrices are (2n+1) x (2n+1) with a
zero diagonal.

Each edge is priced by gridding the robot's two quintic trajectory legs
(home -> action pose, action pose -> home) into z waypoints apiece,
building the closed attitude loop at every waypoint, and summing a system
norm over the resulting 2z models: peak wrench-to-rate gain, wrench-to-
attitude power, input-sensitivity peak, or the frequency-uncertainty
margin.  A hard cap turns any offending edge infinite.  Dijkstra then
picks minimum-cost paths; a unit-weight breadth-first search provides the
step-count baseline the optimized plans are measured against.

Each leg is built as one stack: the open loop per waypoint, then the
attitude loop closed on all z waypoints in one
:func:`~flexasm.scenario.close_loop` call, and the z eigendecompositions
and modal inverses in one stacked ``eig`` and one stacked ``inv``.  Every
cost kind prices a leg at a time (``_leg_values``): a norm-priced kind
slices the leg's channel pair once, the H2 cost prices the slices in one
:func:`~flexasm.linss.h2_norm` call, each H-infinity cost makes one
:func:`~flexasm.linss.hinf_norm` call per loop and the margin one
:func:`~flexasm.robust.mu_real_repeated` per loop, all from the same
cached eigendecompositions.

The planner is built for the cost kinds it will plan.  It prices each
edge's loops under all of them as soon as it builds them, so one
eigendecomposition per loop serves every kind, and keeps only the prices.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    CostNotPlanned,
    IkNotConverged,
    LayoutError,
    StateInvalid,
    Unreachable,
)
from .linss import (
    _prime_modes,
    _subsystems,
    h2_norm,
    hinf_norm,
)
from .modal import _adjacent
from .robot import quintic_waypoints
from .robust import mu_real_repeated
from .scenario import (
    HOME_JOINTS,
    AssemblyState,
    ScenarioConfig,
    ScenarioModels,
    close_loop,
)

__all__ = [
    "NodeGraph",
    "CostSpec",
    "EdgeModelArray",
    "EdgePrices",
    "build_node_graphs",
    "shortest_path",
    "grid_edge_models",
    "edge_cost",
    "AssemblyPlanner",
    "PlanResult",
    "COST_KINDS",
]

COST_KINDS = ("hinf-wrench", "h2-theta", "hinf-isens", "mu")

PICKUP = "pickup"
ASSEMBLE = "assemble"


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

@dataclass
class NodeGraph:
    """Directed action graph over (tile, arm) states plus one action node."""

    kind: str
    n: int
    nodes: list
    adjacency: np.ndarray
    weights: Optional[np.ndarray] = None

    @property
    def action_index(self) -> int:
        return 2 * self.n

    def node_index(self, node) -> int:
        if node in ("stack", "target", "action"):
            return self.action_index
        tile, arm = node
        if not (1 <= tile <= self.n and arm in (1, 2)):
            raise StateInvalid(f"no node {node} in a {self.n}-tile graph")
        return 2 * (tile - 1) + (arm - 1)

    def edges(self):
        rows, cols = np.nonzero(self.adjacency)
        return list(zip(rows.tolist(), cols.tolist()))


def build_node_graphs(cfg: ScenarioConfig, n: int):
    """Pickup and assemble graphs for the n-tile structure.

    Walking edges join docking tiles whose cells touch (side or diagonal)
    and always swap the gripping arm.  The stack node is reachable from
    tiles within arm reach of the stack; the assemble node from tiles
    adjacent to the next tile's cell (absent for the final structure).
    """
    if not 1 <= n <= cfg.n_tiles:
        raise LayoutError(f"no structure of size {n} in an N={cfg.n_tiles} run")
    cells = cfg.layout.cells[:n]
    size = 2 * n + 1
    nodes = [(t, a) for t in range(1, n + 1) for a in (1, 2)]

    walk = np.zeros((size, size))
    for a_t in range(1, n + 1):
        for b_t in range(1, n + 1):
            if not _adjacent(cells[a_t - 1], cells[b_t - 1]):
                continue
            for arm in (1, 2):
                src = 2 * (a_t - 1) + (arm - 1)
                dst = 2 * (b_t - 1) + (2 - arm)
                walk[src, dst] = 1.0

    pickup = np.array(walk)
    c0 = cfg.stack_center()
    for t in range(1, n + 1):
        if np.linalg.norm(cfg.tile_center(t) - c0) <= cfg.stack_reach:
            for arm in (1, 2):
                pickup[2 * (t - 1) + (arm - 1), 2 * n] = 1.0

    assemble = np.array(walk)
    if n < cfg.n_tiles:
        nxt = cfg.layout.cells[n]
        for t in range(1, n + 1):
            if _adjacent(cells[t - 1], nxt):
                for arm in (1, 2):
                    assemble[2 * (t - 1) + (arm - 1), 2 * n] = 1.0

    return (NodeGraph(PICKUP, n, nodes + ["stack"], pickup),
            NodeGraph(ASSEMBLE, n, nodes + ["target"], assemble))


def shortest_path(graph: NodeGraph, src, dst, mode: str = "dijkstra"):
    """Minimum-cost (or minimum-hop) path.

    Returns ``(path_indices, total_weight)``.  Ties break on fewer hops,
    then on lexicographic node order, so results are deterministic.
    ``bfs_unit`` treats every edge as weight one.
    """
    s = src if isinstance(src, int) else graph.node_index(src)
    t = dst if isinstance(dst, int) else graph.node_index(dst)
    size = graph.adjacency.shape[0]
    if mode == "dijkstra":
        if graph.weights is None:
            raise StateInvalid("graph has no weights; assign costs first")
        W = graph.weights
    elif mode == "bfs_unit":
        W = np.where(graph.adjacency > 0, 1.0, np.inf)
        if graph.weights is not None:
            # hard-constrained (infinite-cost) edges are impassable for
            # the unit-weight baseline as well
            W = np.where(np.isfinite(graph.weights), W, np.inf)
    else:
        raise ValueError(f"unknown search mode {mode!r}")

    if s == t:
        return [s], 0.0

    best = {}
    heap = [(0.0, 0, (s,))]
    while heap:
        cost, hops, path = heapq.heappop(heap)
        node = path[-1]
        if node == t:
            return list(path), cost
        if node in best and best[node] <= (cost, hops, path):
            continue
        best[node] = (cost, hops, path)
        for nxt in range(size):
            if graph.adjacency[node, nxt] <= 0:
                continue
            w = W[node, nxt]
            if not np.isfinite(w):
                continue
            heapq.heappush(heap, (cost + w, hops + 1, path + (nxt,)))
    raise Unreachable(f"no path from node {s} to node {t} in {graph.kind} graph")


# ---------------------------------------------------------------------------
# edge model grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostSpec:
    """Which norm weights the edges, and an optional per-system hard cap."""

    kind: str
    hard_cap: Optional[float] = None

    def __post_init__(self):
        if self.kind not in COST_KINDS:
            raise ValueError(f"cost kind must be one of {COST_KINDS}")
        if self.hard_cap is not None and not self.hard_cap > 0:
            raise ValueError("hard cap must be positive")

    @property
    def key(self):
        return (self.kind, self.hard_cap)


@dataclass
class EdgeModelArray:
    """The 2z closed-loop models attached to one graph edge.

    ``systems`` holds leg 1, from home to the action pose under the
    pre-action state, then leg 2, back home under the post-action one, z
    loops each.  A built edge's loops are read-only ``StateSpace`` views
    of one stack per leg (:func:`~flexasm.scenario.close_loop` of a list),
    each carrying its share of the leg's stacked eigendecomposition.
    ``dock_distance`` records the gripped tile's distance to the hub CoM
    per waypoint.  The planner's cache key names the edge.
    """

    edge_id: int
    systems: list
    dock_distance: np.ndarray


def _leg_systems(models: ScenarioModels, state: AssemblyState, sweeps, z, K_att):
    """Closed loops along one leg; ``sweeps`` maps arm number to (q0, q1).

    The open loop is built per waypoint; the attitude loop is closed on
    all z of them in one stacked :func:`~flexasm.scenario.close_loop`
    call, and their eigendecompositions and modal inverses, which every
    cost kind reads, come from one stacked ``eig`` and one stacked ``inv``
    (``linss._prime_modes``).
    """
    paths = {arm: quintic_waypoints(q0, q1, z) for arm, (q0, q1) in sweeps.items()}
    plants = []
    for k in range(z):
        qs = tuple(paths[arm][k] if arm in paths else HOME_JOINTS
                   for arm in (1, 2, 3))
        plants.append(models.open_loop(state, qs))
    loops = close_loop(plants, K_att)
    _prime_modes(loops)
    return loops


def grid_edge_models(models: ScenarioModels, kind: str, n: int, src, dst,
                     K_att: np.ndarray, edge_id: int = 0) -> EdgeModelArray:
    """Build the 2z closed-loop models for one edge.

    Walking edges solve the two-arm straddle so the free arm's tip meets
    the target tile center; action edges park arm 3 on the stack (pickup)
    or on the next tile's cell (assemble).  Leg 2 always returns to the
    home configuration under the post-action state.
    """
    cfg = models.cfg
    z = cfg.z_grid
    tile, arm = src
    delta_walk = 0 if kind == PICKUP else 1
    pre = AssemblyState(n, tile, arm, delta_walk)

    if dst in ("stack", "target"):
        if dst == "stack":
            target = cfg.stack_center()
            post = AssemblyState(n, tile, arm, 1)
        else:
            if n >= cfg.n_tiles:
                raise StateInvalid(f"no tile left to assemble after F_{n}")
            target = cfg.tile_center(n + 1)
            post = AssemblyState(n + 1, tile, arm, 0)
        q_grip, q_reach = models.solve_reach(pre, 3, target)
        sweeps1 = {arm: (HOME_JOINTS, q_grip), 3: (HOME_JOINTS, q_reach)}
        sweeps2 = {arm: (q_grip, HOME_JOINTS), 3: (q_reach, HOME_JOINTS)}
        dock = [float(np.linalg.norm(cfg.tile_center(tile)))] * (2 * z)
    else:
        tile_b, arm_b = dst
        if arm_b != 3 - arm:
            raise StateInvalid("walking must swap the gripping arm")
        target = cfg.tile_center(tile_b)
        q_grip, q_reach = models.solve_reach(pre, arm_b, target)
        post = AssemblyState(n, tile_b, arm_b, delta_walk)
        sweeps1 = {arm: (HOME_JOINTS, q_grip), arm_b: (HOME_JOINTS, q_reach)}
        sweeps2 = {arm_b: (q_reach, HOME_JOINTS), arm: (q_grip, HOME_JOINTS)}
        dock = ([float(np.linalg.norm(cfg.tile_center(tile)))] * z
                + [float(np.linalg.norm(cfg.tile_center(tile_b)))] * z)

    systems = (_leg_systems(models, pre, sweeps1, z, K_att)
               + _leg_systems(models, post, sweeps2, z, K_att))
    return EdgeModelArray(edge_id, systems, np.asarray(dock))


def _edge_price(values: np.ndarray, spec: CostSpec) -> float:
    """Sum of an edge's per-system values, or infinity when any value is
    beyond the hard cap: Dijkstra treats such an edge as impassable."""
    if spec.hard_cap is not None and np.any(values > spec.hard_cap):
        return np.inf
    return float(np.sum(values))


# The channel pair ``(input, output)`` each norm-priced cost kind reads.
_PRICED_CHANNELS = {
    "hinf-wrench": ("W_ext", "omega_dot_G"),
    "h2-theta": ("W_ext", "Theta_G"),
    "hinf-isens": ("d_t", "e_t"),
}


def _leg_values(leg, spec: CostSpec) -> np.ndarray:
    """Per-loop values of one leg's closed loops (loops with the same
    channels) under ``spec.kind``.

    A norm-priced kind slices the leg's channel pair once
    (``linss._subsystems``); H2 prices the slices in one :func:`h2_norm`
    call, H-infinity in one :func:`hinf_norm` call per loop.  The margin
    runs one :func:`~flexasm.robust.mu_real_repeated` per loop.
    """
    if spec.kind == "mu":
        return np.array([mu_real_repeated(s).mu_lower for s in leg])
    inp, out = _PRICED_CHANNELS[spec.kind]
    channels = _subsystems(leg, [out], [inp])
    if spec.kind == "h2-theta":
        return h2_norm(channels)
    return np.array([hinf_norm(s) for s in channels])


def edge_cost(array: EdgeModelArray, spec: CostSpec):
    """Sum of the per-system metric over the 2z models.

    Returns ``(cost, values)``; any value beyond the hard cap makes the
    whole edge infinite, which Dijkstra treats as impassable.  Each leg's
    z loops are priced together (:func:`_leg_values`).
    """
    systems = array.systems
    z = len(systems) // 2
    values = np.concatenate([_leg_values(leg, spec)
                             for leg in (systems[:z], systems[z:])])
    return _edge_price(values, spec), values


class EdgePrices(NamedTuple):
    """What the planner keeps of one built edge.

    ``values[k, c]`` is the metric of the edge's k-th closed loop (in
    :class:`EdgeModelArray` order) under the planner's c-th cost kind;
    ``dock_distance`` is per loop, as in :class:`EdgeModelArray`.
    """

    edge_id: int
    dock_distance: np.ndarray
    values: np.ndarray


# ---------------------------------------------------------------------------
# planner
# ---------------------------------------------------------------------------

@dataclass
class EdgeLog:
    edge_id: int
    kind: str
    n: int
    src: object
    dst: object
    values: np.ndarray
    cost: float
    dock_distance: np.ndarray


@dataclass
class StageLog:
    kind: str
    n: int
    path_nodes: list
    edges: list
    cost: float


def _plan_facts(stages):
    """``(cumulative, series, mean_dock_distance)`` of a stage list.

    Stage costs add in stage order from 0.0; ``series`` rows are
    ``(grid_index, value, edge_id, action)`` over every edge's values.
    """
    edges = [e for st in stages for e in st.edges]
    series = [(i, float(v), e.edge_id, e.kind) for i, (e, v) in
              enumerate((e, v) for e in edges for v in e.values)]
    dock = [d for e in edges for d in e.dock_distance]
    return (sum((st.cost for st in stages), 0.0), series,
            float(np.mean(dock)) if dock else 0.0)


@dataclass
class PlanResult:
    """Full-assembly plan: the optimized stages and the baseline's.

    The cumulative cost, the per-grid-point ``series`` and the mean dock
    distance of each plan are derived from its stages.
    """

    spec: CostSpec
    stages: list
    stages_baseline: list

    @property
    def cumulative(self) -> float:
        return _plan_facts(self.stages)[0]

    @property
    def cumulative_baseline(self) -> float:
        return _plan_facts(self.stages_baseline)[0]

    @property
    def series(self) -> list:
        return _plan_facts(self.stages)[1]

    @property
    def series_baseline(self) -> list:
        return _plan_facts(self.stages_baseline)[1]

    @property
    def mean_dock_distance(self) -> float:
        return _plan_facts(self.stages)[2]

    @property
    def mean_dock_distance_baseline(self) -> float:
        return _plan_facts(self.stages_baseline)[2]

    @property
    def improvement_percent(self) -> float:
        if self.cumulative == 0.0:
            return 0.0
        return 100.0 * (self.cumulative_baseline - self.cumulative) / self.cumulative


class AssemblyPlanner:
    """Plans under the cost kinds ``costs`` it is built for, each named
    once: an empty tuple or a repeated kind raises ``ValueError``.

    Each edge is built once: its 2z closed loops are priced under every
    planned kind (:func:`edge_cost`, once per kind) and dropped, and the
    cache keeps an :class:`EdgePrices` per edge.  A loop's channel slices
    share its eigendecomposition, so one stacked ``eig`` per leg serves
    every kind.
    """

    def __init__(self, cfg: ScenarioConfig, costs=COST_KINDS):
        self.cfg = cfg
        self.costs = tuple(costs)
        if not self.costs:
            raise ValueError("a planner needs at least one cost kind")
        if len(set(self.costs)) != len(self.costs):
            raise ValueError(f"cost kinds {list(self.costs)} repeat a kind: "
                             "each is priced once per edge")
        self._specs = tuple(CostSpec(kind) for kind in self.costs)
        self.models = ScenarioModels(cfg)
        self.K_att = self.models.design_gains()
        self._edges = {}
        self._next_edge_id = 0

    def edge_prices(self, kind: str, n: int, src, dst) -> Optional[EdgePrices]:
        """Prices of one edge under every planned kind, or None when the
        straddle is unreachable.

        An edge whose action pose has no inverse-kinematics solution is a
        hard constraint: it stays in the adjacency but prices to infinity
        (the inferred arm geometry cannot span every diagonal).
        """
        key = (kind, n, src, dst)
        if key not in self._edges:
            try:
                arr = grid_edge_models(self.models, kind, n, src, dst, self.K_att,
                                       edge_id=self._next_edge_id)
            except IkNotConverged:
                self._edges[key] = None
            else:
                values = np.stack([edge_cost(arr, spec)[1] for spec in self._specs],
                                  axis=1)
                self._edges[key] = EdgePrices(arr.edge_id, arr.dock_distance, values)
            self._next_edge_id += 1
        return self._edges[key]

    def edge_values(self, kind: str, n: int, src, dst, spec: CostSpec):
        """``(cost, values)`` of one edge under ``spec``, from its stored
        prices; a spec whose kind the planner was not built for raises
        :class:`CostNotPlanned`."""
        if spec.kind not in self.costs:
            raise CostNotPlanned(f"cost {spec.kind!r} is not planned here; "
                                 f"the planner prices {list(self.costs)}")
        rec = self.edge_prices(kind, n, src, dst)
        if rec is None:
            return np.inf, np.zeros(0)
        # a contiguous copy: it sums as edge_cost's values do, and no
        # caller holds a view into the cache
        values = np.ascontiguousarray(rec.values[:, self.costs.index(spec.kind)])
        return _edge_price(values, spec), values

    def weight_graph(self, graph: NodeGraph, spec: CostSpec) -> NodeGraph:
        W = np.full_like(graph.adjacency, np.inf, dtype=float)
        for i, k in graph.edges():
            src = graph.nodes[i]
            dst = graph.nodes[k]
            W[i, k] = self.edge_values(graph.kind, graph.n, src, dst, spec)[0]
        graph.weights = W
        return graph

    def stage(self, graph: NodeGraph, path, spec: CostSpec) -> StageLog:
        """Edge logs and cost of one node-index path through ``graph``.

        An edge without an inverse-kinematics solution logs ``edge_id``
        -1 with no values or distances.
        """
        edges = []
        cost = 0.0
        for i, k in zip(path, path[1:]):
            src, dst = graph.nodes[i], graph.nodes[k]
            price, values = self.edge_values(graph.kind, graph.n, src, dst, spec)
            rec = self.edge_prices(graph.kind, graph.n, src, dst)
            edge_id, dists = ((-1, np.zeros(0)) if rec is None
                              else (rec.edge_id, rec.dock_distance))
            edges.append(EdgeLog(edge_id, graph.kind, graph.n, src, dst,
                                 values, price, dists))
            cost += price
        return StageLog(graph.kind, graph.n, [graph.nodes[i] for i in path],
                        edges, cost)

    def _run_plan(self, spec: CostSpec, start, mode: str) -> list:
        """Stages from ``start`` to the full set; ``mode`` is a
        :func:`shortest_path` search mode."""
        node = start
        stages = []
        for n in range(1, self.cfg.n_tiles):
            for graph, goal in zip(build_node_graphs(self.cfg, n), ("stack", "target")):
                self.weight_graph(graph, spec)
                path, _ = shortest_path(graph, node, goal, mode)
                stages.append(self.stage(graph, path, spec))
                if len(path) > 1:
                    node = graph.nodes[path[-2]]
        return stages

    def plan_full_assembly(self, spec: CostSpec, start=(1, 1)) -> PlanResult:
        """Alternate pickup/assemble stages from one tile to the full set.

        The optimized plan runs Dijkstra on metric-weighted graphs; the
        baseline takes minimum-hop paths and is evaluated under the same
        metric for comparison.
        """
        return PlanResult(spec, self._run_plan(spec, start, "dijkstra"),
                          self._run_plan(spec, start, "bfs_unit"))
