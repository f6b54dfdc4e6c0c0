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

Each edge is built as one stack (two, ``linss._shape_runs``, where its
legs differ in state count): the open loop per waypoint, one
:func:`~flexasm.scenario.close_loop` call, one stacked ``eig`` and one
stacked ``inv``.  Every cost kind prices an edge at a time
(``_loop_values``) from those cached eigendecompositions.

The planner, :class:`AssemblyPlanner`, builds the edges it reads in
batches, prices their loops under every planned kind at once and keeps
only the prices.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import reduce
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
    _peak_key,
    _prime_modes,
    _prime_peaks,
    _subsystems,
    h2_norm,
    hinf_norm,
)
from .modal import _adjacent
from .robot import quintic_waypoints
from .robust import _prime_margin, mu_real_repeated
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

# Edges per batch the planner builds: a batch poses the IK of its distinct
# targets in lockstep and the 3 arm chains of each of its edges' 2z
# waypoints in one call, so this bounds what one call holds.
POSE_BATCH = 64
# Loops per chunk whose H-infinity norms the planner computes in one pass
# (``linss._prime_peaks``) before it prices them: a chunk holds whole
# edges, and their loops live until the chunk is priced.
PEAK_LOOPS = 32


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
        """``node``'s index; only this graph's kind has its action node."""
        if node not in self.nodes:
            raise StateInvalid(f"no node {node!r} in a {self.n}-tile {self.kind} graph")
        return self.nodes.index(node)

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
            if _adjacent(cells[a_t - 1], cells[b_t - 1]):
                # (a_t, 1) -> (b_t, 2) and (a_t, 2) -> (b_t, 1)
                walk[2 * a_t - 2:2 * a_t, 2 * b_t - 2:2 * b_t] = [[0.0, 1.0], [1.0, 0.0]]

    pickup = np.array(walk)
    c0 = cfg.stack_center()
    for t in range(1, n + 1):
        if np.linalg.norm(cfg.tile_center(t) - c0) <= cfg.stack_reach:
            pickup[2 * t - 2:2 * t, 2 * n] = 1.0

    assemble = np.array(walk)
    if n < cfg.n_tiles:
        nxt = cfg.layout.cells[n]
        for t in range(1, n + 1):
            if _adjacent(cells[t - 1], nxt):
                assemble[2 * t - 2:2 * t, 2 * n] = 1.0

    return (NodeGraph(PICKUP, n, nodes + ["stack"], pickup),
            NodeGraph(ASSEMBLE, n, nodes + ["target"], assemble))


def shortest_path(graph: NodeGraph, src, dst, mode: str):
    """Minimum-cost (``mode`` ``"dijkstra"``) or minimum-hop
    (``"bfs_unit"``, every edge weight one) path.

    Returns ``(path_indices, total_weight)``.  Ties break on fewer hops,
    then on lexicographic node order, so results are deterministic.
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
    raise Unreachable(f"no path from node {graph.nodes[s]} to node {graph.nodes[t]} "
                      f"in {graph.kind} graph")


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


@dataclass
class EdgeModelArray:
    """The 2z closed-loop models attached to one graph edge.

    ``systems`` holds leg 1, from home to the action pose under the
    pre-action state, then leg 2, back home under the post-action one, z
    loops each.  A built edge's loops are read-only ``StateSpace`` views
    of one stack (:func:`~flexasm.scenario.close_loop` of a list), each
    carrying its share of the stacked eigendecomposition.  The planner
    keeps only their prices (:class:`EdgePrices`).
    """

    systems: list


class _EdgePose(NamedTuple):
    """What an edge's poses read besides its IK solution: the pre- and
    post-action states, the reaching arm and its world target.

    Walking edges solve the two-arm straddle so the free arm's tip meets
    the target tile center; action edges park arm 3 on the stack (pickup)
    or on the next tile's cell (assemble); an action node of the other
    graph kind raises :class:`StateInvalid`.  Leg 2 always returns to the
    home configuration under the post-action state.
    """

    pre: AssemblyState
    post: AssemblyState
    reach_arm: int
    target: np.ndarray

    @classmethod
    def of(cls, cfg: ScenarioConfig, kind: str, n: int, src, dst) -> "_EdgePose":
        tile, arm = src
        pre = AssemblyState(n, tile, arm, 0 if kind == PICKUP else 1)
        if dst == "stack" and kind == PICKUP:
            return cls(pre, AssemblyState(n, tile, arm, 1), 3, cfg.stack_center())
        if dst == "target" and kind == ASSEMBLE:
            if n >= cfg.n_tiles:
                raise StateInvalid(f"no tile left to assemble after F_{n}")
            return cls(pre, AssemblyState(n + 1, tile, arm, 0), 3, cfg.tile_center(n + 1))
        if isinstance(dst, str):
            raise StateInvalid(f"a {kind} edge cannot end at {dst!r}")
        tile_b, arm_b = dst
        if arm_b != 3 - arm:
            raise StateInvalid("walking must swap the gripping arm")
        return cls(pre, AssemblyState(n, tile_b, arm_b, pre.delta), arm_b,
                   cfg.tile_center(tile_b))

    def dock_distance(self, cfg: ScenarioConfig) -> np.ndarray:
        """The gripped tile's distance to the hub CoM per waypoint."""
        return np.repeat([float(np.linalg.norm(cfg.tile_center(state.j)))
                          for state in (self.pre, self.post)], cfg.z_grid)

    def waypoints(self, q_grip, q_reach, z: int) -> list:
        """The edge's 2z ``(state, qs)``: leg 1 under ``pre``, then leg 2
        under ``post``, z configurations ``(arm 1, arm 2, arm 3)`` each.
        The gripping and reaching arms sweep home -> ``(q_grip, q_reach)``
        -> home on quintics; the other arm stays home."""
        ends = {self.pre.arm: (HOME_JOINTS, q_grip), self.reach_arm: (HOME_JOINTS, q_reach)}
        out = []
        for state, outbound in ((self.pre, True), (self.post, False)):
            paths = {arm: quintic_waypoints(*(pair if outbound else pair[::-1]), z)
                     for arm, pair in ends.items()}
            out += [(state, tuple(paths[arm][k] if arm in paths else HOME_JOINTS
                                  for arm in (1, 2, 3))) for k in range(z)]
        return out


def grid_edge_models(models: ScenarioModels, kind: str, n: int, src, dst,
                     K_att: np.ndarray) -> EdgeModelArray:
    """Build the 2z closed-loop models for one edge.

    The edge's states, reach target and legs are those of
    :class:`_EdgePose`; its IK is :meth:`~flexasm.scenario.ScenarioModels.solve_reach`.
    """
    z = models.cfg.z_grid
    pose = _EdgePose.of(models.cfg, kind, n, src, dst)
    waypoints = pose.waypoints(*models.solve_reach(pose.pre, pose.reach_arm, pose.target), z)
    systems = close_loop([models.open_loop(state, qs) for state, qs in waypoints], K_att)
    _prime_modes(systems)
    return EdgeModelArray(systems)


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


def _channels(loops, kind: str) -> list:
    """The channel pair ``kind`` prices, sliced from each of an edge's
    loops at once (``linss._subsystems``)."""
    inp, out = _PRICED_CHANNELS[kind]
    return _subsystems(loops, [out], [inp])


def _loop_values(loops, spec: CostSpec) -> np.ndarray:
    """Per-loop values of an edge's loops (with the same channels) under
    ``spec.kind``: H2 prices the edge's channel slices (``linss._subsystems``,
    sliced once) in one :func:`h2_norm` call, H-infinity in one
    :func:`hinf_norm` call per loop and the margin in one
    :func:`~flexasm.robust.mu_real_repeated` per loop.  Each call pops a
    value primed in the loop's cache (the planner's chunks and edge ends)."""
    if spec.kind == "mu":
        return np.array([mu_real_repeated(s).mu_lower for s in loops])
    channels = _channels(loops, spec.kind)
    if spec.kind == "h2-theta":
        return h2_norm(channels)
    return np.array([hinf_norm(s) for s in channels])


def edge_cost(array: EdgeModelArray, spec: CostSpec):
    """``(cost, values)``: the metric of each of the edge's 2z loops,
    priced together (:func:`_loop_values`), and their sum, infinite when
    any value is beyond the hard cap (``_edge_price``)."""
    values = _loop_values(array.systems, spec)
    return _edge_price(values, spec), values


class EdgePrices(NamedTuple):
    """What the planner keeps of one built edge.

    ``edge_id`` is the planner's running number of its edges, unreachable
    ones included.  ``values[k, c]`` is the metric of the edge's k-th
    closed loop (in :class:`EdgeModelArray` order) under the planner's
    c-th cost kind.  Everything else of the edge follows from its key.
    """

    edge_id: int
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

    @property
    def cost(self) -> float:
        """Its edges' costs, a running sum from 0.0 (``sum`` compensates on 3.12+)."""
        return reduce(lambda total, e: total + e.cost, self.edges, 0.0)


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


def _edge_keys(graph: NodeGraph, pairs=None) -> list:
    """The planner's key ``(kind, n, src, dst)`` of each node-index pair of
    ``graph``, by default its edges in :meth:`NodeGraph.edges` order."""
    return [(graph.kind, graph.n, graph.nodes[i], graph.nodes[k])
            for i, k in (graph.edges() if pairs is None else pairs)]


class AssemblyPlanner:
    """Plans under the cost kinds ``costs`` it is built for, each named
    once: an empty tuple or a repeated kind raises ``ValueError``.

    Each edge is built once, on demand (:meth:`_build`): its 2z closed
    loops are priced under every planned kind (:func:`edge_cost`) and
    dropped, and the cache keeps an :class:`EdgePrices` per edge, which
    every reader prices through :meth:`_priced`.  A loop's channel slices
    share its eigendecomposition, so one stacked ``eig`` per edge serves
    every kind.  With an H-infinity kind planned, edges are
    priced a chunk of about ``PEAK_LOOPS`` loops at a time, whose
    H-infinity norms are computed in one pass (:meth:`_price`).

    The memo prices each distinct loop at an edge end once.  Its key is
    the end's waypoint ``(state, joint-angle bytes)``, the first under
    ``pre`` or the last under ``post``: ``open_loop`` is a function of it,
    and a loop closes with the bits of closing it alone, so a repeat has
    its leader's bits.  Its value holds only the leader's H-infinity norms
    and margin, never a loop; every loop is still built and priced.
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
        self._hinf = [kind for kind in self.costs if kind.startswith("hinf-")]
        self.models = ScenarioModels(cfg)
        self.K_att = self.models.design_gains()
        self._edges = {}
        self._memo = {}

    def _build(self, keys) -> None:
        """Build and price the unbuilt edges ``(kind, n, src, dst)`` of
        ``keys`` in order, ``POSE_BATCH`` at a time: one ``solve_reaches``
        of a batch's reach targets, one ``robot_mass_matrices`` of its
        waypoints, then per edge one ``ScenarioModels._prime_open_loops``
        of its 2z waypoints, whose open loops :func:`grid_edge_models` pops,
        priced by :meth:`_price` in chunks of whole edges (of at least
        ``PEAK_LOOPS`` loops with an H-infinity kind planned, else of one).
        An edge without IK for its action pose is a hard constraint, stored
        as None (the inferred arm geometry cannot span every diagonal).
        Edge ids and the cache's order follow build order."""
        cfg, models = self.cfg, self.models
        todo = [key for key in dict.fromkeys(keys) if key not in self._edges]
        for b in range(0, len(todo), POSE_BATCH):
            batch = todo[b:b + POSE_BATCH]
            poses = [_EdgePose.of(cfg, *key) for key in batch]
            reaches = models.solve_reaches([(p.pre, p.reach_arm, p.target) for p in poses])
            wps = [None if isinstance(hit, IkNotConverged) else p.waypoints(*hit, cfg.z_grid)
                   for p, hit in zip(poses, reaches)]
            models.robot_mass_matrices([wp for w in wps if w for wp in w])
            chunk, loops = [], 0
            for key in batch:
                w = wps.pop(0)  # each edge's waypoints go once it is built
                end = w and [(state, np.concatenate(qs).tobytes()) for state, qs in (w[0], w[-1])]
                if w:
                    models._prime_open_loops(w)
                try:
                    arr = grid_edge_models(models, *key, self.K_att)
                except IkNotConverged:
                    arr = None
                chunk.append((key, arr, end))
                loops += 0 if arr is None else len(arr.systems)
                if not self._hinf or loops >= PEAK_LOOPS:
                    self._price(chunk)
                    chunk, loops = [], 0
            self._price(chunk)

    def _price(self, chunk) -> None:
        """Store the prices of a chunk of built edges ``(key, arr, ends)``
        in order: ``arr`` None has no IK, and ``ends`` are the memo keys of
        its first and last loop.  An end loop repeats when its key is in
        the memo or an earlier loop of the chunk leads it.  The H-infinity
        norms of every other loop are computed first (``_prime_peaks``),
        then each leader's margin (``robust._prime_margin``), and the memo
        keeps the leaders' prices.  Each end loop is seeded with its key's,
        so its ``hinf_norm`` and ``mu_real_repeated`` calls in
        :func:`edge_cost` pop them."""
        memo, lead, primed = self._memo, {}, []
        for _, arr, ends in chunk:
            if arr is not None:
                loops = arr.systems
                new = [end not in memo and lead.setdefault(end, loop) is loop
                       for loop, end in zip((loops[0], loops[-1]), ends)]
                # every loop of the edge but a repeat at either end
                primed += [ch for kind in self._hinf
                           for ch in _channels(loops[1 - new[0]:len(loops) - 1 + new[1]], kind)]
        _prime_peaks(primed)
        for end, loop in lead.items():
            keys = [_peak_key(ch) for kind in self._hinf for ch in _channels([loop], kind)]
            if "mu" in self.costs:
                keys.append(_prime_margin(loop))
            memo[end] = {k: loop._modes[k] for k in keys if k in loop._modes}
        for key, arr, ends in chunk:
            if arr is None:
                self._edges[key] = None
                continue
            for loop, end in zip((arr.systems[0], arr.systems[-1]), ends):
                loop._modes.update(memo[end])
            values = np.stack([edge_cost(arr, spec)[1] for spec in self._specs], axis=1)
            self._edges[key] = EdgePrices(len(self._edges), values)

    def _column(self, spec: CostSpec) -> int:
        """``spec.kind``'s index in ``costs``, or :class:`CostNotPlanned`."""
        if spec.kind not in self.costs:
            raise CostNotPlanned(f"cost {spec.kind!r} is not planned here; "
                                 f"the planner prices {list(self.costs)}")
        return self.costs.index(spec.kind)

    def _priced(self, key, spec: CostSpec):
        """``(cost, values)`` of the built edge ``key`` under ``spec``, ``values`` a
        contiguous copy that sums as edge_cost's; inf and no values without IK."""
        rec = self._edges[key]
        if rec is None:
            return np.inf, np.zeros(0)
        values = np.ascontiguousarray(rec.values[:, self._column(spec)])
        return _edge_price(values, spec), values

    def weight_graph(self, graph: NodeGraph, spec: CostSpec) -> NodeGraph:
        """Weigh ``graph``'s edges under ``spec``, building them together."""
        self._column(spec)
        keys = _edge_keys(graph)
        self._build(keys)
        W = np.full_like(graph.adjacency, np.inf, dtype=float)
        for (i, k), key in zip(graph.edges(), keys):
            W[i, k] = self._priced(key, spec)[0]
        graph.weights = W
        return graph

    def stage(self, graph: NodeGraph, path, spec: CostSpec) -> StageLog:
        """Edge logs of one node-index path through ``graph``, its edges
        built together.

        An edge without an inverse-kinematics solution logs ``edge_id``
        -1 with no values or distances.
        """
        self._column(spec)
        keys = _edge_keys(graph, zip(path, path[1:]))
        self._build(keys)
        edges = []
        for key in keys:
            rec = self._edges[key]
            edge_id, dists = ((-1, np.zeros(0)) if rec is None else
                              (rec.edge_id, _EdgePose.of(self.cfg, *key).dock_distance(self.cfg)))
            price, values = self._priced(key, spec)
            edges.append(EdgeLog(edge_id, *key, values, price, dists))
        return StageLog(graph.kind, graph.n, [graph.nodes[i] for i in path], edges)

    def _run_plan(self, graphs, spec: CostSpec, start, mode: str) -> list:
        """Stages from ``start`` to the full set through the weighted stage
        ``graphs``; ``mode`` is a :func:`shortest_path` search mode."""
        node = start
        stages = []
        for graph in graphs:
            path, _ = shortest_path(graph, node, graph.action_index, mode)
            stages.append(self.stage(graph, path, spec))
            if len(path) > 1:
                node = graph.nodes[path[-2]]
        return stages

    def plan_full_assembly(self, spec: CostSpec, start=(1, 1)) -> PlanResult:
        """Alternate pickup/assemble stages from one tile to the full set.

        The optimized plan runs Dijkstra on metric-weighted graphs; the
        baseline takes minimum-hop paths and is evaluated under the same
        metric for comparison.  Both search the same stage graphs, whose
        edges are all built (:meth:`_build`) before any is weighed.
        """
        self._column(spec)
        graphs = [g for n in range(1, self.cfg.n_tiles) for g in build_node_graphs(self.cfg, n)]
        self._build([key for graph in graphs for key in _edge_keys(graph)])
        for graph in graphs:
            self.weight_graph(graph, spec)
        return PlanResult(spec, self._run_plan(graphs, spec, start, "dijkstra"),
                          self._run_plan(graphs, spec, start, "bfs_unit"))
