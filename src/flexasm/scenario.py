"""Complete spacecraft plant for any assembly state, plus the attitude loop.

One model instance is the stack-up of: rigid hub, flexible solar array
(with the first-mode frequency pulled out as an uncertainty channel),
rigid tile stack, the flexible structure built so far, and the three-arm
robot gripping a docking tile -- optionally carrying one tile -- with the
hub translation pinned at G, as translational control is out of the
loop.  The robot walks with arms 1 and 2; arm 3 only handles tiles.

All wired port signals are expressed in the hub frame.  The array's
mounting ``ARRAY_DCM`` and the tile stack's offset ``STACK_OFFSET`` from
the hub port P3 are published constants, not scenario settings.  The
plant is evaluated only at trajectory waypoints, where every joint is
locked, so the robot -- three arms, its central hub and the carried tile
-- is one rigid body standing on the structure's docking port: a static
gain ``W_C = -M_C(q) xdd_C``.  The robot hub and the hanging arms sit at
fixed places in the gripping arm's link 5: one mount table places them for
``M_C``, the walking IK and its reach bound.  ``M_C`` is weighed for a
list of waypoints at once (a planner's batch of edges):
the links of all three arms of every waypoint posed from J0 in one
:func:`flexasm.robot.link_poses` call, the hanging arms re-expressed from
J6 in one :func:`flexasm.robot.rebase_j6` call, and per ``(arm, delta)``
:func:`flexasm.multibody.compose_rigid` sums the parts in one pass on a
leading batch axis.  The walking IK's stacked residual poses the gripping
and reaching rows of all the reach targets it solves in lockstep the same
way.  Only ``M_C`` reads the gripping arm and the joint angles, and it is
memoized on ``(arm, delta, joint angles)``: waypoints repeat across
structure sizes and every home waypoint of one ``(arm, delta)`` is the
same.  The rest of the spacecraft -- hub, array, tile stack and structure,
its hub translation pinned -- is wired once per ``(n, j, delta)`` with the robot
port left open and cached, from hub and array blocks built once per
scenario and a two-port block of ``F_n`` built once per ``(n, j)``, whose
modal data is reduced once per size for all docking tiles; the missing
plants of a list are built as stacks (``ScenarioModels._port_plants``).
Beside each cached plant sits its prepared robot-port closure
(:class:`flexasm.linss.StaticClosure`): the open loops of an edge's
waypoints on one plant are one stacked 6x6 solve and stacked products on
operands gathered once (``ScenarioModels._prime_open_loops``), and the
loop closure and the attitude loop are built without re-validating
constructors.  The independent
reference for ``M_C`` lives in the tests (``tests/wired.py``): the robot
wired link by link from port-based arm chains and a port-inverted hub,
beside the fully wired plant, the reference for the cached one.

External channels of the open-loop plant:

    inputs  T_G (hub torque), W_ext (wrench at the docking port),
            w_omega (uncertainty);
    outputs omega_dot_G, z_omega.

Closing the attitude loop adds the integrator banks (omega_G, Theta_G),
the torque disturbance d_t, and the total actuation torque e_t = d_t + u
whose transfer from d_t is the classical input sensitivity.  The loop is
built on the plant's matrices: ``u`` reads only the integrator states, so
no algebraic loop has to be solved.  :func:`close_loop` closes a list of
plants (the open loops of one trajectory edge's two legs, or a list of
one) in one pass of stacked arithmetic per stack of equal shapes.

A mission is one :class:`ScenarioConfig`: :func:`table_scenario` fills it
from the published tables, and :func:`load_scenario` reads a scenario YAML
file into it through the key table ``SCENARIO_BLOCKS``, so this module
alone knows the scenario file format.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from . import data_path
from .errors import (
    IkNotConverged,
    IkUnreachable,
    InvalidModalData,
    MissingStructureData,
    ParseError,
    SchemaError,
    StateInvalid,
    WidthMismatch,
)
from .linss import (W_CHANNEL, Z_CHANNEL, StateSpace, StaticClosure, _interconnects,
                    _invert_channels, _stacks, _subsystems, gain, split_channel)
from .modal import (
    _BODY_KEYS,
    DEFAULT_DAMPING,
    DEFAULT_TILE_INERTIA,
    DEFAULT_TILE_MASS,
    LatticeStiffness,
    TileLayout,
    _body_inertia,
    _count,
    _floats,
    _real,
    build_lattice,
    default_layout,
    load_body_file,
    load_yaml,
    modal_reduce,
    read_block,
)
from .multibody import (
    ModalBodyData,
    RigidBodyData,
    apply_frame,
    compose_rigid,
    mode_freq_lfr,
    nearest_dcm,
    port_mass_matrix,
    rigid_nport,
    titop_two_port,
    transport_inertia,
)
from .robot import (
    ArmGeometry,
    default_arm_geometry,
    dls_solve,
    fixed_anchor,
    link_poses,
    rebase_j6,
    JOINT_LIMIT,
)

__all__ = [
    "ScenarioConfig",
    "AssemblyState",
    "ScenarioModels",
    "table_scenario",
    "load_scenario",
    "attitude_gains",
    "close_loop",
    "enumerate_model_family",
    "HOME_JOINTS",
]

HOME_JOINTS = np.zeros(5)

# Tip position tolerance of the walking IK [m].
REACH_TOL = 1e-4

# Largest entry of R^T R - I accepted for a configured mount DCM before
# it is snapped to the nearest rotation.
DCM_TOL = 1e-3

# Published spacecraft constants (products of inertia negated into tensors).
HUB_MASS = 166.0
HUB_INERTIA = np.array([[21.6256, -3.84, 0.0],
                        [-3.84, 15.6256, 0.0],
                        [0.0, 0.0, 30.6738]])
GP1 = np.array([0.0, -0.5, 0.0])
GP2 = np.array([-0.5, 0.5, 0.7125])
GP3 = np.array([0.5, 0.0, 0.7125])
ARRAY_DCM = np.diag([-1.0, -1.0, 1.0])

ROBOT_HUB_MASS = 10.0
ROBOT_HUB_INERTIA = 0.6 * np.eye(3)
ARM_MOUNTS = {
    1: np.array([0.1, 0.0, 0.0]),
    2: np.array([-0.05, 0.0, -0.0866]),
    3: np.array([-0.05, 0.0, 0.0866]),
}
ARM_MOUNT_DCMS = {
    1: np.eye(3),
    2: np.array([[-0.5, 0.0, -0.866], [0.0, -1.0, 0.0], [-0.866, 0.0, 0.5]]),
    3: np.array([[-0.5, 0.0, 0.866], [0.0, -1.0, 0.0], [0.866, 0.0, 0.5]]),
}
STACK_OFFSET = np.array([0.5, 0.0, 0.0])


@dataclass(frozen=True)
class AssemblyState:
    """Discrete assembly state: n tiles built, docked at tile j with one
    walking arm, delta = 1 when arm 3 carries a tile."""

    n: int
    j: int
    arm: int
    delta: int

    def __post_init__(self):
        if not (1 <= self.j <= self.n):
            raise StateInvalid(f"docking tile {self.j} outside 1..{self.n}")
        if self.arm not in (1, 2):
            raise StateInvalid(f"gripping arm must be 1 or 2, got {self.arm}")
        if self.delta not in (0, 1):
            raise StateInvalid(f"delta must be 0 or 1, got {self.delta}")


@dataclass(frozen=True)
class ScenarioConfig:
    """All physical data and modeling knobs for one mission scenario;
    out-of-range numbers, a hub or tile without mass, a hub without ports
    P1..P3 or a robot hub without mounts A1..A3, a mount-DCM table that
    does not name exactly arms 1..3, and a mount DCM more than ``DCM_TOL``
    off a rotation raise ``SchemaError``."""

    hub: RigidBodyData
    array: ModalBodyData
    tile: RigidBodyData
    n_tiles: int
    layout: TileLayout
    arm_geometry: ArmGeometry
    robot_hub: RigidBodyData
    arm_mount_dcms: dict
    xi_att: float = 1.0
    f_att_hz: float = 0.01
    r_omega: float = 0.2
    uncertain_mode: int = 0
    z_grid: int = 7
    n_struct_modes: int = 4
    xi_struct: float = DEFAULT_DAMPING
    stiffness: LatticeStiffness = field(default_factory=LatticeStiffness)
    stack_reach: float = 1.5

    def __post_init__(self):
        if not self.n_tiles >= 1:
            raise SchemaError(f"n_tiles = {self.n_tiles} must be >= 1")
        if len(self.layout) < self.n_tiles:
            raise MissingStructureData(
                f"layout has {len(self.layout)} cells for N={self.n_tiles}")
        if not 0 <= self.uncertain_mode < self.array.n_modes:
            raise SchemaError(
                f"uncertain mode {self.uncertain_mode + 1} outside the "
                f"array's modes 1..{self.array.n_modes}")
        # each test is written so that NaN fails it
        c, k = self, self.stiffness
        for name, value, ok, want in [
                ("z_grid", c.z_grid, c.z_grid >= 2, ">= 2 (two waypoints)"),
                ("r_omega", c.r_omega, 0.0 < c.r_omega < 1.0, "in (0, 1)"),
                ("controller xi", c.xi_att, 0.0 < c.xi_att < np.inf, "finite and > 0"),
                ("controller freq_hz", c.f_att_hz, 0.0 < c.f_att_hz < np.inf,
                 "finite and > 0"),
                ("structure n_modes", c.n_struct_modes, c.n_struct_modes >= 0, ">= 0"),
                ("structure damping", c.xi_struct, 0.0 < c.xi_struct < 1.0, "in (0, 1)"),
                ("structure stack_reach_m", c.stack_reach, 0.0 < c.stack_reach < np.inf,
                 "finite and > 0"),
                ("k_trans", k.k_trans, 0.0 < k.k_trans < np.inf, "finite and > 0"),
                ("k_rot", k.k_rot, 0.0 < k.k_rot < np.inf, "finite and > 0"),
                ("diag_scale", k.diag_scale, 0.0 <= k.diag_scale < np.inf, "finite and >= 0"),
                ("hub mass_kg", c.hub.mass, c.hub.mass > 0.0, "> 0"),
                ("tile mass_kg", c.tile.mass, c.tile.mass > 0.0, "> 0")]:
            if not ok:
                raise SchemaError(f"{name} = {value} must be {want}")
        for name, need in (("hub", ("P1", "P2", "P3")), ("robot_hub", ("A1", "A2", "A3"))):
            missing = [p for p in need if p not in getattr(self, name).port_offsets]
            if missing:
                raise SchemaError(f"body {name!r} has no port {', '.join(missing)}; "
                                  f"it needs {', '.join(need)}")
        if set(self.arm_mount_dcms) != {1, 2, 3}:
            raise SchemaError(f"mount DCMs given for arms {list(self.arm_mount_dcms)}; "
                              "need exactly arms 1, 2 and 3")
        # published mount DCMs are rounded to 4 digits (4.4e-5 off
        # orthonormal); each must lie within DCM_TOL of a rotation to be
        # snapped to it
        for k, R in sorted(self.arm_mount_dcms.items()):
            R = np.asarray(R, dtype=float)
            if not (R.shape == (3, 3) and np.abs(R.T @ R - np.eye(3)).max() <= DCM_TOL
                    and np.linalg.det(R) > 0.0):
                raise SchemaError(f"arm {k} mount DCM {R.tolist()} is not a "
                                  f"rotation within {DCM_TOL}")
        object.__setattr__(self, "arm_mount_dcms",
                           {k: nearest_dcm(v) for k, v in self.arm_mount_dcms.items()})

    # -- geometry helpers (hub frame, G at the origin) ----------------------

    def tile_center(self, j: int) -> np.ndarray:
        return self.hub.offset("P2") + self.layout.center(j)

    def stack_center(self) -> np.ndarray:
        return self.hub.offset("P3") + STACK_OFFSET


def table_scenario(n_tiles: int = 4, layout: Optional[TileLayout] = None,
                   array: Optional[ModalBodyData] = None,
                   **overrides) -> ScenarioConfig:
    """Scenario built from the published spacecraft tables.

    The flexible structure itself is generated by the lattice bank; only
    its tile properties and layout are inputs.  ``overrides`` replace
    :class:`ScenarioConfig` fields; the others keep their defaults there.
    """
    hub = RigidBodyData(HUB_MASS, HUB_INERTIA,
                        {"P1": GP1, "P2": GP2, "P3": GP3}, name="hub")
    if array is None:
        array = load_body_file(data_path("solar_array.yaml"))
    tile = RigidBodyData(DEFAULT_TILE_MASS, DEFAULT_TILE_INERTIA, {}, name="tile")
    robot_hub = RigidBodyData(ROBOT_HUB_MASS, ROBOT_HUB_INERTIA,
                              {f"A{k}": ARM_MOUNTS[k] for k in (1, 2, 3)},
                              name="robot_hub")
    cfg = ScenarioConfig(
        hub=hub, array=array, tile=tile,
        n_tiles=n_tiles,   # checked before the layout: no default for n < 1
        layout=layout if layout is not None else default_layout(max(n_tiles, 1)),
        arm_geometry=default_arm_geometry(), robot_hub=robot_hub,
        arm_mount_dcms=dict(ARM_MOUNT_DCMS))
    return replace(cfg, **overrides) if overrides else cfg


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

def _read(doc, block):
    """``{field: value}`` for the keys the scenario block ``block`` names,
    read through its table in ``SCENARIO_BLOCKS``."""
    return read_block(doc, SCENARIO_BLOCKS[block], block)


def _body(value, label):
    """Rigid body of the block ``label``; bad mass, inertia or ports are a
    ``SchemaError`` naming the block."""
    given = _read(value, label)
    try:
        J = _body_inertia(given)
        offsets = given.pop("port_offsets", {})
        if not isinstance(offsets, dict):
            raise SchemaError(f"ports must be a mapping, got {offsets!r}")
        offsets = {k: _floats(v, f"{label}.{k}") for k, v in offsets.items()}
        return RigidBodyData(inertia_G=J, port_offsets=offsets,
                             name=label.replace(".", "_"), **given)
    except (InvalidModalData, SchemaError) as exc:
        raise SchemaError(f"{label}: {exc}") from exc


def _structure(value, label):
    """Structure fields, the stiffness keys gathered in a ``LatticeStiffness``."""
    given = _read(value, label)
    stiffness = {k: given.pop(k) for k in ("k_trans", "k_rot", "diag_scale")
                 if k in given}
    return {**given, "stiffness": LatticeStiffness(**stiffness)} if stiffness else given


def _arm(value, label):
    """The default arm with the link data the block names; a link's joint
    offset left out is twice its CoM, as on the default arm."""
    given = _read(value, label)
    if "coms" in given:
        given.setdefault("joint_offsets", 2.0 * given["coms"])
    return replace(default_arm_geometry(), **given)


# Each block's table for :func:`~flexasm.modal.read_block`.  Only the keys a
# file names are passed on, so every default stays with the field it fills.
SCENARIO_BLOCKS = {
    "": {
        "name": ("name", None), "seed": ("seed", _count),
        "n_tiles": ("n_tiles", _count), "z_grid": ("z_grid", _count),
        "layout": ("layout", lambda v, label: TileLayout(**_read(v, label))),
        "controller": (None, _read), "uncertainty": (None, _read),
        "structure": (None, _structure), "robot": (None, _read),
        "hub": ("hub", _body), "tile": ("tile", _body),
        "solar_array_file": ("array", None)},
    "layout": {"cells": ("cells", None)},
    "controller": {"xi": ("xi_att", _real), "freq_hz": ("f_att_hz", _real)},
    "uncertainty": {"r_omega": ("r_omega", _real),
                    "mode": ("uncertain_mode", lambda v, label: _count(v, label) - 1)},
    "structure": {"n_modes": ("n_struct_modes", _count), "damping": ("xi_struct", _real),
                  "k_trans": ("k_trans", _real), "k_rot": ("k_rot", _real),
                  "diag_scale": ("diag_scale", _real),
                  "stack_reach_m": ("stack_reach", _real)},
    "hub": {**_BODY_KEYS, "ports_m": ("port_offsets", None)},
    "tile": {**_BODY_KEYS, "ports_m": ("port_offsets", None)},
    "robot": {"hub": ("robot_hub", _body),
              "mount_dcms": ("arm_mount_dcms",
                             lambda v, label: {**ARM_MOUNT_DCMS, **_read(v, label)}),
              "arm": ("arm_geometry", _arm)},
    "robot.hub": {**_BODY_KEYS, "mounts_m": ("port_offsets", None)},
    "robot.mount_dcms": {f"A{k}": (k, _floats) for k in (1, 2, 3)},
    "robot.arm": {
        "link_masses_kg": ("masses", _floats), "link_com_m": ("coms", _floats),
        "joint_offsets_m": ("joint_offsets", _floats), "joint_axes": ("joint_axes", _floats),
        "link_inertia_kgm2": ("inertias", lambda v, label: np.array(
            [j * np.eye(3) for j in _floats(v, label)]))},
}

DEFAULT_SEED = 0   # the seed of a scenario file that names none


def load_scenario(path) -> tuple:
    """Read a scenario file; returns ``(ScenarioConfig, seed)``.

    Each block is read through its table in ``SCENARIO_BLOCKS``, and only
    the keys a file names reach :func:`table_scenario`, so a minimal
    scenario is just ``n_tiles``.  A known key without its
    unit suffix (kg, m, hz, kgm2) raises ``UnitError``; any other unknown
    key, in any block, raises ``SchemaError`` naming the block and the
    key, as do a block that is not a mapping, a count that is not a YAML
    integer (``int()`` would truncate it), a boolean or a quoted string
    where a real number belongs (``float()`` would read ``true`` as 1 and
    ``"0.5"`` as 0.5) and any value a constructor rejects.  The body file
    ``solar_array_file`` names is read under the same rules by
    :func:`~flexasm.modal.load_body_file`; a relative name is looked up
    next to the scenario, then in the packaged data, and found in neither
    it raises ``ParseError`` naming it as written and both places.
    """
    path = Path(path)
    doc = load_yaml(path)
    try:
        fields = _read(doc, "")
        fields.pop("name", None)
        seed = fields.pop("seed", DEFAULT_SEED)
        if "array" in fields:
            ref = Path(fields["array"])
            if not ref.is_absolute():
                # next to the scenario, else in the packaged data
                tried = [path.parent / ref, Path(str(data_path(str(ref))))]
                ref = next((p for p in tried if p.exists()), None)
                if ref is None:
                    raise ParseError(
                        f"cannot find solar_array_file {fields['array']} next to the "
                        f"scenario ({tried[0]}) or in the packaged data ({tried[1]})")
            fields["array"] = load_body_file(ref)
        cfg = table_scenario(**fields)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return cfg, seed


# ---------------------------------------------------------------------------
# model family and attitude gains
# ---------------------------------------------------------------------------

def enumerate_model_family(N: int):
    """Every (n, j, arm, delta) variant; there are 2 N (N + 1) of them."""
    return [AssemblyState(n, j, arm, delta)
            for n in range(1, N + 1)
            for j in range(1, n + 1)
            for arm in (1, 2)
            for delta in (0, 1)]


def attitude_gains(J_tot: np.ndarray, xi_att: float, f_att_hz: float) -> np.ndarray:
    """Proportional-derivative attitude gains [k_att c_att] (3 x 6).

    ``k_att = -omega^2 J`` and ``c_att = -2 xi omega J`` with the loop
    frequency given in Hz and converted internally; the mission's damping
    and frequency are :class:`ScenarioConfig`'s ``xi_att`` and ``f_att_hz``.
    """
    w = 2.0 * np.pi * f_att_hz
    J = np.asarray(J_tot, dtype=float)
    return np.hstack([-w * w * J, -2.0 * xi_att * w * J])


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

class ScenarioModels:
    """Model factory with caches of structure data (reduced once per size
    for all its docking tiles), of two-port blocks (one per ``(n, j)``) and
    of port-exposed plants with their robot-port closures, and memos of the
    robot's mass matrix and of walking-IK solves."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self._structures = {}
        self._two_ports = {}
        self._plants = {}
        self._open = {}
        self._masses = {}
        self._reach = {}
        self._bounds = {}
        self._mounts = _mount_table(cfg)

    # -- structure supply ----------------------------------------------------

    def structure_data(self, n: int, j: int) -> ModalBodyData:
        """Modal data of ``F_n`` docked at tile ``j``: ``F_n`` is reduced
        once, for all its tiles, on the first call for ``n``."""
        if not 1 <= n <= self.cfg.n_tiles:
            raise MissingStructureData(f"no structure F_{n} in a {self.cfg.n_tiles}-tile run")
        if not 1 <= j <= n:
            raise MissingStructureData(f"docking tile {j} not part of F_{n}")
        if n not in self._structures:
            cfg = self.cfg
            lattice = build_lattice(cfg.layout.head(n), cfg.tile.mass,
                                    cfg.tile.inertia_G, cfg.stiffness)
            self._structures[n] = modal_reduce(lattice, min(cfg.n_struct_modes, 6 * n),
                                               cfg.xi_struct)
        return self._structures[n][j - 1]

    # -- open loop -------------------------------------------------------------

    def open_loop(self, state: AssemblyState, qs) -> StateSpace:
        """Plant for one assembly state and arm configuration.

        ``qs`` holds the three joint vectors (arm 1, arm 2, arm 3).  The
        array's first-mode frequency is the uncertainty channel
        ``w_omega -> z_omega``, and the hub translation is constrained at
        G (``_pin_translations``), matching the mission scope in which
        translational control is out of the loop.  Pinning puts the
        torque-channel antiresonances exactly at the appendages'
        cantilever frequencies and makes the DC gain the inverse of the
        composite inertia *about G*.

        The locked robot closes ``W_r = -M_C xdd_C`` on the cached
        port-exposed plant of :meth:`_port_plants`, through the closure
        prepared beside it: a primed loop (:meth:`_prime_open_loops`) is
        popped, else the waypoint is primed as a list of one.  ``n`` above
        the tile count raises :class:`StateInvalid`.
        """
        key = _waypoint_key(state, qs)
        if key not in self._open:
            self._prime_open_loops([key])
        return self._open.pop(key)

    def _prime_open_loops(self, waypoints) -> list:
        """Close the robot port at each ``(state, qs)`` of a list, one
        stacked closure call per ``(n, j, delta)`` plant (built by one
        :meth:`_port_plants` call), each loop with the bits of closing it
        alone, and keep it under its key ``(state, joint-angle bytes)``
        (:func:`_waypoint_key`) until :meth:`open_loop` pops it.  ``qs`` are
        the three joint vectors, or their bytes when the waypoint is a key
        already, as the planner's are.  Returns the keys, whose bytes also
        key the mass memo: they are taken once per waypoint."""
        keys = [(state, qs) if isinstance(qs, bytes) else _waypoint_key(state, qs)
                for state, qs in waypoints]
        groups = {}
        for (s, q), M in zip(keys, self._mass_matrices([(s.arm, s.delta, q) for s, q in keys])):
            groups.setdefault((s.n, s.j, s.delta), {})[s, q] = M
        self._port_plants(list(groups))
        for plant, group in groups.items():
            _, close = self._plants[plant]
            self._open.update(zip(group, close(-np.stack(list(group.values())))))
        return keys

    def _port_plants(self, keys) -> None:
        """Build and cache, for each ``(n, j, delta)`` of a list not cached
        yet, the spacecraft without the robot, with its docking port open,
        and the prepared closure of that port.

        Hub, array, tile stack and structure ``F_n`` docked at tile ``j``,
        wired and pinned (``_pin_translations``); the structure's
        two-port block is cached on ``(n, j)``, as both deltas share it;
        the rigid tile stack is the static gain ``W_P = -M_P xdd_P`` of its
        port mass matrix.  Besides the channels of :meth:`open_loop` it
        carries the robot port: input ``W_r``, the robot's wrench on the
        docking port C, and output ``xdd_C``, the acceleration twist of C.
        The gripping arm and the joint angles are not in the key: only the
        robot's mass matrix reads them.  The cache holds ``(plant, close)``,
        ``close`` the plant's :class:`~flexasm.linss.StaticClosure` of
        ``W_r = K xdd_C``.  The plants of one structure state count are
        wired in one ``linss._interconnects`` and pinned in one
        ``_pin_translations`` call, each with the bits of building it alone.
        ``n`` above the tile count raises :class:`StateInvalid` before any
        plant is built.
        """
        cfg = self.cfg
        missing = [key for key in dict.fromkeys(keys) if key not in self._plants]
        for n, _, _ in missing:
            if n > cfg.n_tiles:
                raise StateInvalid(f"state has n={n} > N={cfg.n_tiles}")
        if not missing:
            return
        hub, arr = self._fixed_blocks
        groups = {}
        for n, j, delta in missing:
            count = max(cfg.n_tiles - n - delta, 0)
            mass = count * cfg.tile.mass
            J_P = transport_inertia(count * cfg.tile.inertia_G, mass, STACK_OFFSET)
            stk = gain(-port_mass_matrix(mass, STACK_OFFSET, J_P), (("xdd_P", 6),), (("W_P", 6),))
            if (n, j) not in self._two_ports:
                self._two_ports[n, j] = titop_two_port(self.structure_data(n, j))
            fn = self._two_ports[n, j]
            groups.setdefault(fn.A.shape, []).append(
                ((n, j, delta), [("hub", hub), ("arr", arr), ("stk", stk), ("fn", fn)]))
        wiring = [
            ("hub.xdd_P1", "arr.xdd_P"), ("arr.W_P", "hub.W_P1"),
            ("hub.xdd_P3", "stk.xdd_P"), ("stk.W_P", "hub.W_P3"),
            ("hub.xdd_P2", "fn.xdd_P"), ("fn.W_P", "hub.W_P2"),
        ]
        ext_in = [("F_G", "hub.F_G"), ("T_G", "hub.T_G"), ("W_ext", "fn.W_C"),
                  (W_CHANNEL, f"arr.{W_CHANNEL}"), ("W_r", "fn.W_C")]
        ext_out = [("a_G", "hub.a_G"), ("omega_dot_G", "hub.omega_dot_G"),
                   (Z_CHANNEL, f"arr.{Z_CHANNEL}"), ("xdd_C", "fn.xdd_C")]
        for group in groups.values():
            plants = _pin_translations(_interconnects([blocks for _, blocks in group],
                                                      wiring, ext_in, ext_out))
            for (key, _), plant in zip(group, plants):
                self._plants[key] = plant, StaticClosure(plant, "W_r", "xdd_C")

    @cached_property
    def _fixed_blocks(self):
        """The hub and array blocks of every port plant, built on first use:
        neither reads ``n``, ``j`` or ``delta``."""
        cfg = self.cfg
        hub = rigid_nport(cfg.hub, ["P1", "P2", "P3"])
        hub = split_channel(hub, "W_G", [("F_G", 3), ("T_G", 3)])
        hub = split_channel(hub, "xdd_G", [("a_G", 3), ("omega_dot_G", 3)])

        arr = mode_freq_lfr(cfg.array, cfg.uncertain_mode, cfg.r_omega)
        arr = apply_frame(arr, "xdd_P", ARRAY_DCM)
        arr = apply_frame(arr, "W_P", ARRAY_DCM)
        return hub, arr

    def robot_mass_matrices(self, waypoints) -> list:
        """The locked robot's 6x6 mass matrix ``M_C`` about the docking
        port C at each ``(state, qs)`` of a list, hub frame, laid out like
        :func:`~flexasm.multibody.d_p_matrix`.

        ``M_C`` is the composite rigid mass of the three arms, the robot
        hub and the carried tile; the robot loads the port with
        ``W_C = -M_C xdd_C``.  It reads only ``state.arm``, ``state.delta``
        and the joint angles, so it is memoized on those; each returned
        array is read only and shared by every call with the same key.
        The misses of a list are weighed in one pass (:meth:`_robot_parts`),
        composed and turned into port matrices on a leading batch axis per
        ``(arm, delta)``, each with the bits of weighing it alone, which is
        the list of one.
        """
        return self._mass_matrices([_robot_key(state, qs) for state, qs in waypoints])

    def _mass_matrices(self, keys) -> list:
        """:meth:`robot_mass_matrices` of a list of :func:`_robot_key` keys."""
        missing = [key for key in dict.fromkeys(keys) if key not in self._masses]
        if missing:
            for group, parts in self._robot_parts(missing):
                m, c, J_com = compose_rigid(parts)
                Ms = port_mass_matrix(m, c, transport_inertia(J_com, m, c))
                Ms.setflags(write=False)
                self._masses.update(zip(group, Ms))
        return [self._masses[key] for key in keys]

    # -- mass properties -----------------------------------------------------

    def _robot_parts(self, keys) -> list:
        """The locked robot's parts for each distinct key of
        :func:`_robot_key` in ``keys``, as one ``(group, parts)`` pair per
        ``(arm, delta)``: ``group`` lists its keys, and ``parts`` are
        entries of :func:`~flexasm.multibody.compose_rigid` with those keys
        on a leading batch axis, hub frame, positions from the docking
        port C: the gripping arm standing on C, then the robot hub, the
        other arms and the carried tile, placed through :func:`_mount_table`
        in the gripping arm's link-5 frame.

        Every arm of every key is posed from J0 in one :func:`link_poses`
        call, gripping arms first, and the hanging arms are re-expressed
        from their J6 in one :func:`rebase_j6` call.  The mount table and
        the carried tile depend on ``(arm, delta)``, so the keys are
        grouped on it; every key keeps the bits of posing it alone.  No key
        gives no group.
        """
        if not keys:
            return []
        cfg = self.cfg
        geom = cfg.arm_geometry
        k = len(keys)
        qs = [np.frombuffer(q).reshape(3, 5) for _, _, q in keys]
        joints, rots = link_poses(geom, np.array(
            [q[arm - 1] for (arm, _, _), q in zip(keys, qs)]
            + [q[h - 1] for (arm, _, _), q in zip(keys, qs) for h in (3 - arm, 3)]))
        hang_joints, hang_rots = rebase_j6(joints[k:], rots[k:])
        hang_joints = hang_joints.reshape(k, 2, 7, 3)
        hang_rots = hang_rots.reshape(k, 2, 6, 3, 3)
        groups = {}
        for r, key in enumerate(keys):
            groups.setdefault(key[:2], []).append(r)
        out = []
        for (arm, delta), rows in groups.items():
            mounts = self._mounts[arm]
            joints_g, rots_g = joints[rows], rots[rows]
            parts = [(geom.masses, _link_coms(geom, joints_g, rots_g),
                      geom.inertias, rots_g)]

            def place(R, p):
                """A frame fixed in the gripping arm's link 5: rotation, origin."""
                return rots_g[:, 5] @ R, joints_g[:, 6] + rots_g[:, 5] @ p

            M, o = place(*mounts["hub"])
            parts.append((cfg.robot_hub.mass, o, cfg.robot_hub.inertia_G, M))
            for i, h in enumerate((3 - arm, 3)):
                M, o = place(*mounts[h])
                joints_h, rots_h = hang_joints[rows, i], hang_rots[rows, i]
                coms = o[:, None] + _link_coms(geom, joints_h, rots_h) @ np.swapaxes(M, 1, 2)
                parts.append((geom.masses, coms, geom.inertias, M[:, None] @ rots_h))
            if delta == 1:
                # the carried tile sits at arm 3's tip, in the frame of its link l0
                parts.append((cfg.tile.mass, o + (M @ joints_h[:, 0, :, None])[..., 0],
                              cfg.tile.inertia_G, M @ rots_h[:, 0]))
            out.append(([keys[r] for r in rows], parts))
        return out

    def mass_properties(self, waypoints) -> list:
        """Composite (mass, CoM, inertia at CoM) in the hub frame at each
        ``(state, qs)`` of a list.

        Pure mass bookkeeping through the kinematic chain.  The robot's
        parts are those of :meth:`robot_mass_matrices`, each distinct
        ``(arm, delta, joint angles)`` posed once for the whole list, so
        the DC reciprocity checks cover the rest of the assembly; the
        robot's mass matrix itself is checked against the wired arm chains
        by ``test_robot_block_matches_arm_chain_cluster``.  The waypoints
        of one part list, one ``(n, delta)``, are composed in one batched
        :func:`~flexasm.multibody.compose_rigid` call, each with the bits
        of composing it alone.
        """
        cfg = self.cfg
        keys = [_robot_key(state, qs) for state, qs in waypoints]
        robot = {}
        for group, parts in self._robot_parts(list(dict.fromkeys(keys))):
            for b, key in enumerate(group):
                robot[key] = [(m, c[b], J, R[b]) for m, c, J, R in parts]
        # the array's inertia moved from its port P back to its CoM
        array_J_com = transport_inertia(cfg.array.inertia_P, -cfg.array.mass,
                                        cfg.array.com)
        groups = {}
        for r, (state, _) in enumerate(waypoints):
            groups.setdefault((state.n, state.delta), []).append(r)
        out = [None] * len(waypoints)
        for (n, delta), rows in groups.items():
            parts = [(cfg.hub.mass, np.zeros(3), cfg.hub.inertia_G, None),
                     (cfg.array.mass, cfg.hub.offset("P1") + ARRAY_DCM @ cfg.array.com,
                      array_J_com, ARRAY_DCM)]
            count = max(cfg.n_tiles - n - delta, 0)
            if count > 0:
                parts.append((count * cfg.tile.mass, cfg.stack_center(),
                              count * np.asarray(cfg.tile.inertia_G), None))
            parts += [(cfg.tile.mass, cfg.tile_center(t), cfg.tile.inertia_G, None)
                      for t in range(1, n + 1)]
            # the parts shared by the group, then each waypoint's robot, on a
            # batch axis
            k = len(rows)
            parts = [(m, np.broadcast_to(c, (k, 3)), J,
                      None if R is None else np.broadcast_to(R, (k, 3, 3)))
                     for m, c, J, R in parts]
            bases = [cfg.tile_center(waypoints[r][0].j) for r in rows]
            for i, (m, _, J, _) in enumerate(robot[keys[rows[0]]]):
                parts.append((m, np.stack([base + robot[keys[r]][i][1]
                                           for base, r in zip(bases, rows)]),
                              J, np.stack([robot[keys[r]][i][3] for r in rows])))
            m, coms, Js = compose_rigid(parts)
            for r, com, J in zip(rows, coms, Js):
                out[r] = m, com, J
        return out

    def total_inertia(self, waypoints) -> list:
        """Composite inertia about the hub CoM G, hub frame, at each
        ``(state, qs)`` of a list, transported from :meth:`mass_properties`
        as one stack.

        The translation-pinned plant shows exactly the inverse of this
        tensor as its DC gain from hub torque to angular acceleration, so
        it is also the tensor the attitude gains are sized with.
        """
        if not waypoints:
            return []
        m, com, J = (np.array(x) for x in zip(*self.mass_properties(waypoints)))
        return list(transport_inertia(J, m[:, None, None], com))

    def design_gains(self) -> np.ndarray:
        """Baseline gains sized on the worst-case (largest) inertia state.

        Scans the model family at the home configuration; for disturbance
        rejection the worst case is the heaviest configuration the mission
        reaches.
        """
        home = (HOME_JOINTS,) * 3
        best = None
        for J in self.total_inertia([(cand, home) for cand
                                     in enumerate_model_family(self.cfg.n_tiles)]):
            if best is None or np.trace(J) > np.trace(best):
                best = J
        return attitude_gains(best, self.cfg.xi_att, self.cfg.f_att_hz)

    # -- combined-arm reach -----------------------------------------------

    def solve_reach(self, state: AssemblyState, reach_arm: int, target_world):
        """Joint angles ``(q_grip, q_reach)`` placing ``reach_arm``'s tip at a
        world point: :meth:`solve_reaches` of one problem, a failure raised."""
        hit = self.solve_reaches([(state, reach_arm, target_world)])[0]
        if isinstance(hit, IkNotConverged):
            raise hit
        return hit

    def solve_reaches(self, problems) -> list:
        """Walking IK of each ``(state, reach_arm, target_world)`` of a list:
        per problem ``(q_grip, q_reach)``, or the :class:`IkNotConverged`
        that :meth:`solve_reach` raises.

        Solves the 10-dof chain through the gripping arm and the robot
        hub to ``REACH_TOL``.  A target beyond the chain's closed-form reach
        bound (see :meth:`_reach_bound`) is :class:`IkUnreachable` at once,
        without any descent.  Otherwise damped least squares runs a short
        deterministic ladder of seeds: far targets can trap the descent
        from the upright home posture, so pre-bent seeds follow.  If every
        seed fails inside the bound, the failure is a seed artifact, not a
        proof, and its message says so.  The distinct misses of a list
        descend together (:meth:`_reach_solve`), each with the bits of
        solving it alone, which is the list of one.

        Solves are memoized on ``(state.j, state.arm, reach_arm, target)``,
        everything the residual reads.  ``state.n`` and ``state.delta``
        only change which bodies the plant carries, not the kinematic
        chain from the docking tile to the reaching tip, so they are left
        out of the key and the states of one walk share a solve.  A failure
        is memoized too and returned as a copy, type, message and task
        error included; the returned arrays are copies, so callers cannot
        alter a memoized solution.
        """
        keys = []
        for state, reach_arm, target_world in problems:
            if reach_arm == state.arm:
                raise StateInvalid("reach arm cannot be the gripping arm")
            target_world = np.asarray(target_world, dtype=float).reshape(3)
            keys.append((state.j, state.arm, reach_arm, target_world.tobytes()))
        missing = [key for key in dict.fromkeys(keys) if key not in self._reach]
        if missing:
            self._reach.update(zip(missing, self._reach_solve(missing)))
        out = []
        for key in keys:
            hit = self._reach[key]
            out.append(copy.copy(hit) if isinstance(hit, IkNotConverged)
                       else (hit[:5].copy(), hit[5:].copy()))
        return out

    def _reach_bound(self, g: int, reach_arm: int):
        """Fixed anchor and reach bound of the walking chain, cached.

        Returns ``(m, anchor, bound)``: J_m of the gripping arm is the
        farthest joint no angle moves (:func:`~flexasm.robot.fixed_anchor`)
        and ``anchor`` its position from the docking tile center.  From
        there the chain runs J_m..J5 of the gripping arm, a rigid segment
        J5(grip) -> J5(reach) through the two link-5 bodies and the robot
        hub, then J5..J0 of the reaching arm.  Every joint-to-joint
        distance along it is fixed, so by the triangle inequality their sum
        ``bound`` caps the tip's distance from the anchor for all joint
        angles.  It reads only ``cfg``, never the angles or the target.
        """
        key = (g, reach_arm)
        if key not in self._bounds:
            geom = self.cfg.arm_geometry
            m, anchor = fixed_anchor(geom)
            R, p = self._mounts[g][reach_arm]
            off5 = geom.joint_offsets[5]
            # J5 -> J6 of the gripping arm, on to J6 and back to J5 of the
            # reaching arm, in the gripping arm's link-5 frame
            rigid = off5 + p - R @ off5
            lengths = np.linalg.norm(geom.joint_offsets[:5], axis=1)
            bound = float(lengths[m:].sum() + np.linalg.norm(rigid)
                          + lengths.sum())
            self._bounds[key] = (m, anchor, bound)
        return self._bounds[key]

    def _reach_residual(self, problems):
        """``residual(owner, Q)``: tip-minus-target residuals of a ``(k, 10)``
        stack of ``(q_grip, q_reach)`` rows as a ``(k, 3)`` stack, row ``i``
        of problem ``owner[i]`` of a list of ``(j, g, reach_arm,
        target_world)``.

        The gripping and the reaching rows are posed from J0 in one
        :func:`link_poses` call, and the reaching rows are re-expressed from
        J6 by :func:`~flexasm.robot.rebase_j6`.  The matrix-vector products
        are taken as ``(R @ v[:, :, None])[..., 0]``, the mount product with
        one 2-D ``R`` per group of rows sharing a ``(g, reach_arm)`` mount;
        every row keeps the bits of posing it alone."""
        geom = self.cfg.arm_geometry
        base_world = np.array([self.cfg.tile_center(j) for j, _, _, _ in problems])
        target_world = np.array([t for _, _, _, t in problems], dtype=float)
        pairs = list(dict.fromkeys((g, r) for _, g, r, _ in problems))
        mount_of = np.array([pairs.index((g, r)) for _, g, r, _ in problems])
        mounts = [self._mounts[g][r] for g, r in pairs]

        def residual(owner, q10):
            k = len(q10)
            joints, rots = link_poses(geom, np.concatenate([q10[:, :5], q10[:, 5:]]))
            joints_g, rots_g = joints[:k], rots[:k]
            joints_r, _ = rebase_j6(joints[k:], rots[k:])
            on_mount = mount_of[owner]
            tip_r = np.empty((k, 3))
            for u, (R, p) in enumerate(mounts):
                rows = on_mount == u
                tip_r[rows] = p + (R @ joints_r[rows, 0, :, None])[..., 0]
            return (base_world[owner] + joints_g[:, 6]
                    + (rots_g[:, 5] @ tip_r[:, :, None])[..., 0] - target_world[owner])

        return residual

    def _reach_solve(self, keys) -> list:
        """The 10-vector ``(q_grip, q_reach)``, or the failure, behind
        :meth:`solve_reaches` for each distinct memo key of a list.

        Targets beyond the reach bound are certified one by one; the rest
        climb the seed ladder together, each rung one lockstep
        :func:`~flexasm.robot.dls_solve` of the problems still unsolved on
        one stacked residual (:meth:`_reach_residual`)."""
        tol = 0.5 * REACH_TOL
        out = [None] * len(keys)
        live = {}
        for i, (j, g, reach_arm, target) in enumerate(keys):
            m, anchor, bound = self._reach_bound(g, reach_arm)
            target = np.frombuffer(target)
            dist = float(np.linalg.norm(target - self.cfg.tile_center(j) - anchor))
            # every tip lies within bound of J_m, so its task error is >= the gap
            if dist - bound >= tol:
                out[i] = IkUnreachable(
                    f"target {dist:.6f} m from J{m} of arm {g} lies "
                    f"{dist - bound:.6e} m beyond the {bound:.6f} m reach bound "
                    f"of the chain to arm {reach_arm}")
            else:
                # the problem, its seed-artifact message and best task error
                live[i] = [(j, g, reach_arm, target),
                           f"no IK seed reached a target {dist:.6f} m from J{m} of arm "
                           f"{g}, inside the {bound:.6f} m reach bound; best task error ",
                           np.inf]

        def bent(a, b, yaw=0.0):
            return np.concatenate([[yaw, a, a, a, 0.0], [0.0, b, b, b, 0.0]])

        seeds = [np.zeros(10)]
        seeds += [bent(a, b) for a in (0.5, -0.5) for b in (0.5, -0.5)]
        seeds += [bent(0.5, -0.5, 1.5), bent(0.5, -0.5, -1.5)]
        for q0 in seeds:
            if not live:
                break
            rows = list(live)
            residual = self._reach_residual([live[i][0] for i in rows])
            solved = dls_solve(residual, np.repeat(q0[None], len(rows), axis=0),
                               -JOINT_LIMIT * np.ones(10), JOINT_LIMIT * np.ones(10),
                               tol=tol)
            for i, q in zip(rows, solved):
                if isinstance(q, IkNotConverged):
                    live[i][2] = min(live[i][2], q.task_error)
                else:
                    out[i] = q
                    del live[i]
        for i, (_, msg, best) in live.items():
            out[i] = IkNotConverged(
                f"{msg}{best:.3e}: a seed artifact, not a proof of unreachability", best)
        return out


def _mount_table(cfg: ScenarioConfig) -> dict:
    """``table[g][k] = (R, p)``: body ``k`` -- ``"hub"`` (the robot hub at
    its CoM) or another arm (its link-5 frame at its J6) -- as fixed in
    gripping arm ``g``'s link-5 frame: ``R`` rotates k's frame into it and
    ``p`` is k's origin from g's J6.  No joint angle moves either."""
    hub = cfg.robot_hub
    table = {}
    for g in (1, 2):
        to_g = cfg.arm_mount_dcms[g].T
        off_g = hub.offset(f"A{g}")
        table[g] = {"hub": (to_g, -to_g @ off_g)}
        for k in {1, 2, 3} - {g}:
            table[g][k] = (to_g @ cfg.arm_mount_dcms[k],
                           to_g @ (hub.offset(f"A{k}") - off_g))
    return table


def _waypoint_key(state: AssemblyState, qs) -> tuple:
    """What an open loop reads of a waypoint, its key: the state and the
    bytes of the (3, 5) joint angles."""
    return state, np.asarray(qs, dtype=float).tobytes()


def _robot_key(state: AssemblyState, qs) -> tuple:
    """What the locked robot's mass reads of a waypoint: the gripping arm,
    ``delta`` and the bytes of the (3, 5) joint angles."""
    return state.arm, state.delta, np.asarray(qs, dtype=float).tobytes()


def _link_coms(geom: ArmGeometry, joints, rots) -> np.ndarray:
    """The six link CoMs of a chain posed by :func:`link_poses`, or of a
    stack of chains."""
    return joints[..., :6, :] + np.einsum("...kij,kj->...ki", rots, geom.coms)


def _pin_translations(plants) -> list:
    """Constrain the hub translation of each of a list of plants with the
    same channels and shapes: close a_G = 0 and hide the constraint-force
    channel (attitude-only boundary condition), as one
    ``linss._invert_channels`` and one ``linss._subsystems`` call.  An
    empty list gives an empty list."""
    inv = _invert_channels(plants, ["F_G"], ["a_G"])
    if not inv:
        return []
    return _subsystems(inv, [c for c, _ in inv[0].out_channels if c != "F_G"],
                       [c for c, _ in inv[0].in_channels if c != "a_G"])


def close_loop(plants, K_att: np.ndarray) -> list:
    """Attitude loop around each open plant of a list, as a list of loops.

    Appends the two integrator banks (angular rate, then small-angle
    attitude), feeds back ``u = K_att [Theta; omega]``, and exposes the
    torque disturbance path ``d_t -> e_t`` with ``e_t = d_t + u`` (total
    torque entering the hub, the input-sensitivity output).  ``K_att`` is
    the 3 x 6 gain of :func:`attitude_gains`; any other shape raises
    :class:`~flexasm.errors.WidthMismatch`.

    The plants are checked systems with the same channels, such as an
    edge's open loops: each stack of equal shapes (``linss._stacks``) is
    closed in one pass of stacked arithmetic on ``(k, n, n)`` arrays,
    without re-validating the matrices, and each loop is a read-only view
    of those arrays, at its plant's index, with the bits of closing its
    plant alone.

    The states are the plant's, then ``omega_G``, then ``Theta_G``; the
    inputs are ``d_t, W_ext, w_omega`` and the outputs
    ``omega_dot_G, omega_G, Theta_G, e_t, z_omega``.
    The loop is built on the plant's matrices, each output row written
    once in that order: ``u`` reads only states, so ``T_G = d_t + u`` adds
    ``B_T K`` to the state matrix and nothing has to be inverted.
    """
    K_att = np.asarray(K_att, dtype=float)
    if K_att.shape != (3, 6):
        raise WidthMismatch(f"attitude gain must be 3 x 6, got {K_att.shape}")
    loops = [None] * len(plants)
    for part in _stacks(plants, lambda p: (p.A.shape, p.D.shape), lambda p: 8 * p.n_states ** 2):
        for i, loop in zip(part, _close_stack([plants[i] for i in part], K_att)):
            loops[i] = loop
    return loops


def _close_stack(plants, K_att: np.ndarray) -> list:
    """:func:`close_loop` of plants with the same shapes, as one stack."""
    first = plants[0]
    P_A, P_B, P_C, P_D = (np.stack([getattr(p, x) for p in plants]) for x in "ABCD")
    count, n, m = len(P_A), first.n_states, first.n_inputs
    wd, T = first.out_slice("omega_dot_G"), first.in_slice("T_G")
    # u on the closed-loop states [x; omega_G; Theta_G]
    Ku = np.hstack([np.zeros((3, n)), K_att[:, 3:], K_att[:, :3]])
    A = np.zeros((count, n + 6, n + 6))
    A[:, :n, :n] = P_A
    A[:, n:n + 3, :n] = P_C[:, wd]
    A[:, n + 3:, n:n + 3] = np.eye(3)
    B = np.concatenate([P_B, P_D[:, wd], np.zeros((count, 3, m))], axis=1)
    A += B[:, :, T] @ Ku

    ins = [("d_t", "T_G"), ("W_ext", "W_ext"), (W_CHANNEL, W_CHANNEL)]
    cols, chans = first._index(first.in_channels, [c for _, c in ins])
    k = cols.size
    # the plant's outputs on the closed-loop states and inputs
    C_p = (np.concatenate([P_C, np.zeros((count, first.n_outputs, 6))], axis=2)
           + P_D[:, :, T] @ Ku)
    D_p = P_D[:, :, cols]
    z = first.out_slice(Z_CHANNEL)
    outs = (("omega_dot_G", 3), ("omega_G", 3), ("Theta_G", 3), ("e_t", 3),
            (Z_CHANNEL, z.stop - z.start))
    rows = np.vstack([np.eye(6, n + 6, n), Ku])
    C = np.concatenate([C_p[:, wd], np.broadcast_to(rows, (count,) + rows.shape),
                        C_p[:, z]], axis=1)
    D = np.concatenate([D_p[:, wd], np.zeros((count, 6, k)),
                        np.broadcast_to(np.eye(3, k), (count, 3, k)), D_p[:, z]], axis=1)
    B = B[:, :, cols]
    for a in (A, B, C, D):
        a.setflags(write=False)
    chans = tuple((name, w) for (name, _), (_, w) in zip(ins, chans))
    return [StateSpace._unchecked(*mats, chans, outs) for mats in zip(A, B, C, D)]
