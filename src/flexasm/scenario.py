"""Complete spacecraft plant for any assembly state, plus the attitude loop.

One model instance is the stack-up of: rigid hub, flexible solar array
(with the first-mode frequency pulled out as an uncertainty channel),
rigid tile stack, the flexible structure built so far, and the three-arm
robot gripping a docking tile -- optionally carrying one tile -- with the
hub translation pinned at G, as translational control is out of the
loop.  The robot walks with arms 1 and 2; arm 3 only handles tiles.

All wired port signals are expressed in the hub frame.  The plant is
evaluated only at trajectory waypoints, where every joint is locked, so
the robot -- three arms, its central hub and the carried tile -- is one
rigid body standing on the structure's docking port: a static gain
``W_C = -M_C(q) xdd_C``.  The robot hub and the hanging arms sit at fixed
places in the gripping arm's link 5: one mount table places them for
``M_C``, the walking IK and its reach bound, and
:func:`flexasm.multibody.compose_rigid` sums the parts in one pass, the
links of all three arms posed from J0 in one :func:`flexasm.robot.link_poses`
call and the hanging arms re-expressed from J6
(:func:`flexasm.robot.rebase_j6`); the walking IK's residual poses its
gripping and reaching rows the same way.  Only ``M_C``
reads the gripping arm and the joint angles, and it is memoized on
``(arm, delta, joint angles)``: waypoints repeat across structure sizes
and every home waypoint of one ``(arm, delta)`` is the same.  The rest of
the spacecraft -- hub, array, tile stack and structure, its hub
translation pinned -- is wired once per ``(n, j, delta)`` with the robot
port left open and cached, from hub and array blocks built once per
scenario.  Beside each cached plant sits its prepared robot-port closure
(:class:`flexasm.linss.StaticClosure`), so a waypoint's open loop is one
6x6 solve and a few products on operands gathered once, and the loop
closure and the attitude loop are built without re-validating
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
no algebraic loop has to be solved.  :func:`close_loop` closes one plant,
or a list of plants (the open loops of one leg of a trajectory) in one
pass of stacked arithmetic.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    IkNotConverged,
    IkUnreachable,
    MissingStructureData,
    SchemaError,
    StateInvalid,
    WidthMismatch,
)
from .linss import StateSpace, StaticClosure, interconnect, split_channel
from .modal import (
    DEFAULT_DAMPING,
    DEFAULT_TILE_INERTIA,
    DEFAULT_TILE_MASS,
    LatticeStiffness,
    TileLayout,
    build_lattice,
    default_layout,
    load_body_file,
    modal_reduce,
)
from .multibody import (
    Dcm,
    ModalBodyData,
    RigidBodyData,
    apply_frame,
    compose_rigid,
    mode_freq_lfr,
    nearest_dcm,
    port_mass_matrix,
    rigid_nport,
    titop_one_port,
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
    out-of-range numbers, a mount-DCM table that does not name exactly
    arms 1..3, and a mount DCM more than ``DCM_TOL`` off a rotation raise
    ``SchemaError``."""

    hub: RigidBodyData
    array: ModalBodyData
    array_dcm: np.ndarray
    tile: RigidBodyData
    n_tiles: int
    layout: TileLayout
    arm_geometry: ArmGeometry
    robot_hub: RigidBodyData
    arm_mount_dcms: dict
    stack_offset: np.ndarray
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
                ("controller xi", c.xi_att, c.xi_att > 0.0, "> 0"),
                ("controller freq_hz", c.f_att_hz, 0.0 < c.f_att_hz < np.inf,
                 "finite and > 0"),
                ("structure n_modes", c.n_struct_modes, c.n_struct_modes >= 0, ">= 0"),
                ("structure damping", c.xi_struct, 0.0 < c.xi_struct < 1.0, "in (0, 1)"),
                ("stack_reach", c.stack_reach, c.stack_reach > 0.0, "> 0"),
                ("k_trans", k.k_trans, k.k_trans > 0.0, "> 0"),
                ("k_rot", k.k_rot, k.k_rot > 0.0, "> 0"),
                ("diag_scale", k.diag_scale, k.diag_scale >= 0.0, ">= 0")]:
            if not ok:
                raise SchemaError(f"{name} = {value} must be {want}")
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
                           {k: nearest_dcm(v).R for k, v in self.arm_mount_dcms.items()})
        object.__setattr__(self, "array_dcm", nearest_dcm(self.array_dcm).R)

    # -- geometry helpers (hub frame, G at the origin) ----------------------

    def tile_center(self, j: int) -> np.ndarray:
        return self.hub.offset("P2") + self.layout.center(j)

    def stack_center(self) -> np.ndarray:
        return self.hub.offset("P3") + self.stack_offset


def table_scenario(n_tiles: int = 4, layout: Optional[TileLayout] = None,
                   array: Optional[ModalBodyData] = None,
                   **overrides) -> ScenarioConfig:
    """Scenario built from the published spacecraft tables.

    The flexible structure itself is generated by the lattice bank; only
    its tile properties and layout are inputs.  ``overrides`` replace
    :class:`ScenarioConfig` fields; the others keep their defaults there.
    """
    from . import data_path

    hub = RigidBodyData(HUB_MASS, HUB_INERTIA,
                        {"P1": GP1, "P2": GP2, "P3": GP3}, name="hub")
    if array is None:
        array = load_body_file(data_path("solar_array.yaml"))
    tile = RigidBodyData(DEFAULT_TILE_MASS, DEFAULT_TILE_INERTIA, {}, name="tile")
    robot_hub = RigidBodyData(ROBOT_HUB_MASS, ROBOT_HUB_INERTIA,
                              {f"A{k}": ARM_MOUNTS[k] for k in (1, 2, 3)},
                              name="robot_hub")
    cfg = ScenarioConfig(
        hub=hub, array=array, array_dcm=ARRAY_DCM, tile=tile,
        n_tiles=n_tiles,   # checked before the layout: no default for n < 1
        layout=layout if layout is not None else default_layout(max(n_tiles, 1)),
        arm_geometry=default_arm_geometry(), robot_hub=robot_hub,
        arm_mount_dcms=dict(ARM_MOUNT_DCMS), stack_offset=STACK_OFFSET)
    return replace(cfg, **overrides) if overrides else cfg


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
    """Model factory with a per-size cache of generated structure data,
    a cache of port-exposed plants with their robot-port closures, and
    memos of the robot's mass matrix and of walking-IK solves."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self._lattices = {}
        self._modal = {}
        self._plants = {}
        self._masses = {}
        self._reach = {}
        self._bounds = {}
        self._mounts = _mount_table(cfg)

    # -- structure supply ----------------------------------------------------

    def structure_data(self, n: int, j: int) -> ModalBodyData:
        if not 1 <= n <= self.cfg.n_tiles:
            raise MissingStructureData(f"no structure F_{n} in a {self.cfg.n_tiles}-tile run")
        if not 1 <= j <= n:
            raise MissingStructureData(f"docking tile {j} not part of F_{n}")
        key = (n, j)
        if key not in self._modal:
            if n not in self._lattices:
                self._lattices[n] = build_lattice(
                    self.cfg.layout.head(n), self.cfg.tile.mass,
                    self.cfg.tile.inertia_G, self.cfg.stiffness)
            n_modes = min(self.cfg.n_struct_modes, 6 * n)
            self._modal[key] = modal_reduce(self._lattices[n], j, n_modes,
                                            self.cfg.xi_struct)
        return self._modal[key]

    # -- open loop -------------------------------------------------------------

    def open_loop(self, state: AssemblyState, qs) -> StateSpace:
        """Plant for one assembly state and arm configuration.

        ``qs`` holds the three joint vectors (arm 1, arm 2, arm 3).  The
        array's first-mode frequency is the uncertainty channel
        ``w_omega -> z_omega``, and the hub translation is constrained at
        G (:func:`pin_translation`), matching the mission scope in which
        translational control is out of the loop.  Pinning puts the
        torque-channel antiresonances exactly at the appendages'
        cantilever frequencies and makes the DC gain the inverse of the
        composite inertia *about G*.

        The locked robot closes ``W_r = -M_C xdd_C`` on the cached
        port-exposed plant of :meth:`_port_plant`, through the closure
        prepared beside it.
        """
        if state.n > self.cfg.n_tiles:
            raise StateInvalid(f"state has n={state.n} > N={self.cfg.n_tiles}")
        _, close = self._port_plant(state.n, state.j, state.delta)
        return close(-self.robot_mass_matrix(state, qs))

    def _port_plant(self, n: int, j: int, delta: int):
        """The spacecraft without the robot, with its docking port open,
        and the prepared closure of that port.

        Hub, array, tile stack and structure ``F_n`` docked at tile ``j``,
        wired once, pinned (:func:`pin_translation`) and cached on
        ``(n, j, delta)``.  Besides the channels of :meth:`open_loop` it
        carries the robot port: input ``W_r``, the robot's wrench on the
        docking port C, and output ``xdd_C``, the acceleration twist of C.
        The gripping arm and the joint angles are not in the key: only the
        robot's mass matrix reads them.  Returns ``(plant, close)``, where
        ``close`` is the plant's :class:`~flexasm.linss.StaticClosure` of
        ``W_r = K xdd_C``, cached with it.
        """
        key = (n, j, delta)
        if key in self._plants:
            return self._plants[key]
        cfg = self.cfg
        hub, arr = self._fixed_blocks

        count = max(cfg.n_tiles - n - delta, 0)
        stk = titop_one_port(ModalBodyData(
            mass=count * cfg.tile.mass, com=cfg.stack_offset,
            inertia_P=transport_inertia(count * np.asarray(cfg.tile.inertia_G),
                                        count * cfg.tile.mass, cfg.stack_offset),
            freqs=[], dampings=[], L_P=np.zeros((0, 6)), name="stack"))

        fn = titop_two_port(self.structure_data(n, j))

        blocks = [("hub", hub), ("arr", arr), ("stk", stk), ("fn", fn)]
        wiring = [
            ("hub.xdd_P1", "arr.xdd_P"), ("arr.W_P", "hub.W_P1"),
            ("hub.xdd_P3", "stk.xdd_P"), ("stk.W_P", "hub.W_P3"),
            ("hub.xdd_P2", "fn.xdd_P"), ("fn.W_P", "hub.W_P2"),
        ]
        ext_in = [("F_G", "hub.F_G"), ("T_G", "hub.T_G"), ("W_ext", "fn.W_C"),
                  ("w_omega", "arr.w_omega"), ("W_r", "fn.W_C")]
        ext_out = [("a_G", "hub.a_G"), ("omega_dot_G", "hub.omega_dot_G"),
                   ("z_omega", "arr.z_omega"), ("xdd_C", "fn.xdd_C")]

        plant = pin_translation(interconnect(blocks, wiring, ext_in, ext_out))
        self._plants[key] = plant, StaticClosure(plant, "W_r", "xdd_C")
        return self._plants[key]

    @cached_property
    def _fixed_blocks(self):
        """The hub and array blocks of every port plant, built on first use:
        neither reads ``n``, ``j`` or ``delta``."""
        cfg = self.cfg
        hub = rigid_nport(cfg.hub, ["P1", "P2", "P3"])
        hub = split_channel(hub, "W_G", [("F_G", 3), ("T_G", 3)])
        hub = split_channel(hub, "xdd_G", [("a_G", 3), ("omega_dot_G", 3)])

        arr = mode_freq_lfr(cfg.array, cfg.uncertain_mode, cfg.r_omega)
        arr = apply_frame(arr, "xdd_P", Dcm(cfg.array_dcm))
        arr = apply_frame(arr, "W_P", Dcm(cfg.array_dcm))
        return hub, arr

    def robot_mass_matrix(self, state: AssemblyState, qs) -> np.ndarray:
        """The locked robot's 6x6 mass matrix ``M_C`` about the docking
        port C, hub frame, laid out like :func:`~flexasm.multibody.d_p_matrix`.

        ``M_C`` is the composite rigid mass of the three arms, the robot
        hub and the carried tile; the robot loads the port with
        ``W_C = -M_C xdd_C``.  It reads only ``state.arm``, ``state.delta``
        and the joint angles, so it is memoized on those; the returned
        array is read only and shared by every call with the same key.
        """
        key = (state.arm, state.delta, np.asarray(qs, dtype=float).tobytes())
        M = self._masses.get(key)
        if M is None:
            m, c, J_com = compose_rigid(self._robot_parts(state, qs))
            M = port_mass_matrix(m, c, transport_inertia(J_com, m, c))
            M.setflags(write=False)
            self._masses[key] = M
        return M

    # -- mass properties -----------------------------------------------------

    def _robot_parts(self, state: AssemblyState, qs) -> list:
        """The locked robot's parts as stacked entries of
        :func:`~flexasm.multibody.compose_rigid`, hub frame, positions from
        the docking port C: the gripping arm standing on C, then the robot
        hub, the other arms and the carried tile, placed through
        :func:`_mount_table` in the gripping arm's link-5 frame."""
        cfg = self.cfg
        geom = cfg.arm_geometry
        mounts = self._mounts[state.arm]
        hanging = (3 - state.arm, 3)
        # every arm posed from J0 in one call, the hanging ones re-expressed
        # from their J6
        joints, rots = link_poses(geom, np.array(
            [qs[state.arm - 1]] + [qs[k - 1] for k in hanging], dtype=float))
        poses = rebase_j6(joints[1:], rots[1:])
        joints, rots = joints[0], rots[0]
        parts = [(geom.masses, _link_coms(geom, joints, rots), geom.inertias,
                  rots)]

        def place(R, p):
            """A frame fixed in the gripping arm's link 5: rotation, origin."""
            return rots[5] @ R, joints[6] + rots[5] @ p

        M, o = place(*mounts["hub"])
        parts.append((cfg.robot_hub.mass, o, cfg.robot_hub.inertia_G, M))
        for k, joints_k, rots_k in zip(hanging, *poses):
            M, o = place(*mounts[k])
            coms = o + _link_coms(geom, joints_k, rots_k) @ M.T
            parts.append((geom.masses, coms, geom.inertias, M @ rots_k))
        if state.delta == 1:
            # the carried tile sits at arm 3's tip, in the frame of its link l0
            parts.append((cfg.tile.mass, o + M @ joints_k[0],
                          cfg.tile.inertia_G, M @ rots_k[0]))
        return parts

    def mass_properties(self, state: AssemblyState, qs):
        """Composite (mass, CoM, inertia at CoM) in the hub frame.

        Pure mass bookkeeping through the kinematic chain.  The robot's
        parts are shared with :meth:`robot_mass_matrix`, so the DC
        reciprocity checks cover the rest of the assembly; the robot's
        mass matrix itself is checked against the wired arm chains by
        ``test_robot_block_matches_arm_chain_cluster``.
        """
        cfg = self.cfg
        # the array's inertia moved from its port P back to its CoM
        array_J_com = transport_inertia(cfg.array.inertia_P, -cfg.array.mass,
                                        cfg.array.com)
        parts = [
            (cfg.hub.mass, np.zeros(3), cfg.hub.inertia_G, None),
            (cfg.array.mass, cfg.hub.offset("P1") + cfg.array_dcm @ cfg.array.com,
             array_J_com, cfg.array_dcm),
        ]
        count = max(cfg.n_tiles - state.n - state.delta, 0)
        if count > 0:
            parts.append((count * cfg.tile.mass, cfg.stack_center(),
                          count * np.asarray(cfg.tile.inertia_G), None))
        for t in range(1, state.n + 1):
            parts.append((cfg.tile.mass, cfg.tile_center(t),
                          cfg.tile.inertia_G, None))
        base = cfg.tile_center(state.j)
        parts += [(m, base + c, J, R)
                  for m, c, J, R in self._robot_parts(state, qs)]
        return compose_rigid(parts)

    def total_inertia(self, state: AssemblyState, qs) -> np.ndarray:
        """Composite inertia about the hub CoM G, hub frame.

        The translation-pinned plant shows exactly the inverse of this
        tensor as its DC gain from hub torque to angular acceleration, so
        it is also the tensor the attitude gains are sized with.
        """
        m, com, J_com = self.mass_properties(state, qs)
        return transport_inertia(J_com, m, com)

    def closed_loop(self, state: AssemblyState, qs, K_att: np.ndarray) -> StateSpace:
        return close_loop(self.open_loop(state, qs), K_att)

    def design_gains(self) -> np.ndarray:
        """Baseline gains sized on the worst-case (largest) inertia state.

        Scans the model family at the home configuration; for disturbance
        rejection the worst case is the heaviest configuration the mission
        reaches.
        """
        home = (HOME_JOINTS,) * 3
        best = None
        for cand in enumerate_model_family(self.cfg.n_tiles):
            J = self.total_inertia(cand, home)
            if best is None or np.trace(J) > np.trace(best):
                best = J
        return attitude_gains(best, self.cfg.xi_att, self.cfg.f_att_hz)

    # -- combined-arm reach -----------------------------------------------

    def solve_reach(self, state: AssemblyState, reach_arm: int, target_world):
        """Joint angles placing ``reach_arm``'s tip at a world point.

        Solves the 10-dof chain through the gripping arm and the robot
        hub to ``REACH_TOL``; returns ``(q_grip, q_reach)``.  A target
        beyond the chain's closed-form reach bound (see
        :meth:`_reach_bound`) raises :class:`IkUnreachable` at once,
        without any descent.  Otherwise damped least squares runs a short
        deterministic ladder of seeds: far targets can trap the descent
        from the upright home posture, so pre-bent seeds follow.  If every
        seed fails inside the bound, the failure is a seed artifact, not a
        proof, and its :class:`IkNotConverged` message says so.

        Solves are memoized on ``(state.j, state.arm, reach_arm, target)``,
        everything the residual reads.  ``state.n`` and ``state.delta``
        only change which bodies the plant carries, not the kinematic
        chain from the docking tile to the reaching tip, so they are left
        out of the key and the states of one walk share a solve.  A
        failure is memoized too and raised again as a copy of the same
        exception, type and message included; the returned arrays are
        copies, so callers cannot alter a memoized solution.
        """
        if reach_arm == state.arm:
            raise StateInvalid("reach arm cannot be the gripping arm")
        target_world = np.asarray(target_world, dtype=float).reshape(3)
        key = (state.j, state.arm, reach_arm, target_world.tobytes())
        hit = self._reach.get(key)
        if hit is None:
            try:
                hit = self._reach_solve(state.j, state.arm, reach_arm,
                                        target_world)
            except IkNotConverged as exc:
                hit = exc
            self._reach[key] = hit
        if isinstance(hit, IkNotConverged):
            raise copy.copy(hit)
        return hit[:5].copy(), hit[5:].copy()

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

    def _reach_residual(self, j: int, g: int, reach_arm: int, target_world):
        """Tip-minus-target residuals of a ``(k, 10)`` stack of
        ``(q_grip, q_reach)`` rows, as a ``(k, 3)`` stack.

        The gripping rows and the reaching rows are posed from J0 in one
        :func:`link_poses` call, and the reaching rows are re-expressed
        from J6 by :func:`~flexasm.robot.rebase_j6`.  The matrix-vector
        products are taken as ``(R @ v[:, :, None])[..., 0]``; every row
        keeps the bits of posing it alone."""
        geom = self.cfg.arm_geometry
        base_world = self.cfg.tile_center(j)
        R, p = self._mounts[g][reach_arm]

        def residual(q10):
            k = len(q10)
            joints, rots = link_poses(geom, np.concatenate([q10[:, :5], q10[:, 5:]]))
            joints_g, rots_g = joints[:k], rots[:k]
            joints_r, _ = rebase_j6(joints[k:], rots[k:])
            tip_r = p + (R @ joints_r[:, 0, :, None])[..., 0]
            return (base_world + joints_g[:, 6]
                    + (rots_g[:, 5] @ tip_r[:, :, None])[..., 0] - target_world)

        return residual

    def _reach_solve(self, j: int, g: int, reach_arm: int,
                     target_world) -> np.ndarray:
        """The 10-vector ``(q_grip, q_reach)`` behind :meth:`solve_reach`."""
        tol = 0.5 * REACH_TOL
        m, anchor, bound = self._reach_bound(g, reach_arm)
        dist = float(np.linalg.norm(target_world - self.cfg.tile_center(j)
                                    - anchor))
        # every tip lies within bound of J_m, so its task error is >= the gap
        if dist - bound >= tol:
            raise IkUnreachable(
                f"target {dist:.6f} m from J{m} of arm {g} lies "
                f"{dist - bound:.6e} m beyond the {bound:.6f} m reach bound "
                f"of the chain to arm {reach_arm}")
        residual = self._reach_residual(j, g, reach_arm, target_world)

        def bent(a, b, yaw=0.0):
            return np.concatenate([[yaw, a, a, a, 0.0], [0.0, b, b, b, 0.0]])

        seeds = [np.zeros(10)]
        seeds += [bent(a, b) for a in (0.5, -0.5) for b in (0.5, -0.5)]
        seeds += [bent(0.5, -0.5, 1.5), bent(0.5, -0.5, -1.5)]
        best = np.inf
        for q0 in seeds:
            try:
                return dls_solve(residual, q0, -JOINT_LIMIT * np.ones(10),
                                 JOINT_LIMIT * np.ones(10), tol=tol)
            except IkNotConverged as exc:
                best = min(best, exc.task_error)
        raise IkNotConverged(
            f"no IK seed reached a target {dist:.6f} m from J{m} of arm {g}, "
            f"inside the {bound:.6f} m reach bound; best task error "
            f"{best:.3e}: a seed artifact, not a proof of unreachability",
            best)


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


def _link_coms(geom: ArmGeometry, joints, rots) -> np.ndarray:
    """The six link CoMs of a chain posed by :func:`link_poses`."""
    return joints[:6] + np.einsum("kij,kj->ki", rots, geom.coms)


def pin_translation(plant: StateSpace) -> StateSpace:
    """Constrain the hub translation: close a_G = 0 and hide the
    constraint-force channel (attitude-only boundary condition)."""
    from .linss import invert_channels

    inv = invert_channels(plant, ["F_G"], ["a_G"])
    return inv.subsystem(
        outputs=[c for c, _ in inv.out_channels if c != "F_G"],
        inputs=[c for c, _ in inv.in_channels if c != "a_G"])


def close_loop(plant, K_att: np.ndarray):
    """Attitude loop around an open plant, or around each plant of a list.

    Appends the two integrator banks (angular rate, then small-angle
    attitude), feeds back ``u = K_att [Theta; omega]``, and exposes the
    torque disturbance path ``d_t -> e_t`` with ``e_t = d_t + u`` (total
    torque entering the hub, the input-sensitivity output).  ``K_att`` is
    the 3 x 6 gain of :func:`attitude_gains`; any other shape raises
    :class:`~flexasm.errors.WidthMismatch`.  ``plant`` is a checked
    system, so the loop is built without re-validating its matrices.

    ``plant`` may also be a list of plants with the same shapes and
    channels, such as the open loops of one leg: they are closed in one
    pass of stacked arithmetic on ``(k, n, n)`` arrays, and the result is
    a list of loops, read-only views of those arrays, each with the bits
    of closing its plant alone, which is the list of one.

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
    if isinstance(plant, StateSpace):
        return _close_loops([plant], K_att)[0]
    return _close_loops(plant, K_att)


def _close_loops(plants, K_att: np.ndarray) -> list:
    """:func:`close_loop` of a list of plants, as a list: the one body of
    both forms, so each ``close_loop`` call is one call."""
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

    ins = [("d_t", "T_G"), ("W_ext", "W_ext"), ("w_omega", "w_omega")]
    cols, chans = first._index(first.in_channels, [c for _, c in ins])
    k = cols.size
    # the plant's outputs on the closed-loop states and inputs
    C_p = (np.concatenate([P_C, np.zeros((count, first.n_outputs, 6))], axis=2)
           + P_D[:, :, T] @ Ku)
    D_p = P_D[:, :, cols]
    z = first.out_slice("z_omega")
    outs = (("omega_dot_G", 3), ("omega_G", 3), ("Theta_G", 3), ("e_t", 3),
            ("z_omega", z.stop - z.start))
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
