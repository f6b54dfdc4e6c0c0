"""Complete spacecraft plant for any assembly state, plus the attitude loop.

One model instance is the free-floating stack-up of: rigid hub, flexible
solar array (with the first-mode frequency pulled out as an uncertainty
channel), rigid tile stack, the flexible structure built so far, and the
three-arm robot gripping a docking tile -- optionally carrying one tile.
The robot walks with arms 1 and 2; arm 3 only handles tiles.

All wired port signals are expressed in the hub frame.  The plant is
evaluated only at trajectory waypoints, where every joint is locked, so
the robot -- three arms, its central hub and the carried tile -- is one
rigid body standing on the structure's docking port: a static gain
``W_C = -M_C(q) xdd_C``.  The robot hub and the hanging arms sit at fixed
places in the gripping arm's link 5: one mount table places them for
``M_C``, the walking IK and its reach bound, and
:func:`flexasm.multibody.compose_rigid` sums the parts, each arm's links
stacked from :func:`flexasm.robot.link_poses`, in one pass.  Only ``M_C``
reads the gripping arm and the joint angles.  The rest of the
spacecraft -- hub, array, tile stack and structure, pinned or not -- is
wired once per ``(n, j, delta)`` variant with the robot port left open
and cached; each waypoint closes the robot's gain on the cached plant's
matrices (:func:`flexasm.linss.close_static`).  The independent
reference for ``M_C`` lives in the tests (``tests/wired.py``): the robot
wired link by link from port-based arm chains and a port-inverted hub,
beside the fully wired plant, the reference for the cached one.

External channels of the open-loop plant:

    inputs  F_G, T_G (hub force/torque), W_ext (wrench at the docking
            port), w_omega (uncertainty);
    outputs a_G, omega_dot_G, z_omega.

Closing the attitude loop adds the integrator banks (omega_G, Theta_G),
the torque disturbance d_t, and the total actuation torque e_t = d_t + u
whose transfer from d_t is the classical input sensitivity.  The loop is
built on the plant's matrices: ``u`` reads only the integrator states, so
no algebraic loop has to be solved.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
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
from .linss import StateSpace, close_static, gain, interconnect, split_channel
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
    pitch: float = 1.0
    stack_reach: float = 1.5
    name: str = "scenario"

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
        return self.hub.offset("P2") + self.layout.center(j, self.pitch)

    def stack_center(self) -> np.ndarray:
        return self.hub.offset("P3") + self.stack_offset


def table_scenario(n_tiles: int = 4, layout: Optional[TileLayout] = None,
                   z_grid: int = 7, n_struct_modes: int = 4,
                   array: Optional[ModalBodyData] = None,
                   **overrides) -> ScenarioConfig:
    """Scenario built from the published spacecraft tables.

    The flexible structure itself is generated by the lattice bank; only
    its tile properties and layout are inputs.
    """
    from . import data_path

    if not n_tiles >= 1:
        raise SchemaError(f"n_tiles = {n_tiles} must be >= 1")
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
        n_tiles=n_tiles,
        layout=layout if layout is not None else default_layout(n_tiles),
        arm_geometry=default_arm_geometry(), robot_hub=robot_hub,
        arm_mount_dcms=dict(ARM_MOUNT_DCMS), stack_offset=STACK_OFFSET,
        z_grid=z_grid, n_struct_modes=n_struct_modes, name=f"table_N{n_tiles}")
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


def attitude_gains(J_tot: np.ndarray, xi_att: float = 1.0,
                   f_att_hz: float = 0.01) -> np.ndarray:
    """Proportional-derivative attitude gains [k_att c_att] (3 x 6).

    ``k_att = -omega^2 J`` and ``c_att = -2 xi omega J`` with the loop
    frequency given in Hz and converted internally.
    """
    w = 2.0 * np.pi * f_att_hz
    J = np.asarray(J_tot, dtype=float)
    return np.hstack([-w * w * J, -2.0 * xi_att * w * J])


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

class ScenarioModels:
    """Model factory with a per-size cache of generated structure data,
    a cache of port-exposed plants and a memo of walking-IK solves."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self._lattices = {}
        self._modal = {}
        self._plants = {}
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
                    self.cfg.tile.inertia_G, self.cfg.stiffness, self.cfg.pitch)
            n_modes = min(self.cfg.n_struct_modes, 6 * n)
            self._modal[key] = modal_reduce(self._lattices[n], j, n_modes,
                                            self.cfg.xi_struct)
        return self._modal[key]

    # -- open loop -------------------------------------------------------------

    def open_loop(self, state: AssemblyState, qs, rigid: bool = False,
                  pinned: bool = True) -> StateSpace:
        """Plant for one assembly state and arm configuration.

        ``qs`` holds the three joint vectors (arm 1, arm 2, arm 3).  With
        ``rigid=True`` every flexible body is replaced by its rigid block
        and the uncertainty channels become a zero passthrough, which is
        the model the attitude gains are designed against.

        Attitude analysis uses the translation-pinned variant (default):
        the hub translation is constrained at G, matching the mission
        scope in which translational control is out of the loop.  Pinning
        puts the torque-channel antiresonances exactly at the appendages'
        cantilever frequencies and makes the DC gain the inverse of the
        composite inertia *about G*.  ``pinned=False`` returns the free-
        floating plant with its ``F_G``/``a_G`` channels, whose DC gain is
        instead set by the inertia about the composite CoM.

        The locked robot closes ``W_r = -M_C xdd_C`` on the cached
        port-exposed plant of :meth:`_port_plant`.
        """
        if state.n > self.cfg.n_tiles:
            raise StateInvalid(f"state has n={state.n} > N={self.cfg.n_tiles}")
        plant = self._port_plant(state.n, state.j, state.delta, rigid, pinned)
        return close_static(plant, -self.robot_mass_matrix(state, qs),
                            "W_r", "xdd_C")

    def _port_plant(self, n: int, j: int, delta: int, rigid: bool,
                    pinned: bool) -> StateSpace:
        """The spacecraft without the robot, with its docking port open.

        Hub, array, tile stack and structure ``F_n`` docked at tile ``j``,
        wired once and cached on ``(n, j, delta, rigid, pinned)``; pinning
        (:func:`pin_translation`) is applied here, once.  Besides the
        channels of :meth:`open_loop` it carries the robot port: input
        ``W_r``, the robot's wrench on the docking port C, and output
        ``xdd_C``, the acceleration twist of C.  The gripping arm and the
        joint angles are not in the key: only the robot's mass matrix
        reads them.
        """
        key = (n, j, delta, rigid, pinned)
        if key in self._plants:
            return self._plants[key]
        cfg = self.cfg
        hub = rigid_nport(cfg.hub, ["P1", "P2", "P3"])
        hub = split_channel(hub, "W_G", [("F_G", 3), ("T_G", 3)])
        hub = split_channel(hub, "xdd_G", [("a_G", 3), ("omega_dot_G", 3)])

        if rigid:
            arr_data = replace_modes(cfg.array, 0)
            arr = titop_one_port(arr_data)
            wz = gain(np.zeros((2, 2)), (("w_omega", 2),), (("z_omega", 2),))
        else:
            arr = mode_freq_lfr(cfg.array, cfg.uncertain_mode, cfg.r_omega)
            wz = None
        arr = apply_frame(arr, "xdd_P", Dcm(cfg.array_dcm))
        arr = apply_frame(arr, "W_P", Dcm(cfg.array_dcm))

        count = max(cfg.n_tiles - n - delta, 0)
        stk = titop_one_port(ModalBodyData(
            mass=count * cfg.tile.mass, com=cfg.stack_offset,
            inertia_P=transport_inertia(count * np.asarray(cfg.tile.inertia_G),
                                        count * cfg.tile.mass, cfg.stack_offset),
            freqs=[], dampings=[], L_P=np.zeros((0, 6)), name="stack"))

        sdata = self.structure_data(n, j)
        if rigid:
            sdata = replace_modes(sdata, 0)
        fn = titop_two_port(sdata)

        blocks = [("hub", hub), ("arr", arr), ("stk", stk), ("fn", fn)]
        wiring = [
            ("hub.xdd_P1", "arr.xdd_P"), ("arr.W_P", "hub.W_P1"),
            ("hub.xdd_P3", "stk.xdd_P"), ("stk.W_P", "hub.W_P3"),
            ("hub.xdd_P2", "fn.xdd_P"), ("fn.W_P", "hub.W_P2"),
        ]

        ext_in = [("F_G", "hub.F_G"), ("T_G", "hub.T_G"), ("W_ext", "fn.W_C")]
        ext_out = [("a_G", "hub.a_G"), ("omega_dot_G", "hub.omega_dot_G")]
        if wz is None:
            ext_in.append(("w_omega", "arr.w_omega"))
            ext_out.append(("z_omega", "arr.z_omega"))
        else:
            blocks.append(("wz", wz))
            ext_in.append(("w_omega", "wz.w_omega"))
            ext_out.append(("z_omega", "wz.z_omega"))
        ext_in.append(("W_r", "fn.W_C"))
        ext_out.append(("xdd_C", "fn.xdd_C"))

        plant = interconnect(blocks, wiring, ext_in, ext_out)
        self._plants[key] = pin_translation(plant) if pinned else plant
        return self._plants[key]

    def robot_mass_matrix(self, state: AssemblyState, qs) -> np.ndarray:
        """The locked robot's 6x6 mass matrix ``M_C`` about the docking
        port C, hub frame, laid out like :func:`~flexasm.multibody.d_p_matrix`.

        ``M_C`` is the composite rigid mass of the three arms, the robot
        hub and the carried tile; the robot loads the port with
        ``W_C = -M_C xdd_C``.
        """
        m, c, J_com = compose_rigid(self._robot_parts(state, qs))
        return port_mass_matrix(m, c, transport_inertia(J_com, m, c))

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
        joints, rots = link_poses(geom, qs[state.arm - 1], base="J0")
        parts = [(geom.masses, _link_coms(geom, joints, rots), geom.inertias,
                  rots)]

        def place(R, p):
            """A frame fixed in the gripping arm's link 5: rotation, origin."""
            return rots[5] @ R, joints[6] + rots[5] @ p

        M, o = place(*mounts["hub"])
        parts.append((cfg.robot_hub.mass, o, cfg.robot_hub.inertia_G, M))
        for k in (3 - state.arm, 3):
            M, o = place(*mounts[k])
            joints_k, rots_k = link_poses(geom, qs[k - 1], base="J6")
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
        it is also the tensor the attitude gains are sized with.  (The
        free-floating variant's DC gain is instead the inverse of the
        inertia about the composite CoM, available from
        :meth:`mass_properties`.)
        """
        m, com, J_com = self.mass_properties(state, qs)
        return transport_inertia(J_com, m, com)

    def closed_loop(self, state: AssemblyState, qs, K_att: np.ndarray,
                    rigid: bool = False, pinned: bool = True) -> StateSpace:
        return close_loop(self.open_loop(state, qs, rigid=rigid, pinned=pinned),
                          K_att)

    def design_gains(self, state: Optional[AssemblyState] = None,
                     qs=None) -> np.ndarray:
        """Baseline gains sized on the worst-case (largest) inertia state.

        Scans the model family at the home configuration when no state is
        given; for disturbance rejection the worst case is the heaviest
        configuration the mission reaches.
        """
        home = (HOME_JOINTS,) * 3
        if state is not None:
            J = self.total_inertia(state, qs if qs is not None else home)
            return attitude_gains(J, self.cfg.xi_att, self.cfg.f_att_hz)
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
        """Tip-minus-target residual of the 10-vector ``(q_grip, q_reach)``."""
        geom = self.cfg.arm_geometry
        base_world = self.cfg.tile_center(j)
        R, p = self._mounts[g][reach_arm]

        def residual(q10):
            joints_g, rots_g = link_poses(geom, q10[:5], base="J0")
            joints_r, _ = link_poses(geom, q10[5:], base="J6")
            return (base_world + joints_g[6] + rots_g[5] @ (p + R @ joints_r[0])
                    - target_world)

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
                                 JOINT_LIMIT * np.ones(10), tol=tol,
                                 max_iter=400)
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


def replace_modes(data: ModalBodyData, n_modes: int) -> ModalBodyData:
    """Truncate a modal body to its first ``n_modes`` modes."""
    return ModalBodyData(
        mass=data.mass, com=data.com, inertia_P=data.inertia_P,
        freqs=data.freqs[:n_modes], dampings=data.dampings[:n_modes],
        L_P=data.L_P[:n_modes, :],
        phi_C=None if data.phi_C is None else data.phi_C[:, :n_modes],
        pc=data.pc, name=data.name)


def close_loop(plant: StateSpace, K_att: np.ndarray) -> StateSpace:
    """Attitude loop around an open plant.

    Appends the two integrator banks (angular rate, then small-angle
    attitude), feeds back ``u = K_att [Theta; omega]``, and exposes the
    torque disturbance path ``d_t -> e_t`` with ``e_t = d_t + u`` (total
    torque entering the hub, the input-sensitivity output).  ``K_att`` is
    the 3 x 6 gain of :func:`attitude_gains`; any other shape raises
    :class:`~flexasm.errors.WidthMismatch`.

    The states are the plant's, then ``omega_G``, then ``Theta_G``; the
    inputs are ``d_t, W_ext, w_omega`` (then ``F_G`` when unpinned) and the
    outputs ``omega_dot_G, omega_G, Theta_G, e_t, z_omega`` (then ``a_G``).
    The loop is built on the plant's matrices, each output row written
    once in that order: ``u`` reads only states, so ``T_G = d_t + u`` adds
    ``B_T K`` to the state matrix and nothing has to be inverted.
    """
    K_att = np.asarray(K_att, dtype=float)
    if K_att.shape != (3, 6):
        raise WidthMismatch(f"attitude gain must be 3 x 6, got {K_att.shape}")
    n, m = plant.n_states, plant.n_inputs
    wd, T = plant.out_slice("omega_dot_G"), plant.in_slice("T_G")
    # u on the closed-loop states [x; omega_G; Theta_G]
    Ku = np.hstack([np.zeros((3, n)), K_att[:, 3:], K_att[:, :3]])
    A = np.zeros((n + 6, n + 6))
    A[:n, :n] = plant.A
    A[n:n + 3, :n] = plant.C[wd]
    A[n + 3:, n:n + 3] = np.eye(3)
    B = np.vstack([plant.B, plant.D[wd], np.zeros((3, m))])
    A += B[:, T] @ Ku

    ins = [("d_t", "T_G"), ("W_ext", "W_ext"), ("w_omega", "w_omega")]
    if plant.has_input("F_G"):
        ins.append(("F_G", "F_G"))
    cols = np.concatenate([np.r_[plant.in_slice(c)] for _, c in ins])
    k = cols.size
    # the plant's outputs on the closed-loop states and inputs
    C_p = np.hstack([plant.C, np.zeros((plant.n_outputs, 6))]) + plant.D[:, T] @ Ku
    D_p = plant.D[:, cols]
    z = plant.out_slice("z_omega")
    a = plant.out_slice("a_G") if plant.has_output("a_G") else slice(0, 0)
    outs = (("omega_dot_G", 3), ("omega_G", 3), ("Theta_G", 3), ("e_t", 3),
            ("z_omega", z.stop - z.start)) + ((("a_G", 3),) if a.stop else ())
    return StateSpace(A, B[:, cols],
                      np.vstack([C_p[wd], np.eye(6, n + 6, n), Ku, C_p[z], C_p[a]]),
                      np.vstack([D_p[wd], np.zeros((6, k)), np.eye(3, k), D_p[z], D_p[a]]),
                      tuple((name, plant.in_width(c)) for name, c in ins), outs)
