"""Arm geometry, link poses, the arm-chain oracle, quintic trajectories."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexasm import robot
from flexasm.errors import JointOutOfRange
from flexasm.multibody import dcm_about_axis

from conftest import make_rng
from wired import arm_two_port

angles = st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=5, max_size=5)


def simple_geometry(offsets, axes=None):
    """Massless 6-link test chain with prescribed offsets."""
    offsets = np.asarray(offsets, dtype=float)
    return robot.ArmGeometry(
        joint_offsets=offsets,
        joint_axes=np.array(axes) if axes is not None else np.array(
            [[0, 0, 1]] * 5, dtype=float),
        masses=np.zeros(6),
        coms=np.zeros((6, 3)),
        inertias=np.zeros((6, 3, 3)),
    )


# ---------------------------------------------------------------------------
# link poses
# ---------------------------------------------------------------------------

def test_fk_home_is_offset_sum():
    geom = robot.default_arm_geometry()
    [joints], [rots] = robot.link_poses(geom, np.zeros((1, 5)))
    assert np.allclose(joints[-1], geom.joint_offsets.sum(axis=0))
    assert np.allclose(rots[-1], np.eye(3))


def test_fk_single_joint_rotation():
    offsets = np.zeros((6, 3))
    offsets[1] = [1.0, 0.0, 0.0]  # unit x link right after joint 1
    geom = simple_geometry(offsets)
    [joints], _ = robot.link_poses(geom, [[np.pi / 2, 0, 0, 0, 0]])
    assert np.allclose(joints[-1], [0.0, 1.0, 0.0], atol=1e-12)
    [joints_pi], _ = robot.link_poses(geom, [[np.pi, 0, 0, 0, 0]])
    assert np.allclose(joints_pi[-1], [-1.0, 0.0, 0.0], atol=1e-12)


def test_fk_base_j6_inverts_the_chain():
    geom = robot.default_arm_geometry()
    rng = make_rng(3)
    q = rng.uniform(-1.0, 1.0, 5)
    [joints6], [rots6] = robot.link_poses(geom, [q])
    [joints0], [rots0] = robot.rebase_j6(*robot.link_poses(geom, [q]))
    p6, R6 = joints6[-1], rots6[-1]
    # J0 expressed in the J6 frame inverts the pose
    assert np.allclose(joints0[0], -R6.T @ p6, atol=1e-12)
    assert np.allclose(rots0[0], R6.T, atol=1e-12)


def test_joint_range_enforced():
    geom = robot.default_arm_geometry()
    with pytest.raises(JointOutOfRange):
        robot.link_poses(geom, [[7.0, 0, 0, 0, 0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_joints_rejected(bad):
    geom = robot.default_arm_geometry()
    q = [0.1, bad, 0.0, 0.0, 0.0]
    with pytest.raises(JointOutOfRange):
        robot.link_poses(geom, [q])


def oracle_link_poses(geom, q, base):
    """Link chain composed from validated ``dcm_about_axis`` rotations."""
    joints = [np.zeros(3)]
    rots = []
    R = np.eye(3)
    p = np.zeros(3)
    for i in range(6):
        if i >= 1:
            R = R @ dcm_about_axis(geom.joint_axes[i - 1], q[i - 1])
        rots.append(R)
        p = p + R @ geom.joint_offsets[i]
        joints.append(p)
    joints = np.array(joints)
    if base == "J6":
        R6 = rots[-1]
        joints = (joints - joints[-1]) @ R6
        rots = [R6.T @ r for r in rots]
    return joints, rots


def test_link_poses_match_dcm_chain_oracle():
    rng = make_rng(11)
    default = robot.default_arm_geometry()
    axes = rng.standard_normal((5, 3))
    skewed = robot.ArmGeometry(default.joint_offsets, axes, default.masses,
                               default.coms, default.inertias)
    for geom in (default, skewed):
        for _ in range(25):
            q = rng.uniform(-robot.JOINT_LIMIT, robot.JOINT_LIMIT, 5)
            for base in ("J0", "J6"):
                poses = robot.link_poses(geom, [q])
                [joints], [rots] = poses if base == "J0" else robot.rebase_j6(*poses)
                ref_joints, ref_rots = oracle_link_poses(geom, q, base)
                assert np.array_equal(joints, ref_joints)
                assert len(rots) == 6
                for r, ref in zip(rots, ref_rots):
                    assert np.array_equal(r, ref)


@pytest.mark.parametrize("base", ["J0", "J6"])
def test_stacked_link_poses_equal_row_by_row_oracle(base):
    # a (k, 5) stack poses every row with the bits of the stack of one,
    # which the dcm chain oracle pins bitwise above
    rng = make_rng(12)
    default = robot.default_arm_geometry()
    skewed = robot.ArmGeometry(default.joint_offsets, rng.standard_normal((5, 3)),
                               default.masses, default.coms, default.inertias)
    for geom in (default, skewed):
        for k in (1, 2, 10):
            Q = rng.uniform(-robot.JOINT_LIMIT, robot.JOINT_LIMIT, (k, 5))
            poses = robot.link_poses(geom, Q)
            joints, rots = poses if base == "J0" else robot.rebase_j6(*poses)
            assert joints.shape == (k, 7, 3)
            assert rots.shape == (k, 6, 3, 3)
            for q, J, R in zip(Q, joints, rots):
                ref_joints, ref_rots = oracle_link_poses(geom, q, base)
                assert J.tobytes() == np.asarray(ref_joints).tobytes()
                assert R.tobytes() == np.asarray(ref_rots).tobytes()


def test_numpy_trig_rounds_as_math_within_the_joint_limits():
    # link_poses takes its sines and cosines from np.sin and np.cos, the
    # DCM-chain oracle and dcm_about_axis from math.sin and math.cos: the
    # poses, and every price, keep their bits only where the two agree
    limit = robot.JOINT_LIMIT + 1e-12
    grid = np.concatenate([np.linspace(-limit, limit, 1_000_001),
                           make_rng(14).uniform(-limit, limit, 200_000),
                           np.arange(-8, 9) * (np.pi / 4)])
    angles = grid.tolist()
    strided = np.stack([grid, grid], axis=1)[:, 0]
    for vectorized, scalar in ((np.sin, math.sin), (np.cos, math.cos)):
        want = np.array([scalar(a) for a in angles]).tobytes()
        for x in (grid, strided):
            assert vectorized(x).tobytes() == want, (scalar.__name__, x.strides)


def test_rebase_j6_of_j0_rows_equals_j6_poses_bitwise():
    # the callers pose every arm from J0 in one stack and re-express a row
    # slice of it from J6: each such row carries the bits of rebasing the
    # slice posed alone
    rng = make_rng(13)
    default = robot.default_arm_geometry()
    skewed = robot.ArmGeometry(default.joint_offsets, rng.standard_normal((5, 3)),
                               default.masses, default.coms, default.inertias)
    for geom in (default, skewed):
        for k in (1, 2, 11):
            Q = rng.uniform(-robot.JOINT_LIMIT, robot.JOINT_LIMIT, (2 * k, 5))
            joints, rots = robot.link_poses(geom, Q)
            for rows in (slice(None), slice(k, None), slice(0, k)):
                got = robot.rebase_j6(joints[rows], rots[rows])
                ref = robot.rebase_j6(*robot.link_poses(geom, Q[rows]))
                for a, b in zip(got, ref):
                    assert a.shape == b.shape
                    assert a.tobytes() == b.tobytes()


def test_stacked_link_poses_reject_any_bad_row():
    geom = robot.default_arm_geometry()
    Q = np.zeros((3, 5))
    Q[2, 4] = np.nan
    with pytest.raises(JointOutOfRange):
        robot.link_poses(geom, Q)


# ---------------------------------------------------------------------------
# fixed anchor
# ---------------------------------------------------------------------------

def test_fixed_anchor_default_geometry_is_j2():
    # link 1's offset runs along the yaw axis, so J2 sits still 0.225 m up
    m, anchor = robot.fixed_anchor(robot.default_arm_geometry())
    assert m == 2
    assert np.array_equal(anchor, [0.0, 0.0, 0.225])


def test_fixed_anchor_tilted_link1_falls_back_to_j1():
    geom = robot.default_arm_geometry()
    offsets = np.array(geom.joint_offsets)
    offsets[1] = 0.1 * np.array([np.sin(1e-3), 0.0, np.cos(1e-3)])
    m, anchor = robot.fixed_anchor(simple_geometry(offsets, geom.joint_axes))
    assert m == 1
    assert np.array_equal(anchor, offsets[0])


def test_fixed_anchor_stops_at_j5_and_stays_put():
    # every offset along the common axis: the chain spins in place, and
    # the anchor is capped at the last joint
    offsets = [[0, 0, 0.1 * (i + 1)] for i in range(6)]
    geom = simple_geometry(offsets)
    m, anchor = robot.fixed_anchor(geom)
    assert m == 5
    rng = make_rng(11)
    for _ in range(5):
        [joints], _ = robot.link_poses(geom, [rng.uniform(-6.0, 6.0, 5)])
        assert np.allclose(joints[m], anchor, rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# arm two-port model
# ---------------------------------------------------------------------------

def test_arm_total_mass_at_base():
    geom = robot.default_arm_geometry()
    sys = arm_two_port(geom, np.zeros(5), base="J0")
    D = sys.D[sys.out_slice("W_base"), :][:, sys.in_slice("xdd_base")]
    assert np.allclose(D[0:3, 0:3], -40.0 * np.eye(3), atol=1e-9)
    assert np.sum(geom.masses) == pytest.approx(40.0)


def test_arm_degenerate_chain_single_massive_link():
    geom = robot.default_arm_geometry()
    masses = np.zeros(6)
    masses[0] = geom.masses[0]
    coms = np.zeros((6, 3))
    coms[0] = geom.coms[0]
    inertias = np.zeros((6, 3, 3))
    inertias[0] = geom.inertias[0]
    light = robot.ArmGeometry(geom.joint_offsets, geom.joint_axes,
                              masses, coms, inertias)
    sys = arm_two_port(light, np.zeros(5))
    # equivalent single rigid body from J0 to J6
    from flexasm.multibody import ModalBodyData, titop_two_port, transport_inertia
    total = geom.joint_offsets.sum(axis=0)
    ref = titop_two_port(ModalBodyData(
        mass=float(masses[0]), com=coms[0],
        inertia_P=transport_inertia(inertias[0], masses[0], coms[0]),
        freqs=[], dampings=[], L_P=np.zeros((0, 6)),
        phi_C=np.zeros((6, 0)), pc=total, name="ref"))
    order = ["W_tip", "xdd_base"]
    ref = ref  # channels: W_C, xdd_P / xdd_C, W_P
    for (o1, i1), (o2, i2) in [
        (("xdd_tip", "W_tip"), ("xdd_C", "W_C")),
        (("W_base", "xdd_base"), ("W_P", "xdd_P")),
        (("xdd_tip", "xdd_base"), ("xdd_C", "xdd_P")),
        (("W_base", "W_tip"), ("W_P", "W_C")),
    ]:
        a = sys.D[sys.out_slice(o1), :][:, sys.in_slice(i1)]
        b = ref.D[ref.out_slice(o2), :][:, ref.in_slice(i2)]
        assert np.allclose(a, b, atol=1e-9), (o1, i1)


def test_arm_axis_flip_symmetry():
    geom = robot.default_arm_geometry()
    axes = np.array(geom.joint_axes)
    axes[2] = -axes[2]
    flipped = robot.ArmGeometry(geom.joint_offsets, axes, geom.masses,
                                geom.coms, geom.inertias)
    q = np.array([0.3, -0.5, 0.7, 0.2, -0.1])
    q_flip = np.array(q)
    q_flip[2] = -q_flip[2]
    a = arm_two_port(geom, q)
    b = arm_two_port(flipped, q_flip)
    assert np.allclose(a.D, b.D, atol=1e-10)


def test_arm_clamped_base_blocks_tip_motion():
    # joints are frozen at the waypoint, so with the base twist imposed a
    # tip wrench cannot accelerate anything; it only loads the base
    geom = robot.default_arm_geometry()
    q = np.array([0.2, 0.4, -0.3, 0.1, 0.5])
    sys = arm_two_port(geom, q, base="J0")
    blk = sys.D[sys.out_slice("xdd_tip"), :][:, sys.in_slice("W_tip")]
    assert np.allclose(blk, 0.0, atol=1e-10)


@given(angles)
@settings(max_examples=10, deadline=None)
def test_arm_free_floating_tip_map_is_passive(q):
    # releasing the base (wrench port inverted) exposes the rigid-composite
    # inverse mass map at the tip: symmetric positive semidefinite
    from flexasm.linss import invert_channels
    geom = robot.default_arm_geometry()
    sys = invert_channels(arm_two_port(geom, q, base="J6"),
                          ["xdd_base"], ["W_base"])
    blk = sys.D[sys.out_slice("xdd_tip"), :][:, sys.in_slice("W_tip")]
    assert np.allclose(blk, blk.T, atol=1e-8)
    assert np.min(np.linalg.eigvalsh(0.5 * (blk + blk.T))) > -1e-8
    assert np.linalg.norm(blk) > 1e-3


def test_arm_orientations_are_consistent():
    # the free-floating wrench->acceleration map at J6 must not depend on
    # which end the chain was assembled from
    from flexasm.linss import invert_channels
    geom = robot.default_arm_geometry()
    q = np.array([0.2, 0.4, -0.3, 0.1, 0.5])
    a = invert_channels(arm_two_port(geom, q, base="J0"),
                        ["xdd_base"], ["W_base"])
    b = invert_channels(arm_two_port(geom, q, base="J6"),
                        ["xdd_base"], ["W_base"])
    blk_a = a.D[a.out_slice("xdd_tip"), :][:, a.in_slice("W_tip")]   # J6 map
    blk_b = b.D[b.out_slice("xdd_base"), :][:, b.in_slice("W_base")]  # J6 map
    # model A drives J6 with the child-on-arm wrench; model B's inverted
    # port drives it with the arm-on-parent reaction, hence the sign
    assert np.allclose(blk_a, -blk_b, atol=1e-9)


# ---------------------------------------------------------------------------
# quintic trajectories
# ---------------------------------------------------------------------------

def test_quintic_midpoint_and_endpoints():
    assert robot.quintic_scalar(0.5) == pytest.approx(0.5)
    first, mid, last = robot.quintic_waypoints(np.zeros(5), np.ones(5), 3)
    assert np.allclose(first, 0.0)
    assert np.allclose(mid, 0.5)
    assert np.allclose(last, 1.0)


def test_quintic_waypoint_count():
    pts = robot.quintic_waypoints(np.zeros(5), np.ones(5), 7)
    assert len(pts) == 7
    assert np.allclose(pts[0], 0.0)
    assert np.allclose(pts[-1], 1.0)


def test_quintic_boundary_derivatives():
    h = 1e-5
    for t0 in (0.0, 1.0):
        d1 = (robot.quintic_scalar(min(t0 + h, 1.0)) -
              robot.quintic_scalar(max(t0 - h, 0.0))) / ((min(t0 + h, 1.0) -
                                                          max(t0 - h, 0.0)))
        assert abs(d1) < 1e-8 or abs(d1) < 5e-5  # one-sided at the ends
    # interior check of zero start/end velocity and acceleration via series
    s = robot.quintic_scalar
    assert abs((s(2 * h) - 2 * s(h)) / h ** 2) < 1e-3      # s'' ~ 0 at 0
    assert abs(s(h) / h) < 1e-3                            # s' ~ 0 at 0


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=40)
def test_quintic_monotone(t1, t2):
    lo, hi = sorted((t1, t2))
    assert robot.quintic_scalar(hi) >= robot.quintic_scalar(lo) - 1e-12
