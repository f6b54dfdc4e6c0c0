"""Serial-arm geometry: rigid link chains, kinematics, joint trajectories.

An arm has six rigid links L0..L5 spanning joints J0..J6, with five
revolute joints at J1..J5.  J0 is the end-effector side (it grips tiles
or docking ports), J6 mounts on the robot's central hub.  All link frames
align at the zero configuration; joint k rotates link k relative to link
k-1 about ``axes[k-1]``.

:func:`link_poses` expresses a chain from either end: ``base="J0"`` for
an arm standing on the structure, ``base="J6"`` for an arm hanging off
the robot hub.  The locked robot's mass matrix
(:meth:`flexasm.scenario.ScenarioModels.robot_mass_matrix`) stacks every
link from these poses, and the walking IK (``ScenarioModels.solve_reach``)
descends with :func:`dls_solve`.

Published link data gives masses, CoMs and inertias but no joint
offsets; the default geometry places each joint pair symmetrically about
the link CoM (offset = twice the CoM position), which is the only
self-consistent inference and is overridable in configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import IkNotConverged, JointOutOfRange, SchemaError
from .multibody import skew

__all__ = [
    "ArmGeometry",
    "default_arm_geometry",
    "validate_joints",
    "link_poses",
    "fixed_anchor",
    "dls_solve",
    "quintic_scalar",
    "quintic_waypoints",
    "JOINT_LIMIT",
]

JOINT_LIMIT = 2.0 * np.pi
_EYE3 = np.eye(3)

# Damped least squares: the initial damping, and how many iterations
# without improvement end a descent.
DLS_DAMPING = 1e-2
STALL_ITERS = 25

# Table data for one arm: six links, five joints.
_LINK_MASSES = (5.0, 5.0, 10.0, 5.0, 10.0, 5.0)
_LINK_COM_X = (0.0, 0.0, -0.1062, 0.0, -0.1031, 0.0)
_LINK_COM_Z = (0.0625, 0.05, 0.0, 0.0810, 0.0, 0.0810)
_LINK_J = (0.2, 0.2, 0.4, 0.2, 0.4, 0.2)
# default axis stack: shoulder yaw then four pitches.  All-pitch distal
# joints let the zig-zag link stack straighten fully, which the walking
# gait needs to straddle diagonal tiles at the published 1 m pitch.
_DEFAULT_AXES = ((0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (0.0, 1.0, 0.0),
                 (0.0, 1.0, 0.0), (0.0, 1.0, 0.0))


@dataclass(frozen=True)
class ArmGeometry:
    """Six-link serial arm description in link frames.

    ``joint_offsets[i]`` is J_i -> J_{i+1} in link i's frame; ``coms[i]``
    the link CoM from J_i; ``inertias[i]`` the link inertia at its CoM.
    ``axis_K[k]`` and ``axis_KK[k]`` are ``skew(joint_axes[k])`` and its
    square, derived once here for the rotations of :func:`link_poses`.
    Non-finite data, a zero joint axis, a negative link mass or a negative
    principal moment of inertia raise ``SchemaError``; massless links are
    valid.
    """

    joint_offsets: np.ndarray         # (6, 3)
    joint_axes: np.ndarray            # (5, 3) unit vectors
    masses: np.ndarray                # (6,)
    coms: np.ndarray                  # (6, 3)
    inertias: np.ndarray              # (6, 3, 3)
    axis_K: np.ndarray = field(init=False, repr=False, compare=False)
    axis_KK: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        off = np.asarray(self.joint_offsets, dtype=float).reshape(6, 3)
        axes = np.asarray(self.joint_axes, dtype=float).reshape(5, 3)
        masses = np.asarray(self.masses, dtype=float).reshape(6)
        coms = np.asarray(self.coms, dtype=float).reshape(6, 3)
        inertias = np.asarray(self.inertias, dtype=float).reshape(6, 3, 3)
        nrm = np.linalg.norm(axes, axis=1)
        # each test is written so that NaN fails it
        for name, ok, want in [
                ("joint offsets", np.isfinite(off).all(), "finite"),
                ("joint axes", np.isfinite(axes).all() and (nrm > 0.0).all(),
                 "finite and nonzero"),
                ("link masses", ((0.0 <= masses) & (masses < np.inf)).all(),
                 "finite and >= 0"),
                ("link CoMs", np.isfinite(coms).all(), "finite"),
                ("link inertias", np.isfinite(inertias).all() and (
                    np.linalg.eigvalsh(inertias) >= -1e-12 * np.abs(inertias).max()).all(),
                 "finite, with no negative principal moment")]:
            if not ok:
                raise SchemaError(f"arm {name} must be {want}")
        if np.any(np.abs(nrm - 1.0) > 1e-9):
            axes = axes / nrm[:, None]
        object.__setattr__(self, "joint_offsets", off)
        object.__setattr__(self, "joint_axes", axes)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "coms", coms)
        object.__setattr__(self, "inertias", inertias)
        K = [skew(a) for a in axes]
        object.__setattr__(self, "axis_K", np.array(K))
        object.__setattr__(self, "axis_KK", np.array([k @ k for k in K]))


def default_arm_geometry() -> ArmGeometry:
    coms = np.column_stack([_LINK_COM_X, np.zeros(6), _LINK_COM_Z])
    return ArmGeometry(
        joint_offsets=2.0 * coms,
        joint_axes=np.array(_DEFAULT_AXES),
        masses=np.array(_LINK_MASSES),
        coms=coms,
        inertias=np.array([j * np.eye(3) for j in _LINK_J]),
    )


def validate_joints(q) -> np.ndarray:
    q = np.asarray(q, dtype=float).reshape(5)
    # written so that NaN fails the comparison too
    if not np.all(np.abs(q) <= JOINT_LIMIT + 1e-12):
        raise JointOutOfRange(f"joint angles {q} must be finite and within +-2*pi")
    return q


# ---------------------------------------------------------------------------
# kinematics
# ---------------------------------------------------------------------------

def link_poses(geom: ArmGeometry, q, base: str = "J0"):
    """Joint positions and link-frame rotations in base coordinates.

    Returns ``(joints, rotations)``: the seven joint positions J0..J6 as a
    (7, 3) array and the six rotation matrices mapping link-frame
    coordinates into the base frame as a (6, 3, 3) array.

    Each joint rotation is built raw, ``I + sin(a) K + (1 - cos a) K^2``
    with the geometry's precomputed ``K`` and ``K^2``: the same arithmetic
    as :func:`~flexasm.multibody.dcm_about_axis` without constructing and
    re-validating a :class:`~flexasm.multibody.Dcm` per joint.  The angles
    are checked once, by :func:`validate_joints`.
    """
    q = validate_joints(q)
    sin = np.array([math.sin(a) for a in q])[:, None, None]
    vers = np.array([1.0 - math.cos(a) for a in q])[:, None, None]
    turns = _EYE3 + sin * geom.axis_K + vers * geom.axis_KK
    joints = np.zeros((7, 3))
    joints[1] = geom.joint_offsets[0]
    rots = np.empty((6, 3, 3))
    R = rots[0] = _EYE3
    for i in range(1, 6):
        R = rots[i] = R @ turns[i - 1]
        joints[i + 1] = joints[i] + R @ geom.joint_offsets[i]
    if base == "J6":
        R6 = rots[-1]
        joints = (joints - joints[-1]) @ R6
        rots = R6.T @ rots
    elif base != "J0":
        raise ValueError(f"base must be 'J0' or 'J6', got {base!r}")
    return joints, rots


def fixed_anchor(geom: ArmGeometry):
    """Farthest joint of a J0-based chain that no joint angle moves.

    ``J_{k+1} = J_k + R_k offset_k``, where ``R_k`` rotates about axes
    ``0..k-1``, so ``J_{k+1}`` stays put exactly when ``offset_k`` is zero
    or parallel to each of those axes.  J1 always qualifies; the search
    stops at J5, the last joint.  Returns ``(m, J_m)`` in the base frame.
    Parallel means within 1e-12 relative: such an offset moves by at most
    2e-12 of its length per axis, far below any reach tolerance.
    """
    off, axes = geom.joint_offsets, geom.joint_axes
    m = 1
    while m < 5 and all(np.linalg.norm(np.cross(a, off[m]))
                        <= 1e-12 * np.linalg.norm(off[m]) for a in axes[:m]):
        m += 1
    return m, off[:m].sum(axis=0)


def dls_solve(residual: Callable, q0, lower, upper, tol: float,
              max_iter: int = 200):
    """Damped least-squares descent on a residual vector.

    Levenberg-Marquardt flavor: the damping grows when a step fails to
    shrink the error and relaxes otherwise.  The Jacobian comes from
    forward differences; joint values are clipped to the bounds.  Raises
    :class:`IkNotConverged` when the error stays above ``tol`` or stops
    improving for ``STALL_ITERS`` iterations (so alternative seeds can be
    tried cheaply); only improving steps are taken, so its ``task_error``
    is the smallest error reached.
    """
    q = np.clip(np.array(q0, dtype=float), lower, upper)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    h = 1e-6
    lam = DLS_DAMPING
    e = np.asarray(residual(q), dtype=float)
    en = float(np.linalg.norm(e))
    best = en
    since_best = 0
    for _ in range(max_iter):
        if en < tol:
            return q
        J = np.zeros((e.size, q.size))
        for k in range(q.size):
            dq = np.array(q)
            dq[k] += h
            J[:, k] = (np.asarray(residual(dq)) - e) / h
        for _ in range(10):
            step = J.T @ np.linalg.solve(
                J @ J.T + lam * lam * np.eye(e.size), -e)
            nrm = np.linalg.norm(step)
            if nrm > 0.6:
                step *= 0.6 / nrm
            q_new = np.clip(q + step, lower, upper)
            e_new = np.asarray(residual(q_new), dtype=float)
            en_new = float(np.linalg.norm(e_new))
            if en_new < en:
                lam = max(lam / 3.0, 1e-5)
                break
            lam *= 5.0
        else:
            raise IkNotConverged(f"descent stuck at task error {en:.3e}", en)
        q, e, en = q_new, e_new, en_new
        if en < best * (1.0 - 1e-9):
            best = en
            since_best = 0
        else:
            since_best += 1
            if since_best >= STALL_ITERS:
                raise IkNotConverged(f"stalled at task error {en:.3e}", en)
    raise IkNotConverged(f"task error {en:.3e} after {max_iter} iterations",
                         en)


# ---------------------------------------------------------------------------
# quintic joint trajectories
# ---------------------------------------------------------------------------

def quintic_scalar(t: float) -> float:
    """Rest-to-rest quintic shape: s(t) = 10 t^3 - 15 t^4 + 6 t^5."""
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def quintic_waypoints(q0, q1, z: int) -> list:
    """z equally spaced waypoints of the quintic sweep from q0 to q1."""
    if z < 2:
        raise ValueError("need at least two waypoints")
    q0 = np.asarray(q0, dtype=float)
    dq = np.asarray(q1, dtype=float) - q0
    return [q0 + quintic_scalar(k / (z - 1)) * dq for k in range(z)]
