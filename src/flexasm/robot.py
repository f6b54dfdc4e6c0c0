"""Serial-arm geometry: rigid link chains, kinematics, joint trajectories.

An arm has six rigid links L0..L5 spanning joints J0..J6, with five
revolute joints at J1..J5.  J0 is the end-effector side (it grips tiles
or docking ports), J6 mounts on the robot's central hub.  All link frames
align at the zero configuration; joint k rotates link k relative to link
k-1 about ``axes[k-1]``.

:func:`link_poses` expresses a chain from either end: ``base="J0"`` for
an arm standing on the structure, ``base="J6"`` for an arm hanging off
the robot hub; it also poses a ``(k, 5)`` stack of joint vectors in one
pass, each row with the bits of posing it alone.  :func:`rebase_j6` is
the one copy of the J6 arithmetic: it re-expresses any rows of a J0 stack
from J6, with the bits ``base="J6"`` gives them, so a caller poses its
standing and hanging arms together from J0 in one call.  The locked
robot's mass matrix
(:meth:`flexasm.scenario.ScenarioModels.robot_mass_matrix`) poses its
three arms that way and stacks every link from the poses, and the walking
IK (``ScenarioModels.solve_reach``) descends with :func:`dls_solve` on a
stacked residual: the forward-difference Jacobian's perturbed rows, of
both arms, are posed in one call.

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
    "link_poses",
    "rebase_j6",
    "fixed_anchor",
    "dls_solve",
    "quintic_scalar",
    "quintic_waypoints",
    "JOINT_LIMIT",
]

JOINT_LIMIT = 2.0 * np.pi
_EYE3 = np.eye(3)

# Damped least squares: the initial damping, how many iterations without
# improvement end a descent, and how many end it in any case.
DLS_DAMPING = 1e-2
STALL_ITERS = 25
MAX_ITER = 400

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


# ---------------------------------------------------------------------------
# kinematics
# ---------------------------------------------------------------------------

def link_poses(geom: ArmGeometry, q, base: str = "J0"):
    """Joint positions and link-frame rotations in base coordinates.

    Returns ``(joints, rotations)``: the seven joint positions J0..J6 as a
    (7, 3) array and the six rotation matrices mapping link-frame
    coordinates into the base frame as a (6, 3, 3) array.  A ``(k, 5)``
    stack of joint vectors is posed in one pass and returns ``(k, 7, 3)``
    and ``(k, 6, 3, 3)``; each row carries the same bits as posing that
    row alone.

    Each joint rotation is built raw, ``I + sin(a) K + (1 - cos a) K^2``
    with the geometry's precomputed ``K`` and ``K^2``: the same arithmetic
    as :func:`~flexasm.multibody.dcm_about_axis` without constructing and
    re-validating a :class:`~flexasm.multibody.Dcm` per joint.  Angles
    outside +-2*pi, or not finite, raise :class:`JointOutOfRange`.
    """
    q = np.asarray(q, dtype=float)
    stacked = q.ndim == 2
    rows = q.reshape(len(q) if stacked else 1, 5)
    # written so that NaN fails the comparison too
    if not np.all(np.abs(rows) <= JOINT_LIMIT + 1e-12):
        raise JointOutOfRange(f"joint angles {q} must be finite and within +-2*pi")
    k = len(rows)
    sin = np.array([math.sin(a) for a in rows.flat]).reshape(k, 5, 1, 1)
    vers = np.array([1.0 - math.cos(a) for a in rows.flat]).reshape(k, 5, 1, 1)
    turns = _EYE3 + sin * geom.axis_K + vers * geom.axis_KK
    joints = np.zeros((k, 7, 3))
    joints[:, 1] = geom.joint_offsets[0]
    rots = np.empty((k, 6, 3, 3))
    R = rots[:, 0] = _EYE3
    for i in range(1, 6):
        R = rots[:, i] = R @ turns[:, i - 1]
        joints[:, i + 1] = joints[:, i] + R @ geom.joint_offsets[i]
    if base == "J6":
        joints, rots = rebase_j6(joints, rots)
    elif base != "J0":
        raise ValueError(f"base must be 'J0' or 'J6', got {base!r}")
    return (joints, rots) if stacked else (joints[0], rots[0])


def rebase_j6(joints, rots):
    """Re-express a stack of J0-based poses from J6.

    Takes the ``(k, 7, 3)`` joints and ``(k, 6, 3, 3)`` rotations of a
    ``base="J0"`` :func:`link_poses` call, or any row slice of them, and
    returns what ``base="J6"`` gives for the same rows, bit for bit: J6 at
    the origin, link 5's frame as the base frame.  A caller posing arms of
    both kinds poses them all from J0 in one call and re-expresses the
    hanging rows here.
    """
    R6 = rots[:, -1]
    return (joints - joints[:, -1:]) @ R6, np.swapaxes(R6, 1, 2)[:, None] @ rots


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


def dls_solve(residual: Callable, q0, lower, upper, tol: float):
    """Damped least-squares descent on a stacked residual.

    ``residual`` maps a ``(k, dof)`` stack of joint vectors to the
    ``(k, m)`` stack of their residual vectors.  Levenberg-Marquardt
    flavor: the damping grows when a step fails to shrink the error and
    relaxes otherwise.  The Jacobian comes from forward differences: the
    starting point and every trial point are posed together with their
    ``dof`` perturbed rows, ``[q; q + h e_k]``, in one ``(dof + 1)``-row
    residual call, so an accepted step already carries its Jacobian: one
    residual call per iteration plus one per rejected trial.  Joint values
    are clipped to the bounds.  Raises :class:`IkNotConverged` when the
    error stays above ``tol`` for ``MAX_ITER`` iterations or stops
    improving for ``STALL_ITERS`` (so alternative seeds can be tried
    cheaply); only improving steps are taken, so its ``task_error`` is the
    smallest error reached.
    """
    q = np.clip(np.array(q0, dtype=float), lower, upper)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    h = 1e-6
    lam = DLS_DAMPING

    def pose(q):
        """Residual of ``q`` and its forward-difference Jacobian."""
        # row k + 1 is q with h added to joint k
        rows = np.repeat(q[None], q.size + 1, axis=0)
        rows.flat[q.size::q.size + 1] += h
        r = np.asarray(residual(rows), dtype=float)
        # C-contiguous, as J @ J.T below reads it
        return r[0], np.ascontiguousarray(((r[1:] - r[0]) / h).T)

    e, J = pose(q)
    en = float(np.linalg.norm(e))
    best = en
    since_best = 0
    for _ in range(MAX_ITER):
        if en < tol:
            return q
        for _ in range(10):
            step = J.T @ np.linalg.solve(
                J @ J.T + lam * lam * np.eye(e.size), -e)
            nrm = np.linalg.norm(step)
            if nrm > 0.6:
                step *= 0.6 / nrm
            q_new = np.clip(q + step, lower, upper)
            e_new, J_new = pose(q_new)
            en_new = float(np.linalg.norm(e_new))
            if en_new < en:
                lam = max(lam / 3.0, 1e-5)
                break
            lam *= 5.0
        else:
            raise IkNotConverged(f"descent stuck at task error {en:.3e}", en)
        q, e, J, en = q_new, e_new, J_new, en_new
        if en < best * (1.0 - 1e-9):
            best = en
            since_best = 0
        else:
            since_best += 1
            if since_best >= STALL_ITERS:
                raise IkNotConverged(f"stalled at task error {en:.3e}", en)
    raise IkNotConverged(f"task error {en:.3e} after {MAX_ITER} iterations",
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
