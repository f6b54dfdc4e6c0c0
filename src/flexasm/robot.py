"""Serial-arm geometry: rigid link chains, kinematics, joint trajectories.

An arm has six rigid links L0..L5 spanning joints J0..J6, with five
revolute joints at J1..J5.  J0 is the end-effector side (it grips tiles
or docking ports), J6 mounts on the robot's central hub.  All link frames
align at the zero configuration; joint k rotates link k relative to link
k-1 about ``axes[k-1]``.

:func:`link_poses` poses a ``(k, 5)`` stack of joint vectors from J0 in
one pass, each row with the bits of posing it alone: the frame of an arm
standing on the structure.  :func:`rebase_j6` re-expresses any rows of
such a stack from J6, the frame of an arm hanging off the robot hub, so
a caller poses its standing and hanging arms together in one call.  The
locked robot's mass matrices
(:meth:`flexasm.scenario.ScenarioModels.robot_mass_matrices`) pose the
three arms of every waypoint of a list that way and stack every link
from the poses.  The walking IK (``ScenarioModels.solve_reaches``) runs
the descents of any number of reach targets in lockstep with
:func:`dls_solve`: each round poses every live descent's pending point
and its forward-difference Jacobian rows, of both arms, in one call.

Published link data gives masses, CoMs and inertias but no joint
offsets; the default geometry places each joint pair symmetrically about
the link CoM (offset = twice the CoM position), which is the only
self-consistent inference and is overridable in configuration.
"""

from __future__ import annotations

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

def link_poses(geom: ArmGeometry, q):
    """Joint positions and link-frame rotations of a stack of arms, from J0.

    ``q`` is a ``(k, 5)`` stack of joint vectors, posed in one pass.
    Returns ``(joints, rotations)``: each row's seven joint positions
    J0..J6 in the J0 frame as a ``(k, 7, 3)`` array, and the six rotation
    matrices mapping link-frame coordinates into that frame as a ``(k, 6,
    3, 3)`` array; each row carries the same bits as posing that row
    alone, which is the stack of one.  :func:`rebase_j6` re-expresses any
    rows from J6.

    Each joint rotation is built raw, ``I + sin(a) K + (1 - cos a) K^2``
    with the geometry's precomputed ``K`` and ``K^2``: the same arithmetic
    as :func:`~flexasm.multibody.dcm_about_axis`, for every joint of the
    stack at once (``np.sin`` and ``np.cos``, which round as ``math.sin``
    and ``math.cos`` do within the joint limits).  Angles outside +-2*pi,
    or not finite, raise :class:`JointOutOfRange`; any other shape than
    ``(k, 5)`` raises ``ValueError``.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[1] != 5:
        raise ValueError(f"joint angles must be a (k, 5) stack, got shape {q.shape}")
    # written so that NaN fails the comparison too
    if not np.all(np.abs(q) <= JOINT_LIMIT + 1e-12):
        raise JointOutOfRange(f"joint angles {q} must be finite and within +-2*pi")
    k = len(q)
    angles = q.reshape(k, 5, 1, 1)
    turns = _EYE3 + np.sin(angles) * geom.axis_K + (1.0 - np.cos(angles)) * geom.axis_KK
    joints = np.zeros((k, 7, 3))
    joints[:, 1] = geom.joint_offsets[0]
    rots = np.empty((k, 6, 3, 3))
    R = rots[:, 0] = _EYE3
    for i in range(1, 6):
        R = rots[:, i] = R @ turns[:, i - 1]
        joints[:, i + 1] = joints[:, i] + R @ geom.joint_offsets[i]
    return joints, rots


def rebase_j6(joints, rots):
    """Re-express a stack of J0-based poses from J6.

    Takes the ``(k, 7, 3)`` joints and ``(k, 6, 3, 3)`` rotations of a
    :func:`link_poses` call, or any row slice of them, and returns the
    same rows with J6 at the origin and link 5's frame as the base frame:
    the pose of an arm hanging off the robot hub.  A caller posing
    standing and hanging arms poses them all from J0 in one call and
    re-expresses the hanging rows here.
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


def dls_solve(residual: Callable, q0, lower, upper, tol: float) -> list:
    """Damped least-squares descents in lockstep on one stacked residual.

    ``q0`` is a ``(d, dof)`` stack of starting points, one per descent (a
    single descent is a stack of one), and ``residual(owner, Q)`` maps a
    ``(k, dof)`` stack of joint vectors, row ``i`` of descent ``owner[i]``,
    to the ``(k, m)`` stack of their residual vectors.  Each descent runs
    :func:`_descent`.  Its Jacobian comes from forward differences: a point
    is posed with its ``dof`` perturbed rows, ``[q; q + h e_k]``, so an
    accepted step already carries its Jacobian.  Each round poses the
    pending point of every live descent in one residual call; a descent
    takes one round per iteration plus one per rejected trial and ends
    with the bits of running alone.  Returns, per descent, its joint
    vector or the :class:`IkNotConverged` that ended it.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    q0 = np.clip(np.array(q0, dtype=float), lower, upper)
    d, dof = q0.shape
    h = 1e-6
    out = [None] * d
    live = {i: _descent(q.copy(), lower, upper, tol) for i, q in enumerate(q0)}
    points = {i: next(descent) for i, descent in live.items()}
    while live:
        order = list(live)
        # block b is [q; q + h e_k] of the b-th live descent
        rows = np.repeat([points[i] for i in order], dof + 1, axis=0)
        rows.reshape(len(order), -1)[:, dof::dof + 1] += h
        r = np.asarray(residual(np.repeat(order, dof + 1), rows), dtype=float)
        for i, rb in zip(order, r.reshape(len(order), dof + 1, -1)):
            # the Jacobian C-contiguous, as J @ J.T in _descent reads it
            J = np.ascontiguousarray(((rb[1:] - rb[0]) / h).T)
            try:
                points[i] = live[i].send((rb[0], J))
            except StopIteration as done:
                out[i] = done.value
                del live[i]
            except IkNotConverged as exc:
                out[i] = exc
                del live[i]
    return out


def _descent(q, lower, upper, tol: float):
    """One damped least-squares descent from ``q``, as a generator that
    yields each point to pose and is sent its residual and Jacobian.

    Levenberg-Marquardt flavor: the damping grows when a step fails to
    shrink the error and relaxes otherwise; joint values are clipped to
    the bounds.  Returns the joint vector once the error is below ``tol``.
    Raises :class:`IkNotConverged` when it is not within ``MAX_ITER``
    iterations or stops improving for ``STALL_ITERS`` (so alternative
    seeds can be tried cheaply); only improving steps are taken, so its
    ``task_error`` is the smallest error reached.
    """
    lam = DLS_DAMPING
    e, J = yield q
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
            e_new, J_new = yield q_new
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
