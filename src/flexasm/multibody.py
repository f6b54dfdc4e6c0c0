"""Multibody building blocks: kinematic transport, flexible-body models,
rigid n-ports, frame rotations, and the modal-frequency uncertainty LFR.

Every flexible-body model is one block, the clamped-free body at its
port P (``xdd_P -> W_P``, built by ``_p_port``): :func:`titop_two_port`
extends it with the child port C, and :func:`mode_freq_lfr` perturbs one
of its mode frequencies.  The frequency LFR models the P port only.

Sign and transport conventions
------------------------------
* A *twist* stacks linear and angular acceleration ``[a; wdot]``; a
  *wrench* stacks force and torque ``[F; T]``.
* ``tau(r)`` with ``r = Q - P`` (vector from P to Q) maps twists at Q to
  twists at P, and its transpose maps wrenches applied at P to equivalent
  wrenches at Q.  Both follow from ``a_P = a_Q + (Q - P) x wdot`` and
  ``T_Q = T_P + (P - Q) x F``.
* A body's two-port model takes the child wrench at C and the imposed
  twist at P, and returns the twist at C and the wrench the body applies
  to its parent at P.  Appendage models therefore plug straight into the
  hub's n-port inputs without extra sign flips.
* The static mass matrix at a port P is the *full* 6x6 rigid matrix

      D_P = [[ m I,      -m skew(c)],
             [ m skew(c),  J_P     ]],     c = CoM position relative to P,

  whose coupling block vanishes only when P is the CoM.  Keeping the
  coupling is what makes the residual mass D_P - L^T L positive
  semidefinite for consistently generated modal data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import (
    AlphaOutOfRange,
    InvalidModalData,
    InvalidMode,
    SingularInertia,
    UnknownChannel,
    UnknownPort,
    WidthMismatch,
)
from .linss import W_CHANNEL, Z_CHANNEL, StateSpace

__all__ = [
    "skew",
    "tau_kinematic",
    "RigidBodyData",
    "ModalBodyData",
    "dcm_about_axis",
    "apply_frame",
    "rigid_mass_matrix",
    "transport_inertia",
    "compose_rigid",
    "rigid_nport",
    "port_mass_matrix",
    "d_p_matrix",
    "residual_mass",
    "titop_two_port",
    "mode_freq_lfr",
]


def skew(v) -> np.ndarray:
    """Skew-symmetric matrix with skew(v) @ w = v x w; a ``(..., 3)`` stack
    of vectors gives the ``(..., 3, 3)`` stack of their matrices."""
    v = np.asarray(v, dtype=float)
    S = np.zeros(v.shape[:-1] + (3, 3))
    S[..., [2, 0, 1], [1, 2, 0]] = v
    S[..., [1, 2, 0], [2, 0, 1]] = -v
    return S


def tau_kinematic(pb) -> np.ndarray:
    """6x6 rigid kinematic transport for the point pair (P, B), ``pb = B - P``.

    ``tau @ twist_at_B = twist_at_P`` and ``tau.T @ wrench_at_P`` is the
    same wrench expressed at B.  Composition: tau(PB) @ tau(QP) = tau(QB).
    """
    pb = np.asarray(pb, dtype=float).ravel()
    if pb.shape != (3,) or not np.all(np.isfinite(pb)):
        raise ValueError("pb must be a finite 3-vector")
    tau = np.eye(6)
    tau[0:3, 3:6] = skew(pb)
    return tau


@dataclass(frozen=True)
class RigidBodyData:
    """Mass, inertia tensor at the CoM, and named port offsets.

    ``port_offsets[name]`` is the vector from the CoM G to the port,
    expressed in the body frame (the Tables' ``GP_k`` entries).
    """

    mass: float
    inertia_G: np.ndarray
    port_offsets: Mapping[str, np.ndarray] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        J = np.asarray(self.inertia_G, dtype=float).reshape(3, 3)
        offsets = {k: np.asarray(v, dtype=float).ravel()
                   for k, v in self.port_offsets.items()}
        # each test is written so that NaN and inf fail it
        if not all(np.isfinite(a).all() for a in (J, *offsets.values())):
            raise InvalidModalData(
                f"inertia or port offsets of {self.name!r} not finite")
        if np.max(np.abs(J - J.T)) > 1e-9 * max(1.0, np.max(np.abs(J))):
            raise InvalidModalData(f"inertia of {self.name!r} not symmetric")
        if not 0.0 <= self.mass < np.inf:
            raise InvalidModalData(
                f"mass of {self.name!r} negative or not finite ({self.mass})")
        ev = np.linalg.eigvalsh(J)
        if self.mass > 0.0 and np.any(ev <= 0.0):
            raise InvalidModalData(
                f"inertia of {self.name!r} not positive definite (eigs {ev})")
        # triangle inequality on principal moments
        if self.mass > 0.0 and not (
            ev[0] + ev[1] >= ev[2] * (1.0 - 1e-9)
        ):
            raise InvalidModalData(
                f"principal moments of {self.name!r} violate the triangle "
                f"inequality: {ev}")
        object.__setattr__(self, "inertia_G", 0.5 * (J + J.T))
        object.__setattr__(self, "port_offsets", offsets)

    def offset(self, port: str) -> np.ndarray:
        if port == "G":
            return np.zeros(3)
        try:
            return self.port_offsets[port]
        except KeyError:
            raise UnknownPort(
                f"body {self.name!r} has no port {port!r} "
                f"(declared: {sorted(self.port_offsets)})") from None


def rigid_mass_matrix(body: RigidBodyData) -> np.ndarray:
    """Block-diagonal 6x6 mass matrix at the CoM."""
    D = np.zeros((6, 6))
    D[0:3, 0:3] = body.mass * np.eye(3)
    D[3:6, 3:6] = body.inertia_G
    return D


def transport_inertia(J_com: np.ndarray, mass: float, c) -> np.ndarray:
    """Parallel-axis transport: inertia about a point offset by c from the CoM.

    ``c`` and ``J_com`` may carry the same leading batch axes, ``(..., 3)``
    and ``(..., 3, 3)``, with one mass for the batch; each member gets the
    bits of transporting it alone.
    """
    c = np.asarray(c, dtype=float)
    cc = c[..., None, :] @ c[..., :, None]
    return np.asarray(J_com, dtype=float) + mass * (
        cc * np.eye(3) - c[..., :, None] * c[..., None, :])


def compose_rigid(parts: Sequence) -> tuple:
    """Mass-property composition of rigid parts placed in a common frame.

    ``parts`` is a sequence of ``(mass, com_position, inertia_at_com, R)``
    where R rotates body coordinates into the common frame (None: no
    rotation).  One entry may also stack k parts along a leading axis --
    masses (k,), positions (k, 3), inertias and rotations (k, 3, 3) -- so a
    whole link chain enters as one entry.  Positions and rotations may
    also carry leading batch axes, ``(..., [k,] 3)`` and ``(..., [k,] 3,
    3)``, the same on every entry: one call then composes a batch of
    assemblies that share their masses and inertias but not their
    placements, such as one robot at several joint configurations.
    Inertias about a common point simply add, so every part is rotated,
    moved to the composite CoM by the parallel-axis theorem and summed in
    one stacked pass.  Returns ``(mass, com, inertia_at_com)`` of the
    composite in the common frame, the inertia symmetric: the mass as a
    float, the CoM and the inertia with the batch axes leading, each
    member with the bits of composing it alone.
    """
    m, pos, J, R = zip(*map(_part_stack, parts))
    m, pos, J, R = (np.concatenate(m), np.concatenate(pos, axis=-2),
                    np.concatenate(J), np.concatenate(R, axis=-3))
    m_tot = float(m.sum())
    first = m @ pos
    com = first / m_tot if m_tot > 0 else first
    d = pos - com[..., None, :]
    dd = (d * d).sum(axis=-1)[..., None, :] @ m[:, None]
    J = ((R @ J @ np.swapaxes(R, -1, -2)).sum(axis=-3)
         + dd * np.eye(3) - (np.swapaxes(d, -1, -2) * m) @ d)
    return m_tot, com, 0.5 * (J + np.swapaxes(J, -1, -2))


def _part_stack(part) -> tuple:
    """One entry of :func:`compose_rigid` as stacked arrays: masses (k,),
    positions (..., k, 3), inertias (k, 3, 3), rotations (..., k, 3, 3)."""
    mass, pos, J, R = part
    m, pos, J = (np.asarray(a, dtype=float) for a in (mass, pos, J))
    R = (np.broadcast_to(np.eye(3), pos.shape[:-1] + (3, 3)) if R is None
         else np.asarray(R, dtype=float))
    if m.ndim == 0:
        # a single part: give it a part axis of one
        return m[None], pos[..., None, :], J[None], R[..., None, :, :]
    return m, pos, J, R


# ---------------------------------------------------------------------------
# Rotations
# ---------------------------------------------------------------------------

def nearest_dcm(R) -> np.ndarray:
    """Snap a nearly orthonormal matrix to the closest exact rotation.

    Published tables round DCM entries (0.866 for sqrt(3)/2); the polar
    factor restores an exact rotation before :func:`apply_frame` checks it.
    """
    U, _, Vt = np.linalg.svd(np.asarray(R, dtype=float).reshape(3, 3))
    W = U @ Vt
    if np.linalg.det(W) < 0:
        W = U @ np.diag([1.0, 1.0, -1.0]) @ Vt
    return W


def dcm_about_axis(axis, alpha: float) -> np.ndarray:
    """Rotation by alpha about an axis (axis-angle form), |alpha| <= 2*pi;
    ``[v]_new = R @ [v]_old``.  A non-finite alpha or one beyond that
    range raises ``AlphaOutOfRange``, a zero or non-finite axis
    ``ValueError``."""
    if not math.isfinite(alpha):
        raise AlphaOutOfRange("alpha must be finite")
    if abs(alpha) > 2.0 * math.pi + 1e-12:
        raise AlphaOutOfRange(f"|alpha| = {abs(alpha):.6f} exceeds 2*pi")
    axis = np.asarray(axis, dtype=float).ravel()
    nrm = np.linalg.norm(axis)
    if not (math.isfinite(nrm) and nrm > 0.0):
        raise ValueError(f"rotation axis must be finite and nonzero, got {axis}")
    if abs(nrm - 1.0) > 1e-9:
        axis = axis / nrm
    K = skew(axis)
    return np.eye(3) + math.sin(alpha) * K + (1.0 - math.cos(alpha)) * (K @ K)


def apply_frame(sys: StateSpace, channel: str, dcm) -> StateSpace:
    """Re-express one 6-wide channel in the frame reached by the 3x3
    rotation ``dcm`` (``[v]_new = R @ [v]_old``).

    For an output channel the emitted signal becomes ``diag(R,R) @ y``;
    for an input channel the system now accepts the new-frame signal and
    internally applies ``diag(R,R)^T``.  Applying R then R^T restores the
    original system.  A matrix that is not orthonormal with determinant +1
    to 1e-10, or holds a NaN, raises ``ValueError``.
    """
    R = np.asarray(dcm, dtype=float).reshape(3, 3)
    if not np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-10:
        raise ValueError("DCM is not orthonormal")
    if not abs(np.linalg.det(R) - 1.0) <= 1e-10:
        raise ValueError("DCM determinant is not +1")
    R2 = np.zeros((6, 6))
    R2[0:3, 0:3] = R
    R2[3:6, 3:6] = R
    B, C, D = np.array(sys.B), np.array(sys.C), np.array(sys.D)
    hit = False
    if sys.has_input(channel):
        s = sys.in_slice(channel)
        if s.stop - s.start != 6:
            raise WidthMismatch(f"channel {channel!r} is not 6 wide")
        B[:, s] = B[:, s] @ R2.T
        D[:, s] = D[:, s] @ R2.T
        hit = True
    if sys.has_output(channel):
        s = sys.out_slice(channel)
        if s.stop - s.start != 6:
            raise WidthMismatch(f"channel {channel!r} is not 6 wide")
        C[s, :] = R2 @ C[s, :]
        D[s, :] = R2 @ D[s, :]
        hit = True
    if not hit:
        raise UnknownChannel(f"channel {channel!r} not present")
    return StateSpace(sys.A, B, C, D, sys.in_channels, sys.out_channels)


# ---------------------------------------------------------------------------
# Rigid n-port models
# ---------------------------------------------------------------------------

def rigid_nport(body: RigidBodyData, ports: Sequence[str]) -> StateSpace:
    """Stateless model mapping applied wrenches to acceleration twists.

    Channels ``W_<port> -> xdd_<port>`` for every named port, then the
    CoM pair ``W_G -> xdd_G``; a caller wanting some ports only slices
    them with :meth:`~flexasm.linss.StateSpace.subsystem`.  The
    feedthrough is ``T D_G^{-1} T^T`` with T stacking the port
    transports, hence symmetric positive semidefinite.
    """
    names = list(ports) + ["G"]
    D_G = rigid_mass_matrix(body)
    if body.mass <= 0.0:
        raise SingularInertia(f"body {body.name!r} has no mass")
    if np.linalg.cond(D_G) > 1e12:
        raise SingularInertia(f"mass matrix of {body.name!r} is singular")
    T = np.vstack([tau_kinematic(-body.offset(p)) for p in names])
    X = T @ np.linalg.solve(D_G, T.T)
    return StateSpace(
        np.zeros((0, 0)), np.zeros((0, 6 * len(names))),
        np.zeros((6 * len(names), 0)), X,
        tuple((f"W_{p}", 6) for p in names),
        tuple((f"xdd_{p}", 6) for p in names),
    )


# ---------------------------------------------------------------------------
# Flexible body data and port models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModalBodyData:
    """Clamped-free modal description of one flexible body at its port P.

    Parameters
    ----------
    mass:
        Total mass [kg].
    com:
        CoM position relative to the port P, body frame [m].
    inertia_P:
        Inertia tensor *at the port* (body frame) [kg m^2].
    freqs, dampings:
        Clamped-free mode frequencies [rad/s] and damping ratios, one per mode.
    L_P:
        n x 6 modal participation matrix at P (Phi^T M T convention).
    phi_C:
        6 x n mode-shape projection at the output port C, or None for a
        body used only through its P port (e.g. a solar array).
    pc:
        Vector from P to C [m]; required when phi_C is given.
    """

    mass: float
    com: np.ndarray
    inertia_P: np.ndarray
    freqs: np.ndarray
    dampings: np.ndarray
    L_P: np.ndarray
    phi_C: Optional[np.ndarray] = None
    pc: Optional[np.ndarray] = None
    name: str = ""

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float).ravel()
        damp = np.asarray(self.dampings, dtype=float).ravel()
        n = freqs.size
        L = np.asarray(self.L_P, dtype=float)
        phi = None if self.phi_C is None else np.asarray(self.phi_C, dtype=float)
        if L.shape != (n, 6) or phi is not None and phi.shape != (6, n):
            raise InvalidModalData(
                f"{self.name!r}: L_P must be {n} x 6 and phi_C 6 x {n} for {n} modes")
        # each test is written so that NaN and inf fail it
        if not np.all((freqs > 0.0) & (freqs < np.inf)):
            raise InvalidModalData(f"{self.name!r}: mode frequencies must be > 0 and finite")
        if damp.size != n or not np.all((damp > 0.0) & (damp < 1.0)):
            raise InvalidModalData(f"{self.name!r}: dampings must lie in (0, 1), one per "
                                   f"mode ({damp.size} for {n})")
        if not 0.0 <= self.mass < np.inf or (self.mass == 0.0 and n > 0):
            raise InvalidModalData(
                f"{self.name!r}: mass must be finite and positive (zero only "
                f"for a massless rigid transmission)")
        J = np.asarray(self.inertia_P, dtype=float).reshape(3, 3)
        com = np.asarray(self.com, dtype=float).ravel()
        if phi is not None and self.pc is None:
            raise InvalidModalData(f"{self.name!r}: phi_C given without pc")
        pc = None if self.pc is None else np.asarray(self.pc, dtype=float).ravel()
        if not all(np.isfinite(a).all() for a in (J, com, L, phi, pc) if a is not None):
            raise InvalidModalData(
                f"{self.name!r}: inertia, CoM, participation or mode shapes not finite")
        if np.max(np.abs(J - J.T)) > 1e-8 * max(1.0, np.max(np.abs(J))):
            raise InvalidModalData(f"{self.name!r}: inertia_P not symmetric")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "dampings", damp)
        object.__setattr__(self, "L_P", L)
        object.__setattr__(self, "phi_C", phi)
        object.__setattr__(self, "com", com)
        object.__setattr__(self, "inertia_P", 0.5 * (J + J.T))
        object.__setattr__(self, "pc", pc)
        if self.mass > 0.0:
            dp = d_p_matrix(self)
            if np.any(np.linalg.eigvalsh(dp) <= 0.0):
                raise InvalidModalData(f"{self.name!r}: static mass matrix not SPD")

    @property
    def n_modes(self) -> int:
        return self.freqs.size


def port_mass_matrix(mass: float, com, inertia_P) -> np.ndarray:
    """Static 6x6 mass matrix at a port P of a rigid body whose CoM sits
    at ``com`` from P and whose inertia about P is ``inertia_P``.

    ``com`` and ``inertia_P`` may carry the same leading batch axes, with
    one mass for the batch: the result is then the ``(..., 6, 6)`` stack.
    """
    S = skew(com)
    D = np.zeros(S.shape[:-2] + (6, 6))
    D[..., 0:3, 0:3] = mass * np.eye(3)
    D[..., 0:3, 3:6] = -mass * S
    D[..., 3:6, 0:3] = mass * S
    D[..., 3:6, 3:6] = inertia_P
    return D


def d_p_matrix(data: ModalBodyData) -> np.ndarray:
    """Full static mass matrix of the body at its port P."""
    return port_mass_matrix(data.mass, data.com, data.inertia_P)


def residual_mass(data: ModalBodyData) -> np.ndarray:
    """R_P = D_P - L_P^T L_P: mass not captured by the retained modes."""
    return d_p_matrix(data) - data.L_P.T @ data.L_P


def _mode_rates(data: ModalBodyData) -> tuple:
    """The modal stiffness and damping diagonals ``(omega^2, 2 xi omega)``."""
    om = data.freqs
    return om * om, 2.0 * data.dampings * om


def _p_port(data: ModalBodyData) -> tuple:
    """``(A, B, C, D)`` of the clamped-free block at P, ``xdd_P -> W_P``:
    states ``(eta, eta')``, ``B = -L_P`` on the rates, ``D = -R_P`` and
    ``C = [L_P^T diag(omega^2), L_P^T diag(2 xi omega)]``."""
    n, L = data.n_modes, data.L_P
    rates = _mode_rates(data)
    A = np.zeros((2 * n, 2 * n))
    A[:n, n:] = np.eye(n)
    A[n:, :] = -np.hstack([np.diag(g) for g in rates])
    B = np.zeros((2 * n, 6))
    B[n:, :] = -L
    C = np.hstack([L.T @ np.diag(g) for g in rates])
    return A, B, C, -residual_mass(data)


def titop_two_port(data: ModalBodyData) -> StateSpace:
    """Two-port flexible body model: the P-port block with the C port added.

    Inputs ``(W_C, xdd_P)``: child wrench applied at C and imposed twist
    at P.  Outputs ``(xdd_C, W_P)``: twist at C and the wrench the body
    applies to its parent at P.  With zero modes this degenerates to the
    rigid transmission ``xdd_C = tau xdd_P``,
    ``W_P = tau^T W_C - D_P xdd_P``.
    """
    if data.phi_C is None:
        raise InvalidModalData(f"{data.name!r}: two-port model needs phi_C and pc")
    A, B, C, D = _p_port(data)
    phi = data.phi_C
    B_C = np.zeros_like(B)
    B_C[data.n_modes:, :] = phi.T
    C_C = np.hstack([-phi @ np.diag(g) for g in _mode_rates(data)])
    D_CP = tau_kinematic(-data.pc) - phi @ data.L_P   # tau: twist at P -> at C
    return StateSpace(A, np.hstack([B_C, B]), np.vstack([C_C, C]),
                      np.block([[phi @ phi.T, D_CP], [D_CP.T, D]]),
                      (("W_C", 6), ("xdd_P", 6)),
                      (("xdd_C", 6), ("W_P", 6)))


def mode_freq_lfr(data: ModalBodyData, mode_index: int, r: float) -> StateSpace:
    """P-port body model with one mode frequency pulled out as an uncertainty.

    The returned system carries an extra channel pair ``w_omega``/
    ``z_omega`` of width 2 such that closing ``w = delta * z`` (see
    :func:`flexasm.linss.lft_upper`) reproduces exactly the body whose
    selected mode frequency is ``omega0 * (1 + r * delta)``.  The scalar
    appears twice because the frequency enters both integrator couplings
    of the mode, which is the minimal repetition count.  A C port the data
    may carry is left out: the system is the P-port block with the
    uncertainty channels added.

    The uncertain mode's states are rescaled to ``(omega0 * eta, eta')``;
    the transfer behavior at ``delta = 0`` is unchanged.
    """
    j = int(mode_index)
    if not 0 <= j < data.n_modes:
        raise InvalidMode(f"mode index {j} outside 0..{data.n_modes - 1}")
    if not 0.0 < r < 1.0:
        raise InvalidMode(f"relative bound r={r} must lie in (0, 1)")

    A, B, C, D = _p_port(data)
    n = data.n_modes
    om0 = float(data.freqs[j])
    xi = float(data.dampings[j])
    L_j = data.L_P[j, :]

    A[j, n + j] = om0
    A[n + j, j] = -om0
    C[:, j] = L_j * om0

    nw = 2
    B_w = np.zeros((2 * n, nw))
    B_w[j, 1] = 1.0
    B_w[n + j, 0] = -1.0
    B_w[n + j, 1] = -2.0 * xi
    C_z = np.zeros((nw, 2 * n))
    C_z[0, j] = om0 * r
    C_z[1, n + j] = om0 * r
    D_w = np.column_stack([L_j, 2.0 * xi * L_j])
    return StateSpace(A, np.hstack([B, B_w]), np.vstack([C, C_z]),
                      np.block([[D, D_w], [np.zeros((nw, 6 + nw))]]),
                      (("xdd_P", 6), (W_CHANNEL, nw)), (("W_P", 6), (Z_CHANNEL, nw)))
