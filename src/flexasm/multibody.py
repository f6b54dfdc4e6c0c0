"""Multibody building blocks: kinematic transport, flexible two-ports,
rigid n-ports, frame rotations, and the modal-frequency uncertainty LFR.

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
from .linss import StateSpace

__all__ = [
    "skew",
    "tau_kinematic",
    "RigidBodyData",
    "ModalBodyData",
    "Dcm",
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
    "titop_one_port",
    "mode_freq_lfr",
]


def skew(v) -> np.ndarray:
    """Skew-symmetric matrix with skew(v) @ w = v x w."""
    x, y, z = np.asarray(v, dtype=float).ravel()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


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
        if np.max(np.abs(J - J.T)) > 1e-9 * max(1.0, np.max(np.abs(J))):
            raise InvalidModalData(f"inertia of {self.name!r} not symmetric")
        ev = np.linalg.eigvalsh(J)
        if self.mass < 0.0 or (self.mass > 0.0 and np.any(ev <= 0.0)):
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
        object.__setattr__(
            self,
            "port_offsets",
            {k: np.asarray(v, dtype=float).ravel() for k, v in self.port_offsets.items()},
        )

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
    """Parallel-axis transport: inertia about a point offset by c from the CoM."""
    c = np.asarray(c, dtype=float).ravel()
    return np.asarray(J_com, dtype=float) + mass * (float(c @ c) * np.eye(3) - np.outer(c, c))


def compose_rigid(parts: Sequence) -> tuple:
    """Mass-property composition of rigid parts placed in a common frame.

    ``parts`` is a sequence of ``(mass, com_position, inertia_at_com, R)``
    where R rotates body coordinates into the common frame (None: no
    rotation).  One entry may also stack k parts along a leading axis --
    masses (k,), positions (k, 3), inertias and rotations (k, 3, 3) -- so a
    whole link chain enters as one entry.  Inertias about a common point
    simply add, so every part is rotated, moved to the composite CoM by the
    parallel-axis theorem and summed in one stacked pass.  Returns
    ``(mass, com, inertia_at_com)`` of the composite in the common frame,
    the inertia symmetric.
    """
    m, pos, J, R = (np.concatenate(f) for f in zip(*map(_part_stack, parts)))
    m_tot = float(m.sum())
    first = m @ pos
    com = first / m_tot if m_tot > 0 else first
    d = pos - com
    J = ((R @ J @ R.transpose(0, 2, 1)).sum(axis=0)
         + float(m @ (d * d).sum(axis=1)) * np.eye(3) - (d.T * m) @ d)
    return m_tot, com, 0.5 * (J + J.T)


def _part_stack(part) -> tuple:
    """One entry of :func:`compose_rigid` as stacked arrays."""
    mass, pos, J, R = part
    m = np.asarray(mass, dtype=float).reshape(-1)
    k = m.size
    if R is None:
        R = np.broadcast_to(np.eye(3), (k, 3, 3))
    return (m, np.asarray(pos, dtype=float).reshape(k, 3),
            np.asarray(J, dtype=float).reshape(k, 3, 3),
            np.asarray(R, dtype=float).reshape(k, 3, 3))


# ---------------------------------------------------------------------------
# Rotations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dcm:
    """Direction cosine matrix; ``[v]_new = R @ [v]_old``."""

    R: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float).reshape(3, 3)
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-10:
            raise ValueError("DCM is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > 1e-10:
            raise ValueError("DCM determinant is not +1")
        object.__setattr__(self, "R", R)

    @property
    def x2(self) -> np.ndarray:
        """diag(R, R) acting on stacked 6-wide port signals."""
        out = np.zeros((6, 6))
        out[0:3, 0:3] = self.R
        out[3:6, 3:6] = self.R
        return out


def nearest_dcm(R) -> Dcm:
    """Snap a nearly orthonormal matrix to the closest exact rotation.

    Published tables round DCM entries (0.866 for sqrt(3)/2); the polar
    factor restores an exact rotation before the strict Dcm checks.
    """
    U, _, Vt = np.linalg.svd(np.asarray(R, dtype=float).reshape(3, 3))
    W = U @ Vt
    if np.linalg.det(W) < 0:
        W = U @ np.diag([1.0, 1.0, -1.0]) @ Vt
    return Dcm(W)


def dcm_about_axis(axis, alpha: float) -> Dcm:
    """Rotation by alpha about a unit axis (axis-angle form), |alpha| <= 2*pi."""
    if not math.isfinite(alpha):
        raise AlphaOutOfRange("alpha must be finite")
    if abs(alpha) > 2.0 * math.pi + 1e-12:
        raise AlphaOutOfRange(
            f"|alpha| = {abs(alpha):.6f} exceeds 2*pi: tan(alpha/4) leaves [-1, 1]")
    axis = np.asarray(axis, dtype=float).ravel()
    nrm = np.linalg.norm(axis)
    if abs(nrm - 1.0) > 1e-9:
        axis = axis / nrm
    K = skew(axis)
    R = np.eye(3) + math.sin(alpha) * K + (1.0 - math.cos(alpha)) * (K @ K)
    return Dcm(R)


def apply_frame(sys: StateSpace, channel: str, dcm) -> StateSpace:
    """Re-express one 6-wide channel in the frame reached by the DCM.

    For an output channel the emitted signal becomes ``diag(R,R) @ y``;
    for an input channel the system now accepts the new-frame signal and
    internally applies ``diag(R,R)^T``.  Applying R then R^T restores the
    original system.
    """
    R2 = dcm.x2 if isinstance(dcm, Dcm) else Dcm(dcm).x2
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

def rigid_nport(body: RigidBodyData, ports: Sequence[str] = (),
                with_com_port: bool = True) -> StateSpace:
    """Stateless model mapping applied wrenches to acceleration twists.

    Channels ``W_<port> -> xdd_<port>`` for every named port plus, by
    default, the CoM pair ``W_G -> xdd_G``.  The feedthrough is
    ``T D_G^{-1} T^T`` with T stacking the port transports, hence
    symmetric positive semidefinite.
    """
    names = list(ports) + (["G"] if with_com_port else [])
    if not names:
        raise UnknownPort("at least one port (or the CoM) is required")
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
# Flexible body data and two-port models
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
        Clamped-free mode frequencies [rad/s] and damping ratios.
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
        if damp.size == 1 and n > 1:
            damp = np.full(n, damp[0])
        L = np.asarray(self.L_P, dtype=float).reshape(n, 6) if n else np.zeros((0, 6))
        if np.any(freqs <= 0.0):
            raise InvalidModalData(f"{self.name!r}: mode frequencies must be > 0")
        if damp.size != n or np.any(damp <= 0.0) or np.any(damp >= 1.0):
            raise InvalidModalData(f"{self.name!r}: dampings must lie in (0, 1)")
        if self.mass < 0.0 or (self.mass == 0.0 and n > 0):
            raise InvalidModalData(
                f"{self.name!r}: mass must be positive (zero only for a "
                f"massless rigid transmission)")
        J = np.asarray(self.inertia_P, dtype=float).reshape(3, 3)
        if np.max(np.abs(J - J.T)) > 1e-8 * max(1.0, np.max(np.abs(J))):
            raise InvalidModalData(f"{self.name!r}: inertia_P not symmetric")
        phi = self.phi_C
        if phi is not None:
            phi = np.asarray(phi, dtype=float).reshape(6, n)
            if self.pc is None:
                raise InvalidModalData(f"{self.name!r}: phi_C given without pc")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "dampings", damp)
        object.__setattr__(self, "L_P", L)
        object.__setattr__(self, "phi_C", phi)
        object.__setattr__(self, "com", np.asarray(self.com, dtype=float).ravel())
        object.__setattr__(self, "inertia_P", 0.5 * (J + J.T))
        if self.pc is not None:
            object.__setattr__(self, "pc", np.asarray(self.pc, dtype=float).ravel())
        if self.mass > 0.0:
            dp = d_p_matrix(self)
            if np.any(np.linalg.eigvalsh(dp) <= 0.0):
                raise InvalidModalData(f"{self.name!r}: static mass matrix not SPD")

    @property
    def n_modes(self) -> int:
        return self.freqs.size

    def validate(self) -> list:
        """Soft checks; returns human-readable warnings (empty when clean).

        Residual-mass indefiniteness is reported, not raised: externally
        supplied truncated mode sets routinely violate it numerically.
        """
        warnings = []
        R = residual_mass(self)
        ev = np.linalg.eigvalsh(R)
        if ev[0] < -1e-10 * max(1.0, ev[-1]):
            warnings.append(
                f"{self.name or 'body'}: residual mass matrix indefinite "
                f"(min eig {ev[0]:.3e}); truncated mode set suspected")
        return warnings


def port_mass_matrix(mass: float, com, inertia_P) -> np.ndarray:
    """Static 6x6 mass matrix at a port P of a rigid body whose CoM sits
    at ``com`` from P and whose inertia about P is ``inertia_P``."""
    D = np.zeros((6, 6))
    D[0:3, 0:3] = mass * np.eye(3)
    D[0:3, 3:6] = -mass * skew(com)
    D[3:6, 0:3] = mass * skew(com)
    D[3:6, 3:6] = inertia_P
    return D


def d_p_matrix(data: ModalBodyData) -> np.ndarray:
    """Full static mass matrix of the body at its port P."""
    return port_mass_matrix(data.mass, data.com, data.inertia_P)


def residual_mass(data: ModalBodyData) -> np.ndarray:
    """R_P = D_P - L_P^T L_P: mass not captured by the retained modes."""
    return d_p_matrix(data) - data.L_P.T @ data.L_P


def _titop_matrices(data: ModalBodyData, two_port: bool):
    n = data.n_modes
    om = data.freqs
    om2 = om * om
    two_xi_om = 2.0 * data.dampings * om
    A = np.zeros((2 * n, 2 * n))
    A[:n, n:] = np.eye(n)
    A[n:, :n] = -np.diag(om2)
    A[n:, n:] = -np.diag(two_xi_om)

    L = data.L_P
    if two_port:
        phi = data.phi_C
        tau_cp = tau_kinematic(-data.pc)  # twist at P -> twist at C
        B = np.zeros((2 * n, 12))
        B[n:, 0:6] = phi.T
        B[n:, 6:12] = -L
        C = np.zeros((12, 2 * n))
        C[0:6, :n] = -phi @ np.diag(om2)
        C[0:6, n:] = -phi @ np.diag(two_xi_om)
        C[6:12, :n] = L.T @ np.diag(om2)
        C[6:12, n:] = L.T @ np.diag(two_xi_om)
        D = np.zeros((12, 12))
        D[0:6, 0:6] = phi @ phi.T
        D[0:6, 6:12] = tau_cp - phi @ L
        D[6:12, 0:6] = (tau_cp - phi @ L).T
        D[6:12, 6:12] = -(d_p_matrix(data) - L.T @ L)
    else:
        B = np.zeros((2 * n, 6))
        B[n:, :] = -L
        C = np.zeros((6, 2 * n))
        C[:, :n] = L.T @ np.diag(om2)
        C[:, n:] = L.T @ np.diag(two_xi_om)
        D = -(d_p_matrix(data) - L.T @ L)
    return A, B, C, D


def titop_two_port(data: ModalBodyData) -> StateSpace:
    """Two-port flexible body model.

    Inputs ``(W_C, xdd_P)``: child wrench applied at C and imposed twist
    at P.  Outputs ``(xdd_C, W_P)``: twist at C and the wrench the body
    applies to its parent at P.  With zero modes this degenerates to the
    rigid transmission ``xdd_C = tau xdd_P``,
    ``W_P = tau^T W_C - D_P xdd_P``.
    """
    if data.phi_C is None:
        raise InvalidModalData(f"{data.name!r}: two-port model needs phi_C and pc")
    A, B, C, D = _titop_matrices(data, two_port=True)
    return StateSpace(A, B, C, D,
                      (("W_C", 6), ("xdd_P", 6)),
                      (("xdd_C", 6), ("W_P", 6)))


def titop_one_port(data: ModalBodyData) -> StateSpace:
    """Direct dynamic model at P only: ``xdd_P -> W_P`` (end appendage)."""
    A, B, C, D = _titop_matrices(data, two_port=False)
    return StateSpace(A, B, C, D, (("xdd_P", 6),), (("W_P", 6),))


def mode_freq_lfr(data: ModalBodyData, mode_index: int, r: float) -> StateSpace:
    """Body model with one mode frequency pulled out as an uncertainty.

    The returned system carries an extra channel pair ``w_omega``/
    ``z_omega`` of width 2 such that closing ``w = delta * z`` (see
    :func:`flexasm.linss.lft_upper`) reproduces exactly the body whose
    selected mode frequency is ``omega0 * (1 + r * delta)``.  The scalar
    appears twice because the frequency enters both integrator couplings
    of the mode, which is the minimal repetition count.

    The uncertain mode's states are rescaled to ``(omega0 * eta, eta')``;
    the transfer behavior at ``delta = 0`` is unchanged.
    """
    j = int(mode_index)
    if not 0 <= j < data.n_modes:
        raise InvalidMode(f"mode index {j} outside 0..{data.n_modes - 1}")
    if not 0.0 < r < 1.0:
        raise InvalidMode(f"relative bound r={r} must lie in (0, 1)")

    two_port = data.phi_C is not None
    A, B, C, D = _titop_matrices(data, two_port=two_port)
    A = np.array(A)
    n = data.n_modes
    om0 = float(data.freqs[j])
    xi = float(data.dampings[j])
    L_j = data.L_P[j, :]

    A[j, n + j] = om0
    A[n + j, j] = -om0

    nw = 2
    B_w = np.zeros((2 * n, nw))
    B_w[j, 1] = 1.0
    B_w[n + j, 0] = -1.0
    B_w[n + j, 1] = -2.0 * xi
    C_z = np.zeros((nw, 2 * n))
    C_z[0, j] = om0 * r
    C_z[1, n + j] = om0 * r

    C = np.array(C)
    if two_port:
        phi_j = data.phi_C[:, j]
        C[0:6, j] = -phi_j * om0
        C[6:12, j] = L_j * om0
        D_w = np.zeros((12, nw))
        D_w[0:6, 0] = -phi_j
        D_w[0:6, 1] = -2.0 * xi * phi_j
        D_w[6:12, 0] = L_j
        D_w[6:12, 1] = 2.0 * xi * L_j
        ins = (("W_C", 6), ("xdd_P", 6), ("w_omega", nw))
        outs = (("xdd_C", 6), ("W_P", 6), ("z_omega", nw))
    else:
        C[:, j] = L_j * om0
        D_w = np.zeros((6, nw))
        D_w[:, 0] = L_j
        D_w[:, 1] = 2.0 * xi * L_j
        ins = (("xdd_P", 6), ("w_omega", nw))
        outs = (("W_P", 6), ("z_omega", nw))

    B_full = np.hstack([B, B_w])
    C_full = np.vstack([C, C_z])
    D_full = np.zeros((C_full.shape[0], B_full.shape[1]))
    D_full[: D.shape[0], : D.shape[1]] = D
    D_full[: D.shape[0], D.shape[1]:] = D_w
    return StateSpace(A, B_full, C_full, D_full, ins, outs)
