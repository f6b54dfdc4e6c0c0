"""Modal data supply: lumped-parameter tile lattices, clamped-free modes,
reduction to port-level modal data, and body-file ingestion.

The lattice generator stands in for a plate finite-element model: one
6-dof lumped mass per tile center, 6-dof springs between side-adjacent
tiles, softened springs across diagonals, and ground springs tying the
clamp-adjacent tiles to the spacecraft attachment point.  Default
stiffness is calibrated so a 26-tile strip cantilevers with its first
mode near 0.912 Hz, keeping generated structures in the frequency band of
published data.

Reduction follows the standard clamped-free recipe: with mass-normalized
mode shapes ``phi`` and the rigid transport ``T`` from the clamp point,

    L_P = phi^T M T,      D_P = T^T M T,

so that retaining all modes gives ``L_P^T L_P = D_P`` exactly and any
truncation leaves a positive-semidefinite residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Optional

import numpy as np
import yaml

from .errors import (
    DisconnectedLayout,
    EigenFailure,
    InvalidModalData,
    LayoutError,
    ParseError,
    SchemaError,
    UnitError,
    UnknownPoint,
)
from .multibody import ModalBodyData, tau_kinematic, transport_inertia

__all__ = [
    "TileLayout",
    "LatticeStiffness",
    "LatticeModel",
    "default_layout",
    "build_lattice",
    "clamped_free_modes",
    "modal_reduce",
    "load_body_file",
    "DEFAULT_TILE_MASS",
    "DEFAULT_TILE_INERTIA",
    "DEFAULT_DAMPING",
]

DEFAULT_TILE_MASS = 6.0423
DEFAULT_TILE_INERTIA = np.diag([0.5041, 0.5041, 1.0071])
DEFAULT_DAMPING = 0.005

# Calibrated so the default 26-tile strip's first clamped mode lands on
# 0.912 Hz (one-dimensional scaling: frequencies go as sqrt(k)).
DEFAULT_K_TRANS = 2.3268060e6

# The structure's clamp sits at the layout origin.
CLAMP_POINT = np.zeros(3)


def _adjacent(a, b) -> str:
    """How two lattice cells touch: ``"side"``, ``"diag"``, or ``""`` when
    they do not (a cell does not touch itself)."""
    dr, dc = abs(a[0] - b[0]), abs(a[1] - b[1])
    if dr + dc == 1:
        return "side"
    if dr == 1 and dc == 1:
        return "diag"
    return ""


@dataclass(frozen=True)
class TileLayout:
    """Occupied lattice cells in assembly order.

    Every cell after the first must touch an earlier cell on a side or a
    diagonal, so the walking robot can always reach the next tile.  Pass
    ``ordered=False`` to skip that growth check (the lattice builder will
    still reject disconnected sets).  A coordinate that is not an integer
    (a float, or a bool) raises ``TypeError`` naming the cell: ``int()``
    would move the tile to a cell nobody wrote.
    """

    cells: tuple
    ordered: bool = True

    def __post_init__(self):
        for k, cell in enumerate(self.cells):
            if any(isinstance(x, bool) or not isinstance(x, Integral) for x in cell):
                raise TypeError(f"layout cell {cell!r} (tile {k + 1}) must be "
                                "two integers")
        cells = tuple((int(r), int(c)) for r, c in self.cells)
        if len(set(cells)) != len(cells):
            raise LayoutError("layout cells must be unique")
        if not cells:
            raise LayoutError("layout is empty")
        if self.ordered:
            for k in range(1, len(cells)):
                if not any(_adjacent(cells[k], cells[j]) for j in range(k)):
                    raise LayoutError(
                        f"cell {cells[k]} (tile {k + 1}) touches no earlier tile")
        object.__setattr__(self, "cells", cells)

    def __len__(self):
        return len(self.cells)

    def center(self, tile: int) -> np.ndarray:
        """Center of tile ``tile`` (1-based assembly index), clamp at origin;
        the cells are 1 m squares."""
        r, c = self.cells[tile - 1]
        return np.array([c + 0.5, r + 0.5, 0.0])

    def head(self, n: int) -> "TileLayout":
        return TileLayout(self.cells[:n], ordered=self.ordered)


def default_layout(n: int, width: int = 2) -> TileLayout:
    """Serpentine strip filling rows of the given width."""
    cells = []
    r = 0
    while len(cells) < n:
        cols = range(width) if r % 2 == 0 else range(width - 1, -1, -1)
        for c in cols:
            if len(cells) < n:
                cells.append((r, c))
        r += 1
    return TileLayout(tuple(cells))


@dataclass(frozen=True)
class LatticeStiffness:
    """Inter-tile coupling stiffness [N/m and N m/rad].

    Diagonal couplings are softened by ``diag_scale``; the ground springs
    at the clamp take the side values.  ``k_rot`` left out is a quarter of
    ``k_trans``.
    """

    k_trans: float = DEFAULT_K_TRANS
    k_rot: Optional[float] = None
    diag_scale: float = 0.5

    def __post_init__(self):
        if self.k_rot is None:
            object.__setattr__(self, "k_rot", 0.25 * self.k_trans)

    def element(self, scale: float = 1.0) -> np.ndarray:
        return np.diag([self.k_trans] * 3 + [self.k_rot] * 3) * scale


@dataclass(frozen=True)
class LatticeModel:
    """Assembled lumped-parameter model.

    Node 0 is the massless clamp node at the attachment point; its six
    dofs are the ``clamped_dofs``.  M is positive definite on the free
    dofs, K on the free dofs once the clamp springs are in.
    """

    node_positions: np.ndarray          # (n_nodes, 3)
    M: np.ndarray
    K: np.ndarray
    clamped_dofs: tuple
    tile_map: dict                      # tile id (1-based) -> node index

    @property
    def free_dofs(self) -> np.ndarray:
        n = self.M.shape[0]
        mask = np.ones(n, dtype=bool)
        mask[list(self.clamped_dofs)] = False
        return np.nonzero(mask)[0]


def build_lattice(layout: TileLayout, tile_mass: float = DEFAULT_TILE_MASS,
                  tile_inertia=None,
                  stiffness: LatticeStiffness = LatticeStiffness()) -> LatticeModel:
    """Assemble mass and stiffness matrices for a tile layout.

    Springs act on the 6-dof relative motion at the midpoint between the
    joined tile centers; ground springs act at the clamp point
    (``CLAMP_POINT``, the layout origin) and attach every tile whose
    center lies within one tile diagonal of it.
    """
    if tile_inertia is None:
        tile_inertia = DEFAULT_TILE_INERTIA
    n = len(layout)
    positions = np.vstack([CLAMP_POINT] +
                          [CLAMP_POINT + layout.center(t) for t in range(1, n + 1)])
    ndof = 6 * (n + 1)
    M = np.zeros((ndof, ndof))
    for t in range(1, n + 1):
        s = slice(6 * t, 6 * t + 3)
        M[s, s] = tile_mass * np.eye(3)
        M[6 * t + 3:6 * t + 6, 6 * t + 3:6 * t + 6] = tile_inertia

    K = np.zeros((ndof, ndof))

    pairs = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            kind = _adjacent(layout.cells[a - 1], layout.cells[b - 1])
            if kind:
                pairs.append((a, b, kind))
    for a, b, kind in pairs:
        mid = 0.5 * (positions[a] + positions[b])
        scale = 1.0 if kind == "side" else stiffness.diag_scale
        ta = tau_kinematic(positions[a] - mid)
        tb = tau_kinematic(positions[b] - mid)
        B = np.zeros((6, ndof))
        B[:, 6 * a:6 * a + 6] = ta
        B[:, 6 * b:6 * b + 6] = -tb
        K += B.T @ stiffness.element(scale) @ B

    clamp_reach = np.sqrt(2.0) / 2.0 + 1e-9
    clamped_tiles = [t for t in range(1, n + 1)
                     if np.linalg.norm(positions[t] - CLAMP_POINT) <= clamp_reach]
    for t in clamped_tiles:
        tt = tau_kinematic(positions[t] - CLAMP_POINT)
        B = np.zeros((6, ndof))
        B[:, 6 * t:6 * t + 6] = tt
        B[:, 0:6] = -np.eye(6)
        K += B.T @ stiffness.element() @ B

    # connectivity: every tile must reach a clamped tile through springs
    if not clamped_tiles:
        raise DisconnectedLayout("no tile lies adjacent to the clamp point")
    reach = set(clamped_tiles)
    frontier = list(clamped_tiles)
    adj = {t: set() for t in range(1, n + 1)}
    for a, b, _ in pairs:
        adj[a].add(b)
        adj[b].add(a)
    while frontier:
        t = frontier.pop()
        for u in adj[t]:
            if u not in reach:
                reach.add(u)
                frontier.append(u)
    if len(reach) != n:
        missing = sorted(set(range(1, n + 1)) - reach)
        raise DisconnectedLayout(f"tiles {missing} are not connected to the clamp")

    return LatticeModel(positions, M, K, tuple(range(6)),
                        {t: t for t in range(1, n + 1)})


def clamped_free_modes(model: LatticeModel, n_modes: int):
    """Lowest clamped-free modes: ``K phi = w^2 M phi`` on the free dofs.

    The pencil is reduced to a standard symmetric problem through the
    Cholesky factor ``M = L L^T``: ``(L^-1 K L^-T) Y = Y diag(w^2)`` and
    ``phi = L^-T Y``.  Returns ascending frequencies [rad/s] and
    mass-normalized shapes (``phi^T M phi = I``) as an ``(n_free,
    n_modes)`` array; each shape's sign is whatever the eigensolver
    returns.
    """
    free = model.free_dofs
    nf = free.size
    if n_modes > nf:
        raise EigenFailure(f"requested {n_modes} modes from {nf} free dofs")
    if n_modes == 0:
        return np.zeros(0), np.zeros((nf, 0))
    Kff = model.K[np.ix_(free, free)]
    Mff = model.M[np.ix_(free, free)]
    try:
        Linv = np.linalg.inv(np.linalg.cholesky(Mff))
        vals, Y = np.linalg.eigh(Linv @ Kff @ Linv.T)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    vals = vals[:n_modes]
    if np.any(vals <= 0.0):
        raise EigenFailure(
            f"non-positive eigenvalue {vals.min():.3e}: structure not clamped")
    return np.sqrt(vals), Linv.T @ Y[:, :n_modes]


def _rigid_transport(model: LatticeModel, point) -> np.ndarray:
    """Free-dof displacements from a unit rigid twist at ``point``."""
    free = model.free_dofs
    T = np.zeros((free.size, 6))
    for row, dof in enumerate(free):
        node = dof // 6
        comp = dof % 6
        T[row, :] = tau_kinematic(point - model.node_positions[node])[comp, :]
    return T


def modal_reduce(model: LatticeModel, output_tile: int, n_modes: int,
                 xi: float) -> ModalBodyData:
    """Condense a lattice into port-level modal data.

    The clamp node is the parent port P; ``output_tile`` names the tile
    whose center acts as the child port C (the docking port).  Every mode
    takes the damping ratio ``xi``.
    """
    if output_tile not in model.tile_map:
        raise UnknownPoint(f"tile {output_tile} not in the lattice "
                           f"(tiles {sorted(model.tile_map)})")
    free = model.free_dofs
    Mff = model.M[np.ix_(free, free)]
    P = model.node_positions[0]
    T = _rigid_transport(model, P)

    omegas, phi = clamped_free_modes(model, n_modes)
    L = phi.T @ Mff @ T
    D_P = T.T @ Mff @ T

    mass = float(D_P[0, 0])
    S = -D_P[0:3, 3:6] / mass
    com = np.array([S[2, 1], S[0, 2], S[1, 0]])
    inertia_P = D_P[3:6, 3:6]

    node = model.tile_map[output_tile]
    rows = [np.where(free == 6 * node + k)[0][0] for k in range(6)]
    phi_C = phi[rows, :]
    pc = model.node_positions[node] - P

    return ModalBodyData(
        mass=mass, com=com, inertia_P=inertia_P,
        freqs=omegas, dampings=[xi] * len(omegas),
        L_P=L, phi_C=phi_C, pc=pc,
        name=f"lattice_{len(model.tile_map)}t_port{output_tile}",
    )


# ---------------------------------------------------------------------------
# Body files
# ---------------------------------------------------------------------------

_REQUIRED_UNITS = {
    "mass": "mass_kg",
    "freqs": "freqs_hz",
    "inertia": "inertia_kgm2",
    "com": "com_m",
    "pc": "pc_m",
}


def _unit_checked(doc: dict, logical: str, required: bool):
    """Fetch a field through its unit-suffixed key only."""
    key = _REQUIRED_UNITS[logical]
    if key in doc:
        return doc[key]
    bare = [k for k in doc if k == logical or k.startswith(logical + "_")]
    if bare:
        raise UnitError(
            f"field {logical!r} must be written as {key!r} (found {bare})")
    if required:
        raise SchemaError(f"missing required field {key!r}")
    return None


def _inertia_from_rows(rows, convention=None) -> np.ndarray:
    """Tensor from upper-triangle rows; ``convention`` is poi, or tensor if None."""
    try:
        (xx, pxy, pxz), (yy, pyz), (zz,) = ([float(v) for v in r] for r in rows)
    except (TypeError, ValueError) as exc:
        raise SchemaError(
            "inertia_kgm2 must be upper-triangle rows [xx,xy,xz],[yy,yz],[zz]"
        ) from exc
    if convention == "poi":
        pxy, pxz, pyz = -pxy, -pxz, -pyz
    elif convention not in (None, "tensor"):
        raise SchemaError(f"inertia_convention must be poi|tensor, got {convention!r}")
    return np.array([[xx, pxy, pxz], [pxy, yy, pyz], [pxz, pyz, zz]])


def load_body_file(path) -> ModalBodyData:
    """Read one flexible-body description (YAML, unit-suffixed keys).

    The participation block may carry more rows than retained modes (as
    published tables do); ``mode_rows`` then selects the rows, 1-based,
    pairing them with ``freqs_hz`` in order.  Inertia may be given at the
    CoM or at the port, products either as a tensor or as positive
    integrals (``inertia_convention: poi``).  Modal data that
    ``ModalBodyData`` rejects is a ``SchemaError`` naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ParseError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a mapping")

    name = str(doc.get("name", "body"))
    mass = float(_unit_checked(doc, "mass", required=True))
    if mass <= 0.0:
        raise SchemaError(f"{name}: mass_kg must be positive")

    freqs_hz = np.asarray(_unit_checked(doc, "freqs", required=False) or [], dtype=float)
    n = freqs_hz.size

    com = _unit_checked(doc, "com", required=False)
    com = np.zeros(3) if com is None else np.asarray(com, dtype=float).ravel()
    inertia_rows = _unit_checked(doc, "inertia", required=True)
    J = _inertia_from_rows(inertia_rows, doc.get("inertia_convention"))
    frame = str(doc.get("inertia_frame", "port"))
    if frame == "com":
        J = transport_inertia(J, mass, com)
    elif frame != "port":
        raise SchemaError(f"{name}: inertia_frame must be com|port, got {frame!r}")

    L_full = np.asarray(doc.get("participation", np.zeros((0, 6))), dtype=float)
    if L_full.ndim != 2 or (L_full.size and L_full.shape[1] != 6):
        raise SchemaError(f"{name}: participation rows must have 6 columns")
    mode_rows = doc.get("mode_rows")
    if mode_rows is not None:
        rows = [int(r) - 1 for r in mode_rows]
        if len(rows) != n or any(not 0 <= r < L_full.shape[0] for r in rows):
            raise SchemaError(f"{name}: mode_rows must select one existing row "
                              "per retained mode")
        L = L_full[rows, :]
    else:
        if L_full.shape[0] < n:
            raise SchemaError(f"{name}: participation has {L_full.shape[0]} rows "
                              f"for {n} modes")
        L = L_full[:n, :]

    shapes = doc.get("mode_shapes_at_c")
    pc = _unit_checked(doc, "pc", required=False)
    phi_C = None
    if shapes is not None:
        phi_C = np.asarray(shapes, dtype=float)
        if phi_C.shape != (6, n):
            raise SchemaError(f"{name}: mode_shapes_at_c must be 6 x {n}")
    if pc is not None:
        pc = np.asarray(pc, dtype=float).ravel()

    try:
        return ModalBodyData(
            mass=mass, com=com, inertia_P=J,
            freqs=2.0 * np.pi * freqs_hz, dampings=doc.get("dampings", []),
            L_P=L, phi_C=phi_C, pc=pc, name=name)
    except InvalidModalData as exc:
        raise SchemaError(f"{path}: {exc}") from exc
