"""Modal data supply: lumped-parameter tile lattices, clamped-free modes,
reduction to port-level modal data, and the reading of input files.

Every input file, scenario or body, is read by :func:`load_yaml` and its
blocks by :func:`read_block` through a table of the keys they may hold
(``BODY_FILE_KEYS`` here, ``scenario.SCENARIO_BLOCKS`` for scenarios), so an
unknown key and a key without its unit suffix are refused by one rule.
Counts and mode rows are read by one integer rule (:func:`_count`), and
no real value may be a boolean or a quoted string.

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
truncation leaves a positive-semidefinite residual.  The structure is
clamped at P, so its modes, ``L_P`` and ``D_P`` depend on the structure
alone: :func:`modal_reduce` solves them once and gives every tile its own
docking port C, which only picks that tile's rows of the mode shapes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path
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


def _touches_clamp(cell) -> bool:
    """Whether a lattice cell touches the clamp corner at the layout
    origin: the four cells with ``r`` and ``c`` in {-1, 0}, whose centers
    lie within one tile half-diagonal of the clamp point."""
    return cell[0] in (-1, 0) and cell[1] in (-1, 0)


@dataclass(frozen=True)
class TileLayout:
    """Occupied lattice cells in assembly order.

    The first cell is the mission's first structure, so it must touch the
    clamp corner at the origin, its row and column in {-1, 0}, else
    ``DisconnectedLayout``; every cell after it must touch an earlier cell
    on a side or a diagonal, so the walking robot can always reach the
    next tile.  Every layout, and every head of one, is therefore tied to
    the clamp through the lattice's springs.  A coordinate that is not an
    integer (a float, or a bool) raises ``TypeError`` naming the cell:
    ``int()`` would move the tile to a cell nobody wrote.
    """

    cells: tuple

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
        if not _touches_clamp(cells[0]):
            raise DisconnectedLayout(
                f"cell {cells[0]} (tile 1) does not touch the clamp corner: "
                "the first cell needs row and column in {-1, 0}")
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
        return TileLayout(self.cells[:n])


def default_layout(n: int) -> TileLayout:
    """Serpentine strip two tiles wide: (0, 0), (0, 1), (1, 1), (1, 0),
    (2, 0), ..."""
    return TileLayout(tuple((k // 2, (k % 2) ^ (k // 2 % 2)) for k in range(n)))


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

    Numbered by construction: node 0 is the massless clamp node at the
    attachment point, its six dofs the ``clamped_dofs``, and tile t
    (1-based) is node t.  M is positive definite on the free dofs, K on
    the free dofs once the clamp springs are in.
    """

    node_positions: np.ndarray          # (n_nodes, 3)
    M: np.ndarray
    K: np.ndarray
    clamped_dofs: tuple

    @property
    def free_dofs(self) -> np.ndarray:
        n = self.M.shape[0]
        mask = np.ones(n, dtype=bool)
        mask[list(self.clamped_dofs)] = False
        return np.nonzero(mask)[0]


def build_lattice(layout: TileLayout, tile_mass: float, tile_inertia,
                  stiffness: LatticeStiffness) -> LatticeModel:
    """Assemble mass and stiffness matrices for a tile layout of tiles of
    one mass and one 3x3 inertia about their centers.

    Springs act on the 6-dof relative motion at the midpoint between the
    joined tile centers; ground springs act at the clamp point
    (``CLAMP_POINT``, the layout origin) and attach every tile that
    touches it, in assembly order.
    """
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

    # the layout's first cell touches the clamp and every later cell an
    # earlier one, so every tile reaches a clamped tile through springs
    for t, cell in enumerate(layout.cells, start=1):
        if _touches_clamp(cell):
            B = np.zeros((6, ndof))
            B[:, 6 * t:6 * t + 6] = tau_kinematic(positions[t] - CLAMP_POINT)
            B[:, 0:6] = -np.eye(6)
            K += B.T @ stiffness.element() @ B

    return LatticeModel(positions, M, K, tuple(range(6)))


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


def modal_reduce(model: LatticeModel, n_modes: int, xi: float) -> list:
    """Condense a lattice into port-level modal data, one entry per tile.

    The clamp node is the parent port P; entry ``t - 1`` takes tile t's
    center as the child port C (the docking port).  The modes, ``L_P`` and
    ``D_P`` are the structure's alone, so one eigen-solve serves every
    entry, and each port only picks its rows of the mode shapes.  Every
    mode takes the damping ratio ``xi``.
    """
    n_tiles = len(model.node_positions) - 1
    free = model.free_dofs
    Mff = model.M[np.ix_(free, free)]
    P = model.node_positions[0]
    # free-dof displacements from a unit rigid twist at P, one transport per node
    T = np.vstack([tau_kinematic(P - x) for x in model.node_positions])[free]

    omegas, phi = clamped_free_modes(model, n_modes)
    L = phi.T @ Mff @ T
    D_P = T.T @ Mff @ T

    mass = float(D_P[0, 0])
    S = -D_P[0:3, 3:6] / mass
    com = np.array([S[2, 1], S[0, 2], S[1, 0]])

    return [ModalBodyData(
        mass=mass, com=com, inertia_P=D_P[3:6, 3:6],
        freqs=omegas, dampings=[xi] * len(omegas),
        L_P=L, phi_C=phi[free // 6 == t], pc=model.node_positions[t] - P,
        name=f"lattice_{n_tiles}t_port{t}") for t in range(1, n_tiles + 1)]


# ---------------------------------------------------------------------------
# Body files
# ---------------------------------------------------------------------------

UNIT_SUFFIXES = ("kg", "m", "hz", "kgm2")


def _count(value, label):
    """A YAML integer: ``int()`` would truncate 2.7 to a count nobody wrote,
    and read ``true`` as 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{label} must be an integer, got {value!r}")
    return value


def _has_non_number(value) -> bool:
    """Whether a YAML boolean or string sits anywhere in ``value``:
    ``float()`` would read ``true`` as 1 and ``"0.5"`` as 0.5."""
    if isinstance(value, (list, tuple)):
        return any(map(_has_non_number, value))
    return isinstance(value, (bool, str, bytes))


def _real(value, label):
    if _has_non_number(value):
        raise ValueError(f"{label} must be a real number, got {value!r}")
    return float(value)


def _floats(value, label):
    if _has_non_number(value):
        raise ValueError(f"{label} must hold real numbers, got {value!r}")
    return np.asarray(value, dtype=float)


def _loader(base):
    """The safe loader ``base`` with YAML 1.2 floats (YAML 1.1 leaves
    2.3e6 a string)."""
    loader = type("_Loader", (base,), {})
    loader.add_implicit_resolver(
        "tag:yaml.org,2002:float", re.compile(
            r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"), list("-+0123456789."))
    return loader


# libyaml's parser where PyYAML was built with it, else the pure-Python one
_Loader = _loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def load_yaml(path) -> dict:
    """The top-level mapping of a YAML input file (read by ``_Loader``,
    libyaml's safe loader when PyYAML has it, with YAML 1.2 floats); a
    file that cannot be read or parsed, or is not a mapping, is a
    ``ParseError`` naming it.  Under libyaml a syntax error names the
    line and column but shows no snippet of the file."""
    try:
        doc = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=_Loader)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ParseError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a mapping")
    return doc


def read_block(doc, table, block):
    """``{field: value}`` for the keys the block ``doc`` names.

    ``table`` maps each file key to ``(field, reader)``: the field the key
    fills (``None`` merges the reader's fields into the block's) and how
    its value is read (``reader(value, label)``; ``None``: as written).
    Keys outside the table are a ``ValueError`` naming the block and the
    keys, or a ``UnitError`` for a known key without its unit suffix
    (``freq`` for ``freq_hz``).
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{block} must be a mapping, got {doc!r}")
    where = block or "the top level"
    unknown = [key for key in doc if key not in table]
    stems = {k.rpartition("_")[0]: k for k in table if k.rpartition("_")[2] in UNIT_SUFFIXES}
    for key in unknown:
        if key in stems:
            raise UnitError(f"{where}: {key!r} carries no unit; write {stems[key]!r}")
    if unknown:
        raise ValueError(f"unknown keys {unknown} in {where}; "
                         f"known keys are {sorted(table)}")
    fields = {}
    for key, value in doc.items():
        field, read = table[key]
        if read is not None:
            value = read(value, f"{block}.{key}" if block else key)
        if field is None:
            fields.update(value)
        else:
            fields[field] = value
    return fields


def _inertia_from_rows(rows, convention=None) -> np.ndarray:
    """Tensor from upper-triangle rows; ``convention`` is poi, or tensor if None."""
    if _has_non_number(rows):
        raise SchemaError(f"inertia_kgm2 must hold real numbers, got {rows!r}")
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


# the keys every body block shares, scenario bodies and body files alike
_BODY_KEYS = {"mass_kg": ("mass", _real), "inertia_kgm2": ("rows", None),
              "inertia_convention": ("convention", None)}


def _body_inertia(given) -> np.ndarray:
    """Pop the inertia rows and convention of a body block read through
    ``_BODY_KEYS``; returns the tensor.  A block without ``mass_kg`` and
    ``inertia_kgm2`` is a ``SchemaError``."""
    if not {"mass", "rows"} <= given.keys():
        raise SchemaError("a body needs mass_kg and inertia_kgm2")
    return _inertia_from_rows(given.pop("rows"), given.pop("convention", None))


BODY_FILE_KEYS = {
    **_BODY_KEYS, "kind": ("kind", None), "name": ("name", None),
    "com_m": ("com", _floats), "inertia_frame": ("frame", None),
    "freqs_hz": ("freqs_hz", _floats), "dampings": ("dampings", _floats),
    "mode_rows": ("mode_rows", lambda v, label: [_count(r, f"{label} entry") for r in v]),
    "participation": ("participation", _floats),
    "mode_shapes_at_c": ("phi_C", _floats), "pc_m": ("pc", _floats)}


def load_body_file(path) -> ModalBodyData:
    """Read one flexible-body description (YAML, keys ``BODY_FILE_KEYS``).

    The participation block may carry more rows than retained modes (as
    published tables do); ``mode_rows`` then selects the rows, 1-based,
    pairing them with ``freqs_hz`` in order; each row must be a YAML
    integer, no row may repeat, and no real value may be a boolean or a
    quoted string.  Inertia may be given at the CoM or at the port,
    products either as a tensor or as positive integrals
    (``inertia_convention: poi``).  An unknown key, a value the
    reader or ``ModalBodyData`` rejects is a ``SchemaError`` naming the
    file; a known key without its unit suffix is a ``UnitError`` naming it.
    """
    doc = load_yaml(path)
    try:
        given = read_block(doc, BODY_FILE_KEYS, "")
        J = _body_inertia(given)
        mass, com = given["mass"], given.get("com", np.zeros(3))
        if mass <= 0.0:
            raise SchemaError("mass_kg must be positive")
        frame = given.get("frame", "port")
        if frame == "com":
            J = transport_inertia(J, mass, com)
        elif frame != "port":
            raise SchemaError(f"inertia_frame must be com|port, got {frame!r}")
        freqs_hz = given.get("freqs_hz", np.zeros(0))
        L_full = given.get("participation", np.zeros((0, 6)))
        n = freqs_hz.size
        rows = [r - 1 for r in given.get("mode_rows", range(1, n + 1))]
        if len(rows) != n or len(set(rows)) != n or not all(0 <= r < len(L_full) for r in rows):
            raise SchemaError(f"participation has {len(L_full)} rows for {n} modes: "
                              "mode_rows must select one existing row per mode, none twice")
        return ModalBodyData(
            mass=mass, com=com, inertia_P=J, freqs=2.0 * np.pi * freqs_hz,
            dampings=given.get("dampings", []), L_P=L_full[rows],
            phi_C=given.get("phi_C"), pc=given.get("pc"),
            name=str(given.get("name", "body")))
    except (InvalidModalData, SchemaError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    except UnitError as exc:
        raise UnitError(f"{path}: {exc}") from exc
