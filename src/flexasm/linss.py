"""Labeled-channel LTI state-space algebra.

Every dynamic block in the library is a :class:`StateSpace`: a continuous
time model

    x' = A x + B u,      y = C x + D u

whose input and output vectors are partitioned into *named channels*
(e.g. a 6-wide wrench ``"W_P"`` next to a 3-wide torque ``"T_G"``).  All
structural operations -- interconnection, channel inversion, the upper
linear fractional transformation, frame changes -- address signals by
channel name, never by raw index, which is what keeps large block diagrams
assemblable without bookkeeping mistakes.

The module also provides the analysis layer used by every cost function:
frequency response, stability, the priced channel pair, and the
H-infinity / H2 system norms.

Conventions
-----------
* Continuous time only, real matrices, Laplace variable s.
* Channels are ``(name, width)`` pairs; names are unique per direction.
* Systems are immutable; all operations return new objects, so concurrent
  evaluation of different systems or frequencies is safe.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg as sla

from .errors import (
    IllPosedLoop,
    NonSquareSelection,
    NonzeroFeedthrough,
    SingularDBlock,
    UnknownChannel,
    UnstableSystem,
    WidthMismatch,
)

__all__ = [
    "StateSpace",
    "FrequencyGrid",
    "FreqResponse",
    "StabilityResult",
    "gain",
    "interconnect",
    "invert_channels",
    "lft_upper",
    "close_static",
    "freq_response",
    "sigma_max",
    "is_stable",
    "spectral_abscissa",
    "minimal_stable_projection",
    "hinf_norm",
    "h2_norm",
    "split_channel",
]

# Stability boundary used throughout: poles with Re >= -STAB_TOL count as
# not (strictly) stable.
_log = logging.getLogger(__name__)

STAB_TOL = 1e-10

# Well-posedness bound on rcond(I - D_loop).
WELLPOSED_RCOND = 1e-10

# The uncertainty channel pair pulled out by ``multibody.mode_freq_lfr``.
W_CHANNEL = "w_omega"
Z_CHANNEL = "z_omega"


def _norm_channels(spec: Iterable, total: int, kind: str):
    chans = []
    names = set()
    for entry in spec:
        name, width = entry
        width = int(width)
        if width < 1:
            raise ValueError(f"{kind} channel {name!r} must have width >= 1")
        if name in names:
            raise ValueError(f"duplicate {kind} channel name {name!r}")
        names.add(name)
        chans.append((str(name), width))
    if sum(w for _, w in chans) != total:
        raise ValueError(
            f"{kind} channel widths sum to {sum(w for _, w in chans)}, "
            f"expected {total}"
        )
    return tuple(chans)


def _ro(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StateSpace:
    """Immutable labeled-channel continuous-time LTI model.

    Parameters
    ----------
    A, B, C, D:
        Real matrices with the usual shapes (n x n, n x m, p x n, p x m).
    in_channels, out_channels:
        Ordered ``(name, width)`` pairs partitioning the input/output
        vectors.  Widths must sum to m and p respectively.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    in_channels: tuple = field(default=())
    out_channels: tuple = field(default=())

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        D = np.atleast_2d(np.asarray(self.D, dtype=float))
        n = A.shape[0]
        p, m = D.shape
        B = np.zeros((n, m)) if self.B is None else np.asarray(self.B, dtype=float).reshape(n, m)
        C = np.zeros((p, n)) if self.C is None else np.asarray(self.C, dtype=float).reshape(p, n)
        if A.shape != (n, n):
            raise ValueError("A must be square")
        object.__setattr__(self, "A", _ro(A))
        object.__setattr__(self, "B", _ro(B))
        object.__setattr__(self, "C", _ro(C))
        object.__setattr__(self, "D", _ro(D))
        ins = self.in_channels or ((("u", m),) if m else ())
        outs = self.out_channels or ((("y", p),) if p else ())
        object.__setattr__(self, "in_channels", _norm_channels(ins, m, "input"))
        object.__setattr__(self, "out_channels", _norm_channels(outs, p, "output"))

    # -- basic introspection ------------------------------------------------

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.D.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.D.shape[0]

    def _slice(self, channels, name) -> slice:
        start = 0
        for chan, width in channels:
            if chan == name:
                return slice(start, start + width)
            start += width
        raise UnknownChannel(f"channel {name!r} not in {[c for c, _ in channels]}")

    def in_slice(self, name: str) -> slice:
        return self._slice(self.in_channels, name)

    def out_slice(self, name: str) -> slice:
        return self._slice(self.out_channels, name)

    def in_width(self, name: str) -> int:
        s = self.in_slice(name)
        return s.stop - s.start

    def out_width(self, name: str) -> int:
        s = self.out_slice(name)
        return s.stop - s.start

    def has_input(self, name: str) -> bool:
        return any(c == name for c, _ in self.in_channels)

    def has_output(self, name: str) -> bool:
        return any(c == name for c, _ in self.out_channels)

    def subsystem(self, outputs, inputs) -> "StateSpace":
        """Select the listed output and input channels, in that order
        (state dimension unchanged)."""
        cols = np.concatenate([np.r_[self.in_slice(c)] for c in inputs])
        rows = np.concatenate([np.r_[self.out_slice(c)] for c in outputs])
        return StateSpace(
            self.A, self.B[:, cols], self.C[rows, :], self.D[np.ix_(rows, cols)],
            tuple((c, self.in_width(c)) for c in inputs),
            tuple((c, self.out_width(c)) for c in outputs),
        )

    def transfer_at(self, s: complex) -> np.ndarray:
        """Evaluate C (sI - A)^-1 B + D at one complex frequency."""
        if self.n_states == 0:
            return self.D.astype(complex)
        X = np.linalg.solve(s * np.eye(self.n_states) - self.A, self.B)
        return self.C @ X + self.D

    def dc_gain(self) -> np.ndarray:
        """Static gain D - C A^-1 B (A must be invertible)."""
        if self.n_states == 0:
            return self.D.copy()
        return self.D - self.C @ np.linalg.solve(self.A, self.B)

    def __repr__(self):  # pragma: no cover - debug helper
        ins = ", ".join(f"{c}({w})" for c, w in self.in_channels)
        outs = ", ".join(f"{c}({w})" for c, w in self.out_channels)
        return f"StateSpace(n={self.n_states}, in=[{ins}], out=[{outs}])"


def gain(D, in_channels=(), out_channels=()) -> StateSpace:
    """Static (stateless) gain block."""
    D = np.atleast_2d(np.asarray(D, dtype=float))
    return StateSpace(np.zeros((0, 0)), np.zeros((0, D.shape[1])),
                      np.zeros((D.shape[0], 0)), D, in_channels, out_channels)


def split_channel(sys: StateSpace, name: str, parts: Sequence) -> StateSpace:
    """Split one channel into consecutive narrower ones (metadata only).

    ``parts`` is a list of ``(name, width)`` whose widths must sum to the
    original channel width.  Works on whichever direction carries ``name``.
    """
    def _split(channels, is_input):
        out = []
        hit = False
        for chan, width in channels:
            if chan == name:
                hit = True
                if sum(w for _, w in parts) != width:
                    raise WidthMismatch(
                        f"split of {name!r}: parts sum to "
                        f"{sum(w for _, w in parts)}, channel width {width}")
                out.extend((str(p), int(w)) for p, w in parts)
            else:
                out.append((chan, width))
        return tuple(out), hit

    ins, hit_in = _split(sys.in_channels, True)
    outs, hit_out = _split(sys.out_channels, False)
    if not (hit_in or hit_out):
        raise UnknownChannel(f"channel {name!r} not present")
    return StateSpace(sys.A, sys.B, sys.C, sys.D, ins, outs)


# ---------------------------------------------------------------------------
# Interconnection
# ---------------------------------------------------------------------------

def _resolve(blocks, ref: str, direction: str):
    """Resolve 'block.channel' into (block_index, slice into stacked vector)."""
    try:
        bname, cname = ref.split(".", 1)
    except ValueError:
        raise UnknownChannel(f"reference {ref!r} must be 'block.channel'") from None
    for idx, (name, blk) in enumerate(blocks):
        if name != bname:
            continue
        sl = blk.in_slice(cname) if direction == "in" else blk.out_slice(cname)
        offset = sum(b.n_inputs if direction == "in" else b.n_outputs
                     for _, b in blocks[:idx])
        return slice(offset + sl.start, offset + sl.stop)
    raise UnknownChannel(f"block {bname!r} not found for reference {ref!r}")


def interconnect(blocks, wiring, external_in, external_out) -> StateSpace:
    """Close a block diagram of labeled systems into one system.

    Parameters
    ----------
    blocks:
        Ordered ``(name, StateSpace)`` pairs.  States stack in this order.
    wiring:
        ``(source, target)`` pairs of ``"block.channel"`` references; the
        source is an output channel, the target an input channel of equal
        width.  Several sources may target one input (signals add), and one
        source may fan out to several inputs.
    external_in:
        ``(new_name, target_or_targets)`` pairs.  External inputs add on
        top of any wired signal at the same target.  Inputs that are
        neither wired nor external are held at zero.
    external_out:
        ``(new_name, source)`` pairs selecting which internal outputs the
        closed system exposes.

    Notes
    -----
    The static loop ``I - D_loop`` must be well posed: it is solved once,
    so the result has exactly ``sum(n_states)`` states.
    """
    blocks = list(blocks)
    names = [n for n, _ in blocks]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate block names in {names}")

    n = sum(b.n_states for _, b in blocks)
    m_all = sum(b.n_inputs for _, b in blocks)
    p_all = sum(b.n_outputs for _, b in blocks)
    A = sla.block_diag(*[b.A for _, b in blocks]) if blocks else np.zeros((0, 0))
    B = sla.block_diag(*[b.B for _, b in blocks])
    C = sla.block_diag(*[b.C for _, b in blocks])
    D = sla.block_diag(*[b.D for _, b in blocks])
    A = np.asarray(A, dtype=float).reshape(n, n)
    B = np.asarray(B, dtype=float).reshape(n, m_all)
    C = np.asarray(C, dtype=float).reshape(p_all, n)
    D = np.asarray(D, dtype=float).reshape(p_all, m_all)

    S = np.zeros((m_all, p_all))
    for src, dst in wiring:
        so = _resolve(blocks, src, "out")
        si = _resolve(blocks, dst, "in")
        if (so.stop - so.start) != (si.stop - si.start):
            raise WidthMismatch(
                f"wiring {src!r} (width {so.stop - so.start}) -> "
                f"{dst!r} (width {si.stop - si.start})")
        S[si, so] += np.eye(so.stop - so.start)

    ext_in = []
    for entry in external_in:
        new_name, targets = entry
        if isinstance(targets, str):
            targets = [targets]
        slices = [_resolve(blocks, t, "in") for t in targets]
        widths = {s.stop - s.start for s in slices}
        if len(widths) != 1:
            raise WidthMismatch(f"external input {new_name!r} targets differ in width")
        ext_in.append((str(new_name), widths.pop(), slices))
    m_ext = sum(w for _, w, _ in ext_in)
    E = np.zeros((m_all, m_ext))
    col = 0
    for _, width, slices in ext_in:
        for s in slices:
            E[s, col:col + width] += np.eye(width)
        col += width

    ext_out = []
    for new_name, src in external_out:
        s = _resolve(blocks, src, "out")
        ext_out.append((str(new_name), s.stop - s.start, s))
    p_ext = sum(w for _, w, _ in ext_out)
    F = np.zeros((p_ext, p_all))
    row = 0
    for _, width, s in ext_out:
        F[row:row + width, s] = np.eye(width)
        row += width

    loop = np.eye(p_all) - D @ S
    if p_all and 1.0 / np.linalg.cond(loop, 1) < WELLPOSED_RCOND:
        raise IllPosedLoop(
            f"static loop is ill posed (rcond={1.0 / np.linalg.cond(loop, 1):.2e})")
    psi = np.linalg.solve(loop, np.eye(p_all)) if p_all else loop

    A_cl = A + B @ S @ psi @ C
    B_cl = B @ (np.eye(m_all) + S @ psi @ D) @ E
    C_cl = F @ psi @ C
    D_cl = F @ psi @ D @ E

    return StateSpace(A_cl, B_cl, C_cl, D_cl,
                      tuple((nm, w) for nm, w, _ in ext_in),
                      tuple((nm, w) for nm, w, _ in ext_out))


def invert_channels(sys: StateSpace, in_names, out_names) -> StateSpace:
    """Swap the roles of selected input and output channels.

    The feedthrough block from the selected inputs to the selected outputs
    must be square and invertible.  New inputs are the former outputs (in
    listed order) followed by the untouched inputs; dually for outputs.
    """
    in_names = [in_names] if isinstance(in_names, str) else list(in_names)
    out_names = [out_names] if isinstance(out_names, str) else list(out_names)
    w_in = sum(sys.in_width(c) for c in in_names)
    w_out = sum(sys.out_width(c) for c in out_names)
    if w_in != w_out:
        raise NonSquareSelection(f"invert widths {w_in} vs {w_out}")

    cols1 = np.concatenate([np.arange(sys.in_slice(c).start, sys.in_slice(c).stop)
                            for c in in_names])
    rows1 = np.concatenate([np.arange(sys.out_slice(c).start, sys.out_slice(c).stop)
                            for c in out_names])
    cols2 = np.array([i for i in range(sys.n_inputs) if i not in set(cols1)], dtype=int)
    rows2 = np.array([i for i in range(sys.n_outputs) if i not in set(rows1)], dtype=int)

    B1, B2 = sys.B[:, cols1], sys.B[:, cols2]
    C1, C2 = sys.C[rows1, :], sys.C[rows2, :]
    D11 = sys.D[np.ix_(rows1, cols1)]
    D12 = sys.D[np.ix_(rows1, cols2)]
    D21 = sys.D[np.ix_(rows2, cols1)]
    D22 = sys.D[np.ix_(rows2, cols2)]

    cond = np.linalg.cond(D11) if D11.size else np.inf
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularDBlock(f"feedthrough block not invertible (cond={cond:.3e})")
    _log.debug("invert_channels %s -> %s: feedthrough condition %.3e",
               in_names, out_names, cond)
    Dinv = np.linalg.solve(D11, np.eye(w_in))

    A_n = sys.A - B1 @ Dinv @ C1
    B_n = np.hstack([B1 @ Dinv, B2 - B1 @ Dinv @ D12])
    C_n = np.vstack([-Dinv @ C1, C2 - D21 @ Dinv @ C1])
    D_n = np.block([[Dinv, -Dinv @ D12],
                    [D21 @ Dinv, D22 - D21 @ Dinv @ D12]])

    new_in = tuple((c, sys.out_width(c)) for c in out_names) + tuple(
        (c, w) for c, w in sys.in_channels if c not in in_names)
    new_out = tuple((c, sys.in_width(c)) for c in in_names) + tuple(
        (c, w) for c, w in sys.out_channels if c not in out_names)
    return StateSpace(A_n, B_n, C_n, D_n, new_in, new_out)


def lft_upper(plant: StateSpace, delta: float) -> StateSpace:
    """Upper LFT with a repeated real scalar: close ``w = delta * z`` on
    the uncertainty pair ``W_CHANNEL``/``Z_CHANNEL``."""
    w = plant.in_width(W_CHANNEL)
    if plant.out_width(Z_CHANNEL) != w:
        raise WidthMismatch(f"{W_CHANNEL}/{Z_CHANNEL} widths differ")
    blk = gain(float(delta) * np.eye(w), (("z", w),), (("w", w),))
    ext_in = [(c, f"p.{c}") for c, _ in plant.in_channels if c != W_CHANNEL]
    ext_out = [(c, f"p.{c}") for c, _ in plant.out_channels if c != Z_CHANNEL]
    return interconnect(
        [("p", plant), ("d", blk)],
        [(f"p.{Z_CHANNEL}", "d.z"), ("d.w", f"p.{W_CHANNEL}")],
        ext_in, ext_out)


def close_static(sys: StateSpace, K, w_channel: str, z_channel: str) -> StateSpace:
    """Close ``w = K z`` with a static gain and drop the channel pair.

    Works on the matrices alone: with ``Z = (I - D_zw K)^-1``, the closed
    system is ``A + B_w K Z C_z``, ``B_u + B_w K Z D_zu``,
    ``C_y + D_yw K Z C_z`` and ``D_yu + D_yw K Z D_zu``.  States and the
    order of the remaining channels are unchanged; the result equals the
    :func:`interconnect` closure of the same loop.  Raises
    :class:`IllPosedLoop` when ``rcond(I - D_zw K)`` is below
    ``WELLPOSED_RCOND``.
    """
    w, z = sys.in_slice(w_channel), sys.out_slice(z_channel)
    K = np.asarray(K, dtype=float)
    if K.shape != (w.stop - w.start, z.stop - z.start):
        raise WidthMismatch(
            f"gain {K.shape} does not map {z_channel!r} "
            f"({z.stop - z.start}) to {w_channel!r} ({w.stop - w.start})")
    loop = np.eye(z.stop - z.start) - sys.D[z, w] @ K
    rcond = 1.0 / np.linalg.cond(loop, 1)
    if rcond < WELLPOSED_RCOND:
        raise IllPosedLoop(f"static loop is ill posed (rcond={rcond:.2e})")
    cols = np.r_[0:w.start, w.stop:sys.n_inputs]
    rows = np.r_[0:z.start, z.stop:sys.n_outputs]
    # the closed loop's w as a function of [x; u]
    G = K @ np.linalg.solve(loop, np.hstack([sys.C[z], sys.D[z][:, cols]]))
    top = np.hstack([sys.A, sys.B[:, cols]]) + sys.B[:, w] @ G
    bottom = np.hstack([sys.C[rows], sys.D[np.ix_(rows, cols)]]) + sys.D[rows, w] @ G
    n = sys.n_states
    return StateSpace(top[:, :n], top[:, n:], bottom[:, :n], bottom[:, n:],
                      tuple(c for c in sys.in_channels if c[0] != w_channel),
                      tuple(c for c in sys.out_channels if c[0] != z_channel))


# ---------------------------------------------------------------------------
# Frequency response and stability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing positive angular frequencies [rad/s]."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).ravel()
        if pts.size == 0:
            raise ValueError("frequency grid is empty")
        if np.any(pts <= 0.0) or np.any(np.diff(pts) <= 0.0):
            raise ValueError("grid must be strictly increasing and positive")
        object.__setattr__(self, "points", _ro(pts))

    @staticmethod
    def log(wmin: float, wmax: float, n: int) -> "FrequencyGrid":
        return FrequencyGrid(np.geomspace(wmin, wmax, n))

    def __len__(self):
        return self.points.size


@dataclass(frozen=True)
class FreqResponse:
    """Result of a frequency sweep.

    ``values[k]`` is the complex p x m transfer matrix at ``points[k]``;
    entries for skipped pole-adjacent frequencies are recorded in
    ``skipped`` and excluded from ``points``/``values``.
    """

    points: np.ndarray
    values: np.ndarray
    skipped: tuple = ()

    def magnitude(self) -> np.ndarray:
        """Largest singular value per retained grid point."""
        return np.linalg.svd(self.values, compute_uv=False)[:, 0]


def freq_response(sys: StateSpace, grid) -> FreqResponse:
    """Evaluate the transfer matrix on a grid of angular frequencies.

    Points closer than 1e-12 to an eigenvalue of A (an exactly marginal
    pole) are skipped and reported, not errored: open-loop free-floating
    plants legitimately carry such modes.
    """
    pts = np.asarray(grid.points if isinstance(grid, FrequencyGrid) else grid,
                     dtype=float).ravel()
    skip = np.zeros(pts.size, dtype=bool)
    if sys.n_states and pts.size:
        eigs = np.linalg.eigvals(sys.A)
        skip = np.min(np.abs(1j * pts[:, None] - eigs), axis=1) < 1e-12
    kept = pts[~skip]
    return FreqResponse(kept, _transfer_batch(sys, kept),
                        tuple(float(w) for w in pts[skip]))


def sigma_max(sys: StateSpace, w: float) -> float:
    """Largest singular value of the transfer matrix at one frequency."""
    return float(np.linalg.svd(sys.transfer_at(1j * w), compute_uv=False)[0])


# Complex bytes of the stacked (jw I - A) matrices in one batched solve.
# Larger chunks run no faster on the mission loops and raise the
# planner's peak memory.
_BATCH_BYTES = 1 << 16


def _transfer_batch(sys: StateSpace, ws) -> np.ndarray:
    """``C (jwI - A)^-1 B + D`` stacked over the angular frequencies ``ws``.

    Each slice has the bits of ``sys.transfer_at(1j * w)``: the stacked
    solve and product run the same LAPACK/BLAS call per frequency.  The
    stack is cut into chunks of at most ``_BATCH_BYTES`` of matrices.
    """
    ws = np.asarray(ws, dtype=float).ravel()
    n = sys.n_states
    if n == 0:
        return np.repeat(sys.D.astype(complex)[None], ws.size, axis=0)
    out = np.empty((ws.size,) + sys.D.shape, dtype=complex)
    eye = np.eye(n)
    step = max(1, _BATCH_BYTES // (16 * n * n))
    for k in range(0, ws.size, step):
        s = 1j * ws[k:k + step]
        X = np.linalg.solve(s[:, None, None] * eye - sys.A, sys.B)
        out[k:k + step] = sys.C @ X + sys.D
    return out


# Bound on cond(V) of the eigenvector matrix below which the pole-residue
# kernel is used: eps * 1e6 ~ 2e-10 stays below the 1e-9 the priced norms
# are checked to.  Mission channels measure 0.9e3-2.75e3.
MODAL_COND_MAX = 1e6


def _transfer_kernel(sys: StateSpace, eigs: np.ndarray, V: np.ndarray):
    """Evaluator ``ws -> C (jwI - A)^-1 B + D`` stacked over angular
    frequencies, from the poles ``eigs`` and eigenvectors ``V`` of A.

    With ``A V = V diag(eigs)`` the transfer is the pole-residue sum
    ``(C V) diag(1 / (jw - eigs)) (V^-1 B) + D`` (Laub 1981), O(n) per
    frequency after one solve for ``V^-1 B``.  A defective or nearly
    defective A (``cond(V) >= MODAL_COND_MAX``) falls back to the stacked
    solve ``_transfer_batch``.
    """
    if np.linalg.cond(V) >= MODAL_COND_MAX:
        return partial(_transfer_batch, sys)
    CV = sys.C @ V
    VB = np.linalg.solve(V, sys.B)

    def transfer(ws):
        R = 1.0 / (1j * np.asarray(ws, dtype=float).ravel()[:, None] - eigs)
        return (CV * R[:, None, :]) @ VB + sys.D
    return transfer


@dataclass(frozen=True)
class StabilityResult:
    stable: bool
    spectral_abscissa: float

    def __bool__(self):
        return self.stable


def spectral_abscissa(sys_or_A) -> float:
    A = sys_or_A.A if isinstance(sys_or_A, StateSpace) else np.asarray(sys_or_A)
    if A.shape[0] == 0:
        return -np.inf
    return float(np.max(np.linalg.eigvals(A).real))


def is_stable(sys: StateSpace) -> StabilityResult:
    """Strict Hurwitz test: every pole must satisfy Re < -1e-10."""
    alpha = spectral_abscissa(sys)
    return StabilityResult(alpha < -STAB_TOL, alpha)


# ---------------------------------------------------------------------------
# Channel projection
# ---------------------------------------------------------------------------

def minimal_stable_projection(sys: StateSpace, in_channel: str,
                              out_channel: str) -> StateSpace:
    """The one-input, one-output channel pair a cost prices, sliced from
    ``sys`` with every state kept.

    The priced closed loops are strictly stable, so the sliced channel is
    already a stable realization and the norms take it as it is; they also
    own the one stability test.  The name stays because
    ``perfbench/tracer.py`` wraps this function by name.
    """
    return sys.subsystem([out_channel], [in_channel])


# ---------------------------------------------------------------------------
# System norms
# ---------------------------------------------------------------------------

def _hamiltonian_imag_crossings(sys: StateSpace, g: float):
    """Imaginary-axis eigenfrequencies of the H-infinity test Hamiltonian."""
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n = A.shape[0]
    R = g * g * np.eye(sys.n_inputs) - D.T @ D
    Rinv = np.linalg.solve(R, np.eye(sys.n_inputs))
    Ah = A + B @ Rinv @ D.T @ C
    H = np.block([
        [Ah, B @ Rinv @ B.T],
        [-C.T @ (np.eye(sys.n_outputs) + D @ Rinv @ D.T) @ C, -Ah.T],
    ])
    ev = np.linalg.eigvals(H)
    crossings = [abs(l.imag) for l in ev
                 if abs(l.real) <= 1e-8 * max(1.0, abs(l.imag))]
    return sorted(set(np.round(crossings, 12)))


def _seed_frequencies(eigs):
    """Seed grid from the poles ``eigs``: each pole frequency and its
    neighbours, plus four decades, sorted and without repeats."""
    w0 = np.where(np.abs(eigs.imag) > 1e-12, np.abs(eigs.imag), np.abs(eigs.real))
    w0 = w0[w0 > 1e-12]
    factors = (0.2, 0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0, 5.0)
    return np.unique(np.concatenate([[1e-6, 1e-3, 1.0, 1e3],
                                     np.outer(w0, factors).ravel()]))


# Brent's golden-section fraction, and the relative tolerance on the
# abscissa at which a polish stops: the gain is flat to second order at a
# peak, so the polished value is far closer to the peak than 2 * HINF_RTOL.
_CGOLD = 0.5 * (3.0 - np.sqrt(5.0))
_POLISH_XTOL = 1e-8
# Relative width of the bracket hinf_norm certifies, and the certificate
# rounds before it gives up.
HINF_RTOL = 1e-6
_MAX_ROUNDS = 20


def _brent_max(a: float, b: float, x: float, fx: float):
    """Brent's (1973) parabolic/golden-section search for a maximum in
    ``[a, b]`` from the interior point ``x`` with value ``fx``.

    A generator: it yields each abscissa to evaluate, is sent the value,
    and returns once the bracket has closed to ``_POLISH_XTOL``.
    """
    w = v = x
    fw = fv = fx
    d = e = 0.0
    while True:
        xm = 0.5 * (a + b)
        tol1 = _POLISH_XTOL * abs(x) + 1e-300
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            return
        golden = True
        if abs(e) > tol1:
            # vertex of the parabola through (x, w, v), maximizing
            r = (x - w) * (fv - fx)
            q = (x - v) * (fw - fx)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            etemp, e = e, d
            if abs(p) < abs(0.5 * q * etemp) and q * (a - x) < p < q * (b - x):
                d = p / q
                golden = False
                if (x + d) - a < tol2 or b - (x + d) < tol2:
                    d = np.copysign(tol1, xm - x)
        if golden:
            e = (a - x) if x >= xm else (b - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else np.copysign(tol1, d))
        fu = yield u
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def _gram_sigma_max(G: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of the stack ``G``: the square
    root of the top eigenvalue of ``G G^H``, which has relative error about
    eps for any shape of ``G`` (squaring halves the exponent range, which
    still spans every transfer gain here).  It takes about half an SVD's
    time on a seed grid and about the same on one to three frequencies."""
    return np.sqrt(np.linalg.eigvalsh(G @ G.conj().swapaxes(1, 2))[:, -1])


def _polish(sigma, ws: np.ndarray, vals: np.ndarray, idx) -> float:
    """Largest gain seen by Brent searches from the points ``ws[idx]``
    between their neighbours (0 below the first point, twice the last
    above it).  ``hinf_norm`` passes only local maxima of ``vals``: a
    search from beside a higher neighbour crawls to its bracket edge and
    the lockstep waits for it.  ``sigma`` maps angular frequencies to
    ``sigma_max``; the searches run in lockstep, so each step is one call
    of it."""
    edges = np.concatenate([[0.0], ws, [2.0 * ws[-1]]])
    best = float(np.max(vals[idx]))
    steps = {}
    for k in idx:
        search = _brent_max(edges[k], edges[k + 2], ws[k], vals[k])
        steps[search] = next(search)
    while steps:
        fs = sigma(list(steps.values()))
        best = max(best, float(np.max(fs)))
        for search, f in zip(list(steps), fs):
            try:
                steps[search] = search.send(f)
            except StopIteration:
                del steps[search]
    return best


def hinf_norm(sys: StateSpace) -> float:
    """Peak gain sup_w sigma_max(G(jw)) by polish-then-certify.

    A is eigendecomposed once: a pole with Re >= -STAB_TOL raises
    :class:`UnstableSystem`, the same poles seed the grid, and poles and
    eigenvectors build the frequency kernel (``_transfer_kernel``: the
    pole-residue form, or the stacked solve when ``cond(V) >=
    MODAL_COND_MAX``).  Every gain below goes through that kernel, and
    sigma_max comes from the Gram matrix of each transfer
    (``_gram_sigma_max``).  The seeded grid (every pole frequency and its
    neighbours) is evaluated in one call, and those of its three best
    points that are local maxima of the grid (at least each neighbour, an
    end compared to its one neighbour; the global maximum always is one)
    are polished by Brent searches between their grid neighbours.  One
    Hamiltonian level-set test at
    ``gamma * (1 + 2 HINF_RTOL)``, on the state-space matrices and not on
    the eigenvectors, then certifies that no frequency reaches that level
    (Boyd-Balakrishnan-Kabamba 1989, Bruinsma-Steinbuch 1990).  If it
    finds crossings, the crossings and their midpoints are evaluated, the
    best is polished, and the test runs again.  The result is the largest
    gain evaluated: a lower bound within ``2 HINF_RTOL`` of the norm.
    Crossings where no evaluated gain exceeds the bound are an artefact of
    the eigenvalue test, and the bound is returned as it stands.
    """
    if sys.n_states == 0:
        return float(np.linalg.svd(sys.D, compute_uv=False)[0]) if sys.D.size else 0.0
    eigs, V = np.linalg.eig(sys.A)
    alpha = float(np.max(eigs.real))
    if alpha >= -STAB_TOL:
        raise UnstableSystem(
            f"H-infinity norm of unstable system (abscissa {alpha:.3e})")

    transfer = _transfer_kernel(sys, eigs, V)

    def sigma(ws):
        return _gram_sigma_max(transfer(ws))

    sd = float(np.linalg.svd(sys.D, compute_uv=False)[0]) if sys.D.size else 0.0
    ws = _seed_frequencies(eigs)
    vals = sigma(ws)
    peak = np.ones(vals.size, dtype=bool)
    peak[1:] &= vals[1:] >= vals[:-1]
    peak[:-1] &= vals[:-1] >= vals[1:]
    top = np.argsort(vals)[-3:]
    gamma = max(sd, _polish(sigma, ws, vals, top[peak[top]]))
    if gamma <= 0.0:
        return 0.0
    for _ in range(_MAX_ROUNDS):
        cross = _hamiltonian_imag_crossings(sys, gamma * (1.0 + 2.0 * HINF_RTOL))
        if not cross:
            return gamma
        ws = np.array(sorted(set(cross) | {0.5 * (lo + hi) for lo, hi
                                           in zip(cross[:-1], cross[1:])}))
        vals = sigma(ws)
        best = _polish(sigma, ws, vals, [int(np.argmax(vals))])
        if best <= gamma:
            return gamma
        gamma = best
    raise ArithmeticError(  # pragma: no cover - defensive
        f"H-infinity certificate failed after {_MAX_ROUNDS} rounds")


def h2_norm(sys: StateSpace) -> float:
    """H2 norm sqrt(trace(C P C^T)) with A P + P A^T + B B^T = 0.

    The Lyapunov equation is solved by Schur reduction and back
    substitution (Bartels-Stewart).  Requires strict stability and zero
    feedthrough.
    """
    if np.max(np.abs(sys.D)) > 1e-12 if sys.D.size else False:
        raise NonzeroFeedthrough("H2 norm needs D = 0 on the selected channel")
    if sys.n_states == 0:
        return 0.0
    stability = is_stable(sys)
    if not stability:
        raise UnstableSystem(
            f"H2 norm of unstable system (abscissa {stability.spectral_abscissa:.3e})")
    P = sla.solve_continuous_lyapunov(sys.A, -sys.B @ sys.B.T)
    val = float(np.trace(sys.C @ P @ sys.C.T))
    return float(np.sqrt(max(val, 0.0)))
