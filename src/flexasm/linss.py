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
* The public constructor ``StateSpace(...)`` copies and checks its
  matrices and channels.  The results of :meth:`StateSpace.subsystem`
  (and ``_subsystems``, its form for a list of systems),
  :class:`StaticClosure` (and so :func:`close_static`) and
  ``scenario.close_loop`` are built from already-checked systems through
  the private ``StateSpace._unchecked``, which only marks the arrays read
  only: the loops the planner prices run no validating constructor.
  ``scenario.close_loop`` of a list of plants builds its loops as views
  of one ``(k, n, n)`` stack.
* Stacks: ``_prime_modes`` fills the eigendecomposition caches of a list
  of systems from one stacked ``np.linalg.eig`` and one stacked ``inv``,
  and :func:`h2_norm` prices a list of systems in one pass.  Each result
  has the bits of computing it for its system alone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Sequence

import numpy as np

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
    "StaticClosure",
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

# Bound on cond_1(V) = ||V||_1 ||V^-1||_1 of the eigenvector matrix below
# which the modal forms are used: eps * 1e6 ~ 2e-10 stays below the 1e-9
# the priced norms are checked to.
MODAL_COND_MAX = 1e6

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
    """Read-only float copy of ``a``.  An array that already is one (read
    only, float, owning its data: another system's matrix) is kept as it
    is, since nothing can write to it."""
    if (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.flags.owndata and not a.flags.writeable):
        return a
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

    The eigendecomposition ``A = V diag(lambda) V^-1`` (:meth:`eig`), the
    modal inverse ``V^-1`` with its one gate (:meth:`modal_inverse`) and
    the H-infinity seed grid with its resolvent (``_seed_grid``) are each
    computed at most once, on first use, and :meth:`subsystem` slices share
    A and all three with their parent: every norm and margin priced on one
    closed loop reads one ``np.linalg.eig(A)`` and one ``np.linalg.inv(V)``,
    its own or its share of a stacked pair (``_prime_modes``).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    in_channels: tuple = field(default=())
    out_channels: tuple = field(default=())
    _modes: dict = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_modes", {})

    @classmethod
    def _unchecked(cls, A, B, C, D, in_channels, out_channels) -> "StateSpace":
        """A system from float matrices of matching shapes and normalized
        ``(name, width)`` channel tuples, such as operations on checked
        systems produce: the arrays are marked read only, not copied, and
        nothing is checked again."""
        sys = object.__new__(cls)
        for name, a in (("A", A), ("B", B), ("C", C), ("D", D)):
            a.setflags(write=False)
            object.__setattr__(sys, name, a)
        object.__setattr__(sys, "in_channels", in_channels)
        object.__setattr__(sys, "out_channels", out_channels)
        object.__setattr__(sys, "_modes", {})
        return sys

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
        """Select the listed output and input channels, in that order.

        The states are unchanged, so the slice keeps this system's A (the
        same array, not a copy) and shares its cached eigendecomposition
        and modal gate: whichever of the two computes them first computes
        them for both.  No names on a side give a system with no channels
        there; an unknown name raises ``UnknownChannel`` and a repeated one
        ``ValueError``.
        """
        return _subsystems([self], outputs, inputs)[0]

    def _index(self, channels, names):
        """Positions of the named channels among ``channels``, in the order
        named, and their ``(name, width)`` pairs.  No name gives no
        positions."""
        spans = [self._slice(channels, c) for c in names]
        idx = np.array([i for s in spans for i in range(s.start, s.stop)],
                       dtype=np.intp)
        return idx, tuple((str(c), s.stop - s.start) for c, s in zip(names, spans))

    def eig(self):
        """Poles and eigenvectors ``np.linalg.eig(A)``, computed on first
        use and shared with every :meth:`subsystem` slice."""
        modes = self._modes
        if "eig" not in modes:
            modes["eig"] = np.linalg.eig(self.A)
        return modes["eig"]

    def modal_inverse(self):
        """``V^-1`` of the eigenvectors ``V`` of :meth:`eig`, or None when A
        is defective or nearly so: ``np.linalg.inv(V)`` fails or ``cond_1(V)
        = ||V||_1 ||V^-1||_1 >= MODAL_COND_MAX`` (``_gated_inverse``).
        Computed on first use and shared with every :meth:`subsystem` slice,
        like :meth:`eig`."""
        modes = self._modes
        if "inv" not in modes:
            modes["inv"] = _gated_inverse(self.eig()[1])
        return modes["inv"]

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


def _subsystems(systems, outputs, inputs) -> list:
    """:meth:`StateSpace.subsystem` of each of a list of systems with the
    same channels, the channel positions found once: a leg's loops slice
    their priced channel in one call."""
    for kind, names in (("input", inputs), ("output", outputs)):
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate {kind} channel name in {list(names)}")
    first = systems[0]
    cols, ins = first._index(first.in_channels, inputs)
    rows, outs = first._index(first.out_channels, outputs)
    block = np.ix_(rows, cols)
    subs = []
    for sys in systems:
        sub = StateSpace._unchecked(sys.A, sys.B[:, cols], sys.C[rows, :],
                                    sys.D[block], ins, outs)
        object.__setattr__(sub, "_modes", sys._modes)
        subs.append(sub)
    return subs


def _gated_inverse(V):
    """``V^-1`` of an eigenvector matrix ``V``, or None where ``inv`` fails
    or ``cond_1(V) = ||V||_1 ||V^-1||_1 >= MODAL_COND_MAX``.  A ``(k, n,
    n)`` stack gives a list, one stacked ``inv`` and one gate per matrix;
    when one matrix fails the stacked ``inv``, each is inverted alone."""
    try:
        W = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        return None if V.ndim == 2 else [_gated_inverse(v) for v in V]
    ok = (np.linalg.norm(V, 1, axis=(-2, -1)) * np.linalg.norm(W, 1, axis=(-2, -1))
          < MODAL_COND_MAX)
    if V.ndim == 2:
        return W if ok else None
    return [w if good else None for w, good in zip(W, ok)]


def _prime_modes(systems) -> None:
    """Fill the :meth:`StateSpace.eig` and :meth:`StateSpace.modal_inverse`
    caches of systems with equal state counts from one stacked
    ``np.linalg.eig`` of their A and one stacked ``inv`` of the
    eigenvectors (``_gated_inverse``).  Each system's share has the bits
    its own calls give it.  ``np.linalg.eig`` returns real arrays for a
    matrix whose poles are all real, which a complex stack cannot share,
    so such a system is left to its own calls."""
    eigs, V = np.linalg.eig(np.stack([s.A for s in systems]))
    for sys, w, v, W in zip(systems, eigs, V, _gated_inverse(V)):
        if w.imag.any():
            sys._modes["eig"] = w, v
            sys._modes["inv"] = W


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


def _block_diag(mats) -> np.ndarray:
    """Block-diagonal float array of 2-D blocks.  A zero-size block still
    takes its rows or columns: a (0, m) block adds m empty columns."""
    out = np.zeros((sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)))
    r = c = 0
    for m in mats:
        p, q = m.shape
        out[r:r + p, c:c + q] = m
        r, c = r + p, c + q
    return out


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

    m_all = sum(b.n_inputs for _, b in blocks)
    p_all = sum(b.n_outputs for _, b in blocks)
    A, B, C, D = (_block_diag([getattr(b, k) for _, b in blocks]) for k in "ABCD")

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
    rcond = _rcond(loop) if p_all else np.inf
    if rcond < WELLPOSED_RCOND:
        raise IllPosedLoop(f"static loop is ill posed (rcond={rcond:.2e})")
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

    cols1, _ = sys._index(sys.in_channels, in_names)
    rows1, _ = sys._index(sys.out_channels, out_names)
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


def _rcond(loop: np.ndarray) -> float:
    """``1 / cond_1(loop)`` with the arithmetic of ``np.linalg.cond(loop,
    1)``, and its bits: one inverse and two 1-norms.  A loop whose inverse
    fails is singular, rcond 0.0, as ``cond`` reports it."""
    try:
        inv = np.linalg.inv(loop)
    except np.linalg.LinAlgError:
        return 0.0
    # Python floats: an overflowing product is inf, as in ``cond``
    return 1.0 / (float(np.linalg.norm(loop, 1)) * float(np.linalg.norm(inv, 1)))


class StaticClosure:
    """:func:`close_static` of one system and channel pair, split at the
    gain.

    Building it gathers every operand that does not depend on ``K``: the
    channel slices, ``[C_z, D_zu]``, ``[A, B_u]``, ``[C_y, D_yu]``, the
    columns ``B_w`` and ``D_yw`` and the remaining channels.  Calling it
    with a gain checks the gain's shape and the loop's well-posedness (an
    rcond from one inverse, :func:`_rcond`) and closes the loop with one
    solve and a few products.  It reads its own
    system's channels: a :meth:`StateSpace.subsystem` slice gets its own
    closure, never its parent's.
    """

    __slots__ = ("_w_channel", "_z_channel", "_shape", "_n", "_D_zw", "_z_rows",
                 "_top", "_B_w", "_bottom", "_D_yw", "_ins", "_outs")

    def __init__(self, sys: StateSpace, w_channel: str, z_channel: str):
        w, z = sys.in_slice(w_channel), sys.out_slice(z_channel)
        cols = np.delete(np.arange(sys.n_inputs), w)
        rows = np.delete(np.arange(sys.n_outputs), z)
        self._w_channel, self._z_channel = w_channel, z_channel
        self._shape = (w.stop - w.start, z.stop - z.start)
        self._n = sys.n_states
        self._D_zw = sys.D[z, w]
        self._z_rows = np.hstack([sys.C[z], sys.D[z][:, cols]])
        self._top = np.hstack([sys.A, sys.B[:, cols]])
        self._B_w = sys.B[:, w]
        self._bottom = np.hstack([sys.C[rows], sys.D[np.ix_(rows, cols)]])
        self._D_yw = sys.D[rows, w]
        self._ins = tuple(c for c in sys.in_channels if c[0] != w_channel)
        self._outs = tuple(c for c in sys.out_channels if c[0] != z_channel)

    def __call__(self, K) -> StateSpace:
        K = np.asarray(K, dtype=float)
        if K.shape != self._shape:
            raise WidthMismatch(
                f"gain {K.shape} does not map {self._z_channel!r} "
                f"({self._shape[1]}) to {self._w_channel!r} ({self._shape[0]})")
        loop = np.eye(self._shape[1]) - self._D_zw @ K
        rcond = _rcond(loop)
        if rcond < WELLPOSED_RCOND:
            raise IllPosedLoop(f"static loop is ill posed (rcond={rcond:.2e})")
        # the closed loop's w as a function of [x; u]
        G = K @ np.linalg.solve(loop, self._z_rows)
        top = self._top + self._B_w @ G
        bottom = self._bottom + self._D_yw @ G
        n = self._n
        return StateSpace._unchecked(top[:, :n], top[:, n:], bottom[:, :n],
                                     bottom[:, n:], self._ins, self._outs)


def close_static(sys: StateSpace, K, w_channel: str, z_channel: str) -> StateSpace:
    """Close ``w = K z`` with a static gain and drop the channel pair.

    Works on the matrices alone: with ``Z = (I - D_zw K)^-1``, the closed
    system is ``A + B_w K Z C_z``, ``B_u + B_w K Z D_zu``,
    ``C_y + D_yw K Z C_z`` and ``D_yu + D_yw K Z D_zu``.  States and the
    order of the remaining channels are unchanged; the result equals the
    :func:`interconnect` closure of the same loop.  Raises
    :class:`IllPosedLoop` when ``rcond(I - D_zw K)`` is below
    ``WELLPOSED_RCOND``.  A caller closing many gains on one system
    builds its :class:`StaticClosure` once instead.
    """
    return StaticClosure(sys, w_channel, z_channel)(K)


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


def _stable_eig(sys: StateSpace, norm: str):
    """Poles and eigenvectors of A (:meth:`StateSpace.eig`); a pole with
    Re >= -STAB_TOL raises :class:`UnstableSystem` naming ``norm``."""
    eigs, V = sys.eig()
    alpha = float(np.max(eigs.real))
    if alpha >= -STAB_TOL:
        raise UnstableSystem(f"{norm} norm of unstable system (abscissa {alpha:.3e})")
    return eigs, V


def _modal_form(sys: StateSpace):
    """``(C V, V^-1 B)`` in the eigenbasis of A, two products with the
    cached :meth:`StateSpace.eig` and :meth:`StateSpace.modal_inverse`, or
    None when the modal inverse is gated out (a defective or nearly
    defective A)."""
    W = sys.modal_inverse()
    if W is None:
        return None
    return sys.C @ sys.eig()[1], W @ sys.B


def _seed_grid(sys: StateSpace):
    """The H-infinity seed grid ``_seed_frequencies`` of A's poles and its
    resolvent ``1 / (jw - eigs)``, one row per frequency, computed once
    per A and shared with every slice: both H-infinity channels of a loop
    read them."""
    modes = sys._modes
    if "seeds" not in modes:
        eigs = sys.eig()[0]
        ws = _seed_frequencies(eigs)
        modes["seeds"] = ws, 1.0 / (1j * ws[:, None] - eigs)
    return modes["seeds"]


def _transfer_kernel(sys: StateSpace):
    """Evaluator ``ws -> C (jwI - A)^-1 B + D`` stacked over angular
    frequencies, from the poles and the modal form of A (``_modal_form``).

    With ``A V = V diag(eigs)`` the transfer is the pole-residue sum
    ``sum_k (C V)[:, k] (V^-1 B)[k, :] / (jw - eigs[k]) + D`` (Laub 1981).
    The residues are built once per channel as the n x pm matrix ``Res[k,
    i*m + j] = (C V)[i, k] (V^-1 B)[k, j]``, so any stack of frequencies is
    one matrix product ``(R @ Res).reshape(-1, p, m) + D`` with the
    resolvent ``R = 1 / (jw - eigs)``; the seed grid's resolvent is read
    from the cache (``_seed_grid``).  A defective or nearly defective A
    (no modal form) falls back to the stacked solve ``_transfer_batch``.
    """
    modal = _modal_form(sys)
    if modal is None:
        return partial(_transfer_batch, sys)
    CV, VB = modal
    eigs = sys.eig()[0]
    p, m = sys.D.shape
    res = (CV.T[:, :, None] * VB[:, None, :]).reshape(eigs.size, p * m)
    seeds, seed_resolvent = _seed_grid(sys)

    def transfer(ws):
        R = (seed_resolvent if ws is seeds
             else 1.0 / (1j * np.array(ws, dtype=float)[:, None] - eigs))
        return (R @ res).reshape(R.shape[0], p, m) + sys.D
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
    own the one stability test.  The planner slices each leg's channels
    with ``_subsystems`` instead and never calls this; the name stays
    because ``perfbench/tracer.py`` wraps this function by name.
    """
    return sys.subsystem([out_channel], [in_channel])


# ---------------------------------------------------------------------------
# System norms
# ---------------------------------------------------------------------------

def _hamiltonian_imag_crossings(sys: StateSpace, g: float):
    """Imaginary-axis eigenfrequencies of the H-infinity test Hamiltonian,
    sorted and without repeats.  The 2n x 2n matrix is filled block by
    block in place, ``I + D R^-1 D^T`` by adding 1 to the diagonal; one
    identity serves ``R`` and its inverse.  With no imaginary eigenvalue,
    which is the certificate's usual answer, the result is the empty array
    without rounding or sorting."""
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n = sys.n_states
    eye = np.eye(sys.n_inputs)
    Rinv = np.linalg.solve(g * g * eye - D.T @ D, eye)
    BR = B @ Rinv
    Q = D @ Rinv @ D.T
    Q.flat[::Q.shape[0] + 1] += 1.0
    H = np.empty((2 * n, 2 * n))
    H[:n, :n] = A + BR @ D.T @ C
    H[:n, n:] = BR @ B.T
    H[n:, :n] = -C.T @ Q @ C
    H[n:, n:] = -H[:n, :n].T
    ev = np.linalg.eigvals(H)
    keep = np.abs(ev.real) <= 1e-8 * np.maximum(1.0, np.abs(ev.imag))
    if not keep.any():
        return np.empty(0)
    return np.unique(np.round(np.abs(ev.imag[keep]), 12))


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
_CGOLD = 0.5 * (3.0 - math.sqrt(5.0))
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
                    d = math.copysign(tol1, xm - x)
        if golden:
            e = (a - x) if x >= xm else (b - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
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
    the lockstep waits for it.  ``sigma`` maps a list of angular
    frequencies to an array of ``sigma_max``; the searches run in
    lockstep, so each step is one call of it.  The searches and their
    brackets are Python lists and floats, and each step's best is a plain
    ``max``: a step costs the one ``sigma`` call and little else, and
    every abscissa and value has the bits numpy scalars give it."""
    wl = ws.tolist()
    edges = [0.0] + wl + [2.0 * wl[-1]]
    starts = [(int(k), float(vals[k])) for k in idx]
    best = max(f for _, f in starts)
    searches, xs = [], []
    for k, f in starts:
        search = _brent_max(edges[k], edges[k + 2], wl[k], f)
        searches.append(search)
        xs.append(next(search))
    while searches:
        fs = sigma(xs).tolist()
        best = max(best, max(fs))
        live, xs = [], []
        for search, f in zip(searches, fs):
            try:
                xs.append(search.send(f))
                live.append(search)
            except StopIteration:
                pass
        searches = live
    return best


# Relative slack on both Frobenius bounds of the seed screen: far above
# the rounding of ||G||_F^2 and of the Gram eigenvalue.
_SCREEN_SLACK = 1e-9


def _screened_sigma_max(G: np.ndarray) -> np.ndarray:
    """sigma_max of the seed-grid stack ``G`` wherever it can decide the
    grid's three best points or their local-maximum tests; -inf elsewhere.

    With ``F^2 = ||G||_F^2`` and ``r = min(p, m)``, ``F^2 / r <= sigma_max^2
    <= F^2``.  A point whose upper bound lies below the third-largest lower
    bound (each with ``_SCREEN_SLACK`` relative slack) is beaten by three
    points, so it is not among the three best; ``_gram_sigma_max`` runs
    only at the other points and at their grid neighbours.  ``G`` is not
    empty (``r >= 1``); with at most three points every point is taken.
    """
    r = min(G.shape[1:])
    if G.shape[0] <= 3:
        return _gram_sigma_max(G)
    f2 = np.square(G.view(np.float64)).sum(axis=(1, 2))
    third = np.partition(f2, -3)[-3] / r
    keep = f2 * (1.0 + _SCREEN_SLACK) >= third * (1.0 - _SCREEN_SLACK)
    near = keep.copy()
    near[1:] |= keep[:-1]
    near[:-1] |= keep[1:]
    vals = np.full(G.shape[0], -np.inf)
    vals[near] = _gram_sigma_max(G[near])
    return vals


def hinf_norm(sys: StateSpace) -> float:
    """Peak gain sup_w sigma_max(G(jw)) by polish-then-certify.

    A's eigendecomposition (:meth:`StateSpace.eig`, computed once and
    shared with the loop the channel was sliced from) gives the stability
    test: a pole with Re >= -STAB_TOL raises :class:`UnstableSystem`.
    Every gain below goes through the residue-matrix kernel
    (``_transfer_kernel``: one matrix product per stack of frequencies, or
    the stacked solve when :meth:`StateSpace.modal_inverse` gates the modal
    form out), and sigma_max comes from the Gram matrix of each transfer
    (``_gram_sigma_max``).  The seeded grid (every pole frequency and its
    neighbours, cached per A with its resolvent, ``_seed_grid``) is
    evaluated in one call, and sigma_max is taken only where Frobenius
    bounds leave it able to change the answer (``_screened_sigma_max``).
    Those of the grid's three best points that are local maxima of the grid
    (at least each neighbour, an end compared to its one neighbour; the
    global maximum always is one) are polished by Brent searches between
    their grid neighbours, in lockstep (``_polish``).  The gain at infinity
    sigma_max(D) is at most ``||D||_F``, so D's SVD runs only when that
    bound, with ``1e-12`` relative slack, exceeds the polished peak; the
    larger of the two is kept.  One Hamiltonian level-set test at
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
    _stable_eig(sys, "H-infinity")
    if min(sys.D.shape) == 0:
        return 0.0      # no input or no output: an empty transfer
    transfer = _transfer_kernel(sys)

    def sigma(ws):
        return _gram_sigma_max(transfer(ws))

    ws = _seed_grid(sys)[0]
    vals = _screened_sigma_max(transfer(ws))
    peak = np.ones(vals.size, dtype=bool)
    peak[1:] &= vals[1:] >= vals[:-1]
    peak[:-1] &= vals[:-1] >= vals[1:]
    # a stable sort breaks ties by index alone, so the screen's -inf
    # entries cannot change which of several equal gains is kept
    top = np.argsort(vals, kind="stable")[-3:]
    gamma = _polish(sigma, ws, vals, top[peak[top]])
    if math.sqrt(float(np.square(sys.D).sum())) * (1.0 + 1e-12) > gamma:
        gamma = max(float(np.linalg.svd(sys.D, compute_uv=False)[0]), gamma)
    if gamma <= 0.0:
        return 0.0
    for _ in range(_MAX_ROUNDS):
        cross = _hamiltonian_imag_crossings(sys, gamma * (1.0 + 2.0 * HINF_RTOL))
        if not cross.size:
            return gamma
        ws = np.unique(np.concatenate([cross, 0.5 * (cross[:-1] + cross[1:])]))
        vals = sigma(ws)
        best = _polish(sigma, ws, vals, [int(np.argmax(vals))])
        if best <= gamma:
            return gamma
        gamma = best
    raise ArithmeticError(  # pragma: no cover - defensive
        f"H-infinity certificate failed after {_MAX_ROUNDS} rounds")


def h2_norm(sys):
    """H2 norm sqrt(trace(C P C^T)) with A P + P A^T + B B^T = 0.

    ``sys`` is one system, or a list of systems with the same shapes (the
    priced channel of one leg's loops) priced in one pass: a list gives
    an array of norms, each with the bits of pricing its system alone,
    which is the list of one.  Systems are checked in order, each for zero
    feedthrough (else :class:`NonzeroFeedthrough`) and then for strict
    stability: A's eigendecomposition ``A V = V diag(lambda)`` is
    :meth:`StateSpace.eig`, computed once and shared with the loop the
    channel was sliced from, and a pole with Re >= -STAB_TOL raises
    :class:`UnstableSystem`.  When the modal inverse passes its gate
    (:meth:`StateSpace.modal_inverse`, ``cond_1(V) < MODAL_COND_MAX``, the
    one ``hinf_norm`` and the margin read) the Gramian is diagonal in the
    eigenbasis, ``P = V X V^H`` with ``X_ij = -(B~ B~^H)_ij / (lambda_i +
    conj(lambda_j))``, ``B~ = V^-1 B``, so ``H2^2 = Re sum_ij (C~^H C~)_ji
    X_ij`` with ``C~ = C V``; the systems that pass are priced as one
    stack of ``(k, n, n)`` products.  A defective or nearly defective A
    solves the Kronecker form ``(I (x) A + A (x) I) vec P = -vec(B B^T)``
    instead (``_h2_kronecker``), for that system only.
    """
    if isinstance(sys, StateSpace):
        return float(_h2_norms([sys])[0])
    return _h2_norms(list(sys))


def _h2_norms(systems) -> np.ndarray:
    """The H2 norms of :func:`h2_norm`'s list of systems, as an array: the
    one body of both forms, so each ``h2_norm`` call is one call."""
    for s in systems:
        if np.max(np.abs(s.D)) > 1e-12 if s.D.size else False:
            raise NonzeroFeedthrough("H2 norm needs D = 0 on the selected channel")
        if s.n_states:
            _stable_eig(s, "H2")
    squares = np.zeros(len(systems))
    if not systems or systems[0].n_states == 0:
        return squares
    # the modal inverse of a system whose poles are all real is real: it
    # is priced in real arithmetic, as on its own, in a stack of its own
    stacks = {}
    for k, s in enumerate(systems):
        W = s.modal_inverse()
        stacks.setdefault(None if W is None else W.dtype, []).append(k)
    for dtype, idx in stacks.items():
        if dtype is None:
            squares[idx] = [_h2_kronecker(systems[k]) for k in idx]
            continue
        stack = [systems[k] for k in idx]
        eigs = np.stack([s.eig()[0] for s in stack])
        V = np.stack([s.eig()[1] for s in stack])
        W = np.stack([s.modal_inverse() for s in stack])
        Ct = np.stack([s.C for s in stack]) @ V
        Bt = W @ np.stack([s.B for s in stack])
        X = -(Bt @ Bt.conj().swapaxes(1, 2)) / (eigs[:, :, None] + eigs.conj()[:, None, :])
        squares[idx] = np.sum((Ct.conj().swapaxes(1, 2) @ Ct).swapaxes(1, 2) * X,
                              axis=(1, 2)).real
    return np.array([np.sqrt(max(v, 0.0)) for v in squares.tolist()])


def _h2_kronecker(sys: StateSpace) -> float:
    """``H2^2 = trace(C P C^T)`` of one strictly stable system from the
    Kronecker form of its Lyapunov equation, for A without a modal form."""
    n = sys.n_states
    eye = np.eye(n)
    P = np.linalg.solve(np.kron(eye, sys.A) + np.kron(sys.A, eye),
                        -(sys.B @ sys.B.T).ravel()).reshape(n, n)
    return float(np.trace(sys.C @ P @ sys.C.T))
