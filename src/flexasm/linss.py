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
  :func:`interconnect`, :func:`invert_channels`, :class:`StaticClosure`
  (and so :func:`lft_upper`) and ``scenario.close_loop`` are built from
  already-checked systems through the private ``StateSpace._unchecked``,
  which only marks the arrays read only: the plants and loops the planner
  builds run no validating constructor.
* Stacks: ``_stacks`` is the one rule by which every stacked pass
  groups a list (by a key, in order of first appearance) and cuts each
  group (at ``_STACK_BYTES``), so each slice keeps the bits of its
  system alone.  ``_interconnects`` and ``_invert_channels`` build the
  port plants of a list as stacks (the public forms are lists of one).
  ``scenario.close_loop`` builds a list of loops as views of
  ``(k, n, n)`` stacks, ``_prime_modes`` fills their eigendecomposition
  caches from one stacked ``np.linalg.eig`` and one stacked ``inv``, and
  :func:`h2_norm` prices a list of systems in one pass, each per stack of
  equal shapes.  The two stages of the H-infinity peak
  search, the seed-grid bound (``_seed_bound``) and the Brent polish
  (``_polish``), run for a list of systems in one lockstep: every step
  evaluates the transfers of all systems of one shape that ask for as
  many frequencies as one stacked product (``_gains``), and a polish
  keeps each such stack for as long as its members stay the same.  The
  Hamiltonian level-set test of the certificate
  (``_hamiltonian_imag_crossings``) builds the matrices of a list of
  systems as stacks per shape and solves each stack with one stacked
  ``np.linalg.eigvals``.  ``_prime_peaks`` is the one place an
  H-infinity norm is computed: it runs all of :func:`hinf_norm`'s
  algorithm for a list of channels, every certificate round for the
  channels still open, and leaves each norm for :func:`hinf_norm`.  Each
  result has the bits of computing it for its system alone; a single
  system is a list of one.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    EigenFailure,
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
    "FreqResponse",
    "gain",
    "interconnect",
    "invert_channels",
    "lft_upper",
    "StaticClosure",
    "freq_response",
    "sigma_max",
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
        vectors.  Widths must sum to m and p respectively (``()`` for none).

    The eigendecomposition ``A = V diag(lambda) V^-1`` (:meth:`eig`), the
    modal inverse ``V^-1`` with its one gate (:meth:`modal_inverse`) and
    the H-infinity seed grid (``_seed_grid``) are each
    computed at most once, on first use, and :meth:`subsystem` slices share
    A and all three with their parent: every norm and margin priced on one
    closed loop reads one ``np.linalg.eig(A)`` and one ``np.linalg.inv(V)``,
    its own or its share of a stacked pair (``_prime_modes``).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    in_channels: tuple
    out_channels: tuple
    _modes: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        D = np.atleast_2d(np.asarray(self.D, dtype=float))
        n = A.shape[0]
        p, m = D.shape
        B = np.asarray(self.B, dtype=float).reshape(n, m)
        C = np.asarray(self.C, dtype=float).reshape(p, n)
        if A.shape != (n, n):
            raise ValueError("A must be square")
        object.__setattr__(self, "A", _ro(A))
        object.__setattr__(self, "B", _ro(B))
        object.__setattr__(self, "C", _ro(C))
        object.__setattr__(self, "D", _ro(D))
        object.__setattr__(self, "in_channels", _norm_channels(self.in_channels, m, "input"))
        object.__setattr__(self, "out_channels", _norm_channels(self.out_channels, p, "output"))
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
    same channels, the channel positions found once: an edge's loops, of
    one or two state counts, slice their priced channel in one call.  An
    empty list gives an empty list."""
    for kind, names in (("input", inputs), ("output", outputs)):
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate {kind} channel name in {list(names)}")
    if not systems:
        return []
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


# Bytes of one stack of stacked arithmetic: a seed grid of a mission
# channel has hundreds of points, so this bounds the resolvents of one
# stacked evaluation (``_gains``), and likewise every other stack.
# ``_stacks`` alone groups and cuts the stacks by it.
_STACK_BYTES = 1 << 16


def _stacks(items, key, nbytes) -> list:
    """Index lists into ``items`` to stack: the items of equal ``key(item)``,
    groups in order of first appearance and members in list order, cut
    into lists of ``_STACK_BYTES // nbytes(first member)`` items (at least
    one).  Every stacked pass groups and cuts its stacks here, and each
    slice of a stack has the bits of its item alone.  An edge's loops come
    in at most two consecutive runs of equal shapes, so grouping them by
    shape gives the runs.  An empty list gives no stacks."""
    groups = {}
    for i, item in enumerate(items):
        groups.setdefault(key(item), []).append(i)
    out = []
    for idx in groups.values():
        step = max(1, _STACK_BYTES // max(1, nbytes(items[idx[0]])))
        out += [idx[c:c + step] for c in range(0, len(idx), step)]
    return out


def _prime_modes(systems) -> None:
    """Fill the :meth:`StateSpace.eig` and :meth:`StateSpace.modal_inverse`
    caches of a list of systems, per stack of equal shapes (``_stacks``),
    from one stacked ``np.linalg.eig`` of their A and one stacked ``inv`` of
    the eigenvectors (``_gated_inverse``).  Each system's share has the bits
    its own calls give it.  ``np.linalg.eig`` returns real arrays for a
    matrix whose poles are all real, which a complex stack cannot share,
    so such a system is left to its own calls."""
    for part in _stacks(systems, lambda s: s.A.shape, lambda s: 8 * s.n_states ** 2):
        stack = [systems[i] for i in part]
        eigs, V = np.linalg.eig(np.stack([s.A for s in stack]))
        for sys, w, v, W in zip(stack, eigs, V, _gated_inverse(V)):
            if w.imag.any():
                sys._modes["eig"] = w, v
                sys._modes["inv"] = W


def gain(D, in_channels, out_channels) -> StateSpace:
    """Static (stateless) gain block."""
    D = np.atleast_2d(np.asarray(D, dtype=float))
    return StateSpace(np.zeros((0, 0)), np.zeros((0, D.shape[1])),
                      np.zeros((D.shape[0], 0)), D, in_channels, out_channels)


def split_channel(sys: StateSpace, name: str, parts: Sequence) -> StateSpace:
    """Split one channel into consecutive narrower ones (metadata only).

    ``parts`` is a list of ``(name, width)`` whose widths must sum to the
    original channel width.  Works on whichever direction carries ``name``.
    """
    def _split(channels):
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

    ins, hit_in = _split(sys.in_channels)
    outs, hit_out = _split(sys.out_channels)
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
    """Block-diagonal float array of 2-D blocks, or stack of them from
    ``(k, p, q)`` stacks of blocks.  A zero-size block still takes its rows
    or columns: a (0, m) block adds m empty columns."""
    lead = mats[0].shape[:-2] if mats else ()
    out = np.zeros(lead + (sum(m.shape[-2] for m in mats), sum(m.shape[-1] for m in mats)))
    r = c = 0
    for m in mats:
        p, q = m.shape[-2:]
        out[..., r:r + p, c:c + q] = m
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
        ``(new_name, target)`` pairs naming one input channel each.
        External inputs add on top of any wired signal at the same target.
        Inputs that are neither wired nor external are held at zero.
    external_out:
        ``(new_name, source)`` pairs selecting which internal outputs the
        closed system exposes.

    Notes
    -----
    The static loop ``I - D_loop`` must be well posed (``rcond`` at least
    ``WELLPOSED_RCOND``, else :class:`IllPosedLoop`): it is solved once, so
    the result has exactly ``sum(n_states)`` states.  It is the list of
    one of ``_interconnects``.
    """
    return _interconnects([blocks], wiring, external_in, external_out)[0]


def _interconnects(diagrams, wiring, external_in, external_out) -> list:
    """:func:`interconnect` of each of a list of diagrams wired alike,
    whose blocks have the names, channels and shapes of the first's.

    The wiring, its ``S``, ``E`` and ``F`` and the channels are resolved
    once, on the first diagram.  The loops ``I - D S`` stack
    (``_stacks``, at most ``_STACK_BYTES`` of them at a time), each stack
    gated by one :func:`_rcond` and solved by one ``solve``.  Each system
    is a read-only view of the stacked products with the bits of closing
    its diagram alone; an ill-posed loop raises :class:`IllPosedLoop` as it
    does alone.  No diagram gives no system."""
    if not diagrams:
        return []
    diagrams = [list(blocks) for blocks in diagrams]
    blocks = diagrams[0]
    names = [n for n, _ in blocks]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate block names in {names}")

    m_all = sum(b.n_inputs for _, b in blocks)
    p_all = sum(b.n_outputs for _, b in blocks)
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
    for new_name, dst in external_in:
        s = _resolve(blocks, dst, "in")
        ext_in.append((str(new_name), s.stop - s.start, s))
    m_ext = sum(w for _, w, _ in ext_in)
    E = np.zeros((m_all, m_ext))
    col = 0
    for _, width, s in ext_in:
        E[s, col:col + width] = np.eye(width)
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

    closed = []
    for part in _stacks(diagrams, lambda d: None, lambda d: 8 * p_all * p_all):
        # per block, the stack of its matrices
        columns = list(zip(*([b for _, b in diagrams[i]] for i in part)))
        A, B, C, D = (_block_diag([np.stack([getattr(b, x) for b in col]) for col in columns])
                      for x in "ABCD")
        psi = loop = np.eye(p_all) - D @ S
        if p_all:
            for rcond in _rcond(loop):
                if rcond < WELLPOSED_RCOND:
                    raise IllPosedLoop(f"static loop is ill posed (rcond={rcond:.2e})")
            psi = np.linalg.solve(loop, np.eye(p_all))
        closed += zip(A + B @ S @ psi @ C, B @ (np.eye(m_all) + S @ psi @ D) @ E,
                      F @ psi @ C, F @ psi @ D @ E)
    ins = _norm_channels([(nm, w) for nm, w, _ in ext_in], m_ext, "input")
    outs = _norm_channels([(nm, w) for nm, w, _ in ext_out], p_ext, "output")
    return [StateSpace._unchecked(*mats, ins, outs) for mats in closed]


def invert_channels(sys: StateSpace, in_names, out_names) -> StateSpace:
    """Swap the roles of the input channels listed in ``in_names`` and
    the output channels listed in ``out_names``.

    The feedthrough block from the selected inputs to the selected outputs
    must be square (else :class:`NonSquareSelection`) and invertible, its
    2-norm condition number finite and at most 1e12 (else
    :class:`SingularDBlock`).  New inputs are the former outputs (in listed
    order) followed by the untouched inputs; dually for outputs.  It is the
    list of one of ``_invert_channels``.
    """
    return _invert_channels([sys], in_names, out_names)[0]


def _invert_channels(systems, in_names, out_names) -> list:
    """:func:`invert_channels` of each of a list of systems with the
    channels and shapes of the first: the channels are found once on it,
    the feedthrough blocks take one stacked ``cond`` and one ``solve``, and
    each system is a read-only view of the stacked products with the bits
    of inverting it alone; a singular block raises :class:`SingularDBlock`
    as it does alone.  No system gives no system."""
    if not systems:
        return []
    sys = systems[0]
    w_in = sum(sys.in_width(c) for c in in_names)
    w_out = sum(sys.out_width(c) for c in out_names)
    if w_in != w_out:
        raise NonSquareSelection(f"invert widths {w_in} vs {w_out}")

    cols1, _ = sys._index(sys.in_channels, in_names)
    rows1, _ = sys._index(sys.out_channels, out_names)
    cols2 = np.array([i for i in range(sys.n_inputs) if i not in set(cols1)], dtype=int)
    rows2 = np.array([i for i in range(sys.n_outputs) if i not in set(rows1)], dtype=int)

    A, B, C, D = (np.stack([getattr(s, k) for s in systems]) for k in "ABCD")
    B1, B2 = B[:, :, cols1], B[:, :, cols2]
    C1, C2 = C[:, rows1, :], C[:, rows2, :]
    D11 = D[:, rows1[:, None], cols1]
    D12 = D[:, rows1[:, None], cols2]
    D21 = D[:, rows2[:, None], cols1]
    D22 = D[:, rows2[:, None], cols2]

    for cond in (np.linalg.cond(D11).tolist() if w_in else [np.inf]):
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularDBlock(f"feedthrough block not invertible (cond={cond:.3e})")
        _log.debug("invert_channels %s -> %s: feedthrough condition %.3e",
                   in_names, out_names, cond)
    new_in = _norm_channels(tuple((c, sys.out_width(c)) for c in out_names) + tuple(
        (c, w) for c, w in sys.in_channels if c not in in_names), sys.n_inputs, "input")
    new_out = _norm_channels(tuple((c, sys.in_width(c)) for c in in_names) + tuple(
        (c, w) for c, w in sys.out_channels if c not in out_names), sys.n_outputs, "output")
    Dinv = np.linalg.solve(D11, np.eye(w_in))

    BD, DD = B1 @ Dinv, D21 @ Dinv
    A_n = A - BD @ C1
    B_n = np.concatenate([BD, B2 - BD @ D12], axis=2)
    C_n = np.concatenate([-Dinv @ C1, C2 - DD @ C1], axis=1)
    D_n = np.block([[Dinv, -Dinv @ D12],
                    [DD, D22 - DD @ D12]])
    return [StateSpace._unchecked(*mats, new_in, new_out) for mats in zip(A_n, B_n, C_n, D_n)]


def _rcond(loop: np.ndarray):
    """``1 / cond_1(loop)`` with the arithmetic of ``np.linalg.cond(loop,
    1)``, and its bits: one inverse and two 1-norms.  A loop whose inverse
    fails is singular, rcond 0.0, as ``cond`` reports it.  A ``(k, n, n)``
    stack gives a list from one stacked ``inv``; when one loop fails the
    stacked ``inv``, each is taken alone."""
    try:
        inv = np.linalg.inv(loop)
    except np.linalg.LinAlgError:
        return 0.0 if loop.ndim == 2 else [_rcond(x) for x in loop]
    # Python floats: an overflowing product is inf, as in ``cond``
    norms = (np.linalg.norm(x, 1, (-2, -1)).reshape(-1).tolist() for x in (loop, inv))
    rconds = [1.0 / (a * b) for a, b in zip(*norms)]
    return rconds[0] if loop.ndim == 2 else rconds


class StaticClosure:
    """Close ``w = K z`` with static gains and drop the channel pair:
    ``StaticClosure(sys, w_channel, z_channel)(Ks)`` closes a ``(S, w,
    z)`` stack of gains into a list of ``S`` systems.

    Works on the matrices alone: with ``Z = (I - D_zw K)^-1``, the closed
    system is ``A + B_w K Z C_z``, ``B_u + B_w K Z D_zu``,
    ``C_y + D_yw K Z C_z`` and ``D_yu + D_yw K Z D_zu``.  States and the
    order of the remaining channels are unchanged; the result equals the
    :func:`interconnect` closure of the same loop.

    Building it gathers every operand that does not depend on ``K``: the
    channel slices, ``[C_z, D_zu]``, ``[A, B_u]``, ``[C_y, D_yu]``, the
    columns ``B_w`` and ``D_yw`` and the remaining channels, so a caller
    closing many gains on one system builds it once.  Calling it checks
    the stack's shape (else :class:`WidthMismatch`), then raises
    :class:`IllPosedLoop` for a non-finite gain or an ill-posed loop:
    ``rcond(I - D_zw K)``, from one stacked inverse (:func:`_rcond`),
    below ``WELLPOSED_RCOND``.  It closes the stack with one stacked solve
    and stacked products; each system is a view of the stack with the bits
    of closing its gain alone, a stack of one.  It reads its own system's
    channels: a :meth:`StateSpace.subsystem` slice gets its own closure,
    never its parent's.
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

    def __call__(self, Ks) -> list:
        Ks = np.asarray(Ks, dtype=float)
        if Ks.shape[:1] == (0,):
            return []
        if Ks.ndim != 3 or Ks.shape[1:] != self._shape:
            raise WidthMismatch(
                f"gain stack {Ks.shape} does not map {self._z_channel!r} "
                f"({self._shape[1]}) to {self._w_channel!r} ({self._shape[0]})")
        finite = np.isfinite(Ks).all(axis=(1, 2))
        if not finite.all():
            raise IllPosedLoop(f"static gain {Ks[finite.argmin()].tolist()} is not finite")
        loops = np.eye(self._shape[1]) - self._D_zw @ Ks
        for rcond in _rcond(loops):
            if rcond < WELLPOSED_RCOND:
                raise IllPosedLoop(f"static loop is ill posed (rcond={rcond:.2e})")
        # the closed loops' w as a function of [x; u]
        G = Ks @ np.linalg.solve(loops, self._z_rows)
        tops = self._top + self._B_w @ G
        bottoms = self._bottom + self._D_yw @ G
        n = self._n
        return [StateSpace._unchecked(top[:, :n], top[:, n:], bottom[:, :n], bottom[:, n:],
                                      self._ins, self._outs)
                for top, bottom in zip(tops, bottoms)]


def lft_upper(plant: StateSpace, delta: float) -> StateSpace:
    """Upper LFT with a repeated real scalar: close ``w = delta * z`` on
    the uncertainty pair ``W_CHANNEL``/``Z_CHANNEL``, through the plant's
    :class:`StaticClosure` (unequal widths raise :class:`WidthMismatch`, a
    non-finite delta or an ill-posed loop :class:`IllPosedLoop`)."""
    K = np.diag(np.full(plant.in_width(W_CHANNEL), float(delta)))
    return StaticClosure(plant, W_CHANNEL, Z_CHANNEL)([K])[0]


# ---------------------------------------------------------------------------
# Frequency response and stability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreqResponse:
    """Result of a frequency sweep.

    ``values[k]`` is the complex p x m transfer matrix at ``points[k]``;
    entries for skipped pole-adjacent frequencies are recorded in
    ``skipped`` and excluded from ``points``/``values``.
    """

    points: np.ndarray
    values: np.ndarray
    skipped: tuple

    def magnitude(self) -> np.ndarray:
        """Largest singular value per retained grid point."""
        return np.linalg.svd(self.values, compute_uv=False)[:, 0]


def freq_response(sys: StateSpace, ws) -> FreqResponse:
    """Evaluate the transfer matrix at the angular frequencies ``ws``
    (an array or a sequence, in rad/s).

    Points closer than 1e-12 to an eigenvalue of A (an exactly marginal
    pole) are skipped and reported, not errored: open-loop free-floating
    plants legitimately carry such modes.
    """
    pts = np.asarray(ws, dtype=float).ravel()
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


def _transfer_batch(sys: StateSpace, ws) -> np.ndarray:
    """``C (jwI - A)^-1 B + D`` stacked over the angular frequencies ``ws``.

    Each slice has the bits of ``sys.transfer_at(1j * w)``: the stacked
    solve and product run the same LAPACK/BLAS call per frequency.  The
    frequencies are cut into stacks of at most ``_STACK_BYTES`` of complex
    matrices (``_stacks``): the planner prices through ``_transfer_kernel``,
    so this only bounds the memory of long sweeps such as ``analyze
    --points``.
    """
    ws = np.asarray(ws, dtype=float).ravel()
    n = sys.n_states
    if n == 0:
        return np.repeat(sys.D.astype(complex)[None], ws.size, axis=0)
    out = np.empty((ws.size,) + sys.D.shape, dtype=complex)
    eye = np.eye(n)
    for part in _stacks(ws, lambda w: None, lambda w: 16 * n * n):
        X = np.linalg.solve((1j * ws[part])[:, None, None] * eye - sys.A, sys.B)
        out[part] = sys.C @ X + sys.D
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


def _seed_grid(sys: StateSpace) -> np.ndarray:
    """The H-infinity seed grid ``_seed_frequencies`` of A's poles,
    computed once per A and shared with every slice: both H-infinity
    channels of a loop read it."""
    modes = sys._modes
    if "seeds" not in modes:
        modes["seeds"] = _seed_frequencies(sys.eig()[0])
    return modes["seeds"]


class _Kernel(NamedTuple):
    """Evaluator ``ws -> C (jwI - A)^-1 B + D`` of one system, stacked over
    angular frequencies, from the poles and the modal form of A
    (``_modal_form``).

    With ``A V = V diag(eigs)`` the transfer is the pole-residue sum
    ``sum_k (C V)[:, k] (V^-1 B)[k, :] / (jw - eigs[k]) + D`` (Laub 1981).
    The residues are built once per channel as the n x pm matrix ``res[k,
    i*m + j] = (C V)[i, k] (V^-1 B)[k, j]``, so any stack of frequencies is
    one matrix product with the resolvent ``R = 1 / (jw - eigs)``, and the
    kernels of one shape stack (``_gains``).  A defective or nearly
    defective A (no modal form) has ``res`` None and falls back to the
    stacked solve ``_transfer_batch``.
    """

    sys: StateSpace
    eigs: np.ndarray
    res: Optional[np.ndarray]

    def __call__(self, ws) -> np.ndarray:
        if self.res is None:
            return _transfer_batch(self.sys, ws)
        return _stacked_transfer(_stack([self]), np.array(ws, dtype=float)[None])[0]


def _transfer_kernel(sys: StateSpace) -> _Kernel:
    """The :class:`_Kernel` of ``sys``: its poles and residue matrix, or
    the stacked solve when :meth:`StateSpace.modal_inverse` gates the
    modal form out."""
    eigs = sys.eig()[0]
    modal = _modal_form(sys)
    if modal is None:
        return _Kernel(sys, eigs, None)
    CV, VB = modal
    p, m = sys.D.shape
    return _Kernel(sys, eigs, (CV.T[:, :, None] * VB[:, None, :]).reshape(eigs.size, p * m))


def _stack(kernels):
    """The stacked poles, residue matrices and feedthroughs of kernels with
    residues and one shape, which ``_stacked_transfer`` evaluates."""
    return (np.stack([k.eigs for k in kernels]), np.stack([k.res for k in kernels]),
            np.stack([k.sys.D for k in kernels]))


def _stacked_transfer(stack, W: np.ndarray) -> np.ndarray:
    """The ``(S, k, p, m)`` transfers of the ``S`` kernels of a ``_stack``,
    each at its row of the ``(S, k)`` angular frequencies ``W``: one
    ``(S, k, n) @ (S, n, pm)`` product of the resolvents and the residue
    matrices, plus D.  Each slice has the bits of its kernel's own ``(k,
    n) @ (n, pm)`` product, because each slice keeps that row count: one
    row takes another BLAS path than several."""
    eigs, res, D = stack
    R = 1.0 / (1j * W[:, :, None] - eigs[:, None, :])
    return (R @ res).reshape(W.shape + D.shape[1:]) + D[:, None]


def _gains(kernels, wss, gain, stacks=None) -> list:
    """``gain`` of each kernel's transfers at its own angular frequencies
    ``wss[i]``, as a list of arrays.  ``gain`` maps an ``(S, k, p, m)``
    stack of transfers to ``(S, k)`` gains.  Kernels with residues, one
    shape and as many frequencies are evaluated as one stack (``_stacks``,
    at most ``_STACK_BYTES`` of resolvents, ``_stacked_transfer``) and
    one ``gain`` call, so each array has the bits of its kernel alone; a
    kernel without a modal form takes its stacked solve alone.  A caller
    that asks again and again passes a dict ``stacks``: it maps the
    members of each stack of the last call (their ids) to its ``_stack``,
    so a stack whose members stay the same is not stacked again."""
    out = [None] * len(kernels)
    last, kept = stacks or {}, {}
    for part in _stacks(list(zip(kernels, wss)),
                        lambda kw: (kw[0].res is None, kw[0].eigs.size, kw[0].sys.D.shape,
                                    len(kw[1])),
                        lambda kw: 16 * len(kw[1]) * kw[0].eigs.size):
        members = [kernels[i] for i in part]
        if members[0].res is None:
            for i, kern in zip(part, members):
                out[i] = gain(kern(wss[i])[None])[0]
            continue
        key = tuple(map(id, members))
        stack = kept[key] = last[key] if key in last else _stack(members)
        vals = gain(_stacked_transfer(stack, np.array([wss[i] for i in part], dtype=float)))
        for i, v in zip(part, vals):
            out[i] = v
    if stacks is not None:
        stacks.clear()
        stacks.update(kept)
    return out


def spectral_abscissa(A) -> float:
    """Largest real part of the eigenvalues of the square array ``A``, -inf
    for an empty one; a system is strictly stable when this is below
    ``-STAB_TOL``."""
    A = np.asarray(A)
    if A.shape[0] == 0:
        return -np.inf
    return float(np.max(np.linalg.eigvals(A).real))


# ---------------------------------------------------------------------------
# Channel projection
# ---------------------------------------------------------------------------

def minimal_stable_projection(sys: StateSpace, in_channel: str,
                              out_channel: str) -> StateSpace:
    """The one-input, one-output channel pair a cost prices, sliced from
    ``sys`` with every state kept.

    The priced closed loops are strictly stable, so the sliced channel is
    already a stable realization and the norms take it as it is; they also
    own the one stability test.  The planner slices each edge's channels
    with ``_subsystems`` instead and never calls this; the name stays
    because ``perfbench/tracer.py`` wraps this function by name.
    """
    return sys.subsystem([out_channel], [in_channel])


# ---------------------------------------------------------------------------
# System norms
# ---------------------------------------------------------------------------

def _hamiltonian_imag_crossings(systems, levels) -> list:
    """Imaginary-axis eigenfrequencies of the H-infinity test Hamiltonian of
    each of a list of systems at its level ``levels[i]``, sorted and without
    repeats, as a list of arrays.  The 2n x 2n matrices of the systems of
    one shape (states, inputs, outputs) are built as stacks (``_stacks``)
    of at most ``_STACK_BYTES``, block by block in place, ``I + D R^-1
    D^T`` by adding 1 to the diagonals; one identity serves each ``R`` and
    its inverse.
    Each stack is solved by one stacked ``np.linalg.eigvals``, and every
    slice has the bits of building and solving its system alone.  With no
    imaginary eigenvalue, which is the certificate's usual answer, the
    result is the empty array without rounding or sorting."""
    out = [None] * len(systems)
    for part in _stacks(systems, lambda s: (s.n_states,) + s.D.shape,
                        lambda s: 32 * s.n_states ** 2):
        A, B, C, D = (np.stack([getattr(systems[i], name) for i in part]) for name in "ABCD")
        n, (p, m) = A.shape[1], D.shape[1:]
        eye = np.eye(m)
        g = np.array([levels[i] for i in part])
        Bt, Ct, Dt = B.swapaxes(1, 2), C.swapaxes(1, 2), D.swapaxes(1, 2)
        Rinv = np.linalg.solve((g * g)[:, None, None] * eye - Dt @ D, eye)
        BR = B @ Rinv
        Q = D @ Rinv @ Dt
        Q.reshape(len(part), p * p)[:, ::p + 1] += 1.0
        H = np.empty((len(part), 2 * n, 2 * n))
        H[:, :n, :n] = A + BR @ Dt @ C
        H[:, :n, n:] = BR @ Bt
        H[:, n:, :n] = -Ct @ Q @ C
        H[:, n:, n:] = -H[:, :n, :n].swapaxes(1, 2)
        ev = np.linalg.eigvals(H)
        keep = np.abs(ev.real) <= 1e-8 * np.maximum(1.0, np.abs(ev.imag))
        for i, e, k in zip(part, ev, keep):
            out[i] = _distinct(np.round(np.abs(e.imag[k]), 12)) if k.any() else np.empty(0)
    return out


def _distinct(x: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a finite 1-D array, with the bits of
    ``np.unique(x)``, which sorts the same way but imports ``numpy.ma``
    on its first call."""
    x = np.sort(x)
    keep = np.ones(x.shape, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _seed_frequencies(eigs):
    """Seed grid from the poles ``eigs``: each pole frequency and its
    neighbours, plus four decades, sorted and without repeats."""
    w0 = np.where(np.abs(eigs.imag) > 1e-12, np.abs(eigs.imag), np.abs(eigs.real))
    w0 = w0[w0 > 1e-12]
    factors = (0.2, 0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0, 5.0)
    return _distinct(np.concatenate([[1e-6, 1e-3, 1.0, 1e3],
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
    """Largest singular value of each matrix of the stack ``G``, of any
    number of stacked dimensions: the square
    root of the top eigenvalue of ``G G^H``, which has relative error about
    eps for any shape of ``G`` (squaring halves the exponent range, which
    still spans every transfer gain here).  It takes about half an SVD's
    time on a seed grid and about the same on one to three frequencies."""
    return np.sqrt(np.linalg.eigvalsh(G @ G.conj().swapaxes(-1, -2))[..., -1])


def _polish(kernels, gain, grids) -> list:
    """Largest gain of each kernel seen by Brent searches from its grid's
    points ``ws[idx]`` between their neighbours (0 below the first point,
    twice the last above it), ``grids[i] = (ws, vals, idx)``.  Its callers
    pass only local maxima of ``vals``: a search from beside a higher
    neighbour crawls to its bracket edge and the lockstep waits for it.

    Every search of every kernel runs in one lockstep, so each step is one
    ``_gains`` call: the live searches of kernels of one shape stack,
    grouped by how many each kernel still runs, which keeps every gain's
    bits.  ``gain`` maps an ``(S, k, p, m)`` stack of transfers to ``(S,
    k)`` gains.  A stack whose members stay the same from one step to the
    next is not stacked again (``_gains``'s ``stacks``).  The searches and
    their brackets are Python lists and floats, and each kernel's best is
    a plain ``max``: a step costs the ``_gains`` call and little else, and
    every abscissa and value has the bits numpy scalars give it."""
    best, owners, searches, xs = [], [], [], []
    for i, (ws, vals, idx) in enumerate(grids):
        wl = ws.tolist()
        edges = [0.0] + wl + [2.0 * wl[-1]]
        starts = [(int(k), float(vals[k])) for k in idx]
        best.append(max(f for _, f in starts))
        for k, f in starts:
            search = _brent_max(edges[k], edges[k + 2], wl[k], f)
            owners.append(i)
            searches.append(search)
            xs.append(next(search))
    stacks = {}
    while searches:
        asked = {}
        for i, x in zip(owners, xs):
            asked.setdefault(i, []).append(x)
        answers = {}
        for i, fs in zip(asked, _gains([kernels[i] for i in asked], list(asked.values()), gain,
                                       stacks)):
            fs = fs.tolist()
            best[i] = max(best[i], max(fs))
            answers[i] = iter(fs)
        step = list(zip(owners, searches))
        owners, searches, xs = [], [], []
        for i, search in step:
            f = next(answers[i])
            try:
                xs.append(search.send(f))
                owners.append(i)
                searches.append(search)
            except StopIteration:
                pass
    return best


def _seed_bound(kernels, gain) -> list:
    """Bound stage of the frequency-peak search of each of a list of
    kernels (:class:`_Kernel`): the seed grid ``ws`` (``_seed_grid``), the
    grid gains ``vals`` and the indices ``starts`` of those of the three
    best grid points that are local maxima (the global maximum always is),
    where the exact stage polishes (:func:`_polish`), as a list of ``(ws,
    vals, starts)``.  The grids are evaluated as stacks (``_gains``), and
    ``gain`` maps a stack of seed-grid transfers to its gains:
    ``_screened_sigma_max`` for :func:`hinf_norm`, the spectral radius for
    ``robust.mu_upper_bound``.  ``vals.max()`` is a lower bound on the
    peak."""
    grids = [_seed_grid(k.sys) for k in kernels]
    out = []
    for ws, vals in zip(grids, _gains(kernels, grids, gain)):
        peak = np.ones(vals.size, dtype=bool)
        peak[1:] &= vals[1:] >= vals[:-1]
        peak[:-1] &= vals[:-1] >= vals[1:]
        # a stable sort breaks ties by index alone, so the screen's -inf
        # entries cannot change which of several equal gains is kept
        top = np.argsort(vals, kind="stable")[-3:]
        out.append((ws, vals, top[peak[top]]))
    return out


# Relative slack on both Frobenius bounds of the seed screen: far above
# the rounding of ||G||_F^2 and of the Gram eigenvalue.
_SCREEN_SLACK = 1e-9


def _screened_sigma_max(G: np.ndarray) -> np.ndarray:
    """sigma_max of each seed-grid row of the ``(S, g, p, m)`` stack ``G``
    wherever it can decide the row's three best points or their
    local-maximum tests; -inf elsewhere.

    With ``F^2 = ||G||_F^2`` and ``r = min(p, m)``, ``F^2 / r <= sigma_max^2
    <= F^2``.  A point whose upper bound lies below the third-largest lower
    bound of its row (each with ``_SCREEN_SLACK`` relative slack) is beaten
    by three points, so it is not among the three best; one
    ``_gram_sigma_max`` runs only at the other points and at their grid
    neighbours, over every row.  ``G`` is not empty (``r >= 1``) and each
    row holds at least the four decade points of ``_seed_frequencies``.
    """
    r = min(G.shape[2:])
    f2 = np.square(G.view(np.float64)).sum(axis=(2, 3))
    third = np.partition(f2, -3, axis=1)[:, -3:-2] / r
    keep = f2 * (1.0 + _SCREEN_SLACK) >= third * (1.0 - _SCREEN_SLACK)
    near = keep.copy()
    near[:, 1:] |= keep[:, :-1]
    near[:, :-1] |= keep[:, 1:]
    vals = np.full(f2.shape, -np.inf)
    vals[near] = _gram_sigma_max(G[near])
    return vals


def _hinf_peaks(kernels) -> list:
    """The polished H-infinity peak of each kernel: the bound stage with
    the screened sigma_max, then the polish, both in one lockstep."""
    return _polish(kernels, _gram_sigma_max, _seed_bound(kernels, _screened_sigma_max))


def _peak_key(sys: StateSpace):
    """The key under which ``_prime_peaks`` leaves ``sys``'s norm in the
    ``_modes`` cache its loop shares with every slice: slices of one loop
    with the same channels have the same matrices."""
    return "peak", sys.in_channels, sys.out_channels


def _prime_peaks(systems) -> None:
    """Compute the H-infinity norms of a list of channel slices in one pass,
    as :func:`hinf_norm` describes, and leave each in its loop's
    ``_modes`` cache under ``_peak_key``: the norm, or None where
    ``_MAX_ROUNDS`` rounds leave it uncertified.  sigma_max(D) comes from
    one stacked SVD per stack of equal D shapes (``_stacks``), and each
    certificate round runs for the channels still open: one stacked
    level-set test, then one ``_gains`` and one ``_polish`` call for those
    with crossings.  Each value has
    the bits of its system alone.  A system with no states, no input or
    no output, or a pole with Re >= -STAB_TOL, is left to
    :func:`hinf_norm`."""
    ready = [s for s in systems
             if s.n_states and min(s.D.shape)
             and float(np.max(s.eig()[0].real)) < -STAB_TOL]
    kernels = [_transfer_kernel(s) for s in ready]
    gammas = _hinf_peaks(kernels)
    for idx in _stacks(ready, lambda s: s.D.shape, lambda s: 8 * s.D.size):
        top = np.linalg.svd(np.stack([ready[i].D for i in idx]), compute_uv=False)[:, 0]
        for i, sd in zip(idx, top.tolist()):
            gammas[i] = max(sd, gammas[i])
    norms = [0.0 if g <= 0.0 else None for g in gammas]
    live = [i for i, g in enumerate(gammas) if g > 0.0]
    for _ in range(_MAX_ROUNDS):
        if not live:
            break
        hit, wss = [], []
        for i, cross in zip(live, _hamiltonian_imag_crossings(
                [ready[i] for i in live], [gammas[i] * (1.0 + 2.0 * HINF_RTOL) for i in live])):
            if cross.size:
                hit.append(i)
                wss.append(_distinct(np.concatenate([cross, 0.5 * (cross[:-1] + cross[1:])])))
            else:
                norms[i] = gammas[i]
        if not hit:
            break
        crossed = [kernels[i] for i in hit]
        grids = [(ws, vals, [int(np.argmax(vals))])
                 for ws, vals in zip(wss, _gains(crossed, wss, _gram_sigma_max))]
        live = []
        for i, best in zip(hit, _polish(crossed, _gram_sigma_max, grids)):
            if best <= gammas[i]:
                norms[i] = gammas[i]
            else:
                gammas[i] = best
                live.append(i)
    for sys, norm in zip(ready, norms):
        sys._modes[_peak_key(sys)] = norm


def hinf_norm(sys: StateSpace) -> float:
    """Peak gain sup_w sigma_max(G(jw)) by polish-then-certify.

    A's eigendecomposition (:meth:`StateSpace.eig`, computed once and
    shared with the loop the channel was sliced from) gives the stability
    test: a pole with Re >= -STAB_TOL raises :class:`UnstableSystem`.
    Every gain below goes through the residue-matrix kernel
    (``_transfer_kernel``: one matrix product per stack of frequencies, or
    the stacked solve when :meth:`StateSpace.modal_inverse` gates the modal
    form out), and sigma_max comes from the Gram matrix of each transfer
    (``_gram_sigma_max``).  The bound stage (``_seed_bound``) evaluates
    the seed grid (every pole frequency and its neighbours, ``_seed_grid``)
    in one call, with sigma_max only where Frobenius bounds leave it able to
    change the answer (``_screened_sigma_max``).  The exact stage polishes
    the grid's best local maxima by Brent searches in lockstep
    (:func:`_polish`).  ``gamma`` is the larger of the peak and
    sigma_max(D), the gain at infinity.  One Hamiltonian level-set test
    at ``gamma * (1 + 2 HINF_RTOL)``, on the state-space matrices and not
    on the eigenvectors, then certifies that no frequency reaches that
    level (Boyd-Balakrishnan-Kabamba 1989, Bruinsma-Steinbuch 1990).  If
    it finds crossings, the crossings and their midpoints are evaluated,
    the best is polished, and the test runs again.  The result is the
    largest gain evaluated: a lower bound within ``2 HINF_RTOL`` of the
    norm.  Crossings where no evaluated gain exceeds the bound are an
    artefact of the eigenvalue test, and the bound is returned as it
    stands.  A norm still uncertified after ``_MAX_ROUNDS`` rounds raises
    :class:`EigenFailure`.

    All of it runs in ``_prime_peaks``, for a list of channels at once:
    the planner primes a chunk of edges at a time, and this call primes
    the list of one unless the norm is cached already.  It runs the
    stability test, then takes the norm from the cache; it has the bits
    of computing it alone either way.
    """
    if sys.n_states == 0:
        return float(np.linalg.svd(sys.D, compute_uv=False)[0]) if sys.D.size else 0.0
    _stable_eig(sys, "H-infinity")
    if min(sys.D.shape) == 0:
        return 0.0      # no input or no output: an empty transfer
    key = _peak_key(sys)
    if key not in sys._modes:
        _prime_peaks([sys])
    norm = sys._modes.pop(key)
    if norm is None:
        raise EigenFailure(f"H-infinity certificate failed after {_MAX_ROUNDS} rounds")
    return norm


def h2_norm(systems) -> np.ndarray:
    """H2 norms sqrt(trace(C P C^T)) with A P + P A^T + B B^T = 0, of a
    list of systems with the same channels (the priced channel of one
    edge's loops), as an array.

    The list is priced in one pass, each norm with the bits of pricing
    its system alone, which is the list of one.  Systems are checked in
    order, each for zero feedthrough (else :class:`NonzeroFeedthrough`)
    and then for strict stability: A's eigendecomposition ``A V = V
    diag(lambda)`` is :meth:`StateSpace.eig`, computed once and shared
    with the loop the channel was sliced from, and a pole with Re >=
    -STAB_TOL raises :class:`UnstableSystem`.  When the modal inverse
    passes its gate (:meth:`StateSpace.modal_inverse`, ``cond_1(V) <
    MODAL_COND_MAX``, the one ``hinf_norm`` and the margin read) the
    Gramian is diagonal in the eigenbasis, ``P = V X V^H`` with ``X_ij =
    -(B~ B~^H)_ij / (lambda_i + conj(lambda_j))``, ``B~ = V^-1 B``, so
    ``H2^2 = Re sum_ij (C~^H C~)_ji X_ij`` with ``C~ = C V``; the systems
    that pass are priced as one stack of ``(k, n, n)`` products per stack
    of equal shapes (``_stacks``).  A defective or nearly defective A
    solves the Kronecker form ``(I (x) A + A (x) I) vec P = -vec(B B^T)``
    instead (``_h2_kronecker``), for that system only.
    """
    for s in systems:
        if np.max(np.abs(s.D)) > 1e-12 if s.D.size else False:
            raise NonzeroFeedthrough("H2 norm needs D = 0 on the selected channel")
        if s.n_states:
            _stable_eig(s, "H2")
    squares = np.zeros(len(systems))

    def kind(s):
        # one stack per shape and modal-inverse dtype: a system whose poles
        # are all real has a real modal inverse and is priced in real
        # arithmetic, as on its own
        W = s.modal_inverse() if s.n_states else None
        return s.A.shape, s.D.shape, None if W is None else W.dtype

    for idx in _stacks(systems, kind, lambda s: 8 * s.n_states ** 2):
        stack = [systems[k] for k in idx]
        if not stack[0].n_states:
            continue        # no states: norm 0
        if stack[0].modal_inverse() is None:
            squares[idx] = [_h2_kronecker(s) for s in stack]
            continue
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
