"""Structured-singular-value margins for the repeated real scalar block.

The only uncertainty structure in the loop is ``Delta = delta * I_2`` on
the ``w_omega``/``z_omega`` channel pair (the pulled-out mode frequency).
The margin is the first loss of stability (or of well-posedness, the
crossing at infinite frequency) as ``|delta|`` grows, on either sign.  A
probe reads only the eigenvalues of ``A + delta B_w (I - delta D_zw)^-1
C_z`` and counts the loop destabilized when its abscissa is ``>=
-STAB_TOL``; the tests check that matrix against ``linss.lft_upper``.
When ``D_zw`` has no nonzero entry, as on every mission loop, a probe
forms ``A + delta B_w C_z`` directly with no conditioning test and no
solve (the same bits: solving against I is exact).

The result is defined by a scan: ``|delta|`` on ``SCAN_POINTS`` grid
points, ``+t`` then ``-t`` at each, and a bisection to relative width
``TOL`` of the sign or signs that hit in the first hit bin, so it is a
dyadic bracket end of the probe predicate and not the exact crossing.
When ``D_zw = 0`` those bits are found from one eigendecomposition of A
instead of probing the way there.  ``_prime_margins`` does so for a
chunk of loops at a time, in three stacked rounds; the planner runs it
once per chunk, and a single loop is a list of one:

* **Candidates.** Two eigenvalues of ``A + delta B_w C_z`` sum to zero
  (a crossing at 0 or at ``+-jw``) exactly when ``delta = -1/phi`` for a
  real eigenvalue ``phi`` of a 2n x 2n matrix built in the eigenbasis of
  A (Fu & Barmish 1988, see :func:`_crossings`).  No pair can sum to zero
  while the loop is stable, so the candidate of smallest magnitude on
  each sign is that sign's first loss of stability.  The matrices of the
  loops of one size are assembled as stacks, each solved by one stacked
  ``eigvals``.
* **Threshold.** One secant probe refines that candidate to the
  magnitude where the predicate flips (:func:`_thresholds`), and the
  threshold answers the scan points and the bisection midpoints: the
  same loop, :func:`_bisect`, with a comparison for a predicate.  The
  probes of every ``(loop, sign)`` close as one stack
  (:func:`_closures`) and are solved by one stacked ``eigvals``
  (:func:`_abscissas`).
* **Certificate.** Real probes must agree at the final bracket of each
  hit sign (stable below, destabilized above), at the hit scan point on
  the other sign, and at ``+-delta_max`` when nothing hits
  (:func:`_certificate`).  That is three probes on a mission loop, where
  the scan makes 58, and every loop's probes run as one more stacked
  round.
* **Fallback.** If a certificate disagrees, ``D_zw != 0`` or the
  eigenvectors of A are ill conditioned (the loop's modal inverse
  ``V^-1``, :meth:`linss.StateSpace.modal_inverse`, is gated out at
  ``cond_1(V) >= linss.MODAL_COND_MAX``), the scan runs as it stands,
  for that loop alone.
  The eigendecomposition and ``V^-1`` are the loop's cached ones, shared
  with the H-infinity and H2 prices of its channel slices, so the margin
  computes neither again.

Every stack is grouped and cut by ``linss._stacks``, the rule of every
stacked pass: by state count, width (and, for the candidates, the
eigenvector type), at most ``linss._STACK_BYTES`` a stack, and every
slice has the bits of its loop alone.

``mu_lower`` is the reciprocal of the smallest destabilizing magnitude
and is exact for this block, so the name keeps only the conventional
"lower" role it plays against the complex-structure bound.

The complex upper bound, :func:`mu_upper_bound`, is the peak over
frequency of the spectral radius of the w->z transfer: the exact value for
a repeated *complex* scalar (Packard & Doyle 1993), so it bounds the real
one.  It runs the peak search of ``linss.hinf_norm`` with the spectral
radius for sigma_max, for a list of one: the seed-grid bound stage
(``linss._seed_bound``, on the loop's grid and residue kernel), then the
polish (``linss._polish``), without the certificate.
The ``mu`` edge cost reads only the margin and never runs the bound; the
planner primes it once per distinct loop, a chunk at a time
(``_prime_margins``).

Only the search range ``delta_max`` is a parameter; the channel pair
(``linss.W_CHANNEL``/``linss.Z_CHANNEL``), the scan density and the
bisection tolerance are module constants.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import NominalUnstable, WidthMismatch
from .linss import (StateSpace, _polish, _rcond, _seed_bound, _stacks, _transfer_kernel,
                    spectral_abscissa, STAB_TOL, WELLPOSED_RCOND, W_CHANNEL, Z_CHANNEL)

__all__ = ["mu_real_repeated", "mu_upper_bound"]

# Margin search: uniform scan points of |delta|, each probed with both
# signs, then bisection to this relative width.
SCAN_POINTS = 64
TOL = 1e-9


class MuResult(NamedTuple):
    """The margin of :func:`mu_real_repeated` as a plain pair.

    ``delta_crit`` is the signed smallest destabilizing value, or None
    when no real closure within the search range destabilizes the loop
    (then ``mu_lower`` is 0 by convention).
    """

    mu_lower: float
    delta_crit: Optional[float]


def _closed_A(sys: StateSpace, delta: float) -> Optional[np.ndarray]:
    """State matrix of the loop closed by ``w = delta * z``, or None when
    ``I - delta D_zw`` is ill posed.  With ``D_zw = 0`` the loop matrix is
    I and the closure is ``A + delta B_w C_z``, the bits the solve gives."""
    w, z = sys.in_slice(W_CHANNEL), sys.out_slice(Z_CHANNEL)
    if not sys.D[z, w].any():
        return sys.A + (delta * sys.B[:, w]) @ sys.C[z, :]
    loop = np.eye(z.stop - z.start) - delta * sys.D[z, w]
    if _rcond(loop) < WELLPOSED_RCOND:
        return None
    return sys.A + (delta * sys.B[:, w]) @ np.linalg.solve(loop, sys.C[z, :])


def _destabilized(sys: StateSpace, delta: float) -> bool:
    A = _closed_A(sys, delta)
    return A is None or spectral_abscissa(A) >= -STAB_TOL


def _bisect(lo, hi, destabilized):
    """Bracket ``(lo, hi)`` of a stable magnitude ``lo`` and a destabilized
    ``hi``, halved to relative width ``TOL``; ``destabilized(mid)`` answers
    each midpoint."""
    while hi - lo > TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if destabilized(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _scan_grid(delta_max):
    return np.linspace(0.0, delta_max, SCAN_POINTS + 1)[1:]


def _scan_crossing(sys, delta_max):
    """Signed smallest destabilizing delta within ``delta_max``, or None,
    by probing alone.

    One scan of ``|delta|`` probes ``+t`` then ``-t`` at each grid point and
    bisects only the sign or signs that hit in the first hit bin; a tie in
    magnitude goes to ``+``.  A hit in a later bin would be strictly larger
    in magnitude, so this is the smaller of the two one-sided crossings.
    """
    lo = 0.0
    for t in _scan_grid(delta_max):
        hits = [sign for sign in (1.0, -1.0) if _destabilized(sys, sign * t)]
        if hits:
            return min((sign * _bisect(lo, t, lambda mid: _destabilized(sys, sign * mid))[1]
                        for sign in hits), key=abs)
        lo = t
    return None


def _shape(sys):
    """State count and w/z width: what a stack of probes shares."""
    return sys.n_states, sys.in_width(W_CHANNEL)


def _crossings(systems) -> list:
    """Every real delta at which two eigenvalues of ``A + delta B_w C_z``
    sum to zero, for each of a list of systems, from its cached
    eigendecomposition ``A = V diag(eigs) W`` (``W`` the modal inverse).

    That happens exactly when ``(A + delta M) X + X (A + delta M)^T = 0``
    has a symmetric ``X != 0`` (``M = B_w C_z``), and with ``Y = C_z X`` it
    reads ``Y = -delta Phi(Y)``, ``Phi(Y) = C_z S^-1(B_w Y + Y^T B_w^T)``,
    ``S(X) = A X + X A^T`` (Fu & Barmish 1988).  In the eigenbasis
    ``S^-1`` divides entry ``(i, l)`` by ``eigs[i] + eigs[l]``, so the
    matrix of ``Phi`` on ``Y`` is assembled block by block ``[b, a]`` from
    n x n products; its real eigenvalues ``phi`` (imaginary part within
    ``TOL`` of the modulus) give ``delta = -1 / phi``.  The systems of one
    size and eigenvector type are assembled in stacks (``_stacks``) of at
    most ``linss._STACK_BYTES`` of complex blocks, one ``eigvals`` per
    stack.
    """
    out = [None] * len(systems)
    for part in _stacks(systems, lambda s: _shape(s) + (s.eig()[1].dtype,),
                        lambda s: 16 * (s.in_width(W_CHANNEL) * s.n_states) ** 2):
        group = [systems[i] for i in part]
        eigs, V = (np.stack(a) for a in zip(*(s.eig() for s in group)))
        W = np.stack([s.modal_inverse() for s in group])
        Bt = W @ np.stack([s.B[:, s.in_slice(W_CHANNEL)] for s in group])
        Ct = np.stack([s.C[s.out_slice(Z_CHANNEL), :] for s in group]) @ V
        k, m, n = Ct.shape
        G = (1.0 / (eigs[:, :, None] + eigs[:, None, :]))[:, None]
        BtT = Bt.swapaxes(1, 2)
        q = (Ct[:, :, None, :] * BtT[:, None]) @ G             # [b, a, l]
        VBG = (V[:, None] * BtT[:, :, None, :]) @ G            # [a]: V diag(Bt[:, a]) G
        CW = Ct[:, :, :, None] * W[:, None]                    # [b]: diag(Ct[b]) W
        blocks = ((V[:, None, None] * q[:, :, :, None, :]) @ W[:, None, None]
                  + VBG[:, None] @ CW[:, :, None])
        phis = np.linalg.eigvals(blocks.transpose(0, 1, 3, 2, 4).reshape(k, m * n, m * n).real)
        for i, phi in zip(part, phis):
            phi = phi[(np.abs(phi.imag) <= TOL * np.abs(phi)) & (phi != 0.0)].real
            out[i] = -1.0 / phi
    return out


def _closures(systems, deltas) -> np.ndarray:
    """The ``(k, n, n)`` stack of ``A + delta B_w C_z``, the closures of a
    list of systems of one :func:`_shape` with ``D_zw = 0`` at their
    ``deltas``, each slice with the bits of :func:`_closed_A`."""
    A = np.stack([s.A for s in systems])
    Bw = np.stack([s.B[:, s.in_slice(W_CHANNEL)] for s in systems])
    Cz = np.stack([s.C[s.out_slice(Z_CHANNEL), :] for s in systems])
    return A + (np.asarray(deltas, dtype=float)[:, None, None] * Bw) @ Cz


def _abscissas(probes) -> list:
    """``spectral_abscissa(_closed_A(sys, delta))`` of each probe ``(sys,
    delta)`` (``D_zw = 0``), from stacks (``_stacks``) of at most
    ``linss._STACK_BYTES`` of :func:`_closures`, one ``eigvals`` per
    stack."""
    out = [None] * len(probes)
    for part in _stacks([sys for sys, _ in probes], _shape, lambda s: 8 * s.n_states ** 2):
        A = _closures([probes[i][0] for i in part], [probes[i][1] for i in part])
        for i, alpha in zip(part, np.linalg.eigvals(A).real.max(axis=-1).tolist()):
            out[i] = alpha
    return out


def _thresholds(systems, crossings, delta_max) -> list:
    """For each system, the magnitude where the probe predicate flips on
    each sign whose crossing candidate of smallest magnitude ``c`` lies
    within ``delta_max``: the secant through ``(c, 0)`` and one abscissa
    probe a bisection width below ``c``, solved for ``-STAB_TOL``.  A dict
    ``{sign: threshold}``, or None when a probe does not read stable.  All
    probes run in one stacked round (:func:`_abscissas`)."""
    first = {}
    for i, deltas in enumerate(crossings):
        for sign in (1.0, -1.0):
            c = np.abs(deltas[np.sign(deltas) == sign])
            if c.size and c.min() <= delta_max:
                c = float(c.min())
                first[i, sign] = c, c - TOL * max(1.0, c)
    out = [{} for _ in systems]
    probes = [(systems[i], sign * t) for (i, sign), (_, t) in first.items()]
    for ((i, sign), (c, t)), alpha in zip(first.items(), _abscissas(probes)):
        if alpha < 0.0 and out[i] is not None:
            out[i][sign] = c - (c - t) * STAB_TOL / -alpha
        else:
            out[i] = None
    return out


def _certificate(thresholds, ts):
    """``(delta_crit, checks)``: the crossing of one loop with the bits of
    :func:`_scan_crossing` on the scan grid ``ts``, found from its
    thresholds, and the probes ``(delta, destabilized)`` that certify it.

    The thresholds answer the scan points and the bisection midpoints.
    The checks are the final bracket of each hit sign (stable below,
    destabilized above), the other sign at the hit scan point, or
    ``+-delta_max`` when nothing hits.
    """
    bins = {sign: int(np.searchsorted(ts, thr)) for sign, thr in thresholds.items()}
    k = min(bins.values(), default=ts.size)
    if k == ts.size:
        return None, [(ts[-1], False), (-ts[-1], False)]
    lo, t = (ts[k - 1] if k else 0.0), ts[k]
    hits, checks = [], []
    for sign in (1.0, -1.0):
        if bins.get(sign) == k:
            thr = thresholds[sign]
            a, b = _bisect(lo, t, lambda mid: mid >= thr)
            checks += [(sign * a, False), (sign * b, True)]
            hits.append(sign * b)
        else:
            checks.append((sign * t, False))
    return min(hits, key=abs), checks


def _check_nominal(sys: StateSpace) -> None:
    """Unequal w/z widths, or a nominal (``delta = 0``) pole at Re >= -STAB_TOL."""
    if sys.in_width(W_CHANNEL) != sys.out_width(Z_CHANNEL):
        raise WidthMismatch(f"{W_CHANNEL}/{Z_CHANNEL} widths differ")
    if sys.n_states:
        alpha = float(np.max(sys.eig()[0].real))
        if alpha >= -STAB_TOL:
            raise NominalUnstable(f"nominal system unstable (abscissa {alpha:.3e})")


def _spectral_radius(G: np.ndarray) -> np.ndarray:
    """Spectral radius of each matrix of the stack ``G``."""
    return np.abs(np.linalg.eigvals(G)).max(axis=-1)


def mu_upper_bound(sys: StateSpace) -> float:
    """Complex upper bound on ``mu`` for ``delta * I``: the largest spectral
    radius of the w->z transfer at 0, at infinity (``rho(D)``) and on the
    polished seed grid (see the module docstring)."""
    _check_nominal(sys)
    sub = sys.subsystem(outputs=[Z_CHANNEL], inputs=[W_CHANNEL])
    bound = float(_spectral_radius(sub.D))
    if sub.n_states:
        kernel = _transfer_kernel(sub)
        (peak,) = _polish([kernel], _spectral_radius, _seed_bound([kernel], _spectral_radius))
        bound = max(bound, float(_spectral_radius(kernel([0.0]))[0]), peak)
    return bound


def _prime_margins(loops, delta_max: float = 20.0):
    """Compute the margins of a list of loops in one pass of the stacked
    rounds of the module docstring, past :func:`mu_real_repeated`'s
    checks, and leave each in its loop's ``_modes`` cache, under the key
    returned, for that call to pop.  A loop without states, with ``D_zw !=
    0`` or without a modal inverse, and a loop whose threshold probe or
    certificate disagrees, runs :func:`_scan_crossing` alone."""
    ready, crits = [], []
    for sys in loops:
        if (sys.n_states and not sys.D[sys.out_slice(Z_CHANNEL), sys.in_slice(W_CHANNEL)].any()
                and sys.modal_inverse() is not None):
            ready.append(sys)
        else:
            crits.append((sys, _scan_crossing(sys, delta_max)))
    ts = _scan_grid(delta_max)
    plans = [None if thr is None else _certificate(thr, ts)
             for thr in _thresholds(ready, _crossings(ready), delta_max)]
    alphas = iter(_abscissas([(sys, delta) for sys, plan in zip(ready, plans) if plan
                              for delta, _ in plan[1]]))
    for sys, plan in zip(ready, plans):
        certified = plan and all([(next(alphas) >= -STAB_TOL) == hit for _, hit in plan[1]])
        crits.append((sys, plan[0] if certified else _scan_crossing(sys, delta_max)))
    key = "mu", delta_max
    for sys, delta_crit in crits:
        sys._modes[key] = MuResult(1.0 / abs(delta_crit) if delta_crit is not None else 0.0,
                                   delta_crit)
    return key


def mu_real_repeated(sys: StateSpace, delta_max: float = 20.0) -> MuResult:
    """Exact real margin for ``delta * I``.

    The nominal loop (``delta = 0``) must be strictly stable; A's
    eigendecomposition (:meth:`StateSpace.eig`, shared with the loop's
    priced channel slices) serves that test, and with the cached modal
    inverse (:meth:`StateSpace.modal_inverse`) the crossing candidates.
    The first crossing within ``delta_max`` on either sign is bisected (see
    the module docstring); no crossing means ``mu_lower = 0`` and
    ``delta_crit = None``.  A ``delta_max`` that is not finite and > 0
    raises ``ValueError``.
    After both checks it pops the loop's primed margin, as ``hinf_norm``
    pops a primed peak, priming it first (``_prime_margins`` of the list
    of one) if absent.
    """
    if not (math.isfinite(delta_max) and delta_max > 0.0):
        raise ValueError(f"delta_max must be finite and > 0, got {delta_max}")
    _check_nominal(sys)
    key = "mu", delta_max
    if key not in sys._modes:
        _prime_margins([sys], delta_max)
    return sys._modes.pop(key)
