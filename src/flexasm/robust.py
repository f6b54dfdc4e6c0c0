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
instead of probing the way there:

* **Candidates.** Two eigenvalues of ``A + delta B_w C_z`` sum to zero
  (a crossing at 0 or at ``+-jw``) exactly when ``delta = -1/phi`` for a
  real eigenvalue ``phi`` of a 2n x 2n matrix built in the eigenbasis of
  A (Fu & Barmish 1988, see :func:`_crossings`).  No pair can sum to zero
  while the loop is stable, so the candidate of smallest magnitude on
  each sign is that sign's first loss of stability.
* **Threshold.** One secant probe refines that candidate to the
  magnitude where the predicate flips (:func:`_threshold`), and the
  threshold answers the scan points and the bisection midpoints: the
  same loop, :func:`_bisect`, with a comparison for a predicate.
* **Certificate.** Real probes must agree at the final bracket of each
  hit sign (stable below, destabilized above), at the hit scan point on
  the other sign, and at ``+-delta_max`` when nothing hits.  That is three
  probes on a mission loop, where the scan makes 58.
* **Fallback.** If a certificate disagrees, ``D_zw != 0`` or the
  eigenvectors of A are ill conditioned (the loop's modal inverse
  ``V^-1``, :meth:`linss.StateSpace.modal_inverse`, is gated out at
  ``cond_1(V) >= linss.MODAL_COND_MAX``), the scan runs as it stands.
  The eigendecomposition and ``V^-1`` are the loop's cached ones, shared
  with the H-infinity and H2 prices of its channel slices, so the margin
  computes neither again.

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
planner primes it once per distinct edge-end loop (``_prime_margin``).

Only the search range ``delta_max`` is a parameter; the channel pair
(``linss.W_CHANNEL``/``linss.Z_CHANNEL``), the scan density and the
bisection tolerance are module constants.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import NominalUnstable, WidthMismatch
from .linss import (StateSpace, _polish, _rcond, _seed_bound, _transfer_kernel,
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


def _crossings(sys, eigs, V, W):
    """Every real delta at which two eigenvalues of ``A + delta B_w C_z``
    sum to zero, from the eigendecomposition ``A = V diag(eigs) W``.

    That happens exactly when ``(A + delta M) X + X (A + delta M)^T = 0``
    has a symmetric ``X != 0`` (``M = B_w C_z``), and with ``Y = C_z X`` it
    reads ``Y = -delta Phi(Y)``, ``Phi(Y) = C_z S^-1(B_w Y + Y^T B_w^T)``,
    ``S(X) = A X + X A^T`` (Fu & Barmish 1988).  In the eigenbasis
    ``S^-1`` divides entry ``(i, l)`` by ``eigs[i] + eigs[l]``, so the
    matrix of ``Phi`` on ``Y`` is assembled block by block ``[b, a]`` from
    n x n products; its real eigenvalues ``phi`` (imaginary part within
    ``TOL`` of the modulus) give ``delta = -1 / phi``.
    """
    w, z = sys.in_slice(W_CHANNEL), sys.out_slice(Z_CHANNEL)
    Bt = W @ sys.B[:, w]
    Ct = sys.C[z, :] @ V
    m, n = Ct.shape
    G = 1.0 / (eigs[:, None] + eigs)
    q = (Ct[:, None, :] * Bt.T) @ G            # [b, a, l]: sum_i Ct[b,i] Bt[i,a] G[i,l]
    VBG = (V * Bt.T[:, None, :]) @ G           # [a]: V diag(Bt[:, a]) G
    CW = Ct[:, :, None] * W                    # [b]: diag(Ct[b]) W
    blocks = (V * q[:, :, None, :]) @ W + VBG @ CW[:, None]
    phi = np.linalg.eigvals(blocks.transpose(0, 2, 1, 3).reshape(m * n, m * n).real)
    phi = phi[(np.abs(phi.imag) <= TOL * np.abs(phi)) & (phi != 0.0)].real
    return -1.0 / phi


def _threshold(sys, sign, c):
    """Magnitude where the probe predicate flips on the crossing ``sign *
    c``: the secant through ``(c, 0)`` and one abscissa probe a bisection
    width below ``c``, solved for ``-STAB_TOL``; None unless the probe
    reads stable."""
    t = c - TOL * max(1.0, c)
    alpha = spectral_abscissa(_closed_A(sys, sign * t))
    if not alpha < 0.0:
        return None
    return c - (c - t) * STAB_TOL / -alpha


def _certified_crossing(sys, eigs, V, W, delta_max):
    """``(True, delta_crit)`` with the bits of :func:`_scan_crossing`, or
    ``(False, None)`` when a certificate disagrees.

    On each sign the crossing candidate of smallest magnitude within
    ``delta_max`` is refined to the predicate's threshold, which answers
    the scan points and the bisection midpoints.  Real probes then certify
    the final bracket of each hit sign, the other sign at the hit scan
    point, or ``+-delta_max`` when nothing hits.
    """
    deltas = _crossings(sys, eigs, V, W)
    thresholds = {}
    for sign in (1.0, -1.0):
        c = np.abs(deltas[np.sign(deltas) == sign])
        if c.size and c.min() <= delta_max:
            thresholds[sign] = _threshold(sys, sign, float(c.min()))
            if thresholds[sign] is None:
                return False, None
    ts = _scan_grid(delta_max)
    bins = {sign: int(np.searchsorted(ts, thr)) for sign, thr in thresholds.items()}
    k = min(bins.values(), default=ts.size)
    if k == ts.size:
        return not (_destabilized(sys, ts[-1]) or _destabilized(sys, -ts[-1])), None
    lo, t = (ts[k - 1] if k else 0.0), ts[k]
    hits = []
    for sign in (1.0, -1.0):
        if bins.get(sign) == k:
            thr = thresholds[sign]
            a, b = _bisect(lo, t, lambda mid: mid >= thr)
            if _destabilized(sys, sign * a) or not _destabilized(sys, sign * b):
                return False, None
            hits.append(sign * b)
        elif _destabilized(sys, sign * t):
            return False, None
    return True, min(hits, key=abs)


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


def _prime_margin(sys: StateSpace, delta_max: float = 20.0):
    """Leave the margin of a loop past :func:`mu_real_repeated`'s checks in
    its ``_modes`` cache, under the key returned, for that call to pop."""
    certified = False
    if sys.n_states:
        eigs, V = sys.eig()
        w, z = sys.in_slice(W_CHANNEL), sys.out_slice(Z_CHANNEL)
        W = None if sys.D[z, w].any() else sys.modal_inverse()
        if W is not None:
            certified, delta_crit = _certified_crossing(sys, eigs, V, W, delta_max)
    if not certified:
        delta_crit = _scan_crossing(sys, delta_max)
    mu_lower = 1.0 / abs(delta_crit) if delta_crit is not None else 0.0
    key = "mu", delta_max
    sys._modes[key] = MuResult(mu_lower, delta_crit)
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
    pops a primed peak, priming it first (``_prime_margin``) if absent.
    """
    if not (math.isfinite(delta_max) and delta_max > 0.0):
        raise ValueError(f"delta_max must be finite and > 0, got {delta_max}")
    _check_nominal(sys)
    key = "mu", delta_max
    if key not in sys._modes:
        _prime_margin(sys, delta_max)
    return sys._modes.pop(key)
