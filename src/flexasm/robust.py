"""Structured-singular-value margins for the repeated real scalar block.

The only uncertainty structure in the loop is ``Delta = delta * I_2`` on
the ``w_omega``/``z_omega`` channel pair (the pulled-out mode frequency).
For that structure the exact real margin is cheap: scan ``|delta|`` once,
closing ``w = +t z`` and then ``w = -t z`` at each grid point, and bisect
the first loss of stability (or of well-posedness, the crossing at
infinite frequency) on the sign or signs that lost it first.  A probe
reads only the eigenvalues of ``A + delta B_w (I - delta D_zw)^-1 C_z``;
the tests check that matrix against ``linss.lft_upper``.  When ``D_zw``
has no nonzero entry, as on every mission loop, the loop matrix is the
identity, so a probe forms ``A + delta B_w C_z`` directly with no
conditioning test and no solve (the same bits: solving against I is
exact); the general closure stays for ``D_zw != 0``.
``mu_lower`` is the reciprocal of that smallest destabilizing magnitude
and is exact for this block, so the name keeps only the conventional
"lower" role it plays against the complex-structure bound.

The complex upper bound is a separate function, :func:`mu_upper_bound`:
the frequency-maximized spectral radius of the w->z transfer, the exact
structured value for a repeated *complex* scalar and hence an upper bound
for the real one.  Its sweep evaluates all its frequencies in one batch
(``linss._transfer_batch``) and takes their spectral radii with one
stacked eigenvalue call.  The critical frequency found by the bisection
is folded into the evaluation grid so the bound provably dominates the
margin numerically.  The ``mu`` edge cost reads only the margin, so it
never runs the sweep.

Only the search range ``delta_max`` is a parameter; the channel pair
(``linss.W_CHANNEL``/``linss.Z_CHANNEL``), the scan density, the
bisection tolerance and the sweep size are module constants.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import NominalUnstable, WidthMismatch
from .linss import (StateSpace, _transfer_batch, spectral_abscissa, STAB_TOL,
                    WELLPOSED_RCOND, W_CHANNEL, Z_CHANNEL)

__all__ = ["mu_real_repeated", "mu_upper_bound"]

# Margin search: uniform scan points of |delta|, each probed with both
# signs, then bisection to this relative width.
SCAN_POINTS = 64
TOL = 1e-9
# Log-spaced frequencies of the complex upper-bound sweep.
N_FREQ = 400


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
    if 1.0 / np.linalg.cond(loop, 1) < WELLPOSED_RCOND:
        return None
    return sys.A + (delta * sys.B[:, w]) @ np.linalg.solve(loop, sys.C[z, :])


def _destabilized(sys: StateSpace, delta: float) -> bool:
    A = _closed_A(sys, delta)
    return A is None or spectral_abscissa(A) >= -STAB_TOL


def _bisect(sys, sign, lo, hi):
    """Signed boundary between the stable ``sign * lo`` and the
    destabilized ``sign * hi``, to relative width ``TOL``."""
    while hi - lo > TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if _destabilized(sys, sign * mid):
            hi = mid
        else:
            lo = mid
    return sign * hi


def _first_crossing(sys, delta_max):
    """Signed smallest destabilizing delta within ``delta_max``, or None.

    One scan of ``|delta|`` probes ``+t`` then ``-t`` at each grid point and
    bisects only the sign or signs that hit in the first hit bin; a tie in
    magnitude goes to ``+``.  A hit in a later bin would be strictly larger
    in magnitude, so this is the smaller of the two one-sided crossings.
    """
    lo = 0.0
    for t in np.linspace(0.0, delta_max, SCAN_POINTS + 1)[1:]:
        hits = [sign for sign in (1.0, -1.0) if _destabilized(sys, sign * t)]
        if hits:
            return min((_bisect(sys, sign, lo, t) for sign in hits), key=abs)
        lo = t
    return None


def _destabilizing_frequency(sys: StateSpace, delta: float) -> float:
    """|Im| of the closed-loop eigenvalue closest to the imaginary axis."""
    A = _closed_A(sys, delta)
    if A is None or A.shape[0] == 0:
        return np.inf
    ev = np.linalg.eigvals(A)
    return float(abs(ev[np.argmax(ev.real)].imag))


def mu_upper_bound(sys: StateSpace, delta_crit: Optional[float]) -> float:
    """Complex upper bound on ``mu`` for ``delta * I``: the frequency-
    maximized spectral radius of the w->z transfer, with the critical
    frequency of ``delta_crit`` (from :func:`mu_real_repeated`) folded
    into the grid."""
    sub = sys.subsystem(outputs=[Z_CHANNEL], inputs=[W_CHANNEL])
    freqs = []
    if sub.n_states:
        mags = np.abs(np.linalg.eigvals(sub.A))
        mags = mags[mags > 1e-12]
        if mags.size:
            freqs.extend(np.geomspace(mags.min() / 10.0, mags.max() * 10.0, N_FREQ))
    if delta_crit is not None:
        w_star = _destabilizing_frequency(sys, delta_crit)
        # w_star = 0 is the static gain, which the stack below holds
        if np.isfinite(w_star) and w_star > 0.0:
            freqs.extend([w_star, w_star * 0.999, w_star * 1.001])

    stacks = [sub.D[None], sub.dc_gain()[None]]
    if freqs:
        stacks.append(_transfer_batch(sub, freqs))
    return float(max(np.max(np.abs(np.linalg.eigvals(G))) for G in stacks))


def mu_real_repeated(sys: StateSpace, delta_max: float = 20.0) -> MuResult:
    """Exact real margin for ``delta * I``.

    The nominal loop (``delta = 0``) must be strictly stable.  ``|delta|``
    is scanned out to ``delta_max`` with both signs at each point, and the
    first crossing is bisected; no crossing means ``mu_lower = 0`` and
    ``delta_crit = None``.
    """
    if sys.in_width(W_CHANNEL) != sys.out_width(Z_CHANNEL):
        raise WidthMismatch(f"{W_CHANNEL}/{Z_CHANNEL} widths differ")
    if sys.n_states and spectral_abscissa(sys) >= -STAB_TOL:
        raise NominalUnstable(
            f"nominal system unstable (abscissa {spectral_abscissa(sys):.3e})")

    delta_crit = _first_crossing(sys, delta_max)
    mu_lower = 1.0 / abs(delta_crit) if delta_crit is not None else 0.0
    return MuResult(mu_lower, delta_crit)
