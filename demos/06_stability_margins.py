"""Attitude loop and its robustness to the array-mode uncertainty.

Sizes the baseline PD gains on the worst-case inertia, closes the loop,
and measures: critically damped rigid poles, the input-sensitivity peak,
the exact real margin of the frequency-uncertainty block
(``robust.mu_real_repeated``, the margin the ``mu`` edge cost reads), and
its complex upper bound (``robust.mu_upper_bound``).
"""

import numpy as np

from flexasm import linss, robust
from flexasm import scenario as sc

cfg = sc.table_scenario(3)
models = sc.ScenarioModels(cfg)
state = sc.AssemblyState(2, 1, 1, 0)
home = (sc.HOME_JOINTS,) * 3

# gains sized on this very state give exact critical damping...
K_here = models.design_gains(state, home)
rigid = models.closed_loop(state, home, K_here, rigid=True)
print("rigid-loop poles (state-matched gains):",
      np.round(np.linalg.eigvals(rigid.A).real, 6),
      "(design -2 pi 0.01 =", round(-2 * np.pi * 0.01, 6), ")")

# ...while the mission controller is sized once, on the heaviest state,
# and must merely keep every other configuration stable
K = models.design_gains()
rigid_wc = models.closed_loop(state, home, K, rigid=True)
print("rigid-loop poles (worst-case gains):",
      np.round(np.linalg.eigvals(rigid_wc.A).real, 6))

cl = models.closed_loop(state, home, K)
print("flexible loop stable:", linss.is_stable(cl).stable)

isens = cl.subsystem(["e_t"], ["d_t"])
print("input-sensitivity peak:", round(linss.hinf_norm(isens), 4))

res = robust.mu_real_repeated(cl, delta_max=20.0)
mu_upper = robust.mu_upper_bound(cl, res.delta_crit)
print(f"frequency-uncertainty margin: mu_lower={res.mu_lower:.4f} "
      f"(critical delta {res.delta_crit}), complex bound "
      f"mu_upper={mu_upper:.4f}")
print("interpretation: the loop tolerates |delta| <",
      None if res.mu_lower == 0 else round(1 / res.mu_lower, 3),
      "x the modeled +-20% frequency swing")
