"""Labeled-channel state-space algebra in five minutes.

Builds small blocks from their matrices and named channels, and runs the
analysis layer (frequency response, stability, H-infinity and H2 norms)
against closed-form expectations.
"""

import numpy as np

from flexasm import linss

# a first-order lag 1/(s+1): one state, input channel r, output channel y
lag = linss.StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]],
                       (("r", 1),), (("y", 1),))
print("first-order lag 1/(s+1):", lag)

fr = linss.freq_response(lag, linss.FrequencyGrid.log(0.01, 100.0, 7))
print("gain at 1 rad/s:", fr.magnitude()[3], "(analytic 1/sqrt(2) =",
      1 / np.sqrt(2), ")")

print("H-inf norm:", linss.hinf_norm(lag), "(peak at DC = 1)")
print("H2 norm:  ", linss.h2_norm(lag), "(analytic sqrt(1/2) =",
      np.sqrt(0.5), ")")

# a lightly damped mode peaks at ~1/(2 xi)
xi, w0 = 0.005, 2 * np.pi * 1.285
mode = linss.StateSpace([[0, 1], [-w0 * w0, -2 * xi * w0]],
                        [[0], [w0 * w0]], [[1, 0]], [[0]],
                        (("u", 1),), (("y", 1),))
print("resonant peak:", linss.hinf_norm(mode),
      "(analytic 1/(2 xi sqrt(1-xi^2)) =", 1 / (2 * xi * np.sqrt(1 - xi**2)), ")")

# channel inversion swaps signal roles exactly
g = linss.gain([[2.0]], (("u", 1),), (("y", 1),))
print("inverted static gain 2 ->", linss.invert_channels(g, ["u"], ["y"]).D[0, 0])
