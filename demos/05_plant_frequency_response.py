"""The assembled spacecraft plant and its torque-channel signature.

Builds the full stack (hub, solar array with its frequency uncertainty,
tile stack, generated structure, three-arm robot) for one assembly state,
verifies the DC-gain/inertia reciprocity, and sweeps the x-axis torque
channel: the antiresonances sit at the array's cantilever frequencies and
move by +-20 percent when the uncertainty saturates.
"""

import os

import numpy as np

from flexasm import _svg, linss
from flexasm import scenario as sc

cfg = sc.table_scenario(4)
models = sc.ScenarioModels(cfg)
state = sc.AssemblyState(n=2, j=1, arm=1, delta=0)
home = (sc.HOME_JOINTS,) * 3

plant = models.open_loop(state, home)
[J] = models.total_inertia([(state, home)])
dc = plant.dc_gain()[plant.out_slice("omega_dot_G"), :][:, plant.in_slice("T_G")]
print("DC gain vs inverse inertia deviation:",
      np.max(np.abs(dc - np.linalg.inv(J))))

f_hz = np.geomspace(0.05, 20.0, 1200)
ch = plant.subsystem(outputs=["omega_dot_G"], inputs=["T_G"])
traces = {}
for delta in (-1.0, 0.0, 1.0):
    sys = linss.lft_upper(plant, delta).subsystem(outputs=["omega_dot_G"],
                                                  inputs=["T_G"])
    traces[delta] = np.array([abs(sys.transfer_at(2j * np.pi * f)[0, 0])
                              for f in f_hz])

for delta, f_anti in ((0.0, 1.2850), (1.0, 1.5420), (-1.0, 1.0280)):
    band = (f_hz > 0.9 * f_anti) & (f_hz < 1.1 * f_anti)
    k = np.argmin(traces[delta][band])
    print(f"delta={delta:+.0f}: first antiresonance near "
          f"{f_hz[band][k]:.4f} Hz (expected {f_anti})")

os.makedirs("out", exist_ok=True)
_svg.line_plot("out/torque_channel.svg",
               [("delta=0", f_hz, traces[0.0]),
                ("delta=-1", f_hz, traces[-1.0]),
                ("delta=+1", f_hz, traces[1.0])],
               title="hub torque to angular acceleration",
               xlabel="frequency [Hz]", ylabel="gain", xlog=True, ylog=True)
print("wrote out/torque_channel.svg")
