"""The walking arm: kinematics, trajectories, and the locked robot's mass.

Poses one five-joint arm with ``robot.link_poses``, solves a walking
straddle with the planner's inverse kinematics
(``ScenarioModels.solve_reach``: the gripping arm, the robot hub and the
reaching arm as one 10-joint chain), shows a diagonal straddle refused by
the closed-form reach bound, grids the rest-to-rest quintic sweep the
planner prices, and reads the mass the docking port sees at two
waypoints from one ``ScenarioModels.robot_mass_matrices`` call: the whole
robot, locked at each waypoint, as one rigid body.
"""

import numpy as np

from flexasm import robot
from flexasm import scenario as sc
from flexasm.errors import IkUnreachable

cfg = sc.table_scenario(3)
geom = cfg.arm_geometry
print("arm mass (six links):", np.sum(geom.masses), "kg")

joints, _ = robot.link_poses(geom, np.zeros((1, 5)))
print("home tip position (J6 from J0):", np.round(joints[0, -1], 4))

# standing on tile 1 with arm 1, place arm 2's tip on the next tile
models = sc.ScenarioModels(cfg)
state = sc.AssemblyState(2, 1, 1, 0)
q_grip, q_reach = models.solve_reach(state, 2, cfg.tile_center(2))
print("straddle 1 -> 2 within", sc.REACH_TOL, "m: arm 1 joints",
      np.round(q_grip, 4) + 0.0, "arm 2 joints", np.round(q_reach, 4) + 0.0)

# tile 3 sits diagonally from tile 1, beyond what any pose reaches
try:
    models.solve_reach(sc.AssemblyState(3, 1, 1, 0), 2, cfg.tile_center(3))
except IkUnreachable as exc:
    print("straddle 1 -> 3 refused:", exc)

wps = robot.quintic_waypoints(sc.HOME_JOINTS, q_reach, cfg.z_grid)
print(f"quintic sweep: {len(wps)} waypoints, midpoint fraction",
      robot.quintic_scalar(0.5))

poses = {"home pose": (sc.HOME_JOINTS,) * 3,
         "straddle pose": (q_grip, q_reach, sc.HOME_JOINTS)}
# both waypoints weighed in one pass, as the planner weighs an edge's
for label, M_C in zip(poses, models.robot_mass_matrices(
        [(state, qs) for qs in poses.values()])):
    print(f"mass seen at the docking port, {label}:", round(M_C[0, 0], 10),
          "kg; rotational inertia diagonal", np.round(np.diag(M_C)[3:], 3))
