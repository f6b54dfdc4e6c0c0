"""Rigid and flexible body blocks and their sanity identities.

Shows the kinematic transport, the rigid n-port, the flexible P-port
block built from published solar-array data (read through the P channels
of its mode-frequency LFR), and the exact weld identity: two
rigid bodies joined at a port behave as their composite.  The second body
is welded as the gain ``W_J = -M_J xdd_J`` of its mass matrix at the
port, the way the planner closes the locked robot on the spacecraft.
"""

import numpy as np

import flexasm
from flexasm import linss, modal
from flexasm import multibody as mb

# transport: a force at P expressed 2 m away picks up a torque
t = mb.tau_kinematic([0.0, 2.0, 0.0])
print("wrench transport of x-force over +2y:", t.T @ [1, 0, 0, 0, 0, 0])

# rigid body response: 1 N on a 6.0423 kg tile
tile = mb.RigidBodyData(6.0423, np.diag([0.5041, 0.5041, 1.0071]), {})
print("tile translational response:",
      mb.rigid_nport(tile, []).D[0, 0],
      "m/s^2 per N (1/m =", 1 / 6.0423, ")")

# flexible solar array: feedthrough is minus the residual mass
array = modal.load_body_file(flexasm.data_path("solar_array.yaml"))
# the P block (xdd_P -> W_P) of the LFR that pulls out mode 1's frequency
sys = mb.mode_freq_lfr(array, 0, 0.2).subsystem(["W_P"], ["xdd_P"])
R = mb.residual_mass(array)
print("array model feedthrough equals -R_P:",
      np.allclose(sys.D, -R), "| residual mass (min eig):",
      np.linalg.eigvalsh(R).min())

# weld two rigid bodies and compare with the analytic composite
b1 = mb.RigidBodyData(4.0, 1.2 * np.eye(3), {"J": np.array([0.4, 0.0, 0.2])})
b2 = mb.RigidBodyData(2.5, 0.8 * np.eye(3), {"J": np.array([-0.3, 0.1, 0.0])})
# b2's CoM seen from the port J, and its mass matrix there
c2 = -b2.offset("J")
M_J = mb.port_mass_matrix(b2.mass, c2, mb.transport_inertia(b2.inertia_G, b2.mass, c2))
welded = linss.interconnect(
    [("a", mb.rigid_nport(b1, ["J"])),
     ("b", linss.gain(-M_J, (("xdd_J", 6),), (("W_J", 6),)))],
    [("a.xdd_J", "b.xdd_J"), ("b.W_J", "a.W_J")],
    [("W_G", "a.W_G")], [("xdd_G", "a.xdd_G")])
m, com, J = mb.compose_rigid([(4.0, np.zeros(3), b1.inertia_G, None),
                              (2.5, b1.offset("J") - b2.offset("J"),
                               b2.inertia_G, None)])
ref = mb.rigid_nport(mb.RigidBodyData(m, J, {"P": -com}), ["P"]).subsystem(
    ["xdd_P"], ["W_P"])
print("weld vs composite deviation:", np.max(np.abs(welded.D - ref.D)))
