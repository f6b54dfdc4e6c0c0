"""Reference models wired block by block through ``linss.interconnect``.

The library closes the locked robot as a static gain on a cached
port-exposed plant and builds the attitude loop on the plant's matrices.
These are the fully wired versions of the same models -- the robot as a
stateless one-port block, the whole spacecraft interconnected per
waypoint, and the loop wired from integrator and gain blocks -- kept as
oracles for the tests.
"""

import numpy as np

from flexasm import scenario as sc
from flexasm.linss import gain, integrator, interconnect, split_channel
from flexasm.multibody import (Dcm, ModalBodyData, apply_frame, mode_freq_lfr,
                               rigid_nport, titop_one_port, titop_two_port,
                               transport_inertia)


def wired_robot_block(models, state, qs):
    """The locked robot as a stateless ``xdd_P -> W_P`` one-port block at
    the docking port C, hub frame: ``W_P = -M_C xdd_P``.  Its mass matrix
    is the library's; ``chain_cluster`` in ``test_scenario`` is the
    independent oracle for it."""
    return gain(-models.robot_mass_matrix(state, qs), (("xdd_P", 6),),
                (("W_P", 6),))


def wired_open_loop(models, state, qs, rigid=False, pinned=True):
    """Hub, array, stack, structure and robot wired in one interconnect."""
    cfg = models.cfg
    hub = rigid_nport(cfg.hub, ["P1", "P2", "P3"])
    hub = split_channel(hub, "W_G", [("F_G", 3), ("T_G", 3)])
    hub = split_channel(hub, "xdd_G", [("a_G", 3), ("omega_dot_G", 3)])

    if rigid:
        arr = titop_one_port(sc.replace_modes(cfg.array, 0))
        wz = gain(np.zeros((2, 2)), (("w_omega", 2),), (("z_omega", 2),))
    else:
        arr = mode_freq_lfr(cfg.array, cfg.uncertain_mode, cfg.r_omega)
        wz = None
    arr = apply_frame(arr, "xdd_P", Dcm(cfg.array_dcm))
    arr = apply_frame(arr, "W_P", Dcm(cfg.array_dcm))

    count = max(cfg.n_tiles - state.n - state.delta, 0)
    stk = titop_one_port(ModalBodyData(
        mass=count * cfg.tile.mass, com=cfg.stack_offset,
        inertia_P=transport_inertia(count * np.asarray(cfg.tile.inertia_G),
                                    count * cfg.tile.mass, cfg.stack_offset),
        freqs=[], dampings=[], L_P=np.zeros((0, 6)), name="stack"))

    sdata = models.structure_data(state.n, state.j)
    if rigid:
        sdata = sc.replace_modes(sdata, 0)
    fn = titop_two_port(sdata)

    blocks = [("hub", hub), ("arr", arr), ("stk", stk), ("fn", fn),
              ("rb", wired_robot_block(models, state, qs))]
    wiring = [
        ("hub.xdd_P1", "arr.xdd_P"), ("arr.W_P", "hub.W_P1"),
        ("hub.xdd_P3", "stk.xdd_P"), ("stk.W_P", "hub.W_P3"),
        ("hub.xdd_P2", "fn.xdd_P"), ("fn.W_P", "hub.W_P2"),
        ("fn.xdd_C", "rb.xdd_P"), ("rb.W_P", "fn.W_C"),
    ]
    ext_in = [("F_G", "hub.F_G"), ("T_G", "hub.T_G"), ("W_ext", "fn.W_C")]
    ext_out = [("a_G", "hub.a_G"), ("omega_dot_G", "hub.omega_dot_G")]
    if wz is None:
        ext_in.append(("w_omega", "arr.w_omega"))
        ext_out.append(("z_omega", "arr.z_omega"))
    else:
        blocks.append(("wz", wz))
        ext_in.append(("w_omega", "wz.w_omega"))
        ext_out.append(("z_omega", "wz.z_omega"))

    plant = interconnect(blocks, wiring, ext_in, ext_out)
    return sc.pin_translation(plant) if pinned else plant


def wired_close_loop(plant, K_att):
    """The attitude loop wired from integrator, gain and summing blocks."""
    iw = integrator(3, "wdot", "w")
    it = integrator(3, "w", "theta")
    K = gain(K_att, (("theta", 3), ("omega", 3)), (("u", 3),))
    add = gain(np.hstack([np.eye(3), np.eye(3)]),
               (("d", 3), ("u", 3)), (("e", 3),))
    blocks = [("p", plant), ("iw", iw), ("it", it), ("k", K), ("add", add)]
    wiring = [
        ("p.omega_dot_G", "iw.wdot"),
        ("iw.w", "it.w"), ("iw.w", "k.omega"),
        ("it.theta", "k.theta"),
        ("k.u", "p.T_G"), ("k.u", "add.u"),
    ]
    ext_in = [("d_t", ["p.T_G", "add.d"]),
              ("W_ext", "p.W_ext"),
              ("w_omega", "p.w_omega")]
    ext_out = [("omega_dot_G", "p.omega_dot_G"),
               ("omega_G", "iw.w"),
               ("Theta_G", "it.theta"),
               ("e_t", "add.e"),
               ("z_omega", "p.z_omega")]
    if plant.has_input("F_G"):
        ext_in.append(("F_G", "p.F_G"))
    if plant.has_output("a_G"):
        ext_out.append(("a_G", "p.a_G"))
    return interconnect(blocks, wiring, ext_in, ext_out)
