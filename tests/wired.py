"""Reference models wired block by block through ``linss.interconnect``.

The library closes the locked robot as a static gain on a cached
port-exposed plant and builds the attitude loop on the plant's matrices.
These are the fully wired versions of the same models, kept as oracles
for the tests:

* the arm as a chain of rigid two-port links (:func:`arm_two_port`) and
  the robot hub as a port-inverted rigid n-port
  (:func:`rigid_nport_inverted`), from which ``chain_cluster`` in
  ``test_scenario`` wires the independent oracle for ``M_C``;
* the flexible body at its port P written out from its modal equations
  (:func:`titop_one_port`), the oracle for the P-port block of the
  library's body models, and the tile stack as such a body with no modes
  (:func:`wired_stack_block`), the oracle for the library's port-mass
  gain;
* the robot as a stateless one-port block, the whole spacecraft
  interconnected per waypoint, and the loop wired from integrator
  (:func:`integrator`) and gain blocks, and the uncertainty closed by
  wiring a gain block to the plant (:func:`wired_lft_upper`).  Besides the library's pinned
  flexible plant, the wired spacecraft comes free-floating
  (``pinned=False``, with its ``F_G``/``a_G`` channels) and rigid
  (``rigid=True``, array and structure cut to no modes by
  :func:`replace_modes`), the plants the conservation and controller
  checks are made on.
"""

import numpy as np

from flexasm import scenario as sc
from flexasm.errors import SingularInertia
from flexasm.linss import (W_CHANNEL, Z_CHANNEL, StateSpace, gain, interconnect,
                           split_channel)
from flexasm.multibody import (ModalBodyData, RigidBodyData, apply_frame,
                               dcm_about_axis, mode_freq_lfr, residual_mass,
                               rigid_mass_matrix, rigid_nport, tau_kinematic,
                               titop_two_port, transport_inertia)
from flexasm.robot import ArmGeometry


def integrator(width, in_name="u", out_name="y"):
    """Bank of ``width`` parallel integrators 1/s."""
    eye = np.eye(width)
    return StateSpace(np.zeros((width, width)), eye, eye, np.zeros((width, width)),
                      ((in_name, width),), ((out_name, width),))


def rigid_nport_inverted(body: RigidBodyData, inverted_port, other_ports=(),
                         with_com_port=True):
    """Rigid n-port with the first port inverted (twist in, wrench out).

    The inverted port constrains the rigid motion, so the other ports'
    twists follow kinematically from it while their wrenches only shape
    the reaction returned at the inverted port.
    """
    others = list(other_ports) + (["G"] if with_com_port else [])
    if body.mass <= 0.0:
        raise SingularInertia(f"body {body.name!r} has no mass")
    gp1 = body.offset(inverted_port)
    t_gp1 = tau_kinematic(gp1)  # twist at P1 -> twist at G
    D_G = rigid_mass_matrix(body)

    n_in = 6 * (1 + len(others))
    n_out = n_in
    D = np.zeros((n_out, n_in))
    # reaction at the inverted port
    D[0:6, 0:6] = -t_gp1.T @ D_G @ t_gp1
    for k, p in enumerate(others):
        gpk = body.offset(p)
        col = slice(6 * (k + 1), 6 * (k + 2))
        D[0:6, col] = tau_kinematic(gp1 - gpk).T  # wrench at P_k expressed at P1
        D[col, 0:6] = tau_kinematic(gp1 - gpk)  # twist at P1 transported to P_k
    ins = ((f"xdd_{inverted_port}", 6),) + tuple(
        (f"W_{p}", 6) for p in others)
    outs = ((f"W_{inverted_port}", 6),) + tuple(
        (f"xdd_{p}", 6) for p in others)
    return StateSpace(np.zeros((0, 0)), np.zeros((0, n_in)),
                      np.zeros((n_out, 0)), D, ins, outs)


def _link_body(geom: ArmGeometry, i, reverse):
    """Rigid two-port data for link i, P at J_i (or J_{i+1} when reversed)."""
    m = float(geom.masses[i])
    if not reverse:
        com = geom.coms[i]
        pc = geom.joint_offsets[i]
    else:
        com = geom.coms[i] - geom.joint_offsets[i]
        pc = -geom.joint_offsets[i]
    return ModalBodyData(
        mass=m, com=com,
        inertia_P=transport_inertia(geom.inertias[i], m, com),
        freqs=[], dampings=[], L_P=np.zeros((0, 6)),
        phi_C=np.zeros((6, 0)), pc=pc, name=f"link{i}")


def arm_two_port(geom: ArmGeometry, q, base="J0"):
    """Static 12x12 arm model at a fixed joint configuration.

    Channels: inputs ``(W_tip, xdd_base)``, outputs ``(xdd_tip, W_base)``.
    Base/tip signals are expressed in the adjacent link's frame (l0 at J0,
    l5 at J6).  ``base="J0"`` imposes the twist at J0 (the arm standing on
    the structure, the hub hanging on it at J6); ``base="J6"`` imposes it
    at J6 (the arm hanging off the hub, its tip free or carrying a tile).
    """
    q = np.asarray(q, dtype=float).reshape(5)
    rots = [dcm_about_axis(geom.joint_axes[k], q[k]) for k in range(5)]

    blocks = []
    wiring = []
    if base == "J0":
        for i in range(6):
            sys = titop_two_port(_link_body(geom, i, reverse=False))
            if i >= 1:
                # P-side signals of link i re-expressed in link i-1's frame
                sys = apply_frame(sys, "xdd_P", rots[i - 1])
                sys = apply_frame(sys, "W_P", rots[i - 1])
            blocks.append((f"L{i}", sys))
        for i in range(5):
            wiring.append((f"L{i}.xdd_C", f"L{i + 1}.xdd_P"))
            wiring.append((f"L{i + 1}.W_P", f"L{i}.W_C"))
        ext_in = [("W_tip", "L5.W_C"), ("xdd_base", "L0.xdd_P")]
        ext_out = [("xdd_tip", "L5.xdd_C"), ("W_base", "L0.W_P")]
    elif base == "J6":
        for i in range(6):
            sys = titop_two_port(_link_body(geom, i, reverse=True))
            if i <= 4:
                # P-side now sits at J_{i+1}: express in link i+1's frame
                sys = apply_frame(sys, "xdd_P", rots[i].T)
                sys = apply_frame(sys, "W_P", rots[i].T)
            blocks.append((f"L{i}", sys))
        for i in range(5, 0, -1):
            wiring.append((f"L{i}.xdd_C", f"L{i - 1}.xdd_P"))
            wiring.append((f"L{i - 1}.W_P", f"L{i}.W_C"))
        ext_in = [("W_tip", "L0.W_C"), ("xdd_base", "L5.xdd_P")]
        ext_out = [("xdd_tip", "L0.xdd_C"), ("W_base", "L5.W_P")]
    else:
        raise ValueError(f"base must be 'J0' or 'J6', got {base!r}")

    return interconnect(blocks, wiring, ext_in, ext_out)


def replace_modes(data: ModalBodyData, n_modes: int) -> ModalBodyData:
    """Truncate a modal body to its first ``n_modes`` modes."""
    return ModalBodyData(
        mass=data.mass, com=data.com, inertia_P=data.inertia_P,
        freqs=data.freqs[:n_modes], dampings=data.dampings[:n_modes],
        L_P=data.L_P[:n_modes, :],
        phi_C=None if data.phi_C is None else data.phi_C[:, :n_modes],
        pc=data.pc, name=data.name)


def titop_one_port(data):
    """The clamped-free flexible body at its port P, ``xdd_P -> W_P``,
    written out from its modal equations: with states ``(eta, eta')``,
    ``eta'' + 2 xi omega eta' + omega^2 eta = -L_P xdd_P`` and
    ``W_P = L_P^T (omega^2 eta + 2 xi omega eta') - R_P xdd_P``."""
    n, L = data.n_modes, data.L_P
    om = data.freqs
    stiff, damp = np.diag(om * om), np.diag(2.0 * data.dampings * om)
    A = np.block([[np.zeros((n, n)), np.eye(n)], [-stiff, -damp]])
    B = np.vstack([np.zeros((n, 6)), -L])
    C = L.T @ np.hstack([stiff, damp])
    return StateSpace(A, B, C, -residual_mass(data), (("xdd_P", 6),), (("W_P", 6),))


def wired_robot_block(models, state, qs):
    """The locked robot as a stateless ``xdd_P -> W_P`` one-port block at
    the docking port C, hub frame: ``W_P = -M_C xdd_P``.  Its mass matrix
    is the library's; ``chain_cluster`` in ``test_scenario`` is the
    independent oracle for it."""
    return gain(-models.robot_mass_matrices([(state, qs)])[0], (("xdd_P", 6),),
                (("W_P", 6),))


def wired_stack_block(cfg, count):
    """The rigid stack of ``count`` tiles as a flexible body with no modes
    at its port P, through ``titop_one_port``: the independent oracle for
    the library's port-mass gain."""
    return titop_one_port(ModalBodyData(
        mass=count * cfg.tile.mass, com=sc.STACK_OFFSET,
        inertia_P=transport_inertia(count * np.asarray(cfg.tile.inertia_G),
                                    count * cfg.tile.mass, sc.STACK_OFFSET),
        freqs=[], dampings=[], L_P=np.zeros((0, 6)), name="stack"))


def wired_open_loop(models, state, qs, rigid=False, pinned=True):
    """Hub, array, stack, structure and robot wired in one interconnect."""
    cfg = models.cfg
    hub = rigid_nport(cfg.hub, ["P1", "P2", "P3"])
    hub = split_channel(hub, "W_G", [("F_G", 3), ("T_G", 3)])
    hub = split_channel(hub, "xdd_G", [("a_G", 3), ("omega_dot_G", 3)])

    if rigid:
        arr = titop_one_port(replace_modes(cfg.array, 0))
        wz = gain(np.zeros((2, 2)), (("w_omega", 2),), (("z_omega", 2),))
    else:
        arr = mode_freq_lfr(cfg.array, cfg.uncertain_mode, cfg.r_omega)
        wz = None
    arr = apply_frame(arr, "xdd_P", sc.ARRAY_DCM)
    arr = apply_frame(arr, "W_P", sc.ARRAY_DCM)

    stk = wired_stack_block(cfg, max(cfg.n_tiles - state.n - state.delta, 0))

    sdata = models.structure_data(state.n, state.j)
    if rigid:
        sdata = replace_modes(sdata, 0)
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


def wired_lft_upper(plant, delta):
    """``w = delta * z`` closed on the uncertainty pair by wiring a gain
    block to the plant: the oracle for ``linss.lft_upper``."""
    w = plant.in_width(W_CHANNEL)
    blk = gain(float(delta) * np.eye(w), (("z", w),), (("w", w),))
    ext_in = [(c, f"p.{c}") for c, _ in plant.in_channels if c != W_CHANNEL]
    ext_out = [(c, f"p.{c}") for c, _ in plant.out_channels if c != Z_CHANNEL]
    return interconnect([("p", plant), ("d", blk)],
                        [(f"p.{Z_CHANNEL}", "d.z"), ("d.w", f"p.{W_CHANNEL}")],
                        ext_in, ext_out)


def wired_close_loop(plant, K_att):
    """The attitude loop wired from integrator, gain and summing blocks."""
    iw = integrator(3, "wdot", "w")
    it = integrator(3, "w", "theta")
    K = gain(K_att, (("theta", 3), ("omega", 3)), (("u", 3),))
    # the summing block adds the disturbance to the control torque; the
    # sum drives the plant (t) and is the input-sensitivity output (e)
    eye2 = np.hstack([np.eye(3), np.eye(3)])
    add = gain(np.vstack([eye2, eye2]), (("d", 3), ("u", 3)), (("e", 3), ("t", 3)))
    blocks = [("p", plant), ("iw", iw), ("it", it), ("k", K), ("add", add)]
    wiring = [
        ("p.omega_dot_G", "iw.wdot"),
        ("iw.w", "it.w"), ("iw.w", "k.omega"),
        ("it.theta", "k.theta"),
        ("k.u", "add.u"), ("add.t", "p.T_G"),
    ]
    ext_in = [("d_t", "add.d"),
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
