"""Full-plant assembly: DC reciprocity, antiresonances, attitude loop."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

from flexasm import linss, robot
from flexasm import scenario as sc
from flexasm.errors import (IkNotConverged, IkUnreachable, MissingStructureData,
                            StateInvalid, WidthMismatch)
from flexasm.multibody import (apply_frame, compose_rigid, dcm_about_axis,
                               port_mass_matrix, rigid_mass_matrix,
                               transport_inertia)
from flexasm.robot import default_arm_geometry, link_poses

from conftest import (assert_same_system, count_constructors, make_rng,
                      mission_states)
from wired import (arm_two_port, rigid_nport_inverted, wired_close_loop,
                   wired_open_loop)

HOME = (sc.HOME_JOINTS,) * 3


@pytest.fixture(scope="module")
def cfg():
    return sc.table_scenario(4)


@pytest.fixture(scope="module")
def models(cfg):
    return sc.ScenarioModels(cfg)


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------

def test_enumerate_model_family_counts():
    fam = sc.enumerate_model_family(28)
    assert len(fam) == 2 * 28 * 29 == 1624
    assert len(sc.enumerate_model_family(1)) == 4
    assert all(s.j <= s.n for s in fam)


def test_assembly_state_invariants():
    with pytest.raises(StateInvalid):
        sc.AssemblyState(2, 3, 1, 0)
    with pytest.raises(StateInvalid):
        sc.AssemblyState(2, 1, 3, 0)
    with pytest.raises(StateInvalid):
        sc.AssemblyState(2, 1, 1, 2)


def test_attitude_gains_values():
    K = sc.attitude_gains(np.eye(3), 1.0, 0.01)
    w = 2 * np.pi * 0.01
    assert np.allclose(K[:, :3], -w * w * np.eye(3))
    assert K[0, 0] == pytest.approx(-0.0039478, abs=1e-7)
    assert np.allclose(K[:, 3:], -2 * w * np.eye(3))
    assert np.allclose(sc.attitude_gains(np.eye(3), 1.0, 0.0), 0.0)


def test_structure_bank_errors(models):
    with pytest.raises(MissingStructureData):
        models.structure_data(9, 1)
    with pytest.raises(MissingStructureData):
        models.structure_data(2, 3)


# ---------------------------------------------------------------------------
# DC-gain / inertia reciprocity
# ---------------------------------------------------------------------------

def dc_block(plant, out, inp):
    D = plant.dc_gain()
    return D[plant.out_slice(out), :][:, plant.in_slice(inp)]


def test_dc_gain_matches_inertia_about_hub(models):
    st = sc.AssemblyState(2, 2, 1, 0)
    plant = models.open_loop(st, HOME)
    J_G = models.total_inertia(st, HOME)
    blk = dc_block(plant, "omega_dot_G", "T_G")
    ref = np.linalg.inv(J_G)
    assert np.max(np.abs(blk - ref)) < 1e-9 * np.max(np.abs(ref))


def test_free_plant_dc_matches_inertia_about_com(models):
    st = sc.AssemblyState(3, 2, 2, 1)
    plant = wired_open_loop(models, st, HOME, pinned=False)
    m, com, J_com = models.mass_properties(st, HOME)
    blk = dc_block(plant, "omega_dot_G", "T_G")
    ref = np.linalg.inv(J_com)
    assert np.max(np.abs(blk - ref)) < 1e-9 * np.max(np.abs(ref))


def test_free_plant_recovers_total_mass_and_delta_conservation(models):
    # inverse of the full 6x6 DC gain at G has an exact m*I force block,
    # invariant under the carried-tile toggle
    masses = {}
    for delta in (0, 1):
        st = sc.AssemblyState(2, 1, 1, delta)
        plant = wired_open_loop(models, st, HOME, pinned=False)
        D = plant.dc_gain()
        rows = np.r_[np.arange(*_sl(plant.out_slice("a_G"))),
                     np.arange(*_sl(plant.out_slice("omega_dot_G")))]
        cols = np.r_[np.arange(*_sl(plant.in_slice("F_G"))),
                     np.arange(*_sl(plant.in_slice("T_G")))]
        M6 = np.linalg.inv(D[np.ix_(rows, cols)])
        m_expected, _, _ = models.mass_properties(st, HOME)
        assert np.max(np.abs(M6[:3, :3] - m_expected * np.eye(3))) < 1e-9 * m_expected
        masses[delta] = m_expected
    assert masses[0] == pytest.approx(masses[1], abs=1e-9)


def _sl(s):
    return (s.start, s.stop)


def test_reciprocity_with_bent_arms(models):
    rng = make_rng(77)
    st = sc.AssemblyState(3, 1, 2, 1)
    qs = tuple(rng.uniform(-0.8, 0.8, 5) for _ in range(3))
    plant = models.open_loop(st, qs)
    J_G = models.total_inertia(st, qs)
    blk = dc_block(plant, "omega_dot_G", "T_G")
    ref = np.linalg.inv(J_G)
    assert np.max(np.abs(blk - ref)) < 1e-8 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# rigid robot block vs. the wired arm chains
# ---------------------------------------------------------------------------

def chain_cluster(cfg, state, qs):
    """The robot wired from its parts: the gripping arm standing on the
    docking port, the port-inverted robot hub, the free arm and arm 3
    hanging off it, and the carried tile on arm 3's tip.  Every port is
    re-expressed in the hub frame, with the frames derived here from the
    joint angles and the mount DCMs.  Channels: ``xdd_C -> W_C``."""
    geom, mounts = cfg.arm_geometry, cfg.arm_mount_dcms
    g, f = state.arm, 3 - state.arm
    q = {k: np.asarray(qs[k - 1], dtype=float) for k in (1, 2, 3)}
    _, rots_g = link_poses(geom, q[g], base="J0")
    M_c = rots_g[5] @ mounts[g].T
    M_l5 = {g: rots_g[5], f: M_c @ mounts[f], 3: M_c @ mounts[3]}

    ga = arm_two_port(geom, q[g], base="J0")
    for ch in ("W_tip", "xdd_tip"):
        ga = apply_frame(ga, ch, M_l5[g])
    rh = rigid_nport_inverted(cfg.robot_hub, f"A{g}", [f"A{f}", "A3"],
                              with_com_port=False)
    for ch in (f"xdd_A{g}", f"W_A{g}", f"W_A{f}", f"xdd_A{f}", "W_A3", "xdd_A3"):
        rh = apply_frame(rh, ch, M_c)
    hanging = {}
    for k in (f, 3):
        arm = arm_two_port(geom, q[k], base="J6")
        for ch in ("W_base", "xdd_base"):
            arm = apply_frame(arm, ch, M_l5[k])
        hanging[k] = arm
    if state.delta == 1:
        # the carried tile sits at arm 3's tip, in the frame of its link l0
        M_l0 = M_l5[3] @ link_poses(geom, q[3], base="J6")[1][0]
        for ch in ("W_tip", "xdd_tip"):
            hanging[3] = apply_frame(hanging[3], ch, M_l0)

    blocks = [("ga", ga), ("rh", rh), ("fa", hanging[f]), ("a3", hanging[3])]
    wiring = [
        ("ga.xdd_tip", f"rh.xdd_A{g}"), (f"rh.W_A{g}", "ga.W_tip"),
        (f"rh.xdd_A{f}", "fa.xdd_base"), ("fa.W_base", f"rh.W_A{f}"),
        ("rh.xdd_A3", "a3.xdd_base"), ("a3.W_base", "rh.W_A3"),
    ]
    if state.delta == 1:
        tl = linss.gain(-rigid_mass_matrix(cfg.tile), (("xdd_P", 6),),
                        (("W_P", 6),))
        for ch in ("xdd_P", "W_P"):
            tl = apply_frame(tl, ch, M_l0)
        blocks.append(("tl", tl))
        wiring += [("a3.xdd_tip", "tl.xdd_P"), ("tl.W_P", "a3.W_tip")]
    return linss.interconnect(blocks, wiring, [("xdd_C", "ga.xdd_base")],
                              [("W_C", "ga.W_base")])


def skewed_robot_scenario():
    # the published mount DCMs are symmetric (half-turns) and the link and
    # robot-hub inertias isotropic, which would hide a transposed frame;
    # tilt every mount and give every robot body an anisotropic inertia
    rng = make_rng(4242)

    def rotation():
        return dcm_about_axis(rng.normal(size=3), rng.uniform(0.3, 1.2)).R

    def tilted(moments):
        R = rotation()
        return R @ np.diag(moments) @ R.T

    mounts = {k: sc.ARM_MOUNT_DCMS[k] @ rotation() for k in (1, 2, 3)}
    geom = replace(default_arm_geometry(), inertias=[
        tilted(j * np.array([0.6, 1.0, 1.3])) for j in (0.2, 0.2, 0.4, 0.2, 0.4, 0.2)])
    base = sc.table_scenario(3)
    hub = replace(base.robot_hub, inertia_G=tilted([0.4, 0.6, 0.8]))
    return replace(base, arm_mount_dcms=mounts, arm_geometry=geom,
                   robot_hub=hub)


@pytest.mark.parametrize("which", ["table", "skewed"])
def test_robot_block_matches_arm_chain_cluster(cfg, which):
    if which == "skewed":
        cfg = skewed_robot_scenario()
    models = sc.ScenarioModels(cfg)
    rng = make_rng(515)
    for arm in (1, 2):
        for delta in (0, 1):
            for _ in range(3):
                st = sc.AssemblyState(2, int(rng.integers(1, 3)), arm, delta)
                qs = tuple(rng.uniform(-1.0, 1.0, 5) for _ in range(3))
                ref = chain_cluster(cfg, st, qs)
                assert ref.n_states == 0
                D_ref = ref.D[ref.out_slice("W_C"), :][:, ref.in_slice("xdd_C")]
                err = np.max(np.abs(-models.robot_mass_matrix(st, qs) - D_ref))
                assert err <= 1e-10 * np.max(np.abs(D_ref)), (which, st, err)


def robot_parts_per_arm(models, state, qs):
    """``ScenarioModels._robot_parts`` posing each arm in its own
    ``link_poses`` call: the oracle for the stacked hanging arms."""
    cfg = models.cfg
    geom = cfg.arm_geometry
    mounts = models._mounts[state.arm]
    joints, rots = link_poses(geom, qs[state.arm - 1], base="J0")
    parts = [(geom.masses, sc._link_coms(geom, joints, rots), geom.inertias,
              rots)]

    def place(R, p):
        return rots[5] @ R, joints[6] + rots[5] @ p

    M, o = place(*mounts["hub"])
    parts.append((cfg.robot_hub.mass, o, cfg.robot_hub.inertia_G, M))
    for k in (3 - state.arm, 3):
        M, o = place(*mounts[k])
        joints_k, rots_k = link_poses(geom, qs[k - 1], base="J6")
        coms = o + sc._link_coms(geom, joints_k, rots_k) @ M.T
        parts.append((geom.masses, coms, geom.inertias, M @ rots_k))
    if state.delta == 1:
        parts.append((cfg.tile.mass, o + M @ joints_k[0],
                      cfg.tile.inertia_G, M @ rots_k[0]))
    return parts


@pytest.mark.parametrize("which", ["table", "skewed"])
def test_robot_mass_matrix_equals_per_arm_poses_bitwise(cfg, which):
    if which == "skewed":
        cfg = skewed_robot_scenario()
    models = sc.ScenarioModels(cfg)
    for state, qs in mission_states(12, 31):
        m, c, J_com = compose_rigid(robot_parts_per_arm(models, state, qs))
        ref = port_mass_matrix(m, c, transport_inertia(J_com, m, c))
        assert models.robot_mass_matrix(state, qs).tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# cached port-exposed plant vs. the fully wired spacecraft
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pinned", [True], ids=["pinned"])
def test_cached_plant_matches_wired_oracle(pinned):
    models = sc.ScenarioModels(sc.table_scenario(4))
    K = models.design_gains()
    deltas = set()
    for st, qs in mission_states(12, 8):
        deltas.add(st.delta)
        ref_open = wired_open_loop(models, st, qs, pinned=pinned)
        pairs = [(models.open_loop(st, qs), ref_open),
                 (models.closed_loop(st, qs, K), wired_close_loop(ref_open, K))]
        for got, ref in pairs:
            assert got.n_states == ref.n_states
            assert got.in_channels == ref.in_channels
            assert got.out_channels == ref.out_channels
            for w in (1e-2, 0.3, 2.0, 8.0, 40.0):
                G, R = got.transfer_at(1j * w), ref.transfer_at(1j * w)
                err = np.max(np.abs(G - R))
                assert err <= 1e-10 * np.max(np.abs(R)), (st, w, err)
    assert deltas == {0, 1}


def test_port_plant_cache_keys(cfg, monkeypatch):
    # only (n, j, delta) select a plant: the gripping arm
    # and the joints reach the model through M_C alone
    models = sc.ScenarioModels(cfg)
    calls = []
    wire = sc.interconnect
    monkeypatch.setattr(sc, "interconnect",
                        lambda *a, **k: calls.append(1) or wire(*a, **k))
    rng = make_rng(9)
    K = models.design_gains()

    def joints():
        return tuple(rng.uniform(-1.0, 1.0, 5) for _ in range(3))

    base = sc.AssemblyState(3, 2, 1, 0)
    models.open_loop(base, joints())
    models.closed_loop(sc.AssemblyState(3, 2, 2, 0), joints(), K)
    assert len(calls) == 1
    for st in [sc.AssemblyState(4, 2, 1, 0), sc.AssemblyState(3, 3, 1, 0),
               sc.AssemblyState(3, 2, 1, 1)]:
        before = len(calls)
        models.open_loop(st, joints())
        assert len(calls) == before + 1, st
        models.open_loop(replace(st, arm=3 - st.arm), joints())
        assert len(calls) == before + 1, st


def test_two_constructors_per_closed_loop(models, monkeypatch):
    # the cached plant's prepared closure, then the attitude loop: no
    # intermediate system, no channel-selection copy, and both built
    # unchecked from checked systems
    K = models.design_gains()
    states = list(mission_states(4, 6))
    for st, qs in states:
        models.closed_loop(st, qs, K)  # wires the cached plants
    checked, unchecked = count_constructors(monkeypatch)
    for st, qs in states:
        models.closed_loop(st, qs, K)
    assert len(checked) == 0
    assert len(unchecked) == 2 * len(states)


def test_mass_matrix_memo_is_shared_across_structure_sizes(cfg):
    # M_C reads the gripping arm, delta and the joints, not n or j
    models = sc.ScenarioModels(cfg)
    rng = make_rng(3)
    qs = [rng.uniform(-1.0, 1.0, 5) for _ in range(3)]
    M = models.robot_mass_matrix(sc.AssemblyState(2, 1, 1, 1), qs)
    again = models.robot_mass_matrix(sc.AssemblyState(4, 3, 1, 1),
                                     [q.copy() for q in qs])
    assert again is M and len(models._masses) == 1
    with pytest.raises(ValueError):
        M[0, 0] = 1.0
    fresh = sc.ScenarioModels(cfg).robot_mass_matrix(sc.AssemblyState(4, 3, 1, 1), qs)
    assert fresh.tobytes() == M.tobytes()
    other = models.robot_mass_matrix(sc.AssemblyState(2, 1, 1, 0), qs)
    assert other is not M and not np.array_equal(other, M)


def test_prepared_closure_matches_a_fresh_validated_copy(cfg):
    models = sc.ScenarioModels(cfg)
    st, qs = next(mission_states(1, 11))
    plant, close = models._port_plant(st.n, st.j, st.delta)
    K = -models.robot_mass_matrix(st, qs)

    def fresh(sys):
        return linss.StateSpace(sys.A.copy(), sys.B.copy(), sys.C.copy(),
                                sys.D.copy(), sys.in_channels, sys.out_channels)

    want = linss.close_static(fresh(plant), K, "W_r", "xdd_C")
    assert_same_system(close(K), want)
    assert_same_system(models.open_loop(st, qs), want)
    # a slice with other channels, in another order, closes on its own
    # operands, not on its parent's
    sub = plant.subsystem(["z_omega", "xdd_C", "omega_dot_G"], ["W_r", "T_G"])
    assert_same_system(linss.close_static(sub, K, "W_r", "xdd_C"),
                       linss.close_static(fresh(sub), K, "W_r", "xdd_C"))
    with pytest.raises(ValueError):
        models.closed_loop(st, qs, models.design_gains()).A[0, 0] = 1.0


def test_closure_rcond_equals_numpy_cond_on_desk_port_plants():
    # the loops I - D_zw K that the robot-port closures check, K = -M_C
    models = sc.ScenarioModels(desk_scenario())
    for state, qs in mission_states(24, 41):
        plant, _ = models._port_plant(state.n, state.j, state.delta)
        D_zw = plant.D[plant.out_slice("xdd_C"), plant.in_slice("W_r")]
        loop = np.eye(6) + D_zw @ models.robot_mass_matrix(state, qs)
        want = 1.0 / np.linalg.cond(loop, 1)
        assert np.float64(linss._rcond(loop)).tobytes() == want.tobytes()


def test_hub_and_array_blocks_are_built_once(cfg, monkeypatch):
    calls = []
    lfr = sc.mode_freq_lfr
    monkeypatch.setattr(sc, "mode_freq_lfr", lambda *a: calls.append(1) or lfr(*a))
    models = sc.ScenarioModels(cfg)
    keys = [(n, j, delta) for n in range(1, cfg.n_tiles + 1)
            for j in range(1, n + 1) for delta in (0, 1)]
    plants = [models._port_plant(*key)[0] for key in keys]
    assert len(calls) == 1
    # sharing the blocks leaves every plant as a factory of its own wires it
    for key, plant in zip(keys, plants):
        assert_same_system(plant, sc.ScenarioModels(cfg)._port_plant(*key)[0])


def test_close_loop_rejects_misshaped_gain(models):
    plant = models.open_loop(sc.AssemblyState(1, 1, 1, 0), HOME)
    K = models.design_gains()
    for bad in (K.T, K.ravel(), K[:, :3]):
        with pytest.raises(WidthMismatch):
            sc.close_loop(plant, bad)


# ---------------------------------------------------------------------------
# frequency-domain features
# ---------------------------------------------------------------------------

def find_dip(channel, f_target_hz, span=0.03, n=4001):
    f = np.linspace(f_target_hz * (1 - span), f_target_hz * (1 + span), n)
    mags = np.array([abs(channel.transfer_at(2j * np.pi * fi)[0, 0]) for fi in f])
    k = int(np.argmin(mags))
    return f[k], 0 < k < n - 1


def test_antiresonances_at_array_cantilever_freqs(models):
    st = sc.AssemblyState(1, 1, 1, 0)
    plant = models.open_loop(st, HOME)
    ch = plant.subsystem(outputs=["omega_dot_G"], inputs=["T_G"])
    for target in (1.2850, 6.5896):
        f_min, interior = find_dip(ch, target)
        assert interior
        assert abs(f_min - target) / target < 0.01


def test_uncertainty_shifts_first_antiresonance(models):
    st = sc.AssemblyState(1, 1, 1, 0)
    plant = models.open_loop(st, HOME)
    for delta, f_hz in [(1.0, 1.5420), (-1.0, 1.0280)]:
        closed = linss.lft_upper(plant, delta)
        ch = closed.subsystem(outputs=["omega_dot_G"], inputs=["T_G"])
        f_min, interior = find_dip(ch, f_hz)
        assert interior
        assert abs(f_min - f_hz) / f_hz < 0.01


# ---------------------------------------------------------------------------
# attitude loop
# ---------------------------------------------------------------------------

def rigid_loop(models, st, K):
    """The attitude loop around the wired rigid plant at home."""
    return wired_close_loop(wired_open_loop(models, st, HOME, rigid=True), K)


def test_rigid_loop_critically_damped(models):
    st = sc.AssemblyState(2, 1, 1, 0)
    K = sc.attitude_gains(models.total_inertia(st, HOME), models.cfg.xi_att,
                          models.cfg.f_att_hz)
    cl = rigid_loop(models, st, K)
    poles = np.linalg.eigvals(cl.A)
    w = 2 * np.pi * 0.01
    assert cl.n_states == 6
    assert np.max(np.abs(poles - (-w))) < 1e-6


def test_rigid_loop_input_sensitivity_analytic(models):
    st = sc.AssemblyState(2, 1, 1, 0)
    K = sc.attitude_gains(models.total_inertia(st, HOME), models.cfg.xi_att,
                          models.cfg.f_att_hz)
    cl = rigid_loop(models, st, K)
    sub = cl.subsystem(outputs=["e_t"], inputs=["d_t"])
    w0 = 2 * np.pi * 0.01
    for w in (1e-3, w0, 0.1, 10.0):
        s = 1j * w
        analytic = s * s / (s * s + 2 * w0 * s + w0 * w0)
        G = sub.transfer_at(s)
        assert np.allclose(G, analytic * np.eye(3), atol=2e-9 * max(1, abs(analytic)))


def test_zero_gains_leave_loop_open(models):
    st = sc.AssemblyState(1, 1, 2, 0)
    cl = models.closed_loop(st, HOME, np.zeros((3, 6)))
    sub = cl.subsystem(outputs=["e_t"], inputs=["d_t"])
    for w in (1e-2, 1.0, 50.0):
        assert np.allclose(sub.transfer_at(1j * w), np.eye(3), atol=1e-12)


def test_integrator_chain_outputs(models):
    st = sc.AssemblyState(1, 1, 1, 0)
    K = sc.attitude_gains(models.total_inertia(st, HOME), models.cfg.xi_att,
                          models.cfg.f_att_hz)
    cl = models.closed_loop(st, HOME, K)
    w = 0.5
    G = cl.transfer_at(1j * w)
    wd = G[cl.out_slice("omega_dot_G"), :][:, cl.in_slice("W_ext")]
    om = G[cl.out_slice("omega_G"), :][:, cl.in_slice("W_ext")]
    th = G[cl.out_slice("Theta_G"), :][:, cl.in_slice("W_ext")]
    assert np.allclose(om, wd / (1j * w), atol=1e-12)
    assert np.allclose(th, om / (1j * w), atol=1e-12)


def test_design_gains_stabilize_rigid_family():
    cfg = sc.table_scenario(3)
    models = sc.ScenarioModels(cfg)
    K = models.design_gains()
    for st in sc.enumerate_model_family(3):
        cl = rigid_loop(models, st, K)
        assert linss.spectral_abscissa(cl) < -1e-6, st


def test_flexible_loop_stable(models):
    st = sc.AssemblyState(4, 3, 2, 0)
    K = models.design_gains()
    cl = models.closed_loop(st, HOME, K)
    assert linss.is_stable(cl).stable


# ---------------------------------------------------------------------------
# combined-arm reach
# ---------------------------------------------------------------------------

def _tip(models, state, qs, reach_arm):
    """Reaching tip by an independent forward pass: the gripping arm from
    the docking tile, the robot hub through its mount DCM and offsets, and
    the reaching arm hanging off its own mount, as in ``chain_cluster``."""
    cfg = models.cfg
    geom, mounts, hub = cfg.arm_geometry, cfg.arm_mount_dcms, cfg.robot_hub
    g = state.arm
    joints_g, rots_g = link_poses(geom, qs[g - 1], base="J0")
    M_c = rots_g[5] @ mounts[g].T
    hub_pos = cfg.tile_center(state.j) + joints_g[6] - M_c @ hub.offset(f"A{g}")
    joints_r, _ = link_poses(geom, qs[reach_arm - 1], base="J6")
    return hub_pos + M_c @ (hub.offset(f"A{reach_arm}")
                            + mounts[reach_arm] @ joints_r[0])


def test_solve_reach_to_stack(models, cfg):
    st = sc.AssemblyState(1, 1, 1, 0)
    target = cfg.stack_center()
    qg, qr = models.solve_reach(st, 3, target)
    tip = _tip(models, st, (qg, sc.HOME_JOINTS, qr), 3)
    assert np.linalg.norm(tip - target) < 1e-4


def test_solve_reach_rejects_grip_arm(models):
    with pytest.raises(StateInvalid):
        models.solve_reach(sc.AssemblyState(1, 1, 1, 0), 1, np.zeros(3))


def test_solve_reach_memo_ignores_n_and_delta(cfg):
    # the walking IK reads only (j, arm, reach arm, target): every (n,
    # delta) variant shares one solve, bitwise equal to a fresh model's
    shared = sc.ScenarioModels(cfg)
    # pairs of problems differ in exactly one key entry
    problems = [(1, 1, 3, cfg.stack_center()), (1, 2, 3, cfg.stack_center()),
                (1, 1, 3, cfg.tile_center(2)), (1, 1, 2, cfg.tile_center(2)),
                (3, 1, 2, cfg.tile_center(2)), (2, 2, 1, cfg.tile_center(3))]
    for j, arm, reach_arm, target in problems:
        for n, delta in ((j, 0), (j, 1), (4, 0), (4, 1)):
            st = sc.AssemblyState(n, j, arm, delta)
            got = shared.solve_reach(st, reach_arm, target)
            ref = sc.ScenarioModels(cfg).solve_reach(st, reach_arm, target)
            for a, b in zip(got, ref):
                assert a.tobytes() == b.tobytes()
    assert len(shared._reach) == len(problems)


def test_solve_reach_memo_returns_copies(cfg):
    models = sc.ScenarioModels(cfg)
    st = sc.AssemblyState(1, 1, 1, 0)
    qg, qr = models.solve_reach(st, 3, cfg.stack_center())
    ref = qg.copy(), qr.copy()
    qg[:] = 1.0
    qr += 0.5
    again = models.solve_reach(st, 3, cfg.stack_center())
    for a, b in zip(again, ref):
        assert np.array_equal(a, b)


def test_solve_reach_memo_reraises_unreachable_straddle(cfg, monkeypatch):
    # tiles 1 and 3 of the table layout are diagonal neighbours: the
    # straddle is beyond the reach bound, certified without any descent,
    # and a memo hit raises the same type with the same message
    models = sc.ScenarioModels(cfg)
    calls = []
    solve = sc.dls_solve
    monkeypatch.setattr(sc, "dls_solve",
                        lambda *a, **k: calls.append(1) or solve(*a, **k))
    target = cfg.tile_center(3)
    with pytest.raises(IkUnreachable) as first:
        models.solve_reach(sc.AssemblyState(3, 1, 1, 0), 2, target)
    with pytest.raises(IkUnreachable) as second:
        models.solve_reach(sc.AssemblyState(4, 1, 1, 1), 2, target)
    assert calls == []
    assert type(second.value) is IkUnreachable
    assert str(second.value) == str(first.value)
    assert second.value is not first.value


def test_solve_reach_memo_keeps_seed_artifact_type(cfg, monkeypatch):
    # a plain IkNotConverged stays plain on a memo hit, task error included
    models = sc.ScenarioModels(cfg)

    def fail(*args, **kwargs):
        raise IkNotConverged("stalled", 0.25)

    monkeypatch.setattr(sc, "dls_solve", fail)
    st = sc.AssemblyState(1, 1, 1, 0)
    with pytest.raises(IkNotConverged) as first:
        models.solve_reach(st, 3, cfg.stack_center())
    with pytest.raises(IkNotConverged) as second:
        models.solve_reach(st, 3, cfg.stack_center())
    for exc in (first.value, second.value):
        assert type(exc) is IkNotConverged
        assert exc.task_error == 0.25
    assert str(second.value) == str(first.value)


# ---------------------------------------------------------------------------
# closed-form reach bound
# ---------------------------------------------------------------------------

def test_reach_bound_default_geometry(cfg):
    models = sc.ScenarioModels(cfg)
    for g, r in ((1, 2), (2, 1)):
        m, anchor, bound = models._reach_bound(g, r)
        assert m == 2
        assert np.allclose(anchor, [0.0, 0.0, 0.225], atol=1e-15)
        assert bound == pytest.approx(1.3974056, abs=1e-7)
    assert models._reach_bound(1, 2) is models._reach_bound(1, 2)


@pytest.mark.parametrize("g", [1, 2])
def test_reach_bound_gap_is_the_stall_residual(cfg, g):
    # the diagonal straddle 1 -> 3: one descent from the home seed stalls
    # exactly where the straightened chain points at the target
    models = sc.ScenarioModels(cfg)
    r = 3 - g
    target = cfg.tile_center(3)
    m, anchor, bound = models._reach_bound(g, r)
    dist = np.linalg.norm(target - cfg.tile_center(1) - anchor)
    residual = models._reach_residual(1, g, r, target)
    with pytest.raises(IkNotConverged) as exc:
        sc.dls_solve(residual, np.zeros(10), -sc.JOINT_LIMIT * np.ones(10),
                     sc.JOINT_LIMIT * np.ones(10), tol=0.5 * sc.REACH_TOL)
    assert dist - bound == pytest.approx(0.0345948, abs=1e-6)
    assert abs(dist - bound - exc.value.task_error) < 1e-6


def row_by_row_residual(models, j, g, reach_arm, target_world):
    """The reach residual one row per ``link_poses`` pair, each row in the
    matrix-vector form of a single joint vector: the oracle for the
    stacked residual."""
    geom = models.cfg.arm_geometry
    base_world = models.cfg.tile_center(j)
    R, p = models._mounts[g][reach_arm]

    def one(q10):
        joints_g, rots_g = link_poses(geom, q10[:5], base="J0")
        joints_r, _ = link_poses(geom, q10[5:], base="J6")
        return (base_world + joints_g[6] + rots_g[5] @ (p + R @ joints_r[0])
                - target_world)

    return lambda rows: np.array([one(q) for q in rows])


def column_by_column_dls_solve(residual, q0, lower, upper, tol):
    """``robot.dls_solve`` with its Jacobian taken one residual call per
    perturbed joint; ``residual`` maps one row to one residual vector.
    The oracle for the stacked descent."""
    q = np.clip(np.array(q0, dtype=float), lower, upper)
    h, lam = 1e-6, robot.DLS_DAMPING
    e = residual(q)
    en = best = float(np.linalg.norm(e))
    since_best = 0
    for _ in range(robot.MAX_ITER):
        if en < tol:
            return q
        J = np.zeros((e.size, q.size))
        for k in range(q.size):
            dq = np.array(q)
            dq[k] += h
            J[:, k] = (residual(dq) - e) / h
        for _ in range(10):
            step = J.T @ np.linalg.solve(J @ J.T + lam * lam * np.eye(e.size), -e)
            nrm = np.linalg.norm(step)
            if nrm > 0.6:
                step *= 0.6 / nrm
            q_new = np.clip(q + step, lower, upper)
            e_new = residual(q_new)
            en_new = float(np.linalg.norm(e_new))
            if en_new < en:
                lam = max(lam / 3.0, 1e-5)
                break
            lam *= 5.0
        else:
            raise IkNotConverged(f"descent stuck at task error {en:.3e}", en)
        q, e, en = q_new, e_new, en_new
        if en < best * (1.0 - 1e-9):
            best, since_best = en, 0
        else:
            since_best += 1
            if since_best >= robot.STALL_ITERS:
                raise IkNotConverged(f"stalled at task error {en:.3e}", en)
    raise IkNotConverged(f"task error {en:.3e} after {robot.MAX_ITER} iterations", en)


def test_stacked_reach_residual_equals_row_by_row(cfg):
    models = sc.ScenarioModels(cfg)
    rng = make_rng(77)
    for j, g, r, target in ((1, 1, 3, cfg.stack_center()),
                            (2, 2, 1, cfg.tile_center(3))):
        Q = rng.uniform(-3.0, 3.0, (11, 10))
        got = models._reach_residual(j, g, r, target)(Q)
        ref = row_by_row_residual(models, j, g, r, target)(Q)
        assert got.shape == (11, 3)
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("r, converges", [
    (3, True),      # the stack straddle converges from the home seed
    (2, False),     # the diagonal straddle stalls at the bound gap
], ids=["converges", "stalls"])
def test_dls_solve_on_stacked_residual_equals_row_by_row(cfg, r, converges):
    # same q bits, or the same stall message and task error
    j, g = 1, 1
    target = cfg.stack_center() if r == 3 else cfg.tile_center(3)
    models = sc.ScenarioModels(cfg)
    args = (np.zeros(10), -sc.JOINT_LIMIT * np.ones(10),
            sc.JOINT_LIMIT * np.ones(10))
    rows = row_by_row_residual(models, j, g, r, target)
    outcomes = []
    for solve, residual in ((sc.dls_solve, models._reach_residual(j, g, r, target)),
                            (sc.dls_solve, rows),
                            (column_by_column_dls_solve, lambda q: rows(q[None])[0])):
        try:
            outcomes.append(solve(residual, *args, tol=0.5 * sc.REACH_TOL).tobytes())
        except IkNotConverged as exc:
            outcomes.append((str(exc), exc.task_error))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert isinstance(outcomes[0], bytes) == converges


@pytest.mark.parametrize("r", [3, 2], ids=["converges", "stalls"])
def test_dls_solve_poses_each_trial_with_its_jacobian_rows(cfg, r):
    # one (dof + 1)-row residual call per point, [q; q + h e_k]: the start,
    # then each trial, accepted when it lowers the error; so one call per
    # iteration plus one per rejected trial, where the column-by-column
    # oracle also poses dof Jacobian rows per iteration
    j, g, dof, h = 1, 1, 10, 1e-6
    target = cfg.stack_center() if r == 3 else cfg.tile_center(3)
    models = sc.ScenarioModels(cfg)
    residual = models._reach_residual(j, g, r, target)
    rows = row_by_row_residual(models, j, g, r, target)
    args = (np.zeros(10), -sc.JOINT_LIMIT * np.ones(10),
            sc.JOINT_LIMIT * np.ones(10))
    calls, oracle_calls = [], []

    def run(solve, fn):
        try:
            solve(fn, *args, tol=0.5 * sc.REACH_TOL)
        except IkNotConverged:
            pass

    run(sc.dls_solve, lambda Q: calls.append(np.array(Q)) or residual(Q))
    run(column_by_column_dls_solve,
        lambda q: oracle_calls.append(1) or rows(q[None])[0])
    for Q in calls:
        assert Q.shape == (dof + 1, dof)
        steps = np.repeat(Q[:1], dof, axis=0)
        steps[np.arange(dof), np.arange(dof)] += h
        assert Q[1:].tobytes() == steps.tobytes()
    errors = [float(np.linalg.norm(residual(Q[:1])[0])) for Q in calls]
    accepted = rejected = 0
    en = errors[0]
    for e in errors[1:]:
        if e < en:
            accepted, en = accepted + 1, e
        else:
            rejected += 1
    assert accepted > 0
    assert len(calls) == 1 + accepted + rejected
    assert len(oracle_calls) == len(calls) + dof * accepted


def test_one_link_poses_call_per_residual_and_mass_matrix(cfg, monkeypatch):
    # a residual of any stack height poses both arms' rows in one call, and
    # a mass-matrix miss poses all three arms in one; a memo hit poses none
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].shape)
        return link_poses(*args, **kwargs)

    monkeypatch.setattr(sc, "link_poses", counted)
    models = sc.ScenarioModels(cfg)
    residual = models._reach_residual(1, 1, 3, cfg.stack_center())
    for k in (1, 2, 10):
        calls.clear()
        residual(make_rng(k).uniform(-3.0, 3.0, (k, 10)))
        assert calls == [(2 * k, 5)]
    for state, qs in mission_states(4, 31):
        calls.clear()
        models.robot_mass_matrix(state, qs)
        assert calls == [(3, 5)]
        models.robot_mass_matrix(state, qs)
        assert calls == [(3, 5)]


def test_target_just_inside_reach_bound_solves(cfg):
    # 1e-3 m inside the rim, on the line from the anchor to the diagonal tile
    models = sc.ScenarioModels(cfg)
    m, anchor, bound = models._reach_bound(1, 2)
    origin = cfg.tile_center(1) + anchor
    ray = cfg.tile_center(3) - origin
    target = origin + (bound - 1e-3) * ray / np.linalg.norm(ray)
    st = sc.AssemblyState(3, 1, 1, 0)
    qg, qr = models.solve_reach(st, 2, target)
    tip = _tip(models, st, (qg, qr, sc.HOME_JOINTS), 2)
    assert np.linalg.norm(tip - target) < sc.REACH_TOL


axis_vectors = hnp.arrays(np.float64, 3, elements=hst.floats(-1.0, 1.0)).filter(
    lambda v: np.linalg.norm(v) > 0.1)


@settings(max_examples=60, deadline=None)
@given(axes=hst.lists(axis_vectors, min_size=5, max_size=5),
       yaw_link1=hst.booleans(),
       q=hnp.arrays(np.float64, 15, elements=hst.floats(-6.28, 6.28)),
       pair=hst.sampled_from([(1, 2), (2, 1), (1, 3), (2, 3)]))
def test_reach_bound_holds_for_random_geometry(cfg, axes, yaw_link1, q, pair):
    geom = cfg.arm_geometry
    offsets = np.array(geom.joint_offsets)
    axes = np.array(axes)
    if yaw_link1:
        # keep J2 fixed: link 1's offset along the first axis
        axes[0] /= np.linalg.norm(axes[0])
        offsets[1] = 0.1 * axes[0]
    geom = replace(geom, joint_offsets=offsets, joint_axes=axes)
    models = sc.ScenarioModels(replace(cfg, arm_geometry=geom))
    g, r = pair
    m, anchor, bound = models._reach_bound(g, r)
    assert m >= 2 or not yaw_link1
    qs = (q[:5], q[5:10], q[10:])
    joints, _ = link_poses(geom, qs[g - 1], base="J0")
    assert np.allclose(joints[m], anchor, rtol=0.0, atol=1e-12)
    tip = _tip(models, sc.AssemblyState(4, 2, g, 0), qs, r)
    assert np.linalg.norm(tip - cfg.tile_center(2) - anchor) <= bound + 1e-12


def test_tilted_link1_anchors_at_j1_and_runs_the_ladder(cfg, monkeypatch):
    geom = cfg.arm_geometry
    offsets = np.array(geom.joint_offsets)
    offsets[1] = 0.1 * np.array([np.sin(0.01), 0.0, np.cos(0.01)])
    models = sc.ScenarioModels(replace(cfg, arm_geometry=replace(
        geom, joint_offsets=offsets)))
    m, anchor, bound = models._reach_bound(1, 2)
    assert m == 1
    assert np.array_equal(anchor, offsets[0])
    assert bound == pytest.approx(1.3974056 + 0.1, abs=1e-7)
    # the diagonal is inside this looser bound: no certificate, DLS runs
    calls = []

    def fail(*args, **kwargs):
        calls.append(1)
        raise IkNotConverged("stalled", 0.03)

    monkeypatch.setattr(sc, "dls_solve", fail)
    with pytest.raises(IkNotConverged) as exc:
        models.solve_reach(sc.AssemblyState(3, 1, 1, 0), 2, cfg.tile_center(3))
    assert type(exc.value) is IkNotConverged
    assert len(calls) == 7


def test_seed_ladder_failure_inside_bound_is_a_seed_artifact(cfg, monkeypatch):
    models = sc.ScenarioModels(cfg)
    errors = iter([0.4, 0.02, 0.3, 0.5, 0.6, 0.7, 0.8])
    calls = []

    def fail(*args, **kwargs):
        calls.append(1)
        raise IkNotConverged("stalled", next(errors))

    monkeypatch.setattr(sc, "dls_solve", fail)
    with pytest.raises(IkNotConverged) as exc:
        models.solve_reach(sc.AssemblyState(1, 1, 1, 0), 3, cfg.stack_center())
    _, _, bound = models._reach_bound(1, 3)
    msg = str(exc.value)
    assert type(exc.value) is IkNotConverged
    assert len(calls) == 7
    assert "seed artifact" in msg
    assert f"{bound:.6f} m reach bound" in msg
    assert "2.000e-02" in msg
    assert exc.value.task_error == 0.02


def desk_scenario():
    from flexasm import data_path
    from flexasm.cli import load_scenario

    return load_scenario(data_path("scenario_desk.yaml"))[0]


@pytest.mark.parametrize("scenario, count, failures", [
    (desk_scenario, 28, 4), (lambda: sc.table_scenario(8), 88, 20)],
    ids=["desk", "table-8"])
def test_desk_straddle_failures_are_all_certified(monkeypatch, scenario, count, failures):
    # every reach problem of a plan: on the desk layout the assembly-n4
    # benchmark prices, and at N = 8, whose graphs cover every node of both
    # arms; each failure is certified by the bound, with no descent at all
    from flexasm.pathopt import build_node_graphs

    cfg = scenario()
    models = sc.ScenarioModels(cfg)
    problems = {}
    for n in range(1, cfg.n_tiles):
        for graph in build_node_graphs(cfg, n):
            for i, k in graph.edges():
                (tile, arm), dst = graph.nodes[i], graph.nodes[k]
                if dst == "stack":
                    reach, target = 3, cfg.stack_center()
                elif dst == "target":
                    reach, target = 3, cfg.tile_center(n + 1)
                else:
                    reach, target = dst[1], cfg.tile_center(dst[0])
                problems[(tile, arm, reach, target.tobytes())] = (n, target)
    calls = []
    solve = sc.dls_solve
    monkeypatch.setattr(sc, "dls_solve",
                        lambda *a, **k: calls.append(1) or solve(*a, **k))
    failed = 0
    for (tile, arm, reach, _), (n, target) in problems.items():
        before = len(calls)
        try:
            models.solve_reach(sc.AssemblyState(n, tile, arm, 0), reach, target)
        except IkNotConverged as exc:
            assert type(exc) is IkUnreachable
            assert len(calls) == before
            failed += 1
    assert (len(problems), failed) == (count, failures)
    assert len(calls) == len(problems) - failed


def test_worst_case_gains_stabilize_family_at_desk_scale():
    # one controller, sized on the heaviest configuration, must keep the
    # rigid approximation of all 2 N (N + 1) states stable at N = 6
    cfg = sc.table_scenario(6)
    models = sc.ScenarioModels(cfg)
    K = models.design_gains()
    worst = -np.inf
    for st in sc.enumerate_model_family(6):
        cl = rigid_loop(models, st, K)
        worst = max(worst, linss.spectral_abscissa(cl))
    assert worst < -1e-6
