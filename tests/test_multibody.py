"""Kinematic transport, rigid n-ports, DCMs, TITOP models, mode LFR."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexasm import linss, multibody as mb
from flexasm.errors import (
    AlphaOutOfRange,
    InvalidModalData,
    InvalidMode,
    UnknownPort,
    WidthMismatch,
)

import tabledata as td
from conftest import make_rng, max_response_deviation
from wired import rigid_nport_inverted, titop_one_port

vec3 = st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3)


# ---------------------------------------------------------------------------
# skew / tau
# ---------------------------------------------------------------------------

@given(vec3)
def test_skew_antisymmetric(v):
    S = mb.skew(v)
    assert np.allclose(S.T, -S)
    assert np.allclose(S @ np.array([1.0, 0, 0]), np.cross(v, [1.0, 0, 0]))


def test_tau_identity_and_unit_offset():
    assert np.allclose(mb.tau_kinematic([0, 0, 0]), np.eye(6))
    t = mb.tau_kinematic([1.0, 0.0, 0.0])
    assert np.allclose(t[0:3, 3:6], [[0, 0, 0], [0, 0, -1], [0, 1, 0]])
    assert np.linalg.det(t) == pytest.approx(1.0)


@given(vec3, vec3)
@settings(max_examples=25)
def test_tau_composition_and_inverse(pb, qp):
    pb, qp = np.array(pb), np.array(qp)
    lhs = mb.tau_kinematic(pb) @ mb.tau_kinematic(qp)
    assert np.allclose(lhs, mb.tau_kinematic(pb + qp))
    assert np.allclose(mb.tau_kinematic(pb) @ mb.tau_kinematic(-pb), np.eye(6))


def test_tau_transports_wrenches():
    # unit x force at P, expressed at B = P + [0, 2, 0]: moment arm B->P is
    # -2y, so the torque about B is (-2y) x (x) = +2z
    t = mb.tau_kinematic([0.0, 2.0, 0.0])
    w_at_B = t.T @ np.array([1.0, 0, 0, 0, 0, 0])
    assert np.allclose(w_at_B, [1, 0, 0, 0, 0, 2.0])


# ---------------------------------------------------------------------------
# rigid n-ports
# ---------------------------------------------------------------------------

def test_rigid_nport_tile_translation():
    sys = mb.rigid_nport(td.tile_body(), [])
    acc = sys.D @ np.array([1.0, 0, 0, 0, 0, 0])
    assert acc[0] == pytest.approx(1.0 / 6.0423, rel=1e-12)
    assert acc[0] == pytest.approx(0.16550, abs=5e-6)


def test_rigid_nport_diagonal_inertia_torque():
    body = mb.RigidBodyData(1.0, np.diag([1.0, 1.5, 2.0]), {})
    sys = mb.rigid_nport(body, [])
    acc = sys.D @ np.array([0, 0, 0, 0, 0, 1.0])
    assert acc[5] == pytest.approx(0.5)


def test_rigid_nport_cross_port_formula():
    rng = make_rng(2)
    body = mb.RigidBodyData(
        7.0, np.diag([2.0, 3.0, 4.0]),
        {"P1": rng.standard_normal(3), "P2": rng.standard_normal(3)})
    sys = mb.rigid_nport(body, ["P1", "P2"])
    W = rng.standard_normal(6)
    u = np.zeros(18)
    u[0:6] = W
    acc_p2 = (sys.D @ u)[6:12]
    t1 = mb.tau_kinematic(-body.offset("P1"))
    t2 = mb.tau_kinematic(-body.offset("P2"))
    expected = t2 @ np.linalg.solve(mb.rigid_mass_matrix(body), t1.T @ W)
    assert np.allclose(acc_p2, expected, atol=1e-12)
    # symmetric PSD map
    assert np.allclose(sys.D, sys.D.T)
    assert np.min(np.linalg.eigvalsh(sys.D)) > -1e-12


def test_rigid_nport_unknown_port():
    with pytest.raises(UnknownPort):
        mb.rigid_nport(td.tile_body(), ["nope"])


def test_rigid_inverted_pure_direct_model():
    body = td.hub_body()
    sys = rigid_nport_inverted(body, "G", other_ports=(), with_com_port=False)
    assert np.allclose(sys.D, -mb.rigid_mass_matrix(body))


def test_rigid_inverted_matches_channel_inversion():
    rng = make_rng(8)
    body = mb.RigidBodyData(
        5.0, np.diag([1.0, 2.0, 2.5]),
        {"P1": rng.standard_normal(3), "P2": rng.standard_normal(3)})
    direct = mb.rigid_nport(body, ["P1", "P2"])
    inverted = rigid_nport_inverted(body, "P1", ["P2"])
    via_inversion = linss.invert_channels(direct, ["W_P1"], ["xdd_P1"])
    # the inverted n-port returns the body-on-appendage wrench (reaction),
    # so its W_P1 output row is the negative of the channel-inverted model;
    # every other block agrees exactly
    for out_name, in_name, sign in [("W_P1", "xdd_P1", -1.0),
                                    ("W_P1", "W_P2", -1.0),
                                    ("W_P1", "W_G", -1.0),
                                    ("xdd_P2", "W_P2", 1.0),
                                    ("xdd_G", "W_G", 1.0),
                                    ("xdd_P2", "xdd_P1", 1.0)]:
        a = inverted.D[inverted.out_slice(out_name), :][:, inverted.in_slice(in_name)]
        b = via_inversion.D[via_inversion.out_slice(out_name), :][:, via_inversion.in_slice(in_name)]
        assert np.allclose(a, sign * b, atol=1e-9), (out_name, in_name)


def test_rigid_inverted_acceleration_transport():
    # zero imposed twist: port-2 acceleration stays zero under any wrench;
    # nonzero imposed twist transports rigidly
    body = td.hub_body()
    sys = rigid_nport_inverted(body, "P1", ["P2"])
    u = np.zeros(18)
    u[0:6] = np.array([0.1, -0.2, 0.3, 0.01, 0.02, -0.03])
    acc2 = (sys.D @ u)[sys.out_slice("xdd_P2")]
    expected = mb.tau_kinematic(td.GP1 - td.GP2) @ u[0:6]
    assert np.allclose(acc2, expected)
    u2 = np.zeros(18)
    u2[6:12] = 5.0
    assert np.allclose((sys.D @ u2)[sys.out_slice("xdd_P2")], 0.0)


# ---------------------------------------------------------------------------
# DCMs and frames
# ---------------------------------------------------------------------------

def test_dcm_zero_angle():
    d = mb.dcm_about_axis((0.0, 0.0, 1.0), 0.0)
    assert np.allclose(d, np.eye(3))


def test_dcm_quarter_turn():
    d = mb.dcm_about_axis((0.0, 0.0, 1.0), np.pi / 2)
    assert np.allclose(d, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)


def test_dcm_compose_inverse():
    a = mb.dcm_about_axis((0.0, 1.0, 0.0), np.pi / 3)
    b = mb.dcm_about_axis((0.0, 1.0, 0.0), -np.pi / 3)
    assert np.allclose(a @ b, np.eye(3), atol=1e-12)


def test_dcm_alpha_out_of_range():
    with pytest.raises(AlphaOutOfRange):
        mb.dcm_about_axis((1.0, 0.0, 0.0), 2.0 * np.pi + 0.1)


@pytest.mark.parametrize("axis", [(0.0, 0.0, 0.0), (np.nan, 0.0, 1.0)],
                         ids=["zero", "nan"])
def test_dcm_rejects_degenerate_axis(axis):
    with pytest.raises(ValueError, match="axis"):
        mb.dcm_about_axis(axis, 0.5)


def test_apply_frame_identity_and_rotation():
    eye6 = linss.gain(np.eye(6), (("W", 6),), (("y", 6),))
    same = mb.apply_frame(eye6, "y", mb.dcm_about_axis((0.0, 0.0, 1.0), 0.0))
    assert np.allclose(same.D, np.eye(6))
    rot = mb.apply_frame(eye6, "y", mb.dcm_about_axis((0.0, 0.0, 1.0), np.pi / 2))
    out = rot.D @ np.array([1.0, 0, 0, 0, 0, 0])
    assert np.allclose(out, [0, 1, 0, 0, 0, 0], atol=1e-12)


def test_apply_frame_roundtrip():
    rng = make_rng(4)
    sys = linss.StateSpace(
        -np.eye(2), rng.standard_normal((2, 6)), rng.standard_normal((6, 2)),
        rng.standard_normal((6, 6)), (("u", 6),), (("y", 6),))
    d = mb.dcm_about_axis(rng.standard_normal(3), 1.1)
    back = mb.apply_frame(mb.apply_frame(sys, "y", d), "y", d.T)
    assert max_response_deviation(sys, back, [0.1, 1.0, 10.0]) < 1e-12


def test_apply_frame_width_check():
    g = linss.gain(np.eye(3), (("u", 3),), (("y", 3),))
    with pytest.raises(WidthMismatch):
        mb.apply_frame(g, "y", mb.dcm_about_axis((0.0, 0.0, 1.0), 0.3))


@pytest.mark.parametrize("R, message", [
    (np.full((3, 3), np.nan), "orthonormal"),
    (np.diag([1.0, 1.0, -1.0]), "determinant"),
    (1.001 * np.eye(3), "orthonormal"),
], ids=["nan", "reflection", "not-orthonormal"])
def test_apply_frame_rejects_a_matrix_that_is_not_a_rotation(R, message):
    eye6 = linss.gain(np.eye(6), (("W", 6),), (("y", 6),))
    with pytest.raises(ValueError, match=message):
        mb.apply_frame(eye6, "y", R)


# ---------------------------------------------------------------------------
# TITOP models
# ---------------------------------------------------------------------------

def rigid_two_port_data(body: mb.RigidBodyData, com, pc):
    J_P = mb.transport_inertia(body.inertia_G, body.mass, com)
    return mb.ModalBodyData(
        mass=body.mass, com=com, inertia_P=J_P, freqs=[], dampings=[],
        L_P=np.zeros((0, 6)), phi_C=np.zeros((6, 0)), pc=pc, name="rigid2p")


def test_titop_zero_modes_is_rigid_transmission():
    com = np.array([0.3, -0.2, 0.1])
    pc = np.array([1.0, 0.5, 0.0])
    data = rigid_two_port_data(td.tile_body(), com, pc)
    sys = mb.titop_two_port(data)
    assert sys.n_states == 0
    tau = mb.tau_kinematic(-pc)
    D = sys.D
    assert np.allclose(D[sys.out_slice("xdd_C"), :][:, sys.in_slice("xdd_P")], tau)
    assert np.allclose(D[sys.out_slice("xdd_C"), :][:, sys.in_slice("W_C")], 0.0)
    assert np.allclose(D[sys.out_slice("W_P"), :][:, sys.in_slice("W_C")], tau.T)
    assert np.allclose(D[sys.out_slice("W_P"), :][:, sys.in_slice("xdd_P")],
                       -mb.d_p_matrix(data))


def test_titop_feedthrough_is_minus_residual_mass():
    data = td.solar_array_data()
    sys = titop_one_port(data)
    assert np.allclose(sys.D, -mb.residual_mass(data), atol=1e-12)
    # steady base acceleration drags the whole body: static gain is -D_P
    assert np.allclose(sys.dc_gain(), -mb.d_p_matrix(data), atol=1e-9)


def test_two_port_p_block_is_the_written_out_body():
    # titop_two_port extends the library's P block with the C port: its
    # xdd_P -> W_P channels are the body written out from its modal equations
    data = td.f1_data()
    two = mb.titop_two_port(data).subsystem(["W_P"], ["xdd_P"])
    ref = titop_one_port(data)
    for m in "ABCD":
        assert np.array_equal(getattr(two, m), getattr(ref, m)), m


def test_titop_d_block_symmetry_pattern():
    data = td.f1_data()
    sys = mb.titop_two_port(data)
    D = sys.D
    assert np.max(np.abs(D - D.T)) < 1e-12
    assert np.allclose(D[0:6, 0:6], data.phi_C @ data.phi_C.T)


def test_titop_poles_at_clamped_frequencies():
    data = td.f1_data()
    sys = mb.titop_two_port(data)
    eigs = np.sort_complex(np.linalg.eigvals(sys.A))
    om = data.freqs
    xi = data.dampings
    expected = np.sort_complex(np.concatenate([
        -xi * om + 1j * om * np.sqrt(1 - xi ** 2),
        -xi * om - 1j * om * np.sqrt(1 - xi ** 2)]))
    assert np.allclose(eigs, expected, rtol=1e-9)


def test_titop_clamped_static_compliance():
    # steady child wrench on the clamped body: zero acceleration at C and a
    # deflection given by the modal compliance phi diag(1/w^2) phi^T
    data = td.f1_data()
    sys = mb.titop_two_port(data).subsystem(outputs=["xdd_C"], inputs=["W_C"])
    assert np.allclose(sys.dc_gain(), 0.0, atol=1e-10)
    # probe well below the first mode (193 rad/s); tiny s would amplify the
    # float cancellation behind the exact-zero DC gain
    s = 0.5
    compliance = sys.transfer_at(1j * s) / (1j * s) ** 2
    expected = data.phi_C @ np.diag(1.0 / data.freqs ** 2) @ data.phi_C.T
    assert np.allclose(compliance.real, expected, rtol=1e-4, atol=1e-10)


def test_titop_residual_mass_warning_for_truncated_data():
    # the published F1 modes capture more than the body's mass, an
    # indefinite residual that validate warns about; the solar array's 2
    # retained modes of 6 leave it positive semidefinite
    ev = np.linalg.eigvalsh(mb.residual_mass(td.f1_data()))
    assert ev.min() < -1e-10 * max(1.0, ev.max())
    ev = np.linalg.eigvalsh(mb.residual_mass(td.solar_array_data()))
    assert ev.min() > -1e-10 * max(1.0, ev.max())


def test_modal_data_invariants():
    with pytest.raises(InvalidModalData):
        mb.ModalBodyData(1.0, np.zeros(3), np.eye(3), [1.0], [0.0],
                         np.zeros((1, 6)))
    with pytest.raises(InvalidModalData):
        mb.ModalBodyData(1.0, np.zeros(3), np.eye(3), [-2.0], [0.1],
                         np.zeros((1, 6)))


@pytest.mark.parametrize("fields", [
    {"L_P": np.zeros((2, 6))}, {"L_P": np.zeros((6, 1))}, {"L_P": np.zeros(6)},
    {"phi_C": np.zeros((1, 6))}, {"phi_C": np.zeros((6, 2))}],
    ids=["L_P-rows", "L_P-transposed", "L_P-flat", "phi_C-transposed", "phi_C-columns"])
def test_modal_data_shapes_are_checked(fields):
    # a block of the wrong shape is refused with a typed error, even when
    # a flat or transposed block holds the right number of values
    args = {"mass": 1.0, "com": np.zeros(3), "inertia_P": np.eye(3), "freqs": [1.0],
            "dampings": [0.1], "L_P": np.zeros((1, 6)), "phi_C": np.zeros((6, 1)),
            "pc": np.zeros(3)}
    with pytest.raises(InvalidModalData, match="L_P must be 1 x 6 and phi_C 6 x 1"):
        mb.ModalBodyData(**{**args, **fields})


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_body_data_rejects_non_finite_values(bad):
    # each check is written so that NaN and inf fail it
    def modal(**fields):
        args = dict(mass=1.0, com=np.zeros(3), inertia_P=np.eye(3), freqs=[1.0],
                    dampings=[0.1], L_P=np.zeros((1, 6)))
        return mb.ModalBodyData(**{**args, **fields})

    modal()
    for fields in ({"freqs": [bad]}, {"dampings": [bad]}, {"mass": bad},
                   {"com": [0.0, 0.0, bad]}, {"inertia_P": np.diag([1.0, 1.0, bad])},
                   {"L_P": [[bad, 0.0, 0.0, 0.0, 0.0, 0.0]]}):
        with pytest.raises(InvalidModalData):
            modal(**fields)
    mb.RigidBodyData(1.0, np.eye(3), {"P": np.zeros(3)})
    for args in ((bad, np.eye(3)), (1.0, np.diag([1.0, 1.0, bad])),
                 (0.0, np.diag([1.0, 1.0, bad])),
                 (1.0, np.eye(3), {"P": [0.0, bad, 0.0]})):
        with pytest.raises(InvalidModalData):
            mb.RigidBodyData(*args)


# ---------------------------------------------------------------------------
# composition of rigid bodies
# ---------------------------------------------------------------------------

def test_two_rigid_bodies_weld_to_composite():
    rng = make_rng(13)
    b1 = mb.RigidBodyData(4.0, np.diag([0.5, 0.6, 0.7]),
                          {"J": np.array([0.4, 0.0, 0.2])})
    b2 = mb.RigidBodyData(2.5, np.diag([0.3, 0.25, 0.35]),
                          {"J": np.array([-0.3, 0.1, 0.0])})
    # weld at the shared port J (no rotation): G2 = G1 + GJ1 - GJ2
    g2_pos = b1.offset("J") - b2.offset("J")
    welded = linss.interconnect(
        [("a", mb.rigid_nport(b1, ["J"])),
         ("b", rigid_nport_inverted(b2, "J", with_com_port=False))],
        [("a.xdd_J", "b.xdd_J"), ("b.W_J", "a.W_J")],
        [("W_G", "a.W_G")], [("xdd_G", "a.xdd_G")])

    m, com, J = mb.compose_rigid([
        (b1.mass, np.zeros(3), b1.inertia_G, None),
        (b2.mass, g2_pos, b2.inertia_G, None)])
    assert m == pytest.approx(6.5)
    comp = mb.RigidBodyData(m, J, {"G1": -com})
    ref = mb.rigid_nport(comp, ["G1"]).subsystem(["xdd_G1"], ["W_G1"])
    assert np.max(np.abs(welded.D - ref.D)) < 1e-8

    # parallel-axis oracle on the composite inertia
    J_manual = (b1.inertia_G + b1.mass * ((com @ com) * np.eye(3) - np.outer(com, com))
                + b2.inertia_G + b2.mass * (((g2_pos - com) @ (g2_pos - com)) * np.eye(3)
                                            - np.outer(g2_pos - com, g2_pos - com)))
    assert np.allclose(J, J_manual, atol=1e-12)


def test_compose_rigid_rotated_parts_match_parallel_axis_loop():
    # random rotations and anisotropic inertias, so a transposed rotation
    # or a misplaced parallel-axis term shows; one stacked entry and one
    # entry per part give the same composite
    rng = make_rng(808)
    k = 7
    masses = rng.uniform(0.5, 5.0, k)
    pos = rng.normal(size=(k, 3))
    rots = np.array([mb.dcm_about_axis(rng.normal(size=3),
                                       rng.uniform(0.3, 2.5))
                     for _ in range(k)])
    inertias = np.array([np.diag(rng.uniform(0.2, 1.0, 3)) for _ in range(k)])
    inertias[:, 0, 1] = inertias[:, 1, 0] = 0.05

    m_ref = masses.sum()
    com_ref = (masses[:, None] * pos).sum(axis=0) / m_ref
    J_ref = np.zeros((3, 3))
    for m, p, R, J in zip(masses, pos, rots, inertias):
        d = p - com_ref
        J_ref += R @ J @ R.T + m * ((d @ d) * np.eye(3) - np.outer(d, d))

    stacked = mb.compose_rigid([(masses, pos, inertias, rots)])
    per_part = mb.compose_rigid(list(zip(masses, pos, inertias, rots)))
    for m, com, J in (stacked, per_part):
        assert m == pytest.approx(m_ref, rel=1e-14)
        assert np.max(np.abs(com - com_ref)) <= 1e-12 * np.max(np.abs(com_ref))
        assert np.max(np.abs(J - J_ref)) <= 1e-12 * np.max(np.abs(J_ref))
        assert np.array_equal(J, J.T)


# ---------------------------------------------------------------------------
# mode frequency LFR
# ---------------------------------------------------------------------------

def shifted_array(delta, r=0.2, mode=0):
    data = td.solar_array_data()
    freqs = np.array(data.freqs)
    freqs[mode] *= 1.0 + r * delta
    return mb.ModalBodyData(data.mass, data.com, data.inertia_P, freqs,
                            data.dampings, data.L_P, name="shifted")


@pytest.mark.parametrize("delta", [-1.0, -0.5, 0.0, 0.5, 1.0])
def test_mode_lfr_closure_matches_shifted_model(delta):
    r = 0.2
    lfr = mb.mode_freq_lfr(td.solar_array_data(), 0, r)
    closed = linss.lft_upper(lfr, delta)
    ref = titop_one_port(shifted_array(delta, r))
    eig_c = np.sort_complex(np.linalg.eigvals(closed.A))
    eig_r = np.sort_complex(np.linalg.eigvals(ref.A))
    assert np.allclose(eig_c, eig_r, rtol=1e-9)
    grid = 2 * np.pi * np.array([0.1, 1.0, 1.285, 3.0, 6.6, 20.0])
    assert max_response_deviation(closed, ref, grid,
                                  ("W_P", "xdd_P"), ("W_P", "xdd_P")) < 1e-8


def test_mode_lfr_frequencies_in_hz():
    r = 0.2
    lfr = mb.mode_freq_lfr(td.solar_array_data(), 0, r)
    for delta, f_hz in [(0.0, 1.2850), (1.0, 1.5420), (-1.0, 1.0280)]:
        closed = linss.lft_upper(lfr, delta)
        eigs = np.linalg.eigvals(closed.A)
        f = np.abs(eigs) / (2 * np.pi)
        assert np.min(np.abs(f - f_hz)) < 1e-9 * max(f_hz, 1.0)


def test_mode_lfr_unit_example():
    # one mode at 1 rad/s, r = 0.2, delta = 1 closes at 1.2 rad/s
    data = mb.ModalBodyData(1.0, np.zeros(3), np.eye(3), [1.0], [0.02],
                            np.array([[0.5, 0, 0, 0, 0, 0]]))
    closed = linss.lft_upper(mb.mode_freq_lfr(data, 0, 0.2), 1.0)
    assert np.max(np.abs(np.linalg.eigvals(closed.A))) == pytest.approx(1.2, rel=1e-12)


def test_mode_lfr_invalid_mode():
    with pytest.raises(InvalidMode):
        mb.mode_freq_lfr(td.solar_array_data(), 5, 0.2)
    with pytest.raises(InvalidMode):
        mb.mode_freq_lfr(td.solar_array_data(), 0, 1.5)
