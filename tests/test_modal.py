"""Lattice generation, clamped-free modes, reduction, body files."""

import re

import numpy as np
import pytest
import scipy.linalg
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import flexasm
from flexasm import modal
from flexasm import multibody as mb
from flexasm import scenario as sc
from flexasm.errors import (
    DisconnectedLayout,
    EigenFailure,
    LayoutError,
    SchemaError,
    UnitError,
    UnknownPoint,
)

import tabledata as td
from conftest import max_response_deviation


# ---------------------------------------------------------------------------
# layouts
# ---------------------------------------------------------------------------

@given(st.integers(1, 40), st.integers(1, 4))
@settings(max_examples=30)
def test_default_layout_growth_chain(n, width):
    lay = modal.default_layout(n, width)
    assert len(lay) == n  # constructor re-validates the chain


def test_layout_rejects_detached_growth():
    with pytest.raises(LayoutError):
        modal.TileLayout([(0, 0), (2, 2)])
    with pytest.raises(LayoutError):
        modal.TileLayout([(0, 0), (0, 0)])


@pytest.mark.parametrize("cell", [(0, 1.5), (0, 0.9), (0, True), (1.0, 0), (0, "1")],
                         ids=str)
def test_layout_rejects_non_integer_coordinates(cell):
    # int() would plan the tile on a cell nobody wrote: (0, 1.5) on (0, 1)
    with pytest.raises(TypeError, match=re.escape(f"layout cell {cell!r} (tile 2)")):
        modal.TileLayout([(0, 0), cell])
    assert modal.TileLayout([(0, 0), (np.int64(0), np.int64(1))]).cells == ((0, 0), (0, 1))


def test_layout_centers():
    lay = modal.TileLayout([(0, 0), (0, 1)])
    assert np.allclose(lay.center(1), [0.5, 0.5, 0.0])
    assert np.allclose(lay.center(2), [1.5, 0.5, 0.0])


# ---------------------------------------------------------------------------
# lattice assembly
# ---------------------------------------------------------------------------

def test_single_tile_lattice_mass():
    m = modal.build_lattice(modal.TileLayout([(0, 0)]))
    free = m.free_dofs
    Mff = m.M[np.ix_(free, free)]
    assert np.allclose(Mff[0:3, 0:3], modal.DEFAULT_TILE_MASS * np.eye(3))
    assert np.allclose(Mff[3:6, 3:6], modal.DEFAULT_TILE_INERTIA)


def test_two_tile_lattice_rank_after_clamping():
    m = modal.build_lattice(modal.TileLayout([(0, 0), (0, 1)]))
    free = m.free_dofs
    assert free.size == 12
    Kff = m.K[np.ix_(free, free)]
    assert np.linalg.matrix_rank(Kff, tol=1e-6) == 12
    assert np.allclose(Kff, Kff.T)


def test_lattice_total_mass_exact():
    lay = modal.default_layout(7)
    m = modal.build_lattice(lay, tile_mass=2.5)
    assert np.trace(m.M[np.ix_(m.free_dofs, m.free_dofs)][0::6, 0::6]) == pytest.approx(
        7 * 2.5)


def test_disconnected_layout_rejected():
    lay = modal.TileLayout([(0, 0), (3, 3)], ordered=False)
    with pytest.raises(DisconnectedLayout):
        modal.build_lattice(lay)


def test_layout_away_from_clamp_rejected():
    lay = modal.TileLayout([(5, 5), (5, 6)], ordered=False)
    with pytest.raises(DisconnectedLayout):
        modal.build_lattice(lay)


# ---------------------------------------------------------------------------
# clamped-free modes
# ---------------------------------------------------------------------------

def synthetic_model(M, K):
    n = M.shape[0]
    return modal.LatticeModel(np.zeros((n, 3)), M, K, (), {})


def test_modes_two_mass_chain_analytic():
    # wall -k- m -k- m: omega^2 = (k/m) * (3 -+ sqrt(5)) / 2
    k, m = 7.0, 3.0
    K = np.array([[2 * k, -k], [-k, k]])
    M = m * np.eye(2)
    w, phi = modal.clamped_free_modes(synthetic_model(M, K), 2)
    expected = np.sqrt(k / m * (3 - np.sqrt(5)) / 2), np.sqrt(k / m * (3 + np.sqrt(5)) / 2)
    assert w == pytest.approx(expected, rel=1e-12)
    assert np.allclose(phi.T @ M @ phi, np.eye(2), atol=1e-12)


def test_modes_single_mass():
    w, _ = modal.clamped_free_modes(synthetic_model(np.array([[2.0]]),
                                                    np.array([[8.0]])), 1)
    assert w[0] == pytest.approx(2.0)


def test_modes_request_too_many():
    with pytest.raises(EigenFailure):
        modal.clamped_free_modes(synthetic_model(np.eye(2), np.eye(2)), 3)


def test_modes_singular_mass_is_eigen_failure():
    # a massless dof has no Cholesky factor
    with pytest.raises(EigenFailure):
        modal.clamped_free_modes(synthetic_model(np.diag([1.0, 0.0]), np.eye(2)), 1)


def _table_lattice(layout, tile_inertia=None):
    table = sc.table_scenario(len(layout))
    return modal.build_lattice(
        layout, table.tile.mass,
        table.tile.inertia_G if tile_inertia is None else tile_inertia,
        table.stiffness)


_FULL_INERTIA = np.array([[0.5041, 0.03, -0.02],
                          [0.03, 0.5041, 0.05],
                          [-0.02, 0.05, 1.0071]])


@pytest.mark.parametrize("n, n_modes, tile_inertia", [
    (1, 6, None), (2, 12, None), (3, 18, None), (4, 24, None),
    (28, 24, None),
    # the one case whose mass matrix, and so its Cholesky factor, is not
    # diagonal
    (4, 24, _FULL_INERTIA),
], ids=["desk1", "desk2", "desk3", "desk4", "table28", "full-inertia"])
def test_modes_match_generalized_eigensolver(n, n_modes, tile_inertia):
    model = _table_lattice(modal.default_layout(n), tile_inertia)
    free = model.free_dofs
    Kff = model.K[np.ix_(free, free)]
    Mff = model.M[np.ix_(free, free)]
    assert (np.count_nonzero(Mff - np.diag(np.diag(Mff))) > 0) == (tile_inertia is not None)
    w, phi = modal.clamped_free_modes(model, n_modes)
    vals, vecs = scipy.linalg.eigh(Kff, Mff, subset_by_index=[0, n_modes - 1])
    assert w == pytest.approx(np.sqrt(vals), rel=1e-10, abs=0.0)
    assert np.max(np.abs(phi.T @ Mff @ phi - np.eye(n_modes))) < 1e-12
    # each shape is scipy's, up to one sign per mode
    sign = np.sign(np.sum(phi * vecs, axis=0))
    assert np.max(np.abs(phi * sign - vecs)) < 1e-9 * np.max(np.abs(vecs))


def test_modes_ascending_positive():
    m = modal.build_lattice(modal.default_layout(5))
    w, _ = modal.clamped_free_modes(m, 10)
    assert np.all(w > 0)
    assert np.all(np.diff(w) >= -1e-12)


def test_default_stiffness_calibration():
    m = modal.build_lattice(modal.default_layout(26))
    w, _ = modal.clamped_free_modes(m, 1)
    assert w[0] / (2 * np.pi) == pytest.approx(0.912, rel=1e-3)


# ---------------------------------------------------------------------------
# modal reduction
# ---------------------------------------------------------------------------

def test_reduce_single_tile_rigid_block():
    m = modal.build_lattice(modal.TileLayout([(0, 0)]))
    data = modal.modal_reduce(m, 1, 0, modal.DEFAULT_DAMPING)
    assert data.n_modes == 0
    assert data.mass == pytest.approx(6.0423)
    assert np.allclose(data.com, [0.5, 0.5, 0.0])
    assert np.allclose(data.inertia_P,
                       mb.transport_inertia(modal.DEFAULT_TILE_INERTIA,
                                            data.mass, data.com))


def test_reduce_mass_completeness_with_all_modes():
    lay = modal.default_layout(4)
    m = modal.build_lattice(lay)
    data = modal.modal_reduce(m, 3, 24, modal.DEFAULT_DAMPING)
    D_P = mb.d_p_matrix(data)
    assert np.max(np.abs(data.L_P.T @ data.L_P - D_P)) < 1e-8 * np.max(np.abs(D_P))
    # truncation keeps the residual positive semidefinite
    trunc = modal.modal_reduce(m, 3, 6, modal.DEFAULT_DAMPING)
    ev = np.linalg.eigvalsh(mb.residual_mass(trunc))
    assert ev.min() > -1e-10 * max(1.0, ev.max())


def test_reduce_unknown_tile():
    m = modal.build_lattice(modal.TileLayout([(0, 0)]))
    with pytest.raises(UnknownPoint):
        modal.modal_reduce(m, 9, 0, modal.DEFAULT_DAMPING)


def test_reduce_stiff_limit_matches_rigid_two_port():
    lay = modal.TileLayout([(0, 0), (0, 1)])
    stiff = modal.LatticeStiffness(
        k_trans=modal.DEFAULT_K_TRANS * 1e6,
        k_rot=0.25 * modal.DEFAULT_K_TRANS * 1e6)
    m = modal.build_lattice(lay, stiffness=stiff)
    data = modal.modal_reduce(m, 2, 12, modal.DEFAULT_DAMPING)
    flex = mb.titop_two_port(data)

    # composite rigid body clamped at the same port
    mass, com, J = mb.compose_rigid([
        (modal.DEFAULT_TILE_MASS, lay.center(1), modal.DEFAULT_TILE_INERTIA, None),
        (modal.DEFAULT_TILE_MASS, lay.center(2), modal.DEFAULT_TILE_INERTIA, None)])
    rigid_data = mb.ModalBodyData(
        mass=mass, com=com, inertia_P=mb.transport_inertia(J, mass, com),
        freqs=[], dampings=[], L_P=np.zeros((0, 6)),
        phi_C=np.zeros((6, 0)), pc=lay.center(2), name="rigid")
    rigid = mb.titop_two_port(rigid_data)

    grid = [1e-2, 0.1, 1.0]
    for pair in [("xdd_C", "W_C"), ("W_P", "xdd_P"), ("xdd_C", "xdd_P")]:
        dev = max_response_deviation(flex, rigid, grid, pair, pair)
        scale = max(1.0, np.max(np.abs(mb.d_p_matrix(rigid_data))))
        assert dev / scale < 1e-4, pair


# ---------------------------------------------------------------------------
# body files
# ---------------------------------------------------------------------------

def test_load_solar_array_fixture():
    path = flexasm.data_path("solar_array.yaml")
    data = modal.load_body_file(path)
    assert data.mass == pytest.approx(td.ARRAY_MASS)
    assert data.n_modes == 2
    assert np.allclose(data.freqs, 2 * np.pi * td.ARRAY_FREQS_HZ)
    assert np.allclose(data.L_P, td.ARRAY_L_FULL[list(td.ARRAY_MODE_ROWS), :])
    assert np.allclose(data.com, td.ARRAY_COM)
    assert np.allclose(data.inertia_P,
                       mb.transport_inertia(td.ARRAY_J_COM, td.ARRAY_MASS, td.ARRAY_COM))
    # raw fixture keeps the full six-row published block
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    assert len(raw["participation"]) == 6
    assert len(raw["participation"][0]) == 6


def test_load_f1_and_f26_fixtures():
    f1 = modal.load_body_file(flexasm.data_path("structure_f1.yaml"))
    assert f1.mass == pytest.approx(td.F1_MASS)
    assert np.allclose(f1.freqs / (2 * np.pi), td.F1_FREQS_HZ)
    assert np.allclose(f1.phi_C, td.F1_PHI)
    assert np.allclose(f1.inertia_P, td.F1_J_P2)

    f26 = modal.load_body_file(flexasm.data_path("structure_f26.yaml"))
    assert np.allclose(f26.freqs / (2 * np.pi), [0.9120, 2.1, 2.99])
    assert np.allclose(f26.L_P, td.F26_L)
    ev = np.linalg.eigvalsh(mb.residual_mass(f26))
    assert ev.min() > -1e-10 * max(1.0, ev.max())


def test_body_file_zero_damping_rejected(tmp_path):
    doc = {
        "name": "bad", "mass_kg": 1.0,
        "inertia_kgm2": [[1.0, 0.0, 0.0], [1.0, 0.0], [1.0]],
        "freqs_hz": [1.0], "dampings": [0.0],
        "participation": [[0.1, 0, 0, 0, 0, 0]],
    }
    p = tmp_path / "bad.yaml"
    p.write_text(yaml.safe_dump(doc))
    with pytest.raises(SchemaError):
        modal.load_body_file(p)


def test_body_file_unit_suffix_enforced(tmp_path):
    doc = {
        "name": "bad", "mass": 1.0,
        "inertia_kgm2": [[1.0, 0.0, 0.0], [1.0, 0.0], [1.0]],
    }
    p = tmp_path / "bad.yaml"
    p.write_text(yaml.safe_dump(doc))
    with pytest.raises(UnitError):
        modal.load_body_file(p)
    doc2 = {"name": "bad", "mass_kg": 1.0,
            "inertia_kgm2": [[1.0, 0.0, 0.0], [1.0, 0.0], [1.0]],
            "freqs": [1.0]}
    p.write_text(yaml.safe_dump(doc2))
    with pytest.raises(UnitError):
        modal.load_body_file(p)


def test_body_file_poi_convention_matches_geometry():
    # the F1 fixture's PoI entries must reproduce the single-tile transport
    f1 = modal.load_body_file(flexasm.data_path("structure_f1.yaml"))
    J_expected = mb.transport_inertia(td.TILE_J, td.TILE_MASS, [0.5, 0.5, 0.0])
    assert np.allclose(f1.inertia_P, J_expected, atol=2e-4)
