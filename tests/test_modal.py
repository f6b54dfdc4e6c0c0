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
    ParseError,
    SchemaError,
    UnitError,
)

import tabledata as td
from conftest import max_response_deviation


# ---------------------------------------------------------------------------
# layouts
# ---------------------------------------------------------------------------

def default_lattice(layout):
    """The lattice of ``layout`` with the default tile and stiffness."""
    return modal.build_lattice(layout, modal.DEFAULT_TILE_MASS,
                               modal.DEFAULT_TILE_INERTIA, modal.LatticeStiffness())


@given(st.integers(1, 40))
@settings(max_examples=30)
def test_default_layout_growth_chain(n):
    lay = modal.default_layout(n)
    assert len(lay) == n  # constructor re-validates the chain


CLAMP_CELLS = [(-1, -1), (-1, 0), (0, -1), (0, 0)]
STEPS = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if dr or dc]


@st.composite
def grown_layouts(draw, max_tiles=8):
    """Cells in growth order from a cell touching the clamp: each later
    cell steps to a side or diagonal neighbour of an earlier one."""
    cells = [draw(st.sampled_from(CLAMP_CELLS))]
    for _ in range(draw(st.integers(0, max_tiles - 1))):
        r, c = draw(st.sampled_from(cells))
        dr, dc = draw(st.sampled_from(STEPS))
        if (r + dr, c + dc) not in cells:
            cells.append((r + dr, c + dc))
    return cells


@given(grown_layouts())
@settings(max_examples=40, deadline=None)
def test_every_grown_layout_builds_a_clamped_lattice(cells):
    # growth order from a clamped first cell ties every tile to the clamp,
    # the invariant that spares build_lattice a connectivity search: every
    # free mode has a stiffness well above rounding (a loose tile would
    # leave six modes at rounding level)
    model = default_lattice(modal.TileLayout(cells))
    freqs, _ = modal.clamped_free_modes(model, 6 * len(cells))
    assert freqs[0] > 1e-6 * freqs[-1]


def test_clamp_cells_are_the_tiles_within_a_half_diagonal_of_the_clamp():
    # the ground springs attach by cell what they attached by distance: a
    # tile center within one tile half-diagonal of the clamp point
    for r in range(-4, 5):
        for c in range(-4, 5):
            center = np.array([c + 0.5, r + 0.5, 0.0])
            near = np.linalg.norm(center - modal.CLAMP_POINT) <= np.sqrt(2.0) / 2.0 + 1e-9
            assert modal._touches_clamp((r, c)) == near, (r, c)


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
    m = default_lattice(modal.TileLayout([(0, 0)]))
    free = m.free_dofs
    Mff = m.M[np.ix_(free, free)]
    assert np.allclose(Mff[0:3, 0:3], modal.DEFAULT_TILE_MASS * np.eye(3))
    assert np.allclose(Mff[3:6, 3:6], modal.DEFAULT_TILE_INERTIA)


def test_two_tile_lattice_rank_after_clamping():
    m = default_lattice(modal.TileLayout([(0, 0), (0, 1)]))
    free = m.free_dofs
    assert free.size == 12
    Kff = m.K[np.ix_(free, free)]
    assert np.linalg.matrix_rank(Kff, tol=1e-6) == 12
    assert np.allclose(Kff, Kff.T)


def test_lattice_total_mass_exact():
    lay = modal.default_layout(7)
    m = modal.build_lattice(lay, 2.5, modal.DEFAULT_TILE_INERTIA,
                            modal.LatticeStiffness())
    assert np.trace(m.M[np.ix_(m.free_dofs, m.free_dofs)][0::6, 0::6]) == pytest.approx(
        7 * 2.5)


def test_disconnected_layout_rejected():
    message = "cell (3, 3) (tile 2) touches no earlier tile"
    with pytest.raises(LayoutError, match=re.escape(message)):
        modal.TileLayout([(0, 0), (3, 3)])


def test_layout_away_from_clamp_rejected():
    for cells in ([(5, 5), (5, 6)], [(0, 1), (0, 0)]):
        with pytest.raises(DisconnectedLayout, match=re.escape(
                f"cell {cells[0]} (tile 1) does not touch the clamp corner")):
            modal.TileLayout(cells)


# ---------------------------------------------------------------------------
# clamped-free modes
# ---------------------------------------------------------------------------

def synthetic_model(M, K):
    n = M.shape[0]
    return modal.LatticeModel(np.zeros((n, 3)), M, K, ())


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
    m = default_lattice(modal.default_layout(5))
    w, _ = modal.clamped_free_modes(m, 10)
    assert np.all(w > 0)
    assert np.all(np.diff(w) >= -1e-12)


def test_default_stiffness_calibration():
    m = default_lattice(modal.default_layout(26))
    w, _ = modal.clamped_free_modes(m, 1)
    assert w[0] / (2 * np.pi) == pytest.approx(0.912, rel=1e-3)


def mid_edge_layout_26():
    """The 26 tiles two wide (columns 0 and 1) over rows -6 to 6, grown
    outward from the clamp row by row: the clamp sits at the middle of a
    long edge."""
    cells = [(0, 0), (0, 1)]
    for k in range(1, 7):
        cells += [(-k, 0), (-k, 1), (k, 0), (k, 1)]
    return modal.TileLayout(cells)


def test_generated_26_tile_structure_against_the_published_one():
    # the published structure is clamped at the middle of a long edge:
    # that layout reproduces its whole inertia about P, where the default
    # serpentine, clamped at a corner, matches only the mass and the
    # calibrated first mode.  Frequencies are recorded, not gated: with
    # the default stiffness the mid-edge layout's modes sit at 2.93, 3.03
    # and 4.95 Hz against the published 0.912, 2.1 and 2.99 Hz
    published = modal.load_body_file(flexasm.data_path("structure_f26.yaml"))
    assert published.mass == 157.1
    assert np.diag(published.inertia_P) == pytest.approx([2251.8, 209.5, 2461.2], abs=0.1)
    reduced = {}
    for name, layout in [("corner", modal.default_layout(26)),
                         ("mid-edge", mid_edge_layout_26())]:
        data = modal.modal_reduce(default_lattice(layout), 3, modal.DEFAULT_DAMPING)[25]
        assert data.mass == pytest.approx(published.mass, abs=0.05), name
        reduced[name] = data
    assert np.abs(reduced["mid-edge"].inertia_P - published.inertia_P).max() <= 0.1
    # the corner clamp's documented inertia, rounded to the digits given
    assert np.diag(reduced["corner"].inertia_P) == pytest.approx(
        [8850.0, 209.5, 9059.4], abs=0.5)


# ---------------------------------------------------------------------------
# modal reduction
# ---------------------------------------------------------------------------

def test_reduce_single_tile_rigid_block():
    m = default_lattice(modal.TileLayout([(0, 0)]))
    data = modal.modal_reduce(m, 0, modal.DEFAULT_DAMPING)[0]
    assert data.n_modes == 0
    assert data.mass == pytest.approx(6.0423)
    assert np.allclose(data.com, [0.5, 0.5, 0.0])
    assert np.allclose(data.inertia_P,
                       mb.transport_inertia(modal.DEFAULT_TILE_INERTIA,
                                            data.mass, data.com))


def test_reduce_mass_completeness_with_all_modes():
    lay = modal.default_layout(4)
    m = default_lattice(lay)
    data = modal.modal_reduce(m, 24, modal.DEFAULT_DAMPING)[2]
    D_P = mb.d_p_matrix(data)
    assert np.max(np.abs(data.L_P.T @ data.L_P - D_P)) < 1e-8 * np.max(np.abs(D_P))
    # truncation keeps the residual positive semidefinite
    trunc = modal.modal_reduce(m, 6, modal.DEFAULT_DAMPING)[2]
    ev = np.linalg.eigvalsh(mb.residual_mass(trunc))
    assert ev.min() > -1e-10 * max(1.0, ev.max())


def test_reduce_serves_every_port_from_one_eigen_solve(monkeypatch):
    # clamped at P, F_n has the same modes whichever tile the robot docks
    # on: one eigen-solve, one L_P, and each port picks its tile's rows of
    # the mode shapes
    m = default_lattice(modal.default_layout(4))
    solve, solves = modal.clamped_free_modes, []
    monkeypatch.setattr(modal, "clamped_free_modes",
                        lambda *a: solves.append(1) or solve(*a))
    ports = modal.modal_reduce(m, 6, modal.DEFAULT_DAMPING)
    assert len(solves) == 1 and len(ports) == 4
    freqs, phi = solve(m, 6)
    for t, data in enumerate(ports, start=1):
        assert data.name == f"lattice_4t_port{t}"
        assert data.freqs.tobytes() == freqs.tobytes()
        assert data.L_P.tobytes() == ports[0].L_P.tobytes()
        assert data.phi_C.tobytes() == phi[m.free_dofs // 6 == t].tobytes()
        assert data.pc.tobytes() == (m.node_positions[t] - m.node_positions[0]).tobytes()


def test_reduce_stiff_limit_matches_rigid_two_port():
    lay = modal.TileLayout([(0, 0), (0, 1)])
    stiff = modal.LatticeStiffness(
        k_trans=modal.DEFAULT_K_TRANS * 1e6,
        k_rot=0.25 * modal.DEFAULT_K_TRANS * 1e6)
    m = modal.build_lattice(lay, modal.DEFAULT_TILE_MASS,
                            modal.DEFAULT_TILE_INERTIA, stiff)
    data = modal.modal_reduce(m, 12, modal.DEFAULT_DAMPING)[1]
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


@pytest.mark.parametrize("name", ["solar_array.yaml", "structure_f1.yaml",
                                  "structure_f26.yaml"])
def test_packaged_body_files_load_the_numbers_they_write(name):
    # the readers pass every real value through with its bits: no reader
    # rounds, and the boolean and integer checks change no number
    path = flexasm.data_path(name)
    doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    data = modal.load_body_file(path)
    rows = [r - 1 for r in doc.get("mode_rows", range(1, len(doc["freqs_hz"]) + 1))]
    want = {"freqs": 2.0 * np.pi * np.array(doc["freqs_hz"]),
            "dampings": np.array(doc["dampings"]),
            "L_P": np.array(doc["participation"])[rows],
            "phi_C": np.array(doc.get("mode_shapes_at_c", [])),
            "pc": np.array(doc.get("pc_m", []))}
    for field, value in want.items():
        got = getattr(data, field)
        got = np.zeros(0) if got is None else got
        assert got.dtype == np.float64 and got.tobytes() == value.tobytes(), field
    assert data.mass == doc["mass_kg"]


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
    # a known key without its unit suffix, in place of the suffixed key or
    # beside it, is a unit error, not an unknown key
    doc = {"name": "bad", "mass_kg": 1.0,
           "inertia_kgm2": [[1.0, 0.0, 0.0], [1.0, 0.0], [1.0]]}
    p = tmp_path / "bad.yaml"
    for stem, value in [("mass", 1.0), ("freqs", [1.0]), ("com", [0.0, 0.0, 0.0]),
                        ("pc", [0.0, 0.0, 0.0])]:
        fields = {k: v for k, v in doc.items() if k != "mass_kg" or stem != "mass"}
        p.write_text(yaml.safe_dump({**fields, stem: value}))
        with pytest.raises(UnitError, match=f"'{stem}' carries no unit") as exc:
            modal.load_body_file(p)
        assert str(p) in str(exc.value)


def packaged_body_docs():
    return {f: yaml.safe_load(flexasm.data_path(f).read_text(encoding="utf-8"))
            for f in ("solar_array.yaml", "structure_f1.yaml", "structure_f26.yaml")}


def test_load_yaml_reads_yaml_1_2_floats(tmp_path):
    # 2.3e6, 5e-3 and 1e0 are strings to YAML 1.1; quoted scalars stay
    # strings, and integers stay integers
    p = tmp_path / "doc.yaml"
    p.write_text("a: 2.3268060e6\nb: 5e-3\nc: [1e0, -2E+1, .5e1]\n"
                 "d: '5e-3'\ne: \"0.5\"\nf: 4\ng: 1.5\nh: 1e\n")
    doc = modal.load_yaml(p)
    assert doc == {"a": 2326806.0, "b": 0.005, "c": [1.0, -20.0, 5.0], "d": "5e-3",
                   "e": "0.5", "f": 4, "g": 1.5, "h": "1e"}
    assert [type(doc[k]) for k in "abdefg"] == [float, float, str, str, int, float]


@pytest.mark.parametrize("name", ["scenario_desk.yaml", "solar_array.yaml",
                                  "structure_f1.yaml", "structure_f26.yaml"])
def test_packaged_files_read_as_yaml_1_1_reads_them(name):
    # every value, and its type, as PyYAML's YAML 1.1 reader gives it
    text = flexasm.data_path(name).read_text(encoding="utf-8")
    got, want = modal.load_yaml(flexasm.data_path(name)), yaml.safe_load(text)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("base", [
    pytest.param("SafeLoader", id="python"),
    pytest.param("CSafeLoader", id="libyaml", marks=pytest.mark.skipif(
        not yaml.__with_libyaml__, reason="PyYAML is built without libyaml"))])
def test_load_yaml_reads_alike_on_either_loader_base(base, tmp_path, monkeypatch):
    # load_yaml parses with libyaml where PyYAML has it: either base reads
    # every packaged file to the pure-Python base's document, types and
    # float bits included, reads YAML 1.2 floats and refuses a syntax error
    paths = sorted(flexasm.data_path("solar_array.yaml").parent.glob("*.yaml"))
    assert len(paths) == 4
    python = modal._loader(yaml.SafeLoader)
    want = [repr(yaml.load(p.read_text(encoding="utf-8"), Loader=python)) for p in paths]
    monkeypatch.setattr(modal, "_Loader", modal._loader(getattr(yaml, base)))
    assert [repr(modal.load_yaml(p)) for p in paths] == want
    p = tmp_path / "doc.yaml"
    p.write_text("a: 2.3268060e6\nb: 5e-3\n")
    doc = modal.load_yaml(p)
    assert doc == {"a": 2326806.0, "b": 0.005}
    assert [type(v) for v in doc.values()] == [float, float]
    p.write_text("a: [1, 2\n")
    with pytest.raises(ParseError, match="cannot parse"):
        modal.load_yaml(p)


def test_body_file_table_holds_the_packaged_keys():
    used = set().union(*packaged_body_docs().values())
    assert used == set(modal.BODY_FILE_KEYS)


@pytest.mark.parametrize("key", sorted(modal.BODY_FILE_KEYS))
def test_misspelled_body_file_key_is_a_schema_error(tmp_path, key):
    # a misspelled key would otherwise keep its default silently: mode_row
    # priced rows 1-2 of the array, inertia_conventon flipped its products
    doc = packaged_body_docs()["solar_array.yaml"]
    doc[key[:-1]] = doc.pop(key, None)
    p = tmp_path / "misspelled.yaml"
    p.write_text(yaml.safe_dump(doc))
    with pytest.raises(SchemaError) as exc:
        modal.load_body_file(p)
    assert str(p) in str(exc.value) and repr(key[:-1]) in str(exc.value)


def test_body_file_poi_convention_matches_geometry():
    # the F1 fixture's PoI entries must reproduce the single-tile transport
    f1 = modal.load_body_file(flexasm.data_path("structure_f1.yaml"))
    J_expected = mb.transport_inertia(td.TILE_J, td.TILE_MASS, [0.5, 0.5, 0.0])
    assert np.allclose(f1.inertia_P, J_expected, atol=2e-4)
