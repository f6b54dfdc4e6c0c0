"""Command line front end: scenario files, outputs, exit codes."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

import flexasm
from flexasm import cli, linss, modal
from flexasm import scenario as sc


def mounts(**given):
    """All three mount DCMs of the table, with the named ones replaced."""
    table = {f"A{k}": np.asarray(v).tolist() for k, v in sc.ARM_MOUNT_DCMS.items()}
    return {"mount_dcms": {**table, **given}}


class ScenarioDumper(yaml.SafeDumper):
    """Quotes every string the input reader would resolve to a number, the
    YAML 1.2 floats such as ``1e3`` included."""
    yaml_implicit_resolvers = modal._Loader.yaml_implicit_resolvers


def write_scenario(tmp_path, name="s.yaml", **fields):
    doc = {"n_tiles": 2, "z_grid": 2, "structure": {"n_modes": 2}}
    doc.update(fields)
    p = tmp_path / name
    p.write_text(yaml.dump(doc, Dumper=ScenarioDumper))
    return p


def run(args):
    return cli.main([str(a) for a in args])


def exit_code(args):
    """``main``'s return value, or the code argparse exits with."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


# ---------------------------------------------------------------------------
# scenario loading
# ---------------------------------------------------------------------------

def test_cli_keeps_the_scenario_loader_import_path():
    # callers outside the package import the loader from flexasm.cli
    assert cli.load_scenario is sc.load_scenario


def test_load_packaged_desk_scenario():
    cfg, seed = cli.load_scenario(flexasm.data_path("scenario_desk.yaml"))
    assert cfg.n_tiles == 4
    assert cfg.z_grid == 7
    assert cfg.hub.mass == pytest.approx(166.0)
    assert cfg.hub.inertia_G[0, 1] == pytest.approx(-3.84)  # poi convention
    assert seed == 0


def test_scenario_overrides(tmp_path):
    p = write_scenario(tmp_path, n_tiles=3,
                       controller={"xi": 0.7, "freq_hz": 0.02},
                       uncertainty={"r_omega": 0.1, "mode": 1})
    cfg, _ = cli.load_scenario(p)
    assert cfg.n_tiles == 3
    assert cfg.xi_att == pytest.approx(0.7)
    assert cfg.f_att_hz == pytest.approx(0.02)
    assert cfg.r_omega == pytest.approx(0.1)


def test_scenario_unit_suffix_errors(tmp_path):
    p = write_scenario(tmp_path, controller={"xi": 1.0, "freq": 0.01})
    with pytest.raises(cli.UnitError):
        cli.load_scenario(p)


@pytest.mark.parametrize("fields, key", [
    ({"hub": {"mass": 166.0, "inertia_kgm2": [[1.0, 0, 0], [1.0, 0], [1.0]]}}, "mass"),
    ({"tile": {"mass_kg": 6.0, "inertia": [[1.0, 0, 0], [1.0, 0], [1.0]]}}, "inertia"),
    ({"structure": {"stack_reach": 1.5}}, "stack_reach"),
    ({"robot": {"arm": {"link_masses": [5.0] * 6}}}, "link_masses"),
], ids=["hub", "tile", "structure", "robot.arm"])
def test_unit_less_stem_of_a_known_key_is_a_unit_error(tmp_path, fields, key):
    # one rule for every block: a known key without its unit suffix
    p = write_scenario(tmp_path, **fields)
    with pytest.raises(cli.UnitError, match=f"'{key}' carries no unit"):
        cli.load_scenario(p)
    assert exit_code(["--scenario", p, "--out", tmp_path / "o",
                      "full-assembly", "--cost", "h2-theta"]) == 2


def test_stiffness_keys_given_alone_are_honoured(tmp_path):
    # k_rot defaults to a quarter of k_trans, whichever of the three is given
    cfg, _ = cli.load_scenario(write_scenario(tmp_path, structure={"k_trans": 1.2e6}))
    assert (cfg.stiffness.k_trans, cfg.stiffness.k_rot) == (1.2e6, 0.25 * 1.2e6)
    assert cfg.stiffness.diag_scale == sc.LatticeStiffness().diag_scale
    cfg, _ = cli.load_scenario(write_scenario(
        tmp_path, structure={"diag_scale": 0.2, "k_rot": 1e5}))
    assert (cfg.stiffness.diag_scale, cfg.stiffness.k_rot) == (0.2, 1e5)
    assert cfg.stiffness.k_trans == sc.LatticeStiffness().k_trans


# ---------------------------------------------------------------------------
# commands and exit codes
# ---------------------------------------------------------------------------

def test_missing_scenario_exits_2(tmp_path):
    assert run(["--scenario", tmp_path / "nope.yaml", "--out", tmp_path,
                "validate"]) == 2


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, below):
    # --out naming an existing regular file, or a path below one, is a
    # configuration error, not a traceback
    p = write_scenario(tmp_path)
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    out = blocker / "out" if below else blocker
    assert run(["--scenario", p, "--out", out, "analyze", "--points", 2]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out}: cannot make the output directory")
    assert "Traceback" not in err
    assert blocker.read_text() == "keep\n"


@pytest.mark.parametrize("args", [
    ["analyze", "--channel", "T_G[a]:omega_dot_G[0]"],
    ["analyze", "--channel", "T_G[9]:omega_dot_G[0]"],
    ["analyze", "--channel", "T_G[0]:omega_dot_G[-1]"],
    ["analyze", "--channel", "X:Y"],
    ["analyze", "--channel", "T_G"],
    ["analyze", "--fmin", "0"],
    ["analyze", "--fmax", "nan"],
    ["analyze", "--fmin", "1", "--fmax", "1"],
    ["analyze", "--points", "0"],
    ["analyze", "--points", "1"],
    ["analyze", "--state", "1,1,1"],
    ["analyze", "--state", "1,2,1,0"],
    ["analyze", "--state", "3,1,1,0"],
    ["optimize", "--cost", "h2-theta", "--hard-cap", "-1",
     "--from", "1,1", "--to", "2,2"],
    ["optimize", "--cost", "h2-theta", "--hard-cap", "nan",
     "--from", "1,1", "--to", "2,2"],
    ["optimize", "--cost", "h2-theta", "--from", "1", "--to", "2,2"],
    ["full-assembly", "--cost", "mu", "--hard-cap", "0"],
    ["optimize", "--cost", "h2-theta", "--from", "9,1", "--to", "1,1"],
    ["optimize", "--cost", "h2-theta", "--from", "1,1", "--to", "0,2"],
    ["optimize", "--cost", "h2-theta", "--from", "1,3", "--to", "2,2"],
    ["optimize", "--cost", "h2-theta", "--from", "1,1", "--to", "2,2",
     "--n", "1"],
    ["optimize", "--cost", "h2-theta", "--from", "1,1", "--to", "2,2",
     "--n", "9"],
    ["optimize", "--cost", "h2-theta", "--from", "1,1", "--to", "2,2",
     "--n", "-1"],
    ["optimize", "--cost", "h2-theta", "--from", "1,1", "--to", "2,2",
     "--n", "0"],
    ["full-assembly", "--cost", "h2-theta", "--start", "9,1"],
    ["full-assembly", "--cost", "h2-theta", "--start", "2,1"],
    ["full-assembly", "--cost", "h2-theta", "--start", "1,0"],
], ids=lambda a: " ".join(a))
def test_bad_arguments_exit_2(tmp_path, capsys, args):
    p = write_scenario(tmp_path)
    assert exit_code(["--scenario", p, "--out", tmp_path / "o", *args]) == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("fields", [
    {"z_grid": 1},
    {"z_grid": 0},
    {"uncertainty": {"r_omega": 0.0}},
    {"uncertainty": {"r_omega": 1.5}},
    {"uncertainty": {"mode": 0}},
    {"uncertainty": {"mode": 3}},
    {"structure": {"n_modes": -2}},
    {"controller": {"freq_hz": 0.0}},
    {"controller": {"freq_hz": -0.01}},
    {"controller": {"freq_hz": float("nan")}},
    {"controller": {"freq_hz": float("inf")}},
    {"controller": {"xi": 0.0}},
    {"controller": {"xi": -1.0}},
    {"controller": {"xi": float("nan")}},
    {"structure": {"damping": 0.0}},
    {"structure": {"damping": 1.5}},
    {"structure": {"damping": float("nan")}},
    {"structure": {"k_trans": 0.0}},
    {"structure": {"k_trans": -5.0}},
    {"structure": {"k_trans": float("nan")}},
    {"structure": {"k_trans": 1e5, "k_rot": 0.0}},
    {"structure": {"k_trans": 1e5, "diag_scale": -0.5}},
    {"structure": {"k_trans": 1e5, "diag_scale": float("nan")}},
    {"structure": {"stack_reach_m": -1.0}},
    {"structure": {"stack_reach_m": float("nan")}},
    # an infinite reach offered a pickup edge from every tile
    {"structure": {"stack_reach_m": float("inf")}},
    {"robot": {"arm": {"link_masses_kg": [5.0, -5.0, 10.0, 5.0, 10.0, 5.0]}}},
    {"robot": {"arm": {"link_masses_kg": [5.0, float("nan"), 10.0, 5.0, 10.0, 5.0]}}},
    {"robot": {"arm": {"link_inertia_kgm2": [0.2, 0.2, -0.4, 0.2, 0.4, 0.2]}}},
    {"robot": {"arm": {"link_inertia_kgm2": [0.2, 0.2, float("nan"), 0.2, 0.4, 0.2]}}},
    {"robot": mounts(A2=np.zeros((3, 3)).tolist())},
    {"robot": mounts(A2=np.full((3, 3), float("nan")).tolist())},
    {"robot": mounts(A1=np.diag([1.0, 1.0, -1.0]).tolist())},
    {"robot": mounts(A7=np.eye(3).tolist())},
    {"robot": {"arm": {"joint_axes": [[0.0, 0.0, 0.0]] + [[0.0, 1.0, 0.0]] * 4}}},
    {"robot": {"arm": {"joint_axes": [[0.0, 0.0, float("nan")]] + [[0.0, 1.0, 0.0]] * 4}}},
    {"robot": {"arm": {"joint_offsets_m": [[float("nan"), 0.0, 0.0]] + [[0.0, 0.0, 0.1]] * 5}}},
    {"n_tiles": 0},
    {"n_tiles": -1},
    # an infinite damping used to fail in the gains, an infinite
    # stiffness in the lattice's eigensolver
    {"controller": {"xi": float("inf")}},
    {"structure": {"k_trans": float("inf")}},
    {"structure": {"k_trans": 1e5, "k_rot": float("inf")}},
    {"structure": {"k_trans": 1e5, "diag_scale": float("inf")}},
], ids=str)
def test_bad_scenario_values_exit_2(tmp_path, capsys, fields):
    # rejected where the scenario is built, before any gain is designed,
    # by full-assembly and validate alike
    p = write_scenario(tmp_path, **fields)
    assert exit_code(["--scenario", p, "--out", tmp_path / "o",
                      "full-assembly", "--cost", "h2-theta"]) == 2
    err = capsys.readouterr().err
    assert "error: " in err
    # a bad reach is named by the key the scenario file writes
    if "stack_reach_m" in fields.get("structure", {}):
        assert "structure stack_reach_m = " in err
    assert exit_code(["--scenario", p, "--out", tmp_path / "o", "validate"]) == 2
    assert "FAIL" in capsys.readouterr().out


def body(mass_kg):
    return {"mass_kg": mass_kg, "inertia_kgm2": [[0.6, 0.0, 0.0], [0.6, 0.0], [0.6]]}


@pytest.mark.parametrize("block, fields", [
    ("hub", {"hub": body(-166.0)}),
    ("tile", {"tile": body(-6.0)}),
    ("robot.hub", {"robot": {"hub": body(-10.0)}}),
], ids=["hub", "tile", "robot.hub"])
def test_negative_body_mass_exits_2(tmp_path, capsys, block, fields):
    # a schema error naming the block, not a model error about the inertia
    p = write_scenario(tmp_path, **fields)
    assert exit_code(["--scenario", p, "--out", tmp_path / "o",
                      "full-assembly", "--cost", "h2-theta"]) == 2
    err = capsys.readouterr().err
    assert f"error: {block}: " in err and "negative" in err


HUB_PORTS = {f"P{k}": v.tolist() for k, v in enumerate((sc.GP1, sc.GP2, sc.GP3), start=1)}
ROBOT_MOUNTS = {f"A{k}": v.tolist() for k, v in sc.ARM_MOUNTS.items()}


@pytest.mark.parametrize("fields, message", [
    ({"hub": {**body(166.0), "ports_m": {k: HUB_PORTS[k] for k in ("P1", "P2")}}},
     "body 'hub' has no port P3"),
    ({"robot": {"hub": {**body(10.0), "mounts_m": {k: ROBOT_MOUNTS[k] for k in ("A1", "A3")}}}},
     "body 'robot_hub' has no port A2"),
    ({"hub": {**body(0.0), "ports_m": HUB_PORTS}}, "hub mass_kg = 0.0 must be > 0"),
    ({"tile": body(0.0)}, "tile mass_kg = 0.0 must be > 0"),
], ids=["hub-without-P3", "robot-hub-without-A2", "massless-hub", "massless-tile"])
@pytest.mark.parametrize("command", [
    ["validate"], ["full-assembly", "--cost", "h2-theta"], ["analyze", "--points", "2"]],
    ids=lambda c: c[0])
def test_body_every_plant_needs_is_checked_as_the_file_loads(tmp_path, capsys, command,
                                                             fields, message):
    # a schema error naming the body as the scenario loads, from every
    # command, not a model error where the first plant is built
    p = write_scenario(tmp_path, **fields)
    assert exit_code(["--scenario", p, "--out", tmp_path / "o", *command]) == 2
    captured = capsys.readouterr()
    assert message in (captured.out if command == ["validate"] else captured.err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("block, fields", [
    ("hub", {"hub": {**body(166.0), "inertia_convention": "POI"}}),
    ("tile", {"tile": {**body(6.0), "inertia_convention": "POI"}}),
    ("robot.hub", {"robot": {"hub": {**body(10.0), "inertia_convention": "POI"}}}),
], ids=["hub", "tile", "robot.hub"])
def test_unknown_inertia_convention_exits_2(tmp_path, capsys, block, fields):
    # only the lower-case poi|tensor are conventions; anything else is a
    # schema error naming the block, not a tensor read with flipped products
    p = write_scenario(tmp_path, **fields)
    assert exit_code(["--scenario", p, "--out", tmp_path / "o",
                      "full-assembly", "--cost", "h2-theta"]) == 2
    err = capsys.readouterr().err
    assert f"error: {block}: " in err and "inertia_convention" in err


@pytest.mark.parametrize("command", [["full-assembly", "--cost", "h2-theta"],
                                     ["validate"]], ids=["full-assembly", "validate"])
def test_unknown_top_level_key_exits_2(tmp_path, capsys, command):
    # a misspelled key would otherwise keep its default silently
    p = write_scenario(tmp_path, z_grd=3)
    with pytest.raises(cli.SchemaError, match="z_grd"):
        cli.load_scenario(p)
    assert exit_code(["--scenario", p, "--out", tmp_path / "o", *command]) == 2
    captured = capsys.readouterr()
    assert "z_grd" in (captured.out if command == ["validate"] else captured.err)


@pytest.mark.parametrize("fields, key, value", [
    ({"n_tiles": 2.7}, "n_tiles", 2.7),
    ({"n_tiles": True}, "n_tiles", True),
    ({"z_grid": 2.5}, "z_grid", 2.5),
    ({"z_grid": "2"}, "z_grid", "2"),
    ({"seed": 1.5}, "seed", 1.5),
    ({"structure": {"n_modes": 2.5}}, "structure.n_modes", 2.5),
    ({"uncertainty": {"mode": 1.9}}, "uncertainty.mode", 1.9),
], ids=str)
@pytest.mark.parametrize("command", [["full-assembly", "--cost", "h2-theta"],
                                     ["validate"]], ids=["full-assembly", "validate"])
def test_non_integer_count_exits_2(tmp_path, capsys, command, fields, key, value):
    # int() would truncate 2.7 to 2 and plan a scenario nobody wrote
    p = write_scenario(tmp_path, **fields)
    with pytest.raises(cli.SchemaError) as exc:
        cli.load_scenario(p)
    assert f"{key} must be an integer, got {value!r}" in str(exc.value)
    assert exit_code(["--scenario", p, "--out", tmp_path / "o", *command]) == 2
    captured = capsys.readouterr()
    assert key in (captured.out if command == ["validate"] else captured.err)


@pytest.mark.parametrize("cell", [[0, 1.5], [0, 0.9], [0, True], [0.0, 1]], ids=str)
@pytest.mark.parametrize("command", [["full-assembly", "--cost", "h2-theta"],
                                     ["validate"]], ids=["full-assembly", "validate"])
def test_non_integer_layout_cell_exits_2(tmp_path, capsys, command, cell):
    # int() would plan tile 2 of [0, 1.5] on (0, 1), read true as 1, and
    # report [0, 0.9] as a repeat of (0, 0)
    p = write_scenario(tmp_path, layout={"cells": [[0, 0], cell]})
    message = f"layout cell {cell!r} (tile 2) must be two integers"
    with pytest.raises(cli.SchemaError, match=re.escape(message)):
        cli.load_scenario(p)
    assert exit_code(["--scenario", p, "--out", tmp_path / "o", *command]) == 2
    captured = capsys.readouterr()
    assert message in (captured.out if command == ["validate"] else captured.err)


@pytest.mark.parametrize("fields, block", [
    ({"structure": 3}, "structure"),
    ({"uncertainty": 3}, "uncertainty"),
    ({"hub": 3}, "hub"),
    ({"tile": 3}, "tile"),
    ({"controller": 3}, "controller"),
    ({"layout": 3}, "layout"),
    ({"robot": 3}, "robot"),
    ({"robot": {"hub": 3}}, "robot.hub"),
    ({"robot": {"mount_dcms": 3}}, "robot.mount_dcms"),
    ({"robot": {"arm": 3}}, "robot.arm"),
], ids=str)
@pytest.mark.parametrize("command", [["full-assembly", "--cost", "h2-theta"],
                                     ["validate"]], ids=["full-assembly", "validate"])
def test_scalar_block_exits_2(tmp_path, capsys, command, fields, block):
    # a block read as a mapping is a schema error naming it, not a crash
    p = write_scenario(tmp_path, **fields)
    with pytest.raises(cli.SchemaError) as exc:
        cli.load_scenario(p)
    assert f"{block} must be a mapping, got 3" in str(exc.value)
    assert exit_code(["--scenario", p, "--out", tmp_path / "o", *command]) == 2
    captured = capsys.readouterr()
    assert f"{block} must be a mapping" in (
        captured.out if command == ["validate"] else captured.err)


@pytest.mark.parametrize("block, fields, keys", [
    ("layout", {"layout": {"cels": [[0, 0], [0, 1]]}}, ["cels"]),
    ("controller", {"controller": {"xii": 2}}, ["xii"]),
    ("uncertainty", {"uncertainty": {"r_omgea": 0.9}}, ["r_omgea"]),
    ("structure", {"structure": {"n_mode": 2, "dampng": 0.5}}, ["dampng", "n_mode"]),
    ("hub", {"hub": {**body(166.0), "port_m": {"P1": [0.0, -0.5, 0.0]}}}, ["port_m"]),
    ("tile", {"tile": {**body(6.0), "inertia_conventon": "poi"}}, ["inertia_conventon"]),
    ("robot", {"robot": {"arms": {}}}, ["arms"]),
    ("robot.hub", {"robot": {"hub": {**body(10.0), "mount_m": {}}}}, ["mount_m"]),
    ("robot.arm", {"robot": {"arm": {"link_mass_kg": [5.0] * 6}}}, ["link_mass_kg"]),
], ids=["layout", "controller", "uncertainty", "structure", "hub", "tile", "robot",
        "robot.hub", "robot.arm"])
@pytest.mark.parametrize("command", [["full-assembly", "--cost", "h2-theta"],
                                     ["validate"]], ids=["full-assembly", "validate"])
def test_unknown_key_in_any_block_exits_2(tmp_path, capsys, command, block, fields, keys):
    # a misspelled key inside a block would otherwise keep its default
    # silently, or load a body without its ports
    p = write_scenario(tmp_path, **fields)
    message = f"unknown keys {keys} in {block};"
    with pytest.raises(cli.SchemaError, match=re.escape(message)):
        cli.load_scenario(p)
    assert exit_code(["--scenario", p, "--out", tmp_path / "o", *command]) == 2
    captured = capsys.readouterr()
    assert message in (captured.out if command == ["validate"] else captured.err)


def test_scalar_body_ports_exit_2(tmp_path, capsys):
    p = write_scenario(tmp_path, hub={**body(166.0), "ports_m": 3})
    assert exit_code(["--scenario", p, "--out", tmp_path / "o",
                      "full-assembly", "--cost", "h2-theta"]) == 2
    assert "error: hub: ports must be a mapping" in capsys.readouterr().err


def test_scenario_name_and_seed_keys_load(tmp_path):
    cfg, seed = cli.load_scenario(write_scenario(tmp_path, name="strip", seed=5))
    assert cfg.n_tiles == 2
    assert seed == 5


def test_validate_reports_schema_error_as_fail_and_exits_2(tmp_path, capsys):
    p = write_scenario(tmp_path, hub={**body(166.0), "inertia_convention": "POI"})
    assert run(["--scenario", p, "--out", tmp_path / "o", "validate"]) == 2
    out = capsys.readouterr().out
    assert "FAIL  hub: " in out and "inertia_convention" in out
    assert "validate: 0 pass, 0 warn, 1 fail" in out


def test_zero_structure_modes_stay_valid(tmp_path):
    cfg, _ = cli.load_scenario(write_scenario(tmp_path, structure={"n_modes": 0}))
    assert cfg.n_struct_modes == 0


def test_mount_dcm_subset_overrides_only_the_arms_it_names(tmp_path):
    turn = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    cfg, _ = cli.load_scenario(write_scenario(
        tmp_path, robot={"mount_dcms": {"A1": turn}}))
    assert np.array_equal(cfg.arm_mount_dcms[1], turn)
    table = sc.table_scenario(2)
    for k in (2, 3):
        assert np.array_equal(cfg.arm_mount_dcms[k], table.arm_mount_dcms[k])


def test_bad_state_exits_2_without_asserts(tmp_path):
    # the --state check must survive python -O, which strips asserts
    src = os.path.join(os.path.dirname(flexasm.__file__), os.pardir)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "flexasm.cli", "--scenario",
         str(write_scenario(tmp_path)), "--out", str(tmp_path / "o"),
         "analyze", "--state", "1,1,1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "error: " in proc.stderr.splitlines()[-1]


def test_planner_imports_leave_out_scipy():
    # the library runs on numpy alone: importing scipy.linalg would add
    # about 0.27 s and 27 MB to every planner process
    src = os.path.join(os.path.dirname(flexasm.__file__), os.pardir)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, flexasm, flexasm.cli, flexasm.pathopt; "
         "print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_planned_norm_leaves_out_numpy_ma():
    # np.unique imports numpy.ma (about 8 ms and 1.3 MB) on its first call
    # since numpy 2.3: a plan priced by H-infinity norms makes none
    src = os.path.join(os.path.dirname(flexasm.__file__), os.pardir)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from flexasm import pathopt as po, scenario as sc; "
         "spec = po.CostSpec('hinf-wrench'); "
         "po.AssemblyPlanner(sc.table_scenario(2, z_grid=2), (spec.kind,))"
         ".plan_full_assembly(spec); "
         "print('numpy.ma' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_validate_passes_on_desk(tmp_path, capsys):
    assert run(["--out", tmp_path, "validate"]) == 0
    out = capsys.readouterr().out
    assert "fail" in out and "0 fail" in out


def bad_body(**fields):
    """A two-mode body file with the given fields replaced."""
    return {"name": "bad_array", "mass_kg": 10.0,
            "inertia_kgm2": [[1.0, 0.0, 0.0], [1.0, 0.0], [1.0]],
            "freqs_hz": [1.0, 2.0], "dampings": [0.01, 0.02],
            "participation": [[0.1, 0, 0, 0, 0, 0], [0, 0.1, 0, 0, 0, 0]], **fields}


@pytest.mark.parametrize("fields, message", [
    ({"dampings": [0.01, 0.0]}, "dampings must lie in (0, 1)"),
    ({"dampings": [1.5]}, "dampings must lie in (0, 1)"),
    ({"dampings": [0.01, 0.02, 0.03]}, "dampings must lie in (0, 1)"),
    ({"dampings": [0.01]}, "dampings must lie in (0, 1), one per mode (1 for 2)"),
    ({"freqs_hz": [1.0, -2.0]}, "mode frequencies must be > 0"),
    ({"participation": [[0.1, 0, 0, 0, 0, 0]]}, "participation has 1 rows for 2 modes"),
    # int() read [1.5, 2] and [true, 2] as rows 1 and 2, float() true as 1
    ({"mode_rows": [1.5, 2]}, "mode_rows entry must be an integer, got 1.5"),
    ({"mode_rows": [True, 2]}, "mode_rows entry must be an integer, got True"),
    ({"freqs_hz": [True, 2.0]}, "freqs_hz must hold real numbers"),
    ({"dampings": [0.01, True]}, "dampings must hold real numbers"),
    # float("2.0") is 2.0, and a repeated row prices two modes on one row
    ({"freqs_hz": [1.0, "2.0"]}, "freqs_hz must hold real numbers, got [1.0, '2.0']"),
    ({"mass_kg": "10.0"}, "mass_kg must be a real number, got '10.0'"),
    ({"mode_rows": [1, 1]}, "participation has 2 rows for 2 modes: mode_rows must select "
                            "one existing row per mode, none twice"),
], ids=["zero-damping", "damping-above-1", "damping-count", "one-damping", "negative-freq",
        "mode-count", "fractional-row", "boolean-row", "boolean-freq", "boolean-damping",
        "quoted-freq", "quoted-mass", "repeated-row"])
@pytest.mark.parametrize("command", [
    ["analyze", "--points", "2"],
    ["optimize", "--cost", "h2-theta", "--from", "1,1", "--to", "2,2"],
    ["full-assembly", "--cost", "h2-theta"],
    ["validate"]], ids=lambda c: c[0])
def test_bad_body_file_exits_2(tmp_path, capsys, command, fields, message):
    # the body's constructor checks it; the loader names the file
    (tmp_path / "bad_array.yaml").write_text(yaml.safe_dump(bad_body(**fields)))
    p = write_scenario(tmp_path, solar_array_file="bad_array.yaml")
    assert run(["--scenario", p, "--out", tmp_path / "o", *command]) == 2
    captured = capsys.readouterr()
    text = captured.out if command == ["validate"] else captured.err
    assert message in text and "bad_array" in text
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["full-assembly", "--cost", "h2-theta"], ["validate"]],
                         ids=lambda c: c[0])
def test_missing_body_file_names_both_places_and_exits_2(tmp_path, capsys, command):
    # a relative body file found neither next to the scenario nor in the
    # packaged data is reported as written, with both places tried
    p = write_scenario(tmp_path, solar_array_file="nothere.yaml")
    assert run(["--scenario", p, "--out", tmp_path / "o", *command]) == 2
    err = capsys.readouterr().err
    assert "solar_array_file nothere.yaml" in err
    assert str(tmp_path / "nothere.yaml") in err
    assert str(flexasm.data_path("nothere.yaml")) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["full-assembly", "--cost", "h2-theta"], ["validate"]],
                         ids=lambda c: c[0])
def test_misspelled_body_file_key_exits_2(tmp_path, capsys, command):
    # mode_row for mode_rows would silently price participation rows 1-2
    text = flexasm.data_path("solar_array.yaml").read_text(encoding="utf-8")
    assert "\nmode_rows:" in text
    (tmp_path / "array.yaml").write_text(text.replace("\nmode_rows:", "\nmode_row:"))
    p = write_scenario(tmp_path, solar_array_file="array.yaml")
    assert exit_code(["--scenario", p, "--out", tmp_path / "o", *command]) == 2
    captured = capsys.readouterr()
    text = captured.out if command == ["validate"] else captured.err
    assert "array.yaml: unknown keys ['mode_row'] in the top level" in text
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("fields, message", [
    ({"controller": {"xi": True}}, "controller.xi must be a real number, got True"),
    ({"uncertainty": {"r_omega": False}}, "uncertainty.r_omega must be a real number"),
    ({"tile": {"mass_kg": 6.0, "inertia_kgm2": [[0.6, 0.0, 0.0], [0.6, True], [0.6]]}},
     "tile: inertia_kgm2 must hold real numbers"),
    ({"robot": {"arm": {"link_masses_kg": [5, 5, True, 5, 10, 5]}}},
     "robot.arm.link_masses_kg must hold real numbers"),
    ({"hub": {**body(166.0), "ports_m": {"P1": [0.0, True, 0.0]}}},
     "hub.P1 must hold real numbers"),
    ({"controller": {"xi": "0.5"}}, "controller.xi must be a real number, got '0.5'"),
    ({"uncertainty": {"r_omega": "nan"}}, "uncertainty.r_omega must be a real number"),
    ({"tile": {"mass_kg": 6.0, "inertia_kgm2": [[0.6, 0.0, 0.0], [0.6, "0"], [0.6]]}},
     "tile: inertia_kgm2 must hold real numbers"),
    ({"robot": {"arm": {"link_masses_kg": [5, 5, "10", 5, 10, 5]}}},
     "robot.arm.link_masses_kg must hold real numbers"),
    ({"hub": {**body(166.0), "ports_m": {"P1": [0.0, "1e3", 0.0]}}},
     "hub.P1 must hold real numbers"),
], ids=["controller-xi", "uncertainty-r", "tile-inertia", "arm-link-mass", "hub-port",
        "quoted-controller-xi", "quoted-uncertainty-r", "quoted-tile-inertia",
        "quoted-arm-link-mass", "quoted-hub-port"])
@pytest.mark.parametrize("command", [["full-assembly", "--cost", "h2-theta"],
                                     ["validate"]], ids=["full-assembly", "validate"])
def test_boolean_real_value_exits_2(tmp_path, capsys, command, fields, message):
    # float(True) is 1 and float("0.5") is 0.5: controller {xi: true} would
    # plan with xi = 1, while the integer rule refuses z_grid: "2"; a quoted
    # string is no real number either
    p = write_scenario(tmp_path, **fields)
    with pytest.raises(cli.SchemaError, match=re.escape(message)):
        cli.load_scenario(p)
    assert exit_code(["--scenario", p, "--out", tmp_path / "o", *command]) == 2
    captured = capsys.readouterr()
    assert message in (captured.out if command == ["validate"] else captured.err)
    assert not (tmp_path / "o").exists()


def test_scientific_notation_loads(tmp_path):
    # YAML 1.1 reads an exponent without a sign or a number without a dot
    # as a string; the reader takes them as the YAML 1.2 floats they are
    p = tmp_path / "s.yaml"
    p.write_text("n_tiles: 2\nz_grid: 2\n"
                 "structure: {n_modes: 2, k_trans: 2.3268060e6, damping: 5e-3}\n"
                 "controller: {xi: 1e0}\n")
    cfg, _ = cli.load_scenario(p)
    assert (cfg.stiffness.k_trans, cfg.xi_struct, cfg.xi_att) == (2326806.0, 0.005, 1.0)
    assert exit_code(["--scenario", p, "--out", tmp_path / "o", "validate"]) == 0


@pytest.mark.parametrize("text, message", [
    ("controller: {xi: '5e-3'}", "controller.xi must be a real number, got '5e-3'"),
    ("n_tiles: 4e0", "n_tiles must be an integer, got 4.0"),
], ids=["quoted-exponent", "exponent-count"])
def test_quoted_or_fractional_scientific_notation_exits_2(tmp_path, capsys, text, message):
    # a quoted scalar is never resolved, and an exponent is no integer
    p = tmp_path / "s.yaml"
    p.write_text(f"z_grid: 2\nstructure: {{n_modes: 2}}\n{text}\n"
                 + ("" if text.startswith("n_tiles") else "n_tiles: 2\n"))
    assert exit_code(["--scenario", p, "--out", tmp_path / "o", "validate"]) == 2
    assert message in capsys.readouterr().out


@pytest.mark.parametrize("block, fields", [
    ("tile", {"mass_kg": float("nan")}),
    ("tile", {"mass_kg": float("inf")}),
    ("array", {"mass_kg": float("nan")}),
    ("array", {"freqs_hz": [1.0, float("nan")]}),
    ("array", {"freqs_hz": [1.0, float("inf")]}),
    ("array", {"dampings": [0.01, float("nan")]}),
], ids=["tile-mass-nan", "tile-mass-inf", "array-mass-nan", "array-freq-nan",
        "array-freq-inf", "array-damping-nan"])
@pytest.mark.parametrize("command", [
    ["analyze", "--points", "2"],
    ["optimize", "--cost", "h2-theta", "--from", "1,1", "--to", "2,2"],
    ["full-assembly", "--cost", "h2-theta"],
    ["validate"]], ids=lambda c: c[0])
def test_non_finite_body_data_exits_2(tmp_path, capsys, command, block, fields):
    # a schema error where the body is built, not a failure in the plant
    if block == "tile":
        p = write_scenario(tmp_path, tile={**body(6.0), **fields})
    else:
        (tmp_path / "bad_array.yaml").write_text(yaml.safe_dump(bad_body(**fields)))
        p = write_scenario(tmp_path, solar_array_file="bad_array.yaml")
    assert exit_code(["--scenario", p, "--out", tmp_path / "o", *command]) == 2
    captured = capsys.readouterr()
    text = captured.out if command == ["validate"] else captured.err
    assert ("tile: " if block == "tile" else "bad_array") in text
    assert not (tmp_path / "o").exists()


def test_validate_fails_on_zero_damping_body(tmp_path):
    bad_body = {
        "name": "bad_array", "mass_kg": 10.0,
        "inertia_kgm2": [[1.0, 0.0, 0.0], [1.0, 0.0], [1.0]],
        "freqs_hz": [1.0], "dampings": [0.0],
        "participation": [[0.1, 0, 0, 0, 0, 0]],
    }
    (tmp_path / "bad_array.yaml").write_text(yaml.safe_dump(bad_body))
    p = write_scenario(tmp_path, solar_array_file="bad_array.yaml")
    # a schema error in a referenced body file: exit 2, as full-assembly
    assert run(["--scenario", p, "--out", tmp_path, "validate"]) == 2


def test_validate_warns_once_on_indefinite_residual_mass(tmp_path, capsys):
    # one mode whose participation outweighs the body: L^T L > D_P
    heavy = {
        "name": "heavy_modes", "mass_kg": 10.0,
        "inertia_kgm2": [[1.0, 0.0, 0.0], [1.0, 0.0], [1.0]],
        "freqs_hz": [1.0], "dampings": [0.01],
        "participation": [[5.0, 0, 0, 0, 0, 0]],
    }
    (tmp_path / "heavy.yaml").write_text(yaml.safe_dump(heavy))
    p = write_scenario(tmp_path, solar_array_file="heavy.yaml")
    assert run(["--scenario", p, "--out", tmp_path, "validate"]) == 0
    out = capsys.readouterr().out
    assert [ln for ln in out.splitlines() if ln.startswith("warn")] == [
        "warn  array residual mass indefinite (min eig -1.50e+01)"]
    assert "validate: 0 pass, 1 warn, 0 fail" in out


def test_validate_fails_on_detached_layout(tmp_path):
    p = write_scenario(tmp_path, layout={"cells": [[0, 0], [3, 3]]})
    assert run(["--scenario", p, "--out", tmp_path, "validate"]) == 3


@pytest.mark.parametrize("cells", [[[0, 1], [0, 0]], [[5, 5], [5, 6]]],
                         ids=["beside-the-clamp", "far-from-the-clamp"])
def test_first_cell_off_the_clamp_exits_3_from_every_command(tmp_path, capsys, cells):
    # tile 1 alone is the mission's first structure, so it must touch the
    # clamp: every command refuses the file as it loads, with one message
    p = write_scenario(tmp_path, layout={"cells": cells})
    messages = []
    for command in (["validate"], ["full-assembly", "--cost", "h2-theta"],
                    ["analyze", "--points", "2"]):
        assert run(["--scenario", p, "--out", tmp_path / "o", *command]) == 3
        captured = capsys.readouterr()
        text, prefix = ((captured.out, "FAIL  ") if command == ["validate"]
                        else (captured.err, "model error: "))
        messages.append(text.splitlines()[0].removeprefix(prefix))
    assert messages == [f"cell {tuple(cells[0])} (tile 1) does not touch the clamp "
                        "corner: the first cell needs row and column in {-1, 0}"] * 3
    assert not (tmp_path / "o").exists()


def test_analyze_outputs_and_dc_value(tmp_path):
    p = write_scenario(tmp_path)
    out = tmp_path / "out"
    rc = run(["--scenario", p, "--out", out, "analyze",
              "--fmin", 0.001, "--fmax", 10, "--points", 50])
    assert rc == 0
    lines = (out / "analyze.csv").read_text().strip().splitlines()
    assert lines[0] == "freq_hz,sigma_nominal,sigma_delta_minus,sigma_delta_plus"
    assert len(lines) == 51
    assert (out / "analyze.svg").read_text().startswith("<svg")

    # low-frequency nominal trace approaches 1 / J_xx of the full stack
    cfg, _ = cli.load_scenario(p)
    models = sc.ScenarioModels(cfg)
    J = models.total_inertia([(sc.AssemblyState(1, 1, 1, 0), (sc.HOME_JOINTS,) * 3)])[0]
    first = [float(v) for v in lines[1].split(",")]
    assert first[1] == pytest.approx(np.linalg.inv(J)[0, 0], rel=1e-4)


def test_analyze_deterministic_bytes(tmp_path):
    p = write_scenario(tmp_path)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run(["--scenario", p, "--out", out, "analyze",
                    "--points", 20]) == 0
        outs.append((out / "analyze.csv").read_bytes())
    assert outs[0] == outs[1]


def test_analyze_antiresonance_shift_with_delta(tmp_path):
    p = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert run(["--scenario", p, "--out", out, "analyze",
                "--fmin", 0.9, "--fmax", 1.8, "--points", 900]) == 0
    rows = np.loadtxt(out / "analyze.csv", delimiter=",", skiprows=1)
    f = rows[:, 0]
    for col, f_target in ((2, 1.0280), (3, 1.5420)):  # delta = -1, +1
        k = int(np.argmin(rows[:, col]))
        assert abs(f[k] - f_target) / f_target < 0.01


def test_analyze_one_sided_index_keeps_that_column(tmp_path):
    p = write_scenario(tmp_path)
    traces = {}
    for channel in ("T_G[0]:omega_dot_G", "T_G:omega_dot_G"):
        out = tmp_path / channel.replace(":", "-")
        assert run(["--scenario", p, "--out", out, "analyze", "--channel", channel,
                    "--fmin", 0.1, "--fmax", 5, "--points", 30]) == 0
        traces[channel] = np.loadtxt(out / "analyze.csv", delimiter=",", skiprows=1)

    # the nominal trace is sigma_max of column 0, the norm of that column
    cfg, _ = cli.load_scenario(p)
    plant = sc.ScenarioModels(cfg).open_loop(sc.AssemblyState(1, 1, 1, 0),
                                             (sc.HOME_JOINTS,) * 3)
    sub = linss.lft_upper(plant, 0.0).subsystem(outputs=["omega_dot_G"],
                                                inputs=["T_G"])
    f_hz = traces["T_G[0]:omega_dot_G"][:, 0]
    ref = [np.linalg.norm(sub.transfer_at(2j * np.pi * f)[:, 0]) for f in f_hz]
    assert np.allclose(traces["T_G[0]:omega_dot_G"][:, 1], ref, rtol=1e-9)
    assert not np.allclose(traces["T_G[0]:omega_dot_G"][:, 1],
                           traces["T_G:omega_dot_G"][:, 1], rtol=1e-3)


def test_optimize_walk_and_outputs(tmp_path, capsys):
    p = write_scenario(tmp_path)
    out = tmp_path / "out"
    rc = run(["--scenario", p, "--out", out, "optimize", "--cost", "h2-theta",
              "--from", "1,1", "--to", "2,2"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "cumulative optimized" in text
    rows = (out / "metrics_weighted.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == 2 * 2  # one edge, 2z systems
    assert (out / "graph_assemble_n2.csv").exists()
    # every row is a walking step, and the reported total is their sum
    cells = [r.split(",") for r in rows[1:]]
    assert {c[3] for c in cells} == {"walk"}
    total = next(line for line in text.splitlines()
                 if line.startswith("cumulative optimized:"))
    assert float(total.split(":")[1]) == pytest.approx(
        sum(float(c[1]) for c in cells), rel=1e-9)


def test_optimize_walk_to_its_own_start_exits_2(tmp_path, capsys):
    # a walk needs two nodes: rejected before anything is planned or written
    p = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert run(["--scenario", p, "--out", out, "optimize", "--cost", "h2-theta",
                "--from", "1,1", "--to", "1,1"]) == 2
    assert "error: --from and --to are the same node 1,1" in capsys.readouterr().err
    assert [f for f in out.rglob("*") if f.is_file()] == []


def test_full_assembly_of_one_tile_exits_2(tmp_path, capsys):
    # one tile is already the whole structure: rejected before anything
    # is planned or written
    p = write_scenario(tmp_path, n_tiles=1)
    out = tmp_path / "out"
    assert run(["--scenario", p, "--out", out, "full-assembly",
                "--cost", "h2-theta"]) == 2
    assert "error: full-assembly needs n_tiles >= 2" in capsys.readouterr().err
    assert [f for f in out.rglob("*") if f.is_file()] == []


@pytest.mark.parametrize("fields, command", [
    ({"n_tiles": 1}, ["full-assembly", "--cost", "h2-theta"]),
    ({}, ["optimize", "--cost", "h2-theta", "--from", "1,1", "--to", "1,1"]),
    ({}, ["validate"]),
], ids=["one-tile-full-assembly", "optimize-to-its-start", "validate"])
def test_run_that_writes_nothing_makes_no_out_directory(tmp_path, fields, command):
    # --out is made just before the first write: a rejected run, and
    # validate, which writes nothing, leave no directory behind
    p = write_scenario(tmp_path, **fields)
    out = tmp_path / "out"
    assert run(["--scenario", p, "--out", out, *command]) in (0, 2)
    assert not out.exists()


def test_optimize_hard_cap_unreachable_exits_4(tmp_path):
    p = write_scenario(tmp_path)
    rc = run(["--scenario", p, "--out", tmp_path / "o", "optimize",
              "--cost", "h2-theta", "--hard-cap", "1e-12",
              "--from", "1,1", "--to", "2,2"])
    assert rc == 4


def test_unreachable_goal_names_its_nodes_and_exits_4(tmp_path, capsys):
    # the message names the (tile, arm) nodes the user gave, not the
    # graph's row indices
    p = write_scenario(tmp_path)
    assert run(["--scenario", p, "--out", tmp_path / "o", "optimize",
                "--cost", "h2-theta", "--from", "1,1", "--to", "2,1"]) == 4
    err = capsys.readouterr().err
    assert "error: no path from node (1, 1) to node (2, 1)" in err


def test_full_assembly_small(tmp_path, capsys):
    p = write_scenario(tmp_path)
    out = tmp_path / "out"
    rc = run(["--scenario", p, "--out", out, "full-assembly",
              "--cost", "hinf-wrench"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "baseline excess" in text
    assert (out / "trajectory_weighted.txt").exists()
    assert (out / "metrics_baseline.csv").exists()
    assert (out / "graph_pickup_n1.csv").exists()
    assert (out / "plot_compare.svg").exists()
    w = np.loadtxt(out / "metrics_weighted.csv", delimiter=",", skiprows=1,
                   usecols=1, ndmin=1)
    cfg, _ = cli.load_scenario(p)
    # grid points = 2z per traversed edge
    assert w.size % (2 * cfg.z_grid) == 0


def test_uncertified_hinf_norm_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(linss, "_MAX_ROUNDS", 0)
    p = write_scenario(tmp_path)
    assert run(["--scenario", p, "--out", tmp_path / "out", "full-assembly",
                "--cost", "hinf-wrench"]) == 3
    assert capsys.readouterr().err == (
        "model error: H-infinity certificate failed after 0 rounds\n")


def test_full_assembly_mu_writes_flat_log_plot(tmp_path, capsys):
    # mu is the same value on every loop, so the comparison plot's log
    # axis has a flat range below 1, which must still get positive bounds
    p = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert run(["--scenario", p, "--out", out, "full-assembly", "--cost", "mu"]) == 0
    assert (out / "summary.txt").exists()
    svg = (out / "plot_compare.svg").read_text()
    assert "<polyline" in svg and "nan" not in svg
