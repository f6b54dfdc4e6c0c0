"""Command line front end: scenario files, outputs, exit codes."""

import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import flexasm
from flexasm import cli
from flexasm import scenario as sc


def mounts(**given):
    """All three mount DCMs of the table, with the named ones replaced."""
    table = {f"A{k}": np.asarray(v).tolist() for k, v in sc.ARM_MOUNT_DCMS.items()}
    return {"mount_dcms": {**table, **given}}


def write_scenario(tmp_path, name="s.yaml", **fields):
    doc = {"n_tiles": 2, "z_grid": 2, "structure": {"n_modes": 2}}
    doc.update(fields)
    p = tmp_path / name
    p.write_text(yaml.safe_dump(doc))
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


# ---------------------------------------------------------------------------
# commands and exit codes
# ---------------------------------------------------------------------------

def test_missing_scenario_exits_2(tmp_path):
    assert run(["--scenario", tmp_path / "nope.yaml", "--out", tmp_path,
                "validate"]) == 2


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
], ids=str)
def test_bad_scenario_values_exit_2(tmp_path, capsys, fields):
    # rejected where the scenario is built, before any gain is designed
    p = write_scenario(tmp_path, **fields)
    assert exit_code(["--scenario", p, "--out", tmp_path / "o",
                      "full-assembly", "--cost", "h2-theta"]) == 2
    assert "error: " in capsys.readouterr().err


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


def test_planner_imports_leave_out_scipy_optimize():
    # the H-infinity polish has its own scalar search: scipy.optimize would
    # add about 20 MB to every planner process
    src = os.path.join(os.path.dirname(flexasm.__file__), os.pardir)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, flexasm.cli, flexasm.pathopt; "
         "print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_validate_passes_on_desk(tmp_path, capsys):
    assert run(["--out", tmp_path, "validate"]) == 0
    out = capsys.readouterr().out
    assert "fail" in out and "0 fail" in out


def test_validate_fails_on_zero_damping_body(tmp_path):
    bad_body = {
        "name": "bad_array", "mass_kg": 10.0,
        "inertia_kgm2": [[1.0, 0.0, 0.0], [1.0, 0.0], [1.0]],
        "freqs_hz": [1.0], "dampings": [0.0],
        "participation": [[0.1, 0, 0, 0, 0, 0]],
    }
    (tmp_path / "bad_array.yaml").write_text(yaml.safe_dump(bad_body))
    p = write_scenario(tmp_path, solar_array_file="bad_array.yaml")
    assert run(["--scenario", p, "--out", tmp_path, "validate"]) == 3


def test_validate_fails_on_detached_layout(tmp_path):
    p = write_scenario(tmp_path, layout={"cells": [[0, 0], [3, 3]]})
    assert run(["--scenario", p, "--out", tmp_path, "validate"]) == 3


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
    J = models.total_inertia(sc.AssemblyState(1, 1, 1, 0), (sc.HOME_JOINTS,) * 3)
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


def test_optimize_hard_cap_unreachable_exits_4(tmp_path):
    p = write_scenario(tmp_path)
    rc = run(["--scenario", p, "--out", tmp_path / "o", "optimize",
              "--cost", "h2-theta", "--hard-cap", "1e-12",
              "--from", "1,1", "--to", "2,2"])
    assert rc == 4


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
