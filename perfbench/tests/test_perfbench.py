"""Self-test of the benchmark on a two-tile structure at z = 2 (seconds).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from workloads import TINY  # noqa: E402

PLAN_KEYS = ("paths", "paths_baseline", "cumulative", "cumulative_baseline",
             "inf_edges")


@pytest.fixture(autouse=True)
def _out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "bench_out")


def _plans(res):
    return [{k: p[k] for k in ("cost",) + PLAN_KEYS} for p in res["plans"][0]]


def _reference(res):
    arm = str(res["start_arm"])
    return {res["workload"]: {arm: {p["cost"]: {k: p[k] for k in PLAN_KEYS}
                                    for p in res["plans"][0]}}}


@pytest.fixture(scope="module")
def library_runs(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.setattr(run, "OUT", tmp_path_factory.mktemp("bench_out"))
    try:
        plain = run.measure("tiny-n2", 0, 0, False, {}, setup_probes=1)
        traced = [run.measure("tiny-n2", 0, 0, True, _reference(plain))
                  for _ in range(2)]
    finally:
        mp.undo()
    return plain, traced


def test_traced_counts_match_what_the_planner_observes(library_runs):
    from flexasm.pathopt import build_node_graphs
    from flexasm.scenario import table_scenario

    _, traced = library_runs
    wl = TINY["tiny-n2"]
    cfg = table_scenario(wl.n_tiles, z_grid=wl.z)
    edges = {(g.kind, n, i, k) for n in range(1, wl.n_tiles)
             for g in build_node_graphs(cfg, n) for i, k in g.edges()}
    m = {k: v[0] for k, v in traced[0]["layers"].items()}
    assert m["pathopt.grid_edge_models.calls"] == len(edges)
    built = m["pathopt.grid_edge_models.calls"] - m["pathopt.grid_edge_models.failed"]
    assert m["pathopt.systems_built"] == 2 * wl.z * built
    assert m["scenario.open_loop.calls"] == m["pathopt.systems_built"]
    assert m["pathopt.edge_cost.calls"] == len(wl.costs) * built
    assert m["linss.hinf_norm.calls"] == 2 * m["pathopt.systems_built"]
    assert m["robust.mu_real_repeated.calls"] == m["pathopt.systems_built"]
    assert all(m[f"plan_s.{c}"] > 0 for c in wl.costs)


def test_traced_counts_repeat_exactly(library_runs):
    _, (a, b) = library_runs
    for name, values in a["layers"].items():
        if run.layer_unit(name) != "s" and not name.startswith("trace."):
            assert values == b["layers"][name], name


def test_traced_and_untraced_plans_are_identical(library_runs):
    plain, traced = library_runs
    assert _plans(traced[0]) == _plans(plain)
    assert traced[0]["failed"] == 0 and traced[0]["attempted"] == len(TINY["tiny-n2"].costs)


def test_cli_plans_match_library_plans_and_trace_cli(library_runs):
    plain, _ = library_runs
    cli = run.measure("tiny-cli-n2", 0, 0, True, {})
    h2 = next(p for p in _plans(plain) if p["cost"] == "h2-theta")
    (cli_plan,) = _plans(cli)
    assert cli_plan["paths"] == h2["paths"]
    assert cli_plan["cumulative"] == pytest.approx(h2["cumulative"], rel=run.RTOL)
    layers = {k: v[0] for k, v in cli["layers"].items()}
    assert layers["cli.main.s"] >= layers["plan_s.h2-theta"] > 0
    assert layers["cli.output_s"] > 0


def test_corrupted_reference_is_a_failure():
    good = run.measure("tiny-cli-n2", 0, 0, False, {}, setup_probes=0)
    ref = _reference(good)
    clean = run.report(run.measure("tiny-cli-n2", 0, 0, False, ref, setup_probes=0))
    assert clean["correct"] and clean["failed"] == 0
    for corrupt in ("path", "cost", "inf_edges"):
        entry = copy.deepcopy(ref)
        plan = next(iter(next(iter(entry.values())).values()))["h2-theta"]
        if corrupt == "path":
            plan["paths"][0] += " -> stack"
        elif corrupt == "cost":
            plan["cumulative"] *= 1.0 + 1e-5
        else:
            plan["inf_edges"] += 1
        final = run.report(run.measure("tiny-cli-n2", 0, 0, False, entry,
                                       setup_probes=0))
        assert (final["correct"], final["attempted"], final["failed"]) == \
            (False, 1, 1), corrupt


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "strip-n4-h2", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
