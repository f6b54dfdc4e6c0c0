"""flexasm planner benchmark.

    python3 perfbench/run.py --workload assembly-n4 --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Each iteration runs in a fresh worker process (``worker.py``)
with the BLAS/OpenMP thread pools pinned to one thread.  Iterations repeat
until ``--seconds`` have passed, at least one; a cold ``assembly-n4``
iteration takes longer than that on two cores, so its run holds one.  With
``--trace 0`` three extra set-up-only workers give ``setup_s`` more samples.

Every plan is checked against ``reference.json`` (stage paths exactly,
cumulative costs within the norms' ``rtol`` of 1e-6, infinite-edge counts
exactly) and must satisfy optimized <= baseline.  A plan that raises or
fails a check counts in ``failed``.

Human-readable lines come first: the environment, then every sample's
median, quartiles and count (raw and idle-core-speed times, ``plan_s`` and
``plan_ref_s`` per cost), then ``fail_ratio``.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  Results and spans are written under
``.bench_out/``.  ``METRICS.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import ALL, WORKLOADS, start_arm  # noqa: E402

REFERENCE = HERE / "reference.json"
OUT = ROOT / ".bench_out"
RTOL = 1e-6
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "cpu_ref_s": "s",
              "peak_rss_mb": "MB"}
SAMPLE_UNITS = {**END_TO_END, "speed_ratio": "ratio"}


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(("_s", ".s")) or name.startswith("plan_s."):
        return "s"
    return "count"


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------

def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(workload, seed, workdir, deadline, setup_only=False, trace_file=None):
    """Run one worker; returns its JSON output or raises RuntimeError."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    t0 = time.time()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=_worker_env(),
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"worker timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise RuntimeError(f"worker exited {proc.returncode}: {tail[0]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    src = Path(out["env"]["flexasm"]).resolve()
    if src != (ROOT / "src" / "flexasm").resolve():
        raise RuntimeError(f"worker imported flexasm from {src}, not this checkout")
    return out


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def check_plan(plan: dict, expected) -> list:
    """Problems with one plan; ``expected`` is its reference entry or None."""
    if "error" in plan:
        return [plan["error"]]
    problems = []
    if plan["cumulative"] > plan["cumulative_baseline"] * (1.0 + RTOL):
        problems.append(f"optimized {plan['cumulative']!r} > baseline "
                        f"{plan['cumulative_baseline']!r}")
    if expected is None:
        return problems
    for key in ("paths", "paths_baseline", "inf_edges"):
        if plan[key] != expected[key]:
            problems.append(f"{key}: {plan[key]!r} != reference {expected[key]!r}")
    for key in ("cumulative", "cumulative_baseline"):
        if not math.isclose(plan[key], expected[key], rel_tol=RTOL):
            problems.append(f"{key}: {plan[key]!r} != reference {expected[key]!r}")
    return problems


def expected_plan(reference: dict, workload: str, seed: int, cost: str):
    entry = reference.get(workload, {}).get(str(start_arm(seed)), {})
    return entry.get(cost)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit():
    """HEAD commit read from ``.git`` without running git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload: str, seed: int, seconds: float, trace: bool,
            reference: dict, setup_probes: int = SETUP_PROBES) -> dict:
    """Run one workload for ``seconds`` and check every plan."""
    wl = ALL[workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    tag = f"{workload}-s{seed}-t{int(trace)}"
    workdir = OUT / tag
    OUT.mkdir(exist_ok=True)
    setups, iters, problems = [], [], []
    attempted = failed = 0

    if not trace:
        for _ in range(setup_probes):
            setups.append(spawn(workload, seed, workdir, deadline,
                                setup_only=True)["setup_s"])

    start = time.monotonic()
    while not iters or time.monotonic() - start < seconds:
        trace_file = OUT / f"spans-{tag}-{len(iters)}.json" if trace else None
        attempted += len(wl.costs)
        try:
            out = spawn(workload, seed, workdir, deadline, trace_file=trace_file)
        except RuntimeError as exc:
            failed += len(wl.costs)
            problems.append(f"iteration {len(iters)}: {exc}")
            break
        iters.append(out)
        setups.append(out["setup_s"])
        for plan in out["plans"]:
            bad = check_plan(plan, expected_plan(reference, workload, seed,
                                                 plan["cost"]))
            if bad:
                failed += 1
                problems += [f"{plan['cost']}: {b}" for b in bad]
    if not iters:
        raise RuntimeError("; ".join(problems))

    samples = {"setup_s": setups}
    for key in ("wall_ref_s", "cpu_ref_s", "peak_rss_mb", "wall_s", "cpu_s",
                "speed_ratio"):
        samples[key] = [it[key] for it in iters]
    for key in ("plan_ref_s", "plan_s"):
        for cost in wl.costs:
            samples[f"{key}.{cost}"] = [p[key] for it in iters
                                        for p in it["plans"] if p["cost"] == cost]
    layers = {}
    if trace:
        names = iters[0]["layers"]
        layers = {k: [it["layers"][k] for it in iters] for k in names}

    return {"workload": workload, "seed": seed, "start_arm": start_arm(seed),
            "trace": trace, "attempted": attempted, "failed": failed,
            "problems": problems, "samples": samples, "layers": layers,
            "plans": [it["plans"] for it in iters],
            "env": {**iters[0]["env"], "nproc": os.cpu_count(),
                    "blas_threads": 1, "git_commit": _git_commit(),
                    "src_sha256": _source_digest()}}


def report(res: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    print(f"workload {res['workload']} seed {res['seed']} "
          f"start arm {res['start_arm']} trace {int(res['trace'])}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    metrics = {}
    if res["trace"]:
        for name, values in res["layers"].items():
            value = statistics.median(values)
            metrics[name] = {"value": value, "unit": layer_unit(name)}
            counts_vary = (layer_unit(name) == "count" and len(set(values)) > 1)
            print(f"{name:42s} {value:14.6g} {layer_unit(name):6s} n={len(values)}"
                  + ("  (counts differ between iterations)" if counts_vary else ""))
    else:
        for name, values in res["samples"].items():
            if not values:
                continue
            q1, q3 = _quartiles(values)
            unit = SAMPLE_UNITS.get(name, "s")
            print(f"{name:24s} median {statistics.median(values):12.6g} {unit:3s} "
                  f"q1 {q1:.6g} q3 {q3:.6g} n={len(values)}")
            if name in END_TO_END:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
    print(f"fail_ratio {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']}/{res['attempted']} plans)")
    for p in res["problems"]:
        print(f"FAIL {p}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)

    if not (ROOT / "src" / "flexasm" / "__init__.py").is_file():
        print(f"error: no flexasm source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    try:
        res = measure(a.workload, a.seed, a.seconds, bool(a.trace), reference)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    final = report(res)
    (OUT / f"result-{a.workload}-s{a.seed}-t{a.trace}.json").write_text(
        json.dumps({**res, "result": final}, indent=1), encoding="utf-8")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
