"""Per-layer tracing from outside the library.

The tracer replaces public flexasm functions by thin wrappers at the place
where their callers look them up.  ``from .linss import hinf_norm`` binds
the function into ``flexasm.pathopt``, so patching ``flexasm.linss`` alone
would miss that caller; :meth:`Tracer.install` therefore rebinds every
module attribute that *is* the original function.  Methods are patched on
their class.

Two kinds of wrapper exist:

* a span wrapper records ``[name, start, end, parent, nested, tag,
  failed]`` in memory; the parent is the innermost enclosing span, so the
  spans of one plan form a tree and self time can be derived;
* a count-only wrapper bumps a counter.  It is used for the hot leaves
  (``dcm_about_axis`` runs about a million times per assembly plan),
  where a span per call would cost more than the work it measures.

Nothing here changes what the library computes: every wrapper returns the
wrapped function's result, or re-raises its exception, unchanged.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import Counter

import numpy as np

MODULES = ("linss", "multibody", "modal", "robot", "scenario", "robust",
           "pathopt", "cli")

# (metric prefix, module, attribute, kind); kind "span" or "count".
FUNCTIONS = (
    ("linss.interconnect", "linss", "interconnect", "span"),
    ("linss.minimal_stable_projection", "linss", "minimal_stable_projection", "span"),
    ("linss.hinf_norm", "linss", "hinf_norm", "span"),
    ("linss.h2_norm", "linss", "h2_norm", "span"),
    ("linss.sigma_max", "linss", "sigma_max", "count"),
    ("linss.lft_upper", "linss", "lft_upper", "count"),
    ("multibody.apply_frame", "multibody", "apply_frame", "span"),
    ("multibody.dcm_about_axis", "multibody", "dcm_about_axis", "count"),
    ("modal.build_lattice", "modal", "build_lattice", "span"),
    ("modal.modal_reduce", "modal", "modal_reduce", "span"),
    ("robot.dls_solve", "robot", "dls_solve", "span"),
    ("robot.link_poses", "robot", "link_poses", "count"),
    ("scenario.close_loop", "scenario", "close_loop", "span"),
    ("robust.mu_real_repeated", "robust", "mu_real_repeated", "span"),
    ("pathopt.grid_edge_models", "pathopt", "grid_edge_models", "span"),
    ("pathopt.edge_cost", "pathopt", "edge_cost", "span"),
    ("pathopt.shortest_path", "pathopt", "shortest_path", "span"),
    ("cli.main", "cli", "main", "span"),
)

# (metric prefix, module, class, method); always spans.
METHODS = (
    ("scenario.solve_reach", "scenario", "ScenarioModels", "solve_reach"),
    ("scenario.open_loop", "scenario", "ScenarioModels", "open_loop"),
    ("scenario.design_gains", "scenario", "ScenarioModels", "design_gains"),
    ("pathopt.plan_full_assembly", "pathopt", "AssemblyPlanner", "plan_full_assembly"),
)

NAME, START, END, PARENT, NESTED, TAG, FAILED = range(7)


class Tracer:
    """Wraps flexasm's public functions and keeps spans and counters."""

    def __init__(self):
        self.spans = []
        self.leaf_calls = Counter()     # count-only wrappers
        self.counts = Counter()         # observations made by _observe
        self._stack = []
        self._active = Counter()
        self._patches = []          # (owner, attribute, original)
        self._reach_keys = set()
        self._used_edges = set()

    # -- wrappers ------------------------------------------------------------

    def _observe(self, name, args, result, span):
        """Record what a call says about the planner beyond its duration."""
        if name == "scenario.solve_reach":
            state, reach_arm, target = args[1:4]
            self._reach_keys.add((state.j, state.arm, reach_arm,
                                  tuple(np.round(np.asarray(target, float), 12))))
        elif name == "pathopt.grid_edge_models" and result is not None:
            self.counts["pathopt.systems_built"] += len(result.systems)
        elif name == "pathopt.edge_cost" and result is not None:
            if not math.isfinite(result[0]):
                self.counts["pathopt.edges_infinite.cap"] += 1
        elif name == "pathopt.plan_full_assembly" and result is not None:
            span[TAG] = result.spec.kind
            for stage in result.stages + result.stages_baseline:
                for e in stage.edges:
                    self._used_edges.add((e.kind, e.n, e.src, e.dst))

    def _span_wrapper(self, name, fn):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    active[name] > 0, None, False]
            spans.append(span)
            stack.append(len(spans) - 1)
            active[name] += 1
            result = None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                active[name] -= 1
                stack.pop()
                self._observe(name, args, result, span)

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn):
        counts = self.leaf_calls

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- install / uninstall -------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"flexasm.{m}") for m in MODULES}
        for name, home, attr, kind in FUNCTIONS:
            original = getattr(mods[home], attr)
            wrap = self._span_wrapper if kind == "span" else self._count_wrapper
            wrapper = wrap(name, original)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, home, cls_name, meth in METHODS:
            cls = getattr(mods[home], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._span_wrapper(name, original))
        return self

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- derived metrics -----------------------------------------------------

    def metrics(self, overhead_s: float) -> dict:
        """Per-layer counts and times; ``.s`` is inclusive, ``.self_s``
        excludes the time of spans nested inside."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for sp in spans:
            if sp[PARENT] >= 0:
                child_time[sp[PARENT]] += sp[END] - sp[START]
        calls, failed, incl, self_s, failed_s = (Counter() for _ in range(5))
        plan_s = Counter()
        for i, sp in enumerate(spans):
            name, dur = sp[NAME], sp[END] - sp[START]
            calls[name] += 1
            self_s[name] += dur - child_time[i]
            if not sp[NESTED]:
                incl[name] += dur
            if sp[FAILED]:
                failed[name] += 1
                failed_s[name] += dur
            if sp[TAG] is not None:
                plan_s[sp[TAG]] += dur

        m = {}

        def timed(prefix):
            m[f"{prefix}.calls"] = calls[prefix]
            m[f"{prefix}.s"] = incl[prefix]
            m[f"{prefix}.self_s"] = self_s[prefix]

        for prefix in ("scenario.solve_reach", "robot.dls_solve",
                       "scenario.open_loop", "scenario.close_loop",
                       "linss.interconnect", "multibody.apply_frame",
                       "linss.minimal_stable_projection", "linss.hinf_norm",
                       "linss.h2_norm", "robust.mu_real_repeated",
                       "pathopt.grid_edge_models", "pathopt.edge_cost",
                       "pathopt.shortest_path", "modal.build_lattice",
                       "modal.modal_reduce"):
            timed(prefix)
        for prefix in ("scenario.solve_reach", "robot.dls_solve",
                       "pathopt.grid_edge_models"):
            m[f"{prefix}.failed"] = failed[prefix]
        m["scenario.solve_reach.failed_s"] = failed_s["scenario.solve_reach"]
        reach_calls = calls["scenario.solve_reach"]
        m["scenario.solve_reach.unique_ratio"] = (
            len(self._reach_keys) / reach_calls if reach_calls else 0.0)
        for prefix in ("robot.link_poses", "multibody.dcm_about_axis",
                       "linss.sigma_max", "linss.lft_upper"):
            m[f"{prefix}.calls"] = self.leaf_calls[prefix]
        m["pathopt.systems_built"] = self.counts["pathopt.systems_built"]
        m["pathopt.edges_infinite.ik"] = failed["pathopt.grid_edge_models"]
        m["pathopt.edges_infinite.cap"] = self.counts["pathopt.edges_infinite.cap"]
        priced = calls["pathopt.grid_edge_models"]
        m["pathopt.edges_used_ratio"] = len(self._used_edges) / priced if priced else 0.0
        m["scenario.design_gains.s"] = incl["scenario.design_gains"]
        m["cli.main.s"] = incl["cli.main"]
        m["cli.output_s"] = self._cli_output_s()
        for kind in ("hinf-wrench", "h2-theta", "hinf-isens", "mu"):
            m[f"plan_s.{kind}"] = plan_s[kind]
        m["trace.overhead_s"] = overhead_s
        return m

    def _cli_output_s(self) -> float:
        """Time ``cli.main`` spends after its plan returns: writing the
        CSV, text, graph and SVG outputs."""
        total = 0.0
        for i, sp in enumerate(self.spans):
            if sp[NAME] != "cli.main" or sp[NESTED]:
                continue
            last_plan_end = max((c[END] for c in self.spans
                                 if c[PARENT] == i and c[TAG] is not None),
                                default=None)
            if last_plan_end is not None:
                total += sp[END] - last_plan_end
        return total

    def wrapped_calls(self):
        """(span calls, count-only calls) made so far."""
        return len(self.spans), sum(self.leaf_calls.values())

    def write(self, path):
        """Dump the spans as JSON rows ``[name, start, end, parent, tag,
        failed]`` with times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[s[NAME], round(s[START] - t0, 9), round(s[END] - t0, 9),
                 s[PARENT], s[TAG], s[FAILED]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "tag",
                                  "failed"], "spans": rows,
                       "leaf_calls": dict(self.leaf_calls)}, fh)


def wrapper_cost(n: int = 20000):
    """Measured seconds per call added by a span and a count-only wrapper.

    Multiplied by the wrapped call counts this estimates the tracing
    overhead of a traced run.
    """
    def leaf(x):
        return x

    probe = Tracer()
    span = probe._span_wrapper("probe", leaf)
    count = probe._count_wrapper("probe", leaf)
    costs = []
    for fn in (span, count):
        best = math.inf
        for _ in range(3):
            probe.spans.clear()
            t0 = time.perf_counter()
            for i in range(n):
                fn(i)
            t1 = time.perf_counter()
            for i in range(n):
                leaf(i)
            t2 = time.perf_counter()
            best = min(best, ((t1 - t0) - (t2 - t1)) / n)
        costs.append(max(best, 0.0))
    return tuple(costs)
