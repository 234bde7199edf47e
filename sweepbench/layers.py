"""Per-layer timing for the traced run: wrappers around each layer's calls.

The program has no in-process layer timers yet, so the traced run wraps
the public functions and methods each layer exposes, from this file
only, and reads the counters ``repro.obs`` already keeps.  Nothing here
is installed during an untraced run.

Two rules make the wrappers honest:

* A function is patched under *every* name a caller looks it up by.
  ``from x import f`` copies the binding, so patching only the defining
  module would miss every call made through a copy.  :func:`install`
  therefore rebinds each target in every loaded ``repro`` module that
  holds the same object.
* Wrapped calls nest (a BBB lane reaction calls ``bbb_coloring``, which
  calls DSATUR).  Every wrapper charges its elapsed time to its caller's
  *child* time, so each layer also has a self time: its own time minus
  the wrapped calls made inside it.  :data:`METRICS` says which metrics
  report self time.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

__all__ = ["METRICS", "LayerTimer", "install", "layer_metrics"]

LANES = ("BBB", "Minim", "CP")

#: Every per-layer metric of the traced run: name -> unit.
METRICS: dict[str, str] = {
    "obs.traced_wall_s": "s",
    "obs.trace_overhead_ratio": "ratio",
    "sweep.plan_s": "s",
    "sweep.claim_s": "s",
    "sweep.collect_s": "s",
    "sweep.points": "count",
    "sweep.points_cached": "count",
    "executor.compute_group_s": "s",
    "executor.groups": "count",
    "executor.persist_s": "s",
    **{f"lane.{lane}_s": "s" for lane in LANES},
    **{f"lane.{lane}.events": "count" for lane in LANES},
    "coloring.bbb_coloring_s": "s",
    "coloring.dsatur_s": "s",
    "coloring.smallest_last_s": "s",
    "coloring.greedy_s": "s",
    "coloring.conflict_adjacency_s": "s",
    "minim.plan_local_matching_recode_s": "s",
    "matching.max_weight_matching_s": "s",
    "coloring.forbidden_colors_s": "s",
    "coloring.forbidden_colors_calls": "count",
    "cp.reselect_colors_s": "s",
    "cp.reselect_colors_calls": "count",
    "topology.apply_event_s": "s",
    "topology.events": "count",
    "topology.memo_hit_ratio": "ratio",
    "topology.memo_lookups": "count",
    "timeline.build_plan_s": "s",
    "timeline.checkpoint_self_s": "s",
    "timeline.resume_self_s": "s",
    "timeline.rounds_saved_ratio": "ratio",
    "timeline.stages": "count",
    "store.save_point_s": "s",
    "store.load_points_s": "s",
    "store.put_checkpoint_s": "s",
    "store.get_checkpoint_s": "s",
    "store.ckpt_hit_ratio": "ratio",
    "store.ckpt_gets": "count",
    "store.point_hit_ratio": "ratio",
    "store.point_lookups": "count",
    "store.db_mb": "MB",
}

#: Wrapped functions: (defining module, attribute) -> timer name.
_FUNCTIONS = {
    ("repro.coloring.bbb", "bbb_coloring"): "coloring.bbb_coloring",
    ("repro.coloring.dsatur", "dsatur_color_matrix"): "coloring.dsatur",
    ("repro.coloring.smallest_last", "smallest_last_order"): "coloring.smallest_last",
    ("repro.coloring.greedy", "greedy_color_matrix"): "coloring.greedy",
    ("repro.topology.conflicts", "conflict_adjacency"): "coloring.conflict_adjacency",
    ("repro.strategies.minim.join", "plan_local_matching_recode"): (
        "minim.plan_local_matching_recode"
    ),
    ("repro.matching", "max_weight_matching"): "matching.max_weight_matching",
    ("repro.coloring.constraints", "forbidden_colors"): "coloring.forbidden_colors",
    ("repro.strategies.cp.selection", "reselect_colors"): "cp.reselect_colors",
    ("repro.sim.timeline", "build_plan"): "timeline.build_plan",
    ("repro.sim.executor", "compute_group"): "executor.compute_group",
}

#: Wrapped methods: (module, class, method) -> timer name.
_METHODS = {
    ("repro.topology.digraph", "AdHocDigraph", "apply_event"): "topology.apply_event",
    ("repro.sim.timeline", "CheckpointTree", "checkpoint"): "timeline.checkpoint",
    ("repro.sim.timeline", "CheckpointTree", "resume"): "timeline.resume",
    ("repro.sim.results", "SqliteBackend", "save_point"): "store.save_point",
    ("repro.sim.results", "SqliteBackend", "load_points"): "store.load_points",
    ("repro.sim.results", "SqliteBackend", "put_checkpoint"): "store.put_checkpoint",
    ("repro.sim.results", "SqliteBackend", "get_checkpoint"): "store.get_checkpoint",
}


@dataclass
class LayerTimer:
    """Accumulated inclusive time, self time and calls per timer name."""

    total: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    self_time: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _stack: list[list[float]] = field(default_factory=list)

    def wrap(self, fn, name):
        """``fn`` timed under ``name`` (a string, or a callable of the call's
        first argument, which names lanes by their strategy)."""
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            key = name if isinstance(name, str) else name(args[0])
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.total[key] += elapsed
                self.self_time[key] += elapsed - frame[0]
                self.calls[key] += 1
                if stack:
                    stack[-1][0] += elapsed

        return timed


def _rebind(old, new) -> None:
    """Point every ``repro`` module binding of ``old`` at ``new``."""
    for module in list(sys.modules.values()):
        if module is None or module.__name__.split(".")[0] != "repro":
            continue
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)


def install(timer: LayerTimer):
    """Install every wrapper; returns a callable that removes them all."""
    import importlib

    swaps = []
    for (module_name, attr), name in _FUNCTIONS.items():
        original = getattr(importlib.import_module(module_name), attr)
        timed = timer.wrap(original, name)
        _rebind(original, timed)
        swaps.append((timed, original))
    methods = dict(_METHODS)
    methods[("repro.sim.network", "StrategyLane", "react")] = lambda lane: (
        f"lane.{lane.strategy.name}"
    )
    undo = []
    for (module_name, cls_name, attr), name in methods.items():
        cls = getattr(importlib.import_module(module_name), cls_name)
        undo.append((cls, attr, getattr(cls, attr), attr in vars(cls)))
        setattr(cls, attr, timer.wrap(getattr(cls, attr), name))

    def uninstall() -> None:
        for timed, original in swaps:
            _rebind(timed, original)  # also reaches modules imported while traced
        for cls, attr, original, own in undo:
            if own:
                setattr(cls, attr, original)
            else:
                delattr(cls, attr)  # the method was inherited: unshadow it

    return uninstall


def _ratio(hits: float, base: float) -> float:
    return hits / base if base else 0.0


def layer_metrics(
    timer: LayerTimer,
    spans: dict[str, float],
    counters: dict[str, float],
    *,
    passes: int,
    points: int,
    points_cached: int,
    db_mb: float,
    traced_wall_s: float,
    trace_overhead_ratio: float,
) -> dict[str, float]:
    """Every :data:`METRICS` value, per traced pass.

    ``timer`` holds the wrapper totals of ``passes`` traced passes,
    ``spans`` the summed span durations by name, ``counters`` the
    ``repro.obs`` registry counters; ``points``/``points_cached``,
    ``db_mb``, ``traced_wall_s`` and ``trace_overhead_ratio`` (the
    median ratio of a traced pass to its untraced neighbour) are per
    pass already.  Lanes and ``compute_group`` report
    inclusive time; every other ``*_s`` is self time, which equals
    inclusive time for layers with no wrapped call inside.
    """
    per = 1.0 / passes
    own = {k: v * per for k, v in timer.self_time.items()}
    total = {k: v * per for k, v in timer.total.items()}
    calls = {k: v * per for k, v in timer.calls.items()}
    c = {k: v * per for k, v in counters.items()}
    memo = c.get("core.memo.hit", 0) + c.get("core.memo.miss", 0)
    stages = c.get("timeline.rounds.saved", 0) + c.get("timeline.rounds.replayed", 0)
    ckpt_gets = c.get("store.ckpt.hit", 0) + c.get("store.ckpt.miss", 0)
    lookups = c.get("store.point.hit", 0) + c.get("store.point.miss", 0)
    compute = total.get("executor.compute_group", 0.0)
    out = {
        "obs.traced_wall_s": traced_wall_s,
        "obs.trace_overhead_ratio": trace_overhead_ratio,
        "sweep.plan_s": spans.get("sweep.plan", 0.0) * per,
        "sweep.claim_s": spans.get("sweep.claim", 0.0) * per,
        "sweep.collect_s": spans.get("sweep.collect", 0.0) * per,
        "sweep.points": points,
        "sweep.points_cached": points_cached,
        "executor.compute_group_s": compute,
        "executor.groups": calls.get("executor.compute_group", 0),
        "executor.persist_s": spans.get("sweep.execute", 0.0) * per - compute,
        "topology.memo_hit_ratio": _ratio(c.get("core.memo.hit", 0), memo),
        "topology.memo_lookups": memo,
        "timeline.checkpoint_self_s": own.get("timeline.checkpoint", 0.0),
        "timeline.resume_self_s": own.get("timeline.resume", 0.0),
        "timeline.rounds_saved_ratio": _ratio(c.get("timeline.rounds.saved", 0), stages),
        "timeline.stages": stages,
        "store.ckpt_hit_ratio": _ratio(c.get("store.ckpt.hit", 0), ckpt_gets),
        "store.ckpt_gets": ckpt_gets,
        "store.point_hit_ratio": _ratio(c.get("store.point.hit", 0), lookups),
        "store.point_lookups": lookups,
        "store.db_mb": db_mb,
        "coloring.forbidden_colors_calls": calls.get("coloring.forbidden_colors", 0),
        "cp.reselect_colors_calls": calls.get("cp.reselect_colors", 0),
        "topology.events": calls.get("topology.apply_event", 0),
    }
    for lane in LANES:
        out[f"lane.{lane}_s"] = total.get(f"lane.{lane}", 0.0)
        out[f"lane.{lane}.events"] = calls.get(f"lane.{lane}", 0)
    for name in set(_FUNCTIONS.values()) | set(_METHODS.values()):
        metric = f"{name}_s"
        if metric in METRICS and metric not in out:
            out[metric] = own.get(name, 0.0)
    missing = set(METRICS) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: float(out[name]) for name in METRICS}
