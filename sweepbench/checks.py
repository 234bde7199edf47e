"""Correctness checks the benchmark applies to the series it times.

* :func:`series_digest` — a content hash of a pass's series, with the
  per-invocation ``notes`` (computed/cached split) left out.  Every pass
  of a run must hash alike, and with the default seed the hash must
  match ``reference.json`` in this directory.
* :func:`replay_point` — an independent replay of one (point, run)
  through ``MultiStrategyReplay(..., validate=True)``, which checks CA1
  and CA2 after every event, with the point's measure re-derived here
  rather than taken from the timeline walker; :func:`replay_mean`
  averages a point's runs the way the sweep's collect stage does.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.analysis.series import ExperimentSeries
from repro.sim.network import MultiStrategyReplay
from repro.sim.sweep import ABS_METRICS, DELTA_METRICS, build_sweep
from repro.sim.timeline import build_plan
from repro.strategies import make_strategy

__all__ = [
    "REFERENCE_SEED",
    "reference_digest",
    "replay_mean",
    "replay_point",
    "same_series",
    "series_digest",
    "series_value",
]

REFERENCE_SEED = 2001
_REFERENCE = Path(__file__).with_name("reference.json")


def _canonical(series: ExperimentSeries) -> dict:
    data = series.to_dict()
    data.pop("notes")
    return data


def series_digest(series_list: list[ExperimentSeries]) -> str:
    """SHA-256 of the series' canonical JSON, ``notes`` excluded."""
    payload = json.dumps(
        [_canonical(s) for s in series_list], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def same_series(a: ExperimentSeries, b: ExperimentSeries) -> bool:
    """Whether two series agree byte for byte apart from ``notes``."""
    return series_digest([a]) == series_digest([b])


def reference_digest(workload: str) -> str:
    """The stored digest of ``workload`` at :data:`REFERENCE_SEED`."""
    return json.loads(_REFERENCE.read_text())[workload]


def series_value(series: ExperimentSeries, point: int, measure: str) -> list[list]:
    """A series' mean at ``point`` in the replay's result shape."""
    strategies = series.strategies()
    if measure == "delta_rounds":
        rounds = len(series.x_values)
        return [
            [[series.metrics[m][s][t] for m in DELTA_METRICS] for t in range(rounds)]
            for s in strategies
        ]
    names = DELTA_METRICS if measure == "delta" else ABS_METRICS
    return [[series.metrics[m][s][point] for m in names] for s in strategies]


def _triple(before, lane) -> list[float]:
    d = before.delta(lane.metrics.snapshot())
    return [float(d.max_color), float(d.total_recodings), float(d.total_messages)]


def replay_mean(scenario, seed: int, point: int, runs: int) -> list:
    """The mean of :func:`replay_point` over ``runs`` runs, as a series holds it."""
    results = [replay_point(scenario, seed, point, run) for run in range(runs)]
    return np.asarray(results, dtype=np.float64).mean(axis=0).tolist()


def replay_point(scenario, seed: int, point: int, run: int) -> list[list]:
    """Replay one (point, run) of a sweep with CA1/CA2 validation.

    Raises whatever the validation raises on the first invalid
    assignment.  Returns the point's result in :func:`series_value`'s
    shape, derived from the lanes' metrics.
    """
    sweep = build_sweep(scenario, runs=run + 1, seed=seed)
    spec = sweep.points[point]
    plan = build_plan(spec, sweep.seeds[point][run])
    replay = MultiStrategyReplay([make_strategy(s) for s in plan.strategies], validate=True)
    measure = plan.measure
    baselines = None
    rounds: list[list[list[float]]] = [[] for _ in replay.lanes]
    for stage in plan.stages:
        replay.run(stage.events)
        if stage.kind == "join":
            baselines = [lane.metrics.snapshot() for lane in replay.lanes]
        elif measure == "delta_rounds":
            for samples, before, lane in zip(rounds, baselines, replay.lanes):
                samples.append(_triple(before, lane))
    if measure == "delta_rounds":
        return rounds
    if measure == "delta":
        return [_triple(before, lane) for before, lane in zip(baselines, replay.lanes)]
    return [
        [
            float(lane.assignment.max_color()),
            float(lane.metrics.total_recodings),
            float(lane.metrics.total_messages),
        ]
        for lane in replay.lanes
    ]
