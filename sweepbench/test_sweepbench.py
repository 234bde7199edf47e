"""Fast tests of the benchmark itself, at tiny workload sizes.

Run from the repository root with ``python3 -m pytest sweepbench``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro import obs  # noqa: E402
from sweepbench import checks, layers, run, workloads  # noqa: E402

TINY = workloads.Sizes(
    paper_scenarios=("fig11-power", "fig12-move-rounds", "uniform-churn"),
    store_runs=1,
)


def _args(name: str, seconds: float = 0.0) -> argparse.Namespace:
    return argparse.Namespace(workload=name, seed=5, seconds=seconds, trace=0)


def _tiny(name: str) -> workloads.Workload:
    return workloads.build(name, 5, TINY)


def test_benchmark_json_names_every_emitted_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
    for name in [*run.E2E, *layers.METRICS]:
        assert run._NAME.match(name), name


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    workload = _tiny(name)
    tally = run.Tally(workload)
    values = run.untraced_run(workload, _args(name), tmp_path, tally, {})
    assert set(values) == set(run.E2E)
    assert all(v > 0 for v in values.values())
    assert tally.attempted == workload.points() and not tally.failed


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_emits_every_layer_metric(name, tmp_path):
    workload = _tiny(name)
    tally = run.Tally(workload)
    values = run.traced_run(workload, _args(name), tmp_path, tally, {})
    assert list(values) == list(layers.METRICS)
    assert not tally.failed
    # one untraced and one traced pass, with tracing off again afterwards
    assert tally.passes == 2 and values["obs.trace_overhead_ratio"] > 0
    assert not obs.enabled()
    # each workload exercises the layers it was chosen for
    busy = {
        "paper-figs": ["lane.BBB_s", "coloring.dsatur_s", "coloring.greedy_s"],
        "store-warm": [
            "store.save_point_s",
            "store.get_checkpoint_s",
            "timeline.resume_self_s",
            "matching.max_weight_matching_s",
            "cp.reselect_colors_s",
        ],
    }[name]
    assert all(values[metric] > 0 for metric in busy)
    if name != "store-warm":
        assert values["store.save_point_s"] == 0 and values["store.db_mb"] == 0
    else:
        assert values["lane.BBB_s"] == 0
        assert values["sweep.points_cached"] == workload.calls[-1].points()
        assert 0 < values["store.ckpt_hit_ratio"] <= 1


def test_traced_and_untraced_series_are_identical(tmp_path):
    from repro.coloring import bbb as bbb_module
    from repro.strategies import bbb_global

    workload = _tiny("paper-figs")
    plain = checks.series_digest(workloads.run_pass(workload, None))
    original = bbb_global.bbb_coloring
    timer = layers.LayerTimer()
    uninstall = layers.install(timer)
    try:
        # the wrappers replace the names callers look up, not only the definitions
        assert bbb_global.bbb_coloring is not original
        assert bbb_module.dsatur_color_matrix.__wrapped__ is not None
        traced = checks.series_digest(workloads.run_pass(workload, None))
    finally:
        uninstall()
    assert traced == plain
    assert bbb_global.bbb_coloring is original
    assert not hasattr(bbb_module.dsatur_color_matrix, "__wrapped__")
    assert timer.calls["coloring.dsatur"] == timer.calls["lane.BBB"] > 0
    # nested self time never exceeds the caller's inclusive time
    assert timer.self_time["coloring.bbb_coloring"] < timer.total["coloring.bbb_coloring"]


def test_digest_mismatch_fails_every_point_of_the_pass(tmp_path):
    workload = _tiny("store-warm")
    tally = run.Tally(workload)
    run.run_passes(workload, 0.0, tmp_path, tally, {"digest": "0" * 64})
    assert len(tally.failed) == tally.attempted == workload.points()


def test_perturbed_series_fails_the_replay_check(tmp_path):
    workload = _tiny("paper-figs")
    tally = run.Tally(workload)
    timed = run.run_passes(workload, 0.0, tmp_path, tally, {})
    run.replay_checks(workload, timed["first"], tally)
    assert not tally.failed
    pass_no, series = timed["first"]
    perturbed = [replace(s, metrics=json.loads(json.dumps(s.metrics))) for s in series]
    strategy = perturbed[0].strategies()[0]
    perturbed[0].metrics["delta_recodings"][strategy][workload.seed % 6] += 1
    run.replay_checks(workload, (pass_no, perturbed), tally)
    assert len(tally.failed) == workload.calls[0].runs  # the perturbed point's runs
    assert checks.series_digest(perturbed) != checks.series_digest(series)


def test_cached_pass_reproduces_the_cold_pass(tmp_path):
    workload = _tiny("store-warm")
    cold, extension, cached = workloads.run_pass(workload, workload.open_store(tmp_path))
    assert cached.notes != cold.notes and "0 points computed" in cached.notes
    assert checks.same_series(cached, cold)
    assert not checks.same_series(extension, cold)


def test_reference_digests_cover_every_workload():
    for name in workloads.WORKLOADS:
        assert len(checks.reference_digest(name)) == 64


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "sweepbench", tmp_path / "sweepbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = ["sweepbench/run.py", "--workload", "store-warm", "--seed", "1", "--seconds", "1"]
    out = subprocess.run(
        [sys.executable, *command, "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
