"""Run one workload of the end-to-end sweep benchmark; print its metrics.

Usage, from the repository root::

    python3 sweepbench/run.py --workload paper-figs --seed 2001 --seconds 55 --trace 0

The run repeats whole workload passes for about ``--seconds`` (at least
one pass) and reports medians.  ``--trace 0`` reports the end-to-end
metrics, with times scaled to a reference host speed measured between
the passes (``hostspeed.py``); ``--trace 1`` alternates untraced passes with passes that have
the per-layer wrappers of ``layers.py`` and ``repro.obs`` tracing on,
and reports the per-layer metrics.  Each run also checks its
outputs (see ``checks.py``).  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (sweep points) and ``metrics``.

The repository is imported from this checkout's ``src`` directory (no
install needed), with every ``REPRO_*`` environment knob cleared so the
default conflict core and settings run.  Scratch files (stores, traces)
live under ``.sweepbench/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".sweepbench"

#: End-to-end metrics of an untraced run: name -> unit.
E2E: dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_NOTES = re.compile(r"(\d+) points computed, (\d+) from cache")

# Runs in a fresh interpreter: import repro, build the workload's inputs
# and open its empty store, then print the elapsed seconds; then print
# the seconds of each of KERNELS_PER_PROBE runs of the reference kernel.
_SETUP_PROBE = """
from time import perf_counter
start = perf_counter()
import sys
from pathlib import Path
sys.path[:0] = [{src!r}, {root!r}]
from sweepbench import workloads
workload = workloads.build({workload!r}, {seed!r})
workload.open_store(Path({store_dir!r}))
print(perf_counter() - start)
from sweepbench import hostspeed
for _ in range({kernels}):
    print(hostspeed.reference_seconds())
"""
#: Reference-kernel timings per set-up probe.
KERNELS_PER_PROBE = 3


def _bootstrap() -> None:
    """Import ``repro`` from this checkout, with no environment knobs."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"sweepbench: no repro package under {ROOT / 'src'}")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


class Tally:
    """Attempted and failed sweep points of one run.

    A point fails if its sweep raised or a check rejected its series;
    failures are keyed by (pass, call, point, run) so one point never
    counts twice.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.passes = 0
        self.attempted = 0
        self.failed: set[tuple] = set()

    def fail(self, pass_no: int, reason: str, call: int | None = None, point=None) -> None:
        """Fail a pass's points: all, one call's, or one sweep point's runs."""
        for c, sweep_call in enumerate(self.workload.calls):
            if call is not None and c != call:
                continue
            for i in range(len(sweep_call.scenario.sweep_values)):
                if point is None or i == point:
                    self.failed.update((pass_no, c, i, r) for r in range(sweep_call.runs))
        print(f"FAILED pass {pass_no}: {reason}", file=sys.stderr)


def run_passes(
    workload, seconds: float, workdir: Path, tally: Tally, expected: dict, trace=None, before=None
) -> dict:
    """Time whole passes for about ``seconds``; check each one.

    ``before``, if given, is called with the pass number before each
    pass, outside its timed region.  A pass starts only while the median
    lap (``before`` plus pass) so far fits in the time left (the first
    pass always starts), so a run does not overrun ``seconds`` by most
    of a lap.  With ``trace``, a context-manager
    factory taking the pass number, passes alternate untraced and traced
    and the run ends on a traced pass: every traced pass has an
    untraced neighbour from the same stretch of host load.

    ``expected["digest"]`` is the digest every pass must reproduce (the
    reference, or else the first successful pass's, set here).  Returns
    each pass's wall time in pass order (``None`` for a pass that
    raised), the store sizes and the first successful pass.
    """
    from sweepbench import checks, workloads

    walls: list[float | None] = []
    laps: list[float] = []
    db_mb: list[float] = []
    first = None
    start = perf_counter()
    while True:
        traced = trace is not None and len(walls) % 2 == 1
        need = (statistics.median(laps) if laps else 0.0) * (1 if trace is None else 2)
        if laps and not traced and need > seconds - (perf_counter() - start):
            break
        lap = perf_counter()
        pass_no = tally.passes
        if before is not None:
            before(pass_no)
        tally.passes += 1
        tally.attempted += workload.points()
        pass_dir = workdir / f"pass-{pass_no}"
        pass_dir.mkdir()
        store = workload.open_store(pass_dir)
        with trace(pass_no) if traced else nullcontext():
            began = perf_counter()
            try:
                series = workloads.run_pass(workload, store)
            except Exception:  # the run keeps going and reports the failure
                series = None
                traceback.print_exc()
            wall = perf_counter() - began
        laps.append(perf_counter() - lap)
        size = sum(f.stat().st_size for f in pass_dir.iterdir())
        shutil.rmtree(pass_dir)
        if series is None:
            walls.append(None)
            tally.fail(pass_no, "a sweep raised")
            continue
        walls.append(wall)
        db_mb.append(size / 1e6)
        digest = checks.series_digest(series)
        expected.setdefault("digest", digest)
        if digest != expected["digest"]:
            tally.fail(pass_no, f"series digest {digest} != {expected['digest']}")
        elif workload.uses_store and not checks.same_series(series[-1], series[0]):
            tally.fail(pass_no, "cached pass != cold pass", call=len(series) - 1)
        if first is None:
            first = (pass_no, series)
    print("pass walls s: " + " ".join("raised" if w is None else f"{w:.3f}" for w in walls))
    return {"walls": walls, "db_mb": db_mb, "first": first}


def replay_checks(workload, first: tuple, tally: Tally) -> None:
    """Replay one point's runs per sweep with validation; compare to a pass.

    ``first`` is ``(pass number, series)`` of the pass compared against.
    """
    from sweepbench import checks

    pass_no, series = first
    for c, call in enumerate(workload.calls):
        point = workload.seed % len(call.scenario.sweep_values)
        try:
            got = checks.replay_mean(call.scenario, workload.seed, point, call.runs)
        except Exception:  # a CA1/CA2 violation or a crash fails the point
            traceback.print_exc()
            got = None
        want = checks.series_value(series[c], point, call.scenario.measure)
        verdict = "ok" if got == want else "MISMATCH"
        print(f"replay check {call.label} point {point}: {verdict}")
        if got != want:
            tally.fail(pass_no, f"replay of {call.label} point {point}", call=c, point=point)


def setup_probe(workload_name: str, seed: int, store_dir: Path) -> tuple[float, list[float]]:
    """One set-up time and the reference kernel's times, from a fresh interpreter.

    The kernel runs in the probe, not in the benchmark's process, so it
    adds nothing to the high-water RSS of the passes.
    """
    store_dir.mkdir()
    code = _SETUP_PROBE.format(
        src=str(ROOT / "src"),
        root=str(ROOT),
        workload=workload_name,
        seed=seed,
        store_dir=str(store_dir),
        kernels=KERNELS_PER_PROBE,
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    shutil.rmtree(store_dir)
    setup, *kernels = map(float, out.stdout.split()[-1 - KERNELS_PER_PROBE :])
    return setup, kernels


def _tail(values: list[float]) -> str:
    """The guide's tail: the highest percentile with ≥10 samples beyond it."""
    n = len(values)
    if n < 11:
        return f"max {max(values):.4f} (n={n}: no percentile has 10 samples beyond it)"
    q = (n - 10) / n
    return f"p{100 * q:.0f} {sorted(values)[n - 11]:.4f} (n={n})"


def untraced_run(workload, args, workdir: Path, tally: Tally, expected: dict) -> dict:
    """End-to-end metrics: set-up, timed passes, peak RSS, then checks.

    Before every pass and once after the last, a fresh interpreter times
    the set-up and then the reference kernel (``hostspeed.py``).  Each
    set-up time is scaled by its own interpreter's kernel time, and each
    pass wall by the mean kernel time of the probes just before and
    just after it; the scaled times read as seconds on a host that runs
    the kernel in ``NOMINAL_S``.  The metrics are the medians of the
    scaled times; the raw medians are printed too.
    """
    from sweepbench import hostspeed, workloads

    probes: list[tuple[float, float]] = []  # (set-up s, mean kernel s)

    def probe(pass_no: int) -> None:
        setup, kernels = setup_probe(args.workload, args.seed, workdir / f"setup-{pass_no}")
        probes.append((setup, statistics.fmean(kernels)))

    events = workloads.count_events(workload)
    timed = run_passes(workload, args.seconds, workdir, tally, expected, before=probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe(len(probes))
    kernel = [k for _, k in probes]
    setups = [s for s, _ in probes]
    walls = [
        (w, (kernel[i] + kernel[i + 1]) / 2)
        for i, w in enumerate(timed["walls"])
        if w is not None
    ]
    if not walls:
        return {}
    if args.workload == "paper-figs":
        replay_checks(workload, timed["first"], tally)
    nominal = hostspeed.NOMINAL_S
    setup = statistics.median(s / k * nominal for s, k in probes)
    wall = statistics.median(w / k * nominal for w, k in walls)
    raw = [w for w, _ in walls]
    print(f"kernel       median {statistics.median(kernel):.4f} s, {_tail(kernel)}")
    print(f"setup_s      raw median {statistics.median(setups):.4f} s, {_tail(setups)}")
    print(f"wall_s       raw median {statistics.median(raw):.4f} s, {_tail(raw)}")
    print(f"scaled to a kernel of {nominal} s: setup_s {setup:.4f} s, wall_s {wall:.4f} s")
    print(f"events_per_s {events} logical events per pass / scaled wall_s")
    return {
        "setup_s": setup,
        "wall_s": wall,
        "events_per_s": events / wall,
        "peak_rss_mb": peak_rss_mb,
    }


def traced_run(workload, args, workdir: Path, tally: Tally, expected: dict) -> dict:
    """Per-layer metrics: untraced and traced passes alternate.

    Each traced pass turns ``repro.obs`` on with its own trace file and
    installs the wrappers of ``layers.py``; both are gone again before
    the next untraced pass.  ``repro.obs.report.summarize`` totals each
    trace's spans by name and gives its counters.
    """
    from repro import obs
    from repro.obs.report import summarize
    from sweepbench import layers

    timer = layers.LayerTimer()
    spans: dict[str, float] = defaultdict(float)
    counters: dict[str, float] = defaultdict(float)

    @contextmanager
    def traced(pass_no: int):
        trace_file = workdir / f"trace-{pass_no}.jsonl"
        obs.enable(trace_file, export_env=False)
        uninstall = layers.install(timer)
        try:
            yield
        finally:
            uninstall()
            obs.close()
        summary = summarize(obs.load_trace(trace_file))
        for name, row in summary["spans"].items():
            spans[name] += row["total"]
        for name, value in summary["metrics"]["counters"].items():
            counters[name] += value

    timed = run_passes(workload, args.seconds, workdir, tally, expected, trace=traced)
    walls = timed["walls"]
    pairs = [(p, t) for p, t in zip(walls[0::2], walls[1::2]) if p is not None and t is not None]
    if not pairs:
        return {}
    plain = [p for p, _ in pairs]
    traced_walls = [t for _, t in pairs]
    print(f"untraced wall_s median {statistics.median(plain):.4f} s, {_tail(plain)}")
    print(f"traced   wall_s median {statistics.median(traced_walls):.4f} s, {_tail(traced_walls)}")
    return layers.layer_metrics(
        timer,
        spans,
        counters,
        passes=len(walls[1::2]),
        points=workload.points(),
        points_cached=sum(int(_NOTES.search(s.notes)[2]) for s in timed["first"][1]),
        db_mb=statistics.median(timed["db_mb"]),
        traced_wall_s=statistics.median(traced_walls),
        trace_overhead_ratio=statistics.median([t / p for p, t in pairs]),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2001)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()
    from sweepbench import checks, layers, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    units = layers.METRICS if args.trace else E2E
    bad = [name for name in units if not _NAME.match(name)]
    if bad:
        raise ValueError(f"invalid metric names: {bad}")

    workload = workloads.build(args.workload, args.seed)
    tally = Tally(workload)
    expected = {}
    if args.seed == checks.REFERENCE_SEED:
        expected["digest"] = checks.reference_digest(args.workload)
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        run = traced_run if args.trace else untraced_run
        values = run(workload, args, workdir, tally, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run's files are still there
    if not values:
        print("sweepbench: no pass completed", file=sys.stderr)
        return 1
    failed = len(tally.failed)
    print(f"series digest {expected.get('digest')}")
    print(f"failed_frac  {failed / tally.attempted:.4f} ({failed} of {tally.attempted} points)")
    for name, value in values.items():
        print(f"{name:<36} {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    result = {"correct": failed == 0, "attempted": tally.attempted, "failed": failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
