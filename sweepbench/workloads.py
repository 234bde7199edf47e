"""The benchmark's workloads: seeded inputs and one timed pass each.

A workload is a fixed list of ``run_sweep`` calls.  One *pass* makes
every call in order, in this process, on the serial executor and the
default conflict core (one caller, closed loop, no pools).  Workloads
that use a store get a fresh, empty ``SqliteBackend`` per pass, so every
pass does the same work.

* ``paper-figs`` — the paper's own evaluation: four registered sweeps
  with all three strategies.  BBB recoloring dominates, and the four
  sweeps cover join, power, move and leave events plus fig11's
  in-memory warm start.  No store, so a store change must leave it
  flat.
* ``store-warm`` — Minim+CP over a SQLite store: a cold paired sweep
  (writes points and checkpoint links), an extension over new
  ``maxdisp`` values (resumes the join prefix from the store's
  checkpoint table), and a re-run of the first sweep (all cache hits).
  No BBB, so a BBB change must leave it flat.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from repro.analysis.series import ExperimentSeries
from repro.sim.registry import get_scenario
from repro.sim.results import SqliteBackend, open_backend
from repro.sim.scenarios import ScenarioSpec
from repro.sim.sweep import build_sweep, run_sweep
from repro.sim.timeline import build_plan

__all__ = [
    "WORKLOADS",
    "Sizes",
    "SweepCall",
    "Workload",
    "build",
    "count_events",
    "run_pass",
]

WORKLOADS = ("paper-figs", "store-warm")

PAPER_SCENARIOS = ("fig10-join", "fig11-power", "fig12-move-rounds", "uniform-churn")
PAPER_STRATEGIES = ("Minim", "CP", "BBB")
LANE_STRATEGIES = ("Minim", "CP")
#: New maxdisp values of the store-warm extension sweep: disjoint from
#: fig12-move-disp's own values, so every point is new but every run
#: shares the cold sweep's placement and join prefix.
EXTENSION_MAXDISP = (5.0, 15.0, 30.0, 50.0, 70.0, 90.0)


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; the defaults are the benchmark's, tests shrink them."""

    paper_scenarios: tuple[str, ...] = PAPER_SCENARIOS
    store_runs: int = 8


@dataclass(frozen=True)
class SweepCall:
    """One ``run_sweep`` call of a pass."""

    label: str
    scenario: ScenarioSpec
    runs: int

    def points(self) -> int:
        """Sweep points (point, run) this call plans."""
        return len(self.scenario.sweep_values) * self.runs


@dataclass(frozen=True)
class Workload:
    """A named, seeded list of sweep calls."""

    name: str
    seed: int
    calls: tuple[SweepCall, ...]
    uses_store: bool

    def points(self) -> int:
        """Sweep points one pass attempts."""
        return sum(call.points() for call in self.calls)

    def open_store(self, directory: Path) -> SqliteBackend | None:
        """A fresh, empty store under ``directory`` (``None`` if unused)."""
        if not self.uses_store:
            return None
        return open_backend(directory / "store.sqlite", "sqlite")


def build(name: str, seed: int, sizes: Sizes = Sizes()) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``."""
    if name == "paper-figs":
        calls = tuple(
            SweepCall(scenario, replace(get_scenario(scenario), strategies=PAPER_STRATEGIES), 1)
            for scenario in sizes.paper_scenarios
        )
        return Workload(name, seed, calls, uses_store=False)
    if name == "store-warm":
        cold = replace(get_scenario("fig12-move-disp"), strategies=LANE_STRATEGIES)
        extension = replace(cold, sweep_values=EXTENSION_MAXDISP)
        runs = sizes.store_runs
        calls = (
            SweepCall("cold", cold, runs),
            SweepCall("extension", extension, runs),
            SweepCall("cached", cold, runs),
        )
        return Workload(name, seed, calls, uses_store=True)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def run_pass(workload: Workload, store: SqliteBackend | None) -> list[ExperimentSeries]:
    """Make every sweep call of one pass; the benchmark times this call."""
    return [
        run_sweep(call.scenario, runs=call.runs, seed=workload.seed, store=store, executor="serial")
        for call in workload.calls
    ]


def count_events(workload: Workload) -> int:
    """Logical trace events of one pass: Σ ``len(build_plan(point, seed).events)``.

    Counts every (point, run) of every call, including points a
    checkpoint or the cache lets the sweep skip, so skipped work shows
    as a higher event rate.  Never called inside a timed region.
    """
    total = 0
    for call in workload.calls:
        sweep = build_sweep(call.scenario, runs=call.runs, seed=workload.seed)
        for _, _, point, seed in sweep.tasks():
            total += len(build_plan(point, seed).events)
    return total
