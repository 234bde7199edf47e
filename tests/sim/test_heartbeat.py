"""Worker heartbeats: store round-trip, rate limiting, staleness flags."""

from __future__ import annotations

import time

import pytest

from repro.sim.executor import _HeartbeatClock
from repro.sim.monitor import StoreMonitor
from repro.sim.results import open_backend


@pytest.fixture()
def backend(store_path):
    return open_backend(store_path)


def test_heartbeat_round_trip(backend):
    before = time.time()
    backend.record_heartbeat("w1")
    beats = backend.heartbeats()
    assert set(beats) == {"w1"}
    assert before - 1 <= beats["w1"] <= time.time() + 1


def test_heartbeat_overwrites_per_worker(backend):
    backend.save_heartbeat_record("w1", {"at": 100.0, "pid": 1})
    backend.record_heartbeat("w1")
    backend.record_heartbeat("w2")
    beats = backend.heartbeats()
    assert set(beats) == {"w1", "w2"}
    assert beats["w1"] > 100.0


def test_heartbeat_clock_rate_limits(backend):
    clock = _HeartbeatClock(claim_ttl=300.0)  # every = 100s: second beat suppressed
    clock.maybe_beat(backend, "w1")
    first = backend.heartbeats()["w1"]
    clock.maybe_beat(backend, "w1")
    assert backend.heartbeats()["w1"] == first


def test_heartbeat_clock_floor():
    assert _HeartbeatClock(claim_ttl=0.0).every == pytest.approx(0.05)
    assert _HeartbeatClock(claim_ttl=60.0).every == pytest.approx(20.0)


def test_monitor_flags_stale_workers(backend):
    backend.record_heartbeat("fresh")
    backend.save_heartbeat_record("wedged", {"at": time.time() - 120.0, "pid": 9})
    monitor = StoreMonitor(backend, lease_ttl=60.0)
    stats = {w.worker: w for w in monitor.worker_stats()}
    assert set(stats) == {"fresh", "wedged"}
    assert not stats["fresh"].stale and stats["fresh"].heartbeat_age < 60
    assert stats["wedged"].stale and stats["wedged"].heartbeat_age > 60
    assert stats["wedged"].points == 0  # visible even without any saved points

    rendered = monitor.stats().render()
    assert "STALE" in rendered
    assert "wedged" in rendered
    assert "heartbeat" in rendered


def test_monitor_without_heartbeats_has_no_flags(backend):
    monitor = StoreMonitor(backend)
    assert monitor.worker_stats() == ()
    assert "STALE" not in monitor.stats().render()


def test_worker_run_stamps_heartbeat(tmp_path):
    """A real drain loop heartbeats even when the queue is empty."""
    from repro.sim.executor import run_worker

    backend = open_backend(tmp_path / "store")
    run_worker(backend, once=True)
    beats = backend.heartbeats()
    assert len(beats) == 1
    (worker,) = beats
    assert worker.startswith("worker-")
