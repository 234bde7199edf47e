"""The results store: artifacts, manifests, series, legacy import and sweep resume."""

from __future__ import annotations

import json
import re
import sqlite3

import numpy as np
import pytest

from repro.analysis.series import ExperimentSeries
from repro.cli import main
from repro.errors import ConfigurationError
from repro.sim.registry import get_scenario
from repro.sim.results import (
    CheckpointScope,
    SqliteBackend,
    import_json_dir,
    open_backend,
    seed_token,
    spec_digest,
)
from repro.sim.sweep import build_sweep, run_sweep


def tiny_spec():
    from dataclasses import replace

    return replace(
        get_scenario("paper-join"),
        n=8,
        strategies=("Minim",),
        sweep_values=(6.0, 8.0),
    )


def _corrupt_row(store, kind, key):
    """Overwrite one stored row's payload with invalid JSON."""
    with sqlite3.connect(store.path) as conn:
        conn.execute(
            "UPDATE artifacts SET payload = '{not json' WHERE kind = ? AND key = ?", (kind, key)
        )


def _delete_rows(store, kind):
    """Drop every stored row of one artifact kind."""
    with sqlite3.connect(store.path) as conn:
        conn.execute("DELETE FROM artifacts WHERE kind = ?", (kind,))


class TestKeys:
    def test_spec_digest_stable_and_sensitive(self):
        spec = tiny_spec()
        assert spec_digest(spec) == spec_digest(spec)
        from dataclasses import replace

        assert spec_digest(spec) != spec_digest(replace(spec, n=9))
        assert spec_digest(spec) != spec_digest(spec, extra={"runs": 3})

    def test_seed_token_int_and_seedsequence(self):
        assert seed_token(7) == "int-7"
        root = np.random.SeedSequence(5)
        child = root.spawn(2)[1]
        assert seed_token(root) == "ss-5-root"
        assert seed_token(child) == "ss-5-1"
        # identity follows the derivation path, not the object
        assert seed_token(np.random.SeedSequence(5).spawn(2)[1]) == seed_token(child)


class TestStoreIO:
    def test_corrupt_point_raises(self, tmp_path):
        store = open_backend(tmp_path)
        store.save_point("bad", [[1.0]])
        _corrupt_row(store, "points", "bad")
        with pytest.raises(ConfigurationError, match="corrupt"):
            store.load_point("bad")

    def test_corrupt_manifest_raises_with_path(self, tmp_path):
        store = open_backend(tmp_path)
        store.save_manifest("bad", {})
        _corrupt_row(store, "manifests", "bad")
        with pytest.raises(ConfigurationError, match=re.escape(str(store.path))):
            store.load_manifest("bad")

    def test_corrupt_series_raises_with_path(self, tmp_path):
        store = open_backend(tmp_path)
        store.save_series_dict("bad", {})
        _corrupt_row(store, "series", "bad")
        with pytest.raises(ConfigurationError, match=re.escape(str(store.path))):
            store.load_series("bad")


class TestSqliteBackend:
    def test_point_roundtrip(self, tmp_path):
        store = SqliteBackend(tmp_path / "s.sqlite")
        assert store.load_point("abc") is None
        store.save_point("abc", [[1.0, 2.0, 3.0]], context={"run": 0})
        assert store.load_point("abc") == [[1.0, 2.0, 3.0]]
        assert store.load_point_record("abc")["context"] == {"run": 0}
        assert store.list_points() == ["abc"]

    def test_manifest_and_series_roundtrip(self, tmp_path):
        store = SqliteBackend(tmp_path / "s.sqlite")
        store.save_manifest("sw", {"runs": 2})
        assert store.load_manifest("sw") == {"runs": 2}
        series = ExperimentSeries(
            experiment="exp-s",
            x_label="N",
            x_values=[1.0],
            metrics={"recodings": {"Minim": [1.0]}},
            runs=1,
        )
        store.save_series(series)
        assert store.load_series("exp-s") == series
        assert store.list_series() == ["exp-s"]
        with pytest.raises(ConfigurationError, match="no stored series"):
            store.load_series("nope")

    def test_tasks_roundtrip(self, tmp_path):
        store = SqliteBackend(tmp_path / "s.sqlite")
        assert store.pending_task_keys() == []
        store.save_task("t1", {"k": 1})
        assert store.load_task("t1") == {"k": 1}
        assert store.pending_task_keys() == ["t1"]
        store.delete_task("t1")
        store.delete_task("t1")  # idempotent
        assert store.load_task("t1") is None

    def test_directory_path_resolves_to_store_sqlite(self, tmp_path):
        store = SqliteBackend(tmp_path)
        assert store.path.name == "store.sqlite"

    def test_load_points_bulk_matches_per_key(self, tmp_path):
        store = SqliteBackend(tmp_path / "s.sqlite")
        keys = [f"k{i}" for i in range(7)]
        for i, key in enumerate(keys[:5]):
            store.save_point(key, [[float(i)]])
        bulk = store.load_points(keys)
        assert bulk == {key: store.load_point(key) for key in keys[:5]}
        assert store.load_points([]) == {}

    def test_reads_never_create_the_database(self, tmp_path):
        store = SqliteBackend(tmp_path / "s.sqlite")
        assert store.load_point("x") is None
        assert store.load_manifest("x") is None
        assert store.list_points() == []
        assert store.list_claims() == []
        assert not store.path.exists()


class TestOpenBackend:
    def test_every_locator_opens_the_one_store(self, tmp_path):
        for path in (tmp_path / "dir", tmp_path / "x.sqlite", tmp_path / "x.db"):
            assert type(open_backend(path)) is SqliteBackend
        assert type(open_backend(tmp_path / "p", "sqlite")) is SqliteBackend
        assert open_backend(tmp_path / "dir").path == tmp_path / "dir" / "store.sqlite"
        assert open_backend(tmp_path / "x.sqlite").path == tmp_path / "x.sqlite"

    def test_explicit_sqlite_path_creates_exactly_that_file(self, tmp_path):
        store = open_backend(tmp_path / "store.sqlite", "sqlite")
        store.save_task("t", {})
        assert [p.name for p in tmp_path.iterdir()] == ["store.sqlite"]

    def test_dir_with_store_sqlite_routes_to_sqlite(self, tmp_path):
        SqliteBackend(tmp_path / "store.sqlite").save_task("t", {})
        backend = open_backend(tmp_path)
        assert backend.path == tmp_path / "store.sqlite"
        assert backend.load_task("t") == {}

    @pytest.mark.parametrize("kind", ["json", "auto", "parquet"])
    def test_other_kinds_are_rejected(self, tmp_path, kind):
        with pytest.raises(ConfigurationError, match="unknown results-store kind"):
            open_backend(tmp_path, kind)

    def test_locator_round_trips(self, tmp_path):
        for path in (tmp_path / "dir", tmp_path / "s.sqlite"):
            backend = open_backend(path)
            backend.save_task("t", {})
            reopened = open_backend(backend.locator)
            assert reopened.locator == backend.locator
            assert reopened.load_task("t") == {}


class TestLegacyJsonImport:
    """A directory in the retired one-JSON-file-per-artifact layout."""

    def _link(self, points):
        return {"schema": 1, "kind": "exec-delta", "base": None, "version": 1, "points": points}

    @pytest.fixture()
    def legacy(self, tmp_path):
        """Hand-written legacy layout holding a finished two-point sweep."""
        source = SqliteBackend(tmp_path / "source.sqlite")
        series = run_sweep(tiny_spec(), runs=1, seed=3, store=source)
        root = tmp_path / "legacy"

        def write(sub, key, payload):
            (root / sub).mkdir(parents=True, exist_ok=True)
            (root / sub / f"{key}.json").write_text(json.dumps(payload))

        for key in source.list_points():
            write("points", key, source.load_point_record(key))
        (sweep_key,) = source.list_manifests()
        manifest = source.load_manifest(sweep_key)
        write("sweeps", sweep_key, manifest)
        write("series", series.experiment, series.to_dict())
        write("checkpoints", "live", self._link(manifest["points"][:1]))
        write("checkpoints", "orphan", self._link(["gone"]))
        write("tasks", "stale-task", {"schema": 1})
        return root

    def test_opening_refuses_with_the_compact_hint(self, legacy):
        with pytest.raises(ConfigurationError, match="store compact"):
            open_backend(legacy)
        assert not (legacy / "store.sqlite").exists()

    def test_store_compact_imports_live_links_and_removes_the_json(self, legacy, capsys):
        assert main(["store", "compact", str(legacy)]) == 0
        assert "compacted 2 point file(s)" in capsys.readouterr().out
        store = open_backend(legacy)
        assert store.path == legacy / "store.sqlite"
        assert len(store.list_points()) == 2 and len(store.list_manifests()) == 1
        assert store.list_checkpoints() == ["live"]  # the orphan link did not travel
        assert store.pending_task_keys() == []  # queue state is dropped
        assert sorted(p.name for p in legacy.iterdir()) == ["store.sqlite"]

    def test_imported_store_resumes_every_point(self, legacy):
        import_json_dir(legacy)
        again = run_sweep(tiny_spec(), runs=1, seed=3, store=open_backend(legacy))
        assert "0 points computed, 2 from cache" in again.notes
        fresh = run_sweep(tiny_spec(), runs=1, seed=3)
        assert again.metrics == fresh.metrics
        assert again.stderr == fresh.stderr
        assert again.x_values == fresh.x_values

    def test_corrupt_legacy_file_aborts_the_import(self, legacy):
        next((legacy / "points").iterdir()).write_text("{not json")
        with pytest.raises(ConfigurationError, match="corrupt legacy artifact"):
            import_json_dir(legacy)
        assert [p for p in legacy.iterdir() if p.is_file()] == []  # no partial database
        assert (legacy / "points").is_dir()

    def test_import_keeps_every_payload_unchanged(self, legacy):
        expected = {
            sub: {p.stem: json.loads(p.read_text()) for p in (legacy / sub).iterdir()}
            for sub in ("points", "sweeps", "series")
        }
        store = import_json_dir(legacy)
        assert {k: store.load_point_record(k) for k in store.list_points()} == expected["points"]
        assert {k: store.load_manifest(k) for k in store.list_manifests()} == expected["sweeps"]
        assert {k: store.load_series_dict(k) for k in store.list_series()} == expected["series"]

    def test_second_compact_only_vacuums(self, legacy, capsys):
        assert main(["store", "compact", str(legacy)]) == 0
        capsys.readouterr()
        assert main(["store", "compact", str(legacy)]) == 0
        assert "vacuumed" in capsys.readouterr().out
        store = open_backend(legacy)
        assert len(store.list_points()) == 2 and store.list_checkpoints() == ["live"]

    @pytest.mark.parametrize(
        "argv", [["worker", "--once", "--results"], ["store", "ls"]], ids=["worker", "store-ls"]
    )
    def test_commands_refuse_with_the_compact_hint(self, legacy, argv, capsys):
        assert main([*argv, str(legacy)]) == 2
        assert "store compact" in capsys.readouterr().err
        assert not (legacy / "store.sqlite").exists()

    def test_nothing_to_import_elsewhere(self, tmp_path, capsys):
        store = open_backend(tmp_path / "s.sqlite")
        store.save_task("t", {})
        assert import_json_dir(tmp_path / "s.sqlite") is None
        assert import_json_dir(tmp_path / "empty-dir") is None
        assert main(["store", "compact", str(store.path)]) == 0
        assert "vacuumed" in capsys.readouterr().out


class TestChurnAndQuarantine:
    def test_lease_break_counters(self, store_path):
        backend = SqliteBackend(store_path)
        assert backend.lease_breaks("k") == 0
        assert backend.record_lease_break("k") == 1
        assert backend.record_lease_break("k") == 2
        assert backend.record_lease_break("other") == 1
        assert backend.lease_break_counts() == {"k": 2, "other": 1}
        backend.reset_lease_breaks("k")
        backend.reset_lease_breaks("k")  # idempotent
        assert backend.lease_breaks("k") == 0

    def test_breaking_a_stale_lease_is_counted(self, store_path):
        import time as _time

        backend = SqliteBackend(store_path)
        assert backend.try_claim("k", "dead", ttl=0.05)
        _time.sleep(0.1)
        assert backend.try_claim("k", "breaker", ttl=0.05)
        assert backend.lease_breaks("k") == 1
        # a vanilla release-then-claim cycle is not churn
        backend.release_claim("k")
        assert backend.try_claim("k", "next", ttl=60.0)
        assert backend.lease_breaks("k") == 1

    def test_quarantine_round_trip(self, store_path):
        backend = SqliteBackend(store_path)
        backend.save_task("k", {"schema": 1, "x": 2})
        backend.record_lease_break("k")
        assert backend.quarantine_task("k", reason="why")
        assert backend.load_task("k") is None
        assert backend.pending_task_keys() == []
        record = backend.load_quarantined("k")
        assert record["payload"] == {"schema": 1, "x": 2}
        assert record["reason"] == "why" and record["lease_breaks"] == 1
        assert backend.quarantine_task("k") is True  # idempotent re-park
        assert backend.requeue_quarantined("k")
        assert backend.load_task("k") == {"schema": 1, "x": 2}
        assert backend.list_quarantined() == []
        assert backend.lease_breaks("k") == 0
        assert backend.requeue_quarantined("k") is False
        assert backend.quarantine_task("never-published") is False

    def test_claim_info_reports_owner_and_age(self, store_path):
        backend = SqliteBackend(store_path)
        assert backend.claim_info() == {}
        assert backend.try_claim("k", "worker-x", ttl=60.0)
        info = backend.claim_info()
        assert list(info) == ["k"]
        assert info["k"]["owner"] == "worker-x"
        assert 0.0 <= info["k"]["age"] < 30.0

    def test_claim_age_single_key_lookup(self, store_path):
        backend = SqliteBackend(store_path)
        assert backend.claim_age("k") is None
        assert backend.try_claim("k", "worker-x", ttl=60.0)
        age = backend.claim_age("k")
        assert age is not None and 0.0 <= age < 30.0
        backend.release_claim("k")
        assert backend.claim_age("k") is None

    def test_queue_stats_aggregates(self, store_path):
        backend = SqliteBackend(store_path)
        empty = backend.queue_stats()
        assert empty["tasks"] == empty["claims"] == empty["quarantined"] == 0
        backend.save_task("a", {"schema": 1})
        backend.save_task("b", {"schema": 1})
        backend.try_claim("a", "w", ttl=60.0)
        backend.record_lease_break("b")
        backend.quarantine_task("b", reason="r")
        backend.save_point("p", [[1.0, 2.0, 3.0]])
        stats = backend.queue_stats()
        assert stats["points"] == 1 and stats["tasks"] == 1
        assert stats["claims"] == 1 and stats["oldest_claim_age"] >= 0.0
        assert stats["quarantined"] == 1 and stats["lease_breaks"] == 1
        assert stats["backend"] == backend.kind and stats["locator"] == backend.locator

    def test_iter_point_records_matches_per_key_loads(self, store_path):
        backend = SqliteBackend(store_path)
        for i in range(3):
            backend.save_point(f"k{i}", [[float(i)]], context={"run": i})
        records = dict(backend.iter_point_records())
        assert records == {k: backend.load_point_record(k) for k in backend.list_points()}


class TestCheckpointTable:
    def _link(self, base=None, version=10, points=None):
        payload = {
            "schema": 1,
            "kind": "exec-delta",
            "base": base,
            "base_version": 0,
            "version": version,
            "replay": {"schema": 1},
            "baselines": None,
            "samples": [],
        }
        if points is not None:
            payload["points"] = points
        return payload

    def test_put_is_conditional_first_writer_wins(self, store_path):
        backend = SqliteBackend(store_path)
        assert backend.get_checkpoint("k1") is None
        assert backend.put_checkpoint("k1", self._link(version=3)) is True
        # content keys mean racers carry identical payloads; the loser's
        # write is simply a no-op, never an overwrite
        assert backend.put_checkpoint("k1", self._link(version=99)) is False
        assert backend.get_checkpoint("k1")["version"] == 3
        assert backend.list_checkpoints() == ["k1"]

    def test_delete_and_stats(self, store_path):
        backend = SqliteBackend(store_path)
        backend.put_checkpoint("a", self._link())
        backend.put_checkpoint("b", self._link(base="a", version=20))
        backend.get_checkpoint("a")
        backend.get_checkpoint("missing")
        stats = backend.checkpoint_stats()
        assert stats["count"] == 2 and stats["bytes"] > 0
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["writes"] == 2
        backend.delete_checkpoint("a")
        backend.delete_checkpoint("a")  # idempotent
        assert backend.list_checkpoints() == ["b"]

    def test_put_and_get_open_one_connection_each(self, store_path, monkeypatch):
        import repro.sim.results as results

        backend = SqliteBackend(store_path)
        backend.put_checkpoint("warm", self._link())  # schema set up already
        opened = []
        real_connect = sqlite3.connect

        def counting_connect(*args, **kwargs):
            opened.append(1)
            return real_connect(*args, **kwargs)

        monkeypatch.setattr(results.sqlite3, "connect", counting_connect)
        for call in (
            lambda: backend.put_checkpoint("a", self._link()),  # created
            lambda: backend.put_checkpoint("a", self._link()),  # duplicate
            lambda: backend.get_checkpoint("a"),  # hit
            lambda: backend.get_checkpoint("missing"),  # miss
        ):
            opened.clear()
            call()
            assert len(opened) == 1

    def test_counters_exact_across_two_instances(self, store_path):
        one, two = SqliteBackend(store_path), SqliteBackend(store_path)
        one.save_manifest("sw", {"points": ["pA"]})
        for i in range(6):
            writer, reader = (one, two) if i % 2 else (two, one)
            assert writer.put_checkpoint(f"k{i}", self._link(points=["pA"] if i else None))
            assert not reader.put_checkpoint(f"k{i}", self._link())
            assert reader.get_checkpoint(f"k{i}") is not None
            assert writer.get_checkpoint(f"absent{i}") is None
            assert writer.get_checkpoint(f"k{i}") is not None
        assert two.gc_checkpoints() == {"kept": 5, "removed": 1}
        for backend in (one, two):
            stats = backend.checkpoint_stats()
            assert (stats["hits"], stats["misses"], stats["writes"]) == (12, 6, 6)
            assert stats["gc_removed"] == 1 and stats["count"] == 5

    def test_counters_exact_under_concurrent_workers(self, store_path):
        # more workers than cores, each on its own store instance: the
        # upsert must neither lose a tick nor fail on a lock upgrade
        import sys
        import threading

        SqliteBackend(store_path).put_checkpoint("k", self._link())
        errors = []

        def work(w):
            backend = SqliteBackend(store_path)
            try:
                for i in range(20):
                    backend.get_checkpoint("k")
                    backend.get_checkpoint(f"absent-{w}-{i}")
                    backend.put_checkpoint(f"k-{w}-{i}", self._link())
            except Exception as exc:  # reported below, with the worker
                errors.append((w, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        stats = SqliteBackend(store_path).checkpoint_stats()
        assert (stats["hits"], stats["misses"], stats["writes"]) == (120, 120, 121)

    def test_corrupt_link_raises_and_counts_nothing(self, store_path):
        backend = SqliteBackend(store_path)
        backend.put_checkpoint("bad", self._link())
        _corrupt_row(backend, "checkpoints", "bad")
        with pytest.raises(ConfigurationError, match="corrupt checkpoints row"):
            backend.get_checkpoint("bad")
        stats = backend.checkpoint_stats()
        assert (stats["hits"], stats["misses"], stats["writes"]) == (0, 0, 1)

    def test_queue_stats_carries_the_checkpoint_row(self, store_path):
        backend = SqliteBackend(store_path)
        assert backend.queue_stats()["checkpoints"].get("count", 0) == 0
        backend.put_checkpoint("a", self._link())
        stats = backend.queue_stats()["checkpoints"]
        assert stats["count"] == 1 and stats["bytes"] > 0

    def test_scope_stamps_the_groups_points(self, store_path):
        backend = SqliteBackend(store_path)
        scope = CheckpointScope(backend, points=["pA", "pB"])
        assert scope.put_checkpoint("k", self._link()) is True
        assert backend.get_checkpoint("k")["points"] == ["pA", "pB"]
        assert scope.get_checkpoint("k") == backend.get_checkpoint("k")
        bare = CheckpointScope(backend, points=[])
        bare.put_checkpoint("k2", self._link())
        assert "points" not in backend.get_checkpoint("k2")

    def test_gc_keeps_only_manifest_referenced_links(self, store_path):
        backend = SqliteBackend(store_path)
        backend.save_manifest("sw", {"points": ["pA", "pB"]})
        backend.put_checkpoint("live", self._link(points=["pA"]))
        backend.put_checkpoint("orphan", self._link(points=["gone"]))
        backend.put_checkpoint("unstamped", self._link())
        result = backend.gc_checkpoints()
        assert result == {"kept": 1, "removed": 2}
        assert backend.list_checkpoints() == ["live"]
        assert backend.checkpoint_stats()["gc_removed"] == 2

    def test_store_compact_gcs_orphan_links_then_vacuums(self, store_path, capsys):
        backend = SqliteBackend(store_path)
        backend.save_manifest("sw", {"points": ["pA"]})
        backend.put_checkpoint("live", self._link(points=["pA"]))
        backend.put_checkpoint("orphan", self._link(points=["zz"]))
        assert main(["store", "compact", str(store_path)]) == 0
        assert "(1 checkpoint link(s) pruned)" in capsys.readouterr().out
        assert backend.list_checkpoints() == ["live"]
        assert backend.load_manifest("sw") == {"points": ["pA"]}


class TestSweepResume:
    def test_identical_rerun_hits_cache_entirely(self, tmp_path):
        store = open_backend(tmp_path)
        spec = tiny_spec()
        first = run_sweep(spec, runs=2, seed=3, store=store)
        assert "4 points computed, 0 from cache" in first.notes
        second = run_sweep(spec, runs=2, seed=3, store=store)
        assert "0 points computed, 4 from cache" in second.notes
        assert first.metrics == second.metrics
        assert first.x_values == second.x_values

    def test_extending_runs_recomputes_only_new_points(self, tmp_path):
        store = open_backend(tmp_path)
        spec = tiny_spec()
        run_sweep(spec, runs=1, seed=3, store=store)
        grown = run_sweep(spec, runs=2, seed=3, store=store)
        # runs=1 wrote points for run 0; runs=2 reuses them (same seed
        # derivation path) and computes only run 1.
        assert "2 points computed, 2 from cache" in grown.notes

    def test_no_resume_recomputes(self, tmp_path):
        store = open_backend(tmp_path)
        spec = tiny_spec()
        run_sweep(spec, runs=1, seed=3, store=store)
        again = run_sweep(spec, runs=1, seed=3, store=store, resume=False)
        assert "2 points computed, 0 from cache" in again.notes

    def test_cache_is_spec_sensitive(self, tmp_path):
        store = open_backend(tmp_path)
        spec = tiny_spec()
        run_sweep(spec, runs=1, seed=3, store=store)
        other_seed = run_sweep(spec, runs=1, seed=4, store=store)
        assert "2 points computed" in other_seed.notes

    def test_points_persist_independently_of_sweep_completion(self, tmp_path):
        # Points are saved by the workers as they land (also across a
        # real process pool), so a sweep that dies before assembling its
        # series still leaves resumable artifacts: wiping the manifest
        # and series must not force recomputation.
        store = open_backend(tmp_path)
        spec = tiny_spec()
        run_sweep(spec, runs=1, seed=3, store=store, processes=2)
        _delete_rows(store, "manifests")
        _delete_rows(store, "series")
        again = run_sweep(spec, runs=1, seed=3, store=store)
        assert "0 points computed, 2 from cache" in again.notes

    def test_manifest_written(self, tmp_path):
        store = open_backend(tmp_path)
        spec = tiny_spec()
        run_sweep(spec, runs=2, seed=3, store=store)
        sweep = build_sweep(spec, runs=2, seed=3)
        manifest = store.load_manifest(sweep.sweep_key)
        assert manifest is not None
        assert manifest["computed"] == 4 and manifest["cached"] == 0
        assert manifest["core"] in {"array", "sparse", "dense"}
        assert len(manifest["points"]) == 4
        for key in manifest["points"]:
            assert store.load_point_record(key) is not None

    def test_cached_series_loadable_for_reports(self, tmp_path):
        from repro.analysis.report import panels_from_store, render_report

        store = open_backend(tmp_path)
        run_sweep(tiny_spec(), runs=1, seed=3, store=store)
        panels = panels_from_store(
            store,
            [("scenario-paper-join", "Fig X", "max_color", "colors stay bounded")],
        )
        doc = render_report("T", "intro", panels)
        assert "scenario-paper-join" in doc and "max_color" in doc
