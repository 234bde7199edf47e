"""The results store of experiment sweeps.

A sweep persists its artifacts through one :class:`SqliteBackend`, a
single stdlib-``sqlite3`` file holding every artifact kind as a table:

* **points** — one artifact per (sweep point, run), keyed by a content
  hash of the fully resolved point spec plus the run's seed.  Because
  keys depend only on *what was computed*, re-invoking an identical
  sweep finds every point already present and skips the computation
  (resume / caching); enlarging ``runs`` or appending sweep values
  recomputes only the missing points.
* **manifests** — one run manifest per sweep (content-keyed by the
  sweep's spec × runs × seed hash): the spec, the point keys it covers,
  the computed/cached split of the last invocation, and an embedded
  copy of the assembled series.
* **series** — the most recently assembled
  :class:`~repro.analysis.series.ExperimentSeries` per experiment id
  (latest-wins by design; the per-sweep copy inside the manifest stays
  addressable by sweep key).
* **tasks + claims** — the shared work queue of the worker executor
  (:mod:`repro.sim.executor`): pending task descriptors plus lease
  claims with a TTL, giving multiple worker processes (or hosts on a
  shared filesystem) at-least-once draining of one sweep.
* **checkpoints** — content-keyed delta-chain links of the execution
  timeline (:mod:`repro.sim.timeline`): each row is one stage
  boundary serialized as an O(changes) delta against its base link.
  Conditional puts (if-absent) make concurrent workers race-free, and
  because keys commit to the whole event prefix, any process or host
  that hits a stored key resumes the shared prefix instead of
  replaying it.  ``store ckpt <path> ls/gc`` lists and prunes the
  table; :meth:`~SqliteBackend.gc_checkpoints` keeps only links some
  live manifest's points reference.
* **churn + quarantine** — the control plane's health state: per-task
  lease-break counters (bumped whenever :meth:`~SqliteBackend.try_claim`
  breaks a stale lease) and a quarantine table holding descriptors that
  churned too often or failed to decode, so one poison task stops being
  re-claimed forever.  ``minim-cdma store stats`` surfaces both and
  ``store requeue`` releases quarantined tasks back into the queue.

:func:`open_backend` resolves a path (or a store's locator string) to
the store: a file path names the database itself, and a directory (or
a suffix-less path that does not exist yet) resolves to
``DIR/store.sqlite``.  Directories written by the retired
one-JSON-file-per-artifact layout are refused rather than opened as an
empty store; :func:`import_json_dir` (``minim-cdma store compact DIR``)
imports them once into ``DIR/store.sqlite``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import sqlite3
import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.errors import ConfigurationError
from repro.obs import metrics as _met

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.analysis.series import ExperimentSeries
    from repro.sim.scenarios import ScenarioSpec

__all__ = [
    "CheckpointScope",
    "SqliteBackend",
    "import_json_dir",
    "open_backend",
    "point_key",
    "seed_token",
    "spec_digest",
]

#: Bump when the artifact schema changes incompatibly; part of every key
#: so stale stores never satisfy a lookup from newer code.
_SCHEMA_VERSION = 1

#: Default lease lifetime: a claim older than this counts as abandoned
#: (its worker died) and may be re-claimed by anyone.
DEFAULT_CLAIM_TTL = 60.0

#: The database file a directory locator resolves to.
_SQLITE_BASENAME = "store.sqlite"

#: Subdirectories of the retired JSON-directory layout, and the
#: artifact table each importable one maps to (queue state — tasks,
#: claims, churn, quarantine, heartbeats — and the counter row are
#: transient and are dropped by the import).
_JSON_TABLES = {"points": "points", "sweeps": "manifests", "series": "series"}
_JSON_SUBDIRS = (
    *_JSON_TABLES,
    "checkpoints",
    "tasks",
    "claims",
    "churn",
    "quarantine",
    "heartbeats",
    "meta",
)


def _canonical(obj: Any) -> str:
    """Deterministic JSON for hashing (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def spec_digest(spec: "ScenarioSpec", extra: dict | None = None) -> str:
    """Stable content hash of a scenario spec (plus optional context).

    Two specs hash equal iff every field — placement, mobility, churn,
    power, strategies, sweep configuration, measure — is equal, so a
    digest names one exact computation.
    """
    payload = {
        "schema": _SCHEMA_VERSION,
        "spec": dataclasses.asdict(spec),
        "extra": extra or {},
    }
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()[:20]


def seed_token(seed) -> str:
    """A stable string identity for a run seed.

    Accepts ints and ``numpy.random.SeedSequence`` objects (identified
    by entropy + spawn key, i.e. their reproducible derivation path —
    not by object identity).
    """
    entropy = getattr(seed, "entropy", None)
    if entropy is not None:
        spawn_key = tuple(getattr(seed, "spawn_key", ()))
        return f"ss-{entropy}-{'.'.join(map(str, spawn_key)) or 'root'}"
    return f"int-{int(seed)}"


def point_key(point_spec: "ScenarioSpec", seed) -> str:
    """The artifact key of one (resolved point spec, run seed) pair."""
    return spec_digest(point_spec, extra={"seed": seed_token(seed)})



class CheckpointScope:
    """A store's checkpoint table scoped to one task group.

    The handle :func:`repro.sim.timeline.compute_group` writes chain
    links through.  Every link is stamped with the point keys of the
    group that cut it, which is what ties a content-keyed link back to
    sweep manifests: :meth:`SqliteBackend.gc_checkpoints` keeps a link
    while any stamped point appears in a live manifest's ``points``
    list.  Reads pass through unstamped (links are shared across
    groups and sweeps by content key).
    """

    def __init__(self, backend: "SqliteBackend", points: Sequence[str] = ()) -> None:
        self.backend = backend
        self.points = list(points)

    def put_checkpoint(self, key: str, payload: dict) -> bool:
        """Write one link through, stamped with this group's points."""
        if self.points:
            payload = {**payload, "points": self.points}
        return self.backend.put_checkpoint(key, payload)

    def get_checkpoint(self, key: str) -> dict | None:
        """Read one link (pass-through)."""
        return self.backend.get_checkpoint(key)


class SqliteBackend:
    """Single-file SQLite results store (stdlib ``sqlite3`` only).

    One ``artifacts`` table of key → JSON-payload rows per artifact kind
    plus a ``claims`` table of leases.  It is the shared store of
    multi-process worker drains: SQLite's file locking serializes
    writers, and every operation is one short transaction on its own
    connection, so stores are trivially picklable across process pools.

    Parameters
    ----------
    path:
        The database file.  A directory, or a suffix-less path that does
        not exist yet, resolves to ``<dir>/store.sqlite``.  A directory
        in the retired JSON-directory layout raises
        :class:`~repro.errors.ConfigurationError` naming the importer.
    """

    #: Store kind tag shown by ``store ls`` / ``store stats``.
    kind = "sqlite"

    def __init__(self, path: Path | str) -> None:
        path = Path(path)
        if path.is_dir() or (not path.exists() and not path.suffix):
            if _is_legacy_json_dir(path):
                raise ConfigurationError(
                    f"{path} is a JSON-directory results store from an older release; "
                    f"import it once with `minim-cdma store compact {path}`"
                )
            path = path / _SQLITE_BASENAME
        self.path = path
        self._schema_ready = False

    @property
    def locator(self) -> str:
        """The database file path (re-opens via :func:`open_backend`)."""
        return str(self.path)

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """One short transaction on a fresh connection (always closed).

        A connection per operation keeps the store free of open
        handles, hence picklable and safe to share across process pools
        and forked workers; SQLite's file locking (with a 30 s busy
        timeout) serializes concurrent writers.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(self.path, timeout=30.0)
        try:
            if not self._schema_ready:
                # once per store instance, not per operation: the
                # tables persist in the file, and hot paths (cache
                # probes, drain polls) open thousands of connections
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS artifacts ("
                    " kind TEXT NOT NULL, key TEXT NOT NULL, payload TEXT NOT NULL,"
                    " PRIMARY KEY (kind, key))"
                )
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS claims ("
                    " key TEXT PRIMARY KEY, owner TEXT NOT NULL, claimed_at REAL NOT NULL)"
                )
                self._schema_ready = True
            with conn:  # commit on success, roll back on error
                yield conn
        finally:
            conn.close()

    # -- generic key/JSON rows ------------------------------------------
    def _get(self, kind: str, key: str) -> dict | None:
        if not self.path.exists():
            return None
        with self._connect() as conn:
            row = conn.execute(
                "SELECT payload FROM artifacts WHERE kind = ? AND key = ?", (kind, key)
            ).fetchone()
        if row is None:
            return None
        return _decode_row(kind, key, row[0], self.path)

    def _put(self, kind: str, key: str, payload: dict) -> None:
        with self._connect() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO artifacts (kind, key, payload) VALUES (?, ?, ?)",
                (kind, key, json.dumps(payload, sort_keys=True)),
            )

    def _keys(self, kind: str) -> list[str]:
        if not self.path.exists():
            return []
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT key FROM artifacts WHERE kind = ? ORDER BY key", (kind,)
            ).fetchall()
        return [r[0] for r in rows]

    def _delete(self, kind: str, key: str) -> None:
        if not self.path.exists():
            return
        with self._connect() as conn:
            conn.execute("DELETE FROM artifacts WHERE kind = ? AND key = ?", (kind, key))

    # -- points ----------------------------------------------------------
    def load_point(self, key: str) -> Any | None:
        """The stored result payload for ``key``, or ``None`` if absent."""
        record = self.load_point_record(key)
        if _met.ENABLED:
            _met.REGISTRY.inc("store.point.hit" if record is not None else "store.point.miss")
        if record is None:
            return None
        try:
            return record["result"]
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"corrupt results artifact {self.locator}::points/{key}: {exc}"
            ) from exc

    def save_point(self, key: str, result: Any, *, context: dict | None = None) -> None:
        """Persist one point result (with provenance context) atomically.

        Saves are idempotent: the key is a content hash of the
        computation, so concurrent workers racing the same point write
        identical payloads and last-write-wins is safe.
        """
        self.save_point_record(
            key, {"schema": _SCHEMA_VERSION, "context": context or {}, "result": result}
        )
        if _met.ENABLED:
            _met.REGISTRY.inc("store.point.write")

    def load_point_record(self, key: str) -> dict | None:
        """The full stored record for ``key`` (schema/context/result)."""
        return self._get("points", key)

    def save_point_record(self, key: str, record: dict) -> None:
        """Upsert one full point record row."""
        self._put("points", key, record)

    def list_points(self) -> list[str]:
        """Stored point keys, ascending."""
        return self._keys("points")

    def load_points(self, keys: list[str]) -> dict[str, object]:
        """``{key: result}`` for every stored key in ``keys``.

        Absent keys are omitted.  The batched cache probe of the claim
        stage and the worker drain loop: one ``IN`` query per chunk of
        500 keys.
        """
        if not keys or not self.path.exists():
            if _met.ENABLED and keys:
                _met.REGISTRY.inc("store.point.miss", len(keys))
            return {}
        out: dict[str, object] = {}
        with self._connect() as conn:
            for start in range(0, len(keys), 500):
                chunk = keys[start : start + 500]
                marks = ",".join("?" for _ in chunk)
                rows = conn.execute(
                    "SELECT key, payload FROM artifacts WHERE kind = 'points' "
                    f"AND key IN ({marks})",  # marks is "?,?,..." placeholders only
                    chunk,
                ).fetchall()
                for key, payload in rows:
                    try:
                        out[key] = json.loads(payload)["result"]
                    except (json.JSONDecodeError, KeyError) as exc:
                        raise ConfigurationError(
                            f"corrupt points row {key!r} in {self.path}: {exc}"
                        ) from exc
        if _met.ENABLED:
            _met.REGISTRY.inc("store.point.hit", len(out))
            _met.REGISTRY.inc("store.point.miss", len(keys) - len(out))
        return out

    def iter_point_records(self) -> Iterator[tuple[str, dict]]:
        """Yield ``(key, record)`` for every stored point, in one query.

        The monitor and ``store export`` walk this for point-level
        contexts (sweep value, run, worker, save time).
        """
        if not self.path.exists():
            return
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT key, payload FROM artifacts WHERE kind = 'points' ORDER BY key"
            ).fetchall()
        for key, payload in rows:
            yield key, _decode_row("points", key, payload, self.path)

    # -- manifests -------------------------------------------------------
    def save_manifest(self, sweep_key: str, manifest: dict) -> None:
        """Upsert a sweep's run manifest row."""
        self._put("manifests", sweep_key, manifest)

    def load_manifest(self, sweep_key: str) -> dict | None:
        """The manifest row for ``sweep_key``, or ``None``."""
        return self._get("manifests", sweep_key)

    def list_manifests(self) -> list[str]:
        """Stored sweep keys, ascending."""
        return self._keys("manifests")

    # -- series ----------------------------------------------------------
    def save_series(self, series: "ExperimentSeries") -> None:
        """Persist an assembled series under its experiment id."""
        self.save_series_dict(series.experiment, series.to_dict())

    def load_series(self, experiment_id: str) -> "ExperimentSeries":
        """Load a previously assembled series by experiment id."""
        from repro.analysis.series import ExperimentSeries

        data = self.load_series_dict(experiment_id)
        if data is None:
            known = self.list_series()
            raise ConfigurationError(
                f"no stored series {experiment_id!r} under {self.locator} "
                f"(stored: {', '.join(known) or '<none>'})"
            )
        return ExperimentSeries.from_dict(data)

    def save_series_dict(self, experiment_id: str, data: dict) -> None:
        """Upsert one assembled series row."""
        self._put("series", experiment_id, data)

    def load_series_dict(self, experiment_id: str) -> dict | None:
        """The stored series dict for ``experiment_id``, or ``None``."""
        return self._get("series", experiment_id)

    def list_series(self) -> list[str]:
        """Experiment ids with an assembled series, ascending."""
        return self._keys("series")

    # -- checkpoints -----------------------------------------------------
    def put_checkpoint(self, key: str, payload: dict) -> bool:
        """Store one checkpoint chain link if absent; ``True`` if created.

        Keys are stage content keys (they commit to the whole event
        prefix plus the strategy lineup), so concurrent workers racing
        the same boundary write byte-identical payloads — the
        conditional put is a write-amplification saver, not a
        correctness requirement.
        """
        with self._connect() as conn:
            cur = conn.execute(
                "INSERT OR IGNORE INTO artifacts (kind, key, payload) "
                "VALUES ('checkpoints', ?, ?)",
                (key, json.dumps(payload, sort_keys=True)),
            )
            created = cur.rowcount > 0
            if created:
                self._bump_checkpoint_meta(conn, "writes")
        if _met.ENABLED:
            _met.REGISTRY.inc("store.ckpt.write" if created else "store.ckpt.dup")
        return created

    def get_checkpoint(self, key: str) -> dict | None:
        """The chain link stored under ``key``, or ``None`` if absent.

        The read and the hit/miss tick share one connection.
        """
        with self._connect() as conn:
            row = conn.execute(
                "SELECT payload FROM artifacts WHERE kind = 'checkpoints' AND key = ?", (key,)
            ).fetchone()
            record = None if row is None else _decode_row("checkpoints", key, row[0], self.path)
            self._bump_checkpoint_meta(conn, "hits" if record is not None else "misses")
        if _met.ENABLED:
            _met.REGISTRY.inc("store.ckpt.hit" if record is not None else "store.ckpt.miss")
        return record

    def load_checkpoint_record(self, key: str) -> dict | None:
        """The stored chain link for ``key``, or ``None``."""
        return self._get("checkpoints", key)

    def list_checkpoints(self) -> list[str]:
        """Stored checkpoint keys, ascending."""
        return self._keys("checkpoints")

    def delete_checkpoint(self, key: str) -> None:
        """Remove one chain link row (idempotent)."""
        self._delete("checkpoints", key)

    def checkpoint_stats(self) -> dict:
        """``{count, bytes, hits, misses, writes, gc_removed}`` for the table.

        ``count``/``bytes`` are live table state from one aggregate
        query (no payload reads); the rest are cumulative fleet totals
        from the meta row (exact — see :meth:`_bump_checkpoint_meta`).
        """
        count, total = 0, 0
        if self.path.exists():
            with self._connect() as conn:
                count, total = conn.execute(
                    "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0) "
                    "FROM artifacts WHERE kind = 'checkpoints'"
                ).fetchone()
        return {"count": int(count), "bytes": int(total), **self._checkpoint_meta()}

    def _checkpoint_meta(self) -> dict:
        meta = self._get("meta", "checkpoints") or {}
        return {
            field: int(meta.get(field, 0)) for field in ("hits", "misses", "writes", "gc_removed")
        }

    @staticmethod
    def _bump_checkpoint_meta(conn: sqlite3.Connection, field: str, by: int = 1) -> None:
        """Add ``by`` to one fleet counter inside the caller's transaction.

        One atomic upsert of the ``meta/checkpoints`` row, so concurrent
        workers never lose a tick and the caller opens no second
        connection.  The row feeds ``store stats``' checkpoint line only;
        resume logic never consults it.
        """
        path = f"$.{field}"
        conn.execute(
            "INSERT INTO artifacts (kind, key, payload) "
            "VALUES ('meta', 'checkpoints', json_object(?, ?)) "
            "ON CONFLICT (kind, key) DO UPDATE SET "
            "payload = json_set(payload, ?, COALESCE(json_extract(payload, ?), 0) + ?)",
            (field, by, path, path, by),
        )

    def gc_checkpoints(self) -> dict:
        """Prune chain links no live sweep manifest references.

        Every link written through an executor is stamped with the point
        keys of the group that cut it; a link is *live* while any of
        those points appears in some stored manifest's ``points`` list.
        Unstamped links (ad-hoc ``compute_group`` calls) are removed —
        pruning only costs a future fleet the replay the link would
        have saved, never correctness.  Returns
        ``{"kept": n, "removed": n}``.
        """
        live: set[str] = set()
        for sweep_key in self.list_manifests():
            manifest = self.load_manifest(sweep_key) or {}
            live.update(manifest.get("points", ()))
        kept = removed = 0
        for key in self.list_checkpoints():
            record = self.load_checkpoint_record(key)
            refs = (record or {}).get("points") or ()
            if record is not None and any(point in live for point in refs):
                kept += 1
            else:
                self.delete_checkpoint(key)
                removed += 1
        if removed:
            with self._connect() as conn:
                self._bump_checkpoint_meta(conn, "gc_removed", removed)
        return {"kept": kept, "removed": removed}

    # -- tasks + claims --------------------------------------------------
    def save_task(self, key: str, payload: dict) -> None:
        """Publish one pending task descriptor row."""
        self._put("tasks", key, payload)

    def load_task(self, key: str) -> dict | None:
        """The pending task descriptor for ``key``, or ``None``."""
        return self._get("tasks", key)

    def delete_task(self, key: str) -> None:
        """Remove a task descriptor row (idempotent)."""
        self._delete("tasks", key)

    def pending_task_keys(self) -> list[str]:
        """Keys of all published task descriptors, ascending."""
        return self._keys("tasks")

    def try_claim(self, key: str, owner: str, *, ttl: float = DEFAULT_CLAIM_TTL) -> bool:
        """Atomically claim ``key`` for ``owner``; ``True`` on success.

        Claims are ``INSERT OR IGNORE`` rows.  A claim older than ``ttl``
        seconds counts as abandoned and is purged first, so a worker
        that died mid-computation never wedges the queue (at-least-once
        semantics: the point may then be computed twice, which is safe
        because saves are idempotent).  Purging a stale row counts one
        lease break in the same transaction, so exactly the claimant
        that evicted the dead holder does the churn accounting.
        """
        now = time.time()
        with self._connect() as conn:
            cur = conn.execute(
                "DELETE FROM claims WHERE key = ? AND claimed_at < ?", (key, now - ttl)
            )
            if cur.rowcount > 0:
                self._bump_churn(conn, key)
            cur = conn.execute(
                "INSERT OR IGNORE INTO claims (key, owner, claimed_at) VALUES (?, ?, ?)",
                (key, owner, now),
            )
            return cur.rowcount == 1

    def renew_claim(self, key: str, owner: str) -> None:
        """Refresh a held claim's timestamp (no-op when absent).

        Drain loops call this as each group member completes, so a
        lease only goes stale when its holder stops making progress for
        a whole TTL — not merely because the group is large.
        """
        if not self.path.exists():
            return
        with self._connect() as conn:
            conn.execute(
                "UPDATE claims SET claimed_at = ? WHERE key = ? AND owner = ?",
                (time.time(), key, owner),
            )

    def release_claim(self, key: str) -> None:
        """Delete the claim row (idempotent)."""
        if not self.path.exists():
            return
        with self._connect() as conn:
            conn.execute("DELETE FROM claims WHERE key = ?", (key,))

    def list_claims(self) -> list[str]:
        """Keys currently under claim, ascending."""
        if not self.path.exists():
            return []
        with self._connect() as conn:
            rows = conn.execute("SELECT key FROM claims ORDER BY key").fetchall()
        return [r[0] for r in rows]

    def claim_info(self) -> dict[str, dict]:
        """``{key: {"owner": str, "age": seconds}}`` for every live claim.

        ``age`` counts from the last grant *or renewal*, i.e. it is the
        time the lease has gone without progress — the quantity the TTL
        staleness check and ``store stats`` both care about.
        """
        if not self.path.exists():
            return {}
        now = time.time()
        with self._connect() as conn:
            rows = conn.execute("SELECT key, owner, claimed_at FROM claims ORDER BY key").fetchall()
        return {key: {"owner": owner, "age": max(0.0, now - at)} for key, owner, at in rows}

    def claim_age(self, key: str) -> float | None:
        """Age of one key's claim in seconds, or ``None`` when unclaimed.

        The one-row lookup the quarantine check polls per task.
        """
        if not self.path.exists():
            return None
        with self._connect() as conn:
            row = conn.execute("SELECT claimed_at FROM claims WHERE key = ?", (key,)).fetchone()
        return None if row is None else max(0.0, time.time() - row[0])

    # -- lease churn + quarantine ----------------------------------------
    # A lease "break" is try_claim evicting a stale claim: the previous
    # holder stopped renewing for a whole TTL, i.e. it most likely died
    # mid-computation.  Tasks whose leases break repeatedly are poison
    # (they kill whoever claims them) and get parked in the quarantine
    # table instead of being re-claimed forever.
    def _bump_churn(self, conn: sqlite3.Connection, key: str) -> int:
        """Increment the churn row inside the caller's transaction."""
        row = conn.execute(
            "SELECT payload FROM artifacts WHERE kind = 'churn' AND key = ?", (key,)
        ).fetchone()
        breaks = (int(json.loads(row[0]).get("breaks", 0)) if row else 0) + 1
        conn.execute(
            "INSERT OR REPLACE INTO artifacts (kind, key, payload) VALUES ('churn', ?, ?)",
            (key, json.dumps({"breaks": breaks})),
        )
        obs.event("queue.lease_break", cat="queue", key=key, breaks=breaks)
        return breaks

    def record_lease_break(self, key: str) -> int:
        """Count one broken lease for ``key``; returns the new total."""
        with self._connect() as conn:
            return self._bump_churn(conn, key)

    def lease_breaks(self, key: str) -> int:
        """How many times ``key``'s lease has been broken (0 if never)."""
        record = self._get("churn", key)
        return int(record.get("breaks", 0)) if record else 0

    def lease_break_counts(self) -> dict[str, int]:
        """``{key: breaks}`` for every key with at least one break, one query."""
        if not self.path.exists():
            return {}
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT key, payload FROM artifacts WHERE kind = 'churn' ORDER BY key"
            ).fetchall()
        out: dict[str, int] = {}
        for key, payload in rows:
            breaks = int(json.loads(payload).get("breaks", 0))
            if breaks > 0:
                out[key] = breaks
        return out

    def reset_lease_breaks(self, key: str) -> None:
        """Forget ``key``'s break counter (requeue gives a clean slate)."""
        self._delete("churn", key)

    def quarantine_task(self, key: str, *, reason: str = "") -> bool:
        """Park ``key``'s pending descriptor in the quarantine table.

        Moves the task out of the queue (drain loops no longer see it),
        releases any claim, and records why.  Returns ``True`` when the
        key is quarantined after the call — including when a peer parked
        it first — and ``False`` when there is nothing to park.
        """
        if self.load_quarantined(key) is not None:
            self.delete_task(key)  # a peer parked it mid-scan
            return True
        payload = self.load_task(key)
        if payload is None:
            return False
        self._put(
            "quarantine",
            key,
            {
                "schema": _SCHEMA_VERSION,
                "payload": payload,
                "reason": reason,
                "lease_breaks": self.lease_breaks(key),
                "quarantined_at": time.time(),
            },
        )
        self.delete_task(key)
        self.release_claim(key)
        return True

    def requeue_quarantined(self, key: str) -> bool:
        """Release a quarantined descriptor back into the task queue.

        Restores the descriptor, clears the quarantine record and the
        break counter (the operator decided it deserves a clean slate).
        Returns ``False`` when ``key`` is not quarantined.
        """
        record = self.load_quarantined(key)
        if record is None:
            return False
        payload = record.get("payload")
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"quarantine record {key!r} in {self.locator} has no task payload"
            )
        self.save_task(key, payload)
        self._delete("quarantine", key)
        self.reset_lease_breaks(key)
        self.release_claim(key)
        return True

    def load_quarantined(self, key: str) -> dict | None:
        """The quarantine record for ``key``, or ``None``."""
        return self._get("quarantine", key)

    def list_quarantined(self) -> list[str]:
        """Keys currently quarantined, ascending."""
        return self._keys("quarantine")

    # -- heartbeats ------------------------------------------------------
    def record_heartbeat(self, worker: str) -> None:
        """Stamp ``worker``'s liveness (wall-clock time + pid).

        Workers beat every fraction of the lease TTL (see
        :mod:`repro.sim.executor`); the monitor flags a worker whose
        last beat is older than the TTL as stale instead of showing it
        as silently live.  Latest-wins per worker name.
        """
        self.save_heartbeat_record(worker, {"at": time.time(), "pid": os.getpid()})

    def heartbeats(self) -> dict[str, float]:
        """``{worker: last heartbeat epoch seconds}`` for every worker."""
        return {
            worker: float(record.get("at", 0.0))
            for worker, record in self.heartbeat_records().items()
        }

    def save_heartbeat_record(self, worker: str, record: dict) -> None:
        """Upsert one worker's heartbeat row (latest-wins)."""
        self._put("heartbeats", worker, record)

    def heartbeat_records(self) -> dict[str, dict]:
        """All heartbeat rows keyed by worker name, one query."""
        if not self.path.exists():
            return {}
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT key, payload FROM artifacts WHERE kind = 'heartbeats' ORDER BY key"
            ).fetchall()
        return {key: json.loads(payload) for key, payload in rows}

    # -- introspection ---------------------------------------------------
    def queue_stats(
        self,
        *,
        claim_info: dict[str, dict] | None = None,
        quarantined: "list[str] | None" = None,
    ) -> dict:
        """Cheap aggregate counts for ``store stats`` / ``store watch``.

        Everything here is a count or an age from one connection — no
        point payloads are read, so polling this in a watch loop stays
        cheap even on 10⁴+-point stores.  A caller that already fetched
        the claim table or the quarantine listing for its own display
        (the monitor does both) passes them in; they take precedence
        over the freshly queried values, so one snapshot stays
        internally consistent.
        """
        stats = {
            "backend": self.kind,
            "locator": self.locator,
            "points": 0,
            "manifests": 0,
            "series": 0,
            "tasks": 0,
            "claims": len(claim_info) if claim_info is not None else 0,
            "oldest_claim_age": 0.0,
            "quarantined": len(quarantined) if quarantined is not None else 0,
            "lease_breaks": 0,
            "checkpoints": {
                "count": 0,
                "bytes": 0,
                "hits": 0,
                "misses": 0,
                "writes": 0,
                "gc_removed": 0,
            },
        }
        if claim_info is not None:
            ages = [c["age"] for c in claim_info.values()]
            stats["oldest_claim_age"] = max(ages, default=0.0)
        if not self.path.exists():
            return stats
        with self._connect() as conn:
            kind_counts = dict(
                conn.execute("SELECT kind, COUNT(*) FROM artifacts GROUP BY kind").fetchall()
            )
            ckpt_count, ckpt_bytes = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0) "
                "FROM artifacts WHERE kind = 'checkpoints'"
            ).fetchone()
            if claim_info is None:
                n_claims, oldest = conn.execute(
                    "SELECT COUNT(*), MIN(claimed_at) FROM claims"
                ).fetchone()
                stats["claims"] = int(n_claims)
                stats["oldest_claim_age"] = (
                    max(0.0, time.time() - oldest) if oldest is not None else 0.0
                )
            churn_rows = conn.execute(
                "SELECT payload FROM artifacts WHERE kind = 'churn'"
            ).fetchall()
        stats.update(
            points=int(kind_counts.get("points", 0)),
            manifests=int(kind_counts.get("manifests", 0)),
            series=int(kind_counts.get("series", 0)),
            tasks=int(kind_counts.get("tasks", 0)),
            lease_breaks=sum(int(json.loads(p).get("breaks", 0)) for (p,) in churn_rows),
            checkpoints={
                "count": int(ckpt_count),
                "bytes": int(ckpt_bytes),
                **self._checkpoint_meta(),
            },
        )
        if quarantined is None:
            stats["quarantined"] = int(kind_counts.get("quarantine", 0))
        return stats

    def describe(self) -> dict:
        """Artifact counts for ``minim-cdma store ls``."""
        return {
            "backend": self.kind,
            "locator": self.locator,
            "points": len(self.list_points()),
            "manifests": len(self.list_manifests()),
            "series": self.list_series(),
            "tasks": len(self.pending_task_keys()),
            "claims": len(self.list_claims()),
            "quarantined": len(self.list_quarantined()),
            "checkpoints": len(self.list_checkpoints()),
        }

    # -- maintenance -----------------------------------------------------
    def compact(self) -> "SqliteBackend":
        """Reclaim free pages (``VACUUM``); returns self for chaining."""
        with self._connect() as conn:
            conn.execute("VACUUM")
        return self


def _decode_row(kind: str, key: str, payload: str, db: Path) -> dict:
    """One artifact row's JSON payload; a corrupt row raises ``ConfigurationError``."""
    try:
        return json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"corrupt {kind} row {key!r} in {db}: {exc}") from exc


def _is_legacy_json_dir(path: Path) -> bool:
    """Whether ``path`` holds a JSON-directory store and no database yet."""
    if (path / _SQLITE_BASENAME).exists():
        return False
    return any((path / sub).is_dir() for sub in _JSON_SUBDIRS)


def _json_files(directory: Path) -> Iterator[tuple[str, dict]]:
    """``(stem, payload)`` for every ``*.json`` file of one legacy subdirectory."""
    for path in sorted(directory.glob("*.json")):
        try:
            yield path.stem, json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"corrupt legacy artifact {path}: {exc}") from exc


def import_json_dir(root: Path | str) -> SqliteBackend | None:
    """Import a JSON-directory store into ``root/store.sqlite``, once.

    The retired layout kept one JSON file per artifact
    (``points/<key>.json``, ``sweeps/<sweep-key>.json``,
    ``series/<id>.json``, ``checkpoints/<key>.json``, plus queue state).
    Points, manifests and series are copied as they are; checkpoint
    links travel only while a live manifest references one of their
    points (the :meth:`SqliteBackend.gc_checkpoints` rule).  Queue
    state is transient and is dropped.  The database is written under
    a temporary name and renamed into place, so an interrupted import
    leaves the JSON files authoritative; the JSON subdirectories are
    removed afterwards.  Keys and payloads are unchanged, so existing
    ``--results root`` invocations resume from the imported store.
    Returns the imported store, or ``None`` when ``root`` holds no
    JSON-directory store.
    """
    root = Path(root)
    if not _is_legacy_json_dir(root):
        return None
    live = {
        point
        for _, manifest in _json_files(root / "sweeps")
        for point in manifest.get("points", ())
    }

    def rows() -> Iterator[tuple[str, str, str]]:
        for sub, kind in _JSON_TABLES.items():
            for key, payload in _json_files(root / sub):
                yield kind, key, json.dumps(payload, sort_keys=True)
        for key, link in _json_files(root / "checkpoints"):
            if any(point in live for point in link.get("points") or ()):
                yield "checkpoints", key, json.dumps(link, sort_keys=True)

    tmp = root / f".{_SQLITE_BASENAME}.{os.getpid()}.tmp"
    tmp.unlink(missing_ok=True)
    try:
        with SqliteBackend(tmp)._connect() as conn:
            conn.executemany("INSERT INTO artifacts (kind, key, payload) VALUES (?, ?, ?)", rows())
        os.replace(tmp, root / _SQLITE_BASENAME)
    finally:
        tmp.unlink(missing_ok=True)
    for sub in _JSON_SUBDIRS:
        shutil.rmtree(root / sub, ignore_errors=True)
    return SqliteBackend(root / _SQLITE_BASENAME)


def open_backend(path: Path | str, kind: str = "sqlite") -> SqliteBackend:
    """Open the results store at ``path`` (a file, directory or locator).

    Workers use this to re-open the orchestrator's store from its
    locator string alone.  ``kind`` only accepts ``"sqlite"``, the one
    store there is.
    """
    if kind != "sqlite":
        raise ConfigurationError(f"unknown results-store kind {kind!r} (expected 'sqlite')")
    return SqliteBackend(path)
