"""The durability manager: WAL capture, checkpoints, restore and replay.

One :class:`DurabilityManager` owns a data directory and persists every
supported engine registered on its system:

* an :class:`EngineStore` per plain engine hooks the engine's changelog
  (every :class:`~repro.stores.changelog.DeltaBatch` becomes one WAL
  record, appended under the log lock so WAL order equals sequence order)
  and checkpoints — sealed heap pages not yet on disk into one segment
  file, atomic snapshot naming them, WAL rotation, manifest swap — every
  ``snapshot_every`` records;
* a directory an older release wrote for a sharded engine (a facade
  manifest over ``shards/g{generation}-s{i}`` stores) opens as one
  relational engine of partitioned tables (:meth:`EngineStore._restore_sharded`);
* registered views' definitions are pickled to ``views.pkl`` and
  re-registered after recovery (their state resyncs from the recovered
  base snapshots via the normal initialization path).

Recovery (on attach) = restore the manifest's snapshot, then replay the
WAL tail through the engines' own mutators (:mod:`repro.durability.state`),
which regenerates identical changelog batches and version counters — the
recovered scoped data versions match a never-crashed process exactly.
"""

from __future__ import annotations

import pickle
import shutil
import threading
import time
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.durability.snapshot import (
    SEGMENT_HEADER,
    SNAPSHOT_PREFIX,
    load_manifest,
    load_snapshot,
    read_record,
    snapshot_name,
    write_atomic,
    write_manifest,
    write_snapshot,
)
from repro.durability.state import (
    PERSISTABLE_ENGINES,
    decode_entries,
    dump_counters,
    dump_state,
    encode_entries,
    replay_record,
    restore_counters,
    restore_state,
    stored_table,
)
from repro.durability.wal import (
    Liveness,
    WalWriter,
    encode_record,
    read_records,
    segment_index,
)
from repro.exceptions import ConfigurationError
from repro.obs import Observability
from repro.stores.base import Engine
from repro.stores.changelog import DeltaBatch, PageEntry, PageParts
from repro.stores.keyvalue.engine import KeyValueEngine
from repro.stores.keyvalue.sstable import SSTable
from repro.stores.relational.engine import RelationalEngine

if TYPE_CHECKING:
    from repro.core.system import PolystorePlusPlus

VIEWS_FILE = "views.pkl"
SSTABLE_PREFIX = "sst-"
SSTABLE_SUFFIX = ".pkl"
PAGES_PREFIX = "seg-"


def _sanitize(name: str) -> str:
    """A filesystem-safe directory name for one engine."""
    return "".join(c if c.isalnum() or c in "-_." else f"%{ord(c):02x}"
                   for c in name)


class EngineStore:
    """Durability for one plain engine: WAL hook, snapshots, recovery."""

    def __init__(self, manager: "DurabilityManager", engine: Engine,
                 directory: Path) -> None:
        self.manager = manager
        self.engine = engine
        self.directory = directory
        self.liveness = manager.liveness
        self._wal: WalWriter | None = None
        self._snap_id = 0
        self._sst_seq = 0
        self._since_checkpoint = 0
        #: Page-segment file -> pages written into it, for every segment a
        #: page of the last dump still names (:meth:`seal`).
        self._segments: dict[str, int] = {}
        self._sealed = {"pages_written": 0, "pages_reused": 0}
        self.recovery: dict[str, Any] = {}

    # -- attach / restore ------------------------------------------------------------

    def attach(self) -> None:
        """Restore persisted state (if any), then start capturing writes."""
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest = load_manifest(self.directory)
        if manifest is None:
            self._wal = WalWriter(self.directory, self.liveness,
                                  sync=self.manager.sync,
                                  sync_interval_s=self.manager.sync_interval_s,
                                  obs=self.manager.obs,
                                  label=self.engine.name)
            self.recovery = {"restored": False, "replayed_batches": 0,
                            "replayed_meta": 0, "truncated_records": 0}
        else:
            self._restore(manifest)
        replayed = int(self.recovery.get("replayed_batches", 0))
        if replayed:
            self.manager.obs.recovery_replayed_total.inc(
                replayed, engine=self.engine.name)
        if self.recovery.get("restored"):
            self.manager.obs.logger("durability").info(
                "wal_recovery", engine=self.engine.name,
                replayed_batches=replayed,
                truncated_records=self.recovery.get("truncated_records", 0))
        self._hook()
        # Checkpoint immediately: a fresh attach snapshots whatever state
        # the engine already carries, and a recovered attach re-anchors the
        # manifest so the *next* recovery replays an empty tail.
        self.checkpoint()

    def _hook(self) -> None:
        self.engine.changelog.attach_wal(self._on_batch)
        self.engine._durability_meta = self._on_meta
        if isinstance(self.engine, KeyValueEngine):
            self.engine.attach_spill(self)

    def _restore(self, manifest: dict[str, Any]) -> None:
        expected = type(self.engine).__name__
        sharded = manifest.get("engine_type") == "ShardedEngine" and isinstance(
            self.engine, RelationalEngine)
        if manifest.get("engine_type") != expected and not sharded:
            raise ConfigurationError(
                f"{self.directory} holds a {manifest.get('engine_type')!r} "
                f"state but engine {self.engine.name!r} is a {expected}"
            )
        self._snap_id = manifest["snapshot_id"]
        self._sst_seq, last_segment = self._scan_existing()
        batches, meta, truncated = (self._restore_sharded if sharded
                                    else self._replay)(manifest)
        self._wal = WalWriter(self.directory, self.liveness,
                              sync=self.manager.sync,
                              sync_interval_s=self.manager.sync_interval_s,
                              start_segment=last_segment + 1,
                              obs=self.manager.obs, label=self.engine.name)
        self.recovery = {"restored": True,
                         "snapshot_id": manifest["snapshot_id"],
                         "replayed_batches": batches,
                         "replayed_meta": meta,
                         "truncated_records": truncated}

    def _replay(self, manifest: dict[str, Any]) -> tuple[int, int, int]:
        """Restore the snapshot ``manifest`` names, then replay the WAL tail;
        returns the batch and meta records replayed and the torn ones."""
        payload = load_snapshot(self.directory, manifest["snapshot"])
        restore_state(self.engine, payload["state"], self)
        restore_counters(self.engine, payload["counters"])
        records, truncated = read_records(self.directory,
                                          manifest["wal_segment"])
        batches = meta = 0
        for record in records:
            if replay_record(self.engine, record):
                batches += 1
            else:
                meta += 1
        return batches, meta, truncated

    def _restore_sharded(self, manifest: dict[str, Any]) -> tuple[int, int, int]:
        """Open what an older release wrote for a sharded relational engine
        as this one engine, partitioned into its ``num_shards``.

        Each ``shards/g{generation}-s{i}`` store is restored as a relational
        engine of its own; each table's pages are concatenated in shard
        order, so its rows read back in the order the shards' did, and its
        indexes are rebuilt.  The facade's snapshot and WAL tail of ``{scope,
        gap}`` records give the version counters.  The first checkpoint
        writes the plain layout; :meth:`_gc` then drops ``shards/``.
        """
        engine = self.engine
        count = manifest["num_shards"]
        shards = []
        for index in range(count):
            shard = RelationalEngine(f"{engine.name}-s{index}")
            directory = self.directory / "shards" / f"g{manifest['generation']}-s{index}"
            EngineStore(self.manager, shard, directory)._replay(load_manifest(directory))
            shards.append(shard)
        payload = load_snapshot(self.directory, manifest["snapshot"])
        keys = dict(payload["shard_keys"])
        restore_counters(engine, payload["counters"])
        records, truncated = read_records(self.directory, manifest["wal_segment"])
        batches = meta = 0
        for record in records:
            if record["k"] == "m":
                meta += 1
                continue
            kind, args = record.get("op") or (None, {})
            if kind == "create_table":
                keys[args["table"]] = args["shard_key"]
            engine.mark_data_changed(record["scope"],
                                     entries=None if record["gap"] else (),
                                     notify=False)
            batches += 1
        engine.partitions = count
        engine._tables = {}
        for name, first in shards[0]._tables.items():
            pages = [page for shard in shards for page in shard._tables[name].heap._pages]
            for page in pages:
                page._ref = None  # a ref into a shard's segment, not this store's
            engine._tables[name] = stored_table(
                name, first.schema, first.heap.page_capacity, pages, keys.get(name),
                count, first.hash_indexes, first.sorted_indexes)
        return batches, meta, truncated

    def _scan_existing(self) -> tuple[int, int]:
        """Highest existing SSTable sequence and WAL segment numbers."""
        max_sst = 0
        max_segment = -1
        for entry in self.directory.iterdir():
            name = entry.name
            segment = segment_index(name)
            if segment is not None:
                max_segment = max(max_segment, segment)
            elif (name.startswith(SSTABLE_PREFIX)
                  and name.endswith(SSTABLE_SUFFIX)):
                digits = name[len(SSTABLE_PREFIX):-len(SSTABLE_SUFFIX)]
                if digits.isdigit():
                    max_sst = max(max_sst, int(digits))
        return max_sst, max_segment

    # -- write capture ---------------------------------------------------------------

    def _on_batch(self, batch: DeltaBatch) -> None:
        """Changelog hook: runs under the log lock, so WAL order == seq order."""
        if not self.liveness.alive:
            return
        assert self._wal is not None
        # A page entry goes down as its row list: the record stays builtins.
        entries = batch.parts if type(batch.parts) is not PageParts else [
            (part.page.rows, part.weight) if type(part) is PageEntry else part
            for part in batch.parts]
        self._wal.append({"k": "b", "scope": batch.scope,
                          "entries": entries, "gap": batch.gap,
                          "op": batch.op})
        self._bump()

    def _on_meta(self, op: tuple[str, dict[str, Any]]) -> None:
        """Hook for mutations that bypass the changelog (index DDL)."""
        if not self.liveness.alive:
            return
        assert self._wal is not None
        self._wal.append({"k": "m", "op": op})
        self._bump()

    def _bump(self) -> None:
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.manager.snapshot_every:
            self.checkpoint()

    # -- key/value spill sink ----------------------------------------------------------

    def flushed(self, engine: KeyValueEngine) -> None:
        """A memtable froze into an SSTable: spill it and checkpoint."""
        self.checkpoint()

    def compacted(self, engine: KeyValueEngine) -> None:
        """A compaction rewrote the SSTable set: re-spill and checkpoint."""
        self.checkpoint()

    def spill_sstable(self, sst: SSTable) -> str:
        """Persist one in-memory SSTable to its own checksummed file."""
        self._sst_seq += 1
        name = f"{SSTABLE_PREFIX}{self._sst_seq:08d}{SSTABLE_SUFFIX}"
        write_atomic(self.directory / name,
                     encode_record(encode_entries(sst.items())))
        sst._spill_file = name
        return name

    def load_sstable(self, name: str) -> SSTable:
        """Load one spilled SSTable file back into memory."""
        sst = SSTable(decode_entries(read_record(self.directory / name)))
        sst._spill_file = name
        return sst

    # -- relational page segments ------------------------------------------------------

    def seal(self, pages: list[tuple[Any, Any]]) -> None:
        """Give every sealed heap page (paired with its table's plain
        columns) a ref into a segment file of this directory.

        A page keeps the ref an earlier checkpoint gave it while at least
        half of that segment's pages are still named; the rest — new pages,
        the copies a rewrite made, the survivors of a segment gone mostly
        dead — go into one new segment, one fsync.  A segment left without a
        named page drops out of ``_segments``; :meth:`_gc` unlinks it once
        the manifest that stopped naming it is in place.
        """
        live = Counter(page._ref[0] for page, _ in pages if page._ref is not None)
        self._segments = {name: size for name, size in self._segments.items()
                          if 2 * live[name] >= size}
        fresh = [(page, columns) for page, columns in pages
                 if page._ref is None or page._ref[0] not in self._segments]
        if fresh:
            name = f"{PAGES_PREFIX}{self._snap_id:08d}.pkl"
            write_atomic(self.directory / name, encode_record(
                [(columns, page.rows) for page, columns in fresh]),
                header=SEGMENT_HEADER, fault=self.liveness)
            for index, (page, _) in enumerate(fresh):
                page._ref = (name, index)
            self._segments[name] = len(fresh)
        self._sealed = {"pages_written": len(fresh),
                       "pages_reused": len(pages) - len(fresh)}

    def load_segment(self, name: str) -> list[Any]:
        """The ``(columns, rows)`` pages of one segment a snapshot names."""
        pages = read_record(self.directory / name, SEGMENT_HEADER)
        self._segments[name] = len(pages)
        return pages

    # -- checkpoint ---------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Write what is not on disk yet (sealed pages, SSTables) and the
        snapshot naming it, rotate the WAL, swap the manifest, GC.

        A crash at any point leaves the previous manifest, every file it
        names + a longer WAL — recovery replays more, but never diverges.
        """
        if not self.liveness.alive or self._wal is None:
            return
        engine = self.engine
        obs = self.manager.obs
        checkpoint_start = time.perf_counter()
        self._snap_id += 1
        with obs.tracer.span(f"snapshot:{engine.name}", "durability",
                             engine=engine.name, snapshot_id=self._snap_id):
            payload = {"state": dump_state(engine, self),
                       "counters": dump_counters(engine)}
            name = write_snapshot(self.directory, self._snap_id, payload,
                                  self.liveness)
        segment = self._wal.rotate()
        write_manifest(self.directory, {
            "engine": engine.name,
            "engine_type": type(engine).__name__,
            "snapshot_id": self._snap_id,
            "snapshot": name,
            "wal_segment": segment,
            "data_version": engine.data_version,
            "scoped_versions": {scope: engine.data_version_for(scope)
                                for scope in sorted(engine.known_scopes())},
        })
        self._since_checkpoint = 0
        self._gc()
        if obs.enabled:
            duration_s = time.perf_counter() - checkpoint_start
            obs.snapshot_seconds.observe(duration_s, engine=engine.name)
            obs.checkpoints_total.inc(engine=engine.name)
            obs.logger("durability").info(
                "wal_checkpoint", engine=engine.name,
                snapshot_id=self._snap_id, duration_s=round(duration_s, 6))

    def checkpoint_state(self) -> dict[str, Any]:
        """Current manifest anchor, for ``DurabilityManager.describe()``."""
        return {
            "snapshot_id": self._snap_id,
            "wal_segment": self._wal.segment if self._wal is not None else None,
            "since_checkpoint": self._since_checkpoint,
            **self._sealed,
            "segments": len(self._segments),
        }

    def _gc(self) -> None:
        keep = {snapshot_name(self._snap_id), *self._segments}
        if isinstance(self.engine, KeyValueEngine):
            keep |= {f for f in (getattr(sst, "_spill_file", None)
                                 for sst in self.engine._sstables) if f}
        assert self._wal is not None
        current_segment = self._wal.segment
        for entry in self.directory.iterdir():
            name = entry.name
            if name in keep:
                continue
            segment = segment_index(name)
            if segment is not None:
                if segment < current_segment:
                    entry.unlink(missing_ok=True)
            elif (name.endswith(".tmp") or name.startswith(
                    (SNAPSHOT_PREFIX, SSTABLE_PREFIX, PAGES_PREFIX))):
                entry.unlink(missing_ok=True)
            elif name == "shards":  # an older sharded layout, now restored
                shutil.rmtree(entry, ignore_errors=True)

    # -- detach -------------------------------------------------------------------------

    def detach(self) -> None:
        """Stop capturing and close files without a final checkpoint."""
        self.engine.changelog.detach_wal()
        self.engine._durability_meta = None
        if isinstance(self.engine, KeyValueEngine):
            self.engine.attach_spill(None)
        if self._wal is not None:
            self._wal.close()

    def close(self) -> None:
        """Final checkpoint, then release the engine and file handles."""
        self.checkpoint()
        self.detach()


class DurabilityManager:
    """Coordinates the stores of one data directory (one per system)."""

    def __init__(self, system: "PolystorePlusPlus", path: str, *,
                 sync: str = "interval", sync_interval_s: float = 0.05,
                 snapshot_every: int = 512) -> None:
        if snapshot_every < 1:
            raise ConfigurationError("snapshot_every must be at least 1")
        self.system = system
        self.root = Path(path).expanduser()
        (self.root / "engines").mkdir(parents=True, exist_ok=True)
        self.sync = sync
        self.sync_interval_s = sync_interval_s
        self.snapshot_every = snapshot_every
        self.liveness = Liveness()
        self._lock = threading.RLock()
        self._stores: dict[str, EngineStore] = {}
        self._skipped: list[str] = []
        self._view_specs: dict[str, dict[str, Any]] = self._load_view_specs()
        self._unpersisted_views: set[str] = set()

    @property
    def obs(self) -> Observability:
        """The system's observability hub (inert when constructed before it)."""
        return getattr(self.system, "obs", None) or Observability.disabled()

    # -- engines ------------------------------------------------------------------------

    def attach(self, engine: Engine) -> None:
        """Start persisting ``engine`` (restoring any prior state first)."""
        with self._lock:
            if engine.name in self._stores:
                return
            if not isinstance(engine, PERSISTABLE_ENGINES):
                # Graph/array/ML engines have no dump/replay path yet; they
                # keep working in memory only (documented in DESIGN.md).
                if engine.name not in self._skipped:
                    self._skipped.append(engine.name)
                return
            store = EngineStore(self, engine, self._engine_dir(engine.name))
            store.attach()
            self._stores[engine.name] = store
        self.restore_views()

    def _engine_dir(self, name: str) -> Path:
        return self.root / "engines" / _sanitize(name)

    def checkpoint(self) -> None:
        """Force a checkpoint of every attached store."""
        with self._lock:
            for store in self._stores.values():
                store.checkpoint()

    def close(self) -> None:
        """Final checkpoints, then release every hook and file handle."""
        with self._lock:
            for store in self._stores.values():
                store.close()
            self._stores.clear()

    # -- views --------------------------------------------------------------------------

    def _views_path(self) -> Path:
        return self.root / VIEWS_FILE

    def _load_view_specs(self) -> dict[str, dict[str, Any]]:
        path = self._views_path()
        if not path.exists():
            return {}
        return dict(read_record(path))

    def _write_view_specs(self) -> None:
        if not self.liveness.alive:
            return
        write_atomic(self._views_path(), encode_record(self._view_specs))

    def save_view(self, view: Any) -> None:
        """Persist one registered view's definition (best effort).

        Definitions holding unpicklable params (e.g. lambda UDFs) are
        skipped and reported via :meth:`describe`; everything else in the
        system stays durable.
        """
        spec = {"node": view.root, "policy": view.policy}
        try:
            pickle.dumps(spec)
        except Exception:  # noqa: BLE001 - arbitrary user callables
            self._unpersisted_views.add(view.name)
            return
        with self._lock:
            self._view_specs[view.name] = spec
            self._unpersisted_views.discard(view.name)
            self._write_view_specs()

    def forget_view(self, name: str) -> None:
        """Drop a view's persisted definition."""
        with self._lock:
            self._unpersisted_views.discard(name)
            if self._view_specs.pop(name, None) is not None:
                self._write_view_specs()

    def restore_views(self) -> None:
        """Re-register persisted views whose source engines are attached.

        Views re-initialize through the normal create path — a full
        resync-from-snapshot against the recovered base data.  Specs whose
        engines are not registered yet stay pending and are retried after
        every subsequent attach.
        """
        from repro.eide.dataflow import Dataset

        with self._lock:
            pending = {name: spec for name, spec in self._view_specs.items()
                       if name not in self.system.views}
        for name, spec in pending.items():
            try:
                self.system.views.create(name, Dataset(spec["node"]),
                                         policy=spec["policy"])
            except Exception:  # noqa: BLE001 - source engines not attached yet
                continue

    # -- introspection ------------------------------------------------------------------

    def recovery_report(self) -> dict[str, dict[str, Any]]:
        """Per-engine recovery details from the last attach cycle.

        ``replayed_batches`` counts the WAL-tail records re-applied after
        the restored snapshot — the acceptance evidence that recovery
        replays only the tail.
        """
        with self._lock:
            return {name: dict(store.recovery)
                    for name, store in self._stores.items()}

    def describe(self) -> dict[str, Any]:
        """Configuration and coverage summary for ``system.describe()``."""
        with self._lock:
            return {
                "path": str(self.root),
                "sync": self.sync,
                "snapshot_every": self.snapshot_every,
                "alive": self.liveness.alive,
                "engines": sorted(self._stores),
                "skipped_engines": list(self._skipped),
                "views": sorted(self._view_specs),
                "unpersisted_views": sorted(self._unpersisted_views),
                "checkpoints": {name: store.checkpoint_state()
                                for name, store in sorted(self._stores.items())},
            }
