"""Persistent, cross-process result store (sqlite, schema ``repro.store/1``).

The in-memory :class:`~repro.engine.cache.EvalCache` dies with its
process, so every CLI invocation and every restarted service re-evaluates
configurations the fleet has already paid for.  :class:`ResultStore` is
the durable L2 tier underneath it: a single sqlite file holding finished
:class:`~repro.core.metrics.PerformanceEstimate` records, content-addressed
by the same fingerprint family :mod:`repro.engine.resilience` computes for
checkpoints -- an *evaluator fingerprint* (workload + backend + energy
model) plus the ``(T, L, S, B)`` configuration key.  Estimates round-trip
through :func:`~repro.engine.resilience.estimate_to_json`, whose floats
serialise via ``repr``, so a stored result is bit-identical to a freshly
computed one.

:class:`StoreBackedEvaluator` wraps any engine evaluator with the store:
``evaluate_batch(configs)`` first consults the store (an L2 hit skips the
whole pipeline, including the EvalCache), and writes every freshly
computed estimate back.  The wrapper delegates ``workload`` / ``backend``
/ ``cache`` to the inner evaluator, so sweep fingerprints, checkpoint
journals and :class:`~repro.engine.parallel.ParallelSweep` chunking are
identical with or without the store.  The store stays in the process
that opened it: parallel evaluation fans out only the store's misses,
and only the inner evaluator crosses into workers.

Store schema (``repro.store/1``)::

    meta(key TEXT PRIMARY KEY, value TEXT)        -- {"schema": "repro.store/1"}
    estimates(eval_id TEXT, config_key TEXT,      -- "T,L,S,B"
              estimate TEXT,                      -- estimate_to_json JSON
              created_s REAL,
              checksum TEXT,                      -- sha256 of the JSON text
              PRIMARY KEY (eval_id, config_key))
    jobs(job_id TEXT PRIMARY KEY, doc TEXT)       -- repro.serve job records
    manifests(job_id TEXT PRIMARY KEY, doc TEXT,
              checksum TEXT)                      -- repro.manifest/1 documents
    traces(job_id TEXT PRIMARY KEY, doc TEXT,
           checksum TEXT)                         -- repro.trace/1 timelines
    quarantine(source TEXT, row_key TEXT,         -- corrupt rows, preserved
               doc TEXT, reason TEXT, quarantined_s REAL)

The ``manifests`` and ``traces`` tables record provenance and timeline
documents of finished jobs *alongside* the keys, never inside them; the
``checksum`` columns and the ``quarantine`` table are equally additive:
the schema tag stays ``repro.store/1`` and every fingerprint is
byte-identical to what earlier versions wrote, so older stores open (and
gain the columns) in place -- legacy rows simply carry ``NULL`` checksums
until ``verify --repair`` backfills them.

Self-healing: every estimate/manifest/trace read re-hashes the row
against its checksum and re-parses it.  A corrupt row is moved to the
``quarantine`` table (never silently dropped -- the bytes are evidence),
counted under ``store.corruption.*``, and reported as a miss, so the
config is transparently re-evaluated instead of served poisoned.
:meth:`ResultStore.verify` scans the whole file on demand and, with
``repair=True``, backfills legacy checksums and rebuilds quarantined
estimates from the serve layer's checkpoint journals.  Writers take a
sqlite ``busy_timeout`` plus a bounded, seeded-backoff retry on
``SQLITE_BUSY`` so multi-process writers degrade to waiting, not errors.

Counters fed into the :mod:`repro.obs` registry: ``store.hits``,
``store.misses`` (reads) and ``store.puts`` (writes) -- the numbers the
coalescing acceptance tests assert on -- plus ``store.corruption.detected``
/ ``store.corruption.quarantined``, ``store.busy_retries`` and
``store.read_seconds`` / ``store.write_seconds`` latency histograms over
the estimate paths.  :meth:`ResultStore.stats` reports per-table row
counts and the sqlite file size, which the service republishes as gauges
on every ``/metrics`` snapshot.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import sqlite3
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import CacheConfig
from repro.core.metrics import PerformanceEstimate
from repro.engine.resilience import (
    RetryPolicy,
    _evaluator_identity,
    estimate_from_json,
    estimate_to_json,
    load_checkpoint_estimates,
)
from repro.engine.result import ExplorationResult
from repro.obs.metrics import get_metrics

__all__ = [
    "STORE_SCHEMA",
    "ResultStore",
    "StoreBackedEvaluator",
    "StoreError",
    "StoreSchemaError",
    "config_key",
    "evaluator_fingerprint",
    "open_store",
]

logger = logging.getLogger(__name__)

STORE_SCHEMA = "repro.store/1"
_SCHEMA_PREFIX = "repro.store/"
_SCHEMA_VERSION = 1

_DDL = (
    "CREATE TABLE IF NOT EXISTS meta ("
    " key TEXT PRIMARY KEY, value TEXT NOT NULL)",
    "CREATE TABLE IF NOT EXISTS estimates ("
    " eval_id TEXT NOT NULL,"
    " config_key TEXT NOT NULL,"
    " estimate TEXT NOT NULL,"
    " created_s REAL NOT NULL,"
    " PRIMARY KEY (eval_id, config_key))",
    "CREATE TABLE IF NOT EXISTS jobs ("
    " job_id TEXT PRIMARY KEY, doc TEXT NOT NULL)",
    "CREATE TABLE IF NOT EXISTS manifests ("
    " job_id TEXT PRIMARY KEY, doc TEXT NOT NULL)",
    "CREATE TABLE IF NOT EXISTS traces ("
    " job_id TEXT PRIMARY KEY, doc TEXT NOT NULL)",
    "CREATE TABLE IF NOT EXISTS quarantine ("
    " source TEXT NOT NULL,"
    " row_key TEXT NOT NULL,"
    " doc TEXT,"
    " reason TEXT NOT NULL,"
    " quarantined_s REAL NOT NULL)",
)

#: Additive columns grafted onto pre-checksum stores in place (sqlite has
#: no ADD COLUMN IF NOT EXISTS; the duplicate-column error is the signal
#: the store is already current).
_MIGRATIONS = (
    "ALTER TABLE estimates ADD COLUMN checksum TEXT",
    "ALTER TABLE manifests ADD COLUMN checksum TEXT",
    "ALTER TABLE traces ADD COLUMN checksum TEXT",
)

#: SQLITE_BUSY / SQLITE_LOCKED surface as OperationalError with these
#: markers in the message; anything else is a real error.
_BUSY_MARKERS = ("locked", "busy")


def _checksum(text: str) -> str:
    """The per-row integrity hash: sha256 of the stored JSON text."""
    return hashlib.sha256(text.encode()).hexdigest()


class StoreError(ValueError):
    """The result store file could not be used."""


class StoreSchemaError(StoreError):
    """The store was written by a newer schema than this version reads."""


def config_key(config: CacheConfig) -> str:
    """The ``"T,L,S,B"`` row key of one configuration."""
    return f"{config.size},{config.line_size},{config.ways},{config.tiling}"


def evaluator_fingerprint(evaluator: Any) -> str:
    """SHA-256 identity of *what one configuration evaluates against*.

    Builds on the same textual identity
    :func:`repro.engine.resilience.sweep_fingerprint` hashes (workload key,
    backend name and parameters, Gray coding), extended with the energy
    model's constants -- two evaluators that would disagree on any
    estimate field must never share store rows.  Energy-model *subclasses*
    (e.g. :class:`~repro.energy.kamble_ghose.KambleGhoseModel`) additionally
    contribute their class name: they change ``E_cell`` without changing
    any constant, so sharing rows with the paper's model would poison the
    store.  The class qualifier is omitted for the base
    :class:`~repro.energy.model.EnergyModel`, keeping every fingerprint
    ever written by earlier versions byte-identical.
    """
    from repro.energy.model import EnergyModel

    model = getattr(evaluator, "energy_model", None)
    if model is None:
        model_id = None
    else:
        model_id = (
            repr(model.tech),
            repr(model.sram),
            model.subbanks,
            model.phased,
        )
        if type(model) is not EnergyModel:
            model_id = (type(model).__qualname__,) + model_id
    digest = hashlib.sha256()
    digest.update(_evaluator_identity(evaluator).encode())
    digest.update(repr(model_id).encode())
    return digest.hexdigest()


class ResultStore:
    """Disk-backed, cross-process store of finished estimates and jobs.

    One sqlite connection, shared across threads behind a lock; WAL
    journaling (best-effort -- some filesystems refuse it) lets several
    *processes* read and write the same file concurrently.  Writes use
    ``INSERT OR IGNORE``: estimates are deterministic for a given
    ``(eval_id, config)``, so the first writer wins and races are benign.
    """

    def __init__(self, path: str, timeout_s: float = 30.0) -> None:
        self.path = str(path)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            self.path, timeout=timeout_s, check_same_thread=False
        )
        #: Bounded, deterministic backoff for SQLITE_BUSY writers; the
        #: path token desynchronises processes sharing one file.
        self._busy_retry = RetryPolicy(
            max_retries=5, backoff_base_s=0.01, backoff_cap_s=0.5
        )
        metrics = get_metrics()
        self._hit_counter = metrics.counter("store.hits")
        self._miss_counter = metrics.counter("store.misses")
        self._put_counter = metrics.counter("store.puts")
        self._read_hist = metrics.histogram("store.read_seconds")
        self._write_hist = metrics.histogram("store.write_seconds")
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(
                "PRAGMA busy_timeout = %d" % int(timeout_s * 1000)
            )
            self._migrate()
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            raise StoreError(
                f"{self.path} is not a {STORE_SCHEMA} store: {exc}"
            ) from exc

    def _migrate(self) -> None:
        """Create the schema on an empty database; verify it otherwise."""
        with self._lock, self._conn:
            for statement in _DDL:
                self._conn.execute(statement)
            for statement in _MIGRATIONS:
                try:
                    self._conn.execute(statement)
                except sqlite3.OperationalError as exc:
                    if "duplicate column" not in str(exc).lower():
                        raise
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema', ?)",
                    (STORE_SCHEMA,),
                )
                return
        tag = row[0]
        if tag == STORE_SCHEMA:
            return
        version: Optional[int] = None
        if isinstance(tag, str) and tag.startswith(_SCHEMA_PREFIX):
            suffix = tag[len(_SCHEMA_PREFIX):]
            if suffix.isdigit():
                version = int(suffix)
        if version is not None and version > _SCHEMA_VERSION:
            raise StoreSchemaError(
                f"{self.path} uses schema {tag}, newer than the "
                f"{STORE_SCHEMA} this version reads; upgrade repro or "
                "point --store at a fresh file"
            )
        raise StoreError(
            f"{self.path} is not a {STORE_SCHEMA} store (schema tag {tag!r})"
        )

    # ------------------------------------------------------------------
    # busy-retry and quarantine plumbing

    def _write(self, fn: Callable[[sqlite3.Connection], Any]) -> Any:
        """Run one write transaction, retrying bounded on SQLITE_BUSY.

        ``PRAGMA busy_timeout`` already makes sqlite wait inside one
        statement; this wrapper adds a seeded-backoff retry *around* the
        transaction for the cases the timeout cannot cover (deadlock
        aborts, writers stuck behind a WAL checkpoint).
        """
        attempt = 0
        while True:
            try:
                with self._lock, self._conn:
                    return fn(self._conn)
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                if (
                    not any(marker in message for marker in _BUSY_MARKERS)
                    or attempt >= self._busy_retry.max_retries
                ):
                    raise
                get_metrics().counter("store.busy_retries").inc()
                logger.warning(
                    "store %s: write hit SQLITE_BUSY (attempt %d); "
                    "backing off",
                    self.path,
                    attempt + 1,
                )
                time.sleep(self._busy_retry.delay_s(attempt, self.path))
                attempt += 1

    def _quarantine(
        self,
        source: str,
        row_key: str,
        doc: Optional[str],
        reason: str,
        delete_sql: str,
        delete_params: Tuple[Any, ...],
    ) -> None:
        """Move one corrupt row aside (evidence preserved) and count it.

        The row is *moved*, not dropped: subsequent reads miss, so the
        configuration is transparently re-evaluated and re-stored, while
        the poisoned bytes stay inspectable in ``quarantine``.
        """
        metrics = get_metrics()
        metrics.counter("store.corruption.detected").inc()
        logger.warning(
            "store %s: quarantining corrupt %s row %s (%s)",
            self.path,
            source,
            row_key,
            reason,
        )

        def move(conn: sqlite3.Connection) -> None:
            conn.execute(
                "INSERT INTO quarantine"
                " (source, row_key, doc, reason, quarantined_s)"
                " VALUES (?, ?, ?, ?, ?)",
                (source, row_key, doc, reason, time.time()),
            )
            conn.execute(delete_sql, delete_params)

        self._write(move)
        metrics.counter("store.corruption.quarantined").inc()

    def _estimate_from_row(
        self, eval_id: str, key: str, text: str, checksum: Optional[str]
    ) -> Optional[PerformanceEstimate]:
        """Verify + parse one estimate row; corrupt rows are quarantined.

        Legacy rows (``NULL`` checksum) skip the hash comparison but
        still must parse; ``verify --repair`` backfills their checksums.
        """
        reason = None
        if checksum is not None and _checksum(text) != checksum:
            reason = "checksum mismatch"
        else:
            try:
                return estimate_from_json(json.loads(text))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                    IndexError) as exc:
                reason = f"unparsable estimate: {type(exc).__name__}"
        self._quarantine(
            "estimates",
            f"{eval_id}/{key}",
            text,
            reason,
            "DELETE FROM estimates WHERE eval_id = ? AND config_key = ?",
            (eval_id, key),
        )
        return None

    def _doc_from_row(
        self, table: str, job_id: str, text: str, checksum: Optional[str]
    ) -> Optional[Dict[str, Any]]:
        """Verify + parse one manifest/trace row (quarantining corrupt ones)."""
        reason = None
        if checksum is not None and _checksum(text) != checksum:
            reason = "checksum mismatch"
        else:
            try:
                doc = json.loads(text)
                if isinstance(doc, dict):
                    return doc
                reason = "document is not a JSON object"
            except json.JSONDecodeError as exc:
                reason = f"unparsable document: {type(exc).__name__}"
        self._quarantine(
            table,
            job_id,
            text,
            reason,
            "DELETE FROM {0} WHERE job_id = ?".format(table),
            (job_id,),
        )
        return None

    # ------------------------------------------------------------------
    # estimates

    def get(
        self, eval_id: str, config: CacheConfig
    ) -> Optional[PerformanceEstimate]:
        """The stored estimate for one configuration, or ``None``.

        A row that fails its checksum or no longer parses is quarantined
        and reported as a miss -- the caller re-evaluates and the fresh
        estimate repopulates the store.
        """
        started = time.perf_counter()
        with self._lock:
            row = self._conn.execute(
                "SELECT estimate, checksum FROM estimates"
                " WHERE eval_id = ? AND config_key = ?",
                (eval_id, config_key(config)),
            ).fetchone()
        self._read_hist.observe(time.perf_counter() - started)
        if row is not None:
            estimate = self._estimate_from_row(
                eval_id, config_key(config), row[0], row[1]
            )
            if estimate is not None:
                self._hit_counter.inc()
                return estimate
        self._miss_counter.inc()
        return None

    def get_many(
        self, eval_id: str, configs: Sequence[CacheConfig]
    ) -> Dict[CacheConfig, PerformanceEstimate]:
        """Every stored estimate among ``configs`` (missing ones omitted)."""
        started = time.perf_counter()
        found: Dict[CacheConfig, PerformanceEstimate] = {}
        corrupt: List[Tuple[CacheConfig, str, Optional[str]]] = []
        with self._lock:
            for config in configs:
                row = self._conn.execute(
                    "SELECT estimate, checksum FROM estimates"
                    " WHERE eval_id = ? AND config_key = ?",
                    (eval_id, config_key(config)),
                ).fetchone()
                if row is not None:
                    corrupt.append((config, row[0], row[1]))
        # Verification happens outside the row loop so quarantine writes
        # never interleave with the read cursor.
        for config, text, checksum in corrupt:
            estimate = self._estimate_from_row(
                eval_id, config_key(config), text, checksum
            )
            if estimate is not None:
                found[config] = estimate
        self._read_hist.observe(time.perf_counter() - started)
        hits = len(found)
        if hits:
            self._hit_counter.inc(hits)
        misses = len(configs) - hits
        if misses:
            self._miss_counter.inc(misses)
        return found

    def put(
        self, eval_id: str, config: CacheConfig, estimate: PerformanceEstimate
    ) -> None:
        """Durably record one estimate (first writer wins)."""
        self.put_many(eval_id, [(config, estimate)])

    def put_many(
        self,
        eval_id: str,
        pairs: Iterable[Tuple[CacheConfig, PerformanceEstimate]],
    ) -> None:
        """Durably record a batch of estimates in one transaction."""
        rows = []
        for config, estimate in pairs:
            text = json.dumps(estimate_to_json(estimate), sort_keys=True)
            rows.append(
                (
                    eval_id,
                    config_key(config),
                    text,
                    time.time(),
                    _checksum(text),
                )
            )
        if not rows:
            return
        started = time.perf_counter()
        self._write(
            lambda conn: conn.executemany(
                "INSERT OR IGNORE INTO estimates"
                " (eval_id, config_key, estimate, created_s, checksum)"
                " VALUES (?, ?, ?, ?, ?)",
                rows,
            )
        )
        self._write_hist.observe(time.perf_counter() - started)
        self._put_counter.inc(len(rows))

    def result_for(
        self, eval_id: str, configs: Sequence[CacheConfig]
    ) -> Optional[ExplorationResult]:
        """The full sweep result, or ``None`` unless *every* row is stored."""
        found = self.get_many(eval_id, configs)
        if len(found) != len(configs):
            return None
        return ExplorationResult([found[config] for config in configs])

    def count(self, eval_id: Optional[str] = None) -> int:
        """Stored estimates, overall or for one evaluator fingerprint."""
        with self._lock:
            if eval_id is None:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM estimates"
                ).fetchone()
            else:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM estimates WHERE eval_id = ?",
                    (eval_id,),
                ).fetchone()
        return int(row[0])

    def __len__(self) -> int:
        return self.count()

    # ------------------------------------------------------------------
    # job persistence (used by repro.serve.jobs across restarts)

    def save_job(self, job_id: str, doc: Dict[str, Any]) -> None:
        """Persist (or update) one job record as JSON."""
        text = json.dumps(doc, sort_keys=True)
        self._write(
            lambda conn: conn.execute(
                "INSERT OR REPLACE INTO jobs (job_id, doc) VALUES (?, ?)",
                (job_id, text),
            )
        )

    def load_jobs(self) -> List[Dict[str, Any]]:
        """Every persisted job record (insertion order is not guaranteed)."""
        with self._lock:
            rows = self._conn.execute("SELECT doc FROM jobs").fetchall()
        return [json.loads(row[0]) for row in rows]

    def delete_job(self, job_id: str) -> None:
        """Drop one persisted job record (idempotent)."""
        self._write(
            lambda conn: conn.execute(
                "DELETE FROM jobs WHERE job_id = ?", (job_id,)
            )
        )

    # ------------------------------------------------------------------
    # run manifests (repro.manifest/1 provenance, keyed by job)

    def save_manifest(self, job_id: str, doc: Dict[str, Any]) -> None:
        """Persist one job's ``repro.manifest/1`` document."""
        text = json.dumps(doc, sort_keys=True)
        self._write(
            lambda conn: conn.execute(
                "INSERT OR REPLACE INTO manifests (job_id, doc, checksum)"
                " VALUES (?, ?, ?)",
                (job_id, text, _checksum(text)),
            )
        )

    def load_manifest(self, job_id: str) -> Optional[Dict[str, Any]]:
        """One job's manifest, or ``None`` (corrupt rows are quarantined)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT doc, checksum FROM manifests WHERE job_id = ?",
                (job_id,),
            ).fetchone()
        if row is None:
            return None
        return self._doc_from_row("manifests", job_id, row[0], row[1])

    # ------------------------------------------------------------------
    # job timelines (repro.trace/1 documents, keyed by job)

    def save_trace(self, job_id: str, doc: Dict[str, Any]) -> None:
        """Persist one job's ``repro.trace/1`` timeline document."""
        text = json.dumps(doc, sort_keys=True)
        self._write(
            lambda conn: conn.execute(
                "INSERT OR REPLACE INTO traces (job_id, doc, checksum)"
                " VALUES (?, ?, ?)",
                (job_id, text, _checksum(text)),
            )
        )

    def load_trace(self, job_id: str) -> Optional[Dict[str, Any]]:
        """One job's timeline, or ``None`` (corrupt rows are quarantined)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT doc, checksum FROM traces WHERE job_id = ?",
                (job_id,),
            ).fetchone()
        if row is None:
            return None
        return self._doc_from_row("traces", job_id, row[0], row[1])

    def stats(self) -> Dict[str, Any]:
        """Row counts per table plus the sqlite file size in bytes.

        The service refreshes its ``store.*`` gauges from this on every
        ``/metrics`` snapshot.
        """
        counts: Dict[str, Any] = {}
        with self._lock:
            for table in (
                "estimates", "jobs", "manifests", "traces", "quarantine"
            ):
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM {0}".format(table)
                ).fetchone()
                counts[table] = int(row[0])
        try:
            counts["file_bytes"] = os.path.getsize(self.path)
        except OSError:
            counts["file_bytes"] = 0
        return counts

    # ------------------------------------------------------------------
    # integrity scan / repair

    def verify(
        self, repair: bool = False, spool_dir: Optional[str] = None
    ) -> Dict[str, Any]:
        """Scan every checksummed table; optionally repair in place.

        Without ``repair`` this is a pure audit: corrupt rows are
        counted (and named in ``report["corrupt_rows"]``) but the file
        is untouched.  With ``repair``:

        * corrupt rows move to ``quarantine`` (the bytes survive as
          evidence);
        * legacy rows written before checksums gain one (backfill);
        * quarantined *estimates* are rebuilt from the serve layer's
          checkpoint journals in ``spool_dir`` -- every persisted job's
          spec names its journal, and journaled estimates re-insert
          under fresh checksums (first writer wins, so re-verified rows
          are never overwritten).
        """
        report: Dict[str, Any] = {
            "scanned": 0,
            "corrupt": 0,
            "quarantined": 0,
            "missing_checksum": 0,
            "checksums_added": 0,
            "rows_rebuilt": 0,
            "corrupt_rows": [],
            "clean": True,
        }
        self._verify_estimates(report, repair)
        for table in ("manifests", "traces"):
            self._verify_documents(table, report, repair)
        if repair and spool_dir is not None:
            self._rebuild_from_journals(report, spool_dir)
        # After a repair the corrupt rows are quarantined, not lurking.
        report["clean"] = report["corrupt"] == 0 or (
            repair and report["quarantined"] == report["corrupt"]
        )
        return report

    def _verify_estimates(self, report: Dict[str, Any], repair: bool) -> None:
        with self._lock:
            rows = self._conn.execute(
                "SELECT eval_id, config_key, estimate, checksum"
                " FROM estimates"
            ).fetchall()
        backfill: List[Tuple[str, str, str]] = []
        for eval_id, key, text, checksum in rows:
            report["scanned"] += 1
            reason = None
            if checksum is not None and _checksum(text) != checksum:
                reason = "checksum mismatch"
            else:
                try:
                    estimate_from_json(json.loads(text))
                except (json.JSONDecodeError, KeyError, TypeError,
                        ValueError, IndexError) as exc:
                    reason = f"unparsable estimate: {type(exc).__name__}"
            if reason is not None:
                report["corrupt"] += 1
                report["corrupt_rows"].append(
                    {"table": "estimates", "key": f"{eval_id}/{key}",
                     "reason": reason}
                )
                if repair:
                    self._quarantine(
                        "estimates", f"{eval_id}/{key}", text, reason,
                        "DELETE FROM estimates"
                        " WHERE eval_id = ? AND config_key = ?",
                        (eval_id, key),
                    )
                    report["quarantined"] += 1
                continue
            if checksum is None:
                report["missing_checksum"] += 1
                if repair:
                    backfill.append((_checksum(text), eval_id, key))
        if backfill:
            self._write(
                lambda conn: conn.executemany(
                    "UPDATE estimates SET checksum = ?"
                    " WHERE eval_id = ? AND config_key = ?",
                    backfill,
                )
            )
            report["checksums_added"] += len(backfill)

    def _verify_documents(
        self, table: str, report: Dict[str, Any], repair: bool
    ) -> None:
        with self._lock:
            rows = self._conn.execute(
                "SELECT job_id, doc, checksum FROM {0}".format(table)
            ).fetchall()
        backfill: List[Tuple[str, str]] = []
        for job_id, text, checksum in rows:
            report["scanned"] += 1
            reason = None
            if checksum is not None and _checksum(text) != checksum:
                reason = "checksum mismatch"
            else:
                try:
                    json.loads(text)
                except json.JSONDecodeError as exc:
                    reason = f"unparsable document: {type(exc).__name__}"
            if reason is not None:
                report["corrupt"] += 1
                report["corrupt_rows"].append(
                    {"table": table, "key": job_id, "reason": reason}
                )
                if repair:
                    self._quarantine(
                        table, job_id, text, reason,
                        "DELETE FROM {0} WHERE job_id = ?".format(table),
                        (job_id,),
                    )
                    report["quarantined"] += 1
                continue
            if checksum is None:
                report["missing_checksum"] += 1
                if repair:
                    backfill.append((_checksum(text), job_id))
        if backfill:
            statement = (
                "UPDATE {0} SET checksum = ? WHERE job_id = ?".format(table)
            )
            self._write(
                lambda conn: conn.executemany(statement, backfill)
            )
            report["checksums_added"] += len(backfill)

    def _rebuild_from_journals(
        self, report: Dict[str, Any], spool_dir: str
    ) -> None:
        """Refill quarantined/missing estimates from checkpoint journals.

        Every persisted job record names its spec; the spec derives both
        the journal path (``<spool>/<spec_hash>.jsonl``) and the
        ``eval_id`` its rows belong under.  ``INSERT OR IGNORE`` keeps
        healthy rows authoritative -- only the holes fill in.
        """
        # Imported here: repro.serve.jobs imports this module at load time.
        from repro.serve.jobs import JobSpec

        for doc in self.load_jobs():
            try:
                spec = JobSpec.from_json(doc["spec"])
            except (KeyError, ValueError):
                continue
            journal = os.path.join(spool_dir, f"{spec.spec_hash}.jsonl")
            if not os.path.exists(journal):
                continue
            try:
                estimates = load_checkpoint_estimates(journal)
            except Exception as exc:
                logger.warning(
                    "verify: could not read journal %s: %s", journal, exc
                )
                continue
            before = self.count()
            self.put_many(
                spec.eval_id(),
                [(estimate.config, estimate) for estimate in estimates],
            )
            report["rows_rebuilt"] += self.count() - before

    def close(self) -> None:
        """Close the underlying connection (the file remains usable)."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class StoreBackedEvaluator:
    """An evaluator with the persistent store as its L2 result tier.

    ``evaluate_batch(configs)`` returns the stored estimates that exist --
    skipping trace generation, miss measurement and the in-memory
    :class:`~repro.engine.cache.EvalCache` entirely -- and delegates the
    rest to the wrapped evaluator's ``evaluate_batch``, recording the
    fresh estimates.  The store is read and written in the caller's
    process only: the wrapper never crosses a process boundary.
    Every delegated attribute (``workload``, ``backend``, ``cache``,
    ``energy_model``, ``gray_code``) mirrors the inner evaluator, so
    checkpoint fingerprints and sweep chunking do not change when the
    store is layered in.
    """

    def __init__(
        self,
        evaluator: Any,
        store: ResultStore,
        eval_id: Optional[str] = None,
    ) -> None:
        self.inner = evaluator
        self.eval_id = (
            eval_id if eval_id is not None else evaluator_fingerprint(evaluator)
        )
        self.store = store

    @property
    def workload(self):
        """The inner evaluator's workload (identity passthrough)."""
        return getattr(self.inner, "workload", None)

    @property
    def backend(self):
        """The inner evaluator's backend (identity passthrough)."""
        return getattr(self.inner, "backend", None)

    @property
    def energy_model(self):
        """The inner evaluator's energy model (identity passthrough)."""
        return getattr(self.inner, "energy_model", None)

    @property
    def gray_code(self):
        """The inner evaluator's Gray-coding flag (identity passthrough)."""
        return getattr(self.inner, "gray_code", None)

    @property
    def cache(self):
        """The inner evaluator's in-memory L1 cache."""
        return getattr(self.inner, "cache", None)

    def evaluate(self, config: CacheConfig) -> PerformanceEstimate:
        """One configuration, from the store when possible (a batch of one)."""
        return self.evaluate_batch([config])[0]

    def evaluate_batch(
        self, configs: Any
    ) -> "list[PerformanceEstimate]":
        """Many configurations: one store read, one batch for the rest.

        Keeps the grouped cold path (one stack-filter pass per trace/line
        size group) intact underneath the store tier: stored estimates
        are returned as-is and only the misses reach the inner evaluator;
        the fresh estimates are recorded in one store write.
        """
        configs = list(configs)
        unique = list(dict.fromkeys(configs))
        found = self.store.get_many(self.eval_id, unique)
        cold = [config for config in unique if config not in found]
        if cold:
            fresh = self.inner.evaluate_batch(cold)
            self.store.put_many(self.eval_id, zip(cold, fresh))
            found.update(zip(cold, fresh))
        return [found[config] for config in configs]


def open_store(path: str) -> ResultStore:
    """Open (creating directories as needed) the store at ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    return ResultStore(path)
